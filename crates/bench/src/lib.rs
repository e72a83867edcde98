//! Shared infrastructure for the benchmark harness that regenerates every
//! table and figure of the paper's evaluation (§7).
//!
//! Each table has a dedicated binary under `src/bin/`; run e.g.
//!
//! ```text
//! cargo run --release -p xorslp-bench --bin table_7_5_stages
//! ```
//!
//! Environment knobs:
//!
//! * `BENCH_MB` — workload size in MB (default 10, as in the paper);
//! * `BENCH_REPS` — repetitions per measurement (default 50);
//! * `BENCH_SAMPLE` — for the 1002-SLP averages, sample this many decode
//!   patterns instead of all 1001 (default: all).

use gf256::{encoding_matrix, GfMatrix, MatrixKind};
use slp::{binary_slp_from_bitmatrix, Slp};
use std::time::Instant;
use xor_runtime::{ExecProgram, Kernel, StripedBuf};

/// Workload size in bytes (`BENCH_MB`, default 10 MB — the paper's size).
pub fn workload_bytes() -> usize {
    std::env::var("BENCH_MB")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(10)
        * 1_000_000
}

/// Repetitions per throughput measurement (`BENCH_REPS`, default 50).
pub fn reps() -> usize {
    std::env::var("BENCH_REPS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(50)
}

/// Optional sampling for the 1002-SLP sweeps (`BENCH_SAMPLE`).
pub fn sample_size() -> Option<usize> {
    std::env::var("BENCH_SAMPLE")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
}

/// The paper's coding matrix for RS(n, p).
pub fn rs_matrix(n: usize, p: usize) -> GfMatrix {
    encoding_matrix(MatrixKind::IsalPower, n, p)
}

/// The unoptimized (binary-chain) encoding SLP `P_enc`.
pub fn enc_base_slp(n: usize, p: usize) -> Slp {
    let m = rs_matrix(n, p);
    let rows: Vec<usize> = (n..n + p).collect();
    binary_slp_from_bitmatrix(&bitmatrix::BitMatrix::expand_gf_matrix(
        &m.select_rows(&rows),
    ))
}

/// The unoptimized decoding SLP for an erasure pattern (data losses only).
///
/// # Panics
/// Panics if the pattern loses no data shard or is undecodable.
pub fn dec_base_slp(n: usize, p: usize, lost: &[usize]) -> Slp {
    let m = rs_matrix(n, p);
    let survivors: Vec<usize> = (0..n + p).filter(|i| !lost.contains(i)).collect();
    let inv = m
        .select_rows(&survivors[..n])
        .invert()
        .expect("decodable pattern");
    let lost_data: Vec<usize> = lost.iter().copied().filter(|&i| i < n).collect();
    assert!(!lost_data.is_empty(), "pattern loses no data shard");
    let rec = inv.select_rows(&lost_data);
    binary_slp_from_bitmatrix(&bitmatrix::BitMatrix::expand_gf_matrix(&rec))
}

/// All `C(n+p, p)` erasure patterns that lose at least one data shard
/// (the paper's 1001 decoding matrices for RS(10,4), minus the single
/// parity-only pattern whose program is empty).
pub fn decode_patterns(n: usize, p: usize) -> Vec<Vec<usize>> {
    let total = n + p;
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..p).collect();
    loop {
        if idx.iter().any(|&i| i < n) {
            out.push(idx.clone());
        }
        // next combination
        let mut i = p;
        let mut done = true;
        while i > 0 {
            i -= 1;
            if idx[i] != i + total - p {
                idx[i] += 1;
                for j in i + 1..p {
                    idx[j] = idx[j - 1] + 1;
                }
                done = false;
                break;
            }
        }
        if done {
            return out;
        }
    }
}

/// The default erasure pattern used for decode throughput numbers:
/// the paper's `{2,4,5,6}` for `p = 4`, truncated for smaller parities.
pub fn paper_decode_pattern(p: usize) -> Vec<usize> {
    [2usize, 4, 5, 6][..p.min(4)].to_vec()
}

/// Throughput harness: a compiled program over staggered input strips,
/// measured as `data_bytes × reps / elapsed` after warm-up runs. Inputs
/// and variable buffers use the §7.4 staggered layout.
pub struct BenchRunner {
    prog: ExecProgram,
    inputs: StripedBuf,
    outputs: StripedBuf,
    /// Total input payload (what throughput is normalized by).
    pub data_bytes: usize,
}

impl BenchRunner {
    /// Prepare a runner: `data_bytes` of pseudo-random input split into
    /// the program's `n_inputs` strips.
    pub fn new(slp: &Slp, blocksize: usize, kernel: Kernel, data_bytes: usize) -> BenchRunner {
        let prog = ExecProgram::compile(slp, blocksize, kernel);
        let strip_len = (data_bytes / prog.n_inputs()).max(1);
        let mut inputs = StripedBuf::new(prog.n_inputs(), strip_len, blocksize);
        let mut state = 0x9E3779B97F4A7C15u64;
        inputs.fill_with(|s, i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as usize + s * 31 + i) as u8
        });
        let outputs = StripedBuf::new(prog.n_outputs(), strip_len, blocksize);
        let data_bytes = strip_len * prog.n_inputs();
        BenchRunner {
            prog,
            inputs,
            outputs,
            data_bytes,
        }
    }

    /// Run `reps` iterations (after `warmup` unmeasured ones) and return
    /// the throughput in GB/s.
    fn run_timed(&mut self, warmup: usize, reps: usize) -> f64 {
        let strip_len = self.inputs.strip_len();
        let mut arena = self.prog.make_arena(strip_len);
        let ins: Vec<&[u8]> = self.inputs.all();
        let mut outs: Vec<&mut [u8]> = self.outputs.all_mut();
        for _ in 0..warmup {
            self.prog
                .run_with_arena(&ins, &mut outs, &mut arena)
                .expect("bench program runs");
        }
        let t = Instant::now();
        for _ in 0..reps.max(1) {
            self.prog
                .run_with_arena(&ins, &mut outs, &mut arena)
                .expect("bench program runs");
        }
        self.data_bytes as f64 * reps.max(1) as f64 / t.elapsed().as_secs_f64() / 1e9
    }

    /// Run once (warm-up / correctness smoke).
    pub fn run_once(&mut self) {
        self.run_timed(0, 1);
    }

    /// Measure throughput in GB/s over `reps` repetitions.
    pub fn throughput(&mut self, reps: usize) -> f64 {
        self.run_timed(3, reps)
    }
}

/// Time a closure: 3 unmeasured warm-up calls (grow arenas/caches to
/// steady state), then `reps` measured calls; returns seconds per call.
///
/// The one timing discipline shared by the plain-main bench bins —
/// change warm-up or clamping here, not per binary.
pub fn time_per_rep(reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let reps = reps.max(1);
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / reps as f64
}

/// Pretty horizontal rule for table output.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Environment header printed by every table binary.
pub fn print_env_header(experiment: &str) {
    println!("== {experiment}");
    println!(
        "machine: {} | kernel {} | {} MB workload, {} reps",
        std::env::consts::ARCH,
        Kernel::Auto.resolve().name(),
        workload_bytes() / 1_000_000,
        reps(),
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_enumeration_counts() {
        // RS(10,4): 1001 total patterns, 1000 lose at least one data shard.
        assert_eq!(decode_patterns(10, 4).len(), 1000);
        assert_eq!(decode_patterns(4, 2).len(), 14); // C(6,2)=15 minus parity-only
    }

    #[test]
    fn base_slps_have_paper_sizes() {
        assert_eq!(enc_base_slp(10, 4).xor_count(), 755);
        assert_eq!(dec_base_slp(10, 4, &[2, 4, 5, 6]).xor_count(), 1368);
    }

    #[test]
    fn bench_runner_smoke() {
        let slp = enc_base_slp(4, 2);
        let mut r = BenchRunner::new(&slp, 1024, Kernel::Auto, 1 << 20);
        r.run_once();
        let gbps = r.throughput(2);
        assert!(gbps > 0.0);
    }
}
