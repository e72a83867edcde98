//! §7.6 — end-to-end throughput comparison: our optimized XOR-based codec
//! vs the ISA-L-style table-driven baseline, for RS(d, 4), RS(d, 3) and
//! RS(d, 2), encode and decode.
//!
//! Paper (intel, B = 1K, GB/s, Ours-Enc / Ours-Dec / ISA-L-Enc / ISA-L-Dec):
//! ```text
//! RS(8,4)  8.86/6.78  7.18/7.04      RS(8,3)  12.32/8.82   9.09/9.25
//! RS(9,4)  8.83/6.71  6.91/6.58      RS(9,3)  11.97/8.27   7.31/7.92
//! RS(10,4) 8.92/6.67  6.79/4.88      RS(10,3) 11.78/8.89   6.78/7.93
//!                                    RS(8,2)  18.79/14.59 12.99/13.34
//!                                    RS(10,2) 18.98/14.66 12.12/12.61
//! ```
//! The claim to reproduce: *ours beats the table-driven baseline on
//! encode at every codec, and is at least on par on decode.*

use ec_bench::{
    dec_base_slp, enc_base_slp, paper_decode_pattern, print_env_header, reps, rule, workload_bytes,
    BenchRunner,
};
use gf_baseline::{GfBackend, GfRsCodec};
use slp_optimizer::{optimize, OptConfig};
use std::time::Instant;
use xor_runtime::Kernel;

/// Baseline encode throughput: parity of `n` shards totalling the
/// workload, GB/s of input data.
fn baseline_encode_gbps(n: usize, p: usize) -> f64 {
    let codec = GfRsCodec::with_options(n, p, gf256::MatrixKind::IsalPower, GfBackend::Auto)
        .expect("baseline codec");
    let shard_len = workload_bytes() / n;
    let data: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            (0..shard_len)
                .map(|t| ((t * 31 + i * 7) % 256) as u8)
                .collect()
        })
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut parity = vec![vec![0u8; shard_len]; p];
    let r = reps();
    // warm-up
    for _ in 0..3 {
        let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        codec.encode_parity(&refs, &mut prefs).expect("encode");
    }
    let t = Instant::now();
    for _ in 0..r {
        let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        codec.encode_parity(&refs, &mut prefs).expect("encode");
    }
    (shard_len * n) as f64 * r as f64 / t.elapsed().as_secs_f64() / 1e9
}

/// Baseline decode throughput for the paper's erasure pattern.
fn baseline_decode_gbps(n: usize, p: usize) -> f64 {
    let codec = GfRsCodec::new(n, p).expect("baseline codec");
    let shard_len = workload_bytes() / n;
    let data: Vec<u8> = (0..n * shard_len)
        .map(|t| ((t * 131) % 256) as u8)
        .collect();
    let shards = codec.encode(&data).expect("encode");
    let mut rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
    for i in paper_decode_pattern(p) {
        rx[i] = None;
    }
    let r = reps();
    for _ in 0..3 {
        let _ = codec.decode(&rx, data.len()).expect("decode");
    }
    let t = Instant::now();
    for _ in 0..r {
        let _ = codec.decode(&rx, data.len()).expect("decode");
    }
    data.len() as f64 * r as f64 / t.elapsed().as_secs_f64() / 1e9
}

fn ours(n: usize, p: usize, blocksize: usize) -> (f64, f64) {
    let enc = optimize(&enc_base_slp(n, p), OptConfig::FULL_DFS);
    let mut er = BenchRunner::new(&enc, blocksize, Kernel::Auto, workload_bytes());
    let e = er.throughput(reps());

    let dec = optimize(
        &dec_base_slp(n, p, &paper_decode_pattern(p)),
        OptConfig::FULL_DFS,
    );
    let mut dr = BenchRunner::new(&dec, blocksize, Kernel::Auto, workload_bytes());
    let d = dr.throughput(reps());
    (e, d)
}

fn main() {
    print_env_header("Table 7.6: ours vs ISA-L-style baseline (GB/s), B = 1K");
    println!(
        "{:>9} | {:>9} {:>9} | {:>9} {:>9} | {:>11}",
        "codec", "ours-enc", "ours-dec", "base-enc", "base-dec", "enc speedup"
    );
    println!("{}", rule(70));
    for p in [4usize, 3, 2] {
        for n in [8usize, 9, 10] {
            let (oe, od) = ours(n, p, 1024);
            let be = baseline_encode_gbps(n, p);
            let bd = baseline_decode_gbps(n, p);
            println!(
                "{:>9} | {:>9.2} {:>9.2} | {:>9.2} {:>9.2} | {:>10.2}x",
                format!("RS({n},{p})"),
                oe,
                od,
                be,
                bd,
                oe / be
            );
        }
        println!("{}", rule(70));
    }
    println!("paper (intel): ours-enc beats ISA-L at every codec (e.g. RS(10,4):");
    println!("8.92 vs 6.79); decode is on par or better. The *shape* to check here");
    println!("is the enc speedup column staying ≥ 1 and growing at low parity.");
    println!("note: baseline decode includes shard reassembly (allocation); its");
    println!("encode column is the like-for-like kernel comparison.");
}
