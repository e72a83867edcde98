//! A guided tour of the optimization pipeline (§4–§6 of the paper),
//! showing each pass transforming the RS(10,4) encoding program and the
//! effect on all four cost measures.
//!
//! ```text
//! cargo run --release --example slp_pipeline
//! ```

use std::time::Instant;
use xorslp_ec::bits::BitMatrix;
use xorslp_ec::codec::{RsCodec, RsConfig};
use xorslp_ec::gf::{encoding_matrix, MatrixKind};
use xorslp_ec::opt::{fuse, schedule_dfs, xor_repair, StageMetrics};
use xorslp_ec::slp::binary_slp_from_bitmatrix;

fn show(stage: &str, m: &StageMetrics) {
    println!(
        "{stage:<22} #⊕ = {:>5}   #M = {:>5}   NVar = {:>4}   CCap = {:>4}",
        m.xors, m.mem, m.nvar, m.ccap
    );
}

/// How often each stage runs: a single cold run times page faults and
/// whatever else the machine is doing, so the best of many is reported.
const RUNS: usize = 50;

/// Run one stage `RUNS` times; returns its output and the best wall time
/// of one run, in milliseconds.
fn timed<T>(mut stage: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..RUNS {
        let start = Instant::now();
        let run = stage();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(run);
    }
    (out.expect("RUNS is positive"), best)
}

fn main() {
    // Build the paper's P_enc: the parity block of the RS(10,4) coding
    // matrix, expanded over F2, read off as a straight-line program.
    let matrix = encoding_matrix(MatrixKind::IsalPower, 10, 4);
    let parity_rows: Vec<usize> = (10..14).collect();
    let bits = BitMatrix::expand_gf_matrix(&matrix.select_rows(&parity_rows));
    let (base, build_ms) = timed(|| binary_slp_from_bitmatrix(&bits));

    println!("stage                  cost measures (paper §7.5 first table)");
    println!("{}", "-".repeat(72));
    show("P_enc (Base)", &StageMetrics::of(&base));

    // §4: compression by XorRePair — fewer XORs, but many new temporaries.
    let ((compressed, stats), compress_ms) = timed(|| xor_repair(&base));
    show("Co(P_enc)", &StageMetrics::of(&compressed));
    println!(
        "{:>22} ({} pairings, {} cancellation rebuilds, {} Rebuild probes)",
        "", stats.pairs, stats.rebuilds_applied, stats.rebuild_probes
    );

    // §5: XOR fusion — intermediate arrays deforested away.
    let (fused, fuse_ms) = timed(|| fuse(&compressed));
    show("Fu(Co(P_enc))", &StageMetrics::of(&fused));

    // §6: pebble-game scheduling — buffers reused, locality restored.
    let (scheduled, schedule_ms) = timed(|| schedule_dfs(&fused));
    show("Dfs(Fu(Co(P_enc)))", &StageMetrics::of(&scheduled));

    // All four programs compute the same outputs.
    assert_eq!(base.eval(), compressed.eval());
    assert_eq!(base.eval(), fused.eval());
    assert_eq!(base.eval(), scheduled.eval());
    println!("{}", "-".repeat(72));
    println!("⟦Base⟧ = ⟦Co⟧ = ⟦Fu(Co)⟧ = ⟦Dfs(Fu(Co))⟧  ✓ (set semantics)");
    // The whole codec build: matrix, optimizer pipeline, compiled program.
    let (_, codec_ms) = timed(|| RsCodec::with_config(RsConfig::new(10, 4)).expect("RS(10, 4)"));
    println!(
        "compile time, best of {RUNS} runs: build {build_ms:.3} ms, compress {compress_ms:.3} ms, \
         fuse {fuse_ms:.3} ms, schedule {schedule_ms:.3} ms; RsCodec::with_config {codec_ms:.3} ms"
    );

    // Show the first lines of the final program, in the paper's notation.
    println!("\nfirst 10 instructions of the scheduled program:");
    for line in scheduled.to_string().lines().take(10) {
        println!("    {line}");
    }
    println!("    …");
}
