//! A guided tour of the optimization pipeline (§4–§6 of the paper),
//! showing each pass transforming the RS(10,4) encoding program and the
//! effect on all four cost measures.
//!
//! ```text
//! cargo run --release --example slp_pipeline
//! ```

use std::time::Instant;
use xorslp_ec::bits::BitMatrix;
use xorslp_ec::gf::{encoding_matrix, MatrixKind};
use xorslp_ec::opt::{fuse, schedule_dfs, xor_repair, StageMetrics};
use xorslp_ec::slp::binary_slp_from_bitmatrix;

fn show(stage: &str, m: &StageMetrics) {
    println!("{stage:<22} #⊕ = {:>5}   #M = {:>5}   NVar = {:>4}   CCap = {:>4}",
        m.xors, m.mem, m.nvar, m.ccap);
}

/// Run one stage and report how long it took, in milliseconds.
fn timed<T>(stage: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = stage();
    (out, start.elapsed().as_secs_f64() * 1e3)
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
    println!(
        "compile time: build {build_ms:.3} ms, compress {compress_ms:.3} ms, \
         fuse {fuse_ms:.3} ms, schedule {schedule_ms:.3} ms"
    );

    // Show the first lines of the final program, in the paper's notation.
    println!("\nfirst 10 instructions of the scheduled program:");
    for line in scheduled.to_string().lines().take(10) {
        println!("    {line}");
    }
    println!("    …");
}
