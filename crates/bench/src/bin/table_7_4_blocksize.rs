//! §7.4 — how the blocking parameter `B` affects throughput for
//! (Case 1) the *uncompressed but fused* encoder and (Case 2) the *fully
//! optimized* encoder under both scheduling heuristics. RS(10,4).
//!
//! Paper (intel, GB/s):
//! ```text
//! Case 1 (P_enc fused):  0.87 1.73 2.85 4.08 5.29 5.78 4.36  (64…4K)
//! Case 2 greedy:         2.29 4.00 6.02 7.61 8.68 8.37 7.24
//! Case 2 dfs:            2.32 3.97 6.09 7.37 8.92 8.55 7.64
//! ```

use ec_bench::{enc_base_slp, print_env_header, reps, rule, workload_bytes, BenchRunner};
use slp_optimizer::{fuse, schedule_dfs, schedule_greedy, xor_repair, StageMetrics};
use xor_runtime::Kernel;

const L1_BYTES: usize = 32 * 1024;

fn main() {
    print_env_header("Table 7.4: blocksize sweep — fused-only vs fully optimized, RS(10,4)");
    let base = enc_base_slp(10, 4);
    let fused_only = fuse(&base);
    let fuco = fuse(&xor_repair(&base).0);
    let dfs = schedule_dfs(&fuco);

    let blocksizes = [64usize, 128, 256, 512, 1024, 2048, 4096];
    let fmt_b = |b: usize| {
        if b >= 1024 {
            format!("{}K", b / 1024)
        } else {
            b.to_string()
        }
    };

    print!("{:>22} |", "program");
    for b in blocksizes {
        print!(" {:>6}", fmt_b(b));
    }
    println!();
    println!("{}", rule(24 + 7 * blocksizes.len()));

    // Case 1: uncompressed but fused (P_enc^{+F}).
    {
        let m = StageMetrics::of(&fused_only);
        print!("{:>22} |", "Case1 fused-only");
        for b in blocksizes {
            let mut r = BenchRunner::new(&fused_only, b, Kernel::Auto, workload_bytes());
            print!(" {:>6.2}", r.throughput(reps()));
        }
        println!("   (NVar={} CCap={})", m.nvar, m.ccap);
    }

    // Case 2: fully optimized, greedy (capacity = L1 / B blocks) and DFS.
    {
        print!("{:>22} |", "Case2 full (greedy)");
        for b in blocksizes {
            let greedy = schedule_greedy(&fuco, (L1_BYTES / b).max(2));
            let mut r = BenchRunner::new(&greedy, b, Kernel::Auto, workload_bytes());
            print!(" {:>6.2}", r.throughput(reps()));
        }
        println!();

        let m = StageMetrics::of(&dfs);
        print!("{:>22} |", "Case2 full (dfs)");
        for b in blocksizes {
            let mut r = BenchRunner::new(&dfs, b, Kernel::Auto, workload_bytes());
            print!(" {:>6.2}", r.throughput(reps()));
        }
        println!("   (NVar={} CCap={})", m.nvar, m.ccap);
    }

    println!();
    println!("paper (intel): Case1 peaks at 2K (5.78), full-dfs peaks at 1K (8.92);");
    println!("expected shape: full > fused-only everywhere; peak in the 1K–2K region.");
}
