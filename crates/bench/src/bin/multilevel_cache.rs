//! §8 (future work) — a multilevel look at the abstract cache model.
//!
//! The paper optimizes against L1 only and names Savage's multilevel
//! pebble game as future work. As an analysis-only extension we evaluate
//! `IOcost` of each pipeline stage at *both* an L1-sized and an L2-sized
//! abstract cache, for the paper's blocksizes. This quantifies how much
//! headroom an L2-aware scheduler would have: transfers that the L1 model
//! counts but an L2 model absorbs are exactly the ones software
//! prefetching (the paper's other future-work item) could hide.

use ec_bench::{dec_base_slp, enc_base_slp, rule};
use slp::{iocost, Slp};
use slp_optimizer::{fuse, schedule_dfs, xor_repair};

const L1: usize = 32 * 1024;
const L2: usize = 1024 * 1024;

fn analyze(label: &str, base: &Slp) {
    println!("--- {label}");
    println!(
        "{:>16} | {:>22} | {:>22}",
        "", "IOcost @ L1 (32K/B)", "IOcost @ L2 (1M/B)"
    );
    println!(
        "{:>16} | {:>6} {:>7} {:>7} | {:>6} {:>7} {:>7}",
        "stage", "B=512", "B=1K", "B=2K", "B=512", "B=1K", "B=2K"
    );
    println!("{}", rule(70));
    let co = xor_repair(base).0;
    let fu = fuse(&co);
    let dfs = schedule_dfs(&fu);
    for (name, slp) in [
        ("Base", base),
        ("Co", &co),
        ("Fu(Co)", &fu),
        ("Dfs(Fu(Co))", &dfs),
    ] {
        let costs: Vec<usize> = [L1, L2]
            .iter()
            .flat_map(|&lvl| {
                [512usize, 1024, 2048]
                    .into_iter()
                    .map(move |b| iocost(slp, (lvl / b).max(2)))
            })
            .collect();
        println!(
            "{:>16} | {:>6} {:>7} {:>7} | {:>6} {:>7} {:>7}",
            name, costs[0], costs[1], costs[2], costs[3], costs[4], costs[5]
        );
    }
    println!();
}

fn main() {
    println!("== multilevel abstract-cache analysis (extension of §6/§8)\n");
    analyze("P_enc RS(10,4)", &enc_base_slp(10, 4));
    analyze("P_dec {2,4,5,6}", &dec_base_slp(10, 4, &[2, 4, 5, 6]));
    println!("reading: at L2 capacity the scheduled program's transfers approach the");
    println!("compulsory minimum (one load per input + one store per output), so an");
    println!("L2-aware scheduler has little left to gain — L1 locality is the fight.");
}
