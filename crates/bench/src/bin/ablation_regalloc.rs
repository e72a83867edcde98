//! §6.3 ablation — why register allocation alone is not enough.
//!
//! The paper argues (via the P_reg example) that renaming variables
//! without reordering shrinks `NVar` and a little of `IOcost` but cannot
//! touch `CCap`, whereas pebble-game scheduling improves all three. This
//! binary quantifies that on the real RS(10,4) programs, plus measured
//! throughput.

use ec_bench::{
    dec_base_slp, enc_base_slp, print_env_header, reps, rule, workload_bytes, BenchRunner,
};
use slp::{ccap, iocost, Slp};
use slp_optimizer::{assign_registers, fuse, schedule_dfs, schedule_greedy, xor_repair};
use xor_runtime::Kernel;

fn row(name: &str, slp: &Slp, cache_blocks: usize) {
    let mut r = BenchRunner::new(slp, 1024, Kernel::Auto, workload_bytes());
    println!(
        "{:>28} | {:>5} | {:>5} | {:>9} | {:>7.2}",
        name,
        slp.nvar(),
        ccap(slp),
        iocost(slp, cache_blocks),
        r.throughput(reps())
    );
}

fn run(label: &str, base: &Slp) {
    // abstract cache: 32 KiB L1 / 1 KiB blocks = 32 blocks
    let cache_blocks = 32;
    println!("--- {label} (IOcost at {cache_blocks} blocks ≙ 32 KiB L1 / 1 KiB)");
    println!(
        "{:>28} | {:>5} | {:>5} | {:>9} | {:>7}",
        "program", "NVar", "CCap", "IOcost", "GB/s"
    );
    println!("{}", rule(68));
    let fuco = fuse(&xor_repair(base).0);
    let reg = assign_registers(&fuco);
    let dfs = schedule_dfs(&fuco);
    let greedy = schedule_greedy(&fuco, cache_blocks);
    row("Fu(Co)  (no allocation)", &fuco, cache_blocks);
    row("RegAlloc(Fu(Co))", &reg, cache_blocks);
    row("Dfs(Fu(Co))", &dfs, cache_blocks);
    row("Greedy(Fu(Co))", &greedy, cache_blocks);
    println!();
}

fn main() {
    print_env_header("§6.3 ablation: register allocation vs pebble-game scheduling");
    run("P_enc RS(10,4)", &enc_base_slp(10, 4));
    run("P_dec {2,4,5,6}", &dec_base_slp(10, 4, &[2, 4, 5, 6]));
    println!("expected (paper §6.3): renaming shrinks NVar but leaves CCap unchanged;");
    println!("scheduling (reordering + renaming) improves NVar, CCap and IOcost together.");
}
