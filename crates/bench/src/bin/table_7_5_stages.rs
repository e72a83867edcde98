//! §7.5 (and the §2.1 summary bar chart) — static measures and throughput
//! of `P_enc` and `P_dec{2,4,5,6}` after each optimization stage, RS(10,4),
//! B = 1K.
//!
//! Paper (intel, 1K):
//! ```text
//! P_enc:  #⊕ 755→385→146(insts)   #M 2265→1155→677   NVar 32→385→146→88
//!         CCap 92→447→224→167     GB/s 4.03→4.36→7.50→8.92
//! P_dec:  #⊕ 1368→511→206         #M 4104→1533→923   NVar 32→511→206→125
//!         CCap 89→585→283→205     GB/s 2.35→3.32→5.51→6.67
//! ```
//! Note: for fused stages the paper reports the *instruction count* in its
//! `#⊕` row (scalar XOR operations are invariant under fusion); we print
//! both.

use ec_bench::{
    dec_base_slp, enc_base_slp, print_env_header, reps, rule, workload_bytes, BenchRunner,
};
use slp::Slp;
use slp_optimizer::{fuse, schedule_dfs, xor_repair, StageMetrics};
use xor_runtime::Kernel;

fn stage_row(name: &str, slp: &Slp, blocksize: usize) {
    let m = StageMetrics::of(slp);
    let mut r = BenchRunner::new(slp, blocksize, Kernel::Auto, workload_bytes());
    let gbps = r.throughput(reps());
    println!(
        "{:>22} | {:>6} | {:>6} | {:>6} | {:>5} | {:>5} | {:>7.2}",
        name,
        m.xors,
        slp.instrs.len(),
        m.mem,
        m.nvar,
        m.ccap,
        gbps
    );
}

fn run(label: &str, base: &Slp, blocksize: usize) {
    println!("--- {label} (B = {blocksize})");
    println!(
        "{:>22} | {:>6} | {:>6} | {:>6} | {:>5} | {:>5} | {:>7}",
        "stage", "#⊕ops", "insts", "#M", "NVar", "CCap", "GB/s"
    );
    println!("{}", rule(78));
    let co = xor_repair(base).0;
    let fu = fuse(&co);
    let dfs = schedule_dfs(&fu);
    stage_row("Base", base, blocksize);
    stage_row("Co = XorRePair", &co, blocksize);
    stage_row("Fu(Co)", &fu, blocksize);
    stage_row("Dfs(Fu(Co))", &dfs, blocksize);
    println!();
}

fn main() {
    print_env_header("Table 7.5 / §2.1 summary: per-stage metrics and throughput, RS(10,4)");
    let blocksize = 1024; // the paper's intel pick
    run("P_enc", &enc_base_slp(10, 4), blocksize);
    run(
        "P_dec {2,4,5,6}",
        &dec_base_slp(10, 4, &[2, 4, 5, 6]),
        blocksize,
    );
    println!("paper (intel 1K): enc 4.03 → 4.36 → 7.50 → 8.92 GB/s;");
    println!("                  dec 2.35 → 3.32 → 5.51 → 6.67 GB/s.");
    println!("expected shape: each stage increases throughput; Fuse is the biggest jump.");
}
