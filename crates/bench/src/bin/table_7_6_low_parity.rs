//! §7.6 extension — the specialized two-parity comparison the paper could
//! only quote from Zhou & Tian's study: EVENODD and RDP, implemented here
//! on the same SLP pipeline, against our general RS(k, 2) codec.
//!
//! The paper's table marks several RS(d,2) cells with `·E` (EvenOdd) and
//! `·R` (RDP) as the best specialized results (8–10.6 GB/s on their
//! machines vs their general codec). The claim §7.6 closes with — "our
//! library works well without specializing for low parities" — is what
//! this binary tests locally: general RS(k,2) should be at least in the
//! same league as the specialized codes.

use array_codes::ArrayCodec;
use ec_bench::{enc_base_slp, print_env_header, reps, rule, workload_bytes, BenchRunner};
use slp_optimizer::{optimize, OptConfig};
use xor_runtime::Kernel;

fn main() {
    print_env_header("§7.6 low-parity extension: RS(k,2) vs EVENODD vs RDP");
    println!(
        "{:>5} | {:>22} | {:>8} | {:>7} | {:>7}",
        "k", "code", "#⊕ base", "insts", "enc GB/s"
    );
    println!("{}", rule(62));

    for k in [8usize, 10] {
        // General RS(k,2) through the same pipeline (program-level run).
        {
            let base = enc_base_slp(k, 2);
            let opt = optimize(&base, OptConfig::FULL_DFS);
            let mut runner = ec_bench::BenchRunner::new(&opt, 1024, Kernel::Auto, workload_bytes());
            let gbps = runner.throughput(reps());
            println!(
                "{:>5} | {:>22} | {:>8} | {:>7} | {:>7.2}",
                k,
                format!("RS({k},2) general"),
                base.xor_count(),
                opt.instrs.len(),
                gbps
            );
        }

        // EVENODD and RDP, measured program-level like the RS row.
        for codec in [ArrayCodec::evenodd(k), ArrayCodec::rdp(k)] {
            let mut runner =
                BenchRunner::new(codec.encode_slp(), 1024, Kernel::Auto, workload_bytes());
            let gbps = runner.throughput(reps());
            // base XOR count = popcount of the raw parity bit-matrix rows
            let base_xors: usize = {
                let m = match codec.name().starts_with("EVENODD") {
                    true => array_codes::evenodd_parity_bitmatrix(k, codec.prime()),
                    false => array_codes::rdp_parity_bitmatrix(k, codec.prime()),
                };
                (0..m.rows())
                    .map(|r| m.row_popcount(r).saturating_sub(1))
                    .sum()
            };
            println!(
                "{:>5} | {:>22} | {:>8} | {:>7} | {:>7.2}",
                k,
                codec.name(),
                base_xors,
                codec.encode_slp().instrs.len(),
                gbps
            );
        }
        println!("{}", rule(62));
    }
    println!("all rows are program-level over staggered strips (B = 1K). Expected");
    println!("(§7.6's closing claim): the general RS(k,2) pipeline is in the same");
    println!("league as — or better than — the specialized two-parity array codes.");
}
