//! §7.2 — throughput of the *unoptimized* `P_enc` (RS(10,4)) across
//! blocksizes, comparing the byte-wise `xor1` kernel with the 32-byte SIMD
//! `xor32` kernel.
//!
//! Paper's table (intel row, GB/s):
//! ```text
//!            xor1                                    xor32
//! B:         64    128   256   512   1K    2K    4K    4K
//! intel      0.16  0.62  1.12  2.05  3.02  4.03  4.78  4.72
//! ```
//! (the paper sweeps blocksize under xor1 and gives 4K under xor32; we
//! sweep both kernels over the full range, which subsumes that table.)

use ec_bench::{enc_base_slp, print_env_header, reps, rule, workload_bytes, BenchRunner};
use xor_runtime::Kernel;

fn main() {
    print_env_header("Table 7.2: unoptimized P_enc throughput vs blocksize, RS(10,4)");
    let slp = enc_base_slp(10, 4);
    let blocksizes = [64usize, 128, 256, 512, 1024, 2048, 4096];

    print!("{:>10} |", "kernel");
    for b in blocksizes {
        print!(
            " {:>7}",
            if b >= 1024 {
                format!("{}K", b / 1024)
            } else {
                b.to_string()
            }
        );
    }
    println!();
    println!("{}", rule(12 + 8 * blocksizes.len()));

    for kernel in [Kernel::Scalar, Kernel::Auto.resolve()] {
        print!("{:>10} |", kernel.name());
        for b in blocksizes {
            let mut runner = BenchRunner::new(&slp, b, kernel, workload_bytes());
            print!(" {:>7.2}", runner.throughput(reps()));
        }
        println!();
    }
    println!();
    println!("paper (intel, xor1): 0.16 0.62 1.12 2.05 3.02 4.03 4.78; xor32 @4K: 4.72 GB/s");
    println!("expected shape: SIMD ≫ scalar; throughput grows with B, flattens past ~2K.");
}
