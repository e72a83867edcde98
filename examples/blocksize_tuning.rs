//! Mini version of the paper's §7.4 experiment: how the blocking
//! parameter `B` and the XOR kernel affect encoding throughput on *your*
//! machine. Useful for picking `RsConfig::blocksize`.
//!
//! ```text
//! cargo run --release --example blocksize_tuning
//! ```

use std::time::Instant;
use xorslp_ec::{Kernel, RsCodec, RsConfig};

fn throughput(codec: &RsCodec, data: &[u8], reps: usize) -> f64 {
    let shards = codec.encode(data).expect("warmup encode");
    let shard_len = shards[0].len();
    let n = codec.data_shards();
    let data_refs: Vec<&[u8]> = shards[..n].iter().map(|s| s.as_slice()).collect();
    let mut parity: Vec<Vec<u8>> = vec![vec![0u8; shard_len]; codec.parity_shards()];

    let t = Instant::now();
    for _ in 0..reps {
        let mut refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        codec.encode_parity(&data_refs, &mut refs).expect("encode");
    }
    data.len() as f64 * reps as f64 / t.elapsed().as_secs_f64() / 1e9
}

fn main() {
    let data: Vec<u8> = (0..10_000_000u32).map(|i| (i * 193) as u8).collect();
    let reps = 20;

    println!(
        "RS(10,4) encode, {} MB data, {} repetitions each\n",
        data.len() / 1_000_000,
        reps
    );
    println!(
        "{:>9} | {:>10} | {:>10}",
        "B (bytes)", "xor1 GB/s", "xor32 GB/s"
    );
    println!("{}", "-".repeat(37));
    for blocksize in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let mut row = format!("{blocksize:>9}");
        for kernel in [Kernel::Scalar, Kernel::Auto] {
            let codec =
                RsCodec::with_config(RsConfig::new(10, 4).blocksize(blocksize).kernel(kernel))
                    .expect("codec");
            row.push_str(&format!(" | {:>10.2}", throughput(&codec, &data, reps)));
        }
        println!("{row}");
    }
    println!("\n(the paper picks B = 1K on its Intel box, B = 2K on AMD — §7.4)");
}
