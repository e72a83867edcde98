//! Quickstart: encode, lose shards, decode.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use xorslp_ec::{RsCodec, RsConfig};

fn main() {
    // RS(10, 4): the HDFS codec — 10 data shards, 4 parity shards,
    // any 4 losses are survivable, 1.4× storage overhead. Execution is
    // striped across the process's one machine-sized worker pool, one
    // stripe per CPU by default (`parallelism(0)`); pass 1 for serial
    // (no thread) or k for at most k stripes per call.
    let codec =
        RsCodec::with_config(RsConfig::new(10, 4).parallelism(0)).expect("valid parameters");

    let data: Vec<u8> = (0..1_000_000u32)
        .map(|i| (i * 2_654_435_761) as u8)
        .collect();
    println!("original data: {} bytes", data.len());

    let shards = codec.encode(&data).expect("encode");
    println!(
        "encoded into {} shards of {} bytes ({} data + {} parity)",
        shards.len(),
        shards[0].len(),
        codec.data_shards(),
        codec.parity_shards()
    );

    // Simulate losing four nodes — including data shards.
    let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
    for lost in [0, 5, 10, 13] {
        received[lost] = None;
        println!("shard {lost} lost");
    }

    let restored = codec.decode(&received, data.len()).expect("decode");
    assert_eq!(restored, data);
    println!("restored {} bytes — bit-exact ✓", restored.len());

    // Under the hood: the encoder is an optimized straight-line XOR
    // program. Compare it with the naive one.
    let opt = codec.encode_slp();
    println!(
        "\noptimized encode program: {} XORs, {} memory accesses, {} buffers",
        opt.xor_count(),
        opt.mem_accesses(),
        opt.nvar()
    );
}
