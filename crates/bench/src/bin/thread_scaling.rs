//! Thread-scaling table: encode/decode throughput of the fully optimized
//! RS(10,4) codec on a 10 MB stripe, as the codec's stripe cap
//! (`parallelism`) grows.
//!
//! The engine stripes the packet range into at most `parallelism`
//! blocksize-aligned slices and runs them on the process's one worker
//! pool, sized to the machine (one grow-on-demand arena per worker), so
//! throughput should scale with cores until the memory bus saturates.
//! Caps above the pool's size queue on it rather than adding threads. On
//! a single-core host every row collapses to the serial number — the
//! table reports whatever the hardware allows.
//!
//! ```text
//! cargo run --release -p xorslp-bench --bin thread_scaling
//! ```
//!
//! Knobs: `BENCH_MB`, `BENCH_REPS` (see `ec_bench`), and
//! `BENCH_MAX_THREADS` (the largest stripe cap; default: 2× available
//! parallelism).

use ec_bench::{print_env_header, reps, rule, time_per_rep, workload_bytes};
use ec_core::{RsCodec, RsConfig};
use xor_runtime::default_parallelism;

fn throughput_gbps(bytes: usize, reps: usize, f: impl FnMut()) -> f64 {
    bytes as f64 / time_per_rep(reps, f) / 1e9
}

fn main() {
    print_env_header("Thread scaling: RS(10,4) encode/decode by stripe cap on the shared pool");

    let (n, p) = (10usize, 4usize);
    let data_bytes = workload_bytes();
    let data: Vec<u8> = (0..data_bytes).map(|i| ((i * 193 + 7) % 256) as u8).collect();

    let max_threads: usize = std::env::var("BENCH_MAX_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| (2 * default_parallelism()).max(2));
    let mut thread_counts = vec![1usize];
    let mut t = 2;
    while t <= max_threads {
        thread_counts.push(t);
        t *= 2;
    }

    println!(
        "workload: {} MB over {n}+{p} shards | available parallelism: {}",
        data_bytes / 1_000_000,
        default_parallelism()
    );
    println!();
    println!(
        "{:>8} | {:>12} | {:>12} | {:>9} | {:>9}",
        "stripes", "encode GB/s", "decode GB/s", "enc ×", "dec ×"
    );
    println!("{}", rule(64));

    let mut enc_base = 0.0f64;
    let mut dec_base = 0.0f64;
    let mut best: Option<(usize, f64)> = None;
    for &threads in &thread_counts {
        let codec = RsCodec::with_config(RsConfig::new(n, p).parallelism(threads))
            .expect("valid params");
        let shards = codec.encode(&data).expect("encode");
        let shard_len = shards[0].len();
        let data_refs: Vec<&[u8]> = shards[..n].iter().map(Vec::as_slice).collect();

        let mut parity = vec![vec![0u8; shard_len]; p];
        let enc = throughput_gbps(data_bytes, reps(), || {
            let mut refs: Vec<&mut [u8]> =
                parity.iter_mut().map(Vec::as_mut_slice).collect();
            codec.encode_parity(&data_refs, &mut refs).expect("encode_parity");
        });

        let mut received: Vec<Option<Vec<u8>>> =
            shards.iter().cloned().map(Some).collect();
        for i in [2, 4, 5, 6] {
            received[i] = None;
        }
        let dec = throughput_gbps(data_bytes, reps(), || {
            let out = codec.decode(&received, data.len()).expect("decode");
            assert_eq!(out.len(), data.len());
        });

        if threads == 1 {
            enc_base = enc;
            dec_base = dec;
        } else if best.is_none_or(|(_, b)| enc > b) {
            best = Some((threads, enc));
        }
        println!(
            "{:>8} | {:>12.2} | {:>12.2} | {:>8.2}x | {:>8.2}x",
            threads,
            enc,
            dec,
            enc / enc_base,
            dec / dec_base
        );
    }

    println!();
    match best {
        Some((threads, enc)) if enc > enc_base => println!(
            "striped encode beats serial: {threads} stripes at \
             {enc:.2} GB/s vs {enc_base:.2} GB/s ({:.2}x)",
            enc / enc_base
        ),
        Some((threads, enc)) => println!(
            "no striping win on this host (best: {threads} stripes at \
             {enc:.2} GB/s vs {enc_base:.2} GB/s serial) — expected on \
             single-core machines"
        ),
        None => println!("only one stripe cap measured"),
    }
}
