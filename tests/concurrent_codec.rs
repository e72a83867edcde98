//! Concurrency stress: one shared `RsCodec` hammered from many threads
//! with mixed encode / decode / reconstruct traffic.
//!
//! This locks in the parallel-engine refactor: the codec no longer owns
//! `Mutex<VarArena>` scratch state (workers own their arenas), so
//! concurrent callers must neither contend nor corrupt each other. Every
//! thread round-trips its own data and asserts bit-exactness; the program
//! table (a bounded LRU) is churned by rotating erasure patterns.

use std::thread;
use xorslp_ec::{RsCodec, RsConfig};

fn sample(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + seed * 97 + i / 7) % 256) as u8)
        .collect()
}

#[test]
fn concurrent_mixed_traffic_roundtrips() {
    let (n, p) = (6usize, 3usize);
    // Shared-pool codec (parallelism = auto). The menu is every pattern
    // of at most p erasures: the 122 that lose data each key a decode
    // program, against an auto capacity of 55 keys, so eviction happens
    // *during* the hammering.
    let codec = RsCodec::new(n, p).unwrap();
    let erasure_menu: Vec<Vec<usize>> = (1u32..1 << (n + p))
        .filter(|m| m.count_ones() as usize <= p)
        .map(|m| (0..n + p).filter(|i| m >> i & 1 == 1).collect())
        .collect();
    assert_eq!(erasure_menu.len(), 9 + 36 + 84);
    // Stripe caps of 1–4 on the one shared pool, shared by the threads
    // as well.
    let pooled: Vec<RsCodec> = (1..=4)
        .map(|k| RsCodec::with_config(RsConfig::new(n, p).parallelism(k)).unwrap())
        .collect();

    thread::scope(|s| {
        for t in 0..8usize {
            let codec = &codec;
            let pooled = &pooled;
            let erasure_menu = &erasure_menu;
            s.spawn(move || {
                for i in 0..erasure_menu.len() / 8 + 1 {
                    let len = n * 64 * (1 + (t + i) % 3) + (t * 13 + i * 7) % 41;
                    let data = sample(t * 1000 + i, len);

                    // encode (through the shared pool) and verify parity
                    let shards = codec.encode(&data).unwrap();
                    assert!(codec.verify(&shards).unwrap(), "t{t} i{i} verify");

                    // a capped codec's encode agrees bit-for-bit
                    let shard_len = shards[0].len();
                    let data_refs: Vec<&[u8]> =
                        shards[..n].iter().map(Vec::as_slice).collect();
                    let mut parity = vec![vec![0u8; shard_len]; p];
                    {
                        let mut refs: Vec<&mut [u8]> =
                            parity.iter_mut().map(Vec::as_mut_slice).collect();
                        pooled[(t + i) % 4].encode_parity(&data_refs, &mut refs).unwrap();
                    }
                    assert_eq!(&parity[..], &shards[n..], "t{t} i{i} mt encode");

                    // decode with a rotating erasure pattern
                    let lost = &erasure_menu[(8 * i + t) % erasure_menu.len()];
                    let mut received: Vec<Option<Vec<u8>>> =
                        shards.iter().cloned().map(Some).collect();
                    for &l in lost {
                        received[l] = None;
                    }
                    assert_eq!(
                        codec.decode(&received, data.len()).unwrap(),
                        data,
                        "t{t} i{i} decode {lost:?}"
                    );

                    // reconstruct rebuilds every lost shard in place
                    codec.reconstruct(&mut received).unwrap();
                    for (j, shard) in received.iter().enumerate() {
                        assert_eq!(
                            shard.as_ref().unwrap(),
                            &shards[j],
                            "t{t} i{i} reconstruct shard {j}"
                        );
                    }
                }
            });
        }
    });

    // The LRU bound held under concurrent churn.
    assert!(codec.programs() <= 55, "{} programs", codec.programs());
}
