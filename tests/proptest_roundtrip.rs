//! Facade-level property tests: random shapes, sizes, erasures, and
//! configurations all roundtrip.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::OnceLock;
use xorslp_ec::{OptConfig, RsCodec, RsConfig};

type CodecCache = Mutex<HashMap<(usize, usize), std::sync::Arc<RsCodec>>>;

/// Codec construction involves the optimizer; cache instances per shape.
fn codec_for(n: usize, p: usize) -> std::sync::Arc<RsCodec> {
    static CACHE: OnceLock<CodecCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().unwrap();
    guard
        .entry((n, p))
        .or_insert_with(|| {
            std::sync::Arc::new(RsCodec::with_config(RsConfig::new(n, p).blocksize(256)).unwrap())
        })
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_shape_random_erasures_roundtrip(
        n in 2usize..8,
        p in 1usize..4,
        data in proptest::collection::vec(any::<u8>(), 1..3000),
        seed in any::<u64>(),
    ) {
        let codec = codec_for(n, p);
        let shards = codec.encode(&data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();

        // erase up to p pseudo-random shards
        let mut s = seed | 1;
        let erasures = (seed % (p as u64 + 1)) as usize;
        let mut erased = 0;
        while erased < erasures {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let idx = (s >> 33) as usize % (n + p);
            if received[idx].is_some() {
                received[idx] = None;
                erased += 1;
            }
        }
        prop_assert_eq!(codec.decode(&received, data.len()).unwrap(), data);
    }

    #[test]
    fn padding_is_always_stripped_exactly(
        n in 2usize..6,
        extra in 0usize..17,
        blocks in 0usize..4,
    ) {
        let p = 2;
        let codec = codec_for(n, p);
        let len = blocks * n * 8 + extra;
        let data: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        let shards = codec.encode(&data).unwrap();
        let received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        prop_assert_eq!(codec.decode(&received, len).unwrap(), data);
    }

    #[test]
    fn base_and_full_opt_shards_are_identical(
        data in proptest::collection::vec(any::<u8>(), 1..1500),
    ) {
        static PAIR: OnceLock<(RsCodec, RsCodec)> = OnceLock::new();
        let (base, full) = PAIR.get_or_init(|| {
            (
                RsCodec::with_config(RsConfig::new(4, 3).opt(OptConfig::BASE).blocksize(128))
                    .unwrap(),
                RsCodec::with_config(RsConfig::new(4, 3).opt(OptConfig::FULL_DFS).blocksize(128))
                    .unwrap(),
            )
        });
        prop_assert_eq!(base.encode(&data).unwrap(), full.encode(&data).unwrap());
    }
}
