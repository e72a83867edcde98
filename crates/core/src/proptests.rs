//! Property tests of the codec: roundtrips under random data, lengths and
//! erasure patterns, the delta-update identity — and the same invariants
//! for **every codec family in the registry** through the
//! [`ErasureCoder`] boundary.

use crate::{codec_for, CodecSpec, EcError, ErasureCoder, OptConfig, RsCodec, RsConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One codec per registered family, shared across cases (construction
/// compiles SLPs and is the expensive part).
fn registry_codecs() -> &'static [Box<dyn ErasureCoder>] {
    static CODECS: OnceLock<Vec<Box<dyn ErasureCoder>>> = OnceLock::new();
    CODECS.get_or_init(|| {
        [
            CodecSpec::rs(5, 3),
            CodecSpec::parse("evenodd", 4, 2).unwrap(),
            CodecSpec::parse("rdp", 4, 2).unwrap(),
            CodecSpec::lrc(6, 3, 3),
        ]
        .iter()
        .map(|s| codec_for(s).unwrap())
        .collect()
    })
}

/// Validation is the engine's, so it is the same for every family: the
/// index, count, length and alignment checks RS always had now guard the
/// array codes too, with the same typed errors and no panics.
#[test]
fn registry_validation_is_uniform() {
    for codec in registry_codecs() {
        let name = codec.spec().name();
        let (n, p, t) = (codec.data_shards(), codec.parity_shards(), codec.total_shards());
        let align = codec.packets_per_shard();
        let data: Vec<u8> = (0..n * align * 5).map(|i| (i * 29 + 3) as u8).collect();
        let shards = codec.encode(&data).unwrap();
        let len = shards[0].len();
        let all: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();

        // More data than the shards can hold is refused, not truncated.
        assert_eq!(codec.decode(&all, n * len).unwrap().len(), n * len, "{name}");
        assert!(
            matches!(codec.decode(&all, n * len + 1), Err(EcError::ShardLength(_))),
            "{name}: decode past capacity"
        );

        // Out-of-range shard indices are typed, never a panic.
        for bad in [t, 99] {
            assert!(
                matches!(codec.repair_sources(&[bad]), Err(EcError::InvalidParams(_))),
                "{name}: repair_sources([{bad}])"
            );
            assert!(
                matches!(
                    codec.reconstruct_subset(&mut all.clone(), &[bad]),
                    Err(EcError::InvalidParams(_))
                ),
                "{name}: reconstruct_subset([{bad}])"
            );
        }
        assert!(
            matches!(codec.update_slp(n), Err(EcError::InvalidParams(_))),
            "{name}: update program of a parity index"
        );
        assert!(
            matches!(codec.decode(&all[..t - 1], 0), Err(EcError::ShardCount { .. })),
            "{name}: shard count"
        );

        // Unequal and misaligned shard lengths: one error for every
        // operation that takes whole shards.
        let mut unequal = shards.clone();
        unequal[1].truncate(len - align);
        let misaligned: Vec<Vec<u8>> = shards.iter().map(|s| s[..len - 1].to_vec()).collect();
        for (what, bad) in [("unequal", &unequal), ("misaligned", &misaligned)] {
            let mut held: Vec<Option<Vec<u8>>> = bad.iter().cloned().map(Some).collect();
            held[0] = None;
            let checks = [
                codec.verify(bad).map(|_| ()),
                codec.decode(&held, 1).map(|_| ()),
                codec.reconstruct(&mut held.clone()),
                {
                    let mut parity: Vec<Vec<u8>> = bad[n..].to_vec();
                    let mut prefs: Vec<&mut [u8]> =
                        parity.iter_mut().map(Vec::as_mut_slice).collect();
                    codec.update_parity(1, &bad[1], &bad[1], &mut prefs)
                },
                {
                    let refs: Vec<&[u8]> = bad[..n].iter().map(Vec::as_slice).collect();
                    let mut parity: Vec<Vec<u8>> = bad[n..].to_vec();
                    let mut prefs: Vec<&mut [u8]> =
                        parity.iter_mut().map(Vec::as_mut_slice).collect();
                    let rows: Vec<usize> = (0..p).collect();
                    codec.encode_parity_partial(&refs, &mut prefs, &rows)
                },
            ];
            for (k, r) in checks.iter().enumerate() {
                assert!(
                    matches!(r, Err(EcError::ShardLength(_))),
                    "{name}: {what} shards, check {k}: {r:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn roundtrip_random_erasures(
        data in proptest::collection::vec(any::<u8>(), 1..2000),
        lost_seed in proptest::collection::hash_set(0usize..14, 0..=4),
    ) {
        // Codec construction is expensive; share one per process.
        use std::sync::OnceLock;
        static CODEC: OnceLock<RsCodec> = OnceLock::new();
        let codec = CODEC.get_or_init(|| RsCodec::new(10, 4).unwrap());

        let shards = codec.encode(&data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        for &i in &lost_seed {
            received[i] = None;
        }
        let restored = codec.decode(&received, data.len()).unwrap();
        prop_assert_eq!(restored, data);
    }

    #[test]
    fn reconstruct_restores_every_shard(
        data in proptest::collection::vec(any::<u8>(), 1..600),
        lost_seed in proptest::collection::hash_set(0usize..8, 0..=3),
    ) {
        use std::sync::OnceLock;
        static CODEC: OnceLock<RsCodec> = OnceLock::new();
        let codec = CODEC.get_or_init(|| {
            RsCodec::with_config(RsConfig::new(5, 3).blocksize(128)).unwrap()
        });

        let shards = codec.encode(&data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> =
            shards.iter().cloned().map(Some).collect();
        for &i in &lost_seed {
            received[i] = None;
        }
        codec.reconstruct(&mut received).unwrap();
        for (i, s) in received.iter().enumerate() {
            prop_assert_eq!(s.as_ref().unwrap(), &shards[i], "shard {}", i);
        }
    }

    #[test]
    fn base_and_optimized_parity_agree(
        data in proptest::collection::vec(any::<u8>(), 1..800),
    ) {
        use std::sync::OnceLock;
        static BASE: OnceLock<RsCodec> = OnceLock::new();
        static FULL: OnceLock<RsCodec> = OnceLock::new();
        let base = BASE.get_or_init(|| {
            RsCodec::with_config(RsConfig::new(6, 3).opt(OptConfig::BASE).blocksize(64))
                .unwrap()
        });
        let full = FULL.get_or_init(|| {
            RsCodec::with_config(RsConfig::new(6, 3).opt(OptConfig::FULL_DFS).blocksize(64))
                .unwrap()
        });
        prop_assert_eq!(base.encode(&data).unwrap(), full.encode(&data).unwrap());
    }

    /// The delta-update identity: updating parity for one changed data
    /// shard lands on exactly the parity a full re-encode of the new
    /// stripe produces — across random code shapes, shard lengths
    /// (including zero), every available kernel, and both serial and
    /// auto parallelism. Unaligned lengths must error identically to the
    /// full-encode path.
    #[test]
    fn update_parity_equals_full_reencode(
        (n, p) in (1usize..7, 1usize..5),
        packet_len in 0usize..24,
        shard_seed in any::<usize>(),
        old_bytes in proptest::collection::vec(any::<u8>(), 0..200),
        new_bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let shard_len = packet_len * 8;
        let shard_index = shard_seed % n;
        let mk_shard = |seed: usize| -> Vec<u8> {
            (0..shard_len).map(|i| (i * 37 + seed * 101 + 13) as u8).collect()
        };
        let resize = |bytes: &[u8]| -> Vec<u8> {
            (0..shard_len).map(|i| *bytes.get(i).unwrap_or(&0x5A)).collect()
        };

        for kernel in xor_runtime::available_kernels() {
            for parallelism in [1usize, 0] {
                let codec = RsCodec::with_config(
                    RsConfig::new(n, p)
                        .kernel(kernel)
                        .parallelism(parallelism)
                        .blocksize(64),
                )
                .unwrap();

                let mut data: Vec<Vec<u8>> = (0..n).map(mk_shard).collect();
                data[shard_index] = resize(&old_bytes);
                let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
                let mut parity = vec![vec![0u8; shard_len]; p];
                {
                    let mut prefs: Vec<&mut [u8]> =
                        parity.iter_mut().map(Vec::as_mut_slice).collect();
                    codec.encode_parity(&refs, &mut prefs).unwrap();
                }

                let new_shard = resize(&new_bytes);
                {
                    let mut prefs: Vec<&mut [u8]> =
                        parity.iter_mut().map(Vec::as_mut_slice).collect();
                    codec
                        .update_parity(shard_index, &data[shard_index], &new_shard, &mut prefs)
                        .unwrap();
                }

                let mut new_data = data.clone();
                new_data[shard_index] = new_shard;
                let new_refs: Vec<&[u8]> = new_data.iter().map(Vec::as_slice).collect();
                let mut expected = vec![vec![0u8; shard_len]; p];
                {
                    let mut erefs: Vec<&mut [u8]> =
                        expected.iter_mut().map(Vec::as_mut_slice).collect();
                    codec.encode_parity(&new_refs, &mut erefs).unwrap();
                }
                prop_assert_eq!(
                    &parity, &expected,
                    "n={} p={} shard={} len={} kernel={:?} par={}",
                    n, p, shard_index, shard_len, kernel, parallelism
                );

                // Unaligned shard lengths are rejected, same as full encode.
                if shard_len > 0 {
                    let odd_old = vec![0u8; shard_len + 1];
                    let odd_new = vec![1u8; shard_len + 1];
                    let mut odd_parity = vec![vec![0u8; shard_len + 1]; p];
                    let mut oprefs: Vec<&mut [u8]> =
                        odd_parity.iter_mut().map(Vec::as_mut_slice).collect();
                    prop_assert!(matches!(
                        codec.update_parity(shard_index, &odd_old, &odd_new, &mut oprefs),
                        Err(EcError::ShardLength(_))
                    ));
                }
            }
        }
    }

    /// Partial re-encode of any parity-row subset matches the full
    /// encode's rows (the repair path of `reconstruct`).
    #[test]
    fn partial_rows_equal_full_encode_rows(
        data in proptest::collection::vec(any::<u8>(), 1..500),
        keep in proptest::sample::subsequence((0..4usize).collect::<Vec<_>>(), 2),
    ) {
        use std::sync::OnceLock;
        static CODEC: OnceLock<RsCodec> = OnceLock::new();
        let codec = CODEC.get_or_init(|| RsCodec::new(10, 4).unwrap());

        let shards = codec.encode(&data).unwrap();
        let len = shards[0].len();
        let refs: Vec<&[u8]> = shards[..10].iter().map(Vec::as_slice).collect();
        let mut out = vec![vec![0u8; len]; keep.len()];
        {
            let mut orefs: Vec<&mut [u8]> = out.iter_mut().map(Vec::as_mut_slice).collect();
            codec.encode_parity_partial(&refs, &mut orefs, &keep).unwrap();
        }
        for (k, &r) in keep.iter().enumerate() {
            prop_assert_eq!(&out[k], &shards[10 + r], "row {}", r);
        }
    }

    /// For every registered codec family: encode, kill any loss pattern
    /// the codec declares tolerable (it has a repair plan), and both
    /// `reconstruct` and `decode` land back on the original bytes —
    /// shard-exact, not merely data-equal. `repair_sources` is the
    /// recoverability oracle, so LRC's non-MDS patterns are skipped by
    /// the codec's own admission, not by test-side special cases.
    #[test]
    fn registry_reconstruct_restores_any_tolerable_set(
        codec_sel in 0usize..4,
        data in proptest::collection::vec(any::<u8>(), 1..1500),
        lost_seed in proptest::collection::hash_set(0usize..9, 0..=3),
    ) {
        let codec = &*registry_codecs()[codec_sel];
        let t = codec.total_shards();
        let mut lost: Vec<usize> = lost_seed.iter().map(|&i| i % t).collect();
        lost.sort_unstable();
        lost.dedup();
        if codec.repair_sources(&lost).is_err() {
            lost.clear(); // pattern this codec cannot tolerate
        }

        let shards = codec.encode(&data).unwrap();
        let mut rx: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        for &i in &lost {
            rx[i] = None;
        }
        prop_assert_eq!(codec.decode(&rx, data.len()).unwrap(), &data[..]);
        codec.reconstruct(&mut rx).unwrap();
        for (i, s) in rx.iter().enumerate() {
            prop_assert_eq!(s.as_ref().unwrap(), &shards[i], "shard {}", i);
        }
    }

    /// For every registered codec family: the delta path
    /// (`update_parity` over `old ⊕ new`) lands on exactly the parity a
    /// full re-encode of the mutated stripe produces.
    #[test]
    fn registry_update_parity_equals_full_reencode(
        codec_sel in 0usize..4,
        data in proptest::collection::vec(any::<u8>(), 1..1200),
        shard_seed in any::<usize>(),
        xor_mask in 1u8..=255,
    ) {
        let codec = &*registry_codecs()[codec_sel];
        let (n, p) = (codec.data_shards(), codec.parity_shards());
        let idx = shard_seed % n;

        let shards = codec.encode(&data).unwrap();
        let shard_len = shards[0].len();
        let old = shards[idx].clone();
        let mut new = old.clone();
        for b in &mut new {
            *b ^= xor_mask;
        }

        let mut parity: Vec<Vec<u8>> = shards[n..].to_vec();
        {
            let mut prefs: Vec<&mut [u8]> =
                parity.iter_mut().map(Vec::as_mut_slice).collect();
            codec.update_parity(idx, &old, &new, &mut prefs).unwrap();
        }

        let mut mutated: Vec<Vec<u8>> = shards[..n].to_vec();
        mutated[idx] = new;
        let refs: Vec<&[u8]> = mutated.iter().map(Vec::as_slice).collect();
        let all_rows: Vec<usize> = (0..p).collect();
        let mut expected = vec![vec![0u8; shard_len]; p];
        {
            let mut erefs: Vec<&mut [u8]> =
                expected.iter_mut().map(Vec::as_mut_slice).collect();
            codec.encode_parity_partial(&refs, &mut erefs, &all_rows).unwrap();
        }
        prop_assert_eq!(&parity, &expected, "codec {}", codec.spec().name());

        // And the codec agrees with itself: the updated stripe verifies.
        let mut stripe = mutated;
        stripe.extend(parity);
        prop_assert!(codec.verify(&stripe).unwrap());
    }

    #[test]
    fn any_n_shards_suffice(
        data in proptest::collection::vec(any::<u8>(), 64..256),
        keep in proptest::sample::subsequence((0..9usize).collect::<Vec<_>>(), 6),
    ) {
        // RS(6,3): keep exactly 6 of 9 shards, drop the rest.
        use std::sync::OnceLock;
        static CODEC: OnceLock<RsCodec> = OnceLock::new();
        let codec = CODEC.get_or_init(|| RsCodec::new(6, 3).unwrap());
        let shards = codec.encode(&data).unwrap();
        let received: Vec<Option<Vec<u8>>> = (0..9)
            .map(|i| keep.contains(&i).then(|| shards[i].clone()))
            .collect();
        prop_assert_eq!(codec.decode(&received, data.len()).unwrap(), data);
    }
}
