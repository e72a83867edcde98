//! Delta parity updates and partial repair, end to end through the
//! façade: the update identity, the partial-program cache, and the
//! proportional-repair guarantees, on the default engine. Every kernel
//! computes the same bytes (`crates/runtime/tests/kernel_equivalence.rs`),
//! and ec-core's proptests run `update_parity` on each one.

use xorslp_ec::{ArrayCodec, EcError, RsCodec};

fn sample(len: usize, seed: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 167 + seed * 89 + 5) as u8).collect()
}

fn encode_parity(codec: &RsCodec, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let len = data[0].len();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut parity = vec![vec![0u8; len]; codec.parity_shards()];
    {
        let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        codec.encode_parity(&refs, &mut prefs).unwrap();
    }
    parity
}

#[test]
fn rmw_workload_stays_consistent_over_many_updates() {
    // A read-modify-write stream: 40 single-shard writes, parity kept
    // fresh purely by delta updates, checked against full re-encode and
    // by decoding after erasures.
    let codec = RsCodec::new(8, 3).unwrap();
    let shard_len = 8 * 24;
    let mut data: Vec<Vec<u8>> = (0..8).map(|k| sample(shard_len, k)).collect();
    let mut parity = encode_parity(&codec, &data);

    for round in 0..40 {
        let i = (round * 5 + 3) % 8;
        let new_shard = sample(shard_len, 1000 + round);
        {
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
            codec
                .update_parity(i, &data[i], &new_shard, &mut prefs)
                .unwrap();
        }
        data[i] = new_shard;
    }
    assert_eq!(
        parity,
        encode_parity(&codec, &data),
        "delta drift after 40 writes"
    );

    // The delta-maintained stripe decodes like a freshly encoded one.
    let mut received: Vec<Option<Vec<u8>>> = data
        .iter()
        .chain(parity.iter())
        .cloned()
        .map(Some)
        .collect();
    received[0] = None;
    received[6] = None;
    received[9] = None; // one parity too
    let flat: Vec<u8> = data.concat();
    assert_eq!(codec.decode(&received, flat.len()).unwrap(), flat);
}

#[test]
fn update_is_strictly_cheaper_and_bench_invariant_holds() {
    // The headline acceptance criterion, visible through the façade: a
    // one-shard update executes strictly fewer XOR instructions than the
    // full encode, for every column, and so does every proper row subset.
    let codec = RsCodec::new(10, 4).unwrap();
    let full = codec.encode_slp().xor_count();
    for i in 0..10 {
        assert!(
            codec.update_slp(i).unwrap().xor_count() < full,
            "column {i}"
        );
    }
    for r in 0..4 {
        assert!(
            codec.partial_encode_slp(&[r]).unwrap().xor_count() < full,
            "row {r}"
        );
    }
    // The full row set *is* the encode program (no duplicate compile).
    assert_eq!(
        codec.partial_encode_slp(&[0, 1, 2, 3]).unwrap().xor_count(),
        full
    );
}

#[test]
fn partial_cache_evicts_lru_and_stays_bounded() {
    // Column programs share the program table with decode programs:
    // between updates, compile more distinct decode programs than the
    // auto capacity (55 keys for RS(6, 3)) holds. The table stays
    // bounded, and a second round of updates, whose early column
    // programs were evicted by then, still lands exactly.
    let codec = RsCodec::new(6, 3).unwrap();
    let shard_len = 16;
    let data: Vec<Vec<u8>> = (0..6).map(|k| sample(shard_len, k)).collect();
    let mut parity = encode_parity(&codec, &data);
    let triples: Vec<[usize; 3]> = (0..6)
        .flat_map(|a| (a + 1..9).flat_map(move |b| (b + 1..9).map(move |c| [a, b, c])))
        .collect();
    assert_eq!(triples.len(), 83);
    let mut churn = triples.chunks(triples.len().div_ceil(6));
    for round in 0..2 {
        for (i, shard) in data.iter().enumerate() {
            let new_shard = sample(shard_len, 50 + i);
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
            codec
                .update_parity(i, shard, &new_shard, &mut prefs)
                .unwrap();
            for lost in churn.next().into_iter().flatten() {
                codec.decode_slp(lost).unwrap();
            }
            // undo, so the stripe stays consistent while we churn
            codec
                .update_parity(i, &new_shard, shard, &mut prefs)
                .unwrap();
            assert!(
                codec.programs() <= 55,
                "round {round}: table exceeded its capacity"
            );
        }
    }
    assert_eq!(parity, encode_parity(&codec, &data));
}

#[test]
fn reconstruct_single_parity_is_proportional() {
    // Losing one parity shard compiles exactly the one-row program; the
    // other p − 1 shards are never produced.
    let codec = RsCodec::new(6, 3).unwrap();
    let data = sample(6 * 40, 7);
    let shards = codec.encode(&data).unwrap();
    let mut received: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
    received[8] = None; // parity row 2
    codec.reconstruct(&mut received).unwrap();
    assert_eq!(received[8].as_ref().unwrap(), &shards[8]);
    assert_eq!(codec.programs(), 1, "exactly the one-row program compiled");
    let one_row = codec.partial_encode_slp(&[2]).unwrap();
    assert!(one_row.xor_count() < codec.encode_slp().xor_count());
}

#[test]
fn zero_length_and_unaligned_shards() {
    let codec = RsCodec::new(4, 2).unwrap();
    // Zero-length: a no-op on every path.
    let empty: Vec<u8> = Vec::new();
    let mut parity = [Vec::new(), Vec::new()];
    {
        let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        codec.update_parity(0, &empty, &empty, &mut prefs).unwrap();
    }
    let data: Vec<Vec<u8>> = vec![Vec::new(); 4];
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut one = [Vec::new()];
    {
        let mut orefs: Vec<&mut [u8]> = one.iter_mut().map(Vec::as_mut_slice).collect();
        codec
            .encode_parity_partial(&refs, &mut orefs, &[1])
            .unwrap();
    }
    // Unaligned lengths error, as on the full-encode path.
    let odd = vec![0u8; 9];
    let mut odd_parity = [vec![0u8; 9], vec![0u8; 9]];
    let mut oprefs: Vec<&mut [u8]> = odd_parity.iter_mut().map(Vec::as_mut_slice).collect();
    assert!(matches!(
        codec.update_parity(0, &odd, &odd, &mut oprefs),
        Err(EcError::ShardLength(_))
    ));
}

#[test]
fn parity_only_decode_slp_is_typed() {
    let codec = RsCodec::new(4, 2).unwrap();
    assert!(matches!(codec.decode_slp(&[4]), Err(EcError::NoDataLost)));
    assert!(matches!(
        codec.decode_slp(&[5, 4]),
        Err(EcError::NoDataLost)
    ));
    // A data loss still returns a program; an out-of-range index is
    // still a caller error.
    assert!(codec.decode_slp(&[0]).is_ok());
    assert!(matches!(
        codec.decode_slp(&[6]),
        Err(EcError::InvalidParams(_))
    ));
}

#[test]
fn array_codec_delta_updates_mirror_rs() {
    for codec in [ArrayCodec::evenodd(4), ArrayCodec::rdp(4)] {
        let k = codec.data_shards();
        let data = sample(k * codec.symbols_per_shard() * 8, 3);
        let shards = codec.encode(&data).unwrap();
        let shard_len = shards[0].len();

        let disk = k / 2;
        let mut new_bytes = data.clone();
        for b in new_bytes[disk * shard_len..(disk + 1) * shard_len].iter_mut() {
            *b ^= 0x3C;
        }
        let expected = codec.encode(&new_bytes).unwrap();

        let mut parity: Vec<Vec<u8>> = shards[k..].to_vec();
        {
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
            codec
                .update_parity(disk, &shards[disk], &expected[disk], &mut prefs)
                .unwrap();
        }
        assert_eq!(&parity[..], &expected[k..], "{}", codec.name());
        assert!(
            codec.update_slp(disk).unwrap().xor_count() < codec.encode_slp().xor_count(),
            "{} delta program must be cheaper",
            codec.name()
        );
    }
}
