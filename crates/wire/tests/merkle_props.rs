//! Property tests of the Merkle layer: root stability and single-flip
//! localization across the awkward shapes (1, powers of two, off-by-one
//! around them, the 257 tail-promotion case) — and of the batch entry
//! point: `leaf_hashes_into` is `leaf_hash` mapped over the chunks,
//! whatever their count, lengths and order.

use ec_wire::merkle::{leaf_hash, leaf_hashes_into, payload_leaves, Hash, MerkleTree};
use proptest::prelude::*;

fn leaves(count: usize, seed: u64) -> Vec<[u8; 32]> {
    (0..count)
        .map(|i| {
            let mut bytes = [0u8; 16];
            bytes[..8].copy_from_slice(&seed.to_le_bytes());
            bytes[8..].copy_from_slice(&(i as u64).to_le_bytes());
            leaf_hash(&bytes)
        })
        .collect()
}

/// `len` bytes that differ from chunk to chunk.
fn chunk(len: usize, seed: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + seed * 97 + 5) % 253) as u8)
        .collect()
}

fn assert_batch_equals_loop(chunks: &[Vec<u8>]) {
    let mut got = vec![[0xAAu8; 32]; chunks.len()];
    leaf_hashes_into(chunks, &mut got);
    let want: Vec<Hash> = chunks.iter().map(|c| leaf_hash(c)).collect();
    let lens: Vec<usize> = chunks.iter().map(Vec::len).collect();
    assert_eq!(got, want, "chunk lengths {lens:?}");
}

/// The shapes the grouping has to get right: no chunks, runs shorter
/// and longer than one kernel call, the lengths either side of the
/// one- and two-block padding seams, a straggler that splits a run.
#[test]
fn batch_equals_loop_on_the_awkward_shapes() {
    let of = |lens: &[usize]| -> Vec<Vec<u8>> {
        lens.iter()
            .enumerate()
            .map(|(i, &len)| chunk(len, i))
            .collect()
    };
    assert_batch_equals_loop(&[]);
    for len in [0usize, 1, 54, 55, 62, 63, 64, 119, 120, 127, 128, 1000] {
        for count in [1usize, 7, 8, 9, 15, 16, 17, 32, 33, 40] {
            assert_batch_equals_loop(&of(&vec![len; count]));
        }
    }
    // One long among many short; 17 equal and 3 odd, at either end and
    // in the middle.
    let mut lens = vec![40usize; 20];
    lens[11] = 70_000;
    assert_batch_equals_loop(&of(&lens));
    assert_batch_equals_loop(&of(&[vec![4096; 17], vec![1, 63, 4095]].concat()));
    assert_batch_equals_loop(&of(&[vec![1, 63, 4095], vec![4096; 17]].concat()));
    assert_batch_equals_loop(&of(
        &[vec![4096; 9], vec![0, 64, 120], vec![4096; 8]].concat()
    ));
    // Every length different: no two neighbours share a kernel call.
    assert_batch_equals_loop(&of(&(0..40).collect::<Vec<_>>()));
}

#[test]
fn payload_leaves_hash_each_cut_including_a_short_last_leaf() {
    let data = chunk(20 * 1000 + 37, 9);
    for leaf_size in [1000usize, 1024, 20_037, 30_000] {
        let want: Vec<Hash> = data.chunks(leaf_size).map(leaf_hash).collect();
        assert_eq!(
            payload_leaves(&data, leaf_size),
            want,
            "leaf size {leaf_size}"
        );
    }
    assert!(payload_leaves(&[], 1000).is_empty());
}

#[test]
#[should_panic(expected = "leaf_hashes_into: 3 chunks but room for 2 hashes")]
fn a_mismatched_output_slice_panics_with_a_message() {
    let chunks = [chunk(10, 0), chunk(10, 1), chunk(10, 2)];
    leaf_hashes_into(&chunks, &mut [[0u8; 32]; 2]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Batch ≡ loop for 0..=40 chunks whose lengths are drawn from the
    /// seam values and a few arbitrary ones, in any order.
    #[test]
    fn batch_equals_loop_for_mixed_lengths(
        picks in proptest::collection::vec((0usize..10, 0usize..300), 0..=40),
    ) {
        const SEAMS: [usize; 8] = [0, 17, 62, 63, 64, 119, 120, 5000];
        let chunks: Vec<Vec<u8>> = picks
            .iter()
            .enumerate()
            .map(|(i, &(which, any))| chunk(SEAMS.get(which).copied().unwrap_or(any), i))
            .collect();
        assert_batch_equals_loop(&chunks);
    }

    /// The root is a pure function of the leaf sequence: rebuilding the
    /// tree from the same leaves yields the same root, and every chunk
    /// count in 1..=257 has a well-defined, self-consistent shape.
    #[test]
    fn root_is_stable_for_every_chunk_count(
        count in 1usize..=257,
        seed in any::<u64>(),
    ) {
        let ls = leaves(count, seed);
        let a = MerkleTree::from_leaves(ls.clone());
        let b = MerkleTree::from_leaves(ls);
        prop_assert_eq!(a.root(), b.root());
        prop_assert_eq!(a.leaf_count(), count);
        // The advertised shape matches the built tree at every level.
        let widths = MerkleTree::level_widths(count as u64);
        prop_assert_eq!(widths.len(), a.height() + 1);
        for (l, w) in widths.iter().enumerate() {
            prop_assert_eq!(a.level(l).unwrap().len() as u64, *w);
        }
    }

    /// Flipping exactly one leaf changes the root, and the subtree diff
    /// localizes the damage to exactly that leaf index.
    #[test]
    fn single_leaf_flip_localizes_exactly(
        count in 1usize..=257,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let ls = leaves(count, seed);
        let i = (pick % count as u64) as usize;
        let mut flipped = ls.clone();
        flipped[i][7] ^= 0x80;
        let clean = MerkleTree::from_leaves(ls);
        let damaged = MerkleTree::from_leaves(flipped);
        prop_assert_ne!(clean.root(), damaged.root());
        prop_assert_eq!(clean.diff(&damaged), vec![i]);
    }
}
