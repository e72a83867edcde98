//! Binary Merkle trees over per-chunk leaf hashes — the damage
//! *localization* structure of the integrity subsystem.
//!
//! A shard's payload is cut into fixed-size chunks; each chunk's
//! [`leaf_hash`] becomes a leaf, interior nodes combine children with
//! [`node_hash`], and the root commits to every byte of the shard.
//! Comparing two roots answers "identical?" in 32 bytes; walking down
//! the mismatching interior nodes ([`MerkleTree::diff`], or level by
//! level over the wire via [`MerkleTree::level`]) localizes damage to
//! exact chunk indices in O(damaged · log chunks) comparisons instead
//! of a full re-read.
//!
//! Domain separation: leaves hash `0x00 ‖ data`, interior nodes
//! `0x01 ‖ left ‖ right`, and the empty tree is the constant
//! `sha256(0x02)` — so a leaf can never be reinterpreted as an interior
//! node (second-preimage shapeshifting) and an empty shard has a
//! well-defined root. A level with an odd node count promotes its last
//! node unchanged (no sibling duplication, which would let two
//! different leaf sets share a root).
//!
//! Leaves are the bulk of the hashing and are independent messages, so
//! every caller with more than one — a chunk's `n + p` slices as they
//! are written, the frames an archive walk reads (gathered across chunks
//! until they fill the lanes), a shard's leaves, the leaves of every
//! shard a store round fetched or an object's put hashes — hands them to
//! [`leaf_hashes_into`] together. Where the CPU has the 16-lane SHA-256
//! kernel (`sha256.rs`), a batch of at least eight leaves (beside SHA-NI;
//! two beside the portable kernel) of any lengths is packed into it:
//! each lane hashes one leaf and takes the next as it ends, and once the
//! lanes run out of leaves and fewer than eight are left busy, those
//! finish on SHA-NI, as does a smaller batch. Without the lane kernel
//! every leaf goes through [`leaf_hash`] one at a time. The hashes are the same either way:
//! which kernel ran is never visible in a root, a trailer or a manifest.

use crate::sha256::{self, sha256, CompressLanesFn, Sha256, LANES, SHA256_LEN};
use std::sync::OnceLock;

/// A 32-byte SHA-256 Merkle hash (leaf, interior node, or root).
pub type Hash = [u8; SHA256_LEN];

/// Hash of a leaf chunk: `sha256(0x00 ‖ data)`.
pub fn leaf_hash(data: &[u8]) -> Hash {
    let mut h = Sha256::new();
    h.update(&[LEAF_PREFIX]);
    h.update(data);
    h.finish()
}

/// Hash of an interior node: `sha256(0x01 ‖ left ‖ right)`.
pub fn node_hash(left: &Hash, right: &Hash) -> Hash {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finish()
}

/// Root of the zero-leaf tree: `sha256(0x02)`.
pub fn empty_root() -> Hash {
    sha256(&[0x02])
}

/// Leaf count of a payload of `len` bytes cut at `leaf_size`.
pub fn leaf_count(len: u64, leaf_size: u64) -> u64 {
    assert!(leaf_size > 0, "leaf size must be positive");
    len.div_ceil(leaf_size)
}

/// The domain-separation prefix of a leaf.
const LEAF_PREFIX: u8 = 0x00;

/// How many chunks one call of the lane kernel hashes. A caller that
/// has to stage its chunks (to skip some, say) loses nothing by handing
/// [`leaf_hashes_into`] this many at a time.
pub const LEAF_BATCH: usize = LANES;

/// Fewest occupied lanes for which the lane kernel beats hashing the
/// same leaves one by one with the process's single-message kernel: a
/// batch keeps its lanes while leaves are waiting or at least this many
/// are busy, and drains the rest to the single-message kernel. The
/// lane kernel's time does not depend on how many lanes are occupied,
/// so this is its time per block step over the single-message kernel's
/// time per block. Measured on the reference box (one vCPU of a Xeon
/// with AVX-512 and SHA-NI; messages of 4 KiB to 102 KiB, best of 30):
/// a 16-lane block step takes 291 ns (3.5 GB/s with every lane
/// occupied); SHA-NI takes 39.5 ns per block (1.6 GB/s), break-even 7.4
/// lanes, and at 8 the lanes already win by 1–19 %; the portable kernel
/// takes 233 ns per block (0.28 GB/s), break-even 1.3. So RS(10,4)'s 14
/// slices and RS(6,3)'s 9 take the lanes and RS(4,2)'s 6 do not.
fn min_lanes(single_kernel: &str) -> usize {
    if single_kernel == "sha-ni" {
        8
    } else {
        2
    }
}

/// How a batch of leaves is hashed: the lane kernel and the occupancy
/// below which its last lanes drain to the single-message kernel, or
/// `None` to hash one by one.
#[doc(hidden)]
#[derive(Clone, Copy)]
pub struct LeafBatch {
    lanes: Option<(CompressLanesFn, usize)>,
}

impl LeafBatch {
    /// What this process runs, detected once.
    fn selected() -> LeafBatch {
        static SELECTED: OnceLock<LeafBatch> = OnceLock::new();
        *SELECTED.get_or_init(|| LeafBatch {
            lanes: sha256::selected_lanes()
                .map(|(_, compress)| (compress, min_lanes(sha256::selected().0))),
        })
    }

    /// Every lane kernel the CPU offers (the serial spelling always
    /// last), each draining below two occupied lanes — the fewest any
    /// process keeps — so a test reaches every occupancy a process runs
    /// the lanes at, and the drain of a last lane — what
    /// `tests/kernel_equivalence.rs` sweeps.
    pub(crate) fn implementations() -> Vec<(&'static str, LeafBatch)> {
        sha256::lane_kernels()
            .into_iter()
            .map(|(name, compress)| (name, LeafBatch { lanes: Some((compress, 2)) }))
            .collect()
    }

    /// [`leaf_hashes_into`] with this choice of kernel.
    pub fn hash_into<T: AsRef<[u8]>>(&self, chunks: &[T], out: &mut [Hash]) {
        assert_eq!(
            out.len(),
            chunks.len(),
            "leaf_hashes_into: {} chunks but room for {} hashes",
            chunks.len(),
            out.len()
        );
        match self.lanes {
            Some((compress, min)) => sha256::sha256_batch(compress, min, LEAF_PREFIX, chunks, out),
            None => {
                for (hash, chunk) in out.iter_mut().zip(chunks) {
                    *hash = leaf_hash(chunk.as_ref());
                }
            }
        }
    }
}

/// [`leaf_hash`] of every chunk, `out[i]` for `chunks[i]`: the batch
/// form every caller with more than one leaf in hand uses. Any count,
/// any mix of lengths, no allocation: the lane kernel (module docs)
/// takes the chunks in the order given and keeps its lanes full whatever
/// their lengths, so a batch of at least eight is packed and a smaller
/// one, or the last few leaves of a batch, go to SHA-NI. Long leaves
/// first packs best: the short ones then fill the lanes the long ones
/// leave as they end, as leaf-major shards do.
///
/// # Panics
///
/// If `out.len() != chunks.len()`.
pub fn leaf_hashes_into<T: AsRef<[u8]>>(chunks: &[T], out: &mut [Hash]) {
    LeafBatch::selected().hash_into(chunks, out)
}

/// The leaf hashes of a payload cut into `leaf_size` chunks (the final
/// chunk may be short). An empty payload has no leaves.
pub fn payload_leaves(data: &[u8], leaf_size: usize) -> Vec<Hash> {
    assert!(leaf_size > 0, "leaf size must be positive");
    let chunks: Vec<&[u8]> = data.chunks(leaf_size).collect();
    let mut leaves = vec![[0u8; SHA256_LEN]; chunks.len()];
    leaf_hashes_into(&chunks, &mut leaves);
    leaves
}

/// The *object root*: a Merkle root over per-shard roots, each treated
/// as an already-hashed leaf. One definition shared by the archive
/// trailer and the store manifest, so the two integrity layers name the
/// same 32 bytes for the same object.
pub fn root_over_roots(roots: &[Hash]) -> Hash {
    MerkleTree::from_leaves(roots.to_vec()).root()
}

/// A materialized Merkle tree: every level, leaves first, root last.
///
/// Level `0` is the leaf level; level `height()` holds exactly the
/// root. The shape is a pure function of the leaf count, so two sides
/// that agree on `(payload_len, leaf_size)` agree on every node's
/// coordinates — which is what lets the `HASH_SUBTREE` opcode address
/// interior nodes as `(level, index)` with no tree bytes on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleTree {
    /// `levels[0]` = leaves … `levels.last()` = `[root]`. The zero-leaf
    /// tree is represented as a single level holding [`empty_root`].
    levels: Vec<Vec<Hash>>,
    leaf_count: usize,
}

impl MerkleTree {
    /// Build the tree over `leaves` (already-hashed leaf values).
    pub fn from_leaves(leaves: Vec<Hash>) -> MerkleTree {
        let leaf_count = leaves.len();
        if leaves.is_empty() {
            return MerkleTree { levels: vec![vec![empty_root()]], leaf_count };
        }
        let mut levels = vec![leaves];
        while levels.last().expect("non-empty").len() > 1 {
            let below = levels.last().expect("non-empty");
            let mut level = Vec::with_capacity(below.len().div_ceil(2));
            for pair in below.chunks(2) {
                level.push(match pair {
                    [l, r] => node_hash(l, r),
                    // Odd tail: promote unchanged.
                    [l] => *l,
                    _ => unreachable!("chunks(2) yields 1 or 2 items"),
                });
            }
            levels.push(level);
        }
        MerkleTree { levels, leaf_count }
    }

    /// Build the tree over a payload cut at `leaf_size`.
    pub fn from_payload(data: &[u8], leaf_size: usize) -> MerkleTree {
        MerkleTree::from_leaves(payload_leaves(data, leaf_size))
    }

    /// The root hash.
    pub fn root(&self) -> Hash {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of levels above the leaves (0 for a 0- or 1-leaf tree).
    pub fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// Number of leaves the tree was built over.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// The nodes at `level` (0 = leaves, `height()` = root), or `None`
    /// for an out-of-range level.
    pub fn level(&self, level: usize) -> Option<&[Hash]> {
        self.levels.get(level).map(Vec::as_slice)
    }

    /// Width of each level for a tree of `leaves` leaves, leaf level
    /// first — the addressing contract both ends of `HASH_SUBTREE`
    /// derive independently.
    pub fn level_widths(leaves: u64) -> Vec<u64> {
        let mut widths = vec![leaves.max(1)];
        while *widths.last().expect("non-empty") > 1 {
            let w = widths.last().expect("non-empty").div_ceil(2);
            widths.push(w);
        }
        widths
    }

    /// Inclusion proof for `leaf`: the sibling hashes from the leaf
    /// level up, `None` where an odd promotion had no sibling. `None`
    /// if the index is out of range.
    pub fn proof(&self, leaf: usize) -> Option<Vec<Option<Hash>>> {
        if leaf >= self.leaf_count {
            return None;
        }
        let mut proof = Vec::with_capacity(self.height());
        let mut index = leaf;
        for level in &self.levels[..self.height()] {
            let sibling = index ^ 1;
            proof.push(level.get(sibling).copied());
            index /= 2;
        }
        Some(proof)
    }

    /// Verify an inclusion proof produced by [`MerkleTree::proof`]
    /// against a trusted `root`.
    pub fn verify_proof(
        root: &Hash,
        leaf_index: usize,
        leaf: &Hash,
        proof: &[Option<Hash>],
    ) -> bool {
        let mut acc = *leaf;
        let mut index = leaf_index;
        for sibling in proof {
            acc = match sibling {
                Some(s) if index.is_multiple_of(2) => node_hash(&acc, s),
                Some(s) => node_hash(s, &acc),
                // Odd promotion: the node rises unchanged.
                None => acc,
            };
            index /= 2;
        }
        acc == *root
    }

    /// Leaf indices where `self` and `other` differ, found by descending
    /// only into mismatching subtrees. Both trees must have the same
    /// leaf count (the comparison is meaningless otherwise).
    pub fn diff(&self, other: &MerkleTree) -> Vec<usize> {
        assert_eq!(
            self.leaf_count, other.leaf_count,
            "diff requires trees over the same leaf count"
        );
        if self.root() == other.root() {
            return Vec::new();
        }
        if self.leaf_count == 0 {
            // Equal shape, unequal root over zero leaves cannot happen
            // (both roots are the empty constant) — guarded above.
            return Vec::new();
        }
        // Frontier of mismatching node indices, walked from the root's
        // children down to the leaves.
        let mut frontier = vec![0usize];
        for level in (0..self.height()).rev() {
            let a = &self.levels[level];
            let b = &other.levels[level];
            let mut next = Vec::with_capacity(frontier.len() * 2);
            for &parent in &frontier {
                for child in [parent * 2, parent * 2 + 1] {
                    if child < a.len() && a[child] != b[child] {
                        next.push(child);
                    }
                }
            }
            frontier = next;
        }
        frontier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Hash> {
        (0..n).map(|i| leaf_hash(&[i as u8, (i >> 8) as u8])).collect()
    }

    #[test]
    fn known_shapes() {
        assert_eq!(MerkleTree::from_leaves(vec![]).root(), empty_root());
        let one = leaves(1);
        assert_eq!(MerkleTree::from_leaves(one.clone()).root(), one[0]);
        let two = leaves(2);
        assert_eq!(
            MerkleTree::from_leaves(two.clone()).root(),
            node_hash(&two[0], &two[1])
        );
        // Three leaves: ((0,1), promoted 2).
        let three = leaves(3);
        assert_eq!(
            MerkleTree::from_leaves(three.clone()).root(),
            node_hash(&node_hash(&three[0], &three[1]), &three[2])
        );
    }

    #[test]
    fn level_widths_match_built_tree() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257] {
            let tree = MerkleTree::from_leaves(leaves(n));
            let widths = MerkleTree::level_widths(n as u64);
            assert_eq!(widths.len(), tree.height() + 1, "n={n}");
            for (l, w) in widths.iter().enumerate() {
                assert_eq!(tree.level(l).unwrap().len() as u64, *w, "n={n} level={l}");
            }
        }
    }

    #[test]
    fn domain_separation() {
        // A leaf of 65 bytes must not collide with the interior node
        // over the same 64 hash bytes.
        let l = leaf_hash(b"left");
        let r = leaf_hash(b"right");
        let mut cat = vec![0u8];
        cat.extend_from_slice(&l);
        cat.extend_from_slice(&r);
        assert_ne!(node_hash(&l, &r), leaf_hash(&cat[1..]));
        assert_ne!(leaf_hash(b""), empty_root());
    }

    #[test]
    fn payload_trees_detect_any_flip() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 13 + 5) as u8).collect();
        let clean = MerkleTree::from_payload(&data, 256);
        for at in [0usize, 255, 256, 5000, 9999] {
            let mut bad = data.clone();
            bad[at] ^= 0x40;
            let tree = MerkleTree::from_payload(&bad, 256);
            assert_ne!(tree.root(), clean.root(), "flip at {at}");
            assert_eq!(clean.diff(&tree), vec![at / 256], "flip at {at}");
        }
    }

    #[test]
    fn diff_finds_multiple_damaged_leaves() {
        let base = leaves(257);
        let mut other = base.clone();
        for i in [0usize, 128, 200, 256] {
            other[i][0] ^= 0xFF;
        }
        let a = MerkleTree::from_leaves(base);
        let b = MerkleTree::from_leaves(other);
        assert_eq!(a.diff(&b), vec![0, 128, 200, 256]);
        assert_eq!(a.diff(&a), Vec::<usize>::new());
    }

    #[test]
    fn proofs_verify_and_bind_position() {
        let ls = leaves(11);
        let tree = MerkleTree::from_leaves(ls.clone());
        let root = tree.root();
        for (i, leaf) in ls.iter().enumerate() {
            let proof = tree.proof(i).unwrap();
            assert!(MerkleTree::verify_proof(&root, i, leaf, &proof), "leaf {i}");
            // A wrong in-range position must fail. (An out-of-range claim
            // like `10 ^ 1 == 11` is indistinguishable for the promoted
            // tail — its proof step is `None` — which is why callers
            // always bounds-check the index against the known leaf count
            // before verifying.)
            if i ^ 1 < ls.len() {
                assert!(!MerkleTree::verify_proof(&root, i ^ 1, leaf, &proof));
            }
            let mut wrong = *leaf;
            wrong[5] ^= 1;
            assert!(!MerkleTree::verify_proof(&root, i, &wrong, &proof));
        }
        assert!(tree.proof(11).is_none());
    }
}
