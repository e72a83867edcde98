//! Per-shard hash trees for the object store: the stored leaf-hash
//! blobs (`t:` keys) and the manifest-root arithmetic the incremental
//! scrub descends over.
//!
//! Every manifest records one SHA-256 Merkle root per shard
//! plus the object root over those roots
//! ([`ec_wire::merkle::root_over_roots`]). Beside each shard blob
//! (`s:<idx>g<gen>:<object>`) lives a *hash blob*
//! (`t:<idx>g<gen>:<object>`) holding the shard's leaf hashes at
//! [`HASH_LEAF_SIZE`] granularity:
//!
//! ```text
//! [8 magic "XSLPECH1"][u8 version][u32 LE leaf_size][u32 LE leaf_count]
//! [leaf_count × 32 leaf hashes][u32 LE CRC-32 of everything before]
//! ```
//!
//! The split of trust is deliberate: the manifest root is the ground
//! truth (it travels with the CRC'd, generation-elected manifest), the
//! stored leaves are a *cache* of the tree below it — useful only after
//! their own root re-hashes to the manifest root. Scrub compares the
//! node's **computed** tree (re-hashed from the shard bytes on the node,
//! via the `HASH_SUBTREE` opcode) against the **stored** tree level by
//! level, shipping `O(log leaves)` hashes to attribute damage to exact
//! leaf ranges — never the shard payload itself.

use crate::error::StoreError;
use ec_wire::crc32;
use ec_wire::merkle::{leaf_hashes_into, payload_leaves, Hash, MerkleTree};
use ec_wire::SHA256_LEN;

/// Magic prefix of a serialized hash blob.
pub const HASH_MAGIC: [u8; 8] = *b"XSLPECH1";

/// Serialization version of the hash-blob form.
pub const HASH_BLOB_VERSION: u8 = 1;

/// Leaf granularity the store hashes shards at: 64 KiB balances
/// attribution precision (a damaged region is named to within 64 KiB)
/// against tree size (a 64 MiB shard carries 1024 leaves = 32 KiB of
/// hashes, under 0.05% overhead).
pub const HASH_LEAF_SIZE: u32 = 64 * 1024;

/// Key of the hash blob for shard `index` of `object` at `generation` —
/// the `t:` twin of [`crate::manifest::shard_key`], same grammar, so it
/// rides the same [`crate::proto::MAX_KEY`] budget and the same GC
/// liveness rule.
pub fn tree_key(object: &str, index: usize, generation: u64) -> String {
    format!("t:{index:03}g{generation:016x}:{object}")
}

/// Decompose a tree key into `(object, index, generation)` — the GC's
/// inverse of [`tree_key`]; `None` for keys that are not tree keys.
pub fn parse_tree_key(key: &str) -> Option<(&str, usize, u64)> {
    crate::manifest::parse_prefixed_key(key, "t:")
}

/// The leaf hashes of one shard, as stored in a `t:` hash blob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HashBlob {
    /// Leaf granularity the hashes were computed at.
    pub leaf_size: u32,
    /// `leaves[k]` = `leaf_hash` of shard bytes `[k·leaf_size, …)`.
    pub leaves: Vec<Hash>,
}

impl HashBlob {
    /// Hash `shard` at `leaf_size` granularity.
    pub fn from_shard(shard: &[u8], leaf_size: u32) -> HashBlob {
        HashBlob {
            leaf_size,
            leaves: payload_leaves(shard, leaf_size as usize),
        }
    }

    /// [`HashBlob::from_shard`] of every shard of one object, hashed
    /// together in one [`leaf_hashes_into`] batch, which packs leaves of
    /// any lengths into the SHA-256 lanes — where one shard alone (two
    /// leaves of a 1 MiB object) gives it nothing to batch. The leaves go
    /// leaf-major (leaf `k` of every shard adjacent), so the long leaves
    /// start together and a lane whose short last leaf ends takes the
    /// next one: ten 1 MiB-object shards hash in the time of their ten
    /// 64 KiB leaves. Put, overwrite and repair hash what they write
    /// with it, and every fetch round checks what it was served.
    ///
    /// # Panics
    ///
    /// If the shards differ in length.
    pub fn from_shards<T: AsRef<[u8]>>(shards: &[T], leaf_size: u32) -> Vec<HashBlob> {
        assert!(leaf_size > 0, "leaf size must be positive");
        let leaf = leaf_size as usize;
        let shard_len = shards.first().map_or(0, |s| s.as_ref().len());
        assert!(
            shards.iter().all(|s| s.as_ref().len() == shard_len),
            "the shards of one object are equally long"
        );
        // Leaf-major: `chunks[k * shards.len() + i]` is leaf `k` of shard `i`.
        let chunks: Vec<&[u8]> = (0..shard_len.div_ceil(leaf))
            .flat_map(|k| {
                shards
                    .iter()
                    .map(move |s| &s.as_ref()[k * leaf..shard_len.min((k + 1) * leaf)])
            })
            .collect();
        let mut hashes = vec![Hash::default(); chunks.len()];
        leaf_hashes_into(&chunks, &mut hashes);
        (0..shards.len())
            .map(|i| HashBlob {
                leaf_size,
                leaves: hashes
                    .iter()
                    .skip(i)
                    .step_by(shards.len())
                    .copied()
                    .collect(),
            })
            .collect()
    }

    /// The Merkle root over the stored leaves.
    pub fn root(&self) -> Hash {
        MerkleTree::from_leaves(self.leaves.clone()).root()
    }

    /// Serialize to the blob form described in the module docs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(21 + self.leaves.len() * SHA256_LEN);
        out.extend_from_slice(&HASH_MAGIC);
        out.push(HASH_BLOB_VERSION);
        out.extend_from_slice(&self.leaf_size.to_le_bytes());
        out.extend_from_slice(&(self.leaves.len() as u32).to_le_bytes());
        for leaf in &self.leaves {
            out.extend_from_slice(leaf);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse and validate the blob form.
    pub fn from_bytes(bytes: &[u8]) -> Result<HashBlob, StoreError> {
        let bad = |msg: &str| StoreError::Manifest(format!("hash blob: {msg}"));
        let head = HASH_MAGIC.len() + 1 + 4 + 4;
        if bytes.len() < head + 4 {
            return Err(bad("too short"));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        if u32::from_le_bytes(trailer.try_into().expect("fixed slice")) != crc32(body) {
            return Err(bad("checksum mismatch"));
        }
        if body[..HASH_MAGIC.len()] != HASH_MAGIC {
            return Err(bad("bad magic"));
        }
        let version = body[HASH_MAGIC.len()];
        if version != HASH_BLOB_VERSION {
            return Err(StoreError::Manifest(format!(
                "unsupported hash blob version {version} (this build reads \
                 {HASH_BLOB_VERSION})"
            )));
        }
        let leaf_size = u32::from_le_bytes(
            body[HASH_MAGIC.len() + 1..HASH_MAGIC.len() + 5]
                .try_into()
                .expect("fixed"),
        );
        if leaf_size == 0 {
            return Err(bad("zero leaf size"));
        }
        let count = u32::from_le_bytes(body[HASH_MAGIC.len() + 5..head].try_into().expect("fixed"))
            as usize;
        let hashes = &body[head..];
        if hashes.len() != count * SHA256_LEN {
            return Err(bad("leaf count does not match the payload length"));
        }
        let leaves = hashes
            .chunks_exact(SHA256_LEN)
            .map(|c| {
                let mut h = [0u8; SHA256_LEN];
                h.copy_from_slice(c);
                h
            })
            .collect();
        Ok(HashBlob { leaf_size, leaves })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_wire::merkle::empty_root;

    #[test]
    fn roundtrips_and_roots() {
        let shard: Vec<u8> = (0..200_000u32).map(|i| (i * 13) as u8).collect();
        let blob = HashBlob::from_shard(&shard, HASH_LEAF_SIZE);
        assert_eq!(blob.leaves.len(), 4); // 200 000 / 65 536 rounds up to 4
        assert_eq!(
            blob.root(),
            MerkleTree::from_payload(&shard, HASH_LEAF_SIZE as usize).root()
        );
        let parsed = HashBlob::from_bytes(&blob.to_bytes()).unwrap();
        assert_eq!(parsed, blob);
        // Empty shard: no leaves, the canonical empty root.
        let empty = HashBlob::from_shard(&[], HASH_LEAF_SIZE);
        assert_eq!(empty.root(), empty_root());
        assert_eq!(HashBlob::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn shards_hashed_together_equal_shards_hashed_apart() {
        // 14 shards of 2.5 leaves (the last one short), then the shapes
        // with nothing to interleave: one shard, empty shards, no shards.
        for (count, len) in [(14usize, 640usize), (1, 640), (3, 0), (0, 0)] {
            let shards: Vec<Vec<u8>> = (0..count)
                .map(|i| (0..len).map(|j| (i * 29 + j * 13) as u8).collect())
                .collect();
            let apart: Vec<HashBlob> = shards
                .iter()
                .map(|s| HashBlob::from_shard(s, 256))
                .collect();
            assert_eq!(
                HashBlob::from_shards(&shards, 256),
                apart,
                "{count} shards of {len}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "equally long")]
    fn shards_of_unequal_length_are_refused() {
        HashBlob::from_shards(&[vec![0u8; 10], vec![0u8; 11]], 256);
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = HashBlob::from_shard(&[7u8; 1000], 256).to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(HashBlob::from_bytes(&bad).is_err(), "flip at byte {i}");
        }
        for cut in 0..bytes.len() {
            assert!(HashBlob::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn tree_keys_mirror_shard_keys() {
        assert_eq!(tree_key("obj", 7, 0), "t:007g0000000000000000:obj");
        assert_eq!(tree_key("obj", 7, 0x2a), "t:007g000000000000002a:obj");
        for gen in [0u64, 1, 42, u64::MAX] {
            let key = tree_key("a:b/c", 17, gen);
            assert_eq!(parse_tree_key(&key), Some(("a:b/c", 17, gen)));
        }
        for bad in [
            "s:007g0000000000000001:obj",
            "t:007:obj",
            "t:",
            "t:01",
            "t:007obj",
            "t:007g123:obj",
        ] {
            assert_eq!(parse_tree_key(bad), None, "{bad}");
        }
    }
}
