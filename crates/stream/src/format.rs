//! The self-describing shard-file format (see `docs/FORMAT.md` for the
//! normative byte-level spec).
//!
//! A shard file is a fixed 64-byte header followed by one *frame* per
//! chunk: the shard's slice of that chunk's encoding, then the CRC-32 of
//! the slice. Every geometric fact about the file — frame offsets, slice
//! lengths, the total file length — is derivable from the header alone,
//! so shards are recoverable without side-channel files and truncation is
//! detectable from the length.
//!
//! After the last frame comes the [`HashTrailer`]: this
//! shard's per-chunk SHA-256 leaf hashes, the Merkle roots of **all**
//! `n + p` shards, and the object root over those roots. CRC-32 catches
//! bit-rot; the trailer catches what CRC-32 cannot — a slice rewritten
//! together with its checksum — and, because every shard carries every
//! root, a majority of surviving trailers can prove which shard was
//! tampered with and what a repaired shard's bytes must hash to.

use ec_wire::crc32;
use ec_wire::merkle::{Hash, MerkleTree};
use ec_wire::SHA256_LEN;
use crate::error::StreamError;
use ec_core::{CodecSpec, EcError};
use std::io::{Read, Write};

/// The 8-byte magic at offset 0: `xorslp_ec` shard, format generation 1.
pub const MAGIC: [u8; 8] = *b"XSLPECS1";

/// The one header format version this implementation writes and reads.
/// The version field exists so that the *next* change to the format is
/// refused, typed, by this build — not so that older files stay
/// readable (`docs/FORMAT.md`, "Compatibility policy").
pub const FORMAT_VERSION: u32 = 3;

/// Total header length in bytes (fixed; trailing reserved space leaves
/// room for additive extensions without a size change).
pub const HEADER_LEN: usize = 64;

/// Per-frame trailer: the CRC-32 of the frame's payload.
pub const FRAME_TRAILER_LEN: usize = 4;

/// Implementation cap on `chunk_size` (1 GiB). The wire field is u32,
/// but a reader sizes per-chunk buffers from it, so an uncapped hostile
/// header could demand multi-GiB allocations from a 64-byte file.
pub const MAX_CHUNK_SIZE: u32 = 1 << 30;

/// Shard-slice alignment of the default RS codec (`w = 8` packets);
/// the fallback when a header's codec spec is not yet validated.
const PACKET_ALIGN: u64 = 8;

/// The archive-wide parameters shared by every shard header (everything
/// except the shard index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ArchiveMeta {
    /// Data shards `n` of the code.
    pub data_shards: u16,
    /// Parity shards `p`.
    pub parity_shards: u16,
    /// Wire identifier of the codec family ([`ec_core::CodecId::wire`]).
    pub codec_id: u16,
    /// LRC locality-group size `r`; `0` for every other family.
    pub group_size: u16,
    /// Original-data bytes consumed per full chunk.
    pub chunk_size: u32,
    /// Number of chunks (`ceil(original_len / chunk_size)`).
    pub chunk_count: u64,
    /// Exact byte length of the archived data.
    pub original_len: u64,
}

/// The format-level slice length: the smallest `align`-multiple length
/// whose `n` shards cover `data_len` bytes (identical to the codec's
/// `shard_len`, restated here because the format spec owns it). `align`
/// comes from [`CodecSpec::shard_alignment`]: 8 for the GF(2^8) codecs,
/// `w = prime − 1` for the array codes.
pub fn slice_len_for(data_len: u64, data_shards: u16, align: u64) -> u64 {
    data_len.div_ceil(data_shards as u64).div_ceil(align) * align
}

impl ArchiveMeta {
    /// Derive the metadata for `original_len` bytes archived as the
    /// default RS(n, p) in `chunk_size`-byte chunks.
    pub fn new(
        data_shards: u16,
        parity_shards: u16,
        chunk_size: u32,
        original_len: u64,
    ) -> ArchiveMeta {
        ArchiveMeta::with_spec(
            &CodecSpec::rs(data_shards as usize, parity_shards as usize),
            chunk_size,
            original_len,
        )
    }

    /// Derive the metadata for `original_len` bytes archived under an
    /// arbitrary codec spec in `chunk_size`-byte chunks.
    pub fn with_spec(spec: &CodecSpec, chunk_size: u32, original_len: u64) -> ArchiveMeta {
        let chunk_count = if chunk_size == 0 {
            0
        } else {
            original_len.div_ceil(chunk_size as u64)
        };
        ArchiveMeta {
            data_shards: spec.data_shards as u16,
            parity_shards: spec.parity_shards as u16,
            codec_id: spec.id.wire(),
            group_size: spec.group_size as u16,
            chunk_size,
            chunk_count,
            original_len,
        }
    }

    /// The codec spec these shards were encoded under, validated: an
    /// unknown wire id or a geometry the family cannot realize is a
    /// typed [`EcError`], never a silent misdecode.
    pub fn codec_spec(&self) -> Result<CodecSpec, EcError> {
        CodecSpec::from_wire(
            self.codec_id,
            self.group_size,
            self.data_shards as usize,
            self.parity_shards as usize,
        )
    }

    /// Slice alignment implied by the codec spec (8 until the spec
    /// validates, which every read/write path enforces first).
    fn shard_align(&self) -> u64 {
        self.codec_spec()
            .and_then(|s| s.shard_alignment())
            .map(|a| a as u64)
            .unwrap_or(PACKET_ALIGN)
    }

    /// Total shards `n + p`.
    pub fn total_shards(&self) -> usize {
        self.data_shards as usize + self.parity_shards as usize
    }

    /// Original-data bytes covered by chunk `chunk` (the final chunk may
    /// be short).
    ///
    /// # Panics
    /// Panics if `chunk >= chunk_count`.
    pub fn chunk_data_len(&self, chunk: u64) -> usize {
        assert!(chunk < self.chunk_count, "chunk index out of range");
        let start = chunk * self.chunk_size as u64;
        (self.original_len - start).min(self.chunk_size as u64) as usize
    }

    /// Per-shard payload bytes of chunk `chunk`'s frame.
    pub fn slice_len(&self, chunk: u64) -> usize {
        slice_len_for(
            self.chunk_data_len(chunk) as u64,
            self.data_shards,
            self.shard_align(),
        ) as usize
    }

    /// The byte length every intact shard file must have.
    ///
    /// # Panics
    /// Panics on arithmetic overflow — unreachable for any metadata that
    /// passed validation (`validate` computes this with checked math).
    pub fn shard_file_len(&self) -> u64 {
        self.checked_shard_file_len().expect("validated metadata cannot overflow")
    }

    fn checked_shard_file_len(&self) -> Option<u64> {
        let mut len = HEADER_LEN as u64;
        if self.chunk_count > 0 {
            let full = slice_len_for(self.chunk_size as u64, self.data_shards, self.shard_align())
                + FRAME_TRAILER_LEN as u64;
            len = len.checked_add(self.chunk_count.checked_sub(1)?.checked_mul(full)?)?;
            len = len
                .checked_add(self.slice_len(self.chunk_count - 1) as u64)?
                .checked_add(FRAME_TRAILER_LEN as u64)?;
        }
        len.checked_add(HashTrailer::wire_len(self)?)
    }

    /// Byte offset of the hash trailer within an intact shard file.
    ///
    /// # Panics
    /// As [`ArchiveMeta::shard_file_len`].
    pub fn hash_trailer_offset(&self) -> u64 {
        let trailer = HashTrailer::wire_len(self).expect("validated metadata cannot overflow");
        self.shard_file_len() - trailer
    }

    /// Internal consistency checks shared by the reader and the writer.
    /// Beyond field ranges, this bounds the *magnitude* of what a header
    /// may demand: a CRC-valid but hostile 64-byte file must not be able
    /// to request multi-GiB buffers or overflow geometry arithmetic.
    fn validate(&self) -> Result<(), String> {
        if self.data_shards == 0 || self.parity_shards == 0 {
            return Err("need at least one data and one parity shard".into());
        }
        if self.total_shards() > 255 {
            return Err(format!(
                "n + p = {} exceeds the GF(2^8) limit of 255",
                self.total_shards()
            ));
        }
        if let Err(e) = self.codec_spec() {
            return Err(e.to_string());
        }
        if self.chunk_size == 0 {
            return Err("chunk size must be positive".into());
        }
        if self.chunk_size > MAX_CHUNK_SIZE {
            return Err(format!(
                "chunk size {} exceeds the implementation cap of {MAX_CHUNK_SIZE}",
                self.chunk_size
            ));
        }
        let expect = self.original_len.div_ceil(self.chunk_size as u64);
        if self.chunk_count != expect {
            return Err(format!(
                "chunk count {} inconsistent with length {} at chunk size {} (expected {})",
                self.chunk_count, self.original_len, self.chunk_size, expect
            ));
        }
        if self.checked_shard_file_len().is_none() {
            return Err(format!(
                "geometry overflows: {} chunks of {} bytes",
                self.chunk_count, self.chunk_size
            ));
        }
        Ok(())
    }
}

/// The hash trailer at the end of every shard file:
///
/// ```text
/// [chunk_count × 32] this shard's per-chunk SHA-256 leaf hashes
/// [(n + p)    × 32] Merkle root of every shard in the archive
/// [            32 ] object root (Merkle root over the shard roots)
/// [             4 ] CRC-32 of all trailer bytes above
/// ```
///
/// Leaves hash the shard's *frame payloads* (`leaf_hash(slice)`, see
/// [`ec_wire::merkle`]); a shard's root is the Merkle root of its
/// leaves. Every shard carries the full root vector so that a majority
/// of surviving trailers elects the authoritative roots even when a
/// shard's payload and trailer were tampered with together, and so a
/// repair can prove a rebuilt shard's bytes correct from any single
/// trusted survivor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HashTrailer {
    /// `leaf_hash` of each of this shard's chunk slices, in chunk order.
    pub leaves: Vec<Hash>,
    /// `shard_roots[i]` is the Merkle root of shard `i`'s leaves.
    pub shard_roots: Vec<Hash>,
    /// Merkle root over `shard_roots` (taken as leaves as they are).
    pub object_root: Hash,
}

impl HashTrailer {
    /// Serialized trailer length for `meta`'s geometry, with overflow
    /// checked (a hostile header must not wrap the file-length math).
    pub fn wire_len(meta: &ArchiveMeta) -> Option<u64> {
        let hashes = meta
            .chunk_count
            .checked_add(meta.total_shards() as u64)?
            .checked_add(1)?;
        hashes.checked_mul(SHA256_LEN as u64)?.checked_add(4)
    }

    /// The object root implied by a shard-root vector: the Merkle root
    /// over the roots, taken as leaves as they are. Shared with the
    /// object store's manifest ([`ec_wire::merkle::root_over_roots`]),
    /// so the two surfaces commit to identical bytes identically.
    pub fn object_root_of(shard_roots: &[Hash]) -> Hash {
        ec_wire::merkle::root_over_roots(shard_roots)
    }

    /// Build the trailer for one shard from its own leaves and the
    /// archive-wide root vector.
    pub fn new(leaves: Vec<Hash>, shard_roots: Vec<Hash>) -> HashTrailer {
        let object_root = HashTrailer::object_root_of(&shard_roots);
        HashTrailer { leaves, shard_roots, object_root }
    }

    /// This shard's Merkle root, recomputed from its stored leaves.
    pub fn own_root(&self) -> Hash {
        MerkleTree::from_leaves(self.leaves.clone()).root()
    }

    /// Structural + semantic self-consistency: the stored leaves build
    /// `shard_roots[shard_index]`, and the stored object root is the
    /// root over the stored shard roots. A trailer that passes this and
    /// matches the elected root vector transitively authenticates every
    /// leaf (SHA-256 collision resistance).
    pub fn self_consistent(&self, shard_index: usize) -> bool {
        self.shard_roots.get(shard_index) == Some(&self.own_root())
            && self.object_root == HashTrailer::object_root_of(&self.shard_roots)
    }

    /// Serialize to the wire form described in the type docs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(
            (self.leaves.len() + self.shard_roots.len() + 1) * SHA256_LEN + 4,
        );
        for h in self.leaves.iter().chain(&self.shard_roots) {
            b.extend_from_slice(h);
        }
        b.extend_from_slice(&self.object_root);
        let crc = crc32(&b);
        b.extend_from_slice(&crc.to_le_bytes());
        b
    }

    /// Parse a trailer cut to exactly [`HashTrailer::wire_len`] bytes.
    pub fn from_bytes(b: &[u8], meta: &ArchiveMeta) -> Result<HashTrailer, StreamError> {
        let expect = HashTrailer::wire_len(meta)
            .ok_or_else(|| StreamError::Format("trailer length overflows".into()))?;
        if b.len() as u64 != expect {
            return Err(StreamError::Format(format!(
                "hash trailer is {} bytes, geometry demands {expect}",
                b.len()
            )));
        }
        let (body, crc) = b.split_at(b.len() - 4);
        if u32::from_le_bytes(crc.try_into().expect("4 bytes")) != crc32(body) {
            return Err(StreamError::Format("hash trailer checksum mismatch".into()));
        }
        let mut hashes = body.chunks_exact(SHA256_LEN);
        let mut take = |n: usize| -> Vec<Hash> {
            hashes.by_ref().take(n).map(|h| h.try_into().expect("32 bytes")).collect()
        };
        let leaves = take(meta.chunk_count as usize);
        let shard_roots = take(meta.total_shards());
        let object_root = take(1)[0];
        Ok(HashTrailer { leaves, shard_roots, object_root })
    }
}

/// One shard file's header: the archive metadata plus this shard's index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHeader {
    pub meta: ArchiveMeta,
    /// Index of this shard within the stripe (`0..n` data, `n..n+p`
    /// parity).
    pub shard_index: u16,
}

impl ShardHeader {
    /// Serialize to the fixed 64-byte wire form (little-endian fields,
    /// trailing CRC-32 over the first 60 bytes).
    pub fn to_bytes(&self) -> [u8; HEADER_LEN] {
        let m = &self.meta;
        let mut b = [0u8; HEADER_LEN];
        b[0..8].copy_from_slice(&MAGIC);
        b[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        b[12..14].copy_from_slice(&m.data_shards.to_le_bytes());
        b[14..16].copy_from_slice(&m.parity_shards.to_le_bytes());
        b[16..18].copy_from_slice(&self.shard_index.to_le_bytes());
        b[18..20].copy_from_slice(&m.codec_id.to_le_bytes());
        b[20..24].copy_from_slice(&m.chunk_size.to_le_bytes());
        b[24..32].copy_from_slice(&m.chunk_count.to_le_bytes());
        b[32..40].copy_from_slice(&m.original_len.to_le_bytes());
        b[40..42].copy_from_slice(&m.group_size.to_le_bytes());
        // b[42..60] reserved, zero
        let crc = crc32(&b[..HEADER_LEN - 4]);
        b[60..64].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// Parse and validate the wire form.
    pub fn from_bytes(b: &[u8; HEADER_LEN]) -> Result<ShardHeader, StreamError> {
        let le16 = |o: usize| u16::from_le_bytes([b[o], b[o + 1]]);
        let le32 = |o: usize| u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]]);
        let le64 = |o: usize| {
            u64::from_le_bytes([
                b[o],
                b[o + 1],
                b[o + 2],
                b[o + 3],
                b[o + 4],
                b[o + 5],
                b[o + 6],
                b[o + 7],
            ])
        };
        if b[0..8] != MAGIC {
            return Err(StreamError::Format("bad magic (not a shard file)".into()));
        }
        let version = le32(8);
        if version != FORMAT_VERSION {
            return Err(StreamError::Format(format!(
                "unsupported format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        if le32(60) != crc32(&b[..HEADER_LEN - 4]) {
            return Err(StreamError::Format("header checksum mismatch".into()));
        }
        let meta = ArchiveMeta {
            data_shards: le16(12),
            parity_shards: le16(14),
            codec_id: le16(18),
            group_size: le16(40),
            chunk_size: le32(20),
            chunk_count: le64(24),
            original_len: le64(32),
        };
        // Typed rejection first: an unknown wire id or an unrealizable
        // family geometry is an `EcError`, not a generic format string.
        meta.codec_spec().map_err(StreamError::Codec)?;
        meta.validate().map_err(StreamError::Format)?;
        let shard_index = le16(16);
        if shard_index as usize >= meta.total_shards() {
            return Err(StreamError::Format(format!(
                "shard index {} out of range for {} total shards",
                shard_index,
                meta.total_shards()
            )));
        }
        Ok(ShardHeader { meta, shard_index })
    }

    /// Read and parse a header from the start of a stream.
    pub fn read_from(r: &mut impl Read) -> Result<ShardHeader, StreamError> {
        let mut b = [0u8; HEADER_LEN];
        r.read_exact(&mut b)?;
        ShardHeader::from_bytes(&b)
    }

    /// Write the wire form.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        w.write_all(&self.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_core::CodecId;

    fn meta() -> ArchiveMeta {
        ArchiveMeta::new(10, 4, 1 << 20, 3 * (1 << 20) + 12345)
    }

    #[test]
    fn header_roundtrips() {
        let h = ShardHeader { meta: meta(), shard_index: 13 };
        let b = h.to_bytes();
        assert_eq!(ShardHeader::from_bytes(&b).unwrap(), h);
    }

    #[test]
    fn any_header_bit_flip_is_detected() {
        let h = ShardHeader { meta: meta(), shard_index: 2 };
        let clean = h.to_bytes();
        for byte in 0..HEADER_LEN {
            let mut b = clean;
            b[byte] ^= 0x40;
            assert!(
                ShardHeader::from_bytes(&b).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn inconsistent_chunk_count_rejected() {
        let mut m = meta();
        m.chunk_count += 1;
        let b = ShardHeader { meta: m, shard_index: 0 }.to_bytes();
        assert!(matches!(
            ShardHeader::from_bytes(&b),
            Err(StreamError::Format(_))
        ));
    }

    #[test]
    fn geometry_is_derivable() {
        // 4 chunks: 3 full, one 12345-byte tail.
        let m = meta();
        assert_eq!(m.chunk_count, 4);
        assert_eq!(m.chunk_data_len(0), 1 << 20);
        assert_eq!(m.chunk_data_len(3), 12345);
        // slice lengths: packet-aligned per-shard splits.
        assert_eq!(m.slice_len(0), slice_len_for(1 << 20, 10, 8) as usize);
        assert_eq!(m.slice_len(3), slice_len_for(12345, 10, 8) as usize);
        assert_eq!(slice_len_for(12345, 10, 8), 1240); // ceil(1234.5)→1235, →8-align 1240
        // Frames plus the hash trailer (4 leaves + 14 roots + object
        // root, CRC'd).
        let trailer = 32 * (4 + 14 + 1) + 4;
        assert_eq!(HashTrailer::wire_len(&m), Some(trailer));
        let frames_end = HEADER_LEN as u64
            + 3 * (slice_len_for(1 << 20, 10, 8) + 4)
            + (1240 + 4);
        assert_eq!(m.shard_file_len(), frames_end + trailer);
        assert_eq!(m.hash_trailer_offset(), frames_end);
    }

    #[test]
    fn hash_trailer_roundtrips_and_rejects_flips() {
        use ec_wire::merkle::leaf_hash;
        let m = ArchiveMeta::new(2, 1, 100, 250); // 3 chunks, 3 shards
        let leaves: Vec<Hash> = (0..3u8).map(|i| leaf_hash(&[i])).collect();
        let own = MerkleTree::from_leaves(leaves.clone()).root();
        let others: Vec<Hash> = (0..3u8).map(|i| leaf_hash(&[i, i])).collect();
        let roots = vec![own, others[1], others[2]];
        let t = HashTrailer::new(leaves, roots);
        assert!(t.self_consistent(0));
        assert!(!t.self_consistent(1));
        let b = t.to_bytes();
        assert_eq!(b.len() as u64, HashTrailer::wire_len(&m).unwrap());
        assert_eq!(HashTrailer::from_bytes(&b, &m).unwrap(), t);
        // Any flipped byte is caught by the trailer CRC.
        for at in [0usize, 33, 95, 100] {
            let mut bad = b.clone();
            bad[at] ^= 0x20;
            assert!(HashTrailer::from_bytes(&bad, &m).is_err(), "flip at {at}");
        }
        // Wrong geometry (length) is a typed refusal, not a misparse.
        assert!(HashTrailer::from_bytes(&b[..b.len() - 1], &m).is_err());
    }

    #[test]
    fn codec_spec_travels_in_the_header() {
        let spec = CodecSpec::lrc(10, 4, 5);
        let m = ArchiveMeta::with_spec(&spec, 1 << 16, 123_456);
        let h = ShardHeader { meta: m, shard_index: 11 };
        let parsed = ShardHeader::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(parsed.meta.codec_spec().unwrap(), spec);
        assert_eq!(parsed.meta.codec_spec().unwrap().name(), "lrc:5");
    }

    #[test]
    fn array_codec_slices_use_the_codec_alignment() {
        // EVENODD(4): prime 5, w = 4 — slices align to 4, not 8.
        let spec = CodecSpec::parse("evenodd", 4, 2).unwrap();
        let m = ArchiveMeta::with_spec(&spec, 100, 250);
        assert_eq!(spec.shard_alignment().unwrap(), 4);
        assert_eq!(m.slice_len(0), 28); // ceil(100/4) = 25 → 4-align 28
        assert_eq!(m.slice_len(2), 16); // tail 50 → ceil(50/4)=13 → 16
        let h = ShardHeader { meta: m, shard_index: 0 };
        assert_eq!(ShardHeader::from_bytes(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn retired_versions_are_refused_by_name() {
        // What an older writer's header looked like, CRC and all: the
        // only thing wrong with it is the version, and the refusal says
        // which one was found and which one is read.
        let h = ShardHeader { meta: meta(), shard_index: 3 };
        for retired in [1u32, 2] {
            let mut b = h.to_bytes();
            b[8..12].copy_from_slice(&retired.to_le_bytes());
            if retired == 1 {
                // Version 1 kept the codec fields reserved-zero.
                b[18..20].copy_from_slice(&[0, 0]);
            }
            let crc = crc32(&b[..HEADER_LEN - 4]);
            b[60..64].copy_from_slice(&crc.to_le_bytes());
            let Err(StreamError::Format(msg)) = ShardHeader::from_bytes(&b) else {
                panic!("version {retired} header was not refused as a format error");
            };
            assert_eq!(
                msg,
                format!("unsupported format version {retired} (this build reads 3)")
            );
        }
    }

    #[test]
    fn unknown_codec_id_is_a_typed_error() {
        let h = ShardHeader { meta: meta(), shard_index: 0 };
        let mut b = h.to_bytes();
        b[18..20].copy_from_slice(&999u16.to_le_bytes());
        let crc = crc32(&b[..HEADER_LEN - 4]);
        b[60..64].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            ShardHeader::from_bytes(&b),
            Err(StreamError::Codec(EcError::UnknownCodec(_)))
        ));
        // A known id with a geometry the family cannot realize (rdp
        // wants exactly two parities) is typed too, never garbage.
        let mut b = h.to_bytes();
        b[18..20].copy_from_slice(&3u16.to_le_bytes());
        let crc = crc32(&b[..HEADER_LEN - 4]);
        b[60..64].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            ShardHeader::from_bytes(&b),
            Err(StreamError::Codec(EcError::InvalidParams(_)))
        ));
    }

    #[test]
    fn empty_archive_geometry() {
        let m = ArchiveMeta::new(4, 2, 4096, 0);
        assert_eq!(m.chunk_count, 0);
        // Header plus a zero-leaf trailer: 6 shard roots + object root.
        assert_eq!(
            m.shard_file_len(),
            HEADER_LEN as u64 + HashTrailer::wire_len(&m).unwrap()
        );
        assert_eq!(HashTrailer::wire_len(&m), Some(32 * 7 + 4));
        let h = ShardHeader { meta: m, shard_index: 5 };
        assert_eq!(ShardHeader::from_bytes(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn hostile_magnitudes_rejected() {
        // Internally consistent but absurd geometry: chunk_count and
        // original_len at u64::MAX with chunk_size 1 (file-length
        // arithmetic would overflow; scans would spin for 2^64 chunks).
        let hostile = ArchiveMeta {
            data_shards: 1,
            parity_shards: 1,
            codec_id: CodecId::Rs.wire(),
            group_size: 0,
            chunk_size: 1,
            chunk_count: u64::MAX,
            original_len: u64::MAX,
        };
        assert!(hostile.validate().is_err());
        // A chunk size beyond the implementation cap (would demand
        // multi-GiB slice buffers from a 64-byte file).
        let huge_chunk = ArchiveMeta::new(1, 1, u32::MAX, 100);
        assert!(huge_chunk.validate().is_err());
        let at_cap = ArchiveMeta::new(1, 1, MAX_CHUNK_SIZE, 100);
        assert!(at_cap.validate().is_ok());
        // And the wire path rejects them too: the serialized header has
        // a *valid* CRC, so only the magnitude check can stop it.
        let b = ShardHeader { meta: hostile, shard_index: 0 }.to_bytes();
        assert!(matches!(ShardHeader::from_bytes(&b), Err(StreamError::Format(_))));
    }

    #[test]
    fn bad_magic_and_version() {
        let h = ShardHeader { meta: meta(), shard_index: 0 };
        let mut b = h.to_bytes();
        b[0] = b'Y';
        assert!(ShardHeader::from_bytes(&b).is_err());
        let mut b = h.to_bytes();
        b[8] = 9; // version 9; refresh the CRC so only the version is bad
        let crc = crc32(&b[..HEADER_LEN - 4]);
        b[60..64].copy_from_slice(&crc.to_le_bytes());
        let err = ShardHeader::from_bytes(&b).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
}
