//! [`StreamDecoder`]: rebuild the original byte stream from whatever
//! shard streams survive, chunk by chunk, in bounded memory.

use ec_wire::crc32;
use ec_wire::merkle::{leaf_hashes_into, Hash, LEAF_BATCH};
use crate::error::StreamError;
use crate::format::{ArchiveMeta, FRAME_TRAILER_LEN};
use ec_core::ErasureCoder;
use std::io::{Read, Seek, Write};

/// Chunk-wise frame reader over a set of shard sources, shared by
/// extraction, scrub and repair.
///
/// [`ChunkScanner::fetch`] reads one chunk's frame from the asked
/// shards into the reusable `slices` buffers and records per-shard
/// integrity in `good`; a source seeks forward over the frames it was
/// not asked for, so a skipped frame is never read. A source that fails
/// to produce a full frame (truncation, I/O error) is dropped for good —
/// its framing is lost — while a CRC mismatch only poisons the current
/// chunk.
pub(crate) struct ChunkScanner<R: Read + Seek> {
    meta: ArchiveMeta,
    sources: Vec<Option<R>>,
    /// Per-shard chunk index of the frame its source is positioned at.
    at: Vec<u64>,
    /// Per-shard trusted leaf hashes (from an elected hash trailer).
    /// When present for a shard, each frame must *also* hash to its
    /// leaf — catching CRC-preserving tampering the checksum walk
    /// cannot.
    trusted: Vec<Option<Vec<Hash>>>,
    /// Per-shard payload of the chunk last read (valid iff `good`).
    pub slices: Vec<Vec<u8>>,
    /// Per-shard integrity of the chunk last read.
    pub good: Vec<bool>,
}

impl<R: Read + Seek> ChunkScanner<R> {
    /// `sources[i]` must be positioned at shard `i`'s first frame (just
    /// past the header), or `None` when the shard is unavailable.
    pub fn new(meta: ArchiveMeta, sources: Vec<Option<R>>) -> ChunkScanner<R> {
        let t = meta.total_shards();
        assert_eq!(sources.len(), t, "one source slot per shard");
        ChunkScanner {
            meta,
            sources,
            at: vec![0; t],
            trusted: vec![None; t],
            slices: vec![Vec::new(); t],
            good: vec![false; t],
        }
    }

    /// Arm per-frame hash verification for shard `i` with its trusted
    /// leaf vector (one hash per chunk, authenticated against the
    /// elected root before being handed here).
    pub fn set_trusted_leaves(&mut self, i: usize, leaves: Vec<Hash>) {
        self.trusted[i] = Some(leaves);
    }

    /// True iff every live source is hash-verified (has trusted leaves)
    /// and at least one source is live — i.e. everything this scanner
    /// will read is covered by the Merkle layer, not just CRC-32.
    pub fn fully_trusted(&self) -> bool {
        let mut any = false;
        for (src, t) in self.sources.iter().zip(&self.trusted) {
            if src.is_some() {
                any = true;
                if t.is_none() {
                    return false;
                }
            }
        }
        any
    }

    /// Start chunk `chunk`: clear every shard's `good`, then
    /// [`ChunkScanner::fetch`] `shards`. Chunks must be started in
    /// order (`0, 1, 2, …`) — sources only seek forward.
    pub fn read_chunk(&mut self, chunk: u64, shards: &[usize]) -> usize {
        self.good.fill(false);
        self.fetch(chunk, shards)
    }

    /// Read chunk `chunk`'s frame from each of `shards` whose source is
    /// live and has not read it yet; returns the number of frames read.
    pub fn fetch(&mut self, chunk: u64, shards: &[usize]) -> usize {
        let slen = self.meta.slice_len(chunk);
        // Only the last chunk is short, and a skip never crosses it.
        let frame = (self.meta.slice_len(0) + FRAME_TRAILER_LEN) as u64;
        let mut trailer = [0u8; FRAME_TRAILER_LEN];
        let mut read = 0;
        for &i in shards {
            let Some(src) = &mut self.sources[i] else { continue };
            let Some(behind) = chunk.checked_sub(self.at[i]) else { continue };
            read += 1;
            self.slices[i].resize(slen, 0);
            let skip = behind.checked_mul(frame).and_then(|b| i64::try_from(b).ok());
            let ok = skip.is_some_and(|b| b == 0 || src.seek_relative(b).is_ok())
                && src.read_exact(&mut self.slices[i]).is_ok()
                && src.read_exact(&mut trailer).is_ok();
            if !ok {
                // Short read: this source's framing is gone; drop it.
                self.sources[i] = None;
                continue;
            }
            self.at[i] = chunk + 1;
            self.good[i] = u32::from_le_bytes(trailer) == crc32(&self.slices[i]);
        }
        // Then the leaf check of every CRC-good frame that has a trusted
        // leaf, hashed together: the frames of a chunk are equally long.
        // They are staged a kernel call's worth at a time because the
        // frames to skip can sit anywhere among the shards.
        let mut shard = [0usize; LEAF_BATCH];
        let mut staged: [&[u8]; LEAF_BATCH] = [&[]; LEAF_BATCH];
        let mut hashes = [Hash::default(); LEAF_BATCH];
        let mut next = 0;
        while next < shards.len() {
            let mut count = 0;
            while next < shards.len() && count < LEAF_BATCH {
                let i = shards[next];
                if self.good[i] && self.trusted[i].is_some() {
                    (shard[count], staged[count]) = (i, &self.slices[i]);
                    count += 1;
                }
                next += 1;
            }
            leaf_hashes_into(&staged[..count], &mut hashes[..count]);
            for (&i, hash) in shard[..count].iter().zip(&hashes) {
                let leaves = self.trusted[i].as_ref().expect("staged only with trusted leaves");
                self.good[i] = leaves.get(chunk as usize) == Some(hash);
            }
        }
        read
    }

    /// Number of shards whose current-chunk frame passed its CRC.
    pub fn good_count(&self) -> usize {
        self.good.iter().filter(|&&g| g).count()
    }
}

/// Refill the `which` slots of a reusable `Option<Vec<u8>>` shard set
/// from a scanner's chunk: good slices are copied into slots (reusing
/// slot/spare capacity), bad slots become `None` with their buffer
/// parked in `spare`. Keeps the degraded (erasure-decoding) path free of
/// per-chunk slice allocations across a long archive walk.
pub(crate) fn refill_shards(
    shards: &mut [Option<Vec<u8>>],
    spare: &mut Vec<Vec<u8>>,
    slices: &[Vec<u8>],
    good: &[bool],
    which: impl IntoIterator<Item = usize>,
) {
    for i in which {
        let slot = &mut shards[i];
        if good[i] {
            let mut v = slot.take().or_else(|| spare.pop()).unwrap_or_default();
            v.clear();
            v.extend_from_slice(&slices[i]);
            *slot = Some(v);
        } else if let Some(v) = slot.take() {
            spare.push(v);
        }
    }
}

/// Statistics of one extraction pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExtractReport {
    /// Chunks processed (the archive's chunk count).
    pub chunks: u64,
    /// Chunks that needed erasure decoding (some data slice was missing
    /// or failed its CRC).
    pub chunks_repaired: u64,
    /// Original-data bytes written out.
    pub bytes_written: u64,
    /// True iff every frame that fed the output was verified against
    /// the archive's Merkle leaves (the trailers elected a root vector
    /// and every serving shard matched it); false means CRC-only —
    /// bit-rot evidence, not tamper evidence.
    pub hash_verified: bool,
}

/// A chunked streaming decoder over `n + p` shard sources.
///
/// The dual of [`crate::StreamEncoder`]: reads one frame per shard per
/// chunk, verifies each payload against its CRC-32, and writes the
/// original bytes out. Intact chunks cost a CRC scan and a copy; a chunk
/// with missing or corrupt data slices is erasure-decoded from any `n`
/// surviving slices. Memory stays `O(chunk × (n + p))`.
pub struct StreamDecoder<'c, R: Read + Seek> {
    codec: &'c dyn ErasureCoder,
    scanner: ChunkScanner<R>,
    /// Reusable shard set + parked buffers for the degraded path.
    shards: Vec<Option<Vec<u8>>>,
    spare: Vec<Vec<u8>>,
}

impl<'c, R: Read + Seek> StreamDecoder<'c, R> {
    /// `sources[i]` must be positioned at shard `i`'s first frame (just
    /// past the header), or `None` for a lost shard. The codec's full
    /// spec — family, geometry, group size — must match the metadata's;
    /// a shape-compatible but different codec would decode garbage, so
    /// the comparison is exact.
    pub fn new(
        codec: &'c dyn ErasureCoder,
        meta: ArchiveMeta,
        sources: Vec<Option<R>>,
    ) -> Result<StreamDecoder<'c, R>, StreamError> {
        let archive_spec = meta.codec_spec().map_err(StreamError::Codec)?;
        if codec.spec() != archive_spec {
            return Err(StreamError::Format(format!(
                "codec {}({}, {}) does not match archive {}({}, {})",
                codec.spec().name(),
                codec.data_shards(),
                codec.parity_shards(),
                archive_spec.name(),
                meta.data_shards,
                meta.parity_shards
            )));
        }
        if sources.len() != meta.total_shards() {
            return Err(StreamError::Format(format!(
                "need one source slot per shard: {} shards, {} sources",
                meta.total_shards(),
                sources.len()
            )));
        }
        let t = meta.total_shards();
        Ok(StreamDecoder {
            codec,
            scanner: ChunkScanner::new(meta, sources),
            shards: vec![None; t],
            spare: Vec::new(),
        })
    }

    /// Arm per-frame Merkle verification for shard `i` (see
    /// `ChunkScanner::set_trusted_leaves`). Frames that fail their
    /// leaf hash are treated exactly like CRC failures: the chunk is
    /// erasure-decoded around them.
    pub fn set_trusted_leaves(&mut self, i: usize, leaves: Vec<Hash>) {
        self.scanner.set_trusted_leaves(i, leaves);
    }

    /// Decode the whole stream into `out`.
    ///
    /// Fails with [`StreamError::TooDamaged`] if any chunk has more than
    /// `p` missing/corrupt slices.
    pub fn pump(&mut self, out: &mut impl Write) -> Result<ExtractReport, StreamError> {
        let meta = self.scanner.meta;
        let n = meta.data_shards as usize;
        let p = meta.parity_shards as usize;
        let mut report = ExtractReport {
            chunks: meta.chunk_count,
            // Decided up front, while every source that will serve
            // frames is still live.
            hash_verified: self.scanner.fully_trusted(),
            ..Default::default()
        };
        let all: Vec<usize> = (0..meta.total_shards()).collect();
        for c in 0..meta.chunk_count {
            self.scanner.read_chunk(c, &all);
            let data_len = meta.chunk_data_len(c);
            if self.scanner.good[..n].iter().all(|&g| g) {
                // Fast path: every data slice intact — stitch and go.
                let mut remaining = data_len;
                for slice in &self.scanner.slices[..n] {
                    let take = remaining.min(slice.len());
                    out.write_all(&slice[..take])?;
                    remaining -= take;
                }
            } else {
                let missing = meta.total_shards() - self.scanner.good_count();
                if missing > p {
                    return Err(StreamError::TooDamaged {
                        chunk: c,
                        missing,
                        parity: p,
                    });
                }
                refill_shards(
                    &mut self.shards,
                    &mut self.spare,
                    &self.scanner.slices,
                    &self.scanner.good,
                    0..all.len(),
                );
                out.write_all(&self.codec.decode(&self.shards, data_len)?)?;
                report.chunks_repaired += 1;
            }
            report.bytes_written += data_len as u64;
        }
        out.flush()?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::StreamEncoder;
    use crate::format::HEADER_LEN;
    use ec_core::{codec_for, CodecSpec};
    use std::io::Cursor;

    fn rs(n: usize, p: usize) -> Box<dyn ErasureCoder> {
        codec_for(&CodecSpec::rs(n, p)).unwrap()
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 89 + 17 + i / 11) as u8).collect()
    }

    fn encode(codec: &dyn ErasureCoder, chunk: usize, data: &[u8]) -> (ArchiveMeta, Vec<Vec<u8>>) {
        let sinks: Vec<Cursor<Vec<u8>>> =
            (0..codec.total_shards()).map(|_| Cursor::new(Vec::new())).collect();
        let mut enc = StreamEncoder::new(codec, chunk, sinks).unwrap();
        enc.write_all(data).unwrap();
        let (meta, sinks) = enc.finalize().unwrap();
        (meta, sinks.into_iter().map(Cursor::into_inner).collect())
    }

    fn sources(files: &[Vec<u8>], drop: &[usize]) -> Vec<Option<Cursor<Vec<u8>>>> {
        files
            .iter()
            .enumerate()
            .map(|(i, f)| {
                (!drop.contains(&i)).then(|| {
                    let mut c = Cursor::new(f.clone());
                    c.set_position(HEADER_LEN as u64);
                    c
                })
            })
            .collect()
    }

    #[test]
    fn roundtrip_with_losses_and_flips() {
        let codec = rs(4, 2);
        let data = sample(4 * 512 * 3 + 200);
        let (meta, mut files) = encode(&*codec, 4 * 512, &data);

        // Clean roundtrip.
        let mut dec = StreamDecoder::new(&*codec, meta, sources(&files, &[])).unwrap();
        let mut out = Vec::new();
        let rep = dec.pump(&mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(rep.chunks_repaired, 0);
        assert_eq!(rep.bytes_written, data.len() as u64);

        // Two lost shard streams (p = 2).
        let mut dec = StreamDecoder::new(&*codec, meta, sources(&files, &[0, 5])).unwrap();
        let mut out = Vec::new();
        let rep = dec.pump(&mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(rep.chunks_repaired, meta.chunk_count);

        // One lost stream plus a bit flip in another: still within p,
        // only the flipped chunk pays the decode.
        files[2][HEADER_LEN + 10] ^= 0x80; // chunk 0 payload of shard 2
        let mut dec = StreamDecoder::new(&*codec, meta, sources(&files, &[4])).unwrap();
        let mut out = Vec::new();
        let rep = dec.pump(&mut out).unwrap();
        assert_eq!(out, data);
        assert!(rep.chunks_repaired >= 1);
    }

    #[test]
    fn too_much_damage_is_typed() {
        let codec = rs(4, 2);
        let data = sample(4096);
        let (meta, files) = encode(&*codec, 1024, &data);
        let mut dec =
            StreamDecoder::new(&*codec, meta, sources(&files, &[0, 1, 2])).unwrap();
        match dec.pump(&mut Vec::new()) {
            Err(StreamError::TooDamaged { chunk: 0, missing: 3, parity: 2 }) => {}
            other => panic!("expected TooDamaged, got {other:?}"),
        }
    }

    #[test]
    fn truncated_source_is_dropped_midstream() {
        let codec = rs(3, 2);
        let data = sample(3 * 800);
        let (meta, mut files) = encode(&*codec, 600, &data);
        assert_eq!(meta.chunk_count, 4);
        // Cut shard 1 off after two chunks: its first chunks still serve,
        // later chunks decode without it.
        let keep = HEADER_LEN + 2 * (meta.slice_len(0) + FRAME_TRAILER_LEN);
        files[1].truncate(keep);
        let mut dec = StreamDecoder::new(&*codec, meta, sources(&files, &[])).unwrap();
        let mut out = Vec::new();
        let rep = dec.pump(&mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(rep.chunks_repaired, 2);
    }

    #[test]
    fn mismatched_codec_rejected() {
        let codec = rs(5, 2);
        let meta = ArchiveMeta::new(4, 2, 1024, 100);
        let srcs: Vec<Option<Cursor<Vec<u8>>>> = (0..6).map(|_| None).collect();
        assert!(matches!(
            StreamDecoder::new(&*codec, meta, srcs),
            Err(StreamError::Format(_))
        ));
        // Same (n, p) but a different family: shape-compatible, still a
        // typed refusal — decoding with the wrong matrix yields garbage.
        let codec = rs(10, 4);
        let meta = ArchiveMeta::with_spec(&CodecSpec::lrc(10, 4, 5), 1024, 100);
        let srcs: Vec<Option<Cursor<Vec<u8>>>> = (0..14).map(|_| None).collect();
        assert!(matches!(
            StreamDecoder::new(&*codec, meta, srcs),
            Err(StreamError::Format(_))
        ));
    }

    #[test]
    fn lrc_stream_roundtrips_with_losses() {
        let codec = codec_for(&CodecSpec::lrc(4, 3, 2)).unwrap();
        let data = sample(4 * 300 + 77);
        let (meta, files) = encode(&*codec, 600, &data);
        assert_eq!(meta.codec_spec().unwrap(), CodecSpec::lrc(4, 3, 2));
        // Lose one shard per group plus a global: recoverable for this
        // LRC, exercised through the trait object end-to-end.
        let mut dec = StreamDecoder::new(&*codec, meta, sources(&files, &[0, 3, 6])).unwrap();
        let mut out = Vec::new();
        dec.pump(&mut out).unwrap();
        assert_eq!(out, data);
    }
}
