//! [`StreamDecoder`]: rebuild the original byte stream from whatever
//! shard streams survive, chunk by chunk, in bounded memory.
//!
//! The decoder reads the data frames first: a healthy chunk costs its
//! `n` data frames, and a parity frame is read only when the codec's
//! repair plan names it — for a data shard whose whole stream is gone,
//! or for one frame that failed its check. Every frame is checked on
//! its CRC-32, and, where the archive's hash election vouches for the
//! shard, on its SHA-256 leaf too. The leaf checks are the bulk of the
//! work, and the lane kernel costs the same whether one lane or sixteen
//! are occupied, so the walk reads ahead across chunks and settles the
//! checks [`LEAF_BATCH`] frames to a call. Its unsettled frames never
//! exceed one lane batch plus one chunk.

use ec_wire::{crc32, write_gathered};
use ec_wire::merkle::{leaf_hashes_into, Hash, LEAF_BATCH};
use crate::error::StreamError;
use crate::format::{ArchiveMeta, FRAME_TRAILER_LEN};
use ec_core::{EcError, ErasureCoder, XorCodec};
use std::collections::VecDeque;
use std::io::{Read, Seek, Write};

/// What the walk knows of one frame of a chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    /// Not read: not asked for, or its source is gone.
    Unread,
    /// Read and CRC-good; its trusted leaf is still to be checked.
    Unsettled,
    /// Read, and passed every check it has.
    Good,
    /// A short read, a CRC mismatch or a leaf mismatch.
    Bad,
}

/// The frames the walk read of one chunk, each with its verdict.
pub(crate) struct ChunkFrames {
    chunk: u64,
    /// Per-shard payload; meaningful only where [`ChunkFrames::good`].
    pub slices: Vec<Vec<u8>>,
    verdict: Vec<Verdict>,
}

impl ChunkFrames {
    /// True iff shard `i`'s frame was read and passed every check.
    pub fn good(&self, i: usize) -> bool {
        self.verdict[i] == Verdict::Good
    }

    /// Number of this chunk's frames that passed every check.
    pub fn good_count(&self) -> usize {
        self.verdict.iter().filter(|&&v| v == Verdict::Good).count()
    }

    fn unsettled(&self) -> usize {
        self.verdict.iter().filter(|&&v| v == Verdict::Unsettled).count()
    }

    /// Refill the `which` slots of a reusable `Option<Vec<u8>>` shard
    /// set from this chunk: good slices are copied into slots (reusing
    /// slot/spare capacity), the others become `None` with their buffer
    /// parked in `spare`. Keeps the erasure-decoding path free of
    /// per-chunk slice allocations across a long archive walk.
    fn refill(
        &self,
        shards: &mut [Option<Vec<u8>>],
        spare: &mut Vec<Vec<u8>>,
        which: impl IntoIterator<Item = usize>,
    ) {
        for i in which {
            let slot = &mut shards[i];
            if self.good(i) {
                let mut v = slot.take().or_else(|| spare.pop()).unwrap_or_default();
                v.clear();
                v.extend_from_slice(&self.slices[i]);
                *slot = Some(v);
            } else if let Some(v) = slot.take() {
                spare.push(v);
            }
        }
    }
}

/// Chunk-wise frame reader over a set of shard sources, shared by
/// extraction, scrub and repair.
///
/// [`ChunkScanner::next_chunk`] hands out the chunks in order. Before it
/// does, it reads ahead: each chunk's frames (the ones the caller's
/// `want` names) go into that chunk's own entry, each CRC-good frame of
/// a shard with trusted leaves waits there for its leaf check, and the
/// waiting checks are settled [`LEAF_BATCH`] at a time, oldest first,
/// across chunk boundaries. A chunk is handed out only once every frame
/// it read has its verdict. A chunk is read ahead only while fewer than
/// a lane batch are unsettled, so those never exceed one lane batch plus
/// one chunk, and with the chunk handed out the walk holds at most a
/// lane batch and two chunks of frames. [`ChunkScanner::fetch`] reads more
/// frames of the chunk handed out and settles them at once; a frame the
/// entry already holds is answered from there, and a source that has
/// read ahead of the chunk seeks back for it.
///
/// A source skips forward over the frames it is not asked for, so a
/// skipped frame is never read. A source that fails to produce a full
/// frame (truncation, I/O error) is dropped for good — its framing is
/// lost — while a CRC or leaf mismatch only condemns that one frame.
pub(crate) struct ChunkScanner<R: Read + Seek> {
    meta: ArchiveMeta,
    sources: Vec<Option<R>>,
    /// Per-shard byte offset, from the shard's first frame, that its
    /// source is positioned at.
    at: Vec<i64>,
    /// Per-shard trusted leaf hashes (from an elected hash trailer).
    /// When present for a shard, each frame must *also* hash to its
    /// leaf — catching CRC-preserving tampering the checksum walk
    /// cannot.
    trusted: Vec<Option<Vec<Hash>>>,
    /// The chunks read and not yet retired, oldest first. Between
    /// [`ChunkScanner::next_chunk`] calls, the front one is the chunk
    /// last handed out.
    window: VecDeque<ChunkFrames>,
    /// The next chunk to read ahead.
    next: u64,
    /// Retired entries, kept for their buffers.
    free: Vec<ChunkFrames>,
    /// Shard buffers parked between [`ChunkScanner::rebuild`] calls.
    spare: Vec<Vec<u8>>,
    /// Frame bytes read so far (a failed read counts its whole frame).
    bytes_read: u64,
    /// `leaf_hashes_into` calls made.
    #[cfg(test)]
    lane_calls: usize,
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
            window: VecDeque::new(),
            next: 0,
            free: Vec::new(),
            spare: Vec::new(),
            bytes_read: 0,
            #[cfg(test)]
            lane_calls: 0,
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

    /// Frame bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Retire the chunk handed out last and hand out the next one, or
    /// `None` past the last chunk. `want(live)` names the shards whose
    /// frames to read of each chunk read ahead, given which sources are
    /// still live; it is asked again whenever a source drops while the
    /// chunk is read.
    pub fn next_chunk(&mut self, want: &mut impl FnMut(&[bool]) -> Vec<usize>) -> Option<u64> {
        if let Some(done) = self.window.pop_front() {
            self.free.push(done);
        }
        let end = self.meta.chunk_count;
        loop {
            match self.window.front() {
                Some(front) if front.unsettled() == 0 => return Some(front.chunk),
                None if self.next == end => return None,
                _ => {}
            }
            let unsettled: usize = self.window.iter().map(ChunkFrames::unsettled).sum();
            if unsettled >= LEAF_BATCH || self.next == end {
                self.settle();
            } else {
                self.read_ahead(want);
            }
        }
    }

    /// The frames of the chunk handed out last.
    pub fn chunk(&self) -> &ChunkFrames {
        self.window.front().expect("a chunk handed out")
    }

    /// Read the chunk handed out last's frame from each of `shards` that
    /// it does not hold yet and whose source is live, and settle them:
    /// the lane call they go to is filled with the oldest frames read
    /// ahead.
    pub fn fetch(&mut self, shards: &[usize]) {
        self.read(0, shards);
        while self.chunk().unsettled() > 0 {
            self.settle();
        }
    }

    /// Rebuild the `lost` shards of the chunk handed out last into
    /// `shards` through the codec's repair loop
    /// ([`XorCodec::reconstruct_from`]): every slot is refilled from this
    /// chunk — a slice of another chunk must not satisfy the plan — and
    /// the frames the loop asks for are fetched.
    pub fn rebuild(
        &mut self,
        codec: &XorCodec,
        shards: &mut [Option<Vec<u8>>],
        lost: &[usize],
    ) -> Result<(), EcError> {
        let mut spare = std::mem::take(&mut self.spare);
        self.chunk().refill(shards, &mut spare, 0..shards.len());
        let rebuilt = codec.reconstruct_from(shards, lost, |want, shards| {
            self.fetch(want);
            self.chunk().refill(shards, &mut spare, want.iter().copied());
        });
        self.spare = spare;
        rebuilt
    }

    /// Read chunk `next` into a new entry at the back of the window.
    fn read_ahead(&mut self, want: &mut impl FnMut(&[bool]) -> Vec<usize>) {
        let t = self.meta.total_shards();
        let mut entry = self.free.pop().unwrap_or_else(|| ChunkFrames {
            chunk: 0,
            slices: vec![Vec::new(); t],
            verdict: vec![Verdict::Unread; t],
        });
        entry.chunk = self.next;
        entry.verdict.fill(Verdict::Unread);
        self.next += 1;
        self.window.push_back(entry);
        let back = self.window.len() - 1;
        loop {
            let live: Vec<bool> = self.sources.iter().map(Option::is_some).collect();
            self.read(back, &want(&live));
            if self.sources.iter().map(Option::is_some).eq(live) {
                break;
            }
        }
    }

    /// Read window entry `w`'s frame from each of `shards` it has not
    /// read whose source is live. A CRC-good frame with a trusted leaf
    /// is left unsettled.
    fn read(&mut self, w: usize, shards: &[usize]) {
        let entry = &mut self.window[w];
        let c = entry.chunk;
        let slen = self.meta.slice_len(c);
        let frame = (slen + FRAME_TRAILER_LEN) as i64;
        // Every frame before the last is full length.
        let full = (self.meta.slice_len(0) + FRAME_TRAILER_LEN) as i64;
        let offset = i64::try_from(c).ok().and_then(|c| c.checked_mul(full));
        for &i in shards {
            if entry.verdict[i] != Verdict::Unread {
                continue;
            }
            let Some(src) = &mut self.sources[i] else { continue };
            self.bytes_read += frame as u64;
            // Payload and CRC trailer in one read call, then the trailer
            // is cut off.
            let slice = &mut entry.slices[i];
            slice.resize(slen + FRAME_TRAILER_LEN, 0);
            let skip = offset.map(|o| o - self.at[i]);
            let ok = skip.is_some_and(|s| s == 0 || src.seek_relative(s).is_ok())
                && src.read_exact(slice).is_ok();
            let crc = u32::from_le_bytes(slice[slen..].try_into().expect("4-byte trailer"));
            slice.truncate(slen);
            entry.verdict[i] = if !ok {
                // Short read: this source's framing is gone; drop it.
                self.sources[i] = None;
                Verdict::Bad
            } else {
                self.at[i] = offset.expect("read at a known offset") + frame;
                if crc != crc32(slice) {
                    Verdict::Bad
                } else if self.trusted[i].is_some() {
                    Verdict::Unsettled
                } else {
                    Verdict::Good
                }
            };
        }
    }

    /// Settle the oldest unsettled frames, up to [`LEAF_BATCH`] of them,
    /// in one [`leaf_hashes_into`] call.
    fn settle(&mut self) {
        let mut picked = [(0usize, 0usize); LEAF_BATCH];
        let mut count = 0;
        'gather: for (w, entry) in self.window.iter().enumerate() {
            for (i, &v) in entry.verdict.iter().enumerate() {
                if v == Verdict::Unsettled {
                    picked[count] = (w, i);
                    count += 1;
                    if count == LEAF_BATCH {
                        break 'gather;
                    }
                }
            }
        }
        let mut staged: [&[u8]; LEAF_BATCH] = [&[]; LEAF_BATCH];
        for (slot, &(w, i)) in staged.iter_mut().zip(&picked[..count]) {
            *slot = &self.window[w].slices[i];
        }
        let mut hashes = [Hash::default(); LEAF_BATCH];
        leaf_hashes_into(&staged[..count], &mut hashes[..count]);
        #[cfg(test)]
        {
            self.lane_calls += 1;
        }
        for (&(w, i), hash) in picked[..count].iter().zip(&hashes) {
            let entry = &mut self.window[w];
            let leaves = self.trusted[i].as_ref().expect("unsettled only with trusted leaves");
            entry.verdict[i] = if leaves.get(entry.chunk as usize) == Some(hash) {
                Verdict::Good
            } else {
                Verdict::Bad
            };
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
    /// Frame bytes read from the shard sources, in the sense of
    /// `RepairReport::bytes_read`: `n` frames a chunk when every data
    /// frame is intact, plus what a repair plan reads where one is not.
    pub bytes_read: u64,
    /// True iff every frame that fed the output was verified against
    /// the archive's Merkle leaves (the trailers elected a root vector
    /// and every serving shard matched it); false means CRC-only —
    /// bit-rot evidence, not tamper evidence.
    pub hash_verified: bool,
}

/// A chunked streaming decoder over `n + p` shard sources.
///
/// The dual of [`crate::StreamEncoder`]. It reads the data frames of
/// every chunk, verifies each payload against its CRC-32 (and its
/// trusted leaf, where armed), and writes the original bytes out; a
/// parity frame is read only for a repair plan. Leaf checks are settled
/// in full lane batches across chunks; the unsettled frames never exceed
/// one lane batch plus one chunk, so memory stays `O(chunk × (n + p))`. An intact chunk costs its checks and a copy; a
/// chunk with a missing or corrupt data slice is rebuilt by the codec's
/// repair loop, which reads what the plan names.
pub struct StreamDecoder<'c, R: Read + Seek> {
    codec: &'c dyn ErasureCoder,
    scanner: ChunkScanner<R>,
    /// Reusable shard set for the degraded path.
    shards: Vec<Option<Vec<u8>>>,
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
    /// Fails with [`StreamError::TooDamaged`] if some chunk's data cannot
    /// be rebuilt from its surviving frames: more than `p` of its `n + p`
    /// frames missing or corrupt.
    pub fn pump(&mut self, out: &mut impl Write) -> Result<ExtractReport, StreamError> {
        let StreamDecoder { codec, scanner, shards } = self;
        let meta = scanner.meta;
        let n = meta.data_shards as usize;
        let t = meta.total_shards();
        let mut report = ExtractReport {
            chunks: meta.chunk_count,
            // Decided up front, while every source that will serve
            // frames is still live.
            hash_verified: scanner.fully_trusted(),
            ..Default::default()
        };
        // The data frames of the live sources, and once a data source is
        // gone, the parity its repair plan reads: those frames are wanted
        // in every chunk from then on, so they join the lane batches.
        let mut want = |live: &[bool]| -> Vec<usize> {
            let (mut wanted, dead): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| live[i]);
            if !dead.is_empty() {
                // No plan: every surviving frame decides what to report.
                let plan = codec.repair_sources(&dead).unwrap_or_else(|_| (n..t).collect());
                wanted.extend(plan.into_iter().filter(|&i| i >= n));
            }
            wanted
        };
        while let Some(c) = scanner.next_chunk(&mut want) {
            let data_len = meta.chunk_data_len(c);
            let lost: Vec<usize> = (0..n).filter(|&i| !scanner.chunk().good(i)).collect();
            if !lost.is_empty() {
                match scanner.rebuild(codec, shards, &lost) {
                    Err(e @ (EcError::TooManyErasures { .. } | EcError::SingularPattern { .. })) => {
                        // Judge the chunk by all its frames, not only the
                        // ones the plan got to read.
                        let all: Vec<usize> = (0..t).collect();
                        scanner.fetch(&all);
                        let missing = t - scanner.chunk().good_count();
                        let parity = meta.parity_shards as usize;
                        return Err(if missing > parity {
                            StreamError::TooDamaged { chunk: c, missing, parity }
                        } else {
                            e.into()
                        });
                    }
                    rebuilt => rebuilt?,
                }
                report.chunks_repaired += 1;
            }
            let frames = scanner.chunk();
            let mut remaining = data_len;
            let mut parts = Vec::with_capacity(n);
            for (i, slot) in shards.iter().enumerate().take(n) {
                let slice = if frames.good(i) {
                    &frames.slices[i][..]
                } else {
                    slot.as_deref().expect("rebuilt above")
                };
                let take = remaining.min(slice.len());
                parts.push(&slice[..take]);
                remaining -= take;
            }
            // One gathered write a chunk: on a file, `n` writes of a
            // slice each cost twice as much as one of the whole chunk.
            write_gathered(out, &parts, &mut 0)?;
            report.bytes_written += data_len as u64;
        }
        report.bytes_read = scanner.bytes_read();
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

    /// Shard `i`'s trusted leaves: the leaf hash of each frame payload.
    fn leaves(meta: &ArchiveMeta, file: &[u8]) -> Vec<Hash> {
        let full = meta.slice_len(0) + FRAME_TRAILER_LEN;
        (0..meta.chunk_count)
            .map(|c| {
                let at = HEADER_LEN + c as usize * full;
                ec_wire::merkle::leaf_hash(&file[at..at + meta.slice_len(c)])
            })
            .collect()
    }

    /// Byte offset of chunk `c`'s payload in a shard file.
    fn payload_at(meta: &ArchiveMeta, c: u64) -> usize {
        HEADER_LEN + c as usize * (meta.slice_len(0) + FRAME_TRAILER_LEN)
    }

    #[test]
    fn a_plan_frame_behind_the_lookahead_is_answered_from_its_own_chunk() {
        let codec = rs(4, 2);
        let data = sample(6 * 2048);
        let (meta, mut files) = encode(&*codec, 2048, &data);
        assert_eq!(meta.chunk_count, 6);
        assert_eq!(codec.repair_sources(&[0]).unwrap(), vec![1, 2, 3, 4]);
        // Shard 4 is in the plan for the lost shard 0 and has no trusted
        // leaves, so its frames settle on their CRCs at once while the
        // others wait for a lane batch: its source runs ahead of the
        // chunk being decoded. Its chunk-1 frame is rotten.
        files[4][payload_at(&meta, 1) + 3] ^= 0x01;
        let mut dec = StreamDecoder::new(&*codec, meta, sources(&files, &[0])).unwrap();
        for i in [1, 2, 3, 5] {
            dec.set_trusted_leaves(i, leaves(&meta, &files[i]));
        }
        let mut out = Vec::new();
        let rep = dec.pump(&mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(rep.chunks_repaired, 6);
        // Four frames a chunk, and chunk 1 widens to shard 5.
        let frame = (meta.slice_len(0) + FRAME_TRAILER_LEN) as u64;
        assert_eq!(rep.bytes_read, (6 * 4 + 1) * frame);
    }

    #[test]
    fn a_source_that_read_past_a_chunk_seeks_back_for_it() {
        let codec = rs(4, 2);
        let data = sample(6 * 2048);
        let (meta, mut files) = encode(&*codec, 2048, &data);
        let trusted: Vec<Vec<Hash>> = files.iter().map(|f| leaves(&meta, f)).collect();
        // Shard 1 ends after three frames; from chunk 3 on the walk reads
        // the plan for it, parity 4, ahead of the chunks it hands out.
        // Shard 2's chunk-1 frame is rotten, so chunk 1 then needs parity
        // 4 too, whose source is already past chunk 3. Shard 5 is gone,
        // so nothing else can stand in, and shard 4 has no trusted
        // leaves: a frame of the wrong chunk would pass its CRC.
        files[1].truncate(payload_at(&meta, 3));
        files[2][payload_at(&meta, 1) + 7] ^= 0x40;
        let mut dec = StreamDecoder::new(&*codec, meta, sources(&files, &[5])).unwrap();
        for i in [0, 1, 2, 3] {
            dec.set_trusted_leaves(i, trusted[i].clone());
        }
        let mut out = Vec::new();
        let rep = dec.pump(&mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(rep.chunks_repaired, 4);
        // Four frames a chunk, shard 1's failed read at chunk 3, and
        // parity 4 read back for chunk 1.
        let frame = (meta.slice_len(0) + FRAME_TRAILER_LEN) as u64;
        assert_eq!(rep.bytes_read, (6 * 4 + 1 + 1) * frame);
    }

    #[test]
    fn a_healthy_walk_fills_its_lane_calls_across_chunks() {
        // RS(10, 4) over eight chunks: 80 data frames in five full calls
        // of sixteen, not one call per chunk.
        let codec = rs(10, 4);
        let data = sample(8 * 10 * 512);
        let (meta, files) = encode(&*codec, 10 * 512, &data);
        let mut scanner = ChunkScanner::new(meta, sources(&files, &[]));
        for (i, file) in files.iter().enumerate() {
            scanner.set_trusted_leaves(i, leaves(&meta, file));
        }
        let mut held = 0;
        while scanner.next_chunk(&mut |_| (0..10).collect()).is_some() {
            assert_eq!(scanner.chunk().good_count(), 10);
            let read = scanner.window.iter().flat_map(|e| &e.verdict);
            held = held.max(read.filter(|&&v| v != Verdict::Unread).count());
        }
        assert_eq!(scanner.lane_calls, 5);
        assert_eq!(scanner.bytes_read(), 80 * (512 + FRAME_TRAILER_LEN) as u64);
        // Fewer than one lane batch of unsettled frames when a chunk is
        // read ahead, that chunk, and the settled part of the oldest one.
        assert!(held <= LEAF_BATCH + 2 * 10 - 2, "held {held} frames");
    }
}
