//! [`StreamEncoder`]: pump any byte stream through the codec in
//! fixed-size chunks, writing `n + p` framed shard files.
//!
//! Memory is bounded by `O(chunk × (n + p))` — one staging buffer of
//! `chunk_size` bytes plus `n + p` shard-slice buffers of
//! `chunk_size / n` bytes each — never by the stream length. Chunk
//! encodes go through [`ec_core::XorCodec::encode_into`], so the
//! steady-state loop reuses every buffer and (with `parallelism = 1`)
//! allocates nothing per chunk; at `parallelism > 1` each chunk's XOR
//! program is striped across the shared worker pool.

use crate::error::StreamError;
use crate::format::{ArchiveMeta, HashTrailer, ShardHeader, HEADER_LEN};
use ec_core::ErasureCoder;
use ec_wire::crc32;
use ec_wire::merkle::{leaf_hashes_into, Hash, MerkleTree};
use std::io::{Read, Seek, SeekFrom, Write};

/// A chunked streaming encoder over `n + p` seekable sinks.
///
/// The sinks need [`Seek`] because the self-describing header (chunk
/// count, original length) is only known once the input ends: `new`
/// reserves the header region, [`StreamEncoder::finalize`] seeks back and
/// writes the real header. Until then the region holds zeros — an
/// unfinalized (crashed) shard never parses as a valid archive.
///
/// Any registered codec drives the encoder through the
/// [`ErasureCoder`] boundary — the archive's self-describing header
/// records which one ([`ArchiveMeta::codec_spec`]).
///
/// ```
/// use ec_core::{codec_for, CodecSpec};
/// use ec_stream::StreamEncoder;
/// use std::io::Cursor;
///
/// let codec = codec_for(&CodecSpec::rs(4, 2)).unwrap();
/// let sinks: Vec<Cursor<Vec<u8>>> = (0..6).map(|_| Cursor::new(Vec::new())).collect();
/// let mut enc = StreamEncoder::new(&*codec, 4096, sinks).unwrap();
/// enc.write_all(&vec![7u8; 10_000]).unwrap();
/// let (meta, _sinks) = enc.finalize().unwrap();
/// assert_eq!(meta.chunk_count, 3);
/// assert_eq!(meta.original_len, 10_000);
/// ```
pub struct StreamEncoder<'c, W: Write + Seek> {
    codec: &'c dyn ErasureCoder,
    chunk_size: usize,
    sinks: Vec<W>,
    /// Staging buffer for one chunk of input; `fill` bytes are pending.
    buf: Vec<u8>,
    fill: usize,
    /// Reusable per-shard slice buffers (`encode_into` targets).
    shard_bufs: Vec<Vec<u8>>,
    /// `leaves[i]` accumulates shard `i`'s per-chunk SHA-256 leaf hashes
    /// for the hash trailer (32 bytes per shard per chunk —
    /// the only state that grows with the stream, and only
    /// logarithmically relative to the data).
    leaves: Vec<Vec<Hash>>,
    /// The `n + p` leaf hashes of the chunk being flushed.
    chunk_leaves: Vec<Hash>,
    chunks_written: u64,
    total_in: u64,
}

impl<'c, W: Write + Seek> StreamEncoder<'c, W> {
    /// Start an encode: validates the geometry and reserves the header
    /// region of every sink.
    pub fn new(
        codec: &'c dyn ErasureCoder,
        chunk_size: usize,
        mut sinks: Vec<W>,
    ) -> Result<StreamEncoder<'c, W>, StreamError> {
        if sinks.len() != codec.total_shards() {
            return Err(StreamError::Format(format!(
                "need one sink per shard: {} shards, {} sinks",
                codec.total_shards(),
                sinks.len()
            )));
        }
        if chunk_size == 0 || chunk_size > crate::format::MAX_CHUNK_SIZE as usize {
            return Err(StreamError::Format(format!(
                "chunk size {chunk_size} out of range (1..={})",
                crate::format::MAX_CHUNK_SIZE
            )));
        }
        for sink in &mut sinks {
            sink.write_all(&[0u8; HEADER_LEN])?;
        }
        Ok(StreamEncoder {
            codec,
            chunk_size,
            sinks,
            buf: vec![0u8; chunk_size],
            fill: 0,
            shard_bufs: vec![Vec::new(); codec.total_shards()],
            leaves: vec![Vec::new(); codec.total_shards()],
            chunk_leaves: vec![Hash::default(); codec.total_shards()],
            chunks_written: 0,
            total_in: 0,
        })
    }

    /// Append bytes to the stream, encoding and writing out every chunk
    /// that fills up.
    pub fn write_all(&mut self, mut data: &[u8]) -> Result<(), StreamError> {
        while !data.is_empty() {
            let take = (self.chunk_size - self.fill).min(data.len());
            self.buf[self.fill..self.fill + take].copy_from_slice(&data[..take]);
            self.fill += take;
            data = &data[take..];
            if self.fill == self.chunk_size {
                self.flush_chunk()?;
            }
        }
        Ok(())
    }

    /// Drain a reader to the end of the stream, chunk by chunk, reading
    /// directly into the staging buffer. Returns the bytes consumed.
    pub fn pump(&mut self, r: &mut impl Read) -> Result<u64, StreamError> {
        let mut total = 0u64;
        loop {
            if self.fill == self.chunk_size {
                self.flush_chunk()?;
            }
            match r.read(&mut self.buf[self.fill..self.chunk_size]) {
                Ok(0) => return Ok(total),
                Ok(got) => {
                    self.fill += got;
                    total += got as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Encode the staged chunk and append one frame (slice ‖ CRC-32) to
    /// every sink.
    fn flush_chunk(&mut self) -> Result<(), StreamError> {
        if self.fill == 0 {
            return Ok(());
        }
        self.codec
            .encode_into(&self.buf[..self.fill], &mut self.shard_bufs)?;
        // A chunk's slices are equally long: one batch, all lanes.
        leaf_hashes_into(&self.shard_bufs, &mut self.chunk_leaves);
        let per_shard = self
            .shard_bufs
            .iter()
            .zip(&mut self.sinks)
            .zip(&mut self.leaves);
        for (((shard, sink), leaves), leaf) in per_shard.zip(&self.chunk_leaves) {
            sink.write_all(shard)?;
            sink.write_all(&crc32(shard).to_le_bytes())?;
            leaves.push(*leaf);
        }
        self.total_in += self.fill as u64;
        self.chunks_written += 1;
        self.fill = 0;
        Ok(())
    }

    /// Flush the (possibly short) tail chunk, append the hash trailer to
    /// every sink, then seek back and write the real header. Returns the
    /// archive metadata and the sinks.
    pub fn finalize(mut self) -> Result<(ArchiveMeta, Vec<W>), StreamError> {
        self.flush_chunk()?;
        let meta =
            ArchiveMeta::with_spec(&self.codec.spec(), self.chunk_size as u32, self.total_in);
        debug_assert_eq!(meta.chunk_count, self.chunks_written);
        // Every trailer carries the full root vector; only the leaf
        // section differs per shard.
        let all_leaves = std::mem::take(&mut self.leaves);
        let shard_roots: Vec<Hash> = all_leaves
            .iter()
            .map(|ls| MerkleTree::from_leaves(ls.clone()).root())
            .collect();
        for ((i, sink), leaves) in self.sinks.iter_mut().enumerate().zip(all_leaves) {
            sink.write_all(&HashTrailer::new(leaves, shard_roots.clone()).to_bytes())?;
            sink.seek(SeekFrom::Start(0))?;
            ShardHeader {
                meta,
                shard_index: i as u16,
            }
            .write_to(sink)?;
            sink.flush()?;
        }
        Ok((meta, self.sinks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FRAME_TRAILER_LEN;
    use ec_core::{codec_for, CodecSpec};
    use std::io::Cursor;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + i / 5 + 3) as u8).collect()
    }

    fn rs(n: usize, p: usize) -> Box<dyn ErasureCoder> {
        codec_for(&CodecSpec::rs(n, p)).unwrap()
    }

    fn encode_all(
        codec: &dyn ErasureCoder,
        chunk: usize,
        data: &[u8],
    ) -> (ArchiveMeta, Vec<Vec<u8>>) {
        let sinks: Vec<Cursor<Vec<u8>>> = (0..codec.total_shards())
            .map(|_| Cursor::new(Vec::new()))
            .collect();
        let mut enc = StreamEncoder::new(codec, chunk, sinks).unwrap();
        enc.write_all(data).unwrap();
        let (meta, sinks) = enc.finalize().unwrap();
        (meta, sinks.into_iter().map(Cursor::into_inner).collect())
    }

    #[test]
    fn frames_match_oneshot_encode_per_chunk() {
        let codec = rs(3, 2);
        let chunk = 96;
        let data = sample(3 * chunk + 41); // three full chunks + tail
        let (meta, files) = encode_all(&*codec, chunk, &data);
        assert_eq!(meta.chunk_count, 4);
        assert_eq!(files[0].len() as u64, meta.shard_file_len());
        let mut offset = HEADER_LEN;
        for c in 0..meta.chunk_count {
            let lo = (c as usize) * chunk;
            let hi = (lo + chunk).min(data.len());
            let expect = codec.encode(&data[lo..hi]).unwrap();
            let slen = meta.slice_len(c);
            assert_eq!(slen, expect[0].len(), "chunk {c}");
            for (i, file) in files.iter().enumerate() {
                let slice = &file[offset..offset + slen];
                assert_eq!(slice, &expect[i][..], "chunk {c} shard {i}");
                let crc =
                    u32::from_le_bytes(file[offset + slen..offset + slen + 4].try_into().unwrap());
                assert_eq!(crc, crc32(slice), "chunk {c} shard {i} crc");
            }
            offset += slen + FRAME_TRAILER_LEN;
        }
        // The hash trailer starts right after the last frame, and each
        // shard's stored leaves are the leaf hashes of its frames.
        assert_eq!(meta.hash_trailer_offset(), offset as u64);
        for (i, file) in files.iter().enumerate() {
            let t = HashTrailer::from_bytes(&file[offset..], &meta).unwrap();
            assert!(t.self_consistent(i), "shard {i}");
            let mut off = HEADER_LEN;
            for c in 0..meta.chunk_count {
                let slen = meta.slice_len(c);
                assert_eq!(
                    t.leaves[c as usize],
                    ec_wire::merkle::leaf_hash(&file[off..off + slen]),
                    "shard {i} chunk {c}"
                );
                off += slen + FRAME_TRAILER_LEN;
            }
        }
        // All shards agree on the root vector and object root.
        let t0 = HashTrailer::from_bytes(&files[0][offset..], &meta).unwrap();
        for file in &files[1..] {
            let t = HashTrailer::from_bytes(&file[offset..], &meta).unwrap();
            assert_eq!(t.shard_roots, t0.shard_roots);
            assert_eq!(t.object_root, t0.object_root);
        }
    }

    #[test]
    fn write_all_and_pump_agree() {
        let codec = rs(4, 2);
        let data = sample(10_000);
        let (m1, f1) = encode_all(&*codec, 777, &data);
        let sinks: Vec<Cursor<Vec<u8>>> = (0..6).map(|_| Cursor::new(Vec::new())).collect();
        let mut enc = StreamEncoder::new(&*codec, 777, sinks).unwrap();
        // Pump through a reader that returns ragged short reads.
        struct Ragged<'a>(&'a [u8], usize);
        impl Read for Ragged<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let take = self.1.min(self.0.len()).min(buf.len());
                buf[..take].copy_from_slice(&self.0[..take]);
                self.0 = &self.0[take..];
                self.1 = self.1 % 97 + 13; // vary the read sizes
                Ok(take)
            }
        }
        assert_eq!(enc.pump(&mut Ragged(&data, 1)).unwrap(), data.len() as u64);
        let (m2, sinks) = enc.finalize().unwrap();
        let f2: Vec<Vec<u8>> = sinks.into_iter().map(Cursor::into_inner).collect();
        assert_eq!(m1, m2);
        assert_eq!(f1, f2);
    }

    #[test]
    fn empty_stream_produces_header_and_trailer_only_shards() {
        let codec = rs(4, 2);
        let (meta, files) = encode_all(&*codec, 1024, &[]);
        assert_eq!(meta.chunk_count, 0);
        assert_eq!(meta.original_len, 0);
        let expect = HEADER_LEN as u64 + HashTrailer::wire_len(&meta).unwrap();
        for (i, f) in files.iter().enumerate() {
            assert_eq!(f.len() as u64, expect, "shard {i}");
            let h = ShardHeader::from_bytes(f[..HEADER_LEN].try_into().unwrap()).unwrap();
            assert_eq!(h.shard_index, i as u16);
            // Zero-leaf trees: every shard root is the empty-tree root.
            let t = HashTrailer::from_bytes(&f[HEADER_LEN..], &meta).unwrap();
            assert!(t.leaves.is_empty());
            assert!(t
                .shard_roots
                .iter()
                .all(|r| *r == ec_wire::merkle::empty_root()));
            assert!(t.self_consistent(i));
        }
    }

    #[test]
    fn geometry_is_validated() {
        let codec = rs(4, 2);
        let five: Vec<Cursor<Vec<u8>>> = (0..5).map(|_| Cursor::new(Vec::new())).collect();
        assert!(matches!(
            StreamEncoder::new(&*codec, 1024, five),
            Err(StreamError::Format(_))
        ));
        let six: Vec<Cursor<Vec<u8>>> = (0..6).map(|_| Cursor::new(Vec::new())).collect();
        assert!(matches!(
            StreamEncoder::new(&*codec, 0, six),
            Err(StreamError::Format(_))
        ));
    }
}
