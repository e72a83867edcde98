//! [`Archive`]: erasure-coded cold storage on a directory of shard
//! files, with verify / scrub / repair maintenance verbs.
//!
//! An archive of any registered codec (n, p) is `n + p` files
//! `shard-000.ecs …` in one directory, each in the self-describing
//! format of [`crate::format`]. Opening needs no side-channel metadata:
//! the parameters — including which codec family encoded the shards —
//! are read back from the shard headers themselves (majority vote
//! across the surviving files, each header CRC-protected).

use crate::decode::{ChunkScanner, ExtractReport, StreamDecoder};
use crate::encode::StreamEncoder;
use crate::error::StreamError;
use crate::format::{ArchiveMeta, HashTrailer, ShardHeader};
use ec_wire::crc32;
use ec_wire::merkle::{leaf_hashes_into, Hash, MerkleTree};
use ec_core::{codec_for, codec_for_with, CodecSpec, EcError, ErasureCoder, RsConfig};
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File name of shard `index` within an archive directory.
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index:03}.ecs")
}

/// Parse a shard file name back to its index.
fn parse_shard_file_name(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("shard-")?.strip_suffix(".ecs")?;
    if digits.len() != 3 {
        return None;
    }
    digits.parse().ok()
}

/// The one election rule of an archive's self-description, for its
/// headers and its hash trailers alike: the value with strictly the
/// most ballots wins. `Ok(None)` when nobody voted; `Err(count)` when
/// two values tie at the top with `count` ballots each — two equally
/// supported truths cannot be told apart, so a tie elects nothing.
fn elect<T: Eq + std::hash::Hash>(ballots: impl IntoIterator<Item = T>) -> Result<Option<T>, usize>
{
    let mut votes: HashMap<T, usize> = HashMap::new();
    for ballot in ballots {
        *votes.entry(ballot).or_insert(0) += 1;
    }
    let Some(best) = votes.values().copied().max() else { return Ok(None) };
    let mut leaders = votes.into_iter().filter(|&(_, c)| c == best).map(|(v, _)| v);
    match (leaders.next(), leaders.next()) {
        (winner, None) => Ok(winner),
        (_, Some(_)) => Err(best),
    }
}

/// Integrity state of one shard file, as diagnosed by
/// [`Archive::verify`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardState {
    /// Header, length and every chunk CRC check out.
    Ok,
    /// The file is absent (or unopenable).
    Missing,
    /// The header does not parse, or describes a different archive /
    /// shard index.
    BadHeader,
    /// The file length does not match the header's geometry (truncation,
    /// or trailing garbage).
    WrongLength { expected: u64, actual: u64 },
    /// One or more chunk payloads fail their CRC-32 — or, under an
    /// elected root vector, their trusted SHA-256 leaf (CRC-preserving
    /// tampering lands here, attributed to exact chunks).
    Corrupt { chunks: Vec<u64> },
    /// The shard's hash trailer is unreadable, inconsistent
    /// with itself, or disagrees with the root vector a majority of
    /// shards voted for. The payload may read clean, but nothing can
    /// vouch for it — repair rewrites the file and re-proves its root.
    BadHashes,
}

impl ShardState {
    /// True iff the shard needs no repair.
    pub fn is_ok(&self) -> bool {
        matches!(self, ShardState::Ok)
    }
}

impl std::fmt::Display for ShardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardState::Ok => write!(f, "ok"),
            ShardState::Missing => write!(f, "missing"),
            ShardState::BadHeader => write!(f, "bad header"),
            ShardState::WrongLength { expected, actual } => {
                write!(f, "wrong length ({actual} bytes, expected {expected})")
            }
            ShardState::Corrupt { chunks } => {
                write!(f, "corrupt ({} bad chunks: {chunks:?})", chunks.len())
            }
            ShardState::BadHashes => write!(f, "bad hash trailer"),
        }
    }
}

/// Per-shard diagnosis of an archive.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// `shards[i]` is the state of shard file `i`.
    pub shards: Vec<ShardState>,
    /// True iff the walk verified frames against an elected Merkle root
    /// vector, not just CRC-32. False when the trailers could not elect
    /// a majority.
    pub hash_checked: bool,
}

impl VerifyReport {
    /// True iff every shard file is intact.
    pub fn all_ok(&self) -> bool {
        self.shards.iter().all(ShardState::is_ok)
    }

    /// Indices of the shard files needing repair.
    pub fn damaged(&self) -> Vec<usize> {
        (0..self.shards.len()).filter(|&i| !self.shards[i].is_ok()).collect()
    }
}

/// Result of a deep scrub: the per-shard verify diagnosis plus chunks
/// whose shards all pass their CRCs but disagree with the code (parity
/// inconsistent with data — e.g. a shard rewritten wholesale with its
/// CRC "fixed" to match).
#[derive(Clone, Debug)]
pub struct ScrubReport {
    pub verify: VerifyReport,
    pub inconsistent_chunks: Vec<u64>,
}

impl ScrubReport {
    /// True iff the archive is fully healthy.
    pub fn clean(&self) -> bool {
        self.verify.all_ok() && self.inconsistent_chunks.is_empty()
    }
}

/// Result of a repair pass.
#[derive(Clone, Debug, Default)]
pub struct RepairReport {
    /// Shard files that were rewritten.
    pub repaired: Vec<usize>,
    /// Chunks that needed reconstruction (vs straight re-framing of
    /// surviving bytes).
    pub chunks_rebuilt: u64,
    /// Frame bytes read from shard files during the rebuild walk. A
    /// locality-aware codec repairs a single loss from its group, so
    /// this drops below the read-everything cost of an MDS repair.
    pub bytes_read: u64,
}

/// The elected hash truth of an archive: the majority root vector,
/// the object root it implies, and — per shard — the trusted leaf
/// hashes of every shard whose trailer matched the election.
struct HashContext {
    trusted: Vec<Option<Vec<Hash>>>,
    shard_roots: Vec<Hash>,
    object_root: Hash,
}

/// A streaming erasure-coded archive rooted at a directory.
pub struct Archive {
    dir: PathBuf,
    meta: ArchiveMeta,
    codec: Box<dyn ErasureCoder>,
}

impl Archive {
    /// Archive `input` into `dir` as RS(`data_shards`, `parity_shards`)
    /// with the paper's default codec configuration.
    pub fn create(
        input: &Path,
        dir: &Path,
        data_shards: usize,
        parity_shards: usize,
        chunk_size: usize,
    ) -> Result<Archive, StreamError> {
        Archive::create_with_config(input, dir, RsConfig::new(data_shards, parity_shards), chunk_size)
    }

    /// [`Archive::create`] under an arbitrary registered codec (the
    /// spec is recorded in every shard header and resolved back on
    /// `open`).
    pub fn create_with_spec(
        input: &Path,
        dir: &Path,
        spec: &CodecSpec,
        chunk_size: usize,
    ) -> Result<Archive, StreamError> {
        Archive::create_inner(input, dir, codec_for(spec)?, chunk_size)
    }

    /// [`Archive::create`] with an explicit engine configuration
    /// (kernel, parallelism, blocksize — none of it affects the bytes
    /// on disk).
    pub fn create_with_config(
        input: &Path,
        dir: &Path,
        cfg: RsConfig,
        chunk_size: usize,
    ) -> Result<Archive, StreamError> {
        let spec = CodecSpec::rs(cfg.data_shards, cfg.parity_shards);
        Archive::create_inner(input, dir, codec_for_with(&spec, cfg)?, chunk_size)
    }

    fn create_inner(
        input: &Path,
        dir: &Path,
        codec: Box<dyn ErasureCoder>,
        chunk_size: usize,
    ) -> Result<Archive, StreamError> {
        // Open the input before touching any existing shard file: a
        // mistyped path must not truncate a previous archive in `dir`.
        let mut reader = BufReader::new(File::open(input)?);
        fs::create_dir_all(dir)?;
        // Claim the directory's whole shard namespace: indices 0..n+p
        // are overwritten below, and stale files a previous, larger
        // archive left beyond them would make `open` see two archives.
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(idx) = entry.file_name().to_str().and_then(parse_shard_file_name) {
                if idx >= codec.total_shards() {
                    fs::remove_file(entry.path())?;
                }
            }
        }
        let sinks = (0..codec.total_shards())
            .map(|i| Ok(BufWriter::new(File::create(dir.join(shard_file_name(i)))?)))
            .collect::<Result<Vec<_>, std::io::Error>>()?;
        let mut enc = StreamEncoder::new(&*codec, chunk_size, sinks)?;
        enc.pump(&mut reader)?;
        let (meta, _sinks) = enc.finalize()?;
        Ok(Archive { dir: dir.to_path_buf(), meta, codec })
    }

    /// Open an existing archive from its shard files alone: headers are
    /// collected from every readable `shard-*.ecs` in `dir` and the
    /// metadata with strictly the most votes wins (headers are
    /// CRC-protected, so a minority is damage, not ambiguity). A *tie*
    /// between two distinct metadata values is an error, not a coin
    /// flip: it means the directory holds shards of two different
    /// archives, and repairing under the wrong one would overwrite good
    /// data.
    pub fn open(dir: &Path) -> Result<Archive, StreamError> {
        let mut headers = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if parse_shard_file_name(name).is_none() {
                continue;
            }
            let Ok(file) = File::open(entry.path()) else { continue };
            if let Ok(h) = ShardHeader::read_from(&mut BufReader::new(file)) {
                headers.push(h.meta);
            }
        }
        let meta = elect(headers)
            .map_err(|best| {
                StreamError::Format(format!(
                    "ambiguous archive: {best} shard headers each describe two different \
                     archives in {} (mixed generations?)",
                    dir.display()
                ))
            })?
            .ok_or_else(|| {
                StreamError::Format(format!("no readable shard headers in {}", dir.display()))
            })?;
        let codec = codec_for(&meta.codec_spec()?)?;
        Ok(Archive { dir: dir.to_path_buf(), meta, codec })
    }

    /// The archive-wide metadata (codec params, chunk geometry, length).
    pub fn meta(&self) -> &ArchiveMeta {
        &self.meta
    }

    /// The codec this archive handle encodes/decodes with (resolved
    /// from the shard headers' recorded spec on `open`).
    pub fn codec(&self) -> &dyn ErasureCoder {
        &*self.codec
    }

    /// Path of shard file `index`.
    pub fn shard_path(&self, index: usize) -> PathBuf {
        self.dir.join(shard_file_name(index))
    }

    /// Open shard `index` for reading as a trusted source: the header
    /// must parse and match this archive's metadata and the shard's
    /// index. Returns the reader positioned at the first frame.
    fn open_source(&self, index: usize) -> Option<BufReader<File>> {
        let mut r = BufReader::new(File::open(self.shard_path(index)).ok()?);
        let h = ShardHeader::read_from(&mut r).ok()?;
        (h.meta == self.meta && h.shard_index as usize == index).then_some(r)
    }

    /// Read and parse shard `index`'s hash trailer, keeping it only if
    /// it is self-consistent (its leaves build its own recorded root and
    /// its object root matches its root vector).
    fn read_trailer(&self, index: usize) -> Option<HashTrailer> {
        let offset = self.meta.hash_trailer_offset();
        let len = HashTrailer::wire_len(&self.meta)? as usize;
        let mut f = File::open(self.shard_path(index)).ok()?;
        f.seek(SeekFrom::Start(offset)).ok()?;
        let mut b = vec![0u8; len];
        f.read_exact(&mut b).ok()?;
        HashTrailer::from_bytes(&b, &self.meta)
            .ok()
            .filter(|t| t.self_consistent(index))
    }

    /// Elect the authoritative hash context of the archive: every
    /// self-consistent trailer votes for its root vector, under the same
    /// rule as `open`'s header vote (`elect`: a tie elects nothing).
    /// Shards whose trailer matched the winner contribute *trusted
    /// leaves*: per-chunk hashes authenticated, via the shard root and
    /// SHA-256 collision resistance, by the election itself.
    fn hash_context(&self) -> Option<HashContext> {
        let t = self.meta.total_shards();
        let trailers: Vec<Option<HashTrailer>> = (0..t).map(|i| self.read_trailer(i)).collect();
        let ballots = trailers.iter().flatten().map(|tr| tr.shard_roots.clone());
        let shard_roots = elect(ballots).ok()??;
        let object_root = HashTrailer::object_root_of(&shard_roots);
        let trusted = trailers
            .into_iter()
            .map(|tr| tr.filter(|tr| tr.shard_roots == shard_roots).map(|tr| tr.leaves))
            .collect();
        Some(HashContext { trusted, shard_roots, object_root })
    }

    /// The elected per-shard Merkle roots and object root (`None` when
    /// no majority exists).
    pub fn elected_roots(&self) -> Option<(Vec<Hash>, Hash)> {
        self.hash_context().map(|c| (c.shard_roots, c.object_root))
    }

    /// Extract the archived data to `output`, decoding around any
    /// missing or corrupt shards (up to `p` per chunk).
    ///
    /// The data is written to a temporary file next to `output` and
    /// renamed into place only when extraction succeeds end to end — a
    /// failure (e.g. unrecoverable damage in a late chunk) neither
    /// clobbers a pre-existing file at `output` nor leaves a silent
    /// partial one.
    pub fn extract(&self, output: &Path) -> Result<ExtractReport, StreamError> {
        let sources = (0..self.meta.total_shards()).map(|i| self.open_source(i)).collect();
        let mut dec = StreamDecoder::new(&*self.codec, self.meta, sources)?;
        // Arm Merkle verification where the election vouches for a
        // shard's leaves: frames that pass CRC but fail their leaf hash
        // are decoded around, exactly like bit-rot. Sources without
        // trusted leaves still serve (CRC-only) — the report's
        // `hash_verified` says which regime ran.
        if let Some(ctx) = self.hash_context() {
            for (i, leaves) in ctx.trusted.into_iter().enumerate() {
                if let Some(leaves) = leaves {
                    dec.set_trusted_leaves(i, leaves);
                }
            }
        }
        let mut tmp = output.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let result = (|| {
            let mut out = BufWriter::new(File::create(&tmp)?);
            let report = dec.pump(&mut out)?;
            out.into_inner().map_err(std::io::IntoInnerError::into_error)?;
            fs::rename(&tmp, output)?;
            Ok(report)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Diagnose every shard file: header, length, per-chunk CRCs. Reads
    /// each file once, sequentially; no parity math.
    pub fn verify(&self) -> Result<VerifyReport, StreamError> {
        Ok(self.scan(false)?.0)
    }

    /// Deep scan: [`Archive::verify`] plus a parity-consistency check of
    /// every chunk whose `n + p` frames all pass their CRCs. Catches
    /// damage a checksum scan cannot — a slice rewritten together with
    /// its CRC — at the cost of re-encoding the stripe chunk by chunk.
    /// Still one sequential read per shard file: the CRC walk and the
    /// consistency re-encode share the same pass.
    pub fn scrub(&self) -> Result<ScrubReport, StreamError> {
        let (verify, inconsistent_chunks) = self.scan(true)?;
        Ok(ScrubReport { verify, inconsistent_chunks })
    }

    /// The single-pass diagnosis behind `verify` and `scrub`: header and
    /// length checks up front (O(1) per file), then one chunk-wise CRC
    /// walk over the structurally sound files, optionally re-encoding
    /// each fully intact chunk to check parity consistency.
    fn scan(&self, consistency: bool) -> Result<(VerifyReport, Vec<u64>), StreamError> {
        let t = self.meta.total_shards();
        let expected = self.meta.shard_file_len();
        // `None` state = structurally sound so far; the CRC/hash walk
        // decides between `Ok` and `Corrupt`.
        let mut states: Vec<Option<ShardState>> = Vec::with_capacity(t);
        let mut readers: Vec<Option<BufReader<File>>> = Vec::with_capacity(t);
        for i in 0..t {
            let (state, reader) = match File::open(self.shard_path(i)) {
                Err(_) => (Some(ShardState::Missing), None),
                Ok(file) => {
                    let actual = file.metadata().map(|m| m.len());
                    let mut r = BufReader::new(file);
                    match (ShardHeader::read_from(&mut r), actual) {
                        (Ok(h), _) if h.meta != self.meta || h.shard_index as usize != i => {
                            (Some(ShardState::BadHeader), None)
                        }
                        (Err(_), _) => (Some(ShardState::BadHeader), None),
                        (Ok(_), Ok(actual)) if actual == expected => (None, Some(r)),
                        (Ok(_), Ok(actual)) => {
                            (Some(ShardState::WrongLength { expected, actual }), None)
                        }
                        (Ok(_), Err(_)) => (Some(ShardState::Missing), None),
                    }
                }
            };
            states.push(state);
            readers.push(reader);
        }
        // Elect the Merkle truth before the walk so frame hashes are
        // checked in the same pass as the CRCs. A structurally sound
        // shard whose trailer failed the election is `BadHashes`: its
        // payload may read clean, but nothing vouches for it.
        let ctx = self.hash_context();
        let mut hash_bad = vec![false; t];
        if let Some(ctx) = &ctx {
            for i in 0..t {
                if states[i].is_none() && ctx.trusted[i].is_none() {
                    hash_bad[i] = true;
                }
            }
        }
        let present: Vec<bool> = readers.iter().map(Option::is_some).collect();
        let hash_checked = ctx.is_some();
        let mut bad_chunks: Vec<Vec<u64>> = vec![Vec::new(); t];
        let mut inconsistent = Vec::new();
        if !present.iter().any(|&p| p) {
            // Nothing to walk (every file already diagnosed) — and a
            // hostile header claiming astronomical chunk counts must not
            // spin the empty loop.
            let shards = states.into_iter().map(|s| s.expect("all diagnosed")).collect();
            return Ok((VerifyReport { shards, hash_checked }, inconsistent));
        }
        let mut scanner = ChunkScanner::new(self.meta, readers);
        if let Some(ctx) = ctx {
            for (i, leaves) in ctx.trusted.into_iter().enumerate() {
                if let Some(leaves) = leaves {
                    scanner.set_trusted_leaves(i, leaves);
                }
            }
        }
        let all: Vec<usize> = (0..t).collect();
        while let Some(c) = scanner.next_chunk(&mut |_| all.clone()) {
            let frames = scanner.chunk();
            for i in 0..t {
                if present[i] && !frames.good(i) {
                    bad_chunks[i].push(c);
                }
            }
            if consistency && frames.good_count() == t && !self.codec.verify(&frames.slices)? {
                inconsistent.push(c);
            }
        }
        let shards = states
            .into_iter()
            .zip(bad_chunks)
            .zip(hash_bad)
            .map(|((state, bad), hash_bad)| match state {
                Some(s) => s,
                None if hash_bad => ShardState::BadHashes,
                None if bad.is_empty() => ShardState::Ok,
                None => ShardState::Corrupt { chunks: bad },
            })
            .collect();
        Ok((VerifyReport { shards, hash_checked }, inconsistent))
    }

    /// Rewrite every damaged shard file from the survivors.
    ///
    /// Damage is re-diagnosed ([`Archive::verify`]), then the archive is
    /// walked once, chunk by chunk, and every damaged file is rewritten
    /// whole: its good frames are re-framed as they are, and each chunk
    /// whose frame is bad is rebuilt by the codec's repair loop
    /// ([`XorCodec::reconstruct_from`](ec_core::XorCodec::reconstruct_from)).
    /// The loop plans per chunk: it reads the frames of that chunk's
    /// repair plan — an LRC's single loss reads its locality group, a
    /// lost parity shard one row program's data — and widens to the
    /// chunk's other frames only when a planned frame is bad too. There
    /// is no second, full-source pass.
    ///
    /// Under an elected root vector, a walk reads only the damaged
    /// shards' own frames and what the plans fetch; a damaged shard
    /// without trusted leaves is no source at all (its frames may be
    /// CRC-forged), and each rebuilt file must prove the elected root.
    /// Without an election every frame is read, because the trailers are
    /// rebuilt from all the bytes. Replacement files are written next to
    /// the originals and renamed into place only after the walk and the
    /// proof succeed; on any error they are deleted.
    ///
    /// Repair reads the archive twice by design: the damaged-file set
    /// must be known *before* the rebuild walk (replacement writers are
    /// created up front), and CRC-level damage is only discoverable by
    /// reading everything — a diagnose pass cannot be folded into the
    /// rebuild pass without buffering whole shard files.
    pub fn repair(&self) -> Result<RepairReport, StreamError> {
        let damaged = self.verify()?.damaged();
        if damaged.is_empty() {
            return Ok(RepairReport::default());
        }
        let t = self.meta.total_shards();
        let p = self.meta.parity_shards as usize;
        let ctx = self.hash_context();
        let sources = (0..t)
            .map(|i| {
                let vouched = match &ctx {
                    Some(ctx) => ctx.trusted[i].is_some() || !damaged.contains(&i),
                    None => true,
                };
                vouched.then(|| self.open_source(i)).flatten()
            })
            .collect();
        let mut scanner = ChunkScanner::new(self.meta, sources);
        if let Some(ctx) = &ctx {
            for (i, leaves) in ctx.trusted.iter().enumerate() {
                if let Some(leaves) = leaves {
                    scanner.set_trusted_leaves(i, leaves.clone());
                }
            }
        }
        // The shards whose frames every chunk reads and whose leaves the
        // new trailers take: the damaged ones under an election, else
        // all, because the trailers are rebuilt from every shard's bytes.
        let tracked: Vec<usize> = if ctx.is_some() { damaged.clone() } else { (0..t).collect() };

        let tmp_path = |i: usize| self.dir.join(format!("{}.tmp", shard_file_name(i)));
        let mut report = RepairReport { repaired: damaged.clone(), ..RepairReport::default() };
        let result = (|| -> Result<(), StreamError> {
            let mut writers = damaged
                .iter()
                .map(|&i| {
                    let mut w = BufWriter::new(File::create(tmp_path(i))?);
                    ShardHeader { meta: self.meta, shard_index: i as u16 }.write_to(&mut w)?;
                    Ok((i, w))
                })
                .collect::<Result<Vec<_>, std::io::Error>>()?;
            let mut shards: Vec<Option<Vec<u8>>> = vec![None; t];
            let mut new_leaves: Vec<Vec<Hash>> = vec![Vec::new(); t];
            let mut chunk_leaves = vec![Hash::default(); tracked.len()];
            while let Some(c) = scanner.next_chunk(&mut |_| tracked.clone()) {
                let targets: Vec<usize> =
                    damaged.iter().copied().filter(|&i| !scanner.chunk().good(i)).collect();
                if !targets.is_empty() {
                    match scanner.rebuild(&self.codec, &mut shards, &targets) {
                        Err(EcError::TooManyErasures { missing, .. }) => {
                            return Err(StreamError::TooDamaged { chunk: c, missing, parity: p });
                        }
                        rebuilt => rebuilt?,
                    }
                    report.chunks_rebuilt += 1;
                }
                let frames = scanner.chunk();
                let slice_of = |i: usize| -> &[u8] {
                    if frames.good(i) {
                        &frames.slices[i]
                    } else {
                        shards[i].as_deref().expect("rebuilt above")
                    }
                };
                for &mut (i, ref mut w) in &mut writers {
                    let slice = slice_of(i);
                    w.write_all(slice)?;
                    w.write_all(&crc32(slice).to_le_bytes())?;
                }
                let slices: Vec<&[u8]> = tracked.iter().map(|&i| slice_of(i)).collect();
                leaf_hashes_into(&slices, &mut chunk_leaves);
                for (&i, leaf) in tracked.iter().zip(&chunk_leaves) {
                    new_leaves[i].push(*leaf);
                }
            }
            report.bytes_read = scanner.bytes_read();

            // Finish each replacement file with its hash trailer — and
            // prove the restoration first. Under an election the rebuilt
            // shard's root must equal the elected root: reconstruction
            // from verified sources is byte-exact, so a mismatch means the
            // walk was fed something unprovable and the file must not
            // publish.
            let shard_roots: Vec<Hash> = match &ctx {
                Some(ctx) => ctx.shard_roots.clone(),
                None => new_leaves
                    .iter()
                    .map(|ls| MerkleTree::from_leaves(ls.clone()).root())
                    .collect(),
            };
            for &mut (i, ref mut w) in &mut writers {
                let trailer = HashTrailer::new(new_leaves[i].clone(), shard_roots.clone());
                if trailer.own_root() != shard_roots[i] {
                    return Err(StreamError::Format(format!(
                        "restored shard {i} hashes to a different Merkle root than \
                         the elected vector — refusing to publish it"
                    )));
                }
                w.write_all(&trailer.to_bytes())?;
            }
            for (i, w) in writers {
                w.into_inner().map_err(std::io::IntoInnerError::into_error)?;
                fs::rename(tmp_path(i), self.shard_path(i))?;
            }
            Ok(())
        })();
        if result.is_err() {
            for &i in &damaged {
                let _ = fs::remove_file(tmp_path(i));
            }
        }
        result.map(|()| report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FRAME_TRAILER_LEN;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ec_stream_archive_{tag}_{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_input(dir: &Path, len: usize) -> PathBuf {
        let input = dir.join("input.bin");
        let data: Vec<u8> = (0..len).map(|i| (i * 37 + i / 9) as u8).collect();
        fs::write(&input, data).unwrap();
        input
    }

    #[test]
    fn codec_survives_the_directory_roundtrip() {
        let dir = tmp_dir("codec_roundtrip");
        let input = write_input(&dir, 50_000);
        let spec = CodecSpec::lrc(4, 3, 2);
        let shards = dir.join("shards");
        let a = Archive::create_with_spec(&input, &shards, &spec, 4096).unwrap();
        assert_eq!(a.codec().spec(), spec);

        // `open` resolves the codec from the headers alone.
        let a = Archive::open(&shards).unwrap();
        assert_eq!(a.codec().spec(), spec);
        assert_eq!(a.meta().codec_spec().unwrap(), spec);

        let restored = dir.join("restored.bin");
        a.extract(&restored).unwrap();
        assert_eq!(fs::read(&input).unwrap(), fs::read(&restored).unwrap());

        // Engine knobs are not recorded, so none may change the bytes: an
        // archive written with non-default ones and reopened with the
        // defaults decodes exactly across two lost data shards.
        let input = write_input(&dir, 100_003);
        let shards = dir.join("knobs");
        let cfg = RsConfig::new(4, 2)
            .opt(ec_core::OptConfig::BASE)
            .blocksize(16)
            .kernel(ec_core::Kernel::Scalar)
            .parallelism(2);
        let a = Archive::create_with_config(&input, &shards, cfg, 16384).unwrap();
        fs::remove_file(a.shard_path(0)).unwrap();
        fs::remove_file(a.shard_path(2)).unwrap();
        Archive::open(&shards).unwrap().extract(&restored).unwrap();
        assert_eq!(fs::read(&input).unwrap(), fs::read(&restored).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lrc_single_loss_repair_reads_only_the_group() {
        let dir = tmp_dir("lrc_repair");
        let input = write_input(&dir, 120_000);
        // LRC(8, r=4): groups {0..4} + local 8, {4..8} + local 9, two
        // globals 10, 11. Twelve shard files.
        let spec = CodecSpec::lrc(8, 4, 4);
        let shards = dir.join("shards");
        let a = Archive::create_with_spec(&input, &shards, &spec, 8192).unwrap();

        // Lose one data shard; the plan is its group (4 surviving
        // shards), and the walk must read only those plus nothing else.
        fs::remove_file(a.shard_path(2)).unwrap();
        let plan = a.codec().repair_sources(&[2]).unwrap();
        assert_eq!(plan, vec![0, 1, 3, 8]);
        let report = a.repair().unwrap();
        assert_eq!(report.repaired, vec![2]);
        assert!(a.verify().unwrap().all_ok());

        // Byte accounting: the group-local pass reads 4 source files'
        // frames; an MDS repair of the same loss reads at least n = 8.
        let frames: u64 = (0..a.meta().chunk_count)
            .map(|c| (a.meta().slice_len(c) + crate::format::FRAME_TRAILER_LEN) as u64)
            .sum();
        assert_eq!(report.bytes_read, 4 * frames);

        // The restriction is correctness-neutral: extraction matches.
        let restored = dir.join("restored.bin");
        a.extract(&restored).unwrap();
        assert_eq!(fs::read(&input).unwrap(), fs::read(&restored).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan_repair_converges_when_a_source_is_corrupt() {
        let dir = tmp_dir("lrc_fallback");
        let input = write_input(&dir, 60_000);
        let spec = CodecSpec::lrc(8, 4, 4);
        let shards = dir.join("shards");
        let a = Archive::create_with_spec(&input, &shards, &spec, 4096).unwrap();

        // Lose shard 2, and flip a byte inside plan-source shard 0's
        // first frame (CRC-level damage the verify pass flags, so shard
        // 0 joins the damaged set and the plan widens; either way the
        // repair must converge to a clean archive).
        fs::remove_file(a.shard_path(2)).unwrap();
        let p0 = a.shard_path(0);
        let mut bytes = fs::read(&p0).unwrap();
        let off = crate::format::HEADER_LEN + 5;
        bytes[off] ^= 0x10;
        fs::write(&p0, bytes).unwrap();

        let report = a.repair().unwrap();
        assert_eq!(report.repaired, vec![0, 2]);
        assert!(a.verify().unwrap().all_ok());
        let restored = dir.join("restored.bin");
        a.extract(&restored).unwrap();
        assert_eq!(fs::read(&input).unwrap(), fs::read(&restored).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_plans_each_chunk_on_its_own() {
        let dir = tmp_dir("per_chunk_plan");
        let input = write_input(&dir, 120_000);
        let spec = CodecSpec::lrc(8, 4, 4);
        let shards = dir.join("shards");
        let a = Archive::create_with_spec(&input, &shards, &spec, 8192).unwrap();
        let frame = |c: u64| (a.meta().slice_len(c) + FRAME_TRAILER_LEN) as u64;
        let frames: u64 = (0..a.meta().chunk_count).map(frame).sum();
        assert_eq!((a.meta().chunk_count, frames, frame(1)), (15, 15_060, 1_028));

        // Lose shard 2 (group 0) and one byte of shard 5's chunk-1 frame
        // (group 1).
        fs::remove_file(a.shard_path(2)).unwrap();
        let p5 = a.shard_path(5);
        let mut bytes = fs::read(&p5).unwrap();
        bytes[crate::format::HEADER_LEN + frame(0) as usize + 9] ^= 0x04;
        fs::write(&p5, bytes).unwrap();
        assert_eq!(a.verify().unwrap().damaged(), vec![2, 5]);

        // Every chunk reads shard 5's own frame and group 0's four; only
        // chunk 1 needs group 1's four as well. One plan for both losses
        // over the whole walk would read nine frames of every chunk.
        let report = a.repair().unwrap();
        assert_eq!(report.repaired, vec![2, 5]);
        assert_eq!(report.bytes_read, 5 * frames + 4 * frame(1));
        assert_eq!(report.bytes_read, 79_412);
        assert!(a.verify().unwrap().all_ok());
        let restored = dir.join("restored.bin");
        a.extract(&restored).unwrap();
        assert_eq!(fs::read(&input).unwrap(), fs::read(&restored).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_forged_tamper_is_caught_and_localized() {
        use ec_wire::crc_preserving_flip;
        let dir = tmp_dir("crc_forged");
        let input = write_input(&dir, 40_000);
        let shards = dir.join("shards");
        let a = Archive::create(&input, &shards, 4, 2, 4096).unwrap();
        let (roots_before, object_before) = a.elected_roots().unwrap();

        // Forge chunk 2 of shard 1: a 5-byte XOR of the generator
        // polynomial that leaves the frame's CRC-32 — and any CRC over
        // the whole file — unchanged. A checksum walk calls this clean.
        let path = a.shard_path(1);
        let mut bytes = fs::read(&path).unwrap();
        let off = crate::format::HEADER_LEN
            + 2 * (a.meta().slice_len(0) + crate::format::FRAME_TRAILER_LEN)
            + 7;
        let before = crc32(&bytes);
        crc_preserving_flip(&mut bytes, off);
        assert_eq!(crc32(&bytes), before, "the forgery must be CRC-invisible");
        fs::write(&path, bytes).unwrap();

        // The Merkle walk attributes it to the exact shard and chunk.
        let report = a.verify().unwrap();
        assert!(report.hash_checked);
        assert_eq!(report.shards[1], ShardState::Corrupt { chunks: vec![2] });
        assert!(!a.scrub().unwrap().clean());

        // Extraction decodes around the forged frame.
        let restored = dir.join("restored.bin");
        let rep = a.extract(&restored).unwrap();
        assert!(rep.hash_verified);
        assert!(rep.chunks_repaired >= 1);
        assert_eq!(fs::read(&input).unwrap(), fs::read(&restored).unwrap());

        // Repair heals it, and the healed archive proves the same roots
        // it was created with.
        let report = a.repair().unwrap();
        assert_eq!(report.repaired, vec![1]);
        assert!(a.verify().unwrap().all_ok());
        assert_eq!(a.elected_roots().unwrap(), (roots_before, object_before));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_trailer_is_attributed_and_healed() {
        let dir = tmp_dir("bad_trailer");
        let input = write_input(&dir, 20_000);
        let shards = dir.join("shards");
        let a = Archive::create(&input, &shards, 3, 2, 2048).unwrap();
        let roots_before = a.elected_roots().unwrap();

        // Scribble over shard 4's trailer (payload untouched). The
        // remaining four trailers still elect the root vector; shard 4
        // can no longer prove its bytes, so it is flagged and rebuilt.
        let path = a.shard_path(4);
        let mut bytes = fs::read(&path).unwrap();
        let off = a.meta().hash_trailer_offset() as usize;
        for b in &mut bytes[off + 10..off + 20] {
            *b ^= 0xFF;
        }
        fs::write(&path, bytes).unwrap();

        let report = a.verify().unwrap();
        assert!(report.hash_checked);
        assert_eq!(report.shards[4], ShardState::BadHashes);
        assert_eq!(report.damaged(), vec![4]);

        let report = a.repair().unwrap();
        assert_eq!(report.repaired, vec![4]);
        assert!(a.verify().unwrap().all_ok());
        assert_eq!(a.elected_roots().unwrap(), roots_before);
        let restored = dir.join("restored.bin");
        assert!(a.extract(&restored).unwrap().hash_verified);
        assert_eq!(fs::read(&input).unwrap(), fs::read(&restored).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tied_trailers_elect_nothing_and_extract_on_crcs_alone() {
        let dir = tmp_dir("trailer_tie");
        let input = write_input(&dir, 20_000);
        let a = Archive::create(&input, &dir.join("shards"), 2, 2, 4096).unwrap();
        // A second archive of the same geometry over different bytes.
        let other = dir.join("other.bin");
        let flipped: Vec<u8> = fs::read(&input).unwrap().iter().map(|b| !b).collect();
        fs::write(&other, flipped).unwrap();
        let b = Archive::create(&other, &dir.join("other"), 2, 2, 4096).unwrap();
        assert_eq!(a.meta(), b.meta());
        assert_ne!(a.elected_roots(), b.elected_roots());

        // Shards 2 and 3 take the other archive's trailers: two
        // self-consistent trailers vote for each root vector.
        let off = a.meta().hash_trailer_offset() as usize;
        for i in [2, 3] {
            let mut ours = fs::read(a.shard_path(i)).unwrap();
            ours[off..].copy_from_slice(&fs::read(b.shard_path(i)).unwrap()[off..]);
            fs::write(a.shard_path(i), ours).unwrap();
        }
        assert_eq!(a.elected_roots(), None);

        // No election, so the frames are trusted on their CRCs alone —
        // which every one of them still passes.
        let restored = dir.join("restored.bin");
        assert!(!a.extract(&restored).unwrap().hash_verified);
        assert_eq!(fs::read(&input).unwrap(), fs::read(&restored).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn extract_reads_the_data_frames_and_what_plans_name() {
        let dir = tmp_dir("extract_reads");
        let input = write_input(&dir, 100_000);
        let restored = dir.join("restored.bin");
        let extract = |a: &Archive| {
            let report = a.extract(&restored).unwrap();
            assert_eq!(fs::read(&input).unwrap(), fs::read(&restored).unwrap());
            report
        };
        let frames = |a: &Archive| -> u64 {
            let meta = a.meta();
            (0..meta.chunk_count).map(|c| (meta.slice_len(c) + FRAME_TRAILER_LEN) as u64).sum()
        };

        // Healthy RS(10, 4): the ten data frames of every chunk.
        let a = Archive::create(&input, &dir.join("rs"), 10, 4, 8192).unwrap();
        let all = frames(&a);
        assert_eq!(a.meta().chunk_count, 13);
        assert_eq!(extract(&a).bytes_read, 10 * all);

        // One rotten data frame: its chunk also reads the plan's parity.
        let frame = |c: u64| (a.meta().slice_len(c) + FRAME_TRAILER_LEN) as u64;
        let path = a.shard_path(3);
        let clean = fs::read(&path).unwrap();
        let mut bytes = clean.clone();
        bytes[crate::format::HEADER_LEN + 2 * frame(0) as usize + 11] ^= 0x20;
        fs::write(&path, bytes).unwrap();
        assert_eq!(a.codec().repair_sources(&[3]).unwrap(), [0, 1, 2, 4, 5, 6, 7, 8, 9, 10]);
        let report = extract(&a);
        assert_eq!(report.chunks_repaired, 1);
        assert_eq!(report.bytes_read, 10 * all + frame(2));
        fs::write(&path, clean).unwrap();

        // Two data files missing: eight data frames and the plan's two
        // parity frames a chunk, not all twelve survivors.
        fs::remove_file(a.shard_path(1)).unwrap();
        fs::remove_file(a.shard_path(6)).unwrap();
        let plan = a.codec().repair_sources(&[1, 6]).unwrap();
        assert_eq!(plan.iter().filter(|&&i| i >= 10).count(), 2);
        let report = extract(&a);
        assert_eq!(report.chunks_repaired, 13);
        assert_eq!(report.bytes_read, 10 * all);

        // LRC(8, 4, 4) without data shard 2: seven data frames and the
        // group's local parity 8.
        let spec = CodecSpec::lrc(8, 4, 4);
        let a = Archive::create_with_spec(&input, &dir.join("lrc"), &spec, 8192).unwrap();
        fs::remove_file(a.shard_path(2)).unwrap();
        assert_eq!(extract(&a).bytes_read, 8 * frames(&a));
        fs::remove_dir_all(&dir).unwrap();
    }
}
