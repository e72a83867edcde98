//! `ec-stream` — bounded-memory streaming erasure-coded archives on top
//! of the `ec-core` codec.
//!
//! The codec pipeline (expand → SLP → optimize → compile, executed by
//! the striped `xor-runtime` engine) works on in-memory shards; this
//! crate is the I/O subsystem that takes it to files of any size:
//!
//! * [`StreamEncoder`] / [`StreamDecoder`] pump any `Read`/`Write`
//!   through any registered [`ec_core::ErasureCoder`] in fixed-size
//!   chunks — memory is `O(chunk × (n + p))`, never `O(file)`, and
//!   steady-state chunk encodes are allocation-free (via
//!   [`ec_core::XorCodec::encode_into`]);
//! * the self-describing shard-file format (`docs/FORMAT.md`): magic,
//!   version, codec identity and parameters, chunk geometry, original
//!   length, a CRC-32 per chunk payload and a CRC-32 over the header —
//!   shards are recoverable with no side-channel files, and `open`
//!   resolves the recorded codec back through the registry;
//! * the integrity layer: every shard file ends in a
//!   [`HashTrailer`] — per-chunk SHA-256 leaf hashes, every shard's
//!   Merkle root, and the object root — so verify/extract/repair can
//!   catch and localize CRC-preserving tampering, elect the true roots
//!   by majority when trailers disagree, and prove a repaired shard's
//!   bytes before publishing them (one format version is written and
//!   read; any other is a typed refusal);
//! * [`Archive`]: `create` / `extract` / `verify` / `scrub` / `repair`
//!   over a directory of shard files. `verify` pinpoints missing,
//!   truncated and bit-flipped shards from the checksums; `repair`
//!   rebuilds them chunk by chunk through `reconstruct`, which re-encodes
//!   lost parity via the partial row-subset programs (a single bad
//!   parity shard costs one row program, not a full re-encode);
//! * the `xorslp-archive` CLI wiring those verbs.
//!
//! ```
//! use ec_stream::Archive;
//! use std::fs;
//!
//! let dir = std::env::temp_dir().join(format!("ec_stream_doctest_{}", std::process::id()));
//! let _ = fs::remove_dir_all(&dir);
//! fs::create_dir_all(&dir).unwrap();
//! let input = dir.join("input.bin");
//! fs::write(&input, (0..100_000u32).map(|i| (i * 7) as u8).collect::<Vec<_>>()).unwrap();
//!
//! // 4 data + 2 parity shards, 16 KiB chunks.
//! let archive = Archive::create(&input, &dir.join("shards"), 4, 2, 16 * 1024).unwrap();
//!
//! // Lose two shard files — any two.
//! fs::remove_file(archive.shard_path(1)).unwrap();
//! fs::remove_file(archive.shard_path(4)).unwrap();
//!
//! // Self-describing: reopen from the surviving files alone and repair.
//! let archive = Archive::open(&dir.join("shards")).unwrap();
//! assert_eq!(archive.verify().unwrap().damaged(), vec![1, 4]);
//! archive.repair().unwrap();
//! assert!(archive.verify().unwrap().all_ok());
//!
//! let restored = dir.join("restored.bin");
//! archive.extract(&restored).unwrap();
//! assert_eq!(fs::read(&input).unwrap(), fs::read(&restored).unwrap());
//! # fs::remove_dir_all(&dir).unwrap();
//! ```

mod archive;
mod decode;
mod encode;
mod error;
mod format;

pub use archive::{
    shard_file_name, Archive, RepairReport, ScrubReport, ShardState, VerifyReport,
};
// CRC-32 now lives in `ec-wire` (shared with the `ec-store` protocol);
// re-exported here so existing `ec_stream::crc32` callers keep working.
pub use ec_wire::{crc32, Crc32};
pub use decode::{ExtractReport, StreamDecoder};
pub use encode::StreamEncoder;
pub use error::StreamError;
pub use format::{
    ArchiveMeta, HashTrailer, ShardHeader, FORMAT_VERSION, HEADER_LEN, MAGIC,
};

#[cfg(test)]
mod proptests;
