//! # xorslp_ec
//!
//! A from-scratch Rust reproduction of *"Accelerating XOR-based Erasure
//! Coding using Program Optimization Techniques"* (Uezato, SC '21):
//! Reed–Solomon erasure coding where encoding and decoding are straight-
//! line XOR programs, optimized with grammar compression (XorRePair),
//! deforestation (XOR fusion), and pebble-game scheduling, then executed
//! blockwise with SIMD kernels.
//!
//! This crate is a façade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`codec`] | `ec-core` | the RS(n,p) and LRC matrix constructors and the [`ErasureCoder`] registry — start here |
//! | [`arrays`] | `array-codes` | the [`XorCodec`] engine every family runs on, plus EVENODD / RDP |
//! | [`gf`] | `gf256` | GF(2^8) field and matrix algebra |
//! | [`bits`] | `bitmatrix` | F2 matrices, companion expansion |
//! | [`slp`] | `slp` | SLP IR, semantics, metrics, LRU cache model |
//! | [`opt`] | `slp-optimizer` | RePair/XorRePair, fusion, schedulers |
//! | [`runtime`] | `xor-runtime` | XOR kernels, arenas, blocked executor, striped execution on one worker pool |
//! | [`baseline`] | `gf-baseline` | ISA-L-style table-driven codec |
//! | [`stream`] | `ec-stream` | streaming archives: shard format, scrub & repair |
//! | [`store`] | `ec-store` | networked object store: shard nodes, placement, degraded reads, online repair |
//! | [`wire`] | `ec-wire` | CRC-32, SHA-256 and Merkle trees shared by the archive and store formats |
//!
//! ## Quick start
//!
//! ```
//! use xorslp_ec::RsCodec;
//!
//! let codec = RsCodec::new(10, 4).unwrap();
//! let data: Vec<u8> = (0..=255).cycle().take(64 * 1024).collect();
//!
//! // encode into 10 data + 4 parity shards
//! let shards = codec.encode(&data).unwrap();
//!
//! // any 4 shards may vanish
//! let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
//! for lost in [2, 4, 5, 6] {
//!     received[lost] = None;
//! }
//!
//! // …and the data comes back
//! assert_eq!(codec.decode(&received, data.len()).unwrap(), data);
//! ```
//!
//! ## Delta updates
//!
//! Parity is linear in the data, so a single-shard write never needs a
//! full re-encode: [`XorCodec::update_parity`] (every codec derefs to
//! the engine) runs the cached *column* program of the changed shard
//! over `old ⊕ new` and accumulates the result into the parity shards,
//! and [`XorCodec::encode_parity_partial`] re-encodes only a chosen
//! subset of parity rows (partial repair).
//!
//! ```
//! use xorslp_ec::RsCodec;
//!
//! let codec = RsCodec::new(4, 2).unwrap();
//! let data: Vec<Vec<u8>> = (0..4u8).map(|k| vec![k; 64]).collect();
//! let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
//! let mut parity = vec![vec![0u8; 64]; 2];
//! {
//!     let mut prefs: Vec<&mut [u8]> =
//!         parity.iter_mut().map(Vec::as_mut_slice).collect();
//!     codec.encode_parity(&refs, &mut prefs).unwrap();
//!
//!     // Overwrite shard 1 and pay one column's XORs, not four.
//!     let new_shard = vec![0xA5u8; 64];
//!     codec.update_parity(1, &data[1], &new_shard, &mut prefs).unwrap();
//! }
//! ```
//!
//! ## Streaming archives
//!
//! Files of any size stream through the codec in bounded memory:
//! [`Archive`] writes `n + p` self-describing shard files (per-chunk
//! CRC-32, CRC-protected header — see `docs/FORMAT.md`), survives the
//! loss of any `p` of them, and its `verify` / `scrub` / `repair` verbs
//! detect and fix truncated or bit-flipped shards in place. The
//! `xorslp-archive` binary wires the same verbs for the command line.
//!
//! ## Pluggable codecs
//!
//! Archives and clusters hold a boxed [`ErasureCoder`]: a codec's
//! identity over the one [`XorCodec`] engine it derefs to, which carries
//! every operation. A [`CodecSpec`] names a family + geometry
//! (`rs`, `evenodd`, `rdp`, `lrc:<r>`), [`codec_for`] resolves it into
//! a boxed codec, and every self-describing artifact records the spec's
//! wire id so `Archive::open` / the store manifest resolve the *right*
//! codec back out — unknown or mismatched codecs are typed errors. The
//! locally-repairable [`LrcCodec`] repairs a single lost shard from its
//! locality group (`r` reads instead of `n`); see "Choosing a codec" in
//! the README.

pub use array_codes::{ArrayCodec, EngineConfig, XorCodec};
pub use ec_core::{
    codec_for, codec_for_with, codec_names, CodecId, CodecSpec, Compression, EcError,
    ErasureCoder, Kernel, LrcCodec, OptConfig, RsCodec, RsConfig, Scheduling,
};
pub use ec_store::{Cluster, NodeHandle, StoreError};
pub use ec_stream::{
    Archive, ArchiveMeta, ShardState, StreamDecoder, StreamEncoder, StreamError,
};
pub use ec_wire::{crc32, Crc32};

/// The erasure codec (re-export of `ec-core`).
pub mod codec {
    pub use ec_core::*;
}

/// GF(2^8) field and matrices (re-export of `gf256`).
pub mod gf {
    pub use gf256::*;
}

/// F2 bit-matrices and the companion map (re-export of `bitmatrix`).
pub mod bits {
    pub use bitmatrix::*;
}

/// Straight-line program IR, semantics and cost models (re-export of
/// `slp`).
pub mod slp {
    pub use slp::*;
}

/// SLP optimization passes (re-export of `slp-optimizer`).
pub mod opt {
    pub use slp_optimizer::*;
}

/// Kernels, arenas and the blocked executor (re-export of `xor-runtime`).
pub mod runtime {
    pub use xor_runtime::*;
}

/// The ISA-L-style table-driven baseline codec (re-export of
/// `gf-baseline`).
pub mod baseline {
    pub use gf_baseline::*;
}

/// The XOR-linear codec engine every family runs on, and the EVENODD and
/// RDP two-parity array codes (re-export of `array-codes`).
pub mod arrays {
    pub use array_codes::*;
}

/// Streaming erasure-coded archives: chunked encoder/decoder, the
/// self-describing shard-file format, and the scrub & repair [`Archive`]
/// API (re-export of `ec-stream`).
pub mod stream {
    pub use ec_stream::*;
}

/// The networked erasure-coded object store: shard nodes, rendezvous
/// placement, degraded reads, delta overwrites, online repair and
/// background scrub (re-export of `ec-store`).
pub mod store {
    pub use ec_store::*;
}

/// Shared byte-level primitives (CRC-32) of the archive format and the
/// store wire protocol (re-export of `ec-wire`).
pub mod wire {
    pub use ec_wire::*;
}
