//! `ec-core` — the paper's erasure-coding library: XOR-based Reed–Solomon
//! coding driven by optimized straight-line programs.
//!
//! # How it works
//!
//! Encoding RS(n, p) multiplies the data by a systematic coding matrix over
//! GF(2^8). This crate takes the XOR-based route (§1 of the paper):
//!
//! 1. the coding matrix is expanded to a bit-matrix over F2
//!    ([`bitmatrix`]) — **this is all [`RsCodec`] and [`LrcCodec`] do**:
//!    they are matrix constructors (validate the geometry, build the
//!    GF(2^8) rows, expand) that hand the result to the shared
//!    [`XorCodec`] engine and deref to it;
//! 2. the bit-matrix product *is* a straight-line program of array XORs
//!    ([`slp`]);
//! 3. that program is compressed (XorRePair), fused (deforestation) and
//!    scheduled (pebble game) by [`slp_optimizer`];
//! 4. the optimized program is executed blockwise with SIMD XOR kernels by
//!    [`xor_runtime`].
//!
//! Steps 2–4, and every operation built on them, belong to the engine
//! (`array-codes`), which knows no field: decoding picks surviving
//! packets until the generator rows reach full rank, inverts that square
//! **over GF(2)**, and runs the same pipeline on the recovery rows;
//! programs are kept in one program table. For an RS or LRC matrix this
//! is bit-for-bit the expansion of the GF(2^8) inverse — the expansion is
//! an injective ring homomorphism — so the paper's program sizes (755
//! and 1368 XORs for RS(10, 4)) are unchanged. GF(2^8) arithmetic itself
//! appears only in the two constructors and in the test oracle
//! (`reference.rs`). The registry ([`codec_for`], [`ErasureCoder`]) puts
//! the array codes behind the same interface.
//!
//! # Quick start
//!
//! ```
//! use ec_core::RsCodec;
//!
//! let codec = RsCodec::new(10, 4).unwrap();
//! let data = vec![42u8; 10 * 80]; // any length works; shards are padded
//! let shards = codec.encode(&data).unwrap();
//!
//! // lose any 4 of the 14 shards
//! let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
//! for i in [0, 3, 11, 13] {
//!     received[i] = None;
//! }
//! let restored = codec.decode(&received, data.len()).unwrap();
//! assert_eq!(restored, data);
//! ```
//!
//! # Shard layout
//!
//! Each RS/LRC shard is striped into `w = 8` equal *packets*; bit `t` of packets
//! `0..8` of a shard forms one GF(2^8) symbol (the Blömer et al.
//! construction). Parity produced this way is self-consistent — encode →
//! erase → decode always restores the original bytes — but its raw bytes
//! are a bit-permutation of what a byte-oriented GF codec (e.g. ISA-L)
//! would store; this is inherent to XOR-based EC, not a quirk of this
//! implementation. A deliberately slow bit-sliced GF oracle in the test
//! suite pins the exact correspondence down.

mod codec;
mod coder;
mod config;
mod lrc;

pub use array_codes::{EcError, EngineConfig, XorCodec};
pub use codec::RsCodec;
pub use coder::{codec_for, codec_for_with, codec_names, CodecId, CodecSpec, ErasureCoder};
pub use config::RsConfig;
pub use lrc::LrcCodec;
pub use slp_optimizer::{Compression, OptConfig, Scheduling};
pub use xor_runtime::Kernel;

#[cfg(test)]
mod reference;
#[cfg(test)]
mod proptests;
