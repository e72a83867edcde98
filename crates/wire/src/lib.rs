//! `ec-wire` — the byte-level primitives shared by every durable or
//! networked surface of the stack.
//!
//! The streaming archive format (`ec-stream`, `docs/FORMAT.md`) and the
//! object-store wire protocol (`ec-store`, `docs/STORE.md`) both frame
//! their payloads with CRC-32 so that bit-rot and line noise are
//! *attributable*: a checksum lives next to the bytes it covers, and a
//! mismatch names the damaged shard or the hostile frame instead of
//! surfacing as garbage data. This crate is the single home of that
//! checksum so the two formats can never drift apart.
//!
//! CRC-32 is bit-rot evidence, not tamper evidence: any mutation that
//! XORs in a multiple of the generator polynomial passes the checksum.
//! The [`sha256`] and [`merkle`] modules are the cryptographic layer on
//! top — per-chunk SHA-256 leaf hashes rolled into Merkle roots, so a
//! root comparison proves whole-shard integrity in 32 bytes and a
//! subtree walk localizes damage to exact chunk indices. Both formats
//! store these trees (shard-file hash trailer, manifest shard roots),
//! again from this single home.

mod crc;
pub mod merkle;
mod sha256;

pub use crc::{crc32, crc_preserving_flip, Crc32};
pub use sha256::{hash_hex, sha256, Sha256, SHA256_LEN};

use std::io::{IoSlice, Write};

/// The CRC-32 and SHA-256 kernels this process runs, as `(crc, sha)`
/// names — `("pclmul", "sha-ni+avx512x16")` where the CPU has all the
/// instructions, `("slice16", "portable")` where it has none; after the
/// `+` is the lane kernel [`merkle::leaf_hashes_into`] batches with,
/// when there is one. Detected once, on first use; there is no
/// override, because the output bytes do not depend on it.
pub fn integrity_kernels() -> (&'static str, &'static str) {
    (crc::selected().0, sha256::selected_name())
}

/// A fresh digest bound to each kernel the running CPU offers, by name,
/// fastest first and the portable one always last, and likewise each
/// way of hashing a batch of Merkle leaves — what
/// `tests/kernel_equivalence.rs` sweeps. Everything else gets the
/// process-wide choice from [`Crc32::new`] / [`Sha256::new`] /
/// [`merkle::leaf_hashes_into`].
#[doc(hidden)]
pub struct Implementations {
    pub crc32: Vec<(&'static str, Crc32)>,
    pub sha256: Vec<(&'static str, Sha256)>,
    pub leaf_batch: Vec<(&'static str, merkle::LeafBatch)>,
}

#[doc(hidden)]
pub fn implementations() -> Implementations {
    Implementations {
        crc32: crc::implementations(),
        sha256: sha256::implementations(),
        leaf_batch: merkle::LeafBatch::implementations(),
    }
}

/// Write the concatenation of `bufs` from byte offset `*written` on,
/// gathering what is left into one `write_vectored` call per attempt —
/// one `writev(2)` on a socket with room or on a file, however many
/// pieces the frame or chunk has. `*written` advances as bytes are
/// accepted, so after an error (a non-blocking socket's `WouldBlock`
/// included) the same call resumes where the stream stopped.
pub fn write_gathered(
    w: &mut impl Write,
    bufs: &[&[u8]],
    written: &mut usize,
) -> std::io::Result<()> {
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    let mut slices = Vec::with_capacity(bufs.len());
    while *written < total {
        slices.clear();
        let mut skip = *written;
        for buf in bufs {
            if skip >= buf.len() {
                skip -= buf.len();
            } else {
                slices.push(IoSlice::new(&buf[skip..]));
                skip = 0;
            }
        }
        match w.write_vectored(&slices) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => *written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
