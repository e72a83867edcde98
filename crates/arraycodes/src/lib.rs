//! The XOR-linear codec engine, and the two array codes that need
//! nothing else.
//!
//! The paper's observation is that XOR-based erasure coding *is*
//! "bit-matrix → SLP → optimize → run"; which code the bit-matrix came
//! from is irrelevant after the first step. This crate is that
//! observation as code:
//!
//! * [`XorCodec`] — the one engine. Given `(n, p, w)`, a `p·w × n·w`
//!   parity bit-matrix and optional locality groups it owns the only
//!   implementation of encode, delta update, partial re-encode, decode
//!   (pick surviving packets, invert over GF(2), optimize the recovery
//!   rows), repair planning and verification, the one program table,
//!   the only shard ↔ packet layout and the only error enum
//!   ([`EcError`]). Reed–Solomon and LRC (`ec-core`) are constructors
//!   that expand a GF(2^8) matrix to bits and hand it over.
//! * [`ArrayCodec`] — EVENODD and RDP, the classical two-parity *array
//!   codes* the paper's §7.6 comparison table quotes (the `·E` and `·R`
//!   entries from Zhou & Tian's study), as two more constructors:
//!   - **EVENODD** (Blaum–Brady–Bruck–Menon 1995): `p` prime, up to `p`
//!     data disks of `p−1` symbols; parity disk `P` holds row parities,
//!     disk `Q` holds diagonal parities adjusted by the common term `S`
//!     (the "missing diagonal");
//!   - **RDP** (Corbett et al., FAST '04): `p` prime, up to `p−1` data
//!     disks of `p−1` symbols; row parity at column `p−1`, and diagonal
//!     parity over data *and* row parity.
//!
//! **No field arithmetic.** This crate has no dependency of its own on
//! the workspace's GF(2^8) field crate and calls none of it (that crate
//! is in the build graph only because `bitmatrix` hosts the GF(2^8) →
//! bit-matrix expansion). Every
//! operation here is GF(2) linear algebra on bit-matrices plus XOR
//! programs; GF(2^8) appears only in `ec-core`'s RS/LRC matrix
//! constructors and in its test oracle. CI greps this crate for the
//! field crate's name to keep it so.
//!
//! **The name.** `array-codes` is narrower than the content since the
//! engine moved in; the package name is recorded in the benchmark's lock
//! file, so a rename waits for a change that may touch it.

mod array;
mod codec;
mod error;
mod evenodd;
mod layout;
mod lru;
mod rdp;

pub use array::ArrayCodec;
pub use codec::{EngineConfig, XorCodec};
pub use error::EcError;
pub use evenodd::evenodd_parity_bitmatrix;
pub use rdp::rdp_parity_bitmatrix;

/// Smallest prime `≥ n` (array-code parameter helper).
pub fn next_prime(n: usize) -> usize {
    fn is_prime(x: usize) -> bool {
        if x < 2 {
            return false;
        }
        let mut d = 2;
        while d * d <= x {
            if x.is_multiple_of(d) {
                return false;
            }
            d += 1;
        }
        true
    }
    (n.max(2)..)
        .find(|&x| is_prime(x))
        .expect("primes are unbounded")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_prime_values() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(2), 2);
        assert_eq!(next_prime(3), 3);
        assert_eq!(next_prime(8), 11);
        assert_eq!(next_prime(10), 11);
        assert_eq!(next_prime(12), 13);
    }
}
