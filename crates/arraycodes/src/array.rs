//! [`ArrayCodec`]: EVENODD and RDP as two parity bit-matrix constructors
//! over the [`XorCodec`] engine.

use crate::codec::{EngineConfig, XorCodec};
use crate::error::EcError;
use crate::{evenodd_parity_bitmatrix, next_prime, rdp_parity_bitmatrix};

/// Which array code a codec implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    EvenOdd,
    Rdp,
}

/// A two-parity array codec (`k` data disks + 2 parity disks).
///
/// Shards are striped into `w = prime − 1` packets (the code's symbol
/// count), so shard lengths must be multiples of `w`; the convenience
/// [`XorCodec::encode`] pads as needed. Derefs to [`XorCodec`], which
/// holds every operation; this type only picks the bit-matrix.
pub struct ArrayCodec {
    engine: XorCodec,
    kind: Kind,
    prime: usize,
}

impl ArrayCodec {
    /// EVENODD with `k` data disks on the default engine
    /// ([`EngineConfig::new`]); the prime is the smallest ≥ max(k, 3).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn evenodd(k: usize) -> ArrayCodec {
        ArrayCodec::evenodd_with(k, EngineConfig::new()).expect("need at least one data disk")
    }

    /// RDP with `k` data disks on the default engine; the prime is the
    /// smallest ≥ max(k + 1, 3).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn rdp(k: usize) -> ArrayCodec {
        ArrayCodec::rdp_with(k, EngineConfig::new()).expect("need at least one data disk")
    }

    /// [`ArrayCodec::evenodd`] on an explicit engine configuration.
    pub fn evenodd_with(k: usize, engine: EngineConfig) -> Result<ArrayCodec, EcError> {
        ArrayCodec::build(Kind::EvenOdd, k, next_prime(k.max(3)), engine)
    }

    /// [`ArrayCodec::rdp`] on an explicit engine configuration.
    pub fn rdp_with(k: usize, engine: EngineConfig) -> Result<ArrayCodec, EcError> {
        ArrayCodec::build(Kind::Rdp, k, next_prime((k + 1).max(3)), engine)
    }

    fn build(
        kind: Kind,
        k: usize,
        prime: usize,
        engine: EngineConfig,
    ) -> Result<ArrayCodec, EcError> {
        if k == 0 {
            return Err(EcError::InvalidParams("need at least one data disk".into()));
        }
        let parity = match kind {
            Kind::EvenOdd => evenodd_parity_bitmatrix(k, prime),
            Kind::Rdp => rdp_parity_bitmatrix(k, prime),
        };
        let engine = XorCodec::new(k, 2, prime - 1, &parity, Vec::new(), engine)?;
        Ok(ArrayCodec { engine, kind, prime })
    }

    /// Builder-style parallelism override (see
    /// [`EngineConfig::parallelism`](crate::EngineConfig::parallelism)):
    /// `0` = auto, `k ≥ 1` = at most `k` stripes per call on the shared
    /// worker pool; `1` runs serially and starts no thread.
    pub fn with_parallelism(mut self, parallelism: usize) -> ArrayCodec {
        self.engine = self.engine.with_parallelism(parallelism);
        self
    }

    /// Symbols (packets) per disk, `w = prime − 1`.
    pub fn symbols_per_shard(&self) -> usize {
        self.engine.packets_per_shard()
    }

    /// The prime parameter.
    pub fn prime(&self) -> usize {
        self.prime
    }

    /// Whether this codec is EVENODD (as opposed to RDP).
    pub fn is_evenodd(&self) -> bool {
        self.kind == Kind::EvenOdd
    }

    /// Human-readable code name.
    pub fn name(&self) -> String {
        let family = if self.is_evenodd() { "EVENODD" } else { "RDP" };
        format!("{family}(k={}, p={})", self.data_shards(), self.prime)
    }
}

impl std::ops::Deref for ArrayCodec {
    type Target = XorCodec;

    fn deref(&self) -> &XorCodec {
        &self.engine
    }
}
