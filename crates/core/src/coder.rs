//! The pluggable-codec boundary: a self-describing [`CodecSpec`] that
//! travels in archive headers and store manifests, the [`codec_for`]
//! registry that resolves a spec into a boxed codec, and the
//! [`ErasureCoder`] trait that boxed codec is — an identity over one
//! engine.
//!
//! The paper's point — any XOR-able generator matrix rides the same
//! SLP compile/optimize/execute pipeline — is what makes this boundary
//! cheap: every implementation below ([`RsCodec`], [`LrcCodec`],
//! [`ArrayCodec`]) is a matrix constructor around one [`XorCodec`] that
//! it derefs to. The trait adds only [`ErasureCoder::spec`]; every
//! operation is the engine's own method, reached through `Deref`.

use crate::codec::{RsCodec, PACKETS_PER_SHARD};
use crate::config::RsConfig;
use crate::lrc::LrcCodec;
use array_codes::{ArrayCodec, EcError, XorCodec};
use std::ops::Deref;

/// Wire identity of a registered codec family.
///
/// The `u16` values are **stable on-disk identifiers** (archive header
/// v2, store manifest v2) — never renumber them. `0` is reserved as
/// "absent" so a zero-filled v1 field can never alias a real codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CodecId {
    /// Systematic Reed–Solomon over GF(2^8) (the paper's codec).
    Rs,
    /// EVENODD two-parity array code.
    EvenOdd,
    /// RDP two-parity array code.
    Rdp,
    /// Locally-repairable code: per-group XOR parity + global RS rows.
    Lrc,
}

impl CodecId {
    /// The stable on-disk identifier.
    pub fn wire(self) -> u16 {
        match self {
            CodecId::Rs => 1,
            CodecId::EvenOdd => 2,
            CodecId::Rdp => 3,
            CodecId::Lrc => 4,
        }
    }

    /// Inverse of [`CodecId::wire`].
    pub fn from_wire(v: u16) -> Result<CodecId, EcError> {
        match v {
            1 => Ok(CodecId::Rs),
            2 => Ok(CodecId::EvenOdd),
            3 => Ok(CodecId::Rdp),
            4 => Ok(CodecId::Lrc),
            other => Err(EcError::UnknownCodec(format!("wire id {other}"))),
        }
    }

    /// The registry name (what `--codec` accepts).
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Rs => "rs",
            CodecId::EvenOdd => "evenodd",
            CodecId::Rdp => "rdp",
            CodecId::Lrc => "lrc",
        }
    }
}

/// Everything needed to reconstruct a codec from a self-describing
/// artifact: the family, the geometry, and the family's parameters.
///
/// Equality is exact — two specs describe interchangeable codecs iff
/// they are `==` — which is what geometry checks compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CodecSpec {
    /// Codec family.
    pub id: CodecId,
    /// Number of data shards `n`.
    pub data_shards: usize,
    /// Number of parity shards `p` (for LRC: locals + globals).
    pub parity_shards: usize,
    /// LRC locality-group size `r`; `0` for every other family.
    pub group_size: usize,
}

impl CodecSpec {
    /// Spec of the default RS(n, p) codec.
    pub fn rs(data_shards: usize, parity_shards: usize) -> CodecSpec {
        CodecSpec { id: CodecId::Rs, data_shards, parity_shards, group_size: 0 }
    }

    /// Spec of an LRC(n, r) with `parity_shards` total parity rows
    /// (`n/r` locals + the rest global).
    pub fn lrc(data_shards: usize, parity_shards: usize, group_size: usize) -> CodecSpec {
        CodecSpec { id: CodecId::Lrc, data_shards, parity_shards, group_size }
    }

    /// Parse a `--codec` name against a target geometry. Accepted names:
    /// `rs`, `evenodd`, `rdp`, `lrc` (group size `n/2`), `lrc:<r>`.
    pub fn parse(name: &str, data_shards: usize, parity_shards: usize) -> Result<CodecSpec, EcError> {
        let (n, p) = (data_shards, parity_shards);
        let spec = match name {
            "rs" => CodecSpec::rs(n, p),
            "evenodd" => CodecSpec { id: CodecId::EvenOdd, data_shards: n, parity_shards: p, group_size: 0 },
            "rdp" => CodecSpec { id: CodecId::Rdp, data_shards: n, parity_shards: p, group_size: 0 },
            "lrc" => {
                if n == 0 || n % 2 != 0 {
                    return Err(EcError::InvalidParams(format!(
                        "lrc without an explicit group size splits the data in \
                         half, which needs an even shard count (got n = {n}); \
                         use lrc:<r>"
                    )));
                }
                CodecSpec::lrc(n, p, n / 2)
            }
            other => {
                if let Some(r) = other.strip_prefix("lrc:") {
                    let r: usize = r.parse().map_err(|_| {
                        EcError::UnknownCodec(format!("bad lrc group size in `{other}`"))
                    })?;
                    CodecSpec::lrc(n, p, r)
                } else {
                    return Err(EcError::UnknownCodec(format!(
                        "`{other}` (known: rs, evenodd, rdp, lrc, lrc:<r>)"
                    )));
                }
            }
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Rebuild a spec from its on-disk form (wire id + group size +
    /// geometry), validating it describes a constructible codec.
    pub fn from_wire(
        wire_id: u16,
        group_size: u16,
        data_shards: usize,
        parity_shards: usize,
    ) -> Result<CodecSpec, EcError> {
        let spec = CodecSpec {
            id: CodecId::from_wire(wire_id)?,
            data_shards,
            parity_shards,
            group_size: group_size as usize,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Display / CLI name: `rs`, `evenodd`, `rdp`, or `lrc:<r>`.
    pub fn name(&self) -> String {
        match self.id {
            CodecId::Lrc => format!("lrc:{}", self.group_size),
            other => other.name().to_string(),
        }
    }

    /// Shard lengths of this codec are multiples of this alignment:
    /// 8 packets for the GF(2^8) codecs, `w = prime − 1` symbols for the
    /// array codes.
    pub fn shard_alignment(&self) -> Result<usize, EcError> {
        self.validate()?;
        Ok(match self.id {
            CodecId::Rs | CodecId::Lrc => PACKETS_PER_SHARD,
            CodecId::EvenOdd => {
                array_codes::next_prime(self.data_shards.max(3)) - 1
            }
            CodecId::Rdp => {
                array_codes::next_prime((self.data_shards + 1).max(3)) - 1
            }
        })
    }

    /// Check the spec describes a constructible codec without paying for
    /// SLP compilation (cheap enough for header validation).
    pub fn validate(&self) -> Result<(), EcError> {
        let (n, p) = (self.data_shards, self.parity_shards);
        if n == 0 || p == 0 {
            return Err(EcError::InvalidParams(
                "need at least one data and one parity shard".into(),
            ));
        }
        match self.id {
            CodecId::Rs | CodecId::Lrc => {
                if n + p > 255 {
                    return Err(EcError::InvalidParams(format!(
                        "n + p = {} exceeds the GF(2^8) limit of 255",
                        n + p
                    )));
                }
            }
            CodecId::EvenOdd | CodecId::Rdp => {
                if p != 2 {
                    return Err(EcError::InvalidParams(format!(
                        "{} is a two-parity array code, got p = {p}",
                        self.id.name()
                    )));
                }
            }
        }
        match self.id {
            CodecId::Lrc => {
                let r = self.group_size;
                if r < 2 || r > n || n % r != 0 || p <= n / r {
                    return Err(EcError::InvalidParams(format!(
                        "invalid LRC geometry: n = {n}, p = {p}, r = {r} \
                         (need r | n, 2 ≤ r ≤ n, p > n/r)"
                    )));
                }
            }
            _ => {
                if self.group_size != 0 {
                    return Err(EcError::InvalidParams(format!(
                        "codec {} takes no group size, got {}",
                        self.id.name(),
                        self.group_size
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The names [`CodecSpec::parse`] accepts (CLI help / matrix drivers).
pub fn codec_names() -> &'static [&'static str] {
    &["rs", "evenodd", "rdp", "lrc"]
}

/// Resolve a spec into a boxed codec with the default engine
/// configuration (env-tunable kernel/parallelism).
pub fn codec_for(spec: &CodecSpec) -> Result<Box<dyn ErasureCoder>, EcError> {
    codec_for_with(spec, RsConfig::new(spec.data_shards, spec.parity_shards))
}

/// Resolve a spec into a boxed codec, carrying the engine knobs
/// (optimization, blocksize, kernel, parallelism) from
/// `cfg` into every family; the geometry always comes from the spec.
pub fn codec_for_with(
    spec: &CodecSpec,
    cfg: RsConfig,
) -> Result<Box<dyn ErasureCoder>, EcError> {
    spec.validate()?;
    let (data_shards, parity_shards) = (spec.data_shards, spec.parity_shards);
    let cfg = RsConfig { data_shards, parity_shards, ..cfg };
    Ok(match spec.id {
        CodecId::Rs => Box::new(RsCodec::with_config(cfg)?),
        CodecId::Lrc => Box::new(LrcCodec::with_config(cfg, spec.group_size)?),
        CodecId::EvenOdd => Box::new(ArrayCodec::evenodd_with(spec.data_shards, cfg.engine)?),
        CodecId::Rdp => Box::new(ArrayCodec::rdp_with(spec.data_shards, cfg.engine)?),
    })
}

/// A codec the upper layers hold as a `Box<dyn ErasureCoder>` resolved
/// from an artifact's own [`CodecSpec`]: its identity ([`spec`]) over
/// the one [`XorCodec`] engine it derefs to, which carries every
/// operation and its documentation.
///
/// Geometry contract: `total_shards()` shard buffers, shard lengths equal
/// and a multiple of [`XorCodec::packets_per_shard`], data split
/// row-major by [`XorCodec::split_data`].
///
/// [`spec`]: ErasureCoder::spec
pub trait ErasureCoder: Deref<Target = XorCodec> + Send + Sync {
    /// The self-describing identity of this codec.
    fn spec(&self) -> CodecSpec;
}

impl ErasureCoder for RsCodec {
    fn spec(&self) -> CodecSpec {
        CodecSpec::rs(self.data_shards(), self.parity_shards())
    }
}

impl ErasureCoder for LrcCodec {
    fn spec(&self) -> CodecSpec {
        CodecSpec::lrc(self.data_shards(), self.parity_shards(), self.group_size())
    }
}

impl ErasureCoder for ArrayCodec {
    fn spec(&self) -> CodecSpec {
        CodecSpec {
            id: if self.is_evenodd() { CodecId::EvenOdd } else { CodecId::Rdp },
            data_shards: self.data_shards(),
            parity_shards: 2,
            group_size: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for (name, n, p) in [("rs", 10, 4), ("evenodd", 5, 2), ("rdp", 4, 2), ("lrc:5", 10, 4)] {
            let spec = CodecSpec::parse(name, n, p).unwrap();
            assert_eq!(spec.name(), name, "name round-trip");
            assert_eq!(
                CodecSpec::from_wire(spec.id.wire(), spec.group_size as u16, n, p).unwrap(),
                spec,
                "wire round-trip"
            );
        }
        // Bare `lrc` defaults to groups of n/2.
        let spec = CodecSpec::parse("lrc", 10, 3).unwrap();
        assert_eq!(spec.group_size, 5);
        assert_eq!(spec.name(), "lrc:5");
    }

    #[test]
    fn unknown_and_invalid_specs_are_typed() {
        assert!(matches!(
            CodecSpec::parse("reed-solomon", 10, 4),
            Err(EcError::UnknownCodec(_))
        ));
        assert!(matches!(
            CodecSpec::parse("lrc:x", 10, 4),
            Err(EcError::UnknownCodec(_))
        ));
        assert!(matches!(
            CodecId::from_wire(0),
            Err(EcError::UnknownCodec(_))
        ));
        assert!(matches!(
            CodecId::from_wire(999),
            Err(EcError::UnknownCodec(_))
        ));
        // Structurally known but unconstructible.
        assert!(matches!(
            CodecSpec::parse("evenodd", 5, 3),
            Err(EcError::InvalidParams(_))
        ));
        assert!(matches!(
            CodecSpec::parse("lrc:3", 10, 4),
            Err(EcError::InvalidParams(_))
        ));
        assert!(matches!(
            CodecSpec::parse("lrc", 9, 4),
            Err(EcError::InvalidParams(_))
        ));
        assert!(matches!(
            CodecSpec::from_wire(1, 5, 10, 4),
            Err(EcError::InvalidParams(_))
        ));
    }

    #[test]
    fn registry_resolves_every_family() {
        for (name, n, p) in [("rs", 6, 3), ("evenodd", 5, 2), ("rdp", 4, 2), ("lrc:3", 6, 3)] {
            let spec = CodecSpec::parse(name, n, p).unwrap();
            let codec = codec_for(&spec).unwrap();
            assert_eq!(codec.data_shards(), n, "{name}");
            assert_eq!(codec.parity_shards(), p, "{name}");
            assert_eq!(codec.spec(), spec, "{name}: spec must round-trip");

            let data: Vec<u8> = (0..n * 64).map(|i| (i * 31 + 7) as u8).collect();
            let shards = codec.encode(&data).unwrap();
            assert_eq!(shards.len(), n + p);
            assert!(shards[0].len().is_multiple_of(codec.packets_per_shard()));
            assert!(codec.verify(&shards).unwrap());
            let mut rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
            rx[0] = None;
            rx[n] = None;
            assert_eq!(codec.decode(&rx, data.len()).unwrap(), data, "{name}");
            codec.reconstruct(&mut rx).unwrap();
            assert!(codec
                .verify(&rx.iter().map(|s| s.clone().unwrap()).collect::<Vec<_>>())
                .unwrap());
        }
    }

    #[test]
    fn codec_for_with_carries_engine_knobs() {
        let spec = CodecSpec::parse("rs", 4, 2).unwrap();
        // Geometry always comes from the spec, even if cfg disagrees.
        let cfg = RsConfig::new(9, 9).parallelism(1);
        let codec = codec_for_with(&spec, cfg).unwrap();
        assert_eq!(codec.data_shards(), 4);
        assert_eq!(codec.parity_shards(), 2);

        // Every family gets the whole engine configuration, not just the
        // parallelism: an array code honours the kernel and blocksize it
        // was resolved with.
        let cfg = RsConfig::new(5, 2).kernel(crate::Kernel::Scalar).blocksize(64);
        let spec = CodecSpec::parse("evenodd", 5, 2).unwrap();
        let codec = codec_for_with(&spec, cfg).unwrap();
        assert_eq!(*codec.engine_config(), cfg.engine);
        let data: Vec<u8> = (0..5 * 4 * 9 + 3).map(|i| (i * 151 + 17) as u8).collect();
        let shards = codec.encode(&data).unwrap();
        let mut patterns = 0;
        for a in 0..7 {
            for b in a + 1..7 {
                let mut rx: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
                rx[a] = None;
                rx[b] = None;
                assert_eq!(codec.decode(&rx, data.len()).unwrap(), data, "lost {a},{b}");
                patterns += 1;
            }
        }
        assert_eq!(patterns, 21);
        // An engine knob the engine rejects is rejected for every family.
        assert!(matches!(
            codec_for_with(&spec, cfg.blocksize(0)).map(|_| ()),
            Err(EcError::InvalidParams(_))
        ));
    }
}
