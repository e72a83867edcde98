//! Locally-repairable code (LRC) on top of the shared SLP pipeline.
//!
//! The construction is the standard cloud-storage LRC (Huang et al.,
//! Azure LRC): the `n` data shards are split into `l = n / r` groups of
//! `r`; each group gets one *local* parity shard that is the plain XOR of
//! its members, and `g = p - l` *global* parity shards carry
//! Cauchy-style GF(2^8) rows over all data. Because every row — local or
//! global — is just another generator row of a systematic matrix, the
//! whole thing rides the existing bitmatrix → SLP → optimizer → kernel
//! pipeline unchanged, and the decode-program machinery compiles
//! local-group repair programs for free: losing one shard of a group
//! yields a program whose survivor set is exactly the `r` other members
//! of that group, so a single-node repair reads `r` shards instead of
//! `n`.
//!
//! LRC is **not** MDS: some erasure patterns of weight ≤ `p` are
//! unrecoverable (e.g. a whole group plus its local parity when the
//! globals cannot cover the deficit). Those surface as
//! [`EcError::SingularPattern`] — a typed refusal, never a garbage
//! decode.

use crate::codec::engine_over;
use crate::coder::CodecSpec;
use crate::config::RsConfig;
use array_codes::{EcError, XorCodec};
use gf256::{Gf, GfMatrix};

/// A locally-repairable code LRC(n, r, g): `n` data shards in groups of
/// `r`, one XOR local parity per group, `g` global parity shards.
///
/// Derefs to the [`XorCodec`] engine, so the full codec surface
/// (`encode`, `decode`, `reconstruct`, `update_parity`,
/// `repair_sources`, …) is available directly; the decode machinery is
/// locality-aware through the matrix's group annotations.
pub struct LrcCodec {
    engine: XorCodec,
    group_size: usize,
}

impl std::fmt::Debug for LrcCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LrcCodec")
            .field("data_shards", &self.engine.data_shards())
            .field("group_size", &self.group_size)
            .field("local_parity", &self.local_parity())
            .field("global_parity", &self.global_parity())
            .finish()
    }
}

impl LrcCodec {
    /// Create an LRC with `n` data shards in groups of `r` and `g`
    /// global parity shards (total parity `p = n/r + g`), using the
    /// paper's default engine configuration.
    pub fn new(data_shards: usize, group_size: usize, global_parity: usize) -> Result<LrcCodec, EcError> {
        let locals = data_shards.checked_div(group_size).unwrap_or(0);
        LrcCodec::with_config(
            RsConfig::new(data_shards, locals + global_parity),
            group_size,
        )
    }

    /// Create an LRC from an explicit configuration. `cfg.parity_shards`
    /// counts *all* parity — the `n / group_size` local rows plus the
    /// globals.
    pub fn with_config(cfg: RsConfig, group_size: usize) -> Result<LrcCodec, EcError> {
        let (n, p, r) = (cfg.data_shards, cfg.parity_shards, group_size);
        CodecSpec::lrc(n, p, r).validate()?;
        let locals = n / r;
        let globals = p - locals;

        let mut m = GfMatrix::zero(n + p, n);
        for i in 0..n {
            m[(i, i)] = Gf(1);
        }
        // Local rows: coefficient 1 on the group's data columns, so the
        // local parity is a plain XOR and the single-loss repair program
        // degenerates to r array XORs.
        for gi in 0..locals {
            for j in gi * r..(gi + 1) * r {
                m[(n + gi, j)] = Gf(1);
            }
        }
        // Global rows: Cauchy 1/(x_t + y_j) with x_t = n + t, y_j = j.
        // All x and y values are distinct and below 255 (the spec
        // bounds n + p), so every entry is well-defined and non-zero.
        for t in 0..globals {
            for j in 0..n {
                m[(n + locals + t, j)] = (Gf((n + t) as u8) + Gf(j as u8)).inv();
            }
        }

        let groups: Vec<Vec<usize>> = (0..locals)
            .map(|gi| {
                let mut members: Vec<usize> = (gi * r..(gi + 1) * r).collect();
                members.push(n + gi);
                members
            })
            .collect();

        let engine = engine_over(&cfg, &m, groups)?;
        Ok(LrcCodec { engine, group_size: r })
    }

    /// Size `r` of each locality group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of local parity shards (`n / r`).
    pub fn local_parity(&self) -> usize {
        self.engine.data_shards() / self.group_size
    }

    /// Number of global parity shards (`p - n/r`).
    pub fn global_parity(&self) -> usize {
        self.engine.parity_shards() - self.local_parity()
    }
}

impl std::ops::Deref for LrcCodec {
    type Target = XorCodec;

    fn deref(&self) -> &XorCodec {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u32).wrapping_mul(2654435761) as u8).collect()
    }

    #[test]
    fn invalid_geometry_rejected() {
        // r must divide n.
        assert!(matches!(
            LrcCodec::with_config(RsConfig::new(10, 4), 3),
            Err(EcError::InvalidParams(_))
        ));
        // No room for globals: p == l.
        assert!(matches!(
            LrcCodec::with_config(RsConfig::new(10, 2), 5),
            Err(EcError::InvalidParams(_))
        ));
        // r = 1 is replication, not a group.
        assert!(matches!(
            LrcCodec::with_config(RsConfig::new(10, 12), 1),
            Err(EcError::InvalidParams(_))
        ));
        assert!(LrcCodec::new(10, 5, 2).is_ok());
    }

    #[test]
    fn local_parity_is_group_xor() {
        let codec = LrcCodec::new(10, 5, 2).unwrap();
        let data = sample(10 * 64);
        let shards = codec.encode(&data).unwrap();
        for gi in 0..codec.local_parity() {
            let mut expect = vec![0u8; shards[0].len()];
            for shard in &shards[gi * 5..(gi + 1) * 5] {
                for (e, &b) in expect.iter_mut().zip(shard) {
                    *e ^= b;
                }
            }
            assert_eq!(shards[10 + gi], expect, "local parity {gi} must be the group XOR");
        }
    }

    #[test]
    fn single_loss_repairs_from_local_group() {
        let codec = LrcCodec::new(10, 5, 2).unwrap();
        // Losing data shard 7 (group 1) must compile a program whose
        // survivor set is exactly the rest of group 1 — the repair reads
        // r shards, not n.
        let sources = codec.repair_sources(&[7]).unwrap();
        assert_eq!(sources, vec![5, 6, 8, 9, 10 + 1]);

        // And losing the local parity itself re-encodes from its group's
        // data columns only.
        let sources = codec.repair_sources(&[10]).unwrap();
        assert_eq!(sources, vec![0, 1, 2, 3, 4]);

        // A global row's repair still touches all data.
        let sources = codec.repair_sources(&[12]).unwrap();
        assert_eq!(sources, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn reconstruct_subset_reads_only_the_plan() {
        let codec = LrcCodec::new(10, 5, 2).unwrap();
        let data = sample(10 * 128 + 17);
        let shards = codec.encode(&data).unwrap();

        // Provide only the plan's shards; everything else stays None.
        let plan = codec.repair_sources(&[2]).unwrap();
        let mut partial: Vec<Option<Vec<u8>>> = vec![None; codec.total_shards()];
        for &s in &plan {
            partial[s] = Some(shards[s].clone());
        }
        codec.reconstruct_subset(&mut partial, &[2]).unwrap();
        assert_eq!(partial[2].as_deref(), Some(shards[2].as_slice()));

        // Withholding a plan shard is a typed error, not a wrong answer.
        let mut partial: Vec<Option<Vec<u8>>> = vec![None; codec.total_shards()];
        for &s in &plan[1..] {
            partial[s] = Some(shards[s].clone());
        }
        assert_eq!(
            codec.reconstruct_subset(&mut partial, &[2]),
            Err(EcError::MissingSource { shard: plan[0] })
        );
    }

    #[test]
    fn multi_loss_recoverable_patterns_roundtrip() {
        let codec = LrcCodec::new(10, 5, 2).unwrap();
        let data = sample(10 * 96 + 5);
        let shards = codec.encode(&data).unwrap();
        // One loss per group plus both globals: locals cover the data,
        // globals are re-encoded.
        for lost in [
            vec![0usize, 5, 12, 13],
            vec![3, 9, 10, 11],
            vec![1, 2, 11, 13], // two in one group -> the globals pitch in
            vec![0, 1, 2],      // three in one group, covered by local + globals
        ] {
            let mut received: Vec<Option<Vec<u8>>> =
                shards.iter().cloned().map(Some).collect();
            for &i in &lost {
                received[i] = None;
            }
            codec.reconstruct(&mut received).unwrap();
            for (i, s) in received.iter().enumerate() {
                assert_eq!(s.as_deref(), Some(shards[i].as_slice()), "shard {i}, lost {lost:?}");
            }
            let mut received: Vec<Option<Vec<u8>>> =
                shards.iter().cloned().map(Some).collect();
            for &i in &lost {
                received[i] = None;
            }
            assert_eq!(codec.decode(&received, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn unrecoverable_pattern_is_typed() {
        let codec = LrcCodec::new(10, 5, 2).unwrap();
        // Four data shards in one group: the group's local row plus two
        // globals give only three equations — non-MDS by construction.
        let data = sample(10 * 64);
        let shards = codec.encode(&data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        for i in [0, 1, 2, 3] {
            received[i] = None;
        }
        assert!(matches!(
            codec.reconstruct(&mut received),
            Err(EcError::SingularPattern { .. })
        ));
    }

    #[test]
    fn update_parity_matches_full_reencode() {
        let codec = LrcCodec::new(6, 3, 1).unwrap();
        let data = sample(6 * 80);
        let mut shards = codec.encode(&data).unwrap();
        let shard_len = shards[0].len();

        let mut new_shard = sample(shard_len + 3);
        new_shard.truncate(shard_len);
        let old_shard = shards[4].clone();
        {
            let (_, parity_part) = shards.split_at_mut(6);
            let mut parity_refs: Vec<&mut [u8]> =
                parity_part.iter_mut().map(Vec::as_mut_slice).collect();
            codec.update_parity(4, &old_shard, &new_shard, &mut parity_refs).unwrap();
        }
        shards[4] = new_shard;

        let mut flat = Vec::new();
        for s in &shards[..6] {
            flat.extend_from_slice(s);
        }
        let full = codec.encode(&flat).unwrap();
        assert_eq!(shards, full, "delta update must equal full re-encode");
    }

    #[test]
    fn shard_alignment_matches_rs() {
        let codec = LrcCodec::new(4, 2, 1).unwrap();
        for len in [0usize, 1, 7, 8, 31, 4096] {
            assert_eq!(codec.shard_len(len), len.div_ceil(4).div_ceil(8) * 8);
        }
    }
}
