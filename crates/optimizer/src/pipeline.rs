//! The optimization pipeline of the paper, `Sched(Fu(Co(P)))`, with every
//! stage optional so the evaluation can ablate them (§7.3, §7.5).

use crate::fusion::fuse;
use crate::repair::{repair, xor_repair};
use crate::schedule::{schedule_dfs, schedule_greedy};
use slp::{ccap, Slp};

/// Which compression heuristic to run (§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Compression {
    /// Leave the program as built from the matrix.
    None,
    /// RePair (§4.3).
    RePair,
    /// XorRePair = RePair + Rebuild (§4.4).
    #[default]
    XorRePair,
}

/// Which scheduling heuristic to run (§6.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Keep the order produced by the earlier stages.
    None,
    /// DFS postorder over the computation graph.
    #[default]
    Dfs,
    /// Bottom-up greedy with an abstract cache of the given capacity
    /// (in blocks); the paper uses `L1 size / blocksize`.
    Greedy {
        /// Abstract cache capacity in blocks.
        cache_blocks: usize,
    },
}

/// Full pipeline configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptConfig {
    /// §4 stage.
    pub compression: Compression,
    /// §5 stage (XOR fusion).
    pub fuse: bool,
    /// §6 stage.
    pub schedule: Scheduling,
}

impl Default for OptConfig {
    /// The paper's best configuration: `Dfs(Fu(XorRePair(P)))`.
    fn default() -> Self {
        OptConfig {
            compression: Compression::XorRePair,
            fuse: true,
            schedule: Scheduling::Dfs,
        }
    }
}

impl OptConfig {
    /// No optimization at all (the `Base` rows of §7).
    pub const BASE: OptConfig = OptConfig {
        compression: Compression::None,
        fuse: false,
        schedule: Scheduling::None,
    };

    /// Compression only (`Co`).
    pub const COMPRESS: OptConfig = OptConfig {
        compression: Compression::XorRePair,
        fuse: false,
        schedule: Scheduling::None,
    };

    /// Compression + fusion (`Fu(Co)`).
    pub const FUSE: OptConfig = OptConfig {
        compression: Compression::XorRePair,
        fuse: true,
        schedule: Scheduling::None,
    };

    /// The full pipeline with DFS scheduling (`Dfs(Fu(Co))`).
    pub const FULL_DFS: OptConfig = OptConfig {
        compression: Compression::XorRePair,
        fuse: true,
        schedule: Scheduling::Dfs,
    };
}

/// Run the configured stages over `slp` (any well-formed SLP; the paper
/// starts from the binary-chain or flat matrix form).
pub fn optimize(slp: &Slp, config: OptConfig) -> Slp {
    let compressed = match config.compression {
        Compression::None => slp.clone(),
        Compression::RePair => repair(slp).0,
        Compression::XorRePair => xor_repair(slp).0,
    };
    let fused = if config.fuse {
        fuse(&compressed)
    } else {
        compressed
    };
    match config.schedule {
        Scheduling::None => fused,
        Scheduling::Dfs => schedule_dfs(&fused),
        Scheduling::Greedy { cache_blocks } => schedule_greedy(&fused, cache_blocks),
    }
}

/// The four static measures reported throughout §7 for one program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageMetrics {
    /// `#⊕`: XOR operations.
    pub xors: usize,
    /// `#M`: memory accesses.
    pub mem: usize,
    /// `NVar`: distinct variables / pebbles.
    pub nvar: usize,
    /// `CCap`: minimum no-reload cache capacity.
    pub ccap: usize,
}

impl StageMetrics {
    /// Measure a program. `CCap` costs a simulation per binary-search step;
    /// for very large programs prefer measuring once and caching.
    pub fn of(slp: &Slp) -> StageMetrics {
        StageMetrics {
            xors: slp.xor_count(),
            mem: slp.mem_accesses(),
            nvar: slp.nvar(),
            ccap: ccap(slp),
        }
    }
}

impl std::fmt::Display for StageMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#⊕={} #M={} NVar={} CCap={}",
            self.xors, self.mem, self.nvar, self.ccap
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitmatrix::BitMatrix;
    use slp::binary_slp_from_bitmatrix;

    fn sample_matrix() -> BitMatrix {
        // 6 outputs over 12 inputs with heavy sharing, enough for every
        // stage to have an effect.
        BitMatrix::parse(&[
            "111100000000",
            "111111110000",
            "000011111111",
            "111100001111",
            "000011110000",
            "110011001100",
        ])
    }

    #[test]
    fn every_stage_preserves_semantics() {
        let base = binary_slp_from_bitmatrix(&sample_matrix());
        let expected = base.eval();
        for config in [
            OptConfig::BASE,
            OptConfig::COMPRESS,
            OptConfig::FUSE,
            OptConfig::FULL_DFS,
            OptConfig {
                compression: Compression::RePair,
                fuse: true,
                schedule: Scheduling::Greedy { cache_blocks: 16 },
            },
            OptConfig {
                compression: Compression::None,
                fuse: true,
                schedule: Scheduling::Dfs,
            },
        ] {
            let q = optimize(&base, config);
            assert_eq!(q.eval(), expected, "config {config:?} broke semantics");
        }
    }

    #[test]
    fn stage_trends_match_the_paper() {
        // On any matrix with sharing: Co shrinks #⊕; Fu shrinks #M further;
        // scheduling shrinks NVar and CCap relative to Fu(Co).
        let base = binary_slp_from_bitmatrix(&sample_matrix());
        let co = optimize(&base, OptConfig::COMPRESS);
        let fu = optimize(&base, OptConfig::FUSE);
        let full = optimize(&base, OptConfig::FULL_DFS);

        let m_base = StageMetrics::of(&base);
        let m_co = StageMetrics::of(&co);
        let m_fu = StageMetrics::of(&fu);
        let m_full = StageMetrics::of(&full);

        assert!(m_co.xors < m_base.xors, "Co must reduce XORs");
        assert!(m_co.mem < m_base.mem, "Co must reduce accesses");
        assert!(m_fu.mem < m_co.mem, "Fu must reduce accesses further");
        assert_eq!(m_fu.xors, m_co.xors, "Fu never changes #⊕");
        assert_eq!(m_full.xors, m_fu.xors, "scheduling never changes #⊕");
        assert_eq!(m_full.mem, m_fu.mem, "scheduling never changes #M");
        assert!(m_full.nvar <= m_fu.nvar);
        // CCap is improved on average (§7.3) but not guaranteed per input;
        // we only require the scheduler not to explode it.
        assert!(m_full.ccap <= 2 * m_fu.ccap);
        // compression blows up NVar before scheduling reins it in (§7.3)
        assert!(m_co.nvar > m_base.nvar);
    }

    #[test]
    fn default_config_is_the_papers_best() {
        assert_eq!(OptConfig::default(), OptConfig::FULL_DFS);
    }
}
