//! Codec configuration.

use array_codes::EngineConfig;
use gf256::MatrixKind;
use slp_optimizer::OptConfig;
use xor_runtime::Kernel;

/// Full configuration of an [`crate::RsCodec`]: the code (`n`, `p`,
/// coding-matrix construction) plus the four engine knobs of
/// [`EngineConfig`], flattened into one builder.
///
/// The defaults are the paper's Intel testbed setting: ISA-L's power
/// coding matrix, `Dfs(Fu(XorRePair(P)))` optimization, 1 KiB blocks
/// (§7.4 picks `B = 1K` on Intel, `B = 2K` on AMD), the widest XOR
/// kernel the CPU offers, and the machine-sized worker pool.
///
/// Precedence, lowest to highest — those constants, `XORSLP_KERNEL` /
/// `XORSLP_PARALLELISM`, explicit builder calls — is documented and
/// applied by [`EngineConfig::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RsConfig {
    /// Number of data shards `n`.
    pub data_shards: usize,
    /// Number of parity shards `p`.
    pub parity_shards: usize,
    /// Coding-matrix construction (§7.1).
    pub matrix: MatrixKind,
    /// SLP optimization pipeline (§4–§6).
    pub opt: OptConfig,
    /// Blocking parameter `B` in bytes (§6.1, §7.4).
    pub blocksize: usize,
    /// XOR kernel (§7.2's `xor1` vs `xor32`).
    pub kernel: Kernel,
    /// Worker threads for striped execution: `0` = auto (share the
    /// machine-sized global [`xor_runtime::ExecPool`]), `1` = a single
    /// dedicated worker (serial execution, still arena-reusing and
    /// mutex-free), `k > 1` = a dedicated `k`-worker pool.
    pub parallelism: usize,
}

impl RsConfig {
    /// The default configuration for an RS(n, p) codec: the paper's
    /// constants, refined by env overrides (see the type docs for the
    /// full precedence chain).
    pub fn new(data_shards: usize, parity_shards: usize) -> RsConfig {
        let engine = EngineConfig::new();
        RsConfig {
            data_shards,
            parity_shards,
            matrix: MatrixKind::IsalPower,
            opt: engine.opt,
            blocksize: engine.blocksize,
            kernel: engine.kernel,
            parallelism: engine.parallelism,
        }
    }

    /// The engine half of this configuration — what every codec family
    /// is built with, whatever its matrix.
    pub fn engine(&self) -> EngineConfig {
        EngineConfig {
            opt: self.opt,
            blocksize: self.blocksize,
            kernel: self.kernel,
            parallelism: self.parallelism,
        }
    }

    /// Builder-style matrix override.
    pub fn matrix(mut self, kind: MatrixKind) -> Self {
        self.matrix = kind;
        self
    }

    /// Builder-style optimization override.
    pub fn opt(mut self, opt: OptConfig) -> Self {
        self.opt = opt;
        self
    }

    /// Builder-style blocksize override.
    pub fn blocksize(mut self, blocksize: usize) -> Self {
        self.blocksize = blocksize;
        self
    }

    /// Builder-style kernel override.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Builder-style parallelism override (`0` = auto, see the field).
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_precedence_chain() {
        let c = RsConfig::new(10, 4);
        assert_eq!(c.matrix, MatrixKind::IsalPower);
        assert_eq!(c.opt, OptConfig::FULL_DFS);
        // Kernel and parallelism are the paper's constants unless CI's
        // env vars force an engine configuration through the suite;
        // nothing else moves them.
        assert_eq!(c.blocksize, 1024);
        assert_eq!(c.kernel, Kernel::from_env().unwrap_or(Kernel::Auto));
        assert_eq!(c.parallelism, xor_runtime::env_parallelism().unwrap_or(0));
        assert_eq!(c.engine(), EngineConfig::new());
    }

    #[test]
    fn paper_defaults_hold_when_tuning_is_off() {
        // The bottom of the precedence chain is the paper's configuration,
        // a constant: no measurement or file can move it.
        let paper = EngineConfig::PAPER;
        assert_eq!(paper.opt, OptConfig::FULL_DFS);
        assert_eq!(paper.blocksize, 1024);
        assert_eq!(paper.kernel, Kernel::Auto);
        assert_eq!(paper.parallelism, 0);
    }

    #[test]
    fn builder_chain() {
        let c = RsConfig::new(6, 3)
            .matrix(MatrixKind::Cauchy)
            .blocksize(2048)
            .kernel(Kernel::Scalar)
            .opt(OptConfig::BASE)
            .parallelism(2);
        assert_eq!(c.matrix, MatrixKind::Cauchy);
        assert_eq!(c.blocksize, 2048);
        assert_eq!(c.kernel, Kernel::Scalar);
        assert_eq!(c.opt, OptConfig::BASE);
        assert_eq!(c.parallelism, 2);
    }
}
