//! Codec configuration.

use array_codes::EngineConfig;
use slp_optimizer::OptConfig;
use xor_runtime::Kernel;

/// Full configuration of an [`crate::RsCodec`]: the geometry (`n`, `p`)
/// plus the [`EngineConfig`] every codec family is built with.
///
/// The coding matrix is not a setting: RS is always ISA-L's power
/// matrix, the one [`crate::CodecSpec::rs`] names in archive headers and
/// store manifests, so an artifact reopens with the matrix it was
/// written with. The engine knobs change speed, never bytes; their
/// defaults are documented on [`EngineConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RsConfig {
    /// Number of data shards `n`.
    pub data_shards: usize,
    /// Number of parity shards `p`.
    pub parity_shards: usize,
    /// Optimization, blocksize, kernel and parallelism.
    pub engine: EngineConfig,
}

impl RsConfig {
    /// The default configuration for an RS(n, p) codec:
    /// [`EngineConfig::new`].
    pub fn new(data_shards: usize, parity_shards: usize) -> RsConfig {
        RsConfig {
            data_shards,
            parity_shards,
            engine: EngineConfig::new(),
        }
    }

    /// The engine half of this configuration — what every codec family
    /// is built with.
    pub fn engine(&self) -> EngineConfig {
        self.engine
    }

    /// Builder-style optimization override.
    pub fn opt(mut self, opt: OptConfig) -> Self {
        self.engine.opt = opt;
        self
    }

    /// Builder-style blocksize override.
    pub fn blocksize(mut self, blocksize: usize) -> Self {
        self.engine.blocksize = blocksize;
        self
    }

    /// Builder-style kernel override.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.engine.kernel = kernel;
        self
    }

    /// Builder-style parallelism override (see
    /// [`EngineConfig::parallelism`]).
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.engine.parallelism = parallelism;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_precedence_chain() {
        // The default engine is the paper's constant: nothing but a
        // field write moves it.
        assert_eq!(RsConfig::new(10, 4).engine(), EngineConfig::PAPER);
    }

    #[test]
    fn paper_defaults_hold_when_tuning_is_off() {
        // The paper's configuration is a constant: no measurement, file
        // or environment variable can move it.
        let paper = EngineConfig::PAPER;
        assert_eq!(paper.opt, OptConfig::FULL_DFS);
        assert_eq!(paper.blocksize, 1024);
        assert_eq!(paper.kernel, Kernel::Auto);
        assert_eq!(paper.parallelism, 0);
    }

    #[test]
    fn builder_chain() {
        let c = RsConfig::new(6, 3)
            .blocksize(2048)
            .kernel(Kernel::Scalar)
            .opt(OptConfig::BASE)
            .parallelism(2);
        assert_eq!((c.data_shards, c.parity_shards), (6, 3));
        assert_eq!(
            c.engine(),
            EngineConfig {
                opt: OptConfig::BASE,
                blocksize: 2048,
                kernel: Kernel::Scalar,
                parallelism: 2,
            }
        );
    }
}
