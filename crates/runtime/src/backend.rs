//! Where a compiled XOR program meets the worker pool.
//!
//! Codecs compile matrices down to [`ExecProgram`]s and then only ever
//! *execute* them. [`CpuBackend`] is that execution substrate: a
//! [`PoolChoice`] plus the three striped entry points every codec
//! operation goes through.

use crate::exec::{ExecError, ExecProgram};
use crate::pool::PoolChoice;

/// Striped execution across an [`ExecPool`](crate::ExecPool).
///
/// `parallelism = 0` shares the lazily-created machine-sized global
/// pool; `k ≥ 1` owns a dedicated `k`-worker pool. Semantically
/// identical to [`ExecProgram::run_with_arena`]: same outputs for same
/// inputs, shape errors reported before any byte is written.
pub struct CpuBackend {
    pool: PoolChoice,
}

impl CpuBackend {
    /// Build from the codec `parallelism` knob (`0` = global pool).
    pub fn from_parallelism(parallelism: usize) -> CpuBackend {
        CpuBackend {
            pool: PoolChoice::from_parallelism(parallelism),
        }
    }

    /// Execute a compiled program over full shards: read `inputs`,
    /// overwrite `outputs`.
    pub fn run(
        &self,
        prog: &ExecProgram,
        inputs: &[&[u8]],
        outputs: &mut [&mut [u8]],
    ) -> Result<(), ExecError> {
        prog.run_striped(inputs, outputs, self.pool.pool(), self.pool.workers())
    }

    /// The delta update: run `prog` over `old ⊕ new` (split into `pps`
    /// equal packets) and XOR the program's outputs into the `targets`
    /// packets in place, in one fused pass
    /// ([`ExecProgram::run_delta_striped`]).
    pub fn run_delta(
        &self,
        prog: &ExecProgram,
        pps: usize,
        old: &[u8],
        new: &[u8],
        targets: &mut [&mut [u8]],
    ) -> Result<(), ExecError> {
        prog.run_delta_striped(pps, old, new, targets, self.pool.pool(), self.pool.workers())
    }

    /// Whether `prog` maps `inputs` to `expected`, computed block by
    /// block and never written out ([`ExecProgram::verify_striped`]).
    pub fn verify(
        &self,
        prog: &ExecProgram,
        inputs: &[&[u8]],
        expected: &[&[u8]],
    ) -> Result<bool, ExecError> {
        prog.verify_striped(inputs, expected, self.pool.pool(), self.pool.workers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Kernel;
    use slp::Term::{Const, Var};
    use slp::{Instr, Slp};

    fn section_4_1() -> Slp {
        Slp::new(
            4,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(1, vec![Const(1), Const(2), Const(3)]),
                Instr::new(2, vec![Var(0), Var(1)]),
            ],
            vec![Var(1), Var(2), Var(0)],
        )
        .unwrap()
    }

    #[test]
    fn cpu_backend_matches_reference() {
        let p = section_4_1();
        let prog = ExecProgram::compile(&p, 64, Kernel::Auto);
        for parallelism in [0usize, 1, 3] {
            let backend = CpuBackend::from_parallelism(parallelism);
            let data: Vec<Vec<u8>> = (0..4)
                .map(|k| (0..1000).map(|i| ((k * 37 + i * 11) % 256) as u8).collect())
                .collect();
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let expect = p.run_reference(&refs);
            let mut outs = vec![vec![0u8; 1000]; 3];
            {
                let mut orefs: Vec<&mut [u8]> =
                    outs.iter_mut().map(Vec::as_mut_slice).collect();
                backend.run(&prog, &refs, &mut orefs).unwrap();
            }
            assert_eq!(outs, expect, "parallelism {parallelism}");
        }
    }

    #[test]
    fn cpu_backend_reports_shape_errors() {
        let p = section_4_1();
        let prog = ExecProgram::compile(&p, 64, Kernel::Scalar);
        let backend = CpuBackend::from_parallelism(1);
        let a = vec![0u8; 8];
        let refs: Vec<&[u8]> = vec![&a; 3]; // one input short
        let mut outs = vec![vec![0u8; 8]; 3];
        let mut orefs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        assert_eq!(
            backend.run(&prog, &refs, &mut orefs),
            Err(ExecError::InputCount { expected: 4, got: 3 })
        );
    }
}
