//! Striped partitioning: split a byte range into cache-friendly stripes
//! aligned to a program's compiled blocksize and run the program across
//! an [`ExecPool`].
//!
//! Because every XOR instruction is element-wise, splitting all packets
//! of a stripe at the *same* offsets and executing each slice
//! independently is exact (§6). The planner picks the stripe count from
//! the total byte range and the blocking parameter `B`: a stripe is never
//! smaller than one `B`-block, so short shards simply run as one stripe
//! instead of degenerating to per-byte splits, and stripe boundaries are
//! `B`-aligned so each worker's blocked loop sees no mid-block seams.

use crate::arena::{with_byte_scratch, VarArena};
use crate::exec::{ExecError, ExecProgram};
use crate::kernels::{xor_accumulate, xor_slices};
use crate::pool::{lock_unpoisoned, ExecPool, ScopedTask};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Mutex;

thread_local! {
    /// The calling thread's own grow-on-demand arena, used when a plan
    /// collapses to a single stripe: running inline skips the pool
    /// handoff (two context switches) that multi-megabyte stripes
    /// amortize but short shards and `parallelism = 1` codecs would not.
    static CALLER_ARENA: RefCell<VarArena> = RefCell::new(VarArena::new(1, 1, 1024));
}

/// How a packet range is split into stripes.
///
/// Built by [`plan_stripes`]; the ranges are contiguous, disjoint,
/// blocksize-aligned (except the final tail) and cover `0..packet_len`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StripePlan {
    ranges: Vec<Range<usize>>,
}

impl StripePlan {
    /// Number of stripes.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True iff the plan has no stripes (zero-length range).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The planned byte ranges.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }
}

/// Plan stripes for a `packet_len`-byte range processed in `blocksize`
/// blocks by at most `max_stripes` workers.
///
/// The stripe count is chosen from the total bytes and the blocksize:
/// `min(max_stripes, ceil(packet_len / blocksize))`, i.e. every stripe
/// holds at least one block and block boundaries are respected, with the
/// remainder blocks spread over the leading stripes.
pub fn plan_stripes(packet_len: usize, blocksize: usize, max_stripes: usize) -> StripePlan {
    if packet_len == 0 {
        return StripePlan { ranges: Vec::new() };
    }
    let blocksize = blocksize.max(1);
    let blocks = packet_len.div_ceil(blocksize);
    let stripes = max_stripes.max(1).min(blocks);
    let per = blocks / stripes;
    let extra = blocks % stripes;
    let mut ranges = Vec::with_capacity(stripes);
    let mut block = 0;
    for s in 0..stripes {
        let take = per + usize::from(s < extra);
        let lo = block * blocksize;
        block += take;
        let hi = (block * blocksize).min(packet_len);
        ranges.push(lo..hi);
    }
    StripePlan { ranges }
}

impl ExecProgram {
    /// Run the program striped across a worker pool: the packet range is
    /// split by [`plan_stripes`] (with this program's blocksize) into at
    /// most `max_stripes` blocksize-aligned stripes, each executed on a
    /// pool worker with its persistent arena.
    ///
    /// Semantically identical to [`ExecProgram::run_with_arena`]; any
    /// split is exact because all instructions are element-wise.
    pub fn run_striped(
        &self,
        inputs: &[&[u8]],
        outputs: &mut [&mut [u8]],
        pool: &ExecPool,
        max_stripes: usize,
    ) -> Result<(), ExecError> {
        // Validate shapes up front so errors surface before any task is
        // submitted (stripe slices inherit validity from the full run).
        if inputs.len() != self.n_inputs() {
            return Err(ExecError::InputCount {
                expected: self.n_inputs(),
                got: inputs.len(),
            });
        }
        if outputs.len() != self.n_outputs() {
            return Err(ExecError::OutputCount {
                expected: self.n_outputs(),
                got: outputs.len(),
            });
        }
        let len = inputs
            .first()
            .map(|a| a.len())
            .or_else(|| outputs.first().map(|a| a.len()))
            .unwrap_or(0);
        if inputs.iter().any(|a| a.len() != len)
            || outputs.iter().any(|a| a.len() != len)
        {
            return Err(ExecError::LengthMismatch);
        }

        if len == 0 {
            return Ok(());
        }
        // Serial fast path, decided without materializing a plan (keeps
        // the single-stripe case — short shards, `parallelism = 1` —
        // allocation-free): run inline on the caller with its
        // thread-local arena, same per-worker-arena guarantees, no pool
        // handoff.
        let blocks = len.div_ceil(self.blocksize().max(1));
        if max_stripes.max(1).min(blocks) == 1 {
            return CALLER_ARENA
                .with(|a| self.run_with_arena(inputs, outputs, &mut a.borrow_mut()));
        }
        let plan = plan_stripes(len, self.blocksize(), max_stripes);

        // Split every packet at the same offsets. Outputs are peeled off
        // front-to-back with split_at_mut so each stripe owns its slices.
        let failure: Mutex<Option<ExecError>> = Mutex::new(None);
        let mut tasks: Vec<ScopedTask<'_>> = Vec::with_capacity(plan.len());
        let mut outs: Vec<&mut [u8]> = outputs.iter_mut().map(|s| &mut **s).collect();
        for r in plan.ranges() {
            let ins: Vec<&[u8]> = inputs.iter().map(|s| &s[r.clone()]).collect();
            let width = r.end - r.start;
            let mut rest = Vec::with_capacity(outs.len());
            let mut part = Vec::with_capacity(outs.len());
            for o in outs {
                let (head, tail) = o.split_at_mut(width);
                part.push(head);
                rest.push(tail);
            }
            outs = rest;
            let failure = &failure;
            tasks.push(Box::new(move |arena| {
                if let Err(e) = self.run_with_arena(&ins, &mut part, arena) {
                    *lock_unpoisoned(failure) = Some(e);
                }
            }));
        }
        pool.run_scoped(tasks);
        match failure.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The delta-update execution discipline of the codec engine: run
    /// this program over `old ⊕ new` (split into `pps` equal packets) and
    /// XOR its outputs, one packet each, into `targets` in place.
    ///
    /// Everything transient — the delta shard and the program outputs —
    /// lives in the calling thread's persistent byte scratch, so a
    /// steady-state update memsets nothing (the program overwrites its
    /// outputs in full before they are read).
    ///
    /// The caller has already validated shapes: `old` and `new` share one
    /// length, a positive multiple of `pps`; every target is one packet
    /// (`len / pps` bytes) long; and the counts match the program (`pps`
    /// inputs, `targets.len()` outputs).
    pub fn run_delta_striped(
        &self,
        pps: usize,
        old: &[u8],
        new: &[u8],
        targets: &mut [&mut [u8]],
        pool: &ExecPool,
        max_stripes: usize,
    ) -> Result<(), ExecError> {
        let len = old.len();
        if len == 0 {
            return Ok(());
        }
        let pl = len / pps;
        with_byte_scratch(len + targets.len() * pl, |scratch| {
            let (delta, dp) = scratch.split_at_mut(len);
            xor_slices(self.kernel(), delta, &[old, new]);
            {
                let inputs: Vec<&[u8]> = delta.chunks_exact(pl).collect();
                let mut outputs: Vec<&mut [u8]> = dp.chunks_exact_mut(pl).collect();
                self.run_striped(&inputs, &mut outputs, pool, max_stripes)?;
            }
            for (target, d) in targets.iter_mut().zip(dp.chunks_exact(pl)) {
                xor_accumulate(self.kernel(), target, d);
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Kernel;
    use slp::Term::{Const, Var};
    use slp::{Instr, Slp};

    fn cover(plan: &StripePlan, len: usize) {
        let mut at = 0;
        for r in plan.ranges() {
            assert_eq!(r.start, at, "stripes must be contiguous");
            assert!(r.end > r.start, "stripes must be non-empty");
            at = r.end;
        }
        assert_eq!(at, len, "stripes must cover the range");
    }

    #[test]
    fn short_shards_get_one_stripe_not_zero_parallelism() {
        // A packet shorter than one block must not be split (the old
        // thread clamp used raw byte counts instead); one stripe, full
        // coverage, regardless of how many workers are offered.
        for len in [1usize, 8, 100, 1023] {
            let plan = plan_stripes(len, 1024, 8);
            assert_eq!(plan.len(), 1, "len {len}");
            cover(&plan, len);
        }
    }

    #[test]
    fn stripe_count_follows_blocks_not_workers() {
        // 4 blocks, 8 workers → 4 stripes; 100 blocks, 8 workers → 8.
        let plan = plan_stripes(4 * 1024, 1024, 8);
        assert_eq!(plan.len(), 4);
        cover(&plan, 4 * 1024);
        let plan = plan_stripes(100 * 1024, 1024, 8);
        assert_eq!(plan.len(), 8);
        cover(&plan, 100 * 1024);
    }

    #[test]
    fn stripe_boundaries_are_block_aligned() {
        let plan = plan_stripes(10 * 512 + 37, 512, 3);
        cover(&plan, 10 * 512 + 37);
        for r in &plan.ranges()[..plan.len() - 1] {
            assert_eq!(r.end % 512, 0, "interior boundary not aligned");
        }
    }

    #[test]
    fn remainder_blocks_spread_over_leading_stripes() {
        // 7 blocks over 3 stripes → 3 + 2 + 2 blocks.
        let plan = plan_stripes(7 * 64, 64, 3);
        let widths: Vec<usize> = plan.ranges().iter().map(|r| r.end - r.start).collect();
        assert_eq!(widths, vec![3 * 64, 2 * 64, 2 * 64]);
    }

    #[test]
    fn zero_length_plans_nothing() {
        assert!(plan_stripes(0, 1024, 4).is_empty());
    }

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
    fn striped_run_matches_reference_across_shapes() {
        let p = section_4_1();
        let pool = ExecPool::new(3);
        // Lengths below, at, and far above one block; odd tails.
        for len in [1usize, 63, 64, 65, 1000, 64 * 7 + 13] {
            let data: Vec<Vec<u8>> = (0..4)
                .map(|k| (0..len).map(|i| ((k * 37 + i * 11) % 256) as u8).collect())
                .collect();
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let expect = p.run_reference(&refs);
            let prog = ExecProgram::compile(&p, 64, Kernel::Auto);
            let mut outs = vec![vec![0u8; len]; 3];
            {
                let mut orefs: Vec<&mut [u8]> =
                    outs.iter_mut().map(Vec::as_mut_slice).collect();
                prog.run_striped(&refs, &mut orefs, &pool, pool.workers())
                    .unwrap();
            }
            assert_eq!(outs, expect, "len {len}");
        }
    }

    #[test]
    fn striped_run_validates_shapes_before_spawning() {
        let p = section_4_1();
        let prog = ExecProgram::compile(&p, 64, Kernel::Scalar);
        let pool = ExecPool::new(2);
        let a = vec![0u8; 8];
        let refs: Vec<&[u8]> = vec![&a; 3]; // one input short
        let mut outs = vec![vec![0u8; 8]; 3];
        let mut orefs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        assert_eq!(
            prog.run_striped(&refs, &mut orefs, &pool, 2),
            Err(ExecError::InputCount { expected: 4, got: 3 })
        );
        let refs: Vec<&[u8]> = vec![&a; 4];
        let mut short = vec![vec![0u8; 4]; 3];
        let mut orefs: Vec<&mut [u8]> = short.iter_mut().map(Vec::as_mut_slice).collect();
        assert_eq!(
            prog.run_striped(&refs, &mut orefs, &pool, 2),
            Err(ExecError::LengthMismatch)
        );
    }

    #[test]
    fn striped_empty_arrays_are_a_noop() {
        let p = section_4_1();
        let prog = ExecProgram::compile(&p, 64, Kernel::Scalar);
        let pool = ExecPool::new(2);
        let refs: Vec<&[u8]> = vec![&[]; 4];
        let mut outs: Vec<Vec<u8>> = vec![vec![]; 3];
        let mut orefs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        assert_eq!(prog.run_striped(&refs, &mut orefs, &pool, 2), Ok(()));
    }

    #[test]
    fn striped_run_on_global_pool() {
        let p = section_4_1();
        let prog = ExecProgram::compile(&p, 128, Kernel::Auto);
        let data: Vec<Vec<u8>> = (0..4).map(|k| vec![k as u8 + 1; 4096]).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let expect = p.run_reference(&refs);
        let mut outs = vec![vec![0u8; 4096]; 3];
        {
            let mut orefs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
            let pool = ExecPool::global();
            prog.run_striped(&refs, &mut orefs, pool, pool.workers()).unwrap();
        }
        assert_eq!(outs, expect);
    }
}
