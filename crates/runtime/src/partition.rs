//! Striped partitioning: split a byte range into cache-friendly stripes
//! aligned to a program's compiled blocksize and run the program across
//! the one worker pool.
//!
//! Because every XOR instruction is element-wise, splitting all packets
//! of a stripe at the *same* offsets and executing each slice
//! independently is exact (§6). The planner picks the stripe count from
//! the total byte range and the blocking parameter `B`: a stripe is never
//! smaller than one `B`-block, so short shards simply run as one stripe
//! instead of degenerating to per-byte splits, and stripe boundaries are
//! `B`-aligned so each worker's blocked loop sees no mid-block seams.
//!
//! Three entry points share one stripe driver: [`ExecProgram::run_striped`]
//! (the plain blocked loop), and [`ExecProgram::run_delta_striped`] and
//! [`ExecProgram::verify_striped`] (the fused loop with its accumulate
//! and compare epilogues). Each takes a `max_stripes` cap: a
//! single-stripe plan runs inline on the caller's thread-local arena,
//! allocates nothing and never builds the pool; two or more stripes go
//! to the process's one pool, `ExecPool::global`.

use crate::arena::VarArena;
use crate::exec::{ExecError, ExecProgram, FusedInputs, FusedOutputs};
use crate::pool::{lock_unpoisoned, ExecPool, ScopedTask};
use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

thread_local! {
    /// The calling thread's own grow-on-demand arena, used when a plan
    /// collapses to a single stripe (see `ExecProgram::for_each_stripe`).
    static CALLER_ARENA: RefCell<VarArena> = RefCell::new(VarArena::new(1, 1, 1024));
}

/// How a packet range is split into stripes.
///
/// Built by `plan_stripes`; the ranges are contiguous, disjoint,
/// blocksize-aligned (except the final tail) and cover `0..packet_len`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct StripePlan {
    ranges: Vec<Range<usize>>,
}

impl StripePlan {
    /// Number of stripes.
    pub(crate) fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True iff the plan has no stripes (zero-length range).
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The planned byte ranges.
    pub(crate) fn ranges(&self) -> &[Range<usize>] {
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
pub(crate) fn plan_stripes(packet_len: usize, blocksize: usize, max_stripes: usize) -> StripePlan {
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

/// `packets` cut to the window `r`: the list itself when `r` is their
/// whole length (so the single-stripe path allocates nothing), else a
/// fresh list of windows.
fn windows<'a>(packets: &'a [&'a [u8]], r: &Range<usize>, len: usize) -> Cow<'a, [&'a [u8]]> {
    if r.len() == len {
        Cow::Borrowed(packets)
    } else {
        Cow::Owned(packets.iter().map(|p| &p[r.clone()]).collect())
    }
}

impl ExecProgram {
    /// Check the `inputs` and `outputs` packets against the program and
    /// return their common length.
    fn check_shapes<O: AsRef<[u8]>>(
        &self,
        inputs: &[&[u8]],
        outputs: &[O],
    ) -> Result<usize, ExecError> {
        if inputs.len() != self.n_inputs() {
            return Err(ExecError::InputCount { expected: self.n_inputs(), got: inputs.len() });
        }
        if outputs.len() != self.n_outputs() {
            return Err(ExecError::OutputCount { expected: self.n_outputs(), got: outputs.len() });
        }
        let len = inputs
            .first()
            .map(|a| a.len())
            .or_else(|| outputs.first().map(|o| o.as_ref().len()))
            .unwrap_or(0);
        if inputs.iter().any(|a| a.len() != len) || outputs.iter().any(|o| o.as_ref().len() != len)
        {
            return Err(ExecError::LengthMismatch);
        }
        Ok(len)
    }

    /// Run `f` once per stripe of a `len`-byte packet range, with the
    /// stripe's range, the matching window of every `outputs` packet and
    /// an arena. One stripe runs inline on the caller's thread-local
    /// arena: no plan, no pool handoff (two context switches that
    /// multi-megabyte stripes amortize and short shards and
    /// `parallelism = 1` codecs would not), no allocation, and the pool
    /// is never built. More stripes run one task each on
    /// [`ExecPool::global`], on the workers' persistent arenas.
    ///
    /// Returns `Ok(false)` iff some stripe's `f` did, and the first error
    /// any stripe reported.
    fn for_each_stripe(
        &self,
        len: usize,
        outputs: &mut [&mut [u8]],
        max_stripes: usize,
        f: impl Fn(Range<usize>, &mut [&mut [u8]], &mut VarArena) -> Result<bool, ExecError> + Sync,
    ) -> Result<bool, ExecError> {
        let blocks = len.div_ceil(self.blocksize().max(1));
        if max_stripes.max(1).min(blocks) <= 1 {
            return CALLER_ARENA.with(|a| f(0..len, outputs, &mut a.borrow_mut()));
        }
        let plan = plan_stripes(len, self.blocksize(), max_stripes);

        // Split every output packet at the same offsets, peeled off
        // front-to-back with split_at_mut so each stripe owns its windows.
        let failure: Mutex<Option<ExecError>> = Mutex::new(None);
        // Relaxed: it publishes nothing, and is read only after
        // `run_scoped` has waited on every task's latch (a mutex).
        let all_true = AtomicBool::new(true);
        let mut tasks: Vec<ScopedTask<'_>> = Vec::with_capacity(plan.len());
        let mut outs: Vec<&mut [u8]> = outputs.iter_mut().map(|s| &mut **s).collect();
        for r in plan.ranges() {
            let mut rest = Vec::with_capacity(outs.len());
            let mut part = Vec::with_capacity(outs.len());
            for o in outs {
                let (head, tail) = o.split_at_mut(r.len());
                part.push(head);
                rest.push(tail);
            }
            outs = rest;
            let (r, f, failure, all_true) = (r.clone(), &f, &failure, &all_true);
            tasks.push(Box::new(move |arena| match f(r, &mut part, arena) {
                Ok(true) => {}
                Ok(false) => all_true.store(false, Ordering::Relaxed),
                Err(e) => *lock_unpoisoned(failure) = Some(e),
            }));
        }
        ExecPool::global().run_scoped(tasks);
        match failure.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
            Some(e) => Err(e),
            None => Ok(all_true.into_inner()),
        }
    }

    /// Run the program striped: the packet range is split (at this
    /// program's blocksize) into at most `max_stripes` blocksize-aligned
    /// stripes, each executed on a worker of the process's one pool with
    /// its persistent arena. A range of one block, or `max_stripes ≤ 1`,
    /// runs inline on the calling thread and starts no thread.
    ///
    /// Semantically identical to [`ExecProgram::run_with_arena`]; any
    /// split is exact because all instructions are element-wise.
    ///
    /// ```
    /// use slp::{Instr, Slp, Term::{Const, Var}};
    /// use xor_runtime::{ExecProgram, Kernel};
    ///
    /// // p0 = in0 ^ in1, returned — the smallest useful XOR program.
    /// let slp = Slp::new(
    ///     2,
    ///     vec![Instr::new(0, vec![Const(0), Const(1)])],
    ///     vec![Var(0)],
    /// )
    /// .unwrap();
    /// let prog = ExecProgram::compile(&slp, 1024, Kernel::Auto);
    ///
    /// let a = vec![0xAAu8; 8192];
    /// let b = vec![0x0Fu8; 8192];
    /// let mut out = vec![0u8; 8192];
    ///
    /// // Eight blocks, at most two stripes on the shared pool.
    /// prog.run_striped(&[&a, &b], &mut [&mut out], 2).unwrap();
    /// assert!(out.iter().all(|&x| x == 0xAA ^ 0x0F));
    /// ```
    pub fn run_striped(
        &self,
        inputs: &[&[u8]],
        outputs: &mut [&mut [u8]],
        max_stripes: usize,
    ) -> Result<(), ExecError> {
        // Validate shapes up front so errors surface before any task is
        // submitted (stripe slices inherit validity from the full run).
        let len = self.check_shapes(inputs, outputs)?;
        if len == 0 {
            return Ok(());
        }
        self.for_each_stripe(len, outputs, max_stripes, |r, part, arena| {
            self.run_with_arena(&windows(inputs, &r, len), part, arena)?;
            Ok(true)
        })?;
        Ok(())
    }

    /// The delta update: run this program over `old ⊕ new` (each split
    /// into `pps` equal packets, the program's inputs) and XOR its
    /// outputs, one packet each, into `targets` in place.
    ///
    /// One fused blocked pass per stripe: each `B`-byte block of the
    /// delta is formed in a block-local strip, run through the program
    /// and accumulated into the targets while it is in L1, so no delta
    /// or delta-parity array is ever written out and no scratch buffer
    /// exists. The same loop runs inline for one stripe and on the pool
    /// workers' arenas for more, as in [`ExecProgram::run_striped`].
    pub fn run_delta_striped(
        &self,
        pps: usize,
        old: &[u8],
        new: &[u8],
        targets: &mut [&mut [u8]],
        max_stripes: usize,
    ) -> Result<(), ExecError> {
        if pps != self.n_inputs() {
            return Err(ExecError::InputCount { expected: self.n_inputs(), got: pps });
        }
        if targets.len() != self.n_outputs() {
            return Err(ExecError::OutputCount { expected: self.n_outputs(), got: targets.len() });
        }
        let pl = old.len() / pps.max(1);
        if new.len() != old.len() || old.len() != pl * pps || targets.iter().any(|t| t.len() != pl)
        {
            return Err(ExecError::LengthMismatch);
        }
        if pl == 0 {
            return Ok(());
        }
        let inputs = FusedInputs::Delta { old, new };
        self.for_each_stripe(pl, targets, max_stripes, |r, part, arena| {
            Ok(self.run_fused(r, inputs, FusedOutputs::Accumulate(part), arena))
        })?;
        Ok(())
    }

    /// Whether the program's outputs on `inputs` equal `expected`,
    /// without writing them anywhere: the fused blocked pass with a
    /// compare epilogue, striped like [`ExecProgram::run_striped`]. One
    /// stripe stops at the first mismatching block.
    pub fn verify_striped(
        &self,
        inputs: &[&[u8]],
        expected: &[&[u8]],
        max_stripes: usize,
    ) -> Result<bool, ExecError> {
        let len = self.check_shapes(inputs, expected)?;
        if len == 0 {
            return Ok(true);
        }
        let inputs = FusedInputs::Packets(inputs);
        self.for_each_stripe(len, &mut [], max_stripes, |r, _, arena| {
            let want = windows(expected, &r, len);
            Ok(self.run_fused(r, inputs, FusedOutputs::Compare(&want), arena))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{xor_accumulate, xor_slices, Kernel};
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
        let prog = ExecProgram::compile(&p, 64, Kernel::Auto);
        // Lengths below, at, and far above one block; odd tails. One
        // stripe is the inline path a `parallelism = 1` codec takes.
        for len in [1usize, 63, 64, 65, 1000, 64 * 7 + 13] {
            let data: Vec<Vec<u8>> = (0..4)
                .map(|k| (0..len).map(|i| ((k * 37 + i * 11) % 256) as u8).collect())
                .collect();
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let expect = p.run_reference(&refs);
            for stripes in [1, 3] {
                let mut outs = vec![vec![0u8; len]; 3];
                {
                    let mut orefs: Vec<&mut [u8]> =
                        outs.iter_mut().map(Vec::as_mut_slice).collect();
                    prog.run_striped(&refs, &mut orefs, stripes).unwrap();
                }
                assert_eq!(outs, expect, "len {len}, {stripes} stripes");
            }
        }
    }

    #[test]
    fn striped_run_validates_shapes_before_spawning() {
        let p = section_4_1();
        let prog = ExecProgram::compile(&p, 64, Kernel::Scalar);
        let a = vec![0u8; 8];
        let refs: Vec<&[u8]> = vec![&a; 3]; // one input short
        let mut outs = vec![vec![0u8; 8]; 3];
        let mut orefs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        assert_eq!(
            prog.run_striped(&refs, &mut orefs, 2),
            Err(ExecError::InputCount { expected: 4, got: 3 })
        );
        let refs: Vec<&[u8]> = vec![&a; 4];
        let mut short = vec![vec![0u8; 4]; 3];
        let mut orefs: Vec<&mut [u8]> = short.iter_mut().map(Vec::as_mut_slice).collect();
        assert_eq!(
            prog.run_striped(&refs, &mut orefs, 2),
            Err(ExecError::LengthMismatch)
        );
    }

    #[test]
    fn striped_empty_arrays_are_a_noop() {
        let p = section_4_1();
        let prog = ExecProgram::compile(&p, 64, Kernel::Scalar);
        let refs: Vec<&[u8]> = vec![&[]; 4];
        let mut outs: Vec<Vec<u8>> = vec![vec![]; 3];
        let mut orefs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        assert_eq!(prog.run_striped(&refs, &mut orefs, 2), Ok(()));
    }

    /// The three-pass delta update the fused loop replaced, kept as its
    /// oracle: `old ⊕ new` into a delta array, the program into a
    /// delta-parity array, then each output accumulated into its target.
    fn three_pass_delta(
        prog: &ExecProgram,
        old: &[u8],
        new: &[u8],
        targets: &mut [Vec<u8>],
        max_stripes: usize,
    ) {
        let pl = old.len() / prog.n_inputs();
        let mut delta = vec![0u8; old.len()];
        xor_slices(prog.kernel(), &mut delta, &[old, new]);
        let inputs: Vec<&[u8]> = delta.chunks_exact(pl).collect();
        let mut dp = vec![vec![0u8; pl]; targets.len()];
        let mut outputs: Vec<&mut [u8]> = dp.iter_mut().map(Vec::as_mut_slice).collect();
        prog.run_striped(&inputs, &mut outputs, max_stripes).unwrap();
        for (target, d) in targets.iter_mut().zip(&dp) {
            xor_accumulate(prog.kernel(), target, d);
        }
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    /// A random `rows × cols` column bit-matrix with no zero row (a zero
    /// row has no SLP form), through the default optimizer pipeline.
    fn random_column_program(rows: usize, cols: usize, seed: u64) -> Slp {
        let bits = random_bytes(rows * cols, seed);
        let text: Vec<String> = bits
            .chunks_exact(cols)
            .enumerate()
            .map(|(r, row)| {
                (0..cols)
                    .map(|c| if row[c] & 1 == 1 || c == r % cols { '1' } else { '0' })
                    .collect()
            })
            .collect();
        let text: Vec<&str> = text.iter().map(String::as_str).collect();
        let base = slp::binary_slp_from_bitmatrix(&bitmatrix::BitMatrix::parse(&text));
        slp_optimizer::optimize(&base, slp_optimizer::OptConfig::default())
    }

    /// The programs the fused loop must agree on: the §4.1 example, the
    /// §2.1 scheduled form (an output pebble rewritten in place), one
    /// with a constant and a duplicated output, and optimized random
    /// column programs shaped like RS(10,4)'s (32 × 8) and a small one.
    fn fused_loop_programs() -> Vec<(&'static str, Slp)> {
        let section_2_1 = Slp::new(
            7,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(3, vec![Const(2), Const(3), Const(4)]),
                Instr::new(1, vec![Var(3), Const(5)]),
                Instr::new(3, vec![Var(3), Const(6)]),
            ],
            vec![Var(0), Var(1), Var(3)],
        )
        .unwrap();
        let const_and_dup = Slp::new(
            3,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(1, vec![Var(0), Const(2)]),
            ],
            vec![Var(1), Const(2), Var(0), Var(1)],
        )
        .unwrap();
        vec![
            ("section_4_1", section_4_1()),
            ("section_2_1", section_2_1),
            ("const_and_dup", const_and_dup),
            ("random_32x8", random_column_program(32, 8, 41)),
            ("random_8x4", random_column_program(8, 4, 42)),
        ]
    }

    #[test]
    fn fused_delta_matches_three_pass_oracle() {
        let programs = fused_loop_programs();
        for kernel in crate::kernels::available_kernels() {
            for blocksize in [1usize, 7, 64, 1024, 4096] {
                for (name, p) in &programs {
                    let prog = ExecProgram::compile(p, blocksize, kernel);
                    let (n_in, n_out) = (prog.n_inputs(), prog.n_outputs());
                    for pl in [1usize, 63, 64, 1000, 1024, 4097, 8205] {
                        let old = random_bytes(n_in * pl, pl as u64);
                        let new = random_bytes(n_in * pl, pl as u64 + 1);
                        let base: Vec<Vec<u8>> =
                            (0..n_out).map(|j| random_bytes(pl, 100 + j as u64)).collect();
                        for stripes in 1..=3 {
                            let mut expect = base.clone();
                            three_pass_delta(&prog, &old, &new, &mut expect, stripes);
                            let mut got = base.clone();
                            let mut targets: Vec<&mut [u8]> =
                                got.iter_mut().map(Vec::as_mut_slice).collect();
                            prog.run_delta_striped(n_in, &old, &new, &mut targets, stripes)
                                .unwrap();
                            assert!(
                                got == expect,
                                "{name} kernel {kernel:?} B={blocksize} pl={pl} stripes={stripes}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_verify_finds_every_single_byte_flip() {
        for kernel in crate::kernels::available_kernels() {
            for blocksize in [1usize, 64, 1024] {
                for (name, p) in fused_loop_programs() {
                    let prog = ExecProgram::compile(&p, blocksize, kernel);
                    let pl = 1000;
                    let data: Vec<Vec<u8>> =
                        (0..prog.n_inputs()).map(|k| random_bytes(pl, k as u64)).collect();
                    let inputs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
                    let mut parity = p.run_reference(&inputs);
                    for stripes in 1..=3 {
                        let ctx = format!("{name} {kernel:?} B={blocksize} stripes={stripes}");
                        let check = |parity: &[Vec<u8>]| {
                            let expected: Vec<&[u8]> = parity.iter().map(Vec::as_slice).collect();
                            prog.verify_striped(&inputs, &expected, stripes).unwrap()
                        };
                        assert!(check(&parity), "{ctx}: clean");
                        for j in 0..parity.len() {
                            for at in [0, blocksize.min(pl - 1), pl / 2, pl - 1] {
                                parity[j][at] ^= 0x10;
                                assert!(!check(&parity), "{ctx}: output {j} byte {at}");
                                parity[j][at] ^= 0x10;
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_entry_points_report_shape_errors() {
        let prog = ExecProgram::compile(&section_4_1(), 64, Kernel::Scalar);
        let (old, new) = (vec![0u8; 4 * 8], vec![0u8; 4 * 8]);
        let mut bufs = vec![vec![0u8; 8]; 3];
        let mut targets: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
        assert_eq!(
            prog.run_delta_striped(3, &old, &new, &mut targets, 2),
            Err(ExecError::InputCount { expected: 4, got: 3 })
        );
        assert_eq!(
            prog.run_delta_striped(4, &old, &new[..16], &mut targets, 2),
            Err(ExecError::LengthMismatch)
        );
        assert_eq!(
            prog.run_delta_striped(4, &old, &new, &mut targets[..2], 2),
            Err(ExecError::OutputCount { expected: 3, got: 2 })
        );
        let mut empty: Vec<&mut [u8]> = vec![&mut [], &mut [], &mut []];
        assert_eq!(prog.run_delta_striped(4, &[], &[], &mut empty, 2), Ok(()));
        let a = vec![0u8; 8];
        let short = vec![0u8; 4];
        let ins: Vec<&[u8]> = vec![&a; 4];
        assert_eq!(
            prog.verify_striped(&ins, &[&a, &a, &short], 2),
            Err(ExecError::LengthMismatch)
        );
        assert_eq!(
            prog.verify_striped(&ins[..3], &[&a, &a, &a], 2),
            Err(ExecError::InputCount { expected: 4, got: 3 })
        );
        let none: &[u8] = &[];
        assert_eq!(prog.verify_striped(&[none; 4], &[none; 3], 2), Ok(true));
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
            prog.run_striped(&refs, &mut orefs, crate::default_parallelism().max(2)).unwrap();
        }
        assert_eq!(outs, expect);
    }
}
