//! The blocked SLP executor (§6.1): run a compiled program over byte
//! arrays, chunk by chunk, with no allocation in the hot loop.
//!
//! Two loops share the compiled form:
//!
//! * [`ExecProgram::run_with_arena`] — the plain run: inputs read in
//!   place, returned variables written straight into the caller's output
//!   buffers, temporaries in full-length arena strips.
//! * `ExecProgram::run_fused` — the deforested run (§6's second
//!   optimisation: no intermediate array that the next pass only reads
//!   back). Every variable lives in a `B`-byte block-local arena strip,
//!   and each block runs a prologue, the instructions and an epilogue
//!   while its bytes are in L1. The delta prologue XORs `old` and `new`
//!   into the input strips; the accumulate epilogue XORs each output
//!   strip into its target packet; the compare epilogue checks it against
//!   an expected packet and stops at the first mismatch. Delta parity
//!   updates and parity verification run here, so neither writes out a
//!   delta, a delta-parity or an expected-parity array.

use crate::arena::VarArena;
use crate::kernels::{xor_into, Kernel};
use slp::{Slp, Term};
use std::fmt;
use std::ops::Range;

/// A resolved operand: input array or variable buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    Input(u32),
    Var(u32),
}

thread_local! {
    /// Per-thread reusable pointer tables for both blocked loops: resolved
    /// input bases, variable bases, and the per-instruction source list.
    /// Raw pointers never escape a single call; keeping the vectors
    /// thread-local (pool workers and inline callers alike) makes a
    /// steady-state run allocation-free.
    static PTR_SCRATCH: std::cell::RefCell<(Vec<*const u8>, Vec<*mut u8>, Vec<*const u8>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// Where the fused loop's program inputs come from.
#[derive(Clone, Copy)]
pub(crate) enum FusedInputs<'a> {
    /// Input `k` is packet `k` of `old ⊕ new`: both hold `n_inputs` equal
    /// packets back to back. The delta prologue writes each block of it
    /// to the input's block-local strip.
    Delta { old: &'a [u8], new: &'a [u8] },
    /// Input `k` is `packets[k]`, read in place.
    Packets(&'a [&'a [u8]]),
}

/// What the fused loop's epilogue does with each output block.
pub(crate) enum FusedOutputs<'a, 'b> {
    /// XOR output `j` into `targets[j]`.
    Accumulate(&'a mut [&'b mut [u8]]),
    /// Compare output `j` with `expected[j]`; stop at the first mismatch.
    Compare(&'a [&'b [u8]]),
}

#[derive(Clone, Debug)]
struct CompiledInstr {
    dst: u32,
    args: Vec<Slot>,
}

/// Runtime errors of the executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Wrong number of input arrays.
    InputCount { expected: usize, got: usize },
    /// Wrong number of output arrays.
    OutputCount { expected: usize, got: usize },
    /// Arrays have inconsistent lengths.
    LengthMismatch,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InputCount { expected, got } => {
                write!(f, "expected {expected} input arrays, got {got}")
            }
            ExecError::OutputCount { expected, got } => {
                write!(f, "expected {expected} output arrays, got {got}")
            }
            ExecError::LengthMismatch => write!(f, "all arrays must have the same length"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A compiled SLP ready for repeated blocked execution.
///
/// Compilation resolves terms to slots, binds each returned variable to an
/// output buffer (so results are produced in place, without a final copy),
/// and fixes the blocking parameter `B` and the XOR [`Kernel`].
#[derive(Debug)]
pub struct ExecProgram {
    n_inputs: usize,
    n_vars: usize,
    blocksize: usize,
    kernel: Kernel,
    instrs: Vec<CompiledInstr>,
    outputs: Vec<Slot>,
    /// For each variable: the output slot whose buffer backs it, if any.
    var_out: Vec<Option<u32>>,
    max_arity: usize,
}

impl ExecProgram {
    /// Compile `slp` for the given blocksize and kernel.
    ///
    /// # Panics
    /// Panics if `blocksize == 0`, the SLP fails validation, or this CPU
    /// cannot run `kernel` (both loops call it unchecked).
    pub fn compile(slp: &Slp, blocksize: usize, kernel: Kernel) -> ExecProgram {
        assert!(blocksize > 0, "blocksize must be positive");
        assert!(
            kernel.is_available(),
            "this CPU cannot run the {} kernel",
            kernel.name()
        );
        slp.validate().expect("cannot compile an ill-formed SLP");
        let n_vars = slp.n_vars();

        // Bind each returned variable to the *first* output slot returning
        // it; the variable's storage will be that caller-provided buffer.
        let mut var_out = vec![None; n_vars];
        for (i, &t) in slp.outputs.iter().enumerate() {
            if let Term::Var(v) = t {
                if var_out[v as usize].is_none() {
                    var_out[v as usize] = Some(i as u32);
                }
            }
        }

        let to_slot = |t: Term| match t {
            Term::Const(c) => Slot::Input(c),
            Term::Var(v) => Slot::Var(v),
        };
        let instrs: Vec<CompiledInstr> = slp
            .instrs
            .iter()
            .map(|i| CompiledInstr {
                dst: i.dst,
                args: i.args.iter().map(|&t| to_slot(t)).collect(),
            })
            .collect();
        let outputs: Vec<Slot> = slp.outputs.iter().map(|&t| to_slot(t)).collect();
        let max_arity = slp.max_arity();

        ExecProgram {
            n_inputs: slp.n_consts,
            n_vars,
            blocksize,
            kernel: kernel.resolve(),
            instrs,
            outputs,
            var_out,
            max_arity,
        }
    }

    /// Number of input arrays the program consumes.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of output arrays the program produces.
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of variable buffers (the arena size requirement).
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// The blocking parameter `B`.
    pub fn blocksize(&self) -> usize {
        self.blocksize
    }

    /// The kernel in use (already resolved from `Auto`).
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Allocate an arena sized for this program and array length.
    pub fn make_arena(&self, array_len: usize) -> VarArena {
        VarArena::new(self.n_vars, array_len, self.blocksize)
    }

    /// Run with a caller-managed arena (the fast path — no allocation).
    ///
    /// `inputs[k]` is the array for constant `k`; `outputs[j]` receives the
    /// `j`-th returned value. All arrays must share one length. The arena
    /// is grown if it does not fit.
    pub fn run_with_arena(
        &self,
        inputs: &[&[u8]],
        outputs: &mut [&mut [u8]],
        arena: &mut VarArena,
    ) -> Result<(), ExecError> {
        if inputs.len() != self.n_inputs {
            return Err(ExecError::InputCount {
                expected: self.n_inputs,
                got: inputs.len(),
            });
        }
        if outputs.len() != self.outputs.len() {
            return Err(ExecError::OutputCount {
                expected: self.outputs.len(),
                got: outputs.len(),
            });
        }
        let len = inputs
            .first()
            .map(|a| a.len())
            .or_else(|| outputs.first().map(|a| a.len()))
            .unwrap_or(0);
        if inputs.iter().any(|a| a.len() != len) || outputs.iter().any(|a| a.len() != len) {
            return Err(ExecError::LengthMismatch);
        }
        if len == 0 {
            return Ok(());
        }
        self.fit_arena(arena, self.n_vars, len);

        // The pointer tables live in thread-local scratch (capacity
        // retained across calls) so repeated runs allocate nothing.
        PTR_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let (input_ptrs, var_ptrs, srcs) = &mut *scratch;

            // Resolve every variable to its backing pointer: a caller
            // output buffer when the variable is returned, an arena strip
            // otherwise.
            var_ptrs.clear();
            var_ptrs.extend((0..self.n_vars).map(|v| match self.var_out[v] {
                Some(slot) => outputs[slot as usize].as_mut_ptr(),
                None => arena.var_ptr(v),
            }));
            input_ptrs.clear();
            input_ptrs.extend(inputs.iter().map(|a| a.as_ptr()));
            srcs.clear();
            srcs.reserve(self.max_arity);

            // Plain address arithmetic; the kernel call that dereferences
            // the result states why it is in bounds.
            let resolve = |s: Slot, off: usize| -> *const u8 {
                match s {
                    Slot::Input(k) => input_ptrs[k as usize].wrapping_add(off),
                    Slot::Var(v) => var_ptrs[v as usize].wrapping_add(off) as *const u8,
                }
            };

            let mut start = 0;
            while start < len {
                let chunk = self.blocksize.min(len - start);
                for instr in &self.instrs {
                    srcs.clear();
                    for &a in &instr.args {
                        srcs.push(resolve(a, start));
                    }
                    // SAFETY: pointers valid for `chunk` bytes; destination
                    // may only alias a source exactly (pebble reuse), which
                    // the kernels support; buffers are otherwise disjoint
                    // (borrow rules for inputs/outputs, arena construction
                    // for vars).
                    unsafe {
                        xor_into(
                            self.kernel,
                            var_ptrs[instr.dst as usize].add(start),
                            srcs,
                            chunk,
                        )
                    };
                }
                start += chunk;
            }

            // Materialize outputs that are not backed in place: constants
            // and duplicate returns of one variable.
            for (j, &slot) in self.outputs.iter().enumerate() {
                match slot {
                    Slot::Input(k) => {
                        // SAFETY: input and output buffers cannot overlap
                        // (shared vs unique borrows), lengths match.
                        unsafe {
                            std::ptr::copy_nonoverlapping(
                                input_ptrs[k as usize],
                                outputs[j].as_mut_ptr(),
                                len,
                            )
                        };
                    }
                    Slot::Var(v) => {
                        let bound = self.var_out[v as usize].expect("returned var is bound");
                        if bound as usize != j {
                            // SAFETY: distinct output buffers are disjoint.
                            unsafe {
                                std::ptr::copy_nonoverlapping(
                                    var_ptrs[v as usize] as *const u8,
                                    outputs[j].as_mut_ptr(),
                                    len,
                                )
                            };
                        }
                    }
                }
            }
        });
        Ok(())
    }

    /// Grow `arena` to `strips` strips of at least `len` bytes at this
    /// program's staggering. Grow, never shrink: keep the larger of the
    /// old and new requirements so a long-lived (e.g. pool-worker) arena
    /// converges instead of thrashing between program shapes.
    fn fit_arena(&self, arena: &mut VarArena, strips: usize, len: usize) {
        if !arena.fits(strips, len, self.blocksize) {
            *arena = VarArena::new(
                strips.max(arena.n_vars()),
                len.max(arena.array_len()),
                self.blocksize,
            );
        }
    }

    /// The fused blocked loop over packet offsets `range`: for each
    /// `B`-byte block, the input prologue, every instruction and the
    /// output epilogue, with every variable (and every delta input) in a
    /// block-local strip of `arena`. Inputs are whole packets, addressed
    /// at `range`; output `j` is the `range` window of its packet, so
    /// `outputs[j][0]` is packet offset `range.start`.
    ///
    /// A constant output takes its input's block (the delta strip, or the
    /// input packet itself); a variable returned twice is combined into
    /// each of its targets. Returns `false` iff the compare epilogue
    /// found a mismatch, which ends the loop.
    ///
    /// # Panics
    /// Panics if the shapes disagree with the program and `range` (the
    /// striped entry points validate them first and report typed errors).
    pub(crate) fn run_fused(
        &self,
        range: Range<usize>,
        inputs: FusedInputs<'_>,
        mut outputs: FusedOutputs<'_, '_>,
        arena: &mut VarArena,
    ) -> bool {
        let n_in = self.n_inputs;
        let width = range.len();
        // These checks are what make every pointer below valid for the
        // block it is used on. Delta inputs take the first `n_in` strips.
        let (delta_pl, first_var) = match inputs {
            FusedInputs::Delta { old, new } => {
                let pl = old.len() / n_in;
                assert!(old.len() == new.len() && range.end <= pl, "delta shape");
                (pl, n_in)
            }
            FusedInputs::Packets(packets) => {
                assert_eq!(packets.len(), n_in, "input count");
                assert!(packets.iter().all(|p| p.len() >= range.end), "input length");
                (0, 0)
            }
        };
        let windows_ok = match &outputs {
            FusedOutputs::Accumulate(t) => {
                t.len() == self.outputs.len() && t.iter().all(|o| o.len() == width)
            }
            FusedOutputs::Compare(e) => {
                e.len() == self.outputs.len() && e.iter().all(|o| o.len() == width)
            }
        };
        assert!(windows_ok, "output windows");
        if width == 0 {
            return true;
        }
        let blocksize = self.blocksize;
        self.fit_arena(arena, first_var + self.n_vars, blocksize);

        PTR_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let (input_ptrs, var_ptrs, srcs) = &mut *scratch;
            // A delta input is its strip; an in-place input is its
            // packet's base pointer and is offset per block instead.
            input_ptrs.clear();
            match inputs {
                FusedInputs::Delta { .. } => {
                    input_ptrs.extend((0..n_in).map(|k| arena.var_ptr(k) as *const u8));
                }
                FusedInputs::Packets(packets) => {
                    input_ptrs.extend(packets.iter().map(|p| p.as_ptr()));
                }
            }
            var_ptrs.clear();
            var_ptrs.extend((0..self.n_vars).map(|v| arena.var_ptr(first_var + v)));
            srcs.clear();
            srcs.reserve(self.max_arity);
            let resolve = |s: Slot, input_off: usize| -> *const u8 {
                match s {
                    Slot::Input(k) => input_ptrs[k as usize].wrapping_add(input_off),
                    Slot::Var(v) => var_ptrs[v as usize] as *const u8,
                }
            };

            let mut start = range.start;
            while start < range.end {
                let chunk = blocksize.min(range.end - start);
                let input_off = match inputs {
                    FusedInputs::Delta { old, new } => {
                        for (k, &strip) in input_ptrs.iter().enumerate() {
                            let at = k * delta_pl + start;
                            let block = at..at + chunk;
                            let pair = [old[block.clone()].as_ptr(), new[block].as_ptr()];
                            // SAFETY: both sources are `chunk`-byte slices
                            // (bounds-checked above); the strip is one of
                            // the arena's disjoint strips of at least
                            // `blocksize ≥ chunk` bytes, which no caller
                            // slice can overlap; `self.kernel` is resolved
                            // and available.
                            unsafe { xor_into(self.kernel, strip as *mut u8, &pair, chunk) };
                        }
                        0
                    }
                    FusedInputs::Packets(_) => start,
                };
                for instr in &self.instrs {
                    srcs.clear();
                    srcs.extend(instr.args.iter().map(|&a| resolve(a, input_off)));
                    // SAFETY: every source is a variable strip or an input
                    // block, each valid for `chunk` bytes (strips hold
                    // `blocksize ≥ chunk` bytes; input packets were
                    // checked to reach `range.end`); the destination strip
                    // may equal a source exactly (pebble reuse), never
                    // overlap one partially, since strips are disjoint
                    // and inputs are caller memory.
                    unsafe { xor_into(self.kernel, var_ptrs[instr.dst as usize], srcs, chunk) };
                }
                let at = start - range.start;
                match &mut outputs {
                    FusedOutputs::Accumulate(targets) => {
                        for (target, &slot) in targets.iter_mut().zip(&self.outputs) {
                            let dst = target[at..at + chunk].as_mut_ptr();
                            let pair = [dst as *const u8, resolve(slot, input_off)];
                            // SAFETY: `dst` is a `chunk`-byte block of a
                            // target window this call holds exclusively
                            // (`&mut` outer borrow), aliased only by
                            // itself as the first source; the second
                            // source is a strip or input block valid for
                            // `chunk` bytes that cannot overlap it.
                            unsafe { xor_into(self.kernel, dst, &pair, chunk) };
                        }
                    }
                    FusedOutputs::Compare(expected) => {
                        for (want, &slot) in expected.iter().zip(&self.outputs) {
                            let block = resolve(slot, input_off);
                            // SAFETY: a strip or input block valid for
                            // `chunk` bytes and initialised (strips were
                            // zeroed at allocation and written this block);
                            // nothing writes it while this borrow lives.
                            let got = unsafe { std::slice::from_raw_parts(block, chunk) };
                            if got != &want[at..at + chunk] {
                                return false;
                            }
                        }
                    }
                }
                start += chunk;
            }
            true
        })
    }

    /// Convenience: run with a freshly allocated arena.
    pub fn run(&self, inputs: &[&[u8]], outputs: &mut [&mut [u8]]) -> Result<(), ExecError> {
        let len = inputs.first().map(|a| a.len()).unwrap_or(1);
        let mut arena = self.make_arena(len.max(1));
        self.run_with_arena(inputs, outputs, &mut arena)
    }

    /// Convenience: run and collect outputs into fresh vectors.
    pub fn run_to_vecs(&self, inputs: &[&[u8]]) -> Result<Vec<Vec<u8>>, ExecError> {
        let len = inputs.first().map(|a| a.len()).unwrap_or(0);
        let mut outs = vec![vec![0u8; len]; self.n_outputs()];
        {
            let mut refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
            self.run(inputs, &mut refs)?;
        }
        Ok(outs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp::Instr;
    use slp::Term::{Const, Var};

    fn kernels() -> Vec<Kernel> {
        crate::kernels::available_kernels()
    }

    fn inputs(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|k| (0..len).map(|i| ((k * 37 + i * 11) % 256) as u8).collect())
            .collect()
    }

    /// The §4.1 example program, executed over bytes.
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
    fn matches_reference_interpreter_on_all_kernels_and_blocksizes() {
        let p = section_4_1();
        let data = inputs(4, 1000); // not a multiple of any blocksize: tails!
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let expect = p.run_reference(&refs);
        for kernel in kernels() {
            for blocksize in [1usize, 7, 64, 256, 1000, 4096] {
                let prog = ExecProgram::compile(&p, blocksize, kernel);
                let got = prog.run_to_vecs(&refs).unwrap();
                assert_eq!(got, expect, "kernel {kernel:?} B={blocksize}");
            }
        }
    }

    #[test]
    fn pebble_reuse_program_runs_correctly() {
        // §2.1 scheduled form: λ is written twice and returned.
        let p = Slp::new(
            7,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(3, vec![Const(2), Const(3), Const(4)]),
                Instr::new(1, vec![Var(3), Const(5)]),
                Instr::new(3, vec![Var(3), Const(6)]), // λ ← λ ⊕ g, in place
            ],
            vec![Var(0), Var(1), Var(3)],
        )
        .unwrap();
        let data = inputs(7, 513);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let expect = p.run_reference(&refs);
        for kernel in kernels() {
            let prog = ExecProgram::compile(&p, 128, kernel);
            assert_eq!(prog.run_to_vecs(&refs).unwrap(), expect);
        }
    }

    #[test]
    fn outputs_are_produced_in_place() {
        // The returned variable must be backed by the caller's buffer;
        // check by running into pre-sized buffers.
        let p = section_4_1();
        let data = inputs(4, 64);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let prog = ExecProgram::compile(&p, 32, Kernel::Wide64);
        let mut o1 = vec![0u8; 64];
        let mut o2 = vec![0u8; 64];
        let mut o3 = vec![0u8; 64];
        {
            let mut outs: Vec<&mut [u8]> = vec![&mut o1, &mut o2, &mut o3];
            prog.run(&refs, &mut outs).unwrap();
        }
        let expect = p.run_reference(&refs);
        assert_eq!(vec![o1, o2, o3], expect);
    }

    #[test]
    fn constant_outputs_are_copied() {
        let p = Slp::new(
            2,
            vec![Instr::new(0, vec![Const(0), Const(1)])],
            vec![Var(0), Const(1)],
        )
        .unwrap();
        let data = inputs(2, 100);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let prog = ExecProgram::compile(&p, 64, Kernel::Wide64);
        let got = prog.run_to_vecs(&refs).unwrap();
        assert_eq!(got[1], data[1]);
    }

    #[test]
    fn duplicate_outputs_are_materialized() {
        let p = Slp::new(
            2,
            vec![Instr::new(0, vec![Const(0), Const(1)])],
            vec![Var(0), Var(0)],
        )
        .unwrap();
        let data = inputs(2, 80);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let prog = ExecProgram::compile(&p, 64, Kernel::Scalar);
        let got = prog.run_to_vecs(&refs).unwrap();
        assert_eq!(got[0], got[1]);
        let expect: Vec<u8> = data[0].iter().zip(&data[1]).map(|(a, b)| a ^ b).collect();
        assert_eq!(got[0], expect);
    }

    #[test]
    fn arena_reuse_across_runs() {
        let p = section_4_1();
        let prog = ExecProgram::compile(&p, 64, Kernel::Wide64);
        let mut arena = prog.make_arena(256);
        for round in 0..3 {
            let data = inputs(4, 256)
                .into_iter()
                .map(|mut v| {
                    v.iter_mut().for_each(|b| *b = b.wrapping_add(round));
                    v
                })
                .collect::<Vec<_>>();
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let mut outs = vec![vec![0u8; 256]; 3];
            {
                let mut orefs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
                prog.run_with_arena(&refs, &mut orefs, &mut arena).unwrap();
            }
            assert_eq!(outs, p.run_reference(&refs), "round {round}");
        }
    }

    #[test]
    fn error_paths() {
        let p = section_4_1();
        let prog = ExecProgram::compile(&p, 64, Kernel::Scalar);
        let a = vec![0u8; 8];
        let refs: Vec<&[u8]> = vec![&a; 3]; // one input short
        let mut outs = vec![vec![0u8; 8]; 3];
        let mut orefs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        assert_eq!(
            prog.run(&refs, &mut orefs),
            Err(ExecError::InputCount {
                expected: 4,
                got: 3
            })
        );

        let refs: Vec<&[u8]> = vec![&a; 4];
        let mut short = vec![vec![0u8; 4]; 3];
        let mut orefs: Vec<&mut [u8]> = short.iter_mut().map(Vec::as_mut_slice).collect();
        assert_eq!(prog.run(&refs, &mut orefs), Err(ExecError::LengthMismatch));

        let mut two = vec![vec![0u8; 8]; 2];
        let mut orefs: Vec<&mut [u8]> = two.iter_mut().map(Vec::as_mut_slice).collect();
        assert_eq!(
            prog.run(&refs, &mut orefs),
            Err(ExecError::OutputCount {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn empty_arrays_are_a_noop() {
        let p = section_4_1();
        let prog = ExecProgram::compile(&p, 64, Kernel::Scalar);
        let refs: Vec<&[u8]> = vec![&[]; 4];
        let mut outs: Vec<Vec<u8>> = vec![vec![]; 3];
        let mut orefs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        assert_eq!(prog.run(&refs, &mut orefs), Ok(()));
    }

    #[test]
    fn optimized_pipeline_output_executes_identically() {
        // End-to-end within the runtime: a scheduled, fused, compressed
        // program from a bit-matrix runs identically to the base program.
        let m = bitmatrix::BitMatrix::parse(&["11110000", "00111100", "00001111", "11001100"]);
        let base = slp::binary_slp_from_bitmatrix(&m);
        let opt = slp_optimizer::optimize(&base, slp_optimizer::OptConfig::FULL_DFS);
        let data = inputs(8, 3 * 64 + 17);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let expect = base.run_reference(&refs);
        for kernel in kernels() {
            let prog = ExecProgram::compile(&opt, 64, kernel);
            assert_eq!(prog.run_to_vecs(&refs).unwrap(), expect);
        }
    }
}
