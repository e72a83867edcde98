//! The SLP intermediate representation and structural utilities.

use crate::term::Term;
use crate::value::ValueSet;
use std::collections::HashMap;

/// One instruction `dst ← ⊕(args…)`.
///
/// Arity 1 is a copy (`dst ← t`), arity 2 the binary XOR of `SLP⊕`, arity
/// ≥ 3 a fused XOR of `SLP®⊕` (§5.1).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Instr {
    /// Destination variable index.
    pub dst: u32,
    /// Argument terms, evaluated left to right (the order matters for the
    /// cache model of §6.2, not for the value).
    pub args: Vec<Term>,
}

impl Instr {
    /// Convenience constructor.
    pub fn new(dst: u32, args: impl Into<Vec<Term>>) -> Self {
        Instr {
            dst,
            args: args.into(),
        }
    }

    /// Number of XOR operations this instruction performs (`arity - 1`).
    #[inline]
    pub fn xor_count(&self) -> usize {
        self.args.len().saturating_sub(1)
    }

    /// Number of memory accesses (§5.1): load every argument plus store the
    /// result (`arity + 1`).
    #[inline]
    pub fn mem_accesses(&self) -> usize {
        self.args.len() + 1
    }
}

/// Structural problems detected by [`Slp::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlpError {
    /// An instruction has an empty argument list.
    EmptyArgs { instr: usize },
    /// A constant index is out of range.
    ConstOutOfRange { instr: Option<usize>, index: u32 },
    /// A variable is read before any assignment.
    UseBeforeDef { instr: Option<usize>, var: u32 },
    /// The return list is empty.
    NoOutputs,
}

impl std::fmt::Display for SlpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlpError::EmptyArgs { instr } => write!(f, "instruction {instr} has no arguments"),
            SlpError::ConstOutOfRange { instr, index } => match instr {
                Some(i) => write!(
                    f,
                    "instruction {i} references constant {index} out of range"
                ),
                None => write!(f, "return list references constant {index} out of range"),
            },
            SlpError::UseBeforeDef { instr, var } => match instr {
                Some(i) => write!(f, "instruction {i} reads v{var} before definition"),
                None => write!(f, "return list reads v{var} before definition"),
            },
            SlpError::NoOutputs => write!(f, "program returns nothing"),
        }
    }
}

impl std::error::Error for SlpError {}

/// A straight-line program with XOR (§4.1): a tuple of variables, constants,
/// an instruction sequence, and the returned terms.
///
/// Variables may be assigned more than once (scheduled programs reuse
/// pebbles); [`Slp::is_ssa`] detects the single-assignment fragment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Slp {
    /// Number of input constants (indices `0..n_consts`).
    pub n_consts: usize,
    /// The program body.
    pub instrs: Vec<Instr>,
    /// The returned terms `ret(g1, …, gm)`.
    pub outputs: Vec<Term>,
}

impl Slp {
    /// Build and validate.
    pub fn new(n_consts: usize, instrs: Vec<Instr>, outputs: Vec<Term>) -> Result<Self, SlpError> {
        let slp = Slp {
            n_consts,
            instrs,
            outputs,
        };
        slp.validate()?;
        Ok(slp)
    }

    /// Check structural well-formedness: arguments exist, variables are
    /// defined before use, outputs are defined.
    pub fn validate(&self) -> Result<(), SlpError> {
        if self.outputs.is_empty() {
            return Err(SlpError::NoOutputs);
        }
        let mut defined = vec![false; self.n_vars()];
        for (i, instr) in self.instrs.iter().enumerate() {
            if instr.args.is_empty() {
                return Err(SlpError::EmptyArgs { instr: i });
            }
            for &t in &instr.args {
                match t {
                    Term::Const(c) if (c as usize) >= self.n_consts => {
                        return Err(SlpError::ConstOutOfRange {
                            instr: Some(i),
                            index: c,
                        })
                    }
                    Term::Var(v) if !defined.get(v as usize).copied().unwrap_or(false) => {
                        return Err(SlpError::UseBeforeDef {
                            instr: Some(i),
                            var: v,
                        })
                    }
                    _ => {}
                }
            }
            defined[instr.dst as usize] = true;
        }
        for &t in &self.outputs {
            match t {
                Term::Const(c) if (c as usize) >= self.n_consts => {
                    return Err(SlpError::ConstOutOfRange {
                        instr: None,
                        index: c,
                    })
                }
                Term::Var(v) if !defined.get(v as usize).copied().unwrap_or(false) => {
                    return Err(SlpError::UseBeforeDef {
                        instr: None,
                        var: v,
                    })
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Number of variable slots (one past the largest destination index).
    pub fn n_vars(&self) -> usize {
        self.instrs
            .iter()
            .map(|i| i.dst as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// `NVar`: the number of *distinct* variables (§4.1). For scheduled
    /// programs this is the pebble count.
    pub fn nvar(&self) -> usize {
        let mut seen = vec![false; self.n_vars()];
        let mut count = 0;
        for i in &self.instrs {
            if !seen[i.dst as usize] {
                seen[i.dst as usize] = true;
                count += 1;
            }
        }
        count
    }

    /// True iff every variable is assigned exactly once (SSA form, §6.3).
    pub fn is_ssa(&self) -> bool {
        let mut seen = vec![false; self.n_vars()];
        for i in &self.instrs {
            if seen[i.dst as usize] {
                return false;
            }
            seen[i.dst as usize] = true;
        }
        true
    }

    /// True iff every instruction has arity ≤ 2 (the `SLP⊕` fragment).
    pub fn is_binary(&self) -> bool {
        self.instrs.iter().all(|i| i.args.len() <= 2)
    }

    /// Rewrite into SSA by renaming every re-assignment to a fresh variable
    /// (§A.3 uses the same normalization). Semantics is preserved.
    pub fn to_ssa(&self) -> Slp {
        let mut current: HashMap<u32, u32> = HashMap::new();
        let mut instrs = Vec::with_capacity(self.instrs.len());
        for (fresh, instr) in self.instrs.iter().enumerate() {
            let args = instr
                .args
                .iter()
                .map(|&t| match t {
                    Term::Var(v) => Term::Var(current[&v]),
                    c => c,
                })
                .collect();
            current.insert(instr.dst, fresh as u32);
            instrs.push(Instr {
                dst: fresh as u32,
                args,
            });
        }
        let outputs = self
            .outputs
            .iter()
            .map(|&t| match t {
                Term::Var(v) => Term::Var(current[&v]),
                c => c,
            })
            .collect();
        Slp {
            n_consts: self.n_consts,
            instrs,
            outputs,
        }
    }

    /// Flatten every output into a single variadic instruction over
    /// constants only, by unfolding variables through the set semantics.
    ///
    /// This is the normal form consumed by the RePair compressors: one
    /// "original variable" per output, each defined over constants.
    pub fn flatten(&self) -> Slp {
        let values = self.eval();
        let mut instrs = Vec::with_capacity(values.len());
        let mut outputs = Vec::with_capacity(values.len());
        for (k, val) in values.iter().enumerate() {
            assert!(
                !val.is_empty(),
                "output {k} evaluates to the empty set; cannot flatten"
            );
            let args: Vec<Term> = val.iter().map(Term::Const).collect();
            if args.len() == 1 {
                // A bare copy of an input: return the constant directly.
                outputs.push(args[0]);
            } else {
                let dst = instrs.len() as u32;
                instrs.push(Instr { dst, args });
                outputs.push(Term::Var(dst));
            }
        }
        // Renumber variables densely (some outputs may be constants).
        Slp {
            n_consts: self.n_consts,
            instrs,
            outputs,
        }
    }

    /// Remove instructions whose destination is never read afterwards and
    /// is not returned (dead-code elimination).
    ///
    /// Operates on SSA programs; call [`Slp::to_ssa`] first otherwise.
    pub fn eliminate_dead_code(&self) -> Slp {
        assert!(self.is_ssa(), "DCE requires SSA form");
        let n = self.instrs.len();
        let mut live = vec![false; self.n_vars()];
        for &t in &self.outputs {
            if let Term::Var(v) = t {
                live[v as usize] = true;
            }
        }
        // Sweep backwards: a live instruction keeps its arguments alive.
        let mut keep = vec![false; n];
        for (i, instr) in self.instrs.iter().enumerate().rev() {
            if live[instr.dst as usize] {
                keep[i] = true;
                for &t in &instr.args {
                    if let Term::Var(v) = t {
                        live[v as usize] = true;
                    }
                }
            }
        }
        // Compact variable numbering.
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let mut instrs = Vec::new();
        for (i, instr) in self.instrs.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            let args = instr
                .args
                .iter()
                .map(|&t| match t {
                    Term::Var(v) => Term::Var(remap[&v]),
                    c => c,
                })
                .collect();
            let fresh = instrs.len() as u32;
            remap.insert(instr.dst, fresh);
            instrs.push(Instr { dst: fresh, args });
        }
        let outputs = self
            .outputs
            .iter()
            .map(|&t| match t {
                Term::Var(v) => Term::Var(remap[&v]),
                c => c,
            })
            .collect();
        Slp {
            n_consts: self.n_consts,
            instrs,
            outputs,
        }
    }

    /// Per-variable use counts (reads in argument positions only).
    pub fn use_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_vars()];
        for instr in &self.instrs {
            for &t in &instr.args {
                if let Term::Var(v) = t {
                    counts[v as usize] += 1;
                }
            }
        }
        counts
    }

    /// The multiset of returned values under the set semantics; two SLPs
    /// are *equivalent* (`⟦P⟧ = ⟦Q⟧`, §4.1) iff these agree positionally.
    pub fn eval(&self) -> Vec<ValueSet> {
        crate::eval::eval_outputs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term::{Const, Var};

    /// The running example of §4.1.
    fn section_4_1_example() -> Slp {
        Slp::new(
            4,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),           // v1 ← a⊕b
                Instr::new(1, vec![Const(1), Const(2), Const(3)]), // v2 ← b⊕c⊕d
                Instr::new(2, vec![Var(0), Var(1)]),               // v3 ← v1⊕v2
            ],
            vec![Var(1), Var(2), Var(0)],
        )
        .unwrap()
    }

    #[test]
    fn validation_accepts_paper_example() {
        let p = section_4_1_example();
        assert_eq!(p.n_vars(), 3);
        assert_eq!(p.nvar(), 3);
        assert!(p.is_ssa());
        assert!(!p.is_binary()); // v2 has arity 3
    }

    #[test]
    fn validation_rejects_use_before_def() {
        let err =
            Slp::new(2, vec![Instr::new(0, vec![Var(1), Const(0)])], vec![Var(0)]).unwrap_err();
        assert_eq!(
            err,
            SlpError::UseBeforeDef {
                instr: Some(0),
                var: 1
            }
        );
    }

    #[test]
    fn validation_rejects_const_out_of_range() {
        let err = Slp::new(
            1,
            vec![Instr::new(0, vec![Const(0), Const(1)])],
            vec![Var(0)],
        )
        .unwrap_err();
        assert!(matches!(err, SlpError::ConstOutOfRange { index: 1, .. }));
    }

    #[test]
    fn validation_rejects_empty_program_parts() {
        let err = Slp::new(1, vec![], vec![]).unwrap_err();
        assert_eq!(err, SlpError::NoOutputs);
        let err = Slp::new(1, vec![Instr::new(0, vec![])], vec![Var(0)]).unwrap_err();
        assert_eq!(err, SlpError::EmptyArgs { instr: 0 });
    }

    #[test]
    fn ssa_conversion_renames_reassignments() {
        // λ ← c⊕d; λ ← λ⊕g (the scheduled example of §2.1 reuses λ).
        let p = Slp::new(
            7,
            vec![
                Instr::new(0, vec![Const(2), Const(3), Const(4)]),
                Instr::new(1, vec![Const(0), Const(1)]),
                Instr::new(2, vec![Var(0), Const(5)]),
                Instr::new(0, vec![Var(0), Const(6)]), // λ reused
            ],
            vec![Var(1), Var(2), Var(0)],
        )
        .unwrap();
        assert!(!p.is_ssa());
        let q = p.to_ssa();
        assert!(q.is_ssa());
        assert_eq!(p.eval(), q.eval());
        assert_eq!(q.nvar(), 4);
    }

    #[test]
    fn flatten_unfolds_to_constant_sets() {
        let p = section_4_1_example();
        let f = p.flatten();
        assert_eq!(p.eval(), f.eval());
        // every instruction of the flat form reads constants only
        assert!(f.instrs.iter().all(|i| i.args.iter().all(|t| t.is_const())));
    }

    #[test]
    fn flatten_returns_constants_for_copies() {
        // v ← a; ret(v) flattens to ret(a) with no instructions.
        let p = Slp::new(2, vec![Instr::new(0, vec![Const(0)])], vec![Var(0)]).unwrap();
        let f = p.flatten();
        assert!(f.instrs.is_empty());
        assert_eq!(f.outputs, vec![Const(0)]);
        assert_eq!(p.eval(), f.eval());
    }

    #[test]
    fn dce_drops_unused_chains() {
        let p = Slp::new(
            3,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]), // used
                Instr::new(1, vec![Const(1), Const(2)]), // dead
                Instr::new(2, vec![Var(1), Const(0)]),   // dead (uses dead)
                Instr::new(3, vec![Var(0), Const(2)]),   // returned
            ],
            vec![Var(3)],
        )
        .unwrap();
        let q = p.eliminate_dead_code();
        assert_eq!(q.instrs.len(), 2);
        assert_eq!(p.eval(), q.eval());
        q.validate().unwrap();
    }

    #[test]
    fn use_counts_reads_only() {
        let p = section_4_1_example();
        assert_eq!(p.use_counts(), vec![1, 1, 0]);
    }
}
