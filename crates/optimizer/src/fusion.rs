//! XOR fusion (§5.2): deforestation for SLPs.
//!
//! A variable used exactly once (and not returned) is *unfolded* into its
//! single use site, turning chains of binary XORs into one variadic XOR and
//! eliminating the intermediate array:
//!
//! ```text
//! v  ← ⊕(t1, …, tn);             ⇒     v' ← ⊕(…, t1, …, tn, …);
//! v' ← ⊕(…, v, …);
//! ```
//!
//! Variables used more than once are deliberately *not* unfolded: doing so
//! would duplicate work and increase `#M` (the compress-vs-fuse example of
//! §5.2). Theorem 2 — fusion strictly decreases `#M` whenever it applies —
//! is checked by a property test.
//!
//! One extension over the paper's description: unfolding can make a term
//! appear twice in an argument list (possible after XorRePair's `Rebuild`).
//! `x ⊕ x` cancels, so both occurrences are dropped, preserving `⟦·⟧`
//! exactly and only ever shrinking the program.

use slp::{Instr, Slp, Term};

/// Apply XOR fusion. Non-SSA inputs (e.g. the binary-chain `Base` form,
/// whose accumulator is reassigned) are converted to SSA first.
///
/// The result is an SSA `SLP®⊕` with the same `⟦·⟧`, no dead instructions,
/// and `#M` no larger than the input's.
pub fn fuse(slp: &Slp) -> Slp {
    let ssa;
    let input = if slp.is_ssa() {
        slp
    } else {
        ssa = slp.to_ssa();
        &ssa
    };
    let (mut cur, cancelled) = fuse_once(input);
    let mut changed = cancelled && cur != *input;
    while changed {
        let (next, cancelled) = fuse_once(&cur);
        changed = cancelled && next != cur;
        cur = next;
    }
    cur
}

/// One forward unfolding pass. Also returns whether a term cancelled
/// anywhere: only then can the next pass change anything. Unfolding `v`
/// moves each read in its definition into its one reader, so every
/// variable the pass keeps is read exactly as often as before — still not
/// once, or still returned — unless a read cancelled on the way.
fn fuse_once(slp: &Slp) -> (Slp, bool) {
    let uses = slp.use_counts();
    let mut returned = vec![false; slp.n_vars()];
    for &t in &slp.outputs {
        if let Term::Var(v) = t {
            returned[v as usize] = true;
        }
    }

    // defs[v] = fused argument list of an inlinable v.
    let mut defs: Vec<Option<Vec<Term>>> = vec![None; slp.n_vars()];
    let inlinable = |v: u32| uses[v as usize] == 1 && !returned[v as usize];

    // The instructions kept: those not folded into their single use.
    let mut keep: Vec<(u32, Vec<Term>)> = Vec::with_capacity(slp.instrs.len());
    let mut cancelled = false;
    let mut sorted = Vec::new();
    for instr in &slp.instrs {
        let mut args: Vec<Term> = Vec::with_capacity(instr.args.len());
        for &t in &instr.args {
            match t {
                Term::Var(v) if inlinable(v) => {
                    args.extend(
                        defs[v as usize]
                            .as_ref()
                            .expect("SSA guarantees def before use")
                            .iter()
                            .copied(),
                    );
                }
                other => args.push(other),
            }
        }
        let original_first = instr.args[0];
        let before = args.len();
        let mut args = cancel_duplicates(args, &mut sorted);
        cancelled |= args.len() < before;
        if args.is_empty() {
            // Everything cancelled: the value is the zero array. The IR has
            // no empty XOR, so represent zero as `t ⊕ t` — semantically the
            // empty set, and harmless at runtime. (Never occurs for SLPs
            // derived from MDS coding matrices, whose values are non-empty.)
            let t = match original_first {
                Term::Var(v) if inlinable(v) => defs[v as usize]
                    .as_ref()
                    .and_then(|d| d.first().copied())
                    .unwrap_or(original_first),
                other => other,
            };
            args = vec![t, t];
        }
        if inlinable(instr.dst) {
            defs[instr.dst as usize] = Some(args);
        } else {
            keep.push((instr.dst, args));
        }
    }

    // Renumber densely.
    let mut remap = vec![u32::MAX; slp.n_vars()];
    for (fresh, (dst, _)) in keep.iter().enumerate() {
        remap[*dst as usize] = fresh as u32;
    }
    let map_term = |t: Term| match t {
        Term::Var(v) => Term::Var(remap[v as usize]),
        c => c,
    };
    let instrs: Vec<Instr> = keep
        .iter()
        .map(|(dst, args)| {
            Instr::new(
                remap[*dst as usize],
                args.iter().map(|&t| map_term(t)).collect::<Vec<_>>(),
            )
        })
        .collect();
    let outputs: Vec<Term> = slp.outputs.iter().map(|&t| map_term(t)).collect();

    let fused = Slp::new(slp.n_consts, instrs, outputs).expect("fusion emits well-formed SLPs");
    (fused, cancelled)
}

/// Remove pairs of equal terms (`x ⊕ x = 0`), keeping one copy for odd
/// multiplicities. Order of first occurrences is preserved. `sorted` is
/// scratch space.
fn cancel_duplicates(args: Vec<Term>, sorted: &mut Vec<Term>) -> Vec<Term> {
    use std::collections::HashMap;
    sorted.clear();
    sorted.extend_from_slice(&args);
    sorted.sort_unstable();
    if sorted.windows(2).all(|w| w[0] != w[1]) {
        return args; // common fast path: nothing cancels
    }
    let mut parity: HashMap<Term, usize> = HashMap::new();
    for &t in &args {
        *parity.entry(t).or_insert(0) += 1;
    }
    let mut out = Vec::with_capacity(args.len());
    let mut emitted: HashMap<Term, bool> = HashMap::new();
    for &t in &args {
        if parity[&t] % 2 == 1 && !std::mem::replace(emitted.entry(t).or_insert(false), true) {
            out.push(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp::Term::{Const, Var};

    #[test]
    fn section_5_chain_fuses_to_xor4() {
        // v1 ← a⊕b; v2 ← v1⊕c; v3 ← v2⊕d; ret(v3)  ⇒  v ← ⊕(a,b,c,d).
        let p = Slp::new(
            4,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(1, vec![Var(0), Const(2)]),
                Instr::new(2, vec![Var(1), Const(3)]),
            ],
            vec![Var(2)],
        )
        .unwrap();
        let q = fuse(&p);
        assert_eq!(q.instrs.len(), 1);
        assert_eq!(q.instrs[0].args.len(), 4);
        assert_eq!(q.mem_accesses(), 5); // 9 → 5 as in §5
        assert_eq!(q.eval(), p.eval());
    }

    #[test]
    fn shared_variable_is_not_unfolded() {
        // §5.2: B must not be uncompressed into C.
        let b = Slp::new(
            7,
            vec![
                Instr::new(0, vec![Const(0), Const(1), Const(2), Const(3), Const(4)]),
                Instr::new(1, vec![Var(0), Const(5)]),
                Instr::new(2, vec![Var(0), Const(6)]),
            ],
            vec![Var(1), Var(2)],
        )
        .unwrap();
        let q = fuse(&b);
        assert_eq!(q, b); // v1 is used twice: fixpoint immediately
        assert_eq!(q.mem_accesses(), 12);
    }

    #[test]
    fn returned_variables_are_not_unfolded() {
        // v1 is used once *and* returned; unfolding it would lose the output.
        let p = Slp::new(
            3,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(1, vec![Var(0), Const(2)]),
            ],
            vec![Var(0), Var(1)],
        )
        .unwrap();
        let q = fuse(&p);
        assert_eq!(q.instrs.len(), 2);
        assert_eq!(q.eval(), p.eval());
    }

    #[test]
    fn base_binary_chain_fuses_to_flat_form() {
        // The non-SSA accumulator chain (Base form) becomes the flat
        // one-instruction-per-output form.
        let m = bitmatrix::BitMatrix::parse(&["110110", "011011"]);
        let base = slp::binary_slp_from_bitmatrix(&m);
        let flat = slp::flat_slp_from_bitmatrix(&m);
        let fused = fuse(&base);
        assert_eq!(fused.eval(), flat.eval());
        assert_eq!(fused.mem_accesses(), flat.mem_accesses());
        assert_eq!(fused.instrs.len(), 2);
    }

    #[test]
    fn theorem_2_on_a_chain() {
        // #M strictly decreases whenever fusion applies.
        let p = Slp::new(
            5,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(1, vec![Var(0), Const(2)]),
                Instr::new(2, vec![Var(1), Const(3), Const(4)]),
            ],
            vec![Var(2)],
        )
        .unwrap();
        let q = fuse(&p);
        assert!(q.mem_accesses() < p.mem_accesses());
        assert_eq!(q.eval(), p.eval());
    }

    #[test]
    fn duplicate_terms_cancel_on_unfold() {
        // v1 ← a⊕b; v2 ← v1⊕a; ret(v2): unfolding gives a⊕b⊕a = b... with
        // the pair of a's dropped.
        let p = Slp::new(
            2,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(1, vec![Var(0), Const(0)]),
            ],
            vec![Var(1)],
        )
        .unwrap();
        let q = fuse(&p);
        assert_eq!(q.eval(), p.eval());
        assert_eq!(q.instrs.len(), 1);
        assert_eq!(q.instrs[0].args, vec![Const(1)]);
    }

    #[test]
    fn fusion_is_idempotent() {
        let m = bitmatrix::BitMatrix::parse(&["1111", "1101", "0111"]);
        let p = fuse(&slp::binary_slp_from_bitmatrix(&m));
        assert_eq!(fuse(&p), p);
    }
}
