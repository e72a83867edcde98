//! Worked examples transcribed from the paper, used as golden tests of the
//! IR, the semantics, and the cache model.
//!
//! Note on §6.4/§6.6: the author-version listings of the scheduled programs
//! `Q`, `Q_DFS`, `Q_greedy` overwrite the pebble that holds the goal `v4`
//! before `ret` (an erratum — the cost numbers are unaffected, the returned
//! *values* are not). We check the paper's cost numbers against the literal
//! listings here and check semantic correctness against the repaired
//! variants; the scheduler in `slp-optimizer` only ever emits repaired
//! programs.

use crate::cache::{ccap, iocost};
use crate::ir::{Instr, Slp};
use crate::term::Term::{Const, Var};
use crate::value::ValueSet;

// Constant indices for the §6 examples: A..G = 0..6.
const A: crate::term::Term = Const(0);
const B: crate::term::Term = Const(1);
const C: crate::term::Term = Const(2);
const D: crate::term::Term = Const(3);
const E: crate::term::Term = Const(4);
const F: crate::term::Term = Const(5);
const G: crate::term::Term = Const(6);

/// P_eg of §6.2 (v1..v5 = vars 0..4).
fn p_eg() -> Slp {
    Slp::new(
        7,
        vec![
            Instr::new(0, vec![A, B]),
            Instr::new(1, vec![C, D]),
            Instr::new(2, vec![Var(0), E, F]),
            Instr::new(3, vec![Var(2), G, A]),
            Instr::new(4, vec![Var(0), Var(2), Var(3)]),
        ],
        vec![Var(1), Var(3), Var(4)],
    )
    .unwrap()
}

/// The literal winning strategy Q of §6.4 (pebbles p1,p2,p3 = vars 0,1,2).
fn q_literal() -> Slp {
    Slp::new(
        7,
        vec![
            Instr::new(0, vec![B, A]),                   // v1: p1 ← B⊕A
            Instr::new(1, vec![E, F, Var(0)]),           // v3: p2 ← ⊕(E,F,p1)
            Instr::new(2, vec![A, G, Var(1)]),           // v4: p3 ← ⊕(A,G,p2)
            Instr::new(0, vec![Var(0), Var(1), Var(2)]), // v5: p1 ← ⊕(p1,p2,p3)
            Instr::new(2, vec![C, D]),                   // v2: p3 ← C⊕D  (erratum: clobbers v4)
        ],
        vec![Var(2), Var(1), Var(0)],
    )
    .unwrap()
}

/// Q with the erratum repaired: the last instruction reuses the dead pebble
/// p2 (v3 is no longer needed) instead of clobbering the goal v4.
fn q_repaired() -> Slp {
    Slp::new(
        7,
        vec![
            Instr::new(0, vec![B, A]),
            Instr::new(1, vec![E, F, Var(0)]),
            Instr::new(2, vec![A, G, Var(1)]),
            Instr::new(0, vec![Var(0), Var(1), Var(2)]),
            Instr::new(1, vec![C, D]), // v2: p2 ← C⊕D
        ],
        vec![Var(1), Var(2), Var(0)], // ret(v2, v4, v5)
    )
    .unwrap()
}

/// The literal Q_DFS of §6.6 (pebbles p1..p4 = vars 0..3).
fn q_dfs_literal() -> Slp {
    Slp::new(
        7,
        vec![
            Instr::new(0, vec![C, D]),                   // v2: p1
            Instr::new(1, vec![A, B]),                   // v1: p2
            Instr::new(2, vec![Var(1), E, F]),           // v3: p3
            Instr::new(3, vec![Var(2), A, G]),           // v4: p4
            Instr::new(3, vec![Var(1), Var(2), Var(3)]), // v5: p4 (erratum)
        ],
        vec![Var(0), Var(2), Var(3)],
    )
    .unwrap()
}

/// The literal Q_greedy of §6.6 (pebbles p1..p3 = vars 0..2).
fn q_greedy_literal() -> Slp {
    Slp::new(
        7,
        vec![
            Instr::new(0, vec![A, B]),                   // v1: p1
            Instr::new(1, vec![Var(0), E, F]),           // v3: p2
            Instr::new(2, vec![Var(1), A, G]),           // v4: p3
            Instr::new(0, vec![Var(0), Var(1), Var(2)]), // v5: p1
            Instr::new(2, vec![C, D]),                   // v2: p3 (erratum)
        ],
        vec![Var(2), Var(1), Var(0)],
    )
    .unwrap()
}

#[test]
fn q_scores_all_parameters_better_than_p_reg() {
    // §6.4: NVar(Q) = 3, CCap(Q) = 5, IOcost(Q, 8) = 9.
    let q = q_literal();
    assert_eq!(q.nvar(), 3);
    assert_eq!(ccap(&q), 5);
    assert_eq!(iocost(&q, 8), 9);
}

#[test]
fn repaired_q_keeps_the_costs_and_fixes_the_values() {
    let q = q_repaired();
    assert_eq!(q.nvar(), 3);
    assert_eq!(ccap(&q), 5);
    assert_eq!(iocost(&q, 8), 9);
    // ⟦Q⟧ must equal ⟦P_eg⟧ = (v2, v4, v5).
    assert_eq!(q.eval(), p_eg().eval());
    // …whereas the literal listing returns v3 in place of v4.
    assert_ne!(q_literal().eval(), p_eg().eval());
}

#[test]
fn q_dfs_scores() {
    // §6.6: NVar = 4, CCap = 7, IOcost(·, 8) = 10.
    let q = q_dfs_literal();
    assert_eq!(q.nvar(), 4);
    assert_eq!(ccap(&q), 7);
    assert_eq!(iocost(&q, 8), 10);
}

#[test]
fn q_greedy_scores() {
    // §6.6: NVar = 3, CCap = 7, IOcost(·, 8) = 9 — "NVar and IOcost are
    // optimal".
    let q = q_greedy_literal();
    assert_eq!(q.nvar(), 3);
    assert_eq!(ccap(&q), 7);
    assert_eq!(iocost(&q, 8), 9);
}

#[test]
fn section_2_1_pipeline_example() {
    // §2.1: P and its compressed / fused / scheduled forms are equivalent,
    // and the XOR count drops from 7 to 5.
    // consts a..g = 0..6; P: ν1 ← a⊕b; ν2 ← c⊕d⊕e⊕f; ν3 ← c⊕d⊕e⊕g.
    let p = Slp::new(
        7,
        vec![
            Instr::new(0, vec![Const(0), Const(1)]),
            Instr::new(1, vec![Const(2), Const(3), Const(4), Const(5)]),
            Instr::new(2, vec![Const(2), Const(3), Const(4), Const(6)]),
        ],
        vec![Var(0), Var(1), Var(2)],
    )
    .unwrap();
    assert_eq!(p.xor_count(), 7);

    // compressed: λ ← c⊕d⊕e (var 3), ν2 ← λ⊕f, ν3 ← λ⊕g.
    let comp = Slp::new(
        7,
        vec![
            Instr::new(3, vec![Const(2), Const(3)]),
            Instr::new(3, vec![Var(3), Const(4)]),
            Instr::new(0, vec![Const(0), Const(1)]),
            Instr::new(1, vec![Var(3), Const(5)]),
            Instr::new(2, vec![Var(3), Const(6)]),
        ],
        vec![Var(0), Var(1), Var(2)],
    )
    .unwrap();
    assert_eq!(comp.xor_count(), 5);
    assert_eq!(comp.eval(), p.eval());

    // fused: λ ← ⊕(c,d,e) in one instruction.
    let fused = Slp::new(
        7,
        vec![
            Instr::new(3, vec![Const(2), Const(3), Const(4)]),
            Instr::new(0, vec![Const(0), Const(1)]),
            Instr::new(1, vec![Var(3), Const(5)]),
            Instr::new(2, vec![Var(3), Const(6)]),
        ],
        vec![Var(0), Var(1), Var(2)],
    )
    .unwrap();
    assert_eq!(fused.xor_count(), 5);
    assert!(fused.mem_accesses() < comp.mem_accesses());
    assert_eq!(fused.eval(), p.eval());

    // scheduled: ν1 ← a⊕b; λ ← ⊕(c,d,e); ν2 ← λ⊕f; λ ← λ⊕g; ret(ν1,ν2,λ).
    let sched = Slp::new(
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
    assert_eq!(sched.eval(), p.eval());
    // scheduling reuses λ: one fewer distinct variable than the fused form.
    assert_eq!(sched.nvar(), fused.nvar() - 1);
}

#[test]
fn section_4_2_shortest_slp_example() {
    // §4.2: P0 (8 XORs), P1 (5), P2 (4, uses cancellation) are equivalent.
    let p0 = Slp::new(
        4,
        vec![
            Instr::new(0, vec![Const(0), Const(1)]),
            Instr::new(1, vec![Const(0), Const(1), Const(2)]),
            Instr::new(2, vec![Const(0), Const(1), Const(2), Const(3)]),
            Instr::new(3, vec![Const(1), Const(2), Const(3)]),
        ],
        vec![Var(0), Var(1), Var(2), Var(3)],
    )
    .unwrap();
    assert_eq!(p0.xor_count(), 8);

    let p1 = Slp::new(
        4,
        vec![
            Instr::new(0, vec![Const(0), Const(1)]),
            Instr::new(1, vec![Var(0), Const(2)]),
            Instr::new(2, vec![Var(1), Const(3)]),
            Instr::new(3, vec![Const(1), Const(2), Const(3)]),
        ],
        vec![Var(0), Var(1), Var(2), Var(3)],
    )
    .unwrap();
    assert_eq!(p1.xor_count(), 5);
    assert_eq!(p1.eval(), p0.eval());

    let p2 = Slp::new(
        4,
        vec![
            Instr::new(0, vec![Const(0), Const(1)]),
            Instr::new(1, vec![Var(0), Const(2)]),
            Instr::new(2, vec![Var(1), Const(3)]),
            Instr::new(3, vec![Var(2), Const(0)]), // v4 ← v3 ⊕ a (cancellation!)
        ],
        vec![Var(0), Var(1), Var(2), Var(3)],
    )
    .unwrap();
    assert_eq!(p2.xor_count(), 4);
    assert_eq!(p2.eval(), p0.eval());

    // the cancellation really is used: v3 ⊕ a = {a,b,c,d} ⊕ {a} = {b,c,d}.
    let v4 = &p2.eval()[3];
    assert_eq!(*v4, ValueSet::from_indices(4, [1, 2, 3]));
}
