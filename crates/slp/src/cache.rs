//! The abstract LRU cache of §6.2 and the two cache-efficiency measures,
//! `CCap` and `IOcost`.
//!
//! A cache is an ordered sequence of *blocks* (constants or variables);
//! rightmost = most recently used. Executing `v ← ⊕(t1,…,tk)`:
//!
//! 1. each argument `tᵢ`, in order, is **loaded** (`tᵢ ∉ C`, one transfer)
//!    or **touched** (position update, free);
//! 2. the destination `v` is **allocated** (`v ∉ C`, no transfer) or
//!    touched.
//!
//! Whenever the cache is full, the least-recently-used block is **evicted**
//! (one transfer — a write-back). A **reload** is a load of a block that was
//! previously in the cache and has been evicted; `CCap(P)` is the least
//! capacity for which no reload occurs, and `IOcost(P, c)` counts loads plus
//! evictions at capacity `c`.

use crate::ir::Slp;
use crate::term::Term;
use std::collections::HashSet;

/// Transfer counters produced by a simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Memory → cache transfers.
    pub loads: usize,
    /// Cache → memory transfers (evictions / write-backs).
    pub evictions: usize,
    /// Loads of blocks that had been evicted earlier (cache reloading).
    pub reloads: usize,
}

impl CacheStats {
    /// `IOcost`: loads plus evictions.
    pub fn io_cost(&self) -> usize {
        self.loads + self.evictions
    }
}

/// A step-by-step LRU simulator, exposed for tests and for the greedy
/// scheduler of §6.6 which consults the cache state while emitting code.
#[derive(Clone, Debug)]
pub struct CacheSim {
    cap: usize,
    /// LRU order, front = least recently used, back = most recently used.
    seq: Vec<Term>,
    evicted: HashSet<Term>,
    stats: CacheStats,
}

impl CacheSim {
    /// Empty cache with the given capacity (≥ 1).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "cache capacity must be at least 1");
        CacheSim {
            cap,
            seq: Vec::with_capacity(cap),
            evicted: HashSet::new(),
            stats: CacheStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Cached blocks in LRU → MRU order.
    pub fn contents(&self) -> &[Term] {
        &self.seq
    }

    /// Is `t` currently cached?
    pub fn contains(&self, t: Term) -> bool {
        self.seq.contains(&t)
    }

    fn touch(&mut self, t: Term) {
        let pos = self
            .seq
            .iter()
            .position(|&x| x == t)
            .expect("touch of uncached block");
        self.seq.remove(pos);
        self.seq.push(t);
    }

    fn make_room(&mut self) {
        if self.seq.len() == self.cap {
            let victim = self.seq.remove(0);
            self.evicted.insert(victim);
            self.stats.evictions += 1;
        }
    }

    /// Access an *argument*: touch if cached, else load (a transfer).
    pub fn access_arg(&mut self, t: Term) {
        if self.contains(t) {
            self.touch(t);
        } else {
            self.make_room();
            self.stats.loads += 1;
            if self.evicted.contains(&t) {
                self.stats.reloads += 1;
            }
            self.seq.push(t);
        }
    }

    /// Access a *destination*: touch if cached, else allocate (no transfer,
    /// but may force an eviction).
    pub fn access_dst(&mut self, v: u32) {
        let t = Term::Var(v);
        if self.contains(t) {
            self.touch(t);
        } else {
            self.make_room();
            self.seq.push(t);
        }
    }

    /// Execute one instruction against the cache model.
    pub fn step(&mut self, dst: u32, args: &[Term]) {
        for &t in args {
            self.access_arg(t);
        }
        self.access_dst(dst);
    }
}

/// Simulate the whole program at capacity `cap`.
pub fn simulate(slp: &Slp, cap: usize) -> CacheStats {
    let mut sim = CacheSim::new(cap);
    for instr in &slp.instrs {
        sim.step(instr.dst, &instr.args);
    }
    sim.stats()
}

/// Number of distinct blocks the program ever places in the cache (an upper
/// bound for [`ccap`]).
fn distinct_blocks(slp: &Slp) -> usize {
    let mut set: HashSet<Term> = HashSet::new();
    for instr in &slp.instrs {
        set.extend(instr.args.iter().copied());
        set.insert(Term::Var(instr.dst));
    }
    set.len()
}

/// `CCap(P)`: the minimum cache capacity that runs `P` without any cache
/// reloading (§6.2).
///
/// Found by binary search; the LRU *stack inclusion* property guarantees the
/// reload count is monotone non-increasing in the capacity, because the
/// access sequence generated by an SLP is independent of the cache state.
pub fn ccap(slp: &Slp) -> usize {
    let hi = distinct_blocks(slp).max(1);
    if simulate(slp, hi).reloads != 0 {
        // Cannot happen: with room for every block nothing is evicted.
        unreachable!("no-eviction capacity still reloads");
    }
    let (mut lo, mut hi) = (1usize, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if simulate(slp, mid).reloads == 0 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// `IOcost(P, c)`: number of transfers (loads + evictions) at capacity `c`
/// (§6.2).
pub fn iocost(slp: &Slp, cap: usize) -> usize {
    simulate(slp, cap).io_cost()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Instr;
    use crate::term::Term::{Const, Var};

    /// P_eg of §6.2: the blocked example program.
    pub(crate) fn p_eg() -> Slp {
        // consts: A..G = 0..6; vars v1..v5 = 0..4
        Slp::new(
            7,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),         // v1 ← A⊕B
                Instr::new(1, vec![Const(2), Const(3)]),         // v2 ← C⊕D
                Instr::new(2, vec![Var(0), Const(4), Const(5)]), // v3 ← ⊕(v1,E,F)
                Instr::new(3, vec![Var(2), Const(6), Const(0)]), // v4 ← ⊕(v3,G,A)
                Instr::new(4, vec![Var(0), Var(2), Var(3)]),     // v5 ← ⊕(v1,v3,v4)
            ],
            vec![Var(1), Var(3), Var(4)],
        )
        .unwrap()
    }

    #[test]
    fn ccap_of_p_eg_is_10() {
        assert_eq!(ccap(&p_eg()), 10);
    }

    #[test]
    fn iocost_of_p_eg() {
        // §6.2: IOcost(P_eg, 10) = 7 loads + 2 evictions = 9,
        //        IOcost(P_eg, 8) = 13.
        let s10 = simulate(&p_eg(), 10);
        assert_eq!(s10.loads, 7);
        assert_eq!(s10.evictions, 2);
        assert_eq!(s10.io_cost(), 9);
        assert_eq!(s10.reloads, 0);
        assert_eq!(iocost(&p_eg(), 8), 13);
    }

    #[test]
    fn capacity_9_forces_reload_of_a() {
        // §6.2: with capacity 9, A is replaced for G and must be reloaded.
        let s = simulate(&p_eg(), 9);
        assert!(s.reloads >= 1);
    }

    #[test]
    fn lru_order_matches_paper_trace() {
        // After the first three instructions at large capacity the cache
        // reads A B C D v2 v1 E F v3 (§6.2 trace).
        let p = p_eg();
        let mut sim = CacheSim::new(10);
        for instr in &p.instrs[..3] {
            sim.step(instr.dst, &instr.args);
        }
        let expect = [
            Const(0),
            Const(1),
            Const(2),
            Const(3),
            Var(1),
            Var(0),
            Const(4),
            Const(5),
            Var(2),
        ];
        assert_eq!(sim.contents(), expect);
    }

    #[test]
    fn p_reg_register_assignment_numbers() {
        // §6.3: P_reg stores the last result into v1; NVar = 4,
        // IOcost(P_reg, 8) = 12, CCap unchanged at 10.
        let p_reg = Slp::new(
            7,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(1, vec![Const(2), Const(3)]),
                Instr::new(2, vec![Var(0), Const(4), Const(5)]),
                Instr::new(3, vec![Var(2), Const(6), Const(0)]),
                Instr::new(0, vec![Var(0), Var(2), Var(3)]), // 5') reuse v1
            ],
            vec![Var(1), Var(3), Var(0)],
        )
        .unwrap();
        assert_eq!(p_reg.nvar(), 4);
        assert_eq!(iocost(&p_reg, 8), 12);
        assert_eq!(ccap(&p_reg), 10);
        // and the rewrite preserves semantics
        assert_eq!(p_reg.eval(), p_eg().eval());
    }

    #[test]
    fn reload_detection_is_precise() {
        // A block evicted but never re-accessed is not a reload; only
        // evict-then-load counts.
        let p = Slp::new(
            3,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(1, vec![Const(2), Var(0)]),
                Instr::new(2, vec![Const(0), Var(1)]), // A again
            ],
            vec![Var(2)],
        )
        .unwrap();
        // cap 2: A evicted when C loads, then A reloaded in instr 3.
        assert!(simulate(&p, 2).reloads > 0);
        // plenty of room: no reloads.
        assert_eq!(simulate(&p, 6).reloads, 0);
    }

    #[test]
    fn monotonicity_of_reloads() {
        // Sanity for the binary search: reloads never increase with cap.
        let p = p_eg();
        let mut last = usize::MAX;
        for cap in 1..=12 {
            let r = simulate(&p, cap).reloads;
            assert!(r <= last, "reloads increased at cap {cap}");
            last = r;
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_rejected() {
        let _ = CacheSim::new(0);
    }

    #[test]
    fn copy_instructions_participate_in_the_model() {
        // v ← a (arity 1) loads a and allocates v, like any instruction.
        let p = Slp::new(
            2,
            vec![
                Instr::new(0, vec![Const(0)]),
                Instr::new(1, vec![Var(0), Const(1)]),
            ],
            vec![Var(1)],
        )
        .unwrap();
        let s = simulate(&p, 8);
        assert_eq!(s.loads, 2); // a and b
        assert_eq!(s.evictions, 0);
        // No block is ever accessed twice, so no capacity can force a
        // *re*load: CCap is the minimum.
        assert_eq!(ccap(&p), 1);
    }

    #[test]
    fn iocost_monotone_in_capacity() {
        let p = p_eg();
        let mut last = usize::MAX;
        for cap in 1..=12 {
            let c = iocost(&p, cap);
            assert!(c <= last, "IOcost increased at cap {cap}");
            last = c;
        }
        // with room for everything: loads = distinct constants, no evicts
        assert_eq!(iocost(&p, 100), 7);
    }

    #[test]
    fn tiny_cache_thrashes_but_terminates() {
        // capacity 1: every access evicts; the simulation must still be
        // well-defined and the counters exact.
        let p = Slp::new(
            2,
            vec![Instr::new(0, vec![Const(0), Const(1)])],
            vec![Var(0)],
        )
        .unwrap();
        let s = simulate(&p, 1);
        // load A; load B evicts A; allocate v evicts B.
        assert_eq!(s.loads, 2);
        assert_eq!(s.evictions, 2);
        assert_eq!(s.reloads, 0);
    }

    #[test]
    fn repeated_argument_touches_do_not_transfer() {
        // v ← A ⊕ A: the second access to A is a position update.
        let p = Slp::new(
            1,
            vec![Instr::new(0, vec![Const(0), Const(0)])],
            vec![Var(0)],
        )
        .unwrap();
        let s = simulate(&p, 4);
        assert_eq!(s.loads, 1);
    }
}
