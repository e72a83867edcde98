//! Pebble-game scheduling (§6.6): reorder an SLP and reuse buffers
//! ("pebbles") to reduce `NVar`, `CCap` and `IOcost`.
//!
//! Both heuristics play the pebble game of §6.4 on the computation graph:
//! an instruction `n : p ← ⊕(p1, …, pk)` computes node `n` into pebble `p`,
//! where `p` may be a *movable* pebble — one sitting on a node whose value
//! is dead (all parents computed, not a goal). Goals keep their pebbles
//! until `ret`; this repairs the erratum in the paper's printed listings,
//! which clobber the goal `v4` (the cost numbers are unchanged — see the
//! golden tests in the `slp` crate).
//!
//! * [`schedule_dfs`] visits the graph in postorder from the goals, using
//!   the total order `≺` as the tie-breaker everywhere.
//! * [`schedule_greedy`] is the bottom-up heuristic: among computable nodes
//!   it picks the one with the highest fraction of children already in an
//!   abstract LRU cache of the given capacity, emitting cached arguments
//!   first.

use crate::graph::CompGraph;
use slp::{CacheSim, Instr, Slp, Term};

/// Shared emission state for both schedulers.
struct Scheduler {
    g: CompGraph,
    /// Parents not yet computed, per inner node.
    remaining_parents: Vec<usize>,
    computed: Vec<bool>,
    /// node → pebble currently holding its value.
    pebble_of: Vec<Option<u32>>,
    /// pebble → node whose value it holds.
    node_of: Vec<Option<usize>>,
    instrs: Vec<Instr>,
}

impl Scheduler {
    fn new(g: CompGraph) -> Self {
        let remaining_parents = g.parent_count.clone();
        let n = g.n_inner();
        Scheduler {
            g,
            remaining_parents,
            computed: vec![false; n],
            pebble_of: vec![None; n],
            node_of: Vec::new(),
            instrs: Vec::new(),
        }
    }

    /// The block a child term occupies at runtime: constants are
    /// themselves; inner nodes are represented by their pebble.
    fn block_of(&self, t: Term) -> Term {
        match t {
            Term::Const(c) => Term::Const(c),
            Term::Var(v) => Term::Var(
                self.pebble_of[v as usize].expect("child must be computed before its parent"),
            ),
        }
    }

    /// Movable pebbles: those on dead non-goal nodes, ascending.
    fn movable_pebbles(&self) -> impl Iterator<Item = u32> + '_ {
        self.node_of.iter().enumerate().filter_map(|(p, n)| {
            let node = (*n)?;
            (self.remaining_parents[node] == 0 && !self.g.is_goal[node]).then_some(p as u32)
        })
    }

    /// Emit the instruction computing `node` with the given argument order,
    /// choosing the destination pebble with `pick`, which receives the
    /// movable candidates in ascending order and returns one or `None` for
    /// a fresh pebble.
    fn emit(&mut self, node: usize, args: Vec<Term>, pick: impl FnOnce(&[u32]) -> Option<u32>) {
        debug_assert!(!self.computed[node], "node pebbled twice");
        // Consume the children: their remaining-parent counts drop, which
        // may free their pebbles for reuse *by this very instruction*.
        for &t in &self.g.children[node] {
            if let Term::Var(v) = t {
                self.remaining_parents[v as usize] -= 1;
            }
        }
        let movable: Vec<u32> = self.movable_pebbles().collect();
        let pebble = match pick(&movable) {
            Some(p) => {
                debug_assert!(movable.contains(&p), "picked an unmovable pebble");
                let old = self.node_of[p as usize].expect("movable pebble sits on a node");
                self.pebble_of[old] = None; // the old value is destroyed
                p
            }
            None => {
                self.node_of.push(None);
                (self.node_of.len() - 1) as u32
            }
        };
        self.pebble_of[node] = Some(pebble);
        self.node_of[pebble as usize] = Some(node);
        self.computed[node] = true;
        self.instrs.push(Instr::new(pebble, args));
    }

    fn finish(self, n_consts: usize) -> Slp {
        let outputs: Vec<Term> = self
            .g
            .goals
            .iter()
            .map(|&t| match t {
                Term::Const(c) => Term::Const(c),
                Term::Var(v) => {
                    Term::Var(self.pebble_of[v as usize].expect("goal computed with a live pebble"))
                }
            })
            .collect();
        Slp::new(n_consts, self.instrs, outputs).expect("scheduler emits well-formed SLPs")
    }
}

/// DFS postorder scheduling (§6.6, first heuristic).
///
/// The input must be SSA with duplicate-free arguments (the shape produced
/// by [`crate::fusion::fuse`]); any other SLP is normalized via
/// [`Slp::to_ssa`] first.
pub fn schedule_dfs(slp: &Slp) -> Slp {
    let slp = if slp.is_ssa() {
        slp.clone()
    } else {
        slp.to_ssa()
    };
    let g = CompGraph::build(&slp);
    let mut s = Scheduler::new(g);

    // Visit goals in ≺ order; traverse children in ≺ order; emit on
    // postorder exit. Iterative DFS with an explicit stack.
    let mut goal_terms: Vec<Term> = s.g.goals.clone();
    goal_terms.sort_unstable();
    goal_terms.dedup();

    #[derive(Clone, Copy)]
    enum Visit {
        Enter(usize),
        Exit(usize),
    }
    let mut visited = vec![false; s.g.n_inner()];
    for goal in goal_terms {
        let Term::Var(root) = goal else { continue };
        let mut stack = vec![Visit::Enter(root as usize)];
        while let Some(v) = stack.pop() {
            match v {
                Visit::Enter(n) => {
                    if std::mem::replace(&mut visited[n], true) {
                        continue;
                    }
                    stack.push(Visit::Exit(n));
                    // Children are stored in ≺ order; push in reverse so
                    // the ≺-least child is visited first.
                    for &t in s.g.children[n].iter().rev() {
                        if let Term::Var(c) = t {
                            if !visited[c as usize] {
                                stack.push(Visit::Enter(c as usize));
                            }
                        }
                    }
                }
                Visit::Exit(n) => {
                    let args: Vec<Term> = s.g.children[n].iter().map(|&t| s.block_of(t)).collect();
                    // Reuse the ≺-least movable pebble, else a fresh one.
                    s.emit(n, args, |movable| movable.first().copied());
                }
            }
        }
    }
    s.finish(slp.n_consts)
}

/// Bottom-up greedy scheduling (§6.6, second heuristic), parameterized by
/// the abstract cache capacity in blocks.
pub fn schedule_greedy(slp: &Slp, cache_blocks: usize) -> Slp {
    let slp = if slp.is_ssa() {
        slp.clone()
    } else {
        slp.to_ssa()
    };
    let g = CompGraph::build(&slp);
    let mut s = Scheduler::new(g);
    let mut sim = CacheSim::new(cache_blocks);

    let n = s.g.n_inner();
    let total_needed = (0..n).filter(|&v| s.g.needed[v]).count();
    let mut done = 0;

    // pending child count per node (children that are inner and uncomputed)
    let mut pending: Vec<usize> = (0..n)
        .map(|v| {
            s.g.children[v]
                .iter()
                .filter(|t| matches!(t, Term::Var(_)))
                .count()
        })
        .collect();

    while done < total_needed {
        // Candidates: needed, uncomputed, all children available.
        // Score |H| / |C| compared as cross-products to avoid floats.
        let mut best: Option<(usize, (usize, usize))> = None; // (node, (h, c))
        #[allow(clippy::needless_range_loop)] // v indexes four parallel arrays
        for v in 0..n {
            if s.computed[v] || !s.g.needed[v] || pending[v] != 0 {
                continue;
            }
            let c = s.g.children[v].len();
            let h = s.g.children[v]
                .iter()
                .filter(|&&t| sim.contains(s.block_of(t)))
                .count();
            let better = match best {
                None => true,
                // h/c > bh/bc  ⇔  h·bc > bh·c; ties keep the ≺-least node,
                // which is the first seen since we scan ascending.
                Some((_, (bh, bc))) => h * bc > bh * c,
            };
            if better {
                best = Some((v, (h, c)));
            }
        }
        let (node, _) = best.expect("acyclic graph always has a computable node");

        // Argument order: cached children first (≺ order), then the rest.
        let mut cached: Vec<Term> = Vec::new();
        let mut uncached: Vec<Term> = Vec::new();
        for &t in &s.g.children[node] {
            if sim.contains(s.block_of(t)) {
                cached.push(t);
            } else {
                uncached.push(t);
            }
        }
        let args: Vec<Term> = cached
            .into_iter()
            .chain(uncached)
            .map(|t| s.block_of(t))
            .collect();

        for &a in &args {
            sim.access_arg(a);
        }
        // Prefer a movable pebble that is currently cached; fall back to
        // any movable pebble, else allocate fresh.
        s.emit(node, args, |movable| {
            movable
                .iter()
                .copied()
                .find(|&p| sim.contains(Term::Var(p)))
                .or_else(|| movable.first().copied())
        });
        let dst = s.instrs.last().expect("just emitted").dst;
        sim.access_dst(dst);

        let newly = Term::Var(node as u32);
        for (v, ch) in pending.iter_mut().enumerate() {
            if !s.computed[v] && s.g.children[v].contains(&newly) {
                *ch -= 1;
            }
        }
        done += 1;
    }
    s.finish(slp.n_consts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp::Term::{Const, Var};
    use slp::{ccap, iocost};

    /// The fused P_eg of §6 (G_eg's program).
    fn p_eg() -> Slp {
        Slp::new(
            7,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(1, vec![Const(2), Const(3)]),
                Instr::new(2, vec![Var(0), Const(4), Const(5)]),
                Instr::new(3, vec![Var(2), Const(6), Const(0)]),
                Instr::new(4, vec![Var(0), Var(2), Var(3)]),
            ],
            vec![Var(1), Var(3), Var(4)],
        )
        .unwrap()
    }

    #[test]
    fn dfs_reproduces_q_dfs_costs_and_fixes_semantics() {
        // §6.6: NVar(Q_DFS) = 4, CCap = 7, IOcost(·, 8) = 10.
        let q = schedule_dfs(&p_eg());
        assert_eq!(q.eval(), p_eg().eval(), "\n{q}");
        assert_eq!(q.nvar(), 4);
        assert_eq!(ccap(&q), 7);
        assert_eq!(iocost(&q, 8), 10);
    }

    #[test]
    fn dfs_emits_the_paper_order() {
        // Postorder from goals v2 ≺ v4 ≺ v5 gives the node order
        // v2, v1, v3, v4, v5 with the paper's argument orders.
        let q = schedule_dfs(&p_eg());
        let expect: Vec<Instr> = vec![
            Instr::new(0, vec![Const(2), Const(3)]), // v2: p1 ← C⊕D
            Instr::new(1, vec![Const(0), Const(1)]), // v1: p2 ← A⊕B
            Instr::new(2, vec![Var(1), Const(4), Const(5)]), // v3: p3 ← ⊕(p2,E,F)
            Instr::new(3, vec![Var(2), Const(0), Const(6)]), // v4: p4 ← ⊕(p3,A,G)
            Instr::new(1, vec![Var(1), Var(2), Var(3)]), // v5: p2 ← ⊕(p2,p3,p4)
        ];
        assert_eq!(q.instrs, expect);
        assert_eq!(q.outputs, vec![Var(0), Var(3), Var(1)]);
    }

    #[test]
    fn greedy_reproduces_q_greedy_costs_and_fixes_semantics() {
        // §6.6: NVar(Q_greedy) = 3, CCap = 7, IOcost(·, 8) = 9 — optimal
        // NVar and IOcost.
        let q = schedule_greedy(&p_eg(), 8);
        assert_eq!(q.eval(), p_eg().eval(), "\n{q}");
        assert_eq!(q.nvar(), 3);
        assert_eq!(ccap(&q), 7);
        assert_eq!(iocost(&q, 8), 9);
    }

    #[test]
    fn greedy_emits_the_paper_order() {
        // v1, v3, v4, v5, v2 with cached arguments first.
        let q = schedule_greedy(&p_eg(), 8);
        let expect: Vec<Instr> = vec![
            Instr::new(0, vec![Const(0), Const(1)]), // v1: p1 ← A⊕B
            Instr::new(1, vec![Var(0), Const(4), Const(5)]), // v3: p2 ← ⊕(p1,E,F)
            Instr::new(2, vec![Var(1), Const(0), Const(6)]), // v4: p3 ← ⊕(p2,A,G)
            Instr::new(0, vec![Var(0), Var(1), Var(2)]), // v5: p1 ← ⊕(p1,p2,p3)
            Instr::new(1, vec![Const(2), Const(3)]), // v2: p2 ← C⊕D (repaired)
        ];
        assert_eq!(q.instrs, expect);
        assert_eq!(q.outputs, vec![Var(1), Var(2), Var(0)]);
    }

    #[test]
    fn goals_never_lose_their_pebbles() {
        // Schedule a program where every value is a goal: no pebble reuse
        // is possible and NVar must equal the number of instructions.
        let p = Slp::new(
            4,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(1, vec![Var(0), Const(2)]),
                Instr::new(2, vec![Var(1), Const(3)]),
            ],
            vec![Var(0), Var(1), Var(2)],
        )
        .unwrap();
        for q in [schedule_dfs(&p), schedule_greedy(&p, 4)] {
            assert_eq!(q.eval(), p.eval());
            assert_eq!(q.nvar(), 3);
        }
    }

    #[test]
    fn constant_goals_pass_through() {
        let p = Slp::new(
            3,
            vec![Instr::new(0, vec![Const(0), Const(1)])],
            vec![Var(0), Const(2)],
        )
        .unwrap();
        for q in [schedule_dfs(&p), schedule_greedy(&p, 4)] {
            assert_eq!(q.outputs[1], Const(2));
            assert_eq!(q.eval(), p.eval());
        }
    }

    #[test]
    fn dead_code_is_not_scheduled() {
        let p = Slp::new(
            3,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(1, vec![Const(1), Const(2)]), // dead
            ],
            vec![Var(0)],
        )
        .unwrap();
        for q in [schedule_dfs(&p), schedule_greedy(&p, 4)] {
            assert_eq!(q.instrs.len(), 1);
            assert_eq!(q.eval(), p.eval());
        }
    }

    #[test]
    fn scheduling_a_large_random_dag_preserves_semantics() {
        // Deterministic pseudo-random DAG, deep enough to exercise pebble
        // reuse heavily.
        let n_consts = 24;
        let mut instrs = Vec::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for v in 0..60u32 {
            let arity = 2 + (rng() % 3) as usize;
            let mut args = Vec::new();
            while args.len() < arity {
                let t = if v > 0 && rng() % 3 == 0 {
                    Term::Var((rng() % v as u64) as u32)
                } else {
                    Term::Const((rng() % n_consts as u64) as u32)
                };
                if !args.contains(&t) {
                    args.push(t);
                }
            }
            instrs.push(Instr::new(v, args));
        }
        let outputs: Vec<Term> = (50..60).map(Var).collect();
        let p = Slp::new(n_consts, instrs, outputs).unwrap();
        let dfs = schedule_dfs(&p);
        let greedy = schedule_greedy(&p, 16);
        assert_eq!(dfs.eval(), p.eval());
        assert_eq!(greedy.eval(), p.eval());
        assert!(dfs.nvar() <= p.nvar());
        assert!(greedy.nvar() <= p.nvar());
    }
}
