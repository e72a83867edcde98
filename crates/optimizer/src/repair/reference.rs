//! The compressor as first written — a direct transcription of §4.3–§4.4:
//! `Rebuild` restarts every greedy walk from scratch after every pairing
//! step and `best_pair` scans the whole frequency map. It is the oracle the
//! incremental compressor in the parent module is compared against: same
//! `Slp`, same `pairs` / `rebuilds_applied` / `dead_temporals`, for every
//! input. Quadratic and allocation-heavy on purpose; do not optimise it.

use super::CompressStats;
use slp::{Instr, Slp, Term, ValueSet};
use std::collections::btree_set::BTreeSet;
use std::collections::HashMap;

/// A pair key, normalized so the ≺-smaller term comes first.
fn pair_key(a: Term, b: Term) -> (Term, Term) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

struct Original {
    /// Current definition: a set of terms (constants and temporals).
    def: BTreeSet<Term>,
    /// The invariant value of this definition (fixed at construction).
    value: ValueSet,
    /// Output slot this original defines.
    slot: usize,
}

struct Compressor {
    universe: usize,
    /// Temporal definitions in creation order; `Term::Var(i)` refers to
    /// `temporals[i]`.
    temporals: Vec<(Term, Term)>,
    /// Value of each temporal.
    temporal_values: Vec<ValueSet>,
    /// Reuse map: definition pair → existing temporal index.
    by_def: HashMap<(Term, Term), u32>,
    /// Live originals.
    originals: Vec<Original>,
    /// Pair frequencies across live original definitions.
    counts: HashMap<(Term, Term), u32>,
    /// Resolved output slots.
    out_map: Vec<Option<Term>>,
    stats: CompressStats,
}

impl Compressor {
    fn new(flat: &Slp) -> Self {
        let mut c = Compressor {
            universe: flat.n_consts,
            temporals: Vec::new(),
            temporal_values: Vec::new(),
            by_def: HashMap::new(),
            originals: Vec::new(),
            counts: HashMap::new(),
            out_map: vec![None; flat.outputs.len()],
            stats: CompressStats::default(),
        };
        let values = flat.eval();
        for (slot, out) in flat.outputs.iter().enumerate() {
            match out {
                Term::Const(k) => c.out_map[slot] = Some(Term::Const(*k)),
                Term::Var(_) => {
                    let def: BTreeSet<Term> = values[slot].iter().map(Term::Const).collect();
                    assert!(!def.is_empty(), "output {slot} has empty value");
                    c.originals.push(Original {
                        def,
                        value: values[slot].clone(),
                        slot,
                    });
                }
            }
        }
        for orig in &c.originals {
            let terms: Vec<Term> = orig.def.iter().copied().collect();
            for i in 0..terms.len() {
                for j in i + 1..terms.len() {
                    *c.counts.entry(pair_key(terms[i], terms[j])).or_insert(0) += 1;
                }
            }
        }
        c
    }

    fn term_value(&self, t: Term) -> ValueSet {
        match t {
            Term::Const(k) => ValueSet::singleton(self.universe, k),
            Term::Var(i) => self.temporal_values[i as usize].clone(),
        }
    }

    fn dec(&mut self, key: (Term, Term)) {
        match self.counts.get_mut(&key) {
            Some(1) => {
                self.counts.remove(&key);
            }
            Some(n) => *n -= 1,
            None => unreachable!("pair count underflow for {key:?}"),
        }
    }

    /// Remove `x` from original `oi`'s definition, updating pair counts.
    fn def_remove(&mut self, oi: usize, x: Term) {
        let others: Vec<Term> = self.originals[oi]
            .def
            .iter()
            .copied()
            .filter(|&z| z != x)
            .collect();
        assert!(self.originals[oi].def.remove(&x), "removing absent term");
        for z in others {
            self.dec(pair_key(x, z));
        }
    }

    /// Insert `x` into original `oi`'s definition, updating pair counts.
    fn def_insert(&mut self, oi: usize, x: Term) {
        let others: Vec<Term> = self.originals[oi].def.iter().copied().collect();
        assert!(self.originals[oi].def.insert(x), "inserting duplicate term");
        for z in others {
            *self.counts.entry(pair_key(x, z)).or_insert(0) += 1;
        }
    }

    /// Toggle membership (used when a pair replacement meets an existing
    /// occurrence of the temporal: `t ⊕ t` cancels).
    fn def_toggle(&mut self, oi: usize, x: Term) {
        if self.originals[oi].def.contains(&x) {
            self.def_remove(oi, x);
        } else {
            self.def_insert(oi, x);
        }
    }

    fn get_or_create_temporal(&mut self, x: Term, y: Term) -> Term {
        let key = pair_key(x, y);
        if let Some(&i) = self.by_def.get(&key) {
            return Term::Var(i);
        }
        let idx = self.temporals.len() as u32;
        let value = self.term_value(x).symdiff(&self.term_value(y));
        self.temporals.push(key);
        self.temporal_values.push(value);
        self.by_def.insert(key, idx);
        self.stats.pairs += 1;
        Term::Var(idx)
    }

    /// Resolve originals whose definition collapsed to a single term.
    fn resolve_aliases(&mut self) {
        let mut i = 0;
        while i < self.originals.len() {
            if self.originals[i].def.len() == 1 {
                let orig = self.originals.swap_remove(i);
                let term = *orig.def.iter().next().expect("len checked");
                self.out_map[orig.slot] = Some(term);
            } else {
                i += 1;
            }
        }
    }

    /// The most frequent pair; ties broken by the lexicographic order ⊏.
    fn best_pair(&self) -> Option<(Term, Term)> {
        let max = *self.counts.values().max()?;
        self.counts
            .iter()
            .filter(|(_, &c)| c == max)
            .map(|(&k, _)| k)
            .min()
    }

    /// One `Pair(x, y)` step (§4.3).
    fn apply_pair(&mut self, x: Term, y: Term) {
        let t = self.get_or_create_temporal(x, y);
        for oi in 0..self.originals.len() {
            let has_both = {
                let d = &self.originals[oi].def;
                d.contains(&x) && d.contains(&y)
            };
            if !has_both {
                continue;
            }
            self.def_remove(oi, x);
            self.def_remove(oi, y);
            // If t already occurs, x ⊕ y ⊕ t = 0 cancels it out entirely.
            self.def_toggle(oi, t);
            assert!(
                !self.originals[oi].def.is_empty(),
                "definition cancelled to the empty set"
            );
        }
    }

    /// `Rebuild(v)` (§4.4): greedily re-express an original's value using
    /// temporal values, exploiting cancellativity.
    fn rebuild(&mut self, oi: usize) -> BTreeSet<Term> {
        let orig = &self.originals[oi];
        let mut rem = orig.value.clone();
        let mut chosen: BTreeSet<u32> = BTreeSet::new();
        loop {
            self.stats.rebuild_probes += self.temporal_values.len();
            let here = rem.len();
            let mut best: Option<(usize, u32)> = None; // (|rem ⊕ t|, index)
            for (i, tv) in self.temporal_values.iter().enumerate() {
                let after = rem.symdiff_len(tv);
                if after < here {
                    let candidate = (after, i as u32);
                    // strictly better, or equal size with smaller index (≺)
                    if best.is_none_or(|b| candidate < b) {
                        best = Some(candidate);
                    }
                }
            }
            let Some((_, idx)) = best else { break };
            rem.symdiff_assign(&self.temporal_values[idx as usize]);
            // toggling keeps the invariant value(def) = ⟦v⟧ even if the
            // greedy loop revisits a temporal
            if !chosen.remove(&idx) {
                chosen.insert(idx);
            }
        }
        let mut def: BTreeSet<Term> = rem.iter().map(Term::Const).collect();
        def.extend(chosen.into_iter().map(Term::Var));
        def
    }

    /// The `Rebuild` sweep of XorRePair's step (3).
    fn rebuild_pass(&mut self) {
        for oi in 0..self.originals.len() {
            let candidate = self.rebuild(oi);
            if candidate.len() < self.originals[oi].def.len() {
                // Replace wholesale, keeping pair counts consistent.
                let old: Vec<Term> = self.originals[oi].def.iter().copied().collect();
                for &x in &old {
                    self.def_remove(oi, x);
                }
                for x in candidate {
                    self.def_insert(oi, x);
                }
                self.stats.rebuilds_applied += 1;
            }
        }
    }

    fn run(mut self, use_rebuild: bool) -> (Slp, CompressStats) {
        loop {
            self.resolve_aliases();
            if self.originals.is_empty() {
                break;
            }
            let (x, y) = self
                .best_pair()
                .expect("non-alias originals always contain a pair");
            self.apply_pair(x, y);
            if use_rebuild {
                self.rebuild_pass();
            }
        }
        self.emit()
    }

    fn emit(mut self) -> (Slp, CompressStats) {
        let instrs: Vec<Instr> = self
            .temporals
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| Instr::new(i as u32, vec![a, b]))
            .collect();
        let outputs: Vec<Term> = self
            .out_map
            .iter()
            .map(|t| t.expect("all outputs resolved at termination"))
            .collect();
        let slp =
            Slp::new(self.universe, instrs, outputs).expect("compressor emits well-formed SLPs");
        // Count temporals never read and never returned.
        let uses = slp.use_counts();
        let mut returned = vec![false; slp.n_vars()];
        for &t in &slp.outputs {
            if let Term::Var(v) = t {
                returned[v as usize] = true;
            }
        }
        self.stats.dead_temporals = (0..slp.n_vars())
            .filter(|&v| uses[v] == 0 && !returned[v])
            .count();
        (slp, self.stats)
    }
}

/// The from-scratch RePair.
pub(super) fn repair(slp: &Slp) -> (Slp, CompressStats) {
    Compressor::new(&slp.flatten()).run(false)
}

/// The from-scratch XorRePair.
pub(super) fn xor_repair(slp: &Slp) -> (Slp, CompressStats) {
    Compressor::new(&slp.flatten()).run(true)
}
