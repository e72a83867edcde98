//! RePair and XorRePair (§4.3–§4.4): compressing `SLP⊕` by recursive
//! pairing, optionally exploiting XOR cancellativity via `Rebuild`.
//!
//! The compressor works on the *flat* normal form: one definition per
//! output, each a set of terms. Definitions still to be processed are the
//! "original variables" (below the horizontal line in the paper's
//! notation); `Pair(x, y)` introduces *temporal* variables `t1, t2, …`
//! above the line. The loop ends when every original has collapsed into an
//! alias of a temporal (or a constant), at which point the program is a
//! sequence of binary XORs — one per temporal.
//!
//! Tie-breaking uses the total order `≺` of §4.3 (temporals by generation
//! order, then constants alphabetically) extended lexicographically to
//! pairs (`⊏`); this makes the output fully deterministic.
//!
//! # Incremental form
//!
//! The textbook loop (kept as the test oracle in `repair/reference.rs`)
//! restarts every original's greedy `Rebuild` walk after every pairing
//! step and scans the whole pair-frequency map for the best pair. This
//! compressor emits the same program, step for step, without either
//! rescan.
//!
//! **`Rebuild` is memoized.** Three invariants make that sound:
//!
//! 1. *A temporal's value never changes.* `t ← x ⊕ y` is defined once;
//!    later steps only add temporals. A probe `|rem ⊕ t|` made in an
//!    earlier step is still correct.
//! 2. *An original's value never changes.* Pairing and `Rebuild` rewrite
//!    its *definition*, never `⟦v⟧`, so every walk starts from the `rem`
//!    it started from last time.
//! 3. *A new temporal has the largest index.* A round picks the
//!    `(|rem ⊕ t|, index)`-least temporal, so against a stored pick the
//!    newcomer wins only on a *strictly* smaller `|rem ⊕ t|`; a tie keeps
//!    the old pick.
//!
//! Hence each original keeps its last walk (`Walk`: the remainder before
//! every round, each round's pick, and how many temporals the round has
//! met). After a step each round is probed against the new temporals only
//! — and not even those whose size alone (`||rem| − |t||`) cannot beat the
//! stored pick. From the first round a newcomer wins, the rest of the walk
//! is redone against all temporals; if none wins, nothing is.
//!
//! **Pair frequencies are not stored.** `Occurrences` keeps, per term,
//! the bitmap of originals whose definition contains it, so the count of
//! `{x, y}` is a popcount of two rows ANDed — always exact, with nothing
//! to decrement — and `Pair(x, y)` visits exactly the originals in that
//! intersection. The best pair comes from a `PairQueue`: count buckets of
//! pair snapshots, each bucket a min-heap in ⊏ order, kept lazily — one
//! snapshot is filed when a count can have risen (a definition gained a
//! term), a stale head of the highest bucket is moved down to its live
//! count, and a head whose bucket is its live count is the §4.3 choice. Nothing is hashed; definitions are sorted vectors
//! of term codes and value sets are fixed-stride words in one arena
//! (`Sets`).

use slp::{Instr, Slp, Term};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

/// Statistics reported by a compression run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompressStats {
    /// Number of `Pair` applications (= temporals created).
    pub pairs: usize,
    /// Number of `Rebuild` applications that strictly shrank a definition.
    pub rebuilds_applied: usize,
    /// Temporals left unused by the final program (candidates for DCE).
    pub dead_temporals: usize,
    /// Number of `|rem ⊕ t|` evaluations made by `Rebuild` — the unit of
    /// work of XorRePair's cancellation step (0 for plain RePair).
    pub rebuild_probes: usize,
}

/// A term as an integer whose order is `≺`: temporals are their index,
/// constants their index with the top bit set.
type Code = u32;

const CONST_BIT: Code = 1 << 31;

fn term_of(code: Code) -> Term {
    if code & CONST_BIT == 0 {
        Term::Var(code)
    } else {
        Term::Const(code & !CONST_BIT)
    }
}

fn const_code(k: u32) -> Code {
    assert!(k < CONST_BIT, "constant index {k} does not fit a term code");
    k | CONST_BIT
}

/// A pair as an integer whose order is `⊏`: the ≺-smaller code in the high
/// half.
type PairKey = u64;

fn pair_key(a: Code, b: Code) -> PairKey {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    PairKey::from(lo) << 32 | PairKey::from(hi)
}

fn pair_terms(key: PairKey) -> (Code, Code) {
    ((key >> 32) as Code, key as Code)
}

/// For each term, the set of originals whose definition contains it.
/// These rows *are* the pair frequencies: `{x, y}` occurs in
/// `|row(x) ∩ row(y)|` definitions, so no count is stored anywhere that a
/// definition edit could leave stale.
struct Occurrences {
    universe: usize,
    /// Words per row: one bit per original.
    stride: usize,
    /// Constants' rows first, then temporals' in creation order.
    rows: Vec<u64>,
}

impl Occurrences {
    fn new(universe: usize, originals: usize) -> Self {
        let stride = originals.div_ceil(64).max(1);
        Occurrences {
            universe,
            stride,
            rows: vec![0; universe * stride],
        }
    }

    /// Where `x`'s row starts.
    fn start(&self, x: Code) -> usize {
        let term = if x & CONST_BIT == 0 {
            self.universe + x as usize
        } else {
            (x & !CONST_BIT) as usize
        };
        term * self.stride
    }

    fn row(&self, x: Code) -> &[u64] {
        &self.rows[self.start(x)..][..self.stride]
    }

    /// Add the (empty) row of the next temporal.
    fn push_temporal(&mut self) {
        self.rows.resize(self.rows.len() + self.stride, 0);
    }

    /// Record that original `oi`'s definition gained or lost `x`.
    fn set(&mut self, x: Code, oi: usize, present: bool) {
        let at = self.start(x) + oi / 64;
        let bit = 1 << (oi % 64);
        assert_eq!(
            self.rows[at] & bit == 0,
            present,
            "occurrence rows out of step with the definitions"
        );
        self.rows[at] ^= bit;
    }

    /// In how many definitions `x` and `y` occur together.
    fn count(&self, x: Code, y: Code) -> u32 {
        common(self.row(x), self.row(y)).map(|w| w.count_ones()).sum()
    }
}

/// `a ∩ b`, word by word.
fn common<'a>(a: &'a [u64], b: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
    a.iter().zip(b).map(|(x, y)| x & y)
}

/// The members of a bitmap, ascending.
fn members(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(wi, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                wi * 64 + bit
            })
        })
    })
}

/// The §4.3 choice (`max count, then ⊏-least pair`) answered without
/// scanning: snapshots `(count, pair)` in count buckets, each bucket a
/// min-heap in ⊏ order, maintained lazily.
///
/// Every pair that occurs at all has a snapshot whose count is at least
/// its live count: one is filed whenever a pair's count can have risen,
/// none when it falls. The ⊏-least pair of the highest bucket therefore
/// bounds the best pair from above, and *is* the best pair once its
/// bucket is its live count; a stale one is moved down to where it
/// belongs.
struct PairQueue {
    /// `buckets[c]`: the pairs snapshotted at count `c`.
    buckets: Vec<BinaryHeap<Reverse<PairKey>>>,
}

impl PairQueue {
    fn offer(&mut self, count: u32, key: PairKey) {
        let count = count as usize;
        if self.buckets.len() <= count {
            self.buckets.resize_with(count + 1, BinaryHeap::new);
        }
        self.buckets[count].push(Reverse(key));
    }

    /// The most frequent pair; ties broken by the lexicographic order ⊏.
    fn best(&mut self, occ: &Occurrences) -> Option<(Code, Code)> {
        loop {
            let stored = self.buckets.len().checked_sub(1)?;
            let Some(&Reverse(key)) = self.buckets[stored].peek() else {
                self.buckets.pop();
                continue;
            };
            let (x, y) = pair_terms(key);
            let live = occ.count(x, y) as usize;
            if live == stored {
                return Some((x, y));
            }
            // A live count above the highest snapshot would have a
            // snapshot of its own above it.
            assert!(live < stored, "pair count above every snapshot of it");
            self.buckets[stored].pop();
            if live > 0 {
                self.buckets[live].push(Reverse(key));
            }
        }
    }
}

/// `|a ⊕ b|` of two value sets of equal stride.
#[inline]
fn symdiff_len(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

/// Value sets over one universe, packed back to back in one allocation:
/// constant `c` of set `i` is bit `c % 64` of word `i · stride + c / 64`
/// (the layout of `slp::ValueSet::words`).
struct Sets {
    stride: usize,
    words: Vec<u64>,
    /// `|set|` of each set.
    lens: Vec<u32>,
}

impl Sets {
    fn new(universe: usize) -> Self {
        Sets {
            stride: universe.div_ceil(64).max(1),
            words: Vec::new(),
            lens: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.lens.len()
    }

    #[inline]
    fn get(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..][..self.stride]
    }

    /// Record the cardinality of the set whose words were just appended.
    fn seal(&mut self) {
        let set = &self.words[self.lens.len() * self.stride..];
        assert_eq!(set.len(), self.stride, "value set of another universe");
        self.lens.push(set.iter().map(|w| w.count_ones()).sum());
    }

    fn push(&mut self, set: &[u64]) {
        self.words.extend_from_slice(set);
        self.seal();
    }

    /// Append `self[i] ⊕ other`.
    fn push_symdiff(&mut self, i: usize, other: &[u64]) {
        for (k, word) in other.iter().enumerate() {
            self.words.push(self.words[i * self.stride + k] ^ word);
        }
        self.seal();
    }

    /// Append `⟦x⟧ ⊕ ⟦y⟧`, where a temporal's value is the set of that
    /// index and a constant's is its singleton.
    fn push_symdiff_of(&mut self, x: Code, y: Code) {
        let at = self.words.len();
        self.words.resize(at + self.stride, 0);
        for operand in [x, y] {
            if operand & CONST_BIT == 0 {
                let from = operand as usize * self.stride;
                for k in 0..self.stride {
                    self.words[at + k] ^= self.words[from + k];
                }
            } else {
                let c = (operand & !CONST_BIT) as usize;
                self.words[at + c / 64] ^= 1 << (c % 64);
            }
        }
        self.seal();
    }

    /// Keep the first `len` sets.
    fn truncate(&mut self, len: usize) {
        self.lens.truncate(len);
        self.words.truncate(len * self.stride);
    }
}

/// The outcome of one `Rebuild` round — one remainder against the
/// temporals probed so far.
struct Round {
    /// The `(|rem ⊕ t|, index of t)`-least temporal among the first `seen`
    /// with `|rem ⊕ t| < |rem|`, if any.
    best: Option<(u32, u32)>,
    /// How many temporals the remainder has been probed against.
    seen: usize,
}

/// The memoized `Rebuild(v)` (§4.4) of one original: starting from `⟦v⟧`,
/// each round XORs in the temporal that shrinks the remainder most, until
/// none shrinks it. The walk is kept between pairing steps, so a round is
/// only ever probed against temporals it has not met.
struct Walk {
    /// The remainder before each round; the first is the invariant value
    /// `⟦v⟧`, each next one its predecessor XOR that round's best
    /// temporal, and the last has no best.
    rems: Sets,
    /// `rounds[k]` is the round of `rems[k]`.
    rounds: Vec<Round>,
    /// Size of the definition the walk yields: final remainder plus the
    /// temporals picked an odd number of times.
    candidate_len: usize,
}

impl Walk {
    fn new(universe: usize, value: &[u64]) -> Self {
        let mut rems = Sets::new(universe);
        rems.push(value);
        Walk {
            candidate_len: rems.lens[0] as usize,
            rems,
            rounds: vec![Round { best: None, seen: 0 }],
        }
    }

    /// The temporals the walk picks, in order.
    fn picks(&self) -> impl Iterator<Item = u32> + '_ {
        self.rounds.iter().filter_map(|round| Some(round.best?.1))
    }

    /// The temporals picked an odd number of times (a revisit cancels:
    /// `t ⊕ t = 0`), each at its first pick. Walks are a handful of rounds
    /// long, so counting is quadratic rather than allocating.
    fn chosen(&self) -> impl Iterator<Item = u32> + '_ {
        self.picks().enumerate().filter_map(|(k, idx)| {
            let first = self.picks().position(|other| other == idx) == Some(k);
            let odd = self.picks().filter(|&other| other == idx).count() % 2 == 1;
            (first && odd).then_some(idx)
        })
    }

    /// The definition this walk yields, sorted by ≺.
    fn candidate(&self) -> Vec<Code> {
        let mut def: Vec<Code> = self.chosen().collect();
        def.sort_unstable();
        let last = self.rems.get(self.rems.len() - 1);
        def.extend(members(last.iter().copied()).map(|c| const_code(c as u32)));
        def
    }

    /// Probe round `k` against the temporals it has not met. A newcomer
    /// has a larger index than every temporal met before, so it becomes
    /// the round's best only on a strictly smaller `|rem ⊕ t|` — which
    /// `||rem| − |t||`, a lower bound, often rules out unevaluated.
    /// Returns whether the best changed.
    fn catch_up(&mut self, k: usize, temporals: &Sets, probes: &mut usize) -> bool {
        let round = &mut self.rounds[k];
        let (rem, len) = (self.rems.get(k), self.rems.lens[k]);
        let before = round.best.map_or(len, |b| b.0);
        let mut bound = before;
        for i in round.seen..temporals.len() {
            if len.abs_diff(temporals.lens[i]) >= bound {
                continue;
            }
            *probes += 1;
            let after = symdiff_len(rem, temporals.get(i));
            if after < bound {
                bound = after;
                round.best = Some((after, i as u32));
            }
        }
        round.seen = temporals.len();
        bound < before
    }

    /// Bring the walk up to date with `temporals`: catch each round up in
    /// turn; from the first round whose best has changed the rest of the
    /// walk is dropped and redone, each new remainder probed against every
    /// temporal.
    fn advance(&mut self, temporals: &Sets, probes: &mut usize) {
        let mut changed = false;
        for k in 0.. {
            if self.catch_up(k, temporals, probes) {
                self.rounds.truncate(k + 1);
                self.rems.truncate(k + 1);
            }
            let Some((_, idx)) = self.rounds[k].best else { break };
            if k + 1 == self.rounds.len() {
                self.rems.push_symdiff(k, temporals.get(idx as usize));
                self.rounds.push(Round { best: None, seen: 0 });
                changed = true;
            }
        }
        if changed {
            let last = self.rems.lens[self.rems.len() - 1];
            self.candidate_len = last as usize + self.chosen().count();
        }
    }
}

struct Original {
    /// Current definition: a set of terms (constants and temporals),
    /// sorted by ≺.
    def: Vec<Code>,
    /// Output slot this original defines.
    slot: usize,
    /// `Rebuild` state; its first remainder is the invariant value `⟦v⟧`.
    walk: Walk,
}

struct Compressor {
    universe: usize,
    /// Temporal definitions in creation order; `Term::Var(i)` refers to
    /// `temporals[i]`.
    temporals: Vec<(Code, Code)>,
    /// Value of each temporal.
    temporal_values: Sets,
    /// Reuse map: definition pair → existing temporal index.
    by_def: BTreeMap<PairKey, Code>,
    /// Every non-constant output, resolved or not; indices are stable.
    originals: Vec<Original>,
    /// Indices of the originals not yet resolved to a single term.
    live: Vec<usize>,
    /// Which definitions contain which term — and so every pair count.
    occ: Occurrences,
    /// The most frequent pairs first.
    pairs: PairQueue,
    /// Resolved output slots.
    out_map: Vec<Option<Term>>,
    stats: CompressStats,
}

impl Compressor {
    fn new(flat: &Slp) -> Self {
        let universe = flat.n_consts;
        let mut out_map = vec![None; flat.outputs.len()];
        let mut originals = Vec::new();
        let values = flat.eval();
        for (slot, out) in flat.outputs.iter().enumerate() {
            match out {
                Term::Const(k) => out_map[slot] = Some(Term::Const(*k)),
                Term::Var(_) => {
                    let def: Vec<Code> = values[slot].iter().map(const_code).collect();
                    assert!(!def.is_empty(), "output {slot} has empty value");
                    originals.push(Original {
                        def,
                        slot,
                        walk: Walk::new(universe, values[slot].words()),
                    });
                }
            }
        }
        let mut occ = Occurrences::new(universe, originals.len());
        for (oi, orig) in originals.iter().enumerate() {
            for &x in &orig.def {
                occ.set(x, oi, true);
            }
        }
        // One exact snapshot per pair, filed by the first original that
        // contains it.
        let mut pairs = PairQueue { buckets: Vec::new() };
        for (oi, orig) in originals.iter().enumerate() {
            for (i, &x) in orig.def.iter().enumerate() {
                for &y in &orig.def[i + 1..] {
                    if members(common(occ.row(x), occ.row(y))).next() == Some(oi) {
                        pairs.offer(occ.count(x, y), pair_key(x, y));
                    }
                }
            }
        }
        Compressor {
            universe,
            temporals: Vec::new(),
            temporal_values: Sets::new(universe),
            by_def: BTreeMap::new(),
            live: (0..originals.len()).collect(),
            originals,
            occ,
            pairs,
            out_map,
            stats: CompressStats::default(),
        }
    }

    /// Remove `x` from original `oi`'s definition.
    fn def_remove(&mut self, oi: usize, x: Code) {
        let def = &mut self.originals[oi].def;
        let at = def.binary_search(&x).expect("removing absent term");
        def.remove(at);
        self.occ.set(x, oi, false);
    }

    /// Insert `x` into original `oi`'s definition. Every pair `{x, z}` of
    /// the definition now occurs once more: the caller owes the queue a
    /// snapshot of each (`offer_pairs`).
    fn def_insert(&mut self, oi: usize, x: Code) {
        let def = &mut self.originals[oi].def;
        let at = def
            .binary_search(&x)
            .expect_err("inserting duplicate term");
        def.insert(at, x);
        self.occ.set(x, oi, true);
    }

    /// File a snapshot of every pair `{x, z}` in original `oi`'s
    /// definition, except those an earlier original of `batch` — the
    /// originals being snapshotted for `x` together — files.
    fn offer_pairs(&mut self, oi: usize, x: Code, batch: &[u64]) {
        for &z in self.originals[oi].def.iter().filter(|&&z| z != x) {
            if members(common(batch, self.occ.row(z))).next() == Some(oi) {
                self.pairs.offer(self.occ.count(x, z), pair_key(x, z));
            }
        }
    }

    fn get_or_create_temporal(&mut self, x: Code, y: Code) -> Code {
        let key = pair_key(x, y);
        if let Some(&i) = self.by_def.get(&key) {
            return i;
        }
        let idx = self.temporals.len() as Code;
        assert!(idx < CONST_BIT, "temporal index does not fit a term code");
        self.temporal_values.push_symdiff_of(x, y);
        self.temporals.push(pair_terms(key));
        self.occ.push_temporal();
        self.by_def.insert(key, idx);
        self.stats.pairs += 1;
        idx
    }

    /// Resolve originals whose definition collapsed to a single term.
    fn resolve_aliases(&mut self) {
        let Compressor {
            live,
            originals,
            out_map,
            ..
        } = self;
        live.retain(|&oi| {
            let orig = &originals[oi];
            if let [term] = orig.def[..] {
                out_map[orig.slot] = Some(term_of(term));
            }
            orig.def.len() != 1
        });
    }

    /// One `Pair(x, y)` step (§4.3), applied to exactly the originals that
    /// contain both terms.
    fn apply_pair(&mut self, x: Code, y: Code) {
        let t = self.get_or_create_temporal(x, y);
        // a copy: the removals below clear these very bits
        let mut hit: Vec<u64> = common(self.occ.row(x), self.occ.row(y)).collect();
        for oi in members(hit.iter().copied()) {
            self.def_remove(oi, x);
            self.def_remove(oi, y);
            // If t already occurs, x ⊕ y ⊕ t = 0 cancels it out entirely.
            if self.originals[oi].def.binary_search(&t).is_ok() {
                self.def_remove(oi, t);
            } else {
                self.def_insert(oi, t);
            }
            assert!(
                !self.originals[oi].def.is_empty(),
                "definition cancelled to the empty set"
            );
        }
        // Only pairs with t have become more frequent, and only in the
        // definitions that gained it.
        for (word, has_t) in hit.iter_mut().zip(self.occ.row(t)) {
            *word &= has_t;
        }
        for oi in members(hit.iter().copied()) {
            self.offer_pairs(oi, t, &hit);
        }
    }

    /// Replace original `oi`'s definition by `new`, term by term where
    /// they differ.
    fn def_replace(&mut self, oi: usize, new: &[Code]) {
        let old = self.originals[oi].def.clone();
        for &x in old.iter().filter(|x| new.binary_search(x).is_err()) {
            self.def_remove(oi, x);
        }
        let mut only = vec![0; self.occ.stride];
        only[oi / 64] = 1 << (oi % 64);
        for &x in new.iter().filter(|x| old.binary_search(x).is_err()) {
            self.def_insert(oi, x);
            self.offer_pairs(oi, x, &only);
        }
    }

    /// The `Rebuild` sweep of XorRePair's step (3): `Rebuild(v)` greedily
    /// re-expresses an original's value using temporal values, exploiting
    /// cancellativity; it replaces the definition when strictly shorter.
    fn rebuild_pass(&mut self) {
        for li in 0..self.live.len() {
            let oi = self.live[li];
            let orig = &mut self.originals[oi];
            orig.walk
                .advance(&self.temporal_values, &mut self.stats.rebuild_probes);
            if orig.walk.candidate_len < orig.def.len() {
                let candidate = orig.walk.candidate();
                self.def_replace(oi, &candidate);
                self.stats.rebuilds_applied += 1;
            }
        }
    }

    fn run(mut self, use_rebuild: bool) -> (Slp, CompressStats) {
        loop {
            self.resolve_aliases();
            if self.live.is_empty() {
                break;
            }
            let (x, y) = self
                .pairs
                .best(&self.occ)
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
            .map(|(i, &(a, b))| Instr::new(i as u32, vec![term_of(a), term_of(b)]))
            .collect();
        let outputs: Vec<Term> = self
            .out_map
            .iter()
            .map(|t| t.expect("all outputs resolved at termination"))
            .collect();
        let slp = Slp::new(self.universe, instrs, outputs)
            .expect("compressor emits well-formed SLPs");
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

/// RePair (§4.3): recursive pairing without cancellation.
///
/// Accepts any SLP; it is flattened first (each output expressed over
/// constants), which is semantics-preserving. The result is a binary SSA
/// `SLP⊕` with `⟦out⟧ = ⟦in⟧`.
pub fn repair(slp: &Slp) -> (Slp, CompressStats) {
    Compressor::new(&slp.flatten()).run(false)
}

/// XorRePair (§4.4): RePair augmented with the cancellation-aware
/// `Rebuild` sweep after every pairing step.
pub fn xor_repair(slp: &Slp) -> (Slp, CompressStats) {
    Compressor::new(&slp.flatten()).run(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp::Term::{Const, Var};

    /// P0 of §4.2/§4.3 (consts a,b,c,d = 0..3).
    fn p0() -> Slp {
        Slp::new(
            4,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(1, vec![Const(0), Const(1), Const(2)]),
                Instr::new(2, vec![Const(0), Const(1), Const(2), Const(3)]),
                Instr::new(3, vec![Const(1), Const(2), Const(3)]),
            ],
            vec![Var(0), Var(1), Var(2), Var(3)],
        )
        .unwrap()
    }

    #[test]
    fn repair_reproduces_the_paper_trace_on_p0() {
        // §4.3: RePair compresses P0 from 8 XORs to 5, producing
        //   t1 ← a⊕b; t2 ← t1⊕c; t3 ← t2⊕d; t4 ← b⊕c; t5 ← t4⊕d.
        let (q, stats) = repair(&p0());
        assert_eq!(q.xor_count(), 5);
        assert_eq!(stats.pairs, 5);
        assert_eq!(q.eval(), p0().eval());
        assert!(q.is_binary());
        assert!(q.is_ssa());

        let expect: Vec<Instr> = vec![
            Instr::new(0, vec![Const(0), Const(1)]), // t1 ← a⊕b
            Instr::new(1, vec![Var(0), Const(2)]),   // t2 ← t1⊕c
            Instr::new(2, vec![Var(1), Const(3)]),   // t3 ← t2⊕d
            Instr::new(3, vec![Const(1), Const(2)]), // t4 ← b⊕c
            Instr::new(4, vec![Var(3), Const(3)]),   // t5 ← t4⊕d
        ];
        assert_eq!(q.instrs, expect);
        assert_eq!(q.outputs, vec![Var(0), Var(1), Var(2), Var(4)]);
    }

    #[test]
    fn xor_repair_finds_the_shortest_slp_for_p0() {
        // §4.4: XorRePair reaches the optimum of 4 XORs by rebuilding
        // v4 ← a ⊕ t3 and then pairing (t3, a) — note ⊏ orders the
        // temporal first.
        let (q, stats) = xor_repair(&p0());
        assert_eq!(q.xor_count(), 4, "\n{q}");
        assert_eq!(q.eval(), p0().eval());
        assert!(stats.rebuilds_applied >= 1);

        let expect: Vec<Instr> = vec![
            Instr::new(0, vec![Const(0), Const(1)]), // t1 ← a⊕b
            Instr::new(1, vec![Var(0), Const(2)]),   // t2 ← t1⊕c
            Instr::new(2, vec![Var(1), Const(3)]),   // t3 ← t2⊕d
            Instr::new(3, vec![Var(2), Const(0)]),   // t4 ← t3⊕a
        ];
        assert_eq!(q.instrs, expect);
        assert_eq!(q.outputs, vec![Var(0), Var(1), Var(2), Var(3)]);
    }

    #[test]
    fn xor_repair_never_beats_repair_in_reverse() {
        // On programs without cancellation opportunities both coincide.
        let p = Slp::new(
            5,
            vec![
                Instr::new(0, vec![Const(0), Const(1), Const(2)]),
                Instr::new(1, vec![Const(2), Const(3), Const(4)]),
            ],
            vec![Var(0), Var(1)],
        )
        .unwrap();
        let (a, _) = repair(&p);
        let (b, _) = xor_repair(&p);
        assert_eq!(a.eval(), p.eval());
        assert_eq!(b.eval(), p.eval());
        assert!(b.xor_count() <= a.xor_count());
    }

    #[test]
    fn shared_subterm_is_extracted_once() {
        // §2.1: c⊕d⊕e shared by two outputs is computed once.
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
        let (q, _) = repair(&p);
        assert_eq!(q.xor_count(), 5); // 7 → 5 as in the §2.1 summary
        assert_eq!(q.eval(), p.eval());
    }

    #[test]
    fn constant_outputs_pass_through() {
        let p = Slp::new(
            3,
            vec![Instr::new(0, vec![Const(0), Const(1), Const(2)])],
            vec![Var(0), Const(2)],
        )
        .unwrap();
        let (q, _) = xor_repair(&p);
        assert_eq!(q.outputs[1], Const(2));
        assert_eq!(q.eval(), p.eval());
    }

    #[test]
    fn single_output_chain() {
        // One output of k consts compresses to a left-deep chain of k-1
        // pairings (no sharing available).
        let p = Slp::new(
            6,
            vec![Instr::new(
                0,
                (0..6).map(Const).collect::<Vec<_>>(),
            )],
            vec![Var(0)],
        )
        .unwrap();
        let (q, _) = repair(&p);
        assert_eq!(q.xor_count(), 5);
        assert_eq!(q.eval(), p.eval());
    }

    #[test]
    fn identical_outputs_share_everything() {
        let p = Slp::new(
            3,
            vec![
                Instr::new(0, vec![Const(0), Const(1), Const(2)]),
                Instr::new(1, vec![Const(0), Const(1), Const(2)]),
            ],
            vec![Var(0), Var(1)],
        )
        .unwrap();
        let (q, _) = repair(&p);
        assert_eq!(q.xor_count(), 2); // one chain, two aliased outputs
        assert_eq!(q.outputs[0], q.outputs[1]);
        assert_eq!(q.eval(), p.eval());
    }
}
