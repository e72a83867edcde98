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
//! every round and each round's pick). After a step each round is probed
//! against the new temporals only; from the first round a newcomer takes,
//! the rest of the walk is redone; if none takes one, nothing is.
//!
//! **The sweep touches only the walks the newcomer can change.** After a
//! pairing step every live walk has met every temporal but the new one,
//! `t` (invariant 3). `t` takes a round only if `|rem ⊕ t| < |rem|`, that
//! is, only if more than half of `t` lies in `rem` — and so in the union
//! of the walk's remainders, which the compressor keeps per original. One
//! `|union ∩ t|` passes over a walk without reading a round — four walks
//! in five on the RS(10, 4) encoder; the rest probe `t` once per round,
//! with no size test first.
//!
//! **A walk the newcomer changes keeps what it can.** When `t` takes round
//! `k` from pick `p`, every later remainder moves by `D = ⟦t⟧ ⊕ ⟦p⟧`.
//! While `D` lies inside a remainder, that remainder shrinks by exactly
//! `|D|`, and no temporal it has met (invariant 1) moves by more, so its
//! pick stays, `|D|` smaller, and still first on a tie; only `t` needs a
//! probe. A terminal remainder stays terminal the same way. The first
//! remainder `D` does not lie inside is scanned afresh.
//!
//! **A fresh scan is one flat, branch-free pass.** `Temporals` keeps every
//! temporal's value twice: in creation order, and in one contiguous array
//! sorted by size. `||rem| − |t||` is a lower bound on `|rem ⊕ t|`, so
//! only the sizes within the round's bound of `|rem|` can win — one run of
//! the sorted array. Every set in it is probed, and the least
//! `(|rem ⊕ t|, index)` — the index breaks ties exactly as the textbook
//! scan in creation order does — is kept with a `min`, not a branch. Sets
//! of one and two words (universes up to 128 constants: every RS(n ≤ 16)
//! encoder, every decoder over ≤ 128 packets) get loops specialized to
//! their width.
//!
//! **Pair frequencies are not stored.** `Occurrences` keeps, per term,
//! the bitmap of originals whose definition contains it, so the count of
//! `{x, y}` is a popcount of two rows ANDed — always exact, with nothing
//! to decrement — and `Pair(x, y)` visits exactly the originals in that
//! intersection. The best pair comes from a `PairQueue`: count buckets of
//! pair snapshots, each bucket a min-heap in ⊏ order, kept lazily — one
//! snapshot is filed when a count can have risen to two or more (a
//! definition gained a term), a stale head of the highest bucket is moved
//! down to its live count, and a head whose bucket is its live count is
//! the §4.3 choice. When no pair occurs twice, the choice is the least
//! leading pair of the live definitions. Nothing is hashed; definitions
//! are sorted vectors of term codes and value sets are fixed-stride words
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

    /// The row of `x`: constants first, then temporals.
    fn term(&self, x: Code) -> usize {
        if x & CONST_BIT == 0 {
            self.universe + x as usize
        } else {
            (x & !CONST_BIT) as usize
        }
    }

    /// Where `x`'s row starts.
    fn start(&self, x: Code) -> usize {
        self.term(x) * self.stride
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
        common(self.row(x), self.row(y))
            .map(|w| w.count_ones())
            .sum()
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
/// Every pair that occurs at least twice has a snapshot whose count is at
/// least its live count: one is filed whenever a pair's count can have
/// risen, none when it falls. The ⊏-least pair of the highest bucket
/// therefore bounds the best pair from above, and *is* the best pair once
/// its bucket is its live count; a stale one is moved down to where it
/// belongs, or dropped below two.
///
/// A pair that occurs once is never filed. When no pair occurs twice,
/// every pair that occurs at all occurs once, and the ⊏-least of them is
/// the leading pair (the two ≺-least terms) of some definition, which
/// `Compressor::best_pair` finds without a queue. Half of all snapshots
/// would otherwise be looked at only to be found dead at count one.
struct PairQueue {
    /// `buckets[c]`: the pairs snapshotted at count `c ≥ 2`.
    buckets: Vec<BinaryHeap<Reverse<PairKey>>>,
}

impl PairQueue {
    fn offer(&mut self, count: u32, key: PairKey) {
        let count = count as usize;
        if count < 2 {
            return;
        }
        if self.buckets.len() <= count {
            self.buckets.resize_with(count + 1, BinaryHeap::new);
        }
        self.buckets[count].push(Reverse(key));
    }

    /// The most frequent pair, if one occurs at least twice; ties broken
    /// by the lexicographic order ⊏.
    fn best(&mut self, occ: &Occurrences) -> Option<(Code, Code)> {
        loop {
            let stored = self.buckets.len().checked_sub(1).filter(|&c| c >= 2)?;
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
            if live >= 2 {
                self.buckets[live].push(Reverse(key));
            }
        }
    }
}

/// `|a ⊕ b|` of two value sets of equal stride.
#[inline]
fn symdiff_len(a: &[u64], b: &[u64]) -> u32 {
    match (a, b) {
        ([a0], [b0]) => (a0 ^ b0).count_ones(),
        ([a0, a1], [b0, b1]) => (a0 ^ b0).count_ones() + (a1 ^ b1).count_ones(),
        _ => a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum(),
    }
}

/// `|a ∩ b|` of two value sets of equal stride.
#[inline]
fn meet_len(a: &[u64], b: &[u64]) -> u32 {
    match (a, b) {
        ([a0], [b0]) => (a0 & b0).count_ones(),
        ([a0, a1], [b0, b1]) => (a0 & b0).count_ones() + (a1 & b1).count_ones(),
        _ => a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum(),
    }
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

    /// Keep the first `len` sets.
    fn truncate(&mut self, len: usize) {
        self.lens.truncate(len);
        self.words.truncate(len * self.stride);
    }
}

/// The temporals' values in creation order, and the same values sorted by
/// size, so that a scan can visit exactly the sizes that may still win.
struct Temporals {
    values: Sets,
    /// Every temporal, ordered by `(|t|, index)`: values back to back
    /// (the stride of `values`) and indices.
    sorted_words: Vec<u64>,
    sorted_index: Vec<u32>,
    /// `starts[s]`: where the temporals of size `s` begin in the sorted
    /// order; one entry past the largest size.
    starts: Vec<u32>,
}

impl Temporals {
    fn new(universe: usize) -> Self {
        Temporals {
            values: Sets::new(universe),
            sorted_words: Vec::new(),
            sorted_index: Vec::new(),
            starts: vec![0; universe + 2],
        }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn get(&self, i: usize) -> &[u64] {
        self.values.get(i)
    }

    /// Append a temporal with value `set`.
    #[cfg(test)]
    fn push(&mut self, set: &[u64]) {
        self.values.push(set);
        self.file_last();
    }

    /// Append the temporal `x ⊕ y`, where a temporal's value is the set of
    /// that index and a constant's is its singleton.
    fn push_symdiff_of(&mut self, x: Code, y: Code) {
        let values = &mut self.values;
        let at = values.words.len();
        values.words.resize(at + values.stride, 0);
        for operand in [x, y] {
            if operand & CONST_BIT == 0 {
                let from = operand as usize * values.stride;
                for k in 0..values.stride {
                    values.words[at + k] ^= values.words[from + k];
                }
            } else {
                let c = (operand & !CONST_BIT) as usize;
                values.words[at + c / 64] ^= 1 << (c % 64);
            }
        }
        values.seal();
        self.file_last();
    }

    /// Insert the newest temporal at the end of its size in the sorted
    /// order.
    fn file_last(&mut self) {
        let i = self.len() - 1;
        let len = self.values.lens[i] as usize;
        let at = self.starts[len + 1] as usize;
        let stride = self.values.stride;
        let words = &self.values.words[i * stride..][..stride];
        self.sorted_words
            .splice(at * stride..at * stride, words.iter().copied());
        self.sorted_index.insert(at, i as u32);
        for start in &mut self.starts[len + 1..] {
            *start += 1;
        }
    }

    /// The `(|rem ⊕ t|, index of t)`-least temporal with `|rem ⊕ t| <
    /// bound`, where `len = |rem|`.
    ///
    /// `||rem| − |t||` is a lower bound on `|rem ⊕ t|`, so only the sizes
    /// within `bound` of `len` are scanned: one contiguous run of the
    /// sorted order, every set in it probed and the least key kept without
    /// a data-dependent branch.
    fn least_symdiff(
        &self,
        rem: &[u64],
        len: u32,
        bound: u32,
        probes: &mut usize,
    ) -> Option<(u32, u32)> {
        let lo = (len + 1).saturating_sub(bound) as usize;
        let hi = ((len + bound) as usize).min(self.starts.len() - 1);
        let run = self.starts[lo] as usize..self.starts[hi] as usize;
        *probes += run.len();
        let stride = self.values.stride;
        let words = &self.sorted_words[run.start * stride..run.end * stride];
        let index = &self.sorted_index[run];
        // the seed loses every tie
        let seed = key(bound, 0);
        let least = match *rem {
            [r0] => least_in::<1>(&[r0], words, index, seed),
            [r0, r1] => least_in::<2>(&[r0, r1], words, index, seed),
            _ => words
                .chunks_exact(stride)
                .zip(index)
                .map(|(set, &i)| key(symdiff_len(rem, set), i))
                .fold(seed, u64::min),
        };
        let after = (least >> 32) as u32;
        (after < bound).then_some((after, least as u32))
    }
}

/// `(|rem ⊕ t|, index of t)` as one integer in the same order.
#[inline]
fn key(after: u32, index: u32) -> u64 {
    u64::from(after) << 32 | u64::from(index)
}

/// `least` lowered by the key of every set, for sets of `W` words.
#[inline]
fn least_in<const W: usize>(rem: &[u64; W], words: &[u64], index: &[u32], least: u64) -> u64 {
    let (sets, _) = words.as_chunks::<W>();
    sets.iter()
        .zip(index)
        .map(|(set, &i)| {
            let after = (0..W).map(|k| (rem[k] ^ set[k]).count_ones()).sum();
            key(after, i)
        })
        .fold(least, u64::min)
}

/// The memoized `Rebuild(v)` (§4.4) of one original: starting from `⟦v⟧`,
/// each round XORs in the temporal that shrinks the remainder most, until
/// none shrinks it. The walk is kept between pairing steps, so a round is
/// only ever probed against temporals it has not met.
struct Walk {
    /// The remainder before each round; the first is the invariant value
    /// `⟦v⟧`, each next one its predecessor XOR that round's pick.
    rems: Sets,
    /// `bounds[k]`: what a newcomer must get `|rem ⊕ t|` strictly below
    /// to take round `k` — the `|rem ⊕ t|` of its pick, or `|rem|` for the
    /// last round, which has none.
    bounds: Vec<u32>,
    /// `picks[k]`: the `(|rem ⊕ t|, index of t)`-least temporal with
    /// `|rem ⊕ t| < |rem|` for every remainder but the last.
    picks: Vec<u32>,
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
            bounds: vec![rems.lens[0]],
            rems,
            picks: Vec::new(),
        }
    }

    /// The temporals picked an odd number of times (a revisit cancels:
    /// `t ⊕ t = 0`), each at its first pick. Walks are a handful of rounds
    /// long, so counting is quadratic rather than allocating.
    fn chosen(&self) -> impl Iterator<Item = u32> + '_ {
        let picks = &self.picks;
        picks.iter().enumerate().filter_map(move |(k, &idx)| {
            let first = picks.iter().position(|&other| other == idx) == Some(k);
            let odd = picks.iter().filter(|&&other| other == idx).count() % 2 == 1;
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

    /// Bring the walk, which has met every temporal but the newest, up to
    /// date with `temporals`. The newcomer has a larger index than every
    /// temporal met before, so it takes round `k` only on `|rem ⊕ t| <
    /// bounds[k]`; from the first round it takes, the rest of the walk is
    /// redone (`shift`, `redo`). Returns whether it was.
    fn advance(&mut self, temporals: &Temporals, probes: &mut usize) -> bool {
        let Some((k, pick)) = self.taken(temporals, probes) else {
            return false;
        };
        if k < self.picks.len() {
            self.shift(k, pick, temporals, probes);
        } else {
            self.redo(k, pick, temporals, probes);
        }
        true
    }

    /// The first round the newest temporal takes, and its pick there: one
    /// probe per round, with no size test first.
    fn taken(&self, temporals: &Temporals, probes: &mut usize) -> Option<(usize, (u32, u32))> {
        let newest = temporals.len() - 1;
        let t = temporals.get(newest);
        let rems = self.rems.words.chunks_exact(t.len());
        let taken = rems
            .zip(&self.bounds)
            .position(|(rem, &bound)| symdiff_len(rem, t) < bound);
        *probes += taken.map_or(self.bounds.len(), |k| k + 1);
        let k = taken?;
        Some((k, (symdiff_len(self.rems.get(k), t), newest as u32)))
    }

    /// Make the one newcomer `pick` round `k`'s in place of its old pick.
    ///
    /// That moves every later remainder by `D = ⟦new⟧ ⊕ ⟦old⟧`. While `D`
    /// lies inside a remainder, the remainder shrinks by exactly `|D|` and
    /// no temporal it has met moves by more, so its old pick stays — at
    /// `|D|` less, still ⊏-first on a tie — and only the newcomer needs a
    /// probe. A terminal remainder stays terminal the same way. The first
    /// round that changes otherwise is redone as usual.
    fn shift(&mut self, k: usize, pick: (u32, u32), temporals: &Temporals, probes: &mut usize) {
        let t = temporals.get(pick.1 as usize);
        let old = temporals.get(self.picks[k] as usize);
        let inside = |rem: &[u64]| {
            let d = t.iter().zip(old).map(|(a, b)| a ^ b);
            d.zip(rem).all(|(d, r)| d & !r == 0)
        };
        if !inside(self.rems.get(k + 1)) {
            return self.redo(k, pick, temporals, probes);
        }
        let shrink = self.bounds[k] - pick.0;
        (self.bounds[k], self.picks[k]) = pick;
        let stride = t.len();
        for j in k + 1..self.rems.len() {
            let terminal = j + 1 == self.rems.len();
            // the old pick goes only if `D` is not inside its remainder
            let stays = terminal || inside(self.rems.get(j + 1));
            let rem = &mut self.rems.words[j * stride..][..stride];
            for (w, word) in rem.iter_mut().enumerate() {
                *word ^= t[w] ^ old[w];
            }
            self.rems.lens[j] -= shrink;
            if !stays {
                return self.rescan_from(j, temporals, probes);
            }
            self.bounds[j] -= shrink;
            *probes += 1;
            let after = symdiff_len(self.rems.get(j), t);
            if after < self.bounds[j] {
                return self.redo(j, (after, pick.1), temporals, probes);
            }
        }
        self.candidate_len = self.rems.lens[self.rems.len() - 1] as usize + self.chosen().count();
    }

    /// Make `pick` round `k`'s, and redo the rounds after it.
    fn redo(&mut self, k: usize, pick: (u32, u32), temporals: &Temporals, probes: &mut usize) {
        self.rems.truncate(k + 1);
        self.bounds.truncate(k);
        self.picks.truncate(k);
        self.bounds.push(pick.0);
        self.picks.push(pick.1);
        self.rems.push_symdiff(k, temporals.get(pick.1 as usize));
        self.rescan_from(k + 1, temporals, probes);
    }

    /// Redo the walk from round `j` on, each remainder scanned against
    /// every temporal; the remainders up to `j` and the picks before it
    /// stand.
    fn rescan_from(&mut self, j: usize, temporals: &Temporals, probes: &mut usize) {
        self.rems.truncate(j + 1);
        self.bounds.truncate(j);
        self.picks.truncate(j);
        loop {
            let k = self.rems.len() - 1;
            let (rem, len) = (self.rems.get(k), self.rems.lens[k]);
            let Some(pick) = temporals.least_symdiff(rem, len, len, probes) else {
                break;
            };
            self.bounds.push(pick.0);
            self.picks.push(pick.1);
            self.rems.push_symdiff(k, temporals.get(pick.1 as usize));
        }
        let last = self.rems.lens[self.rems.len() - 1];
        self.bounds.push(last);
        self.candidate_len = last as usize + self.chosen().count();
    }

    /// Every constant of any remainder, into `union`.
    fn union_into(&self, union: &mut [u64]) {
        union.fill(0);
        for rem in self.rems.words.chunks_exact(union.len()) {
            for (word, r) in union.iter_mut().zip(rem) {
                *word |= r;
            }
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
    temporal_values: Temporals,
    /// Reuse map: definition pair → existing temporal index.
    by_def: BTreeMap<PairKey, Code>,
    /// Every non-constant output, resolved or not; indices are stable.
    originals: Vec<Original>,
    /// Indices of the originals not yet resolved to a single term.
    live: Vec<usize>,
    /// How many temporals every live walk has met.
    swept: usize,
    /// `unions[oi]`, at the stride of the value sets: every constant of
    /// any remainder of original `oi`'s walk.
    unions: Vec<u64>,
    /// Which definitions contain which term — and so every pair count.
    occ: Occurrences,
    /// The most frequent pairs first.
    pairs: PairQueue,
    /// Per term (rows of `occ`): the last `offer_pairs` call that filed a
    /// pair with it, so that each pair is filed once per call.
    offered: Vec<u32>,
    offer_calls: u32,
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
        let unions = originals
            .iter()
            .flat_map(|orig| orig.walk.rems.get(0).iter().copied())
            .collect();
        let mut occ = Occurrences::new(universe, originals.len());
        for (oi, orig) in originals.iter().enumerate() {
            for &x in &orig.def {
                occ.set(x, oi, true);
            }
        }
        // One exact snapshot per pair that occurs twice: for each constant
        // `x`, every later term of a definition containing `x`, once
        // (`partner_of[c] == x`: already counted), heaped by count in one
        // pass per bucket.
        let mut snapshots: Vec<Vec<Reverse<PairKey>>> = Vec::new();
        let mut partner_of = vec![usize::MAX; universe];
        for x in 0..universe {
            let x_code = const_code(x as u32);
            for oi in members(occ.row(x_code).iter().copied()) {
                let def = &originals[oi].def;
                for &y in &def[def.partition_point(|&z| z <= x_code)..] {
                    let partner = &mut partner_of[(y & !CONST_BIT) as usize];
                    if *partner == x {
                        continue;
                    }
                    *partner = x;
                    let count = occ.count(x_code, y) as usize;
                    if count >= 2 {
                        if snapshots.len() <= count {
                            snapshots.resize_with(count + 1, Vec::new);
                        }
                        snapshots[count].push(Reverse(pair_key(x_code, y)));
                    }
                }
            }
        }
        let pairs = PairQueue {
            buckets: snapshots.into_iter().map(BinaryHeap::from).collect(),
        };
        Compressor {
            universe,
            temporals: Vec::new(),
            temporal_values: Temporals::new(universe),
            by_def: BTreeMap::new(),
            live: (0..originals.len()).collect(),
            swept: 0,
            unions,
            originals,
            offered: vec![0; universe],
            offer_calls: 0,
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
        let at = def.binary_search(&x).expect_err("inserting duplicate term");
        def.insert(at, x);
        self.occ.set(x, oi, true);
    }

    /// File a snapshot of every pair `{x, z}` in the definitions of the
    /// originals in `gained`, each pair once.
    fn offer_pairs(&mut self, x: Code, gained: &[u64]) {
        let Compressor {
            originals,
            occ,
            pairs,
            offered,
            offer_calls,
            ..
        } = self;
        *offer_calls += 1;
        for oi in members(gained.iter().copied()) {
            for &z in originals[oi].def.iter().filter(|&&z| z != x) {
                let last = &mut offered[occ.term(z)];
                if *last != *offer_calls {
                    *last = *offer_calls;
                    pairs.offer(occ.count(x, z), pair_key(x, z));
                }
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
        self.offered.push(0);
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
        self.offer_pairs(t, &hit);
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
            self.offer_pairs(x, &only);
        }
    }

    /// The `Rebuild` sweep of XorRePair's step (3): `Rebuild(v)` greedily
    /// re-expresses an original's value using temporal values, exploiting
    /// cancellativity; it replaces the definition when strictly shorter.
    ///
    /// After a pairing step every walk has met every temporal but the new
    /// one, `t`, and `t` takes a round only if `|rem ⊕ t| < |rem|`: only
    /// if more than half of `t` lies in `rem`, and so in the union of the
    /// walk's remainders. One test against that union passes over most
    /// walks without touching them.
    fn rebuild_pass(&mut self) {
        let met = std::mem::replace(&mut self.swept, self.temporal_values.len());
        if met == self.swept {
            return;
        }
        debug_assert_eq!(met + 1, self.swept, "a pairing step adds one temporal");
        let stride = self.temporal_values.values.stride;
        for li in 0..self.live.len() {
            let oi = self.live[li];
            let union = &mut self.unions[oi * stride..][..stride];
            let orig = &mut self.originals[oi];
            let t = self.temporal_values.get(met);
            if 2 * meet_len(union, t) <= self.temporal_values.values.lens[met] {
                // Unchanged, its candidate is still no shorter than the
                // definition, which pairing only ever shortens.
                continue;
            }
            let probes = &mut self.stats.rebuild_probes;
            if orig.walk.advance(&self.temporal_values, probes) {
                orig.walk.union_into(union);
            }
            if orig.walk.candidate_len < orig.def.len() {
                let candidate = orig.walk.candidate();
                self.def_replace(oi, &candidate);
                self.stats.rebuilds_applied += 1;
            }
        }
    }

    /// The §4.3 choice: the most frequent pair, the ⊏-least on ties.
    fn best_pair(&mut self) -> Option<(Code, Code)> {
        self.pairs.best(&self.occ).or_else(|| {
            // No pair occurs twice: the least leading pair.
            let leading = self.live.iter().map(|&oi| {
                let def = &self.originals[oi].def;
                pair_key(def[0], def[1])
            });
            leading.min().map(pair_terms)
        })
    }

    fn run(mut self, use_rebuild: bool) -> (Slp, CompressStats) {
        loop {
            self.resolve_aliases();
            if self.live.is_empty() {
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
            .map(|(i, &(a, b))| Instr::new(i as u32, vec![term_of(a), term_of(b)]))
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
            vec![Instr::new(0, (0..6).map(Const).collect::<Vec<_>>())],
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
