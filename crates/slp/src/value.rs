//! The set-based value domain of §4.1: a value is a set of input constants,
//! and XOR is symmetric difference.

use std::fmt;

/// A set of constant indices, packed into `u64` words.
///
/// `ValueSet` is the semantic domain of SLP evaluation: the paper interprets
/// every variable as the set of inputs it XORs (`{a,b} ⊕ {a,c} = {b,c}`).
/// All optimizer passes are validated by comparing these sets before and
/// after transformation.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueSet {
    /// Number of addressable constants (fixed per program).
    universe: usize,
    words: Vec<u64>,
}

impl ValueSet {
    /// The empty set over a universe of `universe` constants.
    pub fn empty(universe: usize) -> Self {
        ValueSet {
            universe,
            words: vec![0; universe.div_ceil(64).max(1)],
        }
    }

    /// The singleton `{c}`.
    pub fn singleton(universe: usize, c: u32) -> Self {
        let mut s = ValueSet::empty(universe);
        s.toggle(c);
        s
    }

    /// Build from an iterator of constant indices (duplicates cancel, in
    /// keeping with the XOR semantics).
    pub fn from_indices(universe: usize, indices: impl IntoIterator<Item = u32>) -> Self {
        let mut s = ValueSet::empty(universe);
        for i in indices {
            s.toggle(i);
        }
        s
    }

    /// Size of the universe this set ranges over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The packed representation: constant `c` is bit `c % 64` of word
    /// `c / 64`; `universe.div_ceil(64).max(1)` words, unused high bits
    /// zero. Lets a pass copy values into an arena of its own.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Flip membership of `c` (the primitive XOR step).
    #[inline]
    pub fn toggle(&mut self, c: u32) {
        let c = c as usize;
        assert!(c < self.universe, "constant {c} outside universe {}", self.universe);
        self.words[c / 64] ^= 1 << (c % 64);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, c: u32) -> bool {
        let c = c as usize;
        c < self.universe && self.words[c / 64] >> (c % 64) & 1 == 1
    }

    /// In-place symmetric difference (`self ⊕= other`).
    #[inline]
    pub fn symdiff_assign(&mut self, other: &ValueSet) {
        debug_assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Symmetric difference (`self ⊕ other`).
    pub fn symdiff(&self, other: &ValueSet) -> ValueSet {
        let mut out = self.clone();
        out.symdiff_assign(other);
        out
    }

    /// Cardinality `|self|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Cardinality of `self ⊕ other` without materializing the result —
    /// the inner-loop operation of `Rebuild` (§4.4).
    #[inline]
    pub fn symdiff_len(&self, other: &ValueSet) -> usize {
        debug_assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// True iff the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Ascending iterator over the member indices.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    Some(wi as u32 * 64 + b)
                }
            })
        })
    }
}

impl fmt::Debug for ValueSet {
    /// Render `{a, c, d}` in the paper's notation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", crate::term::const_name(i))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_difference_cancels() {
        // {a,b} ⊕ {a,c} = {b,c} (§4.1).
        let u = 8;
        let ab = ValueSet::from_indices(u, [0, 1]);
        let ac = ValueSet::from_indices(u, [0, 2]);
        let bc = ValueSet::from_indices(u, [1, 2]);
        assert_eq!(ab.symdiff(&ac), bc);
    }

    #[test]
    fn disjoint_union() {
        // {a,b} ⊕ {c,d} = {a,b,c,d} (§4.1).
        let u = 8;
        let ab = ValueSet::from_indices(u, [0, 1]);
        let cd = ValueSet::from_indices(u, [2, 3]);
        assert_eq!(ab.symdiff(&cd), ValueSet::from_indices(u, [0, 1, 2, 3]));
    }

    #[test]
    fn duplicates_cancel_in_from_indices() {
        let s = ValueSet::from_indices(8, [1, 1, 2]);
        assert_eq!(s, ValueSet::singleton(8, 2));
    }

    #[test]
    fn symdiff_len_avoids_allocation() {
        let u = 130;
        let a = ValueSet::from_indices(u, [0, 64, 129]);
        let b = ValueSet::from_indices(u, [64, 100]);
        assert_eq!(a.symdiff_len(&b), a.symdiff(&b).len());
        assert_eq!(a.symdiff_len(&b), 3); // {0, 100, 129}: 64 cancels
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let s = ValueSet::from_indices(200, [0, 63, 64, 127, 128, 199]);
        let v: Vec<u32> = s.iter().collect();
        assert_eq!(v, vec![0, 63, 64, 127, 128, 199]);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn debug_formatting() {
        let s = ValueSet::from_indices(8, [0, 2, 3]);
        assert_eq!(format!("{s:?}"), "{a, c, d}");
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn toggle_out_of_range_panics() {
        let mut s = ValueSet::empty(4);
        s.toggle(4);
    }
}
