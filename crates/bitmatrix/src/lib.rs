//! Matrices over F2 (the field of bits) and the expansion of GF(2^8)
//! matrices into bit-matrices.
//!
//! XOR-based erasure coding (paper §1) rests on two classical facts:
//!
//! 1. the isomorphism `𝔅 : GF(2^8) → F2^{8×1}` sending a byte to the column
//!    vector of its bits, and
//! 2. the *companion map* `~· : GF(2^8) → F2^{8×8}` sending a byte `x` to
//!    the matrix of the linear map "multiply by `x`", which satisfies
//!    `x ×_GF y = 𝔅⁻¹( x̃ ·_F2 𝔅(y) )`.
//!
//! Applying `~·` entry-wise to a coding matrix `V ∈ GF(2^8)^{a×b}` yields a
//! bit-matrix `Ṽ ∈ F2^{8a×8b}`; multiplying `Ṽ` with bit-sliced data is pure
//! array XOR, which is what the rest of this workspace optimizes.

use gf256::GfMatrix;
use std::fmt;

mod companion;

pub use companion::{apply_to_byte, bits_to_byte, byte_to_bits, companion};

/// A dense bit-matrix over F2, rows stored as packed `u64` words.
///
/// Invariant: unused tail bits of each row's last word are always zero, so
/// popcounts and word-wise comparisons are exact.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    /// words per row
    wpr: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// All-zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        let wpr = cols.div_ceil(64).max(1);
        BitMatrix {
            rows,
            cols,
            wpr,
            words: vec![0; rows * wpr],
        }
    }

    /// The `n × n` identity over F2.
    pub fn identity(n: usize) -> Self {
        let mut m = BitMatrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Build from a predicate on `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = BitMatrix::zero(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if f(i, j) {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    /// Parse rows of `'0'`/`'1'` characters (whitespace ignored), as used by
    /// unit tests to transcribe matrices straight out of the paper.
    pub fn parse(rows: &[&str]) -> Self {
        let parsed: Vec<Vec<bool>> = rows
            .iter()
            .map(|r| {
                r.chars()
                    .filter(|c| !c.is_whitespace())
                    .map(|c| match c {
                        '0' => false,
                        '1' => true,
                        other => panic!("invalid bit character {other:?}"),
                    })
                    .collect()
            })
            .collect();
        let cols = parsed.first().map_or(0, Vec::len);
        assert!(
            parsed.iter().all(|r| r.len() == cols),
            "ragged rows in bit-matrix literal"
        );
        BitMatrix::from_fn(parsed.len(), cols, |i, j| parsed[i][j])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read one bit.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.rows && j < self.cols);
        self.words[i * self.wpr + j / 64] >> (j % 64) & 1 == 1
    }

    /// Write one bit.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: bool) {
        debug_assert!(i < self.rows && j < self.cols);
        let w = &mut self.words[i * self.wpr + j / 64];
        if v {
            *w |= 1 << (j % 64);
        } else {
            *w &= !(1 << (j % 64));
        }
    }

    /// Packed words of row `i`.
    #[inline]
    pub fn row_words(&self, i: usize) -> &[u64] {
        &self.words[i * self.wpr..(i + 1) * self.wpr]
    }

    /// XOR row `src`'s bits into row `dst`.
    pub fn xor_row_into(&mut self, src: usize, dst: usize) {
        assert!(src != dst, "xor_row_into requires distinct rows");
        for k in 0..self.wpr {
            let v = self.words[src * self.wpr + k];
            self.words[dst * self.wpr + k] ^= v;
        }
    }

    /// Number of set bits in row `i`.
    #[inline]
    pub fn row_popcount(&self, i: usize) -> usize {
        self.row_words(i)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Total number of set bits.
    pub fn popcount(&self) -> usize {
        (0..self.rows).map(|i| self.row_popcount(i)).sum()
    }

    /// Column indices of the set bits of row `i`, ascending.
    pub fn ones_in_row(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.row_words(i).iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// F2 matrix product.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul(&self, rhs: &BitMatrix) -> BitMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "bit-matrix product shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = BitMatrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in self.ones_in_row(i).collect::<Vec<_>>() {
                let start = i * out.wpr;
                for (w, &r) in out.words[start..start + out.wpr]
                    .iter_mut()
                    .zip(rhs.row_words(k))
                {
                    *w ^= r;
                }
            }
        }
        out
    }

    /// F2 matrix–vector product; `v[k]` is the k-th input bit.
    pub fn mul_vec(&self, v: &[bool]) -> Vec<bool> {
        assert_eq!(v.len(), self.cols, "vector length must equal column count");
        (0..self.rows)
            .map(|i| self.ones_in_row(i).fold(false, |acc, k| acc ^ v[k]))
            .collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> BitMatrix {
        BitMatrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// XOR of two equally-shaped matrices (addition over F2).
    pub fn xor(&self, rhs: &BitMatrix) -> BitMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "bit-matrix addition shape mismatch"
        );
        let mut out = self.clone();
        for (a, b) in out.words.iter_mut().zip(&rhs.words) {
            *a ^= b;
        }
        out
    }

    /// Paste `block` into `self` with its top-left corner at `(r0, c0)`.
    pub fn paste(&mut self, r0: usize, c0: usize, block: &BitMatrix) {
        assert!(r0 + block.rows <= self.rows && c0 + block.cols <= self.cols);
        for i in 0..block.rows {
            for j in 0..block.cols {
                self.set(r0 + i, c0 + j, block.get(i, j));
            }
        }
    }

    /// Expand a GF(2^8) matrix entry-wise through the companion map:
    /// the result has shape `8·rows × 8·cols`.
    pub fn expand_gf_matrix(m: &GfMatrix) -> BitMatrix {
        let mut out = BitMatrix::zero(8 * m.rows(), 8 * m.cols());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                let e = m[(i, j)];
                if e.is_zero() {
                    continue;
                }
                out.paste(8 * i, 8 * j, &companion(e));
            }
        }
        out
    }

    /// Extract the rows `[r0, r0+count)` as a new matrix.
    pub fn row_range(&self, r0: usize, count: usize) -> BitMatrix {
        assert!(r0 + count <= self.rows);
        BitMatrix::from_fn(count, self.cols, |i, j| self.get(r0 + i, j))
    }

    /// Extract the columns `[c0, c0+count)` as a new matrix.
    ///
    /// Together with [`BitMatrix::row_range`] this carves arbitrary
    /// contiguous sub-matrices out of a generator — the delta-update path
    /// uses it to isolate one disk's column block of a parity matrix.
    pub fn col_range(&self, c0: usize, count: usize) -> BitMatrix {
        assert!(c0 + count <= self.cols);
        BitMatrix::from_fn(self.rows, count, |i, j| self.get(i, c0 + j))
    }

    /// The rows `rows` (any order, repeats allowed) as a new matrix.
    pub fn select_rows(&self, rows: &[usize]) -> BitMatrix {
        let mut out = BitMatrix::zero(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            out.words[i * self.wpr..(i + 1) * self.wpr].copy_from_slice(self.row_words(r));
        }
        out
    }

    /// The columns `cols` (any order, repeats allowed) as a new matrix.
    pub fn select_cols(&self, cols: &[usize]) -> BitMatrix {
        BitMatrix::from_fn(self.rows, cols.len(), |i, j| self.get(i, cols[j]))
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{}", if self.get(i, j) { '1' } else { '0' })?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_debug_roundtrip() {
        let m = BitMatrix::parse(&["1100000", "0011110", "0011101"]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 7);
        assert!(m.get(0, 0) && m.get(0, 1) && !m.get(0, 2));
        assert_eq!(m.row_popcount(1), 4);
        assert_eq!(m.popcount(), 2 + 4 + 4);
    }

    #[test]
    fn paper_intro_example_mul_vec() {
        // §1: the 3×7 matrix acting on (d1..d7) produces
        // (d1⊕d2, d3⊕d4⊕d5⊕d6, d3⊕d4⊕d5⊕d7).
        let m = BitMatrix::parse(&["1100000", "0011110", "0011101"]);
        let rows: Vec<Vec<usize>> = (0..3).map(|i| m.ones_in_row(i).collect()).collect();
        assert_eq!(rows[0], vec![0, 1]);
        assert_eq!(rows[1], vec![2, 3, 4, 5]);
        assert_eq!(rows[2], vec![2, 3, 4, 6]);
    }

    #[test]
    fn identity_is_unit_for_mul() {
        let m = BitMatrix::from_fn(5, 5, |i, j| (i * 3 + j * 5) % 7 < 3);
        assert_eq!(m.mul(&BitMatrix::identity(5)), m);
        assert_eq!(BitMatrix::identity(5).mul(&m), m);
    }

    #[test]
    fn mul_matches_naive_triple_loop() {
        let a = BitMatrix::from_fn(70, 90, |i, j| (i * j) % 5 == 1);
        let b = BitMatrix::from_fn(90, 65, |i, j| (i + 2 * j) % 3 == 0);
        let fast = a.mul(&b);
        let slow = BitMatrix::from_fn(70, 65, |i, j| {
            (0..90).fold(false, |acc, k| acc ^ (a.get(i, k) & b.get(k, j)))
        });
        assert_eq!(fast, slow);
    }

    #[test]
    fn xor_row_into_both_directions() {
        let mut m = BitMatrix::parse(&["1010", "0110"]);
        m.xor_row_into(0, 1);
        assert_eq!(m, BitMatrix::parse(&["1010", "1100"]));
        m.xor_row_into(1, 0);
        assert_eq!(m, BitMatrix::parse(&["0110", "1100"]));
    }

    #[test]
    fn transpose_involution_and_popcount() {
        let m = BitMatrix::from_fn(13, 67, |i, j| (i ^ j) % 4 == 0);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().popcount(), m.popcount());
    }

    #[test]
    fn ones_in_row_crosses_word_boundary() {
        let mut m = BitMatrix::zero(1, 130);
        for j in [0, 63, 64, 127, 129] {
            m.set(0, j, true);
        }
        let ones: Vec<usize> = m.ones_in_row(0).collect();
        assert_eq!(ones, vec![0, 63, 64, 127, 129]);
    }

    #[test]
    fn row_range_extraction() {
        let m = BitMatrix::from_fn(10, 8, |i, j| i == j);
        let sub = m.row_range(2, 3);
        assert_eq!(sub.rows(), 3);
        assert!(sub.get(0, 2) && sub.get(1, 3) && sub.get(2, 4));
    }

    #[test]
    fn col_range_extraction() {
        let m = BitMatrix::from_fn(6, 130, |i, j| (i + j) % 3 == 0);
        // Cross a word boundary on purpose.
        let sub = m.col_range(60, 10);
        assert_eq!(sub.rows(), 6);
        assert_eq!(sub.cols(), 10);
        for i in 0..6 {
            for j in 0..10 {
                assert_eq!(sub.get(i, j), m.get(i, 60 + j), "({i},{j})");
            }
        }
        // Row/column range extraction commutes.
        let a = m.row_range(1, 4).col_range(60, 10);
        let b = m.col_range(60, 10).row_range(1, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn row_and_col_selection_generalise_the_ranges() {
        let m = BitMatrix::from_fn(6, 130, |i, j| (i * 7 + j) % 5 == 0);
        assert_eq!(m.select_rows(&[1, 2, 3, 4]), m.row_range(1, 4));
        let cols: Vec<usize> = (60..70).collect();
        assert_eq!(m.select_cols(&cols), m.col_range(60, 10));
        // Arbitrary order, across a word boundary.
        let sub = m.select_rows(&[5, 0]).select_cols(&[129, 3, 64]);
        for (i, &r) in [5usize, 0].iter().enumerate() {
            for (j, &c) in [129usize, 3, 64].iter().enumerate() {
                assert_eq!(sub.get(i, j), m.get(r, c), "({r},{c})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mul_shape_mismatch_panics() {
        let a = BitMatrix::zero(2, 3);
        let b = BitMatrix::zero(2, 3);
        let _ = a.mul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_parse_panics() {
        let _ = BitMatrix::parse(&["10", "1"]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gf256::{Gf, GfMatrix};
    use proptest::prelude::*;

    fn gf_matrix(rows: usize, cols: usize) -> impl Strategy<Value = GfMatrix> {
        proptest::collection::vec(any::<u8>(), rows * cols)
            .prop_map(move |b| GfMatrix::from_bytes(rows, cols, &b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The companion expansion is a homomorphism of matrix rings:
        /// expand(A · B) = expand(A) ·_F2 expand(B).
        #[test]
        fn expansion_is_multiplicative(a in gf_matrix(3, 4), b in gf_matrix(4, 2)) {
            let lhs = BitMatrix::expand_gf_matrix(&(&a * &b));
            let rhs = BitMatrix::expand_gf_matrix(&a).mul(&BitMatrix::expand_gf_matrix(&b));
            prop_assert_eq!(lhs, rhs);
        }

        /// Ṽ ·_F2 𝔅(D) = 𝔅(V ·_GF D): the bit-matrix computes the same
        /// codeword as GF(2^8) arithmetic (paper §1).
        #[test]
        fn expansion_computes_gf_product(
            v in gf_matrix(3, 5),
            d in proptest::collection::vec(any::<u8>(), 5),
        ) {
            let dg: Vec<Gf> = d.iter().copied().map(Gf).collect();
            let code = v.mul_vec(&dg);

            // bit-vector of D: 8 bits per symbol, LSB first.
            let bits: Vec<bool> = d
                .iter()
                .flat_map(|&byte| byte_to_bits(byte))
                .collect();
            let vb = BitMatrix::expand_gf_matrix(&v);
            let out_bits = vb.mul_vec(&bits);
            let out_bytes: Vec<u8> = out_bits.chunks_exact(8).map(bits_to_byte).collect();
            let expected: Vec<u8> = code.iter().map(|g| g.0).collect();
            prop_assert_eq!(out_bytes, expected);
        }

        /// Popcount of an expanded row block predicts the XOR count of the
        /// SLP row that will be generated from it.
        #[test]
        fn expansion_shape(a in gf_matrix(2, 3)) {
            let e = BitMatrix::expand_gf_matrix(&a);
            prop_assert_eq!(e.rows(), 16);
            prop_assert_eq!(e.cols(), 24);
        }
    }
}

impl BitMatrix {
    /// Inverse over F2 by Gauss–Jordan, or `None` if singular.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn invert(&self) -> Option<BitMatrix> {
        assert_eq!(self.rows, self.cols, "only square matrices can be inverted");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = BitMatrix::identity(n);
        for col in 0..n {
            let pivot = (col..n).find(|&r| a.get(r, col))?;
            if pivot != col {
                a.swap_rows(col, pivot);
                inv.swap_rows(col, pivot);
            }
            for r in 0..n {
                if r != col && a.get(r, col) {
                    a.xor_row_into(col, r);
                    inv.xor_row_into(col, r);
                }
            }
        }
        Some(inv)
    }

    /// Swap two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for k in 0..self.wpr {
            self.words.swap(a * self.wpr + k, b * self.wpr + k);
        }
    }

    /// Rank over F2 (non-destructive).
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        let mut rank = 0;
        for col in 0..m.cols {
            let Some(pivot) = (rank..m.rows).find(|&r| m.get(r, col)) else {
                continue;
            };
            m.swap_rows(rank, pivot);
            for r in 0..m.rows {
                if r != rank && m.get(r, col) {
                    m.xor_row_into(rank, r);
                }
            }
            rank += 1;
            if rank == m.rows {
                break;
            }
        }
        rank
    }

    /// Greedily select a maximal set of linearly independent rows,
    /// returned as ascending row indices. Used by array-code decoders to
    /// pick an invertible square subsystem from the surviving symbols.
    pub fn select_independent_rows(&self) -> Vec<usize> {
        // Incremental elimination: `basis[c]` holds a reduced vector whose
        // leading set bit is column c.
        let mut basis: Vec<Option<Vec<u64>>> = vec![None; self.cols];
        let mut chosen = Vec::new();
        for r in 0..self.rows {
            let mut v = self.row_words(r).to_vec();
            // Reduce against the basis until the row dies (dependent) or
            // claims an empty leading column.
            while let Some(lead) = v
                .iter()
                .enumerate()
                .find_map(|(wi, &w)| (w != 0).then(|| wi * 64 + w.trailing_zeros() as usize))
            {
                match &basis[lead] {
                    Some(b) => {
                        for (x, y) in v.iter_mut().zip(b) {
                            *x ^= y;
                        }
                    }
                    None => {
                        basis[lead] = Some(v);
                        chosen.push(r);
                        break;
                    }
                }
            }
            if chosen.len() == self.cols {
                break;
            }
        }
        chosen
    }
}

#[cfg(test)]
mod f2_algebra_tests {
    use super::*;

    #[test]
    fn invert_roundtrip() {
        // A random-ish invertible matrix: identity plus upper triangle.
        let n = 9;
        let m = BitMatrix::from_fn(n, n, |i, j| i == j || (j > i && (i * 5 + j * 3) % 4 == 0));
        let inv = m
            .invert()
            .expect("triangular-with-unit-diagonal is invertible");
        assert_eq!(m.mul(&inv), BitMatrix::identity(n));
        assert_eq!(inv.mul(&m), BitMatrix::identity(n));
    }

    #[test]
    fn singular_returns_none() {
        let m = BitMatrix::from_fn(4, 4, |i, _| i == 0); // rank 1
        assert!(m.invert().is_none());
        assert_eq!(m.rank(), 1);
    }

    #[test]
    fn rank_of_identity_and_zero() {
        assert_eq!(BitMatrix::identity(7).rank(), 7);
        assert_eq!(BitMatrix::zero(5, 8).rank(), 0);
    }

    #[test]
    fn independent_row_selection_spans() {
        // 6 rows in F2^4 with duplicates and sums: selection must pick a
        // basis of the row space.
        let m = BitMatrix::parse(&[
            "1000", "1000", // duplicate
            "0100", "1100", // sum of the first two picks
            "0010", "0001",
        ]);
        let rows = m.select_independent_rows();
        assert_eq!(rows.len(), 4);
        let square = BitMatrix::from_fn(4, 4, |i, j| m.get(rows[i], j));
        assert!(square.invert().is_some());
    }

    #[test]
    fn selection_stops_at_rank() {
        let m = BitMatrix::from_fn(10, 3, |i, j| (i + j) % 2 == 0);
        let rows = m.select_independent_rows();
        assert_eq!(rows.len(), m.rank());
    }
}
