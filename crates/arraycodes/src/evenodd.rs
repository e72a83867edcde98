//! The EVENODD code (Blaum, Brady, Bruck, Menon 1995).
//!
//! Parameters: a prime `p` and `k ≤ p` data disks, each holding `p − 1`
//! symbols. Conceptually the data is a `(p−1) × p` array `a[i][j]`
//! (columns `k..p` all-zero when `k < p`) with an *imaginary* all-zero row
//! `i = p−1`. Two parity disks:
//!
//! ```text
//! P[i] = ⊕_j a[i][j]                           (row parity)
//! S    = ⊕_{j=1}^{p−1} a[p−1−j][j]             (the "missing" diagonal)
//! Q[i] = S ⊕ ⊕_j a[(i − j) mod p][j]           (adjusted diagonal parity)
//! ```

use bitmatrix::BitMatrix;
use std::collections::BTreeSet;

/// Toggle-set helper: XOR semantics for building parity rows.
fn toggle(set: &mut BTreeSet<usize>, col: usize) {
    if !set.remove(&col) {
        set.insert(col);
    }
}

/// Build the `2(p−1) × k(p−1)` parity bit-matrix of EVENODD(k, p): rows
/// `0..p−1` define the `P` disk, rows `p−1..2(p−1)` the `Q` disk. Input
/// column `j·(p−1) + i` is symbol `i` of data disk `j`.
///
/// # Panics
/// Panics unless `p` is prime and `1 ≤ k ≤ p`.
pub fn evenodd_parity_bitmatrix(k: usize, p: usize) -> BitMatrix {
    assert!(
        p >= 2 && (2..p).all(|d| !p.is_multiple_of(d)),
        "p = {p} must be prime"
    );
    assert!(k >= 1 && k <= p, "EVENODD needs 1 ≤ k ≤ p (got k = {k})");
    let w = p - 1;
    let col = |i: usize, j: usize| {
        debug_assert!(i < w && j < k);
        j * w + i
    };

    let mut m = BitMatrix::zero(2 * w, k * w);

    // P rows: straight row parity.
    for i in 0..w {
        for j in 0..k {
            m.set(i, col(i, j), true);
        }
    }

    // The common term S: the diagonal through the imaginary a[p−1][0].
    let mut s: BTreeSet<usize> = BTreeSet::new();
    for j in 1..k {
        let row = p - 1 - j; // < p−1 for j ≥ 1, so always a real symbol
        toggle(&mut s, col(row, j));
    }

    // Q rows: S ⊕ diagonal i, skipping imaginary (row p−1) cells.
    for i in 0..w {
        let mut set = s.clone();
        for j in 0..k {
            let row = (i + p - j) % p;
            if row != p - 1 {
                toggle(&mut set, col(row, j));
            }
        }
        for c in set {
            m.set(w + i, c, true);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct, index-by-index transcription of the textbook definition,
    /// evaluated on a concrete array (the oracle for the bit-matrix).
    fn naive_evenodd(k: usize, p: usize, a: &[Vec<u8>]) -> (Vec<u8>, Vec<u8>) {
        let w = p - 1;
        // a[j][i]: disk j, symbol i; imaginary row returns 0.
        let at = |i: usize, j: usize| -> u8 {
            if i == p - 1 || j >= k {
                0
            } else {
                a[j][i]
            }
        };
        let p_disk: Vec<u8> = (0..w)
            .map(|i| (0..p).fold(0, |acc, j| acc ^ at(i, j)))
            .collect();
        let s = (1..p).fold(0, |acc, j| acc ^ at(p - 1 - j, j));
        let q_disk: Vec<u8> = (0..w)
            .map(|i| (0..p).fold(s, |acc, j| acc ^ at((i + p - j) % p, j)))
            .collect();
        (p_disk, q_disk)
    }

    fn apply_bitmatrix(m: &BitMatrix, w: usize, a: &[Vec<u8>]) -> Vec<u8> {
        (0..m.rows())
            .map(|r| m.ones_in_row(r).fold(0u8, |acc, c| acc ^ a[c / w][c % w]))
            .collect::<Vec<u8>>()
    }

    #[test]
    fn bitmatrix_matches_textbook_definition() {
        for (k, p) in [(3usize, 3usize), (3, 5), (5, 5), (4, 7), (7, 7)] {
            let w = p - 1;
            let a: Vec<Vec<u8>> = (0..k)
                .map(|j| {
                    (0..w)
                        .map(|i| ((i * 37 + j * 11 + 3) % 251) as u8)
                        .collect()
                })
                .collect();
            let (p_disk, q_disk) = naive_evenodd(k, p, &a);
            let m = evenodd_parity_bitmatrix(k, p);
            let got = apply_bitmatrix(&m, w, &a);
            assert_eq!(&got[..w], &p_disk[..], "P disk, k={k} p={p}");
            assert_eq!(&got[w..], &q_disk[..], "Q disk, k={k} p={p}");
        }
    }

    #[test]
    fn any_two_disk_erasures_are_decodable() {
        // The defining MDS-like property: for every pair of lost disks,
        // the surviving symbol equations have full rank k(p−1).
        for (k, p) in [(3usize, 3usize), (5, 5), (4, 5), (6, 7)] {
            let w = p - 1;
            let parity = evenodd_parity_bitmatrix(k, p);
            let gen = {
                let mut g = BitMatrix::zero((k + 2) * w, k * w);
                for t in 0..k * w {
                    g.set(t, t, true);
                }
                for r in 0..2 * w {
                    for c in parity.ones_in_row(r).collect::<Vec<_>>() {
                        g.set(k * w + r, c, true);
                    }
                }
                g
            };
            for d1 in 0..k + 2 {
                for d2 in d1 + 1..k + 2 {
                    let rows: Vec<usize> = (0..(k + 2) * w)
                        .filter(|&r| r / w != d1 && r / w != d2)
                        .collect();
                    let surv = BitMatrix::from_fn(rows.len(), k * w, |i, j| gen.get(rows[i], j));
                    assert_eq!(
                        surv.rank(),
                        k * w,
                        "EVENODD({k},{p}) not 2-erasure decodable for disks {d1},{d2}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be prime")]
    fn composite_p_rejected() {
        let _ = evenodd_parity_bitmatrix(3, 4);
    }

    #[test]
    fn single_disk_degenerates_to_mirroring_plus_diag() {
        // k = 1: P[i] = a[i][0], and Q[i] = a[i][0] (S is empty).
        let m = evenodd_parity_bitmatrix(1, 3);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 2);
        for i in 0..2 {
            assert_eq!(m.ones_in_row(i).collect::<Vec<_>>(), vec![i]);
        }
    }
}
