//! The RDP (Row-Diagonal Parity) code (Corbett et al., FAST '04).
//!
//! Parameters: a prime `p` and `k ≤ p − 1` data disks of `p − 1` symbols.
//! The conceptual array is `(p−1) × (p+1)`: columns `0..p−1` are data
//! (zero-padded past `k`), column `p−1` is the row-parity disk `R`, and
//! the diagonal-parity disk stores
//!
//! ```text
//! R[i] = ⊕_{j<p−1} a[i][j]
//! D[d] = ⊕ { a[i][j] : (i + j) mod p = d, j ≤ p−1 }      d ∈ 0..p−1
//! ```
//!
//! where the diagonal sums *include the row-parity column* and diagonal
//! `p − 1` is never stored (the "missing diagonal").

use bitmatrix::BitMatrix;
use std::collections::BTreeSet;

fn toggle(set: &mut BTreeSet<usize>, col: usize) {
    if !set.remove(&col) {
        set.insert(col);
    }
}

/// Build the `2(p−1) × k(p−1)` parity bit-matrix of RDP(k, p): rows
/// `0..p−1` define the row-parity disk, rows `p−1..2(p−1)` the diagonal
/// disk, both expressed over the data symbols only (row-parity terms in
/// the diagonals are expanded through their definitions).
///
/// # Panics
/// Panics unless `p` is prime and `1 ≤ k ≤ p − 1`.
pub fn rdp_parity_bitmatrix(k: usize, p: usize) -> BitMatrix {
    assert!(
        p >= 2 && (2..p).all(|d| !p.is_multiple_of(d)),
        "p = {p} must be prime"
    );
    assert!(k >= 1 && k < p, "RDP needs 1 ≤ k ≤ p−1 (got k = {k})");
    let w = p - 1;
    let col = |i: usize, j: usize| {
        debug_assert!(i < w && j < k);
        j * w + i
    };

    let mut m = BitMatrix::zero(2 * w, k * w);

    // Row parity.
    for i in 0..w {
        for j in 0..k {
            m.set(i, col(i, j), true);
        }
    }

    // Diagonal parity d ∈ 0..p−1 (diagonal p−1 missing).
    for d in 0..w {
        let mut set: BTreeSet<usize> = BTreeSet::new();
        // data columns j ∈ 0..k on diagonal d: row i = (d − j) mod p
        for j in 0..k {
            let i = (d + p - j) % p;
            if i != p - 1 {
                toggle(&mut set, col(i, j));
            }
        }
        // the row-parity column j = p−1: its cell on diagonal d is row
        // i = (d + 1) mod p; expand R[i] into data symbols.
        let i = (d + 1) % p;
        if i != p - 1 {
            for j in 0..k {
                toggle(&mut set, col(i, j));
            }
        }
        for c in set {
            m.set(w + d, c, true);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook RDP computed directly on a concrete array.
    fn naive_rdp(k: usize, p: usize, a: &[Vec<u8>]) -> (Vec<u8>, Vec<u8>) {
        let w = p - 1;
        let data = |i: usize, j: usize| -> u8 {
            if i >= w || j >= k {
                0
            } else {
                a[j][i]
            }
        };
        let r: Vec<u8> = (0..w)
            .map(|i| (0..w.max(k)).fold(0, |acc, j| acc ^ data(i, j)))
            .collect();
        // cell(i, j) for the full (p−1) × p array incl. row parity at p−1
        let cell = |i: usize, j: usize| -> u8 {
            if i >= w {
                0
            } else if j == p - 1 {
                r[i]
            } else {
                data(i, j)
            }
        };
        let d: Vec<u8> = (0..w)
            .map(|dd| (0..p).fold(0, |acc, j| acc ^ cell((dd + p - j) % p, j)))
            .collect();
        (r, d)
    }

    fn apply_bitmatrix(m: &BitMatrix, w: usize, a: &[Vec<u8>]) -> Vec<u8> {
        (0..m.rows())
            .map(|r| m.ones_in_row(r).fold(0u8, |acc, c| acc ^ a[c / w][c % w]))
            .collect()
    }

    #[test]
    fn bitmatrix_matches_textbook_definition() {
        for (k, p) in [(2usize, 3usize), (4, 5), (3, 5), (6, 7), (4, 7)] {
            let w = p - 1;
            let a: Vec<Vec<u8>> = (0..k)
                .map(|j| {
                    (0..w)
                        .map(|i| ((i * 29 + j * 17 + 5) % 249) as u8)
                        .collect()
                })
                .collect();
            let (r, d) = naive_rdp(k, p, &a);
            let m = rdp_parity_bitmatrix(k, p);
            let got = apply_bitmatrix(&m, w, &a);
            assert_eq!(&got[..w], &r[..], "row parity, k={k} p={p}");
            assert_eq!(&got[w..], &d[..], "diag parity, k={k} p={p}");
        }
    }

    #[test]
    fn any_two_disk_erasures_are_decodable() {
        for (k, p) in [(2usize, 3usize), (4, 5), (6, 7)] {
            let w = p - 1;
            let parity = rdp_parity_bitmatrix(k, p);
            let mut gen = BitMatrix::zero((k + 2) * w, k * w);
            for t in 0..k * w {
                gen.set(t, t, true);
            }
            for r in 0..2 * w {
                for c in parity.ones_in_row(r).collect::<Vec<_>>() {
                    gen.set(k * w + r, c, true);
                }
            }
            for d1 in 0..k + 2 {
                for d2 in d1 + 1..k + 2 {
                    let rows: Vec<usize> = (0..(k + 2) * w)
                        .filter(|&r| r / w != d1 && r / w != d2)
                        .collect();
                    let surv = BitMatrix::from_fn(rows.len(), k * w, |i, j| gen.get(rows[i], j));
                    assert_eq!(
                        surv.rank(),
                        k * w,
                        "RDP({k},{p}) not 2-erasure decodable for disks {d1},{d2}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1 ≤ k ≤ p−1")]
    fn k_equal_p_rejected() {
        let _ = rdp_parity_bitmatrix(5, 5);
    }
}
