//! Building unoptimized SLPs from bit-matrices.
//!
//! A parity bit-matrix row `r` with set columns `{j1, …, jk}` means
//! "output strip `r` is the XOR of input strips `j1 … jk`". Two textual
//! forms of the same program are used in the paper's evaluation:
//!
//! * the **binary-chain** form (`SLP⊕`): each row becomes a chain of
//!   two-argument XORs accumulating into one variable — this is the `Base`
//!   program measured in §7.2/§7.5 (for RS(10,4): `#⊕ = 755`, `NVar = 32`,
//!   `#M = 3·755 = 2265`);
//! * the **flat** form: each row is a single variadic instruction over
//!   constants — the normal form the RePair compressors start from.

use crate::ir::{Instr, Slp};
use crate::term::Term;
use bitmatrix::BitMatrix;

/// Flat form: one variadic instruction per matrix row.
///
/// Rows with a single set bit become plain copies; the builder keeps them as
/// arity-1 instructions so outputs stay positional.
///
/// # Panics
/// Panics if a row is all-zero (the row's value would be the empty set,
/// which no XOR program can produce).
pub fn flat_slp_from_bitmatrix(m: &BitMatrix) -> Slp {
    let mut instrs = Vec::with_capacity(m.rows());
    let mut outputs = Vec::with_capacity(m.rows());
    for r in 0..m.rows() {
        let args: Vec<Term> = m.ones_in_row(r).map(|c| Term::Const(c as u32)).collect();
        assert!(
            !args.is_empty(),
            "row {r} of the parity bit-matrix is all-zero"
        );
        let dst = instrs.len() as u32;
        instrs.push(Instr { dst, args });
        outputs.push(Term::Var(dst));
    }
    Slp::new(m.cols(), instrs, outputs).expect("builder produces well-formed SLPs")
}

/// Binary-chain form: row `r` becomes
/// `v_r ← c1 ⊕ c2; v_r ← v_r ⊕ c3; …` — the unoptimized `Base` program.
///
/// # Panics
/// Panics if a row is all-zero.
pub fn binary_slp_from_bitmatrix(m: &BitMatrix) -> Slp {
    let mut instrs = Vec::new();
    let mut outputs = Vec::with_capacity(m.rows());
    for r in 0..m.rows() {
        let cols: Vec<u32> = m.ones_in_row(r).map(|c| c as u32).collect();
        assert!(
            !cols.is_empty(),
            "row {r} of the parity bit-matrix is all-zero"
        );
        let dst = r as u32;
        match cols.as_slice() {
            [single] => instrs.push(Instr::new(dst, vec![Term::Const(*single)])),
            [first, second, rest @ ..] => {
                instrs.push(Instr::new(
                    dst,
                    vec![Term::Const(*first), Term::Const(*second)],
                ));
                for &c in rest {
                    instrs.push(Instr::new(dst, vec![Term::Var(dst), Term::Const(c)]));
                }
            }
            [] => unreachable!(),
        }
        outputs.push(Term::Var(dst));
    }
    Slp::new(m.cols(), instrs, outputs).expect("builder produces well-formed SLPs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intro_matrix_becomes_intro_program() {
        // §2: the 3×7 matrix becomes
        //   ν1 ← a⊕b; ν2 ← c⊕d⊕e⊕f; ν3 ← c⊕d⊕e⊕g.
        let m = BitMatrix::parse(&["1100000", "0011110", "0011101"]);
        let p = flat_slp_from_bitmatrix(&m);
        assert_eq!(p.instrs.len(), 3);
        assert_eq!(p.xor_count(), 7);
        assert_eq!(p.n_consts, 7);
        let vals = p.eval();
        assert_eq!(vals[0], crate::ValueSet::from_indices(7, [0, 1]));
        assert_eq!(vals[1], crate::ValueSet::from_indices(7, [2, 3, 4, 5]));
        assert_eq!(vals[2], crate::ValueSet::from_indices(7, [2, 3, 4, 6]));
    }

    #[test]
    fn binary_and_flat_forms_are_equivalent() {
        let m = BitMatrix::parse(&["1100000", "0011110", "0011101"]);
        let flat = flat_slp_from_bitmatrix(&m);
        let binary = binary_slp_from_bitmatrix(&m);
        assert_eq!(flat.eval(), binary.eval());
        assert!(binary.is_binary());
        // Same XOR count, different memory-access count (§5).
        assert_eq!(binary.xor_count(), flat.xor_count());
        assert_eq!(binary.mem_accesses(), 3 * binary.xor_count());
        // one accumulator variable per row
        assert_eq!(binary.nvar(), 3);
    }

    #[test]
    fn single_bit_rows_become_copies() {
        let m = BitMatrix::parse(&["10", "11"]);
        let p = binary_slp_from_bitmatrix(&m);
        assert_eq!(p.instrs[0].args.len(), 1);
        assert_eq!(p.xor_count(), 1);
        let f = flat_slp_from_bitmatrix(&m);
        assert_eq!(f.eval(), p.eval());
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn zero_row_rejected() {
        let m = BitMatrix::parse(&["10", "00"]);
        let _ = flat_slp_from_bitmatrix(&m);
    }
}
