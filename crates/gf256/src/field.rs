//! The field element type [`Gf`] and its operator implementations.

use crate::tables::{EXP, LOG, MUL, PRIMITIVE_POLY};
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Number of elements of the field.
pub const GF_ORDER: usize = 256;

/// The primitive polynomial `x^8 + x^4 + x^3 + x^2 + 1` defining the field.
pub const GF_PRIMITIVE_POLY: u16 = PRIMITIVE_POLY;

/// An element of GF(2^8) = `F_2[x]/(x^8+x^4+x^3+x^2+1)`.
///
/// The wrapped byte is the coefficient vector of the residue polynomial:
/// bit `i` is the coefficient of `x^i`. Addition is XOR; multiplication is
/// polynomial multiplication modulo the primitive polynomial, served from a
/// compile-time table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Gf(pub u8);

impl Gf {
    /// The additive identity.
    pub const ZERO: Gf = Gf(0);
    /// The multiplicative identity.
    pub const ONE: Gf = Gf(1);
    /// The canonical primitive element `α = x`.
    pub const ALPHA: Gf = Gf(2);

    /// `α^i` (exponent taken modulo 255).
    #[inline]
    pub fn alpha_pow(i: usize) -> Gf {
        Gf(EXP[i % 255])
    }

    /// Discrete logarithm with respect to `α`.
    ///
    /// # Panics
    /// Panics on `Gf(0)`, which has no logarithm.
    #[inline]
    pub fn log(self) -> u8 {
        assert!(self.0 != 0, "log of zero is undefined in GF(2^8)");
        LOG[self.0 as usize]
    }

    /// `self^e` by log/exp; `0^0 = 1` by convention.
    pub fn pow(self, e: u32) -> Gf {
        if e == 0 {
            return Gf::ONE;
        }
        if self.0 == 0 {
            return Gf::ZERO;
        }
        let l = LOG[self.0 as usize] as u32;
        Gf(EXP[((l as u64 * e as u64) % 255) as usize])
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on `Gf(0)`.
    #[inline]
    pub fn inv(self) -> Gf {
        assert!(self.0 != 0, "zero has no inverse in GF(2^8)");
        Gf(EXP[255 - LOG[self.0 as usize] as usize])
    }

    /// True iff this is the additive identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Raw table-driven product of two bytes; usable in hot loops without
    /// constructing `Gf` values.
    #[inline(always)]
    pub fn mul_bytes(a: u8, b: u8) -> u8 {
        MUL[a as usize][b as usize]
    }

    /// Row of the product table for a fixed left operand: `row[b] = a × b`.
    ///
    /// The baseline codec indexes this row per data byte, mirroring how
    /// table-driven RS implementations (e.g. Jerasure, ISA-L's reference
    /// path) perform coefficient multiplication.
    #[inline]
    pub fn mul_row(a: u8) -> &'static [u8; 256] {
        &MUL[a as usize]
    }

    /// Iterator over all 256 field elements.
    pub fn all() -> impl Iterator<Item = Gf> {
        (0..=255u8).map(Gf)
    }
}

impl fmt::Debug for Gf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf(0x{:02X})", self.0)
    }
}

impl fmt::Display for Gf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02X}", self.0)
    }
}

impl From<u8> for Gf {
    #[inline]
    fn from(b: u8) -> Self {
        Gf(b)
    }
}

impl From<Gf> for u8 {
    #[inline]
    fn from(g: Gf) -> Self {
        g.0
    }
}

impl Add for Gf {
    type Output = Gf;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // addition in GF(2^8) *is* XOR
    fn add(self, rhs: Gf) -> Gf {
        Gf(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)] // addition in GF(2^8) *is* XOR
    fn add_assign(&mut self, rhs: Gf) {
        self.0 ^= rhs.0;
    }
}

// In characteristic 2, subtraction coincides with addition.
impl Sub for Gf {
    type Output = Gf;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // char 2: subtraction = addition
    fn sub(self, rhs: Gf) -> Gf {
        self + rhs
    }
}

impl SubAssign for Gf {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)] // char 2: subtraction = addition
    fn sub_assign(&mut self, rhs: Gf) {
        *self += rhs;
    }
}

impl Neg for Gf {
    type Output = Gf;
    #[inline]
    fn neg(self) -> Gf {
        self
    }
}

impl Mul for Gf {
    type Output = Gf;
    #[inline]
    fn mul(self, rhs: Gf) -> Gf {
        Gf(MUL[self.0 as usize][rhs.0 as usize])
    }
}

impl MulAssign for Gf {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf) {
        *self = *self * rhs;
    }
}

impl Div for Gf {
    type Output = Gf;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division = multiply by inverse
    fn div(self, rhs: Gf) -> Gf {
        self * rhs.inv()
    }
}

impl DivAssign for Gf {
    #[inline]
    fn div_assign(&mut self, rhs: Gf) {
        *self = *self / rhs;
    }
}

impl Sum for Gf {
    fn sum<I: Iterator<Item = Gf>>(iter: I) -> Gf {
        iter.fold(Gf::ZERO, |a, b| a + b)
    }
}

impl Product for Gf {
    fn product<I: Iterator<Item = Gf>>(iter: I) -> Gf {
        iter.fold(Gf::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_structure() {
        for a in Gf::all() {
            assert_eq!(a + Gf::ZERO, a);
            assert_eq!(a + a, Gf::ZERO); // every element is its own negative
            assert_eq!(-a, a);
            assert_eq!(a - a, Gf::ZERO);
        }
    }

    #[test]
    fn multiplicative_identity_and_inverse() {
        for a in Gf::all() {
            assert_eq!(a * Gf::ONE, a);
            if !a.is_zero() {
                assert_eq!(a * a.inv(), Gf::ONE);
                assert_eq!(a / a, Gf::ONE);
            }
        }
    }

    #[test]
    fn pow_agrees_with_repeated_multiplication() {
        for a in [Gf(0), Gf(1), Gf(2), Gf(3), Gf(0x1D), Gf(0xFF)] {
            let mut acc = Gf::ONE;
            for e in 0..600u32 {
                assert_eq!(a.pow(e), acc, "a={a:?} e={e}");
                acc *= a;
            }
        }
    }

    #[test]
    fn alpha_pow_wraps() {
        assert_eq!(Gf::alpha_pow(0), Gf::ONE);
        assert_eq!(Gf::alpha_pow(255), Gf::ONE);
        assert_eq!(Gf::alpha_pow(256), Gf::ALPHA);
    }

    #[test]
    #[should_panic(expected = "zero has no inverse")]
    fn inv_of_zero_panics() {
        let _ = Gf::ZERO.inv();
    }

    #[test]
    #[should_panic(expected = "log of zero")]
    fn log_of_zero_panics() {
        let _ = Gf::ZERO.log();
    }

    #[test]
    fn sum_and_product_adaptors() {
        let xs = [Gf(1), Gf(2), Gf(3)];
        assert_eq!(xs.iter().copied().sum::<Gf>(), Gf(1 ^ 2 ^ 3));
        assert_eq!(xs.iter().copied().product::<Gf>(), Gf(2) * Gf(3));
    }
}
