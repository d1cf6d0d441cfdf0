//! The field GF(2^8) = GF(2)\[x\] / (x^8 + x^4 + x^3 + x^2 + 1).
//!
//! Elements are bytes. Addition is XOR; multiplication is carried out through
//! discrete log / exponential tables built once at first use (the tables are
//! computed in a `const fn`, so there is no runtime initialisation cost or
//! synchronisation).

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The irreducible polynomial used for the field: `x^8 + x^4 + x^3 + x^2 + 1`.
///
/// This is the same polynomial used by the Jerasure library (and therefore by
/// Ceph's default erasure-code plugin), which the paper's prototype relies on.
pub const POLYNOMIAL: u16 = 0x11D;

/// The multiplicative generator used to build the log/exp tables.
pub const GENERATOR: u8 = 0x02;

/// Number of elements in the field.
pub const FIELD_SIZE: usize = 256;

/// Order of the multiplicative group (`FIELD_SIZE - 1`).
pub const GROUP_ORDER: usize = 255;

/// Precomputed tables for GF(2^8) arithmetic.
struct Tables {
    /// `exp[i] = g^i` for `i` in `0..510` (doubled to avoid a modulo in mul).
    exp: [u8; 2 * GROUP_ORDER],
    /// `log[a]` = discrete log of `a` base `g`; `log[0]` is unused.
    log: [u8; FIELD_SIZE],
}

const fn build_tables() -> Tables {
    let mut exp = [0u8; 2 * GROUP_ORDER];
    let mut log = [0u8; FIELD_SIZE];
    let mut x: u16 = 1;
    let mut i = 0usize;
    while i < GROUP_ORDER {
        exp[i] = x as u8;
        exp[i + GROUP_ORDER] = x as u8;
        log[x as usize] = i as u8;
        // multiply x by the generator (0x02) modulo the polynomial
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLYNOMIAL;
        }
        i += 1;
    }
    Tables { exp, log }
}

static TABLES: Tables = build_tables();

/// An element of GF(2^8).
///
/// The type is a transparent wrapper around `u8`; all field operations are
/// implemented through the standard operator traits. Division by zero panics,
/// mirroring integer division in Rust.
///
/// # Example
///
/// ```
/// use sprout_gf::Gf256;
/// let a = Gf256::new(7);
/// let b = Gf256::new(29);
/// assert_eq!(a + b - b, a);
/// assert_eq!((a * b) / b, a);
/// assert_eq!(a * Gf256::ONE, a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);

    /// Wraps a raw byte as a field element.
    #[inline]
    pub const fn new(value: u8) -> Self {
        Gf256(value)
    }

    /// Returns the raw byte value of this element.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Returns `true` if this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero (zero has no multiplicative inverse).
    #[inline]
    pub fn inverse(self) -> Gf256 {
        assert!(!self.is_zero(), "attempt to invert Gf256::ZERO");
        let log = TABLES.log[self.0 as usize] as usize;
        Gf256(TABLES.exp[GROUP_ORDER - log])
    }

    /// Returns the inverse, or `None` if `self` is zero.
    #[inline]
    pub fn checked_inverse(self) -> Option<Gf256> {
        if self.is_zero() {
            None
        } else {
            Some(self.inverse())
        }
    }

    /// Raises this element to an integer power (with `x^0 == 1`, including `0^0`).
    pub fn pow(self, mut exp: u32) -> Gf256 {
        if exp == 0 {
            return Gf256::ONE;
        }
        if self.is_zero() {
            return Gf256::ZERO;
        }
        exp %= GROUP_ORDER as u32;
        if exp == 0 {
            return Gf256::ONE;
        }
        let log = TABLES.log[self.0 as usize] as u32;
        let idx = (log * exp) % GROUP_ORDER as u32;
        Gf256(TABLES.exp[idx as usize])
    }

    /// The generator of the multiplicative group used by the tables.
    #[inline]
    pub const fn generator() -> Gf256 {
        Gf256(GENERATOR)
    }

    /// Returns `g^i` where `g` is the field generator.
    ///
    /// Useful for constructing Vandermonde matrices over distinct points.
    #[inline]
    pub fn exp(i: usize) -> Gf256 {
        Gf256(TABLES.exp[i % GROUP_ORDER])
    }

    /// Discrete logarithm base the generator, or `None` for zero.
    #[inline]
    pub fn log(self) -> Option<u8> {
        if self.is_zero() {
            None
        } else {
            Some(TABLES.log[self.0 as usize])
        }
    }

    /// Multiply-accumulate over byte slices: `dst[i] ^= coeff * src[i]`.
    ///
    /// This is the hot inner loop of Reed–Solomon encoding; it dispatches to
    /// the default word-parallel kernel (see [`crate::kernel`]). Callers that
    /// need a specific implementation — e.g. the scalar reference for
    /// differential testing — use [`crate::kernel::mul_acc_slice`] directly.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn mul_acc_slice(coeff: Gf256, src: &[u8], dst: &mut [u8]) {
        crate::kernel::mul_acc_slice(crate::kernel::Kernel::default(), coeff, src, dst);
    }

    /// Multiplies every byte in `buf` by `coeff` in place, using the default
    /// table-driven kernel.
    pub fn scale_slice(coeff: Gf256, buf: &mut [u8]) {
        crate::kernel::scale_slice(crate::kernel::Kernel::default(), coeff, buf);
    }
}

/// The seed's byte-at-a-time multiply–accumulate loop over the log/exp
/// tables, preserved verbatim as the scalar reference kernel.
///
/// Callers have already handled the `coeff == 0` / `coeff == 1` fast paths
/// and checked slice lengths.
pub(crate) fn scalar_mul_acc(coeff: Gf256, src: &[u8], dst: &mut [u8]) {
    let clog = TABLES.log[coeff.0 as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        if *s != 0 {
            let idx = clog + TABLES.log[*s as usize] as usize;
            *d ^= TABLES.exp[idx];
        }
    }
}

/// The seed's byte-at-a-time in-place scale loop, preserved verbatim as the
/// scalar reference kernel (fast paths handled by the caller).
pub(crate) fn scalar_scale(coeff: Gf256, buf: &mut [u8]) {
    let clog = TABLES.log[coeff.0 as usize] as usize;
    for b in buf.iter_mut() {
        if *b != 0 {
            let idx = clog + TABLES.log[*b as usize] as usize;
            *b = TABLES.exp[idx];
        }
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

impl fmt::LowerHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

impl From<u8> for Gf256 {
    fn from(value: u8) -> Self {
        Gf256(value)
    }
}

impl From<Gf256> for u8 {
    fn from(value: Gf256) -> Self {
        value.0
    }
}

// Clippy flags XOR in `Add`/`Sub` and `*` in `Div` as suspicious; in a
// characteristic-2 field these are exactly the right operations.
impl Add for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // In characteristic 2, subtraction equals addition.
        Gf256(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)]
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Gf256 {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let idx = TABLES.log[self.0 as usize] as usize + TABLES.log[rhs.0 as usize] as usize;
        Gf256(TABLES.exp[idx])
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Gf256) -> Gf256 {
        self * rhs.inverse()
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Gf256) {
        *self = *self / rhs;
    }
}

impl std::iter::Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ZERO, |acc, x| acc + x)
    }
}

impl std::iter::Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ONE, |acc, x| acc * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_xor() {
        assert_eq!(Gf256::new(0b1010) + Gf256::new(0b0110), Gf256::new(0b1100));
    }

    #[test]
    fn addition_identity_and_self_inverse() {
        for v in 0..=255u8 {
            let a = Gf256::new(v);
            assert_eq!(a + Gf256::ZERO, a);
            assert_eq!(a + a, Gf256::ZERO);
            assert_eq!(-a, a);
            assert_eq!(a - a, Gf256::ZERO);
        }
    }

    #[test]
    fn multiplication_identity_and_zero() {
        for v in 0..=255u8 {
            let a = Gf256::new(v);
            assert_eq!(a * Gf256::ONE, a);
            assert_eq!(a * Gf256::ZERO, Gf256::ZERO);
        }
    }

    #[test]
    fn known_products() {
        // Known value under polynomial 0x11D: 0x53 * 0xCA = 0x01 is for 0x11B;
        // verify against a slow carry-less multiplication instead.
        fn slow_mul(a: u8, b: u8) -> u8 {
            let mut result: u16 = 0;
            let mut a = a as u16;
            let mut b = b as u16;
            while b != 0 {
                if b & 1 != 0 {
                    result ^= a;
                }
                a <<= 1;
                if a & 0x100 != 0 {
                    a ^= POLYNOMIAL;
                }
                b >>= 1;
            }
            result as u8
        }
        for a in 0..=255u8 {
            for b in (0..=255u8).step_by(7) {
                assert_eq!(
                    (Gf256::new(a) * Gf256::new(b)).value(),
                    slow_mul(a, b),
                    "mismatch for {a} * {b}"
                );
            }
        }
    }

    #[test]
    fn inverses_multiply_to_one() {
        for v in 1..=255u8 {
            let a = Gf256::new(v);
            assert_eq!(a * a.inverse(), Gf256::ONE);
            assert_eq!(a / a, Gf256::ONE);
        }
    }

    #[test]
    #[should_panic(expected = "invert Gf256::ZERO")]
    fn inverse_of_zero_panics() {
        let _ = Gf256::ZERO.inverse();
    }

    #[test]
    fn checked_inverse_of_zero_is_none() {
        assert!(Gf256::ZERO.checked_inverse().is_none());
        assert_eq!(
            Gf256::new(3).checked_inverse(),
            Some(Gf256::new(3).inverse())
        );
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for v in [0u8, 1, 2, 3, 5, 19, 200, 255] {
            let a = Gf256::new(v);
            let mut acc = Gf256::ONE;
            for e in 0..20u32 {
                assert_eq!(a.pow(e), acc, "value {v} exponent {e}");
                acc *= a;
            }
        }
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
        assert_eq!(Gf256::new(77).pow(0), Gf256::ONE);
    }

    #[test]
    fn generator_has_full_order() {
        let g = Gf256::generator();
        let mut seen = std::collections::HashSet::new();
        let mut x = Gf256::ONE;
        for _ in 0..GROUP_ORDER {
            assert!(seen.insert(x), "generator order is less than 255");
            x *= g;
        }
        assert_eq!(x, Gf256::ONE);
    }

    #[test]
    fn exp_and_log_are_inverse() {
        for i in 0..GROUP_ORDER {
            let e = Gf256::exp(i);
            assert_eq!(e.log().unwrap() as usize, i);
        }
        assert!(Gf256::ZERO.log().is_none());
    }

    #[test]
    fn mul_acc_slice_matches_scalar_ops() {
        let src: Vec<u8> = (0..=255u8).collect();
        for coeff in [0u8, 1, 2, 7, 143, 255] {
            let mut dst = vec![0u8; src.len()];
            Gf256::mul_acc_slice(Gf256::new(coeff), &src, &mut dst);
            for (i, &s) in src.iter().enumerate() {
                assert_eq!(Gf256::new(dst[i]), Gf256::new(coeff) * Gf256::new(s));
            }
            // Accumulating again cancels (characteristic 2).
            Gf256::mul_acc_slice(Gf256::new(coeff), &src, &mut dst);
            assert!(dst.iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn scale_slice_matches_scalar_ops() {
        let src: Vec<u8> = (0..=255u8).rev().collect();
        for coeff in [0u8, 1, 3, 99, 254] {
            let mut buf = src.clone();
            Gf256::scale_slice(Gf256::new(coeff), &mut buf);
            for (i, &s) in src.iter().enumerate() {
                assert_eq!(Gf256::new(buf[i]), Gf256::new(coeff) * Gf256::new(s));
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mul_acc_slice_length_mismatch_panics() {
        let src = [1u8, 2, 3];
        let mut dst = [0u8; 2];
        Gf256::mul_acc_slice(Gf256::ONE, &src, &mut dst);
    }

    #[test]
    fn display_and_formatting() {
        let a = Gf256::new(0xAB);
        assert_eq!(format!("{a}"), "0xab");
        assert_eq!(format!("{a:x}"), "ab");
        assert_eq!(format!("{a:X}"), "AB");
        assert_eq!(format!("{a:b}"), "10101011");
        assert_eq!(format!("{a:o}"), "253");
        assert_eq!(format!("{:?}", Gf256::ZERO), "Gf256(0)");
    }

    #[test]
    fn sum_and_product_iterators() {
        let xs = [Gf256::new(1), Gf256::new(2), Gf256::new(3)];
        let s: Gf256 = xs.iter().copied().sum();
        assert_eq!(s, Gf256::new(1) + Gf256::new(2) + Gf256::new(3));
        let p: Gf256 = xs.iter().copied().product();
        assert_eq!(p, Gf256::new(1) * Gf256::new(2) * Gf256::new(3));
    }

    #[test]
    fn conversions() {
        let a: Gf256 = 7u8.into();
        assert_eq!(a, Gf256::new(7));
        let b: u8 = a.into();
        assert_eq!(b, 7);
    }
}
