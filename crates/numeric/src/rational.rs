//! Exact rational numbers over [`BigInt`].
//!
//! When all four parts of an operation are inline `BigInt`s, add, sub,
//! mul, div and cmp run in `i128` (no cross product of two `i64`s reaches
//! 2^127) and reduce with a single word gcd; otherwise they take the
//! general `BigInt` path. Both paths produce the same canonical value.

use crate::gcd::{gcd_u128, gcd_u64};
use crate::{gcd_big, BigInt, ParseErrorKind, ParseNumberError};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number.
///
/// Always stored in canonical form: the denominator is positive and
/// `gcd(num, den) == 1`; zero is `0/1`. All arithmetic is exact.
///
/// # Examples
///
/// ```
/// use aov_numeric::Rational;
///
/// let half = Rational::new(1, 2);
/// let third = Rational::new(1, 3);
/// assert_eq!(&half + &third, Rational::new(5, 6));
/// assert_eq!((&half * &third).to_string(), "1/6");
/// assert!(half > third);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    num: BigInt,
    den: BigInt, // > 0
}

impl Rational {
    /// The rational 0.
    pub fn zero() -> Self {
        Rational {
            num: BigInt::zero(),
            den: BigInt::one(),
        }
    }

    /// The rational 1.
    pub fn one() -> Self {
        Rational {
            num: BigInt::one(),
            den: BigInt::one(),
        }
    }

    /// Creates `num/den` from machine integers, normalizing.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Self {
        Rational::from_big(BigInt::from(num), BigInt::from(den))
    }

    /// Creates `num/den` from big integers, normalizing.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn from_big(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        if let (Some(n), Some(d)) = (num.to_i64(), den.to_i64()) {
            let (n, d) = (i128::from(n), i128::from(d));
            return if d < 0 {
                Rational::reduced(-n, -d)
            } else {
                Rational::reduced(n, d)
            };
        }
        if num.is_zero() {
            return Rational::zero();
        }
        let g = gcd_big(&num, &den);
        let mut num = &num / &g;
        let mut den = &den / &g;
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        Rational { num, den }
    }

    /// `num/den` in lowest terms, for `den > 0` and both below 2^127 in
    /// magnitude.
    fn reduced(num: i128, den: i128) -> Rational {
        debug_assert!(den > 0);
        if num == 0 {
            return Rational::zero();
        }
        if den == 1 {
            return Rational::from(BigInt::from_i128(num));
        }
        if let (Ok(n), Ok(d)) = (i64::try_from(num), i64::try_from(den)) {
            // Word division is far cheaper than `i128` division; `g <= d`,
            // so `g` fits in `i64`.
            let g = gcd_u64(n.unsigned_abs(), d as u64) as i64;
            return Rational {
                num: BigInt::from(n / g),
                den: BigInt::from(d / g),
            };
        }
        let g = gcd_u128(num.unsigned_abs(), den as u128) as i128;
        Rational {
            num: BigInt::from_i128(num / g),
            den: BigInt::from_i128(den / g),
        }
    }

    /// Numerator and denominator widened to `i128`, when both are inline.
    #[inline]
    fn small_parts(&self) -> Option<(i128, i128)> {
        Some((
            i128::from(self.num.to_i64()?),
            i128::from(self.den.to_i64()?),
        ))
    }

    /// Creates an integer rational.
    pub fn from_int(v: i64) -> Self {
        Rational {
            num: BigInt::from(v),
            den: BigInt::one(),
        }
    }

    /// Numerator (sign carried here).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// Returns `true` when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` when the value is a (possibly negative) integer.
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// Returns `true` when the value is negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Returns `true` when the value is positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Sign: -1, 0 or 1.
    pub fn signum(&self) -> i8 {
        self.num.signum()
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        Rational::from_big(self.den.clone(), self.num.clone())
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        self.num.div_floor(&self.den)
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        -(-&self.num).div_floor(&self.den)
    }

    /// Exact integer value, if the rational is an integer.
    pub fn to_integer(&self) -> Option<BigInt> {
        if self.is_integer() {
            Some(self.num.clone())
        } else {
            None
        }
    }

    /// Exact `i64` value, if the rational is an integer that fits.
    pub fn to_i64(&self) -> Option<i64> {
        self.to_integer().and_then(|v| v.to_i64())
    }

    /// Approximate `f64` value (reporting only).
    pub fn to_f64(&self) -> f64 {
        self.num.to_f64() / self.den.to_f64()
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v)
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational::from_int(v as i64)
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        Rational {
            num: v,
            den: BigInt::one(),
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(mut self) -> Rational {
        self.num = -self.num;
        self
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        -self.clone()
    }
}

impl Add<&Rational> for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), rhs.small_parts()) {
            return Rational::reduced(an * bd + bn * ad, ad * bd);
        }
        Rational::from_big(
            &self.num * &rhs.den + &rhs.num * &self.den,
            &self.den * &rhs.den,
        )
    }
}

impl Sub<&Rational> for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), rhs.small_parts()) {
            return Rational::reduced(an * bd - bn * ad, ad * bd);
        }
        Rational::from_big(
            &self.num * &rhs.den - &rhs.num * &self.den,
            &self.den * &rhs.den,
        )
    }
}

impl Mul<&Rational> for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        if self.is_zero() || rhs.is_zero() {
            return Rational::zero();
        }
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), rhs.small_parts()) {
            return Rational::reduced(an * bn, ad * bd);
        }
        Rational::from_big(&self.num * &rhs.num, &self.den * &rhs.den)
    }
}

impl Div<&Rational> for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "division by zero rational");
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), rhs.small_parts()) {
            let (num, den) = (an * bd, ad * bn);
            return if den < 0 {
                Rational::reduced(-num, -den)
            } else {
                Rational::reduced(num, den)
            };
        }
        Rational::from_big(&self.num * &rhs.den, &self.den * &rhs.num)
    }
}

macro_rules! forward_binop {
    ($($trait:ident, $method:ident);*) => {$(
        impl $trait<Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational { (&self).$method(&rhs) }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational { (&self).$method(rhs) }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational { self.$method(&rhs) }
        }
    )*};
}
forward_binop!(Add, add; Sub, sub; Mul, mul; Div, div);

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::zero(), |acc, x| acc + x)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Denominators are positive, so cross-multiplying preserves order.
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), other.small_parts()) {
            return (an * bd).cmp(&(bn * ad));
        }
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

impl FromStr for Rational {
    type Err = ParseNumberError;

    /// Parses `"p"` or `"p/q"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('/') {
            None => Ok(Rational::from(s.parse::<BigInt>()?)),
            Some((p, q)) => {
                let num: BigInt = p.parse()?;
                let den: BigInt = q.parse()?;
                if den.is_zero() {
                    return Err(ParseNumberError::new(ParseErrorKind::ZeroDenominator));
                }
                Ok(Rational::from_big(num, den))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 5), Rational::zero());
        assert!(r(3, -7).denom().is_positive());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn field_ops() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(2, 3) / r(4, 3), r(1, 2));
        assert_eq!(-r(1, 2), r(-1, 2));
        assert_eq!(r(1, 2).recip(), r(2, 1));
    }

    #[test]
    fn ordering_cross_multiplication() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 1) > r(13, 2));
        let mut v = vec![r(1, 2), r(-3, 4), r(0, 1), r(5, 3)];
        v.sort();
        assert_eq!(v, vec![r(-3, 4), r(0, 1), r(1, 2), r(5, 3)]);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor().to_i64(), Some(3));
        assert_eq!(r(7, 2).ceil().to_i64(), Some(4));
        assert_eq!(r(-7, 2).floor().to_i64(), Some(-4));
        assert_eq!(r(-7, 2).ceil().to_i64(), Some(-3));
        assert_eq!(r(6, 2).floor().to_i64(), Some(3));
        assert_eq!(r(6, 2).ceil().to_i64(), Some(3));
    }

    #[test]
    fn integer_detection() {
        assert!(r(4, 2).is_integer());
        assert_eq!(r(4, 2).to_i64(), Some(2));
        assert!(!r(1, 2).is_integer());
        assert_eq!(r(1, 2).to_i64(), None);
    }

    #[test]
    fn display_and_parse() {
        assert_eq!(r(1, 2).to_string(), "1/2");
        assert_eq!(r(4, 2).to_string(), "2");
        assert_eq!(r(-3, 7).to_string(), "-3/7");
        assert_eq!("5/10".parse::<Rational>().unwrap(), r(1, 2));
        assert_eq!("-8".parse::<Rational>().unwrap(), r(-8, 1));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("x/2".parse::<Rational>().is_err());
    }

    #[test]
    fn to_f64() {
        assert_eq!(r(1, 2).to_f64(), 0.5);
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn sum_iterator() {
        let xs = [r(1, 2), r(1, 3), r(1, 6)];
        assert_eq!(xs.iter().cloned().sum::<Rational>(), Rational::one());
    }
}
