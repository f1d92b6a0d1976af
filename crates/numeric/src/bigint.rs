//! Arbitrary-precision signed integers.
//!
//! A value has exactly one of two representations. Every value in the
//! `i64` range is stored inline and never touches the heap; only a value
//! outside that range is stored as a sign plus a little-endian base-2^64
//! magnitude with no trailing zero limbs. Every constructor goes through
//! the one promotion rule ([`BigInt::from_i128`] and
//! [`BigInt::from_sign_mag`] demote any result that fits in `i64`), so
//! the derived `Eq` and `Hash` agree with numeric equality. Inline
//! operations widen to `i128`, where no sum, difference, product or
//! quotient of two `i64`s can overflow, and never rely on overflow
//! checks. The heap path divides with Knuth's Algorithm D.

use crate::{ParseErrorKind, ParseNumberError};
use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// An arbitrary-precision signed integer.
///
/// `BigInt` supports the ring operations, Euclidean division
/// ([`BigInt::div_rem`]), gcd (via [`crate::gcd_big`]), decimal parsing and
/// formatting. All operations are exact. Values that fit in an `i64` are
/// stored inline and cost no allocation.
///
/// # Examples
///
/// ```
/// use aov_numeric::BigInt;
///
/// let a: BigInt = "123456789012345678901234567890".parse()?;
/// let b = BigInt::from(-42i64);
/// let (q, r) = a.div_rem(&b);
/// assert_eq!(&q * &b + &r, a);
/// # Ok::<(), aov_numeric::ParseNumberError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Every value in `i64::MIN..=i64::MAX`.
    Small(i64),
    /// A value outside `i64`. Boxed, so that a `BigInt` is 16 bytes and
    /// the rare heap values, not the inline ones, pay for the indirection.
    Large(Box<Heap>),
}

/// A value outside `i64`: sign (-1 or 1) and a magnitude with no
/// trailing zero limbs.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Heap {
    sign: i8,
    mag: Vec<u64>,
}

/// Sign and magnitude of a value for the heap path: borrows the limbs of
/// a heap value, or holds the single limb of an inline one.
struct Parts<'a> {
    sign: i8,
    limb: [u64; 1],
    heap: Option<&'a [u64]>,
}

impl Parts<'_> {
    fn mag(&self) -> &[u64] {
        match self.heap {
            Some(mag) => mag,
            None if self.sign == 0 => &[],
            None => &self.limb,
        }
    }
}

impl BigInt {
    /// The integer 0.
    #[inline]
    pub fn zero() -> Self {
        BigInt(Repr::Small(0))
    }

    /// The integer 1.
    #[inline]
    pub fn one() -> Self {
        BigInt(Repr::Small(1))
    }

    /// Returns `true` when `self == 0`.
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0))
    }

    /// Returns `true` when `self == 1`.
    #[inline]
    pub fn is_one(&self) -> bool {
        matches!(self.0, Repr::Small(1))
    }

    /// Returns `true` when `self < 0`.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.signum() < 0
    }

    /// Returns `true` when `self > 0`.
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.signum() > 0
    }

    /// Sign of the integer: `-1`, `0` or `1`.
    #[inline]
    pub fn signum(&self) -> i8 {
        match &self.0 {
            Repr::Small(v) => v.signum() as i8,
            Repr::Large(h) => h.sign,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        match &self.0 {
            Repr::Small(v) => BigInt::from_i128(i128::from(*v).abs()),
            // A heap magnitude exceeds `i64::MAX` whatever its sign.
            Repr::Large(h) => BigInt::large(1, h.mag.clone()),
        }
    }

    /// Number of bits in the magnitude (0 for zero).
    pub fn bits(&self) -> usize {
        match &self.0 {
            Repr::Small(v) => 64 - v.unsigned_abs().leading_zeros() as usize,
            Repr::Large(h) => {
                let hi = h.mag[h.mag.len() - 1];
                64 * (h.mag.len() - 1) + (64 - hi.leading_zeros() as usize)
            }
        }
    }

    /// Number of 64-bit limbs storing the magnitude (0 for zero) — the
    /// unit the numeric-growth telemetry counts, since limbs are what
    /// heap usage and arithmetic cost scale with. A nonzero inline value
    /// counts as one limb.
    #[inline]
    pub fn limbs(&self) -> usize {
        match &self.0 {
            Repr::Small(0) => 0,
            Repr::Small(_) => 1,
            Repr::Large(h) => h.mag.len(),
        }
    }

    fn parts(&self) -> Parts<'_> {
        match &self.0 {
            Repr::Small(v) => Parts {
                sign: v.signum() as i8,
                limb: [v.unsigned_abs()],
                heap: None,
            },
            Repr::Large(h) => Parts {
                sign: h.sign,
                limb: [0],
                heap: Some(&h.mag),
            },
        }
    }

    /// The canonical value of `v`: inline when it fits in `i64`.
    #[inline]
    pub(crate) fn from_i128(v: i128) -> BigInt {
        match i64::try_from(v) {
            Ok(small) => BigInt(Repr::Small(small)),
            Err(_) => BigInt::from_u128_mag(if v < 0 { -1 } else { 1 }, v.unsigned_abs()),
        }
    }

    /// Heap value of sign `sign` and magnitude `mag`; the caller knows
    /// the value lies outside `i64`.
    fn from_u128_mag(sign: i8, mag: u128) -> BigInt {
        let (lo, hi) = (mag as u64, (mag >> 64) as u64);
        let limbs = if hi != 0 { vec![lo, hi] } else { vec![lo] };
        BigInt::large(sign, limbs)
    }

    /// Heap value of sign `sign` (-1 or 1) and normalized magnitude `mag`.
    fn large(sign: i8, mag: Vec<u64>) -> BigInt {
        BigInt(Repr::Large(Box::new(Heap { sign, mag })))
    }

    /// Construct from sign and little-endian limbs (normalizing, and
    /// demoting to inline when the value fits in `i64`).
    fn from_sign_mag(sign: i8, mut mag: Vec<u64>) -> BigInt {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        match mag.len() {
            0 => BigInt::zero(),
            1 => {
                debug_assert!(sign == 1 || sign == -1);
                let v = i128::from(sign) * i128::from(mag[0]);
                match i64::try_from(v) {
                    Ok(small) => BigInt(Repr::Small(small)),
                    Err(_) => BigInt::large(sign, mag),
                }
            }
            _ => {
                debug_assert!(sign == 1 || sign == -1);
                BigInt::large(sign, mag)
            }
        }
    }

    /// Euclidean-style truncated division: returns `(quotient, remainder)`
    /// with `self = q * rhs + r`, `|r| < |rhs|`, and `r` having the sign of
    /// `self` (truncation toward zero, like Rust's `/` and `%` on
    /// primitives).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_rem(&self, rhs: &BigInt) -> (BigInt, BigInt) {
        assert!(!rhs.is_zero(), "division by zero BigInt");
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &rhs.0) {
            // In i128, `i64::MIN / -1` is the heap value 2^63.
            let (a, b) = (i128::from(*a), i128::from(*b));
            return (BigInt::from_i128(a / b), BigInt::from_i128(a % b));
        }
        if self.is_zero() {
            return (BigInt::zero(), BigInt::zero());
        }
        let (a, b) = (self.parts(), rhs.parts());
        match cmp_mag(a.mag(), b.mag()) {
            Ordering::Less => (BigInt::zero(), self.clone()),
            Ordering::Equal => (BigInt::from(a.sign * b.sign), BigInt::zero()),
            Ordering::Greater => {
                let (q, r) = divrem_mag(a.mag(), b.mag());
                (
                    BigInt::from_sign_mag(a.sign * b.sign, q),
                    BigInt::from_sign_mag(a.sign, r),
                )
            }
        }
    }

    /// Floor division: the largest integer `q` with `q * rhs <= self`
    /// (for positive `rhs`).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_floor(&self, rhs: &BigInt) -> BigInt {
        let (q, r) = self.div_rem(rhs);
        if !r.is_zero() && (r.signum() * rhs.signum()) < 0 {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Mathematical modulus with the sign of `rhs` (`self - div_floor * rhs`).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn mod_floor(&self, rhs: &BigInt) -> BigInt {
        let r = self - &(&self.div_floor(rhs) * rhs);
        debug_assert!(r.is_zero() || r.signum() == rhs.signum());
        r
    }

    /// Converts to `i64` if it fits (exactly when the value is inline).
    #[inline]
    pub fn to_i64(&self) -> Option<i64> {
        match self.0 {
            Repr::Small(v) => Some(v),
            Repr::Large(..) => None,
        }
    }

    /// Converts to `i128` if it fits.
    pub fn to_i128(&self) -> Option<i128> {
        let mag = match &self.0 {
            Repr::Small(v) => return Some(i128::from(*v)),
            Repr::Large(h) => &h.mag,
        };
        match mag.len() {
            1 => Some(i128::from(self.signum()) * i128::from(mag[0])),
            2 => {
                let mag = (mag[1] as u128) << 64 | mag[0] as u128;
                if self.is_positive() && mag <= i128::MAX as u128 {
                    Some(mag as i128)
                } else if self.is_negative() && mag <= i128::MAX as u128 + 1 {
                    Some((mag as i128).wrapping_neg())
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Approximate conversion to `f64` (for reporting only).
    pub fn to_f64(&self) -> f64 {
        let mag = match &self.0 {
            Repr::Small(v) => return *v as f64,
            Repr::Large(h) => &h.mag,
        };
        let mut v = 0.0f64;
        for &limb in mag.iter().rev() {
            v = v * 1.8446744073709552e19 + limb as f64;
        }
        if self.is_negative() {
            -v
        } else {
            v
        }
    }

    /// Raises to a small power.
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

// ---------------------------------------------------------------------------
// magnitude primitives (heap path)
// ---------------------------------------------------------------------------

fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// Signed sum of two sign/magnitude operands.
fn add_parts(a: &Parts<'_>, b: &Parts<'_>) -> BigInt {
    let (am, bm) = (a.mag(), b.mag());
    if a.sign == 0 {
        return BigInt::from_sign_mag(b.sign, bm.to_vec());
    }
    if b.sign == 0 {
        return BigInt::from_sign_mag(a.sign, am.to_vec());
    }
    if a.sign == b.sign {
        BigInt::from_sign_mag(a.sign, add_mag(am, bm))
    } else {
        match cmp_mag(am, bm) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt::from_sign_mag(a.sign, sub_mag(am, bm)),
            Ordering::Less => BigInt::from_sign_mag(b.sign, sub_mag(bm, am)),
        }
    }
}
fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &limb) in long.iter().enumerate() {
        let s = short.get(i).copied().unwrap_or(0);
        let (v1, c1) = limb.overflowing_add(s);
        let (v2, c2) = v1.overflowing_add(carry);
        out.push(v2);
        carry = (c1 as u64) + (c2 as u64);
    }
    if carry > 0 {
        out.push(carry);
    }
    out
}

/// `a - b`, requires `a >= b`.
fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(cmp_mag(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for (i, &limb) in a.iter().enumerate() {
        let s = b.get(i).copied().unwrap_or(0);
        let (v1, b1) = limb.overflowing_sub(s);
        let (v2, b2) = v1.overflowing_sub(borrow);
        out.push(v2);
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0);
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let t = out[i + j] as u128 + (x as u128) * (y as u128) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry > 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// Shift left by `bits` (< 64) within a fresh vector.
fn shl_bits(a: &[u64], bits: u32) -> Vec<u64> {
    if bits == 0 {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry = 0u64;
    for &x in a {
        out.push((x << bits) | carry);
        carry = x >> (64 - bits);
    }
    if carry > 0 {
        out.push(carry);
    }
    out
}

/// Shift right by `bits` (< 64).
fn shr_bits(a: &[u64], bits: u32) -> Vec<u64> {
    if bits == 0 {
        return a.to_vec();
    }
    let mut out = vec![0u64; a.len()];
    let mut carry = 0u64;
    for (i, &x) in a.iter().enumerate().rev() {
        out[i] = (x >> bits) | carry;
        carry = x << (64 - bits);
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// Knuth Algorithm D. Requires `a > b`, `b` nonempty.
fn divrem_mag(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    if b.len() == 1 {
        return divrem_mag_limb(a, b[0]);
    }
    // Normalize so the divisor's top bit is set.
    let shift = b.last().unwrap().leading_zeros();
    let u = shl_bits(a, shift);
    let v = shl_bits(b, shift);
    let n = v.len();
    let m = u.len() - n;
    // u gets one extra limb for the algorithm.
    let mut u = {
        let mut t = u;
        t.push(0);
        t
    };
    let mut q = vec![0u64; m + 1];
    let v_hi = v[n - 1];
    let v_next = v[n - 2];
    for j in (0..=m).rev() {
        // Estimate q_hat = (u[j+n] * B + u[j+n-1]) / v_hi.
        let num = ((u[j + n] as u128) << 64) | (u[j + n - 1] as u128);
        let mut q_hat = num / (v_hi as u128);
        let mut r_hat = num % (v_hi as u128);
        while q_hat >= 1u128 << 64
            || q_hat * (v_next as u128) > ((r_hat << 64) | u[j + n - 2] as u128)
        {
            q_hat -= 1;
            r_hat += v_hi as u128;
            if r_hat >= 1u128 << 64 {
                break;
            }
        }
        // Multiply and subtract: u[j..j+n+1] -= q_hat * v.
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = q_hat * (v[i] as u128) + carry;
            carry = p >> 64;
            let sub = (u[j + i] as i128) - ((p as u64) as i128) - borrow;
            u[j + i] = sub as u64;
            borrow = if sub < 0 { 1 } else { 0 };
        }
        let sub = (u[j + n] as i128) - (carry as i128) - borrow;
        u[j + n] = sub as u64;
        let mut q_j = q_hat as u64;
        if sub < 0 {
            // q_hat was one too large; add v back.
            q_j -= 1;
            let mut carry = 0u64;
            for i in 0..n {
                let (s1, c1) = u[j + i].overflowing_add(v[i]);
                let (s2, c2) = s1.overflowing_add(carry);
                u[j + i] = s2;
                carry = (c1 as u64) + (c2 as u64);
            }
            u[j + n] = u[j + n].wrapping_add(carry);
        }
        q[j] = q_j;
    }
    u.truncate(n);
    let r = shr_bits(&u, shift);
    while q.last() == Some(&0) {
        q.pop();
    }
    (q, r)
}

fn divrem_mag_limb(a: &[u64], b: u64) -> (Vec<u64>, Vec<u64>) {
    let mut q = vec![0u64; a.len()];
    let mut rem = 0u128;
    for (i, &x) in a.iter().enumerate().rev() {
        let cur = (rem << 64) | x as u128;
        q[i] = (cur / b as u128) as u64;
        rem = cur % b as u128;
    }
    while q.last() == Some(&0) {
        q.pop();
    }
    let r = if rem == 0 {
        Vec::new()
    } else {
        vec![rem as u64]
    };
    (q, r)
}

// ---------------------------------------------------------------------------
// trait impls
// ---------------------------------------------------------------------------

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Small(a), Repr::Small(b)) => a.cmp(b),
            // A heap value lies beyond every inline value on its side.
            (Repr::Small(_), Repr::Large(h)) => 0.cmp(&h.sign),
            (Repr::Large(h), Repr::Small(_)) => h.sign.cmp(&0),
            (Repr::Large(a), Repr::Large(b)) => match a.sign.cmp(&b.sign) {
                Ordering::Equal if a.sign > 0 => cmp_mag(&a.mag, &b.mag),
                Ordering::Equal => cmp_mag(&b.mag, &a.mag),
                ord => ord,
            },
        }
    }
}

macro_rules! impl_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            #[inline]
            fn from(v: $t) -> BigInt {
                BigInt::from_i128(v as i128)
            }
        }
    )*};
}
impl_from_signed!(i8, i16, i32, i64, i128, isize);

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            #[inline]
            fn from(v: $t) -> BigInt {
                let v = v as u128;
                match i64::try_from(v) {
                    Ok(small) => BigInt(Repr::Small(small)),
                    Err(_) => BigInt::from_u128_mag(1, v),
                }
            }
        }
    )*};
}
impl_from_unsigned!(u8, u16, u32, u64, u128, usize);

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match self.0 {
            Repr::Small(v) => BigInt::from_i128(-i128::from(v)),
            // 2^63 negates into the inline `i64::MIN`.
            Repr::Large(h) => BigInt::from_sign_mag(-h.sign, h.mag),
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        -self.clone()
    }
}

impl Add<&BigInt> for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &rhs.0) {
            return BigInt::from_i128(i128::from(*a) + i128::from(*b));
        }
        add_parts(&self.parts(), &rhs.parts())
    }
}

impl Sub<&BigInt> for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &rhs.0) {
            return BigInt::from_i128(i128::from(*a) - i128::from(*b));
        }
        let mut negated = rhs.parts();
        negated.sign = -negated.sign;
        add_parts(&self.parts(), &negated)
    }
}

impl Mul<&BigInt> for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &rhs.0) {
            // |a·b| <= 2^126.
            return BigInt::from_i128(i128::from(*a) * i128::from(*b));
        }
        if self.is_zero() || rhs.is_zero() {
            return BigInt::zero();
        }
        let (a, b) = (self.parts(), rhs.parts());
        BigInt::from_sign_mag(a.sign * b.sign, mul_mag(a.mag(), b.mag()))
    }
}

impl Div<&BigInt> for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem<&BigInt> for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_binop {
    ($($trait:ident, $method:ident);*) => {$(
        impl $trait<BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt { (&self).$method(&rhs) }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt { (&self).$method(rhs) }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt { self.$method(&rhs) }
        }
    )*};
}
forward_binop!(Add, add; Sub, sub; Mul, mul; Div, div; Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

impl Sum for BigInt {
    fn sum<I: Iterator<Item = BigInt>>(iter: I) -> BigInt {
        iter.fold(BigInt::zero(), |acc, x| acc + x)
    }
}

impl Product for BigInt {
    fn product<I: Iterator<Item = BigInt>>(iter: I) -> BigInt {
        iter.fold(BigInt::one(), |acc, x| acc * x)
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mag = match &self.0 {
            // `i64`'s own formatting: the same bytes and flags, no `String`.
            Repr::Small(v) => return fmt::Display::fmt(v, f),
            Repr::Large(h) => &h.mag,
        };
        // Repeatedly divide by 10^19 (largest power of ten within u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut mag = mag.clone();
        let mut chunks: Vec<u64> = Vec::new();
        while !mag.is_empty() {
            let (q, r) = divrem_mag_limb(&mag, CHUNK);
            chunks.push(r.first().copied().unwrap_or(0));
            mag = q;
        }
        let mut s = String::new();
        s.push_str(&chunks.last().unwrap().to_string());
        for c in chunks.iter().rev().skip(1) {
            s.push_str(&format!("{c:019}"));
        }
        f.pad_integral(self.is_positive(), "", &s)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl FromStr for BigInt {
    type Err = ParseNumberError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (sign, digits) = match s.strip_prefix('-') {
            Some(rest) => (-1i8, rest),
            None => (1i8, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() {
            return Err(ParseNumberError::new(ParseErrorKind::Empty));
        }
        let mut acc = BigInt::zero();
        let ten = BigInt::from(10u8);
        for c in digits.chars() {
            let d = c
                .to_digit(10)
                .ok_or_else(|| ParseNumberError::new(ParseErrorKind::InvalidDigit(c)))?;
            acc = &acc * &ten + BigInt::from(d);
        }
        if sign < 0 {
            acc = -acc;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn construction_and_canonical_zero() {
        assert!(bi(0).is_zero());
        assert_eq!(bi(0), BigInt::zero());
        assert_eq!(BigInt::default(), BigInt::zero());
        assert_eq!(bi(1), BigInt::one());
        assert!(bi(5).is_positive());
        assert!(bi(-5).is_negative());
        assert_eq!(bi(-5).signum(), -1);
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(bi(2) + bi(3), bi(5));
        assert_eq!(bi(-2) + bi(3), bi(1));
        assert_eq!(bi(2) + bi(-3), bi(-1));
        assert_eq!(bi(-2) + bi(-3), bi(-5));
        assert_eq!(bi(7) - bi(7), bi(0));
        assert_eq!(bi(0) - bi(7), bi(-7));
    }

    #[test]
    fn add_carries_across_limbs() {
        let max = BigInt::from(u64::MAX);
        let sum = &max + &BigInt::one();
        assert_eq!(sum.to_string(), "18446744073709551616");
        assert_eq!(&sum - &BigInt::one(), max);
    }

    #[test]
    fn mul_basics() {
        assert_eq!(bi(6) * bi(7), bi(42));
        assert_eq!(bi(-6) * bi(7), bi(-42));
        assert_eq!(bi(0) * bi(7), bi(0));
        let big = BigInt::from(u64::MAX);
        let sq = &big * &big;
        assert_eq!(sq.to_string(), "340282366920938463426481119284349108225");
    }

    #[test]
    fn div_rem_truncates_toward_zero() {
        for (a, b) in [(7, 2), (-7, 2), (7, -2), (-7, -2), (6, 3), (0, 5)] {
            let (q, r) = bi(a).div_rem(&bi(b));
            assert_eq!(q, bi(a / b), "q of {a}/{b}");
            assert_eq!(r, bi(a % b), "r of {a}/{b}");
        }
    }

    #[test]
    fn div_floor_and_mod_floor() {
        assert_eq!(bi(7).div_floor(&bi(2)), bi(3));
        assert_eq!(bi(-7).div_floor(&bi(2)), bi(-4));
        assert_eq!(bi(7).div_floor(&bi(-2)), bi(-4));
        assert_eq!(bi(-7).div_floor(&bi(-2)), bi(3));
        assert_eq!(bi(-7).mod_floor(&bi(2)), bi(1));
        assert_eq!(bi(7).mod_floor(&bi(-2)), bi(-1));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = bi(1).div_rem(&bi(0));
    }

    #[test]
    fn multi_limb_division_knuth_d() {
        let a: BigInt = "340282366920938463463374607431768211456".parse().unwrap(); // 2^128
        let b: BigInt = "18446744073709551629".parse().unwrap(); // prime-ish > 2^64
        let (q, r) = a.div_rem(&b);
        assert_eq!(&q * &b + &r, a);
        assert!(r < b);
        assert!(!r.is_negative());
    }

    #[test]
    fn knuth_d_add_back_case() {
        // Constructed so q_hat overestimates and the add-back branch runs.
        let a = BigInt::from_sign_mag(1, vec![0, 0, 1u64 << 63]);
        let b = BigInt::from_sign_mag(1, vec![1, 1u64 << 63]);
        let (q, r) = a.div_rem(&b);
        assert_eq!(&q * &b + &r, a);
        assert_eq!(r.cmp(&b), Ordering::Less);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in [
            "0",
            "1",
            "-1",
            "123456789",
            "-98765432109876543210987654321",
            "18446744073709551616",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn display_honours_format_flags() {
        for v in [0i64, 7, -7, i64::MIN, i64::MAX] {
            let b = BigInt::from(v);
            assert_eq!(format!("{b:+}"), format!("{v:+}"));
            assert_eq!(format!("{b:>6}"), format!("{v:>6}"));
            assert_eq!(format!("{b:<6}|"), format!("{v:<6}|"));
            assert_eq!(format!("{b:06}"), format!("{v:06}"));
        }
        assert_eq!(format!("{:+}", bi(2).pow(64)), "+18446744073709551616");
    }

    /// The heap variant is boxed so that inline values stay two words.
    #[test]
    fn values_are_two_words() {
        assert_eq!(std::mem::size_of::<BigInt>(), 16);
        assert_eq!(std::mem::size_of::<crate::Rational>(), 32);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert!("12x3".parse::<BigInt>().is_err());
    }

    #[test]
    fn ordering() {
        let mut values = vec![bi(3), bi(-10), bi(0), bi(7), bi(-2)];
        values.sort();
        assert_eq!(values, vec![bi(-10), bi(-2), bi(0), bi(3), bi(7)]);
        let big: BigInt = "999999999999999999999999".parse().unwrap();
        assert!(big > bi(i64::MAX as i128));
        assert!(-&big < bi(0));
    }

    #[test]
    fn conversions() {
        assert_eq!(bi(42).to_i64(), Some(42));
        assert_eq!(bi(-42).to_i128(), Some(-42));
        let big: BigInt = "170141183460469231731687303715884105728".parse().unwrap(); // 2^127
        assert_eq!(big.to_i128(), None);
        assert_eq!((-big).to_i128(), Some(i128::MIN));
    }

    #[test]
    fn pow() {
        assert_eq!(bi(2).pow(10), bi(1024));
        assert_eq!(bi(10).pow(0), bi(1));
        assert_eq!(bi(-3).pow(3), bi(-27));
        assert_eq!(
            bi(2).pow(128).to_string(),
            "340282366920938463463374607431768211456"
        );
    }

    #[test]
    fn bits() {
        assert_eq!(bi(0).bits(), 0);
        assert_eq!(bi(1).bits(), 1);
        assert_eq!(bi(255).bits(), 8);
        assert_eq!(bi(256).bits(), 9);
        assert_eq!(bi(2).pow(100).bits(), 101);
    }

    #[test]
    fn to_f64_approximates() {
        assert_eq!(bi(12345).to_f64(), 12345.0);
        let big = bi(2).pow(70);
        let rel = (big.to_f64() - 2f64.powi(70)).abs() / 2f64.powi(70);
        assert!(rel < 1e-12);
    }

    #[test]
    fn sum_and_product() {
        let vals = [bi(1), bi(2), bi(3), bi(4)];
        assert_eq!(vals.iter().cloned().sum::<BigInt>(), bi(10));
        assert_eq!(vals.iter().cloned().product::<BigInt>(), bi(24));
    }
}
