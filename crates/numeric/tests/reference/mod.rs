//! Test-only reference: the limb-only `BigInt` this crate used before
//! small values were stored inline, kept verbatim in its arithmetic
//! (sign plus little-endian base-2^64 magnitude, schoolbook products,
//! Knuth Algorithm D), and the rational over it that reduces every
//! result with a big gcd. The boundary tests check the production types
//! against it.

#![allow(dead_code)]

use std::cmp::Ordering;
use std::fmt;

/// Limb-only signed integer: zero has an empty magnitude and sign 0.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RefInt {
    sign: i8,
    mag: Vec<u64>,
}

impl RefInt {
    pub fn zero() -> Self {
        RefInt {
            sign: 0,
            mag: Vec::new(),
        }
    }

    pub fn one() -> Self {
        RefInt::from_i128(1)
    }

    pub fn from_i128(v: i128) -> Self {
        let sign = v.signum() as i8;
        let mag = v.unsigned_abs();
        RefInt::from_sign_mag(sign, vec![mag as u64, (mag >> 64) as u64])
    }

    fn from_sign_mag(sign: i8, mut mag: Vec<u64>) -> RefInt {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        if mag.is_empty() {
            RefInt::zero()
        } else {
            RefInt { sign, mag }
        }
    }

    pub fn parse(s: &str) -> Option<RefInt> {
        let (sign, digits) = match s.strip_prefix('-') {
            Some(rest) => (-1i8, rest),
            None => (1i8, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() {
            return None;
        }
        let mut acc = RefInt::zero();
        let ten = RefInt::from_i128(10);
        for c in digits.chars() {
            let d = c.to_digit(10)?;
            acc = acc.mul(&ten).add(&RefInt::from_i128(d as i128));
        }
        Some(if sign < 0 { acc.neg() } else { acc })
    }

    pub fn signum(&self) -> i8 {
        self.sign
    }

    pub fn is_zero(&self) -> bool {
        self.sign == 0
    }

    pub fn bits(&self) -> usize {
        match self.mag.last() {
            None => 0,
            Some(&hi) => 64 * (self.mag.len() - 1) + (64 - hi.leading_zeros() as usize),
        }
    }

    pub fn limbs(&self) -> usize {
        self.mag.len()
    }

    pub fn neg(&self) -> RefInt {
        RefInt {
            sign: -self.sign,
            mag: self.mag.clone(),
        }
    }

    pub fn abs(&self) -> RefInt {
        RefInt {
            sign: self.sign.abs(),
            mag: self.mag.clone(),
        }
    }

    pub fn add(&self, rhs: &RefInt) -> RefInt {
        if self.is_zero() {
            return rhs.clone();
        }
        if rhs.is_zero() {
            return self.clone();
        }
        if self.sign == rhs.sign {
            RefInt::from_sign_mag(self.sign, add_mag(&self.mag, &rhs.mag))
        } else {
            match cmp_mag(&self.mag, &rhs.mag) {
                Ordering::Equal => RefInt::zero(),
                Ordering::Greater => RefInt::from_sign_mag(self.sign, sub_mag(&self.mag, &rhs.mag)),
                Ordering::Less => RefInt::from_sign_mag(rhs.sign, sub_mag(&rhs.mag, &self.mag)),
            }
        }
    }

    pub fn sub(&self, rhs: &RefInt) -> RefInt {
        self.add(&rhs.neg())
    }

    pub fn mul(&self, rhs: &RefInt) -> RefInt {
        if self.is_zero() || rhs.is_zero() {
            return RefInt::zero();
        }
        RefInt::from_sign_mag(self.sign * rhs.sign, mul_mag(&self.mag, &rhs.mag))
    }

    /// Truncated division, remainder with the dividend's sign.
    pub fn div_rem(&self, rhs: &RefInt) -> (RefInt, RefInt) {
        assert!(!rhs.is_zero(), "division by zero");
        if self.is_zero() {
            return (RefInt::zero(), RefInt::zero());
        }
        match cmp_mag(&self.mag, &rhs.mag) {
            Ordering::Less => (RefInt::zero(), self.clone()),
            Ordering::Equal => (
                RefInt::from_sign_mag(self.sign * rhs.sign, vec![1]),
                RefInt::zero(),
            ),
            Ordering::Greater => {
                let (q, r) = divrem_mag(&self.mag, &rhs.mag);
                (
                    RefInt::from_sign_mag(self.sign * rhs.sign, q),
                    RefInt::from_sign_mag(self.sign, r),
                )
            }
        }
    }

    pub fn div_floor(&self, rhs: &RefInt) -> RefInt {
        let (q, r) = self.div_rem(rhs);
        if !r.is_zero() && (r.sign * rhs.sign) < 0 {
            q.sub(&RefInt::one())
        } else {
            q
        }
    }

    pub fn mod_floor(&self, rhs: &RefInt) -> RefInt {
        self.sub(&self.div_floor(rhs).mul(rhs))
    }

    pub fn gcd(&self, rhs: &RefInt) -> RefInt {
        let (mut a, mut b) = (self.abs(), rhs.abs());
        while !b.is_zero() {
            let t = a.div_rem(&b).1;
            a = b;
            b = t;
        }
        a
    }
}

impl Ord for RefInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.sign.cmp(&other.sign) {
            Ordering::Equal => {}
            ord => return ord,
        }
        match self.sign {
            0 => Ordering::Equal,
            1 => cmp_mag(&self.mag, &other.mag),
            _ => cmp_mag(&other.mag, &self.mag),
        }
    }
}

impl PartialOrd for RefInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for RefInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "", "0");
        }
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut mag = self.mag.clone();
        let mut chunks: Vec<u64> = Vec::new();
        while !mag.is_empty() {
            let (q, r) = divrem_mag_limb(&mag, CHUNK);
            chunks.push(r.first().copied().unwrap_or(0));
            mag = q;
        }
        let mut s = chunks.last().unwrap().to_string();
        for c in chunks.iter().rev().skip(1) {
            s.push_str(&format!("{c:019}"));
        }
        f.pad_integral(self.sign >= 0, "", &s)
    }
}

/// Rational over [`RefInt`], reduced by a big gcd after every operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RefRational {
    num: RefInt,
    den: RefInt,
}

impl RefRational {
    pub fn new(num: RefInt, den: RefInt) -> RefRational {
        assert!(!den.is_zero(), "zero denominator");
        if num.is_zero() {
            return RefRational {
                num,
                den: RefInt::one(),
            };
        }
        let g = num.gcd(&den);
        let (mut num, mut den) = (num.div_rem(&g).0, den.div_rem(&g).0);
        if den.signum() < 0 {
            num = num.neg();
            den = den.neg();
        }
        RefRational { num, den }
    }

    pub fn add(&self, rhs: &RefRational) -> RefRational {
        RefRational::new(
            self.num.mul(&rhs.den).add(&rhs.num.mul(&self.den)),
            self.den.mul(&rhs.den),
        )
    }

    pub fn sub(&self, rhs: &RefRational) -> RefRational {
        RefRational::new(
            self.num.mul(&rhs.den).sub(&rhs.num.mul(&self.den)),
            self.den.mul(&rhs.den),
        )
    }

    pub fn mul(&self, rhs: &RefRational) -> RefRational {
        RefRational::new(self.num.mul(&rhs.num), self.den.mul(&rhs.den))
    }

    pub fn div(&self, rhs: &RefRational) -> RefRational {
        RefRational::new(self.num.mul(&rhs.den), self.den.mul(&rhs.num))
    }

    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }
}

impl Ord for RefRational {
    fn cmp(&self, other: &Self) -> Ordering {
        self.num.mul(&other.den).cmp(&other.num.mul(&self.den))
    }
}

impl PartialOrd for RefRational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for RefRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == RefInt::one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

// ---------------------------------------------------------------------------
// magnitude primitives
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
