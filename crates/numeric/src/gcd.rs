//! Greatest common divisor utilities on machine integers and [`BigInt`].

use crate::BigInt;

/// Greatest common divisor of two `i64`s (always nonnegative;
/// `gcd(0, 0) == 0`).
///
/// # Examples
///
/// ```
/// assert_eq!(aov_numeric::gcd(12, -18), 6);
/// assert_eq!(aov_numeric::gcd(0, 7), 7);
/// ```
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a as i64
}

/// Least common multiple of two `i64`s (nonnegative; `lcm(0, x) == 0`).
///
/// # Panics
///
/// Panics on overflow of the product.
pub fn lcm(a: i64, b: i64) -> i64 {
    if a == 0 || b == 0 {
        return 0;
    }
    let g = gcd(a, b);
    (a / g).checked_mul(b).expect("lcm overflow").abs()
}

/// Greatest common divisor of two [`BigInt`]s (always nonnegative).
pub fn gcd_big(a: &BigInt, b: &BigInt) -> BigInt {
    if let (Some(x), Some(y)) = (a.to_i64(), b.to_i64()) {
        // `gcd(i64::MIN, i64::MIN)` is 2^63, a heap value.
        return BigInt::from(gcd_u64(x.unsigned_abs(), y.unsigned_abs()));
    }
    let mut a = a.abs();
    let mut b = b.abs();
    while !b.is_zero() {
        let t = &a % &b;
        a = b;
        b = t;
    }
    a
}

/// Binary (Stein) gcd of two machine words; `gcd_u64(0, 0) == 0`.
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Binary gcd of two double words, dropping to [`gcd_u64`] as soon as
/// both fit in one word.
pub(crate) fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        if let Ok(b64) = u64::try_from(b) {
            // a <= b, so both fit in one word; both are odd.
            return u128::from(gcd_u64(a as u64, b64)) << shift;
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Extended Euclidean algorithm: returns `(g, x, y)` with
/// `a*x + b*y == g == gcd(a, b)` and `g >= 0`.
///
/// Used by the storage transformation to complete an occupancy vector to a
/// unimodular basis of the data-space lattice.
///
/// # Examples
///
/// ```
/// let (g, x, y) = aov_numeric::extended_gcd(240, 46);
/// assert_eq!(g, 2);
/// assert_eq!(240 * x + 46 * y, 2);
/// ```
pub fn extended_gcd(a: i64, b: i64) -> (i64, i64, i64) {
    let (mut old_r, mut r) = (a, b);
    let (mut old_s, mut s) = (1i64, 0i64);
    let (mut old_t, mut t) = (0i64, 1i64);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
        (old_t, t) = (t, old_t - q * t);
    }
    if old_r < 0 {
        (-old_r, -old_s, -old_t)
    } else {
        (old_r, old_s, old_t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(12, -18), 6);
        assert_eq!(gcd(-12, -18), 6);
        assert_eq!(gcd(17, 13), 1);
        assert_eq!(gcd(i64::MIN, i64::MIN), i64::MIN.unsigned_abs() as i64);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(0, 5), 0);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(-4, 6), 12);
        assert_eq!(lcm(7, 13), 91);
    }

    #[test]
    fn gcd_big_matches_small() {
        for a in -30i64..=30 {
            for b in -30i64..=30 {
                assert_eq!(
                    gcd_big(&BigInt::from(a), &BigInt::from(b))
                        .to_i64()
                        .unwrap(),
                    gcd(a, b),
                    "gcd({a},{b})"
                );
            }
        }
    }

    #[test]
    fn word_gcds_match_euclid() {
        let samples = [
            0u128,
            1,
            2,
            6,
            48,
            1 << 63,
            u64::MAX as u128,
            (u64::MAX as u128) + 1,
            3 << 70,
            u128::MAX,
            (1u128 << 126) - 6,
        ];
        for &a in &samples {
            for &b in &samples {
                let (mut x, mut y) = (a, b);
                while y != 0 {
                    (x, y) = (y, x % y);
                }
                assert_eq!(gcd_u128(a, b), x, "gcd_u128({a}, {b})");
                if let (Ok(a64), Ok(b64)) = (u64::try_from(a), u64::try_from(b)) {
                    assert_eq!(gcd_u64(a64, b64) as u128, x, "gcd_u64({a}, {b})");
                }
            }
        }
    }

    #[test]
    fn extended_gcd_bezout() {
        for (a, b) in [(240, 46), (0, 7), (7, 0), (-15, 35), (12, -8), (1, 1)] {
            let (g, x, y) = extended_gcd(a, b);
            assert_eq!(g, gcd(a, b), "gcd part for ({a},{b})");
            assert_eq!(a * x + b * y, g, "bezout for ({a},{b})");
        }
    }
}
