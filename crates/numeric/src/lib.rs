//! Exact arithmetic substrate for the `aov` workspace.
//!
//! The schedule/storage analyses of Thies et al. (PLDI 2001) reduce to
//! linear programs over the rationals; simplex pivoting and Farkas
//! elimination can blow up intermediate coefficient sizes well past any
//! fixed-width integer. This crate provides:
//!
//! * [`BigInt`] — an arbitrary-precision signed integer,
//! * [`Rational`] — an always-normalized exact rational over [`BigInt`],
//! * [`gcd`]/[`lcm`]/[`extended_gcd`] — lattice utilities used by the
//!   storage transformation (unimodular completion).
//!
//! # Representation
//!
//! The coefficients the analyses meet are small (a few bits in the
//! paper's examples), so the kernel is word-sized and the heap is only
//! the overflow representation. A [`BigInt`] whose value fits in an
//! `i64` is stored inline and never allocates; any other value is stored
//! as a sign plus heap limbs. The promotion rule is the only way values
//! are built: a result that fits in `i64` is demoted to inline, one that
//! does not is promoted to limbs, so every value has exactly one
//! representation and equality and hashing are structural. Inline
//! operations widen to `i128`, where two `i64` operands cannot overflow.
//! [`Rational`] operations whose four parts are all inline run in `i128`
//! with one word gcd; [`gcd_big`] has the same fast path. A nonzero
//! inline value reports [`BigInt::limbs`] `== 1`, as a one-limb heap
//! value did.
//!
//! # Examples
//!
//! ```
//! use aov_numeric::{BigInt, Rational};
//!
//! let a = BigInt::from(1_000_000_007i64);
//! let sq = &a * &a;
//! assert_eq!(sq.to_string(), "1000000014000000049");
//!
//! let third = Rational::new(1, 3);
//! let sum = &third + &third + &third;
//! assert_eq!(sum, Rational::from(1));
//! ```

mod bigint;
mod gcd;
mod rational;

pub use bigint::BigInt;
pub use gcd::{extended_gcd, gcd, gcd_big, lcm};
pub use rational::Rational;

/// Parse error returned by [`BigInt::from_str`](std::str::FromStr) and
/// [`Rational::from_str`](std::str::FromStr).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNumberError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ParseErrorKind {
    Empty,
    InvalidDigit(char),
    ZeroDenominator,
}

impl ParseNumberError {
    pub(crate) fn new(kind: ParseErrorKind) -> Self {
        ParseNumberError { kind }
    }
}

impl std::fmt::Display for ParseNumberError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ParseErrorKind::Empty => write!(f, "empty numeric literal"),
            ParseErrorKind::InvalidDigit(c) => write!(f, "invalid digit {c:?} in numeric literal"),
            ParseErrorKind::ZeroDenominator => write!(f, "denominator is zero"),
        }
    }
}

impl std::error::Error for ParseNumberError {}
