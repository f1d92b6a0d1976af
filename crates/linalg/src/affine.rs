//! Affine expressions over a named variable space.
//!
//! An [`AffineExpr`] is `c·x + b` for a coefficient vector `c` and constant
//! `b`, where `x` ranges over the variables of a [`VarSet`]. These are the
//! common currency of the whole analysis: dependence functions, schedules,
//! schedule/storage constraints and Farkas combinations are all affine
//! expressions over various spaces.

use crate::QVector;
use aov_numeric::Rational;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An ordered set of named variables defining a coordinate space.
///
/// # Examples
///
/// ```
/// use aov_linalg::VarSet;
///
/// let mut vars = VarSet::new();
/// let i = vars.add("i");
/// let j = vars.add("j");
/// assert_eq!((i, j), (0, 1));
/// assert_eq!(vars.index("j"), Some(1));
/// assert_eq!(vars.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarSet {
    names: Vec<String>,
    index: HashMap<String, usize>,
}

impl VarSet {
    /// An empty variable set.
    pub fn new() -> Self {
        VarSet::default()
    }

    /// Builds a variable set from names.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names.
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut vs = VarSet::new();
        for n in names {
            vs.add(n);
        }
        vs
    }

    /// Adds a variable, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if the name is already present.
    pub fn add<S: Into<String>>(&mut self, name: S) -> usize {
        let name = name.into();
        assert!(
            !self.index.contains_key(&name),
            "duplicate variable {name:?}"
        );
        let idx = self.names.len();
        self.index.insert(name.clone(), idx);
        self.names.push(name);
        idx
    }

    /// Index of a variable by name.
    pub fn index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Name of the variable at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn name(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    /// All names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// An affine expression `c·x + b` over a variable space of fixed dimension.
///
/// The dimension is implicit; operations panic on dimension mismatch.
///
/// # Examples
///
/// ```
/// use aov_linalg::AffineExpr;
/// use aov_numeric::Rational;
///
/// // 2i - j + 3  over (i, j)
/// let e = AffineExpr::from_i64(&[2, -1], 3);
/// assert_eq!(e.eval_i64(&[5, 4]), Rational::from(9));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    coeffs: QVector,
    constant: Rational,
}

impl AffineExpr {
    /// The zero expression over `dim` variables.
    pub fn zero(dim: usize) -> Self {
        AffineExpr {
            coeffs: QVector::zeros(dim),
            constant: Rational::zero(),
        }
    }

    /// A constant expression over `dim` variables.
    pub fn constant(dim: usize, c: Rational) -> Self {
        AffineExpr {
            coeffs: QVector::zeros(dim),
            constant: c,
        }
    }

    /// The single variable `x_i` over `dim` variables.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    pub fn var(dim: usize, i: usize) -> Self {
        AffineExpr {
            coeffs: QVector::unit(dim, i),
            constant: Rational::zero(),
        }
    }

    /// Builds from integer coefficients and constant.
    pub fn from_i64(coeffs: &[i64], constant: i64) -> Self {
        AffineExpr {
            coeffs: QVector::from_i64(coeffs),
            constant: Rational::from(constant),
        }
    }

    /// Builds from rational parts.
    pub fn from_parts(coeffs: QVector, constant: Rational) -> Self {
        AffineExpr { coeffs, constant }
    }

    /// The expression with `c` added to its constant term.
    #[must_use]
    pub fn plus_constant(mut self, c: &Rational) -> AffineExpr {
        self.constant = &self.constant + c;
        self
    }

    /// Coefficient vector.
    pub fn coeffs(&self) -> &QVector {
        &self.coeffs
    }

    /// Constant term.
    pub fn constant_term(&self) -> &Rational {
        &self.constant
    }

    /// Coefficient of variable `i`.
    pub fn coeff(&self, i: usize) -> &Rational {
        &self.coeffs[i]
    }

    /// Dimension of the underlying variable space.
    pub fn dim(&self) -> usize {
        self.coeffs.dim()
    }

    /// `true` when all coefficients are zero.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_zero()
    }

    /// `true` when the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.is_constant() && self.constant.is_zero()
    }

    /// Evaluates at a rational point.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn eval(&self, x: &QVector) -> Rational {
        &self.coeffs.dot(x) + &self.constant
    }

    /// Evaluates at an integer point.
    pub fn eval_i64(&self, x: &[i64]) -> Rational {
        self.eval(&QVector::from_i64(x))
    }

    /// Scales the whole expression by `s`.
    pub fn scale(&self, s: &Rational) -> AffineExpr {
        AffineExpr {
            coeffs: self.coeffs.scale(s),
            constant: &self.constant * s,
        }
    }

    /// Substitutes each variable `x_i` by the affine expression `subs[i]`
    /// (all over a common target space), yielding an expression over the
    /// target space.
    ///
    /// This is affine composition: if `self` describes `f(x)` and `subs`
    /// describe `x = g(y)`, the result describes `f(g(y))`.
    ///
    /// # Panics
    ///
    /// Panics if `subs.len() != self.dim()` or the substitutes disagree on
    /// their dimension.
    pub fn substitute(&self, subs: &[AffineExpr]) -> AffineExpr {
        assert_eq!(subs.len(), self.dim(), "substitution arity mismatch");
        let target_dim = subs.first().map_or(0, AffineExpr::dim);
        let mut acc = AffineExpr::constant(target_dim, self.constant.clone());
        for (c, sub) in self.coeffs.iter().zip(subs) {
            assert_eq!(sub.dim(), target_dim, "substitutes of mixed dimension");
            if !c.is_zero() {
                // In place: one allocation for the whole composition.
                let terms = acc.coeffs.as_mut_slice().iter_mut().zip(sub.coeffs.iter());
                for (x, y) in terms.chain([(&mut acc.constant, &sub.constant)]) {
                    if !y.is_zero() {
                        *x += &(c * y);
                    }
                }
            }
        }
        acc
    }

    /// Embeds the expression into a larger space: variable `i` of `self`
    /// becomes variable `map[i]` of the target space of dimension
    /// `target_dim`.
    ///
    /// # Panics
    ///
    /// Panics if `map.len() != self.dim()` or any target index is out of
    /// range.
    pub fn embed(&self, target_dim: usize, map: &[usize]) -> AffineExpr {
        assert_eq!(map.len(), self.dim(), "embedding map arity mismatch");
        let mut coeffs = QVector::zeros(target_dim);
        for (i, &t) in map.iter().enumerate() {
            assert!(t < target_dim, "embedding target out of range");
            coeffs[t] = &coeffs[t] + &self.coeffs[i];
        }
        AffineExpr {
            coeffs,
            constant: self.constant.clone(),
        }
    }

    /// Renders the expression using `vars` for variable names.
    pub fn display<'a>(&'a self, vars: &'a VarSet) -> impl fmt::Display + 'a {
        DisplayExpr { expr: self, vars }
    }

    /// Multiplies through by the lcm of coefficient denominators so all
    /// coefficients and the constant are integers; returns the scaled
    /// expression (same sign, same zero set for `>= 0` constraints).
    pub fn clear_denominators(&self) -> AffineExpr {
        let mut l = aov_numeric::BigInt::one();
        for c in self.coeffs.iter().chain(std::iter::once(&self.constant)) {
            let d = c.denom();
            let g = aov_numeric::gcd_big(&l, d);
            l = &l * &(d / &g);
        }
        self.scale(&Rational::from(l))
    }
}

struct DisplayExpr<'a> {
    expr: &'a AffineExpr,
    vars: &'a VarSet,
}

impl fmt::Display for DisplayExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (i, c) in self.expr.coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            let name = self.vars.name(i);
            if wrote {
                write!(f, " {} ", if c.is_negative() { "-" } else { "+" })?;
            } else if c.is_negative() {
                write!(f, "-")?;
            }
            let a = c.abs();
            if a == Rational::one() {
                write!(f, "{name}")?;
            } else {
                write!(f, "{a}*{name}")?;
            }
            wrote = true;
        }
        let k = &self.expr.constant;
        if !k.is_zero() || !wrote {
            if wrote {
                write!(
                    f,
                    " {} {}",
                    if k.is_negative() { "-" } else { "+" },
                    k.abs()
                )?;
            } else {
                write!(f, "{k}")?;
            }
        }
        Ok(())
    }
}

impl Add<&AffineExpr> for &AffineExpr {
    type Output = AffineExpr;
    fn add(self, rhs: &AffineExpr) -> AffineExpr {
        AffineExpr {
            coeffs: &self.coeffs + &rhs.coeffs,
            constant: &self.constant + &rhs.constant,
        }
    }
}

impl Sub<&AffineExpr> for &AffineExpr {
    type Output = AffineExpr;
    fn sub(self, rhs: &AffineExpr) -> AffineExpr {
        AffineExpr {
            coeffs: &self.coeffs - &rhs.coeffs,
            constant: &self.constant - &rhs.constant,
        }
    }
}

impl Neg for &AffineExpr {
    type Output = AffineExpr;
    fn neg(self) -> AffineExpr {
        AffineExpr {
            coeffs: -&self.coeffs,
            constant: -&self.constant,
        }
    }
}

impl Mul<&AffineExpr> for &Rational {
    type Output = AffineExpr;
    fn mul(self, rhs: &AffineExpr) -> AffineExpr {
        rhs.scale(self)
    }
}

macro_rules! forward_affine_binop {
    ($($trait:ident, $method:ident);*) => {$(
        impl $trait<AffineExpr> for AffineExpr {
            type Output = AffineExpr;
            fn $method(self, rhs: AffineExpr) -> AffineExpr { (&self).$method(&rhs) }
        }
        impl $trait<&AffineExpr> for AffineExpr {
            type Output = AffineExpr;
            fn $method(self, rhs: &AffineExpr) -> AffineExpr { (&self).$method(rhs) }
        }
        impl $trait<AffineExpr> for &AffineExpr {
            type Output = AffineExpr;
            fn $method(self, rhs: AffineExpr) -> AffineExpr { self.$method(&rhs) }
        }
    )*};
}
forward_affine_binop!(Add, add; Sub, sub);

impl Neg for AffineExpr {
    type Output = AffineExpr;
    fn neg(self) -> AffineExpr {
        -&self
    }
}

impl fmt::Debug for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AffineExpr({:?} + {})", self.coeffs, self.constant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varset_basics() {
        let vs = VarSet::from_names(["i", "j", "n"]);
        assert_eq!(vs.len(), 3);
        assert_eq!(vs.index("n"), Some(2));
        assert_eq!(vs.index("zz"), None);
        assert_eq!(vs.name(0), "i");
        assert_eq!(vs.names(), &["i".to_string(), "j".into(), "n".into()]);
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn varset_rejects_duplicates() {
        let _ = VarSet::from_names(["i", "i"]);
    }

    #[test]
    fn eval_and_ops() {
        let e = AffineExpr::from_i64(&[2, -1], 3); // 2i - j + 3
        assert_eq!(e.eval_i64(&[5, 4]), Rational::from(9));
        let f = AffineExpr::from_i64(&[0, 1], -1); // j - 1
        assert_eq!((&e + &f).eval_i64(&[1, 1]), Rational::from(4));
        assert_eq!((&e - &f).eval_i64(&[1, 1]), Rational::from(4));
        assert_eq!((-&e).eval_i64(&[0, 0]), Rational::from(-3));
        assert_eq!(
            e.scale(&Rational::from(2)).eval_i64(&[1, 0]),
            Rational::from(10)
        );
    }

    #[test]
    fn substitution_composes() {
        // f(i, j) = i + 2j; substitute i = u - 1, j = u + v.
        let f = AffineExpr::from_i64(&[1, 2], 0);
        let gi = AffineExpr::from_i64(&[1, 0], -1);
        let gj = AffineExpr::from_i64(&[1, 1], 0);
        let comp = f.substitute(&[gi, gj]);
        // = (u-1) + 2(u+v) = 3u + 2v - 1
        assert_eq!(comp, AffineExpr::from_i64(&[3, 2], -1));
    }

    #[test]
    fn embedding() {
        // i + 2j over (i,j) embedded into (a, i, j, b).
        let e = AffineExpr::from_i64(&[1, 2], 5);
        let emb = e.embed(4, &[1, 2]);
        assert_eq!(emb, AffineExpr::from_i64(&[0, 1, 2, 0], 5));
    }

    #[test]
    fn display_pretty() {
        let vs = VarSet::from_names(["i", "j"]);
        assert_eq!(
            AffineExpr::from_i64(&[2, -1], 3).display(&vs).to_string(),
            "2*i - j + 3"
        );
        assert_eq!(
            AffineExpr::from_i64(&[0, 0], 0).display(&vs).to_string(),
            "0"
        );
        assert_eq!(
            AffineExpr::from_i64(&[-1, 0], 0).display(&vs).to_string(),
            "-i"
        );
        assert_eq!(
            AffineExpr::from_i64(&[0, 1], -2).display(&vs).to_string(),
            "j - 2"
        );
    }

    #[test]
    fn clear_denominators() {
        let e = AffineExpr::from_parts(
            QVector::from_vec(vec![Rational::new(1, 2), Rational::new(2, 3)]),
            Rational::new(-1, 6),
        );
        let cleared = e.clear_denominators();
        assert_eq!(cleared, AffineExpr::from_i64(&[3, 4], -1));
    }

    #[test]
    fn constant_detection() {
        assert!(AffineExpr::constant(2, Rational::from(4)).is_constant());
        assert!(!AffineExpr::var(2, 0).is_constant());
        assert!(AffineExpr::zero(3).is_zero());
    }
}
