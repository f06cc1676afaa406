//! Affine index expressions over loop iterators.
//!
//! Every array index handled by the analytical model of the paper is an
//! *affine* function of the loop iterators:
//!
//! ```text
//! y = b * j + c * k + constant            (paper, Section 5.2)
//! ```
//!
//! [`AffineExpr`] generalizes this to any number of iterators. Coefficients
//! and constants are `i64`; the model works on exact integer arithmetic
//! throughout (no floating point is involved until cost evaluation).

use std::collections::BTreeMap;
use std::fmt;

/// An affine expression `Σ coefᵢ · iterᵢ + constant` over named loop
/// iterators.
///
/// Internally the terms are kept in a sorted map with all zero coefficients
/// removed, so two expressions that denote the same affine function compare
/// equal with `==`.
///
/// # Examples
///
/// ```
/// use datareuse_loopir::AffineExpr;
///
/// // 8*i1 + i3 + i5
/// let e = AffineExpr::var("i1").scaled(8) + AffineExpr::var("i3") + AffineExpr::var("i5");
/// assert_eq!(e.coeff("i1"), 8);
/// assert_eq!(e.coeff("i5"), 1);
/// assert_eq!(e.coeff("i2"), 0);
/// assert_eq!(e.to_string(), "8*i1 + i3 + i5");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    terms: BTreeMap<String, i64>,
    constant: i64,
}

impl AffineExpr {
    /// The zero expression.
    ///
    /// ```
    /// use datareuse_loopir::AffineExpr;
    /// assert!(AffineExpr::new().is_constant());
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant(value: i64) -> Self {
        Self {
            terms: BTreeMap::new(),
            constant: value,
        }
    }

    /// The expression consisting of a single iterator with coefficient 1.
    pub fn var(name: impl Into<String>) -> Self {
        Self::term(name, 1)
    }

    /// The expression `coeff * name`.
    pub fn term(name: impl Into<String>, coeff: i64) -> Self {
        let mut terms = BTreeMap::new();
        if coeff != 0 {
            terms.insert(name.into(), coeff);
        }
        Self { terms, constant: 0 }
    }

    /// Returns the coefficient of iterator `name` (0 when absent).
    pub fn coeff(&self, name: &str) -> i64 {
        self.terms.get(name).copied().unwrap_or(0)
    }

    /// Returns the additive constant.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// Returns this expression scaled by `factor`.
    pub fn scaled(&self, factor: i64) -> Self {
        if factor == 0 {
            return Self::new();
        }
        Self {
            terms: self
                .terms
                .iter()
                .map(|(n, c)| (n.clone(), c * factor))
                .collect(),
            constant: self.constant * factor,
        }
    }

    /// Adds `coeff * name` in place.
    pub fn add_term(&mut self, name: impl Into<String>, coeff: i64) {
        if coeff == 0 {
            return;
        }
        let name = name.into();
        let entry = self.terms.entry(name.clone()).or_insert(0);
        *entry += coeff;
        if *entry == 0 {
            self.terms.remove(&name);
        }
    }

    /// True when the expression contains no iterator terms.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterator names with non-zero coefficients, in sorted order.
    pub fn iterators(&self) -> impl Iterator<Item = &str> {
        self.terms.keys().map(String::as_str)
    }

    /// Evaluates the expression for concrete iterator values.
    ///
    /// Iterators absent from `env` contribute `coeff * 0`; this matches the
    /// paper's treatment of outer-loop iterators as constants folded into the
    /// base offset when analyzing an inner loop pair.
    pub fn eval<'a, F>(&self, env: F) -> i64
    where
        F: Fn(&str) -> Option<i64> + 'a,
    {
        self.terms
            .iter()
            .map(|(n, c)| c * env(n).unwrap_or(0))
            .sum::<i64>()
            + self.constant
    }

    /// Substitutes `name := replacement` and returns the result.
    ///
    /// Used to normalize loops with step sizes larger than 1: the paper notes
    /// the theory "is easily extended to loops with incremental step sizes
    /// larger than 1, by (temporarily) transforming the loop nest to a loop
    /// nest with a step size equal to 1" — which is exactly the substitution
    /// `i := step * i' + lower`.
    pub fn substitute(&self, name: &str, replacement: &AffineExpr) -> Self {
        let mut out = Self::constant(self.constant);
        for (n, c) in &self.terms {
            if n == name {
                let scaled = replacement.scaled(*c);
                for (rn, rc) in &scaled.terms {
                    out.add_term(rn.clone(), *rc);
                }
                out.constant += scaled.constant;
            } else {
                out.add_term(n.clone(), *c);
            }
        }
        out
    }

    /// Restricts the expression to the given iterators, folding everything
    /// else (including the constant) into the returned base constant.
    ///
    /// Returns `(restricted, base)` where `restricted` contains only terms on
    /// `keep` (with zero constant) and `base` is the symbolic remainder.
    pub fn split(&self, keep: &[&str]) -> (AffineExpr, AffineExpr) {
        let mut restricted = AffineExpr::new();
        let mut base = AffineExpr::constant(self.constant);
        for (n, c) in &self.terms {
            if keep.contains(&n.as_str()) {
                restricted.add_term(n.clone(), *c);
            } else {
                base.add_term(n.clone(), *c);
            }
        }
        (restricted, base)
    }

    /// The value range `[min, max]` of this expression when each iterator
    /// ranges over the inclusive interval given by `bounds(name)`, or
    /// `None` when an end of the range leaves `i64`.
    ///
    /// Iterators not covered by `bounds` are treated as fixed at 0 (i.e.
    /// excluded from the range computation); callers fold outer iterators
    /// into a base offset first via [`AffineExpr::split`].
    pub fn value_range<F>(&self, bounds: F) -> Option<(i64, i64)>
    where
        F: Fn(&str) -> Option<(i64, i64)>,
    {
        let mut lo = self.constant;
        let mut hi = self.constant;
        for (n, c) in &self.terms {
            if let Some((bl, bu)) = bounds(n) {
                debug_assert!(bl <= bu, "empty iterator interval for {n}");
                let (at_lo, at_hi) = if *c >= 0 { (bl, bu) } else { (bu, bl) };
                lo = lo.checked_add(c.checked_mul(at_lo)?)?;
                hi = hi.checked_add(c.checked_mul(at_hi)?)?;
            }
        }
        Some((lo, hi))
    }
}

impl std::ops::Add for AffineExpr {
    type Output = AffineExpr;

    fn add(mut self, rhs: AffineExpr) -> AffineExpr {
        for (n, c) in rhs.terms {
            self.add_term(n, c);
        }
        self.constant += rhs.constant;
        self
    }
}

impl std::ops::Add<i64> for AffineExpr {
    type Output = AffineExpr;

    fn add(mut self, rhs: i64) -> AffineExpr {
        self.constant += rhs;
        self
    }
}

impl std::ops::Sub for AffineExpr {
    type Output = AffineExpr;

    fn sub(self, rhs: AffineExpr) -> AffineExpr {
        self + rhs.scaled(-1)
    }
}

impl std::ops::Neg for AffineExpr {
    type Output = AffineExpr;

    fn neg(self) -> AffineExpr {
        self.scaled(-1)
    }
}

impl From<i64> for AffineExpr {
    fn from(value: i64) -> Self {
        AffineExpr::constant(value)
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (n, c) in &self.terms {
            if first {
                match *c {
                    1 => write!(f, "{n}")?,
                    -1 => write!(f, "-{n}")?,
                    c => write!(f, "{c}*{n}")?,
                }
                first = false;
            } else {
                let sign = if *c < 0 { '-' } else { '+' };
                match c.abs() {
                    1 => write!(f, " {sign} {n}")?,
                    a => write!(f, " {sign} {a}*{n}")?,
                }
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant != 0 {
            let sign = if self.constant < 0 { '-' } else { '+' };
            write!(f, " {sign} {}", self.constant.abs())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_coefficients_are_normalized_away() {
        let mut e = AffineExpr::var("i");
        e.add_term("i", -1);
        assert!(e.is_constant());
        assert_eq!(e, AffineExpr::constant(0));
        assert_eq!(AffineExpr::term("j", 0), AffineExpr::new());
    }

    #[test]
    fn display_formats_signs_and_units() {
        let e = AffineExpr::term("i", 2) - AffineExpr::var("j") + 3;
        assert_eq!(e.to_string(), "2*i - j + 3");
        assert_eq!(AffineExpr::constant(-4).to_string(), "-4");
        assert_eq!((-AffineExpr::var("k")).to_string(), "-k");
        assert_eq!(AffineExpr::new().to_string(), "0");
    }

    #[test]
    fn eval_uses_bindings_and_defaults_missing_to_zero() {
        let e = AffineExpr::term("i", 3) + AffineExpr::term("j", -2) + 7;
        let both = |n: &str| match n {
            "i" => Some(2),
            "j" => Some(5),
            _ => None,
        };
        assert_eq!(e.eval(both), 3);
        assert_eq!(e.eval(|n| (n == "i").then_some(2)), 13);
    }

    #[test]
    fn substitute_performs_step_normalization() {
        // i := 2*i' + 1 inside 3*i + j
        let e = AffineExpr::term("i", 3) + AffineExpr::var("j");
        let repl = AffineExpr::term("ip", 2) + 1;
        let out = e.substitute("i", &repl);
        assert_eq!(out.coeff("ip"), 6);
        assert_eq!(out.coeff("j"), 1);
        assert_eq!(out.constant_part(), 3);
    }

    #[test]
    fn split_separates_inner_iterators_from_base() {
        let e = AffineExpr::term("i1", 8) + AffineExpr::var("i3") + AffineExpr::var("i5") + 2;
        let (inner, base) = e.split(&["i3", "i5"]);
        assert_eq!(inner.coeff("i3"), 1);
        assert_eq!(inner.coeff("i5"), 1);
        assert_eq!(inner.constant_part(), 0);
        assert_eq!(base.coeff("i1"), 8);
        assert_eq!(base.constant_part(), 2);
    }

    #[test]
    fn value_range_handles_negative_coefficients() {
        let e = AffineExpr::term("i", -2) + AffineExpr::var("j");
        let (lo, hi) = e
            .value_range(|n| match n {
                "i" => Some((0, 3)),
                "j" => Some((1, 4)),
                _ => None,
            })
            .unwrap();
        assert_eq!((lo, hi), (-5, 4));
    }

    #[test]
    fn value_range_refuses_to_wrap() {
        let e = AffineExpr::term("i", 1 << 32);
        assert_eq!(e.value_range(|_| Some((0, 1 << 30))), Some((0, 1 << 62)));
        assert_eq!(e.value_range(|_| Some((0, 1 << 32))), None);
        let offset = AffineExpr::var("i") + i64::MAX;
        assert_eq!(offset.value_range(|_| Some((0, 1))), None);
        assert_eq!(
            offset.value_range(|_| Some((-1, 0))),
            Some((i64::MAX - 1, i64::MAX))
        );
    }

    #[test]
    fn add_sub_neg_compose() {
        let a = AffineExpr::var("x") + 1;
        let b = AffineExpr::term("x", 4) - AffineExpr::var("y");
        let s = a.clone() + b.clone();
        assert_eq!(s.coeff("x"), 5);
        assert_eq!(s.coeff("y"), -1);
        assert_eq!(s.constant_part(), 1);
        let d = b - a;
        assert_eq!(d.coeff("x"), 3);
        assert_eq!(d.constant_part(), -1);
    }
}
