//! Loop nests, array declarations and array accesses.
//!
//! A [`Program`] is a sequence of perfectly nested [`LoopNest`]s over a set
//! of declared [`ArrayDecl`]s — the shape the DTSE pre-processing steps of
//! the paper (single-assignment conversion, loop transformations) hand to the
//! data reuse step. Each nest body is a list of [`Access`]es executed once
//! per innermost iteration, optionally guarded by a simple affine condition
//! (needed for the SUSAN test-vehicle, whose middle-row loop skips the
//! reference pixel position).

use std::borrow::Cow;
use std::fmt;

use crate::error::BuildNestError;
use crate::expr::AffineExpr;

/// One loop of a nest with **inclusive** integer bounds, matching the
/// paper's `jL`/`jU` notation, and a positive step.
///
/// # Examples
///
/// ```
/// use datareuse_loopir::Loop;
///
/// let l = Loop::new("j", 0, 15);        // j = 0, 1, ..., 15
/// assert_eq!(l.range(), 16);            // jRANGE = jU - jL + 1  (paper eq. 10)
/// let s = Loop::with_step("k", 0, 9, 3); // k = 0, 3, 6, 9
/// assert_eq!(s.trip_count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Loop {
    name: String,
    lower: i64,
    upper: i64,
    step: i64,
}

impl Loop {
    /// Creates a unit-step loop over the inclusive interval `[lower, upper]`.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper`. Use [`Loop::try_new`] for a fallible
    /// variant.
    pub fn new(name: impl Into<String>, lower: i64, upper: i64) -> Self {
        Self::with_step(name, lower, upper, 1)
    }

    /// Creates a loop with an explicit step.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or `step < 1`.
    pub fn with_step(name: impl Into<String>, lower: i64, upper: i64, step: i64) -> Self {
        Self::try_with_step(name, lower, upper, step).expect("invalid loop")
    }

    /// Fallible constructor for a unit-step loop.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNestError::EmptyLoop`] when `lower > upper`.
    pub fn try_new(name: impl Into<String>, lower: i64, upper: i64) -> Result<Self, BuildNestError> {
        Self::try_with_step(name, lower, upper, 1)
    }

    /// Fallible constructor with an explicit step.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNestError::EmptyLoop`] when `lower > upper` and
    /// [`BuildNestError::BadStep`] when `step < 1`.
    pub fn try_with_step(
        name: impl Into<String>,
        lower: i64,
        upper: i64,
        step: i64,
    ) -> Result<Self, BuildNestError> {
        let name = name.into();
        if step < 1 {
            return Err(BuildNestError::BadStep { name, step });
        }
        if lower > upper {
            return Err(BuildNestError::EmptyLoop { name, lower, upper });
        }
        Ok(Self {
            name,
            lower,
            upper,
            step,
        })
    }

    /// The iterator name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inclusive lower bound (the paper's `jL`).
    pub fn lower(&self) -> i64 {
        self.lower
    }

    /// Inclusive upper bound (the paper's `jU`).
    pub fn upper(&self) -> i64 {
        self.upper
    }

    /// Loop step (≥ 1).
    pub fn step(&self) -> i64 {
        self.step
    }

    /// `upper - lower + 1`, the paper's `jRANGE` (eq. 10/11). Only equals the
    /// trip count for unit-step loops.
    pub fn range(&self) -> i64 {
        self.upper - self.lower + 1
    }

    /// Number of iterations executed.
    pub fn trip_count(&self) -> u64 {
        ((self.upper - self.lower) / self.step + 1) as u64
    }

    /// Iterator values in execution order.
    pub fn values(&self) -> impl Iterator<Item = i64> + '_ {
        (self.lower..=self.upper).step_by(self.step as usize)
    }

    /// Normalizes the loop to step 1 starting at 0, returning the new loop
    /// and the substitution `old := step * new + lower` to apply to index
    /// expressions (the paper's temporary transformation for step sizes > 1).
    pub fn normalized(&self) -> (Loop, AffineExpr) {
        let trip = self.trip_count() as i64;
        let fresh = Loop::new(self.name.clone(), 0, trip - 1);
        let subst = AffineExpr::term(self.name.clone(), self.step) + self.lower;
        (fresh, subst)
    }
}

impl fmt::Display for Loop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.step == 1 {
            write!(f, "for {} in {}..={}", self.name, self.lower, self.upper)
        } else {
            write!(
                f,
                "for {} in {}..={} step {}",
                self.name, self.lower, self.upper, self.step
            )
        }
    }
}

/// A declared multi-dimensional array signal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayDecl {
    name: String,
    extents: Vec<i64>,
    elem_bits: u32,
}

impl ArrayDecl {
    /// Declares `name[extents[0]][extents[1]]...` with `elem_bits`-bit
    /// elements.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNestError::BadExtent`] when any extent is < 1.
    pub fn new(
        name: impl Into<String>,
        extents: impl IntoIterator<Item = i64>,
        elem_bits: u32,
    ) -> Result<Self, BuildNestError> {
        let name = name.into();
        let extents: Vec<i64> = extents.into_iter().collect();
        if let Some(&extent) = extents.iter().find(|&&e| e < 1) {
            return Err(BuildNestError::BadExtent {
                array: name,
                extent,
            });
        }
        Ok(Self {
            name,
            extents,
            elem_bits,
        })
    }

    /// The array name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-dimension extents.
    pub fn extents(&self) -> &[i64] {
        &self.extents
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.extents.len()
    }

    /// Element width in bits.
    pub fn elem_bits(&self) -> u32 {
        self.elem_bits
    }

    /// Total number of elements.
    pub fn len(&self) -> u64 {
        self.extents.iter().product::<i64>() as u64
    }

    /// True for a degenerate zero-dimensional declaration.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Row-major linearization of a concrete index vector.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `indices` has the wrong rank or any index
    /// lies outside its extent.
    pub fn linearize(&self, indices: &[i64]) -> u64 {
        debug_assert_eq!(indices.len(), self.extents.len());
        let mut addr: i64 = 0;
        for (i, &extent) in indices.iter().zip(&self.extents) {
            debug_assert!(
                (0..extent).contains(i),
                "index {i} outside [0, {extent}) in array {}",
                self.name
            );
            addr = addr * extent + i;
        }
        addr as u64
    }
}

impl fmt::Display for ArrayDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "array {}", self.name)?;
        for e in &self.extents {
            write!(f, "[{e}]")?;
        }
        write!(f, " bits {}", self.elem_bits)
    }
}

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read of the array element.
    Read,
    /// A write to the array element.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Read => write!(f, "read"),
            Self::Write => write!(f, "write"),
        }
    }
}

/// Comparison operator in an access guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the comparison to two integers.
    pub fn holds(self, lhs: i64, rhs: i64) -> bool {
        match self {
            Self::Eq => lhs == rhs,
            Self::Ne => lhs != rhs,
            Self::Lt => lhs < rhs,
            Self::Le => lhs <= rhs,
            Self::Gt => lhs > rhs,
            Self::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Eq => "==",
            Self::Ne => "!=",
            Self::Lt => "<",
            Self::Le => "<=",
            Self::Gt => ">",
            Self::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// An affine guard `lhs op rhs` restricting when an access executes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Guard {
    /// Left-hand affine expression.
    pub lhs: AffineExpr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand affine expression.
    pub rhs: AffineExpr,
}

impl Guard {
    /// Creates a guard `lhs op rhs`.
    pub fn new(lhs: AffineExpr, op: CmpOp, rhs: AffineExpr) -> Self {
        Self { lhs, op, rhs }
    }

    /// Evaluates the guard for concrete iterator values.
    pub fn holds<F>(&self, env: F) -> bool
    where
        F: Fn(&str) -> Option<i64> + Copy,
    {
        self.op.holds(self.lhs.eval(env), self.rhs.eval(env))
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// One array access in a nest body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Access {
    array: String,
    kind: AccessKind,
    indices: Vec<AffineExpr>,
    guards: Vec<Guard>,
}

impl Access {
    /// Creates a read access `array[indices...]`.
    pub fn read(array: impl Into<String>, indices: impl IntoIterator<Item = AffineExpr>) -> Self {
        Self {
            array: array.into(),
            kind: AccessKind::Read,
            indices: indices.into_iter().collect(),
            guards: Vec::new(),
        }
    }

    /// Creates a write access `array[indices...]`.
    pub fn write(array: impl Into<String>, indices: impl IntoIterator<Item = AffineExpr>) -> Self {
        Self {
            kind: AccessKind::Write,
            ..Self::read(array, indices)
        }
    }

    /// Attaches a guard; the access only executes when *all* attached
    /// guards hold. May be called repeatedly to build a conjunction (the
    /// SUSAN circular mask needs `dx >= -w && dx <= w`).
    pub fn with_guard(mut self, guard: Guard) -> Self {
        self.guards.push(guard);
        self
    }

    /// The accessed array name.
    pub fn array(&self) -> &str {
        &self.array
    }

    /// Read or write.
    pub fn kind(&self) -> AccessKind {
        self.kind
    }

    /// Per-dimension affine index expressions.
    pub fn indices(&self) -> &[AffineExpr] {
        &self.indices
    }

    /// The conjunction of guards (empty = unconditional).
    pub fn guards(&self) -> &[Guard] {
        &self.guards
    }

    /// True when this is a read.
    pub fn is_read(&self) -> bool {
        self.kind == AccessKind::Read
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.array)?;
        for idx in &self.indices {
            write!(f, "[{idx}]")?;
        }
        for (i, g) in self.guards.iter().enumerate() {
            write!(f, "{} {g}", if i == 0 { " if" } else { " &&" })?;
        }
        Ok(())
    }
}

/// A perfectly nested loop with a flat body of accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNest {
    loops: Vec<Loop>,
    accesses: Vec<Access>,
}

impl LoopNest {
    /// Creates a nest; `loops[0]` is outermost.
    pub fn new(
        loops: impl IntoIterator<Item = Loop>,
        accesses: impl IntoIterator<Item = Access>,
    ) -> Self {
        Self {
            loops: loops.into_iter().collect(),
            accesses: accesses.into_iter().collect(),
        }
    }

    /// The loops, outermost first.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// The body accesses.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Nesting depth.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Looks up a loop by iterator name and returns its depth index.
    pub fn loop_index(&self, name: &str) -> Option<usize> {
        self.loops.iter().position(|l| l.name() == name)
    }

    /// Total number of innermost iterations.
    pub fn iteration_count(&self) -> u64 {
        self.loops.iter().map(Loop::trip_count).product()
    }

    /// Returns a nest with its loops re-ordered by `permutation`
    /// (`permutation[new_depth] = old_depth`); the body is unchanged.
    ///
    /// Rectangular bounds make every permutation well-formed, which is the
    /// "certain freedom in loop nest ordering ... still available" after the
    /// DTSE loop-transformation step that the data reuse step explores
    /// per ordering.
    ///
    /// # Panics
    ///
    /// Panics when `permutation` is not a permutation of `0..depth`.
    ///
    /// # Examples
    ///
    /// ```
    /// use datareuse_loopir::{Access, AffineExpr, Loop, LoopNest};
    ///
    /// let nest = LoopNest::new(
    ///     [Loop::new("i", 0, 3), Loop::new("j", 0, 7)],
    ///     [Access::read("A", [AffineExpr::var("i") + AffineExpr::var("j")])],
    /// );
    /// let swapped = nest.with_loop_order(&[1, 0]);
    /// assert_eq!(swapped.loops()[0].name(), "j");
    /// assert_eq!(swapped.iteration_count(), nest.iteration_count());
    /// ```
    pub fn with_loop_order(&self, permutation: &[usize]) -> LoopNest {
        assert_eq!(permutation.len(), self.loops.len(), "wrong permutation size");
        let mut seen = vec![false; self.loops.len()];
        for &p in permutation {
            assert!(
                p < self.loops.len() && !seen[p],
                "not a permutation of 0..depth"
            );
            seen[p] = true;
        }
        LoopNest {
            loops: permutation.iter().map(|&p| self.loops[p].clone()).collect(),
            accesses: self.accesses.clone(),
        }
    }

    /// Returns a nest with all loops normalized to step 1 from 0 and all
    /// index expressions and guards rewritten accordingly.
    ///
    /// A nest whose loops already all start at 0 with step 1 is its own
    /// normal form and is borrowed, so normalizing twice costs one
    /// rewrite, not two.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::borrow::Cow;
    /// use datareuse_loopir::{Access, AffineExpr, Loop, LoopNest};
    ///
    /// let nest = LoopNest::new(
    ///     [Loop::with_step("i", 4, 10, 2)],
    ///     [Access::read("A", [AffineExpr::var("i")])],
    /// );
    /// let norm = nest.normalized();
    /// assert!(matches!(norm, Cow::Owned(_)));
    /// assert!(matches!(norm.normalized(), Cow::Borrowed(_)));
    /// ```
    pub fn normalized(&self) -> Cow<'_, LoopNest> {
        if self.loops.iter().all(|l| l.lower() == 0 && l.step() == 1) {
            return Cow::Borrowed(self);
        }
        let mut loops = Vec::with_capacity(self.loops.len());
        let mut substs: Vec<(String, AffineExpr)> = Vec::new();
        for l in &self.loops {
            let (fresh, subst) = l.normalized();
            if l.step() != 1 || l.lower() != 0 {
                substs.push((l.name().to_string(), subst));
            }
            loops.push(fresh);
        }
        let rewrite = |e: &AffineExpr| {
            let mut out = e.clone();
            for (name, subst) in &substs {
                out = out.substitute(name, subst);
            }
            out
        };
        let accesses = self
            .accesses
            .iter()
            .map(|a| {
                Access {
                    array: a.array.clone(),
                    kind: a.kind,
                    indices: a.indices.iter().map(&rewrite).collect(),
                    guards: a
                        .guards
                        .iter()
                        .map(|g| Guard::new(rewrite(&g.lhs), g.op, rewrite(&g.rhs)))
                        .collect(),
                }
            })
            .collect();
        Cow::Owned(LoopNest { loops, accesses })
    }

    /// Validates iterator uniqueness and that every index expression only
    /// mentions bound iterators.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`BuildNestError`].
    pub fn validate(&self) -> Result<(), BuildNestError> {
        for (i, l) in self.loops.iter().enumerate() {
            if self.loops[..i].iter().any(|p| p.name() == l.name()) {
                return Err(BuildNestError::DuplicateIterator(l.name().to_string()));
            }
        }
        for a in &self.accesses {
            for expr in a
                .indices
                .iter()
                .chain(a.guards.iter().flat_map(|g| [&g.lhs, &g.rhs]))
            {
                for it in expr.iterators() {
                    if self.loop_index(it).is_none() {
                        return Err(BuildNestError::UnboundIterator {
                            array: a.array.clone(),
                            iterator: it.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for LoopNest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (d, l) in self.loops.iter().enumerate() {
            writeln!(f, "{:indent$}{l} {{", "", indent = d * 2)?;
        }
        for a in &self.accesses {
            writeln!(f, "{:indent$}{a};", "", indent = self.loops.len() * 2)?;
        }
        for d in (0..self.loops.len()).rev() {
            writeln!(f, "{:indent$}}}", "", indent = d * 2)?;
        }
        Ok(())
    }
}

/// A whole program: array declarations plus loop nests in execution order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    arrays: Vec<ArrayDecl>,
    nests: Vec<LoopNest>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an array declaration.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNestError::DuplicateArray`] when the name is taken.
    pub fn declare(&mut self, array: ArrayDecl) -> Result<(), BuildNestError> {
        if self.array(array.name()).is_some() {
            return Err(BuildNestError::DuplicateArray(array.name().to_string()));
        }
        self.arrays.push(array);
        Ok(())
    }

    /// Appends a loop nest, validating it against the declared arrays.
    ///
    /// # Errors
    ///
    /// Propagates any [`BuildNestError`] detected in the nest or its
    /// accesses (unknown array, dimension mismatch, reachable out-of-bounds
    /// index, ...).
    pub fn push_nest(&mut self, nest: LoopNest) -> Result<(), BuildNestError> {
        nest.validate()?;
        for a in nest.accesses() {
            let decl = self
                .array(a.array())
                .ok_or_else(|| BuildNestError::UnknownArray(a.array().to_string()))?;
            if a.indices().len() != decl.rank() {
                return Err(BuildNestError::DimensionMismatch {
                    array: a.array().to_string(),
                    declared: decl.rank(),
                    used: a.indices().len(),
                });
            }
            for (dim, (expr, &extent)) in a.indices().iter().zip(decl.extents()).enumerate() {
                let range = expr
                    .value_range(|n| {
                        nest.loops()
                            .iter()
                            .find(|l| l.name() == n)
                            .map(|l| (l.lower(), l.upper()))
                    })
                    .ok_or_else(|| BuildNestError::IndexOverflow {
                        array: a.array().to_string(),
                        dim,
                    })?;
                if range.0 < 0 || range.1 >= extent {
                    return Err(BuildNestError::OutOfBounds {
                        array: a.array().to_string(),
                        dim,
                        range,
                        extent,
                    });
                }
            }
        }
        self.nests.push(nest);
        Ok(())
    }

    /// Declared arrays.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Loop nests in execution order.
    pub fn nests(&self) -> &[LoopNest] {
        &self.nests
    }

    /// Looks up an array declaration by name.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name() == name)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in &self.arrays {
            writeln!(f, "{a};")?;
        }
        for n in &self.nests {
            writeln!(f)?;
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn me_like_nest() -> LoopNest {
        LoopNest::new(
            [Loop::new("j", 0, 15), Loop::new("k", 0, 7)],
            [Access::read(
                "Old",
                [AffineExpr::var("j") + AffineExpr::var("k")],
            )],
        )
    }

    #[test]
    fn loop_ranges_match_paper_notation() {
        let l = Loop::new("j", 2, 9);
        assert_eq!(l.range(), 8);
        assert_eq!(l.trip_count(), 8);
        assert_eq!(l.values().collect::<Vec<_>>(), (2..=9).collect::<Vec<_>>());
    }

    #[test]
    fn stepped_loop_normalization_rewrites_indices() {
        let nest = LoopNest::new(
            [Loop::with_step("i", 4, 10, 2)],
            [Access::read("A", [AffineExpr::var("i")])],
        );
        let norm = nest.normalized();
        let l = &norm.loops()[0];
        assert_eq!((l.lower(), l.upper(), l.step()), (0, 3, 1));
        let idx = &norm.accesses()[0].indices()[0];
        assert_eq!(idx.coeff("i"), 2);
        assert_eq!(idx.constant_part(), 4);
    }

    #[test]
    fn normalized_nest_is_borrowed() {
        let nest = me_like_nest();
        let norm = nest.normalized();
        assert!(matches!(norm, Cow::Borrowed(_)));
        assert!(std::ptr::eq(&*norm, &nest));
    }

    #[test]
    fn normalization_is_idempotent_for_offset_and_stepped_nests() {
        let offset = LoopNest::new(
            [Loop::new("j", 3, 18), Loop::new("k", 0, 7)],
            [
                Access::read("A", [AffineExpr::var("j") + AffineExpr::var("k")]).with_guard(
                    Guard::new(AffineExpr::var("j"), CmpOp::Ne, AffineExpr::constant(5)),
                ),
            ],
        );
        let stepped = LoopNest::new(
            [Loop::new("j", 0, 15), Loop::with_step("k", 1, 13, 3)],
            [Access::read(
                "A",
                [AffineExpr::term("j", 2) + AffineExpr::var("k")],
            )],
        );
        for nest in [offset, stepped] {
            let once = nest.normalized();
            assert!(matches!(once, Cow::Owned(_)), "{nest}");
            let twice = once.normalized();
            assert!(matches!(twice, Cow::Borrowed(_)), "{nest}");
            assert_eq!(*twice, *once);
            assert_eq!(once.iteration_count(), nest.iteration_count());
        }
    }

    #[test]
    fn empty_or_bad_loops_are_rejected() {
        assert!(matches!(
            Loop::try_new("i", 5, 4),
            Err(BuildNestError::EmptyLoop { .. })
        ));
        assert!(matches!(
            Loop::try_with_step("i", 0, 4, 0),
            Err(BuildNestError::BadStep { .. })
        ));
    }

    #[test]
    fn validate_catches_duplicate_and_unbound_iterators() {
        let dup = LoopNest::new([Loop::new("i", 0, 1), Loop::new("i", 0, 1)], []);
        assert!(matches!(
            dup.validate(),
            Err(BuildNestError::DuplicateIterator(_))
        ));
        let unbound = LoopNest::new(
            [Loop::new("i", 0, 1)],
            [Access::read("A", [AffineExpr::var("q")])],
        );
        assert!(matches!(
            unbound.validate(),
            Err(BuildNestError::UnboundIterator { .. })
        ));
    }

    #[test]
    fn program_bounds_checking_rejects_reachable_overflow() {
        let mut p = Program::new();
        p.declare(ArrayDecl::new("Old", [16], 8).unwrap()).unwrap();
        // j + k reaches 22 > 15.
        let err = p.push_nest(me_like_nest()).unwrap_err();
        assert!(matches!(err, BuildNestError::OutOfBounds { dim: 0, .. }));

        let mut ok = Program::new();
        ok.declare(ArrayDecl::new("Old", [23], 8).unwrap()).unwrap();
        ok.push_nest(me_like_nest()).unwrap();
        assert_eq!(ok.nests().len(), 1);
    }

    #[test]
    fn linearize_is_row_major() {
        let a = ArrayDecl::new("A", [3, 4], 16).unwrap();
        assert_eq!(a.linearize(&[0, 0]), 0);
        assert_eq!(a.linearize(&[1, 0]), 4);
        assert_eq!(a.linearize(&[2, 3]), 11);
        assert_eq!(a.len(), 12);
    }

    #[test]
    fn guards_evaluate() {
        let g = Guard::new(AffineExpr::var("i"), CmpOp::Ne, AffineExpr::constant(3));
        assert!(g.holds(|_| Some(2)));
        assert!(!g.holds(|_| Some(3)));
        assert_eq!(g.to_string(), "i != 3");
    }

    #[test]
    fn display_round_trips_visually() {
        let mut p = Program::new();
        p.declare(ArrayDecl::new("Old", [23], 8).unwrap()).unwrap();
        p.push_nest(me_like_nest()).unwrap();
        let s = p.to_string();
        assert!(s.contains("array Old[23] bits 8;"));
        assert!(s.contains("for j in 0..=15 {"));
        assert!(s.contains("read Old[j + k];"));
    }

    #[test]
    fn duplicate_array_rejected() {
        let mut p = Program::new();
        p.declare(ArrayDecl::new("A", [4], 8).unwrap()).unwrap();
        assert!(matches!(
            p.declare(ArrayDecl::new("A", [4], 8).unwrap()),
            Err(BuildNestError::DuplicateArray(_))
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut p = Program::new();
        p.declare(ArrayDecl::new("A", [4, 4], 8).unwrap()).unwrap();
        let nest = LoopNest::new(
            [Loop::new("i", 0, 3)],
            [Access::read("A", [AffineExpr::var("i")])],
        );
        assert!(matches!(
            p.push_nest(nest),
            Err(BuildNestError::DimensionMismatch { .. })
        ));
    }
}
