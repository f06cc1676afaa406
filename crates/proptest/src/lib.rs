//! Deterministic property-based testing with zero external dependencies.
//!
//! A small in-repo replacement for the `proptest` crate, built on a
//! SplitMix64 generator with *fixed seeds*: every run of the test suite
//! exercises the identical case sequence, so CI and local runs agree
//! bit-for-bit and a failure is reproducible from its printed `(seed,
//! case)` pair alone.
//!
//! # Usage
//!
//! ```
//! use datareuse_proptest::{check, prop_assert, prop_assert_eq, Config};
//!
//! check("addition_commutes", &Config::default(), |rng| {
//!     (rng.i64_in(-100, 100), rng.i64_in(-100, 100))
//! }, |&(a, b)| {
//!     prop_assert_eq!(a + b, b + a);
//!     prop_assert!(a + b >= a.min(b) * 2 - 200, "bounds sanity");
//!     Ok(())
//! });
//! ```
//!
//! # Reproducing a failure
//!
//! A failing property panics with the shrunk counterexample, the seed and
//! the case index. Re-run just that case with
//! `DATAREUSE_PROPTEST_SEED=<seed> DATAREUSE_PROPTEST_CASES=<n>` set, or
//! paste the shrunk value into a named `#[test]` (the convention used in
//! `tests/properties.rs` for previously recorded regressions).
//!
//! # Shrinking
//!
//! When a case fails, the harness greedily applies [`Shrink::shrinks`]
//! candidates while they keep failing, bounded by
//! [`Config::max_shrink_steps`]. Integers shrink toward zero, vectors
//! shrink by removing elements and shrinking members, tuples shrink one
//! component at a time — the same shapes `proptest` produced for the
//! regression seeds this repo recorded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;

/// Golden-ratio increment of SplitMix64.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Deterministic SplitMix64 pseudo-random generator.
///
/// Passes through every 64-bit state exactly once; plenty for test-case
/// generation and far simpler than anything crates.io offers.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value (SplitMix64 output function).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u64` in `[lo, hi]` (inclusive).
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        // Rejection-free modulo is fine at test-case scale: the bias over
        // spans < 2^32 is < 2^-32.
        lo + self.next_u64() % (span + 1)
    }

    /// Uniform `i64` in `[lo, hi]` (inclusive).
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = hi.wrapping_sub(lo) as u64;
        lo.wrapping_add(self.u64_in(0, span) as i64)
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive).
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// Uniform `u32` in `[lo, hi]` (inclusive).
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_in(lo as u64, hi as u64) as u32
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A vector with length in `[min_len, max_len]`, elements drawn by `f`.
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| f(self)).collect()
    }
}

/// Produces simpler variants of a failing value, tried in order.
pub trait Shrink: Sized {
    /// Candidate simplifications, simplest first. Must not contain the
    /// value itself, and must be finitely productive (each candidate is
    /// strictly "smaller"), so the greedy shrink loop terminates.
    fn shrinks(&self) -> Vec<Self>;
}

macro_rules! shrink_unsigned {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrinks(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                for c in [0, v / 2, v.saturating_sub(1)] {
                    if c != v && !out.contains(&c) {
                        out.push(c);
                    }
                }
                out
            }
        }
    )*};
}
shrink_unsigned!(u8, u16, u32, u64, usize);

macro_rules! shrink_signed {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrinks(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                for c in [0, v / 2, v - v.signum(), v.checked_abs().unwrap_or(v)] {
                    if c != v && !out.contains(&c) {
                        out.push(c);
                    }
                }
                out
            }
        }
    )*};
}
shrink_signed!(i8, i16, i32, i64, isize);

impl Shrink for bool {
    fn shrinks(&self) -> Vec<Self> {
        if *self { vec![false] } else { Vec::new() }
    }
}

impl Shrink for f64 {
    fn shrinks(&self) -> Vec<Self> {
        let v = *self;
        let mut out = Vec::new();
        for c in [0.0, v / 2.0, v.trunc()] {
            if c != v && !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }
}

impl Shrink for String {
    fn shrinks(&self) -> Vec<Self> {
        if self.is_empty() {
            return Vec::new();
        }
        // The first half, cut at a character boundary: a byte cut inside
        // a multi-byte character would panic while reporting a failure.
        let mut half = self.len() / 2;
        while !self.is_char_boundary(half) {
            half -= 1;
        }
        vec![String::new(), self[..half].to_string()]
    }
}

impl<T: Shrink + Clone> Shrink for Vec<T> {
    fn shrinks(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let n = self.len();
        if n == 0 {
            return out;
        }
        // Drop whole chunks first (fast length reduction)...
        out.push(self[..n / 2].to_vec());
        out.push(self[n / 2..].to_vec());
        // ...then single elements...
        for i in 0..n.min(24) {
            let mut v = self.clone();
            v.remove(i);
            out.push(v);
        }
        // ...then shrink members in place (first candidate only, to keep
        // the fan-out bounded).
        for i in 0..n.min(24) {
            if let Some(s) = self[i].shrinks().into_iter().next() {
                let mut v = self.clone();
                v[i] = s;
                out.push(v);
            }
        }
        out
    }
}

macro_rules! shrink_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Shrink + Clone),+> Shrink for ($($name,)+) {
            fn shrinks(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for c in self.$idx.shrinks() {
                        let mut t = self.clone();
                        t.$idx = c;
                        out.push(t);
                    }
                )+
                out
            }
        }
    };
}
shrink_tuple!(A: 0);
shrink_tuple!(A: 0, B: 1);
shrink_tuple!(A: 0, B: 1, C: 2);
shrink_tuple!(A: 0, B: 1, C: 2, D: 3);
shrink_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
shrink_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
shrink_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u64,
    /// Base seed; each case `i` derives its own stream from `(seed, i)`.
    pub seed: u64,
    /// Upper bound on greedy shrink iterations after a failure.
    pub max_shrink_steps: u64,
}

/// The default seed. Every suite in the workspace runs from this value
/// unless `DATAREUSE_PROPTEST_SEED` overrides it.
pub const DEFAULT_SEED: u64 = 0xDA7A_2EB5_E000_2002;

impl Default for Config {
    fn default() -> Self {
        Self {
            cases: 256,
            seed: DEFAULT_SEED,
            max_shrink_steps: 2_048,
        }
    }
}

impl Config {
    /// A config running `cases` cases with the default seed.
    pub fn with_cases(cases: u64) -> Self {
        Self {
            cases,
            ..Self::default()
        }
    }

    /// Applies `DATAREUSE_PROPTEST_SEED` / `DATAREUSE_PROPTEST_CASES`
    /// environment overrides, for reproducing or stressing.
    fn resolved(&self) -> Self {
        let mut cfg = *self;
        if let Some(seed) = env_u64("DATAREUSE_PROPTEST_SEED") {
            cfg.seed = seed;
        }
        if let Some(cases) = env_u64("DATAREUSE_PROPTEST_CASES") {
            cfg.cases = cases;
        }
        cfg
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let v = std::env::var(name).ok()?;
    let v = v.trim();
    let parsed = if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    Some(parsed.unwrap_or_else(|_| panic!("{name}={v} is not a u64")))
}

/// Per-case generator stream: decorrelates the case index through one
/// SplitMix64 round so neighbouring cases share no structure.
fn case_rng(seed: u64, case: u64) -> Rng {
    let mut r = Rng::new(seed ^ case.wrapping_mul(GOLDEN));
    r.next_u64();
    r
}

/// Runs `prop` over `cfg.cases` values drawn by `gen`, shrinking and
/// panicking on the first failure.
///
/// `prop` returns `Err(reason)` (usually via [`prop_assert!`] /
/// [`prop_assert_eq!`]) when the property is violated.
///
/// # Panics
///
/// Panics with the shrunk counterexample, seed and case index when the
/// property fails.
pub fn check<T, G, P>(name: &str, cfg: &Config, gen: G, prop: P)
where
    T: Debug + Clone + Shrink,
    G: Fn(&mut Rng) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    let cfg = cfg.resolved();
    for case in 0..cfg.cases {
        let value = gen(&mut case_rng(cfg.seed, case));
        if let Err(first_err) = prop(&value) {
            let (shrunk, err, steps) = shrink_failure(value, first_err, &prop, &cfg);
            panic!(
                "property `{name}` failed (seed {:#x}, case {case}, {steps} shrink steps)\n\
                 counterexample: {shrunk:?}\n{err}",
                cfg.seed
            );
        }
    }
}

/// Greedy shrink: repeatedly move to the first candidate that still
/// fails, until none does or the step budget runs out.
fn shrink_failure<T, P>(mut value: T, mut err: String, prop: &P, cfg: &Config) -> (T, String, u64)
where
    T: Debug + Clone + Shrink,
    P: Fn(&T) -> Result<(), String>,
{
    let mut steps = 0u64;
    'outer: while steps < cfg.max_shrink_steps {
        for candidate in value.shrinks() {
            steps += 1;
            if steps >= cfg.max_shrink_steps {
                break 'outer;
            }
            if let Err(e) = prop(&candidate) {
                value = candidate;
                err = e;
                continue 'outer;
            }
        }
        break; // no candidate fails: locally minimal
    }
    (value, err, steps)
}

/// Asserts a condition inside a property, returning `Err` with the
/// formatted message (and the stringified condition) on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed at {}:{}: {}",
                file!(), line!(), stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed at {}:{}: {}\n  {}",
                file!(), line!(), stringify!($cond), format!($($fmt)+)
            ));
        }
    };
}

/// Asserts equality inside a property, returning `Err` with both values
/// on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed at {}:{}: {} == {}\n  left: {:?}\n  right: {:?}",
                file!(), line!(), stringify!($left), stringify!($right), l, r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed at {}:{}: {} == {}\n  left: {:?}\n  right: {:?}\n  {}",
                file!(), line!(), stringify!($left), stringify!($right), l, r,
                format!($($fmt)+)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // SplitMix64 with seed 1234567: first outputs from the reference
        // implementation (Steele, Lea & Flood / xoshiro.di.unimi.it).
        let mut r = Rng::new(1234567);
        assert_eq!(r.next_u64(), 0x599e_d017_fb08_fc85);
        assert_eq!(r.next_u64(), 0x2c73_f084_5854_0fa5);
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_case() {
        let a: Vec<u64> = (0..8).map(|c| case_rng(7, c).next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|c| case_rng(7, c).next_u64()).collect();
        assert_eq!(a, b);
        let c: Vec<u64> = (0..8).map(|c| case_rng(8, c).next_u64()).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_are_inclusive_and_in_bounds() {
        let mut r = Rng::new(42);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2_000 {
            let v = r.i64_in(-3, 3);
            assert!((-3..=3).contains(&v));
            seen_lo |= v == -3;
            seen_hi |= v == 3;
            let u = r.u64_in(5, 9);
            assert!((5..=9).contains(&u));
        }
        assert!(seen_lo && seen_hi, "range endpoints never drawn");
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let runs = std::cell::Cell::new(0u64);
        check(
            "counts",
            &Config::with_cases(100),
            |rng| rng.i64_in(0, 10),
            |v| {
                runs.set(runs.get() + 1);
                prop_assert!((0..=10).contains(v));
                Ok(())
            },
        );
        assert_eq!(runs.get(), 100);
    }

    #[test]
    fn failing_property_shrinks_to_minimal() {
        // Property "v < 50" over [0, 1000]: the minimal counterexample is
        // exactly 50 and greedy integer shrinking must find it.
        let result = std::panic::catch_unwind(|| {
            check(
                "shrinks",
                &Config::with_cases(256),
                |rng| rng.i64_in(0, 1000),
                |&v| {
                    prop_assert!(v < 50, "v = {v}");
                    Ok(())
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("counterexample: 50"), "got: {msg}");
    }

    #[test]
    fn tuple_shrinking_minimizes_each_component() {
        let result = std::panic::catch_unwind(|| {
            check(
                "tuple",
                &Config::with_cases(256),
                |rng| (rng.i64_in(0, 40), rng.i64_in(0, 40)),
                |&(a, b)| {
                    prop_assert!(a + b < 25);
                    Ok(())
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        // Greedy shrink drives the sum to exactly 25 with one coordinate 0.
        assert!(
            msg.contains("(0, 25)") || msg.contains("(25, 0)"),
            "got: {msg}"
        );
    }

    #[test]
    fn vec_shrinking_reduces_length() {
        let result = std::panic::catch_unwind(|| {
            check(
                "vec",
                &Config::with_cases(64),
                |rng| rng.vec(0, 30, |r| r.u64_in(0, 9)),
                |v: &Vec<u64>| {
                    prop_assert!(v.len() < 5, "len {}", v.len());
                    Ok(())
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        // A minimal failing vector has exactly 5 (shrunk-to-zero) elements.
        assert!(msg.contains("[0, 0, 0, 0, 0]"), "got: {msg}");
    }

    #[test]
    fn shrink_candidates_never_contain_self() {
        for v in [-9i64, -1, 0, 1, 2, 17] {
            assert!(!v.shrinks().contains(&v));
        }
        for v in [0u64, 1, 2, 99] {
            assert!(!v.shrinks().contains(&v));
        }
    }

    #[test]
    fn string_shrinking_cuts_at_character_boundaries() {
        assert_eq!("\\€\n".to_string().shrinks(), ["", "\\"]);
        assert_eq!("γγ".to_string().shrinks(), ["", "γ"]);
        assert_eq!("😀".to_string().shrinks(), ["", ""]);
    }
}
