//! Cross-validation of the symbolic reuse-profile engine against the
//! enumeration analysis and the trace simulators, on randomly generated
//! affine nests of arbitrary depth.
//!
//! The contract under test: wherever [`symbolic_profile`] accepts a nest,
//! its closed forms must agree *exactly* with the `footprint_levels`
//! enumeration (same candidates, byte for byte) and with trace-derived
//! ground truth (`C_tot` = trace length, footprint = distinct addresses,
//! per-depth sizes = distinct addresses of the inner sub-nest). Any
//! disagreement is either a symbolic bug or a simulator
//! bug — both get fixed and pinned as a named `regression_*` test below.

use datareuse_proptest::{check, prop_assert, prop_assert_eq, Config, Rng};

use std::sync::atomic::{AtomicU64, Ordering};

use datareuse::kernels::load_kernel;
use datareuse::loopir::{trace_len, AccessKind};
use datareuse::model::{
    footprint_levels, symbolic_profile, LevelCandidate, SymbolicFallback, SymbolicProfile,
};
use datareuse::prelude::*;
use datareuse::trace::{distinct_count, opt_simulate, SimResult};

/// One generated loop: `(trip_count, coeff_dim0, coeff_dim1)`. A nest is
/// 1–4 of these; the access is 1-D when every `coeff_dim1` is zero.
type Case = Vec<(i64, i64, i64)>;

fn gen_nest(rng: &mut Rng) -> Case {
    rng.vec(1, 4, |r| {
        (r.i64_in(2, 6), r.i64_in(-3, 3), r.i64_in(-3, 3))
    })
}

const NAMES: [&str; 4] = ["i0", "i1", "i2", "i3"];

/// The DSL index expression of dimension `d` over `loops`, with `off`
/// added to keep every address in bounds (zero-coefficient terms emitted
/// too, matching the `tests/properties.rs` generator idiom).
fn index_expr(loops: &[(i64, i64, i64)], skip: usize, d: usize, off: i64) -> String {
    let mut terms: Vec<String> = loops
        .iter()
        .enumerate()
        .map(|(i, &(_, b, c))| format!("{}*{}", if d == 0 { b } else { c }, NAMES[skip + i]))
        .collect();
    terms.push(off.to_string());
    terms.join(" + ")
}

/// Per-dimension `(offset, extent)` so indices stay in `[0, extent)`.
fn dim_bounds(loops: &[(i64, i64, i64)], d: usize) -> (i64, i64) {
    let (mut lo, mut hi) = (0i64, 0i64);
    for &(t, b, c) in loops {
        let coeff = if d == 0 { b } else { c };
        if coeff < 0 {
            lo += coeff * (t - 1);
        } else {
            hi += coeff * (t - 1);
        }
    }
    (-lo, hi - lo + 1)
}

/// Builds the program for a case, or `None` when the case is outside the
/// generator's domain (shrunk candidates may be).
fn nest_program(case: &Case) -> Option<Program> {
    nest_program_from(case, case.as_slice(), "")
}

/// Builds a program iterating `loops` but indexing with the bounds of
/// `full` — used to materialize the inner sub-nest of a depth while
/// keeping the same array geometry. `guard` is a DSL guard suffix for
/// the read (e.g. `" if i0 != 1"`), empty for none.
fn nest_program_from(full: &Case, loops: &[(i64, i64, i64)], guard: &str) -> Option<Program> {
    if full.is_empty() || full.len() > 4 {
        return None;
    }
    if full
        .iter()
        .any(|&(t, b, c)| !(2..=6).contains(&t) || b.abs() > 3 || c.abs() > 3)
    {
        return None;
    }
    let two_d = full.iter().any(|&(_, _, c)| c != 0);
    let (off0, ext0) = dim_bounds(full, 0);
    let mut src = if two_d {
        let (_, ext1) = dim_bounds(full, 1);
        format!("array A[{ext0}][{ext1}];\n")
    } else {
        format!("array A[{ext0}];\n")
    };
    let skip = full.len() - loops.len();
    for (i, &(t, _, _)) in loops.iter().enumerate() {
        src += &format!("for {} in 0..{t} {{ ", NAMES[skip + i]);
    }
    if two_d {
        let (off1, _) = dim_bounds(full, 1);
        src += &format!(
            "read A[{}][{}]{guard};",
            index_expr(loops, skip, 0, off0),
            index_expr(loops, skip, 1, off1)
        );
    } else {
        src += &format!("read A[{}]{guard};", index_expr(loops, skip, 0, off0));
    }
    src += &" }".repeat(loops.len());
    Some(parse_program(&src).expect("generated program parses"))
}

/// Wherever the symbolic engine accepts a nest, its candidates are byte
/// for byte the enumeration's, and its headline numbers match the trace.
fn prop_symbolic_matches_enumeration(case: &Case) -> Result<(), String> {
    let Some(program) = nest_program(case) else {
        return Ok(());
    };
    let nest = &program.nests()[0];
    let levels: Vec<LevelCandidate> =
        footprint_levels(nest, 0).map_err(|e| format!("enumeration failed: {e:?}"))?;
    match symbolic_profile(nest, 0) {
        Ok(profile) => {
            prop_assert_eq!(
                profile.level_candidates(),
                levels,
                "candidate mismatch for {:?}",
                case
            );
            let trace = read_addresses(&program, "A");
            prop_assert_eq!(profile.c_tot(), trace.len() as u64);
            prop_assert_eq!(profile.total_footprint(), distinct_count(&trace));
            for l in profile.levels() {
                prop_assert!(l.fills <= profile.c_tot(), "fills > C_tot at {:?}", l);
                prop_assert!(
                    l.fills >= profile.total_footprint(),
                    "fills below compulsory at {:?}",
                    l
                );
            }
        }
        Err(fallback) => {
            // A refusal is fine (that's what the fallback is for), but it
            // must be one the dispatch can act on, and the enumeration
            // path must have covered the nest (asserted above).
            prop_assert!(
                !matches!(fallback, SymbolicFallback::BadAccess),
                "access 0 exists, BadAccess is wrong"
            );
        }
    }
    Ok(())
}

/// Per-depth sizes are the distinct-address counts of the materialized
/// inner sub-nests — trace-level ground truth independent of both the
/// symbolic closed forms and the enumeration.
fn prop_depth_sizes_match_subnest_traces(case: &Case) -> Result<(), String> {
    let Some(program) = nest_program(case) else {
        return Ok(());
    };
    let Ok(profile) = symbolic_profile(&program.nests()[0], 0) else {
        return Ok(());
    };
    for level in profile.levels() {
        if level.depth == case.len() {
            // Empty inner sub-nest: the footprint is the single element
            // the (now constant) index denotes.
            prop_assert_eq!(level.size, 1, "deepest level of {:?}", case);
            continue;
        }
        let sub = nest_program_from(case, &case[level.depth..], "")
            .expect("sub-nest of a valid case is valid");
        let sub_trace = read_addresses(&sub, "A");
        prop_assert_eq!(
            level.size,
            distinct_count(&sub_trace),
            "depth {} footprint mismatch for {:?}",
            level.depth,
            case
        );
    }
    Ok(())
}

/// Adding a non-separable guard (one coupling two iterators) always
/// demotes a nest to the fallback path, whatever its shape — the
/// dispatch boundary cannot silently widen. Single-loop nests have no
/// second iterator to couple and are skipped.
fn prop_guarded_nests_always_fall_back(case: &Case) -> Result<(), String> {
    let Some(program) = nest_program(case) else {
        return Ok(());
    };
    drop(program);
    if case.len() < 2 {
        return Ok(());
    }
    let guarded = nest_program_from(case, case, " if i0 != i1").expect("in-domain case");
    prop_assert_eq!(
        symbolic_profile(&guarded.nests()[0], 0),
        Err(SymbolicFallback::Guarded)
    );
    Ok(())
}

/// A guarded-nest case: loops `(lower, step, trip, coeff)` of a 1-D read,
/// guards `(access, iterator, coeff, constant, op, form)` and the constant
/// shift of a second, translated read. `iterator == -1` makes a constant
/// guard; `form` puts the iterator on the left, on the right, or on both
/// sides.
type GuardedCase = (Vec<(i64, i64, i64, i64)>, Vec<(i64, i64, i64, i64, i64, i64)>, i64);

fn gen_guarded(rng: &mut Rng) -> GuardedCase {
    let loops = rng.vec(1, 3, |r| {
        (r.i64_in(-3, 3), r.i64_in(1, 3), r.i64_in(2, 5), r.i64_in(-2, 2))
    });
    let depth = loops.len() as i64;
    let guards = rng.vec(0, 4, |r| {
        let coeff = if r.u64_in(0, 1) == 0 { r.i64_in(-3, -1) } else { r.i64_in(1, 3) };
        (
            r.i64_in(0, 1),
            r.i64_in(-1, depth - 1),
            coeff,
            r.i64_in(-8, 8),
            r.i64_in(0, 5),
            r.i64_in(0, 2),
        )
    });
    (loops, guards, rng.i64_in(0, 2))
}

/// The DSL of one separable guard, or `None` outside the domain.
fn guard_text(depth: usize, guard: &(i64, i64, i64, i64, i64, i64)) -> Option<String> {
    let &(_, it, coeff, constant, op, form) = guard;
    let op = *["==", "!=", "<", "<=", ">", ">="].get(usize::try_from(op).ok()?)?;
    if coeff == 0 || !(-1..depth as i64).contains(&it) || !(0..=2).contains(&form) {
        return None;
    }
    if it < 0 {
        return Some(format!("{coeff} {op} {constant}"));
    }
    let name = NAMES[it as usize];
    Some(match form {
        0 => format!("{coeff}*{name} {op} {constant}"),
        1 => format!("{constant} {op} {coeff}*{name}"),
        // The iterator on both sides: (coeff + 1)·x vs x + constant.
        _ => format!("{}*{name} {op} {name} + {constant}", coeff + 1),
    })
}

/// Builds the one-read and the two-read (translated) programs of a
/// guarded case, or `None` outside the generator's domain.
fn guarded_programs(case: &GuardedCase) -> Option<(Program, Program)> {
    let (loops, guards, shift) = case;
    if loops.is_empty()
        || loops.len() > 3
        || !(0..=2).contains(shift)
        || loops.iter().any(|&(lo, step, trip, c)| {
            lo.abs() > 3 || !(1..=3).contains(&step) || !(2..=5).contains(&trip) || c.abs() > 2
        })
    {
        return None;
    }
    let (mut min, mut max) = (0i64, 0i64);
    for &(lo, step, trip, c) in loops {
        let (a, b) = (c * lo, c * (lo + step * (trip - 1)));
        min += a.min(b);
        max += a.max(b);
    }
    let mut index: Vec<String> = loops
        .iter()
        .enumerate()
        .map(|(i, &(_, _, _, c))| format!("{c}*{}", NAMES[i]))
        .collect();
    index.push((-min).to_string());
    let index = index.join(" + ");
    let mut conds: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for g in guards {
        let access = usize::try_from(g.0).ok().filter(|&a| a < 2)?;
        conds[access].push(guard_text(loops.len(), g)?);
    }
    let read = |access: usize, offset: i64| {
        let cond = &conds[access];
        let guard = if cond.is_empty() {
            String::new()
        } else {
            format!(" if {}", cond.join(" && "))
        };
        format!("read A[{index} + {offset}]{guard}; ")
    };
    let build = |body: String| {
        let mut src = format!("array A[{}];\n", max - min + 1 + shift);
        for (i, &(lo, step, trip, _)) in loops.iter().enumerate() {
            let hi = lo + step * (trip - 1);
            src += &format!("for {} in {lo}..={hi} step {step} {{ ", NAMES[i]);
        }
        src += &body;
        src += &" }".repeat(loops.len());
        parse_program(&src).expect("generated program parses")
    };
    Some((build(read(0, 0)), build(read(0, 0) + &read(1, *shift))))
}

/// Cases of [`prop_separable_guards_match_enumeration`] the symbolic
/// engine accepted, so the property cannot pass vacuously.
static SEPARABLE_HITS: AtomicU64 = AtomicU64::new(0);

/// Separable guards (at most one iterator each) keep a nest on the
/// symbolic path: its candidates are the enumeration's, for the access
/// group and for the merged translated pair, and its `C_tot` is the
/// trace oracle's read count.
fn prop_separable_guards_match_enumeration(case: &GuardedCase) -> Result<(), String> {
    let Some((single, pair)) = guarded_programs(case) else {
        return Ok(());
    };
    let nest = &single.nests()[0];
    let enumerated = footprint_levels(nest, 0).map_err(|e| format!("enumeration failed: {e:?}"))?;
    let symbolic = symbolic_profile(nest, 0);
    let mut runs = vec![(&single, symbolic.clone(), enumerated)];
    let pair_nest = &pair.nests()[0];
    let merged = datareuse::model::footprint_levels_merged(pair_nest, &[0, 1])
        .map_err(|e| format!("merged enumeration failed: {e:?}"))?;
    runs.push((&pair, SymbolicProfile::analyze(pair_nest, &[0, 1]), merged));
    for (program, symbolic, enumerated) in runs {
        match symbolic {
            Ok(profile) => {
                prop_assert_eq!(
                    profile.level_candidates(),
                    enumerated,
                    "candidate mismatch for {:?}",
                    case
                );
                prop_assert_eq!(
                    profile.c_tot(),
                    trace_len(program, "A", TraceFilter::READS),
                    "C_tot mismatch for {:?}",
                    case
                );
                SEPARABLE_HITS.fetch_add(1, Ordering::Relaxed);
            }
            Err(fallback) => prop_assert!(
                !matches!(fallback, SymbolicFallback::Guarded | SymbolicFallback::BadAccess),
                "separable guards refused with {:?} for {:?}",
                fallback,
                case
            ),
        }
    }
    Ok(())
}

/// The acceptance bar: symbolic == simulated on at least 256 generated
/// affine nests, deterministically.
#[test]
fn symbolic_matches_enumeration_on_random_nests() {
    check(
        "symbolic_matches_enumeration_on_random_nests",
        &Config::with_cases(256),
        gen_nest,
        prop_symbolic_matches_enumeration,
    );
}

#[test]
fn depth_sizes_match_subnest_traces() {
    check(
        "depth_sizes_match_subnest_traces",
        &Config::with_cases(128),
        gen_nest,
        prop_depth_sizes_match_subnest_traces,
    );
}

#[test]
fn guarded_nests_always_fall_back() {
    check(
        "guarded_nests_always_fall_back",
        &Config::with_cases(64),
        gen_nest,
        prop_guarded_nests_always_fall_back,
    );
}

#[test]
fn separable_guards_match_enumeration() {
    const CASES: u64 = 256;
    check(
        "separable_guards_match_enumeration",
        &Config::with_cases(CASES),
        gen_guarded,
        prop_separable_guards_match_enumeration,
    );
    // Two runs (group and merged pair) per case. Sparse strided value
    // sets still fall back; at least a quarter of the runs must not.
    let hits = SEPARABLE_HITS.load(Ordering::Relaxed);
    assert!(hits >= CASES / 2, "only {hits} symbolic hits over {CASES} guarded cases");
}

/// The paper's SUSAN kernels: every mask-row group and the merged row
/// band stay on the symbolic path (the mask guards are all bounds on
/// `d`), with the enumeration path's exact candidates and `C_tot`.
#[test]
fn susan_groups_stay_symbolic_and_match_enumeration() {
    for kernel in ["susan", "susan-small", "susan-unfolded"] {
        let program = load_kernel(kernel).unwrap();
        let mut c_tot = 0;
        for nest in program.nests() {
            let mut seen = Vec::new();
            for (i, acc) in nest.accesses().iter().enumerate() {
                if seen.contains(&acc.indices()) {
                    continue;
                }
                seen.push(acc.indices());
                let profile = symbolic_profile(nest, i)
                    .unwrap_or_else(|f| panic!("{kernel} group {i} fell back: {f}"));
                assert_eq!(profile.level_candidates(), footprint_levels(nest, i).unwrap());
                c_tot += profile.c_tot();
            }
            if nest.accesses().len() >= 2 {
                let members: Vec<usize> = (0..nest.accesses().len()).collect();
                let merged = SymbolicProfile::analyze(nest, &members)
                    .unwrap_or_else(|f| panic!("{kernel} merged group fell back: {f}"));
                assert_eq!(
                    merged.level_candidates(),
                    datareuse::model::footprint_levels_merged(nest, &members).unwrap()
                );
            }
        }
        assert_eq!(c_tot, trace_len(&program, "image", TraceFilter::READS), "{kernel}");
    }
}

/// The einsum lowerer only emits conforming affine nests, so every read
/// group of every generated corpus kernel, and every merged group of
/// translated reads, takes the symbolic path. A fallback here is a
/// regression in the lowerer or in the dispatch boundary.
#[test]
fn every_corpus_kernel_stays_symbolic() {
    let corpus = datareuse::kernels::corpus();
    assert_eq!(corpus.len(), 36, "the default-seed corpus has 36 kernels");
    for entry in corpus {
        let program = load_kernel(&entry.name).unwrap();
        for nest in program.nests() {
            for array in program.arrays() {
                let reads: Vec<usize> = nest
                    .accesses()
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.array() == array.name() && a.kind() == AccessKind::Read)
                    .map(|(i, _)| i)
                    .collect();
                for &i in &reads {
                    if let Err(f) = symbolic_profile(nest, i) {
                        panic!("{}: read {i} of `{}` fell back: {f}", entry.name, array.name());
                    }
                }
                if reads.len() >= 2 {
                    if let Err(f) = SymbolicProfile::analyze(nest, &reads) {
                        panic!("{}: merged `{}` group fell back: {f}", entry.name, array.name());
                    }
                }
            }
        }
    }
}

/// The fastest of `k` timed runs of `f`, in nanoseconds.
fn min_of_k_ns<T>(k: usize, mut f: impl FnMut() -> T) -> u128 {
    (0..k)
        .map(|_| {
            let started = std::time::Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_nanos()
        })
        .min()
        .expect("k > 0")
}

/// The symbolic engine's headline claim: a closed-form reuse profile is
/// at least 10x faster than materializing the address trace and running
/// one Belady point at the first level's capacity. Min-of-k timings keep
/// scheduler noise out; the measured gap is three orders of magnitude.
#[test]
fn symbolic_profile_is_at_least_10x_faster_than_belady_simulation() {
    // A depth-3 rolling-band nest (32768 reads over a 53x16 array, reuse
    // carried by `i1`) and the motion-estimation reference frame.
    let depth3 = parse_program(
        "array A[53][16];
         for i1 in 0..16 { for i3 in 0..16 { for i5 in 0..8 {
           for i6 in 0..16 { read A[2*i1 + i3 + i5][i6]; }
         } } }",
    )
    .unwrap();
    let me = MotionEstimation::SMALL.program();
    for (name, program, array, access) in [
        ("depth3", &depth3, "A", 0),
        ("me-small", &me, MotionEstimation::OLD, 1),
    ] {
        let nest = &program.nests()[0];
        let profile = symbolic_profile(nest, access).expect("conforming");
        let capacity = profile.level_candidates()[0].size;
        let symbolic = min_of_k_ns(15, || symbolic_profile(nest, access));
        let simulated = min_of_k_ns(5, || {
            let trace = read_addresses(program, array);
            opt_simulate(&trace, capacity)
        });
        assert!(
            simulated >= 10 * symbolic,
            "{name}: simulation {simulated} ns is not >=10x symbolic {symbolic} ns"
        );
    }
}

// ---------------------------------------------------------------------
// Named regressions: edge cases the harness (and its development) pinned.
// ---------------------------------------------------------------------

/// Zero-trip loops are unconstructible by design: `lower > upper` and
/// `step < 1` are rejected at the IR boundary, so no analysis or
/// simulator ever sees an empty iteration range — the "zero-trip"
/// disagreement class is closed at the type level.
#[test]
fn regression_zero_trip_loops_are_unconstructible() {
    assert!(matches!(
        Loop::try_new("i", 5, 4),
        Err(datareuse::loopir::BuildNestError::EmptyLoop { .. })
    ));
    assert!(matches!(
        Loop::try_with_step("i", 0, 4, 0),
        Err(datareuse::loopir::BuildNestError::BadStep { .. })
    ));
}

/// The zero-fill `F_R` edge: a candidate that never fills reports
/// `F_R = C_tot` (the paper's `b=c=0` footnote), and an empty trace's
/// [`SimResult`] reports the copied count (zero) rather than dividing by
/// zero — both sides of the symbolic-vs-simulated comparison agree on
/// the convention.
#[test]
fn regression_zero_fill_reuse_factor_is_c_tot() {
    let candidate = LevelCandidate {
        depth: 1,
        size: 4,
        fills: 0,
        c_tot: 128,
        exact: true,
    };
    assert_eq!(candidate.reuse_factor(), 128.0);
    let empty: SimResult = opt_simulate(&[], 4);
    assert_eq!(empty.fills, 0);
    assert_eq!(empty.reuse_factor(), 0.0);
}

/// Boundary iterations: single-step carriers (`trip = 2`) with negative
/// coefficients — the smallest geometries where consecutive-footprint
/// overlap, normalization and the sub-nest traces agree only if every
/// off-by-one is absent. All three properties must hold.
#[test]
fn regression_boundary_single_step_carriers() {
    for case in [
        vec![(2, 1, 0), (2, 1, 0)],
        vec![(2, -1, 0), (2, 1, 0)],
        vec![(2, -3, 0), (2, -1, 0), (2, 1, 0)],
        vec![(2, 1, -1), (2, 0, 1)],
    ] {
        prop_symbolic_matches_enumeration(&case).unwrap();
        prop_depth_sizes_match_subnest_traces(&case).unwrap();
        prop_guarded_nests_always_fall_back(&case).unwrap();
    }
}

/// The all-zero-coefficient access (`A[off]` touched every iteration):
/// footprint 1 at every depth, fills 1 at depth 1, and `C_tot` hits —
/// the degenerate case where `fills == footprint == 1`.
#[test]
fn regression_constant_index_is_a_single_hot_element() {
    let case = vec![(3, 0, 0), (4, 0, 0)];
    let program = nest_program(&case).unwrap();
    let profile = symbolic_profile(&program.nests()[0], 0).unwrap();
    assert_eq!(profile.total_footprint(), 1);
    assert_eq!(profile.c_tot(), 12);
    let levels = profile.level_candidates();
    assert_eq!((levels[0].size, levels[0].fills), (1, 1));
    prop_symbolic_matches_enumeration(&case).unwrap();
}

/// A separable guard over a nest whose executions exceed `u64` must
/// report [`SymbolicFallback::Overflow`], never a wrapped count.
#[test]
fn regression_guarded_count_beyond_u64_overflows() {
    let program = parse_program(
        "array A[10];
         for a in 0..1099511627776 { for b in 0..1099511627776 { for c in 0..10 {
           read A[c] if c != 3;
         } } }",
    )
    .unwrap();
    assert_eq!(
        symbolic_profile(&program.nests()[0], 0),
        Err(SymbolicFallback::Overflow)
    );
}
