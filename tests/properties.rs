//! Property-based tests over the core invariants, driven by the in-repo
//! deterministic harness (`datareuse-proptest`).
//!
//! The central property is the paper's own validation, mechanized: for
//! *arbitrary* affine double nests, the analytical maximum-reuse point
//! must coincide with Belady-optimal simulation, and the generated copy
//! schedule must realize it exactly.
//!
//! Every property body is a plain function over the generated tuple, so
//! recorded counterexamples become named `#[test]`s that pin the exact
//! case forever (see the `regression_*` tests at the bottom — both were
//! shrunk failures recorded by the previous proptest setup).

use datareuse_proptest::{check, prop_assert, prop_assert_eq, Config, Rng};

use datareuse::codegen::{run_schedule, verify_fig8_addressing, Strategy as CopyStrategy};
use datareuse::model::{max_reuse, partial_sweep, PairGeometry};
use datareuse::prelude::*;

/// A random double nest `for j in 0..jr { for k in 0..kr { read A[b*j + c*k + off] } }`
/// with the offset chosen so indices stay in bounds.
fn gen_double_nest(rng: &mut Rng) -> (i64, i64, i64, i64) {
    (
        rng.i64_in(2, 12),
        rng.i64_in(2, 10),
        rng.i64_in(-4, 4),
        rng.i64_in(-4, 4),
    )
}

/// Builds the program for a `(jr, kr, b, c)` tuple, or `None` when the
/// tuple is outside the generator's domain (shrunk candidates may be).
fn double_nest_program((jr, kr, b, c): (i64, i64, i64, i64)) -> Option<Program> {
    if jr < 2 || kr < 2 {
        return None;
    }
    let min = [b * (jr - 1), 0].into_iter().min().unwrap()
        + [c * (kr - 1), 0].into_iter().min().unwrap();
    let max = [b * (jr - 1), 0].into_iter().max().unwrap()
        + [c * (kr - 1), 0].into_iter().max().unwrap();
    let off = -min;
    let extent = max - min + 1;
    let src = format!(
        "array A[{extent}]; for j in 0..{jr} {{ for k in 0..{kr} {{ read A[{b}*j + {c}*k + {off}]; }} }}"
    );
    Some(parse_program(&src).expect("generated program parses"))
}

/// Analytical `A_Max`/fills coincide with the Belady optimum for
/// arbitrary coefficients, including negative and gcd-reducible ones.
fn prop_max_reuse_equals_belady(case: &(i64, i64, i64, i64)) -> Result<(), String> {
    let Some(program) = double_nest_program(*case) else {
        return Ok(());
    };
    let geom = PairGeometry::from_access(&program.nests()[0], 0, 0, 1).unwrap();
    if let Some(point) = max_reuse(&geom) {
        let trace = read_addresses(&program, "A");
        prop_assert_eq!(point.c_tot, trace.len() as u64);
        let sim = opt_simulate(&trace, point.size);
        prop_assert_eq!(point.fills, sim.fills, "fills mismatch for geometry {:?}", geom);
    }
    Ok(())
}

/// The executable copy schedule realizes the closed forms: exact fill
/// counts, occupancy within `A`, and byte-exact data.
fn prop_schedule_realizes_the_closed_forms(case: &(i64, i64, i64, i64)) -> Result<(), String> {
    let Some(program) = double_nest_program(*case) else {
        return Ok(());
    };
    let geom = PairGeometry::from_access(&program.nests()[0], 0, 0, 1).unwrap();
    if let Some(point) = max_reuse(&geom) {
        let report = run_schedule(&program, 0, 0, 0, 1, CopyStrategy::MaxReuse).unwrap();
        prop_assert_eq!(report.value_errors, 0);
        prop_assert_eq!(report.fills, point.fills);
        prop_assert!(
            report.max_occupancy <= point.size,
            "occupancy {} > A {} for {:?}",
            report.max_occupancy,
            point.size,
            geom
        );
    }
    Ok(())
}

/// Partial-reuse points: sizes and reuse factors increase with γ, the
/// traffic accounting is conserved, and no point claims less upstream
/// traffic than the Belady optimum of the same size.
fn prop_partial_points_are_consistent(case: &(i64, i64, i64, i64)) -> Result<(), String> {
    let Some(program) = double_nest_program(*case) else {
        return Ok(());
    };
    let geom = PairGeometry::from_access(&program.nests()[0], 0, 0, 1).unwrap();
    let trace = read_addresses(&program, "A");
    for bypass in [false, true] {
        let points = partial_sweep(&geom, bypass);
        for w in points.windows(2) {
            prop_assert!(w[1].size >= w[0].size);
            prop_assert!(w[1].reuse_factor() >= w[0].reuse_factor() - 1e-12);
        }
        for p in &points {
            prop_assert!(p.fills + p.bypasses <= p.c_tot);
            // Bypass-capable Belady bounds every feasible scheme.
            let sim = opt_simulate_bypass(&trace, p.size);
            prop_assert!(
                sim.misses() <= p.fills + p.bypasses,
                "overclaim at size {} ({:?})",
                p.size,
                p.kind
            );
        }
    }
    Ok(())
}

/// The Fig. 8 modulo addressing never overwrites a live element on
/// arbitrary canonical-orientation nests.
fn prop_fig8_addressing_is_collision_free(case: &(i64, i64, i64, i64)) -> Result<(), String> {
    let &(jr, kr, b, c) = case;
    if jr < 2 || kr < 2 || b < 0 || c < 0 {
        return Ok(());
    }
    let extent = b * (jr - 1) + c * (kr - 1) + 1;
    let src = format!(
        "array A[{extent}]; for j in 0..{jr} {{ for k in 0..{kr} {{ read A[{b}*j + {c}*k]; }} }}"
    );
    let program = parse_program(&src).unwrap();
    if let Ok(report) = verify_fig8_addressing(&program, 0, 0, 0, 1) {
        prop_assert_eq!(
            report.collisions,
            0,
            "collisions for b={}, c={}, jr={}, kr={}",
            b,
            c,
            jr,
            kr
        );
    }
    Ok(())
}

/// The partial schedule executes with the predicted traffic for every
/// valid γ.
fn prop_partial_schedule_matches(case: &(i64, i64, i64, i64)) -> Result<(), String> {
    let Some(program) = double_nest_program(*case) else {
        return Ok(());
    };
    let geom = PairGeometry::from_access(&program.nests()[0], 0, 0, 1).unwrap();
    for p in partial_sweep(&geom, true) {
        let datareuse::model::PointKind::PartialBypass { gamma } = p.kind else {
            continue;
        };
        let report =
            run_schedule(&program, 0, 0, 0, 1, CopyStrategy::PartialBypass { gamma }).unwrap();
        prop_assert_eq!(report.value_errors, 0);
        prop_assert_eq!(report.fills, p.fills, "γ={}", gamma);
        prop_assert_eq!(report.bypasses, p.bypasses, "γ={}", gamma);
        prop_assert!(report.max_occupancy <= p.size, "γ={}", gamma);
    }
    Ok(())
}

/// The acceptance bar for the reproduction: the Belady-vs-analytical
/// property runs on at least 256 generated double nests, deterministically.
#[test]
fn max_reuse_equals_belady() {
    check(
        "max_reuse_equals_belady",
        &Config::with_cases(256),
        gen_double_nest,
        prop_max_reuse_equals_belady,
    );
}

#[test]
fn schedule_realizes_the_closed_forms() {
    check(
        "schedule_realizes_the_closed_forms",
        &Config::with_cases(96),
        gen_double_nest,
        prop_schedule_realizes_the_closed_forms,
    );
}

#[test]
fn partial_points_are_consistent() {
    check(
        "partial_points_are_consistent",
        &Config::with_cases(96),
        gen_double_nest,
        prop_partial_points_are_consistent,
    );
}

#[test]
fn fig8_addressing_is_collision_free_generally() {
    check(
        "fig8_addressing_is_collision_free_generally",
        &Config::with_cases(96),
        |rng| {
            (
                rng.i64_in(2, 12),
                rng.i64_in(2, 10),
                rng.i64_in(0, 4),
                rng.i64_in(0, 4),
            )
        },
        prop_fig8_addressing_is_collision_free,
    );
}

#[test]
fn partial_schedule_matches() {
    check(
        "partial_schedule_matches",
        &Config::with_cases(96),
        gen_double_nest,
        prop_partial_schedule_matches,
    );
}

/// LRU stack distance of every access, in Mattson's formulation: the
/// 0-based depth of its address in the recency stack, `None` on first
/// touch. An access hits an LRU buffer of capacity `c` iff its depth is
/// below `c`.
fn mattson_stack_depths(addrs: &[u64]) -> Vec<Option<usize>> {
    let mut stack: Vec<u64> = Vec::new(); // most recent first
    addrs
        .iter()
        .map(|&a| {
            let depth = stack.iter().position(|&s| s == a);
            if let Some(d) = depth {
                stack.remove(d);
            }
            stack.insert(0, a);
            depth
        })
        .collect()
}

/// One-pass Mattson stack distances equal direct LRU simulation at
/// every capacity, and Belady lower-bounds every policy.
#[test]
fn simulators_agree() {
    check(
        "simulators_agree",
        &Config::with_cases(64),
        |rng| rng.vec(1, 300, |r| r.u64_in(0, 23)),
        |addrs: &Vec<u64>| {
            if addrs.is_empty() {
                return Ok(());
            }
            let depths = mattson_stack_depths(addrs);
            for cap in [1u64, 2, 3, 5, 8, 13, 24] {
                let lru = lru_simulate(addrs, cap);
                let stack_misses = depths
                    .iter()
                    .filter(|d| d.is_none_or(|d| d as u64 >= cap))
                    .count() as u64;
                prop_assert_eq!(stack_misses, lru.misses());
                let opt = opt_simulate(addrs, cap);
                prop_assert!(opt.misses() <= lru.misses());
                prop_assert!(opt.misses() <= fifo_simulate(addrs, cap).misses());
                // Bypass can only help.
                let byp = opt_simulate_bypass(addrs, cap);
                prop_assert!(byp.hits >= opt.hits);
                prop_assert!(byp.fills <= opt.fills);
            }
            Ok(())
        },
    );
}

/// Belady miss counts are monotone in capacity (no Belady anomaly).
#[test]
fn opt_has_no_anomaly() {
    check(
        "opt_has_no_anomaly",
        &Config::with_cases(64),
        |rng| rng.vec(1, 200, |r| r.u64_in(0, 15)),
        |addrs: &Vec<u64>| {
            if addrs.is_empty() {
                return Ok(());
            }
            let mut prev = u64::MAX;
            for cap in 1..=16u64 {
                let m = opt_simulate(addrs, cap).misses();
                prop_assert!(m <= prev);
                prev = m;
            }
            Ok(())
        },
    );
}

/// Pareto fronts contain no dominated points and keep every
/// non-dominated input.
#[test]
fn pareto_front_is_exactly_the_non_dominated_set() {
    check(
        "pareto_front_is_exactly_the_non_dominated_set",
        &Config::with_cases(64),
        |rng| rng.vec(1, 60, |r| (r.u32_in(0, 49), r.u32_in(0, 49))),
        |pts: &Vec<(u32, u32)>| {
            if pts.is_empty() {
                return Ok(());
            }
            let points: Vec<ParetoPoint<usize>> = pts
                .iter()
                .enumerate()
                .map(|(i, &(s, p))| ParetoPoint::new(s as f64, p as f64, i))
                .collect();
            let front = pareto_front(points.clone());
            for f in &front {
                prop_assert!(!points.iter().any(|q| q.dominates(f)));
            }
            for q in &points {
                if !points.iter().any(|r| r.dominates(q)) {
                    // q is non-dominated: some front point matches its coords.
                    prop_assert!(front.iter().any(|f| f.size == q.size && f.power == q.power));
                }
            }
            Ok(())
        },
    );
}

/// DSL roundtrip: Display output of a random strided window program
/// reparses to the identical IR.
#[test]
fn dsl_roundtrip() {
    check(
        "dsl_roundtrip",
        &Config::with_cases(64),
        |rng| {
            (
                rng.i64_in(2, 8),
                rng.i64_in(2, 8),
                rng.i64_in(1, 3),
                rng.i64_in(0, 3),
                rng.i64_in(1, 3),
            )
        },
        |&(jr, kr, step, b, c)| {
            if jr < 2 || kr < 2 || step < 1 || b < 0 || c < 1 {
                return Ok(());
            }
            let extent = b * (jr - 1) * step + c * (kr - 1) + 1;
            let src = format!(
                "array A[{extent}] bits 16;
                 for j in 0..{top} step {step} {{ for k in 0..{kr} {{ read A[{b}*j + {c}*k]; }} }}",
                top = (jr - 1) * step + 1
            );
            let program = parse_program(&src).unwrap();
            let reparsed = parse_program(&program.to_string()).unwrap();
            prop_assert_eq!(&program, &reparsed);
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Named regressions: counterexamples recorded (and shrunk) by the former
// proptest setup in `tests/properties.proptest-regressions`. Kept as
// explicit cases so they run on every `cargo test` forever.
// ---------------------------------------------------------------------

/// Former seed `3fba0fcc…`: the degenerate `jr=2, kr=2, b=1, c=0` nest —
/// the smallest geometry where reuse is carried purely by the inner loop
/// (`c' = 0`, `A_Max = 1`) and every iteration beyond the first `j` sweep
/// is a hit.
#[test]
fn regression_degenerate_nest_c_zero() {
    let case = (2, 2, 1, 0);
    prop_max_reuse_equals_belady(&case).unwrap();
    prop_schedule_realizes_the_closed_forms(&case).unwrap();
    prop_partial_points_are_consistent(&case).unwrap();
    prop_partial_schedule_matches(&case).unwrap();
}

/// Former seed `d306cf77…`: the negative-coefficient single-extent case
/// `A[-1*j + 1]` over a 2×2 space (`jr=2, kr=2, b=-1, c=0`) — the
/// anti-diagonal normalization must not claim reuse the schedule cannot
/// realize on an array of extent 2.
#[test]
fn regression_negative_coefficient_single_extent() {
    let case = (2, 2, -1, 0);
    // The recorded program, byte for byte.
    let program = double_nest_program(case).unwrap();
    assert_eq!(
        program.nests()[0].accesses()[0].indices()[0].to_string(),
        "-j + 1"
    );
    prop_max_reuse_equals_belady(&case).unwrap();
    prop_schedule_realizes_the_closed_forms(&case).unwrap();
    prop_partial_points_are_consistent(&case).unwrap();
    prop_partial_schedule_matches(&case).unwrap();
}
