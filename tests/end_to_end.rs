//! Cross-crate integration tests: the full analyze → simulate → evaluate →
//! generate pipeline on every kernel of the workload library.

use datareuse::codegen::{run_schedule, verify_fig8_addressing, Strategy};
use datareuse::model::{max_reuse, CandidateSource, PairGeometry};
use datareuse::prelude::*;

/// Analytical exploration, Belady cross-check and Pareto sanity for one
/// signal of one program.
fn full_pipeline(program: &Program, array: &str) {
    let opts = ExploreOptions::default();
    let ex = explore_signal(program, array, &opts).expect("exploration succeeds");
    assert!(ex.c_tot > 0);
    let trace = read_addresses(program, array);
    assert_eq!(ex.c_tot, trace.len() as u64, "C_tot matches the trace");

    for c in &ex.candidates {
        assert!(c.is_useful());
        // The bypass-capable Belady optimum lower-bounds the upstream
        // traffic of ANY feasible scheme of the same size (plain OPT is
        // handicapped at tiny sizes by forced fill-on-miss).
        let bound = opt_simulate_bypass(&trace, c.size).misses();
        assert!(
            bound <= c.fills + c.bypasses,
            "{array}: candidate at size {} claims {} upstream, OPT needs {}",
            c.size,
            c.fills + c.bypasses,
            bound
        );
        let sim = opt_simulate(&trace, c.size);
        // Exact candidates must be close to the optimum.
        if c.exact && c.bypasses == 0 {
            assert!(
                (c.fills as f64) <= 2.0 * sim.fills as f64,
                "{array}: exact candidate at size {} too far from OPT",
                c.size
            );
        }
    }

    let tech = MemoryTechnology::new();
    let front = ex.pareto(&opts, &tech, &BitCount);
    assert!(!front.is_empty());
    assert_eq!(front[0].size, 0.0, "baseline opens the front");
    for w in front.windows(2) {
        assert!(w[1].size > w[0].size && w[1].power < w[0].power);
    }
    for p in &front {
        p.payload.0.validate().expect("front chains are well-formed");
    }
}

#[test]
fn motion_estimation_pipeline() {
    let me = MotionEstimation::SMALL;
    let p = me.program();
    full_pipeline(&p, MotionEstimation::OLD);
    full_pipeline(&p, MotionEstimation::NEW);
}

#[test]
fn susan_pipeline_interleaved_and_unfolded() {
    let s = Susan::SMALL;
    full_pipeline(&s.program(), Susan::IMAGE);
    full_pipeline(&s.unfolded_program(), Susan::IMAGE);
}

#[test]
fn conv_matmul_sobel_downsample_pipelines() {
    full_pipeline(
        &Conv2d {
            height: 12,
            width: 12,
            tap_rows: 3,
            tap_cols: 3,
        }
        .program(),
        Conv2d::IMAGE,
    );
    let mm = MatMul::square(8).program();
    full_pipeline(&mm, MatMul::A);
    full_pipeline(&mm, MatMul::B);
    full_pipeline(
        &Sobel {
            height: 12,
            width: 14,
        }
        .program(),
        Sobel::IMAGE,
    );
    full_pipeline(
        &Downsample {
            height: 16,
            width: 16,
            factor: 2,
        }
        .program(),
        Downsample::IMAGE,
    );
}

/// Half-pel motion compensation on a 32×32 frame (8×8 blocks, vector
/// range ±4): the worst-case vector sweep of an H.263-style decoder, with
/// four interpolation reads per pixel.
const MOTION_COMPENSATION_DR: &str = "array Ref[40][40] bits 8;

for by in 0..=3 {
  for bx in 0..=3 {
    for vy in 0..=7 {
      for vx in 0..=7 {
        for py in 0..=7 {
          for px in 0..=7 {
            read Ref[8*by + py + vy][8*bx + px + vx];
            read Ref[8*by + py + vy][8*bx + px + vx + 1];
            read Ref[8*by + py + vy + 1][8*bx + px + vx];
            read Ref[8*by + py + vy + 1][8*bx + px + vx + 1];
          }
        }
      }
    }
  }
}
";

#[test]
fn motion_compensation_merges_interpolation_taps() {
    // The four half-pel taps are translations of one another: the merged
    // copy-candidate must serve all of them from one window buffer, and
    // its analytic reuse factor must track the Belady optimum.
    let p = parse_program(MOTION_COMPENSATION_DR).expect("parses");
    full_pipeline(&p, "Ref");
    let ex = explore_signal(&p, "Ref", &ExploreOptions::default()).expect("explores");
    let merged: Vec<_> = ex
        .candidates
        .iter()
        .filter(|c| matches!(c.source, CandidateSource::MergedFootprint { .. }))
        .collect();
    assert!(!merged.is_empty(), "taps should merge");
    let trace = read_addresses(&p, "Ref");
    for c in merged {
        // 4 taps × 4×4 blocks × 8×8 vectors × 8×8 pixels.
        assert_eq!(c.c_tot, 262_144);
        let sim = opt_simulate(&trace, c.size);
        let rel = (c.reuse_factor() - sim.reuse_factor()).abs() / sim.reuse_factor();
        assert!(rel < 0.25, "size {}: {rel:.3} off Belady", c.size);
    }
}

/// Belady's MIN at `capacity`, returning its fill stream: the addresses
/// requested from the next level up, in order. Cascading fill streams
/// simulates a multi-level chain.
fn belady_fill_stream(trace: &[u64], capacity: u64) -> Vec<u64> {
    use std::collections::{BTreeMap, HashMap};
    // Eviction key: the next use, or (for dead data) a value past every
    // position so it leaves first.
    let mut next = vec![u64::MAX; trace.len()];
    let mut last: HashMap<u64, u64> = HashMap::new();
    for (i, &addr) in trace.iter().enumerate().rev() {
        next[i] = last.insert(addr, i as u64).unwrap_or(u64::MAX - addr);
    }
    let mut resident: HashMap<u64, u64> = HashMap::new();
    let mut by_key: BTreeMap<u64, u64> = BTreeMap::new();
    let mut stream = Vec::new();
    for (i, &addr) in trace.iter().enumerate() {
        if let Some(old_key) = resident.remove(&addr) {
            by_key.remove(&old_key);
        } else {
            if resident.len() as u64 >= capacity {
                let (_, victim) = by_key.pop_last().expect("non-empty buffer");
                resident.remove(&victim);
            }
            stream.push(addr);
        }
        resident.insert(addr, next[i]);
        by_key.insert(next[i], addr);
    }
    stream
}

#[test]
fn eq3_level_independence_on_motion_estimation() {
    // The eq. 3 idealization: each level's fill count is independent of
    // the other levels. Build a two-level chain from the footprint
    // candidates and compare cascaded vs standalone traffic.
    let p = MotionEstimation::SMALL.program();
    let levels = footprint_levels(&p.nests()[0], 1).expect("Old levels");
    assert!(levels.len() >= 2);
    let inner = levels.last().unwrap();
    let outer = &levels[levels.len() - 2];
    let trace = read_addresses(&p, MotionEstimation::OLD);
    let inner_fills = belady_fill_stream(&trace, inner.size);
    let outer_fills = belady_fill_stream(&inner_fills, outer.size).len() as u64;
    let inner_alone = opt_simulate(&trace, inner.size);
    let outer_alone = opt_simulate(&trace, outer.size);
    // The processor-facing level sees the raw stream: exactly equal.
    assert_eq!(inner_fills.len() as u64, inner_alone.fills);
    // The outer level sees the inner's fill stream. Under optimal
    // replacement the cascade can only help (hits removed from the stream
    // compress reuse distances), so eq. 3's independence is a *safe*
    // idealization: the chain never does worse than the per-level C_j.
    assert!(outer_fills <= outer_alone.fills);
    let rel = (outer_alone.fills - outer_fills) as f64 / outer_alone.fills as f64;
    assert!(rel < 0.10, "independence off by {rel:.3}");
}

#[test]
fn fir_anti_diagonal_pipeline_and_schedule() {
    // x[n − t + T − 1] is the anti-diagonal orientation: b = 1, c = −1.
    let fir = Fir {
        outputs: 64,
        taps: 8,
    };
    let p = fir.program();
    full_pipeline(&p, Fir::SAMPLES);
    full_pipeline(&p, Fir::COEFFS);

    let geom = PairGeometry::from_access(&p.nests()[0], 0, 0, 1).expect("pair (n, t)");
    assert_eq!(
        geom.class,
        datareuse::model::ReuseClass::Vector {
            bp: 1,
            cp: 1,
            anti: true
        }
    );
    let point = max_reuse(&geom).expect("reuse");
    // A_Max(anti) = c'(kR − b') + b' = taps − 1 + 1 = taps.
    assert_eq!(point.size, 8);
    let trace = read_addresses(&p, Fir::SAMPLES);
    assert_eq!(opt_simulate(&trace, point.size).fills, point.fills);
    let report = run_schedule(&p, 0, 0, 0, 1, Strategy::MaxReuse).expect("runs");
    assert_eq!(report.value_errors, 0);
    assert_eq!(report.fills, point.fills);
    assert!(report.max_occupancy <= point.size);
}

#[test]
fn susan_merged_candidate_matches_simulation_tightly() {
    let s = Susan::SMALL;
    let program = s.program();
    let ex = explore_signal(&program, Susan::IMAGE, &ExploreOptions::default()).expect("explores");
    let merged = ex
        .candidates
        .iter()
        .find(|c| matches!(c.source, CandidateSource::MergedFootprint { .. }))
        .expect("merged row-band candidate exists");
    let trace = read_addresses(&program, Susan::IMAGE);
    let sim = opt_simulate(&trace, merged.size);
    let rel = (merged.reuse_factor() - sim.reuse_factor()).abs() / sim.reuse_factor();
    assert!(rel < 0.05, "merged candidate {rel:.3} off the Belady optimum");
}

#[test]
fn me_section_6_3_numbers_hold_in_the_full_kernel() {
    // Inside the full QCIF kernel the paper's inner-nest analysis gives
    // b' = c' = 1, A_Max = n(n-1) = 56, F_RMax = 128/23.
    let p = MotionEstimation::QCIF.program();
    let geom = PairGeometry::from_access(&p.nests()[0], 1, 3, 5).expect("pair (i4, i6)");
    let point = max_reuse(&geom).expect("carries reuse");
    assert_eq!(point.size, 56);
    assert!((point.reuse_factor() - 128.0 / 23.0).abs() < 1e-12);
    assert_eq!(point.c_tot, MotionEstimation::QCIF.old_reads());
}

#[test]
fn generated_schedules_are_exact_across_kernels() {
    // (program, access, outer, inner) triples with known reuse pairs.
    let me = MotionEstimation::SMALL.program();
    let conv = Conv2d {
        height: 10,
        width: 10,
        tap_rows: 3,
        tap_cols: 3,
    }
    .program();
    let cases: &[(&Program, usize, usize, usize)] = &[
        (&me, 1, 3, 5),   // ME Old over (i4, i6)
        (&conv, 0, 1, 3), // conv image over (x, j)
        (&conv, 0, 0, 2), // conv image over (y, i)
    ];
    for &(program, access, outer, inner) in cases {
        let geom = PairGeometry::from_access(&program.nests()[0], access, outer, inner)
            .expect("geometry");
        let point = max_reuse(&geom).expect("reuse exists");
        let report =
            run_schedule(program, 0, access, outer, inner, Strategy::MaxReuse).expect("runs");
        assert_eq!(report.value_errors, 0);
        assert_eq!(report.fills, point.fills);
        assert!(report.max_occupancy <= point.size);
    }
}

#[test]
fn fig8_template_addressing_is_sound_on_me() {
    let me = MotionEstimation::SMALL.program();
    let r = verify_fig8_addressing(&me, 0, 1, 3, 5).expect("covered geometry");
    assert_eq!(r.collisions, 0);
    assert!(r.reads_checked > 0);
}

#[test]
fn dsl_roundtrip_through_display() {
    // Program's Display emits valid DSL: print → parse → identical IR.
    for program in [
        MotionEstimation::SMALL.program(),
        Susan::SMALL.program(),
        MatMul::square(4).program(),
        Downsample {
            height: 8,
            width: 8,
            factor: 2,
        }
        .program(),
    ] {
        let text = program.to_string();
        let reparsed = parse_program(&text).expect("display output parses");
        assert_eq!(program, reparsed, "roundtrip changed the IR:\n{text}");
    }
}

#[test]
fn loop_order_freedom_changes_the_exploration() {
    // DTSE step 2 leaves loop-order freedom; the exploration must reflect
    // it: B's best reuse differs between ijk and jki orders.
    let tech = MemoryTechnology::new();
    let opts = ExploreOptions::default();
    let mut best = Vec::new();
    for order in [
        datareuse::kernels::MatMulOrder::Ijk,
        datareuse::kernels::MatMulOrder::Jki,
    ] {
        let mm = datareuse::kernels::MatMul {
            n: 8,
            m: 8,
            p: 8,
            order,
        };
        let ex = explore_signal(&mm.program(), MatMul::B, &opts).expect("explores");
        let front = ex.pareto(&opts, &tech, &BitCount);
        best.push(front.last().expect("front").power);
    }
    assert_ne!(best[0], best[1]);
}

#[test]
fn hardware_caches_lose_to_compile_time_placement() {
    // The paper's motivation: a hardware cache "only uses knowledge about
    // previous accesses". At the analytical candidate size, Belady (which
    // our schedule realizes) must beat LRU and FIFO on ME.
    let p = MotionEstimation::SMALL.program();
    let geom = PairGeometry::from_access(&p.nests()[0], 1, 3, 5).expect("pair");
    let point = max_reuse(&geom).expect("reuse");
    let trace = read_addresses(&p, MotionEstimation::OLD);
    let opt = opt_simulate(&trace, point.size);
    assert_eq!(opt.fills, point.fills);
    assert!(lru_simulate(&trace, point.size).misses() > opt.misses());
    assert!(fifo_simulate(&trace, point.size).misses() > opt.misses());
}
