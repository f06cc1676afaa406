//! The in-process workloads, `explore-conforming` and `explore-guarded`.
//!
//! One caller, closed loop: each op is `datareuse_server::ops::execute`
//! — the call behind `datareuse explore/pareto/report --json` — plus the
//! `to_string()` of its result, checked against its golden digest.

use std::time::{Duration, Instant};

use datareuse_core::{
    dedupe_candidates, explore_program, explore_signal, footprint_levels, footprint_levels_merged,
    max_reuse, parallel_map, partial_sweep, resolve_threads, symbolic_profile, AccessGroup,
    CandidatePoint, ExplorationReport, ExploreOptions, PairGeometry, SignalExploration,
    SymbolicProfile,
};
use datareuse_kernels::load_kernel;
use datareuse_loopir::{AccessKind, Program};
use datareuse_memmodel::{evaluate_chain, pareto_front, BitCount, MemoryTechnology, ParetoPoint};
use datareuse_obs::Json;
use datareuse_server::ops::default_array;
use datareuse_server::protocol::{fnv1a, Op};

use crate::check::{parse_op, run_op, Golden};
use crate::gen::{self, Kind, Request, Sequence};
use crate::trace::Tracer;

/// One distinct (kernel, op) of a workload with its expected digest.
pub struct Entry {
    pub kernel: String,
    pub op: Op,
    pub digest: u64,
}

pub struct InProcess {
    pub entries: Vec<Entry>,
    pub seq: Sequence,
}

/// Blocks pre-generated per workload: far more than a run can use at
/// today's speed, so a faster program still runs for the full window.
const CONFORMING_BLOCKS: usize = 600;
const GUARDED_BLOCKS: usize = 50;

impl InProcess {
    /// Builds the op table and the seeded sequence of `workload`.
    pub fn new(workload: &str, seed: u64, golden: &Golden) -> Result<InProcess, String> {
        let (kernels, seq) = match workload {
            "explore-conforming" => {
                let kernels = gen::conforming_kernels();
                let seq = gen::conforming_sequence(seed, kernels.len(), CONFORMING_BLOCKS);
                (kernels, seq)
            }
            "explore-guarded" => (
                gen::GUARDED_MIX
                    .iter()
                    .map(|(k, _)| k.to_string())
                    .collect(),
                gen::guarded_sequence(seed, GUARDED_BLOCKS),
            ),
            other => return Err(format!("{other} is not an in-process workload")),
        };
        let mut entries = Vec::new();
        for kernel in &kernels {
            for kind in Kind::ALL {
                entries.push(Entry {
                    kernel: kernel.clone(),
                    op: parse_op(&Request::builtin(kernel, kind).line),
                    digest: golden.row(kernel, kind)?.digest,
                });
            }
        }
        Ok(InProcess { entries, seq })
    }

    pub fn kernels(&self) -> Vec<String> {
        let mut ks: Vec<String> = self.entries.iter().map(|e| e.kernel.clone()).collect();
        ks.dedup();
        ks
    }

    /// Runs the untimed warm-up prefix; returns the failures.
    pub fn warm_up(&self) -> u64 {
        self.seq
            .warmup
            .iter()
            .filter(|&&i| !self.correct(i, &run_op(&self.entries[i].op)))
            .count() as u64
    }

    fn correct(&self, entry: usize, output: &Result<String, String>) -> bool {
        output
            .as_ref()
            .is_ok_and(|o| fnv1a(o.as_bytes()) == self.entries[entry].digest)
    }

    /// The timed phase: whole blocks until `window` has elapsed and at
    /// least `min_ops` ops ran, or until `max_ops` ops ran.
    pub fn run(&self, window: Duration, min_ops: usize, max_ops: usize) -> Phase {
        let mut phase = Phase::start(max_ops.min(self.capacity()));
        let deadline = phase.started + window;
        'blocks: for block in &self.seq.blocks {
            if Instant::now() >= deadline && phase.samples.len() >= min_ops {
                break;
            }
            for &i in block {
                if phase.samples.len() >= max_ops {
                    break 'blocks;
                }
                let t0 = Instant::now();
                let output = run_op(&self.entries[i].op);
                let ns = t0.elapsed().as_nanos() as u64;
                phase.samples.push((i, ns));
                if !self.correct(i, &output) {
                    phase.failed += 1;
                }
            }
        }
        phase.finish();
        phase
    }

    fn capacity(&self) -> usize {
        self.seq.blocks.iter().map(Vec::len).sum()
    }

    /// The traced phase. Each op runs twice, alternating which goes
    /// first so that host drift and warm CPU caches fall on both alike:
    /// untraced, timed into `samples`, and under an `op` span that
    /// reproduces the calls `ops` makes. A separate `decomp` tree then
    /// times the sub-layer calls on the same input.
    pub fn run_traced(
        &self,
        tracer: &mut Tracer,
        window: Duration,
        counts: &mut DecompCounts,
    ) -> Phase {
        let mut phase = Phase::start(0);
        let deadline = phase.started + window;
        'blocks: for block in &self.seq.blocks {
            for &i in block {
                if Instant::now() >= deadline {
                    break 'blocks;
                }
                let n = phase.samples.len();
                tracer.set_request(n as u64 + 1);
                let mut input = None;
                for traced in [n % 2 == 1, n % 2 == 0] {
                    let output = if traced {
                        let (output, decomp) = traced_op(tracer, &self.entries[i].op);
                        input = decomp;
                        output
                    } else {
                        let t0 = Instant::now();
                        let output = run_op(&self.entries[i].op);
                        phase.samples.push((i, t0.elapsed().as_nanos() as u64));
                        output
                    };
                    if !self.correct(i, &output) {
                        phase.failed += 1;
                    }
                }
                if let Some((program, ex)) = input {
                    decompose(tracer, &program, &ex, counts);
                }
            }
        }
        phase.finish();
        phase
    }
}

/// What one timed phase of this process measured.
pub struct Phase {
    started: Instant,
    cpu0: f64,
    alloc0: u64,
    /// `(entry index, latency ns)` per untraced op.
    pub samples: Vec<(usize, u64)>,
    pub failed: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub alloc_bytes: u64,
}

impl Phase {
    fn start(capacity: usize) -> Phase {
        Phase {
            samples: Vec::with_capacity(capacity),
            cpu0: crate::stats::cpu_seconds(std::process::id()).unwrap_or(0.0),
            alloc0: datareuse_obs::alloc_snapshot().bytes_allocated,
            started: Instant::now(),
            failed: 0,
            wall_s: 0.0,
            cpu_s: 0.0,
            alloc_bytes: 0,
        }
    }

    fn finish(&mut self) {
        self.wall_s = self.started.elapsed().as_secs_f64();
        self.cpu_s = crate::stats::cpu_seconds(std::process::id()).unwrap_or(0.0) - self.cpu0;
        self.alloc_bytes = datareuse_obs::alloc_snapshot().bytes_allocated - self.alloc0;
    }

    pub fn latencies_ns(&self) -> Vec<u64> {
        self.samples.iter().map(|&(_, ns)| ns).collect()
    }
}

fn load_span(kernel: &str) -> &'static str {
    if kernel.contains('[') {
        "exprlang.lower"
    } else {
        "kernels.load"
    }
}

fn resolve(t: &mut Tracer, kernel: &str, array: Option<&str>) -> Result<(Program, String), String> {
    let program = t.span(load_span(kernel), |_| load_kernel(kernel))?;
    let array = match array {
        Some(a) => a.to_string(),
        None => t
            .span("server.ops.default_array", |_| default_array(&program))
            .ok_or("program has no read accesses")?,
    };
    Ok((program, array))
}

/// One op under an `op` span, reproducing the calls of
/// `datareuse_server::ops::{explore, pareto, report}` plus the final
/// `to_string()`. Returns the output and the exploration of the op's
/// signal (the default array for `report`) for the decomposition.
pub fn traced_op(
    t: &mut Tracer,
    op: &Op,
) -> (Result<String, String>, Option<(Program, SignalExploration)>) {
    let opts = ExploreOptions::default();
    let tech = MemoryTechnology::new();
    let result = t.span(
        "op",
        |t| -> Result<(String, Program, Vec<SignalExploration>), String> {
            match op {
                Op::Explore(p) => {
                    let (program, array) = resolve(t, &p.kernel, p.array.as_deref())?;
                    let ex = t
                        .span("core.explore_signal", |_| {
                            explore_signal(&program, &array, &opts)
                        })
                        .map_err(|e| e.to_string())?;
                    let report = t.span("core.report.build", |_| {
                        ExplorationReport::build(&ex, &opts, &tech, &BitCount)
                    });
                    let json = t.span("core.report.to_json", |_| report.to_json());
                    let out = t.span("obs.json.reparse", |_| {
                        Json::parse(&json).map(|j| j.to_string())
                    });
                    Ok((out.map_err(|e| e.to_string())?, program, vec![ex]))
                }
                Op::Pareto(p) => {
                    let (program, array) = resolve(t, &p.kernel, p.array.as_deref())?;
                    let ex = t
                        .span("core.explore_signal", |_| {
                            explore_signal(&program, &array, &opts)
                        })
                        .map_err(|e| e.to_string())?;
                    let front = t.span("core.pareto", |_| ex.pareto(&opts, &tech, &BitCount));
                    let out = t.span("obs.json.encode", |_| {
                        let points = front.iter().map(|p| {
                            let (chain, cost) = &p.payload;
                            Json::obj([
                                (
                                    "level_sizes",
                                    Json::arr(chain.levels.iter().map(|l| Json::UInt(l.words))),
                                ),
                                ("onchip_words", Json::UInt(cost.onchip_words)),
                                ("power", Json::Num(cost.normalized_energy)),
                            ])
                        });
                        Json::obj([
                            ("array", Json::str(array.clone())),
                            ("c_tot", Json::UInt(ex.c_tot)),
                            ("background_words", Json::UInt(ex.background_words)),
                            ("points", Json::arr(points)),
                        ])
                        .to_string()
                    });
                    Ok((out, program, vec![ex]))
                }
                Op::Report { kernel } => {
                    let program = t.span(load_span(kernel), |_| load_kernel(kernel))?;
                    let explorations = t
                        .span("core.explore_program", |_| explore_program(&program, &opts))
                        .map_err(|e| e.to_string())?;
                    let mut docs = Vec::new();
                    for ex in &explorations {
                        let report = t.span("core.report.build", |_| {
                            ExplorationReport::build(ex, &opts, &tech, &BitCount)
                        });
                        let json = t.span("core.report.to_json", |_| report.to_json());
                        docs.push(
                            t.span("obs.json.reparse", |_| Json::parse(&json))
                                .map_err(|e| e.to_string())?,
                        );
                    }
                    let out = t.span("obs.json.encode", |_| Json::Arr(docs).to_string());
                    Ok((out, program, explorations))
                }
                other => Err(format!("{} is not a work op", other.name())),
            }
        },
    );
    match result {
        Ok((out, program, mut explorations)) => {
            // A report decomposes its default signal, chosen outside the
            // `op` span since `ops::report` never resolves it.
            let pick = if explorations.len() == 1 {
                Some(0)
            } else {
                default_array(&program).and_then(|a| explorations.iter().position(|e| e.array == a))
            };
            let input = pick.map(|i| (program, explorations.swap_remove(i)));
            (Ok(out), input)
        }
        Err(e) => (Err(e), None),
    }
}

/// Work counts of the decomposition, for the per-layer ratios.
#[derive(Debug, Default, Clone)]
pub struct DecompCounts {
    pub ops: u64,
    pub symbolic_calls: u64,
    pub symbolic_fallbacks: u64,
    pub pair_points: u64,
    pub pooled: u64,
    pub kept: u64,
    pub chains: u64,
    pub front: u64,
}

/// Signal-level pool before the final dedupe, built the way
/// `explore_signal` combines access groups: one group passes through;
/// several are summed by candidate source over the first group's seeds.
fn combine(groups: &[AccessGroup], c_tot: u64) -> Vec<CandidatePoint> {
    if groups.len() == 1 {
        return groups[0].candidates.clone();
    }
    groups[0]
        .candidates
        .iter()
        .filter_map(|seed| {
            let mut sum = CandidatePoint {
                size: 0,
                fills: 0,
                bypasses: 0,
                c_tot,
                ..*seed
            };
            for g in groups {
                let c = g.candidates.iter().find(|c| c.source == seed.source)?;
                sum.size += c.size;
                sum.fills += c.fills;
                sum.bypasses += c.bypasses;
                sum.exact &= c.exact;
            }
            Some(sum)
        })
        .collect()
}

/// The `decomp` tree: the sub-layer calls of one exploration, each in
/// its own span, run sequentially.
pub fn decompose(
    t: &mut Tracer,
    program: &Program,
    ex: &SignalExploration,
    counts: &mut DecompCounts,
) {
    let opts = ExploreOptions::default();
    let tech = MemoryTechnology::new();
    let reads = |nest: &datareuse_loopir::LoopNest| -> Vec<usize> {
        nest.accesses()
            .iter()
            .enumerate()
            .filter(|(_, a)| a.array() == ex.array && a.kind() == AccessKind::Read)
            .map(|(i, _)| i)
            .collect()
    };
    t.span("decomp", |t| {
        counts.ops += 1;
        for g in &ex.groups {
            let nest = &program.nests()[g.nest];
            counts.symbolic_calls += 1;
            if t.span("core.symbolic.profile", |_| {
                symbolic_profile(nest, g.access)
            })
            .is_err()
            {
                counts.symbolic_fallbacks += 1;
                let _ = t.span("core.footprint.enum", |_| footprint_levels(nest, g.access));
            }
        }
        let mut merged = Vec::new();
        for nest in program.nests() {
            let members = reads(nest);
            if members.len() < 2 {
                continue;
            }
            counts.symbolic_calls += 1;
            let levels = match t.span("core.symbolic.profile", |_| {
                SymbolicProfile::analyze(nest, &members)
            }) {
                Ok(profile) => profile.level_candidates(),
                Err(_) => {
                    counts.symbolic_fallbacks += 1;
                    t.span("core.footprint.enum", |_| {
                        footprint_levels_merged(nest, &members)
                    })
                    .unwrap_or_default()
                }
            };
            merged.extend(
                levels
                    .iter()
                    .map(|l| CandidatePoint::from_merged_footprint(l, nest.depth())),
            );
        }
        let mut pairs = 0usize;
        counts.pair_points += t.span("core.pairs.sweep", |_| {
            let mut points = 0;
            for g in &ex.groups {
                let nest = &program.nests()[g.nest];
                for outer in 0..nest.depth().saturating_sub(1) {
                    for inner in outer + 1..nest.depth() {
                        pairs += 1;
                        let Ok(geom) = PairGeometry::from_access(nest, g.access, outer, inner)
                        else {
                            continue;
                        };
                        points += u64::from(max_reuse(&geom).is_some())
                            + partial_sweep(&geom, false).len() as u64
                            + partial_sweep(&geom, true).len() as u64;
                    }
                }
            }
            points
        });
        let mut pool = combine(&ex.groups, ex.c_tot);
        pool.extend(merged);
        counts.pooled += pool.len() as u64;
        counts.kept += t
            .span("core.levels.dedupe", |_| dedupe_candidates(pool))
            .len() as u64;
        let chains = t.span("core.levels.chains", |_| ex.chains(&opts));
        counts.chains += chains.len() as u64;
        t.span("core.par.fanout", |_| {
            let threads = resolve_threads(None);
            parallel_map(threads, (0..pairs).collect(), |x| x);
            parallel_map(threads, (0..chains.len()).collect(), |x| x)
        });
        let costed: Vec<_> = t.span("memmodel.evaluate", |_| {
            chains
                .into_iter()
                .map(|chain| {
                    let cost = evaluate_chain(&chain, &tech, &BitCount);
                    ParetoPoint::new(
                        cost.onchip_words as f64,
                        cost.normalized_energy,
                        (chain, cost),
                    )
                })
                .collect()
        });
        counts.front += t.span("memmodel.pareto", |_| pareto_front(costed)).len() as u64;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str) {
        let golden = Golden::load().unwrap();
        let w = InProcess::new(workload, 1, &golden).unwrap();
        let phase = w.run(Duration::ZERO, 50, 50);
        assert_eq!(phase.samples.len(), 50);
        assert_eq!(phase.failed, 0, "{workload}: error_rate must be 0");
    }

    #[test]
    fn a_50_op_smoke_of_explore_conforming_has_no_errors() {
        smoke("explore-conforming");
    }

    #[test]
    fn a_50_op_smoke_of_explore_guarded_has_no_errors() {
        smoke("explore-guarded");
    }

    #[test]
    fn traced_ops_reproduce_the_untraced_bytes_and_partition_their_time() {
        let golden = Golden::load().unwrap();
        let w = InProcess::new("explore-conforming", 2, &golden).unwrap();
        let mut tracer = Tracer::new(Instant::now());
        let mut counts = DecompCounts::default();
        // One op of each kind on fir.
        for (i, e) in w.entries.iter().enumerate().take(3) {
            tracer.set_request(i as u64 + 1);
            let (out, input) = traced_op(&mut tracer, &e.op);
            assert_eq!(
                fnv1a(out.unwrap().as_bytes()),
                e.digest,
                "{} op {i}",
                e.kernel
            );
            let (program, ex) = input.unwrap();
            decompose(&mut tracer, &program, &ex, &mut counts);
        }
        assert_eq!(counts.ops, 3);
        assert_eq!(counts.symbolic_fallbacks, 0, "fir is conforming");
        assert!(counts.kept > 0 && counts.kept <= counts.pooled);
        let spans = tracer.spans();
        let selfs = crate::trace::self_times(spans);
        for op in spans.iter().filter(|s| s.name == "op") {
            let tree: u64 = spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.request == op.request && (s.id == op.id || s.parent == op.id))
                .map(|(_, &own)| own)
                .sum();
            assert_eq!(tree, op.duration_ns());
        }
    }
}
