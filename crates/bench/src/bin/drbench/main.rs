//! `drbench` — the benchmark of record for the datareuse workspace.
//!
//! ```text
//! drbench [--seed N] [--seconds S] [--repeat K]
//! drbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//! drbench --print-golden
//! ```
//!
//! Without `--workload` it runs every workload untraced, each in a fresh
//! child process, then the traced set, prints every metric by name with
//! its unit and the verification verdict, and writes
//! `<target>/drbench/results.json`. `--repeat K` instead runs the
//! untraced set K times (seeds N..N+K, alternating workload order) and
//! reports each metric's median, quartiles and spread against its bound.
//!
//! With `--workload` it runs that one workload in this process and ends
//! its standard output with one JSON line: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See README.md for the workloads and metrics.

mod check;
mod gen;
mod inproc;
mod served;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use datareuse_obs::Json;

use check::Golden;
use inproc::{DecompCounts, InProcess};
use served::{Capture, Conn, Served};
use stats::{geomean, median, sorted_us, tail};
use trace::{aggregate, Agg, Tracer};

/// The workloads, in run order.
pub const WORKLOADS: [&str; 4] = [
    "explore-conforming",
    "explore-guarded",
    "serve-hot",
    "serve-cold",
];

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression.
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const E2E: [E2e; 7] = [
    E2e {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    E2e {
        name: "ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.25,
    },
    E2e {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    E2e {
        name: "latency_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    E2e {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    E2e {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
    E2e {
        name: "alloc_kb_per_op",
        unit: "KiB",
        better: "lower",
        bound: 0.02,
    },
];

/// Per-layer metrics of the traced run: name, unit, better.
pub const PER_LAYER: [(&str, &str, &str); 51] = [
    ("kernels.load_us_p50", "us", "lower"),
    ("exprlang.lower_us_p50", "us", "lower"),
    ("core.symbolic.profile_us_p50", "us", "lower"),
    ("core.symbolic.fallback_ratio", "ratio", "lower"),
    ("core.footprint.enum_ms_p50", "ms", "lower"),
    ("core.footprint.share", "ratio", "lower"),
    ("core.footprint.alloc_kb", "KiB", "lower"),
    ("core.pairs.sweep_us_p50", "us", "lower"),
    ("core.pairs.points_per_op", "count", "lower"),
    ("core.pairs.alloc_kb", "KiB", "lower"),
    ("core.par.fanout_us_p50", "us", "lower"),
    ("core.levels.dedupe_us_p50", "us", "lower"),
    ("core.levels.kept_ratio", "ratio", "higher"),
    ("core.levels.chains_us_p50", "us", "lower"),
    ("core.levels.chains_per_op", "count", "lower"),
    ("memmodel.evaluate_us_p50", "us", "lower"),
    ("memmodel.pareto_us_p50", "us", "lower"),
    ("memmodel.front_ratio", "ratio", "higher"),
    ("memmodel.alloc_kb", "KiB", "lower"),
    ("core.report.build_us_p50", "us", "lower"),
    ("core.report.to_json_us_p50", "us", "lower"),
    ("obs.json.reparse_us_p50", "us", "lower"),
    ("core.report.alloc_kb", "KiB", "lower"),
    ("op.explore_signal_us_p50", "us", "lower"),
    ("op.glue_us_p50", "us", "lower"),
    ("server.protocol.decode_us_p50", "us", "lower"),
    ("server.protocol.key_us_p50", "us", "lower"),
    ("server.cache.get_us_p50", "us", "lower"),
    ("server.cache.insert_us_p50", "us", "lower"),
    ("server.ops.execute_us_p50", "us", "lower"),
    ("server.protocol.encode_us_p50", "us", "lower"),
    ("server.io_residual_us_p50", "us", "lower"),
    ("server.hit_ratio", "ratio", "higher"),
    ("server.evictions_per_req", "ratio", "lower"),
    ("server.coalesced_ratio", "ratio", "higher"),
    ("server.failures", "count", "lower"),
    ("server.queue_wait_us_mean", "us", "lower"),
    ("server.service_hit_us_mean", "us", "lower"),
    ("server.service_cold_us_mean", "us", "lower"),
    ("kernel.me.latency_us_p50", "us", "lower"),
    ("kernel.me-small.latency_us_p50", "us", "lower"),
    ("kernel.susan.latency_us_p50", "us", "lower"),
    ("kernel.susan-small.latency_us_p50", "us", "lower"),
    ("kernel.susan-unfolded.latency_us_p50", "us", "lower"),
    ("kernel.conv2d.latency_us_p50", "us", "lower"),
    ("kernel.matmul.latency_us_p50", "us", "lower"),
    ("kernel.sobel.latency_us_p50", "us", "lower"),
    ("kernel.downsample.latency_us_p50", "us", "lower"),
    ("kernel.fir.latency_us_p50", "us", "lower"),
    ("kernel.gen-corpus.latency_us_geomean", "us", "lower"),
    ("trace.overhead_pct", "pct", "lower"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Timed ops an untraced in-process run reaches even past its window, so
/// that `latency_p99_us` is a p99 with ten samples beyond it on every
/// commit, however fast the program is.
const MIN_OPS: usize = 1000;
const DEFAULT_SECONDS: u64 = 20;

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, started) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("drbench: {e}");
            std::process::exit(1);
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
    setup_only: bool,
    print_golden: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: None,
        setup_only: false,
        print_golden: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("bad {flag} value `{v}`"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                out.workload = Some(w.clone());
            }
            "--seed" => out.seed = number(value()?)?,
            "--seconds" => out.seconds = number(value()?)?.max(1),
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--repeat" => out.repeat = Some(number(value()?)?.max(1) as usize),
            "--setup-only" => out.setup_only = true,
            "--print-golden" => out.print_golden = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

fn run(args: &[String], started: Instant) -> Result<i32, String> {
    let args = parse_args(args)?;
    if std::env::var_os("DATAREUSE_THREADS").is_some() {
        return Err("unset DATAREUSE_THREADS: drbench measures the default thread count".into());
    }
    if args.print_golden {
        let kernels: Vec<String> = datareuse_kernels::BUILTINS
            .iter()
            .map(|(k, _)| k.to_string())
            .chain(datareuse_kernels::corpus().iter().map(|e| e.name.clone()))
            .collect();
        print!("{}", check::golden_json(&kernels)?);
        return Ok(0);
    }
    let Some(workload) = args.workload.clone() else {
        return orchestrate(&args);
    };
    let window = Duration::from_secs(args.seconds);
    if args.setup_only {
        let golden = Golden::load()?;
        let w = InProcess::new(&workload, args.seed, &golden)?;
        w.warm_up();
        println!("setup_s {}", started.elapsed().as_secs_f64());
        return Ok(0);
    }
    let served = workload.starts_with("serve-");
    let outcome = match (served, args.trace) {
        (false, false) => inproc_untraced(&workload, args.seed, window, started)?,
        (false, true) => inproc_traced(&workload, args.seed, window)?,
        (true, false) => served_untraced(&workload, args.seed, window)?,
        (true, true) => served_traced(&workload, args.seed, window)?,
    };
    outcome.print(&workload, args.seed, args.trace);
    Ok(0)
}

/// One workload run's result.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Sample counts, percentiles used, error messages: printed and kept
    /// in results.json next to the metrics.
    detail: Vec<(&'static str, Json)>,
}

impl Outcome {
    fn unit(name: &str) -> &'static str {
        E2E.iter()
            .find(|m| m.name == name)
            .map(|m| m.unit)
            .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
            .unwrap_or("")
    }

    fn print(&self, workload: &str, seed: u64, trace: bool) {
        let mode = if trace { "traced" } else { "untraced" };
        println!("drbench {workload} seed {seed} ({mode})");
        for (name, value) in &self.metrics {
            println!("  {name:<40} {value:>16.4} {}", Outcome::unit(name));
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  verification: {} ({} failed of {} attempted, error_rate {error_rate})",
            if self.failed == 0 { "PASS" } else { "FAIL" },
            self.failed,
            self.attempted
        );
        let mut detail = vec![("error_rate", Json::Num(error_rate))];
        detail.extend(self.detail.iter().cloned());
        println!("drbench-detail {}", Json::obj(detail));
        let metrics = Json::obj(self.metrics.iter().map(|(name, v)| {
            let value = if v.is_finite() { *v } else { 0.0 };
            (
                *name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(Outcome::unit(name))),
                ]),
            )
        }));
        println!(
            "{}",
            Json::obj([
                (
                    "correct",
                    Json::Bool(self.failed == 0 && self.attempted > 0)
                ),
                ("attempted", Json::UInt(self.attempted.max(1))),
                ("failed", Json::UInt(self.failed)),
                ("metrics", metrics),
            ])
        );
    }
}

/// Counts each failed check as one failure, reporting it on stderr.
fn tally(errors: Vec<String>, detail: &mut Vec<String>) -> u64 {
    for e in &errors {
        eprintln!("drbench: verification: {e}");
    }
    detail.extend(errors.iter().take(5).cloned());
    errors.len() as u64
}

fn checks(golden: &Golden, kernels: &[String]) -> Vec<String> {
    [
        golden.cross_check(kernels),
        check::check_fir_paper_numbers(),
    ]
    .into_iter()
    .filter_map(Result::err)
    .collect()
}

/// What an untraced run measured.
struct Measured {
    setups: Vec<f64>,
    latencies_ns: Vec<u64>,
    wall_s: f64,
    cpu_s: f64,
    alloc_bytes: u64,
    rss_mib: f64,
}

impl Measured {
    /// The seven end-to-end metrics, with the sample count and tail
    /// percentile in front of `detail`.
    fn outcome(
        mut self,
        attempted: u64,
        failed: u64,
        detail: Vec<(&'static str, Json)>,
    ) -> Outcome {
        let n = self.latencies_ns.len();
        let ops = n.max(1) as f64;
        let us = sorted_us(&self.latencies_ns);
        let (tail_pct, tail_us) = tail(&us).unwrap_or((0.0, us.last().copied().unwrap_or(0.0)));
        self.setups.sort_by(f64::total_cmp);
        let metrics = vec![
            ("setup_s", median(&self.setups)),
            ("ops_per_s", n as f64 / self.wall_s),
            ("latency_p50_us", median(&us)),
            ("latency_p99_us", tail_us),
            ("cpu_us_per_op", self.cpu_s * 1e6 / ops),
            ("peak_rss_mb", self.rss_mib),
            ("alloc_kb_per_op", self.alloc_bytes as f64 / 1024.0 / ops),
        ];
        let mut all = vec![
            ("samples", Json::UInt(n as u64)),
            ("tail_percentile", Json::Num(tail_pct)),
            ("window_s", Json::Num(self.wall_s)),
            (
                "setups_s",
                Json::arr(self.setups.iter().map(|&s| Json::Num(s))),
            ),
        ];
        all.extend(detail);
        Outcome {
            attempted,
            failed,
            metrics,
            detail: all,
        }
    }
}

/// Runs `drbench --setup-only` for this workload and reads its set-up
/// seconds.
fn setup_child(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--setup-only",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run set-up child: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("set-up child failed ({})", out.status))
}

fn inproc_untraced(
    workload: &str,
    seed: u64,
    window: Duration,
    started: Instant,
) -> Result<Outcome, String> {
    let golden = Golden::load()?;
    let w = InProcess::new(workload, seed, &golden)?;
    let mut failed = w.warm_up();
    let mut setups = vec![started.elapsed().as_secs_f64()];
    let mut errors = Vec::new();
    failed += tally(checks(&golden, &w.kernels()), &mut errors);
    for _ in 1..SETUPS {
        setups.push(setup_child(workload, seed)?);
    }
    let phase = w.run(window, MIN_OPS, usize::MAX);
    failed += phase.failed;
    let measured = Measured {
        setups,
        latencies_ns: phase.latencies_ns(),
        wall_s: phase.wall_s,
        cpu_s: phase.cpu_s,
        alloc_bytes: phase.alloc_bytes,
        rss_mib: stats::peak_rss_mib(std::process::id())?,
    };
    let errors = ("errors", Json::arr(errors.into_iter().map(Json::str)));
    Ok(measured.outcome(phase.samples.len() as u64, failed, vec![errors]))
}

fn server_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.with_file_name("datareuse");
    bin.exists().then_some(bin.clone()).ok_or_else(|| {
        format!(
            "{} not found; build it with `cargo build --release -p datareuse-cli`",
            bin.display()
        )
    })
}

fn served_untraced(workload: &str, seed: u64, window: Duration) -> Result<Outcome, String> {
    let golden = Golden::load()?;
    let served = Served::new(workload, seed)?;
    let mut errors = Vec::new();
    let mut failed = tally(checks(&golden, &served.golden_kernels()), &mut errors);
    let bin = server_bin()?;
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let (server, secs, warm_failed) = served.setup(&bin)?;
        setups.push(secs);
        failed += warm_failed;
        server.shutdown()?;
    }
    let (server, secs, warm_failed) = served.setup(&bin)?;
    setups.push(secs);
    failed += warm_failed;
    let pid = server.pid();
    let mut ctl = Conn::connect(&server.addr)?;
    let alloc0 = ctl.allocated()?;
    let cpu0 = stats::cpu_seconds(pid)?;
    let win = served.drive(&server.addr, &served.stream, Some(window), served.capture)?;
    let cpu_s = stats::cpu_seconds(pid)? - cpu0;
    let alloc_bytes = ctl.allocated()? - alloc0;
    let rss_mib = stats::peak_rss_mib(pid)?;
    // One error message per failed request.
    failed += tally(win.errors.clone(), &mut errors);
    failed += tally(served.verify(&server.addr, &golden, &win)?, &mut errors);
    drop(ctl);
    server.shutdown()?;
    let measured = Measured {
        setups,
        latencies_ns: win.samples.iter().map(|s| s.ns()).collect(),
        wall_s: win.wall_s,
        cpu_s,
        alloc_bytes,
        rss_mib,
    };
    let hits = win.samples.iter().filter(|s| s.cached).count() as u64;
    let detail = vec![
        ("cached_responses", Json::UInt(hits)),
        ("errors", Json::arr(errors.into_iter().map(Json::str))),
    ];
    Ok(measured.outcome(win.attempted, failed, detail))
}

/// Per-kernel p50 rows from untraced samples, keyed by kernel name.
fn kernel_rows(samples: impl Iterator<Item = (String, u64)>) -> Vec<(&'static str, f64)> {
    let mut by_kernel: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (k, ns) in samples {
        by_kernel.entry(k).or_default().push(ns);
    }
    let p50 = |ns: &Vec<u64>| median(&sorted_us(ns));
    let mut rows: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .filter_map(|(name, _, _)| {
            let kernel = name
                .strip_prefix("kernel.")?
                .strip_suffix(".latency_us_p50")?;
            Some((*name, by_kernel.get(kernel).map_or(0.0, p50)))
        })
        .collect();
    let corpus: Vec<f64> = by_kernel
        .iter()
        .filter(|(k, _)| k.starts_with("gen-"))
        .map(|(_, ns)| p50(ns))
        .collect();
    rows.push(("kernel.gen-corpus.latency_us_geomean", geomean(&corpus)));
    rows
}

/// The per-layer metrics from the traced run's span aggregates and
/// decomposition counts, plus workload-specific values in `extra`.
fn per_layer(
    aggs: &BTreeMap<&'static str, Agg>,
    counts: &DecompCounts,
    extra: Vec<(&'static str, f64)>,
) -> Vec<(&'static str, f64)> {
    let ratio = |n: f64, of: f64| if of > 0.0 { n / of } else { 0.0 };
    let agg = |name: &str| aggs.get(name).cloned().unwrap_or_default();
    let p50 = |name: &str| agg(name).p50_us();
    let total = |name: &str| agg(name).total_ns as f64;
    let decomp_ops = counts.ops as f64;
    let op_count = agg("op").count as f64;
    let kib = |names: &[&str], per: f64| {
        ratio(
            names.iter().map(|n| agg(n).alloc_bytes as f64).sum::<f64>() / 1024.0,
            per,
        )
    };
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("kernels.load_us_p50", p50("kernels.load")),
        ("exprlang.lower_us_p50", p50("exprlang.lower")),
        ("core.symbolic.profile_us_p50", p50("core.symbolic.profile")),
        (
            "core.symbolic.fallback_ratio",
            ratio(
                counts.symbolic_fallbacks as f64,
                counts.symbolic_calls as f64,
            ),
        ),
        (
            "core.footprint.enum_ms_p50",
            p50("core.footprint.enum") / 1e3,
        ),
        (
            "core.footprint.share",
            ratio(total("core.footprint.enum"), total("decomp")),
        ),
        (
            "core.footprint.alloc_kb",
            kib(&["core.footprint.enum"], decomp_ops),
        ),
        ("core.pairs.sweep_us_p50", p50("core.pairs.sweep")),
        (
            "core.pairs.points_per_op",
            ratio(counts.pair_points as f64, decomp_ops),
        ),
        (
            "core.pairs.alloc_kb",
            kib(&["core.pairs.sweep"], decomp_ops),
        ),
        ("core.par.fanout_us_p50", p50("core.par.fanout")),
        ("core.levels.dedupe_us_p50", p50("core.levels.dedupe")),
        (
            "core.levels.kept_ratio",
            ratio(counts.kept as f64, counts.pooled as f64),
        ),
        ("core.levels.chains_us_p50", p50("core.levels.chains")),
        (
            "core.levels.chains_per_op",
            ratio(counts.chains as f64, decomp_ops),
        ),
        ("memmodel.evaluate_us_p50", p50("memmodel.evaluate")),
        ("memmodel.pareto_us_p50", p50("memmodel.pareto")),
        (
            "memmodel.front_ratio",
            ratio(counts.front as f64, counts.chains as f64),
        ),
        (
            "memmodel.alloc_kb",
            kib(&["memmodel.evaluate", "memmodel.pareto"], decomp_ops),
        ),
        ("core.report.build_us_p50", p50("core.report.build")),
        ("core.report.to_json_us_p50", p50("core.report.to_json")),
        ("obs.json.reparse_us_p50", p50("obs.json.reparse")),
        (
            "core.report.alloc_kb",
            kib(&["core.report.build", "core.report.to_json"], op_count),
        ),
        ("op.explore_signal_us_p50", p50("core.explore_signal")),
        ("op.glue_us_p50", agg("op").self_p50_us()),
        (
            "server.protocol.decode_us_p50",
            p50("server.protocol.decode"),
        ),
        ("server.protocol.key_us_p50", p50("server.protocol.key")),
        ("server.cache.get_us_p50", p50("server.cache.get")),
        ("server.cache.insert_us_p50", p50("server.cache.insert")),
        ("server.ops.execute_us_p50", p50("server.ops.execute")),
        (
            "server.protocol.encode_us_p50",
            p50("server.protocol.encode"),
        ),
    ]);
    values.extend(extra);
    PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn overhead_pct(traced_p50: f64, untraced_p50: f64) -> f64 {
    if untraced_p50 > 0.0 {
        100.0 * (traced_p50 / untraced_p50 - 1.0)
    } else {
        0.0
    }
}

/// `<target>/drbench/<file>`, the directory created on demand.
fn out_path(file: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("drbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(file))
}

fn finish_trace(workload: &str, tracer: &Tracer) -> Result<BTreeMap<&'static str, Agg>, String> {
    let path = out_path(&format!("spans-{workload}.ndjson"))?;
    tracer.write_ndjson(&path)?;
    eprintln!(
        "drbench: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    let aggs = aggregate(tracer.spans());
    trace::print_table(&aggs);
    Ok(aggs)
}

fn inproc_traced(workload: &str, seed: u64, window: Duration) -> Result<Outcome, String> {
    let golden = Golden::load()?;
    let w = InProcess::new(workload, seed, &golden)?;
    let mut errors = Vec::new();
    let mut failed = w.warm_up() + tally(checks(&golden, &w.kernels()), &mut errors);
    let mut tracer = Tracer::new(Instant::now());
    let mut counts = DecompCounts::default();
    let phase = w.run_traced(&mut tracer, window, &mut counts);
    failed += phase.failed;
    let aggs = finish_trace(workload, &tracer)?;
    let mut extra = kernel_rows(
        phase
            .samples
            .iter()
            .map(|&(i, ns)| (w.entries[i].kernel.clone(), ns)),
    );
    let op = aggs.get("op").cloned().unwrap_or_default();
    extra.push((
        "trace.overhead_pct",
        overhead_pct(op.p50_us(), median(&sorted_us(&phase.latencies_ns()))),
    ));
    Ok(Outcome {
        attempted: (phase.samples.len() + op.count) as u64,
        failed,
        metrics: per_layer(&aggs, &counts, extra),
        detail: vec![
            ("untraced_samples", Json::UInt(phase.samples.len() as u64)),
            ("traced_ops", Json::UInt(op.count as u64)),
            ("errors", Json::arr(errors.into_iter().map(Json::str))),
        ],
    })
}

fn served_traced(workload: &str, seed: u64, window: Duration) -> Result<Outcome, String> {
    let golden = Golden::load()?;
    let served = Served::new(workload, seed)?;
    let mut errors = Vec::new();
    let mut failed = tally(checks(&golden, &served.golden_kernels()), &mut errors);
    let (server, _, warm_failed) = served.setup(&server_bin()?)?;
    failed += warm_failed;
    let third = window / 3;
    let plain = served.drive(&server.addr, &served.stream, Some(third), Capture::Nothing)?;
    let mut ctl = Conn::connect(&server.addr)?;
    let before = ctl.stats()?;
    let offset = plain.next_pos();
    let traced = served.drive(
        &server.addr,
        &served.stream[offset..],
        Some(third),
        Capture::Nothing,
    )?;
    let after = ctl.stats()?;
    drop(ctl);
    server.shutdown()?;
    failed += tally(
        plain.errors.iter().chain(&traced.errors).cloned().collect(),
        &mut errors,
    );

    let mut tracer = Tracer::new(
        traced
            .samples
            .first()
            .map_or_else(Instant::now, |s| s.start),
    );
    for s in &traced.samples {
        tracer.record_root("rtt", (offset + s.pos) as u64 + 1, s.start, s.end);
    }
    let positions: Vec<usize> = traced.samples.iter().map(|s| offset + s.pos).collect();
    let mut counts = DecompCounts::default();
    let replayed = served.replay(&mut tracer, &positions, third, &mut counts);
    failed += replayed.failed;
    let aggs = finish_trace(workload, &tracer)?;
    let hit_rtts: Vec<u64> = plain
        .samples
        .iter()
        .filter(|s| s.cached)
        .map(|s| s.ns())
        .collect();
    let path_p50: f64 = [
        "server.protocol.decode",
        "server.protocol.key",
        "server.cache.get",
        "server.protocol.encode",
    ]
    .iter()
    .map(|n| aggs.get(n).map_or(0.0, Agg::p50_us))
    .sum();
    let residual = if hit_rtts.is_empty() {
        0.0
    } else {
        median(&sorted_us(&hit_rtts)) - path_p50
    };
    let mut extra = before.window(&after);
    extra.push(("server.io_residual_us_p50", residual));
    // The server runs no benchmark spans, so the overhead is the traced
    // replay's against the untraced replay's, request for request.
    let p50 = |ns: &[u64]| median(&sorted_us(ns));
    extra.push((
        "trace.overhead_pct",
        overhead_pct(p50(&replayed.traced_ns), p50(&replayed.plain_ns)),
    ));
    extra.extend(kernel_rows(
        plain
            .samples
            .iter()
            .filter(|s| !served.requests[s.idx].is_expression())
            .map(|s| (served.requests[s.idx].kernel.clone(), s.ns())),
    ));
    let replays = (replayed.plain_ns.len() + replayed.traced_ns.len()) as u64;
    Ok(Outcome {
        attempted: plain.attempted + traced.attempted + replays,
        failed,
        metrics: per_layer(&aggs, &counts, extra),
        detail: vec![
            ("untraced_samples", Json::UInt(plain.samples.len() as u64)),
            ("traced_requests", Json::UInt(traced.samples.len() as u64)),
            (
                "replayed_requests",
                Json::UInt(replayed.traced_ns.len() as u64),
            ),
            ("errors", Json::arr(errors.into_iter().map(Json::str))),
        ],
    })
}

/// One child run's parsed output.
struct ChildResult {
    result: Json,
    detail: Json,
}

impl ChildResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }
}

fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<ChildResult, String> {
    eprintln!(
        "drbench: running {workload} (seed {seed}, {seconds} s, trace {})",
        u8::from(trace)
    );
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result =
        Json::parse(last).map_err(|_| format!("{workload} printed no result ({})", out.status))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("drbench-detail "))
        .and_then(|d| Json::parse(d).ok())
        .unwrap_or(Json::Null);
    Ok(ChildResult { result, detail })
}

fn machine_record() -> Json {
    let command = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    };
    Json::obj([
        (
            "nproc",
            Json::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("rustc", Json::str(command("rustc", &["-V"]))),
        (
            "git_revision",
            Json::str(command("git", &["rev-parse", "HEAD"])),
        ),
        (
            "explore_threads",
            Json::UInt(datareuse_core::resolve_threads(None) as u64),
        ),
    ])
}

fn orchestrate(args: &Args) -> Result<i32, String> {
    if let Some(k) = args.repeat {
        return repeat(args, k);
    }
    let mut runs = Vec::new();
    for trace in [false, true] {
        for w in WORKLOADS {
            runs.push((w, trace, run_child(w, args.seed, args.seconds, trace)?));
        }
    }
    let mut all_correct = true;
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for w in WORKLOADS {
        let mut entry = Vec::new();
        for (name, trace, r) in runs.iter().filter(|(name, _, _)| *name == w) {
            println!(
                "\n== {name} ({}) ==",
                if *trace {
                    "traced, per-layer"
                } else {
                    "untraced, end-to-end"
                }
            );
            let names: Vec<(&str, &str)> = if *trace {
                PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
            } else {
                E2E.iter().map(|m| (m.name, m.unit)).collect()
            };
            for (metric, unit) in names {
                println!(
                    "  {metric:<40} {:>16.4} {unit}",
                    r.metric(metric).unwrap_or(f64::NAN)
                );
            }
            let field = |k: &str| r.result.get(k).and_then(Json::as_u64).unwrap_or(0);
            println!(
                "  verification: {} ({} failed of {} attempted)",
                if r.correct() { "PASS" } else { "FAIL" },
                field("failed"),
                field("attempted")
            );
            all_correct &= r.correct();
            entry.push((
                if *trace { "traced" } else { "untraced" },
                Json::obj([("result", r.result.clone()), ("detail", r.detail.clone())]),
            ));
        }
        workloads.push((w.to_string(), Json::obj(entry)));
    }
    let doc = Json::obj([
        ("schema", Json::str("drbench-results-v1")),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::UInt(args.seconds)),
        ("machine", machine_record()),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out_path("results.json")?;
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    Ok(if all_correct { 0 } else { 1 })
}

/// `--repeat K`: the untraced set K times, seeds N..N+K, alternating the
/// workload order; per metric the median, quartiles, and spreads.
fn repeat(args: &Args, k: usize) -> Result<i32, String> {
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut all_correct = true;
    for i in 0..k {
        let mut order = WORKLOADS.to_vec();
        if i % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let r = run_child(w, args.seed + i as u64, args.seconds, false)?;
            all_correct &= r.correct();
            for m in &E2E {
                values
                    .entry((w, m.name))
                    .or_default()
                    .push(r.metric(m.name).unwrap_or(f64::NAN));
            }
        }
    }
    println!(
        "{:<20} {:<16} {:>12} {:>12} {:>12} {:>9} {:>9} {:>6}",
        "workload", "metric", "q1", "median", "q3", "iqr/med", "rng/med", "bound"
    );
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for m in &E2E {
            let v = &values[&(w, m.name)];
            let (q1, med, q3) = stats::quartiles(v);
            let max = v.iter().copied().fold(f64::MIN, f64::max);
            let min = v.iter().copied().fold(f64::MAX, f64::min);
            let (iqr, range) = ((q3 - q1) / med, (max - min) / med);
            let flag = if range > m.bound {
                "  exceeds bound"
            } else {
                ""
            };
            println!(
                "{w:<20} {:<16} {q1:>12.4} {med:>12.4} {q3:>12.4} {iqr:>9.4} {range:>9.4} {:>6}{flag}",
                m.name, m.bound
            );
            rows.push(Json::obj([
                ("workload", Json::str(w)),
                ("metric", Json::str(m.name)),
                ("values", Json::arr(v.iter().map(|&x| Json::Num(x)))),
                ("median", Json::Num(med)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("iqr_over_median", Json::Num(iqr)),
                ("range_over_median", Json::Num(range)),
                ("bound", Json::Num(m.bound)),
            ]));
        }
    }
    let doc = Json::obj([
        ("schema", Json::str("drbench-repeat-v1")),
        ("seed", Json::UInt(args.seed)),
        ("repeat", Json::UInt(k as u64)),
        ("seconds", Json::UInt(args.seconds)),
        ("machine", machine_record()),
        ("rows", Json::Arr(rows)),
    ]);
    let path = out_path("repeat.json")?;
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nrepeat summary written to {}", path.display());
    Ok(if all_correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root, found by walking up.
    fn benchmark_json() -> Json {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                let text = std::fs::read_to_string(candidate).unwrap();
                return Json::parse(&text).unwrap();
            }
            assert!(
                dir.pop(),
                "no BENCHMARK.json above {}",
                env!("CARGO_MANIFEST_DIR")
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let doc = benchmark_json();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (entry, m) in doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(&E2E)
        {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(m.better));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        assert_eq!(names("end_to_end").len(), E2E.len());
        let layers = doc.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(*better));
        }
    }

    #[test]
    fn arguments_are_validated() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a = args(&[
            "--workload",
            "serve-hot",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("serve-hot"), 7, 3, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }
}
