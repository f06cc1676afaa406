//! End-to-end gates on the shipped `datareuse` binary.
//!
//! These pin the two contracts that only exist at the process level:
//!
//! - `--profile-out` writes a collapsed-stack profile whose self times
//!   sum back to the command's measured wall time (the `profile:
//!   wall_ns N` stderr line) within 5% — the partition invariant of the
//!   span-derived profiler, checked on a real `explore fir` run.
//! - `--metrics` writes span rows whose `self_ns` and `self_bytes`
//!   columns sum back to the command's wall time and allocator delta
//!   (the `profile: wall_ns N` and `alloc: total_bytes N` stderr lines)
//!   within 5%, on a SUSAN run whose sweeps fan out to worker threads.
//! - One explore fans out one pair sweep per signal, however many access
//!   groups it has: SUSAN's seven mask-row groups cost as many
//!   `par_sweeps` as motion estimation's single group.
//! - An explore's time lands in its stage spans, not in the root: the
//!   `report` span holds the one Pareto front it prints and `render`
//!   holds the encoding and the explain-log write, so `run` keeps at
//!   most 10% self time, with and without `--explain`.

use std::path::PathBuf;
use std::process::{Command, Output};

use datareuse_core::Json;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_datareuse"))
}

/// A per-test scratch directory under the target tmpdir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "datareuse-cli-gates-{name}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("spawn datareuse binary")
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// The number after `prefix` on a stderr line, e.g. `profile: wall_ns `.
fn stderr_total(stderr: &str, prefix: &str) -> f64 {
    stderr
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("stderr reports `{prefix}N`:\n{stderr}"))
        .trim()
        .parse()
        .expect("numeric total")
}

#[test]
fn profile_out_self_times_sum_to_the_measured_wall_time() {
    let scratch = Scratch::new("profile");
    let profile = scratch.path("fir.collapsed");
    let output = run(bin().args(["explore", "fir", "--profile-out"]).arg(&profile));
    let stderr = stderr_of(&output);
    assert!(output.status.success(), "explore failed:\n{stderr}");
    let wall_ns = stderr_total(&stderr, "profile: wall_ns ");
    let text = std::fs::read_to_string(&profile).expect("profile file written");
    assert!(
        text.lines().any(|l| l.starts_with("run")),
        "no root `run` stack in profile:\n{text}"
    );
    let mut self_sum = 0.0f64;
    for line in text.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("`stack SELF_NS` shape");
        assert!(!stack.is_empty() && !stack.contains('/'), "bad stack: {line}");
        let v: f64 = value.parse().expect("numeric self time");
        assert!(v > 0.0, "zero-self line emitted: {line}");
        self_sum += v;
    }
    // Self times partition the root span's total, and the root span
    // brackets the same region the wall clock measures.
    let ratio = self_sum / wall_ns;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "self-time sum {self_sum} vs wall {wall_ns} ns (ratio {ratio:.4}):\n{text}"
    );
}

#[test]
fn metrics_span_rows_partition_the_measured_time_and_bytes() {
    // At the default thread count SUSAN's pair sweep and Pareto fan out
    // to scoped workers; their bytes must still land in the spans.
    let scratch = Scratch::new("metrics-partition");
    let metrics = scratch.path("susan.json");
    let output = run(bin().args(["explore", "susan", "--metrics"]).arg(&metrics));
    let stderr = stderr_of(&output);
    assert!(output.status.success(), "explore failed:\n{stderr}");
    let wall_ns = stderr_total(&stderr, "profile: wall_ns ");
    let total_bytes = stderr_total(&stderr, "alloc: total_bytes ");
    assert!(total_bytes > 0.0, "explore allocates:\n{stderr}");
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let doc = Json::parse(&text).expect("metrics JSON parses");
    let rows = doc.get("spans").and_then(Json::as_array).expect("spans rows");
    let paths: Vec<&str> = rows
        .iter()
        .filter_map(|r| r.get("path").and_then(Json::as_str))
        .collect();
    assert!(paths.contains(&"run"), "no root `run` row: {paths:?}");
    assert!(paths.contains(&"run/explore/pairs"), "{paths:?}");
    for (self_key, measured) in [("self_ns", wall_ns), ("self_bytes", total_bytes)] {
        let self_sum: f64 = rows
            .iter()
            .map(|r| r.get(self_key).and_then(Json::as_u64).expect("self column") as f64)
            .sum();
        // Self weights partition the root span's totals, and the root
        // span brackets (nearly) the region the stderr line measures.
        let ratio = self_sum / measured;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "{self_key} sum {self_sum} vs measured {measured} (ratio {ratio:.4}):\n{text}"
        );
    }
}

#[test]
fn profile_out_without_a_path_is_a_usage_error() {
    let output = run(bin().args(["explore", "fir", "--profile-out"]));
    assert_eq!(output.status.code(), Some(2), "stderr: {}", stderr_of(&output));
    assert!(stderr_of(&output).contains("--profile-out expects a file path"));
}

#[test]
fn every_access_group_shares_one_pair_sweep() {
    let scratch = Scratch::new("sweeps");
    let counters = |kernel: &str| {
        let path = scratch.path(&format!("{kernel}.json"));
        let output = run(bin().args(["explore", kernel, "--metrics"]).arg(&path));
        assert!(
            output.status.success(),
            "explore {kernel} failed:\n{}",
            stderr_of(&output)
        );
        let doc = Json::parse(&std::fs::read_to_string(&path).expect("metrics written"))
            .expect("metrics JSON parses");
        let count = |name: &str| {
            doc.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("no counter `{name}` for {kernel}"))
        };
        (
            count("explore_groups"),
            count("explore_pairs_swept"),
            count("par_sweeps"),
        )
    };
    let (susan_groups, susan_pairs, susan_sweeps) = counters("susan");
    let (me_groups, _, me_sweeps) = counters("me");
    assert_eq!((susan_groups, susan_pairs), (7, 21));
    assert_eq!(me_groups, 1);
    assert_eq!(
        susan_sweeps, me_sweeps,
        "SUSAN must sweep its 7 groups' pairs in one fan-out"
    );
}

/// The `(path, calls, ns, self_ns)` span rows of a metrics snapshot.
fn span_rows(doc: &Json) -> Vec<(String, u64, u64, u64)> {
    let num = |r: &Json, k: &str| r.get(k).and_then(Json::as_u64).expect(k);
    doc.get("spans")
        .and_then(Json::as_array)
        .expect("spans rows")
        .iter()
        .map(|r| {
            let path = r.get("path").and_then(Json::as_str).expect("path");
            (
                path.to_string(),
                num(r, "calls"),
                num(r, "ns"),
                num(r, "self_ns"),
            )
        })
        .collect()
}

#[test]
fn explore_time_is_attributed_and_builds_one_front() {
    let scratch = Scratch::new("attribution");
    let metrics = scratch.path("metrics.json");
    let log = scratch.path("explain.ndjson");
    for kernel in ["fir", "susan", "me"] {
        for json in [false, true] {
            for explain in [false, true] {
                let mut cmd = bin();
                cmd.args(["explore", kernel, "--metrics"]).arg(&metrics);
                if json {
                    cmd.arg("--json");
                }
                if explain {
                    cmd.arg("--explain").arg(&log);
                }
                // Self time is wall clock: a run preempted between two
                // spans charges the gap to `run`. Take the best of three.
                let mut best_share = f64::INFINITY;
                for _ in 0..3 {
                    let output = run(&mut cmd);
                    assert!(output.status.success(), "{cmd:?}:\n{}", stderr_of(&output));
                    let text = std::fs::read_to_string(&metrics).expect("metrics written");
                    let rows = span_rows(&Json::parse(&text).expect("metrics JSON parses"));
                    let pareto: u64 = rows
                        .iter()
                        .filter(|r| r.0 == "pareto" || r.0.ends_with("/pareto"))
                        .map(|r| r.1)
                        .sum();
                    assert_eq!(pareto, 1, "{cmd:?} built {pareto} fronts:\n{text}");
                    let (_, _, ns, self_ns) =
                        rows.iter().find(|r| r.0 == "run").expect("root `run` row");
                    best_share = best_share.min(*self_ns as f64 / *ns as f64);
                    if best_share <= 0.10 {
                        break;
                    }
                }
                assert!(
                    best_share <= 0.10,
                    "{cmd:?}: `run` keeps {:.1}% self time",
                    100.0 * best_share
                );
            }
        }
    }
}
