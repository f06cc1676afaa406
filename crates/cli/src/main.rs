//! `datareuse` — the prototype exploration tool of the paper, as a CLI.
//!
//! ```text
//! datareuse kernels [--json]
//! datareuse emit    <kernel> [--rust]
//! datareuse explore <kernel> --array NAME [--depth N] [--simulate] [--workingset]
//!                   [--cross-validate] [--gnuplot FILE] [--json] [--explain FILE]
//!                   [--metrics FILE] [--profile-out FILE] [--progress]
//! datareuse curve   <kernel> --array NAME --sizes 8,64,512 [--policy opt|opt-bypass]
//! datareuse orders  <kernel> --array NAME [--limit N]
//! datareuse codegen <kernel> --array NAME [--pair O,I] [--strategy max|partial:G|bypass:G]
//!                   [--selfcheck] [--single-assignment] [--adopt] [--band DEPTH] [--rust]
//! datareuse report  <kernel> [--json] [--explain FILE] [--metrics FILE]
//!                   [--profile-out FILE] [--progress]
//! datareuse serve   [--addr HOST:PORT] [--threads N] [--loops N] [--queue-depth N]
//!                   [--cache-entries N] [--deadline-ms MS]
//!                   [--metrics FILE] [--trace-out FILE] [--slo-p99-ms MS]
//!                   [--slo-hit-ratio R] [--slo-queue F] [--progress]
//! datareuse query   --addr HOST:PORT <request-json>...
//! datareuse top     --addr HOST:PORT [--interval-ms MS] [--once] [--ascii]
//! ```
//!
//! `<kernel>` is a built-in name (see `datareuse kernels`), a
//! generated-corpus name (`gen-matmul-32x32x32`, …), an inline einsum
//! expression such as `'C[i,j] += A[i,k] * B[k,j]'` (also accepted via
//! `--expr EXPR`), a path to a `.dr` DSL file, or `.dr` source text
//! itself (recognised by a leading `array`, `for` or `#`; the served
//! `kernel` field takes the same text, but no path). Expression parse
//! errors print a caret snippet pointing at the offending line:column
//! and exit with the usage code (2).
//!
//! `emit --rust` prints the kernel as a runnable Rust `main.rs` instead
//! of C; `codegen --band DEPTH --rust` prints the footprint-level band
//! copy as a self-checking Rust program (compile it with `rustc`, run
//! it, and it prints `OK <checksum>` iff the transformed stream matches
//! the original).
//!
//! `--metrics FILE` enables the observability registry for the run and
//! writes a `datareuse-metrics-v2` JSON snapshot (span timings, event
//! counters, latency histograms) to FILE;
//! `--progress` narrates the live counters to stderr once per second
//! while the command runs. `serve` records metrics unconditionally (its
//! `stats`/`prom` ops must have data to report); `--trace-out FILE`
//! additionally records request traces and writes them as Chrome
//! trace-event JSON (loadable in Perfetto) when the server drains.
//!
//! `--profile-out FILE` writes the span-derived self-time profile in
//! collapsed-stack format (one `a;b;c SELF_NS` line, `flamegraph.pl`-
//! compatible) when the command finishes. Either export (`--metrics` or
//! `--profile-out`) opens a root `run` span around the command, and
//! `profile: wall_ns N` and `alloc: total_bytes N` lines on stderr
//! report the measured wall time and allocation that the spans' self
//! weights partition.
//!
//! `--explain FILE` runs the exploration through the audit sink and
//! writes one NDJSON record per copy-candidate and per evaluated
//! hierarchy — the `(c', b')` reuse vector, the eq. 1 `C_tot`/`C_R`/
//! `F_R` terms, the eq. 2–3 cost terms, and the terminal verdict
//! (`kept`, `bypass`, `pruned`, or `dominated-by <id>`). The report's
//! `why` section is rendered from the same typed verdicts, and the
//! report prints the one front whose hierarchies the log records.
//!
//! `--cross-validate` replays the trace simulators as an independent
//! oracle over the analytical (symbolic-first) result: the guard-aware
//! trace length must equal `C_tot`, and Belady-optimal replacement at
//! each exact candidate's capacity must need no more upstream traffic
//! than the candidate claims. Verdict lines go to stderr; any
//! disagreement fails the command with exit code 1.
//!
//! Exit codes: 0 on success, 1 on a runtime failure (unreadable kernel
//! file, exploration error, transport failure or generic server error),
//! 2 on a usage error (unknown subcommand, missing or malformed flags) —
//! usage errors also print the usage summary to stderr. `query` maps
//! structured server errors to distinct codes: 3 for `timeout`, 4 for
//! `overloaded`, and prints any attached flight-recorder tail to stderr;
//! a `health` response maps its status to 5 (`degraded`) or 6
//! (`failing`) so probes can alert without parsing JSON.

/// `print!` through [`write_stdout`]: returns early from the enclosing
/// `Result<_, CliError>` function when stdout fails.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))?
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))?
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))?
    };
}

mod top;

use std::io::Write as _;
use std::process::ExitCode;

use datareuse_codegen::{
    emit_program, emit_rust_program, emit_rust_selfcheck_band, gnuplot_script, Series,
};
use datareuse_core::{
    explore_orders, explore_program_explained, explore_signal_explained, ExplorationReport,
    ExploreOptions,
};
use datareuse_exprlang::parse_expression;
use datareuse_kernels::{
    corpus, load_kernel, resolve_kernel, KernelError, BUILTINS, DEFAULT_CORPUS_SEED,
};
use datareuse_loopir::{parse_program, read_addresses, AccessKind, ParseNestError, Program};
use datareuse_memmodel::{BitCount, MemoryTechnology};
use datareuse_obs::Json;
use datareuse_server::ops::{codegen_text, default_array};
use datareuse_server::protocol::{parse_strategy, CodegenSpec};
use datareuse_server::{Client, Server, ServerConfig};
use datareuse_trace::{CurvePolicy, ReuseCurve, TraceStats};

const USAGE: &str = "usage: datareuse <command> [args]
  kernels [--json]              list built-in and generated-corpus kernels
  emit    <kernel> [--rust]     print the kernel as C (or runnable Rust)
  explore <kernel> [--array NAME] [--depth N] [--json] [--simulate]
                   [--workingset] [--cross-validate] [--gnuplot FILE]
                   [--explain FILE] [--metrics FILE] [--profile-out FILE]
                   [--progress]
  report  <kernel> [--json] [--explain FILE] [--metrics FILE]
                   [--profile-out FILE] [--progress]
  orders  <kernel> [--array NAME] [--limit N]
  curve   <kernel> [--array NAME] --sizes 8,64,512 [--policy opt|opt-bypass]
  codegen <kernel> [--array NAME] [--pair O,I] [--strategy max|partial:G|bypass:G]
                   [--selfcheck] [--single-assignment] [--adopt] [--band DEPTH]
                   [--rust]
  serve   [--addr HOST:PORT] [--threads N] [--loops N] [--queue-depth N]
          [--cache-entries N] [--deadline-ms MS]
          [--metrics FILE] [--trace-out FILE] [--slo-p99-ms MS]
          [--slo-hit-ratio R] [--slo-queue F]
          [--profile-out FILE] [--progress]
  query   --addr HOST:PORT <request-json>...
  top     --addr HOST:PORT [--interval-ms MS] [--once] [--ascii]
<kernel> is a built-in name (`datareuse kernels`), a generated-corpus name
(gen-matmul-32x32x32, ...), an inline einsum expression like
'C[i,j] += A[i,k] * B[k,j]' (also via --expr EXPR), or a .dr file's path or text.
query exit codes: 0 ok, 1 transport/server error, 3 timeout, 4 overloaded,
5 health degraded, 6 health failing.";

/// A CLI failure, split by whose fault it is: `Usage` is a malformed
/// invocation (exit 2, prints the usage summary), `Runtime` is a
/// failure of valid work (exit 1), and `Server` is a structured failure
/// carrying its own exit code (3 timeout, 4 overloaded, 5/6 health
/// degraded/failing) so scripts can distinguish retry-later refusals
/// and health verdicts from hard failures. `ClosedStdout` is no failure:
/// the reader closed the pipe (`datareuse kernels | head`), so the
/// command stops and exits 0.
enum CliError {
    Usage(String),
    Runtime(String),
    Server { exit: u8, msg: String },
    ClosedStdout,
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Runtime(msg.to_string())
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn stdout_error(e: std::io::Error) -> CliError {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        CliError::ClosedStdout
    } else {
        CliError::Runtime(format!("cannot write to stdout: {e}"))
    }
}

/// The one path every command's stdout takes (via [`out!`] and
/// [`outln!`]). Unlike `print!`, a write error is returned, not a panic.
fn write_stdout(args: std::fmt::Arguments) -> Result<(), CliError> {
    std::io::stdout().write_fmt(args).map_err(stdout_error)
}

fn flush_stdout() -> Result<(), CliError> {
    std::io::stdout().flush().map_err(stdout_error)
}

/// A subcommand: its name, the flags its `cmd_*` function reads, and
/// that function. A value flag takes the next argument as its operand
/// unless that is another flag; a switch never takes one.
struct Verb {
    name: &'static str,
    values: &'static [&'static str],
    switches: &'static [&'static str],
    run: fn(&Args) -> Result<(), CliError>,
}

const fn verb(
    name: &'static str,
    values: &'static [&'static str],
    switches: &'static [&'static str],
    run: fn(&Args) -> Result<(), CliError>,
) -> Verb {
    Verb {
        name,
        values,
        switches,
        run,
    }
}

#[rustfmt::skip]
const VERBS: &[Verb] = &[
    verb("kernels", &[], &["json"], cmd_kernels),
    verb("emit", &["expr"], &["rust"], cmd_emit),
    verb(
        "explore",
        &["expr", "array", "depth", "gnuplot", "explain", "metrics", "profile-out"],
        &["json", "simulate", "workingset", "cross-validate", "progress"],
        cmd_explore,
    ),
    verb("orders", &["expr", "array", "limit"], &[], cmd_orders),
    verb(
        "report",
        &["expr", "explain", "metrics", "profile-out"],
        &["json", "progress"],
        cmd_report,
    ),
    verb("curve", &["expr", "array", "sizes", "policy"], &[], cmd_curve),
    verb(
        "codegen",
        &["expr", "array", "pair", "strategy", "band"],
        &["selfcheck", "single-assignment", "adopt", "rust"],
        cmd_codegen,
    ),
    verb(
        "serve",
        &[
            "addr", "threads", "loops", "queue-depth", "cache-entries", "deadline-ms",
            "slo-p99-ms", "slo-hit-ratio", "slo-queue", "trace-out", "metrics", "profile-out",
        ],
        &["progress"],
        cmd_serve,
    ),
    verb("query", &["addr"], &[], cmd_query),
    verb("top", &["addr", "interval-ms"], &["once", "ascii"], cmd_top),
];

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Splits `argv` into positionals and `verb`'s flags. A flag the verb
    /// does not read is a usage error naming it.
    fn parse(verb: &Verb, argv: &[String]) -> Result<Self, CliError> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                positional.push(a.clone());
                continue;
            };
            let value = if verb.values.contains(&name) {
                it.next_if(|v| !v.starts_with("--")).cloned()
            } else if verb.switches.contains(&name) {
                None
            } else {
                return Err(usage(format!("unknown flag `{a}` for `{}`", verb.name)));
            };
            flags.push((name.to_string(), value));
        }
        Ok(Self { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn kernel(&self) -> Result<&String, CliError> {
        self.positional
            .first()
            .ok_or_else(|| usage("missing kernel"))
    }
}

/// Renders an expression parse failure as a usage error (exit 2) with a
/// caret snippet pointing at the offending line:column on stderr.
fn expression_usage(src: &str, e: &ParseNestError) -> CliError {
    let line = src.lines().nth(e.line.saturating_sub(1)).unwrap_or("");
    let caret = format!("{}^", " ".repeat(e.column.saturating_sub(1)));
    usage(format!("expression parse error at {e}\n  {line}\n  {caret}"))
}

/// Reads and parses a `.dr` file; errors carry the path and are
/// runtime errors (exit 1).
fn read_dr_file(path: &str) -> Result<Program, CliError> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    parse_program(&src).map_err(|e| CliError::Runtime(format!("{path}:{e}")))
}

/// Resolves the command's kernel operand: `--expr SOURCE`, or the first
/// positional — a built-in or generated-corpus name, a `.dr` file path,
/// or inline `.dr` source or einsum text. This is the one place a `.dr`
/// file is read; everything else goes through [`resolve_kernel`], which
/// decides the form of the text. Expression parse errors are usage
/// errors with a caret snippet; the others are runtime errors (exit 1).
fn cli_kernel(args: &Args) -> Result<Program, CliError> {
    if let Some(src) = args.flag("expr") {
        return parse_expression(src).map_err(|e| expression_usage(src, &e));
    }
    if args.has("expr") {
        return Err(usage("--expr expects an expression string"));
    }
    let name = args.kernel()?;
    let registered =
        BUILTINS.iter().any(|(n, _)| n == name) || corpus().iter().any(|e| &e.name == name);
    if !registered && std::path::Path::new(name).is_file() {
        return read_dr_file(name);
    }
    match resolve_kernel(name) {
        Ok(program) => Ok(program),
        Err(KernelError::Expression(e)) => Err(expression_usage(name, &e)),
        // No kernel text at all: most likely a path that names no file.
        Err(KernelError::Unknown(_)) => read_dr_file(name),
        Err(e) => Err(CliError::Runtime(e.to_string())),
    }
}

fn pick_array(args: &Args, program: &Program) -> Result<String, String> {
    match args.flag("array") {
        Some(a) => Ok(a.to_string()),
        None => default_array(program).ok_or_else(|| "program has no read accesses".to_string()),
    }
}

/// One kernel's iteration-domain / array-footprint summary for the
/// `kernels` listing: (nest count, total iterations, array count, total
/// array elements).
fn kernel_summary(program: &Program) -> (usize, u64, usize, u64) {
    let iters = program.nests().iter().map(|n| n.iteration_count()).sum();
    let elems = program
        .arrays()
        .iter()
        .map(|a| a.extents().iter().product::<i64>() as u64)
        .sum();
    (program.nests().len(), iters, program.arrays().len(), elems)
}

fn kernel_summary_json(name: &str, desc: &str, program: &Program) -> Json {
    let (nests, iters, _, elems) = kernel_summary(program);
    Json::obj([
        ("name", Json::str(name)),
        ("description", Json::str(desc)),
        ("nests", Json::UInt(nests as u64)),
        ("iterations", Json::UInt(iters)),
        (
            "arrays",
            Json::arr(program.arrays().iter().map(|a| {
                Json::obj([
                    ("name", Json::str(a.name())),
                    (
                        "extents",
                        Json::arr(a.extents().iter().map(|&e| Json::UInt(e as u64))),
                    ),
                    ("bits", Json::UInt(a.elem_bits() as u64)),
                ])
            })),
        ),
        ("footprint_elements", Json::UInt(elems)),
    ])
}

fn cmd_kernels(args: &Args) -> Result<(), CliError> {
    if args.has("json") {
        let builtins: Vec<Json> = BUILTINS
            .iter()
            .map(|(name, desc)| {
                let p = load_kernel(name).expect("builtins load");
                kernel_summary_json(name, desc, &p)
            })
            .collect();
        let corpus_entries: Vec<Json> = corpus()
            .iter()
            .map(|e| {
                let p = load_kernel(&e.name).expect("corpus entries load");
                let mut doc = kernel_summary_json(&e.name, &e.description, &p);
                if let Json::Obj(fields) = &mut doc {
                    fields.insert(2, ("expr".to_string(), Json::str(&e.expr)));
                }
                doc
            })
            .collect();
        outln!(
            "{}",
            Json::obj([
                ("builtins", Json::Arr(builtins)),
                ("corpus_seed", Json::UInt(DEFAULT_CORPUS_SEED)),
                ("corpus", Json::Arr(corpus_entries)),
            ])
        );
        return Ok(());
    }
    outln!("built-in kernels:");
    for (name, desc) in BUILTINS {
        let p = load_kernel(name).expect("builtins load");
        let (nests, iters, arrays, elems) = kernel_summary(&p);
        outln!("  {name:<22} {desc}");
        outln!(
            "  {:<22} {nests} nest(s), {iters} iterations, \
             {arrays} array(s), {elems} elements",
            ""
        );
    }
    outln!();
    outln!(
        "generated corpus ({} entries, seed {DEFAULT_CORPUS_SEED:#x}):",
        corpus().len()
    );
    for e in corpus() {
        let p = load_kernel(&e.name).expect("corpus entries load");
        let (nests, iters, arrays, elems) = kernel_summary(&p);
        outln!("  {:<22} {}", e.name, e.description);
        outln!(
            "  {:<22} {nests} nest(s), {iters} iterations, \
             {arrays} array(s), {elems} elements",
            ""
        );
    }
    Ok(())
}

fn cmd_emit(args: &Args) -> Result<(), CliError> {
    let program = cli_kernel(args)?;
    if args.has("rust") {
        out!("{}", emit_rust_program(&program));
    } else {
        out!("{}", emit_program(&program));
    }
    Ok(())
}

/// One command's observability lifecycle: `--metrics FILE` and
/// `--profile-out FILE` enable the registry and open a root `run` span
/// around the command, so the exported self weights partition the
/// measured totals; `--progress` starts the live narrator.
/// [`Observability::finish`] closes the span and writes the requested
/// artifacts.
struct Observability {
    metrics_path: Option<String>,
    profile_path: Option<String>,
    progress: Option<datareuse_obs::Progress>,
    run_span: Option<datareuse_obs::SpanGuard>,
    started: std::time::Instant,
    /// Process-wide `bytes_allocated` when the command started; the
    /// delta at finish is the `alloc: total_bytes N` stderr line.
    alloc_baseline: u64,
}

fn path_flag(args: &Args, name: &str) -> Result<Option<String>, CliError> {
    match args.flag(name) {
        Some(path) => Ok(Some(path.to_string())),
        None if args.has(name) => Err(usage(format!("--{name} expects a file path"))),
        None => Ok(None),
    }
}

fn start_observability(args: &Args) -> Result<Observability, CliError> {
    let metrics_path = args.flag("metrics").map(str::to_string);
    let profile_path = path_flag(args, "profile-out")?;
    let exported = metrics_path.is_some() || profile_path.is_some();
    if exported {
        datareuse_obs::set_metrics_enabled(true);
    }
    let run_span = exported.then(|| datareuse_obs::span("run"));
    let progress = args
        .has("progress")
        .then(|| datareuse_obs::Progress::start(std::time::Duration::from_secs(1)));
    Ok(Observability {
        metrics_path,
        profile_path,
        progress,
        run_span,
        started: std::time::Instant::now(),
        alloc_baseline: datareuse_obs::alloc_snapshot().bytes_allocated,
    })
}

impl Observability {
    /// Stops the narrator, closes the root `run` span, and writes the
    /// collapsed-stack profile and the metrics snapshot if they were
    /// requested. The `profile: wall_ns N` and `alloc: total_bytes N`
    /// stderr lines are the totals the spans' self weights must sum back
    /// to (pinned by the CLI gates).
    fn finish(mut self) -> Result<(), String> {
        self.progress.take();
        if self.run_span.take().is_some() {
            let wall_ns = self.started.elapsed().as_nanos();
            let total_bytes = datareuse_obs::alloc_snapshot()
                .bytes_allocated
                .saturating_sub(self.alloc_baseline);
            eprintln!("profile: wall_ns {wall_ns}");
            eprintln!("alloc: total_bytes {total_bytes}");
        }
        if let Some(path) = &self.profile_path {
            std::fs::write(path, datareuse_obs::collapsed_stacks())
                .map_err(|e| format!("cannot write profile to `{path}`: {e}"))?;
            eprintln!("profile (collapsed stacks) written to {path}");
        }
        if let Some(path) = &self.metrics_path {
            write_metrics(path)?;
        }
        Ok(())
    }
}

/// Writes the metrics snapshot accumulated so far to `path`.
fn write_metrics(path: &str) -> Result<(), String> {
    let json = datareuse_obs::snapshot().to_json().to_string();
    std::fs::write(path, json + "\n")
        .map_err(|e| format!("cannot write metrics to `{path}`: {e}"))?;
    eprintln!("metrics written to {path}");
    Ok(())
}

/// Creates the exploration audit sink when `--explain FILE` is given.
fn explain_sink(args: &Args) -> Result<Option<(String, datareuse_obs::Explain)>, CliError> {
    match args.flag("explain") {
        Some(path) => Ok(Some((path.to_string(), datareuse_obs::Explain::new()))),
        None if args.has("explain") => Err(usage("--explain expects a file path")),
        None => Ok(None),
    }
}

/// Writes the accumulated audit log as NDJSON to `path`, under the same
/// `render` span as the report it explains.
fn write_explain(path: &str, sink: &datareuse_obs::Explain) -> Result<(), String> {
    let _timer = datareuse_obs::span("render");
    std::fs::write(path, sink.to_ndjson())
        .map_err(|e| format!("cannot write explain log to `{path}`: {e}"))?;
    eprintln!("explain log ({} records) written to {path}", sink.len());
    Ok(())
}

/// Replays the trace simulators as an independent oracle over the
/// analytical result: the guard-aware trace length must equal `C_tot`,
/// and Belady-optimal replacement at each exact candidate's capacity
/// must need at most the candidate's claimed upstream traffic (the
/// analytical schedule is feasible, so the optimum can only match or
/// beat it). Verdict lines go to stderr so `--json` stdout stays clean.
fn cross_validate(
    program: &Program,
    array: &str,
    ex: &datareuse_core::SignalExploration,
) -> Result<(), CliError> {
    let trace = read_addresses(program, array);
    let mut failures: Vec<String> = Vec::new();
    if trace.len() as u64 != ex.c_tot {
        failures.push(format!(
            "analytical C_tot {} != trace length {}",
            ex.c_tot,
            trace.len()
        ));
    }
    let mut checked = 0usize;
    for c in ex.candidates.iter().filter(|c| c.exact && c.size > 0) {
        checked += 1;
        let sim = if c.bypasses == 0 {
            datareuse_trace::opt_simulate(&trace, c.size)
        } else {
            datareuse_trace::opt_simulate_bypass(&trace, c.size)
        };
        if sim.misses() > c.fills + c.bypasses {
            failures.push(format!(
                "candidate of size {}: Belady needs {} upstream reads, \
                 analytical model claims {} (fills {} + bypasses {})",
                c.size,
                sim.misses(),
                c.fills + c.bypasses,
                c.fills,
                c.bypasses
            ));
        }
    }
    eprintln!(
        "cross-validation: C_tot {} vs trace length {}, {checked} exact \
         candidates replayed against the Belady oracle",
        ex.c_tot,
        trace.len()
    );
    if failures.is_empty() {
        eprintln!("cross-validation: PASS");
        Ok(())
    } else {
        for f in &failures {
            eprintln!("cross-validation: FAIL — {f}");
        }
        Err(format!(
            "cross-validation failed: {} disagreement(s) between the \
             analytical model and the trace simulators",
            failures.len()
        )
        .into())
    }
}

fn cmd_explore(args: &Args) -> Result<(), CliError> {
    let program = cli_kernel(args)?;
    let array = pick_array(args, &program)?;
    let mut opts = ExploreOptions::default();
    if let Some(d) = args.flag("depth") {
        opts.max_chain_depth = d.parse().map_err(|_| usage("bad --depth"))?;
    }
    let obs = start_observability(args)?;
    let explain = explain_sink(args)?;
    let sink = explain.as_ref().map(|(_, s)| s);
    let ex = explore_signal_explained(&program, &array, &opts, sink).map_err(|e| e.to_string())?;
    if args.has("cross-validate") {
        cross_validate(&program, &array, &ex)?;
    }
    let report =
        ExplorationReport::build_explained(&ex, &opts, &MemoryTechnology::new(), &BitCount, sink);
    if args.has("json") {
        {
            let _timer = datareuse_obs::span("render");
            outln!("{}", report.to_json());
        }
        if let Some((path, s)) = &explain {
            write_explain(path, s)?;
        }
        obs.finish()?;
        return Ok(());
    }
    out!("{report}");
    // The working-set and simulation views replay the same read trace;
    // generate it once instead of once per view.
    let trace = (args.has("workingset") || args.has("simulate"))
        .then(|| read_addresses(&program, &array));
    if args.has("workingset") {
        let trace = trace.as_deref().expect("trace generated above");
        outln!("\nworking-set profile (window, avg, peak):");
        for w in [64u64, 256, 1024, 4096] {
            let ws = datareuse_trace::working_set_profile(trace, w);
            outln!("  {:>6}  {:>10.1}  {:>8}", ws.window, ws.average, ws.peak);
        }
    }
    if args.has("simulate") {
        let trace = trace.as_deref().expect("trace generated above");
        let stats = TraceStats::compute(trace);
        outln!(
            "\nsimulation: {} accesses, footprint {}, average reuse {:.1}",
            stats.accesses,
            stats.footprint,
            stats.average_reuse()
        );
        let sizes: Vec<u64> = ex.candidates.iter().map(|c| c.size).collect();
        let curve = ReuseCurve::simulate(trace, sizes, CurvePolicy::Optimal);
        outln!("Belady-optimal reuse factors at the analytical sizes:");
        for p in curve.points() {
            outln!("  {:>8}  {:>8.2}", p.size, p.reuse_factor);
        }
    }
    if let Some(path) = args.flag("gnuplot") {
        let analytic: Vec<(f64, f64)> = ex
            .reuse_factor_points()
            .into_iter()
            .map(|(s, f)| (s as f64, f))
            .collect();
        let pareto: Vec<(f64, f64)> = report
            .pareto
            .iter()
            .map(|row| ((row.onchip_words as f64).max(1.0), row.normalized_power))
            .collect();
        let script = gnuplot_script(
            &format!("Data reuse exploration: {array}"),
            "copy-candidate size [elements]",
            "F_R / normalized power",
            true,
            &[
                Series::new("analytical F_R", analytic).with_style("points pt 7"),
                Series::new("Pareto power", pareto).with_style("linespoints"),
            ],
        );
        std::fs::write(path, script).map_err(|e| e.to_string())?;
        outln!("\ngnuplot script written to {path}");
    }
    if let Some((path, s)) = &explain {
        write_explain(path, s)?;
    }
    obs.finish()?;
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), CliError> {
    let program = cli_kernel(args)?;
    let opts = ExploreOptions::default();
    let tech = MemoryTechnology::new();
    let obs = start_observability(args)?;
    let explain = explain_sink(args)?;
    let sink = explain.as_ref().map(|(_, s)| s);
    let explorations =
        explore_program_explained(&program, &opts, sink).map_err(|e| e.to_string())?;
    // One sink serves all signals: each report appends its front's
    // `chain` records after every signal's `candidate` records.
    let reports: Vec<ExplorationReport> = explorations
        .iter()
        .map(|ex| ExplorationReport::build_explained(ex, &opts, &tech, &BitCount, sink))
        .collect();
    if args.has("json") {
        let _timer = datareuse_obs::span("render");
        let docs: Vec<String> = reports.iter().map(ExplorationReport::to_json).collect();
        outln!("[{}]", docs.join(","));
    } else {
        for (i, report) in reports.iter().enumerate() {
            if i > 0 {
                outln!();
            }
            out!("{report}");
        }
    }
    if let Some((path, s)) = &explain {
        write_explain(path, s)?;
    }
    obs.finish()?;
    Ok(())
}

fn cmd_orders(args: &Args) -> Result<(), CliError> {
    let program = cli_kernel(args)?;
    let array = pick_array(args, &program)?;
    let limit: usize = args
        .flag("limit")
        .map(|v| v.parse().map_err(|_| usage("bad --limit")))
        .transpose()?
        .unwrap_or(24);
    let tech = MemoryTechnology::new();
    let orders = explore_orders(
        &program,
        &array,
        &ExploreOptions::default(),
        &tech,
        &BitCount,
        limit,
    )
    .map_err(|e| e.to_string())?;
    outln!("loop orderings for `{array}` ranked by best normalized power:");
    for o in &orders {
        outln!(
            "  [{}]  power {:.4} at {} on-chip elements",
            o.loop_names.join(", "),
            o.best_power,
            o.best_words
        );
    }
    Ok(())
}

fn cmd_curve(args: &Args) -> Result<(), CliError> {
    let program = cli_kernel(args)?;
    let array = pick_array(args, &program)?;
    let sizes: Vec<u64> = args
        .flag("sizes")
        .ok_or_else(|| usage("missing --sizes"))?
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| usage(format!("bad size `{s}`"))))
        .collect::<Result<_, _>>()?;
    let policy = match args.flag("policy") {
        None | Some("opt") => CurvePolicy::Optimal,
        Some("opt-bypass") => CurvePolicy::OptimalBypass,
        Some(other) => return Err(usage(format!("unknown policy `{other}`"))),
    };
    let trace = read_addresses(&program, &array);
    let curve = ReuseCurve::simulate(&trace, sizes, policy);
    out!("{}", curve.to_gnuplot());
    Ok(())
}

fn cmd_codegen(args: &Args) -> Result<(), CliError> {
    let program = cli_kernel(args)?;
    let array = pick_array(args, &program)?;
    let pair = match args.flag("pair") {
        Some(p) => {
            let parts: Vec<&str> = p.split(',').collect();
            if parts.len() != 2 {
                return Err(usage("--pair expects O,I"));
            }
            Some((
                parts[0].trim().parse().map_err(|_| usage("bad --pair"))?,
                parts[1].trim().parse().map_err(|_| usage("bad --pair"))?,
            ))
        }
        None => None,
    };
    let spec = CodegenSpec {
        pair,
        strategy: parse_strategy(args.flag("strategy")).map_err(usage)?,
        selfcheck: args.has("selfcheck"),
        adopt: args.has("adopt"),
        single_assignment: args.has("single-assignment"),
        band: args
            .flag("band")
            .map(|d| d.parse().map_err(|_| usage("bad --band depth")))
            .transpose()?,
    };
    if args.has("rust") {
        // The Rust emitter covers the band template only (the Fig. 8
        // pairwise forms stay C); it is always a self-check program.
        let Some(depth) = spec.band else {
            return Err(usage("--rust requires --band DEPTH"));
        };
        let (nest_idx, access_idx) = program
            .nests()
            .iter()
            .enumerate()
            .find_map(|(ni, nest)| {
                nest.accesses()
                    .iter()
                    .position(|a| a.array() == array && a.kind() == AccessKind::Read)
                    .map(|ai| (ni, ai))
            })
            .ok_or_else(|| format!("no read access to `{array}`"))?;
        let code = emit_rust_selfcheck_band(&program, nest_idx, access_idx, depth)
            .map_err(|e| e.to_string())?;
        out!("{code}");
        return Ok(());
    }
    // The server's codegen op runs through the same function, so
    // serve-mode output is byte-identical to this subcommand's.
    let code = codegen_text(&program, &array, &spec)?;
    out!("{code}");
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let mut config = ServerConfig {
        addr: args.flag("addr").unwrap_or("127.0.0.1:0").to_string(),
        ..ServerConfig::default()
    };
    if let Some(t) = args.flag("threads") {
        let n: usize = t.parse().map_err(|_| usage("bad --threads"))?;
        // 0 or absurd requests are clamped with a warning, like
        // DATAREUSE_THREADS everywhere else in the workspace.
        config.threads = datareuse_core::sanitize_threads(n, "--threads").unwrap_or(0);
    }
    if let Some(q) = args.flag("queue-depth") {
        config.queue_depth = q.parse().map_err(|_| usage("bad --queue-depth"))?;
    }
    if let Some(c) = args.flag("cache-entries") {
        config.cache_entries = c.parse().map_err(|_| usage("bad --cache-entries"))?;
    }
    if let Some(l) = args.flag("loops") {
        config.loops = l.parse().map_err(|_| usage("bad --loops"))?;
    }
    if let Some(d) = args.flag("deadline-ms") {
        let ms: u64 = d.parse().map_err(|_| usage("bad --deadline-ms"))?;
        config.default_deadline = std::time::Duration::from_millis(ms);
    }
    if let Some(p) = args.flag("slo-p99-ms") {
        let ms: u64 = p.parse().map_err(|_| usage("bad --slo-p99-ms"))?;
        config.slo.p99_latency = std::time::Duration::from_millis(ms);
    }
    if let Some(r) = args.flag("slo-hit-ratio") {
        let ratio: f64 = r.parse().map_err(|_| usage("bad --slo-hit-ratio"))?;
        if !(0.0..=1.0).contains(&ratio) {
            return Err(usage("--slo-hit-ratio must be in 0..=1"));
        }
        config.slo.min_hit_ratio = ratio;
    }
    if let Some(q) = args.flag("slo-queue") {
        let frac: f64 = q.parse().map_err(|_| usage("bad --slo-queue"))?;
        if !(0.0..=1.0).contains(&frac) {
            return Err(usage("--slo-queue must be in 0..=1"));
        }
        config.slo.max_queue_saturation = frac;
    }
    let obs = start_observability(args)?;
    // Serving always records metrics: the `stats`/`prom` ops and the
    // flight recorder must have data even without `--metrics FILE`.
    datareuse_obs::set_metrics_enabled(true);
    let trace_path = args.flag("trace-out").map(str::to_string);
    if trace_path.is_some() {
        datareuse_obs::set_tracing_enabled(true);
    }
    let server = Server::bind(&config)?;
    let addr = server.local_addr()?;
    // Single discovery line; port 0 callers parse the chosen port here.
    outln!("datareuse-serve: listening on {addr}");
    flush_stdout()?;
    server.run()?;
    obs.finish()?;
    if let Some(path) = &trace_path {
        // Spans already drained by `trace` ops are gone; this writes
        // whatever is still buffered at drain time.
        let doc = datareuse_obs::chrome_trace_json(&datareuse_obs::take_trace_events());
        std::fs::write(path, doc.to_string() + "\n")
            .map_err(|e| format!("cannot write trace to `{path}`: {e}"))?;
        eprintln!("trace written to {path}");
    }
    eprintln!("datareuse-serve: drained, exiting");
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), CliError> {
    let addr = args.flag("addr").ok_or_else(|| usage("missing --addr"))?;
    if args.positional.is_empty() {
        return Err(usage("missing request JSON (one per positional argument)"));
    }
    let mut client = Client::connect(addr)?;
    // The first structured error decides the exit code; later requests
    // still run so every response is printed.
    let mut first_error: Option<CliError> = None;
    for line in &args.positional {
        let response = client.send_raw(line)?;
        outln!("{response}");
        let Ok(doc) = Json::parse(&response) else {
            continue;
        };
        if doc.get("ok").and_then(Json::as_bool) != Some(false) {
            // A successful `health` response still decides the exit
            // code: degraded → 5, failing → 6, so probes can alert on
            // the code alone.
            let status = doc
                .get("result")
                .filter(|r| r.get("checks").is_some())
                .and_then(|r| r.get("status"))
                .and_then(Json::as_str);
            let exit = match status {
                Some("degraded") => Some(5),
                Some("failing") => Some(6),
                _ => None,
            };
            if let (Some(exit), None) = (exit, &first_error) {
                first_error = Some(CliError::Server {
                    exit,
                    msg: format!(
                        "server health is {} (see response above)",
                        status.unwrap_or("unknown")
                    ),
                });
            }
            continue;
        }
        let error = doc.get("error");
        let code = error
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("");
        // A refusal's context: the server attaches its flight-recorder
        // tail to timeout/overloaded errors; surface it on stderr as
        // NDJSON so stdout stays one clean response per line.
        if let Some(tail) = error.and_then(|e| e.get("flight")).and_then(Json::as_array) {
            eprintln!("datareuse: flight-recorder tail ({} events):", tail.len());
            for event in tail {
                eprintln!("{event}");
            }
        }
        if first_error.is_none() {
            let exit = match code {
                "timeout" => 3,
                "overloaded" => 4,
                _ => 1,
            };
            first_error = Some(CliError::Server {
                exit,
                msg: format!("server reported `{code}` (see response above)"),
            });
        }
    }
    match first_error {
        Some(err) => Err(err),
        None => Ok(()),
    }
}

fn run() -> Result<(), CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return Err(usage("missing command"));
    };
    let verb = VERBS
        .iter()
        .find(|v| v.name == cmd)
        .ok_or_else(|| usage(format!("unknown command `{cmd}`")))?;
    (verb.run)(&Args::parse(verb, &argv[1..])?)
}

fn cmd_top(args: &Args) -> Result<(), CliError> {
    let addr = args.flag("addr").ok_or_else(|| usage("missing --addr"))?;
    let interval_ms: u64 = args
        .flag("interval-ms")
        .map(|v| v.parse().map_err(|_| usage("bad --interval-ms")))
        .transpose()?
        .unwrap_or(1000);
    top::run_top(&top::TopOptions {
        addr: addr.to_string(),
        interval: std::time::Duration::from_millis(interval_ms.max(50)),
        once: args.has("once"),
        ascii: args.has("ascii"),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Runtime(msg)) => {
            eprintln!("datareuse: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Server { exit, msg }) => {
            eprintln!("datareuse: {msg}");
            ExitCode::from(exit)
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("datareuse: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::ClosedStdout) => ExitCode::SUCCESS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn explore_args(items: &[&str]) -> Result<Args, CliError> {
        let verb = VERBS.iter().find(|v| v.name == "explore").unwrap();
        Args::parse(verb, &argv(items))
    }

    #[test]
    fn args_separate_positionals_and_flags() {
        let Ok(a) = explore_args(&["me", "--array", "Old", "--simulate", "--depth", "3"]) else {
            panic!("explore reads all these flags");
        };
        assert_eq!(a.positional, vec!["me"]);
        assert_eq!(a.flag("array"), Some("Old"));
        assert_eq!(a.flag("depth"), Some("3"));
        assert!(a.has("simulate"));
        assert!(!a.has("array-x"));
        assert_eq!(a.flag("simulate"), None);
    }

    #[test]
    fn flags_do_not_swallow_following_flags() {
        let Ok(a) = explore_args(&["--simulate", "--array", "Old"]) else {
            panic!("explore reads both flags");
        };
        assert!(a.has("simulate"));
        assert_eq!(a.flag("array"), Some("Old"));
    }

    #[test]
    fn builtin_kernels_all_load() {
        for (name, _) in BUILTINS {
            let p = load_kernel(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!p.nests().is_empty(), "{name} has nests");
        }
    }

    #[test]
    fn default_array_prefers_most_read_signal() {
        let p = load_kernel("conv2d").unwrap();
        // image: 9 reads/iteration vs coef: 9 (same count) vs out: writes.
        let pick = default_array(&p).unwrap();
        assert!(pick == "image" || pick == "coef");
    }

    #[test]
    fn unknown_kernel_reports_path_error() {
        let verb = VERBS.iter().find(|v| v.name == "emit").unwrap();
        let Ok(args) = Args::parse(verb, &argv(&["/no/such/file.dr"])) else {
            panic!("emit takes a kernel operand");
        };
        let Err(CliError::Runtime(e)) = cli_kernel(&args) else {
            panic!("a missing file is a runtime error");
        };
        assert!(e.starts_with("cannot read `/no/such/file.dr`"), "{e}");
    }

    #[test]
    fn usage_and_runtime_errors_are_distinct() {
        assert!(matches!(usage("x"), CliError::Usage(_)));
        let runtime: CliError = "y".into();
        assert!(matches!(runtime, CliError::Runtime(_)));
    }
}
