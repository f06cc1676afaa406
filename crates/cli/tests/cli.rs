//! Black-box tests of the `datareuse` binary.

use std::process::Command;

use datareuse_core::Json;

fn datareuse(args: &[&str]) -> (bool, String, String) {
    datareuse_env(args, &[])
}

fn datareuse_env(args: &[&str], env: &[(&str, &str)]) -> (bool, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_datareuse"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("datareuse_cli_{}_{name}", std::process::id()))
}

#[test]
fn kernels_lists_builtins() {
    let (ok, stdout, _) = datareuse(&["kernels"]);
    assert!(ok);
    for name in ["me", "susan", "conv2d", "matmul", "sobel", "downsample"] {
        assert!(stdout.contains(name), "missing `{name}` in:\n{stdout}");
    }
}

#[test]
fn kernels_lists_the_generated_corpus_with_domain_summaries() {
    let (ok, stdout, _) = datareuse(&["kernels"]);
    assert!(ok);
    for flagship in ["gen-matmul-32x32x32", "gen-conv2d-32x32x3", "gen-stencil2d-32x32"] {
        assert!(stdout.contains(flagship), "missing `{flagship}` in:\n{stdout}");
    }
    // Every listing row carries its iteration-domain / footprint line.
    assert!(stdout.contains("iterations"), "{stdout}");
    assert!(stdout.contains("elements"), "{stdout}");
}

#[test]
fn kernels_json_is_machine_readable_and_covers_both_registries() {
    let (ok, stdout, stderr) = datareuse(&["kernels", "--json"]);
    assert!(ok, "{stderr}");
    let doc = Json::parse(stdout.trim()).expect("kernels JSON parses");
    let builtins = doc.get("builtins").and_then(Json::as_array).expect("builtins");
    assert!(builtins.len() >= 10);
    let corpus = doc.get("corpus").and_then(Json::as_array).expect("corpus");
    assert!(corpus.len() >= 36, "corpus has {} entries", corpus.len());
    for entry in corpus {
        let name = entry.get("name").and_then(Json::as_str).expect("name");
        assert!(name.starts_with("gen-"), "{name}");
        assert!(entry.get("expr").and_then(Json::as_str).is_some(), "{name}: no expr");
        assert!(
            entry.get("iterations").and_then(Json::as_u64).unwrap_or(0) > 0,
            "{name}: empty domain"
        );
        let arrays = entry.get("arrays").and_then(Json::as_array).expect("arrays");
        assert!(!arrays.is_empty(), "{name}: no array footprint");
    }
}

#[test]
fn inline_expressions_explore_like_builtin_kernels() {
    // Positional expression operand.
    let (ok, stdout, stderr) =
        datareuse(&["explore", "C[i,j] += A[i,k] * B[k,j]", "--array", "A"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("signal `A`"), "{stdout}");
    // Same program through --expr; matmul at the default extent is the
    // builtin matmul, so the reports must agree.
    let (ok2, stdout2, _) =
        datareuse(&["explore", "--expr", "C[i,j] += A[i,k] * B[k,j]", "--array", "A", "--json"]);
    assert!(ok2);
    let (ok3, stdout3, _) = datareuse(&["explore", "matmul", "--array", "A", "--json"]);
    assert!(ok3);
    assert_eq!(stdout2, stdout3, "expression-derived matmul diverges from builtin");
}

#[test]
fn arrays_read_through_one_index_expression_explore_apart() {
    // `B` reads through `A`'s exact index expression. Each array is its
    // own signal, so `A` explores exactly as it does without the `B`
    // read, from an einsum and from a .dr file alike.
    let (ok, shared, stderr) = datareuse(&[
        "explore",
        "C[i] += A[i,k] * B[i,k]",
        "--array",
        "A",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    let (ok, alone, stderr) = datareuse(&["explore", "C[i] += A[i,k]", "--array", "A", "--json"]);
    assert!(ok, "{stderr}");
    assert_eq!(shared, alone);
    let (ok, stdout, stderr) = datareuse(&["report", "C[i] += A[i,k] * B[i,k]", "--json"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains(r#""array":"B""#), "{stdout}");

    let dir = std::env::temp_dir().join(format!("datareuse_cli_shared_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let nest = |body: &str| {
        format!("array A[23]; array B[23]; for j in 0..16 {{ for k in 0..8 {{ {body} }} }}")
    };
    let shared_dr = dir.join("shared.dr");
    let alone_dr = dir.join("alone.dr");
    std::fs::write(&shared_dr, nest("read A[j + k]; read B[j + k];")).unwrap();
    std::fs::write(&alone_dr, nest("read A[j + k];")).unwrap();
    let explore_a = |path: &std::path::Path| {
        let (ok, stdout, stderr) =
            datareuse(&["explore", path.to_str().unwrap(), "--array", "A", "--json"]);
        assert!(ok, "{stderr}");
        stdout
    };
    let shared = explore_a(&shared_dr);
    assert!(shared.contains(r#""c_tot":128"#), "{shared}");
    assert_eq!(shared, explore_a(&alone_dr));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn expression_parse_errors_print_a_caret_snippet_and_exit_2() {
    let (code, stderr) = exit_code_of(&["explore", "C[i,j] += A[i,k * B[k,j]"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("1:17"), "no line:column in: {stderr}");
    assert!(
        stderr.lines().any(|l| l.trim_end().ends_with('^')),
        "no caret line in: {stderr}"
    );
    assert!(stderr.contains("C[i,j] += A[i,k * B[k,j]"), "{stderr}");
    assert!(stderr.contains("usage: datareuse"), "{stderr}");
}

#[test]
fn emit_rust_prints_a_runnable_program() {
    let (ok, stdout, _) = datareuse(&["emit", "gen-matmul-32x32x32", "--rust"]);
    assert!(ok);
    assert!(stdout.contains("fn main() {"), "{stdout}");
    assert!(stdout.contains("let mut A: Vec<u16>"), "{stdout}");
    assert!(stdout.contains("println!(\"OK {checksum}\");"), "{stdout}");
}

#[test]
fn codegen_rust_band_emits_a_selfcheck_program() {
    let (ok, stdout, stderr) = datareuse(&[
        "codegen",
        "gen-conv2d-32x32x3",
        "--array",
        "image",
        "--band",
        "1",
        "--rust",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("fn run_original"), "{stdout}");
    assert!(stdout.contains("fn run_transformed"), "{stdout}");
    assert!(stdout.contains("MISMATCH"), "{stdout}");
    // --rust without --band is a usage error.
    let (code, stderr) = exit_code_of(&["codegen", "matmul", "--array", "A", "--rust"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--band"), "{stderr}");
}

#[test]
fn emit_prints_c_for_builtin() {
    let (ok, stdout, _) = datareuse(&["emit", "me-small"]);
    assert!(ok);
    assert!(stdout.contains("uint8_t Old[39][39];"));
    assert!(stdout.contains("for (int i1 = 0; i1 <= 7; i1++) {"));
}

#[test]
fn explore_defaults_to_a_read_array_and_accepts_explicit_one() {
    // Old and New tie on read count; the default picks one of them.
    let (ok, stdout, _) = datareuse(&["explore", "me-small"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("signal `New`") || stdout.contains("signal `Old`"));
    assert!(stdout.contains("Pareto front"));
    let (ok, stdout, _) = datareuse(&["explore", "me-small", "--array", "Old"]);
    assert!(ok);
    assert!(stdout.contains("signal `Old`"));
}

#[test]
fn explore_accepts_dsl_files() {
    let dir = std::env::temp_dir().join(format!("datareuse_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("window.dr");
    std::fs::write(
        &path,
        "array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; } }",
    )
    .unwrap();
    let (ok, stdout, stderr) = datareuse(&["explore", path.to_str().unwrap(), "--simulate"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("signal `A`: 128 reads"));
    assert!(stdout.contains("Belady-optimal reuse factors"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn curve_prints_gnuplot_rows() {
    let (ok, stdout, _) = datareuse(&["curve", "me-small", "--sizes", "8,64", "--policy", "opt"]);
    assert!(ok);
    assert!(stdout.starts_with("# size"));
    assert_eq!(stdout.lines().count(), 3);
}

#[test]
fn codegen_emits_template() {
    let (ok, stdout, _) = datareuse(&[
        "codegen",
        "me-small",
        "--array",
        "Old",
        "--pair",
        "3,5",
        "--strategy",
        "bypass:2",
    ]);
    assert!(ok);
    assert!(stdout.contains("Old_sub"));
    assert!(stdout.contains("bypass"));
}

#[test]
fn orders_ranks_loop_permutations() {
    let (ok, stdout, _) = datareuse(&["orders", "matmul", "--array", "B", "--limit", "6"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("loop orderings for `B`"));
    assert!(stdout.lines().count() >= 7);
}

#[test]
fn report_covers_all_signals() {
    let (ok, stdout, _) = datareuse(&["report", "me-small"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("signal `New`"));
    assert!(stdout.contains("signal `Old`"));
}

#[test]
fn a_reader_closing_stdout_early_is_a_clean_exit() {
    use std::io::Read as _;
    use std::process::Stdio;
    // `report` on a 3000×3000 sliding window prints about 300 KiB, well
    // past a 64 KiB pipe buffer, so the writer is still printing when
    // the reader hangs up after 300 bytes (`datareuse report … | head`).
    let n = 3000;
    let path = temp_path("wide_window.dr");
    std::fs::write(
        &path,
        format!(
            "array A[{}]; for i in 0..{n} {{ for j in 0..{n} {{ read A[i + j]; }} }}",
            2 * n - 1
        ),
    )
    .unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_datareuse"))
        .args(["report", path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut head = [0u8; 300];
    child.stdout.take().unwrap().read_exact(&mut head).unwrap();
    let out = child.wait_with_output().unwrap();
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(String::from_utf8_lossy(&head).contains("signal `A`"));
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

#[test]
fn explore_json_emits_machine_readable_report() {
    let (ok, stdout, stderr) = datareuse(&["explore", "me-small", "--array", "Old", "--json"]);
    assert!(ok, "{stderr}");
    let line = stdout.trim();
    assert!(line.starts_with("{\"array\":\"Old\""), "got: {line}");
    assert!(line.ends_with('}'));
    assert!(line.contains("\"candidates\":[{\"source\":"));
    assert!(line.contains("\"pareto\":[{\"level_sizes\":"));
}

#[test]
fn report_json_emits_one_document_per_signal() {
    let (ok, stdout, stderr) = datareuse(&["report", "me-small", "--json"]);
    assert!(ok, "{stderr}");
    let line = stdout.trim();
    assert!(line.starts_with('[') && line.ends_with(']'), "got: {line}");
    assert!(line.contains("\"array\":\"New\""));
    assert!(line.contains("\"array\":\"Old\""));
}

#[test]
fn codegen_selfcheck_emits_main() {
    let (ok, stdout, _) = datareuse(&[
        "codegen",
        "fir",
        "--array",
        "x",
        "--pair",
        "0,1",
        "--selfcheck",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("int main(void)"));
    assert!(stdout.contains("run_transformed"));
}

#[test]
fn explore_workingset_flag_prints_profile() {
    let (ok, stdout, _) = datareuse(&["explore", "me-small", "--array", "Old", "--workingset"]);
    assert!(ok);
    assert!(stdout.contains("working-set profile"));
}

#[test]
fn explore_metrics_emits_valid_json_covering_the_pipeline() {
    let path = temp_path("metrics.json");
    let (ok, _, stderr) = datareuse(&[
        "explore",
        "susan-small",
        "--simulate",
        "--metrics",
        path.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("metrics written to"), "{stderr}");
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    // The artifact must round-trip through the in-repo JSON reader.
    let doc = Json::parse(&text).expect("metrics JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("datareuse-metrics-v2")
    );
    let counters = doc.get("counters").expect("counters section");
    let counter = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    // Exploration, chain costing, and a trace simulator all recorded work.
    assert!(counter("explore_candidates_generated") > 0);
    assert!(counter("chains_enumerated") > 0);
    assert!(counter("chains_evaluated") > 0);
    assert!(counter("pareto_points_kept") > 0);
    assert!(counter("belady_accesses") > 0, "Belady simulator uncovered");
    // v2 embeds histograms: the --simulate pass ran the trace simulator,
    // and its percentiles must be ordered.
    let sim = doc
        .get("hists")
        .and_then(|h| h.get("trace_sim_run_ns"))
        .expect("trace_sim_run_ns histogram");
    let q = |name: &str| sim.get(name).and_then(Json::as_u64).unwrap();
    assert!(q("count") > 0, "simulator runs recorded");
    assert!(q("p50") <= q("p90") && q("p90") <= q("p99"), "percentiles ordered");
    // Spans timed the exploration stages under the command's root span;
    // the report's build holds its one Pareto front.
    let spans = doc.get("spans").and_then(Json::as_array).unwrap();
    let paths: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("path").and_then(Json::as_str))
        .collect();
    assert!(paths.contains(&"run/explore"), "span paths: {paths:?}");
    assert!(paths.contains(&"run/report/pareto"), "span paths: {paths:?}");
    assert!(paths.contains(&"run/render"), "span paths: {paths:?}");
}

#[test]
fn metrics_counters_are_thread_count_invariant() {
    // Counters count work, not scheduling: the order-preserving sweep must
    // produce identical counts at 1 and 8 workers. Timings (`spans`),
    // `gauges`, and `hists` legitimately differ and are excluded.
    let mut counter_sections = Vec::new();
    for threads in ["1", "8"] {
        let path = temp_path(&format!("det_{threads}.json"));
        let (ok, _, stderr) = datareuse_env(
            &[
                "explore",
                "me-small",
                "--array",
                "Old",
                "--simulate",
                "--metrics",
                path.to_str().unwrap(),
            ],
            &[("DATAREUSE_THREADS", threads)],
        );
        assert!(ok, "{stderr}");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let doc = Json::parse(&text).unwrap();
        counter_sections.push(doc.get("counters").unwrap().clone());
    }
    assert_eq!(
        counter_sections[0], counter_sections[1],
        "counters must not depend on DATAREUSE_THREADS"
    );
}

/// The dispatch boundary of the symbolic engine, observed end to end
/// through the metrics counters: a conforming double nest must be served
/// entirely by the symbolic path (`sim_fallbacks == 0`), and a
/// deliberately non-affine (diagonal) nest must take the enumeration
/// fallback. Spawned as separate processes so each run sees a fresh
/// counter registry.
#[test]
fn symbolic_dispatch_counters_split_cleanly() {
    let dir = std::env::temp_dir().join(format!("datareuse_cli_sym_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |name: &str, src: &str| {
        let kernel = dir.join(format!("{name}.dr"));
        std::fs::write(&kernel, src).unwrap();
        let metrics = dir.join(format!("{name}_metrics.json"));
        let (ok, _, stderr) = datareuse(&[
            "explore",
            kernel.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ]);
        assert!(ok, "{stderr}");
        let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let counter = |n: &str| {
            doc.get("counters")
                .and_then(|c| c.get(n))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        (counter("symbolic_hits"), counter("sim_fallbacks"))
    };
    let (hits, fallbacks) = run(
        "conforming",
        "array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; } }",
    );
    assert!(hits >= 1, "conforming nest must take the symbolic path");
    assert_eq!(fallbacks, 0, "conforming nest must never fall back");
    let (_, fallbacks) = run(
        "diagonal",
        "array A[16][16]; for j in 0..8 { for k in 0..8 { read A[k][k]; } }",
    );
    assert!(fallbacks >= 1, "diagonal nest must take the fallback path");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The SUSAN mask guards are all bounds on one iterator (`d`), so every
/// access group of every SUSAN form — and the folded nest's merged row
/// band — is served by the symbolic path: seven row groups plus the
/// merged group on the folded kernels, one group per row nest on the
/// unfolded one.
#[test]
fn susan_kernels_never_fall_back() {
    for (kernel, want_hits) in [("susan", 8), ("susan-small", 8), ("susan-unfolded", 7)] {
        let path = temp_path(&format!("susan_counters_{kernel}.json"));
        let (ok, _, stderr) = datareuse(&["explore", kernel, "--metrics", path.to_str().unwrap()]);
        assert!(ok, "{stderr}");
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let counter = |n: &str| {
            doc.get("counters")
                .and_then(|c| c.get(n))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        assert_eq!(counter("sim_fallbacks"), 0, "{kernel} fell back");
        assert_eq!(counter("sim_fallbacks_guarded"), 0, "{kernel}");
        assert_eq!(counter("symbolic_hits"), want_hits, "{kernel}");
    }
}

/// `--explain` carries the dispatch decision as a `symbolic-profile`
/// audit record naming the path taken.
#[test]
fn explain_log_records_the_symbolic_dispatch() {
    let path = temp_path("symbolic_explain.ndjson");
    let (ok, _, stderr) = datareuse(&[
        "explore",
        "me-small",
        "--array",
        "Old",
        "--explain",
        path.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let log = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let record = log
        .lines()
        .find(|l| l.contains("\"record\":\"symbolic-profile\""))
        .expect("symbolic-profile record present");
    let doc = Json::parse(record).unwrap();
    assert_eq!(doc.get("path").and_then(Json::as_str), Some("symbolic"));
    assert!(doc.get("c_tot").and_then(Json::as_u64).unwrap() > 0);
}

/// `--cross-validate` replays the Belady oracle over the analytical
/// result and reports agreement on stderr, keeping `--json` stdout
/// machine-clean.
#[test]
fn explore_cross_validate_passes_on_builtins() {
    for kernel in ["me-small", "fir"] {
        let (ok, _, stderr) = datareuse(&["explore", kernel, "--cross-validate"]);
        assert!(ok, "{kernel}: {stderr}");
        assert!(
            stderr.contains("cross-validation: PASS"),
            "{kernel}: {stderr}"
        );
    }
    let (ok, stdout, stderr) =
        datareuse(&["explore", "me-small", "--array", "Old", "--cross-validate", "--json"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("cross-validation: PASS"));
    assert!(stdout.trim().starts_with('{'), "stdout stays pure JSON");
    Json::parse(stdout.trim()).expect("report JSON parses");
}

#[test]
fn progress_flag_narrates_to_stderr() {
    let (ok, _, stderr) = datareuse(&["explore", "me-small", "--array", "Old", "--progress"]);
    assert!(ok, "{stderr}");
    // Even a short run prints the final summary line on shutdown.
    assert!(stderr.contains("[datareuse"), "stderr: {stderr}");
    assert!(stderr.contains("(done)"), "stderr: {stderr}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let (ok, _, stderr) = datareuse(&["explode"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (ok, _, stderr) = datareuse(&["explore", "/nonexistent.dr"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
    let (ok, _, stderr) = datareuse(&["curve", "me-small"]);
    assert!(!ok);
    assert!(stderr.contains("--sizes"));
}

/// Nests whose read counts leave `u64` (extents near `i64::MAX`, and
/// two 10^12-trip loops) end in a typed error at once, never in an
/// enumeration that cannot finish.
#[test]
fn overflowing_extents_fail_with_a_typed_error_within_a_second() {
    use std::time::{Duration, Instant};
    let fixtures = [
        "overflow_near_i64_max.dr",
        "overflow_tera_extent.dr",
        "overflow_index_coefficient.dr",
    ]
    .map(|name| format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR")));
    // The einsum's index range `i*2^32` over 2^32 values leaves i64.
    let einsum = "C[i,j] += A[i*4294967296,j] where i=4294967296, j=3".to_string();
    for name in fixtures.iter().chain([&einsum]) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_datareuse"))
            .args(["explore", name])
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        let started = Instant::now();
        while child.try_wait().expect("wait works").is_none() {
            if started.elapsed() > Duration::from_secs(1) {
                let _ = child.kill();
                panic!("{name}: explore still running after 1 s");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output().expect("exit status");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // A `.dr` file is a runtime error (1); an expression's parse
        // error is a usage error (2).
        let want = if name == &einsum { 2 } else { 1 };
        assert_eq!(out.status.code(), Some(want), "{name}: {stderr}");
        assert!(stderr.contains("overflow"), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

/// Runs the binary and returns (exit code, stderr).
fn exit_code_of(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_datareuse"))
        .args(args)
        .output()
        .expect("binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn usage_errors_exit_2_with_the_usage_summary() {
    // Unknown subcommand: usage error.
    let (code, stderr) = exit_code_of(&["explode"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown command"), "{stderr}");
    assert!(stderr.contains("usage: datareuse"), "{stderr}");
    // Missing required flag: usage error.
    let (code, stderr) = exit_code_of(&["curve", "me-small"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--sizes"), "{stderr}");
    assert!(stderr.contains("usage: datareuse"), "{stderr}");
    // No command at all: usage error.
    let (code, stderr) = exit_code_of(&[]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    // A *runtime* failure keeps exit code 1 and does not dump usage.
    let (code, stderr) = exit_code_of(&["explore", "/nonexistent.dr"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("usage: datareuse"), "{stderr}");
}

#[test]
fn explain_log_reproduces_the_papers_fir_numbers() {
    let path = temp_path("fir_explain.ndjson");
    let (ok, stdout, stderr) = datareuse(&["explore", "fir", "--explain", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    // The report distills a `why` section from the same log.
    assert!(stdout.contains("why:"), "no why section in:\n{stdout}");
    assert!(stdout.contains("candidates:"), "{stdout}");
    let text = std::fs::read_to_string(&path).expect("explain log written");
    std::fs::remove_file(&path).ok();
    let records: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("every explain line is JSON"))
        .collect();
    // Completeness: the summary tallies cover every candidate record.
    let candidates = records
        .iter()
        .filter(|r| r.get("record").and_then(Json::as_str) == Some("candidate"))
        .count() as u64;
    let summary = records
        .iter()
        .find(|r| r.get("record").and_then(Json::as_str) == Some("candidate-summary"))
        .expect("candidate-summary record");
    let tally = |k: &str| summary.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(tally("offered"), candidates, "{summary}");
    assert_eq!(
        tally("kept") + tally("bypass") + tally("pruned") + tally("dominated"),
        candidates
    );
    // The eq. 12–15 point of the paper: fir's maximum-reuse pair has
    // reuse vector (c', b') = (1, 1) with an anti-dependency over
    // (j_range, k_range) = (1024, 64), giving C_tot = 65536,
    // C_R = (j−c')(k−b') = 64449, fills = 1087, and A_Max = 64.
    let max = records
        .iter()
        .find(|r| {
            r.get("source")
                .and_then(|s| s.get("kind"))
                .and_then(Json::as_str)
                == Some("pair-max")
        })
        .expect("pair-max record");
    let field = |r: &Json, k: &str| r.get(k).and_then(Json::as_u64).expect(k);
    let vector = max.get("vector").expect("pair-max carries its vector");
    let (c, b) = (field(vector, "c_prime"), field(vector, "b_prime"));
    let (j, k) = (field(vector, "j_range"), field(vector, "k_range"));
    assert_eq!((c, b, j, k), (1, 1, 1024, 64));
    assert_eq!(vector.get("anti").and_then(Json::as_bool), Some(true));
    assert_eq!(field(max, "c_tot"), 65536);
    assert_eq!(field(max, "c_r"), 64449);
    assert_eq!(field(max, "fills"), 1087);
    assert_eq!(field(max, "a"), 64);
    // The record is self-consistent against its own reuse vector:
    // C_tot = j·k, C_R = (j−c')(k−b'), A = c'(k−b') + b' (anti-dep).
    assert_eq!(field(max, "c_tot"), j * k);
    assert_eq!(field(max, "c_r"), (j - c) * (k - b));
    assert_eq!(field(max, "a"), c * (k - b) + b);
    let f_r = max.get("f_r").and_then(Json::as_f64).expect("f_r");
    assert!((f_r - 65536.0 / 1087.0).abs() < 1e-9, "F_RMax = {f_r}");
}

/// Compares `actual` with a committed fixture and names the first line
/// that differs, so a drift points at the record or report row it hit.
fn assert_matches_fixture(actual: &str, fixture: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/explain")
        .join(fixture);
    let expected = std::fs::read_to_string(&path).expect("fixture readable");
    if actual == expected {
        return;
    }
    let mut want = expected.lines();
    let mut got = actual.lines();
    for line in 1.. {
        match (want.next(), got.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (None, None) => panic!("{fixture}: only line endings differ"),
            (w, g) => panic!(
                "{fixture}: first difference at line {line}\n  expected: {}\n  actual:   {}",
                w.unwrap_or("<end of fixture>"),
                g.unwrap_or("<end of output>"),
            ),
        }
    }
}

#[test]
fn explain_outputs_match_the_pinned_fixtures() {
    // `explore susan` is one signal over seven access groups; `report me`
    // explores two signals through one sink, so their records interleave.
    let cases: [(&[&str], &str, &str); 3] = [
        (
            &["explore", "susan"],
            "explore-susan.txt",
            "explore-susan.ndjson",
        ),
        (
            &["explore", "susan", "--json"],
            "explore-susan.json",
            "explore-susan.ndjson",
        ),
        (&["report", "me"], "report-me.txt", "report-me.ndjson"),
    ];
    for (i, (args, stdout_fixture, log_fixture)) in cases.into_iter().enumerate() {
        let log = temp_path(&format!("fixture_{i}.ndjson"));
        let mut argv = args.to_vec();
        argv.extend(["--explain", log.to_str().unwrap()]);
        let (ok, stdout, stderr) = datareuse(&argv);
        assert!(ok, "{args:?}: {stderr}");
        let text = std::fs::read_to_string(&log).expect("explain log written");
        std::fs::remove_file(&log).ok();
        assert_matches_fixture(&stdout, stdout_fixture);
        assert_matches_fixture(&text, log_fixture);
    }
}

#[test]
fn a_switch_never_consumes_the_kernel_operand() {
    let (ok, before, stderr) = datareuse(&["explore", "--json", "fir"]);
    assert!(ok, "{stderr}");
    let (ok, after, stderr) = datareuse(&["explore", "fir", "--json"]);
    assert!(ok, "{stderr}");
    assert_eq!(before, after);
}

#[test]
fn unknown_flags_exit_2_and_name_the_flag() {
    let (code, stderr) = exit_code_of(&["explore", "fir", "--jsonx", "--arry", "x"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown flag `--jsonx` for `explore`"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: datareuse"), "{stderr}");
    // A deleted flag is refused the same way. The unbindable address
    // makes a server that accepted the flag exit 1 instead of serving.
    let (code, stderr) =
        exit_code_of(&["serve", "--addr", "256.0.0.0:1", "--cache-snapshot", "x"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown flag `--cache-snapshot` for `serve`"), "{stderr}");
}

/// `(verb, flags)` for every subcommand section of the usage summary;
/// verbs taking a `<kernel>` also accept the footnote's `--expr`.
fn usage_flags(usage: &str) -> Vec<(String, Vec<String>)> {
    let mut verbs: Vec<(String, Vec<String>)> = Vec::new();
    for line in usage.lines() {
        let Some(body) = line.strip_prefix("  ") else {
            continue;
        };
        if !body.starts_with(' ') {
            let verb = body.split_whitespace().next().unwrap().to_string();
            verbs.push((verb, Vec::new()));
        }
        let Some((_, flags)) = verbs.last_mut() else {
            continue;
        };
        if body.contains("<kernel>") {
            flags.push("--expr".to_string());
        }
        for token in body.split(|c: char| c.is_whitespace() || c == '[' || c == ']') {
            if token.starts_with("--") && token.len() > 2 {
                flags.push(token.to_string());
            }
        }
    }
    verbs
}

#[test]
fn every_flag_in_the_usage_summary_is_accepted() {
    let (code, usage) = exit_code_of(&[]);
    assert_eq!(code, Some(2), "{usage}");
    let verbs = usage_flags(&usage);
    assert_eq!(verbs.len(), 10, "{verbs:?}");
    for (verb, flags) in &verbs {
        assert!(!flags.is_empty(), "`{verb}` lists no flags");
        for flag in flags {
            // An accepted flag lets parsing reach the sentinel after it;
            // nothing runs, since the sentinel is refused first.
            let (code, stderr) = exit_code_of(&[verb, flag, "--no-such-flag"]);
            assert_eq!(code, Some(2), "{verb} {flag}: {stderr}");
            assert!(
                stderr.contains("unknown flag `--no-such-flag`"),
                "`{verb}` refuses `{flag}`: {stderr}"
            );
        }
    }
}
