//! Drift guards between the code and the docs (`docs/SERVING.md`,
//! `docs/OBSERVABILITY.md`, `docs/ARCHITECTURE.md`, README.md,
//! DESIGN.md and EXPERIMENTS.md).
//!
//! The operator runbook documents the wire protocol, the metrics
//! surface, and the `query` exit codes. Each of those lives in code as
//! an enumerable constant (`protocol::OP_NAMES`, `Counter::ALL`,
//! `Gauge::ALL`, `Hist::ALL`, the `E_*` error codes, the CLI usage
//! text), so documentation rot is checkable: every name the code
//! exposes must appear in the runbook, and every op section in the
//! runbook must name a real wire op. `cargo test` runs this test;
//! adding an op or a serve counter without documenting it fails
//! the build, as does documenting an op or a serving flag that no
//! longer exists.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use datareuse::obs::{Counter, Gauge, Hist};
use datareuse::server::protocol::{
    E_BAD_REQUEST, E_INTERNAL, E_OVERLOADED, E_SHUTTING_DOWN, E_TIMEOUT, OP_NAMES,
};

fn repo_file(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The CLI usage summary: the `USAGE` constant's text.
fn usage_text() -> String {
    let cli = repo_file("crates/cli/src/main.rs");
    let start = cli.find("const USAGE:").expect("usage text present");
    let end = cli[start..].find("\";").map_or(cli.len(), |e| start + e);
    cli[start..end].to_string()
}

#[test]
fn every_wire_op_has_a_runbook_section() {
    let doc = repo_file("docs/SERVING.md");
    for op in OP_NAMES {
        assert!(
            doc.contains(&format!("### `{op}`")),
            "docs/SERVING.md has no `### `{op}`` section for the `{op}` op"
        );
    }
}

#[test]
fn every_runbook_op_section_names_a_real_wire_op() {
    let doc = repo_file("docs/SERVING.md");
    let mut checked = 0;
    for line in doc.lines() {
        // Op sections are exactly "### `name`"; flag and file sections
        // use other heading shapes, and any h3 whose backticked name is
        // a bare lowercase word is held to the op registry.
        let Some(name) = line
            .strip_prefix("### `")
            .and_then(|rest| rest.strip_suffix('`'))
        else {
            continue;
        };
        if !name.chars().all(|c| c.is_ascii_lowercase()) {
            continue;
        }
        assert!(
            OP_NAMES.contains(&name),
            "docs/SERVING.md documents `{name}`, which is not a wire op \
             (protocol::OP_NAMES = {OP_NAMES:?})"
        );
        checked += 1;
    }
    assert_eq!(
        checked,
        OP_NAMES.len(),
        "expected one op section per wire op"
    );
}

#[test]
fn every_serve_metric_in_code_is_documented() {
    let doc = repo_file("docs/SERVING.md");
    let counters = Counter::ALL.iter().map(|c| c.name());
    let gauges = Gauge::ALL.iter().map(|g| g.name());
    let hists = Hist::ALL.iter().map(|h| h.name());
    for name in counters.chain(gauges).chain(hists) {
        if !name.starts_with("serve_") {
            continue; // exploration-side metrics live in other docs
        }
        assert!(
            doc.contains(&format!("`{name}`")),
            "serve metric `{name}` is not documented in docs/SERVING.md"
        );
    }
}

/// The part of `doc` from `start` up to the next `end` after it.
fn between<'a>(doc: &'a str, start: &str, end: &str) -> &'a str {
    let from = doc.find(start).unwrap_or_else(|| panic!("no `{start}` in the doc"));
    let to = doc[from..].find(end).map_or(doc.len(), |i| from + i);
    &doc[from..to]
}

#[test]
fn every_serve_metric_the_docs_name_exists_in_code() {
    // The reverse of the check above: a `serve_*` or `alloc_*` metric
    // in the runbook's metrics table or the guide's registry reference
    // must still be emitted, so a deleted metric cannot linger there.
    let counters = Counter::ALL.iter().map(|c| c.name());
    let gauges = Gauge::ALL.iter().map(|g| g.name());
    let hists = Hist::ALL.iter().map(|h| h.name());
    let names: BTreeSet<&str> = counters.chain(gauges).chain(hists).collect();
    let serving = repo_file("docs/SERVING.md");
    let guide = repo_file("docs/OBSERVABILITY.md");
    let mut checked = 0;
    for (file, text) in [
        ("docs/SERVING.md", between(&serving, "## Metrics reference", "\n## ")),
        ("docs/OBSERVABILITY.md", between(&guide, "## Counters", "\n## Spans")),
    ] {
        for name in text.split('`').skip(1).step_by(2) {
            if name.starts_with("serve_") || name.starts_with("alloc_") {
                assert!(
                    names.contains(name),
                    "{file} documents `{name}`, which no Counter, Gauge or Hist emits"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 20, "only {checked} documented serve metrics found");
}

#[test]
fn every_protocol_error_code_is_documented() {
    let doc = repo_file("docs/SERVING.md");
    for code in [E_BAD_REQUEST, E_OVERLOADED, E_TIMEOUT, E_SHUTTING_DOWN, E_INTERNAL] {
        assert!(
            doc.contains(&format!("`{code}`")),
            "error code `{code}` is not documented in docs/SERVING.md"
        );
    }
}

#[test]
fn every_query_exit_code_has_a_table_row() {
    // The CLI's usage text is the authoritative enumeration of `query`
    // exit codes; mine it rather than duplicating the list here.
    let cli = repo_file("crates/cli/src/main.rs");
    let idx = cli
        .find("query exit codes:")
        .expect("usage text enumerates the query exit codes");
    let sentence = &cli[idx..cli[idx..].find('"').map_or(cli.len(), |e| idx + e)];
    let mut codes: Vec<u32> = sentence
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    codes.push(2); // usage errors, documented separately from `query`
    codes.sort_unstable();
    codes.dedup();
    assert!(codes.len() >= 6, "mined too few exit codes: {codes:?}");
    let doc = repo_file("docs/SERVING.md");
    for code in codes {
        assert!(
            doc.contains(&format!("| {code} |")),
            "exit code {code} has no row in the docs/SERVING.md exit-code table"
        );
    }
}

#[test]
fn the_usage_text_and_docs_cover_the_expression_workflow() {
    // The usage summary is the authoritative surface of the CLI; the
    // expression front end's flags and subcommands must appear there.
    let usage = usage_text();
    for needle in ["gen-matmul-32x32x32", "--expr", "--rust", "kernels [--json]"] {
        assert!(
            usage.contains(needle),
            "usage text does not mention `{needle}`"
        );
    }
    // The quickstart and architecture docs must describe the same
    // workflow the code ships.
    let readme = repo_file("README.md");
    for needle in ["C[i,j] += A[i,k] * B[k,j]", "gen-matmul-32x32x32", "--expr"] {
        assert!(readme.contains(needle), "README.md does not show `{needle}`");
    }
    let arch = repo_file("docs/ARCHITECTURE.md");
    for needle in ["exprlang", "corpus"] {
        assert!(
            arch.contains(needle),
            "docs/ARCHITECTURE.md does not describe `{needle}`"
        );
    }
    let experiments = repo_file("EXPERIMENTS.md");
    for needle in ["every_corpus_kernel_stays_symbolic", "explore-conforming"] {
        assert!(
            experiments.contains(needle),
            "EXPERIMENTS.md does not walk through the corpus sweep (`{needle}`)"
        );
    }
}

#[test]
fn every_serving_flag_the_docs_show_is_in_the_usage_text() {
    // The reverse of the checks above: a flag the docs show on a
    // `serve`/`top`/`query`/`explore`/`report` command line (or
    // continuation line), or in a flag table, must still exist, so a
    // retired flag cannot linger in the docs.
    let usage = usage_text();
    let commands = [
        "datareuse serve",
        "datareuse top",
        "datareuse query",
        "datareuse explore",
        "datareuse report",
    ];
    let mut checked = 0;
    for file in [
        "docs/SERVING.md",
        "docs/OBSERVABILITY.md",
        "docs/ARCHITECTURE.md",
        "README.md",
        "EXPERIMENTS.md",
    ] {
        let mut continued = false;
        for line in repo_file(file).lines() {
            let command = commands.iter().any(|c| line.contains(c));
            if command || continued || line.starts_with("| `--") {
                for flag in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                    if flag.len() > 2 && flag.starts_with("--") {
                        assert!(
                            usage.contains(flag),
                            "{file} shows `{flag}`, which the CLI usage text does not list:\n{line}"
                        );
                        checked += 1;
                    }
                }
            }
            continued = (command || continued) && line.trim_end().ends_with('\\');
        }
    }
    assert!(checked >= 40, "only {checked} documented flags found");
}

#[test]
fn the_runbook_is_linked_from_the_readme_and_architecture_docs() {
    for (file, link) in [
        ("README.md", "docs/SERVING.md"),
        ("docs/ARCHITECTURE.md", "SERVING.md"),
        ("README.md", "docs/OBSERVABILITY.md"),
        ("docs/SERVING.md", "OBSERVABILITY.md"),
    ] {
        let text = repo_file(file);
        assert!(
            text.contains(link),
            "{file} does not link to {link}"
        );
    }
}

#[test]
fn every_metric_in_code_is_documented_in_the_observability_guide() {
    // docs/OBSERVABILITY.md is the registry reference: unlike the
    // serving runbook (which only owes sections to `serve_*` metrics),
    // it must name every counter, gauge, and histogram the code can
    // emit, backticked so readers can grep the wire name.
    let doc = repo_file("docs/OBSERVABILITY.md");
    let counters = Counter::ALL.iter().map(|c| c.name());
    let gauges = Gauge::ALL.iter().map(|g| g.name());
    let hists = Hist::ALL.iter().map(|h| h.name());
    for name in counters.chain(gauges).chain(hists) {
        assert!(
            doc.contains(&format!("`{name}`")),
            "metric `{name}` is not documented in docs/OBSERVABILITY.md"
        );
    }
}

#[test]
fn the_usage_text_and_observability_guide_cover_the_profiler() {
    let usage = usage_text();
    for needle in ["--profile-out", "--metrics"] {
        assert!(
            usage.contains(needle),
            "usage text does not mention `{needle}`"
        );
    }
    let doc = repo_file("docs/OBSERVABILITY.md");
    for needle in [
        "--profile-out",
        "self_ns",
        "self_bytes",
        "memstats",
        "datareuse-memstats-v1",
        "datareuse-metrics-v2",
        "drbench",
        "alloc_kb_per_op",
    ] {
        assert!(
            doc.contains(needle),
            "docs/OBSERVABILITY.md does not mention `{needle}`"
        );
    }
}

/// The crate directories under `crates/`, by directory name.
fn crate_dirs() -> BTreeSet<String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates");
    fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("read {}: {e}", root.display()))
        .map(|entry| entry.expect("directory entry"))
        .filter(|entry| entry.path().join("Cargo.toml").is_file())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect()
}

/// The crate names of a doc's crate table: each row opens with a
/// backticked `prefix<name>` cell (`datareuse-core`, `crates/core`).
fn crate_table_rows(doc: &str, prefix: &str) -> BTreeSet<String> {
    let opener = format!("| `{prefix}");
    doc.lines()
        .filter_map(|line| line.strip_prefix(&opener))
        .filter_map(|rest| rest.split('`').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn every_crate_table_lists_exactly_the_workspace_crates() {
    let dirs = crate_dirs();
    for (file, prefix) in [
        ("README.md", "datareuse-"),
        ("DESIGN.md", "crates/"),
        ("docs/ARCHITECTURE.md", "datareuse-"),
    ] {
        assert_eq!(
            crate_table_rows(&repo_file(file), prefix),
            dirs,
            "{file}'s crate table does not match the crates/ directories"
        );
    }
}
