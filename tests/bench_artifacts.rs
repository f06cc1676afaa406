//! Guards over the committed benchmark baseline in `benchmarks/`.
//!
//! `BENCH_serve_scaling.json`, written by `datareuse bench-serve` from a
//! full 10k-connection ramp, must parse with the repo's own [`Json`]
//! reader, follow the bench-artifact schema, and record the saturation
//! point the capacity-planning section of `docs/SERVING.md` is written
//! against. The end-to-end benchmark of record is drbench
//! (`crates/bench/src/bin/drbench/`); a reduced 200-connection ramp runs
//! fresh in `crates/cli/tests/serve.rs`.

use std::fs;
use std::path::PathBuf;

use datareuse::model::Json;

fn benchmarks_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmarks")
}

/// All committed artifacts, parsed — panics with the file name on any
/// unreadable or unparseable artifact.
fn artifacts() -> Vec<(String, Json)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(benchmarks_dir()).expect("benchmarks/ directory exists") {
        let path = entry.expect("readable dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"));
        out.push((name, json));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[test]
fn committed_bench_artifacts_parse_and_follow_the_schema() {
    let artifacts = artifacts();
    assert!(!artifacts.is_empty(), "no BENCH_*.json committed under benchmarks/");
    for (name, json) in &artifacts {
        let group = json
            .get("group")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{name}: missing group"));
        assert_eq!(
            name, &format!("BENCH_{group}.json"),
            "{name}: file name does not match its group"
        );
        let benches = json
            .get("benches")
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{name}: missing benches array"));
        assert!(!benches.is_empty(), "{name}: empty benches array");
        for bench in benches {
            let id = bench
                .get("id")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{name}: bench without id"));
            for field in ["samples", "min_ns", "median_ns", "mean_ns"] {
                let v = bench
                    .get(field)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{name}/{id}: missing {field}"));
                assert!(v > 0.0, "{name}/{id}: non-positive {field}");
            }
        }
    }
}

#[test]
fn the_scaling_baseline_reports_a_saturation_point_at_10k_connections() {
    let artifacts = artifacts();
    let (_, scaling) = artifacts
        .iter()
        .find(|(n, _)| n == "BENCH_serve_scaling.json")
        .expect("serve_scaling baseline committed");
    // The committed artifact must come from a run that actually drove
    // ten thousand concurrent connections...
    let top_rung = scaling
        .get("benches")
        .and_then(Json::as_array)
        .expect("benches array")
        .iter()
        .filter_map(|b| b.get("elements").and_then(Json::as_f64))
        .fold(0.0f64, f64::max);
    assert!(
        top_rung >= 10_000.0,
        "largest rung covers only {top_rung} connections"
    );
    // ...and record where throughput saturated, with the fields the
    // capacity-planning section of docs/SERVING.md is written against.
    let saturation = scaling.get("saturation").expect("saturation object");
    for field in ["connections", "rps", "p99_ns", "open_connections"] {
        let v = saturation
            .get(field)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("saturation missing {field}"));
        assert!(v > 0.0, "non-positive saturation {field}");
    }
}
