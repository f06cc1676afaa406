//! Differential tests for `ExplorationReport::to_json`, the one-pass
//! writer behind `explore --json` and the served `explore` and `report`
//! results.
//!
//! The oracle is the `Json` tree the report used to build before it was
//! encoded, kept here verbatim: the writer must print exactly what that
//! tree's `Display` prints, on every builtin and corpus kernel (with
//! the audit-log `why` lines), on generated reports whose strings hold
//! quotes, backslashes, control bytes and multi-byte UTF-8 next to an
//! escape, and on non-finite floats, which both render as `null`.

use datareuse::kernels::{corpus, load_kernel, BUILTINS};
use datareuse::model::{
    describe_source, explore_program_explained, CandidatePoint, CandidateSource,
    ExplorationReport, ExploreOptions, HierarchyRow, Json,
};
use datareuse::memmodel::{BitCount, MemoryTechnology};
use datareuse::obs::Explain;
use datareuse_proptest::Rng;

/// The report as the `Json` tree it was once built as.
fn oracle(report: &ExplorationReport) -> Json {
    Json::obj([
        ("array", Json::str(&report.array)),
        ("c_tot", Json::UInt(report.c_tot)),
        ("background_words", Json::UInt(report.background_words)),
        (
            "candidates",
            Json::arr(report.candidates.iter().map(|c| {
                Json::obj([
                    ("source", Json::str(describe_source(c.source))),
                    ("size", Json::UInt(c.size)),
                    ("reuse_factor", Json::Num(c.reuse_factor())),
                    ("exact", Json::Bool(c.exact)),
                ])
            })),
        ),
        (
            "pareto",
            Json::arr(report.pareto.iter().map(|row| {
                Json::obj([
                    (
                        "level_sizes",
                        Json::arr(row.level_sizes.iter().map(|&s| Json::UInt(s))),
                    ),
                    ("onchip_words", Json::UInt(row.onchip_words)),
                    ("normalized_power", Json::Num(row.normalized_power)),
                    ("background_share", Json::Num(row.background_share)),
                ])
            })),
        ),
        ("why", Json::arr(report.why.iter().map(Json::str))),
    ])
}

fn assert_matches_oracle(report: &ExplorationReport, what: &str) {
    let text = report.to_json();
    assert_eq!(text, oracle(report).to_string(), "{what}");
}

#[test]
fn every_builtin_and_corpus_report_matches_the_tree_encoding() {
    let names = BUILTINS
        .iter()
        .map(|&(name, _)| name.to_string())
        .chain(corpus().iter().map(|e| e.name.clone()));
    let opts = ExploreOptions::default();
    let tech = MemoryTechnology::new();
    let mut compared = 0;
    for name in names {
        let program = load_kernel(&name).unwrap();
        let sink = Explain::new();
        let explorations = explore_program_explained(&program, &opts, Some(&sink)).unwrap();
        for ex in &explorations {
            let report = ExplorationReport::build_explained(ex, &opts, &tech, &BitCount, Some(&sink));
            assert!(!report.why.is_empty(), "{name}/{}: no why lines", ex.array);
            assert_matches_oracle(&report, &format!("{name}/{}", ex.array));
            compared += 1;
        }
    }
    assert!(compared >= 46, "only {compared} reports compared");
}

/// Text built to stress the escaper's runs: escapes first, last and
/// adjacent, every control byte, and multi-byte characters touching an
/// escape.
fn hostile_string(rng: &mut Rng) -> String {
    const PIECES: &[&str] = &[
        "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{8}", "\u{c}", "\u{1f}", "\u{7f}", "γ",
        "γ\"", "\\γ", "€\n", "😀\u{1}", "a", "plain run ", "/", "\u{ffff}",
    ];
    let mut s: String = (0..rng.usize_in(0, 10))
        .map(|_| PIECES[rng.usize_in(0, PIECES.len() - 1)])
        .collect();
    if rng.u64_in(0, 3) == 0 {
        s.push(char::from(rng.u64_in(0, 0x1f) as u8));
    }
    s
}

fn hostile_float(rng: &mut Rng) -> f64 {
    match rng.u64_in(0, 7) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::MIN_POSITIVE,
        5 => f64::MAX,
        _ => (rng.f64() - 0.5) * 1e6,
    }
}

fn generated_report(rng: &mut Rng) -> ExplorationReport {
    let c_tot = rng.next_u64();
    let sources = [
        CandidateSource::Footprint { depth_from_inner: rng.usize_in(0, 9) },
        CandidateSource::MergedFootprint { depth_from_inner: rng.usize_in(0, 9) },
        CandidateSource::PairMax,
        CandidateSource::PairPartial { gamma: rng.i64_in(-50, 50), bypass: false },
        CandidateSource::PairPartial { gamma: rng.i64_in(-50, 50), bypass: true },
        CandidateSource::Simulated,
    ];
    ExplorationReport {
        array: hostile_string(rng),
        c_tot,
        background_words: rng.next_u64(),
        candidates: (0..rng.usize_in(0, 6))
            .map(|_| CandidatePoint {
                size: rng.next_u64(),
                fills: rng.u64_in(0, 1 << 20),
                bypasses: rng.u64_in(0, c_tot),
                c_tot,
                source: sources[rng.usize_in(0, sources.len() - 1)],
                exact: rng.u64_in(0, 1) == 1,
            })
            .collect(),
        pareto: (0..rng.usize_in(0, 5))
            .map(|_| HierarchyRow {
                level_sizes: (0..rng.usize_in(0, 4)).map(|_| rng.next_u64()).collect(),
                onchip_words: rng.next_u64(),
                normalized_power: hostile_float(rng),
                background_share: hostile_float(rng),
            })
            .collect(),
        why: (0..rng.usize_in(0, 5)).map(|_| hostile_string(rng)).collect(),
    }
}

#[test]
fn generated_reports_with_hostile_strings_match_the_tree_encoding() {
    for seed in 0..512 {
        let report = generated_report(&mut Rng::new(seed));
        assert_matches_oracle(&report, &format!("seed {seed}: {report:?}"));
        let parsed = Json::parse(&report.to_json()).unwrap();
        assert_eq!(parsed.get("array").and_then(Json::as_str), Some(report.array.as_str()));
    }
}

#[test]
fn non_finite_floats_are_written_as_null() {
    let report = ExplorationReport {
        array: "A".into(),
        c_tot: 0,
        background_words: 0,
        candidates: Vec::new(),
        pareto: [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .map(|x| HierarchyRow {
                level_sizes: Vec::new(),
                onchip_words: 0,
                normalized_power: x,
                background_share: -x,
            })
            .collect(),
        why: Vec::new(),
    };
    assert_matches_oracle(&report, "non-finite");
    let text = report.to_json();
    assert_eq!(text.matches(r#""normalized_power":null,"background_share":null"#).count(), 3);
}
