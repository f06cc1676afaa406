//! Property tests of the exploration audit layer.
//!
//! The audit log's core contract is *completeness*: every candidate a
//! sweep offers appears exactly once with a terminal verdict, and the
//! explained pipeline returns bit-identical results to the unexplained
//! one. Both are pinned here over randomized candidate pools and over
//! randomized generated programs run through the full
//! `explore_signal_explained` driver.

use datareuse_core::{
    dedupe_candidates, dedupe_candidates_explained, explore_signal, explore_signal_explained,
    CandidatePoint, CandidateSource, CandidateVerdict, ExploreOptions, Json,
};
use datareuse_loopir::{parse_program, Program};
use datareuse_obs::Explain;
use datareuse_proptest::{check, prop_assert, prop_assert_eq, Config, Rng};

/// Draws candidate raw parts biased toward collisions: sizes and traffic
/// from tiny domains so size ties, dominated points, and useless points
/// all appear frequently. Raw tuples keep the harness's shrinker
/// applicable; the property materializes them into [`CandidatePoint`]s.
fn any_candidate(rng: &mut Rng) -> (u64, u64, u64) {
    let fills = rng.u64_in(0, 80);
    let bypasses = if rng.u64_in(0, 3) == 0 {
        rng.u64_in(0, 80 - fills)
    } else {
        0
    };
    (rng.u64_in(1, 12), fills, bypasses)
}

fn materialize(raw: &[(u64, u64, u64)]) -> Vec<CandidatePoint> {
    raw.iter()
        .map(|&(size, fills, bypasses)| CandidatePoint {
            size,
            fills,
            bypasses,
            c_tot: 64,
            source: CandidateSource::Simulated,
            exact: true,
        })
        .collect()
}

#[test]
fn every_candidate_gets_exactly_one_terminal_verdict() {
    check(
        "explain_verdict_completeness",
        &Config::default(),
        |rng| rng.vec(0, 32, any_candidate),
        |raw| {
            let pool = &materialize(raw);
            let (kept, verdicts) = dedupe_candidates_explained(pool);
            // One verdict per offered candidate, no more, no less.
            prop_assert_eq!(verdicts.len(), pool.len());
            // The explained path returns exactly the unexplained result.
            prop_assert_eq!(&kept, &dedupe_candidates(pool.clone()));
            // Survivor verdicts tally to the kept count.
            let survivors = verdicts
                .iter()
                .filter(|v| matches!(v, CandidateVerdict::Kept | CandidateVerdict::Bypass))
                .count();
            prop_assert_eq!(survivors, kept.len());
            for (i, v) in verdicts.iter().enumerate() {
                match *v {
                    CandidateVerdict::Kept => {
                        prop_assert!(kept.contains(&pool[i]), "kept #{i} missing from result");
                        prop_assert_eq!(pool[i].bypasses, 0);
                    }
                    CandidateVerdict::Bypass => {
                        prop_assert!(kept.contains(&pool[i]), "bypass #{i} missing from result");
                        prop_assert!(pool[i].bypasses > 0);
                    }
                    CandidateVerdict::Pruned => {
                        prop_assert!(!pool[i].is_useful(), "useful #{i} pruned");
                    }
                    CandidateVerdict::DominatedBy(w) => {
                        prop_assert!(w < pool.len(), "dominator out of range");
                        prop_assert!(w != i, "self-domination");
                        // The named winner is no worse on both axes:
                        // same-or-smaller size with no more upstream
                        // traffic.
                        let up = |c: &CandidatePoint| c.fills + c.bypasses;
                        prop_assert!(pool[w].size <= pool[i].size);
                        prop_assert!(up(&pool[w]) <= up(&pool[i]));
                        prop_assert!(
                            !matches!(verdicts[w], CandidateVerdict::Pruned),
                            "winner #{w} was itself pruned as useless"
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

/// Appends `for NAME in LOWER..=UPPER step STEP {` with a small random
/// trip count, a lower bound in 0..=3 and a step in 1..=3, and returns
/// the loop's last value.
fn any_loop(rng: &mut Rng, name: &str, out: &mut String) -> u64 {
    let lower = rng.u64_in(0, 3);
    let step = rng.u64_in(1, 3);
    let upper = lower + step * (rng.u64_in(2, 8) - 1);
    out.push_str(&format!("for {name} in {lower}..={upper} step {step} {{ "));
    upper
}

/// Draws a random program of 1–3 sliding-window nests over one array,
/// each 2–3 deep. Offset and stepped loops make normalization rewrite
/// the index expressions, and a guarded, translated second read gives
/// some nests two access groups and a merged candidate. Shapes are kept
/// small so the full explore driver stays fast across all cases.
fn any_program(rng: &mut Rng) -> String {
    let mut nests = String::new();
    let mut max_index = 0;
    for _ in 0..rng.u64_in(1, 3) {
        let stride = rng.u64_in(1, 3);
        let (deep, f_max) = if rng.u64_in(0, 1) == 0 {
            (false, 0)
        } else {
            (true, any_loop(rng, "f", &mut nests))
        };
        let j_max = any_loop(rng, "j", &mut nests);
        let k_max = any_loop(rng, "k", &mut nests);
        let index = if deep {
            format!("16*f + {stride}*j + k")
        } else {
            format!("{stride}*j + k")
        };
        nests.push_str(&format!("read A[{index}]; "));
        if rng.u64_in(0, 1) == 0 {
            let offset = rng.u64_in(1, 3);
            let skip = rng.u64_in(0, 8);
            nests.push_str(&format!("read A[{index} + {offset}] if k != {skip}; "));
        }
        nests.push_str(if deep { "} } } " } else { "} } " });
        max_index = max_index.max(16 * f_max + stride * j_max + k_max);
    }
    format!("array A[{}]; {nests}", max_index + 4)
}

/// `program` with every nest replaced by its normal form.
fn hoisted(program: &Program) -> Result<Program, String> {
    let mut out = Program::new();
    for decl in program.arrays() {
        out.declare(decl.clone()).map_err(|e| e.to_string())?;
    }
    for nest in program.nests() {
        out.push_nest(nest.normalized().into_owned())
            .map_err(|e| e.to_string())?;
    }
    Ok(out)
}

#[test]
fn audit_records_cover_the_exploration_exactly_once() {
    check(
        "explain_exploration_records",
        &Config::with_cases(64),
        any_program,
        |src| {
            let program = parse_program(src).map_err(|e| e.to_string())?;
            let opts = ExploreOptions {
                threads: Some(1),
                ..ExploreOptions::default()
            };
            let sink = Explain::new();
            let ex = explore_signal_explained(&program, "A", &opts, Some(&sink))
                .map_err(|e| e.to_string())?;
            // Audited and unaudited explorations agree bit-for-bit, and
            // so does exploring the program normalized up front.
            let plain = explore_signal(&program, "A", &opts).map_err(|e| e.to_string())?;
            prop_assert_eq!(&ex, &plain);
            let pre = explore_signal(&hoisted(&program)?, "A", &opts).map_err(|e| e.to_string())?;
            prop_assert_eq!(&pre, &plain);
            let records: Vec<Json> = sink
                .to_ndjson()
                .lines()
                .map(|l| Json::parse(l).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            let candidates: Vec<&Json> = records
                .iter()
                .filter(|r| r.get("record").and_then(Json::as_str) == Some("candidate"))
                .collect();
            // Ids are exactly 0..n in emission order.
            for (expect, r) in candidates.iter().enumerate() {
                prop_assert_eq!(r.get("id").and_then(Json::as_u64), Some(expect as u64));
            }
            // Verdict tallies sum to the candidate count, and survivors
            // match the exploration's kept list one-for-one.
            let summary = records
                .iter()
                .find(|r| r.get("record").and_then(Json::as_str) == Some("candidate-summary"))
                .ok_or("no candidate-summary record")?;
            let num = |k: &str| summary.get(k).and_then(Json::as_u64).unwrap_or(0);
            prop_assert_eq!(
                num("kept") + num("bypass") + num("pruned") + num("dominated"),
                candidates.len() as u64
            );
            prop_assert_eq!(num("offered"), candidates.len() as u64);
            // The records render the exploration's own offered pool.
            prop_assert_eq!(ex.offered.len(), candidates.len());
            prop_assert_eq!(ex.verdicts.len(), candidates.len());
            prop_assert_eq!(num("kept") + num("bypass"), ex.candidates.len() as u64);
            let verdict_of = |r: &Json| {
                r.get("verdict")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            for r in &candidates {
                let v = verdict_of(r);
                prop_assert!(
                    v == "kept" || v == "bypass" || v == "pruned" || v.starts_with("dominated-by "),
                    "non-terminal verdict {v:?}"
                );
                if let Some(id) = v.strip_prefix("dominated-by ") {
                    let id: usize = id.parse().map_err(|_| "bad dominator id")?;
                    prop_assert!(id < candidates.len(), "dominator out of range");
                }
                // Cost terms are self-consistent: C_R = C_tot − fills −
                // bypasses and F_R = (C_tot − bypasses) / fills.
                let get = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
                prop_assert_eq!(
                    get("c_r"),
                    get("c_tot") - get("fills") - get("bypasses")
                );
                let f_r = r.get("f_r").and_then(Json::as_f64).unwrap_or(-1.0);
                if get("fills") > 0 {
                    let want = (get("c_tot") - get("bypasses")) as f64 / get("fills") as f64;
                    prop_assert!((f_r - want).abs() < 1e-9 * want.max(1.0), "F_R mismatch");
                }
            }
            Ok(())
        },
    );
}
