//! Structured audit records for the exploration ("why did the tool keep
//! this copy-candidate?").
//!
//! When an [`Explain`] sink is passed to
//! [`explore_signal_explained`](crate::explore_signal_explained) and
//! [`ExplorationReport::build_explained`](crate::ExplorationReport::build_explained),
//! every candidate and every evaluated hierarchy gets one NDJSON record
//! carrying the paper's cost terms — the `(c', b')` reuse vector, `C_tot`,
//! `C_R`, `F_R`, `A` for candidates (eq. 12–22) and the eq. 2–3 power/area
//! terms for chains — plus a terminal verdict: `kept`, `bypass`, `pruned`,
//! or `dominated-by <id>` naming the winning record by id. The sink is
//! optional end to end: with `None` no record is built and no allocation
//! happens.
//!
//! Record kinds, one JSON object per line:
//!
//! - `symbolic-profile` — one per access group, naming which analysis
//!   path served it (`symbolic` closed forms or `fallback` enumeration,
//!   with the first violated conforming-class condition as `reason`);
//! - `candidate` — one per offered copy-candidate, `id` = offer index;
//! - `candidate-summary` — verdict tallies for the signal;
//! - `chain` — one per enumerated hierarchy with its evaluated cost;
//! - `chain-summary` — how many hierarchies survived the Pareto filter.

use datareuse_memmodel::{ChainCost, CopyChain, ParetoVerdict};
use datareuse_obs::{Explain, Json};

use crate::explore::SignalExploration;
use crate::levels::{CandidatePoint, CandidateSource, CandidateVerdict};
use crate::pairwise::PairGeometry;
use crate::partial::gamma_interval;
use crate::report::describe_source;
use crate::symbolic::{SymbolicFallback, SymbolicProfile};
use crate::vectors::ReuseClass;

/// The reuse-vector geometry of a loop pair, captured once per pair and
/// attached to every candidate the pair produced. Footprint and simulated
/// candidates have no pair geometry (`vector: null` in the record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PairVector {
    /// Elements consumed per `j` iteration (`c'`).
    pub c_prime: i64,
    /// Reuse distance in `k` iterations (`b'`).
    pub b_prime: i64,
    /// Anti-diagonal orientation (extends occupancy by `b'`).
    pub anti: bool,
    /// Outer loop trip count (`jRANGE`).
    pub j_range: i64,
    /// Inner loop trip count (`kRANGE`).
    pub k_range: i64,
    /// The γ validity interval `[min, sup)` of the partial family, when
    /// one exists.
    pub gamma: Option<(i64, i64)>,
}

impl PairVector {
    /// Extracts the vector from a pair geometry; `None` when the pair
    /// carries no reuse at all.
    pub(crate) fn from_geometry(geom: &PairGeometry) -> Option<Self> {
        match geom.class {
            ReuseClass::Vector { bp, cp, anti } => Some(Self {
                c_prime: cp,
                b_prime: bp,
                anti,
                j_range: geom.j_range,
                k_range: geom.k_range,
                gamma: gamma_interval(geom),
            }),
            ReuseClass::SameElement => Some(Self {
                c_prime: 0,
                b_prime: 0,
                anti: false,
                j_range: geom.j_range,
                k_range: geom.k_range,
                gamma: None,
            }),
            ReuseClass::NoReuse => None,
        }
    }

    fn to_json(self) -> Json {
        let mut entries = vec![
            ("c_prime".to_string(), Json::Int(self.c_prime)),
            ("b_prime".to_string(), Json::Int(self.b_prime)),
            ("anti".to_string(), Json::Bool(self.anti)),
            ("j_range".to_string(), Json::Int(self.j_range)),
            ("k_range".to_string(), Json::Int(self.k_range)),
        ];
        if let Some((min, sup)) = self.gamma {
            entries.push(("gamma_min".to_string(), Json::Int(min)));
            entries.push(("gamma_sup".to_string(), Json::Int(sup)));
        }
        Json::Obj(entries)
    }
}

fn source_json(source: CandidateSource) -> Json {
    match source {
        CandidateSource::Footprint { depth_from_inner } => Json::obj([
            ("kind", Json::str("footprint")),
            ("depth_from_inner", Json::UInt(depth_from_inner as u64)),
        ]),
        CandidateSource::MergedFootprint { depth_from_inner } => Json::obj([
            ("kind", Json::str("merged-footprint")),
            ("depth_from_inner", Json::UInt(depth_from_inner as u64)),
        ]),
        CandidateSource::PairMax => Json::obj([("kind", Json::str("pair-max"))]),
        CandidateSource::PairPartial { gamma, bypass } => Json::obj([
            ("kind", Json::str("pair-partial")),
            ("gamma", Json::Int(gamma)),
            ("bypass", Json::Bool(bypass)),
        ]),
        CandidateSource::Simulated => Json::obj([("kind", Json::str("simulated"))]),
    }
}

/// One `symbolic-profile` audit record: which analysis path served an
/// access group of `array` in nest `nest` — the symbolic closed forms
/// (with the profile's headline numbers) or the enumeration fallback
/// (with the first violated conforming-class condition as `reason`).
pub(crate) fn symbolic_record(
    array: &str,
    nest: usize,
    merged: bool,
    outcome: Result<&SymbolicProfile, SymbolicFallback>,
) -> Json {
    match outcome {
        Ok(profile) => Json::obj([
            ("record", Json::str("symbolic-profile")),
            ("array", Json::str(array)),
            ("nest", Json::UInt(nest as u64)),
            ("merged", Json::Bool(merged)),
            ("path", Json::str("symbolic")),
            ("depth", Json::UInt(profile.nest_depth() as u64)),
            ("c_tot", Json::UInt(profile.c_tot())),
            ("footprint", Json::UInt(profile.total_footprint())),
            ("levels", Json::UInt(profile.levels().len() as u64)),
        ]),
        Err(fallback) => Json::obj([
            ("record", Json::str("symbolic-profile")),
            ("array", Json::str(array)),
            ("nest", Json::UInt(nest as u64)),
            ("merged", Json::Bool(merged)),
            ("path", Json::str("fallback")),
            ("reason", Json::str(fallback.reason())),
        ]),
    }
}

/// One `candidate` audit record. `id` is the candidate's index in the
/// offered pool, which is what `dominated-by` verdicts refer to.
fn candidate_record(
    array: &str,
    id: usize,
    c: &CandidatePoint,
    vector: Option<PairVector>,
    verdict: CandidateVerdict,
) -> Json {
    // C_R = C_tot − C_j − bypasses: the reads the candidate absorbs. An
    // approximate point can claim more upstream traffic than C_tot; its
    // C_R is then negative, and the dedupe prunes it as useless.
    let upstream = c.fills + c.bypasses;
    let c_r = match c.c_tot.checked_sub(upstream) {
        Some(absorbed) => Json::UInt(absorbed),
        None => i64::try_from(upstream - c.c_tot).map_or(Json::Null, |excess| Json::Int(-excess)),
    };
    Json::obj([
        ("record", Json::str("candidate")),
        ("array", Json::str(array)),
        ("id", Json::UInt(id as u64)),
        ("source", source_json(c.source)),
        ("size", Json::UInt(c.size)),
        ("fills", Json::UInt(c.fills)),
        ("bypasses", Json::UInt(c.bypasses)),
        ("c_tot", Json::UInt(c.c_tot)),
        ("c_r", c_r),
        ("f_r", Json::Num(c.reuse_factor())),
        ("a", Json::UInt(c.size)),
        ("exact", Json::Bool(c.exact)),
        ("vector", vector.map_or(Json::Null, PairVector::to_json)),
        ("verdict", Json::str(verdict.to_string())),
    ])
}

/// One `chain` audit record with the evaluated eq. 2–3 cost terms. `id`
/// is the chain's index in the enumeration order.
fn chain_record(
    array: &str,
    id: usize,
    chain: &CopyChain,
    cost: &ChainCost,
    verdict: ParetoVerdict,
) -> Json {
    let levels = Json::arr(chain.levels.iter().map(|l| {
        Json::obj([
            ("words", Json::UInt(l.words)),
            ("fills", Json::UInt(l.fills)),
            ("bypasses", Json::UInt(l.bypasses)),
        ])
    }));
    let Json::Obj(cost_entries) = cost.to_json() else {
        unreachable!("ChainCost::to_json is always an object");
    };
    let mut entries = vec![
        ("record".to_string(), Json::str("chain")),
        ("array".to_string(), Json::str(array)),
        ("id".to_string(), Json::UInt(id as u64)),
        ("levels".to_string(), levels),
    ];
    entries.extend(cost_entries);
    entries.push(("verdict".to_string(), Json::str(verdict.to_string())));
    Json::Obj(entries)
}

/// The `[kept, bypass, pruned, dominated]` tallies of `verdicts`.
fn tally(verdicts: &[CandidateVerdict]) -> [u64; 4] {
    let mut counts = [0u64; 4];
    for verdict in verdicts {
        counts[match verdict {
            CandidateVerdict::Kept => 0,
            CandidateVerdict::Bypass => 1,
            CandidateVerdict::Pruned => 2,
            CandidateVerdict::DominatedBy(_) => 3,
        }] += 1;
    }
    counts
}

/// Emits one record per offered candidate of `ex` plus the
/// `candidate-summary` tally. `annots` (empty allowed) is parallel to
/// `ex.offered`.
pub(crate) fn emit_candidate_records(
    sink: &Explain,
    ex: &SignalExploration,
    annots: &[Option<PairVector>],
) {
    let mut lines = Vec::with_capacity(ex.offered.len() + 1);
    for (id, (c, verdict)) in ex.offered.iter().zip(&ex.verdicts).enumerate() {
        let vector = annots.get(id).copied().flatten();
        lines.push(candidate_record(&ex.array, id, c, vector, *verdict).to_string());
    }
    let [kept, bypass, pruned, dominated] = tally(&ex.verdicts);
    lines.push(
        Json::obj([
            ("record", Json::str("candidate-summary")),
            ("array", Json::str(&ex.array)),
            ("c_tot", Json::UInt(ex.c_tot)),
            ("background_words", Json::UInt(ex.background_words)),
            ("offered", Json::UInt(ex.offered.len() as u64)),
            ("kept", Json::UInt(kept)),
            ("bypass", Json::UInt(bypass)),
            ("pruned", Json::UInt(pruned)),
            ("dominated", Json::UInt(dominated)),
        ])
        .to_string(),
    );
    sink.emit_lines(lines);
}

/// Emits one record per evaluated hierarchy plus the `chain-summary`.
pub(crate) fn emit_chain_records(
    sink: &Explain,
    array: &str,
    chains: &[(CopyChain, ChainCost)],
    verdicts: &[ParetoVerdict],
) {
    let mut lines = Vec::with_capacity(chains.len() + 1);
    for (id, ((chain, cost), verdict)) in chains.iter().zip(verdicts).enumerate() {
        lines.push(chain_record(array, id, chain, cost, *verdict).to_string());
    }
    let front = verdicts
        .iter()
        .filter(|v| **v == ParetoVerdict::Kept)
        .count();
    lines.push(
        Json::obj([
            ("record", Json::str("chain-summary")),
            ("array", Json::str(array)),
            ("chains", Json::UInt(chains.len() as u64)),
            ("front", Json::UInt(front as u64)),
        ])
        .to_string(),
    );
    sink.emit_lines(lines);
}

/// The report's "why" lines for the candidates of `ex`: one per
/// surviving candidate in offer order, then the verdict tallies.
pub(crate) fn candidate_why(ex: &SignalExploration) -> Vec<String> {
    let mut out = Vec::new();
    for (c, verdict) in ex.offered.iter().zip(&ex.verdicts) {
        if matches!(verdict, CandidateVerdict::Kept | CandidateVerdict::Bypass) {
            out.push(format!(
                "{verdict}: {} elements ({}) — F_R = {:.2}, \
                 fills {} + bypass {} of {} reads",
                c.size,
                describe_source(c.source),
                c.reuse_factor(),
                c.fills,
                c.bypasses,
                c.c_tot,
            ));
        }
    }
    let [kept, bypass, pruned, dominated] = tally(&ex.verdicts);
    out.push(format!(
        "candidates: {} offered → {} kept ({bypass} bypassing), \
         {dominated} dominated, {pruned} pruned as useless",
        ex.offered.len(),
        kept + bypass,
    ));
    out
}

/// The report's "why" lines for the evaluated hierarchies: one per
/// Pareto-front chain in enumeration order, then the front tally.
pub(crate) fn chain_why(
    chains: &[(CopyChain, ChainCost)],
    verdicts: &[ParetoVerdict],
) -> Vec<String> {
    let mut out = Vec::new();
    for ((chain, cost), verdict) in chains.iter().zip(verdicts) {
        if *verdict == ParetoVerdict::Kept {
            let sizes: Vec<String> = chain.levels.iter().map(|l| l.words.to_string()).collect();
            out.push(format!(
                "front: [{}] — normalized power {:.4}, {} words on-chip",
                sizes.join(" > "),
                cost.normalized_energy,
                cost.onchip_words,
            ));
        }
    }
    let front = out.len();
    out.push(format!(
        "hierarchies: {} evaluated → {front} on the Pareto front",
        chains.len(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_record_carries_the_paper_terms() {
        let c = CandidatePoint {
            size: 64,
            fills: 1087,
            bypasses: 0,
            c_tot: 65536,
            source: CandidateSource::PairMax,
            exact: true,
        };
        let vector = PairVector {
            c_prime: 1,
            b_prime: 1,
            anti: true,
            j_range: 1024,
            k_range: 64,
            gamma: Some((1, 63)),
        };
        let rec = candidate_record("x", 7, &c, Some(vector), CandidateVerdict::Kept);
        let doc = Json::parse(&rec.to_string()).unwrap();
        assert_eq!(doc.get("record").and_then(Json::as_str), Some("candidate"));
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("c_r").and_then(Json::as_u64), Some(65536 - 1087));
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(64));
        let f_r = doc.get("f_r").and_then(Json::as_f64).unwrap();
        assert!((f_r - 65536.0 / 1087.0).abs() < 1e-9);
        let v = doc.get("vector").unwrap();
        assert_eq!(v.get("c_prime").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("gamma_sup").and_then(Json::as_u64), Some(63));
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("kept"));
        assert_eq!(
            doc.get("source")
                .and_then(|s| s.get("kind"))
                .and_then(Json::as_str),
            Some("pair-max")
        );
    }

    #[test]
    fn why_lines_pick_survivors_and_tallies() {
        let c = CandidatePoint {
            size: 9,
            fills: 10,
            bypasses: 0,
            c_tot: 128,
            source: CandidateSource::PairMax,
            exact: true,
        };
        let ex = SignalExploration {
            array: "A".into(),
            bits: 8,
            background_words: 23,
            c_tot: 128,
            groups: Vec::new(),
            candidates: vec![c],
            offered: vec![c, CandidatePoint { fills: 128, ..c }],
            verdicts: vec![CandidateVerdict::Kept, CandidateVerdict::Pruned],
        };
        let lines = candidate_why(&ex);
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "kept: 9 elements (pairwise maximum reuse) — F_R = 12.80, \
             fills 10 + bypass 0 of 128 reads"
        );
        assert_eq!(
            lines[1],
            "candidates: 2 offered → 1 kept (0 bypassing), 0 dominated, 1 pruned as useless"
        );
        // The sink gets one record per offered candidate plus the tally.
        let sink = Explain::new();
        emit_candidate_records(&sink, &ex, &[]);
        assert_eq!(sink.len(), 3);
    }
}
