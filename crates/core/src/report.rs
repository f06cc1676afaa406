//! Human-readable and machine-readable exploration reports.
//!
//! The paper's prototype tool prints curves and templates for the
//! designer; [`ExplorationReport`] is the equivalent structured summary.
//! It holds typed values — the signal's copy-candidates and its Pareto
//! front, built once — and every output renders from them: `Display` as
//! an aligned text report under a `render` span, and
//! [`ExplorationReport::to_json`] as the one-line JSON document that
//! `explore --json` prints and the served ops return. Building runs
//! under a `report` span; callers open `render` around `to_json`.
//!
//! The workspace is hermetic (standard library only, no crates.io).
//! `to_json` writes its text in one pass with the escaping and number
//! rules of the [`Json`] writer (re-exported here with its
//! [`Json::parse`] reader), so no `Json` tree is built.

use std::fmt;

use datareuse_memmodel::{chain_breakdown, AreaModel, MemoryTechnology};
use datareuse_obs::{span, write_escaped, write_num, Explain};

use crate::explain::candidate_why;
use crate::explore::{ExploreOptions, SignalExploration};
use crate::levels::{CandidatePoint, CandidateSource};

pub use datareuse_obs::{Json, JsonParseError};

/// One rendered hierarchy row of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyRow {
    /// Level sizes, outermost first.
    pub level_sizes: Vec<u64>,
    /// Total on-chip elements.
    pub onchip_words: u64,
    /// Normalized power.
    pub normalized_power: f64,
    /// Fraction of the energy still burned in the background memory.
    pub background_share: f64,
}

/// A structured exploration summary for one signal.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationReport {
    /// The signal.
    pub array: String,
    /// Total reads per execution.
    pub c_tot: u64,
    /// Background footprint in elements.
    pub background_words: u64,
    /// The signal's copy-candidates, largest first.
    pub candidates: Vec<CandidatePoint>,
    /// The Pareto-front hierarchies, smallest first.
    pub pareto: Vec<HierarchyRow>,
    /// Human "why" lines: one per surviving candidate in offer order and
    /// per front hierarchy in enumeration order, each list followed by
    /// its tally (empty unless built by
    /// [`ExplorationReport::build_explained`] with a sink).
    pub why: Vec<String>,
}

/// Describes a candidate source with the paper's vocabulary.
pub fn describe_source(source: CandidateSource) -> String {
    match source {
        CandidateSource::Footprint { depth_from_inner } => {
            format!("footprint level (+{depth_from_inner} loops)")
        }
        CandidateSource::MergedFootprint { depth_from_inner } => {
            format!("merged footprint (+{depth_from_inner} loops)")
        }
        CandidateSource::PairMax => "pairwise maximum reuse".into(),
        CandidateSource::PairPartial { gamma, bypass: false } => {
            format!("partial reuse γ={gamma}")
        }
        CandidateSource::PairPartial { gamma, bypass: true } => {
            format!("partial reuse γ={gamma} + bypass")
        }
        CandidateSource::Simulated => "simulated".into(),
    }
}

impl ExplorationReport {
    /// Builds the report from an exploration under a memory technology.
    ///
    /// # Examples
    ///
    /// ```
    /// use datareuse_core::{explore_signal, ExplorationReport, ExploreOptions};
    /// use datareuse_loopir::parse_program;
    /// use datareuse_memmodel::{BitCount, MemoryTechnology};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let p = parse_program("array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; } }")?;
    /// let ex = explore_signal(&p, "A", &ExploreOptions::default())?;
    /// let report = ExplorationReport::build(
    ///     &ex,
    ///     &ExploreOptions::default(),
    ///     &MemoryTechnology::new(),
    ///     &BitCount,
    /// );
    /// assert!(report.to_string().contains("Pareto front"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn build(
        exploration: &SignalExploration,
        opts: &ExploreOptions,
        tech: &MemoryTechnology,
        area: &(impl AreaModel + Sync),
    ) -> Self {
        Self::build_explained(exploration, opts, tech, area, None)
    }

    /// [`ExplorationReport::build`] with an optional audit sink. With
    /// `Some`, the one front the report prints also writes its `chain`
    /// records into the sink, and the `why` section is rendered from the
    /// exploration's dedupe verdicts and that front's.
    pub fn build_explained(
        exploration: &SignalExploration,
        opts: &ExploreOptions,
        tech: &MemoryTechnology,
        area: &(impl AreaModel + Sync),
        explain: Option<&Explain>,
    ) -> Self {
        let _timer = span("report");
        let (front, chain_why) = exploration.pareto_explained(opts, tech, area, explain);
        let pareto = front
            .into_iter()
            .map(|p| {
                let (chain, cost) = p.payload;
                let breakdown = chain_breakdown(&chain, tech);
                HierarchyRow {
                    level_sizes: chain.levels.iter().map(|l| l.words).collect(),
                    onchip_words: cost.onchip_words,
                    normalized_power: cost.normalized_energy,
                    background_share: breakdown.background_share(),
                }
            })
            .collect();
        let why = match explain {
            Some(_) => {
                let mut why = candidate_why(exploration);
                why.extend(chain_why);
                why
            }
            None => Vec::new(),
        };
        Self {
            array: exploration.array.clone(),
            c_tot: exploration.c_tot,
            background_words: exploration.background_words,
            candidates: exploration.candidates.clone(),
            pareto,
            why,
        }
    }
}

impl ExplorationReport {
    /// The report as a single-line JSON document, for machine consumers
    /// (`datareuse explore … --json` and the served `explore` and
    /// `report` ops).
    ///
    /// # Examples
    ///
    /// ```
    /// use datareuse_core::{explore_signal, ExplorationReport, ExploreOptions};
    /// use datareuse_loopir::parse_program;
    /// use datareuse_memmodel::{BitCount, MemoryTechnology};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let p = parse_program("array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; } }")?;
    /// let ex = explore_signal(&p, "A", &ExploreOptions::default())?;
    /// let report = ExplorationReport::build(
    ///     &ex,
    ///     &ExploreOptions::default(),
    ///     &MemoryTechnology::new(),
    ///     &BitCount,
    /// );
    /// let json = report.to_json();
    /// assert!(json.starts_with(r#"{"array":"A","c_tot":128"#));
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.json_len_floor());
        self.write_json(&mut out).expect("a String accepts every write");
        out
    }

    /// Writes [`Self::to_json`]'s document to `out` in one pass from the
    /// typed fields, with no intermediate [`Json`] tree.
    ///
    /// # Errors
    ///
    /// Only those of `out` itself; a `String` never fails.
    pub fn write_json(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str("{\"array\":")?;
        write_escaped(out, &self.array)?;
        out.write_str(",\"c_tot\":")?;
        write!(out, "{}", self.c_tot)?;
        out.write_str(",\"background_words\":")?;
        write!(out, "{}", self.background_words)?;
        out.write_str(",\"candidates\":[")?;
        for (i, c) in self.candidates.iter().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            out.write_str("{\"source\":")?;
            write_escaped(out, &describe_source(c.source))?;
            out.write_str(",\"size\":")?;
            write!(out, "{}", c.size)?;
            out.write_str(",\"reuse_factor\":")?;
            write_num(out, c.reuse_factor())?;
            out.write_str(if c.exact { ",\"exact\":true}" } else { ",\"exact\":false}" })?;
        }
        out.write_str("],\"pareto\":[")?;
        for (i, row) in self.pareto.iter().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            out.write_str("{\"level_sizes\":[")?;
            for (j, &size) in row.level_sizes.iter().enumerate() {
                if j > 0 {
                    out.write_char(',')?;
                }
                write!(out, "{size}")?;
            }
            out.write_str("],\"onchip_words\":")?;
            write!(out, "{}", row.onchip_words)?;
            out.write_str(",\"normalized_power\":")?;
            write_num(out, row.normalized_power)?;
            out.write_str(",\"background_share\":")?;
            write_num(out, row.background_share)?;
            out.write_char('}')?;
        }
        out.write_str("],\"why\":[")?;
        for (i, line) in self.why.iter().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            write_escaped(out, line)?;
        }
        out.write_str("]}")
    }

    /// A lower bound on the length of [`Self::to_json`]: the fixed key
    /// text of each record plus one byte per number, so the reservation
    /// never exceeds the output.
    fn json_len_floor(&self) -> usize {
        let levels: usize = self.pareto.iter().map(|row| row.level_sizes.len()).sum();
        let why: usize = self.why.iter().map(|line| line.len() + 2).sum();
        80 + self.array.len() + 60 * self.candidates.len() + 76 * self.pareto.len() + 2 * levels + why
    }
}

impl fmt::Display for ExplorationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let _timer = span("render");
        writeln!(
            f,
            "signal `{}`: {} reads, {} background elements",
            self.array, self.c_tot, self.background_words
        )?;
        writeln!(f, "\ncopy-candidates:")?;
        for c in &self.candidates {
            writeln!(
                f,
                "  {:>8} elements  F_R = {:>8.2}  {}{}",
                c.size,
                c.reuse_factor(),
                describe_source(c.source),
                if c.exact { "" } else { "  (approximate)" }
            )?;
        }
        writeln!(f, "\nPareto front (size, normalized power, background share):")?;
        for row in &self.pareto {
            let levels: Vec<String> = row.level_sizes.iter().map(u64::to_string).collect();
            writeln!(
                f,
                "  {:>8}  {:>8.4}  {:>5.1}%  [{}]",
                row.onchip_words,
                row.normalized_power,
                100.0 * row.background_share,
                levels.join(" > ")
            )?;
        }
        if !self.why.is_empty() {
            writeln!(f, "\nwhy:")?;
            for line in &self.why {
                writeln!(f, "  {line}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_signal;
    use datareuse_loopir::parse_program;
    use datareuse_memmodel::BitCount;

    #[test]
    fn report_renders_candidates_and_front() {
        let p = parse_program("array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; } }")
            .unwrap();
        let ex = explore_signal(&p, "A", &ExploreOptions::default()).unwrap();
        let r = ExplorationReport::build(
            &ex,
            &ExploreOptions::default(),
            &MemoryTechnology::new(),
            &BitCount,
        );
        let text = r.to_string();
        assert!(text.contains("signal `A`: 128 reads"));
        assert!(text.contains("pairwise maximum reuse"));
        assert!(text.contains("Pareto front"));
        // The baseline row burns 100% in the background.
        assert!((r.pareto[0].background_share - 1.0).abs() < 1e-12);
        // The best row shifts a substantial part of the energy on-chip
        // (F_RMax ≈ 5.6 here, so the background still serves 1/5.6 of the
        // reads at ~36x the on-chip energy).
        assert!(r.pareto.last().unwrap().background_share < 0.95);
        assert!(
            r.pareto.last().unwrap().normalized_power
                < r.pareto[0].normalized_power
        );
    }

    #[test]
    fn report_json_is_complete_and_parsable_shape() {
        let p = parse_program("array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; } }")
            .unwrap();
        let ex = explore_signal(&p, "A", &ExploreOptions::default()).unwrap();
        let r = ExplorationReport::build(
            &ex,
            &ExploreOptions::default(),
            &MemoryTechnology::new(),
            &BitCount,
        );
        let json = r.to_json();
        assert!(json.starts_with("{\"array\":\"A\""));
        // Round-trip through the in-repo reader: the document is
        // well-formed and candidate/Pareto counts survive the encoding.
        let parsed = Json::parse(&json).expect("report JSON must parse");
        assert_eq!(parsed.get("array").and_then(Json::as_str), Some("A"));
        assert_eq!(parsed.get("c_tot").and_then(Json::as_u64), Some(r.c_tot));
        assert_eq!(
            parsed.get("candidates").and_then(Json::as_array).unwrap().len(),
            r.candidates.len()
        );
        assert_eq!(
            parsed.get("pareto").and_then(Json::as_array).unwrap().len(),
            r.pareto.len()
        );
    }

    #[test]
    fn why_section_matches_the_audit_log() {
        let p = parse_program("array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; } }")
            .unwrap();
        let sink = datareuse_obs::Explain::new();
        let opts = ExploreOptions::default();
        let ex = crate::explore::explore_signal_explained(&p, "A", &opts, Some(&sink)).unwrap();
        let tech = MemoryTechnology::new();
        let r = ExplorationReport::build_explained(&ex, &opts, &tech, &BitCount, Some(&sink));
        // One line per kept candidate + tally, one per front chain + tally.
        assert_eq!(
            r.why.len(),
            ex.candidates.len() + r.pareto.len() + 2,
            "{:#?}",
            r.why
        );
        let text = r.to_string();
        assert!(text.contains("\nwhy:"));
        assert!(text.contains("hierarchies:"));
        // The why lines ride along in the JSON artifact too.
        let parsed = Json::parse(&r.to_json()).unwrap();
        assert_eq!(
            parsed.get("why").and_then(Json::as_array).unwrap().len(),
            r.why.len()
        );
    }

    #[test]
    fn source_descriptions_are_distinct() {
        let all = [
            CandidateSource::Footprint { depth_from_inner: 1 },
            CandidateSource::MergedFootprint { depth_from_inner: 2 },
            CandidateSource::PairMax,
            CandidateSource::PairPartial { gamma: 3, bypass: false },
            CandidateSource::PairPartial { gamma: 3, bypass: true },
            CandidateSource::Simulated,
        ];
        let mut seen: Vec<String> = all.iter().map(|&s| describe_source(s)).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), all.len());
    }
}
