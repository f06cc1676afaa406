//! Output verification. A wrong answer counts as a failed op.
//!
//! - Builtin and corpus outputs are compared with the FNV-1a digests in
//!   `golden.json`, whose `c_tot` column is cross-checked at set-up
//!   against the independent trace enumeration `trace_len(.., READS)`.
//! - Seeded einsums are checked against the generator's closed forms.
//! - Served responses are byte-compared with the in-process op.

use std::collections::HashMap;

use datareuse_kernels::load_kernel;
use datareuse_loopir::{trace_len, TraceFilter};
use datareuse_obs::Json;
use datareuse_server::ops::{default_array, execute};
use datareuse_server::protocol::{fnv1a, Op};

use crate::gen::{Expect, Kind, Request};

const GOLDEN: &str = include_str!("golden.json");

/// The in-process op: the call behind `datareuse <op> --json`, plus
/// the `to_string()` of its result.
pub fn run_op(op: &Op) -> Result<String, String> {
    execute(op).map(|j| j.to_string()).map_err(|e| e.message)
}

/// Parses a request line into the op the server would run.
pub fn parse_op(line: &str) -> Op {
    datareuse_server::Request::parse_line(line)
        .unwrap_or_else(|e| panic!("generated request `{line}` does not parse: {e}"))
        .op
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub digest: u64,
    pub c_tot: u64,
}

pub struct Golden {
    rows: HashMap<(String, Kind), Row>,
}

impl Golden {
    pub fn load() -> Result<Golden, String> {
        Golden::parse(GOLDEN)
    }

    pub fn parse(text: &str) -> Result<Golden, String> {
        let doc = Json::parse(text).map_err(|e| format!("golden.json: {e}"))?;
        let rows = doc
            .get("rows")
            .and_then(Json::as_array)
            .ok_or("golden.json: no rows")?;
        let mut out = HashMap::new();
        for row in rows {
            let field = |k: &str| row.get(k).ok_or(format!("golden.json: row without {k}"));
            let kernel = field("kernel")?.as_str().ok_or("golden.json: bad kernel")?;
            let op = field("op")?.as_str().ok_or("golden.json: bad op")?;
            let kind = *Kind::ALL
                .iter()
                .find(|k| k.name() == op)
                .ok_or(format!("golden.json: unknown op {op}"))?;
            let digest = field("fnv1a")?
                .as_str()
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or("golden.json: bad digest")?;
            let c_tot = field("c_tot")?.as_u64().ok_or("golden.json: bad c_tot")?;
            out.insert((kernel.to_string(), kind), Row { digest, c_tot });
        }
        Ok(Golden { rows: out })
    }

    pub fn row(&self, kernel: &str, kind: Kind) -> Result<Row, String> {
        self.rows
            .get(&(kernel.to_string(), kind))
            .copied()
            .ok_or_else(|| format!("golden.json has no row for {kernel} {}", kind.name()))
    }

    /// Set-up cross-check: every row's `c_tot` equals the enumerated read
    /// count of the kernel's default array.
    pub fn cross_check(&self, kernels: &[String]) -> Result<(), String> {
        for kernel in kernels {
            let program = load_kernel(kernel)?;
            let array = default_array(&program).ok_or(format!("{kernel}: no read array"))?;
            let reads = trace_len(&program, &array, TraceFilter::READS);
            for kind in Kind::ALL {
                let row = self.row(kernel, kind)?;
                if row.c_tot != reads {
                    return Err(format!(
                        "{kernel} {}: golden c_tot {} but trace_len gives {reads}",
                        kind.name(),
                        row.c_tot
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The `c_tot` of the kernel's default array in one op's output.
fn output_c_tot(kernel: &str, kind: Kind, output: &str) -> Result<u64, String> {
    let doc = Json::parse(output).map_err(|e| format!("{kernel}: {e}"))?;
    let doc = match kind {
        Kind::Explore | Kind::Pareto => doc,
        Kind::Report => {
            let array = default_array(&load_kernel(kernel)?).ok_or("no read array")?;
            doc.as_array()
                .and_then(|docs| {
                    docs.iter()
                        .find(|d| d.get("array").and_then(Json::as_str) == Some(array.as_str()))
                })
                .cloned()
                .ok_or(format!("{kernel}: report has no {array} document"))?
        }
    };
    doc.get("c_tot")
        .and_then(Json::as_u64)
        .ok_or(format!("{kernel}: no c_tot"))
}

/// The `golden.json` text for `kernels`, computed from the current
/// program (`drbench --print-golden`).
pub fn golden_json(kernels: &[String]) -> Result<String, String> {
    let mut lines = Vec::new();
    for kernel in kernels {
        for kind in Kind::ALL {
            let output = run_op(&parse_op(&Request::builtin(kernel, kind).line))?;
            lines.push(format!(
                r#"{{"kernel":"{kernel}","op":"{}","fnv1a":"{:016x}","c_tot":{}}}"#,
                kind.name(),
                fnv1a(output.as_bytes()),
                output_c_tot(kernel, kind, &output)?
            ));
        }
    }
    Ok(format!(
        "{{\"schema\":\"drbench-golden-v1\",\"rows\":[\n{}\n]}}\n",
        lines.join(",\n")
    ))
}

/// The paper's FIR numbers (Section 3): `C_tot` = 65536 reads of a
/// 1087-word signal, with a footprint level of 64 words.
pub fn check_fir_paper_numbers() -> Result<(), String> {
    let output = run_op(&parse_op(&Request::builtin("fir", Kind::Explore).line))?;
    let doc = Json::parse(&output).map_err(|e| e.to_string())?;
    let c_tot = doc.get("c_tot").and_then(Json::as_u64);
    let background = doc.get("background_words").and_then(Json::as_u64);
    let level_64 = doc
        .get("candidates")
        .and_then(Json::as_array)
        .is_some_and(|cs| {
            cs.iter().any(|c| {
                c.get("size").and_then(Json::as_u64) == Some(64)
                    && c.get("source")
                        .and_then(Json::as_str)
                        .is_some_and(|s| s.starts_with("footprint level"))
            })
        });
    if c_tot != Some(65536) || background != Some(1087) || !level_64 {
        return Err(format!(
            "fir: c_tot {c_tot:?} (want 65536), background_words {background:?} \
             (want 1087), footprint level of 64 words: {level_64}"
        ));
    }
    Ok(())
}

/// The `result` bytes of a success envelope
/// (`{"ok":true,"cached":…[,"coalesced":true],"result":…}`).
pub fn result_of(envelope: &str) -> Option<&str> {
    if !envelope.starts_with(r#"{"ok":true"#) {
        return None;
    }
    let at = envelope.find(r#","result":"#)?;
    envelope[at + r#","result":"#.len()..].strip_suffix('}')
}

/// Checks an einsum output against the closed forms: each expected
/// array's document reports exactly the generator's `c_tot` and
/// `background_words`.
pub fn check_closed_forms(kind: Kind, output: &str, expect: &[Expect]) -> Result<(), String> {
    let doc = Json::parse(output).map_err(|e| e.to_string())?;
    let docs: Vec<&Json> = match kind {
        Kind::Report => doc
            .as_array()
            .ok_or("report is not an array")?
            .iter()
            .collect(),
        Kind::Explore | Kind::Pareto => vec![&doc],
    };
    for e in expect {
        let d = docs
            .iter()
            .find(|d| d.get("array").and_then(Json::as_str) == Some(e.array))
            .ok_or(format!("no document for array {}", e.array))?;
        let got = (
            d.get("c_tot").and_then(Json::as_u64),
            d.get("background_words").and_then(Json::as_u64),
        );
        if got != (Some(e.c_tot), Some(e.background_words)) {
            return Err(format!(
                "array {}: (c_tot, background_words) = {got:?}, closed form ({}, {})",
                e.array, e.c_tot, e.background_words
            ));
        }
    }
    Ok(())
}

/// Verifies one served response against the in-process op: the bytes
/// must match, and the in-process output must pass the golden digest or
/// the closed forms.
pub fn verify_served(golden: &Golden, request: &Request, envelope: &str) -> Result<(), String> {
    let served = result_of(envelope).ok_or_else(|| format!("not a success: {envelope}"))?;
    let local = run_op(&parse_op(&request.line))?;
    if served != local {
        return Err(format!(
            "served bytes differ from in-process for {}",
            request.line
        ));
    }
    if request.is_expression() {
        check_closed_forms(request.kind, &local, &request.expect)
    } else if fnv1a(local.as_bytes()) != golden.row(&request.kernel, request.kind)?.digest {
        Err(format!(
            "{} {}: digest differs from golden.json",
            request.kernel,
            request.kind.name()
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_golden_check_catches_a_one_byte_tamper() {
        let golden = Golden::load().unwrap();
        let op = parse_op(&Request::builtin("me-small", Kind::Explore).line);
        let output = run_op(&op).unwrap();
        let row = golden.row("me-small", Kind::Explore).unwrap();
        assert_eq!(fnv1a(output.as_bytes()), row.digest);
        let mut bytes = output.into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        assert_ne!(fnv1a(&bytes), row.digest);
    }

    #[test]
    fn golden_rows_agree_with_the_trace_and_the_paper() {
        let golden = Golden::load().unwrap();
        golden
            .cross_check(&["fir".to_string(), "me-small".to_string()])
            .unwrap();
        check_fir_paper_numbers().unwrap();
        let tampered: String = GOLDEN
            .lines()
            .map(|l| {
                if l.contains(r#""kernel":"fir","op":"explore""#) {
                    l.replace(r#""c_tot":65536"#, r#""c_tot":65535"#)
                } else {
                    l.to_string()
                }
            })
            .collect();
        let err = Golden::parse(&tampered)
            .unwrap()
            .cross_check(&["fir".to_string()])
            .unwrap_err();
        assert!(err.contains("trace_len"), "{err}");
    }

    #[test]
    fn envelopes_yield_their_result_bytes() {
        let plain = datareuse_server::protocol::ok_envelope(None, true, r#"{"a":[1]}"#);
        assert_eq!(result_of(&plain), Some(r#"{"a":[1]}"#));
        let joined = datareuse_server::protocol::ok_envelope_coalesced(None, false, true, "[2]");
        assert_eq!(result_of(&joined), Some("[2]"));
        assert_eq!(result_of(r#"{"ok":false,"error":{}}"#), None);
    }

    #[test]
    fn closed_form_checks_reject_a_wrong_count() {
        let mut rng = crate::gen::Rng::new(3, 0);
        let r = crate::gen::einsum(&mut rng, 2, Kind::Report);
        let output = run_op(&parse_op(&r.line)).unwrap();
        check_closed_forms(r.kind, &output, &r.expect).unwrap();
        let mut wrong = r.expect.clone();
        wrong[0].c_tot += 1;
        assert!(check_closed_forms(r.kind, &output, &wrong).is_err());
    }
}
