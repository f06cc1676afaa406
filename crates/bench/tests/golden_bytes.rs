//! The bytes of every builtin and corpus op result, pinned under
//! `cargo test`.
//!
//! drbench's `golden.json` holds one FNV-1a digest per (kernel, op) for
//! the `explore`, `pareto` and `report` results of all 46 builtin and
//! corpus kernels. drbench checks them while it runs; this test checks
//! every row against `ops::execute`, so a change to the analysis or to
//! the JSON encoding that moves a single byte fails the tier-1 suite.

use datareuse_obs::Json;
use datareuse_server::ops::execute;
use datareuse_server::protocol::fnv1a;
use datareuse_server::Request;

const GOLDEN: &str = include_str!("../src/bin/drbench/golden.json");

#[test]
fn every_golden_row_matches_the_executed_bytes() {
    let doc = Json::parse(GOLDEN).expect("golden.json parses");
    let rows = doc.get("rows").and_then(Json::as_array).expect("golden.json has rows");
    let mut mismatches = Vec::new();
    for row in rows {
        let field = |key: &str| row.get(key).and_then(Json::as_str).expect("string field");
        let (kernel, op) = (field("kernel"), field("op"));
        let want = u64::from_str_radix(field("fnv1a"), 16).expect("hex digest");
        let line = Json::obj([("op", Json::str(op)), ("kernel", Json::str(kernel))]).to_string();
        let request = Request::parse_line(&line).expect("golden request parses");
        let output = execute(&request.op).unwrap_or_else(|e| panic!("{line}: {}", e.message));
        let got = fnv1a(output.as_bytes());
        if got != want {
            mismatches.push(format!("{kernel} {op}: {got:016x}, golden {want:016x}"));
        }
    }
    assert_eq!(rows.len(), 46 * 3, "one row per builtin/corpus kernel and op");
    assert!(mismatches.is_empty(), "digests differ:\n{}", mismatches.join("\n"));
}
