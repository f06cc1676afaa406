//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request is one line of JSON (parsed with the workspace's
//! [`Json`] reader, so the same depth limit and error reporting apply to
//! network bytes as to every other artifact). The grammar:
//!
//! ```text
//! request  = { "op": <op>, <op params>…,
//!              "id"?: <any json>, "deadline_ms"?: uint }
//! op       = "explore" | "pareto" | "report" | "codegen" | "batch"
//!          | "stats" | "health" | "trace" | "prom" | "ping" | "shutdown"
//!          | "memstats"
//! response = { "ok": true,  "id"?: <echoed>, "cached": bool,
//!              "coalesced"?: true, "result": <json> }
//!          | { "ok": false, "id"?: <echoed>,
//!              "error": { "code": <code>, "message": string,
//!                         "flight"?: [<flight event>…] } }
//! code     = "bad_request" | "overloaded" | "timeout"
//!          | "shutting_down" | "internal"
//! ```
//!
//! `batch` carries `"requests": [<request>…]` — up to [`MAX_BATCH`]
//! sub-requests executed under the *parent's* deadline (per-item
//! `deadline_ms` is ignored) and answered as one frame whose result is
//! `{"responses": [<full response envelope>…]}` in request order. Any
//! op except `shutdown` and a nested `batch` may appear inside.
//! `coalesced: true` marks a response whose computation was shared with
//! an identical concurrent request (singleflight follower) rather than
//! run or cached for this request alone; it only ever appears alongside
//! `cached: false`.
//!
//! `timeout` and `overloaded` errors attach the flight-recorder tail
//! (the last ~32 structured serving events) under `error.flight` so a
//! refusal can be debugged after the fact. `stats` accepts an optional
//! `"flight": true` to include the full recorder tail; `health` evaluates the server's SLO thresholds into
//! `ok`/`degraded`/`failing`; `trace` drains buffered spans as a Chrome
//! trace-event document; `prom` returns the Prometheus text exposition
//! as a JSON string; `memstats` returns the tracking allocator's tallies
//! plus the serve-side attribution breakdown as a
//! `datareuse-memstats-v1` document. The span profile (cumulative and
//! self time and bytes per path) rides in the `stats` snapshot's `spans`
//! rows.
//!
//! `id` is echoed back verbatim and `deadline_ms` bounds how long the
//! client is willing to wait; neither participates in the cache key —
//! two requests that differ only in `id`/`deadline_ms` are the same
//! computation (see [`cache_key`]).

use std::fmt;

use datareuse_codegen::Strategy;
use datareuse_obs::{write_escaped, Json};

/// Error code for a request the server could not parse or validate.
pub const E_BAD_REQUEST: &str = "bad_request";
/// Error code for a request rejected because the bounded queue is full.
pub const E_OVERLOADED: &str = "overloaded";
/// Error code for a request whose deadline expired before completion.
pub const E_TIMEOUT: &str = "timeout";
/// Error code for work refused because the server is draining.
pub const E_SHUTTING_DOWN: &str = "shutting_down";
/// Error code for an unexpected server-side failure.
pub const E_INTERNAL: &str = "internal";

/// Most sub-requests one `batch` frame may carry.
pub const MAX_BATCH: usize = 256;

/// Every wire op name, in grammar order (the same order as
/// [`op_ordinal`](crate::server) flight details). The doc-drift test
/// checks each against `docs/SERVING.md`.
pub const OP_NAMES: [&str; 12] = [
    "explore", "pareto", "report", "codegen", "stats", "trace", "prom", "ping", "shutdown",
    "health", "batch", "memstats",
];

/// Parameters of an `explore` request (one signal, full sweep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreParams {
    /// The kernel as text: a builtin or corpus name, inline `.dr`
    /// source, or an einsum expression (resolved by the kernel
    /// registry, which reads no file, so the text is the whole
    /// computation and the cache key covers it).
    pub kernel: String,
    /// Signal to explore; defaults to the most-read array.
    pub array: Option<String>,
    /// Overrides `ExploreOptions::max_chain_depth`.
    pub depth: Option<usize>,
}

/// Parameters of a `pareto` request (chain evaluation, optionally
/// collapsed onto a predefined memory library).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParetoParams {
    /// The kernel as text, as for [`ExploreParams::kernel`].
    pub kernel: String,
    /// Signal to explore; defaults to the most-read array.
    pub array: Option<String>,
    /// Overrides `ExploreOptions::max_chain_depth`.
    pub depth: Option<usize>,
    /// Physical memory sizes to collapse each virtual chain onto
    /// (`datareuse_memmodel::MemoryLibrary`); omitted = custom hierarchy.
    pub library: Option<Vec<u64>>,
}

/// Parameters of a `codegen` request (Fig. 8 template emission).
#[derive(Debug, Clone, PartialEq)]
pub struct CodegenParams {
    /// The kernel as text, as for [`ExploreParams::kernel`].
    pub kernel: String,
    /// Signal to buffer; defaults to the most-read array.
    pub array: Option<String>,
    /// The shared emission options (also used by the CLI `codegen`).
    pub spec: CodegenSpec,
}

/// Everything `codegen` needs beyond the program and the array — shared
/// between the CLI subcommand and the server op so both emit identical
/// code for identical inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct CodegenSpec {
    /// `(outer, inner)` loop pair; defaults to the innermost pair.
    pub pair: Option<(usize, usize)>,
    /// Copy strategy (max / partial:G / bypass:G).
    pub strategy: Strategy,
    /// Emit the self-checking driver around the template.
    pub selfcheck: bool,
    /// Adopt the copy loop into the original nest.
    pub adopt: bool,
    /// Emit the single-assignment template variant.
    pub single_assignment: bool,
    /// Emit a band copy of this depth instead of the pair template.
    pub band: Option<usize>,
}

impl Default for CodegenSpec {
    fn default() -> Self {
        Self {
            pair: None,
            strategy: Strategy::MaxReuse,
            selfcheck: false,
            adopt: false,
            single_assignment: false,
            band: None,
        }
    }
}

/// Parses the CLI/protocol strategy string (`max`, `partial:G`,
/// `bypass:G`) into a [`Strategy`].
pub fn parse_strategy(text: Option<&str>) -> Result<Strategy, String> {
    match text {
        None | Some("max") => Ok(Strategy::MaxReuse),
        Some(s) => {
            if let Some(g) = s.strip_prefix("partial:") {
                Ok(Strategy::Partial {
                    gamma: g.parse().map_err(|_| "bad gamma".to_string())?,
                })
            } else if let Some(g) = s.strip_prefix("bypass:") {
                Ok(Strategy::PartialBypass {
                    gamma: g.parse().map_err(|_| "bad gamma".to_string())?,
                })
            } else {
                Err(format!("unknown strategy `{s}`"))
            }
        }
    }
}

/// The operation a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Pairwise reuse sweep + Pareto report for one signal.
    Explore(ExploreParams),
    /// Chain enumeration / library collapse for one signal.
    Pareto(ParetoParams),
    /// Full-program report over every read signal.
    Report {
        /// The kernel as text, as for [`ExploreParams::kernel`].
        kernel: String,
    },
    /// Fig. 8 template emission.
    Codegen(CodegenParams),
    /// Live `datareuse-metrics-v2` snapshot (counters include the
    /// serve/cache traffic, histograms the latency distributions).
    Stats {
        /// Include the full flight-recorder tail in the response.
        flight: bool,
    },
    /// SLO evaluation: `ok` / `degraded` / `failing` with per-check
    /// detail (p99 latency, cache hit ratio, queue saturation).
    Health,
    /// Drain buffered trace spans as Chrome trace-event JSON.
    Trace,
    /// Prometheus text-format scrape of the metrics registry.
    Prom,
    /// Tracking-allocator tallies plus serve-side allocation
    /// attribution (`datareuse-memstats-v1`).
    Memstats,
    /// Liveness probe.
    Ping,
    /// Graceful shutdown: stop accepting, drain in-flight work, exit.
    Shutdown,
    /// Several requests in one frame, answered as one frame. Amortizes
    /// framing and syscalls; sub-requests still hit the cache and
    /// coalesce individually.
    Batch(Vec<Request>),
}

impl Op {
    /// Whether results of this op are cacheable (pure functions of the
    /// request body). Control/introspection ops are not.
    pub fn cacheable(&self) -> bool {
        !matches!(
            self,
            Op::Stats { .. }
                | Op::Health
                | Op::Trace
                | Op::Prom
                | Op::Memstats
                | Op::Ping
                | Op::Shutdown
                | Op::Batch(_)
        )
    }

    /// Stable lowercase tag (the wire `op` string), used as span detail
    /// and flight-recorder payload.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Explore(_) => "explore",
            Op::Pareto(_) => "pareto",
            Op::Report { .. } => "report",
            Op::Codegen(_) => "codegen",
            Op::Stats { .. } => "stats",
            Op::Health => "health",
            Op::Trace => "trace",
            Op::Prom => "prom",
            Op::Memstats => "memstats",
            Op::Ping => "ping",
            Op::Shutdown => "shutdown",
            Op::Batch(_) => "batch",
        }
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client correlation id, echoed back verbatim.
    pub id: Option<Json>,
    /// Deadline in milliseconds from receipt; `None` = server default.
    pub deadline_ms: Option<u64>,
    /// The requested operation.
    pub op: Op,
    /// Canonical FNV-1a hash of the semantic request body (excludes
    /// `id` and `deadline_ms`); `None` for non-cacheable ops.
    pub cache_key: Option<u64>,
}

fn get_str(v: &Json, key: &str) -> Option<String> {
    v.get(key).and_then(Json::as_str).map(str::to_string)
}

fn get_usize(v: &Json, key: &str, what: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| format!("`{what}` must be an unsigned integer")),
    }
}

fn get_bool(v: &Json, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(j) => j
            .as_bool()
            .ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

/// Moves the value of `key` out of the object `v`, leaving `null`.
fn take(v: &mut Json, key: &str) -> Option<Json> {
    match v {
        Json::Obj(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, val)| std::mem::replace(val, Json::Null)),
        _ => None,
    }
}

fn require_kernel(v: &mut Json) -> Result<String, String> {
    match take(v, "kernel") {
        Some(Json::Str(text)) => Ok(text),
        _ => Err("missing `kernel` (string)".to_string()),
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-readable message suitable for a `bad_request` response:
    /// malformed JSON, a non-object document, a missing or unknown `op`,
    /// or ill-typed parameters.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let mut doc = Json::parse(line).map_err(|e| e.to_string())?;
        Request::decode(&mut doc)
    }

    /// Decodes `doc`, moving its kernel text, sub-requests and id out
    /// of it rather than copying them.
    fn decode(doc: &mut Json) -> Result<Request, String> {
        if doc.entries().is_none() {
            return Err("request must be a JSON object".to_string());
        }
        // Hashed before anything is moved out; kept for cacheable ops.
        let key = cache_key(doc);
        let op_name = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing `op` (string)".to_string())?;
        let deadline_ms = match doc.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(j) => Some(
                j.as_u64()
                    .ok_or_else(|| "`deadline_ms` must be an unsigned integer".to_string())?,
            ),
        };
        let op = match op_name {
            "explore" => Op::Explore(ExploreParams {
                kernel: require_kernel(doc)?,
                array: get_str(doc, "array"),
                depth: get_usize(doc, "depth", "depth")?,
            }),
            "pareto" => {
                let library = match doc.get("library") {
                    None | Some(Json::Null) => None,
                    Some(j) => {
                        let items = j
                            .as_array()
                            .ok_or_else(|| "`library` must be an array of sizes".to_string())?;
                        Some(
                            items
                                .iter()
                                .map(|s| {
                                    s.as_u64().ok_or_else(|| {
                                        "`library` sizes must be unsigned integers".to_string()
                                    })
                                })
                                .collect::<Result<Vec<u64>, String>>()?,
                        )
                    }
                };
                Op::Pareto(ParetoParams {
                    kernel: require_kernel(doc)?,
                    array: get_str(doc, "array"),
                    depth: get_usize(doc, "depth", "depth")?,
                    library,
                })
            }
            "report" => Op::Report {
                kernel: require_kernel(doc)?,
            },
            "codegen" => {
                let pair = match doc.get("pair") {
                    None | Some(Json::Null) => None,
                    Some(j) => {
                        let items = j.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                            "`pair` must be a two-element array [outer, inner]".to_string()
                        })?;
                        let outer = items[0]
                            .as_u64()
                            .ok_or_else(|| "`pair` entries must be unsigned".to_string())?;
                        let inner = items[1]
                            .as_u64()
                            .ok_or_else(|| "`pair` entries must be unsigned".to_string())?;
                        Some((outer as usize, inner as usize))
                    }
                };
                Op::Codegen(CodegenParams {
                    kernel: require_kernel(doc)?,
                    array: get_str(doc, "array"),
                    spec: CodegenSpec {
                        pair,
                        strategy: parse_strategy(
                            doc.get("strategy").and_then(Json::as_str),
                        )?,
                        selfcheck: get_bool(doc, "selfcheck")?,
                        adopt: get_bool(doc, "adopt")?,
                        single_assignment: get_bool(doc, "single_assignment")?,
                        band: get_usize(doc, "band", "band")?,
                    },
                })
            }
            "stats" => Op::Stats {
                flight: get_bool(doc, "flight")?,
            },
            "health" => Op::Health,
            "trace" => Op::Trace,
            "prom" => Op::Prom,
            "memstats" => Op::Memstats,
            "ping" => Op::Ping,
            "shutdown" => Op::Shutdown,
            "batch" => {
                let Some(Json::Arr(items)) = take(doc, "requests") else {
                    return Err("`batch` needs a `requests` array".to_string());
                };
                if items.is_empty() {
                    return Err("`batch` requests array is empty".to_string());
                }
                if items.len() > MAX_BATCH {
                    return Err(format!(
                        "`batch` carries {} requests; the limit is {MAX_BATCH}",
                        items.len()
                    ));
                }
                let mut requests = Vec::with_capacity(items.len());
                for (i, mut item) in items.into_iter().enumerate() {
                    let sub = Request::decode(&mut item)
                        .map_err(|e| format!("batch request {i}: {e}"))?;
                    match sub.op {
                        Op::Shutdown => {
                            return Err(format!(
                                "batch request {i}: `shutdown` cannot ride in a batch"
                            ))
                        }
                        Op::Batch(_) => {
                            return Err(format!("batch request {i}: batches do not nest"))
                        }
                        _ => requests.push(sub),
                    }
                }
                Op::Batch(requests)
            }
            other => return Err(format!("unknown op `{other}`")),
        };
        Ok(Request {
            id: take(doc, "id"),
            deadline_ms,
            cache_key: op.cacheable().then_some(key),
            op,
        })
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.feed(bytes);
    hash.0
}

/// A running 64-bit FNV-1a hash that is also a [`fmt::Write`] sink, so
/// a document can be hashed as it is serialized, without its text.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn feed(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.feed(s.as_bytes());
        Ok(())
    }
}

/// Writes `v` as [`Json`]'s `Display` would after sorting every
/// object's keys (a stable sort, so repeated keys keep their order),
/// leaving out the top-level entries named in `skip`.
fn write_canonical(out: &mut impl fmt::Write, v: &Json, skip: &[&str]) -> fmt::Result {
    match v {
        Json::Arr(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_canonical(out, item, &[])?;
            }
            out.write_char(']')
        }
        Json::Obj(entries) => {
            let mut sorted: Vec<&(String, Json)> = entries
                .iter()
                .filter(|(k, _)| !skip.contains(&k.as_str()))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            out.write_char('{')?;
            for (i, (k, val)) in sorted.into_iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_escaped(out, k)?;
                out.write_char(':')?;
                write_canonical(out, val, &[])?;
            }
            out.write_char('}')
        }
        leaf => write!(out, "{leaf}"),
    }
}

/// The canonical cache key of a request document: FNV-1a over the
/// canonical (key-sorted) serialization with the non-semantic fields
/// `id` and `deadline_ms` removed. The serialization is streamed into
/// the hash; no copy of the document or its text is built.
///
/// Two requests that describe the same computation — same op and
/// parameters, any key order, any correlation id, any deadline — hash
/// identically; any semantic difference changes the serialization and
/// therefore (up to 64-bit collisions) the key.
pub fn cache_key(request: &Json) -> u64 {
    let mut hash = Fnv1a::default();
    write_canonical(&mut hash, request, &["id", "deadline_ms"])
        .expect("hashing accepts every write");
    hash.0
}

/// Writes a success envelope to `out`: `result_raw` is spliced in
/// verbatim, so it must already be serialized JSON. This is the one
/// byte layout of a success; the server writes it straight into a
/// connection's write buffer, which is how a cache hit reaches the
/// socket with the stored bytes copied once.
///
/// # Errors
///
/// Only those of `out` itself; a `String` never fails.
pub fn write_ok_envelope<W: fmt::Write + ?Sized>(
    out: &mut W,
    id: Option<&Json>,
    cached: bool,
    coalesced: bool,
    result_raw: &str,
) -> fmt::Result {
    write_ok_envelope_with(out, id, cached, coalesced, |out| out.write_str(result_raw))
}

/// [`write_ok_envelope`] whose `result` is written by `result` — how a
/// `batch` writes its sub-envelopes straight into its own.
pub(crate) fn write_ok_envelope_with<W: fmt::Write + ?Sized>(
    out: &mut W,
    id: Option<&Json>,
    cached: bool,
    coalesced: bool,
    result: impl FnOnce(&mut W) -> fmt::Result,
) -> fmt::Result {
    out.write_str("{\"ok\":true")?;
    if let Some(id) = id {
        write!(out, ",\"id\":{id}")?;
    }
    out.write_str(if cached { ",\"cached\":true" } else { ",\"cached\":false" })?;
    if coalesced {
        out.write_str(",\"coalesced\":true")?;
    }
    out.write_str(",\"result\":")?;
    result(out)?;
    out.write_char('}')
}

/// Writes an error envelope with a structured `code` and message to
/// `out`, attaching `flight` (a JSON array of flight-recorder events)
/// under `error.flight` when given.
///
/// # Errors
///
/// Only those of `out` itself; a `String` never fails.
pub fn write_err_envelope<W: fmt::Write + ?Sized>(
    out: &mut W,
    id: Option<&Json>,
    code: &str,
    message: &str,
    flight: Option<&Json>,
) -> fmt::Result {
    out.write_str("{\"ok\":false")?;
    if let Some(id) = id {
        write!(out, ",\"id\":{id}")?;
    }
    out.write_str(",\"error\":{\"code\":")?;
    write_escaped(out, code)?;
    out.write_str(",\"message\":")?;
    write_escaped(out, message)?;
    if let Some(tail) = flight {
        write!(out, ",\"flight\":{tail}")?;
    }
    out.write_str("}}")
}

/// Builds a success envelope ([`write_ok_envelope`] into a new string).
/// `result_raw` is spliced in verbatim — it must already be serialized
/// JSON.
pub fn ok_envelope(id: Option<&Json>, cached: bool, result_raw: &str) -> String {
    ok_envelope_coalesced(id, cached, false, result_raw)
}

/// [`ok_envelope`] with the singleflight marker: `coalesced: true` is
/// emitted only when set, so non-coalesced responses keep their exact
/// historical byte layout.
pub fn ok_envelope_coalesced(
    id: Option<&Json>,
    cached: bool,
    coalesced: bool,
    result_raw: &str,
) -> String {
    let mut out = String::with_capacity(result_raw.len() + 64);
    write_ok_envelope(&mut out, id, cached, coalesced, result_raw)
        .expect("a String accepts every write");
    out
}

/// Builds an error envelope with a structured `code` and message.
pub fn err_envelope(id: Option<&Json>, code: &str, message: &str) -> String {
    err_envelope_with_flight(id, code, message, None)
}

/// Like [`err_envelope`], optionally attaching a flight-recorder tail
/// (a JSON array of events) under `error.flight` — used for `timeout`
/// and `overloaded` responses so the refusal's context survives.
pub fn err_envelope_with_flight(
    id: Option<&Json>,
    code: &str,
    message: &str,
    flight: Option<Json>,
) -> String {
    let mut out = String::new();
    write_err_envelope(&mut out, id, code, message, flight.as_ref())
        .expect("a String accepts every write");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_explore_request() {
        let r = Request::parse_line(r#"{"op":"explore","kernel":"me-small","array":"Old"}"#)
            .unwrap();
        assert_eq!(
            r.op,
            Op::Explore(ExploreParams {
                kernel: "me-small".into(),
                array: Some("Old".into()),
                depth: None,
            })
        );
        assert!(r.cache_key.is_some());
        assert!(r.id.is_none());
    }

    #[test]
    fn cache_key_ignores_id_deadline_and_key_order() {
        let a = Json::parse(r#"{"op":"explore","kernel":"fir","id":7,"deadline_ms":50}"#).unwrap();
        let b = Json::parse(r#"{"kernel":"fir","op":"explore","id":"other"}"#).unwrap();
        let c = Json::parse(r#"{"op":"explore","kernel":"me"}"#).unwrap();
        assert_eq!(cache_key(&a), cache_key(&b));
        assert_ne!(cache_key(&a), cache_key(&c));
    }

    #[test]
    fn cache_key_canonicalizes_nested_objects() {
        let a = Json::parse(r#"{"op":"x","p":{"a":1,"b":[{"y":2,"z":3}]}}"#).unwrap();
        let b = Json::parse(r#"{"p":{"b":[{"z":3,"y":2}],"a":1},"op":"x"}"#).unwrap();
        assert_eq!(cache_key(&a), cache_key(&b));
    }

    #[test]
    fn control_ops_are_not_cacheable() {
        for op in [
            "stats", "health", "trace", "prom", "memstats", "ping", "shutdown",
        ] {
            let r = Request::parse_line(&format!(r#"{{"op":"{op}"}}"#)).unwrap();
            assert!(r.cache_key.is_none(), "{op} must not be cached");
        }
    }

    #[test]
    fn parses_a_batch_with_individually_keyed_sub_requests() {
        let r = Request::parse_line(
            r#"{"op":"batch","id":9,"requests":[
                {"op":"explore","kernel":"fir","id":"sub-a"},
                {"op":"ping"}]}"#,
        )
        .unwrap();
        assert!(r.cache_key.is_none(), "the batch frame itself is not cached");
        let Op::Batch(subs) = &r.op else {
            panic!("expected a batch op");
        };
        assert_eq!(subs.len(), 2);
        // Sub-requests carry the same canonical key as the standalone
        // request, so batch traffic shares the cache with single frames.
        let standalone =
            Request::parse_line(r#"{"op":"explore","kernel":"fir"}"#).unwrap();
        assert_eq!(subs[0].cache_key, standalone.cache_key);
        assert!(subs[1].cache_key.is_none());
        assert_eq!(subs[0].id.as_ref().and_then(Json::as_str), Some("sub-a"));
    }

    #[test]
    fn batch_rejects_empty_nested_oversized_and_shutdown() {
        for (line, needle) in [
            (r#"{"op":"batch"}"#.to_string(), "`requests` array"),
            (r#"{"op":"batch","requests":[]}"#.to_string(), "empty"),
            (
                r#"{"op":"batch","requests":[{"op":"shutdown"}]}"#.to_string(),
                "cannot ride in a batch",
            ),
            (
                r#"{"op":"batch","requests":[{"op":"batch","requests":[{"op":"ping"}]}]}"#
                    .to_string(),
                "do not nest",
            ),
            (
                format!(
                    r#"{{"op":"batch","requests":[{}]}}"#,
                    vec![r#"{"op":"ping"}"#; MAX_BATCH + 1].join(",")
                ),
                "limit is",
            ),
            (
                r#"{"op":"batch","requests":[{"op":"explore"}]}"#.to_string(),
                "batch request 0",
            ),
        ] {
            let e = Request::parse_line(&line).unwrap_err();
            assert!(e.contains(needle), "`{needle}` not in `{e}`");
        }
    }

    #[test]
    fn coalesced_envelopes_carry_the_marker_only_when_set() {
        let plain = ok_envelope_coalesced(None, false, false, "1");
        assert_eq!(plain, ok_envelope(None, false, "1"));
        assert!(!plain.contains("coalesced"));
        let marked = ok_envelope_coalesced(None, false, true, "1");
        let doc = Json::parse(&marked).unwrap();
        assert_eq!(doc.get("coalesced").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn stats_accepts_the_flight_flag() {
        let r = Request::parse_line(r#"{"op":"stats","flight":true}"#).unwrap();
        assert_eq!(r.op, Op::Stats { flight: true });
        let r = Request::parse_line(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(r.op, Op::Stats { flight: false });
        assert!(Request::parse_line(r#"{"op":"stats","flight":3}"#).is_err());
        assert_eq!(
            Request::parse_line(r#"{"op":"health"}"#).unwrap().op,
            Op::Health
        );
    }

    #[test]
    fn error_envelopes_can_attach_a_flight_tail() {
        let tail = Json::arr([Json::obj([("event", Json::str("queue_reject"))])]);
        let err = err_envelope_with_flight(None, E_OVERLOADED, "queue full", Some(tail));
        let doc = Json::parse(&err).unwrap();
        let flight = doc
            .get("error")
            .and_then(|e| e.get("flight"))
            .and_then(Json::as_array)
            .expect("flight array attached");
        assert_eq!(
            flight[0].get("event").and_then(Json::as_str),
            Some("queue_reject")
        );
        // The plain form attaches nothing.
        let plain = err_envelope(None, E_TIMEOUT, "late");
        assert!(Json::parse(&plain)
            .unwrap()
            .get("error")
            .and_then(|e| e.get("flight"))
            .is_none());
    }

    #[test]
    fn rejects_malformed_and_ill_typed_requests() {
        for (line, needle) in [
            ("", "parse error"),
            ("42", "must be a JSON object"),
            ("{}", "missing `op`"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"explore"}"#, "missing `kernel`"),
            (r#"{"op":"explore","kernel":"fir","depth":-1}"#, "unsigned"),
            (r#"{"op":"explore","kernel":"fir","deadline_ms":"soon"}"#, "deadline_ms"),
            (r#"{"op":"pareto","kernel":"fir","library":"big"}"#, "array of sizes"),
            (r#"{"op":"codegen","kernel":"fir","pair":[1]}"#, "two-element"),
            (r#"{"op":"codegen","kernel":"fir","strategy":"turbo"}"#, "unknown strategy"),
        ] {
            let e = Request::parse_line(line).unwrap_err();
            assert!(e.contains(needle), "`{line}` -> `{e}`");
        }
    }

    #[test]
    fn envelopes_are_valid_json_and_echo_the_id() {
        let id = Json::UInt(9);
        let ok = ok_envelope(Some(&id), true, r#"{"x":1}"#);
        let doc = Json::parse(&ok).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(9));
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("result").and_then(|r| r.get("x")).and_then(Json::as_u64),
            Some(1)
        );
        let err = err_envelope(None, E_TIMEOUT, "deadline of 5ms expired");
        let doc = Json::parse(&err).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
            Some(E_TIMEOUT)
        );
        assert!(doc.get("cached").is_none());
    }

    #[test]
    fn strategy_strings_round_trip() {
        assert_eq!(parse_strategy(None).unwrap(), Strategy::MaxReuse);
        assert_eq!(parse_strategy(Some("max")).unwrap(), Strategy::MaxReuse);
        assert_eq!(
            parse_strategy(Some("partial:3")).unwrap(),
            Strategy::Partial { gamma: 3 }
        );
        assert_eq!(
            parse_strategy(Some("bypass:2")).unwrap(),
            Strategy::PartialBypass { gamma: 2 }
        );
        assert!(parse_strategy(Some("warp")).is_err());
    }
}
