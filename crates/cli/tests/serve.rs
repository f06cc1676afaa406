//! Black-box tests of `datareuse serve` / `datareuse query`.
//!
//! Every test spawns the real binary with `--addr 127.0.0.1:0`, reads
//! the `listening on` discovery line for the ephemeral port, talks to
//! the daemon over real sockets, and shuts it down gracefully.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use datareuse_core::Json;

/// The slow request target of the timeout, overload and coalescing
/// tests: a nest whose non-separable guard keeps every exploration on
/// the enumeration path (about 0.4 s per `report` in a release build).
/// It goes on the wire as its `.dr` text; the server reads no files.
const SLOW_KERNEL: &str = include_str!("fixtures/slow_guarded.dr");

/// A request for `op` on the kernel `text`, with `fields` spliced into
/// the JSON object.
fn kernel_request(op: &str, text: &str, fields: &str) -> String {
    format!(r#"{{"op":"{op}","kernel":{},{fields}}}"#, Json::str(text))
}

/// A slow request with `fields` spliced into the JSON object.
fn slow_request(op: &str, fields: &str) -> String {
    kernel_request(op, SLOW_KERNEL, fields)
}

struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn spawn(extra: &[&str]) -> ServerProc {
        Self::spawn_inner(extra, &[], Stdio::null()).0
    }

    /// Spawns with extra environment variables set for the daemon.
    fn spawn_with_env(extra: &[&str], env: &[(&str, &str)]) -> ServerProc {
        Self::spawn_inner(extra, env, Stdio::null()).0
    }

    fn spawn_inner(
        extra: &[&str],
        env: &[(&str, &str)],
        stderr: Stdio,
    ) -> (ServerProc, Option<std::process::ChildStderr>) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_datareuse"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .envs(env.iter().copied())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("server spawns");
        let captured = child.stderr.take();
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("discovery line");
        let addr = line
            .trim()
            .strip_prefix("datareuse-serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected discovery line: {line}"))
            .to_string();
        (ServerProc { child, addr }, captured)
    }

    /// Kills the daemon without draining — for tests that deliberately
    /// wedge the worker pool with slow jobs.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Sends `shutdown` and asserts the daemon drains and exits 0
    /// within a timeout.
    fn shutdown(mut self) {
        let responses = exchange(&self.addr, &[r#"{"op":"shutdown"}"#]);
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(true));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().expect("wait works") {
                Some(status) => {
                    assert_eq!(status.code(), Some(0), "graceful shutdown exits 0");
                    return;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("server did not exit within the drain timeout");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

/// Opens one connection, sends each line, returns the parsed responses.
fn exchange(addr: &str, lines: &[&str]) -> Vec<Json> {
    let stream = TcpStream::connect(addr).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut out = Vec::new();
    for line in lines {
        writeln!(writer, "{line}").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        out.push(Json::parse(&response).expect("response parses"));
    }
    out
}

fn one_shot_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_datareuse"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "one-shot run succeeds");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn concurrent_clients_get_results_byte_identical_to_the_one_shot_cli() {
    let expected = one_shot_stdout(&["explore", "fir", "--json"]);
    let expected = expected.trim();
    let server = ServerProc::spawn(&["--threads", "2"]);
    let addr = server.addr.clone();
    let handles: Vec<_> = (0..4)
        .map(|k| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let request = format!(r#"{{"op":"explore","kernel":"fir","id":{k}}}"#);
                let responses = exchange(&addr, &[&request]);
                let doc = &responses[0];
                assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
                assert_eq!(doc.get("id").and_then(Json::as_u64), Some(k));
                doc.get("result").expect("result present").to_string()
            })
        })
        .collect();
    for handle in handles {
        let result = handle.join().expect("client thread");
        assert_eq!(result, expected, "server result differs from CLI output");
    }
    server.shutdown();
}

#[test]
fn expression_kernels_round_trip_byte_identical_to_the_one_shot_cli() {
    // An inline einsum expression must flow parse → lower →
    // symbolic-first explore identically whether it arrives as a CLI
    // operand or over the wire as a serve op.
    let expr = "C[i,j] += A[i,k] * B[k,j]";
    let expected = one_shot_stdout(&["explore", expr, "--json"]);
    let expected = expected.trim();
    let server = ServerProc::spawn(&[]);
    let request = format!(r#"{{"op":"explore","kernel":"{expr}","id":7}}"#);
    let responses = exchange(&server.addr, &[&request]);
    let doc = &responses[0];
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{doc}");
    assert_eq!(doc.get("id").and_then(Json::as_u64), Some(7));
    let result = doc.get("result").expect("result present").to_string();
    assert_eq!(result, expected, "served expression result differs from CLI output");
    server.shutdown();
}

#[test]
fn repeated_queries_hit_the_cache_and_the_counters_prove_it() {
    let metrics = std::env::temp_dir().join(format!(
        "datareuse_serve_metrics_{}.json",
        std::process::id()
    ));
    let server = ServerProc::spawn(&[
        "--cache-entries",
        "64",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    // Two identical requests from two *separate* `datareuse query`
    // invocations: the cache is shared server-side, not per-connection.
    let request = r#"{"op":"explore","kernel":"me-small","array":"Old"}"#;
    let mut responses = Vec::new();
    for _ in 0..2 {
        let out = Command::new(env!("CARGO_BIN_EXE_datareuse"))
            .args(["query", "--addr", &server.addr, request])
            .output()
            .expect("query runs");
        assert!(out.status.success(), "query exits 0");
        let stdout = String::from_utf8(out.stdout).unwrap();
        responses.push(Json::parse(stdout.trim()).expect("response parses"));
    }
    assert_eq!(responses[0].get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(
        responses[1].get("cached").and_then(Json::as_bool),
        Some(true),
        "second identical request must be served from cache"
    );
    assert_eq!(
        responses[0].get("result").map(Json::to_string),
        responses[1].get("result").map(Json::to_string),
        "cache hit returns the same bytes"
    );
    // The live stats op exposes the same counters the snapshot will.
    let stats = exchange(&server.addr, &[r#"{"op":"stats"}"#]);
    let counters = stats[0]
        .get("result")
        .and_then(|r| r.get("counters"))
        .expect("counters in stats");
    let counter = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    assert!(counter("serve_requests") >= 3, "{counters}");
    assert!(counter("serve_cache_hits") >= 1, "{counters}");
    assert!(counter("serve_cache_misses") >= 1, "{counters}");
    server.shutdown();
    // After a graceful exit the `--metrics` snapshot records the traffic.
    let text = std::fs::read_to_string(&metrics).expect("metrics written on shutdown");
    let _ = std::fs::remove_file(&metrics);
    let doc = Json::parse(&text).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("datareuse-metrics-v2")
    );
    let counters = doc.get("counters").expect("counters section");
    assert!(
        counters.get("serve_cache_hits").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "snapshot records the cache hit: {counters}"
    );
    // The embedded cold-latency histogram reports ordered percentiles.
    let cold = doc
        .get("hists")
        .and_then(|h| h.get("serve_latency_cold_ns"))
        .expect("serve_latency_cold_ns histogram");
    let q = |name: &str| cold.get(name).and_then(Json::as_u64).expect(name);
    assert!(q("count") >= 1, "{cold}");
    assert!(q("p50") <= q("p90") && q("p90") <= q("p99"), "{cold}");
}

#[test]
fn an_expired_deadline_returns_a_structured_timeout() {
    let server = ServerProc::spawn(&["--threads", "1"]);
    let responses = exchange(
        &server.addr,
        &[&slow_request("report", r#""deadline_ms":0,"id":"slow""#)],
    );
    let doc = &responses[0];
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("timeout")
    );
    assert_eq!(doc.get("id").and_then(Json::as_str), Some("slow"));
    server.shutdown();
}

#[test]
fn query_propagates_server_errors_as_a_nonzero_exit() {
    let server = ServerProc::spawn(&[]);
    let out = Command::new(env!("CARGO_BIN_EXE_datareuse"))
        .args(["query", "--addr", &server.addr, r#"{"op":"frobnicate"}"#])
        .output()
        .expect("query runs");
    assert_eq!(out.status.code(), Some(1), "error response exits 1");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("bad_request"), "stdout: {stdout}");
    server.shutdown();
}

#[test]
fn query_maps_timeouts_to_exit_3_and_prints_the_flight_tail() {
    let server = ServerProc::spawn(&["--threads", "1"]);
    let out = Command::new(env!("CARGO_BIN_EXE_datareuse"))
        .args([
            "query",
            "--addr",
            &server.addr,
            &slow_request("report", r#""deadline_ms":0"#),
        ])
        .output()
        .expect("query runs");
    assert_eq!(out.status.code(), Some(3), "timeout maps to exit 3");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains(r#""code":"timeout""#), "stdout: {stdout}");
    assert!(
        stdout.contains(r#""flight":["#),
        "timeout response attaches the flight tail: {stdout}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("flight-recorder tail"),
        "stderr surfaces the tail: {stderr}"
    );
    assert!(
        stderr.contains("request_start"),
        "tail events print as NDJSON: {stderr}"
    );
    server.shutdown();
}

#[test]
fn query_maps_overload_to_exit_4() {
    // One worker, one queue slot. Two slow requests wedge both; the
    // third is refused with `overloaded`. Each request carries a
    // distinct `salt` field — the parser ignores it but the canonical
    // cache key hashes it, so the requests stay separate flights
    // instead of coalescing onto one computation.
    //
    // Rather than sleeping for a host-dependent time, the test polls
    // `stats` (answered inline on the single event loop, so it never
    // sees a request half-dispatched) until the pool is in the state it
    // needs: after the first request the worker has taken it (queue
    // empty), after the second one job runs and one waits. The third
    // request then only has to arrive within one slow report.
    let server = ServerProc::spawn(&["--threads", "1", "--loops", "1", "--queue-depth", "1"]);
    let wait_for_pool = |computed: u64, queued: u64| {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = exchange(&server.addr, &[r#"{"op":"stats"}"#]);
            let result = stats[0].get("result").expect("stats result");
            let seen = (
                result
                    .get("counters")
                    .and_then(|c| c.get("serve_cache_misses"))
                    .and_then(Json::as_u64),
                result.get("derived").and_then(|d| d.get("queue_depth")).and_then(Json::as_u64),
            );
            if seen == (Some(computed), Some(queued)) {
                return;
            }
            assert!(Instant::now() < deadline, "pool never reached {computed}/{queued}: {seen:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let mut wedges = Vec::new();
    for salt in 0..2 {
        let slow = slow_request("report", &format!(r#""deadline_ms":60000,"salt":{salt}"#));
        let mut stream = TcpStream::connect(&server.addr).expect("connects");
        writeln!(stream, "{slow}").unwrap();
        stream.flush().unwrap();
        wedges.push(stream); // keep open; never read the response
        wait_for_pool(salt + 1, salt);
    }
    let out = Command::new(env!("CARGO_BIN_EXE_datareuse"))
        .args([
            "query",
            "--addr",
            &server.addr,
            &slow_request("report", r#""deadline_ms":60000,"salt":2"#),
        ])
        .output()
        .expect("query runs");
    assert_eq!(out.status.code(), Some(4), "overload maps to exit 4");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains(r#""code":"overloaded""#), "stdout: {stdout}");
    assert!(
        stdout.contains(r#""flight":["#),
        "overload response attaches the flight tail: {stdout}"
    );
    // The pool is wedged on slow reports; no graceful drain.
    drop(wedges);
    server.kill();
}

#[test]
fn trace_out_writes_a_chrome_trace_with_nested_spans() {
    let trace = std::env::temp_dir().join(format!(
        "datareuse_serve_trace_{}.json",
        std::process::id()
    ));
    let server = ServerProc::spawn(&["--trace-out", trace.to_str().unwrap()]);
    let responses = exchange(
        &server.addr,
        &[r#"{"op":"explore","kernel":"fir","id":1}"#, r#"{"op":"stats"}"#],
    );
    assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
    // The profile aggregates the same spans by path.
    let paths: Vec<&str> = responses[1]
        .get("result")
        .and_then(|r| r.get("spans"))
        .and_then(Json::as_array)
        .expect("stats spans section")
        .iter()
        .filter_map(|s| s.get("path").and_then(Json::as_str))
        .collect();
    for wanted in ["request", "request/cache", "execute/explore"] {
        assert!(paths.contains(&wanted), "no `{wanted}` in {paths:?}");
    }
    let text = std::fs::read_to_string(&trace).expect("trace written on shutdown");
    let _ = std::fs::remove_file(&trace);
    let doc = Json::parse(&text).expect("Chrome trace JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Every event is a complete Perfetto-loadable duration event.
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"), "{e}");
        assert!(e.get("ts").and_then(Json::as_f64).is_some(), "{e}");
        assert!(e.get("dur").and_then(Json::as_f64).is_some(), "{e}");
        assert!(
            e.get("args").and_then(|a| a.get("trace_id")).is_some(),
            "{e}"
        );
    }
    // The explore request is one span chain under one trace id:
    // `request` on the event loop, `execute` on the worker, then core's
    // own `explore` and `pairs` stages, each pointing at its parent.
    let find = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no `{name}` span traced"))
    };
    let arg = |e: &Json, key: &str| e.get("args").and_then(|a| a.get(key)).map(Json::to_string);
    let chain = ["request", "execute", "explore", "pairs"].map(find);
    for e in &chain[..2] {
        assert_eq!(arg(e, "detail").as_deref(), Some(r#""explore""#), "{e}");
    }
    for pair in chain.windows(2) {
        let (parent, child) = (pair[0], pair[1]);
        assert_eq!(arg(child, "trace_id"), arg(parent, "trace_id"), "same trace: {child}");
        assert_eq!(
            arg(child, "parent_span"),
            arg(parent, "span_id"),
            "{child} nests under {parent}"
        );
    }
}

#[test]
fn stats_derives_ratios_prom_scrapes_and_the_flight_recorder_replays() {
    let server = ServerProc::spawn(&["--cache-entries", "64"]);
    let request = r#"{"op":"explore","kernel":"me-small","array":"Old"}"#;
    let responses = exchange(&server.addr, &[request, request]);
    assert_eq!(responses[1].get("cached").and_then(Json::as_bool), Some(true));

    let stats = exchange(&server.addr, &[r#"{"op":"stats","flight":true}"#]);
    let result = stats[0].get("result").expect("stats result");
    let derived = result.get("derived").expect("derived section");
    assert!(
        derived.get("requests_served").and_then(Json::as_u64).unwrap_or(0) >= 2,
        "{derived}"
    );
    let ratio = derived
        .get("cache_hit_ratio")
        .and_then(Json::as_f64)
        .expect("hit ratio");
    assert!(ratio > 0.0 && ratio <= 1.0, "one hit of two probes: {ratio}");
    assert!(derived.get("queue_depth").and_then(Json::as_u64).is_some());
    assert!(derived.get("queue_depth_max").and_then(Json::as_u64).is_some());
    // v2 histograms rode along, split cold vs cache-hit.
    let hists = result.get("hists").expect("hists section");
    let count = |h: &str| {
        hists
            .get(h)
            .and_then(|x| x.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    assert!(count("serve_latency_cold_ns") >= 1, "{hists}");
    assert!(count("serve_latency_cache_hit_ns") >= 1, "{hists}");
    // The flight recorder replays the traffic: starts, ends, cache events.
    let flight = result.get("flight").and_then(Json::as_array).expect("flight tail");
    let kinds: Vec<&str> = flight
        .iter()
        .filter_map(|e| e.get("event").and_then(Json::as_str))
        .collect();
    assert!(kinds.contains(&"request_start"), "{kinds:?}");
    assert!(kinds.contains(&"request_end"), "{kinds:?}");
    assert!(kinds.contains(&"cache_hit"), "{kinds:?}");
    assert!(kinds.contains(&"cache_miss"), "{kinds:?}");

    // A prom scrape over the same socket protocol: text format with the
    // serve counters and at least one histogram bucket series.
    let prom = exchange(&server.addr, &[r#"{"op":"prom"}"#]);
    let text = prom[0]
        .get("result")
        .and_then(Json::as_str)
        .expect("prom result is the text block");
    assert!(text.contains("datareuse_serve_requests "), "{text}");
    assert!(text.contains("datareuse_serve_cache_hits "), "{text}");
    assert!(text.contains("_bucket{le="), "{text}");
    server.shutdown();
}

#[test]
fn the_stats_reply_does_not_grow_with_the_request_count() {
    // Every explore below computes (each expression is distinct) and fans
    // its pair sweep and chain costing out to two workers. A registry
    // that keeps a record per fan-out or per request makes each `stats`
    // reply longer than the last; a bounded one grows only by counter
    // digits and the odd new histogram bucket.
    let server = ServerProc::spawn_with_env(&["--threads", "1"], &[("DATAREUSE_THREADS", "2")]);
    let stream = TcpStream::connect(&server.addr).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut sent = 0u32;
    let mut stats_len_after = |requests: u32| {
        let mut line = String::new();
        for _ in 0..requests {
            sent += 1;
            let extent = 20 + sent;
            // One write per request line: split writes stall on Nagle.
            let request = format!(
                "{{\"op\":\"explore\",\"kernel\":\"B[i] += A[i+j+k] ~ i j k where i={extent}, j=4, k=3\"}}\n"
            );
            writer.write_all(request.as_bytes()).unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""ok":true"#), "{line}");
        }
        writer.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        line.len()
    };
    let warm = stats_len_after(40);
    let later = stats_len_after(200);
    assert!(
        later < warm + 2 * 200,
        "stats reply grew from {warm} to {later} bytes over 200 requests"
    );
    server.shutdown();
}

#[test]
fn health_maps_to_exit_codes_and_top_renders_every_panel() {
    let server = ServerProc::spawn(&[]);
    // A healthy server: `query health` exits 0.
    let out = Command::new(env!("CARGO_BIN_EXE_datareuse"))
        .args(["query", "--addr", &server.addr, r#"{"op":"health"}"#])
        .output()
        .expect("query runs");
    assert_eq!(out.status.code(), Some(0), "healthy server exits 0");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains(r#""status":"ok""#), "stdout: {stdout}");
    // Generate some traffic, then render one dashboard frame: `--once`
    // polls twice, 50 ms apart, so the frame has a window to plot.
    exchange(
        &server.addr,
        &[
            r#"{"op":"explore","kernel":"fir"}"#,
            r#"{"op":"explore","kernel":"fir"}"#,
        ],
    );
    let frame = one_shot_stdout(&["top", "--addr", &server.addr, "--once", "--ascii", "--interval-ms", "50"]);
    assert!(!frame.contains('\x1b'), "--once/--ascii frame is ANSI-free");
    // The frame's shape: one line per panel, in order, with the window
    // between the two polls already plotted as sparklines.
    let labels: Vec<&str> = frame
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or(""))
        .collect();
    assert_eq!(
        labels,
        ["datareuse", "requests", "cache", "queue", "latency", "req/win", "p50", "p99", "points", "memory"],
        "frame:\n{frame}"
    );
    assert!(frame.contains("points   1\n"), "one window between two polls:\n{frame}");
    server.shutdown();
}

#[test]
fn identical_concurrent_requests_coalesce_onto_one_computation() {
    // The cache is disabled, so the only way a follower can avoid
    // recomputing is the singleflight join. All K identical requests go
    // out in ONE write on one connection: the event loop dispatches the
    // whole block in a single read pass (microseconds), while the
    // leader's exploration of the slow fixture runs for ~0.5s on a
    // worker — the followers join the open flight long before it
    // completes.
    const K: usize = 4;
    let server = ServerProc::spawn(&["--threads", "2", "--cache-entries", "0"]);
    let request = slow_request("explore", r#""deadline_ms":60000"#);
    let stream = TcpStream::connect(&server.addr).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut block = String::new();
    for _ in 0..K {
        block.push_str(&request);
        block.push('\n');
    }
    writer.write_all(block.as_bytes()).unwrap();
    writer.flush().unwrap();
    let mut responses = Vec::new();
    for _ in 0..K {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        responses.push(Json::parse(&line).expect("response parses"));
    }
    let first = responses[0].get("result").expect("result").to_string();
    let mut coalesced = 0;
    for doc in &responses {
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{doc}");
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(
            doc.get("result").expect("result").to_string(),
            first,
            "every coalesced response carries the leader's exact bytes"
        );
        if doc.get("coalesced").and_then(Json::as_bool) == Some(true) {
            coalesced += 1;
        }
    }
    assert_eq!(coalesced, K - 1, "exactly one leader, K-1 followers");
    let stats = exchange(&server.addr, &[r#"{"op":"stats"}"#]);
    let counters = stats[0]
        .get("result")
        .and_then(|r| r.get("counters"))
        .expect("counters in stats");
    let counter = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(counter("serve_coalesced"), (K - 1) as u64, "{counters}");
    assert_eq!(counter("serve_cache_misses"), 1, "one computation: {counters}");
    // memstats breaks the same traffic out for allocation attribution:
    // one leader actually computed (and allocated); the K-1 followers
    // copied its bytes. Dividing allocator deltas by `computed` — not by
    // `requests` — is what keeps bytes-per-explore honest under
    // coalescing.
    let memstats = exchange(&server.addr, &[r#"{"op":"memstats"}"#]);
    let doc = &memstats[0];
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{doc}");
    let result = doc.get("result").expect("memstats result");
    assert_eq!(
        result.get("schema").and_then(Json::as_str),
        Some("datareuse-memstats-v1")
    );
    let serve = result.get("serve").expect("serve section");
    let serve_num = |name: &str| serve.get(name).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(serve_num("computed"), 1, "one leader computation: {serve}");
    assert_eq!(
        serve_num("coalesced_followers"),
        (K - 1) as u64,
        "followers attributed separately so they don't dilute bytes-per-compute: {serve}"
    );
    let allocator = result.get("allocator").expect("allocator section");
    assert!(
        allocator.get("bytes_allocated").and_then(Json::as_u64).unwrap_or(0) > 0,
        "the leader's exploration allocated: {allocator}"
    );
    server.shutdown();
}

#[test]
fn a_batch_frame_answers_with_bytes_identical_to_the_one_shot_cli() {
    let expected = one_shot_stdout(&["explore", "fir", "--json"]);
    let expected = expected.trim();
    let server = ServerProc::spawn(&["--cache-entries", "64"]);
    let batch = concat!(
        r#"{"op":"batch","id":9,"requests":["#,
        r#"{"op":"explore","kernel":"fir","id":"a"},"#,
        r#"{"op":"ping","id":"b"}]}"#
    );
    let responses = exchange(&server.addr, &[batch]);
    let doc = &responses[0];
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{doc}");
    assert_eq!(doc.get("id").and_then(Json::as_u64), Some(9));
    let subs = doc
        .get("result")
        .and_then(|r| r.get("responses"))
        .and_then(Json::as_array)
        .expect("responses array");
    assert_eq!(subs.len(), 2);
    assert_eq!(subs[0].get("id").and_then(Json::as_str), Some("a"));
    assert_eq!(
        subs[0].get("result").map(Json::to_string).unwrap(),
        expected,
        "batched explore matches the one-shot CLI byte for byte"
    );
    assert_eq!(subs[1].get("id").and_then(Json::as_str), Some("b"));
    assert_eq!(subs[1].get("ok").and_then(Json::as_bool), Some(true));
    // The batch populated the shared cache: a standalone frame for the
    // same computation is now a hit with the same bytes.
    let single = exchange(&server.addr, &[r#"{"op":"explore","kernel":"fir"}"#]);
    assert_eq!(single[0].get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        single[0].get("result").map(Json::to_string).unwrap(),
        expected
    );
    let stats = exchange(&server.addr, &[r#"{"op":"stats"}"#]);
    let counters = stats[0]
        .get("result")
        .and_then(|r| r.get("counters"))
        .expect("counters in stats");
    assert!(
        counters.get("serve_batch_requests").and_then(Json::as_u64).unwrap_or(0) >= 2,
        "batch sub-requests counted: {counters}"
    );
    server.shutdown();
}

#[test]
fn an_unmeetable_slo_maps_health_to_exit_6() {
    // A zero p99 SLO fails as soon as any request has been served.
    let server = ServerProc::spawn(&["--slo-p99-ms", "0"]);
    exchange(&server.addr, &[r#"{"op":"ping"}"#]);
    let out = Command::new(env!("CARGO_BIN_EXE_datareuse"))
        .args(["query", "--addr", &server.addr, r#"{"op":"health"}"#])
        .output()
        .expect("query runs");
    assert_eq!(out.status.code(), Some(6), "failing health exits 6");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains(r#""status":"failing""#), "stdout: {stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("health is failing"), "stderr: {stderr}");
    server.shutdown();
}

/// The event loop holds 200 open connections at once, answers a
/// request on every one of them, and counts them all in `stats`.
#[test]
fn two_hundred_held_connections_are_each_served_and_counted() {
    let server = ServerProc::spawn(&[]);
    let mut held = Vec::with_capacity(200);
    for i in 0..200 {
        let stream = TcpStream::connect(&server.addr).expect("connects");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        writeln!(&stream, r#"{{"op":"explore","kernel":"fir","id":{i}}}"#).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let doc = Json::parse(&line).expect("response parses");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "connection {i}: {line}");
        held.push(reader);
    }
    writeln!(held[0].get_mut(), r#"{{"op":"stats"}}"#).unwrap();
    let mut line = String::new();
    held[0].read_line(&mut line).unwrap();
    let doc = Json::parse(&line).expect("stats parses");
    let derived = doc.get("result").and_then(|r| r.get("derived"));
    let open = derived.and_then(|d| d.get("open_connections")).and_then(Json::as_u64);
    let open = open.expect("derived.open_connections");
    assert!(open >= 200, "server counts only {open} open connections");
    drop(held);
    server.shutdown();
}

/// Nests whose read counts leave `u64` are refused with a typed error
/// at once, and the server goes on serving the next request.
#[test]
fn overflowing_extents_are_refused_and_serving_continues() {
    let server = ServerProc::spawn(&["--threads", "1"]);
    let kernels = [
        include_str!("fixtures/overflow_near_i64_max.dr"),
        include_str!("fixtures/overflow_tera_extent.dr"),
        include_str!("fixtures/overflow_index_coefficient.dr"),
        "C[i,j] += A[i*4294967296,j] where i=4294967296, j=3",
    ];
    for name in kernels {
        let request = kernel_request("explore", name, r#""id":0"#);
        let started = Instant::now();
        let refused = exchange(&server.addr, &[&request]).remove(0);
        let elapsed = started.elapsed();
        let code = refused.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(code, Some("bad_request"), "{name}: {refused}");
        assert!(elapsed < Duration::from_secs(1), "{name} took {elapsed:?}");
        let next = exchange(&server.addr, &[r#"{"op":"explore","kernel":"fir"}"#]).remove(0);
        assert_eq!(next.get("ok").and_then(Json::as_bool), Some(true), "after {name}: {next}");
    }
    server.shutdown();
}

/// A kernel text that names a file is refused as an unknown kernel: the
/// server opens no file a client names, so nothing of it is echoed.
#[test]
fn a_path_kernel_is_refused_without_reading_the_file() {
    let path = std::env::temp_dir().join(format!("datareuse_serve_path_{}.dr", std::process::id()));
    let sentinel = "zq_sentinel_4471";
    std::fs::write(&path, format!("{sentinel} array A[4];\n")).unwrap();
    let server = ServerProc::spawn(&[]);
    let request = kernel_request("explore", path.to_str().unwrap(), r#""id":1"#);
    let refused = exchange(&server.addr, &[&request]).remove(0);
    let _ = std::fs::remove_file(&path);
    let error = refused.get("error").expect("error envelope");
    assert_eq!(error.get("code").and_then(Json::as_str), Some("bad_request"), "{refused}");
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(message.starts_with("unknown kernel"), "{message}");
    assert!(!message.contains(sentinel), "the file's content leaked: {message}");
    server.shutdown();
}

/// `.dr` source sent inline answers exactly what the CLI prints for the
/// same file, and the cache key covers the whole text: an edited kernel
/// is a miss that computes the new answer.
#[test]
fn inline_dr_source_matches_the_cli_and_is_keyed_by_its_content() {
    let window = "array A[12];\nfor i in 0..10 { for j in 0..3 { read A[i + j]; } }\n";
    let edited = "array A[12];\nfor i in 0..10 { read A[i]; }\n";
    let server = ServerProc::spawn(&["--threads", "1"]);
    for (text, c_tot) in [(window, 30), (edited, 10)] {
        let path = std::env::temp_dir().join(format!(
            "datareuse_serve_inline_{c_tot}_{}.dr",
            std::process::id()
        ));
        std::fs::write(&path, text).unwrap();
        let expected = one_shot_stdout(&["explore", path.to_str().unwrap(), "--json"]);
        let _ = std::fs::remove_file(&path);
        let request = kernel_request("explore", text, r#""id":2"#);
        let doc = exchange(&server.addr, &[&request]).remove(0);
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false), "{doc}");
        let result = doc.get("result").expect("result present");
        assert_eq!(result.to_string(), expected.trim(), "served source differs from the CLI");
        assert_eq!(result.get("c_tot").and_then(Json::as_u64), Some(c_tot), "{result}");
    }
    let again = kernel_request("explore", window, r#""id":3"#);
    let doc = exchange(&server.addr, &[&again]).remove(0);
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true), "{doc}");
    server.shutdown();
}

/// A 2-deep sliding window `read A[i + j]` with `i, j in 0..10⁴`: its
/// `explore --json` document is about 2.2 MB.
const WINDOW_KERNEL: &str =
    "array A[20000];\nfor i in 0..10000 { for j in 0..10000 { read A[i + j]; } }\n";

/// A client that reads multi-megabyte responses 4 KiB at a time gets
/// every byte the CLI prints for the same kernel, while the server's
/// writes to it come back partial: four pipelined 2.2 MB hits, read
/// only after a pause, are more than the socket buffers hold.
#[test]
fn a_slow_reader_receives_multi_megabyte_results_byte_identical_to_the_cli() {
    use std::io::Read;
    let path = std::env::temp_dir().join(format!("datareuse_serve_window_{}.dr", std::process::id()));
    std::fs::write(&path, WINDOW_KERNEL).unwrap();
    let expected = one_shot_stdout(&["explore", path.to_str().unwrap(), "--json"]);
    let _ = std::fs::remove_file(&path);
    let expected = expected.trim();
    assert!(expected.len() >= 1 << 20, "the window result is {} bytes", expected.len());
    let server = ServerProc::spawn(&["--threads", "1"]);
    let mut stream = TcpStream::connect(&server.addr).expect("connects");
    // Lost bytes fail the test instead of hanging it.
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // First one request that computes, then four pipelined hits.
    for ids in [&[1][..], &[2, 3, 4, 5]] {
        let mut lines = String::new();
        let mut want = String::new();
        for &id in ids {
            lines.push_str(&kernel_request("explore", WINDOW_KERNEL, &format!(r#""id":{id}"#)));
            lines.push('\n');
            let cached = id > 1;
            want.push_str(&format!(
                r#"{{"ok":true,"id":{id},"cached":{cached},"result":{expected}}}"#
            ));
            want.push('\n');
        }
        stream.write_all(lines.as_bytes()).unwrap();
        // Stalled, the client lets the server fill the socket buffers.
        std::thread::sleep(Duration::from_millis(200));
        let mut received = Vec::with_capacity(want.len());
        let mut buf = [0u8; 4096];
        let mut reads = 0u32;
        while received.len() < want.len() {
            let n = stream.read(&mut buf).expect("reads");
            assert!(n > 0, "server closed after {} of {} bytes", received.len(), want.len());
            received.extend_from_slice(&buf[..n]);
            reads += 1;
            if reads % 64 == 0 {
                // Let the server's socket buffer fill between bursts.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let first_diff = received.iter().zip(want.as_bytes()).position(|(a, b)| a != b);
        assert_eq!(first_diff, None, "requests {ids:?} differ from the CLI bytes");
        assert_eq!(received.len(), want.len(), "requests {ids:?} received extra bytes");
    }
    server.shutdown();
}

/// Sends `request` `count` times in one write and reads the responses
/// one line at a time; returns each line's length after `check` has
/// seen its head.
fn pipeline(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &str,
    count: usize,
    check: impl Fn(&str),
) -> Vec<usize> {
    writer.write_all(format!("{request}\n").repeat(count).as_bytes()).unwrap();
    let mut line = String::new();
    (0..count)
        .map(|_| {
            line.clear();
            reader.read_line(&mut line).unwrap();
            check(&line[..line.len().min(80)]);
            line.len()
        })
        .collect()
}

/// The server's `(bytes_allocated, allocs)` so far, from `memstats`.
fn allocator_tally(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> (u64, u64) {
    writeln!(writer, r#"{{"op":"memstats"}}"#).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let doc = Json::parse(&line).expect("memstats parses");
    let field = |key: &str| {
        doc.get("result")
            .and_then(|r| r.get("allocator"))
            .and_then(|a| a.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("memstats has no allocator.{key}: {line}"))
    };
    (field("bytes_allocated"), field("allocs"))
}

/// The per-hit allocation pin: `memstats` around 100 pipelined cache
/// hits on one connection, after a round that computed the result and
/// grew the connection's buffers. A hit copies the cached result once,
/// into the write buffer, and allocates nothing that grows with it, so
/// a `fir` hit (13.6 KB) and a hit on a 2.2 MB result cost the same
/// few hundred bytes. Before hits were written straight into the write
/// buffer, a `fir` hit allocated about 14.5 KB.
#[test]
fn a_cache_hit_allocates_the_same_few_hundred_bytes_whatever_the_result_size() {
    const HITS: usize = 100;
    let server = ServerProc::spawn(&["--threads", "1"]);
    let mut writer = TcpStream::connect(&server.addr).expect("connects");
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut per_hit = |kernel: &str| {
        let request = kernel_request("explore", kernel, r#""id":0"#);
        pipeline(&mut writer, &mut reader, &request, HITS, |head| {
            assert!(head.starts_with(r#"{"ok":true"#), "{head}");
        });
        let before = allocator_tally(&mut writer, &mut reader);
        let lengths = pipeline(&mut writer, &mut reader, &request, HITS, |head| {
            assert!(head.starts_with(r#"{"ok":true,"id":0,"cached":true,"#), "{head}");
        });
        let after = allocator_tally(&mut writer, &mut reader);
        let hits = HITS as f64;
        let bytes = (after.0 - before.0) as f64 / hits;
        let allocs = (after.1 - before.1) as f64 / hits;
        (lengths[0], bytes, allocs)
    };
    let sets = [per_hit("fir"), per_hit("B[i]+=A[i+j] where i=10000,j=10000")];
    server.shutdown();
    let report = sets
        .iter()
        .map(|(len, bytes, allocs)| {
            format!("{len} B response: {bytes:.1} B in {allocs:.2} allocations per hit")
        })
        .collect::<Vec<_>>()
        .join("; ");
    assert!(sets[1].0 >= 1 << 20, "the large result is under 1 MiB: {report}");
    for (_, bytes, _) in sets {
        assert!(bytes <= 1024.0, "a hit allocates more than 1 KiB: {report}");
    }
    assert!(
        (sets[1].1 - sets[0].1).abs() < 64.0,
        "a hit's allocation grows with its result: {report}"
    );
}
