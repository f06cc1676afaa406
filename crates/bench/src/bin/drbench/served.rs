//! The served workloads, `serve-hot` and `serve-cold`.
//!
//! Each spawns the real `datareuse serve` and drives it over loopback
//! with two client threads, one connection each and one request
//! outstanding per connection (closed loop).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use datareuse_obs::Json;
use datareuse_server::protocol::{cache_key, ok_envelope};
use datareuse_server::ResultCache;

use datareuse_core::SignalExploration;
use datareuse_loopir::Program;

use crate::check::{run_op, Golden};
use crate::gen::{self, Request};
use crate::inproc::{decompose, traced_op, DecompCounts};
use crate::trace::Tracer;

/// A client gives up on a response after this long and counts a failure.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// Client threads, each with one connection.
pub const CLIENTS: usize = 2;
/// `serve-cold` responses byte-compared against the in-process op: one
/// in this many.
const COLD_VERIFY_EVERY: usize = 16;
/// Capacity of the server's result cache (the `serve` default), which
/// the in-process replay mirrors.
const CACHE_ENTRIES: usize = 256;

/// A `datareuse serve` child, killed if not shut down cleanly.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    pub fn spawn(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "1",
                "--loops",
                "1",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .map_err(|e| format!("no server banner: {e}"))?;
        server.addr = banner
            .trim()
            .strip_prefix("datareuse-serve: listening on ")
            .ok_or_else(|| format!("unexpected server banner {banner:?}"))?
            .to_string();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        Conn::connect(&self.addr)?.roundtrip(b"{\"op\":\"shutdown\"}\n")?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        status
            .success()
            .then_some(())
            .ok_or_else(|| format!("server exited with {status}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(CLIENT_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
            line: String::new(),
        })
    }

    /// Writes one request line (with its newline) and reads the full
    /// response line.
    pub fn roundtrip(&mut self, request: &[u8]) -> Result<&str, String> {
        self.writer
            .write_all(request)
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(self.line.trim_end_matches('\n')),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn json(&mut self, request: &[u8]) -> Result<Json, String> {
        let line = self.roundtrip(request)?;
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        doc.get("result")
            .cloned()
            .ok_or_else(|| format!("no result in {line}"))
    }

    /// The server's `bytes_allocated` tally (`memstats`).
    pub fn allocated(&mut self) -> Result<u64, String> {
        self.json(b"{\"op\":\"memstats\"}\n")?
            .get("allocator")
            .and_then(|a| a.get("bytes_allocated"))
            .and_then(Json::as_u64)
            .ok_or_else(|| "memstats without allocator.bytes_allocated".to_string())
    }

    pub fn stats(&mut self) -> Result<ServerStats, String> {
        let doc = self.json(b"{\"op\":\"stats\"}\n")?;
        let counter = |name: &str| {
            doc.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let hist = |name: &str| {
            let h = doc.get("hists").and_then(|h| h.get(name));
            let count = h
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            let mean = h
                .and_then(|h| h.get("mean"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            (count, count as f64 * mean)
        };
        Ok(ServerStats {
            requests: counter("serve_requests"),
            hits: counter("serve_cache_hits"),
            misses: counter("serve_cache_misses"),
            coalesced: counter("serve_coalesced"),
            evictions: counter("serve_cache_evictions"),
            failures: counter("serve_overloaded")
                + counter("serve_timeouts")
                + counter("serve_errors"),
            queue_wait: hist("serve_queue_wait_ns"),
            service_hit: hist("serve_latency_cache_hit_ns"),
            service_cold: hist("serve_latency_cold_ns"),
        })
    }
}

/// Counter values and `(count, count × mean ns)` histogram sums from
/// one `stats` response.
#[derive(Debug, Clone, Copy)]
pub struct ServerStats {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub evictions: u64,
    pub failures: u64,
    pub queue_wait: (u64, f64),
    pub service_hit: (u64, f64),
    pub service_cold: (u64, f64),
}

impl ServerStats {
    /// Window ratios and exact window means between two snapshots.
    pub fn window(&self, later: &ServerStats) -> Vec<(&'static str, f64)> {
        let d = |a: u64, b: u64| (b - a) as f64;
        let ratio = |n: f64, of: f64| if of > 0.0 { n / of } else { 0.0 };
        let mean_us = |a: (u64, f64), b: (u64, f64)| ratio((b.1 - a.1) / 1e3, d(a.0, b.0));
        let probes = d(self.hits, later.hits)
            + d(self.misses, later.misses)
            + d(self.coalesced, later.coalesced);
        let requests = d(self.requests, later.requests);
        vec![
            ("server.hit_ratio", ratio(d(self.hits, later.hits), probes)),
            (
                "server.evictions_per_req",
                ratio(d(self.evictions, later.evictions), requests),
            ),
            (
                "server.coalesced_ratio",
                ratio(d(self.coalesced, later.coalesced), requests),
            ),
            ("server.failures", d(self.failures, later.failures)),
            (
                "server.queue_wait_us_mean",
                mean_us(self.queue_wait, later.queue_wait),
            ),
            (
                "server.service_hit_us_mean",
                mean_us(self.service_hit, later.service_hit),
            ),
            (
                "server.service_cold_us_mean",
                mean_us(self.service_cold, later.service_cold),
            ),
        ]
    }
}

/// Which responses a window keeps for verification.
#[derive(Clone, Copy)]
pub enum Capture {
    Nothing,
    /// The first response to each catalogue entry.
    FirstPerEntry,
    /// Every `n`th request of the stream.
    EveryNth(usize),
}

/// A workload's requests and its seeded streams of indices into them.
pub struct Served {
    pub requests: Vec<Request>,
    lines: Vec<Vec<u8>>,
    pub warmup: Vec<usize>,
    pub stream: Vec<usize>,
    pub capture: Capture,
}

/// Stream blocks pre-generated for the timed `serve-hot` stream: far
/// more than a run sends at today's speed.
const HOT_BLOCKS: usize = 75;
const HOT_WARMUP: usize = 3_000;
const COLD_STREAM: usize = 150_000;
const COLD_WARMUP: usize = 500;

impl Served {
    pub fn new(workload: &str, seed: u64) -> Result<Served, String> {
        let (requests, warmup, stream, capture) = match workload {
            "serve-hot" => {
                // The warm-up is a prefix of a block of its own, so the
                // timed stream starts on a block boundary.
                let mut draws = gen::hot_stream(seed, 1 + HOT_BLOCKS);
                let stream = draws.split_off(gen::HOT_BLOCK);
                draws.truncate(HOT_WARMUP);
                (gen::hot_catalogue(), draws, stream, Capture::FirstPerEntry)
            }
            "serve-cold" => (
                gen::cold_requests(seed, COLD_WARMUP + COLD_STREAM),
                (0..COLD_WARMUP).collect(),
                (COLD_WARMUP..COLD_WARMUP + COLD_STREAM).collect(),
                Capture::EveryNth(COLD_VERIFY_EVERY),
            ),
            other => return Err(format!("{other} is not a served workload")),
        };
        let lines = requests
            .iter()
            .map(|r| format!("{}\n", r.line).into_bytes())
            .collect();
        Ok(Served {
            requests,
            lines,
            warmup,
            stream,
            capture,
        })
    }

    /// Builtin and corpus kernels among the requests.
    pub fn golden_kernels(&self) -> Vec<String> {
        let mut ks: Vec<String> = self
            .requests
            .iter()
            .filter(|r| !r.is_expression())
            .map(|r| r.kernel.clone())
            .collect();
        ks.sort();
        ks.dedup();
        ks
    }

    /// Spawns a server and runs the untimed warm-up prefix through it.
    /// Returns the server, the set-up seconds, and the warm-up failures.
    pub fn setup(&self, bin: &Path) -> Result<(Server, f64, u64), String> {
        let t0 = Instant::now();
        let server = Server::spawn(bin)?;
        let warm = self.drive(&server.addr, &self.warmup, None, Capture::Nothing)?;
        Ok((server, t0.elapsed().as_secs_f64(), warm.failed))
    }

    /// Sends `stream` over [`CLIENTS`] connections, request `p` on client
    /// `p % CLIENTS`, until the stream ends or `window` has elapsed.
    pub fn drive(
        &self,
        addr: &str,
        stream: &[usize],
        window: Option<Duration>,
        capture: Capture,
    ) -> Result<Window, String> {
        let mut conns = (0..CLIENTS)
            .map(|_| Conn::connect(addr))
            .collect::<Result<Vec<_>, _>>()?;
        let barrier = Barrier::new(CLIENTS + 1);
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let deadline = window.map(|w| Instant::now() + w);
                        self.client(conn, stream, c, deadline, capture)
                    })
                })
                .collect();
            barrier.wait();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        Ok(Window::merge(outs))
    }

    fn client(
        &self,
        conn: &mut Conn,
        stream: &[usize],
        first: usize,
        deadline: Option<Instant>,
        capture: Capture,
    ) -> ClientOut {
        let mut out = ClientOut {
            started: Some(Instant::now()),
            ..ClientOut::default()
        };
        let mut seen = vec![false; self.requests.len()];
        for pos in (first..stream.len()).step_by(CLIENTS) {
            let t0 = Instant::now();
            if deadline.is_some_and(|d| t0 >= d) {
                break;
            }
            let idx = stream[pos];
            let result = conn.roundtrip(&self.lines[idx]);
            let t1 = Instant::now();
            out.attempted += 1;
            match result {
                Ok(line) if line.starts_with(r#"{"ok":true"#) => {
                    let cached = line.starts_with(r#"{"ok":true,"cached":true"#);
                    out.samples.push(Sample {
                        pos,
                        idx,
                        start: t0,
                        end: t1,
                        cached,
                    });
                    let keep = match capture {
                        Capture::Nothing => false,
                        Capture::FirstPerEntry => !std::mem::replace(&mut seen[idx], true),
                        Capture::EveryNth(n) => pos % n == 0,
                    };
                    if keep {
                        out.captured.push((idx, line.to_string()));
                    }
                }
                Ok(line) => {
                    out.failed += 1;
                    out.errors.push(line.to_string());
                }
                Err(e) => {
                    // The connection is unusable after a transport error.
                    out.failed += 1;
                    out.errors.push(e);
                    break;
                }
            }
        }
        out.ended = Some(Instant::now());
        out
    }

    /// Byte-compares captured responses against the in-process op, and
    /// fetches (untimed) any catalogue entry the window never requested.
    pub fn verify(
        &self,
        addr: &str,
        golden: &Golden,
        window: &Window,
    ) -> Result<Vec<String>, String> {
        let mut envelopes: Vec<Option<String>> = vec![None; self.requests.len()];
        for (idx, line) in &window.captured {
            envelopes[*idx].get_or_insert_with(|| line.clone());
        }
        if matches!(self.capture, Capture::FirstPerEntry) {
            let mut conn = Conn::connect(addr)?;
            for (idx, slot) in envelopes.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = Some(conn.roundtrip(&self.lines[idx])?.to_string());
                }
            }
        }
        Ok(envelopes
            .iter()
            .enumerate()
            .filter_map(|(idx, env)| {
                let env = env.as_ref()?;
                crate::check::verify_served(golden, &self.requests[idx], env).err()
            })
            .collect())
    }

    /// Replays requests in stream order through the server's layers in
    /// process, twice in lockstep: untraced on one result cache and
    /// traced on another, the two alternating which runs first, so host
    /// drift and warm CPU caches fall on both alike. Each cache has the
    /// server's capacity and is filled first from the warm-up prefix,
    /// untimed. Traced misses are then decomposed. Stops when `window`
    /// has elapsed.
    pub fn replay(
        &self,
        tracer: &mut Tracer,
        positions: &[usize],
        window: Duration,
        counts: &mut DecompCounts,
    ) -> Replayed {
        let (plain_cache, traced_cache) = (self.warm_cache(), self.warm_cache());
        let mut untraced = Tracer::off();
        let deadline = Instant::now() + window;
        let mut out = Replayed {
            failed: 0,
            plain_ns: Vec::with_capacity(positions.len()),
            traced_ns: Vec::with_capacity(positions.len()),
        };
        for (i, &pos) in positions.iter().enumerate() {
            if Instant::now() >= deadline {
                break;
            }
            tracer.set_request(pos as u64 + 1);
            let mut input = None;
            for traced in [i % 2 == 1, i % 2 == 0] {
                let t0 = Instant::now();
                let result = if traced {
                    self.replay_one(tracer, &traced_cache, pos)
                } else {
                    self.replay_one(&mut untraced, &plain_cache, pos)
                };
                let ns = t0.elapsed().as_nanos() as u64;
                match result {
                    Ok(decomp) if traced => input = decomp,
                    Ok(_) => {}
                    Err(_) => out.failed += 1,
                }
                if traced {
                    out.traced_ns.push(ns);
                } else {
                    out.plain_ns.push(ns);
                }
            }
            if let Some((program, ex)) = input {
                decompose(tracer, &program, &ex, counts);
            }
        }
        out
    }

    /// A result cache of the server's capacity, filled from the warm-up
    /// prefix.
    fn warm_cache(&self) -> ResultCache {
        let cache = ResultCache::new(CACHE_ENTRIES);
        for &idx in &self.warmup {
            let key = self.key(idx);
            if cache.get(key).is_none() {
                if let Ok(text) = run_op(&crate::check::parse_op(&self.requests[idx].line)) {
                    cache.insert(key, Arc::from(text));
                }
            }
        }
        cache
    }

    /// One request under a `replay` span: decode, key, cache probe, the
    /// traced op and cache insert on a miss, and the envelope. Returns
    /// the miss's program and exploration for the decomposition.
    fn replay_one(
        &self,
        tracer: &mut Tracer,
        cache: &ResultCache,
        pos: usize,
    ) -> Result<Option<(Program, SignalExploration)>, String> {
        let line = self.requests[self.stream[pos]].line.as_str();
        tracer.span("replay", |t| {
            let request = t.span("server.protocol.decode", |_| {
                datareuse_server::Request::parse_line(line)
            })?;
            let key = t
                .span("server.protocol.key", |_| {
                    Json::parse(line).map(|d| cache_key(&d))
                })
                .map_err(|e| e.to_string())?;
            let mut input = None;
            let (text, cached) = match t.span("server.cache.get", |_| cache.get(key)) {
                Some(text) => (text, true),
                None => {
                    let (out, decomp) = t.span("server.ops.execute", |t| traced_op(t, &request.op));
                    let text: Arc<str> = Arc::from(out?);
                    t.span("server.cache.insert", |_| {
                        cache.insert(key, Arc::clone(&text))
                    });
                    input = decomp;
                    (text, false)
                }
            };
            t.span("server.protocol.encode", |_| {
                ok_envelope(None, cached, &text)
            });
            Ok(input)
        })
    }

    fn key(&self, idx: usize) -> u64 {
        cache_key(&Json::parse(&self.requests[idx].line).expect("generated requests are JSON"))
    }
}

/// What an in-process replay measured: per replayed request, in order,
/// the time around its `replay` span untraced and traced.
pub struct Replayed {
    pub failed: u64,
    pub plain_ns: Vec<u64>,
    pub traced_ns: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub pos: usize,
    pub idx: usize,
    pub start: Instant,
    pub end: Instant,
    pub cached: bool,
}

impl Sample {
    pub fn ns(&self) -> u64 {
        (self.end - self.start).as_nanos() as u64
    }
}

#[derive(Default)]
struct ClientOut {
    started: Option<Instant>,
    ended: Option<Instant>,
    attempted: u64,
    failed: u64,
    samples: Vec<Sample>,
    captured: Vec<(usize, String)>,
    errors: Vec<String>,
}

/// What one driven stream measured, over both clients.
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Successful requests, ordered by stream position.
    pub samples: Vec<Sample>,
    pub captured: Vec<(usize, String)>,
    pub errors: Vec<String>,
}

impl Window {
    fn merge(outs: Vec<ClientOut>) -> Window {
        let started = outs.iter().filter_map(|o| o.started).min();
        let ended = outs.iter().filter_map(|o| o.ended).max();
        let mut w = Window {
            attempted: 0,
            failed: 0,
            wall_s: match (started, ended) {
                (Some(s), Some(e)) => (e - s).as_secs_f64(),
                _ => 0.0,
            },
            samples: Vec::new(),
            captured: Vec::new(),
            errors: Vec::new(),
        };
        for o in outs {
            w.attempted += o.attempted;
            w.failed += o.failed;
            w.samples.extend(o.samples);
            w.captured.extend(o.captured);
            w.errors.extend(o.errors);
        }
        w.samples.sort_by_key(|s| s.pos);
        w
    }

    /// The first stream position this window did not send.
    pub fn next_pos(&self) -> usize {
        self.samples.last().map_or(0, |s| s.pos + 1)
    }
}
