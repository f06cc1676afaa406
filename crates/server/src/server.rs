//! The serving core: a readiness-based event loop over nonblocking
//! sockets.
//!
//! Earlier revisions ran one thread per connection; past a few hundred
//! clients the stacks and context switches dominated and the acceptor
//! became the bottleneck. The current model is the classic staged
//! design:
//!
//! - **Event loops** (one per core by default, each a thread sharing the
//!   listener) own the sockets. Each loop `poll(2)`s its connections
//!   ([`crate::reactor`]), reads complete NDJSON lines, answers
//!   control/introspection ops inline, and parks compute requests in
//!   per-connection response slots.
//! - **The worker pool** ([`WorkerPool`]) stays the bounded compute
//!   stage: event loops never run an exploration themselves, so a slow
//!   `report susan` cannot stall ten thousand idle connections.
//! - **Singleflight** ([`SingleFlight`]) sits between them: concurrent
//!   identical requests (by canonical cache key) share one worker job.
//!   The first miss leads; the rest subscribe, are counted in
//!   `serve_coalesced`, and are marked `"coalesced":true` in their
//!   envelopes.
//!
//! Completions cross back from workers to loops through a mutexed queue
//! plus a [`reactor::WakePipe`] — a worker pushes the outcome and writes
//! one wake byte, the parked loop drains both. Responses to one
//! connection always flush in request order (per-connection slot queue),
//! so pipelined clients can match responses positionally as well as by
//! `id`.
//!
//! Deadlines are loop-owned: every compute slot carries its expiry, the
//! poll timeout is the nearest one, and an expired slot is answered with
//! a structured `timeout` while the worker's eventual result still
//! warms the cache. Shutdown is cooperative: `shutdown` flips the stop
//! flag and wakes every loop; loops stop reading, flush what they owe,
//! close drained connections, and exit; then the pool drains. The
//! cache lives only as long as the process.

use std::collections::{HashMap, VecDeque};
use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use datareuse_obs::{
    add, chrome_trace_json, flight_record, flight_tail_json, gauge_add, gauge_sub, gauge_value,
    hist_snapshot, prometheus_text, record_hist, record_span_at, span, span_with,
    take_trace_events, Counter, FlightKind, Gauge, Hist, Json, TraceCtx, FLIGHT_ERROR_TAIL,
};

use crate::cache::ResultCache;
use crate::lock;
use crate::ops::{self, OpError};
use crate::pool::WorkerPool;
use crate::protocol::{
    write_err_envelope, write_ok_envelope, write_ok_envelope_with, Op, Request, E_BAD_REQUEST,
    E_INTERNAL, E_OVERLOADED, E_SHUTTING_DOWN, E_TIMEOUT,
};
use crate::reactor::{self, PollFd, WakePipe, Waker, POLLIN, POLLOUT};
use crate::singleflight::{JoinRole, SingleFlight, Subscriber};

/// Most responses a connection may have outstanding before the loop
/// stops reading from it (pipelining bound; backpressure by readiness).
const MAX_PIPELINE: usize = 128;

/// Largest request line accepted before the connection is dropped as
/// misbehaving (a line this long is not a protocol request).
const MAX_LINE: usize = 1 << 20;

/// Most envelope bytes packed into a connection's write buffer before it
/// is handed to the socket: the buffer holds at most one chunk plus one
/// envelope, however many responses are ready, while responses a few
/// KiB long still leave in one write call.
const WRITE_CHUNK: usize = 64 * 1024;

/// Poll tick when nothing sets a nearer deadline: idle loops still wake
/// occasionally to notice the stop flag from a sibling loop.
const IDLE_TICK: Duration = Duration::from_millis(250);

/// How long a stopping loop waits for owed responses before force-closing
/// the stragglers.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to listen on; port 0 picks an ephemeral port (the bound
    /// address is reported by [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads for compute. 0 = one per available core.
    pub threads: usize,
    /// Event-loop threads sharing the listener. 0 = one per available
    /// core, capped at 8 (loops are I/O-bound; more than that only adds
    /// poll herds).
    pub loops: usize,
    /// Bound on jobs waiting for a worker before requests are refused
    /// with `overloaded`.
    pub queue_depth: usize,
    /// Total result-cache entries across all shards; 0 disables caching.
    pub cache_entries: usize,
    /// Deadline applied to requests that do not carry `deadline_ms`.
    pub default_deadline: Duration,
    /// SLO thresholds evaluated by the `health` op.
    pub slo: SloThresholds,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            loops: 0,
            queue_depth: 64,
            cache_entries: 256,
            default_deadline: Duration::from_secs(30),
            slo: SloThresholds::default(),
        }
    }
}

/// Service-level objectives the `health` op checks. Each check grades
/// `ok`/`degraded`/`failing`; the overall status is the worst of them.
#[derive(Debug, Clone)]
pub struct SloThresholds {
    /// Request latency p99 (cache hits and misses merged) must stay at
    /// or under this for `ok`; up to 4x is `degraded`, beyond is
    /// `failing`. An empty histogram passes vacuously.
    pub p99_latency: Duration,
    /// Minimum cache hit ratio for `ok`; half of it is the `degraded`
    /// floor. Ignored until [`SloThresholds::MIN_HIT_PROBES`] cache
    /// probes have happened, so a cold server is not penalized.
    /// Coalesced followers count as cache-path traffic here — they cost
    /// no compute, so they must not read as misses.
    pub min_hit_ratio: f64,
    /// Queue saturation (`queued / queue_depth`) allowed for `ok`;
    /// anything short of full is `degraded`, a full queue is `failing`.
    pub max_queue_saturation: f64,
}

impl SloThresholds {
    /// Cache probes required before the hit-ratio check counts.
    pub const MIN_HIT_PROBES: u64 = 20;
}

impl Default for SloThresholds {
    fn default() -> Self {
        Self {
            p99_latency: Duration::from_millis(250),
            min_hit_ratio: 0.0,
            max_queue_saturation: 0.75,
        }
    }
}

/// The cache-path hit ratio: hits and coalesced followers over all
/// cacheable requests. Every cacheable request lands in exactly one of
/// the three buckets (hit, coalesced, cold miss), so the ratio is
/// well-defined; coalesced followers cost no compute and therefore
/// count toward the numerator — without that, a coalescing-heavy burst
/// would read as a miss storm and degrade `health` for doing its job.
fn hit_ratio(hits: u64, coalesced: u64, misses: u64) -> f64 {
    let served = hits + coalesced;
    let probes = served + misses;
    if probes == 0 {
        0.0
    } else {
        served as f64 / probes as f64
    }
}

struct Shared {
    pool: WorkerPool,
    cache: ResultCache,
    flights: SingleFlight,
    stopping: AtomicBool,
    default_deadline: Duration,
    queue_depth: usize,
    slo: SloThresholds,
    /// One waker per event loop, registered at loop start; `stop` wakes
    /// them all so no loop sleeps through a shutdown.
    wakers: Mutex<Vec<Waker>>,
}

impl Shared {
    fn stop(&self) {
        self.stopping.store(true, Ordering::Release);
        for waker in lock(&self.wakers).iter() {
            waker.wake();
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    loops: usize,
}

impl Server {
    /// Binds the listener and spins up the worker pool over an empty
    /// result cache.
    ///
    /// # Errors
    ///
    /// When the address cannot be parsed or bound.
    pub fn bind(config: &ServerConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind `{}`: {e}", config.addr))?;
        let cores =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let threads = if config.threads == 0 { cores } else { config.threads };
        let loops = if config.loops == 0 { cores.clamp(1, 8) } else { config.loops };
        let shared = Arc::new(Shared {
            pool: WorkerPool::new(threads, config.queue_depth.max(1)),
            cache: ResultCache::new(config.cache_entries),
            flights: SingleFlight::new(),
            stopping: AtomicBool::new(false),
            default_deadline: config.default_deadline,
            queue_depth: config.queue_depth.max(1),
            slo: config.slo.clone(),
            wakers: Mutex::new(Vec::new()),
        });
        Ok(Server {
            listener,
            shared,
            loops,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    ///
    /// # Errors
    ///
    /// When the OS cannot report the socket address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// Serves until a `shutdown` request arrives, then drains in-flight
    /// work and returns.
    ///
    /// # Errors
    ///
    /// When the listener cannot be switched to nonblocking mode or an
    /// event loop dies on a socket error.
    pub fn run(self) -> Result<(), String> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot poll listener: {e}"))?;
        let mut handles = Vec::with_capacity(self.loops);
        let mut result = Ok(());
        for _ in 0..self.loops.max(1) {
            let listener = match self.listener.try_clone() {
                Ok(l) => l,
                Err(e) => {
                    // Already-spawned loops must not be stranded.
                    self.shared.stop();
                    result = Err(format!("cannot share listener: {e}"));
                    break;
                }
            };
            let shared = Arc::clone(&self.shared);
            handles.push(std::thread::spawn(move || -> Result<(), String> {
                let outcome = EventLoop::new(listener, Arc::clone(&shared))
                    .and_then(|mut event_loop| event_loop.run());
                if outcome.is_err() {
                    // A dying loop must not strand its siblings: stop
                    // the whole server so `run` can report the error.
                    shared.stop();
                }
                outcome
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    if result.is_ok() {
                        result = Err(e);
                    }
                }
                Err(_) => {
                    self.shared.stop();
                    if result.is_ok() {
                        result = Err("event loop panicked".to_string());
                    }
                }
            }
        }
        drop(self.listener);
        self.shared.pool.drain();
        result
    }
}

/// Flight-recorder detail payload for a `request_start` event: the op's
/// position in the wire grammar (1-based), documented in
/// docs/ARCHITECTURE.md. The op *name* travels in the trace span; the
/// flight slot only has a u64.
fn op_ordinal(op: &Op) -> u64 {
    match op {
        Op::Explore(_) => 1,
        Op::Pareto(_) => 2,
        Op::Report { .. } => 3,
        Op::Codegen(_) => 4,
        Op::Stats { .. } => 5,
        Op::Trace => 6,
        Op::Prom => 7,
        Op::Ping => 8,
        Op::Shutdown => 9,
        Op::Health => 10,
        Op::Batch(_) => 11,
        Op::Memstats => 12,
    }
}

/// Builds the `memstats` result (`datareuse-memstats-v1`): the tracking
/// allocator's process-wide tallies plus a `serve` section attributing
/// allocation work on the serving path. `computed` counts singleflight
/// *leaders* (requests that actually ran an exploration) while
/// `coalesced_followers` counts requests answered by copying the
/// leader's bytes — followers copy, they do not recompute, so dividing
/// an allocation delta by `computed` (not by `requests`) is how to get
/// bytes-per-computation without double-counting the leader's delta
/// once per follower.
fn memstats_result(shared: &Shared) -> String {
    let a = datareuse_obs::alloc_snapshot();
    let snap = datareuse_obs::snapshot();
    Json::obj([
        ("schema", Json::str("datareuse-memstats-v1")),
        (
            "allocator",
            Json::obj([
                ("allocs", Json::UInt(a.allocs)),
                ("deallocs", Json::UInt(a.deallocs)),
                ("reallocs", Json::UInt(a.reallocs)),
                ("bytes_allocated", Json::UInt(a.bytes_allocated)),
                ("bytes_freed", Json::UInt(a.bytes_freed)),
                ("live_bytes", Json::UInt(a.live_bytes)),
                ("peak_bytes", Json::UInt(a.peak_bytes)),
            ]),
        ),
        (
            "serve",
            Json::obj([
                ("requests", Json::UInt(snap.counter(Counter::ServeRequests))),
                ("computed", Json::UInt(snap.counter(Counter::ServeCacheMisses))),
                (
                    "coalesced_followers",
                    Json::UInt(snap.counter(Counter::ServeCoalesced)),
                ),
                ("cache_hits", Json::UInt(snap.counter(Counter::ServeCacheHits))),
                ("queue_depth", Json::UInt(shared.pool.queued() as u64)),
            ]),
        ),
    ])
    .to_string()
}

/// Builds the `stats` result: the metrics-v2 snapshot plus a `derived`
/// section (hit ratio, coalesced count, open connections, queue depths,
/// requests served) and, on request, the full flight-recorder tail.
fn stats_result(shared: &Shared, flight: bool) -> String {
    let snap = datareuse_obs::snapshot();
    let hits = snap.counter(Counter::ServeCacheHits);
    let coalesced = snap.counter(Counter::ServeCoalesced);
    let misses = snap.counter(Counter::ServeCacheMisses);
    let derived = Json::obj([
        ("requests_served", Json::UInt(snap.counter(Counter::ServeRequests))),
        ("cache_hit_ratio", Json::Num(hit_ratio(hits, coalesced, misses))),
        ("coalesced_requests", Json::UInt(coalesced)),
        (
            "open_connections",
            Json::UInt(gauge_value(Gauge::ServeOpenConnections)),
        ),
        ("queue_depth", Json::UInt(shared.pool.queued() as u64)),
        (
            "queue_depth_max",
            Json::UInt(gauge_value(Gauge::ServeQueueDepthMax)),
        ),
    ]);
    let Json::Obj(mut entries) = snap.to_json() else {
        unreachable!("snapshot JSON is always an object");
    };
    entries.push(("derived".to_string(), derived));
    if flight {
        entries.push(("flight".to_string(), flight_tail_json(usize::MAX)));
    }
    Json::Obj(entries).to_string()
}

/// One health check's grade. Ordered so `max` picks the worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Grade {
    Ok,
    Degraded,
    Failing,
}

impl Grade {
    fn name(self) -> &'static str {
        match self {
            Grade::Ok => "ok",
            Grade::Degraded => "degraded",
            Grade::Failing => "failing",
        }
    }
}

/// Builds the `health` result: each SLO check graded individually plus
/// the worst grade overall. The thresholds come from [`ServerConfig`];
/// `datareuse query` maps the overall status onto exit codes so probes
/// can alert without parsing JSON.
fn health_result(shared: &Shared) -> String {
    let slo = &shared.slo;
    // Latency: p99 over all requests, cache hits and misses merged —
    // the client cares about the answer's latency, not where it came
    // from. An empty histogram (no requests yet) passes vacuously.
    let lat = hist_snapshot(Hist::ServeLatencyCold).merge(&hist_snapshot(Hist::ServeLatencyCacheHit));
    let p99_ms = lat.p99() as f64 / 1e6;
    let slo_ms = slo.p99_latency.as_secs_f64() * 1e3;
    let latency = if lat.count == 0 || p99_ms <= slo_ms {
        Grade::Ok
    } else if p99_ms <= 4.0 * slo_ms {
        Grade::Degraded
    } else {
        Grade::Failing
    };
    // Hit ratio: only meaningful once enough probes have happened; a
    // server that has barely been asked anything is not unhealthy.
    // Coalesced followers are cache-path (see [`hit_ratio`]).
    let snap = datareuse_obs::snapshot();
    let hits = snap.counter(Counter::ServeCacheHits);
    let coalesced = snap.counter(Counter::ServeCoalesced);
    let misses = snap.counter(Counter::ServeCacheMisses);
    let probes = hits + coalesced + misses;
    let ratio = hit_ratio(hits, coalesced, misses);
    let hit_grade = if probes < SloThresholds::MIN_HIT_PROBES || ratio >= slo.min_hit_ratio {
        Grade::Ok
    } else if ratio >= slo.min_hit_ratio / 2.0 {
        Grade::Degraded
    } else {
        Grade::Failing
    };
    // Queue: a full queue is already refusing work (`overloaded`), so
    // it grades `failing`; past the SLO fraction but not full is the
    // early warning.
    let depth = shared.pool.queued();
    let saturation = depth as f64 / shared.queue_depth as f64;
    let queue = if saturation <= slo.max_queue_saturation {
        Grade::Ok
    } else if saturation < 1.0 {
        Grade::Degraded
    } else {
        Grade::Failing
    };
    let overall = latency.max(hit_grade).max(queue);
    let check = |grade: Grade, detail: Vec<(&str, Json)>| {
        let mut entries = vec![("status", Json::str(grade.name()))];
        entries.extend(detail);
        Json::obj(entries)
    };
    Json::obj([
        ("status", Json::str(overall.name())),
        (
            "checks",
            Json::obj([
                (
                    "latency",
                    check(
                        latency,
                        vec![
                            ("p99_ms", Json::Num(p99_ms)),
                            ("slo_ms", Json::Num(slo_ms)),
                            ("samples", Json::UInt(lat.count)),
                        ],
                    ),
                ),
                (
                    "hit_ratio",
                    check(
                        hit_grade,
                        vec![
                            ("ratio", Json::Num(ratio)),
                            ("slo", Json::Num(slo.min_hit_ratio)),
                            ("probes", Json::UInt(probes)),
                        ],
                    ),
                ),
                (
                    "queue",
                    check(
                        queue,
                        vec![
                            ("depth", Json::UInt(depth as u64)),
                            ("capacity", Json::UInt(shared.queue_depth as u64)),
                            ("saturation", Json::Num(saturation)),
                            ("slo", Json::Num(slo.max_queue_saturation)),
                        ],
                    ),
                ),
            ]),
        ),
    ])
    .to_string()
}

/// Where a finished computation's outcome lands: a connection response
/// slot, or one position of a batch.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// Slot `seq` of connection `conn` (generation-checked so a recycled
    /// slab index cannot receive a predecessor's late result).
    Conn { conn: usize, gen: u64, seq: u64 },
    /// Position `idx` of batch `batch`.
    Batch { batch: u64, idx: usize },
}

/// One completed (or refused) computation headed back to the loop.
struct Completion {
    target: Target,
    outcome: Result<Arc<str>, OpError>,
    coalesced: bool,
}

/// What a response's envelope is made of. It waits in its slot until
/// the flush writes the envelope straight into the connection's write
/// buffer, so a result's bytes are copied once, from the cache to that
/// buffer.
enum Reply {
    /// A serialized result document, shared with the cache.
    Ok {
        raw: Arc<str>,
        cached: bool,
        coalesced: bool,
    },
    /// A `batch`'s sub-replies with their ids, in request order.
    Batch(Vec<(Option<Json>, Reply)>),
    /// A structured refusal; `flight` is set when it lands
    /// ([`Reply::landed`]).
    Err {
        error: OpError,
        flight: Option<Json>,
    },
}

impl Reply {
    fn err(code: &'static str, message: String) -> Reply {
        Reply::Err {
            error: OpError { code, message },
            flight: None,
        }
    }

    /// The response-side accounting, done as the reply lands in its slot
    /// (a reply for a stale target never lands): error counters
    /// (`serve_timeouts` / `serve_overloaded` / `serve_errors`) are
    /// recorded here, exactly once per response, and timeout/overloaded
    /// refusals capture the flight-recorder tail.
    fn landed(mut self) -> Reply {
        if let Reply::Err { error, flight } = &mut self {
            let code = error.code;
            add(
                if code == E_TIMEOUT {
                    Counter::ServeTimeouts
                } else if code == E_OVERLOADED {
                    Counter::ServeOverloaded
                } else {
                    Counter::ServeErrors
                },
                1,
            );
            if code == E_TIMEOUT || code == E_OVERLOADED {
                *flight = Some(flight_tail_json(FLIGHT_ERROR_TAIL));
            }
        }
        self
    }

    /// Whether the reply is a cache hit (for the latency histograms).
    fn cache_hit(&self) -> bool {
        matches!(self, Reply::Ok { cached: true, .. })
    }

    /// Writes the reply's envelope, echoing `id`, to `out`.
    fn write(&self, out: &mut String, id: Option<&Json>) -> fmt::Result {
        match self {
            Reply::Ok {
                raw,
                cached,
                coalesced,
            } => write_ok_envelope(out, id, *cached, *coalesced, raw),
            Reply::Batch(subs) => write_ok_envelope_with(out, id, false, false, |out| {
                out.write_str("{\"responses\":[")?;
                for (i, (sub_id, sub)) in subs.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    sub.write(out, sub_id.as_ref())?;
                }
                out.write_str("]}")
            }),
            Reply::Err { error, flight } => {
                write_err_envelope(out, id, error.code, &error.message, flight.as_ref())
            }
        }
    }
}

/// One pipelined request awaiting its response. Slots flush strictly in
/// arrival order; a filled slot behind an unfilled one waits.
struct Slot {
    seq: u64,
    started: Instant,
    trace_id: u64,
    id: Option<Json>,
    deadline_ms: u64,
    /// `Some` only while a compute outcome is pending; inline ops and
    /// batch parents (whose batch carries the deadline) have `None`.
    expires: Option<Instant>,
    reply: Option<Reply>,
}

/// One client connection owned by an event loop.
struct Conn {
    stream: TcpStream,
    gen: u64,
    rbuf: Vec<u8>,
    /// Envelopes on their way to the socket; `wbuf[written..]` is still
    /// unsent. Cleared (keeping its capacity) once all of it is sent.
    wbuf: String,
    written: usize,
    slots: VecDeque<Slot>,
    next_seq: u64,
    peer_closed: bool,
    dead: bool,
}

/// An in-progress `batch` op: sub-responses accumulate out of order and
/// the parent slot fills when the last one lands (or the deadline does).
struct BatchState {
    conn: usize,
    gen: u64,
    seq: u64,
    sub_ids: Vec<Option<Json>>,
    replies: Vec<Option<Reply>>,
    remaining: usize,
    expires: Instant,
    deadline_ms: u64,
    trace_id: u64,
}

/// One readiness loop: a shared-listener acceptor plus the connections
/// it has accepted.
struct EventLoop {
    listener: TcpListener,
    shared: Arc<Shared>,
    wake: WakePipe,
    waker: Waker,
    completions: Arc<Mutex<Vec<Completion>>>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// The poll set's descriptors and, per descriptor, the owning
    /// connection (`usize::MAX` for the listener and the wake pipe).
    poll_set: (Vec<PollFd>, Vec<usize>),
    batches: HashMap<u64, BatchState>,
    next_batch: u64,
    next_gen: u64,
    stop_seen: Option<Instant>,
}

impl EventLoop {
    fn new(listener: TcpListener, shared: Arc<Shared>) -> Result<EventLoop, String> {
        let wake = WakePipe::new().map_err(|e| format!("cannot build wake pipe: {e}"))?;
        let waker = wake.waker();
        lock(&shared.wakers).push(waker.clone());
        Ok(EventLoop {
            listener,
            shared,
            wake,
            waker,
            completions: Arc::new(Mutex::new(Vec::new())),
            conns: Vec::new(),
            free: Vec::new(),
            poll_set: (Vec::new(), Vec::new()),
            batches: HashMap::new(),
            next_batch: 0,
            next_gen: 0,
            stop_seen: None,
        })
    }

    fn run(&mut self) -> Result<(), String> {
        loop {
            let stopping = self.shared.stopping.load(Ordering::Acquire);
            if stopping {
                if self.stop_seen.is_none() {
                    self.stop_seen = Some(Instant::now());
                }
                let live = self.conns.iter().filter(|c| c.is_some()).count();
                if live == 0 {
                    return Ok(());
                }
                if self.stop_seen.is_some_and(|t| t.elapsed() > DRAIN_GRACE) {
                    // Stragglers past the grace window are cut loose;
                    // their unwritten responses die with them.
                    for slot in &mut self.conns {
                        if slot.take().is_some() {
                            gauge_sub(Gauge::ServeOpenConnections, 1);
                        }
                    }
                    return Ok(());
                }
            }
            // The poll set is rebuilt in place each turn; its buffers stay
            // with the loop so an idle turn allocates nothing.
            let (mut fds, mut owners) = std::mem::take(&mut self.poll_set);
            fds.clear();
            owners.clear();
            let listener_slot = (!stopping).then(|| {
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
                owners.push(usize::MAX);
                fds.len() - 1
            });
            fds.push(PollFd::new(self.wake.fd(), POLLIN));
            owners.push(usize::MAX);
            for (i, conn) in self.conns.iter().enumerate() {
                let Some(c) = conn else { continue };
                let mut events = 0i16;
                if !c.peer_closed && !stopping && c.slots.len() < MAX_PIPELINE {
                    events |= POLLIN;
                }
                if !c.wbuf.is_empty() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    fds.push(PollFd::new(c.stream.as_raw_fd(), events));
                    owners.push(i);
                }
            }
            let timeout = self.next_timeout(stopping);
            reactor::poll(&mut fds, Some(timeout)).map_err(|e| format!("poll failed: {e}"))?;
            self.wake.drain();
            self.apply_completions();
            self.expire();
            let mut do_accept = false;
            for (k, fd) in fds.iter().enumerate() {
                if !fd.readable() && !fd.writable() {
                    continue;
                }
                if owners[k] == usize::MAX {
                    if listener_slot == Some(k) {
                        do_accept = true;
                    }
                    continue;
                }
                if fd.readable() {
                    self.read_conn(owners[k]);
                }
            }
            self.poll_set = (fds, owners);
            if do_accept {
                self.accept_all();
            }
            for i in 0..self.conns.len() {
                self.pump(i);
            }
            self.reap(self.shared.stopping.load(Ordering::Acquire));
        }
    }

    /// The nearest pending deadline, clamped to the idle tick — what the
    /// loop hands `poll` so an expiry is noticed on time even with no
    /// socket activity.
    fn next_timeout(&self, stopping: bool) -> Duration {
        let mut tick = if stopping {
            Duration::from_millis(25)
        } else {
            IDLE_TICK
        };
        let now = Instant::now();
        for conn in self.conns.iter().flatten() {
            for slot in &conn.slots {
                if slot.reply.is_none() {
                    if let Some(t) = slot.expires {
                        tick = tick.min(t.saturating_duration_since(now));
                    }
                }
            }
        }
        for batch in self.batches.values() {
            tick = tick.min(batch.expires.saturating_duration_since(now));
        }
        // Never hand poll a zero timeout: already-due work was expired
        // above, and a 0ms poll under load degenerates into a busy spin.
        tick.max(Duration::from_millis(1))
    }

    /// Drains the completion queue filled by worker callbacks.
    fn apply_completions(&mut self) {
        let done = std::mem::take(&mut *lock(&self.completions));
        for completion in done {
            let reply = match completion.outcome {
                Ok(raw) => Reply::Ok {
                    raw,
                    cached: false,
                    coalesced: completion.coalesced,
                },
                Err(error) => Reply::err(error.code, error.message),
            };
            self.deliver(completion.target, reply);
        }
    }

    fn deliver(&mut self, target: Target, reply: Reply) {
        match target {
            Target::Conn { conn, gen, seq } => self.fill_conn(conn, gen, seq, reply),
            Target::Batch { batch, idx } => self.fill_batch(batch, idx, reply),
        }
    }

    /// Puts `reply` into slot `seq` of connection `conn`. A stale target
    /// (connection gone, generation recycled, slot already answered by
    /// expiry) is ignored — late results only warm the cache.
    fn fill_conn(&mut self, conn: usize, gen: u64, seq: u64, reply: Reply) {
        let Some(Some(c)) = self.conns.get_mut(conn) else {
            return;
        };
        if c.gen != gen {
            return;
        }
        let Some(slot) = c.slots.iter_mut().find(|s| s.seq == seq) else {
            return;
        };
        if slot.reply.is_some() {
            return;
        }
        slot.reply = Some(reply.landed());
    }

    fn fill_batch(&mut self, batch: u64, idx: usize, reply: Reply) {
        let Some(state) = self.batches.get_mut(&batch) else {
            return;
        };
        if state.replies[idx].is_some() {
            return;
        }
        state.replies[idx] = Some(reply.landed());
        state.remaining -= 1;
        if state.remaining == 0 {
            self.finalize_batch(batch);
        }
    }

    /// Fills a completed batch's parent slot with its sub-replies in
    /// request order; the flush writes them as
    /// `{"responses": [<sub envelope>, …]}` inside the parent envelope.
    fn finalize_batch(&mut self, batch: u64) {
        let Some(state) = self.batches.remove(&batch) else {
            return;
        };
        // `remaining` reached 0, so every position is filled and none
        // is skipped.
        let subs = state
            .sub_ids
            .into_iter()
            .zip(state.replies)
            .filter_map(|(id, reply)| Some((id, reply?)))
            .collect();
        self.fill_conn(state.conn, state.gen, state.seq, Reply::Batch(subs));
    }

    /// Answers every slot and batch whose deadline has passed with a
    /// structured `timeout`. The underlying computation (if any) keeps
    /// running and still warms the cache when it lands.
    fn expire(&mut self) {
        let now = Instant::now();
        let mut due: Vec<(usize, u64, u64, u64, u64)> = Vec::new();
        for (i, conn) in self.conns.iter().enumerate() {
            let Some(c) = conn else { continue };
            for slot in &c.slots {
                if slot.reply.is_none() && slot.expires.is_some_and(|t| now >= t) {
                    due.push((i, c.gen, slot.seq, slot.trace_id, slot.deadline_ms));
                }
            }
        }
        for (conn, gen, seq, trace_id, deadline_ms) in due {
            flight_record(FlightKind::DeadlineExpiry, trace_id, deadline_ms);
            self.fill_conn(
                conn,
                gen,
                seq,
                Reply::err(E_TIMEOUT, format!("deadline of {deadline_ms}ms expired")),
            );
        }
        let expired: Vec<u64> = self
            .batches
            .iter()
            .filter(|(_, b)| now >= b.expires)
            .map(|(&k, _)| k)
            .collect();
        for key in expired {
            let (n, trace_id, deadline_ms) = {
                let b = &self.batches[&key];
                (b.replies.len(), b.trace_id, b.deadline_ms)
            };
            flight_record(FlightKind::DeadlineExpiry, trace_id, deadline_ms);
            for idx in 0..n {
                // fill_batch skips already-answered positions and
                // finalizes on the last fill.
                self.fill_batch(
                    key,
                    idx,
                    Reply::err(E_TIMEOUT, format!("deadline of {deadline_ms}ms expired")),
                );
            }
        }
    }

    fn read_conn(&mut self, index: usize) {
        let Some(Some(c)) = self.conns.get_mut(index) else {
            return;
        };
        let mut buf = [0u8; 16 * 1024];
        loop {
            match c.stream.read(&mut buf) {
                Ok(0) => {
                    c.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    c.rbuf.extend_from_slice(&buf[..n]);
                    if c.rbuf.len() > MAX_LINE && !c.rbuf.contains(&b'\n') {
                        c.dead = true; // not a protocol client
                        break;
                    }
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.dead = true;
                    break;
                }
            }
        }
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // One request = one response line; Nagle coalescing
                    // only adds a delayed-ACK round trip per exchange.
                    let _ = stream.set_nodelay(true);
                    gauge_add(Gauge::ServeOpenConnections, 1);
                    let gen = self.next_gen;
                    self.next_gen += 1;
                    let conn = Conn {
                        stream,
                        gen,
                        rbuf: Vec::new(),
                        wbuf: String::new(),
                        written: 0,
                        slots: VecDeque::new(),
                        next_seq: 0,
                        peer_closed: false,
                        dead: false,
                    };
                    match self.free.pop() {
                        Some(i) => self.conns[i] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (fd exhaustion, aborted
                // handshake): leave the backlog for the next readiness.
                Err(_) => break,
            }
        }
    }

    /// Parses buffered lines into dispatches (bounded by the pipeline
    /// cap), then flushes whatever responses are ready. Each line is
    /// decoded where it lies in the read buffer (a lossy copy is made
    /// only for invalid UTF-8), and the consumed prefix is drained once.
    fn pump(&mut self, index: usize) {
        let Some(Some(c)) = self.conns.get_mut(index) else {
            return;
        };
        // The buffer leaves the connection while its lines are
        // dispatched, so a line can borrow it across `dispatch_line`.
        let rbuf = std::mem::take(&mut c.rbuf);
        let mut consumed = 0;
        while let Some(len) = rbuf[consumed..].iter().position(|&b| b == b'\n') {
            match self.conns.get(index) {
                Some(Some(c)) if !c.dead && c.slots.len() < MAX_PIPELINE => {}
                _ => break,
            }
            let line = String::from_utf8_lossy(&rbuf[consumed..consumed + len]);
            consumed += len + 1;
            if !line.trim().is_empty() {
                self.dispatch_line(index, &line);
            }
        }
        if let Some(Some(c)) = self.conns.get_mut(index) {
            c.rbuf = rbuf;
            c.rbuf.drain(..consumed);
        }
        self.flush(index);
    }

    /// Writes completed in-order responses to the socket: each envelope
    /// is written from its slot's reply straight into the write buffer
    /// (doing the per-request latency accounting at that moment), up to
    /// [`WRITE_CHUNK`] bytes at a time, and the buffer is written with
    /// one call per chunk for as long as the socket accepts it.
    fn flush(&mut self, index: usize) {
        let Some(Some(c)) = self.conns.get_mut(index) else {
            return;
        };
        if c.dead {
            return;
        }
        loop {
            while c.wbuf.len() < WRITE_CHUNK {
                let Some(reply) = c.slots.front_mut().and_then(|s| s.reply.take()) else {
                    break;
                };
                // `front_mut` just yielded this slot, so the pop returns it.
                let Some(slot) = c.slots.pop_front() else { break };
                let elapsed_ns = slot.started.elapsed().as_nanos() as u64;
                record_hist(
                    if reply.cache_hit() {
                        Hist::ServeLatencyCacheHit
                    } else {
                        Hist::ServeLatencyCold
                    },
                    elapsed_ns,
                );
                flight_record(FlightKind::RequestEnd, slot.trace_id, elapsed_ns / 1_000);
                reply
                    .write(&mut c.wbuf, slot.id.as_ref())
                    .expect("a String accepts every write");
                c.wbuf.push('\n');
            }
            if c.written == c.wbuf.len() {
                break;
            }
            match c.stream.write(&c.wbuf.as_bytes()[c.written..]) {
                Ok(0) => {
                    c.dead = true;
                    break;
                }
                Ok(n) => {
                    c.written += n;
                    if c.written == c.wbuf.len() {
                        c.wbuf.clear();
                        c.written = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.dead = true;
                    break;
                }
            }
        }
    }

    /// Closes connections that died or have nothing left to say.
    fn reap(&mut self, stopping: bool) {
        for i in 0..self.conns.len() {
            let close = match &self.conns[i] {
                Some(c) => {
                    c.dead
                        || ((c.peer_closed || stopping)
                            && c.wbuf.is_empty()
                            && c.slots.is_empty())
                }
                None => false,
            };
            if close {
                self.conns[i] = None;
                self.free.push(i);
                gauge_sub(Gauge::ServeOpenConnections, 1);
            }
        }
    }

    /// Appends a response slot for connection `index`; returns the
    /// (generation, sequence) pair that addresses it.
    fn push_slot(
        &mut self,
        index: usize,
        started: Instant,
        trace_id: u64,
        id: Option<Json>,
        deadline_ms: u64,
        expires: Option<Instant>,
    ) -> Option<(u64, u64)> {
        let Some(Some(c)) = self.conns.get_mut(index) else {
            return None;
        };
        let seq = c.next_seq;
        c.next_seq += 1;
        c.slots.push_back(Slot {
            seq,
            started,
            trace_id,
            id,
            deadline_ms,
            expires,
            reply: None,
        });
        Some((c.gen, seq))
    }

    /// Processes one request line: parse, answer inline ops on the spot,
    /// unpack batches, route compute through cache → singleflight →
    /// worker pool.
    fn dispatch_line(&mut self, index: usize, line: &str) {
        add(Counter::ServeRequests, 1);
        let started = Instant::now();
        // Every request gets a trace id even when tracing is off: the
        // flight recorder uses it to correlate events.
        let root = TraceCtx::root();
        let _attach = root.attach();
        let request = match Request::parse_line(line) {
            Ok(r) => r,
            Err(msg) => {
                // Echo the id back even for bodies that failed
                // validation — the document may still be well-formed
                // JSON with a bad op.
                let id = Json::parse(line).ok().and_then(|doc| doc.get("id").cloned());
                if let Some((gen, seq)) =
                    self.push_slot(index, started, root.trace_id, id, 0, None)
                {
                    self.fill_conn(index, gen, seq, Reply::err(E_BAD_REQUEST, msg));
                }
                return;
            }
        };
        // The request span nests every child (cache probe, queue wait,
        // execute) under one trace; the innermost ctx (the span's own
        // when tracing, else the root) is what crosses to the worker.
        let _request = span_with("request", request.op.name());
        let ctx = TraceCtx::current().unwrap_or(root);
        flight_record(FlightKind::RequestStart, ctx.trace_id, op_ordinal(&request.op));
        let id = request.id.clone();
        let deadline = request
            .deadline_ms
            .map_or(self.shared.default_deadline, Duration::from_millis);
        let deadline_ms = deadline.as_millis() as u64;
        if let Some(raw) = self.inline_result(&request.op) {
            if let Some((gen, seq)) =
                self.push_slot(index, started, ctx.trace_id, id, deadline_ms, None)
            {
                self.fill_conn(
                    index,
                    gen,
                    seq,
                    Reply::Ok {
                        raw,
                        cached: false,
                        coalesced: false,
                    },
                );
            }
            return;
        }
        if let Op::Batch(subs) = request.op {
            self.dispatch_batch(index, started, ctx, id, subs, deadline);
            return;
        }
        let expires = started + deadline;
        let Some((gen, seq)) = self.push_slot(
            index,
            started,
            ctx.trace_id,
            id,
            deadline_ms,
            Some(expires),
        ) else {
            return;
        };
        self.dispatch_compute(
            Target::Conn {
                conn: index,
                gen,
                seq,
            },
            request.op,
            request.cache_key,
            ctx,
            expires,
            deadline_ms,
        );
    }

    /// Answers a control/introspection op without touching the worker
    /// pool; `None` means the op needs compute dispatch.
    fn inline_result(&self, op: &Op) -> Option<Arc<str>> {
        let raw: String = match op {
            Op::Ping => r#""pong""#.to_string(),
            Op::Stats { flight } => stats_result(&self.shared, *flight),
            Op::Health => health_result(&self.shared),
            Op::Trace => chrome_trace_json(&take_trace_events()).to_string(),
            Op::Prom => Json::str(prometheus_text(&datareuse_obs::snapshot())).to_string(),
            Op::Memstats => memstats_result(&self.shared),
            Op::Shutdown => {
                self.shared.stop();
                r#""draining""#.to_string()
            }
            _ => return None,
        };
        Some(Arc::from(raw))
    }

    /// Unpacks a `batch` op: inline sub-ops answer immediately, compute
    /// sub-ops are individually keyed (cached and coalesced exactly like
    /// standalone requests); the parent's deadline governs them all.
    fn dispatch_batch(
        &mut self,
        index: usize,
        started: Instant,
        ctx: TraceCtx,
        id: Option<Json>,
        subs: Vec<Request>,
        deadline: Duration,
    ) {
        add(Counter::ServeBatchRequests, subs.len() as u64);
        let deadline_ms = deadline.as_millis() as u64;
        let Some((gen, seq)) =
            self.push_slot(index, started, ctx.trace_id, id, deadline_ms, None)
        else {
            return;
        };
        let expires = started + deadline;
        let batch = self.next_batch;
        self.next_batch += 1;
        self.batches.insert(
            batch,
            BatchState {
                conn: index,
                gen,
                seq,
                sub_ids: subs.iter().map(|r| r.id.clone()).collect(),
                replies: subs.iter().map(|_| None).collect(),
                remaining: subs.len(),
                expires,
                deadline_ms,
                trace_id: ctx.trace_id,
            },
        );
        for (idx, sub) in subs.into_iter().enumerate() {
            let target = Target::Batch { batch, idx };
            if let Some(raw) = self.inline_result(&sub.op) {
                self.deliver(
                    target,
                    Reply::Ok {
                        raw,
                        cached: false,
                        coalesced: false,
                    },
                );
                continue;
            }
            self.dispatch_compute(target, sub.op, sub.cache_key, ctx, expires, deadline_ms);
        }
    }

    /// Routes one compute op: cache probe, then singleflight join (the
    /// leader submits the worker job; followers just subscribe), with
    /// overload/drain refusals delivered through the same completion
    /// path.
    fn dispatch_compute(
        &mut self,
        target: Target,
        op: Op,
        key: Option<u64>,
        ctx: TraceCtx,
        expires: Instant,
        deadline_ms: u64,
    ) {
        if let Some(key) = key {
            let hit = {
                let _cache = span("cache");
                self.shared.cache.get(key)
            };
            if let Some(raw) = hit {
                self.deliver(
                    target,
                    Reply::Ok {
                        raw,
                        cached: true,
                        coalesced: false,
                    },
                );
                return;
            }
        }
        if self.shared.stopping.load(Ordering::Acquire) {
            self.deliver(
                target,
                Reply::err(E_SHUTTING_DOWN, "server is draining".to_string()),
            );
            return;
        }
        let Some(key) = key else {
            // Compute ops are always cacheable, so a missing key means a
            // new op forgot its grammar entry; refuse loudly rather than
            // compute outside the coalescing map.
            self.deliver(
                target,
                Reply::err(E_INTERNAL, "compute op has no cache key".to_string()),
            );
            return;
        };
        let completions = Arc::clone(&self.completions);
        let waker = self.waker.clone();
        let subscriber: Subscriber = Box::new(move |outcome, coalesced| {
            lock(&completions).push(Completion {
                target,
                outcome: outcome.clone(),
                coalesced,
            });
            waker.wake();
        });
        match self.shared.flights.join(key, subscriber) {
            JoinRole::Follower => {
                add(Counter::ServeCoalesced, 1);
                flight_record(FlightKind::Coalesced, ctx.trace_id, key);
            }
            JoinRole::Leader => {
                add(Counter::ServeCacheMisses, 1);
                flight_record(FlightKind::CacheMiss, ctx.trace_id, key);
                self.submit_leader(op, key, ctx, expires, deadline_ms);
            }
        }
    }

    /// Submits the singleflight leader's job to the worker pool; a full
    /// queue refuses the whole flight (leader and any followers that
    /// joined in the window) with one shared outcome.
    fn submit_leader(&self, op: Op, key: u64, ctx: TraceCtx, expires: Instant, deadline_ms: u64) {
        let shared = Arc::clone(&self.shared);
        let submitted_at = Instant::now();
        let job = Box::new(move || {
            // Re-install the request's trace context on the worker
            // thread so spans opened here nest under the request.
            let _attach = ctx.attach();
            let wait_ns = submitted_at.elapsed().as_nanos() as u64;
            record_hist(Hist::ServeQueueWait, wait_ns);
            // The wait starts on the loop thread and ends here, so it is
            // recorded directly rather than via a guard.
            record_span_at("queue_wait", ctx, submitted_at, wait_ns);
            // A worker picking up an expired job may skip the compute —
            // but only when nobody else coalesced onto it: a follower
            // with a longer deadline still wants the result.
            if Instant::now() >= expires && shared.flights.waiting(key) <= 1 {
                flight_record(FlightKind::DeadlineExpiry, ctx.trace_id, deadline_ms);
                shared.flights.complete(
                    key,
                    &Err(OpError {
                        code: E_TIMEOUT,
                        message: "deadline expired before execution".to_string(),
                    }),
                );
                return;
            }
            // A panic in the analysis must neither end this worker nor
            // strand the flight: it completes with a typed `internal`
            // error, which is never cached.
            let outcome = panic::catch_unwind(|| {
                #[cfg(test)]
                tests::inject_fault(&op);
                let _exec = span_with("execute", op.name());
                let text = ops::execute(&op)?;
                let _encode = span("encode");
                let raw: Arc<str> = Arc::from(text);
                shared.cache.insert(key, Arc::clone(&raw));
                Ok(raw)
            })
            .unwrap_or_else(|payload| {
                let what = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("no message");
                Err(OpError {
                    code: E_INTERNAL,
                    message: format!("the computation panicked: {what}"),
                })
            });
            shared.flights.complete(key, &outcome);
        });
        if self.shared.pool.try_submit(job).is_err() {
            let queued = self.shared.pool.queued();
            flight_record(FlightKind::QueueReject, ctx.trace_id, queued as u64);
            let outcome = if self.shared.stopping.load(Ordering::Acquire) {
                Err(OpError {
                    code: E_SHUTTING_DOWN,
                    message: "server is draining".to_string(),
                })
            } else {
                Err(OpError {
                    code: E_OVERLOADED,
                    message: format!("queue full ({queued} waiting); retry later"),
                })
            };
            self.shared.flights.complete(key, &outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::sync::MutexGuard;

    /// The kernel text whose served job panics on the worker.
    const PANIC_KERNEL: &str = "test-fault:panic";

    /// The fault hook the worker runs before each job's execute.
    pub(super) fn inject_fault(op: &Op) {
        if matches!(op, Op::Explore(p) if p.kernel == PANIC_KERNEL) {
            panic!("injected fault");
        }
    }

    /// Starts a server on an ephemeral port. The guard serializes the
    /// tests that serve requests (see [`crate::serial_test`]); hold it
    /// until the server has shut down.
    fn start(
        config: ServerConfig,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>, MutexGuard<'static, ()>) {
        let serial = crate::serial_test();
        let server = Server::bind(&config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle, serial)
    }

    fn roundtrip(addr: std::net::SocketAddr, lines: &[&str]) -> Vec<Json> {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut out = Vec::new();
        for line in lines {
            writeln!(writer, "{line}").unwrap();
            writer.flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            out.push(Json::parse(&response).unwrap());
        }
        out
    }

    #[test]
    fn ping_explore_and_shutdown_over_a_real_socket() {
        let (addr, handle, _serial) = start(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        });
        let responses = roundtrip(
            addr,
            &[
                r#"{"op":"ping","id":1}"#,
                r#"{"op":"explore","kernel":"fir","id":2}"#,
                r#"{"op":"explore","kernel":"fir","id":3}"#,
                r#"{"op":"bogus","id":4}"#,
                r#"{"op":"shutdown","id":5}"#,
            ],
        );
        assert_eq!(responses[0].get("result").and_then(Json::as_str), Some("pong"));
        assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(responses[1].get("cached").and_then(Json::as_bool), Some(false));
        assert!(responses[1].get("result").and_then(|r| r.get("array")).is_some());
        // Same request again: served from cache, identical result bytes.
        assert_eq!(responses[2].get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            responses[1].get("result").map(Json::to_string),
            responses[2].get("result").map(Json::to_string)
        );
        assert_eq!(responses[3].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            responses[3]
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some(E_BAD_REQUEST)
        );
        assert_eq!(responses[3].get("id").and_then(Json::as_u64), Some(4));
        assert_eq!(responses[4].get("ok").and_then(Json::as_bool), Some(true));
        handle.join().unwrap();
    }

    #[test]
    fn stats_span_rows_partition_and_round_trip_byte_identically() {
        // Spans record only while metrics are on; run alone, this test
        // must turn them on itself.
        datareuse_obs::set_metrics_enabled(true);
        let (addr, handle, _serial) = start(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        });
        let responses = roundtrip(
            addr,
            &[
                r#"{"op":"explore","kernel":"fir","id":1}"#,
                r#"{"op":"stats","id":2}"#,
                r#"{"op":"profile","id":3}"#,
                r#"{"op":"shutdown","id":4}"#,
            ],
        );
        assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(true));
        let result = responses[1].get("result").expect("stats result");
        let rows = result.get("spans").and_then(Json::as_array).expect("spans");
        assert!(!rows.is_empty(), "explore must have populated the span tree");
        for (total_key, self_key) in [("ns", "self_ns"), ("bytes", "self_bytes")] {
            let mut self_sum = 0u64;
            let mut root_sum = 0u64;
            for row in rows {
                let path = row.get("path").and_then(Json::as_str).unwrap();
                let total = row.get(total_key).and_then(Json::as_u64).unwrap();
                let own = row.get(self_key).and_then(Json::as_u64).unwrap();
                assert!(own <= total, "{path}: {self_key} {own} exceeds {total_key} {total}");
                self_sum += own;
                if !path.contains('/') {
                    root_sum += total;
                }
            }
            // Self weights partition the cumulative root totals exactly.
            assert_eq!(self_sum, root_sum, "{self_key} vs root {total_key}");
        }
        // The rows are canonical: reparse → reserialize is byte-identical,
        // so span trees survive the wire losslessly.
        let text = Json::Arr(rows.to_vec()).to_string();
        assert_eq!(text, Json::parse(&text).unwrap().to_string());
        // The retired `profile` op is refused like any unknown op.
        assert_eq!(
            responses[2]
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some(E_BAD_REQUEST)
        );
        handle.join().unwrap();
    }

    #[test]
    fn memstats_op_reports_allocator_tallies_and_serve_attribution() {
        let (addr, handle, _serial) = start(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        });
        let responses = roundtrip(
            addr,
            &[
                r#"{"op":"explore","kernel":"fir","id":1}"#,
                r#"{"op":"explore","kernel":"fir","id":2}"#,
                r#"{"op":"memstats","id":3}"#,
                r#"{"op":"memstats","id":4}"#,
                r#"{"op":"shutdown","id":5}"#,
            ],
        );
        assert_eq!(responses[2].get("ok").and_then(Json::as_bool), Some(true));
        // Non-cacheable control op: never marked cached, even repeated.
        assert_eq!(responses[2].get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(responses[3].get("cached").and_then(Json::as_bool), Some(false));
        let result = responses[2].get("result").expect("memstats result");
        assert_eq!(
            result.get("schema").and_then(Json::as_str),
            Some("datareuse-memstats-v1")
        );
        let alloc = result.get("allocator").expect("allocator section");
        let field = |key: &str| alloc.get(key).and_then(Json::as_u64).unwrap();
        assert!(field("allocs") > 0, "a running server has allocated");
        assert!(field("bytes_allocated") > 0);
        assert!(field("live_bytes") > 0);
        assert!(field("peak_bytes") >= field("live_bytes"));
        let serve = result.get("serve").expect("serve section");
        let sfield = |key: &str| serve.get(key).and_then(Json::as_u64).unwrap();
        // The serve section carries the attribution denominators —
        // `computed` (singleflight leaders) separate from raw requests
        // and from coalesced followers. Counters are process-global and
        // shared with concurrently running tests, so only consistency is
        // asserted here; the spawned-process K-coalesce test pins the
        // exact leader/follower split.
        for key in ["requests", "computed", "coalesced_followers", "cache_hits", "queue_depth"] {
            let _ = sfield(key); // unwraps: every denominator must be present
        }
        // Canonical document: reparse → reserialize byte-identical.
        let text = result.to_string();
        assert_eq!(text, Json::parse(&text).unwrap().to_string());
        handle.join().unwrap();
    }

    #[test]
    fn pipelined_requests_come_back_in_request_order() {
        let (addr, handle, _serial) = start(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        });
        // All four requests in one write; responses must arrive in the
        // same order even though the pings answer inline while the
        // explores cross the worker pool.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writer
            .write_all(
                concat!(
                    r#"{"op":"explore","kernel":"fir","id":1}"#,
                    "\n",
                    r#"{"op":"ping","id":2}"#,
                    "\n",
                    r#"{"op":"explore","kernel":"fir","id":3}"#,
                    "\n",
                    r#"{"op":"ping","id":4}"#,
                    "\n",
                )
                .as_bytes(),
            )
            .unwrap();
        writer.flush().unwrap();
        for expect in 1..=4u64 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let doc = Json::parse(&line).unwrap();
            assert_eq!(doc.get("id").and_then(Json::as_u64), Some(expect));
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        }
        roundtrip(addr, &[r#"{"op":"shutdown"}"#]);
        handle.join().unwrap();
    }

    #[test]
    fn a_batch_answers_every_sub_request_in_one_envelope() {
        let (addr, handle, _serial) = start(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        });
        let responses = roundtrip(
            addr,
            &[
                concat!(
                    r#"{"op":"batch","id":"b","requests":["#,
                    r#"{"op":"ping","id":"p"},"#,
                    r#"{"op":"explore","kernel":"fir","id":"e"},"#,
                    r#"{"op":"explore","kernel":"fir","id":"e2"}"#,
                    r#"]}"#
                ),
                r#"{"op":"explore","kernel":"fir","id":"solo"}"#,
                r#"{"op":"shutdown"}"#,
            ],
        );
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(responses[0].get("id").and_then(Json::as_str), Some("b"));
        let subs = responses[0]
            .get("result")
            .and_then(|r| r.get("responses"))
            .and_then(Json::as_array)
            .expect("responses array");
        assert_eq!(subs.len(), 3);
        assert_eq!(subs[0].get("id").and_then(Json::as_str), Some("p"));
        assert_eq!(subs[0].get("result").and_then(Json::as_str), Some("pong"));
        for sub in &subs[1..] {
            assert_eq!(sub.get("ok").and_then(Json::as_bool), Some(true));
        }
        // The two identical sub-explores shared one computation: one is
        // the leader, the other either coalesced onto it or (having
        // dispatched after the fill) hit the cache.
        let coalesced_or_cached = subs[1..].iter().any(|s| {
            s.get("coalesced").and_then(Json::as_bool) == Some(true)
                || s.get("cached").and_then(Json::as_bool) == Some(true)
        });
        assert!(coalesced_or_cached, "identical subs shared work: {subs:?}");
        // Batch sub-results are byte-identical to the standalone op.
        assert_eq!(
            subs[1].get("result").map(Json::to_string),
            responses[1].get("result").map(Json::to_string)
        );
        handle.join().unwrap();
    }

    #[test]
    fn stats_and_health_report_on_a_live_server() {
        let (addr, handle, _serial) = start(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        });
        let responses = roundtrip(
            addr,
            &[
                r#"{"op":"ping","id":1}"#,
                r#"{"op":"stats","id":2}"#,
                r#"{"op":"health","id":3}"#,
                r#"{"op":"shutdown"}"#,
            ],
        );
        // `top` diffs these cumulative figures between polls.
        let result = responses[1].get("result").expect("stats result");
        let cold = result
            .get("hists")
            .and_then(|h| h.get("serve_latency_cold_ns"))
            .expect("cold latency histogram");
        assert!(datareuse_obs::HistSnapshot::from_json(cold).is_some(), "{cold}");
        for (section, name) in [("counters", "serve_requests"), ("gauges", "alloc_bytes_total")] {
            let value = result.get(section).and_then(|s| s.get(name));
            assert!(value.and_then(Json::as_u64).is_some(), "{section}.{name}");
        }
        let derived = responses[1]
            .get("result")
            .and_then(|r| r.get("derived"))
            .expect("derived section");
        assert!(derived.get("coalesced_requests").is_some());
        assert!(
            derived
                .get("open_connections")
                .and_then(Json::as_u64)
                .is_some()
        );
        // The health envelope grades every check; a freshly started
        // server under default SLOs is `ok` across the board.
        let health = responses[2].get("result").expect("health result");
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        let checks = health.get("checks").expect("checks section");
        for name in ["latency", "hit_ratio", "queue"] {
            let check = checks.get(name).unwrap_or_else(|| panic!("{name} check"));
            assert!(check.get("status").and_then(Json::as_str).is_some());
        }
        handle.join().unwrap();
    }

    #[test]
    fn an_unmeetable_latency_slo_grades_failing() {
        // Latency histograms only record while metrics are on (the CLI
        // turns them on for `serve`; unit tests must opt in).
        datareuse_obs::set_metrics_enabled(true);
        let (addr, handle, _serial) = start(ServerConfig {
            threads: 1,
            slo: SloThresholds {
                p99_latency: Duration::ZERO,
                ..SloThresholds::default()
            },
            ..ServerConfig::default()
        });
        let responses = roundtrip(
            addr,
            &[
                r#"{"op":"ping","id":1}"#,
                r#"{"op":"health","id":2}"#,
                r#"{"op":"shutdown"}"#,
            ],
        );
        let health = responses[1].get("result").expect("health result");
        // The ping above put at least one sample in the latency
        // histogram, and any positive p99 busts a zero-latency SLO.
        assert_eq!(health.get("status").and_then(Json::as_str), Some("failing"));
        assert_eq!(
            health
                .get("checks")
                .and_then(|c| c.get("latency"))
                .and_then(|l| l.get("status"))
                .and_then(Json::as_str),
            Some("failing")
        );
        handle.join().unwrap();
    }

    #[test]
    fn a_zero_deadline_times_out_with_a_structured_error() {
        let (addr, handle, _serial) = start(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        });
        let responses = roundtrip(
            addr,
            &[
                r#"{"op":"report","kernel":"susan","deadline_ms":0,"id":"t"}"#,
                r#"{"op":"shutdown"}"#,
            ],
        );
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            responses[0]
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some(E_TIMEOUT)
        );
        assert_eq!(responses[0].get("id").and_then(Json::as_str), Some("t"));
        handle.join().unwrap();
    }

    #[test]
    fn the_hit_ratio_counts_coalesced_followers_as_cache_path() {
        // 0 hits, 3 coalesced, 1 cold miss: three of four cacheable
        // requests cost no compute, so the ratio is 0.75 — under the
        // pre-singleflight accounting (hits / (hits + misses)) the same
        // traffic would have read as 0.0 and tripped the health SLO.
        assert!((hit_ratio(0, 3, 1) - 0.75).abs() < 1e-12);
        assert!((hit_ratio(2, 0, 2) - 0.5).abs() < 1e-12);
        assert_eq!(hit_ratio(0, 0, 0), 0.0, "no probes, no ratio");
        assert_eq!(hit_ratio(5, 5, 0), 1.0);
    }

    #[test]
    fn a_panicking_job_is_answered_internal_and_the_worker_lives_on() {
        let (addr, handle, _serial) = start(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        });
        let fault = format!(r#"{{"op":"explore","kernel":"{PANIC_KERNEL}"}}"#);
        // The same request twice: the second would wait out its deadline
        // as a follower if the first had left its flight open, and would
        // be a cache hit if the error had been cached.
        let responses = roundtrip(
            addr,
            &[
                &fault,
                &fault,
                r#"{"op":"explore","kernel":"fir"}"#,
                r#"{"op":"shutdown"}"#,
            ],
        );
        for doc in &responses[..2] {
            let error = doc.get("error").expect("error envelope");
            assert_eq!(error.get("code").and_then(Json::as_str), Some(E_INTERNAL), "{doc}");
            let message = error.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains("injected fault"), "{message}");
            assert_eq!(doc.get("cached").and_then(Json::as_bool), None, "{doc}");
        }
        // The only worker survived and computes the next request.
        assert_eq!(responses[2].get("ok").and_then(Json::as_bool), Some(true), "{}", responses[2]);
        handle.join().unwrap();
    }

    #[test]
    fn a_batch_reply_writes_its_sub_envelopes_inside_its_own() {
        use crate::protocol::{err_envelope, ok_envelope, ok_envelope_coalesced};
        let raw: Arc<str> = Arc::from(r#"{"x":[1,"é"]}"#);
        let (a, three, parent) = (Json::str("a\"b"), Json::UInt(3), Json::str("batch"));
        let subs = vec![
            (
                Some(a.clone()),
                Reply::Ok {
                    raw: Arc::clone(&raw),
                    cached: true,
                    coalesced: false,
                },
            ),
            (
                None,
                Reply::Ok {
                    raw: Arc::clone(&raw),
                    cached: false,
                    coalesced: true,
                },
            ),
            (Some(three.clone()), Reply::err(E_TIMEOUT, "late".to_string())),
        ];
        // The parent envelope as it was built before: the sub-envelope
        // strings joined, then spliced in as the parent's result.
        let inner = [
            ok_envelope_coalesced(Some(&a), true, false, &raw),
            ok_envelope_coalesced(None, false, true, &raw),
            err_envelope(Some(&three), E_TIMEOUT, "late"),
        ]
        .join(",");
        let want = ok_envelope(Some(&parent), false, &format!("{{\"responses\":[{inner}]}}"));
        let mut out = String::from("earlier\n");
        Reply::Batch(subs).write(&mut out, Some(&parent)).unwrap();
        assert_eq!(out, format!("earlier\n{want}"));
    }

    /// `(ns, self_ns)` of the span row `path` in a `stats` response.
    fn span_row(stats: &Json, path: &str) -> (u64, u64) {
        let rows = stats.get("result").and_then(|r| r.get("spans")).and_then(Json::as_array);
        rows.into_iter()
            .flatten()
            .find(|row| row.get("path").and_then(Json::as_str) == Some(path))
            .map_or((0, 0), |row| {
                let field = |key| row.get(key).and_then(Json::as_u64).unwrap_or(0);
                (field("ns"), field("self_ns"))
            })
    }

    #[test]
    fn a_served_execute_keeps_little_self_time() {
        // Spans record only while metrics are on (the CLI turns them on
        // for `serve`; unit tests must opt in).
        datareuse_obs::set_metrics_enabled(true);
        // Self time is wall clock, so one scheduling hiccup can inflate
        // it: the best of three cold runs must pass.
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let (addr, handle, _serial) = start(ServerConfig {
                threads: 1,
                ..ServerConfig::default()
            });
            let responses = roundtrip(
                addr,
                &[
                    r#"{"op":"stats"}"#,
                    r#"{"op":"explore","kernel":"fir"}"#,
                    r#"{"op":"stats"}"#,
                    r#"{"op":"shutdown"}"#,
                ],
            );
            handle.join().unwrap();
            assert_eq!(responses[1].get("cached").and_then(Json::as_bool), Some(false));
            for child in ["execute/load", "execute/encode"] {
                assert!(span_row(&responses[2], child).0 > 0, "no `{child}` row");
            }
            // Span rows are process-wide, so the execute row's growth
            // across the explore is this request's share.
            let before = span_row(&responses[0], "execute");
            let after = span_row(&responses[2], "execute");
            let (total, own) = (after.0 - before.0, after.1 - before.1);
            best = best.min(own as f64 / total as f64);
            if best <= 0.10 {
                return;
            }
        }
        panic!("`execute` self time is {:.0}% of `execute` at best", best * 100.0);
    }
}
