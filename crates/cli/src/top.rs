//! `datareuse top` — a live terminal dashboard over a running server.
//!
//! Polls `stats` on an interval and redraws one frame: headline
//! counters, the cache hit ratio, queue depth, and sparklines of what
//! happened between consecutive polls (requests per window, window
//! p50/p99 of cold-request latency). The server keeps no history for
//! this: `top` diffs the cumulative `serve_requests` counter, the
//! `serve_latency_cold_ns` buckets and the `alloc_bytes_total` gauge of
//! each poll against the previous one, and keeps the last
//! [`HISTORY`] windows itself. Everything is plain std — the "UI" is
//! ANSI clear-screen plus eight-level bar characters, with `--ascii`
//! downgrading to a portable ramp so frames diff cleanly in scripts and
//! golden tests. `--once` polls twice, `--interval-ms` apart, and
//! renders the one resulting frame without touching the screen, which
//! is what `crates/cli/tests/serve.rs` pins against a live server.

use std::collections::VecDeque;
use std::time::Instant;

use datareuse_obs::{HistSnapshot, Json};
use datareuse_server::Client;

use crate::CliError;

/// How `datareuse top` was asked to behave.
pub struct TopOptions {
    /// Server to poll.
    pub addr: String,
    /// Delay between polls.
    pub interval: std::time::Duration,
    /// Render one frame and exit (no screen clearing).
    pub once: bool,
    /// Use the ASCII bar ramp instead of Unicode blocks.
    pub ascii: bool,
}

/// Eight-level ramps, lowest to highest.
const BLOCKS: [char; 8] = ['\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}', '\u{2588}'];
const ASCII: [char; 8] = ['_', '.', ':', '-', '=', '+', '*', '#'];

/// Scales `values` into an eight-level bar string. An all-zero series
/// renders as all-lowest bars rather than dividing by zero.
fn sparkline(values: &[u64], ascii: bool) -> String {
    let ramp = if ascii { &ASCII } else { &BLOCKS };
    let max = values.iter().copied().max().unwrap_or(0).max(1);
    values
        .iter()
        .map(|&v| ramp[((v * 7 + max / 2) / max) as usize % 8])
        .collect()
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2}ms", ns as f64 / 1e6)
}

/// Fixed-unit byte formatting: always megabytes with two decimals, so
/// golden-frame normalization (digits → `N`) is stable regardless of
/// magnitude.
fn fmt_mb(bytes: f64) -> String {
    format!("{:.2}MB", bytes / 1e6)
}

/// Windows kept for the sparklines, which are one bar per window.
const HISTORY: usize = 48;

/// The cumulative figures of one `stats` poll that the next poll diffs.
struct Poll {
    at: Instant,
    requests: u64,
    cold: HistSnapshot,
    alloc_total: u64,
}

/// One field of one section of a `stats` result.
fn field<'a>(stats: &'a Json, section: &str, name: &str) -> Option<&'a Json> {
    stats.get(section)?.get(name)
}

/// A counter, gauge or derived count of a `stats` result (0 when absent).
fn count(stats: &Json, section: &str, name: &str) -> u64 {
    field(stats, section, name).and_then(Json::as_u64).unwrap_or(0)
}

impl Poll {
    fn read(stats: &Json, at: Instant) -> Poll {
        Poll {
            at,
            requests: count(stats, "counters", "serve_requests"),
            cold: field(stats, "hists", "serve_latency_cold_ns")
                .and_then(HistSnapshot::from_json)
                .unwrap_or_else(|| datareuse_obs::Histogram::new().snapshot()),
            alloc_total: count(stats, "gauges", "alloc_bytes_total"),
        }
    }
}

/// What happened between two consecutive polls.
struct Window {
    requests: u64,
    p50_ns: u64,
    p99_ns: u64,
    /// Allocation traffic over the window, in bytes per second.
    alloc_rate: f64,
}

impl Window {
    fn between(prev: &Poll, cur: &Poll) -> Window {
        let cold = cur.cold.since(&prev.cold);
        let secs = cur.at.saturating_duration_since(prev.at).as_secs_f64();
        Window {
            requests: cur.requests.saturating_sub(prev.requests),
            p50_ns: cold.p50(),
            p99_ns: cold.p99(),
            alloc_rate: cur.alloc_total.saturating_sub(prev.alloc_total) as f64 / secs.max(1e-3),
        }
    }
}

/// `top`'s own bounded history: the last poll, and the windows between
/// the last [`HISTORY`] + 1 polls, oldest first.
#[derive(Default)]
pub struct History {
    last: Option<Poll>,
    windows: VecDeque<Window>,
}

impl History {
    /// Records one polled `stats` result taken at `at`, closing the
    /// window since the previous poll.
    pub fn observe(&mut self, stats: &Json, at: Instant) {
        let poll = Poll::read(stats, at);
        if let Some(prev) = &self.last {
            if self.windows.len() == HISTORY {
                self.windows.pop_front();
            }
            self.windows.push_back(Window::between(prev, &poll));
        }
        self.last = Some(poll);
    }

    fn plot(&self, value: impl Fn(&Window) -> u64, ascii: bool) -> String {
        sparkline(&self.windows.iter().map(value).collect::<Vec<_>>(), ascii)
    }
}

/// Renders one dashboard frame from the newest `stats` result document
/// and the windows between earlier polls. Pure so tests can pin it
/// without a server.
pub fn render_frame(addr: &str, stats: &Json, history: &History, ascii: bool) -> String {
    let num = |name: &str| count(stats, "derived", name);
    let counter = |name: &str| count(stats, "counters", name);
    let gauge = |name: &str| count(stats, "gauges", name);
    let ratio = field(stats, "derived", "cache_hit_ratio").and_then(Json::as_f64);
    let newest = history.windows.back();
    let mut out = String::new();
    out.push_str(&format!("datareuse top — {addr}\n"));
    out.push_str(&format!(
        "requests {:>8}   errors {:>6}   timeouts {:>6}   overloaded {:>6}\n",
        num("requests_served"),
        counter("serve_errors"),
        counter("serve_timeouts"),
        counter("serve_overloaded"),
    ));
    out.push_str(&format!(
        "cache    hits {:>6}   misses {:>6}   hit ratio {:>5.1}%\n",
        counter("serve_cache_hits"),
        counter("serve_cache_misses"),
        ratio.unwrap_or(0.0) * 100.0,
    ));
    out.push_str(&format!(
        "queue    depth {:>5} now, {:>5} peak\n",
        num("queue_depth"),
        num("queue_depth_max"),
    ));
    out.push_str(&format!(
        "latency  window p50 {:>10}   p99 {:>10}\n",
        fmt_ms(newest.map_or(0, |w| w.p50_ns)),
        fmt_ms(newest.map_or(0, |w| w.p99_ns)),
    ));
    if history.windows.is_empty() {
        out.push_str("req/win  (waiting for a second poll)\n");
    } else {
        out.push_str(&format!("req/win  {}\n", history.plot(|w| w.requests, ascii)));
        out.push_str(&format!("p50      {}\n", history.plot(|w| w.p50_ns, ascii)));
        out.push_str(&format!("p99      {}\n", history.plot(|w| w.p99_ns, ascii)));
        out.push_str(&format!("points   {}\n", history.windows.len()));
    }
    out.push_str(&format!(
        "memory   live {:>10}   peak {:>10}   alloc {:>10}/s\n",
        fmt_mb(gauge("alloc_live_bytes") as f64),
        fmt_mb(gauge("alloc_peak_bytes") as f64),
        fmt_mb(newest.map_or(0.0, |w| w.alloc_rate)),
    ));
    out
}

/// RAII guard for the live dashboard's terminal state. Construction
/// switches to the alternate screen and hides the cursor; `Drop`
/// restores both, so a panic mid-redraw (or any early return) cannot
/// strand the user's terminal on the alternate screen with the cursor
/// hidden. `--once` never constructs one, which keeps one-shot output
/// byte-identical to what it was before the guard existed.
struct TermGuard;

impl TermGuard {
    /// Enter the alternate screen and hide the cursor, returning the
    /// guard whose `Drop` undoes both.
    fn activate() -> Result<TermGuard, CliError> {
        out!("\x1b[?1049h\x1b[?25l");
        crate::flush_stdout()?;
        Ok(TermGuard)
    }

    /// The restore sequence `Drop` writes: leave the alternate screen,
    /// show the cursor.
    fn restore_bytes() -> &'static str {
        "\x1b[?1049l\x1b[?25h"
    }
}

impl Drop for TermGuard {
    fn drop(&mut self) {
        // Best effort: a closed stdout has no terminal left to restore.
        let _ = crate::write_stdout(format_args!("{}", TermGuard::restore_bytes()));
        let _ = crate::flush_stdout();
    }
}

/// Drives the dashboard: poll, render, repeat. `--once` prints the
/// frame of its second poll, the first one that has a window.
///
/// # Errors
///
/// When the server cannot be reached or answers with a malformed or
/// error response.
pub fn run_top(opts: &TopOptions) -> Result<(), CliError> {
    let mut client = Client::connect(&opts.addr)?;
    let mut history = History::default();
    // Live mode owns the terminal for the duration: the guard flips to
    // the alternate screen now and restores it on every exit path —
    // error returns and panics included.
    let _guard = if opts.once {
        None
    } else {
        Some(TermGuard::activate()?)
    };
    loop {
        let doc = client.send(&Json::obj([("op", Json::str("stats"))]))?;
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("stats request failed: {doc}").into());
        }
        let stats = doc.get("result").ok_or("stats response without result")?;
        history.observe(stats, Instant::now());
        let frame = render_frame(&opts.addr, stats, &history, opts.ascii);
        if opts.once && !history.windows.is_empty() {
            out!("{frame}");
            return Ok(());
        }
        if !opts.once {
            // Clear + home, then the frame; redraw-in-place keeps the
            // terminal scrollback usable after Ctrl-C.
            out!("\x1b[2J\x1b[H{frame}");
            crate::flush_stdout()?;
        }
        std::thread::sleep(opts.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datareuse_obs::Histogram;
    use std::time::Duration;

    #[test]
    fn sparklines_scale_to_the_window_maximum() {
        assert_eq!(sparkline(&[0, 7], true), "_#");
        assert_eq!(sparkline(&[0, 1, 2, 3, 4, 5, 6, 7], true), "_.:-=+*#");
        // All-zero input must not divide by zero.
        assert_eq!(sparkline(&[0, 0, 0], true), "___");
        assert_eq!(sparkline(&[5], false), "\u{2588}");
    }

    /// A `stats` result as the server shapes it: cumulative request
    /// count, cold-latency histogram and allocation total.
    fn stats_doc(requests: u64, cold: &Histogram, alloc_total: u64) -> Json {
        let text = format!(
            r#"{{"counters":{{"serve_requests":{requests},"serve_cache_hits":3,"serve_cache_misses":1}},
                "gauges":{{"alloc_live_bytes":12340000,"alloc_peak_bytes":56780000,
                           "alloc_bytes_total":{alloc_total}}},
                "hists":{{"serve_latency_cold_ns":{}}},
                "derived":{{"requests_served":{requests},"cache_hit_ratio":0.75,
                            "queue_depth":0,"queue_depth_max":2}}}}"#,
            cold.snapshot().to_json()
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn a_frame_renders_the_windows_between_polls() {
        // Three polls one second apart: 4 then 5 requests, the second
        // window slower, with 5 MB of allocation traffic in it.
        let cold = Histogram::new();
        let t0 = Instant::now();
        let mut history = History::default();
        history.observe(&stats_doc(0, &cold, 1_000_000), t0);
        for _ in 0..4 {
            cold.record(1_000);
        }
        history.observe(&stats_doc(4, &cold, 1_000_000), t0 + Duration::from_secs(1));
        for v in [1_500, 1_500, 1_500, 1_500, 9_000] {
            cold.record(v);
        }
        let stats = stats_doc(9, &cold, 6_000_000);
        history.observe(&stats, t0 + Duration::from_secs(2));
        let frame = render_frame("127.0.0.1:1", &stats, &history, true);
        // The whole frame is pinned: ASCII frames stay ANSI-free, and
        // the newest window sets the latency and allocation-rate panels.
        let want = "\
datareuse top — 127.0.0.1:1
requests        9   errors      0   timeouts      0   overloaded      0
cache    hits      3   misses      1   hit ratio  75.0%
queue    depth     0 now,     2 peak
latency  window p50     0.00ms   p99     0.01ms
req/win  *#
p50      +#
p99      .#
points   2
memory   live    12.34MB   peak    56.78MB   alloc     5.00MB/s
";
        assert_eq!(frame, want);
    }

    #[test]
    fn history_is_bounded_and_diffs_consecutive_polls() {
        let t0 = Instant::now();
        let cold = Histogram::new();
        let mut history = History::default();
        for i in 0..(HISTORY as u64 + 10) {
            history.observe(&stats_doc(i * i, &cold, 0), t0 + Duration::from_secs(i));
        }
        assert_eq!(history.windows.len(), HISTORY);
        // Window k covers polls k and k + 1: (k+1)² − k² = 2k + 1.
        let newest = HISTORY as u64 + 8;
        assert_eq!(history.windows.back().map(|w| w.requests), Some(2 * newest + 1));
        // 57 windows closed; the oldest 9 were evicted.
        assert_eq!(history.windows.front().map(|w| w.requests), Some(2 * 9 + 1));
    }

    #[test]
    fn the_terminal_guard_restore_sequence_reenables_the_main_screen_and_cursor() {
        // The Drop guard must leave the alternate screen and re-show
        // the cursor — the two sequences `activate` flipped on.
        let restore = TermGuard::restore_bytes();
        assert!(restore.contains("\x1b[?1049l"), "leaves alternate screen");
        assert!(restore.contains("\x1b[?25h"), "re-shows cursor");
    }

    #[test]
    fn a_frame_before_the_second_poll_says_so() {
        let stats = Json::parse(r#"{"derived":{"requests_served":0}}"#).unwrap();
        let mut history = History::default();
        history.observe(&stats, Instant::now());
        let frame = render_frame("x", &stats, &history, true);
        assert!(frame.contains("(waiting for a second poll)"), "{frame}");
        assert!(frame.contains("alloc     0.00MB/s"), "{frame}");
    }
}
