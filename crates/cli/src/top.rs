//! `datareuse top` — a live terminal dashboard over a running server.
//!
//! Polls `stats {"series":true}` on an interval and redraws one frame:
//! headline counters, the cache hit ratio, queue depth, and sparklines
//! of the scraped metrics series (requests per window, window p50/p99
//! latency). Everything is plain std — the "UI" is ANSI clear-screen
//! plus eight-level bar characters, with `--ascii` downgrading to a
//! portable ramp so frames diff cleanly in scripts and golden tests.
//! `--once` renders a single frame without touching the screen, which
//! is what `crates/cli/tests/serve.rs` pins against a live server.

use datareuse_obs::Json;
use datareuse_server::Client;

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

/// The most recent `width` points of one per-point metric, oldest first.
fn tail(values: &[u64], width: usize) -> &[u64] {
    &values[values.len().saturating_sub(width)..]
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

/// Extracts the per-point series a frame plots: requests per window and
/// the window p50/p99 of cold-request latency.
struct SeriesView {
    requests: Vec<u64>,
    p50_ns: Vec<u64>,
    p99_ns: Vec<u64>,
    alloc_total: Vec<u64>,
    unix_ms: Vec<u64>,
}

impl SeriesView {
    fn from_stats(stats: &Json) -> SeriesView {
        let mut view = SeriesView {
            requests: Vec::new(),
            p50_ns: Vec::new(),
            p99_ns: Vec::new(),
            alloc_total: Vec::new(),
            unix_ms: Vec::new(),
        };
        let points = stats
            .get("series")
            .and_then(|s| s.get("points"))
            .and_then(Json::as_array)
            .unwrap_or(&[]);
        for p in points {
            let counter = |name: &str| {
                p.get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            let hist = |field: &str| {
                p.get("hists")
                    .and_then(|h| h.get("serve_latency_cold_ns"))
                    .and_then(|h| h.get(field))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            view.requests.push(counter("serve_requests"));
            view.p50_ns.push(hist("p50"));
            view.p99_ns.push(hist("p99"));
            view.alloc_total.push(
                p.get("gauges")
                    .and_then(|g| g.get("alloc_bytes_total"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
            );
            view.unix_ms
                .push(p.get("unix_ms").and_then(Json::as_u64).unwrap_or(0));
        }
        view
    }

    /// Allocation rate in bytes/second over the last scrape window:
    /// the `alloc_bytes_total` gauge carries cumulative allocation
    /// traffic, so diffing the two newest points and dividing by their
    /// wall-clock gap yields the live rate. Zero until two points exist.
    fn alloc_rate(&self) -> f64 {
        let n = self.alloc_total.len();
        if n < 2 {
            return 0.0;
        }
        let bytes = self.alloc_total[n - 1].saturating_sub(self.alloc_total[n - 2]) as f64;
        let ms = self.unix_ms[n - 1].saturating_sub(self.unix_ms[n - 2]).max(1) as f64;
        bytes * 1e3 / ms
    }
}

/// Renders one dashboard frame from a parsed `stats` result document.
/// Pure so tests can pin it without a server.
pub fn render_frame(addr: &str, stats: &Json, ascii: bool) -> String {
    let derived = |name: &str| stats.get("derived").and_then(|d| d.get(name));
    let num = |name: &str| derived(name).and_then(Json::as_u64).unwrap_or(0);
    let counter = |name: &str| {
        stats
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let ratio = derived("cache_hit_ratio").and_then(Json::as_f64).unwrap_or(0.0);
    let view = SeriesView::from_stats(stats);
    let width = 48;
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
        ratio * 100.0,
    ));
    out.push_str(&format!(
        "queue    depth {:>5} now, {:>5} peak\n",
        num("queue_depth"),
        num("queue_depth_max"),
    ));
    let (last_p50, last_p99) = (
        view.p50_ns.last().copied().unwrap_or(0),
        view.p99_ns.last().copied().unwrap_or(0),
    );
    out.push_str(&format!(
        "latency  window p50 {:>10}   p99 {:>10}\n",
        fmt_ms(last_p50),
        fmt_ms(last_p99),
    ));
    if view.requests.is_empty() {
        out.push_str("series   (no points scraped yet)\n");
    } else {
        out.push_str(&format!(
            "req/win  {}\n",
            sparkline(tail(&view.requests, width), ascii)
        ));
        out.push_str(&format!(
            "p50      {}\n",
            sparkline(tail(&view.p50_ns, width), ascii)
        ));
        out.push_str(&format!(
            "p99      {}\n",
            sparkline(tail(&view.p99_ns, width), ascii)
        ));
        out.push_str(&format!("points   {}\n", view.requests.len()));
    }
    let gauge = |name: &str| {
        stats
            .get("gauges")
            .and_then(|g| g.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    out.push_str(&format!(
        "memory   live {:>10}   peak {:>10}   alloc {:>10}/s\n",
        fmt_mb(gauge("alloc_live_bytes") as f64),
        fmt_mb(gauge("alloc_peak_bytes") as f64),
        fmt_mb(view.alloc_rate()),
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
    fn activate() -> TermGuard {
        print!("\x1b[?1049h\x1b[?25l");
        let _ = std::io::Write::flush(&mut std::io::stdout());
        TermGuard
    }

    /// The restore sequence `Drop` writes: leave the alternate screen,
    /// show the cursor.
    fn restore_bytes() -> &'static str {
        "\x1b[?1049l\x1b[?25h"
    }
}

impl Drop for TermGuard {
    fn drop(&mut self) {
        print!("{}", TermGuard::restore_bytes());
        let _ = std::io::Write::flush(&mut std::io::stdout());
    }
}

/// Drives the dashboard: poll, render, repeat (or once).
///
/// # Errors
///
/// When the server cannot be reached or answers with a malformed or
/// error response.
pub fn run_top(opts: &TopOptions) -> Result<(), String> {
    let mut client = Client::connect(&opts.addr)?;
    // Live mode owns the terminal for the duration: the guard flips to
    // the alternate screen now and restores it on every exit path —
    // error returns and panics included.
    let _guard = if opts.once { None } else { Some(TermGuard::activate()) };
    loop {
        let response = client.send_raw(r#"{"op":"stats","series":true}"#)?;
        let doc = Json::parse(&response).map_err(|e| format!("malformed stats response: {e}"))?;
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("stats request failed: {response}"));
        }
        let stats = doc.get("result").ok_or("stats response without result")?;
        let frame = render_frame(&opts.addr, stats, opts.ascii);
        if opts.once {
            print!("{frame}");
            return Ok(());
        }
        // Clear + home, then the frame; redraw-in-place keeps the
        // terminal scrollback usable after Ctrl-C.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        std::thread::sleep(opts.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparklines_scale_to_the_window_maximum() {
        assert_eq!(sparkline(&[0, 7], true), "_#");
        assert_eq!(sparkline(&[0, 1, 2, 3, 4, 5, 6, 7], true), "_.:-=+*#");
        // All-zero input must not divide by zero.
        assert_eq!(sparkline(&[0, 0, 0], true), "___");
        assert_eq!(sparkline(&[5], false), "\u{2588}");
    }

    #[test]
    fn a_frame_renders_from_a_stats_document() {
        let stats = Json::parse(
            r#"{"counters":{"serve_cache_hits":3,"serve_cache_misses":1,
                "serve_errors":0,"serve_timeouts":0,"serve_overloaded":0},
                "derived":{"requests_served":9,"cache_hit_ratio":0.75,
                "queue_depth":0,"queue_depth_max":2},
                "series":{"schema":"datareuse-series-v1","capacity":256,"points":[
                  {"seq":0,"counters":{"serve_requests":4},
                   "hists":{"serve_latency_cold_ns":{"count":4,"p50":1000,"p99":2000}}},
                  {"seq":1,"counters":{"serve_requests":5},
                   "hists":{"serve_latency_cold_ns":{"count":5,"p50":1500,"p99":9000}}}]}}"#,
        )
        .unwrap();
        let frame = render_frame("127.0.0.1:1", &stats, true);
        // The whole frame is pinned: ASCII frames stay ANSI-free, and a
        // document without memory gauges renders an all-zero memory
        // panel rather than dropping the line.
        let want = "\
datareuse top — 127.0.0.1:1
requests        9   errors      0   timeouts      0   overloaded      0
cache    hits      3   misses      1   hit ratio  75.0%
queue    depth     0 now,     2 peak
latency  window p50     0.00ms   p99     0.01ms
req/win  *#
p50      +#
p99      :#
points   2
memory   live     0.00MB   peak     0.00MB   alloc     0.00MB/s
";
        assert_eq!(frame, want);
    }

    #[test]
    fn the_memory_panel_shows_live_peak_and_the_windowed_alloc_rate() {
        // Two points one second apart with 5 MB of allocation traffic
        // between them → a 5.00MB/s rate; live/peak come from the
        // top-level gauges.
        let stats = Json::parse(
            r#"{"gauges":{"alloc_live_bytes":12340000,"alloc_peak_bytes":56780000},
                "series":{"points":[
                  {"seq":0,"unix_ms":1000,"counters":{"serve_requests":1},
                   "gauges":{"alloc_bytes_total":1000000},
                   "hists":{"serve_latency_cold_ns":{"count":1,"p50":1,"p99":1}}},
                  {"seq":1,"unix_ms":2000,"counters":{"serve_requests":1},
                   "gauges":{"alloc_bytes_total":6000000},
                   "hists":{"serve_latency_cold_ns":{"count":1,"p50":1,"p99":1}}}]}}"#,
        )
        .unwrap();
        let frame = render_frame("x", &stats, true);
        assert!(
            frame.contains("memory   live    12.34MB   peak    56.78MB   alloc     5.00MB/s"),
            "frame:\n{frame}"
        );
        // Fewer than two points → no window to rate over.
        let one = Json::parse(
            r#"{"series":{"points":[
                {"seq":0,"unix_ms":1000,"counters":{"serve_requests":1},
                 "gauges":{"alloc_bytes_total":1000000},
                 "hists":{"serve_latency_cold_ns":{"count":1,"p50":1,"p99":1}}}]}}"#,
        )
        .unwrap();
        let frame = render_frame("x", &one, true);
        assert!(frame.contains("alloc     0.00MB/s"), "frame:\n{frame}");
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
    fn a_frame_without_series_points_says_so() {
        let stats = Json::parse(r#"{"derived":{"requests_served":0}}"#).unwrap();
        let frame = render_frame("x", &stats, true);
        assert!(frame.contains("(no points scraped yet)"));
    }
}
