//! Periodic stderr progress narration for long-running commands.
//!
//! [`Progress`] spawns a background thread that samples the live counter
//! registry every tick and prints a one-line status to stderr, so a
//! multi-minute exhaustive simulation shows signs of life. Dropping the
//! handle stops the thread and prints one final summary line — short runs
//! therefore always emit at least one line, which also makes the feature
//! testable from the CLI black-box tests.
//!
//! The narrator only *reads* the registry; the instrumented code's chunked
//! counter flushes (see [`crate::LocalCounter`]) are what keep the numbers
//! moving mid-simulation.

use std::io::Write as _;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::{counter_value, Counter};

/// The counters worth narrating, with short human labels.
const NARRATED: [(Counter, &str); 9] = [
    (Counter::ExploreCandidatesGenerated, "candidates"),
    (Counter::ChainsEvaluated, "chains"),
    (Counter::ParetoPointsKept, "pareto"),
    (Counter::BeladyAccesses, "belady-acc"),
    (Counter::WorkingSetWindows, "ws-windows"),
    (Counter::ServeRequests, "requests"),
    (Counter::ServeCacheHits, "cache-hits"),
    (Counter::ServeOverloaded, "overloaded"),
    (Counter::ServeTimeouts, "timeouts"),
];

fn status_line(elapsed: Duration) -> String {
    let mut line = format!("[datareuse {:6.1}s]", elapsed.as_secs_f64());
    for (counter, label) in NARRATED {
        let v = counter_value(counter);
        if v > 0 {
            line.push_str(&format!(" {label}={v}"));
        }
    }
    line
}

/// Handle for a running stderr progress narrator; stops on drop.
///
/// # Examples
///
/// ```
/// use datareuse_obs::{Progress, set_metrics_enabled, reset_metrics};
/// reset_metrics();
/// set_metrics_enabled(true);
/// {
///     let _progress = Progress::start(std::time::Duration::from_millis(200));
///     // ... long-running work ...
/// } // final summary line printed here
/// set_metrics_enabled(false);
/// ```
#[derive(Debug)]
pub struct Progress {
    stop: mpsc::Sender<()>,
    worker: Option<JoinHandle<()>>,
}

impl Progress {
    /// Starts narrating to stderr every `tick`. Also enables metrics
    /// recording if it was off (the narrator is useless without it).
    pub fn start(tick: Duration) -> Self {
        crate::set_metrics_enabled(true);
        let (stop, stopped) = mpsc::channel();
        let started = Instant::now();
        let worker = std::thread::spawn(move || loop {
            match stopped.recv_timeout(tick) {
                Err(RecvTimeoutError::Timeout) => {
                    let _ = writeln!(std::io::stderr(), "{}", status_line(started.elapsed()));
                }
                // Stop requested or handle dropped: final summary line.
                Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                    let _ = writeln!(
                        std::io::stderr(),
                        "{} (done)",
                        status_line(started.elapsed())
                    );
                    break;
                }
            }
        });
        Self {
            stop,
            worker: Some(worker),
        }
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::test_lock;
    use crate::{add, reset_metrics, set_metrics_enabled};

    #[test]
    fn status_line_includes_only_nonzero_counters() {
        let _guard = test_lock::hold();
        reset_metrics();
        set_metrics_enabled(true);
        add(Counter::ChainsEvaluated, 9);
        let line = status_line(Duration::from_secs(2));
        set_metrics_enabled(false);
        assert!(line.contains("chains=9"), "line: {line}");
        assert!(!line.contains("belady-acc"), "line: {line}");
        reset_metrics();
    }

    #[test]
    fn progress_starts_and_stops_cleanly() {
        let _guard = test_lock::hold();
        reset_metrics();
        let progress = Progress::start(Duration::from_millis(5));
        assert!(crate::metrics_enabled());
        std::thread::sleep(Duration::from_millis(20));
        drop(progress); // must join without hanging
        reset_metrics();
    }
}
