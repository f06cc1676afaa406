//! Singleflight coalescing: concurrent identical requests share one
//! computation.
//!
//! The result cache only helps *after* a computation finishes; under
//! concurrent load the expensive window is the gap between the first
//! miss and its fill, when N identical requests would all race the
//! worker pool and redundantly compute the same pure function. This
//! registry closes that gap: the first request to miss for a canonical
//! cache key ([`crate::protocol::cache_key`]) becomes the **leader** and
//! submits the one job; every later request for the same key while the
//! job is in flight becomes a **follower** and merely subscribes to the
//! outcome. When the leader's job completes (result *or* error), every
//! subscriber's callback fires with the shared outcome and the entry is
//! retired — the next request for the key starts a fresh flight (or
//! hits the now-warm cache).
//!
//! Coalescing keys off the canonical request hash, not the cache, so it
//! works even with `--cache-entries 0`: a cacheless server still never
//! computes the same in-flight request twice. Followers are counted in
//! `serve_coalesced` and marked with `coalesced: true` in their response
//! envelope; the `stats`/`health` hit-ratio treats them as cache-path
//! traffic (they cost no compute), which is what keeps the SLO grade
//! honest under coalescing.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::lock;
use crate::ops::OpError;

/// The shared outcome of one in-flight computation: the serialized
/// result document, or the structured error every subscriber receives.
pub type FlightOutcome = Result<Arc<str>, OpError>;

/// A subscriber callback: invoked exactly once with the shared outcome
/// and whether this subscriber was a follower (`true`) or the leader
/// (`false`). Runs on whichever thread calls [`SingleFlight::complete`]
/// — completion callbacks must be cheap and non-blocking (the serving
/// loop's are: push to a queue, write one wake byte).
pub type Subscriber = Box<dyn FnOnce(&FlightOutcome, bool) + Send>;

/// The role [`SingleFlight::join`] assigned to a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinRole {
    /// First in: the caller must run the computation and
    /// [`SingleFlight::complete`] it.
    Leader,
    /// An identical computation is already in flight; the subscriber
    /// fires when it lands. The caller must *not* submit work.
    Follower,
}

/// Registry of in-flight computations keyed by canonical request hash.
#[derive(Default)]
pub struct SingleFlight {
    inflight: Mutex<HashMap<u64, Vec<Subscriber>>>,
}

impl SingleFlight {
    /// An empty registry.
    pub fn new() -> SingleFlight {
        SingleFlight::default()
    }

    /// Subscribes to the computation for `key`, creating the flight if
    /// none exists. The returned role tells the caller whether it owns
    /// running the computation.
    pub fn join(&self, key: u64, subscriber: Subscriber) -> JoinRole {
        let mut inflight = lock(&self.inflight);
        match inflight.entry(key) {
            Entry::Occupied(mut e) => {
                e.get_mut().push(subscriber);
                JoinRole::Follower
            }
            Entry::Vacant(e) => {
                e.insert(vec![subscriber]);
                JoinRole::Leader
            }
        }
    }

    /// Retires the flight for `key`, delivering `outcome` to every
    /// subscriber in join order (the leader's callback first, with
    /// `coalesced = false`; followers after, with `true`). Callbacks run
    /// outside the registry lock, so a callback may start a new flight
    /// for the same key without deadlocking.
    pub fn complete(&self, key: u64, outcome: &FlightOutcome) {
        let subscribers = lock(&self.inflight).remove(&key).unwrap_or_default();
        for (i, subscriber) in subscribers.into_iter().enumerate() {
            subscriber(outcome, i > 0);
        }
    }

    /// Number of subscribers currently waiting on `key` (0 when no
    /// flight exists). Workers use this to decide whether an expired
    /// leader may skip the compute: only when nobody else is waiting.
    pub fn waiting(&self, key: u64) -> usize {
        lock(&self.inflight).get(&key).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn probe(
        log: &Arc<Mutex<Vec<(String, bool)>>>,
        tag: &str,
    ) -> Subscriber {
        let log = Arc::clone(log);
        let tag = tag.to_string();
        Box::new(move |outcome, coalesced| {
            let text = match outcome {
                Ok(raw) => format!("{tag}:{raw}"),
                Err(e) => format!("{tag}:err:{}", e.code),
            };
            log.lock().unwrap().push((text, coalesced));
        })
    }

    #[test]
    fn leader_then_followers_share_one_outcome() {
        let sf = SingleFlight::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        assert_eq!(sf.join(7, probe(&log, "a")), JoinRole::Leader);
        assert_eq!(sf.join(7, probe(&log, "b")), JoinRole::Follower);
        assert_eq!(sf.join(7, probe(&log, "c")), JoinRole::Follower);
        assert_eq!(sf.waiting(7), 3);
        sf.complete(7, &Ok(Arc::from("r")));
        let got = log.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![
                ("a:r".to_string(), false),
                ("b:r".to_string(), true),
                ("c:r".to_string(), true),
            ]
        );
        assert_eq!(sf.waiting(7), 0, "flight retired");
    }

    #[test]
    fn distinct_keys_are_independent_flights() {
        let sf = SingleFlight::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        assert_eq!(sf.join(1, probe(&log, "x")), JoinRole::Leader);
        assert_eq!(sf.join(2, probe(&log, "y")), JoinRole::Leader);
        sf.complete(2, &Ok(Arc::from("two")));
        sf.complete(1, &Ok(Arc::from("one")));
        let got = log.lock().unwrap().clone();
        assert_eq!(got[0].0, "y:two");
        assert_eq!(got[1].0, "x:one");
    }

    #[test]
    fn errors_fan_out_to_every_subscriber() {
        let sf = SingleFlight::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        sf.join(9, probe(&log, "a"));
        sf.join(9, probe(&log, "b"));
        sf.complete(
            9,
            &Err(OpError {
                code: "overloaded",
                message: "queue full".to_string(),
            }),
        );
        let got = log.lock().unwrap().clone();
        assert_eq!(got[0], ("a:err:overloaded".to_string(), false));
        assert_eq!(got[1], ("b:err:overloaded".to_string(), true));
    }

    #[test]
    fn completion_retires_the_key_for_a_fresh_flight() {
        let sf = SingleFlight::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        sf.join(4, probe(&log, "first"));
        sf.complete(4, &Ok(Arc::from("v1")));
        // A new request after completion is a new leader, not a follower
        // of a dead flight.
        assert_eq!(sf.join(4, probe(&log, "second")), JoinRole::Leader);
        sf.complete(4, &Ok(Arc::from("v2")));
        assert_eq!(log.lock().unwrap().len(), 2);
    }

    #[test]
    fn complete_without_subscribers_is_a_no_op() {
        let sf = SingleFlight::new();
        sf.complete(42, &Ok(Arc::from("nobody")));
        assert_eq!(sf.waiting(42), 0);
    }

    #[test]
    fn concurrent_joins_agree_on_exactly_one_leader() {
        let sf = Arc::new(SingleFlight::new());
        let leaders = Arc::new(AtomicUsize::new(0));
        let delivered = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let leaders = Arc::clone(&leaders);
                let delivered = Arc::clone(&delivered);
                std::thread::spawn(move || {
                    let d = Arc::clone(&delivered);
                    let role = sf.join(11, Box::new(move |_, _| {
                        d.fetch_add(1, Ordering::SeqCst);
                    }));
                    if role == JoinRole::Leader {
                        leaders.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 1, "exactly one leader");
        sf.complete(11, &Ok(Arc::from("r")));
        assert_eq!(delivered.load(Ordering::SeqCst), 8, "everyone notified");
    }
}
