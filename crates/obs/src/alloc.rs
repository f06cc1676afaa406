//! A tracking global allocator: process-wide allocation accounting.
//!
//! Closed-form reuse analysis is only cheap if it stays allocation-lean,
//! so allocation traffic belongs in the same registry as wall time. This
//! module installs a [`GlobalAlloc`] wrapper over [`System`] that keeps
//! sharded atomic tallies of every heap operation — alloc/dealloc/realloc
//! counts, bytes allocated and freed, the current live-byte level, and
//! its high-water peak — plus a per-thread cumulative bytes-allocated
//! counter ([`thread_alloc_bytes`]) that the span layer samples to
//! attribute allocation to `/`-joined span paths, exactly like wall time.
//!
//! Tracking is always on: the accounting per operation is a handful of
//! `Relaxed` atomic adds and one thread-local `Cell` bump (no locks, no
//! allocation, no syscalls), so the wrapper stays invisible next to the
//! cost of the underlying `malloc`. The monotone tallies shard across
//! [`AllocTally::SHARDS`]
//! cache-line-padded slots keyed by a per-thread value, so parallel
//! sweeps do not serialize on one hot line; the live level and peak are
//! single atomics because the peak must observe every level change.
//!
//! [`reset_alloc`] (called from [`crate::reset_metrics`]) zeroes the
//! monotone accumulators and resets the peak to the *current live level*
//! — not to zero: memory allocated before the reset is still resident,
//! and a peak below the live level would be a lie. The live level itself
//! is never reset; it tracks reality, not a measurement window.
//!
//! The `unsafe` here is the [`GlobalAlloc`] impl the trait requires; it
//! forwards every pointer contract verbatim to [`System`] and only adds
//! lock-free arithmetic around the calls.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Cumulative bytes allocated by this thread (monotone). Const-
    /// initialized so the very first access from inside the allocator
    /// cannot itself allocate.
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Bytes this thread has allocated so far (monotone, never reset).
///
/// Span guards sample this at open and close; the difference is the
/// allocation attributed to the span's path. Per-thread deltas make
/// concurrent spans on different threads independent — a worker's
/// allocations never bleed into a span open on the event loop.
pub fn thread_alloc_bytes() -> u64 {
    THREAD_BYTES.try_with(Cell::get).unwrap_or(0)
}

/// Adds `bytes` to this thread's [`thread_alloc_bytes`] counter without
/// touching the process-wide tallies.
///
/// A fan-out calls this after joining its scoped workers, with the sum
/// of their [`thread_alloc_bytes`] deltas, so the span the caller holds
/// open is charged for the work it farmed out. The workers' allocations
/// were already counted once in [`alloc_snapshot`]; this only moves
/// their attribution to the spawning thread.
pub fn credit_thread_alloc_bytes(bytes: u64) {
    // Ignoring the teardown case is fine: no span can be open then.
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes)));
}

/// Bumps the thread counter and derives this thread's shard index from
/// the thread-local's address (stable per thread, free to compute).
/// During thread teardown the TLS slot may be gone; fall back to shard 0
/// rather than losing the event.
fn note_thread(bytes: u64) -> usize {
    THREAD_BYTES
        .try_with(|c| {
            c.set(c.get().wrapping_add(bytes));
            (std::ptr::from_ref(c) as usize >> 7) % AllocTally::SHARDS
        })
        .unwrap_or(0)
}

/// One shard of the monotone tallies, padded to its own cache line so
/// threads hashing to different shards never false-share.
#[repr(align(64))]
#[derive(Debug)]
struct Shard {
    allocs: AtomicU64,
    deallocs: AtomicU64,
    reallocs: AtomicU64,
    bytes_allocated: AtomicU64,
    bytes_freed: AtomicU64,
}

impl Shard {
    const fn new() -> Self {
        Self {
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            reallocs: AtomicU64::new(0),
            bytes_allocated: AtomicU64::new(0),
            bytes_freed: AtomicU64::new(0),
        }
    }
}

/// The allocator's accounting state, factored out of the global so the
/// invariants are testable against a shadow model on a private instance
/// (the global allocator's tallies see every allocation in the process,
/// including the test harness's own, so exact assertions belong here).
#[derive(Debug)]
pub(crate) struct AllocTally {
    shards: [Shard; AllocTally::SHARDS],
    live: AtomicU64,
    peak: AtomicU64,
}

impl AllocTally {
    /// Number of monotone-tally shards.
    pub(crate) const SHARDS: usize = 16;

    pub(crate) const fn new() -> Self {
        Self {
            shards: [const { Shard::new() }; AllocTally::SHARDS],
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Records one allocation of `bytes` on `shard`.
    pub(crate) fn on_alloc(&self, bytes: u64, shard: usize) {
        let s = &self.shards[shard % Self::SHARDS];
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.bytes_allocated.fetch_add(bytes, Ordering::Relaxed);
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Records one deallocation of `bytes` on `shard`.
    pub(crate) fn on_dealloc(&self, bytes: u64, shard: usize) {
        let s = &self.shards[shard % Self::SHARDS];
        s.deallocs.fetch_add(1, Ordering::Relaxed);
        s.bytes_freed.fetch_add(bytes, Ordering::Relaxed);
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Records one reallocation `old` → `new` bytes on `shard`: the new
    /// block counts as allocated traffic, the old as freed, and the live
    /// level moves by the difference.
    pub(crate) fn on_realloc(&self, old: u64, new: u64, shard: usize) {
        let s = &self.shards[shard % Self::SHARDS];
        s.reallocs.fetch_add(1, Ordering::Relaxed);
        s.bytes_allocated.fetch_add(new, Ordering::Relaxed);
        s.bytes_freed.fetch_add(old, Ordering::Relaxed);
        if new >= old {
            let live = self.live.fetch_add(new - old, Ordering::Relaxed) + (new - old);
            self.peak.fetch_max(live, Ordering::Relaxed);
        } else {
            self.live.fetch_sub(old - new, Ordering::Relaxed);
        }
    }

    /// Sums the shards into one point-in-time [`AllocSnapshot`].
    pub(crate) fn snapshot(&self) -> AllocSnapshot {
        let mut snap = AllocSnapshot {
            allocs: 0,
            deallocs: 0,
            reallocs: 0,
            bytes_allocated: 0,
            bytes_freed: 0,
            live_bytes: self.live.load(Ordering::Relaxed),
            peak_bytes: self.peak.load(Ordering::Relaxed),
        };
        for s in &self.shards {
            snap.allocs += s.allocs.load(Ordering::Relaxed);
            snap.deallocs += s.deallocs.load(Ordering::Relaxed);
            snap.reallocs += s.reallocs.load(Ordering::Relaxed);
            snap.bytes_allocated += s.bytes_allocated.load(Ordering::Relaxed);
            snap.bytes_freed += s.bytes_freed.load(Ordering::Relaxed);
        }
        snap
    }

    /// Zeroes the monotone accumulators and resets the peak to the
    /// current live level. The live level is untouched: it reflects
    /// memory that is genuinely still resident.
    pub(crate) fn reset(&self) {
        for s in &self.shards {
            s.allocs.store(0, Ordering::Relaxed);
            s.deallocs.store(0, Ordering::Relaxed);
            s.reallocs.store(0, Ordering::Relaxed);
            s.bytes_allocated.store(0, Ordering::Relaxed);
            s.bytes_freed.store(0, Ordering::Relaxed);
        }
        self.peak.store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// The process-global tally behind [`alloc_snapshot`].
static TALLY: AllocTally = AllocTally::new();

/// A point-in-time copy of the allocator tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations served (`alloc` + `alloc_zeroed` calls that succeeded).
    pub allocs: u64,
    /// Deallocations.
    pub deallocs: u64,
    /// Reallocations (counted separately from allocs/deallocs).
    pub reallocs: u64,
    /// Total bytes ever allocated (realloc counts its new size).
    pub bytes_allocated: u64,
    /// Total bytes ever freed (realloc counts its old size).
    pub bytes_freed: u64,
    /// Bytes currently live on the heap.
    pub live_bytes: u64,
    /// High-water live-byte mark since process start or the last
    /// [`crate::reset_metrics`].
    pub peak_bytes: u64,
}

/// Reads the process-wide allocator tallies.
///
/// Always available — allocation tracking is not gated on
/// [`crate::metrics_enabled`], because the wrapper's cost is a few
/// relaxed atomic adds per heap call and a toggle would leave the live
/// level meaningless.
pub fn alloc_snapshot() -> AllocSnapshot {
    TALLY.snapshot()
}

/// Resets the global tally: accumulators to zero, peak to the current
/// live level (see [`AllocTally::reset`]). Called from
/// [`crate::reset_metrics`].
pub(crate) fn reset_alloc() {
    TALLY.reset();
}

/// The tracking wrapper installed as the `#[global_allocator]` for every
/// binary linking this crate.
#[derive(Debug)]
pub struct TrackingAllocator;

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

// SAFETY: every method forwards the exact layout/pointer arguments to
// `System`, which upholds the `GlobalAlloc` contract; the added
// accounting performs no allocation (const-initialized thread-local,
// relaxed atomics only), so the allocator cannot re-enter itself.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let shard = note_thread(layout.size() as u64);
            TALLY.on_alloc(layout.size() as u64, shard);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            let shard = note_thread(layout.size() as u64);
            TALLY.on_alloc(layout.size() as u64, shard);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        let shard = note_thread(0);
        TALLY.on_dealloc(layout.size() as u64, shard);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let shard = note_thread(new_size as u64);
            TALLY.on_realloc(layout.size() as u64, new_size as u64, shard);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::test_lock;

    #[test]
    fn the_global_tally_sees_a_big_allocation() {
        // Sibling tests call `reset_metrics()`, which zeroes the global
        // accumulators; a reset between the two snapshots would read as
        // a missed allocation.
        let _guard = test_lock::hold();
        let before = alloc_snapshot();
        let buf = vec![7u8; 4 << 20];
        let after = alloc_snapshot();
        assert!(
            after.bytes_allocated >= before.bytes_allocated + (4 << 20),
            "4 MiB allocation not tallied: before {before:?}, after {after:?}"
        );
        assert!(after.allocs > before.allocs);
        assert!(after.peak_bytes >= after.live_bytes.min(4 << 20));
        drop(buf);
        let freed = alloc_snapshot();
        assert!(
            freed.bytes_freed >= before.bytes_freed + (4 << 20),
            "free not tallied: {freed:?}"
        );
    }

    #[test]
    fn thread_bytes_are_per_thread_and_monotone() {
        let a = thread_alloc_bytes();
        let v = vec![0u8; 1 << 20];
        let b = thread_alloc_bytes();
        assert!(b >= a + (1 << 20), "thread counter missed 1 MiB: {a} -> {b}");
        drop(v);
        // Monotone: frees do not decrease the allocated-bytes counter.
        assert!(thread_alloc_bytes() >= b);
        // A fresh thread starts its own counter near zero, independent of
        // this thread's traffic.
        let other = std::thread::spawn(|| {
            let base = thread_alloc_bytes();
            let v = vec![0u8; 1 << 16];
            let grown = thread_alloc_bytes();
            drop(v);
            grown - base
        })
        .join()
        .unwrap();
        assert!(other >= 1 << 16);
        assert!(thread_alloc_bytes() < b + (1 << 19), "cross-thread bleed");
    }

    #[test]
    fn reset_zeroes_accumulators_and_pins_peak_to_live() {
        // Exact semantics on a private instance (the global races other
        // test threads): after reset the monotone tallies are zero and
        // the peak equals the live level — not zero.
        let t = AllocTally::new();
        t.on_alloc(1_000, 0);
        t.on_alloc(500, 3);
        t.on_dealloc(200, 1);
        t.on_realloc(300, 700, 2);
        let s = t.snapshot();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.deallocs, 1);
        assert_eq!(s.reallocs, 1);
        assert_eq!(s.bytes_allocated, 1_000 + 500 + 700);
        assert_eq!(s.bytes_freed, 200 + 300);
        assert_eq!(s.live_bytes, 1_000 + 500 - 200 + 400);
        assert!(s.peak_bytes >= s.live_bytes);
        t.reset();
        let r = t.snapshot();
        assert_eq!(r.allocs, 0);
        assert_eq!(r.deallocs, 0);
        assert_eq!(r.reallocs, 0);
        assert_eq!(r.bytes_allocated, 0);
        assert_eq!(r.bytes_freed, 0);
        assert_eq!(r.live_bytes, s.live_bytes, "live survives a reset");
        assert_eq!(r.peak_bytes, s.live_bytes, "peak resets to live, not zero");
    }

    #[test]
    fn tally_matches_a_shadow_model_under_random_interleavings() {
        use datareuse_proptest::{check, prop_assert, prop_assert_eq, Config};
        // Property: driving a fresh tally with a random alloc/free/realloc
        // sequence, the counters match an exact shadow model at every
        // step, the live level never underflows, and the peak is the
        // running maximum of the live level.
        check(
            "alloc_tally_shadow_model",
            &Config::with_cases(64),
            |rng| {
                rng.vec(1, 120, |r| {
                    (r.u64_in(0, 2), r.u64_in(0, 1 << 20), r.u64_in(0, 1 << 20))
                })
            },
            |ops| {
                let t = AllocTally::new();
                let mut blocks: Vec<u64> = Vec::new();
                let mut shadow = AllocSnapshot {
                    allocs: 0,
                    deallocs: 0,
                    reallocs: 0,
                    bytes_allocated: 0,
                    bytes_freed: 0,
                    live_bytes: 0,
                    peak_bytes: 0,
                };
                for (i, &(kind, a, b)) in ops.iter().enumerate() {
                    match kind {
                        0 => {
                            t.on_alloc(a, i);
                            blocks.push(a);
                            shadow.allocs += 1;
                            shadow.bytes_allocated += a;
                            shadow.live_bytes += a;
                        }
                        1 if !blocks.is_empty() => {
                            let old = blocks.swap_remove((b as usize) % blocks.len());
                            t.on_dealloc(old, i);
                            shadow.deallocs += 1;
                            shadow.bytes_freed += old;
                            shadow.live_bytes -= old;
                        }
                        2 if !blocks.is_empty() => {
                            let idx = (a as usize) % blocks.len();
                            let old = blocks[idx];
                            blocks[idx] = b;
                            t.on_realloc(old, b, i);
                            shadow.reallocs += 1;
                            shadow.bytes_allocated += b;
                            shadow.bytes_freed += old;
                            shadow.live_bytes = shadow.live_bytes - old + b;
                        }
                        _ => continue,
                    }
                    shadow.peak_bytes = shadow.peak_bytes.max(shadow.live_bytes);
                    let s = t.snapshot();
                    prop_assert_eq!(s.allocs, shadow.allocs);
                    prop_assert_eq!(s.deallocs, shadow.deallocs);
                    prop_assert_eq!(s.reallocs, shadow.reallocs);
                    prop_assert_eq!(s.bytes_allocated, shadow.bytes_allocated);
                    prop_assert_eq!(s.bytes_freed, shadow.bytes_freed);
                    prop_assert_eq!(s.live_bytes, shadow.live_bytes, "live at step {}", i);
                    prop_assert_eq!(s.peak_bytes, shadow.peak_bytes, "peak at step {}", i);
                    prop_assert!(s.peak_bytes >= s.live_bytes);
                    prop_assert_eq!(
                        s.live_bytes,
                        s.bytes_allocated - s.bytes_freed,
                        "live is the alloc/free difference"
                    );
                }
                Ok(())
            },
        );
    }

    #[test]
    fn sharded_counters_sum_consistently_across_threads() {
        // 8 threads hammer one tally with balanced alloc/free pairs on
        // their own shard lanes; afterwards the shard sums must agree
        // exactly with the aggregate arithmetic.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;
        let t = AllocTally::new();
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let size = 64 + (i % 7) * 8;
                        t.on_alloc(size, (thread as usize) + (i as usize));
                        t.on_dealloc(size, (thread as usize) + (i as usize) + 1);
                    }
                });
            }
        });
        let s = t.snapshot();
        assert_eq!(s.allocs, THREADS * PER_THREAD);
        assert_eq!(s.deallocs, THREADS * PER_THREAD);
        assert_eq!(s.bytes_allocated, s.bytes_freed, "balanced traffic");
        assert_eq!(s.live_bytes, 0, "everything allocated was freed");
        assert!(s.peak_bytes <= s.bytes_allocated);
    }
}
