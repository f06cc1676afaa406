//! Fixed worker pool with a bounded queue and drain-on-shutdown.
//!
//! The serving path deliberately separates I/O from compute: connection
//! threads (one per client, blocked on reads most of their life) parse
//! requests and write responses, while the CPU-bound exploration work
//! runs on this fixed pool. The queue between them is **bounded** —
//! when `queue_depth` jobs are already waiting, [`WorkerPool::try_submit`]
//! refuses immediately and the caller answers the client with a
//! structured `overloaded` error. Backpressure at the edge beats an
//! unbounded queue that converts overload into unbounded memory growth
//! and minutes-stale responses.
//!
//! [`WorkerPool::drain`] implements the graceful half of shutdown:
//! submissions stop, every job already accepted still runs, and the
//! workers are joined.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use datareuse_obs::{gauge_add, gauge_max, gauge_sub, Gauge};

use crate::lock;

/// A unit of queued work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
    draining: AtomicBool,
}

/// Fixed-size worker pool over a bounded FIFO queue.
pub struct WorkerPool {
    queue: std::sync::Arc<Queue>,
    capacity: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (at least 1) over a queue holding at
    /// most `queue_depth` waiting jobs (at least 1).
    pub fn new(threads: usize, queue_depth: usize) -> Self {
        let queue = std::sync::Arc::new(Queue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            draining: AtomicBool::new(false),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let queue = std::sync::Arc::clone(&queue);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut jobs = lock(&queue.jobs);
                        loop {
                            if let Some(job) = jobs.pop_front() {
                                // The depth gauge tracks *waiting* jobs:
                                // decremented the moment a worker takes
                                // one, not when it finishes.
                                gauge_sub(Gauge::ServeQueueDepth, 1);
                                break Some(job);
                            }
                            if queue.draining.load(Ordering::Acquire) {
                                break None;
                            }
                            jobs = queue.ready.wait(jobs).unwrap_or_else(PoisonError::into_inner);
                        }
                    };
                    match job {
                        // A panic that escapes the job ends the job,
                        // not the worker: the pool keeps its size.
                        Some(job) => drop(panic::catch_unwind(AssertUnwindSafe(job))),
                        None => return,
                    }
                })
            })
            .collect();
        Self {
            queue,
            capacity: queue_depth.max(1),
            workers: Mutex::new(workers),
        }
    }

    /// Enqueues `job` unless the queue is full or the pool is draining.
    ///
    /// # Errors
    ///
    /// Returns the job back on refusal so the caller can report
    /// `overloaded` (or `shutting_down`) without having lost it.
    pub fn try_submit(&self, job: Job) -> Result<(), Job> {
        if self.queue.draining.load(Ordering::Acquire) {
            return Err(job);
        }
        let mut jobs = lock(&self.queue.jobs);
        if jobs.len() >= self.capacity {
            return Err(job);
        }
        jobs.push_back(job);
        // Recorded under the lock: the matching decrement also runs
        // under it (in the worker's pop), so increments can never be
        // overtaken by their own decrement and the gauge cannot drift.
        gauge_add(Gauge::ServeQueueDepth, 1);
        gauge_max(Gauge::ServeQueueDepthMax, jobs.len() as u64);
        drop(jobs);
        self.queue.ready.notify_one();
        Ok(())
    }

    /// Number of jobs waiting (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        lock(&self.queue.jobs).len()
    }

    /// Stops accepting work, lets the workers finish everything already
    /// queued, and joins them. Idempotent.
    pub fn drain(&self) {
        self.queue.draining.store(true, Ordering::Release);
        self.queue.ready.notify_all();
        let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.workers));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(4, 16);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let done = Arc::clone(&done);
            pool.try_submit(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap_or_else(|_| panic!("queue has room"));
        }
        pool.drain();
        assert_eq!(done.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn a_panicking_job_leaves_the_worker_running() {
        let pool = WorkerPool::new(1, 4);
        let done = Arc::new(AtomicUsize::new(0));
        pool.try_submit(Box::new(|| panic!("job panics outside any catch")))
            .unwrap_or_else(|_| panic!("queue has room"));
        let after = Arc::clone(&done);
        pool.try_submit(Box::new(move || {
            after.fetch_add(1, Ordering::SeqCst);
        }))
        .unwrap_or_else(|_| panic!("queue has room"));
        pool.drain();
        assert_eq!(done.load(Ordering::SeqCst), 1, "the one worker ran the next job");
    }

    #[test]
    fn rejects_when_the_queue_is_full() {
        // One worker, blocked; queue depth 1: the first extra job queues,
        // the second is refused — the structured-overload path.
        let pool = WorkerPool::new(1, 1);
        let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            let _ = block_rx.recv_timeout(Duration::from_secs(10));
        }))
        .unwrap_or_else(|_| panic!("first job accepted"));
        // Wait until the worker has taken the blocking job off the queue.
        for _ in 0..200 {
            if pool.queued() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        pool.try_submit(Box::new(|| {}))
            .unwrap_or_else(|_| panic!("queue slot accepted"));
        assert!(pool.try_submit(Box::new(|| {})).is_err(), "overload rejected");
        block_tx.send(()).unwrap();
        pool.drain();
    }

    #[test]
    fn drain_completes_queued_work_and_refuses_new_work() {
        let pool = WorkerPool::new(2, 32);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            pool.try_submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(1));
                done.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap_or_else(|_| panic!("queue has room"));
        }
        pool.drain();
        assert_eq!(done.load(Ordering::SeqCst), 8, "in-flight work drained");
        assert!(pool.try_submit(Box::new(|| {})).is_err(), "post-drain refused");
        pool.drain(); // idempotent
    }
}
