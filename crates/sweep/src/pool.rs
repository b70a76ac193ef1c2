//! A long-lived worker pool for daemon-style hosts.
//!
//! [`crate::run_jobs`] is deliberately a *batch* primitive: scoped
//! threads, non-`'static` closures, and a barrier at the end — perfect
//! for a sweep that knows its whole work list up front, useless for a
//! server that accepts work forever. [`WorkerPool`] is the complement:
//! a fixed set of named OS threads that execute `'static` closures
//! submitted over time, drain whatever is queued when the pool is
//! dropped, and never let one panicking job take the process down.
//!
//! Cooperative cancellation rides along as [`CancelToken`]: a cheap
//! cloneable flag a host hands to long-running work so it can stop
//! between units (a job server cancelling a queued or running job, a
//! runner loop noticing shutdown). The pool itself never forces a
//! thread to stop — simulation runs are finite, so polling the token at
//! natural boundaries is always enough.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// A cloneable cooperative-cancellation flag.
///
/// All clones observe the same state; [`cancel`](CancelToken::cancel)
/// is idempotent and never un-sets. Work that holds a token checks
/// [`is_cancelled`](CancelToken::is_cancelled) at its own boundaries —
/// nothing is interrupted preemptively.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flip the token; every clone sees it. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](CancelToken::cancel) has been called on any
    /// clone of this token.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-width pool of named worker threads executing submitted
/// closures.
///
/// Jobs run in submission order per the shared queue (which thread
/// picks a job up is scheduling, not semantics — determinism lives
/// inside each simulation, exactly as with [`crate::run_jobs`]). A
/// panicking job is caught and counted; the pool keeps serving. On drop
/// the queue is closed, already-submitted jobs finish, and the threads
/// are joined.
pub struct WorkerPool {
    tx: Option<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    panics: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawn `threads` workers (at least one) named `<name>-0`,
    /// `<name>-1`, …
    pub fn new(name: &str, threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let panics = Arc::new(AtomicU64::new(0));
        let handles = (0..threads)
            .map(|i| {
                let rx = rx.clone();
                let panics = panics.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only for the recv pop, not while
                        // running the job, or the pool would serialise.
                        let job = match rx.lock().expect("pool queue poisoned").recv() {
                            Ok(job) => job,
                            Err(_) => return, // pool dropped and queue drained
                        };
                        if catch_unwind(AssertUnwindSafe(job)).is_err() {
                            panics.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { tx: Some(tx), handles, panics }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Queue `job` for execution on some worker.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool already shut down")
            .send(Box::new(job))
            .expect("pool workers gone");
    }

    /// Close the queue, run every already-submitted job, and join the
    /// workers. Returns the number of jobs that panicked. Equivalent to
    /// dropping the pool, but reports.
    pub fn join(mut self) -> u64 {
        self.shutdown();
        self.panics.load(Ordering::Relaxed)
    }

    fn shutdown(&mut self) {
        drop(self.tx.take());
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use super::*;

    #[test]
    fn executes_every_submitted_job() {
        let pool = WorkerPool::new("t", 4);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let hits = hits.clone();
            pool.submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(pool.join(), 0);
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn drop_drains_the_queue() {
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new("t", 2);
            for _ in 0..32 {
                let hits = hits.clone();
                pool.submit(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool() {
        let pool = WorkerPool::new("t", 2);
        let hits = Arc::new(AtomicUsize::new(0));
        pool.submit(|| panic!("job blew up"));
        for _ in 0..10 {
            let hits = hits.clone();
            pool.submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(pool.join(), 1);
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn at_least_one_thread() {
        let pool = WorkerPool::new("t", 0);
        assert_eq!(pool.threads(), 1);
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = ran.clone();
        pool.submit(move || r2.store(true, Ordering::Relaxed));
        pool.join();
        assert!(ran.load(Ordering::Relaxed));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn cancel_token_stops_a_runner_loop() {
        let pool = WorkerPool::new("t", 1);
        let token = CancelToken::new();
        let steps = Arc::new(AtomicUsize::new(0));
        let (t2, s2) = (token.clone(), steps.clone());
        pool.submit(move || {
            while !t2.is_cancelled() {
                s2.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
            }
        });
        while steps.load(Ordering::Relaxed) < 10 {
            std::thread::yield_now();
        }
        token.cancel();
        pool.join(); // returns: the loop observed the token
    }
}
