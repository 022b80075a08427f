//! The one worker pool, over `std::thread` (the build environment is
//! offline — no rayon). Workers pull from a shared queue, so a slow task
//! does not stall the others. Two ways in:
//!
//! * [`WorkerPool::submit`] — non-blocking, for the sweep service, which
//!   keeps accepting requests while earlier work executes;
//! * [`WorkerPool::batch`] — a blocking map whose results come back *by
//!   item index*, which makes aggregated output independent of worker
//!   count and scheduling order (`sweep --jobs N`, `fuzz --jobs N`).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// The text of a panic payload: the `&str` or `String` that `panic!`
/// carries (and the `String` reason [`crate::Harness::resolve`] fails an
/// unrunnable job with), or a fixed line for any other payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// A persistent worker pool with **non-blocking submission**.
///
/// Tasks are plain closures that own their inputs; ordering guarantees are
/// the *submitter's* responsibility (the service orders by cache key,
/// [`WorkerPool::batch`] by item index). A panicking task is caught and
/// reported, and its worker keeps serving — one poisoned simulation must
/// not wedge the daemon. Dropping the pool closes the queue and joins the
/// workers, finishing whatever was already submitted.
pub struct WorkerPool {
    tx: Option<mpsc::Sender<Box<dyn FnOnce() + Send>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawn `workers` threads (at least one) pulling from a shared queue.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<Box<dyn FnOnce() + Send>>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("simt-pool-{i}"))
                    .spawn(move || loop {
                        // Take the next task under the lock, run it outside.
                        let task = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => break, // lock poisoned: shutting down
                        };
                        let Ok(task) = task else { break };
                        if let Err(p) = catch_unwind(AssertUnwindSafe(task)) {
                            simt_obs::metrics::global().counter_add(
                                "simt_pool_task_panics_total",
                                "Worker-pool tasks that panicked (caught; worker kept serving).",
                                &[],
                                1,
                            );
                            simt_obs::warn!("harness.pool", "pool task panicked";
                                panic = panic_message(&*p));
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            handles,
            workers,
        }
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueue a task and return immediately. Tasks start in submission
    /// order (completion order depends on task cost and worker count).
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) {
        if let Some(tx) = &self.tx {
            // Send fails only after shutdown started; dropping the task is
            // then correct (the submitter is going away too).
            let _ = tx.send(Box::new(task));
        }
    }

    /// Run `f` over `items` on a pool of `workers` threads and return the
    /// results in item order. `workers == 1` (or a single item) is a
    /// plain serial loop on the calling thread — no pool, no channels —
    /// which is the reference ordering the determinism test compares
    /// against.
    ///
    /// # Panics
    ///
    /// Re-raises the first task panic with its original payload (the
    /// simulator uses panics for correctness violations — they must not
    /// be swallowed by the pool, and the message must survive the thread
    /// hop). Items not yet started are abandoned once a task panics.
    pub fn batch<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let workers = workers.min(items.len());
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }
        type Caught<R> = Result<R, Box<dyn Any + Send>>;
        let pool = WorkerPool::new(workers);
        let f = Arc::new(f);
        let abandoned = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<(usize, Caught<R>)>();
        let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
        for (i, item) in items.into_iter().enumerate() {
            let (f, abandoned, tx) = (Arc::clone(&f), Arc::clone(&abandoned), tx.clone());
            pool.submit(move || {
                if abandoned.load(Ordering::Relaxed) {
                    return; // the run is doomed anyway
                }
                let r = catch_unwind(AssertUnwindSafe(|| f(item)));
                if r.is_err() {
                    abandoned.store(true, Ordering::Relaxed);
                }
                let _ = tx.send((i, r));
            });
        }
        drop(tx); // the loop below ends once every task is done
        for (i, r) in rx {
            match r {
                Ok(v) => out[i] = Some(v),
                // Dropping `pool` on the way out joins the workers.
                Err(p) => resume_unwind(p),
            }
        }
        out.into_iter()
            .map(|r| r.expect("pool lost a batch result"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the queue: workers exit when drained
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn worker_pool_runs_all_tasks_and_drains_on_drop() {
        let count = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(4);
        for _ in 0..100 {
            let count = Arc::clone(&count);
            pool.submit(move || {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // joins workers after the queue drains
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn worker_pool_survives_panicking_tasks() {
        let count = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(2);
        for i in 0..20 {
            let count = Arc::clone(&count);
            pool.submit(move || {
                if i % 5 == 0 {
                    panic!("task {i} boom");
                }
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panic_message_reads_every_payload() {
        let text = |p: Box<dyn Any + Send>| panic_message(&*p);
        assert_eq!(text(Box::new("static str")), "static str");
        assert_eq!(text(Box::new(String::from("owned"))), "owned");
        assert_eq!(text(Box::new(7u32)), "non-string panic payload");
        let caught = catch_unwind(|| panic!("formatted {}", 1)).unwrap_err();
        assert_eq!(text(caught), "formatted 1");
    }

    #[test]
    fn batch_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = WorkerPool::batch(1, items.clone(), |x| x * x);
        let parallel = WorkerPool::batch(7, items, |x| x * x);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn batch_runs_every_item_exactly_once() {
        let count = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&count);
        let out = WorkerPool::batch(4, (0..250).collect(), move |i: usize| {
            seen.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 250);
        assert_eq!(out, (0..250).collect::<Vec<_>>());
    }

    #[test]
    fn batch_empty_and_single() {
        assert_eq!(WorkerPool::batch(8, Vec::<u32>::new(), |x| x), vec![]);
        assert_eq!(WorkerPool::batch(8, vec![9], |x: u32| x + 1), vec![10]);
    }

    #[test]
    fn batch_uses_multiple_threads() {
        // With 4 workers and 4 items that each wait for the others, all
        // four must run concurrently or the barrier never opens.
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let out = WorkerPool::batch(4, vec![0u32, 1, 2, 3], move |x| {
            barrier.wait();
            x
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn batch_panics_propagate() {
        let _ = WorkerPool::batch(3, vec![0, 1, 2, 3], |x: u32| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }
}
