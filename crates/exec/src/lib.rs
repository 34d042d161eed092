//! `qr-exec`: a deterministic, dependency-free parallel execution
//! subsystem on `std::thread::scope`.
//!
//! The parallel workloads of this workspace share one fan-out shape: a
//! list of independent work items whose results must be reduced **in
//! submission order** so the combined output is bit-identical to a
//! sequential run — per-rule trigger enumeration in the chase (every rule
//! sees the same immutable prefix `Ch_{i-1}`) and shard chases in the
//! sharded engine. Rewrite saturation and the serving
//! engine run on the caller thread and take no executor. The toolchain is
//! offline, so rayon is out of reach; an [`Executor`] covers the same
//! ground with scoped threads only:
//!
//! * **chunked work queue** — workers claim contiguous index chunks from a
//!   shared atomic cursor, so load imbalance between items is absorbed
//!   without any per-item locking;
//! * **ordered reduction** — [`Executor::map`] returns results in item
//!   order regardless of which worker computed what, so callers replay
//!   the exact sequential merge;
//! * **panic propagation** — a panic on any worker is re-raised on the
//!   caller with its original payload once all workers have stopped;
//! * **configuration** — [`Executor::with_threads`] sets the thread
//!   count explicitly; [`Executor::from_env`] reads the `QR_THREADS`
//!   environment variable, falling back to
//!   [`std::thread::available_parallelism`].
//!
//! With one thread every primitive runs inline on the caller — no threads
//! are spawned, no locks are taken — which is what makes `--threads 1`
//! byte-identical to the historical sequential engines *by construction*
//! rather than by test.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Name of the environment variable overriding the default thread count.
pub const THREADS_ENV: &str = "QR_THREADS";

fn threads_from_env() -> Option<usize> {
    let raw = std::env::var(THREADS_ENV).ok()?;
    match raw.trim().parse::<usize>() {
        Ok(n) => Some(n.max(1)),
        Err(_) => None,
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A reusable handle for running deterministic parallel jobs.
///
/// The executor holds configuration only — worker threads are scoped to
/// each call (`std::thread::scope`), so an `Executor` is `Copy`, needs no
/// shutdown, and borrows freely from the caller's stack.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

impl Executor {
    /// An executor that runs everything inline on the caller thread.
    pub fn sequential() -> Executor {
        Executor { threads: 1 }
    }

    /// An executor configured from the environment: `QR_THREADS` if set,
    /// otherwise the machine's available parallelism.
    pub fn from_env() -> Executor {
        Executor {
            threads: threads_from_env().unwrap_or_else(default_parallelism),
        }
    }

    /// An executor with exactly `n` workers (clamped to at least 1).
    pub fn with_threads(n: usize) -> Executor {
        Executor { threads: n.max(1) }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` iff this executor runs inline (one worker).
    pub fn is_sequential(&self) -> bool {
        self.threads <= 1
    }

    /// Applies `f` to every item and returns the results **in item order**
    /// (the ordered reduction half of the determinism contract: the caller
    /// can fold the returned vector exactly as a sequential loop would).
    ///
    /// `f` must be deterministic per item for the whole job to be
    /// deterministic; it may be called from any worker, in any temporal
    /// order, but each `items[i]` is evaluated exactly once.
    pub fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        self.map_indexed(items, |_, item| f(item))
    }

    /// [`map`](Executor::map) with the item index passed to the worker.
    fn map_indexed<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        let n = items.len();
        if self.is_sequential() || n <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let workers = self.threads.min(n);
        let chunk = chunk_size(n, workers);
        let cursor = AtomicUsize::new(0);
        let slots = Mutex::new(Vec::with_capacity(n));
        run_workers(workers, || {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for (i, item) in items.iter().enumerate().take(end).skip(start) {
                    local.push((i, f(i, item)));
                }
            }
            let mut slots = slots.lock().unwrap_or_else(|e| e.into_inner());
            slots.extend(local);
        });
        let mut pairs = slots.into_inner().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(pairs.len(), n, "every item is computed exactly once");
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }

    /// [`map`](Executor::map) with weight-aware scheduling: items are
    /// *claimed* heaviest-first (longest-processing-time order, one item
    /// per claim), which bounds the makespan of skewed workloads — e.g.
    /// chase shards whose sizes differ by orders of magnitude — without
    /// affecting the result, which is still returned **in item order**.
    /// `weight` need only be a relative estimate; ties claim in item
    /// order, so scheduling is deterministic up to thread timing and the
    /// output is deterministic, period.
    pub fn map_weighted<T: Sync, R: Send>(
        &self,
        items: &[T],
        weight: impl Fn(&T) -> u64,
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        let n = items.len();
        if self.is_sequential() || n <= 1 {
            return items.iter().map(&f).collect();
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(weight(&items[i])), i));
        let workers = self.threads.min(n);
        let cursor = AtomicUsize::new(0);
        let slots = Mutex::new(Vec::with_capacity(n));
        run_workers(workers, || {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let pos = cursor.fetch_add(1, Ordering::Relaxed);
                if pos >= n {
                    break;
                }
                let i = order[pos];
                local.push((i, f(&items[i])));
            }
            let mut slots = slots.lock().unwrap_or_else(|e| e.into_inner());
            slots.extend(local);
        });
        let mut pairs = slots.into_inner().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(pairs.len(), n, "every item is computed exactly once");
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }
}

/// Chunk size for `n` items over `workers` workers: about four claims per
/// worker, so stragglers are rebalanced without hammering the cursor.
fn chunk_size(n: usize, workers: usize) -> usize {
    n.div_ceil(workers * 4).max(1)
}

/// Runs `job` on `workers` scoped threads and joins them all, re-raising
/// the first panic payload on the caller after every worker has stopped.
fn run_workers(workers: usize, job: impl Fn() + Sync) {
    let mut first_panic = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| catch_unwind(AssertUnwindSafe(&job))))
            .collect();
        for handle in handles {
            let joined = handle.join().unwrap_or_else(Err);
            if let Err(payload) = joined {
                first_panic.get_or_insert(payload);
            }
        }
    });
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_threads_are_clamped_to_one() {
        assert_eq!(Executor::with_threads(0).threads(), 1);
        assert_eq!(Executor::with_threads(7).threads(), 7);
        assert!(Executor::sequential().is_sequential());
    }

    #[test]
    fn from_env_defaults_to_available_parallelism() {
        // QR_THREADS is unset in the test environment, so the default is
        // the machine's parallelism (>= 1 by construction).
        if std::env::var(THREADS_ENV).is_err() {
            assert_eq!(Executor::from_env().threads(), default_parallelism());
        }
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 4, 9] {
            let exec = Executor::with_threads(threads);
            let out = exec.map(&items, |&x| x * x);
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_indexed_sees_true_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let exec = Executor::with_threads(3);
        let out = exec.map_indexed(&items, |i, s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    fn map_weighted_preserves_item_order() {
        let items: Vec<u64> = (0..500).map(|i| (i * 7919) % 257).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        for threads in [1, 2, 4, 9] {
            let exec = Executor::with_threads(threads);
            let out = exec.map_weighted(&items, |&w| w, |&x| x * 3);
            assert_eq!(out, seq, "@{threads}");
        }
        let exec = Executor::with_threads(4);
        assert!(exec.map_weighted(&[] as &[u8], |_| 0, |_| 0u8).is_empty());
        assert_eq!(exec.map_weighted(&[41u8], |_| 9, |&x| x + 1), vec![42]);
    }

    #[test]
    fn map_weighted_computes_each_item_once() {
        let items: Vec<u64> = (0..97).collect();
        let counter = AtomicUsize::new(0);
        let exec = Executor::with_threads(3);
        let out = exec.map_weighted(
            &items,
            |&w| w,
            |&x| {
                counter.fetch_add(1, Ordering::Relaxed);
                x
            },
        );
        assert_eq!(counter.into_inner(), items.len());
        assert_eq!(out, items);
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let exec = Executor::with_threads(4);
        assert!(exec.map(&[] as &[u8], |_| 0u8).is_empty());
        assert_eq!(exec.map(&[41u8], |&x| x + 1), vec![42]);
    }

    #[test]
    fn worker_panics_propagate_with_payload() {
        let items: Vec<usize> = (0..64).collect();
        let exec = Executor::with_threads(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.map(&items, |&x| {
                if x == 33 {
                    panic!("boom at {x}");
                }
                x
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 33"), "original payload kept: {msg}");
    }

    #[test]
    fn uneven_work_is_rebalanced() {
        // Heavy items at the front; ordered output must be unaffected.
        let items: Vec<u64> = (0..200).map(|i| if i < 4 { 200_000 } else { 10 }).collect();
        let spin = |n: u64| -> u64 { (0..n).fold(0, |a, b| a ^ b.wrapping_mul(31)) };
        let exec = Executor::with_threads(4);
        let par = exec.map(&items, |&n| spin(n));
        let seq: Vec<u64> = items.iter().map(|&n| spin(n)).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn chunking_covers_every_item_exactly_once() {
        let items: Vec<usize> = (0..4097).collect();
        let counter = AtomicUsize::new(0);
        let exec = Executor::with_threads(8);
        let out = exec.map(&items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.into_inner(), items.len());
        assert_eq!(out, items);
    }
}
