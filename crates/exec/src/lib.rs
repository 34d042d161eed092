//! `qr-exec`: a deterministic, dependency-free parallel execution
//! subsystem on `std::thread::scope`.
//!
//! The workloads of this workspace share one fan-out shape: a list of
//! independent work items whose results must be reduced **in submission
//! order** so the combined output is bit-identical to a sequential run —
//! per-rule trigger enumeration in the chase (every rule sees the same
//! immutable prefix `Ch_{i-1}`), piece-rewriting candidate generation over
//! a saturation frontier, and disjunct-vs-set containment sweeps. The
//! toolchain is offline, so rayon is out of reach; an [`Executor`] covers
//! the same ground with scoped threads only:
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

use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

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

    /// `true` iff `pred` holds for some item. The predicate must be pure:
    /// the *result* is deterministic (a disjunction is order-independent),
    /// though which items are inspected after a hit is not — workers stop
    /// claiming chunks once a witness is found.
    pub fn any<T: Sync>(&self, items: &[T], pred: impl Fn(&T) -> bool + Sync) -> bool {
        let n = items.len();
        if self.is_sequential() || n <= 1 {
            return items.iter().any(pred);
        }
        let workers = self.threads.min(n);
        let chunk = chunk_size(n, workers);
        let cursor = AtomicUsize::new(0);
        let found = AtomicBool::new(false);
        run_workers(workers, || {
            while !found.load(Ordering::Relaxed) {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for item in &items[start..end] {
                    if pred(item) {
                        found.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            }
        });
        found.into_inner()
    }

    /// Two-stage pipeline with an **ordered merge**: `work` runs on the
    /// worker pool, speculatively and out of order, while the caller thread
    /// merges each item's result in exact submission order. `merge` may
    /// submit follow-up items through its [`PipelineCtx`]; they join the
    /// back of the queue, so the merge order is the FIFO order a sequential
    /// loop would produce. Returning [`ControlFlow::Break`] stops the
    /// pipeline; results already computed for unmerged items are discarded.
    ///
    /// Determinism contract: `work` must be a pure per-item function. All
    /// *decisions* (what to keep, what to submit, when to stop) happen in
    /// `merge`, which observes items strictly in submission order — so the
    /// pipeline's observable behaviour is identical to running
    /// `work`-then-`merge` inline per item, at every thread count. The only
    /// things that vary with the schedule are wall times, surfaced as
    /// [`PipelineCtx::waited`] (how long the merge was without the current
    /// item's `work` result; with one thread this is the full work time,
    /// since work runs inline) and [`PipelineCtx::helped`] (how much of
    /// that interval was spent computing the result inline — the merge
    /// thread steals the task it is waiting on when no worker has claimed
    /// it yet, rather than sleeping through a cross-thread round trip).
    ///
    /// With `n` threads, `n - 1` workers generate while the caller merges;
    /// one thread runs everything inline.
    pub fn pipeline_ordered<T, R>(
        &self,
        seeds: Vec<T>,
        work: impl Fn(&T) -> R + Sync,
        mut merge: impl FnMut(T, R, &mut PipelineCtx<T>) -> ControlFlow<()>,
    ) where
        T: Clone + Send + Sync,
        R: Send,
    {
        if self.is_sequential() {
            let mut pending: VecDeque<T> = seeds.into();
            while let Some(item) = pending.pop_front() {
                let t0 = Instant::now();
                let result = work(&item);
                let waited = t0.elapsed();
                let mut ctx = PipelineCtx {
                    emits: Vec::new(),
                    waited,
                    helped: waited,
                };
                let flow = merge(item, result, &mut ctx);
                pending.extend(ctx.emits);
                if flow.is_break() {
                    return;
                }
            }
            return;
        }

        let shared = PipelineShared::<T, R> {
            tasks: Mutex::new(TaskState {
                queue: VecDeque::new(),
                done: false,
            }),
            task_cv: Condvar::new(),
            results: Mutex::new(HashMap::new()),
            result_cv: Condvar::new(),
            failed: AtomicBool::new(false),
        };
        // Items awaiting their merge, in submission order, paired with the
        // sequence number their speculative result is filed under.
        let mut pending: VecDeque<(usize, T)> = VecDeque::new();
        let mut next_seq = 0usize;
        {
            let mut tasks = shared.lock_tasks();
            for item in seeds {
                tasks.queue.push_back((next_seq, item.clone()));
                pending.push_back((next_seq, item));
                next_seq += 1;
            }
        }

        let workers = self.threads - 1;
        let mut first_panic = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| shared.run_worker(&work)))
                .collect();
            shared.task_cv.notify_all();

            // The merge loop must not unwind past the scope without
            // releasing the workers, or they would wait on the task queue
            // forever and the scope would never join.
            let merged = catch_unwind(AssertUnwindSafe(|| {
                'merge: while let Some((seq, item)) = pending.pop_front() {
                    let t0 = Instant::now();
                    let mut helped = Duration::ZERO;
                    let result = 'result: {
                        loop {
                            if shared.failed.load(Ordering::Acquire) {
                                break 'merge;
                            }
                            if let Some(r) = shared.lock_results().remove(&seq) {
                                break 'result r;
                            }
                            // Head-of-line steal: if no worker has claimed
                            // this item's task yet, run it inline instead of
                            // sleeping on it. On chain-shaped frontiers
                            // (every window one item) this degenerates the
                            // pipeline into the sequential inline loop
                            // rather than paying a cross-thread round trip
                            // per item; with real fan-out it only fires when
                            // every worker is busy on later speculative
                            // items, where it strictly cuts the head
                            // latency. Removal under the tasks lock means a
                            // task runs exactly once, and since `work` is
                            // pure, where it runs is unobservable.
                            let stolen = {
                                let mut tasks = shared.lock_tasks();
                                tasks
                                    .queue
                                    .iter()
                                    .position(|(s, _)| *s == seq)
                                    .and_then(|pos| tasks.queue.remove(pos))
                            };
                            if let Some((_, task)) = stolen {
                                let h0 = Instant::now();
                                let r = work(&task);
                                helped = h0.elapsed();
                                break 'result r;
                            }
                            let mut results = shared.lock_results();
                            if let Some(r) = results.remove(&seq) {
                                break 'result r;
                            }
                            drop(
                                shared
                                    .result_cv
                                    .wait(results)
                                    .unwrap_or_else(|e| e.into_inner()),
                            );
                        }
                    };
                    let mut ctx = PipelineCtx {
                        emits: Vec::new(),
                        waited: t0.elapsed(),
                        helped,
                    };
                    let flow = merge(item, result, &mut ctx);
                    if !ctx.emits.is_empty() {
                        // When the merge has nothing pending, the first
                        // emitted item is the very next one it will merge —
                        // reserve it (skip its wakeup) so the head-of-line
                        // steal below wins the race instead of paying a
                        // worker round trip per item on chain-shaped
                        // frontiers. Parked workers are only skipped for
                        // that one task; busy workers pop the queue without
                        // needing a notification, and the merge is
                        // guaranteed to reach the reserved task's steal
                        // check because it is the head of `pending`.
                        let reserve_head = pending.is_empty();
                        let mut tasks = shared.lock_tasks();
                        for (j, item) in ctx.emits.into_iter().enumerate() {
                            tasks.queue.push_back((next_seq, item.clone()));
                            pending.push_back((next_seq, item));
                            next_seq += 1;
                            if !(reserve_head && j == 0) {
                                shared.task_cv.notify_one();
                            }
                        }
                    }
                    if flow.is_break() {
                        break;
                    }
                }
            }));
            shared.lock_tasks().done = true;
            shared.task_cv.notify_all();
            if let Err(payload) = merged {
                first_panic.get_or_insert(payload);
            }
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
}

/// Merge-side handle of [`Executor::pipeline_ordered`]: lets the merge
/// submit follow-up work and see how long it stalled for the current
/// item's result.
pub struct PipelineCtx<T> {
    emits: Vec<T>,
    waited: Duration,
    helped: Duration,
}

impl<T> PipelineCtx<T> {
    /// Submits a follow-up item to the back of the pipeline's queue.
    pub fn submit(&mut self, item: T) {
        self.emits.push(item);
    }

    /// How long the caller thread spent between becoming ready for the
    /// current item and having its stage-one result in hand (zero when
    /// speculation fully hid the work; the whole work time when running
    /// inline on one thread). [`PipelineCtx::helped`] is the sub-interval
    /// that was inline work rather than idle blocking, so
    /// `waited - helped` is the pure stall.
    pub fn waited(&self) -> Duration {
        self.waited
    }

    /// How much of [`PipelineCtx::waited`] the caller thread spent running
    /// the item's own stage-one work inline — the whole work time on one
    /// thread, the head-of-line steal time otherwise, zero when a worker
    /// computed the result.
    pub fn helped(&self) -> Duration {
        self.helped
    }
}

struct TaskState<T> {
    queue: VecDeque<(usize, T)>,
    done: bool,
}

struct PipelineShared<T, R> {
    tasks: Mutex<TaskState<T>>,
    task_cv: Condvar,
    results: Mutex<HashMap<usize, R>>,
    result_cv: Condvar,
    failed: AtomicBool,
}

impl<T, R> PipelineShared<T, R> {
    fn lock_tasks(&self) -> std::sync::MutexGuard<'_, TaskState<T>> {
        self.tasks.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_results(&self) -> std::sync::MutexGuard<'_, HashMap<usize, R>> {
        self.results.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Worker loop: claim the oldest queued item, compute, file the result
    /// under its sequence number. On panic the payload is captured for the
    /// scope join and the merge thread is woken so it can stop waiting.
    fn run_worker(&self, work: &(impl Fn(&T) -> R + Sync)) -> std::thread::Result<()> {
        let out = catch_unwind(AssertUnwindSafe(|| loop {
            let (seq, item) = {
                let mut tasks = self.lock_tasks();
                loop {
                    if tasks.done {
                        return;
                    }
                    if let Some(t) = tasks.queue.pop_front() {
                        break t;
                    }
                    tasks = self.task_cv.wait(tasks).unwrap_or_else(|e| e.into_inner());
                }
            };
            let result = work(&item);
            self.lock_results().insert(seq, result);
            self.result_cv.notify_all();
        }));
        if out.is_err() {
            self.failed.store(true, Ordering::Release);
            self.result_cv.notify_all();
            self.task_cv.notify_all();
        }
        out
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
    fn any_is_exact() {
        let items: Vec<usize> = (0..10_000).collect();
        for threads in [1, 2, 4] {
            let exec = Executor::with_threads(threads);
            assert!(exec.any(&items, |&x| x == 9_999));
            assert!(!exec.any(&items, |&x| x > 9_999));
            assert!(!exec.any(&[] as &[usize], |_| true));
        }
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

    /// Runs a little breadth-first expansion over the pipeline: each value
    /// below `limit` emits two children; the merge records visit order.
    fn pipeline_bfs(exec: &Executor, limit: u64) -> Vec<u64> {
        let mut order = Vec::new();
        exec.pipeline_ordered(
            vec![1u64],
            |&x| x * 2,
            |item, doubled, ctx| {
                order.push(item);
                if doubled < limit {
                    ctx.submit(doubled);
                    ctx.submit(doubled + 1);
                }
                ControlFlow::Continue(())
            },
        );
        order
    }

    #[test]
    fn pipeline_merges_in_submission_order_at_every_thread_count() {
        let seq = pipeline_bfs(&Executor::sequential(), 64);
        assert_eq!(&seq[..3], &[1, 2, 3]);
        assert!(seq.len() > 20);
        for threads in [2, 4, 9] {
            assert_eq!(
                pipeline_bfs(&Executor::with_threads(threads), 64),
                seq,
                "@{threads}"
            );
        }
    }

    #[test]
    fn pipeline_break_stops_and_discards_speculation() {
        for threads in [1, 2, 4] {
            let exec = Executor::with_threads(threads);
            let mut merged = Vec::new();
            exec.pipeline_ordered(
                (0..100u32).collect(),
                |&x| x + 1,
                |item, r, _ctx| {
                    assert_eq!(r, item + 1);
                    merged.push(item);
                    if item == 9 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(merged, (0..10).collect::<Vec<_>>(), "@{threads}");
        }
    }

    #[test]
    fn pipeline_handles_empty_seeds() {
        for threads in [1, 3] {
            Executor::with_threads(threads).pipeline_ordered(
                Vec::<u8>::new(),
                |_| unreachable!("no items"),
                |_, _: (), _| unreachable!("no items"),
            );
        }
    }

    #[test]
    fn pipeline_worker_panic_propagates() {
        for threads in [1, 4] {
            let exec = Executor::with_threads(threads);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                exec.pipeline_ordered(
                    (0..64u32).collect(),
                    |&x| {
                        if x == 33 {
                            panic!("pipeline boom at {x}");
                        }
                        x
                    },
                    |_, _, _| ControlFlow::Continue(()),
                );
            }));
            let payload = caught.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("pipeline boom at 33"), "@{threads}: {msg}");
        }
    }

    #[test]
    fn pipeline_merge_panic_releases_workers() {
        let exec = Executor::with_threads(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.pipeline_ordered(
                (0..64u32).collect(),
                |&x| x,
                |item, _, _| {
                    if item == 5 {
                        panic!("merge boom");
                    }
                    ControlFlow::Continue(())
                },
            );
        }));
        assert!(caught.is_err(), "merge panic must propagate");
    }

    #[test]
    fn pipeline_waited_is_work_time_when_sequential() {
        let exec = Executor::sequential();
        exec.pipeline_ordered(
            vec![0u8],
            |_| std::thread::sleep(Duration::from_millis(5)),
            |_, _, ctx| {
                assert!(ctx.waited() >= Duration::from_millis(5));
                // Inline work is all help, no idle stall.
                assert_eq!(ctx.helped(), ctx.waited());
                ControlFlow::Continue(())
            },
        );
    }

    #[test]
    fn pipeline_helped_never_exceeds_waited() {
        // Whether a worker computes an item or the merge steals it is a
        // schedule race; what must hold on every schedule is that the
        // inline-help interval is within the overall wait interval and
        // that a steal never duplicates or reorders work.
        for threads in [2, 4] {
            let exec = Executor::with_threads(threads);
            let mut merged = Vec::new();
            exec.pipeline_ordered(
                vec![0u32],
                |&x| {
                    std::thread::sleep(Duration::from_millis(1));
                    x + 1
                },
                |item, r, ctx| {
                    assert_eq!(r, item + 1);
                    assert!(ctx.helped() <= ctx.waited(), "@{threads}");
                    merged.push(item);
                    if item < 16 {
                        ctx.submit(item + 1);
                    }
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(merged, (0..17).collect::<Vec<_>>(), "@{threads}");
        }
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
