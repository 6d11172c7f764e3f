//! Work-stealing scoped-thread executor for the experiment pipeline.
//!
//! The paper's evaluation is dozens of independent per-fold model fits
//! (Tables IV–IX), which are embarrassingly parallel. This crate
//! provides the one primitive the pipeline needs — an order-preserving
//! [`Executor::map`] — built on `std::thread::scope` with per-worker
//! deques and work stealing, and no dependencies (the build
//! environment is offline).
//!
//! **Determinism:** `map` returns results indexed by input position,
//! never by completion order, so as long as each closure call is
//! deterministic in `(index, item)`, the output is bit-identical at
//! any thread count — including 1, where the items run inline on the
//! caller's thread. Callers derive per-item RNG streams from a master
//! seed plus the index (see `elev_core::experiments`), never from
//! shared mutable state.
//!
//! Thread count resolves from the `ELEV_THREADS` environment variable
//! (falling back to `std::thread::available_parallelism`), and nested
//! executors share that one budget: [`Executor::from_env`] inside a
//! map gets the budget divided by the fan-out it runs under, so a sweep
//! whose tasks map over folds whose tasks map over trees never runs
//! more than `ELEV_THREADS` innermost tasks at once. Construct with
//! [`Executor::new`] to pin the width explicitly, e.g. in determinism
//! tests that compare 1-thread and 4-thread runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;

thread_local! {
    /// How many sibling workers share the machine with this thread:
    /// the product of the worker counts of every enclosing
    /// [`Executor::map`] fan-out. 1 on threads outside any executor.
    static FANOUT: Cell<usize> = const { Cell::new(1) };
}

/// The number of executor workers the current thread is one of — the
/// product of the fan-out widths of every enclosing [`Executor::map`].
/// Returns 1 outside any executor (or on an inline, single-worker map).
pub fn current_fanout() -> usize {
    FANOUT.with(Cell::get).max(1)
}

/// Splits a total thread budget across the current fan-out level:
/// `max(1, budget / current_fanout())`. An experiment sweep running on
/// `W` outer workers leaves each of them `budget / W` inner threads, so
/// two-level parallelism (sweep × intra-model) never oversubscribes.
pub fn inner_threads(budget: usize) -> usize {
    (budget / current_fanout()).max(1)
}

/// Derives an independent per-item RNG seed from a master seed.
///
/// SplitMix64 finalizer over `master + (index + 1)·φ64` — the standard
/// stream-splitting recipe. Callers seed per-fold / per-item generators
/// with `mix_seed(master, i)` instead of sharing one sequential stream,
/// which is what makes results independent of execution order and
/// therefore identical at any thread count.
pub fn mix_seed(master: u64, index: u64) -> u64 {
    let mut z = master.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Reads a positive-integer worker budget from environment variable
/// `var`, falling back to `default()` when unset, unparsable, or zero.
///
/// This is the one knob-resolution path every long-lived pool in the
/// workspace shares: `ELEV_THREADS` (the executor) and
/// `ELEV_SERVE_WORKERS` (the inference server's connection workers)
/// both spell "a positive count, or the default".
pub fn env_budget(var: &str, default: impl FnOnce() -> usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(default)
}

/// Resolves the configured worker count: `ELEV_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism.
pub fn threads_from_env() -> usize {
    env_budget("ELEV_THREADS", || {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// A fixed-width work-stealing executor.
///
/// Cheap to construct (no persistent pool): each [`map`](Self::map)
/// call spawns scoped workers that die when the call returns, so
/// nested use — an experiment sweep mapping over settings whose
/// closures map over folds — composes without deadlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with exactly `threads` workers (min 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// An executor sized by the [`threads_from_env`] budget, split
    /// across the fan-out it runs under ([`inner_threads`]): the whole
    /// budget on a thread outside any executor, `budget / W` on one of
    /// `W` workers.
    pub fn from_env() -> Self {
        Self::new(inner_threads(threads_from_env()))
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning results in
    /// input order.
    ///
    /// Work distribution: item indices are dealt round-robin into one
    /// deque per worker; a worker pops from the front of its own deque
    /// and steals from the back of a victim's when it runs dry. With
    /// one worker (or one item) everything runs inline on the calling
    /// thread.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`. When one task can take down a whole
    /// batch run this is the wrong primitive — use
    /// [`try_map`](Self::try_map), which isolates each task's panic.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_with(items, || (), |_, i, t| f(i, t))
    }

    /// Like [`map`](Self::map), but threads a per-worker scratch state
    /// through the tasks: each worker calls `init()` exactly once and
    /// passes the resulting value, by `&mut`, to every task it runs.
    ///
    /// This is the right primitive for streaming scans where each task
    /// needs a reusable buffer (a decode scratch, a file-read buffer)
    /// that is expensive to build per item: the scratch amortizes over
    /// the worker's whole share of the input. Determinism contract:
    /// the scratch must be *scratch* — `f`'s result must depend only on
    /// `(index, item)`, never on which tasks previously borrowed the
    /// state — and then the output is bit-identical at any thread
    /// count, exactly like `map`.
    ///
    /// # Panics
    ///
    /// Propagates panics from `init` and `f`.
    pub fn map_with<T, R, S, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            let mut state = init();
            return items.iter().enumerate().map(|(i, t)| f(&mut state, i, t)).collect();
        }

        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..n).step_by(workers).collect()))
            .collect();
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        // Each worker is one of `workers` siblings at this level, times
        // however many siblings the *calling* thread already had — the
        // figure `inner_threads` divides the budget by.
        let child_fanout = current_fanout().saturating_mul(workers);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let tx = tx.clone();
                    let queues = &queues;
                    let init = &init;
                    let f = &f;
                    scope.spawn(move || {
                        FANOUT.with(|c| c.set(child_fanout));
                        let mut state = init();
                        while let Some(i) = next_task(queues, w) {
                            // Send failure means the collector is gone,
                            // i.e. a sibling panicked; stop quietly and
                            // let the scope propagate that panic.
                            if tx.send((i, f(&mut state, i, &items[i]))).is_err() {
                                return;
                            }
                        }
                    })
                })
                .collect();
            drop(tx);

            let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
            for (i, r) in rx {
                out[i] = Some(r);
            }
            // Join every worker thread before returning. The scope alone
            // only waits for the closures to finish, so a worker can still
            // be exiting, and still hold its malloc arena, when the next
            // call spawns workers; those then open fresh arenas, and how
            // much memory the process keeps would depend on thread timing.
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            out.into_iter()
                .map(|slot| slot.expect("every index produced exactly one result"))
                .collect()
        })
    }

    /// Like [`map`](Self::map), but isolates panics: each task runs
    /// under [`std::panic::catch_unwind`], a panicking task yields
    /// `Err(TaskPanic)` in its slot, and every other task still runs
    /// to completion and returns its result.
    ///
    /// Because results are slotted by input index and the panic message
    /// is a pure function of the task, the returned vector is identical
    /// at any thread count — including which tasks failed and with what
    /// message. Worker threads never unwind (the catch happens inside
    /// the task closure), so no queue lock is ever poisoned and the
    /// executor remains reusable after failures.
    pub fn try_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, TaskPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map(items, |i, item| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, item)))
                .map_err(|payload| TaskPanic { index: i, message: panic_message(payload.as_ref()) })
        })
    }
}

/// A task that panicked inside [`Executor::try_map`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Input index of the failed task.
    pub index: usize,
    /// The panic payload, rendered to text (`"<non-string panic>"` for
    /// exotic payload types).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_owned()
    }
}

/// Pops the worker's own front task, stealing a victim's back task
/// when the local deque is empty. `None` ends the worker: the task set
/// is fixed up front, so a fully drained sweep means no work remains.
fn next_task(queues: &[Mutex<VecDeque<usize>>], own: usize) -> Option<usize> {
    if let Some(i) = queues[own].lock().expect("queue lock").pop_front() {
        return Some(i);
    }
    for offset in 1..queues.len() {
        let victim = (own + offset) % queues.len();
        if let Some(i) = queues[victim].lock().expect("queue lock").pop_back() {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_order() {
        for threads in [1, 2, 4, 7] {
            let exec = Executor::new(threads);
            let items: Vec<usize> = (0..100).collect();
            let out = exec.map(&items, |i, &x| i * 1000 + x);
            let expect: Vec<usize> = (0..100).map(|i| i * 1000 + i).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let items: Vec<u64> = (0..37).collect();
        let compute = |i: usize, &x: &u64| -> u64 {
            // Deterministic in (index, item) only.
            (x.wrapping_mul(0x9E3779B97F4A7C15)) ^ (i as u64)
        };
        let base = Executor::new(1).map(&items, compute);
        for threads in [2, 3, 4, 8] {
            assert_eq!(Executor::new(threads).map(&items, compute), base);
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..512).collect();
        let out = Executor::new(4).map(&items, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 512);
        assert_eq!(counter.load(Ordering::Relaxed), 512);
    }

    #[test]
    fn nested_maps_compose() {
        let outer: Vec<usize> = (0..6).collect();
        let exec = Executor::new(3);
        let out = exec.map(&outer, |_, &row| {
            let inner: Vec<usize> = (0..8).collect();
            exec.map(&inner, |_, &col| row * 10 + col).iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..6).map(|r| (0..8).map(|c| r * 10 + c).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_and_single_inputs() {
        let exec = Executor::new(4);
        assert_eq!(exec.map(&[] as &[u8], |_, &b| b), Vec::<u8>::new());
        assert_eq!(exec.map(&[9u8], |i, &b| (i, b)), vec![(0, 9)]);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            Executor::new(4).map(&(0..64).collect::<Vec<_>>(), |_, &x: &i32| {
                if x == 33 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn map_with_matches_map_at_any_thread_count() {
        let items: Vec<u64> = (0..53).collect();
        let compute = |i: usize, x: u64| (x.wrapping_mul(0x9E3779B97F4A7C15)) ^ (i as u64);
        let base = Executor::new(1).map(&items, |i, &x| compute(i, x));
        for threads in [1, 2, 3, 4, 8] {
            let out = Executor::new(threads).map_with(
                &items,
                || Vec::<u64>::with_capacity(8),
                |scratch, i, &x| {
                    // The scratch is used but never influences the result.
                    scratch.clear();
                    scratch.push(x);
                    compute(i, scratch[0])
                },
            );
            assert_eq!(out, base, "threads={threads}");
        }
    }

    #[test]
    fn map_with_builds_one_state_per_worker() {
        let inits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..256).collect();
        let out = Executor::new(4).map_with(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |_, i, &x| i as u32 + x,
        );
        assert_eq!(out.len(), 256);
        assert!(inits.load(Ordering::Relaxed) <= 4, "more states than workers");
        assert!(inits.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn workers_have_exited_when_map_returns() {
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static GUARD: OnExit = const { OnExit };
        }
        // `init` runs once on each worker and arms its thread-local
        // guard, whose destructor runs only as the thread exits.
        let items: Vec<u32> = (0..64).collect();
        for round in 1..=50 {
            Executor::new(4).map_with(&items, || GUARD.with(|_| ()), |_, _, &x| x);
            assert_eq!(EXITED.load(Ordering::SeqCst), 4 * round, "round {round}");
        }
    }

    #[test]
    fn mix_seed_separates_streams() {
        let a = mix_seed(42, 0);
        let b = mix_seed(42, 1);
        let c = mix_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, mix_seed(42, 0));
    }

    #[test]
    fn env_threads_parsing() {
        // Only checks the parse contract, not the env itself.
        assert_eq!(Executor::new(0).threads(), 1);
        assert!(threads_from_env() >= 1);
    }

    #[test]
    fn fanout_is_one_outside_executors() {
        assert_eq!(current_fanout(), 1);
        assert_eq!(inner_threads(8), 8);
    }

    #[test]
    fn workers_observe_their_fanout() {
        let items: Vec<usize> = (0..16).collect();
        let fanouts = Executor::new(4).map(&items, |_, _| current_fanout());
        assert!(fanouts.iter().all(|&f| f == 4), "{fanouts:?}");
        // Inline (single-worker) maps run on the caller and keep its fanout.
        let inline = Executor::new(1).map(&items, |_, _| current_fanout());
        assert!(inline.iter().all(|&f| f == 1));
    }

    #[test]
    fn nested_fanout_multiplies_and_budget_divides() {
        let outer: Vec<usize> = (0..4).collect();
        let seen = Executor::new(2).map(&outer, |_, _| {
            let inner_items: Vec<usize> = (0..4).collect();
            let inner = Executor::new(3).map(&inner_items, |_, _| current_fanout());
            (current_fanout(), inner_threads(12), inner)
        });
        for (fanout, budget, inner) in seen {
            assert_eq!(fanout, 2);
            assert_eq!(budget, 6); // 12 threads across 2 outer workers
            assert!(inner.iter().all(|&f| f == 6), "{inner:?}");
        }
        // Back on the caller after the scope: fanout restored.
        assert_eq!(current_fanout(), 1);
    }

    #[test]
    fn inner_threads_never_zero() {
        let items = [(); 3];
        let floors = Executor::new(8).map(&items, |_, _| inner_threads(2));
        assert!(floors.iter().all(|&f| f == 1));
    }
}
