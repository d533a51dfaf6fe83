//! Bounded fine-grained task scheduler for the experiment harness.
//!
//! The harness used to spawn one OS thread per application (unbounded in
//! the matrix size). This crate replaces that with a process-wide *spawn
//! budget*: [`parallel_map`] drains a shared queue of individual tasks with
//! at most [`num_threads`] worker threads alive across the whole process,
//! and the calling thread always participates (work-helping), so nested
//! `parallel_map` calls are deadlock-free even when the budget is
//! exhausted — they simply degrade to serial execution on the caller.
//! [`parallel_map_within`] is the same executor with a narrower width:
//! the fleet loop runs each generation's tenant jobs through it, capped
//! at its worker count.
//!
//! The thread cap comes from `TWIG_NUM_THREADS`, then `RAYON_NUM_THREADS`
//! (kept for familiarity with rayon-based setups), then the machine's
//! available parallelism.
//!
//! Budget tokens are owned per-worker and returned the moment a worker
//! finds the queue empty — not when the whole `parallel_map` joins — so a
//! concurrent map can scale up while another map's slow last task is
//! still draining.
//!
//! # Examples
//!
//! ```
//! let squares = twig_sched::parallel_map(vec![1u64, 2, 3, 4], |v| v * v);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod checkpoint;
pub mod durable;
pub mod fault;
pub mod supervise;

pub use checkpoint::CheckpointStore;
pub use durable::{
    publish_atomic, publish_atomic_with, recover_dir, Healed, Journaled, LockError, RunLock,
};
pub use fault::{FaultKind, FaultSpec, MutationKind, MutationSpec};
pub use supervise::{
    jittered_backoff_ms, run_supervised, CancelToken, TaskError, TaskPolicy, TaskReport,
};

/// Parses the fault-injection spec of `harness`, so a binary can reject
/// a malformed one as a usage error before anything runs (the
/// process-wide spec panics on first use instead).
///
/// # Errors
///
/// The first malformed clause, prefixed with the variable's name.
pub fn check_injection_specs(harness: &twig_types::HarnessConfig) -> Result<(), String> {
    use twig_types::config::VAR_FAULT_SPEC;
    if let Some(raw) = &harness.fault_spec.value {
        FaultSpec::parse(raw).map_err(|e| format!("{VAR_FAULT_SPEC}: {e}"))?;
    }
    Ok(())
}

/// Maximum number of concurrently working threads (including callers),
/// resolved once per process from the unified harness configuration
/// (`TWIG_NUM_THREADS`, with `RAYON_NUM_THREADS` as a fallback spelling)
/// or the machine's available parallelism.
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        twig_types::HarnessConfig::global()
            .num_threads
            .value
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Process-wide count of *additional* threads that may be spawned
/// (callers always work, so the budget is `num_threads() - 1`).
fn spawn_budget() -> &'static AtomicIsize {
    static BUDGET: OnceLock<AtomicIsize> = OnceLock::new();
    BUDGET.get_or_init(|| AtomicIsize::new(num_threads() as isize - 1))
}

/// One spawn-budget token, owned by one worker thread; returned to the
/// process-wide budget on drop — which happens as soon as that worker
/// finds the queue empty, not when the whole `parallel_map` scope joins.
/// Drop also runs on unwind, so a panicking task never leaks the budget.
struct Token;

impl Drop for Token {
    fn drop(&mut self) {
        spawn_budget().fetch_add(1, Ordering::AcqRel);
    }
}

/// Takes up to `want` tokens from the spawn budget (possibly zero).
fn acquire_tokens(want: usize) -> Vec<Token> {
    let budget = spawn_budget();
    let want = want as isize;
    let mut tokens = Vec::new();
    while (tokens.len() as isize) < want {
        let current = budget.load(Ordering::Relaxed);
        if current <= 0 {
            break;
        }
        let take = current.min(want - tokens.len() as isize);
        if budget
            .compare_exchange(current, current - take, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            tokens.extend((0..take).map(|_| Token));
        }
    }
    tokens
}

/// Applies `f` to every item, in parallel up to the process-wide thread
/// cap, and returns the results **in input order**.
///
/// Individual `(index, item)` tasks are drained from a shared queue, so a
/// long task on one thread never serializes the rest of the batch behind
/// it. Safe to nest: inner calls reuse whatever budget remains and fall
/// back to running on the calling thread.
///
/// # Panics
///
/// If a task panics, the remaining queue is abandoned (fail-fast), the
/// already-running tasks finish, all workers join cleanly, and the *first*
/// panic's payload is re-raised on the calling thread — never on a worker,
/// so a panicking task cannot cross-thread-poison the scope or leak spawn
/// budget. Callers that need per-task quarantine instead of fail-fast
/// wrap each task in [`run_supervised`].
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_within(num_threads(), items, f)
}

/// [`parallel_map`] with at most `width` tasks in flight (the calling
/// thread included, floored at 1), still within the process-wide spawn
/// budget. Width 1 runs every item on the calling thread and takes no
/// budget token.
///
/// # Panics
///
/// As [`parallel_map`]: the first task panic is re-raised on the caller.
pub fn parallel_map_within<T, R, F>(width: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let width = width.clamp(1, n.max(1));
    if width == 1 {
        return items.into_iter().map(f).collect();
    }
    let tokens = acquire_tokens(width - 1);
    if tokens.is_empty() {
        return items.into_iter().map(f).collect();
    }

    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let aborted = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let work = || loop {
        if aborted.load(Ordering::Acquire) {
            break;
        }
        let job = queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .pop_front();
        match job {
            Some((index, item)) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))) {
                    Ok(output) => {
                        *results[index]
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(output);
                    }
                    Err(payload) => {
                        aborted.store(true, Ordering::Release);
                        let mut slot = first_panic
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        break;
                    }
                }
            }
            None => break,
        }
    };

    std::thread::scope(|scope| {
        let work = &work;
        for token in tokens {
            // Each worker owns its token and drops it the moment it runs
            // out of queued work, so a concurrent `parallel_map` can pick
            // the budget up while this scope's slow tail still runs.
            scope.spawn(move || {
                let _token = token;
                work();
            });
        }
        work();
    });

    if let Some(payload) = first_panic
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
    {
        std::panic::resume_unwind(payload);
    }

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .expect("every queued task stores a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::MutexGuard;

    /// Serializes the tests that run an executor, so the budget checks
    /// see no other test's workers.
    pub(crate) fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn full_budget() -> isize {
        num_threads() as isize - 1
    }

    #[test]
    fn preserves_input_order() {
        let _serial = exclusive();
        let out = parallel_map((0..257u64).collect::<Vec<_>>(), |v| v * 3);
        assert_eq!(out, (0..257u64).map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _serial = exclusive();
        assert_eq!(parallel_map(Vec::<u32>::new(), |v| v), Vec::<u32>::new());
        assert_eq!(parallel_map(vec![9u32], |v| v + 1), vec![10]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let _serial = exclusive();
        let counter = AtomicUsize::new(0);
        let out = parallel_map((0..100usize).collect::<Vec<_>>(), |v| {
            counter.fetch_add(1, Ordering::Relaxed);
            v
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out.iter().copied().collect::<HashSet<_>>().len(), 100);
    }

    #[test]
    fn nested_maps_complete_without_deadlock() {
        let _serial = exclusive();
        let out = parallel_map((0..16u64).collect::<Vec<_>>(), |outer| {
            parallel_map((0..16u64).collect::<Vec<_>>(), move |inner| outer * 16 + inner)
                .into_iter()
                .sum::<u64>()
        });
        let expected: Vec<u64> = (0..16u64)
            .map(|outer| (0..16u64).map(|inner| outer * 16 + inner).sum())
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn idle_workers_return_tokens_before_scope_ends() {
        let _serial = exclusive();
        // Needs at least two spawned workers to observe early release.
        if num_threads() < 3 {
            return;
        }
        let full = full_budget();
        let observed = std::sync::atomic::AtomicBool::new(false);
        parallel_map((0..64usize).collect::<Vec<_>>(), |i| {
            if i == 0 {
                // Long-tail task: while it still runs, every token except
                // (at most) the one held by its own worker must come back
                // as the other workers drain the queue and go idle.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while std::time::Instant::now() < deadline {
                    if spawn_budget().load(Ordering::Relaxed) >= full - 1 {
                        observed.store(true, Ordering::Relaxed);
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        });
        assert!(
            observed.load(Ordering::Relaxed),
            "tokens were held until the scope ended"
        );
    }

    #[test]
    fn panic_propagates_to_caller_after_clean_join() {
        let _serial = exclusive();
        let caught = std::panic::catch_unwind(|| {
            parallel_map((0..64u32).collect::<Vec<_>>(), |v| {
                if v == 17 {
                    panic!("task 17 exploded");
                }
                v
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(text.contains("task 17 exploded"), "payload was {text:?}");
        // The budget must be fully restored despite the panic.
        assert_eq!(spawn_budget().load(Ordering::Relaxed), full_budget());
    }

    #[test]
    fn budget_is_restored_after_use() {
        let _serial = exclusive();
        for _ in 0..3 {
            let _ = parallel_map((0..64u32).collect::<Vec<_>>(), |v| v);
        }
        assert_eq!(spawn_budget().load(Ordering::Relaxed), full_budget());
    }

    #[test]
    fn width_one_runs_on_the_caller_without_a_token() {
        let _serial = exclusive();
        let caller = std::thread::current().id();
        let out = parallel_map_within(1, (0..32u32).collect::<Vec<_>>(), |v| {
            assert_eq!(std::thread::current().id(), caller, "item {v} left the caller");
            assert_eq!(spawn_budget().load(Ordering::Relaxed), full_budget());
            v + 1
        });
        assert_eq!(out, (1..33u32).collect::<Vec<_>>());
    }

    #[test]
    fn width_bounds_tasks_in_flight() {
        let _serial = exclusive();
        for width in [2, 3] {
            // Tasks linger until the high-water mark reaches what the
            // width and the budget allow, so an executor that overshot the
            // width would show it.
            let target = width.min(num_threads());
            let in_flight = AtomicUsize::new(0);
            let high_water = AtomicUsize::new(0);
            let out = parallel_map_within(width, (0..24usize).collect::<Vec<_>>(), |v| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
                while high_water.load(Ordering::SeqCst) < target
                    && std::time::Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                v
            });
            assert_eq!(out, (0..24usize).collect::<Vec<_>>());
            assert_eq!(high_water.load(Ordering::SeqCst), target, "width {width}");
            assert_eq!(spawn_budget().load(Ordering::Relaxed), full_budget());
        }
    }
}
