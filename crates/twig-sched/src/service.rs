//! Long-running supervised service workers over a bounded queue.
//!
//! [`crate::parallel_map`] is batch-shaped: it spawns for one matrix,
//! joins, and returns. A continuous-PGO service
//! is not a batch — profile chunks stream in for as long as the tenants
//! run, and the loop must apply *backpressure* when aggregation falls
//! behind instead of buffering unboundedly. This module generalizes the
//! scheduler to that shape:
//!
//! * [`BoundedQueue`] — a blocking MPMC queue with a hard capacity.
//!   `push` on a full queue blocks (and counts the wait), which is the
//!   backpressure signal: a producer that outruns the workers slows to
//!   their pace rather than growing the heap.
//! * [`ServicePool`] — `N` long-running OS worker threads draining the
//!   queue for the lifetime of the pool. Workers sit *outside* the
//!   process-wide `parallel_map` spawn budget on purpose: they are the
//!   service, not a transient batch, and must not starve (or be starved
//!   by) batch work sharing the process. Every job body runs under
//!   [`run_supervised`] — panic isolation, watchdog, retry with jittered
//!   backoff — so one poisoned profile chunk cannot take a worker down.
//!
//! Determinism: [`ServicePool::drain`] yields reports in submission
//! order, and job bodies receive nothing except their payload, so a pool
//! with 1 worker and a pool with 8 produce identical results. (The fleet
//! manifest tests pin exactly this property.)

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::supervise::{run_supervised, CancelToken, TaskError, TaskPolicy, TaskReport};

/// A blocking MPMC queue with a hard capacity bound.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    backpressure_waits: AtomicU64,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (floored at 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            backpressure_waits: AtomicU64::new(0),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues `item`, blocking while the queue is full (each blocked
    /// push counts one backpressure wait).
    ///
    /// # Errors
    ///
    /// Returns the item back when the queue is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if state.items.len() >= self.capacity && !state.closed {
            self.backpressure_waits.fetch_add(1, Ordering::Relaxed);
            while state.items.len() >= self.capacity && !state.closed {
                state = self
                    .not_full
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the next item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Closes the queue: pending items still drain, new pushes fail, and
    /// blocked poppers wake up.
    pub fn close(&self) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// How many pushes found the queue full and had to wait — the
    /// backpressure signal. Timing-dependent by nature, so it is reported
    /// to operators (stderr, `ServiceStats`) but never serialized into
    /// deterministic artifacts.
    pub fn backpressure_waits(&self) -> u64 {
        self.backpressure_waits.load(Ordering::Relaxed)
    }
}

/// Cumulative counters for one [`ServicePool`].
#[derive(Clone, Copy, Default, Debug)]
pub struct ServiceStats {
    /// Jobs submitted over the pool's lifetime.
    pub submitted: u64,
    /// Jobs completed (successfully or not).
    pub completed: u64,
    /// Completed jobs whose final result was an error.
    pub failed: u64,
    /// Pushes that blocked on a full queue (see
    /// [`BoundedQueue::backpressure_waits`]).
    pub backpressure_waits: u64,
}

struct Shared<T, R> {
    queue: BoundedQueue<(u64, String, T)>,
    /// Finished reports keyed by submission index, until drained.
    results: Mutex<HashMap<u64, TaskReport<R>>>,
    /// Signalled whenever a report lands in `results`.
    ready: Condvar,
    completed: AtomicU64,
    failed: AtomicU64,
    policy: TaskPolicy,
    #[allow(clippy::type_complexity)]
    handler: Box<dyn Fn(&T, &CancelToken) -> Result<R, TaskError> + Send + Sync>,
}

/// A pool of long-running supervised workers consuming a bounded queue.
///
/// # Examples
///
/// ```
/// use twig_sched::service::ServicePool;
/// use twig_sched::TaskPolicy;
///
/// let policy = TaskPolicy { attempts: 1, backoff_ms: 0, timeout_ms: None };
/// let mut pool = ServicePool::new(2, 4, policy, |job: &u64, _token| Ok(job * job));
/// for v in 0..8u64 {
///     pool.submit(format!("square-{v}"), v);
/// }
/// let results: Vec<u64> = pool.drain().map(|report| report.result.unwrap()).collect();
/// assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// pool.shutdown();
/// ```
pub struct ServicePool<T, R> {
    shared: Arc<Shared<T, R>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    submitted: u64,
    /// Submission index of the next report [`ServicePool::drain`] yields.
    delivered: u64,
}

impl<T: Send + 'static, R: Send + 'static> ServicePool<T, R> {
    /// Starts `workers` threads (floored at 1) over a queue of
    /// `queue_depth` slots. Every job runs under [`run_supervised`] with
    /// `policy`.
    pub fn new<F>(workers: usize, queue_depth: usize, policy: TaskPolicy, handler: F) -> Self
    where
        F: Fn(&T, &CancelToken) -> Result<R, TaskError> + Send + Sync + 'static,
    {
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(queue_depth),
            results: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            policy,
            handler: Box::new(handler),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("twig-service-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        ServicePool {
            shared,
            workers,
            submitted: 0,
            delivered: 0,
        }
    }

    /// Submits one job, blocking when the queue is full (backpressure).
    /// `label` names the job for fault matching and reports.
    pub fn submit(&mut self, label: String, job: T) {
        let index = self.submitted;
        if self.shared.queue.push((index, label, job)).is_err() {
            // shutdown() is the only closer, so this is a
            // use-after-shutdown programming error surfaced loudly.
            panic!("submit on a shut-down ServicePool");
        }
        self.submitted += 1;
    }

    /// Yields the report of every job submitted so far **in submission
    /// order**, each as soon as it and all earlier ones have completed:
    /// the caller can act on job 0 while later jobs are still running.
    /// Reports of jobs that finish early wait in the pool until their
    /// turn. Dropping the iterator early leaves the rest for the next
    /// `drain`.
    pub fn drain(&mut self) -> Drain<'_, T, R> {
        Drain { pool: self }
    }

    /// Lifetime counters (backpressure waits are timing-dependent; see
    /// [`BoundedQueue::backpressure_waits`]).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.submitted,
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            backpressure_waits: self.shared.queue.backpressure_waits(),
        }
    }

    /// Stops the workers: the queue closes, pending jobs finish, threads
    /// join.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<T, R> Drop for ServicePool<T, R> {
    fn drop(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// In-order report stream of [`ServicePool::drain`].
pub struct Drain<'a, T, R> {
    pool: &'a mut ServicePool<T, R>,
}

impl<T, R> Iterator for Drain<'_, T, R> {
    type Item = TaskReport<R>;

    fn next(&mut self) -> Option<TaskReport<R>> {
        let pool = &mut *self.pool;
        if pool.delivered == pool.submitted {
            return None;
        }
        let mut results = pool
            .shared
            .results
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        loop {
            if let Some(report) = results.remove(&pool.delivered) {
                pool.delivered += 1;
                return Some(report);
            }
            results = pool
                .shared
                .ready
                .wait(results)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

fn worker_loop<T, R>(shared: &Shared<T, R>) {
    while let Some((index, label, job)) = shared.queue.pop() {
        let report = run_supervised(&label, index as usize, &shared.policy, |token| {
            (shared.handler)(&job, token)
        });
        // Release the payload before the report becomes visible, so a
        // consumer acting on it holds the only references to whatever
        // the job shared.
        drop(job);
        shared.completed.fetch_add(1, Ordering::Relaxed);
        if report.result.is_err() {
            shared.failed.fetch_add(1, Ordering::Relaxed);
        }
        shared
            .results
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(index, report);
        shared.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    fn policy() -> TaskPolicy {
        TaskPolicy {
            attempts: 1,
            backoff_ms: 0,
            timeout_ms: None,
        }
    }

    #[test]
    fn results_come_back_in_submission_order_across_rounds() {
        let mut pool = ServicePool::new(4, 2, policy(), |job: &u64, _| Ok(*job * 10));
        for round in 0..3u64 {
            for v in 0..16u64 {
                pool.submit(format!("r{round}-j{v}"), round * 100 + v);
            }
            let out: Vec<u64> = pool.drain().map(|r| r.result.unwrap()).collect();
            let expected: Vec<u64> = (0..16).map(|v| (round * 100 + v) * 10).collect();
            assert_eq!(out, expected);
        }
        let stats = pool.stats();
        assert_eq!(stats.submitted, 48);
        assert_eq!(stats.completed, 48);
        assert_eq!(stats.failed, 0);
        pool.shutdown();
    }

    #[test]
    fn one_worker_and_many_workers_agree() {
        let run = |workers: usize| -> Vec<u64> {
            let mut pool = ServicePool::new(workers, 2, policy(), |job: &u64, _| Ok(job ^ 0xF0));
            for v in 0..32u64 {
                pool.submit(format!("j{v}"), v);
            }
            pool.drain().map(|r| r.result.unwrap()).collect()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn a_panicking_job_is_quarantined_not_fatal() {
        let mut pool = ServicePool::new(2, 2, policy(), |job: &u32, _| {
            if *job == 3 {
                panic!("poisoned chunk");
            }
            Ok(*job)
        });
        for v in 0..6u32 {
            pool.submit(format!("chunk-{v}"), v);
        }
        for (i, report) in pool.drain().enumerate() {
            if i == 3 {
                assert!(matches!(report.result, Err(TaskError::Panicked(_))));
            } else {
                assert_eq!(*report.result.as_ref().unwrap(), i as u32);
            }
        }
        assert_eq!(pool.stats().failed, 1);
        // The pool keeps serving after the failure.
        pool.submit("after".to_string(), 7);
        let after: Vec<u32> = pool.drain().map(|r| r.result.unwrap()).collect();
        assert_eq!(after, [7]);
    }

    /// Spins until `done()` holds or `limit` passes; true when the
    /// condition ended the wait rather than the timeout.
    fn wait_until(done: impl Fn() -> bool, limit: Duration) -> bool {
        let start = Instant::now();
        while !done() {
            if start.elapsed() > limit {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn slowest_first_job_is_still_delivered_first() {
        // Job 0 finishes only after every other job has: the completion
        // order is 1..N then 0, the delivery order must still be 0..N.
        const JOBS: u64 = 6;
        let finished = Arc::new(AtomicU64::new(0));
        let completion = Arc::new(Mutex::new(Vec::new()));
        let handler_finished = Arc::clone(&finished);
        let handler_completion = Arc::clone(&completion);
        let mut pool = ServicePool::new(2, 8, policy(), move |job: &u64, _| {
            if *job == 0 {
                let others_done = || handler_finished.load(Ordering::Acquire) == JOBS - 1;
                wait_until(others_done, Duration::from_secs(10));
            }
            handler_completion.lock().unwrap().push(*job);
            handler_finished.fetch_add(1, Ordering::Release);
            Ok(*job)
        });
        for v in 0..JOBS {
            pool.submit(format!("j{v}"), v);
        }
        let delivered: Vec<u64> = pool.drain().map(|r| r.result.unwrap()).collect();
        assert_eq!(delivered, (0..JOBS).collect::<Vec<_>>());
        assert_eq!(
            completion.lock().unwrap().last(),
            Some(&0),
            "job 0 must have completed last"
        );
    }

    #[test]
    fn drain_yields_before_later_jobs_finish() {
        // Job 3 is held until report 0 has been received: a barrier drain
        // would wait for job 3 first and the gate would only time out.
        let gate = Arc::new(AtomicBool::new(false));
        let handler_gate = Arc::clone(&gate);
        let mut pool = ServicePool::new(2, 4, policy(), move |job: &u64, _| {
            let released = *job != 3
                || wait_until(
                    || handler_gate.load(Ordering::Acquire),
                    Duration::from_secs(10),
                );
            Ok((*job, released))
        });
        for v in 0..4u64 {
            pool.submit(format!("j{v}"), v);
        }
        let mut drain = pool.drain();
        assert_eq!(drain.next().unwrap().result.unwrap(), (0, true));
        gate.store(true, Ordering::Release);
        let rest: Vec<(u64, bool)> = drain.map(|r| r.result.unwrap()).collect();
        assert_eq!(
            rest,
            [(1, true), (2, true), (3, true)],
            "job 3 must be released by the gate"
        );
    }

    #[test]
    fn a_panicking_job_yields_its_err_in_place_while_later_jobs_run() {
        // Job 1 panics on every attempt; job 2 is held until the failure
        // has been delivered, so the Err arrives without waiting for it.
        let gate = Arc::new(AtomicBool::new(false));
        let handler_gate = Arc::clone(&gate);
        let retrying = TaskPolicy {
            attempts: 2,
            backoff_ms: 0,
            timeout_ms: None,
        };
        let mut pool = ServicePool::new(2, 4, retrying, move |job: &u32, _| match *job {
            1 => panic!("poisoned candidate"),
            2 => Ok(u32::from(wait_until(
                || handler_gate.load(Ordering::Acquire),
                Duration::from_secs(10),
            ))),
            _ => Ok(*job),
        });
        for v in 0..3u32 {
            pool.submit(format!("chunk-{v}"), v);
        }
        let mut drain = pool.drain();
        assert_eq!(drain.next().unwrap().result.unwrap(), 0);
        let failed = drain.next().unwrap();
        assert!(
            matches!(failed.result, Err(TaskError::Panicked(_))),
            "{:?}",
            failed.result
        );
        assert_eq!(
            failed.attempts, 2,
            "the panicking job is retried before it fails"
        );
        gate.store(true, Ordering::Release);
        assert_eq!(
            drain.next().unwrap().result.unwrap(),
            1,
            "job 2 released by the gate"
        );
        assert!(drain.next().is_none());
        // The next round is served normally.
        for v in 10..13u32 {
            pool.submit(format!("round2-{v}"), v);
        }
        let round2: Vec<u32> = pool.drain().map(|r| r.result.unwrap()).collect();
        assert_eq!(round2, [10, 11, 12]);
        assert_eq!(pool.stats().failed, 1);
        assert_eq!(pool.stats().completed, 6);
    }

    #[test]
    fn full_queue_applies_backpressure() {
        let gate = Arc::new(AtomicBool::new(false));
        let handler_gate = Arc::clone(&gate);
        // One worker that holds its first job until released: queue depth
        // 1 means the third submit must block (1 in flight + 1 queued).
        let mut pool = ServicePool::new(1, 1, policy(), move |_: &u64, _| {
            while !handler_gate.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        });
        pool.submit("a".into(), 0);
        pool.submit("b".into(), 1);
        let waits_before = pool.stats().backpressure_waits;
        // Submit "c" from this thread after arming an unblocker: the
        // push blocks until the gate opens and the worker drains a slot.
        let unblock_gate = Arc::clone(&gate);
        let unblocker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            unblock_gate.store(true, Ordering::Release);
        });
        let blocked_at = Instant::now();
        pool.submit("c".into(), 2);
        assert!(
            blocked_at.elapsed() >= Duration::from_millis(20),
            "third submit should have blocked on the full queue"
        );
        assert_eq!(pool.stats().backpressure_waits, waits_before + 1);
        unblocker.join().unwrap();
        assert_eq!(pool.drain().count(), 3);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let pool: ServicePool<u64, u64> = ServicePool::new(3, 2, policy(), |job, _| Ok(*job));
        drop(pool); // must not hang or leak threads
    }
}
