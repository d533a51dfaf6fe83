//! Per-task fault tolerance: panic isolation, cooperative
//! deadline/watchdog cancellation, and bounded retry with backoff.
//!
//! The experiment harness flattens its work onto [`crate::parallel_map`];
//! before this module, one panicking or hung task aborted the whole
//! multi-minute run. [`run_supervised`] quarantines each task instead:
//!
//! * **Panic isolation** — the task body runs under `catch_unwind`; the
//!   panic payload is captured into [`TaskError::Panicked`] and the
//!   default panic hook's backtrace spew is suppressed for supervised
//!   regions (real unexpected panics elsewhere still print normally).
//! * **Watchdog** — each attempt gets a [`CancelToken`] carrying the
//!   policy deadline. A process-wide watchdog thread trips the token's
//!   flag when the deadline passes; cancellation is *cooperative* (Rust
//!   threads cannot be killed), so long-running bodies should poll
//!   [`CancelToken::is_cancelled`] and bail. `is_cancelled` also checks
//!   the clock directly, so correctness never depends on watchdog timing.
//! * **Retry with backoff** — panics and timeouts are retried up to
//!   [`TaskPolicy::attempts`] times with exponential backoff; explicit
//!   cancellation is not retried.
//!
//! Injected faults from [`crate::fault`] (the `TWIG_FAULT_SPEC` layer)
//! are applied inside the isolation boundary, before the task body, so
//! tests and CI can drive every path above deterministically.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use crate::fault;

/// Shared state behind a [`CancelToken`].
#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// Cooperative cancellation token handed to every supervised task.
///
/// Cheap to clone; all clones observe the same cancellation.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A token with no deadline (cancelled only explicitly).
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that auto-cancels `ms` milliseconds from now.
    pub fn with_deadline_ms(ms: u64) -> Self {
        let token = CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + Duration::from_millis(ms)),
            }),
        };
        watchdog_register(&token);
        token
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once cancelled or past the deadline. Long-running task bodies
    /// should poll this and return early ([`TaskError::Cancelled`]).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                // Latch, so later polls are a plain flag read.
                self.inner.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// True when the token has a deadline and it has passed.
    pub fn deadline_exceeded(&self) -> bool {
        matches!(self.inner.deadline, Some(d) if Instant::now() >= d)
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// Registry of live deadline tokens, scanned by the watchdog thread.
fn watchdog_registry() -> &'static Mutex<Vec<Weak<TokenInner>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<TokenInner>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Adds a token to the watchdog's scan list, starting the (detached,
/// process-wide) watchdog thread on first use.
fn watchdog_register(token: &CancelToken) {
    static WATCHDOG: OnceLock<()> = OnceLock::new();
    {
        let mut registry = watchdog_registry()
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        registry.push(Arc::downgrade(&token.inner));
    }
    WATCHDOG.get_or_init(|| {
        std::thread::Builder::new()
            .name("twig-watchdog".into())
            .spawn(|| loop {
                std::thread::sleep(Duration::from_millis(25));
                let mut registry = watchdog_registry()
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                registry.retain(|weak| match weak.upgrade() {
                    None => false,
                    Some(inner) => {
                        if let Some(deadline) = inner.deadline {
                            if Instant::now() >= deadline {
                                inner.cancelled.store(true, Ordering::Release);
                                return false;
                            }
                        }
                        true
                    }
                });
            })
            .expect("spawn watchdog thread");
    });
}

/// Why a supervised task failed (after all retries).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskError {
    /// The task panicked; the payload (if a string) is captured.
    Panicked(String),
    /// The task exceeded its deadline and observed cancellation.
    TimedOut {
        /// Milliseconds elapsed when the timeout was recorded.
        elapsed_ms: u64,
    },
    /// The task was cancelled explicitly (not retried).
    Cancelled,
    /// The task failed with a domain-specific error it diagnosed itself
    /// (e.g. a simulation integrity violation). Deterministic, so never
    /// retried.
    Domain {
        /// Machine-stable kind tag for `FAILED(<kind>)` cell markers
        /// (e.g. `integrity: btb-occupancy`).
        kind: String,
        /// Full human-readable diagnosis.
        detail: String,
    },
}

impl TaskError {
    /// A short machine-stable kind tag (`panic` / `timeout` / `cancelled`,
    /// or the domain error's own tag), used for `FAILED(<reason>)` markers
    /// in reports.
    pub fn kind(&self) -> &str {
        match self {
            TaskError::Panicked(_) => "panic",
            TaskError::TimedOut { .. } => "timeout",
            TaskError::Cancelled => "cancelled",
            TaskError::Domain { kind, .. } => kind,
        }
    }

    /// Whether the supervisor should retry after this error. Domain errors
    /// are deterministic diagnoses, so retrying cannot help.
    pub fn retryable(&self) -> bool {
        !matches!(self, TaskError::Cancelled | TaskError::Domain { .. })
    }
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked(payload) => write!(f, "panicked: {payload}"),
            TaskError::TimedOut { elapsed_ms } => {
                write!(f, "timed out after {elapsed_ms} ms")
            }
            TaskError::Cancelled => write!(f, "cancelled"),
            TaskError::Domain { detail, .. } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for TaskError {}

/// Total attempts (first run + one retry) every supervised task gets.
pub const TASK_ATTEMPTS: u32 = 2;

/// Retry/deadline policy for supervised tasks.
#[derive(Clone, Copy, Debug)]
pub struct TaskPolicy {
    /// Total attempts (first run + retries); at least 1.
    pub attempts: u32,
    /// Base backoff between attempts, doubled each retry.
    pub backoff_ms: u64,
    /// Per-attempt deadline; `None` disables the watchdog.
    pub timeout_ms: Option<u64>,
}

impl Default for TaskPolicy {
    fn default() -> Self {
        TaskPolicy {
            attempts: TASK_ATTEMPTS,
            backoff_ms: 100,
            timeout_ms: Some(600_000),
        }
    }
}

impl TaskPolicy {
    /// The default policy with `TWIG_TASK_BACKOFF_MS` and
    /// `TWIG_TASK_TIMEOUT_MS` (0 = no deadline) applied on top, via
    /// the unified harness configuration (malformed values abort there
    /// with the variable named, instead of silently using defaults).
    pub fn from_env() -> Self {
        Self::from_config(twig_types::HarnessConfig::global())
    }

    /// The policy carried by an already-parsed harness configuration.
    pub fn from_config(config: &twig_types::HarnessConfig) -> Self {
        TaskPolicy {
            backoff_ms: config.task_backoff_ms.value,
            timeout_ms: config.task_timeout_ms.value,
            ..TaskPolicy::default()
        }
    }
}

/// Outcome of one supervised task, with attempt/wall-time accounting for
/// the run manifest.
#[derive(Debug)]
pub struct TaskReport<R> {
    /// The task's label (as matched by fault specs).
    pub label: String,
    /// Attempts actually made (1 = first try succeeded).
    pub attempts: u32,
    /// Wall time across all attempts, milliseconds.
    pub wall_ms: u64,
    /// The task's value, or the last attempt's error.
    pub result: Result<R, TaskError>,
}

thread_local! {
    /// Set while a supervised body runs, so the panic hook stays quiet for
    /// payloads we are about to capture anyway.
    static IN_SUPERVISED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once) a panic hook that suppresses printing for panics inside
/// supervised regions and defers to the previous hook otherwise.
fn install_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_SUPERVISED.with(|flag| flag.get()) {
                previous(info);
            }
        }));
    });
}

/// Stringifies a panic payload (`&str` / `String` payloads pass through).
fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The delay before retry number `attempt + 1`: exponential backoff from
/// `base_ms` plus a deterministic, label-seeded jitter in
/// `[0, base_ms / 2]`.
///
/// A fleet of workers that all fail together (say, a shared dependency
/// hiccup) and retry on a fixed schedule re-collides on every retry;
/// jitter spreads them out. Randomized jitter would break the harness's
/// run-to-run determinism, so the offset is a pure function of the task
/// label and attempt number (FxHash): the same task retries on the same
/// schedule every run, but no two labels share one.
pub fn jittered_backoff_ms(base_ms: u64, label: &str, attempt: u32) -> u64 {
    if base_ms == 0 {
        return 0;
    }
    let exponential = base_ms.saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
    let mut hasher = twig_types::fxhash::FxHasher::default();
    std::hash::Hasher::write(&mut hasher, label.as_bytes());
    std::hash::Hasher::write_u32(&mut hasher, attempt);
    let jitter = std::hash::Hasher::finish(&hasher) % (base_ms / 2 + 1);
    exponential.saturating_add(jitter)
}

/// Runs `f` under full supervision: injected faults applied first, panics
/// caught, the deadline watchdog armed, and retryable failures retried
/// per `policy`. `index` is the task's position within its batch (what
/// `task=N` fault selectors match).
pub fn run_supervised<R, F>(label: &str, index: usize, policy: &TaskPolicy, f: F) -> TaskReport<R>
where
    F: Fn(&CancelToken) -> Result<R, TaskError>,
{
    install_quiet_hook();
    let started = Instant::now();
    let attempts_allowed = policy.attempts.max(1);
    let mut attempts = 0;
    let mut last_error = TaskError::Cancelled;
    while attempts < attempts_allowed {
        attempts += 1;
        let token = match policy.timeout_ms {
            Some(ms) => CancelToken::with_deadline_ms(ms),
            None => CancelToken::new(),
        };
        let attempt_started = Instant::now();
        let caught = {
            let token = &token;
            catch_unwind(AssertUnwindSafe(|| {
                IN_SUPERVISED.with(|flag| flag.set(true));
                let result = if fault::global().apply_task_faults(label, index, token) {
                    f(token)
                } else {
                    Err(TaskError::Cancelled)
                };
                IN_SUPERVISED.with(|flag| flag.set(false));
                result
            }))
        };
        IN_SUPERVISED.with(|flag| flag.set(false));
        let error = match caught {
            Ok(Ok(value)) => {
                return TaskReport {
                    label: label.to_string(),
                    attempts,
                    wall_ms: started.elapsed().as_millis() as u64,
                    result: Ok(value),
                }
            }
            Ok(Err(e)) => e,
            Err(payload) => TaskError::Panicked(payload_to_string(payload)),
        };
        // A cancellation caused by the deadline is a watchdog timeout.
        let error = match error {
            TaskError::Cancelled if token.deadline_exceeded() => TaskError::TimedOut {
                elapsed_ms: attempt_started.elapsed().as_millis() as u64,
            },
            other => other,
        };
        let retry = error.retryable() && attempts < attempts_allowed;
        last_error = error;
        if !retry {
            break;
        }
        let backoff = jittered_backoff_ms(policy.backoff_ms, label, attempts);
        if backoff > 0 {
            std::thread::sleep(Duration::from_millis(backoff));
        }
    }
    TaskReport {
        label: label.to_string(),
        attempts,
        wall_ms: started.elapsed().as_millis() as u64,
        result: Err(last_error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn quick_policy() -> TaskPolicy {
        TaskPolicy {
            attempts: 1,
            backoff_ms: 0,
            timeout_ms: None,
        }
    }

    #[test]
    fn success_reports_one_attempt() {
        let report = run_supervised("ok", 0, &quick_policy(), |_| Ok(41 + 1));
        assert_eq!(report.attempts, 1);
        assert_eq!(report.result.unwrap(), 42);
    }

    #[test]
    fn panic_is_isolated_and_payload_captured() {
        let report: TaskReport<u32> = run_supervised("boom", 0, &quick_policy(), |_| {
            panic!("it broke: {}", 7);
        });
        match report.result {
            Err(TaskError::Panicked(payload)) => assert!(payload.contains("it broke: 7")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(report.attempts, 1);
    }

    /// The pairing `runner::headline` and `run_fleet` use: `parallel_map`
    /// over indexed tasks, each wrapped in `run_supervised`.
    #[test]
    fn one_panicking_task_does_not_poison_the_batch() {
        let _serial = crate::tests::exclusive();
        let policy = quick_policy();
        let tasks: Vec<(usize, u32)> = (0..8u32).enumerate().collect();
        let reports = crate::parallel_map(tasks, |(i, v)| {
            run_supervised(&format!("task-{i}"), i, &policy, |_| {
                if v == 3 {
                    panic!("task three always fails");
                }
                Ok(v * 2)
            })
        });
        for (i, report) in reports.iter().enumerate() {
            if i == 3 {
                assert!(matches!(report.result, Err(TaskError::Panicked(_))));
            } else {
                assert_eq!(*report.result.as_ref().unwrap(), i as u32 * 2);
            }
        }
    }

    #[test]
    fn watchdog_cancels_past_deadline() {
        let policy = TaskPolicy {
            attempts: 1,
            backoff_ms: 0,
            timeout_ms: Some(50),
        };
        let started = Instant::now();
        let report: TaskReport<()> = run_supervised("hang", 0, &policy, |token| {
            // A cooperative "hang": spins until the watchdog trips the
            // token, then bails (bounded by the outer assert's deadline).
            let bail_out = Instant::now() + Duration::from_secs(30);
            while !token.is_cancelled() {
                if Instant::now() > bail_out {
                    return Ok(());
                }
                std::thread::yield_now();
            }
            Err(TaskError::Cancelled)
        });
        match report.result {
            Err(TaskError::TimedOut { elapsed_ms }) => {
                assert!(elapsed_ms >= 40, "cancelled too early: {elapsed_ms} ms");
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "watchdog never fired"
        );
    }

    #[test]
    fn retry_recovers_from_transient_panic_deterministically() {
        let failures = AtomicU32::new(0);
        let policy = TaskPolicy {
            attempts: 3,
            backoff_ms: 1,
            timeout_ms: None,
        };
        let report = run_supervised("flaky", 0, &policy, |_| {
            if failures.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("transient");
            }
            Ok("recovered")
        });
        assert_eq!(report.attempts, 3, "two failures then success");
        assert_eq!(report.result.unwrap(), "recovered");
    }

    #[test]
    fn retries_stop_at_the_attempt_budget() {
        let runs = AtomicU32::new(0);
        let policy = TaskPolicy {
            attempts: 3,
            backoff_ms: 0,
            timeout_ms: None,
        };
        let report: TaskReport<()> = run_supervised("always-bad", 0, &policy, |_| {
            runs.fetch_add(1, Ordering::Relaxed);
            panic!("permanent");
        });
        assert_eq!(report.attempts, 3);
        assert_eq!(runs.load(Ordering::Relaxed), 3);
        assert!(matches!(report.result, Err(TaskError::Panicked(_))));
    }

    #[test]
    fn explicit_cancellation_is_not_retried() {
        let runs = AtomicU32::new(0);
        let policy = TaskPolicy {
            attempts: 5,
            backoff_ms: 0,
            timeout_ms: None,
        };
        let report: TaskReport<()> = run_supervised("cancelled", 0, &policy, |_| {
            runs.fetch_add(1, Ordering::Relaxed);
            Err(TaskError::Cancelled)
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert!(matches!(report.result, Err(TaskError::Cancelled)));
    }

    #[test]
    fn backoff_jitter_schedule_is_pinned() {
        // The seeded schedule is part of the determinism contract: any
        // change to the hash, the fold order, or the jitter span shows up
        // here as a literal mismatch.
        assert_eq!(jittered_backoff_ms(100, "fleet:worker-0", 1), 125);
        assert_eq!(jittered_backoff_ms(100, "fleet:worker-0", 2), 215);
        assert_eq!(jittered_backoff_ms(100, "fleet:worker-0", 3), 419);
        assert_eq!(jittered_backoff_ms(100, "fleet:worker-1", 1), 148);
        assert_eq!(jittered_backoff_ms(100, "fleet:worker-1", 2), 238);
        assert_eq!(jittered_backoff_ms(100, "fleet:worker-1", 3), 442);
        // Zero base disables backoff entirely (tests rely on this).
        assert_eq!(jittered_backoff_ms(0, "fleet:worker-0", 1), 0);
    }

    #[test]
    fn backoff_jitter_stays_in_band_and_desynchronizes_labels() {
        for attempt in 1..=6u32 {
            let exp = 100u64 * (1 << (attempt - 1));
            for label in ["a", "b", "c", "fleet:tenant-3/gen4"] {
                let v = jittered_backoff_ms(100, label, attempt);
                assert!(v >= exp && v <= exp + 50, "{label}@{attempt}: {v}");
                // Deterministic: the schedule is a pure function.
                assert_eq!(v, jittered_backoff_ms(100, label, attempt));
            }
        }
        // Lockstep retries are the failure mode this prevents: distinct
        // labels must not all share one offset.
        let offsets: std::collections::HashSet<u64> = (0..16)
            .map(|i| jittered_backoff_ms(1000, &format!("w{i}"), 1))
            .collect();
        assert!(offsets.len() > 8, "jitter collapsed: {offsets:?}");
    }

    #[test]
    fn token_cancel_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }
}
