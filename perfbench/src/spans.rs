//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer is wrapped in a span
//! (layer, name, cell, start, end, parent). With tracing off the guards
//! are inert and no clock is read. Spans stay in memory; the benchmark turns
//! them into per-layer metrics and one chrome-trace JSON at the end.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The timed layers, by crate name.
pub const LAYERS: [&str; 7] = [
    "twig-workload",
    "twig-profile",
    "twig",
    "twig-sim",
    "twig-prefetchers",
    "twig-sched",
    "twig-fleet",
];

/// One finished span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub name: &'static str,
    /// Spans of one cell (an app, or an app/system pair) share this id.
    pub cell: String,
    /// Small per-thread index, stable within the process.
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work the call did, in the unit its name implies (simulated
    /// instructions for simulations, events for walks, bytes for spills,
    /// samples for profiles, plans for analysis, prefetch ops for rewrites).
    pub work: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when enabled; a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost span open on this thread.
    pub fn enter(&self, layer: &'static str, name: &'static str, cell: &str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                open: None,
                work: 0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let span = Span {
            id,
            parent,
            layer,
            name,
            cell: cell.to_string(),
            thread: THREAD.with(|t| *t),
            start_ns: self.now_ns(),
            end_ns: 0,
            work: 0,
        };
        Guard {
            tracer: self,
            open: Some(span),
            work: 0,
        }
    }

    /// Makes `parent` (a span open on another thread) the parent of the
    /// spans this thread opens until the returned guard drops.
    pub fn adopt(&self, parent: Option<u64>) -> Adopted {
        let pushed = match parent {
            Some(id) if self.enabled => {
                OPEN.with(|open| open.borrow_mut().push(id));
                true
            }
            _ => false,
        };
        Adopted { pushed }
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// An open span; records itself when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    open: Option<Span>,
    work: u64,
}

impl Guard<'_> {
    /// The span's id (`None` with tracing off).
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|s| s.id)
    }

    /// Sets the work count recorded with the span.
    pub fn work(&mut self, work: u64) {
        self.work = work;
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(mut span) = self.open.take() else {
            return;
        };
        span.end_ns = self.tracer.now_ns();
        span.work = self.work;
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Undoes [`Tracer::adopt`] on drop.
pub struct Adopted {
    pushed: bool,
}

impl Drop for Adopted {
    fn drop(&mut self) {
        if self.pushed {
            OPEN.with(|open| {
                open.borrow_mut().pop();
            });
        }
    }
}

/// Wall-clock self time per layer over `[from_ns, to_ns)`.
///
/// At every instant the wall time is split evenly among the spans that
/// are open and have no open child (the innermost work in progress on
/// each thread), so the shares of all layers plus the uncovered
/// remainder add up to the interval exactly, however many threads ran.
/// Returns `(layer shares in LAYERS order, uncovered seconds)`.
pub fn self_times(spans: &[Span], from_ns: u64, to_ns: u64) -> ([f64; LAYERS.len()], f64) {
    let mut bounds: Vec<u64> = spans
        .iter()
        .flat_map(|s| [s.start_ns, s.end_ns])
        .chain([from_ns, to_ns])
        .filter(|t| (from_ns..=to_ns).contains(t))
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    let mut shares = [0.0; LAYERS.len()];
    let mut uncovered = 0.0;
    for pair in bounds.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        let dt = (hi - lo) as f64 * 1e-9;
        let open: Vec<&Span> = spans
            .iter()
            .filter(|s| s.start_ns <= lo && s.end_ns >= hi)
            .collect();
        let leaves: Vec<&Span> = open
            .iter()
            .copied()
            .filter(|s| !open.iter().any(|c| c.parent == Some(s.id)))
            .collect();
        if leaves.is_empty() {
            uncovered += dt;
            continue;
        }
        let share = dt / leaves.len() as f64;
        for leaf in leaves {
            let index = LAYERS
                .iter()
                .position(|l| *l == leaf.layer)
                .expect("span of a known layer");
            shares[index] += share;
        }
    }
    (shares, uncovered)
}

/// Renders spans as chrome://tracing JSON: `process_name`/`thread_name`
/// metadata events first (the layout the repository's own trace exports
/// use), then one complete event per span with its cell and parent.
pub fn chrome_trace(process: &str, spans: &[Span]) -> String {
    let pid = std::process::id();
    let mut threads: Vec<u64> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    let mut events = vec![format!(
        r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":{}}}}}"#,
        json_str(process)
    )];
    for t in &threads {
        let name = if *t == 0 {
            "main".to_string()
        } else {
            format!("worker-{t}")
        };
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{t},"args":{{"name":"{name}"}}}}"#
        ));
    }
    for s in spans {
        events.push(format!(
            r#"{{"name":"{}","cat":"{}","ph":"X","ts":{:.3},"dur":{:.3},"pid":{pid},"tid":{},"args":{{"id":{},"parent":{},"cell":{},"work":{}}}}}"#,
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.thread,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            json_str(&s.cell),
            s.work,
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

/// A JSON string literal (the names used here need no escapes beyond
/// quotes and backslashes).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "x",
            cell: String::new(),
            thread: 0,
            start_ns: start,
            end_ns: end,
            work: 0,
        }
    }

    #[test]
    fn self_times_split_parallel_leaves_and_add_up() {
        // A scheduler span [0, 100) with two overlapping children on two
        // threads: [10, 60) and [20, 90).
        let spans = vec![
            span(1, None, "twig-sched", 0, 100),
            span(2, Some(1), "twig-sim", 10, 60),
            span(3, Some(1), "twig-prefetchers", 20, 90),
        ];
        let (shares, uncovered) = self_times(&spans, 0, 120);
        let total: f64 = shares.iter().sum::<f64>() + uncovered;
        assert!((total - 120e-9).abs() < 1e-15);
        assert!((uncovered - 20e-9).abs() < 1e-15);
        // Scheduler owns [0,10) and [90,100) only.
        assert!((shares[5] - 20e-9).abs() < 1e-15);
        // [10,20) sim alone, [20,60) split, [60,90) prefetchers alone.
        assert!((shares[3] - 30e-9).abs() < 1e-15);
        assert!((shares[4] - 50e-9).abs() < 1e-15);
    }
}
