//! Span-style stage tracing: a sampled, bounded ring buffer of frontend
//! events exportable as chrome://tracing JSON.
//!
//! The simulator emits one [`TraceEvent`] per interesting stage span
//! (a fetch-block's life in the FTQ, a prefetch burst, a resteer
//! penalty). The ring keeps the **last** `capacity` sampled events, so a
//! long run's trace shows its tail — the steady state — rather than its
//! warm-up. Sampling (`trace=N`) keeps one event in `N` per ring, making
//! the cost of the trace tier tunable independently of its window.
//!
//! The export format is the Trace Event Format's complete-event (`ph:
//! "X"`) flavor, with the simulated cycle standing in for microseconds,
//! so `chrome://tracing` / Perfetto render the frontend pipeline
//! directly.

use twig_serde::Value;

use crate::ExportError;

/// Default ring capacity, in events.
pub const DEFAULT_TRACE_CAPACITY: u32 = 65_536;

/// Pipeline stage a span belongs to; becomes the trace's thread lane.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Branch-prediction unit walking basic blocks into the FTQ.
    Predict,
    /// Instruction fetch draining the FTQ.
    Fetch,
    /// Decode-stage activity (decode-time resteers).
    Decode,
    /// BTB/cache prefetch activity.
    Prefetch,
    /// Retirement.
    Commit,
}

impl Stage {
    /// Every stage, in pipeline (lane) order.
    pub const ALL: [Stage; 5] = [
        Stage::Predict,
        Stage::Fetch,
        Stage::Decode,
        Stage::Prefetch,
        Stage::Commit,
    ];

    /// Stable lower-case name (the trace's `cat` field).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Predict => "predict",
            Stage::Fetch => "fetch",
            Stage::Decode => "decode",
            Stage::Prefetch => "prefetch",
            Stage::Commit => "commit",
        }
    }

    /// The lane (trace `tid`) this stage renders on, in pipeline order.
    pub fn lane(&self) -> u32 {
        match self {
            Stage::Predict => 0,
            Stage::Fetch => 1,
            Stage::Decode => 2,
            Stage::Prefetch => 3,
            Stage::Commit => 4,
        }
    }
}

/// One complete span: a named interval of simulated cycles on a stage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// The pipeline stage (render lane).
    pub stage: Stage,
    /// Event name (static so recording never allocates).
    pub name: &'static str,
    /// First cycle of the span.
    pub start_cycle: u64,
    /// Span length in cycles (0 renders as an instant).
    pub duration: u64,
}

/// A sampled bounded ring of [`TraceEvent`]s (keeps the most recent).
#[derive(Clone, Debug)]
pub struct TraceRing {
    events: Vec<TraceEvent>,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    capacity: usize,
    /// Keep one event in `sample`.
    sample: u64,
    /// Events offered to the ring (sampled or not).
    seen: u64,
}

impl TraceRing {
    /// An empty ring keeping the last `capacity` of every `sample`-th
    /// event (both floored to 1).
    pub fn new(capacity: u32, sample: u64) -> Self {
        let capacity = capacity.max(1) as usize;
        TraceRing {
            events: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            sample: sample.max(1),
            seen: 0,
        }
    }

    /// Offers one span to the ring (hot-path: integer math plus at most
    /// one slot write; the only allocation is the ring filling up to
    /// capacity the first time).
    #[inline]
    pub fn record(&mut self, stage: Stage, name: &'static str, start_cycle: u64, duration: u64) {
        let index = self.seen;
        self.seen += 1;
        if !index.is_multiple_of(self.sample) {
            return;
        }
        let event = TraceEvent {
            stage,
            name,
            start_cycle,
            duration,
        };
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Events offered to the ring over its lifetime.
    pub fn total_seen(&self) -> u64 {
        self.seen
    }

    /// Spans offered but *not* in the ring — sampled out or overwritten
    /// after the ring filled. A truncated trace is no longer silent:
    /// this surfaces as the `obs.trace.dropped_spans` counter in the
    /// metrics snapshot and as `droppedSpans` in the chrome-trace
    /// export's `otherData`.
    pub fn dropped_spans(&self) -> u64 {
        self.seen - self.events.len() as u64
    }

    /// Sampled events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The held events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }
}

/// Deterministic per-cell process id for chrome-trace exports: a pure
/// FNV-1a fold of the cell label, so traces from different cells merge
/// into distinct process rows in chrome://tracing while staying
/// byte-identical run-to-run.
pub fn trace_pid(label: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in label.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // Folded into a readable range; chrome://tracing treats pid as an
    // opaque row key, only collisions between cells would matter.
    hash % 1_000_000
}

/// One `ph: "M"` metadata event (Trace Event Format §Metadata Events).
fn metadata_event(kind: &str, pid: u64, tid: u64, name: &str) -> Value {
    Value::Object(vec![
        ("name".to_string(), Value::Str(kind.to_string())),
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::UInt(pid)),
        ("tid".to_string(), Value::UInt(tid)),
        (
            "args".to_string(),
            Value::Object(vec![("name".to_string(), Value::Str(name.to_string()))]),
        ),
    ])
}

/// Renders events as chrome://tracing JSON (Trace Event Format,
/// complete-event flavor; `ts`/`dur` carry simulated cycles).
/// `dropped_spans` ([`TraceRing::dropped_spans`]) is recorded in the
/// export's `otherData` so truncated traces announce themselves.
///
/// The export opens with `ph: "M"` metadata events — one `process_name`
/// carrying the cell label and one `thread_name` per stage lane — so
/// merged multi-cell traces stay legible: every row is named after its
/// cell and pipeline stage instead of bare integers.
/// All events share a deterministic [`trace_pid`] derived from the label.
///
/// # Errors
///
/// Returns an [`ExportError`] if the document cannot be serialized.
pub fn chrome_trace_json(
    label: &str,
    events: &[TraceEvent],
    dropped_spans: u64,
) -> Result<String, ExportError> {
    let pid = trace_pid(label);
    let mut trace_events: Vec<Value> = Vec::with_capacity(events.len() + 1 + Stage::ALL.len());
    trace_events.push(metadata_event("process_name", pid, 0, label));
    for stage in Stage::ALL {
        trace_events.push(metadata_event(
            "thread_name",
            pid,
            stage.lane() as u64,
            stage.name(),
        ));
    }
    trace_events.extend(events.iter().map(|e| {
        Value::Object(vec![
            ("name".to_string(), Value::Str(e.name.to_string())),
            ("cat".to_string(), Value::Str(e.stage.name().to_string())),
            ("ph".to_string(), Value::Str("X".to_string())),
            ("ts".to_string(), Value::UInt(e.start_cycle)),
            ("dur".to_string(), Value::UInt(e.duration)),
            ("pid".to_string(), Value::UInt(pid)),
            ("tid".to_string(), Value::UInt(e.stage.lane() as u64)),
        ])
    }));
    let doc = Value::Object(vec![
        (
            "otherData".to_string(),
            Value::Object(vec![
                ("label".to_string(), Value::Str(label.to_string())),
                ("droppedSpans".to_string(), Value::UInt(dropped_spans)),
            ]),
        ),
        ("traceEvents".to_string(), Value::Array(trace_events)),
    ]);
    twig_serde_json::to_string_pretty(&doc)
        .map_err(|e| ExportError::new("chrome trace", e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let mut ring = TraceRing::new(4, 1);
        for i in 0..10u64 {
            ring.record(Stage::Fetch, "blk", i, 1);
        }
        assert_eq!(ring.total_seen(), 10);
        assert_eq!(ring.len(), 4);
        let starts: Vec<u64> = ring.events().iter().map(|e| e.start_cycle).collect();
        assert_eq!(starts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn sampling_keeps_one_in_n() {
        let mut ring = TraceRing::new(100, 4);
        for i in 0..17u64 {
            ring.record(Stage::Predict, "bb", i, 0);
        }
        let starts: Vec<u64> = ring.events().iter().map(|e| e.start_cycle).collect();
        assert_eq!(starts, vec![0, 4, 8, 12, 16]);
    }

    fn field_of(event: &Value, key: &str) -> Value {
        event
            .as_object()
            .unwrap()
            .iter()
            .find(|(name, _)| name == key)
            .map(|(_, v)| v.clone())
            .unwrap()
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_row_per_event() {
        let mut ring = TraceRing::new(8, 1);
        ring.record(Stage::Fetch, "blk", 5, 3);
        ring.record(Stage::Prefetch, "burst", 6, 1);
        let json = chrome_trace_json("kafka/twig", &ring.events(), ring.dropped_spans()).unwrap();
        let doc: Value = twig_serde_json::from_str(&json).unwrap();
        let events = doc
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_array())
            .unwrap();
        // 1 process_name + 5 thread_name metadata events, then the spans.
        assert_eq!(events.len(), 1 + Stage::ALL.len() + 2);
        let first_span = &events[1 + Stage::ALL.len()];
        assert_eq!(field_of(first_span, "ph").as_str(), Some("X"));
        assert_eq!(field_of(first_span, "ts").as_u64(), Some(5));
        assert_eq!(field_of(first_span, "dur").as_u64(), Some(3));
        assert_eq!(field_of(first_span, "cat").as_str(), Some("fetch"));
        assert_eq!(
            field_of(first_span, "pid").as_u64(),
            Some(trace_pid("kafka/twig"))
        );
    }

    #[test]
    fn chrome_export_opens_with_naming_metadata() {
        let mut ring = TraceRing::new(8, 1);
        ring.record(Stage::Commit, "retire", 9, 0);
        let json = chrome_trace_json("kafka/twig", &ring.events(), 0).unwrap();
        let doc: Value = twig_serde_json::from_str(&json).unwrap();
        let events = doc
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_array())
            .unwrap();
        let pid = trace_pid("kafka/twig");
        let arg_name = |event: &Value| {
            field_of(event, "args")
                .as_object()
                .unwrap()
                .iter()
                .find(|(k, _)| k == "name")
                .and_then(|(_, v)| v.as_str().map(str::to_string))
                .unwrap()
        };
        let process = &events[0];
        assert_eq!(field_of(process, "ph").as_str(), Some("M"));
        assert_eq!(field_of(process, "name").as_str(), Some("process_name"));
        assert_eq!(field_of(process, "pid").as_u64(), Some(pid));
        assert_eq!(arg_name(process), "kafka/twig");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            let thread = &events[1 + i];
            assert_eq!(field_of(thread, "ph").as_str(), Some("M"));
            assert_eq!(field_of(thread, "name").as_str(), Some("thread_name"));
            assert_eq!(field_of(thread, "tid").as_u64(), Some(stage.lane() as u64));
            assert_eq!(arg_name(thread), stage.name());
        }
        // Distinct labels get distinct process rows; the pid is a pure
        // function of the label.
        assert_ne!(trace_pid("kafka/twig"), trace_pid("tomcat/twig"));
        assert_eq!(trace_pid("kafka/twig"), pid);
    }

    #[test]
    fn dropped_spans_count_sampled_out_and_overwritten() {
        // Capacity 2, sample 2: of 10 offers, 5 are sampled in, 3 of
        // those are overwritten, so 8 spans total are dropped.
        let mut ring = TraceRing::new(2, 2);
        for i in 0..10u64 {
            ring.record(Stage::Fetch, "blk", i, 1);
        }
        assert_eq!(ring.total_seen(), 10);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped_spans(), 8);
        let json = chrome_trace_json("x", &ring.events(), ring.dropped_spans()).unwrap();
        let doc: Value = twig_serde_json::from_str(&json).unwrap();
        let other = doc
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "otherData")
            .and_then(|(_, v)| v.as_object().map(|o| o.to_vec()))
            .unwrap();
        let dropped = other
            .iter()
            .find(|(k, _)| k == "droppedSpans")
            .and_then(|(_, v)| v.as_u64());
        assert_eq!(dropped, Some(8));
    }

    #[test]
    fn zero_capacity_and_sample_are_floored() {
        let mut ring = TraceRing::new(0, 0);
        ring.record(Stage::Commit, "retire", 1, 0);
        ring.record(Stage::Commit, "retire", 2, 0);
        assert_eq!(ring.len(), 1);
    }
}
