//! The streaming trace-ingestion API: owned, resettable [`EventSource`]s.
//!
//! Every consumer of dynamic control flow — the simulator, the LBR
//! profiler, the benchmark harness, the fleet service — used to receive a
//! materialized `Vec<BlockEvent>`/`Arc<[BlockEvent]>`, capping cells at
//! what fits in RAM. An [`EventSource`] is the replacement contract: an
//! **owned** (no borrowed program, no `Rc<RefCell>` graph), **resettable**
//! (replayable from the start, so the profile pass and the simulation
//! pass read the same stream), **sized** (exact event count when the
//! backing store knows it) iterator of owned [`BlockEvent`]s.
//!
//! Three monomorphized implementations cover the design space:
//!
//! * [`MemSource`] — a shared in-memory slice; the right choice for small
//!   traces and tests, and the representation every cached artifact used
//!   before this API existed.
//! * [`WalkerSource`] — generates events on the fly from an owned
//!   [`Walker`], never materializing; replays deterministically because a
//!   reset reseeds the walker RNG from the input.
//! * [`ColumnarSource`] — streams a `.twgc` file chunk by chunk through
//!   the mmap-backed [`ColumnarReader`] in bounded resident memory.
//!
//! [`AnySource`] packages the three for call sites that pick a backing
//! store at runtime (the artifact cache, the CLI); hot loops match on it
//! once and run each arm monomorphized, mirroring the `Simulator<B>`
//! pattern from the BTB model.
//!
//! The trait is **sealed**: simulation results must be reproducible from
//! a cache key, which only holds if every source kind is known to (and
//! replay-tested by) this crate.

use std::sync::Arc;

use crate::columnar::{ColumnarReader, TraceError};
use crate::inputs::InputConfig;
use crate::program::Program;
use crate::walker::{BlockEvent, Walker};

mod sealed {
    /// Seals [`super::EventSource`]; see the module docs for why.
    pub trait Sealed {}
}

/// An owned, resettable, exactly-sized producer of [`BlockEvent`]s.
///
/// `EventSource` extends [`Iterator`]: any `&mut source` can be handed
/// straight to `Simulator::run` / `try_run` (which take
/// `impl IntoIterator<Item = BlockEvent>`), and the caller keeps the
/// source to [`reset`](EventSource::reset) it for a second pass.
pub trait EventSource: Iterator<Item = BlockEvent> + Send + sealed::Sealed {
    /// Rewinds to the first event. The next pass yields the identical
    /// stream (replay determinism is property-tested per implementation).
    fn reset(&mut self);

    /// Exact number of events a full pass yields from reset, when the
    /// backing store knows it (`MemSource`, `ColumnarSource`). `None` for
    /// generative sources bounded by an instruction budget.
    fn event_count(&self) -> Option<u64>;

    /// Skips `n` events without handing them to the consumer. Backends
    /// with a directory ([`ColumnarSource`]) leap whole chunks without
    /// decoding (macro-block fast-forward); others step.
    fn skip_events(&mut self, n: u64) {
        for _ in 0..n {
            if self.next().is_none() {
                break;
            }
        }
    }
}

/// In-memory event source over a shared slice.
///
/// # Examples
///
/// ```
/// use twig_workload::{BlockEvent, EventSource, MemSource};
/// use twig_types::BlockId;
///
/// let ev = BlockEvent { block: BlockId::new(1), taken: false, target: None };
/// let mut source = MemSource::from(vec![ev; 3]);
/// assert_eq!(source.event_count(), Some(3));
/// assert_eq!(source.by_ref().count(), 3);
/// source.reset();
/// assert_eq!(source.next(), Some(ev));
/// ```
#[derive(Clone, Debug)]
pub struct MemSource {
    events: Arc<[BlockEvent]>,
    pos: usize,
}

impl MemSource {
    /// Wraps a shared slice without copying.
    pub fn new(events: Arc<[BlockEvent]>) -> Self {
        MemSource { events, pos: 0 }
    }

    /// The backing slice (all events, independent of the cursor).
    pub fn as_slice(&self) -> &[BlockEvent] {
        &self.events
    }

    /// The backing shared slice.
    pub fn shared(&self) -> Arc<[BlockEvent]> {
        Arc::clone(&self.events)
    }
}

impl From<Vec<BlockEvent>> for MemSource {
    fn from(events: Vec<BlockEvent>) -> Self {
        MemSource::new(events.into())
    }
}

impl From<Arc<[BlockEvent]>> for MemSource {
    fn from(events: Arc<[BlockEvent]>) -> Self {
        MemSource::new(events)
    }
}

impl Iterator for MemSource {
    type Item = BlockEvent;

    fn next(&mut self) -> Option<BlockEvent> {
        let ev = self.events.get(self.pos).copied()?;
        self.pos += 1;
        Some(ev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.events.len() - self.pos;
        (left, Some(left))
    }
}

impl sealed::Sealed for MemSource {}

impl EventSource for MemSource {
    fn reset(&mut self) {
        self.pos = 0;
    }

    fn event_count(&self) -> Option<u64> {
        Some(self.events.len() as u64)
    }

    fn skip_events(&mut self, n: u64) {
        self.pos = self
            .pos
            .saturating_add(usize::try_from(n).unwrap_or(usize::MAX))
            .min(self.events.len());
    }
}

/// Generate-on-the-fly event source: an owned [`Walker`] bounded by an
/// instruction budget, never materializing the stream.
///
/// Budget semantics match [`Walker::run_instructions`]: events are
/// emitted until at least `instructions` *original program* instructions
/// have executed (injected prefetch ops do not count), overshooting by at
/// most one block — so a `WalkerSource` pass equals the `Vec` that
/// `run_instructions` would have collected, event for event.
#[derive(Debug)]
pub struct WalkerSource {
    program: Arc<Program>,
    input: InputConfig,
    instructions: u64,
    walker: Walker<Arc<Program>>,
    executed: u64,
}

impl WalkerSource {
    /// Starts a budgeted walk over an owned program.
    pub fn new(program: Arc<Program>, input: InputConfig, instructions: u64) -> Self {
        let walker = Walker::new(Arc::clone(&program), input);
        WalkerSource {
            program,
            input,
            instructions,
            walker,
            executed: 0,
        }
    }

    /// The walked program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The instruction budget bounding each pass.
    pub fn instruction_budget(&self) -> u64 {
        self.instructions
    }
}

impl Iterator for WalkerSource {
    type Item = BlockEvent;

    fn next(&mut self) -> Option<BlockEvent> {
        if self.executed >= self.instructions {
            return None;
        }
        let ev = self.walker.next().expect("walker is infinite");
        self.executed += u64::from(self.program.block(ev.block).num_instrs);
        Some(ev)
    }
}

impl sealed::Sealed for WalkerSource {}

impl EventSource for WalkerSource {
    fn reset(&mut self) {
        self.walker = Walker::new(Arc::clone(&self.program), self.input);
        self.executed = 0;
    }

    fn event_count(&self) -> Option<u64> {
        // Bounded by instructions, not a pre-known event count.
        None
    }
}

/// Out-of-core event source streaming a `.twgc` file chunk by chunk.
///
/// Holds one decoded chunk (`chunk_target` events) resident at a time;
/// pages of consumed chunks are returned to the OS, so RSS stays flat
/// over arbitrarily long traces. Decode failures after a successful open
/// (a chunk whose CRC no longer matches) panic: the file validated
/// structurally at open, so mid-stream corruption means the storage
/// mutated under a running experiment — a fail-fast integrity violation,
/// handled like every torn artifact in this harness (crash, supervise,
/// recover).
#[derive(Debug)]
pub struct ColumnarSource {
    reader: Arc<ColumnarReader>,
    chunk: usize,
    buf: Vec<BlockEvent>,
    pos: usize,
}

impl ColumnarSource {
    /// Opens a `.twgc` file (validating header, directory, and footer).
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] from [`ColumnarReader::open`].
    pub fn open(path: &std::path::Path) -> Result<Self, TraceError> {
        Ok(Self::from_reader(Arc::new(ColumnarReader::open(path)?)))
    }

    /// Wraps an already-open reader (shared by every source the harness
    /// derives from one cached trace).
    pub fn from_reader(reader: Arc<ColumnarReader>) -> Self {
        ColumnarSource {
            reader,
            chunk: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The underlying reader (chunk summaries, totals).
    pub fn reader(&self) -> &ColumnarReader {
        &self.reader
    }

    /// Loads the next chunk into the reuse buffer; false at end of trace.
    fn load_next_chunk(&mut self) -> bool {
        if self.chunk >= self.reader.chunk_count() {
            return false;
        }
        self.reader
            .decode_chunk_into(self.chunk, &mut self.buf)
            .unwrap_or_else(|e| panic!("trace chunk {} corrupted mid-stream: {e}", self.chunk));
        if self.chunk > 0 {
            self.reader.release_chunk(self.chunk - 1);
        }
        self.chunk += 1;
        self.pos = 0;
        true
    }
}

impl Iterator for ColumnarSource {
    type Item = BlockEvent;

    fn next(&mut self) -> Option<BlockEvent> {
        loop {
            if let Some(ev) = self.buf.get(self.pos).copied() {
                self.pos += 1;
                return Some(ev);
            }
            if !self.load_next_chunk() {
                return None;
            }
        }
    }
}

impl sealed::Sealed for ColumnarSource {}

impl EventSource for ColumnarSource {
    fn reset(&mut self) {
        self.chunk = 0;
        self.buf.clear();
        self.pos = 0;
    }

    fn event_count(&self) -> Option<u64> {
        Some(self.reader.total_events())
    }

    fn skip_events(&mut self, mut n: u64) {
        // Drain the resident chunk first.
        let buffered = (self.buf.len() - self.pos) as u64;
        if n <= buffered {
            self.pos += n as usize;
            return;
        }
        n -= buffered;
        self.buf.clear();
        self.pos = 0;
        // Macro-block fast-forward: leap whole chunks via the directory
        // without decoding (or faulting in) their payloads.
        while let Some(summary) = self.reader.summaries().get(self.chunk) {
            if u64::from(summary.events) > n {
                break;
            }
            n -= u64::from(summary.events);
            self.chunk += 1;
        }
        if n > 0 && self.load_next_chunk() {
            self.pos = (n as usize).min(self.buf.len());
        }
    }
}

/// A runtime-selected event source: one of the three concrete backings.
///
/// Call sites that know the backing statically should use the concrete
/// type; hot loops handed an `AnySource` should `match` once and run each
/// arm monomorphized. The enum also implements [`EventSource`] directly
/// (delegating per call) for paths where per-event dispatch is noise.
#[derive(Debug)]
pub enum AnySource {
    /// In-memory slice.
    Mem(MemSource),
    /// Live walker, generate-on-the-fly.
    Walker(WalkerSource),
    /// Out-of-core columnar file.
    Columnar(ColumnarSource),
}

impl From<MemSource> for AnySource {
    fn from(s: MemSource) -> Self {
        AnySource::Mem(s)
    }
}

impl From<WalkerSource> for AnySource {
    fn from(s: WalkerSource) -> Self {
        AnySource::Walker(s)
    }
}

impl From<ColumnarSource> for AnySource {
    fn from(s: ColumnarSource) -> Self {
        AnySource::Columnar(s)
    }
}

impl From<Vec<BlockEvent>> for AnySource {
    fn from(events: Vec<BlockEvent>) -> Self {
        AnySource::Mem(events.into())
    }
}

impl Iterator for AnySource {
    type Item = BlockEvent;

    fn next(&mut self) -> Option<BlockEvent> {
        match self {
            AnySource::Mem(s) => s.next(),
            AnySource::Walker(s) => s.next(),
            AnySource::Columnar(s) => s.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            AnySource::Mem(s) => s.size_hint(),
            AnySource::Walker(_) => (0, None),
            AnySource::Columnar(_) => (0, None),
        }
    }
}

impl sealed::Sealed for AnySource {}

impl EventSource for AnySource {
    fn reset(&mut self) {
        match self {
            AnySource::Mem(s) => s.reset(),
            AnySource::Walker(s) => s.reset(),
            AnySource::Columnar(s) => s.reset(),
        }
    }

    fn event_count(&self) -> Option<u64> {
        match self {
            AnySource::Mem(s) => s.event_count(),
            AnySource::Walker(s) => s.event_count(),
            AnySource::Columnar(s) => s.event_count(),
        }
    }

    fn skip_events(&mut self, n: u64) {
        match self {
            AnySource::Mem(s) => s.skip_events(n),
            AnySource::Walker(s) => s.skip_events(n),
            AnySource::Columnar(s) => s.skip_events(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::encode_columnar_chunked;
    use crate::{ProgramGenerator, WorkloadSpec};

    fn tiny() -> Arc<Program> {
        Arc::new(ProgramGenerator::new(WorkloadSpec::tiny_test()).generate())
    }

    #[test]
    fn walker_source_matches_run_instructions() {
        let p = tiny();
        let budget = 20_000u64;
        let reference = Walker::new(p.as_ref(), InputConfig::numbered(3)).run_instructions(budget);
        let streamed: Vec<_> =
            WalkerSource::new(Arc::clone(&p), InputConfig::numbered(3), budget).collect();
        assert_eq!(streamed, reference);
    }

    #[test]
    fn walker_source_reset_replays_identically() {
        let p = tiny();
        let mut source = WalkerSource::new(p, InputConfig::numbered(1), 5_000);
        let first: Vec<_> = source.by_ref().collect();
        source.reset();
        let second: Vec<_> = source.by_ref().collect();
        assert_eq!(first, second);
        assert!(!first.is_empty());
    }

    #[test]
    fn columnar_source_streams_and_resets() {
        let p = tiny();
        let events: Vec<_> = Walker::new(p.as_ref(), InputConfig::numbered(0))
            .take(5_000)
            .collect();
        let bytes = encode_columnar_chunked(&events, 300);
        let reader = Arc::new(ColumnarReader::from_bytes(bytes).unwrap());
        let mut source = ColumnarSource::from_reader(reader);
        assert_eq!(source.event_count(), Some(events.len() as u64));
        let first: Vec<_> = source.by_ref().collect();
        assert_eq!(first, events);
        source.reset();
        let second: Vec<_> = source.by_ref().collect();
        assert_eq!(second, events);
    }

    #[test]
    fn skip_events_agrees_across_sources() {
        let p = tiny();
        let events: Vec<_> = Walker::new(p.as_ref(), InputConfig::numbered(2))
            .take(4_000)
            .collect();
        let bytes = encode_columnar_chunked(&events, 128);
        for skip in [0u64, 1, 127, 128, 129, 1000, 3_999, 4_000, 9_999] {
            let expect: Vec<_> = events.iter().copied().skip(skip as usize).collect();
            let mut mem = MemSource::from(events.clone());
            mem.skip_events(skip);
            assert_eq!(mem.collect::<Vec<_>>(), expect, "mem skip={skip}");
            let mut col = ColumnarSource::from_reader(Arc::new(
                ColumnarReader::from_bytes(bytes.clone()).unwrap(),
            ));
            col.skip_events(skip);
            assert_eq!(col.collect::<Vec<_>>(), expect, "columnar skip={skip}");
        }
    }

    #[test]
    fn columnar_skip_then_resume_mid_chunk() {
        let p = tiny();
        let events: Vec<_> = Walker::new(p.as_ref(), InputConfig::numbered(0))
            .take(1_000)
            .collect();
        let bytes = encode_columnar_chunked(&events, 64);
        let mut source = ColumnarSource::from_reader(Arc::new(
            ColumnarReader::from_bytes(bytes).unwrap(),
        ));
        // Consume a few, then skip across several chunk boundaries.
        let head: Vec<_> = source.by_ref().take(10).collect();
        assert_eq!(head, events[..10]);
        source.skip_events(500);
        let tail: Vec<_> = source.collect();
        assert_eq!(tail, events[510..]);
    }

    #[test]
    fn any_source_dispatches_all_backings() {
        let p = tiny();
        let events: Vec<_> = Walker::new(p.as_ref(), InputConfig::numbered(0))
            .take(200)
            .collect();
        let bytes = encode_columnar_chunked(&events, 64);
        let sources: Vec<AnySource> = vec![
            MemSource::from(events.clone()).into(),
            ColumnarSource::from_reader(Arc::new(ColumnarReader::from_bytes(bytes).unwrap()))
                .into(),
        ];
        for mut source in sources {
            let collected: Vec<_> = source.by_ref().collect();
            assert_eq!(collected, events);
            source.reset();
            assert_eq!(source.count(), events.len());
        }
    }
}
