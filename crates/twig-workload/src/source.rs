//! The streaming trace-ingestion API: owned, cloneable event iterators.
//!
//! Every consumer of dynamic control flow — the simulator, the LBR
//! profiler, the benchmark harness, the fleet service — used to receive a
//! materialized `Vec<BlockEvent>`/`Arc<[BlockEvent]>`, capping cells at
//! what fits in RAM. A trace is now any `Iterator<Item = BlockEvent> +
//! Clone`: **owned** (no borrowed program, no `Rc<RefCell>` graph) and
//! **replayable by cloning** — a clone shares the backing store and
//! carries its own cursor, so an unread source handed to several passes
//! (profile, baseline, ideal, Twig) yields the identical stream to each.
//!
//! Three implementations cover the design space:
//!
//! * [`MemSource`] — a shared in-memory slice; the right choice for small
//!   traces and tests, and the representation every cached artifact used
//!   before this API existed.
//! * [`WalkerSource`] — generates events on the fly from an owned
//!   [`Walker`], never materializing; a clone carries the walker's RNG
//!   state, so it replays the same suffix.
//! * [`ColumnarSource`] — streams a `.twgc` file chunk by chunk through
//!   the mmap-backed [`ColumnarReader`] in bounded resident memory. Its
//!   [`Iterator::nth`] leaps whole chunks through the directory, so
//!   `.skip(n)` never decodes the chunks it skips.
//!
//! [`AnySource`] packages the three for call sites that pick a backing
//! store at runtime (the artifact cache, the harness, the CLI) and
//! dispatches per event. The simulator consumes it directly: one
//! predictable branch per event is noise next to the simulation work
//! each event costs.

use std::borrow::Borrow;
use std::sync::Arc;

use crate::columnar::{ColumnarReader, TraceError};
use crate::inputs::InputConfig;
use crate::program::Program;
use crate::walker::{BlockEvent, Walker};

/// In-memory event source over a shared slice.
///
/// # Examples
///
/// ```
/// use twig_workload::{BlockEvent, MemSource};
/// use twig_types::BlockId;
///
/// let ev = BlockEvent { block: BlockId::new(1), taken: false, target: None };
/// let mut source = MemSource::from(vec![ev; 3]);
/// let replay = source.clone();
/// assert_eq!(source.by_ref().count(), 3);
/// assert_eq!(source.next(), None);
/// assert_eq!(replay.size_hint(), (3, Some(3)));
/// ```
#[derive(Clone, Debug)]
pub struct MemSource {
    events: SharedEvents,
    pos: usize,
}

/// The shared backing of a [`MemSource`]. Traces built in memory arrive as
/// a `Vec` and stay one behind an `Arc` (`Arc<[T]>::from(vec)` would copy
/// the whole trace); the slice arm serves callers that already hold an
/// `Arc<[BlockEvent]>` (the `perfbench` harness's traces) without a copy.
#[derive(Clone, Debug)]
enum SharedEvents {
    Slice(Arc<[BlockEvent]>),
    Vec(Arc<Vec<BlockEvent>>),
}

impl MemSource {
    /// Wraps a shared slice without copying.
    pub fn new(events: Arc<[BlockEvent]>) -> Self {
        MemSource {
            events: SharedEvents::Slice(events),
            pos: 0,
        }
    }

    /// The backing slice (all events, independent of the cursor).
    #[inline]
    pub fn as_slice(&self) -> &[BlockEvent] {
        match &self.events {
            SharedEvents::Slice(events) => events,
            SharedEvents::Vec(events) => events,
        }
    }
}

/// Moves the events behind an `Arc` without copying them.
impl From<Vec<BlockEvent>> for MemSource {
    fn from(events: Vec<BlockEvent>) -> Self {
        Arc::new(events).into()
    }
}

/// Shares the events without copying them.
impl From<Arc<Vec<BlockEvent>>> for MemSource {
    fn from(events: Arc<Vec<BlockEvent>>) -> Self {
        MemSource {
            events: SharedEvents::Vec(events),
            pos: 0,
        }
    }
}

impl From<Arc<[BlockEvent]>> for MemSource {
    fn from(events: Arc<[BlockEvent]>) -> Self {
        MemSource::new(events)
    }
}

impl Iterator for MemSource {
    type Item = BlockEvent;

    #[inline]
    fn next(&mut self) -> Option<BlockEvent> {
        let ev = self.as_slice().get(self.pos).copied()?;
        self.pos += 1;
        Some(ev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.as_slice().len() - self.pos;
        (left, Some(left))
    }
}

/// Generate-on-the-fly event source: a [`Walker`] bounded by an
/// instruction budget, never materializing the stream.
///
/// The budget rule lives here alone: events are emitted until at least
/// `instructions` *original program* instructions have executed (injected
/// prefetch ops do not count), overshooting by at most one block.
/// [`Walker::run_instructions`] collects exactly this stream, so a
/// `WalkerSource` pass equals its `Vec`, event for event.
///
/// Generic over how the program is held, like [`Walker`]; the owning
/// `Arc<Program>` default is the self-contained source the harness caches.
#[derive(Clone, Debug)]
pub struct WalkerSource<P: Borrow<Program> = Arc<Program>> {
    walker: Walker<P>,
    instructions: u64,
    executed: u64,
}

impl<P: Borrow<Program>> WalkerSource<P> {
    /// Starts a budgeted walk of `program` under `input`.
    pub fn new(program: P, input: InputConfig, instructions: u64) -> Self {
        Self::budgeted(Walker::new(program, input), instructions)
    }

    /// Bounds an existing walk by `instructions`.
    pub(crate) fn budgeted(walker: Walker<P>, instructions: u64) -> Self {
        WalkerSource {
            walker,
            instructions,
            executed: 0,
        }
    }

    /// The walked program.
    pub fn program(&self) -> &Program {
        self.walker.program()
    }

    /// The instruction budget bounding the walk.
    pub fn instruction_budget(&self) -> u64 {
        self.instructions
    }
}

impl<P: Borrow<Program>> Iterator for WalkerSource<P> {
    type Item = BlockEvent;

    #[inline]
    fn next(&mut self) -> Option<BlockEvent> {
        if self.executed >= self.instructions {
            return None;
        }
        let ev = self.walker.next()?;
        self.executed += u64::from(self.walker.program().block(ev.block).num_instrs);
        Some(ev)
    }
}

/// Out-of-core event source streaming a `.twgc` file chunk by chunk.
///
/// Holds one decoded chunk resident at a time; pages of consumed chunks
/// are returned to the OS, so RSS stays flat over arbitrarily long
/// traces. A chunk's checksum is verified as it is decoded: callers that
/// read traces they did not just write step with [`Self::try_nth`],
/// which returns a corrupt chunk as a [`TraceError`]. As an [`Iterator`]
/// the source panics on one instead: the harness reads only traces it
/// wrote itself, so mid-stream corruption means the storage mutated under
/// a running experiment — a fail-fast integrity violation, handled like
/// every torn artifact in this harness (crash, supervise, recover).
#[derive(Clone, Debug)]
pub struct ColumnarSource {
    reader: Arc<ColumnarReader>,
    chunk: usize,
    buf: Vec<BlockEvent>,
    pos: usize,
}

impl ColumnarSource {
    /// Opens a `.twgc` file (validating its head, directory and tail).
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

    /// [`Iterator::nth`] that returns a corrupt chunk as an error.
    ///
    /// Macro-block fast-forward: drains the resident chunk, then leaps
    /// whole chunks via the directory without decoding (or faulting in)
    /// their payloads, decoding only the chunk it lands in. `try_nth(0)`
    /// is the fallible `next`.
    ///
    /// # Errors
    ///
    /// The [`TraceError`] of the chunk it lands in; the source then stays
    /// before that chunk.
    pub fn try_nth(&mut self, n: usize) -> Result<Option<BlockEvent>, TraceError> {
        let buffered = self.buf.len() - self.pos;
        if n < buffered {
            self.pos += n + 1;
            return Ok(Some(self.buf[self.pos - 1]));
        }
        let mut n = (n - buffered) as u64;
        self.buf.clear();
        self.pos = 0;
        while let Some(summary) = self.reader.summaries().get(self.chunk) {
            if u64::from(summary.events) > n {
                break;
            }
            n -= u64::from(summary.events);
            self.chunk += 1;
        }
        if self.chunk >= self.reader.chunk_count() {
            return Ok(None);
        }
        if let Err(e) = self.reader.decode_chunk_into(self.chunk, &mut self.buf) {
            self.buf.clear();
            return Err(e);
        }
        if self.chunk > 0 {
            self.reader.release_chunk(self.chunk - 1);
        }
        self.chunk += 1;
        // The landing chunk holds more than `n` events.
        self.pos = n as usize + 1;
        Ok(Some(self.buf[n as usize]))
    }
}

impl Iterator for ColumnarSource {
    type Item = BlockEvent;

    #[inline]
    fn next(&mut self) -> Option<BlockEvent> {
        match self.buf.get(self.pos) {
            Some(&ev) => {
                self.pos += 1;
                Some(ev)
            }
            None => self.nth(0),
        }
    }

    /// Exact: the rest of the resident chunk plus every later chunk.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let later = self.reader.total_events() - self.reader.first_event(self.chunk);
        let left = (self.buf.len() - self.pos) as u64 + later;
        let left = usize::try_from(left).unwrap_or(usize::MAX);
        (left, Some(left))
    }

    /// [`Self::try_nth`], panicking on a corrupt chunk. `Skip` calls this,
    /// so `.skip(n)` costs at most one chunk decode.
    fn nth(&mut self, n: usize) -> Option<BlockEvent> {
        self.try_nth(n)
            .unwrap_or_else(|e| panic!("trace chunk {} corrupted mid-stream: {e}", self.chunk))
    }
}

/// A runtime-selected event source: one of the three concrete backings.
///
/// Call sites that know the backing statically use the concrete type; a
/// hot loop handed an `AnySource` runs on it directly. A clone shares the
/// backing (slice, mapped file, program) and carries its own cursor, so
/// one unread source can be handed out many times.
#[derive(Clone, Debug)]
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
            AnySource::Columnar(s) => s.size_hint(),
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

    fn columnar(events: &[BlockEvent], chunk: u32) -> ColumnarSource {
        let bytes = encode_columnar_chunked(events, chunk);
        ColumnarSource::from_reader(Arc::new(ColumnarReader::from_bytes(bytes).unwrap()))
    }

    /// `From<Vec>` moves the events: the source reads the `Vec`'s own
    /// buffer, and clones share it and replay from their own cursor.
    #[test]
    fn mem_source_from_vec_keeps_the_buffer() {
        let events = Walker::new(&*tiny(), crate::InputConfig::numbered(0)).run_instructions(5_000);
        let (ptr, expect) = (events.as_ptr(), events.clone());
        let mut source = MemSource::from(events);
        assert_eq!(source.as_slice().as_ptr(), ptr);
        let clone = source.clone();
        assert_eq!(clone.as_slice().as_ptr(), ptr);
        assert_eq!(source.size_hint(), (expect.len(), Some(expect.len())));
        assert_eq!(source.by_ref().collect::<Vec<_>>(), expect);
        assert_eq!(source.next(), None);
        assert_eq!(clone.clone().nth(3), Some(expect[3]));
        assert_eq!(clone.collect::<Vec<_>>(), expect);
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

    /// A clone taken before the first event replays the whole walk; one
    /// taken mid-walk replays the same suffix under the same budget.
    #[test]
    fn walker_source_clone_replays_identically() {
        let p = tiny();
        let mut source = WalkerSource::new(p, InputConfig::numbered(1), 5_000);
        let replay = source.clone();
        let head: Vec<_> = source.by_ref().take(100).collect();
        let mid = source.clone();
        let tail: Vec<_> = source.collect();
        let first: Vec<_> = replay.collect();
        assert_eq!(first, [head, tail.clone()].concat());
        assert_eq!(mid.collect::<Vec<_>>(), tail);
        assert!(!tail.is_empty());
    }

    #[test]
    fn columnar_source_streams_and_clones_replay() {
        let p = tiny();
        let events: Vec<_> = Walker::new(p.as_ref(), InputConfig::numbered(0))
            .take(5_000)
            .collect();
        let mut source = columnar(&events, 300);
        let replay = source.clone();
        assert_eq!(source.size_hint(), (events.len(), Some(events.len())));
        let first: Vec<_> = source.by_ref().collect();
        assert_eq!(first, events);
        assert_eq!(source.next(), None);
        let second: Vec<_> = replay.collect();
        assert_eq!(second, events);
    }

    /// `.skip(n)` and `nth(n)` land on the same event on every backing,
    /// including at and across chunk boundaries and past the end.
    #[test]
    fn skip_events_agrees_across_sources() {
        let p = tiny();
        let walk = WalkerSource::new(Arc::clone(&p), InputConfig::numbered(2), 16_000);
        let events: Vec<_> = walk.clone().collect();
        let n = events.len();
        assert!(n > 1_000, "the walk spans several chunks: {n}");
        let col = columnar(&events, 128);
        let sources: Vec<AnySource> = vec![
            MemSource::from(events.clone()).into(),
            walk.into(),
            col.clone().into(),
        ];
        for skip in [0, 1, 127, 128, 129, 1000, n - 1, n, n + 5_999] {
            let expect: Vec<_> = events.iter().copied().skip(skip).collect();
            for source in &sources {
                assert_eq!(source.clone().skip(skip).collect::<Vec<_>>(), expect, "skip={skip}");
                assert_eq!(source.clone().nth(skip), events.get(skip).copied(), "nth={skip}");
            }
            // `AnySource` steps; the concrete columnar source leaps chunks.
            assert_eq!(col.clone().skip(skip).collect::<Vec<_>>(), expect, "columnar skip={skip}");
            assert_eq!(col.clone().nth(skip), events.get(skip).copied(), "columnar nth={skip}");
        }
    }

    /// `size_hint` is exact before, inside and across chunk boundaries,
    /// after chunk leaps and at the end; a clone keeps the full count.
    #[test]
    fn columnar_size_hint_is_exact() {
        let p = tiny();
        let events: Vec<_> = Walker::new(p.as_ref(), InputConfig::numbered(0))
            .take(1_000)
            .collect();
        let mut source = columnar(&events, 64);
        let replay = source.clone();
        let exact = |source: &ColumnarSource, left: usize| {
            assert_eq!(source.size_hint(), (left, Some(left)));
        };
        exact(&source, 1_000);
        for consumed in 1..=200 {
            source.next().unwrap();
            exact(&source, 1_000 - consumed);
        }
        assert_eq!(source.nth(299), Some(events[499]));
        exact(&source, 500);
        assert_eq!(source.nth(63), Some(events[563]));
        exact(&source, 436);
        let rest: Vec<_> = source.by_ref().take(436).collect();
        assert!(rest.capacity() < 512, "one allocation of the exact size");
        exact(&source, 0);
        assert_eq!(source.next(), None);
        exact(&replay, 1_000);
        let any = AnySource::from(replay);
        assert_eq!(any.size_hint(), (1_000, Some(1_000)));
    }

    /// Stepping, then leaping across several chunk boundaries, resumes
    /// mid-chunk at the right event; repeated `nth` equals stepping.
    #[test]
    fn columnar_skip_then_resume_mid_chunk() {
        let p = tiny();
        let events: Vec<_> = Walker::new(p.as_ref(), InputConfig::numbered(0))
            .take(1_000)
            .collect();
        let mut source = columnar(&events, 64);
        let head: Vec<_> = source.by_ref().take(10).collect();
        assert_eq!(head, events[..10]);
        let tail: Vec<_> = source.by_ref().skip(500).collect();
        assert_eq!(tail, events[510..]);

        let mut leaping = columnar(&events, 64);
        let mut stepping = events.iter().copied();
        for gap in [0, 3, 60, 64, 65, 127, 200, 1, 0, 400] {
            assert_eq!(leaping.nth(gap), stepping.nth(gap), "gap={gap}");
        }
    }

    /// Every backing streams the same events through the enum, and a
    /// clone taken mid-chunk replays the same suffix as its original.
    #[test]
    fn any_source_dispatches_all_backings() {
        let p = tiny();
        let walk = WalkerSource::new(Arc::clone(&p), InputConfig::numbered(0), 2_000);
        let events: Vec<_> = walk.clone().collect();
        assert!(events.len() > 200);
        let sources: Vec<AnySource> = vec![
            MemSource::from(events.clone()).into(),
            walk.into(),
            columnar(&events, 64).into(),
        ];
        for source in sources {
            assert_eq!(source.clone().collect::<Vec<_>>(), events);
            let mut source = source;
            assert_eq!(source.by_ref().take(100).count(), 100);
            let mid = source.clone();
            assert_eq!(source.collect::<Vec<_>>(), events[100..]);
            assert_eq!(mid.collect::<Vec<_>>(), events[100..]);
        }
    }
}
