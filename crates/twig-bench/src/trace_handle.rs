//! Spillable trace handles: what the artifact cache's event-trace shard
//! actually stores.
//!
//! Small traces (every standard cell) stay materialized in memory exactly
//! as before. A trace whose event count crosses the spill threshold
//! ([`SPILL_EVENTS`](crate::cache::SPILL_EVENTS), 8M events) is written
//! once to an on-disk `.twgc` columnar file — atomically, via the
//! durability layer — and handed out as an mmap-backed handle that
//! streams with one chunk resident at a time, so a 50M-event trace no
//! longer costs gigabytes of heap per process.
//!
//! Either way the handle is keyed and fingerprinted like the old
//! `Arc<[BlockEvent]>` entries, and [`TraceHandle::source`] yields an
//! [`AnySource`] that every simulation/observation path consumes without
//! caring which backing it got.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use twig_workload::{
    AnySource, AppId, BlockEvent, ColumnarReader, ColumnarSource, InputConfig, MemSource,
    Program, Walker,
};

use crate::cache::Fingerprint;

/// One cached event trace: in memory, or spilled to a `.twgc` file.
#[derive(Clone)]
pub enum TraceHandle {
    /// Fully materialized (small traces; the common case).
    Mem(Arc<[BlockEvent]>),
    /// Spilled to columnar storage; streamed back via mmap with bounded
    /// resident memory.
    Spilled(Arc<ColumnarReader>),
}

impl TraceHandle {
    /// Total number of events in the trace.
    pub fn event_count(&self) -> u64 {
        match self {
            TraceHandle::Mem(events) => events.len() as u64,
            TraceHandle::Spilled(reader) => reader.total_events(),
        }
    }

    /// Whether the trace lives on disk.
    pub fn is_spilled(&self) -> bool {
        matches!(self, TraceHandle::Spilled(_))
    }

    /// A fresh resettable source over the trace. Cheap for both backings
    /// (an `Arc` clone); spilled traces decode one chunk at a time.
    pub fn source(&self) -> AnySource {
        match self {
            TraceHandle::Mem(events) => MemSource::new(Arc::clone(events)).into(),
            TraceHandle::Spilled(reader) => {
                ColumnarSource::from_reader(Arc::clone(reader)).into()
            }
        }
    }

    /// The whole trace as one in-memory slice. For `Mem` this is a free
    /// `Arc` clone; for `Spilled` it decodes the entire file — only test
    /// and small-trace comparison code should call it on a spilled handle.
    pub fn materialize(&self) -> Arc<[BlockEvent]> {
        match self {
            TraceHandle::Mem(events) => Arc::clone(events),
            TraceHandle::Spilled(reader) => reader
                .read_all()
                .expect("spilled trace validated at open must decode")
                .into(),
        }
    }
}

impl From<Vec<BlockEvent>> for TraceHandle {
    fn from(events: Vec<BlockEvent>) -> Self {
        TraceHandle::Mem(events.into())
    }
}

impl From<Arc<[BlockEvent]>> for TraceHandle {
    fn from(events: Arc<[BlockEvent]>) -> Self {
        TraceHandle::Mem(events)
    }
}

impl Fingerprint for TraceHandle {
    fn fingerprint(&self) -> u64 {
        match self {
            TraceHandle::Mem(events) => events.fingerprint(),
            // A spilled trace's data integrity is already covered by the
            // per-chunk CRCs verified on decode; the handle fingerprint
            // covers the *directory* shape (counts and offsets), which is
            // what a poisoned cache entry would perturb.
            TraceHandle::Spilled(reader) => {
                let mut h = crate::cache::mix(crate::cache::FNV_OFFSET, reader.total_events());
                for s in reader.summaries() {
                    h = crate::cache::mix(h, s.offset);
                    h = crate::cache::mix(h, u64::from(s.events));
                    h = crate::cache::mix(h, u64::from(s.taken));
                    h = crate::cache::mix(h, u64::from(s.targets));
                }
                h
            }
        }
    }
}

/// The per-process spill directory (under the system temp dir; spill
/// files are cache state, not results, and a crashed process's leftovers
/// are keyed by pid so a new run never trips over them).
fn spill_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("twig-spill-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir
    })
}

/// The spill file for one `(app, input, instructions)` trace key.
pub(crate) fn spill_path(app: AppId, input: u32, instructions: u64) -> PathBuf {
    spill_dir().join(format!("{}-i{input}-n{instructions}.twgc", app.name()))
}

/// Walks the event trace for `(program, input)` bounded by `instructions`,
/// spilling to `path` once the buffered prefix crosses `threshold` events.
/// Event-for-event identical to [`Walker::run_instructions`] regardless of
/// which backing comes out.
pub(crate) fn collect_trace(
    program: &Program,
    input: InputConfig,
    instructions: u64,
    threshold: Option<u64>,
    path: impl FnOnce() -> PathBuf,
) -> TraceHandle {
    let threshold = threshold.unwrap_or(u64::MAX);
    let mut walker = Walker::new(program, input);
    let mut buffered: Vec<BlockEvent> = Vec::new();
    let mut executed: u64 = 0;
    while executed < instructions {
        let Some(ev) = walker.next() else { break };
        executed += u64::from(program.block(ev.block).num_instrs);
        buffered.push(ev);
        if buffered.len() as u64 >= threshold {
            let path = path();
            match spill_to_disk(program, walker, buffered, executed, instructions, &path) {
                Ok(handle) => return handle,
                Err(e) => {
                    eprintln!(
                        "warning: trace spill to {} failed ({e}); keeping trace in memory",
                        path.display()
                    );
                    // The walker was consumed by the failed spill; redo
                    // the whole (deterministic) walk in memory.
                    return TraceHandle::Mem(
                        Walker::new(program, input).run_instructions(instructions).into(),
                    );
                }
            }
        }
    }
    TraceHandle::Mem(buffered.into())
}

/// Streams `buffered` plus the rest of the walk into a `.twgc` file and
/// re-opens it as a spilled handle. Peak memory is the buffered prefix
/// (the spill threshold) plus one encode chunk.
fn spill_to_disk(
    program: &Program,
    mut walker: Walker<&Program>,
    buffered: Vec<BlockEvent>,
    mut executed: u64,
    instructions: u64,
    path: &std::path::Path,
) -> std::io::Result<TraceHandle> {
    let tail = std::iter::from_fn(move || {
        if executed >= instructions {
            return None;
        }
        let ev = walker.next()?;
        executed += u64::from(program.block(ev.block).num_instrs);
        Some(ev)
    });
    twig_workload::write_columnar_file(path, buffered.into_iter().chain(tail))?;
    let reader = ColumnarReader::open(path).map_err(std::io::Error::other)?;
    Ok(TraceHandle::Spilled(Arc::new(reader)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_program() -> Program {
        twig_workload::ProgramGenerator::new(twig_workload::WorkloadSpec::tiny_test()).generate()
    }

    #[test]
    fn below_threshold_stays_in_memory_and_matches_walk() {
        let program = test_program();
        let input = InputConfig::numbered(0);
        let reference = Walker::new(&program, input).run_instructions(30_000);
        let handle = collect_trace(&program, input, 30_000, Some(u64::MAX), || {
            unreachable!("must not spill below threshold")
        });
        assert!(!handle.is_spilled());
        assert_eq!(&handle.materialize()[..], &reference[..]);
        assert_eq!(handle.event_count(), reference.len() as u64);
    }

    #[test]
    fn above_threshold_spills_and_streams_identically() {
        let program = test_program();
        let input = InputConfig::numbered(3);
        let reference = Walker::new(&program, input).run_instructions(30_000);
        let dir = std::env::temp_dir().join(format!("twig-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spill-roundtrip.twgc");
        let handle = collect_trace(&program, input, 30_000, Some(64), || path.clone());
        assert!(handle.is_spilled(), "64-event threshold must force a spill");
        assert_eq!(handle.event_count(), reference.len() as u64);
        assert_eq!(&handle.materialize()[..], &reference[..]);
        let streamed: Vec<BlockEvent> = handle.source().collect();
        assert_eq!(streamed, reference, "streaming decode must be bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_spill_falls_back_to_memory() {
        let program = test_program();
        let input = InputConfig::numbered(1);
        let reference = Walker::new(&program, input).run_instructions(20_000);
        // A spill path whose parent is a regular file fails the atomic
        // publish (ENOTDIR — the durable layer's create_dir_all cannot
        // help); the trace must still come back complete, in memory.
        let blocker =
            std::env::temp_dir().join(format!("twig-spill-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let bogus = blocker.join("never.twgc");
        let handle = collect_trace(&program, input, 20_000, Some(64), || bogus.clone());
        assert!(!handle.is_spilled());
        assert_eq!(&handle.materialize()[..], &reference[..]);
        let _ = std::fs::remove_file(&blocker);
    }
}
