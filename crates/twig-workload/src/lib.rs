//! Synthetic data-center workloads for the Twig reproduction.
//!
//! The paper (Khan et al., *Twig: Profile-Guided BTB Prefetching for Data
//! Center Applications*, MICRO 2021) evaluates nine production applications
//! via Intel PT traces. This crate supplies the substitute: a deterministic
//! generator of multi-megabyte synthetic programs with the control-flow
//! statistics of data-center services, a stochastic [`Walker`] producing
//! dynamic instruction streams, and a compact PT-like [`columnar`] trace
//! format.
//!
//! # Quick start
//!
//! ```
//! use twig_workload::{AppId, InputConfig, ProgramGenerator, Walker, WorkloadSpec};
//!
//! // A tiny spec for doc purposes; use `WorkloadSpec::preset(AppId::Kafka)`
//! // for a paper-scale application.
//! let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
//! let events = Walker::new(&program, InputConfig::numbered(0)).run_instructions(10_000);
//! assert!(!events.is_empty());
//! let _ = AppId::ALL; // nine paper applications
//! ```
//!
//! # Trace format
//!
//! Traces live on disk in one encoding, `.twgc` v1 ([`columnar`]):
//!
//! * **layout** — columnar chunks: packed taken/target bits + LEB128 id
//!   columns;
//! * **integrity** — CRC per chunk + CRC'd directory/footer; torn tails
//!   are rejected at open;
//! * **random access** — a chunk directory with branch-density summaries
//!   (macro-block fast-forward);
//! * **reader** — mmap'd, one chunk resident at a time.
//!
//! Consumers are backing-agnostic: anything that takes an [`EventSource`]
//! accepts an in-memory slice ([`MemSource`]), a live generative walk
//! ([`WalkerSource`]), or an out-of-core columnar stream
//! ([`ColumnarSource`]) — see [`source`] for the contract.

// `deny` rather than `forbid`: the one `#[allow(unsafe_code)]` island is
// the hand-written mmap binding in `mapped::sys`, which the out-of-core
// trace reader needs for zero-copy access with bounded residency.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod columnar;
pub mod generator;
pub mod inputs;
pub mod layout;
pub mod mapped;
pub mod phases;
pub mod program;
pub mod source;
pub mod spec;
pub mod stats;
pub mod walker;

pub use builder::ProgramBuilder;
pub use columnar::{
    decode_columnar, encode_columnar, encode_columnar_chunked, write_columnar_file, ChunkSummary,
    ColumnarReader, ColumnarWriter, TraceError, DEFAULT_CHUNK_EVENTS,
};
pub use generator::ProgramGenerator;
pub use inputs::InputConfig;
pub use layout::{LayoutOptions, LibrarySplit};
pub use mapped::MappedBytes;
pub use phases::{LoadPhase, PhaseSchedule};
pub use program::{
    BasicBlock, Function, LineBranch, LineIndex, Program, TargetSpan, TargetTables, Terminator,
};
pub use source::{AnySource, ColumnarSource, EventSource, MemSource, WalkerSource};
pub use spec::{AppId, Span, Span1, SpecError, TerminatorMix, WorkloadSpec};
pub use stats::{StaticStats, WorkingSet};
pub use walker::{BlockEvent, Walker};
