//! A cycle-driven decoupled-frontend (FDIP) CPU simulator for the Twig
//! reproduction.
//!
//! This crate is the stand-in for the paper's Scarab-based infrastructure
//! (§4.1): a frontend-focused timing model with a branch prediction unit
//! (set-associative [`Btb`] + IBTB, [`Ras`], TAGE-like direction
//! prediction), a fetch target queue with fetch-directed instruction
//! prefetching, a three-level instruction-side [`MemoryHierarchy`], a BTB
//! [`PrefetchBuffer`], and Top-Down slot accounting.
//!
//! BTB organizations and prefetch policies plug in through the
//! [`BtbSystem`] trait; the baseline [`PlainBtb`] doubles as the FDIP
//! baseline (no injected ops) and the Twig configuration (program rewritten
//! with `brprefetch`/`brcoalesce`).
//!
//! # Example
//!
//! ```
//! use twig_sim::{PlainBtb, SimConfig, Simulator};
//! use twig_workload::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};
//!
//! let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
//! let config = SimConfig::default(); // the paper's Table 1
//! let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
//! let stats = sim.run(Walker::new(&program, InputConfig::numbered(0)), 50_000);
//! println!("IPC {:.2}, BTB MPKI {:.1}", stats.ipc(), stats.btb_mpki());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btb;
pub mod config;
pub mod core;
pub mod direction;
mod frontend_state;
pub mod icache;
pub mod integrity;
pub mod obs;
pub mod prefetch_buffer;
pub mod ras;
pub mod stats;
pub mod system;

pub use btb::{Btb, BtbEntry};
pub use config::{
    BtbGeometry, CacheGeometry, DirectionPredictorKind, SimConfig, SimConfigError,
};
pub use obs::{ObsState, TimelineState};
pub use twig_obs::{
    AttrConfig, AttributionSnapshot, ExportError, MetricsRegistry, MetricsSnapshot, MissKind,
    ObsConfig, ObsLevel, TimelineSnapshot,
};
pub use core::{HistoryEntry, MissObserver, Simulator, LBR_DEPTH};
pub use integrity::{
    Fault, IntegrityConfig, IntegrityLevel, IntegrityViolation, MutationKind, MutationSpec,
    Validator, ViolationKind,
};
pub use direction::{DirectionPredictor, Gshare, TageLite};
pub use icache::{AccessResult, FillSource, MemoryHierarchy, MemoryStats};
pub use prefetch_buffer::{BufferedEntry, PrefetchBuffer, PrefetchBufferStats};
pub use ras::Ras;
pub use stats::{speedup_percent, SimStats, TopDownSlots};
pub use system::{BtbSystem, FrontendCtx, LookupOutcome, PlainBtb, SoftwarePrefetcher};
