//! Baseline hardware BTB prefetchers for the Twig reproduction.
//!
//! The paper (§2.3, §4) compares Twig against the two state-of-the-art
//! hardware BTB prefetchers, both implemented here from their original
//! descriptions as [`BtbSystem`](twig_sim::BtbSystem)s pluggable into the
//! `twig-sim` frontend:
//!
//! - [`Shotgun`] — partitioned U-BTB/C-BTB with unconditional-branch-driven
//!   spatial-footprint prefetching (Kumar et al., ASPLOS 2018),
//! - [`Confluence`] — a line-synchronized AirBTB fed by SHIFT-style
//!   temporal streaming (Kaynak et al., MICRO 2015), adapted to
//!   variable-length instructions as the paper describes.
//!
//! The related-work BTB organizations the paper discusses (§5) are also
//! implemented, both as further baselines and to test Twig's claim of
//! independence from the BTB design:
//!
//! - [`CompressedBtb`] — a BTB-X-style delta-compressed, partitioned BTB,
//! - [`PhantomBtb`] — BTB virtualization into the L2 (Phantom-BTB),
//! - [`TwoLevelBtb`] — two-level bulk preload.
//!
//! Twig's own hardware support (the `brprefetch`/`brcoalesce` execution
//! path and the BTB prefetch buffer) lives in `twig_sim::PlainBtb`, because
//! Twig deliberately requires no change to the BTB organization (§3).
//!
//! # Example
//!
//! ```
//! use twig_prefetchers::Shotgun;
//! use twig_sim::{SimConfig, Simulator};
//! use twig_workload::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};
//!
//! let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
//! let config = SimConfig::default();
//! let mut sim = Simulator::new(&program, config, Shotgun::new(&config));
//! let stats = sim.run(Walker::new(&program, InputConfig::numbered(0)), 20_000);
//! assert!(stats.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btbx;
pub mod bulk_preload;
pub mod confluence;
pub mod phantom;
pub mod registry;
pub mod shotgun;
mod stream;

pub use btbx::CompressedBtb;
pub use bulk_preload::TwoLevelBtb;
pub use confluence::Confluence;
pub use phantom::PhantomBtb;
pub use registry::{by_name, UnknownPrefetcherError, VALID_NAMES};
pub use shotgun::Shotgun;
