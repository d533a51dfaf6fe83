//! The simulation integrity layer: cycle-granularity invariant checking,
//! differential reference models, watchdogs, and forensic state dumps.
//!
//! PR 1 rewrote the BTB into a flat single-`Vec` layout and monomorphized
//! the hot loop; this module is the correctness backstop that travels with
//! every future hot-loop optimization. It runs in three tiers selected via
//! [`SimConfig::integrity`](crate::SimConfig) or the `TWIG_INTEGRITY`
//! environment variable:
//!
//! * `off` — the default; no checks, zero work in the hot loop.
//! * `sampled[=N]` — cheap O(1) invariants every `N` cycles (default
//!   [`DEFAULT_SAMPLE_PERIOD`]), full structural scans every
//!   [`DEEP_PERIOD`] cycles.
//! * `paranoid` — cheap invariants every cycle, plus lockstep differential
//!   checking of the optimized [`Btb`](crate::Btb)/[`Ras`](crate::Ras)
//!   against deliberately naive reference models
//!   ([`refmodel::RefBtb`]/[`refmodel::RefRas`]).
//!
//! A failed check surfaces as a typed [`IntegrityViolation`] (not an
//! abort): the simulator serializes a cycle-stamped [`dump::StateDump`]
//! to `results/.integrity/` and returns the violation, which the
//! experiment harness degrades to a `FAILED(integrity: …)` cell.
//!
//! The mutation drill seeds a corruption ([`MutationSpec`]) for the
//! checks to catch: [`IntegrityConfig::mutate`] arms it directly, and a
//! `mutate:kind=<k>,cycle=<c>[,cell=<s>]` clause of `TWIG_FAULT_SPEC`
//! arms it in every simulation whose integrity label matches.

pub mod dump;
pub mod refmodel;
pub mod watchdog;

use std::path::PathBuf;

use twig_serde::{Deserialize, Serialize};

/// Default cycle period between cheap checks for the `sampled` tier.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 64;

/// Cycle period between full structural scans (BTB occupancy vs. live
/// entries, reference-model equality, cache tag arrays) in the `sampled`
/// and `paranoid` tiers. This bounds corruption-detection latency: a
/// seeded BTB-occupancy corruption is caught within one deep period.
pub const DEEP_PERIOD: u64 = 4096;

/// Livelock window: cycles with zero retired instructions and no
/// outstanding cache fill before the no-progress watchdog fires.
pub const LIVELOCK_WINDOW: u64 = 100_000;

/// Cycle budget as a multiple of the instruction budget (at least 2²²
/// cycles). With checking on, exhausting it is a typed `cycle-budget`
/// violation instead of the silent safety-valve break.
pub const CYCLE_BUDGET_FACTOR: u64 = 200;

/// Max total queued elements (FTQ + deliveries + retire queue + MSHR
/// map) before a `heap-budget` violation fires.
pub const HEAP_BUDGET: usize = 1 << 22;

pub use twig_sched::{MutationKind, MutationSpec};

/// How often invariant checks run inside the simulation loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum IntegrityLevel {
    /// No checking: the hot loop pays only one branch per cycle.
    #[default]
    Off,
    /// Cheap invariants once every `period` cycles.
    Sampled {
        /// Cycle period between cheap invariant sweeps (min 1).
        period: u64,
    },
    /// Cheap invariants every cycle plus differential reference models.
    Paranoid,
}

impl IntegrityLevel {
    /// Cycle period between cheap checks; `None` when checking is off.
    pub fn check_period(&self) -> Option<u64> {
        match *self {
            IntegrityLevel::Off => None,
            IntegrityLevel::Sampled { period } => Some(period.max(1)),
            IntegrityLevel::Paranoid => Some(1),
        }
    }

    /// Whether differential reference models shadow the real structures.
    pub fn differential(&self) -> bool {
        matches!(self, IntegrityLevel::Paranoid)
    }

    /// Parses `off` | `sampled` | `sampled=N` | `paranoid`.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text.trim() {
            "off" | "" => Ok(IntegrityLevel::Off),
            "paranoid" => Ok(IntegrityLevel::Paranoid),
            "sampled" => Ok(IntegrityLevel::Sampled {
                period: DEFAULT_SAMPLE_PERIOD,
            }),
            other => {
                if let Some(n) = other.strip_prefix("sampled=") {
                    let period: u64 = n
                        .parse()
                        .map_err(|_| format!("bad sample period {n:?} in {other:?}"))?;
                    if period == 0 {
                        return Err("sample period must be >= 1".into());
                    }
                    Ok(IntegrityLevel::Sampled { period })
                } else {
                    Err(format!(
                        "unknown integrity level {other:?} \
                         (expected off | sampled[=N] | paranoid)"
                    ))
                }
            }
        }
    }
}


/// Integrity-layer knobs, carried inside [`SimConfig`](crate::SimConfig).
///
/// `Copy` on purpose: `SimConfig` is `Copy`, so this struct holds no
/// heap state. The watchdog limits are the constants above, and a
/// violation always writes a forensic dump.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct IntegrityConfig {
    /// Checking tier.
    pub level: IntegrityLevel,
    /// Seeded corruption (the mutation drill). When `None`, a matching
    /// `mutate` clause of `TWIG_FAULT_SPEC` may arm one per run.
    pub mutate: Option<MutationSpec>,
}

impl IntegrityConfig {
    /// Checking disabled.
    pub fn off() -> Self {
        IntegrityConfig {
            level: IntegrityLevel::Off,
            mutate: None,
        }
    }

    /// Cheap checks every `period` cycles.
    pub fn sampled(period: u64) -> Self {
        IntegrityConfig {
            level: IntegrityLevel::Sampled { period },
            ..IntegrityConfig::off()
        }
    }

    /// Every-cycle checks plus differential reference models.
    pub fn paranoid() -> Self {
        IntegrityConfig {
            level: IntegrityLevel::Paranoid,
            ..IntegrityConfig::off()
        }
    }

    /// Builds from the environment via the unified harness configuration:
    /// `TWIG_INTEGRITY` selects the tier.
    pub fn from_env() -> Result<Self, String> {
        Self::from_harness(twig_types::HarnessConfig::global())
    }

    /// Builds from an already-parsed harness configuration (the tier
    /// grammar is owned here, not in `twig-types`).
    pub fn from_harness(harness: &twig_types::HarnessConfig) -> Result<Self, String> {
        let level = IntegrityLevel::parse(&harness.integrity.value)
            .map_err(|e| format!("TWIG_INTEGRITY: {e}"))?;
        Ok(IntegrityConfig {
            level,
            ..IntegrityConfig::off()
        })
    }

    /// Validates the tier (called from `SimConfig::validate`).
    pub fn validate(&self) -> Result<(), String> {
        if let IntegrityLevel::Sampled { period } = self.level {
            if period == 0 {
                return Err("integrity sample period must be >= 1".into());
            }
        }
        Ok(())
    }
}

impl Default for IntegrityConfig {
    /// The environment-selected configuration.
    ///
    /// # Panics
    ///
    /// Panics if `TWIG_INTEGRITY` is malformed — a misconfigured run must
    /// not silently fall back to `off`.
    fn default() -> Self {
        IntegrityConfig::from_env().expect("invalid integrity environment")
    }
}

/// What class of invariant a violation breached.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ViolationKind {
    /// A BTB per-set occupancy counter disagrees with its live entries.
    BtbOccupancy,
    /// Two live entries in one BTB set share a tag.
    BtbDuplicate,
    /// The optimized BTB diverged from the naive reference model.
    BtbDivergence,
    /// RAS depth/top outside the structure's bounds.
    RasBounds,
    /// The circular RAS diverged from the naive reference stack.
    RasDivergence,
    /// FTQ entry with inconsistent line ordering or an empty region.
    FtqOrder,
    /// FTQ occupancy above the configured capacity.
    FtqOccupancy,
    /// ROB occupancy disagrees with in-flight deliveries + retire queue.
    RobAccounting,
    /// Prefetch-buffer capacity/order/accounting invariant broken.
    PrefetchBuffer,
    /// I-cache tag array or MSHR statistics accounting broken.
    IcacheAccounting,
    /// K cycles with zero retirement and zero outstanding misses.
    Livelock,
    /// The configured cycle budget was exhausted.
    CycleBudget,
    /// Queued simulation state exceeded the heap budget.
    HeapBudget,
    /// The hot-loop activity mask disagrees with the structure it
    /// summarizes (a bit set for an empty queue or vice versa).
    ActivityMask,
}

impl ViolationKind {
    /// Stable kebab-case name, used in dump filenames and cell reasons.
    pub fn as_str(&self) -> &'static str {
        match self {
            ViolationKind::BtbOccupancy => "btb-occupancy",
            ViolationKind::BtbDuplicate => "btb-duplicate",
            ViolationKind::BtbDivergence => "btb-divergence",
            ViolationKind::RasBounds => "ras-bounds",
            ViolationKind::RasDivergence => "ras-divergence",
            ViolationKind::FtqOrder => "ftq-order",
            ViolationKind::FtqOccupancy => "ftq-occupancy",
            ViolationKind::RobAccounting => "rob-accounting",
            ViolationKind::PrefetchBuffer => "prefetch-buffer",
            ViolationKind::IcacheAccounting => "icache-accounting",
            ViolationKind::Livelock => "livelock",
            ViolationKind::CycleBudget => "cycle-budget",
            ViolationKind::HeapBudget => "heap-budget",
            ViolationKind::ActivityMask => "activity-mask",
        }
    }
}

/// A single failed invariant, as reported by a [`Validator`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fault {
    /// Invariant class.
    pub kind: ViolationKind,
    /// Human-readable specifics (set index, counters, expected vs. got).
    pub detail: String,
}

impl Fault {
    /// Convenience constructor.
    pub fn new(kind: ViolationKind, detail: impl Into<String>) -> Self {
        Fault {
            kind,
            detail: detail.into(),
        }
    }
}

/// A self-checking simulated structure.
///
/// `check(false)` must be cheap (amortized O(1)) — it runs every cycle
/// under `paranoid`. `check(true)` may walk the whole structure; it runs
/// once per [`DEEP_PERIOD`] and once at end of run.
pub trait Validator {
    /// Stable component name (`btb`, `ras`, `prefetch-buffer`, …).
    fn component(&self) -> &'static str;
    /// Verifies the structure's invariants.
    fn check(&self, deep: bool) -> Result<(), Fault>;
    /// Forensic snapshot of the structure for the state dump.
    fn snapshot(&self) -> String {
        String::new()
    }
}

/// A typed integrity violation: which invariant broke, where, and when.
///
/// Returned (boxed — it is cold and fat) by
/// [`Simulator::try_run`](crate::Simulator::try_run) instead of aborting
/// the process.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IntegrityViolation {
    /// Invariant class.
    pub kind: ViolationKind,
    /// Component that failed (`btb`, `ras`, `sim-loop`, …).
    pub component: String,
    /// Simulation cycle at which the check fired.
    pub cycle: u64,
    /// Human-readable specifics.
    pub detail: String,
    /// Where the forensic dump was written, if dumping succeeded.
    pub dump_path: Option<PathBuf>,
}

impl std::fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "integrity violation [{}] in {} at cycle {}: {}",
            self.kind.as_str(),
            self.component,
            self.cycle,
            self.detail
        )?;
        if let Some(path) = &self.dump_path {
            write!(f, " (dump: {})", path.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for IntegrityViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_roundtrips() {
        assert_eq!(IntegrityLevel::parse("off").unwrap(), IntegrityLevel::Off);
        assert_eq!(
            IntegrityLevel::parse("paranoid").unwrap(),
            IntegrityLevel::Paranoid
        );
        assert_eq!(
            IntegrityLevel::parse("sampled").unwrap(),
            IntegrityLevel::Sampled {
                period: DEFAULT_SAMPLE_PERIOD
            }
        );
        assert_eq!(
            IntegrityLevel::parse("sampled=128").unwrap(),
            IntegrityLevel::Sampled { period: 128 }
        );
        assert!(IntegrityLevel::parse("sampled=0").is_err());
        assert!(IntegrityLevel::parse("fast").is_err());
    }

    #[test]
    fn check_periods_match_tiers() {
        assert_eq!(IntegrityLevel::Off.check_period(), None);
        assert_eq!(
            IntegrityLevel::Sampled { period: 32 }.check_period(),
            Some(32)
        );
        assert_eq!(IntegrityLevel::Paranoid.check_period(), Some(1));
        assert!(IntegrityLevel::Paranoid.differential());
        assert!(!IntegrityLevel::Sampled { period: 1 }.differential());
    }

    #[test]
    fn violation_displays_with_dump_path() {
        let v = IntegrityViolation {
            kind: ViolationKind::BtbOccupancy,
            component: "btb".into(),
            cycle: 42,
            detail: "set 3: len 4 but 3 live entries".into(),
            dump_path: Some(PathBuf::from("/tmp/x.json")),
        };
        let text = v.to_string();
        assert!(text.contains("[btb-occupancy]"));
        assert!(text.contains("cycle 42"));
        assert!(text.contains("/tmp/x.json"));
    }

    #[test]
    fn config_serde_roundtrips() {
        let cfg = IntegrityConfig {
            level: IntegrityLevel::Sampled { period: 7 },
            mutate: Some(MutationSpec {
                at_cycle: 99,
                kind: MutationKind::RasDepth,
            }),
        };
        let json = twig_serde_json::to_string(&cfg).unwrap();
        let back: IntegrityConfig = twig_serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
