//! Forensic state dumps: cycle-stamped snapshots written on violation.
//!
//! A dump is one self-contained JSON file under the dump directory
//! (`results/.integrity/`, or `<results-dir>/.integrity/` for the
//! `experiments` binary) holding everything needed to reproduce the
//! failure deterministically: the full [`SimConfig`] (including the
//! integrity tier and the run's armed mutation, wherever it came from),
//! the instruction budget, the trace cursor, the last-M retired branch
//! blocks (the LBR-style history), and a textual snapshot of the
//! offending structure. `integrity_drill replay <dump.json>` re-runs the
//! workload named by the label under the dumped config and asserts the
//! same violation fires at the same cycle.

use std::path::{Path, PathBuf};

use twig_serde::{Deserialize, Serialize};

use crate::config::SimConfig;

/// Dump format version; bump when the schema changes (2: the dumped
/// integrity config holds only `level` and `mutate`).
pub const DUMP_VERSION: u32 = 2;

/// Default dump directory, relative to the working directory.
pub const DEFAULT_DUMP_DIR: &str = "results/.integrity";

/// One entry of the dumped branch-block history.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DumpBranch {
    /// Basic-block id (index into the program).
    pub block: u32,
    /// BPU cycle at which the block was processed.
    pub cycle: u64,
}

/// A cycle-stamped forensic snapshot of a violated simulation.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct StateDump {
    /// Schema version ([`DUMP_VERSION`]).
    pub version: u32,
    /// The run's integrity label (e.g. `sim:kafka/baseline`).
    pub label: String,
    /// Violation kind (kebab-case, [`ViolationKind::as_str`](super::ViolationKind::as_str)).
    pub kind: String,
    /// Component that failed.
    pub component: String,
    /// Simulation cycle at which the check fired.
    pub cycle: u64,
    /// Human-readable specifics.
    pub detail: String,
    /// The full simulation configuration, integrity tier included.
    pub config: SimConfig,
    /// The run's instruction budget.
    pub instruction_budget: u64,
    /// Original instructions retired when the violation fired.
    pub retired_instructions: u64,
    /// Block events consumed from the trace (the trace cursor).
    pub events_consumed: u64,
    /// Last-M executed basic blocks, oldest first (LBR model).
    pub history: Vec<DumpBranch>,
    /// Textual snapshot of the offending structure's state.
    pub structure: String,
}

/// Process-wide override, set once by the harness (the `experiments`
/// binary points it into its `--results-dir`).
static DUMP_DIR_OVERRIDE: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();

/// Overrides the dump directory for the rest of the process. First caller
/// wins; later calls are ignored.
pub fn set_dump_dir(dir: impl Into<PathBuf>) {
    let _ = DUMP_DIR_OVERRIDE.set(dir.into());
}

/// The dump directory: the [`set_dump_dir`] override if any, else
/// [`DEFAULT_DUMP_DIR`].
pub fn dump_dir() -> PathBuf {
    DUMP_DIR_OVERRIDE
        .get()
        .cloned()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_DUMP_DIR))
}

fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
            c
        } else {
            '_'
        })
        .collect()
}

impl StateDump {
    /// Deterministic dump filename: label, kind, and cycle stamp.
    pub fn file_name(&self) -> String {
        format!("{}-{}-c{}.json", sanitize(&self.label), self.kind, self.cycle)
    }

    /// Serializes the dump into `dir` (created if missing), returning the
    /// written path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        let json = twig_serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        twig_sched::publish_atomic(&path, json.as_bytes(), None, None)?;
        Ok(path)
    }

    /// Serializes the dump into [`dump_dir`].
    pub fn write(&self) -> std::io::Result<PathBuf> {
        self.write_to(&dump_dir())
    }

    /// Loads and validates a dump written by [`StateDump::write`].
    pub fn load(path: &Path) -> Result<StateDump, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let dump: StateDump = twig_serde_json::from_str(&text)
            .map_err(|e| format!("parse {}: {e}", path.display()))?;
        if dump.version != DUMP_VERSION {
            return Err(format!(
                "dump version {} unsupported (expected {DUMP_VERSION})",
                dump.version
            ));
        }
        Ok(dump)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StateDump {
        StateDump {
            version: DUMP_VERSION,
            label: "sim:kafka/baseline".into(),
            kind: "btb-occupancy".into(),
            component: "btb".into(),
            cycle: 4096,
            detail: "set 3: len 4 but 3 live entries".into(),
            config: SimConfig::default(),
            instruction_budget: 100_000,
            retired_instructions: 41_213,
            events_consumed: 9_801,
            history: vec![DumpBranch { block: 7, cycle: 4090 }, DumpBranch { block: 9, cycle: 4094 }],
            structure: "btb 8192x4 occupancy 1312".into(),
        }
    }

    #[test]
    fn dump_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("twig-integrity-dump-test");
        let dump = sample();
        let path = dump.write_to(&dir).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "sim_kafka_baseline-btb-occupancy-c4096.json"
        );
        let back = StateDump::load(&path).unwrap();
        assert_eq!(dump, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let dir = std::env::temp_dir().join("twig-integrity-dump-ver-test");
        let mut dump = sample();
        dump.version = 99;
        let path = dump.write_to(&dir).unwrap();
        assert!(StateDump::load(&path).unwrap_err().contains("version 99"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
