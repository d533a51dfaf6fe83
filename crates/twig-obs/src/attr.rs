//! Per-branch cycle attribution: a bounded top-K profile of where
//! frontend cycles go, keyed by the *causing static branch*.
//!
//! Twig's premise (PAPER.md §2) is that BTB-miss stall cycles
//! concentrate in a small, stable set of static branches. The aggregate
//! counters (`SimStats`, top-down slots) show *that* cycles are lost;
//! the [`AttrTable`] shows *which* branch PCs lose them, with branch
//! kind, miss kind, and cycles charged — the per-PC view the paper's
//! Figs. 1/3 analysis is built on.
//!
//! The table is a weighted **space-saving** (Misra–Gries family) sketch:
//! at most `k` entries, no allocation after construction, and a
//! deterministic per-entry overestimation bound. When a new key arrives
//! and the table is full, the minimum-weight entry is evicted and the
//! newcomer inherits its weight as `error_cycles` — so for every entry,
//! `cycles - error_cycles <= true cycles <= cycles`, and any key *not*
//! in the table has true weight at most the table's minimum. For the
//! skewed distributions Twig targets the heavy hitters are exact in
//! practice (`error_cycles == 0`).
//!
//! Sampling (`sample=N`) charges every `N`-th resteer event into the
//! table; the scalar totals (`total_events`, `total_cycles`) are always
//! exact regardless of the period, so reconciliation against the
//! aggregate bubble counters never degrades.

use twig_serde::{Deserialize, Serialize};
use twig_types::BranchKind;

use crate::ExportError;

/// Attribution snapshot format version; bump when the schema changes.
pub const ATTRIBUTION_VERSION: u32 = 1;

/// Default table capacity (entries).
pub const DEFAULT_ATTR_K: u32 = 64;

/// Why the frontend lost cycles: the resteer/miss taxonomy an
/// attribution charge is labeled with.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum MissKind {
    /// BTB miss on a taken direct branch or return, discovered at
    /// decode (the FDIP decode resteer).
    BtbMissDecode,
    /// BTB miss on an indirect jump/call, unresolvable until execute.
    BtbMissExecute,
    /// Conditional direction mispredict (TAGE was wrong).
    Direction,
    /// Indirect target mispredict (BTB hit, wrong target).
    IndirectTarget,
    /// Return target mispredict (RAS was wrong).
    ReturnTarget,
}

impl MissKind {
    /// Every miss kind, in display order.
    pub const ALL: [MissKind; 5] = [
        MissKind::BtbMissDecode,
        MissKind::BtbMissExecute,
        MissKind::Direction,
        MissKind::IndirectTarget,
        MissKind::ReturnTarget,
    ];

    /// Stable short name used in exports and reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            MissKind::BtbMissDecode => "btb-decode",
            MissKind::BtbMissExecute => "btb-exec",
            MissKind::Direction => "dir-mispred",
            MissKind::IndirectTarget => "ind-target",
            MissKind::ReturnTarget => "ret-target",
        }
    }

    /// Dense index (position in [`MissKind::ALL`]).
    pub fn index(&self) -> usize {
        *self as usize
    }
}

impl std::fmt::Display for MissKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Attribution knobs, carried inside [`crate::ObsConfig`] (`Copy` on
/// purpose — the owning `SimConfig` is `Copy`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AttrConfig {
    /// Whether attribution records at all.
    pub enabled: bool,
    /// Table capacity: at most `k` distinct (pc, kind, miss) keys.
    pub k: u32,
    /// Charge every `sample`-th event into the table (totals stay exact).
    pub sample: u64,
}

impl AttrConfig {
    /// Attribution disabled (the default).
    pub fn off() -> Self {
        AttrConfig {
            enabled: false,
            k: DEFAULT_ATTR_K,
            sample: 1,
        }
    }

    /// Attribution enabled with default capacity and no sampling.
    pub fn on() -> Self {
        AttrConfig {
            enabled: true,
            ..AttrConfig::off()
        }
    }

    /// Validates the knobs (called from the simulator's config validation).
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("attribution table size k must be >= 1".into());
        }
        if self.sample == 0 {
            return Err("attribution sample period must be >= 1".into());
        }
        Ok(())
    }
}

impl Default for AttrConfig {
    fn default() -> Self {
        AttrConfig::off()
    }
}

/// The attribution key: one static branch site under one miss kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AttrKey {
    /// Static branch PC.
    pub pc: u64,
    /// Branch kind at that PC.
    pub branch: BranchKind,
    /// Why cycles were lost.
    pub miss: MissKind,
}

#[derive(Clone, Copy, Debug)]
struct TableEntry {
    key: AttrKey,
    cycles: u64,
    events: u64,
    /// Weight inherited from the entry this one evicted (space-saving
    /// overestimation bound): true cycles >= cycles - error_cycles.
    error_cycles: u64,
}

/// Bounded weighted top-K table of attribution charges.
///
/// Allocation happens once, at construction; `record` is a linear probe
/// over at most `k` entries (attribution events are resteers — orders
/// of magnitude rarer than cycles — and `k` is small, so the probe is
/// cheap and cache-resident).
#[derive(Clone, Debug)]
pub struct AttrTable {
    entries: Vec<TableEntry>,
    k: usize,
    sample: u64,
    total_events: u64,
    total_cycles: u64,
    sampled_events: u64,
    sampled_cycles: u64,
}

impl AttrTable {
    /// An empty table per `config` (capacity preallocated).
    pub fn new(config: &AttrConfig) -> Self {
        let k = config.k.max(1) as usize;
        AttrTable {
            entries: Vec::with_capacity(k),
            k,
            sample: config.sample.max(1),
            total_events: 0,
            total_cycles: 0,
            sampled_events: 0,
            sampled_cycles: 0,
        }
    }

    /// Charges `cycles` lost to `miss` at branch `pc`. Totals are always
    /// exact; the table itself is updated for every `sample`-th event.
    #[inline]
    pub fn record(&mut self, pc: u64, branch: BranchKind, miss: MissKind, cycles: u64) {
        let index = self.total_events;
        self.total_events += 1;
        self.total_cycles += cycles;
        if !index.is_multiple_of(self.sample) {
            return;
        }
        self.sampled_events += 1;
        self.sampled_cycles += cycles;
        let key = AttrKey { pc, branch, miss };
        let mut min_slot = 0usize;
        let mut min_cycles = u64::MAX;
        for (i, entry) in self.entries.iter_mut().enumerate() {
            if entry.key == key {
                entry.cycles += cycles;
                entry.events += 1;
                return;
            }
            if entry.cycles < min_cycles {
                min_cycles = entry.cycles;
                min_slot = i;
            }
        }
        if self.entries.len() < self.k {
            self.entries.push(TableEntry {
                key,
                cycles,
                events: 1,
                error_cycles: 0,
            });
        } else {
            // Space-saving eviction: the newcomer inherits the minimum
            // entry's weight as its error bound.
            let evicted = &mut self.entries[min_slot];
            *evicted = TableEntry {
                key,
                cycles: evicted.cycles + cycles,
                events: evicted.events + 1,
                error_cycles: evicted.cycles,
            };
        }
    }

    /// Events charged so far (exact, independent of sampling).
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Cycles charged so far (exact, independent of sampling).
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Distinct keys currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been charged into the table.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Freezes the table into its deterministic serialized form:
    /// entries sorted by cycles descending, ties broken by (pc, branch,
    /// miss) ascending so equal-weight entries have a stable order.
    pub fn snapshot(&self) -> AttributionSnapshot {
        let mut entries: Vec<AttrEntry> = self
            .entries
            .iter()
            .map(|e| AttrEntry {
                pc: e.key.pc,
                branch: e.key.branch.mnemonic().to_string(),
                miss: e.key.miss.mnemonic().to_string(),
                cycles: e.cycles,
                events: e.events,
                error_cycles: e.error_cycles,
            })
            .collect();
        entries.sort_by(|a, b| {
            b.cycles
                .cmp(&a.cycles)
                .then(a.pc.cmp(&b.pc))
                .then(a.branch.cmp(&b.branch))
                .then(a.miss.cmp(&b.miss))
        });
        AttributionSnapshot {
            version: ATTRIBUTION_VERSION,
            k: self.k as u32,
            sample: self.sample,
            total_events: self.total_events,
            total_cycles: self.total_cycles,
            sampled_events: self.sampled_events,
            sampled_cycles: self.sampled_cycles,
            entries,
        }
    }
}

/// One exported attribution entry: a static branch site and its charge.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AttrEntry {
    /// Static branch PC.
    pub pc: u64,
    /// Branch-kind mnemonic (`cond`, `jmp`, `call`, `ijmp`, `icall`, `ret`).
    pub branch: String,
    /// Miss-kind mnemonic (see [`MissKind::mnemonic`]).
    pub miss: String,
    /// Cycles charged (overestimates true cycles by at most
    /// `error_cycles`).
    pub cycles: u64,
    /// Events charged.
    pub events: u64,
    /// Space-saving overestimation bound for this entry.
    pub error_cycles: u64,
}

/// A frozen, deterministic attribution profile — the payload of
/// `results/metrics/<app>_<config>.attr.json` (`attribution-v1`).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AttributionSnapshot {
    /// Format version ([`ATTRIBUTION_VERSION`]).
    pub version: u32,
    /// Table capacity the profile was collected with.
    pub k: u32,
    /// Sampling period the table was charged with.
    pub sample: u64,
    /// Exact number of attribution events (independent of sampling).
    pub total_events: u64,
    /// Exact cycles lost across all events (independent of sampling).
    pub total_cycles: u64,
    /// Events actually charged into the table.
    pub sampled_events: u64,
    /// Cycles actually charged into the table.
    pub sampled_cycles: u64,
    /// Entries, cycles-descending (ties by pc/branch/miss ascending).
    pub entries: Vec<AttrEntry>,
}

impl AttributionSnapshot {
    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns an [`ExportError`] if the document cannot be serialized.
    pub fn to_json(&self) -> Result<String, ExportError> {
        twig_serde_json::to_string_pretty(self)
            .map_err(|e| ExportError::new("attribution snapshot", e.to_string()))
    }

    /// Parses a snapshot back from JSON.
    ///
    /// # Errors
    ///
    /// Returns an [`ExportError`] describing the malformed document.
    pub fn from_json(text: &str) -> Result<Self, ExportError> {
        twig_serde_json::from_str(text)
            .map_err(|e| ExportError::new("attribution snapshot", e.to_string()))
    }

    /// The `n` costliest entries (the snapshot is already sorted).
    pub fn top(&self, n: usize) -> &[AttrEntry] {
        &self.entries[..self.entries.len().min(n)]
    }

    /// Sum of cycles charged per miss kind across the table, in
    /// [`MissKind::ALL`] order.
    pub fn cycles_by_miss_kind(&self) -> [u64; 5] {
        let mut out = [0u64; 5];
        for entry in &self.entries {
            if let Some(i) = MissKind::ALL
                .iter()
                .position(|k| k.mnemonic() == entry.miss)
            {
                out[i] += entry.cycles;
            }
        }
        out
    }
}

/// Renders the profile as folded stacks (flamegraph.pl / inferno
/// compatible): one `label;branch;miss;pc=0x<hex> <cycles>` line per
/// entry, in snapshot (cycles-descending) order.
pub fn folded_stacks(label: &str, snapshot: &AttributionSnapshot) -> String {
    let mut out = String::new();
    for entry in &snapshot.entries {
        out.push_str(&format!(
            "{label};{};{};pc=0x{:x} {}\n",
            entry.branch, entry.miss, entry.pc, entry.cycles
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charge(table: &mut AttrTable, pc: u64, cycles: u64) {
        table.record(pc, BranchKind::Conditional, MissKind::BtbMissDecode, cycles);
    }

    /// The attribution items of the `TWIG_OBS` grammar
    /// ([`crate::ObsConfig::parse`]).
    fn parse_attr(text: &str) -> Result<AttrConfig, String> {
        crate::ObsConfig::parse(text).map(|obs| obs.attr)
    }

    #[test]
    fn grammar_round_trips() {
        for (text, config) in [
            ("off", AttrConfig::off()),
            ("", AttrConfig::off()),
            ("attr", AttrConfig::on()),
            (
                "attr.k=128",
                AttrConfig {
                    k: 128,
                    ..AttrConfig::on()
                },
            ),
            (
                "attr.k=16,attr.sample=8",
                AttrConfig {
                    k: 16,
                    sample: 8,
                    ..AttrConfig::on()
                },
            ),
            (
                "attr.sample=4",
                AttrConfig {
                    sample: 4,
                    ..AttrConfig::on()
                },
            ),
        ] {
            assert_eq!(parse_attr(text).unwrap(), config, "{text}");
            let obs = crate::ObsConfig {
                attr: config,
                ..crate::ObsConfig::off()
            };
            assert_eq!(parse_attr(&obs.as_text()).unwrap(), config);
        }
    }

    #[test]
    fn grammar_rejects_garbage() {
        assert!(parse_attr("attr.k=0").is_err());
        assert!(parse_attr("attr.sample=0").is_err());
        assert!(parse_attr("attr.k=lots").is_err());
        assert!(parse_attr("attr.k=1,attr.k=2").is_err());
        assert!(parse_attr("attr=on").is_err());
        assert!(parse_attr("loud").unwrap_err().contains("loud"));
        assert!(AttrConfig {
            k: 0,
            ..AttrConfig::on()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn exact_below_capacity() {
        let mut table = AttrTable::new(&AttrConfig {
            k: 4,
            ..AttrConfig::on()
        });
        charge(&mut table, 0x10, 7);
        charge(&mut table, 0x20, 3);
        charge(&mut table, 0x10, 5);
        let snap = table.snapshot();
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(snap.entries[0].pc, 0x10);
        assert_eq!(snap.entries[0].cycles, 12);
        assert_eq!(snap.entries[0].events, 2);
        assert_eq!(snap.entries[0].error_cycles, 0);
        assert_eq!(snap.total_cycles, 15);
        assert_eq!(snap.total_events, 3);
    }

    #[test]
    fn distinct_miss_kinds_are_distinct_keys() {
        let mut table = AttrTable::new(&AttrConfig::on());
        table.record(0x10, BranchKind::Conditional, MissKind::BtbMissDecode, 5);
        table.record(0x10, BranchKind::Conditional, MissKind::Direction, 9);
        assert_eq!(table.len(), 2);
        let snap = table.snapshot();
        assert_eq!(snap.entries[0].miss, "dir-mispred");
        let by_kind = snap.cycles_by_miss_kind();
        assert_eq!(by_kind[MissKind::BtbMissDecode.index()], 5);
        assert_eq!(by_kind[MissKind::Direction.index()], 9);
    }

    #[test]
    fn eviction_keeps_heavy_hitters_and_bounds_error() {
        let mut table = AttrTable::new(&AttrConfig {
            k: 2,
            ..AttrConfig::on()
        });
        charge(&mut table, 0xA, 100);
        charge(&mut table, 0xB, 1);
        // 0xC evicts the minimum (0xB, weight 1) and inherits its weight.
        charge(&mut table, 0xC, 50);
        let snap = table.snapshot();
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(snap.entries[0].pc, 0xA);
        assert_eq!(snap.entries[1].pc, 0xC);
        assert_eq!(snap.entries[1].cycles, 51);
        assert_eq!(snap.entries[1].error_cycles, 1);
        // Totals stay exact even though 0xB fell out of the table.
        assert_eq!(snap.total_cycles, 151);
        // The heavy hitter is exact.
        assert_eq!(snap.entries[0].error_cycles, 0);
    }

    #[test]
    fn sampling_keeps_totals_exact() {
        let config = AttrConfig {
            sample: 4,
            ..AttrConfig::on()
        };
        let mut table = AttrTable::new(&config);
        for i in 0..17u64 {
            charge(&mut table, 0x10, i);
        }
        let snap = table.snapshot();
        assert_eq!(snap.total_events, 17);
        assert_eq!(snap.total_cycles, (0..17).sum::<u64>());
        // Events 0, 4, 8, 12, 16 landed in the table.
        assert_eq!(snap.sampled_events, 5);
        assert_eq!(snap.sampled_cycles, 4 + 8 + 12 + 16);
        assert_eq!(snap.entries[0].events, 5);
    }

    #[test]
    fn snapshot_order_is_deterministic_on_ties() {
        let mut table = AttrTable::new(&AttrConfig::on());
        table.record(0x30, BranchKind::Return, MissKind::ReturnTarget, 5);
        table.record(0x10, BranchKind::Conditional, MissKind::Direction, 5);
        table.record(0x20, BranchKind::IndirectJump, MissKind::BtbMissExecute, 5);
        let pcs: Vec<u64> = table.snapshot().entries.iter().map(|e| e.pc).collect();
        assert_eq!(pcs, vec![0x10, 0x20, 0x30]);
    }

    #[test]
    fn json_and_folded_round_trip() {
        let mut table = AttrTable::new(&AttrConfig::on());
        table.record(0xBEEF, BranchKind::IndirectCall, MissKind::BtbMissExecute, 42);
        let snap = table.snapshot();
        let json = snap.to_json().unwrap();
        let back = AttributionSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.version, ATTRIBUTION_VERSION);
        let folded = folded_stacks("kafka/twig", &snap);
        assert_eq!(folded, "kafka/twig;icall;btb-exec;pc=0xbeef 42\n");
        assert!(AttributionSnapshot::from_json("[]").is_err());
    }

    #[test]
    fn top_n_clamps() {
        let mut table = AttrTable::new(&AttrConfig::on());
        charge(&mut table, 0x1, 1);
        let snap = table.snapshot();
        assert_eq!(snap.top(10).len(), 1);
        assert_eq!(snap.top(0).len(), 0);
    }
}
