//! Windowed time-series telemetry: the layer that turns end-of-run
//! scalar snapshots into metric *trajectories*.
//!
//! Every export the harness produced before this module — metrics
//! snapshots, attribution profiles, the fleet manifest — averages a
//! run's phases away: a 50M-instruction run whose IPC sags for one phase
//! is indistinguishable from a uniformly mediocre one. [`TimeSeriesRing`]
//! fixes that: registered tracks are sampled once per window boundary
//! (every `window=N` retired instructions in the simulator; once
//! per layout generation in the fleet), counters are delta-encoded so a
//! window is self-describing, and the ring is bounded with explicit
//! dropped-window accounting — never an unbounded allocation.
//!
//! Steady-state recording is allocation-free: registration (the only
//! allocations) happens before the first window is pushed, after which
//! [`TimeSeriesRing::push_window`] writes into preallocated flat storage.
//!
//! [`TimeSeriesRing::snapshot`] freezes the ring into a
//! [`TimelineSnapshot`] — the payload of `results/metrics/
//! <app>_<config>.timeline.json` — and runs the derived-metric pass
//! (per-window IPC / BTB MPKI / miss coverage / resteer rate, in
//! integer fixed-point so exports are bit-identical across platforms)
//! plus a change-point phase detector over the windowed IPC, exported as
//! labeled phase segments.
//!
//! Determinism contract: identical to the metrics snapshot — no
//! wall-clock times, no addresses, no thread ids; for a fixed seed the
//! serialized JSON is byte-identical run-to-run and across
//! `TWIG_NUM_THREADS` settings.

use std::fmt;

use twig_serde::{Deserialize, Serialize};

use crate::ExportError;

/// Timeline snapshot format version; bump when the schema changes.
pub const TIMELINE_VERSION: u32 = 1;

/// Default bound on retained windows. Generous: at the default
/// `window=65536` this covers ~268M instructions before anything drops.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 4096;

/// Relative change-point threshold for the phase detector, as a
/// denominator: a window opens a new phase when its IPC deviates from
/// the running phase mean by more than `mean / PHASE_THRESHOLD_DIV`
/// (12.5%).
pub const PHASE_THRESHOLD_DIV: u64 = 8;

/// How a track's per-window value relates to the sampled cumulative.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrackKind {
    /// Monotone cumulative counter; windows store the delta since the
    /// previous boundary, so per-window deltas sum back to the total.
    Counter,
    /// Instantaneous gauge (an occupancy, a percentile); windows store
    /// the sampled value as-is.
    Gauge,
}

impl TrackKind {
    /// Stable lower-case name used in the serialized snapshot.
    pub fn as_str(self) -> &'static str {
        match self {
            TrackKind::Counter => "counter",
            TrackKind::Gauge => "gauge",
        }
    }

    /// Parses the serialized form back.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "counter" => Ok(TrackKind::Counter),
            "gauge" => Ok(TrackKind::Gauge),
            other => Err(format!("unknown track kind {other:?}")),
        }
    }
}

/// Handle to a registered track (index into the ring's flat storage).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrackId(u32);

/// A bounded windowed time series over a fixed set of tracks.
///
/// Registration ([`TimeSeriesRing::track`]) happens up front; the first
/// [`TimeSeriesRing::push_window`] seals the track set and all later
/// recording is index arithmetic into preallocated storage. Once
/// `capacity` windows are held, the oldest window is overwritten (the
/// tail of a long run is its steady state) and the loss is surfaced via
/// [`TimeSeriesRing::dropped_windows`].
#[derive(Clone, Debug)]
pub struct TimeSeriesRing {
    tracks: Vec<(String, TrackKind)>,
    /// Previous cumulative sample per track (delta basis for counters).
    last: Vec<u64>,
    /// `(end_instr, end_cycle)` per held window, oldest at `head`.
    ends: Vec<(u64, u64)>,
    /// Flat `window-major` value storage: window `w` track `t` lives at
    /// `w * tracks.len() + t`.
    values: Vec<u64>,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    capacity: usize,
    dropped: u64,
    sealed: bool,
}

impl TimeSeriesRing {
    /// An empty ring holding at most `capacity` windows (floored to 1).
    pub fn new(capacity: usize) -> Self {
        TimeSeriesRing {
            tracks: Vec::new(),
            last: Vec::new(),
            ends: Vec::new(),
            values: Vec::new(),
            head: 0,
            capacity: capacity.max(1),
            dropped: 0,
            sealed: false,
        }
    }

    /// Registers a track. Not for the hot loop; panics after the first
    /// window has been pushed (the set is sealed so storage stays flat).
    pub fn track(&mut self, name: &str, kind: TrackKind) -> TrackId {
        assert!(
            !self.sealed,
            "track registration after the first window (timeline track set is sealed)"
        );
        if let Some(i) = self.tracks.iter().position(|(n, _)| n == name) {
            return TrackId(i as u32);
        }
        self.tracks.push((name.to_string(), kind));
        self.last.push(0);
        TrackId((self.tracks.len() - 1) as u32)
    }

    /// Number of registered tracks.
    pub fn track_count(&self) -> usize {
        self.tracks.len()
    }

    /// Windows currently held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no window has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Windows overwritten after the ring filled.
    pub fn dropped_windows(&self) -> u64 {
        self.dropped
    }

    /// Closes one window ending at `end_instr` retired instructions /
    /// `end_cycle` elapsed cycles. `sample[t]` is track `t`'s *current
    /// cumulative* value (counters are delta-encoded here; gauges are
    /// stored as-is). Allocation-free once the ring has filled; before
    /// that the only allocations grow the preallocated flat storage to
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if `sample.len()` disagrees with the registered track set.
    pub fn push_window(&mut self, end_instr: u64, end_cycle: u64, sample: &[u64]) {
        assert_eq!(
            sample.len(),
            self.tracks.len(),
            "timeline sample width disagrees with the registered track set"
        );
        if !self.sealed {
            self.sealed = true;
            self.ends.reserve_exact(self.capacity);
            self.values.reserve_exact(self.capacity * self.tracks.len());
        }
        let width = self.tracks.len();
        let slot = if self.ends.len() < self.capacity {
            self.ends.push((end_instr, end_cycle));
            self.values.resize(self.ends.len() * width, 0);
            self.ends.len() - 1
        } else {
            let slot = self.head;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
            self.ends[slot] = (end_instr, end_cycle);
            slot
        };
        for (t, (&cumulative, (_, kind))) in sample.iter().zip(&self.tracks).enumerate() {
            self.values[slot * width + t] = match kind {
                TrackKind::Counter => cumulative.saturating_sub(self.last[t]),
                TrackKind::Gauge => cumulative,
            };
        }
        for (t, &cumulative) in sample.iter().enumerate() {
            self.last[t] = cumulative;
        }
    }

    /// Verifies the conservation invariant: with no dropped windows, the
    /// per-window deltas of every counter track sum exactly to that
    /// track's cumulative total (`totals[t]`). Gauges are skipped.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first non-conserving track.
    pub fn check_conservation(&self, totals: &[u64]) -> Result<(), String> {
        if self.dropped > 0 {
            return Ok(()); // lost windows make the sum legitimately short
        }
        let width = self.tracks.len();
        for (t, (name, kind)) in self.tracks.iter().enumerate() {
            if *kind != TrackKind::Counter {
                continue;
            }
            let sum: u64 = (0..self.ends.len())
                .map(|w| self.values[w * width + t])
                .sum();
            if sum != totals[t] {
                return Err(format!(
                    "track {name}: window deltas sum to {sum}, end-of-run total is {}",
                    totals[t]
                ));
            }
        }
        Ok(())
    }

    /// Freezes the ring into its serializable form, windows oldest
    /// first, and runs the derived-metric and phase-detection passes.
    /// `window` records the boundary period (instructions per window;
    /// the final window of a run may be shorter).
    pub fn snapshot(&self, window: u64) -> TimelineSnapshot {
        let width = self.tracks.len();
        let order: Vec<usize> = (self.head..self.ends.len()).chain(0..self.head).collect();
        let windows: Vec<WindowSnapshot> = order
            .iter()
            .map(|&w| WindowSnapshot {
                end_instr: self.ends[w].0,
                end_cycle: self.ends[w].1,
                values: self.values[w * width..(w + 1) * width].to_vec(),
            })
            .collect();
        let tracks: Vec<TrackSnapshot> = self
            .tracks
            .iter()
            .map(|(name, kind)| TrackSnapshot {
                name: name.clone(),
                kind: kind.as_str().to_string(),
            })
            .collect();
        let derived = derive_windows(&tracks, &windows);
        let phases = detect_phases(&derived);
        TimelineSnapshot {
            version: TIMELINE_VERSION,
            window,
            dropped_windows: self.dropped,
            tracks,
            windows,
            derived,
            phases,
        }
    }
}

/// One registered track in a serialized timeline.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TrackSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// `counter` (delta-encoded) or `gauge` (raw samples).
    pub kind: String,
}

/// One closed window: its boundary plus one value per track.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct WindowSnapshot {
    /// Cumulative retired instructions at the window's close (the fleet
    /// reuses this axis for layout generations).
    pub end_instr: u64,
    /// Elapsed cycles at the window's close.
    pub end_cycle: u64,
    /// Per-track values, in track-registration order.
    pub values: Vec<u64>,
}

/// Per-window derived metrics, in deterministic integer fixed-point.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct DerivedWindow {
    /// IPC × 10⁶ over the window.
    pub ipc_micros: u64,
    /// BTB misses per kilo-instruction × 10³ over the window.
    pub btb_mpki_milli: u64,
    /// Covered fraction of would-be BTB misses × 10³ over the window.
    pub coverage_permille: u64,
    /// Frontend resteers (decode + execute) per kilo-instruction × 10³
    /// over the window — the per-window cost proxy the paper's resteer
    /// analysis uses.
    pub resteer_pki_milli: u64,
}

/// One detected phase: a maximal run of windows whose IPC stays within
/// the change-point threshold of the phase's running mean.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct PhaseSegment {
    /// Stable label (`phase-0`, `phase-1`, …).
    pub label: String,
    /// First window index (into `windows`) of the segment.
    pub start_window: u64,
    /// Last window index of the segment, inclusive.
    pub end_window: u64,
    /// Mean IPC × 10⁶ across the segment.
    pub mean_ipc_micros: u64,
}

/// A frozen, deterministic timeline — the payload of
/// `results/metrics/<app>_<config>.timeline.json`
/// (`docs/schema/timeline-v1.json`).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TimelineSnapshot {
    /// Format version ([`TIMELINE_VERSION`]).
    pub version: u32,
    /// Window boundary period, in retired instructions per window (the
    /// fleet's per-generation series uses 1: one window per generation).
    pub window: u64,
    /// Windows overwritten after the ring filled (0 = complete record).
    pub dropped_windows: u64,
    /// Registered tracks, in registration order.
    pub tracks: Vec<TrackSnapshot>,
    /// Closed windows, oldest first.
    pub windows: Vec<WindowSnapshot>,
    /// Derived per-window metrics (empty when the standard sim tracks
    /// are absent — e.g. fleet generation series).
    pub derived: Vec<DerivedWindow>,
    /// Detected phase segments over the windowed IPC.
    pub phases: Vec<PhaseSegment>,
}

impl TimelineSnapshot {
    /// An empty timeline (current version, no tracks or windows).
    pub fn empty(window: u64) -> Self {
        TimelineSnapshot {
            version: TIMELINE_VERSION,
            window,
            dropped_windows: 0,
            tracks: Vec::new(),
            windows: Vec::new(),
            derived: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Index of a track by name.
    pub fn track_index(&self, name: &str) -> Option<usize> {
        self.tracks.iter().position(|t| t.name == name)
    }

    /// One track's per-window values, oldest first.
    pub fn track_values(&self, name: &str) -> Option<Vec<u64>> {
        let index = self.track_index(name)?;
        Some(self.windows.iter().map(|w| w.values[index]).collect())
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns an [`ExportError`] if the document cannot be serialized.
    pub fn to_json(&self) -> Result<String, ExportError> {
        twig_serde_json::to_string_pretty(self)
            .map_err(|e| ExportError::new("timeline snapshot", e.to_string()))
    }

    /// Parses a timeline back from JSON, rejecting unknown versions.
    ///
    /// # Errors
    ///
    /// Returns an [`ExportError`] describing the malformed document.
    pub fn from_json(text: &str) -> Result<Self, ExportError> {
        let snapshot: TimelineSnapshot = twig_serde_json::from_str(text)
            .map_err(|e| ExportError::new("timeline snapshot", e.to_string()))?;
        if snapshot.version != TIMELINE_VERSION {
            return Err(ExportError::new(
                "timeline snapshot",
                format!(
                    "unsupported version {} (expected {TIMELINE_VERSION})",
                    snapshot.version
                ),
            ));
        }
        Ok(snapshot)
    }
}

/// The names the derived-metric pass keys on (registered by the
/// simulator's timeline state; other producers may omit them).
pub mod track_names {
    /// Elapsed cycles (counter).
    pub const CYCLES: &str = "sim.cycles";
    /// Retired program instructions (counter).
    pub const INSTRUCTIONS: &str = "sim.retired_instructions";
    /// Real BTB misses, all kinds (counter).
    pub const BTB_MISSES: &str = "btb.misses.total";
    /// Would-be BTB misses covered by prefetching (counter).
    pub const BTB_COVERED: &str = "btb.covered.total";
    /// Decode-time resteers (counter).
    pub const DECODE_RESTEERS: &str = "frontend.decode_resteers";
    /// Execute-time resteers (counter).
    pub const EXEC_RESTEERS: &str = "frontend.exec_resteers";
}

/// The derived-metric pass: per-window IPC, BTB MPKI, miss coverage,
/// and resteer rate in integer fixed-point. Returns an empty vector
/// when the cycle/instruction tracks are missing.
pub fn derive_windows(tracks: &[TrackSnapshot], windows: &[WindowSnapshot]) -> Vec<DerivedWindow> {
    let index = |name: &str| tracks.iter().position(|t| t.name == name);
    let (Some(cycles), Some(instrs)) =
        (index(track_names::CYCLES), index(track_names::INSTRUCTIONS))
    else {
        return Vec::new();
    };
    let misses = index(track_names::BTB_MISSES);
    let covered = index(track_names::BTB_COVERED);
    let decode = index(track_names::DECODE_RESTEERS);
    let exec = index(track_names::EXEC_RESTEERS);
    windows
        .iter()
        .map(|w| {
            let at = |i: Option<usize>| i.map_or(0, |i| w.values[i]);
            let cycles = w.values[cycles];
            let instrs = w.values[instrs];
            let misses = at(misses);
            let covered = at(covered);
            let resteers = at(decode) + at(exec);
            let would_be = misses + covered;
            DerivedWindow {
                ipc_micros: instrs.saturating_mul(1_000_000).checked_div(cycles).unwrap_or(0),
                btb_mpki_milli: misses.saturating_mul(1_000_000).checked_div(instrs).unwrap_or(0),
                coverage_permille: covered.saturating_mul(1_000).checked_div(would_be).unwrap_or(0),
                resteer_pki_milli: resteers
                    .saturating_mul(1_000_000)
                    .checked_div(instrs)
                    .unwrap_or(0),
            }
        })
        .collect()
}

/// The change-point phase detector: windows join the current phase
/// while their IPC stays within `mean ± mean/PHASE_THRESHOLD_DIV` of
/// the phase's running mean; a window outside that band closes the
/// phase and opens the next. Pure integer arithmetic — deterministic
/// across platforms.
pub fn detect_phases(derived: &[DerivedWindow]) -> Vec<PhaseSegment> {
    let mut phases: Vec<PhaseSegment> = Vec::new();
    let mut start = 0usize;
    let mut sum: u64 = 0;
    for (i, d) in derived.iter().enumerate() {
        let count = (i - start) as u64;
        if let Some(mean) = sum.checked_div(count) {
            let deviation = d.ipc_micros.abs_diff(mean);
            if deviation > mean / PHASE_THRESHOLD_DIV {
                phases.push(PhaseSegment {
                    label: format!("phase-{}", phases.len()),
                    start_window: start as u64,
                    end_window: (i - 1) as u64,
                    mean_ipc_micros: mean,
                });
                start = i;
                sum = 0;
            }
        }
        sum += d.ipc_micros;
    }
    if start < derived.len() {
        let count = (derived.len() - start) as u64;
        phases.push(PhaseSegment {
            label: format!("phase-{}", phases.len()),
            start_window: start as u64,
            end_window: (derived.len() - 1) as u64,
            mean_ipc_micros: sum / count,
        });
    }
    phases
}

/// One differing per-window value in a timeline diff.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WindowValueDiff {
    /// Index of the window (into the oldest-first window list).
    pub window: usize,
    /// Track name.
    pub track: String,
    /// Value on the left side (`None` = track absent there).
    pub before: Option<u64>,
    /// Value on the right side.
    pub after: Option<u64>,
}

/// One differing window boundary: `(index, before (end_instr,
/// end_cycle), after)`.
pub type BoundaryDiff = (usize, (u64, u64), (u64, u64));

/// The semantic difference between two timelines: structural mismatches
/// (window period, window count, dropped windows) plus per-window
/// per-track value differences — matched by track *name*, so reordered
/// registration does not read as a diff.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TimelineDiff {
    /// `(before, after)` when the window periods disagree.
    pub window_mismatch: Option<(u64, u64)>,
    /// `(before, after)` when the held window counts disagree.
    pub count_mismatch: Option<(usize, usize)>,
    /// `(before, after)` when the dropped-window counts disagree.
    pub dropped_mismatch: Option<(u64, u64)>,
    /// Differing window boundaries.
    pub boundaries: Vec<BoundaryDiff>,
    /// Differing values over the common window prefix.
    pub values: Vec<WindowValueDiff>,
}

impl TimelineDiff {
    /// Whether the two timelines are semantically identical.
    pub fn is_empty(&self) -> bool {
        self.window_mismatch.is_none()
            && self.count_mismatch.is_none()
            && self.dropped_mismatch.is_none()
            && self.boundaries.is_empty()
            && self.values.is_empty()
    }
}

/// Compares two timelines; the result lists only what differs.
pub fn diff_timelines(before: &TimelineSnapshot, after: &TimelineSnapshot) -> TimelineDiff {
    let mut diff = TimelineDiff::default();
    if before.window != after.window {
        diff.window_mismatch = Some((before.window, after.window));
    }
    if before.windows.len() != after.windows.len() {
        diff.count_mismatch = Some((before.windows.len(), after.windows.len()));
    }
    if before.dropped_windows != after.dropped_windows {
        diff.dropped_mismatch = Some((before.dropped_windows, after.dropped_windows));
    }

    let mut names: Vec<&str> = before
        .tracks
        .iter()
        .chain(after.tracks.iter())
        .map(|t| t.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();

    let common = before.windows.len().min(after.windows.len());
    for w in 0..common {
        let (b, a) = (&before.windows[w], &after.windows[w]);
        if (b.end_instr, b.end_cycle) != (a.end_instr, a.end_cycle) {
            diff.boundaries
                .push((w, (b.end_instr, b.end_cycle), (a.end_instr, a.end_cycle)));
        }
        for name in &names {
            let bv = before.track_index(name).map(|i| b.values[i]);
            let av = after.track_index(name).map(|i| a.values[i]);
            if bv != av {
                diff.values.push(WindowValueDiff {
                    window: w,
                    track: name.to_string(),
                    before: bv,
                    after: av,
                });
            }
        }
    }
    diff
}

impl fmt::Display for TimelineDiff {
    /// Human-readable report; "timelines identical" for the empty diff.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "timelines identical");
        }
        if let Some((b, a)) = self.window_mismatch {
            writeln!(f, "window period differs: {b} vs {a}")?;
        }
        if let Some((b, a)) = self.count_mismatch {
            writeln!(f, "window count differs: {b} vs {a}")?;
        }
        if let Some((b, a)) = self.dropped_mismatch {
            writeln!(f, "dropped windows differ: {b} vs {a}")?;
        }
        for (w, b, a) in &self.boundaries {
            writeln!(
                f,
                "window {w} boundary differs: instr {}/cycle {} vs instr {}/cycle {}",
                b.0, b.1, a.0, a.1
            )?;
        }
        if !self.values.is_empty() {
            writeln!(
                f,
                "{:<8} {:<36} {:>16} {:>16}",
                "window", "track", "before", "after"
            )?;
            for row in &self.values {
                let render = |v: Option<u64>| match v {
                    Some(v) => v.to_string(),
                    None => "-".to_string(),
                };
                writeln!(
                    f,
                    "{:<8} {:<36} {:>16} {:>16}",
                    row.window,
                    row.track,
                    render(row.before),
                    render(row.after)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_track_ring() -> TimeSeriesRing {
        let mut ring = TimeSeriesRing::new(16);
        ring.track(track_names::CYCLES, TrackKind::Counter);
        ring.track(track_names::INSTRUCTIONS, TrackKind::Counter);
        ring
    }

    /// The `window=N` item of the `TWIG_OBS` grammar
    /// ([`crate::ObsConfig::parse`]).
    fn parse_window(text: &str) -> Result<Option<u64>, String> {
        crate::ObsConfig::parse(text).map(|obs| obs.window)
    }

    #[test]
    fn window_grammar_round_trips() {
        assert_eq!(parse_window("off").unwrap(), None);
        assert_eq!(parse_window("").unwrap(), None);
        assert_eq!(parse_window("  window=4096  ").unwrap(), Some(4096));
        let windowed = crate::ObsConfig::windowed(7);
        assert_eq!(parse_window(&windowed.as_text()).unwrap(), Some(7));
        assert_eq!(parse_window(&crate::ObsConfig::off().as_text()).unwrap(), None);
        assert!(parse_window("window=0").is_err());
        assert!(parse_window("window=lots").is_err());
        assert!(parse_window("window").is_err());
        assert!(parse_window("hourly").unwrap_err().contains("hourly"));
    }

    #[test]
    fn counters_delta_encode_and_gauges_pass_through() {
        let mut ring = TimeSeriesRing::new(8);
        let c = ring.track("c", TrackKind::Counter);
        let g = ring.track("g", TrackKind::Gauge);
        assert_eq!((c, g), (TrackId(0), TrackId(1)));
        ring.push_window(100, 400, &[10, 7]);
        ring.push_window(200, 900, &[25, 3]);
        let snap = ring.snapshot(100);
        assert_eq!(snap.track_values("c").unwrap(), vec![10, 15]);
        assert_eq!(snap.track_values("g").unwrap(), vec![7, 3]);
        assert_eq!(snap.windows[1].end_instr, 200);
        assert_eq!(snap.windows[1].end_cycle, 900);
    }

    #[test]
    fn ring_overwrites_oldest_and_accounts_drops() {
        let mut ring = TimeSeriesRing::new(2);
        ring.track("c", TrackKind::Counter);
        for i in 1..=5u64 {
            ring.push_window(i * 10, i * 100, &[i]);
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped_windows(), 3);
        let snap = ring.snapshot(10);
        let ends: Vec<u64> = snap.windows.iter().map(|w| w.end_instr).collect();
        assert_eq!(ends, vec![40, 50]);
        // Deltas stay correct across the overwrite.
        assert_eq!(snap.track_values("c").unwrap(), vec![1, 1]);
    }

    #[test]
    fn conservation_holds_without_drops_and_flags_mismatch() {
        let mut ring = two_track_ring();
        ring.push_window(100, 250, &[250, 100]);
        ring.push_window(200, 600, &[600, 200]);
        assert!(ring.check_conservation(&[600, 200]).is_ok());
        let err = ring.check_conservation(&[600, 199]).unwrap_err();
        assert!(err.contains(track_names::INSTRUCTIONS), "{err}");
        // Dropped windows make short sums legitimate.
        let mut tiny = TimeSeriesRing::new(1);
        tiny.track("c", TrackKind::Counter);
        tiny.push_window(1, 1, &[1]);
        tiny.push_window(2, 2, &[2]);
        assert!(tiny.check_conservation(&[2]).is_ok());
    }

    #[test]
    fn registration_seals_at_first_window() {
        let mut ring = two_track_ring();
        ring.push_window(1, 1, &[1, 1]);
        let result = std::panic::catch_unwind(move || {
            ring.track("late", TrackKind::Gauge);
        });
        assert!(result.is_err(), "late registration must panic");
    }

    #[test]
    fn derived_metrics_use_fixed_point_integers() {
        let tracks = vec![
            TrackSnapshot {
                name: track_names::CYCLES.into(),
                kind: "counter".into(),
            },
            TrackSnapshot {
                name: track_names::INSTRUCTIONS.into(),
                kind: "counter".into(),
            },
            TrackSnapshot {
                name: track_names::BTB_MISSES.into(),
                kind: "counter".into(),
            },
            TrackSnapshot {
                name: track_names::BTB_COVERED.into(),
                kind: "counter".into(),
            },
            TrackSnapshot {
                name: track_names::DECODE_RESTEERS.into(),
                kind: "counter".into(),
            },
        ];
        let windows = vec![WindowSnapshot {
            end_instr: 1000,
            end_cycle: 4000,
            values: vec![4000, 1000, 30, 10, 6],
        }];
        let derived = derive_windows(&tracks, &windows);
        assert_eq!(derived.len(), 1);
        assert_eq!(derived[0].ipc_micros, 250_000); // 0.25 IPC
        assert_eq!(derived[0].btb_mpki_milli, 30_000); // 30 MPKI
        assert_eq!(derived[0].coverage_permille, 250); // 10 / 40
        assert_eq!(derived[0].resteer_pki_milli, 6_000); // 6 per kilo-instr
        // Missing cycle/instruction tracks: no derived pass.
        assert!(derive_windows(&tracks[2..], &windows).is_empty());
    }

    #[test]
    fn phase_detector_splits_on_ipc_shifts() {
        let ipc = |v: u64| DerivedWindow {
            ipc_micros: v,
            ..DerivedWindow::default()
        };
        // Two clean phases: ~1.0 IPC then ~0.5 IPC.
        let derived: Vec<DerivedWindow> = [1_000_000, 1_010_000, 990_000, 500_000, 505_000]
            .iter()
            .map(|&v| ipc(v))
            .collect();
        let phases = detect_phases(&derived);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].label, "phase-0");
        assert_eq!((phases[0].start_window, phases[0].end_window), (0, 2));
        assert_eq!((phases[1].start_window, phases[1].end_window), (3, 4));
        assert!(phases[0].mean_ipc_micros > 2 * phases[1].mean_ipc_micros / 2);
        // A flat series is one phase; an empty one has none.
        assert_eq!(detect_phases(&[ipc(7); 4]).len(), 1);
        assert!(detect_phases(&[]).is_empty());
    }

    #[test]
    fn snapshot_round_trips_and_rejects_future_versions() {
        let mut ring = two_track_ring();
        ring.push_window(100, 400, &[400, 100]);
        ring.push_window(200, 800, &[800, 200]);
        let snap = ring.snapshot(100);
        assert_eq!(snap.version, TIMELINE_VERSION);
        assert_eq!(snap.derived.len(), 2);
        assert_eq!(snap.derived[0].ipc_micros, 250_000);
        assert_eq!(snap.phases.len(), 1);
        let json = snap.to_json().unwrap();
        let back = TimelineSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        // Determinism: serialization is a pure function of the content.
        assert_eq!(json, back.to_json().unwrap());
        let future = json.replacen(
            &format!("\"version\": {TIMELINE_VERSION}"),
            "\"version\": 999",
            1,
        );
        assert_ne!(future, json);
        let err = TimelineSnapshot::from_json(&future).unwrap_err();
        assert!(err.to_string().contains("unsupported version"), "{err}");
    }

    #[test]
    fn timeline_diff_is_semantic_and_ordered() {
        let mut a = two_track_ring();
        a.push_window(100, 400, &[400, 100]);
        a.push_window(200, 800, &[800, 200]);
        let a = a.snapshot(100);
        assert!(diff_timelines(&a, &a).is_empty());
        assert!(diff_timelines(&a, &a).to_string().contains("identical"));

        let mut b = two_track_ring();
        b.push_window(100, 400, &[400, 100]);
        b.push_window(200, 810, &[810, 200]);
        let b = b.snapshot(100);
        let diff = diff_timelines(&a, &b);
        assert!(!diff.is_empty());
        assert_eq!(diff.boundaries.len(), 1);
        assert_eq!(diff.boundaries[0].0, 1);
        assert_eq!(diff.values.len(), 1);
        assert_eq!(diff.values[0].track, track_names::CYCLES);
        assert_eq!((diff.values[0].before, diff.values[0].after), (Some(400), Some(410)));
        let rendered = diff.to_string();
        assert!(rendered.contains("sim.cycles"), "{rendered}");

        // Tracks are matched by name, not position.
        let mut c = TimeSeriesRing::new(4);
        c.track(track_names::INSTRUCTIONS, TrackKind::Counter);
        c.track(track_names::CYCLES, TrackKind::Counter);
        c.push_window(100, 400, &[100, 400]);
        c.push_window(200, 800, &[200, 800]);
        let c = c.snapshot(100);
        assert!(diff_timelines(&a, &c).is_empty());

        let mismatch = diff_timelines(&a, &TimelineSnapshot::empty(50));
        assert_eq!(mismatch.window_mismatch, Some((100, 50)));
        assert_eq!(mismatch.count_mismatch, Some((2, 0)));
    }
}
