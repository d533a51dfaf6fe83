//! Bridge between the simulator core and the `twig-obs` observability
//! layer.
//!
//! [`ObsState`] is the per-simulation recording state: the metrics
//! registry with pre-registered hot-loop histogram handles, and (at the
//! `trace` tier) the sampled span ring. It lives behind an
//! `Option<Box<ObsState>>` on the simulator so the `off` tier costs one
//! never-taken branch per cycle and zero bytes of state — the same
//! zero-cost discipline as the integrity layer.
//!
//! The canonical run statistics remain the plain [`SimStats`] fields
//! (that *is* the allocation-free hot path, and the figure pipeline
//! reads it unchanged); [`ObsState::mirror_stats`] projects them into
//! the registry at end of run so the exported metrics snapshot is a
//! strict superset of the legacy stats. A unit test in the integration
//! suite pins that equivalence.

use twig_obs::timeseries::{track_names, TimeSeriesRing, TimelineSnapshot, TrackKind};
use twig_obs::{
    AttrTable, HistId, MetricsRegistry, MetricsSnapshot, ObsConfig, TraceRing,
    DEFAULT_TIMELINE_CAPACITY, DEFAULT_TRACE_CAPACITY,
};
use twig_types::BranchKind;

use crate::icache::MemoryStats;
use crate::stats::SimStats;

/// Live observability state of one simulation (absent at the `off` tier).
#[derive(Debug)]
pub struct ObsState {
    /// The registry all components record into.
    pub registry: MetricsRegistry,
    /// The sampled span ring (`trace` tier only).
    pub ring: Option<TraceRing>,
    /// The per-branch cycle attribution table (`attr` items only).
    pub attr: Option<AttrTable>,
    /// Per-cycle FTQ occupancy histogram.
    pub ftq_occupancy: HistId,
    /// Per-cycle ROB occupancy histogram.
    pub rob_occupancy: HistId,
    /// Instructions (original + injected ops) per issued fetch region.
    pub fetch_region_instrs: HistId,
    /// BPU stall cycles charged per resteer.
    pub resteer_penalty: HistId,
}

impl ObsState {
    /// Builds the recording state for `config`, or `None` when nothing
    /// records (neither the counters tier nor attribution is enabled).
    pub fn from_config(config: &ObsConfig) -> Option<Box<ObsState>> {
        if !config.recording() {
            return None;
        }
        let mut registry = MetricsRegistry::new();
        let ftq_occupancy = registry.histogram("frontend.ftq_occupancy");
        let rob_occupancy = registry.histogram("frontend.rob_occupancy");
        let fetch_region_instrs = registry.histogram("frontend.fetch_region_instrs");
        let resteer_penalty = registry.histogram("frontend.resteer_penalty");
        let ring = config
            .level
            .trace_sample()
            .map(|sample| TraceRing::new(DEFAULT_TRACE_CAPACITY, sample));
        let attr = config.attr.enabled.then(|| AttrTable::new(&config.attr));
        Some(Box::new(ObsState {
            registry,
            ring,
            attr,
            ftq_occupancy,
            rob_occupancy,
            fetch_region_instrs,
            resteer_penalty,
        }))
    }

    /// Mirrors the observability layer's own bookkeeping into the
    /// registry at end of run: trace-ring truncation
    /// (`obs.trace.dropped_spans`) and attribution totals
    /// (`obs.attr.*`), so the snapshot reports them alongside the
    /// simulation counters.
    pub fn mirror_internal(&mut self) {
        if let Some(dropped) = self.ring.as_ref().map(TraceRing::dropped_spans) {
            self.registry.set_by_name("obs.trace.dropped_spans", dropped);
        }
        if let Some((events, cycles, keys)) = self
            .attr
            .as_ref()
            .map(|t| (t.total_events(), t.total_cycles(), t.len() as u64))
        {
            self.registry.set_by_name("obs.attr.total_events", events);
            self.registry.set_by_name("obs.attr.total_cycles", cycles);
            self.registry.set_by_name("obs.attr.tracked_keys", keys);
        }
    }

    /// Projects the canonical run statistics into the registry (the
    /// compatibility view: every legacy stat appears as a counter).
    pub fn mirror_stats(&mut self, stats: &SimStats, mem: &MemoryStats) {
        let reg = &mut self.registry;
        reg.set_by_name("sim.cycles", stats.cycles);
        reg.set_by_name("sim.retired_instructions", stats.retired_instructions);
        reg.set_by_name("sim.retired_prefetch_ops", stats.retired_prefetch_ops);
        for kind in BranchKind::ALL {
            let i = kind.index();
            let m = kind.mnemonic();
            reg.set_by_name(&format!("btb.accesses.{m}"), stats.btb_accesses[i]);
            reg.set_by_name(&format!("btb.misses.{m}"), stats.btb_misses[i]);
            reg.set_by_name(&format!("btb.covered.{m}"), stats.covered_misses[i]);
        }
        reg.set_by_name("btb.accesses.total", stats.total_btb_accesses());
        reg.set_by_name("btb.misses.total", stats.total_btb_misses());
        reg.set_by_name("btb.covered.total", stats.total_covered_misses());
        reg.set_by_name("frontend.decode_resteers", stats.decode_resteers);
        reg.set_by_name("frontend.exec_resteers", stats.exec_resteers);
        reg.set_by_name("bpu.conditional_executed", stats.conditional_executed);
        reg.set_by_name("bpu.direction_mispredicts", stats.direction_mispredicts);
        reg.set_by_name("bpu.indirect_mispredicts", stats.indirect_mispredicts);
        reg.set_by_name("bpu.return_mispredicts", stats.return_mispredicts);
        reg.set_by_name("topdown.retiring", stats.topdown.retiring);
        reg.set_by_name("topdown.frontend_bound", stats.topdown.frontend_bound);
        reg.set_by_name("topdown.bad_speculation", stats.topdown.bad_speculation);
        reg.set_by_name("topdown.backend_bound", stats.topdown.backend_bound);
        reg.set_by_name("prefetch_buffer.inserted", stats.prefetch_buffer.inserted);
        reg.set_by_name("prefetch_buffer.used", stats.prefetch_buffer.used);
        reg.set_by_name(
            "prefetch_buffer.evicted_unused",
            stats.prefetch_buffer.evicted_unused,
        );
        reg.set_by_name("prefetch_buffer.late", stats.prefetch_buffer.late);
        reg.set_by_name("icache.demand_accesses", mem.demand_accesses);
        reg.set_by_name("icache.demand_misses", mem.demand_misses);
        reg.set_by_name("icache.demand_joined_inflight", mem.demand_joined_inflight);
        reg.set_by_name("icache.prefetches", mem.prefetches);
        reg.set_by_name("icache.redundant_prefetches", mem.redundant_prefetches);
        reg.set_by_name("mem.fills_l2", mem.fills_l2);
        reg.set_by_name("mem.fills_l3", mem.fills_l3);
        reg.set_by_name("mem.fills_memory", mem.fills_memory);
    }

    /// Freezes the registry into its deterministic serialized form.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// The fixed track set the simulator's timeline samples, in
/// registration order ([`TimelineState::sample`] must match). All
/// monotone cumulative counters, so every window delta-encodes cleanly
/// and the conservation check is exact.
const TIMELINE_TRACKS: [(&str, TrackKind); 10] = [
    (track_names::CYCLES, TrackKind::Counter),
    (track_names::INSTRUCTIONS, TrackKind::Counter),
    ("sim.retired_prefetch_ops", TrackKind::Counter),
    ("btb.accesses.total", TrackKind::Counter),
    (track_names::BTB_MISSES, TrackKind::Counter),
    (track_names::BTB_COVERED, TrackKind::Counter),
    (track_names::DECODE_RESTEERS, TrackKind::Counter),
    (track_names::EXEC_RESTEERS, TrackKind::Counter),
    ("topdown.frontend_bound", TrackKind::Counter),
    ("topdown.bad_speculation", TrackKind::Counter),
];

/// Windowed time-series recording state (`window=N`), *separate*
/// from [`ObsState`] on purpose: windowing only reads the live
/// [`SimStats`], never mutates simulation state, so `window=N` alone
/// keeps batched idle-cycle stepping enabled and the simulation results
/// bit-identical — unlike the counters/trace tiers, whose per-cycle
/// recording disables batching.
///
/// Window boundaries are closed-form: a window closes at the retire
/// event that carries the cumulative retired-instruction count across
/// the next `k · window` boundary. Batched stepping only leaps cycles
/// in which nothing retires, so leapt spans always fall strictly inside
/// the currently open window and boundary attribution is exact; a
/// retire burst that crosses several boundaries closes them all at the
/// same cycle (the later ones with zero deltas). The end-of-run flush
/// cross-validates the whole construction (see [`TimelineState::flush`]).
#[derive(Debug)]
pub struct TimelineState {
    window: u64,
    next_boundary: u64,
    ring: TimeSeriesRing,
}

impl TimelineState {
    /// Builds the windowing state for `config`, or `None` when it has
    /// no `window=N` item.
    pub fn from_config(config: &ObsConfig) -> Option<Box<TimelineState>> {
        let window = config.window?.max(1);
        let mut ring = TimeSeriesRing::new(DEFAULT_TIMELINE_CAPACITY);
        for (name, kind) in TIMELINE_TRACKS {
            ring.track(name, kind);
        }
        Some(Box::new(TimelineState {
            window,
            next_boundary: window,
            ring,
        }))
    }

    /// Current cumulative value of every track, in [`TIMELINE_TRACKS`]
    /// order. `cycles` is passed separately because `stats.cycles` is
    /// only assigned at end of run.
    fn sample(stats: &SimStats, cycles: u64) -> [u64; TIMELINE_TRACKS.len()] {
        [
            cycles,
            stats.retired_instructions,
            stats.retired_prefetch_ops,
            stats.total_btb_accesses(),
            stats.total_btb_misses(),
            stats.total_covered_misses(),
            stats.decode_resteers,
            stats.exec_resteers,
            stats.topdown.frontend_bound,
            stats.topdown.bad_speculation,
        ]
    }

    /// Drives the closed-form boundary walk from the retire path: called
    /// once per cycle that retires instructions, after the stats have
    /// been bumped. Allocation-free; when no boundary is crossed this is
    /// one compare.
    #[inline]
    pub fn on_retire(&mut self, cycle: u64, stats: &SimStats) {
        if stats.retired_instructions < self.next_boundary {
            return;
        }
        let sample = Self::sample(stats, cycle);
        while stats.retired_instructions >= self.next_boundary {
            let boundary = self.next_boundary;
            self.next_boundary += self.window;
            self.ring.push_window(boundary, cycle, &sample);
        }
    }

    /// Closes the final (possibly partial) window at end of run and
    /// cross-validates the boundary walk: window ends must be strictly
    /// increasing with every non-final end on an exact `window` multiple,
    /// and per-window counter deltas must sum exactly to the end-of-run
    /// totals (the conservation invariant).
    ///
    /// # Panics
    ///
    /// Panics when the timeline disagrees with the run totals — that is
    /// a harness bug (mis-attributed leapt windows), never a workload
    /// property.
    pub fn flush(&mut self, stats: &SimStats) {
        let sample = Self::sample(stats, stats.cycles);
        self.ring
            .push_window(stats.retired_instructions, stats.cycles, &sample);
        if let Err(e) = self.ring.check_conservation(&sample) {
            panic!("timeline conservation violated: {e}");
        }
        let snapshot = self.ring.snapshot(self.window);
        if snapshot.dropped_windows == 0 {
            let mut prev_end = None;
            for (i, w) in snapshot.windows.iter().enumerate() {
                if i + 1 < snapshot.windows.len() {
                    assert!(
                        w.end_instr % self.window == 0,
                        "timeline window {i} ends off-boundary at {} (window={})",
                        w.end_instr,
                        self.window
                    );
                }
                if let Some(prev) = prev_end {
                    assert!(
                        w.end_instr >= prev,
                        "timeline window {i} ends before its predecessor"
                    );
                }
                prev_end = Some(w.end_instr);
            }
        }
    }

    /// Freezes the timeline into its deterministic serialized form.
    pub fn snapshot(&self) -> TimelineSnapshot {
        self.ring.snapshot(self.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tier_allocates_nothing() {
        assert!(ObsState::from_config(&ObsConfig::off()).is_none());
    }

    #[test]
    fn counters_tier_has_no_ring() {
        let state = ObsState::from_config(&ObsConfig::counters()).unwrap();
        assert!(state.ring.is_none());
    }

    #[test]
    fn trace_tier_has_a_ring() {
        let state = ObsState::from_config(&ObsConfig::trace(8)).unwrap();
        assert!(state.ring.is_some());
        assert!(state.attr.is_none());
    }

    #[test]
    fn attr_alone_creates_recording_state() {
        let config = ObsConfig::parse("attr").unwrap();
        let state = ObsState::from_config(&config).unwrap();
        assert!(state.ring.is_none());
        assert!(state.attr.is_some());
    }

    #[test]
    fn internal_mirror_reports_attr_totals_and_dropped_spans() {
        let config = ObsConfig::parse("trace,attr").unwrap();
        let mut state = ObsState::from_config(&config).unwrap();
        state.attr.as_mut().unwrap().record(
            0x40,
            BranchKind::Conditional,
            twig_obs::MissKind::Direction,
            12,
        );
        state.mirror_internal();
        let snap = state.snapshot();
        assert_eq!(snap.counter("obs.attr.total_events"), Some(1));
        assert_eq!(snap.counter("obs.attr.total_cycles"), Some(12));
        assert_eq!(snap.counter("obs.attr.tracked_keys"), Some(1));
        assert_eq!(snap.counter("obs.trace.dropped_spans"), Some(0));
    }

    #[test]
    fn timeline_state_gated_on_window_knob() {
        assert!(TimelineState::from_config(&ObsConfig::off()).is_none());
        assert!(TimelineState::from_config(&ObsConfig::counters()).is_none());
        let state = TimelineState::from_config(&ObsConfig::windowed(100)).unwrap();
        assert_eq!(state.window, 100);
        assert_eq!(state.ring.track_count(), TIMELINE_TRACKS.len());
    }

    #[test]
    fn retire_bursts_close_windows_in_closed_form() {
        let mut state = TimelineState::from_config(&ObsConfig::windowed(100)).unwrap();
        // One burst carries the count from 90 to 310: three boundaries
        // (100, 200, 300) close at the same cycle.
        let mut stats = SimStats {
            retired_instructions: 90,
            ..SimStats::default()
        };
        state.on_retire(40, &stats);
        assert!(state.ring.is_empty());
        stats.retired_instructions = 310;
        stats.decode_resteers = 4;
        state.on_retire(120, &stats);
        assert_eq!(state.ring.len(), 3);
        stats.retired_instructions = 350;
        stats.cycles = 200;
        state.flush(&stats);
        let snap = state.snapshot();
        let ends: Vec<u64> = snap.windows.iter().map(|w| w.end_instr).collect();
        assert_eq!(ends, vec![100, 200, 300, 350]);
        let cycles: Vec<u64> = snap.windows.iter().map(|w| w.end_cycle).collect();
        assert_eq!(cycles, vec![120, 120, 120, 200]);
        // Conservation: per-window instruction deltas sum to the total.
        let instrs = snap.track_values(track_names::INSTRUCTIONS).unwrap();
        assert_eq!(instrs, vec![310, 0, 0, 40]);
        assert_eq!(instrs.iter().sum::<u64>(), 350);
        let resteers = snap.track_values(track_names::DECODE_RESTEERS).unwrap();
        assert_eq!(resteers.iter().sum::<u64>(), 4);
    }

    #[test]
    fn exact_boundary_runs_flush_cleanly() {
        let mut state = TimelineState::from_config(&ObsConfig::windowed(50)).unwrap();
        let mut stats = SimStats {
            retired_instructions: 50,
            ..SimStats::default()
        };
        state.on_retire(75, &stats);
        stats.retired_instructions = 100;
        state.on_retire(160, &stats);
        stats.cycles = 170;
        state.flush(&stats);
        let snap = state.snapshot();
        assert_eq!(snap.windows.len(), 3);
        let cycles = snap.track_values(track_names::CYCLES).unwrap();
        assert_eq!(cycles.iter().sum::<u64>(), 170);
        // The trailing flush window carries only the pipeline drain.
        let instrs = snap.track_values(track_names::INSTRUCTIONS).unwrap();
        assert_eq!(instrs, vec![50, 50, 0]);
    }

    #[test]
    fn mirror_covers_every_stat_field() {
        let mut state = ObsState::from_config(&ObsConfig::counters()).unwrap();
        let mut stats = SimStats {
            cycles: 10,
            ..SimStats::default()
        };
        stats.btb_misses[BranchKind::Return.index()] = 3;
        stats.topdown.retiring = 7;
        let mem = MemoryStats {
            demand_accesses: 5,
            ..MemoryStats::default()
        };
        state.mirror_stats(&stats, &mem);
        let snap = state.snapshot();
        assert_eq!(snap.counter("sim.cycles"), Some(10));
        assert_eq!(snap.counter("btb.misses.ret"), Some(3));
        assert_eq!(snap.counter("btb.misses.total"), Some(3));
        assert_eq!(snap.counter("topdown.retiring"), Some(7));
        assert_eq!(snap.counter("icache.demand_accesses"), Some(5));
    }
}
