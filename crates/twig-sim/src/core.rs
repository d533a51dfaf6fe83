//! The cycle-driven decoupled-frontend simulator.
//!
//! Model (see DESIGN.md §3): per cycle, the branch prediction unit (BPU)
//! advances along the trace doing real BTB/IBTB/RAS/direction lookups and
//! enqueues fetch regions into the FTQ (with FDIP prefetching their I-cache
//! lines); the fetch unit consumes FTQ entries once their lines are ready;
//! decode executes software prefetch ops and resolves BTB-miss resteers;
//! execute resolves direction/indirect mispredicts; retire drains delivered
//! instructions at the machine width and attributes Top-Down slots.
//!
//! Because the trace is the correct path, wrong-path fetch is modelled as
//! BPU dead time: from the cycle a to-be-resteered branch is predicted until
//! the resteer resolves, the BPU enqueues nothing, which is exactly the
//! frontend bubble a real machine sees (minus wrong-path cache pollution,
//! which the paper's comparisons do not depend on).

use twig_obs::{MissKind, Stage};
use twig_types::{Addr, BlockId, BranchKind, BranchOutcome, CacheLineAddr};
use twig_workload::{BlockEvent, Program};

use crate::btb::Btb;
use crate::config::SimConfig;
use crate::direction::DirectionPredictor;
use crate::frontend_state::{
    activity, ActivityMask, DeliveryRing, FtqRing, Region, ResteerCause, ResteerKind, RetireRing,
};
use crate::icache::MemoryHierarchy;
use crate::integrity::dump::{DumpBranch, StateDump, DUMP_VERSION};
use crate::integrity::watchdog::Watchdogs;
use crate::integrity::{
    Fault, IntegrityConfig, IntegrityViolation, MutationKind, MutationSpec, Validator,
    ViolationKind, CYCLE_BUDGET_FACTOR, DEEP_PERIOD,
};
use crate::obs::{ObsState, TimelineState};
use crate::ras::Ras;
use crate::stats::SimStats;
use crate::system::{BtbSystem, FrontendCtx, LookupOutcome};

/// One entry of the BPU's basic-block history (LBR model).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HistoryEntry {
    /// The executed block.
    pub block: BlockId,
    /// BPU cycle at which the block was processed.
    pub cycle: u64,
}

/// Observer of real BTB misses, with the 32-deep basic-block history the
/// paper's LBR-based profiler records (§3.1).
pub trait MissObserver {
    /// Called on every *real* (uncovered) BTB miss of a taken branch.
    ///
    /// `history` lists the most recent blocks executed before the miss,
    /// oldest first, including the missing block itself as the last entry.
    fn on_btb_miss(
        &mut self,
        block: BlockId,
        kind: BranchKind,
        history: &[HistoryEntry],
        cycle: u64,
    );
}

/// A no-op observer.
impl MissObserver for () {
    fn on_btb_miss(&mut self, _: BlockId, _: BranchKind, _: &[HistoryEntry], _: u64) {}
}

/// Depth of the block history kept for the observer (Intel LBR records 32).
pub const LBR_DEPTH: usize = 32;

/// The frontend simulator. Drives a [`BtbSystem`] over a block-event stream.
///
/// # Examples
///
/// ```
/// use twig_sim::{PlainBtb, SimConfig, Simulator};
/// use twig_workload::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};
///
/// let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
/// let config = SimConfig::default();
/// let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
/// let events = Walker::new(&program, InputConfig::numbered(0));
/// let stats = sim.run(events, 100_000);
/// assert!(stats.ipc() > 0.0);
/// ```
pub struct Simulator<'p, B> {
    program: &'p Program,
    config: SimConfig,
    system: B,
    mem: MemoryHierarchy,
    direction: DirectionPredictor,
    ibtb: Btb,
    ras: Ras,
    stats: SimStats,
    /// The LBR window is the last `LBR_DEPTH` entries; the vector slides
    /// its window back to the front when it reaches `2 * LBR_DEPTH`.
    history: Vec<HistoryEntry>,
    /// Whether the system consumes L1i fill/eviction events (cached
    /// [`BtbSystem::observes_line_events`]); without them the drains are
    /// skipped.
    line_events: bool,
    /// Block events consumed from the trace (the cursor recorded in dumps).
    events_consumed: u64,
    /// Label stamped on integrity violations and dumps (e.g. `sim:kafka/twig`).
    integrity_label: String,
    /// Observability recording state; `None` at the `off` tier, so the
    /// hot loop pays one never-taken branch per cycle (same discipline
    /// as the integrity layer).
    obs: Option<Box<ObsState>>,
    /// Windowed time-series state; `None` unless a `window=N` item selects
    /// a window. Kept separate from `obs` so windowing alone leaves idle-cycle
    /// batching enabled (it only reads [`SimStats`] at retire boundaries).
    timeline: Option<Box<TimelineState>>,
    /// Reused staging buffer for a region's software-prefetch blocks
    /// (copied into the FTQ ring's shared pool on push).
    ops_scratch: Vec<BlockId>,
    /// Reused buffer for the head probe's missed lines.
    line_scratch: Vec<CacheLineAddr>,
    /// Reused buffers the L1i fill/eviction events drain into.
    filled_scratch: Vec<(CacheLineAddr, u64)>,
    evicted_scratch: Vec<CacheLineAddr>,
}

impl<'p, B: BtbSystem> Simulator<'p, B> {
    /// Creates a simulator for `program` with the given BTB system.
    ///
    /// Under the `paranoid` integrity tier this also arms the differential
    /// reference models inside the IBTB, RAS, and the BTB system.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(program: &'p Program, config: SimConfig, system: B) -> Self {
        config.validate().expect("invalid sim config");
        let mut sim = Simulator {
            program,
            config,
            line_events: system.observes_line_events(),
            system,
            mem: MemoryHierarchy::new(&config),
            direction: DirectionPredictor::new(config.direction),
            ibtb: Btb::named(config.ibtb, "ibtb"),
            ras: Ras::new(config.ras_entries),
            stats: SimStats::default(),
            history: Vec::with_capacity(2 * LBR_DEPTH),
            events_consumed: 0,
            integrity_label: String::from("sim"),
            obs: ObsState::from_config(&config.obs),
            timeline: TimelineState::from_config(&config.obs),
            ops_scratch: Vec::new(),
            line_scratch: Vec::new(),
            filled_scratch: Vec::new(),
            evicted_scratch: Vec::new(),
        };
        if config.integrity.level.differential() {
            sim.ibtb.enable_shadow();
            sim.ras.enable_shadow();
            sim.system.enable_differential();
        }
        sim.mem.set_line_event_tracking(sim.line_events);
        sim
    }

    /// Sets the label stamped on integrity violations and forensic dumps
    /// (the harness uses its cell id, e.g. `sim:kafka/twig`).
    pub fn set_integrity_label(&mut self, label: impl Into<String>) {
        self.integrity_label = label.into();
    }

    /// Runs until `instruction_budget` original instructions retire (or the
    /// event stream ends), returning the collected statistics.
    ///
    /// # Panics
    ///
    /// Panics if an enabled integrity tier detects a violation; use
    /// [`Self::try_run`] to handle violations as typed errors.
    pub fn run(
        &mut self,
        events: impl IntoIterator<Item = BlockEvent>,
        instruction_budget: u64,
    ) -> SimStats {
        self.run_observed(events, instruction_budget, &mut ())
    }

    /// Like [`Self::run`], also reporting every real BTB miss (with LBR-style
    /// history) to `observer`.
    ///
    /// # Panics
    ///
    /// Panics if an enabled integrity tier detects a violation.
    pub fn run_observed(
        &mut self,
        events: impl IntoIterator<Item = BlockEvent>,
        instruction_budget: u64,
        observer: &mut dyn MissObserver,
    ) -> SimStats {
        match self.try_run_observed(events, instruction_budget, observer) {
            Ok(stats) => stats,
            Err(violation) => panic!("{violation}"),
        }
    }

    /// Runs until the budget retires, surfacing integrity violations as a
    /// typed error instead of aborting.
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityViolation`] an enabled checking tier
    /// detects (after writing a forensic dump).
    pub fn try_run(
        &mut self,
        events: impl IntoIterator<Item = BlockEvent>,
        instruction_budget: u64,
    ) -> Result<SimStats, Box<IntegrityViolation>> {
        self.try_run_observed(events, instruction_budget, &mut ())
    }

    /// Like [`Self::try_run`], also reporting every real BTB miss to
    /// `observer`.
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityViolation`] detected.
    pub fn try_run_observed(
        &mut self,
        events: impl IntoIterator<Item = BlockEvent>,
        instruction_budget: u64,
        observer: &mut dyn MissObserver,
    ) -> Result<SimStats, Box<IntegrityViolation>> {
        let mut events = events.into_iter();
        let mut events_done = false;

        let mut cycle: u64 = 0;
        let mut bpu_stalled_until: u64 = 0;
        let mut ftq = FtqRing::new(self.config.ftq_entries);
        let mut fetch_free_at: u64 = 0;
        let mut head_ready_at: Option<u64> = None;
        let mut deliveries = DeliveryRing::new();
        // Instructions decoded and waiting to retire: (original, ops) FIFO.
        let mut avail = RetireRing::new();
        // ROB occupancy: decoded-but-unretired instructions (deliveries in
        // flight plus the avail queue). Fetch stalls when the ROB is full.
        let mut rob_occupancy: usize = 0;
        let mut backend_deficit: f64 = 0.0;
        // Active resteer (for Top-Down attribution of empty-frontend slots).
        let mut resteer_until: u64 = 0;
        let mut resteer_is_exec = false;
        // Which structures hold work; every transition below happens at
        // the statement that changes the summarized structure (the deep
        // integrity sweep cross-checks each bit).
        let mut mask = ActivityMask::new();

        // Hoisted configuration scalars: the borrow checker cannot prove
        // `self.config` unchanged across the `&mut self` stage calls, so
        // reading them through `self` would reload every iteration.
        let regions_per_cycle = self.config.bpu_regions_per_cycle;
        let fetch_width = self.config.fetch_width;
        let retire_width = self.config.retire_width;
        let rob_entries = self.config.rob_entries;
        let decode_pipe = self.config.decode_pipe;
        let exec_pipe = self.config.exec_pipe;
        let redirect_penalty = self.config.redirect_penalty;
        let backend_extra_cpki = self.config.backend_extra_cpki;

        // Integrity instrumentation. `period` is `None` for the `off`
        // tier, reducing the per-cycle cost to one predictable branch.
        let integrity = self.config.integrity;
        let period = integrity.level.check_period();
        let mut watchdogs = period.map(|_| Watchdogs::new(instruction_budget));
        // Safety valve for malformed configurations; with checking enabled
        // the same ceiling is reported as a typed `cycle-budget` violation.
        let max_cycles = match &watchdogs {
            Some(w) => w.max_cycles(),
            None => instruction_budget
                .saturating_mul(CYCLE_BUDGET_FACTOR)
                .max(1 << 22),
        };
        // The seeded mutation drill, resolved once per run: the config's
        // own spec, else a `mutate` clause of the fault spec matching this
        // run's integrity label. Armed only when checking is enabled (a
        // corruption no tier would catch must never skew results).
        let mutate = period.and_then(|_| {
            integrity
                .mutate
                .or_else(|| twig_sched::fault::global().mutation(&self.integrity_label))
        });
        // Next cycle (at or after which) a full structural scan is due.
        // Tracking the next-due cycle instead of `cycle % DEEP_PERIOD`
        // keeps the detection-latency bound (one deep period plus one
        // sample period) even when the sample period does not divide it.
        let mut next_deep: u64 = 0;

        // Batched stepping is sound only when nothing records per-cycle
        // state: integrity sampling and the observability histograms both
        // observe every cycle, so either tier forces cycle-by-cycle
        // stepping (their identity-vs-off tests double as the oracle that
        // batching never changes statistics).
        let batch = self.config.batch_stepping && period.is_none() && self.obs.is_none();

        loop {
            // ---- BPU: advance prediction, fill the FTQ. -----------------
            if cycle >= bpu_stalled_until && !events_done {
                for _ in 0..regions_per_cycle {
                    if ftq.is_full() {
                        break;
                    }
                    let Some(region) =
                        self.build_region(&mut events, cycle, observer, &mut events_done)
                    else {
                        break;
                    };
                    let stall = region.resteer.is_some();
                    ftq.push(region, &self.ops_scratch);
                    mask.set(activity::FTQ);
                    if let Some(obs) = self.obs.as_deref_mut() {
                        if let Some(ring) = obs.ring.as_mut() {
                            ring.record(Stage::Predict, "bpu-region", cycle, 0);
                        }
                    }
                    if stall {
                        bpu_stalled_until = u64::MAX;
                        break;
                    }
                }
                if events_done {
                    mask.clear(activity::STREAM);
                }
            }

            // ---- Fetch/decode: issue the FTQ head when its lines arrive. --
            // The head's I-cache access is pipelined: it starts as soon as
            // the region reaches the head of the queue (even while fetch is
            // busy with the previous region), so an L1i hit adds no bubble
            // between back-to-back regions.
            if head_ready_at.is_none() && !ftq.is_empty() {
                let (first_line, last_line) = ftq.head_lines();
                head_ready_at = Some(self.probe_head_lines(first_line, last_line, cycle));
            }
            if fetch_free_at <= cycle && rob_occupancy < rob_entries
                && head_ready_at.is_some_and(|ready| ready <= cycle) {
                    let entry = ftq.pop_front();
                    if ftq.is_empty() {
                        mask.clear(activity::FTQ);
                    }
                    head_ready_at = None;
                    let total = entry.instrs + entry.ops;
                    let fetch_cycles =
                        u64::from(total.div_ceil(fetch_width)).max(1);
                    fetch_free_at = cycle + fetch_cycles;
                    let decode_done = fetch_free_at + decode_pipe;
                    deliveries.push_back(decode_done, entry.instrs, entry.ops);
                    mask.set(activity::DELIVERIES);
                    rob_occupancy += (entry.instrs + entry.ops) as usize;
                    if let Some(obs) = self.obs.as_deref_mut() {
                        obs.registry
                            .record(obs.fetch_region_instrs, u64::from(total));
                        if let Some(ring) = obs.ring.as_mut() {
                            ring.record(Stage::Fetch, "fetch-region", cycle, fetch_cycles);
                            if entry.ops_len > 0 {
                                ring.record(Stage::Prefetch, "sw-prefetch", cycle, 0);
                            }
                        }
                    }
                    for i in 0..entry.ops_len {
                        let block = ftq.pool_block(entry.ops_start, i);
                        self.execute_prefetch_ops(block, decode_done, cycle);
                    }
                    if let Some(cause) = entry.resteer {
                        let resolved_at = match cause.kind {
                            ResteerKind::Decode => decode_done,
                            ResteerKind::Execute => decode_done + exec_pipe,
                        };
                        let resume = resolved_at + redirect_penalty;
                        bpu_stalled_until = resume;
                        resteer_until = resume;
                        resteer_is_exec = cause.kind == ResteerKind::Execute;
                        match cause.kind {
                            ResteerKind::Decode => self.stats.decode_resteers += 1,
                            ResteerKind::Execute => self.stats.exec_resteers += 1,
                        }
                        if let Some(obs) = self.obs.as_deref_mut() {
                            obs.registry.record(obs.resteer_penalty, resume - cycle);
                            if let Some(attr) = obs.attr.as_mut() {
                                attr.record(cause.pc, cause.branch, cause.miss, resume - cycle);
                            }
                            if let Some(ring) = obs.ring.as_mut() {
                                let name = match cause.kind {
                                    ResteerKind::Decode => "resteer-decode",
                                    ResteerKind::Execute => "resteer-execute",
                                };
                                ring.record(Stage::Decode, name, cycle, resume - cycle);
                            }
                        }
                    }
                    // Start the next head's I-cache access in the same
                    // cycle (pipelined tag check).
                    if !ftq.is_empty() {
                        let (first_line, last_line) = ftq.head_lines();
                        head_ready_at =
                            Some(self.probe_head_lines(first_line, last_line, cycle));
                    }
                }

            // ---- Retire: drain decoded instructions, attribute slots. ----
            while deliveries.front_ready().is_some_and(|ready| ready <= cycle) {
                let (instrs, ops) = deliveries.pop_front();
                if deliveries.is_empty() {
                    mask.clear(activity::DELIVERIES);
                }
                avail.push_back(instrs, ops);
                mask.set(activity::RETIRE);
            }

            let width = retire_width;
            if backend_deficit >= 1.0 {
                backend_deficit -= 1.0;
                self.stats.topdown.backend_bound += u64::from(width);
            } else {
                let mut slots = width;
                let mut retired_orig: u32 = 0;
                while slots > 0 {
                    let Some((orig, ops)) = avail.front_mut() else { break };
                    // Prefetch ops sit at block start: retire them first.
                    if *ops > 0 {
                        let take = (*ops).min(slots);
                        *ops -= take;
                        slots -= take;
                        rob_occupancy -= take as usize;
                        self.stats.retired_prefetch_ops += u64::from(take);
                        self.stats.topdown.retiring += u64::from(take);
                    } else if *orig > 0 {
                        let take = (*orig).min(slots);
                        *orig -= take;
                        slots -= take;
                        rob_occupancy -= take as usize;
                        retired_orig += take;
                        self.stats.topdown.retiring += u64::from(take);
                    }
                    if *orig == 0 && *ops == 0 {
                        avail.pop_front();
                        if avail.is_empty() {
                            mask.clear(activity::RETIRE);
                        }
                    }
                }
                self.stats.retired_instructions += u64::from(retired_orig);
                if retired_orig > 0 {
                    if let Some(obs) = self.obs.as_deref_mut() {
                        if let Some(ring) = obs.ring.as_mut() {
                            ring.record(Stage::Commit, "retire", cycle, 0);
                        }
                    }
                    if let Some(timeline) = self.timeline.as_deref_mut() {
                        timeline.on_retire(cycle, &self.stats);
                    }
                }
                backend_deficit +=
                    f64::from(retired_orig) * backend_extra_cpki / 1000.0;
                if slots > 0 {
                    // Starved: frontend latency, or wrong-path recovery.
                    if cycle < resteer_until && resteer_is_exec {
                        self.stats.topdown.bad_speculation += u64::from(slots);
                    } else {
                        self.stats.topdown.frontend_bound += u64::from(slots);
                    }
                }
            }

            // ---- Observability: per-cycle occupancy histograms. ----------
            // One never-taken branch per cycle at the `off` tier, exactly
            // like the integrity gate below.
            if let Some(obs) = self.obs.as_deref_mut() {
                obs.registry.record(obs.ftq_occupancy, ftq.len() as u64);
                obs.registry.record(obs.rob_occupancy, rob_occupancy as u64);
            }

            // ---- Integrity: mutation drill, invariant sweep, watchdogs. --
            if let Some(p) = period {
                if let Some(spec) = mutate {
                    if cycle == spec.at_cycle {
                        self.inject_mutation(spec.kind);
                    }
                }
                if cycle.is_multiple_of(p) {
                    let deep = cycle >= next_deep;
                    if deep {
                        next_deep = cycle + DEEP_PERIOD;
                    }
                    if let Err((fault, component, structure)) =
                        self.sweep(deep, &ftq, &deliveries, &avail, rob_occupancy, mask)
                    {
                        return Err(self.raise(
                            fault,
                            component,
                            structure,
                            cycle,
                            instruction_budget,
                            mutate,
                        ));
                    }
                    let queued =
                        ftq.len() + deliveries.len() + avail.len() + self.mem.inflight_len();
                    let watchdogs = watchdogs.as_mut().expect("checking enabled");
                    if let Err(fault) = watchdogs.check(
                        cycle,
                        self.stats.retired_instructions + self.stats.retired_prefetch_ops,
                        || self.mem.has_outstanding_fill(cycle),
                        queued,
                    ) {
                        return Err(self.raise(
                            fault,
                            "watchdog",
                            String::new(),
                            cycle,
                            instruction_budget,
                            mutate,
                        ));
                    }
                }
            }

            // ---- Batched stepping: skip runs of quiescent cycles. --------
            // With the retire queue drained, every remaining stage's next
            // action is a pure function of already-scheduled times: the
            // BPU resumes at `bpu_stalled_until`, fetch at
            // `max(head_ready_at, fetch_free_at)`, and the decode pipe
            // drains at its head's `ready_at`. Jump to the earliest of
            // those and bulk-apply the skipped cycles' only state changes
            // — the backend-deficit drain and the integer Top-Down slot
            // tallies — in the same order the stepped loop would, so the
            // statistics stay bit-identical. (`backend_deficit` would also
            // accumulate `0.0 * cpki / 1000.0` per skipped cycle, which is
            // exact identity for the non-negative deficit.)
            // Skipping must also stop at the instruction budget: once the
            // retire stage crosses it, the loop breaks right after the
            // cycle increment, so there are no further cycles to attribute.
            if batch
                && !mask.contains(activity::RETIRE)
                && self.stats.retired_instructions < instruction_budget
            {
                let e_bpu = if !events_done && !ftq.is_full() {
                    bpu_stalled_until
                } else {
                    u64::MAX
                };
                // `head_ready_at` is `Some` iff the FTQ is non-empty here;
                // a full ROB keeps fetch blocked until the decode pipe
                // drains, which `e_decode` already bounds.
                let e_fetch = match head_ready_at {
                    Some(ready) if rob_occupancy < rob_entries => ready.max(fetch_free_at),
                    _ => u64::MAX,
                };
                let e_decode = deliveries.front_ready().unwrap_or(u64::MAX);
                let next = e_bpu.min(e_fetch).min(e_decode);
                if next != u64::MAX && next > cycle + 1 {
                    let target = next.min(max_cycles).max(cycle + 1);
                    let mut skipped = cycle + 1;
                    while skipped < target && backend_deficit >= 1.0 {
                        backend_deficit -= 1.0;
                        self.stats.topdown.backend_bound += u64::from(retire_width);
                        skipped += 1;
                    }
                    if skipped < target {
                        let idle = target - skipped;
                        let bad = if resteer_is_exec {
                            resteer_until.saturating_sub(skipped).min(idle)
                        } else {
                            0
                        };
                        self.stats.topdown.bad_speculation += u64::from(retire_width) * bad;
                        self.stats.topdown.frontend_bound +=
                            u64::from(retire_width) * (idle - bad);
                    }
                    cycle = target - 1;
                }
            }

            cycle += 1;

            if self.stats.retired_instructions >= instruction_budget {
                break;
            }
            // Stream exhausted and every queue drained (the mask bits
            // mirror `events_done`, the FTQ, the decode pipe, and the
            // retire queue exactly).
            if mask.all_idle() {
                break;
            }
            if cycle >= max_cycles {
                // With checking enabled the watchdog reports this as a
                // typed violation before the silent valve can trip; hitting
                // it here means checking is off (or sampling skipped past
                // the boundary), so report it if we can.
                if period.is_some() {
                    let fault = Fault::new(
                        ViolationKind::CycleBudget,
                        format!("cycle budget exhausted: {cycle} cycles (limit {max_cycles})"),
                    );
                    return Err(self.raise(
                        fault,
                        "watchdog",
                        String::new(),
                        cycle,
                        instruction_budget,
                        mutate,
                    ));
                }
                break;
            }
        }

        // Final deep sweep: end-of-run structural state must be coherent
        // even if the sampling cadence never lined up mid-run.
        if period.is_some() {
            if let Err((fault, component, structure)) =
                self.sweep(true, &ftq, &deliveries, &avail, rob_occupancy, mask)
            {
                return Err(self.raise(
                    fault,
                    component,
                    structure,
                    cycle,
                    instruction_budget,
                    mutate,
                ));
            }
        }

        self.stats.cycles = cycle;
        self.stats.prefetch_buffer = self.system.prefetch_stats().into();
        let mem = *self.mem.stats();
        self.stats.icache_demand_accesses = mem.demand_accesses;
        self.stats.icache_demand_misses = mem.demand_misses;
        self.stats.icache_prefetches = mem.prefetches;
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.mirror_stats(&self.stats, &mem);
            obs.mirror_internal();
            self.system.register_metrics(&mut obs.registry);
        }
        if let Some(timeline) = self.timeline.as_deref_mut() {
            timeline.flush(&self.stats);
        }
        Ok(self.stats.clone())
    }

    /// The end-of-run metrics snapshot: the legacy statistics mirrored as
    /// counters plus the hot-loop occupancy histograms and any
    /// system-specific metrics. `None` at the `off` observability tier.
    pub fn metrics_snapshot(&self) -> Option<twig_obs::MetricsSnapshot> {
        self.obs.as_deref().map(|obs| obs.snapshot())
    }

    /// The end-of-run windowed timeline (per-window counter deltas plus
    /// derived metrics and phase segments). `None` unless a `window=N`
    /// item selects a window.
    pub fn timeline_snapshot(&self) -> Option<twig_obs::TimelineSnapshot> {
        self.timeline.as_deref().map(|timeline| timeline.snapshot())
    }

    /// Sampled span events recorded so far, oldest first (empty unless
    /// the `trace` tier is on).
    pub fn trace_events(&self) -> Vec<twig_obs::TraceEvent> {
        self.obs
            .as_deref()
            .and_then(|obs| obs.ring.as_ref())
            .map(|ring| ring.events())
            .unwrap_or_default()
    }

    /// chrome://tracing JSON of the sampled spans, labelled with this
    /// run's integrity label. `Ok(None)` unless the `trace` tier is on.
    ///
    /// # Errors
    ///
    /// Returns an [`twig_obs::ExportError`] if serialization fails.
    pub fn chrome_trace(&self) -> Result<Option<String>, twig_obs::ExportError> {
        let Some(ring) = self.obs.as_deref().and_then(|obs| obs.ring.as_ref()) else {
            return Ok(None);
        };
        twig_obs::chrome_trace_json(&self.integrity_label, &ring.events(), ring.dropped_spans())
            .map(Some)
    }

    /// The end-of-run per-branch attribution profile ([`twig_obs::attr`]);
    /// `None` unless attribution (the `attr` items) is enabled.
    pub fn attribution_snapshot(&self) -> Option<twig_obs::AttributionSnapshot> {
        self.obs
            .as_deref()
            .and_then(|obs| obs.attr.as_ref())
            .map(|table| table.snapshot())
    }

    /// Folded-stack (flamegraph-compatible) rendering of the attribution
    /// profile, one stack per tracked branch site. `None` unless
    /// attribution is enabled.
    pub fn attribution_folded(&self, label: &str) -> Option<String> {
        self.attribution_snapshot()
            .map(|snap| twig_obs::folded_stacks(label, &snap))
    }

    /// Applies the armed seeded corruption (the CI mutation drill).
    fn inject_mutation(&mut self, kind: MutationKind) {
        match kind {
            MutationKind::RasDepth => self.ras.corrupt_depth(),
            MutationKind::BtbOccupancy => {
                // Prefer the system's main BTB; fall back to the IBTB so
                // the drill always has a target (e.g. the ideal baseline).
                if !self.system.inject_corruption(kind) {
                    self.ibtb.corrupt_occupancy();
                }
            }
        }
    }

    /// One invariant sweep: loop-local queue invariants plus every
    /// registered structure [`Validator`]. On failure returns the fault,
    /// the failing component's name, and its forensic snapshot.
    ///
    /// The cheap (`deep == false`) tier is strictly O(1) — occupancy
    /// counters only — so the `sampled` tier's cost stays independent of
    /// queue depth. The O(queue) walks (FTQ region ordering, delivery
    /// monotonicity, exact ROB accounting) run on deep scans, bounding
    /// their detection latency by `DEEP_PERIOD + period` like every
    /// other structural check.
    fn sweep(
        &self,
        deep: bool,
        ftq: &FtqRing,
        deliveries: &DeliveryRing,
        avail: &RetireRing,
        rob_occupancy: usize,
        mask: ActivityMask,
    ) -> Result<(), (Fault, &'static str, String)> {
        if ftq.len() > self.config.ftq_entries {
            return Err((
                Fault::new(
                    ViolationKind::FtqOccupancy,
                    format!(
                        "ftq holds {} entries, capacity {}",
                        ftq.len(),
                        self.config.ftq_entries
                    ),
                ),
                "ftq",
                format!("{ftq:?}"),
            ));
        }
        if !deep {
            return self.check_validators(false);
        }
        // The activity mask is a pure summary of the queues: a stale bit
        // means a push/pop site forgot its transition, which would let the
        // batched stepping skip live work (or spin on drained queues).
        for (bit, occupied, name) in [
            (activity::FTQ, !ftq.is_empty(), "ftq"),
            (activity::DELIVERIES, !deliveries.is_empty(), "deliveries"),
            (activity::RETIRE, !avail.is_empty(), "retire-queue"),
        ] {
            if mask.contains(bit) != occupied {
                return Err((
                    Fault::new(
                        ViolationKind::ActivityMask,
                        format!(
                            "{name} activity bit is {} but the structure {}",
                            mask.contains(bit),
                            if occupied { "holds work" } else { "is empty" }
                        ),
                    ),
                    "activity-mask",
                    format!(
                        "{mask:?} ftq={} deliveries={} retire-queue={}",
                        ftq.len(),
                        deliveries.len(),
                        avail.len()
                    ),
                ));
            }
        }
        for (i, entry) in ftq.iter().enumerate() {
            // `first_line == u64::MAX` marks a region that consumed no
            // block (stream exhausted); anything else must be ordered.
            if entry.first_line != u64::MAX && entry.first_line > entry.last_line {
                return Err((
                    Fault::new(
                        ViolationKind::FtqOrder,
                        format!(
                            "ftq[{i}] lines out of order: first {} > last {}",
                            entry.first_line, entry.last_line
                        ),
                    ),
                    "ftq",
                    format!("{entry:?}"),
                ));
            }
        }
        let mut prev_ready = 0u64;
        for (i, (ready_at, _, _)) in deliveries.iter().enumerate() {
            if ready_at < prev_ready {
                return Err((
                    Fault::new(
                        ViolationKind::FtqOrder,
                        format!(
                            "delivery[{i}] ready_at {ready_at} precedes predecessor at \
                             {prev_ready}"
                        ),
                    ),
                    "deliveries",
                    format!("{deliveries:?}"),
                ));
            }
            prev_ready = ready_at;
        }
        let in_flight: u64 = deliveries
            .iter()
            .map(|(_, instrs, ops)| u64::from(instrs) + u64::from(ops))
            .sum();
        let waiting: u64 = avail
            .iter()
            .map(|(orig, ops)| u64::from(orig) + u64::from(ops))
            .sum();
        if rob_occupancy as u64 != in_flight + waiting {
            return Err((
                Fault::new(
                    ViolationKind::RobAccounting,
                    format!(
                        "rob occupancy {rob_occupancy} != in-flight deliveries {in_flight} \
                         + retire queue {waiting}"
                    ),
                ),
                "rob",
                format!("deliveries={deliveries:?} avail={avail:?}"),
            ));
        }
        self.check_validators(true)
    }

    /// Runs every registered structure [`Validator`] at the given depth.
    fn check_validators(&self, deep: bool) -> Result<(), (Fault, &'static str, String)> {
        let base: [&dyn Validator; 3] = [&self.ibtb, &self.ras, &self.mem];
        for validator in base.into_iter().chain(self.system.validators()) {
            if let Err(fault) = validator.check(deep) {
                return Err((fault, validator.component(), validator.snapshot()));
            }
        }
        Ok(())
    }

    /// Builds the typed violation for `fault` and writes a cycle-stamped
    /// forensic [`StateDump`]. The dumped config carries the run's
    /// resolved `mutate`, so a replay of the dump fires it again even
    /// when it came from the fault spec.
    fn raise(
        &self,
        fault: Fault,
        component: &str,
        structure: String,
        cycle: u64,
        instruction_budget: u64,
        mutate: Option<MutationSpec>,
    ) -> Box<IntegrityViolation> {
        let mut violation = IntegrityViolation {
            kind: fault.kind,
            component: component.to_string(),
            cycle,
            detail: fault.detail,
            dump_path: None,
        };
        let dump = StateDump {
            version: DUMP_VERSION,
            label: self.integrity_label.clone(),
            kind: violation.kind.as_str().to_string(),
            component: violation.component.clone(),
            cycle,
            detail: violation.detail.clone(),
            config: SimConfig {
                integrity: IntegrityConfig {
                    mutate,
                    ..self.config.integrity
                },
                ..self.config
            },
            instruction_budget,
            retired_instructions: self.stats.retired_instructions,
            events_consumed: self.events_consumed,
            history: self
                .lbr()
                .iter()
                .map(|h| DumpBranch {
                    block: h.block.raw(),
                    cycle: h.cycle,
                })
                .collect(),
            structure,
        };
        match dump.write() {
            Ok(path) => violation.dump_path = Some(path),
            // Dump failure must not mask the violation itself.
            Err(err) => eprintln!(
                "twig-sim: failed to write integrity dump for {}: {err}",
                violation.component
            ),
        }
        Box::new(violation)
    }

    /// The LBR window: the last (up to) `LBR_DEPTH` blocks, oldest first.
    fn lbr(&self) -> &[HistoryEntry] {
        &self.history[self.history.len().saturating_sub(LBR_DEPTH)..]
    }

    /// The statistics collected so far (valid after [`Self::run`]).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The BTB system under test.
    pub fn system(&self) -> &B {
        &self.system
    }

    /// Builds one fetch region at the BPU, consuming block events until a
    /// taken branch, a pending resteer, or the region cap. Returns `None`
    /// when the event stream is exhausted before any block is consumed.
    ///
    /// Blocks carrying software prefetch ops are staged in
    /// `self.ops_scratch` (cleared on entry); the caller copies them into
    /// the FTQ ring's shared pool alongside the region.
    fn build_region(
        &mut self,
        events: &mut impl Iterator<Item = BlockEvent>,
        cycle: u64,
        observer: &mut dyn MissObserver,
        events_done: &mut bool,
    ) -> Option<Region> {
        self.ops_scratch.clear();
        let mut entry = Region {
            instrs: 0,
            ops: 0,
            first_line: u64::MAX,
            last_line: 0,
            resteer: None,
        };
        let mut consumed = false;
        loop {
            let Some(ev) = events.next() else {
                *events_done = true;
                break;
            };
            consumed = true;
            self.events_consumed += 1;
            let block = self.program.block(ev.block);
            if self.history.len() == 2 * LBR_DEPTH {
                self.history.copy_within(LBR_DEPTH.., 0);
                self.history.truncate(LBR_DEPTH);
            }
            self.history.push(HistoryEntry {
                block: ev.block,
                cycle,
            });

            // FDIP: warm the block's lines as soon as it is enqueued.
            // `end_addr` is exclusive, so the last byte is one before it.
            let first_line = block.addr.line().line_number();
            let last_byte = Addr::new(block.end_addr().raw() - 1);
            let last_line = last_byte.line().line_number().max(first_line);
            for line in first_line..=last_line {
                self.mem
                    .prefetch(CacheLineAddr::from_line_number(line), cycle);
            }
            if self.line_events {
                self.drain_line_events(cycle);
            }
            {
                let mut ctx = FrontendCtx {
                    cycle,
                    program: self.program,
                    mem: &mut self.mem,
                };
                self.system.lines_accessed(
                    CacheLineAddr::from_line_number(first_line),
                    CacheLineAddr::from_line_number(last_line),
                    &mut ctx,
                );
            }
            entry.first_line = entry.first_line.min(first_line);
            entry.last_line = entry.last_line.max(last_line);
            entry.instrs += block.num_instrs;
            entry.ops += block.prefetch_ops.len() as u32;
            if !block.prefetch_ops.is_empty() {
                self.ops_scratch.push(ev.block);
            }

            let mut region_ends = ev.taken;
            if block.branch_kind().is_some() {
                let rec = self
                    .program
                    .resolve_branch(ev.block, ev.taken, ev.target)
                    .expect("terminator is a branch");
                let kind = rec.kind;
                self.stats.btb_accesses[kind.index()] += 1;

                let outcome = if self.config.ideal_btb {
                    LookupOutcome::Hit {
                        target: rec.outcome.target().unwrap_or(rec.fallthrough),
                        kind,
                    }
                } else {
                    let mut ctx = FrontendCtx {
                        cycle,
                        program: self.program,
                        mem: &mut self.mem,
                    };
                    self.system.lookup(rec.pc, &mut ctx)
                };

                entry.resteer = match outcome {
                    LookupOutcome::Hit { .. } | LookupOutcome::CoveredMiss { .. } => {
                        if matches!(outcome, LookupOutcome::CoveredMiss { .. }) {
                            self.stats.covered_misses[kind.index()] += 1;
                        }
                        self.predict_with_entry(&rec, ev.taken)
                    }
                    LookupOutcome::Miss => self.handle_btb_miss(&rec, ev, cycle, observer),
                };
                // A wrongly-predicted-taken conditional also ends the
                // region from the BPU's point of view.
                if entry.resteer.is_some() {
                    region_ends = true;
                }

                // Maintain the speculative RAS along the (correct) path.
                if kind.is_call() {
                    self.ras.push(rec.fallthrough);
                }
            }

            if region_ends || entry.instrs >= self.config.region_max_instrs {
                break;
            }
        }
        // A decode resteer means the BPU believed the fall-through path:
        // optionally model the wrong-path sequential prefetching FDIP
        // would issue while stalled.
        if self.config.wrong_path_prefetch
            && entry.resteer.is_some_and(|c| c.kind == ResteerKind::Decode)
        {
            for i in 1..=u64::from(self.config.wrong_path_lines) {
                self.mem.prefetch(
                    CacheLineAddr::from_line_number(entry.last_line + i),
                    cycle,
                );
            }
            if self.line_events {
                self.drain_line_events(cycle);
            }
        }
        consumed.then_some(entry)
    }

    /// Prediction when the BTB identified the branch. Returns the resteer
    /// required by a wrong direction/target prediction.
    fn predict_with_entry(
        &mut self,
        rec: &twig_types::BranchRecord,
        taken: bool,
    ) -> Option<ResteerCause> {
        let cause = |miss: MissKind| ResteerCause {
            kind: ResteerKind::Execute,
            pc: rec.pc.raw(),
            branch: rec.kind,
            miss,
        };
        match rec.kind {
            BranchKind::Conditional => {
                self.stats.conditional_executed += 1;
                if !self.direction.resolve(rec.pc, taken) {
                    self.stats.direction_mispredicts += 1;
                    return Some(cause(MissKind::Direction));
                }
                None
            }
            BranchKind::DirectJump | BranchKind::DirectCall => None,
            BranchKind::IndirectJump | BranchKind::IndirectCall => {
                let actual = rec.outcome.target().expect("indirects are taken");
                let predicted = if self.config.ideal_btb {
                    Some(actual)
                } else {
                    self.ibtb.lookup(rec.pc).map(|e| e.target)
                };
                self.ibtb.insert(rec.pc, actual, rec.kind);
                if predicted != Some(actual) {
                    self.stats.indirect_mispredicts += 1;
                    return Some(cause(MissKind::IndirectTarget));
                }
                None
            }
            BranchKind::Return => {
                let actual = rec.outcome.target().expect("returns are taken");
                let predicted = if self.config.ideal_btb {
                    let _ = self.ras.pop();
                    Some(actual)
                } else {
                    self.ras.pop()
                };
                if predicted != Some(actual) {
                    self.stats.return_mispredicts += 1;
                    return Some(cause(MissKind::ReturnTarget));
                }
                None
            }
        }
    }

    /// A real BTB miss: the BPU cannot even tell a branch exists at this PC.
    fn handle_btb_miss(
        &mut self,
        rec: &twig_types::BranchRecord,
        ev: BlockEvent,
        cycle: u64,
        observer: &mut dyn MissObserver,
    ) -> Option<ResteerCause> {
        let kind = rec.kind;
        if kind == BranchKind::Conditional {
            self.stats.conditional_executed += 1;
            // Decode identifies the branch; the predictor still trains.
            self.direction.train(rec.pc, ev.taken);
        }
        if let BranchOutcome::Taken(_) = rec.outcome {
            self.stats.btb_misses[kind.index()] += 1;
            observer.on_btb_miss(ev.block, kind, self.lbr(), cycle);
            // Install at resolution (the BPU stalls until then anyway).
            let mut ctx = FrontendCtx {
                cycle,
                program: self.program,
                mem: &mut self.mem,
            };
            self.system.resolve_taken(rec, ev.block, &mut ctx);
            if kind.is_indirect() && !kind.is_return() {
                self.ibtb
                    .insert(rec.pc, rec.outcome.target().expect("taken"), kind);
            }
            if kind.is_return() {
                let _ = self.ras.pop();
            }
            // Direct branches and returns are redirected at decode (the
            // decoder computes/pops the target); indirect targets are only
            // known at execute.
            let (resteer, miss) = if kind.is_indirect() && !kind.is_return() {
                (ResteerKind::Execute, MissKind::BtbMissExecute)
            } else {
                (ResteerKind::Decode, MissKind::BtbMissDecode)
            };
            Some(ResteerCause {
                kind: resteer,
                pc: rec.pc.raw(),
                branch: kind,
                miss,
            })
        } else {
            // Not-taken conditional without a BTB entry: sequential fetch
            // was correct by construction; no penalty, no allocation.
            None
        }
    }

    /// Executes the software prefetch ops attached to `block`, effective at
    /// decode time.
    fn execute_prefetch_ops(&mut self, block: BlockId, decode_done: u64, cycle: u64) {
        let ops = self.program.block(block).prefetch_ops;
        let mut ctx = FrontendCtx {
            cycle,
            program: self.program,
            mem: &mut self.mem,
        };
        for op in ops {
            self.system.software_prefetch(op, decode_done, &mut ctx);
        }
    }

    /// Issues the demand accesses for a fetch region's lines and returns
    /// the cycle its bytes are ready (max over lines).
    fn probe_head_lines(&mut self, first_line: u64, last_line: u64, cycle: u64) -> u64 {
        let mut ready = cycle;
        let mut missed = std::mem::take(&mut self.line_scratch);
        missed.clear();
        for line in first_line..=last_line {
            let r = self
                .mem
                .demand(CacheLineAddr::from_line_number(line), cycle);
            ready = ready.max(r.ready_at);
            if r.source != crate::icache::FillSource::L1i {
                missed.push(CacheLineAddr::from_line_number(line));
            }
        }
        for &line in &missed {
            self.line_demand_missed(line, cycle);
        }
        self.line_scratch = missed;
        if self.line_events {
            self.drain_line_events(cycle);
        }
        ready
    }

    fn line_demand_missed(&mut self, line: CacheLineAddr, cycle: u64) {
        let mut ctx = FrontendCtx {
            cycle,
            program: self.program,
            mem: &mut self.mem,
        };
        self.system.line_demand_miss(line, &mut ctx);
    }

    /// Reports L1i fills/evictions to the BTB system.
    fn drain_line_events(&mut self, cycle: u64) {
        let mut filled = std::mem::take(&mut self.filled_scratch);
        let mut evicted = std::mem::take(&mut self.evicted_scratch);
        self.mem.drain_filled_l1i(&mut filled);
        self.mem.drain_evicted_l1i(&mut evicted);
        if !filled.is_empty() || !evicted.is_empty() {
            let mut ctx = FrontendCtx {
                cycle,
                program: self.program,
                mem: &mut self.mem,
            };
            for &(line, ready_at) in &filled {
                self.system.line_filled(line, ready_at, &mut ctx);
            }
            for &line in &evicted {
                self.system.line_evicted(line, &mut ctx);
            }
        }
        self.filled_scratch = filled;
        self.evicted_scratch = evicted;
    }
}

impl<B: BtbSystem> std::fmt::Debug for Simulator<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("system", &self.system.name())
            .field("direction", &self.config.direction)
            .field("cycles", &self.stats.cycles)
            .finish_non_exhaustive()
    }
}
