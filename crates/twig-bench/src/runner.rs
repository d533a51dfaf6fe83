//! Shared experiment plumbing: per-app setup, parallel execution, and the
//! lazily computed headline result matrix reused by Figs. 16–22 and
//! Tables 2–3.
//!
//! Execution model: work is flattened into fine-grained tasks and run on
//! [`twig_sched::parallel_map`], which caps concurrency at the core count
//! (`TWIG_NUM_THREADS` / `RAYON_NUM_THREADS` override) instead of the
//! seed's one-unbounded-thread-per-app scope. Shared inputs (programs,
//! walker traces, profiles) come from the process-wide
//! [`crate::cache::ArtifactCache`], so each is generated exactly once no
//! matter how many figures or tasks consume it. A trace arrives as a
//! [`twig_workload::AnySource`]; every simulation or analysis pass runs
//! over its own clone ([`run_system`], `run_mono`), whichever backing
//! the cache chose.
//!
//! [`replay_cell`] re-runs one headline cell by its `sim:<app>/<slot>`
//! label, which is how `integrity_drill replay` reproduces a harness
//! violation dump.
//!
//! Fault tolerance: every headline cell runs under
//! [`twig_sched::run_supervised`] — a panicking or hung cell is
//! quarantined as [`Cell::Failed`] instead of aborting the run, figures
//! render such cells as `FAILED(<reason>)`, and completed cells are
//! persisted through [`CheckpointStore`] so a killed
//! run resumes from where it stopped (see `docs/ROBUSTNESS.md`).

use std::sync::{Arc, OnceLock};

use twig::{TwigConfig, TwigOptimizer};
use twig_prefetchers::{Confluence, Shotgun};
use twig_sched::{CancelToken, TaskPolicy};
use twig_serde::{Deserialize, Serialize};
use twig_sim::{
    speedup_percent, BtbSystem, IntegrityViolation, PlainBtb, SimConfig, SimStats, Simulator,
};
use twig_workload::{
    AnySource, AppId, BlockEvent, InputConfig, Program, ProgramGenerator, Walker, WorkingSet,
    WorkloadSpec,
};

use crate::cache;
use twig_sched::CheckpointStore;
use crate::manifest::{self, CellStatus};

/// Experiment context: instruction budget and output directory.
#[derive(Clone, Debug)]
pub struct ExpContext {
    /// Instructions simulated per run for the main results.
    pub instructions: u64,
    /// Instructions for parameter sweeps (many configurations).
    pub sweep_instructions: u64,
    /// Output directory for report files.
    pub results_dir: std::path::PathBuf,
    /// Persist completed headline cells under
    /// `<results_dir>/.checkpoints/` (the `experiments` binary turns this
    /// on; library/unit-test use leaves it off).
    pub checkpoints: bool,
    /// Load cells persisted by a previous run instead of recomputing
    /// them (`experiments --resume`).
    pub resume: bool,
}

impl Default for ExpContext {
    fn default() -> Self {
        ExpContext {
            instructions: 2_000_000,
            sweep_instructions: 1_000_000,
            results_dir: "results".into(),
            checkpoints: false,
            resume: false,
        }
    }
}

/// One application's prepared workload.
pub struct AppSetup {
    /// The application id (the cache key for shared artifacts).
    pub app: AppId,
    /// The workload spec.
    pub spec: WorkloadSpec,
    /// The generator (needed for re-layout during rewriting).
    pub generator: ProgramGenerator,
    /// The generated (original) binary.
    pub program: Program,
    /// The paper's Table 1 baseline config with this app's backend factor.
    pub sim_config: SimConfig,
}

impl AppSetup {
    /// Generates one application from scratch (uncached; prefer
    /// [`Self::shared`] in experiment code).
    pub fn new(app: AppId) -> Self {
        let spec = WorkloadSpec::preset(app);
        let generator = ProgramGenerator::new(spec.clone());
        let program = generator.generate();
        let sim_config = SimConfig::paper_baseline(spec.backend_extra_cpki);
        AppSetup {
            app,
            spec,
            generator,
            program,
            sim_config,
        }
    }

    /// The process-wide shared setup for `app` (generated at most once).
    pub fn shared(app: AppId) -> Arc<AppSetup> {
        cache::global().setup(app)
    }

    /// The walker's event stream for `input`, bounded by `instructions`,
    /// shared through the artifact cache (resident up to
    /// [`cache::SPILL_INSTRUCTIONS`], streamed from an unlinked `.twgc`
    /// mapping above it). Clone it for each pass.
    pub fn events(&self, input: u32, instructions: u64) -> AnySource {
        cache::global().events(self.app, input, instructions)
    }

    /// Walks a fresh (uncached) event stream; test code uses this to check
    /// the cache returns bit-identical data.
    pub fn fresh_events(&self, input: u32, instructions: u64) -> Vec<BlockEvent> {
        Walker::new(&self.program, InputConfig::numbered(input)).run_instructions(instructions)
    }
}

/// Runs one simulation of `program` with an arbitrary BTB system over a
/// clone of `events`, whichever backing it has.
pub fn run_system(
    program: &Program,
    system: Box<dyn BtbSystem>,
    config: SimConfig,
    events: &AnySource,
    instructions: u64,
) -> SimStats {
    let mut sim = Simulator::new(program, config, system);
    sim.run(events.clone(), instructions)
}

/// Runs `f` over all nine applications, preserving order. Scheduling goes
/// through [`twig_sched::parallel_map`]: bounded worker count, and nested
/// parallelism inside `f` degrades gracefully instead of deadlocking.
pub fn for_all_apps<T: Send>(f: impl Fn(AppId) -> T + Sync) -> Vec<(AppId, T)> {
    twig_sched::parallel_map(AppId::ALL.to_vec(), |app| (app, f(app)))
}

/// One value destined for a report table: a number, or an explicit
/// failure marker rendered as `FAILED(<reason>)`.
#[derive(Clone, Debug, PartialEq)]
pub enum CellValue {
    /// A healthy numeric value.
    Num(f64),
    /// The cell (or one of its inputs) failed; the short reason tag.
    Failed(String),
}

impl From<f64> for CellValue {
    fn from(v: f64) -> Self {
        CellValue::Num(v)
    }
}

impl CellValue {
    /// The number, if healthy.
    pub fn num(&self) -> Option<f64> {
        match self {
            CellValue::Num(v) => Some(*v),
            CellValue::Failed(_) => None,
        }
    }

    /// Applies `f` to a healthy value; failures pass through.
    pub fn map(&self, f: impl FnOnce(f64) -> f64) -> CellValue {
        match self {
            CellValue::Num(v) => CellValue::Num(f(*v)),
            CellValue::Failed(r) => CellValue::Failed(r.clone()),
        }
    }

    /// Combines two values; any failure wins (first one's reason).
    pub fn zip_with(&self, other: &CellValue, f: impl FnOnce(f64, f64) -> f64) -> CellValue {
        match (self, other) {
            (CellValue::Num(a), CellValue::Num(b)) => CellValue::Num(f(*a, *b)),
            (CellValue::Failed(r), _) | (_, CellValue::Failed(r)) => {
                CellValue::Failed(r.clone())
            }
        }
    }
}

/// One headline matrix cell: the simulation's statistics, or a
/// quarantined failure.
// `Ok(SimStats)` is the overwhelmingly common variant — boxing it to
// shrink the rare `Failed` case would add a pointer chase to every
// healthy-cell read.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Cell {
    /// The simulation completed.
    Ok(SimStats),
    /// The cell failed after all retries; short reason tag
    /// (`panic` / `timeout` / `cancelled` / `prepare`).
    Failed(String),
}

impl Cell {
    /// The stats, if the cell is healthy.
    pub fn stats(&self) -> Option<&SimStats> {
        match self {
            Cell::Ok(stats) => Some(stats),
            Cell::Failed(_) => None,
        }
    }

    /// The failure reason, if any.
    pub fn failure(&self) -> Option<&str> {
        match self {
            Cell::Ok(_) => None,
            Cell::Failed(reason) => Some(reason),
        }
    }

    /// Projects one number out of a healthy cell, else the failure.
    pub fn value(&self, f: impl FnOnce(&SimStats) -> f64) -> CellValue {
        match self {
            Cell::Ok(stats) => CellValue::Num(f(stats)),
            Cell::Failed(reason) => CellValue::Failed(reason.clone()),
        }
    }

    /// Projects several numbers out of a healthy cell; a failed cell
    /// yields `n` copies of the failure marker (one per table column).
    pub fn values(&self, n: usize, f: impl FnOnce(&SimStats) -> Vec<f64>) -> Vec<CellValue> {
        match self {
            Cell::Ok(stats) => f(stats).into_iter().map(CellValue::Num).collect(),
            Cell::Failed(reason) => vec![CellValue::Failed(reason.clone()); n],
        }
    }
}

/// Combines two cells into one number; either failure wins.
pub fn cell2(a: &Cell, b: &Cell, f: impl FnOnce(&SimStats, &SimStats) -> f64) -> CellValue {
    match (a, b) {
        (Cell::Ok(sa), Cell::Ok(sb)) => CellValue::Num(f(sa, sb)),
        (Cell::Failed(r), _) | (_, Cell::Failed(r)) => CellValue::Failed(r.clone()),
    }
}

/// Rewrite metadata of one app's prepare phase (Figs. 21–22, Table 3);
/// integer-only fields, so its JSON checkpoint round-trips bit-exactly.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RowMeta {
    /// Rewrite outcome of the full Twig binary.
    pub rewrite: twig::RewriteOutcome,
    /// Rewrite outcome of the software-only binary.
    pub rewrite_sw_only: twig::RewriteOutcome,
    /// Instruction working set (test input) of the original binary, bytes.
    pub working_set_bytes: u64,
    /// Instruction working set of the Twig binary, bytes.
    pub working_set_bytes_twig: u64,
}

/// The per-application headline result matrix shared by Figs. 16–22 and
/// Tables 2–3: baseline / ideal / 32K BTB / Shotgun / Confluence / Twig
/// (trained on input #0, tested on input #1), plus rewrite metadata.
/// Every field is a quarantine-aware [`Cell`]: a failed simulation marks
/// only its own column, not the whole run.
pub struct HeadlineRow {
    /// The application.
    pub app: AppId,
    /// FDIP baseline.
    pub baseline: Cell,
    /// Ideal BTB.
    pub ideal: Cell,
    /// 32K-entry BTB (4-way), no prefetching.
    pub btb32k: Cell,
    /// Shotgun.
    pub shotgun: Cell,
    /// Confluence.
    pub confluence: Cell,
    /// Twig (full).
    pub twig: Cell,
    /// Twig without coalescing (Fig. 18 ablation).
    pub twig_sw_only: Cell,
    /// Rewrite/working-set metadata, or the prepare failure reason.
    pub meta: Result<RowMeta, String>,
}

impl HeadlineRow {
    /// Twig speedup over baseline, percent.
    pub fn twig_speedup(&self) -> CellValue {
        cell2(&self.baseline, &self.twig, speedup_percent)
    }

    /// Ideal-BTB speedup over baseline, percent.
    pub fn ideal_speedup(&self) -> CellValue {
        cell2(&self.baseline, &self.ideal, speedup_percent)
    }

    /// Speedup of an arbitrary system cell over baseline, percent.
    pub fn speedup_of(&self, system: &Cell) -> CellValue {
        cell2(&self.baseline, system, speedup_percent)
    }

    /// Baseline-relative miss coverage of a system cell.
    pub fn coverage(&self, system: &Cell) -> CellValue {
        cell2(&self.baseline, system, |base, sys| {
            twig::baseline_relative_coverage(base, sys)
        })
    }

    /// Projects one number out of the rewrite metadata.
    pub fn meta_value(&self, f: impl FnOnce(&RowMeta) -> f64) -> CellValue {
        match &self.meta {
            Ok(meta) => CellValue::Num(f(meta)),
            Err(reason) => CellValue::Failed(reason.clone()),
        }
    }
}

/// Everything per-app the headline simulations need, produced by the
/// (lazy, cached, exactly-once) prepare phase.
pub(crate) struct PreparedApp {
    pub(crate) setup: Arc<AppSetup>,
    pub(crate) optimized: twig::OptimizedBinary,
    pub(crate) optimized_sw: twig::OptimizedBinary,
    pub(crate) events: AnySource,
    pub(crate) working_set_bytes: u64,
    pub(crate) working_set_bytes_twig: u64,
}

impl PreparedApp {
    /// The metadata checkpointed per app.
    fn meta(&self) -> RowMeta {
        RowMeta {
            rewrite: self.optimized.rewrite,
            rewrite_sw_only: self.optimized_sw.rewrite,
            working_set_bytes: self.working_set_bytes,
            working_set_bytes_twig: self.working_set_bytes_twig,
        }
    }
}

pub(crate) fn prepare_app(app: AppId, budget: u64) -> PreparedApp {
    let setup = AppSetup::shared(app);
    let config = setup.sim_config;
    let optimizer = TwigOptimizer::new(TwigConfig::default());
    let sw_only = TwigOptimizer::new(TwigConfig::software_prefetch_only());

    // Profile on input #0, evaluate everything on input #1.
    let profile = cache::global().profile(app, 0, budget, &config);
    let plans = optimizer.analyze_for(&profile, &setup.program);
    let layout = setup.generator.layout_options();
    let optimized = optimizer.rewrite_of(&setup.program, &layout, &plans);
    let optimized_sw = sw_only.rewrite_of(&setup.program, &layout, &plans);
    let events = setup.events(1, budget);

    // Working sets on the test input (Table 3): one streaming pass over
    // the trace feeds both measurements, never materializing a spilled
    // trace.
    let mut ws = WorkingSet::new();
    let mut ws_twig = WorkingSet::new();
    for ev in events.clone() {
        ws.observe(&setup.program, ev);
        ws_twig.observe(&optimized.program, ev);
    }
    PreparedApp {
        working_set_bytes: ws.instruction_bytes(&setup.program),
        working_set_bytes_twig: ws_twig.instruction_bytes(&optimized.program),
        setup,
        optimized,
        optimized_sw,
        events,
    }
}

/// One cell of the headline matrix; each variant names the system whose
/// `SimStats` lands in the matching [`HeadlineRow`] field.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SimSlot {
    Baseline,
    Ideal,
    Btb32k,
    Shotgun,
    Confluence,
    Twig,
    TwigSwOnly,
}

impl SimSlot {
    /// Stable name used in cell ids, checkpoint keys, and fault specs.
    fn name(self) -> &'static str {
        match self {
            SimSlot::Baseline => "baseline",
            SimSlot::Ideal => "ideal",
            SimSlot::Btb32k => "btb32k",
            SimSlot::Shotgun => "shotgun",
            SimSlot::Confluence => "confluence",
            SimSlot::Twig => "twig",
            SimSlot::TwigSwOnly => "twig-sw",
        }
    }
}

const SLOTS: [SimSlot; 7] = [
    SimSlot::Baseline,
    SimSlot::Ideal,
    SimSlot::Btb32k,
    SimSlot::Shotgun,
    SimSlot::Confluence,
    SimSlot::Twig,
    SimSlot::TwigSwOnly,
];

/// Runs one simulation with the concrete system type visible to the event
/// loop (monomorphized — no `Box<dyn>` indirection per branch).
///
/// `label` stamps integrity violations and forensic dumps with the cell
/// identity (e.g. `sim:kafka/twig`); a violation surfaces as a typed
/// error, not a panic, so the supervisor can degrade the cell.
fn run_mono<B: BtbSystem>(
    program: &Program,
    config: SimConfig,
    system: B,
    events: &AnySource,
    budget: u64,
    label: &str,
) -> Result<SimStats, Box<IntegrityViolation>> {
    let mut sim = Simulator::new(program, config, system);
    sim.set_integrity_label(label);
    let stats = sim.try_run(events.clone(), budget)?;
    if let Some(snapshot) = sim.metrics_snapshot() {
        crate::telemetry::record_cell_metrics(label, &snapshot);
        if let Ok(Some(trace)) = sim.chrome_trace() {
            crate::telemetry::record_cell_trace(label, &trace);
        }
    }
    // Windowing is orthogonal to the recording tiers: export whenever the
    // window knob produced a timeline, even at the `off` tier.
    if let Some(timeline) = sim.timeline_snapshot() {
        crate::telemetry::record_cell_timeline(label, &timeline);
    }
    // Folded stacks use the bare `<app>/<slot>` cell name as the root
    // frame (the `sim:` namespace prefix is a harness detail).
    let folded_label = label.split_once(':').map_or(label, |(_, tail)| tail);
    if let (Some(attr), Some(folded)) =
        (sim.attribution_snapshot(), sim.attribution_folded(folded_label))
    {
        crate::telemetry::record_cell_attribution(label, &attr, &folded);
    }
    Ok(stats)
}

/// Simulates one headline cell under `config`: the slot's system over
/// the slot's binary (pristine, Twig, or software-only rewrite).
fn simulate_slot(
    p: &PreparedApp,
    slot: SimSlot,
    config: SimConfig,
    budget: u64,
    label: &str,
) -> Result<SimStats, Box<IntegrityViolation>> {
    let events = &p.events;
    let program = match slot {
        SimSlot::Twig => &p.optimized.program,
        SimSlot::TwigSwOnly => &p.optimized_sw.program,
        _ => &p.setup.program,
    };
    match slot {
        SimSlot::Shotgun => run_mono(program, config, Shotgun::new(&config), events, budget, label),
        SimSlot::Confluence => {
            run_mono(program, config, Confluence::new(&config), events, budget, label)
        }
        _ => run_mono(program, config, PlainBtb::new(&config), events, budget, label),
    }
}

fn run_slot(
    p: &PreparedApp,
    slot: SimSlot,
    budget: u64,
    label: &str,
) -> Result<SimStats, Box<IntegrityViolation>> {
    let base = p.setup.sim_config;
    let config = match slot {
        SimSlot::Ideal => SimConfig {
            ideal_btb: true,
            ..base
        },
        SimSlot::Btb32k => base.with_btb_entries(32 * 1024),
        _ => base,
    };
    let run = || simulate_slot(p, slot, config, budget, label);
    // Slots simulating the canonical (unrewritten) binary share results
    // with other figures through the sim-result shard — keyed by the slot
    // name and the exact config, on the headline's test input (#1). The
    // Twig slots run rewritten binaries and are never cached. With
    // integrity or observability tiers enabled the cache steps aside
    // (`sim_cacheable`), so `run_mono`'s violation and telemetry paths
    // stay intact; under a cacheable config `run_mono` cannot fail.
    if matches!(slot, SimSlot::Twig | SimSlot::TwigSwOnly)
        || !cache::ArtifactCache::sim_cacheable(&config)
    {
        return run();
    }
    let stats = cache::global().sim_stats(p.setup.app, 1, budget, slot.name(), &config, || {
        run().expect("integrity violations impossible with checking off")
    });
    Ok((*stats).clone())
}

/// Re-runs the headline cell a `sim:<app>/<slot>` label names — its
/// system over its binary, through the same prepare path — under
/// `config` at `budget`, stamping `replay_label` on any violation.
/// `None` when the label names no headline cell.
pub fn replay_cell(
    label: &str,
    config: SimConfig,
    budget: u64,
    replay_label: &str,
) -> Option<Result<SimStats, Box<IntegrityViolation>>> {
    let (app, slot) = label.strip_prefix("sim:")?.split_once('/')?;
    let app = AppId::ALL.into_iter().find(|a| a.name() == app)?;
    let slot = SLOTS.into_iter().find(|s| s.name() == slot)?;
    let prepared = cache::global().prepared(app, budget);
    Some(simulate_slot(&prepared, slot, config, budget, replay_label))
}

/// Outcome of one flat headline task (a simulation cell or an app's
/// metadata cell).
enum MatrixOutcome {
    Sim(Cell),
    Meta(Result<RowMeta, String>),
}

/// One flat headline task.
#[derive(Clone, Copy)]
enum MatrixTask {
    Sim(usize, SimSlot),
    Meta(usize),
}

/// Loads a cell from the checkpoint store, verifying that the payload
/// still parses (the CRC layer already rejected torn records).
fn load_checkpointed<T: twig_serde::de::DeserializeOwned>(
    store: &CheckpointStore,
    key: &str,
    id: &str,
) -> Option<T> {
    let payload = store.load(key)?;
    let text = String::from_utf8(payload).ok()?;
    match twig_serde_json::from_str::<T>(&text) {
        Ok(value) => {
            manifest::record_cell(id, CellStatus::Checkpointed, 0, 0, None);
            Some(value)
        }
        Err(_) => None,
    }
}

/// Runs one supervised + checkpointed cell computation.
fn run_cell<T, F>(
    store: &CheckpointStore,
    policy: &TaskPolicy,
    key: &str,
    id: &str,
    index: usize,
    compute: F,
) -> Result<T, String>
where
    T: Serialize + twig_serde::de::DeserializeOwned + Send,
    F: Fn(&CancelToken) -> Result<T, twig_sched::TaskError>,
{
    if let Some(value) = load_checkpointed::<T>(store, key, id) {
        return Ok(value);
    }
    let report = twig_sched::run_supervised(id, index, policy, compute);
    match report.result {
        Ok(value) => {
            if let Ok(json) = twig_serde_json::to_string(&value) {
                store.store(key, json.as_bytes());
            }
            manifest::record_cell(id, CellStatus::Ok, report.attempts, report.wall_ms, None);
            Ok(value)
        }
        Err(error) => {
            manifest::record_cell(
                id,
                CellStatus::Failed,
                report.attempts,
                report.wall_ms,
                Some(error.to_string()),
            );
            Err(error.kind().to_string())
        }
    }
}

static HEADLINE: OnceLock<Vec<HeadlineRow>> = OnceLock::new();

/// The fixed headline task list: apps × slots, then one metadata task
/// per app. The order never changes, so `task=N` fault selectors hit the
/// same cell on every run.
fn matrix_tasks() -> Vec<MatrixTask> {
    let mut tasks: Vec<MatrixTask> = Vec::with_capacity(AppId::ALL.len() * (SLOTS.len() + 1));
    for i in 0..AppId::ALL.len() {
        for slot in SLOTS {
            tasks.push(MatrixTask::Sim(i, slot));
        }
    }
    for i in 0..AppId::ALL.len() {
        tasks.push(MatrixTask::Meta(i));
    }
    tasks
}

/// The supervision id of one headline task (also the label fault
/// selectors match against).
fn matrix_task_id(task: MatrixTask) -> String {
    match task {
        MatrixTask::Sim(i, slot) => {
            format!("sim:{}/{}", AppId::ALL[i].name(), slot.name())
        }
        MatrixTask::Meta(i) => format!("meta:{}", AppId::ALL[i].name()),
    }
}

/// The checkpoint key of one headline task at `budget`.
fn matrix_task_key(task: MatrixTask, budget: u64) -> String {
    match task {
        MatrixTask::Sim(i, slot) => {
            format!("sim-{}-{}-i{}", AppId::ALL[i].name(), slot.name(), budget)
        }
        MatrixTask::Meta(i) => format!("meta-{}-i{}", AppId::ALL[i].name(), budget),
    }
}

/// Runs (or loads from checkpoint) one headline task, supervised.
fn run_matrix_task(
    store: &CheckpointStore,
    policy: &TaskPolicy,
    budget: u64,
    index: usize,
    task: MatrixTask,
) -> MatrixOutcome {
    let id = matrix_task_id(task);
    let key = matrix_task_key(task, budget);
    match task {
        MatrixTask::Sim(i, slot) => {
            let app = AppId::ALL[i];
            let cell = match run_cell::<SimStats, _>(store, policy, &key, &id, index, |_| {
                let prepared = cache::global().prepared(app, budget);
                run_slot(&prepared, slot, budget, &id).map_err(|violation| {
                    twig_sched::TaskError::Domain {
                        kind: format!("integrity: {}", violation.kind.as_str()),
                        detail: violation.to_string(),
                    }
                })
            }) {
                Ok(stats) => Cell::Ok(stats),
                Err(reason) => Cell::Failed(reason),
            };
            MatrixOutcome::Sim(cell)
        }
        MatrixTask::Meta(i) => {
            let app = AppId::ALL[i];
            let meta = run_cell::<RowMeta, _>(store, policy, &key, &id, index, |_| {
                Ok(cache::global().prepared(app, budget).meta())
            });
            MatrixOutcome::Meta(meta)
        }
    }
}

/// Computes (once per process) the headline matrix at the context's budget.
///
/// The work is one flat task list over the scheduler: the full
/// `(app × system)` simulation matrix (63 tasks) plus one metadata task
/// per app (9 tasks). Each task is supervised (panic isolation, watchdog,
/// retry) and checkpointed; per-app preparation (profile → analyze →
/// rewrite ×2 → trace → working sets) happens lazily through the artifact
/// cache, exactly once per app, and only when some cell actually needs it
/// — an app whose every cell was checkpointed is never re-prepared.
pub fn headline(ctx: &ExpContext) -> &'static [HeadlineRow] {
    HEADLINE.get_or_init(|| {
        let budget = ctx.instructions;
        let store = if ctx.checkpoints {
            CheckpointStore::open(&ctx.results_dir.join(".checkpoints"), ctx.resume)
        } else {
            CheckpointStore::disabled()
        };
        let policy = TaskPolicy::from_env();

        let tagged: Vec<(usize, MatrixTask)> = matrix_tasks().into_iter().enumerate().collect();
        let outcomes = twig_sched::parallel_map(tagged, |(index, task)| {
            run_matrix_task(&store, &policy, budget, index, task)
        });

        let mut outcomes = outcomes.into_iter();
        let mut sim_cells: Vec<Vec<Cell>> = Vec::with_capacity(AppId::ALL.len());
        for _ in 0..AppId::ALL.len() {
            let mut row = Vec::with_capacity(SLOTS.len());
            for _ in 0..SLOTS.len() {
                match outcomes.next() {
                    Some(MatrixOutcome::Sim(cell)) => row.push(cell),
                    _ => row.push(Cell::Failed("lost".to_string())),
                }
            }
            sim_cells.push(row);
        }
        let metas: Vec<Result<RowMeta, String>> = outcomes
            .map(|o| match o {
                MatrixOutcome::Meta(meta) => meta,
                MatrixOutcome::Sim(_) => Err("lost".to_string()),
            })
            .collect();

        sim_cells
            .into_iter()
            .zip(metas)
            .enumerate()
            .map(|(i, (cells, meta))| {
                let mut cells = cells.into_iter();
                let mut take =
                    |_slot: usize| cells.next().unwrap_or_else(|| Cell::Failed("lost".to_string()));
                HeadlineRow {
                    app: AppId::ALL[i],
                    baseline: take(0),
                    ideal: take(1),
                    btb32k: take(2),
                    shotgun: take(3),
                    confluence: take(4),
                    twig: take(5),
                    twig_sw_only: take(6),
                    meta,
                }
            })
            .collect()
    })
}

/// Formats a per-app table: header, one row per app, and a mean line
/// computed over the numeric columns. Failed cells render as
/// `FAILED(<reason>)` and are excluded from the mean (which then divides
/// by the number of healthy values in that column).
pub fn table<V>(header: &[&str], rows: &[(AppId, Vec<V>)]) -> String
where
    V: Clone + Into<CellValue>,
{
    let mut out = String::new();
    out.push_str(&format!("{:<16}", "app"));
    for h in header {
        out.push_str(&format!(" {h:>12}"));
    }
    out.push('\n');
    let n = header.len();
    let mut sums = vec![0.0; n];
    let mut counts = vec![0usize; n];
    for (app, values) in rows {
        out.push_str(&format!("{:<16}", app.name()));
        for (i, v) in values.iter().enumerate() {
            match v.clone().into() {
                CellValue::Num(v) => {
                    out.push_str(&format!(" {v:>12.2}"));
                    sums[i] += v;
                    counts[i] += 1;
                }
                CellValue::Failed(reason) => {
                    out.push_str(&format!(" {:>12}", format!("FAILED({reason})")));
                }
            }
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<16}", "MEAN"));
    for (i, s) in sums.iter().enumerate() {
        // All-healthy columns divide by the row count (the historical
        // behavior, byte-identical on green runs); degraded columns
        // average whatever survived.
        let divisor = if counts[i] == rows.len() {
            rows.len().max(1)
        } else {
            counts[i].max(1)
        };
        out.push_str(&format!(" {:>12.2}", s / divisor as f64));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_includes_mean_row() {
        let rows = vec![
            (AppId::Kafka, vec![10.0, 2.0]),
            (AppId::Tomcat, vec![20.0, 4.0]),
        ];
        let out = table(&["a", "b"], &rows);
        assert!(out.contains("kafka"));
        assert!(out.contains("tomcat"));
        let mean_line = out.lines().last().unwrap();
        assert!(mean_line.starts_with("MEAN"));
        assert!(mean_line.contains("15.00"));
        assert!(mean_line.contains("3.00"));
    }

    #[test]
    fn table_marks_failed_cells_and_means_over_survivors() {
        let rows = vec![
            (AppId::Kafka, vec![CellValue::Num(10.0), CellValue::Num(2.0)]),
            (
                AppId::Tomcat,
                vec![CellValue::Failed("panic".into()), CellValue::Num(4.0)],
            ),
        ];
        let out = table(&["a", "b"], &rows);
        assert!(out.contains("FAILED(panic)"), "{out}");
        let mean_line = out.lines().last().unwrap();
        // Column a: only kafka survived -> mean 10.00; column b: 3.00.
        assert!(mean_line.contains("10.00"), "{mean_line}");
        assert!(mean_line.contains("3.00"), "{mean_line}");
    }

    #[test]
    fn cell_combinators_propagate_failures() {
        let ok = Cell::Ok(SimStats {
            cycles: 100,
            retired_instructions: 200,
            ..SimStats::default()
        });
        let bad = Cell::Failed("timeout".into());
        assert_eq!(ok.value(|s| s.ipc()), CellValue::Num(2.0));
        assert_eq!(bad.value(|s| s.ipc()), CellValue::Failed("timeout".into()));
        assert_eq!(
            cell2(&ok, &bad, |a, b| a.ipc() + b.ipc()),
            CellValue::Failed("timeout".into())
        );
        assert_eq!(
            bad.values(3, |_| vec![1.0, 2.0, 3.0]),
            vec![CellValue::Failed("timeout".into()); 3]
        );
        assert_eq!(
            CellValue::Num(4.0).zip_with(&CellValue::Num(2.0), |a, b| a / b),
            CellValue::Num(2.0)
        );
    }

    #[test]
    fn row_meta_checkpoint_payload_roundtrips_bit_exactly() {
        let meta = RowMeta {
            rewrite: twig::RewriteOutcome {
                brprefetch_ops: 123,
                brcoalesce_ops: 45,
                coalesce_entries: 6,
                injection_sites: 78,
                dropped_pairs: 9,
                text_bytes_before: 1_000_000,
                text_bytes_after: 1_060_000,
            },
            rewrite_sw_only: twig::RewriteOutcome::default(),
            working_set_bytes: 42,
            working_set_bytes_twig: 43,
        };
        let json = twig_serde_json::to_string(&meta).unwrap();
        let back: RowMeta = twig_serde_json::from_str(&json).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn sim_stats_checkpoint_payload_roundtrips_bit_exactly() {
        let setup = AppSetup::shared(AppId::Tomcat);
        let events = setup.events(1, 20_000);
        let stats = run_mono(
            &setup.program,
            setup.sim_config,
            PlainBtb::new(&setup.sim_config),
            &events,
            20_000,
            "test:checkpoint-roundtrip",
        )
        .expect("no integrity violation");
        let json = twig_serde_json::to_string(&stats).unwrap();
        let back: SimStats = twig_serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats, "SimStats is integer-only; JSON must be exact");
    }

    #[test]
    fn for_all_apps_preserves_order() {
        let results = for_all_apps(|app| app.name().len());
        let apps: Vec<AppId> = results.iter().map(|(a, _)| *a).collect();
        assert_eq!(apps, AppId::ALL.to_vec());
        for (app, len) in results {
            assert_eq!(len, app.name().len());
        }
    }

    #[test]
    fn app_setup_is_deterministic() {
        let a = AppSetup::new(AppId::Tomcat);
        let b = AppSetup::new(AppId::Tomcat);
        assert_eq!(a.program, b.program);
        let ea = a.fresh_events(2, 5_000);
        let eb = b.fresh_events(2, 5_000);
        assert_eq!(ea, eb);
    }

    #[test]
    fn cached_events_match_fresh_walk() {
        let setup = AppSetup::shared(AppId::Kafka);
        let cached = setup.events(3, 4_000);
        let fresh = setup.fresh_events(3, 4_000);
        assert_eq!(cached.collect::<Vec<_>>(), fresh);
    }

    #[test]
    fn supervised_checkpointed_cell_roundtrip() {
        let dir = std::env::temp_dir().join(format!("twig-runner-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, false);
        let policy = TaskPolicy {
            attempts: 1,
            backoff_ms: 0,
            timeout_ms: None,
        };
        // First computation runs and persists…
        let first = run_cell::<RowMeta, _>(&store, &policy, "meta-x-i1", "meta:x", 0, |_| {
            Ok(RowMeta {
                rewrite: twig::RewriteOutcome::default(),
                rewrite_sw_only: twig::RewriteOutcome::default(),
                working_set_bytes: 7,
                working_set_bytes_twig: 8,
            })
        })
        .unwrap();
        // …a resume-style store then serves it without running the task.
        let resumed = CheckpointStore::open(&dir, true);
        let second = run_cell::<RowMeta, _>(&resumed, &policy, "meta-x-i1", "meta:x", 0, |_| {
            panic!("must not recompute a checkpointed cell");
        })
        .unwrap();
        assert_eq!(second, first);
        // A failing cell is quarantined with the panic's kind as reason.
        let failed = run_cell::<RowMeta, _>(&resumed, &policy, "meta-y-i1", "meta:y", 0, |_| {
            panic!("no checkpoint for this one");
        });
        assert_eq!(failed.unwrap_err(), "panic");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_matrix_matches_serial() {
        // The flat (app × slot) scheduling must not perturb results: the
        // same simulation run serially is bit-identical (SimStats derives
        // PartialEq over every counter).
        let budget = 20_000;
        let apps = [AppId::Kafka, AppId::Tomcat, AppId::Cassandra];
        let slots = [SimSlot::Baseline, SimSlot::Ideal, SimSlot::Shotgun];
        let prepared: Vec<Arc<AppSetup>> =
            apps.iter().map(|&a| AppSetup::shared(a)).collect();
        let run = |app_idx: usize, slot: SimSlot| {
            let setup = &prepared[app_idx];
            let config = match slot {
                SimSlot::Ideal => SimConfig {
                    ideal_btb: true,
                    ..setup.sim_config
                },
                _ => setup.sim_config,
            };
            let events = setup.events(1, budget);
            match slot {
                SimSlot::Shotgun => run_mono(
                    &setup.program,
                    config,
                    Shotgun::new(&config),
                    &events,
                    budget,
                    "test:matrix",
                ),
                _ => run_mono(
                    &setup.program,
                    config,
                    PlainBtb::new(&config),
                    &events,
                    budget,
                    "test:matrix",
                ),
            }
            .expect("no integrity violation")
        };
        let tasks: Vec<(usize, SimSlot)> = (0..apps.len())
            .flat_map(|i| slots.iter().map(move |&s| (i, s)))
            .collect();
        let parallel = twig_sched::parallel_map(tasks.clone(), |(i, s)| run(i, s));
        let serial: Vec<SimStats> = tasks.iter().map(|&(i, s)| run(i, s)).collect();
        assert_eq!(parallel, serial);
    }
}
