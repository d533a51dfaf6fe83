//! The machine-readable run manifest (`results/run_manifest.json`).
//!
//! Every supervised matrix cell and every experiment report records its
//! outcome here; the `experiments` binary snapshots the collector at the
//! end of the run (successful *or* degraded) and writes one JSON document
//! listing per-cell status, attempts, and wall time. CI's fault-injection
//! job greps this file to assert that injected faults were quarantined
//! and that a `--resume` run went back to fully green.

use std::sync::Mutex;

use twig_serde::Serialize;

/// Manifest schema version.
///
/// v2 added `effective_config` (the typed `TWIG_*` harness settings and
/// where each came from) and `metrics` (per-cell observability exports).
/// v3 added `obs_attr` (the attribution spec) and `attribution`
/// (per-cell attribution-profile exports).
/// v4 added `export_failures` (typed per-cell export degradations) and
/// `healed` (crash residue rolled back/forward at startup).
/// v5 added `obs_window` (the windowed-timeline knob) and `timelines`
/// (per-cell windowed time-series exports).
/// v6 folded `obs_attr` and `obs_window` into `obs`, which now holds the
/// whole observation spec in canonical `TWIG_OBS` form
/// (`counters,attr,window=10000`).
pub const MANIFEST_VERSION: u32 = 6;

/// How a cell's value was obtained (or lost).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellStatus {
    /// Computed in this run.
    Ok,
    /// Loaded from a checkpoint written by a previous run.
    Checkpointed,
    /// Failed after all retries; quarantined.
    Failed,
}

impl CellStatus {
    /// The manifest's string encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Checkpointed => "checkpointed",
            CellStatus::Failed => "failed",
        }
    }
}

/// One matrix cell's outcome.
#[derive(Clone, Debug, Serialize)]
pub struct CellRecord {
    /// Cell id, e.g. `sim:kafka/twig` or `meta:kafka`.
    pub id: String,
    /// `ok` / `checkpointed` / `failed`.
    pub status: String,
    /// Attempts made (0 when served from a checkpoint).
    pub attempts: u32,
    /// Wall time across attempts, milliseconds.
    pub wall_ms: u64,
    /// Failure detail (panic payload, timeout), if any.
    pub reason: Option<String>,
}

/// One experiment report's outcome.
#[derive(Clone, Debug, Serialize)]
pub struct ExperimentRecord {
    /// Experiment id (`fig16`, `tab03`, …).
    pub id: String,
    /// `ok` / `failed`.
    pub status: String,
    /// Wall time, seconds.
    pub seconds: f64,
    /// Failure detail, if any.
    pub reason: Option<String>,
}

/// One harness setting as resolved at startup (the `Display` dump of the
/// typed config, structured).
#[derive(Clone, Debug, Serialize)]
pub struct EffectiveSetting {
    /// Environment-variable name (`TWIG_NUM_THREADS`, …).
    pub name: String,
    /// Resolved value (`"auto"`/`"none"` for unset optionals).
    pub value: String,
    /// Where it came from: `default` / `env` / `explicit`.
    pub source: String,
}

/// One cell's exported observability snapshot (counters tier and up).
#[derive(Clone, Debug, Serialize)]
pub struct MetricsRecord {
    /// Cell id, e.g. `sim:kafka/twig`.
    pub id: String,
    /// Path of the metrics JSON, relative to the results directory.
    pub path: String,
    /// Number of counters in the snapshot.
    pub counters: usize,
    /// Number of histograms in the snapshot.
    pub histograms: usize,
}

/// One cell's exported attribution profile (runs with an `attr` item).
#[derive(Clone, Debug, Serialize)]
pub struct AttributionRecord {
    /// Cell id, e.g. `sim:kafka/twig`.
    pub id: String,
    /// Path of the attribution JSON, relative to the results directory.
    pub path: String,
    /// Path of the folded-stack export, relative to the results directory.
    pub folded_path: String,
    /// Number of tracked branch sites in the profile.
    pub entries: usize,
    /// Exact cycles attributed across all events.
    pub total_cycles: u64,
}

/// One cell's exported windowed timeline (runs with a `window=N` item).
#[derive(Clone, Debug, Serialize)]
pub struct TimelineRecord {
    /// Cell id, e.g. `sim:kafka/twig`.
    pub id: String,
    /// Path of the timeline JSON, relative to the results directory.
    pub path: String,
    /// Number of windows in the snapshot.
    pub windows: usize,
    /// Number of detected phase segments.
    pub phases: usize,
}

/// One export that could not be published: the cell's data survives in
/// memory (figures are unaffected) but its observability artifact is
/// missing, with a typed reason instead of a silent drop.
#[derive(Clone, Debug, Serialize)]
pub struct ExportFailureRecord {
    /// Cell id, e.g. `sim:kafka/twig`.
    pub id: String,
    /// Which export degraded: `metrics` / `attribution` / `trace` /
    /// `timeline`.
    pub artifact: String,
    /// Why it failed (I/O error text, injected disk-full, serialize).
    pub reason: String,
}

/// One piece of crash residue healed during startup recovery.
#[derive(Clone, Debug, Serialize)]
pub struct HealedRecord {
    /// The residue file that was acted on.
    pub path: String,
    /// What recovery did: `rolled-back-temp`, `rolled-forward-journal`,
    /// or `discarded-torn-journal`.
    pub action: String,
}

/// The document written to `run_manifest.json`.
#[derive(Debug, Serialize)]
pub struct RunManifest {
    /// Schema version.
    pub version: u32,
    /// Whether this run resumed from checkpoints.
    pub resume: bool,
    /// The active `TWIG_FAULT_SPEC`, if any.
    pub fault_spec: Option<String>,
    /// The observation spec the run executed with, in canonical
    /// `TWIG_OBS` form (`off` when nothing records).
    pub obs: String,
    /// Every `TWIG_*` knob as resolved by the typed harness config.
    pub effective_config: Vec<EffectiveSetting>,
    /// Number of cells with status `failed`.
    pub failed_cells: usize,
    /// Number of experiments with status `failed`.
    pub failed_experiments: usize,
    /// Per-cell outcomes, sorted by id.
    pub cells: Vec<CellRecord>,
    /// Per-experiment outcomes, in run order.
    pub experiments: Vec<ExperimentRecord>,
    /// Per-cell metrics exports, sorted by id (empty at the `off` tier).
    pub metrics: Vec<MetricsRecord>,
    /// Per-cell attribution exports, sorted by id (empty unless an
    /// `attr` item enabled attribution).
    pub attribution: Vec<AttributionRecord>,
    /// Per-cell windowed-timeline exports, sorted by id (empty unless a
    /// `window=N` item selected a window).
    pub timelines: Vec<TimelineRecord>,
    /// Exports that degraded with a typed reason, sorted by id then
    /// artifact (empty on a healthy run).
    pub export_failures: Vec<ExportFailureRecord>,
    /// Crash residue healed by startup recovery, sorted by path (empty
    /// when the previous run shut down cleanly).
    pub healed: Vec<HealedRecord>,
}

static CELLS: Mutex<Vec<CellRecord>> = Mutex::new(Vec::new());

fn cells() -> std::sync::MutexGuard<'static, Vec<CellRecord>> {
    CELLS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Records one cell outcome into the process-wide collector.
pub fn record_cell(
    id: &str,
    status: CellStatus,
    attempts: u32,
    wall_ms: u64,
    reason: Option<String>,
) {
    cells().push(CellRecord {
        id: id.to_string(),
        status: status.as_str().to_string(),
        attempts,
        wall_ms,
        reason,
    });
}

/// Snapshot of all recorded cells, sorted by id for a deterministic
/// manifest layout regardless of scheduling order.
pub fn snapshot_cells() -> Vec<CellRecord> {
    let mut out = cells().clone();
    out.sort_by(|a, b| a.id.cmp(&b.id));
    out
}

/// Clears the collector (tests only; the experiments binary records one
/// process-lifetime of cells).
pub fn reset_cells() {
    cells().clear();
    metrics().clear();
    attribution().clear();
    timelines().clear();
    export_failures().clear();
    healed().clear();
}

static METRICS: Mutex<Vec<MetricsRecord>> = Mutex::new(Vec::new());

fn metrics() -> std::sync::MutexGuard<'static, Vec<MetricsRecord>> {
    METRICS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Records one cell's metrics export into the process-wide collector.
pub fn record_metrics(id: &str, path: &str, counters: usize, histograms: usize) {
    metrics().push(MetricsRecord {
        id: id.to_string(),
        path: path.to_string(),
        counters,
        histograms,
    });
}

/// Snapshot of all recorded metrics exports, sorted by id.
pub fn snapshot_metrics() -> Vec<MetricsRecord> {
    let mut out = metrics().clone();
    out.sort_by(|a, b| a.id.cmp(&b.id));
    out
}

static ATTRIBUTION: Mutex<Vec<AttributionRecord>> = Mutex::new(Vec::new());

fn attribution() -> std::sync::MutexGuard<'static, Vec<AttributionRecord>> {
    ATTRIBUTION
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Records one cell's attribution export into the process-wide collector.
pub fn record_attribution(
    id: &str,
    path: &str,
    folded_path: &str,
    entries: usize,
    total_cycles: u64,
) {
    attribution().push(AttributionRecord {
        id: id.to_string(),
        path: path.to_string(),
        folded_path: folded_path.to_string(),
        entries,
        total_cycles,
    });
}

/// Snapshot of all recorded attribution exports, sorted by id.
pub fn snapshot_attribution() -> Vec<AttributionRecord> {
    let mut out = attribution().clone();
    out.sort_by(|a, b| a.id.cmp(&b.id));
    out
}

static TIMELINES: Mutex<Vec<TimelineRecord>> = Mutex::new(Vec::new());

fn timelines() -> std::sync::MutexGuard<'static, Vec<TimelineRecord>> {
    TIMELINES
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Records one cell's timeline export into the process-wide collector.
pub fn record_timeline(id: &str, path: &str, windows: usize, phases: usize) {
    timelines().push(TimelineRecord {
        id: id.to_string(),
        path: path.to_string(),
        windows,
        phases,
    });
}

/// Snapshot of all recorded timeline exports, sorted by id.
pub fn snapshot_timelines() -> Vec<TimelineRecord> {
    let mut out = timelines().clone();
    out.sort_by(|a, b| a.id.cmp(&b.id));
    out
}

static EXPORT_FAILURES: Mutex<Vec<ExportFailureRecord>> = Mutex::new(Vec::new());

fn export_failures() -> std::sync::MutexGuard<'static, Vec<ExportFailureRecord>> {
    EXPORT_FAILURES
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Records one degraded export into the process-wide collector.
pub fn record_export_failure(id: &str, artifact: &str, reason: &str) {
    export_failures().push(ExportFailureRecord {
        id: id.to_string(),
        artifact: artifact.to_string(),
        reason: reason.to_string(),
    });
}

/// Snapshot of all degraded exports, sorted by id then artifact.
pub fn snapshot_export_failures() -> Vec<ExportFailureRecord> {
    let mut out = export_failures().clone();
    out.sort_by(|a, b| (&a.id, &a.artifact).cmp(&(&b.id, &b.artifact)));
    out
}

static HEALED: Mutex<Vec<HealedRecord>> = Mutex::new(Vec::new());

fn healed() -> std::sync::MutexGuard<'static, Vec<HealedRecord>> {
    HEALED.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Records one healed crash residue into the process-wide collector.
pub fn record_healed(path: &str, action: &str) {
    healed().push(HealedRecord {
        path: path.to_string(),
        action: action.to_string(),
    });
}

/// Snapshot of all healed residue, sorted by path.
pub fn snapshot_healed() -> Vec<HealedRecord> {
    let mut out = healed().clone();
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

/// The effective harness configuration, structured for the manifest.
pub fn effective_config() -> Vec<EffectiveSetting> {
    twig_types::HarnessConfig::global()
        .entries()
        .into_iter()
        .map(|entry| EffectiveSetting {
            name: entry.name.to_string(),
            value: entry.value,
            source: entry.source.to_string(),
        })
        .collect()
}

/// Assembles the manifest document.
pub fn build(resume: bool, experiments: Vec<ExperimentRecord>) -> RunManifest {
    let cells = snapshot_cells();
    let failed_cells = cells.iter().filter(|c| c.status == "failed").count();
    let failed_experiments = experiments.iter().filter(|e| e.status == "failed").count();
    RunManifest {
        version: MANIFEST_VERSION,
        resume,
        fault_spec: twig_sched::fault::global().raw.clone(),
        obs: twig_sim::ObsConfig::default().as_text(),
        effective_config: effective_config(),
        failed_cells,
        failed_experiments,
        cells,
        experiments,
        metrics: snapshot_metrics(),
        attribution: snapshot_attribution(),
        timelines: snapshot_timelines(),
        export_failures: snapshot_export_failures(),
        healed: snapshot_healed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collectors are process-wide; tests touching them must not
    /// interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn cells_are_sorted_and_counted() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset_cells();
        record_cell("sim:z/late", CellStatus::Failed, 2, 10, Some("panicked: x".into()));
        record_cell("sim:a/early", CellStatus::Ok, 1, 5, None);
        record_cell("meta:kafka", CellStatus::Checkpointed, 0, 0, None);
        let manifest = build(true, vec![ExperimentRecord {
            id: "fig16".into(),
            status: "ok".into(),
            seconds: 1.5,
            reason: None,
        }]);
        assert_eq!(manifest.version, MANIFEST_VERSION);
        assert!(manifest.resume);
        assert_eq!(manifest.failed_cells, 1);
        assert_eq!(manifest.failed_experiments, 0);
        let ids: Vec<&str> = manifest.cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, vec!["meta:kafka", "sim:a/early", "sim:z/late"]);
        let json = twig_serde_json::to_string_pretty(&manifest).unwrap();
        assert!(json.contains("\"status\": \"failed\""));
        assert!(json.contains("panicked: x"));
        reset_cells();
    }

    #[test]
    fn timeline_exports_are_recorded_and_sorted() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset_cells();
        record_timeline("sim:z/twig", "sim_z_twig.timeline.json", 12, 3);
        record_timeline("sim:a/twig", "sim_a_twig.timeline.json", 4, 1);
        let manifest = build(false, Vec::new());
        assert_eq!(manifest.obs, "off");
        let ids: Vec<&str> = manifest.timelines.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(ids, vec!["sim:a/twig", "sim:z/twig"]);
        assert_eq!(manifest.timelines[0].windows, 4);
        assert_eq!(manifest.timelines[1].phases, 3);
        let json = twig_serde_json::to_string_pretty(&manifest).unwrap();
        assert!(json.contains("\"timelines\""));
        assert!(json.contains("\"obs\": \"off\""));
        reset_cells();
    }

    #[test]
    fn export_failures_and_healed_residue_are_surfaced_sorted() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset_cells();
        record_export_failure("sim:z/twig", "trace", "disk full");
        record_export_failure("sim:a/twig", "metrics", "injected disk-full");
        record_export_failure("sim:a/twig", "attribution", "write failed: boom");
        record_healed("results/run_manifest.json.twig-tmp", "rolled-back-temp");
        record_healed("results/BENCH_trajectory.json.twig-journal", "rolled-forward-journal");
        let manifest = build(false, Vec::new());
        let keys: Vec<(&str, &str)> = manifest
            .export_failures
            .iter()
            .map(|f| (f.id.as_str(), f.artifact.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("sim:a/twig", "attribution"),
                ("sim:a/twig", "metrics"),
                ("sim:z/twig", "trace"),
            ]
        );
        let paths: Vec<&str> = manifest.healed.iter().map(|h| h.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "results/BENCH_trajectory.json.twig-journal",
                "results/run_manifest.json.twig-tmp",
            ]
        );
        let json = twig_serde_json::to_string_pretty(&manifest).unwrap();
        assert!(json.contains("\"export_failures\""));
        assert!(json.contains("\"healed\""));
        reset_cells();
    }
}
