//! Frontend-bottleneck reports and the cross-run regression sentinel.
//!
//! `twig report` renders a deterministic per-cell digest of exported
//! metrics snapshots (`<app>_<slot>.json`), attribution profiles
//! (`<app>_<slot>.attr.json`), and — with `--timeline` — windowed
//! timelines (`<app>_<slot>.timeline.json`, ASCII sparklines plus the
//! detected phase table): headline rates, Top-Down split, resteer
//! cost, and the top-N costliest static branches. `--json` swaps the
//! human tables for a machine-readable digest
//! (`docs/schema/report-v1.json`). `twig metrics regress`
//! compares a directory of fresh snapshots against checked-in baselines
//! with per-metric relative thresholds and exits 1 on any regression,
//! optionally appending the run's derived series to a trajectory file
//! (`BENCH_trajectory.json`).

use twig_fleet::gate::{judge, Verdict, METRICS};
use twig_fleet::GateMetrics;
use twig_obs::{AttributionSnapshot, MetricsSnapshot, MissKind, TimelineSnapshot};
use twig_serde::{Deserialize, Serialize};

use crate::error::CliError;
use crate::io::read_snapshot;

/// Schema version of `BENCH_trajectory.json`.
pub const TRAJECTORY_VERSION: u32 = 1;

/// Schema version of the `report --json` digest
/// (`docs/schema/report-v1.json`).
pub const REPORT_DIGEST_VERSION: u32 = 1;

/// File stem without the export suffixes: `m/kafka_twig.attr.json` →
/// `kafka_twig`.
fn stem(path: &str) -> String {
    let name = path.rsplit(['/', '\\']).next().unwrap_or(path);
    let name = name.strip_suffix(".attr.json").unwrap_or(name);
    let name = name.strip_suffix(".timeline.json").unwrap_or(name);
    let name = name.strip_suffix(".json").unwrap_or(name);
    name.to_string()
}

// ---------------------------------------------------------------------------
// Derived headline metrics
// ---------------------------------------------------------------------------

fn require_counter(snap: &MetricsSnapshot, path: &str, name: &str) -> Result<u64, CliError> {
    snap.counter(name)
        .ok_or_else(|| CliError::Invalid(format!("{path}: missing counter {name}")))
}

/// Derives the sentinel metrics (the fleet gate's figures) from a
/// counters-tier snapshot.
pub fn derive(path: &str, snap: &MetricsSnapshot) -> Result<GateMetrics, CliError> {
    let cycles = require_counter(snap, path, "sim.cycles")?;
    let instructions = require_counter(snap, path, "sim.retired_instructions")?;
    let misses = require_counter(snap, path, "btb.misses.total")?;
    let covered = require_counter(snap, path, "btb.covered.total")?;
    if cycles == 0 || instructions == 0 {
        return Err(CliError::Invalid(format!("{path}: empty run (0 cycles or instructions)")));
    }
    Ok(GateMetrics {
        ipc: instructions as f64 / cycles as f64,
        btb_mpki: misses as f64 * 1000.0 / instructions as f64,
        coverage: if misses == 0 { 1.0 } else { covered as f64 / misses as f64 },
        cycles,
    })
}

// ---------------------------------------------------------------------------
// twig report
// ---------------------------------------------------------------------------

fn print_metrics_section(path: &str, snap: &MetricsSnapshot) -> Result<(), CliError> {
    let d = derive(path, snap)?;
    let instructions = require_counter(snap, path, "sim.retired_instructions")?;
    outln!("== {} (metrics) ==", stem(path));
    outln!("  IPC             {:.4}", d.ipc);
    outln!("  cycles          {}", d.cycles);
    outln!("  instructions    {instructions}");
    outln!("  BTB MPKI        {:.2}", d.btb_mpki);
    outln!("  miss coverage   {:.1}%", d.coverage * 100.0);
    let td: Vec<u64> = ["retiring", "frontend_bound", "bad_speculation", "backend_bound"]
        .iter()
        .map(|k| snap.counter(&format!("topdown.{k}")).unwrap_or(0))
        .collect();
    let total: u64 = td.iter().sum();
    if total > 0 {
        let pct = |v: u64| v as f64 * 100.0 / total as f64;
        outln!(
            "  topdown         retiring {:.1}% | frontend {:.1}% | bad-spec {:.1}% | backend {:.1}%",
            pct(td[0]),
            pct(td[1]),
            pct(td[2]),
            pct(td[3]),
        );
    }
    if let Some(penalty) = snap.histogram("frontend.resteer_penalty") {
        if penalty.count > 0 {
            outln!(
                "  resteer cost    {} cycles over {} resteers (avg {:.1}, p99 {})",
                penalty.sum,
                penalty.count,
                penalty.sum as f64 / penalty.count as f64,
                penalty.p99,
            );
        }
    }
    Ok(())
}

fn print_attribution_section(path: &str, attr: &AttributionSnapshot, top: usize) {
    outln!("== {} (attribution) ==", stem(path));
    outln!(
        "  events          {} (sampled {})",
        attr.total_events, attr.sampled_events
    );
    outln!(
        "  cycles          {} (sampled {})",
        attr.total_cycles, attr.sampled_cycles
    );
    outln!(
        "  tracked sites   {} (k={}, sample={})",
        attr.entries.len(),
        attr.k,
        attr.sample
    );
    let by_kind = attr.cycles_by_miss_kind();
    let kinds: Vec<String> = MissKind::ALL
        .iter()
        .map(|k| format!("{} {}", k.mnemonic(), by_kind[k.index()]))
        .collect();
    outln!("  cycles by kind  {}", kinds.join(" | "));
    if attr.entries.is_empty() {
        return;
    }
    outln!("  top {} costly branches:", top.min(attr.entries.len()));
    outln!(
        "  {:<18} {:<6} {:<12} {:>10} {:>8} {:>8}",
        "pc", "branch", "miss", "cycles", "events", "±err"
    );
    for e in attr.top(top) {
        outln!(
            "  {:<18} {:<6} {:<12} {:>10} {:>8} {:>8}",
            format!("{:#x}", e.pc),
            e.branch,
            e.miss,
            e.cycles,
            e.events,
            e.error_cycles,
        );
    }
}

// ---------------------------------------------------------------------------
// Timeline sections (sparklines + phases)
// ---------------------------------------------------------------------------

/// 9-level ASCII intensity ramp, lowest to highest.
const SPARK_RAMP: &[u8] = b" .:-=+*#@";

/// Widest sparkline before windows are bucket-averaged down.
const SPARK_WIDTH: usize = 64;

/// Renders a value series as a fixed-ramp ASCII sparkline. Pure integer
/// arithmetic (min/max scaling, bucket means for long series), so the
/// same timeline always renders the same bytes.
fn sparkline(values: &[u64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let compact: Vec<u64> = if values.len() <= SPARK_WIDTH {
        values.to_vec()
    } else {
        (0..SPARK_WIDTH)
            .map(|b| {
                let lo = b * values.len() / SPARK_WIDTH;
                let hi = ((b + 1) * values.len() / SPARK_WIDTH).max(lo + 1);
                values[lo..hi].iter().sum::<u64>() / (hi - lo) as u64
            })
            .collect()
    };
    let min = *compact.iter().min().unwrap();
    let max = *compact.iter().max().unwrap();
    let top = (SPARK_RAMP.len() - 1) as u64;
    compact
        .iter()
        .map(|&v| {
            let level = if max == min {
                top / 2
            } else {
                (v - min).saturating_mul(top) / (max - min)
            };
            SPARK_RAMP[level as usize] as char
        })
        .collect()
}

/// `123_456` micro-units → `"0.123"` (three decimals, integer math).
fn fmt_micros(v: u64) -> String {
    format!("{}.{:03}", v / 1_000_000, (v % 1_000_000) / 1_000)
}

/// `12_345` milli-units → `"12.345"`.
fn fmt_milli(v: u64) -> String {
    format!("{}.{:03}", v / 1_000, v % 1_000)
}

/// `987` permille → `"98.7%"`.
fn fmt_permille(v: u64) -> String {
    format!("{}.{}%", v / 10, v % 10)
}

fn print_timeline_section(path: &str, tl: &TimelineSnapshot) {
    outln!("== {} (timeline) ==", stem(path));
    outln!(
        "  window          {} instructions, {} window(s), {} dropped",
        tl.window,
        tl.windows.len(),
        tl.dropped_windows
    );
    if tl.derived.is_empty() {
        outln!("  (no derived metrics: cycle/instruction tracks absent)");
        return;
    }
    type Series<'a> = (&'a str, Vec<u64>, fn(u64) -> String);
    let series: [Series<'_>; 4] = [
        ("ipc", tl.derived.iter().map(|d| d.ipc_micros).collect(), fmt_micros),
        ("btb mpki", tl.derived.iter().map(|d| d.btb_mpki_milli).collect(), fmt_milli),
        ("coverage", tl.derived.iter().map(|d| d.coverage_permille).collect(), fmt_permille),
        ("resteers/ki", tl.derived.iter().map(|d| d.resteer_pki_milli).collect(), fmt_milli),
    ];
    for (name, values, render) in &series {
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        outln!(
            "  {:<15} [{}] {}..{}",
            name,
            sparkline(values),
            render(min),
            render(max)
        );
    }
    if !tl.phases.is_empty() {
        outln!("  phases:");
        for p in &tl.phases {
            outln!(
                "    {:<10} windows {:>4}..{:<4} mean IPC {}",
                p.label,
                p.start_window,
                p.end_window,
                fmt_micros(p.mean_ipc_micros)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// report --json digest
// ---------------------------------------------------------------------------

/// One metrics snapshot in the digest (integer fixed-point, derived
/// straight from the counters so the document is byte-deterministic).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DigestMetricsCell {
    /// Cell stem, e.g. `kafka_twig`.
    pub id: String,
    /// IPC × 1 000 000.
    pub ipc_micros: u64,
    /// BTB MPKI × 1 000.
    pub btb_mpki_milli: u64,
    /// Miss coverage in permille (1000 when there were no misses).
    pub coverage_permille: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
}

/// One attribution profile in the digest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DigestAttrCell {
    /// Cell stem.
    pub id: String,
    /// Total observed events.
    pub total_events: u64,
    /// Events actually sampled.
    pub sampled_events: u64,
    /// Total attributed cycles.
    pub total_cycles: u64,
    /// Cycles in sampled events.
    pub sampled_cycles: u64,
    /// Distinct branch sites tracked.
    pub tracked_sites: u64,
}

/// One windowed timeline in the digest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DigestTimelineCell {
    /// Cell stem.
    pub id: String,
    /// Window period (retired instructions per window).
    pub window: u64,
    /// Windows held.
    pub windows: u64,
    /// Windows lost to ring overwrite.
    pub dropped_windows: u64,
    /// Detected phase segments.
    pub phases: u64,
}

/// The `report --json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReportDigest {
    /// Schema version ([`REPORT_DIGEST_VERSION`]).
    pub version: u32,
    /// Metrics cells, in rendered (sorted-stem) order.
    pub metrics: Vec<DigestMetricsCell>,
    /// Attribution cells.
    pub attribution: Vec<DigestAttrCell>,
    /// Timeline cells.
    pub timelines: Vec<DigestTimelineCell>,
}

fn digest_metrics(path: &str, snap: &MetricsSnapshot) -> Result<DigestMetricsCell, CliError> {
    let cycles = require_counter(snap, path, "sim.cycles")?;
    let instructions = require_counter(snap, path, "sim.retired_instructions")?;
    let misses = require_counter(snap, path, "btb.misses.total")?;
    let covered = require_counter(snap, path, "btb.covered.total")?;
    if cycles == 0 || instructions == 0 {
        return Err(CliError::Invalid(format!("{path}: empty run (0 cycles or instructions)")));
    }
    Ok(DigestMetricsCell {
        id: stem(path),
        ipc_micros: instructions.saturating_mul(1_000_000) / cycles,
        btb_mpki_milli: misses.saturating_mul(1_000_000) / instructions,
        coverage_permille: covered.saturating_mul(1000).checked_div(misses).unwrap_or(1000),
        cycles,
        instructions,
    })
}

/// `twig report [--top N] [--timeline] [--json] FILE...` —
/// deterministic bottleneck digest.
///
/// Files ending in `.attr.json` are attribution profiles and files
/// ending in `.timeline.json` are windowed timelines (accepted only
/// under `--timeline`); everything else is read as a metrics snapshot.
/// Sections print in sorted stem order regardless of argument order, so
/// reruns and shell-glob order never change the output. `--json`
/// replaces the human tables with the machine-readable digest.
pub fn cmd_report(args: &[String]) -> Result<(), CliError> {
    let mut top: usize = 10;
    let mut timeline = false;
    let mut json = false;
    let mut files: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--top needs a number".into()))?;
                top = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--top: cannot parse {v:?}")))?;
            }
            "--timeline" => timeline = true,
            "--json" => json = true,
            other if other.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown report flag {other:?}")));
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        return Err(CliError::Usage(
            "usage: twig report [--top N] [--timeline] [--json] \
             SNAPSHOT.json|PROFILE.attr.json|CELL.timeline.json ..."
                .into(),
        ));
    }
    if !timeline {
        if let Some(path) = files.iter().find(|p| p.ends_with(".timeline.json")) {
            return Err(CliError::Usage(format!(
                "{path} is a timeline export; pass --timeline to render it"
            )));
        }
    }
    // Stem-sorted with a stable kind tiebreak: metrics, then
    // attribution, then timeline for the same cell.
    files.sort_by_key(|path| {
        let kind = if path.ends_with(".attr.json") {
            1
        } else if path.ends_with(".timeline.json") {
            2
        } else {
            0
        };
        (stem(path), kind)
    });

    let mut digest = ReportDigest {
        version: REPORT_DIGEST_VERSION,
        metrics: Vec::new(),
        attribution: Vec::new(),
        timelines: Vec::new(),
    };
    let mut coverage_rows: Vec<(String, GateMetrics)> = Vec::new();
    let mut first = true;
    for path in files {
        if !json && !first {
            outln!();
        }
        first = false;
        if path.ends_with(".attr.json") {
            let attr = read_snapshot(path, AttributionSnapshot::from_json)?;
            if json {
                digest.attribution.push(DigestAttrCell {
                    id: stem(path),
                    total_events: attr.total_events,
                    sampled_events: attr.sampled_events,
                    total_cycles: attr.total_cycles,
                    sampled_cycles: attr.sampled_cycles,
                    tracked_sites: attr.entries.len() as u64,
                });
            } else {
                print_attribution_section(path, &attr, top);
            }
        } else if path.ends_with(".timeline.json") {
            let tl = read_snapshot(path, TimelineSnapshot::from_json)?;
            if json {
                digest.timelines.push(DigestTimelineCell {
                    id: stem(path),
                    window: tl.window,
                    windows: tl.windows.len() as u64,
                    dropped_windows: tl.dropped_windows,
                    phases: tl.phases.len() as u64,
                });
            } else {
                print_timeline_section(path, &tl);
            }
        } else {
            let snap = read_snapshot(path, MetricsSnapshot::from_json)?;
            if json {
                digest.metrics.push(digest_metrics(path, &snap)?);
            } else {
                print_metrics_section(path, &snap)?;
                coverage_rows.push((stem(path), derive(path, &snap)?));
            }
        }
    }
    if json {
        outln!(
            "{}",
            twig_serde_json::to_string_pretty(&digest)
                .map_err(|e| CliError::decode("stdout", e))?
        );
        return Ok(());
    }
    if coverage_rows.len() > 1 {
        outln!();
        outln!("== coverage by configuration ==");
        outln!("  {:<24} {:>8} {:>10} {:>10}", "cell", "IPC", "BTB MPKI", "coverage");
        for (name, d) in &coverage_rows {
            outln!(
                "  {:<24} {:>8.4} {:>10.2} {:>9.1}%",
                name,
                d.ipc,
                d.btb_mpki,
                d.coverage * 100.0
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// twig metrics regress
// ---------------------------------------------------------------------------

/// Metrics-snapshot stems (`<app>_<slot>`) in a directory, sorted.
/// Attribution/trace exports and non-JSON files are skipped.
fn snapshot_stems(dir: &str) -> Result<Vec<String>, CliError> {
    let entries = std::fs::read_dir(dir).map_err(|e| CliError::io("read", dir, e))?;
    let mut stems = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| CliError::io("read", dir, e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".json")
            && !name.ends_with(".attr.json")
            && !name.ends_with(".trace.json")
            && !name.ends_with(".timeline.json")
        {
            stems.push(name.trim_end_matches(".json").to_string());
        }
    }
    stems.sort();
    Ok(stems)
}

/// One cell's derived figures in the trajectory series.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrajectoryCell {
    /// Cell stem, e.g. `kafka_twig`.
    pub id: String,
    /// Derived IPC.
    pub ipc: f64,
    /// Derived BTB MPKI.
    pub btb_mpki: f64,
    /// Derived miss coverage.
    pub coverage: f64,
    /// Simulated cycles.
    pub cycles: u64,
}

/// One sentinel run in the trajectory series.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrajectoryRun {
    /// 1-based run index (append order; the file keeps no wall-clock).
    pub run: u64,
    /// Whether this run regressed against its baseline.
    pub regressed: bool,
    /// Per-cell derived figures, sorted by id.
    pub cells: Vec<TrajectoryCell>,
}

/// The `BENCH_trajectory.json` document: run-over-run derived series.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trajectory {
    /// Schema version.
    pub version: u32,
    /// Runs in append order.
    pub runs: Vec<TrajectoryRun>,
}

fn append_trajectory(
    path: &str,
    cells: Vec<TrajectoryCell>,
    regressed: bool,
) -> Result<(), CliError> {
    // Journaled read-modify-write: opening heals whatever a kill during a
    // previous append left behind (rolls a complete journal forward,
    // discards a torn one), so this read always sees exactly the pre- or
    // post-append document of that run — never a mix.
    let (file, healed) = twig_sched::Journaled::open(std::path::Path::new(path))
        .map_err(|e| CliError::io("recover", path, e))?;
    for h in &healed {
        eprintln!("recovered crash residue: {h}");
    }
    let mut trajectory = match file.read().map_err(|e| CliError::io("read", path, e))? {
        Some(bytes) => {
            let text =
                String::from_utf8(bytes).map_err(|e| CliError::decode(path, e))?;
            twig_serde_json::from_str::<Trajectory>(&text)
                .map_err(|e| CliError::decode(path, e))?
        }
        None => Trajectory {
            version: TRAJECTORY_VERSION,
            runs: Vec::new(),
        },
    };
    trajectory.runs.push(TrajectoryRun {
        run: trajectory.runs.len() as u64 + 1,
        regressed,
        cells,
    });
    let json = twig_serde_json::to_string_pretty(&trajectory)
        .map_err(|e| CliError::decode(path, e))?;
    file.write(json.as_bytes(), Some("traj-journal"), Some("traj-published"))
        .map_err(|e| CliError::io("write", path, e))?;
    eprintln!("appended run {} to {path}", trajectory.runs.len());
    Ok(())
}

/// `twig metrics regress --baseline DIR CURRENT_DIR [--trajectory FILE]`
/// — compare fresh snapshots against checked-in baselines.
///
/// Every `<stem>.json` in the baseline directory must exist in the
/// current directory (a missing cell is itself a failure). Each cell is
/// judged on the fleet deploy gate's metric table
/// ([`twig_fleet::gate::METRICS`]); any `REGRESSED` verdict makes the
/// command exit 1.
pub fn cmd_regress(args: &[String]) -> Result<(), CliError> {
    let mut baseline_dir: Option<&String> = None;
    let mut trajectory_path: Option<&String> = None;
    let mut current_dir: Option<&String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => {
                baseline_dir =
                    Some(it.next().ok_or_else(|| {
                        CliError::Usage("--baseline needs a directory".into())
                    })?);
            }
            "--trajectory" => {
                trajectory_path =
                    Some(it.next().ok_or_else(|| {
                        CliError::Usage("--trajectory needs a path".into())
                    })?);
            }
            other if other.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown regress flag {other:?}")));
            }
            _ if current_dir.is_none() => current_dir = Some(arg),
            _ => return Err(CliError::Usage("regress takes one current directory".into())),
        }
    }
    let usage =
        "usage: twig metrics regress --baseline DIR CURRENT_DIR [--trajectory FILE]";
    let baseline_dir = baseline_dir.ok_or_else(|| CliError::Usage(usage.into()))?;
    let current_dir = current_dir.ok_or_else(|| CliError::Usage(usage.into()))?;

    let stems = snapshot_stems(baseline_dir)?;
    if stems.is_empty() {
        return Err(CliError::Invalid(format!(
            "{baseline_dir}: no metrics snapshots to compare against"
        )));
    }

    let mut regressions = 0usize;
    let mut cells: Vec<TrajectoryCell> = Vec::new();
    outln!(
        "{:<24} {:<10} {:>12} {:>12} {:>9}  verdict",
        "cell", "metric", "baseline", "current", "delta"
    );
    for cell in &stems {
        let base_path = format!("{baseline_dir}/{cell}.json");
        let cur_path = format!("{current_dir}/{cell}.json");
        if !std::path::Path::new(&cur_path).exists() {
            // A cell that vanished from the run is the worst regression
            // of all — count it and keep judging the rest.
            outln!("{cell:<24} {:<10} {:>12} {:>12} {:>9}  REGRESSED (missing)", "-", "-", "-", "-");
            regressions += 1;
            continue;
        }
        let read = |path| read_snapshot(path, MetricsSnapshot::from_json);
        let base = derive(&base_path, &read(&base_path)?)?;
        let current = derive(&cur_path, &read(&cur_path)?)?;
        for spec in &METRICS {
            let (delta, verdict) = judge(spec, (spec.read)(&base), (spec.read)(&current));
            if verdict == Verdict::Regressed {
                regressions += 1;
            }
            if verdict != Verdict::Ok || delta != 0.0 {
                outln!(
                    "{:<24} {:<10} {:>12.4} {:>12.4} {:>+8.2}%  {}",
                    cell,
                    spec.name,
                    (spec.read)(&base),
                    (spec.read)(&current),
                    delta * 100.0,
                    verdict.as_str(),
                );
            }
        }
        cells.push(TrajectoryCell {
            id: cell.clone(),
            ipc: current.ipc,
            btb_mpki: current.btb_mpki,
            coverage: current.coverage,
            cycles: current.cycles,
        });
    }
    let verdict_line = if regressions > 0 {
        format!("{regressions} regressed metric(s) across {} baseline cell(s)", stems.len())
    } else {
        format!("all {} baseline cell(s) within thresholds", stems.len())
    };
    outln!("{verdict_line}");
    if let Some(path) = trajectory_path {
        append_trajectory(path, cells, regressions > 0)?;
    }
    if regressions > 0 {
        Err(CliError::Differs(verdict_line))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stems_strip_export_suffixes() {
        assert_eq!(stem("m/kafka_twig.json"), "kafka_twig");
        assert_eq!(stem("m/kafka_twig.attr.json"), "kafka_twig");
        assert_eq!(stem("m/kafka_twig.timeline.json"), "kafka_twig");
        assert_eq!(stem("kafka_twig"), "kafka_twig");
    }

    #[test]
    fn sparklines_are_deterministic_and_scaled() {
        assert_eq!(sparkline(&[]), "");
        // min maps to the lowest ramp char, max to the highest.
        let s = sparkline(&[0, 50, 100]);
        assert_eq!(s.len(), 3);
        assert!(s.starts_with(' ') && s.ends_with('@'), "{s:?}");
        // A flat series renders mid-ramp, not a div-by-zero.
        let flat = sparkline(&[7, 7, 7, 7]);
        assert_eq!(flat.chars().collect::<std::collections::HashSet<_>>().len(), 1);
        // Long series bucket-average down to the fixed width.
        let long: Vec<u64> = (0..1000).collect();
        let s = sparkline(&long);
        assert_eq!(s.len(), SPARK_WIDTH);
        assert_eq!(s, sparkline(&long), "same input, same bytes");
        // Integer fixed-point renderers.
        assert_eq!(fmt_micros(1_234_567), "1.234");
        assert_eq!(fmt_milli(12_345), "12.345");
        assert_eq!(fmt_permille(987), "98.7%");
    }

    #[test]
    fn report_digest_validates_against_checked_in_schema() {
        let digest = ReportDigest {
            version: REPORT_DIGEST_VERSION,
            metrics: vec![DigestMetricsCell {
                id: "kafka_twig".into(),
                ipc_micros: 512_345,
                btb_mpki_milli: 12_500,
                coverage_permille: 640,
                cycles: 40_000,
                instructions: 20_000,
            }],
            attribution: vec![DigestAttrCell {
                id: "kafka_twig".into(),
                total_events: 100,
                sampled_events: 50,
                total_cycles: 4_000,
                sampled_cycles: 2_000,
                tracked_sites: 8,
            }],
            timelines: vec![DigestTimelineCell {
                id: "kafka_twig".into(),
                window: 10_000,
                windows: 6,
                dropped_windows: 0,
                phases: 2,
            }],
        };
        let json = twig_serde_json::to_string_pretty(&digest).unwrap();
        let doc: twig_serde::Value = twig_serde_json::from_str(&json).unwrap();
        let schema_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .unwrap()
            .join("docs/schema/report-v1.json");
        let schema: twig_serde::Value = twig_serde_json::from_str(
            &std::fs::read_to_string(schema_path).unwrap(),
        )
        .unwrap();
        twig_obs::validate(&doc, &schema).unwrap();
        // An empty digest (no inputs of a given kind) still validates.
        let empty = ReportDigest {
            version: REPORT_DIGEST_VERSION,
            metrics: Vec::new(),
            attribution: Vec::new(),
            timelines: Vec::new(),
        };
        let doc: twig_serde::Value =
            twig_serde_json::from_str(&twig_serde_json::to_string_pretty(&empty).unwrap())
                .unwrap();
        twig_obs::validate(&doc, &schema).unwrap();
    }

    #[test]
    fn verdicts_respect_direction_and_threshold() {
        let ipc = &METRICS[0]; // higher is better, 0.5%
        assert_eq!(judge(ipc, 1.0, 1.0).1, Verdict::Ok);
        assert_eq!(judge(ipc, 1.0, 1.004).1, Verdict::Ok);
        assert_eq!(judge(ipc, 1.0, 1.02).1, Verdict::Improved);
        assert_eq!(judge(ipc, 1.0, 0.98).1, Verdict::Regressed);
        let mpki = &METRICS[2]; // lower is better, 2%
        assert_eq!(judge(mpki, 10.0, 10.1).1, Verdict::Ok);
        assert_eq!(judge(mpki, 10.0, 10.5).1, Verdict::Regressed);
        assert_eq!(judge(mpki, 10.0, 9.0).1, Verdict::Improved);
        // Zero baselines never divide.
        assert_eq!(judge(mpki, 0.0, 0.0).1, Verdict::Ok);
        assert_eq!(judge(mpki, 0.0, 1.0).1, Verdict::Regressed);
        assert_eq!(judge(ipc, 0.0, 1.0).1, Verdict::Improved);
    }

    #[test]
    fn trajectory_round_trips_and_appends() {
        let dir = std::env::temp_dir().join(format!("twig-cli-traj-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_trajectory.json").to_string_lossy().into_owned();
        let cell = TrajectoryCell {
            id: "kafka_twig".into(),
            ipc: 0.75,
            btb_mpki: 12.5,
            coverage: 0.6,
            cycles: 1000,
        };
        append_trajectory(&path, vec![cell.clone()], false).unwrap();
        append_trajectory(&path, vec![cell], true).unwrap();
        let parsed: Trajectory =
            twig_serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.version, TRAJECTORY_VERSION);
        assert_eq!(parsed.runs.len(), 2);
        assert_eq!(parsed.runs[0].run, 1);
        assert!(!parsed.runs[0].regressed);
        assert_eq!(parsed.runs[1].run, 2);
        assert!(parsed.runs[1].regressed);
        assert_eq!(parsed.runs[1].cells[0].id, "kafka_twig");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn demo_cell() -> TrajectoryCell {
        TrajectoryCell {
            id: "kafka_twig".into(),
            ipc: 0.75,
            btb_mpki: 12.5,
            coverage: 0.6,
            cycles: 1000,
        }
    }

    #[test]
    fn torn_trajectory_journal_is_discarded_and_append_proceeds() {
        let dir = std::env::temp_dir().join(format!("twig-cli-traj-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path_buf = dir.join("BENCH_trajectory.json");
        let path = path_buf.to_string_lossy().into_owned();
        append_trajectory(&path, vec![demo_cell()], false).unwrap();
        let committed = std::fs::read(&path_buf).unwrap();
        // A kill mid-journal-write leaves a torn frame; the next append
        // must discard it, keep the committed document, and append run 2.
        let frame = twig_sched::durable::encode_journal_frame(b"{\"garbage\": true}");
        std::fs::write(
            twig_sched::durable::journal_path(&path_buf),
            &frame[..frame.len() / 2],
        )
        .unwrap();
        append_trajectory(&path, vec![demo_cell()], true).unwrap();
        let parsed: Trajectory =
            twig_serde_json::from_str(&std::fs::read_to_string(&path_buf).unwrap()).unwrap();
        assert_eq!(parsed.runs.len(), 2);
        assert_eq!(parsed.runs[0].run, 1);
        assert!(!twig_sched::durable::journal_path(&path_buf).exists());
        // The torn journal never contaminated run 1's committed bytes.
        let reparsed: Trajectory =
            twig_serde_json::from_str(std::str::from_utf8(&committed).unwrap()).unwrap();
        assert_eq!(reparsed.runs.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn complete_trajectory_journal_rolls_forward_before_append() {
        let dir = std::env::temp_dir().join(format!("twig-cli-traj-fwd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path_buf = dir.join("BENCH_trajectory.json");
        let path = path_buf.to_string_lossy().into_owned();
        append_trajectory(&path, vec![demo_cell()], false).unwrap();
        // Simulate a kill between journal sync and publish of run 2: the
        // journal holds the full two-run document, the file only run 1.
        let two_runs = {
            let text = std::fs::read_to_string(&path_buf).unwrap();
            let mut t: Trajectory = twig_serde_json::from_str(&text).unwrap();
            t.runs.push(TrajectoryRun {
                run: 2,
                regressed: true,
                cells: vec![demo_cell()],
            });
            twig_serde_json::to_string_pretty(&t).unwrap()
        };
        std::fs::write(
            twig_sched::durable::journal_path(&path_buf),
            twig_sched::durable::encode_journal_frame(two_runs.as_bytes()),
        )
        .unwrap();
        // The next append heals forward to two runs, then appends run 3.
        append_trajectory(&path, vec![demo_cell()], false).unwrap();
        let parsed: Trajectory =
            twig_serde_json::from_str(&std::fs::read_to_string(&path_buf).unwrap()).unwrap();
        assert_eq!(parsed.runs.len(), 3);
        assert!(parsed.runs[1].regressed, "rolled-forward run 2 kept");
        assert_eq!(parsed.runs[2].run, 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
