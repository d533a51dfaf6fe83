//! CLI for regenerating the paper's tables and figures.
//!
//! ```text
//! experiments <id>...|all [--instructions N] [--sweep-instructions N]
//!                         [--results-dir DIR] [--resume] [--strict]
//!                         [--obs SPEC]
//! ```
//!
//! `--obs SPEC` takes the `TWIG_OBS` grammar (`counters,attr,window=N`,
//! see `docs/OBSERVABILITY.md`) and replaces that variable as a whole. A
//! malformed flag or `TWIG_*` variable is a usage error: a message on
//! stderr and exit 2 before anything runs.
//!
//! Reports print to stdout and are also written to `results/<id>.txt`.
//! Every run additionally writes `results/bench_results.json` (wall-clock
//! time per figure plus artifact-cache counters) and
//! `results/run_manifest.json` (per-cell and per-experiment status,
//! attempts, wall time — the machine-readable fault/robustness record).
//!
//! Fault tolerance: each experiment runs under `catch_unwind`, and each
//! headline matrix cell runs supervised (panic isolation, watchdog,
//! retry; see `docs/ROBUSTNESS.md`). A failed cell degrades its figures
//! to `FAILED(<reason>)` markers; a failed experiment is quarantined and
//! the run continues. The process still exits 0 for a *completed* run
//! with quarantined failures — pass `--strict` to exit 1 instead when
//! anything failed. Completed cells are checkpointed under
//! `<results-dir>/.checkpoints/`; `--resume` loads them so a crashed or
//! faulted run re-executes only the missing cells.
//!
//! Crash-only: artifacts publish atomically, startup heals temp/journal
//! residue (surfaced under `healed` in the manifest), and a `.lock` file
//! serializes runs per results directory — a second concurrent run exits
//! 6 naming the holding pid, while a dead holder's lock is stolen.

use std::panic::{catch_unwind, AssertUnwindSafe};

use twig_bench::manifest::{self, ExperimentRecord};
use twig_bench::{run_experiment, CacheStats, ExpContext, ALL_EXPERIMENTS};
use twig_serde::Serialize;

#[derive(Serialize)]
struct FigureTiming {
    id: String,
    seconds: f64,
}

/// The timing/caching report written to `results/bench_results.json`.
///
/// `schema_version` history:
/// * 1 (implicit; field absent): total/threads/figures/cache.
/// * 2: added `schema_version` itself, plus the parallelism breakdown
///   (`threads` = in-process scheduler cap, `procs` = `TWIG_NUM_PROCS`
///   matrix worker processes).
#[derive(Serialize)]
struct BenchReport {
    schema_version: u32,
    total_seconds: f64,
    /// In-process worker threads (the scheduler cap).
    threads: usize,
    /// Matrix worker processes (`TWIG_NUM_PROCS`; 1 = no sharding).
    procs: usize,
    figures: Vec<FigureTiming>,
    cache: CacheStats,
    cache_exactly_once: bool,
}

/// `bench_results.json` schema version written by this binary.
const BENCH_SCHEMA_VERSION: u32 = 2;

/// Reports a bad command line on stderr and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("experiments: {msg}");
    std::process::exit(2);
}

/// Parses the numeric value of `flag`, or exits with a usage error.
fn parse_number<T: std::str::FromStr>(flag: &str, text: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} needs a number, got {text:?}")))
}

fn main() {
    let mut ctx = ExpContext {
        checkpoints: true,
        ..ExpContext::default()
    };
    let mut strict = false;
    let mut obs_flag: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--instructions" => {
                ctx.instructions = parse_number(&arg, &value("a number"));
            }
            "--sweep-instructions" => {
                ctx.sweep_instructions = parse_number(&arg, &value("a number"));
            }
            "--results-dir" => ctx.results_dir = value("a path").into(),
            "--resume" => ctx.resume = true,
            "--shard" => {
                // Hidden: multi-process matrix workers are spawned with
                // `--shard i/N` by the parent run (TWIG_NUM_PROCS > 1).
                let text = value("i/N");
                ctx.shard = Some(
                    twig_sched::ShardSpec::parse(&text)
                        .unwrap_or_else(|e| usage_error(&format!("--shard: {e}"))),
                );
            }
            "--strict" => strict = true,
            "--obs" => obs_flag = Some(value("an observation spec")),
            "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments <id>...|all [--instructions N] \
                     [--sweep-instructions N] [--results-dir DIR] [--resume] [--strict] \
                     [--obs SPEC]\n\
                     SPEC: comma-separated off|counters|trace[=N], attr, attr.k=N, \
                     attr.sample=N, window=N (replaces TWIG_OBS)\n\
                     ids: {}",
                    ALL_EXPERIMENTS.join(" ")
                );
                return;
            }
            flag if flag.starts_with("--") => {
                usage_error(&format!("unknown flag {flag:?}; try --help"))
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() && ctx.shard.is_none() {
        usage_error("no experiment ids given; try `experiments all` or --help");
    }
    // Resolve the environment and the observation spec up front (explicit
    // `--obs` > `TWIG_OBS` > off) and install the result as the one
    // process-wide configuration, so a malformed value is a usage error
    // here rather than a panic mid-run.
    let mut harness =
        twig_types::HarnessConfig::from_env().unwrap_or_else(|e| usage_error(&e.to_string()));
    harness.obs = harness.obs.with_explicit(obs_flag);
    let obs = twig_obs::ObsConfig::from_harness(&harness).unwrap_or_else(|e| usage_error(&e));
    let harness = harness.install();
    std::fs::create_dir_all(&ctx.results_dir).expect("create results dir");
    // One run per results directory: the parent (never shard workers,
    // which share the parent's directory by design) takes the `.lock`
    // guard for the whole run. A dead holder's lock is stolen; a live one
    // is a hard, typed refusal (exit 6).
    let run_lock = if ctx.shard.is_none() {
        let lock = match twig_sched::RunLock::acquire(&ctx.results_dir) {
            Ok(lock) => lock,
            Err(e @ twig_sched::LockError::Held { .. }) => {
                eprintln!("experiments: {e}");
                std::process::exit(6);
            }
            Err(twig_sched::LockError::Io(e)) => {
                panic!("cannot acquire run lock in {}: {e}", ctx.results_dir.display())
            }
        };
        // Heal whatever a killed predecessor left behind before anything
        // parses the directory's contents; surface it in the manifest.
        // Parent-only: a shard worker recovering mid-run would race the
        // other workers' in-flight temp files.
        for healed in twig_sched::recover_dir(&ctx.results_dir) {
            eprintln!("recovered crash residue: {healed}");
            manifest::record_healed(&healed.path, healed.action);
        }
        Some(lock)
    } else {
        None
    };
    // Forensic integrity dumps land next to the run's other outputs
    // (unless the operator already pinned the directory via
    // TWIG_INTEGRITY_DUMP_DIR).
    if harness.integrity_dump_dir.value.is_none() {
        twig_sim::integrity::dump::set_dump_dir(ctx.results_dir.join(".integrity"));
    }
    // Whenever anything records — counters tier and up, attribution
    // alone, or the windowed timeline — per-cell snapshots (plus traces
    // at the trace tier, attribution profiles, and timeline series when
    // enabled) land under <results-dir>/metrics/.
    if obs.recording() || obs.window.is_some() {
        twig_bench::telemetry::set_metrics_dir(ctx.results_dir.join("metrics"));
    }

    // Worker mode: compute this shard's headline cells (checkpointing
    // each) and exit. Reports, manifests, and bench_results.json belong
    // to the parent; a worker writing them would clobber the real run's.
    if let Some(shard) = ctx.shard {
        let ran = twig_bench::runner::shard_worker(&ctx);
        eprintln!("matrix worker shard {}: {ran} task(s) done", shard.to_arg());
        return;
    }

    let run_started = std::time::Instant::now();
    let mut figures = Vec::new();
    let mut experiments = Vec::new();
    let mut unknown_id = false;
    for id in &ids {
        let started = std::time::Instant::now();
        // Isolate each experiment: a panic that escapes the supervised
        // matrix (figure-local code, a degraded-data division, …) fails
        // this experiment only, never the whole run.
        let outcome = catch_unwind(AssertUnwindSafe(|| run_experiment(id, &ctx)));
        let seconds = started.elapsed().as_secs_f64();
        match outcome {
            Ok(Ok(report)) => {
                println!("==== {id} ({seconds:.1}s) ====");
                println!("{report}");
                let path = ctx.results_dir.join(format!("{id}.txt"));
                twig_sched::publish_atomic(&path, report.as_bytes(), Some("figure-tmp"), None)
                    .expect("publish report file");
                figures.push(FigureTiming {
                    id: id.clone(),
                    seconds,
                });
                experiments.push(ExperimentRecord {
                    id: id.clone(),
                    status: "ok".to_string(),
                    seconds,
                    reason: None,
                });
            }
            Ok(Err(e)) => {
                // Unknown id: a usage error, not a fault to quarantine.
                eprintln!("{id}: {e}");
                unknown_id = true;
                experiments.push(ExperimentRecord {
                    id: id.clone(),
                    status: "failed".to_string(),
                    seconds,
                    reason: Some(e),
                });
            }
            Err(payload) => {
                let reason = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                eprintln!("==== {id} FAILED ({seconds:.1}s): {reason}");
                experiments.push(ExperimentRecord {
                    id: id.clone(),
                    status: "failed".to_string(),
                    seconds,
                    reason: Some(reason),
                });
            }
        }
    }

    let run_manifest = manifest::build(ctx.resume, experiments);
    let manifest_path = ctx.results_dir.join("run_manifest.json");
    let manifest_json =
        twig_serde_json::to_string_pretty(&run_manifest).expect("serialize run manifest");
    twig_sched::publish_atomic(
        &manifest_path,
        manifest_json.as_bytes(),
        Some("manifest-tmp"),
        Some("manifest-published"),
    )
    .expect("publish run_manifest.json");

    let cache = twig_bench::cache::global().stats();
    assert!(
        cache.exactly_once(),
        "artifact regenerated more than once per process: {cache:?}"
    );
    let report = BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        total_seconds: run_started.elapsed().as_secs_f64(),
        threads: twig_sched::num_threads(),
        procs: twig_sched::num_procs(),
        figures,
        cache_exactly_once: cache.exactly_once(),
        cache,
    };
    let path = ctx.results_dir.join("bench_results.json");
    let json = twig_serde_json::to_string_pretty(&report).expect("serialize bench report");
    twig_sched::publish_atomic(&path, json.as_bytes(), Some("bench-tmp"), None)
        .expect("publish bench_results.json");
    println!(
        "wrote {} ({} threads, {:.1}s total, cache: {} hits / {} misses across artifacts)",
        path.display(),
        report.threads,
        report.total_seconds,
        report.cache.setup_hits + report.cache.events_hits + report.cache.profile_hits,
        report.cache.setup_misses + report.cache.events_misses + report.cache.profile_misses,
    );
    let degraded = run_manifest.failed_cells + run_manifest.failed_experiments;
    if degraded > 0 {
        println!(
            "run completed DEGRADED: {} failed cell(s), {} failed experiment(s); \
             see {} and re-run with --resume to fill the gaps",
            run_manifest.failed_cells,
            run_manifest.failed_experiments,
            manifest_path.display(),
        );
    }
    // `process::exit` skips Drop; release the lock explicitly so a
    // degraded-but-completed run never leaves stale lock residue.
    drop(run_lock);
    if unknown_id {
        std::process::exit(2);
    }
    if strict && degraded > 0 {
        std::process::exit(1);
    }
}
