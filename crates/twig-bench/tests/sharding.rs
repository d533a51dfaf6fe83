//! End-to-end tests for multi-process matrix sharding
//! (`TWIG_NUM_PROCS`): the parent re-executes this binary with hidden
//! `--shard i/N` arguments and assembles the headline matrix purely from
//! the shared checkpoint store, so the whole protocol — worker spawn,
//! round-robin ownership, checkpoint assembly, dead-worker degradation,
//! resume — only exists at the process level and must be tested there.

use std::path::{Path, PathBuf};
use std::process::Command;

const BUDGET: &str = "20000";

fn experiments() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    // Never inherit sharding, observation, fault, or task-policy knobs
    // from the ambient environment; each scenario sets its own.
    cmd.env_remove("TWIG_NUM_PROCS")
        .env_remove("TWIG_OBS")
        .env_remove("TWIG_FAULT_SPEC")
        .env_remove("TWIG_TASK_ATTEMPTS")
        .env_remove("TWIG_TASK_BACKOFF_MS")
        .env_remove("TWIG_TASK_TIMEOUT_MS");
    cmd
}

fn run(dir: &Path, extra_args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = experiments();
    cmd.args(["fig16", "--instructions", BUDGET, "--results-dir"])
        .arg(dir)
        .args(extra_args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn experiments binary")
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("twig-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The sharded run must be a pure execution strategy: N worker
/// processes computing round-robin slices of the same deterministic
/// task list must produce byte-identical reports to the single-process
/// run.
#[test]
fn sharded_run_is_byte_identical_to_single_process() {
    let single_dir = temp_dir("single");
    let sharded_dir = temp_dir("sharded");

    let single = run(&single_dir, &[], &[("TWIG_NUM_PROCS", "1")]);
    assert!(single.status.success(), "single-process run failed: {single:?}");

    let sharded = run(&sharded_dir, &[], &[("TWIG_NUM_PROCS", "2")]);
    assert!(sharded.status.success(), "sharded run failed: {sharded:?}");
    let stderr = String::from_utf8_lossy(&sharded.stderr);
    assert!(
        stderr.contains("matrix worker shard 0/2") && stderr.contains("matrix worker shard 1/2"),
        "both workers must report completion: {stderr}"
    );

    assert_eq!(
        read(&single_dir, "fig16.txt"),
        read(&sharded_dir, "fig16.txt"),
        "fig16.txt differs between 1-process and 2-process runs"
    );

    let _ = std::fs::remove_dir_all(&single_dir);
    let _ = std::fs::remove_dir_all(&sharded_dir);
}

/// A worker killed mid-run (deterministic `abort` fault, the stand-in
/// for `kill -9`/OOM) must not take the parent down: its unfinished
/// cells degrade to `FAILED(worker shard …)` markers, the run exits 0,
/// and a fault-free `--resume` recomputes exactly the missing cells and
/// restores byte-identical reports.
#[test]
fn dead_worker_degrades_cells_and_resume_heals() {
    let clean_dir = temp_dir("clean");
    let fault_dir = temp_dir("dead-worker");

    // Reference: a clean single-process run.
    let clean = run(&clean_dir, &[], &[("TWIG_NUM_PROCS", "1")]);
    assert!(clean.status.success(), "clean run failed: {clean:?}");

    // Task 5 is owned by shard 1 of 2 (round-robin by index), so the
    // abort kills exactly one of the two workers.
    let faulted = run(
        &fault_dir,
        &[],
        &[
            ("TWIG_NUM_PROCS", "2"),
            ("TWIG_FAULT_SPEC", "abort:task=5"),
        ],
    );
    assert!(
        faulted.status.success(),
        "a run with a dead worker must still exit 0: {faulted:?}"
    );
    let stdout = String::from_utf8_lossy(&faulted.stdout);
    assert!(
        stdout.contains("run completed DEGRADED"),
        "dead worker's cells must be reported as degradation: {stdout}"
    );
    let fig16 = String::from_utf8(read(&fault_dir, "fig16.txt")).unwrap();
    assert!(
        fig16.contains("FAILED(worker shard 1/2: killed by signal"),
        "missing cells must name the dead worker: {fig16}"
    );

    // Resume without the fault: the surviving checkpoints are served,
    // the dead worker's cells recompute, and the report heals.
    let resumed = run(&fault_dir, &["--resume"], &[("TWIG_NUM_PROCS", "2")]);
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    assert_eq!(
        read(&clean_dir, "fig16.txt"),
        read(&fault_dir, "fig16.txt"),
        "fig16.txt differs between clean run and dead-worker+resumed run"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&fault_dir);
}

fn metrics_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join("metrics"))
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// Shard workers inherit the parent's resolved observation spec: an
/// explicit `--obs` on a sharded run exports exactly the per-cell files a
/// single-process run does, byte for byte.
#[test]
fn sharded_run_exports_the_same_metrics_as_single_process() {
    let single_dir = temp_dir("obs-single");
    let sharded_dir = temp_dir("obs-sharded");

    let single = run(&single_dir, &["--obs", "counters"], &[("TWIG_NUM_PROCS", "1")]);
    assert!(single.status.success(), "single-process run failed: {single:?}");
    let sharded = run(&sharded_dir, &["--obs", "counters"], &[("TWIG_NUM_PROCS", "2")]);
    assert!(sharded.status.success(), "sharded run failed: {sharded:?}");

    let files = metrics_files(&single_dir);
    assert!(!files.is_empty(), "single-process run exported no metrics");
    assert_eq!(files, metrics_files(&sharded_dir), "export sets differ");
    for file in &files {
        let name = format!("metrics/{file}");
        assert_eq!(
            read(&single_dir, &name),
            read(&sharded_dir, &name),
            "{file} differs between 1-process and 2-process runs"
        );
    }

    let _ = std::fs::remove_dir_all(&single_dir);
    let _ = std::fs::remove_dir_all(&sharded_dir);
}
