//! End-to-end fault-tolerance tests driving the `experiments` binary as a
//! subprocess — checkpointing, fault injection, and resume are
//! process-global (environment-driven fault spec, process-wide caches and
//! manifest), so each scenario gets its own process.

use std::path::{Path, PathBuf};
use std::process::Command;

const FIGS: [&str; 2] = ["fig16", "tab03"];
const BUDGET: &str = "60000";

fn experiments() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    // Never inherit a fault spec or task policy from the ambient
    // environment; each scenario sets its own.
    cmd.env_remove("TWIG_FAULT_SPEC")
        .env_remove("TWIG_TASK_ATTEMPTS")
        .env_remove("TWIG_TASK_BACKOFF_MS")
        .env_remove("TWIG_TASK_TIMEOUT_MS");
    cmd
}

fn run(dir: &Path, extra_args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = experiments();
    cmd.args(FIGS)
        .args(["--instructions", BUDGET, "--results-dir"])
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

fn manifest(dir: &Path) -> String {
    String::from_utf8(read(dir, "run_manifest.json")).expect("manifest is utf-8")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("twig-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One injected panic + one injected hang: the run must complete with
/// exit 0, quarantine exactly the faulted cells in the manifest and the
/// reports, and a fault-free `--resume` must re-execute only those cells
/// and restore byte-identical reports. A poisoned cache entry must leave
/// every cell green and every report byte-identical.
#[test]
fn faulted_run_quarantines_and_resume_heals() {
    let clean_dir = temp_dir("clean");
    let fault_dir = temp_dir("faulted");

    // Reference: a clean cold run.
    let clean = run(&clean_dir, &[], &[]);
    assert!(clean.status.success(), "clean run failed: {clean:?}");
    assert!(manifest(&clean_dir).contains("\"failed_cells\": 0"));

    // Injected faults: a panic in one cell, a hang (injected delay far
    // beyond the watchdog deadline) in another.
    let faulted = run(
        &fault_dir,
        &[],
        &[
            (
                "TWIG_FAULT_SPEC",
                "panic:label=sim:kafka/ideal;delay:label=sim:tomcat/shotgun,ms=5000",
            ),
            ("TWIG_TASK_TIMEOUT_MS", "300"),
            ("TWIG_TASK_BACKOFF_MS", "10"),
        ],
    );
    assert!(
        faulted.status.success(),
        "a faulted run must still exit 0: {faulted:?}"
    );
    let m = manifest(&fault_dir);
    assert!(m.contains("\"sim:kafka/ideal\""), "{m}");
    assert!(m.contains("injected panic"), "{m}");
    assert!(m.contains("timed out"), "{m}");
    assert_eq!(
        m.matches("\"status\": \"failed\"").count(),
        2,
        "exactly the two injected cells fail: {m}"
    );
    // The figure degrades instead of disappearing.
    let fig16 = String::from_utf8(read(&fault_dir, "fig16.txt")).unwrap();
    assert!(fig16.contains("FAILED("), "{fig16}");

    // Resume without faults: only the two failed cells re-run.
    let resumed = run(&fault_dir, &["--resume"], &[]);
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    let m = manifest(&fault_dir);
    assert!(m.contains("\"failed_cells\": 0"), "resume must go green: {m}");
    assert!(!m.contains("\"status\": \"failed\""), "{m}");
    // Experiment records are also `"status": "ok"`, so subtract them out.
    assert_eq!(
        m.matches("\"status\": \"ok\"").count() - FIGS.len(),
        2,
        "resume recomputes exactly the previously failed cells: {m}"
    );
    assert!(m.contains("\"status\": \"checkpointed\""));

    // Healed reports are byte-identical to the clean cold run.
    for name in ["fig16.txt", "tab03.txt"] {
        assert_eq!(
            read(&clean_dir, name),
            read(&fault_dir, name),
            "{name} differs between clean cold run and faulted+resumed run"
        );
    }

    // A poisoned artifact-cache entry is evicted and recomputed without
    // failing a cell or changing a report.
    let poison_dir = temp_dir("poison");
    let poisoned = run(
        &poison_dir,
        &[],
        &[("TWIG_FAULT_SPEC", "corrupt-cache:label=cache:events:kafka")],
    );
    assert!(poisoned.status.success(), "poisoned run failed: {poisoned:?}");
    let m = manifest(&poison_dir);
    assert!(m.contains("\"failed_cells\": 0"), "{m}");
    for name in ["fig16.txt", "tab03.txt"] {
        assert_eq!(
            read(&clean_dir, name),
            read(&poison_dir, name),
            "{name} differs between clean and cache-poisoned runs"
        );
    }

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&fault_dir);
    let _ = std::fs::remove_dir_all(&poison_dir);
}

/// A corrupted checkpoint record must be evicted and recomputed on
/// resume — never served — and the resumed run still matches a clean run.
#[test]
fn corrupt_checkpoint_is_evicted_on_resume() {
    let dir = temp_dir("corrupt");
    let cold = run(&dir, &[], &[]);
    assert!(cold.status.success(), "cold run failed: {cold:?}");
    let reference = read(&dir, "fig16.txt");

    // Flip one payload byte in one checkpoint record.
    let ckpt_dir = dir.join(".checkpoints");
    let victim = std::fs::read_dir(&ckpt_dir)
        .expect("checkpoint dir exists")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .expect("at least one checkpoint record");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();

    let resumed = run(&dir, &["--resume"], &[]);
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    let m = manifest(&dir);
    assert!(!m.contains("\"status\": \"failed\""), "{m}");
    assert_eq!(
        m.matches("\"status\": \"ok\"").count() - FIGS.len(),
        1,
        "exactly the corrupted cell recomputes: {m}"
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("evicting corrupt checkpoint"),
        "eviction must be reported: {stderr}"
    );
    assert_eq!(read(&dir, "fig16.txt"), reference);

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--strict` turns a quarantined failure into a nonzero exit for CI
/// gates that must not tolerate degradation.
#[test]
fn strict_flag_fails_degraded_runs() {
    let dir = temp_dir("strict");
    let out = run(
        &dir,
        &["--strict"],
        &[
            ("TWIG_FAULT_SPEC", "panic:label=sim:drupal/btb32k"),
            ("TWIG_TASK_BACKOFF_MS", "10"),
        ],
    );
    assert!(!out.status.success(), "--strict must fail a degraded run");
    assert_eq!(out.status.code(), Some(1));
    let m = manifest(&dir);
    assert!(m.contains("\"sim:drupal/btb32k\""), "{m}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cold (non-`--resume`) run must ignore checkpoints from a previous
/// run: stale records are wiped and every cell recomputes.
#[test]
fn cold_run_wipes_stale_checkpoints() {
    let dir = temp_dir("coldwipe");
    let first = run(&dir, &[], &[]);
    assert!(first.status.success());
    assert!(manifest(&dir).contains("\"status\": \"ok\""));

    let second = run(&dir, &[], &[]);
    assert!(second.status.success());
    let m = manifest(&dir);
    assert!(
        !m.contains("\"status\": \"checkpointed\""),
        "cold runs must not serve stale checkpoints: {m}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
