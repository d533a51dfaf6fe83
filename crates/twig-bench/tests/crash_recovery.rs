//! Crash-recovery integration tests driving the `experiments` binary as
//! a subprocess: a representative crashpoint + `--resume` byte-identity
//! check (the exhaustive matrix lives in the `crash_drill` binary), the
//! concurrent-run lock (live holder refused with exit 6, dead holder
//! stolen), and export-failure degradation surfacing in the manifest.

use std::path::{Path, PathBuf};
use std::process::Command;

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");

/// A subprocess with ambient TWIG_* configuration scrubbed so host
/// environment cannot leak into the assertions.
fn experiments(envs: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(EXPERIMENTS);
    for var in twig_types::config::ALL_VARS {
        cmd.env_remove(var);
    }
    cmd.env_remove("RAYON_NUM_THREADS");
    cmd.env("TWIG_NUM_THREADS", "2");
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd
}

fn fig16_args(dir: &Path) -> Vec<String> {
    vec![
        "fig16".into(),
        "--instructions".into(),
        "50000".into(),
        "--results-dir".into(),
        dir.display().to_string(),
        "--obs".into(),
        "counters".into(),
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("twig-crash-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn crashed_checkpoint_publish_recovers_byte_identically_with_resume() {
    let clean = temp_dir("clean");
    let crashed = temp_dir("crashed");

    let status = experiments(&[]).args(fig16_args(&clean)).status().unwrap();
    assert!(status.success(), "clean run failed");

    // Kill the harness just before the first checkpoint rename commits.
    let status = experiments(&[("TWIG_FAULT_SPEC", "crash:point=ckpt-tmp")])
        .args(fig16_args(&crashed))
        .status()
        .unwrap();
    assert_eq!(
        status.code(),
        Some(twig_sched::durable::CRASH_EXIT_CODE),
        "crash spec must abort with the distinctive crash exit code"
    );

    // Recovery steals the dead holder's lock, heals the torn temp file,
    // and recomputes only what never committed.
    let mut resume = fig16_args(&crashed);
    resume.push("--resume".into());
    let output = experiments(&[]).args(resume).output().unwrap();
    assert!(
        output.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("stealing stale run lock"),
        "resume must report stealing the crashed run's lock; stderr:\n{stderr}"
    );

    let want = std::fs::read(clean.join("fig16.txt")).unwrap();
    let got = std::fs::read(crashed.join("fig16.txt")).unwrap();
    assert_eq!(want, got, "recovered figure differs from uncrashed reference");

    let manifest = std::fs::read_to_string(crashed.join("run_manifest.json")).unwrap();
    assert!(manifest.contains("\"failed_cells\": 0"));

    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&crashed);
}

#[test]
fn live_lock_refuses_with_exit_6_and_dead_lock_is_stolen() {
    let dir = temp_dir("lock");
    std::fs::create_dir_all(&dir).unwrap();

    // A lock held by this (live) test process: the run must refuse.
    let lock_path = dir.join(twig_sched::durable::LOCK_FILE_NAME);
    std::fs::write(&lock_path, std::process::id().to_string()).unwrap();
    let output = experiments(&[]).args(fig16_args(&dir)).output().unwrap();
    assert_eq!(output.status.code(), Some(6), "live lock must exit 6");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let holder = format!("(pid {})", std::process::id());
    assert!(
        stderr.contains("run holds") && stderr.contains(&holder),
        "refusal must name the holding pid; stderr:\n{stderr}"
    );

    // The same lock held by a certainly-dead pid: the run must steal it
    // and succeed.
    std::fs::write(&lock_path, u32::MAX.to_string()).unwrap();
    let output = experiments(&[]).args(fig16_args(&dir)).output().unwrap();
    assert!(
        output.status.success(),
        "dead lock must be stolen: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("stealing stale run lock"),
        "steal must be reported"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn export_disk_full_degrades_into_manifest_instead_of_tearing_files() {
    let dir = temp_dir("export");

    let output = experiments(&[(
        "TWIG_FAULT_SPEC",
        "disk-full:label=export:kafka_twig.json",
    )])
    .args(fig16_args(&dir))
    .output()
    .unwrap();
    assert!(
        output.status.success(),
        "export failure must degrade, not abort: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // Nothing torn on disk: the export is absent, not half-written.
    assert!(!dir.join("metrics/kafka_twig.json").exists());

    // ...and the degradation is typed into the manifest.
    let manifest = std::fs::read_to_string(dir.join("run_manifest.json")).unwrap();
    assert!(
        manifest.contains("\"export_failures\""),
        "manifest must carry the export_failures field"
    );
    assert!(
        manifest.contains("injected disk-full (export not written)"),
        "manifest must record the typed failure reason:\n{manifest}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
