//! End-to-end windowed-timeline tests driving the `experiments` binary
//! as a subprocess: the `window=N` item of `TWIG_OBS` (or `--obs`) is
//! process-global, so each scenario gets its own process.

use std::path::{Path, PathBuf};
use std::process::Command;

const BUDGET: &str = "60000";

fn run(dir: &Path, extra_args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.env_remove("TWIG_OBS")
        .env_remove("TWIG_NUM_THREADS")
        .env_remove("TWIG_FAULT_SPEC");
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
    let dir = std::env::temp_dir().join(format!("twig-tl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn timeline_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join("metrics"))
        .expect("metrics dir exists")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".timeline.json"))
        .collect();
    names.sort();
    names
}

fn schema_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .join("docs/schema")
        .join(name)
}

/// Windowing must not perturb the simulation (figure outputs byte-equal
/// to an off run), and the exported timelines must validate against the
/// checked-in schema, round-trip through the typed snapshot, reconcile
/// per-window instruction deltas with the window axis, and be indexed in
/// the run manifest.
#[test]
fn windowed_run_exports_schema_valid_conserving_timelines() {
    let off_dir = temp_dir("off");
    let win_dir = temp_dir("win");

    let off = run(&off_dir, &["--obs", "off"], &[]);
    assert!(off.status.success(), "off run failed: {off:?}");
    assert!(
        !off_dir.join("metrics").exists(),
        "window=off must not create a metrics directory"
    );
    let reference = read(&off_dir, "fig16.txt");

    let win = run(&win_dir, &[], &[("TWIG_OBS", "window=10000")]);
    assert!(win.status.success(), "windowed run failed: {win:?}");
    assert_eq!(
        read(&win_dir, "fig16.txt"),
        reference,
        "windowing changed the figure output"
    );

    let files = timeline_files(&win_dir);
    assert!(!files.is_empty(), "windowed run exported no timelines");
    let manifest = String::from_utf8(read(&win_dir, "run_manifest.json")).unwrap();
    assert!(
        manifest.contains("\"obs\": \"window=10000\""),
        "{manifest}"
    );
    let schema_text =
        std::fs::read_to_string(schema_path("timeline-v1.json")).expect("checked-in schema");
    let schema: twig_serde::Value = twig_serde_json::from_str(&schema_text).unwrap();
    for file in &files {
        assert!(
            manifest.contains(&format!("metrics/{file}")),
            "{file} missing from manifest"
        );
        let doc_text = String::from_utf8(read(&win_dir, &format!("metrics/{file}"))).unwrap();
        let doc: twig_serde::Value = twig_serde_json::from_str(&doc_text).unwrap();
        twig_obs::validate(&doc, &schema).unwrap_or_else(|e| panic!("{file}: {e}"));
        let snapshot = twig_obs::TimelineSnapshot::from_json(&doc_text).unwrap();
        assert_eq!(snapshot.window, 10_000);
        assert!(!snapshot.windows.is_empty(), "{file}: empty timeline");
        assert_eq!(snapshot.derived.len(), snapshot.windows.len());
        // Instruction deltas telescope to the final window boundary.
        let instrs: u64 = snapshot
            .track_values(twig_obs::timeseries::track_names::INSTRUCTIONS)
            .expect("instruction track present")
            .iter()
            .sum();
        assert_eq!(
            instrs,
            snapshot.windows.last().unwrap().end_instr,
            "{file}: window deltas do not reconcile"
        );
    }

    let _ = std::fs::remove_dir_all(&off_dir);
    let _ = std::fs::remove_dir_all(&win_dir);
}

/// Timeline exports are byte-identical for a fixed seed regardless of
/// worker-thread count and from run to run: each simulation is single-threaded and the windows close at
/// closed-form retired-instruction boundaries, so scheduling must not
/// leak into the exports.
#[test]
fn timelines_are_deterministic_across_threads_and_runs() {
    let one_dir = temp_dir("t1");
    let four_dir = temp_dir("t4");
    let again_dir = temp_dir("t1again");

    for (dir, envs) in [
        (&one_dir, vec![("TWIG_NUM_THREADS", "1")]),
        (&four_dir, vec![("TWIG_NUM_THREADS", "4")]),
        (&again_dir, vec![("TWIG_NUM_THREADS", "1")]),
    ] {
        let mut envs = envs.clone();
        envs.push(("TWIG_OBS", "window=10000"));
        let out = run(dir, &[], &envs);
        assert!(out.status.success(), "run in {dir:?} failed: {out:?}");
    }

    let files = timeline_files(&one_dir);
    assert!(
        files.iter().any(|f| f == "kafka_twig.timeline.json"),
        "kafka_twig.timeline.json missing: {files:?}"
    );
    let manifest = String::from_utf8(read(&one_dir, "run_manifest.json")).unwrap();
    assert!(manifest.contains("\"obs\": \"window=10000\""), "{manifest}");
    assert!(manifest.contains("metrics/kafka_twig.timeline.json"), "{manifest}");
    assert_eq!(files, timeline_files(&four_dir), "export sets differ");
    assert_eq!(files, timeline_files(&again_dir), "export sets differ");
    for file in &files {
        let name = format!("metrics/{file}");
        let one = read(&one_dir, &name);
        assert_eq!(one, read(&four_dir, &name), "{file} differs across thread counts");
        assert_eq!(one, read(&again_dir, &name), "{file} differs across runs");
    }

    let _ = std::fs::remove_dir_all(&one_dir);
    let _ = std::fs::remove_dir_all(&four_dir);
    let _ = std::fs::remove_dir_all(&again_dir);
}
