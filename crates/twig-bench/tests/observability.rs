//! End-to-end observability tests driving the `experiments` binary as a
//! subprocess: the observation spec is process-global (`TWIG_OBS` or
//! `--obs`), so each scenario gets its own process.

use std::path::{Path, PathBuf};
use std::process::Command;

const BUDGET: &str = "60000";

fn run(dir: &Path, extra_args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    // Never inherit an ambient tier or thread policy; each scenario
    // pins its own.
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
    let dir = std::env::temp_dir().join(format!("twig-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn metrics_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join("metrics"))
        .expect("metrics dir exists")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Turning recording on must not perturb the simulation: figure outputs
/// are byte-identical across `off`, `counters`, and `trace` tiers, the
/// `off` tier exports nothing, and the richer tiers' exports match the
/// checked-in schemas.
#[test]
fn tiers_agree_on_figures_and_exports_match_schemas() {
    let off_dir = temp_dir("off");
    let counters_dir = temp_dir("counters");
    let trace_dir = temp_dir("trace");

    let off = run(&off_dir, &["--obs", "off"], &[]);
    assert!(off.status.success(), "off-tier run failed: {off:?}");
    assert!(
        !off_dir.join("metrics").exists(),
        "the off tier must not create a metrics directory"
    );
    let manifest = String::from_utf8(read(&off_dir, "run_manifest.json")).unwrap();
    assert!(manifest.contains("\"obs\": \"off\""), "{manifest}");
    assert!(manifest.contains("\"metrics\": []"), "{manifest}");
    let reference = read(&off_dir, "fig16.txt");

    let counters = run(&counters_dir, &["--obs", "counters"], &[]);
    assert!(counters.status.success(), "counters run failed: {counters:?}");
    assert_eq!(
        read(&counters_dir, "fig16.txt"),
        reference,
        "counters tier changed the figure output"
    );
    let manifest = String::from_utf8(read(&counters_dir, "run_manifest.json")).unwrap();
    assert!(manifest.contains("\"obs\": \"counters\""), "{manifest}");
    let files = metrics_files(&counters_dir);
    assert!(!files.is_empty(), "counters tier exported no metrics");
    assert!(
        files.iter().all(|f| !f.ends_with(".trace.json")),
        "counters tier must not export traces: {files:?}"
    );
    // Every export is recorded in the manifest and matches the schema.
    let schema_text =
        std::fs::read_to_string(schema_path("metrics-v1.json")).expect("checked-in schema");
    let schema: twig_serde::Value = twig_serde_json::from_str(&schema_text).unwrap();
    for file in &files {
        assert!(
            manifest.contains(&format!("metrics/{file}")),
            "{file} missing from manifest"
        );
        let doc_text = String::from_utf8(read(&counters_dir, &format!("metrics/{file}"))).unwrap();
        let doc: twig_serde::Value = twig_serde_json::from_str(&doc_text).unwrap();
        twig_obs::validate(&doc, &schema).unwrap_or_else(|e| panic!("{file}: {e}"));
        // And it round-trips through the typed snapshot.
        twig_obs::MetricsSnapshot::from_json(&doc_text).unwrap();
    }

    // An explicit `--obs` replaces `TWIG_OBS` as a whole: the
    // environment's window item must not leak into this run.
    let trace = run(
        &trace_dir,
        &["--obs", "attr,trace=8"],
        &[("TWIG_OBS", "counters,window=5000")],
    );
    assert!(trace.status.success(), "trace run failed: {trace:?}");
    assert_eq!(
        read(&trace_dir, "fig16.txt"),
        reference,
        "trace tier changed the figure output"
    );
    let manifest = String::from_utf8(read(&trace_dir, "run_manifest.json")).unwrap();
    assert!(manifest.contains("\"obs\": \"trace=8,attr\""), "{manifest}");
    let files = metrics_files(&trace_dir);
    assert!(files.iter().any(|f| f.ends_with(".attr.json")), "{files:?}");
    assert!(files.iter().all(|f| !f.ends_with(".timeline.json")), "{files:?}");
    let traces: Vec<&String> = files.iter().filter(|f| f.ends_with(".trace.json")).collect();
    assert!(!traces.is_empty(), "trace tier exported no traces: {files:?}");
    let schema_text =
        std::fs::read_to_string(schema_path("trace-v1.json")).expect("checked-in schema");
    let schema: twig_serde::Value = twig_serde_json::from_str(&schema_text).unwrap();
    for file in traces {
        let doc_text = String::from_utf8(read(&trace_dir, &format!("metrics/{file}"))).unwrap();
        let doc: twig_serde::Value = twig_serde_json::from_str(&doc_text).unwrap();
        twig_obs::validate(&doc, &schema).unwrap_or_else(|e| panic!("{file}: {e}"));
    }

    let _ = std::fs::remove_dir_all(&off_dir);
    let _ = std::fs::remove_dir_all(&counters_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

/// The manifest's `effective_config` records the configuration the run
/// used: an explicit `--obs` shows as the `TWIG_OBS` row, with source
/// `explicit`, over the environment's value.
#[test]
fn manifest_effective_config_records_the_obs_flag() {
    let dir = temp_dir("effective");
    let out = run(&dir, &["--obs", "counters"], &[("TWIG_OBS", "window=10000")]);
    assert!(out.status.success(), "run failed: {out:?}");
    let text = String::from_utf8(read(&dir, "run_manifest.json")).unwrap();
    let manifest: twig_serde::Value = twig_serde_json::from_str(&text).unwrap();
    fn field<'v>(value: &'v twig_serde::Value, key: &str) -> Option<&'v str> {
        let (_, v) = value.as_object()?.iter().find(|(k, _)| k == key)?;
        v.as_str()
    }
    let row = manifest
        .as_object()
        .and_then(|m| m.iter().find(|(k, _)| k == "effective_config"))
        .and_then(|(_, rows)| rows.as_array())
        .expect("an effective_config array")
        .iter()
        .find(|row| field(row, "name") == Some("TWIG_OBS"))
        .expect("a TWIG_OBS row");
    assert_eq!(field(row, "value"), Some("counters"), "{text}");
    assert_eq!(field(row, "source"), Some("explicit"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn schema_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .join("docs/schema")
        .join(name)
}

/// Counters-tier metrics and attribution exports (`.attr.json`,
/// `.folded.txt`) are bit-identical for a fixed seed regardless of
/// worker-thread count, and from run to run: each simulation is
/// single-threaded and the registry holds no clocks, so scheduling must
/// not leak into the exports. The manifest indexes them under the
/// canonical obs spec, and every attribution export validates against
/// the checked-in schema.
#[test]
fn metrics_are_deterministic_across_thread_counts_and_runs() {
    let one_dir = temp_dir("t1");
    let four_dir = temp_dir("t4");
    let again_dir = temp_dir("t4again");

    for (dir, threads) in [(&one_dir, "1"), (&four_dir, "4"), (&again_dir, "4")] {
        let out = run(
            dir,
            &["--obs", "counters,attr"],
            &[("TWIG_NUM_THREADS", threads)],
        );
        assert!(out.status.success(), "{threads}-thread run failed: {out:?}");
    }

    let files = metrics_files(&one_dir);
    assert!(!files.is_empty(), "no metrics exported");
    for export in ["kafka_twig.json", "kafka_twig.attr.json", "kafka_twig.folded.txt"] {
        assert!(files.iter().any(|f| f == export), "{export} missing: {files:?}");
    }
    assert_eq!(files, metrics_files(&four_dir), "export sets differ");
    assert_eq!(files, metrics_files(&again_dir), "export sets differ");
    for file in &files {
        let name = format!("metrics/{file}");
        let one = read(&one_dir, &name);
        assert_eq!(one, read(&four_dir, &name), "{file} differs across thread counts");
        assert_eq!(one, read(&again_dir, &name), "{file} differs across runs");
    }

    let manifest = String::from_utf8(read(&one_dir, "run_manifest.json")).unwrap();
    assert!(manifest.contains("\"obs\": \"counters,attr\""), "{manifest}");
    assert!(manifest.contains("metrics/kafka_twig.attr.json"), "{manifest}");
    let schema_text =
        std::fs::read_to_string(schema_path("attribution-v1.json")).expect("checked-in schema");
    let schema: twig_serde::Value = twig_serde_json::from_str(&schema_text).unwrap();
    for file in files.iter().filter(|f| f.ends_with(".attr.json")) {
        let doc_text = String::from_utf8(read(&one_dir, &format!("metrics/{file}"))).unwrap();
        let doc: twig_serde::Value = twig_serde_json::from_str(&doc_text).unwrap();
        twig_obs::validate(&doc, &schema).unwrap_or_else(|e| panic!("{file}: {e}"));
    }

    let _ = std::fs::remove_dir_all(&one_dir);
    let _ = std::fs::remove_dir_all(&four_dir);
    let _ = std::fs::remove_dir_all(&again_dir);
}
