//! End-to-end fault-tolerance tests driving the `experiments` binary as a
//! subprocess — checkpointing, fault injection, and resume are
//! process-global (environment-driven fault spec, process-wide caches and
//! manifest), so each scenario gets its own process.

use std::path::{Path, PathBuf};
use std::process::Command;

const FIGS: [&str; 2] = ["fig16", "tab03"];
const BUDGET: &str = "60000";

/// An `experiments` run of `figs` into `dir`. No `TWIG_*` setting is
/// inherited from the ambient environment (an ambient `TWIG_INTEGRITY`
/// or `TWIG_OBS` would leak into the byte-identity checks); each
/// scenario sets its own.
fn experiments(
    figs: &[&str],
    dir: &Path,
    extra_args: &[&str],
    envs: &[(&str, &str)],
) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    for var in twig_types::config::ALL_VARS {
        cmd.env_remove(var);
    }
    cmd.env_remove("RAYON_NUM_THREADS")
        .args(figs)
        .args(["--instructions", BUDGET, "--results-dir"])
        .arg(dir)
        .args(extra_args)
        .envs(envs.iter().copied());
    cmd.output().expect("spawn experiments binary")
}

fn run(dir: &Path, extra_args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    experiments(&FIGS, dir, extra_args, envs)
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

fn manifest(dir: &Path) -> String {
    String::from_utf8(read(dir, "run_manifest.json")).expect("manifest is utf-8")
}

/// The member `key` of a JSON object.
fn field<'v>(value: &'v twig_serde::Value, key: &str) -> &'v twig_serde::Value {
    let (_, v) = value
        .as_object()
        .and_then(|members| members.iter().find(|(k, _)| k == key))
        .unwrap_or_else(|| panic!("no `{key}` member"));
    v
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
    // failing a cell or changing a report. Every headline cell of kafka
    // reads its prepared entry, so the poison is seen (a poisoned entry
    // that is never read again is never checked).
    let poison_dir = temp_dir("poison");
    let poisoned = run(
        &poison_dir,
        &[],
        &[(
            "TWIG_FAULT_SPEC",
            "corrupt-cache:label=cache:prepared:kafka",
        )],
    );
    assert!(poisoned.status.success(), "poisoned run failed: {poisoned:?}");
    let m = manifest(&poison_dir);
    assert!(m.contains("\"failed_cells\": 0"), "{m}");
    let text = String::from_utf8(read(&poison_dir, "bench_results.json")).unwrap();
    let report: twig_serde::Value = twig_serde_json::from_str(&text).unwrap();
    let evictions = field(field(&report, "cache"), "prepared_evictions").as_u64();
    assert!(
        evictions >= Some(1),
        "the poisoned entry was never evicted: {text}"
    );
    assert_eq!(
        field(&report, "cache_exactly_once"),
        &twig_serde::Value::Bool(true),
        "{text}"
    );
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

/// A seeded integrity violation in one cell degrades that cell, not the
/// run: kafka's Twig cell reads `FAILED(integrity: …)`, every other
/// app's rows equal a clean run's, and the forensic dump lands under the
/// results directory.
#[test]
fn integrity_mutation_fails_only_the_matching_cell() {
    let clean_dir = temp_dir("int-clean");
    let mutated_dir = temp_dir("int-mutated");
    let clean = experiments(&["fig16"], &clean_dir, &[], &[]);
    assert!(clean.status.success(), "clean run failed: {clean:?}");
    let spec = "mutate:kind=btb-occupancy,cycle=10000,cell=sim:kafka/twig";
    let envs = [("TWIG_INTEGRITY", "sampled"), ("TWIG_FAULT_SPEC", spec)];
    let mutated = experiments(&["fig16"], &mutated_dir, &[], &envs);
    assert!(mutated.status.success(), "violation failed the run: {mutated:?}");

    // Table and chart rows of the eight other apps, and kafka's table row.
    let rows = |dir: &Path, kafka: bool| -> Vec<String> {
        let text = String::from_utf8(read(dir, "fig16.txt")).unwrap();
        text.lines()
            .filter(|line| {
                let first = line.split_whitespace().next().unwrap_or("");
                (first == "kafka") == kafka
                    && twig_workload::AppId::ALL
                        .iter()
                        .any(|app| app.name() == first)
            })
            .map(str::to_string)
            .collect()
    };
    let others = rows(&clean_dir, false);
    assert_eq!(others.len(), 16, "8 table rows + 8 chart rows: {others:?}");
    assert_eq!(others, rows(&mutated_dir, false));
    let kafka = rows(&mutated_dir, true);
    assert!(
        kafka[0].contains("FAILED(integrity: btb-occupancy"),
        "{kafka:?}"
    );

    let dumps = std::fs::read_dir(mutated_dir.join(".integrity")).expect("a dump directory");
    assert!(
        dumps
            .flatten()
            .any(|entry| entry.path().extension().is_some_and(|x| x == "json")),
        "no forensic dump under .integrity/"
    );
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&mutated_dir);
}
