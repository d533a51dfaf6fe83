//! `twig report`, `twig metrics validate` and `twig metrics timeline diff`
//! end to end through the built binary, over real simulator exports:
//! counters and attribution exports from `twig simulate`, and a windowed
//! timeline from the same simulator. Every export validates against its
//! checked-in schema, a timeline diffed against itself is clean, and each
//! report renders byte-identically on a rerun.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use twig_sim::{ObsConfig, PlainBtb, SimConfig, Simulator};
use twig_workload::{AppId, InputConfig, ProgramGenerator, Walker, WorkloadSpec};

const BUDGET: u64 = 60_000;

fn twig(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_twig-cli"));
    for var in twig_types::config::ALL_VARS {
        cmd.env_remove(var);
    }
    cmd.args(args).output().expect("spawn twig-cli")
}

/// Runs `twig <args>`, asserting success; returns its stdout.
fn ok(args: &[&str]) -> Vec<u8> {
    let out = twig(args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    out.stdout
}

fn schema(name: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().and_then(Path::parent);
    root.expect("workspace root").join("docs/schema").join(name).display().to_string()
}

/// Writes kafka's windowed timeline (test input, `window=10000`).
fn write_timeline(path: &Path) {
    let spec = WorkloadSpec::preset(AppId::Kafka);
    let program = ProgramGenerator::new(spec.clone()).generate();
    let config = SimConfig {
        obs: ObsConfig::parse("window=10000").unwrap(),
        ..SimConfig::paper_baseline(spec.backend_extra_cpki)
    };
    let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
    sim.run(Walker::new(&program, InputConfig::numbered(1)), BUDGET);
    let timeline = sim.timeline_snapshot().expect("a windowed run keeps a timeline");
    std::fs::write(path, timeline.to_json().unwrap()).unwrap();
}

#[test]
fn reports_are_deterministic_and_exports_validate() {
    let dir: PathBuf = std::env::temp_dir().join(format!("twig-cli-report-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).display().to_string();
    let budget = BUDGET.to_string();

    ok(&["spec", "--app", "kafka", "--out", &p("kafka.json")]);
    ok(&[
        "simulate", "--spec", &p("kafka.json"), "--input", "1", "--instructions", &budget,
        "--obs", "counters,attr", "--metrics-out", &p("kafka_twig.json"),
        "--attr-out", &p("kafka_twig.attr.json"),
    ]);
    write_timeline(&dir.join("kafka_twig.timeline.json"));
    for (file, schema_name) in [
        ("kafka_twig.json", "metrics-v1.json"),
        ("kafka_twig.attr.json", "attribution-v1.json"),
        ("kafka_twig.timeline.json", "timeline-v1.json"),
    ] {
        ok(&["metrics", "validate", &p(file), &schema(schema_name)]);
    }

    // The bottleneck report is deterministic across reruns.
    let cells = [p("kafka_twig.json"), p("kafka_twig.attr.json")];
    let report = |extra: &[&str], files: &[String]| {
        let mut args = vec!["report"];
        args.extend_from_slice(extra);
        args.extend(files.iter().map(String::as_str));
        ok(&args)
    };
    let first = report(&["--top", "10"], &cells);
    assert!(!first.is_empty(), "empty report");
    assert_eq!(first, report(&["--top", "10"], &cells), "report differs on a rerun");

    // A timeline diffed against itself is clean (exit 0), its sparkline
    // report is deterministic, and the --json digest validates.
    let timeline = [p("kafka_twig.timeline.json")];
    ok(&["metrics", "timeline", "diff", &timeline[0], &timeline[0]]);
    let first = report(&["--timeline"], &timeline);
    assert_eq!(first, report(&["--timeline"], &timeline), "timeline report differs");
    std::fs::write(p("digest.json"), report(&["--timeline", "--json"], &timeline)).unwrap();
    ok(&["metrics", "validate", &p("digest.json"), &schema("report-v1.json")]);

    std::fs::remove_dir_all(&dir).ok();
}
