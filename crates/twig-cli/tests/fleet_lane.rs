//! `twig fleet run` and `twig fleet report` end to end through the built
//! binary: the manifest is byte-identical at 1 and 4 workers, a seeded
//! stream stall plus a torn checkpoint write quarantines exactly the
//! stalled tenant with typed reasons in the report, and a clean rerun
//! heals back to the reference bytes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn twig(args: &[&str], envs: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_twig-cli"))
        .env_remove("TWIG_FAULT_SPEC")
        .env_remove("TWIG_FLEET_WORKERS")
        .envs(envs.iter().copied())
        .args(args)
        .output()
        .expect("spawn twig-cli")
}

/// Runs `twig fleet run --out <dir> <extra>` and returns the manifest
/// bytes.
fn fleet_run(dir: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Vec<u8> {
    let out_dir = dir.display().to_string();
    let mut args = vec!["fleet", "run", "--out", out_dir.as_str()];
    args.extend_from_slice(extra);
    let out = twig(&args, envs);
    assert!(out.status.success(), "{args:?} {envs:?}: {out:?}");
    std::fs::read(dir.join("fleet_manifest.json")).expect("manifest written")
}

/// The `(health, reason)` columns of `tenant`'s row in a `fleet report`
/// table.
fn report_row<'a>(report: &'a str, tenant: &str) -> (&'a str, &'a str) {
    report
        .lines()
        .find_map(|line| {
            let mut cols = line.split_whitespace();
            (cols.next() == Some(tenant)).then(|| (cols.next().unwrap(), cols.next().unwrap()))
        })
        .unwrap_or_else(|| panic!("no row for {tenant} in report:\n{report}"))
}

#[test]
fn fleet_run_is_worker_invariant_fault_precise_and_heals() {
    let root: PathBuf = std::env::temp_dir().join(format!("twig-cli-fleet-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();

    let reference = fleet_run(&root.join("w1"), &[], &[("TWIG_FLEET_WORKERS", "1")]);
    let four = fleet_run(&root.join("w4"), &[], &[("TWIG_FLEET_WORKERS", "4")]);
    assert!(reference == four, "1-worker and 4-worker manifests differ");

    let state_dir = root.join("state").display().to_string();
    fleet_run(
        &root.join("faulted"),
        &["--state-dir", &state_dir],
        &[(
            "TWIG_FAULT_SPEC",
            "stall-stream:tenant=svc-bravo;disk-full:tenant=svc-charlie,times=1",
        )],
    );
    let manifest = root
        .join("faulted/fleet_manifest.json")
        .display()
        .to_string();
    let out = twig(&["fleet", "report", &manifest], &[]);
    assert!(out.status.success(), "{out:?}");
    let report = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        report_row(&report, "svc-bravo"),
        ("quarantined", "stall-stream"),
        "{report}"
    );
    assert_eq!(
        report_row(&report, "svc-charlie"),
        ("healthy", "disk-full"),
        "{report}"
    );
    assert_eq!(
        report_row(&report, "svc-alpha"),
        ("healthy", "none"),
        "{report}"
    );

    let healed = fleet_run(&root.join("healed"), &[], &[]);
    assert!(
        reference == healed,
        "a clean rerun must heal to the reference manifest"
    );
    std::fs::remove_dir_all(&root).ok();
}
