//! A malformed `TWIG_*` environment or `--obs` spec is a usage error
//! (exit 2, a message naming the culprit), never a panic.

use std::process::Command;

fn twig(args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_twig-cli"))
        .env_remove("TWIG_OBS")
        .env_remove("TWIG_NUM_THREADS")
        .env_remove("TWIG_FAULT_SPEC")
        .envs(envs.iter().copied())
        .args(args)
        .output()
        .expect("spawn twig-cli")
}

#[test]
fn malformed_observation_config_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("twig-cli-env-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json").display().to_string();
    let out = twig(&["spec", "--app", "kafka", "--out", &spec], &[]);
    assert!(out.status.success(), "spec export failed: {out:?}");

    let simulate = ["simulate", "--spec", spec.as_str(), "--instructions", "2000"];
    let with_obs = |obs: &'static str| {
        let mut args = simulate.to_vec();
        args.extend(["--obs", obs]);
        args
    };
    for (args, envs, culprit) in [
        (simulate.to_vec(), &[("TWIG_OBS", "loud")][..], "TWIG_OBS"),
        (simulate.to_vec(), &[("TWIG_NUM_THREADS", "abc")][..], "TWIG_NUM_THREADS"),
        (with_obs("counters,trace"), &[][..], "--obs"),
        (with_obs("attr.k=0"), &[][..], "--obs"),
    ] {
        let out = twig(&args, envs);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} {envs:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} {envs:?}: {stderr}");
        assert!(stderr.contains(culprit), "{args:?} {envs:?}: {stderr}");
    }

    // A valid spec through `--obs` runs.
    let out = twig(&with_obs("counters,attr,window=500"), &[]);
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_fault_spec_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("twig-cli-faults-{}", std::process::id()));
    let out_dir = dir.display().to_string();
    for spec in ["bogus:tenant=svc-alpha", "stall-stream:tenant"] {
        let out = twig(&["fleet", "run", "--out", &out_dir], &[("TWIG_FAULT_SPEC", spec)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
        assert!(!stderr.contains("panicked"), "{spec}: {stderr}");
        assert!(stderr.contains("TWIG_FAULT_SPEC"), "{spec}: {stderr}");
        assert!(!dir.join("fleet_manifest.json").exists(), "{spec}: nothing may run");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("twig-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json").display().to_string();
    let trace = dir.join("t.twgc");
    let out = twig(&["spec", "--app", "kafka", "--out", &spec], &[]);
    assert!(out.status.success(), "spec export failed: {out:?}");

    let trace_arg = trace.display().to_string();
    let simulate = ["simulate", "--spec", &spec, "--instructions", "2000", "--obs-attr", "on"];
    let trace_cmd = ["trace", "--spec", &spec, "--out", &trace_arg, "--instructions", "2000"];
    for (args, culprit) in [
        (simulate.to_vec(), "--obs-attr"),
        ([&trace_cmd[..], &["--bogus", "1"][..]].concat(), "--bogus"),
    ] {
        let out = twig(&args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains(culprit), "{args:?}: {stderr}");
    }
    assert!(!trace.exists(), "a rejected command line must not run");

    // Without the unknown flag the same trace command runs.
    let out = twig(&trace_cmd, &[]);
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn closed_stdout_ends_output_cleanly() {
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("twig-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json").display().to_string();
    let out = twig(&["spec", "--app", "kafka", "--out", &spec], &[]);
    assert!(out.status.success(), "spec export failed: {out:?}");

    // The reader goes away before the simulation prints its first line,
    // as with `twig simulate … | head -0`.
    let mut child = Command::new(env!("CARGO_BIN_EXE_twig-cli"))
        .env_remove("TWIG_OBS")
        .args(["simulate", "--spec", &spec, "--instructions", "20000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn twig-cli");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for twig-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
