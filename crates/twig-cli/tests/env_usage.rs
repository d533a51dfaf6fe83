//! A malformed `TWIG_*` environment or `--obs` spec is a usage error
//! (exit 2, a message naming the culprit), never a panic.

use std::process::Command;

fn twig(args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_twig-cli"))
        .env_remove("TWIG_OBS")
        .env_remove("TWIG_NUM_THREADS")
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
