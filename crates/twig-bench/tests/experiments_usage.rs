//! Bad `experiments` command lines are usage errors: a message on stderr
//! (naming the variable, for a bad environment) and exit code 2, never a
//! panic.

use std::process::Command;

/// One rejected invocation: its arguments and its environment.
type Case<'a> = (&'a [&'a str], &'a [(&'a str, &'a str)]);

#[test]
fn malformed_arguments_exit_2_without_panicking() {
    let cases: &[Case] = &[
        (&["fig16", "--instructions", "abc"], &[]),
        (&["fig16", "--instructions"], &[]),
        (&["fig16", "--sweep-instructions", "-1"], &[]),
        (&["fig16", "--results-dir"], &[]),
        (&["fig16", "--obs", "loud"], &[]),
        (&["fig16", "--obs", "attr.k=0"], &[]),
        (&["fig16", "--obs", "window=0"], &[]),
        (&["fig16", "--obs", "counters,trace"], &[]),
        // Removed flags are rejected like any unknown flag.
        (&["fig16", "--obs-attr", "sometimes"], &[]),
        (&["fig16", "--obs-window", "often"], &[]),
        (&["fig16", "--shard", "0/2"], &[]),
        (&["fig16", "--shard"], &[]),
        (&["fig16", "--bogus"], &[]),
        (&["fig16"], &[("TWIG_OBS", "loud")]),
        (&["fig16"], &[("TWIG_NUM_THREADS", "abc")]),
        (&["fig16"], &[("TWIG_FAULT_SPEC", "abort-ish:task=0")]),
        (&["fig16"], &[("TWIG_FAULT_SPEC", "abort:task=0")]),
        (&["fig16"], &[("TWIG_FAULT_SPEC", "crash:point=nope")]),
        (&["fig16"], &[("TWIG_INTEGRITY", "bogus")]),
        (&["fig16"], &[("TWIG_FAULT_SPEC", "mutate:kind=nope,cycle=1")]),
        (&[], &[]),
    ];
    // A scratch results directory first, so a command line that parsed
    // by mistake could not write into the checked-in results.
    let dir = std::env::temp_dir().join(format!("twig-exp-usage-{}", std::process::id()));
    for (args, envs) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .env_remove("TWIG_OBS")
            .env_remove("TWIG_NUM_THREADS")
            .env_remove("TWIG_FAULT_SPEC")
            .env_remove("TWIG_INTEGRITY")
            .envs(envs.iter().copied())
            .arg("--results-dir")
            .arg(&dir)
            .args(*args)
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} {envs:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} {envs:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{args:?} {envs:?}: no usage message");
        for (var, _) in *envs {
            assert!(stderr.contains(var), "{args:?} {envs:?}: message must name {var}");
        }
        // Rejected before anything ran: no report was written.
        assert!(!dir.join("fig16.txt").exists(), "{args:?} {envs:?} ran fig16");
    }
    std::fs::remove_dir_all(&dir).ok();
}
