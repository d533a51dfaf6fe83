//! Bad `experiments` command lines are usage errors: a message on stderr
//! and exit code 2, never a panic.

use std::process::Command;

#[test]
fn malformed_arguments_exit_2_without_panicking() {
    let cases: &[&[&str]] = &[
        &["fig16", "--instructions", "abc"],
        &["fig16", "--instructions"],
        &["fig16", "--sweep-instructions", "-1"],
        &["fig16", "--results-dir"],
        &["fig16", "--shard", "x"],
        &["fig16", "--shard"],
        &["fig16", "--obs", "loud"],
        &["fig16", "--obs-attr", "sometimes"],
        &["fig16", "--obs-window", "often"],
        &[],
    ];
    // A scratch results directory first, so a command line that parsed
    // by mistake could not write into the checked-in results.
    let dir = std::env::temp_dir().join(format!("twig-exp-usage-{}", std::process::id()));
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .arg("--results-dir")
            .arg(&dir)
            .args(*args)
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{args:?}: no usage message");
    }
    std::fs::remove_dir_all(&dir).ok();
}
