//! Bad drill command lines are usage errors: a message on stderr and
//! exit code 2, never a panic (exit 101).

use std::process::Command;

fn assert_usage_error(exe: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).output().expect("spawn drill");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: no usage message: {stderr}");
}

#[test]
fn crash_drill_rejects_malformed_arguments() {
    for args in [
        &["--instructions", "abc"][..],
        &["--instructions"],
        &["--root"],
        &["--bogus"],
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_crash_drill"), args);
    }
}

#[test]
fn integrity_drill_rejects_malformed_arguments() {
    for args in [
        &["smoke", "--instructions", "abc"][..],
        &["smoke", "--instructions"],
        &["mutate", "--at", "soon"],
        &["mutate", "--kind", "bogus"],
        &["mutate", "--kind"],
        &["replay"],
        &["bogus"],
        &[],
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_integrity_drill"), args);
    }
}
