//! Workspace hygiene: published artifacts are written in exactly one
//! place — `twig_sched::durable` (atomic temp+fsync+rename publication,
//! journaled read-modify-write). A bare `fs::write` or `File::create`
//! in non-test harness code can be torn by a kill at the wrong instant,
//! which the crash drills then cannot heal, so this test walks the
//! workspace sources and fails on any such writer outside the durable
//! module.
//!
//! Scope: `crates/` only — `vendor/` holds third-party stand-ins whose
//! files are not published run artifacts. Test code (`#[cfg(test)]`
//! modules, `tests/`, and the drill binaries that *stage*
//! corrupt inputs on purpose) is exempt: tests must be able to fabricate
//! torn files to prove recovery works.

use std::path::{Path, PathBuf};

/// The one file allowed to create files directly: the durability layer
/// itself.
const ALLOWED: &[&str] = &["crates/twig-sched/src/durable.rs"];

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = <root>/crates/twig-types.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read workspace dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            // Integration tests fabricate residue on purpose.
            if name != "target" && name != ".git" && name != "tests" {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The portion of a source file that ships in the binary: everything
/// before its `#[cfg(test)]` module (unit tests stage corrupt files to
/// drive recovery, which is the point of the exercise).
fn non_test_prefix(text: &str) -> &str {
    match text.find("#[cfg(test)]") {
        Some(at) => &text[..at],
        None => text,
    }
}

#[test]
fn published_artifacts_are_written_only_through_the_durable_layer() {
    let root = workspace_root();
    for allowed in ALLOWED {
        assert!(
            root.join(allowed).is_file(),
            "hygiene test lost track of the durable module at {allowed}"
        );
    }
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    assert!(
        sources.len() > 20,
        "suspiciously few sources found ({}); is the walk broken?",
        sources.len()
    );

    let mut offenders = Vec::new();
    for path in sources {
        let rel = path.strip_prefix(&root).unwrap().to_string_lossy().into_owned();
        if ALLOWED.contains(&rel.as_str()) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for (i, line) in non_test_prefix(&text).lines().enumerate() {
            let bare_write = (line.contains("fs::write(") || line.contains("File::create("))
                && !line.trim_start().starts_with("//")
                && !line.trim_start().starts_with("//!");
            if bare_write {
                offenders.push(format!("{rel}:{} : {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "bare artifact writes outside the durable layer — route them \
         through twig_sched::durable::publish_atomic or Journaled so a \
         kill cannot tear them:\n{}",
        offenders.join("\n")
    );
}
