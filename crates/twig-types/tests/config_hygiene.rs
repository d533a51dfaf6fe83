//! Workspace hygiene: every `TWIG_*` environment variable is parsed in
//! exactly one place — `twig-types/src/config.rs`. A stray
//! `env::var("TWIG…")` read anywhere else bypasses the typed
//! `HarnessConfig` (its validation, its precedence rule, and its
//! manifest dump), so this test walks the workspace sources and fails on
//! any such read.

use std::path::{Path, PathBuf};

/// The one file allowed to read `TWIG_*` from the environment.
const ALLOWED: &str = "crates/twig-types/src/config.rs";

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
            if name != "target" && name != ".git" {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn twig_env_vars_are_read_in_exactly_one_place() {
    let root = workspace_root();
    assert!(
        root.join(ALLOWED).is_file(),
        "hygiene test lost track of the config module at {ALLOWED}"
    );
    let mut sources = Vec::new();
    // `vendor/` holds third-party stand-ins that know nothing of TWIG_*;
    // scan it too — a violation there would be just as real.
    for top in ["crates", "vendor"] {
        let dir = root.join(top);
        if dir.is_dir() {
            rust_sources(&dir, &mut sources);
        }
    }
    assert!(
        sources.len() > 20,
        "suspiciously few sources found ({}); is the walk broken?",
        sources.len()
    );

    let mut offenders = Vec::new();
    for path in sources {
        let rel = path.strip_prefix(&root).unwrap().to_string_lossy().into_owned();
        if rel == ALLOWED {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            let direct_read = (line.contains("env::var(\"TWIG")
                || line.contains("env::var_os(\"TWIG"))
                && !line.trim_start().starts_with("//");
            if direct_read {
                offenders.push(format!("{rel}:{} : {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "TWIG_* environment reads outside {ALLOWED} — route them through \
         twig_types::HarnessConfig instead:\n{}",
        offenders.join("\n")
    );
}

/// The first-column variable names of the README's configuration
/// reference table.
fn readme_knob_table(readme: &str) -> Vec<String> {
    readme
        .lines()
        .skip_while(|line| !line.starts_with("### Configuration reference"))
        .skip(1)
        .take_while(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let first = line.strip_prefix('|')?.split('|').next()?.trim();
            let name = first.strip_prefix('`')?.strip_suffix('`')?;
            name.starts_with("TWIG_").then(|| name.to_string())
        })
        .collect()
}

#[test]
fn readme_knob_table_lists_exactly_all_vars() {
    use std::collections::BTreeSet;
    let readme = std::fs::read_to_string(workspace_root().join("README.md")).expect("read README");
    let rows = readme_knob_table(&readme);
    let documented: BTreeSet<&str> = rows.iter().map(String::as_str).collect();
    assert_eq!(documented.len(), rows.len(), "README lists a knob twice: {rows:?}");
    let known: BTreeSet<&str> = twig_types::config::ALL_VARS.iter().copied().collect();
    assert_eq!(
        documented, known,
        "README's configuration table and config::ALL_VARS disagree"
    );
}
