//! Verifies that the current `results/` preserve every figure's shape
//! verdict relative to the seed-era baseline, and writes the side-by-side
//! comparison to `docs/SEED_COMPARISON.md`.
//!
//! ```text
//! verify_shapes [--baseline DIR] [--results DIR] [--doc PATH|--no-doc]
//! ```
//!
//! Exits nonzero if any check fails on either result set (so CI catches a
//! regeneration that flips a verdict) or if a report file is missing.

use std::path::PathBuf;

use twig_bench::shapes::{compare_dirs, render_report};

const USAGE: &str = "usage: verify_shapes [--baseline DIR] [--results DIR] [--doc PATH|--no-doc]";

/// Reports a bad command line on stderr and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("verify_shapes: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut baseline = PathBuf::from("results/seed_baseline");
    let mut results = PathBuf::from("results");
    let mut doc = Some(PathBuf::from("docs/SEED_COMPARISON.md"));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut path = || {
            let value = args.next().unwrap_or_else(|| usage_error(&format!("{arg} needs a path")));
            PathBuf::from(value)
        };
        match arg.as_str() {
            "--baseline" => baseline = path(),
            "--results" => results = path(),
            "--doc" => doc = Some(path()),
            "--no-doc" => doc = None,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let comparisons = match compare_dirs(&baseline, &results) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("verify_shapes: {e}");
            std::process::exit(2);
        }
    };

    let mut checks = 0usize;
    let mut failures = 0usize;
    for cmp in &comparisons {
        for (seed, cur) in &cmp.checks {
            checks += 1;
            for (side, c) in [("seed", seed), ("current", cur)] {
                if !c.pass {
                    failures += 1;
                    eprintln!("FAIL {} [{side}]: {} (value {})", cmp.id, c.name, c.value);
                }
            }
        }
    }

    if let Some(path) = doc {
        twig_sched::publish_atomic(&path, render_report(&comparisons).as_bytes(), None, None)
            .expect("publish comparison doc");
        println!("wrote {}", path.display());
    }
    println!(
        "{} figures, {} shape checks x 2 result sets: {}",
        comparisons.len(),
        checks,
        if failures == 0 {
            "all verdicts preserved".to_string()
        } else {
            format!("{failures} FAILURES")
        }
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
