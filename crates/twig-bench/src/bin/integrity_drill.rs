//! CI drills for the simulation integrity layer.
//!
//! Three subcommands, all of which exit non-zero on failure:
//!
//! * `smoke [--instructions N]` — runs one small workload per paper app
//!   under the `paranoid` tier (cheap invariants every cycle, differential
//!   reference models armed) and asserts (a) no violation fires on healthy
//!   code and (b) the statistics are bit-identical to an `off`-tier run —
//!   checking must never perturb results.
//! * `mutate [--kind K] [--at C] [--instructions N]` — arms a seeded
//!   corruption (`btb-occupancy` or `ras-depth`), asserts the sampled tier
//!   catches it within its detection bound (one deep period plus one
//!   sample period for structural corruptions), that the run degrades to a
//!   typed violation instead of aborting, and that the forensic dump both
//!   loads and replays deterministically.
//! * `replay <dump.json>` — re-runs the run a dump's label names (a
//!   `drill:` workload, or a harness `sim:<app>/<slot>` cell under the
//!   dump's whole configuration) and asserts the same violation kind
//!   fires at the same cycle, progress and branch history; any other
//!   label fails. The replay's own dump goes to a per-process temporary
//!   directory, removed afterwards, so a replay leaves nothing behind.

use std::path::Path;
use std::process::ExitCode;

use twig_bench::runner::AppSetup;
use twig_sim::integrity::dump::StateDump;
use twig_sim::integrity::DEEP_PERIOD;
use twig_sim::{
    IntegrityConfig, IntegrityViolation, MutationKind, MutationSpec, PlainBtb, SimConfig,
    SimStats, Simulator,
};
use twig_workload::AppId;

/// Drill event streams always use input 1 so replay is deterministic.
const DRILL_INPUT: u32 = 1;

fn run_app(
    setup: &AppSetup,
    integrity: IntegrityConfig,
    budget: u64,
    label: &str,
) -> Result<SimStats, Box<IntegrityViolation>> {
    let config = SimConfig {
        integrity,
        ..setup.sim_config
    };
    let mut sim = Simulator::new(&setup.program, config, PlainBtb::new(&config));
    sim.set_integrity_label(label);
    sim.try_run(setup.fresh_events(DRILL_INPUT, budget), budget)
}

/// `smoke`: paranoid + differential must pass on every paper app and must
/// not perturb the simulation's statistics.
fn smoke(budget: u64) -> Result<(), String> {
    for app in AppId::ALL {
        let setup = AppSetup::new(app);
        let label = format!("drill:{}/smoke", app.name());
        let paranoid = run_app(&setup, IntegrityConfig::paranoid(), budget, &label)
            .map_err(|v| format!("{}: paranoid run failed: {v}", app.name()))?;
        let off = run_app(&setup, IntegrityConfig::off(), budget, &label)
            .map_err(|v| format!("{}: off-tier run failed: {v}", app.name()))?;
        if paranoid != off {
            return Err(format!(
                "{}: paranoid checking perturbed the simulation \
                 (paranoid {} cycles vs off {} cycles)",
                app.name(),
                paranoid.cycles,
                off.cycles
            ));
        }
        println!(
            "smoke {:<12} ok: {} cycles, {} retired, differential clean",
            app.name(),
            paranoid.cycles,
            paranoid.retired_instructions
        );
    }
    Ok(())
}

/// `mutate`: a seeded corruption must be caught within the tier's
/// detection bound, degrade to a typed violation, and emit a loadable,
/// replayable dump.
fn mutate(kind: MutationKind, at_cycle: u64, budget: u64) -> Result<(), String> {
    let app = AppId::ALL[0];
    let setup = AppSetup::new(app);
    let integrity = IntegrityConfig {
        mutate: Some(MutationSpec { at_cycle, kind }),
        ..IntegrityConfig::sampled(64)
    };
    let label = format!("drill:{}/mutate", app.name());
    let violation = match run_app(&setup, integrity, budget, &label) {
        Ok(stats) => {
            return Err(format!(
                "seeded {} corruption at cycle {at_cycle} was never detected \
                 (run completed cleanly after {} cycles)",
                kind.as_str(),
                stats.cycles
            ));
        }
        Err(violation) => violation,
    };
    // Structural corruptions (BTB occupancy) surface at the next deep
    // scan; counter corruptions (RAS depth) at the next cheap sweep.
    let period = integrity.level.check_period().unwrap_or(1);
    let bound = match kind {
        MutationKind::BtbOccupancy => DEEP_PERIOD + period,
        MutationKind::RasDepth => period,
    };
    if violation.cycle < at_cycle || violation.cycle > at_cycle + bound {
        return Err(format!(
            "detected at cycle {} — outside [{at_cycle}, {}]: {violation}",
            violation.cycle,
            at_cycle + bound
        ));
    }
    let dump_path = violation
        .dump_path
        .as_ref()
        .ok_or_else(|| format!("violation carried no dump path: {violation}"))?;
    let dump = StateDump::load(dump_path)?;
    println!(
        "mutate ok: {} injected at {at_cycle}, caught at {} ({}), dump {}",
        kind.as_str(),
        violation.cycle,
        violation.kind.as_str(),
        dump_path.display()
    );
    // Close the loop: the dump must replay to the identical violation.
    replay_dump(&dump)?;
    Ok(())
}

/// Re-runs the simulation a dump describes and checks the violation
/// reproduces exactly. A `drill:` dump re-runs this binary's plain-BTB
/// workload with the dump's integrity tier; a `sim:<app>/<slot>` dump
/// re-runs that harness cell under the dump's whole configuration.
///
/// The replay's own dump is written to, read back from, and removed with
/// a per-process temporary directory.
fn replay_dump(dump: &StateDump) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("twig-replay-{}", std::process::id()));
    twig_sim::integrity::dump::set_dump_dir(&dir);
    let outcome = replay_into(dump);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn replay_into(dump: &StateDump) -> Result<(), String> {
    let replay_label = format!("replay:{}", dump.label);
    let outcome = if let Some(cell) = dump.label.strip_prefix("drill:") {
        let app_name = cell.split('/').next().unwrap_or(cell);
        let app = AppId::ALL
            .into_iter()
            .find(|a| a.name() == app_name)
            .ok_or_else(|| format!("unknown app {app_name:?} in label {:?}", dump.label))?;
        let setup = AppSetup::new(app);
        run_app(&setup, dump.config.integrity, dump.instruction_budget, &replay_label)
    } else {
        twig_bench::runner::replay_cell(
            &dump.label,
            dump.config,
            dump.instruction_budget,
            &replay_label,
        )
        .ok_or_else(|| {
            format!(
                "label {:?} names neither a drill run nor a headline cell \
                 (sim:<app>/<slot>)",
                dump.label
            )
        })?
    };
    match outcome {
        Ok(_) => Err(format!(
            "replay of {} completed cleanly; expected {} at cycle {}",
            dump.label, dump.kind, dump.cycle
        )),
        Err(violation) => {
            if violation.kind.as_str() != dump.kind || violation.cycle != dump.cycle {
                return Err(format!(
                    "replay diverged: dump says {} at cycle {}, replay hit {} at cycle {}",
                    dump.kind,
                    dump.cycle,
                    violation.kind.as_str(),
                    violation.cycle
                ));
            }
            // The same violation in another binary or system would still
            // differ in progress and branch history; require those too.
            if let Some(path) = &violation.dump_path {
                let replayed = StateDump::load(path)?;
                if (replayed.retired_instructions, replayed.events_consumed, &replayed.history)
                    != (dump.retired_instructions, dump.events_consumed, &dump.history)
                {
                    return Err(format!(
                        "replay diverged: dump retired {} instructions over {} events, \
                         replay {} over {} (or a different branch history)",
                        dump.retired_instructions,
                        dump.events_consumed,
                        replayed.retired_instructions,
                        replayed.events_consumed
                    ));
                }
            }
            println!(
                "replay ok: {} at cycle {} reproduced deterministically",
                dump.kind, dump.cycle
            );
            Ok(())
        }
    }
}

fn usage() -> String {
    "usage: integrity_drill smoke [--instructions N]\n\
     \x20      integrity_drill mutate [--kind btb-occupancy|ras-depth] [--at CYCLE] \
     [--instructions N]\n\
     \x20      integrity_drill replay <dump.json>"
        .to_string()
}

/// Reports a bad command line on stderr; the caller exits 2.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("integrity_drill: {msg}\n{}", usage());
    ExitCode::from(2)
}

/// A flag's numeric value, if present and well-formed.
fn number(text: Option<String>) -> Option<u64> {
    text?.parse().ok()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let mut budget: u64 = match cmd.as_str() {
        "smoke" => 30_000,
        _ => 100_000,
    };
    let mut kind = MutationKind::BtbOccupancy;
    let mut at_cycle: u64 = 10_000;
    let mut dump_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--instructions" => match number(args.next()) {
                Some(n) => budget = n,
                None => return usage_error("--instructions needs a number"),
            },
            "--at" => match number(args.next()) {
                Some(n) => at_cycle = n,
                None => return usage_error("--at needs a cycle number"),
            },
            "--kind" => {
                let Some(text) = args.next() else {
                    return usage_error("--kind needs a mutation kind");
                };
                kind = match MutationKind::parse(&text) {
                    Some(kind) => kind,
                    None => return usage_error(&format!("unknown mutation kind {text:?}")),
                };
            }
            other if dump_path.is_none() && !other.starts_with('-') => {
                dump_path = Some(other.to_string());
            }
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let result = match (cmd.as_str(), dump_path) {
        ("smoke", _) => smoke(budget),
        ("mutate", _) => mutate(kind, at_cycle, budget),
        ("replay", Some(path)) => {
            StateDump::load(Path::new(&path)).and_then(|dump| replay_dump(&dump))
        }
        ("replay", None) => return usage_error("replay needs a dump path"),
        (other, _) => return usage_error(&format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("integrity_drill {cmd} FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}
