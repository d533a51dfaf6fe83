//! Windowed timeline behaviour: a `window=N` observation item must be
//! bit-identity-preserving on [`SimStats`], per-window deltas must
//! reconcile exactly with end-of-run totals (conservation), and the
//! exported snapshot must be deterministic and batching-independent.

use twig_obs::{timeseries::track_names, ObsConfig};
use twig_sim::{PlainBtb, SimConfig, SimStats, Simulator};
use twig_types::HarnessConfig;
use twig_workload::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};

const BUDGET: u64 = 150_000;

fn run(config: SimConfig) -> (SimStats, Option<twig_obs::TimelineSnapshot>) {
    let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
    let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
    let stats = sim.run(Walker::new(&program, InputConfig::numbered(0)), BUDGET);
    let timeline = sim.timeline_snapshot();
    (stats, timeline)
}

#[test]
fn windowing_preserves_bit_identical_stats() {
    let (off, none) = run(SimConfig::default());
    assert!(none.is_none(), "off tier must not build a timeline");
    for window in [512, 4096, 65_536] {
        let (on, timeline) = run(SimConfig {
            obs: ObsConfig::windowed(window),
            ..SimConfig::default()
        });
        assert_eq!(on, off, "window={window} perturbed simulation statistics");
        let timeline = timeline.expect("windowed run must produce a timeline");
        assert_eq!(timeline.window, window);
        assert!(!timeline.windows.is_empty());
    }
}

#[test]
fn per_window_deltas_reconcile_with_totals() {
    let window = 1000;
    let (stats, timeline) = run(SimConfig {
        obs: ObsConfig::windowed(window),
        ..SimConfig::default()
    });
    let timeline = timeline.unwrap();
    assert_eq!(timeline.dropped_windows, 0);

    let total_of = |name: &str| -> u64 {
        timeline
            .track_values(name)
            .unwrap_or_else(|| panic!("missing track {name}"))
            .iter()
            .sum()
    };
    assert_eq!(total_of(track_names::CYCLES), stats.cycles);
    assert_eq!(
        total_of(track_names::INSTRUCTIONS),
        stats.retired_instructions
    );
    assert_eq!(total_of(track_names::BTB_MISSES), stats.total_btb_misses());
    assert_eq!(
        total_of(track_names::BTB_COVERED),
        stats.total_covered_misses()
    );
    assert_eq!(total_of(track_names::DECODE_RESTEERS), stats.decode_resteers);
    assert_eq!(total_of(track_names::EXEC_RESTEERS), stats.exec_resteers);

    // Window ends are monotone, land on exact window multiples (except the
    // final drain window), and the last end matches the run totals.
    let ends: Vec<_> = timeline.windows.iter().map(|w| w.end_instr).collect();
    assert!(ends.windows(2).all(|w| w[0] <= w[1]));
    for end in &ends[..ends.len() - 1] {
        assert_eq!(end % window, 0, "non-final window end {end} off-grid");
    }
    let last = timeline.windows.last().unwrap();
    assert_eq!(last.end_instr, stats.retired_instructions);
    assert_eq!(last.end_cycle, stats.cycles);
}

#[test]
fn timeline_is_deterministic_and_batching_independent() {
    let windowed = SimConfig {
        obs: ObsConfig::windowed(2048),
        ..SimConfig::default()
    };
    let (_, a) = run(windowed);
    let (_, b) = run(windowed);
    let a = a.unwrap().to_json().unwrap();
    let b = b.unwrap().to_json().unwrap();
    assert_eq!(a, b, "re-run changed the timeline");

    let (_, unbatched) = run(SimConfig {
        batch_stepping: false,
        ..windowed
    });
    assert_eq!(
        a,
        unbatched.unwrap().to_json().unwrap(),
        "idle-cycle batching changed window attribution"
    );
}

#[test]
fn derived_metrics_and_phases_are_emitted() {
    let (stats, timeline) = run(SimConfig {
        obs: ObsConfig::windowed(4096),
        ..SimConfig::default()
    });
    let timeline = timeline.unwrap();
    assert_eq!(timeline.derived.len(), timeline.windows.len());
    assert!(!timeline.phases.is_empty());

    // Whole-run IPC recomputed from windowed cycles/instructions matches
    // the scalar statistic (both integer-derived from the same counters).
    let cycles: u64 = timeline
        .track_values(track_names::CYCLES)
        .unwrap()
        .iter()
        .sum();
    let instrs: u64 = timeline
        .track_values(track_names::INSTRUCTIONS)
        .unwrap()
        .iter()
        .sum();
    let ipc = instrs as f64 / cycles as f64;
    assert!((ipc - stats.ipc()).abs() < 1e-9);

    // Phase segments tile the window axis without gaps or overlap.
    let mut next = 0;
    for phase in &timeline.phases {
        assert_eq!(phase.start_window, next);
        assert!(phase.end_window >= phase.start_window);
        next = phase.end_window + 1;
    }
    assert_eq!(next, timeline.windows.len() as u64);
}

#[test]
fn snapshot_round_trips_through_json() {
    let (_, timeline) = run(SimConfig {
        obs: ObsConfig::windowed(8192),
        ..SimConfig::default()
    });
    let timeline = timeline.unwrap();
    let json = timeline.to_json().unwrap();
    let back = twig_obs::TimelineSnapshot::from_json(&json).expect("round trip");
    assert_eq!(back.to_json().unwrap(), json);
}

#[test]
fn harness_knob_flows_into_sim_config() {
    let harness = HarnessConfig::from_lookup(|var| match var {
        "TWIG_OBS" => Some("window=4096".to_string()),
        _ => None,
    })
    .expect("valid harness config");
    let obs = ObsConfig::from_harness(&harness).expect("valid knob");
    assert_eq!(obs.window, Some(4096));
    let (_, timeline) = run(SimConfig {
        obs,
        ..SimConfig::default()
    });
    assert!(timeline.is_some());
}
