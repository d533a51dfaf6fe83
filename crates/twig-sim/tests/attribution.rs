//! Attribution-layer integration tests: Top-Down slot conservation on
//! every app configuration, reconciliation of the per-branch attribution
//! profile against the aggregate bubble counters (no double-charging),
//! and bit-identity of the headline statistics with attribution on.

use twig_sim::{MissKind, ObsConfig, PlainBtb, SimConfig, SimStats, Simulator};
use twig_workload::{AppId, InputConfig, ProgramGenerator, Walker, WorkloadSpec};

const BUDGET: u64 = 60_000;

/// Runs `app` under the observation spec `obs` (the `TWIG_OBS` grammar).
fn run_app(app: AppId, obs: &str) -> (SimStats, Option<Simulator<'static, PlainBtb>>) {
    let obs = ObsConfig::parse(obs).expect("valid observation spec");
    // Leak the program: each test runs a handful of small apps once, and
    // returning the simulator (for its snapshots) requires 'static data.
    let spec: &'static WorkloadSpec = Box::leak(Box::new(WorkloadSpec::preset(app)));
    let program = Box::leak(Box::new(ProgramGenerator::new(spec.clone()).generate()));
    let config = SimConfig {
        obs,
        ..SimConfig::paper_baseline(spec.backend_extra_cpki)
    };
    let mut sim = Simulator::new(program, config, PlainBtb::new(&config));
    let stats = sim.run(Walker::new(&*program, InputConfig::numbered(0)), BUDGET);
    (stats, Some(sim))
}

#[test]
fn topdown_slots_conserve_on_all_nine_apps() {
    for app in AppId::ALL {
        let spec = WorkloadSpec::preset(app);
        let config = SimConfig::paper_baseline(spec.backend_extra_cpki);
        let program = ProgramGenerator::new(spec).generate();
        let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
        let stats = sim.run(Walker::new(&program, InputConfig::numbered(0)), BUDGET);
        // Every cycle attributes exactly `retire_width` slots (and the
        // paper machine is width-symmetric: fetch_width == retire_width).
        assert_eq!(config.fetch_width, config.retire_width, "{app:?}");
        assert_eq!(
            stats.topdown.total(),
            stats.cycles * u64::from(config.fetch_width),
            "slot conservation violated on {app:?}"
        );
    }
}

#[test]
fn attribution_reconciles_with_aggregate_counters() {
    for app in [AppId::Kafka, AppId::Wordpress, AppId::Verilator] {
        let (stats, sim) = run_app(app, "counters,attr");
        let sim = sim.unwrap();
        let attr = sim.attribution_snapshot().expect("attribution enabled");
        let metrics = sim.metrics_snapshot().expect("counters tier");

        // Every resteer is charged exactly once: event totals match the
        // aggregate resteer counters, cycle totals match the
        // resteer-penalty histogram's sum (same charge site).
        assert_eq!(
            attr.total_events,
            stats.decode_resteers + stats.exec_resteers,
            "event totals diverge on {app:?}"
        );
        let penalty = metrics
            .histogram("frontend.resteer_penalty")
            .expect("penalty histogram");
        assert_eq!(
            attr.total_cycles, penalty.sum,
            "cycle totals diverge on {app:?}"
        );
        assert!(attr.total_events > 0, "no resteers at all on {app:?}");

        // With sample=1 the table is charged on every event.
        assert_eq!(attr.sampled_events, attr.total_events);
        assert_eq!(attr.sampled_cycles, attr.total_cycles);

        // The table never over-counts: per-entry charges (minus their
        // error bounds) stay within the exact total.
        let table_cycles: u64 = attr.entries.iter().map(|e| e.cycles - e.error_cycles).sum();
        assert!(table_cycles <= attr.total_cycles);

        // Kind-level reconciliation: BTB-miss entries vs miss resteers.
        let by_kind = attr.cycles_by_miss_kind();
        let btb_cycles = by_kind[MissKind::BtbMissDecode.index()]
            + by_kind[MissKind::BtbMissExecute.index()];
        if stats.total_btb_misses() == stats.covered_misses.iter().sum::<u64>() {
            assert_eq!(btb_cycles, 0, "no uncovered misses but BTB charges on {app:?}");
        }

        // The mirrored totals agree with the snapshot.
        assert_eq!(metrics.counter("obs.attr.total_cycles"), Some(attr.total_cycles));
        assert_eq!(metrics.counter("obs.attr.total_events"), Some(attr.total_events));
    }
}

#[test]
fn attribution_does_not_perturb_the_simulation() {
    let (off, _) = run_app(AppId::Kafka, "off");
    let (on, sim) = run_app(AppId::Kafka, "attr.k=8,attr.sample=4");
    assert_eq!(off, on, "attribution changed the simulated statistics");
    // Attribution alone (level off) still yields both snapshots.
    let sim = sim.unwrap();
    assert!(sim.attribution_snapshot().is_some());
    assert!(sim.metrics_snapshot().is_some());
    // Sampling keeps exact totals.
    let attr = sim.attribution_snapshot().unwrap();
    assert_eq!(attr.total_events, on.decode_resteers + on.exec_resteers);
    assert!(attr.sampled_events <= attr.total_events.div_ceil(4));
    assert!(attr.entries.len() <= 8, "table respects its capacity");
}

#[test]
fn attribution_export_is_deterministic() {
    let (_, a) = run_app(AppId::Drupal, "counters,attr");
    let (_, b) = run_app(AppId::Drupal, "counters,attr");
    let a = a.unwrap();
    let b = b.unwrap();
    let ja = a.attribution_snapshot().unwrap().to_json().unwrap();
    let jb = b.attribution_snapshot().unwrap().to_json().unwrap();
    assert_eq!(ja, jb);
    assert_eq!(
        a.attribution_folded("drupal/baseline"),
        b.attribution_folded("drupal/baseline")
    );
    let folded = a.attribution_folded("drupal/baseline").unwrap();
    assert!(folded.lines().all(|l| l.starts_with("drupal/baseline;")));
}
