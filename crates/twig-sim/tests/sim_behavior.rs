//! Behavioural tests of the frontend simulator: the relationships the
//! paper's §2 characterization relies on must hold on synthetic workloads.

use twig_sim::{
    BtbGeometry, DirectionPredictorKind, HistoryEntry, IntegrityConfig, MissObserver, ObsConfig,
    PlainBtb, SimConfig, SimStats, Simulator,
};
use twig_types::{BlockId, BranchKind};
use twig_workload::{AppId, InputConfig, ProgramGenerator, Walker, WorkloadSpec};

const BUDGET: u64 = 200_000;

fn run_with(config: SimConfig, spec: &WorkloadSpec) -> SimStats {
    let program = ProgramGenerator::new(spec.clone()).generate();
    let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
    sim.run(Walker::new(&program, InputConfig::numbered(0)), BUDGET)
}

fn tiny() -> WorkloadSpec {
    WorkloadSpec::tiny_test()
}

#[test]
fn simulation_terminates_and_makes_progress() {
    let stats = run_with(SimConfig::default(), &tiny());
    assert!(stats.retired_instructions >= BUDGET);
    assert!(stats.cycles > 0);
    let ipc = stats.ipc();
    assert!(
        (0.05..=6.0).contains(&ipc),
        "IPC {ipc} outside plausible range"
    );
}

#[test]
fn deterministic_runs() {
    let a = run_with(SimConfig::default(), &tiny());
    let b = run_with(SimConfig::default(), &tiny());
    assert_eq!(a, b);
}

#[test]
fn ideal_btb_outperforms_baseline() {
    let base = run_with(SimConfig::default(), &tiny());
    let ideal = run_with(
        SimConfig {
            ideal_btb: true,
            ..SimConfig::default()
        },
        &tiny(),
    );
    assert!(
        ideal.ipc() > base.ipc(),
        "ideal BTB {} must beat baseline {}",
        ideal.ipc(),
        base.ipc()
    );
    assert_eq!(ideal.total_btb_misses(), 0);
    assert_eq!(ideal.decode_resteers, 0);
}

#[test]
fn ideal_icache_outperforms_baseline() {
    let base = run_with(SimConfig::default(), &tiny());
    let ideal = run_with(
        SimConfig {
            ideal_icache: true,
            ..SimConfig::default()
        },
        &tiny(),
    );
    assert!(ideal.ipc() >= base.ipc());
    assert_eq!(ideal.icache_demand_misses, 0);
}

#[test]
fn bigger_btb_misses_less() {
    // The tiny program has only a few hundred branch sites, so the small
    // configuration must be genuinely tiny to create capacity pressure.
    let small = run_with(
        SimConfig::default().with_btb_entries(64),
        &tiny(),
    );
    let big = run_with(
        SimConfig::default().with_btb_entries(32768),
        &tiny(),
    );
    assert!(
        small.total_btb_misses() > big.total_btb_misses(),
        "512-entry misses {} vs 32K-entry misses {}",
        small.total_btb_misses(),
        big.total_btb_misses()
    );
    assert!(big.ipc() >= small.ipc());
}

#[test]
fn btb_misses_cause_decode_resteers() {
    let stats = run_with(SimConfig::default().with_btb_entries(256), &tiny());
    assert!(stats.direct_btb_misses() > 0);
    assert!(stats.decode_resteers > 0);
    // Every decode resteer stems from a BTB miss of a direct branch or a
    // return; misses of indirect branches resteer at execute.
    let direct_and_ret = stats.direct_btb_misses()
        + stats.btb_misses[BranchKind::Return.index()];
    assert!(stats.decode_resteers <= direct_and_ret);
}

#[test]
fn accesses_dominated_by_conditionals() {
    // Fig. 7: conditional branches dominate BTB accesses.
    let stats = run_with(SimConfig::default(), &tiny());
    let cond = stats.btb_accesses[BranchKind::Conditional.index()];
    for kind in BranchKind::ALL {
        if kind != BranchKind::Conditional {
            assert!(cond >= stats.btb_accesses[kind.index()], "{kind}");
        }
    }
}

#[test]
fn topdown_slots_account_every_cycle() {
    let config = SimConfig::default();
    let stats = run_with(config, &tiny());
    assert_eq!(
        stats.topdown.total(),
        stats.cycles * u64::from(config.retire_width),
        "slot attribution must cover every issue slot"
    );
    assert!(stats.topdown.frontend_bound > 0);
    assert!(stats.topdown.backend_bound > 0);
}

#[test]
fn backend_factor_shifts_topdown_attribution() {
    let light = run_with(
        SimConfig {
            backend_extra_cpki: 10.0,
            ..SimConfig::default()
        },
        &tiny(),
    );
    // The backend ceiling must drop below the frontend-bound IPC (~0.6)
    // to actually bind: 3000 extra cycles/ki caps IPC near 0.33.
    let heavy = run_with(
        SimConfig {
            backend_extra_cpki: 3000.0,
            ..SimConfig::default()
        },
        &tiny(),
    );
    assert!(heavy.topdown.backend_bound > light.topdown.backend_bound);
    assert!(heavy.ipc() < light.ipc());
}

#[test]
fn oracle_direction_removes_direction_mispredicts() {
    let stats = run_with(
        SimConfig {
            direction: DirectionPredictorKind::Oracle,
            ..SimConfig::default()
        },
        &tiny(),
    );
    assert_eq!(stats.direction_mispredicts, 0);
}

/// Best achievable direction accuracy on the replayed trace: always
/// predict each conditional branch's majority outcome. Synthetic
/// conditionals are memoryless draws, so this is the Bayes bound.
fn bayes_direction_bound(spec: &WorkloadSpec) -> f64 {
    let program = ProgramGenerator::new(spec.clone()).generate();
    let events = Walker::new(&program, InputConfig::numbered(0)).run_instructions(BUDGET);
    let mut counts: std::collections::HashMap<u32, (u64, u64)> = std::collections::HashMap::new();
    for ev in &events {
        if let twig_workload::Terminator::Conditional { .. } = program.block(ev.block).term {
            let e = counts.entry(ev.block.raw()).or_default();
            if ev.taken {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
    }
    let (best, total) = counts
        .values()
        .fold((0u64, 0u64), |(b, t), &(tk, nt)| (b + tk.max(nt), t + tk + nt));
    best as f64 / total.max(1) as f64
}

#[test]
fn tage_beats_small_gshare() {
    let tage = run_with(SimConfig::default(), &tiny());
    let gshare = run_with(
        SimConfig {
            direction: DirectionPredictorKind::Gshare { table_bits: 8 },
            ..SimConfig::default()
        },
        &tiny(),
    );
    // Accuracy is bounded by the per-branch bias; TAGE should track that
    // bound closely (it reaches ~93% of it on this trace) and not trail a
    // small gshare. Comparing against the computed bound keeps the test
    // meaningful regardless of which PRNG stream shaped the workload.
    let bound = bayes_direction_bound(&tiny());
    assert!(tage.direction_accuracy() >= gshare.direction_accuracy() * 0.97);
    assert!(
        tage.direction_accuracy() > bound * 0.9,
        "TAGE accuracy {:.4} below 90% of Bayes bound {:.4}",
        tage.direction_accuracy(),
        bound
    );
}

#[test]
fn deeper_ftq_does_not_hurt() {
    let shallow = run_with(
        SimConfig {
            ftq_entries: 2,
            ..SimConfig::default()
        },
        &tiny(),
    );
    let deep = run_with(
        SimConfig {
            ftq_entries: 48,
            ..SimConfig::default()
        },
        &tiny(),
    );
    assert!(
        deep.ipc() >= shallow.ipc() * 0.98,
        "deep FTQ {} vs shallow {}",
        deep.ipc(),
        shallow.ipc()
    );
}

#[test]
fn fdip_prefetches_lines() {
    let stats = run_with(SimConfig::default(), &tiny());
    assert!(stats.icache_prefetches > 0);
    assert!(stats.icache_demand_accesses > 0);
}

struct CountingObserver {
    misses: u64,
    histories_ok: bool,
    last_block: Option<BlockId>,
}

impl MissObserver for CountingObserver {
    fn on_btb_miss(
        &mut self,
        block: BlockId,
        _kind: BranchKind,
        history: &[HistoryEntry],
        _cycle: u64,
    ) {
        self.misses += 1;
        self.last_block = Some(block);
        if history.is_empty() || history.len() > twig_sim::LBR_DEPTH {
            self.histories_ok = false;
        }
        // History must be chronologically ordered and end with the miss.
        if history.windows(2).any(|w| w[0].cycle > w[1].cycle) {
            self.histories_ok = false;
        }
        if history.last().map(|h| h.block) != Some(block) {
            self.histories_ok = false;
        }
    }
}

#[test]
fn observer_sees_every_real_miss_with_lbr_history() {
    let spec = tiny();
    let program = ProgramGenerator::new(spec).generate();
    let config = SimConfig::default().with_btb_entries(512);
    let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
    let mut obs = CountingObserver {
        misses: 0,
        histories_ok: true,
        last_block: None,
    };
    let stats = sim.run_observed(
        Walker::new(&program, InputConfig::numbered(0)),
        BUDGET,
        &mut obs,
    );
    assert_eq!(obs.misses, stats.total_btb_misses());
    assert!(obs.histories_ok, "malformed LBR history delivered");
    assert!(obs.last_block.is_some());
}

#[test]
fn event_stream_end_drains_pipeline() {
    // A finite trace must terminate the run cleanly below the budget.
    let program = ProgramGenerator::new(tiny()).generate();
    let config = SimConfig::default();
    let events: Vec<_> = Walker::new(&program, InputConfig::numbered(0))
        .take(1000)
        .collect();
    let expected: u64 = events
        .iter()
        .map(|e| u64::from(program.block(e.block).num_instrs))
        .sum();
    let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
    let stats = sim.run(events, u64::MAX);
    assert_eq!(stats.retired_instructions, expected);
}

#[test]
fn associativity_reduces_conflict_misses() {
    let direct_mapped = run_with(
        SimConfig {
            btb: BtbGeometry::new(2048, 1),
            ..SimConfig::default()
        },
        &tiny(),
    );
    let assoc = run_with(
        SimConfig {
            btb: BtbGeometry::new(2048, 8),
            ..SimConfig::default()
        },
        &tiny(),
    );
    assert!(
        assoc.total_btb_misses() <= direct_mapped.total_btb_misses(),
        "8-way {} vs 1-way {}",
        assoc.total_btb_misses(),
        direct_mapped.total_btb_misses()
    );
}

#[test]
fn wrong_path_prefetch_changes_icache_traffic_only_when_enabled() {
    let base = run_with(SimConfig::default(), &tiny());
    let wp = run_with(
        SimConfig {
            wrong_path_prefetch: true,
            ..SimConfig::default()
        },
        &tiny(),
    );
    assert!(
        wp.icache_prefetches > base.icache_prefetches,
        "wrong-path mode must issue extra prefetches: {} vs {}",
        wp.icache_prefetches,
        base.icache_prefetches
    );
    // Same committed work either way.
    assert_eq!(wp.retired_instructions, base.retired_instructions);
    assert_eq!(wp.total_btb_misses(), base.total_btb_misses());
    // IPC moves only modestly (pollution vs accidental warmth).
    let ratio = wp.ipc() / base.ipc();
    assert!((0.7..=1.4).contains(&ratio), "IPC ratio {ratio}");
}

/// Batched stepping and the integrity tiers may cost or save time but
/// must never change the simulation: each row's full `SimStats`, and its
/// timeline when one is recorded, equal the batched, unchecked run's.
/// Integrity sampling forces per-cycle stepping, so its rows double as
/// per-cycle oracles for the batched default. The cases cover a
/// frontend-bound app (kafka), a backend-bound one (verilator), the app
/// owing the most backend-stall cycles per retired instruction
/// (finagle-http, the leap's closed-form deficit drain), a windowed
/// timeline (`on_retire` around leapt spans), a binary carrying software
/// prefetch ops (which retire ahead of each block's own instructions),
/// and the two predecoding prefetchers (their line index).
#[test]
fn batching_and_integrity_tiers_preserve_bit_identical_stats() {
    use twig_prefetchers::{Confluence, Shotgun};
    use twig_sim::BtbSystem;

    const INSTRS: u64 = 100_000;
    #[derive(Clone, Copy, Debug)]
    enum System {
        Plain,
        /// The plain BTB over a binary with a prefetch op on every third
        /// block.
        PlainWithOps,
        Shotgun,
        Confluence,
    }
    // Pin both tiers: `SimConfig::default()` reads `TWIG_INTEGRITY` and
    // `TWIG_OBS`, either of which would silently turn batching off.
    let reference = SimConfig {
        integrity: IntegrityConfig::off(),
        obs: ObsConfig::off(),
        ..SimConfig::default()
    };
    let per_cycle = |base: SimConfig| SimConfig {
        batch_stepping: false,
        ..base
    };
    let checked = |integrity| SimConfig {
        integrity,
        ..reference
    };
    let windowed = SimConfig {
        obs: ObsConfig::windowed(4096),
        ..reference
    };
    let finagle = AppId::FinagleHttp;
    assert!(
        AppId::ALL
            .iter()
            .all(|&app| WorkloadSpec::preset(app).backend_extra_cpki
                <= WorkloadSpec::preset(finagle).backend_extra_cpki),
        "finagle-http no longer owes the most backend stalls"
    );
    /// An app and system, the configuration every row must reproduce,
    /// and the named rows.
    type Case<'a> = (AppId, System, SimConfig, &'a [(&'a str, SimConfig)]);
    let cases: [Case; 7] = [
        (
            AppId::Kafka,
            System::Plain,
            reference,
            &[
                ("per-cycle stepping", per_cycle(reference)),
                (
                    "integrity sampled(64)",
                    checked(IntegrityConfig::sampled(64)),
                ),
                (
                    "integrity sampled(1024)",
                    checked(IntegrityConfig::sampled(1024)),
                ),
                ("integrity paranoid", checked(IntegrityConfig::paranoid())),
            ],
        ),
        (
            AppId::Verilator,
            System::Plain,
            reference,
            &[("per-cycle stepping", per_cycle(reference))],
        ),
        (
            finagle,
            System::Plain,
            reference,
            &[("per-cycle stepping", per_cycle(reference))],
        ),
        (
            AppId::Kafka,
            System::Plain,
            windowed,
            &[("per-cycle stepping, window=4096", per_cycle(windowed))],
        ),
        (
            AppId::Kafka,
            System::PlainWithOps,
            reference,
            &[("per-cycle stepping", per_cycle(reference))],
        ),
        (
            AppId::Tomcat,
            System::Shotgun,
            reference,
            &[("per-cycle stepping", per_cycle(reference))],
        ),
        (
            AppId::Tomcat,
            System::Confluence,
            reference,
            &[("per-cycle stepping", per_cycle(reference))],
        ),
    ];
    for (app, system, base, rows) in cases {
        let spec = WorkloadSpec::preset(app);
        let generator = ProgramGenerator::new(spec.clone());
        let mut program = generator.generate();
        if let System::PlainWithOps = system {
            let ops = (0..program.num_blocks() as u32)
                .step_by(3)
                .map(|i| {
                    let op = twig_types::PrefetchOp::BrPrefetch {
                        branch_block: BlockId::new(i / 2),
                    };
                    (BlockId::new(i), op)
                })
                .collect();
            program.set_prefetch_ops(ops);
            twig_workload::layout::assign_layout(&mut program, &generator.layout_options());
        }
        fn run<B: BtbSystem>(
            program: &twig_workload::Program,
            config: SimConfig,
            system: B,
        ) -> (SimStats, Option<twig_obs::TimelineSnapshot>) {
            let mut sim = Simulator::new(program, config, system);
            let stats = sim.run(Walker::new(program, InputConfig::numbered(0)), INSTRS);
            (stats, sim.timeline_snapshot())
        }
        let run = |config: SimConfig| {
            let config = SimConfig {
                backend_extra_cpki: spec.backend_extra_cpki,
                ..config
            };
            match system {
                System::Plain | System::PlainWithOps => {
                    run(&program, config, PlainBtb::new(&config))
                }
                System::Shotgun => run(&program, config, Shotgun::new(&config)),
                System::Confluence => run(&program, config, Confluence::new(&config)),
            }
        };
        let expected = run(base);
        if let System::PlainWithOps = system {
            assert!(expected.0.retired_prefetch_ops > 0, "no prefetch op retired");
        }
        assert_eq!(
            expected.1.is_some(),
            base.obs.window.is_some(),
            "a windowed run records a timeline"
        );
        for &(name, config) in rows {
            assert_eq!(
                run(config),
                expected,
                "{name} perturbed the {system:?} simulation on {}",
                app.name()
            );
        }
    }
}
