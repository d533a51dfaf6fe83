//! Microbenchmarks for the hot loop: the monomorphized `Simulator::run`
//! reference row, flat-storage BTB lookup/insert under realistic miss
//! traffic, batched (idle-skipping) vs per-cycle stepping, and the cost
//! of the simulation integrity and observability tiers (`off` must be
//! free; the richer tiers priced).

use twig_criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use twig_rand::rngs::StdRng;
use twig_rand::{RngExt, SeedableRng};
use twig_sim::{Btb, BtbGeometry, IntegrityConfig, ObsConfig, PlainBtb, SimConfig, Simulator};
use twig_types::{Addr, BranchKind};
use twig_workload::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};

const INSTRS: u64 = 100_000;

/// The reference row for a plain run: the event loop sees the concrete
/// `PlainBtb` type. The integrity and observability `off` rows below
/// should be within noise of it.
fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_dispatch");
    group.sample_size(10);
    let program = ProgramGenerator::new(WorkloadSpec::preset(twig_workload::AppId::Kafka))
        .generate();
    let events: Vec<_> =
        Walker::new(&program, InputConfig::numbered(0)).run_instructions(INSTRS);
    let config = SimConfig::default();
    group.throughput(Throughput::Elements(INSTRS));

    group.bench_function("monomorphized", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
            sim.run(events.iter().copied(), INSTRS).cycles
        });
    });

    group.finish();
}

fn bench_btb_flat_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("btb_storage");
    let mut rng = StdRng::seed_from_u64(29);
    let addrs: Vec<Addr> = (0..8192)
        .map(|_| Addr::new(0x40_0000 + rng.random_range(0..200_000u64) * 2))
        .collect();
    group.throughput(Throughput::Elements(addrs.len() as u64));
    for &(entries, ways) in &[(8192usize, 4usize), (8192, 128)] {
        group.bench_with_input(
            BenchmarkId::new("flat", format!("{entries}x{ways}")),
            &(entries, ways),
            |b, &(entries, ways)| {
                let mut btb = Btb::new(BtbGeometry::new(entries, ways));
                b.iter(|| {
                    let mut hits = 0u32;
                    for &pc in &addrs {
                        match btb.lookup(pc) {
                            Some(_) => hits += 1,
                            None => {
                                btb.insert(pc, Addr::new(1), BranchKind::Conditional);
                            }
                        }
                    }
                    hits
                });
            },
        );
    }
    group.finish();
}

/// Before/after for the idle-cycle skipping rewrite: `per_cycle` steps
/// every simulated cycle (the seed's loop, `batch_stepping: false`);
/// `batched` consults the activity mask and leaps over quiescent spans
/// in closed form. The win scales with how backend-bound the workload
/// is — retire-limited stretches are exactly the cycles the mask proves
/// skippable — so both a frontend-bound app (Kafka) and a more
/// backend-bound one (Verilator) are priced.
///
/// Before timing anything, this bench asserts the soundness contract:
/// batching must produce bit-identical statistics to per-cycle stepping.
fn bench_idle_skipping(c: &mut Criterion) {
    let mut group = c.benchmark_group("idle_skipping");
    group.sample_size(10);
    group.throughput(Throughput::Elements(INSTRS));

    for app in [twig_workload::AppId::Kafka, twig_workload::AppId::Verilator] {
        let program = ProgramGenerator::new(WorkloadSpec::preset(app)).generate();
        let events: Vec<_> =
            Walker::new(&program, InputConfig::numbered(0)).run_instructions(INSTRS);
        let run = |batch: bool| {
            let config = SimConfig {
                batch_stepping: batch,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
            sim.run(events.iter().copied(), INSTRS)
        };

        assert_eq!(
            run(true),
            run(false),
            "batched stepping perturbed the simulation on {}",
            app.name(),
        );

        for (name, batch) in [("per_cycle", false), ("batched", true)] {
            group.bench_with_input(
                BenchmarkId::new(name, app.name()),
                &batch,
                |b, &batch| {
                    b.iter(|| run(batch).cycles);
                },
            );
        }
    }
    group.finish();
}

/// Prices the integrity tiers against each other on the same event
/// stream. The `off` tier leaves the hot loop paying one never-taken
/// branch per cycle, so its row should be indistinguishable from the
/// `monomorphized` dispatch row above; `sampled=64` buys continuous
/// invariant coverage for a bounded surcharge; `paranoid` is the
/// debugging tier and is expected to be several times slower.
///
/// Before timing anything, this bench asserts the zero-perturbation
/// contract: every tier must produce bit-identical statistics — checking
/// may cost time but must never change the simulation.
fn bench_integrity_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("integrity_overhead");
    group.sample_size(10);
    let program = ProgramGenerator::new(WorkloadSpec::preset(twig_workload::AppId::Kafka))
        .generate();
    let events: Vec<_> =
        Walker::new(&program, InputConfig::numbered(0)).run_instructions(INSTRS);
    group.throughput(Throughput::Elements(INSTRS));

    let tiers: [(&str, IntegrityConfig); 4] = [
        ("off", IntegrityConfig::off()),
        ("sampled64", IntegrityConfig::sampled(64)),
        ("sampled1024", IntegrityConfig::sampled(1024)),
        ("paranoid", IntegrityConfig::paranoid()),
    ];
    let run = |integrity: IntegrityConfig| {
        let config = SimConfig {
            integrity,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
        sim.run(events.iter().copied(), INSTRS)
    };

    let reference = run(IntegrityConfig::off());
    for &(name, integrity) in &tiers {
        assert_eq!(
            run(integrity),
            reference,
            "integrity tier {name} perturbed the simulation",
        );
    }

    for &(name, integrity) in &tiers {
        group.bench_function(name, |b| {
            b.iter(|| run(integrity).cycles);
        });
    }
    group.finish();
}

/// Prices the observability tiers on the same event stream. The `off`
/// tier leaves the hot loop paying one never-taken branch per cycle
/// (the `obs` state is `None`), so its row should be within noise of the
/// `monomorphized` dispatch row above; `counters` records through
/// preallocated integer handles; `trace`/`trace=64` add the sampled span
/// ring on top; `attr` adds the per-branch cycle attribution table
/// (bounded top-K, charged once per resteer) to the counters tier;
/// `window4096`/`window65536` price the windowed timeline alone (one
/// retired-instruction compare per retiring cycle, tier still `off`).
///
/// Before timing anything, this bench asserts the zero-perturbation
/// contract: every tier must produce bit-identical statistics —
/// recording may cost time but must never change the simulation.
fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    let program = ProgramGenerator::new(WorkloadSpec::preset(twig_workload::AppId::Kafka))
        .generate();
    let events: Vec<_> =
        Walker::new(&program, InputConfig::numbered(0)).run_instructions(INSTRS);
    group.throughput(Throughput::Elements(INSTRS));

    let tiers: Vec<(&str, ObsConfig)> = [
        ("off", "off"),
        ("counters", "counters"),
        ("trace", "trace"),
        ("trace64", "trace=64"),
        ("attr", "counters,attr"),
        ("window4096", "window=4096"),
        ("window65536", "window=65536"),
    ]
    .into_iter()
    .map(|(name, spec)| (name, ObsConfig::parse(spec).expect("valid observation spec")))
    .collect();
    let run = |obs: ObsConfig| {
        let config = SimConfig {
            obs,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
        sim.run(events.iter().copied(), INSTRS)
    };

    let reference = run(ObsConfig::off());
    for &(name, obs) in &tiers {
        assert_eq!(
            run(obs),
            reference,
            "observability tier {name} perturbed the simulation",
        );
    }

    for &(name, obs) in &tiers {
        group.bench_function(name, |b| {
            b.iter(|| run(obs).cycles);
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dispatch,
    bench_btb_flat_storage,
    bench_idle_skipping,
    bench_integrity_overhead,
    bench_obs_overhead
);
criterion_main!(benches);
