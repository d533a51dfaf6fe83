//! `headline`: the Fig. 16 matrix that `experiments fig16` computes.
//!
//! Nine apps, each profiled on input #0 and tested on input #1 with
//! in-memory traces; seven cells per app (baseline, ideal, btb32k,
//! shotgun, confluence, twig, twig-sw), all spread over
//! `twig_sched::parallel_map` in the order `experiments fig16` submits
//! them. The inputs are fixed by the figure's definition, so no seed
//! changes them: every seed runs the same work, and the spread between
//! seeds is the host's alone.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use twig::{baseline_relative_coverage, OptimizedBinary, TwigConfig, TwigOptimizer};
use twig_prefetchers::{Confluence, Shotgun};
use twig_sim::{speedup_percent, BtbSystem, PlainBtb, SimConfig, SimStats, Simulator};
use twig_workload::{
    AppId, BlockEvent, InputConfig, MemSource, Program, ProgramGenerator, Walker, WorkloadSpec,
};

use crate::spans::{Guard, Tracer};
use crate::{traced_map, Metrics, Pass, Workload};

/// Instructions per trace (profiling and test), as `--instructions`.
pub const BUDGET: u64 = 500_000;
/// Paper Fig. 16: Twig's mean speedup over FDIP across the nine apps, %.
pub const PAPER_SPEEDUP_PCT: f64 = 20.9;
/// Paper Fig. 17: Twig's mean BTB-miss coverage, %.
pub const PAPER_COVERAGE_PCT: f64 = 65.4;

/// The cells of one app, in `twig_bench::runner::HeadlineRow` order.
const SYSTEMS: [&str; 7] = [
    "baseline",
    "ideal",
    "btb32k",
    "shotgun",
    "confluence",
    "twig",
    "twig-sw",
];

struct App {
    id: AppId,
    generator: ProgramGenerator,
    program: Program,
    config: SimConfig,
}

/// One app's profile → analyze → rewrite output plus its test trace.
struct Prepared {
    test: Arc<[BlockEvent]>,
    twig: OptimizedBinary,
    twig_sw: OptimizedBinary,
    profile_instr: u64,
}

#[derive(Default)]
pub struct Headline {
    /// Apps in `AppId::ALL` order.
    apps: Vec<App>,
    /// Cells of the first pass, indexed like `AppId::ALL` × `SYSTEMS`.
    first: Option<Vec<Option<SimStats>>>,
}

/// Generates one app's program, inside a `generate` span.
pub fn generate(tracer: &Tracer, spec: &WorkloadSpec, cell: &str) -> (ProgramGenerator, Program) {
    let generator = ProgramGenerator::new(spec.clone());
    let _span = tracer.enter("twig-workload", "generate", cell);
    let program = generator.generate();
    (generator, program)
}

/// Walks `instructions` of `input` into memory, inside a `walk` span.
pub fn walk(
    tracer: &Tracer,
    program: &Program,
    input: InputConfig,
    instructions: u64,
    cell: &str,
) -> Arc<[BlockEvent]> {
    let mut span = tracer.enter("twig-workload", "walk", cell);
    let events: Arc<[BlockEvent]> = Walker::new(program, input)
        .run_instructions(instructions)
        .into();
    span.work(events.len() as u64);
    events
}

/// Runs one simulation of a concrete BTB system and records its retired
/// instructions as the work of `span`, the span opened for the call.
pub fn simulate<B: BtbSystem>(
    mut span: Guard<'_>,
    program: &Program,
    config: SimConfig,
    system: B,
    events: impl IntoIterator<Item = BlockEvent>,
    instructions: u64,
) -> SimStats {
    let stats = Simulator::new(program, config, system).run(events, instructions);
    span.work(stats.retired_instructions);
    stats
}

fn prepare(tracer: &Tracer, app: &App) -> Prepared {
    let cell = app.id.name();
    let optimizer = TwigOptimizer::new(TwigConfig::default());
    let sw_only = TwigOptimizer::new(TwigConfig::software_prefetch_only());
    let train = walk(tracer, &app.program, InputConfig::numbered(0), BUDGET, cell);
    let test = walk(tracer, &app.program, InputConfig::numbered(1), BUDGET, cell);
    let (profile, stats) = {
        let mut span = tracer.enter("twig-profile", "collect_profile", cell);
        let out = optimizer.collect_profile_and_stats_from_source(
            &app.program,
            app.config,
            &mut MemSource::new(train),
            BUDGET,
        );
        span.work(out.0.num_samples() as u64);
        out
    };
    let plans = {
        let mut span = tracer.enter("twig", "analyze", cell);
        let plans = optimizer.analyze_for(&profile, &app.program);
        span.work(plans.len() as u64);
        plans
    };
    let layout = app.generator.layout_options();
    let rewrite = |opt: &TwigOptimizer| {
        let mut span = tracer.enter("twig", "rewrite", cell);
        let binary = opt.rewrite_of(&app.program, &layout, &plans);
        span.work(binary.rewrite.brprefetch_ops);
        binary
    };
    let twig = rewrite(&optimizer);
    let twig_sw = rewrite(&sw_only);
    Prepared {
        test,
        twig,
        twig_sw,
        profile_instr: stats.retired_instructions,
    }
}

fn run_cell(tracer: &Tracer, app: &App, p: &Prepared, system: usize) -> SimStats {
    let name = SYSTEMS[system];
    let cell = format!("{}/{name}", app.id.name());
    let config = app.config;
    let events = MemSource::new(Arc::clone(&p.test));
    // The five plain-BTB cells differ only in program and configuration.
    let (program, cfg) = match name {
        "shotgun" => {
            let span = tracer.enter("twig-prefetchers", name, &cell);
            let system = Shotgun::new(&config);
            return simulate(span, &app.program, config, system, events, BUDGET);
        }
        "confluence" => {
            let span = tracer.enter("twig-prefetchers", name, &cell);
            let system = Confluence::new(&config);
            return simulate(span, &app.program, config, system, events, BUDGET);
        }
        "baseline" => (&app.program, config),
        "ideal" => (
            &app.program,
            SimConfig {
                ideal_btb: true,
                ..config
            },
        ),
        "btb32k" => (&app.program, config.with_btb_entries(32 * 1024)),
        "twig" => (&p.twig.program, config),
        _ => (&p.twig_sw.program, config),
    };
    let span = tracer.enter("twig-sim", name, &cell);
    simulate(span, program, cfg, PlainBtb::new(&cfg), events, BUDGET)
}

/// Mean of `f(baseline, system cell)` over the apps whose cells exist.
fn mean_over(
    cells: &[Option<SimStats>],
    system: usize,
    f: impl Fn(&SimStats, &SimStats) -> f64,
) -> f64 {
    let values: Vec<f64> = cells
        .chunks(SYSTEMS.len())
        .filter_map(|row| Some(f(row[0].as_ref()?, row[system].as_ref()?)))
        .collect();
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Digest of a list of optional results.
pub fn digest<T: std::fmt::Debug>(items: &[Option<T>]) -> u64 {
    let mut h = DefaultHasher::new();
    for item in items {
        format!("{item:?}").hash(&mut h);
    }
    h.finish()
}

impl Workload for Headline {
    fn setup(&mut self, tracer: &Tracer) {
        self.apps.clear();
        self.apps = AppId::ALL
            .iter()
            .map(|&id| {
                let spec = WorkloadSpec::preset(id);
                let (generator, program) = generate(tracer, &spec, id.name());
                App {
                    id,
                    generator,
                    program,
                    config: SimConfig::paper_baseline(spec.backend_extra_cpki),
                }
            })
            .collect();
    }

    fn pass(&mut self, tracer: &Tracer) -> Pass {
        let apps = &self.apps;
        let prepared: Vec<Option<Prepared>> =
            traced_map(tracer, "prepare", apps.iter().collect(), |app| {
                catch_unwind(AssertUnwindSafe(|| prepare(tracer, app))).ok()
            });
        let tasks: Vec<(usize, usize)> = (0..apps.len())
            .flat_map(|a| (0..SYSTEMS.len()).map(move |s| (a, s)))
            .collect();
        let cells: Vec<Option<SimStats>> =
            traced_map(tracer, "cells", tasks, |(a, s)| {
                let p = prepared[a].as_ref()?;
                catch_unwind(AssertUnwindSafe(|| run_cell(tracer, &apps[a], p, s))).ok()
            });
        let failed = prepared.iter().filter(|p| p.is_none()).count()
            + cells.iter().filter(|c| c.is_none()).count();
        let sim_instr = cells
            .iter()
            .flatten()
            .map(|s| s.retired_instructions)
            .sum::<u64>()
            + prepared
                .iter()
                .flatten()
                .map(|p| p.profile_instr)
                .sum::<u64>();
        // Events replayed by the five plain-BTB (twig-sim) cells per app.
        let sim_events: usize = prepared.iter().flatten().map(|p| 5 * p.test.len()).sum();

        let mut counts = Metrics::default();
        counts.set("twig-sim.events", sim_events as f64);
        counts.set(
            "twig-sim.baseline.btb_mpki",
            mean_over(&cells, 0, |b, _| b.btb_mpki()),
        );
        let twig = SYSTEMS
            .iter()
            .position(|s| *s == "twig")
            .expect("twig cell");
        let speedup = mean_over(&cells, twig, speedup_percent);
        let coverage = mean_over(&cells, twig, baseline_relative_coverage);
        counts.set("twig-sim.twig.coverage", coverage);
        counts.set(
            "twig-sim.twig.accuracy",
            mean_over(&cells, twig, |_, t| t.prefetch_accuracy()),
        );
        counts.set(
            "twig-sim.paper_gap_speedup_pp",
            (speedup - PAPER_SPEEDUP_PCT).abs(),
        );
        counts.set(
            "twig-sim.paper_gap_coverage_pp",
            (coverage * 100.0 - PAPER_COVERAGE_PCT).abs(),
        );

        let pass = Pass {
            sim_instr,
            digest: digest(&cells),
            attempted: (prepared.len() + cells.len()) as u64,
            failed: failed as u64,
            counts,
        };
        self.first.get_or_insert(cells);
        pass
    }

    fn check(&mut self) -> Vec<(String, bool)> {
        let ctx = twig_bench::ExpContext {
            instructions: BUDGET,
            ..Default::default()
        };
        let rows = twig_bench::runner::headline(&ctx);
        let first = self.first.as_deref().unwrap_or_default();
        let reference: Vec<Option<SimStats>> = rows
            .iter()
            .flat_map(|r| {
                [
                    &r.baseline,
                    &r.ideal,
                    &r.btb32k,
                    &r.shotgun,
                    &r.confluence,
                    &r.twig,
                    &r.twig_sw_only,
                ]
                .map(|c| c.stats().cloned())
            })
            .collect();
        let same =
            !first.is_empty() && first.iter().all(Option::is_some) && reference.as_slice() == first;
        vec![(
            format!(
                "headline SimStats equal twig_bench::runner::headline at {BUDGET} instructions"
            ),
            same,
        )]
    }
}
