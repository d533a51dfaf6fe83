//! End-to-end integration: the full Twig pipeline across all five crates,
//! validating the paper's headline relationships on a mid-size workload.

use twig::{OptimizedBinary, TwigConfig, TwigOptimizer};
use twig_sim::{PlainBtb, SimConfig, Simulator};
use twig_workload::{
    InputConfig, MemSource, Program, ProgramGenerator, Span, Walker, WorkloadSpec,
};

/// A workload between tiny_test and the paper presets: enough BTB pressure
/// to exercise the whole stack while staying fast in debug builds.
fn midi_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "midi".into(),
        seed: 0x5EED_0001,
        app_funcs: 900,
        lib_funcs: 120,
        handlers: 24,
        handler_zipf: 0.4,
        blocks_per_func: Span::new(10, 30),
        call_levels: 3,
        loop_fraction: 0.01,
        ..WorkloadSpec::tiny_test()
    }
}

const BUDGET: u64 = 400_000;

/// The walk of `program` under input `input`, as a replayable source.
fn walk(program: &Program, input: u32, budget: u64) -> MemSource {
    Walker::new(program, InputConfig::numbered(input))
        .run_instructions(budget)
        .into()
}

/// Profiles `generator`'s `program` on input #0 and rewrites it.
fn optimize(
    optimizer: &TwigOptimizer,
    generator: &ProgramGenerator,
    program: &Program,
    sim: SimConfig,
    budget: u64,
) -> OptimizedBinary {
    let (profile, _) = optimizer.collect_profile_and_stats_from_source(
        program,
        sim,
        &walk(program, 0, budget),
        budget,
    );
    optimizer.rewrite_of(program, &generator.layout_options(), &optimizer.analyze(&profile))
}

#[test]
fn twig_beats_baseline_and_stays_below_ideal() {
    let spec = midi_spec();
    let sim = SimConfig::paper_baseline(spec.backend_extra_cpki);
    let optimizer = TwigOptimizer::new(TwigConfig::default());
    let report = optimizer.run_app(&spec, sim, 0, &[1], BUDGET).remove(0);

    assert!(
        report.speedup_percent > 2.0,
        "Twig speedup too small: {:.2}%",
        report.speedup_percent
    );
    assert!(
        report.twig.ipc() <= report.ideal.ipc() * 1.02,
        "Twig ({:.3}) must not exceed the ideal BTB ({:.3})",
        report.twig.ipc(),
        report.ideal.ipc()
    );
    assert!(report.coverage > 0.10, "coverage {:.3}", report.coverage);
    assert!(
        report.twig.btb_mpki() < report.baseline.btb_mpki(),
        "MPKI must drop"
    );
}

#[test]
fn rewritten_binary_executes_identical_control_flow() {
    // Same walker decisions must replay on the rewritten binary: identical
    // block-event sequences, differing only in layout/ops.
    let spec = midi_spec();
    let generator = ProgramGenerator::new(spec.clone());
    let program = generator.generate();
    let sim = SimConfig::paper_baseline(spec.backend_extra_cpki);
    let optimizer = TwigOptimizer::new(TwigConfig::default());
    let optimized = optimize(&optimizer, &generator, &program, sim, 100_000);

    let a: Vec<_> = Walker::new(&program, InputConfig::numbered(2))
        .take(20_000)
        .collect();
    let b: Vec<_> = Walker::new(&optimized.program, InputConfig::numbered(2))
        .take(20_000)
        .collect();
    assert_eq!(a, b, "rewriting must not perturb control flow");
    // But the rewritten binary is materially different.
    assert!(optimized.rewrite.added_bytes() > 0);
    assert!(optimized.rewrite.brprefetch_ops + optimized.rewrite.brcoalesce_ops > 0);
}

#[test]
fn overheads_are_within_paper_bands() {
    let spec = midi_spec();
    let sim = SimConfig::paper_baseline(spec.backend_extra_cpki);
    let optimizer = TwigOptimizer::new(TwigConfig::default());
    let generator = ProgramGenerator::new(spec.clone());
    let program = generator.generate();
    let optimized = optimize(&optimizer, &generator, &program, sim, BUDGET);
    let test_walk = walk(&program, 1, BUDGET);
    let report = optimizer.evaluate_with_source(&program, &optimized, sim, &test_walk, BUDGET);

    // Paper: static < 10%, dynamic < 12.6% in the worst case.
    assert!(
        optimized.rewrite.static_overhead() < 0.25,
        "static overhead {:.1}%",
        optimized.rewrite.static_overhead() * 100.0
    );
    assert!(
        report.dynamic_overhead < 0.15,
        "dynamic overhead {:.1}%",
        report.dynamic_overhead * 100.0
    );
}

#[test]
fn prefetch_ops_flow_through_the_frontend() {
    let spec = midi_spec();
    let generator = ProgramGenerator::new(spec.clone());
    let program = generator.generate();
    let sim = SimConfig::paper_baseline(spec.backend_extra_cpki);
    let optimizer = TwigOptimizer::new(TwigConfig::default());
    let optimized = optimize(&optimizer, &generator, &program, sim, BUDGET);

    let events = Walker::new(&optimized.program, InputConfig::numbered(1))
        .run_instructions(BUDGET);
    let mut sim_run = Simulator::new(&optimized.program, sim, PlainBtb::new(&sim));
    let stats = sim_run.run(events, BUDGET);
    assert!(stats.retired_prefetch_ops > 0, "ops must retire");
    assert!(
        stats.prefetch_buffer.inserted > 0,
        "ops must insert prefetches"
    );
    assert!(stats.prefetch_buffer.used > 0, "prefetches must be consumed");
    assert!(stats.total_covered_misses() > 0, "misses must be covered");
}
