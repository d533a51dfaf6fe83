//! Cross-input integration (Fig. 20 / Table 2's methodology): profiles
//! collected on one input must transfer to others, and input perturbation
//! must actually change behaviour.

use twig::{MeanStd, TwigConfig, TwigOptimizer};
use twig_sim::{PlainBtb, SimConfig, Simulator};
use twig_workload::{
    encode_columnar, ColumnarReader, ColumnarSource, InputConfig, MemSource, ProgramGenerator,
    Span, Walker, WorkloadSpec,
};

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "midi-x".into(),
        seed: 0x5EED_0004,
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

const BUDGET: u64 = 300_000;

#[test]
fn inputs_change_dynamic_behaviour_but_not_structure() {
    let program = ProgramGenerator::new(spec()).generate();
    let a: Vec<_> = Walker::new(&program, InputConfig::numbered(0))
        .take(30_000)
        .collect();
    let b: Vec<_> = Walker::new(&program, InputConfig::numbered(3))
        .take(30_000)
        .collect();
    assert_ne!(a, b, "inputs must perturb the walk");
    // Same program: block ids in both walks index the same blocks.
    let max_a = a.iter().map(|e| e.block.index()).max().unwrap();
    assert!(max_a < program.num_blocks());
}

#[test]
fn training_profile_transfers_across_inputs() {
    let spec = spec();
    let sim = SimConfig::paper_baseline(spec.backend_extra_cpki);
    let optimizer = TwigOptimizer::new(TwigConfig::default());
    let reports = optimizer.run_app(&spec, sim, 0, &[1, 2, 3], BUDGET);
    let coverages: Vec<f64> = reports.iter().map(|r| r.coverage).collect();
    for (i, c) in coverages.iter().enumerate() {
        assert!(*c > 0.05, "input #{}: coverage collapsed to {c:.3}", i + 1);
    }
    let spread = MeanStd::of(&coverages);
    assert!(
        spread.std < spread.mean,
        "coverage wildly unstable across inputs: {spread}"
    );
}

#[test]
fn same_input_profile_is_at_least_as_good_on_average() {
    // Table 2's comparison, on one workload: an input-specific profile
    // should roughly match (usually beat) the training profile.
    let spec = spec();
    let sim = SimConfig::paper_baseline(spec.backend_extra_cpki);
    let optimizer = TwigOptimizer::new(TwigConfig::default());
    let generator = ProgramGenerator::new(spec.clone());
    let program = generator.generate();

    let walk = |input: u32| {
        MemSource::from(
            Walker::new(&program, InputConfig::numbered(input)).run_instructions(BUDGET),
        )
    };
    let optimize = |input: u32| {
        let (p, _) = optimizer.collect_profile_and_stats_from_source(
            &program,
            sim,
            &walk(input),
            BUDGET,
        );
        optimizer.rewrite_of(&program, &generator.layout_options(), &optimizer.analyze(&p))
    };
    let (trained, own) = (optimize(0), optimize(2));
    let trained_report =
        optimizer.evaluate_with_source(&program, &trained, sim, &walk(2), BUDGET);
    let own_report = optimizer.evaluate_with_source(&program, &own, sim, &walk(2), BUDGET);
    assert!(
        own_report.coverage >= trained_report.coverage * 0.8,
        "same-input profile much worse than training profile: {:.3} vs {:.3}",
        own_report.coverage,
        trained_report.coverage
    );
}

#[test]
fn trace_roundtrip_preserves_simulation_results() {
    // A serialized trace replays to identical statistics.
    let program = ProgramGenerator::new(spec()).generate();
    let config = SimConfig::default();
    let events = Walker::new(&program, InputConfig::numbered(1)).run_instructions(100_000);
    let reader = ColumnarReader::from_bytes(encode_columnar(&events)).expect("valid trace");
    let decoded = ColumnarSource::from_reader(std::sync::Arc::new(reader));

    let mut sim_a = Simulator::new(&program, config, PlainBtb::new(&config));
    let a = sim_a.run(events, 100_000);
    let mut sim_b = Simulator::new(&program, config, PlainBtb::new(&config));
    let b = sim_b.run(decoded, 100_000);
    assert_eq!(a, b);
}
