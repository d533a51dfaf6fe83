//! Microbenchmarks of Twig's offline machinery: profile collection,
//! injection-site analysis, coalesce-table construction, and rewriting.

use twig_criterion::{criterion_group, criterion_main, Criterion, Throughput};
use twig::{build_coalesce_plan, TwigConfig, TwigOptimizer};
use twig_types::BlockId;
use twig_workload::{
    EventSource, InputConfig, MemSource, ProgramGenerator, Span, Walker, WorkloadSpec,
};

fn midi_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "bench-midi".into(),
        seed: 0xBE7C_0001,
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

fn bench_profile_and_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("twig_offline");
    group.sample_size(10);
    let spec = midi_spec();
    let generator = ProgramGenerator::new(spec.clone());
    let program = generator.generate();
    let sim = twig_sim::SimConfig::paper_baseline(spec.backend_extra_cpki);
    let optimizer = TwigOptimizer::new(TwigConfig::default());
    const INSTRS: u64 = 200_000;

    let mut walk = MemSource::from(
        Walker::new(&program, InputConfig::numbered(0)).run_instructions(INSTRS),
    );
    let mut collect = || {
        walk.reset();
        optimizer
            .collect_profile_and_stats_from_source(&program, sim, &mut walk, INSTRS)
            .0
    };
    group.throughput(Throughput::Elements(INSTRS));
    group.bench_function("collect_profile_200k", |b| {
        b.iter(|| collect().num_samples());
    });

    let profile = collect();
    group.throughput(Throughput::Elements(profile.num_samples() as u64));
    group.bench_function("analyze_profile", |b| {
        b.iter(|| optimizer.analyze_for(&profile, &program).len());
    });

    let plans = optimizer.analyze_for(&profile, &program);
    let layout = generator.layout_options();
    group.bench_function("rewrite", |b| {
        b.iter(|| {
            optimizer
                .rewrite_of(&program, &layout, &plans)
                .rewrite
                .brprefetch_ops
        });
    });
    group.finish();
}

fn bench_coalesce(c: &mut Criterion) {
    let mut group = c.benchmark_group("coalesce");
    let program = ProgramGenerator::new(midi_spec()).generate();
    // Synthetic assignment set: 64 sites x 32 branches each.
    let assignments: Vec<(BlockId, Vec<BlockId>)> = (0..64u32)
        .map(|s| {
            let branches = (0..32u32)
                .map(|i| BlockId::new((s * 97 + i * 13) % program.num_blocks() as u32))
                .collect();
            (BlockId::new(s), branches)
        })
        .collect();
    group.throughput(Throughput::Elements(64 * 32));
    group.bench_function("build_plan_8bit", |b| {
        b.iter(|| build_coalesce_plan(&program, &assignments, 8).num_ops());
    });
    group.finish();
}

criterion_group!(benches, bench_profile_and_analysis, bench_coalesce);
criterion_main!(benches);
