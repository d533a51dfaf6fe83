//! Microbenchmarks of the workload substrate: program generation, walking,
//! `.twgc` trace encode/decode, and full frontend simulation throughput.

use twig_criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use twig_sim::{PlainBtb, SimConfig, Simulator};
use twig_workload::{
    decode_columnar, encode_columnar, InputConfig, ProgramGenerator, Walker, WorkloadSpec,
};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);
    for (name, spec) in [
        ("tiny", WorkloadSpec::tiny_test()),
        ("kafka", WorkloadSpec::preset(twig_workload::AppId::Kafka)),
    ] {
        group.bench_with_input(BenchmarkId::new("generate", name), &spec, |b, spec| {
            b.iter(|| ProgramGenerator::new(spec.clone()).generate().num_blocks());
        });
    }
    group.finish();
}

fn bench_walker(c: &mut Criterion) {
    let mut group = c.benchmark_group("walker");
    let program = ProgramGenerator::new(WorkloadSpec::preset(twig_workload::AppId::Kafka))
        .generate();
    const INSTRS: u64 = 200_000;
    group.throughput(Throughput::Elements(INSTRS));
    group.bench_function("run_instructions", |b| {
        b.iter(|| {
            Walker::new(&program, InputConfig::numbered(0))
                .run_instructions(INSTRS)
                .len()
        });
    });
    group.finish();
}

fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
    let events: Vec<_> = Walker::new(&program, InputConfig::numbered(0))
        .take(100_000)
        .collect();
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| encode_columnar(&events).len());
    });
    let bytes = encode_columnar(&events);
    group.bench_function("decode", |b| {
        b.iter(|| decode_columnar(&bytes).expect("valid").len());
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    let program = ProgramGenerator::new(WorkloadSpec::preset(twig_workload::AppId::Kafka))
        .generate();
    const INSTRS: u64 = 200_000;
    let events: Vec<_> =
        Walker::new(&program, InputConfig::numbered(0)).run_instructions(INSTRS);
    group.throughput(Throughput::Elements(INSTRS));
    group.bench_function("frontend_200k_instrs", |b| {
        let config = SimConfig::default();
        b.iter(|| {
            let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
            sim.run(events.iter().copied(), INSTRS).cycles
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_walker,
    bench_trace,
    bench_simulation
);
criterion_main!(benches);
