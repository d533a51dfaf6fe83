//! Microbenchmarks of the frontend structures: BTB lookup/insert, the
//! prefetch buffer, direction predictors, and the memory hierarchy.

use twig_criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use twig_rand::rngs::StdRng;
use twig_rand::{RngExt, SeedableRng};
use twig_sim::{
    Btb, BtbGeometry, DirectionPredictor, DirectionPredictorKind, MemoryHierarchy,
    PrefetchBuffer, SimConfig,
};
use twig_types::{Addr, BranchKind, CacheLineAddr};

fn addresses(n: usize, spread: u64) -> Vec<Addr> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..n)
        .map(|_| Addr::new(0x40_0000 + rng.random_range(0..spread) * 2))
        .collect()
}

fn bench_btb(c: &mut Criterion) {
    let mut group = c.benchmark_group("btb");
    for &(entries, ways) in &[(8192usize, 4usize), (32768, 4), (8192, 128)] {
        let addrs = addresses(4096, 100_000);
        group.throughput(Throughput::Elements(addrs.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("lookup_insert", format!("{entries}x{ways}")),
            &(entries, ways),
            |b, &(entries, ways)| {
                let mut btb = Btb::new(BtbGeometry::new(entries, ways));
                b.iter(|| {
                    for &pc in &addrs {
                        if btb.lookup(pc).is_none() {
                            btb.insert(pc, Addr::new(1), BranchKind::Conditional);
                        }
                    }
                });
            },
        );
    }
    group.finish();
}

fn bench_prefetch_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefetch_buffer");
    for &capacity in &[64usize, 256] {
        let addrs = addresses(2048, 10_000);
        group.throughput(Throughput::Elements(addrs.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("insert_take", capacity),
            &capacity,
            |b, &capacity| {
                b.iter(|| {
                    let mut buf = PrefetchBuffer::new(capacity);
                    for (i, &pc) in addrs.iter().enumerate() {
                        buf.insert(pc, Addr::new(1), BranchKind::DirectJump, 0);
                        if i % 3 == 0 {
                            let _ = buf.take(addrs[i / 2], 10);
                        }
                    }
                    buf.stats()
                });
            },
        );
    }
    group.finish();
}

fn bench_direction(c: &mut Criterion) {
    let mut group = c.benchmark_group("direction");
    let mut rng = StdRng::seed_from_u64(11);
    let stream: Vec<(Addr, bool)> = (0..8192)
        .map(|_| {
            let pc = Addr::new(0x1000 + rng.random_range(0..2000u64) * 4);
            (pc, rng.random_bool(0.85))
        })
        .collect();
    group.throughput(Throughput::Elements(stream.len() as u64));
    for (name, kind) in [
        ("gshare14", DirectionPredictorKind::Gshare { table_bits: 14 }),
        ("tage-lite", DirectionPredictorKind::TageLite),
    ] {
        group.bench_function(name, |b| {
            let mut p = DirectionPredictor::new(kind);
            b.iter(|| {
                let mut correct = 0u32;
                for &(pc, taken) in &stream {
                    correct += u32::from(p.resolve(pc, taken));
                }
                correct
            });
        });
    }
    group.finish();
}

fn bench_memory(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory_hierarchy");
    let lines: Vec<CacheLineAddr> = (0..4096u64)
        .map(|i| CacheLineAddr::from_line_number(0x1_0000 + (i * 37) % 20_000))
        .collect();
    group.throughput(Throughput::Elements(lines.len() as u64));
    group.bench_function("demand_stream", |b| {
        b.iter(|| {
            let mut mem = MemoryHierarchy::new(&SimConfig::default());
            let mut cycle = 0;
            for &line in &lines {
                let r = mem.demand(line, cycle);
                cycle = r.ready_at;
            }
            cycle
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_btb,
    bench_prefetch_buffer,
    bench_direction,
    bench_memory
);
criterion_main!(benches);
