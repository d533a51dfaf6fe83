//! A rewritten binary shares the pristine binary's control-flow graph: the
//! program `rewrite_of` returns holds only its own layout (addresses, op
//! table, coalesce table), not a second copy of every block.
//!
//! A counting global allocator measures the bytes the returned program
//! keeps alive. This file holds a single test so no other test thread
//! allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use twig::{TwigConfig, TwigOptimizer};
use twig_sim::SimConfig;
use twig_workload::{AppId, InputConfig, MemSource, ProgramGenerator, Walker, WorkloadSpec};

struct Counting;

/// Bytes allocated and not yet freed. A statistic only, so `Relaxed`.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn rewritten_kafka_holds_at_most_16_bytes_per_block() {
    const PROFILE_INSTRUCTIONS: u64 = 200_000;
    let spec = WorkloadSpec::preset(AppId::Kafka);
    let sim = SimConfig::paper_baseline(spec.backend_extra_cpki);
    let generator = ProgramGenerator::new(spec);
    let pristine = generator.generate();
    let layout = generator.layout_options();

    let optimizer = TwigOptimizer::new(TwigConfig::default());
    let train =
        Walker::new(&pristine, InputConfig::numbered(0)).run_instructions(PROFILE_INSTRUCTIONS);
    let (profile, _) = optimizer.collect_profile_and_stats_from_source(
        &pristine,
        sim,
        &mut MemSource::from(train),
        PROFILE_INSTRUCTIONS,
    );
    let plans = optimizer.analyze_for(&profile, &pristine);
    // A first rewrite warms any lazily initialized state.
    drop(optimizer.rewrite_of(&pristine, &layout, &plans));

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let binary = optimizer.rewrite_of(&pristine, &layout, &plans);
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;

    assert!(
        binary.rewrite.brprefetch_ops + binary.rewrite.brcoalesce_ops > 0,
        "the plans must inject ops"
    );
    let blocks = binary.program.num_blocks();
    let per_block = held as f64 / blocks as f64;
    assert!(
        per_block <= 16.0,
        "rewritten binary holds {held} bytes for {blocks} blocks ({per_block:.1} B/block)"
    );
}
