//! A profile keeps its LBR histories in one shared log: consecutive miss
//! windows overlap in most of their 32 entries, so a sample costs its
//! 24-byte record plus the few entries its window adds, not a private
//! copy of all 32.
//!
//! A counting global allocator measures the bytes the collected profile
//! keeps alive. This file holds a single test so no other test thread
//! allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use twig_profile::LbrRecorder;
use twig_sim::{PlainBtb, SimConfig, Simulator};
use twig_workload::{AppId, InputConfig, ProgramGenerator, Walker, WorkloadSpec};

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
fn kafka_profile_holds_at_most_160_bytes_per_sample() {
    const INSTRUCTIONS: u64 = 1_000_000;
    let spec = WorkloadSpec::preset(AppId::Kafka);
    let config = SimConfig::paper_baseline(spec.backend_extra_cpki);
    let program = ProgramGenerator::new(spec).generate();
    let events = Walker::new(&program, InputConfig::numbered(0)).run_instructions(INSTRUCTIONS);

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut recorder = LbrRecorder::new(&program, 1);
    recorder.observe_events(&program, events.iter().copied());
    Simulator::new(&program, config, PlainBtb::new(&config)).run_observed(
        events.iter().copied(),
        INSTRUCTIONS,
        &mut recorder,
    );
    let profile = recorder.into_profile();
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;

    // The per-block execution counts are the same in any representation.
    let counts = (profile.block_executions.capacity() * std::mem::size_of::<u64>()) as isize;
    let samples = profile.num_samples();
    assert!(samples > 10_000, "kafka misses often: {samples} samples");
    let per_sample = (held - counts) as f64 / samples as f64;
    assert!(
        per_sample <= 160.0,
        "{samples} samples hold {} bytes ({per_sample:.1} B/sample)",
        held - counts
    );
}
