//! Characterization integration: the §2 analyses hold together on one
//! workload — misses classify consistently, streams sum correctly, and the
//! profiling stack agrees with the simulator's counters.

use twig_profile::{classify_streams, LbrRecorder, SpatialRangeAnalyzer, ThreeCClassifier};
use twig_sim::{BtbGeometry, PlainBtb, SimConfig, Simulator};
use twig_workload::{InputConfig, ProgramGenerator, Span, Walker, WorkingSet, WorkloadSpec};

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "midi-c".into(),
        seed: 0x5EED_0003,
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
fn three_c_total_matches_replayed_misses() {
    let program = ProgramGenerator::new(spec()).generate();
    let events = Walker::new(&program, InputConfig::numbered(0)).run_instructions(BUDGET);
    // The mid-size test program's working set fits an 8K BTB; classify at
    // 1K entries so capacity/conflict pressure exists (the paper-scale
    // presets pressure the full 8K — see the fig04 experiment).
    let geometry = BtbGeometry::new(1024, 4);
    let mut classifier = ThreeCClassifier::new(geometry);
    let mut taken_direct = 0u64;
    for ev in &events {
        if !ev.taken {
            continue;
        }
        if let Some(rec) = ev.branch_record(&program) {
            if let Some(target) = rec.outcome.target() {
                if rec.kind.is_direct() {
                    taken_direct += 1;
                }
                classifier.access(rec.pc, target, rec.kind);
            }
        }
    }
    let b = classifier.into_breakdown();
    assert!(b.total() > 0);
    assert!(b.total() <= taken_direct, "cannot miss more than accesses");
    // Capacity + conflict dominate on a churning workload (Fig. 4 shape).
    assert!(
        b.capacity + b.conflict > b.compulsory / 4,
        "non-compulsory misses should appear: {b:?}"
    );
}

#[test]
fn lbr_profile_agrees_with_sim_counters() {
    let program = ProgramGenerator::new(spec()).generate();
    let config = SimConfig::default();
    let events = Walker::new(&program, InputConfig::numbered(0)).run_instructions(BUDGET);
    let mut recorder = LbrRecorder::new(&program, 1);
    recorder.observe_events(&program, events.iter().copied());
    let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
    let stats = sim.run_observed(events, BUDGET, &mut recorder);
    let profile = recorder.into_profile();
    assert_eq!(profile.num_samples() as u64, stats.total_btb_misses());
    // Per-kind sample counts match the simulator's per-kind miss counters.
    for kind in twig_types::BranchKind::ALL {
        let samples = profile
            .samples()
            .iter()
            .filter(|s| s.kind == kind)
            .count() as u64;
        assert_eq!(samples, stats.btb_misses[kind.index()], "{kind}");
    }
}

#[test]
fn stream_classes_partition_the_miss_sequence() {
    let program = ProgramGenerator::new(spec()).generate();
    // Shrink the BTB so branches miss repeatedly (recurring streams).
    let config = SimConfig::default().with_btb_entries(1024);
    let events = Walker::new(&program, InputConfig::numbered(0)).run_instructions(BUDGET);
    let mut recorder = LbrRecorder::new(&program, 1);
    let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
    sim.run_observed(events, BUDGET, &mut recorder);
    let profile = recorder.into_profile();
    let seq: Vec<_> = profile.samples().iter().map(|s| s.branch_block).collect();
    let b = classify_streams(&seq);
    assert_eq!(b.total() as usize, seq.len());
    // On a churning service there must be meaningful recurring mass
    // (Fig. 10: temporal prefetchers cover *some* misses).
    let (rec, _, _) = b.fractions();
    assert!(rec > 0.05, "recurring fraction {rec}");
}

#[test]
fn spatial_range_and_working_set_are_consistent() {
    let program = ProgramGenerator::new(spec()).generate();
    let events = Walker::new(&program, InputConfig::numbered(0)).run_instructions(BUDGET);
    let mut analyzer = SpatialRangeAnalyzer::new();
    let mut ws = WorkingSet::new();
    for ev in &events {
        analyzer.observe(&program, *ev);
        ws.observe(&program, *ev);
    }
    let range = analyzer.finish();
    let frac = range.out_of_range_fraction();
    assert!((0.0..1.0).contains(&frac));
    // Conditional executions classified must not exceed dynamic conditionals.
    let cond_execs = ws.dynamic_branches(twig_types::BranchKind::Conditional);
    assert!(range.in_range + range.out_of_range <= cond_execs);
    assert!(ws.unconditional_branch_sites() > 0);
}
