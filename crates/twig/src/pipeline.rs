//! The end-to-end Twig pipeline: profile → analyze → rewrite → evaluate.
//!
//! Mirrors the paper's methodology (§4.1): collect an LBR profile of the
//! production binary under a *training* input, inject BTB prefetch
//! instructions at link time, and evaluate the rewritten binary under the
//! same or different inputs against the FDIP baseline and an ideal BTB.

use twig_serde::{Deserialize, Serialize};
use twig_profile::{LbrRecorder, Profile};
use twig_sim::{speedup_percent, PlainBtb, SimConfig, SimStats, Simulator};
use twig_workload::{
    EventSource, InputConfig, LayoutOptions, MemSource, Program, ProgramGenerator, Walker,
    WorkloadSpec,
};

use crate::analysis::{analyze_profile_with_layout, MissPlan};
use crate::config::TwigConfig;
use crate::report::baseline_relative_coverage;
use crate::rewrite::{apply_rewrite, RewriteOutcome};

/// A Twig-optimized binary with its rewrite metadata.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct OptimizedBinary {
    /// The rewritten program (prefetch ops injected, re-laid-out).
    pub program: Program,
    /// Rewrite statistics (static overhead, op counts).
    pub rewrite: RewriteOutcome,
    /// Number of miss branches planned for prefetching.
    pub planned_misses: usize,
}

/// Evaluation of one optimized binary against the baseline on one input.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct EvalReport {
    /// FDIP baseline statistics.
    pub baseline: SimStats,
    /// Twig statistics.
    pub twig: SimStats,
    /// Ideal-BTB statistics (same input, original binary).
    pub ideal: SimStats,
    /// Twig speedup over the baseline, percent (Fig. 16).
    pub speedup_percent: f64,
    /// Ideal-BTB speedup over the baseline, percent.
    pub ideal_speedup_percent: f64,
    /// Twig as a fraction of the ideal-BTB speedup (Table 2).
    pub pct_of_ideal: f64,
    /// Baseline-relative BTB miss coverage (Fig. 17).
    pub coverage: f64,
    /// Prefetch accuracy (Fig. 19).
    pub accuracy: f64,
    /// Dynamic instruction overhead (Fig. 22).
    pub dynamic_overhead: f64,
}

/// Drives the full profile-guided optimization flow for one application.
///
/// # Examples
///
/// ```
/// use twig::{TwigConfig, TwigOptimizer};
/// use twig_sim::SimConfig;
/// use twig_workload::WorkloadSpec;
///
/// let optimizer = TwigOptimizer::new(TwigConfig::default());
/// let spec = WorkloadSpec::tiny_test();
/// let sim = SimConfig::paper_baseline(spec.backend_extra_cpki)
///     .with_btb_entries(64); // pressure the tiny program's BTB
/// let report = optimizer.run_app(&spec, sim, 0, &[0], 60_000).remove(0);
/// assert!(report.twig.ipc() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct TwigOptimizer {
    config: TwigConfig,
}

impl TwigOptimizer {
    /// Creates an optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(config: TwigConfig) -> Self {
        config.validate().expect("invalid twig config");
        TwigOptimizer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TwigConfig {
        &self.config
    }

    /// Collects an LBR profile of `program` over `source` (a baseline
    /// run), also returning the statistics of the underlying simulation.
    /// The observer is passive, so these are exactly the stats of a plain
    /// FDIP baseline run over the same events — callers that need both get
    /// the baseline run for free with the profile.
    ///
    /// The profile pass consumes one full pass of the source, the source
    /// is reset, and the simulation replays the identical stream (replay
    /// determinism is the source contract).
    pub fn collect_profile_and_stats_from_source<S: EventSource>(
        &self,
        program: &Program,
        sim_config: SimConfig,
        source: &mut S,
        instructions: u64,
    ) -> (Profile, SimStats) {
        let mut recorder = LbrRecorder::new(program, 1);
        recorder.observe_events(program, source.by_ref());
        source.reset();
        let mut sim = Simulator::new(program, sim_config, PlainBtb::new(&sim_config));
        let stats = sim.run_observed(source.by_ref(), instructions, &mut recorder);
        (recorder.into_profile(), stats)
    }

    /// Analyzes a profile into miss plans (no layout awareness; prefer
    /// [`Self::analyze_for`] when the program is at hand).
    pub fn analyze(&self, profile: &Profile) -> Vec<MissPlan> {
        analyze_profile_with_layout(profile, &self.config, None)
    }

    /// Analyzes a profile with encodability-aware site selection against
    /// the program's layout.
    pub fn analyze_for(&self, profile: &Profile, program: &Program) -> Vec<MissPlan> {
        analyze_profile_with_layout(profile, &self.config, Some(program))
    }

    /// Rewrites a clone of an already-generated pristine (op-free) program
    /// according to `plans`; `layout` is the layout the program was
    /// generated with ([`ProgramGenerator::layout_options`]). The clone
    /// shares the pristine control-flow graph and owns only its layout, so
    /// sweeps that rewrite the same application once per configuration
    /// point keep one copy of the graph.
    pub fn rewrite_of(
        &self,
        pristine: &Program,
        layout: &LayoutOptions,
        plans: &[MissPlan],
    ) -> OptimizedBinary {
        let mut program = pristine.clone();
        let rewrite = apply_rewrite(&mut program, plans, &self.config, layout);
        OptimizedBinary {
            program,
            rewrite,
            planned_misses: plans.len(),
        }
    }

    /// Simulates the FDIP baseline and the ideal BTB for `original` over
    /// `source` — the two reference runs every evaluation is scored
    /// against. The baseline pass runs, the source resets, the ideal pass
    /// replays. They depend only on the original binary and the input,
    /// not on the optimized variant, so callers evaluating several
    /// rewrites of the same program under the same input compute them
    /// once and feed them to [`Self::evaluate_optimized_from_source`]
    /// repeatedly.
    pub fn reference_stats_from_source<S: EventSource>(
        original: &Program,
        sim_config: SimConfig,
        source: &mut S,
        instructions: u64,
    ) -> (SimStats, SimStats) {
        let mut base_sim = Simulator::new(original, sim_config, PlainBtb::new(&sim_config));
        let baseline = base_sim.run(source.by_ref(), instructions);
        source.reset();
        let ideal_cfg = SimConfig {
            ideal_btb: true,
            ..sim_config
        };
        let mut ideal_sim = Simulator::new(original, ideal_cfg, PlainBtb::new(&ideal_cfg));
        let ideal = ideal_sim.run(source.by_ref(), instructions);
        (baseline, ideal)
    }

    /// Scores one optimized binary against precomputed reference runs
    /// (see [`Self::reference_stats_from_source`]); runs only the Twig
    /// simulation. Resets the source first, so it composes after a
    /// reference pass. The optimized binary replays the same control flow
    /// (block ids are stable across the rewrite).
    pub fn evaluate_optimized_from_source<S: EventSource>(
        &self,
        optimized: &OptimizedBinary,
        sim_config: SimConfig,
        source: &mut S,
        instructions: u64,
        baseline: SimStats,
        ideal: SimStats,
    ) -> EvalReport {
        source.reset();
        let mut twig_sim = Simulator::new(
            &optimized.program,
            sim_config,
            PlainBtb::new(&sim_config),
        );
        let twig = twig_sim.run(source.by_ref(), instructions);
        self.score(twig, baseline, ideal)
    }

    /// Evaluates an optimized binary against the baseline and the ideal BTB
    /// over one input: three bounded-memory passes (baseline, ideal, Twig)
    /// over one resettable stream.
    pub fn evaluate_with_source<S: EventSource>(
        &self,
        original: &Program,
        optimized: &OptimizedBinary,
        sim_config: SimConfig,
        source: &mut S,
        instructions: u64,
    ) -> EvalReport {
        let (baseline, ideal) =
            Self::reference_stats_from_source(original, sim_config, source, instructions);
        self.evaluate_optimized_from_source(
            optimized,
            sim_config,
            source,
            instructions,
            baseline,
            ideal,
        )
    }

    /// Scores a Twig run against precomputed reference stats.
    fn score(&self, twig: SimStats, baseline: SimStats, ideal: SimStats) -> EvalReport {
        let speedup = speedup_percent(&baseline, &twig);
        let ideal_speedup = speedup_percent(&baseline, &ideal);
        EvalReport {
            speedup_percent: speedup,
            ideal_speedup_percent: ideal_speedup,
            pct_of_ideal: if ideal_speedup > 0.0 {
                speedup / ideal_speedup
            } else {
                0.0
            },
            coverage: baseline_relative_coverage(&baseline, &twig),
            accuracy: twig.prefetch_accuracy(),
            dynamic_overhead: twig.dynamic_overhead(),
            baseline,
            twig,
            ideal,
        }
    }

    /// Convenience: full flow for one application spec — profile on input
    /// `train`, rewrite, evaluate on each input of `test`.
    pub fn run_app(
        &self,
        spec: &WorkloadSpec,
        sim_config: SimConfig,
        train: u32,
        test: &[u32],
        instructions: u64,
    ) -> Vec<EvalReport> {
        let generator = ProgramGenerator::new(spec.clone());
        let program = generator.generate();
        let walk = |input: u32| {
            MemSource::from(
                Walker::new(&program, InputConfig::numbered(input)).run_instructions(instructions),
            )
        };
        let (profile, _) = self.collect_profile_and_stats_from_source(
            &program,
            sim_config,
            &mut walk(train),
            instructions,
        );
        let plans = self.analyze_for(&profile, &program);
        let optimized = self.rewrite_of(&program, &generator.layout_options(), &plans);
        test.iter()
            .map(|&i| {
                self.evaluate_with_source(
                    &program,
                    &optimized,
                    sim_config,
                    &mut walk(i),
                    instructions,
                )
            })
            .collect()
    }
}

impl Default for TwigOptimizer {
    fn default() -> Self {
        TwigOptimizer::new(TwigConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pressured_config(spec: &WorkloadSpec) -> SimConfig {
        // The tiny test program has only a few hundred branch sites; shrink
        // the BTB so capacity misses exist to optimize away (at 256 entries
        // the whole working set fits and only compulsory misses remain).
        SimConfig::paper_baseline(spec.backend_extra_cpki).with_btb_entries(64)
    }

    #[test]
    fn end_to_end_improves_ipc_and_covers_misses() {
        let spec = WorkloadSpec::tiny_test();
        let sim = pressured_config(&spec);
        let optimizer = TwigOptimizer::default();
        let report = optimizer.run_app(&spec, sim, 0, &[0], 200_000).remove(0);
        assert!(
            report.speedup_percent > 0.0,
            "Twig must speed up the pressured baseline: {:.2}%",
            report.speedup_percent
        );
        assert!(
            report.coverage > 0.2,
            "coverage too low: {:.3}",
            report.coverage
        );
        assert!(report.twig.retired_prefetch_ops > 0);
        assert!(report.dynamic_overhead > 0.0);
        assert!(report.accuracy > 0.0);
        assert!(report.ideal_speedup_percent >= report.speedup_percent * 0.5);
    }

    #[test]
    fn cross_input_generalizes() {
        let spec = WorkloadSpec::tiny_test();
        let sim = pressured_config(&spec);
        let optimizer = TwigOptimizer::default();
        let reports = optimizer.run_app(&spec, sim, 0, &[1, 2], 200_000);
        for r in &reports {
            assert!(
                r.coverage > 0.1,
                "cross-input coverage collapsed: {:.3}",
                r.coverage
            );
        }
    }

    #[test]
    fn source_paths_match_materialized_paths() {
        use std::sync::Arc;
        use twig_workload::{AnySource, ColumnarReader, ColumnarSource, WalkerSource};

        let spec = WorkloadSpec::tiny_test();
        let generator = ProgramGenerator::new(spec.clone());
        let program = Arc::new(generator.generate());
        let sim = pressured_config(&spec);
        let optimizer = TwigOptimizer::default();
        let budget = 60_000u64;
        let input = InputConfig::numbered(0);
        let events = Walker::new(program.as_ref(), input).run_instructions(budget);

        // The materialized trace, the live walk, and the out-of-core
        // columnar stream must agree exactly — profiles, stats, and reports.
        let columnar = twig_workload::columnar::encode_columnar_chunked(&events, 4096);
        let mut sources: Vec<AnySource> = vec![
            MemSource::from(events).into(),
            WalkerSource::new(Arc::clone(&program), input, budget).into(),
            ColumnarSource::from_reader(Arc::new(ColumnarReader::from_bytes(columnar).unwrap()))
                .into(),
        ];
        let mut runs = sources.iter_mut().map(|source| {
            let (profile, stats) =
                optimizer.collect_profile_and_stats_from_source(&program, sim, source, budget);
            let plans = optimizer.analyze_for(&profile, &program);
            let optimized = optimizer.rewrite_of(&program, &generator.layout_options(), &plans);
            source.reset();
            let report = optimizer.evaluate_with_source(&program, &optimized, sim, source, budget);
            (profile, stats, report)
        });
        let first = runs.next().unwrap();
        assert!(first.0.num_samples() > 0);
        for run in runs {
            assert_eq!(run, first);
        }
    }

    #[test]
    fn profile_reflects_workload() {
        let spec = WorkloadSpec::tiny_test();
        let generator = ProgramGenerator::new(spec.clone());
        let program = generator.generate();
        let sim = pressured_config(&spec);
        let optimizer = TwigOptimizer::default();
        let events = Walker::new(&program, InputConfig::numbered(0)).run_instructions(100_000);
        let (profile, _) = optimizer.collect_profile_and_stats_from_source(
            &program,
            sim,
            &mut MemSource::from(events),
            100_000,
        );
        assert!(profile.num_samples() > 0);
        assert!(profile.instructions >= 100_000);
        let plans = optimizer.analyze(&profile);
        assert!(!plans.is_empty());
    }
}
