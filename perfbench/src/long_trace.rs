//! `long_trace`: one app walked straight to a `.twgc` file and scored
//! out of core.
//!
//! Kafka (as `big_trace_smoke` uses) on input #seed is streamed from the
//! walker to a columnar file; Twig trains on an in-memory prefix read back
//! from it; then baseline, ideal and twig are simulated over the mmap'd
//! replay. No prefetchers, no scheduler, one analysis.

use std::path::PathBuf;
use std::sync::Arc;

use twig::{baseline_relative_coverage, TwigConfig, TwigOptimizer};
use twig_sim::{speedup_percent, PlainBtb, SimConfig, SimStats, Simulator};
use twig_workload::{
    write_columnar_file, AppId, BlockEvent, ColumnarReader, ColumnarSource, InputConfig, MemSource,
    Program, ProgramGenerator, Walker, WorkloadSpec,
};

use crate::headline::{digest, generate, simulate, PAPER_COVERAGE_PCT, PAPER_SPEEDUP_PCT};
use crate::spans::Tracer;
use crate::{out_dir, Metrics, Pass, Workload};

/// Events walked to the file per pass.
pub const EVENTS: usize = 2_000_000;
/// Events of the in-memory training prefix (and of the equality check).
pub const PREFIX_EVENTS: usize = 400_000;

const APP: AppId = AppId::Kafka;

pub struct LongTrace {
    input: InputConfig,
    path: PathBuf,
    generator: Option<ProgramGenerator>,
    program: Option<Program>,
    config: SimConfig,
}

impl LongTrace {
    pub fn new(seed: u64) -> Self {
        LongTrace {
            input: InputConfig::numbered((seed % (1 << 32)) as u32),
            path: out_dir().join(format!("long_trace-{}.twgc", std::process::id())),
            generator: None,
            program: None,
            config: SimConfig::paper_baseline(WorkloadSpec::preset(APP).backend_extra_cpki),
        }
    }

    fn program(&self) -> &Program {
        self.program.as_ref().expect("setup ran")
    }

    fn reader(&self) -> Arc<ColumnarReader> {
        Arc::new(ColumnarReader::open(&self.path).expect("open the spilled trace"))
    }
}

impl Drop for LongTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Workload for LongTrace {
    fn setup(&mut self, tracer: &Tracer) {
        self.program = None;
        let (generator, program) = generate(tracer, &WorkloadSpec::preset(APP), APP.name());
        self.generator = Some(generator);
        self.program = Some(program);
    }

    fn pass(&mut self, tracer: &Tracer) -> Pass {
        let cell = APP.name();
        let program = self.program();
        let config = self.config;
        {
            let mut span = tracer.enter("twig-workload", "spill", cell);
            write_columnar_file(&self.path, Walker::new(program, self.input).take(EVENTS))
                .expect("stream the trace to disk");
            span.work(std::fs::metadata(&self.path).map_or(0, |m| m.len()));
        }
        let reader = self.reader();
        let prefix: Vec<BlockEvent> = {
            let mut span = tracer.enter("twig-workload", "read_prefix", cell);
            let prefix: Vec<BlockEvent> = ColumnarSource::from_reader(Arc::clone(&reader))
                .take(PREFIX_EVENTS)
                .collect();
            span.work(prefix.len() as u64);
            prefix
        };

        let optimizer = TwigOptimizer::new(TwigConfig::default());
        let (profile, profile_stats) = {
            let mut span = tracer.enter("twig-profile", "collect_profile", cell);
            let out = optimizer.collect_profile_and_stats_from_source(
                program,
                config,
                &mut MemSource::from(prefix),
                u64::MAX,
            );
            span.work(out.0.num_samples() as u64);
            out
        };
        let plans = {
            let mut span = tracer.enter("twig", "analyze", cell);
            let plans = optimizer.analyze_for(&profile, program);
            span.work(plans.len() as u64);
            plans
        };
        let layout = self.generator.as_ref().expect("setup ran").layout_options();
        let optimized = {
            let mut span = tracer.enter("twig", "rewrite", cell);
            let binary = optimizer.rewrite_of(program, &layout, &plans);
            span.work(binary.rewrite.brprefetch_ops);
            binary
        };

        let stream = || ColumnarSource::from_reader(Arc::clone(&reader));
        let ideal_cfg = SimConfig {
            ideal_btb: true,
            ..config
        };
        let run = |name, cell, program, cfg: SimConfig| {
            let span = tracer.enter("twig-sim", name, cell);
            simulate(span, program, cfg, PlainBtb::new(&cfg), stream(), u64::MAX)
        };
        let baseline = run("baseline", "kafka/baseline", program, config);
        let ideal = run("ideal", "kafka/ideal", program, ideal_cfg);
        let twig = run("twig", "kafka/twig", &optimized.program, config);

        let mut counts = Metrics::default();
        counts.set("twig-sim.events", 3.0 * reader.total_events() as f64);
        counts.set("twig-sim.baseline.btb_mpki", baseline.btb_mpki());
        let coverage = baseline_relative_coverage(&baseline, &twig);
        counts.set("twig-sim.twig.coverage", coverage);
        counts.set("twig-sim.twig.accuracy", twig.prefetch_accuracy());
        let speedup = speedup_percent(&baseline, &twig);
        counts.set(
            "twig-sim.paper_gap_speedup_pp",
            (speedup - PAPER_SPEEDUP_PCT).abs(),
        );
        counts.set(
            "twig-sim.paper_gap_coverage_pp",
            (coverage * 100.0 - PAPER_COVERAGE_PCT).abs(),
        );

        let sim_instr = [&baseline, &ideal, &twig]
            .iter()
            .map(|s| s.retired_instructions)
            .sum::<u64>()
            + profile_stats.retired_instructions;
        let results: Vec<Option<SimStats>> =
            vec![Some(profile_stats), Some(baseline), Some(ideal), Some(twig)];
        Pass {
            sim_instr,
            digest: digest(&results),
            attempted: results.len() as u64,
            failed: 0,
            counts,
        }
    }

    fn check(&mut self) -> Vec<(String, bool)> {
        // As big_trace_smoke: the streamed decode must simulate exactly
        // like the same prefix held in memory.
        let program = self.program();
        let config = self.config;
        let reader = self.reader();
        let prefix: Vec<BlockEvent> = ColumnarSource::from_reader(Arc::clone(&reader))
            .take(PREFIX_EVENTS)
            .collect();
        let run = |events: &mut dyn Iterator<Item = BlockEvent>| {
            Simulator::new(program, config, PlainBtb::new(&config)).run(events, u64::MAX)
        };
        let streamed = run(&mut ColumnarSource::from_reader(reader).take(PREFIX_EVENTS));
        let in_memory = run(&mut prefix.iter().copied());
        vec![(
            format!("streamed stats equal in-memory stats on the {PREFIX_EVENTS}-event prefix"),
            streamed == in_memory && format!("{streamed:?}") == format!("{in_memory:?}"),
        )]
    }

    fn side_metrics(&mut self, metrics: &mut Metrics) {
        // One extra drain of the spilled trace, apart from the traced wall.
        let reader = self.reader();
        let t = std::time::Instant::now();
        let events = ColumnarSource::from_reader(reader).count();
        let secs = t.elapsed().as_secs_f64();
        metrics.set(
            "twig-workload.decode_mevents_per_s",
            events as f64 / secs / 1e6,
        );
    }
}
