//! CI big-trace smoke: out-of-core replay at data-center trace scale.
//!
//! Streams a ≥50M-event `.twgc` columnar trace to disk (never
//! materializing the stream), replays it through the Fig. 16 headline
//! cells — baseline FDIP, ideal BTB, Twig — over the mmap'd chunked
//! reader, and proves the streamed decode is bit-identical to an
//! in-memory run on a 1M-event prefix.
//!
//! The binary reads its own peak RSS (`VmHWM`) at the end and exits 1
//! when it passes the documented 100 MiB bound (see DESIGN.md): the
//! whole point of the streaming trace engine is that trace size and
//! resident memory are decoupled. The run peaks at about 85 MiB.
//!
//! Usage: `big_trace_smoke [events]` (default 50,000,000).

use std::sync::Arc;
use std::time::Instant;

use twig::{TwigConfig, TwigOptimizer};
use twig_sim::{PlainBtb, SimConfig, Simulator};
use twig_workload::{
    write_columnar_file, AppId, ColumnarReader, ColumnarSource, InputConfig, MemSource,
    ProgramGenerator, Walker, WorkloadSpec,
};

const DEFAULT_EVENTS: u64 = 50_000_000;
const PREFIX_EVENTS: usize = 1_000_000;
/// Peak resident memory the run may reach: trace size and RSS are
/// decoupled by the chunked `.twgc` reader (see DESIGN.md).
const PEAK_RSS_BOUND_MIB: u64 = 100;

const USAGE: &str = "usage: big_trace_smoke [events]";

/// Reports a bad command line on stderr and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("big_trace_smoke: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let target: u64 = match args.next() {
        None => DEFAULT_EVENTS,
        Some(text) => text
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("events must be an integer, got {text:?}"))),
    };
    if let Some(extra) = args.next() {
        usage_error(&format!("unexpected argument {extra:?}"));
    }
    let spec = WorkloadSpec::preset(AppId::Kafka);
    let generator = ProgramGenerator::new(spec.clone());
    let program = generator.generate();
    let input = InputConfig::numbered(0);
    let config = SimConfig::paper_baseline(spec.backend_extra_cpki);

    let dir = std::env::temp_dir().join(format!("twig-big-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create smoke dir");
    let path = dir.join("big.twgc");

    // Phase 1: stream the trace straight from the walker to disk.
    let t = Instant::now();
    let written = write_columnar_file(&path, Walker::new(&program, input).take(target as usize))
        .expect("stream trace to disk");
    assert_eq!(written, target, "walker must yield the full event budget");
    let file_bytes = std::fs::metadata(&path).expect("stat trace").len();
    let reader = Arc::new(ColumnarReader::open(&path).expect("open columnar trace"));
    println!(
        "wrote {written} events / {:.1} MiB / {} chunks in {:.1}s",
        file_bytes as f64 / (1024.0 * 1024.0),
        reader.chunk_count(),
        t.elapsed().as_secs_f64()
    );

    // Phase 2: Fig. 16-shaped cells. Train Twig on the in-memory 1M-event
    // prefix (training is cheap and bounded), then score baseline, ideal,
    // and Twig over the full streamed trace — three bounded-memory passes,
    // each over its own clone of one source.
    let t = Instant::now();
    let prefix = MemSource::from(
        ColumnarSource::from_reader(Arc::clone(&reader))
            .take(PREFIX_EVENTS)
            .collect::<Vec<_>>(),
    );
    let optimizer = TwigOptimizer::new(TwigConfig::default());
    let (profile, _) =
        optimizer.collect_profile_and_stats_from_source(&program, config, &prefix, u64::MAX);
    let plans = optimizer.analyze_for(&profile, &program);
    let optimized = optimizer.rewrite_of(&program, &generator.layout_options(), &plans);
    let source = ColumnarSource::from_reader(Arc::clone(&reader));
    let report = optimizer.evaluate_with_source(&program, &optimized, config, &source, u64::MAX);
    println!(
        "fig16 cell kafka: twig +{:.2}% ideal +{:.2}% ({:.0}% of ideal) in {:.1}s",
        report.speedup_percent,
        report.ideal_speedup_percent,
        report.pct_of_ideal * 100.0,
        t.elapsed().as_secs_f64()
    );
    assert!(
        report.ideal_speedup_percent > 0.0,
        "an ideal BTB must beat the baseline on a paper-scale trace"
    );

    // Phase 3: the streamed decode must be bit-identical to memory. Replay
    // the 1M-event prefix both ways through identical simulators.
    let mut streamed_sim = Simulator::new(&program, config, PlainBtb::new(&config));
    let streamed = streamed_sim.run(
        ColumnarSource::from_reader(Arc::clone(&reader)).take(PREFIX_EVENTS),
        u64::MAX,
    );
    let mut memory_sim = Simulator::new(&program, config, PlainBtb::new(&config));
    let in_memory = memory_sim.run(prefix.as_slice().iter().copied(), u64::MAX);
    assert_eq!(
        streamed, in_memory,
        "streamed and in-memory stats diverge on the 1M-event prefix"
    );
    assert_eq!(
        format!("{streamed:?}"),
        format!("{in_memory:?}"),
        "rendered stats must be byte-identical"
    );
    println!("prefix equivalence OK: streamed == in-memory over {PREFIX_EVENTS} events");

    std::fs::remove_dir_all(&dir).expect("clean smoke dir");
    if let Some(peak) = peak_rss_mib() {
        println!("peak RSS {peak} MiB (bound: {PEAK_RSS_BOUND_MIB} MiB)");
        if peak > PEAK_RSS_BOUND_MIB {
            eprintln!("big_trace_smoke: peak RSS {peak} MiB exceeds {PEAK_RSS_BOUND_MIB} MiB");
            std::process::exit(1);
        }
    }
    println!("big-trace smoke OK ({written} events)");
}

/// Peak resident set size in MiB (`VmHWM` from `/proc/self/status`).
/// `None` off Linux, where the bound goes unchecked.
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024)
}
