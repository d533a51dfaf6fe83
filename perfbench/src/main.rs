//! The Twig reproduction's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <headline|long_trace|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it generates the workload's programs
//! (set-up, timed apart), then repeats the workload from end of set-up to
//! final result until `--seconds` have passed, calling each layer's
//! public API directly. It checks every output, then prints one JSON line
//! with `correct`, `attempted`, `failed` and the metrics: end-to-end
//! metrics with `--trace 0`, per-layer metrics from span-wrapped passes
//! with `--trace 1`. See `perfbench/README.md` for the workloads and
//! metric definitions.

mod fleet;
mod headline;
mod long_trace;
mod spans;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use spans::{Span, Tracer, LAYERS};

/// Set-up repeats at least this many rounds and this many seconds before
/// the first pass, then at least one round and `SETUP_SLICE_SECONDS`
/// before every pass, so its rounds sample the host over the whole run;
/// `setup_s` is the median round.
const SETUP_ROUNDS: usize = 5;
const SETUP_SECONDS: f64 = 0.5;
const SETUP_SLICE_SECONDS: f64 = 0.1;
/// Passes measured at least, even past `--seconds`.
const MIN_PASSES: usize = 3;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. Every workload reports
/// all of them; a layer the workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 52] = [
    ("twig-workload.self_s", "s"),
    ("twig-workload.generate_s", "s"),
    ("twig-workload.walk_s", "s"),
    ("twig-workload.walk_mevents_per_s", "Mevents/s"),
    ("twig-workload.spill_s", "s"),
    ("twig-workload.spill_mib_per_s", "MiB/s"),
    ("twig-workload.decode_mevents_per_s", "Mevents/s"),
    ("twig-profile.self_s", "s"),
    ("twig-profile.collect_s", "s"),
    ("twig-profile.samples", "count"),
    ("twig.self_s", "s"),
    ("twig.analyze_s", "s"),
    ("twig.plans", "count"),
    ("twig.rewrite_s", "s"),
    ("twig.brprefetch_ops", "count"),
    ("twig-sim.self_s", "s"),
    ("twig-sim.baseline_s", "s"),
    ("twig-sim.ideal_s", "s"),
    ("twig-sim.btb32k_s", "s"),
    ("twig-sim.twig_s", "s"),
    ("twig-sim.twig-sw_s", "s"),
    ("twig-sim.baseline_minstr_per_s", "Minstr/s"),
    ("twig-sim.ideal_minstr_per_s", "Minstr/s"),
    ("twig-sim.btb32k_minstr_per_s", "Minstr/s"),
    ("twig-sim.twig_minstr_per_s", "Minstr/s"),
    ("twig-sim.twig-sw_minstr_per_s", "Minstr/s"),
    ("twig-sim.ns_per_event", "ns"),
    ("twig-sim.baseline.btb_mpki", "mpki"),
    ("twig-sim.twig.coverage", "ratio"),
    ("twig-sim.twig.accuracy", "ratio"),
    ("twig-sim.paper_gap_speedup_pp", "pp"),
    ("twig-sim.paper_gap_coverage_pp", "pp"),
    ("twig-prefetchers.self_s", "s"),
    ("twig-prefetchers.shotgun_s", "s"),
    ("twig-prefetchers.confluence_s", "s"),
    ("twig-prefetchers.shotgun_minstr_per_s", "Minstr/s"),
    ("twig-prefetchers.confluence_minstr_per_s", "Minstr/s"),
    ("twig-sched.self_s", "s"),
    ("twig-sched.queue_wait_s", "s"),
    ("twig-sched.run_s", "s"),
    ("twig-sched.utilization", "ratio"),
    ("twig-fleet.self_s", "s"),
    ("twig-fleet.generations", "count"),
    ("twig-fleet.deploys", "count"),
    ("twig-fleet.rollbacks", "count"),
    ("twig-fleet.deploy_ratio", "ratio"),
    ("twig-fleet.jobs_submitted", "count"),
    ("twig-fleet.backpressure_waits", "count"),
    ("twig-fleet.generation_s", "s"),
    ("perfbench.traced_wall_s", "s"),
    ("perfbench.other_s", "s"),
    ("perfbench.trace_overhead_s", "s"),
];

/// Named metric values.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The outcome of one pass of a workload.
#[derive(Default)]
pub struct Pass {
    /// Simulated original instructions retired by every simulation of the
    /// pass, profiling passes included.
    pub sim_instr: u64,
    /// Digest of every simulated result (stats or manifest bytes).
    pub digest: u64,
    /// Operations attempted and failed (a cell that panics or errors).
    pub attempted: u64,
    pub failed: u64,
    /// Deterministic per-layer values (counts and simulated ratios).
    pub counts: Metrics,
}

/// One benchmark workload.
pub trait Workload {
    /// Generates every program the workload simulates. Users pay this on
    /// every run; it is timed as `setup_s`, apart from the passes.
    fn setup(&mut self, tracer: &Tracer);
    /// Runs the workload once, from end of set-up to final result.
    fn pass(&mut self, tracer: &Tracer) -> Pass;
    /// Output checks, run once after the timed passes. Each entry names a
    /// check and whether it held.
    fn check(&mut self) -> Vec<(String, bool)>;
    /// Per-layer metrics measured apart from the traced passes.
    fn side_metrics(&mut self, _metrics: &mut Metrics) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Median of a non-empty slice; the lower middle for even lengths, so the
/// value is always one that was measured.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Index of the smallest element of a non-empty slice: the fastest pass.
///
/// Pass times are reported by the fastest pass, not the median: on a
/// shared host, other machines' load slows the benchmark by up to half
/// for stretches of 10 to 30 seconds and never speeds it up, so the
/// median of a run follows how much of it was slowed, while the fastest
/// pass stays within a few percent from run to run.
fn fastest(values: &[f64]) -> usize {
    (0..values.len())
        .min_by(|a, b| values[*a].total_cmp(&values[*b]))
        .expect("at least one pass")
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set size, so the
/// next reading is the peak since now. Where the kernel refuses, `VmHWM`
/// stays the peak since the process started.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The benchmark's working directory inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// A traced pass: its wall time, spans, and clock interval.
struct TracedPass {
    wall_s: f64,
    spans: Vec<Span>,
    from_ns: u64,
    to_ns: u64,
    counts: Metrics,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !Path::new("perfbench").is_dir() {
        eprintln!("perfbench: run from the repository root");
        std::process::exit(2);
    }
    let out = out_dir();
    let tmp = out.join("tmp");
    std::fs::create_dir_all(&tmp).expect("create perfbench/out/tmp");
    // Everything the program writes stays inside the checkout.
    let tmp = std::fs::canonicalize(&tmp).expect("resolve perfbench/out/tmp");
    std::env::set_var("TMPDIR", &tmp);

    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "headline" => Box::<headline::Headline>::default(),
        "long_trace" => Box::new(long_trace::LongTrace::new(args.seed)),
        "fleet" => Box::new(fleet::Fleet::new(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        twig_sched::num_threads()
    );

    let tracer = Tracer::new(args.trace);
    let untraced = Tracer::new(false);

    // Set-up: rounds, median. Each round generates every program anew.
    let mut setup = Vec::new();
    let mut set_up = |workload: &mut dyn Workload, rounds: usize, seconds: f64| {
        let start = Instant::now();
        for round in 0.. {
            if round >= rounds && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let t = Instant::now();
            workload.setup(&untraced);
            setup.push(t.elapsed().as_secs_f64());
        }
    };
    set_up(workload.as_mut(), SETUP_ROUNDS, SETUP_SECONDS);

    // Timed passes. The traced run alternates untraced and traced passes
    // so the tracing overhead is measured against the same drift.
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut digest_mismatches = 0u64;
    let mut first_digest = None;
    let mut peaks = Vec::new();
    let mut index = 0usize;
    while index < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let traced_pass = args.trace && index % 2 == 1;
        let active = if traced_pass { &tracer } else { &untraced };
        set_up(workload.as_mut(), 1, SETUP_SLICE_SECONDS);
        reset_peak_rss();
        let from_ns = tracer.now_ns();
        let t = Instant::now();
        let pass = workload.pass(active);
        let wall = t.elapsed().as_secs_f64();
        let to_ns = tracer.now_ns();
        attempted += pass.attempted;
        failed += pass.failed;
        if *first_digest.get_or_insert(pass.digest) != pass.digest {
            digest_mismatches += 1;
        }
        if traced_pass {
            traced.push(TracedPass {
                wall_s: wall,
                spans: tracer.take(),
                from_ns,
                to_ns,
                counts: pass.counts,
            });
        } else {
            walls.push(wall);
            peaks.push(peak_rss_mib());
            rates.push(pass.sim_instr as f64 / wall / 1e6);
        }
        index += 1;
    }
    eprintln!(
        "perfbench: {} passes in {:.1}s, walls {:?}, peak MiB {:?}",
        index,
        start.elapsed().as_secs_f64(),
        walls
            .iter()
            .map(|w| (w * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        peaks
            .iter()
            .map(|p| (p * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );

    // Output checks, outside the timed region.
    let mut checks = workload.check();
    checks.push((
        "every pass's results digest matches the first pass's".to_string(),
        digest_mismatches == 0,
    ));
    attempted += checks.len() as u64;
    for (name, ok) in &checks {
        eprintln!(
            "perfbench: check {}: {name}",
            if *ok { "ok" } else { "FAILED" }
        );
        if !ok {
            failed += 1;
        }
    }

    let mut metrics = Metrics::default();
    if args.trace {
        let wall_untraced = walls[fastest(&walls)];
        let walls_traced: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        let chosen = &traced[fastest(&walls_traced)];
        layer_metrics(&mut metrics, chosen, median(&setup));
        metrics.set("perfbench.trace_overhead_s", chosen.wall_s - wall_untraced);
        workload.side_metrics(&mut metrics);
        let all: Vec<Span> = traced
            .iter()
            .flat_map(|p| p.spans.iter().cloned())
            .collect();
        let path = out.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        let process = format!("perfbench {} seed {}", args.workload, args.seed);
        if let Err(e) = std::fs::write(&path, spans::chrome_trace(&process, &all)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        } else {
            eprintln!("perfbench: chrome trace in {}", path.display());
        }
    } else {
        metrics.set("setup_s", median(&setup));
        let best = fastest(&walls);
        metrics.set("wall_s", walls[best]);
        metrics.set("sim_minstr_per_s", rates[best]);
        metrics.set("peak_rss_mib", median(&peaks));
    }
    drop(workload);
    let _ = std::fs::remove_dir_all(&tmp);

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                spans::json_str(name),
                json_num(metrics.get(name)),
                spans::json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    );
}

/// `twig_sched::parallel_map` inside a `parallel_map` span, with a `task`
/// span around each closure (its start marks the end of the item's
/// queue wait).
pub fn traced_map<T: Send, R: Send>(
    tracer: &Tracer,
    cell: &str,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let map = tracer.enter("twig-sched", "parallel_map", cell);
    let parent = map.id();
    twig_sched::parallel_map(items, |item| {
        let _adopted = tracer.adopt(parent);
        let _task = tracer.enter("twig-sched", "task", cell);
        f(item)
    })
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Sums span durations and work by span name.
fn by_name(spans: &[Span], name: &str) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, w), s| (t + s.seconds(), w + s.work))
}

/// The per-layer metrics of one traced pass.
fn layer_metrics(m: &mut Metrics, pass: &TracedPass, generate_s: f64) {
    let spans = &pass.spans;
    let (shares, uncovered) = spans::self_times(spans, pass.from_ns, pass.to_ns);
    for (layer, share) in LAYERS.iter().zip(shares) {
        m.set(format!("{layer}.self_s"), share);
    }
    let traced_wall = (pass.to_ns - pass.from_ns) as f64 * 1e-9;
    m.set("perfbench.other_s", uncovered);
    m.set("perfbench.traced_wall_s", traced_wall);

    let rate = |work: u64, secs: f64| {
        if secs > 0.0 {
            work as f64 / secs / 1e6
        } else {
            0.0
        }
    };
    m.set("twig-workload.generate_s", generate_s);
    let (walk_s, walk_events) = by_name(spans, "walk");
    m.set("twig-workload.walk_s", walk_s);
    m.set(
        "twig-workload.walk_mevents_per_s",
        rate(walk_events, walk_s),
    );
    let (spill_s, spill_bytes) = by_name(spans, "spill");
    m.set("twig-workload.spill_s", spill_s);
    m.set(
        "twig-workload.spill_mib_per_s",
        rate(spill_bytes, spill_s) * 1e6 / (1024.0 * 1024.0),
    );

    let (collect_s, samples) = by_name(spans, "collect_profile");
    m.set("twig-profile.collect_s", collect_s);
    m.set("twig-profile.samples", samples as f64);
    let (analyze_s, plans) = by_name(spans, "analyze");
    m.set("twig.analyze_s", analyze_s);
    m.set("twig.plans", plans as f64);
    let (rewrite_s, ops) = by_name(spans, "rewrite");
    m.set("twig.rewrite_s", rewrite_s);
    m.set("twig.brprefetch_ops", ops as f64);

    for system in ["baseline", "ideal", "btb32k", "twig", "twig-sw"] {
        let (s, instr) = by_name(spans, system);
        m.set(format!("twig-sim.{system}_s"), s);
        m.set(format!("twig-sim.{system}_minstr_per_s"), rate(instr, s));
    }
    for system in ["shotgun", "confluence"] {
        let (s, instr) = by_name(spans, system);
        m.set(format!("twig-prefetchers.{system}_s"), s);
        m.set(
            format!("twig-prefetchers.{system}_minstr_per_s"),
            rate(instr, s),
        );
    }
    let sim_s: f64 = spans
        .iter()
        .filter(|s| s.layer == "twig-sim")
        .map(Span::seconds)
        .sum();
    let events = pass.counts.get("twig-sim.events");
    m.set(
        "twig-sim.ns_per_event",
        if events > 0.0 {
            sim_s * 1e9 / events
        } else {
            0.0
        },
    );

    // Scheduler: every `task` span's queue wait is measured from the
    // start of the `parallel_map` call that ran it.
    let maps: Vec<&Span> = spans.iter().filter(|s| s.name == "parallel_map").collect();
    let mut wait = 0.0;
    let mut run = 0.0;
    for task in spans.iter().filter(|s| s.name == "task") {
        if let Some(map) = maps.iter().find(|m| Some(m.id) == task.parent) {
            wait += (task.start_ns - map.start_ns) as f64 * 1e-9;
            run += task.seconds();
        }
    }
    let map_wall: f64 = maps.iter().map(|s| s.seconds()).sum();
    let threads = twig_sched::num_threads() as f64;
    m.set("twig-sched.queue_wait_s", wait);
    m.set("twig-sched.run_s", run);
    m.set(
        "twig-sched.utilization",
        if map_wall > 0.0 {
            run / (threads * map_wall)
        } else {
            0.0
        },
    );

    for (name, value) in &pass.counts.0 {
        if name != "twig-sim.events" {
            m.set(name.clone(), *value);
        }
    }
    let generations = pass.counts.get("twig-fleet.generations");
    let (fleet_s, _) = by_name(spans, "run_fleet");
    m.set(
        "twig-fleet.generation_s",
        if generations > 0.0 {
            fleet_s / generations
        } else {
            0.0
        },
    );
}
