//! BTB system showdown: baseline vs Shotgun vs Confluence vs Twig vs
//! ideal, side by side on one application.
//!
//! ```text
//! cargo run --release -p twig-examples --bin btb_showdown [app] [instructions]
//! ```
//!
//! `app` is one of the nine paper applications (default `cassandra`).

use twig::{TwigConfig, TwigOptimizer};
use twig_prefetchers::{Confluence, Shotgun};
use twig_sim::{BtbSystem, PlainBtb, SimConfig, SimStats, Simulator};
use twig_workload::{AppId, InputConfig, MemSource, ProgramGenerator, Walker, WorkloadSpec};

fn main() {
    let app_name = std::env::args().nth(1).unwrap_or_else(|| "cassandra".into());
    let instructions: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    let Some(app) = AppId::ALL.iter().copied().find(|a| a.name() == app_name) else {
        eprintln!(
            "unknown app {app_name}; choose one of: {}",
            AppId::ALL.map(|a| a.name()).join(" ")
        );
        std::process::exit(2);
    };

    let spec = WorkloadSpec::preset(app);
    let config = SimConfig::paper_baseline(spec.backend_extra_cpki);
    let generator = ProgramGenerator::new(spec.clone());
    let program = generator.generate();
    let events =
        Walker::new(&program, InputConfig::numbered(1)).run_instructions(instructions);

    let run = |system: Box<dyn BtbSystem>, cfg: SimConfig| -> SimStats {
        let mut sim = Simulator::new(&program, cfg, system);
        sim.run(events.iter().copied(), instructions)
    };

    println!("app: {} | {} instructions | input #1", spec.name, instructions);
    println!(
        "{:<12} {:>8} {:>8} {:>10} {:>12} {:>10}",
        "system", "IPC", "MPKI", "resteers", "speedup%", "accuracy%"
    );
    let baseline = run(Box::new(PlainBtb::new(&config)), config);
    let show = |name: &str, stats: &SimStats| {
        println!(
            "{:<12} {:>8.3} {:>8.1} {:>10} {:>12.1} {:>10.1}",
            name,
            stats.ipc(),
            stats.btb_mpki(),
            stats.decode_resteers + stats.exec_resteers,
            (stats.ipc() / baseline.ipc() - 1.0) * 100.0,
            stats.prefetch_accuracy() * 100.0,
        );
    };
    show("baseline", &baseline);
    show("shotgun", &run(Box::new(Shotgun::new(&config)), config));
    show("confluence", &run(Box::new(Confluence::new(&config)), config));

    // Twig: profile on input #0, rewrite, rerun the same input-#1 events.
    let optimizer = TwigOptimizer::new(TwigConfig::default());
    let train = Walker::new(&program, InputConfig::numbered(0)).run_instructions(instructions);
    let (profile, _) = optimizer.collect_profile_and_stats_from_source(
        &program,
        config,
        &MemSource::from(train),
        instructions,
    );
    let plans = optimizer.analyze_for(&profile, &program);
    let optimized = optimizer.rewrite_of(&program, &generator.layout_options(), &plans);
    let twig_stats = {
        let mut sim = Simulator::new(&optimized.program, config, PlainBtb::new(&config));
        sim.run(events.iter().copied(), instructions)
    };
    show("twig", &twig_stats);

    let ideal_cfg = SimConfig {
        ideal_btb: true,
        ..config
    };
    show("ideal-btb", &run(Box::new(PlainBtb::new(&ideal_cfg)), ideal_cfg));
    println!(
        "\ntwig injected {} brprefetch + {} brcoalesce ops ({} table entries, {:+.2}% text)",
        optimized.rewrite.brprefetch_ops,
        optimized.rewrite.brcoalesce_ops,
        optimized.rewrite.coalesce_entries,
        optimized.rewrite.static_overhead() * 100.0
    );
}
