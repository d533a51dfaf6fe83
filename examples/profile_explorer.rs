//! Profile explorer: inspect what an LBR-style BTB-miss profile contains
//! and how Twig turns it into injection sites.
//!
//! ```text
//! cargo run --release -p twig-examples --bin profile_explorer [app]
//! ```

use twig::{TwigConfig, TwigOptimizer};
use twig_profile::classify_streams;
use twig_sim::SimConfig;
use twig_workload::{AppId, InputConfig, MemSource, ProgramGenerator, Walker, WorkloadSpec};

fn main() {
    let app_name = std::env::args().nth(1).unwrap_or_else(|| "tomcat".into());
    let Some(app) = AppId::ALL.iter().copied().find(|a| a.name() == app_name) else {
        eprintln!("unknown app {app_name}");
        std::process::exit(2);
    };
    let instructions = 1_000_000;

    let spec = WorkloadSpec::preset(app);
    let config = SimConfig::paper_baseline(spec.backend_extra_cpki);
    let generator = ProgramGenerator::new(spec.clone());
    let program = generator.generate();
    let optimizer = TwigOptimizer::new(TwigConfig::default());

    let train = Walker::new(&program, InputConfig::numbered(0)).run_instructions(instructions);
    let (profile, _) = optimizer.collect_profile_and_stats_from_source(
        &program,
        config,
        &MemSource::from(train),
        instructions,
    );
    println!(
        "profile of {}: {} miss samples over {} instructions",
        spec.name,
        profile.num_samples(),
        profile.instructions
    );

    let histogram = profile.miss_histogram();
    println!("distinct miss branches: {}", histogram.len());
    println!("\nhottest 10 miss branches:");
    for (block, count) in histogram.iter().take(10) {
        let b = program.block(*block);
        println!(
            "  {} at {}  kind {:<5} missed {} times",
            block,
            b.branch_pc(),
            b.branch_kind().map(|k| k.mnemonic()).unwrap_or("?"),
            count
        );
    }

    // Temporal-stream structure of the miss sequence (Fig. 10's analysis).
    let seq: Vec<_> = profile.samples().iter().map(|s| s.branch_block).collect();
    let (rec, new, nonrep) = classify_streams(&seq).fractions();
    println!(
        "\nmiss streams: {:.0}% recurring, {:.0}% new, {:.0}% non-repetitive",
        rec * 100.0,
        new * 100.0,
        nonrep * 100.0
    );

    // Injection-site analysis.
    let plans = optimizer.analyze_for(&profile, &program);
    let covered: u64 = plans.iter().map(|p| p.covered_samples()).sum();
    println!(
        "\nanalysis: {} plans covering {} of {} samples",
        plans.len(),
        covered,
        profile.num_samples()
    );
    println!("example plans (miss <- sites with conditional probabilities):");
    for plan in plans.iter().take(5) {
        print!("  {} <-", plan.branch_block);
        for site in &plan.sites {
            print!("  {} (P={:.2})", site.site, site.conditional_prob);
        }
        println!();
    }
}
