//! §4.3 sensitivity analyses: Figs. 23–28 and Table 1.
//!
//! Each sweep reruns the full profile → rewrite → evaluate pipeline per
//! configuration (the profile legitimately depends on BTB geometry), and
//! reports Twig's speedup as a percentage of the ideal-BTB speedup at the
//! same configuration, averaged across applications — the paper's y-axis.

use twig::{TwigConfig, TwigOptimizer};
use twig_sim::{speedup_percent, BtbSystem, PlainBtb, SimConfig, Simulator};
use twig_workload::AppId;

use crate::runner::{run_system, AppSetup, ExpContext};

/// Per-configuration result of one sweep point, averaged over apps.
#[derive(Clone, Copy)]
struct SweepPoint {
    twig_pct_of_ideal: f64,
    shotgun_pct_of_ideal: f64,
    confluence_pct_of_ideal: f64,
}

/// The applications used for the expensive sweeps (one small, one mid,
/// one extreme — the paper plots averages over all nine; three keep the
/// regeneration time reasonable while preserving the shape).
const SWEEP_APPS: [AppId; 3] = [AppId::Kafka, AppId::Cassandra, AppId::Verilator];

/// Runs one sweep point: Twig/Shotgun/Confluence as % of the ideal-BTB
/// speedup under `config` (with `twig_config` driving the optimization).
///
/// A point is a pure function of the per-app simulator configurations,
/// the optimizer configuration, and the budget — and every sweep includes
/// the paper's default configuration as one of its points, so the default
/// point recurs across Figs. 23–28. Whole points are memoized on that key.
fn sweep_point(
    config_of: impl Fn(&AppSetup) -> SimConfig + Sync,
    twig_config: TwigConfig,
    budget: u64,
) -> SweepPoint {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static MEMO: OnceLock<Mutex<HashMap<String, SweepPoint>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let key = {
        let mut k = format!("{twig_config:?}|{budget}");
        for app in SWEEP_APPS {
            k.push_str(&format!("|{:?}", config_of(&AppSetup::shared(app))));
        }
        k
    };
    if let Some(point) = memo.lock().unwrap().get(&key).copied() {
        return point;
    }
    let results: Vec<(f64, f64, f64)> =
        twig_sched::parallel_map(SWEEP_APPS.to_vec(), |app| {
            let setup = AppSetup::shared(app);
            let config = config_of(&setup);
            let optimizer = TwigOptimizer::new(twig_config);
            let profile = crate::cache::global().profile(app, 0, budget, &config);
            let optimized = optimizer.rewrite_of(
                &setup.program,
                &setup.generator.layout_options(),
                &optimizer.analyze_for(&profile, &setup.program),
            );
            let events = setup.events(1, budget);
            // `baseline` and `ideal` are cell names: both run the plain BTB
            // (the ideal cell through `ideal_btb`).
            let system = |name: &str, cfg: &SimConfig| -> Box<dyn BtbSystem> {
                match name {
                    "baseline" | "ideal" => Box::new(PlainBtb::new(cfg)),
                    _ => twig_prefetchers::by_name(name, cfg).expect("registered prefetcher"),
                }
            };
            // The reference/competitor runs depend only on (app, config,
            // budget) — identical across every sweep point that varies
            // only the Twig optimizer's knobs (all of Figs. 26/27) — so
            // they go through the artifact cache's sim-result shard.
            let run = |name: &str, cfg: SimConfig| {
                crate::cache::global().sim_stats(app, 1, budget, name, &cfg, || {
                    run_system(&setup.program, system(name, &cfg), cfg, &events, budget)
                })
            };
            let baseline = run("baseline", config);
            let ideal_cfg = SimConfig {
                ideal_btb: true,
                ..config
            };
            let ideal = run("ideal", ideal_cfg);
            let shotgun = run("shotgun", config);
            let confluence = run("confluence", config);
            let twig = {
                let mut sim = Simulator::new(&optimized.program, config, PlainBtb::new(&config));
                sim.run(events.clone(), budget)
            };
            // Degenerate configurations (e.g. a 1-entry FTQ) can leave the
            // ideal BTB with ~0% headroom; clamp the denominator so the
            // ratio stays readable instead of exploding.
            let ideal_pct = speedup_percent(&baseline, &ideal).max(2.0);
            (
                speedup_percent(&baseline, &twig) / ideal_pct * 100.0,
                speedup_percent(&baseline, &shotgun) / ideal_pct * 100.0,
                speedup_percent(&baseline, &confluence) / ideal_pct * 100.0,
            )
        });
    let n = results.len() as f64;
    let point = SweepPoint {
        twig_pct_of_ideal: results.iter().map(|r| r.0).sum::<f64>() / n,
        shotgun_pct_of_ideal: results.iter().map(|r| r.1).sum::<f64>() / n,
        confluence_pct_of_ideal: results.iter().map(|r| r.2).sum::<f64>() / n,
    };
    memo.lock().unwrap().insert(key, point);
    point
}

fn sweep_table(
    title: &str,
    labels: &[String],
    points: Vec<SweepPoint>,
) -> String {
    let mut out = String::from(title);
    out.push_str(&format!(
        "{:<12} {:>14} {:>14} {:>14}\n",
        "config", "twig%ofIdeal", "shotgun%", "confluence%"
    ));
    for (label, p) in labels.iter().zip(points) {
        out.push_str(&format!(
            "{:<12} {:>14.1} {:>14.1} {:>14.1}\n",
            label, p.twig_pct_of_ideal, p.shotgun_pct_of_ideal, p.confluence_pct_of_ideal
        ));
    }
    out
}

/// Fig. 23: sensitivity to BTB capacity (2K–64K entries).
pub fn fig23(ctx: &ExpContext) -> String {
    let sizes = [2048usize, 4096, 8192, 16384, 32768, 65536];
    let points = twig_sched::parallel_map(sizes.to_vec(), |size| {
        sweep_point(
            |setup| setup.sim_config.with_btb_entries(size),
            TwigConfig::default(),
            ctx.sweep_instructions,
        )
    });
    sweep_table(
        "Fig. 23 — % of ideal vs BTB entries (paper: Twig leads at all sizes)\n",
        &sizes.iter().map(|s| format!("{}K", s / 1024)).collect::<Vec<_>>(),
        points,
    )
}

/// Fig. 24: sensitivity to BTB associativity (4–128 ways).
pub fn fig24(ctx: &ExpContext) -> String {
    let ways = [4usize, 8, 16, 32, 64, 128];
    let points = twig_sched::parallel_map(ways.to_vec(), |w| {
        sweep_point(
            |setup| setup.sim_config.with_btb_ways(w),
            TwigConfig::default(),
            ctx.sweep_instructions,
        )
    });
    sweep_table(
        "Fig. 24 — % of ideal vs BTB associativity (paper: Twig leads at all)\n",
        &ways.iter().map(|w| format!("{w}-way")).collect::<Vec<_>>(),
        points,
    )
}

/// Fig. 25: sensitivity to the prefetch buffer size (8–256 entries).
pub fn fig25(ctx: &ExpContext) -> String {
    let sizes = [8usize, 16, 32, 64, 128, 256];
    let points = twig_sched::parallel_map(sizes.to_vec(), |size| {
        sweep_point(
            |setup| SimConfig {
                prefetch_buffer_entries: size,
                ..setup.sim_config
            },
            TwigConfig::default(),
            ctx.sweep_instructions,
        )
    });
    sweep_table(
        "Fig. 25 — % of ideal vs prefetch-buffer entries (paper: Twig scales\n\
         to ~128; Shotgun/Confluence flat)\n",
        &sizes.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        points,
    )
}

/// Fig. 26: sensitivity to the prefetch distance (0–50 cycles); Twig only.
pub fn fig26(ctx: &ExpContext) -> String {
    let distances = [0u64, 5, 10, 15, 20, 25, 30, 40, 50];
    let mut out = String::from(
        "Fig. 26 — Twig %% of ideal vs prefetch distance (paper: best 15-25)\n",
    );
    out.push_str(&format!("{:<12} {:>14}\n", "distance", "twig%ofIdeal"));
    let mut points = Vec::new();
    for &d in &distances {
        let p = sweep_point(
            |setup| setup.sim_config,
            TwigConfig {
                prefetch_distance: d,
                ..TwigConfig::default()
            },
            ctx.sweep_instructions,
        );
        out.push_str(&format!("{:<12} {:>14.1}\n", d, p.twig_pct_of_ideal));
        points.push((d as f64, p.twig_pct_of_ideal));
    }
    out.push('\n');
    out.push_str(&crate::chart::line_plot(&points, 54, 10));
    out
}

/// Fig. 27: sensitivity to the coalesce bitmask width (1–64 bits),
/// reported as the *coalescing contribution* (full Twig minus
/// software-only) as % of ideal.
pub fn fig27(ctx: &ExpContext) -> String {
    let widths = [1u32, 2, 4, 8, 16, 32, 64];
    let mut out = String::from(
        "Fig. 27 — coalescing gain vs bitmask width (paper: 8 bits suffice)\n",
    );
    out.push_str(&format!(
        "{:<12} {:>14} {:>16}\n",
        "bits", "twig%ofIdeal", "coalesceGain%"
    ));
    let budget = ctx.sweep_instructions;
    // Software-only reference per sweep app set.
    let sw = sweep_point(
        |setup| setup.sim_config,
        TwigConfig::software_prefetch_only(),
        budget,
    );
    for &w in &widths {
        let p = sweep_point(
            |setup| setup.sim_config,
            TwigConfig {
                coalesce_bitmask_bits: w,
                ..TwigConfig::default()
            },
            budget,
        );
        out.push_str(&format!(
            "{:<12} {:>14.1} {:>16.1}\n",
            w,
            p.twig_pct_of_ideal,
            p.twig_pct_of_ideal - sw.twig_pct_of_ideal
        ));
    }
    out.push_str(&format!(
        "{:<12} {:>14.1} (software prefetching only)\n",
        "none", sw.twig_pct_of_ideal
    ));
    out
}

/// Fig. 28: sensitivity to the FTQ depth (1–64 regions).
pub fn fig28(ctx: &ExpContext) -> String {
    let depths = [1usize, 2, 4, 8, 16, 24, 32, 64];
    let points = twig_sched::parallel_map(depths.to_vec(), |d| {
        sweep_point(
            |setup| SimConfig {
                ftq_entries: d,
                ..setup.sim_config
            },
            TwigConfig::default(),
            ctx.sweep_instructions,
        )
    });
    sweep_table(
        "Fig. 28 — % of ideal vs FTQ depth (paper: Twig stable at all depths)\n",
        &depths.iter().map(|d| d.to_string()).collect::<Vec<_>>(),
        points,
    )
}

/// Table 1: the simulator parameters actually used.
pub fn tab01(_ctx: &ExpContext) -> String {
    let c = SimConfig::default();
    let mut out = String::from("Table 1 — simulator parameters\n");
    out.push_str(&format!(
        "CPU:            {}-wide OOO, {}-entry FTQ (regions of up to {} instrs),\n",
        c.retire_width, c.ftq_entries, c.region_max_instrs
    ));
    out.push_str(&format!(
        "                {}-entry ROB, decode pipe {} cycles, exec pipe {} cycles\n",
        c.rob_entries, c.decode_pipe, c.exec_pipe
    ));
    out.push_str(&format!(
        "BPU:            TAGE-like 64KB-class (+gshare/oracle options),\n\
         \x20               {}-entry {}-way BTB, {}-entry RAS, {}-entry {}-way IBTB,\n\
         \x20               {}-entry prefetch buffer\n",
        c.btb.entries, c.btb.ways, c.ras_entries, c.ibtb.entries, c.ibtb.ways,
        c.prefetch_buffer_entries
    ));
    out.push_str(&format!(
        "Memory:         {}KB {}-way L1i ({} cyc), {}MB {}-way L2 ({} cyc),\n\
         \x20               {}MB {}-way L3 ({} cyc), memory {} cyc\n",
        c.l1i.bytes / 1024,
        c.l1i.ways,
        c.l1i_latency,
        c.l2.bytes / (1024 * 1024),
        c.l2.ways,
        c.l2_latency,
        c.l3.bytes / (1024 * 1024),
        c.l3.ways,
        c.l3_latency,
        c.mem_latency
    ));
    out
}
