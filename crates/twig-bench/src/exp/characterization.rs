//! §2 characterization experiments: Figs. 1–12.

use twig_profile::{classify_streams_windowed, SpatialRangeAnalyzer, ThreeCClassifier, TopDownRow};
use twig_sim::{
    speedup_percent, BtbGeometry, HistoryEntry, MissObserver, PlainBtb, SimConfig, Simulator,
};
use twig_types::{BlockId, BranchKind};
use twig_workload::{AppId, WorkingSet};

use crate::runner::{for_all_apps, headline, run_system, table, AppSetup, ExpContext};

/// Fig. 1: Top-Down pipeline-slot breakdown per application.
pub fn fig01(ctx: &ExpContext) -> String {
    let mut out = String::from(
        "Fig. 1 — Top-Down pipeline slots (paper: 24-78% frontend-bound)\n",
    );
    let rows = headline(ctx)
        .iter()
        .map(|row| {
            let values = row.baseline.values(4, |stats| {
                let td = TopDownRow::from_stats(row.app.name(), stats);
                vec![
                    td.frontend_bound * 100.0,
                    td.bad_speculation * 100.0,
                    td.backend_bound * 100.0,
                    td.retiring * 100.0,
                ]
            });
            (row.app, values)
        })
        .collect::<Vec<_>>();
    out.push_str(&table(&["frontend%", "badspec%", "backend%", "retiring%"], &rows));
    out
}

/// Fig. 2: limit study — ideal I-cache vs ideal BTB speedup over FDIP.
pub fn fig02(ctx: &ExpContext) -> String {
    let budget = ctx.instructions;
    let mut out = String::from(
        "Fig. 2 — limit study (paper: ideal I$ +24% avg, ideal BTB +31% avg)\n",
    );
    let rows = for_all_apps(|app| {
        let setup = AppSetup::shared(app);
        let events = setup.events(1, budget);
        // The baseline and ideal-BTB runs are the headline matrix's
        // `baseline`/`ideal` cells; only the ideal-I$ run is unique to
        // this figure. All three share through the sim-result shard.
        let run = |name: &str, cfg: SimConfig| {
            crate::cache::global().sim_stats(app, 1, budget, name, &cfg, || {
                run_system(&setup.program, Box::new(PlainBtb::new(&cfg)), cfg, &events, budget)
            })
        };
        let base = run("baseline", setup.sim_config);
        let ic_cfg = SimConfig {
            ideal_icache: true,
            ..setup.sim_config
        };
        let ic = run("ideal-icache", ic_cfg);
        let ib_cfg = SimConfig {
            ideal_btb: true,
            ..setup.sim_config
        };
        let ib = run("ideal", ib_cfg);
        vec![
            speedup_percent(&base, &ic),
            speedup_percent(&base, &ib),
        ]
    });
    out.push_str(&table(&["idealI$%", "idealBTB%"], &rows));
    out.push_str(
        "note: for the service apps both limits are large and I$ exceeds BTB\n\
         because the synthetic flat-churn footprint thrashes the L1i harder\n\
         than real binaries do (see EXPERIMENTS.md); the BTB-side ordering\n\
         across systems — the paper's subject — is unaffected.\n",
    );
    out
}

/// Fig. 3: BTB MPKI per application.
pub fn fig03(ctx: &ExpContext) -> String {
    let mut out = String::from("Fig. 3 — BTB MPKI (paper: 8-121, avg 29.7)\n");
    let rows = headline(ctx)
        .iter()
        .map(|row| (row.app, vec![row.baseline.value(|s| s.btb_mpki())]))
        .collect::<Vec<_>>();
    out.push_str(&table(&["MPKI"], &rows));
    out
}

fn three_c_rows(
    apps: &[AppId],
    geometry: BtbGeometry,
    budget: u64,
) -> Vec<(AppId, twig_profile::ThreeCBreakdown)> {
    apps.iter()
        .map(|&app| {
            let setup = AppSetup::shared(app);
            let mut classifier = ThreeCClassifier::new(geometry);
            for ev in setup.events(1, budget) {
                if !ev.taken {
                    continue;
                }
                if let Some(rec) = ev.branch_record(&setup.program) {
                    if let Some(target) = rec.outcome.target() {
                        classifier.access(rec.pc, target, rec.kind);
                    }
                }
            }
            (app, classifier.into_breakdown())
        })
        .collect()
}

/// Fig. 4: 3C classification of BTB misses at the 8K-entry baseline.
pub fn fig04(ctx: &ExpContext) -> String {
    let mut out = String::from(
        "Fig. 4 — 3C breakdown of BTB misses (paper: ~70% capacity, ~24% conflict)\n",
    );
    let rows: Vec<(AppId, Vec<f64>)> =
        three_c_rows(&AppId::ALL, BtbGeometry::new(8192, 4), ctx.instructions)
            .into_iter()
            .map(|(app, b)| {
                let (comp, cap, conf) = b.fractions();
                (app, vec![comp * 100.0, cap * 100.0, conf * 100.0])
            })
            .collect();
    out.push_str(&table(&["compulsory%", "capacity%", "conflict%"], &rows));
    out
}

/// Fig. 5: capacity-miss share vs BTB size, three applications.
pub fn fig05(ctx: &ExpContext) -> String {
    let apps = [AppId::Cassandra, AppId::FinagleHttp, AppId::Verilator];
    let mut out = String::from(
        "Fig. 5 — % capacity misses vs BTB entries (paper: ~32K+ needed)\n",
    );
    out.push_str(&format!("{:<16}", "app"));
    for size in [2048, 4096, 8192, 16384, 32768, 65536] {
        out.push_str(&format!(" {:>9}", format!("{}K", size / 1024)));
    }
    out.push('\n');
    for app in apps {
        out.push_str(&format!("{:<16}", app.name()));
        for size in [2048usize, 4096, 8192, 16384, 32768, 65536] {
            let rows = three_c_rows(&[app], BtbGeometry::new(size, 4), ctx.sweep_instructions);
            let (_, cap, _) = rows[0].1.fractions();
            out.push_str(&format!(" {:>9.1}", cap * 100.0));
        }
        out.push('\n');
    }
    out
}

/// Fig. 6: conflict-miss share vs associativity, three applications.
pub fn fig06(ctx: &ExpContext) -> String {
    let apps = [AppId::Cassandra, AppId::FinagleHttp, AppId::Verilator];
    let mut out = String::from(
        "Fig. 6 — % conflict misses vs associativity (paper: 128-way needed)\n",
    );
    out.push_str(&format!("{:<16}", "app"));
    for ways in [4, 8, 16, 32, 64, 128] {
        out.push_str(&format!(" {:>9}", format!("{ways}w")));
    }
    out.push('\n');
    for app in apps {
        out.push_str(&format!("{:<16}", app.name()));
        for ways in [4usize, 8, 16, 32, 64, 128] {
            let rows = three_c_rows(&[app], BtbGeometry::new(8192, ways), ctx.sweep_instructions);
            let (_, _, conf) = rows[0].1.fractions();
            out.push_str(&format!(" {:>9.2}", conf * 100.0));
        }
        out.push('\n');
    }
    out
}

fn kind_shares(counts: &[u64; 6]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    BranchKind::ALL
        .iter()
        .map(|k| counts[k.index()] as f64 / total.max(1) as f64 * 100.0)
        .collect()
}

/// Fig. 7: BTB accesses by branch type.
pub fn fig07(ctx: &ExpContext) -> String {
    let mut out = String::from(
        "Fig. 7 — BTB accesses by branch type (paper: conditionals dominate)\n",
    );
    let rows = headline(ctx)
        .iter()
        .map(|row| (row.app, row.baseline.values(6, |s| kind_shares(&s.btb_accesses))))
        .collect::<Vec<_>>();
    out.push_str(&table(
        &["cond%", "jmp%", "call%", "ijmp%", "icall%", "ret%"],
        &rows,
    ));
    out
}

/// Fig. 8: BTB misses by branch type.
pub fn fig08(ctx: &ExpContext) -> String {
    let mut out = String::from(
        "Fig. 8 — BTB misses by branch type (paper: uncond+calls 20.75% of\n\
         dynamic branches but 37.5% of misses)\n",
    );
    let rows = headline(ctx)
        .iter()
        .map(|row| (row.app, row.baseline.values(6, |s| kind_shares(&s.btb_misses))))
        .collect::<Vec<_>>();
    out.push_str(&table(
        &["cond%", "jmp%", "call%", "ijmp%", "icall%", "ret%"],
        &rows,
    ));
    // Aggregate: unconditional-direct share of accesses vs misses.
    let (mut acc_u, mut acc_t, mut miss_u, mut miss_t) = (0u64, 0u64, 0u64, 0u64);
    for row in headline(ctx) {
        // Aggregate over the rows whose baseline survived.
        let Some(baseline) = row.baseline.stats() else {
            continue;
        };
        for k in BranchKind::ALL {
            let a = baseline.btb_accesses[k.index()];
            let m = baseline.btb_misses[k.index()];
            acc_t += a;
            miss_t += m;
            if k.is_unconditional() && k.is_direct() {
                acc_u += a;
                miss_u += m;
            }
        }
    }
    out.push_str(&format!(
        "unconditional direct branches: {:.1}% of accesses, {:.1}% of misses\n",
        acc_u as f64 / acc_t.max(1) as f64 * 100.0,
        miss_u as f64 / miss_t.max(1) as f64 * 100.0,
    ));
    out
}

/// Fig. 9: Shotgun and Confluence speedups over the FDIP baseline.
pub fn fig09(ctx: &ExpContext) -> String {
    let mut out = String::from(
        "Fig. 9 — hardware BTB prefetcher speedups (paper: ~1% avg)\n",
    );
    let rows = headline(ctx)
        .iter()
        .map(|row| {
            (
                row.app,
                vec![
                    row.speedup_of(&row.shotgun),
                    row.speedup_of(&row.confluence),
                ],
            )
        })
        .collect::<Vec<_>>();
    out.push_str(&table(&["shotgun%", "confluence%"], &rows));
    out
}

/// Records the sequence of BTB miss sites.
struct MissSequence(Vec<BlockId>);

impl MissObserver for MissSequence {
    fn on_btb_miss(&mut self, block: BlockId, _: BranchKind, _: &[HistoryEntry], _: u64) {
        self.0.push(block);
    }
}

/// Fig. 10: temporal-stream classification of BTB misses.
pub fn fig10(ctx: &ExpContext) -> String {
    let budget = ctx.instructions;
    let mut out = String::from(
        "Fig. 10 — BTB miss temporal streams (paper: ~52% recurring,\n\
         ~36% new, ~12% non-repetitive)\n",
    );
    let rows = for_all_apps(|app| {
        let setup = AppSetup::shared(app);
        let events = setup.events(1, budget);
        let mut seq = MissSequence(Vec::new());
        let mut sim = Simulator::new(
            &setup.program,
            setup.sim_config,
            PlainBtb::new(&setup.sim_config),
        );
        sim.run_observed(events, budget, &mut seq);
        // Window 12, matching the SHIFT replay depth the baselines use.
        let b = classify_streams_windowed(&seq.0, 12);
        let (r, n, x) = b.fractions();
        vec![r * 100.0, n * 100.0, x * 100.0]
    });
    out.push_str(&table(&["recurring%", "new%", "nonrep%"], &rows));
    out
}

/// Fig. 11: unconditional-branch working set vs Shotgun's 5120-entry U-BTB.
pub fn fig11(ctx: &ExpContext) -> String {
    let budget = ctx.instructions;
    let mut out = String::from(
        "Fig. 11 — unconditional-branch working set (Shotgun U-BTB = 5120)\n",
    );
    let rows = for_all_apps(|app| {
        let setup = AppSetup::shared(app);
        let mut ws = WorkingSet::new();
        for ev in setup.events(1, budget) {
            ws.observe(&setup.program, ev);
        }
        vec![
            ws.unconditional_branch_sites() as f64,
            ws.unconditional_branch_sites() as f64 / 5120.0,
        ]
    });
    out.push_str(&table(&["uncondWS", "xU-BTB"], &rows));
    out
}

/// Fig. 12: conditional branches outside Shotgun's 8-line spatial range.
pub fn fig12(ctx: &ExpContext) -> String {
    let budget = ctx.instructions;
    let mut out = String::from(
        "Fig. 12 — conditionals outside Shotgun's 8-line range (paper: 26-45%)\n",
    );
    let rows = for_all_apps(|app| {
        let setup = AppSetup::shared(app);
        let mut analyzer = SpatialRangeAnalyzer::new();
        for ev in setup.events(1, budget) {
            analyzer.observe(&setup.program, ev);
        }
        vec![analyzer.finish().out_of_range_fraction() * 100.0]
    });
    out.push_str(&table(&["outOfRange%"], &rows));
    out
}
