//! Extension experiments beyond the paper's own figures.
//!
//! `ext01` tests the §5 claim that Twig "is independent of the underlying
//! BTB and should be just as effective" with compressed/alternative BTB
//! organizations: every [`BtbSystem`] that embeds the software-prefetch
//! engine is evaluated with and without Twig's injected instructions.
//!
//! `ext02` measures the related-work BTB organizations (Phantom-BTB,
//! two-level bulk preload) against the same baseline, locating them in the
//! same design space the paper surveys.

use twig::{TwigConfig, TwigOptimizer};
use twig_sim::{speedup_percent, BtbSystem, SimConfig};
use twig_workload::AppId;

use crate::runner::{run_system, AppSetup, ExpContext};

/// Apps used for the extension studies.
const EXT_APPS: [AppId; 3] = [AppId::Kafka, AppId::Cassandra, AppId::Verilator];

/// Constructs a registered system (these sweeps select by name, so they
/// go through the shared factory rather than per-callsite constructors).
fn system(name: &str, config: &SimConfig) -> Box<dyn BtbSystem> {
    twig_prefetchers::by_name(name, config).expect("registered prefetcher")
}

/// ext01 — Twig on top of different BTB organizations.
pub fn ext01(ctx: &ExpContext) -> String {
    let budget = ctx.sweep_instructions;
    let mut out = String::from(
        "ext01 — Twig is independent of the BTB organization (§5 claim):\n\
         speedup of each organization without / with Twig's instructions\n",
    );
    out.push_str(&format!(
        "{:<12} {:>14} {:>14} {:>14} {:>14}\n",
        "app", "plain", "plain+twig", "btb-x", "btb-x+twig"
    ));
    for app in EXT_APPS {
        let setup = AppSetup::shared(app);
        let config = setup.sim_config;
        let optimizer = TwigOptimizer::new(TwigConfig::default());
        let profile = crate::cache::global().profile(app, 0, budget, &config);
        let optimized = optimizer.rewrite_of(
            &setup.program,
            &setup.generator.layout_options(),
            &optimizer.analyze_for(&profile, &setup.program),
        );
        let events = setup.events(1, budget);

        let base = run_system(
            &setup.program,
            system("twig", &config),
            config,
            &events,
            budget,
        );
        let plain_twig = run_system(
            &optimized.program,
            system("twig", &config),
            config,
            &events,
            budget,
        );
        let btbx = run_system(
            &setup.program,
            system("btbx", &config),
            config,
            &events,
            budget,
        );
        let btbx_twig = run_system(
            &optimized.program,
            system("btbx", &config),
            config,
            &events,
            budget,
        );
        out.push_str(&format!(
            "{:<12} {:>13.1}% {:>13.1}% {:>13.1}% {:>13.1}%\n",
            app.name(),
            0.0,
            speedup_percent(&base, &plain_twig),
            speedup_percent(&base, &btbx),
            speedup_percent(&base, &btbx_twig),
        ));
    }
    out.push_str(
        "expectation: the +twig columns add a comparable increment on both\n\
         organizations, and btb-x+twig stacks both benefits.\n",
    );
    out
}

/// ext02 — related-work BTB organizations under the same frontend.
pub fn ext02(ctx: &ExpContext) -> String {
    let budget = ctx.sweep_instructions;
    let mut out = String::from(
        "ext02 — related-work BTB organizations (speedup over the plain\n\
         8K-entry baseline; §5's survey, implemented)\n",
    );
    out.push_str(&format!(
        "{:<12} {:>14} {:>14} {:>14}\n",
        "app", "btb-x", "phantom-btb", "two-level"
    ));
    for app in EXT_APPS {
        let setup = AppSetup::shared(app);
        let config = setup.sim_config;
        let events = setup.events(1, budget);
        let base = run_system(
            &setup.program,
            system("twig", &config),
            config,
            &events,
            budget,
        );
        let btbx = run_system(
            &setup.program,
            system("btbx", &config),
            config,
            &events,
            budget,
        );
        let phantom = run_system(
            &setup.program,
            system("phantom", &config),
            config,
            &events,
            budget,
        );
        let two_level = run_system(
            &setup.program,
            system("bulk", &config),
            config,
            &events,
            budget,
        );
        out.push_str(&format!(
            "{:<12} {:>13.1}% {:>13.1}% {:>13.1}%\n",
            app.name(),
            speedup_percent(&base, &btbx),
            speedup_percent(&base, &phantom),
            speedup_percent(&base, &two_level),
        ));
    }
    out
}
