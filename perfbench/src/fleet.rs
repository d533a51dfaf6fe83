//! `fleet`: the continuous-PGO loop, `twig_fleet::run_fleet`, with four
//! tenants built from real app presets and two service workers, run for a
//! fixed number of layout generations.
//!
//! The seed derives the tenants' seeds (their phase rotation and input
//! skew). `run_fleet` is measured from outside as one span: the profile,
//! analysis, rewrite and simulation calls it makes happen inside it.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use twig_fleet::{run_fleet, FleetConfig, TenantSpec};
use twig_sched::FaultSpec;
use twig_sim::SimConfig;
use twig_workload::{AppId, LoadPhase, PhaseSchedule, WorkloadSpec};

use crate::headline::generate;
use crate::spans::Tracer;
use crate::{Metrics, Pass, Workload};

/// The tenants' apps.
const APPS: [AppId; 4] = [
    AppId::Kafka,
    AppId::Tomcat,
    AppId::Cassandra,
    AppId::FinagleHttp,
];
/// Full-phase profiling budget per generation, instructions. Half of
/// `headline`'s budget keeps a pass near 1.5 s, so a run has about 15
/// passes to take the fastest of; at 500k it had about 10, and the
/// fastest pass spread twice as much between seeds.
pub const INSTRUCTIONS: u64 = 250_000;
/// Layout generations every tenant runs.
pub const GENERATIONS: u64 = 6;
/// Service workers of the timed passes.
const WORKERS: usize = 2;

pub struct Fleet {
    tenants: Vec<TenantSpec>,
    /// Manifest JSON of the first pass.
    first: Option<String>,
}

/// SplitMix64 finalizer: spreads consecutive seeds over the tenant seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn config(workers: usize) -> FleetConfig {
    FleetConfig {
        workers,
        max_generations: GENERATIONS,
        // A fixed horizon: the convergence watchdog never retires a
        // tenant, so every seed runs the same number of profile jobs.
        converge_after: u32::MAX,
        instructions: INSTRUCTIONS,
        btb_entries: SimConfig::default().btb.entries,
        faults: Arc::new(FaultSpec::none()),
        ..FleetConfig::demo()
    }
}

impl Fleet {
    pub fn new(seed: u64) -> Self {
        let tenants = APPS
            .iter()
            .enumerate()
            .map(|(i, &app)| {
                // Tenants are staggered over the diurnal cycle: tenant i
                // starts in phase i mod 3. The seed draws the rest (the
                // input skew) from the seeds with that starting phase.
                let phase = LoadPhase::ALL[i % LoadPhase::ALL.len()];
                let seed = (0..)
                    .map(|k| mix(seed ^ mix(((i as u64) << 32) | k)))
                    .find(|&s| PhaseSchedule::diurnal(s).phase_at(0) == phase)
                    .expect("every phase has seeds");
                TenantSpec {
                    name: app.name().to_string(),
                    seed,
                    spec: WorkloadSpec::preset(app),
                }
            })
            .collect();
        Fleet {
            tenants,
            first: None,
        }
    }

    fn run(&self, workers: usize) -> Result<(twig_fleet::FleetOutcome, String), String> {
        let outcome = run_fleet(&self.tenants, &config(workers))?;
        let json = outcome.manifest.to_json()?;
        Ok((outcome, json))
    }
}

impl Workload for Fleet {
    fn setup(&mut self, tracer: &Tracer) {
        // The generation `run_fleet` performs for every tenant before its
        // first walk, timed on its own.
        for tenant in &self.tenants {
            let _ = generate(tracer, &tenant.spec, &tenant.name);
        }
    }

    fn pass(&mut self, tracer: &Tracer) -> Pass {
        let result = {
            let _span = tracer.enter("twig-fleet", "run_fleet", "fleet");
            self.run(WORKERS)
        };
        let (outcome, json) = match result {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: run_fleet failed: {e}");
                return Pass {
                    attempted: 1,
                    failed: 1,
                    ..Pass::default()
                };
            }
        };
        let manifest = &outcome.manifest;
        let service = &outcome.service;

        // Profiling passes simulate each profiled generation's phase
        // budget; the series holds one window per profiled generation.
        let mut sim_instr = 0;
        for record in &manifest.tenants {
            let seed = self
                .tenants
                .iter()
                .find(|t| t.name == record.name)
                .map_or(0, |t| t.seed);
            let schedule = PhaseSchedule::diurnal(seed);
            for window in &record.series.windows {
                sim_instr += schedule
                    .phase_at(window.end_instr)
                    .scaled_budget(INSTRUCTIONS);
            }
        }
        let deploys: u64 = manifest.tenants.iter().map(|t| t.deploys).sum();
        let rollbacks: u64 = manifest.tenants.iter().map(|t| t.rollbacks).sum();
        let mut counts = Metrics::default();
        counts.set("twig-fleet.generations", manifest.generations_run as f64);
        counts.set("twig-fleet.deploys", deploys as f64);
        counts.set("twig-fleet.rollbacks", rollbacks as f64);
        counts.set(
            "twig-fleet.deploy_ratio",
            if deploys + rollbacks > 0 {
                deploys as f64 / (deploys + rollbacks) as f64
            } else {
                0.0
            },
        );
        counts.set("twig-fleet.jobs_submitted", service.submitted as f64);
        counts.set(
            "twig-fleet.backpressure_waits",
            service.backpressure_waits as f64,
        );

        let mut h = DefaultHasher::new();
        json.hash(&mut h);
        let short = manifest
            .tenants
            .iter()
            .filter(|t| t.health != "healthy" || t.generations != GENERATIONS)
            .count();
        self.first.get_or_insert(json);
        Pass {
            sim_instr,
            digest: h.finish(),
            attempted: service.submitted + 1,
            failed: service.failed + short as u64,
            counts,
        }
    }

    fn check(&mut self) -> Vec<(String, bool)> {
        let single = self.run(1).map(|(_, json)| json);
        let same = matches!((&self.first, &single), (Some(a), Ok(b)) if a == b);
        vec![(
            "fleet manifest byte-identical between 2 workers and 1 worker".to_string(),
            same,
        )]
    }
}
