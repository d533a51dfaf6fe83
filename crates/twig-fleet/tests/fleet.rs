//! End-to-end fleet-loop tests: convergence, worker-count invariance,
//! fault detection/quarantine precision, healing, and churn re-onboarding.

use std::path::PathBuf;
use std::sync::Arc;

use twig_fleet::{run_fleet, FleetConfig, FleetManifest, TenantSpec};
use twig_sched::FaultSpec;
use twig_workload::{AppId, WorkloadSpec};

fn test_config() -> FleetConfig {
    FleetConfig {
        instructions: 30_000,
        requests_per_generation: 64,
        ..FleetConfig::demo()
    }
}

fn with_faults(mut config: FleetConfig, spec: &str) -> FleetConfig {
    config.faults = Arc::new(FaultSpec::parse(spec).unwrap());
    config
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("twig-fleet-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tenant(manifest: &FleetManifest, name: &str) -> twig_fleet::TenantRecord {
    manifest
        .tenants
        .iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("tenant {name} missing from manifest"))
        .clone()
}

#[test]
fn clean_fleet_converges_with_improving_deploys() {
    let tenants = TenantSpec::demo_fleet(2);
    let outcome = run_fleet(&tenants, &test_config()).unwrap();
    let manifest = outcome.manifest;
    assert!(manifest.converged, "clean fleet must converge: {manifest:?}");
    assert!(manifest.generations_run <= 8);
    for t in &manifest.tenants {
        assert_eq!(t.health, "healthy");
        assert_eq!(t.reason, "none");
        assert!(t.converged);
        assert!(t.deploys >= 1, "{}: at least the first layout must ship", t.name);
        assert_eq!(t.faults_seen, 0);
        assert!(t.ipc_micros > 0);
        assert!(t.latency.p50 > 0 && t.latency.p50 <= t.latency.p99);
        assert!(t.latency.p99 <= t.latency.p999);
        assert_ne!(t.layout_fingerprint, 0);
    }
    assert_eq!(outcome.service.failed, 0);
}

#[test]
fn manifest_is_worker_count_invariant() {
    let tenants = TenantSpec::demo_fleet(3);
    let one = run_fleet(&tenants, &FleetConfig { workers: 1, ..test_config() }).unwrap();
    let four = run_fleet(&tenants, &FleetConfig { workers: 4, queue_depth: 3, ..test_config() })
        .unwrap();
    assert_eq!(
        one.manifest.to_json().unwrap(),
        four.manifest.to_json().unwrap(),
        "1-worker and 4-worker manifests must be byte-identical"
    );
}

#[test]
fn manifest_is_invariant_when_jobs_finish_out_of_order() {
    // The first tenant runs a real application's binary among tiny test
    // ones: its job (about ten times the work of the others) is submitted
    // first but finishes last, so later reports are ready before the one
    // the control loop must apply first.
    let mut tenants = TenantSpec::demo_fleet(4);
    tenants[0].spec = WorkloadSpec::preset(AppId::Kafka);
    let manifests = |faults: &str| -> Vec<String> {
        [1, 2, 4]
            .iter()
            .map(|&workers| {
                let config =
                    with_faults(FleetConfig { workers, queue_depth: 4, ..test_config() }, faults);
                run_fleet(&tenants, &config).unwrap().manifest.to_json().unwrap()
            })
            .collect()
    };

    let clean = manifests("");
    assert_eq!(clean[0], clean[1], "1-worker and 2-worker manifests must be byte-identical");
    assert_eq!(clean[0], clean[2], "1-worker and 4-worker manifests must be byte-identical");

    // The heavy tenant's job analyzes and gates its (intact) profile; the
    // control thread must still catch the corrupted fingerprint the
    // generation the fault fires.
    let faulted = manifests("corrupt-profile:tenant=svc-alpha,gen=1");
    assert_eq!(faulted[0], faulted[1]);
    assert_eq!(faulted[0], faulted[2]);
    let manifest = FleetManifest::from_json(&faulted[0]).unwrap();
    let victim = tenant(&manifest, "svc-alpha");
    assert_eq!(victim.faults_seen, 1);
    assert_eq!(
        (victim.transitions[0].reason.as_str(), victim.transitions[0].generation),
        ("corrupt-profile", 1)
    );
    assert_eq!(victim.health, "healthy", "one corrupted chunk must not quarantine");
    for name in ["svc-bravo", "svc-charlie", "svc-delta"] {
        assert_eq!(tenant(&manifest, name).faults_seen, 0, "{name} is a bystander");
    }
}

#[test]
fn clean_rerun_is_byte_identical() {
    let tenants = TenantSpec::demo_fleet(2);
    let a = run_fleet(&tenants, &test_config()).unwrap();
    let b = run_fleet(&tenants, &test_config()).unwrap();
    assert_eq!(a.manifest.to_json().unwrap(), b.manifest.to_json().unwrap());
}

#[test]
fn persistent_stall_quarantines_exactly_the_victim() {
    let tenants = TenantSpec::demo_fleet(3);
    let config = with_faults(test_config(), "stall-stream:tenant=svc-bravo");
    let manifest = run_fleet(&tenants, &config).unwrap().manifest;

    let victim = tenant(&manifest, "svc-bravo");
    assert_eq!(victim.health, "quarantined");
    assert_eq!(victim.reason, "stall-stream");
    assert!(!victim.converged);
    // Bounded detection: degraded at the first faulted generation,
    // quarantined at the second.
    assert_eq!(victim.transitions[0].generation, 0);
    assert_eq!(victim.transitions[0].to, "degraded");
    assert_eq!(victim.transitions[1].generation, 1);
    assert_eq!(victim.transitions[1].to, "quarantined");

    let quarantined: Vec<&str> = manifest
        .tenants
        .iter()
        .filter(|t| t.health == "quarantined")
        .map(|t| t.name.as_str())
        .collect();
    assert_eq!(quarantined, ["svc-bravo"], "only the injected tenant quarantines");
    for name in ["svc-alpha", "svc-charlie"] {
        let bystander = tenant(&manifest, name);
        assert_eq!(bystander.health, "healthy");
        assert!(bystander.converged, "{name} must still converge");
        assert_eq!(bystander.faults_seen, 0);
    }
    assert!(manifest.converged, "the fleet converges around the quarantined tenant");
}

#[test]
fn one_shot_corrupt_profile_degrades_then_heals() {
    let tenants = TenantSpec::demo_fleet(2);
    let config = with_faults(test_config(), "corrupt-profile:tenant=svc-alpha,gen=1");
    let manifest = run_fleet(&tenants, &config).unwrap().manifest;

    let victim = tenant(&manifest, "svc-alpha");
    assert_eq!(victim.health, "healthy", "one corrupted chunk must not quarantine");
    assert_eq!(victim.reason, "corrupt-profile");
    assert_eq!(victim.faults_seen, 1);
    assert!(victim.converged);
    let kinds: Vec<(&str, u64)> = victim
        .transitions
        .iter()
        .map(|t| (t.reason.as_str(), t.generation))
        .collect();
    assert_eq!(kinds[0], ("corrupt-profile", 1));
    assert_eq!(kinds[1].0, "recovered");
    assert!(kinds[1].1 >= 3, "healing needs two consecutive clean generations");
    assert!(manifest.converged);
}

#[test]
fn sustained_slo_burn_degrades_and_series_records_it() {
    let tenants = TenantSpec::demo_fleet(2);
    let spec = "latency-spike:tenant=svc-bravo,gen=1;latency-spike:tenant=svc-bravo,gen=2";
    let manifest = run_fleet(&tenants, &with_faults(test_config(), spec)).unwrap().manifest;

    let victim = tenant(&manifest, "svc-bravo");
    // One spiked generation burns budget but does not fault; the second
    // consecutive one crosses `slo_burn_generations` and degrades.
    assert_eq!(victim.health, "healthy", "burn degrades but heals: {victim:?}");
    assert!(victim.converged);
    assert_eq!(victim.slo_breaches, 2);
    let degrade = victim
        .transitions
        .iter()
        .find(|t| t.to == "degraded")
        .expect("burn must degrade the victim");
    assert_eq!((degrade.reason.as_str(), degrade.generation), ("slo-burn", 2));
    assert!(victim.transitions.iter().any(|t| t.reason == "recovered"));

    // The per-generation series carries the burn gauge: over budget
    // (>1000 permille) exactly on the spiked generations.
    let burn = victim.series.track_values("fleet.slo_burn_permille").unwrap();
    let over: Vec<usize> =
        (0..burn.len()).filter(|&i| burn[i] > 1000).collect();
    assert_eq!(over, [1, 2], "burn gauge over budget exactly at gens 1-2: {burn:?}");
    assert_eq!(victim.series.windows.len(), victim.generations as usize);

    let bystander = tenant(&manifest, "svc-alpha");
    assert_eq!(bystander.slo_breaches, 0);
    assert_eq!(bystander.health, "healthy");
    assert!(manifest.converged);
}

#[test]
fn single_latency_spike_burns_budget_without_fault() {
    let tenants = TenantSpec::demo_fleet(2);
    let spec = "latency-spike:tenant=svc-bravo,gen=1";
    let manifest = run_fleet(&tenants, &with_faults(test_config(), spec)).unwrap().manifest;

    let victim = tenant(&manifest, "svc-bravo");
    assert_eq!(victim.slo_breaches, 1);
    assert!(
        !victim.transitions.iter().any(|t| t.reason == "slo-burn"),
        "one breached generation must not degrade: {:?}",
        victim.transitions
    );
    assert_eq!(victim.health, "healthy");
    assert!(victim.converged);
}

#[test]
fn torn_last_good_write_is_detected_same_generation() {
    let dir = temp_dir("diskfull");
    let tenants = TenantSpec::demo_fleet(2);
    let mut config = with_faults(test_config(), "disk-full:tenant=svc-bravo,times=1");
    config.state_dir = Some(dir.clone());
    let manifest = run_fleet(&tenants, &config).unwrap().manifest;

    let victim = tenant(&manifest, "svc-bravo");
    assert_eq!(victim.transitions[0].reason, "disk-full");
    assert_eq!(
        victim.transitions[0].generation, 0,
        "the post-store scrub detects the tear the generation it happens"
    );
    assert_eq!(victim.health, "healthy", "a single torn write heals");
    assert!(victim.converged);
    assert!(manifest.converged);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn churn_reonboards_from_last_good_record() {
    let dir = temp_dir("churn");
    let tenants = TenantSpec::demo_fleet(2);
    let mut config = with_faults(test_config(), "tenant-churn:tenant=svc-alpha,gen=2");
    config.state_dir = Some(dir.clone());
    let manifest = run_fleet(&tenants, &config).unwrap().manifest;

    let victim = tenant(&manifest, "svc-alpha");
    assert_eq!(victim.transitions[0].reason, "tenant-churn");
    assert_eq!(victim.transitions[0].generation, 2);
    assert_eq!(victim.health, "healthy");
    assert!(victim.converged, "re-onboarded tenant must still converge");
    // The last-good record preserved the deployed layout across the
    // restart: the clean run's fingerprint matches.
    let clean = run_fleet(&tenants, &test_config()).unwrap().manifest;
    assert_eq!(
        victim.layout_fingerprint,
        tenant(&clean, "svc-alpha").layout_fingerprint,
        "churn must not lose the deployed plan set"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
