//! Fleet-scale continuous profile-guided optimization for the Twig
//! harness.
//!
//! The paper's pipeline is one-shot: profile once, inject BTB prefetches
//! once, evaluate once. A data-center deployment is a *loop* — tenant
//! binaries run for months, request mixes drift by the hour, and the
//! profile → inject → re-deploy cycle repeats continuously under a
//! supervisor that must survive stalled profile streams, bit-rotted
//! samples, tenant churn, and full disks without wedging the fleet.
//! This crate reproduces that operational shape on top of the existing
//! pipeline:
//!
//! * [`service::run_fleet`] — the supervised generation loop: N tenants
//!   × rotating load phases ([`twig_workload::PhaseSchedule`]), one job
//!   per tenant-generation on a bounded-queue worker pool with explicit
//!   backpressure ([`twig_sched::ServicePool`]). The worker profiles the
//!   deployed binary, builds the candidate layout and A/B-gates it with
//!   the regression-sentinel thresholds ([`gate`]); the control thread
//!   applies the verdicts in tenant order as they stream back, makes
//!   every checkpoint write, and runs the convergence watchdog.
//! * [`health`] — the per-tenant `healthy → degraded → quarantined`
//!   state machine with typed transition reasons.
//! * [`manifest`] — the versioned, worker-count-invariant
//!   `fleet_manifest.json` record (schema
//!   `docs/schema/fleet-manifest-v2.json`).
//!
//! Chaos drills (`fleet_drill`, wired into CI) prove each injectable
//! service fault — `stall-stream`, `corrupt-profile`, `tenant-churn`,
//! `disk-full` — is detected within two generations, quarantines exactly
//! the injected tenant, and that a clean re-run converges to a
//! byte-identical manifest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod health;
pub mod manifest;
pub mod service;

pub use gate::{judge_deploy, GateDecision, GateMetrics};
pub use health::{FaultReason, Health, HealthTracker, Transition};
pub use manifest::{
    FleetManifest, LatencySummary, TenantRecord, TransitionRecord, FLEET_MANIFEST_VERSION,
};
pub use service::{run_fleet, FleetConfig, FleetOutcome, TenantSpec};
