//! Deterministic fault injection, driven by the `TWIG_FAULT_SPEC`
//! environment variable.
//!
//! The harness's fault-tolerance machinery (panic isolation, watchdogs,
//! retry, cache integrity checks) is only trustworthy if it can be
//! exercised on demand; this module provides the lever. A spec is a
//! `;`-separated list of clauses, each `kind[:sel,sel,...]`:
//!
//! ```text
//! panic:task=3                     panic before the 4th task of a batch
//! panic:cell=sim:kafka/twig        panic in tasks whose label holds the text
//! delay:app=tomcat,ms=60000        sleep 60s (cooperatively) in matching tasks
//! corrupt-cache:app=kafka,times=1  poison the first matching cache populate
//! stall-stream:tenant=t1           tenant t1's profile stream never arrives
//! corrupt-profile:tenant=t2,gen=1  flip t2's profile fingerprint at generation 1
//! tenant-churn:tenant=t0,gen=2     t0 churns (resets) at generation 2
//! disk-full:label=ckpt             tear matching harness writes mid-record
//! crash:point=manifest-tmp,hit=2   exit 86 at the 2nd hit of a crashpoint
//! mutate:kind=ras-depth,cycle=5000,cell=sim:kafka/twig
//!                                  corrupt the RAS of matching simulations
//! ```
//!
//! Selectors (all present selectors must match):
//!
//! * `task=N`  — the task's index within its batch equals `N`;
//! * `cell=S` / `app=S` / `label=S` / `tenant=S` — the task label (or
//!   tenant name, for service faults) contains `S` ending at the label's
//!   end or before a character other than an ASCII letter, digit, `-` or
//!   `_` (so `cell=sim:kafka/twig` does not pick `sim:kafka/twig-sw`,
//!   and `tenant=t1` does not pick `t10`);
//! * `gen=N`   — the fleet layout generation equals `N` (service faults
//!   and torn writes only; batch-task matching ignores it);
//! * `ms=N`    — delay duration (only meaningful for `delay`);
//! * `times=N` — fire at most `N` times (default: unlimited for
//!   `panic`/`delay`, once for `corrupt-cache` so the evicted entry can
//!   repopulate cleanly). Service-level kinds ignore `times`: their
//!   firing is a pure predicate of `(tenant, generation)`, which keeps
//!   fleet runs byte-identical across worker counts.
//!
//! `crash` and `mutate` take only their own keys. `crash:point=P` (a
//! [`CRASHPOINTS`] name, exact match) exits the process with code 86 at
//! the `hit=N`th (≥ 1, default 1) process-wide hit of `P`.
//! `mutate:kind=K,cycle=C` corrupts structure `K` at cycle `C` in every
//! simulation whose integrity label holds each `cell=`/`label=` text,
//! when an integrity tier is on: a pure predicate of the label, with no
//! `times` budget, so the same cells fail at any thread count.
//!
//! Matching is purely a function of the spec and the task's
//! `(label, index)` — or, for the service-level kinds, the tenant's
//! `(name, generation)` — so injected failures land on the same cells on
//! every run; the property the resume tests and fleet chaos drills rely
//! on.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use twig_serde::{Deserialize, Serialize};

use crate::durable::{is_crashpoint, CRASHPOINTS};
use crate::supervise::CancelToken;

/// The kind of fault a clause injects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Panic (with a recognizable payload) before the task body runs.
    Panic,
    /// Sleep cooperatively for `ms`, polling the cancellation token.
    Delay,
    /// Corrupt the integrity fingerprint of a matching cache populate.
    CorruptCache,
    /// Service: a tenant's profile stream stalls — no samples arrive for
    /// the matching generation, so the fleet loop must degrade instead
    /// of wedging.
    StallStream,
    /// Service: a tenant's profile arrives bit-rotted — its fingerprint
    /// is flipped before verification, so the loop must detect and
    /// discard it.
    CorruptProfile,
    /// Service: the tenant binary churns (redeploy/restart) — its
    /// in-flight generation is lost and it must re-onboard from its
    /// last-good record.
    TenantChurn,
    /// Tear a matching harness write mid-record (checkpoint, manifest,
    /// metrics export) — the deterministic stand-in for `ENOSPC` or a
    /// crash between `write` and `fsync`.
    DiskFull,
    /// Service: a tenant's request latencies spike for the matching
    /// generation (a noisy neighbor, a GC storm) — the fleet's SLO
    /// burn-rate gauge must catch the sustained breach and degrade the
    /// tenant instead of letting the regression ship silently.
    LatencySpike,
    /// Exit the process with code 86 at the nth hit of a crashpoint.
    Crash,
    /// Seed a corruption into matching simulations (the integrity
    /// mutation drill).
    Mutate,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "delay" => Some(FaultKind::Delay),
            "corrupt-cache" => Some(FaultKind::CorruptCache),
            "stall-stream" => Some(FaultKind::StallStream),
            "corrupt-profile" => Some(FaultKind::CorruptProfile),
            "tenant-churn" => Some(FaultKind::TenantChurn),
            "disk-full" => Some(FaultKind::DiskFull),
            "latency-spike" => Some(FaultKind::LatencySpike),
            "crash" => Some(FaultKind::Crash),
            "mutate" => Some(FaultKind::Mutate),
            _ => None,
        }
    }
}

/// Which structure a seeded mutation corrupts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MutationKind {
    /// Bump a flat-BTB per-set occupancy counter past its live entries.
    BtbOccupancy,
    /// Push the RAS depth counter past its capacity.
    RasDepth,
}

impl MutationKind {
    /// Parses the stable kebab-case name.
    pub fn parse(text: &str) -> Option<MutationKind> {
        match text.trim() {
            "btb-occupancy" => Some(MutationKind::BtbOccupancy),
            "ras-depth" => Some(MutationKind::RasDepth),
            _ => None,
        }
    }

    /// Stable kebab-case name (the `mutate:kind=` grammar).
    pub fn as_str(&self) -> &'static str {
        match self {
            MutationKind::BtbOccupancy => "btb-occupancy",
            MutationKind::RasDepth => "ras-depth",
        }
    }
}

/// A seeded corruption: at `at_cycle`, `kind` is injected into the live
/// structures so the detection path can be drilled end to end.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct MutationSpec {
    /// Simulation cycle at which the corruption is applied.
    pub at_cycle: u64,
    /// What to corrupt.
    pub kind: MutationKind,
}

/// One parsed clause of a fault spec.
#[derive(Debug)]
pub struct FaultClause {
    /// What to inject.
    pub kind: FaultKind,
    /// Required task index (`task=N`), if any.
    pub task: Option<usize>,
    /// Required fleet generation (`gen=N`), if any.
    pub gen: Option<u64>,
    /// Required label selectors (`cell=`/`app=`/`label=`/`tenant=`),
    /// each matched up to a name boundary (see the module docs).
    pub label_contains: Vec<String>,
    /// Delay duration in milliseconds (`ms=N`).
    pub ms: u64,
    /// Maximum number of firings (`times=N`).
    pub times: u32,
    /// The registered crashpoint (`crash` only).
    pub point: Option<String>,
    /// Which process-wide hit of `point` crashes (`hit=N`, default 1).
    pub hit: u32,
    /// The seeded corruption (`mutate` only).
    pub mutation: Option<MutationSpec>,
    fired: AtomicU32,
}

impl FaultClause {
    /// True when the clause's selectors match `(label, index)`.
    fn matches(&self, label: &str, index: usize) -> bool {
        if let Some(task) = self.task {
            if task != index {
                return false;
            }
        }
        self.label_contains.iter().all(|s| selects(label, s))
    }

    /// True when the clause's selectors match a fleet tenant at a
    /// generation. A **pure predicate** — no firing budget is consumed —
    /// so the outcome is independent of the order worker threads reach
    /// matching tenants, which keeps fleet manifests byte-identical
    /// across `TWIG_FLEET_WORKERS` settings.
    fn matches_service(&self, tenant: &str, generation: u64) -> bool {
        if let Some(gen) = self.gen {
            if gen != generation {
                return false;
            }
        }
        self.label_contains.iter().all(|s| selects(tenant, s))
    }

    /// Consumes one firing if the selectors match and the budget allows.
    fn try_fire(&self, label: &str, index: usize) -> bool {
        if !self.matches(label, index) {
            return false;
        }
        let prev = self.fired.fetch_add(1, Ordering::Relaxed);
        if prev >= self.times {
            // Over budget: undo so the counter cannot wrap.
            self.fired.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }
}

/// True when `selector` occurs in `label` ending at the label's end or
/// at a character that cannot continue a name (anything but ASCII
/// alphanumerics, `-` and `_`). So `sim:kafka/twig` picks that cell but
/// not `sim:kafka/twig-sw`, and `tomcat` picks every `sim:tomcat/*` cell.
fn selects(label: &str, selector: &str) -> bool {
    label.char_indices().any(|(at, _)| {
        label[at..].strip_prefix(selector).is_some_and(|rest| {
            !rest.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        })
    })
}

/// A parsed `TWIG_FAULT_SPEC`.
#[derive(Debug, Default)]
pub struct FaultSpec {
    clauses: Vec<FaultClause>,
    /// The raw spec text, echoed into the run manifest.
    pub raw: Option<String>,
}

impl FaultSpec {
    /// Parses a spec string.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause.
    pub fn parse(raw: &str) -> Result<FaultSpec, String> {
        let mut clauses = Vec::new();
        for part in raw.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind_str, sels) = match part.split_once(':') {
                Some((k, s)) => (k, s),
                None => (part, ""),
            };
            let kind = FaultKind::parse(kind_str.trim())
                .ok_or_else(|| format!("unknown fault kind {kind_str:?} in {part:?}"))?;
            let mut clause = FaultClause {
                kind,
                task: None,
                gen: None,
                label_contains: Vec::new(),
                ms: 0,
                times: if kind == FaultKind::CorruptCache {
                    1
                } else {
                    u32::MAX
                },
                point: None,
                hit: 1,
                mutation: None,
                fired: AtomicU32::new(0),
            };
            let mut mutation_kind = None;
            let mut cycle = None;
            for sel in sels.split(',') {
                let sel = sel.trim();
                if sel.is_empty() {
                    continue;
                }
                let (key, value) = sel
                    .split_once('=')
                    .ok_or_else(|| format!("selector {sel:?} is not key=value in {part:?}"))?;
                let value = value.trim();
                match (kind, key.trim()) {
                    (FaultKind::Crash, "point") if is_crashpoint(value) => {
                        clause.point = Some(value.to_string());
                    }
                    (FaultKind::Crash, "point") => {
                        let known: Vec<&str> = CRASHPOINTS.iter().map(|(p, _)| *p).collect();
                        return Err(format!(
                            "unknown crashpoint {value:?}; registered points: {}",
                            known.join(", ")
                        ));
                    }
                    (FaultKind::Crash, "hit") => match number("hit", value)? {
                        0 => return Err(format!("hit must be >= 1 in {part:?}")),
                        n => clause.hit = n,
                    },
                    (FaultKind::Mutate, "kind") => {
                        mutation_kind = Some(MutationKind::parse(value).ok_or_else(|| {
                            format!("unknown mutation kind {value:?} (btb-occupancy | ras-depth)")
                        })?);
                    }
                    (FaultKind::Mutate, "cycle") => cycle = Some(number("cycle", value)?),
                    (FaultKind::Mutate, "cell" | "label") => {
                        clause.label_contains.push(value.to_string());
                    }
                    (FaultKind::Crash | FaultKind::Mutate, other) => {
                        return Err(format!("selector key {other:?} does not apply to {part:?}"))
                    }
                    (_, "task") => clause.task = Some(number("task index", value)?),
                    (_, "cell" | "app" | "label" | "tenant") => {
                        clause.label_contains.push(value.to_string());
                    }
                    (_, "gen") => clause.gen = Some(number("generation", value)?),
                    (_, "ms") => clause.ms = number("delay ms", value)?,
                    (_, "times") => clause.times = number("times", value)?,
                    (_, other) => {
                        return Err(format!("unknown selector key {other:?} in {part:?}"))
                    }
                }
            }
            match kind {
                FaultKind::Delay if clause.ms == 0 => {
                    return Err(format!("delay clause {part:?} needs ms=N"));
                }
                FaultKind::Crash if clause.point.is_none() => {
                    return Err(format!("crash clause {part:?} needs point=NAME"));
                }
                FaultKind::Mutate => {
                    clause.mutation = match (mutation_kind, cycle) {
                        (Some(kind), Some(at_cycle)) => Some(MutationSpec { at_cycle, kind }),
                        _ => {
                            return Err(format!("mutate clause {part:?} needs kind=K and cycle=C"))
                        }
                    };
                }
                _ => {}
            }
            clauses.push(clause);
        }
        Ok(FaultSpec {
            clauses,
            raw: Some(raw.to_string()),
        })
    }

    /// An empty spec (injects nothing).
    pub fn none() -> FaultSpec {
        FaultSpec::default()
    }

    /// True when no clause is present.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Applies `panic`/`delay` clauses matching `(label, index)`.
    ///
    /// Returns `false` when an injected delay was cut short by the
    /// cancellation token — the caller must treat the task as timed out
    /// without running its body. Panics (on purpose) when a `panic` clause
    /// fires; the supervisor's `catch_unwind` turns that into a typed
    /// task failure.
    pub fn apply_task_faults(&self, label: &str, index: usize, token: &CancelToken) -> bool {
        for clause in &self.clauses {
            match clause.kind {
                FaultKind::Panic => {
                    if clause.try_fire(label, index) {
                        panic!("injected panic (fault spec) in task {label:?}");
                    }
                }
                FaultKind::Delay => {
                    if clause.try_fire(label, index) {
                        let deadline = std::time::Instant::now()
                            + std::time::Duration::from_millis(clause.ms);
                        while std::time::Instant::now() < deadline {
                            if token.is_cancelled() {
                                return false;
                            }
                            std::thread::sleep(std::time::Duration::from_millis(10));
                        }
                    }
                }
                // Cache poisoning and the service-level kinds have their
                // own injection points (`corrupt_fingerprint`,
                // `fires_service`, `apply_write_fault`).
                FaultKind::CorruptCache
                | FaultKind::StallStream
                | FaultKind::CorruptProfile
                | FaultKind::TenantChurn
                | FaultKind::DiskFull
                | FaultKind::LatencySpike
                | FaultKind::Crash
                | FaultKind::Mutate => {}
            }
        }
        !token.is_cancelled()
    }

    /// True when a service-level clause of `kind` matches `tenant` at
    /// `generation`. Purely functional (no firing budget — see
    /// [`FaultClause::matches_service`]), so fleet chaos drills are
    /// deterministic at any worker count.
    pub fn fires_service(&self, kind: FaultKind, tenant: &str, generation: u64) -> bool {
        self.clauses
            .iter()
            .any(|c| c.kind == kind && c.matches_service(tenant, generation))
    }

    /// Applies a matching `disk-full` clause to a serialized record about
    /// to be written under `label`: returns `Some(torn_prefix)` — the
    /// record truncated mid-payload, what a crash between `write` and
    /// `fsync` (or `ENOSPC`) leaves behind — when a clause fires, `None`
    /// otherwise. Unlike the service predicates this *does* consume the
    /// clause's `times` budget, so a single-shot torn write can be
    /// followed by clean retries.
    pub fn apply_write_fault(&self, label: &str, record: &[u8]) -> Option<Vec<u8>> {
        for clause in &self.clauses {
            if clause.kind == FaultKind::DiskFull && clause.try_fire(label, 0) {
                let keep = record.len() / 2;
                return Some(record[..keep].to_vec());
            }
        }
        None
    }

    /// Counts one process-wide hit of crashpoint `point`; true when a
    /// `crash` clause's `hit` count is reached exactly by this hit.
    /// [`crate::durable::hit`] exits the process when it is.
    pub fn crashes_at(&self, point: &str) -> bool {
        // `any` stops counting only at a crash, which ends the process.
        self.clauses
            .iter()
            .filter(|c| c.kind == FaultKind::Crash && c.point.as_deref() == Some(point))
            .any(|c| c.fired.fetch_add(1, Ordering::Relaxed) + 1 == c.hit)
    }

    /// The corruption of the first `mutate` clause whose label selectors
    /// all match the simulation's integrity `label`, if any. A pure
    /// predicate, like [`FaultSpec::fires_service`].
    pub fn mutation(&self, label: &str) -> Option<MutationSpec> {
        self.clauses
            .iter()
            .find(|c| c.kind == FaultKind::Mutate && c.matches(label, 0))
            .and_then(|c| c.mutation)
    }

    /// Corrupts `fingerprint` when a `corrupt-cache` clause matches
    /// `label`; identity otherwise. Cache populates run this over their
    /// freshly computed integrity fingerprint, so a fired clause makes the
    /// stored entry fail its next verification — exactly what a torn or
    /// poisoned populate would look like.
    pub fn corrupt_fingerprint(&self, label: &str, fingerprint: u64) -> u64 {
        for clause in &self.clauses {
            if clause.kind == FaultKind::CorruptCache && clause.try_fire(label, 0) {
                return fingerprint ^ 0xDEAD_BEEF_DEAD_BEEF;
            }
        }
        fingerprint
    }
}

/// Parses a selector's numeric value, naming it on failure.
fn number<T: std::str::FromStr>(what: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{what} {value:?} is not a number"))
}

/// The process-wide spec parsed from `TWIG_FAULT_SPEC` (empty when the
/// variable is unset). A malformed spec panics: silently ignoring an
/// operator's injection request would make a fault-tolerance CI job pass
/// vacuously. Binaries reject it earlier, as a usage error, through
/// [`crate::check_injection_specs`].
pub fn global() -> &'static FaultSpec {
    static SPEC: OnceLock<FaultSpec> = OnceLock::new();
    SPEC.get_or_init(
        || match &twig_types::HarnessConfig::global().fault_spec.value {
            Some(raw) => FaultSpec::parse(raw)
                .unwrap_or_else(|e| panic!("malformed TWIG_FAULT_SPEC: {e}")),
            None => FaultSpec::none(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_example() {
        let spec =
            FaultSpec::parse("panic:task=3;delay:task=7,ms=500;corrupt-cache:app=kafka").unwrap();
        assert_eq!(spec.clauses.len(), 3);
        assert_eq!(spec.clauses[0].kind, FaultKind::Panic);
        assert_eq!(spec.clauses[0].task, Some(3));
        assert_eq!(spec.clauses[1].kind, FaultKind::Delay);
        assert_eq!(spec.clauses[1].ms, 500);
        assert_eq!(spec.clauses[2].kind, FaultKind::CorruptCache);
        assert_eq!(spec.clauses[2].label_contains, vec!["kafka".to_string()]);
        assert_eq!(spec.clauses[2].times, 1, "corrupt-cache defaults to once");
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultSpec::parse("explode:task=1").is_err());
        assert!(FaultSpec::parse("abort:task=0").is_err(), "no abort kind");
        assert!(FaultSpec::parse("panic:task=abc").is_err());
        assert!(FaultSpec::parse("panic:notakv").is_err());
        assert!(FaultSpec::parse("panic:zzz=1").is_err());
        assert!(FaultSpec::parse("delay:task=1").is_err(), "delay needs ms");
        assert!(FaultSpec::parse("").unwrap().is_empty());
        assert!(FaultSpec::parse(" ; ").unwrap().is_empty());
    }

    #[test]
    fn matching_is_conjunctive_over_selectors() {
        let spec = FaultSpec::parse("panic:task=2,cell=sim:kafka").unwrap();
        let c = &spec.clauses[0];
        assert!(c.matches("sim:kafka/twig", 2));
        assert!(!c.matches("sim:kafka/twig", 3), "wrong index");
        assert!(!c.matches("sim:tomcat/twig", 2), "wrong label");
    }

    #[test]
    fn selectors_stop_at_a_name_boundary() {
        // A full label picks its own cell, not one whose label extends it.
        let spec = FaultSpec::parse("panic:cell=sim:kafka/twig").unwrap();
        let c = &spec.clauses[0];
        assert!(c.matches("sim:kafka/twig", 0));
        assert!(!c.matches("sim:kafka/twig-sw", 0));
        assert!(!c.matches("sim:kafka/twig_x", 0));
        assert!(!c.matches("sim:kafka/twig2", 0));
        // A later occurrence can still end at a boundary.
        assert!(c.matches("replay:sim:kafka/twig-sw/sim:kafka/twig", 0));
        // A name picks every label it heads or ends.
        let spec = FaultSpec::parse("panic:app=tomcat").unwrap();
        let c = &spec.clauses[0];
        for slot in ["baseline", "twig", "twig-sw"] {
            assert!(c.matches(&format!("sim:tomcat/{slot}"), 0), "{slot}");
        }
        assert!(c.matches("cache:setup:tomcat", 0));
        assert!(!c.matches("sim:tomcat2/twig", 0));
        // Tenants: `svc-b` is a prefix of `svc-bravo`, not a selector for it.
        let spec = FaultSpec::parse("stall-stream:tenant=svc-b").unwrap();
        assert!(!spec.fires_service(FaultKind::StallStream, "svc-bravo", 0));
        assert!(spec.fires_service(FaultKind::StallStream, "svc-b", 0));
    }

    #[test]
    fn injected_panic_fires_and_respects_times() {
        let spec = FaultSpec::parse("panic:cell=victim,times=1").unwrap();
        let token = CancelToken::new();
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            spec.apply_task_faults("victim", 0, &token)
        }));
        assert!(hit.is_err(), "first firing panics");
        // Budget exhausted: the same task now passes through.
        assert!(spec.apply_task_faults("victim", 0, &token));
        // Non-matching labels never fire.
        assert!(spec.apply_task_faults("bystander", 0, &token));
    }

    #[test]
    fn delay_is_cut_short_by_cancellation() {
        let spec = FaultSpec::parse("delay:cell=slow,ms=60000").unwrap();
        let token = CancelToken::with_deadline_ms(30);
        let started = std::time::Instant::now();
        let proceed = spec.apply_task_faults("slow", 0, &token);
        assert!(!proceed, "cancelled delay must abort the task");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "delay must not run to its full 60s"
        );
    }

    #[test]
    fn service_kinds_parse_and_match_purely() {
        let spec = FaultSpec::parse(
            "stall-stream:tenant=t1;corrupt-profile:tenant=t2,gen=1;tenant-churn:tenant=t0,gen=2",
        )
        .unwrap();
        // stall-stream: every generation of t1, nobody else.
        assert!(spec.fires_service(FaultKind::StallStream, "t1", 0));
        assert!(spec.fires_service(FaultKind::StallStream, "t1", 7));
        assert!(!spec.fires_service(FaultKind::StallStream, "t2", 0));
        // corrupt-profile: only t2 at gen 1.
        assert!(spec.fires_service(FaultKind::CorruptProfile, "t2", 1));
        assert!(!spec.fires_service(FaultKind::CorruptProfile, "t2", 2));
        assert!(!spec.fires_service(FaultKind::CorruptProfile, "t1", 1));
        // Pure predicate: repeated queries never exhaust a budget.
        for _ in 0..10 {
            assert!(spec.fires_service(FaultKind::TenantChurn, "t0", 2));
        }
        // Wrong kind never matches.
        assert!(!spec.fires_service(FaultKind::DiskFull, "t1", 0));
    }

    #[test]
    fn disk_full_tears_the_record_once_per_budget() {
        let spec = FaultSpec::parse("disk-full:label=ckpt:victim-cell,times=1").unwrap();
        let record = vec![0xABu8; 64];
        let torn = spec.apply_write_fault("ckpt:victim-cell", &record).unwrap();
        assert_eq!(torn.len(), 32, "record truncated mid-payload");
        assert_eq!(&torn[..], &record[..32]);
        // Budget spent: the retry goes through clean.
        assert_eq!(spec.apply_write_fault("ckpt:victim-cell", &record), None);
        // Non-matching labels are never torn.
        let spec = FaultSpec::parse("disk-full:label=ckpt:victim").unwrap();
        assert_eq!(spec.apply_write_fault("ckpt:other", &record), None);
    }

    #[test]
    fn gen_selector_rejects_garbage() {
        assert!(FaultSpec::parse("stall-stream:gen=abc").is_err());
        assert!(FaultSpec::parse("disk-full:tenant=t1,gen=3").is_ok());
    }

    #[test]
    fn corrupt_fingerprint_flips_once() {
        let spec = FaultSpec::parse("corrupt-cache:label=events:kafka").unwrap();
        let a = spec.corrupt_fingerprint("events:kafka/1", 42);
        assert_ne!(a, 42, "first populate is corrupted");
        let b = spec.corrupt_fingerprint("events:kafka/1", 42);
        assert_eq!(b, 42, "repopulate after eviction is clean");
        assert_eq!(spec.corrupt_fingerprint("events:tomcat/1", 7), 7);
    }

    #[test]
    fn crash_clause_crashes_at_its_nth_hit_only() {
        let spec = FaultSpec::parse("crash:point=manifest-tmp,hit=3;panic:cell=ckpt").unwrap();
        assert_eq!(spec.clauses[0].point.as_deref(), Some("manifest-tmp"));
        assert!(!spec.crashes_at("ckpt-tmp"), "other points never count");
        assert!(!spec.crashes_at("manifest-tmp"));
        assert!(!spec.crashes_at("manifest-tmp"));
        assert!(spec.crashes_at("manifest-tmp"), "the third hit crashes");
        assert!(!spec.crashes_at("manifest-tmp"), "and only the third");
        let spec = FaultSpec::parse(" crash : point = ckpt-tmp ").unwrap();
        assert!(spec.crashes_at("ckpt-tmp"), "hit defaults to the first");
        assert!(!FaultSpec::none().crashes_at("ckpt-tmp"));
    }

    #[test]
    fn crash_and_mutate_reject_malformed_clauses() {
        let err = FaultSpec::parse("crash:point=no-such-point").unwrap_err();
        assert!(err.contains("ckpt-tmp"), "error lists registered points: {err}");
        for bad in [
            "crash:point=ckpt",
            "crash:point=ckpt-tmp,hit=0",
            "crash:point=ckpt-tmp,hit=x",
            "crash:hit=2",
            "crash:point=ckpt-tmp,cell=x",
            "panic:point=ckpt-tmp",
            "mutate:kind=cache,cycle=10",
            "mutate:kind=ras-depth",
            "mutate:cycle=10",
            "mutate:kind=ras-depth,cycle=x",
            "mutate:kind=ras-depth,cycle=1,times=1",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn mutate_clause_matches_the_label_purely() {
        let spec = FaultSpec::parse("mutate:kind=ras-depth,cycle=5000,cell=sim:kafka/twig;panic")
            .unwrap();
        let want = MutationSpec {
            at_cycle: 5000,
            kind: MutationKind::RasDepth,
        };
        for _ in 0..3 {
            assert_eq!(spec.mutation("sim:kafka/twig"), Some(want), "no budget to exhaust");
        }
        assert_eq!(spec.mutation("sim:kafka/ideal"), None);
        let spec = FaultSpec::parse("mutate:kind=btb-occupancy,cycle=1").unwrap();
        let any = spec.mutation("drill:kafka/mutate").map(|m| m.kind);
        assert_eq!(any, Some(MutationKind::BtbOccupancy), "no selector matches every run");
    }
}
