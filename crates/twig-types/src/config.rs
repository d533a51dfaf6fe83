//! The unified typed harness configuration: one parse point for every
//! `TWIG_*` environment variable.
//!
//! Before this module existed, ~10 `TWIG_*` knobs were parsed ad-hoc in
//! `twig-sched` (threads, task supervision, fault injection), `twig-sim`
//! (integrity tiers, forensic dumps), and `twig-bench`. Each call site had
//! its own tolerance for garbage, so a typo like `TWIG_TASK_ATTEMPTS=tree`
//! silently fell back to the default in one crate and aborted in another.
//!
//! [`HarnessConfig`] is now the only place environment variables are read:
//!
//! * every knob is a [`Setting`] carrying its value *and* its
//!   [`Source`] (default / environment / explicit argument), so the run
//!   manifest can dump the effective configuration;
//! * precedence is uniform: **explicit argument > environment > default**
//!   (apply explicit overrides with [`Setting::with_explicit`]);
//! * malformed values fail with a typed [`ConfigError`] naming the
//!   offending variable — never a silent fallback;
//! * grammar-valued knobs (fault specs, integrity tiers, the observation
//!   spec) are carried as raw strings here and parsed by their owning
//!   crate, which still reports errors under the variable's name.
//!
//! A workspace hygiene test greps for stray `env::var("TWIG` reads outside
//! this file, so the single-parse-point property is enforced, not aspired
//! to.
//!
//! # Examples
//!
//! ```
//! use twig_types::config::{HarnessConfig, Source};
//!
//! let config = HarnessConfig::from_lookup(|var| match var {
//!     "TWIG_TASK_ATTEMPTS" => Some("5".to_string()),
//!     _ => None,
//! })
//! .unwrap();
//! assert_eq!(config.task_attempts.value, 5);
//! assert_eq!(config.task_attempts.source, Source::Env);
//! // Explicit arguments win over the environment:
//! let attempts = config.task_attempts.with_explicit(Some(2));
//! assert_eq!(attempts.value, 2);
//! assert_eq!(attempts.source, Source::Explicit);
//! ```

use std::fmt;
use std::sync::OnceLock;

/// `TWIG_NUM_THREADS` — worker-thread cap for the experiment scheduler
/// (`RAYON_NUM_THREADS` is honored as a fallback spelling).
pub const VAR_NUM_THREADS: &str = "TWIG_NUM_THREADS";
/// `TWIG_NUM_PROCS` — worker-*process* count for the headline matrix:
/// `N > 1` shards the matrix cells over `N` subprocesses that share one
/// checkpoint directory (the parent merges their cells). `1` (the
/// default) keeps everything in-process.
pub const VAR_NUM_PROCS: &str = "TWIG_NUM_PROCS";
/// `TWIG_TASK_ATTEMPTS` — total supervised-task attempts (first try +
/// retries), minimum 1.
pub const VAR_TASK_ATTEMPTS: &str = "TWIG_TASK_ATTEMPTS";
/// `TWIG_TASK_BACKOFF_MS` — base backoff between task retries.
pub const VAR_TASK_BACKOFF_MS: &str = "TWIG_TASK_BACKOFF_MS";
/// `TWIG_TASK_TIMEOUT_MS` — per-attempt task deadline (0 disables it).
pub const VAR_TASK_TIMEOUT_MS: &str = "TWIG_TASK_TIMEOUT_MS";
/// `TWIG_FAULT_SPEC` — deterministic fault-injection grammar
/// (parsed by `twig-sched::fault`).
pub const VAR_FAULT_SPEC: &str = "TWIG_FAULT_SPEC";
/// `TWIG_CRASH_SPEC` — deterministic crashpoint injection
/// `<point>[@<n>]` (parsed by `twig-sched::durable`): kill the process at
/// the named durability boundary on its nth hit.
pub const VAR_CRASH_SPEC: &str = "TWIG_CRASH_SPEC";
/// `TWIG_INTEGRITY` — simulation integrity tier
/// (`off | sampled[=N] | paranoid`; parsed by `twig-sim::integrity`).
pub const VAR_INTEGRITY: &str = "TWIG_INTEGRITY";
/// `TWIG_INTEGRITY_MUTATE` — seeded corruption `<kind>@<cycle>` for the
/// integrity mutation drill.
pub const VAR_INTEGRITY_MUTATE: &str = "TWIG_INTEGRITY_MUTATE";
/// `TWIG_INTEGRITY_MUTATE_LABEL` — substring selector restricting the
/// mutation drill to matching run labels.
pub const VAR_INTEGRITY_MUTATE_LABEL: &str = "TWIG_INTEGRITY_MUTATE_LABEL";
/// `TWIG_INTEGRITY_DUMP_DIR` — directory for forensic integrity dumps.
pub const VAR_INTEGRITY_DUMP_DIR: &str = "TWIG_INTEGRITY_DUMP_DIR";
/// `TWIG_OBS` — the observation configuration, one comma-separated
/// grammar (parsed by `twig_obs::ObsConfig::parse`): a tier
/// `off | counters | trace[=N]`, the per-branch attribution items
/// `attr | attr.k=N | attr.sample=N`, and the timeline item `window=N`
/// (a window boundary every `N` retired instructions). An explicit
/// `--obs` flag replaces it as a whole.
pub const VAR_OBS: &str = "TWIG_OBS";
/// `TWIG_TRACE_SPILL_EVENTS` — event-count threshold above which the
/// benchmark harness spills cached traces to columnar `.twgc` files and
/// streams them back instead of holding a `Vec<BlockEvent>` resident
/// (out-of-core trace engine). `0` disables spilling entirely. The
/// default (8M events) is far above every standard cell, so ordinary
/// runs never touch disk; big-trace cells cross it and stay in bounded
/// RSS.
pub const VAR_TRACE_SPILL_EVENTS: &str = "TWIG_TRACE_SPILL_EVENTS";
/// `TWIG_FLEET_WORKERS` — long-running fleet-service worker threads,
/// at least 1. Results are worker-count invariant (the fleet manifest is
/// proven byte-identical across settings), so this is purely a throughput
/// knob.
pub const VAR_FLEET_WORKERS: &str = "TWIG_FLEET_WORKERS";
/// `TWIG_FLEET_MAX_GENERATIONS` — layout-generation cap for the fleet
/// convergence watchdog, at least 1.
pub const VAR_FLEET_MAX_GENERATIONS: &str = "TWIG_FLEET_MAX_GENERATIONS";
/// `TWIG_FLEET_QUEUE_DEPTH` — bounded profile-queue capacity per fleet
/// service, at least 1; submissions beyond it block (backpressure).
pub const VAR_FLEET_QUEUE_DEPTH: &str = "TWIG_FLEET_QUEUE_DEPTH";

/// The process-wide configuration behind [`HarnessConfig::global`].
static GLOBAL: OnceLock<HarnessConfig> = OnceLock::new();

/// Every `TWIG_*` variable the harness understands, in documentation
/// order. The README's reference table and the manifest dump iterate this.
pub const ALL_VARS: &[&str] = &[
    VAR_NUM_THREADS,
    VAR_NUM_PROCS,
    VAR_TASK_ATTEMPTS,
    VAR_TASK_BACKOFF_MS,
    VAR_TASK_TIMEOUT_MS,
    VAR_FAULT_SPEC,
    VAR_CRASH_SPEC,
    VAR_INTEGRITY,
    VAR_INTEGRITY_MUTATE,
    VAR_INTEGRITY_MUTATE_LABEL,
    VAR_INTEGRITY_DUMP_DIR,
    VAR_OBS,
    VAR_TRACE_SPILL_EVENTS,
    VAR_FLEET_WORKERS,
    VAR_FLEET_MAX_GENERATIONS,
    VAR_FLEET_QUEUE_DEPTH,
];

/// Where a setting's effective value came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// The built-in default; neither environment nor caller touched it.
    Default,
    /// The environment variable.
    Env,
    /// An explicit argument (CLI flag, builder call), which outranks both.
    Explicit,
}

impl Source {
    /// Stable lower-case name, used in the manifest dump.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Default => "default",
            Source::Env => "env",
            Source::Explicit => "explicit",
        }
    }
}

/// One configuration knob: its effective value plus provenance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Setting<T> {
    /// The effective value.
    pub value: T,
    /// Where it came from.
    pub source: Source,
}

impl<T> Setting<T> {
    /// A built-in default.
    pub fn default_value(value: T) -> Self {
        Setting {
            value,
            source: Source::Default,
        }
    }

    /// An environment-supplied value.
    pub fn env_value(value: T) -> Self {
        Setting {
            value,
            source: Source::Env,
        }
    }

    /// Applies the precedence rule *explicit argument > environment >
    /// default*: `Some(v)` replaces this setting, `None` keeps it.
    pub fn with_explicit(self, explicit: Option<T>) -> Self {
        match explicit {
            Some(value) => Setting {
                value,
                source: Source::Explicit,
            },
            None => self,
        }
    }
}

/// A malformed configuration value, naming the offending variable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConfigError {
    /// The environment variable that failed to parse.
    pub var: &'static str,
    /// The raw value found there.
    pub value: String,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?}: {}",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for ConfigError {}

/// One row of the effective-configuration dump (run manifest, `Display`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConfigEntry {
    /// The variable name (`TWIG_*`).
    pub name: &'static str,
    /// The effective value, rendered (`auto` / `none` for unset options).
    pub value: String,
    /// Provenance (`default` / `env` / `explicit`).
    pub source: &'static str,
}

/// The harness configuration: every `TWIG_*` knob, parsed once.
///
/// Numeric knobs are fully typed here. Grammar knobs (`TWIG_FAULT_SPEC`,
/// `TWIG_INTEGRITY*`, `TWIG_OBS`) are carried as raw strings and parsed by
/// the crate that owns the grammar — still exactly one *environment read*,
/// and the owning parser's error message names the variable.
#[derive(Clone, PartialEq, Debug)]
pub struct HarnessConfig {
    /// Worker-thread cap; `None` = machine parallelism.
    pub num_threads: Setting<Option<usize>>,
    /// Worker-process count for the headline matrix, at least 1.
    pub num_procs: Setting<usize>,
    /// Supervised-task attempts (first run + retries), at least 1.
    pub task_attempts: Setting<u32>,
    /// Base backoff between retries, milliseconds.
    pub task_backoff_ms: Setting<u64>,
    /// Per-attempt deadline, milliseconds; `None` = no deadline.
    pub task_timeout_ms: Setting<Option<u64>>,
    /// Raw fault-injection spec, if any.
    pub fault_spec: Setting<Option<String>>,
    /// Raw crashpoint-injection spec, if any.
    pub crash_spec: Setting<Option<String>>,
    /// Raw integrity tier (`off` when unset).
    pub integrity: Setting<String>,
    /// Raw seeded-mutation spec, if any.
    pub integrity_mutate: Setting<Option<String>>,
    /// Mutation label selector, if any.
    pub integrity_mutate_label: Setting<Option<String>>,
    /// Forensic dump directory override, if any.
    pub integrity_dump_dir: Setting<Option<String>>,
    /// Raw observation spec (`off` when unset).
    pub obs: Setting<String>,
    /// Trace-spill threshold in events; `None` = spilling disabled.
    pub trace_spill_events: Setting<Option<u64>>,
    /// Fleet-service worker threads, at least 1.
    pub fleet_workers: Setting<usize>,
    /// Fleet convergence-watchdog generation cap, at least 1.
    pub fleet_max_generations: Setting<u64>,
    /// Fleet bounded-queue capacity, at least 1.
    pub fleet_queue_depth: Setting<usize>,
}

impl HarnessConfig {
    /// The built-in defaults, untouched by the environment.
    pub fn defaults() -> Self {
        HarnessConfig {
            num_threads: Setting::default_value(None),
            num_procs: Setting::default_value(1),
            task_attempts: Setting::default_value(2),
            task_backoff_ms: Setting::default_value(100),
            task_timeout_ms: Setting::default_value(Some(600_000)),
            fault_spec: Setting::default_value(None),
            crash_spec: Setting::default_value(None),
            integrity: Setting::default_value("off".to_string()),
            integrity_mutate: Setting::default_value(None),
            integrity_mutate_label: Setting::default_value(None),
            integrity_dump_dir: Setting::default_value(None),
            obs: Setting::default_value("off".to_string()),
            trace_spill_events: Setting::default_value(Some(8_000_000)),
            fleet_workers: Setting::default_value(1),
            fleet_max_generations: Setting::default_value(8),
            fleet_queue_depth: Setting::default_value(2),
        }
    }

    /// Builds the configuration from an arbitrary variable lookup —
    /// the seam precedence and bad-value tests use instead of mutating
    /// the process environment.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first malformed variable.
    pub fn from_lookup(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<Self, ConfigError> {
        let mut config = HarnessConfig::defaults();

        // `TWIG_NUM_THREADS` wins; `RAYON_NUM_THREADS` is honored as a
        // fallback spelling for operators used to rayon-based harnesses.
        for var in [VAR_NUM_THREADS, "RAYON_NUM_THREADS"] {
            if let Some(raw) = lookup(var) {
                let n = parse_positive(VAR_NUM_THREADS, &raw, "thread count")?;
                config.num_threads = Setting::env_value(Some(n as usize));
                break;
            }
        }
        if let Some(raw) = lookup(VAR_NUM_PROCS) {
            let n = parse_positive(VAR_NUM_PROCS, &raw, "process count")?;
            config.num_procs = Setting::env_value(n as usize);
        }
        if let Some(raw) = lookup(VAR_TASK_ATTEMPTS) {
            let n = parse_u64(VAR_TASK_ATTEMPTS, &raw)?;
            config.task_attempts = Setting::env_value((n as u32).max(1));
        }
        if let Some(raw) = lookup(VAR_TASK_BACKOFF_MS) {
            config.task_backoff_ms = Setting::env_value(parse_u64(VAR_TASK_BACKOFF_MS, &raw)?);
        }
        if let Some(raw) = lookup(VAR_TASK_TIMEOUT_MS) {
            let n = parse_u64(VAR_TASK_TIMEOUT_MS, &raw)?;
            config.task_timeout_ms = Setting::env_value(if n == 0 { None } else { Some(n) });
        }
        if let Some(raw) = lookup(VAR_FAULT_SPEC) {
            config.fault_spec = Setting::env_value(non_empty(raw));
        }
        if let Some(raw) = lookup(VAR_CRASH_SPEC) {
            config.crash_spec = Setting::env_value(non_empty(raw));
        }
        if let Some(raw) = lookup(VAR_INTEGRITY) {
            config.integrity = Setting::env_value(raw.trim().to_string());
        }
        if let Some(raw) = lookup(VAR_INTEGRITY_MUTATE) {
            config.integrity_mutate = Setting::env_value(non_empty(raw));
        }
        if let Some(raw) = lookup(VAR_INTEGRITY_MUTATE_LABEL) {
            config.integrity_mutate_label = Setting::env_value(non_empty(raw));
        }
        if let Some(raw) = lookup(VAR_INTEGRITY_DUMP_DIR) {
            config.integrity_dump_dir = Setting::env_value(non_empty(raw));
        }
        if let Some(raw) = lookup(VAR_OBS) {
            config.obs = Setting::env_value(raw.trim().to_string());
        }
        if let Some(raw) = lookup(VAR_TRACE_SPILL_EVENTS) {
            let n = parse_u64(VAR_TRACE_SPILL_EVENTS, &raw)?;
            config.trace_spill_events = Setting::env_value(if n == 0 { None } else { Some(n) });
        }
        if let Some(raw) = lookup(VAR_FLEET_WORKERS) {
            let n = parse_positive(VAR_FLEET_WORKERS, &raw, "worker count")?;
            config.fleet_workers = Setting::env_value(n as usize);
        }
        if let Some(raw) = lookup(VAR_FLEET_MAX_GENERATIONS) {
            let n = parse_positive(VAR_FLEET_MAX_GENERATIONS, &raw, "generation cap")?;
            config.fleet_max_generations = Setting::env_value(n);
        }
        if let Some(raw) = lookup(VAR_FLEET_QUEUE_DEPTH) {
            let n = parse_positive(VAR_FLEET_QUEUE_DEPTH, &raw, "queue depth")?;
            config.fleet_queue_depth = Setting::env_value(n as usize);
        }
        Ok(config)
    }

    /// Builds the configuration from the process environment.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first malformed variable.
    pub fn from_env() -> Result<Self, ConfigError> {
        Self::from_lookup(|var| std::env::var(var).ok())
    }

    /// The process-wide configuration: the one a binary [`install`]ed, or
    /// else the environment, parsed once and cached.
    ///
    /// [`install`]: HarnessConfig::install
    ///
    /// # Panics
    ///
    /// Panics (naming the variable) when nothing was installed and the
    /// environment is malformed — a misconfigured run must not silently
    /// proceed with defaults.
    pub fn global() -> &'static HarnessConfig {
        GLOBAL.get_or_init(|| {
            HarnessConfig::from_env()
                .unwrap_or_else(|e| panic!("invalid harness configuration: {e}"))
        })
    }

    /// Makes this configuration the one [`global`](HarnessConfig::global)
    /// returns. Binaries resolve the environment and their explicit flags
    /// up front (reporting a usage error) and install the result before
    /// anything reads it. The first caller wins; the returned reference is
    /// the configuration in effect.
    pub fn install(self) -> &'static HarnessConfig {
        let _ = GLOBAL.set(self);
        HarnessConfig::global()
    }

    /// The effective configuration as `(name, value, source)` rows, in
    /// [`ALL_VARS`] order — what the run manifest embeds.
    pub fn entries(&self) -> Vec<ConfigEntry> {
        fn opt<T: fmt::Display>(v: &Option<T>, unset: &str) -> String {
            match v {
                Some(v) => v.to_string(),
                None => unset.to_string(),
            }
        }
        fn row<T>(
            name: &'static str,
            setting: &Setting<T>,
            render: impl FnOnce(&T) -> String,
        ) -> ConfigEntry {
            ConfigEntry {
                name,
                value: render(&setting.value),
                source: setting.source.as_str(),
            }
        }
        vec![
            row(VAR_NUM_THREADS, &self.num_threads, |v| opt(v, "auto")),
            row(VAR_NUM_PROCS, &self.num_procs, ToString::to_string),
            row(VAR_TASK_ATTEMPTS, &self.task_attempts, ToString::to_string),
            row(VAR_TASK_BACKOFF_MS, &self.task_backoff_ms, ToString::to_string),
            row(VAR_TASK_TIMEOUT_MS, &self.task_timeout_ms, |v| opt(v, "none")),
            row(VAR_FAULT_SPEC, &self.fault_spec, |v| opt(v, "none")),
            row(VAR_CRASH_SPEC, &self.crash_spec, |v| opt(v, "none")),
            row(VAR_INTEGRITY, &self.integrity, Clone::clone),
            row(VAR_INTEGRITY_MUTATE, &self.integrity_mutate, |v| opt(v, "none")),
            row(VAR_INTEGRITY_MUTATE_LABEL, &self.integrity_mutate_label, |v| opt(v, "none")),
            row(VAR_INTEGRITY_DUMP_DIR, &self.integrity_dump_dir, |v| opt(v, "none")),
            row(VAR_OBS, &self.obs, Clone::clone),
            row(VAR_TRACE_SPILL_EVENTS, &self.trace_spill_events, |v| opt(v, "off")),
            row(VAR_FLEET_WORKERS, &self.fleet_workers, ToString::to_string),
            row(VAR_FLEET_MAX_GENERATIONS, &self.fleet_max_generations, ToString::to_string),
            row(VAR_FLEET_QUEUE_DEPTH, &self.fleet_queue_depth, ToString::to_string),
        ]
    }
}

impl fmt::Display for HarnessConfig {
    /// One `NAME=value (source)` line per knob — the human-readable dump.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for entry in self.entries() {
            writeln!(f, "{}={} ({})", entry.name, entry.value, entry.source)?;
        }
        Ok(())
    }
}

fn parse_u64(var: &'static str, raw: &str) -> Result<u64, ConfigError> {
    raw.trim().parse().map_err(|_| ConfigError {
        var,
        value: raw.to_string(),
        reason: "expected a non-negative integer".to_string(),
    })
}

/// [`parse_u64`], rejecting 0 with "`what` must be >= 1".
fn parse_positive(var: &'static str, raw: &str, what: &str) -> Result<u64, ConfigError> {
    match parse_u64(var, raw)? {
        0 => Err(ConfigError {
            var,
            value: raw.to_string(),
            reason: format!("{what} must be >= 1"),
        }),
        n => Ok(n),
    }
}

fn non_empty(raw: String) -> Option<String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        None
    } else {
        Some(trimmed.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_of<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |var| {
            pairs
                .iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn defaults_have_default_source() {
        let config = HarnessConfig::from_lookup(|_| None).unwrap();
        assert_eq!(config, HarnessConfig::defaults());
        for entry in config.entries() {
            assert_eq!(entry.source, "default", "{}", entry.name);
        }
        assert_eq!(config.task_attempts.value, 2);
        assert_eq!(config.task_timeout_ms.value, Some(600_000));
        assert_eq!(config.integrity.value, "off");
        assert_eq!(config.obs.value, "off");
    }

    #[test]
    fn env_overrides_defaults() {
        let config = HarnessConfig::from_lookup(env_of(&[
            ("TWIG_NUM_THREADS", "3"),
            ("TWIG_TASK_TIMEOUT_MS", "0"),
            ("TWIG_OBS", "  counters,window=4096  "),
            ("TWIG_FAULT_SPEC", "  panic:task=1  "),
        ]))
        .unwrap();
        assert_eq!(config.num_threads.value, Some(3));
        assert_eq!(config.num_threads.source, Source::Env);
        // 0 means "no deadline".
        assert_eq!(config.task_timeout_ms.value, None);
        assert_eq!(config.obs.value, "counters,window=4096");
        assert_eq!(config.obs.source, Source::Env);
        assert_eq!(config.fault_spec.value.as_deref(), Some("panic:task=1"));
    }

    #[test]
    fn explicit_beats_env_beats_default() {
        let config = HarnessConfig::from_lookup(env_of(&[("TWIG_TASK_ATTEMPTS", "5")])).unwrap();
        assert_eq!(config.task_attempts.value, 5);
        assert_eq!(config.task_attempts.source, Source::Env);
        let explicit = config.task_attempts.with_explicit(Some(9));
        assert_eq!(explicit.value, 9);
        assert_eq!(explicit.source, Source::Explicit);
        // `None` keeps the env layer.
        let kept = config.task_attempts.with_explicit(None);
        assert_eq!(kept.value, 5);
        assert_eq!(kept.source, Source::Env);
    }

    #[test]
    fn rayon_fallback_is_honored_but_twig_wins() {
        let config =
            HarnessConfig::from_lookup(env_of(&[("RAYON_NUM_THREADS", "7")])).unwrap();
        assert_eq!(config.num_threads.value, Some(7));
        let config = HarnessConfig::from_lookup(env_of(&[
            ("TWIG_NUM_THREADS", "2"),
            ("RAYON_NUM_THREADS", "7"),
        ]))
        .unwrap();
        assert_eq!(config.num_threads.value, Some(2));
    }

    #[test]
    fn bad_values_name_the_variable() {
        let err = HarnessConfig::from_lookup(env_of(&[("TWIG_TASK_ATTEMPTS", "tree")]))
            .unwrap_err();
        assert_eq!(err.var, "TWIG_TASK_ATTEMPTS");
        assert!(err.to_string().contains("TWIG_TASK_ATTEMPTS"), "{err}");
        assert!(err.to_string().contains("tree"), "{err}");

        let err =
            HarnessConfig::from_lookup(env_of(&[("TWIG_NUM_THREADS", "0")])).unwrap_err();
        assert_eq!(err.var, "TWIG_NUM_THREADS");
        assert!(err.to_string().contains(">= 1"), "{err}");
    }

    #[test]
    fn empty_grammar_values_read_as_unset() {
        let config = HarnessConfig::from_lookup(env_of(&[
            ("TWIG_FAULT_SPEC", "   "),
            ("TWIG_INTEGRITY_MUTATE", ""),
        ]))
        .unwrap();
        assert_eq!(config.fault_spec.value, None);
        assert_eq!(config.integrity_mutate.value, None);
    }

    #[test]
    fn display_and_entries_cover_every_variable() {
        let config = HarnessConfig::defaults();
        let dump = config.to_string();
        let entries = config.entries();
        assert_eq!(entries.len(), ALL_VARS.len());
        for (entry, var) in entries.iter().zip(ALL_VARS) {
            assert_eq!(entry.name, *var);
            assert!(dump.contains(var), "dump missing {var}");
        }
        assert!(dump.contains("TWIG_NUM_THREADS=auto (default)"), "{dump}");
    }

    #[test]
    fn fleet_knobs_parse_and_reject_zero() {
        let config = HarnessConfig::from_lookup(env_of(&[
            ("TWIG_FLEET_WORKERS", "4"),
            ("TWIG_FLEET_MAX_GENERATIONS", "12"),
            ("TWIG_FLEET_QUEUE_DEPTH", "3"),
        ]))
        .unwrap();
        assert_eq!(config.fleet_workers.value, 4);
        assert_eq!(config.fleet_max_generations.value, 12);
        assert_eq!(config.fleet_queue_depth.value, 3);
        assert_eq!(config.fleet_workers.source, Source::Env);

        let defaults = HarnessConfig::defaults();
        assert_eq!(defaults.fleet_workers.value, 1);
        assert_eq!(defaults.fleet_max_generations.value, 8);
        assert_eq!(defaults.fleet_queue_depth.value, 2);

        for var in ["TWIG_FLEET_WORKERS", "TWIG_FLEET_MAX_GENERATIONS", "TWIG_FLEET_QUEUE_DEPTH"] {
            let err = HarnessConfig::from_lookup(env_of(&[(var, "0")])).unwrap_err();
            assert_eq!(err.var, var);
            assert!(err.to_string().contains(">= 1"), "{err}");
        }
    }

    #[test]
    fn attempts_floor_at_one() {
        let config =
            HarnessConfig::from_lookup(env_of(&[("TWIG_TASK_ATTEMPTS", "0")])).unwrap();
        assert_eq!(config.task_attempts.value, 1);
    }
}
