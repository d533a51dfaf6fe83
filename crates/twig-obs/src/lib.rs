//! The observability layer: structured metrics, stage tracing, and run
//! telemetry for the Twig harness — zero-cost when off.
//!
//! Twig's evaluation hinges on per-component frontend telemetry (BTB
//! MPKI, FTQ occupancy, prefetch timeliness, stall attribution). This
//! crate gives every component one way to expose those numbers:
//!
//! * [`MetricsRegistry`] — typed counters and log2-bucketed fixed-size
//!   histograms. Registration allocates once at construction; the hot
//!   loop records through integer handles ([`CounterId`], [`HistId`])
//!   with no allocation and no hashing. [`MetricsSnapshot`] freezes the
//!   registry into a name-sorted, deterministic form serialized to
//!   `results/metrics/<app>_<config>.json`.
//! * [`TraceRing`] — a sampled bounded ring buffer of span events
//!   ([`TraceEvent`]) over the decoupled-frontend stages, exportable as
//!   chrome://tracing JSON ([`chrome_trace_json`]).
//! * [`diff`] — structural comparison of two metrics snapshots (the
//!   `twig-cli metrics diff` subcommand).
//! * [`schema`] — a minimal JSON-schema-subset validator used by CI to
//!   pin the exported metrics/trace formats.
//!
//! Everything is selected through one [`ObsConfig`], written in one
//! grammar — the `TWIG_OBS` environment variable (parsed through the
//! unified `twig_types::HarnessConfig`) or an explicit `--obs` flag,
//! which replaces the variable as a whole. It is a comma-separated list
//! of items ([`ObsConfig::parse`]):
//!
//! * a tier, at most one — `off` (the default; instrumentation compiles
//!   to one never-taken branch per cycle), `counters` (counters and
//!   histograms; deterministic for a fixed seed regardless of thread
//!   count — each simulation is single-threaded and the registry holds
//!   no clocks and no addresses), or `trace[=N]` (counters plus span
//!   events, sampling one event in `N`, default 1, into the bounded
//!   ring);
//! * `attr`, `attr.k=N`, `attr.sample=N` — the per-branch cycle
//!   attribution profiler ([`attr`]), on any tier;
//! * `window=N` — the windowed timeline ([`timeseries`]), sampled every
//!   `N` retired instructions.
//!
//! # Examples
//!
//! ```
//! use twig_obs::{MetricsRegistry, ObsConfig, ObsLevel};
//!
//! let mut reg = MetricsRegistry::new();
//! let hits = reg.counter("btb.hits");
//! let occ = reg.histogram("ftq.occupancy");
//! reg.inc(hits, 3);
//! reg.record(occ, 17);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("btb.hits"), Some(3));
//!
//! let obs = ObsConfig::parse("trace=8,attr,window=4096").unwrap();
//! assert_eq!(obs.level, ObsLevel::Trace { sample: 8 });
//! assert!(obs.attr.enabled);
//! assert_eq!(obs.window, Some(4096));
//! assert_eq!(obs.as_text(), "trace=8,attr,window=4096");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod diff;
pub mod metrics;
pub mod schema;
pub mod timeseries;
pub mod trace;

pub use attr::{
    folded_stacks, AttrConfig, AttrEntry, AttrKey, AttrTable, AttributionSnapshot, MissKind,
    ATTRIBUTION_VERSION, DEFAULT_ATTR_K,
};
pub use diff::{diff_snapshots, MetricsDiff};
pub use metrics::{
    CounterId, Hist64, HistId, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    METRICS_VERSION,
};
pub use schema::{validate, SchemaError};
pub use timeseries::{
    detect_phases, diff_timelines, DerivedWindow, PhaseSegment, TimeSeriesRing, TimelineDiff,
    TimelineSnapshot, TrackId, TrackKind, TrackSnapshot, WindowSnapshot,
    DEFAULT_TIMELINE_CAPACITY, TIMELINE_VERSION,
};
pub use trace::{
    chrome_trace_json, trace_pid, Stage, TraceEvent, TraceRing, DEFAULT_TRACE_CAPACITY,
};

use twig_serde::{Deserialize, Serialize};

/// A failed metrics/trace/attribution export or import: the document
/// could not be serialized or parsed.
///
/// Carries *what* was being exported and the serializer's reason, so
/// callers (the CLI, the harness telemetry writer) can surface it as a
/// typed error instead of panicking mid-run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExportError {
    what: &'static str,
    detail: String,
}

impl ExportError {
    /// An export error for document kind `what`.
    pub fn new(what: &'static str, detail: impl Into<String>) -> Self {
        ExportError {
            what,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.what, self.detail)
    }
}

impl std::error::Error for ExportError {}

/// How much the observability layer records.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum ObsLevel {
    /// Nothing: the hot loop pays only one never-taken branch per cycle.
    #[default]
    Off,
    /// Counters and histograms (allocation-free in the hot loop).
    Counters,
    /// Counters plus span events sampled one-in-`sample` into the ring.
    Trace {
        /// Record every `sample`-th span event (min 1 = every event).
        sample: u64,
    },
}

impl ObsLevel {
    /// Whether counters/histograms are recorded at this tier.
    pub fn counters(&self) -> bool {
        !matches!(self, ObsLevel::Off)
    }

    /// The trace sampling period; `None` when tracing is off.
    pub fn trace_sample(&self) -> Option<u64> {
        match *self {
            ObsLevel::Trace { sample } => Some(sample.max(1)),
            _ => None,
        }
    }
}

/// Observability knobs, carried inside the simulator configuration.
///
/// `Copy` on purpose (the owning `SimConfig` is `Copy`); the actual
/// recording state lives behind an `Option<Box<_>>` in the simulator so
/// the `off` tier allocates nothing. The one textual form is the
/// `TWIG_OBS` / `--obs` grammar ([`ObsConfig::parse`],
/// [`ObsConfig::as_text`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Recording tier.
    pub level: ObsLevel,
    /// Per-branch cycle attribution knobs (the `attr*` items),
    /// orthogonal to the tier: enabling attribution alone still creates
    /// recording state (and thus a metrics snapshot).
    pub attr: AttrConfig,
    /// Windowed time-series sampling period (the `window=N` item), in
    /// retired instructions per window; `None` = off. Orthogonal to the
    /// tier *and* to [`ObsConfig::recording`]: windowing samples the
    /// live statistics read-only, so it composes with batched idle-cycle
    /// stepping and preserves bit-identical simulation statistics.
    pub window: Option<u64>,
}

/// The items [`ObsConfig::parse`] accepts, for error messages.
const OBS_GRAMMAR: &str =
    "off | counters | trace[=N] | attr | attr.k=N | attr.sample=N | window=N";

/// Parses the `N` of a `name=N` item: a positive integer.
fn positive<T>(item: &str, n: &str) -> Result<T, String>
where
    T: std::str::FromStr + PartialEq + From<u8>,
{
    let value: T = n.parse().map_err(|_| format!("bad number {n:?} in {item:?}"))?;
    if value == T::from(0) {
        return Err(format!("{item:?}: the number must be >= 1"));
    }
    Ok(value)
}

impl ObsConfig {
    /// Observability disabled.
    pub fn off() -> Self {
        ObsConfig {
            level: ObsLevel::Off,
            attr: AttrConfig::off(),
            window: None,
        }
    }

    /// Counters and histograms only.
    pub fn counters() -> Self {
        ObsConfig {
            level: ObsLevel::Counters,
            ..ObsConfig::off()
        }
    }

    /// Counters plus span tracing, sampling one event in `sample`.
    pub fn trace(sample: u64) -> Self {
        ObsConfig {
            level: ObsLevel::Trace {
                sample: sample.max(1),
            },
            ..ObsConfig::off()
        }
    }

    /// Windowed time-series sampling every `window` retired instructions
    /// (floored to 1), leaving the recording tier off.
    pub fn windowed(window: u64) -> Self {
        ObsConfig {
            window: Some(window.max(1)),
            ..ObsConfig::off()
        }
    }

    /// Parses the observation grammar shared by `TWIG_OBS` and `--obs`:
    ///
    /// ```text
    /// obs  := item (',' item)*                  # "" or "off" = everything off
    /// item := off | counters | trace | trace=N  # tier, at most once
    ///       | attr | attr.k=N | attr.sample=N   # any attr item turns attribution on
    ///       | window=N                          # timeline every N retired instructions
    /// ```
    ///
    /// Every `N` must be at least 1, and an item may appear once (two
    /// tiers conflict).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending item.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut config = ObsConfig::off();
        let text = text.trim();
        if text.is_empty() {
            return Ok(config);
        }
        let mut seen: Vec<&str> = Vec::new();
        for item in text.split(',').map(str::trim) {
            let (name, value) = match item.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (item, None),
            };
            let slot = match (name, value) {
                ("off", None) => {
                    config.level = ObsLevel::Off;
                    "tier"
                }
                ("counters", None) => {
                    config.level = ObsLevel::Counters;
                    "tier"
                }
                ("trace", None) => {
                    config.level = ObsLevel::Trace { sample: 1 };
                    "tier"
                }
                ("trace", Some(n)) => {
                    config.level = ObsLevel::Trace {
                        sample: positive(item, n)?,
                    };
                    "tier"
                }
                ("attr", None) => {
                    config.attr.enabled = true;
                    "attr"
                }
                ("attr.k", Some(n)) => {
                    config.attr.enabled = true;
                    config.attr.k = positive(item, n)?;
                    "attr.k"
                }
                ("attr.sample", Some(n)) => {
                    config.attr.enabled = true;
                    config.attr.sample = positive(item, n)?;
                    "attr.sample"
                }
                ("window", Some(n)) => {
                    config.window = Some(positive(item, n)?);
                    "window"
                }
                _ => {
                    return Err(format!(
                        "unknown observation item {item:?} (expected {OBS_GRAMMAR})"
                    ))
                }
            };
            if seen.contains(&slot) {
                return Err(format!("{item:?} repeats or conflicts with an earlier {slot} item"));
            }
            seen.push(slot);
        }
        Ok(config)
    }

    /// Canonical textual form: the tier, then any non-default attribution
    /// items, then the window; `off` when nothing records. Round-trips:
    /// `ObsConfig::parse(&c.as_text()) == Ok(c)` for every parsed `c`.
    pub fn as_text(&self) -> String {
        let mut items = Vec::new();
        match self.level {
            ObsLevel::Off => {}
            ObsLevel::Counters => items.push("counters".to_string()),
            ObsLevel::Trace { sample: 1 } => items.push("trace".to_string()),
            ObsLevel::Trace { sample } => items.push(format!("trace={sample}")),
        }
        if self.attr.enabled {
            let default = AttrConfig::on();
            let mut attr = Vec::new();
            if self.attr.k != default.k {
                attr.push(format!("attr.k={}", self.attr.k));
            }
            if self.attr.sample != default.sample {
                attr.push(format!("attr.sample={}", self.attr.sample));
            }
            if attr.is_empty() {
                attr.push("attr".to_string());
            }
            items.extend(attr);
        }
        if let Some(window) = self.window {
            items.push(format!("window={window}"));
        }
        if items.is_empty() {
            "off".to_string()
        } else {
            items.join(",")
        }
    }

    /// Builds from an already-parsed harness configuration (the grammar
    /// is owned here, not in `twig-types`); errors name `--obs` when the
    /// value came from an explicit flag and `TWIG_OBS` otherwise.
    pub fn from_harness(harness: &twig_types::HarnessConfig) -> Result<Self, String> {
        let origin = match harness.obs.source {
            twig_types::Source::Explicit => "--obs",
            _ => twig_types::config::VAR_OBS,
        };
        ObsConfig::parse(&harness.obs.value).map_err(|e| format!("{origin}: {e}"))
    }

    /// Whether any recording state exists at all (counters tier or
    /// attribution enabled) — the gate for `Option<Box<ObsState>>`.
    pub fn recording(&self) -> bool {
        self.level.counters() || self.attr.enabled
    }

    /// Validates the knobs (called from the simulator's config validation).
    pub fn validate(&self) -> Result<(), String> {
        if let ObsLevel::Trace { sample } = self.level {
            if sample == 0 {
                return Err("obs trace sample period must be >= 1".into());
            }
        }
        if self.window == Some(0) {
            return Err("obs window size must be >= 1".into());
        }
        self.attr.validate()
    }
}

impl Default for ObsConfig {
    /// The effective process-wide configuration: an explicit override
    /// installed via [`set_global_override`] wins over the environment
    /// (`TWIG_OBS`), which wins over `off` — the harness-wide
    /// *explicit arg > env > default* precedence rule.
    ///
    /// # Panics
    ///
    /// Panics if `TWIG_OBS` is malformed and no override is installed —
    /// a misconfigured run must not silently fall back to `off`. Binaries
    /// resolve the configuration up front (reporting a usage error) and
    /// pin it, so they never reach this panic.
    fn default() -> Self {
        if let Some(config) = GLOBAL_OVERRIDE.get() {
            return *config;
        }
        ObsConfig::from_harness(twig_types::HarnessConfig::global())
            .expect("invalid observability environment")
    }
}

static GLOBAL_OVERRIDE: std::sync::OnceLock<ObsConfig> = std::sync::OnceLock::new();

/// Pins the process-wide observability configuration, overriding
/// `TWIG_OBS` for every subsequent `ObsConfig::default()` (binaries call
/// this with the configuration they resolved from `--obs` or the
/// environment). The first caller wins; later calls are ignored, like the
/// integrity dump-dir override.
pub fn set_global_override(config: ObsConfig) {
    let _ = GLOBAL_OVERRIDE.set(config);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> ObsConfig {
        ObsConfig::parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"))
    }

    #[test]
    fn level_grammar_round_trips() {
        for (text, level) in [
            ("off", ObsLevel::Off),
            ("counters", ObsLevel::Counters),
            ("trace", ObsLevel::Trace { sample: 1 }),
            ("trace=64", ObsLevel::Trace { sample: 64 }),
        ] {
            let config = parse(text);
            assert_eq!(config, ObsConfig { level, ..ObsConfig::off() }, "{text}");
            assert_eq!(config.as_text(), text);
        }
        assert_eq!(parse("  counters  "), ObsConfig::counters());
        assert_eq!(parse(""), ObsConfig::off());
        assert_eq!(parse(" trace=1 ").as_text(), "trace");
    }

    #[test]
    fn level_grammar_rejects_garbage() {
        assert!(ObsConfig::parse("verbose").unwrap_err().contains("verbose"));
        assert!(ObsConfig::parse("trace=0").is_err());
        assert!(ObsConfig::parse("trace=lots").is_err());
        assert!(ObsConfig::parse("counters=2").is_err());
        assert!(ObsConfig::parse("counters,").is_err());
        // Two tiers conflict, even when they agree.
        assert!(ObsConfig::parse("counters,trace").is_err());
        assert!(ObsConfig::parse("counters,counters").is_err());
        assert!(ObsConfig::parse("off,counters").is_err());
    }

    #[test]
    fn combined_items_compose_and_print_canonically() {
        let config = parse(" window=4096 , attr.sample=2 ,trace=8, attr.k=32 ");
        assert_eq!(config.level, ObsLevel::Trace { sample: 8 });
        assert!(config.attr.enabled);
        assert_eq!((config.attr.k, config.attr.sample), (32, 2));
        assert_eq!(config.window, Some(4096));
        assert_eq!(config.as_text(), "trace=8,attr.k=32,attr.sample=2,window=4096");
        for text in [
            "off",
            "attr",
            "counters,attr",
            "attr.k=8",
            "trace,attr.sample=4,window=1",
            "window=10000",
        ] {
            assert_eq!(parse(text).as_text(), text);
            assert_eq!(parse(&parse(text).as_text()), parse(text));
        }
        // Default-valued attr items collapse to plain `attr`; `off` next
        // to other items is implied and dropped.
        assert_eq!(parse("attr,attr.k=64").as_text(), "attr");
        assert_eq!(parse("off,window=7").as_text(), "window=7");
        assert!(ObsConfig::parse("window=1,window=2").is_err());
        assert!(ObsConfig::parse("attr,attr").is_err());
    }

    #[test]
    fn config_tiers_and_validation() {
        assert_eq!(ObsConfig::off().level, ObsLevel::Off);
        assert!(ObsConfig::counters().level.counters());
        assert_eq!(ObsConfig::trace(0).level.trace_sample(), Some(1));
        assert!(ObsConfig::off().validate().is_ok());
        // Windowing is orthogonal: it neither creates recording state
        // nor requires a tier.
        let windowed = ObsConfig::windowed(4096);
        assert_eq!(windowed, parse("window=4096"));
        assert!(!windowed.recording());
        assert!(windowed.validate().is_ok());
        let bad = ObsConfig {
            window: Some(0),
            ..ObsConfig::off()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn recording_gate_covers_attr_only_runs() {
        assert!(!ObsConfig::off().recording());
        assert!(ObsConfig::counters().recording());
        assert!(parse("attr").recording());
        let bad = ObsConfig {
            attr: AttrConfig {
                sample: 0,
                ..AttrConfig::on()
            },
            ..ObsConfig::counters()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn from_harness_parses_the_tier() {
        let harness = twig_types::HarnessConfig::from_lookup(|var| match var {
            "TWIG_OBS" => Some("trace=4,attr.k=32,attr.sample=2,window=8192".to_string()),
            _ => None,
        })
        .unwrap();
        let obs = ObsConfig::from_harness(&harness).unwrap();
        assert_eq!(obs.level, ObsLevel::Trace { sample: 4 });
        assert!(obs.attr.enabled);
        assert_eq!((obs.attr.k, obs.attr.sample), (32, 2));
        assert_eq!(obs.window, Some(8192));

        let harness = twig_types::HarnessConfig::from_lookup(|var| match var {
            "TWIG_OBS" => Some("loud".to_string()),
            _ => None,
        })
        .unwrap();
        let err = ObsConfig::from_harness(&harness).unwrap_err();
        assert!(err.contains("TWIG_OBS") && err.contains("loud"), "{err}");

        // An explicit value replaces the environment's as a whole, and
        // its errors name the flag.
        let mut explicit = harness.clone();
        explicit.obs = harness.obs.clone().with_explicit(Some("window=0".to_string()));
        let err = ObsConfig::from_harness(&explicit).unwrap_err();
        assert!(err.starts_with("--obs:"), "{err}");
        explicit.obs = harness.obs.with_explicit(Some("counters".to_string()));
        assert_eq!(ObsConfig::from_harness(&explicit).unwrap(), ObsConfig::counters());
    }
}
