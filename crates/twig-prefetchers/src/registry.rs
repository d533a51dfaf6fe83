//! Runtime prefetcher construction: one registry mapping names to
//! [`BtbSystem`] implementations.
//!
//! Harnesses that select a BTB organization at runtime (`twig-cli
//! simulate --system`, the extension/sensitivity experiment sweeps) go
//! through [`by_name`] instead of hand-rolled match statements, so the
//! set of valid names and their error message live in exactly one place.
//! Hot experiment loops that monomorphize the simulator over a concrete
//! system type (the `run_mono` path in `twig-bench`) intentionally do
//! not — boxing there would undo the devirtualized hot loop.

use std::fmt;

use twig_sim::{BtbSystem, PlainBtb, SimConfig};

use crate::{CompressedBtb, Confluence, PhantomBtb, Shotgun, TwoLevelBtb};

/// Canonical system names accepted by [`by_name`], in menu order.
pub const VALID_NAMES: [&str; 6] = ["twig", "shotgun", "confluence", "phantom", "btbx", "bulk"];

/// Accepted aliases: each is the `name()` its system reports, mapping to
/// the canonical name that builds it.
pub const ALIASES: [(&str, &str); 4] = [
    ("plain", "twig"),
    ("btb-x", "btbx"),
    ("phantom-btb", "phantom"),
    ("two-level-bulk", "bulk"),
];

/// A prefetcher name [`by_name`] does not recognize.
///
/// The `Display` form lists every valid option so callers can surface it
/// directly:
///
/// ```
/// use twig_prefetchers::registry;
/// use twig_sim::SimConfig;
///
/// let err = registry::by_name("nope", &SimConfig::default()).err().unwrap();
/// assert!(err.to_string().contains("shotgun"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownPrefetcherError {
    /// The rejected name.
    pub name: String,
}

impl fmt::Display for UnknownPrefetcherError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let aliases: Vec<String> = ALIASES
            .iter()
            .map(|(alias, canon)| format!("{alias} (= {canon})"))
            .collect();
        write!(
            f,
            "unknown prefetcher {:?}; valid names: {}; aliases: {}",
            self.name,
            VALID_NAMES.join(", "),
            aliases.join(", "),
        )
    }
}

impl std::error::Error for UnknownPrefetcherError {}

/// Resolves an alias to its canonical name (identity for canonical and
/// unknown names).
pub fn canonical_name(name: &str) -> &str {
    ALIASES
        .iter()
        .find(|(alias, _)| *alias == name)
        .map(|(_, canon)| *canon)
        .unwrap_or(name)
}

/// Constructs the named BTB system from the simulator configuration.
///
/// `"twig"` (alias `plain`) is the conventional BTB with Twig's
/// software-prefetch execution support — what it models depends on the
/// program (rewritten or not) and on `config.ideal_btb`, which the caller
/// sets; the other names select the hardware-prefetcher baselines and the
/// alternative BTB organizations. Unknown names return an [`UnknownPrefetcherError`] listing
/// the valid options.
pub fn by_name(
    name: &str,
    config: &SimConfig,
) -> Result<Box<dyn BtbSystem>, UnknownPrefetcherError> {
    Ok(match canonical_name(name) {
        "twig" => Box::new(PlainBtb::new(config)),
        "shotgun" => Box::new(Shotgun::new(config)),
        "confluence" => Box::new(Confluence::new(config)),
        "phantom" => Box::new(PhantomBtb::new(config)),
        "btbx" => Box::new(CompressedBtb::new(config)),
        "bulk" => Box::new(TwoLevelBtb::new(config)),
        other => {
            return Err(UnknownPrefetcherError {
                name: other.to_string(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_canonical_name_constructs() {
        let config = SimConfig::default();
        for name in VALID_NAMES {
            let system = by_name(name, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!system.name().is_empty(), "{name}");
        }
    }

    #[test]
    fn aliases_reach_the_same_system_as_their_canonical_name() {
        let config = SimConfig::default();
        for (alias, canon) in ALIASES {
            let a = by_name(alias, &config).unwrap();
            let c = by_name(canon, &config).unwrap();
            assert_eq!(a.name(), c.name(), "{alias} vs {canon}");
        }
    }

    #[test]
    fn every_alias_is_a_reported_name() {
        let config = SimConfig::default();
        for (alias, _) in ALIASES {
            assert_eq!(by_name(alias, &config).unwrap().name(), alias);
        }
    }

    #[test]
    fn unknown_name_error_lists_options() {
        // `baseline` and `ideal` are harness cell names, not systems (an
        // ideal BTB is `config.ideal_btb`).
        for unknown in ["frobnicate", "stream", "baseline", "ideal"] {
            let err = by_name(unknown, &SimConfig::default()).err().unwrap();
            let msg = err.to_string();
            assert!(msg.contains(&format!("{unknown:?}")), "{msg}");
            for name in VALID_NAMES {
                assert!(msg.contains(name), "missing {name} in {msg}");
            }
            assert!(msg.contains("two-level-bulk"), "{msg}");
        }
    }

    #[test]
    fn registered_metrics_are_namespaced_per_system() {
        let config = SimConfig::default();
        for name in VALID_NAMES {
            let system = by_name(name, &config).unwrap();
            let mut registry = twig_sim::MetricsRegistry::new();
            system.register_metrics(&mut registry);
            let snap = registry.snapshot();
            for counter in &snap.counters {
                assert!(
                    counter.name.starts_with(&format!("system.{}.", system.name())),
                    "{name}: counter {} not namespaced",
                    counter.name
                );
            }
        }
    }
}
