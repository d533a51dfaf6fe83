//! The A/B deploy gate: every candidate layout is judged against the
//! currently deployed one before it ships.
//!
//! The metric set and relative thresholds ([`METRICS`], judged by
//! [`judge`]) are the ones the regression sentinel in `twig-cli`
//! (`twig metrics regress`) uses too: one table for both verdicts. A
//! candidate that moves any metric past its threshold in the bad
//! direction is `Rollback`; one that improves IPC or cycles past the
//! threshold (with nothing regressing) is `Deploy`; everything inside
//! the noise band is `Hold`, and consecutive holds are what the
//! convergence watchdog counts.

use twig_sim::SimStats;

/// The headline figures the gate compares, derived from one run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GateMetrics {
    /// Retired instructions per cycle.
    pub ipc: f64,
    /// BTB misses per kilo-instruction.
    pub btb_mpki: f64,
    /// Fraction of BTB misses covered by prefetching (1.0 when missless).
    pub coverage: f64,
    /// Total simulated cycles.
    pub cycles: u64,
}

impl GateMetrics {
    /// Derives the gate metrics from simulator statistics.
    pub fn from_stats(stats: &SimStats) -> GateMetrics {
        let misses = stats.total_btb_misses();
        GateMetrics {
            ipc: stats.ipc(),
            btb_mpki: if stats.retired_instructions == 0 {
                0.0
            } else {
                misses as f64 * 1000.0 / stats.retired_instructions as f64
            },
            coverage: if misses == 0 {
                1.0
            } else {
                stats.total_covered_misses() as f64 / misses as f64
            },
            cycles: stats.cycles,
        }
    }
}

/// What the gate decided about one candidate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GateDecision {
    /// Candidate clearly better: ship it.
    Deploy,
    /// Within the noise band: keep the deployed layout, count a hold.
    Hold,
    /// Candidate clearly worse on some metric: keep the deployed layout
    /// and count a rollback (a faulted generation).
    Rollback,
}

/// One gated metric: its name, the relative change tolerated before a
/// verdict flips, and which direction is better.
pub struct MetricSpec {
    /// Stable name (the `twig metrics regress` column).
    pub name: &'static str,
    /// Relative change tolerated before a verdict flips (0.02 = 2%).
    pub threshold: f64,
    /// Whether a larger value is an improvement.
    pub higher_is_better: bool,
    /// Reads the metric out of a run's figures.
    pub read: fn(&GateMetrics) -> f64,
}

/// The metric set and thresholds that both the deploy gate and the
/// regression sentinel (`twig metrics regress`) judge runs by. The
/// simulator is bit-deterministic, so a rerun of the same layout has
/// zero delta and any verdict reflects a real change.
pub const METRICS: [MetricSpec; 4] = [
    MetricSpec { name: "ipc", threshold: 0.005, higher_is_better: true, read: |m| m.ipc },
    MetricSpec { name: "cycles", threshold: 0.005, higher_is_better: false, read: |m| m.cycles as f64 },
    MetricSpec { name: "btb_mpki", threshold: 0.02, higher_is_better: false, read: |m| m.btb_mpki },
    MetricSpec { name: "coverage", threshold: 0.02, higher_is_better: true, read: |m| m.coverage },
];

/// Outcome of one metric comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Within the threshold of the baseline.
    Ok,
    /// Moved past the threshold in the good direction.
    Improved,
    /// Moved past the threshold in the bad direction.
    Regressed,
}

impl Verdict {
    /// The `twig metrics regress` rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// The relative change of `spec`'s metric from `base` to `current`, and
/// its verdict. A zero baseline never divides: any change from zero is
/// an infinite delta in its direction.
pub fn judge(spec: &MetricSpec, base: f64, current: f64) -> (f64, Verdict) {
    let delta = if base == 0.0 {
        if current == 0.0 {
            0.0
        } else {
            f64::INFINITY * (current - base).signum()
        }
    } else {
        (current - base) / base
    };
    let verdict = if delta.abs() <= spec.threshold {
        Verdict::Ok
    } else if (delta > 0.0) == spec.higher_is_better {
        Verdict::Improved
    } else {
        Verdict::Regressed
    };
    (delta, verdict)
}

/// Judges `candidate` against `deployed`.
pub fn judge_deploy(deployed: &GateMetrics, candidate: &GateMetrics) -> GateDecision {
    let mut improved = false;
    for (i, spec) in METRICS.iter().enumerate() {
        match judge(spec, (spec.read)(deployed), (spec.read)(candidate)).1 {
            Verdict::Ok => {}
            // Only the latency-shaped metrics (ipc, cycles) earn a deploy
            // on their own; coverage/MPKI wins that do not move cycles
            // are held, matching the sentinel's headline ordering.
            Verdict::Improved => improved |= i < 2,
            Verdict::Regressed => return GateDecision::Rollback,
        }
    }
    if improved {
        GateDecision::Deploy
    } else {
        GateDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(ipc: f64, mpki: f64, coverage: f64, cycles: u64) -> GateMetrics {
        GateMetrics { ipc, btb_mpki: mpki, coverage, cycles }
    }

    #[test]
    fn clear_ipc_win_deploys() {
        let deployed = metrics(1.0, 10.0, 0.2, 100_000);
        let candidate = metrics(1.10, 8.0, 0.5, 91_000);
        assert_eq!(judge_deploy(&deployed, &candidate), GateDecision::Deploy);
    }

    #[test]
    fn noise_band_holds() {
        let deployed = metrics(1.0, 10.0, 0.2, 100_000);
        let candidate = metrics(1.004, 10.1, 0.201, 99_700);
        assert_eq!(judge_deploy(&deployed, &candidate), GateDecision::Hold);
    }

    #[test]
    fn any_regression_rolls_back_even_with_an_ipc_win() {
        let deployed = metrics(1.0, 10.0, 0.5, 100_000);
        let candidate = metrics(1.10, 10.3, 0.5, 90_000); // MPKI +3% > 2%
        assert_eq!(judge_deploy(&deployed, &candidate), GateDecision::Rollback);
    }

    #[test]
    fn coverage_only_wins_hold_rather_than_churn_deploys() {
        let deployed = metrics(1.0, 10.0, 0.2, 100_000);
        let candidate = metrics(1.001, 9.9, 0.4, 99_900);
        assert_eq!(judge_deploy(&deployed, &candidate), GateDecision::Hold);
    }

    #[test]
    fn identical_runs_hold() {
        let m = metrics(1.2, 4.0, 0.8, 50_000);
        assert_eq!(judge_deploy(&m, &m), GateDecision::Hold);
    }
}
