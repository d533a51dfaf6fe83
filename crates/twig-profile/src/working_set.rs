//! Branch working-set and spatial-range analyses (Figs. 11 and 12).
//!
//! Fig. 11 compares each application's *unconditional-branch working set*
//! against Shotgun's 5120-entry U-BTB partition; Fig. 12 measures the
//! fraction of executed conditional branches that lie **outside** the 8
//! cache-line spatial range of the last executed unconditional branch
//! target — conditionals Shotgun structurally cannot prefetch.

use twig_serde::{Deserialize, Serialize};
use twig_types::CacheLineAddr;
use twig_workload::{BlockEvent, Program};

/// Shotgun's spatial reach in cache lines (§2.3).
pub const SHOTGUN_RANGE_LINES: u64 = 8;

/// Result of the Fig. 12 spatial-range analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct SpatialRangeStats {
    /// Conditional-branch executions within range of the last unconditional
    /// target.
    pub in_range: u64,
    /// Conditional-branch executions outside that range.
    pub out_of_range: u64,
}

impl SpatialRangeStats {
    /// Fraction of conditional executions Shotgun cannot reach (Fig. 12's
    /// y-axis; the paper reports 26–45%).
    pub fn out_of_range_fraction(&self) -> f64 {
        let total = self.in_range + self.out_of_range;
        if total == 0 {
            return 0.0;
        }
        self.out_of_range as f64 / total as f64
    }
}

/// Streaming analyzer for the Fig. 12 measurement.
///
/// # Examples
///
/// ```
/// use twig_profile::SpatialRangeAnalyzer;
/// use twig_workload::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};
///
/// let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
/// let mut analyzer = SpatialRangeAnalyzer::new();
/// for ev in Walker::new(&program, InputConfig::numbered(0)).take(20_000) {
///     analyzer.observe(&program, ev);
/// }
/// let stats = analyzer.finish();
/// assert!(stats.in_range + stats.out_of_range > 0);
/// ```
#[derive(Debug, Default)]
pub struct SpatialRangeAnalyzer {
    last_uncond_target: Option<CacheLineAddr>,
    stats: SpatialRangeStats,
}

impl SpatialRangeAnalyzer {
    /// Creates an analyzer with no unconditional anchor yet.
    pub fn new() -> Self {
        SpatialRangeAnalyzer::default()
    }

    /// Feeds one executed block event.
    /// Takes the event by value (`BlockEvent` is `Copy`-sized), so an
    /// event source drives the analyzer directly.
    pub fn observe(&mut self, program: &Program, event: BlockEvent) {
        let block = program.block(event.block);
        let Some(kind) = block.branch_kind() else {
            return;
        };
        if kind.is_unconditional() {
            if event.taken {
                if let Some(rec) = program.resolve_branch(event.block, true, event.target) {
                    self.last_uncond_target = rec.outcome.target().map(|t| t.line());
                }
            }
            return;
        }
        // Conditional: is its own location within range of the anchor?
        let line = block.branch_pc().line();
        match self.last_uncond_target {
            Some(anchor)
                if line.line_number() >= anchor.line_number()
                    && line.line_number() < anchor.line_number() + SHOTGUN_RANGE_LINES =>
            {
                self.stats.in_range += 1;
            }
            Some(_) => self.stats.out_of_range += 1,
            // No anchor yet: not attributable; skip.
            None => {}
        }
    }

    /// Finishes the analysis.
    pub fn finish(self) -> SpatialRangeStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_workload::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};

    #[test]
    fn fraction_is_bounded() {
        let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        let mut analyzer = SpatialRangeAnalyzer::new();
        for ev in Walker::new(&program, InputConfig::numbered(0)).take(50_000) {
            analyzer.observe(&program, ev);
        }
        let stats = analyzer.finish();
        let f = stats.out_of_range_fraction();
        assert!((0.0..=1.0).contains(&f));
        assert!(stats.in_range > 0, "some conditionals must be in range");
    }

    #[test]
    fn empty_analysis_is_zero() {
        let stats = SpatialRangeAnalyzer::new().finish();
        assert_eq!(stats.out_of_range_fraction(), 0.0);
    }

    #[test]
    fn anchor_tracks_last_unconditional() {
        // Build a deterministic scenario via the tiny program: find a
        // conditional far from any unconditional target and verify the
        // classification math on synthetic events.
        let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        // Use a call (unconditional) then check a conditional in a distant
        // function is classified out-of-range.
        let call = program
            .blocks()
            .find(|(_, b)| matches!(b.term, twig_workload::Terminator::Call { .. }))
            .map(|(id, _)| id)
            .unwrap();
        let twig_workload::Terminator::Call { callee, .. } = program.block(call).term else {
            unreachable!()
        };
        let callee_entry = program.function(callee).entry;
        // A conditional in a function with much higher id (distant layout).
        let far_cond = program
            .blocks()
            .filter(|(_, b)| {
                b.branch_kind() == Some(twig_types::BranchKind::Conditional)
                    && b.addr.line().distance(program.block(callee_entry).addr.line())
                        > SHOTGUN_RANGE_LINES * 4
            })
            .map(|(id, _)| id)
            .next()
            .expect("distant conditional exists");
        let mut analyzer = SpatialRangeAnalyzer::new();
        analyzer.observe(
            &program,
            BlockEvent {
                block: call,
                taken: true,
                target: Some(callee_entry),
            },
        );
        analyzer.observe(
            &program,
            BlockEvent {
                block: far_cond,
                taken: false,
                target: None,
            },
        );
        let stats = analyzer.finish();
        assert_eq!(stats.out_of_range, 1);
        assert_eq!(stats.in_range, 0);
    }
}
