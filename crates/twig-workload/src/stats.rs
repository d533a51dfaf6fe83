//! Static and dynamic program statistics.
//!
//! Supports the paper's characterization figures: static branch composition,
//! instruction working-set size (Table 3), and the unconditional-branch
//! working set that Shotgun's U-BTB must hold (Fig. 11).

use std::collections::HashSet;

use twig_serde::{Deserialize, Serialize};
use twig_types::{BlockId, BranchKind};

use crate::program::Program;
use crate::walker::BlockEvent;

/// Static composition of a program binary.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct StaticStats {
    /// Total basic blocks.
    pub blocks: u64,
    /// Total functions.
    pub functions: u64,
    /// Total original instructions.
    pub instructions: u64,
    /// Total text bytes (code + coalesce table).
    pub text_bytes: u64,
    /// Static branch-site counts per [`BranchKind`] index.
    pub branches_by_kind: [u64; 6],
    /// Injected prefetch operations.
    pub prefetch_ops: u64,
    /// Bytes of injected prefetch operations plus coalesce table.
    pub prefetch_bytes: u64,
}

impl StaticStats {
    /// Computes static statistics for `program`.
    ///
    /// # Examples
    ///
    /// ```
    /// use twig_workload::{ProgramGenerator, StaticStats, WorkloadSpec};
    ///
    /// let p = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
    /// let stats = StaticStats::of(&p);
    /// assert_eq!(stats.blocks as usize, p.num_blocks());
    /// assert!(stats.total_branches() > 0);
    /// ```
    pub fn of(program: &Program) -> Self {
        let mut stats = StaticStats {
            functions: program.num_functions() as u64,
            ..StaticStats::default()
        };
        for (_, block) in program.blocks() {
            stats.blocks += 1;
            stats.instructions += u64::from(block.num_instrs);
            stats.text_bytes += u64::from(block.body_bytes);
            if let Some(kind) = block.branch_kind() {
                stats.branches_by_kind[kind.index()] += 1;
            }
        }
        let ops = program.prefetch_ops();
        stats.prefetch_ops = ops.len() as u64;
        stats.prefetch_bytes = ops.iter().map(|op| u64::from(op.encoded_bytes())).sum::<u64>()
            + program.coalesce_table().len() as u64 * u64::from(twig_types::COALESCE_ENTRY_BYTES);
        stats.text_bytes += stats.prefetch_bytes;
        stats
    }

    /// Total static branch sites.
    pub fn total_branches(&self) -> u64 {
        self.branches_by_kind.iter().sum()
    }

    /// Static count for one branch kind.
    pub fn branches(&self, kind: BranchKind) -> u64 {
        self.branches_by_kind[kind.index()]
    }
}

/// Dynamic working-set accumulator over an event stream.
///
/// Feed it every executed [`BlockEvent`]; query working-set sizes at the
/// end of the run.
///
/// # Examples
///
/// ```
/// use twig_workload::{InputConfig, ProgramGenerator, Walker, WorkingSet, WorkloadSpec};
///
/// let p = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
/// let mut ws = WorkingSet::new();
/// for ev in Walker::new(&p, InputConfig::numbered(0)).take(10_000) {
///     ws.observe(&p, ev);
/// }
/// assert!(ws.instruction_bytes(&p) > 0);
/// assert!(ws.unconditional_branch_sites() > 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct WorkingSet {
    executed_blocks: HashSet<BlockId>,
    taken_branch_sites: HashSet<BlockId>,
    uncond_sites: HashSet<BlockId>,
    cond_sites: HashSet<BlockId>,
    dynamic_branches_by_kind: [u64; 6],
}

impl WorkingSet {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        WorkingSet::default()
    }

    /// Records one executed block event (by value; [`BlockEvent`] is
    /// `Copy`-sized, so event sources feed it without borrowing).
    pub fn observe(&mut self, program: &Program, event: BlockEvent) {
        let block = program.block(event.block);
        self.executed_blocks.insert(event.block);
        if let Some(kind) = block.branch_kind() {
            self.dynamic_branches_by_kind[kind.index()] += 1;
            if event.taken {
                self.taken_branch_sites.insert(event.block);
            }
            if kind.is_unconditional() {
                self.uncond_sites.insert(event.block);
            } else {
                self.cond_sites.insert(event.block);
            }
        }
    }

    /// Number of distinct executed basic blocks.
    pub fn executed_blocks(&self) -> usize {
        self.executed_blocks.len()
    }

    /// Instruction working-set size in bytes (Table 3's first column):
    /// total bytes of blocks executed at least once.
    pub fn instruction_bytes(&self, program: &Program) -> u64 {
        self.executed_blocks
            .iter()
            .map(|&b| u64::from(program.block(b).size_bytes()))
            .sum()
    }

    /// Distinct branch sites observed taken at least once — the BTB's
    /// steady-state demand.
    pub fn taken_branch_sites(&self) -> usize {
        self.taken_branch_sites.len()
    }

    /// Distinct executed unconditional branch sites (Fig. 11: compared with
    /// Shotgun's 5120-entry U-BTB).
    pub fn unconditional_branch_sites(&self) -> usize {
        self.uncond_sites.len()
    }

    /// Distinct executed conditional branch sites.
    pub fn conditional_branch_sites(&self) -> usize {
        self.cond_sites.len()
    }

    /// Dynamic branch-execution counts per kind.
    pub fn dynamic_branches(&self, kind: BranchKind) -> u64 {
        self.dynamic_branches_by_kind[kind.index()]
    }

    /// Total dynamic branch executions.
    pub fn total_dynamic_branches(&self) -> u64 {
        self.dynamic_branches_by_kind.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};

    fn tiny() -> Program {
        ProgramGenerator::new(WorkloadSpec::tiny_test()).generate()
    }

    #[test]
    fn static_counts_are_consistent() {
        let p = tiny();
        let s = StaticStats::of(&p);
        assert_eq!(s.blocks as usize, p.num_blocks());
        assert_eq!(s.functions as usize, p.num_functions());
        assert_eq!(s.text_bytes, p.text_bytes());
        assert_eq!(s.prefetch_ops, 0);
        assert_eq!(s.prefetch_bytes, 0);
        // Blocks either branch or fall through; branches never exceed blocks.
        assert!(s.total_branches() <= s.blocks);
        assert!(s.branches(BranchKind::Conditional) > 0);
    }

    #[test]
    fn working_set_grows_then_saturates() {
        let p = tiny();
        let mut ws = WorkingSet::new();
        let mut walker = Walker::new(&p, InputConfig::numbered(0));
        for _ in 0..2_000 {
            let ev = walker.next().unwrap();
            ws.observe(&p, ev);
        }
        let early = ws.executed_blocks();
        for _ in 0..60_000 {
            let ev = walker.next().unwrap();
            ws.observe(&p, ev);
        }
        let late = ws.executed_blocks();
        assert!(late >= early);
        assert!(late <= p.num_blocks());
        // The tiny program should be mostly explored by 62k events.
        assert!(late as f64 > 0.3 * p.num_blocks() as f64);
    }

    #[test]
    fn instruction_bytes_bounded_by_text() {
        let p = tiny();
        let mut ws = WorkingSet::new();
        for ev in Walker::new(&p, InputConfig::numbered(0)).take(50_000) {
            ws.observe(&p, ev);
        }
        assert!(ws.instruction_bytes(&p) <= p.text_bytes());
    }

    #[test]
    fn uncond_and_cond_sites_disjoint() {
        let p = tiny();
        let mut ws = WorkingSet::new();
        for ev in Walker::new(&p, InputConfig::numbered(0)).take(20_000) {
            ws.observe(&p, ev);
        }
        assert!(ws.unconditional_branch_sites() + ws.conditional_branch_sites()
            <= ws.executed_blocks());
    }

    #[test]
    fn dynamic_branch_totals_match_events() {
        let p = tiny();
        let mut ws = WorkingSet::new();
        let events: Vec<_> = Walker::new(&p, InputConfig::numbered(0)).take(5_000).collect();
        let expected = events
            .iter()
            .filter(|e| p.block(e.block).branch_kind().is_some())
            .count() as u64;
        for ev in &events {
            ws.observe(&p, *ev);
        }
        assert_eq!(ws.total_dynamic_branches(), expected);
    }
}
