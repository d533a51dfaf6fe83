//! BTB prefetch coalescing (§3.2, Fig. 27).
//!
//! Branch entries whose offsets cannot be encoded in a `brprefetch` are
//! stored as key-value pairs in a table appended to the text segment,
//! sorted by branch address so spatially close entries sit at adjacent
//! indices. A single `brcoalesce` instruction carries a base index plus an
//! *n*-bit bitmask and prefetches every selected entry — amortizing the
//! instruction-footprint cost over up to *n* BTB entries.

use twig_serde::{Deserialize, Serialize};
use twig_types::fxhash::FxHashMap;
use twig_types::{BlockId, PrefetchOp};
use twig_workload::Program;

/// The coalesce table plus per-site `brcoalesce` operations.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct CoalescePlan {
    /// Table entries (branch blocks), sorted by branch address.
    pub table: Vec<BlockId>,
    /// Per injection site: the emitted `brcoalesce` operations.
    pub ops_per_site: FxHashMap<BlockId, Vec<PrefetchOp>>,
}

impl CoalescePlan {
    /// Total `brcoalesce` instructions emitted.
    pub fn num_ops(&self) -> usize {
        self.ops_per_site.values().map(Vec::len).sum()
    }

    /// Total BTB entries reachable through the emitted ops.
    pub fn prefetched_entries(&self) -> u64 {
        self.ops_per_site
            .values()
            .flatten()
            .map(|op| u64::from(op.prefetch_count()))
            .sum()
    }

    /// Average entries prefetched per `brcoalesce` (the coalescing factor).
    pub fn coalescing_factor(&self) -> f64 {
        let ops = self.num_ops();
        if ops == 0 {
            return 0.0;
        }
        self.prefetched_entries() as f64 / ops as f64
    }
}

/// Builds the coalesce table and per-site ops for the given
/// `(site, branches)` assignments that could not be encoded directly.
///
/// Entries are sorted by branch address (block-id order coincides with
/// address order under the sequential layout); each site's entries are
/// greedily grouped into windows of `bitmask_bits` consecutive table
/// indices, one `brcoalesce` per window (§3.2).
///
/// # Examples
///
/// ```
/// use twig::build_coalesce_plan;
/// use twig_types::BlockId;
/// use twig_workload::{ProgramGenerator, WorkloadSpec};
///
/// let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
/// let site = BlockId::new(0);
/// let branches: Vec<BlockId> = (1..4).map(BlockId::new).collect();
/// let plan = build_coalesce_plan(&program, &[(site, branches)], 8);
/// assert_eq!(plan.table.len(), 3);
/// assert_eq!(plan.num_ops(), 1); // three adjacent entries, one bitmask
/// ```
pub fn build_coalesce_plan(
    program: &Program,
    assignments: &[(BlockId, Vec<BlockId>)],
    bitmask_bits: u32,
) -> CoalescePlan {
    assert!((1..=64).contains(&bitmask_bits));
    // Distinct branches, sorted by branch address.
    let mut table: Vec<BlockId> = assignments
        .iter()
        .flat_map(|(_, branches)| branches.iter().copied())
        .collect();
    table.sort_unstable_by_key(|&b| program.block(b).branch_pc());
    table.dedup();

    let index_of: FxHashMap<BlockId, u32> = table
        .iter()
        .enumerate()
        .map(|(i, &b)| (b, i as u32))
        .collect();

    let mut ops_per_site: FxHashMap<BlockId, Vec<PrefetchOp>> = FxHashMap::default();
    for (site, branches) in assignments {
        if branches.is_empty() {
            continue;
        }
        let mut idxs: Vec<u32> = branches.iter().map(|b| index_of[b]).collect();
        idxs.sort_unstable();
        idxs.dedup();
        let ops = ops_per_site.entry(*site).or_default();
        let mut i = 0;
        while i < idxs.len() {
            let base = idxs[i];
            let mut bitmask: u64 = 0;
            while i < idxs.len() && idxs[i] - base < bitmask_bits {
                bitmask |= 1 << (idxs[i] - base);
                i += 1;
            }
            ops.push(PrefetchOp::BrCoalesce {
                base_index: base,
                bitmask,
            });
        }
    }
    CoalescePlan {
        table,
        ops_per_site,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_workload::{ProgramGenerator, WorkloadSpec};

    fn b(n: u32) -> BlockId {
        BlockId::new(n)
    }

    fn program() -> Program {
        ProgramGenerator::new(WorkloadSpec::tiny_test()).generate()
    }

    #[test]
    fn table_is_sorted_by_branch_address() {
        let p = program();
        let branches: Vec<BlockId> = vec![b(40), b(3), b(17), b(29)];
        let plan = build_coalesce_plan(&p, &[(b(0), branches)], 8);
        for pair in plan.table.windows(2) {
            assert!(
                p.block(pair[0]).branch_pc() < p.block(pair[1]).branch_pc(),
                "table not sorted"
            );
        }
    }

    #[test]
    fn adjacent_entries_share_one_op() {
        let p = program();
        let branches: Vec<BlockId> = (1..=6).map(b).collect();
        let plan = build_coalesce_plan(&p, &[(b(0), branches)], 8);
        assert_eq!(plan.num_ops(), 1);
        assert_eq!(plan.prefetched_entries(), 6);
        assert!((plan.coalescing_factor() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn narrow_bitmask_splits_windows() {
        let p = program();
        let branches: Vec<BlockId> = (1..=6).map(b).collect();
        let plan = build_coalesce_plan(&p, &[(b(0), branches.clone())], 2);
        assert_eq!(plan.num_ops(), 3);
        let one_bit = build_coalesce_plan(&p, &[(b(0), branches)], 1);
        assert_eq!(one_bit.num_ops(), 6, "1-bit mask degenerates to one op each");
    }

    #[test]
    fn sparse_indices_split_windows() {
        let p = program();
        // Two sites: one owns entries clustered low, the other high; the
        // table interleaves all, so sparse sites need several ops.
        let site_a = (b(0), vec![b(1), b(2), b(60)]);
        let site_b = (b(5), (10..40).step_by(3).map(b).collect::<Vec<_>>());
        let plan = build_coalesce_plan(&p, &[site_a, site_b], 4);
        // Site A's entry b(60) is far (in table index space) from b(1/2).
        let a_ops = &plan.ops_per_site[&b(0)];
        assert!(a_ops.len() >= 2, "{a_ops:?}");
        // All bitmask bits stay within the window width.
        for ops in plan.ops_per_site.values() {
            for op in ops {
                if let PrefetchOp::BrCoalesce { bitmask, .. } = op {
                    assert!(bitmask.leading_zeros() >= 64 - 4);
                    assert!(bitmask & 1 == 1, "base entry always selected");
                }
            }
        }
    }

    #[test]
    fn shared_branches_are_deduplicated_in_table() {
        let p = program();
        let plan = build_coalesce_plan(
            &p,
            &[(b(0), vec![b(7), b(8)]), (b(1), vec![b(8), b(9)])],
            8,
        );
        assert_eq!(plan.table.len(), 3);
        assert_eq!(plan.ops_per_site.len(), 2);
    }

    #[test]
    fn empty_assignments_yield_empty_plan() {
        let p = program();
        let plan = build_coalesce_plan(&p, &[], 8);
        assert!(plan.table.is_empty());
        assert_eq!(plan.num_ops(), 0);
        assert_eq!(plan.coalescing_factor(), 0.0);
    }
}
