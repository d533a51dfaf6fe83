//! Link-time binary rewriting: injecting prefetch operations and
//! re-laying-out the program (Figs. 21–22, Table 3's overhead columns).
//!
//! Injection changes block sizes, which shifts addresses, which can change
//! which pairs are offset-encodable — so the rewriter iterates: classify
//! against the current layout, inject, re-layout, re-verify, demoting any
//! pair that stopped fitting to the coalesce table. Two or three passes
//! always converge because demotion is monotone.

use twig_serde::{Deserialize, Serialize};
use twig_types::fxhash::FxHashMap;
use twig_types::{BlockId, PrefetchOp};
use twig_workload::{layout::assign_layout, LayoutOptions, Program};

use crate::analysis::MissPlan;
use crate::coalesce::build_coalesce_plan;
use crate::compress::is_encodable;
use crate::config::TwigConfig;

/// Summary of one rewrite.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct RewriteOutcome {
    /// `brprefetch` instructions injected.
    pub brprefetch_ops: u64,
    /// `brcoalesce` instructions injected.
    pub brcoalesce_ops: u64,
    /// Key-value pairs in the coalesce table.
    pub coalesce_entries: u64,
    /// Distinct blocks that received at least one op.
    pub injection_sites: u64,
    /// `(site, branch)` pairs dropped (unencodable with coalescing
    /// disabled, or beyond the per-block op budget).
    pub dropped_pairs: u64,
    /// Text bytes before the rewrite.
    pub text_bytes_before: u64,
    /// Text bytes after the rewrite (including the coalesce table).
    pub text_bytes_after: u64,
}

impl RewriteOutcome {
    /// Static size overhead: added bytes over the original text
    /// (Fig. 21 / Table 3's Overhead column).
    pub fn static_overhead(&self) -> f64 {
        if self.text_bytes_before == 0 {
            return 0.0;
        }
        (self.text_bytes_after - self.text_bytes_before) as f64 / self.text_bytes_before as f64
    }

    /// Bytes added by the rewrite.
    pub fn added_bytes(&self) -> u64 {
        self.text_bytes_after - self.text_bytes_before
    }
}

/// Applies the miss plans to `program`: injects `brprefetch`/`brcoalesce`
/// ops at the selected sites, builds the coalesce table, and re-lays-out
/// the binary.
///
/// The input program must be op-free (a freshly generated binary); apply
/// exactly one rewrite per program instance.
///
/// # Panics
///
/// Panics if `config` is invalid or `program` already contains ops.
pub fn apply_rewrite(
    program: &mut Program,
    plans: &[MissPlan],
    config: &TwigConfig,
    layout: &LayoutOptions,
) -> RewriteOutcome {
    config.validate().expect("invalid twig config");
    assert!(
        program.prefetch_ops().is_empty(),
        "program was already rewritten"
    );
    let text_bytes_before = program.text_bytes();

    // Desired (site -> branches) assignments, respecting per-block budget;
    // plans arrive hottest-first so the budget favours hot misses.
    let mut per_site: FxHashMap<BlockId, Vec<BlockId>> = FxHashMap::default();
    let mut dropped = 0u64;
    for plan in plans {
        for site in &plan.sites {
            let list = per_site.entry(site.site).or_default();
            if list.len() < config.max_ops_per_block {
                list.push(plan.branch_block);
            } else {
                dropped += 1;
            }
        }
    }

    // Iterate classification until stable (demotion is monotone).
    let mut demoted: FxHashMap<BlockId, Vec<BlockId>> = FxHashMap::default();
    let mut injection_sites = 0u64;
    for _pass in 0..3 {
        // Classify against the current layout.
        let mut direct: FxHashMap<BlockId, Vec<BlockId>> = FxHashMap::default();
        for (&site, branches) in &per_site {
            for &branch in branches {
                let already_demoted = demoted
                    .get(&site)
                    .is_some_and(|v| v.contains(&branch));
                if !already_demoted && is_encodable(program, site, branch, config.offset_bits) {
                    direct.entry(site).or_default().push(branch);
                } else if !already_demoted {
                    demoted.entry(site).or_default().push(branch);
                }
            }
        }
        // Rebuild the op table from scratch: each site's direct ops, then
        // its coalesce ops.
        let assignments: Vec<(BlockId, Vec<BlockId>)> = demoted
            .iter()
            .map(|(&s, v)| (s, v.clone()))
            .collect();
        let coalesce = if config.enable_coalescing {
            build_coalesce_plan(program, &assignments, config.coalesce_bitmask_bits)
        } else {
            crate::coalesce::CoalescePlan::default()
        };
        let direct_ops: usize = direct.values().map(Vec::len).sum();
        let mut ops = Vec::with_capacity(direct_ops + coalesce.num_ops());
        for (&site, branches) in &direct {
            ops.extend(
                branches
                    .iter()
                    .map(|&branch| (site, PrefetchOp::BrPrefetch { branch_block: branch })),
            );
        }
        for (&site, site_ops) in &coalesce.ops_per_site {
            ops.extend(site_ops.iter().map(|&op| (site, op)));
        }
        injection_sites = (direct.len()
            + coalesce
                .ops_per_site
                .keys()
                .filter(|site| !direct.contains_key(site))
                .count()) as u64;
        program.set_prefetch_ops(ops);
        program.set_coalesce_table(coalesce.table);
        assign_layout(program, layout);

        // Converged when every direct pair still encodes.
        let stable = direct.iter().all(|(&site, branches)| {
            branches
                .iter()
                .all(|&b| is_encodable(program, site, b, config.offset_bits))
        });
        if stable {
            break;
        }
    }

    // Account the outcome from the installed tables.
    let table_bytes =
        program.coalesce_table().len() as u64 * u64::from(twig_types::COALESCE_ENTRY_BYTES);
    let mut outcome = RewriteOutcome {
        text_bytes_before,
        text_bytes_after: text_bytes_before + table_bytes,
        coalesce_entries: program.coalesce_table().len() as u64,
        injection_sites,
        dropped_pairs: dropped,
        ..RewriteOutcome::default()
    };
    for op in program.prefetch_ops() {
        outcome.text_bytes_after += u64::from(op.encoded_bytes());
        match op {
            PrefetchOp::BrPrefetch { .. } => outcome.brprefetch_ops += 1,
            PrefetchOp::BrCoalesce { .. } => outcome.brcoalesce_ops += 1,
        }
    }
    if !config.enable_coalescing {
        outcome.dropped_pairs += demoted.values().map(|v| v.len() as u64).sum::<u64>();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SelectedSite;
    use twig_workload::{ProgramGenerator, StaticStats, WorkloadSpec};

    fn generator() -> ProgramGenerator {
        ProgramGenerator::new(WorkloadSpec::tiny_test())
    }

    fn direct_branches(program: &Program, n: usize) -> Vec<BlockId> {
        program
            .blocks()
            .filter(|(id, b)| {
                b.branch_kind().is_some_and(|k| k.is_direct())
                    && program.direct_branch_target_addr(*id).is_some()
            })
            .map(|(id, _)| id)
            .take(n)
            .collect()
    }

    fn plan(site: BlockId, branch: BlockId) -> MissPlan {
        MissPlan {
            branch_block: branch,
            total_samples: 10,
            sites: vec![SelectedSite {
                site,
                covered_samples: 10,
                conditional_prob: 0.9,
            }],
        }
    }

    #[test]
    fn rewrite_injects_and_relayouts() {
        let g = generator();
        let mut program = g.generate();
        let branches = direct_branches(&program, 4);
        let site = program.function(program.entry_function()).entry;
        let plans: Vec<MissPlan> = branches.iter().map(|&b| plan(site, b)).collect();
        let outcome = apply_rewrite(
            &mut program,
            &plans,
            &TwigConfig::default(),
            &g.layout_options(),
        );
        assert_eq!(
            outcome.brprefetch_ops + outcome.brcoalesce_ops,
            program
                .blocks()
                .map(|(_, b)| b.prefetch_ops.len() as u64)
                .sum::<u64>()
        );
        assert!(outcome.added_bytes() > 0);
        assert!(outcome.static_overhead() > 0.0);
        assert_eq!(outcome.injection_sites, 1);
        // Layout stays contiguous after injection.
        for func in program.functions() {
            let ids: Vec<BlockId> = func.block_ids().collect();
            for pair in ids.windows(2) {
                assert_eq!(program.block(pair[0]).end_addr(), program.block(pair[1]).addr);
            }
        }
    }

    #[test]
    fn text_bytes_after_matches_a_full_recount() {
        let g = generator();
        let mut program = g.generate();
        let site = program.function(program.entry_function()).entry;
        // Near branches become `brprefetch`, library ones go to the table.
        let mut plans: Vec<MissPlan> = direct_branches(&program, 3)
            .into_iter()
            .map(|b| plan(site, b))
            .collect();
        plans.extend(
            program
                .blocks()
                .filter(|(id, b)| {
                    b.addr.raw() > 0x7000_0000_0000
                        && program.direct_branch_target_addr(*id).is_some()
                })
                .take(3)
                .map(|(id, _)| plan(site, id)),
        );
        let outcome = apply_rewrite(
            &mut program,
            &plans,
            &TwigConfig::default(),
            &g.layout_options(),
        );
        assert!(outcome.brprefetch_ops > 0 && outcome.brcoalesce_ops > 0);
        assert_eq!(outcome.text_bytes_after, StaticStats::of(&program).text_bytes);
        assert_eq!(outcome.text_bytes_after, program.text_bytes());
    }

    #[test]
    fn far_branches_go_through_the_coalesce_table() {
        let g = generator();
        let mut program = g.generate();
        // Site in app region, branches in the library region: unencodable.
        let site = program.function(program.entry_function()).entry;
        let lib_branches: Vec<BlockId> = program
            .blocks()
            .filter(|(id, b)| {
                b.addr.raw() > 0x7000_0000_0000
                    && b.branch_kind().is_some_and(|k| k.is_direct())
                    && program.direct_branch_target_addr(*id).is_some()
            })
            .map(|(id, _)| id)
            .take(3)
            .collect();
        assert!(!lib_branches.is_empty());
        let plans: Vec<MissPlan> = lib_branches.iter().map(|&b| plan(site, b)).collect();
        let outcome = apply_rewrite(
            &mut program,
            &plans,
            &TwigConfig::default(),
            &g.layout_options(),
        );
        assert_eq!(outcome.brprefetch_ops, 0);
        assert!(outcome.brcoalesce_ops >= 1);
        assert_eq!(outcome.coalesce_entries, lib_branches.len() as u64);
    }

    #[test]
    fn coalescing_disabled_drops_far_branches() {
        let g = generator();
        let mut program = g.generate();
        let site = program.function(program.entry_function()).entry;
        let lib_branch = program
            .blocks()
            .find(|(id, b)| {
                b.addr.raw() > 0x7000_0000_0000
                    && b.branch_kind().is_some_and(|k| k.is_direct())
                    && program.direct_branch_target_addr(*id).is_some()
            })
            .map(|(id, _)| id)
            .unwrap();
        let outcome = apply_rewrite(
            &mut program,
            &[plan(site, lib_branch)],
            &TwigConfig::software_prefetch_only(),
            &g.layout_options(),
        );
        assert_eq!(outcome.brprefetch_ops, 0);
        assert_eq!(outcome.brcoalesce_ops, 0);
        assert_eq!(outcome.coalesce_entries, 0);
        assert_eq!(outcome.dropped_pairs, 1);
    }

    #[test]
    fn per_block_budget_is_respected() {
        let g = generator();
        let mut program = g.generate();
        let branches = direct_branches(&program, 10);
        let site = program.function(program.entry_function()).entry;
        let plans: Vec<MissPlan> = branches.iter().map(|&b| plan(site, b)).collect();
        let config = TwigConfig {
            max_ops_per_block: 3,
            ..TwigConfig::default()
        };
        let outcome = apply_rewrite(&mut program, &plans, &config, &g.layout_options());
        assert!(program.block(site).prefetch_ops.len() <= 3);
        assert_eq!(outcome.dropped_pairs, 7);
    }

    #[test]
    #[should_panic(expected = "already rewritten")]
    fn double_rewrite_is_rejected() {
        let g = generator();
        let mut program = g.generate();
        let branches = direct_branches(&program, 1);
        let site = program.function(program.entry_function()).entry;
        let plans = vec![plan(site, branches[0])];
        apply_rewrite(&mut program, &plans, &TwigConfig::default(), &g.layout_options());
        apply_rewrite(&mut program, &plans, &TwigConfig::default(), &g.layout_options());
    }

    #[test]
    fn empty_plans_are_a_noop() {
        let g = generator();
        let mut program = g.generate();
        let before = program.clone();
        let outcome = apply_rewrite(&mut program, &[], &TwigConfig::default(), &g.layout_options());
        assert_eq!(outcome.added_bytes(), 0);
        assert_eq!(program, before);
    }
}
