//! Injection-site analysis: from a BTB-miss profile to accurate, timely
//! prefetch injection sites (§3.1, Fig. 13).
//!
//! For every miss-prone branch `A`, Twig considers as candidate injection
//! sites the basic blocks that precede `A`'s misses by at least the
//! *prefetch distance* (timeliness) and computes the conditional
//! probability `P(miss at A | exec B)` for each candidate `B` (accuracy).
//! Each miss sample is then assigned to its highest-probability timely
//! candidate, and the sites covering the most samples are selected.

use std::collections::HashMap;

use twig_serde::{Deserialize, Serialize};
use twig_profile::Profile;
use twig_types::BlockId;
use twig_workload::Program;

use crate::compress::is_encodable;
use crate::config::TwigConfig;

/// One selected injection site for one miss branch.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct SelectedSite {
    /// Block receiving the `brprefetch`/`brcoalesce`.
    pub site: BlockId,
    /// Miss samples this site is expected to cover.
    pub covered_samples: u64,
    /// `P(miss at A | exec site)` from the profile.
    pub conditional_prob: f64,
}

/// The prefetch plan for one miss-prone branch.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct MissPlan {
    /// The branch whose BTB entry will be prefetched.
    pub branch_block: BlockId,
    /// Total miss samples observed for this branch.
    pub total_samples: u64,
    /// Selected injection sites, highest coverage first.
    pub sites: Vec<SelectedSite>,
}

impl MissPlan {
    /// Samples covered by the selected sites.
    pub fn covered_samples(&self) -> u64 {
        self.sites.iter().map(|s| s.covered_samples).sum()
    }
}

/// Analyzes a profile into per-branch prefetch plans, hottest miss branches
/// first, covering [`TwigConfig::hot_sample_coverage`] of the sample mass.
///
/// When `program` is provided, site selection is *encodability-aware*:
/// among candidates passing the accuracy filter, a sample votes for an
/// offset-encodable site (one a plain `brprefetch` can reach) over a more
/// probable but far one — keeping most prefetches on the cheap encoding
/// path, as the paper's 12-bit offset distributions (Figs. 14–15) imply.
///
/// # Examples
///
/// See [`crate::TwigOptimizer`] for the end-to-end flow; unit-level usage:
///
/// ```
/// use twig::{analyze_profile_with_layout, TwigConfig};
/// use twig_profile::Profile;
///
/// let plans = analyze_profile_with_layout(
///     &Profile::new(8, 1),
///     &TwigConfig::default(),
///     None,
/// );
/// assert!(plans.is_empty()); // empty profile, nothing to plan
/// ```
pub fn analyze_profile_with_layout(
    profile: &Profile,
    config: &TwigConfig,
    program: Option<&Program>,
) -> Vec<MissPlan> {
    // Group sample indices by miss branch.
    let mut by_branch: HashMap<BlockId, Vec<usize>> = HashMap::new();
    for (i, s) in profile.samples().iter().enumerate() {
        by_branch.entry(s.branch_block).or_default().push(i);
    }
    // Hottest branches until the sample-coverage goal.
    let histogram = profile.miss_histogram();
    let total_mass: u64 = histogram.iter().map(|(_, n)| n).sum();
    let goal = (total_mass as f64 * config.hot_sample_coverage).ceil() as u64;

    let mut plans = Vec::new();
    let mut covered_mass = 0u64;
    let mut scratch = Scratch::new(profile.block_executions.len());
    for (branch, mass) in histogram {
        if covered_mass >= goal {
            break;
        }
        covered_mass += mass;
        let sample_idxs = &by_branch[&branch];
        if let Some(plan) =
            plan_for_branch(branch, sample_idxs, profile, config, program, &mut scratch)
        {
            plans.push(plan);
        }
    }
    plans
}

/// Dense per-block working state reused across branches: candidate sets
/// are small relative to the program, so every pass walks a `touched`
/// list and resets only what it dirtied, keeping the per-branch cost
/// proportional to the candidate count rather than the program size.
struct Scratch {
    /// Samples in which the block appears timely (for the current branch).
    appears: Vec<u64>,
    /// `P(miss | exec block)` — valid only while `accurate` is set.
    prob: Vec<f64>,
    /// Passed the accuracy filter.
    accurate: Vec<bool>,
    /// Offset-encodable from this site (valid only while `accurate`).
    encodable: Vec<bool>,
    /// Samples voting for this block as their best site.
    votes: Vec<u64>,
    /// Blocks with nonzero `appears` — everything to reset afterwards.
    touched: Vec<BlockId>,
    /// Flat storage for the per-sample candidate lists.
    arena: Vec<BlockId>,
    /// `arena` range of each sample's candidates.
    ranges: Vec<(u32, u32)>,
}

impl Scratch {
    fn new(num_blocks: usize) -> Self {
        Scratch {
            appears: vec![0; num_blocks],
            prob: vec![0.0; num_blocks],
            accurate: vec![false; num_blocks],
            encodable: vec![false; num_blocks],
            votes: vec![0; num_blocks],
            touched: Vec::new(),
            arena: Vec::new(),
            ranges: Vec::new(),
        }
    }

    fn reset(&mut self) {
        for b in self.touched.drain(..) {
            let i = b.index();
            self.appears[i] = 0;
            self.accurate[i] = false;
            self.encodable[i] = false;
            self.votes[i] = 0;
        }
        self.arena.clear();
        self.ranges.clear();
    }
}

/// [`analyze_profile_with_layout`] without encodability awareness.
pub fn analyze_profile(profile: &Profile, config: &TwigConfig) -> Vec<MissPlan> {
    analyze_profile_with_layout(profile, config, None)
}

/// Builds the plan for one miss branch, or `None` if no candidate satisfies
/// both constraints.
///
/// All per-candidate state lives in `scratch`'s dense arrays (indexed by
/// block), and per-sample candidate lists in its flat arena — the inner
/// loops over thousands of samples touch no hash maps and make no
/// per-sample allocations. The selection semantics are unchanged.
fn plan_for_branch(
    branch: BlockId,
    sample_idxs: &[usize],
    profile: &Profile,
    config: &TwigConfig,
    program: Option<&Program>,
    scratch: &mut Scratch,
) -> Option<MissPlan> {
    // Count, per candidate, in how many samples it appears timely
    // (at most once per sample).
    for &i in sample_idxs {
        let sample = &profile.samples()[i];
        let start = scratch.arena.len();
        scratch
            .arena
            .extend(profile.timely_predecessors(sample, config.prefetch_distance));
        let cands = &mut scratch.arena[start..];
        cands.sort_unstable();
        let mut len = start;
        for k in start..scratch.arena.len() {
            let c = scratch.arena[k];
            if len > start && scratch.arena[len - 1] == c {
                continue; // dedup within the sorted run
            }
            // Blocks outside the profile's execution table have zero
            // executions and could never pass the accuracy filter; drop
            // them here instead of indexing past the dense arrays.
            if c.index() >= scratch.appears.len() {
                continue;
            }
            scratch.arena[len] = c;
            len += 1;
            if scratch.appears[c.index()] == 0 {
                scratch.touched.push(c);
            }
            scratch.appears[c.index()] += 1;
        }
        scratch.arena.truncate(len);
        scratch.ranges.push((start as u32, len as u32));
    }

    // Conditional probability per candidate; apply the accuracy filter.
    let mut any_accurate = false;
    for t in 0..scratch.touched.len() {
        let c = scratch.touched[t];
        let execs = profile.executions(c);
        if execs == 0 {
            continue;
        }
        let p = (scratch.appears[c.index()] as f64 / execs as f64).min(1.0);
        if p >= config.min_conditional_prob {
            scratch.prob[c.index()] = p;
            scratch.accurate[c.index()] = true;
            // Prefer sites a plain `brprefetch` can encode when a layout
            // is available (same accuracy tier, cheaper instruction).
            scratch.encodable[c.index()] = match program {
                Some(prog) => is_encodable(prog, c, branch, config.offset_bits),
                None => true,
            };
            any_accurate = true;
        }
    }
    if !any_accurate {
        scratch.reset();
        return None;
    }

    // Each sample votes for its highest-probability accurate candidate
    // (ties broken toward encodable sites, then the lower block id).
    for r in 0..scratch.ranges.len() {
        let (start, end) = scratch.ranges[r];
        let mut best: Option<BlockId> = None;
        for k in start as usize..end as usize {
            let c = scratch.arena[k];
            if !scratch.accurate[c.index()] {
                continue;
            }
            let wins = match best {
                None => true,
                Some(b) => {
                    scratch.encodable[c.index()]
                        .cmp(&scratch.encodable[b.index()])
                        .then(scratch.prob[c.index()].total_cmp(&scratch.prob[b.index()]))
                        .then(b.cmp(&c))
                        .is_gt()
                }
            };
            if wins {
                best = Some(c);
            }
        }
        if let Some(site) = best {
            scratch.votes[site.index()] += 1;
        }
    }

    // Keep the strongest sites.
    let mut sites: Vec<SelectedSite> = scratch
        .touched
        .iter()
        .filter_map(|&site| {
            let covered = scratch.votes[site.index()];
            (covered > 0 && covered >= config.min_covered_samples).then(|| SelectedSite {
                site,
                covered_samples: covered,
                conditional_prob: scratch.prob[site.index()],
            })
        })
        .collect();
    sites.sort_unstable_by(|a, b| {
        b.covered_samples
            .cmp(&a.covered_samples)
            .then(a.site.cmp(&b.site))
    });
    sites.truncate(config.max_sites_per_miss);
    scratch.reset();
    if sites.is_empty() {
        return None;
    }
    Some(MissPlan {
        branch_block: branch,
        total_samples: sample_idxs.len() as u64,
        sites,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_types::BranchKind;

    fn b(n: u32) -> BlockId {
        BlockId::new(n)
    }

    /// Builds a profile that mirrors the paper's Fig. 13 example: miss
    /// branch `A` (block 100) with predecessors B/C/D/E of differing
    /// execution counts and coverable-miss counts.
    fn fig13_profile() -> Profile {
        let mut p = Profile::new(200, 1);
        // Execution counts (Fig. 13b): B=16, C=8, D=6, E=3.
        p.block_executions[10] = 16; // B
        p.block_executions[11] = 8; // C
        p.block_executions[12] = 6; // D
        p.block_executions[13] = 3; // E
        let mut mk = |cands: &[u32]| {
            let history: Vec<_> = cands
                .iter()
                .map(|&c| (b(c), 50)) // timely: 50 cycles before the miss
                .chain(std::iter::once((b(100), 100)))
                .collect();
            p.push_sample(b(100), BranchKind::DirectCall, 100, &history);
        };
        // 4 misses coverable by C (prob 0.5) of which some also see B
        // (prob 0.25); 2 misses coverable by E (0.66) and D (0.33).
        for _ in 0..4 {
            mk(&[10, 11]);
        }
        for _ in 0..2 {
            mk(&[12, 13]);
        }
        p.instructions = 1000;
        p
    }

    #[test]
    fn fig13_selects_c_and_e() {
        let config = TwigConfig::default();
        let plans = analyze_profile(&fig13_profile(), &config);
        assert_eq!(plans.len(), 1);
        let plan = &plans[0];
        assert_eq!(plan.branch_block, b(100));
        assert_eq!(plan.total_samples, 6);
        let sites: Vec<BlockId> = plan.sites.iter().map(|s| s.site).collect();
        // C (P=0.5) wins over B (P=0.25) for the first group; E (P=0.66)
        // wins over D (P=0.33) for the second — the paper's outcome.
        assert!(sites.contains(&b(11)), "C selected: {sites:?}");
        assert!(sites.contains(&b(13)), "E selected: {sites:?}");
        assert!(!sites.contains(&b(10)), "B not selected");
        assert!(!sites.contains(&b(12)), "D not selected");
        assert_eq!(plan.covered_samples(), 6);
    }

    #[test]
    fn timeliness_excludes_close_predecessors() {
        let mut p = Profile::new(20, 1);
        p.block_executions[1] = 4;
        for _ in 0..4 {
            // Candidate at cycle 95: only 5 cycles ahead of the miss.
            p.push_sample(
                b(9),
                BranchKind::Conditional,
                100,
                &[(b(1), 95), (b(9), 100)],
            );
        }
        let plans = analyze_profile(&p, &TwigConfig::default());
        assert!(plans.is_empty(), "too-late candidate must be rejected");
        // With prefetch distance 0 it becomes usable.
        let lax = TwigConfig {
            prefetch_distance: 0,
            ..TwigConfig::default()
        };
        assert_eq!(analyze_profile(&p, &lax).len(), 1);
    }

    #[test]
    fn accuracy_filter_rejects_low_probability_sites() {
        let mut p = Profile::new(20, 1);
        // Candidate executes 1000 times but only 3 misses follow it.
        p.block_executions[1] = 1000;
        for _ in 0..3 {
            p.push_sample(
                b(9),
                BranchKind::DirectJump,
                100,
                &[(b(1), 10), (b(9), 100)],
            );
        }
        let plans = analyze_profile(&p, &TwigConfig::default());
        assert!(plans.is_empty(), "P=0.003 must fail the accuracy filter");
    }

    #[test]
    fn min_covered_samples_prunes_noise() {
        let mut p = Profile::new(20, 1);
        p.block_executions[1] = 1;
        p.push_sample(
            b(9),
            BranchKind::DirectJump,
            100,
            &[(b(1), 10), (b(9), 100)],
        );
        // One sample, min_covered_samples = 2: rejected.
        let strict = TwigConfig {
            min_covered_samples: 2,
            ..TwigConfig::default()
        };
        assert!(analyze_profile(&p, &strict).is_empty());
        // The default (1) accepts it.
        assert_eq!(analyze_profile(&p, &TwigConfig::default()).len(), 1);
    }

    #[test]
    fn hot_coverage_skips_the_long_tail() {
        let mut p = Profile::new(400, 1);
        p.block_executions[1] = 100;
        // One hot branch with 98 samples, 49 cold branches with 1 each.
        for _ in 0..98 {
            p.push_sample(
                b(300),
                BranchKind::DirectCall,
                100,
                &[(b(1), 10), (b(300), 100)],
            );
        }
        for i in 0..49u32 {
            p.push_sample(
                b(301 + i),
                BranchKind::DirectCall,
                100,
                &[(b(1), 10), (b(301 + i), 100)],
            );
        }
        let config = TwigConfig {
            hot_sample_coverage: 0.6,
            min_covered_samples: 1,
            min_conditional_prob: 0.0,
            ..TwigConfig::default()
        };
        let plans = analyze_profile(&p, &config);
        // 98/147 = 0.67 >= 0.6: the hot branch alone satisfies coverage.
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].branch_block, b(300));
    }

    #[test]
    fn layout_awareness_prefers_encodable_sites() {
        use twig_workload::{ProgramGenerator, WorkloadSpec};
        // Build a profile where a miss branch has two equally accurate
        // candidates: one nearby (offset-encodable) and one in the distant
        // library region. Layout-aware analysis must choose the near one.
        let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        let miss = program
            .blocks()
            .find(|(id, b)| {
                b.addr.raw() < 0x7000_0000_0000
                    && b.branch_kind().is_some_and(|k| k.is_direct())
                    && program.direct_branch_target_addr(*id).is_some()
                    && crate::compress::is_encodable(&program, *id, *id, 12)
            })
            .map(|(id, _)| id)
            .unwrap();
        // Near candidate: the immediately preceding block (tiny offset).
        let near = BlockId::new(miss.raw().saturating_sub(1));
        // Far candidate: a block in the library region.
        let far = program
            .blocks()
            .find(|(_, b)| b.addr.raw() > 0x7000_0000_0000)
            .map(|(id, _)| id)
            .unwrap();
        assert!(crate::compress::is_encodable(&program, near, miss, 12));
        assert!(!crate::compress::is_encodable(&program, far, miss, 12));

        let mut p = Profile::new(program.num_blocks(), 1);
        p.block_executions[near.index()] = 10;
        // Give the far candidate *better* accuracy so only layout awareness
        // can override it.
        p.block_executions[far.index()] = 5;
        for _ in 0..5 {
            p.push_sample(
                miss,
                BranchKind::DirectJump,
                100,
                &[(near, 10), (far, 20), (miss, 100)],
            );
        }
        let config = TwigConfig::default();
        let blind = analyze_profile_with_layout(&p, &config, None);
        assert_eq!(blind[0].sites[0].site, far, "higher P wins blind");
        let aware = analyze_profile_with_layout(&p, &config, Some(&program));
        assert_eq!(
            aware[0].sites[0].site, near,
            "encodable site preferred with layout"
        );
    }

    #[test]
    fn sites_capped_per_miss() {
        let mut p = Profile::new(50, 1);
        for c in 1..=6u32 {
            p.block_executions[c as usize] = 4;
        }
        // Each sample sees exactly one distinct candidate.
        for c in 1..=6u32 {
            for _ in 0..4 {
                p.push_sample(
                    b(40),
                    BranchKind::DirectJump,
                    100,
                    &[(b(c), 10), (b(40), 100)],
                );
            }
        }
        let config = TwigConfig {
            max_sites_per_miss: 2,
            min_conditional_prob: 0.0,
            ..TwigConfig::default()
        };
        let plans = analyze_profile(&p, &config);
        assert_eq!(plans[0].sites.len(), 2);
    }
}
