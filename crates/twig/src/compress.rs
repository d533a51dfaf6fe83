//! Prefetch target compression: offset encodability (§3.1, Figs. 14–15).
//!
//! `brprefetch` stores two signed deltas instead of absolute 48-bit
//! pointers: the *prefetch-to-branch offset* (injection-site PC to the
//! prefetched branch PC) and the *branch-to-target offset* (branch PC to
//! its taken target). The paper shows 12 bits cover ~80% of both; the
//! remainder goes through the coalesce table (§3.2).

use twig_serde::{Deserialize, Serialize};
use twig_types::BlockId;
use twig_workload::Program;

/// Whether the `(site, branch)` pair can be encoded by a `brprefetch`
/// with `offset_bits`-wide signed offset fields under the program's
/// current layout.
///
/// The prefetch-to-branch offset is measured from the injection site's
/// block start (where injected ops are placed) to the prefetched branch's
/// PC; the branch-to-target offset from the branch PC to its statically
/// known taken target.
///
/// Returns `false` for branches without a static target (indirect
/// branches and returns cannot be software-prefetched at all).
pub fn is_encodable(
    program: &Program,
    site: BlockId,
    branch: BlockId,
    offset_bits: u32,
) -> bool {
    let Some((to_branch, to_target)) = offsets(program, site, branch) else {
        return false;
    };
    signed_fits(to_branch, offset_bits) && signed_fits(to_target, offset_bits)
}

/// The `(prefetch_to_branch, branch_to_target)` signed byte offsets for a
/// candidate pair, or `None` when the branch has no static target.
pub fn offsets(program: &Program, site: BlockId, branch: BlockId) -> Option<(i64, i64)> {
    let target = program.direct_branch_target_addr(branch)?;
    let site_addr = program.block(site).addr;
    let branch_pc = program.block(branch).branch_pc();
    Some((site_addr.offset_to(branch_pc), branch_pc.offset_to(target)))
}

#[inline]
fn signed_fits(v: i64, bits: u32) -> bool {
    debug_assert!((1..=63).contains(&bits));
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    (min..=max).contains(&v)
}

/// Cumulative distribution of required offset bit-widths (Figs. 14–15).
///
/// Index `i` holds the number of observations needing at most `i` bits
/// (two's complement, sign included), for `i` in `0..=49`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct OffsetCdf {
    counts: Vec<u64>,
    total: u64,
}

impl OffsetCdf {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        OffsetCdf {
            counts: vec![0; 50],
            total: 0,
        }
    }

    /// Records one signed offset with a weight (e.g. the miss-sample count
    /// it represents).
    pub fn record(&mut self, offset: i64, weight: u64) {
        let bits = required_bits(offset).min(49) as usize;
        self.counts[bits] += weight;
        self.total += weight;
    }

    /// Fraction of observations encodable within `bits` bits.
    pub fn coverage_at(&self, bits: u32) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let covered: u64 = self.counts[..=(bits as usize).min(49)].iter().sum();
        covered as f64 / self.total as f64
    }

    /// Total recorded weight.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `(bits, cumulative fraction)` series for plotting.
    pub fn series(&self) -> Vec<(u32, f64)> {
        (0..50).map(|b| (b, self.coverage_at(b))).collect()
    }
}

impl Default for OffsetCdf {
    fn default() -> Self {
        OffsetCdf::new()
    }
}

/// Bits needed to store `v` in two's complement, sign bit included.
fn required_bits(v: i64) -> u32 {
    if v >= 0 {
        64 - v.leading_zeros() + 1
    } else {
        64 - v.leading_ones() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_workload::{ProgramGenerator, Terminator, WorkloadSpec};

    #[test]
    fn fits_boundaries() {
        assert!(signed_fits(2047, 12));
        assert!(!signed_fits(2048, 12));
        assert!(signed_fits(-2048, 12));
        assert!(!signed_fits(-2049, 12));
        assert!(signed_fits(0, 2));
    }

    #[test]
    fn required_bits_boundaries() {
        assert_eq!(required_bits(0), 1);
        assert_eq!(required_bits(2047), 12);
        assert_eq!(required_bits(2048), 13);
        assert_eq!(required_bits(-2048), 12);
        assert_eq!(required_bits(-2049), 13);
    }

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let mut cdf = OffsetCdf::new();
        for v in [-5000i64, -100, 0, 3, 900, 40_000, 1 << 30] {
            cdf.record(v, 2);
        }
        let series = cdf.series();
        for pair in series.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        assert!((cdf.coverage_at(49) - 1.0).abs() < 1e-12);
        assert_eq!(cdf.total(), 14);
    }

    #[test]
    fn nearby_pairs_encode_distant_pairs_do_not() {
        let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        // A branch and its own block as "site": offset is tiny.
        let (branch, _) = program
            .blocks()
            .find(|(id, b)| {
                b.branch_kind().is_some_and(|k| k.is_direct())
                    && program.direct_branch_target_addr(*id).is_some()
                    && matches!(b.term, Terminator::Conditional { .. })
            })
            .unwrap();
        assert!(is_encodable(&program, branch, branch, 12));
        // A site in the app region prefetching a library-region branch:
        // the delta spans gigabytes and cannot encode.
        let lib_branch = program
            .blocks()
            .find(|(id, b)| {
                b.addr.raw() > 0x7000_0000_0000
                    && b.branch_kind().is_some_and(|k| k.is_direct())
                    && program.direct_branch_target_addr(*id).is_some()
            })
            .map(|(id, _)| id)
            .expect("library branch exists");
        assert!(!is_encodable(&program, branch, lib_branch, 12));
        // ... but a 48-bit field swallows it.
        assert!(is_encodable(&program, branch, lib_branch, 48));
    }

    #[test]
    fn indirect_branches_are_never_encodable() {
        let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        let site = program.function(program.entry_function()).entry;
        let ret = program
            .blocks()
            .find(|(_, b)| matches!(b.term, Terminator::Return))
            .map(|(id, _)| id)
            .unwrap();
        assert!(offsets(&program, site, ret).is_none());
        assert!(!is_encodable(&program, site, ret, 48));
    }

    #[test]
    fn empty_cdf_is_zero() {
        assert_eq!(OffsetCdf::new().coverage_at(12), 0.0);
    }
}
