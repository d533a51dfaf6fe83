//! The profile data model: BTB-miss samples with LBR-style block histories
//! plus block execution counts.
//!
//! Consecutive LBR windows overlap: two misses a few blocks apart share
//! most of their 32 entries. A [`Profile`] therefore keeps every history
//! in one shared log of `(block, cycle)` entries, and each [`MissSample`]
//! names its window of that log. [`Profile::push_sample`] appends only the
//! part of a window that the previous window does not already end with.

use twig_serde::{Deserialize, Serialize, Value};
use twig_types::{BlockId, BranchKind, FxHashMap};

/// One sampled BTB miss; its history lives in the owning [`Profile`].
///
/// Mirrors what Intel LBR + the `baclears.any` event capture in production
/// (§3.1): the last (up to) 32 executed basic blocks before the miss, each
/// with a cycle timestamp, oldest first; the missing block itself is the
/// final entry. Read the history with [`Profile::history`]; a sample is
/// only meaningful together with the profile that recorded it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MissSample {
    /// The block whose terminator branch missed in the BTB.
    pub branch_block: BlockId,
    /// Branch classification.
    pub kind: BranchKind,
    /// Cycle of the miss (BPU timestamp).
    pub cycle: u64,
    /// The history's window of the profile's log: `log[start..start + len]`.
    start: u32,
    len: u32,
}

/// A complete execution profile: sampled BTB misses plus per-block
/// execution counts.
///
/// In production the execution counts are estimated from the same sampled
/// LBR records; the simulator gives us exact counts, which removes one
/// source of noise without changing the algorithm.
///
/// Equality compares the log and the windows. Both are a function of the
/// sequence of histories pushed, so two profiles with the same samples in
/// the same order compare equal however they were built.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Profile {
    /// Sampled BTB misses.
    samples: Vec<MissSample>,
    /// Every sample's history, windows overlapping where histories do.
    log: Vec<(BlockId, u64)>,
    /// Execution count per block id (dense, indexed by block id).
    pub block_executions: Vec<u64>,
    /// Original instructions covered by the profiling run.
    pub instructions: u64,
    /// Sampling period used (1 = every miss).
    pub sample_period: u32,
}

impl Profile {
    /// Creates an empty profile sized for `num_blocks` blocks.
    pub fn new(num_blocks: usize, sample_period: u32) -> Self {
        Profile {
            samples: Vec::new(),
            log: Vec::new(),
            block_executions: vec![0; num_blocks],
            instructions: 0,
            sample_period,
        }
    }

    /// Records one sampled miss with its `(block, cycle)` history, oldest
    /// first, ending with the miss block.
    ///
    /// The longest suffix of the previous sample's window that equals a
    /// prefix of `history` is shared; only the rest is appended to the log.
    ///
    /// # Panics
    ///
    /// Panics if the log would exceed `u32::MAX` entries.
    pub fn push_sample(
        &mut self,
        branch_block: BlockId,
        kind: BranchKind,
        cycle: u64,
        history: &[(BlockId, u64)],
    ) {
        let prev = self.samples.last().map_or(&[][..], |s| self.history(s));
        let shared = longest_overlap(prev, history);
        // Every window ends at the log's end when it is pushed, so the
        // shared part is the log's tail.
        let start = self.log.len() - shared;
        self.log.extend_from_slice(&history[shared..]);
        assert!(
            self.log.len() <= u32::MAX as usize,
            "LBR log exceeds u32::MAX entries"
        );
        self.samples.push(MissSample {
            branch_block,
            kind,
            cycle,
            start: start as u32,
            len: history.len() as u32,
        });
    }

    /// Sampled misses, in recording order.
    #[inline]
    pub fn samples(&self) -> &[MissSample] {
        &self.samples
    }

    /// `sample`'s `(block, cycle)` history, oldest first, ending with the
    /// miss block.
    ///
    /// # Panics
    ///
    /// May panic if `sample` comes from another profile.
    #[inline]
    pub fn history(&self, sample: &MissSample) -> &[(BlockId, u64)] {
        let start = sample.start as usize;
        &self.log[start..start + sample.len as usize]
    }

    /// Iterates over `sample`'s candidate predecessor blocks that precede
    /// the miss by at least `prefetch_distance` cycles (the timeliness
    /// constraint of §3.1), oldest first. The miss block itself is never a
    /// candidate.
    pub fn timely_predecessors(
        &self,
        sample: &MissSample,
        prefetch_distance: u64,
    ) -> impl Iterator<Item = BlockId> + '_ {
        let deadline = sample.cycle.saturating_sub(prefetch_distance);
        let history = self.history(sample);
        let last = history.len().saturating_sub(1);
        history[..last]
            .iter()
            .filter(move |(_, c)| *c <= deadline)
            .map(|(b, _)| *b)
    }

    /// Execution count of `block`.
    pub fn executions(&self, block: BlockId) -> u64 {
        self.block_executions
            .get(block.index())
            .copied()
            .unwrap_or(0)
    }

    /// Number of sampled misses.
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }

    /// Distinct miss branch blocks, with their sample counts, hottest first.
    pub fn miss_histogram(&self) -> Vec<(BlockId, u64)> {
        let mut counts: FxHashMap<BlockId, u64> = FxHashMap::default();
        for s in &self.samples {
            *counts.entry(s.branch_block).or_insert(0) += 1;
        }
        let mut v: Vec<_> = counts.into_iter().collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Merges another profile (e.g. from a second profiling shard).
    ///
    /// # Panics
    ///
    /// Panics if the block spaces differ in size.
    pub fn merge(&mut self, other: &Profile) {
        assert_eq!(
            self.block_executions.len(),
            other.block_executions.len(),
            "profiles come from different programs"
        );
        self.samples.reserve(other.samples.len());
        for s in &other.samples {
            self.push_sample(s.branch_block, s.kind, s.cycle, other.history(s));
        }
        for (a, b) in self
            .block_executions
            .iter_mut()
            .zip(&other.block_executions)
        {
            *a += b;
        }
        self.instructions += other.instructions;
    }

    /// Releases the spare capacity collection left behind.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.samples.shrink_to_fit();
        self.log.shrink_to_fit();
    }
}

/// Length of the longest suffix of `prev` that equals a prefix of `next`.
fn longest_overlap(prev: &[(BlockId, u64)], next: &[(BlockId, u64)]) -> usize {
    let max = prev.len().min(next.len());
    (1..=max)
        .rev()
        .find(|&k| prev[prev.len() - k..] == next[..k])
        .unwrap_or(0)
}

/// One sample as the profile's serde form spells it, the history inline:
/// the JSON profile format does not know about the shared log.
#[derive(Serialize, Deserialize)]
struct SampleRecord {
    branch_block: BlockId,
    kind: BranchKind,
    cycle: u64,
    history: Vec<(BlockId, u64)>,
}

/// [`Profile`]'s serialized form.
#[derive(Serialize, Deserialize)]
struct ProfileRecord {
    samples: Vec<SampleRecord>,
    block_executions: Vec<u64>,
    instructions: u64,
    sample_period: u32,
}

impl Serialize for Profile {
    fn to_value(&self) -> Value {
        ProfileRecord {
            samples: self
                .samples
                .iter()
                .map(|s| SampleRecord {
                    branch_block: s.branch_block,
                    kind: s.kind,
                    cycle: s.cycle,
                    history: self.history(s).to_vec(),
                })
                .collect(),
            block_executions: self.block_executions.clone(),
            instructions: self.instructions,
            sample_period: self.sample_period,
        }
        .to_value()
    }
}

impl Deserialize for Profile {
    fn from_value(value: &Value) -> Result<Self, String> {
        let record = ProfileRecord::from_value(value)?;
        let mut profile = Profile {
            block_executions: record.block_executions,
            instructions: record.instructions,
            sample_period: record.sample_period,
            ..Profile::default()
        };
        profile.samples.reserve_exact(record.samples.len());
        for s in &record.samples {
            profile.push_sample(s.branch_block, s.kind, s.cycle, &s.history);
        }
        profile.shrink_to_fit();
        Ok(profile)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Two overlapping samples, the second sharing two entries of the first.
    pub(crate) fn hand_built() -> Profile {
        let b = BlockId::new;
        let mut p = Profile::new(3, 2);
        p.block_executions = vec![5, 0, 130];
        p.instructions = 1000;
        p.push_sample(
            b(2),
            BranchKind::DirectCall,
            40,
            &[(b(0), 10), (b(1), 25), (b(2), 40)],
        );
        p.push_sample(
            b(1),
            BranchKind::Conditional,
            300,
            &[(b(1), 25), (b(2), 40), (b(1), 300)],
        );
        p
    }

    /// A profile holding one sample: `cycles` then the miss block 999.
    fn one_sample(cycles: &[(u32, u64)], miss_cycle: u64) -> Profile {
        let mut history: Vec<(BlockId, u64)> =
            cycles.iter().map(|&(b, c)| (BlockId::new(b), c)).collect();
        let branch = BlockId::new(999);
        history.push((branch, miss_cycle));
        let mut p = Profile::new(0, 1);
        p.push_sample(branch, BranchKind::DirectCall, miss_cycle, &history);
        p
    }

    #[test]
    fn timely_predecessors_respect_distance() {
        let p = one_sample(&[(1, 10), (2, 75), (3, 95)], 100);
        let s = &p.samples()[0];
        let timely: Vec<_> = p.timely_predecessors(s, 20).collect();
        // Deadline = 80: blocks at cycles 10 and 75 qualify; 95 does not.
        assert_eq!(timely, vec![BlockId::new(1), BlockId::new(2)]);
        // Distance 0: everything before the miss qualifies.
        assert_eq!(p.timely_predecessors(s, 0).count(), 3);
        // Huge distance: nothing qualifies.
        assert_eq!(p.timely_predecessors(s, 1000).count(), 0);
    }

    #[test]
    fn miss_block_is_never_a_candidate() {
        let p = one_sample(&[(1, 10)], 100);
        let s = &p.samples()[0];
        assert!(p.timely_predecessors(s, 0).all(|b| b != s.branch_block));
    }

    /// Windows sliding over one stream share the log; disjoint, repeated
    /// and empty windows all read back exactly.
    #[test]
    fn push_sample_shares_overlapping_windows() {
        let stream: Vec<(BlockId, u64)> = (0..40u32)
            .map(|i| (BlockId::new(i % 7), u64::from(i)))
            .collect();
        let windows: [&[(BlockId, u64)]; 7] = [
            &stream[0..32],
            &stream[3..35],
            &stream[3..35],
            &stream[35..40],
            &[],
            &stream[0..1],
            &stream[0..3],
        ];
        let mut p = Profile::new(0, 1);
        for w in windows {
            p.push_sample(BlockId::new(0), BranchKind::Return, 0, w);
        }
        for (s, w) in p.samples().iter().zip(windows) {
            assert_eq!(p.history(s), w);
        }
        // 32 + 3 new + 0 + 5 + 0 + 1 + 2 (the prefix of the last window
        // that the previous one ends with is shared).
        assert_eq!(p.log.len(), 43);
    }

    /// The JSON form spells each history inline, exactly as before the
    /// shared log, and reads back to an equal profile.
    #[test]
    fn json_form_is_unchanged() {
        let profile = hand_built();
        let json = twig_serde_json::to_string(&profile).unwrap();
        assert_eq!(
            json,
            r#"{"samples":[{"branch_block":2,"kind":"DirectCall","cycle":40,"history":[[0,10],[1,25],[2,40]]},{"branch_block":1,"kind":"Conditional","cycle":300,"history":[[1,25],[2,40],[1,300]]}],"block_executions":[5,0,130],"instructions":1000,"sample_period":2}"#
        );
        assert_eq!(
            twig_serde_json::from_str::<Profile>(&json).unwrap(),
            profile
        );
    }

    #[test]
    fn histogram_orders_by_count() {
        let mut p = Profile::new(10, 1);
        for (block, n) in [(3u32, 5), (7, 2), (1, 9)] {
            for _ in 0..n {
                let b = BlockId::new(block);
                p.push_sample(b, BranchKind::Conditional, 0, &[(b, 0)]);
            }
        }
        let h = p.miss_histogram();
        assert_eq!(h[0], (BlockId::new(1), 9));
        assert_eq!(h[1], (BlockId::new(3), 5));
        assert_eq!(h[2], (BlockId::new(7), 2));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Profile::new(4, 1);
        a.block_executions[2] = 10;
        a.instructions = 100;
        let mut b = Profile::new(4, 1);
        b.block_executions[2] = 5;
        b.instructions = 50;
        b.push_sample(
            BlockId::new(2),
            BranchKind::DirectJump,
            1,
            &[(BlockId::new(2), 1)],
        );
        a.merge(&b);
        assert_eq!(a.executions(BlockId::new(2)), 15);
        assert_eq!(a.instructions, 150);
        assert_eq!(a.num_samples(), 1);
        assert_eq!(a.history(&a.samples()[0]), &[(BlockId::new(2), 1)]);
    }

    #[test]
    #[should_panic(expected = "different programs")]
    fn merge_rejects_mismatched_programs() {
        let mut a = Profile::new(4, 1);
        let b = Profile::new(5, 1);
        a.merge(&b);
    }

    #[test]
    fn executions_out_of_range_is_zero() {
        let p = Profile::new(2, 1);
        assert_eq!(p.executions(BlockId::new(99)), 0);
    }
}
