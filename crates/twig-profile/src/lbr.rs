//! LBR-style profile collection from the simulator's miss observer hook.

use twig_sim::{HistoryEntry, MissObserver};
use twig_types::{BlockId, BranchKind};
use twig_workload::{BlockEvent, Program};

use crate::profile::Profile;

/// Collects BTB-miss samples with their basic-block histories, modelling
/// Intel LBR capture triggered by the `baclears.any` event (§4.1).
///
/// Attach to a simulation run via [`twig_sim::Simulator::run_observed`]:
///
/// ```
/// use twig_profile::LbrRecorder;
/// use twig_sim::{PlainBtb, SimConfig, Simulator};
/// use twig_workload::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};
///
/// let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
/// let config = SimConfig::default();
/// let mut recorder = LbrRecorder::new(&program, 1);
/// let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
/// sim.run_observed(
///     Walker::new(&program, InputConfig::numbered(0)),
///     20_000,
///     &mut recorder,
/// );
/// let profile = recorder.into_profile();
/// assert!(profile.num_samples() > 0);
/// ```
#[derive(Debug)]
pub struct LbrRecorder {
    profile: Profile,
    period: u32,
    countdown: u32,
    /// Reused buffer the simulator's history is copied into.
    window: Vec<(BlockId, u64)>,
}

impl LbrRecorder {
    /// Creates a recorder sampling every `period`-th miss (1 = every miss,
    /// matching an aggressive PMU configuration; larger periods model
    /// production sampling overhead limits).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(program: &Program, period: u32) -> Self {
        assert!(period > 0, "sample period must be positive");
        LbrRecorder {
            profile: Profile::new(program.num_blocks(), period),
            period,
            countdown: 0,
            window: Vec::with_capacity(twig_sim::LBR_DEPTH),
        }
    }

    /// Accounts one executed block (exact execution counts; production
    /// tooling estimates these from the same samples). Takes the event by
    /// value — [`BlockEvent`] is `Copy`-sized — so one event stream
    /// drives the recorder and the simulator without a collect.
    pub fn observe_event(&mut self, program: &Program, event: BlockEvent) {
        self.profile.block_executions[event.block.index()] += 1;
        self.profile.instructions += u64::from(program.block(event.block).num_instrs);
    }

    /// Accounts a whole event stream at once.
    pub fn observe_events(
        &mut self,
        program: &Program,
        events: impl IntoIterator<Item = BlockEvent>,
    ) {
        for ev in events {
            self.observe_event(program, ev);
        }
    }

    /// Finishes collection, releasing the log's spare capacity.
    pub fn into_profile(mut self) -> Profile {
        self.profile.shrink_to_fit();
        self.profile
    }

    /// The profile collected so far.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }
}

impl MissObserver for LbrRecorder {
    fn on_btb_miss(
        &mut self,
        block: BlockId,
        kind: BranchKind,
        history: &[HistoryEntry],
        cycle: u64,
    ) {
        if self.countdown > 0 {
            self.countdown -= 1;
            return;
        }
        self.countdown = self.period - 1;
        self.window.clear();
        self.window
            .extend(history.iter().map(|h| (h.block, h.cycle)));
        self.profile.push_sample(block, kind, cycle, &self.window);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_sim::{PlainBtb, SimConfig, Simulator};
    use twig_workload::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};

    fn collect(period: u32, budget: u64) -> (Profile, u64) {
        let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        let config = SimConfig::default().with_btb_entries(512);
        let mut recorder = LbrRecorder::new(&program, period);
        let events: Vec<_> =
            Walker::new(&program, InputConfig::numbered(0)).run_instructions(budget);
        recorder.observe_events(&program, events.iter().copied());
        let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
        let stats = sim.run_observed(events, budget, &mut recorder);
        (recorder.into_profile(), stats.total_btb_misses())
    }

    #[test]
    fn period_one_records_every_miss() {
        let (profile, misses) = collect(1, 100_000);
        assert_eq!(profile.num_samples() as u64, misses);
        assert!(profile.num_samples() > 0);
    }

    #[test]
    fn larger_period_subsamples() {
        let (all, _) = collect(1, 100_000);
        let (sampled, _) = collect(4, 100_000);
        let ratio = all.num_samples() as f64 / sampled.num_samples().max(1) as f64;
        assert!(
            (3.0..=5.0).contains(&ratio),
            "period-4 sampling ratio {ratio}"
        );
    }

    #[test]
    fn execution_counts_cover_stream() {
        let (profile, _) = collect(1, 50_000);
        assert!(profile.instructions >= 50_000);
        let total: u64 = profile.block_executions.iter().sum();
        assert!(total > 0);
    }

    #[test]
    fn histories_end_with_the_missing_block() {
        let (profile, _) = collect(1, 50_000);
        for s in profile.samples().iter().take(200) {
            let history = profile.history(s);
            assert_eq!(history.last().map(|(b, _)| *b), Some(s.branch_block));
            assert!(history.len() <= twig_sim::LBR_DEPTH);
        }
    }

    /// Records every window the simulator hands the recorder, as passed.
    struct Windows(Vec<Vec<(BlockId, u64)>>);

    impl MissObserver for Windows {
        fn on_btb_miss(&mut self, _: BlockId, _: BranchKind, history: &[HistoryEntry], _: u64) {
            self.0
                .push(history.iter().map(|h| (h.block, h.cycle)).collect());
        }
    }

    /// The shared log reproduces every window the simulator passed.
    #[test]
    fn profile_history_equals_the_simulator_window() {
        let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        let config = SimConfig::default().with_btb_entries(512);
        let events: Vec<_> =
            Walker::new(&program, InputConfig::numbered(0)).run_instructions(100_000);
        let mut recorder = LbrRecorder::new(&program, 1);
        Simulator::new(&program, config, PlainBtb::new(&config)).run_observed(
            events.iter().copied(),
            u64::MAX,
            &mut recorder,
        );
        let mut windows = Windows(Vec::new());
        Simulator::new(&program, config, PlainBtb::new(&config)).run_observed(
            events,
            u64::MAX,
            &mut windows,
        );
        let profile = recorder.into_profile();
        assert!(profile.num_samples() > 100);
        assert_eq!(profile.num_samples(), windows.0.len());
        for (s, w) in profile.samples().iter().zip(&windows.0) {
            assert_eq!(profile.history(s), w.as_slice());
        }
    }
}
