//! The workload walker: a stochastic interpreter of the program CFG that
//! produces the dynamic instruction stream the frontend simulator consumes.
//!
//! The walker plays the role of the traced application: it maintains a call
//! stack, resolves every terminator (drawing from the seeded RNG, with the
//! active [`InputConfig`] skewing probabilities), and emits one
//! [`BlockEvent`] per executed basic block.
//!
//! Determinism matters twice:
//!
//! 1. the same `(program structure, input)` pair always produces the same
//!    event stream, making every experiment reproducible, and
//! 2. the event stream is *layout-independent* — it references blocks by
//!    stable id — so the exact same control-flow replay can be fed to the
//!    simulator before and after Twig's rewriter re-lays-out the binary,
//!    isolating the effect of the injected prefetches (the injected ops do
//!    not alter control flow, only block sizes and instruction counts).

use std::borrow::Borrow;

use twig_rand::rngs::SmallRng;
use twig_rand::{RngExt, SeedableRng};
use twig_serde::{Deserialize, Serialize};
use twig_types::{BlockId, BranchRecord};

use crate::inputs::InputConfig;
use crate::program::{Program, Terminator};

/// One executed basic block, with its resolved terminator outcome.
///
/// Layout-independent: block references are stable ids. Use
/// [`Program::resolve_branch`] to obtain the concrete [`BranchRecord`]
/// under the program's current layout.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct BlockEvent {
    /// The executed block.
    pub block: BlockId,
    /// Whether the terminator branch was taken (`false` for not-taken
    /// conditionals and for fall-through blocks).
    pub taken: bool,
    /// The dynamic successor block reached via the *taken* edge
    /// (callee entry for calls, return site for returns). `None` when the
    /// terminator was not taken.
    pub target: Option<BlockId>,
}

impl BlockEvent {
    /// Resolves this event to a concrete branch record under `program`'s
    /// current layout. `None` for fall-through blocks.
    pub fn branch_record(&self, program: &Program) -> Option<BranchRecord> {
        if matches!(program.block(self.block).term, Terminator::FallThrough { .. }) {
            return None;
        }
        program.resolve_branch(self.block, self.taken, self.target)
    }

    /// Whether walking `program` could have produced this event: its
    /// blocks exist, and its direction and target agree with the block's
    /// terminator, a direct branch landing on its static target. Events
    /// read from a file are checked with it before they are simulated,
    /// since one that fails would index outside `program`.
    pub fn fits(&self, program: &Program) -> bool {
        let blocks = program.num_blocks();
        if self.block.index() >= blocks || self.target.is_some_and(|t| t.index() >= blocks) {
            return false;
        }
        use Terminator as T;
        let target = self.target;
        match (&program.block(self.block).term, self.taken) {
            (T::FallThrough { .. } | T::Conditional { .. }, false) => target.is_none(),
            (T::Conditional { taken: t, .. } | T::Jump { target: t }, true) => target == Some(*t),
            (T::Call { callee, .. }, true) => target == Some(program.function(*callee).entry),
            (T::IndirectJump { .. } | T::IndirectCall { .. } | T::Return, true) => target.is_some(),
            _ => false,
        }
    }
}

/// Maximum call-stack depth the walker tolerates before treating a call as
/// a tail-call (defense in depth; the generated call graph is level-bounded
/// and never reaches this).
const MAX_STACK_DEPTH: usize = 512;

/// Stochastic CFG interpreter. Implements [`Iterator`] over [`BlockEvent`]s
/// and never terminates (the dispatcher loops forever), so callers bound it
/// with [`Iterator::take`] or an instruction budget.
///
/// Generic over how the program is held: `Walker::new(&program, ..)` borrows
/// (the common case), while an owning holder such as `Arc<Program>` yields a
/// self-contained walker — what [`crate::WalkerSource`] uses to be an owned,
/// cloneable event source.
///
/// # Examples
///
/// ```
/// use twig_workload::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};
///
/// let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
/// let events: Vec<_> = Walker::new(&program, InputConfig::numbered(0))
///     .take(100)
///     .collect();
/// assert_eq!(events.len(), 100);
/// ```
#[derive(Clone, Debug)]
pub struct Walker<P: Borrow<Program>> {
    program: P,
    input: InputConfig,
    rng: SmallRng,
    current: BlockId,
    stack: Vec<BlockId>,
}

impl<P: Borrow<Program>> Walker<P> {
    /// Starts a walk at the program's dispatcher under the given input.
    pub fn new(program: P, input: InputConfig) -> Self {
        let entry = {
            let program = program.borrow();
            program.function(program.entry_function()).entry
        };
        Walker {
            program,
            input,
            rng: SmallRng::seed_from_u64(input.rng_seed()),
            current: entry,
            stack: Vec::with_capacity(64),
        }
    }

    /// The active input configuration.
    pub fn input(&self) -> &InputConfig {
        &self.input
    }

    /// Current call-stack depth (for tests and diagnostics).
    pub fn stack_depth(&self) -> usize {
        self.stack.len()
    }

    /// Runs the walker until at least `instructions` original program
    /// instructions have been emitted, collecting the events.
    ///
    /// Injected prefetch ops do not count toward the budget, so the same
    /// budget covers the same *program work* before and after rewriting.
    /// The budget rule is [`WalkerSource`]'s; this collects that stream.
    ///
    /// [`WalkerSource`]: crate::WalkerSource
    pub fn run_instructions(self, instructions: u64) -> Vec<BlockEvent> {
        let mut events = Vec::with_capacity((instructions / 4) as usize);
        events.extend(crate::WalkerSource::budgeted(self, instructions));
        events
    }

    /// The walked program.
    pub(crate) fn program(&self) -> &Program {
        self.program.borrow()
    }

    /// Resolves the dynamic successor of `block` and returns the event.
    fn step(&mut self) -> BlockEvent {
        let id = self.current;
        let program = self.program.borrow();
        let block = program.block(id);
        let (event, next) = match &block.term {
            Terminator::FallThrough { next } => (
                BlockEvent {
                    block: id,
                    taken: false,
                    target: None,
                },
                *next,
            ),
            Terminator::Conditional {
                taken,
                not_taken,
                taken_prob,
            } => {
                let p = self.input.effective_taken_prob(id, *taken_prob);
                let is_taken = self.rng.random::<f32>() < p;
                if is_taken {
                    (
                        BlockEvent {
                            block: id,
                            taken: true,
                            target: Some(*taken),
                        },
                        *taken,
                    )
                } else {
                    (
                        BlockEvent {
                            block: id,
                            taken: false,
                            target: None,
                        },
                        *not_taken,
                    )
                }
            }
            Terminator::Jump { target } => (
                BlockEvent {
                    block: id,
                    taken: true,
                    target: Some(*target),
                },
                *target,
            ),
            Terminator::Call { callee, return_to } => {
                let entry = program.function(*callee).entry;
                if self.stack.len() < MAX_STACK_DEPTH {
                    self.stack.push(*return_to);
                }
                (
                    BlockEvent {
                        block: id,
                        taken: true,
                        target: Some(entry),
                    },
                    entry,
                )
            }
            Terminator::IndirectJump { targets } => {
                let targets = program.indirect_targets(*targets);
                let choice =
                    weighted_choice(&mut self.rng, &self.input, id, targets.iter().map(|(_, w)| *w));
                let target = targets[choice].0;
                (
                    BlockEvent {
                        block: id,
                        taken: true,
                        target: Some(target),
                    },
                    target,
                )
            }
            Terminator::IndirectCall { callees, return_to } => {
                let callees = program.indirect_callees(*callees);
                let choice =
                    weighted_choice(&mut self.rng, &self.input, id, callees.iter().map(|(_, w)| *w));
                let entry = program.function(callees[choice].0).entry;
                if self.stack.len() < MAX_STACK_DEPTH {
                    self.stack.push(*return_to);
                }
                (
                    BlockEvent {
                        block: id,
                        taken: true,
                        target: Some(entry),
                    },
                    entry,
                )
            }
            Terminator::Return => {
                let next = self.stack.pop().unwrap_or_else(|| {
                    // Stack exhausted (should only happen if a walk starts
                    // mid-program): restart the event loop.
                    program.function(program.entry_function()).entry
                });
                (
                    BlockEvent {
                        block: id,
                        taken: true,
                        target: Some(next),
                    },
                    next,
                )
            }
        };
        self.current = next;
        event
    }
}

/// Samples an index from input-skewed weights. A free function (rather than
/// a method) so [`Walker::step`] can call it while the program holder is
/// borrowed — it touches only the RNG and input fields.
fn weighted_choice(
    rng: &mut SmallRng,
    input: &InputConfig,
    block: BlockId,
    weights: impl Iterator<Item = f32>,
) -> usize {
    let effective: Vec<f32> = weights
        .enumerate()
        .map(|(slot, w)| input.effective_weight(block, slot as u32, w))
        .collect();
    let total: f32 = effective.iter().sum();
    debug_assert!(total > 0.0);
    let mut x = rng.random::<f32>() * total;
    for (i, w) in effective.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= *w;
    }
    effective.len() - 1
}

impl<P: Borrow<Program>> Iterator for Walker<P> {
    type Item = BlockEvent;

    fn next(&mut self) -> Option<BlockEvent> {
        Some(self.step())
    }

    /// The walk never ends; saying so lets `take(n).collect()` allocate
    /// exactly `n` events up front.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProgramGenerator, WorkloadSpec};
    use twig_types::BranchKind;

    fn tiny() -> Program {
        ProgramGenerator::new(WorkloadSpec::tiny_test()).generate()
    }

    #[test]
    fn take_collect_allocates_exactly() {
        let p = tiny();
        let events: Vec<_> = Walker::new(&p, InputConfig::numbered(0)).take(5000).collect();
        assert_eq!(events.capacity(), 5000);
    }

    #[test]
    fn walk_is_deterministic() {
        let p = tiny();
        let a: Vec<_> = Walker::new(&p, InputConfig::numbered(0)).take(5000).collect();
        let b: Vec<_> = Walker::new(&p, InputConfig::numbered(0)).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_inputs_diverge() {
        let p = tiny();
        let a: Vec<_> = Walker::new(&p, InputConfig::numbered(0)).take(5000).collect();
        let b: Vec<_> = Walker::new(&p, InputConfig::numbered(1)).take(5000).collect();
        assert_ne!(a, b);
    }

    /// Every walked event fits its program; flipping its direction, or
    /// naming a block past the program's end, does not.
    #[test]
    fn walked_events_fit_and_altered_ones_do_not() {
        let p = tiny();
        let past_end = BlockId::new(p.num_blocks() as u32);
        for ev in Walker::new(&p, InputConfig::numbered(0)).take(20_000) {
            assert!(ev.fits(&p), "{ev:?}");
            let flipped = BlockEvent {
                taken: !ev.taken,
                ..ev
            };
            assert!(!flipped.fits(&p), "{flipped:?}");
            assert!(!BlockEvent { block: past_end, ..ev }.fits(&p));
            if ev.target.is_some() {
                assert!(!BlockEvent { target: Some(past_end), ..ev }.fits(&p));
            }
        }
    }

    #[test]
    fn successors_respect_cfg() {
        let p = tiny();
        let events: Vec<_> = Walker::new(&p, InputConfig::numbered(0)).take(20_000).collect();
        for pair in events.windows(2) {
            let (ev, next) = (&pair[0], &pair[1]);
            let block = p.block(ev.block);
            let expected = match (&block.term, ev.taken) {
                (Terminator::FallThrough { next }, _) => *next,
                (Terminator::Conditional { not_taken, .. }, false) => *not_taken,
                (_, true) => ev.target.expect("taken branch has target"),
                (t, false) => panic!("non-taken unconditional {t:?}"),
            };
            assert_eq!(next.block, expected);
        }
    }

    #[test]
    fn calls_balance_returns() {
        let p = tiny();
        let mut walker = Walker::new(&p, InputConfig::numbered(0));
        let mut max_depth = 0usize;
        for _ in 0..50_000 {
            walker.next().unwrap();
            max_depth = max_depth.max(walker.stack_depth());
        }
        assert!(max_depth > 1, "no call nesting observed");
        assert!(
            max_depth < 64,
            "call depth {max_depth} exceeds level bound"
        );
    }

    #[test]
    fn branch_records_resolve() {
        // The default tiny fixture carries a ~2% indirect-jump weight, so
        // whether its lone ijmp lands on a hot path depends on the RNG
        // stream. This test needs every kind to execute, so boost the
        // ijmp weight to make coverage structural rather than lucky.
        let mut spec = WorkloadSpec::tiny_test();
        spec.mix.indirect_jump = 0.10;
        spec.mix.conditional = 0.44;
        let p = ProgramGenerator::new(spec).generate();
        let mut kinds_seen = [false; 6];
        for ev in Walker::new(&p, InputConfig::numbered(0)).take(300_000) {
            if let Some(rec) = ev.branch_record(&p) {
                kinds_seen[rec.kind.index()] = true;
                if ev.taken {
                    assert!(rec.outcome.is_taken());
                }
            }
            if kinds_seen.iter().all(|&seen| seen) {
                break;
            }
        }
        for k in BranchKind::ALL {
            assert!(kinds_seen[k.index()], "never executed a {k} branch");
        }
    }

    #[test]
    fn run_instructions_meets_budget() {
        let p = tiny();
        let events = Walker::new(&p, InputConfig::numbered(0)).run_instructions(10_000);
        let total: u64 = events
            .iter()
            .map(|e| u64::from(p.block(e.block).num_instrs))
            .sum();
        assert!(total >= 10_000);
        assert!(total < 10_000 + 64, "overshoot bounded by one block");
    }

    #[test]
    fn conditional_bias_shows_in_frequencies() {
        // Loop back-edges are mostly taken; statistically, taken conditional
        // executions should not be rare.
        let p = tiny();
        let events: Vec<_> = Walker::new(&p, InputConfig::numbered(0)).take(50_000).collect();
        let (mut taken, mut total) = (0u64, 0u64);
        for ev in &events {
            if matches!(p.block(ev.block).term, Terminator::Conditional { .. }) {
                total += 1;
                taken += u64::from(ev.taken);
            }
        }
        assert!(total > 1000);
        let rate = taken as f64 / total as f64;
        assert!((0.15..0.85).contains(&rate), "taken rate {rate}");
    }
}
