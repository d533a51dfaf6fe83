//! No-progress and resource watchdogs for the simulation loop.

use super::{Fault, ViolationKind, CYCLE_BUDGET_FACTOR, HEAP_BUDGET, LIVELOCK_WINDOW};

/// Tracks retirement progress and resource budgets across cycles.
///
/// The simulator feeds it once per check period; it reports a typed
/// [`Fault`] when the run has livelocked, blown its cycle budget, or
/// grown its queued state past the heap budget.
#[derive(Clone, Debug)]
pub struct Watchdogs {
    livelock_window: u64,
    max_cycles: u64,
    heap_budget: usize,
    last_progress_cycle: u64,
    last_retired: u64,
}

impl Watchdogs {
    /// Creates watchdogs for a run retiring up to `instruction_budget`
    /// instructions.
    pub fn new(instruction_budget: u64) -> Self {
        Watchdogs {
            livelock_window: LIVELOCK_WINDOW,
            max_cycles: instruction_budget
                .saturating_mul(CYCLE_BUDGET_FACTOR)
                .max(1 << 22),
            heap_budget: HEAP_BUDGET,
            last_progress_cycle: 0,
            last_retired: 0,
        }
    }

    /// The enforced cycle ceiling.
    pub fn max_cycles(&self) -> u64 {
        self.max_cycles
    }

    /// Checks all watchdogs at `cycle`.
    ///
    /// `retired` is cumulative retired instructions (original + injected
    /// ops); `outstanding_fill` reports whether any cache fill is still in
    /// flight (a livelock requires *nothing* to be pending) — it is a
    /// closure so the MSHR scan only happens when retirement has stalled;
    /// `queued` is the total queued simulation state (FTQ + deliveries +
    /// retire queue + MSHR map).
    pub fn check(
        &mut self,
        cycle: u64,
        retired: u64,
        outstanding_fill: impl FnOnce() -> bool,
        queued: usize,
    ) -> Result<(), Fault> {
        if retired > self.last_retired || outstanding_fill() {
            self.last_retired = retired;
            self.last_progress_cycle = cycle;
        } else if cycle.saturating_sub(self.last_progress_cycle) >= self.livelock_window {
            return Err(Fault::new(
                ViolationKind::Livelock,
                format!(
                    "no instruction retired and no fill outstanding for {} cycles \
                     (since cycle {})",
                    cycle - self.last_progress_cycle,
                    self.last_progress_cycle
                ),
            ));
        }
        if cycle >= self.max_cycles {
            return Err(Fault::new(
                ViolationKind::CycleBudget,
                format!(
                    "cycle budget exhausted: {} cycles for {} retired instructions \
                     (limit {})",
                    cycle, retired, self.max_cycles
                ),
            ));
        }
        if queued > self.heap_budget {
            return Err(Fault::new(
                ViolationKind::HeapBudget,
                format!(
                    "queued simulation state {} exceeds heap budget {}",
                    queued, self.heap_budget
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Watchdogs with their own window and heap budget; an unbounded
    /// instruction budget puts the cycle ceiling at `u64::MAX`.
    fn watchdogs(livelock_window: u64, heap_budget: usize) -> Watchdogs {
        Watchdogs {
            livelock_window,
            heap_budget,
            ..Watchdogs::new(u64::MAX)
        }
    }

    #[test]
    fn livelock_fires_only_without_progress_or_fills() {
        let mut w = watchdogs(100, usize::MAX);
        // Progress keeps it quiet.
        for c in 0..500 {
            assert!(w.check(c, c, || false, 0).is_ok());
        }
        // Outstanding fills keep it quiet even with zero retirement.
        for c in 500..1000 {
            assert!(w.check(c, 500, || true, 0).is_ok());
        }
        // Stalled with nothing pending: fires after the window.
        for c in 1000..1099 {
            assert!(w.check(c, 500, || false, 0).is_ok());
        }
        let fault = w.check(1099, 500, || false, 0).unwrap_err();
        assert_eq!(fault.kind, ViolationKind::Livelock);
    }

    #[test]
    fn cycle_budget_enforced() {
        let mut w = watchdogs(u64::MAX, usize::MAX);
        assert!(w.check(w.max_cycles() - 1, 1, || false, 0).is_ok());
        let fault = w.check(w.max_cycles(), 2, || false, 0).unwrap_err();
        assert_eq!(fault.kind, ViolationKind::CycleBudget);
    }

    #[test]
    fn heap_budget_enforced() {
        let mut w = watchdogs(u64::MAX, 10);
        assert!(w.check(0, 1, || false, 10).is_ok());
        let fault = w.check(1, 2, || false, 11).unwrap_err();
        assert_eq!(fault.kind, ViolationKind::HeapBudget);
    }
}
