//! Confluence (Kaynak et al., MICRO 2015): unified instruction-supply
//! prefetching via a line-synchronized BTB (AirBTB) plus SHIFT-style
//! temporal streaming.
//!
//! Confluence's insight is that I-cache and BTB prefetching need the same
//! metadata. Its AirBTB keeps BTB content synchronized with L1i content at
//! cache-line granularity: when a line is filled (demand or prefetch), the
//! branches in the line are predecoded into the AirBTB; when the line is
//! evicted, its entries are invalidated. A SHIFT temporal prefetcher over
//! the L1i miss stream supplies both structures.
//!
//! The original design assumed a fixed 4-byte instruction size; like the
//! paper (§2.3), this implementation handles variable-length instructions by
//! predecoding from the program image (the hardware analogue carries
//! boundary metadata with each line).


use twig_sim::{
    BtbSystem, Fault, FrontendCtx, LookupOutcome, PrefetchBufferStats, SimConfig, Validator,
    ViolationKind,
};
use twig_types::{Addr, BlockId, BranchKind, BranchRecord, CacheLineAddr, FxHashMap};
use twig_workload::LineIndex;

use crate::stream::StreamTable;

/// One AirBTB entry.
#[derive(Clone, Copy, Debug)]
struct AirEntry {
    target: Addr,
    kind: BranchKind,
    /// Entry usable once its line's fill completes (predecode latency).
    ready_at: u64,
    /// Whether the entry was installed by a *prefetch* fill (for accuracy
    /// accounting) and not yet used.
    prefetched_unused: bool,
}

/// The Confluence BTB organization.
///
/// # Examples
///
/// ```
/// use twig_prefetchers::Confluence;
/// use twig_sim::{BtbSystem, SimConfig};
///
/// let confluence = Confluence::new(&SimConfig::default());
/// assert_eq!(confluence.name(), "confluence");
/// ```
#[derive(Debug)]
pub struct Confluence {
    /// Branch entries, grouped by the line their branch PC lives in —
    /// exactly the lines currently resident in L1i.
    lines: FxHashMap<CacheLineAddr, Vec<(Addr, AirEntry)>>,
    streams: StreamTable,
    stats: PrefetchBufferStats,
    /// Lines currently being filled by a stream prefetch (so their
    /// predecoded entries count as prefetched).
    inflight_prefetches: FxHashMap<CacheLineAddr, u64>,
    /// The simulated binary's line index, built on the first predecode.
    line_index: Option<LineIndex>,
    /// Emptied entry lists of evicted or re-predecoded lines, reused so a
    /// predecode does not allocate.
    spare: Vec<Vec<(Addr, AirEntry)>>,
}

impl Confluence {
    /// Builds Confluence with SHIFT-default stream-table sizing.
    pub fn new(_config: &SimConfig) -> Self {
        Confluence {
            lines: FxHashMap::default(),
            streams: StreamTable::with_defaults(),
            stats: PrefetchBufferStats::default(),
            inflight_prefetches: FxHashMap::default(),
            line_index: None,
            spare: Vec::new(),
        }
    }

    /// Number of lines with resident BTB entries.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }

    fn predecode_line(
        &mut self,
        line: CacheLineAddr,
        ready_at: u64,
        from_prefetch: bool,
        ctx: &mut FrontendCtx<'_>,
    ) {
        let mut entries = self.spare.pop().unwrap_or_default();
        let index = self.line_index.get_or_insert_with(|| LineIndex::new(ctx.program));
        for branch in index.branches_in_line(ctx.program, line) {
            // Indirect branches get their most recent target from the IBTB
            // in the frontend; the AirBTB still identifies them. Direct
            // branches carry their decoded target.
            entries.push((
                branch.pc,
                AirEntry {
                    target: branch.target.unwrap_or(Addr::ZERO),
                    kind: branch.kind,
                    ready_at,
                    prefetched_unused: from_prefetch,
                },
            ));
            if from_prefetch {
                self.stats.inserted += 1;
            }
        }
        if entries.is_empty() {
            self.spare.push(entries);
        } else if let Some(mut old) = self.lines.insert(line, entries) {
            old.clear();
            self.spare.push(old);
        }
    }
}

impl BtbSystem for Confluence {
    fn name(&self) -> &str {
        "confluence"
    }

    // Predecode keeps the line-synced BTB coherent with L1i contents, so
    // fill/eviction events must be recorded for this system.
    fn observes_line_events(&self) -> bool {
        true
    }

    fn lookup(&mut self, pc: Addr, ctx: &mut FrontendCtx<'_>) -> LookupOutcome {
        let line = pc.line();
        let Some(entries) = self.lines.get_mut(&line) else {
            return LookupOutcome::Miss;
        };
        let Some((_, entry)) = entries.iter_mut().find(|(p, _)| *p == pc) else {
            return LookupOutcome::Miss;
        };
        if entry.ready_at > ctx.cycle {
            return LookupOutcome::Miss;
        }
        let covered = entry.prefetched_unused;
        if covered {
            entry.prefetched_unused = false;
            self.stats.used += 1;
        }
        let (target, kind) = (entry.target, entry.kind);
        if covered {
            LookupOutcome::CoveredMiss { target, kind }
        } else {
            LookupOutcome::Hit { target, kind }
        }
    }

    fn resolve_taken(&mut self, rec: &BranchRecord, _block: BlockId, ctx: &mut FrontendCtx<'_>) {
        // The AirBTB is filled by predecode, not by resolution; but a
        // resolved branch whose line is resident (e.g. filled before this
        // system was attached, or an indirect needing a target) refreshes
        // its entry.
        let line = rec.pc.line();
        if let Some(entries) = self.lines.get_mut(&line) {
            if let Some((_, entry)) = entries.iter_mut().find(|(p, _)| *p == rec.pc) {
                if let Some(target) = rec.outcome.target() {
                    entry.target = target;
                }
                return;
            }
        }
        // Line not resident: predecode it now (the fetch of this branch is
        // bringing the line in anyway).
        let ready = ctx.cycle;
        self.predecode_line(line, ready, false, ctx);
    }

    fn line_filled(&mut self, line: CacheLineAddr, ready_at: u64, ctx: &mut FrontendCtx<'_>) {
        let from_prefetch = self.inflight_prefetches.remove(&line).is_some();
        // Predecode begins when the bytes arrive, one cycle after that the
        // entries are usable. This is the runahead limitation the paper
        // calls out: the AirBTB cannot identify branches in lines the
        // frontend has not yet received.
        self.predecode_line(line, ready_at + 1, from_prefetch, ctx);
    }

    fn line_evicted(&mut self, line: CacheLineAddr, _ctx: &mut FrontendCtx<'_>) {
        if let Some(mut entries) = self.lines.remove(&line) {
            for (_, e) in entries.drain(..) {
                if e.prefetched_unused {
                    self.stats.evicted_unused += 1;
                }
            }
            self.spare.push(entries);
        }
    }

    fn line_demand_miss(&mut self, line: CacheLineAddr, ctx: &mut FrontendCtx<'_>) {
        // SHIFT trigger: replay the recorded stream after this miss.
        let replay = self.streams.record_and_lookup(line);
        for next in replay {
            if ctx.mem.l1i_contains(next) {
                continue;
            }
            let fill = ctx.mem.prefetch(next, ctx.cycle);
            self.inflight_prefetches.insert(next, fill.ready_at);
        }
    }

    fn prefetch_stats(&self) -> PrefetchBufferStats {
        self.stats
    }

    fn validators(&self) -> Vec<&dyn Validator> {
        vec![self]
    }

    fn register_metrics(&self, registry: &mut twig_sim::MetricsRegistry) {
        registry.set_by_name("system.confluence.resident_lines", self.lines.len() as u64);
        registry.set_by_name(
            "system.confluence.resident_entries",
            self.lines.values().map(Vec::len).sum::<usize>() as u64,
        );
        registry.set_by_name("system.confluence.stream_history", self.streams.len() as u64);
    }
}

/// Integrity checks for the line-synchronized AirBTB.
///
/// Exact insert/use/evict conservation does not hold here: `resolve_taken`
/// may re-predecode a resident line (dropping its unused-prefetch flags),
/// so the cheap check uses the one-sided bound each entry guarantees —
/// an entry is counted used or evicted-unused at most once per insertion.
impl Validator for Confluence {
    fn component(&self) -> &'static str {
        "airbtb"
    }

    fn check(&self, deep: bool) -> Result<(), Fault> {
        let s = &self.stats;
        if s.used + s.evicted_unused > s.inserted {
            return Err(Fault::new(
                ViolationKind::PrefetchBuffer,
                format!(
                    "airbtb accounting: used {} + evicted-unused {} exceeds inserted {}",
                    s.used, s.evicted_unused, s.inserted
                ),
            ));
        }
        if deep {
            for (line, entries) in &self.lines {
                for (i, (pc, _)) in entries.iter().enumerate() {
                    if pc.line() != *line {
                        return Err(Fault::new(
                            ViolationKind::PrefetchBuffer,
                            format!("airbtb entry at {pc:?} filed under wrong line {line:?}"),
                        ));
                    }
                    if entries[..i].iter().any(|(p, _)| p == pc) {
                        return Err(Fault::new(
                            ViolationKind::PrefetchBuffer,
                            format!("airbtb line {line:?} holds duplicate entry for {pc:?}"),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn snapshot(&self) -> String {
        format!(
            "airbtb: {} resident lines, {} entries, stats {:?}",
            self.lines.len(),
            self.lines.values().map(Vec::len).sum::<usize>(),
            self.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_sim::MemoryHierarchy;
    use twig_workload::{Program, ProgramGenerator, WorkloadSpec};

    fn setup() -> (Program, SimConfig, MemoryHierarchy) {
        let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        let config = SimConfig::default();
        let mem = MemoryHierarchy::new(&config);
        (program, config, mem)
    }

    fn a_branch_line(program: &Program) -> (CacheLineAddr, Addr) {
        let (id, block) = program
            .blocks()
            .find(|(_, b)| {
                b.branch_kind()
                    .is_some_and(|k| k.is_direct())
            })
            .unwrap();
        let _ = id;
        (block.branch_pc().line(), block.branch_pc())
    }

    #[test]
    fn fill_predecodes_and_eviction_invalidates() {
        let (program, config, mut mem) = setup();
        let mut c = Confluence::new(&config);
        let (line, pc) = a_branch_line(&program);
        let mut ctx = FrontendCtx {
            cycle: 0,
            program: &program,
            mem: &mut mem,
        };
        assert_eq!(c.lookup(pc, &mut ctx), LookupOutcome::Miss);
        c.line_filled(line, 5, &mut ctx);
        ctx.cycle = 10;
        assert!(matches!(c.lookup(pc, &mut ctx), LookupOutcome::Hit { .. }));
        c.line_evicted(line, &mut ctx);
        assert_eq!(c.lookup(pc, &mut ctx), LookupOutcome::Miss);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn prefetched_fill_counts_as_covered_once() {
        let (program, config, mut mem) = setup();
        let mut c = Confluence::new(&config);
        let (line, pc) = a_branch_line(&program);
        // Teach the stream table: miss A (trigger), then miss `line`.
        let trigger = CacheLineAddr::from_line_number(line.line_number() + 1000);
        {
            let mut ctx = FrontendCtx {
                cycle: 0,
                program: &program,
                mem: &mut mem,
            };
            c.line_demand_miss(trigger, &mut ctx);
            c.line_demand_miss(line, &mut ctx);
        }
        // The stream recurs: the trigger miss replays `line` as a prefetch.
        {
            let mut ctx = FrontendCtx {
                cycle: 100_000,
                program: &program,
                mem: &mut mem,
            };
            c.line_demand_miss(trigger, &mut ctx);
            assert!(c.inflight_prefetches.contains_key(&line));
            c.line_filled(line, ctx.cycle + 40, &mut ctx);
        }
        {
            let mut ctx = FrontendCtx {
                cycle: 200_000,
                program: &program,
                mem: &mut mem,
            };
            assert!(matches!(
                c.lookup(pc, &mut ctx),
                LookupOutcome::CoveredMiss { .. }
            ));
            // Second use: plain hit, counted used exactly once.
            assert!(matches!(c.lookup(pc, &mut ctx), LookupOutcome::Hit { .. }));
            assert_eq!(c.prefetch_stats().used, 1);
        }
    }

    #[test]
    fn entries_not_ready_do_not_hit() {
        let (program, config, mut mem) = setup();
        let mut c = Confluence::new(&config);
        let (line, pc) = a_branch_line(&program);
        let mut ctx = FrontendCtx {
            cycle: 50,
            program: &program,
            mem: &mut mem,
        };
        c.line_filled(line, 51, &mut ctx);
        // Bytes arrive at 51, predecode completes at 52: a lookup in the
        // fill cycle misses.
        assert_eq!(c.lookup(pc, &mut ctx), LookupOutcome::Miss);
        ctx.cycle = 52;
        assert!(c.lookup(pc, &mut ctx).is_hit());
    }

    #[test]
    fn unused_prefetches_count_on_eviction() {
        let (program, config, mut mem) = setup();
        let mut c = Confluence::new(&config);
        let (line, _pc) = a_branch_line(&program);
        let trigger = CacheLineAddr::from_line_number(line.line_number() + 500);
        let mut ctx = FrontendCtx {
            cycle: 0,
            program: &program,
            mem: &mut mem,
        };
        c.line_demand_miss(trigger, &mut ctx);
        c.line_demand_miss(line, &mut ctx);
        ctx.cycle = 1000;
        c.line_demand_miss(trigger, &mut ctx);
        c.line_filled(line, ctx.cycle + 40, &mut ctx);
        let inserted = c.prefetch_stats().inserted;
        assert!(inserted > 0);
        c.line_evicted(line, &mut ctx);
        assert_eq!(c.prefetch_stats().evicted_unused, inserted);
    }
}
