//! The instruction-side memory hierarchy: L1i → L2 → L3 → memory.
//!
//! Caches are set-associative tag arrays over 64-byte lines with true LRU.
//! In-flight fills are tracked MSHR-style so demand accesses that hit an
//! outstanding prefetch wait only for the remaining latency — the
//! mechanism by which FDIP hides I-cache misses. The MSHR lives in the L1i
//! tags themselves: each way carries the cycle its fill lands, so the
//! common case (an L1i hit) costs one set scan and no map probe.


use twig_types::{CacheLineAddr, FxHashMap};

use crate::config::{CacheGeometry, SimConfig};
use crate::integrity::{Fault, Validator, ViolationKind};

/// Where a request was satisfied (for statistics).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FillSource {
    /// Hit in L1i.
    L1i,
    /// Joined an outstanding fill (issued earlier, possibly by FDIP).
    InFlight,
    /// Filled from L2.
    L2,
    /// Filled from L3.
    L3,
    /// Filled from DRAM.
    Memory,
}

/// Result of a cache access or prefetch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessResult {
    /// Cycle at which the line's bytes are usable by fetch.
    pub ready_at: u64,
    /// Where the line came from.
    pub source: FillSource,
    /// Whether a new fill into L1i was initiated (triggers predecode hooks
    /// for Confluence-style prefetchers).
    pub filled_l1i: bool,
}

/// What one way of a [`TagArray`] holds: the tag, plus any per-line state
/// the level keeps.
trait Way: Copy + Default {
    fn tag(self) -> u64;
}

/// L2/L3 ways hold only the tag.
impl Way for u64 {
    #[inline]
    fn tag(self) -> u64 {
        self
    }
}

/// [`L1iWay::ready`] of a way with no fill tracked.
const NO_FILL: u64 = u64::MAX;

/// An L1i way: the tag plus its MSHR stamp — the cycle the line's fill
/// lands, kept from the fill until the first access at or after that
/// cycle (or [`NO_FILL`]).
#[derive(Clone, Copy, Debug)]
struct L1iWay {
    tag: u64,
    ready: u64,
}

impl Default for L1iWay {
    fn default() -> Self {
        L1iWay {
            tag: 0,
            ready: NO_FILL,
        }
    }
}

impl Way for L1iWay {
    #[inline]
    fn tag(self) -> u64 {
        self.tag
    }
}

/// One set-associative tag array (MRU-first true LRU).
///
/// Ways live in a single flat `sets × ways` slab rather than one `Vec` per
/// set: a lookup touches exactly one contiguous stripe (one or two cache
/// lines of host memory) instead of chasing a per-set heap pointer, and LRU
/// promotion is an in-place prefix rotation instead of a `remove` +
/// `insert(0)` pair shifting through a separate allocation. Only the first
/// `lens[set]` slots of each stripe are meaningful.
#[derive(Clone, Debug)]
struct TagArray<W> {
    /// `sets × ways` slots; each set's occupied prefix is MRU-first.
    slots: Box<[W]>,
    /// Occupied slot count per set.
    lens: Box<[u32]>,
    ways: usize,
    mask: u64,
    /// `log2(sets)`, precomputed: the default x86-64 target has no
    /// POPCNT, so `mask.count_ones()` per access is a software popcount.
    set_bits: u32,
}

impl<W: Way> TagArray<W> {
    fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        TagArray {
            slots: vec![W::default(); sets * geometry.ways].into_boxed_slice(),
            lens: vec![0; sets].into_boxed_slice(),
            ways: geometry.ways,
            mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
        }
    }

    #[inline]
    fn set_and_tag(&self, line: CacheLineAddr) -> (usize, u64) {
        let n = line.line_number();
        ((n & self.mask) as usize, n >> self.set_bits)
    }

    /// The line a `(set, tag)` pair names.
    #[inline]
    fn line(&self, set: usize, tag: u64) -> CacheLineAddr {
        CacheLineAddr::from_line_number((tag << self.set_bits) | set as u64)
    }

    /// The set's occupied ways, MRU first.
    #[inline]
    fn set(&self, set: usize) -> &[W] {
        &self.slots[set * self.ways..][..self.lens[set] as usize]
    }

    /// Position of `tag` in `set` (0 = MRU), without touching LRU order.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        self.set(set).iter().position(|w| w.tag() == tag)
    }

    /// Moves the way at `pos` to MRU.
    #[inline]
    fn promote(&mut self, set: usize, pos: usize) {
        self.slots[set * self.ways..][..=pos].rotate_right(1);
    }

    /// Inserts `way` (whose tag `set` must not hold) at MRU, returning the
    /// LRU way it evicts if the set was full.
    fn insert(&mut self, set: usize, way: W) -> Option<W> {
        debug_assert!(self.find(set, way.tag()).is_none(), "tag already present");
        let len = self.lens[set] as usize;
        let ways = &mut self.slots[set * self.ways..][..self.ways];
        let victim = if len < self.ways {
            self.lens[set] = (len + 1) as u32;
            None
        } else {
            Some(ways[len - 1])
        };
        ways[..len.min(self.ways - 1) + 1].rotate_right(1);
        ways[0] = way;
        victim
    }

    /// Hit check with LRU promotion.
    #[inline]
    fn access(&mut self, line: CacheLineAddr) -> bool {
        let (set, tag) = self.set_and_tag(line);
        match self.find(set, tag) {
            Some(pos) => {
                self.promote(set, pos);
                true
            }
            None => false,
        }
    }

    fn contains(&self, line: CacheLineAddr) -> bool {
        let (set, tag) = self.set_and_tag(line);
        self.find(set, tag).is_some()
    }

    /// Structural scan: per-set occupancy within associativity and no
    /// duplicate tags.
    fn check(&self, name: &str) -> Result<(), Fault> {
        self.check_window(name, 0, self.lens.len())
    }

    /// Structural scan of `count` sets starting at `start` (wrapping).
    ///
    /// Large tag arrays (L2/L3) are validated in rotating windows so a
    /// deep scan's cost is bounded regardless of cache size; the caller
    /// advances its cursor between scans for full coverage.
    fn check_window(&self, name: &str, start: usize, count: usize) -> Result<(), Fault> {
        let n = self.lens.len();
        for off in 0..count.min(n) {
            let set = (start + off) % n;
            let len = self.lens[set] as usize;
            if len > self.ways {
                return Err(Fault::new(
                    ViolationKind::IcacheAccounting,
                    format!("{name} set {set}: {len} tags exceed {} ways", self.ways),
                ));
            }
            let ways = &self.slots[set * self.ways..][..len];
            for (i, way) in ways.iter().enumerate() {
                if ways[..i].iter().any(|w| w.tag() == way.tag()) {
                    return Err(Fault::new(
                        ViolationKind::IcacheAccounting,
                        format!("{name} set {set}: duplicate tag {:#x}", way.tag()),
                    ));
                }
            }
        }
        Ok(())
    }
}

impl TagArray<u64> {
    /// Inserts a line known to be absent (L2/L3 evictions are silent in
    /// the I-side model).
    fn fill(&mut self, line: CacheLineAddr) {
        let (set, tag) = self.set_and_tag(line);
        self.insert(set, tag);
    }
}

/// Counters for the instruction-side hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemoryStats {
    /// Demand accesses (fetch).
    pub demand_accesses: u64,
    /// Demand accesses that missed L1i (including joins of in-flight fills).
    pub demand_misses: u64,
    /// Demand accesses that found an outstanding fill (FDIP success).
    pub demand_joined_inflight: u64,
    /// Prefetch requests issued.
    pub prefetches: u64,
    /// Prefetch requests that were already resident or in flight.
    pub redundant_prefetches: u64,
    /// Fills from each level.
    pub fills_l2: u64,
    /// Fills from L3.
    pub fills_l3: u64,
    /// Fills from memory.
    pub fills_memory: u64,
}

/// The L1i/L2/L3/memory hierarchy with in-flight fill tracking.
///
/// # Examples
///
/// ```
/// use twig_sim::{MemoryHierarchy, SimConfig};
/// use twig_types::{Addr, CacheLineAddr};
///
/// let mut mem = MemoryHierarchy::new(&SimConfig::default());
/// let line = CacheLineAddr::containing(Addr::new(0x40_0000));
/// let cold = mem.demand(line, 0);
/// assert!(cold.ready_at >= 200); // memory latency
/// let warm = mem.demand(line, cold.ready_at);
/// assert_eq!(warm.ready_at, cold.ready_at + 1); // L1i hit latency
/// ```
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    /// L1i tags with their MSHR stamps.
    l1i: TagArray<L1iWay>,
    l2: TagArray<u64>,
    l3: TagArray<u64>,
    /// L1i ways currently stamped.
    stamped: usize,
    /// MSHR stamps of lines evicted from L1i while still stamped, kept
    /// until the line's next access at or after its `ready` cycle (a
    /// line is never both here and in the L1i tags).
    evicted_stamps: FxHashMap<CacheLineAddr, u64>,
    stats: MemoryStats,
    l1i_latency: u64,
    l2_latency: u64,
    l3_latency: u64,
    mem_latency: u64,
    ideal: bool,
    /// Whether fill/eviction events are recorded at all. Only systems
    /// that consume [`BtbSystem::observes_line_events`] callbacks need
    /// them; for everything else the queues would be drained unread, so
    /// the simulator turns recording off.
    ///
    /// [`BtbSystem::observes_line_events`]: crate::BtbSystem::observes_line_events
    track_line_events: bool,
    /// Lines evicted from L1i since the last drain (Confluence invalidates
    /// its line-synced BTB entries from these).
    evicted_l1i: Vec<CacheLineAddr>,
    /// Lines newly filled into L1i since the last drain, with the cycle at
    /// which their bytes arrive.
    filled_l1i: Vec<(CacheLineAddr, u64)>,
    /// Rotating start set for windowed L2/L3 deep scans. Interior
    /// mutability because [`Validator::check`] takes `&self`; the cursor
    /// never influences simulation state, only which window the next
    /// deep scan validates.
    scan_cursor: std::cell::Cell<usize>,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a simulator configuration.
    pub fn new(config: &SimConfig) -> Self {
        MemoryHierarchy {
            l1i: TagArray::new(config.l1i),
            l2: TagArray::new(config.l2),
            l3: TagArray::new(config.l3),
            stamped: 0,
            evicted_stamps: FxHashMap::default(),
            stats: MemoryStats::default(),
            l1i_latency: config.l1i_latency,
            l2_latency: config.l2_latency,
            l3_latency: config.l3_latency,
            mem_latency: config.mem_latency,
            ideal: config.ideal_icache,
            track_line_events: true,
            evicted_l1i: Vec::new(),
            filled_l1i: Vec::new(),
            scan_cursor: std::cell::Cell::new(0),
        }
    }

    /// Demand access from the fetch unit.
    pub fn demand(&mut self, line: CacheLineAddr, cycle: u64) -> AccessResult {
        self.stats.demand_accesses += 1;
        if self.ideal {
            return AccessResult {
                ready_at: cycle + self.l1i_latency,
                source: FillSource::L1i,
                filled_l1i: false,
            };
        }
        let result = self.access_inner(line, cycle);
        if result.source != FillSource::L1i {
            self.stats.demand_misses += 1;
        }
        if result.source == FillSource::InFlight {
            self.stats.demand_joined_inflight += 1;
        }
        result
    }

    /// Prefetch request (FDIP or a hardware BTB prefetcher).
    pub fn prefetch(&mut self, line: CacheLineAddr, cycle: u64) -> AccessResult {
        self.stats.prefetches += 1;
        if self.ideal {
            return AccessResult {
                ready_at: cycle,
                source: FillSource::L1i,
                filled_l1i: false,
            };
        }
        // Residency (for the redundant-prefetch counter) falls out of the
        // lookups the access performs anyway; a separate contains() pass
        // would double the tag/MSHR probes on the hottest path in the
        // simulator (FDIP probes every line of every enqueued block).
        let (result, before_resident) = self.access_counted(line, cycle);
        if before_resident {
            self.stats.redundant_prefetches += 1;
        }
        result
    }

    fn access_inner(&mut self, line: CacheLineAddr, cycle: u64) -> AccessResult {
        self.access_counted(line, cycle).0
    }

    /// The shared demand/prefetch access path. The second return is
    /// whether the line was resident (L1i or in flight) before the access.
    ///
    /// A fill stamps the L1i way with its `ready` cycle; the stamp stays
    /// until the first access at or after that cycle, which clears it. An
    /// access before then joins the fill without an LRU update. A line
    /// evicted while stamped keeps its stamp in `evicted_stamps`, so an
    /// in-flight or stale stamp alone establishes residency for the
    /// caller's accounting, exactly like an MSHR entry that outlives its
    /// line's tag.
    fn access_counted(&mut self, line: CacheLineAddr, cycle: u64) -> (AccessResult, bool) {
        let (set, tag) = self.l1i.set_and_tag(line);
        if let Some(pos) = self.l1i.find(set, tag) {
            let way = &mut self.l1i.slots[set * self.l1i.ways + pos];
            if way.ready != NO_FILL {
                if way.ready > cycle {
                    return (
                        AccessResult {
                            ready_at: way.ready,
                            source: FillSource::InFlight,
                            filled_l1i: false,
                        },
                        true,
                    );
                }
                way.ready = NO_FILL;
                self.stamped -= 1;
            }
            self.l1i.promote(set, pos);
            return (
                AccessResult {
                    ready_at: cycle + self.l1i_latency,
                    source: FillSource::L1i,
                    filled_l1i: false,
                },
                true,
            );
        }
        let mut resident = false;
        if let Some(&ready) = self.evicted_stamps.get(&line) {
            resident = true;
            if ready > cycle {
                return (
                    AccessResult {
                        ready_at: ready,
                        source: FillSource::InFlight,
                        filled_l1i: false,
                    },
                    resident,
                );
            }
            self.evicted_stamps.remove(&line);
        }
        // Miss: find the line downstream, fill upward.
        let (latency, source) = if self.l2.access(line) {
            self.stats.fills_l2 += 1;
            (self.l2_latency, FillSource::L2)
        } else if self.l3.access(line) {
            self.stats.fills_l3 += 1;
            self.l2.fill(line);
            (self.l3_latency, FillSource::L3)
        } else {
            self.stats.fills_memory += 1;
            self.l3.fill(line);
            self.l2.fill(line);
            (self.mem_latency, FillSource::Memory)
        };
        let ready = cycle + latency;
        let victim = self.l1i.insert(set, L1iWay { tag, ready });
        self.stamped += 1;
        if let Some(victim) = victim {
            let victim_line = self.l1i.line(set, victim.tag);
            if victim.ready != NO_FILL {
                self.stamped -= 1;
                self.evicted_stamps.insert(victim_line, victim.ready);
            }
            if self.track_line_events {
                self.evicted_l1i.push(victim_line);
            }
        }
        if self.track_line_events {
            self.filled_l1i.push((line, ready));
        }
        (
            AccessResult {
                ready_at: ready,
                source,
                filled_l1i: true,
            },
            resident,
        )
    }

    /// Whether `line` is resident in L1i (possibly still in flight).
    pub fn l1i_contains(&self, line: CacheLineAddr) -> bool {
        self.ideal || self.l1i.contains(line)
    }

    /// Enables or disables fill/eviction event recording (on by default).
    /// The simulator disables it when the attached system does not
    /// consume the callbacks.
    pub fn set_line_event_tracking(&mut self, on: bool) {
        self.track_line_events = on;
    }

    /// Moves the lines evicted from L1i since the last drain into `out`
    /// (cleared first). The two buffers swap, so once both have grown
    /// neither side allocates again.
    pub fn drain_evicted_l1i(&mut self, out: &mut Vec<CacheLineAddr>) {
        out.clear();
        std::mem::swap(out, &mut self.evicted_l1i);
    }

    /// Moves the lines filled into L1i since the last drain into `out`
    /// (cleared first), each with the cycle its bytes arrive (predecode
    /// cannot start earlier). Swaps buffers like
    /// [`Self::drain_evicted_l1i`].
    pub fn drain_filled_l1i(&mut self, out: &mut Vec<(CacheLineAddr, u64)>) {
        out.clear();
        std::mem::swap(out, &mut self.filled_l1i);
    }

    /// Access statistics so far.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Number of fills the MSHR tracks: stamped L1i ways plus the stamps
    /// of evicted lines. Removal is lazy (a completed fill's stamp is
    /// dropped on its next access), so this is an upper bound on truly
    /// outstanding fills.
    pub fn inflight_len(&self) -> usize {
        self.stamped + self.evicted_stamps.len()
    }

    /// The ready cycles of every stamped L1i way.
    fn l1i_stamps(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.l1i.lens.len())
            .flat_map(move |set| self.l1i.set(set).iter().map(|way| way.ready))
            .filter(|&ready| ready != NO_FILL)
    }

    /// Whether any fill is still genuinely outstanding at `cycle`
    /// (feeds the livelock watchdog: no retirement *and* no pending fill
    /// means the simulation can never make progress again).
    pub fn has_outstanding_fill(&self, cycle: u64) -> bool {
        self.l1i_stamps()
            .chain(self.evicted_stamps.values().copied())
            .any(|ready| ready > cycle)
    }
}

impl Validator for MemoryHierarchy {
    fn component(&self) -> &'static str {
        "icache"
    }

    fn check(&self, deep: bool) -> Result<(), Fault> {
        // MSHR / statistics accounting: joins are a subset of misses, which
        // are a subset of accesses; redundant prefetches never exceed
        // prefetches; fills are bounded by the misses that caused them.
        let s = &self.stats;
        if s.demand_joined_inflight > s.demand_misses || s.demand_misses > s.demand_accesses {
            return Err(Fault::new(
                ViolationKind::IcacheAccounting,
                format!(
                    "demand counters inconsistent: joined {} / misses {} / accesses {}",
                    s.demand_joined_inflight, s.demand_misses, s.demand_accesses
                ),
            ));
        }
        if s.redundant_prefetches > s.prefetches {
            return Err(Fault::new(
                ViolationKind::IcacheAccounting,
                format!(
                    "redundant prefetches {} exceed prefetches {}",
                    s.redundant_prefetches, s.prefetches
                ),
            ));
        }
        let fills = s.fills_l2 + s.fills_l3 + s.fills_memory;
        if fills > s.demand_accesses + s.prefetches {
            return Err(Fault::new(
                ViolationKind::IcacheAccounting,
                format!(
                    "{} fills exceed {} total requests",
                    fills,
                    s.demand_accesses + s.prefetches
                ),
            ));
        }
        if deep {
            // L1i is small — scan it whole. L2/L3 tag stores are large
            // enough that a full walk would dominate the deep scan, so
            // they are validated in rotating windows: bounded cost per
            // scan, full coverage every few deep periods.
            const DEEP_SCAN_SETS: usize = 256;
            self.l1i.check("l1i")?;
            let stamped = self.l1i_stamps().count();
            if stamped != self.stamped {
                return Err(Fault::new(
                    ViolationKind::IcacheAccounting,
                    format!("{stamped} stamped l1i ways, counter says {}", self.stamped),
                ));
            }
            let cursor = self.scan_cursor.get();
            self.l2.check_window("l2", cursor, DEEP_SCAN_SETS)?;
            self.l3.check_window("l3", cursor, DEEP_SCAN_SETS)?;
            self.scan_cursor.set(cursor.wrapping_add(DEEP_SCAN_SETS));
        }
        Ok(())
    }

    fn snapshot(&self) -> String {
        format!(
            "icache stats {:?}, {} in-flight fills, {} pending fill events, \
             {} pending eviction events",
            self.stats,
            self.inflight_len(),
            self.filled_l1i.len(),
            self.evicted_l1i.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_types::Addr;

    fn line(v: u64) -> CacheLineAddr {
        CacheLineAddr::containing(Addr::new(v))
    }

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(&SimConfig::default())
    }

    #[test]
    fn cold_miss_pays_memory_latency() {
        let mut m = mem();
        let r = m.demand(line(0x40_0000), 100);
        assert_eq!(r.source, FillSource::Memory);
        assert_eq!(r.ready_at, 300);
        assert!(r.filled_l1i);
    }

    #[test]
    fn second_access_hits_l1i_after_fill() {
        let mut m = mem();
        let r = m.demand(line(0x1000), 0);
        let r2 = m.demand(line(0x1000), r.ready_at + 1);
        assert_eq!(r2.source, FillSource::L1i);
        assert_eq!(r2.ready_at, r.ready_at + 2);
    }

    #[test]
    fn early_second_access_joins_inflight() {
        let mut m = mem();
        let r = m.demand(line(0x1000), 0);
        let r2 = m.demand(line(0x1000), 10);
        assert_eq!(r2.source, FillSource::InFlight);
        assert_eq!(r2.ready_at, r.ready_at);
        assert_eq!(m.stats().demand_joined_inflight, 1);
    }

    #[test]
    fn prefetch_hides_latency_for_demand() {
        let mut m = mem();
        m.prefetch(line(0x2000), 0);
        // Demand arrives after the fill completed: full hit.
        let r = m.demand(line(0x2000), 500);
        assert_eq!(r.source, FillSource::L1i);
        assert_eq!(r.ready_at, 501);
    }

    #[test]
    fn l1i_eviction_falls_back_to_l2() {
        let mut m = mem();
        let config = SimConfig::default();
        let sets = config.l1i.sets() as u64;
        // Fill one L1i set beyond capacity: lines mapping to set 0.
        let ways = config.l1i.ways as u64;
        let mut t = 0u64;
        for i in 0..(ways + 2) {
            let r = m.demand(line(i * sets * 64), t);
            t = r.ready_at + 1;
        }
        // First line was evicted from L1i but lives in L2 now.
        let r = m.demand(line(0), t);
        assert_eq!(r.source, FillSource::L2);
        assert_eq!(r.ready_at, t + config.l2_latency);
        let mut evicted = Vec::new();
        m.drain_evicted_l1i(&mut evicted);
        assert!(!evicted.is_empty());
    }

    #[test]
    fn ideal_icache_always_ready() {
        let config = SimConfig {
            ideal_icache: true,
            ..SimConfig::default()
        };
        let mut m = MemoryHierarchy::new(&config);
        let r = m.demand(line(0x0999_9000), 42);
        assert_eq!(r.ready_at, 43);
        assert_eq!(m.stats().demand_misses, 0);
    }

    #[test]
    fn redundant_prefetch_is_counted() {
        let mut m = mem();
        m.prefetch(line(0x3000), 0);
        m.prefetch(line(0x3000), 1);
        assert_eq!(m.stats().prefetches, 2);
        assert_eq!(m.stats().redundant_prefetches, 1);
    }

    #[test]
    fn filled_lines_are_reported() {
        let mut m = mem();
        m.demand(line(0x1000), 0);
        m.prefetch(line(0x2000), 0);
        let mut filled = Vec::new();
        m.drain_filled_l1i(&mut filled);
        assert_eq!(filled.len(), 2);
        assert!(filled.iter().all(|&(_, ready)| ready > 0));
        // A second drain reuses the caller's buffer and finds nothing new.
        let reused = filled.as_ptr();
        m.prefetch(line(0x2000), 1);
        m.drain_filled_l1i(&mut filled);
        assert!(filled.is_empty());
        m.prefetch(line(0x4000), 2);
        m.drain_filled_l1i(&mut filled);
        assert_eq!(filled.len(), 1);
        assert_eq!(filled.as_ptr(), reused, "drains swap buffers, never reallocate");
    }

    /// The MSHR as a map beside the tag arrays: every fill inserts
    /// `line -> ready`, and the first access at or after `ready` removes
    /// it. Sets are MRU-first `Vec`s. This is the behaviour the stamped
    /// L1i ways must reproduce.
    struct Reference {
        levels: [(Vec<Vec<u64>>, usize); 3],
        inflight: FxHashMap<CacheLineAddr, u64>,
        stats: MemoryStats,
        latencies: [u64; 4],
        evicted: Vec<CacheLineAddr>,
        filled: Vec<(CacheLineAddr, u64)>,
    }

    impl Reference {
        fn new(config: &SimConfig) -> Self {
            let level = |g: CacheGeometry| (vec![Vec::new(); g.sets()], g.ways);
            Reference {
                levels: [level(config.l1i), level(config.l2), level(config.l3)],
                inflight: FxHashMap::default(),
                stats: MemoryStats::default(),
                latencies: [
                    config.l1i_latency,
                    config.l2_latency,
                    config.l3_latency,
                    config.mem_latency,
                ],
                evicted: Vec::new(),
                filled: Vec::new(),
            }
        }

        /// Hit check with LRU promotion in level `l`.
        fn hit(&mut self, l: usize, line: CacheLineAddr) -> bool {
            let (sets, _) = &mut self.levels[l];
            let n = line.line_number();
            let index = (n % sets.len() as u64) as usize;
            let set = &mut sets[index];
            match set.iter().position(|&x| x == n) {
                Some(pos) => {
                    let x = set.remove(pos);
                    set.insert(0, x);
                    true
                }
                None => false,
            }
        }

        fn fill(&mut self, l: usize, line: CacheLineAddr) -> Option<CacheLineAddr> {
            let (sets, ways) = &mut self.levels[l];
            let n = line.line_number();
            let index = (n % sets.len() as u64) as usize;
            let set = &mut sets[index];
            set.insert(0, n);
            (set.len() > *ways).then(|| CacheLineAddr::from_line_number(set.pop().unwrap()))
        }

        fn access(&mut self, line: CacheLineAddr, cycle: u64, demand: bool) -> AccessResult {
            if demand {
                self.stats.demand_accesses += 1;
            } else {
                self.stats.prefetches += 1;
            }
            let result = self.resolve(line, cycle, demand);
            if demand && result.source != FillSource::L1i {
                self.stats.demand_misses += 1;
            }
            if demand && result.source == FillSource::InFlight {
                self.stats.demand_joined_inflight += 1;
            }
            result
        }

        fn resolve(&mut self, line: CacheLineAddr, cycle: u64, demand: bool) -> AccessResult {
            let mut resident = false;
            if let Some(&ready) = self.inflight.get(&line) {
                resident = true;
                if ready > cycle {
                    if !demand {
                        self.stats.redundant_prefetches += 1;
                    }
                    return AccessResult {
                        ready_at: ready,
                        source: FillSource::InFlight,
                        filled_l1i: false,
                    };
                }
                self.inflight.remove(&line);
            }
            if self.hit(0, line) {
                if !demand {
                    self.stats.redundant_prefetches += 1;
                }
                return AccessResult {
                    ready_at: cycle + self.latencies[0],
                    source: FillSource::L1i,
                    filled_l1i: false,
                };
            }
            if resident && !demand {
                self.stats.redundant_prefetches += 1;
            }
            let (latency, source) = if self.hit(1, line) {
                self.stats.fills_l2 += 1;
                (self.latencies[1], FillSource::L2)
            } else if self.hit(2, line) {
                self.stats.fills_l3 += 1;
                self.fill(1, line);
                (self.latencies[2], FillSource::L3)
            } else {
                self.stats.fills_memory += 1;
                self.fill(2, line);
                self.fill(1, line);
                (self.latencies[3], FillSource::Memory)
            };
            let ready = cycle + latency;
            if let Some(victim) = self.fill(0, line) {
                self.evicted.push(victim);
            }
            self.filled.push((line, ready));
            self.inflight.insert(line, ready);
            AccessResult {
                ready_at: ready,
                source,
                filled_l1i: true,
            }
        }
    }

    /// Random prefetch/demand streams through a 2-set, 2-way L1i evict
    /// lines while their fills are in flight; the stamped L1i must agree
    /// with the map-based [`Reference`] on every result, counter, MSHR
    /// occupancy and fill/eviction event, step by step.
    #[test]
    fn stamped_l1i_matches_a_map_based_mshr() {
        let config = SimConfig {
            l1i: CacheGeometry::new(256, 2),
            l2: CacheGeometry::new(512, 2),
            l3: CacheGeometry::new(1024, 2),
            ..SimConfig::default()
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for round in 0..20 {
            let mut fast = MemoryHierarchy::new(&config);
            let mut reference = Reference::new(&config);
            let lines = 6 + round;
            let mut cycle = 0u64;
            let (mut filled, mut evicted) = (Vec::new(), Vec::new());
            let mut evicted_while_stamped = false;
            for step in 0..3_000 {
                cycle += next(40);
                let line = CacheLineAddr::from_line_number(0x4000 + next(lines));
                let demand = next(3) == 0;
                let got = if demand {
                    fast.demand(line, cycle)
                } else {
                    fast.prefetch(line, cycle)
                };
                let want = reference.access(line, cycle, demand);
                let at = format!("round {round} step {step}: {line:?} at {cycle}");
                assert_eq!(got, want, "{at}");
                assert_eq!(fast.stats(), &reference.stats, "{at}");
                assert_eq!(fast.inflight_len(), reference.inflight.len(), "{at}");
                for probe in [cycle, cycle + 20, cycle + 250] {
                    let outstanding = reference.inflight.values().any(|&r| r > probe);
                    assert_eq!(fast.has_outstanding_fill(probe), outstanding, "{at}");
                }
                fast.drain_filled_l1i(&mut filled);
                fast.drain_evicted_l1i(&mut evicted);
                assert_eq!(filled, std::mem::take(&mut reference.filled), "{at}");
                assert_eq!(evicted, std::mem::take(&mut reference.evicted), "{at}");
                assert!(fast.check(true).is_ok(), "{at}");
                evicted_while_stamped |= !fast.evicted_stamps.is_empty();
            }
            assert!(fast.stats().demand_joined_inflight > 0, "round {round} joined no fill");
            assert!(evicted_while_stamped, "round {round} evicted no stamped line");
        }
    }
}
