//! Process-wide artifact cache for the experiment harness.
//!
//! Program generation, walker traces, LBR profiles, and the per-app
//! prepare phase (profile → analyze → rewrite → working sets) are pure
//! functions of `(AppId, input, instruction budget)` (plus the simulator
//! config for profiles), yet the seed harness regenerated them in every
//! figure that needed them — the dominant cost of `experiments all`. This
//! cache memoizes each artifact behind an `Arc` so every figure shares one
//! copy and each key is computed exactly once per process, even when many
//! scheduler workers request it concurrently.
//!
//! Exactly-once initialization uses a per-key `Arc<OnceLock<Entry>>`: the
//! map lock is held only long enough to fetch/create the slot, then
//! `OnceLock::get_or_init` serializes the (expensive) computation outside
//! the map lock, so unrelated keys never contend.
//!
//! Traces are stored as unread [`AnySource`]s and handed out as clones,
//! each with its own cursor. A budget up to [`SPILL_INSTRUCTIONS`] is
//! walked into memory; a longer one is streamed into a `.twgc` file that
//! is mapped and unlinked at once, so it leaves nothing on disk; if that
//! spill fails, the cache keeps the live walk, which regenerates the
//! trace on every pass in bounded memory.
//!
//! Integrity: every stored entry carries a content fingerprint (sampled
//! FNV-1a over the artifact's shape and data). Hits re-verify the
//! fingerprint; a mismatch — a poisoned or corrupted entry, in practice
//! only producible via the `corrupt-cache` fault injection — evicts the
//! entry and recomputes it rather than silently serving bad data.
//! Evictions are counted, and the exactly-once property asserted at the
//! end of every `experiments` run becomes `misses == entries + evictions`.

use std::collections::HashMap;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use twig::TwigOptimizer;
use twig_profile::Profile;
use twig_serde::Serialize;
use twig_sim::{IntegrityLevel, SimConfig, SimStats};
use twig_workload::{
    AnySource, AppId, ColumnarReader, ColumnarSource, InputConfig, MemSource, Walker,
    WalkerSource,
};

use crate::runner::{AppSetup, PreparedApp};

/// Mixes one word into an FNV-1a style accumulator.
#[inline]
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn mix_str(state: u64, s: &str) -> u64 {
    s.bytes().fold(state, |acc, b| mix(acc, u64::from(b)))
}

/// Cheap content fingerprint used for cache-integrity verification on
/// every hit. Implementations sample rather than hash exhaustively (a
/// trace hit must stay O(1)-ish), but always cover the artifact's shape
/// (lengths, counts) plus strided data words — enough to catch any
/// realistic poisoning, including the injected kind.
pub trait Fingerprint {
    /// The entry's fingerprint.
    fn fingerprint(&self) -> u64;
}

impl Fingerprint for Arc<AppSetup> {
    fn fingerprint(&self) -> u64 {
        let mut h = mix_str(FNV_OFFSET, self.app.name());
        h = mix(h, self.program.num_blocks() as u64);
        h
    }
}

impl Fingerprint for AnySource {
    fn fingerprint(&self) -> u64 {
        match self {
            AnySource::Mem(source) => {
                let events = source.as_slice();
                let mut h = mix(FNV_OFFSET, events.len() as u64);
                let stride = (events.len() / 64).max(1);
                for ev in events.iter().step_by(stride) {
                    h = mix(h, u64::from(ev.block.raw()));
                    h = mix(h, u64::from(ev.taken));
                    h = mix(h, ev.target.map_or(u64::MAX, |t| u64::from(t.raw())));
                }
                h
            }
            // The per-chunk CRCs, checked on decode, already cover a
            // spilled trace's data; the fingerprint covers the directory
            // shape (counts and offsets), which is what a poisoned cache
            // entry would perturb.
            AnySource::Columnar(source) => {
                let reader = source.reader();
                let mut h = mix(FNV_OFFSET, reader.total_events());
                for s in reader.summaries() {
                    h = mix(h, s.offset);
                    h = mix(h, u64::from(s.events));
                    h = mix(h, u64::from(s.taken));
                    h = mix(h, u64::from(s.targets));
                }
                h
            }
            // A live walk holds no data, only what regenerates it.
            AnySource::Walker(source) => {
                let h = mix(FNV_OFFSET, source.instruction_budget());
                mix(h, source.program().num_blocks() as u64)
            }
        }
    }
}

impl Fingerprint for Arc<Profile> {
    fn fingerprint(&self) -> u64 {
        let mut h = mix(FNV_OFFSET, self.samples().len() as u64);
        h = mix(h, self.block_executions.len() as u64);
        h = mix(h, self.instructions);
        h = mix(h, u64::from(self.sample_period));
        let stride = (self.samples().len() / 64).max(1);
        for s in self.samples().iter().step_by(stride) {
            h = mix(h, u64::from(s.branch_block.raw()));
            h = mix(h, s.cycle);
        }
        h
    }
}

impl Fingerprint for Arc<SimStats> {
    fn fingerprint(&self) -> u64 {
        let mut h = mix(FNV_OFFSET, self.cycles);
        h = mix(h, self.retired_instructions);
        h = mix(h, self.retired_prefetch_ops);
        h = mix(h, self.topdown.retiring);
        h = mix(h, self.topdown.frontend_bound);
        h = mix(h, self.topdown.bad_speculation);
        h = mix(h, self.topdown.backend_bound);
        for i in 0..6 {
            h = mix(h, self.btb_accesses[i]);
            h = mix(h, self.btb_misses[i]);
            h = mix(h, self.covered_misses[i]);
        }
        h = mix(h, self.icache_demand_misses);
        h
    }
}

impl Fingerprint for Arc<PreparedApp> {
    fn fingerprint(&self) -> u64 {
        let mut h = mix(FNV_OFFSET, self.events.fingerprint());
        h = mix(h, self.working_set_bytes);
        h = mix(h, self.working_set_bytes_twig);
        h = mix(h, self.optimized.rewrite.brprefetch_ops);
        h = mix(h, self.optimized.rewrite.text_bytes_after);
        h = mix(h, self.optimized_sw.rewrite.brprefetch_ops);
        h
    }
}

/// One stored value plus the fingerprint recorded at store time.
struct Entry<V> {
    value: V,
    fingerprint: u64,
    /// Logical timestamp of the last hit (for capacity eviction).
    last_used: AtomicU64,
}

/// One memoized key space with hit/miss/eviction accounting.
struct Shard<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<Entry<V>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Maximum resident entries; least-recently-used entries beyond this
    /// are evicted (and transparently recomputed on a later request).
    /// `None` means unbounded. Bound the shards whose values are large —
    /// profiles run tens of megabytes each, and a sweep retires one per
    /// configuration point, so an unbounded shard grows the heap by
    /// gigabytes over a full figure run and the allocator never gets to
    /// reuse a page.
    capacity: Option<usize>,
    clock: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone + Fingerprint> Shard<K, V> {
    fn new() -> Self {
        Self::with_capacity(None)
    }

    fn with_capacity(capacity: Option<usize>) -> Self {
        Shard {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity,
            clock: AtomicU64::new(0),
        }
    }

    /// Evicts initialized least-recently-used entries until the shard is
    /// back under its capacity. In-flight computations (uninitialized
    /// slots) are never touched.
    fn enforce_capacity(&self) {
        let Some(cap) = self.capacity else { return };
        let mut map = self.lock_map();
        while map.values().filter(|slot| slot.get().is_some()).count() > cap {
            let victim = map
                .iter()
                .filter_map(|(k, slot)| {
                    slot.get()
                        .map(|e| (k.clone(), e.last_used.load(Ordering::Relaxed)))
                })
                .min_by_key(|&(_, used)| used)
                .map(|(k, _)| k);
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    fn lock_map(&self) -> std::sync::MutexGuard<'_, HashMap<K, Arc<OnceLock<Entry<V>>>>> {
        self.map.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Fetches (or computes exactly once) the value for `key`, verifying
    /// the stored fingerprint on every hit. A mismatched entry is evicted
    /// and recomputed. `label` is what `corrupt-cache` fault selectors
    /// match; the injected corruption lands on the *stored* fingerprint,
    /// so the value served by the computing call itself is still good and
    /// the poisoning is discovered (and healed) on the next hit.
    fn get_or_compute(&self, key: K, label: &str, compute: impl Fn() -> V) -> V {
        for _attempt in 0..3 {
            let slot = {
                let mut map = self.lock_map();
                Arc::clone(map.entry(key.clone()).or_default())
            };
            let mut computed = false;
            let entry = slot.get_or_init(|| {
                computed = true;
                let value = compute();
                let fingerprint = twig_sched::fault::global()
                    .corrupt_fingerprint(label, value.fingerprint());
                Entry {
                    value,
                    fingerprint,
                    last_used: AtomicU64::new(0),
                }
            });
            entry
                .last_used
                .store(self.clock.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
            if computed {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let value = entry.value.clone();
                self.enforce_capacity();
                return value;
            }
            if entry.value.fingerprint() == entry.fingerprint {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return entry.value.clone();
            }
            // Poisoned entry: evict (only if the map still holds this
            // exact slot — another thread may have healed it already) and
            // retry, which recomputes into a fresh slot.
            eprintln!("warning: evicting corrupt cache entry {label} (fingerprint mismatch)");
            self.evictions.fetch_add(1, Ordering::Relaxed);
            let mut map = self.lock_map();
            if map.get(&key).is_some_and(|cur| Arc::ptr_eq(cur, &slot)) {
                map.remove(&key);
            }
        }
        // Unreachable with budgeted fault clauses; serve a fresh
        // uncached computation rather than loop forever.
        eprintln!("warning: cache entry {label} still corrupt after retries; bypassing cache");
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        compute()
    }

    /// Number of *initialized* entries (slots whose computation finished;
    /// a slot abandoned by a panicking computation does not count, so the
    /// exactly-once accounting survives supervised retries).
    fn entries(&self) -> u64 {
        self.lock_map()
            .values()
            .filter(|slot| slot.get().is_some())
            .count() as u64
    }
}

/// Hit/miss/entry/eviction counts per artifact type, snapshotted by
/// [`ArtifactCache::stats`] and embedded in `results/bench_results.json`.
#[derive(Clone, Debug, Serialize)]
pub struct CacheStats {
    /// App setup (program generation) hits.
    pub setup_hits: u64,
    /// App setup misses (= generations performed).
    pub setup_misses: u64,
    /// Distinct apps generated.
    pub setup_entries: u64,
    /// Setup entries evicted for failed integrity checks.
    pub setup_evictions: u64,
    /// Walker event-trace hits.
    pub events_hits: u64,
    /// Walker event-trace misses (= walks performed).
    pub events_misses: u64,
    /// Distinct `(app, input, budget)` traces materialized.
    pub events_entries: u64,
    /// Trace entries evicted for failed integrity checks.
    pub events_evictions: u64,
    /// LBR profile hits.
    pub profile_hits: u64,
    /// LBR profile misses (= profiling simulations performed).
    pub profile_misses: u64,
    /// Distinct `(app, input, budget, sim config)` profiles collected.
    pub profile_entries: u64,
    /// Profile entries evicted for failed integrity checks.
    pub profile_evictions: u64,
    /// Prepared-app hits.
    pub prepared_hits: u64,
    /// Prepared-app misses (= prepare phases executed).
    pub prepared_misses: u64,
    /// Distinct `(app, budget)` prepare phases materialized.
    pub prepared_entries: u64,
    /// Prepared entries evicted for failed integrity checks.
    pub prepared_evictions: u64,
    /// Simulation-result hits (simulations *not* re-run).
    pub sim_hits: u64,
    /// Simulation-result misses (= cacheable simulations performed).
    pub sim_misses: u64,
    /// Distinct `(app, input, budget, system, config)` results stored.
    pub sim_entries: u64,
    /// Simulation results evicted for failed integrity checks.
    pub sim_evictions: u64,
}

impl CacheStats {
    /// True iff every artifact was generated exactly once per key, modulo
    /// integrity evictions (each eviction legitimately forces one
    /// recomputation) — the property the `experiments` binary asserts.
    pub fn exactly_once(&self) -> bool {
        self.setup_misses == self.setup_entries + self.setup_evictions
            && self.events_misses == self.events_entries + self.events_evictions
            && self.profile_misses == self.profile_entries + self.profile_evictions
            && self.prepared_misses == self.prepared_entries + self.prepared_evictions
            && self.sim_misses == self.sim_entries + self.sim_evictions
    }
}

/// The memoized store handing out shared artifacts.
pub struct ArtifactCache {
    setups: Shard<AppId, Arc<AppSetup>>,
    events: Shard<(AppId, u32, u64), AnySource>,
    // `SimConfig` holds `f64` fields, so the profile key embeds its
    // `Debug` rendering as a config fingerprint instead of deriving Hash.
    profiles: Shard<(AppId, u32, u64, String), Arc<Profile>>,
    prepared: Shard<(AppId, u64), Arc<PreparedApp>>,
    // Simulations of the *canonical* (unrewritten) binary over canonical
    // traces; the system name + config Debug rendering pin the run down.
    sims: Shard<(AppId, u32, u64, String, String), Arc<SimStats>>,
    /// Traces whose instruction budget exceeds this spill to `.twgc`
    /// files instead of staying resident.
    spill_instructions: u64,
    /// Where spill files are written (and at once unlinked).
    spill_dir: PathBuf,
}

/// Instruction budget past which a cached trace spills to a `.twgc` file.
/// The densest app (verilator) averages ~3.5 instructions per 12-byte
/// event, so a resident trace stays under ~110 MB: 20M-instruction runs
/// stay in memory, 50M-instruction runs spill.
pub const SPILL_INSTRUCTIONS: u64 = 32_000_000;

impl ArtifactCache {
    /// Creates an empty cache spilling traces above [`SPILL_INSTRUCTIONS`]
    /// (tests use private instances; production code shares [`global`]).
    pub fn new() -> Self {
        Self::with_spill_threshold(SPILL_INSTRUCTIONS)
    }

    /// Creates an empty cache spilling traces whose budget exceeds
    /// `instructions`. Tests use small thresholds to exercise the
    /// out-of-core path on small traces.
    pub fn with_spill_threshold(instructions: u64) -> Self {
        ArtifactCache {
            setups: Shard::new(),
            events: Shard::new(),
            // Profiles are the one artifact that is both large (the shared
            // LBR log costs ~110 bytes per miss sample: a few MB at 2M
            // instructions, ~70 MB for verilator at 10M) and mostly
            // single-use (sweeps retire one per configuration point);
            // keep only a recent working set.
            profiles: Shard::with_capacity(Some(12)),
            prepared: Shard::new(),
            sims: Shard::new(),
            spill_instructions: instructions,
            spill_dir: std::env::temp_dir(),
        }
    }

    /// The generated workload for `app` (spec, generator, program,
    /// baseline sim config).
    pub fn setup(&self, app: AppId) -> Arc<AppSetup> {
        self.setups.get_or_compute(app, &format!("cache:setup:{}", app.name()), || {
            Arc::new(AppSetup::new(app))
        })
    }

    /// The walker event trace for `(app, input)`, bounded by
    /// `instructions`, as an unread source; callers clone it. It is
    /// resident ([`AnySource::Mem`]) up to [`SPILL_INSTRUCTIONS`], mapped
    /// from an unlinked `.twgc` file ([`AnySource::Columnar`]) above, and
    /// a live walk ([`AnySource::Walker`]) when the spill fails. Every
    /// backing is event-for-event identical to [`AppSetup::fresh_events`].
    pub fn events(&self, app: AppId, input: u32, instructions: u64) -> AnySource {
        self.events.get_or_compute(
            (app, input, instructions),
            &format!("cache:events:{}/{input}", app.name()),
            || self.walk(app, input, instructions),
        )
    }

    /// Walks one trace into the backing its budget calls for.
    fn walk(&self, app: AppId, input: u32, instructions: u64) -> AnySource {
        let setup = self.setup(app);
        let input_config = InputConfig::numbered(input);
        if instructions <= self.spill_instructions {
            let events = Walker::new(&setup.program, input_config).run_instructions(instructions);
            return MemSource::from(events).into();
        }
        let walk = WalkerSource::new(Arc::new(setup.program.clone()), input_config, instructions);
        let path = self.spill_dir.join(format!(
            "twig-spill-{}-{}-i{input}-n{instructions}.twgc",
            std::process::id(),
            app.name()
        ));
        match spill(&path, walk.clone()) {
            Ok(reader) => ColumnarSource::from_reader(Arc::new(reader)).into(),
            Err(e) => {
                eprintln!(
                    "warning: trace spill to {} failed ({e}); replaying the walk instead",
                    path.display()
                );
                walk.into()
            }
        }
    }

    /// The LBR profile of `app` under `input` at `sim_config`.
    ///
    /// Profile collection reads only the simulator configuration, not the
    /// Twig optimizer's knobs, so one cached profile serves every
    /// `TwigConfig` variant evaluated against it.
    pub fn profile(
        &self,
        app: AppId,
        input: u32,
        instructions: u64,
        sim_config: &SimConfig,
    ) -> Arc<Profile> {
        // Profiling runs never execute prefetch ops, so the key shares
        // the baseline projection (see [`Self::projected`]).
        let key_config = Self::projected("baseline", sim_config);
        let key = (app, input, instructions, format!("{key_config:?}"));
        self.profiles.get_or_compute(
            key,
            &format!("cache:profile:{}/{input}", app.name()),
            || {
                let setup = self.setup(app);
                let events = self.events(app, input, instructions);
                let (profile, stats) = TwigOptimizer::default()
                    .collect_profile_and_stats_from_source(
                        &setup.program,
                        *sim_config,
                        &events,
                        instructions,
                    );
                // The profiling run is a plain FDIP baseline run with a
                // passive observer attached; publish its stats so a later
                // baseline request over the same input dedups against it
                // instead of re-simulating.
                if Self::sim_cacheable(sim_config) {
                    self.sim_stats(app, input, instructions, "baseline", sim_config, || {
                        stats.clone()
                    });
                }
                Arc::new(profile)
            },
        )
    }

    /// The fully prepared app (profiled on input #0, rewritten, test
    /// trace walked, working sets measured) at `budget` instructions —
    /// computed lazily and exactly once per `(app, budget)`, so a resumed
    /// run whose every cell was checkpointed never pays for it.
    pub(crate) fn prepared(&self, app: AppId, budget: u64) -> Arc<PreparedApp> {
        self.prepared.get_or_compute(
            (app, budget),
            &format!("cache:prepared:{}", app.name()),
            || Arc::new(crate::runner::prepare_app(app, budget)),
        )
    }

    /// Cache-key projection: pins `SimConfig` fields that a given kind of
    /// run provably never reads to fixed defaults, so sweep points that
    /// differ only in dead config share one cached artifact.
    ///
    /// - Profile collection and `baseline`/`ideal` simulations execute the
    ///   canonical binary, which contains no prefetch ops, so the prefetch
    ///   buffer never fills and its capacity is dead config (Fig. 25's
    ///   references collapse to one run).
    /// - An ideal BTB answers every lookup without consulting the real
    ///   array, so BTB geometry is dead config for `ideal` runs (Figs.
    ///   23/24's ideal references collapse to one run).
    ///
    /// Only the cache *key* is projected — the simulation itself still
    /// runs whatever config the caller passed on a miss. Validated by
    /// `projection_is_sound` below and end-to-end by the byte-identical
    /// figure suite.
    fn projected(system: &str, config: &SimConfig) -> SimConfig {
        let defaults = SimConfig::default();
        let mut c = *config;
        match system {
            "baseline" => c.prefetch_buffer_entries = defaults.prefetch_buffer_entries,
            "ideal" => {
                c.prefetch_buffer_entries = defaults.prefetch_buffer_entries;
                c.btb = defaults.btb;
            }
            _ => {}
        }
        c
    }

    /// Whether a simulation at `config` is a pure function of its inputs
    /// as far as the harness is concerned. Integrity sampling, seeded
    /// mutations, observability recording, and windowed timelines all
    /// have side effects beyond the returned [`SimStats`] (violations,
    /// forensic dumps, telemetry exports), so runs with any of them
    /// enabled must execute every time.
    pub fn sim_cacheable(config: &SimConfig) -> bool {
        config.integrity.level == IntegrityLevel::Off
            && config.integrity.mutate.is_none()
            && !config.obs.recording()
            && config.obs.window.is_none()
    }

    /// The statistics of one simulation of the canonical program for
    /// `app` over the canonical `(app, input, instructions)` event trace,
    /// with BTB system `system` under `sim_config`.
    ///
    /// The same `(system, config)` pair is simulated by several figures
    /// (every sweep point re-runs baseline/ideal/competitor sims, and the
    /// cross-input matrix shares its references with the headline
    /// matrix), so results are memoized like every other artifact.
    ///
    /// Contract: `compute` must run exactly the simulation the key
    /// describes — original binary from [`Self::setup`], events from
    /// [`Self::events`] — and be deterministic. Non-cacheable configs
    /// (see [`Self::sim_cacheable`]) bypass the cache entirely, without
    /// touching the exactly-once accounting.
    pub fn sim_stats(
        &self,
        app: AppId,
        input: u32,
        instructions: u64,
        system: &str,
        sim_config: &SimConfig,
        compute: impl Fn() -> SimStats,
    ) -> Arc<SimStats> {
        if !Self::sim_cacheable(sim_config) {
            return Arc::new(compute());
        }
        let key_config = Self::projected(system, sim_config);
        let key = (
            app,
            input,
            instructions,
            system.to_string(),
            format!("{key_config:?}"),
        );
        self.sims.get_or_compute(
            key,
            &format!("cache:sim:{}/{input}/{system}", app.name()),
            || Arc::new(compute()),
        )
    }

    /// Snapshot of the hit/miss/entry/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            setup_hits: self.setups.hits.load(Ordering::Relaxed),
            setup_misses: self.setups.misses.load(Ordering::Relaxed),
            setup_entries: self.setups.entries(),
            setup_evictions: self.setups.evictions.load(Ordering::Relaxed),
            events_hits: self.events.hits.load(Ordering::Relaxed),
            events_misses: self.events.misses.load(Ordering::Relaxed),
            events_entries: self.events.entries(),
            events_evictions: self.events.evictions.load(Ordering::Relaxed),
            profile_hits: self.profiles.hits.load(Ordering::Relaxed),
            profile_misses: self.profiles.misses.load(Ordering::Relaxed),
            profile_entries: self.profiles.entries(),
            profile_evictions: self.profiles.evictions.load(Ordering::Relaxed),
            prepared_hits: self.prepared.hits.load(Ordering::Relaxed),
            prepared_misses: self.prepared.misses.load(Ordering::Relaxed),
            prepared_entries: self.prepared.entries(),
            prepared_evictions: self.prepared.evictions.load(Ordering::Relaxed),
            sim_hits: self.sims.hits.load(Ordering::Relaxed),
            sim_misses: self.sims.misses.load(Ordering::Relaxed),
            sim_entries: self.sims.entries(),
            sim_evictions: self.sims.evictions.load(Ordering::Relaxed),
        }
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::new()
    }
}

/// Streams `walk` into a `.twgc` file at `path`, maps it and unlinks it
/// at once: the mapping keeps the data alive, and nothing stays on disk
/// once the reader is dropped (or the process dies).
fn spill(path: &Path, walk: WalkerSource) -> std::io::Result<ColumnarReader> {
    twig_workload::write_columnar_file(path, walk)?;
    let reader = ColumnarReader::open(path).map_err(std::io::Error::other);
    std::fs::remove_file(path)?;
    reader
}

/// The process-wide cache shared by the runner and all `exp` modules.
pub fn global() -> &'static ArtifactCache {
    static CACHE: OnceLock<ArtifactCache> = OnceLock::new();
    CACHE.get_or_init(ArtifactCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_shared_and_counted() {
        let cache = ArtifactCache::new();
        let a = cache.setup(AppId::Tomcat);
        let b = cache.setup(AppId::Tomcat);
        assert!(Arc::ptr_eq(&a, &b), "second fetch must reuse the Arc");
        let stats = cache.stats();
        assert_eq!(stats.setup_misses, 1);
        assert_eq!(stats.setup_hits, 1);
        assert_eq!(stats.setup_entries, 1);
        assert_eq!(stats.setup_evictions, 0);
        assert!(stats.exactly_once());
    }

    #[test]
    fn cached_events_match_fresh_walk() {
        let cache = ArtifactCache::new();
        let cached = cache.events(AppId::Kafka, 2, 5_000);
        assert!(matches!(cached, AnySource::Mem(_)), "a small budget stays resident");
        let fresh = cache.setup(AppId::Kafka).fresh_events(2, 5_000);
        assert_eq!(cached.collect::<Vec<_>>(), fresh, "cache must be bit-identical");
    }

    /// A fresh, empty directory for one test's spill files.
    fn spill_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("twig-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn big_traces_spill_and_stream_identically() {
        let dir = spill_dir("spill");
        let mut cache = ArtifactCache::with_spill_threshold(500);
        cache.spill_dir = dir.clone();
        let spilled = cache.events(AppId::Kafka, 2, 30_000);
        assert!(matches!(spilled, AnySource::Columnar(_)), "a 500-instruction threshold spills");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "the spill file is unlinked once mapped"
        );
        let fresh = cache.setup(AppId::Kafka).fresh_events(2, 30_000);
        assert_eq!(spilled.size_hint(), (fresh.len(), Some(fresh.len())));
        assert_eq!(spilled.collect::<Vec<_>>(), fresh, "spilled trace must be bit-identical");
        // A hit re-verifies the directory-shape fingerprint and serves the
        // same mapping.
        let again = cache.events(AppId::Kafka, 2, 30_000);
        let stats = cache.stats();
        assert_eq!(stats.events_misses, 1);
        assert_eq!(stats.events_hits, 1);
        assert_eq!(stats.events_evictions, 0);
        assert_eq!(again.collect::<Vec<_>>(), fresh);
        std::fs::remove_dir(&dir).expect("the spill directory is still empty");
    }

    #[test]
    fn at_threshold_stays_resident_and_matches_walk() {
        let cache = ArtifactCache::with_spill_threshold(30_000);
        let trace = cache.events(AppId::Kafka, 0, 30_000);
        assert!(matches!(trace, AnySource::Mem(_)), "a budget at the threshold stays resident");
        let setup = cache.setup(AppId::Kafka);
        let reference =
            Walker::new(&setup.program, InputConfig::numbered(0)).run_instructions(30_000);
        assert_eq!(trace.size_hint(), (reference.len(), Some(reference.len())));
        assert_eq!(trace.collect::<Vec<_>>(), reference);
    }

    #[test]
    fn just_above_threshold_spills_and_streams_identically() {
        let dir = spill_dir("boundary");
        let mut cache = ArtifactCache::with_spill_threshold(29_999);
        cache.spill_dir = dir.clone();
        let trace = cache.events(AppId::Kafka, 3, 30_000);
        assert!(matches!(trace, AnySource::Columnar(_)), "one instruction over spills");
        let setup = cache.setup(AppId::Kafka);
        let reference =
            Walker::new(&setup.program, InputConfig::numbered(3)).run_instructions(30_000);
        assert_eq!(trace.size_hint(), (reference.len(), Some(reference.len())));
        assert_eq!(trace.collect::<Vec<_>>(), reference, "streaming decode must be bit-identical");
        std::fs::remove_dir(&dir).expect("the spill file is unlinked once mapped");
    }

    #[test]
    fn failed_spill_streams_from_the_walker() {
        // A spill directory below a regular file fails the atomic publish
        // (ENOTDIR); the trace must still come back complete, as a live
        // walk rather than a resident copy.
        let dir = spill_dir("blocked");
        let blocker = dir.join("not-a-directory");
        std::fs::write(&blocker, b"blocker").unwrap();
        let mut cache = ArtifactCache::with_spill_threshold(500);
        cache.spill_dir = blocker.join("spill");
        let trace = cache.events(AppId::Kafka, 1, 20_000);
        assert!(matches!(trace, AnySource::Walker(_)), "a failed spill keeps the walk");
        let fresh = cache.setup(AppId::Kafka).fresh_events(1, 20_000);
        assert_eq!(trace.clone().collect::<Vec<_>>(), fresh);
        // Every clone replays the same stream, and a hit verifies.
        assert_eq!(cache.events(AppId::Kafka, 1, 20_000).collect::<Vec<_>>(), fresh);
        assert_eq!(cache.stats().events_evictions, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_program_matches_fresh_generation() {
        let cache = ArtifactCache::new();
        let cached = cache.setup(AppId::Cassandra);
        let fresh = AppSetup::new(AppId::Cassandra);
        assert_eq!(cached.program, fresh.program);
        assert_eq!(cached.spec, fresh.spec);
    }

    #[test]
    fn cached_profile_matches_fresh_collection() {
        let cache = ArtifactCache::new();
        let setup = cache.setup(AppId::Kafka);
        let cached = cache.profile(AppId::Kafka, 0, 20_000, &setup.sim_config);
        let (fresh, _) = TwigOptimizer::default().collect_profile_and_stats_from_source(
            &setup.program,
            setup.sim_config,
            &MemSource::from(setup.fresh_events(0, 20_000)),
            20_000,
        );
        assert_eq!(*cached, fresh, "cached profile must equal a fresh one");
    }

    #[test]
    fn profile_keyed_by_sim_config() {
        let cache = ArtifactCache::new();
        let setup = cache.setup(AppId::Kafka);
        let base = setup.sim_config;
        let small = base.with_btb_entries(64);
        let p1 = cache.profile(AppId::Kafka, 0, 20_000, &base);
        let p2 = cache.profile(AppId::Kafka, 0, 20_000, &base);
        let p3 = cache.profile(AppId::Kafka, 0, 20_000, &small);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert!(!Arc::ptr_eq(&p1, &p3), "different config, different profile");
        assert_eq!(cache.stats().profile_entries, 2);
        assert_eq!(cache.stats().profile_misses, 2);
    }

    #[test]
    fn concurrent_fetches_compute_exactly_once() {
        let cache = ArtifactCache::new();
        let events = twig_sched::parallel_map(vec![0u32; 16], |_| {
            cache.events(AppId::Tomcat, 1, 4_000)
        });
        let data = |e: &AnySource| match e {
            AnySource::Mem(source) => source.as_slice().as_ptr(),
            other => panic!("a small trace stays resident: {other:?}"),
        };
        for e in &events {
            assert_eq!(data(e), data(&events[0]), "every fetch shares one slice");
        }
        let stats = cache.stats();
        assert_eq!(stats.events_misses, 1, "trace must be walked exactly once");
        assert_eq!(stats.events_hits, 15);
        assert!(stats.exactly_once());
    }

    #[test]
    fn poisoned_entry_is_evicted_and_recomputed() {
        // Corrupt the stored fingerprint by hand (the same effect the
        // `corrupt-cache` fault clause has) and verify the next hit heals
        // the shard while keeping the exactly-once accounting honest.
        let shard: Shard<u32, AnySource> = Shard::new();
        let make = || -> AnySource {
            ArtifactCache::new().events(AppId::Kafka, 0, 2_000)
        };
        let first = shard.get_or_compute(7, "cache:test", make);
        {
            let map = shard.lock_map();
            let slot = map.get(&7).unwrap();
            // Rebuild the slot with a wrong fingerprint.
            let poisoned = Arc::new(OnceLock::new());
            poisoned
                .set(Entry {
                    value: slot.get().map(|e| e.value.clone()).unwrap(),
                    fingerprint: 0xDEAD_BEEF,
                    last_used: AtomicU64::new(0),
                })
                .ok()
                .expect("fresh slot accepts the poisoned entry");
            drop(map);
            shard.lock_map().insert(7, poisoned);
        }
        let healed = shard.get_or_compute(7, "cache:test", make);
        let first: Vec<_> = first.collect();
        assert_eq!(healed.collect::<Vec<_>>(), first, "healed value matches");
        assert_eq!(shard.evictions.load(Ordering::Relaxed), 1);
        assert_eq!(shard.misses.load(Ordering::Relaxed), 2);
        assert_eq!(shard.entries(), 1);
        // misses == entries + evictions
        assert_eq!(
            shard.misses.load(Ordering::Relaxed),
            shard.entries() + shard.evictions.load(Ordering::Relaxed)
        );
        // Subsequent hits verify cleanly.
        let again = shard.get_or_compute(7, "cache:test", make);
        assert_eq!(again.collect::<Vec<_>>(), first);
        assert_eq!(shard.hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn entries_counts_only_initialized_slots() {
        let shard: Shard<u32, AnySource> = Shard::new();
        // Simulate a slot abandoned by a panicking computation: present in
        // the map but never initialized.
        shard.lock_map().insert(1, Arc::new(OnceLock::new()));
        assert_eq!(shard.entries(), 0);
        let _ = shard.get_or_compute(2, "cache:test", || {
            ArtifactCache::new().events(AppId::Kafka, 0, 1_000)
        });
        assert_eq!(shard.entries(), 1);
    }

    #[test]
    fn projection_is_sound() {
        // The fields the key projection pins must truly be dead config:
        // running the projected-away variants must produce identical
        // statistics. (Cheap budget; the full-suite byte-identity check
        // covers the production budgets.)
        let budget = 20_000u64;
        let setup = AppSetup::new(AppId::Kafka);
        let events = AnySource::from(setup.fresh_events(1, budget));
        // Both the baseline and the ideal cell run the plain BTB.
        let run = |cfg: SimConfig| {
            let system = Box::new(twig_sim::PlainBtb::new(&cfg));
            crate::runner::run_system(&setup.program, system, cfg, &events, budget)
        };
        let base = setup.sim_config;
        // baseline: prefetch buffer capacity is dead.
        let b_small = run(SimConfig { prefetch_buffer_entries: 8, ..base });
        let b_large = run(SimConfig { prefetch_buffer_entries: 256, ..base });
        assert_eq!(format!("{b_small:?}"), format!("{b_large:?}"));
        // ideal: buffer capacity and BTB geometry are dead.
        let ideal = SimConfig { ideal_btb: true, ..base };
        let i_small = run(SimConfig { prefetch_buffer_entries: 8, ..ideal }.with_btb_entries(64));
        let i_large =
            run(SimConfig { prefetch_buffer_entries: 256, ..ideal }.with_btb_entries(4096));
        assert_eq!(format!("{i_small:?}"), format!("{i_large:?}"));
        // And the projection maps those variants onto one key.
        assert_eq!(
            format!("{:?}", ArtifactCache::projected("baseline", &SimConfig { prefetch_buffer_entries: 8, ..base })),
            format!("{:?}", ArtifactCache::projected("baseline", &SimConfig { prefetch_buffer_entries: 256, ..base })),
        );
        assert_eq!(
            format!("{:?}", ArtifactCache::projected("ideal", &ideal.with_btb_entries(64))),
            format!("{:?}", ArtifactCache::projected("ideal", &ideal.with_btb_entries(4096))),
        );
        // But live fields still distinguish keys.
        assert_ne!(
            format!("{:?}", ArtifactCache::projected("baseline", &base)),
            format!("{:?}", ArtifactCache::projected("baseline", &base.with_btb_entries(64))),
        );
    }

    #[test]
    fn prepared_app_is_memoized_per_budget() {
        let cache = ArtifactCache::new();
        let a = cache.prepared(AppId::Tomcat, 20_000);
        let b = cache.prepared(AppId::Tomcat, 20_000);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.prepared(AppId::Tomcat, 30_000);
        assert!(!Arc::ptr_eq(&a, &c), "different budget, different prepare");
        let stats = cache.stats();
        assert_eq!(stats.prepared_misses, 2);
        assert_eq!(stats.prepared_entries, 2);
        assert!(stats.exactly_once());
    }
}
