//! World compilation and the content-addressed world cache.
//!
//! The setup path is a three-stage pipeline (DESIGN.md §15):
//!
//! ```text
//! Scenario (declarative)  →  CompiledWorld (immutable artifact)  →  engine state (per replica)
//! ```
//!
//! [`CompiledWorld`] owns everything replicas only *read* — the placed
//! environment template (wall matrix, placement, target bitmask), the
//! per-group distance/flow-field planes, the metrics geometry, and the
//! configuration fingerprint — behind an `Arc`, so one compilation
//! serves every replica of a job and every backend of a comparison run.
//! Engines borrow the distance planes through the same `DistRef` views
//! as before; the kernels are untouched.
//!
//! [`WorldCache`] sits on top: a bounded, content-addressed LRU map
//! keyed by the configuration fingerprint ([`Scenario::config_hash`]).
//! Repeated jobs — sweeps, the fundamental-diagram inflow ladder, a
//! future server — skip world compilation entirely on a hit. Because replicas of one ladder rung usually differ *only* by
//! seed, the cache keeps a second, seed-independent level keyed by
//! [`Scenario::geometry_hash`] that reuses the expensive distance-field
//! planes (the per-group Dijkstra) even when the full key misses.
//!
//! [`Scenario::config_hash`]: pedsim_scenario::Scenario::config_hash
//! [`Scenario::geometry_hash`]: pedsim_scenario::Scenario::geometry_hash

use std::sync::{Arc, Mutex, MutexGuard};

use pedsim_grid::{DistanceData, Environment};

use crate::metrics::Geometry;
use crate::params::SimConfig;

/// The immutable compiled-world artifact: everything the engines read
/// but never write, produced once per configuration and shared behind
/// an `Arc` by every replica built from it.
///
/// The environment template is *placed* (walls stamped, agents seated by
/// the scenario's placement streams), so construction from a compiled
/// world is a clone plus engine-local buffer allocation — no Dijkstra,
/// no placement, no validation.
#[derive(Debug)]
pub struct CompiledWorld {
    /// The scenario this world was compiled from.
    scenario: Arc<pedsim_scenario::Scenario>,
    /// The placed environment template, cloned per replica. Cloning is
    /// bit-identical to re-running placement: `build_environment` is a
    /// pure function of the scenario.
    env0: Environment,
    /// Per-group distance/flow-field planes in uploadable form.
    dist: Arc<DistanceData>,
    /// Metrics geometry (extents, group index ranges).
    geom: Geometry,
    /// Content address: the scenario's [`config_hash`].
    ///
    /// [`config_hash`]: pedsim_scenario::Scenario::config_hash
    fingerprint: u64,
}

impl CompiledWorld {
    /// Run the data-preparation stage (§IV.a) for `cfg`: materialise its
    /// scenario ([`SimConfig::world_scenario`]) — walls, regions,
    /// row-fast-path or flow-field routing. Every engine consumes the
    /// result through this single door so they always agree on the world
    /// they simulate.
    pub fn compile(cfg: &SimConfig) -> Arc<Self> {
        Self::from_scenario(cfg.world_scenario())
    }

    fn from_scenario(scenario: Arc<pedsim_scenario::Scenario>) -> Arc<Self> {
        let env0 = scenario.build_environment();
        let geom = Geometry::with_groups(env0.width(), env0.height(), &env0.group_sizes);
        Arc::new(Self {
            dist: scenario.distance_data(),
            fingerprint: scenario.config_hash(),
            scenario,
            env0,
            geom,
        })
    }

    /// The content address a configuration compiles to: its scenario's
    /// [`config_hash`]. Stable across commits and platforms for equal
    /// configurations — the provenance key results and registry rows
    /// carry.
    ///
    /// [`config_hash`]: pedsim_scenario::Scenario::config_hash
    pub fn fingerprint_of(cfg: &SimConfig) -> u64 {
        cfg.world_scenario().config_hash()
    }

    /// Whether this world is the one `cfg` would compile to (the
    /// `from_world` constructors' debug guard).
    pub fn matches(&self, cfg: &SimConfig) -> bool {
        Self::fingerprint_of(cfg) == self.fingerprint
    }

    /// A fresh per-replica environment: a clone of the placed template.
    pub fn environment(&self) -> Environment {
        self.env0.clone()
    }

    /// The shared distance/flow-field planes.
    pub fn distance(&self) -> Arc<DistanceData> {
        self.dist.clone()
    }

    /// The metrics geometry.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// The content address ([`CompiledWorld::fingerprint_of`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The scenario this world was compiled from.
    pub fn scenario(&self) -> &Arc<pedsim_scenario::Scenario> {
        &self.scenario
    }
}

/// Cumulative [`WorldCache`] traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Full-key hits: the compiled world was served as-is.
    pub hits: u64,
    /// Full-key misses: a world had to be compiled.
    pub misses: u64,
    /// Distance-field reuses on a full-key miss: the compile skipped the
    /// flow-field computation (same routing geometry, different seed).
    pub field_hits: u64,
    /// Full-key misses whose routing geometry was also unseen.
    pub field_misses: u64,
    /// Worlds evicted by the LRU bound.
    pub evictions: u64,
}

/// Default [`WorldCache`] capacity: comfortably above the distinct
/// configurations of one smoke ladder, small enough that paper-scale
/// worlds (hundreds of MB of placed matrices) cannot pile up.
pub const DEFAULT_WORLD_CACHE_CAPACITY: usize = 32;

/// Keys under which [`WorldCache::export`] publishes its counters as
/// recorder gauges, in [`CacheStats`] field order.
pub const WORLD_CACHE_GAUGES: [&str; 5] = [
    "world_cache.hits",
    "world_cache.misses",
    "world_cache.field_hits",
    "world_cache.field_misses",
    "world_cache.evictions",
];

/// A bounded, content-addressed cache of compiled worlds.
///
/// Two levels, both LRU over a small `Vec` (deterministic iteration, no
/// hash containers in engine code):
///
/// 1. **worlds** — full fingerprint → [`CompiledWorld`]. A hit skips
///    compilation entirely (placement *and* flow fields).
/// 2. **fields** — [`Scenario::geometry_hash`] → distance planes. On a
///    full-key miss, a field hit pre-seeds the scenario's lazy distance
///    cache so the compile skips the per-group Dijkstra — the expensive
///    part — and only re-runs placement. Sound because the geometry hash
///    covers every input of the field computation (extents, walls,
///    targets, headings, group count), including the row-fast-path
///    predicate.
///
/// Thread-safe; compilation happens outside the lock (two threads may
/// race to compile the same world — both results are bit-identical and
/// the last insert wins).
///
/// [`Scenario::geometry_hash`]: pedsim_scenario::Scenario::geometry_hash
#[derive(Debug)]
pub struct WorldCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// LRU order: least-recently-used first, most-recent at the back.
    worlds: Vec<(u64, Arc<CompiledWorld>)>,
    /// Same LRU discipline, keyed by routing geometry.
    fields: Vec<(u64, Arc<DistanceData>)>,
    stats: CacheStats,
}

impl Default for WorldCache {
    fn default() -> Self {
        Self::new(DEFAULT_WORLD_CACHE_CAPACITY)
    }
}

impl WorldCache {
    /// A cache holding at most `capacity` compiled worlds (and as many
    /// distance-field planes), `capacity ≥ 1`.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        // A panic while holding the lock cannot leave the Vec maps in a
        // torn state (all mutations are single push/remove calls), so a
        // poisoned cache is still a valid cache.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The world `cfg` compiles to: served from cache on a fingerprint
    /// hit, compiled (and inserted) on a miss. On a miss, a previously
    /// compiled distance field for the same routing geometry is reused so
    /// only placement re-runs.
    pub fn get_or_compile(&self, cfg: &SimConfig) -> Arc<CompiledWorld> {
        let s = cfg.world_scenario();
        let key = s.config_hash();
        let gkey = {
            let mut inner = self.lock();
            if let Some(pos) = inner.worlds.iter().position(|(k, _)| *k == key) {
                let entry = inner.worlds.remove(pos);
                let world = entry.1.clone();
                inner.worlds.push(entry);
                inner.stats.hits += 1;
                return world;
            }
            inner.stats.misses += 1;
            let gkey = s.geometry_hash();
            if let Some(pos) = inner.fields.iter().position(|(k, _)| *k == gkey) {
                let entry = inner.fields.remove(pos);
                s.seed_distance_cache(entry.1.clone());
                inner.fields.push(entry);
                inner.stats.field_hits += 1;
            } else {
                inner.stats.field_misses += 1;
            }
            gkey
        };
        // Compile outside the lock: the Dijkstra can take milliseconds at
        // paper scale and must not serialise unrelated lookups.
        let world = CompiledWorld::from_scenario(s);
        let mut inner = self.lock();
        if !inner.fields.iter().any(|(k, _)| *k == gkey) {
            if inner.fields.len() >= self.capacity {
                inner.fields.remove(0);
            }
            inner.fields.push((gkey, world.distance()));
        }
        if !inner.worlds.iter().any(|(k, _)| *k == key) {
            if inner.worlds.len() >= self.capacity {
                inner.worlds.remove(0);
                inner.stats.evictions += 1;
            }
            inner.worlds.push((key, world.clone()));
        }
        world
    }

    /// Cumulative traffic counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Compiled worlds currently held.
    pub fn len(&self) -> usize {
        self.lock().worlds.len()
    }

    /// Whether no world is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The LRU bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Publish the traffic counters as recorder gauges (the
    /// [`WORLD_CACHE_GAUGES`] keys) — the `pedsim-obs` telemetry hook.
    pub fn export(&self, rec: &mut pedsim_obs::Recorder) {
        let s = self.stats();
        let values = [s.hits, s.misses, s.field_hits, s.field_misses, s.evictions];
        for (key, value) in WORLD_CACHE_GAUGES.into_iter().zip(values) {
            rec.set_gauge(key, value as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelKind;
    use pedsim_grid::EnvConfig;
    use pedsim_scenario::registry;

    fn classic(seed: u64) -> SimConfig {
        SimConfig::new(
            EnvConfig::small(16, 16, 8).with_seed(seed),
            ModelKind::lem(),
        )
    }

    fn crossing(seed: u64) -> SimConfig {
        SimConfig::from_scenario(
            &registry::crossing(24, 20).with_seed(seed),
            ModelKind::aco(),
        )
    }

    #[test]
    fn compile_is_deterministic_and_fingerprinted() {
        let cfg = crossing(7);
        let a = CompiledWorld::compile(&cfg);
        let b = CompiledWorld::compile(&cfg);
        assert_eq!(a.environment(), b.environment());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.matches(&cfg));
        assert!(!a.matches(&crossing(8)));
        // Every world fingerprints with its scenario's own hash, the
        // classic corridor included.
        assert_eq!(a.fingerprint(), cfg.world_scenario().config_hash());
        assert_eq!(
            CompiledWorld::fingerprint_of(&classic(1)),
            registry::paper_corridor(&classic(1).env).config_hash()
        );
        assert_ne!(
            CompiledWorld::fingerprint_of(&classic(1)),
            CompiledWorld::fingerprint_of(&classic(2))
        );
    }

    #[test]
    fn cache_hits_on_equal_configs_and_shares_one_arc() {
        let cache = WorldCache::default();
        let a = cache.get_or_compile(&crossing(3));
        let b = cache.get_or_compile(&crossing(3));
        assert!(Arc::ptr_eq(&a, &b), "hit must serve the same artifact");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn seed_change_misses_the_full_key_but_reuses_the_field() {
        let cache = WorldCache::default();
        let a = cache.get_or_compile(&crossing(3));
        let b = cache.get_or_compile(&crossing(4));
        assert!(!Arc::ptr_eq(&a, &b), "different seeds are different worlds");
        // ... but the (seed-independent) distance planes are shared.
        assert!(Arc::ptr_eq(&a.distance(), &b.distance()));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
        assert_eq!((s.field_hits, s.field_misses), (1, 1));
        // And the reused field is bit-identical to a cold compute.
        let cold = CompiledWorld::compile(&crossing(4));
        assert_eq!(b.distance().data, cold.distance().data);
        assert_eq!(b.distance().kind, cold.distance().kind);
    }

    #[test]
    fn lru_bound_evicts_the_least_recently_used() {
        let cache = WorldCache::new(2);
        cache.get_or_compile(&classic(1));
        cache.get_or_compile(&classic(2));
        cache.get_or_compile(&classic(1)); // refresh 1: LRU order is now [2, 1]
        cache.get_or_compile(&classic(3)); // evicts 2
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        cache.get_or_compile(&classic(1)); // still cached
        assert_eq!(cache.stats().hits, 2);
        cache.get_or_compile(&classic(2)); // was evicted: a miss
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn export_publishes_every_counter_as_a_gauge() {
        let cache = WorldCache::default();
        cache.get_or_compile(&classic(1));
        cache.get_or_compile(&classic(1));
        let mut rec = pedsim_obs::Recorder::new();
        cache.export(&mut rec);
        assert_eq!(rec.gauge("world_cache.hits"), Some(1.0));
        assert_eq!(rec.gauge("world_cache.misses"), Some(1.0));
        for key in WORLD_CACHE_GAUGES {
            assert!(rec.gauge(key).is_some(), "missing gauge {key}");
        }
    }

    #[test]
    fn cached_worlds_run_bit_identically_to_cold_compiles() {
        use crate::engine::cpu::CpuEngine;
        use crate::engine::Engine;
        let cache = WorldCache::default();
        cache.get_or_compile(&crossing(5)); // warm the field level
        let warm = cache.get_or_compile(&crossing(6)); // field hit
        let mut from_cache = CpuEngine::from_world(&warm, crossing(6));
        let mut cold = CpuEngine::new(crossing(6));
        from_cache.run(15);
        cold.run(15);
        assert_eq!(from_cache.mat_snapshot(), cold.mat_snapshot());
        assert_eq!(from_cache.positions(), cold.positions());
    }
}
