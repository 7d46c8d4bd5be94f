//! World-cache acceptance: the content-addressed [`pedsim_core::world::WorldCache`]
//! inside [`Batch`] is a pure setup optimisation. Physics output must be
//! byte-identical between cached and cold-compiled batches at every
//! worker count, cache statistics must follow deterministically from the
//! job set (not from scheduling), and the new `setup_s` timing must be
//! present in the timed report while staying out of the deterministic
//! one.

use std::time::Duration;

use pedsim_core::engine::{Backend, StopCondition};
use pedsim_core::params::{ModelKind, SimConfig};
use pedsim_grid::EnvConfig;
use pedsim_runner::{Batch, Job};
use pedsim_scenario::registry;

/// A job set that exercises both cache levels: replicas of one grid-field
/// world across several seeds (full-key misses that share the
/// geometry-keyed flow field), exact-duplicate configurations (full-key
/// hits), and a second distinct geometry.
fn job_set() -> Vec<Job> {
    let mut jobs = Vec::new();
    for seed in [1u64, 2, 3] {
        let scenario = registry::crossing(24, 16).with_seed(seed);
        for model in [ModelKind::lem(), ModelKind::aco()] {
            jobs.push(Job::backend(
                format!("crossing/s{seed}/{}", model.name()),
                SimConfig::from_scenario(&scenario, model),
                Backend::simt(),
                StopCondition::Steps(25),
            ));
        }
    }
    let doorway = registry::doorway(24, 24, 20, 5).with_seed(9);
    jobs.push(Job::backend(
        "doorway/cold",
        SimConfig::from_scenario(&doorway, ModelKind::lem()),
        Backend::scalar(),
        StopCondition::Steps(25),
    ));
    jobs
}

#[test]
fn cached_batches_match_cold_batches_byte_for_byte_at_every_worker_count() {
    let jobs = job_set();
    let cold = Batch::new(1).with_world_cache(false).run(&jobs).to_json();
    for workers in [1usize, 2, 8] {
        let cached = Batch::new(workers).run(&jobs).to_json();
        assert_eq!(
            cold, cached,
            "cached batch at {workers} workers diverged from the cold reference"
        );
    }
}

#[test]
fn cache_statistics_are_deterministic_and_scheduling_independent() {
    let jobs = job_set();
    for workers in [1usize, 4] {
        let batch = Batch::new(workers);
        batch.run(&jobs);
        let stats = batch.cache_stats();
        // The full key is the scenario's config_hash — model kind lives
        // in SimConfig but compiles to the same world, so each seed's
        // lem/aco pair shares one entry: 4 distinct keys (3 crossing
        // seeds + doorway), 3 same-scenario hits.
        assert_eq!(stats.hits + stats.misses, 7, "one lookup per job");
        assert_eq!(stats.misses, 4, "one compile per distinct configuration");
        assert_eq!(stats.hits, 3, "same-scenario model pairs share a world");
        // The geometry-keyed field level deduplicates across seeds too:
        // one Dijkstra solve per geometry (crossing, doorway), reused by
        // the seed-varied crossing compiles.
        assert_eq!(stats.field_misses, 2, "one flow-field solve per geometry");
        assert_eq!(stats.field_hits, 2, "seed-varied replicas reuse a field");
        assert_eq!(stats.evictions, 0);

        // Re-running the same jobs on the same batch hits every full key.
        batch.run(&jobs);
        let warm = batch.cache_stats();
        assert_eq!(warm.hits, 3 + 7, "warm rerun must hit every full key");
        assert_eq!(warm.misses, 4, "no new compiles on the warm rerun");
    }
}

#[test]
fn warm_reruns_do_not_pay_the_compile_again() {
    // Timing-adjacent but robust: the warm rerun's setup total is bounded
    // by the cold run's, up to generous scheduler noise. The real
    // guarantee (no recompilation) is pinned exactly via cache stats; the
    // duration check only confirms the timer plumbing measures the fetch,
    // not the compile.
    let jobs = job_set();
    let batch = Batch::new(2);
    let cold = batch.run(&jobs);
    let warm = batch.run(&jobs);
    assert_eq!(batch.cache_stats().hits, 3 + 7);
    assert!(
        warm.setup_total <= cold.setup_total + Duration::from_millis(20),
        "warm setup {:?} should not exceed cold setup {:?} beyond noise",
        warm.setup_total,
        cold.setup_total
    );
}

#[test]
fn setup_timing_is_timed_only_never_deterministic() {
    let jobs = job_set();
    let report = Batch::new(2).run(&jobs);
    let deterministic = report.to_json();
    let timed = report.to_json_with_timing();
    assert!(
        !deterministic.contains("setup"),
        "deterministic JSON must not leak wall-clock setup timing"
    );
    assert!(timed.contains("\"setup_total_s\":"));
    assert!(timed.contains("\"setup_s\":"));
    assert!(timed.contains("\"schema\": \"pedsim.batch_report.v7\""));
    assert_eq!(report.results.len(), jobs.len());
    for r in &report.results {
        assert!(
            r.setup <= report.setup_total,
            "{}: per-job setup exceeds the batch total",
            r.label
        );
    }
}

#[test]
fn disabling_the_cache_leaves_it_untouched() {
    let jobs = job_set();
    let batch = Batch::new(2).with_world_cache(false);
    batch.run(&jobs);
    let stats = batch.cache_stats();
    assert_eq!(stats.hits + stats.misses, 0, "cache bypassed entirely");
    assert_eq!(stats.field_hits + stats.field_misses, 0);
}

#[test]
fn classic_and_scenario_corridors_share_one_world() {
    // `SimConfig::new` builds the classic corridor through
    // `paper_corridor`, so both doors fingerprint alike: one compile, one
    // hit, and the same world name and provenance in the report.
    let env = EnvConfig::small(24, 24, 20).with_seed(5);
    let jobs = [
        Job::backend(
            "classic",
            SimConfig::new(env, ModelKind::lem()),
            Backend::scalar(),
            StopCondition::Steps(10),
        ),
        Job::backend(
            "scenario",
            SimConfig::from_scenario(&registry::paper_corridor(&env), ModelKind::lem()),
            Backend::scalar(),
            StopCondition::Steps(10),
        ),
    ];
    let batch = Batch::new(1);
    let report = batch.run(&jobs);
    let stats = batch.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));
    let [a, b] = [&report.results[0], &report.results[1]];
    assert_eq!(
        (a.world.as_str(), b.world.as_str()),
        ("paper_corridor", "paper_corridor")
    );
    assert_eq!(a.config, b.config);
    assert_eq!(a.config, registry::paper_corridor(&env).config_hash());
    assert_eq!((a.throughput, a.total_moves), (b.throughput, b.total_moves));
}
