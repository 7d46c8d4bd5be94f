//! The batch executor: a persistent worker pool running replica jobs
//! over shared compiled worlds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pedsim_core::engine::Engine;
use pedsim_core::metrics::{band_count, lane_index, segregation_index};
use pedsim_core::params::SimConfig;
use pedsim_core::world::{CacheStats, CompiledWorld, WorldCache};
use simt::exec::pool::WorkerPool;

use crate::job::{Job, JobError};
use crate::report::{BatchReport, RunResult, FLUX_REPORT_WINDOW};

/// Runs job lists on a persistent thread pool.
///
/// The pool is the same work-stealing block scheduler the virtual GPU
/// dispatches kernels on (`simt::exec::pool::WorkerPool`), reused one
/// level up with whole replicas as the work items: each worker runs its
/// own contiguous range of jobs in order and then takes the jobs left in
/// the other workers' ranges, the calling thread runs jobs as worker 0
/// and then waits until every job has finished, and a panicking replica is
/// re-raised on the calling thread after the remaining jobs drain — the
/// pool survives for the next batch.
///
/// World compilation is hoisted out of the workers entirely: before any
/// worker starts, the calling thread resolves each job's
/// [`CompiledWorld`] through a batch-owned [`WorldCache`], so the
/// replicas of one configuration share a single artifact (one placement,
/// one flow-field Dijkstra) and repeated batches on the same executor —
/// sweeps, the fundamental-diagram ladder — skip compilation on cache
/// hits. The time each job spent acquiring its world is reported as the
/// result's `setup` timing.
///
/// Results are written into per-job slots and aggregated in canonical
/// order, so the report is identical for any worker count.
pub struct Batch {
    pool: WorkerPool,
    cache: WorldCache,
    use_cache: bool,
}

impl Batch {
    /// A batch executor with `workers` pool workers (≥ 1, the calling
    /// thread included) and the world cache enabled.
    pub fn new(workers: usize) -> Self {
        Self {
            pool: WorkerPool::new(workers),
            cache: WorldCache::default(),
            use_cache: true,
        }
    }

    /// A batch executor sized to the host's available parallelism.
    pub fn auto() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(workers)
    }

    /// Builder: enable or disable the world cache. Disabled, every job
    /// compiles its world cold — the control arm for cache-effect
    /// measurements (trajectories are bit-identical either way; only
    /// `setup` timings move).
    pub fn with_world_cache(mut self, on: bool) -> Self {
        self.use_cache = on;
        self
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Cumulative world-cache traffic across every batch this executor
    /// has run.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Publish the world-cache counters as recorder gauges (the
    /// `pedsim-obs` telemetry hook; see
    /// [`pedsim_core::world::WORLD_CACHE_GAUGES`]).
    pub fn export_world_cache(&self, rec: &mut pedsim_obs::Recorder) {
        self.cache.export(rec);
    }

    /// Execute every job and aggregate the report, validating each job's
    /// run description first: a misconfigured stop condition (e.g. a
    /// gridlock patience beyond the retained movement history) returns a
    /// typed [`JobError`] before any worker thread starts, instead of
    /// panicking inside the pool mid-batch. Blocks until the whole batch
    /// has finished; jobs run in work-stealing order but the report is
    /// deterministic (see [`BatchReport::from_results`]).
    pub fn try_run(&self, jobs: &[Job]) -> Result<BatchReport, JobError> {
        let cfgs = jobs
            .iter()
            .map(Job::resolve)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.run_each(jobs, &cfgs, execute_with_world))
    }

    /// Run `exec` for every validated job on the pool, each over the
    /// world its resolved configuration `cfgs[i]` compiles to.
    fn run_each(
        &self,
        jobs: &[Job],
        cfgs: &[SimConfig],
        exec: impl Fn(&Job, &Arc<CompiledWorld>, Duration) -> RunResult + Sync,
    ) -> BatchReport {
        // Resolve every job's world up front on the calling thread:
        // compile-once semantics need no cross-worker coordination, and
        // the per-job acquisition time (cache fetch vs. cold compile) is
        // the job's `setup` timing.
        let worlds: Vec<(Arc<CompiledWorld>, Duration)> = cfgs
            .iter()
            .map(|cfg| {
                let t0 = Instant::now();
                let world = if self.use_cache {
                    self.cache.get_or_compile(cfg)
                } else {
                    CompiledWorld::compile(cfg)
                };
                (world, t0.elapsed())
            })
            .collect();
        let slots: Vec<Mutex<Option<RunResult>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        self.pool.run(jobs.len(), &|i| {
            let (world, setup) = &worlds[i];
            let result = exec(&jobs[i], world, *setup);
            *slots[i].lock() = Some(result);
        });
        BatchReport::from_results(
            slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("every job fills its slot"))
                .collect(),
        )
    }

    /// [`Batch::try_run`], panicking (on the calling thread, with the
    /// typed error's message) when a job is invalid.
    pub fn run(&self, jobs: &[Job]) -> BatchReport {
        self.try_run(jobs)
            .unwrap_or_else(|e| panic!("invalid batch: {e}"))
    }
}

/// Run one job to completion on the current thread, compiling its world
/// cold (no cache).
pub fn execute(job: &Job) -> RunResult {
    let t0 = Instant::now();
    let world = CompiledWorld::compile(&job.cfg);
    execute_with_world(job, &world, t0.elapsed())
}

/// Run one job to completion on the current thread over an already
/// compiled world. `setup` is the time the caller spent acquiring the
/// world (cold compile or cache fetch) and is reported verbatim.
pub fn execute_with_world(job: &Job, world: &Arc<CompiledWorld>, setup: Duration) -> RunResult {
    let s = world.scenario();
    // The scenario's population sum is authoritative: the EnvConfig record
    // only mirrors group 0 and would misreport asymmetric or multi-group
    // worlds as `agents_per_side * 2`. Open worlds start empty, so their
    // meaningful size is the recyclable slot capacity.
    let agents = if s.is_open() {
        s.total_capacity()
    } else {
        s.total_agents()
    };
    // Validation resolves the name first; a direct execute() call on an
    // unvalidated job panics with the typed message.
    let engine = job
        .backend
        .build_from_world(world, job.cfg.clone())
        .unwrap_or_else(|e| panic!("job {:?}: {e}", job.label));
    finish(job, s.name(), agents, world.fingerprint(), setup, engine)
}

fn finish<E: Engine>(
    job: &Job,
    world: &str,
    agents: usize,
    config: u64,
    setup: Duration,
    mut engine: E,
) -> RunResult {
    // Untimed warmup: run the discard steps, then snapshot the pipeline
    // clocks so the reported timings cover the measured phase only.
    if job.warmup > 0 {
        engine.run(job.warmup);
    }
    let warm_stages = engine.step_timings().clone();
    let warm_steps = engine.steps_done();
    // Time the simulation loop alone: engine construction (world
    // materialisation, upload) and result extraction stay outside, per
    // the paper's "time spent solely for simulation" protocol.
    let t0 = Instant::now();
    let stop = engine.run_until(&job.stop);
    let wall = t0.elapsed();
    let metrics = engine.metrics();
    // One snapshot serves all three order parameters.
    let mat = metrics.is_some().then(|| engine.mat_snapshot());
    // The engine was built from this selection, so the name resolves.
    let backend = job.backend.resolve().map_or("unknown", |d| d.name);
    RunResult {
        label: job.label.clone(),
        world: world.to_string(),
        model: engine.model().name().to_string(),
        engine: backend,
        backend,
        threads: job.backend.threads,
        mode: engine.iteration_mode().name(),
        config,
        seed: job.cfg.env.seed,
        agents,
        steps: engine.steps_done() - warm_steps,
        stop,
        throughput: metrics.map(|m| m.throughput()),
        flux: metrics.and_then(|m| m.windowed_flux(FLUX_REPORT_WINDOW)),
        live: metrics.map(|m| m.live_count()),
        total_moves: metrics.map(|m| m.total_moves),
        lane_index: mat.as_ref().map(lane_index),
        bands: mat.as_ref().map(band_count),
        segregation: mat.as_ref().map(segregation_index),
        gridlock_risk: metrics.and_then(|m| m.gridlock_warning(FLUX_REPORT_WINDOW)),
        setup,
        wall,
        stages: engine.step_timings().delta(&warm_stages),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedsim_core::engine::{Backend, StopCondition};
    use pedsim_core::params::{ModelKind, SimConfig};
    use pedsim_grid::EnvConfig;

    fn corridor_job(label: &str, seed: u64, steps: u64) -> Job {
        let env = EnvConfig::small(24, 24, 16).with_seed(seed);
        Job::backend(
            label,
            SimConfig::new(env, ModelKind::lem()),
            Backend::simt(),
            StopCondition::arrived_or_steps(steps),
        )
    }

    #[test]
    fn batch_runs_all_jobs() {
        let jobs: Vec<Job> = (0..5).map(|s| corridor_job("j", s, 200)).collect();
        let report = Batch::new(3).run(&jobs);
        assert_eq!(report.jobs, 5);
        assert!(report.results.iter().all(|r| r.steps > 0));
        assert!(report.throughput_total > 0);
    }

    #[test]
    fn early_termination_undershoots_the_budget() {
        // A near-empty corridor crosses everyone long before 5,000 steps.
        let env = EnvConfig::small(24, 24, 4).with_seed(3);
        let job = Job::backend(
            "sparse",
            SimConfig::new(env, ModelKind::lem()),
            Backend::simt(),
            StopCondition::arrived_or_steps(5_000),
        );
        let report = Batch::new(1).run(&[job]);
        let r = &report.results[0];
        assert_eq!(r.stop, pedsim_core::engine::StopReason::AllArrived);
        assert!(r.steps < 5_000, "ran all {} steps", r.steps);
        assert_eq!(r.throughput, Some(8));
    }

    #[test]
    fn scalar_and_simt_jobs_agree_in_one_batch() {
        let env = EnvConfig::small(24, 24, 16).with_seed(9);
        let cfg = SimConfig::new(env, ModelKind::aco());
        let jobs = vec![
            Job::backend(
                "ref",
                cfg.clone(),
                Backend::scalar(),
                StopCondition::Steps(40),
            ),
            Job::backend(
                "ref",
                cfg,
                Backend::named("simt", 2),
                StopCondition::Steps(40),
            ),
        ];
        let report = Batch::new(2).run(&jobs);
        let [a, b] = &report.results[..] else {
            panic!("two results")
        };
        // Both name columns carry the registry key; threads the selection's.
        assert_eq!((a.engine, a.backend, a.threads), ("scalar", "scalar", 1));
        assert_eq!((b.engine, b.backend, b.threads), ("simt", "simt", 2));
        // Same configuration ⇒ bit-identical trajectories on both engines.
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.total_moves, b.total_moves);
        assert_eq!(a.lane_index, b.lane_index);
    }

    #[test]
    fn metrics_off_reports_nulls() {
        let env = EnvConfig::small(24, 24, 8).with_seed(1);
        let cfg = SimConfig::new(env, ModelKind::lem()).with_metrics(false);
        let report = Batch::new(1).run(&[Job::backend(
            "t",
            cfg,
            Backend::simt(),
            StopCondition::Steps(10),
        )]);
        let r = &report.results[0];
        assert_eq!(r.throughput, None);
        assert_eq!(r.total_moves, None);
        assert_eq!(r.lane_index, None);
        assert_eq!(r.steps, 10);
    }

    #[test]
    fn oversized_gridlock_patience_is_a_typed_error_not_a_worker_panic() {
        use pedsim_core::metrics::MAX_GRIDLOCK_PATIENCE;
        let env = EnvConfig::small(16, 16, 4).with_seed(1);
        let bad = Job::backend(
            "too-patient",
            SimConfig::new(env, ModelKind::lem()),
            Backend::simt(),
            StopCondition::Gridlocked {
                threshold: 1,
                patience: MAX_GRIDLOCK_PATIENCE + 1,
            },
        );
        let good = corridor_job("ok", 1, 50);
        let batch = Batch::new(2);
        // try_run rejects the whole batch up front — before any worker
        // executes anything (the good job never runs).
        let err = batch.try_run(&[good.clone(), bad]).unwrap_err();
        assert!(
            matches!(err, crate::job::JobError::InvalidStop { ref label, .. }
                if label == "too-patient")
        );
        // run() panics on the *calling* thread with the typed message.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let bad = Job::backend(
                "too-patient",
                SimConfig::new(env, ModelKind::lem()),
                Backend::simt(),
                StopCondition::Gridlocked {
                    threshold: 1,
                    patience: MAX_GRIDLOCK_PATIENCE + 1,
                },
            );
            batch.run(&[bad]);
        }));
        let panic_msg = *caught.unwrap_err().downcast::<String>().expect("string");
        assert!(panic_msg.contains("gridlock patience"), "{panic_msg}");
        // The pool is untouched; the next batch runs normally.
        assert_eq!(batch.run(&[good]).jobs, 1);
    }

    #[test]
    fn replica_panic_reaches_caller_and_pool_survives() {
        // Job validation catches bad run descriptions up front, but a
        // replica can still panic inside the batch. One that panics on
        // purpose on the worker re-raises on the caller, and the pool
        // survives for the next batch.
        let job = corridor_job("boom", 1, 5);
        let cfgs = [job.resolve().expect("a valid job")];
        let batch = Batch::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batch.run_each(std::slice::from_ref(&job), &cfgs, |job, _, _| {
                panic!("replica {:?} failed", job.label)
            });
        }));
        let msg = *caught
            .expect_err("worker panic must re-raise on the caller")
            .downcast::<String>()
            .expect("string");
        assert!(msg.contains("replica \"boom\" failed"), "{msg}");
        let ok = corridor_job("ok", 1, 50);
        assert_eq!(batch.run(&[ok]).jobs, 1);
    }

    #[test]
    fn invalid_hand_built_world_is_a_typed_error_not_a_panic() {
        // A hand-built configuration (`scenario: None`) whose corridor
        // cannot seat its population used to panic while the batch built
        // its world; validation now returns the scenario error.
        let mut cfg = corridor_job("crowded", 1, 5).cfg;
        cfg.env = EnvConfig::small(8, 8, 1_000).with_seed(1);
        cfg.scenario = None;
        let bad = Job::backend("crowded", cfg, Backend::simt(), StopCondition::Steps(5));
        let err = bad.validate().expect_err("no valid corridor");
        assert!(
            matches!(err, crate::job::JobError::InvalidWorld { ref label, .. } if label == "crowded"),
            "{err}"
        );
        let batch = Batch::new(2);
        assert_eq!(batch.try_run(&[bad]).unwrap_err(), err);
        assert_eq!(batch.run(&[corridor_job("ok", 1, 50)]).jobs, 1);
    }

    #[test]
    fn asymmetric_world_reports_true_population() {
        // The EnvConfig record mirrors only group 0; the report must count
        // the scenario's full (uneven) population.
        let scenario = pedsim_scenario::registry::asymmetric_corridor(24, 24, 30, 10).with_seed(4);
        let job = Job::backend(
            "asym",
            SimConfig::from_scenario(&scenario, ModelKind::lem()),
            Backend::simt(),
            StopCondition::arrived_or_steps(300),
        );
        let report = Batch::new(1).run(&[job]);
        let r = &report.results[0];
        assert_eq!(r.agents, 40);
        assert_eq!(report.agents_total, 40);
        if r.stop == pedsim_core::engine::StopReason::AllArrived {
            assert_eq!(r.throughput, Some(40));
        }
    }

    #[test]
    fn metric_stop_without_metrics_is_a_typed_error_not_a_worker_panic() {
        // This used to be the documented "caller bug" failure mode: the
        // condition was evaluated mid-run and panicked deep inside
        // StopCondition::check on a worker thread. Job validation now
        // rejects the description before any worker starts.
        let env = EnvConfig::small(16, 16, 4).with_seed(1);
        let bad = Job::backend(
            "bad",
            SimConfig::new(env, ModelKind::lem()).with_metrics(false),
            Backend::simt(),
            StopCondition::AllArrived,
        );
        let batch = Batch::new(2);
        let err = batch.try_run(std::slice::from_ref(&bad)).unwrap_err();
        assert!(
            matches!(err, crate::job::JobError::InvalidStop { ref label, .. } if label == "bad")
        );
        assert!(err.to_string().contains("track_metrics"), "{err}");
        // run() still panics on the *calling* thread with the typed
        // message, and the pool survives for the next batch.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batch.run(&[bad]);
        }));
        let panic_msg = *caught.unwrap_err().downcast::<String>().expect("string");
        assert!(panic_msg.contains("track_metrics"), "{panic_msg}");
        let ok = corridor_job("ok", 1, 50);
        assert_eq!(batch.run(&[ok]).jobs, 1);
    }
}
