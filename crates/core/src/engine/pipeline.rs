//! The unified step-pipeline core every engine drives.
//!
//! Before this module existed, `CpuEngine::step` and `GpuEngine::step`
//! each hand-rolled the same orchestration: run the four kernels in
//! order, bump the step counter, observe metrics, run the open-boundary
//! lifecycle. Only the GPU engine measured its stages. [`StepCore`] owns
//! that orchestration exactly once — backends are stage executors behind
//! [`StageBackend`], which the [`Sim`](super::Sim) shell pairs with the
//! core — and times **every** stage of **every** engine into a
//! [`StepTimings`] report exposed through
//! [`super::Engine::step_timings`]. That per-stage record is the paper's
//! per-kernel speedup instrument generalised to the whole pipeline: the
//! `step_throughput` bench harness turns it into the repo's perf
//! trajectory, and every future optimisation PR is judged against it.
//!
//! Ordering is part of the trajectory contract and is pinned here: the
//! four kernel stages in §IV order, then the metrics observation, then
//! the lifecycle phases (sinks drain arrivals *after* they were counted;
//! sources feed the next step). Timing instrumentation never reorders or
//! skips work, so trajectories through the core are bit-identical to the
//! pre-refactor engines — asserted by the golden hashes in
//! `tests/multi_group.rs`.

use std::time::{Duration, Instant};

use pedsim_grid::{Environment, Matrix};
use pedsim_obs::Recorder;

use crate::metrics::{Metrics, GRIDLOCK_WARNING_WINDOW};
use crate::params::{IterationMode, ModelKind, SimConfig};
use crate::world::CompiledWorld;

use super::lifecycle::OpenLifecycle;

/// Telemetry counter keys for per-kernel launch counts, indexed like
/// [`Stage::KERNELS`]. Registered at zero on every engine by
/// [`StepCore`], so all backends' telemetry shares one shape. The GPU
/// counts its kernel launches; the pooled backend counts its worker-pool
/// launches (blocks = pool tasks, threads = pool workers per launch);
/// the scalar backend launches nothing and reports zeros.
pub const KERNEL_LAUNCH_KEYS: [&str; 4] = [
    "kernel.init.launches",
    "kernel.initial_calc.launches",
    "kernel.tour.launches",
    "kernel.movement.launches",
];

/// Telemetry counter keys for cumulative blocks launched per kernel
/// (see [`KERNEL_LAUNCH_KEYS`]).
pub const KERNEL_BLOCK_KEYS: [&str; 4] = [
    "kernel.init.blocks",
    "kernel.initial_calc.blocks",
    "kernel.tour.blocks",
    "kernel.movement.blocks",
];

/// Telemetry counter keys for cumulative threads launched per kernel
/// (see [`KERNEL_LAUNCH_KEYS`]).
pub const KERNEL_THREAD_KEYS: [&str; 4] = [
    "kernel.init.threads",
    "kernel.initial_calc.threads",
    "kernel.tour.threads",
    "kernel.movement.threads",
];

/// Telemetry counter key for completed pipeline steps.
pub const STEPS_KEY: &str = "pipeline.steps";

/// The gauge level at which the gridlock early warning fires a
/// telemetry event (and re-arms once the gauge falls back below).
pub const GRIDLOCK_EVENT_THRESHOLD: f64 = 0.5;

/// One phase of the unified step pipeline.
///
/// The first four variants are the paper's kernels (§IV.b–e) executed by
/// the backend; the last two are the shared post-step tail the core runs
/// itself. Declaration order is the stable report order, not the
/// execution order of the tail (metrics are observed before the
/// lifecycle runs, so sinks drain arrivals that were already counted).
///
/// A backend may fuse consecutive kernels into one pass: it runs the
/// pass under one stage and leaves the others empty, so their timings
/// read (near) zero. The pooled backend runs its whole step, in both
/// traversal modes, as one launch under [`Stage::Movement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Supporting initialisation (§IV.e): clear the scan matrix and the
    /// FUTURE buffers.
    Init,
    /// Initial calculation (§IV.b): score each occupied cell's
    /// neighbourhood and record front-cell status.
    InitialCalc,
    /// Tour construction (§IV.c): every agent picks its future cell.
    Tour,
    /// Agent movement (§IV.d): scatter-to-gather conflict resolution and
    /// the pheromone update.
    Movement,
    /// Open-boundary lifecycle (sinks drain, sources feed) — a no-op on
    /// closed worlds, still timed so the report covers every stage.
    Lifecycle,
    /// Metrics observation of the post-step positions — a no-op with
    /// `track_metrics` off, still timed.
    Metrics,
}

impl Stage {
    /// Number of stages (the length of [`Stage::ALL`]).
    pub const COUNT: usize = 6;

    /// Every stage, in stable report order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Init,
        Stage::InitialCalc,
        Stage::Tour,
        Stage::Movement,
        Stage::Lifecycle,
        Stage::Metrics,
    ];

    /// The four backend-executed kernel stages, in execution order.
    pub const KERNELS: [Stage; 4] = [
        Stage::Init,
        Stage::InitialCalc,
        Stage::Tour,
        Stage::Movement,
    ];

    /// Dense index into per-stage arrays ([`Stage::ALL`] order).
    pub fn index(self) -> usize {
        match self {
            Stage::Init => 0,
            Stage::InitialCalc => 1,
            Stage::Tour => 2,
            Stage::Movement => 3,
            Stage::Lifecycle => 4,
            Stage::Metrics => 5,
        }
    }

    /// Stable lower-case name for reports and JSON serialization.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Init => "init",
            Stage::InitialCalc => "initial_calc",
            Stage::Tour => "tour",
            Stage::Movement => "movement",
            Stage::Lifecycle => "lifecycle",
            Stage::Metrics => "metrics",
        }
    }

    /// Telemetry histogram key for this stage's per-step wall time.
    pub fn ns_key(self) -> &'static str {
        match self {
            Stage::Init => "stage.init_ns",
            Stage::InitialCalc => "stage.initial_calc_ns",
            Stage::Tour => "stage.tour_ns",
            Stage::Movement => "stage.movement_ns",
            Stage::Lifecycle => "stage.lifecycle_ns",
            Stage::Metrics => "stage.metrics_ns",
        }
    }
}

/// Cumulative per-stage wall-clock timings of an engine's step pipeline.
///
/// Accumulated by [`StepCore`] around every stage of every step, on both
/// engines, through one code path — so CPU and GPU numbers are directly
/// comparable (the paper's per-kernel speedup table, measured rather than
/// modelled). Wall-clock readings are inherently non-deterministic; they
/// never feed back into the simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepTimings {
    time: [Duration; Stage::COUNT],
    steps: u64,
}

impl StepTimings {
    /// Cumulative wall time spent in `stage` so far.
    pub fn of(&self, stage: Stage) -> Duration {
        self.time[stage.index()]
    }

    /// Steps the pipeline has completed while timing.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Cumulative wall time across all stages.
    pub fn total(&self) -> Duration {
        self.time.iter().sum()
    }

    /// Timings accumulated since `earlier`, a snapshot of this same
    /// pipeline (per-stage saturating difference). Timing harnesses use
    /// it to discard warmup steps: snapshot after the warmup phase, run
    /// the measured phase, report the delta.
    pub fn delta(&self, earlier: &StepTimings) -> StepTimings {
        let mut out = StepTimings::default();
        for (slot, (now, then)) in out
            .time
            .iter_mut()
            .zip(self.time.iter().zip(earlier.time.iter()))
        {
            *slot = now.saturating_sub(*then);
        }
        out.steps = self.steps.saturating_sub(earlier.steps);
        out
    }

    /// Mean seconds per step spent in `stage` (0 before the first step).
    pub fn per_step_secs(&self, stage: Stage) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.of(stage).as_secs_f64() / self.steps as f64
        }
    }

    fn record(&mut self, stage: Stage, d: Duration) {
        self.time[stage.index()] += d;
    }
}

/// The backend half of an engine: executes the four kernel stages over
/// its own world representation and adapts that world to the shared
/// post-step tail and to the engine's accessors. Everything else —
/// sequencing, counting, timing, metrics, lifecycle, the model-swap
/// checks — lives in [`StepCore`] and the [`Sim`] shell.
///
/// This trait is the extension point of the backend registry
/// ([`crate::engine::registry`]): a new execution strategy implements it,
/// [`Sim`] over it is the engine, with [`Engine`] and its
/// [`Engine::set_model`] supplied, and an
/// [`crate::engine::registry::EngineBackend`] descriptor registers it —
/// no existing engine needs to change.
///
/// [`Sim`]: super::Sim
/// [`Engine`]: super::Engine
/// [`Engine::set_model`]: super::Engine::set_model
pub trait StageBackend {
    /// What building the backend takes beside the world and the
    /// configuration: nothing for `scalar`, the worker count for
    /// `pooled`, the device for `simt`.
    type Args;

    /// Build the backend's per-replica state over `world`. `env` is the
    /// engine's own clone of the world's placed environment, and
    /// `cfg.model` has passed [`ModelKind::validate`].
    fn build(world: &CompiledWorld, env: Environment, cfg: SimConfig, args: Self::Args) -> Self;

    /// Execute one kernel stage of step `step_no` (0-based) under
    /// `model`. Only ever
    /// called with members of [`Stage::KERNELS`], in that order. `rec`
    /// is the engine's telemetry recorder; backends with launch machinery
    /// (the GPU, the pool) feed their per-kernel launch statistics into
    /// it, the CPU has nothing to add (its keys stay pre-registered at
    /// zero). A backend that fuses kernels runs the fused pass under one
    /// stage and returns at once from the others: `pooled` runs its
    /// whole step, in both traversal modes, under [`Stage::Movement`].
    /// `metrics` is the engine's metrics when tracking is on; a backend
    /// may apply the arrival rule ([`Metrics::arrivals`]) to its movers
    /// during movement instead of in [`StageBackend::observe`].
    fn run_stage(
        &mut self,
        stage: Stage,
        step_no: u64,
        model: ModelKind,
        rec: &mut Recorder,
        metrics: Option<&mut Metrics>,
    );

    /// Complete the step's metrics observation: the movers (the live
    /// slots that changed cell, each once) and the post-step agent
    /// positions, through [`Metrics::observe`] or, for movers a movement
    /// pass already tallied, [`Metrics::finish_step`].
    fn observe(&self, metrics: &mut Metrics);

    /// Run the open-boundary phases over the backend's world (`step` is
    /// the 1-based count of completed steps).
    fn run_lifecycle(
        &mut self,
        lifecycle: &OpenLifecycle,
        step: u64,
        metrics: Option<&mut Metrics>,
    );

    /// Rebuild what the backend derived from the model's parameters
    /// after a mid-run swap from `old` to `new`, a valid overlay of the
    /// same variant. Most backends derive nothing and keep this no-op.
    fn model_changed(&mut self, _old: ModelKind, _new: ModelKind) {}

    /// The traversal the stages take ([`super::Engine::iteration_mode`]).
    fn iteration_mode(&self) -> IterationMode;

    /// The cell labels ([`super::Engine::mat_snapshot`]).
    fn mat_snapshot(&self) -> Matrix<u8>;

    /// The agent positions ([`super::Engine::positions`]).
    fn positions(&self) -> (Vec<u16>, Vec<u16>);
}

/// The shared engine core: step counting, stage sequencing, per-stage
/// timing, and the metrics/lifecycle tail, owned once for every backend.
pub struct StepCore {
    step_no: u64,
    metrics: Option<Metrics>,
    lifecycle: Option<OpenLifecycle>,
    timings: StepTimings,
    recorder: Recorder,
    /// Whether the gridlock early-warning event has fired and not yet
    /// re-armed (the gauge is still above the threshold).
    warned: bool,
}

impl StepCore {
    /// Build the core for a configured world: compile the open-boundary
    /// lifecycle when the world's scenario has one, and construct metrics
    /// when tracking is on — the construction logic every engine shares.
    /// `env` is the engine's own clone of the world's environment.
    pub fn for_world(cfg: &SimConfig, world: &CompiledWorld, env: &Environment) -> Self {
        use pedsim_grid::cell::CELL_WALL;

        let geom = world.geometry();
        let lifecycle = OpenLifecycle::from_scenario(world.scenario(), geom, env.targets.clone());
        let metrics = cfg.track_metrics.then(|| {
            let passable = env.width() * env.height() - env.mat.count(CELL_WALL);
            let mut m = Metrics::new(geom, env.targets.clone(), passable);
            if lifecycle.is_some() {
                m.enable_open(&env.alive);
            }
            m
        });
        // Pre-register the full launch-counter vocabulary so both
        // engines expose identical telemetry keys; the CPU backend never
        // touches them and reports zeros.
        let mut recorder = Recorder::new();
        recorder.ensure_counter(STEPS_KEY);
        for k in 0..4 {
            recorder.ensure_counter(KERNEL_LAUNCH_KEYS[k]);
            recorder.ensure_counter(KERNEL_BLOCK_KEYS[k]);
            recorder.ensure_counter(KERNEL_THREAD_KEYS[k]);
        }
        Self {
            step_no: 0,
            metrics,
            lifecycle,
            timings: StepTimings::default(),
            recorder,
            warned: false,
        }
    }

    /// Steps completed so far.
    pub fn steps_done(&self) -> u64 {
        self.step_no
    }

    /// Metrics, when tracking is enabled.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.metrics.as_ref()
    }

    /// The cumulative per-stage timing report.
    pub fn timings(&self) -> &StepTimings {
        &self.timings
    }

    /// The engine's telemetry recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Record a stage duration into both the timing report and the
    /// telemetry histogram.
    fn time_stage(&mut self, stage: Stage, d: Duration) {
        self.timings.record(stage, d);
        self.recorder.observe_ns(
            stage.ns_key(),
            d.as_nanos().min(u128::from(u64::MAX)) as u64,
        );
    }

    /// Advance one step under `model`: the four kernel stages in §IV
    /// order, then the
    /// metrics observation, then the lifecycle phases — each timed and
    /// recorded. Telemetry is strictly observe-only: nothing here feeds
    /// back into the simulation, so trajectories are unchanged.
    pub fn step<B: StageBackend>(&mut self, backend: &mut B, model: ModelKind) {
        for stage in Stage::KERNELS {
            let t0 = Instant::now();
            backend.run_stage(
                stage,
                self.step_no,
                model,
                &mut self.recorder,
                self.metrics.as_mut(),
            );
            self.time_stage(stage, t0.elapsed());
        }
        self.step_no += 1;
        // Metrics before lifecycle: sinks drain arrivals that the
        // observation has already counted.
        let t0 = Instant::now();
        if let Some(m) = self.metrics.as_mut() {
            backend.observe(m);
        }
        self.time_stage(Stage::Metrics, t0.elapsed());
        let t0 = Instant::now();
        if let Some(lc) = &self.lifecycle {
            backend.run_lifecycle(lc, self.step_no, self.metrics.as_mut());
        }
        self.time_stage(Stage::Lifecycle, t0.elapsed());
        // One source of truth for the step count: the report mirrors the
        // engine's counter instead of keeping its own.
        self.timings.steps = self.step_no;
        self.recorder.inc(STEPS_KEY, 1);
        // Deterministic physics gauges (post-lifecycle state, matching
        // what the next step starts from).
        if let Some(m) = &self.metrics {
            self.recorder
                .set_gauge("sim.throughput", m.throughput() as f64);
            self.recorder
                .set_gauge("sim.total_moves", m.total_moves as f64);
            self.recorder.set_gauge("sim.live", m.live_count() as f64);
            if let Some(risk) = m.gridlock_warning(GRIDLOCK_WARNING_WINDOW) {
                self.recorder.set_gauge("sim.gridlock_risk", risk);
                if risk >= GRIDLOCK_EVENT_THRESHOLD && !self.warned {
                    self.recorder.event(self.step_no, "gridlock.warning", risk);
                    self.warned = true;
                } else if risk < GRIDLOCK_EVENT_THRESHOLD {
                    self.warned = false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::cpu::{cpu_engine_small, CpuEngine};
    use crate::engine::gpu::GpuEngine;
    use crate::engine::Engine;
    use pedsim_scenario::registry;
    use simt::Device;

    #[test]
    fn stage_indices_match_report_order() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "init",
                "initial_calc",
                "tour",
                "movement",
                "lifecycle",
                "metrics"
            ]
        );
    }

    fn assert_monotone_and_covering(e: &mut dyn Engine, label: &str) {
        e.run(6);
        let first = e.step_timings().clone();
        assert_eq!(first.steps(), 6, "{label}: steps counted");
        for stage in Stage::KERNELS {
            assert!(
                first.of(stage) > Duration::ZERO,
                "{label}: kernel stage {} reported zero time",
                stage.name()
            );
        }
        assert!(
            first.of(Stage::Metrics) > Duration::ZERO,
            "{label}: metrics stage untimed"
        );
        e.run(6);
        let second = e.step_timings().clone();
        assert_eq!(second.steps(), 12);
        // Monotone: cumulative time never decreases for any stage, and
        // kernel stages strictly grew (they did real work again).
        for stage in Stage::ALL {
            assert!(
                second.of(stage) >= first.of(stage),
                "{label}: stage {} went backwards",
                stage.name()
            );
        }
        for stage in Stage::KERNELS {
            assert!(
                second.of(stage) > first.of(stage),
                "{label}: kernel stage {} did not accumulate",
                stage.name()
            );
        }
        assert!(second.total() >= first.total());
        assert!(second.per_step_secs(Stage::Movement) > 0.0);
    }

    #[test]
    fn timings_are_monotone_and_cover_every_stage() {
        use crate::engine::Backend;
        let env = pedsim_grid::EnvConfig::small(24, 24, 20).with_seed(3);
        let scenario = registry::open_corridor(24, 24, 20, 2.0).with_seed(5);
        for backend in [Backend::scalar(), Backend::simt()] {
            let cfg = SimConfig::new(env, ModelKind::lem());
            let mut e = backend.build(cfg).expect("registry backend");
            assert_monotone_and_covering(&mut e, &backend.name);
            // An open world times its lifecycle stage too.
            let cfg = SimConfig::from_scenario(&scenario, ModelKind::lem());
            let mut e = backend.build(cfg).expect("registry backend");
            e.run(30);
            let t = e.step_timings();
            assert!(t.of(Stage::Lifecycle) > Duration::ZERO, "{backend}");
        }
    }

    /// `live_density` divides by non-wall cells on closed worlds too,
    /// not only once an open lifecycle is enabled.
    #[test]
    fn closed_worlds_measure_density_over_non_wall_cells() {
        let scenario = registry::doorway(24, 24, 40, 4).with_seed(2);
        let walls = scenario.walls().len();
        assert_eq!(walls, 20, "a 24-wide wall pierced by a 4-cell doorway");
        let e = CpuEngine::new(SimConfig::from_scenario(&scenario, ModelKind::lem()));
        let m = e.metrics().expect("metrics on");
        assert_eq!(m.live_density(), 80.0 / (24 * 24 - walls) as f64);
    }

    #[test]
    fn telemetry_shape_is_engine_independent() {
        let mut cpu = cpu_engine_small(24, 24, 20, ModelKind::lem(), 3);
        let env = pedsim_grid::EnvConfig::small(24, 24, 20).with_seed(3);
        let mut gpu = GpuEngine::new(SimConfig::new(env, ModelKind::lem()), Device::sequential());
        cpu.run(8);
        gpu.run(8);
        let (tc, tg) = (cpu.telemetry(), gpu.telemetry());
        // Identical counter vocabulary on both engines.
        let keys = |r: &pedsim_obs::Recorder| r.counters().map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(keys(tc), keys(tg));
        assert_eq!(tc.counter(STEPS_KEY), 8);
        assert_eq!(tg.counter(STEPS_KEY), 8);
        for k in 0..4 {
            // CPU: applicable-but-zero; GPU: one launch per step.
            assert_eq!(tc.counter(KERNEL_LAUNCH_KEYS[k]), 0);
            assert!(tc.has_counter(KERNEL_THREAD_KEYS[k]));
            assert_eq!(tg.counter(KERNEL_LAUNCH_KEYS[k]), 8);
            assert!(tg.counter(KERNEL_BLOCK_KEYS[k]) >= 8);
            assert!(tg.counter(KERNEL_THREAD_KEYS[k]) > 0);
        }
        // The launch counters agree with the GPU's own kernel report.
        let report = gpu.report();
        for k in 0..4 {
            assert_eq!(tg.counter(KERNEL_LAUNCH_KEYS[k]), report.launches[k]);
            assert_eq!(tg.counter(KERNEL_BLOCK_KEYS[k]), report.blocks[k]);
            assert_eq!(tg.counter(KERNEL_THREAD_KEYS[k]), report.threads[k]);
        }
        // Per-stage histograms cover every stage on both engines, and the
        // deterministic gauges agree because the trajectories agree.
        for t in [tc, tg] {
            for stage in Stage::ALL {
                assert_eq!(t.histogram(stage.ns_key()).expect("timed").count(), 8);
            }
        }
        assert_eq!(tc.gauge("sim.throughput"), tg.gauge("sim.throughput"));
        assert_eq!(tc.gauge("sim.total_moves"), tg.gauge("sim.total_moves"));
        assert_eq!(tc.gauge("sim.live"), Some(40.0));
    }

    /// The pooled backend's launch telemetry pins its step structure,
    /// whatever the model and traversal mode: a step is one launch with
    /// one item per worker, filed under movement.
    #[test]
    fn pooled_launches_once_per_step_in_both_modes() {
        use crate::engine::pooled::PooledEngine;
        let (workers, steps) = (2, 8);
        // (launches, tasks per launch) of each kernel stage, per step.
        let per_step = [(0, 0), (0, 0), (0, 0), (1, workers)];
        for model in [ModelKind::lem(), ModelKind::aco()] {
            for mode in [IterationMode::Dense, IterationMode::Sparse] {
                let env = pedsim_grid::EnvConfig::small(24, 24, 20).with_seed(3);
                let cfg = SimConfig::new(env, model).with_iteration_mode(mode);
                let mut e = PooledEngine::new(cfg, workers as usize);
                e.run(steps);
                let t = e.telemetry();
                for (k, (launches, parts)) in per_step.into_iter().enumerate() {
                    let label = format!("{} {mode:?} {}", model.name(), KERNEL_LAUNCH_KEYS[k]);
                    let launches = steps * launches;
                    assert_eq!(t.counter(KERNEL_LAUNCH_KEYS[k]), launches, "{label}");
                    assert_eq!(t.counter(KERNEL_BLOCK_KEYS[k]), parts * launches, "{label}");
                    assert_eq!(
                        t.counter(KERNEL_THREAD_KEYS[k]),
                        workers * launches,
                        "{label}"
                    );
                }
            }
        }
    }

    #[test]
    fn timings_do_not_perturb_trajectories() {
        // The timing instrumentation must be observation-only: two runs of
        // the same configuration produce identical trajectories no matter
        // what the clock reads.
        let mut a = cpu_engine_small(24, 24, 16, ModelKind::aco(), 11);
        let mut b = cpu_engine_small(24, 24, 16, ModelKind::aco(), 11);
        a.run(25);
        b.run(25);
        assert_eq!(a.mat_snapshot(), b.mat_snapshot());
        assert_eq!(a.positions(), b.positions());
    }
}
