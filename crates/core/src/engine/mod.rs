//! Simulation engines.
//!
//! Three engines implement the identical model, selectable at runtime
//! through the backend [`registry`]:
//!
//! * [`cpu::CpuEngine`] (`scalar`) — the single-threaded reference (the
//!   paper's "sequential counterpart running on a single threaded CPU");
//! * [`pooled::PooledEngine`] (`pooled`) — the tile-parallel pooled CPU
//!   engine: host-side row bands on a `simt` worker pool with
//!   conflict-free movement claims;
//! * [`gpu::GpuEngine`] (`simt`) — the data-driven kernel pipeline on the
//!   `simt` virtual GPU (sequential or parallel execution policy).
//!
//! All consume counter-based randomness keyed by `(seed, entity id, step
//! salt)`, so for equal configurations their trajectories are
//! **bit-identical** — asserted by `validate::engines_agree`, the
//! cross-backend golden parity tests, and the integration tests, and then
//! relaxed into the paper's statistical CPU-vs-GPU comparison for
//! Figure 6b.
//!
//! Each engine is the one [`Sim`] shell over a [`StageBackend`], which
//! holds only what differs between backends. The shell builds every
//! backend through one path and implements [`Engine`] once, so
//! [`Engine::set_model`], the panic alarm's mid-run swap, is checked
//! alike on every backend, boxed registry engines included.

pub mod cpu;
pub mod gpu;
pub mod lifecycle;
pub mod pipeline;
pub mod pooled;
pub mod registry;
pub mod stop;

use pedsim_grid::Matrix;

use crate::metrics::Metrics;
use crate::params::{InvalidModel, IterationMode, ModelKind, SimConfig};
use crate::world::CompiledWorld;

pub use lifecycle::source_stream;
pub use pipeline::{
    Stage, StageBackend, StepCore, StepTimings, KERNEL_BLOCK_KEYS, KERNEL_LAUNCH_KEYS,
    KERNEL_THREAD_KEYS, STEPS_KEY,
};
pub use registry::{Backend, EngineBackend, UnknownBackend, BACKENDS};
pub use stop::{InvalidStopCondition, StopCondition, StopReason};

/// Why [`Engine::set_model`] rejected a model; the engine keeps running
/// the model it had.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelSwapError {
    /// The model *variant* changed. A LEM run has no pheromone substrate
    /// to become an ACO run (and an ACO run's trails mean nothing to
    /// LEM), so engines only accept parameter overlays within the running
    /// variant — the panic-alarm extension's use case.
    Variant {
        /// The variant the engine is running.
        running: &'static str,
        /// The variant the caller asked for.
        requested: &'static str,
    },
    /// The requested parameters fail [`ModelKind::validate`].
    Invalid(InvalidModel),
}

impl std::fmt::Display for ModelSwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Variant { running, requested } => write!(
                f,
                "model variant cannot change mid-run: engine runs {running}, swap requested \
                 {requested}"
            ),
            Self::Invalid(e) => write!(f, "invalid model: {e}"),
        }
    }
}

impl std::error::Error for ModelSwapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Variant { .. } => None,
            Self::Invalid(e) => Some(e),
        }
    }
}

/// Salted kernel indices within a step: `salt = step * 4 + KERNEL_*`.
pub(crate) const KERNEL_TOUR: u64 = 2;
/// Movement kernel salt offset.
pub(crate) const KERNEL_MOVE: u64 = 3;

/// Split linear agent cells on a `width`-wide grid into the `(row, col)`
/// vectors [`Engine::positions`] reports.
pub(crate) fn split_positions(pos: &[u32], width: usize) -> (Vec<u16>, Vec<u16>) {
    let w = width as u32;
    pos.iter()
        .map(|&p| ((p / w) as u16, (p % w) as u16))
        .unzip()
}

/// Common engine interface.
pub trait Engine {
    /// Advance one time step (all four kernels).
    fn step(&mut self);

    /// Steps completed so far.
    fn steps_done(&self) -> u64;

    /// Metrics, when tracking is enabled.
    fn metrics(&self) -> Option<&Metrics>;

    /// Cumulative per-stage wall-clock timings of the unified step
    /// pipeline (see [`pipeline::StepTimings`]) — reported identically by
    /// every engine.
    fn step_timings(&self) -> &StepTimings;

    /// The engine's telemetry recorder: per-stage duration histograms,
    /// kernel-launch counters, physics gauges, and the ring-buffered
    /// event log, fed by the unified step pipeline. Every engine exposes
    /// the **same key vocabulary** — counters a backend has no machinery
    /// for (e.g. kernel launches on the CPU) are pre-registered at zero,
    /// so consumers never branch on the engine kind.
    fn telemetry(&self) -> &pedsim_obs::Recorder;

    /// The movement model in use.
    fn model(&self) -> ModelKind;

    /// Run every later step under `model` (the panic-alarm extension). It
    /// must be a parameter overlay of the running variant and pass
    /// [`ModelKind::validate`]; otherwise this is a typed error and the
    /// engine keeps its model.
    fn set_model(&mut self, model: ModelKind) -> Result<(), ModelSwapError>;

    /// The traversal mode this engine steps with. Each reference backend
    /// has one: `scalar` always reports `Sparse` (agent loops), `simt`
    /// always `Dense` (one thread per cell). Only `pooled` reads
    /// [`SimConfig::iteration`](crate::params::SimConfig::iteration):
    /// `Auto` settles to `Dense` or `Sparse` against the world's initial
    /// occupancy, explicit modes pass through. Recorded in bench and run
    /// provenance.
    fn iteration_mode(&self) -> IterationMode;

    /// Snapshot of the environment matrix (cell labels).
    fn mat_snapshot(&self) -> Matrix<u8>;

    /// Snapshot of agent positions: `(row, col)` vectors indexed by agent
    /// (slot 0 = sentinel), derived from the one position column
    /// `props.pos`. A dead slot reports the cell it last stood on.
    fn positions(&self) -> (Vec<u16>, Vec<u16>);

    /// Run `n` steps.
    fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Run until `cond` is satisfied, returning why the run stopped, or a
    /// typed [`InvalidStopCondition`] when the condition could never be
    /// evaluated on this engine — checked **at entry**, before any step
    /// runs. A metric-based condition (`AllArrived` / `Gridlocked` /
    /// `SteadyState`) on an engine built with `track_metrics` off is
    /// rejected here instead of panicking deep inside
    /// [`StopCondition::check`] mid-run.
    ///
    /// The condition is checked before the first step and after every
    /// subsequent one, so a condition already satisfied at entry performs
    /// zero steps. Callers that cannot guarantee eventual arrival should
    /// compose a [`StopCondition::Steps`] cap via
    /// [`StopCondition::arrived_or_steps`] or
    /// [`StopCondition::settled_or_steps`] — an unsatisfiable condition
    /// loops forever.
    fn try_run_until(&mut self, cond: &StopCondition) -> Result<StopReason, InvalidStopCondition> {
        cond.validate_for(self.metrics().is_some())?;
        loop {
            if let Some(reason) = cond.check(self.steps_done(), self.metrics()) {
                return Ok(reason);
            }
            self.step();
        }
    }

    /// [`Engine::try_run_until`], panicking at entry (with the typed
    /// error's message) on a condition this engine can never evaluate.
    fn run_until(&mut self, cond: &StopCondition) -> StopReason {
        self.try_run_until(cond)
            .unwrap_or_else(|e| panic!("invalid stop condition: {e}"))
    }
}

/// Boxed engines delegate, so registry-built `Box<dyn Engine>` values run
/// through the same generic call sites (e.g. the runner's `finish`) as
/// concrete engines.
impl<T: Engine + ?Sized> Engine for Box<T> {
    fn step(&mut self) {
        (**self).step();
    }

    fn steps_done(&self) -> u64 {
        (**self).steps_done()
    }

    fn metrics(&self) -> Option<&Metrics> {
        (**self).metrics()
    }

    fn step_timings(&self) -> &StepTimings {
        (**self).step_timings()
    }

    fn telemetry(&self) -> &pedsim_obs::Recorder {
        (**self).telemetry()
    }

    fn model(&self) -> ModelKind {
        (**self).model()
    }

    fn set_model(&mut self, model: ModelKind) -> Result<(), ModelSwapError> {
        (**self).set_model(model)
    }

    fn iteration_mode(&self) -> IterationMode {
        (**self).iteration_mode()
    }

    fn mat_snapshot(&self) -> Matrix<u8> {
        (**self).mat_snapshot()
    }

    fn positions(&self) -> (Vec<u16>, Vec<u16>) {
        (**self).positions()
    }
}

/// An engine: the shared [`StepCore`] and the running model over one
/// backend's kernel-stage executor. [`cpu::CpuEngine`],
/// [`pooled::PooledEngine`] and [`gpu::GpuEngine`] are this shell over
/// their [`StageBackend`]s.
pub struct Sim<B> {
    core: StepCore,
    model: ModelKind,
    backend: B,
}

impl<B: StageBackend> Sim<B> {
    /// Compile `cfg`'s world (the data-preparation stage, §IV.a) and
    /// build the engine over it with [`Sim::build`].
    pub fn build_cold(cfg: SimConfig, args: B::Args) -> Self {
        let world = CompiledWorld::compile(&cfg);
        Self::build(&world, cfg, args)
    }

    /// Build per-replica engine state over an already compiled world,
    /// with the backend's [`StageBackend::Args`]: the backend takes its
    /// own clone of the placed environment and shares the distance
    /// planes. Panics if `cfg.model` fails [`ModelKind::validate`].
    pub fn build(world: &CompiledWorld, cfg: SimConfig, args: B::Args) -> Self {
        debug_assert!(
            world.matches(&cfg),
            "CompiledWorld was compiled from a different configuration"
        );
        if let Err(e) = cfg.model.validate() {
            panic!("invalid model: {e}");
        }
        let env = world.environment();
        Self {
            core: StepCore::for_world(&cfg, world, &env),
            model: cfg.model,
            backend: B::build(world, env, cfg, args),
        }
    }
}

impl<B: StageBackend> Engine for Sim<B> {
    fn step(&mut self) {
        self.core.step(&mut self.backend, self.model);
    }

    fn steps_done(&self) -> u64 {
        self.core.steps_done()
    }

    fn metrics(&self) -> Option<&Metrics> {
        self.core.metrics()
    }

    fn step_timings(&self) -> &StepTimings {
        self.core.timings()
    }

    fn telemetry(&self) -> &pedsim_obs::Recorder {
        self.core.recorder()
    }

    fn model(&self) -> ModelKind {
        self.model
    }

    fn set_model(&mut self, model: ModelKind) -> Result<(), ModelSwapError> {
        if model.is_aco() != self.model.is_aco() {
            return Err(ModelSwapError::Variant {
                running: self.model.name(),
                requested: model.name(),
            });
        }
        model.validate().map_err(ModelSwapError::Invalid)?;
        let old = std::mem::replace(&mut self.model, model);
        self.backend.model_changed(old, model);
        Ok(())
    }

    fn iteration_mode(&self) -> IterationMode {
        self.backend.iteration_mode()
    }

    fn mat_snapshot(&self) -> Matrix<u8> {
        self.backend.mat_snapshot()
    }

    fn positions(&self) -> (Vec<u16>, Vec<u16>) {
        self.backend.positions()
    }
}
