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

pub mod cpu;
pub mod gpu;
pub mod lifecycle;
pub mod pipeline;
pub mod pooled;
pub mod registry;
pub mod stop;

use pedsim_grid::Matrix;

use crate::metrics::Metrics;
use crate::params::ModelKind;

pub use lifecycle::source_stream;
pub use pipeline::{
    Stage, StageBackend, StepCore, StepTimings, KERNEL_BLOCK_KEYS, KERNEL_LAUNCH_KEYS,
    KERNEL_THREAD_KEYS, STEPS_KEY,
};
pub use registry::{Backend, EngineBackend, UnknownBackend, BACKENDS};
pub use stop::{InvalidStopCondition, StopCondition, StopReason};

/// Why a mid-run model swap was rejected: the model *variant* changed. A
/// LEM run has no pheromone substrate to become an ACO run (and an ACO
/// run's trails mean nothing to LEM), so engines only accept parameter
/// overlays within the running variant — the panic-alarm extension's
/// use case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSwapError {
    /// The variant the engine is running.
    pub running: &'static str,
    /// The variant the caller asked for.
    pub requested: &'static str,
}

impl std::fmt::Display for ModelSwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model variant cannot change mid-run: engine runs {}, swap requested {}",
            self.running, self.requested
        )
    }
}

impl std::error::Error for ModelSwapError {}

/// Shared implementation of the engines' `set_model`: accept a parameter
/// overlay within the running variant, reject a variant change with a
/// typed error.
pub(crate) fn swap_model(current: &mut ModelKind, model: ModelKind) -> Result<(), ModelSwapError> {
    if model.is_aco() != current.is_aco() {
        return Err(ModelSwapError {
            running: current.name(),
            requested: model.name(),
        });
    }
    *current = model;
    Ok(())
}

/// Salted kernel indices within a step: `salt = step * 4 + KERNEL_*`.
pub(crate) const KERNEL_TOUR: u64 = 2;
/// Movement kernel salt offset.
pub(crate) const KERNEL_MOVE: u64 = 3;

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
    /// both engines.
    fn step_timings(&self) -> &StepTimings;

    /// The engine's telemetry recorder: per-stage duration histograms,
    /// kernel-launch counters, physics gauges, and the ring-buffered
    /// event log, fed by the unified step pipeline. Both engines expose
    /// the **same key vocabulary** — counters a backend has no machinery
    /// for (e.g. kernel launches on the CPU) are pre-registered at zero,
    /// so consumers never branch on the engine kind.
    fn telemetry(&self) -> &pedsim_obs::Recorder;

    /// The movement model in use.
    fn model(&self) -> ModelKind;

    /// The traversal mode this engine steps with. Each reference backend
    /// has one: `scalar` always reports `Sparse` (agent loops), `simt`
    /// always `Dense` (one thread per cell). Only `pooled` reads
    /// [`SimConfig::iteration`](crate::params::SimConfig::iteration):
    /// `Auto` settles to `Dense` or `Sparse` against the world's initial
    /// occupancy, explicit modes pass through. Recorded in bench and run
    /// provenance.
    fn iteration_mode(&self) -> crate::params::IterationMode;

    /// Snapshot of the environment matrix (cell labels).
    fn mat_snapshot(&self) -> Matrix<u8>;

    /// Snapshot of agent positions: `(row, col)` vectors indexed by agent
    /// (slot 0 = sentinel).
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

    fn iteration_mode(&self) -> crate::params::IterationMode {
        (**self).iteration_mode()
    }

    fn mat_snapshot(&self) -> Matrix<u8> {
        (**self).mat_snapshot()
    }

    fn positions(&self) -> (Vec<u16>, Vec<u16>) {
        (**self).positions()
    }
}
