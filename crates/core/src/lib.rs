//! # pedsim-core — nature-inspired bi-directional pedestrian simulation
//!
//! The primary contribution of Dutta, McLeod & Friesen (IPDPS-W 2014):
//! large-scale bi-directional pedestrian movement under two nature-inspired
//! models — the **Least Effort Model** (eq. 1) and a **modified Ant
//! System** (eqs. 2–5) — implemented as a data-driven four-kernel GPU
//! pipeline plus a single-threaded reference.
//!
//! ## Layout
//!
//! * [`params`] — model parameters and [`params::SimConfig`] (which may
//!   carry a `pedsim-scenario` world: interior obstacles, arbitrary
//!   spawn/target regions, flow-field routing);
//! * [`model`] — the pure decision functions (scoring, selection, conflict
//!   resolution) both engines share;
//! * [`kernels`] — the four `simt` kernels (§IV.b–e) and the device buffer
//!   set, plus the atomic-CAS movement variant kept for ablations;
//! * [`engine`] — [`engine::cpu::CpuEngine`] (sequential reference),
//!   [`engine::pooled::PooledEngine`] (tile-parallel fast path) and
//!   [`engine::gpu::GpuEngine`] (virtual GPU, sequential or parallel
//!   policy): each the one [`engine::Sim`] shell over its backend's
//!   kernel stages ([`engine::StageBackend`]), so all three step, report
//!   and swap models ([`engine::Engine::set_model`]) the same way;
//! * [`metrics`] — throughput (the paper's §VI result metric), gridlock,
//!   lane formation;
//! * [`validate`] — exact cross-engine trajectory comparison;
//! * [`extensions`] — the paper's future-work features, implemented
//!   (panic alarm on any engine; widened scanning ranges).
//!
//! The `scenario` layer (crate `pedsim-scenario`, re-exported through the
//! prelude) sits between `pedsim-grid` and the engines: declarative worlds
//! — named spawn/target regions and interior obstacle cells — compile to
//! an [`pedsim_grid::Environment`] plus a distance field, and both engines
//! consume them through [`params::SimConfig::from_scenario`].
//!
//! ## Quickstart
//!
//! ```
//! use pedsim_core::prelude::*;
//!
//! let env = EnvConfig::small(32, 32, 30).with_seed(7);
//! let cfg = SimConfig::new(env, ModelKind::aco());
//! let mut engine = GpuEngine::new(cfg, simt::Device::parallel());
//! engine.run(50);
//! let m = engine.metrics().expect("metrics on by default");
//! println!("throughput after 50 steps: {}", m.throughput());
//! ```

#![warn(missing_docs)]
// Soundness gates (DESIGN.md §14): every unsafe operation inside an
// unsafe fn needs its own block + SAFETY comment, and stale blocks fail
// the build instead of rotting.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(unused_unsafe)]

pub mod engine;
pub mod extensions;
pub mod kernels;
pub mod metrics;
pub mod model;
pub mod params;
pub mod validate;
pub mod world;

/// The commonly-used public surface.
pub mod prelude {
    pub use crate::engine::cpu::CpuEngine;
    pub use crate::engine::gpu::GpuEngine;
    pub use crate::engine::pooled::PooledEngine;
    pub use crate::engine::{
        Backend, Engine, EngineBackend, InvalidStopCondition, ModelSwapError, StopCondition,
        StopReason, UnknownBackend,
    };
    pub use crate::metrics::{band_count, lane_index, segregation_index, Geometry, Metrics};
    pub use crate::params::{AcoParams, IterationMode, LemParams, ModelKind, SimConfig};
    pub use crate::validate::engines_agree;
    pub use crate::world::{CacheStats, CompiledWorld, WorldCache};
    pub use pedsim_grid::{EnvConfig, Environment};
    pub use pedsim_obs::{Histogram, Recorder};
    pub use pedsim_scenario::{registry as scenarios, Region, Scenario, ScenarioBuilder};
}
