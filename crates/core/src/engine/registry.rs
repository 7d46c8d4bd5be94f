//! The runtime-selectable backend registry.
//!
//! Every engine implementation registers itself here as an
//! [`EngineBackend`] descriptor — a name, a one-line summary, and a
//! constructor producing a boxed [`Engine`]. Callers (the runner, the
//! benches, the CLI flags) select a backend **by name** through
//! [`Backend`], so a new backend drops in by adding one descriptor to
//! [`BACKENDS`] without touching any engine or any call site.
//!
//! Three backends ship today:
//!
//! | name     | engine                      | execution                               |
//! |----------|-----------------------------|-----------------------------------------|
//! | `scalar` | [`cpu::CpuEngine`]          | single-threaded host loops (reference)  |
//! | `pooled` | [`pooled::PooledEngine`]    | tile-parallel host bands on a pool      |
//! | `simt`   | [`gpu::GpuEngine`]          | virtual-GPU kernel pipeline             |
//!
//! All three are bit-identical in trajectory for equal configurations
//! (the cross-backend golden parity tests), so the choice is purely a
//! performance/instrumentation trade.
//!
//! [`cpu::CpuEngine`]: super::cpu::CpuEngine
//! [`pooled::PooledEngine`]: super::pooled::PooledEngine
//! [`gpu::GpuEngine`]: super::gpu::GpuEngine

use std::sync::Arc;

use simt::exec::ExecPolicy;
use simt::Device;

use crate::params::SimConfig;
use crate::world::CompiledWorld;

use super::cpu::CpuEngine;
use super::gpu::GpuEngine;
use super::pooled::PooledEngine;
use super::Engine;

/// A registered engine backend: the unit of extension for new execution
/// strategies.
#[derive(Debug)]
pub struct EngineBackend {
    /// Registry key (`scalar` / `pooled` / `simt` / …), stable across
    /// releases — recorded verbatim in results provenance.
    pub name: &'static str,
    /// One-line human summary for `--help` style listings.
    pub summary: &'static str,
    /// Whether `threads` changes this backend's execution (parallel
    /// backends); serial backends ignore the thread count.
    pub parallel: bool,
    /// Build per-replica engine state over a shared compiled world with
    /// `threads` workers — every backend flows through its engine's
    /// `from_world` constructor, so there is exactly one setup path and
    /// no backend-specific drift.
    pub build: fn(&Arc<CompiledWorld>, SimConfig, usize) -> Box<dyn Engine + Send>,
}

impl EngineBackend {
    /// Construct this backend's engine from a shared compiled world.
    pub fn build(
        &self,
        world: &Arc<CompiledWorld>,
        cfg: SimConfig,
        threads: usize,
    ) -> Box<dyn Engine + Send> {
        (self.build)(world, cfg, threads)
    }

    /// Compile-then-construct convenience for callers without a shared
    /// world at hand.
    pub fn build_cold(&self, cfg: SimConfig, threads: usize) -> Box<dyn Engine + Send> {
        let world = CompiledWorld::compile(&cfg);
        self.build(&world, cfg, threads)
    }
}

fn build_scalar(
    world: &Arc<CompiledWorld>,
    cfg: SimConfig,
    _threads: usize,
) -> Box<dyn Engine + Send> {
    Box::new(CpuEngine::from_world(world, cfg))
}

fn build_pooled(
    world: &Arc<CompiledWorld>,
    cfg: SimConfig,
    threads: usize,
) -> Box<dyn Engine + Send> {
    Box::new(PooledEngine::from_world(world, cfg, threads))
}

fn build_simt(
    world: &Arc<CompiledWorld>,
    cfg: SimConfig,
    threads: usize,
) -> Box<dyn Engine + Send> {
    let policy = if threads <= 1 {
        ExecPolicy::Sequential
    } else {
        ExecPolicy::Parallel { workers: threads }
    };
    let device = Device::builder().policy(policy).build();
    Box::new(GpuEngine::from_world(world, cfg, device))
}

/// Every registered backend, in presentation order.
pub const BACKENDS: &[EngineBackend] = &[
    EngineBackend {
        name: "scalar",
        summary: "single-threaded host reference engine",
        parallel: false,
        build: build_scalar,
    },
    EngineBackend {
        name: "pooled",
        summary: "tile-parallel pooled CPU engine (worker-pool row bands)",
        parallel: true,
        build: build_pooled,
    },
    EngineBackend {
        name: "simt",
        summary: "virtual-GPU kernel pipeline (sequential or parallel policy)",
        parallel: true,
        build: build_simt,
    },
];

/// Look up a backend descriptor by registry key.
pub fn lookup(name: &str) -> Result<&'static EngineBackend, UnknownBackend> {
    BACKENDS
        .iter()
        .find(|b| b.name == name)
        .ok_or_else(|| UnknownBackend {
            requested: name.to_string(),
        })
}

/// All registered backend names, in presentation order.
pub fn names() -> Vec<&'static str> {
    BACKENDS.iter().map(|b| b.name).collect()
}

/// The requested backend name is not in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend {
    /// The name the caller asked for.
    pub requested: String,
}

impl std::fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown backend {:?}; known backends: {}",
            self.requested,
            names().join(", ")
        )
    }
}

impl std::error::Error for UnknownBackend {}

/// A backend *selection*: a registry key plus a worker thread count —
/// the value jobs and benches carry around and record in provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backend {
    /// Registry key to resolve at build time.
    pub name: String,
    /// Worker threads for parallel backends (serial backends ignore it;
    /// clamped to at least 1 at build time).
    pub threads: usize,
}

impl Backend {
    /// Select a backend by name with a thread count.
    pub fn named(name: impl Into<String>, threads: usize) -> Self {
        Self {
            name: name.into(),
            threads: threads.max(1),
        }
    }

    /// The single-threaded reference engine.
    pub fn scalar() -> Self {
        Self::named("scalar", 1)
    }

    /// The tile-parallel pooled CPU engine with `threads` workers.
    pub fn pooled(threads: usize) -> Self {
        Self::named("pooled", threads)
    }

    /// The virtual-GPU engine (sequential policy).
    pub fn simt() -> Self {
        Self::named("simt", 1)
    }

    /// Resolve the selection against the registry (the runner's
    /// validation hook — fails with the typed error before any run
    /// starts).
    pub fn resolve(&self) -> Result<&'static EngineBackend, UnknownBackend> {
        lookup(&self.name)
    }

    /// Resolve and construct the engine (compiles the world itself; use
    /// [`Backend::build_from_world`] to share a compiled artifact).
    pub fn build(&self, cfg: SimConfig) -> Result<Box<dyn Engine + Send>, UnknownBackend> {
        Ok(self.resolve()?.build_cold(cfg, self.threads))
    }

    /// Resolve and construct the engine over a shared compiled world —
    /// the runner's per-replica path.
    pub fn build_from_world(
        &self,
        world: &Arc<CompiledWorld>,
        cfg: SimConfig,
    ) -> Result<Box<dyn Engine + Send>, UnknownBackend> {
        Ok(self.resolve()?.build(world, cfg, self.threads))
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/t{}", self.name, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelKind;
    use pedsim_grid::EnvConfig;

    fn small_cfg() -> SimConfig {
        SimConfig::new(EnvConfig::small(16, 16, 8).with_seed(3), ModelKind::lem())
    }

    #[test]
    fn registry_lists_three_backends() {
        assert_eq!(names(), vec!["scalar", "pooled", "simt"]);
        assert!(!lookup("scalar").unwrap().parallel);
        assert!(lookup("pooled").unwrap().parallel);
    }

    #[test]
    fn unknown_backend_is_a_typed_error() {
        let err = lookup("cuda").unwrap_err();
        assert_eq!(err.requested, "cuda");
        let msg = err.to_string();
        assert!(msg.contains("cuda") && msg.contains("pooled"), "{msg}");
        let err2 = Backend::named("opencl", 2).resolve().unwrap_err();
        assert_eq!(err2.requested, "opencl");
    }

    #[test]
    fn every_backend_builds_and_steps() {
        for b in BACKENDS {
            let mut e = b.build_cold(small_cfg(), 2);
            e.run(3);
            assert_eq!(e.steps_done(), 3, "{}", b.name);
        }
    }

    #[test]
    fn all_backends_share_one_compiled_world_bit_for_bit() {
        // One compilation serves every backend; trajectories match a
        // backend that compiled its own world.
        let world = CompiledWorld::compile(&small_cfg());
        let mut reference = Backend::scalar().build(small_cfg()).expect("known");
        reference.run(12);
        for b in BACKENDS {
            let mut e = b.build(&world, small_cfg(), 2);
            e.run(12);
            assert_eq!(e.mat_snapshot(), reference.mat_snapshot(), "{}", b.name);
            assert_eq!(e.positions(), reference.positions(), "{}", b.name);
        }
    }

    #[test]
    fn selections_agree_bit_for_bit() {
        let mut snaps = Vec::new();
        for sel in [
            Backend::scalar(),
            Backend::pooled(1),
            Backend::pooled(4),
            Backend::simt(),
            Backend::named("simt", 3),
        ] {
            let mut e = sel.build(small_cfg()).expect("known backend");
            e.run(12);
            snaps.push((sel.to_string(), e.mat_snapshot(), e.positions()));
        }
        for (name, mat, pos) in &snaps[1..] {
            assert_eq!(mat, &snaps[0].1, "{name} diverged from scalar");
            assert_eq!(pos, &snaps[0].2, "{name} positions diverged");
        }
    }

    #[test]
    fn only_pooled_honours_the_iteration_knob() {
        use crate::params::IterationMode;
        for mode in [
            IterationMode::Auto,
            IterationMode::Dense,
            IterationMode::Sparse,
        ] {
            let cfg = small_cfg().with_iteration_mode(mode);
            let built = |b: Backend| b.build(cfg.clone()).expect("known").iteration_mode();
            assert_eq!(built(Backend::scalar()), IterationMode::Sparse, "{mode:?}");
            assert_eq!(built(Backend::simt()), IterationMode::Dense, "{mode:?}");
            assert_eq!(
                built(Backend::pooled(2)),
                mode.resolve(16, 16 * 16),
                "{mode:?}"
            );
        }
    }

    /// Every backend takes a model swap through [`Engine::set_model`]
    /// alike: a variant change, a τ₀ that is not finite and positive, and
    /// a ρ outside `[0, 1]` are typed errors that leave the running model
    /// in place, and an overlay is taken. Building an engine with such a
    /// τ₀ or ρ panics on every backend.
    #[test]
    fn every_backend_checks_model_swaps_and_models_alike() {
        use crate::engine::ModelSwapError::{Invalid, Variant};
        use crate::params::{AcoParams, InvalidModel};
        let aco = |tau0, rho| {
            let p = AcoParams::default();
            ModelKind::Aco(AcoParams { tau0, rho, ..p })
        };
        let with_model = |model| SimConfig {
            model,
            ..small_cfg()
        };
        for b in BACKENDS {
            let mut e = b.build_cold(small_cfg(), 2);
            let err = e.set_model(ModelKind::aco()).unwrap_err();
            let expected = Variant {
                running: "LEM",
                requested: "ACO",
            };
            assert!(
                err == expected && err.to_string().contains("variant"),
                "{err}"
            );
            let mut e = b.build_cold(with_model(aco(0.2, 0.5)), 2);
            assert_eq!(e.set_model(ModelKind::aco()), Ok(()), "{}", b.name);
            for (tau0, rho, why) in [
                (0.0, 0.02, InvalidModel::Tau0(0.0)),
                (-0.1, 0.02, InvalidModel::Tau0(-0.1)),
                (f32::INFINITY, 0.02, InvalidModel::Tau0(f32::INFINITY)),
                (0.1, -0.01, InvalidModel::Rho(-0.01)),
                (0.1, 1.5, InvalidModel::Rho(1.5)),
            ] {
                let bad = aco(tau0, rho);
                assert_eq!(e.set_model(bad), Err(Invalid(why)), "{}", b.name);
                assert_eq!(e.model(), ModelKind::aco(), "{}: model changed", b.name);
                let built = std::panic::catch_unwind(|| b.build_cold(with_model(bad), 2));
                let msg = built.err().and_then(|p| p.downcast::<String>().ok());
                assert!(
                    msg.is_some_and(|m| m.contains(&why.to_string())),
                    "{}",
                    b.name
                );
            }
            e.run(3);
            assert_eq!(e.steps_done(), 3, "{}", b.name);
        }
    }

    #[test]
    fn thread_count_floors_at_one() {
        let b = Backend::named("pooled", 0);
        assert_eq!(b.threads, 1);
        assert_eq!(b.to_string(), "pooled/t1");
    }
}
