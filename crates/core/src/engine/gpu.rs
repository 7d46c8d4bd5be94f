//! The virtual-GPU engine: the paper's data-driven pipeline on `simt`.
//!
//! Each step launches the four kernels of §IV (supporting init, initial
//! calculation, tour construction, agent movement) with the geometry the
//! paper uses: 16×16-thread blocks for the per-cell kernels (256 threads —
//! the 100 %-occupancy configuration), 256-thread 1-D blocks for the
//! per-agent kernels. Under `ExecPolicy::Parallel` the blocks of each
//! launch run concurrently on the worker pool; under
//! `ExecPolicy::Sequential` the same kernels run on one host thread (used
//! by tests to pin down scheduling independence). The per-cell sweep is
//! this backend's only traversal: [`Engine::iteration_mode`] always
//! reports [`IterationMode::Dense`].
//!
//! Step orchestration (sequencing, counting, per-stage timing, metrics,
//! lifecycle) lives in the shared [`StepCore`], and the [`Sim`] shell
//! supplies [`Engine`]; this file only maps each kernel [`Stage`] to its
//! launch ([`StageBackend`]) and accumulates the launch stats into the
//! [`KernelReport`].
//!
//! [`Engine`]: super::Engine
//! [`Engine::iteration_mode`]: super::Engine::iteration_mode
//! [`StepCore`]: super::StepCore

use pedsim_grid::cell::{Group, CELL_EMPTY};
use pedsim_grid::{Environment, Matrix};
use simt::exec::{BlockKernel, LaunchConfig};
use simt::profile::KernelProfile;
use simt::{Device, Dim2};

use crate::kernels::{DeviceState, InitKernel, InitialCalcKernel, MovementKernel, TourKernel};
use crate::metrics::Metrics;
use crate::params::{IterationMode, ModelKind, SimConfig};

use super::lifecycle::{LifecycleWorld, OpenLifecycle};
use super::pipeline::{Stage, StageBackend};
use super::{split_positions, Sim};
use crate::world::CompiledWorld;

/// The open-boundary lifecycle drives the device state directly: the
/// launches are synchronous, so between steps the buffers are in their
/// host phase and plain mutation is the device-memory host write.
impl LifecycleWorld for DeviceState {
    fn is_alive(&self, i: usize) -> bool {
        self.alive[i] != 0
    }

    fn position(&self, i: usize) -> usize {
        self.pos.as_slice()[i] as usize
    }

    fn is_cell_empty(&self, r: u16, c: u16) -> bool {
        self.mat[self.cur].as_slice()[r as usize * self.w + c as usize] == CELL_EMPTY
    }

    fn despawn(&mut self, g: Group, i: usize) {
        let lin = self.position(i);
        let cur = self.cur;
        debug_assert_eq!(self.index[cur].as_slice()[lin], i as u32);
        self.mat[cur].as_mut_slice()[lin] = CELL_EMPTY;
        self.index[cur].as_mut_slice()[lin] = 0;
        self.alive[i] = 0;
        self.live -= 1;
        self.free[g.index()].insert(i as u32);
    }

    fn spawn(&mut self, g: Group, r: u16, c: u16) -> Option<u32> {
        let idx = self.free[g.index()].pop_first()?;
        let lin = r as usize * self.w + c as usize;
        let cur = self.cur;
        self.mat[cur].as_mut_slice()[lin] = g.label();
        self.index[cur].as_mut_slice()[lin] = idx;
        self.pos.as_mut_slice()[idx as usize] = lin as u32;
        self.tour.as_mut_slice()[idx as usize] = 0.0;
        self.alive[idx as usize] = 1;
        self.live += 1;
        Some(idx)
    }
}

/// Per-kernel cumulative profiles, indexed init/calc/tour/move. Launch
/// counts, blocks and threads are the `kernel.*` telemetry counters, and
/// stage wall time is [`StepTimings`](super::StepTimings).
#[derive(Debug, Clone, Default)]
pub struct KernelReport {
    /// Cumulative profiles per kernel (empty unless the device profiles).
    pub profile: [KernelProfile; 4],
}

/// The data-driven engine on the virtual GPU: the [`Sim`] shell over
/// [`GpuBackend`].
pub type GpuEngine = Sim<GpuBackend>;

/// The GPU engine's kernel-stage executor: device, device-resident world
/// state, and the per-kernel launch report.
pub struct GpuBackend {
    seed: u64,
    device: Device,
    state: DeviceState,
    report: KernelReport,
    /// Launch geometry for the per-cell kernels (initial-calc, movement),
    /// built once — per step only the salt changes. Rebuilding these in
    /// the launch path showed up as per-step overhead in the
    /// `initial_calc` stage profile.
    lc_cells: LaunchConfig,
    /// Launch geometry for the per-row init kernel (`n + 1` rows).
    lc_init: LaunchConfig,
    /// Launch geometry for the per-agent tour kernel (`n` rows).
    lc_tour: LaunchConfig,
}

impl GpuEngine {
    /// Build the engine on `device` (runs data preparation and upload of
    /// the configuration's scenario).
    pub fn new(cfg: SimConfig, device: Device) -> Self {
        Self::build_cold(cfg, device)
    }

    /// Build per-replica engine state on `device` from an already
    /// compiled world ([`Sim::build`]).
    pub fn from_world(
        world: &std::sync::Arc<CompiledWorld>,
        cfg: SimConfig,
        device: Device,
    ) -> Self {
        Self::build(world, cfg, device)
    }

    /// Cumulative per-kernel profiles.
    pub fn report(&self) -> &KernelReport {
        &self.backend.report
    }

    /// Download the full environment for inspection/validation.
    pub fn download_environment(&self) -> Environment {
        self.backend.state.download(self.backend.seed)
    }

    /// Current pheromone fields, one matrix per group in index order (ACO
    /// only).
    pub fn pheromone_snapshot(&self) -> Option<Vec<Matrix<f32>>> {
        let st = &self.backend.state;
        let p = st.pher.as_ref()?;
        let cur = st.cur;
        Some(
            p.fields
                .iter()
                .map(|f| Matrix::from_vec(st.h, st.w, f[cur].as_slice().to_vec()))
                .collect(),
        )
    }
}

impl GpuBackend {
    /// 1-D launch geometry covering `rows` items in 256-thread blocks.
    fn rows_config(rows: usize) -> LaunchConfig {
        let blocks = (rows as u32).div_ceil(256).max(1);
        LaunchConfig::new(Dim2::new(blocks, 1), Dim2::new(256, 1))
    }

    /// Launch one kernel and fold its stats into report slot `k` and the
    /// telemetry recorder. Associated (not `&mut self`) so the kernel may
    /// keep borrowing `self.state` while the report is written.
    fn launch_counted<K: BlockKernel>(
        device: &Device,
        report: &mut KernelReport,
        rec: &mut pedsim_obs::Recorder,
        k: usize,
        cfg: &LaunchConfig,
        kernel: &K,
        what: &str,
    ) {
        use super::pipeline::{KERNEL_BLOCK_KEYS, KERNEL_LAUNCH_KEYS, KERNEL_THREAD_KEYS};
        let stats = device
            .launch(cfg, kernel)
            .unwrap_or_else(|e| panic!("{what} launch: {e:?}"));
        if let Some(p) = stats.profile {
            report.profile[k] = report.profile[k].merged(p);
        }
        rec.inc(KERNEL_LAUNCH_KEYS[k], 1);
        rec.inc(KERNEL_BLOCK_KEYS[k], stats.blocks as u64);
        rec.inc(KERNEL_THREAD_KEYS[k], stats.threads);
    }
}

impl StageBackend for GpuBackend {
    type Args = Device;

    fn build(world: &CompiledWorld, env: Environment, cfg: SimConfig, device: Device) -> Self {
        let state = DeviceState::upload(&env, &world.distance(), cfg.model, cfg.checked);
        let seed = cfg.env.seed;
        let lc_cells =
            LaunchConfig::tiled_over(Dim2::new(state.w as u32, state.h as u32), Dim2::square(16))
                .with_seed(seed);
        Self {
            lc_init: Self::rows_config(state.n + 1).with_seed(seed),
            lc_tour: Self::rows_config(state.n).with_seed(seed),
            lc_cells,
            seed,
            device,
            state,
            report: KernelReport::default(),
        }
    }

    fn run_stage(
        &mut self,
        stage: Stage,
        step_no: u64,
        model: ModelKind,
        rec: &mut pedsim_obs::Recorder,
        _metrics: Option<&mut Metrics>,
    ) {
        let base = step_no * 4;
        let st = &self.state;
        let cur = st.cur;
        let nxt = 1 - cur;
        match stage {
            Stage::Init => {
                // Kernel 1: supporting init (§IV.e).
                st.scan_val.begin_epoch();
                st.scan_idx.begin_epoch();
                st.future_row.begin_epoch();
                st.future_col.begin_epoch();
                let init = InitKernel {
                    rows: st.n + 1,
                    scan_val: st.scan_val.view(),
                    scan_idx: st.scan_idx.view(),
                    future_row: st.future_row.view(),
                    future_col: st.future_col.view(),
                };
                let lcfg = self.lc_init.with_salt(base);
                Self::launch_counted(&self.device, &mut self.report, rec, 0, &lcfg, &init, "init");
            }
            Stage::InitialCalc => {
                // Kernel 2: initial calculation (§IV.b).
                st.scan_val.begin_epoch();
                st.scan_idx.begin_epoch();
                st.front.begin_epoch();
                st.front_k.begin_epoch();
                let pher_slices = st.pher.as_ref().map(|p| p.slices(cur));
                let calc = InitialCalcKernel {
                    w: st.w,
                    h: st.h,
                    mat_in: st.mat[cur].as_slice(),
                    index_in: st.index[cur].as_slice(),
                    dist: st.dist_ref(),
                    pher_in: pher_slices.as_deref(),
                    model,
                    scan_val: st.scan_val.view(),
                    scan_idx: st.scan_idx.view(),
                    front: st.front.view(),
                    front_k: st.front_k.view(),
                };
                let lcfg = self.lc_cells.with_salt(base + 1);
                Self::launch_counted(
                    &self.device,
                    &mut self.report,
                    rec,
                    1,
                    &lcfg,
                    &calc,
                    "initial_calc",
                );
            }
            Stage::Tour => {
                // Kernel 3: tour construction (§IV.c).
                st.future_row.begin_epoch();
                st.future_col.begin_epoch();
                let tour = TourKernel {
                    n: st.n,
                    w: st.w,
                    alive: &st.alive,
                    scan_val: st.scan_val.as_slice(),
                    scan_idx: st.scan_idx.as_slice(),
                    front: st.front.as_slice(),
                    front_k: st.front_k.as_slice(),
                    pos: st.pos.as_slice(),
                    future_row: st.future_row.view(),
                    future_col: st.future_col.view(),
                    model,
                };
                let lcfg = self.lc_tour.with_salt(base + 2);
                Self::launch_counted(&self.device, &mut self.report, rec, 2, &lcfg, &tour, "tour");
            }
            Stage::Movement => {
                // Kernel 4: agent movement (§IV.d).
                st.mat[nxt].begin_epoch();
                st.index[nxt].begin_epoch();
                st.pos.begin_epoch();
                st.tour.begin_epoch();
                if let Some(p) = st.pher.as_ref() {
                    p.begin_epoch(nxt);
                }
                let aco = match model {
                    ModelKind::Aco(p) => Some(p),
                    ModelKind::Lem(_) => None,
                };
                let pher_slices = st.pher.as_ref().map(|p| p.slices(cur));
                let pher_views = st.pher.as_ref().map(|p| p.views(nxt));
                let mv = MovementKernel {
                    w: st.w,
                    h: st.h,
                    mat_in: st.mat[cur].as_slice(),
                    index_in: st.index[cur].as_slice(),
                    future_row: st.future_row.as_slice(),
                    future_col: st.future_col.as_slice(),
                    id: &st.id,
                    pos: st.pos.view(),
                    tour: st.tour.view(),
                    mat_out: st.mat[nxt].view(),
                    index_out: st.index[nxt].view(),
                    pher_in: pher_slices.as_deref(),
                    pher_out: pher_views.as_deref(),
                    aco,
                };
                let lcfg = self.lc_cells.with_salt(base + 3);
                Self::launch_counted(
                    &self.device,
                    &mut self.report,
                    rec,
                    3,
                    &lcfg,
                    &mv,
                    "movement",
                );
                self.state.cur = nxt;
            }
            Stage::Lifecycle | Stage::Metrics => unreachable!("core-driven stage"),
        }
    }

    fn observe(&self, metrics: &mut Metrics) {
        // The movement kernel's arrivals: a winner's new cell was empty
        // in the pre-step index (the other ping-pong side), so a live
        // agent moved exactly when that side does not hold it at its
        // current cell. The scan is O(n); this backend is the paper's
        // mapping, not the timed path.
        let st = &self.state;
        let before = st.index[1 - st.cur].as_slice();
        let pos = st.pos.as_slice();
        let movers = (1..=st.n as u32)
            .filter(|&a| st.alive[a as usize] != 0 && before[pos[a as usize] as usize] != a);
        metrics.observe(movers, pos);
    }

    fn run_lifecycle(
        &mut self,
        lifecycle: &OpenLifecycle,
        step: u64,
        metrics: Option<&mut Metrics>,
    ) {
        // Open-boundary phases on the host side of the synchronous step:
        // sinks drain arrivals (already counted by the metrics
        // observation), sources feed the next launch.
        lifecycle.run_step(&mut self.state, step, metrics);
    }

    fn iteration_mode(&self) -> IterationMode {
        IterationMode::Dense
    }

    fn mat_snapshot(&self) -> Matrix<u8> {
        let st = &self.state;
        Matrix::from_vec(st.h, st.w, st.mat[st.cur].as_slice().to_vec())
    }

    fn positions(&self) -> (Vec<u16>, Vec<u16>) {
        split_positions(self.state.pos.as_slice(), self.state.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use pedsim_grid::EnvConfig;
    use simt::exec::ExecPolicy;

    fn engine(model: ModelKind, policy: ExecPolicy, seed: u64) -> GpuEngine {
        let env = EnvConfig::small(32, 32, 30).with_seed(seed);
        let device = Device::builder().policy(policy).build();
        GpuEngine::new(SimConfig::new(env, model).with_checked(true), device)
    }

    #[test]
    fn consistency_preserved_over_steps() {
        for model in [ModelKind::lem(), ModelKind::aco()] {
            let mut e = engine(model, ExecPolicy::Sequential, 3);
            e.run(40);
            e.download_environment()
                .check_consistency()
                .unwrap_or_else(|err| panic!("{} inconsistent: {err}", model.name()));
        }
    }

    #[test]
    fn agents_cross_eventually() {
        let mut e = engine(ModelKind::lem(), ExecPolicy::Parallel { workers: 4 }, 5);
        e.run(120);
        let m = e.metrics().expect("metrics");
        assert!(m.throughput() > 0, "no crossings in 120 steps");
    }

    /// An ACO engine on a sequential device that profiles its launches.
    fn profiled(seed: u64) -> GpuEngine {
        let env = EnvConfig::small(32, 32, 30).with_seed(seed);
        let device = Device::builder()
            .policy(ExecPolicy::Sequential)
            .profiling(true)
            .build();
        GpuEngine::new(
            SimConfig::new(env, ModelKind::aco()).with_checked(true),
            device,
        )
    }

    #[test]
    fn kernel_report_accumulates() {
        let mut e = profiled(1);
        e.step();
        let first = e.report().profile;
        e.run(4);
        // Each launch has fixed geometry, so five steps profile five
        // times the threads of one.
        for (k, (p, p1)) in e.report().profile.iter().zip(&first).enumerate() {
            assert!(p1.threads > 0, "kernel {k} unprofiled");
            assert_eq!(p.threads, 5 * p1.threads, "kernel {k}");
        }
    }

    #[test]
    fn profiling_device_reports_no_divergence_in_calc() {
        let mut e = profiled(2);
        e.run(3);
        // The paper's claim: the predicated formulation records no warp
        // divergence in the scoring and movement kernels.
        assert_eq!(e.report().profile[1].divergent_branches, 0);
        assert_eq!(e.report().profile[3].divergent_branches, 0);
        assert!(e.report().profile[1].threads > 0);
    }

    #[test]
    fn pheromone_snapshot_present_only_for_aco() {
        let mut a = engine(ModelKind::aco(), ExecPolicy::Sequential, 1);
        a.run(5);
        assert!(a.pheromone_snapshot().is_some());
        let mut l = engine(ModelKind::lem(), ExecPolicy::Sequential, 1);
        l.run(5);
        assert!(l.pheromone_snapshot().is_none());
    }
}
