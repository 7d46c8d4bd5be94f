//! Ablations of the paper's §IV implementation techniques and the model
//! constants DESIGN.md lists as unspecified.
//!
//! * [`movement_variants`] — scatter-to-gather (§IV.d) vs the rejected
//!   atomic-CAS formulation: wall time and atomic-op counts;
//! * [`divergence_demo`] — branchy vs branchless (logical-operator)
//!   selection: recorded warp divergence and modelled cycles;
//! * [`tiled_variants`] — 18×18 shared-tile loads (Figure 3) vs direct
//!   global reads in the scoring kernel. Note the honest caveat: on a
//!   *host-parallel* substrate the tile copy is pure overhead (host caches
//!   do what shared memory does on Fermi), so the wall-clock winner flips;
//!   the modelled-cycle column shows why the tile wins on the real device;
//! * [`param_sweep`] — throughput sensitivity to the unspecified
//!   constants (LEM σ; ACO ρ).

use std::time::Duration;

use pedsim_core::kernels::{
    AtomicMovementKernel, DeviceState, InitialCalcKernel, MovementKernel, TourKernel,
};
use pedsim_core::model::{availability, front_status, lem_scan_row};
use pedsim_core::params::{AcoParams, LemParams, ModelKind, SimConfig};
use pedsim_core::prelude::*;
use pedsim_grid::cell::{Group, CELL_WALL};
use pedsim_grid::Matrix;
use pedsim_scenario::ScenarioError;
use simt::exec::{BlockCtx, BlockKernel, ExecPolicy, LaunchConfig};
use simt::memory::{AtomicBuffer, ScatterBuffer, ScatterView};
use simt::profile::{CycleModel, KernelProfile};
use simt::{Device, DeviceProps, Dim2};

use crate::report::{f3, secs, Table};

/// Prepare a device state with populated futures (init→calc→tour run
/// once), ready for movement-kernel experiments.
fn prepared_state(side: usize, agents: usize, seed: u64) -> DeviceState {
    let cfg = EnvConfig::small(side, side, agents / 2).with_seed(seed);
    let scenario = pedsim_scenario::registry::paper_corridor(&cfg);
    let env = scenario.build_environment();
    let state = DeviceState::upload(&env, &scenario.distance_data(), ModelKind::lem(), false);
    let device = Device::sequential();
    let calc = InitialCalcKernel {
        w: state.w,
        h: state.h,
        mat_in: state.mat[0].as_slice(),
        index_in: state.index[0].as_slice(),
        dist: state.dist_ref(),
        pher_in: None,
        model: ModelKind::lem(),
        scan_val: state.scan_val.view(),
        scan_idx: state.scan_idx.view(),
        front: state.front.view(),
        front_k: state.front_k.view(),
    };
    let cells =
        LaunchConfig::tiled_over(Dim2::new(state.w as u32, state.h as u32), Dim2::square(16))
            .with_seed(seed);
    device.launch(&cells, &calc).expect("calc");
    let tour = TourKernel {
        n: state.n,
        w: state.w,
        alive: &state.alive,
        scan_val: state.scan_val.as_slice(),
        scan_idx: state.scan_idx.as_slice(),
        front: state.front.as_slice(),
        front_k: state.front_k.as_slice(),
        pos: state.pos.as_slice(),
        future_row: state.future_row.view(),
        future_col: state.future_col.view(),
        model: ModelKind::lem(),
    };
    let rows = LaunchConfig::new(
        Dim2::new((state.n as u32).div_ceil(256), 1),
        Dim2::new(256, 1),
    )
    .with_seed(seed)
    .with_salt(2);
    device.launch(&rows, &tour).expect("tour");
    state
}

/// Result of the movement-variant comparison.
#[derive(Debug, Clone)]
pub struct MovementAblation {
    /// Cumulative launch time of the scatter-to-gather kernel.
    pub gather_time: Duration,
    /// Cumulative launch time of the atomic-CAS kernel.
    pub atomic_time: Duration,
    /// Atomic operations the CAS variant performed.
    pub atomic_ops: u64,
    /// One-launch profiles `(gather, atomic)` for the Fermi cost model.
    pub profiles: (KernelProfile, KernelProfile),
}

/// Compare the two movement formulations over `reps` launches of the same
/// post-tour state.
pub fn movement_variants(side: usize, agents: usize, reps: usize) -> MovementAblation {
    let state = prepared_state(side, agents, 97);
    let device = Device::builder()
        .policy(ExecPolicy::parallel_auto())
        .profiling(true)
        .build();
    let cells =
        LaunchConfig::tiled_over(Dim2::new(state.w as u32, state.h as u32), Dim2::square(16))
            .with_seed(97)
            .with_salt(3);
    let rows_cfg = LaunchConfig::new(
        Dim2::new((state.n as u32).div_ceil(256), 1),
        Dim2::new(256, 1),
    )
    .with_seed(97)
    .with_salt(3);

    // Scatter-to-gather: writes go to the ping-pong "next" buffers; inputs
    // are untouched, so every rep sees the identical state.
    let mut gather_time = Duration::ZERO;
    let mut gather_profile = KernelProfile::default();
    for rep in 0..reps {
        let k = MovementKernel {
            w: state.w,
            h: state.h,
            mat_in: state.mat[0].as_slice(),
            index_in: state.index[0].as_slice(),
            future_row: state.future_row.as_slice(),
            future_col: state.future_col.as_slice(),
            id: &state.id,
            pos: state.pos.view(),
            tour: state.tour.view(),
            mat_out: state.mat[1].view(),
            index_out: state.index[1].view(),
            pher_in: None,
            pher_out: None,
            aco: None,
        };
        let stats = device.launch(&cells, &k).expect("gather");
        gather_time += stats.duration;
        if rep == 0 {
            gather_profile = stats.profile.expect("profiling on");
        }
    }

    // Atomic CAS: mutates in place → reload outside the timed region.
    let mat_atomic = AtomicBuffer::new(state.w * state.h, 0);
    let index_atomic = AtomicBuffer::new(state.w * state.h, 0);
    let mat_src: Vec<u32> = state.mat[0]
        .as_slice()
        .iter()
        .map(|&v| u32::from(v))
        .collect();
    let index_src: Vec<u32> = state.index[0].as_slice().to_vec();
    let mut atomic_time = Duration::ZERO;
    let mut atomic_ops = 0u64;
    let mut atomic_profile = KernelProfile::default();
    for rep in 0..reps {
        mat_atomic.load_from(&mat_src);
        index_atomic.load_from(&index_src);
        let pos_scratch = ScatterBuffer::from_vec(state.pos.as_slice().to_vec(), false);
        let k = AtomicMovementKernel {
            w: state.w,
            n: state.n,
            mat: &mat_atomic,
            index: &index_atomic,
            future_row: state.future_row.as_slice(),
            future_col: state.future_col.as_slice(),
            id: &state.id,
            pos: pos_scratch.view(),
        };
        let stats = device.launch(&rows_cfg, &k).expect("atomic");
        atomic_time += stats.duration;
        if let Some(p) = stats.profile {
            atomic_ops += p.atomic_ops;
            if rep == 0 {
                atomic_profile = p;
            }
        }
    }

    MovementAblation {
        gather_time,
        atomic_time,
        atomic_ops,
        profiles: (gather_profile, atomic_profile),
    }
}

/// A deliberately branchy selection kernel (what the paper avoids).
struct BranchyKernel<'a> {
    data: &'a [u32],
    out: ScatterView<'a, u32>,
}

impl BlockKernel for BranchyKernel<'_> {
    fn block(&self, ctx: &mut BlockCtx) {
        ctx.threads(|t| {
            let i = t.global_linear();
            if i < self.data.len() {
                // Data-dependent branch: lanes disagree within warps.
                let v = if t.branch(self.data[i].is_multiple_of(2)) {
                    self.data[i] / 2
                } else {
                    self.data[i].wrapping_mul(3).wrapping_add(1)
                };
                t.alu(2);
                self.out.write(i, v);
            }
        });
    }
    fn name(&self) -> &'static str {
        "branchy_select"
    }
}

/// The branchless equivalent (the paper's logical-operator style).
struct BranchlessKernel<'a> {
    data: &'a [u32],
    out: ScatterView<'a, u32>,
}

impl BlockKernel for BranchlessKernel<'_> {
    fn block(&self, ctx: &mut BlockCtx) {
        ctx.threads(|t| {
            let i = t.global_linear();
            if i < self.data.len() {
                let x = self.data[i];
                let v = t.select(
                    x.is_multiple_of(2),
                    x / 2,
                    x.wrapping_mul(3).wrapping_add(1),
                );
                t.alu(2);
                self.out.write(i, v);
            }
        });
    }
    fn name(&self) -> &'static str {
        "branchless_select"
    }
}

/// Divergence-profile comparison of the two styles; returns
/// `(branchy, branchless)` profiles over one launch each.
pub fn divergence_demo(cells: usize) -> (KernelProfile, KernelProfile) {
    let data: Vec<u32> = (0..cells as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let out = ScatterBuffer::<u32>::zeroed(cells, false);
    let device = Device::builder()
        .policy(ExecPolicy::Sequential)
        .profiling(true)
        .build();
    let cfg = LaunchConfig::new(
        Dim2::new((cells as u32).div_ceil(256), 1),
        Dim2::new(256, 1),
    );
    out.begin_epoch();
    let branchy = device
        .launch(
            &cfg,
            &BranchyKernel {
                data: &data,
                out: out.view(),
            },
        )
        .expect("branchy")
        .profile
        .expect("profiling on");
    out.begin_epoch();
    let branchless = device
        .launch(
            &cfg,
            &BranchlessKernel {
                data: &data,
                out: out.view(),
            },
        )
        .expect("branchless")
        .profile
        .expect("profiling on");
    (branchy, branchless)
}

/// Render the divergence demo with modelled Fermi cycles.
pub fn divergence_table(branchy: &KernelProfile, branchless: &KernelProfile) -> Table {
    let model = CycleModel::default();
    let fermi = DeviceProps::gtx_560_ti_448();
    let mut t = Table::new(vec![
        "variant",
        "divergent_branches",
        "uniform_branches",
        "modelled_fermi_us",
    ]);
    for (name, p) in [("branchy", branchy), ("branchless (paper)", branchless)] {
        t.push_row(vec![
            name.to_string(),
            p.divergent_branches.to_string(),
            p.uniform_branches.to_string(),
            format!("{:.1}", model.seconds(p, &fermi) * 1e6),
        ]);
    }
    t
}

/// The scoring kernel without shared tiles: every neighbourhood access is
/// a direct global read.
struct UntiledCalcKernel<'a> {
    w: usize,
    h: usize,
    mat_in: &'a [u8],
    index_in: &'a [u32],
    dist: pedsim_grid::DistRef<'a>,
    scan_val: ScatterView<'a, f32>,
    scan_idx: ScatterView<'a, u8>,
    front: ScatterView<'a, u8>,
}

impl BlockKernel for UntiledCalcKernel<'_> {
    fn block(&self, ctx: &mut BlockCtx) {
        let (w, h) = (self.w, self.h);
        let mat = Matrix::from_vec(h, w, self.mat_in.to_vec());
        ctx.threads(|t| {
            let (r, c) = t.global_rc();
            if (r as usize) < h && (c as usize) < w {
                let (ri, ci) = (i64::from(r), i64::from(c));
                let occ = |rr: i64, cc: i64| mat.get_or(rr, cc, CELL_WALL);
                if let Some(g) = Group::from_label(occ(ri, ci)) {
                    let a = self.index_in[r as usize * w + c as usize] as usize;
                    let row =
                        lem_scan_row(availability(&occ, ri, ci), &occ, self.dist, g, ri, ci, 1);
                    t.note_global_loads(10);
                    for s in 0..8 {
                        self.scan_val.write(a * 8 + s, row.vals[s]);
                        self.scan_idx.write(a * 8 + s, row.idxs[s]);
                    }
                    let fk = self.dist.front_k(g, ri, ci);
                    self.front.write(a, front_status(&occ, fk, ri, ci));
                }
            }
        });
    }
    fn name(&self) -> &'static str {
        "initial_calc_untiled"
    }
}

/// Result of the tiled-vs-direct comparison.
#[derive(Debug, Clone)]
pub struct TiledAblation {
    /// Tiled (paper Figure 3) cumulative time.
    pub tiled_time: Duration,
    /// Direct-global cumulative time.
    pub direct_time: Duration,
    /// Profiles `(tiled, direct)` of one launch each.
    pub profiles: (KernelProfile, KernelProfile),
}

/// Compare tiled vs direct-global scoring over `reps` launches.
pub fn tiled_variants(side: usize, agents: usize, reps: usize) -> TiledAblation {
    let state = prepared_state(side, agents, 131);
    let device = Device::builder()
        .policy(ExecPolicy::parallel_auto())
        .profiling(true)
        .build();
    let cells =
        LaunchConfig::tiled_over(Dim2::new(state.w as u32, state.h as u32), Dim2::square(16));
    let mut tiled_time = Duration::ZERO;
    let mut direct_time = Duration::ZERO;
    let mut tiled_profile = KernelProfile::default();
    let mut direct_profile = KernelProfile::default();
    for i in 0..reps {
        let k = InitialCalcKernel {
            w: state.w,
            h: state.h,
            mat_in: state.mat[0].as_slice(),
            index_in: state.index[0].as_slice(),
            dist: state.dist_ref(),
            pher_in: None,
            model: ModelKind::lem(),
            scan_val: state.scan_val.view(),
            scan_idx: state.scan_idx.view(),
            front: state.front.view(),
            front_k: state.front_k.view(),
        };
        let s = device.launch(&cells, &k).expect("tiled");
        tiled_time += s.duration;
        if i == 0 {
            tiled_profile = s.profile.expect("profiling");
        }
        let k = UntiledCalcKernel {
            w: state.w,
            h: state.h,
            mat_in: state.mat[0].as_slice(),
            index_in: state.index[0].as_slice(),
            dist: state.dist_ref(),
            scan_val: state.scan_val.view(),
            scan_idx: state.scan_idx.view(),
            front: state.front.view(),
        };
        let s = device.launch(&cells, &k).expect("direct");
        direct_time += s.duration;
        if i == 0 {
            direct_profile = s.profile.expect("profiling");
        }
    }
    TiledAblation {
        tiled_time,
        direct_time,
        profiles: (tiled_profile, direct_profile),
    }
}

/// Throughput sensitivity sweep over one unspecified constant.
///
/// Runs at a medium density (~28 % fill) with a tight step budget — the
/// regime where Fig. 6a separates the models and where these constants
/// actually move the outcome (at low density every setting crosses
/// everyone and the sweep is flat). All twelve parameter settings run as
/// one concurrent batch, each replica exiting early once everyone has
/// arrived.
///
/// An error when `side` and `agents` describe no valid corridor.
pub fn param_sweep(side: usize, agents: usize, steps: u64) -> Result<Table, ScenarioError> {
    use pedsim_core::engine::StopCondition;
    use pedsim_runner::{Batch, Job};

    let agents = agents.max(side * side * 28 / 100);
    let env = EnvConfig::small(side, side, agents / 2).with_seed(555);
    let points: Vec<(&str, &str, String, ModelKind)> = [0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|&sigma| {
            let model = ModelKind::Lem(LemParams {
                sigma,
                ..LemParams::default()
            });
            ("LEM", "sigma", format!("{sigma}"), model)
        })
        .chain([0.005f32, 0.02, 0.1, 0.5].iter().map(|&rho| {
            let model = ModelKind::Aco(AcoParams {
                rho,
                ..AcoParams::default()
            });
            ("ACO", "rho", format!("{rho}"), model)
        }))
        .chain([0.5f32, 1.0, 2.0, 4.0].iter().map(|&beta| {
            let model = ModelKind::Aco(AcoParams {
                beta,
                ..AcoParams::default()
            });
            ("ACO", "beta", format!("{beta}"), model)
        }))
        .collect();

    let jobs = points
        .iter()
        .map(|(model_name, param, value, model)| {
            Ok(Job::backend(
                format!("{model_name}/{param}/{value}"),
                SimConfig::try_new(env, *model)?,
                Backend::simt(),
                StopCondition::arrived_or_steps(steps),
            ))
        })
        .collect::<Result<Vec<Job>, ScenarioError>>()?;
    let report = Batch::auto().run(&jobs);

    let mut t = Table::new(vec!["model", "parameter", "value", "throughput"]);
    for (model_name, param, value, _) in &points {
        let label = format!("{model_name}/{param}/{value}");
        let tp = report
            .with_label(&label)
            .next()
            .and_then(|r| r.throughput)
            .expect("every sweep point tracked metrics");
        t.push_row(vec![
            (*model_name).to_string(),
            (*param).to_string(),
            value.clone(),
            tp.to_string(),
        ]);
    }
    Ok(t)
}

/// Render the movement ablation.
///
/// The host wall-clock alone can mislead here: the CAS kernel launches one
/// thread per *agent* while the gather kernel covers every *cell*, and a
/// host core pays nothing extra for an uncontended CAS. The modelled-Fermi
/// column applies the §IV argument — atomics serialise on the device — via
/// the cycle model's atomic cost.
pub fn movement_table(a: &MovementAblation) -> Table {
    let model = CycleModel::default();
    let fermi = DeviceProps::gtx_560_ti_448();
    let (gp, ap) = &a.profiles;
    let mut t = Table::new(vec![
        "variant",
        "host_time_s",
        "atomic_ops",
        "modelled_fermi_us",
    ]);
    t.push_row(vec![
        "scatter-to-gather (paper)".to_string(),
        secs(a.gather_time),
        "0".to_string(),
        format!("{:.1}", model.seconds(gp, &fermi) * 1e6),
    ]);
    t.push_row(vec![
        "atomic CAS".to_string(),
        secs(a.atomic_time),
        a.atomic_ops.to_string(),
        format!("{:.1}", model.seconds(ap, &fermi) * 1e6),
    ]);
    t
}

/// Render the tiled ablation with modelled Fermi times.
pub fn tiled_table(a: &TiledAblation) -> Table {
    let model = CycleModel::default();
    let fermi = DeviceProps::gtx_560_ti_448();
    let mut t = Table::new(vec![
        "variant",
        "host_time_s",
        "global_loads",
        "modelled_fermi_ms",
    ]);
    let (tp, dp) = &a.profiles;
    t.push_row(vec![
        "tiled 18x18 (paper)".to_string(),
        secs(a.tiled_time),
        tp.global_loads.to_string(),
        f3(model.seconds(tp, &fermi) * 1e3),
    ]);
    t.push_row(vec![
        "direct global".to_string(),
        secs(a.direct_time),
        dp.global_loads.to_string(),
        f3(model.seconds(dp, &fermi) * 1e3),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movement_ablation_counts_atomics() {
        let a = movement_variants(64, 400, 2);
        assert!(a.atomic_ops > 0, "CAS variant must use atomics");
        assert!(a.gather_time > Duration::ZERO);
        assert!(a.atomic_time > Duration::ZERO);
    }

    #[test]
    fn divergence_demo_separates_styles() {
        let (branchy, branchless) = divergence_demo(4096);
        assert!(branchy.divergent_branches > 0, "{branchy:?}");
        assert_eq!(branchless.divergent_branches, 0, "{branchless:?}");
        let t = divergence_table(&branchy, &branchless);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn tiled_ablation_produces_profiles() {
        let a = tiled_variants(64, 400, 1);
        let (tp, dp) = &a.profiles;
        assert!(tp.global_loads > 0);
        assert!(dp.global_loads > 0);
        assert_eq!(tiled_table(&a).rows.len(), 2);
    }
}
