//! The four simulation kernels (§IV.b–e) for the virtual GPU, plus the
//! device-resident buffer set they operate on.
//!
//! Buffer discipline (what makes the launches race-free *and* faithful to
//! the paper's scatter-to-gather design):
//!
//! * `mat` and `index` are **ping-pong pairs**: each movement launch reads
//!   tiles of the *in* buffer and writes every cell of the *out* buffer
//!   exactly once (copy-through for unchanged cells, decided by the
//!   deterministic winner recomputation — see
//!   [`crate::model::movement`]);
//! * `pos`/`tour` are written in place, but only for arriving agents and
//!   only by the unique thread of the arrival cell;
//! * `scan`/`front`/`future` are rewritten wholesale by their producing
//!   kernel each step;
//! * the pheromone fields are ping-pong pairs — one pair per directional
//!   group, indexed by [`pedsim_grid::cell::Group::index`] — updated by
//!   the movement kernel (evaporate everywhere + deposit at arrivals).
//!
//! In checked mode every one of those "exactly once" claims is enforced at
//! runtime by the `ScatterBuffer` conflict detector.

pub mod init;
pub mod initial_calc;
pub mod movement;
pub mod movement_atomic;
pub mod tour;

pub use init::InitKernel;
pub use initial_calc::InitialCalcKernel;
pub use movement::MovementKernel;
pub use movement_atomic::AtomicMovementKernel;
pub use tour::TourKernel;

use pedsim_grid::cell::CELL_EMPTY;
use pedsim_grid::property::NO_FUTURE;
use pedsim_grid::scan::SCAN_INVALID;
use pedsim_grid::{DistRef, DistanceData, DistanceKind, Environment};
use simt::memory::{ConstantBuffer, ScatterBuffer, ScatterView};

use crate::params::ModelKind;

/// Ping-pong pheromone buffers (ACO only): one `[current, next]` pair per
/// directional group, in group-index order.
pub struct PherBuffers {
    /// Per-group fields, `[current, next]` by the owner's `cur` flag.
    pub fields: Vec<[ScatterBuffer<f32>; 2]>,
}

impl PherBuffers {
    /// Borrow every group's side-`side` plane (the kernels' read set).
    pub fn slices(&self, side: usize) -> Vec<&[f32]> {
        self.fields.iter().map(|f| f[side].as_slice()).collect()
    }

    /// Views over every group's side-`side` plane (the kernels' write
    /// set).
    pub fn views(&self, side: usize) -> Vec<ScatterView<'_, f32>> {
        self.fields.iter().map(|f| f[side].view()).collect()
    }

    /// Begin a write epoch on every group's side-`side` plane.
    pub fn begin_epoch(&self, side: usize) {
        for f in &self.fields {
            f[side].begin_epoch();
        }
    }
}

/// All device-resident state (the output of the data-preparation stage,
/// §IV.a).
pub struct DeviceState {
    /// Environment width.
    pub w: usize,
    /// Environment height.
    pub h: usize,
    /// Total agents.
    pub n: usize,
    /// Per-group populations (agent indices are contiguous in group
    /// order, 1-based).
    pub group_sizes: Vec<usize>,
    /// Cell labels, ping-pong.
    pub mat: [ScatterBuffer<u8>; 2],
    /// Agent indices per cell, ping-pong.
    pub index: [ScatterBuffer<u32>; 2],
    /// Which side of the `mat`/`index` and pheromone ping-pong pairs is
    /// current. The movement launch flips it every step.
    pub cur: usize,
    /// Agent cells, linear `row·w + col` (dead slots keep their last
    /// cell). Winner-owned writes by the movement kernel.
    pub pos: ScatterBuffer<u32>,
    /// Chosen future rows.
    pub future_row: ScatterBuffer<u16>,
    /// Chosen future columns.
    pub future_col: ScatterBuffer<u16>,
    /// Front-cell status per agent.
    pub front: ScatterBuffer<u8>,
    /// Front-cell neighbour slot (0–7) per agent.
    pub front_k: ScatterBuffer<u8>,
    /// Scan values, `(N+1)×8`.
    pub scan_val: ScatterBuffer<f32>,
    /// Scan neighbour indices, `(N+1)×8`.
    pub scan_idx: ScatterBuffer<u8>,
    /// Accumulated tour lengths.
    pub tour: ScatterBuffer<f32>,
    /// Pheromone fields (ACO only).
    pub pher: Option<PherBuffers>,
    /// Immutable agent labels (`group index + 1`), sentinel at 0.
    pub id: Vec<u8>,
    /// Per-slot liveness mask (1 live, 0 dead; sentinel 0 at index 0).
    /// Host-managed between launches by the open-boundary lifecycle; read
    /// by the tour kernel so dead slots make no decision.
    pub alive: Vec<u8>,
    /// Recyclable property slots per group (`pop_first()` yields the
    /// smallest — the shared deterministic recycling order).
    pub free: Vec<pedsim_grid::environment::FreeSlots>,
    /// Live agents currently on the grid.
    pub live: usize,
    /// Constant-memory distance field (row tables or flow field).
    pub dist: ConstantBuffer<f32>,
    /// Layout of `dist`.
    pub dist_kind: DistanceKind,
    /// Group planes held by `dist`.
    pub dist_groups: usize,
    /// Per-group forward neighbour slots of `dist`.
    pub dist_forward: Vec<u8>,
    /// Constant-memory front-slot plane of `dist` (grid layout; empty for
    /// the row tables), uploaded beside it.
    pub dist_front: ConstantBuffer<u8>,
    /// Per-cell target bitmask carried for download.
    pub targets: std::sync::Arc<pedsim_grid::Matrix<u8>>,
}

impl DeviceState {
    /// Upload an environment and its distance field (the host→device copy
    /// of §IV.a).
    pub fn upload(env: &Environment, dist: &DistanceData, model: ModelKind, checked: bool) -> Self {
        let (h, w) = (env.height(), env.width());
        let n = env.total_agents();
        let groups = env.n_groups();
        assert!(
            dist.groups >= groups,
            "distance field holds {} planes for {groups} groups",
            dist.groups
        );
        let pher = match model {
            ModelKind::Aco(p) => Some(PherBuffers {
                fields: (0..groups)
                    .map(|_| {
                        [
                            ScatterBuffer::new(h * w, p.tau0, checked),
                            ScatterBuffer::new(h * w, p.tau0, checked),
                        ]
                    })
                    .collect(),
            }),
            ModelKind::Lem(_) => None,
        };
        Self {
            w,
            h,
            n,
            group_sizes: env.group_sizes.clone(),
            mat: [
                ScatterBuffer::from_vec(env.mat.as_slice().to_vec(), checked),
                ScatterBuffer::new(h * w, CELL_EMPTY, checked),
            ],
            index: [
                ScatterBuffer::from_vec(env.index.as_slice().to_vec(), checked),
                ScatterBuffer::new(h * w, 0u32, checked),
            ],
            cur: 0,
            pos: ScatterBuffer::from_vec(env.props.pos.clone(), checked),
            future_row: ScatterBuffer::new(n + 1, NO_FUTURE, checked),
            future_col: ScatterBuffer::new(n + 1, NO_FUTURE, checked),
            front: ScatterBuffer::new(n + 1, CELL_EMPTY, checked),
            front_k: ScatterBuffer::new(n + 1, 0u8, checked),
            scan_val: ScatterBuffer::new((n + 1) * 8, 0.0f32, checked),
            scan_idx: ScatterBuffer::new((n + 1) * 8, SCAN_INVALID, checked),
            tour: ScatterBuffer::new(n + 1, 0.0f32, checked),
            pher,
            id: env.props.id.clone(),
            alive: env.alive.iter().map(|&a| u8::from(a)).collect(),
            free: env.free.clone(),
            live: env.live,
            dist: ConstantBuffer::new(dist.data.clone()),
            dist_kind: dist.kind,
            dist_groups: dist.groups,
            dist_forward: dist.forward.clone(),
            dist_front: ConstantBuffer::new(dist.front.clone()),
            targets: env.targets.clone(),
        }
    }

    /// The layout-tagged distance view the kernels consume.
    #[inline]
    pub fn dist_ref(&self) -> DistRef<'_> {
        DistRef {
            kind: self.dist_kind,
            height: self.h,
            width: self.w,
            groups: self.dist_groups,
            forward: &self.dist_forward,
            data: self.dist.as_slice(),
            front: self.dist_front.as_slice(),
        }
    }

    /// Download the device state back into a host [`Environment`]
    /// (device→host copy for validation and snapshots).
    pub fn download(&self, seed: u64) -> Environment {
        use pedsim_grid::{Matrix, PropertyTable};
        let mut props = PropertyTable::new(self.n);
        props.id = self.id.clone();
        props.pos = self.pos.as_slice().to_vec();
        props.future_row = self.future_row.as_slice().to_vec();
        props.future_col = self.future_col.as_slice().to_vec();
        props.front = self.front.as_slice().to_vec();
        props.front_k = self.front_k.as_slice().to_vec();
        Environment {
            mat: Matrix::from_vec(self.h, self.w, self.mat[self.cur].as_slice().to_vec()),
            index: Matrix::from_vec(self.h, self.w, self.index[self.cur].as_slice().to_vec()),
            props,
            group_sizes: self.group_sizes.clone(),
            seed,
            targets: self.targets.clone(),
            alive: self.alive.iter().map(|&a| a != 0).collect(),
            free: self.free.clone(),
            live: self.live,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedsim_grid::EnvConfig;
    use pedsim_scenario::registry::paper_corridor;

    #[test]
    fn upload_download_roundtrip() {
        let env = paper_corridor(&EnvConfig::small(32, 32, 20).with_seed(3)).build_environment();
        let dist = DistanceData::rows(env.height());
        let state = DeviceState::upload(&env, &dist, ModelKind::aco(), true);
        let back = state.download(env.seed);
        assert_eq!(back.mat, env.mat);
        assert_eq!(back.index, env.index);
        assert_eq!(back.props.pos, env.props.pos);
        assert_eq!(back.group_sizes, env.group_sizes);
        back.check_consistency().expect("round-trips consistent");
        let pher = state.pher.as_ref().expect("ACO pheromone");
        assert_eq!(pher.fields.len(), 2);
    }

    #[test]
    fn lem_state_has_no_pheromone() {
        let env = paper_corridor(&EnvConfig::small(16, 16, 5)).build_environment();
        let state = DeviceState::upload(&env, &DistanceData::rows(16), ModelKind::lem(), false);
        assert!(state.pher.is_none());
        assert_eq!(state.n, 10);
        assert_eq!(state.dist_forward, vec![0, 5]);
    }
}
