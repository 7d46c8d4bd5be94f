//! The initial calculation phase (§IV.b): one thread per environment cell,
//! 16×16 blocks over an 18×18 shared tile (Figure 3).
//!
//! Occupied-cell threads score their agent's eight neighbours — eq. (1)
//! candidates for LEM, eq. (2) numerators for ACO — into the agent's scan
//! row, and record the FRONT CELL status. Control flow is uniform in the
//! paper's sense: the occupied/empty distinction is a *predicated* path
//! (the paper routes empty threads' results to the sacrificial 0th scan
//! row; here the masked lanes simply skip the stores), so the kernel
//! records no warp divergence.

use pedsim_grid::cell::Group;
use pedsim_grid::cell::CELL_WALL;
use pedsim_grid::DistRef;
use simt::exec::{BlockCtx, BlockKernel};
use simt::memory::ScatterView;
use simt::Dim2;

use crate::model::{aco_scan_row, availability, front_status, lem_scan_row};
use crate::params::ModelKind;

/// Per-cell scoring kernel.
pub struct InitialCalcKernel<'a> {
    /// Environment width.
    pub w: usize,
    /// Environment height.
    pub h: usize,
    /// Current cell labels (read as 18×18 tiles).
    pub mat_in: &'a [u8],
    /// Current agent indices (own-cell read).
    pub index_in: &'a [u32],
    /// Constant-memory distance field (layout-tagged view).
    pub dist: DistRef<'a>,
    /// Current pheromone fields (ACO): one plane per group, in group-index
    /// order.
    pub pher_in: Option<&'a [&'a [f32]]>,
    /// Movement model.
    pub model: ModelKind,
    /// Scan values out.
    pub scan_val: ScatterView<'a, f32>,
    /// Scan indices out.
    pub scan_idx: ScatterView<'a, u8>,
    /// FRONT CELL status out.
    pub front: ScatterView<'a, u8>,
    /// FRONT CELL neighbour slot out.
    pub front_k: ScatterView<'a, u8>,
}

impl InitialCalcKernel<'_> {
    /// Halo width the mat tile needs: 1 for the baseline, the scan range
    /// when the look-ahead extension is active.
    fn halo(&self) -> u32 {
        match self.model {
            ModelKind::Lem(p) => u32::from(p.scan_range.max(1)),
            ModelKind::Aco(_) => 1,
        }
    }
}

impl BlockKernel for InitialCalcKernel<'_> {
    fn block(&self, ctx: &mut BlockCtx) {
        let dims = Dim2::new(self.w as u32, self.h as u32);
        let mat_tile = ctx.load_tile(self.mat_in, dims, self.halo(), CELL_WALL);
        // The paper's stacked 36×18 local pheromone matrix — all group
        // fields tiled together, selected by the agent's label.
        let pher_tile = self
            .pher_in
            .map(|planes| ctx.load_multi_tile(planes, dims, 1, 0.0f32));
        ctx.sync();
        let (w, h) = (self.w, self.h);
        // Hoist the per-array handles out of the thread loop: each agent
        // property is its own flat array (SoA), so the hot loop indexes
        // plain locals instead of re-reading kernel struct fields.
        let index_in = self.index_in;
        let dist = self.dist;
        let model = self.model;
        let scan_val = self.scan_val;
        let scan_idx = self.scan_idx;
        let front = self.front;
        let front_k = self.front_k;
        ctx.threads(|t| {
            let (r, c) = t.global_rc();
            if (r as usize) < h && (c as usize) < w {
                let (ri, ci) = (i64::from(r), i64::from(c));
                let occ = |rr: i64, cc: i64| mat_tile.get(rr, cc);
                let label = occ(ri, ci);
                // Predicated path: empty lanes skip the stores (the paper
                // instead routes them to scan row 0 — same warp timing,
                // same effect).
                if let Some(g) = Group::from_label(label) {
                    let a = index_in[r as usize * w + c as usize] as usize;
                    t.note_global_loads(1);
                    debug_assert!(a > 0, "occupied cell must be indexed");
                    let row = match model {
                        ModelKind::Lem(p) => {
                            let avail = availability(&occ, ri, ci);
                            lem_scan_row(avail, &occ, dist, g, ri, ci, p.scan_range)
                        }
                        ModelKind::Aco(p) => {
                            let tile = pher_tile.as_ref().expect("ACO pheromone tile");
                            let which = g.index();
                            let tau = |rr: i64, cc: i64| tile.get(which, rr, cc);
                            aco_scan_row(&occ, &tau, dist, &p, g, ri, ci)
                        }
                    };
                    for s in 0..8 {
                        scan_val.write(a * 8 + s, row.vals[s]);
                        scan_idx.write(a * 8 + s, row.idxs[s]);
                    }
                    let fk = dist.front_k(g, ri, ci);
                    front.write(a, front_status(&occ, fk, ri, ci));
                    front_k.write(a, fk as u8);
                    t.note_global_stores(18);
                    t.note_shared_loads(9);
                    t.alu(32);
                }
            }
        });
    }

    fn shared_bytes(&self) -> u32 {
        // (16+2·halo)² mat tile + (ACO) one 18×18 f32 pheromone tile per
        // group.
        let side = 16 + 2 * self.halo();
        let mat = side * side;
        let pher = self
            .pher_in
            .map_or(0, |planes| planes.len() as u32 * 18 * 18 * 4);
        mat + pher
    }

    fn regs_per_thread(&self) -> u32 {
        20
    }

    fn name(&self) -> &'static str {
        "initial_calc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::DeviceState;
    use pedsim_grid::scan::SCAN_INVALID;
    use pedsim_grid::{EnvConfig, Environment};
    use pedsim_scenario::registry::paper_corridor;
    use simt::exec::LaunchConfig;
    use simt::Device;

    fn run(model: ModelKind) -> (Environment, DeviceState) {
        let env = paper_corridor(&EnvConfig::small(32, 32, 25).with_seed(9)).build_environment();
        let dist = pedsim_grid::DistanceData::rows(env.height());
        let state = DeviceState::upload(&env, &dist, model, true);
        state.scan_val.begin_epoch();
        state.scan_idx.begin_epoch();
        state.front.begin_epoch();
        state.front_k.begin_epoch();
        let pher_slices = state.pher.as_ref().map(|p| p.slices(0));
        let k = InitialCalcKernel {
            w: state.w,
            h: state.h,
            mat_in: state.mat[0].as_slice(),
            index_in: state.index[0].as_slice(),
            dist: state.dist_ref(),
            pher_in: pher_slices.as_deref(),
            model,
            scan_val: state.scan_val.view(),
            scan_idx: state.scan_idx.view(),
            front: state.front.view(),
            front_k: state.front_k.view(),
        };
        let cfg = LaunchConfig::tiled_over(Dim2::new(32, 32), Dim2::square(16));
        Device::sequential().launch(&cfg, &k).expect("launch");
        (env, state)
    }

    #[test]
    fn lem_scan_rows_match_reference() {
        let (env, state) = run(ModelKind::lem());
        let dist = pedsim_grid::DistanceData::rows(32);
        let occ = |r: i64, c: i64| env.mat.get_or(r, c, CELL_WALL);
        for i in 1..=env.total_agents() {
            let (r, c) = env.position(i);
            let g = env.group_of(i);
            let (r, c) = (r as i64, c as i64);
            let expect = lem_scan_row(availability(&occ, r, c), &occ, dist.dist_ref(), g, r, c, 1);
            let vals = &state.scan_val.as_slice()[i * 8..i * 8 + 8];
            let idxs = &state.scan_idx.as_slice()[i * 8..i * 8 + 8];
            assert_eq!(idxs, &expect.idxs, "agent {i} idxs");
            assert_eq!(vals, &expect.vals, "agent {i} vals");
        }
    }

    #[test]
    fn aco_rows_are_by_neighbour_index() {
        let (env, state) = run(ModelKind::aco());
        for i in 1..=env.total_agents() {
            let idxs = &state.scan_idx.as_slice()[i * 8..i * 8 + 8];
            assert_eq!(idxs, &[0, 1, 2, 3, 4, 5, 6, 7], "agent {i}");
        }
    }

    #[test]
    fn sentinel_row_untouched() {
        let (_, state) = run(ModelKind::lem());
        assert!(state.scan_val.as_slice()[..8].iter().all(|&v| v == 0.0));
        assert!(state.scan_idx.as_slice()[..8]
            .iter()
            .all(|&v| v == SCAN_INVALID));
    }

    #[test]
    fn front_status_recorded() {
        let (env, state) = run(ModelKind::lem());
        let occ = |r: i64, c: i64| env.mat.get_or(r, c, CELL_WALL);
        for i in 1..=env.total_agents() {
            let (r, c) = env.position(i);
            let fwd = env.group_of(i).forward_index();
            let expect = front_status(&occ, fwd, r as i64, c as i64);
            assert_eq!(state.front.as_slice()[i], expect, "agent {i}");
            // Row-table worlds: the front slot is the group-forward cell.
            assert_eq!(state.front_k.as_slice()[i] as usize, fwd, "agent {i}");
        }
    }
}
