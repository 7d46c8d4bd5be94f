//! The tour-construction phase (§IV.c): one thread per agent decides the
//! next cell.
//!
//! The paper launches 8 worker threads per agent (32×8-thread blocks) and
//! reduces the scan row in-warp; this implementation assigns one thread per
//! agent and performs the 8-wide reduction serially inside the thread — the
//! arithmetic, memory traffic, and random draws are identical, only the
//! intra-warp micro-parallelism of the reduction is not modelled (noted in
//! DESIGN.md §6). CURAND draws become the agent-keyed Philox streams, so
//! the CPU reference produces the same selections.

use pedsim_grid::cell::NEIGHBOR_OFFSETS;
use pedsim_grid::property::NO_FUTURE;
use simt::exec::{BlockCtx, BlockKernel};
use simt::memory::ScatterView;

use crate::model::{aco_select, lem_select, ScanRow};
use crate::params::ModelKind;

/// Per-agent selection kernel.
pub struct TourKernel<'a> {
    /// Total agents.
    pub n: usize,
    /// Environment width (splits `pos` into row and column).
    pub w: usize,
    /// Per-slot liveness mask (read): dead slots — the open-boundary
    /// recycling pool — are not on the grid and make no decision (their
    /// future stays NO_FUTURE from the init kernel). Closed worlds pass an
    /// all-ones mask, so the predicated skip never fires there.
    pub alive: &'a [u8],
    /// Scan values (read).
    pub scan_val: &'a [f32],
    /// Scan indices (read).
    pub scan_idx: &'a [u8],
    /// FRONT CELL status (read).
    pub front: &'a [u8],
    /// FRONT CELL neighbour slot (read).
    pub front_k: &'a [u8],
    /// Agent cells, linear (read).
    pub pos: &'a [u32],
    /// FUTURE ROW (written).
    pub future_row: ScatterView<'a, u16>,
    /// FUTURE COLUMN (written).
    pub future_col: ScatterView<'a, u16>,
    /// Movement model.
    pub model: ModelKind,
}

impl BlockKernel for TourKernel<'_> {
    fn block(&self, ctx: &mut BlockCtx) {
        let (n, w) = (self.n, self.w);
        ctx.threads(|t| {
            let agent = t.global_linear() + 1;
            if agent <= n && self.alive[agent] != 0 {
                let scan = ScanRow {
                    vals: self.scan_val[agent * 8..agent * 8 + 8]
                        .try_into()
                        .expect("8 slots"),
                    idxs: self.scan_idx[agent * 8..agent * 8 + 8]
                        .try_into()
                        .expect("8 slots"),
                };
                t.note_global_loads(20);
                let front = self.front[agent];
                let front_k = self.front_k[agent] as usize;
                let mut rng = t.rng_for(agent as u64);
                let k = match self.model {
                    ModelKind::Lem(p) => lem_select(&scan, front, front_k, &p, &mut rng),
                    ModelKind::Aco(p) => aco_select(&scan, front, front_k, &p, &mut rng),
                };
                t.alu(16);
                match k {
                    Some(k) => {
                        let (dr, dc) = NEIGHBOR_OFFSETS[k];
                        let p = self.pos[agent] as usize;
                        let r = (p / w) as i64 + dr;
                        let c = (p % w) as i64 + dc;
                        self.future_row.write(agent, r as u16);
                        self.future_col.write(agent, c as u16);
                    }
                    None => {
                        self.future_row.write(agent, NO_FUTURE);
                        self.future_col.write(agent, NO_FUTURE);
                    }
                }
                t.note_global_stores(2);
            }
        });
    }

    fn regs_per_thread(&self) -> u32 {
        24
    }

    fn name(&self) -> &'static str {
        "tour"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{DeviceState, InitialCalcKernel};
    use pedsim_grid::cell::CELL_EMPTY;
    use pedsim_grid::{EnvConfig, Environment};
    use pedsim_scenario::registry::paper_corridor;
    use simt::exec::LaunchConfig;
    use simt::{Device, Dim2};

    fn run_tour(model: ModelKind, seed: u64, salt: u64) -> (Environment, DeviceState) {
        // Two spawn rows so plenty of agents face a blocked forward cell
        // and actually consume randomness.
        let env = paper_corridor(&EnvConfig::small(32, 32, 40).with_seed(seed)).build_environment();
        let dist = pedsim_grid::DistanceData::rows(env.height());
        let state = DeviceState::upload(&env, &dist, model, true);
        let device = Device::sequential();
        // Stage 2 first so the scan matrix is populated.
        state.scan_val.begin_epoch();
        state.scan_idx.begin_epoch();
        state.front.begin_epoch();
        state.front_k.begin_epoch();
        let pher_slices = state.pher.as_ref().map(|p| p.slices(0));
        let calc = InitialCalcKernel {
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
        device
            .launch(
                &LaunchConfig::tiled_over(Dim2::new(32, 32), Dim2::square(16)),
                &calc,
            )
            .expect("calc");

        state.future_row.begin_epoch();
        state.future_col.begin_epoch();
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
            model,
        };
        let blocks = (state.n as u32).div_ceil(256);
        let cfg = LaunchConfig::new(Dim2::new(blocks, 1), Dim2::new(256, 1))
            .with_seed(seed)
            .with_salt(salt);
        device.launch(&cfg, &tour).expect("tour");
        (env, state)
    }

    #[test]
    fn futures_are_adjacent_empty_cells() {
        let (env, state) = run_tour(ModelKind::lem(), 5, 2);
        let fr = state.future_row.as_slice();
        let fc = state.future_col.as_slice();
        let mut decided = 0;
        for i in 1..=env.total_agents() {
            if fr[i] == NO_FUTURE {
                continue;
            }
            decided += 1;
            let (r, c) = env.position(i);
            let dr = (i64::from(fr[i]) - r as i64).abs();
            let dc = (i64::from(fc[i]) - c as i64).abs();
            assert!(
                dr <= 1 && dc <= 1 && dr + dc > 0,
                "agent {i} target not adjacent"
            );
            assert_eq!(
                env.mat.get(fr[i] as usize, fc[i] as usize),
                CELL_EMPTY,
                "agent {i} targets an occupied cell"
            );
        }
        assert!(decided > 0, "nobody chose a move");
    }

    #[test]
    fn deterministic_per_salt() {
        let (_, a) = run_tour(ModelKind::aco(), 7, 2);
        let (_, b) = run_tour(ModelKind::aco(), 7, 2);
        assert_eq!(a.future_row.as_slice(), b.future_row.as_slice());
        let (_, c) = run_tour(ModelKind::aco(), 7, 6);
        // A different salt redraws; some agents will differ (front-priority
        // agents won't, so compare the whole vector loosely).
        assert_ne!(
            (a.future_row.as_slice(), a.future_col.as_slice()),
            (c.future_row.as_slice(), c.future_col.as_slice()),
        );
    }
}
