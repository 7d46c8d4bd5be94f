//! The agent-movement phase (§IV.d): scatter-to-gather conflict resolution,
//! position/index exchange, and the fused pheromone update.
//!
//! One thread per cell over 16×16 blocks; `mat`/`index` are read through
//! 20×20 tiles (halo 2 — one ring for the cell's own gather, a second so an
//! occupied cell can *recompute* its agent's target-cell gather and learn
//! deterministically whether the agent left; see
//! [`crate::model::movement`]). Every output slot — the cell's `mat`/
//! `index` entry, the winner's `row`/`col`/`tour` slots, the cell's two
//! pheromone entries — is written by exactly one thread, which the checked
//! buffers enforce.

use pedsim_grid::cell::{Group, CELL_EMPTY, CELL_WALL};
use pedsim_grid::property::NO_FUTURE;
use pedsim_grid::PheromoneField;
use simt::exec::{BlockCtx, BlockKernel};
use simt::memory::ScatterView;
use simt::Dim2;

use crate::model::gather_winner;
use crate::params::AcoParams;

/// Halo width needed by the winner recomputation.
pub const MOVEMENT_HALO: u32 = 2;

/// Per-cell movement kernel.
pub struct MovementKernel<'a> {
    /// Environment width.
    pub w: usize,
    /// Environment height.
    pub h: usize,
    /// Current cell labels (tiled, halo 2).
    pub mat_in: &'a [u8],
    /// Current agent indices (tiled, halo 2).
    pub index_in: &'a [u32],
    /// FUTURE ROW (read, random access).
    pub future_row: &'a [u16],
    /// FUTURE COLUMN (read).
    pub future_col: &'a [u16],
    /// Agent labels (read).
    pub id: &'a [u8],
    /// Agent rows (written for winners).
    pub row: ScatterView<'a, u16>,
    /// Agent columns (written for winners).
    pub col: ScatterView<'a, u16>,
    /// Agent→cell position index (written for winners — kept in lock-step
    /// with `row`/`col`, the invariant every backend's world carries).
    pub pos: ScatterView<'a, u32>,
    /// Tour lengths (exclusive read-modify-write for winners).
    pub tour: ScatterView<'a, f32>,
    /// Next cell labels (every cell written once).
    pub mat_out: ScatterView<'a, u8>,
    /// Next agent indices (every cell written once).
    pub index_out: ScatterView<'a, u32>,
    /// Current pheromone fields (ACO): one plane per group, in group-index
    /// order.
    pub pher_in: Option<&'a [&'a [f32]]>,
    /// Next pheromone fields (ACO), same order.
    pub pher_out: Option<&'a [ScatterView<'a, f32>]>,
    /// ACO parameters (None for LEM runs).
    pub aco: Option<AcoParams>,
}

impl BlockKernel for MovementKernel<'_> {
    fn block(&self, ctx: &mut BlockCtx) {
        let dims = Dim2::new(self.w as u32, self.h as u32);
        let mat_tile = ctx.load_tile(self.mat_in, dims, MOVEMENT_HALO, CELL_WALL);
        let idx_tile = ctx.load_tile(self.index_in, dims, MOVEMENT_HALO, 0u32);
        ctx.sync();
        let (w, h) = (self.w, self.h);
        // Hoist the SoA agent-property arrays into locals: the hot loop
        // indexes flat slices directly instead of re-reading kernel
        // struct fields per thread.
        let future_row = self.future_row;
        let future_col = self.future_col;
        let id = self.id;
        ctx.threads(|t| {
            let (r, c) = t.global_rc();
            if (r as usize) >= h || (c as usize) >= w {
                return;
            }
            let (ri, ci) = (i64::from(r), i64::from(c));
            let lin = r as usize * w + c as usize;
            let occ = |rr: i64, cc: i64| mat_tile.get(rr, cc);
            let idx = |rr: i64, cc: i64| idx_tile.get(rr, cc);
            let fut = |a: u32| (future_row[a as usize], future_col[a as usize]);
            let mut rng = t.rng_for(lin as u64);
            let arrival = gather_winner(&occ, &idx, &fut, ri, ci, &mut rng);
            let own = idx(ri, ci);
            t.note_shared_loads(18);
            t.alu(24);

            // Deposit of the arriving agent, credited to its group's
            // plane: (group index, amount).
            let mut deposit: Option<(usize, f32)> = None;
            if let Some(arr) = arrival {
                let a = arr.agent as usize;
                self.mat_out.write(lin, id[a]);
                self.index_out.write(lin, arr.agent);
                self.row.write(a, r as u16);
                self.col.write(a, c as u16);
                self.pos.write(a, lin as u32);
                t.note_global_stores(5);
                if let Some(p) = self.aco {
                    // Exclusive RMW: only this thread touches slot `a`.
                    let l_new = self.tour.read(a) + arr.step_len();
                    self.tour.write(a, l_new);
                    let g = Group::from_label(id[a]).expect("arrival has a group label");
                    deposit = Some((g.index(), p.q / l_new));
                    t.note_global_stores(1);
                }
            } else if own != 0 && future_row[own as usize] != NO_FUTURE {
                // SoA probe: FUTURE ROW alone decides staying vs moving,
                // so the column array is only touched when the agent
                // actually leaves. Recompute its target cell's gather with
                // the *target's* stream.
                let (fr, fc) = fut(own);
                let (fri, fci) = (i64::from(fr), i64::from(fc));
                let tlin = (fr as usize) * w + fc as usize;
                let mut trng = t.rng_for(tlin as u64);
                let wins = gather_winner(&occ, &idx, &fut, fri, fci, &mut trng)
                    .is_some_and(|a| a.agent == own);
                t.alu(24);
                if wins {
                    self.mat_out.write(lin, CELL_EMPTY);
                    self.index_out.write(lin, 0);
                } else {
                    self.mat_out.write(lin, occ(ri, ci));
                    self.index_out.write(lin, own);
                }
                t.note_global_stores(2);
            } else {
                // Copy-through.
                self.mat_out.write(lin, occ(ri, ci));
                self.index_out.write(lin, own);
                t.note_global_stores(2);
            }

            if let (Some(p), Some(pin), Some(pout)) = (self.aco, self.pher_in, self.pher_out) {
                for (g, (plane_in, plane_out)) in pin.iter().zip(pout.iter()).enumerate() {
                    let dep = match deposit {
                        Some((dg, amount)) if dg == g => amount,
                        _ => 0.0,
                    };
                    let next = PheromoneField::fused_update(plane_in[lin], p.tau0, p.rho, dep);
                    plane_out.write(lin, next);
                }
                t.note_global_stores(pin.len() as u64);
                t.note_global_loads(pin.len() as u64);
            }
        });
    }

    fn shared_bytes(&self) -> u32 {
        // 20×20 u8 mat tile + 20×20 u32 index tile.
        (20 * 20 + 20 * 20 * 4) as u32
    }

    fn regs_per_thread(&self) -> u32 {
        28
    }

    fn name(&self) -> &'static str {
        "movement"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{DeviceState, InitialCalcKernel, TourKernel};
    use crate::params::ModelKind;
    use pedsim_grid::cell::CELL_TOP;
    use pedsim_grid::{EnvConfig, Environment};
    use simt::exec::{ExecPolicy, LaunchConfig};
    use simt::Device;

    /// Run init-free single step of calc→tour→movement on a checked state.
    fn one_step(model: ModelKind, seed: u64, policy: ExecPolicy) -> (Environment, DeviceState) {
        let env = Environment::new(&EnvConfig::small(32, 32, 60).with_seed(seed));
        let dist = pedsim_grid::DistanceData::rows(env.height());
        let state = DeviceState::upload(&env, &dist, model, true);
        let device = Device::builder().policy(policy).build();
        let cells = LaunchConfig::tiled_over(Dim2::new(32, 32), Dim2::square(16)).with_seed(seed);
        let rows = LaunchConfig::new(
            Dim2::new((state.n as u32).div_ceil(256), 1),
            Dim2::new(256, 1),
        )
        .with_seed(seed);

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
        device.launch(&cells.with_salt(1), &calc).expect("calc");

        state.future_row.begin_epoch();
        state.future_col.begin_epoch();
        let tour = TourKernel {
            n: state.n,
            alive: &state.alive,
            scan_val: state.scan_val.as_slice(),
            scan_idx: state.scan_idx.as_slice(),
            front: state.front.as_slice(),
            front_k: state.front_k.as_slice(),
            row: state.row.as_slice(),
            col: state.col.as_slice(),
            future_row: state.future_row.view(),
            future_col: state.future_col.view(),
            model,
        };
        device.launch(&rows.with_salt(2), &tour).expect("tour");

        state.mat[1].begin_epoch();
        state.index[1].begin_epoch();
        state.row.begin_epoch();
        state.col.begin_epoch();
        state.pos.begin_epoch();
        state.tour.begin_epoch();
        if let Some(p) = state.pher.as_ref() {
            p.begin_epoch(1);
        }
        let aco = match model {
            ModelKind::Aco(p) => Some(p),
            ModelKind::Lem(_) => None,
        };
        let pher_views = state.pher.as_ref().map(|p| p.views(1));
        let mv = MovementKernel {
            w: state.w,
            h: state.h,
            mat_in: state.mat[0].as_slice(),
            index_in: state.index[0].as_slice(),
            future_row: state.future_row.as_slice(),
            future_col: state.future_col.as_slice(),
            id: &state.id,
            row: state.row.view(),
            col: state.col.view(),
            pos: state.pos.view(),
            tour: state.tour.view(),
            mat_out: state.mat[1].view(),
            index_out: state.index[1].view(),
            pher_in: pher_slices.as_deref(),
            pher_out: pher_views.as_deref(),
            aco,
        };
        device.launch(&cells.with_salt(3), &mv).expect("movement");
        (env, state)
    }

    #[test]
    fn agents_conserved_after_one_kernel_step() {
        let (env, state) = one_step(ModelKind::lem(), 31, ExecPolicy::Sequential);
        let before: usize = env.mat.count(CELL_TOP);
        let after = state.mat[1]
            .as_slice()
            .iter()
            .filter(|&&v| v == CELL_TOP)
            .count();
        assert_eq!(before, after);
        // Every live agent index appears exactly once in index_out.
        let mut seen = vec![0u32; state.n + 1];
        for &v in state.index[1].as_slice() {
            if v != 0 {
                seen[v as usize] += 1;
            }
        }
        assert!(seen[1..].iter().all(|&c| c == 1), "duplicated/lost agents");
    }

    #[test]
    fn movers_moved_into_their_futures() {
        let (env, state) = one_step(ModelKind::aco(), 32, ExecPolicy::Sequential);
        let mut moved = 0;
        for i in 1..=state.n {
            let (or, oc) = env.props.position(i);
            let (nr, nc) = (state.row.as_slice()[i], state.col.as_slice()[i]);
            if (or, oc) != (nr, nc) {
                moved += 1;
                // New position must be the agent's chosen future.
                assert_eq!(state.future_row.as_slice()[i], nr, "agent {i}");
                assert_eq!(state.future_col.as_slice()[i], nc, "agent {i}");
                // Tour length accumulated by exactly one step.
                let t = state.tour.as_slice()[i];
                assert!((0.99..=1.42).contains(&t), "agent {i} tour {t}");
            } else {
                assert_eq!(state.tour.as_slice()[i], 0.0, "stayer {i} gained tour");
            }
        }
        assert!(moved > 0, "nobody moved");
    }

    #[test]
    fn pheromone_deposited_exactly_at_arrivals() {
        let (env, state) = one_step(ModelKind::aco(), 33, ExecPolicy::Sequential);
        let p = state.pher.as_ref().expect("ACO");
        let tau0 = p.params.tau0;
        let top_out = p.fields[Group::TOP.index()][1].as_slice();
        for i in 1..=state.n {
            let (or, oc) = env.props.position(i);
            let (nr, nc) = (state.row.as_slice()[i], state.col.as_slice()[i]);
            if (or, oc) != (nr, nc) && state.id[i] == Group::TOP.label() {
                let cell = nr as usize * state.w + nc as usize;
                assert!(
                    top_out[cell] > tau0,
                    "agent {i} arrival cell has no deposit"
                );
            }
        }
        // Cells without arrivals only evaporate (stay at the floor).
        let arrivals: std::collections::HashSet<usize> = (1..=state.n)
            .filter(|&i| {
                env.props.position(i) != (state.row.as_slice()[i], state.col.as_slice()[i])
                    && state.id[i] == Group::TOP.label()
            })
            .map(|i| state.row.as_slice()[i] as usize * state.w + state.col.as_slice()[i] as usize)
            .collect();
        for (cell, &v) in top_out.iter().enumerate() {
            if !arrivals.contains(&cell) {
                assert!(
                    (v - tau0).abs() < 1e-6,
                    "cell {cell} changed without arrival: {v}"
                );
            }
        }
    }

    #[test]
    fn parallel_policy_matches_sequential_per_kernel() {
        for model in [ModelKind::lem(), ModelKind::aco()] {
            let (_, seq) = one_step(model, 34, ExecPolicy::Sequential);
            let (_, par) = one_step(model, 34, ExecPolicy::Parallel { workers: 3 });
            assert_eq!(seq.mat[1].as_slice(), par.mat[1].as_slice());
            assert_eq!(seq.index[1].as_slice(), par.index[1].as_slice());
            assert_eq!(seq.row.as_slice(), par.row.as_slice());
        }
    }
}
