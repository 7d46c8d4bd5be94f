//! The single-threaded reference engine (the paper's CPU implementation).
//!
//! A direct sequential port of the four-kernel pipeline: the same pure
//! model functions the GPU kernels call, in plain loops over the live
//! agent slots. Randomness uses the same `(seed, entity, salt)` keying as
//! the virtual-GPU kernels, so this engine's trajectory is bit-identical
//! to `GpuEngine`'s per-cell sweep for the same configuration — the
//! strongest possible form of the paper's CPU-vs-GPU consistency check.
//! The agent loop is this backend's only traversal:
//! [`Engine::iteration_mode`] always reports [`IterationMode::Sparse`].
//!
//! Step orchestration (sequencing, counting, per-stage timing, metrics,
//! lifecycle) lives in the shared [`StepCore`]; this file only implements
//! the four kernel stages over the host matrices ([`StageBackend`]).

use pedsim_grid::cell::{Group, CELL_EMPTY, CELL_WALL, NEIGHBOR_OFFSETS};
use pedsim_grid::property::NO_FUTURE;
use pedsim_grid::scan::{ScanMatrix, TourLengths};
use pedsim_grid::{DistanceData, EnvConfig, Environment, Matrix, PheromoneField};
use philox::StreamRng;

use crate::metrics::{Geometry, Metrics};
use crate::model::{aco_scan_row, aco_select, availability, front_status, gather_winner};
use crate::model::{lem_scan_row, lem_select, ScanRow};
use crate::params::{IterationMode, ModelKind, SimConfig};

use super::lifecycle::{LifecycleWorld, OpenLifecycle};
use super::pipeline::{Stage, StageBackend, StepCore, StepTimings};
use super::{split_positions, swap_model, Engine, ModelSwapError, KERNEL_MOVE, KERNEL_TOUR};
use crate::world::CompiledWorld;

/// The sequential reference engine.
pub struct CpuEngine {
    core: StepCore,
    backend: CpuBackend,
}

/// The CPU engine's kernel-stage executor: the host-side world state the
/// four stages loop over.
struct CpuBackend {
    cfg: SimConfig,
    geom: Geometry,
    env: Environment,
    scan: ScanMatrix,
    tour: TourLengths,
    pher: Option<PheromoneField>,
    pher_next: Option<PheromoneField>,
    dist: std::sync::Arc<DistanceData>,
    seed: u64,
    /// Resolved movers of the last movement stage:
    /// `(slot, destination cell, step_len)`. The metrics observation
    /// reads the slots as the step's movers.
    winners: Vec<(u32, usize, f32)>,
}

/// The lifecycle's view of a host-side engine's world: the host
/// environment plus the tour lengths (a recycled slot starts a fresh
/// tour). Shared by every backend that keeps its state in an
/// [`Environment`] — the scalar engine here and the pooled engine.
pub(crate) struct HostWorld<'a> {
    pub(crate) env: &'a mut Environment,
    pub(crate) tour: &'a mut TourLengths,
}

impl LifecycleWorld for HostWorld<'_> {
    fn is_alive(&self, i: usize) -> bool {
        self.env.is_alive(i)
    }

    fn position(&self, i: usize) -> usize {
        self.env.props.pos[i] as usize
    }

    fn is_cell_empty(&self, r: u16, c: u16) -> bool {
        self.env.mat.get(r as usize, c as usize) == CELL_EMPTY
    }

    fn despawn(&mut self, g: Group, i: usize) {
        self.env.despawn(g, i);
    }

    fn spawn(&mut self, g: Group, r: u16, c: u16) -> Option<u32> {
        let idx = self.env.spawn_from_free(g, r, c)?;
        self.tour.len[idx as usize] = 0.0;
        Some(idx)
    }
}

impl CpuEngine {
    /// Build the engine (runs the data-preparation stage, §IV.a, over the
    /// configuration's scenario). A thin compile-then-construct wrapper
    /// over [`CpuEngine::from_world`].
    pub fn new(cfg: SimConfig) -> Self {
        let world = CompiledWorld::compile(&cfg);
        Self::from_world(&world, cfg)
    }

    /// Build per-replica engine state from an already compiled world —
    /// the shared-artifact stage of the setup pipeline. Clones the placed
    /// environment template and shares the distance planes; bit-identical
    /// to [`CpuEngine::new`] on the same configuration.
    pub fn from_world(world: &std::sync::Arc<CompiledWorld>, cfg: SimConfig) -> Self {
        debug_assert!(
            world.matches(&cfg),
            "CompiledWorld was compiled from a different configuration"
        );
        let env = world.environment();
        let dist = world.distance();
        let geom = world.geometry();
        let core = StepCore::for_world(&cfg, world, &env);
        let n = env.total_agents();
        let groups = env.n_groups();
        let (pher, pher_next) = match cfg.model {
            ModelKind::Aco(p) => (
                Some(PheromoneField::with_groups(
                    env.height(),
                    env.width(),
                    p.tau0,
                    groups,
                )),
                Some(PheromoneField::with_groups(
                    env.height(),
                    env.width(),
                    p.tau0,
                    groups,
                )),
            ),
            ModelKind::Lem(_) => (None, None),
        };
        let seed = cfg.env.seed;
        Self {
            core,
            backend: CpuBackend {
                cfg,
                geom,
                scan: ScanMatrix::new(n),
                tour: TourLengths::new(n),
                pher,
                pher_next,
                dist,
                seed,
                winners: Vec::new(),
                env,
            },
        }
    }

    /// Borrow the current environment state.
    pub fn environment(&self) -> &Environment {
        &self.backend.env
    }

    /// Replace the model parameters mid-run (the panic-alarm extension).
    /// A model-*variant* change is a typed error — a LEM run has no
    /// pheromone substrate to become an ACO run.
    pub fn set_model(&mut self, model: ModelKind) -> Result<(), ModelSwapError> {
        swap_model(&mut self.backend.cfg.model, model)
    }

    /// Borrow the pheromone field (ACO only).
    pub fn pheromone(&self) -> Option<&PheromoneField> {
        self.backend.pher.as_ref()
    }

    /// Borrow accumulated tour lengths.
    pub fn tour_lengths(&self) -> &TourLengths {
        &self.backend.tour
    }
}

impl CpuBackend {
    // Every stage walks the live agent slots in ascending order. The
    // paper's kernels walk cells instead (see `GpuEngine`); the two agree
    // byte for byte because the per-cell Philox streams are keyed by cell
    // linear index, so visiting only the cells live agents target
    // consumes exactly the draws a full cell sweep would, and every
    // slot-keyed write (scan rows, futures, properties) lands on the same
    // slot with the same value.

    fn stage_init(&mut self) {
        // Supporting kernel (§IV.e). Only live slots are read downstream
        // (InitialCalc rewrites their scan rows, Tour their futures), so
        // clearing the futures of live slots is the full contract — dead
        // slots' stale records are never read.
        let n = self.geom.total_agents();
        for i in 1..=n {
            if self.env.alive[i] {
                self.env.props.future_row[i] = NO_FUTURE;
                self.env.props.future_col[i] = NO_FUTURE;
            }
        }
    }

    fn stage_initial_calc(&mut self) {
        // §IV.b: each live agent scores its neighbourhood into its scan
        // row and records its front-cell status.
        let mat = &self.env.mat;
        let dist = self.dist.dist_ref();
        let occ = |r: i64, c: i64| mat.get_or(r, c, CELL_WALL);
        let n = self.geom.total_agents();
        for i in 1..=n {
            if !self.env.alive[i] {
                continue;
            }
            let (r, c) = self.env.position(i);
            let label = self.env.props.id[i];
            let g = Group::from_label(label).expect("live slot has group label");
            let row: ScanRow = match self.cfg.model {
                ModelKind::Lem(p) => {
                    let (r, c) = (r as i64, c as i64);
                    lem_scan_row(availability(&occ, r, c), &occ, dist, g, r, c, p.scan_range)
                }
                ModelKind::Aco(p) => {
                    let field = self.pher.as_ref().expect("ACO has pheromone");
                    let tf = field.of(g);
                    let tau = |rr: i64, cc: i64| tf.get_or(rr, cc, 0.0);
                    aco_scan_row(&occ, &tau, dist, &p, g, r as i64, c as i64)
                }
            };
            for slot in 0..8 {
                self.scan.set(i, slot, row.vals[slot], row.idxs[slot]);
            }
            let fk = dist.front_k(g, r as i64, c as i64);
            self.env.props.front[i] = front_status(&occ, fk, r as i64, c as i64);
            self.env.props.front_k[i] = fk as u8;
        }
    }

    fn stage_tour(&mut self, step_no: u64) {
        // §IV.c: every live agent picks its future cell.
        let salt = step_no * 4 + KERNEL_TOUR;
        let n = self.geom.total_agents();
        for i in 1..=n {
            // Dead slots (open-boundary recycling pool) are not on the
            // grid and make no decision.
            if !self.env.alive[i] {
                continue;
            }
            let mut rng = StreamRng::with_offset(self.seed, i as u64, salt << 4);
            let row = ScanRow {
                vals: self.scan.row_vals(i).try_into().expect("8 slots"),
                idxs: self.scan.row_idxs(i).try_into().expect("8 slots"),
            };
            let front = self.env.props.front[i];
            let front_k = self.env.props.front_k[i] as usize;
            let k = match self.cfg.model {
                ModelKind::Lem(p) => lem_select(&row, front, front_k, &p, &mut rng),
                ModelKind::Aco(p) => aco_select(&row, front, front_k, &p, &mut rng),
            };
            match k {
                Some(k) => {
                    let (dr, dc) = NEIGHBOR_OFFSETS[k];
                    let (ar, ac) = self.env.position(i);
                    self.env.props.future_row[i] = (ar as i64 + dr) as u16;
                    self.env.props.future_col[i] = (ac as i64 + dc) as u16;
                }
                None => {
                    self.env.props.future_row[i] = NO_FUTURE;
                    self.env.props.future_col[i] = NO_FUTURE;
                }
            }
        }
    }

    fn stage_movement(&mut self, step_no: u64) {
        // §IV.d, resolve phase: each live agent with a future recomputes
        // the winner at its *target* cell with that cell's own stream —
        // the draw a per-cell gather makes there — and records itself
        // when it wins. Every contested cell is resolved (identically) by
        // each claimant; exactly the winner pushes.
        let salt = step_no * 4 + KERNEL_MOVE;
        let counter_base = salt << 4;
        let w = self.geom.width;
        let aco = match self.cfg.model {
            ModelKind::Aco(p) => Some(p),
            ModelKind::Lem(_) => None,
        };
        self.winners.clear();
        {
            let mat = &self.env.mat;
            let index = &self.env.index;
            let props = &self.env.props;
            let occ = |r: i64, c: i64| mat.get_or(r, c, CELL_WALL);
            let idx = |r: i64, c: i64| index.get_or(r, c, 0);
            let fut = |a: u32| (props.future_row[a as usize], props.future_col[a as usize]);
            let n = self.geom.total_agents();
            for i in 1..=n {
                if !self.env.alive[i] || props.future_row[i] == NO_FUTURE {
                    continue;
                }
                let fr = i64::from(props.future_row[i]);
                let fc = i64::from(props.future_col[i]);
                let tlin = fr as usize * w + fc as usize;
                let mut trng = StreamRng::with_offset(self.seed, tlin as u64, counter_base);
                if let Some(arr) = gather_winner(&occ, &idx, &fut, fr, fc, &mut trng) {
                    if arr.agent == i as u32 {
                        self.winners.push((i as u32, tlin, arr.step_len()));
                    }
                }
            }
        }

        // Pheromone phase (ACO): evaporate every cell of every plane, then
        // overwrite the winners' destination cells on their group plane
        // with the fused evaporate+deposit a per-cell sweep computes there.
        // Runs before the apply phase so `tour` still holds L_k without
        // this step's segment (l_new = L_k + step_len).
        if let Some(p) = aco {
            let pin = self.pher.as_ref().expect("ACO pheromone");
            let pout = self.pher_next.as_mut().expect("ACO pheromone");
            for gi in 0..pin.groups() {
                let g = Group::new(gi);
                let src = pin.of(g).as_slice();
                let dst = pout.of_mut(g).as_mut_slice();
                for (o, &i) in dst.iter_mut().zip(src) {
                    *o = PheromoneField::fused_update(i, p.tau0, p.rho, 0.0);
                }
            }
            for &(a, dst, step_len) in &self.winners {
                let ai = a as usize;
                let l_new = self.tour.get(ai) + step_len;
                let g = Group::from_label(self.env.props.id[ai]).expect("winner has group label");
                let next = PheromoneField::fused_update(
                    pin.of(g).as_slice()[dst],
                    p.tau0,
                    p.rho,
                    p.q / l_new,
                );
                pout.of_mut(g).as_mut_slice()[dst] = next;
            }
        }

        // Apply phase, in place: winners' source cells (all occupied at
        // step start) and destination cells (all empty at step start) are
        // disjoint sets, so clear-src/set-dst per winner is order-free and
        // lands the exact grid a per-cell write-then-swap produces.
        let (mat, index) = (self.env.mat.as_mut_slice(), self.env.index.as_mut_slice());
        let props = &mut self.env.props;
        for &(a, dst, step_len) in &self.winners {
            let ai = a as usize;
            let src = props.pos[ai] as usize;
            mat[src] = CELL_EMPTY;
            index[src] = 0;
            mat[dst] = props.id[ai];
            index[dst] = a;
            props.pos[ai] = dst as u32;
            if aco.is_some() {
                self.tour.add(ai, step_len);
            }
        }

        if aco.is_some() {
            std::mem::swap(&mut self.pher, &mut self.pher_next);
        }
    }
}

impl StageBackend for CpuBackend {
    fn run_stage(
        &mut self,
        stage: Stage,
        step_no: u64,
        _rec: &mut pedsim_obs::Recorder,
        _metrics: Option<&mut Metrics>,
    ) {
        // The CPU has no launch machinery to report; its kernel counters
        // stay at the zeros the core pre-registered.
        match stage {
            Stage::Init => self.stage_init(),
            Stage::InitialCalc => self.stage_initial_calc(),
            Stage::Tour => self.stage_tour(step_no),
            Stage::Movement => self.stage_movement(step_no),
            Stage::Lifecycle | Stage::Metrics => unreachable!("core-driven stage"),
        }
    }

    fn observe(&self, metrics: &mut Metrics) {
        let movers = self.winners.iter().map(|&(a, ..)| a);
        metrics.observe(movers, &self.env.props.pos);
    }

    fn run_lifecycle(
        &mut self,
        lifecycle: &OpenLifecycle,
        step: u64,
        metrics: Option<&mut Metrics>,
    ) {
        let mut world = HostWorld {
            env: &mut self.env,
            tour: &mut self.tour,
        };
        lifecycle.run_step(&mut world, step, metrics);
    }
}

impl Engine for CpuEngine {
    fn step(&mut self) {
        self.core.step(&mut self.backend);
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
        self.backend.cfg.model
    }

    fn iteration_mode(&self) -> IterationMode {
        IterationMode::Sparse
    }

    fn mat_snapshot(&self) -> Matrix<u8> {
        self.backend.env.mat.clone()
    }

    fn positions(&self) -> (Vec<u16>, Vec<u16>) {
        let env = &self.backend.env;
        split_positions(&env.props.pos, env.width())
    }
}

/// Convenience: build a CPU engine for a small scenario (tests/examples).
pub fn cpu_engine_small(
    width: usize,
    height: usize,
    per_side: usize,
    model: ModelKind,
    seed: u64,
) -> CpuEngine {
    let env = EnvConfig::small(width, height, per_side).with_seed(seed);
    CpuEngine::new(SimConfig::new(env, model).with_checked(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{AcoParams, LemParams};

    fn run_small(model: ModelKind, steps: u64) -> CpuEngine {
        let mut e = cpu_engine_small(32, 32, 30, model, 42);
        e.run(steps);
        e
    }

    #[test]
    fn agents_conserved_lem() {
        let e = run_small(ModelKind::lem(), 50);
        e.environment().check_consistency().expect("consistent");
    }

    #[test]
    fn agents_conserved_aco() {
        let e = run_small(ModelKind::aco(), 50);
        e.environment().check_consistency().expect("consistent");
    }

    #[test]
    fn agents_make_progress() {
        let e = run_small(ModelKind::lem(), 100);
        let m = e.metrics().expect("metrics on");
        assert!(m.total_moves > 0, "nobody moved in 100 steps");
        // On a 32-row grid with ~4 spawn rows, 100 steps crosses many.
        assert!(m.throughput() > 0, "no crossings after 100 steps");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_small(ModelKind::aco(), 30);
        let b = run_small(ModelKind::aco(), 30);
        assert_eq!(a.mat_snapshot(), b.mat_snapshot());
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn seeds_change_trajectories() {
        let mut a = cpu_engine_small(32, 32, 30, ModelKind::lem(), 1);
        let mut b = cpu_engine_small(32, 32, 30, ModelKind::lem(), 2);
        a.run(20);
        b.run(20);
        assert_ne!(a.mat_snapshot(), b.mat_snapshot());
    }

    #[test]
    fn moves_are_single_cell() {
        let mut e = cpu_engine_small(24, 24, 20, ModelKind::lem(), 7);
        let (mut pr, mut pc) = e.positions();
        for _ in 0..30 {
            e.step();
            let (r, c) = e.positions();
            for i in 1..r.len() {
                let dr = (i64::from(r[i]) - i64::from(pr[i])).abs();
                let dc = (i64::from(c[i]) - i64::from(pc[i])).abs();
                assert!(dr <= 1 && dc <= 1, "agent {i} jumped ({dr},{dc})");
            }
            pr = r;
            pc = c;
        }
    }

    #[test]
    fn pheromone_stays_positive_and_grows_on_trails() {
        let e = run_small(ModelKind::aco(), 40);
        let p = e.pheromone().expect("ACO field");
        assert!(p
            .of(Group::TOP)
            .as_slice()
            .iter()
            .all(|&v| v >= p.tau0 * 0.999));
        // Somewhere, someone deposited.
        let max = p
            .of(Group::TOP)
            .as_slice()
            .iter()
            .cloned()
            .fold(0.0f32, f32::max);
        assert!(max > p.tau0, "no deposits after 40 steps");
    }

    #[test]
    fn tour_lengths_accumulate_for_aco() {
        let e = run_small(ModelKind::aco(), 40);
        let total: f32 = e.tour_lengths().len.iter().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn set_model_rejects_variant_change_with_typed_error() {
        let mut e = cpu_engine_small(16, 16, 4, ModelKind::lem(), 1);
        let err = e.set_model(ModelKind::aco()).unwrap_err();
        assert_eq!(err.running, "LEM");
        assert_eq!(err.requested, "ACO");
        assert!(err.to_string().contains("variant"));
        // Parameter overlays within the running variant stay fine — the
        // panic-alarm extension's happy path.
        let overlay = ModelKind::Lem(LemParams {
            sigma: 4.0,
            ..LemParams::default()
        });
        assert!(e.set_model(overlay).is_ok());
        assert_eq!(e.model(), overlay);
    }

    #[test]
    fn forward_priority_off_still_works() {
        let model = ModelKind::Lem(LemParams {
            forward_priority: false,
            ..LemParams::default()
        });
        let e = run_small(model, 30);
        e.environment().check_consistency().expect("consistent");
    }

    #[test]
    fn high_evaporation_keeps_field_near_floor() {
        let model = ModelKind::Aco(AcoParams {
            rho: 1.0,
            ..AcoParams::default()
        });
        let e = run_small(model, 20);
        let p = e.pheromone().expect("field");
        // With ρ=1 everything evaporates to the floor each step except
        // fresh deposits.
        let above = p
            .of(Group::TOP)
            .as_slice()
            .iter()
            .filter(|&&v| v > p.tau0 * 1.5)
            .count();
        assert!(above < 40, "{above} cells hold stale pheromone");
    }
}
