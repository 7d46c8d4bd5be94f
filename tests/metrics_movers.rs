//! Metrics driven by the step's movers, checked against the full-position
//! diff they replaced.
//!
//! `Metrics::observe` is told who moved and tests arrival only for those
//! movers plus the agents placed since the last observation. The oracle
//! here is the older algorithm: diff every slot against its previous
//! position, and test every uncrossed agent for arrival on every step.
//! The `scalar` oracle and every selection `engines_agree` holds to it
//! must agree with it after every step, on every closed registry world,
//! under both models.

use pedsim::core::validate::held_engines;
use pedsim::grid::cell::Group;
use pedsim::grid::Matrix;
use pedsim::prelude::*;
use pedsim::scenario::{registry, sweep};

/// The full-position diff: what a closed world's metrics must read.
struct DiffOracle {
    geom: Geometry,
    targets: Matrix<u8>,
    row: Vec<u16>,
    col: Vec<u16>,
    crossed: Vec<bool>,
    per_group: Vec<usize>,
    moved_last_step: usize,
    total_moves: u64,
    crossings: Vec<u32>,
}

impl DiffOracle {
    fn new(scenario: &Scenario, engine: &dyn Engine) -> Self {
        let geom = engine.metrics().expect("metrics on").geometry();
        let (row, col) = engine.positions();
        Self {
            geom,
            targets: scenario.target_mask(),
            crossed: vec![false; row.len()],
            row,
            col,
            per_group: vec![0; geom.n_groups()],
            moved_last_step: 0,
            total_moves: 0,
            crossings: Vec::new(),
        }
    }

    fn observe(&mut self, row: &[u16], col: &[u16]) {
        let (mut moved, mut crossings) = (0, 0);
        for i in 1..=self.geom.total_agents() {
            moved += usize::from((row[i], col[i]) != (self.row[i], self.col[i]));
            let g = self.geom.group_of(i);
            let inside = self.targets.get(row[i] as usize, col[i] as usize) & g.target_bit() != 0;
            if inside && !self.crossed[i] {
                self.crossed[i] = true;
                self.per_group[g.index()] += 1;
                crossings += 1;
            }
        }
        self.row = row.to_vec();
        self.col = col.to_vec();
        self.moved_last_step = moved;
        self.total_moves += moved as u64;
        self.crossings.push(crossings);
    }

    fn flux(&self, window: usize) -> Option<f64> {
        let n = self.crossings.len();
        (n >= window).then(|| {
            self.crossings[n - window..]
                .iter()
                .map(|&c| f64::from(c))
                .sum::<f64>()
                / window as f64
        })
    }

    fn check(&self, m: &Metrics, what: &str) {
        assert_eq!(
            m.moved_last_step, self.moved_last_step,
            "{what}: moved_last_step"
        );
        assert_eq!(m.total_moves, self.total_moves, "{what}: total_moves");
        for g in Group::first_n(self.geom.n_groups()) {
            assert_eq!(
                m.crossed(g),
                self.per_group[g.index()],
                "{what}: crossed {g:?}"
            );
        }
        for i in 1..=self.geom.total_agents() {
            assert_eq!(m.agent_crossed(i), self.crossed[i], "{what}: agent {i}");
        }
        for window in [1, 4, 16] {
            assert_eq!(
                m.windowed_flux(window as u64),
                self.flux(window),
                "{what}: flux over {window}"
            );
        }
    }
}

/// The `scalar` oracle first, then every selection `engines_agree` holds
/// to it.
fn all_backends(cfg: &SimConfig) -> Vec<(String, Box<dyn Engine + Send>)> {
    let (scalar, held) = held_engines(cfg);
    let held = held
        .into_iter()
        .map(|((backend, mode), e)| (format!("{backend}/{}", mode.name()), e));
    std::iter::once(("scalar".to_string(), scalar))
        .chain(held)
        .collect()
}

/// Step every backend on `scenario` and hold its metrics to the oracle
/// after every step. Returns the scalar run's throughput.
fn assert_matches_oracle(name: &str, scenario: &Scenario, steps: u64) -> usize {
    let mut throughput = 0;
    for model in [ModelKind::lem(), ModelKind::aco()] {
        let cfg = SimConfig::from_scenario(scenario, model);
        for (backend, mut engine) in all_backends(&cfg) {
            let mut oracle = DiffOracle::new(scenario, engine.as_ref());
            for step in 1..=steps {
                engine.step();
                let (row, col) = engine.positions();
                oracle.observe(&row, &col);
                let what = format!("{name}/{}/{backend} step {step}", model.name());
                oracle.check(engine.metrics().expect("metrics on"), &what);
            }
            if backend == "scalar" {
                throughput += engine.metrics().expect("metrics on").throughput();
            }
        }
    }
    throughput
}

#[test]
fn closed_registry_worlds_match_the_position_diff() {
    let mut crossed = 0;
    for name in registry::names() {
        let scenario = sweep::build_world(name, 32, 12)
            .expect("registry world")
            .with_seed(11);
        if !scenario.is_open() {
            crossed += assert_matches_oracle(name, &scenario, 40);
        }
    }
    assert!(crossed > 0, "no agent crossed: arrivals went unexercised");
}

/// Agents placed inside their own target arrive at the first
/// observation, whether or not they move.
#[test]
fn agents_placed_inside_their_target_arrive_at_the_first_observation() {
    let (w, h) = (16, 24);
    let scenario = Scenario::builder("start_in_target", w, h)
        .spawn(Group::TOP, Region::row_band(0, 6, w))
        .target(Group::TOP, Region::row_band(4, 4, w))
        .spawn(Group::BOTTOM, Region::row_band(h - 6, 6, w))
        .target(Group::BOTTOM, Region::row_band(h - 8, 4, w))
        .agents_per_side(60)
        .build()
        .expect("valid scenario")
        .with_seed(5);
    let cfg = SimConfig::from_scenario(&scenario, ModelKind::lem());
    let mut engine = Backend::scalar().build(cfg).expect("scalar");
    let mut oracle = DiffOracle::new(&scenario, engine.as_ref());
    let (row0, col0) = engine.positions();
    engine.step();
    let (row, col) = engine.positions();
    oracle.observe(&row, &col);
    oracle.check(engine.metrics().expect("metrics on"), "first step");
    let placed_inside = (1..row.len())
        .filter(|&i| oracle.crossed[i] && (row[i], col[i]) == (row0[i], col0[i]))
        .count();
    assert!(placed_inside > 0, "no agent arrived without moving");
    assert_matches_oracle("start_in_target", &scenario, 20);
}

/// An open corridor: `scalar`'s metrics match what its slot table
/// shows after every step. Sinks drain exactly the agents that arrived,
/// in the step they arrived (a source never lies in its own target), so
/// each step's new crossings equal its despawns, and each despawned agent
/// moved in that step. A slot drained and refilled in one step shows as a
/// jump of more than one cell, since this corridor's sources are far from
/// its sinks. (`open_boundary` holds every other backend's tallies to
/// `scalar`'s on an open corridor.)
#[test]
fn open_corridor_counts_every_spawned_arrival() {
    let scenario = registry::open_corridor(32, 32, 40, 2.0).with_seed(17);
    for model in [ModelKind::lem(), ModelKind::aco()] {
        let cfg = SimConfig::from_scenario(&scenario, model).with_checked(true);
        let mut scalar = CpuEngine::new(cfg);
        for step in 1..=150 {
            let (alive, (row0, col0)) = (scalar.environment().alive.clone(), scalar.positions());
            let before = scalar.metrics().expect("metrics on").throughput();
            scalar.step();
            let (row, col) = scalar.positions();
            let env = scalar.environment();
            let (mut moved, mut drained) = (0, 0);
            for i in 1..alive.len() {
                if !alive[i] {
                    continue;
                }
                let jump = (row[i].abs_diff(row0[i])).max(col[i].abs_diff(col0[i]));
                if !env.alive[i] || jump > 1 {
                    drained += 1;
                } else {
                    moved += usize::from(jump == 1);
                }
            }
            let m = scalar.metrics().expect("metrics on");
            let what = format!("{} step {step}", model.name());
            assert_eq!(
                m.throughput() - before,
                drained,
                "{what}: arrivals vs despawns"
            );
            assert_eq!(m.moved_last_step, moved + drained, "{what}: movers");
            assert_eq!(m.live_count(), env.live_count(), "{what}: live");
        }
        let m = scalar.metrics().expect("metrics on");
        assert!(
            m.throughput() > 40,
            "only {} spawned arrivals",
            m.throughput()
        );
    }
}
