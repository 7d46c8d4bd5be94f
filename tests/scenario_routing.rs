//! Scenario-subsystem acceptance: the declarative worlds run on both
//! engines, obstacle routing never violates wall cells, the flow field is
//! a true descent potential, and `paper_corridor` reproduces the pinned
//! trajectories of the corridor constructor it replaced.

use pedsim::grid::cell::{Group, CELL_WALL};
use pedsim::grid::{DistanceData, GridDistanceField, NEIGHBOR_OFFSETS};
use pedsim::prelude::*;
use pedsim::scenario::registry;

/// The registry scenarios at test scale (all seven worlds, multi-group
/// and asymmetric included).
fn registry_worlds(seed: u64) -> Vec<Scenario> {
    vec![
        registry::paper_corridor(&EnvConfig::small(32, 32, 60).with_seed(seed)),
        registry::doorway(32, 32, 60, 4).with_seed(seed),
        registry::pillar_hall(32, 32, 60, 5).with_seed(seed),
        registry::crossing(32, 80).with_seed(seed),
        registry::four_way_crossing(32, 40).with_seed(seed),
        registry::t_junction_merge(32, 48).with_seed(seed),
        registry::asymmetric_corridor(32, 32, 80, 30).with_seed(seed),
    ]
}

/// Assert no agent stands on a wall cell and walls survived untouched.
fn assert_walls_respected(env: &Environment, scenario: &Scenario) {
    let expected_walls = scenario.walls().len();
    assert_eq!(
        env.mat.count(CELL_WALL),
        expected_walls,
        "{}: wall count changed",
        scenario.name()
    );
    for i in 1..=env.total_agents() {
        let (r, c) = env.position(i);
        assert!(
            !scenario.is_wall(r, c),
            "{}: agent {i} stands on wall ({r},{c})",
            scenario.name()
        );
    }
}

#[test]
fn all_registry_scenarios_run_on_both_engines() {
    for scenario in registry_worlds(17) {
        for model in [ModelKind::lem(), ModelKind::aco()] {
            let cfg = SimConfig::from_scenario(&scenario, model).with_checked(true);
            let mut cpu = CpuEngine::new(cfg.clone());
            let mut gpu = GpuEngine::new(cfg, pedsim::simt::Device::parallel());
            cpu.run(40);
            gpu.run(40);
            let cpu_env = cpu.environment();
            cpu_env
                .check_consistency()
                .unwrap_or_else(|e| panic!("{} {} cpu: {e}", scenario.name(), model.name()));
            assert_walls_respected(cpu_env, &scenario);
            let gpu_env = gpu.download_environment();
            gpu_env
                .check_consistency()
                .unwrap_or_else(|e| panic!("{} {} gpu: {e}", scenario.name(), model.name()));
            assert_walls_respected(&gpu_env, &scenario);
            assert_eq!(
                cpu.mat_snapshot(),
                gpu.mat_snapshot(),
                "{} {}: engines diverged",
                scenario.name(),
                model.name()
            );
        }
    }
}

#[test]
fn engines_agree_on_obstacle_scenarios() {
    // The acceptance bar: exact agreement of every engine with the scalar
    // oracle on a world with interior obstacles (grid flow-field routing).
    for model in [ModelKind::lem(), ModelKind::aco()] {
        let scenario = registry::doorway(32, 32, 80, 3).with_seed(23);
        let cfg = SimConfig::from_scenario(&scenario, model).with_checked(true);
        assert_eq!(
            engines_agree(cfg, 40, 10, None),
            None,
            "{} diverged on the doorway scenario",
            model.name()
        );
    }
    // And on the orthogonal-streams world (no walls, non-band targets).
    let cfg = SimConfig::from_scenario(&registry::crossing(28, 60).with_seed(5), ModelKind::aco())
        .with_checked(true);
    assert_eq!(engines_agree(cfg, 30, 10, None), None, "crossing diverged");
}

/// FNV-1a over the trajectory state: the cell-label matrix, every agent
/// position and the throughput.
fn trajectory_hash(e: &impl Engine) -> u64 {
    let (row, col) = e.positions();
    let halves: Vec<u8> = row
        .iter()
        .chain(&col)
        .flat_map(|v| v.to_le_bytes())
        .collect();
    pedsim::obs::hash::Fnv64::new()
        .bytes(e.mat_snapshot().as_slice())
        .bytes(&halves)
        .usize(e.metrics().expect("metrics on").throughput())
        .finish()
}

#[test]
fn paper_corridor_reproduces_legacy_trajectories_exactly() {
    // The pins were taken from the `EnvConfig` corridor constructor this
    // door replaced, on both engines: placement, routing (row-table fast
    // path) and metrics must all still match it.
    let env_cfg = EnvConfig::small(40, 40, 150).with_seed(91);
    let pins = [
        (ModelKind::lem(), 0x2627_549e_ed1a_24e8),
        (ModelKind::aco(), 0xde0a_9ea5_6343_a1e2),
    ];
    for (model, pin) in pins {
        let classic = SimConfig::new(env_cfg, model).with_checked(true);
        let mut gpu = GpuEngine::new(classic, pedsim::simt::Device::parallel());
        gpu.run(60);
        assert_eq!(trajectory_hash(&gpu), pin, "{}: simt", model.name());
        let scenic =
            SimConfig::from_scenario(&registry::paper_corridor(&env_cfg), model).with_checked(true);
        let mut cpu = CpuEngine::new(scenic);
        cpu.run(60);
        assert_eq!(trajectory_hash(&cpu), pin, "{}: scalar", model.name());
    }
}

/// The compiled front-slot plane is exactly the distance argmin it
/// replaces: for every registry world at side 64, every group and every
/// cell, the plane's slot is the neighbour with the least distance, ties
/// broken toward the group's forward slot.
#[test]
fn front_plane_is_the_distance_argmin_on_every_registry_world() {
    let side = 64;
    for &name in registry::names() {
        let scenario =
            pedsim::scenario::sweep::build_world(name, side, 120).expect("registry name");
        let dist = scenario.distance_data();
        let view = dist.dist_ref();
        for g in Group::first_n(dist.groups) {
            let fwd = view.forward_k(g);
            for r in 0..side as i64 {
                for c in 0..side as i64 {
                    let d = |k: usize| view.neighbor(g, r, c, k);
                    let argmin = (0..8).fold(fwd, |best, k| if d(k) < d(best) { k } else { best });
                    assert_eq!(view.front_k(g, r, c), argmin, "{name} {g:?} ({r},{c})");
                }
            }
        }
    }
}

#[test]
fn crossing_streams_reach_their_targets() {
    let cfg = SimConfig::from_scenario(&registry::crossing(32, 60).with_seed(3), ModelKind::aco());
    let mut e = GpuEngine::new(cfg, pedsim::simt::Device::parallel());
    e.run(400);
    let m = e.metrics().expect("metrics");
    // Both the downward and the rightward stream must make it across.
    assert!(m.crossed_top() > 0, "vertical stream never arrived");
    assert!(m.crossed_bottom() > 0, "horizontal stream never arrived");
}

#[test]
fn doorway_bottleneck_still_flows() {
    // A 2-cell doorway chokes but must not deadlock at moderate load.
    let cfg = SimConfig::from_scenario(
        &registry::doorway(32, 32, 40, 2).with_seed(7),
        ModelKind::aco(),
    );
    let mut e = GpuEngine::new(cfg, pedsim::simt::Device::parallel());
    e.run(600);
    assert!(
        e.metrics().expect("metrics").throughput() > 0,
        "nobody made it through the doorway"
    );
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

        /// No agent is ever placed on, or moves into, an obstacle cell —
        /// across random doorway/pillar worlds, models, seeds, and steps.
        #[test]
        fn agents_never_touch_walls(
            seed in 0u64..500,
            gap in 1usize..8,
            spacing in 3usize..8,
            pillars in proptest::prelude::any::<bool>(),
            aco in proptest::prelude::any::<bool>(),
        ) {
            let scenario = if pillars {
                registry::pillar_hall(28, 28, 40, spacing).with_seed(seed)
            } else {
                registry::doorway(28, 28, 40, gap).with_seed(seed)
            };
            let model = if aco { ModelKind::aco() } else { ModelKind::lem() };
            let cfg = SimConfig::from_scenario(&scenario, model).with_checked(true);
            let mut e = CpuEngine::new(cfg);
            for _ in 0..15 {
                e.step();
                let env = e.environment();
                prop_assert!(env.check_consistency().is_ok());
                for i in 1..=env.total_agents() {
                    let (r, c) = env.position(i);
                    prop_assert!(
                        !scenario.is_wall(r, c),
                        "agent {i} on wall ({r},{c})"
                    );
                }
            }
        }

        /// The flow field is a descent potential: from every reachable
        /// passable cell, the front cell (distance-argmin neighbour — the
        /// step forward-priority takes) never increases the distance to
        /// target, and strictly decreases it away from the target region.
        #[test]
        fn flow_field_descends_along_chosen_steps(
            seed in 0u64..200,
            gap in 1usize..9,
        ) {
            let scenario = registry::doorway(24, 24, 30, gap).with_seed(seed);
            let field = GridDistanceField::compute(
                24,
                24,
                |r, c| scenario.is_wall(r, c),
                &[
                    scenario.target(Group::TOP).cells(),
                    scenario.target(Group::BOTTOM).cells(),
                ],
            );
            let data = DistanceData::from_field(&field);
            let view = data.dist_ref();
            for g in Group::BOTH {
                for r in 0..24usize {
                    for c in 0..24usize {
                        if scenario.is_wall(r, c) || !field.reachable(g, r, c) {
                            continue;
                        }
                        let here = field.potential(g, r, c);
                        let fk = view.front_k(g, r as i64, c as i64);
                        let (dr, dc) = NEIGHBOR_OFFSETS[fk];
                        let (nr, nc) = (r as i64 + dr, c as i64 + dc);
                        prop_assume!(nr >= 0 && nc >= 0 && (nr as usize) < 24 && (nc as usize) < 24);
                        let next = field.potential(g, nr as usize, nc as usize);
                        prop_assert!(
                            next <= here,
                            "{g:?} ({r},{c}): front step climbs {here} -> {next}"
                        );
                        if !scenario.target(g).contains(r as u16, c as u16) {
                            prop_assert!(
                                next < here,
                                "{g:?} ({r},{c}): no strict descent off-target"
                            );
                        }
                    }
                }
            }
        }
    }
}
