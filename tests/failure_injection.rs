//! Failure injection: the substrate must *reject* what the paper's design
//! rules out — write races, invalid launches, inconsistent worlds.

use pedsim::grid::cell::Group;
use pedsim::grid::MAX_SIDE;
use pedsim::prelude::*;
use pedsim::scenario::{registry, ScenarioError};
use pedsim::simt::exec::{BlockCtx, BlockKernel, LaunchConfig};
use pedsim::simt::memory::ScatterBuffer;
use pedsim::simt::{Device, Dim2, LaunchError};

/// A kernel that violates scatter-to-gather: every thread writes slot 0.
struct RacyKernel<'a> {
    out: &'a ScatterBuffer<u32>,
}

impl BlockKernel for RacyKernel<'_> {
    fn block(&self, ctx: &mut BlockCtx) {
        let view = self.out.view();
        ctx.threads(|t| {
            view.write(0, t.global_linear() as u32);
        });
    }
}

#[test]
#[should_panic(expected = "scatter-to-gather violation")]
fn conflict_detector_catches_write_races() {
    let out = ScatterBuffer::<u32>::zeroed(16, true);
    out.begin_epoch();
    let device = Device::sequential();
    let cfg = LaunchConfig::new(Dim2::new(1, 1), Dim2::new(16, 1));
    let _ = device.launch(&cfg, &RacyKernel { out: &out });
}

#[test]
fn invalid_launches_are_rejected_not_executed() {
    let device = Device::sequential();
    let out = ScatterBuffer::<u32>::zeroed(1, false);
    // Zero-sized grid.
    let empty = LaunchConfig::new(Dim2::new(0, 0), Dim2::square(16));
    assert!(matches!(
        device.launch(&empty, &RacyKernel { out: &out }),
        Err(LaunchError::EmptyLaunch { .. })
    ));
    // Block larger than the device allows.
    let huge = LaunchConfig::new(Dim2::square(1), Dim2::new(2048, 1));
    assert!(matches!(
        device.launch(&huge, &RacyKernel { out: &out }),
        Err(LaunchError::BlockTooLarge { .. })
    ));
}

#[test]
fn consistency_checker_flags_corrupted_worlds() {
    let mut env =
        registry::paper_corridor(&EnvConfig::small(32, 32, 20).with_seed(1)).build_environment();
    assert!(env.check_consistency().is_ok());
    // Teleport an agent in the property table without updating the grid.
    let (w, h) = (env.width(), env.height());
    let saved = env.props.pos[3];
    env.props.pos[3] = (31 * w + 31) as u32;
    assert!(env.check_consistency().is_err());
    // A position off the grid is an error too, not a panic.
    env.props.pos[3] = (w * h) as u32;
    assert!(env.check_consistency().is_err());
    env.props.pos[3] = saved;
    assert!(env.check_consistency().is_ok());
}

/// The message of a caught panic.
fn panic_message(caught: Box<dyn std::any::Any + Send>) -> String {
    caught.downcast_ref::<String>().cloned().unwrap_or_default()
}

#[test]
fn overfull_scenarios_are_rejected() {
    // More agents than a spawn band can hold is a typed error at build
    // time, never a corrupted grid.
    let cfg = EnvConfig::small(16, 16, 200).with_spawn_rows(2);
    assert_eq!(
        registry::try_paper_corridor(&cfg).unwrap_err(),
        ScenarioError::SpawnTooSmall {
            group: 0,
            agents: 200,
            capacity: 32
        }
    );
    // The classic constructor has no error channel: it panics with the
    // typed error's message.
    let caught = std::panic::catch_unwind(|| SimConfig::new(cfg, ModelKind::lem()));
    let msg = panic_message(caught.expect_err("overfull corridor must panic"));
    assert!(msg.contains("cannot seat 200 agents"), "{msg}");
}

#[test]
fn oversized_worlds_are_rejected() {
    // A side past the u16 coordinate range is a typed scenario error,
    // checked before anything the size of the grid is allocated.
    let side = MAX_SIDE + 1;
    let built = Scenario::builder("too_wide", side, 4)
        .group(Region::rect(0, 0, 1, 1), Region::rect(3, 0, 1, 1), 1)
        .build();
    assert_eq!(
        built.unwrap_err(),
        ScenarioError::WorldTooLarge {
            width: side,
            height: 4
        }
    );
    // The classic corridor goes through the same door.
    assert_eq!(
        registry::try_paper_corridor(&EnvConfig::small(side, 4, 1)).unwrap_err(),
        ScenarioError::WorldTooLarge {
            width: side,
            height: 4
        }
    );
}

#[test]
fn empty_and_duplicated_regions_are_typed_errors() {
    // Empty rectangles and cell lists, and lists naming a cell twice,
    // come back from `build()` as typed errors, never as a panic at the
    // call.
    let g = Group::new(0);
    let base = || {
        Scenario::builder("regions", 8, 8).group(
            Region::rect(0, 0, 1, 8),
            Region::rect(7, 0, 1, 8),
            4,
        )
    };
    let empty = |what| ScenarioError::EmptyRegion { what };
    for region in [
        Region::rect(0, 0, 0, 8),
        Region::rect(0, 0, 1, 0),
        Region::from_cells([]),
    ] {
        assert!(region.is_empty());
        let spawn = base().spawn(g, region.clone()).build();
        assert_eq!(spawn.unwrap_err(), empty("spawn"));
        let target = base().target(g, region.clone()).build();
        assert_eq!(target.unwrap_err(), empty("target"));
        let source = base().source(g, region, 1.0).build();
        assert_eq!(source.unwrap_err(), empty("source"));
    }
    let twice = Region::from_cells([(0, 3), (0, 1), (0, 2), (0, 1)]);
    assert_eq!(twice.duplicate(), Some((0, 1)));
    for (built, what) in [
        (base().spawn(g, twice.clone()).build(), "spawn"),
        (base().target(g, twice.clone()).build(), "target"),
        (base().source(g, twice, 1.0).build(), "source"),
    ] {
        let cell = (0, 1);
        assert_eq!(
            built.unwrap_err(),
            ScenarioError::DuplicateCell { what, cell }
        );
    }
    // The classic corridor's bands are regions too: zero rows, bands that
    // overlap, and bands taller than the grid are typed errors.
    let corridor =
        |rows| registry::try_paper_corridor(&EnvConfig::small(8, 8, 4).with_spawn_rows(rows));
    assert_eq!(corridor(0).unwrap_err(), empty("spawn"));
    assert!(matches!(
        corridor(5).unwrap_err(),
        ScenarioError::SpawnOverlap { .. }
    ));
    assert_eq!(
        corridor(9).unwrap_err(),
        ScenarioError::OutOfBounds {
            what: "spawn",
            cell: (8, 0)
        }
    );
    assert!(corridor(4).is_ok());
}

#[test]
fn coordinates_past_u16_are_typed_errors() {
    // Walls and regions past the u16 coordinate range come back from
    // `build()` as `OutOfBounds`, never as a panic at the call.
    let far = u16::MAX as usize + 1;
    let base = || {
        Scenario::builder("far", 8, 8).group(Region::rect(0, 0, 1, 8), Region::rect(7, 0, 1, 8), 4)
    };
    let out_of_bounds = |built: Result<Scenario, ScenarioError>, what: &'static str, cell| {
        assert_eq!(
            built.unwrap_err(),
            ScenarioError::OutOfBounds { what, cell }
        );
    };
    out_of_bounds(base().wall_cell(far, 3).build(), "wall", (far, 3));
    out_of_bounds(base().wall_cell(2, far).build(), "wall", (2, far));
    out_of_bounds(
        base().wall_rect(far - 2, 0, 4, 1).build(),
        "wall",
        (far + 1, 0),
    );
    out_of_bounds(
        base().wall_rect(usize::MAX, usize::MAX, 2, 2).build(),
        "wall",
        (usize::MAX, usize::MAX),
    );
    let g = Group::new(0);
    let region = Region::rect(0, far, 1, 2);
    assert_eq!(region.overflow(), Some((0, far + 1)));
    assert!(region.is_empty());
    out_of_bounds(
        base().spawn(g, region.clone()).build(),
        "spawn",
        (0, far + 1),
    );
    out_of_bounds(
        base().target(g, region.clone()).build(),
        "target",
        (0, far + 1),
    );
    out_of_bounds(
        base().source(g, region, 1.0).build(),
        "source",
        (0, far + 1),
    );
    // An in-range wall past the grid keeps its old error.
    out_of_bounds(base().wall_cell(8, 0).build(), "wall", (8, 0));
}

#[test]
fn checked_engines_run_clean() {
    // The whole pipeline under the conflict detector: any scatter bug in
    // any kernel would panic here.
    for model in [ModelKind::lem(), ModelKind::aco()] {
        let cfg =
            SimConfig::new(EnvConfig::small(48, 48, 300).with_seed(8), model).with_checked(true);
        let mut e = GpuEngine::new(cfg, Device::parallel());
        e.run(50);
        e.download_environment()
            .check_consistency()
            .expect("clean run");
    }
}
