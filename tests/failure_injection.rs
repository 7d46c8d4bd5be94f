//! Failure injection: the substrate must *reject* what the paper's design
//! rules out — write races, invalid launches, inconsistent worlds.

use pedsim::grid::MAX_SIDE;
use pedsim::prelude::*;
use pedsim::scenario::ScenarioError;
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
    let mut env = Environment::new(&EnvConfig::small(32, 32, 20).with_seed(1));
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

#[test]
fn overfull_scenarios_are_rejected() {
    // More agents than the spawn bands can hold must panic at build time,
    // not corrupt the grid.
    let result = std::panic::catch_unwind(|| {
        let cfg = EnvConfig::small(16, 16, 200).with_spawn_rows(2);
        Environment::new(&cfg)
    });
    assert!(result.is_err());
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
    // The classic corridor asserts the same bound instead of wrapping
    // column coordinates onto duplicate cells.
    let result = std::panic::catch_unwind(|| Environment::new(&EnvConfig::small(side, 4, 1)));
    let msg = result.expect_err("oversized corridor must panic");
    let msg = msg
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(msg.contains("exceeds the largest side"), "{msg}");
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
