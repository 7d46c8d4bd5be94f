//! The open-boundary agent lifecycle: despawn-at-sink and
//! spawn-at-source, run identically by both engines.
//!
//! Closed worlds place every agent once and run to arrival; open worlds
//! carry continuous streams. Each step, after the four kernels and the
//! metrics observation, an open engine runs two extra phases through
//! [`OpenLifecycle::run_step`]:
//!
//! 1. **Despawn** — every live agent standing inside its group's target
//!    region leaves the grid; its cell empties and its property slot joins
//!    the group's free pool (smallest slot reused first).
//! 2. **Spawn** — for each group with a source, every *empty* source cell
//!    flips an independent coin with probability `rate / |region|`; heads
//!    spawns a recycled slot there (skipped silently when the pool is
//!    dry, so the live population never exceeds the slot capacity).
//!
//! Determinism: the spawn draws use the Philox `(seed, stream, counter)`
//! scheme — group `g` draws from stream [`source_stream`]`(g)` with the
//! counter advanced by a fixed per-step stride — and one draw is consumed
//! per source cell per step *regardless* of occupancy or pool state, so
//! the arrival sequence depends only on `(seed, step)`, never on engine,
//! schedule, or congestion history of the RNG. Both engines drive this
//! module over the same [`LifecycleWorld`] view, which is why open-world
//! trajectories stay bit-identical across engines — the same guarantee
//! the closed worlds already had.

use std::sync::Arc;

use pedsim_grid::cell::Group;
use pedsim_grid::Matrix;
use pedsim_scenario::Scenario;
use philox::StreamRng;

use crate::metrics::{Geometry, Metrics};

/// The dedicated inflow RNG stream of group `g`: `u64::MAX - 9 - g`,
/// directly below the placement streams (`u64::MAX - 1 - g`) and far from
/// the per-cell/per-agent streams the kernels draw from.
#[inline]
pub fn source_stream(g: usize) -> u64 {
    u64::MAX - 9 - g as u64
}

/// One group's source, compiled for the step loop.
struct SourceRuntime {
    group: Group,
    /// Source cells in the deterministic spawn order.
    cells: Vec<(u16, u16)>,
    /// Per-cell spawn probability as a fixed-point threshold: a 32-bit
    /// draw spawns iff `draw < threshold` (threshold `2^32` means always).
    threshold: u64,
}

/// The compiled lifecycle of one open scenario.
pub struct OpenLifecycle {
    geom: Geometry,
    targets: Arc<Matrix<u8>>,
    sources: Vec<SourceRuntime>,
    seed: u64,
}

/// The mutable world surface the lifecycle drives — implemented over the
/// CPU engine's [`pedsim_grid::Environment`] and the GPU engine's
/// device-state buffers, so one copy of the phase logic serves both.
pub trait LifecycleWorld {
    /// Whether slot `i` holds a live agent.
    fn is_alive(&self, i: usize) -> bool;
    /// Current linear cell (`row·width + col`) of slot `i`.
    fn position(&self, i: usize) -> usize;
    /// Whether cell `(r, c)` is empty (no agent, no wall).
    fn is_cell_empty(&self, r: u16, c: u16) -> bool;
    /// Remove the live agent in slot `i` (group `g`) and recycle the slot.
    fn despawn(&mut self, g: Group, i: usize);
    /// Spawn a recycled slot of group `g` at the empty cell `(r, c)`;
    /// `None` when the group's pool is dry.
    fn spawn(&mut self, g: Group, r: u16, c: u16) -> Option<u32>;
}

impl OpenLifecycle {
    /// Compile `scenario`'s lifecycle, or `None` for closed worlds.
    /// `geom` must be the engine's capacity-sized geometry; `targets` the
    /// environment's mask (so the lifecycle and the metrics share one
    /// mask instead of rebuilding it per engine).
    pub fn from_scenario(
        scenario: &Scenario,
        geom: Geometry,
        targets: Arc<Matrix<u8>>,
    ) -> Option<Self> {
        if !scenario.is_open() {
            return None;
        }
        let sources = (0..scenario.n_groups())
            .filter_map(|gi| {
                let g = Group::new(gi);
                scenario.source(g).map(|src| {
                    let cells = src.region.cells().to_vec();
                    let p = (src.rate / cells.len() as f64).clamp(0.0, 1.0);
                    SourceRuntime {
                        group: g,
                        cells,
                        threshold: (p * (1u64 << 32) as f64).round() as u64,
                    }
                })
            })
            .collect();
        Some(Self {
            geom,
            targets,
            sources,
            seed: scenario.seed(),
        })
    }

    /// Run the despawn and spawn phases for the step that just finished
    /// (`step` is the 1-based count of completed steps, i.e. the engine's
    /// `steps_done()` after the kernels ran). Lifecycle events are echoed
    /// into `metrics` when tracking is on.
    pub fn run_step<W: LifecycleWorld>(
        &self,
        world: &mut W,
        step: u64,
        mut metrics: Option<&mut Metrics>,
    ) {
        // Despawn: slots in ascending order — a fixed, engine-independent
        // scan. Arrival was already counted by the metrics observation
        // that precedes this phase.
        for i in 1..=self.geom.total_agents() {
            if !world.is_alive(i) {
                continue;
            }
            let g = self.geom.group_of(i);
            if self.targets.as_slice()[world.position(i)] & g.target_bit() != 0 {
                world.despawn(g, i);
                if let Some(m) = metrics.as_deref_mut() {
                    m.note_despawn(i);
                }
            }
        }
        // Spawn: groups in index order, cells in region order, one draw
        // per cell — the stream position after a step is a pure function
        // of the step number.
        for src in &self.sources {
            let stride = src.cells.len() as u64;
            let mut rng =
                StreamRng::with_offset(self.seed, source_stream(src.group.index()), step * stride);
            for &(r, c) in &src.cells {
                let draw = u64::from(rng.next_u32());
                if draw >= src.threshold || !world.is_cell_empty(r, c) {
                    continue;
                }
                if let Some(idx) = world.spawn(src.group, r, c) {
                    if let Some(m) = metrics.as_deref_mut() {
                        m.note_spawn(idx as usize);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_streams_sit_below_placement_streams() {
        // Placement uses u64::MAX - 1 - g for g < MAX_GROUPS; sources must
        // not collide with it for any group index.
        for g in 0..pedsim_grid::cell::MAX_GROUPS {
            let s = source_stream(g);
            assert!(s <= u64::MAX - 9);
            assert!(s > u64::MAX - 17);
        }
    }

    #[test]
    fn compile_is_none_for_closed_worlds() {
        let cfg = pedsim_grid::EnvConfig::small(16, 16, 4);
        let scenario = pedsim_scenario::registry::paper_corridor(&cfg);
        let geom = Geometry::with_groups(16, 16, &[4, 4]);
        let targets = Arc::new(scenario.target_mask());
        assert!(OpenLifecycle::from_scenario(&scenario, geom, targets).is_none());
    }

    #[test]
    fn thresholds_scale_with_rate_and_region() {
        let scenario = pedsim_scenario::registry::open_corridor(16, 16, 8, 4.0);
        let geom = Geometry::with_groups(16, 16, &[8, 8]);
        let targets = Arc::new(scenario.target_mask());
        let lc = OpenLifecycle::from_scenario(&scenario, geom, targets).expect("open");
        assert_eq!(lc.sources.len(), 2);
        // rate 4 over a 16-cell band row? (band is rows × 16 cells) —
        // whatever the band size, p = rate / len and the fixed-point
        // threshold round-trips to it.
        for src in &lc.sources {
            let p = src.threshold as f64 / (1u64 << 32) as f64;
            let expect = 4.0 / src.cells.len() as f64;
            assert!((p - expect).abs() < 1e-9, "p {p} vs {expect}");
        }
    }
}
