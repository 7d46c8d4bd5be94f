//! Ready-made scenarios.
//!
//! Nine canonical worlds, each exercising one routing/grouping/boundary
//! regime:
//!
//! * [`paper_corridor`] — exactly the paper's evaluation geometry
//!   (obstacle-free bi-directional corridor, edge spawn bands). Takes the
//!   row-table fast path and reproduces the legacy `EnvConfig` trajectories
//!   bit for bit.
//! * [`doorway`] — the corridor pinched to a `gap`-cell doorway mid-height:
//!   the classic bottleneck benchmark (cf. the CALM model's constrained
//!   aisle geometries, arXiv:1910.05749).
//! * [`pillar_hall`] — scattered interior pillars, a mass-gathering hall.
//! * [`crossing`] — two orthogonal streams (top→bottom and left→right)
//!   crossing mid-grid (cf. dynamic navigation fields for intersecting
//!   flows, arXiv:1705.03569). The horizontal stream is a true
//!   second-axis group: its heading derives as rightward, so its
//!   forward-priority cell and per-group metrics describe the flow it
//!   actually is (it used to be mislabelled as a "bottom" stream).
//! * [`four_way_crossing`] — four orthogonal streams on a plaza, one per
//!   edge, all crossing mid-grid: the first world needing more than two
//!   directional groups.
//! * [`t_junction_merge`] — two streams entering a top corridor from its
//!   ends and merging down a single stem toward a shared exit.
//! * [`asymmetric_corridor`] — the paper corridor with uneven group
//!   populations (exercising the explicit per-group index ranges).
//! * [`open_corridor`] — the paper corridor with **open boundaries**: both
//!   edge bands are Poisson-like inflow sources, both targets are sinks,
//!   and the corridor carries two continuous opposing streams at a
//!   sustained density (the fundamental-diagram workload; cf. dynamic
//!   navigation fields for bidirectional corridor flow, arXiv:1705.03569).
//! * [`open_crossing`] — two continuous orthogonal streams crossing
//!   mid-plaza, open boundaries on both.

use pedsim_grid::cell::Group;
use pedsim_grid::EnvConfig;

use crate::region::Region;
use crate::scenario::Scenario;

/// The registry's scenario names, in presentation order.
pub fn names() -> &'static [&'static str] {
    &[
        "paper_corridor",
        "doorway",
        "pillar_hall",
        "crossing",
        "four_way_crossing",
        "t_junction_merge",
        "asymmetric_corridor",
        "open_corridor",
        "open_crossing",
    ]
}

/// Derive the spawn-band depth the legacy corridor would use for this
/// population (the ~0.6-fill rule of [`EnvConfig::effective_spawn_rows`]).
fn band_rows(width: usize, height: usize, per_side: usize) -> usize {
    EnvConfig::small(width, height, per_side).effective_spawn_rows()
}

/// The paper's evaluation geometry as a declarative scenario, mirroring
/// `cfg` (including its seed). Obstacle-free with full-width opposite-edge
/// targets, so it routes by the row-table fast path — bit-identical to
/// building the same [`EnvConfig`] directly.
pub fn paper_corridor(cfg: &EnvConfig) -> Scenario {
    let (w, h) = (cfg.width, cfg.height);
    let s = cfg.effective_spawn_rows();
    Scenario::builder("paper_corridor", w, h)
        .spawn(Group::TOP, Region::row_band(0, s, w))
        .spawn(Group::BOTTOM, Region::row_band(h - s, s, w))
        .target(Group::TOP, Region::row_band(h - s, s, w))
        .target(Group::BOTTOM, Region::row_band(0, s, w))
        .agents_per_side(cfg.agents_per_side)
        .seed(cfg.seed)
        .build()
        .expect("paper corridor geometry is always valid")
}

/// The corridor with a full wall at mid-height pierced by a centred
/// `gap`-cell doorway. Shrinking `gap` turns lane formation into a
/// bottleneck fight.
pub fn doorway(width: usize, height: usize, per_side: usize, gap: usize) -> Scenario {
    assert!(gap >= 1 && gap <= width, "doorway gap must be 1..=width");
    let s = band_rows(width, height, per_side);
    let mid = height / 2;
    assert!(
        mid >= s && mid < height - s,
        "doorway corridor of {height} rows cannot seat {per_side} agents per side: \
         the {s}-row spawn bands reach the mid-height wall"
    );
    let gap_start = (width - gap) / 2;
    let mut b = Scenario::builder("doorway", width, height);
    if gap_start > 0 {
        b = b.wall_rect(mid, 0, 1, gap_start);
    }
    if gap_start + gap < width {
        b = b.wall_rect(mid, gap_start + gap, 1, width - gap_start - gap);
    }
    b.spawn(Group::TOP, Region::row_band(0, s, width))
        .spawn(Group::BOTTOM, Region::row_band(height - s, s, width))
        .target(Group::TOP, Region::row_band(height - s, s, width))
        .target(Group::BOTTOM, Region::row_band(0, s, width))
        .agents_per_side(per_side)
        .build()
        .expect("doorway geometry is always valid")
}

/// A hall with pillars every `spacing` cells in the interior (outside both
/// spawn bands, clear of the side margins).
pub fn pillar_hall(width: usize, height: usize, per_side: usize, spacing: usize) -> Scenario {
    assert!(spacing >= 2, "pillar spacing must be at least 2");
    let s = band_rows(width, height, per_side);
    let mut b = Scenario::builder("pillar_hall", width, height);
    let mut r = s + 2;
    while r + 2 + s < height {
        let mut c = 2;
        while c + 2 < width {
            b = b.wall_cell(r, c);
            c += spacing;
        }
        r += spacing;
    }
    b.spawn(Group::TOP, Region::row_band(0, s, width))
        .spawn(Group::BOTTOM, Region::row_band(height - s, s, width))
        .target(Group::TOP, Region::row_band(height - s, s, width))
        .target(Group::BOTTOM, Region::row_band(0, s, width))
        .agents_per_side(per_side)
        .build()
        .expect("pillar hall geometry is always valid")
}

/// Two orthogonal streams on a `side × side` plaza: group 0 walks
/// top→bottom, group 1 walks left→right, crossing mid-grid. The second
/// group's rightward heading is derived from its regions, so its
/// forward-priority cell, distance plane, and target-mask metrics all
/// describe a genuine second-axis flow.
pub fn crossing(side: usize, per_side: usize) -> Scenario {
    // Smallest band depth whose rectangle (excluding the shared corner)
    // seats the population at ≲ 60 % fill, mirroring the corridor rule.
    let s = (1..side / 2)
        .find(|&s| (s * (side - s)) as f64 * 0.6 >= per_side as f64)
        .unwrap_or(side / 2)
        .max(2);
    assert!(
        s * (side - s) >= per_side,
        "crossing plaza of side {side} cannot seat {per_side} agents per stream"
    );
    Scenario::builder("crossing", side, side)
        // Vertical stream: spawns across the top, right of the horizontal
        // stream's band (regions must be disjoint).
        .spawn(Group::TOP, Region::rect(0, s, s, side - s))
        .target(Group::TOP, Region::row_band(side - s, s, side))
        // Horizontal stream: spawns down the left side, below the vertical
        // stream's band.
        .spawn(Group::BOTTOM, Region::rect(s, 0, side - s, s))
        .target(Group::BOTTOM, Region::col_band(side - s, s, side))
        .agents_per_side(per_side)
        .build()
        .expect("crossing geometry is always valid")
}

/// Band depth for a four-way plaza: each edge band spans `side - 2·depth`
/// cells per row (corners are cut so the four spawn regions stay
/// disjoint). Prefers the ~0.6-fill corridor convention, falling back to
/// the smallest band that physically seats the population.
fn four_way_band(side: usize, per_group: usize) -> usize {
    let cap = |s: usize| s * side.saturating_sub(2 * s);
    let max_s = side / 3;
    (2..=max_s)
        .find(|&s| cap(s) as f64 * 0.6 >= per_group as f64)
        .or_else(|| (2..=max_s).find(|&s| cap(s) >= per_group))
        .unwrap_or_else(|| {
            panic!("four-way plaza of side {side} cannot seat {per_group} agents per stream")
        })
}

/// Four orthogonal streams on a `side × side` plaza, one entering from
/// each edge and exiting through the opposite edge — all four cross
/// mid-grid. Groups are indexed north (0, down), south (1, up),
/// west (2, right), east (3, left); each spawn band excludes the plaza
/// corners so the four regions stay disjoint.
pub fn four_way_crossing(side: usize, per_group: usize) -> Scenario {
    four_way_crossing_mixed(side, [per_group; 4])
}

/// [`four_way_crossing`] with one explicit population per stream (north,
/// south, west, east). Sweeps use this to split an odd nominal population
/// exactly instead of rounding every stream down.
pub fn four_way_crossing_mixed(side: usize, per_group: [usize; 4]) -> Scenario {
    let largest = per_group.iter().copied().max().unwrap_or(0);
    let s = four_way_band(side, largest);
    let span = side - 2 * s;
    let north = Region::rect(0, s, s, span);
    let south = Region::rect(side - s, s, s, span);
    let west = Region::rect(s, 0, span, s);
    let east = Region::rect(s, side - s, span, s);
    Scenario::builder("four_way_crossing", side, side)
        .group(north.clone(), south.clone(), per_group[0])
        .group(south, north, per_group[1])
        .group(west.clone(), east.clone(), per_group[2])
        .group(east, west, per_group[3])
        .build()
        .expect("four-way crossing geometry is always valid")
}

/// Two streams entering a top corridor from its left and right ends and
/// merging down a single central stem toward one shared exit band at the
/// bottom — the classic T-junction merge. Both groups share the exit's
/// target cells (their mask bits overlap), so throughput measures the
/// merged flow.
pub fn t_junction_merge(side: usize, per_group: usize) -> Scenario {
    assert!(side >= 16, "t-junction needs a side of at least 16");
    let bar = side / 4; // top corridor height
    let stem_w = (side / 4).max(2);
    let stem_c0 = (side - stem_w) / 2;
    // Spawn width at each corridor end: prefer ~0.6 fill, fall back to
    // the smallest width that seats the group; both ends stay disjoint.
    let max_w = side / 2;
    let spawn_w = (1..=max_w)
        .find(|&w| (bar * w) as f64 * 0.6 >= per_group as f64)
        .or_else(|| (1..=max_w).find(|&w| bar * w >= per_group))
        .unwrap_or_else(|| {
            panic!("t-junction of side {side} cannot seat {per_group} agents per stream")
        });
    let exit_rows = 2usize;
    let mut b = Scenario::builder("t_junction_merge", side, side);
    // Everything below the corridor is wall except the stem.
    if stem_c0 > 0 {
        b = b.wall_rect(bar, 0, side - bar, stem_c0);
    }
    if stem_c0 + stem_w < side {
        b = b.wall_rect(bar, stem_c0 + stem_w, side - bar, side - stem_c0 - stem_w);
    }
    let exit = Region::rect(side - exit_rows, stem_c0, exit_rows, stem_w);
    b.group(Region::rect(0, 0, bar, spawn_w), exit.clone(), per_group)
        .group(
            Region::rect(0, side - spawn_w, bar, spawn_w),
            exit,
            per_group,
        )
        .build()
        .expect("t-junction geometry is always valid")
}

/// The paper corridor with uneven populations: `top` agents walking down
/// against `bottom` agents walking up. Obstacle-free with opposite-edge
/// band targets, so it still takes the row-table fast path — asymmetric
/// index ranges on the legacy routing, exactly the case the old
/// `agents_per_side * 2` bookkeeping got wrong.
pub fn asymmetric_corridor(width: usize, height: usize, top: usize, bottom: usize) -> Scenario {
    let s_top = band_rows(width, height, top);
    let s_bottom = band_rows(width, height, bottom);
    assert!(
        s_top + s_bottom <= height,
        "corridor of {height} rows cannot seat {top}+{bottom} agents: spawn bands overlap"
    );
    Scenario::builder("asymmetric_corridor", width, height)
        .spawn(Group::TOP, Region::row_band(0, s_top, width))
        .spawn(
            Group::BOTTOM,
            Region::row_band(height - s_bottom, s_bottom, width),
        )
        .target(
            Group::TOP,
            Region::row_band(height - s_bottom, s_bottom, width),
        )
        .target(Group::BOTTOM, Region::row_band(0, s_top, width))
        .population(Group::TOP, top)
        .population(Group::BOTTOM, bottom)
        .build()
        .expect("asymmetric corridor geometry is always valid")
}

/// The paper corridor with open boundaries: both edge bands feed a
/// continuous Poisson-like inflow of `rate` agents per step per group, and
/// both target bands are sinks that remove arriving agents. Each group
/// holds `capacity_per_side` recyclable property slots (the most agents of
/// that group ever live at once); the corridor starts empty and fills
/// toward the inflow/outflow equilibrium. Obstacle-free with full-width
/// opposite-edge targets, so it routes by the row-table fast path — the
/// open-boundary lifecycle on the paper's exact corridor geometry.
pub fn open_corridor(width: usize, height: usize, capacity_per_side: usize, rate: f64) -> Scenario {
    assert!(rate >= 0.0, "inflow rate must be non-negative");
    // The band is the inflow's footprint, not a resident population: size
    // it so the per-cell spawn probability stays ≤ 0.25 (4× headroom for
    // congested steps), one row minimum, a quarter of the corridor at
    // most. Slot capacity is independent — the pool lives off-grid.
    let s = ((rate * 4.0 / width.max(1) as f64).ceil() as usize).clamp(1, (height / 4).max(1));
    assert!(
        s * 2 <= height,
        "open corridor of {height} rows cannot fit inflow bands of {s} rows"
    );
    let top = Region::row_band(0, s, width);
    let bottom = Region::row_band(height - s, s, width);
    Scenario::builder("open_corridor", width, height)
        .spawn(Group::TOP, top.clone())
        .spawn(Group::BOTTOM, bottom.clone())
        .target(Group::TOP, bottom.clone())
        .target(Group::BOTTOM, top.clone())
        .population(Group::TOP, 0)
        .population(Group::BOTTOM, 0)
        .capacity(Group::TOP, capacity_per_side)
        .capacity(Group::BOTTOM, capacity_per_side)
        .source(Group::TOP, top, rate)
        .source(Group::BOTTOM, bottom, rate)
        .build()
        .expect("open corridor geometry is always valid")
}

/// Two continuous orthogonal streams on a `side × side` plaza with open
/// boundaries: group 0 flows top→bottom, group 1 left→right, each fed at
/// `rate` agents per step from its edge band and drained at the opposite
/// edge. Same geometry as [`crossing`], so the streams intersect mid-grid
/// at a sustained density instead of one transient wave.
pub fn open_crossing(side: usize, capacity_per_stream: usize, rate: f64) -> Scenario {
    let s = (1..side / 2)
        .find(|&s| (s * (side - s)) as f64 * 0.6 >= capacity_per_stream as f64)
        .unwrap_or(side / 2)
        .max(2);
    let top = Region::rect(0, s, s, side - s);
    let left = Region::rect(s, 0, side - s, s);
    Scenario::builder("open_crossing", side, side)
        .spawn(Group::TOP, top.clone())
        .target(Group::TOP, Region::row_band(side - s, s, side))
        .spawn(Group::BOTTOM, left.clone())
        .target(Group::BOTTOM, Region::col_band(side - s, s, side))
        .population(Group::TOP, 0)
        .population(Group::BOTTOM, 0)
        .capacity(Group::TOP, capacity_per_stream)
        .capacity(Group::BOTTOM, capacity_per_stream)
        .source(Group::TOP, top, rate)
        .source(Group::BOTTOM, left, rate)
        .build()
        .expect("open crossing geometry is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedsim_grid::{DistanceKind, Heading};

    #[test]
    fn paper_corridor_mirrors_env_config() {
        let cfg = EnvConfig::small(32, 32, 40).with_seed(11);
        let s = paper_corridor(&cfg);
        assert!(s.uses_row_fast_path());
        assert_eq!(s.distance_data().kind, DistanceKind::Rows);
        // Same placement, bit for bit.
        let legacy = pedsim_grid::Environment::new(&cfg);
        let scen = s.build_environment();
        assert_eq!(legacy.mat, scen.mat);
        assert_eq!(legacy.index, scen.index);
        assert_eq!(legacy.props, scen.props);
        assert_eq!(legacy.spawn_rows, scen.spawn_rows);
        assert_eq!(legacy.group_sizes, scen.group_sizes);
    }

    #[test]
    fn doorway_has_exactly_gap_passable_cells_mid_row() {
        for gap in [1usize, 4, 9] {
            let s = doorway(32, 32, 60, gap);
            let mid = 16;
            let open = (0..32).filter(|&c| !s.is_wall(mid, c)).count();
            assert_eq!(open, gap, "gap {gap}");
            assert_eq!(s.distance_data().kind, DistanceKind::Grid);
            s.build_environment()
                .check_consistency()
                .expect("consistent");
        }
    }

    #[test]
    fn pillar_hall_keeps_bands_clear() {
        let s = pillar_hall(48, 48, 200, 6);
        assert!(!s.walls().is_empty());
        let env = s.build_environment();
        env.check_consistency().expect("consistent");
        // No pillar inside either spawn band.
        for &(r, _) in s.walls() {
            assert!((r as usize) >= env.spawn_rows);
            assert!((r as usize) < 48 - env.spawn_rows);
        }
    }

    #[test]
    fn crossing_streams_are_disjoint_and_orthogonal() {
        let s = crossing(40, 150);
        assert_eq!(s.distance_data().kind, DistanceKind::Grid);
        // The horizontal stream is a true second-axis group now: its
        // heading is rightward and its forward slot follows.
        assert_eq!(s.group(Group::BOTTOM).heading, Heading::Right);
        assert_eq!(s.distance_data().forward, vec![0, 4]);
        let env = s.build_environment();
        env.check_consistency().expect("consistent");
        // The horizontal stream's target is a column band: crossing for
        // its agents means "reached the right edge".
        let mask = env.targets.as_ref().expect("target mask");
        let in_target = |g: Group, r: usize, c: usize| mask.get(r, c) & g.target_bit() != 0;
        assert!(in_target(Group::BOTTOM, 20, 39));
        assert!(!in_target(Group::BOTTOM, 20, 0));
        // And the vertical stream still crosses downward.
        assert!(in_target(Group::TOP, 39, 20));
    }

    #[test]
    fn four_way_crossing_has_four_disjoint_streams() {
        let s = four_way_crossing(40, 100);
        assert_eq!(s.n_groups(), 4);
        assert_eq!(s.distance_data().kind, DistanceKind::Grid);
        assert_eq!(s.distance_data().groups, 4);
        assert_eq!(s.distance_data().forward, vec![0, 5, 4, 3]);
        let env = s.build_environment();
        env.check_consistency().expect("consistent");
        assert_eq!(env.total_agents(), 400);
        // Each stream's target sits at the opposite edge.
        let mask = env.targets.as_ref().expect("target mask");
        let in_target = |g: Group, r: usize, c: usize| mask.get(r, c) & g.target_bit() != 0;
        assert!(in_target(Group::new(0), 39, 20)); // north → bottom
        assert!(in_target(Group::new(1), 0, 20)); // south → top
        assert!(in_target(Group::new(2), 20, 39)); // west → right
        assert!(in_target(Group::new(3), 20, 0)); // east → left
        assert!(!in_target(Group::new(2), 20, 0));
    }

    #[test]
    fn t_junction_walls_leave_only_the_stem() {
        let s = t_junction_merge(32, 40);
        let env = s.build_environment();
        env.check_consistency().expect("consistent");
        // Below the corridor, only stem columns are passable.
        let bar = 8;
        let open: Vec<usize> = (0..32).filter(|&c| !s.is_wall(bar, c)).collect();
        assert_eq!(open, (12..20).collect::<Vec<_>>());
        // Both groups share the exit cells: both mask bits set.
        let mask = s.target_mask();
        assert_eq!(
            mask.get(31, 15),
            Group::TOP.target_bit() | Group::BOTTOM.target_bit()
        );
        // Both headings derive downward (the merge direction).
        assert_eq!(s.group(Group::TOP).heading, Heading::Down);
        assert_eq!(s.group(Group::BOTTOM).heading, Heading::Down);
    }

    #[test]
    fn asymmetric_corridor_keeps_fast_path_with_uneven_groups() {
        let s = asymmetric_corridor(32, 32, 60, 20);
        assert!(s.uses_row_fast_path());
        assert_eq!(s.populations(), vec![60, 20]);
        assert_eq!(s.total_agents(), 80);
        let env = s.build_environment();
        env.check_consistency().expect("consistent");
        assert_eq!(env.group_of(60), Group::TOP);
        assert_eq!(env.group_of(61), Group::BOTTOM);
    }

    #[test]
    fn registry_names_cover_all_constructors() {
        assert_eq!(names().len(), 9);
    }

    #[test]
    fn open_corridor_is_open_on_the_fast_path() {
        let s = open_corridor(32, 32, 60, 1.5);
        assert!(s.is_open());
        assert!(s.uses_row_fast_path());
        assert_eq!(s.total_agents(), 0);
        assert_eq!(s.total_capacity(), 120);
        assert_eq!(s.capacities(), vec![60, 60]);
        let src = s.source(Group::TOP).expect("top source");
        assert!((src.rate - 1.5).abs() < 1e-12);
        // Sources sit on the groups' own spawn bands, away from their sinks.
        assert!(src.region.contains(0, 5));
        let env = s.build_environment();
        env.check_consistency().expect("consistent");
        assert_eq!(env.live_count(), 0);
        assert_eq!(env.free[0].len(), 60);
        // Smallest slot pops first.
        assert_eq!(env.free[0].first(), Some(&1));
        assert_eq!(env.free[1].first(), Some(&61));
    }

    #[test]
    fn open_crossing_streams_are_orthogonal_and_open() {
        let s = open_crossing(32, 50, 2.0);
        assert!(s.is_open());
        assert_eq!(s.group(Group::BOTTOM).heading, Heading::Right);
        assert_eq!(s.distance_data().kind, DistanceKind::Grid);
        let env = s.build_environment();
        env.check_consistency().expect("consistent");
        assert_eq!(env.live_count(), 0);
        assert_eq!(env.total_agents(), 100);
    }

    #[test]
    #[should_panic(expected = "reach the mid-height wall")]
    fn doorway_rejects_bands_touching_the_wall() {
        // 8 rows with 20 agents per side derives 4-row bands: the bottom
        // band includes row 4 = the wall row.
        let _ = doorway(8, 8, 20, 2);
    }
}
