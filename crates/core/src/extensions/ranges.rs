//! Separated scanning and moving ranges (§VII future work): "Increasing
//! the scanning range as well as the movement range and using different
//! values for scanning and moving ranges … would add realism".
//!
//! Movement stays single-cell (the paper's moving range), but the LEM
//! scoring can look `scan` cells down each of the eight rays and penalise
//! congested directions: the effective distance of neighbour `k` becomes
//! `D_k · (1 + congestion_k)`, where `congestion_k` is the fraction of
//! occupied cells along the ray beyond the neighbour itself. With
//! `scan = 1` the model reduces exactly to the paper's baseline.

use pedsim_grid::cell::{CELL_EMPTY, NEIGHBOR_OFFSETS};

/// Congestion along ray `k` from `(r, c)`: the fraction of occupied cells
/// at distances `2..=scan` in that direction (0.0 when `scan <= 1`).
///
/// `occ` must return [`pedsim_grid::CELL_WALL`] outside the environment;
/// walls count as congestion (a short ray toward the border is
/// unattractive).
#[inline]
pub fn ray_congestion(occ: &impl Fn(i64, i64) -> u8, r: i64, c: i64, k: usize, scan: u8) -> f32 {
    if scan <= 1 {
        return 0.0;
    }
    let (dr, dc) = NEIGHBOR_OFFSETS[k];
    let mut blocked = 0u32;
    for step in 2..=i64::from(scan) {
        if occ(r + dr * step, c + dc * step) != CELL_EMPTY {
            blocked += 1;
        }
    }
    blocked as f32 / f32::from(scan - 1)
}

/// Apply the congestion penalty to a base distance.
#[inline]
pub fn penalised_distance(base: f32, congestion: f32) -> f32 {
    base * (1.0 + congestion)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedsim_grid::cell::{CELL_TOP, CELL_WALL};

    fn world(blockers: &[(i64, i64)]) -> impl Fn(i64, i64) -> u8 + '_ {
        move |r, c| {
            if !(0..50).contains(&r) || !(0..50).contains(&c) {
                CELL_WALL
            } else if blockers.contains(&(r, c)) {
                CELL_TOP
            } else {
                CELL_EMPTY
            }
        }
    }

    #[test]
    fn open_rays_unpenalised() {
        let occ = world(&[]);
        assert_eq!(ray_congestion(&occ, 25, 25, 0, 5), 0.0);
    }

    #[test]
    fn crowd_ahead_penalises_forward_ray() {
        // Crowd at rows 27 and 28 straight down (ray k=0 from (25,25)).
        let blockers = [(27, 25), (28, 25)];
        let occ = world(&blockers);
        let cong = ray_congestion(&occ, 25, 25, 0, 4);
        // Distances 2..=4: cells (27,25) blocked, (28,25) blocked, (29,25)
        // free → 2/3.
        assert!((cong - 2.0 / 3.0).abs() < 1e-6);
        // Scan range 1 is the paper's baseline: the same crowd reads 0.
        assert_eq!(ray_congestion(&occ, 25, 25, 0, 1), 0.0);
        // A clear lateral ray is unaffected.
        assert_eq!(ray_congestion(&occ, 25, 25, 4, 4), 0.0);
    }

    #[test]
    fn walls_count_as_congestion() {
        let occ = world(&[]);
        // From (1, 25) looking up (k=5): rows -1.. are walls.
        let cong = ray_congestion(&occ, 1, 25, 5, 3);
        assert!((cong - 1.0).abs() < 1e-6);
    }

    #[test]
    fn penalty_scales_distance() {
        assert_eq!(penalised_distance(10.0, 0.5), 15.0);
        assert_eq!(penalised_distance(10.0, 0.0), 10.0);
    }
}
