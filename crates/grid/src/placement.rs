//! Random confined placement (§III: "Initially the agents on both sides of
//! the environment are placed randomly but kept confined to the pre-defined
//! number of rows").

use philox::StreamRng;

use crate::cell::CELL_EMPTY;
use crate::matrix::Matrix;
use crate::property::PropertyTable;

/// Place `count` agents with `label` uniformly at random among `cells`
/// (given in a caller-fixed order), assigning indices
/// `first_index..first_index + count`. Scenario spawn regions place
/// through it; the classic corridor's spawn bands are row-major band
/// regions.
///
/// Uses a partial Fisher–Yates shuffle over `cells`, so placement is
/// uniform over all `C(cells, count)` configurations and deterministic in
/// the RNG stream *and* the cell order.
///
/// Panics if `cells` cannot hold `count` agents or any chosen cell is
/// already occupied (spawn regions must be empty — in particular, disjoint
/// from walls and from other groups' regions).
#[allow(clippy::too_many_arguments)]
pub fn place_in_cells(
    mat: &mut Matrix<u8>,
    index: &mut Matrix<u32>,
    props: &mut PropertyTable,
    label: u8,
    mut cells: Vec<(u16, u16)>,
    count: usize,
    first_index: u32,
    rng: &mut StreamRng,
) {
    let capacity = cells.len();
    assert!(
        count <= capacity,
        "cannot place {count} agents in a region of {capacity} cells"
    );
    for i in 0..count {
        let j = i + rng.bounded_u32((capacity - i) as u32) as usize;
        cells.swap(i, j);
    }
    for (k, &(r, c)) in cells[..count].iter().enumerate() {
        let idx = first_index + k as u32;
        assert_eq!(
            mat.get(r as usize, c as usize),
            CELL_EMPTY,
            "spawn cell ({r},{c}) already occupied"
        );
        mat.set(r as usize, c as usize, label);
        index.set(r as usize, c as usize, idx);
        let lin = mat.linear(r as usize, c as usize) as u32;
        props.place(idx as usize, label, lin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CELL_BOTTOM, CELL_TOP};

    fn setup(n: usize) -> (Matrix<u8>, Matrix<u32>, PropertyTable) {
        (
            Matrix::filled(32, 16, CELL_EMPTY),
            Matrix::filled(32, 16, 0u32),
            PropertyTable::new(n),
        )
    }

    /// The cells of the full-width band `r0..r0 + rows` on the 16-wide
    /// test grid, row-major (the classic corridor's spawn order).
    fn band(r0: u16, rows: u16) -> Vec<(u16, u16)> {
        (r0..r0 + rows)
            .flat_map(|r| (0..16u16).map(move |c| (r, c)))
            .collect()
    }

    #[test]
    fn places_exact_count_in_band() {
        let (mut mat, mut index, mut props) = setup(20);
        let mut rng = StreamRng::new(1, 0);
        let cells = band(0, 3);
        place_in_cells(
            &mut mat, &mut index, &mut props, CELL_TOP, cells, 20, 1, &mut rng,
        );
        assert_eq!(mat.count(CELL_TOP), 20);
        // Confined to rows 0..3.
        for (r, _, v) in mat.iter_cells() {
            if v == CELL_TOP {
                assert!(r < 3);
            }
        }
    }

    #[test]
    fn bottom_band_is_at_far_edge() {
        let (mut mat, mut index, mut props) = setup(10);
        let mut rng = StreamRng::new(2, 0);
        let cells = band(30, 2);
        place_in_cells(
            &mut mat,
            &mut index,
            &mut props,
            CELL_BOTTOM,
            cells,
            10,
            1,
            &mut rng,
        );
        assert_eq!(mat.count(CELL_BOTTOM), 10);
        for (r, _, v) in mat.iter_cells() {
            if v == CELL_BOTTOM {
                assert!(r >= 30);
            }
        }
    }

    #[test]
    fn index_and_props_consistent() {
        let (mut mat, mut index, mut props) = setup(12);
        let mut rng = StreamRng::new(3, 0);
        let cells = band(0, 2);
        place_in_cells(
            &mut mat, &mut index, &mut props, CELL_TOP, cells, 12, 1, &mut rng,
        );
        for (r, c, v) in index.iter_cells() {
            if v != 0 {
                assert_eq!(props.pos[v as usize] as usize, index.linear(r, c));
                assert_eq!(props.id[v as usize], mat.get(r, c));
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let (mut m1, mut i1, mut p1) = setup(15);
        let (mut m2, mut i2, mut p2) = setup(15);
        let mut rng = StreamRng::new(7, 0);
        place_in_cells(
            &mut m1,
            &mut i1,
            &mut p1,
            CELL_TOP,
            band(0, 3),
            15,
            1,
            &mut rng,
        );
        let mut rng = StreamRng::new(7, 0);
        place_in_cells(
            &mut m2,
            &mut i2,
            &mut p2,
            CELL_TOP,
            band(0, 3),
            15,
            1,
            &mut rng,
        );
        assert_eq!(m1, m2);
        assert_eq!(i1, i2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn full_band_fills_every_cell() {
        let (mut mat, mut index, mut props) = setup(48);
        let mut rng = StreamRng::new(5, 0);
        let cells = band(0, 3);
        place_in_cells(
            &mut mat, &mut index, &mut props, CELL_TOP, cells, 48, 1, &mut rng,
        );
        for r in 0..3 {
            for c in 0..16 {
                assert_eq!(mat.get(r, c), CELL_TOP);
            }
        }
    }

    #[test]
    fn region_placement_confined_to_cells() {
        let (mut mat, mut index, mut props) = setup(6);
        // An L-shaped region.
        let region = vec![
            (5u16, 5u16),
            (5, 6),
            (6, 5),
            (7, 5),
            (8, 5),
            (9, 9),
            (2, 11),
        ];
        let mut rng = StreamRng::new(4, 0);
        place_in_cells(
            &mut mat,
            &mut index,
            &mut props,
            CELL_TOP,
            region.clone(),
            6,
            1,
            &mut rng,
        );
        assert_eq!(mat.count(CELL_TOP), 6);
        for (r, c, v) in mat.iter_cells() {
            if v == CELL_TOP {
                assert!(region.contains(&(r as u16, c as u16)), "({r},{c})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn overfull_band_rejected() {
        let (mut mat, mut index, mut props) = setup(49);
        let mut rng = StreamRng::new(5, 0);
        let cells = band(0, 3);
        place_in_cells(
            &mut mat, &mut index, &mut props, CELL_TOP, cells, 49, 1, &mut rng,
        );
    }
}
