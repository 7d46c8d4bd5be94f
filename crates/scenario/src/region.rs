//! Cell regions: where agents spawn and where they are headed.

/// A set of cells with a fixed enumeration order.
///
/// The order matters: spawn placement runs a partial Fisher–Yates shuffle
/// over the region's cells, so the enumeration order is part of the
/// deterministic-placement contract (the registry's `paper_corridor`
/// reproduces the legacy corridor bit for bit *because* its spawn regions
/// enumerate the same band cells in the same row-major order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    cells: Vec<(u16, u16)>,
    /// A cell past the `u16` coordinate range the region was asked to
    /// cover; such a region holds no cells, and
    /// [`ScenarioBuilder::build`](crate::ScenarioBuilder::build) rejects
    /// it as `ScenarioError::OutOfBounds`.
    overflow: Option<(usize, usize)>,
}

impl Region {
    /// A rectangle of `rows × cols` cells with top-left corner `(r0, c0)`,
    /// enumerated row-major. A rectangle reaching past the `u16`
    /// coordinate range holds no cells and records its far corner as
    /// [`Region::overflow`].
    pub fn rect(r0: usize, c0: usize, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "empty region rectangle");
        let far = (r0.saturating_add(rows - 1), c0.saturating_add(cols - 1));
        if far.0 > u16::MAX as usize || far.1 > u16::MAX as usize {
            return Self {
                cells: Vec::new(),
                overflow: Some(far),
            };
        }
        Self {
            cells: (r0..r0 + rows)
                .flat_map(|r| (c0..c0 + cols).map(move |c| (r as u16, c as u16)))
                .collect(),
            overflow: None,
        }
    }

    /// A full-width horizontal band: rows `r0..r0 + rows` over `width`
    /// columns (the classic spawn/target band shape).
    pub fn row_band(r0: usize, rows: usize, width: usize) -> Self {
        Self::rect(r0, 0, rows, width)
    }

    /// A full-height vertical band: columns `c0..c0 + cols` over `height`
    /// rows.
    pub fn col_band(c0: usize, cols: usize, height: usize) -> Self {
        Self::rect(0, c0, height, cols)
    }

    /// An explicit cell list (kept in the given order).
    ///
    /// Panics on duplicates: a region is a *set* with an enumeration
    /// order, and a duplicated spawn cell would otherwise surface only as
    /// a placement panic deep inside `build_environment`.
    pub fn from_cells(cells: impl IntoIterator<Item = (u16, u16)>) -> Self {
        let cells: Vec<_> = cells.into_iter().collect();
        assert!(!cells.is_empty(), "empty region");
        let mut seen = cells.clone();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(before, seen.len(), "duplicate cell in region");
        Self {
            cells,
            overflow: None,
        }
    }

    /// The cell past the `u16` coordinate range that [`Region::rect`] was
    /// asked to cover, if any.
    #[inline]
    pub fn overflow(&self) -> Option<(usize, usize)> {
        self.overflow
    }

    /// The cells in enumeration order.
    #[inline]
    pub fn cells(&self) -> &[(u16, u16)] {
        &self.cells
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// False for every region but one whose rectangle overflowed the
    /// coordinate range (see [`Region::overflow`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Membership test (linear; regions are small and this is not on a
    /// simulation hot path).
    pub fn contains(&self, r: u16, c: u16) -> bool {
        self.cells.contains(&(r, c))
    }

    /// Number of distinct rows the region touches.
    pub fn row_extent(&self) -> usize {
        let mut rows: Vec<u16> = self.cells.iter().map(|&(r, _)| r).collect();
        rows.sort_unstable();
        rows.dedup();
        rows.len()
    }

    /// Whether this region is exactly the full-width band of `rows` rows
    /// flush against the given edge (`top = true` for rows `0..rows`).
    pub fn is_edge_row_band(&self, width: usize, height: usize, top: bool) -> bool {
        let rows = self.cells.len() / width.max(1);
        if rows * width != self.cells.len() || rows == 0 || rows > height {
            return false;
        }
        let r0 = if top { 0 } else { height - rows };
        *self == Self::row_band(r0, rows, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_is_row_major() {
        let r = Region::rect(2, 3, 2, 2);
        assert_eq!(r.cells(), &[(2, 3), (2, 4), (3, 3), (3, 4)]);
        assert_eq!(r.len(), 4);
        assert!(r.contains(3, 4));
        assert!(!r.contains(4, 3));
        assert_eq!(r.row_extent(), 2);
    }

    #[test]
    fn edge_band_detection() {
        let top = Region::row_band(0, 3, 16);
        assert!(top.is_edge_row_band(16, 32, true));
        assert!(!top.is_edge_row_band(16, 32, false));
        let bottom = Region::row_band(29, 3, 16);
        assert!(bottom.is_edge_row_band(16, 32, false));
        // An interior band is neither.
        let mid = Region::row_band(10, 3, 16);
        assert!(!mid.is_edge_row_band(16, 32, true));
        assert!(!mid.is_edge_row_band(16, 32, false));
        // A partial-width rect is not a band.
        let partial = Region::rect(0, 1, 3, 15);
        assert!(!partial.is_edge_row_band(16, 32, true));
    }

    #[test]
    fn from_cells_keeps_order() {
        let r = Region::from_cells([(5, 5), (2, 9), (5, 6)]);
        assert_eq!(r.cells(), &[(5, 5), (2, 9), (5, 6)]);
    }

    #[test]
    #[should_panic(expected = "duplicate cell")]
    fn from_cells_rejects_duplicates() {
        let _ = Region::from_cells([(1, 1), (2, 2), (1, 1)]);
    }

    #[test]
    fn col_band_shape() {
        let r = Region::col_band(0, 2, 4);
        assert_eq!(r.len(), 8);
        assert!(r.contains(3, 1));
        assert!(!r.contains(3, 2));
    }
}
