//! Helpers shared by the integration suites.

use pedsim::prelude::*;

/// FNV-1a over the trajectory state: the environment matrix, then every
/// agent's row and every agent's column as little-endian `u16`s. Stable
/// across platforms (all inputs are exact integer data); the golden
/// trajectory hashes of the suites are taken over these bytes.
pub fn trajectory_hash(e: &(impl Engine + ?Sized)) -> u64 {
    let (row, col) = e.positions();
    let pos: Vec<u8> = row
        .iter()
        .chain(&col)
        .flat_map(|v| v.to_le_bytes())
        .collect();
    pedsim::obs::hash::Fnv64::new()
        .bytes(e.mat_snapshot().as_slice())
        .bytes(&pos)
        .finish()
}
