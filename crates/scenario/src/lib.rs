//! # pedsim-scenario — declarative simulation worlds
//!
//! The paper evaluates exactly one geometry: a square bi-directional
//! corridor with edge spawn bands. Its motivating use case — mass
//! gatherings — is full of doorways, pillars, and crossing streams. This
//! crate closes that gap declaratively:
//!
//! * [`Region`] — an ordered cell set (spawn areas, target areas);
//! * [`Scenario`] / [`ScenarioBuilder`] — a validated world description:
//!   geometry, interior obstacle cells, and up to
//!   [`pedsim_grid::cell::MAX_GROUPS`] directional groups, each with its
//!   own spawn/target regions, population (asymmetric mixes allowed), and
//!   heading;
//! * [`registry`] — ready-made worlds: `paper_corridor` (the paper's
//!   geometry from an `EnvConfig`; the classic corridor's only door),
//!   `doorway`, `pillar_hall`, `crossing`, `four_way_crossing`,
//!   `t_junction_merge`, `asymmetric_corridor`, and the open-boundary
//!   `open_corridor` / `open_crossing`;
//! * [`sweep`] — registry-world × population × seed grids, the input
//!   enumeration for `pedsim-runner` batches.
//!
//! Worlds may be **open-boundary**: a group with a [`scenario::SourceDesc`]
//! receives a deterministic Poisson-like inflow, and every target region
//! becomes a sink that removes arriving agents and recycles their property
//! slots — the continuous bi-directional streams the paper's corridor
//! models, at sustained densities instead of one transient.
//!
//! A scenario knows how to *materialise* itself
//! ([`Scenario::build_environment`]) and how agents *route* through it
//! ([`Scenario::distance_data`]): obstacle-free corridor worlds take the
//! paper's row-based constant-memory tables, everything else gets a
//! per-group Dijkstra flow field from `pedsim-grid`. The engines in
//! `pedsim-core` consume both through one `DistRef` view, so the four
//! kernels are geometry-agnostic.

#![warn(missing_docs)]

pub mod region;
pub mod registry;
#[allow(clippy::module_inception)]
pub mod scenario;
pub mod sweep;

pub use region::Region;
pub use scenario::{GroupDesc, Scenario, ScenarioBuilder, ScenarioError, SourceDesc};
pub use sweep::SweepPoint;
