//! The paper's future-work features (§VII), implemented.
//!
//! * [`panic`](mod@panic) — "introduce a panic alarm to emulate some sort of crisis
//!   situation": a parameter-switching overlay that, at a trigger step,
//!   inflates the LEM draw spread / suppresses pheromone trust.
//! * [`ranges`] — "separating the scanning ranges and moving ranges of the
//!   pedestrians": look-ahead scoring over a radius-R neighbourhood while
//!   movement stays single-cell.

pub mod panic;
pub mod ranges;

pub use panic::{PanicAlarm, PanicParams};
