//! # pedsim-runner — batched replica execution
//!
//! The paper's evaluation (§V–§VI) is built from *sweeps*: an agent-count
//! ladder timed at five populations, a twenty-density throughput grid with
//! repeats, significance runs over tens of seeds. Each replica is an
//! independent simulation — same code, different `(scenario, model, seed)`
//! — so the natural execution shape is a **batch**: many replicas run
//! concurrently on a persistent worker pool, each stopping as soon as its
//! own [`StopCondition`] fires instead of burning a fixed step budget.
//!
//! * [`Job`] — one replica description: a `SimConfig` (scenario × model ×
//!   seed), a registry [`Backend`](pedsim_core::engine::Backend)
//!   (`scalar` / `pooled` / `simt` and a thread count), and a stop
//!   condition;
//! * [`Batch`] — the executor: a persistent thread pool (reusing the
//!   `simt` worker pool — the same block scheduler the virtual GPU uses,
//!   one level up) that runs a job list and aggregates a [`BatchReport`];
//! * [`RunResult`] / [`BatchReport`] — per-replica outcomes and their
//!   deterministic aggregate, serializable to JSON.
//!
//! ## Determinism
//!
//! The repo's determinism story — bit-identical trajectories for equal
//! configurations — extends from one engine to whole fleets: every job is
//! seeded independently, usually on a sequential backend (parallelism
//! comes from running *replicas* concurrently, not blocks),
//! results land in canonical order regardless of completion order, and
//! [`BatchReport::to_json`] omits wall-clock fields. The same job set
//! therefore produces **byte-identical** JSON across pool worker counts
//! and across job-submission order — asserted by
//! `tests/batch_determinism.rs`.
//!
//! ## Quickstart
//!
//! ```
//! use pedsim_core::prelude::*;
//! use pedsim_runner::{Batch, Job};
//!
//! let jobs: Vec<Job> = (0..4)
//!     .map(|seed| {
//!         let env = EnvConfig::small(32, 32, 30).with_seed(seed);
//!         Job::backend(
//!             format!("corridor/seed{seed}"),
//!             SimConfig::new(env, ModelKind::aco()),
//!             Backend::simt(),
//!             StopCondition::arrived_or_steps(400),
//!         )
//!     })
//!     .collect();
//! let report = Batch::new(2).run(&jobs);
//! assert_eq!(report.results.len(), 4);
//! println!("{}", report.to_json());
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod job;
pub mod report;

pub use batch::Batch;
pub use job::{Job, JobError};
pub use pedsim_core::engine::{InvalidStopCondition, StopCondition, StopReason};
pub use report::{BatchReport, RunResult, FLUX_REPORT_WINDOW};

/// The commonly-used surface of the runner.
pub mod prelude {
    pub use crate::batch::Batch;
    pub use crate::job::{Job, JobError};
    pub use crate::report::{BatchReport, RunResult};
}
