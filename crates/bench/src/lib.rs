//! # pedsim-bench — the paper's evaluation, regenerated
//!
//! One module per experiment (see DESIGN.md §4 for the index):
//!
//! * [`fig5`] — execution-time comparisons: LEM vs ACO on the virtual GPU
//!   (Fig. 5a), ACO on CPU vs GPU (Fig. 5b), and the derived speedup curve
//!   (Fig. 5c);
//! * [`fig6`] — throughput: LEM vs ACO on the GPU across densities
//!   (Fig. 6a) and CPU vs GPU with the binomial-GLM significance test
//!   (Fig. 6b);
//! * [`table1`] — the hardware table and the property-matrix schema;
//! * [`ablation`] — the §IV implementation-technique claims measured:
//!   scatter-to-gather vs atomics, tiled vs direct global access,
//!   branchless vs branchy selection, and model-parameter sweeps;
//! * [`sweep`] — registry worlds × densities × seeds as one early-
//!   terminating batch with a JSON `BatchReport`;
//! * [`fundamental_diagram`] — the open corridor's flux/density curve
//!   across an inflow ladder (steady-state stop, windowed flux), seeding
//!   the repo-root `BENCH_fundamental_diagram.json` perf trajectory;
//! * [`step_throughput`] — per-stage wall time and steps/second of the
//!   unified engine pipeline on every registry backend, over one scale
//!   ladder of registry worlds (the LEM corridor at growing sides, a
//!   closed + open ACO pair), seeding the repo-root
//!   `BENCH_step_throughput.json` perf trajectory;
//! * [`report`] — Markdown/CSV/JSON emitters (the MATLAB-plotting
//!   substitute);
//! * [`scale`] — the `--paper` / default / `--smoke` protocol scales;
//! * [`observe`] — the `--journal` / `--registry` sinks: per-replica
//!   JSONL records and provenance-stamped rows for the append-only
//!   results registry;
//! * [`registry_query`] — KPI queries over the registry and the CI
//!   regression gate behind the `registry_query` binary.
//!
//! Binaries `fig5`, `fig6`, `table1`, `ablation`, `sweep` drive these and
//! write `results/*.csv` / `results/*.json` next to a Markdown rendition
//! on stdout. The sweeping experiments execute their replicas through
//! `pedsim-runner` batches with per-replica stop conditions instead of
//! hand-rolled serial loops.

#![warn(missing_docs)]

pub mod ablation;
pub mod fig5;
pub mod fig6;
pub mod fundamental_diagram;
pub mod observe;
pub mod registry_query;
pub mod report;
pub mod scale;
pub mod step_throughput;
pub mod sweep;
pub mod table1;

pub use report::Table;
pub use scale::Scale;
