//! Scenario sweeps: registry worlds × densities × seeds as one batch.
//!
//! The paper's protocol fixes one geometry and sweeps population; the
//! scenario subsystem adds worlds, and the runner adds fleets. This
//! module is the cross product: every registry world at several
//! densities, several replica seeds each, both models, executed as one
//! [`Batch`] with full early termination (arrival, gridlock, or the step
//! budget — whichever first) and aggregated into a single JSON
//! [`BatchReport`]. The deterministic serialization is byte-identical
//! for any pool worker count and any job submission order. Replicas step
//! on single-threaded `pooled`, the fast path; the paper's CPU-vs-GPU
//! comparison stays with `fig5`/`fig6`.

use pedsim_core::engine::Backend;
use pedsim_core::prelude::*;
use pedsim_runner::{Batch, BatchReport, Job, FLUX_REPORT_WINDOW};
use pedsim_scenario::sweep as grids;

use crate::report::{f3, Table};
use crate::scale::Scale;

/// Sweep-protocol parameters.
#[derive(Debug, Clone)]
pub struct SweepProtocol {
    /// Environment side (square grid).
    pub side: usize,
    /// Registry worlds swept.
    pub worlds: Vec<&'static str>,
    /// Agents-per-side series (the density axis).
    pub per_sides: Vec<usize>,
    /// Replica seeds.
    pub seeds: Vec<u64>,
    /// Step budget per replica (the early-exit backstop).
    pub steps: u64,
    /// Moves-per-step floor for the gridlock stop.
    pub gridlock_threshold: usize,
    /// Consecutive frozen steps before a replica stops as gridlocked.
    pub gridlock_patience: u64,
    /// Steady-state epsilon (crossings per step) for open-boundary worlds.
    pub steady_epsilon: f64,
    /// Steady-state flux window for open-boundary worlds.
    pub steady_window: u64,
}

impl SweepProtocol {
    /// Protocol for `scale`: all four registry worlds, three densities,
    /// five seeds (ten at paper scale).
    pub fn for_scale(scale: Scale) -> Self {
        let worlds = pedsim_scenario::registry::names().to_vec();
        match scale {
            Scale::Paper => Self {
                side: 480,
                worlds,
                per_sides: vec![1_280, 5_120, 12_800],
                seeds: (1..=10).collect(),
                steps: 25_000,
                gridlock_threshold: 4,
                gridlock_patience: 50,
                steady_epsilon: 0.5,
                steady_window: FLUX_REPORT_WINDOW,
            },
            Scale::Default => Self {
                side: 64,
                worlds,
                per_sides: vec![96, 256, 448],
                seeds: (1..=5).collect(),
                steps: 1_500,
                gridlock_threshold: 2,
                gridlock_patience: 30,
                steady_epsilon: 0.5,
                steady_window: FLUX_REPORT_WINDOW,
            },
            Scale::Smoke => Self {
                side: 32,
                worlds,
                per_sides: vec![24, 48, 96],
                seeds: (1..=5).collect(),
                steps: 250,
                gridlock_threshold: 1,
                gridlock_patience: 10,
                steady_epsilon: 0.75,
                // At least the report window: a replica that stops
                // SteadyState has always observed it, so its flux field
                // is never null.
                steady_window: FLUX_REPORT_WINDOW,
            },
        }
    }

    /// The job list: worlds × densities × seeds × both models. Closed
    /// worlds stop on arrival/gridlock/budget; open worlds (which never
    /// "arrive") stop on steady flux, gridlock, or the budget.
    pub fn jobs(&self) -> Vec<Job> {
        let closed_stop = StopCondition::settled_or_steps(
            self.steps,
            self.gridlock_threshold,
            self.gridlock_patience,
        );
        let open_stop = StopCondition::FirstOf(vec![
            StopCondition::SteadyState {
                epsilon: self.steady_epsilon,
                window: self.steady_window,
            },
            StopCondition::Gridlocked {
                threshold: self.gridlock_threshold,
                patience: self.gridlock_patience,
            },
            StopCondition::Steps(self.steps),
        ]);
        let points = grids::grid(&self.worlds, self.side, &self.per_sides, &self.seeds);
        let mut jobs = Vec::with_capacity(points.len() * 2);
        for point in &points {
            let stop = if point.scenario.is_open() {
                &open_stop
            } else {
                &closed_stop
            };
            for model in [ModelKind::lem(), ModelKind::aco()] {
                let label = format!(
                    "{}/n{:06}/{}",
                    point.world,
                    point.per_side * 2,
                    model.name()
                );
                jobs.push(Job::backend(
                    label,
                    SimConfig::from_scenario(&point.scenario, model),
                    Backend::pooled(1),
                    stop.clone(),
                ));
            }
        }
        jobs
    }

    /// Run the sweep on `workers` pool threads.
    pub fn run(&self, workers: usize) -> BatchReport {
        Batch::new(workers).run(&self.jobs())
    }

    /// Per-label summary of a finished sweep: replicas, mean throughput,
    /// arrival fraction, mean steps to stop.
    pub fn summary_table(&self, report: &BatchReport) -> Table {
        let mut t = Table::new(vec![
            "world",
            "agents",
            "model",
            "replicas",
            "mean_throughput",
            "arrived",
            "gridlocked",
            "steady",
            "mean_steps",
        ]);
        let mut labels: Vec<&str> = report.results.iter().map(|r| r.label.as_str()).collect();
        labels.dedup(); // results are in canonical (sorted) order
        for label in labels {
            let rows: Vec<_> = report.with_label(label).collect();
            let n = rows.len();
            let arrived = rows
                .iter()
                .filter(|r| r.stop == StopReason::AllArrived)
                .count();
            let gridlocked = rows
                .iter()
                .filter(|r| r.stop == StopReason::Gridlocked)
                .count();
            let steady = rows
                .iter()
                .filter(|r| r.stop == StopReason::SteadyState)
                .count();
            let mean_steps = rows.iter().map(|r| r.steps).sum::<u64>() as f64 / n as f64;
            let first = rows[0];
            t.push_row(vec![
                first.world.clone(),
                first.agents.to_string(),
                first.model.clone(),
                n.to_string(),
                f3(report.mean_throughput(label)),
                format!("{arrived}/{n}"),
                format!("{gridlocked}/{n}"),
                format!("{steady}/{n}"),
                f3(mean_steps),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepProtocol {
        SweepProtocol {
            side: 24,
            worlds: vec!["paper_corridor", "doorway"],
            per_sides: vec![8, 16],
            seeds: vec![1, 2],
            steps: 150,
            gridlock_threshold: 1,
            gridlock_patience: 8,
            steady_epsilon: 0.5,
            steady_window: 32,
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_serializes() {
        let proto = tiny();
        let jobs = proto.jobs();
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2); // worlds × densities × seeds × models
        let report = proto.run(2);
        assert_eq!(report.jobs, 16);
        let json = report.to_json();
        assert!(json.contains("pedsim.batch_report.v7"));
        assert!(json.contains("paper_corridor"));
        assert_eq!(proto.summary_table(&report).rows.len(), 8);
    }

    #[test]
    fn sweep_json_is_worker_count_invariant() {
        let proto = tiny();
        let a = proto.run(1).to_json();
        let b = proto.run(4).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn all_scales_have_enough_axes() {
        for scale in [Scale::Paper, Scale::Default, Scale::Smoke] {
            let p = SweepProtocol::for_scale(scale);
            // Every registry world is swept — multi-group and open-
            // boundary ones included, so they cannot rot outside CI's
            // reach.
            assert_eq!(p.worlds.len(), pedsim_scenario::registry::names().len());
            assert!(p.worlds.contains(&"four_way_crossing"));
            assert!(p.worlds.contains(&"t_junction_merge"));
            assert!(p.worlds.contains(&"open_corridor"));
            assert!(p.worlds.contains(&"open_crossing"));
            assert!(p.per_sides.len() >= 3);
            assert!(p.seeds.len() >= 5);
        }
    }

    #[test]
    fn open_worlds_get_the_steady_stop() {
        let mut p = tiny();
        p.worlds = vec!["paper_corridor", "open_corridor"];
        let jobs = p.jobs();
        for job in &jobs {
            let open = job.cfg.scenario.as_ref().is_some_and(|s| s.is_open());
            let has_steady = matches!(
                &job.stop,
                StopCondition::FirstOf(cs)
                    if cs.iter().any(|c| matches!(c, StopCondition::SteadyState { .. }))
            );
            assert_eq!(open, has_steady, "job {}", job.label);
            assert!(job.validate().is_ok());
        }
    }
}
