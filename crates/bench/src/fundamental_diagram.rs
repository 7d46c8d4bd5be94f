//! Fundamental diagram of the open corridor: flux vs density vs inflow.
//!
//! The paper reports throughput of one transient wave; corridor studies
//! (uni/bi-directional straight-corridor flow, dynamic-navigation-field
//! models) report the **fundamental diagram** — steady-state flux as a
//! function of density at a sustained inflow. The open-boundary lifecycle
//! makes that measurable here: this harness sweeps the inflow rate of
//! [`pedsim_scenario::registry::open_corridor`], lets every replica run to
//! flux steady state (or the step budget), and records windowed flux,
//! live density, and wall-clock steps/second.
//!
//! Expected shape: flux tracks the inflow at low rates (free flow), then
//! saturates once the opposing streams' lane capacity is reached — the
//! rising-then-flat curve the smoke acceptance checks.
//!
//! Every (rate, repeat) replica is an independent [`pedsim_runner::Job`]
//! on a [`pedsim_runner::Batch`] pool, stepped by single-threaded
//! `pooled` (the fast path); results aggregate per rate.

use std::time::Duration;

use pedsim_core::engine::Backend;
use pedsim_core::prelude::*;
use pedsim_runner::{Batch, BatchReport, Job, FLUX_REPORT_WINDOW};
use pedsim_scenario::registry;
use pedsim_stats::Summary;

use crate::report::{f3, Table};
use crate::scale::Scale;

/// Fundamental-diagram protocol parameters.
#[derive(Debug, Clone)]
pub struct FdConfig {
    /// Corridor side (square grid).
    pub side: usize,
    /// Inflow ladder: expected arrivals per step per group.
    pub rates: Vec<f64>,
    /// Step budget per replica (the steady-state backstop).
    pub steps: u64,
    /// Repeats averaged per rate.
    pub repeats: u64,
    /// Base seed; repeat `k` of rate index `i` uses
    /// `seed + (i + 1) * 1000 + k`.
    pub seed: u64,
    /// Flux window for the steady-state stop (and the reported flux).
    pub window: u64,
    /// Steady-state epsilon as a *fraction* of the inflow rate (absolute
    /// floor 0.2 crossings/step), so denser ladders tolerate
    /// proportionally more flux noise.
    pub epsilon_frac: f64,
}

impl FdConfig {
    /// Protocol for `scale`.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self {
                side: 480,
                rates: vec![2.0, 4.0, 8.0, 16.0, 32.0, 48.0, 64.0],
                steps: 25_000,
                repeats: 3,
                seed: 7_100,
                window: FLUX_REPORT_WINDOW,
                epsilon_frac: 0.15,
            },
            Scale::Default => Self {
                side: 96,
                rates: vec![0.5, 1.0, 2.0, 4.0, 8.0, 12.0],
                steps: 2_000,
                repeats: 2,
                seed: 7_100,
                window: FLUX_REPORT_WINDOW,
                epsilon_frac: 0.2,
            },
            Scale::Smoke => Self {
                side: 32,
                rates: vec![0.25, 0.5, 1.0, 2.0, 4.0],
                steps: 400,
                repeats: 2,
                seed: 7_100,
                window: FLUX_REPORT_WINDOW,
                epsilon_frac: 0.3,
            },
        }
    }

    /// Slot capacity per group for an inflow of `rate`: four transit
    /// times' worth of arrivals (so congestion — not the recycling pool —
    /// is what saturates the flux at moderate rates), capped at a third of
    /// the grid per group (beyond that the corridor physically cannot hold
    /// the crowd anyway).
    pub fn capacity_for(&self, rate: f64) -> usize {
        let by_inflow = (rate * self.side as f64 * 4.0).ceil() as usize;
        by_inflow.clamp(32, (self.side * self.side / 3).max(32))
    }

    /// The job list: every rate × repeat replica, ACO model, stopping at
    /// flux steady state or the budget.
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(self.rates.len() * self.repeats as usize);
        for (i, &rate) in self.rates.iter().enumerate() {
            let epsilon = (rate * self.epsilon_frac).max(0.2);
            let stop = StopCondition::steady_or_steps(self.steps, epsilon, self.window);
            for k in 0..self.repeats {
                let seed = self.seed + (i + 1) as u64 * 1000 + k;
                let scenario =
                    registry::open_corridor(self.side, self.side, self.capacity_for(rate), rate)
                        .with_seed(seed);
                let cfg = SimConfig::from_scenario(&scenario, ModelKind::aco());
                jobs.push(Job::backend(
                    format!("r{i:02}/{rate}"),
                    cfg,
                    Backend::pooled(1),
                    stop.clone(),
                ));
            }
        }
        jobs
    }
}

/// One rate point of the diagram (repeats aggregated).
#[derive(Debug, Clone)]
pub struct FdRow {
    /// Inflow rate (arrivals per step per group).
    pub rate: f64,
    /// Mean windowed flux at stop (crossings per step, both streams).
    pub flux: f64,
    /// Mean live density at stop (agents per cell).
    pub density: f64,
    /// Mean live agents at stop.
    pub live: f64,
    /// Mean steps to stop.
    pub steps: f64,
    /// Replicas that stopped at [`StopReason::SteadyState`].
    pub steady: usize,
    /// Replicas at this rate.
    pub replicas: usize,
    /// Mean per-row directional band count at stop (lane formation).
    pub bands: f64,
    /// Mean group segregation index at stop, in `[0, 1]`.
    pub segregation: f64,
    /// Mean gridlock early-warning gauge at stop, in `[0, 1]` (0 when no
    /// replica ran long enough to measure it).
    pub gridlock_risk: f64,
    /// Simulated steps per wall-clock second (all replicas at this rate;
    /// non-deterministic — excluded from the deterministic JSON).
    pub steps_per_sec: f64,
}

/// Run the sweep on `workers` pool threads, returning the raw
/// per-replica report — the journal/registry emitters consume this
/// before [`aggregate`] collapses it into the curve. `world_cache`
/// toggles the batch executor's compiled-world cache; trajectories (and
/// the deterministic report) are bit-identical either way, only `setup`
/// timings move — which is exactly what
/// `crates/bench/tests/world_cache_identity.rs` asserts.
pub fn run_report(cfg: &FdConfig, workers: usize, world_cache: bool) -> BatchReport {
    Batch::new(workers)
        .with_world_cache(world_cache)
        .run(&cfg.jobs())
}

/// [`run_report`] + [`aggregate`] in one call (world cache on).
pub fn run(cfg: &FdConfig, workers: usize) -> Vec<FdRow> {
    aggregate(cfg, &run_report(cfg, workers, true))
}

/// Replicas in the setup-amortization probe.
pub const AMORTIZATION_REPLICAS: u64 = 12;

/// Cold/cached arm pairs the setup-amortization probe times. One pair
/// is a sub-millisecond sample whose ratio swings by an order of
/// magnitude with host noise; the gate judges the median over these.
pub const AMORTIZATION_REPEATS: usize = 5;

/// Registry bench name for the probe's rows. Distinct from
/// `fundamental_diagram` on purpose: probe replicas run 1 step and
/// report no meaningful flux, so they must not join the physics series
/// the flux gate checks.
pub const AMORTIZATION_BENCH: &str = "fd_world_cache";

/// The measured setup amortization of a cached ladder rung, over
/// [`AMORTIZATION_REPEATS`] cold/cached arm pairs.
#[derive(Debug, Clone, Copy)]
pub struct SetupAmortization {
    /// Probe replicas per arm.
    pub replicas: u64,
    /// Cold/cached arm pairs timed.
    pub repeats: usize,
    /// Total world-acquisition seconds of each cold arm (every replica
    /// compiles its world from scratch), summarised over the repeats.
    pub cold_setup_s: Summary,
    /// Total world-acquisition seconds of each cached arm (every replica
    /// fetches the rung's compiled world from the cache), summarised
    /// over the repeats.
    pub cached_setup_s: Summary,
    /// The ratio of the arms' medians — what the gate judges.
    pub speedup: f64,
}

/// The probe job list: [`AMORTIZATION_REPLICAS`] replicas of the *top*
/// ladder rung, all with the same seed — i.e. the same compiled world —
/// each running a single step (the probe measures setup, not
/// simulation).
pub fn probe_jobs(cfg: &FdConfig) -> Vec<Job> {
    let rate = *cfg.rates.last().expect("non-empty ladder");
    let scenario = registry::open_corridor(cfg.side, cfg.side, cfg.capacity_for(rate), rate)
        .with_seed(cfg.seed);
    (0..AMORTIZATION_REPLICAS)
        .map(|k| {
            Job::backend(
                format!("cache_probe/{k}"),
                SimConfig::from_scenario(&scenario, ModelKind::aco()),
                Backend::pooled(1),
                StopCondition::Steps(1),
            )
        })
        .collect()
}

/// Measure how the world cache amortizes flow-field compilation across
/// the replicas of one ladder rung: [`AMORTIZATION_REPEATS`] times, a
/// cold arm (cache off — every replica compiles), then a cached arm on a
/// pre-filled cache (every replica fetches). Every pass runs a fresh
/// [`probe_jobs`] list, so no arm inherits a distance field a previous
/// pass left on its scenarios: each pays what a fresh replica pays.
/// Returns the measurement plus the last cached arm's report, whose
/// rows carry the hit-path `setup` timings for the results registry
/// (under [`AMORTIZATION_BENCH`]).
pub fn measure_amortization(cfg: &FdConfig, workers: usize) -> (SetupAmortization, BatchReport) {
    let batch = Batch::new(workers);
    let _fill = batch.run(&probe_jobs(cfg)); // the first pass pays the single compile
    let mut cold = Vec::with_capacity(AMORTIZATION_REPEATS);
    let mut cached = Vec::with_capacity(AMORTIZATION_REPEATS);
    let mut warm = None;
    for _ in 0..AMORTIZATION_REPEATS {
        let report = Batch::new(workers)
            .with_world_cache(false)
            .run(&probe_jobs(cfg));
        cold.push(report.setup_total.as_secs_f64());
        let report = batch.run(&probe_jobs(cfg)); // every acquisition is a cache hit
        cached.push(report.setup_total.as_secs_f64());
        warm = Some(report);
    }
    let (cold_setup_s, cached_setup_s) = (Summary::of(&cold), Summary::of(&cached));
    (
        SetupAmortization {
            replicas: AMORTIZATION_REPLICAS,
            repeats: AMORTIZATION_REPEATS,
            cold_setup_s,
            cached_setup_s,
            speedup: cold_setup_s.median / cached_setup_s.median.max(1e-9),
        },
        warm.expect("at least one repeat"),
    )
}

/// Aggregate a finished sweep per rate.
pub fn aggregate(cfg: &FdConfig, report: &BatchReport) -> Vec<FdRow> {
    let cells = (cfg.side * cfg.side) as f64;
    cfg.rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let rows: Vec<_> = report
                .results
                .iter()
                .filter(|r| r.label.starts_with(&format!("r{i:02}/")))
                .collect();
            let mean = |vals: Vec<f64>| -> f64 {
                if vals.is_empty() {
                    0.0
                } else {
                    vals.iter().sum::<f64>() / vals.len() as f64
                }
            };
            let flux = mean(rows.iter().filter_map(|r| r.flux).collect());
            let live = mean(
                rows.iter()
                    .filter_map(|r| r.live.map(|l| l as f64))
                    .collect(),
            );
            let steps = mean(rows.iter().map(|r| r.steps as f64).collect());
            let steady = rows
                .iter()
                .filter(|r| r.stop == StopReason::SteadyState)
                .count();
            let wall: Duration = rows.iter().map(|r| r.wall).sum();
            let total_steps: u64 = rows.iter().map(|r| r.steps).sum();
            FdRow {
                rate,
                flux,
                density: live / cells,
                live,
                steps,
                steady,
                replicas: rows.len(),
                bands: mean(rows.iter().filter_map(|r| r.bands).collect()),
                segregation: mean(rows.iter().filter_map(|r| r.segregation).collect()),
                gridlock_risk: mean(rows.iter().filter_map(|r| r.gridlock_risk).collect()),
                steps_per_sec: if wall.is_zero() {
                    0.0
                } else {
                    total_steps as f64 / wall.as_secs_f64()
                },
            }
        })
        .collect()
}

/// The rising-then-saturating sanity check the smoke run asserts, in
/// terms of *served load*: the offered load at rate `r` is `2r` crossings
/// per step (two streams). Free flow serves most of it, so flux rises
/// with the inflow; past the corridor's capacity the served fraction
/// collapses (plateau, then the jam branch), so the top of the ladder
/// serves a much smaller share than the bottom.
pub fn curve_rises_then_saturates(rows: &[FdRow]) -> bool {
    if rows.len() < 3 {
        return false;
    }
    let served = |r: &FdRow| r.flux / (2.0 * r.rate).max(1e-9);
    let first = rows.first().expect("non-empty");
    let last = rows.last().expect("non-empty");
    let peak_flux = rows.iter().map(|r| r.flux).fold(0.0f64, f64::max);
    // Rise: some rung clearly out-fluxes the bottom of the ladder.
    let rises = peak_flux > first.flux * 1.5;
    // Free flow at the bottom, saturation at the top.
    let free_flow = served(first) >= 0.5;
    let saturated = served(last) <= 0.6 * served(first);
    rises && free_flow && saturated
}

/// Render the diagram as a table (Markdown/CSV).
pub fn table(rows: &[FdRow]) -> Table {
    let mut t = Table::new(vec![
        "rate",
        "flux",
        "density",
        "live",
        "mean_steps",
        "steady",
        "bands",
        "segregation",
        "gridlock_risk",
        "steps_per_sec",
    ]);
    for r in rows {
        t.push_row(vec![
            f3(r.rate),
            f3(r.flux),
            format!("{:.5}", r.density),
            f3(r.live),
            f3(r.steps),
            format!("{}/{}", r.steady, r.replicas),
            f3(r.bands),
            f3(r.segregation),
            f3(r.gridlock_risk),
            format!("{:.0}", r.steps_per_sec),
        ]);
    }
    t
}

/// Deterministic JSON for `results/` (wall-clock series excluded).
pub fn to_json(scale: Scale, cfg: &FdConfig, rows: &[FdRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"pedsim.fundamental_diagram.v1\",\n");
    s.push_str(&format!("  \"scale\": \"{}\",\n", scale.label()));
    s.push_str(&format!("  \"side\": {},\n", cfg.side));
    s.push_str(&format!("  \"window\": {},\n", cfg.window));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"rate\": {}, \"flux\": {}, \"density\": {}, \"live\": {}, \
             \"mean_steps\": {}, \"steady\": {}, \"replicas\": {}, \"bands\": {}, \
             \"segregation\": {}, \"gridlock_risk\": {}}}{comma}\n",
            r.rate,
            r.flux,
            r.density,
            r.live,
            r.steps,
            r.steady,
            r.replicas,
            r.bands,
            r.segregation,
            r.gridlock_risk
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The repo-root perf-trajectory record (`BENCH_fundamental_diagram.json`):
/// the flux/density curve plus the wall-clock steps/second series, and —
/// when measured — the world-cache setup amortization.
pub fn to_bench_json(
    scale: Scale,
    cfg: &FdConfig,
    rows: &[FdRow],
    amortization: Option<&SetupAmortization>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"fundamental_diagram\",\n");
    s.push_str(&format!("  \"scale\": \"{}\",\n", scale.label()));
    s.push_str(&format!("  \"side\": {},\n", cfg.side));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"rate\": {}, \"flux\": {:.4}, \"density\": {:.6}, \
             \"steps_per_sec\": {:.1}}}{comma}\n",
            r.rate, r.flux, r.density, r.steps_per_sec
        ));
    }
    s.push_str("  ]");
    if let Some(a) = amortization {
        let spread = |x: &Summary| {
            format!(
                "{{\"min\": {:.8}, \"median\": {:.8}, \"max\": {:.8}}}",
                x.min, x.median, x.max
            )
        };
        s.push_str(&format!(
            ",\n  \"setup_amortization\": {{\"replicas\": {}, \"repeats\": {}, \
             \"cold_setup_s\": {}, \"cached_setup_s\": {}, \"speedup\": {:.1}}}",
            a.replicas,
            a.repeats,
            spread(&a.cold_setup_s),
            spread(&a.cached_setup_s),
            a.speedup
        ));
    }
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_protocol_is_small_and_jobs_cover_the_ladder() {
        let cfg = FdConfig::for_scale(Scale::Smoke);
        let jobs = cfg.jobs();
        assert_eq!(jobs.len(), cfg.rates.len() * cfg.repeats as usize);
        assert!(cfg.steps <= 500);
        for job in &jobs {
            assert!(job.validate().is_ok());
            let scenario = job.cfg.scenario.as_ref().expect("open world");
            assert!(scenario.is_open());
        }
    }

    #[test]
    fn probe_replicas_share_one_compiled_world() {
        let cfg = FdConfig::for_scale(Scale::Smoke);
        let jobs = probe_jobs(&cfg);
        assert_eq!(jobs.len(), AMORTIZATION_REPLICAS as usize);
        // All replicas target the identical configuration (same seed!) —
        // the full-key cache case — and distinct labels keep their
        // report rows apart.
        let fingerprint = pedsim_core::world::CompiledWorld::fingerprint_of(&jobs[0].cfg);
        for job in &jobs {
            assert!(job.validate().is_ok());
            assert_eq!(
                pedsim_core::world::CompiledWorld::fingerprint_of(&job.cfg),
                fingerprint
            );
        }
        let labels: std::collections::BTreeSet<_> = jobs.iter().map(|j| j.label.clone()).collect();
        assert_eq!(labels.len(), jobs.len());
    }

    #[test]
    fn bench_record_carries_the_amortization_spread() {
        let cfg = FdConfig::for_scale(Scale::Smoke);
        let a = SetupAmortization {
            replicas: AMORTIZATION_REPLICAS,
            repeats: 5,
            cold_setup_s: Summary::of(&[3e-4, 4e-4, 2e-4, 5e-4, 3e-4]),
            cached_setup_s: Summary::of(&[5e-5, 4e-5, 6e-5, 5e-5, 1e-4]),
            speedup: 6.0,
        };
        let json = to_bench_json(Scale::Smoke, &cfg, &[], Some(&a));
        assert!(json.contains(
            "\"setup_amortization\": {\"replicas\": 12, \"repeats\": 5, \
             \"cold_setup_s\": {\"min\": 0.00020000, \"median\": 0.00030000, \"max\": 0.00050000}, \
             \"cached_setup_s\": {\"min\": 0.00004000, \"median\": 0.00005000, \"max\": 0.00010000}, \
             \"speedup\": 6.0}"
        ));
    }

    #[test]
    fn capacity_scales_with_rate() {
        let cfg = FdConfig::for_scale(Scale::Smoke);
        assert!(cfg.capacity_for(4.0) > cfg.capacity_for(0.25));
        assert!(cfg.capacity_for(0.0) >= 32);
    }

    #[test]
    fn saturation_check_wants_rise_and_capacity_collapse() {
        let mk = |points: &[(f64, f64)]| -> Vec<FdRow> {
            points
                .iter()
                .map(|&(rate, flux)| FdRow {
                    rate,
                    flux,
                    density: 0.0,
                    live: 0.0,
                    steps: 0.0,
                    steady: 0,
                    replicas: 1,
                    bands: 0.0,
                    segregation: 0.0,
                    gridlock_risk: 0.0,
                    steps_per_sec: 0.0,
                })
                .collect()
        };
        // Free flow at the bottom (≈ 90 % of the offered 2r served), peak
        // mid-ladder, jam branch at the top: the expected shape.
        assert!(curve_rises_then_saturates(&mk(&[
            (0.25, 0.45),
            (1.0, 1.7),
            (2.0, 3.5),
            (4.0, 2.0),
        ])));
        // A plateau (no decline) also counts as saturation.
        assert!(curve_rises_then_saturates(&mk(&[
            (0.25, 0.45),
            (1.0, 1.7),
            (2.0, 3.3),
            (4.0, 3.5),
        ])));
        // Perfectly proportional flux never saturates.
        assert!(!curve_rises_then_saturates(&mk(&[
            (0.25, 0.5),
            (1.0, 2.0),
            (2.0, 4.0),
            (4.0, 8.0),
        ])));
        // Flat from the start: no free-flow rise.
        assert!(!curve_rises_then_saturates(&mk(&[
            (0.25, 0.1),
            (1.0, 0.1),
            (2.0, 0.1),
            (4.0, 0.1),
        ])));
        // Too short.
        assert!(!curve_rises_then_saturates(&mk(&[(0.25, 0.5), (4.0, 3.0)])));
    }
}
