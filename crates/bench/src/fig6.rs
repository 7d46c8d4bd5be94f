//! Figure 6: throughput (§VI).
//!
//! * **6a** — LEM vs ACO throughput on the GPU across population
//!   densities, repeats averaged. Paper shape: equal for the first ~9
//!   densities; LEM collapses around density 10 (25,600 agents: 17,417 vs
//!   25,600); ACO peaks at density 11; +39.6 % overall; both ≈ 0 past
//!   51,200 agents (gridlock).
//! * **6b** — ACO throughput CPU vs GPU plus the binomial-GLM analysis:
//!   crossing probability ~ population + CPU/GPU indicator, first and last
//!   quarter of scenarios suppressed (the paper suppresses 10 of 40),
//!   indicator tested for significance (paper p = 0.6145).
//!
//! Scale note: `Default` uses a 120×120 grid with the paper's *fill
//! fractions* (density i ⇒ the same agents-per-cell as 2,560·i on 480²)
//! and a steps budget proportional to the grid height.
//!
//! Execution: every (density, model, repeat) replica is an independent
//! [`pedsim_runner::Job`] run concurrently on a [`pedsim_runner::Batch`]
//! pool with `AllArrived` early termination — at low density a replica
//! stops within a few hundred steps instead of burning the full budget,
//! and throughput is unchanged by the early exit (it is sticky and
//! capped, so it cannot grow after everyone has arrived).

use pedsim_core::prelude::*;
use pedsim_runner::{Batch, Job};
use pedsim_scenario::ScenarioError;
use pedsim_stats::BinomialGlm;

use crate::report::{f3, Table};
use crate::scale::Scale;

/// Throughput-protocol parameters.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// Environment side (square grid).
    pub side: usize,
    /// Total-population series (density 1..).
    pub densities: Vec<usize>,
    /// Steps per run.
    pub steps: u64,
    /// Repeats averaged per point (paper: 10).
    pub repeats: u64,
    /// Base seed; repeat `k` of density `i` uses `seed + i*1000 + k`.
    pub seed: u64,
}

impl Fig6Config {
    /// Protocol for `scale`, for Fig. 6a (20 densities).
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self {
                side: 480,
                densities: (1..=20).map(|i| 2_560 * i).collect(),
                steps: 25_000,
                repeats: 10,
                seed: 640,
            },
            // 120² grid. Density placement is *re-calibrated*, not just
            // rescaled: gridlock needs jams that span the corridor, so a
            // 4x shorter corridor jams at a higher fill than the paper's
            // 480-row one (LEM collapses at ~11 % fill on 480², at ~26 %
            // on 120² — measured by the probe in EXPERIMENTS.md). The
            // sweep therefore spans 2.2 %…44 % fill so the paper's shape
            // (equal → LEM collapse mid-sweep → joint gridlock) lands in
            // frame, with the collapse around density 12 of 20.
            Scale::Default => Self {
                side: 120,
                densities: (1..=20).map(|i| 320 * i).collect(),
                steps: 2_500,
                repeats: 2,
                seed: 640,
            },
            Scale::Smoke => Self {
                side: 48,
                densities: vec![64, 256, 512],
                steps: 300,
                repeats: 2,
                seed: 640,
            },
        }
    }
}

/// The jobs of one model/engine series: every density × repeat replica,
/// seeded exactly as the legacy serial loop was (`seed_base + density ×
/// 1000 + repeat`), labelled `d<density>/<suffix>` for aggregation. An
/// error when a density describes no valid corridor on `cfg.side`.
fn series_jobs(
    cfg: &Fig6Config,
    model: ModelKind,
    use_cpu: bool,
    seed_base: u64,
    suffix: &str,
) -> Result<Vec<Job>, ScenarioError> {
    let mut jobs = Vec::with_capacity(cfg.densities.len() * cfg.repeats as usize);
    for (i, &agents) in cfg.densities.iter().enumerate() {
        for k in 0..cfg.repeats {
            let seed = seed_base + (i + 1) as u64 * 1000 + k;
            let env = EnvConfig::small(cfg.side, cfg.side, agents / 2).with_seed(seed);
            let scfg = SimConfig::try_new(env, model)?.with_checked(false);
            let label = format!("d{:02}/{suffix}", i + 1);
            let stop = StopCondition::arrived_or_steps(cfg.steps);
            let backend = if use_cpu {
                Backend::scalar()
            } else {
                Backend::simt()
            };
            jobs.push(Job::backend(label, scfg, backend, stop));
        }
    }
    Ok(jobs)
}

/// One density point of Fig. 6a.
#[derive(Debug, Clone, Copy)]
pub struct Fig6aRow {
    /// 1-based density index (the paper's "simulation number").
    pub density: usize,
    /// Total agents.
    pub agents: usize,
    /// Mean LEM throughput (GPU engine).
    pub lem: f64,
    /// Mean ACO throughput (GPU engine).
    pub aco: f64,
}

/// Run Fig. 6a: LEM vs ACO on the virtual GPU — one batch over every
/// (density, model, repeat) replica, each exiting early once all agents
/// have arrived. An error when a density describes no valid corridor.
pub fn run_6a(cfg: &Fig6Config) -> Result<Vec<Fig6aRow>, ScenarioError> {
    let mut jobs = series_jobs(cfg, ModelKind::lem(), false, cfg.seed, "LEM")?;
    jobs.extend(series_jobs(cfg, ModelKind::aco(), false, cfg.seed, "ACO")?);
    let report = Batch::auto().run(&jobs);
    Ok(cfg
        .densities
        .iter()
        .enumerate()
        .map(|(i, &agents)| Fig6aRow {
            density: i + 1,
            agents,
            lem: report.mean_throughput(&format!("d{:02}/LEM", i + 1)),
            aco: report.mean_throughput(&format!("d{:02}/ACO", i + 1)),
        })
        .collect())
}

/// Overall ACO gain over LEM across all densities (paper: +39.6 %).
pub fn overall_aco_gain(rows: &[Fig6aRow]) -> f64 {
    let lem: f64 = rows.iter().map(|r| r.lem).sum();
    let aco: f64 = rows.iter().map(|r| r.aco).sum();
    if lem == 0.0 {
        f64::INFINITY
    } else {
        aco / lem - 1.0
    }
}

/// Render Fig. 6a.
pub fn table_6a(rows: &[Fig6aRow]) -> Table {
    let mut t = Table::new(vec![
        "density",
        "agents",
        "lem_throughput",
        "aco_throughput",
    ]);
    for r in rows {
        t.push_row(vec![
            r.density.to_string(),
            r.agents.to_string(),
            f3(r.lem),
            f3(r.aco),
        ]);
    }
    t
}

/// One density point of Fig. 6b.
#[derive(Debug, Clone, Copy)]
pub struct Fig6bRow {
    /// 1-based density index.
    pub density: usize,
    /// Total agents.
    pub agents: usize,
    /// Mean ACO throughput, CPU engine.
    pub cpu: f64,
    /// Mean ACO throughput, GPU engine.
    pub gpu: f64,
}

/// The Fig. 6b analysis output.
#[derive(Debug, Clone)]
pub struct Fig6bAnalysis {
    /// Per-density throughput means.
    pub rows: Vec<Fig6bRow>,
    /// GLM coefficient of the GPU indicator.
    pub gpu_coef: f64,
    /// Wald statistic of the indicator.
    pub gpu_z: f64,
    /// Two-sided p-value of the indicator (paper: 0.6145).
    pub gpu_p: f64,
    /// Scenarios used in the GLM after suppressing the saturated ends.
    pub glm_scenarios: usize,
}

/// Run Fig. 6b: ACO CPU vs GPU + GLM.
///
/// Per the paper, the CPU and GPU runs of a repeat use *different seeds*
/// (`seed` offsets) so the comparison is statistical, not the trivial
/// bit-equality that `validate::engines_agree` already proves. An error
/// when a density describes no valid corridor.
pub fn run_6b(cfg: &Fig6Config) -> Result<Fig6bAnalysis, ScenarioError> {
    let mut jobs = series_jobs(cfg, ModelKind::aco(), true, cfg.seed, "cpu")?;
    jobs.extend(series_jobs(
        cfg,
        ModelKind::aco(),
        false,
        cfg.seed + 500_000,
        "gpu",
    )?);
    let report = Batch::auto().run(&jobs);
    let rows: Vec<Fig6bRow> = cfg
        .densities
        .iter()
        .enumerate()
        .map(|(i, &agents)| Fig6bRow {
            density: i + 1,
            agents,
            cpu: report.mean_throughput(&format!("d{:02}/cpu", i + 1)),
            gpu: report.mean_throughput(&format!("d{:02}/gpu", i + 1)),
        })
        .collect();

    // Suppress the first and last quarter of scenarios (the paper drops 10
    // of 40 at each end): in the kept band crossing is neither certain nor
    // impossible, so the GLM is well-conditioned.
    let n = rows.len();
    let skip = n / 4;
    let kept: Vec<Fig6bRow> = rows[skip..n - skip].to_vec();

    let mut glm = BinomialGlm::new();
    for r in &kept {
        // Covariate: population in thousands (keeps the IRLS well-scaled).
        let x = r.agents as f64 / 1000.0;
        glm.push(&[x, 0.0], r.cpu.round() as u64, r.agents as u64);
        glm.push(&[x, 1.0], r.gpu.round() as u64, r.agents as u64);
    }
    let fit = glm.fit().expect("GLM fit");
    Ok(Fig6bAnalysis {
        rows,
        gpu_coef: fit.coef[2],
        gpu_z: fit.z[2],
        gpu_p: fit.p[2],
        glm_scenarios: kept.len(),
    })
}

/// Render Fig. 6b's series.
pub fn table_6b(analysis: &Fig6bAnalysis) -> Table {
    let mut t = Table::new(vec![
        "density",
        "agents",
        "cpu_throughput",
        "gpu_throughput",
    ]);
    for r in &analysis.rows {
        t.push_row(vec![
            r.density.to_string(),
            r.agents.to_string(),
            f3(r.cpu),
            f3(r.gpu),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_6a_produces_shape_inputs() {
        let cfg = Fig6Config::for_scale(Scale::Smoke);
        let rows = run_6a(&cfg).expect("valid corridors");
        assert_eq!(rows.len(), 3);
        // Low density: both models get everyone (or nearly everyone) across.
        let r0 = rows[0];
        assert!(r0.lem > 0.0 && r0.aco > 0.0, "{r0:?}");
        let gain = overall_aco_gain(&rows);
        assert!(gain.is_finite());
        assert_eq!(table_6a(&rows).rows.len(), 3);
    }

    /// A density the grid cannot seat is the scenario's typed error, before
    /// any replica runs.
    #[test]
    fn an_unseatable_density_is_a_typed_error() {
        let mut cfg = Fig6Config::for_scale(Scale::Smoke);
        cfg.densities.push(cfg.side * cfg.side * 2);
        assert!(run_6a(&cfg).is_err());
        assert!(run_6b(&cfg).is_err());
    }

    #[test]
    fn smoke_6b_fits_glm() {
        let mut cfg = Fig6Config::for_scale(Scale::Smoke);
        cfg.densities = vec![64, 128, 256, 384, 512, 640, 768, 896];
        cfg.steps = 150;
        let analysis = run_6b(&cfg).expect("valid corridors");
        assert_eq!(analysis.rows.len(), 8);
        assert_eq!(analysis.glm_scenarios, 4);
        assert!(analysis.gpu_p.is_finite());
        assert!((0.0..=1.0).contains(&analysis.gpu_p));
    }
}
