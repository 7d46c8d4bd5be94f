//! Step throughput of the unified engine pipeline: per-stage wall time,
//! steps/second, and the CPU-vs-GPU ratio — the repo's perf trajectory.
//!
//! The paper's headline result is per-kernel speedup of the four-stage
//! pipeline; the unified `StepCore` now times every stage of **both**
//! engines through one code path, so that comparison is measurable
//! end-to-end instead of modelled. This harness runs a closed and an open
//! registry world on both engines, aggregates the per-stage
//! [`pedsim_core::engine::StepTimings`] that `pedsim_runner` surfaces on
//! every [`RunResult`](pedsim_runner::RunResult), and writes
//! `results/step_throughput_<scale>.{csv,json}` plus the repo-root
//! `BENCH_step_throughput.json` record that every subsequent optimisation
//! PR is judged against.
//!
//! Every number here is wall-clock and therefore non-deterministic; the
//! record captures *shape* (which stages dominate, how far apart the
//! engines sit), not bit-stable bytes.
//!
//! The **scale ladder** rides alongside the world×engine matrix: the
//! classic corridor at growing grid sides (96 → 1024 → 4096; roughly
//! 10³ → 10⁵ → 10⁶ agents, the larger rungs behind the default/paper
//! scales) swept across every backend-registry configuration
//! ([`LADDER_BACKENDS`]). Ladder rows land in the same JSON record and
//! registry, keyed by backend and thread count.

use std::collections::BTreeSet;

use pedsim_core::engine::{Backend, Stage};
use pedsim_core::prelude::*;
use pedsim_runner::{Batch, BatchReport, Job};
use pedsim_scenario::registry;

use crate::report::Table;
use crate::scale::Scale;

/// Step-throughput protocol parameters.
#[derive(Debug, Clone)]
pub struct StConfig {
    /// Grid side (square worlds).
    pub side: usize,
    /// Initial agents per side of the closed corridor.
    pub closed_per_side: usize,
    /// Recyclable slot capacity per side of the open corridor.
    pub open_capacity: usize,
    /// Open-corridor inflow rate (expected arrivals per step per group).
    pub open_rate: f64,
    /// Steps per replica (a pure step budget — timing runs never stop
    /// early, so every replica times exactly this many steps).
    pub steps: u64,
    /// Repeats per (world, engine); timings aggregate across them.
    pub repeats: u64,
    /// Base seed; repeat `k` uses `seed + k`.
    pub seed: u64,
}

impl StConfig {
    /// Protocol for `scale`.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            // The paper's geometry at its mid population (25,600 agents on
            // 480×480). The step budget is a timing sample, not the
            // paper's 25,000-step evaluation budget — per-stage means
            // stabilise within a few hundred steps.
            Scale::Paper => Self {
                side: 480,
                closed_per_side: 12_800,
                open_capacity: 10_000,
                open_rate: 16.0,
                steps: 400,
                repeats: 2,
                seed: 9_300,
            },
            Scale::Default => Self {
                side: 96,
                closed_per_side: 600,
                open_capacity: 500,
                open_rate: 4.0,
                steps: 300,
                repeats: 2,
                seed: 9_300,
            },
            Scale::Smoke => Self {
                side: 32,
                closed_per_side: 30,
                open_capacity: 40,
                open_rate: 2.0,
                steps: 120,
                repeats: 1,
                seed: 9_300,
            },
        }
    }

    /// The measured worlds: one closed, one open registry scenario.
    pub fn worlds(&self) -> [(&'static str, bool); 2] {
        [("paper_corridor", false), ("open_corridor", true)]
    }

    fn scenario(&self, world: &str, seed: u64) -> Scenario {
        match world {
            "paper_corridor" => registry::paper_corridor(
                &EnvConfig::small(self.side, self.side, self.closed_per_side).with_seed(seed),
            ),
            "open_corridor" => {
                registry::open_corridor(self.side, self.side, self.open_capacity, self.open_rate)
                    .with_seed(seed)
            }
            other => panic!("unknown step-throughput world {other:?}"),
        }
    }

    /// The job list: every world × engine × repeat, ACO model (the
    /// heavier pipeline — pheromone scan and update on every stage pass),
    /// stopping on the pure step budget.
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::new();
        for (world, _) in self.worlds() {
            for k in 0..self.repeats {
                let cfg = SimConfig::from_scenario(
                    &self.scenario(world, self.seed + k),
                    ModelKind::aco(),
                );
                let stop = StopCondition::Steps(self.steps);
                jobs.push(Job::cpu(format!("{world}/cpu"), cfg.clone(), stop.clone()));
                jobs.push(Job::gpu(format!("{world}/gpu"), cfg, stop));
            }
        }
        jobs
    }
}

/// One (world, engine) cell of the measurement (repeats aggregated).
#[derive(Debug, Clone)]
pub struct StRow {
    /// Registry world name.
    pub world: &'static str,
    /// Whether the world runs the open-boundary lifecycle.
    pub open: bool,
    /// Engine name (`"cpu"` / `"gpu"`).
    pub engine: &'static str,
    /// Agents (population for closed worlds, slot capacity for open).
    pub agents: usize,
    /// Total steps timed across repeats.
    pub steps: u64,
    /// Simulated steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Mean milliseconds per step per stage ([`Stage::ALL`] order).
    pub stage_ms: [f64; Stage::COUNT],
    /// Mean milliseconds per step across all stages.
    pub total_ms: f64,
}

/// CPU-over-GPU time ratio for one world (how much slower the reference
/// engine is per stage; > 1 means the GPU pipeline wins).
#[derive(Debug, Clone)]
pub struct StRatio {
    /// Registry world name.
    pub world: &'static str,
    /// Total-pipeline ratio.
    pub total: f64,
    /// Per-stage ratios ([`Stage::ALL`] order; 0 when the GPU stage
    /// measured zero time).
    pub stages: [f64; Stage::COUNT],
}

/// Run the measurement on `workers` pool threads (1 for clean timings —
/// concurrent replicas contend for cores), returning the raw per-replica
/// report — the journal/registry emitters consume this before
/// [`aggregate`] collapses it into the table.
pub fn run_report(cfg: &StConfig, workers: usize) -> BatchReport {
    Batch::new(workers).run(&cfg.jobs())
}

/// [`run_report`] + [`aggregate`] in one call.
pub fn run(cfg: &StConfig, workers: usize) -> Vec<StRow> {
    aggregate(cfg, &run_report(cfg, workers))
}

/// Aggregate a finished measurement per (world, engine) cell.
pub fn aggregate(cfg: &StConfig, report: &BatchReport) -> Vec<StRow> {
    let mut rows = Vec::new();
    for (world, open) in cfg.worlds() {
        for engine in ["cpu", "gpu"] {
            let label = format!("{world}/{engine}");
            let results: Vec<_> = report.with_label(&label).collect();
            if results.is_empty() {
                continue;
            }
            let steps: u64 = results.iter().map(|r| r.steps).sum();
            let wall: f64 = results.iter().map(|r| r.wall.as_secs_f64()).sum();
            let mut stage_ms = [0.0; Stage::COUNT];
            for stage in Stage::ALL {
                let secs: f64 = results
                    .iter()
                    .map(|r| r.stages.of(stage).as_secs_f64())
                    .sum();
                stage_ms[stage.index()] = if steps == 0 {
                    0.0
                } else {
                    secs * 1e3 / steps as f64
                };
            }
            rows.push(StRow {
                world,
                open,
                engine,
                agents: results[0].agents,
                steps,
                steps_per_sec: if wall > 0.0 { steps as f64 / wall } else { 0.0 },
                stage_ms,
                total_ms: stage_ms.iter().sum(),
            });
        }
    }
    rows
}

/// Pair each world's CPU and GPU rows into time ratios.
pub fn ratios(rows: &[StRow]) -> Vec<StRatio> {
    let worlds: BTreeSet<&'static str> = rows.iter().map(|r| r.world).collect();
    worlds
        .into_iter()
        .filter_map(|world| {
            let cpu = rows
                .iter()
                .find(|r| r.world == world && r.engine == "cpu")?;
            let gpu = rows
                .iter()
                .find(|r| r.world == world && r.engine == "gpu")?;
            let ratio = |c: f64, g: f64| if g > 0.0 { c / g } else { 0.0 };
            let mut stages = [0.0; Stage::COUNT];
            for (i, slot) in stages.iter_mut().enumerate() {
                *slot = ratio(cpu.stage_ms[i], gpu.stage_ms[i]);
            }
            Some(StRatio {
                world,
                total: ratio(cpu.total_ms, gpu.total_ms),
                stages,
            })
        })
        .collect()
}

/// The smoke acceptance gate: every world was measured on **both**
/// engines, every replica ran its full budget, and every stage that does
/// real work reported non-zero time — the kernel stages everywhere, the
/// metrics stage (tracking is on), and the lifecycle stage on open
/// worlds (a silently-unconstructed lifecycle must fail the gate, not
/// ship a zero column).
pub fn covers_both_engines_and_all_stages(rows: &[StRow]) -> bool {
    let worlds: BTreeSet<&'static str> = rows.iter().map(|r| r.world).collect();
    !worlds.is_empty()
        && worlds.iter().all(|w| {
            ["cpu", "gpu"].iter().all(|e| {
                rows.iter().any(|r| {
                    r.world == *w
                        && r.engine == *e
                        && r.steps > 0
                        && Stage::KERNELS.iter().all(|s| r.stage_ms[s.index()] > 0.0)
                        && r.stage_ms[Stage::Metrics.index()] > 0.0
                        && (!r.open || r.stage_ms[Stage::Lifecycle.index()] > 0.0)
                })
            })
        })
}

/// One rung of the scale ladder: a square classic-corridor world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderRung {
    /// Grid side.
    pub side: usize,
    /// Agents per side (total population is twice this).
    pub per_side: usize,
    /// Measured steps per replica (pure step budget).
    pub steps: u64,
    /// Untimed warmup steps discarded before the clock starts.
    pub warmup: u64,
}

impl LadderRung {
    /// Initial occupancy of this rung's world (`agents / cells`) — what
    /// `IterationMode::Auto` resolves against.
    pub fn occupancy(&self) -> f64 {
        (self.per_side * 2) as f64 / (self.side * self.side) as f64
    }
}

/// The backend-registry configurations the ladder sweeps, in report
/// order: the scalar reference, the pooled backend at 1/2/4 workers,
/// and the virtual-GPU engine.
pub const LADDER_BACKENDS: &[(&str, usize)] = &[
    ("scalar", 1),
    ("pooled", 1),
    ("pooled", 2),
    ("pooled", 4),
    ("simt", 1),
];

/// The stage-traversal modes every `pooled` ladder cell is measured
/// under, in report order. Sweeping both pins the sparse-over-dense
/// speedup that `IterationMode::Auto` trades on as a first-class series.
pub const LADDER_MODES: &[IterationMode] = &[IterationMode::Dense, IterationMode::Sparse];

/// The requested traversal modes of one backend's ladder cells:
/// [`LADDER_MODES`] on `pooled`, the only backend with a choice, and a
/// single unrequested run (`None`) on the one-traversal reference
/// backends.
pub fn ladder_modes(backend: &str) -> Vec<Option<IterationMode>> {
    if backend == "pooled" {
        LADDER_MODES.iter().copied().map(Some).collect()
    } else {
        vec![None]
    }
}

/// Seed shared by every ladder replica.
pub const LADDER_SEED: u64 = 9_700;

/// The rungs measured at `scale`. Every scale climbs from the smoke
/// rung; the 10⁵-agent rung needs `default`, the 10⁶-agent rung
/// `--paper` (minutes per single-threaded backend). The big rungs carry a
/// warmup discard and enough measured steps that one slow first step
/// (page faults, cold caches) cannot dominate the mean — at 10/3
/// measured steps with no warmup they used to be noise traps.
pub fn ladder_rungs(scale: Scale) -> Vec<LadderRung> {
    let mut rungs = vec![LadderRung {
        side: 96,
        per_side: 400,
        steps: 40,
        warmup: 5,
    }];
    if scale != Scale::Smoke {
        rungs.push(LadderRung {
            side: 1024,
            per_side: 50_000,
            steps: 30,
            warmup: 3,
        });
    }
    if scale == Scale::Paper {
        rungs.push(LadderRung {
            side: 4096,
            per_side: 500_000,
            steps: 10,
            warmup: 2,
        });
    }
    rungs
}

/// Canonical ladder job label: `ladder/s<side>/<backend>/t<threads>`,
/// plus `/<mode>` when the cell requests a traversal mode.
pub fn ladder_label(
    side: usize,
    backend: &str,
    threads: usize,
    mode: Option<IterationMode>,
) -> String {
    let label = format!("ladder/s{side}/{backend}/t{threads}");
    match mode {
        Some(mode) => format!("{label}/{}", mode.name()),
        None => label,
    }
}

/// The ladder job list over explicit rungs: every rung × backend
/// configuration × [`ladder_modes`] (restricted to `only`'s backend
/// configuration when given), LEM on the classic corridor with metrics
/// off — the ladder times the kernel pipeline, not the observables. One
/// replica per cell: the registry accumulates repeats across runs, and
/// a 10⁶-agent rung cannot afford in-process repetition.
pub fn ladder_jobs_for(rungs: &[LadderRung], only: Option<(&str, usize)>) -> Vec<Job> {
    let mut jobs = Vec::new();
    for rung in rungs {
        for &(backend, threads) in LADDER_BACKENDS {
            if let Some((b, t)) = only {
                if b != backend || t != threads {
                    continue;
                }
            }
            for mode in ladder_modes(backend) {
                let env =
                    EnvConfig::small(rung.side, rung.side, rung.per_side).with_seed(LADDER_SEED);
                let mut cfg =
                    SimConfig::from_scenario(&registry::paper_corridor(&env), ModelKind::lem())
                        .with_metrics(false);
                if let Some(mode) = mode {
                    cfg = cfg.with_iteration_mode(mode);
                }
                jobs.push(
                    Job::backend(
                        ladder_label(rung.side, backend, threads, mode),
                        cfg,
                        Backend::named(backend, threads),
                        // Stop conditions count warmup steps too.
                        StopCondition::Steps(rung.warmup + rung.steps),
                    )
                    .with_warmup(rung.warmup),
                );
            }
        }
    }
    jobs
}

/// [`ladder_jobs_for`] over the rungs of `scale`.
pub fn ladder_jobs(scale: Scale, only: Option<(&str, usize)>) -> Vec<Job> {
    ladder_jobs_for(&ladder_rungs(scale), only)
}

/// One (rung, backend configuration, traversal mode) cell of the
/// ladder.
#[derive(Debug, Clone)]
pub struct LadderRow {
    /// Grid side of the rung.
    pub side: usize,
    /// Total agents simulated.
    pub agents: usize,
    /// Initial occupancy (`agents / cells`) of the rung's world.
    pub occupancy: f64,
    /// Backend registry key.
    pub backend: &'static str,
    /// Worker threads.
    pub threads: usize,
    /// Stage-traversal mode the engine reported (`"dense"` /
    /// `"sparse"`), not the requested one.
    pub mode: &'static str,
    /// Untimed warmup steps discarded before measurement.
    pub warmup: u64,
    /// Steps timed (warmup excluded).
    pub steps: u64,
    /// Simulated steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Mean milliseconds per step per stage ([`Stage::ALL`] order).
    pub stage_ms: [f64; Stage::COUNT],
    /// Mean milliseconds per step in the movement stage (the conflict-
    /// resolution kernel the pooled backend parallelises).
    pub movement_ms: f64,
    /// Mean milliseconds per step across all stages.
    pub total_ms: f64,
}

/// Aggregate a finished ladder batch into per-cell rows (report order:
/// rung-major, then [`LADDER_BACKENDS`], then [`ladder_modes`]).
pub fn aggregate_ladder(rungs: &[LadderRung], report: &BatchReport) -> Vec<LadderRow> {
    let mut out = Vec::new();
    for rung in rungs {
        for &(backend, threads) in LADDER_BACKENDS {
            for mode in ladder_modes(backend) {
                let label = ladder_label(rung.side, backend, threads, mode);
                let results: Vec<_> = report.with_label(&label).collect();
                if results.is_empty() {
                    continue;
                }
                let steps: u64 = results.iter().map(|r| r.steps).sum();
                let wall: f64 = results.iter().map(|r| r.wall.as_secs_f64()).sum();
                let per_step_ms = |secs: f64| {
                    if steps == 0 {
                        0.0
                    } else {
                        secs * 1e3 / steps as f64
                    }
                };
                let mut stage_ms = [0.0; Stage::COUNT];
                for stage in Stage::ALL {
                    let secs: f64 = results
                        .iter()
                        .map(|r| r.stages.of(stage).as_secs_f64())
                        .sum();
                    stage_ms[stage.index()] = per_step_ms(secs);
                }
                out.push(LadderRow {
                    side: rung.side,
                    agents: results[0].agents,
                    occupancy: rung.occupancy(),
                    backend,
                    threads,
                    mode: results[0].mode,
                    warmup: rung.warmup,
                    steps,
                    steps_per_sec: if wall > 0.0 { steps as f64 / wall } else { 0.0 },
                    stage_ms,
                    movement_ms: stage_ms[Stage::Movement.index()],
                    total_ms: stage_ms.iter().sum(),
                });
            }
        }
    }
    out
}

/// Movement-stage speedup of the widest pooled configuration over the
/// scalar reference, per `(side, pooled mode)`: `(side, mode,
/// scalar_movement_ms / pooled_movement_ms)`, dividing scalar's single
/// row by each pooled mode's. Cells missing either side of the ratio are
/// skipped.
pub fn ladder_speedups(rows: &[LadderRow]) -> Vec<(usize, &'static str, f64)> {
    let widest = LADDER_BACKENDS
        .iter()
        .filter(|(b, _)| *b == "pooled")
        .map(|&(_, t)| t)
        .max()
        .unwrap_or(1);
    rows.iter()
        .filter(|r| r.backend == "pooled" && r.threads == widest && r.movement_ms > 0.0)
        .filter_map(|pooled| {
            let scalar = rows
                .iter()
                .find(|r| r.side == pooled.side && r.backend == "scalar")?;
            Some((
                pooled.side,
                pooled.mode,
                scalar.movement_ms / pooled.movement_ms,
            ))
        })
        .collect()
}

/// Total-step speedup of sparse over dense traversal, per `(side,
/// backend, threads)` cell measured in both modes (the `pooled` cells):
/// `dense_total_ms / sparse_total_ms`. The series `IterationMode::Auto`
/// trades on — O(live agents) stepping should beat the O(cells) sweep
/// wherever occupancy is low.
pub fn sparse_speedups(rows: &[LadderRow]) -> Vec<(usize, &'static str, usize, f64)> {
    let cells: BTreeSet<(usize, &'static str, usize)> = rows
        .iter()
        .map(|r| (r.side, r.backend, r.threads))
        .collect();
    cells
        .into_iter()
        .filter_map(|(side, backend, threads)| {
            let find = |mode: &str| {
                rows.iter().find(|r| {
                    r.side == side && r.backend == backend && r.threads == threads && r.mode == mode
                })
            };
            let (dense, sparse) = (find("dense")?, find("sparse")?);
            if sparse.total_ms > 0.0 {
                Some((side, backend, threads, dense.total_ms / sparse.total_ms))
            } else {
                None
            }
        })
        .collect()
}

/// Pooled thread-scaling efficiency per `(side, mode, threads)`:
/// `steps_per_sec(t) / (steps_per_sec(1) · t)`. 1.0 is perfect linear
/// scaling; a flat thread curve reads as `1/t`. The dense rows were
/// historically near-flat because row bands balanced *cells*, not
/// agents — this series keeps that regression visible.
pub fn thread_scaling(rows: &[LadderRow]) -> Vec<(usize, &'static str, usize, f64)> {
    let mut out = Vec::new();
    let cells: BTreeSet<(usize, &'static str)> = rows
        .iter()
        .filter(|r| r.backend == "pooled")
        .map(|r| (r.side, r.mode))
        .collect();
    for (side, mode) in cells {
        let sps = |threads: usize| {
            rows.iter()
                .find(|r| {
                    r.side == side
                        && r.mode == mode
                        && r.backend == "pooled"
                        && r.threads == threads
                })
                .map(|r| r.steps_per_sec)
        };
        let Some(base) = sps(1) else { continue };
        if base <= 0.0 {
            continue;
        }
        for &(backend, threads) in LADDER_BACKENDS {
            if backend != "pooled" {
                continue;
            }
            if let Some(v) = sps(threads) {
                out.push((side, mode, threads, v / (base * threads as f64)));
            }
        }
    }
    out
}

/// The traversal mode a ladder job's engine must report: the requested
/// mode on `pooled`, the one traversal of `scalar` (`sparse`) and `simt`
/// (`dense`).
pub fn ladder_mode(job: &Job) -> &'static str {
    match job.engine.backend_sel().0 {
        "scalar" => "sparse",
        "simt" => "dense",
        _ => job.cfg.iteration.name(),
    }
}

/// The ladder's acceptance gate: one row per job, in job order, each
/// with timed steps, a positive `steps_per_sec` and movement time, and
/// the [`ladder_mode`] of its job.
pub fn ladder_complete(jobs: &[Job], rows: &[LadderRow]) -> bool {
    rows.len() == jobs.len()
        && jobs.iter().zip(rows).all(|(job, r)| {
            let (backend, threads) = job.engine.backend_sel();
            (r.backend, r.threads, r.mode) == (backend, threads, ladder_mode(job))
                && r.steps > 0
                && r.steps_per_sec > 0.0
                && r.movement_ms > 0.0
        })
}

/// Whether a full ladder yields every derived series of the record:
/// pooled-over-scalar movement speedups, positive sparse-over-dense
/// ratios, and pooled thread-scaling efficiencies.
pub fn derived_series_present(rows: &[LadderRow]) -> bool {
    let sparse = sparse_speedups(rows);
    !ladder_speedups(rows).is_empty()
        && !sparse.is_empty()
        && sparse.iter().all(|&(_, _, _, x)| x > 0.0)
        && !thread_scaling(rows).is_empty()
}

/// Render the ladder as a table (Markdown/CSV).
pub fn ladder_table(rows: &[LadderRow]) -> Table {
    let mut t = Table::new(vec![
        "side".to_string(),
        "agents".to_string(),
        "occupancy".to_string(),
        "backend".to_string(),
        "threads".to_string(),
        "mode".to_string(),
        "steps".to_string(),
        "steps_per_sec".to_string(),
        "movement_ms".to_string(),
        "total_ms".to_string(),
    ]);
    for r in rows {
        t.push_row(vec![
            r.side.to_string(),
            r.agents.to_string(),
            format!("{:.4}", r.occupancy),
            r.backend.to_string(),
            r.threads.to_string(),
            r.mode.to_string(),
            r.steps.to_string(),
            format!("{:.1}", r.steps_per_sec),
            format!("{:.4}", r.movement_ms),
            format!("{:.4}", r.total_ms),
        ]);
    }
    t
}

/// Render the measurement as a table (Markdown/CSV).
pub fn table(rows: &[StRow]) -> Table {
    let mut headers = vec![
        "world".to_string(),
        "engine".to_string(),
        "agents".to_string(),
        "steps".to_string(),
        "steps_per_sec".to_string(),
    ];
    headers.extend(Stage::ALL.iter().map(|s| format!("{}_ms", s.name())));
    headers.push("total_ms".to_string());
    let mut t = Table::new(headers);
    for r in rows {
        let mut row = vec![
            r.world.to_string(),
            r.engine.to_string(),
            r.agents.to_string(),
            r.steps.to_string(),
            format!("{:.1}", r.steps_per_sec),
        ];
        row.extend(r.stage_ms.iter().map(|ms| format!("{ms:.4}")));
        row.push(format!("{:.4}", r.total_ms));
        t.push_row(row);
    }
    t
}

fn stages_object(values: &[f64; Stage::COUNT], precision: usize) -> String {
    let mut s = String::from("{");
    for stage in Stage::ALL {
        if s.len() > 1 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "\"{}\": {:.precision$}",
            stage.name(),
            values[stage.index()]
        ));
    }
    s.push('}');
    s
}

/// JSON for `results/step_throughput_<scale>.json` and the repo-root
/// `BENCH_step_throughput.json`: per-stage breakdowns for both engines
/// plus CPU-over-GPU ratios, per world, and the backend scale ladder —
/// v3 adds per-cell occupancy / traversal mode / per-stage timings and
/// the sparse-over-dense and thread-scaling-efficiency derived series.
pub fn to_json(scale: Scale, cfg: &StConfig, rows: &[StRow], ladder: &[LadderRow]) -> String {
    let ratios = ratios(rows);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"step_throughput\",\n");
    s.push_str("  \"schema\": \"pedsim.step_throughput.v3\",\n");
    s.push_str(&format!("  \"scale\": \"{}\",\n", scale.label()));
    s.push_str(&format!("  \"side\": {},\n", cfg.side));
    s.push_str(&format!("  \"steps_per_replica\": {},\n", cfg.steps));
    s.push_str(&format!("  \"repeats\": {},\n", cfg.repeats));
    s.push_str("  \"worlds\": [\n");
    let worlds = cfg.worlds();
    let present: Vec<_> = worlds
        .iter()
        .filter(|(w, _)| rows.iter().any(|r| r.world == *w))
        .collect();
    for (wi, (world, open)) in present.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"world\": \"{world}\", \"open\": {open}, \"engines\": [\n"
        ));
        let engine_rows: Vec<_> = rows.iter().filter(|r| r.world == *world).collect();
        for (i, r) in engine_rows.iter().enumerate() {
            let comma = if i + 1 < engine_rows.len() { "," } else { "" };
            s.push_str(&format!(
                "      {{\"engine\": \"{}\", \"agents\": {}, \"steps\": {}, \
                 \"steps_per_sec\": {:.1}, \"total_ms_per_step\": {:.4}, \
                 \"stages_ms_per_step\": {}}}{comma}\n",
                r.engine,
                r.agents,
                r.steps,
                r.steps_per_sec,
                r.total_ms,
                stages_object(&r.stage_ms, 4),
            ));
        }
        s.push_str("    ]");
        if let Some(ratio) = ratios.iter().find(|x| x.world == *world) {
            s.push_str(&format!(
                ", \"cpu_over_gpu\": {{\"total\": {:.3}, \"stages\": {}}}",
                ratio.total,
                stages_object(&ratio.stages, 3),
            ));
        }
        let comma = if wi + 1 < present.len() { "," } else { "" };
        s.push_str(&format!("}}{comma}\n"));
    }
    s.push_str("  ],\n");
    s.push_str("  \"ladder\": [\n");
    for (i, r) in ladder.iter().enumerate() {
        let comma = if i + 1 < ladder.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"side\": {}, \"agents\": {}, \"occupancy\": {:.4}, \"backend\": \"{}\", \
             \"threads\": {}, \"iteration_mode\": \"{}\", \"warmup\": {}, \"steps\": {}, \
             \"steps_per_sec\": {:.1}, \"movement_ms_per_step\": {:.4}, \
             \"total_ms_per_step\": {:.4}, \"stages_ms_per_step\": {}}}{comma}\n",
            r.side,
            r.agents,
            r.occupancy,
            r.backend,
            r.threads,
            r.mode,
            r.warmup,
            r.steps,
            r.steps_per_sec,
            r.movement_ms,
            r.total_ms,
            stages_object(&r.stage_ms, 4),
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"ladder_movement_speedup\": [\n");
    let speedups = ladder_speedups(ladder);
    for (i, (side, mode, x)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"side\": {side}, \"mode\": \"{mode}\", \"pooled_over_scalar\": {x:.3}}}{comma}\n"
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"sparse_over_dense\": [\n");
    let sparse = sparse_speedups(ladder);
    for (i, (side, backend, threads, x)) in sparse.iter().enumerate() {
        let comma = if i + 1 < sparse.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"side\": {side}, \"backend\": \"{backend}\", \"threads\": {threads}, \
             \"total_speedup\": {x:.3}}}{comma}\n"
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"thread_scaling_efficiency\": [\n");
    let scaling = thread_scaling(ladder);
    for (i, (side, mode, threads, eff)) in scaling.iter().enumerate() {
        let comma = if i + 1 < scaling.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"side\": {side}, \"mode\": \"{mode}\", \"threads\": {threads}, \
             \"efficiency\": {eff:.3}}}{comma}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_protocol_is_small_and_jobs_cover_both_engines_and_worlds() {
        let cfg = StConfig::for_scale(Scale::Smoke);
        assert!(cfg.steps <= 200);
        let jobs = cfg.jobs();
        assert_eq!(jobs.len(), cfg.worlds().len() * 2 * cfg.repeats as usize);
        for job in &jobs {
            assert!(job.validate().is_ok());
        }
        for (world, open) in cfg.worlds() {
            for engine in ["cpu", "gpu"] {
                let label = format!("{world}/{engine}");
                let matched: Vec<_> = jobs.iter().filter(|j| j.label == label).collect();
                assert_eq!(matched.len(), cfg.repeats as usize, "{label}");
                for j in matched {
                    assert_eq!(j.engine.name(), engine);
                    let s = j.cfg.scenario.as_ref().expect("registry world");
                    assert_eq!(s.is_open(), open);
                }
            }
        }
    }

    #[test]
    fn tiny_run_covers_all_stages_and_yields_ratios() {
        let cfg = StConfig {
            side: 24,
            closed_per_side: 16,
            open_capacity: 12,
            open_rate: 1.5,
            steps: 25,
            repeats: 1,
            seed: 1,
        };
        let rows = run(&cfg, 2);
        assert_eq!(rows.len(), 4, "2 worlds x 2 engines");
        assert!(covers_both_engines_and_all_stages(&rows));
        for r in &rows {
            assert_eq!(r.steps, cfg.steps);
            assert!(r.steps_per_sec > 0.0, "{}/{} untimed", r.world, r.engine);
            assert!(r.total_ms > 0.0);
            // Open worlds exercise the lifecycle stage for real.
            if r.open {
                assert!(r.stage_ms[Stage::Lifecycle.index()] > 0.0);
            }
        }
        let ratios = ratios(&rows);
        assert_eq!(ratios.len(), 2);
        for x in &ratios {
            assert!(x.total > 0.0, "{}: no total ratio", x.world);
        }
        let json = to_json(Scale::Smoke, &cfg, &rows, &[]);
        assert!(json.contains("\"bench\": \"step_throughput\""));
        assert!(json.contains("\"schema\": \"pedsim.step_throughput.v3\""));
        for stage in Stage::ALL {
            assert!(json.contains(&format!("\"{}\":", stage.name())));
        }
        assert!(json.contains("\"cpu\"") && json.contains("\"gpu\""));
        assert!(json.contains("cpu_over_gpu"));
        assert!(json.contains("\"ladder\": ["));
    }

    #[test]
    fn ladder_jobs_cover_every_backend_and_validate() {
        let cells: usize = LADDER_BACKENDS
            .iter()
            .map(|(b, _)| ladder_modes(b).len())
            .sum();
        // Both modes on the three pooled cells, one run on scalar and simt.
        assert_eq!(cells, 3 * LADDER_MODES.len() + 2);
        let jobs = ladder_jobs(Scale::Smoke, None);
        assert_eq!(jobs.len(), cells);
        for job in &jobs {
            assert!(job.validate().is_ok(), "{}", job.label);
            // Warmup rides inside the step budget, never on top of it.
            assert!(job.warmup > 0, "{}", job.label);
            assert_eq!(job.stop, StopCondition::Steps(job.warmup + 40));
        }
        // Every label is distinct and names its backend configuration
        // and traversal mode.
        let labels: BTreeSet<&str> = jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(labels.len(), jobs.len());
        for &(backend, threads) in LADDER_BACKENDS {
            for mode in ladder_modes(backend) {
                let label = ladder_label(96, backend, threads, mode);
                let job = jobs.iter().find(|j| j.label == label).expect("cell");
                assert_eq!(job.engine.backend_sel(), (backend, threads));
                assert_eq!(job.cfg.iteration, mode.unwrap_or(IterationMode::Auto));
            }
        }
        // Larger scales add rungs without dropping the smoke rung.
        assert_eq!(ladder_jobs(Scale::Default, None).len(), 2 * cells);
        assert_eq!(ladder_jobs(Scale::Paper, None).len(), 3 * cells);
        // `only` restricts to one backend configuration per rung; both
        // modes stay.
        let pooled4 = ladder_jobs(Scale::Default, Some(("pooled", 4)));
        assert_eq!(pooled4.len(), 2 * LADDER_MODES.len());
        assert!(pooled4.iter().all(|j| j.label.contains("pooled/t4/")));
    }

    #[test]
    fn tiny_ladder_run_aggregates_and_reports_speedups() {
        let rungs = [LadderRung {
            side: 24,
            per_side: 20,
            steps: 10,
            warmup: 2,
        }];
        let jobs = ladder_jobs_for(&rungs, None);
        let report = Batch::new(1).run(&jobs);
        let rows = aggregate_ladder(&rungs, &report);
        assert_eq!(rows.len(), jobs.len());
        for r in &rows {
            // Warmup steps are discarded from the timed count.
            assert_eq!(r.steps, 10);
            assert_eq!(r.warmup, 2);
            assert_eq!(r.agents, 40);
            assert!((r.occupancy - 40.0 / (24.0 * 24.0)).abs() < 1e-12);
            assert!(
                r.steps_per_sec > 0.0,
                "{}/t{}/{} untimed",
                r.backend,
                r.threads,
                r.mode
            );
            assert!(r.movement_ms > 0.0);
            assert_eq!(r.movement_ms, r.stage_ms[Stage::Movement.index()]);
            // Rows carry the mode the engine reported.
            match r.backend {
                "scalar" => assert_eq!(r.mode, "sparse"),
                "simt" => assert_eq!(r.mode, "dense"),
                _ => {}
            }
        }
        // One movement-speedup entry per pooled mode; sparse-over-dense
        // per pooled configuration; pooled scaling per mode × thread
        // count.
        let speedups = ladder_speedups(&rows);
        assert_eq!(speedups.len(), LADDER_MODES.len());
        for (side, _, x) in &speedups {
            assert_eq!(*side, 24);
            assert!(*x > 0.0);
        }
        let sparse = sparse_speedups(&rows);
        assert_eq!(sparse.len(), 3);
        assert!(sparse.iter().all(|(_, b, _, _)| *b == "pooled"));
        assert!(sparse.iter().all(|(_, _, _, x)| *x > 0.0));
        let scaling = thread_scaling(&rows);
        assert_eq!(scaling.len(), 3 * LADDER_MODES.len());
        for (_, mode, threads, eff) in &scaling {
            assert!(*eff > 0.0, "pooled t{threads} {mode} unmeasured");
            if *threads == 1 {
                assert!((eff - 1.0).abs() < 1e-12);
            }
        }
        assert!(ladder_complete(&jobs, &rows));
        assert!(derived_series_present(&rows));
        let json = to_json(Scale::Smoke, &StConfig::for_scale(Scale::Smoke), &[], &rows);
        assert!(json.contains("\"backend\": \"pooled\""));
        assert!(json.contains("\"iteration_mode\": \"sparse\""));
        assert!(json.contains("\"occupancy\":"));
        assert!(json.contains("\"stages_ms_per_step\":"));
        assert!(json.contains("ladder_movement_speedup"));
        assert!(json.contains("sparse_over_dense"));
        assert!(json.contains("thread_scaling_efficiency"));
    }

    #[test]
    fn ladder_gate_rejects_wrong_modes_idle_rows_and_missing_series() {
        let rungs = [LadderRung {
            side: 24,
            per_side: 20,
            steps: 10,
            warmup: 2,
        }];
        let jobs = ladder_jobs_for(&rungs, None);
        // Rows as a healthy run reports them, in job order.
        let rows: Vec<LadderRow> = jobs
            .iter()
            .map(|job| {
                let (backend, threads) = job.engine.backend_sel();
                LadderRow {
                    side: 24,
                    agents: 40,
                    occupancy: 0.07,
                    backend,
                    threads,
                    mode: ladder_mode(job),
                    warmup: 2,
                    steps: 10,
                    steps_per_sec: 100.0 * threads as f64,
                    stage_ms: [1.0; Stage::COUNT],
                    movement_ms: 1.0,
                    total_ms: 6.0,
                }
            })
            .collect();
        assert!(ladder_complete(&jobs, &rows));
        assert!(derived_series_present(&rows));
        // A missing row, a pooled row reporting the other mode, a scalar
        // row reporting dense, and an untimed row each fail the gate.
        assert!(!ladder_complete(&jobs, &rows[1..]));
        let broken = |i: usize, f: fn(&mut LadderRow)| {
            let mut rows = rows.clone();
            f(&mut rows[i]);
            rows
        };
        let pooled = rows.iter().position(|r| r.backend == "pooled").unwrap();
        let flip: fn(&mut LadderRow) =
            |r| r.mode = if r.mode == "dense" { "sparse" } else { "dense" };
        assert!(!ladder_complete(&jobs, &broken(pooled, flip)));
        assert!(!ladder_complete(&jobs, &broken(0, flip)));
        assert!(!ladder_complete(
            &jobs,
            &broken(1, |r| r.steps_per_sec = 0.0)
        ));
        // Derived series need scalar and pooled rows in both modes.
        assert!(!derived_series_present(&rows[..1]));
        let no_scalar: Vec<LadderRow> = rows
            .iter()
            .filter(|r| r.backend != "scalar")
            .cloned()
            .collect();
        assert!(!derived_series_present(&no_scalar));
    }

    #[test]
    fn coverage_gate_rejects_missing_engines_and_idle_stages() {
        assert!(!covers_both_engines_and_all_stages(&[]));
        let row = |engine: &'static str| StRow {
            world: "paper_corridor",
            open: false,
            engine,
            agents: 10,
            steps: 5,
            steps_per_sec: 1.0,
            stage_ms: [1.0; Stage::COUNT],
            total_ms: 6.0,
        };
        // GPU row missing.
        assert!(!covers_both_engines_and_all_stages(&[row("cpu")]));
        // Both present: covered.
        assert!(covers_both_engines_and_all_stages(&[
            row("cpu"),
            row("gpu")
        ]));
        // A zero kernel stage breaks coverage.
        let mut dead = row("gpu");
        dead.stage_ms[Stage::Tour.index()] = 0.0;
        assert!(!covers_both_engines_and_all_stages(&[row("cpu"), dead]));
        // An open world with an idle lifecycle stage breaks coverage; a
        // closed world is allowed a zero lifecycle column.
        let open_row = |engine: &'static str, lifecycle_ms: f64| {
            let mut r = row(engine);
            r.world = "open_corridor";
            r.open = true;
            r.stage_ms[Stage::Lifecycle.index()] = lifecycle_ms;
            r
        };
        assert!(covers_both_engines_and_all_stages(&[
            open_row("cpu", 0.01),
            open_row("gpu", 0.01),
        ]));
        assert!(!covers_both_engines_and_all_stages(&[
            open_row("cpu", 0.01),
            open_row("gpu", 0.0),
        ]));
        let mut closed_idle = row("gpu");
        closed_idle.stage_ms[Stage::Lifecycle.index()] = 0.0;
        assert!(covers_both_engines_and_all_stages(&[
            row("cpu"),
            closed_idle
        ]));
    }
}
