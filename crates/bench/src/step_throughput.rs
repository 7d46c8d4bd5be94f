//! Step throughput of the unified engine pipeline: per-stage wall time
//! and steps/second on every backend-registry configuration — the repo's
//! perf trajectory.
//!
//! The paper's headline result is per-kernel speedup of the four-stage
//! pipeline; the unified `StepCore` times every stage of **every**
//! backend through one code path, so that comparison is measurable
//! end-to-end instead of modelled. This harness is one **scale ladder**:
//! each rung is a registry world at one grid side with its model and
//! metrics switch ([`LadderRung`]), and every rung runs on every backend
//! configuration of [`LADDER_BACKENDS`]. The rungs are
//!
//! * the classic corridor under LEM with metrics off at growing sides
//!   (96 → 1024 → 4096; roughly 10³ → 10⁵ → 10⁶ agents, the larger rungs
//!   behind the default/paper scales) — the kernel pipeline alone;
//! * a closed (`paper_corridor`) and an open (`open_corridor`) world
//!   under ACO with metrics on, at the scale's own side — the heavier
//!   pipeline with the metrics and open-boundary lifecycle stages doing
//!   real work.
//!
//! The harness aggregates the per-stage
//! [`pedsim_core::engine::StepTimings`] that `pedsim_runner` surfaces on
//! every [`RunResult`](pedsim_runner::RunResult) into one row per
//! (rung, backend configuration, traversal mode), and writes
//! `results/step_throughput_<scale>.{csv,json}` plus the repo-root
//! `BENCH_step_throughput.json` record that every subsequent
//! optimisation PR is judged against.
//!
//! Every number here is wall-clock and therefore non-deterministic; the
//! record captures *shape* (which stages dominate, how far apart the
//! backends sit), not bit-stable bytes.

use pedsim_core::engine::{Backend, Stage};
use pedsim_core::prelude::*;
use pedsim_runner::{BatchReport, Job};
use pedsim_scenario::registry;

use crate::report::Table;
use crate::scale::Scale;

/// Schema tag of the JSON record.
pub const SCHEMA: &str = "pedsim.step_throughput.v5";

/// One rung of the scale ladder: a square registry world at one side,
/// with its model and metrics switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderRung {
    /// Registry world: `paper_corridor` (closed) or `open_corridor`.
    pub world: &'static str,
    /// Movement model.
    pub model: ModelKind,
    /// Whether replicas track metrics (the metrics stage then does real
    /// work; timing-only rungs switch it off).
    pub metrics: bool,
    /// Grid side.
    pub side: usize,
    /// Agents per side on the closed world, recyclable slot capacity per
    /// side on the open one.
    pub per_side: usize,
    /// Open-world inflow rate (expected arrivals per step per group);
    /// unused on the closed world.
    pub rate: f64,
    /// Measured steps per replica (pure step budget).
    pub steps: u64,
    /// Untimed warmup steps discarded before the clock starts.
    pub warmup: u64,
}

impl LadderRung {
    /// Whether the rung's world runs the open-boundary lifecycle.
    pub fn open(&self) -> bool {
        self.world == "open_corridor"
    }

    /// Population (slot capacity on the open world) per cell — on closed
    /// worlds the initial occupancy `IterationMode::Auto` resolves
    /// against.
    pub fn occupancy(&self) -> f64 {
        (self.per_side * 2) as f64 / (self.side * self.side) as f64
    }

    /// The rung's world, seeded with [`LADDER_SEED`].
    pub fn scenario(&self) -> Scenario {
        match self.world {
            "paper_corridor" => registry::paper_corridor(
                &EnvConfig::small(self.side, self.side, self.per_side).with_seed(LADDER_SEED),
            ),
            "open_corridor" => {
                registry::open_corridor(self.side, self.side, self.per_side, self.rate)
                    .with_seed(LADDER_SEED)
            }
            other => panic!("unknown ladder world {other:?}"),
        }
    }
}

/// The backend-registry configurations every rung runs on, in report
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

/// The rungs measured at `scale`. The LEM corridor climbs from the smoke
/// rung; the 10⁵-agent rung needs `default`, the 10⁶-agent rung
/// `--paper` (minutes per single-threaded backend). The big rungs carry a
/// warmup discard and enough measured steps that one slow first step
/// (page faults, cold caches) cannot dominate the mean. The closed+open
/// ACO pair runs at the scale's own side: the paper's 480×480 geometry
/// at its mid population (25,600 agents) under `--paper`. Its step
/// budget is a timing sample, not the paper's 25,000-step evaluation
/// budget — per-stage means stabilise within a few hundred steps.
pub fn ladder_rungs(scale: Scale) -> Vec<LadderRung> {
    let corridor = |side, per_side, steps, warmup| LadderRung {
        world: "paper_corridor",
        model: ModelKind::lem(),
        metrics: false,
        side,
        per_side,
        rate: 0.0,
        steps,
        warmup,
    };
    let mut rungs = vec![corridor(96, 400, 40, 5)];
    if scale != Scale::Smoke {
        rungs.push(corridor(1024, 50_000, 30, 3));
    }
    if scale == Scale::Paper {
        rungs.push(corridor(4096, 500_000, 10, 2));
    }
    // (side, closed agents per side, open capacity per side, open
    // inflow rate, steps)
    let (side, closed, capacity, rate, steps) = match scale {
        Scale::Paper => (480, 12_800, 10_000, 16.0, 400),
        Scale::Default => (96, 600, 500, 4.0, 300),
        Scale::Smoke => (32, 30, 40, 2.0, 120),
    };
    for (world, per_side, rate) in [
        ("paper_corridor", closed, 0.0),
        ("open_corridor", capacity, rate),
    ] {
        rungs.push(LadderRung {
            world,
            model: ModelKind::aco(),
            metrics: true,
            side,
            per_side,
            rate,
            steps,
            warmup: 5,
        });
    }
    rungs
}

/// Canonical ladder job label:
/// `ladder/<world>/<model>/s<side>/<backend>/t<threads>`, plus
/// `/<mode>` when the cell requests a traversal mode.
pub fn ladder_label(
    rung: &LadderRung,
    backend: &str,
    threads: usize,
    mode: Option<IterationMode>,
) -> String {
    let label = format!(
        "ladder/{}/{}/s{}/{backend}/t{threads}",
        rung.world,
        rung.model.name(),
        rung.side
    );
    match mode {
        Some(mode) => format!("{label}/{}", mode.name()),
        None => label,
    }
}

/// The ladder job list over explicit rungs: every rung × backend
/// configuration × [`ladder_modes`] (restricted to `only`'s backend
/// configuration when given), stopping on the pure step budget. One
/// replica per cell: the registry accumulates repeats across runs, and
/// a 10⁶-agent rung cannot afford in-process repetition.
pub fn ladder_jobs_for(rungs: &[LadderRung], only: Option<(&str, usize)>) -> Vec<Job> {
    let mut jobs = Vec::new();
    for rung in rungs {
        let scenario = rung.scenario();
        for &(backend, threads) in LADDER_BACKENDS {
            if only.is_some_and(|cell| cell != (backend, threads)) {
                continue;
            }
            for mode in ladder_modes(backend) {
                let mut cfg =
                    SimConfig::from_scenario(&scenario, rung.model).with_metrics(rung.metrics);
                if let Some(mode) = mode {
                    cfg = cfg.with_iteration_mode(mode);
                }
                jobs.push(
                    Job::backend(
                        ladder_label(rung, backend, threads, mode),
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
    /// The rung measured.
    pub rung: LadderRung,
    /// Agents (population on closed worlds, slot capacity on open ones).
    pub agents: usize,
    /// Backend registry key.
    pub backend: &'static str,
    /// Worker threads.
    pub threads: usize,
    /// Stage-traversal mode the engine reported (`"dense"` /
    /// `"sparse"`), not the requested one.
    pub mode: &'static str,
    /// Steps timed (warmup excluded).
    pub steps: u64,
    /// Simulated steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Mean milliseconds per step per stage ([`Stage::ALL`] order).
    pub stage_ms: [f64; Stage::COUNT],
    /// Mean milliseconds per step across all stages.
    pub total_ms: f64,
}

impl LadderRow {
    /// Mean milliseconds per step of `stage`.
    pub fn ms(&self, stage: Stage) -> f64 {
        self.stage_ms[stage.index()]
    }
}

/// Aggregate a finished ladder batch into per-cell rows (report order:
/// rung-major, then [`LADDER_BACKENDS`], then [`ladder_modes`]).
pub fn aggregate_ladder(rungs: &[LadderRung], report: &BatchReport) -> Vec<LadderRow> {
    let mut out = Vec::new();
    for rung in rungs {
        for &(backend, threads) in LADDER_BACKENDS {
            for mode in ladder_modes(backend) {
                let label = ladder_label(rung, backend, threads, mode);
                let results: Vec<_> = report.with_label(&label).collect();
                if results.is_empty() {
                    continue;
                }
                let steps: u64 = results.iter().map(|r| r.steps).sum();
                let wall: f64 = results.iter().map(|r| r.wall.as_secs_f64()).sum();
                let mut stage_ms = [0.0; Stage::COUNT];
                if steps > 0 {
                    for stage in Stage::ALL {
                        let secs: f64 = results
                            .iter()
                            .map(|r| r.stages.of(stage).as_secs_f64())
                            .sum();
                        stage_ms[stage.index()] = secs * 1e3 / steps as f64;
                    }
                }
                out.push(LadderRow {
                    rung: *rung,
                    agents: results[0].agents,
                    backend,
                    threads,
                    mode: results[0].mode,
                    steps,
                    steps_per_sec: if wall > 0.0 { steps as f64 / wall } else { 0.0 },
                    stage_ms,
                    total_ms: stage_ms.iter().sum(),
                });
            }
        }
    }
    out
}

/// The distinct `keys`, in first-seen order (rungs hold floats, so no
/// ordered set).
fn distinct<K: PartialEq>(keys: impl Iterator<Item = K>) -> Vec<K> {
    let mut out = Vec::new();
    for k in keys {
        if !out.contains(&k) {
            out.push(k);
        }
    }
    out
}

/// Whole-step speedup of the widest pooled configuration over the scalar
/// reference, per `(rung, pooled mode)`: `(rung, mode, scalar_total_ms /
/// pooled_total_ms)`, dividing scalar's single row by each pooled mode's.
/// Whole steps, because the backends cut a step into passes differently
/// (a dense pooled step is one fused pass, filed under movement). Cells
/// missing either side of the ratio are skipped.
pub fn ladder_speedups(rows: &[LadderRow]) -> Vec<(LadderRung, &'static str, f64)> {
    let widest = LADDER_BACKENDS
        .iter()
        .filter(|(b, _)| *b == "pooled")
        .map(|&(_, t)| t)
        .max()
        .unwrap_or(1);
    rows.iter()
        .filter(|r| r.backend == "pooled" && r.threads == widest && r.total_ms > 0.0)
        .filter_map(|pooled| {
            let scalar = rows
                .iter()
                .find(|r| r.rung == pooled.rung && r.backend == "scalar")?;
            Some((pooled.rung, pooled.mode, scalar.total_ms / pooled.total_ms))
        })
        .collect()
}

/// Total-step speedup of sparse over dense traversal, per `(rung,
/// backend, threads)` cell measured in both modes (the `pooled` cells):
/// `dense_total_ms / sparse_total_ms`. The series `IterationMode::Auto`
/// trades on — O(live agents) stepping should beat the O(cells) sweep
/// wherever occupancy is low.
pub fn sparse_speedups(rows: &[LadderRow]) -> Vec<(LadderRung, &'static str, usize, f64)> {
    distinct(rows.iter().map(|r| (r.rung, r.backend, r.threads)))
        .into_iter()
        .filter_map(|(rung, backend, threads)| {
            let find = |mode: &str| {
                rows.iter().find(|r| {
                    r.rung == rung && r.backend == backend && r.threads == threads && r.mode == mode
                })
            };
            let (dense, sparse) = (find("dense")?, find("sparse")?);
            (sparse.total_ms > 0.0)
                .then(|| (rung, backend, threads, dense.total_ms / sparse.total_ms))
        })
        .collect()
}

/// Pooled thread-scaling efficiency per `(rung, mode, threads)`:
/// `steps_per_sec(t) / (steps_per_sec(1) · t)`. 1.0 is perfect linear
/// scaling; a flat thread curve reads as `1/t`. The dense rows were
/// historically near-flat because row bands balanced *cells*, not
/// agents — this series keeps that regression visible.
pub fn thread_scaling(rows: &[LadderRow]) -> Vec<(LadderRung, &'static str, usize, f64)> {
    let pooled = || rows.iter().filter(|r| r.backend == "pooled");
    let mut out = Vec::new();
    for (rung, mode) in distinct(pooled().map(|r| (r.rung, r.mode))) {
        let cell: Vec<&LadderRow> = pooled()
            .filter(|r| r.rung == rung && r.mode == mode)
            .collect();
        let Some(base) = cell
            .iter()
            .find(|r| r.threads == 1)
            .map(|r| r.steps_per_sec)
        else {
            continue;
        };
        if base <= 0.0 {
            continue;
        }
        for r in cell {
            out.push((
                rung,
                mode,
                r.threads,
                r.steps_per_sec / (base * r.threads as f64),
            ));
        }
    }
    out
}

/// The traversal mode a ladder job's engine must report: the requested
/// mode on `pooled`, the one traversal of `scalar` (`sparse`) and `simt`
/// (`dense`).
pub fn ladder_mode(job: &Job) -> &'static str {
    match job.backend.name.as_str() {
        "scalar" => "sparse",
        "simt" => "dense",
        _ => job.cfg.iteration.name(),
    }
}

/// The ladder's acceptance gate: one row per job, in job order, each
/// naming its job's world, model, backend configuration and
/// [`ladder_mode`], with timed steps, a positive `steps_per_sec` and
/// positive time in every stage that does real work:
///
/// * movement everywhere;
/// * the paper's four kernel stages on `scalar` and `simt` (`pooled`
///   files its whole step, in both modes, under `movement` only);
/// * metrics where the job tracks them;
/// * the lifecycle on open worlds — a silently-unconstructed lifecycle
///   must fail the gate, not ship a zero column.
pub fn ladder_complete(jobs: &[Job], rows: &[LadderRow]) -> bool {
    rows.len() == jobs.len()
        && jobs.iter().zip(rows).all(|(job, r)| {
            let world = job.cfg.scenario.as_ref().map(|s| s.name());
            let open = job.cfg.scenario.as_ref().is_some_and(|s| s.is_open());
            let kernels = r.backend == "pooled" || Stage::KERNELS.iter().all(|&s| r.ms(s) > 0.0);
            world == Some(r.rung.world)
                && job.cfg.model.name() == r.rung.model.name()
                && (r.backend, r.threads, r.mode)
                    == (
                        job.backend.name.as_str(),
                        job.backend.threads,
                        ladder_mode(job),
                    )
                && r.steps > 0
                && r.steps_per_sec > 0.0
                && r.ms(Stage::Movement) > 0.0
                && kernels
                && (!job.cfg.track_metrics || r.ms(Stage::Metrics) > 0.0)
                && (!open || r.ms(Stage::Lifecycle) > 0.0)
        })
}

/// Whether a full ladder yields every derived series of the record:
/// pooled-over-scalar whole-step speedups, positive sparse-over-dense
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
    let mut headers: Vec<String> = [
        "world",
        "model",
        "side",
        "agents",
        "occupancy",
        "backend",
        "threads",
        "mode",
        "steps",
        "steps_per_sec",
    ]
    .map(String::from)
    .into();
    headers.extend(Stage::ALL.iter().map(|s| format!("{}_ms", s.name())));
    headers.push("total_ms".to_string());
    let mut t = Table::new(headers);
    for r in rows {
        let mut row = vec![
            r.rung.world.to_string(),
            r.rung.model.name().to_string(),
            r.rung.side.to_string(),
            r.agents.to_string(),
            format!("{:.4}", r.rung.occupancy()),
            r.backend.to_string(),
            r.threads.to_string(),
            r.mode.to_string(),
            r.steps.to_string(),
            format!("{:.1}", r.steps_per_sec),
        ];
        row.extend(r.stage_ms.iter().map(|ms| format!("{ms:.4}")));
        row.push(format!("{:.4}", r.total_ms));
        t.push_row(row);
    }
    t
}

fn stages_object(values: &[f64; Stage::COUNT]) -> String {
    let fields: Vec<String> = Stage::ALL
        .iter()
        .map(|s| format!("\"{}\": {:.4}", s.name(), values[s.index()]))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The JSON fields naming a rung: world, model and side.
fn rung_fields(rung: &LadderRung) -> String {
    format!(
        "\"world\": \"{}\", \"model\": \"{}\", \"side\": {}",
        rung.world,
        rung.model.name(),
        rung.side
    )
}

/// One named JSON array of `items`, one per line.
fn json_array(s: &mut String, name: &str, items: &[String], last: bool) {
    s.push_str(&format!("  \"{name}\": [\n"));
    for (i, item) in items.iter().enumerate() {
        let comma = if i + 1 < items.len() { "," } else { "" };
        s.push_str(&format!("    {{{item}}}{comma}\n"));
    }
    s.push_str(if last { "  ]\n" } else { "  ],\n" });
}

/// JSON for `results/step_throughput_<scale>.json` and the repo-root
/// `BENCH_step_throughput.json`: one `ladder` array with a row per
/// (rung, backend configuration, traversal mode) — world, model and
/// metrics switch, occupancy, reported traversal mode and per-stage
/// timings — and the pooled-over-scalar movement, sparse-over-dense and
/// thread-scaling-efficiency series derived from it.
pub fn to_json(scale: Scale, ladder: &[LadderRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"step_throughput\",\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!("  \"scale\": \"{}\",\n", scale.label()));
    let rows: Vec<String> = ladder
        .iter()
        .map(|r| {
            format!(
                "{}, \"open\": {}, \"metrics\": {}, \"agents\": {}, \"occupancy\": {:.4}, \
                 \"backend\": \"{}\", \"threads\": {}, \"iteration_mode\": \"{}\", \
                 \"warmup\": {}, \"steps\": {}, \"steps_per_sec\": {:.1}, \
                 \"movement_ms_per_step\": {:.4}, \"total_ms_per_step\": {:.4}, \
                 \"stages_ms_per_step\": {}",
                rung_fields(&r.rung),
                r.rung.open(),
                r.rung.metrics,
                r.agents,
                r.rung.occupancy(),
                r.backend,
                r.threads,
                r.mode,
                r.rung.warmup,
                r.steps,
                r.steps_per_sec,
                r.ms(Stage::Movement),
                r.total_ms,
                stages_object(&r.stage_ms),
            )
        })
        .collect();
    json_array(&mut s, "ladder", &rows, false);
    let speedups: Vec<String> = ladder_speedups(ladder)
        .iter()
        .map(|(rung, mode, x)| {
            format!(
                "{}, \"mode\": \"{mode}\", \"pooled_over_scalar\": {x:.3}",
                rung_fields(rung)
            )
        })
        .collect();
    json_array(&mut s, "ladder_step_speedup", &speedups, false);
    let sparse: Vec<String> = sparse_speedups(ladder)
        .iter()
        .map(|(rung, backend, threads, x)| {
            format!(
                "{}, \"backend\": \"{backend}\", \"threads\": {threads}, \
                 \"total_speedup\": {x:.3}",
                rung_fields(rung)
            )
        })
        .collect();
    json_array(&mut s, "sparse_over_dense", &sparse, false);
    let scaling: Vec<String> = thread_scaling(ladder)
        .iter()
        .map(|(rung, mode, threads, eff)| {
            format!(
                "{}, \"mode\": \"{mode}\", \"threads\": {threads}, \"efficiency\": {eff:.3}",
                rung_fields(rung)
            )
        })
        .collect();
    json_array(&mut s, "thread_scaling_efficiency", &scaling, true);
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedsim_runner::Batch;

    /// A tiny rung of each kind: the LEM corridor with metrics off, and
    /// the closed+open ACO pair with metrics on.
    fn tiny_rungs() -> Vec<LadderRung> {
        let rung = |world, model, metrics, per_side, rate| LadderRung {
            world,
            model,
            metrics,
            side: 24,
            per_side,
            rate,
            steps: 10,
            warmup: 2,
        };
        vec![
            rung("paper_corridor", ModelKind::lem(), false, 20, 0.0),
            rung("paper_corridor", ModelKind::aco(), true, 16, 0.0),
            rung("open_corridor", ModelKind::aco(), true, 12, 1.5),
        ]
    }

    /// Rows as a healthy run reports them, in job order.
    fn healthy_rows(rungs: &[LadderRung], jobs: &[Job]) -> Vec<LadderRow> {
        let cells = jobs.len() / rungs.len();
        jobs.iter()
            .enumerate()
            .map(|(i, job)| LadderRow {
                rung: rungs[i / cells],
                agents: 40,
                backend: job.backend.resolve().expect("registry backend").name,
                threads: job.backend.threads,
                mode: ladder_mode(job),
                steps: 10,
                steps_per_sec: 100.0 * job.backend.threads as f64,
                stage_ms: [1.0; Stage::COUNT],
                total_ms: 6.0,
            })
            .collect()
    }

    #[test]
    fn ladder_jobs_cover_every_backend_world_and_validate() {
        let cells: usize = LADDER_BACKENDS
            .iter()
            .map(|(b, _)| ladder_modes(b).len())
            .sum();
        // Both modes on the three pooled cells, one run on scalar and simt.
        assert_eq!(cells, 3 * LADDER_MODES.len() + 2);
        let rungs = ladder_rungs(Scale::Smoke);
        // The LEM corridor rung plus the closed+open ACO pair.
        assert_eq!(rungs.len(), 3);
        let jobs = ladder_jobs(Scale::Smoke, None);
        assert_eq!(jobs.len(), rungs.len() * cells);
        for job in &jobs {
            assert!(job.validate().is_ok(), "{}", job.label);
            // Warmup rides inside the step budget, never on top of it.
            assert!(job.warmup > 0, "{}", job.label);
        }
        // Every label is distinct and names its rung, backend
        // configuration and traversal mode.
        let mut labels: Vec<&str> = jobs.iter().map(|j| j.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), jobs.len());
        for rung in &rungs {
            for &(backend, threads) in LADDER_BACKENDS {
                for mode in ladder_modes(backend) {
                    let label = ladder_label(rung, backend, threads, mode);
                    let job = jobs.iter().find(|j| j.label == label).expect("cell");
                    assert_eq!(job.backend, Backend::named(backend, threads));
                    assert_eq!(job.cfg.iteration, mode.unwrap_or(IterationMode::Auto));
                    assert_eq!(job.cfg.model, rung.model);
                    assert_eq!(job.cfg.track_metrics, rung.metrics);
                    assert_eq!(job.stop, StopCondition::Steps(rung.warmup + rung.steps));
                    let s = job.cfg.scenario.as_ref().expect("registry world");
                    assert_eq!((s.name(), s.is_open()), (rung.world, rung.open()));
                }
            }
        }
        // Both ACO worlds run on every backend cell at every scale.
        for scale in [Scale::Smoke, Scale::Default, Scale::Paper] {
            for world in ["paper_corridor", "open_corridor"] {
                let aco = ladder_jobs(scale, None)
                    .into_iter()
                    .filter(|j| j.cfg.model.name() == "ACO")
                    .filter(|j| j.cfg.scenario.as_ref().is_some_and(|s| s.name() == world))
                    .count();
                assert_eq!(aco, cells, "{world} at {}", scale.label());
            }
        }
        // Larger scales add corridor rungs without dropping the smoke one.
        assert_eq!(ladder_jobs(Scale::Default, None).len(), 4 * cells);
        assert_eq!(ladder_jobs(Scale::Paper, None).len(), 5 * cells);
        // `only` restricts to one backend configuration per rung; both
        // modes stay.
        let pooled4 = ladder_jobs(Scale::Default, Some(("pooled", 4)));
        assert_eq!(pooled4.len(), 4 * LADDER_MODES.len());
        assert!(pooled4.iter().all(|j| j.label.contains("/pooled/t4/")));
    }

    #[test]
    fn tiny_ladder_run_aggregates_and_reports_speedups() {
        let rungs = tiny_rungs();
        let jobs = ladder_jobs_for(&rungs, None);
        let report = Batch::new(1).run(&jobs);
        let rows = aggregate_ladder(&rungs, &report);
        assert_eq!(rows.len(), jobs.len());
        for r in &rows {
            // Warmup steps are discarded from the timed count.
            assert_eq!(r.steps, 10);
            assert_eq!(r.agents, r.rung.per_side * 2);
            assert!(
                r.steps_per_sec > 0.0,
                "{}/t{}/{} untimed",
                r.backend,
                r.threads,
                r.mode
            );
            assert!(r.ms(Stage::Movement) > 0.0);
            // Open worlds exercise the lifecycle stage for real.
            if r.rung.open() {
                assert!(r.ms(Stage::Lifecycle) > 0.0);
            }
            // Rows carry the mode the engine reported.
            match r.backend {
                "scalar" => assert_eq!(r.mode, "sparse"),
                "simt" => assert_eq!(r.mode, "dense"),
                _ => {}
            }
        }
        // Per rung: one whole-step speedup entry per pooled mode;
        // sparse-over-dense per pooled configuration; pooled scaling per
        // mode × thread count.
        let speedups = ladder_speedups(&rows);
        assert_eq!(speedups.len(), rungs.len() * LADDER_MODES.len());
        for (rung, _, x) in &speedups {
            assert_eq!(rung.side, 24);
            assert!(*x > 0.0);
        }
        let sparse = sparse_speedups(&rows);
        assert_eq!(sparse.len(), rungs.len() * 3);
        assert!(sparse.iter().all(|(_, b, _, _)| *b == "pooled"));
        assert!(sparse.iter().all(|(_, _, _, x)| *x > 0.0));
        let scaling = thread_scaling(&rows);
        assert_eq!(scaling.len(), rungs.len() * 3 * LADDER_MODES.len());
        for (_, mode, threads, eff) in &scaling {
            assert!(*eff > 0.0, "pooled t{threads} {mode} unmeasured");
            if *threads == 1 {
                assert!((eff - 1.0).abs() < 1e-12);
            }
        }
        assert!(ladder_complete(&jobs, &rows));
        assert!(derived_series_present(&rows));
        let json = to_json(Scale::Smoke, &rows);
        assert!(json.contains("\"bench\": \"step_throughput\""));
        assert!(json.contains(&format!("\"schema\": \"{SCHEMA}\"")));
        for stage in Stage::ALL {
            assert!(json.contains(&format!("\"{}\":", stage.name())));
        }
        for world in ["paper_corridor", "open_corridor"] {
            assert!(json.contains(&format!("\"world\": \"{world}\"")));
        }
        assert!(json.contains("\"model\": \"ACO\"") && json.contains("\"model\": \"LEM\""));
        assert!(json.contains("\"open\": true") && json.contains("\"metrics\": true"));
        assert!(json.contains("\"backend\": \"pooled\""));
        assert!(json.contains("\"iteration_mode\": \"sparse\""));
        assert!(json.contains("\"occupancy\":"));
        assert!(json.contains("\"stages_ms_per_step\":"));
        assert!(json.contains("ladder_step_speedup"));
        assert!(json.contains("sparse_over_dense"));
        assert!(json.contains("thread_scaling_efficiency"));
        assert!(!json.contains("\"worlds\"") && !json.contains("\"cpu\""));
    }

    #[test]
    fn ladder_gate_rejects_wrong_modes_idle_rows_and_missing_series() {
        let rungs = tiny_rungs();
        let jobs = ladder_jobs_for(&rungs, None);
        let rows = healthy_rows(&rungs, &jobs);
        assert!(ladder_complete(&jobs, &rows));
        assert!(derived_series_present(&rows));
        let broken = |i: usize, f: &dyn Fn(&mut LadderRow)| {
            let mut rows = rows.clone();
            f(&mut rows[i]);
            rows
        };
        let find = |world: &str, backend: &str| {
            rows.iter()
                .position(|r| r.rung.world == world && r.backend == backend)
                .expect("row")
        };
        let scalar = find("paper_corridor", "scalar");
        let pooled = find("paper_corridor", "pooled");
        let simt = find("paper_corridor", "simt");
        // A missing row or backend cell, a row naming another world, and
        // an untimed row each fail the gate.
        assert!(!ladder_complete(&jobs, &rows[1..]));
        let no_simt: Vec<LadderRow> = rows
            .iter()
            .filter(|r| r.backend != "simt")
            .cloned()
            .collect();
        assert!(!ladder_complete(&jobs, &no_simt));
        assert!(!ladder_complete(
            &jobs,
            &broken(scalar, &|r| r.rung.world = "open_corridor")
        ));
        assert!(!ladder_complete(
            &jobs,
            &broken(1, &|r| r.steps_per_sec = 0.0)
        ));
        // A pooled row reporting the other mode, and a scalar row
        // reporting dense.
        let flip = |r: &mut LadderRow| r.mode = if r.mode == "dense" { "sparse" } else { "dense" };
        assert!(!ladder_complete(&jobs, &broken(pooled, &flip)));
        assert!(!ladder_complete(&jobs, &broken(scalar, &flip)));
        // A zero kernel stage fails on scalar and simt; pooled files its
        // passes under two stages and may read zero in the other two.
        let idle = |stage: Stage| move |r: &mut LadderRow| r.stage_ms[stage.index()] = 0.0;
        assert!(!ladder_complete(&jobs, &broken(scalar, &idle(Stage::Tour))));
        assert!(!ladder_complete(&jobs, &broken(simt, &idle(Stage::Init))));
        assert!(ladder_complete(&jobs, &broken(pooled, &idle(Stage::Tour))));
        assert!(!ladder_complete(
            &jobs,
            &broken(pooled, &idle(Stage::Movement))
        ));
        // An idle metrics stage fails where metrics are on, and only
        // there.
        let lem = rows
            .iter()
            .position(|r| r.rung.model.name() == "LEM")
            .expect("LEM row");
        let aco = rows
            .iter()
            .position(|r| r.rung.model.name() == "ACO" && !r.rung.open())
            .expect("closed ACO row");
        assert!(ladder_complete(&jobs, &broken(lem, &idle(Stage::Metrics))));
        assert!(!ladder_complete(&jobs, &broken(aco, &idle(Stage::Metrics))));
        // An idle lifecycle fails on the open world; a closed world is
        // allowed a zero lifecycle column.
        let open = find("open_corridor", "pooled");
        assert!(!ladder_complete(
            &jobs,
            &broken(open, &idle(Stage::Lifecycle))
        ));
        assert!(ladder_complete(
            &jobs,
            &broken(aco, &idle(Stage::Lifecycle))
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
}
