//! The runner-driven workload, `registry_sweep`.
//!
//! One job is a whole experiment: every registry world at two densities
//! and four seeds, under both models, as one `Batch` of two workers with
//! the world cache on, each replica on `pooled` with one thread and the
//! sweep stop conditions (arrival, gridlock, steady flux, or the step
//! budget). Its result is the batch report.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pedsim_core::engine::{Backend, Engine, Stage, StopCondition};
use pedsim_core::metrics::{band_count, lane_index, segregation_index};
use pedsim_core::params::ModelKind;
use pedsim_core::prelude::SimConfig;
use pedsim_core::world::{CacheStats, CompiledWorld};
use pedsim_runner::{Batch, BatchReport, Job, FLUX_REPORT_WINDOW};
use pedsim_scenario::{registry, sweep};

use crate::check::{report_fingerprint, run_result_invariants};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{catch, host, ms, repeat_for, working_set_bytes, Options, Outcome};

/// The sweep's fixed inputs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Grid side of every world.
    pub side: usize,
    /// Agents per group: the density axis.
    pub per_sides: Vec<usize>,
    /// Replica seeds per (world, density), derived from the run seed.
    pub replicas: u64,
    /// Step budget per replica.
    pub budget: u64,
    /// Moves-per-step floor of the gridlock stop.
    pub gridlock_threshold: usize,
    /// Frozen steps before a replica stops as gridlocked.
    pub gridlock_patience: u64,
    /// Steady-state flux epsilon for the open worlds.
    pub steady_epsilon: f64,
    /// Batch workers.
    pub workers: usize,
    /// Report fingerprint of the default seed, from the `scalar` oracle.
    pub pinned: u64,
}

/// The sweep's inputs (full size, or the smoke instance).
pub fn spec(smoke: bool) -> Spec {
    if smoke {
        Spec {
            side: 24,
            per_sides: vec![8, 24],
            replicas: 1,
            budget: 120,
            gridlock_threshold: 1,
            gridlock_patience: 10,
            steady_epsilon: 0.75,
            workers: 2,
            pinned: 0,
        }
    } else {
        Spec {
            side: 64,
            per_sides: vec![96, 384],
            replicas: 4,
            budget: 1_000,
            gridlock_threshold: 2,
            gridlock_patience: 30,
            steady_epsilon: 0.5,
            workers: 2,
            pinned: 0x5edd_a7e8_ae21_1080,
        }
    }
}

/// The job list: worlds × densities × replica seeds × both models.
fn jobs(spec: &Spec, seed: u64, backend: &Backend) -> Vec<Job> {
    let closed = StopCondition::settled_or_steps(
        spec.budget,
        spec.gridlock_threshold,
        spec.gridlock_patience,
    );
    let open = StopCondition::FirstOf(vec![
        StopCondition::SteadyState {
            epsilon: spec.steady_epsilon,
            window: FLUX_REPORT_WINDOW,
        },
        StopCondition::Gridlocked {
            threshold: spec.gridlock_threshold,
            patience: spec.gridlock_patience,
        },
        StopCondition::Steps(spec.budget),
    ]);
    let mut out = Vec::new();
    for &world in registry::names() {
        for &per_side in &spec.per_sides {
            let base =
                sweep::build_world(world, spec.side, per_side).expect("every registry name builds");
            for i in 0..spec.replicas {
                let scenario = base
                    .clone()
                    .with_seed(seed.wrapping_mul(1_000).wrapping_add(i));
                let stop = if scenario.is_open() { &open } else { &closed };
                for model in [ModelKind::lem(), ModelKind::aco()] {
                    out.push(Job::backend(
                        format!("{world}/n{}/{}", per_side * 2, model.name()),
                        SimConfig::from_scenario(&scenario, model),
                        backend.clone(),
                        stop.clone(),
                    ));
                }
            }
        }
    }
    out
}

/// What one batch job measured.
struct JobResult {
    ok_replicas: u64,
    replicas: u64,
    total: Duration,
    scenario: Duration,
    batch_wall: Duration,
    report_json: Duration,
    report: BatchReport,
    cache: CacheStats,
}

impl JobResult {
    fn setup(&self) -> Duration {
        self.report.setup_total
    }

    /// Agents × steps summed over replicas, counting every agent slot
    /// (the population on closed worlds, the slot capacity on open ones).
    fn agent_steps(&self) -> f64 {
        self.report
            .results
            .iter()
            .map(|r| r.agents as f64 * r.steps as f64)
            .sum()
    }
}

/// One job: build the job list, run the batch, serialize and check the
/// report. A lost batch (rejected, or a replica panicked) returns its
/// replica count as the error.
fn job(
    spec: &Spec,
    seed: u64,
    backend: &Backend,
    tr: &mut Tracer,
    expect: Option<u64>,
) -> Result<JobResult, u64> {
    let t0 = Instant::now();
    tr.enter("job");
    let jobs = tr.span("scenario.build", || jobs(spec, seed, backend));
    let scenario = t0.elapsed();
    let replicas = jobs.len() as u64;
    let batch = Batch::new(spec.workers);
    let t = Instant::now();
    let report = tr.span("runner.batch", || catch(|| batch.try_run(&jobs)));
    let batch_wall = t.elapsed();
    let report = match report {
        Some(Ok(r)) => r,
        Some(Err(e)) => {
            eprintln!("batch rejected: {e}");
            tr.exit();
            return Err(replicas);
        }
        None => {
            tr.exit();
            return Err(replicas);
        }
    };
    let t = Instant::now();
    let json = tr.span("runner.report_json", || report.to_json());
    let report_json = t.elapsed();
    std::hint::black_box(json);
    let ok_replicas = tr.span("check", || {
        let open: BTreeMap<String, bool> = jobs
            .iter()
            .map(|j| {
                let s = j
                    .cfg
                    .scenario
                    .as_ref()
                    .expect("sweep jobs are scenario worlds");
                (j.label.clone(), s.is_open())
            })
            .collect();
        let mut ok = 0;
        for r in &report.results {
            match run_result_invariants(r, spec.budget, open[&r.label]) {
                Ok(()) => ok += 1,
                Err(e) => eprintln!("output check failed: {e}"),
            }
        }
        let fingerprint = report_fingerprint(&report);
        eprintln!("registry_sweep: report fingerprint {fingerprint:016x}");
        match expect {
            Some(want) if want != fingerprint => {
                eprintln!(
                    "output check failed: fingerprint {fingerprint:016x} != pinned {want:016x}"
                );
                0
            }
            _ => ok,
        }
    });
    let total = t0.elapsed();
    tr.exit();
    Ok(JobResult {
        ok_replicas,
        replicas,
        total,
        scenario,
        batch_wall,
        report_json,
        cache: batch.cache_stats(),
        report,
    })
}

/// Replays of the set-up layers from outside, on freshly built jobs (the
/// batch's own scenarios carry the distance fields it computed): each
/// distinct world compiled cold, then every replica's engine built and
/// the order parameters computed on its matrix.
struct Replay {
    compile: Duration,
    build: Duration,
    order_params: Duration,
}

fn replay(spec: &Spec, seed: u64, backend: &Backend, tr: &mut Tracer) -> Replay {
    let jobs = jobs(spec, seed, backend);
    let mut worlds: BTreeMap<u64, Arc<CompiledWorld>> = BTreeMap::new();
    let mut r = Replay {
        compile: Duration::ZERO,
        build: Duration::ZERO,
        order_params: Duration::ZERO,
    };
    for j in &jobs {
        let key = CompiledWorld::fingerprint_of(&j.cfg);
        if let Entry::Vacant(slot) = worlds.entry(key) {
            let t = Instant::now();
            slot.insert(tr.span("world.compile", || CompiledWorld::compile(&j.cfg)));
            r.compile += t.elapsed();
        }
    }
    for j in &jobs {
        let world = &worlds[&CompiledWorld::fingerprint_of(&j.cfg)];
        let t = Instant::now();
        let engine = tr.span("engine.build", || {
            backend
                .build_from_world(world, j.cfg.clone())
                .expect("the benchmark names registered backends")
        });
        r.build += t.elapsed();
        let mat = engine.mat_snapshot();
        let t = Instant::now();
        std::hint::black_box(tr.span("metrics.order_params", || {
            (lane_index(&mat), band_count(&mat), segregation_index(&mat))
        }));
        r.order_params += t.elapsed();
    }
    r
}

fn record(out: &mut Outcome, jobs: &mut Vec<JobResult>, r: Option<Result<JobResult, u64>>, n: u64) {
    match r {
        Some(Ok(r)) => {
            out.attempted += r.replicas;
            out.failed += r.replicas - r.ok_replicas;
            jobs.push(r);
        }
        Some(Err(replicas)) => {
            out.attempted += replicas;
            out.failed += replicas;
        }
        None => {
            out.attempted += n;
            out.failed += n;
        }
    }
}

/// Run the sweep workload for `opts.seconds`.
pub fn run(opts: &Options) -> Outcome {
    let spec = spec(opts.smoke);
    let threads = opts.threads.unwrap_or(1);
    let backend = Backend::pooled(threads);
    let expect = opts.expected(spec.pinned);
    let n = jobs(&spec, opts.seed, &backend).len() as u64;
    let mut out = Outcome::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(opts.trace);
    // Peak RSS is read after the first job of the fresh process: later
    // jobs add only what the allocator kept from earlier ones.
    let mut first_rss = None;
    repeat_for(opts.seconds, || {
        let r = catch(|| job(&spec, opts.seed, &backend, &mut off, expect));
        record(&mut out, &mut plain, r, n);
        first_rss.get_or_insert_with(host::peak_rss_mib);
        if opts.trace {
            let r = catch(|| job(&spec, opts.seed, &backend, &mut tr, expect));
            record(&mut out, &mut traced, r, n);
        }
    });
    // The largest replica's arrays, once per concurrently running worker.
    let per_replica = jobs(&spec, opts.seed, &backend)
        .iter()
        .map(|j| {
            let s = j
                .cfg
                .scenario
                .as_ref()
                .expect("sweep jobs are scenario worlds");
            let (cells, groups) = (s.width() * s.height(), s.n_groups());
            let planes = if j.cfg.model.is_aco() { groups } else { 0 };
            working_set_bytes(cells, s.total_capacity(), groups * cells, planes)
        })
        .max()
        .unwrap_or(0);
    out.notes.push(format!(
        "working_set_bytes={} (computed from array sizes: largest replica x {} workers; engine \
         scratch excluded) llc_bytes={} replicas_per_job={n} worlds={} side={} per_sides={:?} \
         threads_per_replica={threads} warmup_steps=0 jobs={}",
        per_replica * spec.workers as u64,
        spec.workers,
        host::llc_bytes(),
        registry::names().len(),
        spec.side,
        spec.per_sides,
        plain.len(),
    ));
    if opts.trace {
        if let Some(rep) = catch(|| replay(&spec, opts.seed, &backend, &mut tr)) {
            per_layer(&mut out, &spec, &plain, &traced, &rep);
        }
        crate::write_trace(&mut out, opts, &tr);
    } else {
        end_to_end(
            &mut out,
            &plain,
            first_rss.unwrap_or_else(host::peak_rss_mib),
        );
    }
    out
}

fn batch_rate(jobs: &[JobResult]) -> f64 {
    let secs: f64 = jobs.iter().map(|j| j.batch_wall.as_secs_f64()).sum();
    if secs > 0.0 {
        jobs.iter().map(JobResult::agent_steps).sum::<f64>() / secs
    } else {
        0.0
    }
}

/// Each replica's step time: its simulation wall over its steps.
fn replica_step_ms(jobs: &[JobResult]) -> Vec<f64> {
    jobs.iter()
        .flat_map(|j| j.report.results.iter())
        .filter(|r| r.steps > 0)
        .map(|r| ms(r.wall) / r.steps as f64)
        .collect()
}

fn end_to_end(out: &mut Outcome, jobs: &[JobResult], peak_rss: f64) {
    let secs = |f: fn(&JobResult) -> Duration| -> Vec<f64> {
        jobs.iter().map(|j| f(j).as_secs_f64()).collect()
    };
    let step_ms = replica_step_ms(jobs);
    let setups = secs(JobResult::setup);
    out.notes.push(format!(
        "samples: jobs={} setups={} replica_step_means={}",
        jobs.len(),
        setups.len(),
        step_ms.len(),
    ));
    out.push("time_to_result_s", median(&secs(|j| j.total)), "s");
    out.push("setup_s", median(&setups), "s");
    out.push("agent_steps_per_s", batch_rate(jobs), "agent-steps/s");
    out.push("step_ms_p50", quantile(&step_ms, 0.5), "ms");
    out.push("peak_rss_mib", peak_rss, "MiB");
    out.push("verified_fraction", out.verified_fraction(), "ratio");
}

fn per_layer(
    out: &mut Outcome,
    spec: &Spec,
    plain: &[JobResult],
    traced: &[JobResult],
    rep: &Replay,
) {
    let Some(first) = traced.first() else {
        return;
    };
    let results = || traced.iter().flat_map(|j| j.report.results.iter());
    let med = |f: fn(&JobResult) -> Duration| {
        median(&traced.iter().map(|j| ms(f(j))).collect::<Vec<_>>())
    };
    let steps: f64 = results().map(|r| r.steps as f64).sum();
    let agent_steps: f64 = results().map(|r| r.agents as f64 * r.steps as f64).sum();
    let cells = (spec.side * spec.side) as f64;
    let stage_ns = |s| results().map(|r| r.stages.of(s).as_secs_f64()).sum::<f64>() * 1e9;
    let c = first.cache;
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    out.push("scenario.build_ms", med(|j| j.scenario), "ms");
    out.push("world.compile_ms", ms(rep.compile), "ms");
    out.push("world.acquire_ms", med(JobResult::setup), "ms");
    out.push("world.cache_hit_ratio", ratio(c.hits, c.misses), "ratio");
    out.push(
        "world.field_hit_ratio",
        ratio(c.field_hits, c.field_misses),
        "ratio",
    );
    out.push("world.evictions", c.evictions as f64, "count");
    out.push("engine.build_ms", ms(rep.build), "ms");
    for s in Stage::ALL {
        out.push(
            format!("stage.{}_ms", s.name()),
            stage_ns(s) / steps / 1e6,
            "ms",
        );
    }
    for s in [Stage::InitialCalc, Stage::Tour, Stage::Movement] {
        out.push(
            format!("stage.{}_ns_per_agent", s.name()),
            stage_ns(s) / agent_steps,
            "ns/agent",
        );
    }
    out.push(
        "stage.init_ns_per_cell",
        stage_ns(Stage::Init) / (cells * steps),
        "ns/cell",
    );
    let report = &first.report;
    // Agents live when each replica stopped: below the slot capacity on the
    // open worlds, so a change that spawns fewer agents shows here even
    // though `agent_steps_per_s` counts slots.
    let live: f64 = report
        .results
        .iter()
        .map(|r| r.live.unwrap_or(r.agents) as f64)
        .sum();
    let all_cells = cells * report.jobs as f64;
    let moved = report.moves_total as f64 / report.steps_total as f64;
    out.push("work.live_agents", live, "count");
    out.push("work.cells", all_cells, "count");
    out.push("work.occupancy", live / all_cells, "ratio");
    out.push("work.moved_per_step", moved, "count");
    out.push(
        "work.move_ratio",
        report.moves_total as f64 / first.agent_steps(),
        "ratio",
    );
    let sparse = report.results.iter().filter(|r| r.mode == "sparse").count();
    out.push("work.sparse", sparse as f64, "count");
    // Every replica runs on one thread.
    out.push("pool.scaling_efficiency", 1.0, "ratio");
    let step_ms = replica_step_ms(plain);
    out.push("engine.step_ms_p90", quantile(&step_ms, 0.9), "ms");
    out.push("engine.step_samples", step_ms.len() as f64, "count");
    out.push("metrics.order_params_ms", ms(rep.order_params), "ms");
    let busy: f64 = traced
        .iter()
        .map(|j| {
            j.report
                .results
                .iter()
                .map(|r| (r.setup + r.wall).as_secs_f64())
                .sum::<f64>()
                / (spec.workers as f64 * j.batch_wall.as_secs_f64())
        })
        .sum::<f64>()
        / traced.len() as f64;
    out.push("runner.worker_busy_ratio", busy, "ratio");
    out.push("runner.report_json_ms", med(|j| j.report_json), "ms");
    out.push("runner.steps_total", report.steps_total as f64, "count");
    out.push("runner.stop.arrived", report.arrived as f64, "count");
    out.push("runner.stop.gridlocked", report.gridlocked as f64, "count");
    out.push("runner.stop.steady", report.steady as f64, "count");
    out.push("runner.stop.exhausted", report.exhausted as f64, "count");
    out.push(
        "trace.overhead_ratio",
        batch_rate(traced) / batch_rate(plain),
        "ratio",
    );
}

/// The report fingerprint of the sweep for `seed` on the `scalar` oracle.
pub fn oracle_fingerprint(spec: &Spec, seed: u64) -> u64 {
    let report = Batch::new(spec.workers).run(&jobs(spec, seed, &Backend::scalar()));
    report_fingerprint(&report)
}
