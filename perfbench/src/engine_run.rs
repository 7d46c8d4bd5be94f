//! The engine-driven workload, `paper_jam_aco`.
//!
//! One job builds the paper corridor from its registry constructor,
//! compiles the world, builds a `pooled` engine from it, times every
//! `Engine::step()` call for a fixed number of steps, and checks the
//! final state. Every job of a run starts from the same seed, so each
//! does the same deterministic work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pedsim_core::engine::{Backend, Engine, Stage, StepTimings, StopReason};
use pedsim_core::metrics::{band_count, lane_index, segregation_index};
use pedsim_core::params::{IterationMode, ModelKind, SimConfig};
use pedsim_core::world::CompiledWorld;
use pedsim_grid::EnvConfig;
use pedsim_runner::{BatchReport, RunResult, FLUX_REPORT_WINDOW};
use pedsim_scenario::registry;

use crate::check::{closed_world_invariants, state_fingerprint};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{catch, host, ms, repeat_for, working_set_bytes, Options, Outcome};

/// `setup_s` is the median of at least this many set-ups per run...
const MIN_SETUPS: usize = 7;
/// ...and of at least this much set-up time, so that a cheap set-up is
/// sampled often enough for a steady median.
const MIN_SETUP_SECONDS: f64 = 0.5;

/// The corridor workload's fixed inputs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Grid side.
    pub side: usize,
    /// Agents per side (two groups).
    pub per_side: usize,
    /// Movement model.
    pub model: ModelKind,
    /// Whether the engine tracks metrics.
    pub metrics: bool,
    /// `pooled` worker threads.
    pub threads: usize,
    /// Timed steps per job.
    pub steps: u64,
    /// Final-state fingerprint of the default seed, from the `scalar`
    /// oracle.
    pub pinned: u64,
}

/// The workload's inputs (full size, or the smoke instance).
pub fn spec(smoke: bool) -> Spec {
    if smoke {
        Spec {
            side: 64,
            per_side: 900,
            model: ModelKind::aco(),
            metrics: true,
            threads: 2,
            steps: 40,
            pinned: 0,
        }
    } else {
        Spec {
            side: 480,
            per_side: 51_200,
            model: ModelKind::aco(),
            metrics: true,
            threads: 2,
            steps: 800,
            pinned: 0x05de_c10e_3de3_6b2c,
        }
    }
}

/// A built replica and what its set-up cost.
struct Built {
    world: Arc<CompiledWorld>,
    engine: Box<dyn Engine + Send>,
    scenario: Duration,
    compile: Duration,
    build: Duration,
    setup: Duration,
}

/// Scenario build, world compile and engine build: the set-up of one
/// replica. `setup` covers compile + build.
fn build(spec: &Spec, seed: u64, backend: &Backend, tr: &mut Tracer) -> Built {
    let t = Instant::now();
    let scenario = tr.span("scenario.build", || {
        registry::paper_corridor(
            &EnvConfig::small(spec.side, spec.side, spec.per_side).with_seed(seed),
        )
    });
    let scenario_t = t.elapsed();
    let cfg = SimConfig::from_scenario(&scenario, spec.model).with_metrics(spec.metrics);
    let t = Instant::now();
    let world = tr.span("world.compile", || CompiledWorld::compile(&cfg));
    let compile = t.elapsed();
    let engine = tr.span("engine.build", || {
        backend
            .build_from_world(&world, cfg)
            .expect("the benchmark names registered backends")
    });
    let setup = t.elapsed();
    Built {
        world,
        engine,
        scenario: scenario_t,
        compile,
        build: setup - compile,
        setup,
    }
}

/// What one job measured.
struct JobResult {
    ok: bool,
    total: Duration,
    scenario: Duration,
    compile: Duration,
    build: Duration,
    setup: Duration,
    step_ms: Vec<f64>,
    stepping: Duration,
    steps: u64,
    agents: usize,
    cells: usize,
    sparse: bool,
    stages: StepTimings,
    /// Agents whose cell changed, summed over steps (traced jobs only).
    moved: u64,
    order_params: Duration,
    report_json: Duration,
    working_set: u64,
}

impl JobResult {
    fn agent_steps(&self) -> f64 {
        self.agents as f64 * self.steps as f64
    }
}

/// [`working_set_bytes`] of a compiled world under `model`.
fn working_set(world: &CompiledWorld, model: ModelKind) -> u64 {
    let g = world.geometry();
    let planes = if model.is_aco() { g.n_groups() } else { 0 };
    working_set_bytes(
        g.width * g.height,
        g.total_agents(),
        world.distance().data.len(),
        planes,
    )
}

/// One job: set up, step `spec.steps` times, check the final state.
/// `observe` adds per-step stage spans and the moved-agent count.
fn job(
    spec: &Spec,
    seed: u64,
    backend: &Backend,
    tr: &mut Tracer,
    observe: bool,
    expect: Option<u64>,
) -> JobResult {
    let t0 = Instant::now();
    tr.enter("job");
    let Built {
        world,
        mut engine,
        scenario,
        compile,
        build,
        setup,
    } = build(spec, seed, backend, tr);
    let geom = world.geometry();
    let start_stages = engine.step_timings().clone();
    let mut prev = observe.then(|| engine.positions());
    let mut moved = 0u64;
    let mut step_ms = Vec::with_capacity(spec.steps as usize);
    let loop_t = Instant::now();
    for _ in 0..spec.steps {
        let before = observe.then(|| engine.step_timings().clone());
        tr.enter("engine.step");
        let t = Instant::now();
        engine.step();
        step_ms.push(ms(t.elapsed()));
        let id = tr.exit();
        if let (Some(before), Some(prev)) = (before, prev.as_mut()) {
            let d = engine.step_timings().delta(&before);
            let parts: Vec<_> = EXECUTION_ORDER
                .iter()
                .map(|&s| (stage_span(s), d.of(s)))
                .collect();
            tr.children(id, &parts);
            let now = engine.positions();
            moved += now
                .0
                .iter()
                .zip(&now.1)
                .zip(prev.0.iter().zip(&prev.1))
                .filter(|(a, b)| a != b)
                .count() as u64;
            *prev = now;
        }
    }
    let stepping = loop_t.elapsed();
    let stages = engine.step_timings().delta(&start_stages);

    let (mat, (rows, cols)) = (engine.mat_snapshot(), engine.positions());
    let ok = tr.span("check", || {
        let invariants = closed_world_invariants(&geom, &mat, &rows, &cols);
        let fingerprint = state_fingerprint(&mat, &rows, &cols);
        eprintln!(
            "{}: final-state fingerprint {fingerprint:016x}",
            spec_label(spec)
        );
        match (invariants, expect) {
            (Err(e), _) => {
                eprintln!("output check failed: {e}");
                false
            }
            (Ok(()), Some(want)) if want != fingerprint => {
                eprintln!(
                    "output check failed: fingerprint {fingerprint:016x} != pinned {want:016x}"
                );
                false
            }
            _ => true,
        }
    });
    let t = Instant::now();
    let order = tr.span("metrics.order_params", || {
        (lane_index(&mat), band_count(&mat), segregation_index(&mat))
    });
    let order_params = t.elapsed();
    let metrics = engine.metrics();
    let name = backend.resolve().expect("resolved at build").name;
    let result = RunResult {
        label: spec_label(spec),
        world: "paper_corridor".to_string(),
        model: spec.model.name().to_string(),
        engine: name,
        backend: name,
        threads: backend.threads,
        mode: engine.iteration_mode().name(),
        config: world.fingerprint(),
        seed,
        agents: geom.total_agents(),
        steps: spec.steps,
        stop: StopReason::StepBudget,
        throughput: metrics.map(|m| m.throughput()),
        flux: metrics.and_then(|m| m.windowed_flux(FLUX_REPORT_WINDOW)),
        live: metrics.map(|m| m.live_count()),
        total_moves: metrics.map(|m| m.total_moves),
        lane_index: Some(order.0),
        bands: Some(order.1),
        segregation: Some(order.2),
        gridlock_risk: metrics.and_then(|m| m.gridlock_warning(FLUX_REPORT_WINDOW)),
        setup,
        wall: stepping,
        stages: stages.clone(),
    };
    let t = Instant::now();
    let json = tr.span("runner.report_json", || {
        BatchReport::from_results(vec![result]).to_json()
    });
    let report_json = t.elapsed();
    std::hint::black_box(json);
    let total = t0.elapsed();
    tr.exit();
    JobResult {
        ok,
        total,
        scenario,
        compile,
        build,
        setup,
        step_ms,
        stepping,
        steps: spec.steps,
        agents: geom.total_agents(),
        cells: geom.width * geom.height,
        sparse: engine.iteration_mode() == IterationMode::Sparse,
        stages,
        moved,
        order_params,
        report_json,
        working_set: working_set(&world, spec.model),
    }
}

fn spec_label(spec: &Spec) -> String {
    format!(
        "paper_corridor/{}/n{}/{}",
        spec.side,
        spec.per_side * 2,
        spec.model.name()
    )
}

/// The pipeline's stage execution order: the four kernels, then the
/// metrics observation, then the lifecycle.
const EXECUTION_ORDER: [Stage; Stage::COUNT] = [
    Stage::Init,
    Stage::InitialCalc,
    Stage::Tour,
    Stage::Movement,
    Stage::Metrics,
    Stage::Lifecycle,
];

/// Span name of a pipeline stage.
fn stage_span(stage: Stage) -> &'static str {
    match stage {
        Stage::Init => "stage.init",
        Stage::InitialCalc => "stage.initial_calc",
        Stage::Tour => "stage.tour",
        Stage::Movement => "stage.movement",
        Stage::Lifecycle => "stage.lifecycle",
        Stage::Metrics => "stage.metrics",
    }
}

/// Count one attempted replica and keep its result.
fn record(out: &mut Outcome, jobs: &mut Vec<JobResult>, r: Option<JobResult>) {
    out.attempted += 1;
    match r {
        Some(r) => {
            if !r.ok {
                out.failed += 1;
            }
            jobs.push(r);
        }
        None => out.failed += 1,
    }
}

fn sum<T>(jobs: &[JobResult], f: impl Fn(&JobResult) -> T) -> T
where
    T: std::iter::Sum<T>,
{
    jobs.iter().map(f).sum()
}

/// Agent·steps per second of stepping over `jobs`.
fn agent_steps_per_s(jobs: &[JobResult]) -> f64 {
    let secs = sum(jobs, |j| j.stepping.as_secs_f64());
    if secs > 0.0 {
        sum(jobs, JobResult::agent_steps) / secs
    } else {
        0.0
    }
}

/// Run the corridor workload for `opts.seconds`.
pub fn run(opts: &Options) -> Outcome {
    let spec = spec(opts.smoke);
    let threads = opts.threads.unwrap_or(spec.threads);
    let expect = opts.expected(spec.pinned);
    let mut out = Outcome::default();
    let (mut plain, mut traced, mut single) = (Vec::new(), Vec::new(), Vec::new());
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(opts.trace);
    // Peak RSS is read after the first job of the fresh process: later
    // jobs add only what the allocator kept from earlier ones.
    let mut first_rss = None;
    let (backend, one) = (Backend::pooled(threads), Backend::pooled(1));
    repeat_for(opts.seconds, || {
        let r = catch(|| job(&spec, opts.seed, &backend, &mut off, false, expect));
        record(&mut out, &mut plain, r);
        first_rss.get_or_insert_with(host::peak_rss_mib);
        if opts.trace {
            let r = catch(|| job(&spec, opts.seed, &backend, &mut tr, true, expect));
            record(&mut out, &mut traced, r);
            if threads > 1 {
                // Replay at one thread, untraced like `plain`: the trajectory
                // is bit-identical, so the work is the same and the ratio is
                // pure scaling.
                let r = catch(|| job(&spec, opts.seed, &one, &mut off, false, expect));
                record(&mut out, &mut single, r);
            }
        }
    });
    let Some(first) = plain.first() else {
        return out;
    };
    out.notes.push(format!(
        "working_set_bytes={} (computed from array sizes; engine scratch excluded) llc_bytes={} \
         agents={} cells={} steps_per_job={} warmup_steps=0 jobs={}",
        first.working_set,
        host::llc_bytes(),
        first.agents,
        first.cells,
        spec.steps,
        plain.len()
    ));
    if opts.trace {
        per_layer(&mut out, &spec, threads, &plain, &traced, &single);
        crate::write_trace(&mut out, opts, &tr);
    } else {
        let peak_rss = first_rss.unwrap_or_else(host::peak_rss_mib);
        end_to_end(&mut out, &spec, opts.seed, &backend, &plain, peak_rss);
    }
    out
}

fn end_to_end(
    out: &mut Outcome,
    spec: &Spec,
    seed: u64,
    backend: &Backend,
    jobs: &[JobResult],
    peak_rss: f64,
) {
    let mut setups: Vec<f64> = jobs.iter().map(|j| j.setup.as_secs_f64()).collect();
    let mut off = Tracer::new(false);
    while setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < MIN_SETUP_SECONDS {
        match catch(|| build(spec, seed, backend, &mut off).setup) {
            Some(s) => setups.push(s.as_secs_f64()),
            None => break,
        }
    }
    let step_ms: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.step_ms.iter().copied())
        .collect();
    let totals: Vec<f64> = jobs.iter().map(|j| j.total.as_secs_f64()).collect();
    out.notes.push(format!(
        "samples: jobs={} setups={} steps={}",
        jobs.len(),
        setups.len(),
        step_ms.len(),
    ));
    out.push("time_to_result_s", median(&totals), "s");
    out.push("setup_s", median(&setups), "s");
    out.push(
        "agent_steps_per_s",
        agent_steps_per_s(jobs),
        "agent-steps/s",
    );
    out.push("step_ms_p50", quantile(&step_ms, 0.5), "ms");
    out.push("peak_rss_mib", peak_rss, "MiB");
    out.push("verified_fraction", out.verified_fraction(), "ratio");
}

fn per_layer(
    out: &mut Outcome,
    spec: &Spec,
    threads: usize,
    plain: &[JobResult],
    traced: &[JobResult],
    single: &[JobResult],
) {
    let Some(first) = traced.first() else {
        return;
    };
    let med = |f: fn(&JobResult) -> Duration| {
        median(&traced.iter().map(|j| ms(f(j))).collect::<Vec<_>>())
    };
    let steps = sum(traced, |j| j.steps) as f64;
    let stage_ns = |s: Stage| sum(traced, |j| j.stages.of(s).as_secs_f64()) * 1e9;
    let agent_steps = sum(traced, JobResult::agent_steps);
    let cell_steps = sum(traced, |j| j.cells as f64 * j.steps as f64);
    out.push("scenario.build_ms", med(|j| j.scenario), "ms");
    out.push("world.compile_ms", med(|j| j.compile), "ms");
    // Acquisition is a cold compile: these workloads use no world cache.
    out.push("world.acquire_ms", med(|j| j.compile), "ms");
    out.push("world.cache_hit_ratio", 0.0, "ratio");
    out.push("world.field_hit_ratio", 0.0, "ratio");
    out.push("world.evictions", 0.0, "count");
    out.push("engine.build_ms", med(|j| j.build), "ms");
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
        stage_ns(Stage::Init) / cell_steps,
        "ns/cell",
    );
    let moved = sum(traced, |j| j.moved) as f64 / steps;
    out.push("work.live_agents", first.agents as f64, "count");
    out.push("work.cells", first.cells as f64, "count");
    out.push(
        "work.occupancy",
        first.agents as f64 / first.cells as f64,
        "ratio",
    );
    out.push("work.moved_per_step", moved, "count");
    out.push("work.move_ratio", moved / first.agents as f64, "ratio");
    out.push("work.sparse", if first.sparse { 1.0 } else { 0.0 }, "count");
    // Untraced time per step at one thread over untraced time per step at
    // `threads`, divided by `threads`; 1 by definition for a one-thread
    // workload.
    let efficiency = if single.is_empty() {
        1.0
    } else {
        let per_step =
            |js: &[JobResult]| sum(js, |j| j.stepping.as_secs_f64()) / sum(js, |j| j.steps) as f64;
        per_step(single) / per_step(plain) / threads as f64
    };
    out.push("pool.scaling_efficiency", efficiency, "ratio");
    // The tail of the untraced jobs' step times: too unsteady on a shared
    // host to gate, so it is reported here, with its sample count.
    let step_ms: Vec<f64> = plain
        .iter()
        .flat_map(|j| j.step_ms.iter().copied())
        .collect();
    out.push("engine.step_ms_p90", quantile(&step_ms, 0.9), "ms");
    out.push("engine.step_samples", step_ms.len() as f64, "count");
    out.push("metrics.order_params_ms", med(|j| j.order_params), "ms");
    let busy = sum(traced, |j| (j.setup + j.stepping).as_secs_f64())
        / sum(traced, |j| j.total.as_secs_f64());
    out.push("runner.worker_busy_ratio", busy, "ratio");
    out.push("runner.report_json_ms", med(|j| j.report_json), "ms");
    out.push("runner.steps_total", spec.steps as f64, "count");
    out.push("runner.stop.arrived", 0.0, "count");
    out.push("runner.stop.gridlocked", 0.0, "count");
    out.push("runner.stop.steady", 0.0, "count");
    out.push("runner.stop.exhausted", 1.0, "count");
    out.push(
        "trace.overhead_ratio",
        agent_steps_per_s(traced) / agent_steps_per_s(plain),
        "ratio",
    );
}

/// The final-state fingerprint of `spec`'s job for `seed` on the
/// `scalar` oracle.
pub fn oracle_fingerprint(spec: &Spec, seed: u64) -> u64 {
    let mut built = build(spec, seed, &Backend::scalar(), &mut Tracer::new(false));
    built.engine.run(spec.steps);
    let (rows, cols) = built.engine.positions();
    state_fingerprint(&built.engine.mat_snapshot(), &rows, &cols)
}
