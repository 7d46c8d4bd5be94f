//! End-to-end and per-layer benchmark of the pedsim workspace.
//!
//! Two workloads, each run in its own process as a closed loop (one job
//! after another, at most two threads):
//!
//! * `paper_jam_aco` — the paper's largest Fig. 5 population (102,400
//!   agents on 480²), ACO, `pooled` on two threads, dense traversal, run
//!   into a jam;
//! * `registry_sweep` — every registry world × both models × two
//!   densities × four seeds on a two-worker runner `Batch`.
//!
//! The benchmark reaches the program only through public APIs
//! (`pedsim-scenario` constructors, `CompiledWorld`, `Backend`, `Engine`,
//! `Batch` / `BatchReport`) and times every call from outside. Untraced
//! runs report the end-to-end metrics; traced runs record spans at each
//! layer boundary and report the per-layer metrics.

pub mod check;
pub mod engine_run;
pub mod host;
pub mod stats;
pub mod sweep_run;
pub mod trace;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The seed whose final outputs are pinned from the `scalar` oracle.
pub const DEFAULT_SEED: u64 = 1;

/// A seed never used while tuning the benchmark or a change; a claimed
/// gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 9_001;

/// Where traced runs write their Chrome trace-event files.
pub const TRACE_DIR: &str = ".perfbench_out";

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 102,400-agent ACO jam, two threads, dense.
    PaperJamAco,
    /// The registry sweep on a two-worker batch.
    RegistrySweep,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 2] = [Workload::PaperJamAco, Workload::RegistrySweep];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperJamAco => "paper_jam_aco",
            Workload::RegistrySweep => "registry_sweep",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement time: the run repeats its job for about this long.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Shrink the workload to a seconds-long instance (tests).
    pub smoke: bool,
    /// Expected output fingerprint, overriding the pinned one.
    pub expect: Option<u64>,
    /// Worker threads per replica, overriding the workload's own.
    pub threads: Option<usize>,
}

impl Options {
    /// The fingerprint the outputs must match, when one applies: the
    /// override, else the pinned oracle value for the default seed at
    /// full size.
    pub fn expected(&self, pinned: u64) -> Option<u64> {
        self.expect
            .or((self.seed == DEFAULT_SEED && !self.smoke).then_some(pinned))
    }
}

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one invocation.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Replicas attempted.
    pub attempted: u64,
    /// Replicas that panicked, were rejected, or failed the output check.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Provenance and notes, printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Failed replicas over attempted replicas.
    pub fn failed_fraction(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Replicas that passed every check over attempted replicas: the
    /// reported form of `1 - failed_fraction`, which is never 0 on a
    /// healthy run.
    pub fn verified_fraction(&self) -> f64 {
        1.0 - self.failed_fraction()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric with its unit.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.value,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Run one invocation.
pub fn run(opts: &Options) -> Outcome {
    let mut out = match opts.workload {
        Workload::PaperJamAco => engine_run::run(opts),
        Workload::RegistrySweep => sweep_run::run(opts),
    };
    out.notes.insert(
        0,
        format!(
            "provenance: commit={} nproc={} cpu=\"{}\" llc_bytes={} rustc=\"{}\" workload={} \
             seed={} held_out_seed={HELD_OUT_SEED} seconds={} trace={} smoke={}",
            host::commit(),
            host::nproc(),
            host::cpu_model(),
            host::llc_bytes(),
            host::rustc_version(),
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            opts.trace,
            opts.smoke,
        ),
    );
    out.notes.push(format!(
        "failed_fraction={} ({} of {} replicas failed)",
        out.failed_fraction(),
        out.failed,
        out.attempted
    ));
    out
}

/// Write the traced run's spans as Chrome trace-event JSON under
/// [`TRACE_DIR`] and note the per-span self times.
pub(crate) fn write_trace(out: &mut Outcome, opts: &Options, tr: &trace::Tracer) {
    let path = std::path::Path::new(TRACE_DIR).join(format!(
        "trace-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    let written =
        std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, tr.chrome_json()));
    out.notes.push(match written {
        Ok(()) => format!("trace: {} ({} spans)", path.display(), tr.spans().len()),
        Err(e) => format!("trace: not written to {}: {e}", path.display()),
    });
    for (name, (total, own, n)) in tr.self_times() {
        out.notes.push(format!(
            "span {name:<22} n={n:<6} total_ms={:<12.3} self_ms={:.3}",
            ms(total),
            ms(own)
        ));
    }
}

/// Run `iteration` once, then as many more times as fit in `seconds` at
/// the first one's duration (at least once in all). A run never starts an
/// iteration it cannot expect to finish in time, so it lasts at most about
/// `seconds` unless one iteration alone takes longer.
pub(crate) fn repeat_for(seconds: f64, mut iteration: impl FnMut()) {
    let t = Instant::now();
    iteration();
    let first = t.elapsed().as_secs_f64().max(1e-6);
    let n = (seconds / first).floor().clamp(1.0, 100_000.0) as u64;
    for _ in 1..n {
        iteration();
    }
}

/// Bytes of one replica's main arrays, computed from their sizes: cell
/// labels, agent index and target mask (6 B/cell), the agent table with
/// its position index and liveness (16 B/agent, sentinel included), the
/// f32 distance planes, and under ACO one f32 pheromone plane per group.
/// Engine scratch buffers are not counted.
pub(crate) fn working_set_bytes(
    cells: usize,
    agents: usize,
    dist_floats: usize,
    pheromone_planes: usize,
) -> u64 {
    (cells * 6 + (agents + 1) * 16 + dist_floats * 4 + pheromone_planes * cells * 4) as u64
}

/// Run `f`, turning a panic into `None` (the panic message still reaches
/// stderr through the default hook).
pub(crate) fn catch<R>(f: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Milliseconds of a duration.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
