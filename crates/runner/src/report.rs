//! Per-replica results and the deterministic batch aggregate.

use std::fmt::Write as _;
use std::time::Duration;

use pedsim_core::engine::{Stage, StepTimings, StopReason};

/// The sliding window (steps) behind [`RunResult::flux`]: long enough to
/// smooth single-step noise, short enough that smoke-scale runs observe
/// it fully. Must stay ≤ `pedsim_core::metrics::MAX_FLUX_WINDOW`.
pub const FLUX_REPORT_WINDOW: u64 = 64;

/// Outcome of one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The job's label.
    pub label: String,
    /// Scenario name (`"paper_corridor"` for the classic corridor).
    pub world: String,
    /// Model name (`"LEM"` / `"ACO"`).
    pub model: String,
    /// The executing backend's registry key, as [`RunResult::backend`].
    /// The column stays because result consumers build this struct by
    /// field and the append-only registry's columns are fixed.
    pub engine: &'static str,
    /// Backend registry key actually executing the job (`"scalar"` /
    /// `"pooled"` / `"simt"`).
    pub backend: &'static str,
    /// Worker-thread count of the executing backend (1 for sequential
    /// backends).
    pub threads: usize,
    /// Stage-traversal mode the engine steps with (`"dense"` /
    /// `"sparse"`): fixed on `scalar` and `simt`, what an `Auto`
    /// configuration settled to on `pooled`.
    pub mode: &'static str,
    /// World-configuration fingerprint ([`Scenario::config_hash`] for
    /// scenario worlds, an `EnvConfig` field hash for the classic
    /// corridor). Stable across commits for equal configurations;
    /// rendered as 16 lower-hex chars in JSON and registry rows.
    ///
    /// [`Scenario::config_hash`]: pedsim_scenario::Scenario::config_hash
    pub config: u64,
    /// Replica seed.
    pub seed: u64,
    /// Total agents simulated.
    pub agents: usize,
    /// Steps actually executed (≤ the budget under early termination).
    pub steps: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Agents that reached their target (`None` when metrics were off).
    /// Open-boundary worlds count crossing *events* (recycled slots may
    /// cross repeatedly).
    pub throughput: Option<usize>,
    /// Mean crossings per step over the final [`FLUX_REPORT_WINDOW`]
    /// steps (`None` when metrics were off or the run was shorter than
    /// the window) — the open-boundary worlds' flux reading.
    pub flux: Option<f64>,
    /// Agents live on the grid when the run stopped (`None` when metrics
    /// were off). Equals the population for closed worlds.
    pub live: Option<usize>,
    /// Total cell changes over the run (`None` when metrics were off).
    pub total_moves: Option<u64>,
    /// Lane-formation index of the final configuration (`None` when
    /// metrics were off).
    pub lane_index: Option<f64>,
    /// Mean per-row directional band count of the final configuration
    /// (`None` when metrics were off).
    pub bands: Option<f64>,
    /// Group segregation index of the final configuration, in `[0, 1]`
    /// (`None` when metrics were off).
    pub segregation: Option<f64>,
    /// Gridlock early-warning gauge over the final
    /// [`FLUX_REPORT_WINDOW`] steps, in `[0, 1]` (`None` when metrics
    /// were off or the run was shorter than the window).
    pub gridlock_risk: Option<f64>,
    /// Time spent acquiring this job's compiled world: a cold compile
    /// (placement + flow fields) on a cache miss, a cache fetch on a hit.
    /// Engine construction and the simulation loop are excluded.
    /// Non-deterministic; excluded from [`BatchReport::to_json`],
    /// serialized as `setup_s` by [`BatchReport::to_json_with_timing`].
    pub setup: Duration,
    /// Wall time of the simulation loop alone (engine construction and
    /// result extraction excluded). Non-deterministic; excluded from
    /// [`BatchReport::to_json`].
    pub wall: Duration,
    /// Per-stage wall-clock totals from the engine's unified step
    /// pipeline (both engines report through the same surface).
    /// Non-deterministic; excluded from [`BatchReport::to_json`],
    /// serialized as `stages_s` by [`BatchReport::to_json_with_timing`].
    pub stages: StepTimings,
}

impl RunResult {
    /// Canonical ordering key: results sort by it so a report is
    /// independent of completion *and* submission order.
    fn key(&self) -> (&str, &str, &str, &str, &str, usize, &str, u64, usize) {
        (
            &self.label,
            &self.world,
            &self.model,
            self.engine,
            self.backend,
            self.threads,
            self.mode,
            self.seed,
            self.agents,
        )
    }

    fn json_object(&self, timing: bool) -> String {
        let mut o = String::from("{");
        push_str_field(&mut o, "label", &self.label);
        push_str_field(&mut o, "world", &self.world);
        push_str_field(&mut o, "model", &self.model);
        push_str_field(&mut o, "engine", self.engine);
        push_str_field(&mut o, "backend", self.backend);
        push_raw_field(&mut o, "threads", &self.threads.to_string());
        push_str_field(&mut o, "mode", self.mode);
        push_str_field(&mut o, "config", &pedsim_obs::hash::hex(self.config));
        push_raw_field(&mut o, "seed", &self.seed.to_string());
        push_raw_field(&mut o, "agents", &self.agents.to_string());
        push_raw_field(&mut o, "steps", &self.steps.to_string());
        push_str_field(&mut o, "stop", self.stop.name());
        push_raw_field(&mut o, "throughput", &opt_num(self.throughput));
        push_raw_field(&mut o, "flux", &self.flux.map_or("null".into(), json_f64));
        push_raw_field(&mut o, "live", &opt_num(self.live));
        push_raw_field(&mut o, "moves", &opt_num(self.total_moves));
        push_raw_field(
            &mut o,
            "lane_index",
            &self.lane_index.map_or("null".into(), json_f64),
        );
        push_raw_field(&mut o, "bands", &self.bands.map_or("null".into(), json_f64));
        push_raw_field(
            &mut o,
            "segregation",
            &self.segregation.map_or("null".into(), json_f64),
        );
        push_raw_field(
            &mut o,
            "gridlock_risk",
            &self.gridlock_risk.map_or("null".into(), json_f64),
        );
        if timing {
            push_raw_field(&mut o, "setup_s", &json_f64(self.setup.as_secs_f64()));
            push_raw_field(&mut o, "wall_s", &json_f64(self.wall.as_secs_f64()));
            let mut stages = String::from("{");
            for stage in Stage::ALL {
                if stages.len() > 1 {
                    stages.push_str(", ");
                }
                let _ = write!(
                    stages,
                    "\"{}\": {}",
                    stage.name(),
                    json_f64(self.stages.of(stage).as_secs_f64())
                );
            }
            stages.push('}');
            push_raw_field(&mut o, "stages_s", &stages);
        }
        o.push('}');
        o
    }

    fn wall_secs(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// Simulation steps per wall-clock second (0 for a zero-length or
    /// unstarted run).
    pub fn steps_per_sec(&self) -> f64 {
        let secs = self.wall_secs();
        if secs > 0.0 && self.steps > 0 {
            self.steps as f64 / secs
        } else {
            0.0
        }
    }

    /// Render as one journal [`Record`] (schema `pedsim.run.v1`): the
    /// deterministic body carries identity, provenance, and the physics
    /// observables; wall-clock timings land in the stripped `wall` tail,
    /// so [`pedsim_obs::journal::canonical`] of this record is
    /// byte-reproducible across repeat runs.
    ///
    /// [`Record`]: pedsim_obs::journal::Record
    pub fn journal_record(&self) -> pedsim_obs::journal::Record {
        let mut r = pedsim_obs::journal::Record::new("pedsim.run.v1");
        r.str_field("label", &self.label);
        r.str_field("world", &self.world);
        r.str_field("model", &self.model);
        r.str_field("engine", self.engine);
        r.str_field("backend", self.backend);
        r.u64_field("threads", self.threads as u64);
        r.str_field("mode", self.mode);
        r.str_field("config", &pedsim_obs::hash::hex(self.config));
        r.u64_field("seed", self.seed);
        r.u64_field("agents", self.agents as u64);
        r.u64_field("steps", self.steps);
        r.str_field("stop", self.stop.name());
        r.raw_field("throughput", &opt_num(self.throughput));
        r.opt_f64_field("flux", self.flux);
        r.raw_field("live", &opt_num(self.live));
        r.raw_field("moves", &opt_num(self.total_moves));
        r.opt_f64_field("lane_index", self.lane_index);
        r.opt_f64_field("bands", self.bands);
        r.opt_f64_field("segregation", self.segregation);
        r.opt_f64_field("gridlock_risk", self.gridlock_risk);
        r.wall_f64("setup_s", self.setup.as_secs_f64());
        r.wall_f64("wall_s", self.wall_secs());
        for stage in Stage::ALL {
            r.wall_f64(
                &format!("{}_s", stage.name()),
                self.stages.of(stage).as_secs_f64(),
            );
        }
        r
    }

    /// Render as one results-registry [`Row`] under the given benchmark
    /// name, scale preset, and commit. Wall KPIs (steps/sec, per-stage
    /// ms/step) are derived from this result's timings; the flux column
    /// is 0 when the run was shorter than the report window.
    ///
    /// [`Row`]: pedsim_obs::registry::Row
    pub fn registry_row(
        &self,
        bench: &str,
        scale: &str,
        commit: &str,
    ) -> pedsim_obs::registry::Row {
        let per_step_ms = |secs: f64| {
            if self.steps > 0 {
                secs * 1e3 / self.steps as f64
            } else {
                0.0
            }
        };
        let mut stage_ms = [0.0; 6];
        for (slot, stage) in stage_ms.iter_mut().zip(Stage::ALL) {
            *slot = per_step_ms(self.stages.of(stage).as_secs_f64());
        }
        pedsim_obs::registry::Row {
            schema: pedsim_obs::registry::SCHEMA.to_owned(),
            config: pedsim_obs::hash::hex(self.config),
            commit: commit.to_owned(),
            scale: scale.to_owned(),
            bench: bench.to_owned(),
            world: self.world.clone(),
            engine: self.engine.to_owned(),
            backend: self.backend.to_owned(),
            threads: self.threads as u64,
            model: self.model.clone(),
            seed: self.seed,
            agents: self.agents as u64,
            steps: self.steps,
            flux: self.flux.unwrap_or(0.0),
            bands: self.bands,
            segregation: self.segregation,
            gridlock_risk: self.gridlock_risk,
            steps_per_sec: self.steps_per_sec(),
            total_ms_per_step: per_step_ms(self.wall_secs()),
            stage_ms,
            setup_s: self.setup.as_secs_f64(),
        }
    }
}

/// Aggregate over a finished batch, with results in canonical order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Per-replica results, sorted by label/world/model/engine/backend/
    /// threads/seed.
    pub results: Vec<RunResult>,
    /// Number of jobs executed.
    pub jobs: usize,
    /// Sum of agent populations across jobs.
    pub agents_total: usize,
    /// Sum of throughput over metric-tracked jobs.
    pub throughput_total: usize,
    /// Sum of moves over metric-tracked jobs.
    pub moves_total: u64,
    /// Sum of executed steps across jobs.
    pub steps_total: u64,
    /// Mean executed steps per job (0 for an empty batch).
    pub mean_steps: f64,
    /// Jobs that stopped with [`StopReason::AllArrived`].
    pub arrived: usize,
    /// Jobs that stopped with [`StopReason::Gridlocked`].
    pub gridlocked: usize,
    /// Jobs that stopped with [`StopReason::SteadyState`].
    pub steady: usize,
    /// Jobs that ran out their step budget.
    pub exhausted: usize,
    /// Sum of per-job world-acquisition times (cold compiles plus cache
    /// fetches) — the batch's total setup cost.
    pub setup_total: Duration,
    /// Sum of per-job wall times (CPU-seconds of simulation).
    pub wall_total: Duration,
    /// Longest single job (the batch's wall-clock critical path).
    pub wall_max: Duration,
}

impl BatchReport {
    /// Aggregate `results` (any order) into a canonical report.
    pub fn from_results(mut results: Vec<RunResult>) -> Self {
        results.sort_by(|a, b| a.key().cmp(&b.key()));
        let jobs = results.len();
        let agents_total = results.iter().map(|r| r.agents).sum();
        let throughput_total = results.iter().filter_map(|r| r.throughput).sum();
        let moves_total = results.iter().filter_map(|r| r.total_moves).sum();
        let steps_total: u64 = results.iter().map(|r| r.steps).sum();
        let mean_steps = if jobs == 0 {
            0.0
        } else {
            steps_total as f64 / jobs as f64
        };
        let count = |reason: StopReason| results.iter().filter(|r| r.stop == reason).count();
        let setup_total = results.iter().map(|r| r.setup).sum();
        let wall_total = results.iter().map(|r| r.wall).sum();
        let wall_max = results.iter().map(|r| r.wall).max().unwrap_or_default();
        Self {
            jobs,
            agents_total,
            throughput_total,
            moves_total,
            steps_total,
            mean_steps,
            arrived: count(StopReason::AllArrived),
            gridlocked: count(StopReason::Gridlocked),
            steady: count(StopReason::SteadyState),
            exhausted: count(StopReason::StepBudget),
            setup_total,
            wall_total,
            wall_max,
            results,
        }
    }

    /// Results whose label matches `label` exactly (canonical order).
    pub fn with_label<'a>(&'a self, label: &str) -> impl Iterator<Item = &'a RunResult> + 'a {
        let label = label.to_string();
        self.results.iter().filter(move |r| r.label == label)
    }

    /// Mean throughput over results with `label` (0 when none tracked
    /// metrics or none matched).
    pub fn mean_throughput(&self, label: &str) -> f64 {
        let (mut sum, mut n) = (0usize, 0usize);
        for r in self.with_label(label) {
            if let Some(t) = r.throughput {
                sum += t;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// **Deterministic** JSON: identical bytes for identical job sets
    /// regardless of worker count or submission order. Wall-clock fields
    /// are omitted; use [`BatchReport::to_json_with_timing`] to include
    /// them.
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// JSON including the (non-deterministic) wall-clock fields.
    pub fn to_json_with_timing(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, timing: bool) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"pedsim.batch_report.v7\",");
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(s, "  \"aggregate\": {{");
        let _ = writeln!(s, "    \"agents_total\": {},", self.agents_total);
        let _ = writeln!(s, "    \"throughput_total\": {},", self.throughput_total);
        let _ = writeln!(s, "    \"moves_total\": {},", self.moves_total);
        let _ = writeln!(s, "    \"steps_total\": {},", self.steps_total);
        let _ = writeln!(s, "    \"mean_steps\": {},", json_f64(self.mean_steps));
        let _ = write!(
            s,
            "    \"stops\": {{\"all_arrived\": {}, \"gridlocked\": {}, \"steady_state\": {}, \
             \"step_budget\": {}}}",
            self.arrived, self.gridlocked, self.steady, self.exhausted
        );
        if timing {
            let _ = writeln!(s, ",");
            let _ = writeln!(
                s,
                "    \"setup_total_s\": {},",
                json_f64(self.setup_total.as_secs_f64())
            );
            let _ = writeln!(
                s,
                "    \"wall_total_s\": {},",
                json_f64(self.wall_total.as_secs_f64())
            );
            let _ = writeln!(
                s,
                "    \"wall_max_s\": {}",
                json_f64(self.wall_max.as_secs_f64())
            );
        } else {
            let _ = writeln!(s);
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"results\": [");
        for (i, r) in self.results.iter().enumerate() {
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            let _ = writeln!(s, "    {}{comma}", r.json_object(timing));
        }
        let _ = writeln!(s, "  ]");
        s.push('}');
        s.push('\n');
        s
    }
}

/// Escape a string for a JSON literal (quotes, backslashes, controls).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a finite `f64` via Rust's shortest-roundtrip `Display` (itself
/// deterministic); non-finite values become `null`.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn opt_num<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or("null".into(), |n| n.to_string())
}

fn push_str_field(buf: &mut String, key: &str, value: &str) {
    if buf.len() > 1 {
        buf.push_str(", ");
    }
    let _ = write!(buf, "\"{key}\": \"{}\"", json_escape(value));
}

fn push_raw_field(buf: &mut String, key: &str, raw: &str) {
    if buf.len() > 1 {
        buf.push_str(", ");
    }
    let _ = write!(buf, "\"{key}\": {raw}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(label: &str, seed: u64, stop: StopReason) -> RunResult {
        RunResult {
            label: label.into(),
            world: "paper_corridor".into(),
            model: "LEM".into(),
            engine: "simt",
            backend: "simt",
            threads: 1,
            mode: "sparse",
            config: 0x00c0_ffee_00c0_ffee,
            seed,
            agents: 40,
            steps: 100,
            stop,
            throughput: Some(40),
            flux: Some(0.5),
            live: Some(40),
            total_moves: Some(1_000),
            lane_index: Some(0.25),
            bands: Some(2.0),
            segregation: Some(0.75),
            gridlock_risk: Some(0.0),
            setup: Duration::from_micros(seed),
            wall: Duration::from_millis(seed),
            stages: StepTimings::default(),
        }
    }

    #[test]
    fn report_sorts_results_canonically() {
        let a = BatchReport::from_results(vec![
            result("b", 2, StopReason::AllArrived),
            result("a", 9, StopReason::StepBudget),
            result("b", 1, StopReason::Gridlocked),
        ]);
        let order: Vec<(String, u64)> = a
            .results
            .iter()
            .map(|r| (r.label.clone(), r.seed))
            .collect();
        assert_eq!(
            order,
            vec![("a".into(), 9), ("b".into(), 1), ("b".into(), 2)]
        );
        assert_eq!(a.jobs, 3);
        assert_eq!(a.arrived, 1);
        assert_eq!(a.gridlocked, 1);
        assert_eq!(a.exhausted, 1);
        assert_eq!(a.throughput_total, 120);
        assert_eq!(a.wall_max, Duration::from_millis(9));
    }

    #[test]
    fn json_is_order_invariant_and_excludes_wall() {
        let fwd = BatchReport::from_results(vec![
            result("a", 1, StopReason::AllArrived),
            result("a", 2, StopReason::AllArrived),
        ]);
        let mut rev_results = vec![
            result("a", 2, StopReason::AllArrived),
            result("a", 1, StopReason::AllArrived),
        ];
        rev_results[0].wall = Duration::from_secs(5); // timing noise
        rev_results[0].setup = Duration::from_secs(2); // more timing noise
        let rev = BatchReport::from_results(rev_results);
        assert_eq!(fwd.to_json(), rev.to_json());
        assert!(!fwd.to_json().contains("wall"));
        assert!(!fwd.to_json().contains("setup"));
        assert!(!fwd.to_json().contains("stages_s"));
        let timed = fwd.to_json_with_timing();
        assert!(timed.contains("wall_total_s"));
        assert!(timed.contains("setup_total_s"));
        assert!(timed.contains("\"setup_s\":"));
        assert!(timed.contains("pedsim.batch_report.v7"));
        // Every pipeline stage is serialized per result in timing mode.
        for stage in Stage::ALL {
            assert!(
                timed.contains(&format!("\"{}\":", stage.name())),
                "stage {} missing from timing JSON",
                stage.name()
            );
        }
    }

    #[test]
    fn json_escapes_labels() {
        let mut r = result("a", 1, StopReason::AllArrived);
        r.label = "quote\" slash\\ tab\t".into();
        let j = BatchReport::from_results(vec![r]).to_json();
        assert!(j.contains("quote\\\" slash\\\\ tab\\t"));
    }

    #[test]
    fn empty_batch_is_valid() {
        let r = BatchReport::from_results(Vec::new());
        assert_eq!(r.jobs, 0);
        assert_eq!(r.mean_steps, 0.0);
        assert!(r.to_json().contains("\"results\": [\n  ]"));
    }

    #[test]
    fn journal_record_isolates_wall_and_renders_provenance() {
        let mut r = result("a", 1, StopReason::AllArrived);
        r.wall = Duration::from_millis(250);
        let line = r.journal_record().line();
        assert!(line.contains("\"schema\": \"pedsim.run.v1\""));
        assert!(line.contains("\"config\": \"00c0ffee00c0ffee\""));
        assert!(line.contains("\"bands\": 2"));
        assert!(line.contains("\"wall\": {\"setup_s\": "));
        assert!(line.contains("\"wall_s\": 0.25"));
        // The canonical body is wall-free and byte-stable against
        // timing noise.
        let canon = pedsim_obs::journal::canonical(&line);
        assert!(!canon.contains("wall"));
        assert!(!canon.contains("setup"));
        let mut noisy = result("a", 1, StopReason::AllArrived);
        noisy.wall = Duration::from_secs(9);
        assert_eq!(
            canon,
            pedsim_obs::journal::canonical(&noisy.journal_record().line())
        );
    }

    #[test]
    fn registry_row_derives_per_step_kpis() {
        let mut r = result("a", 1, StopReason::AllArrived);
        r.wall = Duration::from_millis(200); // 100 steps in 0.2 s
        let row = r.registry_row("step_throughput", "smoke", "abc123abc123");
        assert_eq!(row.config, "00c0ffee00c0ffee");
        assert_eq!(row.commit, "abc123abc123");
        assert_eq!(row.seed, 1);
        assert_eq!(row.steps_per_sec, 500.0);
        assert_eq!(row.total_ms_per_step, 2.0);
        assert_eq!(row.stage_ms, [0.0; 6]);
        // setup_s is a per-job timing, not per step.
        assert_eq!(row.setup_s, 1e-6);
        // Rows round-trip through the registry CSV.
        let parsed = pedsim_obs::registry::Row::parse(&row.csv_line()).expect("parse");
        assert_eq!(parsed, row);
        // A zero-length run divides by nothing.
        let mut z = result("z", 1, StopReason::AllArrived);
        z.steps = 0;
        z.wall = Duration::ZERO;
        let zrow = z.registry_row("b", "smoke", "c");
        assert_eq!(zrow.steps_per_sec, 0.0);
        assert_eq!(zrow.total_ms_per_step, 0.0);
    }

    #[test]
    fn mean_throughput_groups_by_label() {
        let mut a = result("x", 1, StopReason::AllArrived);
        a.throughput = Some(10);
        let mut b = result("x", 2, StopReason::AllArrived);
        b.throughput = Some(30);
        let c = result("y", 3, StopReason::AllArrived);
        let rep = BatchReport::from_results(vec![a, b, c]);
        assert_eq!(rep.mean_throughput("x"), 20.0);
        assert_eq!(rep.mean_throughput("y"), 40.0);
        assert_eq!(rep.mean_throughput("zzz"), 0.0);
    }
}
