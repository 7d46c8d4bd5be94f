//! The append-only results registry and its KPI regression gate.
//!
//! `results/registry.csv` accumulates one row per benchmark
//! measurement, across commits, forever — benchmarks *append*, nothing
//! rewrites. Each row carries full provenance (config hash, commit,
//! scale, world, engine, model, seed) alongside its KPIs, so any two
//! rows can be compared knowing exactly what was measured — including,
//! since v2, the backend registry key and thread count that executed it.
//!
//! The column layout mirrors the journal's determinism split: the first
//! [`DETERMINISTIC_COLUMNS`] columns are byte-reproducible for equal
//! configurations; the remaining columns are wall-clock KPIs.
//!
//! [`check`] implements the CI gate: group rows into series by
//! [`Row::series_key`] (same bench, scale, world, engine, backend,
//! thread count, model, and config hash — i.e. "the same measurement,
//! repeated"), compare the
//! newest row of each series against the mean of its predecessors, and
//! flag any drift beyond the KPI's tolerance ([`tolerance_for`]).

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::Path;

/// Schema tag carried in every row's first column. v2 added the
/// `backend`/`threads` provenance columns after `engine`; v3 appended
/// the per-job `setup_s` world-acquisition timing. Older rows in an
/// append-only file simply fail to parse and are skipped by [`load`].
pub const SCHEMA: &str = "pedsim.registry.v3";

/// Number of leading columns that are deterministic (byte-reproducible
/// for equal configurations). The rest are wall-clock KPIs.
pub const DETERMINISTIC_COLUMNS: usize = 17;

/// The registry header. Column order is fixed; new columns may only be
/// appended (with a schema bump) so old rows stay parseable.
pub const HEADER: &str = "schema,config,commit,scale,bench,world,engine,backend,threads,model,\
seed,agents,steps,flux,bands,segregation,gridlock_risk,steps_per_sec,total_ms_per_step,init_ms,\
initial_calc_ms,tour_ms,movement_ms,lifecycle_ms,metrics_ms,setup_s";

/// Total column count.
pub const COLUMNS: usize = DETERMINISTIC_COLUMNS + 9;

/// One registry row. Field order matches the CSV column order.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Scenario configuration fingerprint (16 lower-hex chars).
    pub config: String,
    /// Commit the measurement was taken at.
    pub commit: String,
    /// Benchmark scale preset (`smoke` / `default` / `paper`).
    pub scale: String,
    /// Benchmark name (`step_throughput`, `fundamental_diagram`, ...).
    pub bench: String,
    /// World label (`paper_corridor`, `open_corridor`, `r03/0.25`, ...).
    pub world: String,
    /// Engine: the executing backend's registry key, as `backend` (rows
    /// written before the runner named engines by backend read `cpu` /
    /// `gpu`). The column stays because the registry is append-only.
    pub engine: String,
    /// Backend registry key executing the measurement (`scalar` /
    /// `pooled` / `simt`).
    pub backend: String,
    /// Worker-thread count of the executing backend.
    pub threads: u64,
    /// Movement model (`pso` / `aco`).
    pub model: String,
    /// Base seed of the measurement.
    pub seed: u64,
    /// Agents simulated (final live count for open worlds).
    pub agents: u64,
    /// Steps executed.
    pub steps: u64,
    /// Mean crossings per step over the report window.
    pub flux: f64,
    /// Lane-formation band count (absent when not measured).
    pub bands: Option<f64>,
    /// Group segregation index in `[0, 1]` (absent when not measured).
    pub segregation: Option<f64>,
    /// Gridlock early-warning gauge in `[0, 1]` (absent when not
    /// measured).
    pub gridlock_risk: Option<f64>,
    /// Simulation steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Mean wall milliseconds per step.
    pub total_ms_per_step: f64,
    /// Mean wall milliseconds per step in each pipeline stage, in stage
    /// order (init, initial_calc, tour, movement, lifecycle, metrics).
    pub stage_ms: [f64; 6],
    /// Wall seconds the job spent acquiring its compiled world (a cold
    /// compile on a world-cache miss, a cache fetch on a hit). Per job,
    /// not per step.
    pub setup_s: f64,
}

fn csv_f64(v: f64) -> String {
    // `Display` round-trips f64 exactly and never emits a comma.
    format!("{v}")
}

fn csv_opt(v: Option<f64>) -> String {
    v.map(csv_f64).unwrap_or_default()
}

impl Row {
    /// Render as one CSV line (no trailing newline).
    pub fn csv_line(&self) -> String {
        let mut cols: Vec<String> = vec![
            self.schema.clone(),
            self.config.clone(),
            self.commit.clone(),
            self.scale.clone(),
            self.bench.clone(),
            self.world.clone(),
            self.engine.clone(),
            self.backend.clone(),
            self.threads.to_string(),
            self.model.clone(),
            self.seed.to_string(),
            self.agents.to_string(),
            self.steps.to_string(),
            csv_f64(self.flux),
            csv_opt(self.bands),
            csv_opt(self.segregation),
            csv_opt(self.gridlock_risk),
            csv_f64(self.steps_per_sec),
            csv_f64(self.total_ms_per_step),
        ];
        cols.extend(self.stage_ms.iter().map(|&m| csv_f64(m)));
        cols.push(csv_f64(self.setup_s));
        debug_assert_eq!(cols.len(), COLUMNS);
        cols.join(",")
    }

    /// The deterministic prefix of the rendered row — the first
    /// [`DETERMINISTIC_COLUMNS`] columns, which must be byte-identical
    /// across repeat runs of the same configuration at the same commit.
    pub fn deterministic_prefix(&self) -> String {
        let line = self.csv_line();
        line.splitn(DETERMINISTIC_COLUMNS + 1, ',')
            .take(DETERMINISTIC_COLUMNS)
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parse one CSV line; `None` for the header or malformed rows.
    pub fn parse(line: &str) -> Option<Row> {
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != COLUMNS || cols[0] != SCHEMA {
            return None;
        }
        let f = |s: &str| s.parse::<f64>().ok();
        let opt = |s: &str| {
            if s.is_empty() {
                Some(None)
            } else {
                s.parse::<f64>().ok().map(Some)
            }
        };
        let mut stage_ms = [0.0; 6];
        for (slot, col) in stage_ms.iter_mut().zip(&cols[19..25]) {
            *slot = f(col)?;
        }
        Some(Row {
            schema: cols[0].to_owned(),
            config: cols[1].to_owned(),
            commit: cols[2].to_owned(),
            scale: cols[3].to_owned(),
            bench: cols[4].to_owned(),
            world: cols[5].to_owned(),
            engine: cols[6].to_owned(),
            backend: cols[7].to_owned(),
            threads: cols[8].parse().ok()?,
            model: cols[9].to_owned(),
            seed: cols[10].parse().ok()?,
            agents: cols[11].parse().ok()?,
            steps: cols[12].parse().ok()?,
            flux: f(cols[13])?,
            bands: opt(cols[14])?,
            segregation: opt(cols[15])?,
            gridlock_risk: opt(cols[16])?,
            steps_per_sec: f(cols[17])?,
            total_ms_per_step: f(cols[18])?,
            stage_ms,
            setup_s: f(cols[25])?,
        })
    }

    /// The series key: rows sharing it are repeats of the same
    /// measurement and may be compared for regressions. Commit and seed
    /// are deliberately *excluded* — comparing across commits is the
    /// whole point, and the seed is part of the config fingerprint.
    pub fn series_key(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/t{}/{}/{}",
            self.bench,
            self.scale,
            self.world,
            self.engine,
            self.backend,
            self.threads,
            self.model,
            self.config
        )
    }
}

/// Append rows to the registry at `path`, writing the header first when
/// the file is new or empty. Parent directories are created.
pub fn append(path: &Path, rows: &[Row]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let needs_header = std::fs::metadata(path)
        .map(|m| m.len() == 0)
        .unwrap_or(true);
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let mut text = String::new();
    if needs_header {
        text.push_str(HEADER);
        text.push('\n');
    }
    for row in rows {
        text.push_str(&row.csv_line());
        text.push('\n');
    }
    file.write_all(text.as_bytes())
}

/// Load every parseable row from the registry at `path`, oldest first.
/// The header and malformed lines are skipped (append-only files from
/// older schemas must not poison newer readers).
pub fn load(path: &Path) -> io::Result<Vec<Row>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text.lines().filter_map(Row::parse).collect())
}

/// How a KPI's drift is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Only a *drop* beyond tolerance is a regression (throughput, flux).
    HigherIsBetter,
    /// Only a *rise* beyond tolerance is a regression (latencies).
    LowerIsBetter,
    /// Any drift beyond tolerance is a regression (deterministic
    /// physics observables, which should not move at all).
    TwoSided,
}

/// Per-KPI tolerance: drift is allowed up to
/// `max(abs, rel * |baseline|)` in the benign direction(s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative slack as a fraction of the baseline.
    pub rel: f64,
    /// Absolute slack floor (guards near-zero baselines).
    pub abs: f64,
    /// Which drift direction counts as a regression.
    pub direction: Direction,
}

impl Tolerance {
    /// The drift allowance for a given baseline value.
    pub fn allowance(&self, baseline: f64) -> f64 {
        (self.rel * baseline.abs()).max(self.abs)
    }
}

/// Every KPI [`check`] understands, in registry column order.
pub const KPIS: &[&str] = &[
    "flux",
    "bands",
    "segregation",
    "gridlock_risk",
    "steps_per_sec",
    "total_ms_per_step",
    "init_ms",
    "initial_calc_ms",
    "tour_ms",
    "movement_ms",
    "lifecycle_ms",
    "metrics_ms",
    "setup_s",
];

/// The tolerance table (documented in DESIGN.md §12). Wall-clock KPIs
/// get wide relative bands — CI machines are noisy neighbors —
/// while deterministic physics observables get an exact two-sided gate.
pub fn tolerance_for(kpi: &str) -> Option<Tolerance> {
    let t = match kpi {
        "steps_per_sec" => Tolerance {
            rel: 0.5,
            abs: 0.0,
            direction: Direction::HigherIsBetter,
        },
        "total_ms_per_step" | "init_ms" | "initial_calc_ms" | "tour_ms" | "movement_ms"
        | "lifecycle_ms" | "metrics_ms" => Tolerance {
            rel: 0.6,
            abs: 0.05,
            direction: Direction::LowerIsBetter,
        },
        "flux" => Tolerance {
            rel: 0.25,
            abs: 0.2,
            direction: Direction::HigherIsBetter,
        },
        // Per-job world-acquisition time. The band is deliberately very
        // wide: a series legitimately mixes cold compiles with cache hits
        // (e.g. the CI ladder runs once uncached, once cached), so only a
        // gross blow-up — compilation accidentally re-entering the replica
        // path — should trip the gate.
        "setup_s" => Tolerance {
            rel: 3.0,
            abs: 0.05,
            direction: Direction::LowerIsBetter,
        },
        "bands" | "segregation" | "gridlock_risk" => Tolerance {
            rel: 0.0,
            abs: 1e-9,
            direction: Direction::TwoSided,
        },
        _ => return None,
    };
    Some(t)
}

/// Extract a KPI value from a row; `None` when the row did not measure
/// it.
pub fn kpi_value(row: &Row, kpi: &str) -> Option<f64> {
    match kpi {
        "flux" => Some(row.flux),
        "bands" => row.bands,
        "segregation" => row.segregation,
        "gridlock_risk" => row.gridlock_risk,
        "steps_per_sec" => Some(row.steps_per_sec),
        "total_ms_per_step" => Some(row.total_ms_per_step),
        "init_ms" => Some(row.stage_ms[0]),
        "initial_calc_ms" => Some(row.stage_ms[1]),
        "tour_ms" => Some(row.stage_ms[2]),
        "movement_ms" => Some(row.stage_ms[3]),
        "lifecycle_ms" => Some(row.stage_ms[4]),
        "metrics_ms" => Some(row.stage_ms[5]),
        "setup_s" => Some(row.setup_s),
        _ => None,
    }
}

/// Outcome of checking one series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Latest value within tolerance of the baseline.
    Pass,
    /// Fewer than two measurements (or the KPI was not recorded) —
    /// nothing to compare, not a failure.
    Insufficient,
    /// Latest value drifted beyond tolerance in a bad direction.
    Regression,
}

/// One series' comparison result.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The series compared ([`Row::series_key`]).
    pub series: String,
    /// KPI compared.
    pub kpi: String,
    /// Mean of the predecessor measurements (`None` when insufficient).
    pub baseline: Option<f64>,
    /// Newest measurement (`None` when the KPI was not recorded).
    pub latest: Option<f64>,
    /// Allowed drift at this baseline (`None` when insufficient).
    pub allowance: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

impl CheckOutcome {
    /// A one-line human rendering for `registry_query` output.
    pub fn describe(&self) -> String {
        match self.verdict {
            Verdict::Insufficient => {
                format!("{:<12} {}  insufficient history", self.kpi, self.series)
            }
            _ => {
                let b = self.baseline.unwrap_or(f64::NAN);
                let l = self.latest.unwrap_or(f64::NAN);
                let a = self.allowance.unwrap_or(f64::NAN);
                let tag = if self.verdict == Verdict::Pass {
                    "ok"
                } else {
                    "REGRESSION"
                };
                format!(
                    "{:<12} {}  baseline {b:.4}  latest {l:.4}  allowed drift {a:.4}  {tag}",
                    self.kpi, self.series
                )
            }
        }
    }
}

/// Compare the newest measurement of every series against the mean of
/// its up-to-`last - 1` predecessors (taken from the newest `last` rows
/// of the series). Series with fewer than two usable measurements are
/// reported as [`Verdict::Insufficient`], which is not a failure —
/// fresh benchmarks must be able to enter the registry.
pub fn check(rows: &[Row], kpi: &str, last: usize) -> Vec<CheckOutcome> {
    let tol = tolerance_for(kpi);
    let mut series: BTreeMap<String, Vec<&Row>> = BTreeMap::new();
    for row in rows {
        series.entry(row.series_key()).or_default().push(row);
    }
    let mut out = Vec::new();
    for (key, rows) in series {
        let window: Vec<&Row> = rows.iter().rev().take(last.max(2)).rev().copied().collect();
        let values: Vec<Option<f64>> = window.iter().map(|r| kpi_value(r, kpi)).collect();
        let latest = values.last().copied().flatten();
        let prior: Vec<f64> = values[..values.len().saturating_sub(1)]
            .iter()
            .copied()
            .flatten()
            .collect();
        let (verdict, baseline, allowance) = match (latest, prior.is_empty(), tol) {
            (None, _, _) | (_, true, _) | (_, _, None) => (Verdict::Insufficient, None, None),
            (Some(l), false, Some(t)) => {
                let b = prior.iter().sum::<f64>() / prior.len() as f64;
                let a = t.allowance(b);
                let regressed = match t.direction {
                    Direction::HigherIsBetter => l < b - a,
                    Direction::LowerIsBetter => l > b + a,
                    Direction::TwoSided => (l - b).abs() > a,
                };
                let v = if regressed {
                    Verdict::Regression
                } else {
                    Verdict::Pass
                };
                (v, Some(b), Some(a))
            }
        };
        out.push(CheckOutcome {
            series: key,
            kpi: kpi.to_owned(),
            baseline,
            latest,
            allowance,
            verdict,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(steps_per_sec: f64, segregation: Option<f64>) -> Row {
        Row {
            schema: SCHEMA.to_owned(),
            config: "00c0ffee00c0ffee".to_owned(),
            commit: "abc123abc123".to_owned(),
            scale: "smoke".to_owned(),
            bench: "step_throughput".to_owned(),
            world: "paper_corridor".to_owned(),
            engine: "scalar".to_owned(),
            backend: "scalar".to_owned(),
            threads: 1,
            model: "pso".to_owned(),
            seed: 42,
            agents: 64,
            steps: 128,
            flux: 1.5,
            bands: Some(2.0),
            segregation,
            gridlock_risk: Some(0.0),
            steps_per_sec,
            total_ms_per_step: 0.8,
            stage_ms: [0.01, 0.2, 0.3, 0.2, 0.05, 0.04],
            setup_s: 0.002,
        }
    }

    #[test]
    fn csv_roundtrip_preserves_every_field() {
        let r = row(1234.5, Some(0.75));
        let parsed = Row::parse(&r.csv_line()).expect("parse");
        assert_eq!(parsed, r);
        // Absent optionals render as empty columns and survive too.
        let r = row(10.0, None);
        let parsed = Row::parse(&r.csv_line()).expect("parse");
        assert_eq!(parsed, r);
    }

    #[test]
    fn header_and_malformed_lines_do_not_parse() {
        assert!(Row::parse(HEADER).is_none());
        assert!(Row::parse("not,a,row").is_none());
        assert_eq!(HEADER.split(',').count(), COLUMNS);
    }

    #[test]
    fn deterministic_prefix_excludes_wall_columns() {
        let prefix = row(999.0, Some(0.5)).deterministic_prefix();
        assert_eq!(prefix.split(',').count(), DETERMINISTIC_COLUMNS);
        assert!(prefix.contains("00c0ffee00c0ffee"));
        assert!(!prefix.contains("999"));
    }

    #[test]
    fn append_writes_header_exactly_once() {
        let dir = std::env::temp_dir().join("pedsim_obs_registry_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results").join("registry.csv");
        append(&path, &[row(100.0, Some(0.5))]).unwrap();
        append(&path, &[row(101.0, Some(0.5))]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("schema,").count(), 1);
        let rows = load(&path).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].steps_per_sec, 100.0);
        assert_eq!(rows[1].steps_per_sec, 101.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_passes_within_tolerance_and_flags_a_big_drop() {
        // steps_per_sec tolerates a 50% relative drop.
        let fine = vec![row(100.0, None), row(60.0, None)];
        let out = check(&fine, "steps_per_sec", 5);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].verdict, Verdict::Pass);

        let bad = vec![row(100.0, None), row(40.0, None)];
        let out = check(&bad, "steps_per_sec", 5);
        assert_eq!(out[0].verdict, Verdict::Regression);
        assert_eq!(out[0].baseline, Some(100.0));

        // An *increase* is never a steps_per_sec regression.
        let faster = vec![row(100.0, None), row(400.0, None)];
        assert_eq!(check(&faster, "steps_per_sec", 5)[0].verdict, Verdict::Pass);
    }

    #[test]
    fn deterministic_kpis_are_two_sided_and_exact() {
        let drift = vec![row(100.0, Some(0.5)), row(100.0, Some(0.5000001))];
        let out = check(&drift, "segregation", 5);
        assert_eq!(out[0].verdict, Verdict::Regression);
        let exact = vec![row(100.0, Some(0.5)), row(90.0, Some(0.5))];
        assert_eq!(check(&exact, "segregation", 5)[0].verdict, Verdict::Pass);
    }

    #[test]
    fn single_row_and_missing_kpi_are_insufficient_not_failures() {
        let one = vec![row(100.0, None)];
        assert_eq!(
            check(&one, "steps_per_sec", 5)[0].verdict,
            Verdict::Insufficient
        );
        // KPI never recorded in the series.
        let none = vec![row(100.0, None), row(100.0, None)];
        assert_eq!(
            check(&none, "segregation", 5)[0].verdict,
            Verdict::Insufficient
        );
        // Unknown KPI has no tolerance entry.
        assert_eq!(
            check(&none, "not_a_kpi", 5)[0].verdict,
            Verdict::Insufficient
        );
    }

    #[test]
    fn check_windows_to_the_requested_history() {
        // Ancient slow rows outside the `last` window must not drag the
        // baseline down.
        let rows = vec![row(10.0, None), row(100.0, None), row(100.0, None)];
        let out = check(&rows, "steps_per_sec", 2);
        // Window = newest 2 rows: baseline 100, latest 100 -> pass.
        assert_eq!(out[0].baseline, Some(100.0));
        assert_eq!(out[0].verdict, Verdict::Pass);
    }

    #[test]
    fn setup_s_gate_tolerates_cache_mixes_but_flags_blowups() {
        // A cached run following a cold run is a huge relative *drop* —
        // always fine (LowerIsBetter).
        let mut cold = row(100.0, None);
        cold.setup_s = 0.04;
        let mut warm = row(100.0, None);
        warm.setup_s = 0.0001;
        assert_eq!(
            check(&[cold.clone(), warm.clone()], "setup_s", 5)[0].verdict,
            Verdict::Pass
        );
        // The reverse order (cold appended after warm) stays inside the
        // wide band thanks to the absolute floor.
        assert_eq!(
            check(&[warm.clone(), cold.clone()], "setup_s", 5)[0].verdict,
            Verdict::Pass
        );
        // A gross blow-up — compilation re-entering the replica path —
        // still trips the gate.
        let mut blown = row(100.0, None);
        blown.setup_s = 1.5;
        assert_eq!(
            check(&[cold, blown], "setup_s", 5)[0].verdict,
            Verdict::Regression
        );
    }

    #[test]
    fn tolerance_table_covers_every_kpi() {
        for kpi in KPIS {
            assert!(tolerance_for(kpi).is_some(), "no tolerance for {kpi}");
            assert!(kpi_value(&row(1.0, Some(0.5)), kpi).is_some());
        }
        assert!(tolerance_for("bogus").is_none());
    }
}
