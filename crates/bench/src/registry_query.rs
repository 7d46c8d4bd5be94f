//! KPI queries over the results registry — the CI regression gate.
//!
//! `registry_query` reads `results/registry.csv`, groups rows into
//! series (same bench, scale, world, engine, backend, thread count,
//! model, and config fingerprint), and diffs the newest measurement of
//! each series
//! against the mean of its up-to-`last - 1` predecessors under the KPI
//! tolerance table ([`pedsim_obs::registry::tolerance_for`]). With
//! `--check`, any regression turns into a non-zero exit — the perf gate
//! CI runs after appending its own smoke records.

use std::io;
use std::path::Path;

use pedsim_obs::registry::{self, CheckOutcome, Verdict};

/// Load the registry at `path` and check `kpi` over the newest `last`
/// rows of every series.
pub fn query(path: &Path, kpi: &str, last: usize) -> io::Result<Vec<CheckOutcome>> {
    let rows = registry::load(path)?;
    Ok(registry::check(&rows, kpi, last))
}

/// Whether any series regressed.
pub fn any_regression(outcomes: &[CheckOutcome]) -> bool {
    outcomes.iter().any(|o| o.verdict == Verdict::Regression)
}

/// One-line tally over the outcomes: passed / insufficient / regressed.
pub fn summary_line(kpi: &str, outcomes: &[CheckOutcome]) -> String {
    let count = |v: Verdict| outcomes.iter().filter(|o| o.verdict == v).count();
    format!(
        "{kpi}: {} series checked — {} ok, {} insufficient history, {} regressed",
        outcomes.len(),
        count(Verdict::Pass),
        count(Verdict::Insufficient),
        count(Verdict::Regression),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedsim_obs::registry::Row;

    fn smoke_row(commit: &str, steps_per_sec: f64) -> Row {
        Row {
            schema: registry::SCHEMA.to_owned(),
            config: "00c0ffee00c0ffee".to_owned(),
            commit: commit.to_owned(),
            scale: "smoke".to_owned(),
            bench: "step_throughput".to_owned(),
            world: "paper_corridor".to_owned(),
            engine: "simt".to_owned(),
            backend: "simt".to_owned(),
            threads: 1,
            model: "ACO".to_owned(),
            seed: 9_300,
            agents: 60,
            steps: 120,
            flux: 1.2,
            bands: Some(2.0),
            segregation: Some(0.6),
            gridlock_risk: Some(0.0),
            steps_per_sec,
            total_ms_per_step: 1.0,
            stage_ms: [0.1; 6],
            setup_s: 0.001,
        }
    }

    #[test]
    fn two_smoke_runs_diff_and_an_injected_regression_fails_the_gate() {
        let dir = std::env::temp_dir().join("pedsim_bench_registry_query_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("registry.csv");

        // Two healthy smoke runs at different commits: the gate passes.
        registry::append(&path, &[smoke_row("commit000001", 1000.0)]).unwrap();
        registry::append(&path, &[smoke_row("commit000002", 900.0)]).unwrap();
        let outcomes = query(&path, "steps_per_sec", 2).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].verdict, Verdict::Pass);
        assert_eq!(outcomes[0].baseline, Some(1000.0));
        assert_eq!(outcomes[0].latest, Some(900.0));
        assert!(!any_regression(&outcomes));
        assert!(summary_line("steps_per_sec", &outcomes).contains("1 ok"));

        // Inject a >50% throughput collapse: the gate must trip.
        registry::append(&path, &[smoke_row("commit000003", 100.0)]).unwrap();
        let outcomes = query(&path, "steps_per_sec", 2).unwrap();
        assert_eq!(outcomes[0].verdict, Verdict::Regression);
        assert!(any_regression(&outcomes));
        assert!(summary_line("steps_per_sec", &outcomes).contains("1 regressed"));

        // The deterministic physics gate is exact: a drifted segregation
        // value regresses even though throughput would tolerate it.
        let mut drifted = smoke_row("commit000004", 95.0);
        drifted.segregation = Some(0.7);
        registry::append(&path, &[drifted]).unwrap();
        let outcomes = query(&path, "segregation", 2).unwrap();
        assert!(any_regression(&outcomes));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_registry_is_an_io_error() {
        assert!(query(Path::new("/nonexistent/registry.csv"), "flux", 5).is_err());
    }
}
