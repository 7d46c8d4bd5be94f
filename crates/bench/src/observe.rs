//! Shared observability plumbing for the benchmark binaries: the
//! `--journal` / `--registry` flags, and the append path from a finished
//! [`BatchReport`] into the JSONL run journal and the append-only
//! results registry.
//!
//! Every timing bench appends one registry row per replica, stamped
//! with the world-configuration fingerprint, the commit, and the scale
//! preset — the provenance the `registry_query` regression gate keys
//! on. The journal is opt-in (`--journal <path>`) and captures the full
//! per-replica record, wall-clock tail included.

use std::io;
use std::path::PathBuf;

use pedsim_obs::journal::Journal;
use pedsim_obs::{log_summary, provenance, registry};
use pedsim_runner::BatchReport;

use crate::scale::{arg_value, Scale};

/// Default registry location, relative to the working directory.
pub const DEFAULT_REGISTRY: &str = "results/registry.csv";

/// Observability sinks selected on a bench command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sinks {
    /// JSONL journal path (`--journal <path>`; absent = no journal).
    pub journal: Option<PathBuf>,
    /// Registry CSV path (`--registry <path>`, default
    /// [`DEFAULT_REGISTRY`]; `--no-registry` disables).
    pub registry: Option<PathBuf>,
}

impl Sinks {
    /// Parse the observability flags from CLI args.
    pub fn from_args(args: &[String]) -> Self {
        let journal = arg_value(args, "--journal").map(PathBuf::from);
        let registry = if args.iter().any(|a| a == "--no-registry") {
            None
        } else {
            Some(PathBuf::from(
                arg_value(args, "--registry").unwrap_or_else(|| DEFAULT_REGISTRY.to_owned()),
            ))
        };
        Self { journal, registry }
    }
}

/// Append every replica of `report` to the selected sinks: one JSONL
/// record per replica to the journal, one provenance-stamped row per
/// replica to the registry. Either sink failing is an error — a bench
/// whose record never landed must not pass its gate.
pub fn emit(sinks: &Sinks, bench: &str, scale: Scale, report: &BatchReport) -> io::Result<()> {
    if let Some(path) = &sinks.journal {
        let mut journal = Journal::open(path)?;
        for result in &report.results {
            journal.write(&result.journal_record())?;
        }
        log_summary!(
            "journaled {} runs to {}",
            report.results.len(),
            path.display()
        );
    }
    if let Some(path) = &sinks.registry {
        let commit = provenance::commit();
        let rows: Vec<registry::Row> = report
            .results
            .iter()
            .map(|r| r.registry_row(bench, scale.label(), &commit))
            .collect();
        registry::append(path, &rows)?;
        log_summary!(
            "appended {} registry rows to {}",
            rows.len(),
            path.display()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn sinks_parse_defaults_overrides_and_opt_outs() {
        let d = Sinks::from_args(&v(&[]));
        assert_eq!(d.journal, None);
        assert_eq!(d.registry, Some(PathBuf::from(DEFAULT_REGISTRY)));

        let s = Sinks::from_args(&v(&[
            "--journal",
            "/tmp/j.jsonl",
            "--registry",
            "/tmp/r.csv",
        ]));
        assert_eq!(s.journal, Some(PathBuf::from("/tmp/j.jsonl")));
        assert_eq!(s.registry, Some(PathBuf::from("/tmp/r.csv")));

        let off = Sinks::from_args(&v(&["--no-registry"]));
        assert_eq!(off.registry, None);
    }

    #[test]
    fn emit_writes_journal_lines_and_registry_rows() {
        use pedsim_runner::{Batch, Job};
        let dir = std::env::temp_dir().join("pedsim_bench_observe_test");
        let _ = std::fs::remove_dir_all(&dir);
        let sinks = Sinks {
            journal: Some(dir.join("run.jsonl")),
            registry: Some(dir.join("registry.csv")),
        };
        let env = pedsim_grid::EnvConfig::small(16, 16, 4).with_seed(2);
        let cfg = pedsim_core::params::SimConfig::new(env, pedsim_core::params::ModelKind::lem());
        let report = Batch::new(1).run(&[Job::backend(
            "t",
            cfg,
            pedsim_core::engine::Backend::simt(),
            pedsim_core::engine::StopCondition::Steps(10),
        )]);
        emit(&sinks, "observe_test", Scale::Smoke, &report).expect("emit");
        let journal = std::fs::read_to_string(dir.join("run.jsonl")).unwrap();
        assert_eq!(journal.lines().count(), 1);
        assert!(journal.contains("\"schema\": \"pedsim.run.v1\""));
        let rows = registry::load(&dir.join("registry.csv")).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].bench, "observe_test");
        assert_eq!(rows[0].scale, "smoke");
        assert_eq!(rows[0].config.len(), 16);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
