//! Determinism guard for the observability surface (tier-2).
//!
//! The telemetry journal and the results registry split every record
//! into a deterministic body and a wall-clock tail. This test pins the
//! deterministic half: canonical journal lines and registry-row
//! deterministic prefixes must be **byte-identical** across repeat runs
//! of the same configuration and across pool worker counts — the same
//! guarantee `BatchReport::to_json` already gives, extended to the new
//! sinks.

use pedsim::obs::journal;
use pedsim::prelude::*;
use pedsim::runner::{Batch, Job};
use pedsim::scenario::registry;

/// A small mixed batch: classic closed corridor on both engines plus an
/// open-boundary scenario world, several seeds each.
fn jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for seed in [3, 4] {
        let env = EnvConfig::small(24, 24, 12).with_seed(seed);
        let cfg = SimConfig::new(env, ModelKind::lem());
        jobs.push(Job::backend(
            format!("closed/s{seed}/scalar"),
            cfg.clone(),
            Backend::scalar(),
            StopCondition::Steps(40),
        ));
        jobs.push(Job::backend(
            format!("closed/s{seed}/simt"),
            cfg,
            Backend::simt(),
            StopCondition::Steps(40),
        ));
        let open = registry::open_corridor(24, 24, 30, 1.5).with_seed(seed);
        jobs.push(Job::backend(
            format!("open/s{seed}"),
            SimConfig::from_scenario(&open, ModelKind::aco()),
            Backend::simt(),
            StopCondition::Steps(40),
        ));
    }
    jobs
}

fn canonical_journal(report: &pedsim::runner::BatchReport) -> Vec<String> {
    report
        .results
        .iter()
        .map(|r| journal::canonical(&r.journal_record().line()))
        .collect()
}

fn registry_prefixes(report: &pedsim::runner::BatchReport) -> Vec<String> {
    report
        .results
        .iter()
        .map(|r| {
            r.registry_row("guard", "smoke", "commit0fixed")
                .deterministic_prefix()
        })
        .collect()
}

#[test]
fn journal_and_registry_are_byte_identical_across_runs_and_worker_counts() {
    let pool1 = Batch::new(1);
    let a = pool1.run(&jobs());
    let b = pool1.run(&jobs()); // repeat, same worker count
    let c = Batch::new(4).run(&jobs()); // different worker count

    let ja = canonical_journal(&a);
    assert_eq!(ja, canonical_journal(&b), "journal drifted across repeats");
    assert_eq!(
        ja,
        canonical_journal(&c),
        "journal drifted across worker counts"
    );
    // Canonicalisation really did strip the (noisy) wall tail.
    for line in &ja {
        assert!(!line.contains("\"wall\""), "wall tail leaked: {line}");
        assert!(line.starts_with("{\"schema\": \"pedsim.run.v1\""));
    }

    let ra = registry_prefixes(&a);
    assert_eq!(
        ra,
        registry_prefixes(&b),
        "registry rows drifted across repeats"
    );
    assert_eq!(
        ra,
        registry_prefixes(&c),
        "registry rows drifted across worker counts"
    );
    // Every prefix carries a full 16-hex-char config fingerprint.
    for prefix in &ra {
        let config = prefix.split(',').nth(1).expect("config column");
        assert_eq!(config.len(), 16, "bad fingerprint in {prefix}");
        assert!(config.chars().all(|c| c.is_ascii_hexdigit()));
    }
}

#[test]
fn order_parameters_report_through_the_batch_surface() {
    let report = Batch::new(2).run(&jobs());
    for r in &report.results {
        // Metrics are on for every job, so the order parameters are
        // always measured; the gridlock gauge needs the full 64-step
        // window, which these 40-step runs never reach.
        assert!(r.bands.is_some(), "{}: no band count", r.label);
        assert!(r.segregation.is_some(), "{}: no segregation", r.label);
        let s = r.segregation.expect("checked");
        assert!((0.0..=1.0).contains(&s), "{}: segregation {s}", r.label);
        assert_eq!(r.gridlock_risk, None, "{}: risk before window", r.label);
    }
    // CPU and GPU agree on the deterministic observables (bit-identical
    // trajectories ⇒ identical final configurations).
    for seed in [3, 4] {
        let cpu = report
            .results
            .iter()
            .find(|r| r.label == format!("closed/s{seed}/scalar"))
            .expect("cpu row");
        let gpu = report
            .results
            .iter()
            .find(|r| r.label == format!("closed/s{seed}/simt"))
            .expect("gpu row");
        assert_eq!(cpu.bands, gpu.bands);
        assert_eq!(cpu.segregation, gpu.segregation);
        assert_eq!(cpu.config, gpu.config, "config hash must be engine-free");
    }
}

#[test]
fn gridlock_gauge_engages_once_the_window_fills() {
    // Run past the 64-step warning window: the gauge must report a
    // value (possibly 0.0) instead of None.
    let env = EnvConfig::small(24, 24, 12).with_seed(7);
    let job = Job::backend(
        "long",
        SimConfig::new(env, ModelKind::lem()),
        Backend::simt(),
        StopCondition::Steps(80),
    );
    let report = Batch::new(1).run(&[job]);
    let r = &report.results[0];
    let risk = r.gridlock_risk.expect("window filled");
    assert!((0.0..=1.0).contains(&risk), "risk {risk} out of range");
}
