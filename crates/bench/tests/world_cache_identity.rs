//! The world cache changes setup time only, never physics: the smoke
//! fundamental-diagram ladder run with every world compiled cold and run
//! through the cache must agree byte for byte, per replica, on the
//! registry's deterministic columns (config fingerprint through
//! `gridlock_risk`) and on the deterministic batch report.

use pedsim_bench::fundamental_diagram::{run_report, FdConfig};
use pedsim_bench::scale::Scale;

#[test]
fn world_cache_leaves_fundamental_diagram_physics_unchanged() {
    let cfg = FdConfig::for_scale(Scale::Smoke);
    let cold = run_report(&cfg, 2, false);
    let cached = run_report(&cfg, 2, true);

    let prefixes = |report: &pedsim_runner::BatchReport| -> Vec<String> {
        report
            .results
            .iter()
            .map(|r| {
                r.registry_row("fundamental_diagram", Scale::Smoke.label(), "test")
                    .deterministic_prefix()
            })
            .collect()
    };
    let cold_rows = prefixes(&cold);
    assert_eq!(cold_rows.len(), cfg.rates.len() * cfg.repeats as usize);
    assert_eq!(
        cold_rows,
        prefixes(&cached),
        "physics diverged under the world cache"
    );
    assert_eq!(cold.to_json(), cached.to_json());
}
