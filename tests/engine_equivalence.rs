//! Cross-crate integration: every selection `engines_agree` holds to the
//! `scalar` oracle (the sequential and parallel virtual GPU, pooled at one
//! to four threads in both traversals) must produce bit-identical
//! trajectories (the strong form of the paper's §VI CPU-vs-GPU
//! consistency check).

use pedsim::prelude::*;

fn config(model: ModelKind, seed: u64, per_side: usize) -> SimConfig {
    SimConfig::new(EnvConfig::small(48, 48, per_side).with_seed(seed), model).with_checked(true)
}

#[test]
fn lem_engines_agree_sparse() {
    assert_eq!(
        engines_agree(config(ModelKind::lem(), 1, 40), 60, 10, None),
        None
    );
}

#[test]
fn lem_engines_agree_dense() {
    assert_eq!(
        engines_agree(config(ModelKind::lem(), 2, 400), 40, 10, None),
        None
    );
}

#[test]
fn aco_engines_agree_sparse() {
    assert_eq!(
        engines_agree(config(ModelKind::aco(), 3, 40), 60, 10, None),
        None
    );
}

#[test]
fn aco_engines_agree_dense() {
    assert_eq!(
        engines_agree(config(ModelKind::aco(), 4, 400), 40, 10, None),
        None
    );
}

#[test]
fn agreement_holds_with_nondefault_parameters() {
    let model = ModelKind::Aco(AcoParams {
        alpha: 2.0,
        beta: 0.5,
        rho: 0.3,
        q: 2.0,
        tau0: 0.5,
        forward_priority: false,
    });
    assert_eq!(engines_agree(config(model, 5, 150), 40, 10, None), None);
}

#[test]
fn agreement_holds_with_scan_range_extension() {
    let model = ModelKind::Lem(LemParams {
        scan_range: 3,
        ..LemParams::default()
    });
    assert_eq!(engines_agree(config(model, 6, 150), 40, 10, None), None);
}

/// `engines_agree` holds `simt` at one and four workers; seven must
/// match too.
#[test]
fn worker_count_does_not_change_results() {
    let cfg = config(ModelKind::aco(), 7, 200);
    assert_eq!(engines_agree(cfg.clone(), 25, 25, None), None);
    let run = |backend: Backend| {
        let mut e = backend.build(cfg.clone()).expect("registry backend");
        e.run(25);
        (e.mat_snapshot(), e.positions())
    };
    assert_eq!(run(Backend::named("simt", 7)), run(Backend::scalar()));
}
