//! Cross-engine validation (the strong form of the paper's §VI check).
//!
//! The paper compares CPU and GPU runs statistically ("Comparing the
//! solution obtained from CPU and GPU is a viable way to begin to establish
//! consistency of the implementation"). Counter-based randomness lets this
//! reproduction do better: every engine must agree with the `scalar`
//! oracle **exactly**, cell for cell. [`selections`] is the one list of
//! registry selections held to that oracle: `simt` on the sequential and
//! the parallel policy, and `pooled` at one to four threads in each
//! traversal. [`engines_agree`] steps them all in lockstep with the oracle
//! and compares cells, positions and throughput at each checkpoint; the
//! Figure-6b harness then layers the paper's GLM analysis on top using
//! different seeds per repeat.

use crate::engine::{Backend, Engine};
use crate::params::{IterationMode, ModelKind, SimConfig};
use crate::world::CompiledWorld;

/// A registry selection held to the `scalar` oracle: a backend with its
/// thread count, and the traversal set on its configuration. Only
/// `pooled` reads the traversal; `simt` always steps dense.
pub type Selection = (Backend, IterationMode);

/// Every selection held to the `scalar` oracle: `simt` on the sequential
/// and a four-worker policy, and `pooled` at one to four threads in each
/// traversal. Each traversal has two implementations here beside the
/// oracle's agent loops: the per-cell sweeps of `simt` and dense
/// `pooled`, and the agent loops of sparse `pooled`.
pub fn selections() -> Vec<Selection> {
    use IterationMode::{Dense, Sparse};
    let simt = [1, 4].map(|t| (Backend::named("simt", t), Dense));
    let pooled = [Dense, Sparse]
        .into_iter()
        .flat_map(|mode| (1..=4).map(move |t| (Backend::pooled(t), mode)));
    simt.into_iter().chain(pooled).collect()
}

/// The engines [`engines_agree`] compares: the `scalar` oracle, which
/// compiles its own world, and every selection in [`selections`] over one
/// shared compiled world, so a shared world is held to a private one too.
pub fn held_engines(cfg: &SimConfig) -> (Box<dyn Engine + Send>, Vec<HeldEngine>) {
    let oracle = Backend::scalar().build(cfg.clone()).expect("scalar");
    let world = CompiledWorld::compile(cfg);
    let held = selections()
        .into_iter()
        .map(|(backend, mode)| {
            let cfg = cfg.clone().with_iteration_mode(mode);
            let engine = backend
                .build_from_world(&world, cfg)
                .expect("registry backend");
            ((backend, mode), engine)
        })
        .collect();
    (oracle, held)
}

/// A selection and its engine.
pub type HeldEngine = (Selection, Box<dyn Engine + Send>);

/// Where a selection first split off from the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The selection that split off.
    pub selection: Selection,
    /// Step at which the disagreement was detected.
    pub step: u64,
    /// Human-readable description.
    pub detail: String,
}

/// Run every selection in [`selections`] beside the `scalar` oracle for
/// `steps`, comparing cells, positions and (with metrics on) throughput
/// every `check_every` steps. With `swap = Some((at, model))` every engine
/// takes `model` through [`Engine::set_model`] after `at` steps; a
/// selection that refuses it diverges. Returns the first divergence, or
/// `None` when every trajectory is the oracle's.
///
/// # Panics
/// When the swap falls after the run (`at > steps`) or the oracle
/// refuses it: a swap that never happens checks nothing.
pub fn engines_agree(
    cfg: SimConfig,
    steps: u64,
    check_every: u64,
    swap: Option<(u64, ModelKind)>,
) -> Option<Divergence> {
    let (oracle, held) = held_engines(&cfg);
    lockstep(oracle, held, steps, check_every, swap)
}

/// [`engines_agree`]'s checker over engines already built.
fn lockstep(
    mut oracle: Box<dyn Engine + Send>,
    mut held: Vec<HeldEngine>,
    steps: u64,
    check_every: u64,
    swap: Option<(u64, ModelKind)>,
) -> Option<Divergence> {
    if let Some((at, _)) = swap {
        assert!(
            at <= steps,
            "the model swap at step {at} falls after the {steps}-step run"
        );
    }
    let check_every = check_every.max(1);
    let mut done = 0u64;
    loop {
        if let Some((_, model)) = swap.filter(|&(at, _)| at == done) {
            oracle
                .set_model(model)
                .expect("the oracle accepts the model swap");
            for (selection, e) in &mut held {
                if let Err(refused) = e.set_model(model) {
                    return Some(Divergence {
                        selection: selection.clone(),
                        step: done,
                        detail: format!("model swap refused: {refused}"),
                    });
                }
            }
        }
        if done >= steps {
            return None;
        }
        let mut next = (done + check_every).min(steps);
        if let Some((at, _)) = swap.filter(|&(at, _)| at > done) {
            next = next.min(at);
        }
        oracle.run(next - done);
        for (_, e) in &mut held {
            e.run(next - done);
        }
        done = next;
        let mat = oracle.mat_snapshot();
        let positions = oracle.positions();
        let throughput = oracle.metrics().map(|m| m.throughput());
        for (selection, e) in &held {
            let detail = if e.mat_snapshot() != mat {
                "environment matrices differ".to_string()
            } else if e.positions() != positions {
                "agent positions differ".to_string()
            } else {
                match (throughput, e.metrics().map(|m| m.throughput())) {
                    (Some(t), Some(got)) if got != t => {
                        format!("throughput differs: scalar {t}, selection {got}")
                    }
                    _ => continue,
                }
            };
            return Some(Divergence {
                selection: selection.clone(),
                step: done,
                detail,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedsim_grid::EnvConfig;

    fn cfg(model: ModelKind, seed: u64) -> SimConfig {
        SimConfig::new(EnvConfig::small(32, 32, 30).with_seed(seed), model).with_checked(true)
    }

    #[test]
    fn every_selection_matches_scalar_lem() {
        assert_eq!(engines_agree(cfg(ModelKind::lem(), 21), 30, 5, None), None);
    }

    #[test]
    fn every_selection_matches_scalar_aco() {
        assert_eq!(engines_agree(cfg(ModelKind::aco(), 22), 30, 5, None), None);
    }

    /// The checker can fail: one selection run from another seed splits
    /// off, and the divergence names it.
    #[test]
    fn a_selection_from_another_config_is_named() {
        let (oracle, mut held) = held_engines(&cfg(ModelKind::lem(), 23));
        let (backend, mode) = selections()[5].clone();
        let other = cfg(ModelKind::lem(), 24).with_iteration_mode(mode);
        held[5].1 = backend.build(other).expect("registry backend");
        let d = lockstep(oracle, held, 30, 5, None).expect("a divergence");
        assert_eq!((d.selection, d.step), ((backend, mode), 5));
        assert_eq!(d.detail, "environment matrices differ");
    }

    /// A swap the oracle refuses is a broken check, not an agreement.
    #[test]
    #[should_panic(expected = "the oracle accepts the model swap")]
    fn a_refused_swap_fails_the_check() {
        engines_agree(cfg(ModelKind::lem(), 25), 2, 1, Some((1, ModelKind::aco())));
    }

    /// So does a swap that falls after the run.
    #[test]
    #[should_panic(expected = "falls after")]
    fn a_swap_after_the_run_fails_the_check() {
        engines_agree(cfg(ModelKind::lem(), 25), 2, 1, Some((3, ModelKind::lem())));
    }
}
