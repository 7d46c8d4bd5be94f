//! Panic alarm (§VII future work): "introduce a panic alarm to emulate
//! some sort of crisis situation".
//!
//! At a trigger step the population's decision parameters change: LEM
//! agents draw with an inflated σ (more erratic rank choices), ACO agents
//! lose trust in trails (α scaled down) and overweight goal distance
//! (β scaled up). The alarm swaps the model through
//! [`Engine::set_model`], which every backend has, boxed registry
//! engines included, and every backend re-reads its model parameters
//! every step. So the alarm is a pure parameter overlay: determinism and
//! agreement across backends are preserved through the switch.

use crate::engine::Engine;
use crate::params::ModelKind;

/// How the alarm distorts behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PanicParams {
    /// Step at which the alarm fires.
    pub trigger_step: u64,
    /// LEM: σ is multiplied by this (≥ 1 = more erratic).
    pub sigma_factor: f64,
    /// ACO: α (trail trust) is multiplied by this (≤ 1 = panic ignores
    /// predecessors).
    pub alpha_factor: f32,
    /// ACO: β (goal urgency) is multiplied by this (≥ 1 = flight reflex).
    pub beta_factor: f32,
}

impl Default for PanicParams {
    fn default() -> Self {
        Self {
            trigger_step: 0,
            sigma_factor: 3.0,
            alpha_factor: 0.0,
            beta_factor: 2.0,
        }
    }
}

/// The alarm driver.
#[derive(Debug, Clone, Copy)]
pub struct PanicAlarm {
    /// Alarm parameters.
    pub params: PanicParams,
}

impl PanicAlarm {
    /// An alarm with the given parameters.
    pub fn new(params: PanicParams) -> Self {
        Self { params }
    }

    /// The post-alarm version of `model`.
    pub fn panicked_model(&self, model: ModelKind) -> ModelKind {
        match model {
            ModelKind::Lem(mut p) => {
                p.sigma *= self.params.sigma_factor;
                ModelKind::Lem(p)
            }
            ModelKind::Aco(mut p) => {
                p.alpha *= self.params.alpha_factor;
                p.beta *= self.params.beta_factor;
                ModelKind::Aco(p)
            }
        }
    }

    /// Run `engine` for `total_steps`, firing the alarm at
    /// `params.trigger_step` (clamped to the run length).
    pub fn run<E: Engine + ?Sized>(&self, engine: &mut E, total_steps: u64) {
        let trigger = self.params.trigger_step.min(total_steps);
        engine.run(trigger);
        engine
            .set_model(self.panicked_model(engine.model()))
            .expect("the panicked model keeps the running variant, tau0 and rho");
        engine.run(total_steps - trigger);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::cpu::CpuEngine;
    use crate::params::{AcoParams, LemParams, SimConfig};
    use pedsim_grid::EnvConfig;

    fn cfg(model: ModelKind, seed: u64) -> SimConfig {
        SimConfig::new(EnvConfig::small(32, 32, 30).with_seed(seed), model).with_checked(true)
    }

    #[test]
    fn panicked_model_scales_parameters() {
        let alarm = PanicAlarm::new(PanicParams {
            trigger_step: 10,
            sigma_factor: 3.0,
            alpha_factor: 0.0,
            beta_factor: 2.0,
        });
        match alarm.panicked_model(ModelKind::Lem(LemParams::default())) {
            ModelKind::Lem(p) => assert!((p.sigma - 3.0).abs() < 1e-12),
            _ => panic!("kind changed"),
        }
        match alarm.panicked_model(ModelKind::Aco(AcoParams::default())) {
            ModelKind::Aco(p) => {
                assert_eq!(p.alpha, 0.0);
                assert!((p.beta - 4.0).abs() < 1e-6);
            }
            _ => panic!("kind changed"),
        }
    }

    #[test]
    fn alarm_changes_trajectory() {
        let alarm = PanicAlarm::new(PanicParams {
            trigger_step: 5,
            sigma_factor: 8.0,
            alpha_factor: 0.0,
            beta_factor: 1.0,
        });
        let mut panicked = CpuEngine::new(cfg(ModelKind::lem(), 9));
        alarm.run(&mut panicked, 40);
        let mut calm = CpuEngine::new(cfg(ModelKind::lem(), 9));
        calm.run(40);
        assert_ne!(panicked.mat_snapshot(), calm.mat_snapshot());
        panicked
            .environment()
            .check_consistency()
            .expect("panic keeps the world consistent");
    }

    /// Every engine runs the alarm bit-identically to `scalar`: the
    /// oracle and every selection `engines_agree` holds to it, each as a
    /// registry-built `Box<dyn Engine>`.
    #[test]
    fn engines_agree_through_the_alarm() {
        let alarm = PanicAlarm::new(PanicParams {
            trigger_step: 8,
            sigma_factor: 1.0,
            alpha_factor: 0.2,
            beta_factor: 2.0,
        });
        let (mut oracle, held) = crate::validate::held_engines(&cfg(ModelKind::aco(), 13));
        alarm.run(&mut oracle, 25);
        for ((backend, mode), mut e) in held {
            alarm.run(&mut e, 25);
            let name = format!("{backend}/{}", mode.name());
            assert_eq!(oracle.mat_snapshot(), e.mat_snapshot(), "{name}");
            assert_eq!(oracle.positions(), e.positions(), "{name}");
        }
    }
}
