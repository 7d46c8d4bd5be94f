//! Stop conditions: declarative "when is this run over?" predicates.
//!
//! The paper's evaluation runs every simulation to a fixed 25,000-step
//! budget, long after the interesting dynamics are finished — at low
//! density every agent has crossed within a few hundred steps, and past
//! 51,200 agents the crowd gridlocks and nothing changes for the rest of
//! the budget. [`StopCondition`] makes the termination rule part of the
//! run description so sweeps can exit early without changing any measured
//! number: throughput is sticky and capped, so a run stopped at
//! [`StopReason::AllArrived`] reports exactly the throughput it would have
//! reported at the end of the step budget.
//!
//! Conditions are evaluated **between** steps (before the first one, after
//! every subsequent one), purely from the engine's observable state
//! (`steps_done`, [`Metrics`]) — no hidden evaluator state, so the same
//! trajectory always stops at the same step with the same reason,
//! regardless of host, schedule, or batch worker count.

use crate::metrics::{Metrics, MAX_FLUX_WINDOW, MAX_GRIDLOCK_PATIENCE};

/// Why a [`StopCondition`] is rejected by [`StopCondition::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidStopCondition {
    /// A `Gridlocked` patience longer than the movement history the
    /// metrics retain — it could never be evaluated and would panic deep
    /// inside the engine loop instead of at configuration time.
    PatienceExceedsRetention {
        /// The requested patience.
        patience: u64,
        /// The retention bound ([`MAX_GRIDLOCK_PATIENCE`]).
        max: u64,
    },
    /// A `SteadyState` window outside the evaluable range: the two halves
    /// each need at least one step, and the metrics only retain
    /// [`MAX_FLUX_WINDOW`] steps of flux history.
    FluxWindowOutOfRange {
        /// The requested window.
        window: u64,
        /// The retention bound ([`MAX_FLUX_WINDOW`]).
        max: u64,
    },
    /// A `SteadyState` epsilon that is negative, NaN, or infinite — the
    /// flux-variation comparison could never be meaningful.
    InvalidEpsilon,
    /// A metric-based condition on a run whose engine was built with
    /// `track_metrics` off — it could never fire, and evaluating it
    /// mid-run used to panic deep inside [`StopCondition::check`].
    /// Caught by [`StopCondition::validate_for`] at `run_until` entry
    /// (and at batch construction) instead.
    RequiresMetrics {
        /// Stable name of the offending condition
        /// ([`crate::engine::StopReason::name`] vocabulary).
        condition: &'static str,
    },
}

impl std::fmt::Display for InvalidStopCondition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PatienceExceedsRetention { patience, max } => write!(
                f,
                "gridlock patience {patience} exceeds the retained movement \
                 history ({max} steps)"
            ),
            Self::FluxWindowOutOfRange { window, max } => write!(
                f,
                "steady-state window {window} outside the evaluable range \
                 2..={max}"
            ),
            Self::InvalidEpsilon => {
                write!(f, "steady-state epsilon must be finite and non-negative")
            }
            Self::RequiresMetrics { condition } => write!(
                f,
                "stop condition {condition:?} requires metrics: build the \
                 engine with SimConfig::track_metrics on"
            ),
        }
    }
}

impl std::error::Error for InvalidStopCondition {}

/// When to stop a run. Composable via [`StopCondition::FirstOf`].
#[derive(Debug, Clone, PartialEq)]
pub enum StopCondition {
    /// Stop once `steps_done` reaches the budget (the paper's protocol).
    Steps(u64),
    /// Stop once every agent has reached its target region. Requires
    /// metrics tracking. Never fires on an open-boundary world (the
    /// inflow never finishes) — compose a `Steps` cap.
    AllArrived,
    /// Stop once fewer than `threshold` agents moved in each of the last
    /// `patience` consecutive steps while not everyone has arrived (the
    /// paper's "total gridlock" regime). Requires metrics tracking.
    Gridlocked {
        /// Moves-per-step floor below which a step counts as frozen.
        threshold: usize,
        /// Consecutive frozen steps required before declaring gridlock
        /// (≤ [`crate::metrics::MAX_GRIDLOCK_PATIENCE`]).
        patience: u64,
    },
    /// Stop once the windowed flux has settled: the last `window` steps
    /// are fully observed, saw at least one crossing, and the mean flux of
    /// the window's two halves differs by at most `epsilon` (crossings per
    /// step). The steady-state detector for open-boundary worlds; requires
    /// metrics tracking.
    SteadyState {
        /// Largest allowed half-to-half flux difference, in crossings per
        /// step.
        epsilon: f64,
        /// Steps of flux history compared
        /// (2..=[`crate::metrics::MAX_FLUX_WINDOW`]).
        window: u64,
    },
    /// Stop when any member condition fires; the **first** (in list
    /// order) that matches supplies the [`StopReason`].
    FirstOf(Vec<StopCondition>),
}

/// Why a [`StopCondition`]-driven run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The step budget was exhausted.
    StepBudget,
    /// Every agent reached its target region.
    AllArrived,
    /// The crowd froze for the configured patience window.
    Gridlocked,
    /// The windowed flux settled within epsilon.
    SteadyState,
}

impl StopReason {
    /// Stable lower-case name for reports and JSON serialization.
    pub fn name(self) -> &'static str {
        match self {
            StopReason::StepBudget => "step_budget",
            StopReason::AllArrived => "all_arrived",
            StopReason::Gridlocked => "gridlocked",
            StopReason::SteadyState => "steady_state",
        }
    }
}

impl StopCondition {
    /// The common sweep rule: stop when everyone has arrived, else at the
    /// step budget.
    pub fn arrived_or_steps(steps: u64) -> Self {
        StopCondition::FirstOf(vec![StopCondition::AllArrived, StopCondition::Steps(steps)])
    }

    /// The full early-exit rule: arrival, gridlock, or the step budget —
    /// whichever comes first.
    pub fn settled_or_steps(steps: u64, threshold: usize, patience: u64) -> Self {
        StopCondition::FirstOf(vec![
            StopCondition::AllArrived,
            StopCondition::Gridlocked {
                threshold,
                patience,
            },
            StopCondition::Steps(steps),
        ])
    }

    /// The open-boundary sweep rule: stop when the flux settles, else at
    /// the step budget (arrival never fires on an open world).
    pub fn steady_or_steps(steps: u64, epsilon: f64, window: u64) -> Self {
        StopCondition::FirstOf(vec![
            StopCondition::SteadyState { epsilon, window },
            StopCondition::Steps(steps),
        ])
    }

    /// Check the condition's *parameters* (recursively through
    /// [`StopCondition::FirstOf`]) without an engine: a `Gridlocked`
    /// patience beyond [`MAX_GRIDLOCK_PATIENCE`] can never be evaluated,
    /// so callers that accept run descriptions (the batch runner) reject
    /// it here — at construction, with a typed error — instead of letting
    /// a worker thread panic mid-batch.
    pub fn validate(&self) -> Result<(), InvalidStopCondition> {
        match self {
            StopCondition::Gridlocked { patience, .. } if *patience > MAX_GRIDLOCK_PATIENCE => {
                Err(InvalidStopCondition::PatienceExceedsRetention {
                    patience: *patience,
                    max: MAX_GRIDLOCK_PATIENCE,
                })
            }
            StopCondition::SteadyState { window, .. }
                if !(2..=MAX_FLUX_WINDOW).contains(window) =>
            {
                Err(InvalidStopCondition::FluxWindowOutOfRange {
                    window: *window,
                    max: MAX_FLUX_WINDOW,
                })
            }
            StopCondition::SteadyState { epsilon, .. }
                if !epsilon.is_finite() || *epsilon < 0.0 =>
            {
                Err(InvalidStopCondition::InvalidEpsilon)
            }
            StopCondition::FirstOf(conds) => conds.iter().try_for_each(StopCondition::validate),
            _ => Ok(()),
        }
    }

    /// The first metric-dependent member (recursively through
    /// [`StopCondition::FirstOf`]), by stable stop-reason name — `None`
    /// when the condition reads only `steps_done`.
    pub fn requires_metrics(&self) -> Option<&'static str> {
        match self {
            StopCondition::Steps(_) => None,
            StopCondition::AllArrived => Some(StopReason::AllArrived.name()),
            StopCondition::Gridlocked { .. } => Some(StopReason::Gridlocked.name()),
            StopCondition::SteadyState { .. } => Some(StopReason::SteadyState.name()),
            StopCondition::FirstOf(conds) => conds.iter().find_map(StopCondition::requires_metrics),
        }
    }

    /// [`StopCondition::validate`] plus the engine-capability check: with
    /// `track_metrics` off, a metric-based member could never fire, so the
    /// run would either loop forever or panic mid-step. Engines call this
    /// at `run_until` entry and the batch runner at job validation — the
    /// same typed-error-at-the-door pattern as the parameter checks.
    pub fn validate_for(&self, track_metrics: bool) -> Result<(), InvalidStopCondition> {
        self.validate()?;
        if !track_metrics {
            if let Some(condition) = self.requires_metrics() {
                return Err(InvalidStopCondition::RequiresMetrics { condition });
            }
        }
        Ok(())
    }

    /// Whether the condition is satisfied for an engine that has run
    /// `steps_done` steps with the given metrics, and if so, why.
    ///
    /// `AllArrived` and `Gridlocked` read [`Metrics`]; evaluating them on
    /// an engine built with `track_metrics` off is a caller bug and
    /// panics (the condition could otherwise never fire and the run would
    /// never stop).
    pub fn check(&self, steps_done: u64, metrics: Option<&Metrics>) -> Option<StopReason> {
        let need_metrics = || {
            metrics.expect("AllArrived/Gridlocked stop conditions require SimConfig::track_metrics")
        };
        match self {
            StopCondition::Steps(budget) => {
                (steps_done >= *budget).then_some(StopReason::StepBudget)
            }
            StopCondition::AllArrived => need_metrics()
                .all_arrived()
                .then_some(StopReason::AllArrived),
            StopCondition::Gridlocked {
                threshold,
                patience,
            } => need_metrics()
                .is_gridlocked(*threshold, *patience)
                .then_some(StopReason::Gridlocked),
            StopCondition::SteadyState { epsilon, window } => need_metrics()
                .is_steady(*epsilon, *window)
                .then_some(StopReason::SteadyState),
            StopCondition::FirstOf(conds) => {
                conds.iter().find_map(|c| c.check(steps_done, metrics))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Geometry;

    fn metrics_after_freeze(steps: usize) -> Metrics {
        let geom = Geometry::with_groups(16, 16, &[2, 2]);
        let mut m = Metrics::new(geom, crate::metrics::band_mask(&geom, 3), 256);
        for _ in 0..steps {
            m.observe([], &[0, 81, 82, 161, 162]);
        }
        m
    }

    #[test]
    fn steps_fires_at_budget() {
        let c = StopCondition::Steps(10);
        assert_eq!(c.check(9, None), None);
        assert_eq!(c.check(10, None), Some(StopReason::StepBudget));
        assert_eq!(c.check(11, None), Some(StopReason::StepBudget));
    }

    #[test]
    fn gridlock_respects_patience() {
        let c = StopCondition::Gridlocked {
            threshold: 1,
            patience: 3,
        };
        let m2 = metrics_after_freeze(2);
        assert_eq!(c.check(2, Some(&m2)), None);
        let m3 = metrics_after_freeze(3);
        assert_eq!(c.check(3, Some(&m3)), Some(StopReason::Gridlocked));
    }

    #[test]
    fn first_of_reports_first_match_in_list_order() {
        let m = metrics_after_freeze(5);
        let c = StopCondition::FirstOf(vec![
            StopCondition::AllArrived,
            StopCondition::Gridlocked {
                threshold: 1,
                patience: 2,
            },
            StopCondition::Steps(5),
        ]);
        // Both gridlock and the budget hold at step 5; gridlock is listed
        // first among the satisfied members.
        assert_eq!(c.check(5, Some(&m)), Some(StopReason::Gridlocked));
    }

    #[test]
    #[should_panic(expected = "track_metrics")]
    fn metric_conditions_without_metrics_panic() {
        let _ = StopCondition::AllArrived.check(0, None);
    }

    #[test]
    fn reason_names_are_stable() {
        assert_eq!(StopReason::StepBudget.name(), "step_budget");
        assert_eq!(StopReason::AllArrived.name(), "all_arrived");
        assert_eq!(StopReason::Gridlocked.name(), "gridlocked");
        assert_eq!(StopReason::SteadyState.name(), "steady_state");
    }

    #[test]
    fn validate_rejects_bad_steady_state_parameters() {
        use crate::metrics::MAX_FLUX_WINDOW;
        let ok = StopCondition::steady_or_steps(100, 0.5, 32);
        assert_eq!(ok.validate(), Ok(()));
        for window in [0u64, 1, MAX_FLUX_WINDOW + 1] {
            let bad = StopCondition::SteadyState {
                epsilon: 0.5,
                window,
            };
            assert_eq!(
                bad.validate(),
                Err(InvalidStopCondition::FluxWindowOutOfRange {
                    window,
                    max: MAX_FLUX_WINDOW,
                }),
                "window {window}"
            );
        }
        for epsilon in [-0.1, f64::NAN, f64::INFINITY] {
            let bad = StopCondition::SteadyState { epsilon, window: 8 };
            assert_eq!(bad.validate(), Err(InvalidStopCondition::InvalidEpsilon));
        }
        // Nested inside FirstOf, the same rejection surfaces.
        let nested = StopCondition::FirstOf(vec![
            StopCondition::Steps(5),
            StopCondition::SteadyState {
                epsilon: -1.0,
                window: 8,
            },
        ]);
        assert!(nested.validate().is_err());
    }

    #[test]
    fn steady_state_fires_once_flux_settles() {
        use crate::metrics::Geometry;
        let geom = Geometry::with_groups(16, 16, &[2, 2]);
        let mut m = Metrics::new(geom, crate::metrics::band_mask(&geom, 3), 256);
        let c = StopCondition::SteadyState {
            epsilon: 0.75,
            window: 4,
        };
        assert_eq!(c.check(0, Some(&m)), None);
        // One crossing per window half — sustained, settled flow. Cells
        // are linear on the 16-wide grid: row 13 starts at 208.
        m.observe([1], &[0, 208, 17, 240, 241]); // agent 1 crosses
        m.observe([], &[0, 208, 17, 240, 241]);
        m.observe([2], &[0, 208, 209, 240, 241]); // agent 2 crosses
        m.observe([], &[0, 208, 209, 240, 241]);
        assert_eq!(c.check(4, Some(&m)), Some(StopReason::SteadyState));
    }

    #[test]
    fn validate_for_flags_metric_conditions_on_metrics_off_runs() {
        // Pure step-budget conditions never need metrics.
        assert_eq!(StopCondition::Steps(10).validate_for(false), Ok(()));
        assert_eq!(StopCondition::Steps(10).requires_metrics(), None);
        // Every metric-based condition is rejected, by stable name, also
        // when nested inside FirstOf.
        let cases: [(StopCondition, &str); 4] = [
            (StopCondition::AllArrived, "all_arrived"),
            (
                StopCondition::Gridlocked {
                    threshold: 1,
                    patience: 4,
                },
                "gridlocked",
            ),
            (
                StopCondition::SteadyState {
                    epsilon: 0.5,
                    window: 8,
                },
                "steady_state",
            ),
            (StopCondition::arrived_or_steps(100), "all_arrived"),
        ];
        for (cond, name) in cases {
            assert_eq!(cond.requires_metrics(), Some(name));
            assert_eq!(
                cond.validate_for(false),
                Err(InvalidStopCondition::RequiresMetrics { condition: name })
            );
            // With metrics on, the same condition is fine.
            assert_eq!(cond.validate_for(true), Ok(()));
        }
        let msg = StopCondition::AllArrived
            .validate_for(false)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("track_metrics"), "{msg}");
        // Parameter errors still take precedence over the metrics check.
        let bad_params = StopCondition::SteadyState {
            epsilon: -1.0,
            window: 8,
        };
        assert_eq!(
            bad_params.validate_for(false),
            Err(InvalidStopCondition::InvalidEpsilon)
        );
    }

    #[test]
    fn validate_rejects_oversized_patience_recursively() {
        use crate::metrics::MAX_GRIDLOCK_PATIENCE;
        let ok = StopCondition::settled_or_steps(100, 1, MAX_GRIDLOCK_PATIENCE);
        assert_eq!(ok.validate(), Ok(()));
        let bad = StopCondition::Gridlocked {
            threshold: 1,
            patience: MAX_GRIDLOCK_PATIENCE + 1,
        };
        assert_eq!(
            bad.validate(),
            Err(InvalidStopCondition::PatienceExceedsRetention {
                patience: MAX_GRIDLOCK_PATIENCE + 1,
                max: MAX_GRIDLOCK_PATIENCE,
            })
        );
        // Nested inside FirstOf, the same rejection surfaces.
        let nested = StopCondition::FirstOf(vec![StopCondition::Steps(10), bad.clone()]);
        assert!(nested.validate().is_err());
        let msg = nested.validate().unwrap_err().to_string();
        assert!(msg.contains("exceeds the retained movement history"));
    }
}
