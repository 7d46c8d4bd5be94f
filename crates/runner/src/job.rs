//! Job descriptions: one independent replica per [`Job`].

use pedsim_core::engine::{Backend, InvalidStopCondition, StopCondition, UnknownBackend};
use pedsim_core::params::{InvalidModel, SimConfig};
use pedsim_scenario::ScenarioError;
use std::sync::Arc;

/// Why a [`Job`] is rejected before execution.
///
/// Caught at batch construction — the alternative is a panic deep inside
/// a `WorkerPool` worker mid-batch, long after the configuration mistake
/// was made.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The job's stop condition can never be evaluated.
    InvalidStop {
        /// The offending job's label.
        label: String,
        /// What is wrong with the condition.
        source: InvalidStopCondition,
    },
    /// The job names a backend the registry does not know.
    UnknownBackend {
        /// The offending job's label.
        label: String,
        /// The registry's typed lookup error (lists the known names).
        source: UnknownBackend,
    },
    /// The job's hand-built configuration (`scenario: None`) describes no
    /// valid classic corridor.
    InvalidWorld {
        /// The offending job's label.
        label: String,
        /// Why the corridor cannot be built.
        source: ScenarioError,
    },
    /// The job's model parameters fail
    /// [`ModelKind::validate`](pedsim_core::params::ModelKind::validate):
    /// every backend would refuse to build the engine.
    InvalidModel {
        /// The offending job's label.
        label: String,
        /// Which parameter is out of range.
        source: InvalidModel,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidStop { label, source } => {
                write!(f, "job {label:?}: {source}")
            }
            Self::UnknownBackend { label, source } => {
                write!(f, "job {label:?}: {source}")
            }
            Self::InvalidWorld { label, source } => {
                write!(f, "job {label:?}: invalid paper corridor: {source}")
            }
            Self::InvalidModel { label, source } => {
                write!(f, "job {label:?}: invalid model: {source}")
            }
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidStop { source, .. } => Some(source),
            Self::UnknownBackend { source, .. } => Some(source),
            Self::InvalidWorld { source, .. } => Some(source),
            Self::InvalidModel { source, .. } => Some(source),
        }
    }
}

/// One replica: a configuration (scenario × model × seed), a registry
/// backend, and a stop condition.
#[derive(Debug, Clone)]
pub struct Job {
    /// Caller-chosen label grouping related replicas in reports (e.g.
    /// `"density07/ACO"`). Need not be unique: the canonical result
    /// order falls back to world/model/engine/seed within a label.
    pub label: String,
    /// Full simulation configuration. Metric-based stop conditions and
    /// per-run metrics in the report require `track_metrics` (on by
    /// default); timing protocols may switch it off and stop on
    /// [`StopCondition::Steps`] alone.
    pub cfg: SimConfig,
    /// The registry backend that executes the job, resolved at
    /// validation time: an unknown name is a typed
    /// [`JobError::UnknownBackend`], never a worker panic.
    ///
    /// Batch parallelism comes from running many replicas concurrently,
    /// so batches usually pick sequential backends (`scalar`, `simt` on
    /// one thread): a parallel backend inside every batch worker would
    /// oversubscribe the host without changing any trajectory (backends
    /// are schedule-independent). A single-job timing batch is where a
    /// multi-threaded `pooled` or `simt` selection belongs.
    pub backend: Backend,
    /// When this replica is done.
    pub stop: StopCondition,
    /// Untimed warmup steps executed before the measured loop starts.
    /// The reported `steps`, `wall`, and `stages` cover the measured
    /// phase only; caches are hot and allocators settled by the time the
    /// clock starts. Step-counting stop conditions see the engine's
    /// *total* step count, so a warmup-`w` job stopping on
    /// [`StopCondition::Steps`]`(w + n)` measures exactly `n` steps.
    pub warmup: u64,
}

impl Job {
    /// A job on a registry backend selected by name and thread count.
    pub fn backend(
        label: impl Into<String>,
        cfg: SimConfig,
        backend: Backend,
        stop: StopCondition,
    ) -> Self {
        Self {
            label: label.into(),
            cfg,
            backend,
            stop,
            warmup: 0,
        }
    }

    /// Builder: run `steps` untimed warmup steps before the measured
    /// loop (see [`Job::warmup`]). Remember that step-counting stop
    /// conditions count warmup steps too.
    pub fn with_warmup(mut self, steps: u64) -> Self {
        self.warmup = steps;
        self
    }

    /// Check the job's run description without executing it — the batch
    /// runner validates every job up front so a misconfigured stop
    /// condition surfaces as a typed error on the calling thread, never a
    /// worker panic mid-batch. Covers both the condition's parameters and
    /// its fit with this job's engine configuration: a metric-based stop
    /// on a `track_metrics`-off config can never fire. The model must
    /// pass [`ModelKind::validate`], and a hand-built configuration
    /// without a scenario must describe a valid classic corridor
    /// ([`registry::try_paper_corridor`]).
    ///
    /// [`ModelKind::validate`]: pedsim_core::params::ModelKind::validate
    /// [`registry::try_paper_corridor`]: pedsim_scenario::registry::try_paper_corridor
    pub fn validate(&self) -> Result<(), JobError> {
        self.resolve().map(drop)
    }

    /// [`Job::validate`], returning the job's configuration with its
    /// world scenario filled in: a hand-built `scenario: None` gets the
    /// classic corridor its check built, so the batch compiles the world
    /// without building the corridor again.
    pub(crate) fn resolve(&self) -> Result<SimConfig, JobError> {
        self.stop
            .validate_for(self.cfg.track_metrics)
            .map_err(|source| JobError::InvalidStop {
                label: self.label.clone(),
                source,
            })?;
        self.backend
            .resolve()
            .map_err(|source| JobError::UnknownBackend {
                label: self.label.clone(),
                source,
            })?;
        self.cfg
            .model
            .validate()
            .map_err(|source| JobError::InvalidModel {
                label: self.label.clone(),
                source,
            })?;
        let scenario = match &self.cfg.scenario {
            Some(s) => s.clone(),
            None => pedsim_scenario::registry::try_paper_corridor(&self.cfg.env)
                .map(Arc::new)
                .map_err(|source| JobError::InvalidWorld {
                    label: self.label.clone(),
                    source,
                })?,
        };
        Ok(SimConfig {
            scenario: Some(scenario),
            ..self.cfg.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedsim_core::params::ModelKind;
    use pedsim_grid::EnvConfig;

    #[test]
    fn backend_jobs_carry_their_selection_and_validate() {
        let cfg = SimConfig::new(EnvConfig::small(16, 16, 4), ModelKind::lem());
        let j = Job::backend(
            "p",
            cfg.clone(),
            Backend::pooled(4),
            StopCondition::Steps(1),
        );
        assert_eq!(j.backend, Backend::pooled(4));
        assert!(j.validate().is_ok());
        let s = Job::backend("s", cfg, Backend::simt(), StopCondition::Steps(1));
        assert_eq!(s.backend.resolve().map(|d| d.name), Ok("simt"));
    }

    /// A τ₀ that is not finite and positive, or a ρ outside `[0, 1]`, is a
    /// typed job error on every backend, before any worker starts.
    #[test]
    fn invalid_aco_parameters_are_a_typed_job_error() {
        use pedsim_core::engine::BACKENDS;
        use pedsim_core::params::AcoParams;
        let env = EnvConfig::small(16, 16, 4);
        for (tau0, rho, why) in [
            (0.0, 0.02, InvalidModel::Tau0(0.0)),
            (-1.0, 0.02, InvalidModel::Tau0(-1.0)),
            (0.1, 1.5, InvalidModel::Rho(1.5)),
        ] {
            let model = ModelKind::Aco(AcoParams {
                tau0,
                rho,
                ..AcoParams::default()
            });
            for b in BACKENDS {
                let cfg = SimConfig::new(env, model);
                let job = Job::backend(
                    "aco",
                    cfg,
                    Backend::named(b.name, 2),
                    StopCondition::Steps(1),
                );
                let err = job.validate().unwrap_err();
                assert_eq!(
                    err,
                    JobError::InvalidModel {
                        label: "aco".into(),
                        source: why
                    },
                    "{}",
                    b.name
                );
                assert!(err.to_string().contains("invalid model"), "{err}");
            }
        }
    }

    #[test]
    fn unknown_backend_is_a_typed_job_error() {
        let cfg = SimConfig::new(EnvConfig::small(16, 16, 4), ModelKind::lem());
        let j = Job::backend(
            "mystery",
            cfg,
            Backend::named("cuda", 2),
            StopCondition::Steps(1),
        );
        let err = j.validate().unwrap_err();
        assert!(matches!(err, JobError::UnknownBackend { ref label, .. } if label == "mystery"));
        let msg = err.to_string();
        assert!(msg.contains("cuda") && msg.contains("scalar"), "{msg}");
    }

    #[test]
    fn validate_flags_oversized_gridlock_patience() {
        use pedsim_core::metrics::MAX_GRIDLOCK_PATIENCE;
        let cfg = SimConfig::new(EnvConfig::small(16, 16, 4), ModelKind::lem());
        let ok = Job::backend(
            "ok",
            cfg.clone(),
            Backend::simt(),
            StopCondition::settled_or_steps(100, 1, 32),
        );
        assert_eq!(ok.validate(), Ok(()));
        let bad = Job::backend(
            "too-patient",
            cfg,
            Backend::scalar(),
            StopCondition::Gridlocked {
                threshold: 1,
                patience: MAX_GRIDLOCK_PATIENCE + 7,
            },
        );
        let err = bad.validate().unwrap_err();
        assert!(matches!(err, JobError::InvalidStop { ref label, .. } if label == "too-patient"));
        assert!(err.to_string().contains("gridlock patience"));
    }

    #[test]
    fn validate_flags_metric_stop_on_metrics_off_config() {
        // The old failure mode was a documented "caller bug" panic deep in
        // StopCondition::check, raised on a worker thread mid-batch; the
        // job check now rejects the description up front.
        let cfg = SimConfig::new(EnvConfig::small(16, 16, 4), ModelKind::lem()).with_metrics(false);
        for stop in [
            StopCondition::AllArrived,
            StopCondition::settled_or_steps(100, 1, 8),
            StopCondition::steady_or_steps(100, 0.5, 8),
        ] {
            let job = Job::backend("dark", cfg.clone(), Backend::scalar(), stop);
            let err = job.validate().unwrap_err();
            assert!(err.to_string().contains("track_metrics"), "{err}");
        }
        // A pure step budget needs no metrics; metrics-on configs accept
        // metric-based stops as before.
        assert!(Job::backend(
            "ok",
            cfg.clone(),
            Backend::scalar(),
            StopCondition::Steps(10)
        )
        .validate()
        .is_ok());
        let tracked = SimConfig::new(EnvConfig::small(16, 16, 4), ModelKind::lem());
        assert!(
            Job::backend("ok", tracked, Backend::scalar(), StopCondition::AllArrived)
                .validate()
                .is_ok()
        );
    }
}
