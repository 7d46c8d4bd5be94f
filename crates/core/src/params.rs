//! Model and simulation parameters.
//!
//! The paper leaves several constants unspecified; the defaults here are
//! the values EXPERIMENTS.md was produced with, and each is swept by an
//! ablation bench:
//!
//! * `LemParams::sigma` — the spread of the truncated-normal rank draw
//!   (§II.A gives the clamping rule but not the σ);
//! * `AcoParams::{alpha, beta}` — eq. (2)'s exponents (Ant System
//!   convention α = 1, β = 2…5; we default to 1 and 2);
//! * `AcoParams::rho` — eq. (3)'s evaporation rate;
//! * `AcoParams::q` — the deposit numerator of eq. (5) (`Δτ = Q / L_k`);
//! * `AcoParams::tau0` — initial pheromone level and evaporation floor.

/// Least-Effort-Model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LemParams {
    /// Standard deviation of the normal rank draw. Larger σ spreads choice
    /// probability toward worse-ranked cells.
    pub sigma: f64,
    /// The paper's modification (§IV.c): "forward movement is given the
    /// highest priority" — an empty forward cell is taken without scoring.
    pub forward_priority: bool,
    /// Scanning range (§VII future work, implemented in
    /// `extensions::ranges`): cells looked ahead per ray when scoring.
    /// `1` reproduces the paper's baseline exactly.
    pub scan_range: u8,
}

impl Default for LemParams {
    fn default() -> Self {
        Self {
            sigma: 1.0,
            forward_priority: true,
            scan_range: 1,
        }
    }
}

/// Modified-Ant-System parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcoParams {
    /// Pheromone weight α of eq. (2).
    pub alpha: f32,
    /// Heuristic weight β of eq. (2) (η = 1/distance-to-target).
    pub beta: f32,
    /// Evaporation rate ρ of eq. (3), in (0, 1].
    pub rho: f32,
    /// Deposit numerator Q of eq. (5): an arriving agent deposits `Q/L_k`.
    pub q: f32,
    /// Initial pheromone and evaporation floor τ₀.
    pub tau0: f32,
    /// Forward-cell priority, as in LEM.
    pub forward_priority: bool,
}

impl Default for AcoParams {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            beta: 2.0,
            rho: 0.02,
            q: 8.0,
            tau0: 0.1,
            forward_priority: true,
        }
    }
}

/// Which movement model drives the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelKind {
    /// Least Effort Model (eq. 1).
    Lem(LemParams),
    /// Modified Ant System (eqs. 2–5).
    Aco(AcoParams),
}

impl ModelKind {
    /// Default-parameter LEM.
    pub fn lem() -> Self {
        ModelKind::Lem(LemParams::default())
    }

    /// Default-parameter ACO.
    pub fn aco() -> Self {
        ModelKind::Aco(AcoParams::default())
    }

    /// True for the ACO variant.
    pub fn is_aco(&self) -> bool {
        matches!(self, ModelKind::Aco(_))
    }

    /// The ACO parameters, `None` for LEM.
    pub(crate) fn aco_params(&self) -> Option<AcoParams> {
        match self {
            ModelKind::Aco(p) => Some(*p),
            ModelKind::Lem(_) => None,
        }
    }

    /// Whether an agent whose front cell is empty steps into it without
    /// scoring or drawing (the paper's forward-priority modification).
    pub(crate) fn forward_priority(&self) -> bool {
        match self {
            ModelKind::Lem(p) => p.forward_priority,
            ModelKind::Aco(p) => p.forward_priority,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Lem(_) => "LEM",
            ModelKind::Aco(_) => "ACO",
        }
    }
}

/// How the `pooled` backend's kernel stages traverse the world each step.
///
/// The paper's §IV mapping launches one thread per environment cell; at
/// corridor occupancies (~6 % on the paper's geometry) that sweeps ~16
/// cells to advance one agent. `Sparse` drives InitialCalc, Tour, and
/// Movement from the live-agent slot list instead (reading each agent's
/// cell from the position column `props.pos`), producing byte-identical
/// trajectories — the per-cell Philox streams are keyed by cell, so
/// skipping cells no agent touches consumes no draws.
///
/// The knob picks `pooled`'s traversal only. The reference backends have
/// one traversal each and ignore it: `scalar` always runs agent loops
/// (`Sparse`), `simt` always runs the paper's per-cell kernels (`Dense`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationMode {
    /// One pass per grid cell (the paper's mapping). Faster on `pooled`
    /// when most cells are occupied.
    Dense,
    /// One pass per live agent slot, in deterministic slot order.
    /// Fastest at low occupancy; bit-identical to `Dense`.
    Sparse,
    /// Pick at build time by initial occupancy:
    /// `live / (width·height) <` [`IterationMode::AUTO_THRESHOLD`]
    /// selects `Sparse`.
    Auto,
}

impl IterationMode {
    /// Occupancy below which `Auto` resolves to `Sparse`. On `pooled`,
    /// dense steps faster at 50 % occupancy and on the paper's densest
    /// crowd (102,400 agents on 480², ~44 %); below 10 % the
    /// measurements disagree (DESIGN.md §16). The value stays at 1/4
    /// because the registry sweep's densest worlds sit at 18.75 % and
    /// must keep resolving sparse: the repository benchmark pins the
    /// mode each of its replicas reports.
    pub const AUTO_THRESHOLD: f64 = 0.25;

    /// Resolve `Auto` against a world's initial occupancy; `Dense` and
    /// `Sparse` pass through unchanged.
    pub fn resolve(self, live: usize, cells: usize) -> IterationMode {
        match self {
            IterationMode::Auto => {
                if cells > 0 && (live as f64 / cells as f64) < Self::AUTO_THRESHOLD {
                    IterationMode::Sparse
                } else {
                    IterationMode::Dense
                }
            }
            other => other,
        }
    }

    /// Registry/report key (`dense` / `sparse` / `auto`).
    pub fn name(&self) -> &'static str {
        match self {
            IterationMode::Dense => "dense",
            IterationMode::Sparse => "sparse",
            IterationMode::Auto => "auto",
        }
    }
}

/// Full simulation configuration.
///
/// Cheap to clone: the scenario handle (when present) is an `Arc` to an
/// immutable world description.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Environment geometry and population. When a scenario handle is set,
    /// this mirrors the scenario (same extents, population, and seed) and
    /// exists for reporting and kernel seeding. Do not mutate it while
    /// `scenario` is `Some`: kernels seed from `env.seed` but placement
    /// seeds from the scenario, so a hand-edited seed would produce a
    /// mixed-seed run. Reseed via `Scenario::with_seed` +
    /// [`SimConfig::from_scenario`] instead.
    pub env: pedsim_grid::EnvConfig,
    /// Declarative world description (spawn/target regions, interior
    /// obstacles, flow-field routing). Both constructors set it. A
    /// hand-built `None` means the classic corridor of `env`; read the
    /// world through [`SimConfig::world_scenario`], which resolves it.
    pub scenario: Option<std::sync::Arc<pedsim_scenario::Scenario>>,
    /// Movement model.
    pub model: ModelKind,
    /// Enable scatter-conflict checking on all device buffers (tests on,
    /// wall-clock benches off).
    pub checked: bool,
    /// Track crossing/movement metrics each step (small O(N) cost).
    pub track_metrics: bool,
    /// How the `pooled` backend's kernel stages traverse the world
    /// (dense cell sweep vs sparse live-slot iteration); `scalar` and
    /// `simt` ignore it. Not part of the world: compiled worlds and
    /// trajectories are identical in both modes.
    pub iteration: IterationMode,
}

impl SimConfig {
    /// A configuration over the paper's classic corridor of `env`
    /// ([`paper_corridor`]) with `model` and metrics on. Panics when `env`
    /// describes no valid corridor (see
    /// [`try_paper_corridor`](pedsim_scenario::registry::try_paper_corridor)).
    ///
    /// [`paper_corridor`]: pedsim_scenario::registry::paper_corridor
    pub fn new(env: pedsim_grid::EnvConfig, model: ModelKind) -> Self {
        let corridor = pedsim_scenario::registry::paper_corridor(&env);
        Self {
            env,
            scenario: Some(std::sync::Arc::new(corridor)),
            model,
            checked: false,
            track_metrics: true,
            iteration: IterationMode::Auto,
        }
    }

    /// A configuration over a declarative scenario with `model` and
    /// metrics on. The `env` record is derived from the scenario. Takes
    /// the scenario by reference — callers keep theirs; the clone shares
    /// any already-computed distance field through the scenario's lazy
    /// cache, so no flow-field work is repeated.
    pub fn from_scenario(scenario: &pedsim_scenario::Scenario, model: ModelKind) -> Self {
        Self::from_shared(std::sync::Arc::new(scenario.clone()), model)
    }

    /// A configuration over an already-shared scenario handle — the
    /// zero-copy door used when many configurations reference one world.
    pub fn from_shared(
        scenario: std::sync::Arc<pedsim_scenario::Scenario>,
        model: ModelKind,
    ) -> Self {
        Self {
            env: scenario.env_config(),
            scenario: Some(scenario),
            model,
            checked: false,
            track_metrics: true,
            iteration: IterationMode::Auto,
        }
    }

    /// The world this configuration runs: the attached scenario, or for a
    /// hand-built `scenario: None` the classic corridor of `env`.
    pub fn world_scenario(&self) -> std::sync::Arc<pedsim_scenario::Scenario> {
        self.scenario.clone().unwrap_or_else(|| {
            std::sync::Arc::new(pedsim_scenario::registry::paper_corridor(&self.env))
        })
    }

    /// Builder: toggle conflict checking.
    pub fn with_checked(mut self, on: bool) -> Self {
        self.checked = on;
        self
    }

    /// Builder: toggle metrics tracking.
    pub fn with_metrics(mut self, on: bool) -> Self {
        self.track_metrics = on;
        self
    }

    /// Builder: pick the `pooled` stage traversal mode (defaults to
    /// [`IterationMode::Auto`]).
    pub fn with_iteration_mode(mut self, mode: IterationMode) -> Self {
        self.iteration = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let l = LemParams::default();
        assert!(l.sigma > 0.0 && l.forward_priority);
        let a = AcoParams::default();
        assert!(a.alpha > 0.0 && a.beta > 0.0);
        assert!((0.0..=1.0).contains(&a.rho));
        assert!(a.tau0 > 0.0);
    }

    #[test]
    fn from_scenario_mirrors_geometry() {
        let cfg = pedsim_grid::EnvConfig::small(32, 32, 40).with_seed(3);
        let sim = SimConfig::from_scenario(
            &pedsim_scenario::registry::paper_corridor(&cfg),
            ModelKind::lem(),
        );
        assert_eq!(sim.env.width, 32);
        assert_eq!(sim.env.height, 32);
        assert_eq!(sim.env.agents_per_side, 40);
        assert_eq!(sim.env.seed, 3);
        assert!(sim.scenario.is_some());
        // The classic constructor builds the same corridor.
        let classic = SimConfig::new(cfg, ModelKind::lem());
        assert_eq!(classic.world_scenario(), sim.world_scenario());
        // A hand-built `None` resolves to the corridor of `env`.
        let bare = SimConfig {
            scenario: None,
            ..classic.clone()
        };
        assert_eq!(bare.world_scenario(), sim.world_scenario());
        // Clones share the scenario handle.
        let clone = sim.clone();
        assert!(std::sync::Arc::ptr_eq(
            sim.scenario.as_ref().unwrap(),
            clone.scenario.as_ref().unwrap()
        ));
    }

    /// The classic constructor and the scenario route give equal
    /// configurations, `env` record included: a derived spawn band is
    /// recorded as `spawn_rows: None` on both.
    #[test]
    fn classic_constructor_equals_the_scenario_route() {
        use pedsim_grid::EnvConfig;
        for env in [
            EnvConfig::small(40, 40, 150).with_seed(2),
            EnvConfig::small(32, 32, 40),
            EnvConfig::small(16, 16, 20),
            EnvConfig::paper(2_400).with_seed(9),
        ] {
            for model in [ModelKind::lem(), ModelKind::aco()] {
                let corridor = pedsim_scenario::registry::paper_corridor(&env);
                let via_scenario = SimConfig::from_scenario(&corridor, model);
                assert_eq!(via_scenario.env.spawn_rows, None, "{env:?}");
                assert_eq!(SimConfig::new(env, model), via_scenario, "{env:?}");
            }
        }
    }

    #[test]
    fn auto_mode_resolves_by_occupancy() {
        assert_eq!(IterationMode::Auto.resolve(60, 1024), IterationMode::Sparse);
        assert_eq!(IterationMode::Auto.resolve(512, 1024), IterationMode::Dense);
        assert_eq!(IterationMode::Auto.resolve(0, 0), IterationMode::Dense);
        // Explicit modes pass through regardless of occupancy.
        assert_eq!(IterationMode::Dense.resolve(1, 1024), IterationMode::Dense);
        assert_eq!(
            IterationMode::Sparse.resolve(1000, 1024),
            IterationMode::Sparse
        );
        assert_eq!(IterationMode::Sparse.name(), "sparse");
    }

    #[test]
    fn model_kind_names() {
        assert_eq!(ModelKind::lem().name(), "LEM");
        assert_eq!(ModelKind::aco().name(), "ACO");
        assert!(ModelKind::aco().is_aco());
        assert!(!ModelKind::lem().is_aco());
    }
}
