//! The declarative world description and its builder.

use std::sync::{Arc, OnceLock};

use pedsim_grid::cell::{Group, Heading, MAX_GROUPS};
use pedsim_grid::{
    place_in_cells, DistanceData, EnvConfig, Environment, GridDistanceField, Matrix, PropertyTable,
    CELL_EMPTY, CELL_WALL, MAX_SIDE,
};
use philox::StreamRng;

use crate::region::Region;

/// Why a scenario description is rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The grid is smaller than the simulation substrate supports.
    WorldTooSmall {
        /// Requested width.
        width: usize,
        /// Requested height.
        height: usize,
    },
    /// A grid side exceeds [`MAX_SIDE`]: cell coordinates are `u16`.
    WorldTooLarge {
        /// Requested width.
        width: usize,
        /// Requested height.
        height: usize,
    },
    /// No directional group was declared.
    NoGroups,
    /// More groups than the label/bitmask scheme supports.
    TooManyGroups {
        /// Declared group count.
        groups: usize,
    },
    /// A region or wall cell lies outside the grid (or past the `u16`
    /// coordinate range altogether).
    OutOfBounds {
        /// What was out of bounds.
        what: &'static str,
        /// The offending cell.
        cell: (usize, usize),
    },
    /// A spawn, target or source region holds no cells.
    EmptyRegion {
        /// Which kind of region is empty.
        what: &'static str,
    },
    /// A spawn, target or source region names one cell twice.
    DuplicateCell {
        /// Which kind of region repeats a cell.
        what: &'static str,
        /// The repeated cell (the smallest, when several repeat).
        cell: (u16, u16),
    },
    /// A group's spawn region is missing.
    MissingSpawn(usize),
    /// A group's target region is missing.
    MissingTarget(usize),
    /// A spawn region overlaps a wall or another group's spawn region.
    SpawnOverlap {
        /// What the spawn collides with.
        with: &'static str,
        /// The shared cell.
        cell: (u16, u16),
    },
    /// A spawn region cannot hold the requested population.
    SpawnTooSmall {
        /// The group whose region is too small.
        group: usize,
        /// Requested agents.
        agents: usize,
        /// Region capacity.
        capacity: usize,
    },
    /// Every cell of a group's target region is walled off.
    TargetWalled(usize),
    /// A group's slot capacity is smaller than its initial population.
    CapacityBelowPopulation {
        /// The group whose capacity is too small.
        group: usize,
        /// Declared slot capacity.
        capacity: usize,
        /// Initial population.
        population: usize,
    },
    /// A source region's inflow rate is negative, NaN, or infinite.
    InvalidSourceRate(usize),
    /// A source region overlaps a wall or the group's own target region
    /// (agents would despawn the step after they appear).
    SourceOverlap {
        /// What the source collides with.
        with: &'static str,
        /// The shared cell.
        cell: (u16, u16),
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WorldTooSmall { width, height } => {
                write!(f, "world {width}x{height} is too small (need >= 2x4)")
            }
            Self::WorldTooLarge { width, height } => {
                write!(
                    f,
                    "world {width}x{height} exceeds the largest side {MAX_SIDE}"
                )
            }
            Self::NoGroups => write!(f, "scenario declares no directional groups"),
            Self::TooManyGroups { groups } => {
                write!(f, "{groups} groups exceed the supported {MAX_GROUPS}")
            }
            Self::OutOfBounds { what, cell } => {
                write!(f, "{what} cell ({}, {}) out of bounds", cell.0, cell.1)
            }
            Self::EmptyRegion { what } => write!(f, "{what} region holds no cells"),
            Self::DuplicateCell { what, cell } => {
                write!(f, "{what} region names cell ({}, {}) twice", cell.0, cell.1)
            }
            Self::MissingSpawn(g) => write!(f, "group {g} has no spawn region"),
            Self::MissingTarget(g) => write!(f, "group {g} has no target region"),
            Self::SpawnOverlap { with, cell } => {
                write!(
                    f,
                    "spawn region overlaps {with} at ({}, {})",
                    cell.0, cell.1
                )
            }
            Self::SpawnTooSmall {
                group,
                agents,
                capacity,
            } => write!(
                f,
                "group {group} spawn region holds {capacity} cells, cannot seat {agents} agents"
            ),
            Self::TargetWalled(g) => write!(f, "every group-{g} target cell is a wall"),
            Self::CapacityBelowPopulation {
                group,
                capacity,
                population,
            } => write!(
                f,
                "group {group} capacity {capacity} cannot hold its initial \
                 population of {population}"
            ),
            Self::InvalidSourceRate(g) => {
                write!(f, "group {g} source rate must be finite and non-negative")
            }
            Self::SourceOverlap { with, cell } => {
                write!(
                    f,
                    "source region overlaps {with} at ({}, {})",
                    cell.0, cell.1
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A per-group inflow source: new agents of the group appear inside
/// `region` at a Poisson-like rate, making the world *open-boundary*.
///
/// Each step, every empty source cell flips an independent coin with
/// probability `rate / region.len()`, so the expected inflow over the
/// whole region is `rate` agents per step (less when the region is
/// congested or the group's slot pool is exhausted). The draws are keyed
/// by the Philox `(seed, stream, counter)` scheme — one dedicated stream
/// per group, one counter range per step — so both engines produce the
/// identical arrival sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceDesc {
    /// Cells where agents appear, enumerated in the deterministic spawn
    /// order.
    pub region: Region,
    /// Expected arrivals per step across the whole region.
    pub rate: f64,
}

/// One directional group of a scenario: where it spawns, where it is
/// headed, and how many agents it fields.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDesc {
    /// Spawn region (cells enumerated in the deterministic placement
    /// order).
    pub spawn: Region,
    /// Target region (arrival cells; may overlap other groups' targets).
    pub target: Region,
    /// Agents this group fields initially. Groups may be asymmetric.
    pub population: usize,
    /// Travel direction — the forward-priority anchor. Derived from the
    /// spawn→target displacement unless overridden in the builder.
    pub heading: Heading,
    /// Property-slot capacity: the most agents of this group that can be
    /// live at once. Equals `population` unless raised in the builder;
    /// open-boundary worlds size it above the initial population so the
    /// inflow has slots to recycle into.
    pub capacity: usize,
    /// Inflow source (open-boundary worlds). Any group carrying a source
    /// makes the whole scenario open: every group's target region then
    /// acts as a sink that removes arriving agents.
    pub source: Option<SourceDesc>,
}

/// A declarative simulation world: geometry, interior obstacles, and one
/// spawn/target/population description per directional group (up to
/// [`MAX_GROUPS`]).
///
/// Scenarios are immutable once built (construction goes through
/// [`ScenarioBuilder`], which validates the description), so engines can
/// share one behind an `Arc`; the distance field is computed once per
/// instance and shared by every engine built from it.
#[derive(Debug, Clone)]
pub struct Scenario {
    name: String,
    width: usize,
    height: usize,
    /// Interior obstacle cells, sorted row-major and deduplicated.
    walls: Vec<(u16, u16)>,
    groups: Vec<GroupDesc>,
    seed: u64,
    /// Lazily computed distance field (seed-independent, so survives
    /// `with_seed`); excluded from equality.
    dist_cache: OnceLock<Arc<DistanceData>>,
}

impl PartialEq for Scenario {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.width == other.width
            && self.height == other.height
            && self.walls == other.walls
            && self.groups == other.groups
            && self.seed == other.seed
    }
}

impl Scenario {
    /// Start describing a `width × height` world.
    pub fn builder(name: impl Into<String>, width: usize, height: usize) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.into(),
            width,
            height,
            walls: Vec::new(),
            wall_overflow: None,
            slots: Vec::new(),
            default_population: 0,
            seed: 0,
        }
    }

    /// Scenario name (registry key / report label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Interior obstacle cells (sorted row-major).
    pub fn walls(&self) -> &[(u16, u16)] {
        &self.walls
    }

    /// Number of directional groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Group `g`'s full description.
    pub fn group(&self, g: Group) -> &GroupDesc {
        &self.groups[g.index()]
    }

    /// All group descriptions, in index order.
    pub fn groups(&self) -> &[GroupDesc] {
        &self.groups
    }

    /// Group `g`'s spawn region.
    pub fn spawn(&self, g: Group) -> &Region {
        &self.groups[g.index()].spawn
    }

    /// Group `g`'s target region.
    pub fn target(&self, g: Group) -> &Region {
        &self.groups[g.index()].target
    }

    /// Per-group populations, in index order.
    pub fn populations(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.population).collect()
    }

    /// Group 0's population — the per-side count of the classic symmetric
    /// corridor (reporting convenience; asymmetric worlds should read
    /// [`Scenario::populations`]).
    pub fn agents_per_side(&self) -> usize {
        self.groups[0].population
    }

    /// Total initial population over all groups.
    pub fn total_agents(&self) -> usize {
        self.groups.iter().map(|g| g.population).sum()
    }

    /// Per-group slot capacities, in index order (equal to the populations
    /// for closed worlds).
    pub fn capacities(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.capacity).collect()
    }

    /// Total slot capacity over all groups — the size of the property
    /// table both engines allocate.
    pub fn total_capacity(&self) -> usize {
        self.groups.iter().map(|g| g.capacity).sum()
    }

    /// Group `g`'s inflow source, when it has one.
    pub fn source(&self, g: Group) -> Option<&SourceDesc> {
        self.groups[g.index()].source.as_ref()
    }

    /// Whether this is an open-boundary world: at least one group carries
    /// an inflow source. In an open world every group's target region is a
    /// sink — arriving agents are removed from the grid and their slots
    /// recycled — and runs are measured by flux, not arrival.
    pub fn is_open(&self) -> bool {
        self.groups.iter().any(|g| g.source.is_some())
    }

    /// Placement/kernel seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A stable 64-bit fingerprint of everything that determines this
    /// scenario's trajectory: geometry, walls, every group's regions,
    /// population, heading, capacity, inflow source, and the seed. Equal
    /// scenarios hash equal **across commits and platforms** (fixed
    /// FNV-1a, never `std::hash`), which is what lets the results
    /// registry compare rows recorded weeks apart. The name participates
    /// too — two differently-named but otherwise identical worlds are
    /// different experiments.
    pub fn config_hash(&self) -> u64 {
        let mut h = pedsim_obs::hash::Fnv64::new()
            .str(&self.name)
            .usize(self.width)
            .usize(self.height)
            .u64(self.seed)
            .usize(self.walls.len());
        for &(r, c) in &self.walls {
            h = h.u64(u64::from(r) << 16 | u64::from(c));
        }
        h = h.usize(self.groups.len());
        for g in &self.groups {
            h = h
                .usize(g.population)
                .usize(g.capacity)
                .u64(g.heading.forward_index() as u64);
            for region in [&g.spawn, &g.target] {
                h = h.usize(region.cells().len());
                for &(r, c) in region.cells() {
                    h = h.u64(u64::from(r) << 16 | u64::from(c));
                }
            }
            match &g.source {
                None => h = h.u64(0),
                Some(s) => {
                    h = h.u64(1).f64(s.rate).usize(s.region.cells().len());
                    for &(r, c) in s.region.cells() {
                        h = h.u64(u64::from(r) << 16 | u64::from(c));
                    }
                }
            }
        }
        h.finish()
    }

    /// Builder-style seed change (scenario validity is seed-independent).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A stable 64-bit fingerprint of the *routing geometry* alone: the
    /// exact inputs of [`Scenario::distance_data`] — extents, walls, each
    /// group's target cells and heading — and nothing else. Two scenarios
    /// with equal geometry hashes compute bit-identical distance fields
    /// even when they differ by name, seed, population, capacity, spawn
    /// regions, or inflow sources; the world cache uses this key to reuse
    /// the expensive per-group Dijkstra across the seed-varied replicas
    /// of a sweep rung. The covered inputs also fully determine
    /// [`Scenario::uses_row_fast_path`], so the row-table/grid-field
    /// choice can never diverge between producer and consumer.
    pub fn geometry_hash(&self) -> u64 {
        let mut h = pedsim_obs::hash::Fnv64::new()
            .str("routing_geometry")
            .usize(self.width)
            .usize(self.height)
            .usize(self.walls.len());
        for &(r, c) in &self.walls {
            h = h.u64(u64::from(r) << 16 | u64::from(c));
        }
        h = h.usize(self.groups.len());
        for g in &self.groups {
            h = h.u64(g.heading.forward_index() as u64);
            h = h.usize(g.target.cells().len());
            for &(r, c) in g.target.cells() {
                h = h.u64(u64::from(r) << 16 | u64::from(c));
            }
        }
        h.finish()
    }

    /// Pre-seed the lazy distance-field cache with an already computed
    /// plane set. A no-op when a field is already cached. The caller must
    /// only pass fields computed for an identical [`geometry_hash`] —
    /// the world cache's field level upholds this by construction.
    ///
    /// [`geometry_hash`]: Scenario::geometry_hash
    pub fn seed_distance_cache(&self, dist: Arc<DistanceData>) {
        let _ = self.dist_cache.set(dist);
    }

    /// Whether `(r, c)` is an interior wall cell.
    pub fn is_wall(&self, r: usize, c: usize) -> bool {
        r <= u16::MAX as usize
            && c <= u16::MAX as usize
            && self.walls.binary_search(&(r as u16, c as u16)).is_ok()
    }

    /// True when the world is an obstacle-free two-group corridor whose
    /// targets are the classic full-width opposite-edge bands — exactly
    /// the geometry the paper's row-based distance tables encode. Such
    /// scenarios take the row-table fast path
    /// ([`DistanceTables`](pedsim_grid::DistanceTables)); everything else
    /// routes through a [`GridDistanceField`].
    pub fn uses_row_fast_path(&self) -> bool {
        self.groups.len() == 2
            && self.walls.is_empty()
            && self.groups[0]
                .target
                .is_edge_row_band(self.width, self.height, false)
            && self.groups[1]
                .target
                .is_edge_row_band(self.width, self.height, true)
            && self.groups[0].heading == Heading::Down
            && self.groups[1].heading == Heading::Up
    }

    /// The distance field this scenario routes by, in uploadable form.
    /// Computed on first call and cached: every engine built from the same
    /// scenario instance (CPU/GPU pairs, repeated runs) shares one field
    /// instead of re-running the Dijkstra.
    pub fn distance_data(&self) -> Arc<DistanceData> {
        self.dist_cache
            .get_or_init(|| {
                Arc::new(if self.uses_row_fast_path() {
                    DistanceData::rows(self.height)
                } else {
                    let targets: Vec<&[(u16, u16)]> =
                        self.groups.iter().map(|g| g.target.cells()).collect();
                    let forward: Vec<u8> = self
                        .groups
                        .iter()
                        .map(|g| g.heading.forward_index() as u8)
                        .collect();
                    let field = GridDistanceField::compute(
                        self.height,
                        self.width,
                        |r, c| self.is_wall(r, c),
                        &targets,
                    )
                    .with_forward(forward);
                    DistanceData::from_field(&field)
                })
            })
            .clone()
    }

    /// The per-cell target bitmask ([`Group::target_bit`] bits).
    pub fn target_mask(&self) -> Matrix<u8> {
        let mut mask = Matrix::filled(self.height, self.width, 0u8);
        for (gi, group) in self.groups.iter().enumerate() {
            let bit = Group::new(gi).target_bit();
            for &(r, c) in group.target.cells() {
                let cur = mask.get(r as usize, c as usize);
                mask.set(r as usize, c as usize, cur | bit);
            }
        }
        mask
    }

    /// An [`EnvConfig`] mirroring this scenario's geometry (the record the
    /// simulation configuration carries for reporting and kernel seeding).
    ///
    /// `agents_per_side` reports group 0's population, `spawn_rows` group
    /// 0's row extent (`None` when the 0.6-fill rule of
    /// [`EnvConfig::effective_spawn_rows`] derives that extent, as it does
    /// for the classic corridor of an `EnvConfig` without one), and
    /// `spawn_fill` the classic 0.6 convention; for multi-group or
    /// asymmetric worlds these are reporting approximations only —
    /// populations and crossing semantics always come from the scenario
    /// itself, never from this record.
    pub fn env_config(&self) -> EnvConfig {
        let env = EnvConfig {
            width: self.width,
            height: self.height,
            agents_per_side: self.groups[0].population,
            spawn_rows: None,
            spawn_fill: 0.6,
            seed: self.seed,
        };
        let rows = self.groups[0].spawn.row_extent();
        if rows == env.effective_spawn_rows() {
            env
        } else {
            env.with_spawn_rows(rows)
        }
    }

    /// Build and populate the world (the paper's data-preparation stage
    /// over a declarative description): walls stamped into `mat`, each
    /// group placed uniformly at random inside its spawn region with its
    /// dedicated RNG stream (`u64::MAX - 1 - g`), target bitmask
    /// attached. Every world is built here, the classic corridor of
    /// `SimConfig::new` included.
    pub fn build_environment(&self) -> Environment {
        let total = self.total_capacity();
        let mut mat = Matrix::filled(self.height, self.width, CELL_EMPTY);
        let mut index = Matrix::filled(self.height, self.width, 0u32);
        let mut props = PropertyTable::new(total);
        let mut alive = vec![false; total + 1];
        let mut free: Vec<pedsim_grid::environment::FreeSlots> =
            Vec::with_capacity(self.groups.len());
        for &(r, c) in &self.walls {
            mat.set(r as usize, c as usize, CELL_WALL);
        }
        let mut first_index = 1u32;
        for (gi, group) in self.groups.iter().enumerate() {
            // The dedicated placement streams, far away from the per-cell
            // streams the kernels draw from.
            let mut rng = StreamRng::new(self.seed, u64::MAX - 1 - gi as u64);
            place_in_cells(
                &mut mat,
                &mut index,
                &mut props,
                Group::new(gi).label(),
                group.spawn.cells().to_vec(),
                group.population,
                first_index,
                &mut rng,
            );
            for slot in first_index..first_index + group.population as u32 {
                alive[slot as usize] = true;
            }
            // Slots beyond the initial population start dead with the group
            // label pre-assigned (kernels read labels through an immutable
            // table), queued for recycling smallest-first.
            let spare_lo = first_index + group.population as u32;
            let spare_hi = first_index + group.capacity as u32;
            for slot in spare_lo..spare_hi {
                props.id[slot as usize] = Group::new(gi).label();
            }
            free.push((spare_lo..spare_hi).collect());
            first_index = spare_hi;
        }
        let live = self.total_agents();
        Environment {
            mat,
            index,
            props,
            group_sizes: self.capacities(),
            seed: self.seed,
            targets: Arc::new(self.target_mask()),
            alive,
            free,
            live,
        }
    }
}

/// One group being described: regions, and optional population/heading
/// overrides resolved at [`ScenarioBuilder::build`] time.
#[derive(Debug, Clone, Default)]
struct GroupSlot {
    spawn: Option<Region>,
    target: Option<Region>,
    population: Option<usize>,
    heading: Option<Heading>,
    capacity: Option<usize>,
    source: Option<SourceDesc>,
}

/// Builder for [`Scenario`] (validates on [`ScenarioBuilder::build`]).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    width: usize,
    height: usize,
    walls: Vec<(u16, u16)>,
    /// The first wall cell past the `u16` coordinate range, reported by
    /// [`ScenarioBuilder::build`].
    wall_overflow: Option<(usize, usize)>,
    slots: Vec<GroupSlot>,
    default_population: usize,
    seed: u64,
}

impl ScenarioBuilder {
    /// Add a single obstacle cell.
    pub fn wall_cell(self, r: usize, c: usize) -> Self {
        self.wall_rect(r, c, 1, 1)
    }

    /// Add a rectangle of obstacle cells. A rectangle reaching past the
    /// `u16` coordinate range adds no cells; [`ScenarioBuilder::build`]
    /// then returns [`ScenarioError::OutOfBounds`].
    pub fn wall_rect(mut self, r0: usize, c0: usize, rows: usize, cols: usize) -> Self {
        if rows == 0 || cols == 0 {
            return self;
        }
        let rect = Region::rect(r0, c0, rows, cols);
        match rect.overflow() {
            Some(cell) => {
                self.wall_overflow.get_or_insert(cell);
            }
            None => self.walls.extend_from_slice(rect.cells()),
        }
        self
    }

    fn slot_mut(&mut self, g: Group) -> &mut GroupSlot {
        while self.slots.len() <= g.index() {
            self.slots.push(GroupSlot::default());
        }
        &mut self.slots[g.index()]
    }

    /// Set group `g`'s spawn region.
    pub fn spawn(mut self, g: Group, region: Region) -> Self {
        self.slot_mut(g).spawn = Some(region);
        self
    }

    /// Set group `g`'s target region.
    pub fn target(mut self, g: Group, region: Region) -> Self {
        self.slot_mut(g).target = Some(region);
        self
    }

    /// Set group `g`'s population (overrides
    /// [`ScenarioBuilder::agents_per_side`], enabling asymmetric worlds).
    pub fn population(mut self, g: Group, agents: usize) -> Self {
        self.slot_mut(g).population = Some(agents);
        self
    }

    /// Override group `g`'s heading (otherwise derived from the
    /// spawn→target centroid displacement).
    pub fn heading(mut self, g: Group, heading: Heading) -> Self {
        self.slot_mut(g).heading = Some(heading);
        self
    }

    /// Raise group `g`'s property-slot capacity above its initial
    /// population (open-boundary worlds size the pool the inflow recycles
    /// into; closed worlds leave it at the population).
    pub fn capacity(mut self, g: Group, slots: usize) -> Self {
        self.slot_mut(g).capacity = Some(slots);
        self
    }

    /// Attach an inflow source to group `g`: agents of the group appear
    /// inside `region` at an expected `rate` per step (see [`SourceDesc`]).
    /// Any source makes the scenario open-boundary — every group's target
    /// region then despawns arriving agents.
    pub fn source(mut self, g: Group, region: Region, rate: f64) -> Self {
        self.slot_mut(g).source = Some(SourceDesc { region, rate });
        self
    }

    /// Append a fully-specified group at the next free index.
    pub fn group(mut self, spawn: Region, target: Region, population: usize) -> Self {
        let g = Group::new(self.slots.len());
        self = self.spawn(g, spawn).target(g, target);
        self.population(g, population)
    }

    /// Set the default per-group population (any group without an explicit
    /// [`ScenarioBuilder::population`] uses this).
    pub fn agents_per_side(mut self, n: usize) -> Self {
        self.default_population = n;
        self
    }

    /// Set the placement/kernel seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate the description and produce the immutable [`Scenario`].
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let (w, h) = (self.width, self.height);
        if w < 2 || h < 4 {
            return Err(ScenarioError::WorldTooSmall {
                width: w,
                height: h,
            });
        }
        if w > MAX_SIDE || h > MAX_SIDE {
            return Err(ScenarioError::WorldTooLarge {
                width: w,
                height: h,
            });
        }
        if self.slots.is_empty() {
            return Err(ScenarioError::NoGroups);
        }
        if self.slots.len() > MAX_GROUPS {
            return Err(ScenarioError::TooManyGroups {
                groups: self.slots.len(),
            });
        }
        let in_bounds = |&(r, c): &(u16, u16)| (r as usize) < h && (c as usize) < w;
        // The first cell of `cells` outside the grid, a coordinate
        // overflow recorded at construction first.
        let out_of_bounds =
            |what: &'static str, overflow: Option<(usize, usize)>, cells: &[(u16, u16)]| {
                let cell = overflow.or_else(|| {
                    cells
                        .iter()
                        .find(|c| !in_bounds(c))
                        .map(|&(r, c)| (r as usize, c as usize))
                });
                cell.map_or(Ok(()), |cell| {
                    Err(ScenarioError::OutOfBounds { what, cell })
                })
            };
        // A region's construction fault, or its first cell off the grid.
        let check_region = |what: &'static str, region: &Region| {
            out_of_bounds(what, region.overflow(), region.cells())?;
            if let Some(cell) = region.duplicate() {
                return Err(ScenarioError::DuplicateCell { what, cell });
            }
            if region.is_empty() {
                return Err(ScenarioError::EmptyRegion { what });
            }
            Ok(())
        };
        let mut walls = self.walls;
        walls.sort_unstable();
        walls.dedup();
        out_of_bounds("wall", self.wall_overflow, &walls)?;
        let mut groups: Vec<GroupDesc> = Vec::with_capacity(self.slots.len());
        // One flag per cell marks every earlier group's spawn cells, so the
        // pairwise disjointness check is O(total cells). Indexing is safe:
        // each region passed `check_region` first.
        let mut earlier_spawns = vec![false; w * h];
        // One flag per cell of the current group's target, set only while
        // its source is checked (allocated for open worlds only).
        let mut in_target = Vec::new();
        let cell_index = |&(r, c): &(u16, u16)| r as usize * w + c as usize;
        for (gi, slot) in self.slots.iter().enumerate() {
            let spawn = slot.spawn.clone().ok_or(ScenarioError::MissingSpawn(gi))?;
            check_region("spawn", &spawn)?;
            if let Some(&cell) = spawn
                .cells()
                .iter()
                .find(|&&(r, c)| walls.binary_search(&(r, c)).is_ok())
            {
                return Err(ScenarioError::SpawnOverlap {
                    with: "a wall",
                    cell,
                });
            }
            if let Some(&cell) = spawn.cells().iter().find(|c| earlier_spawns[cell_index(c)]) {
                return Err(ScenarioError::SpawnOverlap {
                    with: "another group's spawn region",
                    cell,
                });
            }
            let population = slot.population.unwrap_or(self.default_population);
            if spawn.len() < population {
                return Err(ScenarioError::SpawnTooSmall {
                    group: gi,
                    agents: population,
                    capacity: spawn.len(),
                });
            }
            let target = slot
                .target
                .clone()
                .ok_or(ScenarioError::MissingTarget(gi))?;
            check_region("target", &target)?;
            if target
                .cells()
                .iter()
                .all(|&(r, c)| walls.binary_search(&(r, c)).is_ok())
            {
                return Err(ScenarioError::TargetWalled(gi));
            }
            let heading = slot
                .heading
                .unwrap_or_else(|| derive_heading(&spawn, &target));
            let capacity = slot.capacity.unwrap_or(population);
            if capacity < population {
                return Err(ScenarioError::CapacityBelowPopulation {
                    group: gi,
                    capacity,
                    population,
                });
            }
            if let Some(source) = &slot.source {
                if !source.rate.is_finite() || source.rate < 0.0 {
                    return Err(ScenarioError::InvalidSourceRate(gi));
                }
                check_region("source", &source.region)?;
                if let Some(&cell) = source
                    .region
                    .cells()
                    .iter()
                    .find(|&&(r, c)| walls.binary_search(&(r, c)).is_ok())
                {
                    return Err(ScenarioError::SourceOverlap {
                        with: "a wall",
                        cell,
                    });
                }
                // A source cell inside the group's own sink would despawn
                // its arrivals the step after they appear. The target's
                // cells are flagged, checked against and then cleared, so
                // the check is O(source + target).
                if in_target.is_empty() {
                    in_target = vec![false; w * h];
                }
                for c in target.cells() {
                    in_target[cell_index(c)] = true;
                }
                let overlap = source
                    .region
                    .cells()
                    .iter()
                    .find(|c| in_target[cell_index(c)]);
                for c in target.cells() {
                    in_target[cell_index(c)] = false;
                }
                if let Some(&cell) = overlap {
                    return Err(ScenarioError::SourceOverlap {
                        with: "the group's own target region",
                        cell,
                    });
                }
            }
            for c in spawn.cells() {
                earlier_spawns[cell_index(c)] = true;
            }
            groups.push(GroupDesc {
                spawn,
                target,
                population,
                heading,
                capacity,
                source: slot.source.clone(),
            });
        }
        Ok(Scenario {
            name: self.name,
            width: w,
            height: h,
            walls,
            groups,
            seed: self.seed,
            dist_cache: OnceLock::new(),
        })
    }
}

/// Derive a group's heading from the displacement between its spawn and
/// target centroids (dominant axis wins; rows beat columns on a tie, so
/// the classic corridor derives down/up exactly).
fn derive_heading(spawn: &Region, target: &Region) -> Heading {
    let centroid = |region: &Region| {
        let n = region.len() as f64;
        let (sr, sc) = region
            .cells()
            .iter()
            .fold((0.0f64, 0.0f64), |(ar, ac), &(r, c)| {
                (ar + r as f64, ac + c as f64)
            });
        (sr / n, sc / n)
    };
    let (spawn_r, spawn_c) = centroid(spawn);
    let (target_r, target_c) = centroid(target);
    Heading::from_delta(target_r - spawn_r, target_c - spawn_c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corridor() -> Scenario {
        Scenario::builder("t", 16, 16)
            .spawn(Group::TOP, Region::row_band(0, 3, 16))
            .spawn(Group::BOTTOM, Region::row_band(13, 3, 16))
            .target(Group::TOP, Region::row_band(13, 3, 16))
            .target(Group::BOTTOM, Region::row_band(0, 3, 16))
            .agents_per_side(20)
            .seed(5)
            .build()
            .expect("valid")
    }

    /// A source cell inside the group's own target is a typed error
    /// naming the first such source cell; another group's target is no
    /// obstacle, so the target flags of one group's check do not leak
    /// into the next group's.
    #[test]
    fn source_inside_its_own_target_is_rejected_at_its_first_cell() {
        let open = |top_source: Region, bottom_source: Region| {
            Scenario::builder("t", 16, 16)
                .spawn(Group::TOP, Region::row_band(0, 3, 16))
                .spawn(Group::BOTTOM, Region::row_band(13, 3, 16))
                .target(Group::TOP, Region::row_band(13, 3, 16))
                .target(Group::BOTTOM, Region::row_band(0, 3, 16))
                .agents_per_side(20)
                .source(Group::TOP, top_source, 1.0)
                .source(Group::BOTTOM, bottom_source, 1.0)
                .build()
        };
        let err = open(Region::rect(12, 4, 3, 2), Region::rect(14, 0, 1, 4)).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::SourceOverlap {
                with: "the group's own target region",
                cell: (13, 4),
            }
        );
        // Top's source lies in bottom's target and bottom's in top's.
        open(Region::rect(1, 0, 1, 16), Region::rect(14, 0, 1, 16)).expect("valid");
        let err = open(Region::rect(1, 0, 1, 4), Region::rect(0, 9, 2, 2)).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::SourceOverlap {
                with: "the group's own target region",
                cell: (0, 9),
            }
        );
    }

    #[test]
    fn corridor_takes_row_fast_path() {
        let s = corridor();
        assert!(s.uses_row_fast_path());
        assert_eq!(s.group(Group::TOP).heading, Heading::Down);
        assert_eq!(s.group(Group::BOTTOM).heading, Heading::Up);
        let d = s.distance_data();
        assert_eq!(d.kind, pedsim_grid::DistanceKind::Rows);
        assert_eq!(d.data.len(), 2 * 16 * 8);
        assert_eq!(d.forward, vec![0, 5]);
    }

    #[test]
    fn walls_force_grid_field() {
        let s = Scenario::builder("t", 16, 16)
            .wall_rect(8, 0, 1, 7)
            .wall_rect(8, 9, 1, 7)
            .spawn(Group::TOP, Region::row_band(0, 3, 16))
            .spawn(Group::BOTTOM, Region::row_band(13, 3, 16))
            .target(Group::TOP, Region::row_band(13, 3, 16))
            .target(Group::BOTTOM, Region::row_band(0, 3, 16))
            .agents_per_side(20)
            .build()
            .expect("valid");
        assert!(!s.uses_row_fast_path());
        let d = s.distance_data();
        assert_eq!(d.kind, pedsim_grid::DistanceKind::Grid);
        assert_eq!(d.data.len(), 2 * 16 * 16);
        assert_eq!(d.forward, vec![0, 5]);
        assert!(s.is_wall(8, 0) && !s.is_wall(8, 8));
    }

    #[test]
    fn environment_matches_description() {
        let s = Scenario::builder("t", 16, 16)
            .wall_rect(8, 0, 1, 6)
            .spawn(Group::TOP, Region::row_band(0, 3, 16))
            .spawn(Group::BOTTOM, Region::row_band(13, 3, 16))
            .target(Group::TOP, Region::row_band(13, 3, 16))
            .target(Group::BOTTOM, Region::row_band(0, 3, 16))
            .agents_per_side(12)
            .seed(9)
            .build()
            .expect("valid");
        let env = s.build_environment();
        env.check_consistency().expect("consistent");
        assert_eq!(env.mat.count(CELL_WALL), 6);
        assert_eq!(env.mat.count(Group::TOP.label()), 12);
        assert_eq!(env.mat.count(Group::BOTTOM.label()), 12);
        let mask = &env.targets;
        let in_target = |g: Group, r: usize, c: usize| mask.get(r, c) & g.target_bit() != 0;
        assert!(in_target(Group::TOP, 14, 3));
        assert!(!in_target(Group::TOP, 8, 3));
    }

    #[test]
    fn asymmetric_populations_build() {
        let s = Scenario::builder("t", 16, 16)
            .spawn(Group::TOP, Region::row_band(0, 3, 16))
            .spawn(Group::BOTTOM, Region::row_band(13, 3, 16))
            .target(Group::TOP, Region::row_band(13, 3, 16))
            .target(Group::BOTTOM, Region::row_band(0, 3, 16))
            .population(Group::TOP, 5)
            .population(Group::BOTTOM, 30)
            .build()
            .expect("valid");
        assert_eq!(s.populations(), vec![5, 30]);
        assert_eq!(s.total_agents(), 35);
        let env = s.build_environment();
        env.check_consistency().expect("consistent");
        assert_eq!(env.group_sizes, vec![5, 30]);
        assert_eq!(env.mat.count(Group::TOP.label()), 5);
        assert_eq!(env.mat.count(Group::BOTTOM.label()), 30);
        // Index ranges are contiguous: agent 6 belongs to the bottom group.
        assert_eq!(env.group_of(5), Group::TOP);
        assert_eq!(env.group_of(6), Group::BOTTOM);
    }

    #[test]
    fn four_groups_build_and_label() {
        let s = Scenario::builder("plaza", 24, 24)
            .group(Region::rect(0, 4, 4, 16), Region::rect(20, 4, 4, 16), 10)
            .group(Region::rect(20, 4, 4, 16), Region::rect(0, 4, 4, 16), 10)
            .group(Region::rect(4, 0, 16, 4), Region::rect(4, 20, 16, 4), 10)
            .group(Region::rect(4, 20, 16, 4), Region::rect(4, 0, 16, 4), 10)
            .build()
            .expect("valid");
        assert_eq!(s.n_groups(), 4);
        assert_eq!(s.group(Group::new(0)).heading, Heading::Down);
        assert_eq!(s.group(Group::new(1)).heading, Heading::Up);
        assert_eq!(s.group(Group::new(2)).heading, Heading::Right);
        assert_eq!(s.group(Group::new(3)).heading, Heading::Left);
        let d = s.distance_data();
        assert_eq!(d.groups, 4);
        assert_eq!(d.forward, vec![0, 5, 4, 3]);
        let env = s.build_environment();
        env.check_consistency().expect("consistent");
        for gi in 0..4u8 {
            assert_eq!(env.mat.count(gi + 1), 10, "group {gi}");
        }
        // Orthogonal groups' target bits land in the mask.
        let mask = s.target_mask();
        assert_eq!(mask.get(10, 22) & Group::new(2).target_bit(), 4);
    }

    #[test]
    fn validation_rejects_bad_descriptions() {
        let base = || {
            Scenario::builder("t", 16, 16)
                .spawn(Group::TOP, Region::row_band(0, 3, 16))
                .spawn(Group::BOTTOM, Region::row_band(13, 3, 16))
                .target(Group::TOP, Region::row_band(13, 3, 16))
                .target(Group::BOTTOM, Region::row_band(0, 3, 16))
                .agents_per_side(10)
        };
        assert!(base().build().is_ok());
        // Spawn overlapping a wall.
        assert!(matches!(
            base().wall_cell(1, 1).build(),
            Err(ScenarioError::SpawnOverlap { .. })
        ));
        // Overcrowded spawn.
        assert!(matches!(
            base().agents_per_side(49).build(),
            Err(ScenarioError::SpawnTooSmall { .. })
        ));
        // Out-of-bounds wall.
        assert!(matches!(
            base().wall_cell(20, 0).build(),
            Err(ScenarioError::OutOfBounds { .. })
        ));
        // Missing target.
        assert!(matches!(
            Scenario::builder("t", 16, 16)
                .spawn(Group::TOP, Region::row_band(0, 3, 16))
                .spawn(Group::BOTTOM, Region::row_band(13, 3, 16))
                .target(Group::TOP, Region::row_band(13, 3, 16))
                .agents_per_side(10)
                .build(),
            Err(ScenarioError::MissingTarget(1))
        ));
        // No groups at all.
        assert!(matches!(
            Scenario::builder("t", 16, 16).build(),
            Err(ScenarioError::NoGroups)
        ));
        // Fully-walled target.
        assert!(matches!(
            Scenario::builder("t", 16, 16)
                .wall_rect(8, 0, 1, 16)
                .spawn(Group::TOP, Region::row_band(0, 3, 16))
                .spawn(Group::BOTTOM, Region::row_band(13, 3, 16))
                .target(Group::TOP, Region::rect(8, 0, 1, 16))
                .target(Group::BOTTOM, Region::row_band(0, 3, 16))
                .agents_per_side(10)
                .build(),
            Err(ScenarioError::TargetWalled(0))
        ));
        // Overlapping spawns.
        assert!(matches!(
            Scenario::builder("t", 16, 16)
                .spawn(Group::TOP, Region::row_band(0, 3, 16))
                .spawn(Group::BOTTOM, Region::row_band(2, 3, 16))
                .target(Group::TOP, Region::row_band(13, 3, 16))
                .target(Group::BOTTOM, Region::row_band(0, 3, 16))
                .agents_per_side(10)
                .build(),
            Err(ScenarioError::SpawnOverlap { .. })
        ));
    }

    #[test]
    fn heading_override_beats_derivation() {
        let s = Scenario::builder("t", 16, 16)
            .spawn(Group::TOP, Region::row_band(0, 3, 16))
            .spawn(Group::BOTTOM, Region::row_band(13, 3, 16))
            .target(Group::TOP, Region::row_band(13, 3, 16))
            .target(Group::BOTTOM, Region::row_band(0, 3, 16))
            .heading(Group::TOP, Heading::Right)
            .agents_per_side(10)
            .build()
            .expect("valid");
        assert_eq!(s.group(Group::TOP).heading, Heading::Right);
        // A non-corridor heading disables the row fast path.
        assert!(!s.uses_row_fast_path());
    }

    #[test]
    fn seed_round_trip_and_env_config() {
        let s = corridor().with_seed(77);
        assert_eq!(s.seed(), 77);
        let ec = s.env_config();
        assert_eq!(ec.width, 16);
        assert_eq!(ec.seed, 77);
        assert_eq!(ec.spawn_rows, Some(3));
    }

    #[test]
    fn config_hash_is_stable_and_separates_experiments() {
        let a = corridor();
        // Equal descriptions fingerprint equal, including across clones.
        assert_eq!(a.config_hash(), corridor().config_hash());
        assert_eq!(a.config_hash(), a.clone().config_hash());
        // Every trajectory-relevant knob moves the fingerprint.
        assert_ne!(a.config_hash(), corridor().with_seed(6).config_hash());
        let renamed = Scenario::builder("other", 16, 16)
            .spawn(Group::TOP, Region::row_band(0, 3, 16))
            .spawn(Group::BOTTOM, Region::row_band(13, 3, 16))
            .target(Group::TOP, Region::row_band(13, 3, 16))
            .target(Group::BOTTOM, Region::row_band(0, 3, 16))
            .agents_per_side(20)
            .seed(5)
            .build()
            .expect("valid");
        assert_ne!(a.config_hash(), renamed.config_hash());
        let walled = Scenario::builder("t", 16, 16)
            .wall_cell(8, 8)
            .spawn(Group::TOP, Region::row_band(0, 3, 16))
            .spawn(Group::BOTTOM, Region::row_band(13, 3, 16))
            .target(Group::TOP, Region::row_band(13, 3, 16))
            .target(Group::BOTTOM, Region::row_band(0, 3, 16))
            .agents_per_side(20)
            .seed(5)
            .build()
            .expect("valid");
        assert_ne!(a.config_hash(), walled.config_hash());
        // An inflow source changes the experiment too.
        let open = crate::registry::open_corridor(16, 16, 20, 1.0).with_seed(5);
        assert_ne!(open.config_hash(), open.with_seed(9).config_hash());
    }

    #[test]
    fn geometry_hash_ignores_seed_and_population_but_tracks_routing() {
        let a = crate::registry::open_corridor(16, 16, 20, 1.0).with_seed(5);
        // Everything that does not feed the distance field leaves the
        // geometry hash alone: seed, inflow rate, capacity.
        assert_eq!(a.geometry_hash(), a.clone().with_seed(9).geometry_hash());
        assert_eq!(
            a.geometry_hash(),
            crate::registry::open_corridor(16, 16, 10, 4.0).geometry_hash()
        );
        // ... while the full config hash distinguishes all of those.
        assert_ne!(a.config_hash(), a.clone().with_seed(9).config_hash());
        // Routing inputs do move it: extents, walls, targets.
        assert_ne!(
            a.geometry_hash(),
            crate::registry::open_corridor(16, 20, 20, 1.0).geometry_hash()
        );
        assert_ne!(
            corridor().geometry_hash(),
            crate::registry::crossing(16, 10).geometry_hash()
        );
    }

    #[test]
    fn seeded_distance_cache_is_used_and_first_write_wins() {
        let a = crate::registry::crossing(16, 10).with_seed(1);
        let b = crate::registry::crossing(16, 10).with_seed(2);
        assert_eq!(a.geometry_hash(), b.geometry_hash());
        let field = a.distance_data();
        b.seed_distance_cache(field.clone());
        // The injected plane set is served as-is — no recompute.
        assert!(Arc::ptr_eq(&field, &b.distance_data()));
        // Seeding after a field exists is a no-op.
        let other = corridor().distance_data();
        b.seed_distance_cache(other);
        assert!(Arc::ptr_eq(&field, &b.distance_data()));
    }
}
