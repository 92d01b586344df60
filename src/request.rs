//! The [`SessionRequest`] trait: one generic seam for every request the
//! [`Session`](crate::Session) engine can service.
//!
//! PR 1 gave the session four hand-plumbed entry points (`generate`,
//! `library`, `immunity`, `flow`), each re-implementing cache-key
//! construction and memoization, and only cells could fan out through the
//! batch executor. This module retires that shape: every request kind —
//! [`CellRequest`], [`LibraryRequest`], [`ImmunityRequest`],
//! [`FlowRequest`], the composite [`SweepRequest`] /
//! [`SweepCornerRequest`] pair, and the uncached [`TranRequest`] —
//! implements [`SessionRequest`], and
//! memoization, single-flight, and stats accounting live once, in the
//! generic [`Session::run`](crate::Session::run).
//!
//! The trait has three hooks:
//!
//! * [`SessionRequest::cache_key`] — the request's complete memoization
//!   input as a [`CacheKey`], or `None` for requests that must not be
//!   cached at this level (the [`RequestKind`] dispatch wrapper returns
//!   `None` because the inner request memoizes itself);
//! * [`SessionRequest::execute`] — the miss path: the actual work, run
//!   single-flight per key outside the cache locks;
//! * [`SessionRequest::annotate`] — a post-cache touch-up applied to
//!   every result (cells use it to set [`CellResult::cached`]).
//!
//! Heterogeneous mixes go through [`RequestKind`] (an enum over every
//! request kind) and come back as [`ResponseKind`] — the currency of
//! [`Session::submit_all`](crate::Session::submit_all).
//!
//! The trait is sealed: the set of request kinds is fixed per release, so
//! [`CacheKey`] can stay opaque and the session can hold exactly one
//! cache per [`RequestClass`].

use crate::core::generate_from_networks;
use crate::dk::{self, CellLibrary};
use crate::error::{CnfetError, Result};
use crate::flow::{
    assemble_gds_with, full_adder, parse_verilog, place_cmos_with, place_cnfet_with,
    simulate_netlist_with, Tech,
};
use crate::immunity::{certify, simulate};
use crate::macros::{MacroReport, MacroRequest, MacroSliceRequest, SliceOutcome};
use crate::optimize::{
    CandidateOutcome, OptimizeCandidateRequest, OptimizeReport, OptimizeRequest,
};
use crate::repair::{DieOutcome, DieRequest, RepairReport, RepairRequest};
use crate::session::{
    CellKey, CellRequest, CellResult, FlowRequest, FlowResult, FlowSource, FlowTarget,
    ImmunityEngine, ImmunityReport, ImmunityRequest, LibraryRequest, Session, TranRequest,
    TranResult,
};
use crate::sweep::{CornerRow, SweepCornerRequest, SweepReport, SweepRequest};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Request classes and cache keys
// ---------------------------------------------------------------------------

/// The eight request kinds a session services, each with its own
/// memoization cache and per-kind counters in
/// [`SessionStats`](crate::SessionStats).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// One standard-cell layout ([`CellRequest`]).
    Cell,
    /// A full standard-cell library ([`LibraryRequest`]).
    Library,
    /// A mispositioned-CNT immunity verdict ([`ImmunityRequest`]).
    Immunity,
    /// A logic-to-GDSII flow run ([`FlowRequest`]).
    Flow,
    /// A variation-aware characterization sweep — both whole sweeps
    /// ([`SweepRequest`]) and the per-corner sub-requests they fan out
    /// ([`SweepCornerRequest`]) memoize here, so overlapping sweeps share
    /// corner results.
    Sweeps,
    /// A per-die defect-map repair lot — both whole lots
    /// ([`RepairRequest`]) and the per-die sub-requests they fan out
    /// ([`DieRequest`]) memoize here, so overlapping lots share die
    /// outcomes.
    Repairs,
    /// A processing↔circuit co-optimization search — both whole
    /// trajectories ([`OptimizeRequest`]) and the per-candidate outcomes
    /// they derive ([`OptimizeCandidateRequest`]) memoize here, so a
    /// re-run against a different target replays every already-measured
    /// candidate as a hit (the measurements are target-free; only the
    /// scoring depends on the target).
    Optimizations,
    /// A hierarchical arithmetic macro — both whole macros
    /// ([`MacroRequest`]) and the per-bit-slice sub-requests they fan
    /// out ([`MacroSliceRequest`]) memoize here, so overlapping macros
    /// share slice characterizations (and the sub-cell layouts they
    /// recall live in the `Cell` class, shared with library builds).
    Macros,
}

impl RequestClass {
    /// Every request class, in cache order.
    pub const ALL: [RequestClass; 8] = [
        RequestClass::Cell,
        RequestClass::Library,
        RequestClass::Immunity,
        RequestClass::Flow,
        RequestClass::Sweeps,
        RequestClass::Repairs,
        RequestClass::Optimizations,
        RequestClass::Macros,
    ];

    /// Stable index of this class into the session's cache array.
    pub(crate) fn index(self) -> usize {
        match self {
            RequestClass::Cell => 0,
            RequestClass::Library => 1,
            RequestClass::Immunity => 2,
            RequestClass::Flow => 3,
            RequestClass::Sweeps => 4,
            RequestClass::Repairs => 5,
            RequestClass::Optimizations => 6,
            RequestClass::Macros => 7,
        }
    }

    /// Human-readable class name (`"cell"`, `"library"`, …).
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::Cell => "cell",
            RequestClass::Library => "library",
            RequestClass::Immunity => "immunity",
            RequestClass::Flow => "flow",
            RequestClass::Sweeps => "sweeps",
            RequestClass::Repairs => "repairs",
            RequestClass::Optimizations => "optimizations",
            RequestClass::Macros => "macros",
        }
    }
}

/// A request's complete memoization input: which cache it lives in plus
/// everything that distinguishes two non-interchangeable requests of that
/// class. Two requests with equal keys are served the same cached result.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey(pub(crate) KeyInner);

/// The class-tagged key payload. Each variant belongs to exactly one
/// request class — the tag is what lets all four caches share one value
/// representation without keys of different kinds ever colliding.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum KeyInner {
    /// Cells: the full generation input (see [`CellKey`]).
    Cell(CellKey),
    /// Libraries: the request itself (scheme) is the complete input.
    Library(LibraryRequest),
    /// Immunity: the analyzed cell's key plus a canonical rendering of
    /// the engine selection (`McOptions` holds floats, so the engine is
    /// keyed by its exact `Debug` form — equal options render equally,
    /// distinct options render distinctly).
    Immunity { cell: CellKey, engine: String },
    /// Flows: the request's canonical `Debug` rendering, which covers
    /// source, target, simulation spec and GDS flag.
    Flow(String),
    /// Whole sweeps: a canonical rendering of the resolved cell keys plus
    /// the grid, metric selection, MC base options, and loads.
    Sweep(String),
    /// One sweep corner: the resolved cell key plus the corner and the
    /// metric/MC/load configuration. Lives in the [`RequestClass::Sweeps`]
    /// cache next to whole sweeps — the variant tag keeps a one-corner
    /// sweep and its own corner from ever colliding.
    SweepCorner(String),
    /// Whole repair lots: a canonical rendering of the resolved cell
    /// keys plus the lot size, seed, spare count, process parameters,
    /// solver, and adjacency constraints.
    Repair(String),
    /// One die's repair: the same rendering with the die *index* in
    /// place of the lot size — never the surrounding lot's die count, so
    /// overlapping lots share die outcomes. Lives in the
    /// [`RequestClass::Repairs`] cache next to whole lots; the variant
    /// tag keeps a one-die lot and its own die from ever colliding.
    Die(String),
    /// Whole optimization trajectories: a canonical rendering of the
    /// resolved cell keys plus the search grid, target, pass count,
    /// metric selection, MC base options, and loads.
    Optimize(String),
    /// One measured candidate: the resolved cell keys plus the
    /// candidate's canonical corner coordinates and the seed/metric/MC/
    /// load configuration — never the target, so re-targeted searches
    /// replay measured candidates as hits. Lives in the
    /// [`RequestClass::Optimizations`] cache next to whole trajectories.
    OptimizeCandidate(String),
    /// Whole adder macros: a canonical rendering of the kind, width,
    /// scheme and jitter seed (the attached observer is *observation,
    /// not identity* — excluded, like every other composite's).
    Macro(String),
    /// One bit slice's characterization: the same rendering plus the
    /// bit index. The macro *width* stays in the key — a CLA bit's
    /// prefix-tree fan-out depends on the width it sits in, so equal
    /// bits of different widths are different work. Lives in the
    /// [`RequestClass::Macros`] cache next to whole macros.
    MacroSlice(String),
}

impl CacheKey {
    /// Which request class (and therefore which session cache) this key
    /// belongs to.
    pub fn class(&self) -> RequestClass {
        match self.0 {
            KeyInner::Cell(_) => RequestClass::Cell,
            KeyInner::Library(_) => RequestClass::Library,
            KeyInner::Immunity { .. } => RequestClass::Immunity,
            KeyInner::Flow(_) => RequestClass::Flow,
            KeyInner::Sweep(_) | KeyInner::SweepCorner(_) => RequestClass::Sweeps,
            KeyInner::Repair(_) | KeyInner::Die(_) => RequestClass::Repairs,
            KeyInner::Optimize(_) | KeyInner::OptimizeCandidate(_) => RequestClass::Optimizations,
            KeyInner::Macro(_) | KeyInner::MacroSlice(_) => RequestClass::Macros,
        }
    }
}

mod sealed {
    /// Seals [`SessionRequest`](super::SessionRequest): the request-kind
    /// set is fixed per release so cache keys stay class-exact.
    pub trait Sealed {}
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// A typed request the [`Session`] engine can service generically.
///
/// Implementations define where a result is memoized ([`cache_key`]) and
/// how it is produced on a miss ([`execute`]); the session supplies the
/// rest — sharded caching, per-key single-flight, stats accounting, batch
/// fan-out ([`Session::run_batch`](crate::Session::run_batch)) and
/// non-blocking submission ([`Session::submit`](crate::Session::submit)).
///
/// This trait is sealed; the implementors are [`CellRequest`],
/// [`LibraryRequest`], [`ImmunityRequest`], [`FlowRequest`], the
/// composite [`SweepRequest`] with its per-corner
/// [`SweepCornerRequest`], the uncached [`TranRequest`], and the
/// heterogeneous [`RequestKind`] wrapper.
///
/// [`cache_key`]: SessionRequest::cache_key
/// [`execute`]: SessionRequest::execute
pub trait SessionRequest: sealed::Sealed {
    /// What the request resolves to. Outputs are cloned out of the cache
    /// on every hit, so they are cheap handles ([`Arc`]-backed where the
    /// payload is large).
    type Output: Clone + Send + Sync + 'static;

    /// The complete memoization input of this request, or `None` when
    /// the request must not be cached under its own key (dispatch
    /// wrappers whose inner request memoizes itself). Requests that
    /// resolve session defaults (a [`CellRequest`] with `options: None`)
    /// fold the resolved defaults into the key, so implicit and explicit
    /// defaults share one entry.
    fn cache_key(&self, session: &Session) -> Option<CacheKey>;

    /// The miss path: performs the actual work. Runs outside the cache
    /// shard locks, single-flight per key — concurrent requests for the
    /// same key run one `execute`; the rest wait and hit.
    fn execute(&self, session: &Session) -> Result<Self::Output>;

    /// Post-cache touch-up applied to every result of
    /// [`Session::run`](crate::Session::run), with `cached` telling
    /// whether the value came from an earlier (or concurrent) build.
    /// The default keeps the output unchanged.
    fn annotate(output: Self::Output, cached: bool) -> Self::Output {
        let _ = cached;
        output
    }
}

// ---------------------------------------------------------------------------
// The four request kinds
// ---------------------------------------------------------------------------

impl sealed::Sealed for CellRequest {}

impl SessionRequest for CellRequest {
    type Output = CellResult;

    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        Some(CacheKey(KeyInner::Cell(session.catalog_key(self).0)))
    }

    fn execute(&self, session: &Session) -> Result<CellResult> {
        let opts = session.resolve_options(self);
        let strength = self.strength.max(1);
        let mut cell = if strength <= 1 {
            crate::core::generate_cell(self.kind, &opts)?
        } else {
            let (pdn, pun, vars) = dk::fingered_networks(self.kind, strength);
            let name = self
                .name
                .clone()
                .unwrap_or_else(|| CellLibrary::cell_name(self.kind, strength));
            generate_from_networks(name, self.kind, pdn, pun, vars, &opts)?
        };
        if let Some(name) = &self.name {
            cell.name = name.clone();
        }
        Ok(CellResult {
            cell: Arc::new(cell),
            cached: false,
        })
    }

    fn annotate(mut output: CellResult, cached: bool) -> CellResult {
        output.cached = cached;
        output
    }
}

impl sealed::Sealed for LibraryRequest {}

impl SessionRequest for LibraryRequest {
    type Output = Arc<CellLibrary>;

    fn cache_key(&self, _session: &Session) -> Option<CacheKey> {
        Some(CacheKey(KeyInner::Library(*self)))
    }

    /// Builds the full function × strength matrix of the session's kit,
    /// every layout drawn through the session's cell cache.
    fn execute(&self, session: &Session) -> Result<Arc<CellLibrary>> {
        let opts = dk::library_options(session.kit(), self.scheme);
        let built = dk::build_library_with(session.kit(), self.scheme, |kind, strength| {
            let req = CellRequest {
                kind,
                strength,
                options: Some(opts.clone()),
                name: Some(CellLibrary::cell_name(kind, strength)),
            };
            match session.run(&req) {
                Ok(result) => Ok(result.cell),
                Err(CnfetError::Generate(e)) => Err(e),
                Err(other) => {
                    unreachable!("cell generation only fails with GenerateError: {other}")
                }
            }
        })?;
        Ok(Arc::new(built))
    }
}

impl sealed::Sealed for ImmunityRequest {}

impl SessionRequest for ImmunityRequest {
    type Output = ImmunityReport;

    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        Some(CacheKey(KeyInner::Immunity {
            cell: session.catalog_key(&self.cell).0,
            engine: format!("{:?}", self.engine),
        }))
    }

    /// Generates (or recalls) the cell through the session, then runs the
    /// requested engine(s). The whole report is memoized, so repeating an
    /// analysis (certification or a deterministic seeded Monte-Carlo) is
    /// a pure immunity-cache hit that never touches the cell cache.
    fn execute(&self, session: &Session) -> Result<ImmunityReport> {
        let cell = session.run(&self.cell)?.cell;
        let (cert, mc) = match &self.engine {
            ImmunityEngine::Certify => (Some(certify(&cell.semantics)), None),
            ImmunityEngine::MonteCarlo(opts) => (None, Some(simulate(&cell.semantics, opts))),
            ImmunityEngine::Both(opts) => (
                Some(certify(&cell.semantics)),
                Some(simulate(&cell.semantics, opts)),
            ),
        };
        let immune =
            cert.as_ref().is_none_or(|c| c.immune) && mc.as_ref().is_none_or(|m| m.failures == 0);
        Ok(ImmunityReport {
            cell,
            immune,
            cert,
            mc,
        })
    }
}

impl sealed::Sealed for FlowRequest {}

impl SessionRequest for FlowRequest {
    type Output = FlowResult;

    fn cache_key(&self, _session: &Session) -> Option<CacheKey> {
        Some(CacheKey(KeyInner::Flow(format!("{self:?}"))))
    }

    /// Runs the flow end to end: netlist → placement → optional
    /// transistor-level simulation → optional GDSII, with the library
    /// build served from the session cache.
    fn execute(&self, session: &Session) -> Result<FlowResult> {
        let netlist = match &self.source {
            FlowSource::FullAdder => full_adder(),
            FlowSource::Verilog(src) => parse_verilog(src)?,
            FlowSource::Netlist(n) => n.clone(),
        };
        let scheme = match self.target {
            FlowTarget::Cnfet(scheme) => scheme,
            // The CMOS baseline derives its widths from the Scheme-1
            // CNFET library (identical λ rules).
            FlowTarget::Cmos => crate::core::Scheme::Scheme1,
        };
        let lib = session.run(&LibraryRequest::new(scheme))?;
        for inst in &netlist.instances {
            let name = CellLibrary::cell_name(inst.kind, inst.strength);
            if lib.cell(&name).is_none() {
                return Err(CnfetError::MissingCell(name));
            }
        }
        let placement = match self.target {
            FlowTarget::Cnfet(_) => place_cnfet_with(&netlist, &lib),
            FlowTarget::Cmos => place_cmos_with(session.kit(), &netlist, &lib),
        };
        let metrics = match &self.sim {
            Some(spec) => {
                let tech = match self.target {
                    FlowTarget::Cnfet(_) => Tech::Cnfet,
                    FlowTarget::Cmos => Tech::Cmos,
                };
                Some(simulate_netlist_with(
                    session.kit(),
                    &netlist,
                    &placement,
                    tech,
                    &spec.toggle_in,
                    &spec.ties,
                    &spec.watch_out,
                )?)
            }
            None => None,
        };
        let gds = if self.emit_gds && matches!(self.target, FlowTarget::Cnfet(_)) {
            Some(assemble_gds_with(&netlist.name, &placement, &lib))
        } else {
            None
        };
        Ok(FlowResult {
            netlist,
            placement,
            metrics,
            gds,
        })
    }
}

impl sealed::Sealed for TranRequest {}

impl SessionRequest for TranRequest {
    type Output = TranResult;

    /// `None`: transient runs are never memoized — waveforms are bulky
    /// one-shot payloads keyed by free-form deck text (see
    /// [`TranRequest`]).
    fn cache_key(&self, _session: &Session) -> Option<CacheKey> {
        None
    }

    /// Parses the deck, lowers it to MNA form, and integrates: one
    /// symbolic analysis, one pivot search reused across every timestep,
    /// and — for a deck without FETs — one numeric factorization for the
    /// DC point and one per step size, after which each step only
    /// re-solves ([`crate::mna`]).
    fn execute(&self, _session: &Session) -> Result<TranResult> {
        let spec_err =
            |message: String| CnfetError::Deck(crate::spice::DeckError { line: 0, message });
        if !(self.dt > 0.0 && self.dt.is_finite()) {
            return Err(spec_err(format!(
                "tran dt must be positive and finite, got {:e}",
                self.dt
            )));
        }
        if !(self.t_stop > 0.0 && self.t_stop.is_finite()) {
            return Err(spec_err(format!(
                "tran t_stop must be positive and finite, got {:e}",
                self.t_stop
            )));
        }
        let circuit = crate::spice::Circuit::from_spice(&self.deck)?;
        let probes: Vec<(String, usize)> = if self.probes.is_empty() {
            (1..circuit.node_count())
                .map(|n| (circuit.node_name(crate::spice::Node(n)).to_string(), n))
                .collect()
        } else {
            self.probes
                .iter()
                .map(|name| {
                    circuit
                        .find_node(name)
                        .map(|node| (name.clone(), node.0))
                        .ok_or_else(|| spec_err(format!("unknown probe node `{name}`")))
                })
                .collect::<Result<_>>()?
        };
        let mna = crate::spice::to_mna(&circuit);
        let pattern = Arc::new(crate::mna::Pattern::analyze(&mna));
        let mut engine = crate::mna::Engine::new(pattern);
        let wave = engine
            .tran(&mna, &crate::mna::TranSpec::new(self.dt, self.t_stop))
            .map_err(crate::spice::SimError::from)?;
        Ok(TranResult {
            time: wave.time().to_vec(),
            probes: probes
                .into_iter()
                .map(|(name, n)| (name, wave.voltage(n).to_vec()))
                .collect(),
        })
    }
}

// ---------------------------------------------------------------------------
// Variation sweeps (composite requests)
// ---------------------------------------------------------------------------

impl sealed::Sealed for SweepRequest {}

impl SessionRequest for SweepRequest {
    type Output = Arc<SweepReport>;

    /// Whole-sweep memoization: cell keys are resolved against the
    /// session defaults (so implicit and explicit default options share
    /// one entry, exactly like direct cell requests), then combined with
    /// the **canonicalized** grid (`-0.0` folded to `0.0` — two
    /// semantically identical grids must never render distinct keys),
    /// the metric selection, MC base options and load list. A grid with
    /// an invalid float axis (NaN, infinite, negative) gets no key at
    /// all: `execute` rejects it, and an uncacheable request can neither
    /// poison a single-flight entry nor occupy a cache slot.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        if self.grid.validate("grid").is_err() {
            return None;
        }
        let cell_keys: Vec<CellKey> = self
            .cells
            .iter()
            .map(|cell| session.catalog_key(cell).0)
            .collect();
        Some(CacheKey(KeyInner::Sweep(format!(
            "{cell_keys:?}|{:?}|{:?}|{:?}|{:?}",
            self.grid.clone().canonical(),
            self.metrics,
            self.mc,
            self.loads_f
        ))))
    }

    /// Fans the corner × cell cross-product out through the session's
    /// job pool (one [`SweepCornerRequest`] per pair, each memoized in
    /// the [`RequestClass::Sweeps`] cache) and reduces the rows into a
    /// [`SweepReport`]. See [`crate::sweep`] for the full semantics,
    /// including how the executing thread helps drain the pool so a
    /// bounded worker set can never deadlock on the fan-out.
    fn execute(&self, session: &Session) -> Result<Arc<SweepReport>> {
        crate::sweep::execute_sweep(self, session)
    }
}

impl sealed::Sealed for SweepCornerRequest {}

impl SessionRequest for SweepCornerRequest {
    type Output = CornerRow;

    /// Per-corner memoization, keyed by the **canonical** corner (`-0.0`
    /// folded to `0.0`, exactly like the whole-sweep key). Invalid float
    /// fields (NaN, infinite, negative) yield no key — the corner
    /// executes uncached and `execute` rejects it.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        if self.corner.validate("corner").is_err() {
            return None;
        }
        let cell_key = session.catalog_key(&self.cell).0;
        Some(CacheKey(KeyInner::SweepCorner(format!(
            "{cell_key:?}|{:?}|{:?}|{:?}|{:?}",
            self.corner.canonical(),
            self.metrics,
            self.mc,
            self.loads_f
        ))))
    }

    fn execute(&self, session: &Session) -> Result<CornerRow> {
        crate::sweep::execute_corner(self, session)
    }
}

// ---------------------------------------------------------------------------
// Die repair (composite requests)
// ---------------------------------------------------------------------------

impl sealed::Sealed for RepairRequest {}

impl SessionRequest for RepairRequest {
    type Output = Arc<RepairReport>;

    /// Whole-lot memoization: cell keys are resolved against the session
    /// defaults (implicit and explicit defaults share one entry), then
    /// combined with the lot size, seed, spare count, process
    /// parameters, solver, and adjacency constraints. The attached
    /// [`DieObserver`](crate::DieObserver), if any, is deliberately
    /// excluded — observation is not identity.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        let cell_keys: Vec<CellKey> = self
            .cells
            .iter()
            .map(|cell| session.catalog_key(cell).0)
            .collect();
        Some(CacheKey(KeyInner::Repair(format!(
            "{cell_keys:?}|{}|{}|{}|{:?}|{:?}|{:?}",
            self.dies, self.base_seed, self.spares, self.params, self.solver, self.adjacent
        ))))
    }

    /// Fans one [`DieRequest`] per die out through the session's job
    /// pool (each memoized in the [`RequestClass::Repairs`] cache) and
    /// reduces the outcomes into a [`RepairReport`]. See
    /// [`crate::repair`] for the full semantics, including the
    /// batch-targeted helping rule that keeps the fan-out deadlock-free
    /// on a bounded worker set.
    fn execute(&self, session: &Session) -> Result<Arc<RepairReport>> {
        crate::repair::execute_repair(self, session)
    }
}

impl sealed::Sealed for DieRequest {}

impl SessionRequest for DieRequest {
    type Output = DieOutcome;

    /// Per-die memoization: keyed by the die *index* within the seeded
    /// stream, never by any surrounding lot's size — a lot that overlaps
    /// an earlier one re-executes only the dies it adds.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        let cell_keys: Vec<CellKey> = self
            .cells
            .iter()
            .map(|cell| session.catalog_key(cell).0)
            .collect();
        Some(CacheKey(KeyInner::Die(format!(
            "{cell_keys:?}|{}|{}|{}|{:?}|{:?}|{:?}",
            self.die, self.base_seed, self.spares, self.params, self.solver, self.adjacent
        ))))
    }

    fn execute(&self, session: &Session) -> Result<DieOutcome> {
        crate::repair::execute_die(self, session)
    }
}

// ---------------------------------------------------------------------------
// Processing↔circuit co-optimization (composite requests)
// ---------------------------------------------------------------------------

impl sealed::Sealed for OptimizeRequest {}

impl SessionRequest for OptimizeRequest {
    type Output = Arc<OptimizeReport>;

    /// Whole-trajectory memoization: resolved cell keys plus the
    /// **canonicalized** search grid, the target, the pass count, and the
    /// metric/MC/load configuration. An invalid request (NaN axis, empty
    /// schedule, zero passes) gets no key — `execute` rejects it before
    /// it can occupy a cache slot. The attached
    /// [`CandidateObserver`](crate::optimize::CandidateObserver), if
    /// any, is deliberately excluded — observation is not identity.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        if self.validate().is_err() {
            return None;
        }
        let cell_keys: Vec<CellKey> = self
            .cells
            .iter()
            .map(|cell| session.catalog_key(cell).0)
            .collect();
        Some(CacheKey(KeyInner::Optimize(format!(
            "{cell_keys:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}",
            self.grid.clone().canonical(),
            self.target.canonical(),
            self.passes,
            self.metrics,
            self.mc,
            self.loads_f
        ))))
    }

    /// Runs the coordinate-descent / successive-halving search: each
    /// round fans candidate sweeps through the session's job pool
    /// (batch-targeted helping, like every composite) and scores the
    /// memoized [`CandidateOutcome`]s against the target. See
    /// [`crate::optimize`] for the full schedule.
    fn execute(&self, session: &Session) -> Result<Arc<OptimizeReport>> {
        crate::optimize::execute_optimize(self, session)
    }
}

impl sealed::Sealed for OptimizeCandidateRequest {}

impl SessionRequest for OptimizeCandidateRequest {
    type Output = CandidateOutcome;

    /// Per-candidate memoization: resolved cell keys plus the
    /// candidate's **canonical** coordinates and the seed/metric/MC/load
    /// configuration — never any target, so a widened or re-targeted
    /// search replays every already-measured candidate as a pure
    /// `Optimizations`-class hit.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        if self.validate().is_err() {
            return None;
        }
        let cell_keys: Vec<CellKey> = self
            .cells
            .iter()
            .map(|cell| session.catalog_key(cell).0)
            .collect();
        let canonical = self.clone().canonical();
        Some(CacheKey(KeyInner::OptimizeCandidate(format!(
            "{cell_keys:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            canonical.tubes_per_4lambda,
            canonical.pitch_scale,
            canonical.metallic_fraction,
            canonical.seeds,
            canonical.metrics,
            canonical.mc,
            canonical.loads_f
        ))))
    }

    /// Reduces the candidate's (memoized) sweep into target-free
    /// aggregate measurements. The sweep itself is a pure hit whenever
    /// the surrounding optimizer already fanned it out.
    fn execute(&self, session: &Session) -> Result<CandidateOutcome> {
        crate::optimize::execute_candidate(self, session)
    }
}

// ---------------------------------------------------------------------------
// Hierarchical arithmetic macros (composite requests)
// ---------------------------------------------------------------------------

impl sealed::Sealed for MacroRequest {}

impl SessionRequest for MacroRequest {
    type Output = Arc<MacroReport>;

    /// Whole-macro memoization: kind, width, scheme, jitter seed. A
    /// request with an unsupported width gets no key — `execute` rejects
    /// it before it can occupy a cache slot. The attached
    /// [`SliceObserver`](crate::SliceObserver), if any, is deliberately
    /// excluded — observation is not identity.
    fn cache_key(&self, _session: &Session) -> Option<CacheKey> {
        if self.validate().is_err() {
            return None;
        }
        Some(CacheKey(KeyInner::Macro(format!(
            "{:?}|{}|{:?}|{}",
            self.kind, self.width, self.scheme, self.seed
        ))))
    }

    /// Fans one slice per bit through the session's job pool
    /// (batch-targeted helping, like every composite), then composes,
    /// places and assembles the two-deep hierarchy. See [`crate::macros`].
    fn execute(&self, session: &Session) -> Result<Arc<MacroReport>> {
        crate::macros::execute_macro(self, session)
    }
}

impl sealed::Sealed for MacroSliceRequest {}

impl SessionRequest for MacroSliceRequest {
    type Output = SliceOutcome;

    /// Per-slice memoization: the whole-macro rendering plus the bit
    /// index. Width stays in the key (a CLA bit's fan-out depends on
    /// it); cross-macro sharing happens one level down, in the `Cell`
    /// class the slice's sub-cell layouts memoize in.
    fn cache_key(&self, _session: &Session) -> Option<CacheKey> {
        Some(CacheKey(KeyInner::MacroSlice(format!(
            "{:?}|{}|{}|{:?}|{}",
            self.kind, self.width, self.bit, self.scheme, self.seed
        ))))
    }

    fn execute(&self, session: &Session) -> Result<SliceOutcome> {
        crate::macros::execute_slice(self, session)
    }
}

// ---------------------------------------------------------------------------
// Custom cells (explicit pull networks)
// ---------------------------------------------------------------------------

/// The request behind
/// [`Session::generate_custom`](crate::Session::generate_custom): a cell
/// from explicit pull networks, memoized like any catalog request.
#[derive(Clone, Debug)]
pub(crate) struct CustomCellRequest {
    pub(crate) name: String,
    pub(crate) pdn: crate::logic::SpNetwork,
    pub(crate) pun: crate::logic::SpNetwork,
    pub(crate) vars: crate::logic::VarTable,
    pub(crate) options: Option<crate::core::GenerateOptions>,
}

impl sealed::Sealed for CustomCellRequest {}

impl SessionRequest for CustomCellRequest {
    type Output = CellResult;

    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        let opts = self
            .options
            .clone()
            .unwrap_or_else(|| session.defaults().clone());
        Some(CacheKey(KeyInner::Cell(CellKey::Custom {
            name: self.name.clone(),
            pdn: self.pdn.clone(),
            pun: self.pun.clone(),
            var_names: self.vars.iter().map(|(_, n)| n.to_string()).collect(),
            opts,
        })))
    }

    fn execute(&self, session: &Session) -> Result<CellResult> {
        let opts = self
            .options
            .clone()
            .unwrap_or_else(|| session.defaults().clone());
        let cell = generate_from_networks(
            self.name.clone(),
            crate::core::StdCellKind::Inv,
            self.pdn.clone(),
            self.pun.clone(),
            self.vars.clone(),
            &opts,
        )?;
        Ok(CellResult {
            cell: Arc::new(cell),
            cached: false,
        })
    }

    fn annotate(mut output: CellResult, cached: bool) -> CellResult {
        output.cached = cached;
        output
    }
}

// ---------------------------------------------------------------------------
// Heterogeneous requests
// ---------------------------------------------------------------------------

/// Any one of the request kinds, for heterogeneous mixes: a list of
/// `RequestKind`s is what [`Session::submit_all`](crate::Session::submit_all)
/// fans out across the job pool. Dispatch is free of double caching —
/// the wrapper itself is never memoized; the inner request is, under its
/// own key, so a wrapped and an unwrapped request share one cache entry.
#[derive(Clone, Debug)]
pub enum RequestKind {
    /// A [`CellRequest`].
    Cell(CellRequest),
    /// A [`LibraryRequest`].
    Library(LibraryRequest),
    /// An [`ImmunityRequest`].
    Immunity(ImmunityRequest),
    /// A [`FlowRequest`].
    Flow(FlowRequest),
    /// A composite [`SweepRequest`] (itself fans out per-corner
    /// sub-requests on the same pool).
    Sweep(SweepRequest),
    /// One sweep corner ([`SweepCornerRequest`]) — the currency of a
    /// sweep's internal fan-out, also submittable directly.
    SweepCorner(SweepCornerRequest),
    /// A composite [`RepairRequest`] (fans out per-die sub-requests on
    /// the same pool).
    Repair(RepairRequest),
    /// One die's repair ([`DieRequest`]) — the currency of a repair
    /// lot's internal fan-out, also submittable directly.
    Die(DieRequest),
    /// A composite [`OptimizeRequest`]: a co-optimization search that
    /// fans candidate sweeps (themselves composites) out on the same
    /// pool — the deepest nesting the engine runs (optimize → sweeps →
    /// corners → cells).
    Optimize(OptimizeRequest),
    /// A composite [`MacroRequest`] (fans out per-bit-slice
    /// sub-requests on the same pool).
    Macro(MacroRequest),
    /// One bit slice ([`MacroSliceRequest`]) — the currency of a
    /// macro's internal fan-out, also submittable directly.
    MacroSlice(MacroSliceRequest),
    /// A deck transient run ([`TranRequest`]) — the one uncached kind:
    /// it belongs to no [`RequestClass`] and executes fresh every time.
    Tran(TranRequest),
}

impl RequestKind {
    /// The wrapped sweep, if this is a [`RequestKind::Sweep`]. Mutable so
    /// embedders can attach a
    /// [`RowObserver`](crate::sweep::RowObserver) to a sweep arriving as
    /// a heterogeneous submission (the serve tier's job streaming does
    /// exactly this before handing the mix to
    /// [`Session::submit_all`](crate::Session::submit_all)).
    pub fn as_sweep_mut(&mut self) -> Option<&mut SweepRequest> {
        match self {
            RequestKind::Sweep(r) => Some(r),
            _ => None,
        }
    }

    /// The wrapped repair lot, if this is a [`RequestKind::Repair`].
    /// Mutable for the same reason as [`RequestKind::as_sweep_mut`]: the
    /// serve tier attaches a [`DieObserver`](crate::DieObserver) to lots
    /// arriving as heterogeneous submissions before handing the mix to
    /// [`Session::submit_all`](crate::Session::submit_all).
    pub fn as_repair_mut(&mut self) -> Option<&mut RepairRequest> {
        match self {
            RequestKind::Repair(r) => Some(r),
            _ => None,
        }
    }

    /// The wrapped optimization, if this is a [`RequestKind::Optimize`].
    /// Mutable for the same reason as [`RequestKind::as_sweep_mut`]: the
    /// serve tier attaches a
    /// [`CandidateObserver`](crate::optimize::CandidateObserver) to
    /// searches arriving as heterogeneous submissions before handing the
    /// mix to [`Session::submit_all`](crate::Session::submit_all).
    pub fn as_optimize_mut(&mut self) -> Option<&mut OptimizeRequest> {
        match self {
            RequestKind::Optimize(r) => Some(r),
            _ => None,
        }
    }

    /// The wrapped macro, if this is a [`RequestKind::Macro`]. Mutable
    /// for the same reason as [`RequestKind::as_sweep_mut`]: the serve
    /// tier attaches a [`SliceObserver`](crate::SliceObserver) to macros
    /// arriving as heterogeneous submissions before handing the mix to
    /// [`Session::submit_all`](crate::Session::submit_all).
    pub fn as_macro_mut(&mut self) -> Option<&mut MacroRequest> {
        match self {
            RequestKind::Macro(r) => Some(r),
            _ => None,
        }
    }

    /// Which request class this wraps, or `None` for the uncached
    /// [`RequestKind::Tran`].
    pub fn class(&self) -> Option<RequestClass> {
        match self {
            RequestKind::Cell(_) => Some(RequestClass::Cell),
            RequestKind::Library(_) => Some(RequestClass::Library),
            RequestKind::Immunity(_) => Some(RequestClass::Immunity),
            RequestKind::Flow(_) => Some(RequestClass::Flow),
            RequestKind::Sweep(_) | RequestKind::SweepCorner(_) => Some(RequestClass::Sweeps),
            RequestKind::Repair(_) | RequestKind::Die(_) => Some(RequestClass::Repairs),
            RequestKind::Optimize(_) => Some(RequestClass::Optimizations),
            RequestKind::Macro(_) | RequestKind::MacroSlice(_) => Some(RequestClass::Macros),
            RequestKind::Tran(_) => None,
        }
    }
}

impl From<CellRequest> for RequestKind {
    fn from(r: CellRequest) -> RequestKind {
        RequestKind::Cell(r)
    }
}

impl From<LibraryRequest> for RequestKind {
    fn from(r: LibraryRequest) -> RequestKind {
        RequestKind::Library(r)
    }
}

impl From<ImmunityRequest> for RequestKind {
    fn from(r: ImmunityRequest) -> RequestKind {
        RequestKind::Immunity(r)
    }
}

impl From<FlowRequest> for RequestKind {
    fn from(r: FlowRequest) -> RequestKind {
        RequestKind::Flow(r)
    }
}

impl From<SweepRequest> for RequestKind {
    fn from(r: SweepRequest) -> RequestKind {
        RequestKind::Sweep(r)
    }
}

impl From<SweepCornerRequest> for RequestKind {
    fn from(r: SweepCornerRequest) -> RequestKind {
        RequestKind::SweepCorner(r)
    }
}

impl From<RepairRequest> for RequestKind {
    fn from(r: RepairRequest) -> RequestKind {
        RequestKind::Repair(r)
    }
}

impl From<DieRequest> for RequestKind {
    fn from(r: DieRequest) -> RequestKind {
        RequestKind::Die(r)
    }
}

impl From<OptimizeRequest> for RequestKind {
    fn from(r: OptimizeRequest) -> RequestKind {
        RequestKind::Optimize(r)
    }
}

impl From<MacroRequest> for RequestKind {
    fn from(r: MacroRequest) -> RequestKind {
        RequestKind::Macro(r)
    }
}

impl From<MacroSliceRequest> for RequestKind {
    fn from(r: MacroSliceRequest) -> RequestKind {
        RequestKind::MacroSlice(r)
    }
}

impl From<TranRequest> for RequestKind {
    fn from(r: TranRequest) -> RequestKind {
        RequestKind::Tran(r)
    }
}

/// The answer to a [`RequestKind`]: the matching result kind, one variant
/// per request kind.
#[derive(Clone, Debug)]
pub enum ResponseKind {
    /// Result of a [`RequestKind::Cell`].
    Cell(CellResult),
    /// Result of a [`RequestKind::Library`].
    Library(Arc<CellLibrary>),
    /// Result of a [`RequestKind::Immunity`].
    Immunity(ImmunityReport),
    /// Result of a [`RequestKind::Flow`].
    Flow(FlowResult),
    /// Result of a [`RequestKind::Sweep`].
    Sweep(Arc<SweepReport>),
    /// Result of a [`RequestKind::SweepCorner`].
    SweepCorner(CornerRow),
    /// Result of a [`RequestKind::Repair`].
    Repair(Arc<RepairReport>),
    /// Result of a [`RequestKind::Die`].
    Die(DieOutcome),
    /// Result of a [`RequestKind::Optimize`].
    Optimize(Arc<OptimizeReport>),
    /// Result of a [`RequestKind::Macro`].
    Macro(Arc<MacroReport>),
    /// Result of a [`RequestKind::MacroSlice`].
    MacroSlice(SliceOutcome),
    /// Result of a [`RequestKind::Tran`].
    Tran(TranResult),
}

impl ResponseKind {
    /// Which request class produced this response, or `None` for the
    /// uncached [`ResponseKind::Tran`].
    pub fn class(&self) -> Option<RequestClass> {
        match self {
            ResponseKind::Cell(_) => Some(RequestClass::Cell),
            ResponseKind::Library(_) => Some(RequestClass::Library),
            ResponseKind::Immunity(_) => Some(RequestClass::Immunity),
            ResponseKind::Flow(_) => Some(RequestClass::Flow),
            ResponseKind::Sweep(_) | ResponseKind::SweepCorner(_) => Some(RequestClass::Sweeps),
            ResponseKind::Repair(_) | ResponseKind::Die(_) => Some(RequestClass::Repairs),
            ResponseKind::Optimize(_) => Some(RequestClass::Optimizations),
            ResponseKind::Macro(_) | ResponseKind::MacroSlice(_) => Some(RequestClass::Macros),
            ResponseKind::Tran(_) => None,
        }
    }

    /// The cell result, if this is a [`ResponseKind::Cell`].
    pub fn into_cell(self) -> Option<CellResult> {
        match self {
            ResponseKind::Cell(r) => Some(r),
            _ => None,
        }
    }

    /// The library, if this is a [`ResponseKind::Library`].
    pub fn into_library(self) -> Option<Arc<CellLibrary>> {
        match self {
            ResponseKind::Library(r) => Some(r),
            _ => None,
        }
    }

    /// The immunity report, if this is a [`ResponseKind::Immunity`].
    pub fn into_immunity(self) -> Option<ImmunityReport> {
        match self {
            ResponseKind::Immunity(r) => Some(r),
            _ => None,
        }
    }

    /// The flow result, if this is a [`ResponseKind::Flow`].
    pub fn into_flow(self) -> Option<FlowResult> {
        match self {
            ResponseKind::Flow(r) => Some(r),
            _ => None,
        }
    }

    /// The sweep report, if this is a [`ResponseKind::Sweep`].
    pub fn into_sweep(self) -> Option<Arc<SweepReport>> {
        match self {
            ResponseKind::Sweep(r) => Some(r),
            _ => None,
        }
    }

    /// The corner row, if this is a [`ResponseKind::SweepCorner`].
    pub fn into_sweep_corner(self) -> Option<CornerRow> {
        match self {
            ResponseKind::SweepCorner(r) => Some(r),
            _ => None,
        }
    }

    /// The repair report, if this is a [`ResponseKind::Repair`].
    pub fn into_repair(self) -> Option<Arc<RepairReport>> {
        match self {
            ResponseKind::Repair(r) => Some(r),
            _ => None,
        }
    }

    /// The die outcome, if this is a [`ResponseKind::Die`].
    pub fn into_die(self) -> Option<DieOutcome> {
        match self {
            ResponseKind::Die(r) => Some(r),
            _ => None,
        }
    }

    /// The optimization report, if this is a [`ResponseKind::Optimize`].
    pub fn into_optimize(self) -> Option<Arc<OptimizeReport>> {
        match self {
            ResponseKind::Optimize(r) => Some(r),
            _ => None,
        }
    }

    /// The macro report, if this is a [`ResponseKind::Macro`].
    pub fn into_macro(self) -> Option<Arc<MacroReport>> {
        match self {
            ResponseKind::Macro(r) => Some(r),
            _ => None,
        }
    }

    /// The slice outcome, if this is a [`ResponseKind::MacroSlice`].
    pub fn into_macro_slice(self) -> Option<SliceOutcome> {
        match self {
            ResponseKind::MacroSlice(r) => Some(r),
            _ => None,
        }
    }

    /// The transient result, if this is a [`ResponseKind::Tran`].
    pub fn into_tran(self) -> Option<TranResult> {
        match self {
            ResponseKind::Tran(r) => Some(r),
            _ => None,
        }
    }
}

impl sealed::Sealed for RequestKind {}

impl SessionRequest for RequestKind {
    type Output = ResponseKind;

    /// `None`: the wrapper must not cache under its own key — the inner
    /// request memoizes itself, so wrapped and unwrapped requests share
    /// one entry (and one value type) per key.
    fn cache_key(&self, _session: &Session) -> Option<CacheKey> {
        None
    }

    fn execute(&self, session: &Session) -> Result<ResponseKind> {
        Ok(match self {
            RequestKind::Cell(r) => ResponseKind::Cell(session.run(r)?),
            RequestKind::Library(r) => ResponseKind::Library(session.run(r)?),
            RequestKind::Immunity(r) => ResponseKind::Immunity(session.run(r)?),
            RequestKind::Flow(r) => ResponseKind::Flow(session.run(r)?),
            RequestKind::Sweep(r) => ResponseKind::Sweep(session.run(r)?),
            RequestKind::SweepCorner(r) => ResponseKind::SweepCorner(session.run(r)?),
            RequestKind::Repair(r) => ResponseKind::Repair(session.run(r)?),
            RequestKind::Die(r) => ResponseKind::Die(session.run(r)?),
            RequestKind::Optimize(r) => ResponseKind::Optimize(session.run(r)?),
            RequestKind::Macro(r) => ResponseKind::Macro(session.run(r)?),
            RequestKind::MacroSlice(r) => ResponseKind::MacroSlice(session.run(r)?),
            RequestKind::Tran(r) => ResponseKind::Tran(session.run(r)?),
        })
    }
}
