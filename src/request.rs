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
//! Two more, hidden, hooks serve the session's enqueue step: `probe`
//! builds the key once and looks it up without waiting, and `run_keyed`
//! runs a miss under that key. Both default to the generic versions;
//! [`RequestKind`] forwards them to its inner request.
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
use crate::repair::{DieOutcome, DieRequest, RepairKey, RepairReport, RepairRequest};
use crate::session::{
    CellKey, CellRequest, CellResult, FlowRequest, FlowResult, FlowSource, FlowTarget,
    ImmunityEngine, ImmunityReport, ImmunityRequest, LibraryRequest, Session, TranRequest,
    TranResult,
};
use crate::sweep::{canonical_loads, CornerRow, SweepCornerRequest, SweepReport, SweepRequest};
use std::hash::{Hash, Hasher};
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
    /// A processing↔circuit co-optimization search: one entry per whole
    /// trajectory ([`OptimizeRequest`]). Its candidates are measured by
    /// sweeps memoized in the [`Sweeps`](RequestClass::Sweeps) class,
    /// whose keys hold no target, so a re-run against a different target
    /// misses only here and executes no corner again.
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
#[derive(Clone)]
pub struct CacheKey {
    /// The payload's hash, computed once when the key is built. A key is
    /// looked up twice when a probed miss runs, and some payloads take a
    /// microsecond to hash (a die key holds every cell's full options),
    /// so hashing a key hashes only this.
    hash: u64,
    pub(crate) inner: KeyInner,
}

impl CacheKey {
    pub(crate) fn new(inner: KeyInner) -> CacheKey {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        inner.hash(&mut h);
        CacheKey {
            hash: h.finish(),
            inner,
        }
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &CacheKey) -> bool {
        self.hash == other.hash && self.inner == other.inner
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl std::fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CacheKey").field(&self.inner).finish()
    }
}

/// The class-tagged key payload. Each variant belongs to exactly one
/// request class — the tag is what lets all four caches share one value
/// representation without keys of different kinds ever colliding.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum KeyInner {
    /// Cells: the full generation input (see [`CellKey`]).
    Cell(CellKey),
    /// Libraries: the request itself (scheme) is the complete input.
    Library(LibraryRequest),
    /// Immunity: the analyzed cell's key plus the engine selection, with
    /// the Monte-Carlo floats keyed canonically (see [`EngineKey`]).
    Immunity { cell: CellKey, engine: EngineKey },
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
    /// Whole repair lots: the resolved cell keys plus the lot size,
    /// seed, spare count, canonical process parameters, solver, and
    /// adjacency constraints, as typed fields.
    Repair(RepairKey),
    /// One die's repair: the same fields with the die *index* in place
    /// of the lot size — never the surrounding lot's die count, so
    /// overlapping lots share die outcomes. Lives in the
    /// [`RequestClass::Repairs`] cache next to whole lots; the variant
    /// tag keeps a one-die lot and its own die from ever colliding.
    Die(RepairKey),
    /// Whole optimization trajectories: a canonical rendering of the
    /// resolved cell keys plus the search grid, target, pass count,
    /// metric selection, MC base options, and loads.
    Optimize(String),
    /// Whole adder macros: the kind, width, scheme and jitter seed (the
    /// attached observer is *observation, not identity* — excluded, like
    /// every other composite's).
    Macro(MacroKey),
    /// One bit slice's characterization: the macro's key plus the bit
    /// index. The macro *width* stays in the key — a CLA bit's
    /// prefix-tree fan-out depends on the width it sits in, so equal
    /// bits of different widths are different work. Lives in the
    /// [`RequestClass::Macros`] cache next to whole macros.
    MacroSlice(MacroKey, u32),
}

/// The session-resolved keys of a composite's cells, in request order.
fn cell_keys(session: &Session, cells: &[CellRequest]) -> Vec<CellKey> {
    cells
        .iter()
        .map(|cell| session.catalog_key(cell).0)
        .collect()
}

/// The immunity engine selection as a key. Monte-Carlo floats are keyed
/// by their bits with `-0.0` folded to `0.0`, as in [`RepairKey`], so
/// two option sets that compare equal share one entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum EngineKey {
    Certify,
    MonteCarlo(McKey),
    Both(McKey),
}

/// The fields of [`McOptions`](crate::immunity::McOptions), floats by
/// canonical bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct McKey {
    tubes: usize,
    tau: u64,
    segment_len_lambda: u64,
    seed: u64,
    metallic_fraction: u64,
}

impl EngineKey {
    fn new(engine: &ImmunityEngine) -> EngineKey {
        let mc = |o: &crate::immunity::McOptions| McKey {
            tubes: o.tubes,
            tau: float_key(o.tau),
            segment_len_lambda: float_key(o.segment_len_lambda),
            seed: o.seed,
            metallic_fraction: float_key(o.metallic_fraction),
        };
        match engine {
            ImmunityEngine::Certify => EngineKey::Certify,
            ImmunityEngine::MonteCarlo(o) => EngineKey::MonteCarlo(mc(o)),
            ImmunityEngine::Both(o) => EngineKey::Both(mc(o)),
        }
    }
}

/// A float's key bits, with `-0.0` folded to `0.0`.
fn float_key(value: f64) -> u64 {
    crate::sweep::canonical_axis_value(value).to_bits()
}

/// The identity of an adder macro; a slice key adds its bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct MacroKey {
    kind: crate::logic::AdderKind,
    width: u32,
    scheme: crate::core::Scheme,
    seed: u64,
}

impl CacheKey {
    /// Which request class (and therefore which session cache) this key
    /// belongs to.
    pub fn class(&self) -> RequestClass {
        match self.inner {
            KeyInner::Cell(_) => RequestClass::Cell,
            KeyInner::Library(_) => RequestClass::Library,
            KeyInner::Immunity { .. } => RequestClass::Immunity,
            KeyInner::Flow(_) => RequestClass::Flow,
            KeyInner::Sweep(_) | KeyInner::SweepCorner(_) => RequestClass::Sweeps,
            KeyInner::Repair(_) | KeyInner::Die(_) => RequestClass::Repairs,
            KeyInner::Optimize(_) => RequestClass::Optimizations,
            KeyInner::Macro(_) | KeyInner::MacroSlice(..) => RequestClass::Macros,
        }
    }
}

pub(crate) mod sealed {
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
/// rest — sharded caching, per-key single-flight, stats accounting, pool
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

    /// The enqueue probe: builds the key once and looks it up without
    /// blocking. Engine-internal; [`RequestKind`] probes its inner
    /// request.
    #[doc(hidden)]
    fn probe(&self, session: &Session) -> Probe<Self::Output>
    where
        Self: Sized,
    {
        session.probe(self)
    }

    /// Runs a probed miss under the key it was probed with, so the key
    /// is never built twice. Engine-internal, like [`probe`](Self::probe).
    #[doc(hidden)]
    fn run_keyed(&self, session: &Session, key: Option<CacheKey>) -> Result<Self::Output>
    where
        Self: Sized,
    {
        session.run_keyed(self, key)
    }
}

/// What an enqueue probe found ([`SessionRequest::probe`]). A miss's
/// key moves straight into its job, so it is not boxed.
#[doc(hidden)]
#[allow(clippy::large_enum_variant)]
pub enum Probe<T> {
    /// The cached output, annotated as a hit; the hit is counted.
    Hit(T),
    /// Nothing resident (absent, a build in flight, or no key): the
    /// request runs as a pool job under this key. Nothing is counted
    /// yet.
    Miss(Option<CacheKey>),
}

impl<T> Probe<T> {
    fn map<U>(self, f: impl FnOnce(T) -> U) -> Probe<U> {
        match self {
            Probe::Hit(output) => Probe::Hit(f(output)),
            Probe::Miss(key) => Probe::Miss(key),
        }
    }
}

// ---------------------------------------------------------------------------
// The four request kinds
// ---------------------------------------------------------------------------

impl sealed::Sealed for CellRequest {}

impl SessionRequest for CellRequest {
    type Output = CellResult;

    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        Some(CacheKey::new(KeyInner::Cell(session.catalog_key(self).0)))
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
        Ok(CellResult::new(cell))
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
        Some(CacheKey::new(KeyInner::Library(*self)))
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
        Some(CacheKey::new(KeyInner::Immunity {
            cell: session.catalog_key(&self.cell).0,
            engine: EngineKey::new(&self.engine),
        }))
    }

    /// Generates (or recalls) the cell through the session, then runs the
    /// requested engine(s). The whole report is memoized, so repeating an
    /// analysis (certification or a deterministic seeded Monte-Carlo) is
    /// a pure immunity-cache hit that never touches the cell cache.
    fn execute(&self, session: &Session) -> Result<ImmunityReport> {
        let result = session.run(&self.cell)?;
        let map = result.trace_map();
        let (cert, mc) = match &self.engine {
            ImmunityEngine::Certify => (Some(certify(map)), None),
            ImmunityEngine::MonteCarlo(opts) => (None, Some(simulate(map, opts))),
            ImmunityEngine::Both(opts) => (Some(certify(map)), Some(simulate(map, opts))),
        };
        let immune =
            cert.as_ref().is_none_or(|c| c.immune) && mc.as_ref().is_none_or(|m| m.failures == 0);
        Ok(ImmunityReport {
            cell: result.cell,
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
        Some(CacheKey::new(KeyInner::Flow(format!("{self:?}"))))
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

    /// Parses the deck into MNA form and integrates: one
    /// symbolic analysis, one pivot search reused across every timestep,
    /// and — for a deck without FETs — one numeric factorization for the
    /// DC point and one per step size, after which each step only
    /// re-stamps and re-solves the right-hand side ([`crate::mna`]). A
    /// deck with more than [`MAX_DENSE_DIM`](crate::mna::MAX_DENSE_DIM)
    /// unknowns, or whose waveform would exceed
    /// [`MAX_WAVEFORM_SAMPLES`](crate::mna::MAX_WAVEFORM_SAMPLES), fails
    /// with [`CnfetError::Deck`] before either buffer is allocated.
    fn execute(&self, _session: &Session) -> Result<TranResult> {
        let spec_err =
            |message: String| CnfetError::Deck(crate::spice::DeckError { line: 0, message });
        let spec = crate::mna::TranSpec::new(self.dt, self.t_stop);
        let Some(steps) = spec.nominal_steps() else {
            return Err(spec_err(format!(
                "tran dt and t_stop must be positive and finite, with t_stop at most {} \
                 steps of dt; got dt {:e}, t_stop {:e}",
                crate::mna::MAX_TRAN_STEPS,
                self.dt,
                self.t_stop
            )));
        };
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
        // Both buffers are sized from the deck: refuse it before either
        // is allocated.
        let dim = mna.dim();
        if dim > crate::mna::MAX_DENSE_DIM {
            return Err(spec_err(format!(
                "deck has {dim} unknowns; the dense solver takes at most {}",
                crate::mna::MAX_DENSE_DIM
            )));
        }
        let samples = (steps + 1) * (dim + 1);
        if samples > crate::mna::MAX_WAVEFORM_SAMPLES {
            return Err(spec_err(format!(
                "waveform of {} steps × {} traces is {samples} values; at most {} fit",
                steps + 1,
                dim + 1,
                crate::mna::MAX_WAVEFORM_SAMPLES
            )));
        }
        let pattern = Arc::new(crate::mna::Pattern::analyze(mna));
        let mut engine = crate::mna::Engine::new(pattern);
        let wave = engine.tran(mna, &spec)?;
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
    /// an invalid float axis (NaN, infinite, negative) or more than
    /// [`MAX_FANOUT`](crate::MAX_FANOUT) rows gets no key at all:
    /// `execute` rejects it, and an uncacheable request can neither
    /// poison a single-flight entry nor occupy a cache slot.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        self.validate().ok()?;
        let cell_keys = cell_keys(session, &self.cells);
        Some(CacheKey::new(KeyInner::Sweep(format!(
            "{cell_keys:?}|{:?}|{:?}|{:?}|{:?}",
            self.grid.clone().canonical(),
            self.metrics,
            self.mc,
            canonical_loads(&self.loads_f)
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

    /// Per-corner memoization, keyed by the **canonical** corner and
    /// loads (`-0.0` folded to `0.0`, exactly like the whole-sweep key).
    /// Invalid floats (NaN, infinite, negative) yield no key — the corner
    /// executes uncached and `execute` rejects it.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        self.validate().ok()?;
        let cell_key = session.catalog_key(&self.cell).0;
        Some(CacheKey::new(KeyInner::SweepCorner(format!(
            "{cell_key:?}|{:?}|{:?}|{:?}|{:?}",
            self.corner.canonical(),
            self.metrics,
            self.mc,
            canonical_loads(&self.loads_f)
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
    /// parameters (`-0.0` folded to `0.0`), solver, and adjacency
    /// constraints. An invalid lot (see [`RepairRequest::validate`]) gets
    /// no key. The attached [`Observer`](crate::Observer), if any, is
    /// deliberately excluded — observation is not identity.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        self.validate().ok()?;
        Some(CacheKey::new(KeyInner::Repair(self.key(session))))
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
    /// an earlier one re-executes only the dies it adds. An invalid die
    /// gets no key.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        self.validate().ok()?;
        Some(CacheKey::new(KeyInner::Die(self.key(session))))
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
    /// [`Observer`](crate::Observer), if any, is deliberately excluded —
    /// observation is not identity.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        self.validate().ok()?;
        let cell_keys = cell_keys(session, &self.cells);
        Some(CacheKey::new(KeyInner::Optimize(format!(
            "{cell_keys:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}",
            self.grid.clone().canonical(),
            self.target.canonical(),
            self.passes,
            self.metrics,
            self.mc,
            canonical_loads(&self.loads_f)
        ))))
    }

    /// Runs the coordinate-descent / successive-halving search: each
    /// round fans candidate sweeps through the session's job pool
    /// (batch-targeted helping, like every composite), reduces each
    /// report into a [`CandidateOutcome`] and scores it against the
    /// target. See [`crate::optimize`] for the full schedule.
    fn execute(&self, session: &Session) -> Result<Arc<OptimizeReport>> {
        crate::optimize::execute_optimize(self, session)
    }
}

impl sealed::Sealed for OptimizeCandidateRequest {}

impl SessionRequest for OptimizeCandidateRequest {
    type Output = CandidateOutcome;

    /// `None`: a candidate is not memoized under its own key. Its
    /// measurement is a memoized sweep, so only the O(rows) reduction
    /// repeats.
    fn cache_key(&self, _session: &Session) -> Option<CacheKey> {
        None
    }

    /// Validates the candidate, runs (or recalls) its sweep, and reduces
    /// the rows into target-free aggregate measurements.
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
    /// [`Observer`](crate::Observer), if any, is deliberately
    /// excluded — observation is not identity.
    fn cache_key(&self, _session: &Session) -> Option<CacheKey> {
        self.validate().ok()?;
        Some(CacheKey::new(KeyInner::Macro(MacroKey {
            kind: self.kind,
            width: self.width,
            scheme: self.scheme,
            seed: self.seed,
        })))
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

    /// Per-slice memoization: the whole-macro key plus the bit index.
    /// Width stays in the key (a CLA bit's fan-out depends on it);
    /// cross-macro sharing happens one level down, in the `Cell` class
    /// the slice's sub-cell layouts memoize in. An invalid slice (see
    /// [`MacroSliceRequest::validate`]) gets no key.
    fn cache_key(&self, _session: &Session) -> Option<CacheKey> {
        self.validate().ok()?;
        let key = MacroKey {
            kind: self.kind,
            width: self.width,
            scheme: self.scheme,
            seed: self.seed,
        };
        Some(CacheKey::new(KeyInner::MacroSlice(key, self.bit)))
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
        Some(CacheKey::new(KeyInner::Cell(CellKey::Custom {
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
        Ok(CellResult::new(cell))
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
    /// embedders can attach an [`Observer`](crate::Observer) to a
    /// composite arriving in a heterogeneous mix before handing the mix
    /// to [`Session::submit_all`](crate::Session::submit_all).
    pub fn as_sweep_mut(&mut self) -> Option<&mut SweepRequest> {
        match self {
            RequestKind::Sweep(r) => Some(r),
            _ => None,
        }
    }

    /// The wrapped repair lot, if this is a [`RequestKind::Repair`];
    /// mutable for the same reason as [`RequestKind::as_sweep_mut`].
    pub fn as_repair_mut(&mut self) -> Option<&mut RepairRequest> {
        match self {
            RequestKind::Repair(r) => Some(r),
            _ => None,
        }
    }

    /// The wrapped optimization, if this is a [`RequestKind::Optimize`];
    /// mutable for the same reason as [`RequestKind::as_sweep_mut`].
    pub fn as_optimize_mut(&mut self) -> Option<&mut OptimizeRequest> {
        match self {
            RequestKind::Optimize(r) => Some(r),
            _ => None,
        }
    }

    /// The wrapped macro, if this is a [`RequestKind::Macro`]; mutable
    /// for the same reason as [`RequestKind::as_sweep_mut`].
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

/// Applies `$body` to the request inside a [`RequestKind`] and wraps
/// what it yields (a `Result` or a [`Probe`]) in the matching
/// [`ResponseKind`].
macro_rules! each_kind {
    ($kind:expr, $r:ident => $body:expr) => {
        match $kind {
            RequestKind::Cell($r) => $body.map(ResponseKind::Cell),
            RequestKind::Library($r) => $body.map(ResponseKind::Library),
            RequestKind::Immunity($r) => $body.map(ResponseKind::Immunity),
            RequestKind::Flow($r) => $body.map(ResponseKind::Flow),
            RequestKind::Sweep($r) => $body.map(ResponseKind::Sweep),
            RequestKind::SweepCorner($r) => $body.map(ResponseKind::SweepCorner),
            RequestKind::Repair($r) => $body.map(ResponseKind::Repair),
            RequestKind::Die($r) => $body.map(ResponseKind::Die),
            RequestKind::Optimize($r) => $body.map(ResponseKind::Optimize),
            RequestKind::Macro($r) => $body.map(ResponseKind::Macro),
            RequestKind::MacroSlice($r) => $body.map(ResponseKind::MacroSlice),
            RequestKind::Tran($r) => $body.map(ResponseKind::Tran),
        }
    };
}

impl SessionRequest for RequestKind {
    type Output = ResponseKind;

    /// `None`: the wrapper must not cache under its own key — the inner
    /// request memoizes itself, so wrapped and unwrapped requests share
    /// one entry (and one value type) per key.
    fn cache_key(&self, _session: &Session) -> Option<CacheKey> {
        None
    }

    fn execute(&self, session: &Session) -> Result<ResponseKind> {
        each_kind!(self, r => session.run(r))
    }

    /// Probes the inner request, under its own key.
    fn probe(&self, session: &Session) -> Probe<ResponseKind> {
        each_kind!(self, r => r.probe(session))
    }

    fn run_keyed(&self, session: &Session, key: Option<CacheKey>) -> Result<ResponseKind> {
        each_kind!(self, r => r.run_keyed(session, key))
    }
}
