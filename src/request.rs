//! The [`SessionRequest`] trait: one generic seam for every request the
//! [`Session`](crate::Session) engine can service.
//!
//! Every request kind implements [`SessionRequest`], so memoization,
//! single-flight, and stats accounting live once, in the generic
//! [`Session::run`](crate::Session::run). The trait has three hooks:
//!
//! * [`SessionRequest::cache_key`] — the request's complete memoization
//!   input as a [`CacheKey`]: canonical bytes written by one key writer.
//!   `None` for requests that must not be cached at this level (the
//!   [`RequestKind`] dispatch wrapper's inner request memoizes itself);
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

use crate::core::{
    generate_from_networks, DesignRules, GenerateOptions, RowPolicy, Scheme, Sizing, StdCellKind,
    Style,
};
use crate::dk::{self, CellLibrary};
use crate::error::{CnfetError, Result};
use crate::flow::{
    assemble_gds_with, full_adder, parse_verilog, place_cmos_with, place_cnfet_with,
    simulate_netlist_with, GateInst, Netlist, PortDir, Tech,
};
use crate::immunity::{certify, simulate, McOptions};
use crate::logic::{AdderKind, SpNetwork, VarId};
use crate::macros::{MacroReport, MacroRequest, MacroSliceRequest, SliceOutcome};
use crate::optimize::{
    CandidateOutcome, OptimizeCandidateRequest, OptimizeReport, OptimizeRequest, OptimizeTarget,
};
use crate::repair::{DefectParams, DieOutcome, DieRequest, RepairReport, RepairRequest, Solver};
use crate::session::{
    CellRequest, CellResult, FlowRequest, FlowResult, FlowSource, FlowTarget, ImmunityEngine,
    ImmunityReport, ImmunityRequest, LibraryRequest, Session, SimSpec, TranRequest, TranResult,
};
use crate::sweep::{
    canonical_axis_value, CornerRow, SweepCornerRequest, SweepMetrics, SweepReport, SweepRequest,
    VariationCorner, VariationGrid,
};
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

/// A request's complete memoization input, as canonical bytes: which
/// cache it lives in plus everything that distinguishes two
/// non-interchangeable requests of that class. Two requests with equal
/// keys are served the same cached result.
///
/// Every key is written by one key writer. The bytes start with the
/// request kind, so a composite and its own sub-request never collide,
/// and a snapshot stores them verbatim.
#[derive(Clone, Debug)]
pub struct CacheKey {
    kind: KeyKind,
    /// The bytes' hash, computed once when the key is built. A key is
    /// looked up twice when a probed miss runs, so hashing a key hashes
    /// only this.
    hash: u64,
    /// The canonical bytes, kind byte first.
    bytes: Vec<u8>,
}

impl CacheKey {
    /// A key of `kind` over canonical `bytes` that start with its byte.
    pub(crate) fn new(kind: KeyKind, bytes: Vec<u8>) -> CacheKey {
        debug_assert_eq!(bytes.first(), Some(&(kind as u8)));
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write(&bytes);
        CacheKey {
            kind,
            hash: h.finish(),
            bytes,
        }
    }

    /// Which request class (and therefore which session cache) this key
    /// belongs to.
    pub fn class(&self) -> RequestClass {
        self.kind.class()
    }

    pub(crate) fn kind(&self) -> KeyKind {
        self.kind
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &CacheKey) -> bool {
        self.hash == other.hash && self.bytes == other.bytes
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The request kind a key's first byte names. Each kind belongs to one
/// [`RequestClass`]; a composite and its sub-request share a class but
/// never a kind. The byte values are part of the snapshot format.
#[derive(Clone, Copy, Debug)]
pub(crate) enum KeyKind {
    Cell = 0,
    CustomCell = 1,
    Library = 2,
    Immunity = 3,
    Flow = 4,
    Sweep = 5,
    SweepCorner = 6,
    Repair = 7,
    Die = 8,
    Optimize = 9,
    Macro = 10,
    MacroSlice = 11,
}

impl KeyKind {
    fn class(self) -> RequestClass {
        match self {
            KeyKind::Cell | KeyKind::CustomCell => RequestClass::Cell,
            KeyKind::Library => RequestClass::Library,
            KeyKind::Immunity => RequestClass::Immunity,
            KeyKind::Flow => RequestClass::Flow,
            KeyKind::Sweep | KeyKind::SweepCorner => RequestClass::Sweeps,
            KeyKind::Repair | KeyKind::Die => RequestClass::Repairs,
            KeyKind::Optimize => RequestClass::Optimizations,
            KeyKind::Macro | KeyKind::MacroSlice => RequestClass::Macros,
        }
    }
}

/// The one writer of [`CacheKey`]s. Its encoding is canonical:
/// integers little-endian, floats by their bits with `-0.0` folded to
/// `0.0`, enum variants as a byte, strings and sequences
/// length-prefixed so adjacent fields cannot run together. Structs are
/// written by exhaustive destructuring (`key_parts!`), so a field
/// added later fails to compile here instead of silently leaving the
/// key. Catalog cells resolve their options against the session's
/// defaults, so implicit and explicit defaults share one key.
struct KeyWriter<'s> {
    session: &'s Session,
    bytes: Vec<u8>,
}

impl KeyWriter<'_> {
    /// The key of `part` as a request of `kind`.
    fn key(session: &Session, kind: KeyKind, part: &(impl KeyPart + ?Sized)) -> CacheKey {
        let bytes = Vec::with_capacity(256);
        let mut writer = KeyWriter { session, bytes };
        writer.put(&(kind as u8)).put(part);
        CacheKey::new(kind, writer.bytes)
    }

    fn put(&mut self, part: &(impl KeyPart + ?Sized)) -> &mut Self {
        part.put(self);
        self
    }
}

/// A value a [`CacheKey`] holds, written canonically by [`KeyWriter`].
trait KeyPart {
    fn put(&self, key: &mut KeyWriter);
}

macro_rules! int_key_parts {
    ($($int:ty),*) => {$(
        impl KeyPart for $int {
            fn put(&self, key: &mut KeyWriter) {
                key.bytes.extend_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

int_key_parts!(u8, u32, u64, i64);

impl KeyPart for usize {
    fn put(&self, key: &mut KeyWriter) {
        key.put(&(*self as u64));
    }
}

impl KeyPart for bool {
    fn put(&self, key: &mut KeyWriter) {
        key.put(&u8::from(*self));
    }
}

impl KeyPart for f64 {
    fn put(&self, key: &mut KeyWriter) {
        key.put(&canonical_axis_value(*self).to_bits());
    }
}

impl KeyPart for str {
    fn put(&self, key: &mut KeyWriter) {
        let bytes = self.as_bytes();
        key.put(&bytes.len()).bytes.extend_from_slice(bytes);
    }
}

impl KeyPart for String {
    fn put(&self, key: &mut KeyWriter) {
        key.put(self.as_str());
    }
}

impl<T: KeyPart> KeyPart for Vec<T> {
    fn put(&self, key: &mut KeyWriter) {
        key.put(&self.len());
        for item in self {
            key.put(item);
        }
    }
}

impl<T: KeyPart> KeyPart for Option<T> {
    fn put(&self, key: &mut KeyWriter) {
        match self {
            Some(value) => key.put(&1u8).put(value),
            None => key.put(&0u8),
        };
    }
}

impl<A: KeyPart, B: KeyPart> KeyPart for (A, B) {
    fn put(&self, key: &mut KeyWriter) {
        key.put(&self.0).put(&self.1);
    }
}

impl<K: KeyPart, V: KeyPart> KeyPart for std::collections::BTreeMap<K, V> {
    fn put(&self, key: &mut KeyWriter) {
        key.put(&self.len());
        for (k, v) in self {
            key.put(k).put(v);
        }
    }
}

impl<T: KeyPart + ?Sized> KeyPart for &T {
    fn put(&self, key: &mut KeyWriter) {
        (**self).put(key);
    }
}

/// Writes each struct field by field, in the listed order, through an
/// exhaustive `let` pattern: `as Wrapper` writes a field through a
/// wrapper's encoding, and the fields after `;` are no part of the key.
macro_rules! key_parts {
    ($($ty:ident { $($field:ident $(as $wrap:ident)?),* $(; $($skip:ident),*)? })*) => {$(
        impl KeyPart for $ty {
            fn put(&self, key: &mut KeyWriter) {
                let $ty { $($field,)* $($($skip: _,)*)? } = self;
                $(key.put(&$($wrap)?($field));)*
            }
        }
    )*};
}

key_parts! {
    GenerateOptions { style, scheme, sizing, row_policy, rules }
    DesignRules {
        lg, lgs, lc, lgg, etch, via, gate_endcap, doping_overhang, vulnerable_endcap, row_gap,
        sep_cnfet, sep_cmos, pin
    }
    LibraryRequest { scheme }
    ImmunityRequest { cell, engine }
    McOptions { tubes, tau, segment_len_lambda, seed, metallic_fraction }
    FlowRequest { source, target, sim, emit_gds }
    Netlist { name, ports, instances }
    GateInst { name, kind, strength, inputs, output }
    SimSpec { toggle_in, ties, watch_out }
    SweepRequest { cells, grid, metrics, mc as CornerMc, loads_f; observer }
    SweepCornerRequest { cell, corner, metrics, mc as CornerMc, loads_f }
    VariationGrid { tube_counts, pitch_scales, metallic_fractions, seeds }
    VariationCorner { tubes_per_4lambda, pitch_scale, metallic_fraction, seed }
    SweepMetrics { immunity, timing, liberty, retain_waveforms }
    RepairRequest { cells, dies, base_seed, spares, params, solver, adjacent; observer }
    DieRequest { cells, die, base_seed, spares, params, solver, adjacent }
    DefectParams {
        metallic_fraction, open_fraction, misposition_fraction, open_tolerance, tau,
        segment_len_lambda, tubes_per_site
    }
    OptimizeRequest {
        cells, grid, target, passes, metrics, mc as CornerMc, loads_f; observer
    }
    OptimizeTarget { min_yield, max_delay_s, max_energy_j }
    MacroRequest { kind, width, scheme, seed; observer }
    MacroSliceRequest { kind, width, scheme, seed, bit }
}

/// Writes each enum as its listed variant byte, then the variant's
/// fields in order.
macro_rules! key_enums {
    ($($ty:ident { $($variant:ident $(($($arg:ident),*))? = $byte:literal),* })*) => {$(
        impl KeyPart for $ty {
            fn put(&self, key: &mut KeyWriter) {
                match self {
                    $($ty::$variant $(($($arg),*))? => key.put(&($byte as u8)) $($(.put($arg))*)?,)*
                };
            }
        }
    )*};
}

key_enums! {
    Style { NewImmune = 0, OldEtched = 1, Vulnerable = 2 }
    Scheme { Scheme1 = 0, Scheme2 = 1 }
    RowPolicy { PaperProductTerms = 0, FullEuler = 1 }
    StdCellKind {
        Inv = 0, Nand(inputs) = 1, Nor(inputs) = 2, Aoi21 = 3, Aoi22 = 4, Aoi31 = 5, Oai21 = 6,
        Oai22 = 7
    }
    SpNetwork { Device(var) = 0, Series(parts) = 1, Parallel(parts) = 2 }
    ImmunityEngine { Certify = 0, MonteCarlo(mc) = 1, Both(mc) = 2 }
    FlowSource { FullAdder = 0, Verilog(text) = 1, Netlist(netlist) = 2 }
    FlowTarget { Cnfet(scheme) = 0, Cmos = 1 }
    PortDir { Input = 0, Output = 1 }
    Solver { Auto = 0, Matching = 1, Sat = 2 }
    AdderKind { Ripple = 0, Cla = 1 }
}

impl KeyPart for VarId {
    fn put(&self, key: &mut KeyWriter) {
        key.put(&self.0);
    }
}

/// The base Monte-Carlo options a sweep corner reads: every corner
/// replaces the seed and the metallic fraction with its own, so those
/// two are no part of a sweep, corner or search key.
struct CornerMc<'a>(&'a McOptions);

impl KeyPart for CornerMc<'_> {
    fn put(&self, key: &mut KeyWriter) {
        let McOptions {
            tubes,
            tau,
            segment_len_lambda,
            seed: _,
            metallic_fraction: _,
        } = self.0;
        key.put(tubes).put(tau).put(segment_len_lambda);
    }
}

impl KeyPart for CellRequest {
    fn put(&self, key: &mut KeyWriter) {
        let CellRequest {
            kind,
            strength,
            options,
            name,
        } = self;
        let options = options.as_ref().unwrap_or(key.session.defaults());
        key.put(kind)
            .put(&(*strength).max(1))
            .put(name)
            .put(options);
    }
}

impl KeyPart for CustomCellRequest {
    fn put(&self, key: &mut KeyWriter) {
        let CustomCellRequest {
            name,
            pdn,
            pun,
            vars,
            options,
        } = self;
        let options = options.as_ref().unwrap_or(key.session.defaults());
        key.put(name).put(pdn).put(pun).put(&vars.len());
        for (_, var) in vars.iter() {
            key.put(var);
        }
        key.put(options);
    }
}

impl KeyPart for Sizing {
    fn put(&self, key: &mut KeyWriter) {
        match self {
            Sizing::Uniform { width_lambda } => key.put(&0u8).put(width_lambda),
            Sizing::Matched { base_lambda } => key.put(&1u8).put(base_lambda),
        };
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
        Some(KeyWriter::key(session, KeyKind::Cell, self))
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

    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        Some(KeyWriter::key(session, KeyKind::Library, self))
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

    /// The analyzed cell's key plus the engine selection. A request past
    /// [`MAX_MC_TUBES`](crate::MAX_MC_TUBES) gets no key.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        self.validate().ok()?;
        Some(KeyWriter::key(session, KeyKind::Immunity, self))
    }

    /// Generates (or recalls) the cell through the session, then runs the
    /// requested engine(s). The whole report is memoized, so repeating an
    /// analysis (certification or a deterministic seeded Monte-Carlo) is
    /// a pure immunity-cache hit that never touches the cell cache.
    fn execute(&self, session: &Session) -> Result<ImmunityReport> {
        self.validate()?;
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

    /// Source, target, simulation spec and GDS flag.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        Some(KeyWriter::key(session, KeyKind::Flow, self))
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
    /// the grid, the metric selection, the MC options a corner reads
    /// (not `seed` or `metallic_fraction`, which every corner replaces)
    /// and the load list, floats with `-0.0` folded to `0.0`. An invalid
    /// sweep (see [`SweepRequest::validate`]) gets no key at all:
    /// `execute` rejects it, and an uncacheable request can neither
    /// poison a single-flight entry nor occupy a cache slot.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        self.validate().ok()?;
        Some(KeyWriter::key(session, KeyKind::Sweep, self))
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

    /// Per-corner memoization: the cell, the corner, and the rest of
    /// the whole-sweep key's fields, floats with `-0.0` folded to `0.0`.
    /// An invalid corner (see [`SweepCornerRequest::validate`]) gets no
    /// key — it executes uncached and `execute` rejects it.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        self.validate().ok()?;
        Some(KeyWriter::key(session, KeyKind::SweepCorner, self))
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
        Some(KeyWriter::key(session, KeyKind::Repair, self))
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
        Some(KeyWriter::key(session, KeyKind::Die, self))
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

    /// Whole-trajectory memoization: resolved cell keys plus the search
    /// grid, the target, the pass count, and the metric/MC/load
    /// configuration of a sweep key, floats with `-0.0` folded to `0.0`.
    /// An invalid request (NaN axis, empty schedule, zero passes) gets no
    /// key — `execute` rejects it before it can occupy a cache slot. The
    /// attached [`Observer`](crate::Observer), if any, is deliberately
    /// excluded — observation is not identity.
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        self.validate().ok()?;
        Some(KeyWriter::key(session, KeyKind::Optimize, self))
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
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        self.validate().ok()?;
        Some(KeyWriter::key(session, KeyKind::Macro, self))
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
    fn cache_key(&self, session: &Session) -> Option<CacheKey> {
        self.validate().ok()?;
        Some(KeyWriter::key(session, KeyKind::MacroSlice, self))
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
        Some(KeyWriter::key(session, KeyKind::CustomCell, self))
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
