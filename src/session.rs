//! The `Session` engine: one front door for the whole CNFET stack.
//!
//! A [`Session`] owns a design kit and default generation options, and
//! services every typed request through one generic entry point,
//! [`Session::run`]: [`CellRequest`] → [`CellResult`], [`LibraryRequest`]
//! → [`dk::CellLibrary`](crate::dk::CellLibrary), [`ImmunityRequest`] →
//! [`ImmunityReport`], [`FlowRequest`] → [`FlowResult`], and the
//! composite [`SweepRequest`](crate::SweepRequest) →
//! [`SweepReport`](crate::SweepReport). Every kind implements the
//! [`SessionRequest`] trait, so memoization, per-key single-flight, and
//! stats accounting are written once — `run` looks the request's
//! [`CacheKey`](crate::CacheKey) up in the class's sharded cache
//! ([`crate::cache`]) and executes only on a miss.
//!
//! Three ways to drive it:
//!
//! * [`Session::run`] — synchronous, one request;
//! * [`Session::run_batch`] — synchronous, a slice of one request kind,
//!   fanned out across the session's persistent work-stealing pool with
//!   the caller helping;
//! * [`Session::submit`] / [`Session::submit_all`] — **non-blocking**:
//!   the request is queued on the same pool and a
//!   [`JobHandle`] comes back immediately, with `wait()` / `try_get()` /
//!   `wait_timeout()` / `is_done()` to harvest the result.
//!   `submit_all` accepts heterogeneous mixes via [`RequestKind`] — the
//!   shape of a co-optimization sweep that interleaves thousands of
//!   cells, immunity verdicts, and flow runs.
//!
//! Sessions are cheap handles: [`Session::clone`] shares the caches, the
//! stats, and the job pool, so one engine can serve many producers.
//!
//! # Example
//!
//! ```
//! use cnfet::{CellRequest, ImmunityRequest, RequestKind, Session};
//! use cnfet::core::StdCellKind;
//!
//! let session = Session::new();
//!
//! // Synchronous: one generic entry point for every request kind.
//! let first = session.run(&CellRequest::new(StdCellKind::Nand(3)))?;
//! let again = session.run(&CellRequest::new(StdCellKind::Nand(3)))?;
//! assert!(!first.cached && again.cached, "second request is a cache hit");
//! assert_eq!(session.stats().cells.misses, 1);
//!
//! // Non-blocking: submit returns a JobHandle immediately.
//! let job = session.submit(ImmunityRequest::certify(StdCellKind::Nand(3)));
//! assert!(job.wait()?.immune);
//!
//! // Heterogeneous mixes fan out through the same pool, results in
//! // submission order.
//! let handles = session.submit_all([
//!     RequestKind::from(CellRequest::new(StdCellKind::Inv)),
//!     RequestKind::from(ImmunityRequest::certify(StdCellKind::Inv)),
//! ]);
//! for handle in handles {
//!     handle.wait()?;
//! }
//! # Ok::<(), cnfet::CnfetError>(())
//! ```

use crate::cache::{CacheStats, ShardedCache, DEFAULT_CAPACITY, DEFAULT_SHARDS};
use crate::core::{GenerateOptions, GeneratedCell, RowPolicy, Scheme, Sizing, StdCellKind, Style};
use crate::dk::DesignKit;
use crate::error::Result;
use crate::flow::{Netlist, NetlistMetrics, Placement};
use crate::immunity::{CertReport, McOptions, McReport, TraceMap};
use crate::jobs::{job_channel, next_batch_id, Job, JobHandle, Pool};
use crate::logic::{SpNetwork, VarTable};
use crate::request::{CustomCellRequest, RequestClass, RequestKind, ResponseKind, SessionRequest};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A request for one standard-cell layout.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CellRequest {
    /// Cell function.
    pub kind: StdCellKind,
    /// Drive strength: `1` for the plain cell, `n > 1` for an `n`-fingered
    /// library cell (parallel replicas snaked through shared contacts).
    pub strength: u8,
    /// Generation options; `None` uses the session defaults.
    pub options: Option<GenerateOptions>,
    /// Overrides the generated cell's name (library cells use `INV_X4`
    /// style names).
    pub name: Option<String>,
}

impl CellRequest {
    /// A strength-1 request with session-default options.
    pub fn new(kind: StdCellKind) -> CellRequest {
        CellRequest {
            kind,
            strength: 1,
            options: None,
            name: None,
        }
    }

    /// Sets explicit generation options.
    #[must_use]
    pub fn options(mut self, options: GenerateOptions) -> CellRequest {
        self.options = Some(options);
        self
    }

    /// Sets the drive strength.
    #[must_use]
    pub fn strength(mut self, strength: u8) -> CellRequest {
        self.strength = strength.max(1);
        self
    }

    /// Overrides the generated cell name.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> CellRequest {
        self.name = Some(name.into());
        self
    }
}

impl From<StdCellKind> for CellRequest {
    fn from(kind: StdCellKind) -> CellRequest {
        CellRequest::new(kind)
    }
}

/// The answer to a [`CellRequest`].
#[derive(Clone)]
pub struct CellResult {
    /// The generated (possibly cache-shared) layout.
    pub cell: Arc<GeneratedCell>,
    /// Whether the session cache already held this layout.
    pub cached: bool,
    /// The layout's tube trace map, built on first use and shared by
    /// every clone — so by every request that recalls this cached cell.
    trace: Arc<OnceLock<TraceMap>>,
}

impl CellResult {
    /// A freshly generated cell, its trace map not built yet.
    pub(crate) fn new(cell: GeneratedCell) -> CellResult {
        CellResult {
            cell: Arc::new(cell),
            cached: false,
            trace: Arc::default(),
        }
    }

    /// The cell's trace map, built on the first call for this cached
    /// cell and shared thereafter.
    pub(crate) fn trace_map(&self) -> &TraceMap {
        self.trace
            .get_or_init(|| TraceMap::new(&self.cell.semantics))
    }
}

impl std::fmt::Debug for CellResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellResult")
            .field("cell", &self.cell)
            .field("cached", &self.cached)
            .finish_non_exhaustive()
    }
}

/// A request for a full standard-cell library.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LibraryRequest {
    /// Cell arrangement scheme for every layout in the library.
    pub scheme: Scheme,
}

impl LibraryRequest {
    /// Library in the given scheme.
    pub fn new(scheme: Scheme) -> LibraryRequest {
        LibraryRequest { scheme }
    }
}

impl From<Scheme> for LibraryRequest {
    fn from(scheme: Scheme) -> LibraryRequest {
        LibraryRequest { scheme }
    }
}

/// Which immunity engine(s) to run on a cell.
#[derive(Clone, Debug)]
pub enum ImmunityEngine {
    /// Sound certification only (fast; if it says immune, no mispositioned
    /// tube can break the cell).
    Certify,
    /// Monte-Carlo only: sampled wavy tubes, failure counts, witnesses.
    MonteCarlo(McOptions),
    /// Both engines; the verdict requires both to pass.
    Both(McOptions),
}

/// A request to analyze a cell's mispositioned-CNT immunity.
#[derive(Clone, Debug)]
pub struct ImmunityRequest {
    /// Which cell to analyze (generated through the session cache).
    pub cell: CellRequest,
    /// Which engine(s) to run.
    pub engine: ImmunityEngine,
}

impl ImmunityRequest {
    /// Certification-only request for a cell.
    pub fn certify(cell: impl Into<CellRequest>) -> ImmunityRequest {
        ImmunityRequest {
            cell: cell.into(),
            engine: ImmunityEngine::Certify,
        }
    }

    /// Monte-Carlo request for a cell.
    pub fn monte_carlo(cell: impl Into<CellRequest>, opts: McOptions) -> ImmunityRequest {
        ImmunityRequest {
            cell: cell.into(),
            engine: ImmunityEngine::MonteCarlo(opts),
        }
    }
}

/// The answer to an [`ImmunityRequest`].
#[derive(Clone, Debug)]
pub struct ImmunityReport {
    /// The analyzed cell.
    pub cell: Arc<GeneratedCell>,
    /// Combined verdict of every engine that ran.
    pub immune: bool,
    /// Certification details, when requested.
    pub cert: Option<CertReport>,
    /// Monte-Carlo details, when requested.
    pub mc: Option<McReport>,
}

/// Where a flow's gate-level netlist comes from.
#[derive(Clone, Debug)]
pub enum FlowSource {
    /// The paper's Figure 8 full adder.
    FullAdder,
    /// Structural Verilog source text.
    Verilog(String),
    /// An already-built netlist.
    Netlist(Netlist),
}

/// Target technology/arrangement of a flow run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowTarget {
    /// CNFET library in the given scheme.
    Cnfet(Scheme),
    /// The industrial-65nm-like CMOS baseline (row placement).
    Cmos,
}

/// Transient-simulation spec for a flow run.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// Primary input that gets the full-cycle pulse.
    pub toggle_in: String,
    /// Values for the remaining primary inputs.
    pub ties: BTreeMap<String, bool>,
    /// Primary output the delay is measured to.
    pub watch_out: String,
}

/// A request to run the logic-to-GDSII flow.
#[derive(Clone, Debug)]
pub struct FlowRequest {
    /// Netlist source.
    pub source: FlowSource,
    /// Target technology.
    pub target: FlowTarget,
    /// Optional transistor-level simulation after placement.
    pub sim: Option<SimSpec>,
    /// Assemble the placed design to a GDSII stream (CNFET targets only;
    /// the CMOS baseline has no drawn library).
    pub emit_gds: bool,
}

impl FlowRequest {
    /// Place-only flow for a source in a CNFET scheme.
    pub fn cnfet(source: FlowSource, scheme: Scheme) -> FlowRequest {
        FlowRequest {
            source,
            target: FlowTarget::Cnfet(scheme),
            sim: None,
            emit_gds: false,
        }
    }

    /// Place-only flow for a source in the CMOS baseline.
    pub fn cmos(source: FlowSource) -> FlowRequest {
        FlowRequest {
            source,
            target: FlowTarget::Cmos,
            sim: None,
            emit_gds: false,
        }
    }

    /// Adds a transient simulation to the run.
    #[must_use]
    pub fn simulate(mut self, spec: SimSpec) -> FlowRequest {
        self.sim = Some(spec);
        self
    }

    /// Requests GDSII assembly of the placed design.
    #[must_use]
    pub fn with_gds(mut self) -> FlowRequest {
        self.emit_gds = true;
        self
    }
}

/// The answer to a [`FlowRequest`].
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// The flow's netlist (parsed or passed through).
    pub netlist: Netlist,
    /// The placement.
    pub placement: Placement,
    /// Delay/energy metrics, when a simulation was requested.
    pub metrics: Option<NetlistMetrics>,
    /// GDSII stream, when requested on a CNFET target.
    pub gds: Option<Vec<u8>>,
}

/// A request to transient-simulate a SPICE deck on the workspace MNA
/// engine ([`crate::mna`]): the deck is parsed
/// ([`Circuit::from_spice`](crate::spice::Circuit::from_spice)) straight
/// into MNA form, analyzed once, and integrated with backward Euler on a
/// uniform grid (adaptive halving on Newton trouble).
///
/// Unlike every other request kind, transient runs are **not memoized**:
/// waveforms are bulky one-shot payloads, and decks arriving over the
/// wire rarely repeat byte-for-byte. [`Session::run`] therefore executes
/// every `TranRequest` fresh.
///
/// # Example
///
/// ```
/// use cnfet::{Session, TranRequest};
///
/// let deck = "V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1p\n.end";
/// let result = Session::new().run(&TranRequest::new(deck, 1e-11, 10e-9))?;
/// let out = result.probe("out").unwrap();
/// assert!((out.last().unwrap() - 1.0).abs() < 1e-3, "RC fully charged");
/// # Ok::<(), cnfet::CnfetError>(())
/// ```
#[derive(Clone, Debug)]
pub struct TranRequest {
    /// SPICE deck text (`R`/`C`/`L`/`V` cards; see
    /// [`crate::spice::deck`]).
    pub deck: String,
    /// Nominal timestep, seconds (must be positive and finite).
    pub dt: f64,
    /// Stop time, seconds (must be positive and finite, and at most
    /// [`MAX_TRAN_STEPS`](crate::mna::MAX_TRAN_STEPS) steps of `dt`).
    pub t_stop: f64,
    /// Node names to record. Empty records every non-ground node in deck
    /// order. An unknown name fails with
    /// [`CnfetError::Deck`](crate::CnfetError::Deck).
    pub probes: Vec<String>,
}

impl TranRequest {
    /// A transient run over the given deck, recording every node.
    pub fn new(deck: impl Into<String>, dt: f64, t_stop: f64) -> TranRequest {
        TranRequest {
            deck: deck.into(),
            dt,
            t_stop,
            probes: Vec::new(),
        }
    }

    /// Restricts the recorded traces to the named nodes.
    #[must_use]
    pub fn probes(mut self, probes: impl IntoIterator<Item = impl Into<String>>) -> TranRequest {
        self.probes = probes.into_iter().map(Into::into).collect();
        self
    }
}

/// The answer to a [`TranRequest`]: the recorded waveforms.
#[derive(Clone, Debug)]
pub struct TranResult {
    /// Strictly increasing sample times, seconds.
    pub time: Vec<f64>,
    /// One `(node name, voltage trace)` per requested probe, in request
    /// (or deck) order; each trace is sample-aligned with `time`.
    pub probes: Vec<(String, Vec<f64>)>,
}

impl TranResult {
    /// The voltage trace of a probed node, by name.
    pub fn probe(&self, name: &str) -> Option<&[f64]> {
        self.probes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, trace)| trace.as_slice())
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct StatsInner {
    batches: AtomicU64,
    submitted: AtomicU64,
}

/// One request class's cache counters: the uniform per-kind unit of
/// [`SessionStats`], derived from that class's sharded cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Requests answered from the cache (including single-flight waits
    /// that received a concurrent build's value).
    pub hits: u64,
    /// Always 0: every hit now takes its shard lock (see
    /// [`cache`](crate::cache)). Kept only because the benchmark's traced
    /// run still reads it for `cache.fast_hit_ratio`; it goes when that
    /// metric does.
    pub fast_hits: u64,
    /// Requests that executed (every request, when caching is disabled).
    pub misses: u64,
    /// Results evicted to respect the capacity bound.
    pub evictions: u64,
}

impl RequestStats {
    /// Total requests serviced for this class.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A point-in-time snapshot of a session's cache and executor counters.
///
/// Every request class gets the same [`RequestStats`] treatment —
/// hit/miss/eviction counts aggregated over that class's cache shards.
/// The per-shard breakdown is available from [`Session::cache_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Cell requests ([`RequestClass::Cell`]).
    pub cells: RequestStats,
    /// Library requests ([`RequestClass::Library`]).
    pub libraries: RequestStats,
    /// Immunity requests ([`RequestClass::Immunity`]).
    pub immunity: RequestStats,
    /// Flow requests ([`RequestClass::Flow`]).
    pub flows: RequestStats,
    /// Sweep requests ([`RequestClass::Sweeps`]): whole sweeps *and*
    /// their per-corner sub-requests share this class, so an overlapping
    /// sweep's corner reuse shows up here as hits.
    pub sweeps: RequestStats,
    /// Repair requests ([`RequestClass::Repairs`]): whole lots *and*
    /// their per-die sub-requests share this class, so an overlapping
    /// lot's die reuse shows up here as hits.
    pub repairs: RequestStats,
    /// Optimization requests ([`RequestClass::Optimizations`]): whole
    /// search trajectories *and* their target-free per-candidate
    /// outcomes share this class, so a re-targeted search's candidate
    /// reuse shows up here as hits (its sweep reuse lands in `sweeps`).
    pub optimizations: RequestStats,
    /// Macro requests ([`RequestClass::Macros`]): whole adder macros
    /// *and* their per-bit-slice sub-requests share this class, so an
    /// overlapping macro's slice reuse shows up here as hits (its
    /// sub-cell reuse lands in `cells`).
    pub macros: RequestStats,
    /// Times a request blocked waiting on another thread's in-flight
    /// build of the same key (across all caches).
    pub inflight_waits: u64,
    /// [`Session::run_batch`] invocations.
    pub batches: u64,
    /// Deque-to-deque steals performed by the job pool, including jobs a
    /// waiting caller took from a worker's deque to help its own batch.
    pub steals: u64,
    /// Every job enqueued on the pool: [`Session::submit`] /
    /// [`Session::submit_all`] jobs, one per [`Session::run_batch`]
    /// request, and every sub-request a composite fans out (a sweep's
    /// corners, a lot's dies, a search's candidate sweeps, a macro's
    /// slices).
    pub submitted: u64,
}

impl SessionStats {
    /// The counters of one request class.
    pub fn class(&self, class: RequestClass) -> RequestStats {
        match class {
            RequestClass::Cell => self.cells,
            RequestClass::Library => self.libraries,
            RequestClass::Immunity => self.immunity,
            RequestClass::Flow => self.flows,
            RequestClass::Sweeps => self.sweeps,
            RequestClass::Repairs => self.repairs,
            RequestClass::Optimizations => self.optimizations,
            RequestClass::Macros => self.macros,
        }
    }

    /// Total requests serviced across every class.
    pub fn requests(&self) -> u64 {
        RequestClass::ALL
            .into_iter()
            .map(|c| self.class(c).requests())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------------

/// The memoization key of a cell: the complete input of a generation.
/// Options embed the [`DesignRules`](crate::core::DesignRules), so two
/// sessions-worth of rule decks never collide.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum CellKey {
    Catalog {
        kind: StdCellKind,
        strength: u8,
        name: Option<String>,
        opts: GenerateOptions,
    },
    Custom {
        name: String,
        pdn: SpNetwork,
        pun: SpNetwork,
        var_names: Vec<String>,
        opts: GenerateOptions,
    },
}

/// A memoized result, type-erased so all four class caches share one
/// value representation. The concrete type behind the `dyn Any` is the
/// request's `Output`, recovered by downcast in [`Session::run`] — safe
/// because [`CacheKey`](crate::CacheKey)s are class-tagged and each class
/// has exactly one output type.
pub(crate) type CachedValue = Arc<dyn Any + Send + Sync>;

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Configures and builds a [`Session`].
///
/// # Example
///
/// ```
/// use cnfet::SessionBuilder;
/// use cnfet::core::{Scheme, Sizing, Style};
///
/// let session = SessionBuilder::new()
///     .scheme(Scheme::Scheme2)
///     .sizing(Sizing::Uniform { width_lambda: 6 })
///     .build();
/// assert_eq!(session.defaults().scheme, Scheme::Scheme2);
/// assert_eq!(session.defaults().style, Style::NewImmune);
/// ```
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    kit: DesignKit,
    defaults: GenerateOptions,
    cache_capacity: usize,
    cache_shards: usize,
    batch_workers: usize,
}

impl SessionBuilder {
    /// Starts from the paper's 65 nm kit and default generation options.
    pub fn new() -> SessionBuilder {
        SessionBuilder {
            kit: DesignKit::cnfet65(),
            defaults: GenerateOptions::default(),
            cache_capacity: DEFAULT_CAPACITY,
            cache_shards: DEFAULT_SHARDS,
            batch_workers: 0,
        }
    }

    /// Replaces the whole design kit (rules + device models + library
    /// matrix).
    #[must_use]
    pub fn kit(mut self, kit: DesignKit) -> SessionBuilder {
        self.defaults.rules = kit.rules;
        self.kit = kit;
        self
    }

    /// Sets the rule deck (on both the kit and the generation defaults).
    #[must_use]
    pub fn rules(mut self, rules: crate::core::DesignRules) -> SessionBuilder {
        self.kit.rules = rules;
        self.defaults.rules = rules;
        self
    }

    /// Sets the default layout style.
    #[must_use]
    pub fn style(mut self, style: Style) -> SessionBuilder {
        self.defaults.style = style;
        self
    }

    /// Sets the default arrangement scheme.
    #[must_use]
    pub fn scheme(mut self, scheme: Scheme) -> SessionBuilder {
        self.defaults.scheme = scheme;
        self
    }

    /// Sets the default sizing policy.
    #[must_use]
    pub fn sizing(mut self, sizing: Sizing) -> SessionBuilder {
        self.defaults.sizing = sizing;
        self
    }

    /// Sets the default row-decomposition policy.
    #[must_use]
    pub fn row_policy(mut self, policy: RowPolicy) -> SessionBuilder {
        self.defaults.row_policy = policy;
        self
    }

    /// Bounds each session cache (one per [`RequestClass`]) to `capacity`
    /// entries, evicting least-recently-used entries past the bound. `0`
    /// disables caching entirely: every request rebuilds and nothing is
    /// stored. Default: [`DEFAULT_CAPACITY`](crate::cache::DEFAULT_CAPACITY).
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> SessionBuilder {
        self.cache_capacity = capacity;
        self
    }

    /// Stripes each session cache over `shards` independent locks
    /// (clamped to `[1, 256]`, rounded up to a power of two, and never
    /// wider than the capacity). More shards mean less contention on the
    /// concurrent hit path; `1` gives a single exact LRU. Default:
    /// [`DEFAULT_SHARDS`](crate::cache::DEFAULT_SHARDS).
    #[must_use]
    pub fn cache_shards(mut self, shards: usize) -> SessionBuilder {
        self.cache_shards = shards;
        self
    }

    /// Fixes the pool width: the number of worker threads of the
    /// session's one persistent pool, which runs [`Session::run_batch`],
    /// [`Session::submit`] / [`Session::submit_all`] and every composite
    /// fan-out. `0` (the default) uses the machine's available
    /// parallelism.
    #[must_use]
    pub fn batch_workers(mut self, workers: usize) -> SessionBuilder {
        self.batch_workers = workers;
        self
    }

    /// Builds the session.
    pub fn build(self) -> Session {
        let (capacity, shards) = (self.cache_capacity, self.cache_shards);
        Session {
            core: Arc::new(SessionCore {
                kit: self.kit,
                defaults: self.defaults,
                caches: std::array::from_fn(|_| ShardedCache::new(capacity, shards)),
                batch_workers: self.batch_workers,
                stats: StatsInner::default(),
                pool: OnceLock::new(),
            }),
        }
    }
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder::new()
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// Everything a session owns, shared by all of its cheap [`Session`]
/// handles and referenced weakly by queued jobs.
struct SessionCore {
    kit: DesignKit,
    defaults: GenerateOptions,
    /// One sharded cache per [`RequestClass`], indexed by
    /// [`RequestClass::index`]. Values are type-erased (see
    /// [`CachedValue`]); keys are class-tagged, so a key only ever meets
    /// values of its own class's output type.
    caches: [ShardedCache<crate::request::CacheKey, CachedValue>; 8],
    batch_workers: usize,
    stats: StatsInner,
    /// The persistent job pool, started on the first [`Session::submit`].
    pool: OnceLock<Pool>,
}

/// The engine: kit + defaults + memoizing caches behind typed requests,
/// all serviced through the generic [`Session::run`].
///
/// Sessions are internally synchronized and cheap to clone — a clone is
/// another handle on the same caches, stats, and job pool. `&Session`
/// methods may be called from many threads; the pool behind
/// [`Session::run_batch`] and [`Session::submit`] does exactly that.
/// Caches are sharded ([`crate::cache`]): hits on different keys take
/// different locks, and builds are single-flight per key — concurrent
/// requests for the same key run one execution; the rest wait on their
/// shard and hit.
///
/// # Example
///
/// ```
/// use cnfet::{CellRequest, Session};
/// use cnfet::core::StdCellKind;
///
/// let session = Session::new();
/// let inv = session.run(&CellRequest::new(StdCellKind::Inv))?;
/// assert!(!inv.cached, "first request generates");
/// assert!(session.run(&CellRequest::new(StdCellKind::Inv))?.cached);
/// assert_eq!(session.stats().cells.misses, 1);
/// # Ok::<(), cnfet::CnfetError>(())
/// ```
#[derive(Clone)]
pub struct Session {
    core: Arc<SessionCore>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("defaults", &self.core.defaults)
            .field("stats", &self.stats())
            .field("pool", &self.core.pool.get())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// A session over the paper's 65 nm kit with default options.
    pub fn new() -> Session {
        SessionBuilder::new().build()
    }

    /// Starts configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The session's design kit.
    pub fn kit(&self) -> &DesignKit {
        &self.core.kit
    }

    /// The generation options used when a request does not carry its own.
    pub fn defaults(&self) -> &GenerateOptions {
        &self.core.defaults
    }

    /// A snapshot of the cache and executor counters, with every request
    /// class aggregated the same way over its cache shards.
    pub fn stats(&self) -> SessionStats {
        let mut per_class = [RequestStats::default(); 8];
        let mut inflight_waits = 0;
        for class in RequestClass::ALL {
            let s = self.core.caches[class.index()].stats();
            per_class[class.index()] = RequestStats {
                hits: s.hits,
                fast_hits: 0,
                misses: s.misses,
                evictions: s.evictions,
            };
            inflight_waits += s.inflight_waits;
        }
        SessionStats {
            cells: per_class[RequestClass::Cell.index()],
            libraries: per_class[RequestClass::Library.index()],
            immunity: per_class[RequestClass::Immunity.index()],
            flows: per_class[RequestClass::Flow.index()],
            sweeps: per_class[RequestClass::Sweeps.index()],
            repairs: per_class[RequestClass::Repairs.index()],
            optimizations: per_class[RequestClass::Optimizations.index()],
            macros: per_class[RequestClass::Macros.index()],
            inflight_waits,
            batches: self.core.stats.batches.load(Ordering::Relaxed),
            steals: self.core.pool.get().map_or(0, Pool::steals),
            submitted: self.core.stats.submitted.load(Ordering::Relaxed),
        }
    }

    /// Per-shard counters of one request class's cache.
    pub fn cache_stats(&self, class: RequestClass) -> CacheStats {
        self.core.caches[class.index()].stats()
    }

    /// Per-shard counters of the cell cache.
    pub fn cell_cache_stats(&self) -> CacheStats {
        self.cache_stats(RequestClass::Cell)
    }

    /// Per-shard counters of the library cache.
    pub fn library_cache_stats(&self) -> CacheStats {
        self.cache_stats(RequestClass::Library)
    }

    /// Number of distinct cell layouts currently cached.
    pub fn cached_cells(&self) -> usize {
        self.core.caches[RequestClass::Cell.index()].len()
    }

    /// Drops every cached result of every request class — cells,
    /// libraries, immunity verdicts, and flow results alike (counters are
    /// kept). Builds in flight during the clear complete normally: their
    /// waiters are served and their claims release on their own, so
    /// in-flight accounting stays correct across a clear.
    pub fn clear_cache(&self) {
        for cache in &self.core.caches {
            cache.clear();
        }
    }

    /// The type-erased cache of one request class — the seam
    /// [`crate::snapshot`] exports from and seeds into.
    pub(crate) fn class_cache(
        &self,
        class: RequestClass,
    ) -> &ShardedCache<crate::request::CacheKey, CachedValue> {
        &self.core.caches[class.index()]
    }

    /// Serializes the session's sweep-class cache — whole
    /// [`SweepReport`](crate::SweepReport)s and their per-corner rows —
    /// to a versioned snapshot file, atomically (written to a sibling
    /// temp file and renamed into place). See [`crate::snapshot`] for
    /// the format and the warm-boot contract.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing or renaming the file.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
        crate::snapshot::save(self, path.as_ref())
    }

    /// Seeds the session's sweep-class cache from a snapshot file
    /// written by [`Session::save_snapshot`], returning the number of
    /// entries restored. Restored entries replay as pure cache hits.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`](crate::snapshot::SnapshotError) when
    /// the file cannot be read, has a mismatched magic/version, or is
    /// truncated/corrupt. The session is usable either way — a failed
    /// load leaves it exactly as cold as it was.
    pub fn load_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> std::result::Result<usize, crate::snapshot::SnapshotError> {
        crate::snapshot::load(self, path.as_ref())
    }

    /// Resolves a cell request's options against the session defaults.
    pub(crate) fn resolve_options(&self, req: &CellRequest) -> GenerateOptions {
        req.options
            .clone()
            .unwrap_or_else(|| self.core.defaults.clone())
    }

    /// The cache key (and resolved options) of a catalog cell request.
    pub(crate) fn catalog_key(&self, request: &CellRequest) -> (CellKey, GenerateOptions) {
        let opts = self.resolve_options(request);
        let key = CellKey::Catalog {
            kind: request.kind,
            strength: request.strength.max(1),
            name: request.name.clone(),
            opts: opts.clone(),
        };
        (key, opts)
    }

    // -- the generic entry points -------------------------------------------

    /// Services any [`SessionRequest`] through the memoizing cache of its
    /// class: a hit (earlier *or* concurrent execution of the same key)
    /// clones the cached output; a miss runs
    /// [`execute`](SessionRequest::execute) outside the shard lock,
    /// single-flight, so misses on different keys run in parallel while
    /// duplicates wait instead of re-executing.
    ///
    /// # Errors
    ///
    /// Propagates whatever the request's execution produces — e.g.
    /// [`GenerateError`](crate::core::GenerateError) (as
    /// [`CnfetError::Generate`](crate::CnfetError::Generate)) for
    /// unrealizable cells, Verilog parse or simulation failures for
    /// flows.
    pub fn run<R: SessionRequest>(&self, request: &R) -> Result<R::Output> {
        let Some(key) = request.cache_key(self) else {
            return request.execute(self);
        };
        let cache = &self.core.caches[key.class().index()];
        let (value, cached) = cache.get_or_build(&key, || {
            request
                .execute(self)
                .map(|output| Arc::new(output) as CachedValue)
        })?;
        let output = value
            .downcast_ref::<R::Output>()
            .expect("cache value type matches its class-tagged key")
            .clone();
        Ok(R::annotate(output, cached))
    }

    /// Services many requests of one kind at once on the session's
    /// persistent work-stealing pool, against the shared caches: the
    /// requests are enqueued as one batch and the caller helps run that
    /// batch while it harvests, so cost-skewed request lists keep every
    /// worker busy. Results keep request order, one per request; all
    /// requests are attempted even when some fail. A request that
    /// panics resolves to [`CnfetError::Canceled`](crate::CnfetError::Canceled)
    /// (the same contract as [`Session::submit`]) instead of unwinding
    /// into the caller. Blocks until the whole batch finishes — for
    /// non-blocking submission use [`Session::submit`] /
    /// [`Session::submit_all`].
    pub fn run_batch<R>(&self, requests: &[R]) -> Vec<Result<R::Output>>
    where
        R: SessionRequest + Clone + Send + 'static,
    {
        self.core.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.fan_out(requests.iter().cloned()).collect()
    }

    /// Enqueues one request on the session's persistent work-stealing
    /// pool and returns immediately. The [`JobHandle`] resolves to the
    /// same output `run` would produce (hit or miss through the same
    /// caches); dropping the handle abandons the result but not the work.
    /// A request that panics, or that is still queued when the session's
    /// last handle drops, resolves to
    /// [`CnfetError::Canceled`](crate::CnfetError::Canceled).
    pub fn submit<R>(&self, request: R) -> JobHandle<R::Output>
    where
        R: SessionRequest + Send + 'static,
    {
        let (_, mut handles) = self.enqueue([request]);
        handles.pop().expect("one request, one handle")
    }

    /// Enqueues a heterogeneous request mix — any combination of cells,
    /// libraries, immunity verdicts, flows, and sweeps wrapped in
    /// [`RequestKind`] — under one queue lock, and returns one
    /// [`JobHandle`] per request **in submission order**. The pool's
    /// workers chunk and steal across the mix, so a cheap-cell tail never
    /// waits behind one heavy flow.
    pub fn submit_all<I>(&self, requests: I) -> Vec<JobHandle<ResponseKind>>
    where
        I: IntoIterator<Item = RequestKind>,
    {
        self.enqueue(requests).1
    }

    /// Submits `requests` as one batch and yields their results **in
    /// request order**, helping run the batch while it waits — the one
    /// fan-out behind [`Session::run_batch`] and every composite request.
    pub(crate) fn fan_out<R>(&self, requests: impl IntoIterator<Item = R>) -> FanOut<'_, R::Output>
    where
        R: SessionRequest + Send + 'static,
    {
        let (batch, handles) = self.enqueue(requests);
        FanOut {
            session: self,
            batch,
            handles: handles.into_iter(),
        }
    }

    /// The one enqueue step: tags the requests' jobs with a fresh batch
    /// id, counts them in [`SessionStats::submitted`], and pushes them
    /// under one injector lock. An empty list starts no worker threads.
    fn enqueue<R>(&self, requests: impl IntoIterator<Item = R>) -> (u64, Vec<JobHandle<R::Output>>)
    where
        R: SessionRequest + Send + 'static,
    {
        let batch = next_batch_id();
        let (jobs, handles): (Vec<Job>, Vec<_>) = requests
            .into_iter()
            .map(|request| {
                let (completion, handle) = job_channel();
                (make_job(&self.core, batch, request, completion), handle)
            })
            .unzip();
        if !jobs.is_empty() {
            self.core
                .stats
                .submitted
                .fetch_add(jobs.len() as u64, Ordering::Relaxed);
            self.pool().submit(jobs);
        }
        (batch, handles)
    }

    /// The persistent pool, started on first use with the session's
    /// worker count.
    fn pool(&self) -> &Pool {
        self.core
            .pool
            .get_or_init(|| Pool::new(self.worker_count()))
    }

    /// The pool width — worker threads of the one persistent pool behind
    /// [`Session::run_batch`], [`Session::submit`] and every composite
    /// fan-out: the [`SessionBuilder::batch_workers`] knob; else the
    /// `CNFET_TEST_WORKERS` environment variable (the CI matrix sets it
    /// to `1` to drive every suite through the single-worker composite
    /// path); else the machine's available parallelism. Public so
    /// embedders — the `cnfet-serve` stats endpoint — can report it.
    pub fn worker_count(&self) -> usize {
        if self.core.batch_workers > 0 {
            return self.core.batch_workers;
        }
        if let Some(n) = std::env::var("CNFET_TEST_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    // -- conveniences -------------------------------------------------------

    /// Generates a cell from explicit pull networks, memoized like any
    /// other request (the key includes both networks and the input names).
    ///
    /// # Errors
    ///
    /// Propagates [`GenerateError`](crate::core::GenerateError) for
    /// unrealizable networks.
    pub fn generate_custom(
        &self,
        name: impl Into<String>,
        pdn: SpNetwork,
        pun: SpNetwork,
        vars: VarTable,
        options: Option<GenerateOptions>,
    ) -> Result<CellResult> {
        self.run(&CustomCellRequest {
            name: name.into(),
            pdn,
            pun,
            vars,
            options,
        })
    }
}

/// Packages one request as a pool job. The job holds the session core
/// only weakly: if every [`Session`] handle is gone by the time the job
/// is popped, it resolves its handle to
/// [`CnfetError::Canceled`](crate::CnfetError::Canceled) instead of
/// keeping a dead engine alive.
fn make_job<R>(
    core: &Arc<SessionCore>,
    batch: u64,
    request: R,
    completion: crate::jobs::Completion<R::Output>,
) -> Job
where
    R: SessionRequest + Send + 'static,
{
    let weak: Weak<SessionCore> = Arc::downgrade(core);
    Job {
        batch,
        run: Box::new(move || match weak.upgrade() {
            Some(core) => {
                let session = Session { core };
                completion.complete(session.run(&request));
            }
            None => drop(completion),
        }),
    }
}

/// How long a fan-out harvest blocks on a pending handle when there is
/// nothing of its own batch left to help with (the job is mid-flight on
/// another thread, or in transit between deques). Short, because
/// helping is the fast path.
const HELP_WAIT: Duration = Duration::from_millis(2);

/// The most children one composite request may fan out: the dies of a
/// repair lot, the rows (cells × corners) of a sweep, the candidates of
/// a search and the rows of each candidate's sweep. Checked by each
/// composite's `validate` before a key is built or a child allocated; a
/// request over it is an [`InvalidRequest`](crate::CnfetError::InvalidRequest).
/// Real lots are far smaller: the largest in the examples and benchmarks
/// is 1,000 dies.
pub const MAX_FANOUT: usize = 1 << 20;

/// Rejects a fan-out of `count` children — computed with saturating
/// arithmetic, so an overflow reads as `usize::MAX` — over
/// [`MAX_FANOUT`], naming `field`.
pub(crate) fn check_fanout(count: usize, field: &str, children: &str) -> Result<()> {
    if count > MAX_FANOUT {
        return Err(crate::CnfetError::InvalidRequest {
            field: field.to_string(),
            message: format!("more than {MAX_FANOUT} {children}"),
        });
    }
    Ok(())
}

/// The results of one [`Session::fan_out`], yielded in request order.
///
/// Harvesting helps the pool in between: the harvesting thread may BE
/// the pool's only worker (a composite executing on the pool), so
/// parking outright on a handle whose job is still queued would
/// deadlock. `try_get` → help (own batch) → short timed wait never parks
/// while the batch's work is queued. Helping is restricted to the
/// fan-out's own batch: popping an arbitrary job (e.g. a second copy of
/// the very composite this thread executes) could block on the
/// single-flight claim this thread holds. Dropping a `FanOut` early
/// abandons the remaining results but not their work.
pub(crate) struct FanOut<'s, T> {
    session: &'s Session,
    batch: u64,
    handles: std::vec::IntoIter<JobHandle<T>>,
}

impl<T> FanOut<'_, T> {
    /// Collects every result in request order, handing each to
    /// `observer` (if any) before harvesting the next, and stops at the
    /// first error — the reduction shape of every per-item composite.
    pub(crate) fn observed(self, observer: Option<&Observer<T>>) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(self.len());
        for result in self {
            let item = result?;
            if let Some(observer) = observer {
                observer.notify(out.len(), &item);
            }
            out.push(item);
        }
        Ok(out)
    }
}

impl<T> Iterator for FanOut<'_, T> {
    type Item = Result<T>;

    fn next(&mut self) -> Option<Result<T>> {
        let mut handle = self.handles.next()?;
        let pool = self.session.pool();
        Some(loop {
            if let Some(result) = handle.try_get() {
                break result;
            }
            if !pool.help_run_one(self.batch) {
                if let Some(result) = handle.wait_timeout(HELP_WAIT) {
                    break result;
                }
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.handles.size_hint()
    }
}

impl<T> ExactSizeIterator for FanOut<'_, T> {}

// ---------------------------------------------------------------------------
// Progress observation
// ---------------------------------------------------------------------------

/// A progress callback a composite request invokes with each harvested
/// item of its fan-out, in report order — a sweep's
/// [`CornerRow`](crate::CornerRow)s, a repair lot's
/// [`DieOutcome`](crate::repair::DieOutcome)s, a search's
/// [`CandidateRow`](crate::CandidateRow)s, a macro's
/// [`SliceOutcome`](crate::SliceOutcome)s — together with the item's
/// index. This is the hook incremental-delivery front ends (the
/// `cnfet-serve` job streaming endpoint) use to flush items as they
/// complete instead of waiting for the whole report.
///
/// The observer is **not** part of the request's identity: it is
/// excluded from the cache key, so an observed and an unobserved request
/// share one memoized report. Consequently the observer only fires when
/// the request actually *executes* — a whole-report cache hit skips
/// execution, and the caller already holds every item in the report it
/// received.
pub struct Observer<T>(ObserverFn<T>);

/// The shared callback behind an [`Observer`].
type ObserverFn<T> = Arc<dyn Fn(usize, &T) + Send + Sync>;

impl<T> Observer<T> {
    /// Wraps a callback. It may be called from whichever thread executes
    /// the request and must not block for long — it runs inside the
    /// harvest loop, between item completions.
    pub fn new(f: impl Fn(usize, &T) + Send + Sync + 'static) -> Observer<T> {
        Observer(Arc::new(f))
    }

    /// Invokes the callback for item `index`.
    pub(crate) fn notify(&self, index: usize, item: &T) {
        (self.0)(index, item);
    }
}

impl<T> Clone for Observer<T> {
    fn clone(&self) -> Self {
        Observer(self.0.clone())
    }
}

impl<T> std::fmt::Debug for Observer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Observer")
    }
}
