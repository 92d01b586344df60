//! # cnfet — compact imperfection-immune CNFET layouts
//!
//! A full reproduction, as a Rust library suite, of *"Design of Compact
//! Imperfection-Immune CNFET Layouts for Standard-Cell-Based Logic
//! Synthesis"* (Bobba, Zhang, Pullini, Atienza, De Micheli — DATE 2009).
//!
//! **Start with `ARCHITECTURE.md` at the repository root** for the
//! top-to-bottom guide: the workspace crate map, the [`SessionRequest`]
//! lifecycle, the cache and pool designs (including the batch-targeted
//! helping rule composite requests rely on), the determinism contract,
//! and the `cnfet-serve` wire protocol with curl transcripts.
//!
//! # The `Session` engine
//!
//! The front door of the stack is [`Session`]: build one from a
//! [`SessionBuilder`] (design rules, device model, scheme/style/sizing
//! defaults) and feed it typed requests. Every request kind implements
//! the [`SessionRequest`] trait, and one generic entry point services
//! them all: [`Session::run`]. Results are memoized by their complete
//! generation input, so repeated requests — the shape of any
//! co-optimization sweep — cost one execution plus
//! [`Arc`](std::sync::Arc) clones. [`Session::run_batch`] fans a request
//! list out across threads, and [`Session::submit`] /
//! [`Session::submit_all`] enqueue work **non-blocking** on a persistent
//! work-stealing pool, returning [`JobHandle`]s (heterogeneous mixes go
//! through [`RequestKind`]). All failures converge on one hierarchy,
//! [`CnfetError`], with a workspace-wide [`Result`] alias.
//!
//! | Request | `run` output | What runs |
//! |---|---|---|
//! | [`CellRequest`] | [`CellResult`] | the compact immune layout generator |
//! | [`LibraryRequest`] | [`dk::CellLibrary`] | the full function × strength library |
//! | [`ImmunityRequest`] | [`ImmunityReport`] | certification and/or Monte-Carlo |
//! | [`FlowRequest`] | [`FlowResult`] | place → simulate → GDSII |
//! | [`SweepRequest`] | [`SweepReport`] | a variation sweep fanning out per-corner sub-requests |
//! | [`SweepCornerRequest`] | [`CornerRow`] | one cell at one process corner |
//! | [`RepairRequest`] | [`RepairReport`] | a per-die defect/repair lot fanning out per-die sub-requests |
//! | [`DieRequest`] | [`repair::DieOutcome`] | one die: sample defects, test sites, assign cells |
//! | [`OptimizeRequest`] | [`OptimizeReport`] | a processing↔circuit co-optimization search over memoized sweeps |
//! | [`MacroRequest`] | [`MacroReport`] | a hierarchical 8/32/64-bit adder macro fanning out per-bit-slice sub-requests |
//! | [`MacroSliceRequest`] | [`macros::SliceOutcome`] | one bit slice: sub-cell recall + carry/sum arc characterization |
//! | [`TranRequest`] | [`TranResult`] | a SPICE-deck transient on the MNA engine (uncached) |
//! | [`RequestKind`] (any mix) | [`ResponseKind`] | dispatch to the above |
//!
//! [`SweepRequest`] is the first *composite* request: its execution
//! schedules per-corner sub-requests on the same pool (deadlock-free on
//! a bounded worker set — see [`sweep`]) and reduces them into per-corner
//! rows, a delay/energy/yield Pareto frontier, and best/worst-corner
//! summaries. [`RepairRequest`] is the second, same shape over dies
//! instead of corners: sample a seed-keyed defect map per die, test
//! every site against every cell layout, and assign cells onto healthy
//! sites with bipartite matching or the in-repo SAT solver ([`repair`]).
//! [`OptimizeRequest`] nests them deepest: a coordinate-descent /
//! successive-halving search whose every candidate evaluation is itself
//! a memoized sweep, so overlapping candidates re-execute only new
//! corners and a re-targeted search replays measured candidates as pure
//! cache hits ([`optimize`]).
//! [`MacroRequest`] is the fourth and the first to climb a level of
//! *layout* hierarchy: it composes the paper's full adder into an
//! 8/32/64-bit ripple-carry or carry-look-ahead macro whose slices hold
//! an `Arc` reference to one shared sub-cell (never flattened copies),
//! fanning per-bit-slice characterizations out on the same pool
//! ([`macros`]).
//!
//! The per-kind methods of the 0.1 line (`Session::generate`,
//! `::library`, `::immunity`, `::flow`, `::generate_batch`) were
//! deprecated in 0.2.0 and are **removed** as of 0.3.0 — migrate
//! `session.generate(&r)` to `session.run(&r)`, and `generate_batch` to
//! [`Session::run_batch`] / [`Session::submit_all`]. The same
//! one-release policy retired the 0.4.0 wire-client deprecations in
//! 0.5.0: `cnfet_serve::Client::get`/`::post` are gone — use the
//! `Client::request(…)` builder.
//!
//! # Quickstart
//!
//! ```
//! use cnfet::{CellRequest, ImmunityRequest, Session};
//! use cnfet::core::StdCellKind;
//!
//! let session = Session::new();
//!
//! // The paper's Figure 3(b): a NAND3 laid out along an Euler path.
//! let nand3 = session.run(&CellRequest::new(StdCellKind::Nand(3)))?;
//! assert_eq!(nand3.cell.pun_active_area_l2, 120.0); // 30λ × 4λ
//!
//! // 100% misposition-immune, certified without regenerating the cell.
//! let report = session.run(&ImmunityRequest::certify(StdCellKind::Nand(3)))?;
//! assert!(report.immune);
//! assert_eq!(session.stats().cells.hits, 1);
//!
//! // Non-blocking: a JobHandle resolves on the session's job pool.
//! let job = session.submit(CellRequest::new(StdCellKind::Nand(3)));
//! assert!(job.wait()?.cached);
//! # Ok::<(), cnfet::CnfetError>(())
//! ```
//!
//! # The workspace underneath
//!
//! * [`geom`] — λ-grid layout geometry, GDSII and SVG;
//! * [`logic`] — boolean expressions, series–parallel networks, Euler paths;
//! * [`device`] — CNT physics, the screened CNFET compact model, the CMOS
//!   65 nm baseline, FO4 analytics;
//! * [`mna`] — the reusable-factorization MNA engine: one symbolic
//!   analysis per topology, in-place LU re-factorization per timestep
//!   (once per step size for linear circuits), transient + AC analysis,
//!   `.measure`-style extraction;
//! * [`spice`] — netlists, deck parsing/rendering, and DC/transient
//!   simulation lowered onto [`mna`];
//! * [`core`] — the paper's contribution: the compact misaligned-CNT-immune
//!   layout generator (plus the old etched style and the vulnerable
//!   baseline), schemes 1/2, Table 1 area models, DRC;
//! * [`immunity`] — certification and Monte-Carlo analysis of functional
//!   immunity to mispositioned CNTs;
//! * [`dk`] — the CNFET design kit: library, characterization,
//!   Liberty/LEF/GDS;
//! * [`flow`] — logic-to-GDSII: synthesis, placement, simulation, assembly.
//!
//! Under the hood every request class ([`RequestClass`]: cells,
//! libraries, immunity verdicts, flow results, sweeps, repairs,
//! optimizations, macros) is memoized by
//! its own sharded, bounded, single-flight LRU cache ([`cache`]) — tune
//! it with [`SessionBuilder::cache_capacity`] and
//! [`SessionBuilder::cache_shards`] — and batches and submitted jobs run
//! on std-only work-stealing executors. The per-crate free functions
//! ([`core::generate_cell`], `dk::build_library`, …) remain available
//! for one-shot use; the deprecated PR-1 shims that rebuilt state on
//! every call (`dk::DesignKit::build_library`, `flow::place_cnfet`, …)
//! have been removed.
//!
//! # Serving the engine over the wire
//!
//! The sibling crate `cnfet-serve` exposes this whole engine to network
//! clients as a std-only HTTP/1.1 + JSON server: `POST /v1/run` and
//! `/v1/batch` for synchronous requests, `POST /v1/submit` +
//! `GET /v1/jobs/{id}` for the non-blocking [`Session::submit_all`]
//! shape, and `GET /v1/stats` surfacing [`SessionStats`] — so many
//! remote co-optimization loops share one warm cache. See
//! `ARCHITECTURE.md` for the protocol.

#![warn(missing_docs)]

pub use cnfet_core as core;
pub use cnfet_device as device;
pub use cnfet_dk as dk;
pub use cnfet_flow as flow;
pub use cnfet_geom as geom;
pub use cnfet_immunity as immunity;
pub use cnfet_logic as logic;
pub use cnfet_mna as mna;
pub use cnfet_spice as spice;

mod batch;
pub mod cache;
mod error;
mod jobs;
pub mod macros;
pub mod optimize;
pub mod repair;
mod request;
mod session;
pub mod snapshot;
mod steal;
pub mod sweep;

pub use cache::{CacheStats, ShardStats};
pub use error::{CnfetError, Result};
pub use jobs::JobHandle;
pub use macros::{MacroReport, MacroRequest, MacroSliceRequest, SliceObserver, SliceOutcome};
pub use optimize::{
    CandidateObserver, CandidateOutcome, CandidateRow, OptimizeAxis, OptimizeCandidateRequest,
    OptimizeReport, OptimizeRequest, OptimizeTarget,
};
pub use repair::{DieObserver, DieRequest, RepairReport, RepairRequest};
pub use request::{CacheKey, RequestClass, RequestKind, ResponseKind, SessionRequest};
pub use session::{
    CellRequest, CellResult, FlowRequest, FlowResult, FlowSource, FlowTarget, ImmunityEngine,
    ImmunityReport, ImmunityRequest, LibraryRequest, RequestStats, Session, SessionBuilder,
    SessionStats, SimSpec, TranRequest, TranResult,
};
pub use snapshot::SnapshotError;
pub use sweep::{
    CornerRow, CornerSummary, RowObserver, SweepCornerRequest, SweepMetrics, SweepReport,
    SweepRequest, VariationCorner, VariationGrid,
};
