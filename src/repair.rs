//! Per-die defect maps and fault-tolerant cell assignment as a
//! composite [`SessionRequest`](crate::SessionRequest).
//!
//! The sweep layer ([`crate::sweep`]) answers the *statistical*
//! question — what yield does a layout family achieve across process
//! corners. This module answers the *per-instance* one: given a
//! concrete lot of dies, each with its own seed-keyed defect
//! population, how many dies can be repaired by reassigning logical
//! cells onto healthy physical sites (spare-column repair)? The pure
//! machinery lives in the std-only `cnfet-repair` crate (re-exported
//! here): [`DefectMap`] sampling, [`SiteTester`] verdicts through the
//! immunity engine's conduction tracer, and the two interchangeable
//! assignment solvers ([`Solver::Matching`] / [`Solver::Sat`]).
//!
//! # Composite execution
//!
//! [`RepairRequest`] is the engine's second composite request, shaped
//! exactly like a sweep: its `execute` fans one [`DieRequest`] per die
//! out on the session's job pool, helping drain its own batch while
//! harvesting (the pool's batch-targeted helping protocol, so a
//! bounded worker set never deadlocks on the fan-out), and reduces the
//! per-die outcomes into a [`RepairReport`].
//!
//! A die builds nothing of its cells: [`DieSpec`] borrows each cell's
//! [`TraceMap`], built at most once per cached cell and shared, through
//! the cached [`CellResult`], by every die of every lot (and by every
//! immunity analysis) over that cell.
//!
//! Memoization works at both granularities in the
//! [`RequestClass::Repairs`](crate::RequestClass::Repairs) cache: a
//! repeated lot is one pure whole-report hit, and a *new* lot that
//! overlaps an earlier one (same cells, seed, process — more dies)
//! re-uses every memoized die and only executes the dies it adds. The
//! per-die key deliberately excludes the lot's die count: die `k` of a
//! 10-die lot and die `k` of a 1000-die lot are the same work.
//!
//! # Example
//!
//! ```
//! use cnfet::core::StdCellKind;
//! use cnfet::{RepairRequest, Session};
//!
//! let session = Session::new();
//! let request = RepairRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)])
//!     .dies(4)
//!     .spares(2)
//!     .base_seed(7);
//! let report = session.run(&request)?;
//! assert_eq!(report.dies.len(), 4);
//! // Repeating the lot is a pure Repairs-class cache hit.
//! let again = session.run(&request)?;
//! assert!(std::sync::Arc::ptr_eq(&report, &again));
//! # Ok::<(), cnfet::CnfetError>(())
//! ```

pub use cnfet_repair::{
    max_matching, mix_seed, repair_die, solve, Assignment, Cnf, DefectKind, DefectMap,
    DefectParams, DieOutcome, DieSpec, Matching, Problem, SatResult, SiteDefects, SiteTester,
    SiteVerdict, Solver, TubeDefect,
};

use crate::error::{CnfetError, Result};
use crate::immunity::TraceMap;
use crate::session::{CellKey, CellRequest, CellResult, Observer, Session};
use crate::sweep::{canonical_axis_value, check_axis_value};
use cnfet_repair::site_count;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A fault-tolerant repair run over a lot of dies — a composite request
/// fanning one [`DieRequest`] per die (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use cnfet::core::StdCellKind;
/// use cnfet::{RepairRequest, Session};
///
/// let request = RepairRequest::new([StdCellKind::Inv]).dies(3).spares(1);
/// let report = Session::new().run(&request)?;
/// assert_eq!(report.dies.len(), 3);
/// # Ok::<(), cnfet::CnfetError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RepairRequest {
    /// Logical cells to place on every die; each is generated through
    /// the session cell cache.
    pub cells: Vec<CellRequest>,
    /// Number of dies in the lot (die indices `0..dies`).
    pub dies: u64,
    /// Lot-level base seed; per-die defect streams derive from it via
    /// [`mix_seed`].
    pub base_seed: u64,
    /// Spare physical sites per die beyond one per logical cell.
    pub spares: u32,
    /// CNT defect process parameters.
    pub params: DefectParams,
    /// Which assignment solver to run per die.
    pub solver: Solver,
    /// Pairs of logical cells (by index) that must land on adjacent
    /// sites.
    pub adjacent: Vec<(u32, u32)>,
    /// Per-die progress hook, fed outcomes in die order; excluded from
    /// the cache key (see [`Observer`]).
    observer: Option<Observer<DieOutcome>>,
}

impl RepairRequest {
    /// A one-die lot of the given cells with one spare site, default
    /// process parameters, the auto solver, and no adjacency
    /// constraints.
    pub fn new(cells: impl IntoIterator<Item = impl Into<CellRequest>>) -> RepairRequest {
        RepairRequest {
            cells: cells.into_iter().map(Into::into).collect(),
            dies: 1,
            base_seed: 0xD1E5,
            spares: 1,
            params: DefectParams::default(),
            solver: Solver::Auto,
            adjacent: Vec::new(),
            observer: None,
        }
    }

    /// Sets the lot size.
    #[must_use]
    pub fn dies(mut self, dies: u64) -> RepairRequest {
        self.dies = dies;
        self
    }

    /// Sets the lot-level base seed.
    #[must_use]
    pub fn base_seed(mut self, seed: u64) -> RepairRequest {
        self.base_seed = seed;
        self
    }

    /// Sets the spare site count per die.
    #[must_use]
    pub fn spares(mut self, spares: u32) -> RepairRequest {
        self.spares = spares;
        self
    }

    /// Replaces the defect process parameters.
    #[must_use]
    pub fn params(mut self, params: DefectParams) -> RepairRequest {
        self.params = params;
        self
    }

    /// Selects the assignment solver.
    #[must_use]
    pub fn solver(mut self, solver: Solver) -> RepairRequest {
        self.solver = solver;
        self
    }

    /// Replaces the adjacency constraint list.
    #[must_use]
    pub fn adjacent(mut self, pairs: impl IntoIterator<Item = (u32, u32)>) -> RepairRequest {
        self.adjacent = pairs.into_iter().collect();
        self
    }

    /// Attaches a per-die progress observer, fed outcomes in
    /// [`RepairReport::dies`] order (see [`Observer`] for the
    /// cache-interaction contract).
    #[must_use]
    pub fn observe_dies(mut self, observer: Observer<DieOutcome>) -> RepairRequest {
        self.observer = Some(observer);
        self
    }

    /// Number of per-die outcomes this lot will produce — the count a
    /// streaming consumer should expect before the report lands.
    pub fn die_count(&self) -> usize {
        usize::try_from(self.dies).unwrap_or(usize::MAX)
    }

    /// Checks that the lot has at most [`MAX_FANOUT`](crate::MAX_FANOUT)
    /// dies, that a die's site count (one per cell plus the spares) fits
    /// in a `u32` and that every [`DefectParams`] float is finite and
    /// non-negative. An invalid lot gets no cache key and `execute`
    /// rejects it before any die is allocated.
    ///
    /// # Errors
    ///
    /// [`CnfetError::InvalidRequest`] naming the offending field
    /// (`dies`, `spares`, or e.g. `params.tau`).
    pub fn validate(&self) -> Result<()> {
        crate::session::check_fanout(self.die_count(), "dies", "dies per lot")?;
        validate_die(self.cells.len(), self.spares, &self.params)
    }

    /// The structural cache key of the whole lot: a die's key with the
    /// lot size in place of the die index.
    pub(crate) fn key(&self, session: &Session) -> RepairKey {
        RepairKey {
            dies: self.dies,
            ..self.die_request(0).key(session)
        }
    }

    /// The per-die sub-request of one die index.
    fn die_request(&self, die: u64) -> DieRequest {
        DieRequest {
            cells: self.cells.clone(),
            die,
            base_seed: self.base_seed,
            spares: self.spares,
            params: self.params,
            solver: self.solver,
            adjacent: self.adjacent.clone(),
        }
    }
}

/// One die's repair: the unit a [`RepairRequest`] fans out, itself a
/// [`SessionRequest`](crate::SessionRequest) memoized in the
/// [`RequestClass::Repairs`](crate::RequestClass::Repairs) cache. The
/// key holds the die *index*, never the surrounding lot's size, so
/// overlapping lots (and direct submissions) share die outcomes.
#[derive(Clone, Debug)]
pub struct DieRequest {
    /// Logical cells to place (generated through the session cache).
    pub cells: Vec<CellRequest>,
    /// Die index within the seeded defect stream.
    pub die: u64,
    /// Lot-level base seed.
    pub base_seed: u64,
    /// Spare sites beyond one per logical cell.
    pub spares: u32,
    /// Defect process parameters.
    pub params: DefectParams,
    /// Assignment solver.
    pub solver: Solver,
    /// Adjacency constraints (cell index pairs).
    pub adjacent: Vec<(u32, u32)>,
}

impl DieRequest {
    /// The same checks as [`RepairRequest::validate`].
    ///
    /// # Errors
    ///
    /// [`CnfetError::InvalidRequest`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        validate_die(self.cells.len(), self.spares, &self.params)
    }

    /// The structural cache key of this die.
    pub(crate) fn key(&self, session: &Session) -> RepairKey {
        RepairKey {
            cells: self
                .cells
                .iter()
                .map(|cell| session.catalog_key(cell).0)
                .collect(),
            dies: self.die,
            base_seed: self.base_seed,
            spares: self.spares,
            tubes_per_site: self.params.tubes_per_site,
            params: param_floats(&self.params).map(|(_, v)| canonical_axis_value(v).to_bits()),
            solver: self.solver,
            adjacent: self.adjacent.clone(),
        }
    }
}

/// The memoization input of a repair lot or one die: the resolved cell
/// keys, the process, and the solver set-up. Floats are keyed by their
/// bits with `-0.0` folded to `0.0`; only valid requests get a key, so
/// no NaN ever reaches one.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct RepairKey {
    cells: Vec<CellKey>,
    /// The lot size in a lot key, the die index in a die key.
    dies: u64,
    base_seed: u64,
    spares: u32,
    tubes_per_site: u32,
    /// The [`param_floats`], in order.
    params: [u64; 6],
    solver: Solver,
    adjacent: Vec<(u32, u32)>,
}

/// The float fields of [`DefectParams`], named as on the wire.
fn param_floats(params: &DefectParams) -> [(&'static str, f64); 6] {
    [
        ("metallic_fraction", params.metallic_fraction),
        ("open_fraction", params.open_fraction),
        ("misposition_fraction", params.misposition_fraction),
        ("open_tolerance", params.open_tolerance),
        ("tau", params.tau),
        ("segment_len_lambda", params.segment_len_lambda),
    ]
}

fn validate_die(cells: usize, spares: u32, params: &DefectParams) -> Result<()> {
    if site_count(cells, spares).is_none() {
        return Err(CnfetError::InvalidRequest {
            field: "spares".into(),
            message: format!(
                "{cells} cells plus {spares} spares exceed {} sites per die",
                u32::MAX
            ),
        });
    }
    for (name, value) in param_floats(params) {
        check_axis_value(value, || format!("params.{name}"))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// The reduction of a [`RepairRequest`]: every die's outcome plus the
/// lot-level yield and spare-utilization aggregates.
#[derive(Clone, Debug)]
pub struct RepairReport {
    /// Logical cells placed per die.
    pub cells: usize,
    /// Spare sites per die.
    pub spares: u32,
    /// One outcome per die, in die order (die `k` at index `k`).
    pub dies: Vec<DieOutcome>,
    /// Dies where every cell found a healthy site.
    pub repaired_dies: usize,
    /// Census of the dies that could not be repaired (die indices, in
    /// order).
    pub unrepairable: Vec<u64>,
    /// Spare sites actually consumed, summed over the repaired dies.
    pub spares_used: u64,
}

impl RepairReport {
    /// Fraction of dies functional after repair, the lot's bottom line.
    /// `None` for an empty lot.
    pub fn yield_after_repair(&self) -> Option<f64> {
        if self.dies.is_empty() {
            return None;
        }
        Some(self.repaired_dies as f64 / self.dies.len() as f64)
    }

    /// Fraction of the lot's spare sites consumed by repair. `None`
    /// when the lot has no spare sites at all.
    pub fn spare_utilization(&self) -> Option<f64> {
        let total = self.spares as u64 * self.dies.len() as u64;
        if total == 0 {
            return None;
        }
        Some(self.spares_used as f64 / total as f64)
    }

    /// Renders the report as a fixed-layout text table, one line per
    /// die plus the lot aggregates. Deterministic: equal reports render
    /// byte-identically (fixed column widths, fixed float precision),
    /// which is what the golden and determinism suites pin down.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "repair lot: {} cells/die, {} dies, {} spares/die",
            self.cells,
            self.dies.len(),
            self.spares
        );
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>10} {:>9} {:>9} {:>12}  assignment",
            "die", "sites", "defective", "repaired", "solver", "spares-used"
        );
        for outcome in &self.dies {
            let assignment = if outcome.repaired {
                outcome
                    .assignment
                    .iter()
                    .map(|s| s.map_or_else(|| "-".to_string(), |s| s.to_string()))
                    .collect::<Vec<_>>()
                    .join(",")
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{:>6} {:>6} {:>10} {:>9} {:>9} {:>12}  {}",
                outcome.die,
                outcome.sites,
                outcome.defective_sites,
                if outcome.repaired { "yes" } else { "no" },
                outcome.solver,
                outcome.spares_used,
                assignment
            );
        }
        match self.yield_after_repair() {
            Some(y) => {
                let _ = writeln!(
                    out,
                    "yield after repair: {}/{} ({:.2}%)",
                    self.repaired_dies,
                    self.dies.len(),
                    y * 100.0
                );
            }
            None => {
                let _ = writeln!(out, "yield after repair: n/a (empty lot)");
            }
        }
        match self.spare_utilization() {
            Some(u) => {
                let _ = writeln!(
                    out,
                    "spare utilization: {}/{} ({:.2}%)",
                    self.spares_used,
                    self.spares as u64 * self.dies.len() as u64,
                    u * 100.0
                );
            }
            None => {
                let _ = writeln!(out, "spare utilization: n/a (no spares)");
            }
        }
        if self.unrepairable.is_empty() {
            let _ = writeln!(out, "unrepairable dies: none");
        } else {
            let census = self
                .unrepairable
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(out, "unrepairable dies: {census}");
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Executes a whole lot on a session: fan out one [`DieRequest`] per
/// die through the job pool, help drain the lot's own batch while
/// waiting, reduce into a [`RepairReport`].
pub(crate) fn execute_repair(
    request: &RepairRequest,
    session: &Session,
) -> Result<Arc<RepairReport>> {
    request.validate()?;
    let dies = session
        .fan_out((0..request.dies).map(|die| request.die_request(die)))
        .observed(request.observer.as_ref())?;
    Ok(Arc::new(assemble(
        request.cells.len(),
        request.spares,
        dies,
    )))
}

/// Executes one die: recall (or generate) every cell through the
/// session cache together with its trace map — built once per cached
/// cell, never per die — then hand the pure per-die pipeline to
/// [`cnfet_repair::repair_die`].
pub(crate) fn execute_die(request: &DieRequest, session: &Session) -> Result<DieOutcome> {
    request.validate()?;
    let cells: Vec<CellResult> = request
        .cells
        .iter()
        .map(|cell| session.run(cell))
        .collect::<Result<_>>()?;
    let maps: Vec<&TraceMap> = cells.iter().map(CellResult::trace_map).collect();
    Ok(repair_die(&DieSpec {
        maps: &maps,
        die: request.die,
        base_seed: request.base_seed,
        spares: request.spares,
        params: request.params,
        solver: request.solver,
        adjacent: &request.adjacent,
    }))
}

/// Reduces the harvested outcomes into the report, deterministic in die
/// order.
fn assemble(cells: usize, spares: u32, dies: Vec<DieOutcome>) -> RepairReport {
    let repaired_dies = dies.iter().filter(|d| d.repaired).count();
    let unrepairable = dies.iter().filter(|d| !d.repaired).map(|d| d.die).collect();
    let spares_used = dies.iter().map(|d| u64::from(d.spares_used)).sum();
    RepairReport {
        cells,
        spares,
        dies,
        repaired_dies,
        unrepairable,
        spares_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(die: u64, repaired: bool, spares_used: u32) -> DieOutcome {
        DieOutcome {
            die,
            sites: 3,
            defective_sites: u32::from(!repaired),
            repaired,
            solver: "matching",
            spares_used,
            assignment: if repaired {
                vec![Some(0), Some(1)]
            } else {
                vec![None, None]
            },
        }
    }

    #[test]
    fn assemble_aggregates_yield_and_census() {
        let report = assemble(
            2,
            1,
            vec![
                outcome(0, true, 0),
                outcome(1, false, 0),
                outcome(2, true, 1),
            ],
        );
        assert_eq!(report.repaired_dies, 2);
        assert_eq!(report.unrepairable, vec![1]);
        assert_eq!(report.spares_used, 1);
        assert!((report.yield_after_repair().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((report.spare_utilization().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_lot_renders_without_division() {
        let report = assemble(1, 0, vec![]);
        assert_eq!(report.yield_after_repair(), None);
        assert_eq!(report.spare_utilization(), None);
        let text = report.render();
        assert!(text.contains("n/a (empty lot)"));
        assert!(text.contains("n/a (no spares)"));
    }

    #[test]
    fn render_is_deterministic_and_lists_census() {
        let report = assemble(2, 1, vec![outcome(0, true, 1), outcome(5, false, 0)]);
        let text = report.render();
        assert_eq!(text, report.render());
        assert!(text.contains("unrepairable dies: 5"), "{text}");
        assert!(text.contains("yield after repair: 1/2 (50.00%)"), "{text}");
    }

    fn lot() -> RepairRequest {
        use crate::core::StdCellKind;
        RepairRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)]).dies(4)
    }

    /// The `field`th of the [`param_floats`], mutably.
    fn param_float(params: &mut DefectParams, field: usize) -> &mut f64 {
        match field {
            0 => &mut params.metallic_fraction,
            1 => &mut params.open_fraction,
            2 => &mut params.misposition_fraction,
            3 => &mut params.open_tolerance,
            4 => &mut params.tau,
            _ => &mut params.segment_len_lambda,
        }
    }

    fn with_params(request: &RepairRequest, edit: impl FnOnce(&mut DefectParams)) -> RepairRequest {
        let mut params = request.params;
        edit(&mut params);
        request.clone().params(params)
    }

    #[test]
    fn repair_keys_fold_negative_zero_and_tell_every_field_apart() {
        use crate::core::StdCellKind;
        use crate::request::SessionRequest;
        let session = Session::new();
        let lot_key = |r: &RepairRequest| r.cache_key(&session).unwrap();
        let base = lot();

        // -0.0 and 0.0 are one process, so one key — for lots and dies.
        let zero = with_params(&base, |p| p.open_fraction = 0.0);
        let negative_zero = with_params(&base, |p| p.open_fraction = -0.0);
        assert_eq!(lot_key(&zero), lot_key(&negative_zero));
        assert_eq!(
            zero.die_request(1).cache_key(&session),
            negative_zero.die_request(1).cache_key(&session)
        );

        let mut variants = vec![
            base.clone(),
            base.clone().dies(5),
            base.clone().base_seed(1),
            base.clone().spares(2),
            base.clone().solver(Solver::Sat),
            base.clone().adjacent([(0, 1)]),
            RepairRequest {
                cells: vec![StdCellKind::Inv.into(), StdCellKind::Nor(2).into()],
                ..base.clone()
            },
            with_params(&base, |p| p.tubes_per_site += 1),
        ];
        for field in 0..6 {
            variants.push(with_params(&base, |p| *param_float(p, field) += 0.5));
        }
        let keys: Vec<_> = variants.iter().map(lot_key).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }

        // A lot of four dies and die index four of the same lot share
        // every field value, yet never a key.
        let die = base.die_request(4);
        assert_ne!(die.cache_key(&session).unwrap(), lot_key(&base));
        assert_ne!(
            base.die_request(4).cache_key(&session),
            base.die_request(5).cache_key(&session)
        );
    }

    #[test]
    fn invalid_lots_and_dies_are_refused_with_the_field_path() {
        use crate::core::StdCellKind;
        use crate::request::SessionRequest;
        use crate::CnfetError;
        let session = Session::new();
        let three =
            RepairRequest::new([StdCellKind::Inv, StdCellKind::Nand(2), StdCellKind::Nor(2)]);
        let field_of = |result: Result<()>| match result {
            Err(CnfetError::InvalidRequest { field, .. }) => field,
            other => panic!("expected an invalid request, got {other:?}"),
        };

        // Three cells plus u32::MAX spares overflow the site count.
        let wide = three.clone().spares(u32::MAX);
        assert_eq!(field_of(wide.validate()), "spares");
        assert_eq!(field_of(wide.die_request(0).validate()), "spares");
        assert!(wide.cache_key(&session).is_none());
        assert!(wide.die_request(0).cache_key(&session).is_none());
        assert!(matches!(
            session.run(&wide),
            Err(CnfetError::InvalidRequest { .. })
        ));
        assert!(matches!(
            session.run(&wide.die_request(0)),
            Err(CnfetError::InvalidRequest { .. })
        ));
        // The largest count that fits is valid.
        assert!(three.clone().spares(u32::MAX - 3).validate().is_ok());

        for (field, (name, _)) in param_floats(&three.params).into_iter().enumerate() {
            for bad in [f64::NAN, f64::INFINITY, -1.0] {
                let request = with_params(&three, |p| *param_float(p, field) = bad);
                assert_eq!(field_of(request.validate()), format!("params.{name}"));
                assert!(request.cache_key(&session).is_none());
                assert!(request.die_request(0).cache_key(&session).is_none());
            }
        }
        assert_eq!(
            session.stats().repairs.misses,
            0,
            "no invalid key was cached"
        );
    }

    #[test]
    fn lots_over_max_fanout_are_refused() {
        use crate::core::StdCellKind;
        use crate::request::SessionRequest;
        use crate::{CnfetError, MAX_FANOUT};
        let session = Session::new();
        let lot = |dies: u64| RepairRequest::new([StdCellKind::Inv]).dies(dies);
        assert!(lot(MAX_FANOUT as u64).validate().is_ok());
        for dies in [MAX_FANOUT as u64 + 1, 1_000_000_000_000, u64::MAX] {
            match lot(dies).validate() {
                Err(CnfetError::InvalidRequest { field, .. }) => assert_eq!(field, "dies"),
                other => panic!("{dies} dies: expected an invalid request, got {other:?}"),
            }
            assert!(lot(dies).cache_key(&session).is_none());
        }
    }
}
