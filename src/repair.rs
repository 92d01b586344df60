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

use crate::error::Result;
use crate::session::{CellRequest, Observer, Session};
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
    let dies = session
        .fan_out((0..request.dies).map(|die| request.die_request(die)))
        .observed(request.observer.as_ref())?;
    Ok(Arc::new(assemble(
        request.cells.len(),
        request.spares,
        dies,
    )))
}

/// Executes one die: generate (or recall) every cell layout through the
/// session cache, then hand the pure per-die pipeline to
/// [`cnfet_repair::repair_die`].
pub(crate) fn execute_die(request: &DieRequest, session: &Session) -> Result<DieOutcome> {
    let cells: Vec<Arc<crate::core::GeneratedCell>> = request
        .cells
        .iter()
        .map(|cell| session.run(cell).map(|r| r.cell))
        .collect::<Result<_>>()?;
    let layouts: Vec<&crate::core::SemanticLayout> = cells.iter().map(|c| &c.semantics).collect();
    Ok(repair_die(&DieSpec {
        layouts: &layouts,
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
}
