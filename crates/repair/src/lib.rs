//! Per-die CNT defect maps and fault-tolerant cell assignment.
//!
//! The paper's immunity story is statistical: Monte-Carlo yield across
//! process corners. Deploying imperfection-immune layouts on a real die
//! needs the *per-instance* scenario instead — sample a concrete defect
//! population for one die, test every physical site against it, and
//! route the logical cells around the sites that fail. This crate
//! provides the three deterministic pieces of that story:
//!
//! * [`DefectMap`] — a seed-keyed sampler producing per-site,
//!   per-transistor CNT defects (surviving metallic tubes, open tubes,
//!   mispositioned tubes) from process parameters ([`DefectParams`]).
//!   Every die's map is a pure function of `(base seed, die index,
//!   parameters, site count)`, so overlapping die ranges share work.
//! * [`SiteTester`] — evaluates an immune layout against one site's
//!   concrete defects, reusing the immunity engine's verdict machinery
//!   ([`cnfet_immunity::trace_polyline`] over the layout's prepared
//!   [`TraceMap`] with the full superset criterion).
//! * [`solve`] — the repair core: assign logical cells onto healthy
//!   physical sites with either Hopcroft–Karp bipartite matching
//!   ([`matching`]) or a small DPLL SAT solver with unit propagation
//!   and two watched literals per clause ([`sat`]) for adjacency
//!   constraints matching cannot express.
//!
//! [`repair_die`] ties the three together: one call samples a die,
//! tests every (cell, site) pair, solves the assignment, and returns a
//! [`DieOutcome`]. A die builds nothing of its cells: [`DieSpec`]
//! borrows each cell's [`TraceMap`], prepared once by the caller and
//! shared by every die of every lot over that layout.
//!
//! # Example
//!
//! ```
//! use cnfet_core::{generate_cell, GenerateOptions, StdCellKind};
//! use cnfet_immunity::TraceMap;
//! use cnfet_repair::{repair_die, DefectParams, DieSpec, Solver};
//!
//! let inv = generate_cell(StdCellKind::Inv, &GenerateOptions::default()).unwrap();
//! let map = TraceMap::new(&inv.semantics);
//! let maps = [&map, &map];
//! let outcome = repair_die(&DieSpec {
//!     maps: &maps,
//!     die: 0,
//!     base_seed: 42,
//!     spares: 2,
//!     params: DefectParams::default(),
//!     solver: Solver::Auto,
//!     adjacent: &[],
//! });
//! assert_eq!(outcome.sites, 4, "two cells + two spares");
//! assert_eq!(outcome.assignment.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod assign;
pub mod defect;
pub mod matching;
pub mod sat;
pub mod site;

pub use assign::{solve, Assignment, Problem, Solver};
pub use defect::{mix_seed, DefectKind, DefectMap, DefectParams, SiteDefects, TubeDefect};
pub use matching::{max_matching, Matching};
pub use sat::{Cnf, SatResult};
pub use site::{SiteTester, SiteVerdict};

use cnfet_immunity::TraceMap;

/// Everything that determines one die's repair run: the logical cells'
/// prepared layouts, the die's place in the seeded defect stream, and
/// the solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct DieSpec<'a> {
    /// One prepared layout ([`TraceMap::new`]) per logical cell to place.
    pub maps: &'a [&'a TraceMap],
    /// Die index within the lot (keys this die's defect stream).
    pub die: u64,
    /// Lot-level base seed; per-die seeds derive from it via
    /// [`mix_seed`], so a die's map never depends on how many dies the
    /// surrounding request sampled.
    pub base_seed: u64,
    /// Spare physical sites beyond one per logical cell.
    pub spares: u32,
    /// Defect process parameters.
    pub params: DefectParams,
    /// Which repair solver to use.
    pub solver: Solver,
    /// Pairs of logical cells (by index) that must land on adjacent
    /// sites (`|site_a - site_b| == 1`; sites form one row).
    pub adjacent: &'a [(u32, u32)],
}

/// The result of repairing one die.
#[derive(Clone, Debug, PartialEq)]
pub struct DieOutcome {
    /// Die index.
    pub die: u64,
    /// Physical sites on the die (cells + spares).
    pub sites: u32,
    /// Sites whose defects break at least one of the logical cell
    /// layouts (the site is unusable for that cell).
    pub defective_sites: u32,
    /// Whether every logical cell found a healthy site (honoring any
    /// adjacency constraints).
    pub repaired: bool,
    /// Which solver produced the verdict (`"matching"` or `"sat"`).
    pub solver: &'static str,
    /// Assigned sites that are spare slots (index ≥ cell count).
    pub spares_used: u32,
    /// Per-cell assigned site, in cell order; all `Some` when
    /// `repaired`, all `None` otherwise.
    pub assignment: Vec<Option<u32>>,
}

/// The die's physical site count, one per cell plus the spares, or
/// `None` when it does not fit in a `u32`.
pub fn site_count(cells: usize, spares: u32) -> Option<u32> {
    u32::try_from(cells).ok()?.checked_add(spares)
}

/// Samples the die's [`DefectMap`], tests every (cell, site) pair with
/// a [`SiteTester`], and solves the assignment with the requested
/// [`Solver`]. Fully deterministic in the spec.
///
/// # Panics
///
/// Panics when the [`site_count`] overflows a `u32`.
pub fn repair_die(spec: &DieSpec<'_>) -> DieOutcome {
    let cells = spec.maps.len();
    let sites = site_count(cells, spec.spares).expect("die site count overflows u32");
    let defects = DefectMap::sample(spec.base_seed, spec.die, sites, &spec.params);

    // Health matrix: compat[c][s] = cell c's layout survives site s.
    let mut compat = vec![vec![false; sites as usize]; cells];
    for (c, &map) in spec.maps.iter().enumerate() {
        let tester = SiteTester::new(map);
        for (s, site) in defects.sites.iter().enumerate() {
            compat[c][s] = tester.test(site, &spec.params).functional;
        }
    }
    let defective_sites = (0..sites as usize)
        .filter(|&s| compat.iter().any(|row| !row[s]))
        .count() as u32;

    let adjacent: Vec<(usize, usize)> = spec
        .adjacent
        .iter()
        .map(|&(a, b)| (a as usize, b as usize))
        .collect();
    let answer = solve(
        &Problem {
            cells,
            sites: sites as usize,
            compat,
            adjacent,
        },
        spec.solver,
    );

    let spares_used = answer
        .sites
        .iter()
        .flatten()
        .filter(|&&s| s >= cells)
        .count() as u32;
    DieOutcome {
        die: spec.die,
        sites,
        defective_sites,
        repaired: answer.repaired,
        solver: answer.solver,
        spares_used,
        assignment: answer.sites.iter().map(|s| s.map(|s| s as u32)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnfet_core::{generate_cell, GenerateOptions, StdCellKind, Style};

    fn inv_map() -> TraceMap {
        let cell = generate_cell(StdCellKind::Inv, &GenerateOptions::default()).unwrap();
        TraceMap::new(&cell.semantics)
    }

    #[test]
    fn clean_process_repairs_trivially() {
        let map = inv_map();
        let maps = [&map, &map];
        let outcome = repair_die(&DieSpec {
            maps: &maps,
            die: 7,
            base_seed: 1,
            spares: 1,
            params: DefectParams {
                metallic_fraction: 0.0,
                open_fraction: 0.0,
                misposition_fraction: 0.0,
                ..DefectParams::default()
            },
            solver: Solver::Auto,
            adjacent: &[],
        });
        assert!(outcome.repaired);
        assert_eq!(outcome.defective_sites, 0);
        assert_eq!(outcome.spares_used, 0);
        assert_eq!(outcome.solver, "matching");
    }

    #[test]
    fn deterministic_per_die() {
        let map = inv_map();
        let maps = [&map];
        let spec = DieSpec {
            maps: &maps,
            die: 3,
            base_seed: 99,
            spares: 2,
            params: DefectParams::default(),
            solver: Solver::Auto,
            adjacent: &[],
        };
        assert_eq!(repair_die(&spec), repair_die(&spec));
    }

    #[test]
    fn die_outcome_is_independent_of_lot_size() {
        // The per-die stream derives from (base_seed, die), never from
        // how many dies a surrounding request sampled — the overlap
        // guarantee the engine's per-die memoization relies on.
        let a = DefectMap::sample(5, 11, 4, &DefectParams::default());
        let b = DefectMap::sample(5, 11, 4, &DefectParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn site_count_refuses_to_wrap() {
        assert_eq!(site_count(3, 2), Some(5));
        assert_eq!(site_count(0, u32::MAX), Some(u32::MAX));
        assert_eq!(site_count(3, u32::MAX), None);
        assert_eq!(site_count(usize::MAX, 0), None);
    }

    #[test]
    fn shared_maps_judge_every_die_like_fresh_ones() {
        // One map per cell, shared by a thousand dies, against maps built
        // afresh for every die: every site verdict and every outcome must
        // agree.
        let cells: Vec<_> = [
            (StdCellKind::Nand(2), Style::Vulnerable),
            (StdCellKind::Aoi31, Style::NewImmune),
            (StdCellKind::Oai21, Style::OldEtched),
        ]
        .into_iter()
        .map(|(kind, style)| {
            let opts = GenerateOptions {
                style,
                ..GenerateOptions::default()
            };
            generate_cell(kind, &opts).unwrap()
        })
        .collect();
        let shared: Vec<TraceMap> = cells.iter().map(|c| TraceMap::new(&c.semantics)).collect();
        let shared: Vec<&TraceMap> = shared.iter().collect();
        let params = DefectParams {
            metallic_fraction: 0.03,
            misposition_fraction: 0.2,
            ..DefectParams::default()
        };
        let mut unrepaired = 0;
        for die in 0..1000 {
            let fresh: Vec<TraceMap> = cells.iter().map(|c| TraceMap::new(&c.semantics)).collect();
            let fresh: Vec<&TraceMap> = fresh.iter().collect();
            let defects = DefectMap::sample(17, die, 5, &params);
            for (a, b) in shared.iter().zip(&fresh) {
                let (a, b) = (SiteTester::new(a), SiteTester::new(b));
                for site in &defects.sites {
                    assert_eq!(a.test(site, &params), b.test(site, &params), "die {die}");
                }
            }
            let spec = |maps| DieSpec {
                maps,
                die,
                base_seed: 17,
                spares: 2,
                params,
                solver: Solver::Auto,
                adjacent: &[(0, 1)],
            };
            let outcome = repair_die(&spec(&shared));
            assert_eq!(outcome, repair_die(&spec(&fresh)), "die {die}");
            unrepaired += usize::from(!outcome.repaired);
        }
        assert!(unrepaired > 0 && unrepaired < 1000, "{unrepaired}");
    }
}
