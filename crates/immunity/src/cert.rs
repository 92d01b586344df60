//! Sound immunity certification via reachability over the region
//! decomposition.
//!
//! Any x-monotone tube traces a left-to-right walk through the column
//! decomposition, moving between vertically adjacent slabs within a column
//! and into y-overlapping slabs of the next column. The certifier
//! enumerates every contact-to-contact walk through conducting regions
//! (an over-approximation of what physical tubes can do — it ignores the
//! slope bound entirely) and judges each with the superset criterion. A
//! layout certified immune here is immune to *any* mispositioned
//! x-monotone tube.
//!
//! The walk reads the same prepared [`TraceMap`] as the Monte-Carlo
//! engine: slabs are flat indices, and the gates crossed so far are one
//! `u128` mask (see [`crate::verdict`]) that both memoizes the walk and
//! judges the segment it ends in, so no two gates share a bit.

use crate::region::{Region, TraceMap};
use crate::verdict::{Segment, Verdict};
use std::collections::HashSet;

/// Result of certification.
#[derive(Clone, Debug)]
pub struct CertReport {
    /// No harmful segment is reachable: the cell is 100% immune.
    pub immune: bool,
    /// Distinct stray segments that were judged.
    pub segments_checked: usize,
    /// The harmful ones (empty iff `immune`).
    pub harmful: Vec<Segment>,
}

/// Certifies a prepared cell's immunity to mispositioned CNTs.
///
/// See the module docs for the model and soundness argument.
pub fn certify(map: &TraceMap) -> CertReport {
    // Distinct segments as (start net, end net, gate mask).
    let mut seen: HashSet<(u16, u16, u128)> = HashSet::new();
    let mut harmful = Vec::new();

    // Start a traversal from every contact slab: explore its neighbours
    // (the contact slab itself would terminate the walk immediately).
    for col in 0..map.columns() {
        for si in map.column(col) {
            let Region::Contact(start) = map.slabs[si].region else {
                continue;
            };
            let mut memo: HashSet<(usize, u128)> = HashSet::new();
            let mut record = |end: u16, gates: u128| {
                if seen.insert((start, end, gates))
                    && map.verdict(start, end, gates) == Verdict::Harmful
                {
                    harmful.push(map.segment(start, end, gates));
                }
            };
            for (ncol, nsi) in neighbors(map, col, si) {
                walk(map, ncol, nsi, 0, &mut memo, &mut record);
            }
        }
    }

    CertReport {
        immune: harmful.is_empty(),
        segments_checked: seen.len(),
        harmful,
    }
}

/// Slabs reachable from slab `si` of column `col` by an x-monotone
/// curve: vertical neighbours within the column, and y-overlapping slabs
/// of the next column.
fn neighbors(map: &TraceMap, col: usize, si: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let column = map.column(col);
    let slab = map.slabs[si];
    let below = (si > column.start).then(|| (col, si - 1));
    let above = (si + 1 < column.end).then_some((col, si + 1));
    let next_column = if col + 1 < map.columns() {
        map.column(col + 1)
    } else {
        0..0
    };
    let across = next_column
        .filter(move |&nsi| {
            let next = map.slabs[nsi];
            next.y1 >= slab.y0 && next.y0 <= slab.y1
        })
        .map(move |nsi| (col + 1, nsi));
    below.into_iter().chain(above).chain(across)
}

/// DFS over conducting slabs; `si` (in column `col`) is the slab being
/// *entered* with the gates in `gates` crossed so far.
fn walk(
    map: &TraceMap,
    col: usize,
    si: usize,
    gates: u128,
    memo: &mut HashSet<(usize, u128)>,
    record: &mut impl FnMut(u16, u128),
) {
    let gates = match map.slabs[si].region {
        Region::Dead => return,
        Region::Contact(end) => {
            // Reached another contact: the segment ends here. Tubes
            // continuing past this contact start a new segment, which the
            // outer loop covers by starting from every contact.
            record(end, gates);
            return;
        }
        Region::Gate(bit) => gates | 1 << bit,
        Region::Doped(_) => gates,
    };
    if memo.insert((si, gates)) {
        for (ncol, nsi) in neighbors(map, col, si) {
            walk(map, ncol, nsi, gates, memo, record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnfet_core::{generate_cell, GenerateOptions, Scheme, Sizing, StdCellKind, Style};

    fn opts(style: Style, scheme: Scheme) -> GenerateOptions {
        GenerateOptions {
            style,
            scheme,
            sizing: Sizing::Matched { base_lambda: 4 },
            ..GenerateOptions::default()
        }
    }

    #[test]
    fn new_style_cells_certified_immune() {
        for kind in StdCellKind::ALL {
            for scheme in [Scheme::Scheme1, Scheme::Scheme2] {
                let cell = generate_cell(kind, &opts(Style::NewImmune, scheme)).unwrap();
                let report = certify(&TraceMap::new(&cell.semantics));
                assert!(
                    report.immune,
                    "{kind} {scheme}: harmful {:?}",
                    report.harmful
                );
                assert!(report.segments_checked > 0, "{kind}: trivial certificate");
            }
        }
    }

    #[test]
    fn new_style_uniform_sizing_also_immune() {
        for kind in [StdCellKind::Aoi21, StdCellKind::Aoi22, StdCellKind::Aoi31] {
            let cell = generate_cell(
                kind,
                &GenerateOptions {
                    sizing: Sizing::Uniform { width_lambda: 4 },
                    ..GenerateOptions::default()
                },
            )
            .unwrap();
            let report = certify(&TraceMap::new(&cell.semantics));
            assert!(report.immune, "{kind}: {:?}", report.harmful);
        }
    }

    #[test]
    fn old_style_cells_certified_immune() {
        // [6]'s technique is also immune — it just costs more area.
        for kind in StdCellKind::ALL {
            let cell = generate_cell(kind, &opts(Style::OldEtched, Scheme::Scheme1)).unwrap();
            let report = certify(&TraceMap::new(&cell.semantics));
            assert!(report.immune, "{kind}: {:?}", report.harmful);
        }
    }

    #[test]
    fn vulnerable_nand2_not_immune() {
        // Figure 2(b): the CMOS-style layout lets fully doped tubes sneak
        // around gate endcaps.
        let cell = generate_cell(
            StdCellKind::Nand(2),
            &opts(Style::Vulnerable, Scheme::Scheme1),
        )
        .unwrap();
        let report = certify(&TraceMap::new(&cell.semantics));
        assert!(!report.immune, "vulnerable layout must fail certification");
        // And the failure is the paper's: a conduction path missing gates.
        assert!(report.harmful.iter().any(|s| s.net_a != s.net_b));
    }

    #[test]
    fn vulnerable_inverter_not_certified_but_new_inverter_is() {
        // The certifier is slope-unbounded, so even the vulnerable
        // inverter's endcap corridor counts as a (steep) dodge path — the
        // quantitative Figure 2(a) contrast lives in the Monte-Carlo
        // engine. The *new-style* inverter certifies absolutely.
        let vuln =
            generate_cell(StdCellKind::Inv, &opts(Style::Vulnerable, Scheme::Scheme1)).unwrap();
        assert!(!certify(&TraceMap::new(&vuln.semantics)).immune);
        let immune =
            generate_cell(StdCellKind::Inv, &opts(Style::NewImmune, Scheme::Scheme1)).unwrap();
        assert!(certify(&TraceMap::new(&immune.semantics)).immune);
    }
}
