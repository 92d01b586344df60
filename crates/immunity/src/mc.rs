//! Monte-Carlo mispositioned-tube simulation — the quantitative engine
//! behind the Figure 2 comparison.
//!
//! Tubes are x-monotone piecewise-linear random walks: each segment of
//! length `segment_len_lambda` (in x) draws a slope uniformly from
//! `[-tau, tau]`. The tube is traced through a prepared [`TraceMap`];
//! every contact-to-contact conduction segment is judged, and a tube whose
//! trace contains any harmful segment counts as a functional failure.
//!
//! [`trace_polyline`] is the one tube walk of the workspace: the
//! Monte-Carlo engine and the repair crate's per-die site tester both
//! trace through it. It samples the polyline every 0.25λ, steps a
//! cursor from one sample's column and slab to the next instead of
//! searching the map, compares interned regions, and carries the open
//! segment as a contact-net index plus a gate mask; a named [`Segment`]
//! is only built for the harmful one it returns.

use crate::region::{Cursor, Region, TraceMap};
use crate::verdict::Segment;
use cnfet_geom::DBU_PER_LAMBDA;
use cnfet_rng::rngs::StdRng;
use cnfet_rng::{Rng, SeedableRng};
use std::ops::ControlFlow;

/// Monte-Carlo options.
#[derive(Clone, Debug)]
pub struct McOptions {
    /// Number of tubes to sample.
    pub tubes: usize,
    /// Slope bound per segment (`dy/dx`). The paper's mispositioned tubes
    /// are wavy but roughly aligned; 1.0 (45°) is a generous bound.
    pub tau: f64,
    /// Length (in x) of each straight sub-segment, λ.
    pub segment_len_lambda: f64,
    /// RNG seed (runs are deterministic).
    pub seed: u64,
    /// Probability that a sampled mispositioned tube is a *surviving
    /// metallic* tube (grown metallic and missed by the removal step). A
    /// metallic tube conducts regardless of gate bias, so any
    /// contact-to-contact trace between distinct nets it creates is a
    /// functional failure — the gate-superset harmlessness criterion
    /// cannot save it. `0.0` (the default, the paper's assumption of
    /// perfect removal) keeps the RNG stream of earlier releases.
    pub metallic_fraction: f64,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions {
            tubes: 2000,
            tau: 1.0,
            segment_len_lambda: 6.0,
            seed: 0xC0FFEE,
            metallic_fraction: 0.0,
        }
    }
}

/// A concrete failing tube.
#[derive(Clone, Debug)]
pub struct Witness {
    /// Polyline vertices (dbu).
    pub polyline: Vec<(i64, i64)>,
    /// The harmful segment it created.
    pub segment: Segment,
}

/// Monte-Carlo result.
#[derive(Clone, Debug)]
pub struct McReport {
    /// Tubes sampled.
    pub tubes: usize,
    /// Tubes that broke the cell's function.
    pub failures: usize,
    /// Of the failures, how many were caused by a surviving metallic tube
    /// (always `0` when [`McOptions::metallic_fraction`] is `0.0`).
    pub metallic_failures: usize,
    /// Example failures (up to 8).
    pub witnesses: Vec<Witness>,
}

impl McReport {
    /// Failure probability per mispositioned tube.
    pub fn failure_probability(&self) -> f64 {
        if self.tubes == 0 {
            0.0
        } else {
            self.failures as f64 / self.tubes as f64
        }
    }
}

/// Runs the Monte-Carlo mispositioning experiment on a prepared cell.
pub fn simulate(map: &TraceMap, opts: &McOptions) -> McReport {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let bbox = map.bbox();
    let (x0, x1) = (bbox.x0().0, bbox.x1().0);
    let (y0, y1) = (bbox.y0().0, bbox.y1().0);
    let seg_dx = (opts.segment_len_lambda * DBU_PER_LAMBDA as f64).max(1.0);

    let mut failures = 0usize;
    let mut metallic_failures = 0usize;
    let mut witnesses = Vec::new();
    let mut poly: Vec<(f64, f64)> = Vec::new();

    for _ in 0..opts.tubes {
        // A tube is metallic when the removal step missed it. The draw is
        // skipped entirely at fraction 0 so the nominal RNG stream (and
        // therefore every pre-variation golden result) is unchanged.
        let metallic =
            opts.metallic_fraction > 0.0 && rng.gen_range(0.0..1.0) < opts.metallic_fraction;

        // Sample an x-monotone polyline spanning the cell.
        poly.clear();
        let mut x = x0 as f64;
        let mut y = rng.gen_range(y0 as f64..=y1 as f64);
        poly.push((x, y));
        while x < x1 as f64 {
            let slope: f64 = rng.gen_range(-opts.tau..=opts.tau);
            let nx = (x + seg_dx).min(x1 as f64);
            y += slope * (nx - x);
            x = nx;
            poly.push((x, y));
        }

        if let Some(seg) = trace_polyline(map, &poly, metallic) {
            failures += 1;
            if metallic {
                metallic_failures += 1;
            }
            if witnesses.len() < 8 {
                witnesses.push(Witness {
                    polyline: poly.iter().map(|&(a, b)| (a as i64, b as i64)).collect(),
                    segment: seg,
                });
            }
        }
    }

    McReport {
        tubes: opts.tubes,
        failures,
        metallic_failures,
        witnesses,
    }
}

/// Traces a polyline through a prepared layout and returns its first
/// harmful conduction segment, or `None` when every contact-to-contact
/// segment it creates is harmless.
///
/// A `metallic` tube conducts with its gates stuck on: any segment
/// between distinct nets is harmful no matter what sits over it. For a
/// semiconducting tube each segment is judged with the full superset
/// criterion ([`TraceMap::classify`]).
///
/// This is the verdict seam the Monte-Carlo engine samples through; it
/// is public so per-die defect-map testers (the `cnfet-repair` crate)
/// can evaluate *explicit* tube populations against a layout with
/// exactly the same machinery.
pub fn trace_polyline(map: &TraceMap, poly: &[(f64, f64)], metallic: bool) -> Option<Segment> {
    // The open segment: its start contact and the gates crossed since.
    let mut open: Option<(u16, u128)> = None;
    let walk = walk_regions(map, poly, |region| {
        match region {
            Region::Dead => open = None,
            Region::Doped(_) => {}
            Region::Gate(bit) => {
                if let Some((_, gates)) = open.as_mut() {
                    *gates |= 1 << bit;
                }
            }
            Region::Contact(net) => {
                if let Some((start, gates)) = open {
                    if map.harmful(start, net, gates, metallic) {
                        return ControlFlow::Break(map.segment(start, net, gates));
                    }
                }
                open = Some((net, 0));
            }
        }
        ControlFlow::Continue(())
    });
    match walk {
        ControlFlow::Break(segment) => Some(segment),
        ControlFlow::Continue(()) => None,
    }
}

/// Samples the polyline every 0.25λ (samples truncated to whole dbu,
/// those outside the cell skipped) and hands `visit` each run of equal
/// regions once, in order, until it breaks.
fn walk_regions<B>(
    map: &TraceMap,
    poly: &[(f64, f64)],
    mut visit: impl FnMut(Region) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let step = DBU_PER_LAMBDA as f64 / 4.0;
    let mut cursor = Cursor::new(map);
    let mut last = None;
    for w in poly.windows(2) {
        let ((xa, ya), (xb, yb)) = (w[0], w[1]);
        let dx = xb - xa;
        let n = (dx / step).ceil().max(1.0) as usize;
        for k in 0..n {
            let t = k as f64 / n as f64;
            let x = (xa + t * dx) as i64;
            let y = (ya + t * (yb - ya)) as i64;
            let Some(region) = cursor.seek(x, y) else {
                continue;
            };
            if last != Some(region) {
                last = Some(region);
                visit(region)?;
            }
        }
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{build_columns, ColumnMap, RegionKind};
    use cnfet_core::{
        generate_cell, GenerateOptions, PullSide, Scheme, SemanticLayout, Sizing, StdCellKind,
        Style,
    };
    use cnfet_logic::VarId;
    use std::collections::BTreeSet;

    fn cell(kind: StdCellKind, style: Style) -> cnfet_core::GeneratedCell {
        generate_cell(
            kind,
            &GenerateOptions {
                style,
                sizing: Sizing::Matched { base_lambda: 4 },
                ..GenerateOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn vulnerable_nand2_fails_sometimes() {
        // Figure 2(b): the misaligned-CNT-vulnerable NAND layout.
        let c = cell(StdCellKind::Nand(2), Style::Vulnerable);
        let report = simulate(&TraceMap::new(&c.semantics), &McOptions::default());
        assert!(
            report.failures > 0,
            "vulnerable layout produced no failures in {} tubes",
            report.tubes
        );
        assert!(!report.witnesses.is_empty());
    }

    #[test]
    fn new_immune_nand2_never_fails() {
        // Figure 2(c): 100% functional immunity.
        let c = cell(StdCellKind::Nand(2), Style::NewImmune);
        let report = simulate(
            &TraceMap::new(&c.semantics),
            &McOptions {
                tubes: 5000,
                ..McOptions::default()
            },
        );
        assert_eq!(report.failures, 0, "{:?}", report.witnesses.first());
    }

    #[test]
    fn old_immune_nand3_never_fails() {
        let c = cell(StdCellKind::Nand(3), Style::OldEtched);
        let report = simulate(&TraceMap::new(&c.semantics), &McOptions::default());
        assert_eq!(report.failures, 0, "{:?}", report.witnesses.first());
    }

    #[test]
    fn deterministic_given_seed() {
        let c = cell(StdCellKind::Nand(2), Style::Vulnerable);
        let a = simulate(&TraceMap::new(&c.semantics), &McOptions::default());
        let b = simulate(&TraceMap::new(&c.semantics), &McOptions::default());
        assert_eq!(a.failures, b.failures);
    }

    #[test]
    fn failure_probability_math() {
        let r = McReport {
            tubes: 200,
            failures: 25,
            metallic_failures: 0,
            witnesses: Vec::new(),
        };
        assert!((r.failure_probability() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn metallic_tubes_break_even_immune_layouts() {
        // The new compact layout is 100% immune to *semiconducting*
        // mispositioned tubes, but a surviving metallic tube conducts
        // regardless of gate bias — with every sampled tube metallic, the
        // failure count must be substantial and all-metallic.
        let c = cell(StdCellKind::Nand(2), Style::NewImmune);
        let clean = simulate(&TraceMap::new(&c.semantics), &McOptions::default());
        assert_eq!(clean.failures, 0);
        assert_eq!(clean.metallic_failures, 0);

        let dirty = simulate(
            &TraceMap::new(&c.semantics),
            &McOptions {
                metallic_fraction: 1.0,
                ..McOptions::default()
            },
        );
        assert!(dirty.failures > 0, "metallic tubes must cause failures");
        assert_eq!(dirty.metallic_failures, dirty.failures);
    }

    #[test]
    fn metallic_fraction_zero_keeps_the_nominal_stream() {
        // fraction == 0 must not consume RNG draws: the failure count of
        // the vulnerable layout is byte-for-byte the pre-variation result.
        let c = cell(StdCellKind::Nand(2), Style::Vulnerable);
        let a = simulate(&TraceMap::new(&c.semantics), &McOptions::default());
        let b = simulate(
            &TraceMap::new(&c.semantics),
            &McOptions {
                metallic_fraction: 0.0,
                ..McOptions::default()
            },
        );
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.metallic_failures, 0);
    }

    /// The sampler the incremental walk replaced, kept as its oracle: a
    /// binary search over columns and a scan of slabs per 0.25λ sample,
    /// regions compared by name.
    fn oracle_regions<'a>(cm: &'a ColumnMap, poly: &[(f64, f64)]) -> Vec<&'a RegionKind> {
        let step = DBU_PER_LAMBDA as f64 / 4.0;
        let mut regions: Vec<&RegionKind> = Vec::new();
        for w in poly.windows(2) {
            let ((xa, ya), (xb, yb)) = (w[0], w[1]);
            let dx = xb - xa;
            let n = (dx / step).ceil().max(1.0) as usize;
            for k in 0..n {
                let t = k as f64 / n as f64;
                let (x, y) = ((xa + t * dx) as i64, (ya + t * (yb - ya)) as i64);
                if x < cm.xs[0] || x > cm.xs[cm.xs.len() - 1] {
                    continue;
                }
                let col = match cm.xs.binary_search(&x) {
                    Ok(i) => i,
                    Err(i) => i - 1,
                };
                let slabs = &cm.columns[col.min(cm.columns.len() - 1)];
                let top = slabs.len() - 1;
                let Some(slab) = slabs
                    .iter()
                    .enumerate()
                    .find(|&(i, s)| y >= s.y0 && (y < s.y1 || (i == top && y <= s.y1)))
                else {
                    continue;
                };
                if regions.last() != Some(&&slab.1.kind) {
                    regions.push(&slab.1.kind);
                }
            }
        }
        regions
    }

    /// The segment split and set-based judge the mask walk replaced.
    fn oracle_trace(
        sem: &SemanticLayout,
        regions: &[&RegionKind],
        metallic: bool,
    ) -> Option<Segment> {
        let mut current: Option<(String, BTreeSet<(VarId, PullSide)>)> = None;
        for kind in regions {
            match kind {
                RegionKind::Dead => current = None,
                RegionKind::Doped(_) => {}
                RegionKind::Gate(v, s) => {
                    if let Some((_, gates)) = current.as_mut() {
                        gates.insert((*v, *s));
                    }
                }
                RegionKind::Contact(net) => {
                    if let Some((start, gates)) = current.take() {
                        let seg = Segment {
                            net_a: start,
                            net_b: net.clone(),
                            gates,
                        };
                        let up: BTreeSet<VarId> = seg
                            .gates
                            .iter()
                            .filter(|(_, s)| *s == PullSide::Up)
                            .map(|(v, _)| *v)
                            .collect();
                        let harmful = seg.net_a != seg.net_b
                            && (metallic
                                || !(seg
                                    .gates
                                    .iter()
                                    .any(|(v, s)| *s == PullSide::Down && up.contains(v))
                                    || sem
                                        .node_paths(&seg.net_a, &seg.net_b)
                                        .iter()
                                        .any(|p| p.is_subset(&seg.gates))));
                        if harmful {
                            return Some(seg);
                        }
                    }
                    current = Some((net.clone(), BTreeSet::new()));
                }
            }
        }
        None
    }

    /// Seeded tubes over one cell: random walks of slope up to 3 that
    /// start above, inside and below the cell (so many leave it), plus
    /// polylines whose vertices sit exactly on column edges.
    fn probe_tubes(map: &TraceMap, seed: u64) -> Vec<Vec<(f64, f64)>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let bbox = map.bbox();
        let (x0, x1) = (bbox.x0().0 as f64, bbox.x1().0 as f64);
        let (y0, y1) = (bbox.y0().0 as f64, bbox.y1().0 as f64);
        let h = y1 - y0;
        let mut tubes = Vec::new();
        for tau in [0.3, 1.0, 3.0] {
            for _ in 0..50 {
                let seg_dx = rng.gen_range(0.5..8.0) * DBU_PER_LAMBDA as f64;
                let mut x = x0;
                let mut y = rng.gen_range(y0 - 0.3 * h..=y1 + 0.3 * h);
                let mut poly = vec![(x, y)];
                while x < x1 {
                    let nx = (x + seg_dx).min(x1);
                    y += rng.gen_range(-tau..=tau) * (nx - x);
                    x = nx;
                    poly.push((x, y));
                }
                tubes.push(poly);
            }
        }
        for _ in 0..20 {
            let mut poly: Vec<(f64, f64)> = map
                .xs
                .iter()
                .map(|&x| (x as f64, rng.gen_range(y0..=y1).round()))
                .collect();
            // Every other tube also starts and ends outside the cell.
            if rng.gen_range(0.0..1.0) < 0.5 {
                poly.insert(0, (x0 - 3.0, y0 - 1.0));
                poly.push((x1 + 3.0, y1 + 1.0));
            }
            tubes.push(poly);
        }
        tubes
    }

    #[test]
    fn incremental_walk_matches_the_searching_sampler() {
        let mut checked = 0;
        let mut harmful = 0;
        for kind in StdCellKind::ALL {
            for style in [Style::NewImmune, Style::OldEtched, Style::Vulnerable] {
                for scheme in [Scheme::Scheme1, Scheme::Scheme2] {
                    let opts = GenerateOptions {
                        style,
                        scheme,
                        ..GenerateOptions::default()
                    };
                    let cell = generate_cell(kind, &opts).unwrap();
                    let sem = &cell.semantics;
                    let cm = build_columns(sem);
                    let map = TraceMap::new(sem);
                    for (i, poly) in probe_tubes(&map, checked as u64).iter().enumerate() {
                        let expected = oracle_regions(&cm, poly);
                        let mut regions = Vec::new();
                        let _ = walk_regions::<()>(&map, poly, |r| {
                            regions.push(map.kind_of(r));
                            ControlFlow::Continue(())
                        });
                        assert!(
                            regions.iter().eq(expected.iter().copied()),
                            "{kind} {style} {scheme} tube {i}"
                        );
                        let metallic = i % 3 == 0;
                        let traced = trace_polyline(&map, poly, metallic);
                        assert_eq!(
                            traced,
                            oracle_trace(sem, &expected, metallic),
                            "{kind} {style} {scheme} tube {i}"
                        );
                        harmful += usize::from(traced.is_some());
                        checked += 1;
                    }
                }
            }
        }
        assert!(harmful > 0 && harmful < checked, "{harmful}/{checked}");
    }
}
