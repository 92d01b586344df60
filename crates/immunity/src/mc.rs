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
//! trace through it. It samples the polyline every 0.25λ, but does
//! per-sample work only where the answer can change:
//!
//! - per segment, only the run of samples inside the cell is evaluated,
//!   found from the run's ends (x and y are each monotone along a
//!   segment), so the work is bounded by the cell width;
//! - a segment's sample fractions `k / n` are computed once per distinct
//!   sample count (all full segments of a tube share one);
//! - a sample inside the box the cursor holds around the last region's
//!   slab (that slab and its twins in the columns right of it) costs
//!   one box test;
//! - any other sample steps the cursor from the previous column and
//!   slab instead of searching the map.
//!
//! A default Monte-Carlo tube across a 45λ AOI31 (6λ segments, slopes up
//! to 1) has 180 samples, of which about 162 fall inside the cell; about
//! 15 of those leave the held box and step the cursor, and the tube
//! visits about 11 distinct regions. Regions are compared as interned
//! ids and the open segment is carried as a contact-net index plus a
//! gate mask; a named [`Segment`] is only built for the harmful one it
//! returns.

use crate::region::{Cursor, Region, TraceMap};
use crate::verdict::Segment;
use cnfet_geom::{Rect, DBU_PER_LAMBDA};
use cnfet_rng::rngs::StdRng;
use cnfet_rng::{Rng, SeedableRng};
use std::ops::{ControlFlow, Range};

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
        sample_polyline(map, &mut rng, opts.tau, opts.segment_len_lambda, &mut poly);

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

/// Draws one wavy tube into `poly`: an x-monotone polyline spanning the
/// cell of `map`, starting at a height drawn uniformly over the cell and
/// stepping `segment_len_lambda` in x, each step's slope drawn uniformly
/// from `[-tau, tau]`.
///
/// This is the one tube model of the workspace: the Monte-Carlo engine
/// and the repair crate's site tester both draw through it, each after
/// its own draws, so their RNG streams are those of the model alone.
pub fn sample_polyline(
    map: &TraceMap,
    rng: &mut StdRng,
    tau: f64,
    segment_len_lambda: f64,
    poly: &mut Vec<(f64, f64)>,
) {
    let bbox = map.bbox();
    let (x0, x1) = (bbox.x0().0 as f64, bbox.x1().0 as f64);
    let (y0, y1) = (bbox.y0().0 as f64, bbox.y1().0 as f64);
    let seg_dx = (segment_len_lambda * DBU_PER_LAMBDA as f64).max(1.0);
    poly.clear();
    let mut x = x0;
    let mut y = rng.gen_range(y0..=y1);
    poly.push((x, y));
    while x < x1 {
        let slope: f64 = rng.gen_range(-tau..=tau);
        let nx = (x + seg_dx).min(x1);
        y += slope * (nx - x);
        x = nx;
        poly.push((x, y));
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
///
/// Any polyline is accepted. Only its samples inside the cell are
/// evaluated, so the work is bounded by the cell width however far the
/// vertices reach. A segment whose extent is not a finite `f64` (a NaN
/// or infinite vertex, or a span beyond `f64::MAX`) is skipped as if it
/// ran outside the cell.
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
/// regions once, in order, until it breaks. Sample `k` of a segment's
/// `n` sits at fraction `k / n` of it; only the run of samples inside
/// the cell is evaluated ([`samples_within`]), and a segment whose
/// extent is not a finite `f64` is skipped.
fn walk_regions<B>(
    map: &TraceMap,
    poly: &[(f64, f64)],
    mut visit: impl FnMut(Region) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let step = DBU_PER_LAMBDA as f64 / 4.0;
    let mut cursor = Cursor::new(map);
    let mut last = None;
    // `k / n` over the in-cell run of the last segment, keyed by `n` and
    // the run's start; the full segments of a tube share both.
    let (mut fractions_of, mut fractions) = ((0, 0), Vec::new());
    for w in poly.windows(2) {
        let ((xa, ya), (xb, yb)) = (w[0], w[1]);
        let (dx, dy) = (xb - xa, yb - ya);
        if !(dx.is_finite() && dy.is_finite()) {
            continue;
        }
        let n = (dx / step).ceil().max(1.0) as usize;
        let run = samples_within(n, (xa, ya), (dx, dy), map.bbox());
        if fractions_of != (n, run.start) || fractions.len() < run.len() {
            fractions.clear();
            fractions.extend(run.clone().map(|k| k as f64 / n as f64));
            fractions_of = (n, run.start);
        }
        for &t in &fractions[..run.len()] {
            let (x, y) = ((xa + t * dx) as i64, (ya + t * dy) as i64);
            if cursor.holds(x, y) {
                continue;
            }
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

/// The samples of a segment inside the closed box `cell`. Sample `k` of
/// `n` sits at `a + (k / n) · d`, truncated to whole dbu. Its x never
/// decreases with `k` (a segment with `d.0 <= 0` has one sample) and its
/// y moves one way, so the samples inside are one run of indices: found
/// from its two ends when the segment lies inside, else by bisection
/// on x and then on y.
fn samples_within(n: usize, a: (f64, f64), d: (f64, f64), cell: Rect) -> Range<usize> {
    let (x0, x1, y0, y1) = (cell.x0().0, cell.x1().0, cell.y0().0, cell.y1().0);
    let at = |k: usize, a: f64, d: f64| (a + (k as f64 / n as f64) * d) as i64;
    let inside = |k: usize| {
        let (x, y) = (at(k, a.0, d.0), at(k, a.1, d.1));
        (x0..=x1).contains(&x) && (y0..=y1).contains(&y)
    };
    if inside(0) && inside(n - 1) {
        return 0..n;
    }
    let lo = first_where(0, n, |k| at(k, a.0, d.0) >= x0);
    let hi = first_where(lo, n, |k| at(k, a.0, d.0) > x1);
    let y = |k: usize| at(k, a.1, d.1);
    if d.1 >= 0.0 {
        let lo = first_where(lo, hi, |k| y(k) >= y0);
        lo..first_where(lo, hi, |k| y(k) > y1)
    } else {
        let lo = first_where(lo, hi, |k| y(k) <= y1);
        lo..first_where(lo, hi, |k| y(k) < y0)
    }
}

/// The first index in `lo..hi` at which `pred` holds, or `hi` when none
/// does; `pred` must be monotone (false, then true). The ends are tried
/// first, which settles a run that reaches either end of the segment.
fn first_where(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    if lo == hi || pred(lo) {
        return lo;
    }
    if !pred(hi - 1) {
        return hi;
    }
    // Now `pred(lo)` is false and `pred(hi - 1)` true.
    hi -= 1;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
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

    /// Seeded tubes over one cell: random walks of slope up to 5 that
    /// start above, inside and below the cell (so many leave it), and
    /// adversarial ones for the held-slab fast path and the in-cell
    /// bounds: vertices exactly on column edges, samples exactly on the
    /// closed edges `x = xs[last]` and `y = bbox.y1`, segments shorter
    /// than a sample step, vertical or running backwards, spikes that
    /// leave the cell in y and come back into the slab they left, and
    /// polylines reaching 1e4 dbu past the cell on every side.
    fn probe_tubes(map: &TraceMap, seed: u64) -> Vec<Vec<(f64, f64)>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let bbox = map.bbox();
        let (x0, x1) = (bbox.x0().0 as f64, bbox.x1().0 as f64);
        let (y0, y1) = (bbox.y0().0 as f64, bbox.y1().0 as f64);
        let (h, step) = (y1 - y0, DBU_PER_LAMBDA as f64 / 4.0);
        let mut tubes = Vec::new();
        for tau in [0.3, 1.0, 3.0, 5.0] {
            for _ in 0..40 {
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
        // Closed edges: along the top edge, then vertical segments
        // (one sample each) on the last column's right edge, and
        // along every slab's bottom edge in the cell.
        let mut edge = vec![(x0, y1), (x1, y1)];
        for _ in 0..8 {
            edge.push((x1, rng.gen_range(y0..=y1).round()));
            edge.push((x1, y1));
        }
        edge.push((x1 + step, y1));
        tubes.push(edge);
        for _ in 0..4 {
            let slab = map.slabs[rng.gen_range(0.0..map.slabs.len() as f64) as usize];
            tubes.push(vec![(x0, slab.y0 as f64), (x1 + step, slab.y0 as f64)]);
            tubes.push(vec![(x0, slab.y1 as f64), (x1 + step, slab.y1 as f64)]);
        }
        // Jittery walks: many segments shorter than one step, some of
        // no width, some running backwards.
        for _ in 0..10 {
            let mut x = x0 - step;
            let mut y = rng.gen_range(y0..=y1);
            let mut poly = vec![(x, y)];
            while x < x1 + step {
                x += match rng.gen_range(0.0..6.0) as u32 {
                    0 => 0.0,
                    1 => -rng.gen_range(0.0..2.0 * step),
                    2 | 3 => rng.gen_range(0.0..step),
                    _ => rng.gen_range(step..4.0 * step),
                };
                y += rng.gen_range(-2.0..=2.0) * step;
                poly.push((x, y));
            }
            tubes.push(poly);
        }
        // Spikes out of the cell and back: one-dbu-wide ones that come
        // back to the very point they left, and wider ones.
        for _ in 0..10 {
            let mut x = x0;
            let mut poly = vec![(x, rng.gen_range(y0..=y1))];
            while x < x1 {
                let y = rng.gen_range(y0..=y1).round();
                let out = if rng.gen_range(0.0..1.0) < 0.5 {
                    y1 + rng.gen_range(1.0..40.0)
                } else {
                    y0 - rng.gen_range(1.0..40.0)
                };
                let wide = rng.gen_range(0.0..1.0) < 0.5;
                let w = if wide {
                    rng.gen_range(step..6.0 * step)
                } else {
                    1.0
                };
                poly.extend([(x, y), (x + w, out), (x + 2.0 * w, y)]);
                x += 2.0 * w + rng.gen_range(0.0..8.0 * step);
            }
            tubes.push(poly);
        }
        // Far outside the cell on both sides and both edges.
        let far = 1e4;
        for _ in 0..6 {
            let mut poly = vec![(x0 - far, rng.gen_range(y0 - far..=y1 + far))];
            for _ in 0..3 {
                poly.push((rng.gen_range(x0..=x1), rng.gen_range(y0..=y1)));
            }
            poly[1..].sort_by(|a, b| a.0.total_cmp(&b.0));
            poly.push((x1 + far, rng.gen_range(y0 - far..=y1 + far)));
            tubes.push(poly);
        }
        tubes.push(vec![(x0 - far, y1 + far), (x1 + far, y0 - far)]);
        tubes.push(vec![(x0 - far, y0 - far), (x1 + far, y1 + far)]);
        tubes
    }

    fn walked(map: &TraceMap, poly: &[(f64, f64)]) -> Vec<RegionKind> {
        let mut regions = Vec::new();
        let _ = walk_regions::<()>(map, poly, |r| {
            regions.push(map.kind_of(r));
            ControlFlow::Continue(())
        });
        regions
    }

    #[test]
    fn walk_work_is_bounded_by_the_cell_width() {
        let c = cell(StdCellKind::Aoi31, Style::NewImmune);
        let map = TraceMap::new(&c.semantics);
        let (x0, x1) = (map.bbox().x0().0, map.bbox().x1().0);
        let (y0, y1) = (map.bbox().y0().0, map.bbox().y1().0);
        let step = DBU_PER_LAMBDA as f64 / 4.0;
        let in_cell = ((x1 - x0) as f64 / step) as usize + 1;
        // Horizontal tubes reaching 1e12 dbu past both sides take 4e11
        // samples, of which only the in-cell ones are evaluated: the
        // same ones (half a dbu past every step, so truncation is
        // exact) as a tube from the cell's left edge to one step past
        // its right edge.
        for y in (y0..=y1).step_by(7) {
            let y = y as f64 + 0.5;
            let far = [(x0 as f64 - 1e12 + 0.5, y), (x1 as f64 + 1e12 + 0.5, y)];
            let near = [(x0 as f64 + 0.5, y), (x1 as f64 + step + 0.5, y)];
            assert_eq!(walked(&map, &far), walked(&map, &near), "y {y}");
            let n = ((far[1].0 - far[0].0) / step).ceil() as usize;
            let run = samples_within(n, far[0], (far[1].0 - far[0].0, 0.0), map.bbox());
            assert_eq!(run.len(), in_cell);
        }
        // So does a steep one, 1e12 dbu past the top and the bottom.
        let steep = [(x0 as f64, -1e12), (x1 as f64, 1e12)];
        let _ = walked(&map, &steep);
        let run = samples_within(180, steep[0], (900.0, 2e12), map.bbox());
        assert!(run.len() <= 1, "{run:?}");
        // Past 2^53 samples, neighbouring `k / n` round to one value, so
        // a run repeats its samples; it stays short all the same.
        let mid = (y0 + y1) as f64 / 2.0;
        let run = samples_within(usize::MAX, (-1e300, mid), (2e300, 0.0), map.bbox());
        assert!(run.len() < 4096, "{run:?}");
        let _ = walked(&map, &[(-1e300, mid), (1e300, mid)]);
    }

    #[test]
    fn sample_runs_are_exactly_the_samples_inside_the_cell() {
        // Every segment shape: inside, crossing any edge, far outside,
        // backwards, vertical, with the run compared to a check of every
        // sample.
        let c = cell(StdCellKind::Nand(2), Style::NewImmune);
        let map = TraceMap::new(&c.semantics);
        let bbox = map.bbox();
        let (x0, x1) = (bbox.x0().0 as f64, bbox.x1().0 as f64);
        let (y0, y1) = (bbox.y0().0 as f64, bbox.y1().0 as f64);
        let step = DBU_PER_LAMBDA as f64 / 4.0;
        let mut rng = StdRng::seed_from_u64(9);
        let mut point = |reach: f64| {
            let (w, h) = ((x1 - x0) * reach, (y1 - y0) * reach);
            (
                rng.gen_range(x0 - w..=x1 + w).round()
                    + [0.0, 0.3, 0.5][rng.gen_range(0.0..3.0) as usize],
                rng.gen_range(y0 - h..=y1 + h).round(),
            )
        };
        let mut partial = 0;
        for i in 0..3000 {
            let reach = [0.0, 0.2, 1.0, 20.0][i % 4];
            let (a, mut b) = (point(reach), point(reach));
            if i % 7 == 0 {
                b.0 = a.0;
            }
            let d = (b.0 - a.0, b.1 - a.1);
            let n = (d.0 / step).ceil().max(1.0) as usize;
            let run = samples_within(n, a, d, bbox);
            let sample = |k: usize| {
                let t = k as f64 / n as f64;
                ((a.0 + t * d.0) as i64, (a.1 + t * d.1) as i64)
            };
            let inside: Vec<usize> = (0..n)
                .filter(|&k| {
                    let (x, y) = sample(k);
                    bbox.x0().0 <= x && x <= bbox.x1().0 && bbox.y0().0 <= y && y <= bbox.y1().0
                })
                .collect();
            assert_eq!(run.clone().collect::<Vec<_>>(), inside, "{a:?} {b:?}");
            partial += usize::from(!run.is_empty() && run.len() < n);
        }
        assert!(partial > 100, "{partial}");
    }

    #[test]
    fn segments_without_a_finite_extent_are_skipped() {
        // A vertex at ±∞ or NaN, or a span past f64::MAX, gives its
        // segments no defined samples: they are skipped as if they ran
        // outside the cell, and the rest of the tube walks as it would
        // without them.
        let c = cell(StdCellKind::Nand(2), Style::Vulnerable);
        let map = TraceMap::new(&c.semantics);
        let (x0, x1) = (map.bbox().x0().0 as f64, map.bbox().x1().0 as f64);
        let (y0, y1) = (map.bbox().y0().0 as f64, map.bbox().y1().0 as f64);
        for (i, poly) in probe_tubes(&map, 3).iter().take(160).enumerate() {
            let expected = walked(&map, poly);
            let metallic = i % 2 == 0;
            let verdict = trace_polyline(&map, poly, metallic);
            let mut ends = poly.clone();
            ends.insert(0, (f64::NEG_INFINITY, y0));
            ends.push((f64::INFINITY, f64::NAN));
            assert_eq!(walked(&map, &ends), expected, "tube {i}");
            assert_eq!(trace_polyline(&map, &ends, metallic), verdict);
            // A NaN vertex in the middle drops the two segments it ends;
            // the samples before and after it run on as one tube.
            let mid = poly.len() / 2;
            let mut gap = poly.clone();
            gap.insert(mid, (f64::NAN, y1));
            let mut expected: Vec<_> = oracle_regions(&build_columns(&c.semantics), &poly[..mid])
                .into_iter()
                .chain(oracle_regions(&build_columns(&c.semantics), &poly[mid..]))
                .cloned()
                .collect();
            expected.dedup();
            assert_eq!(walked(&map, &gap), expected, "tube {i}");
        }
        for poly in [
            vec![(x0 - 1e308, y0), (x1 + 1e308, y0)],
            vec![(x0, f64::INFINITY), (x1, y0)],
            vec![(f64::NAN, f64::NAN), (f64::NAN, f64::NAN)],
        ] {
            assert_eq!(walked(&map, &poly), Vec::new(), "{poly:?}");
            assert_eq!(trace_polyline(&map, &poly, true), None);
        }
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
                        assert!(
                            walked(&map, poly).iter().eq(expected.iter().copied()),
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
