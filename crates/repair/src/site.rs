//! Site testing: one layout against one site's concrete defects.
//!
//! A [`SiteTester`] borrows a layout's prepared
//! [`TraceMap`] — built once per layout by the
//! caller and shared by every die — and evaluates any number of
//! [`SiteDefects`] against it; making one prepares nothing. Metallic and
//! mispositioned tubes are traced through the map with
//! [`cnfet_immunity::trace_polyline`] — exactly the
//! conduction-segment machinery of the Monte-Carlo immunity engine —
//! so a "harmful" verdict here means precisely what it means there: the
//! tube creates a contact-to-contact conduction segment that can alter
//! the cell's function. Open tubes never short anything; they cost
//! drive, and a site whose open fraction exceeds
//! [`DefectParams::open_tolerance`](crate::DefectParams::open_tolerance)
//! fails on drive loss alone.

use crate::defect::{DefectKind, DefectParams, SiteDefects};
use cnfet_immunity::{sample_polyline, trace_polyline, TraceMap};
use cnfet_rng::rngs::StdRng;
use cnfet_rng::SeedableRng;

/// The verdict of one (layout, site) evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteVerdict {
    /// Whether the layout survives this site's defects: no harmful
    /// short and an open fraction within tolerance.
    pub functional: bool,
    /// Defective tubes whose trace created a harmful conduction
    /// segment.
    pub harmful_shorts: u32,
    /// Open tubes at the site.
    pub open_tubes: u32,
}

/// A per-layout tester over a prepared map: test many sites.
#[derive(Clone, Copy, Debug)]
pub struct SiteTester<'a> {
    map: &'a TraceMap,
}

impl<'a> SiteTester<'a> {
    /// A tester reading `map`; nothing is built.
    pub fn new(map: &'a TraceMap) -> SiteTester<'a> {
        SiteTester { map }
    }

    /// Evaluates one site's defects against the prepared layout.
    ///
    /// Each metallic or mispositioned tube's geometry is drawn by
    /// [`sample_polyline`] — the Monte-Carlo engine's tube model — from
    /// the tube's recorded seed and the process's
    /// [`tau`](DefectParams::tau) and
    /// [`segment_len_lambda`](DefectParams::segment_len_lambda), so the
    /// same defect record always traces the same path over a given
    /// layout.
    pub fn test(&self, site: &SiteDefects, params: &DefectParams) -> SiteVerdict {
        let mut harmful_shorts = 0u32;
        let mut open_tubes = 0u32;
        let mut poly = Vec::new();
        for defect in &site.defects {
            match defect.kind {
                DefectKind::Open => open_tubes += 1,
                DefectKind::Metallic | DefectKind::Mispositioned => {
                    let mut rng = StdRng::seed_from_u64(defect.seed);
                    let (tau, segment) = (params.tau, params.segment_len_lambda);
                    sample_polyline(self.map, &mut rng, tau, segment, &mut poly);
                    let metallic = defect.kind == DefectKind::Metallic;
                    if trace_polyline(self.map, &poly, metallic).is_some() {
                        harmful_shorts += 1;
                    }
                }
            }
        }
        let open_ok = site.tubes == 0
            || f64::from(open_tubes) <= params.open_tolerance * f64::from(site.tubes);
        SiteVerdict {
            functional: harmful_shorts == 0 && open_ok,
            harmful_shorts,
            open_tubes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defect::{DefectMap, TubeDefect};
    use cnfet_core::{generate_cell, GenerateOptions, StdCellKind, Style};

    fn cell(style: Style) -> cnfet_core::GeneratedCell {
        generate_cell(
            StdCellKind::Nand(2),
            &GenerateOptions {
                style,
                ..GenerateOptions::default()
            },
        )
        .unwrap()
    }

    fn site_of(kind: DefectKind, tubes: u32, n: u32) -> SiteDefects {
        SiteDefects {
            site: 0,
            tubes,
            defects: (0..n)
                .map(|tube| TubeDefect {
                    tube,
                    kind,
                    seed: crate::mix_seed(0xFEED, tube as u64),
                })
                .collect(),
        }
    }

    #[test]
    fn immune_layout_shrugs_off_mispositioned_tubes() {
        let c = cell(Style::NewImmune);
        let map = TraceMap::new(&c.semantics);
        let tester = SiteTester::new(&map);
        let verdict = tester.test(
            &site_of(DefectKind::Mispositioned, 8, 8),
            &DefectParams::default(),
        );
        assert!(verdict.functional, "{verdict:?}");
        assert_eq!(verdict.harmful_shorts, 0);
    }

    #[test]
    fn vulnerable_layout_fails_under_enough_mispositioning() {
        let c = cell(Style::Vulnerable);
        let map = TraceMap::new(&c.semantics);
        let tester = SiteTester::new(&map);
        let failures: u32 = (0..64)
            .map(|i| {
                let site = SiteDefects {
                    site: i,
                    tubes: 8,
                    defects: vec![TubeDefect {
                        tube: 0,
                        kind: DefectKind::Mispositioned,
                        seed: crate::mix_seed(42, i as u64),
                    }],
                };
                tester.test(&site, &DefectParams::default()).harmful_shorts
            })
            .sum();
        assert!(failures > 0, "no harmful tube in 64 seeded sites");
    }

    #[test]
    fn metallic_tubes_can_break_even_immune_layouts() {
        let c = cell(Style::NewImmune);
        let map = TraceMap::new(&c.semantics);
        let tester = SiteTester::new(&map);
        let failures: u32 = (0..64)
            .map(|i| {
                let site = SiteDefects {
                    site: i,
                    tubes: 8,
                    defects: vec![TubeDefect {
                        tube: 0,
                        kind: DefectKind::Metallic,
                        seed: crate::mix_seed(7, i as u64),
                    }],
                };
                tester.test(&site, &DefectParams::default()).harmful_shorts
            })
            .sum();
        assert!(failures > 0, "no metallic short in 64 seeded sites");
    }

    #[test]
    fn open_tubes_fail_on_tolerance_not_shorts() {
        let c = cell(Style::NewImmune);
        let map = TraceMap::new(&c.semantics);
        let tester = SiteTester::new(&map);
        let params = DefectParams::default(); // tolerance 0.25 of 8 = 2
        let fine = tester.test(&site_of(DefectKind::Open, 8, 2), &params);
        assert!(fine.functional);
        assert_eq!(fine.open_tubes, 2);
        let dead = tester.test(&site_of(DefectKind::Open, 8, 3), &params);
        assert!(!dead.functional);
        assert_eq!(dead.harmful_shorts, 0);
    }

    #[test]
    fn verdicts_are_deterministic() {
        let c = cell(Style::NewImmune);
        let params = DefectParams::default();
        let map = DefectMap::sample(11, 0, 8, &params);
        let (map_a, map_b) = (TraceMap::new(&c.semantics), TraceMap::new(&c.semantics));
        let (a, b) = (SiteTester::new(&map_a), SiteTester::new(&map_b));
        for site in &map.sites {
            assert_eq!(a.test(site, &params), b.test(site, &params));
        }
    }
}
