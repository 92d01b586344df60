//! Property-based tests of the core invariants.
//!
//! The workspace builds without network access, so instead of `proptest`
//! these use the in-repo deterministic RNG (`cnfet_rng`) to sample random
//! series–parallel expressions: same properties, reproducible cases.

use cnfet::core::{GenerateOptions, Sizing, StdCellKind};
use cnfet::logic::{euler_trails, AdderKind, Expr, PullGraph, SpNetwork, VarTable};
use cnfet::repair::DefectParams;
use cnfet::{
    MacroRequest, RepairRequest, Session, SessionBuilder, SweepMetrics, SweepRequest, VariationGrid,
};
use cnfet_rng::{rngs::StdRng, Rng, SeedableRng};

const CASES: usize = 64;

/// Random positive series–parallel expression over up to 6 variables,
/// recursion-bounded like the old proptest strategy (depth 3).
fn sp_expr(rng: &mut StdRng, depth: usize) -> String {
    let leaves = ["a", "b", "c", "d", "e", "f"];
    if depth == 0 || rng.gen_range(0..3u32) == 0 {
        return leaves[rng.gen_range(0..leaves.len())].to_string();
    }
    let a = sp_expr(rng, depth - 1);
    let b = sp_expr(rng, depth - 1);
    if rng.gen_range(0..2u32) == 0 {
        format!("({a}*{b})")
    } else {
        format!("({a}+{b})")
    }
}

fn parse(expr: &str) -> (SpNetwork, VarTable) {
    let mut vars = VarTable::new();
    let e = Expr::parse_with(expr, &mut vars).unwrap();
    (SpNetwork::from_expr(&e).unwrap(), vars)
}

/// Every edge of a pull graph is covered exactly once by the Euler trail
/// decomposition.
#[test]
fn euler_trails_cover_every_edge_once() {
    let mut rng = StdRng::seed_from_u64(0xE0_1E5);
    for case in 0..CASES {
        let expr = sp_expr(&mut rng, 3);
        let (net, _) = parse(&expr);
        let graph = PullGraph::from_network(&net);
        let trails = euler_trails(&graph);
        let mut covered = vec![0usize; graph.edge_count()];
        for t in &trails {
            for (i, eid) in t.edges.iter().enumerate() {
                covered[eid.0 as usize] += 1;
                let edge = graph.edge(*eid);
                let (a, b) = (t.nodes[i], t.nodes[i + 1]);
                assert!(
                    (edge.a == a && edge.b == b) || (edge.a == b && edge.b == a),
                    "case {case} `{expr}`: trail edge endpoints mismatch"
                );
            }
        }
        assert!(
            covered.iter().all(|&c| c == 1),
            "case {case} `{expr}`: {covered:?}"
        );
    }
}

/// The dual of the dual is the original network, and the dual conducts
/// exactly when the original does not (under complemented inputs).
#[test]
fn duality_laws() {
    let mut rng = StdRng::seed_from_u64(0xD0A1);
    for case in 0..CASES {
        let expr = sp_expr(&mut rng, 3);
        let (net, vars) = parse(&expr);
        assert_eq!(net.dual().dual(), net, "case {case} `{expr}`");
        let n = vars.len();
        let full = (1u64 << n) - 1;
        for m in 0..=full {
            assert_eq!(
                net.dual().conducts(m),
                !net.conducts(!m & full),
                "case {case} `{expr}` at {m:b}"
            );
        }
    }
}

/// Any random series–parallel function laid out with the new compact
/// technique generates, passes DRC-relevant invariants, and is certified
/// 100% immune to mispositioned CNTs. Runs through the session engine,
/// which also exercises the custom-network cache path.
#[test]
fn arbitrary_functions_generate_immune_layouts() {
    let session = Session::new();
    let opts = GenerateOptions {
        sizing: Sizing::Uniform { width_lambda: 4 },
        ..GenerateOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(0x1A_90);
    for case in 0..CASES {
        let expr = sp_expr(&mut rng, 3);
        let (pdn, vars) = parse(&expr);
        let pun = pdn.dual();
        let result = session
            .generate_custom(format!("prop_{expr}"), pdn, pun, vars, Some(opts.clone()))
            .unwrap();
        assert!(result.cell.active_area_l2() > 0.0, "case {case} `{expr}`");
        let map = cnfet::immunity::TraceMap::new(&result.cell.semantics);
        let report = cnfet::immunity::certify(&map);
        assert!(
            report.immune,
            "case {case} `{expr}` harmful: {:?}",
            report.harmful
        );
    }
    // Duplicate expressions across cases are cache hits, never repeats.
    let stats = session.stats();
    assert_eq!(stats.cells.requests(), CASES as u64);
    assert_eq!(stats.cells.misses, session.cached_cells() as u64);
}

/// The reference sweep for the determinism properties: two cells, eight
/// corners across every axis, every metric — including the rendered MNA
/// transient waveforms — fixed seeds everywhere.
fn reference_sweep() -> SweepRequest {
    SweepRequest::new([StdCellKind::Inv, StdCellKind::Nor(2)])
        .grid(
            VariationGrid::nominal()
                .tube_counts([26, 12])
                .pitch_scales([1.0, 0.8])
                .metallic_fractions([0.0, 0.05])
                .seeds([0xFEED]),
        )
        .metrics(SweepMetrics::ALL.with_waveforms())
        .mc(cnfet::immunity::McOptions {
            tubes: 120,
            ..Default::default()
        })
        .loads([0.5e-15, 2e-15])
}

/// A sweep report's canonical rendering: `Debug` covers every row, every
/// float, the Pareto indices and both summaries, so byte-equality of the
/// rendering is byte-equality of the report.
fn render(report: &cnfet::SweepReport) -> String {
    format!("{report:#?}")
}

/// A fixed-seed sweep must produce a byte-identical report no matter how
/// the work is scheduled: one worker, two workers, or auto-sized, and
/// with memoization disabled entirely (`cache_capacity(0)` — every
/// corner re-executes instead of being recalled). Scheduling and caching
/// may only change *when* rows are computed, never *what* they contain.
#[test]
fn sweep_reports_are_deterministic_across_workers_and_cache() {
    let reference = render(
        &SessionBuilder::new()
            .batch_workers(1)
            .build()
            .run(&reference_sweep())
            .unwrap(),
    );
    for workers in [2usize, 0] {
        let session = SessionBuilder::new().batch_workers(workers).build();
        let report = session.run(&reference_sweep()).unwrap();
        assert_eq!(
            render(&report),
            reference,
            "report changed under batch_workers({workers})"
        );
    }
    let uncached = SessionBuilder::new()
        .cache_capacity(0)
        .batch_workers(2)
        .build();
    let report = uncached.run(&reference_sweep()).unwrap();
    assert_eq!(render(&report), reference, "report changed with cache off");
    // With capacity 0 nothing was memoized — every corner executed.
    assert_eq!(uncached.stats().sweeps.hits, 0);
}

/// Submitting the same sweep non-blocking (through the pool) yields the
/// same bytes as the synchronous path.
#[test]
fn sweep_reports_are_deterministic_across_submission_paths() {
    let sync_report = render(&Session::new().run(&reference_sweep()).unwrap());
    let session = SessionBuilder::new().batch_workers(1).build();
    let submitted = session.submit(reference_sweep()).wait().unwrap();
    assert_eq!(render(&submitted), sync_report);
}

/// The reference repair lot for the determinism properties: three cell
/// types per die, a dirty defect mix so some dies need spares (and some
/// are unrepairable), fixed seed base.
fn reference_repair() -> RepairRequest {
    RepairRequest::new([StdCellKind::Inv, StdCellKind::Nand(2), StdCellKind::Nor(2)])
        .dies(24)
        .base_seed(0xFEED)
        .spares(2)
        .params(DefectParams {
            metallic_fraction: 0.05,
            misposition_fraction: 0.2,
            ..DefectParams::default()
        })
}

/// A fixed-seed repair lot must render a byte-identical report no matter
/// how the per-die fan-out is scheduled: one worker, two workers, or
/// auto-sized (which in CI also spans `CNFET_TEST_WORKERS ∈ {auto, 1}` —
/// `batch_workers(0)` defers to that variable), and with memoization
/// disabled entirely. Each die's defect stream is keyed by
/// `base_seed ⊕ die`, never by which worker sampled it.
#[test]
fn repair_reports_are_deterministic_across_workers_and_cache() {
    let reference = SessionBuilder::new()
        .batch_workers(1)
        .build()
        .run(&reference_repair())
        .unwrap()
        .render();
    for workers in [2usize, 0] {
        let session = SessionBuilder::new().batch_workers(workers).build();
        let report = session.run(&reference_repair()).unwrap();
        assert_eq!(
            report.render(),
            reference,
            "report changed under batch_workers({workers})"
        );
    }
    let uncached = SessionBuilder::new()
        .cache_capacity(0)
        .batch_workers(2)
        .build();
    let report = uncached.run(&reference_repair()).unwrap();
    assert_eq!(report.render(), reference, "report changed with cache off");
    // With capacity 0 nothing was memoized — every die executed.
    assert_eq!(uncached.stats().repairs.hits, 0);
}

/// Submitting the same repair lot non-blocking (through the pool) yields
/// the same bytes as the synchronous path.
#[test]
fn repair_reports_are_deterministic_across_submission_paths() {
    let sync_report = Session::new().run(&reference_repair()).unwrap().render();
    let session = SessionBuilder::new().batch_workers(1).build();
    let submitted = session.submit(reference_repair()).wait().unwrap();
    assert_eq!(submitted.render(), sync_report);
}

/// The reference macro for the determinism properties: a 32-bit
/// carry-look-ahead adder, fixed slice-jitter seed.
fn reference_macro() -> MacroRequest {
    MacroRequest::new(AdderKind::Cla, 32).seed(0xFEED)
}

/// A fixed-seed macro must render a byte-identical report — and emit
/// byte-identical SPICE and GDS artifacts — no matter how the per-slice
/// fan-out is scheduled: one worker, two workers, or auto-sized (which
/// in CI also spans `CNFET_TEST_WORKERS ∈ {auto, 1}` — `batch_workers(0)`
/// defers to that variable), and with memoization disabled entirely.
/// Each slice's load jitter is keyed by `seed ⊕ bit`, never by which
/// worker characterized it or whether its sub-cells were recalled.
#[test]
fn macro_reports_are_deterministic_across_workers_and_cache() {
    let reference = SessionBuilder::new()
        .batch_workers(1)
        .build()
        .run(&reference_macro())
        .unwrap();
    for workers in [2usize, 0] {
        let session = SessionBuilder::new().batch_workers(workers).build();
        let report = session.run(&reference_macro()).unwrap();
        assert_eq!(
            report.render(),
            reference.render(),
            "report changed under batch_workers({workers})"
        );
        assert_eq!(report.spice, reference.spice, "SPICE changed ({workers})");
        assert_eq!(report.gds, reference.gds, "GDS changed ({workers})");
    }
    let uncached = SessionBuilder::new()
        .cache_capacity(0)
        .batch_workers(2)
        .build();
    let report = uncached.run(&reference_macro()).unwrap();
    assert_eq!(
        report.render(),
        reference.render(),
        "report changed with cache off"
    );
    assert_eq!(
        report.spice, reference.spice,
        "SPICE changed with cache off"
    );
    assert_eq!(report.gds, reference.gds, "GDS changed with cache off");
    // With capacity 0 nothing was memoized — every slice executed.
    assert_eq!(uncached.stats().macros.hits, 0);
}

/// Submitting the same macro non-blocking (through the pool) yields the
/// same bytes as the synchronous path.
#[test]
fn macro_reports_are_deterministic_across_submission_paths() {
    let sync_report = Session::new().run(&reference_macro()).unwrap().render();
    let session = SessionBuilder::new().batch_workers(1).build();
    let submitted = session.submit(reference_macro()).wait().unwrap();
    assert_eq!(submitted.render(), sync_report);
}

/// Paths of a network characterize its conduction exactly.
#[test]
fn paths_characterize_conduction() {
    let mut rng = StdRng::seed_from_u64(0xFA_77);
    for case in 0..CASES {
        let expr = sp_expr(&mut rng, 3);
        let (net, vars) = parse(&expr);
        let paths = net.paths();
        let n = vars.len();
        for m in 0..1u64 << n {
            let by_paths = paths
                .iter()
                .any(|p| p.iter().all(|v| m >> v.index() & 1 == 1));
            assert_eq!(by_paths, net.conducts(m), "case {case} `{expr}` at {m:b}");
        }
    }
}
