//! Bench: the `Session` engine — cold vs cached vs batched generation of
//! the full `StdCellKind::ALL` × scheme request matrix, the library
//! build, a contended multi-thread hit path, a skewed batch, a
//! heterogeneous `submit_all` mix riding the persistent job pool, the
//! composite variation sweep, 1000-die repair-lot, and 64-bit adder
//! macro workloads (cold, cached, and the SAT-solver escalation), plus
//! the MNA engine's cold transient and characterization-sweep workloads.
//! This is the baseline future perf PRs (sharding, async serving) must
//! not regress; CI gates the `cached_*`/`contended_*`/`mixed_batch_*`/
//! `macro_cla64_cached`/`repair_1000_dies_cached`/`sweep_grid_cached*`/
//! `sweep_grid_mna*`/`tran_inverter_cold` samples through
//! `check_regression`.

use cnfet::core::{GenerateOptions, Scheme, StdCellKind};
use cnfet::device::Polarity;
use cnfet::dk::DesignKit;
use cnfet::immunity::McOptions;
use cnfet::logic::AdderKind;
use cnfet::repair::{DefectParams, Solver};
use cnfet::spice::{Circuit, SourceWave};
use cnfet::{
    CellRequest, DieRequest, FlowRequest, FlowSource, ImmunityRequest, LibraryRequest,
    MacroRequest, OptimizeRequest, OptimizeTarget, RepairRequest, RequestKind, Session,
    SessionRequest, SweepCornerRequest, SweepMetrics, SweepRequest, VariationCorner, VariationGrid,
};
use cnfet_bench::harness::Harness;
use std::hint::black_box;
use std::sync::Arc;

/// The golden-test inverter: a loaded CNFET inverter driven by a pulse
/// — the canonical single-cell transient workload for the MNA engine.
fn inverter_circuit() -> Circuit {
    let kit = DesignKit::cnfet65();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource(vdd, Circuit::GROUND, SourceWave::Dc(kit.cnfet.vdd));
    ckt.add_vsource(
        vin,
        Circuit::GROUND,
        SourceWave::Pulse {
            v0: 0.0,
            v1: kit.cnfet.vdd,
            delay: 0.2e-9,
            rise: 10e-12,
            fall: 10e-12,
            width: 2e-9,
            period: 4e-9,
        },
    );
    let width_m = kit.base_width_lambda as f64 * 32.5e-9;
    let n = kit
        .cnfet
        .device(Polarity::N, kit.tubes_per_4lambda, width_m);
    let p = kit
        .cnfet
        .device(Polarity::P, kit.tubes_per_4lambda, width_m);
    ckt.add_fet(out, vin, Circuit::GROUND, Arc::new(n));
    ckt.add_fet(out, vin, vdd, Arc::new(p));
    ckt.add_load(out, 1e-15);
    ckt
}

fn matrix() -> Vec<CellRequest> {
    let mut requests = Vec::new();
    for kind in StdCellKind::ALL {
        for scheme in [Scheme::Scheme1, Scheme::Scheme2] {
            requests.push(CellRequest::new(kind).options(GenerateOptions {
                scheme,
                ..GenerateOptions::default()
            }));
        }
    }
    requests
}

/// A cost-skewed request list: mostly cheap strength-1 inverters plus a
/// tail of heavy high-strength complex gates, the shape that leaves
/// fixed-chunk executors with idle workers.
fn skewed(n_cheap: usize) -> Vec<CellRequest> {
    let mut requests: Vec<CellRequest> = (0..n_cheap)
        .map(|i| CellRequest::new(StdCellKind::Inv).named(format!("INV_SKEW_{i}")))
        .collect();
    for kind in [StdCellKind::Aoi22, StdCellKind::Oai21, StdCellKind::Nand(3)] {
        for strength in [7, 9] {
            requests.push(CellRequest::new(kind).strength(strength));
        }
    }
    requests
}

/// A heterogeneous mix — cells, immunity verdicts, and flows interleaved
/// — the shape of a co-optimization sweep going through `submit_all`.
fn mixed(cells: &[CellRequest]) -> Vec<RequestKind> {
    let mut requests = Vec::new();
    let verdicts = StdCellKind::ALL.into_iter().map(ImmunityRequest::certify);
    let flows = [
        FlowRequest::cnfet(FlowSource::FullAdder, Scheme::Scheme1),
        FlowRequest::cmos(FlowSource::FullAdder),
    ];
    let mut cell_iter = cells.iter().cloned();
    for verdict in verdicts {
        // Interleave: two cells, one verdict.
        requests.extend(cell_iter.by_ref().take(2).map(RequestKind::from));
        requests.push(RequestKind::from(verdict));
    }
    requests.extend(cell_iter.map(RequestKind::from));
    requests.extend(flows.into_iter().map(RequestKind::from));
    requests
}

fn main() {
    let mut h = Harness::new("session");
    let requests = matrix();
    let n = requests.len();

    // Cold: a fresh session every iteration — every request generates.
    h.bench(format!("cold_serial_{n}_cells"), 50, || {
        let session = Session::new();
        for r in &requests {
            session.run(r).unwrap();
        }
        session
    });

    // Cached: one warm session — every request is a cache hit.
    let warm = Session::new();
    for r in &requests {
        warm.run(r).unwrap();
    }
    h.bench(format!("cached_serial_{n}_cells"), 200, || {
        for r in &requests {
            assert!(warm.run(r).unwrap().cached);
        }
    });

    // Batched: a fresh session fanned out across threads.
    h.bench(format!("cold_batch_{n}_cells"), 50, || {
        let session = Session::new();
        let results = session.run_batch(&requests);
        assert!(results.iter().all(|r| r.is_ok()));
        session
    });

    // Batched against the warm cache.
    h.bench(format!("cached_batch_{n}_cells"), 200, || {
        warm.run_batch(&requests)
    });

    // Contended hit path: every thread hammers the same warm cache with
    // the full matrix at once. This is the sample the sharded cache must
    // move — under a single lock all threads serialize here.
    for threads in [4, 8] {
        h.bench(format!("contended_hits_{threads}t_{n}_cells"), 100, || {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        for r in &requests {
                            assert!(warm.run(r).unwrap().cached);
                        }
                    });
                }
            })
        });
    }

    // Skewed batch: many cheap cells plus a heavy tail, cold every
    // iteration — measures how well the pool load-balances a batch.
    let skewed_requests = skewed(48);
    let sn = skewed_requests.len();
    h.bench(format!("skewed_batch_{sn}_cells"), 30, || {
        let session = Session::new();
        let results = session.run_batch(&skewed_requests);
        assert!(results.iter().all(|r| r.is_ok()));
        session
    });

    // Mixed batch: cells + immunity verdicts + flows interleaved through
    // the non-blocking submit_all against the warm session — measures
    // JobHandle + pool dispatch overhead on the pure hit path.
    let mixed_requests = mixed(&requests);
    let mn = mixed_requests.len();
    for r in &mixed_requests {
        warm.run(r).unwrap();
    }
    h.bench(format!("mixed_batch_{mn}_reqs"), 100, || {
        let handles = warm.submit_all(mixed_requests.iter().cloned());
        for handle in handles {
            handle.wait().unwrap();
        }
    });
    // Its serial twin (record-only): the same mix through `run`, so the
    // batch's overhead over a plain loop reads from one run.
    h.bench(format!("serial_mix_{mn}_reqs"), 100, || {
        for r in &mixed_requests {
            warm.run(r).unwrap();
        }
    });

    // Variation sweep: the composite request — 3 cells × 4 corners
    // fanned out through the pool with batch-targeted helping. Cold is
    // informational (it times MC + reduction); the cached sample is the
    // gated one — a repeated sweep must stay a pure Sweeps-class hit.
    let sweep = SweepRequest::new([StdCellKind::Inv, StdCellKind::Nand(2), StdCellKind::Nor(2)])
        .grid(
            VariationGrid::nominal()
                .tube_counts([26, 10])
                .metallic_fractions([0.0, 0.05]),
        )
        .metrics(SweepMetrics::IMMUNITY)
        .mc(cnfet::immunity::McOptions {
            tubes: 200,
            ..Default::default()
        });
    h.bench("sweep_grid_cold_3c4k", 10, || {
        let session = Session::new();
        session.run(&sweep).unwrap()
    });
    let warm_sweep = Session::new();
    warm_sweep.run(&sweep).unwrap();
    h.bench("sweep_grid_cached_3c4k", 200, || {
        warm_sweep.run(&sweep).unwrap()
    });

    // MNA transient, cold: symbolic analysis + engine allocation + one
    // backward-Euler pulse period every iteration — the whole
    // lowering → analyze → stamp → refactor → solve chain. Gated: the
    // reusable-factorization engine must not regress.
    let inverter = inverter_circuit();
    let inverter_mna = cnfet::spice::to_mna(&inverter);
    h.bench("tran_inverter_cold", 20, || {
        let pattern = Arc::new(cnfet::mna::Pattern::analyze(inverter_mna));
        let mut engine = cnfet::mna::Engine::new(pattern);
        engine
            .tran(inverter_mna, &cnfet::mna::TranSpec::new(20e-12, 4e-9))
            .unwrap()
    });

    // MNA-backed characterization sweep, cold: 3 cells × 4 corners of
    // timing metrics, a fresh session every iteration — measures the
    // per-corner transient stack (pattern-cache reuse included), not
    // the memoization layer.
    let mna_sweep =
        SweepRequest::new([StdCellKind::Inv, StdCellKind::Nand(2), StdCellKind::Nor(2)])
            .grid(
                VariationGrid::nominal()
                    .tube_counts([26, 10])
                    .pitch_scales([1.0, 0.8]),
            )
            .metrics(SweepMetrics::TIMING);
    h.bench("sweep_grid_mna_3c4k", 10, || {
        let session = Session::new();
        session.run(&mna_sweep).unwrap()
    });

    // Repair lot: the second composite — 1000 dies of per-die defect
    // sampling + site testing + matching, fanned out through the pool.
    // Cold is informational; the cached sample (a pure Repairs-class
    // whole-report hit) is gated like the sweep's.
    let lot = RepairRequest::new([StdCellKind::Inv, StdCellKind::Nand(2), StdCellKind::Nor(2)])
        .dies(1000)
        .base_seed(0xB0BBA)
        .spares(2)
        .params(DefectParams {
            metallic_fraction: 0.05,
            misposition_fraction: 0.2,
            ..DefectParams::default()
        });
    h.bench("repair_1000_dies_cold", 10, || {
        let session = Session::new();
        session.run(&lot).unwrap()
    });
    let warm_repair = Session::new();
    warm_repair.run(&lot).unwrap();
    h.bench("repair_1000_dies_cached", 200, || {
        warm_repair.run(&lot).unwrap()
    });

    // Co-optimization: the third composite — a 20-candidate coordinate
    // descent whose every evaluation is a memoized candidate sweep. Cold
    // is informational (it times the search's sweep fan-out + helping);
    // the cached sample is gated — a repeated converged search must stay
    // a pure Optimizations-class trajectory hit.
    let optimize = OptimizeRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)])
        .grid(
            VariationGrid::nominal()
                .tube_counts([26, 20, 16, 10, 8])
                .pitch_scales([1.0, 0.9, 0.8])
                .metallic_fractions([0.0, 0.01])
                .seeds([7]),
        )
        .target(OptimizeTarget::new().min_yield(0.5))
        .passes(2)
        .metrics(SweepMetrics::IMMUNITY)
        .mc(cnfet::immunity::McOptions {
            tubes: 200,
            ..Default::default()
        });
    assert_eq!(optimize.candidate_count(), 20);
    h.bench("optimize_cold_20cand", 10, || {
        let session = Session::new();
        session.run(&optimize).unwrap()
    });
    let warm_optimize = Session::new();
    assert!(warm_optimize.run(&optimize).unwrap().converged);
    h.bench("optimize_converged_cached", 200, || {
        warm_optimize.run(&optimize).unwrap()
    });

    // Hierarchical macro: the fourth composite — a 64-bit carry-look-
    // ahead adder fanning 64 bit-slice characterizations out through the
    // pool, then assembling placement + GDS around one shared full-adder
    // sub-cell. Cold is informational (it times the MNA-backed slice
    // characterizations + assembly); the cached sample (a pure
    // Macros-class whole-report hit) is gated like the other composites'.
    let cla64 = MacroRequest::new(AdderKind::Cla, 64).seed(0xB0BBA);
    h.bench("macro_cla64_cold", 3, || {
        let session = Session::new();
        session.run(&cla64).unwrap()
    });
    let warm_macro = Session::new();
    warm_macro.run(&cla64).unwrap();
    h.bench("macro_cla64_cached", 200, || {
        warm_macro.run(&cla64).unwrap()
    });

    // SAT fallback: the same defect mix under adjacency constraints, so
    // every die routes through the DPLL solver instead of matching —
    // informational, it times the solver escalation itself.
    let constrained =
        RepairRequest::new([StdCellKind::Inv, StdCellKind::Nand(2), StdCellKind::Nor(2)])
            .dies(100)
            .base_seed(0xB0BBA)
            .spares(2)
            .params(DefectParams {
                metallic_fraction: 0.05,
                misposition_fraction: 0.2,
                ..DefectParams::default()
            })
            .adjacent([(0, 1), (1, 2)]);
    h.bench("repair_sat_fallback_100_dies", 10, || {
        let session = Session::new();
        let report = session.run(&constrained).unwrap();
        assert!(report.dies.iter().all(|d| d.solver == "sat"));
        report
    });

    // Library build: cold (fresh session) vs memoized.
    h.bench("library_scheme1_cold", 20, || {
        Session::new()
            .run(&LibraryRequest::new(Scheme::Scheme1))
            .unwrap()
    });
    let warm_lib = Session::new();
    warm_lib.run(&LibraryRequest::new(Scheme::Scheme1)).unwrap();
    h.bench("library_scheme1_cached", 200, || {
        warm_lib.run(&LibraryRequest::new(Scheme::Scheme1)).unwrap()
    });

    // Key builds (record-only): one iteration builds 1,000 keys, so a
    // sample's time over 1,000 is one key's cost. Every probe — so every
    // cache hit and every fan-out child — builds one.
    let keys = Session::new();
    let three = [StdCellKind::Inv, StdCellKind::Nand(2), StdCellKind::Nor(2)];
    let corner = SweepCornerRequest {
        cell: CellRequest::new(StdCellKind::Inv),
        corner: VariationCorner::nominal(),
        metrics: SweepMetrics::ALL,
        mc: McOptions::default(),
        loads_f: vec![1e-15],
    };
    let die = DieRequest {
        cells: three.map(CellRequest::new).to_vec(),
        die: 7,
        base_seed: 0xB0BBA,
        spares: 2,
        params: DefectParams::default(),
        solver: Solver::Auto,
        adjacent: Vec::new(),
    };
    let sweep = SweepRequest::new(three).grid(VariationGrid::nominal().seeds([1, 2]));
    key_builds(
        &mut h,
        "cell",
        &keys,
        &CellRequest::new(StdCellKind::Nand(2)),
    );
    key_builds(&mut h, "sweep_3c", &keys, &sweep);
    key_builds(&mut h, "corner", &keys, &corner);
    key_builds(&mut h, "optimize_3c", &keys, &OptimizeRequest::new(three));
    key_builds(&mut h, "die_3c", &keys, &die);

    h.finish();
}

/// Times 1,000 key builds of `request` per iteration as `key_build_{name}`.
fn key_builds<R: SessionRequest>(h: &mut Harness, name: &str, session: &Session, request: &R) {
    h.bench(format!("key_build_{name}"), 200, || {
        for _ in 0..1000 {
            black_box(request.cache_key(session));
        }
    });
}
