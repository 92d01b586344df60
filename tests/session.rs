//! Integration tests of the `cnfet::Session` engine: generic `run`
//! cache hit/miss semantics, batch-vs-serial equivalence, library/flow
//! memoization, composite sweep memoization, and the unified error
//! hierarchy.

use cnfet::core::{GenerateOptions, Scheme, Sizing, StdCellKind, Style};
use cnfet::{
    CellRequest, CnfetError, FlowRequest, FlowSource, ImmunityEngine, ImmunityRequest,
    LibraryRequest, OptimizeRequest, OptimizeTarget, RequestClass, RequestKind, Session,
    SessionBuilder, SessionRequest, SweepMetrics, SweepRequest, VariationGrid,
};
use std::sync::Arc;

/// A small co-optimization: one cell, a 2-value tube axis, cheap
/// fixed-seed Monte-Carlo — 4 candidate evaluations per pass.
fn small_optimize() -> OptimizeRequest {
    OptimizeRequest::new([StdCellKind::Inv])
        .grid(VariationGrid::nominal().tube_counts([6, 26]).seeds([7]))
        .target(OptimizeTarget::new().min_yield(0.9))
        .passes(1)
        .metrics(SweepMetrics::IMMUNITY)
        .mc(cnfet::immunity::McOptions {
            tubes: 60,
            ..Default::default()
        })
}

#[test]
fn concurrent_identical_requests_generate_once() {
    // Single-flight: a batch of duplicates must run ONE generation; the
    // other workers wait on it and come back as hits on the same Arc.
    let session = Session::new();
    let requests = vec![CellRequest::new(StdCellKind::Nand(3)); 16];
    let results: Vec<_> = session
        .run_batch(&requests)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();

    let stats = session.stats();
    assert_eq!(stats.cells.misses, 1, "exactly one layout generation");
    assert_eq!(stats.cells.hits, 15);
    assert_eq!(session.cached_cells(), 1);
    assert_eq!(
        results.iter().filter(|r| !r.cached).count(),
        1,
        "exactly one result reports a fresh build"
    );
    let first = &results[0].cell;
    assert!(results.iter().all(|r| Arc::ptr_eq(&r.cell, first)));
}

#[test]
fn identical_requests_hit_the_cache() {
    let session = Session::new();
    let req = CellRequest::new(StdCellKind::Nand(3));

    let first = session.run(&req).unwrap();
    assert!(!first.cached);
    let second = session.run(&req).unwrap();
    assert!(second.cached);

    // No second layout generation happened: one miss, one hit, and both
    // results share the same allocation.
    let stats = session.stats();
    assert_eq!(stats.cells.misses, 1);
    assert_eq!(stats.cells.hits, 1);
    assert!(Arc::ptr_eq(&first.cell, &second.cell));
    assert_eq!(session.cached_cells(), 1);
}

#[test]
fn changed_options_miss_the_cache() {
    let session = Session::new();
    let base = CellRequest::new(StdCellKind::Nand(2));
    session.run(&base).unwrap();

    for options in [
        GenerateOptions {
            scheme: Scheme::Scheme2,
            ..GenerateOptions::default()
        },
        GenerateOptions {
            style: Style::OldEtched,
            ..GenerateOptions::default()
        },
        GenerateOptions {
            sizing: Sizing::Uniform { width_lambda: 6 },
            ..GenerateOptions::default()
        },
    ] {
        let r = session.run(&base.clone().options(options)).unwrap();
        assert!(!r.cached, "distinct options must regenerate");
    }
    // A different strength is a distinct cell too.
    let x2 = session
        .run(&CellRequest::new(StdCellKind::Nand(2)).strength(2))
        .unwrap();
    assert!(!x2.cached);

    let stats = session.stats();
    assert_eq!(stats.cells.hits, 0);
    assert_eq!(stats.cells.misses, 5);
}

#[test]
fn explicit_default_options_share_the_default_entry() {
    let session = Session::new();
    let implicit = session.run(&CellRequest::new(StdCellKind::Inv)).unwrap();
    let explicit = session
        .run(&CellRequest::new(StdCellKind::Inv).options(GenerateOptions::default()))
        .unwrap();
    assert!(explicit.cached, "None-options resolve to the same key");
    assert!(Arc::ptr_eq(&implicit.cell, &explicit.cell));
}

#[test]
fn cache_keys_are_class_tagged() {
    // Every request kind produces a key of its own class, so the four
    // caches can never serve each other's entries.
    let session = Session::new();
    let cell = CellRequest::new(StdCellKind::Inv);
    let lib = LibraryRequest::new(Scheme::Scheme1);
    let imm = ImmunityRequest::certify(StdCellKind::Inv);
    let flow = FlowRequest::cnfet(FlowSource::FullAdder, Scheme::Scheme1);
    assert_eq!(
        cell.cache_key(&session).unwrap().class(),
        RequestClass::Cell
    );
    assert_eq!(
        lib.cache_key(&session).unwrap().class(),
        RequestClass::Library
    );
    assert_eq!(
        imm.cache_key(&session).unwrap().class(),
        RequestClass::Immunity
    );
    assert_eq!(
        flow.cache_key(&session).unwrap().class(),
        RequestClass::Flow
    );
}

#[test]
fn batch_equals_serial() {
    let mut requests = Vec::new();
    for kind in StdCellKind::ALL {
        for scheme in [Scheme::Scheme1, Scheme::Scheme2] {
            requests.push(CellRequest::new(kind).options(GenerateOptions {
                scheme,
                ..GenerateOptions::default()
            }));
        }
    }

    let serial_session = Session::new();
    let serial: Vec<_> = requests
        .iter()
        .map(|r| serial_session.run(r).unwrap())
        .collect();

    let batch_session = Session::new();
    let batch: Vec<_> = batch_session
        .run_batch(&requests)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();

    assert_eq!(serial.len(), batch.len());
    for (s, b) in serial.iter().zip(&batch) {
        assert_eq!(s.cell.name, b.cell.name, "results keep request order");
        assert_eq!(s.cell.active_area_l2(), b.cell.active_area_l2());
        assert_eq!(s.cell.width_lambda, b.cell.width_lambda);
        assert_eq!(s.cell.height_lambda, b.cell.height_lambda);
        assert_eq!(s.cell.via_on_gate_count, b.cell.via_on_gate_count);
    }
    assert_eq!(batch_session.stats().batches, 1);

    // Re-running the same batch is served entirely from the cache.
    let rerun = batch_session.run_batch(&requests);
    assert!(rerun.into_iter().all(|r| r.unwrap().cached));
    assert_eq!(
        batch_session.stats().cells.hits,
        requests.len() as u64,
        "every rerun request must hit"
    );
}

#[test]
fn run_batch_generalizes_beyond_cells() {
    // run_batch accepts any one request kind — here a slice of
    // immunity requests, each recalling its batch-generated cell.
    let session = Session::new();
    let requests: Vec<ImmunityRequest> = StdCellKind::ALL
        .into_iter()
        .map(ImmunityRequest::certify)
        .collect();
    let reports: Vec<_> = session
        .run_batch(&requests)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert!(reports.iter().all(|r| r.immune));
    let stats = session.stats();
    assert_eq!(stats.immunity.misses, requests.len() as u64);
    assert_eq!(stats.cells.misses, requests.len() as u64);
    assert_eq!(stats.batches, 1);

    // An empty batch is one more (empty) batch that enqueues nothing.
    assert!(session.run_batch::<ImmunityRequest>(&[]).is_empty());
    assert_eq!(session.stats().batches, 2);
    assert_eq!(session.stats().submitted, stats.submitted);
}

/// `submitted` counts every job enqueued on the pool, and only misses
/// become jobs: one per uncached `run_batch` request, and one per
/// uncached sub-request a composite fans out. A batch mixing hits and
/// misses submits exactly its misses.
#[test]
fn submitted_counts_every_miss() {
    let session = Session::new();
    let requests: Vec<CellRequest> = [StdCellKind::Inv, StdCellKind::Nand(2), StdCellKind::Nor(2)]
        .into_iter()
        .map(CellRequest::new)
        .collect();
    let before = session.stats();
    session.run_batch(&requests);
    let after = session.stats();
    assert_eq!(after.batches - before.batches, 1);
    assert_eq!(after.submitted - before.submitted, requests.len() as u64);

    let sweep = SweepRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)])
        .grid(VariationGrid::nominal().tube_counts([26, 10]).seeds([1, 2]))
        .metrics(SweepMetrics::IMMUNITY)
        .mc(cnfet::immunity::McOptions {
            tubes: 20,
            ..Default::default()
        });
    let report = session.run(&sweep).unwrap();
    assert_eq!(report.rows.len(), 8);
    let swept = session.stats();
    assert_eq!(
        swept.submitted - after.submitted,
        report.rows.len() as u64,
        "a cold k-row sweep enqueues k corner jobs"
    );
    assert_eq!(swept.batches, after.batches, "composites are not batches");

    // Two cached cells around two new ones: only the new ones are jobs.
    let mixed: Vec<CellRequest> = [
        StdCellKind::Inv,
        StdCellKind::Aoi21,
        StdCellKind::Nor(2),
        StdCellKind::Oai21,
    ]
    .into_iter()
    .map(CellRequest::new)
    .collect();
    let results = session.run_batch(&mixed);
    let cached: Vec<bool> = results.into_iter().map(|r| r.unwrap().cached).collect();
    assert_eq!(
        cached,
        [true, false, true, false],
        "results keep request order"
    );
    let stats = session.stats();
    assert_eq!(stats.submitted - swept.submitted, 2, "exactly the misses");
    assert_eq!(stats.cells.hits - swept.cells.hits, 2);
    assert_eq!(stats.cells.misses - swept.cells.misses, 2);
}

/// A warm `run_batch` and a warm `submit_all` are answered on the
/// calling thread: nothing is submitted, no worker starts, and every
/// request counts exactly one hit.
#[test]
fn warm_batches_and_mixes_never_reach_the_pool() {
    let session = Session::new();
    let cells: Vec<CellRequest> = [StdCellKind::Inv, StdCellKind::Nand(2), StdCellKind::Aoi22]
        .into_iter()
        .map(CellRequest::new)
        .collect();
    let mut mix: Vec<RequestKind> = cells.iter().cloned().map(RequestKind::from).collect();
    mix.push(ImmunityRequest::certify(StdCellKind::Nand(2)).into());
    for request in &mix {
        session.run(request).unwrap();
    }
    let warm = session.stats();

    let results = session.run_batch(&cells);
    assert!(results.into_iter().all(|r| r.unwrap().cached));
    let batched = session.stats();
    assert_eq!(batched.batches - warm.batches, 1);
    assert_eq!(batched.submitted, 0, "a warm batch submits nothing");
    assert_eq!(batched.cells.hits - warm.cells.hits, cells.len() as u64);
    assert_eq!(batched.requests() - warm.requests(), cells.len() as u64);

    let handles = session.submit_all(mix.iter().cloned());
    assert!(
        handles.iter().all(|h| h.is_done()),
        "hits resolve on the spot"
    );
    for handle in handles {
        handle.wait().unwrap();
    }
    let mixed = session.stats();
    assert_eq!(mixed.submitted, 0, "a warm mix submits nothing");
    assert_eq!(mixed.requests() - batched.requests(), mix.len() as u64);
    assert_eq!(mixed.cells.hits - batched.cells.hits, 3);
    assert_eq!(mixed.immunity.hits - batched.immunity.hits, 1);
    assert!(
        format!("{session:?}").contains("pool: None"),
        "no worker was ever started: {session:?}"
    );

    // A cached composite is one hit too, not a job.
    let sweep = SweepRequest::new([StdCellKind::Inv])
        .grid(VariationGrid::nominal().tube_counts([26, 10]))
        .metrics(SweepMetrics::IMMUNITY)
        .mc(cnfet::immunity::McOptions {
            tubes: 20,
            ..Default::default()
        });
    session.run(&sweep).unwrap();
    let swept = session.stats();
    let handle = session.submit(RequestKind::from(sweep));
    assert!(handle.is_done());
    let stats = session.stats();
    assert_eq!(stats.submitted, swept.submitted);
    assert_eq!(stats.sweeps.hits - swept.sweeps.hits, 1);
    assert_eq!(stats.requests() - swept.requests(), 1);
}

/// A request whose key is being built on another thread is probed as a
/// miss without waiting for that build, and its job then joins the
/// build in flight and returns the single-flight value.
#[test]
fn probes_never_wait_on_a_build_in_flight() {
    use std::sync::{Condvar, Mutex};
    let session = Session::new();
    let lot = cnfet::RepairRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)]).dies(4);
    // The gate holds the lot's build open from its observer: (entered,
    // opened). A watchdog opens it after a while, so a probe that waits
    // on the build fails the test instead of hanging it.
    let gate = Arc::new((Mutex::new((false, false)), Condvar::new()));
    let open = |gate: &(Mutex<(bool, bool)>, Condvar)| {
        gate.0.lock().unwrap().1 = true;
        gate.1.notify_all();
    };
    let observed = lot.clone().observe_dies(cnfet::Observer::new({
        let gate = gate.clone();
        move |_, _| {
            let mut state = gate.0.lock().unwrap();
            state.0 = true;
            gate.1.notify_all();
            while !state.1 {
                state = gate.1.wait(state).unwrap();
            }
        }
    }));
    let builder = {
        let session = session.clone();
        std::thread::spawn(move || session.run(&observed).unwrap())
    };
    let watchdog = {
        let gate = gate.clone();
        std::thread::spawn(move || {
            let state = gate.0.lock().unwrap();
            let ten_s = std::time::Duration::from_secs(10);
            drop(gate.1.wait_timeout_while(state, ten_s, |s| !s.1).unwrap());
            open(&gate);
        })
    };
    {
        let mut state = gate.0.lock().unwrap();
        while !state.0 {
            state = gate.1.wait(state).unwrap();
        }
    }
    let before = session.stats();
    let handle = session.submit(lot);
    assert!(
        !gate.0.lock().unwrap().1,
        "submit returned while the build was still in flight"
    );
    let probed = session.stats();
    assert_eq!(probed.submitted - before.submitted, 1, "probed as a miss");
    // The lot's dies still run and count misses meanwhile; no hit can
    // land until the lot's build is released.
    assert_eq!(probed.repairs.hits, before.repairs.hits, "no hit counted");
    open(&gate);
    let built = builder.join().unwrap();
    let joined = handle.wait().unwrap();
    assert!(Arc::ptr_eq(&built, &joined), "the single-flight value");
    let stats = session.stats();
    assert_eq!(stats.repairs.hits - before.repairs.hits, 1, "the job hit");
    watchdog.join().unwrap();
}

/// A sweep whose corners are half cached still feeds its observer every
/// row, in row order, with the cached rows read on the spot and only the
/// new corners run as jobs.
#[test]
fn observers_see_rows_in_order_when_half_the_corners_are_cached() {
    use std::sync::Mutex;
    let session = Session::new();
    let base = SweepRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)])
        .metrics(SweepMetrics::IMMUNITY)
        .mc(cnfet::immunity::McOptions {
            tubes: 20,
            ..Default::default()
        });
    let half = base
        .clone()
        .grid(VariationGrid::nominal().tube_counts([26, 10]).seeds([1]));
    session.run(&half).unwrap();
    let before = session.stats();

    let seen = Arc::new(Mutex::new(Vec::new()));
    let full = base
        .grid(VariationGrid::nominal().tube_counts([26, 10]).seeds([1, 2]))
        .observe_rows(cnfet::Observer::new({
            let seen = seen.clone();
            move |index, row: &cnfet::CornerRow| seen.lock().unwrap().push((index, row.clone()))
        }));
    let report = session.run(&full).unwrap();
    let seen = seen.lock().unwrap();
    assert_eq!(report.rows.len(), 8);
    assert_eq!(seen.len(), report.rows.len());
    for (at, ((index, row), reported)) in seen.iter().zip(&report.rows).enumerate() {
        assert_eq!(*index, at, "observed in row order");
        assert_eq!(format!("{row:?}"), format!("{reported:?}"));
    }
    let stats = session.stats();
    assert_eq!(
        stats.submitted - before.submitted,
        4,
        "only new corners ran"
    );
    assert_eq!(
        stats.sweeps.hits - before.sweeps.hits,
        4,
        "cached corners hit"
    );
}

#[test]
fn library_is_memoized_and_feeds_the_cell_cache() {
    let session = Session::new();
    let lib1 = session.run(&LibraryRequest::new(Scheme::Scheme1)).unwrap();
    let misses_after_build = session.stats().cells.misses;
    assert_eq!(misses_after_build, lib1.cells.len() as u64);

    // Second build: whole library from the library cache.
    let lib2 = session.run(&LibraryRequest::new(Scheme::Scheme1)).unwrap();
    assert!(Arc::ptr_eq(&lib1, &lib2));
    let stats = session.stats();
    assert_eq!(stats.libraries.hits, 1);
    assert_eq!(stats.libraries.misses, 1);
    assert_eq!(stats.cells.misses, misses_after_build, "no regeneration");

    // A library cell requested directly is a cell-cache hit.
    let inv = session
        .run(
            &CellRequest::new(StdCellKind::Inv)
                .options(cnfet::dk::library_options(session.kit(), Scheme::Scheme1))
                .named("INV_X1"),
        )
        .unwrap();
    assert!(inv.cached);
    assert!(Arc::ptr_eq(&lib1.cell("INV_X1").unwrap().layout, &inv.cell));
}

#[test]
fn builder_defaults_apply_to_requests() {
    let session = SessionBuilder::new()
        .scheme(Scheme::Scheme2)
        .sizing(Sizing::Uniform { width_lambda: 4 })
        .build();
    let c = session
        .run(&CellRequest::new(StdCellKind::Nand(2)))
        .unwrap();
    assert_eq!(c.cell.scheme, Scheme::Scheme2);

    let s1 = Session::new()
        .run(&CellRequest::new(StdCellKind::Nand(2)))
        .unwrap();
    assert!(
        c.cell.height_lambda < s1.cell.height_lambda,
        "scheme 2 is shorter"
    );
}

#[test]
fn immunity_through_the_session() {
    let session = Session::new();
    let cert = session
        .run(&ImmunityRequest::certify(StdCellKind::Nand(2)))
        .unwrap();
    assert!(cert.immune);
    assert!(cert.cert.is_some() && cert.mc.is_none());

    let vulnerable = CellRequest::new(StdCellKind::Nand(2)).options(GenerateOptions {
        style: Style::Vulnerable,
        ..GenerateOptions::default()
    });
    let mc = session
        .run(&ImmunityRequest {
            cell: vulnerable,
            engine: ImmunityEngine::MonteCarlo(cnfet::immunity::McOptions {
                tubes: 2000,
                ..Default::default()
            }),
        })
        .unwrap();
    assert!(!mc.immune, "vulnerable layout must fail under Monte-Carlo");
    assert!(mc.mc.unwrap().failures > 0);

    // The repeat request is a pure immunity-cache hit — the whole report
    // is memoized, so not even the cell cache is consulted again.
    let again = session
        .run(&ImmunityRequest::certify(StdCellKind::Nand(2)))
        .unwrap();
    assert!(again.immune);
    assert_eq!(session.stats().immunity.hits, 1);
}

#[test]
fn flow_through_the_session() {
    let session = Session::new();
    let cmos = session
        .run(&FlowRequest::cmos(FlowSource::FullAdder))
        .unwrap();
    let s1 = session
        .run(&FlowRequest::cnfet(FlowSource::FullAdder, Scheme::Scheme1))
        .unwrap();
    let s2 = session
        .run(&FlowRequest::cnfet(FlowSource::FullAdder, Scheme::Scheme2).with_gds())
        .unwrap();

    assert!(cmos.placement.area_l2 > s1.placement.area_l2);
    assert!(s1.placement.area_l2 > s2.placement.area_l2);
    assert!(s2.gds.as_ref().is_some_and(|g| !g.is_empty()));
    assert!(cmos.gds.is_none() && s1.gds.is_none());
    assert_eq!(session.stats().flows.requests(), 3);
    // Scheme-1 library was built once and shared by the CMOS baseline run.
    assert_eq!(session.stats().libraries.misses, 2);
}

#[test]
fn flow_rejects_unknown_cells() {
    let src = r#"
module bad (input a, output y);
  NAND2_X7 u0 (.A(a), .B(a), .OUT(y));
endmodule
"#;
    let err = Session::new()
        .run(&FlowRequest::cnfet(
            FlowSource::Verilog(src.to_string()),
            Scheme::Scheme1,
        ))
        .unwrap_err();
    assert!(matches!(err, CnfetError::MissingCell(name) if name == "NAND2_X7"));
}

#[test]
fn sweep_is_memoized_whole_and_per_corner() {
    // The composite request memoizes at both granularities in the
    // `Sweeps` class: a repeated sweep is ONE pure sweep-key hit (no
    // corner re-dispatch), and an overlapping sweep reuses every shared
    // corner row and only executes the corners it adds.
    let session = Session::new();
    let small = SweepRequest::new([StdCellKind::Inv])
        .grid(VariationGrid::nominal().tube_counts([26, 10]))
        .metrics(SweepMetrics::IMMUNITY)
        .mc(cnfet::immunity::McOptions {
            tubes: 100,
            ..Default::default()
        });

    let first = session.run(&small).unwrap();
    assert_eq!(first.rows.len(), 2);
    let stats = session.stats();
    assert_eq!(
        stats.sweeps.misses, 3,
        "one sweep key + two corner keys executed"
    );
    assert_eq!(stats.sweeps.hits, 0);

    // Pure whole-sweep hit: same Arc, no new corner work.
    let again = session.run(&small).unwrap();
    assert!(Arc::ptr_eq(&first, &again));
    let stats = session.stats();
    assert_eq!(stats.sweeps.hits, 1);
    assert_eq!(stats.sweeps.misses, 3);

    // Overlapping sweep: 2 shared corners hit, 2 fresh corners miss
    // (plus the new sweep key itself).
    let wider = small
        .clone()
        .grid(VariationGrid::nominal().tube_counts([26, 10, 8, 6]));
    let report = session.run(&wider).unwrap();
    assert_eq!(report.rows.len(), 4);
    let stats = session.stats();
    assert_eq!(stats.sweeps.hits, 3, "two corner reuses + earlier hit");
    assert_eq!(stats.sweeps.misses, 6, "new sweep key + two new corners");
    // The swept cell itself was generated exactly once.
    assert_eq!(stats.cells.misses, 1);
}

#[test]
fn sweep_report_metrics_are_consistent() {
    let session = Session::new();
    let report = session
        .run(
            &SweepRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)])
                .grid(VariationGrid::nominal().metallic_fractions([0.0, 0.5]))
                .mc(cnfet::immunity::McOptions {
                    tubes: 150,
                    ..Default::default()
                })
                .loads([0.5e-15, 2e-15]),
        )
        .unwrap();

    assert_eq!(report.cells, 2);
    assert_eq!(report.corners.len(), 2);
    assert_eq!(report.rows.len(), 4);

    // Clean corner of the immune layouts: perfect combined yield, and a
    // full liberty/NLDM view per row.
    let clean = report.row(0, 0);
    assert_eq!(clean.immune, Some(true));
    assert_eq!(clean.yield_frac(), Some(1.0));
    assert!(clean.delay_s().unwrap() > 0.0);
    assert!(clean.energy_j().unwrap() > 0.0);
    let liberty = clean.liberty.as_deref().unwrap();
    assert!(liberty.starts_with("cell ("), "{liberty}");
    assert!(liberty.contains("function : \"!A\""), "{liberty}");
    assert!(liberty.contains("index_1"));

    // The dirty corner must lose yield: surviving metallic tubes short
    // devices regardless of layout immunity.
    let dirty = report.row(0, 1);
    assert!(dirty.yield_frac().unwrap() < clean.yield_frac().unwrap());

    // Summaries rank the clean corner best, the metallic corner worst.
    assert_eq!(report.best_corner.as_ref().unwrap().corner_index, 0);
    assert_eq!(report.worst_corner.as_ref().unwrap().corner_index, 1);
    assert!(!report.pareto.is_empty());
    for &i in &report.pareto {
        assert!(i < report.rows.len());
    }
}

#[test]
fn sweep_propagates_cell_generation_errors() {
    // A sweep over an unrealizable cell must surface the generation
    // error, not hang or panic.
    let session = Session::new();
    // The old etched style cannot realize nested branches, so a fingered
    // AOI21 under it is a guaranteed GenerateError.
    let bad = CellRequest::new(StdCellKind::Aoi21)
        .strength(2)
        .options(GenerateOptions {
            style: Style::OldEtched,
            ..GenerateOptions::default()
        });
    let err = session
        .run(
            &SweepRequest::new([bad]).metrics(SweepMetrics::IMMUNITY).mc(
                cnfet::immunity::McOptions {
                    tubes: 10,
                    ..Default::default()
                },
            ),
        )
        .unwrap_err();
    assert!(matches!(err, CnfetError::Generate(_)), "{err}");
}

#[test]
fn errors_unify_under_cnfet_error() {
    let session = Session::new();

    // Layout generation failure → CnfetError::Generate. Matched sizing
    // makes `A*(B + C*D)` a non-uniform series, which rows cannot realize.
    let mut vars = cnfet::logic::VarTable::new();
    let expr = cnfet::logic::Expr::parse_with("A*(B+C*D)", &mut vars).unwrap();
    let pdn = cnfet::logic::SpNetwork::from_expr(&expr).unwrap();
    let pun = pdn.dual();
    let err = session
        .generate_custom(
            "nonuniform",
            pdn,
            pun,
            vars,
            Some(GenerateOptions {
                sizing: Sizing::Matched { base_lambda: 4 },
                ..GenerateOptions::default()
            }),
        )
        .unwrap_err();
    assert!(matches!(err, CnfetError::Generate(_)), "{err}");

    // Verilog failure → CnfetError::Verilog.
    let err = session
        .run(&FlowRequest::cnfet(
            FlowSource::Verilog("not verilog at all".into()),
            Scheme::Scheme1,
        ))
        .unwrap_err();
    assert!(matches!(err, CnfetError::Verilog(_)), "{err}");

    // Crate-level errors convert via `From` (the `#[from]`-style ladder).
    let sim: CnfetError = cnfet::mna::MnaError::Singular.into();
    assert!(sim.to_string().contains("singular"));
    let gds: CnfetError = cnfet::geom::GdsError::Truncated.into();
    assert!(matches!(gds, CnfetError::Gds(_)));
    let net: CnfetError = cnfet::logic::network::NetworkError::NotPositive.into();
    assert!(matches!(net, CnfetError::Network(_)));
}

#[test]
fn optimize_memoizes_trajectory_and_reuses_candidates_on_retarget() {
    // The search memoizes its whole trajectory (keyed on the target) in
    // the `Optimizations` class and each candidate's sweep (target-free)
    // in the `Sweeps` class. A re-targeted search therefore misses only
    // its new trajectory key — every candidate sweep and every corner
    // under it comes back from the cache.
    let session = Session::new();
    let first = session.run(&small_optimize()).unwrap();
    assert_eq!(first.candidates.len(), 4, "2 tubes + 1 pitch + 1 metallic");
    assert!(first.best_index.is_some());

    let after_first = session.stats();
    assert_eq!(after_first.optimizations.misses, 1, "one trajectory key");
    assert_eq!(after_first.optimizations.hits, 0);
    // The coordinate revisited by the pitch and metallic rounds is a
    // sweep-cache hit, not a third or fourth sweep execution.
    assert_eq!(after_first.sweeps.hits, 2, "two revisited candidates");
    assert_eq!(
        after_first.sweeps.misses, 4,
        "two distinct candidate sweeps and their one corner each"
    );
    let sweep_misses = after_first.sweeps.misses;
    let cell_misses = after_first.cells.misses;

    // Identical re-run: one pure trajectory hit, nothing re-dispatched.
    let again = session.run(&small_optimize()).unwrap();
    assert!(Arc::ptr_eq(&first, &again));
    let stats = session.stats();
    assert_eq!(stats.optimizations.hits, 1);
    assert_eq!(stats.optimizations.misses, 1);
    assert_eq!(stats.sweeps.hits, after_first.sweeps.hits);
    assert_eq!(stats.sweeps.misses, sweep_misses);

    // Widened target: a fresh trajectory, but every candidate sweep is
    // target-free — only the new trajectory key misses, and no sweep
    // corner (or cell) executes again.
    let widened = small_optimize().target(OptimizeTarget::new().min_yield(0.5));
    let retargeted = session.run(&widened).unwrap();
    assert_eq!(retargeted.candidates.len(), first.candidates.len());
    let stats = session.stats();
    assert_eq!(
        stats.optimizations.misses, 2,
        "only the widened trajectory key is new"
    );
    assert_eq!(stats.optimizations.hits, 1);
    assert_eq!(
        stats.sweeps.hits,
        after_first.sweeps.hits + 4,
        "every candidate sweep is a hit"
    );
    assert_eq!(stats.sweeps.misses, sweep_misses, "no corner re-executes");
    assert_eq!(stats.cells.misses, cell_misses, "no layout regenerates");
}

#[test]
fn optimize_report_is_deterministic_across_execution_shapes() {
    // One fixed-seed search, rendered byte-identically regardless of
    // pool shape (1 worker, 2 workers, the CNFET_TEST_WORKERS default),
    // memoization (cache disabled entirely), and submission path
    // (synchronous run vs a submitted job).
    let request = small_optimize()
        .grid(
            VariationGrid::nominal()
                .tube_counts([6, 26])
                .pitch_scales([0.9, 1.0])
                .seeds([7]),
        )
        .passes(2);
    let reference = Session::new().run(&request).unwrap().render();
    assert!(!reference.is_empty());

    for workers in [1usize, 2, 0] {
        let session = SessionBuilder::new().batch_workers(workers).build();
        let report = session.run(&request).unwrap();
        assert_eq!(report.render(), reference, "workers = {workers}");
    }

    let uncached = SessionBuilder::new().cache_capacity(0).build();
    assert_eq!(uncached.run(&request).unwrap().render(), reference);

    let session = Session::new();
    let submitted = session.submit(request.clone()).wait().unwrap();
    assert_eq!(submitted.render(), reference);
}

#[test]
fn clear_cache_forgets_cells_but_keeps_counters() {
    let session = Session::new();
    let req = CellRequest::new(StdCellKind::Inv);
    session.run(&req).unwrap();
    session.clear_cache();
    assert_eq!(session.cached_cells(), 0);
    let again = session.run(&req).unwrap();
    assert!(!again.cached);
    assert_eq!(session.stats().cells.misses, 2);
}

#[test]
fn session_clones_share_the_engine() {
    let session = Session::new();
    let clone = session.clone();
    session.run(&CellRequest::new(StdCellKind::Inv)).unwrap();
    let via_clone = clone.run(&CellRequest::new(StdCellKind::Inv)).unwrap();
    assert!(via_clone.cached, "clones share one cache");
    assert_eq!(clone.stats().cells.requests(), 2);
}

#[test]
fn oversized_transients_fail_typed_before_any_engine_runs() {
    // 1e15 and 1e300 steps of waveform cannot be allocated; the request
    // is refused before the deck (here malformed) is even parsed.
    let session = Session::new();
    for dt in [1e-15, 1e-300] {
        let request = cnfet::TranRequest::new("V1 in 0 )(\n.end", dt, 1.0);
        match session.run(&request) {
            Err(CnfetError::Deck(e)) => assert!(
                e.message.contains("t_stop") && e.message.contains("steps"),
                "{e}"
            ),
            other => panic!("dt {dt:e}: expected a deck error, got {other:?}"),
        }
    }
    // At the ceiling itself the run is accepted (and cheap: linear deck).
    let deck = "V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1p\n.end";
    let steps = 2_000;
    assert!(steps <= cnfet::mna::MAX_TRAN_STEPS);
    let result = session
        .run(&cnfet::TranRequest::new(deck, 1e-12, steps as f64 * 1e-12))
        .unwrap();
    assert_eq!(result.time.len(), steps + 1);
}

/// A chain of `resistors` 1 Ω resistors from a 1 V source: a deck with
/// `resistors + 2` unknowns.
fn resistor_chain(resistors: usize) -> String {
    let mut deck = String::from("V1 n0 0 DC 1\n");
    for i in 0..resistors {
        deck.push_str(&format!("R{i} n{i} n{} 1\n", i + 1));
    }
    deck + ".end"
}

/// A deck past the dense solver's dimension bound, and a four-unknown
/// deck whose million-step waveform is past the sample bound, are both
/// refused as deck errors before the engine allocates either buffer.
#[test]
fn oversized_decks_fail_typed_before_allocating() {
    let session = Session::new();
    let wide = resistor_chain(cnfet::mna::MAX_DENSE_DIM);
    let long = "V1 in 0 DC 1\nR1 in a 1k\nR2 a b 1k\nC1 b 0 1p\n.end";
    let steps = cnfet::mna::TranSpec::new(1e-12, 0.9e-6).nominal_steps();
    assert!((steps.unwrap() + 1) * 5 > cnfet::mna::MAX_WAVEFORM_SAMPLES);
    for (deck, t_stop, names) in [
        (wide.as_str(), 1e-11, "unknowns"),
        (long, 0.9e-6, "waveform"),
    ] {
        match session.run(&cnfet::TranRequest::new(deck, 1e-12, t_stop)) {
            Err(CnfetError::Deck(e)) => assert!(e.message.contains(names), "{e}"),
            other => panic!("expected a deck error naming {names}, got {other:?}"),
        }
    }
    // A deck at the bound itself runs.
    let result = session
        .run(
            &cnfet::TranRequest::new(resistor_chain(cnfet::mna::MAX_DENSE_DIM - 2), 1e-12, 1e-11)
                .probes(["n1"]),
        )
        .unwrap();
    assert_eq!(result.time.len(), 11);
}

/// A flow netlist whose transistor expansion is past the dense solver's
/// dimension bound fails typed before the engine allocates anything.
#[test]
fn oversized_flow_sims_fail_typed_before_the_engine_is_built() {
    match Session::new().run(&inverter_chain_flow(1100)) {
        Err(CnfetError::Sim(cnfet::mna::MnaError::TooLarge { dim })) => {
            assert!(dim > cnfet::mna::MAX_DENSE_DIM, "{dim}");
        }
        other => panic!("expected a too-large simulation, got {other:?}"),
    }
}

/// A simulated CNFET flow over a chain of `n` inverters: about one MNA
/// unknown per inverter.
fn inverter_chain_flow(n: usize) -> FlowRequest {
    let mut src = String::from("module chain (input n0, output y);\n");
    for i in 0..n {
        let out = if i + 1 == n {
            "y".to_string()
        } else {
            format!("n{}", i + 1)
        };
        src.push_str(&format!("  INV_X1 u{i} (.A(n{i}), .OUT({out}));\n"));
    }
    src.push_str("endmodule\n");
    FlowRequest::cnfet(FlowSource::Verilog(src), Scheme::Scheme1).simulate(cnfet::SimSpec {
        toggle_in: "n0".into(),
        ties: Default::default(),
        watch_out: "y".into(),
    })
}

/// A NaN, infinite or negative load is an invalid request on every
/// request that carries loads, instead of a panic at the capacitor
/// stamp; the two zeros share one cache entry.
#[test]
fn bad_loads_are_invalid_requests_and_signed_zero_loads_share_an_entry() {
    let session = Session::new();
    let field_of = |result: Result<(), CnfetError>| match result {
        Err(CnfetError::InvalidRequest { field, .. }) => field,
        other => panic!("expected an invalid request, got {other:?}"),
    };
    let corner = |load: f64| cnfet::SweepCornerRequest {
        cell: CellRequest::new(StdCellKind::Inv),
        corner: cnfet::VariationCorner::nominal(),
        metrics: SweepMetrics::TIMING,
        mc: Default::default(),
        loads_f: vec![1e-15, load],
    };
    for bad in [-1e-15, f64::NAN, f64::INFINITY] {
        let request = corner(bad);
        assert_eq!(field_of(request.validate()), "loads_f[1]");
        assert!(request.cache_key(&session).is_none());
        assert_eq!(
            field_of(session.run(&request).map(drop)),
            "loads_f[1]",
            "the corner never reaches characterization"
        );

        let sweep = SweepRequest::new([StdCellKind::Inv])
            .metrics(SweepMetrics::TIMING)
            .loads([bad]);
        assert!(sweep.cache_key(&session).is_none());
        assert_eq!(field_of(session.run(&sweep).map(drop)), "loads_f[0]");

        let search = small_optimize().loads([bad]);
        assert!(search.cache_key(&session).is_none());
        assert_eq!(field_of(session.run(&search).map(drop)), "loads_f[0]");

        let candidate = cnfet::OptimizeCandidateRequest {
            cells: vec![CellRequest::new(StdCellKind::Inv)],
            tubes_per_4lambda: 26,
            pitch_scale: 1.0,
            metallic_fraction: 0.0,
            seeds: vec![7],
            metrics: SweepMetrics::TIMING,
            mc: Default::default(),
            loads_f: vec![bad],
        };
        assert_eq!(field_of(session.run(&candidate).map(drop)), "loads_f[0]");
    }
    let stats = session.stats();
    assert_eq!(stats.sweeps.requests(), 0, "nothing was cached or counted");
    assert_eq!(stats.optimizations.requests(), 0);

    assert_eq!(
        corner(0.0).cache_key(&session),
        corner(-0.0).cache_key(&session)
    );
    let sweep = |load: f64| SweepRequest::new([StdCellKind::Inv]).loads([load]);
    assert_eq!(
        sweep(0.0).cache_key(&session),
        sweep(-0.0).cache_key(&session)
    );
}

/// Oversized composites are refused before a single child is allocated
/// or enqueued: a trillion-die lot, a two-million-row sweep and a search
/// of 3 × u32::MAX candidates each return `InvalidRequest`.
#[test]
fn composites_over_max_fanout_are_invalid_before_fan_out() {
    let session = Session::new();
    let axis = |n: u32| (0..n).map(f64::from).collect::<Vec<_>>();
    let big_grid = VariationGrid::nominal()
        .tube_counts(1..=128)
        .pitch_scales(axis(128))
        .metallic_fractions(axis(128));
    let field_of = |result: Result<(), CnfetError>| match result {
        Err(CnfetError::InvalidRequest { field, .. }) => field,
        other => panic!("expected an invalid request, got {other:?}"),
    };
    let lot = cnfet::RepairRequest::new([StdCellKind::Inv]).dies(1_000_000_000_000);
    assert_eq!(field_of(session.run(&lot).map(drop)), "dies");
    let sweep = SweepRequest::new([StdCellKind::Inv]).grid(big_grid);
    assert!(sweep.row_count() > cnfet::MAX_FANOUT);
    assert_eq!(field_of(session.run(&sweep).map(drop)), "grid");
    let search = OptimizeRequest::new([StdCellKind::Inv]).passes(u32::MAX);
    assert_eq!(field_of(session.run(&search).map(drop)), "passes");

    let stats = session.stats();
    assert_eq!(stats.submitted, 0, "nothing reached the pool");
    assert_eq!(stats.repairs.requests() + stats.sweeps.requests(), 0);
}

/// Tube counts past their bounds are invalid requests that get no key
/// and sample nothing: `mc.tubes` on every request that runs the
/// Monte-Carlo engine, `params.tubes_per_site` on lots and dies, both
/// per analysis or site and over the whole request's work.
#[test]
fn tube_counts_past_their_bounds_are_invalid_before_any_work() {
    use cnfet::immunity::McOptions;
    use cnfet::{MAX_MC_TUBES, MAX_TOTAL_TUBES, MAX_TUBES_PER_SITE};
    let session = Session::new();
    let field_of = |result: Result<(), CnfetError>| match result {
        Err(CnfetError::InvalidRequest { field, .. }) => field,
        other => panic!("expected an invalid request, got {other:?}"),
    };
    let mc = |tubes: usize| McOptions {
        tubes,
        ..McOptions::default()
    };
    let monte_carlo = |tubes| ImmunityRequest::monte_carlo(StdCellKind::Inv, mc(tubes));
    assert!(monte_carlo(MAX_MC_TUBES).validate().is_ok());
    assert!(ImmunityRequest::certify(StdCellKind::Inv)
        .validate()
        .is_ok());

    let over = MAX_MC_TUBES + 1;
    let both = ImmunityRequest {
        cell: StdCellKind::Inv.into(),
        engine: ImmunityEngine::Both(mc(usize::MAX)),
    };
    for request in [monte_carlo(over), both] {
        assert_eq!(field_of(request.validate()), "mc.tubes");
        assert!(request.cache_key(&session).is_none());
        assert_eq!(field_of(session.run(&request).map(drop)), "mc.tubes");
    }
    let sweep = SweepRequest::new([StdCellKind::Inv]).mc(mc(over));
    assert!(sweep.cache_key(&session).is_none());
    assert_eq!(field_of(session.run(&sweep).map(drop)), "mc.tubes");
    let corner = cnfet::SweepCornerRequest {
        cell: StdCellKind::Inv.into(),
        corner: cnfet::VariationCorner::nominal(),
        metrics: SweepMetrics::IMMUNITY,
        mc: mc(over),
        loads_f: vec![],
    };
    assert!(corner.cache_key(&session).is_none());
    assert_eq!(field_of(session.run(&corner).map(drop)), "mc.tubes");
    let search = small_optimize().mc(mc(over));
    assert!(search.cache_key(&session).is_none());
    assert_eq!(field_of(session.run(&search).map(drop)), "mc.tubes");
    let candidate = cnfet::OptimizeCandidateRequest {
        cells: vec![StdCellKind::Inv.into()],
        tubes_per_4lambda: 26,
        pitch_scale: 1.0,
        metallic_fraction: 0.0,
        seeds: vec![7],
        metrics: SweepMetrics::IMMUNITY,
        mc: mc(over),
        loads_f: vec![],
    };
    assert_eq!(field_of(session.run(&candidate).map(drop)), "mc.tubes");

    // Each analysis within its bound, 17 of them past the total: a sweep,
    // a search and a candidate over 17 or more rows of MAX_MC_TUBES. The
    // same requests without the immunity metric sample nothing and pass.
    const { assert!(17 * MAX_MC_TUBES > MAX_TOTAL_TUBES) };
    let seeds = || VariationGrid::nominal().seeds(0..17);
    let sweep = SweepRequest::new([StdCellKind::Inv])
        .grid(seeds())
        .mc(mc(MAX_MC_TUBES));
    let search = small_optimize()
        .grid(seeds().tube_counts([6, 26]))
        .mc(mc(MAX_MC_TUBES));
    let candidate = cnfet::OptimizeCandidateRequest {
        seeds: (0..17).collect(),
        mc: mc(MAX_MC_TUBES),
        ..candidate
    };
    let timing_only = SweepMetrics::TIMING;
    assert!(sweep.clone().metrics(timing_only).validate().is_ok());
    assert!(search.clone().metrics(timing_only).validate().is_ok());
    let timed_candidate = cnfet::OptimizeCandidateRequest {
        metrics: timing_only,
        loads_f: vec![1e-15],
        ..candidate.clone()
    };
    assert!(timed_candidate.validate().is_ok());
    assert!(sweep.cache_key(&session).is_none());
    assert_eq!(field_of(session.run(&sweep).map(drop)), "mc.tubes");
    assert!(search.cache_key(&session).is_none());
    assert_eq!(field_of(session.run(&search).map(drop)), "mc.tubes");
    assert_eq!(field_of(candidate.validate()), "mc.tubes");
    assert_eq!(field_of(session.run(&candidate).map(drop)), "mc.tubes");

    let params = |tubes_per_site| cnfet::repair::DefectParams {
        tubes_per_site,
        ..Default::default()
    };
    let lot = |tubes| cnfet::RepairRequest::new([StdCellKind::Inv]).params(params(tubes));
    assert!(lot(MAX_TUBES_PER_SITE).validate().is_ok());
    for tubes in [MAX_TUBES_PER_SITE + 1, u32::MAX] {
        let lot = lot(tubes);
        assert_eq!(field_of(lot.validate()), "params.tubes_per_site");
        assert!(lot.cache_key(&session).is_none());
        assert_eq!(
            field_of(session.run(&lot).map(drop)),
            "params.tubes_per_site"
        );
        let die = cnfet::DieRequest {
            cells: lot.cells.clone(),
            die: 0,
            base_seed: lot.base_seed,
            spares: lot.spares,
            params: lot.params,
            solver: lot.solver,
            adjacent: vec![],
        };
        assert!(die.cache_key(&session).is_none());
        assert_eq!(
            field_of(session.run(&die).map(drop)),
            "params.tubes_per_site"
        );
    }

    // A 200,000-die lot of the benchmark's shape (three cells, two
    // spares, eight tubes per site) tests 24 million tubes; one die with
    // two million spares samples 16.8 million.
    let cells = [StdCellKind::Inv, StdCellKind::Nand(2), StdCellKind::Nor(2)];
    let lot = cnfet::RepairRequest::new(cells).spares(2).dies(200_000);
    let die = cnfet::DieRequest {
        cells: vec![StdCellKind::Inv.into()],
        die: 0,
        base_seed: lot.base_seed,
        spares: 1 << 21,
        params: lot.params,
        solver: lot.solver,
        adjacent: vec![],
    };
    assert!(lot.clone().dies(1_000).validate().is_ok());
    assert_eq!(field_of(lot.validate()), "params.tubes_per_site");
    assert!(lot.cache_key(&session).is_none());
    assert_eq!(
        field_of(session.run(&lot).map(drop)),
        "params.tubes_per_site"
    );
    assert!(die.cache_key(&session).is_none());
    assert_eq!(
        field_of(session.run(&die).map(drop)),
        "params.tubes_per_site"
    );

    let stats = session.stats();
    assert_eq!(
        stats.requests(),
        0,
        "nothing was cached, counted or generated"
    );
    assert_eq!(stats.submitted, 0, "nothing reached the pool");
}

/// Timing or liberty metrics over an empty load list would measure
/// nothing yet report an energy of zero: every request that
/// characterizes refuses them, naming `loads_f`. Immunity-only sweeps
/// read no loads and still take an empty list.
#[test]
fn characterizing_requests_refuse_an_empty_load_list() {
    let session = Session::new();
    let field_of = |result: Result<(), CnfetError>| match result {
        Err(CnfetError::InvalidRequest { field, .. }) => field,
        other => panic!("expected an invalid request, got {other:?}"),
    };
    let no_loads: [f64; 0] = [];
    for metrics in [
        SweepMetrics::TIMING,
        SweepMetrics::ALL,
        SweepMetrics {
            liberty: true,
            ..SweepMetrics::IMMUNITY
        },
    ] {
        let sweep = SweepRequest::new([StdCellKind::Inv])
            .metrics(metrics)
            .loads(no_loads);
        assert_eq!(field_of(sweep.validate()), "loads_f");
        assert!(sweep.cache_key(&session).is_none());
        assert_eq!(field_of(session.run(&sweep).map(drop)), "loads_f");

        let corner = cnfet::SweepCornerRequest {
            cell: StdCellKind::Inv.into(),
            corner: cnfet::VariationCorner::nominal(),
            metrics,
            mc: Default::default(),
            loads_f: vec![],
        };
        assert!(corner.cache_key(&session).is_none());
        assert_eq!(field_of(session.run(&corner).map(drop)), "loads_f");

        let search = small_optimize().metrics(metrics).loads(no_loads);
        assert!(search.cache_key(&session).is_none());
        assert_eq!(field_of(session.run(&search).map(drop)), "loads_f");

        let candidate = cnfet::OptimizeCandidateRequest {
            cells: vec![StdCellKind::Inv.into()],
            tubes_per_4lambda: 26,
            pitch_scale: 1.0,
            metallic_fraction: 0.0,
            seeds: vec![7],
            metrics,
            mc: Default::default(),
            loads_f: vec![],
        };
        assert_eq!(field_of(candidate.validate()), "loads_f");
    }
    let stats = session.stats();
    assert_eq!(
        stats.requests(),
        0,
        "nothing was cached, counted or generated"
    );

    let immunity_only = SweepRequest::new([StdCellKind::Inv])
        .metrics(SweepMetrics::IMMUNITY)
        .mc(cnfet::immunity::McOptions {
            tubes: 20,
            ..Default::default()
        })
        .loads(no_loads);
    assert!(immunity_only.cache_key(&session).is_some());
    let report = session.run(&immunity_only).unwrap();
    assert_eq!(report.rows[0].energy_j(), None);
    assert!(report.rows[0].yield_frac().is_some());
}
