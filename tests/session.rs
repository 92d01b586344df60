//! Integration tests of the `cnfet::Session` engine: generic `run`
//! cache hit/miss semantics, batch-vs-serial equivalence, library/flow
//! memoization, composite sweep memoization, and the unified error
//! hierarchy.

use cnfet::core::{GenerateOptions, Scheme, Sizing, StdCellKind, Style};
use cnfet::{
    CellRequest, CnfetError, FlowRequest, FlowSource, ImmunityEngine, ImmunityRequest,
    LibraryRequest, OptimizeRequest, OptimizeTarget, RequestClass, Session, SessionBuilder,
    SessionRequest, SweepMetrics, SweepRequest, VariationGrid,
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

/// `submitted` counts every job enqueued on the pool: one per
/// `run_batch` request, and one per sub-request a composite fans out.
#[test]
fn submitted_counts_every_pool_job() {
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
        "a k-row sweep enqueues k corner jobs"
    );
    assert_eq!(swept.batches, after.batches, "composites are not batches");
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
    // The search memoizes at BOTH granularities in the `Optimizations`
    // class: the whole trajectory (keyed on the target) and every
    // candidate outcome (target-free). A re-targeted search therefore
    // misses only its new trajectory key — every measured candidate and
    // every underlying sweep corner comes back from the cache.
    let session = Session::new();
    let first = session.run(&small_optimize()).unwrap();
    assert_eq!(first.candidates.len(), 4, "2 tubes + 1 pitch + 1 metallic");
    assert!(first.best_index.is_some());

    let after_first = session.stats();
    // The coordinate revisited by the pitch and metallic rounds is a
    // candidate-cache hit, not a fourth sweep execution.
    assert_eq!(
        after_first.optimizations.misses, 3,
        "one trajectory key + two distinct candidates"
    );
    assert_eq!(
        after_first.optimizations.hits, 2,
        "two revisited candidates"
    );
    let sweep_misses = after_first.sweeps.misses;
    let cell_misses = after_first.cells.misses;

    // Identical re-run: one pure trajectory hit, nothing re-dispatched.
    let again = session.run(&small_optimize()).unwrap();
    assert!(Arc::ptr_eq(&first, &again));
    let stats = session.stats();
    assert_eq!(stats.optimizations.hits, 3);
    assert_eq!(stats.optimizations.misses, 3);
    assert_eq!(stats.sweeps.misses, sweep_misses);

    // Widened target: a fresh trajectory, but every candidate outcome is
    // target-free — only the new trajectory key misses, and no sweep
    // corner (or cell) executes again.
    let widened = small_optimize().target(OptimizeTarget::new().min_yield(0.5));
    let retargeted = session.run(&widened).unwrap();
    assert_eq!(retargeted.candidates.len(), first.candidates.len());
    let stats = session.stats();
    assert_eq!(
        stats.optimizations.misses, 4,
        "only the widened trajectory key is new"
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
