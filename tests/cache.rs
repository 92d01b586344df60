//! Integration tests of the sharded session cache (bounded capacity, LRU
//! eviction, disable switch, per-shard stats, uniform coverage of every
//! request class) and `run_batch` on the session's job pool under
//! skewed workloads.

use cnfet::core::{GenerateOptions, Scheme, StdCellKind};
use cnfet::logic::AdderKind;
use cnfet::{
    CellRequest, FlowRequest, FlowSource, ImmunityRequest, LibraryRequest, MacroRequest,
    RequestClass, RequestKind, Session, SessionBuilder, SessionRequest,
};
use std::sync::Arc;

/// A single-shard session is an exact LRU: touching an entry protects it
/// from the next eviction.
#[test]
fn lru_evicts_least_recently_used_cell() {
    let session = SessionBuilder::new()
        .cache_shards(1)
        .cache_capacity(2)
        .build();
    let a = CellRequest::new(StdCellKind::Inv);
    let b = CellRequest::new(StdCellKind::Nand(2));
    let c = CellRequest::new(StdCellKind::Nand(3));

    session.run(&a).unwrap();
    session.run(&b).unwrap();
    // Touch A so B becomes least-recently-used, then overflow with C.
    assert!(session.run(&a).unwrap().cached);
    session.run(&c).unwrap();

    assert_eq!(session.cached_cells(), 2, "capacity bound holds");
    assert_eq!(session.stats().cells.evictions, 1);
    assert!(session.run(&a).unwrap().cached, "A was protected");
    assert!(session.run(&c).unwrap().cached, "C is resident");
    assert!(
        !session.run(&b).unwrap().cached,
        "B was the LRU entry and must regenerate"
    );
}

#[test]
fn capacity_zero_disables_caching() {
    let session = SessionBuilder::new().cache_capacity(0).build();
    let req = CellRequest::new(StdCellKind::Nand(3));

    let first = session.run(&req).unwrap();
    let second = session.run(&req).unwrap();
    assert!(!first.cached && !second.cached, "nothing is ever cached");
    assert!(
        !Arc::ptr_eq(&first.cell, &second.cell),
        "each request built its own layout"
    );
    assert_eq!(session.cached_cells(), 0);

    let stats = session.stats();
    assert_eq!(stats.cells.misses, 2);
    assert_eq!(stats.cells.hits, 0);
    assert_eq!(stats.cells.evictions, 0, "nothing stored, nothing evicted");
}

#[test]
fn eviction_counters_aggregate_over_shards() {
    // 4 λ-width variants × StdCellKind::ALL blow well past capacity 6.
    let session = SessionBuilder::new()
        .cache_shards(4)
        .cache_capacity(6)
        .build();
    let mut generated = 0u64;
    for width in [4u32, 6, 8, 10] {
        for kind in StdCellKind::ALL {
            session
                .run(&CellRequest::new(kind).options(GenerateOptions {
                    sizing: cnfet::core::Sizing::Uniform {
                        width_lambda: width as i64,
                    },
                    ..GenerateOptions::default()
                }))
                .unwrap();
            generated += 1;
        }
    }

    let cache = session.cache_stats(RequestClass::Cell);
    assert_eq!(cache.capacity, 6);
    assert!(
        cache.entries <= 6 + cache.shards.len(),
        "bound is per-shard"
    );
    assert_eq!(cache.misses, generated);
    assert!(cache.evictions > 0);
    // Aggregates are exactly the per-shard sums.
    assert_eq!(
        cache.evictions,
        cache.shards.iter().map(|s| s.evictions).sum::<u64>()
    );
    assert_eq!(
        cache.entries,
        cache.shards.iter().map(|s| s.entries).sum::<usize>()
    );
    assert_eq!(session.stats().cells.evictions, cache.evictions);
}

/// A cost-skewed batch (cheap inverters + heavy high-strength gates) on
/// pools of 1, 2 and 4 workers must match serial results exactly, in
/// order, running every request exactly once.
#[test]
fn work_stealing_batch_matches_serial_under_skew() {
    let mut requests: Vec<CellRequest> = (0..40)
        .map(|i| CellRequest::new(StdCellKind::Inv).named(format!("INV_S_{i}")))
        .collect();
    for kind in [StdCellKind::Aoi22, StdCellKind::Oai21, StdCellKind::Nand(3)] {
        for strength in [7, 9] {
            requests.push(CellRequest::new(kind).strength(strength));
        }
    }
    // Heavy tasks first: the classic worst case for fixed chunking.
    requests.reverse();

    let serial_session = Session::new();
    let serial: Vec<_> = requests
        .iter()
        .map(|r| serial_session.run(r).unwrap())
        .collect();

    for workers in [1, 2, 4] {
        let batch_session = SessionBuilder::new().batch_workers(workers).build();
        let batch: Vec<_> = batch_session
            .run_batch(&requests)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();

        assert_eq!(serial.len(), batch.len(), "{workers} workers");
        for (s, b) in serial.iter().zip(&batch) {
            assert_eq!(s.cell.name, b.cell.name, "results keep request order");
            assert_eq!(s.cell.active_area_l2(), b.cell.active_area_l2());
            assert_eq!(s.cell.width_lambda, b.cell.width_lambda);
        }
        let stats = batch_session.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(
            stats.cells.requests(),
            requests.len() as u64,
            "every request ran exactly once ({workers} workers)"
        );
        assert_eq!(
            stats.cells.misses,
            requests.len() as u64,
            "every distinct request generated exactly once ({workers} workers)"
        );
    }
}

/// Single-flight must hold on a forced multi-worker pool: a batch of
/// duplicates runs one generation even when four workers race for it.
#[test]
fn forced_workers_keep_single_flight() {
    let session = SessionBuilder::new().batch_workers(4).build();
    let requests = vec![CellRequest::new(StdCellKind::Aoi22); 16];
    let results: Vec<_> = session
        .run_batch(&requests)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();

    let stats = session.stats();
    assert_eq!(stats.cells.misses, 1, "exactly one layout generation");
    assert_eq!(stats.cells.hits, 15);
    let first = &results[0].cell;
    assert!(results.iter().all(|r| Arc::ptr_eq(&r.cell, first)));
}

/// One hot key under fire: four threads hammer one hot cell while a
/// writer forces eviction churn through the same single shard. Every
/// read must come back untorn, the counters must stay coherent, and once
/// the writer stops, the resident hot key must serve hits.
#[test]
fn hot_key_hits_survive_eviction_churn() {
    const HAMMERS: usize = 4;
    const ROUNDS: usize = 200;
    let session = SessionBuilder::new()
        .cache_shards(1)
        .cache_capacity(2)
        .batch_workers(HAMMERS)
        .build();
    let hot = CellRequest::new(StdCellKind::Inv);
    let reference = session.run(&hot).unwrap().cell;
    let mut issued = 1u64;

    // Distinct λ-width variants: each insert lands in the one shard, so
    // the writer keeps evicting while the hammers read.
    let churn: Vec<CellRequest> = [4i64, 6, 8, 10]
        .into_iter()
        .flat_map(|w| {
            [StdCellKind::Nand(2), StdCellKind::Nor(2)].map(|kind| {
                CellRequest::new(kind).options(GenerateOptions {
                    sizing: cnfet::core::Sizing::Uniform { width_lambda: w },
                    ..GenerateOptions::default()
                })
            })
        })
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..HAMMERS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    let result = session.run(&hot).unwrap();
                    // Torn-read check: a half-published entry would hand
                    // back a different (or corrupt) layout.
                    assert_eq!(result.cell.name, reference.name);
                    assert_eq!(result.cell.footprint_l2, reference.footprint_l2);
                    assert_eq!(result.cell.width_lambda, reference.width_lambda);
                }
            });
        }
        scope.spawn(|| {
            for _ in 0..2 {
                for req in &churn {
                    session.run(req).unwrap();
                }
            }
        });
    });
    issued += (HAMMERS * ROUNDS) as u64 + 2 * churn.len() as u64;

    // Quiet tail: with the writer gone, a resident hot key serves pure
    // hits.
    session.run(&hot).unwrap();
    issued += 1;
    for _ in 0..32 {
        assert!(session.run(&hot).unwrap().cached);
    }
    issued += 32;

    let stats = session.stats().cells;
    assert_eq!(stats.hits + stats.misses, issued, "every request counted");
    assert!(stats.hits >= 32, "the uncontended tail hits");
    let cache = session.cache_stats(RequestClass::Cell);
    assert!(
        stats.misses >= cache.entries as u64 + stats.evictions,
        "every resident or evicted entry was built by a miss"
    );
    assert!(stats.evictions > 0, "the writer actually forced churn");
}

#[test]
fn immunity_verdicts_are_memoized() {
    let session = Session::new();
    let req = ImmunityRequest::certify(StdCellKind::Nand(2));

    let first = session.run(&req).unwrap();
    let second = session.run(&req).unwrap();
    assert_eq!(first.immune, second.immune);

    let stats = session.stats();
    assert_eq!(stats.immunity.misses, 1, "engines ran once");
    assert_eq!(stats.immunity.hits, 1);
    // The whole report is memoized: the first run generated the cell
    // (one miss); the repeat is a pure immunity hit that leaves the cell
    // cache untouched.
    assert_eq!(stats.cells.misses, 1);
    assert_eq!(stats.cells.hits, 0);

    // A different engine selection is a distinct verdict.
    let mc = ImmunityRequest::monte_carlo(
        StdCellKind::Nand(2),
        cnfet::immunity::McOptions {
            tubes: 200,
            ..Default::default()
        },
    );
    session.run(&mc).unwrap();
    assert_eq!(session.stats().immunity.misses, 2);
    session.run(&mc).unwrap();
    assert_eq!(session.stats().immunity.hits, 2);
}

/// `-0.0` and `0.0` compare equal, so Monte-Carlo options that differ
/// only in a zero's sign run one analysis and share one entry.
#[test]
fn signed_zero_mc_options_share_one_immunity_entry() {
    let session = Session::new();
    let opts = |metallic_fraction: f64| cnfet::immunity::McOptions {
        tubes: 40,
        metallic_fraction,
        ..Default::default()
    };
    let negative = ImmunityRequest::monte_carlo(StdCellKind::Inv, opts(-0.0));
    let positive = ImmunityRequest::monte_carlo(StdCellKind::Inv, opts(0.0));
    assert_eq!(
        negative.cache_key(&session),
        positive.cache_key(&session),
        "-0.0 and 0.0 key alike"
    );
    session.run(&negative).unwrap();
    assert!(session.run(&positive).is_ok());
    let stats = session.stats().immunity;
    assert_eq!((stats.misses, stats.hits), (1, 1), "one analysis, one hit");
    assert_eq!(session.cache_stats(RequestClass::Immunity).entries, 1);
}

/// Every `McOptions` field, and the engine choice itself, is identity:
/// changing any one of them gives a distinct immunity key.
#[test]
fn every_mc_option_field_tells_immunity_keys_apart() {
    use cnfet::immunity::McOptions;
    let session = Session::new();
    let base = McOptions::default();
    let variants = [
        McOptions {
            tubes: base.tubes + 1,
            ..base.clone()
        },
        McOptions {
            tau: base.tau * 0.5,
            ..base.clone()
        },
        McOptions {
            segment_len_lambda: base.segment_len_lambda + 1.0,
            ..base.clone()
        },
        McOptions {
            seed: base.seed + 1,
            ..base.clone()
        },
        McOptions {
            metallic_fraction: 0.25,
            ..base.clone()
        },
    ];
    let cell = StdCellKind::Nand(2);
    let mut keys = vec![
        ImmunityRequest::certify(cell).cache_key(&session),
        ImmunityRequest::monte_carlo(cell, base.clone()).cache_key(&session),
        ImmunityRequest {
            cell: cell.into(),
            engine: cnfet::ImmunityEngine::Both(base.clone()),
        }
        .cache_key(&session),
    ];
    keys.extend(
        variants
            .into_iter()
            .map(|opts| ImmunityRequest::monte_carlo(cell, opts).cache_key(&session)),
    );
    for (i, a) in keys.iter().enumerate() {
        assert!(a.is_some());
        for b in &keys[i + 1..] {
            assert_ne!(a, b, "two distinct engine selections share a key");
        }
    }
}

/// Macro and slice keys are typed: kind, width, scheme and seed tell
/// macros apart, and a slice adds its bit.
#[test]
fn macro_and_slice_keys_cover_every_field() {
    let session = Session::new();
    let base = MacroRequest::new(AdderKind::Ripple, 8);
    let macros = [
        base.clone(),
        MacroRequest::new(AdderKind::Cla, 8),
        MacroRequest::new(AdderKind::Ripple, 32),
        base.clone().scheme(Scheme::Scheme1),
        base.clone().seed(7),
    ];
    let keys: Vec<_> = macros.iter().map(|m| m.cache_key(&session)).collect();
    for (i, a) in keys.iter().enumerate() {
        assert!(a.is_some());
        for b in &keys[i + 1..] {
            assert_ne!(a, b, "two distinct macros share a key");
        }
    }
    assert_eq!(base.cache_key(&session), base.clone().cache_key(&session));

    let slice = |bit| cnfet::MacroSliceRequest {
        kind: AdderKind::Ripple,
        width: 8,
        bit,
        scheme: base.scheme,
        seed: base.seed,
    };
    assert_ne!(slice(0).cache_key(&session), slice(1).cache_key(&session));
    assert_eq!(slice(3).cache_key(&session), slice(3).cache_key(&session));
    assert_eq!(
        slice(0).cache_key(&session).unwrap().class(),
        RequestClass::Macros
    );
}

#[test]
fn flow_results_are_memoized() {
    let session = Session::new();
    let req = FlowRequest::cnfet(FlowSource::FullAdder, Scheme::Scheme2).with_gds();

    let first = session.run(&req).unwrap();
    let second = session.run(&req).unwrap();
    assert_eq!(first.placement.area_l2, second.placement.area_l2);
    assert_eq!(first.gds, second.gds);

    let stats = session.stats();
    assert_eq!(stats.flows.requests(), 2, "both invocations counted");
    assert_eq!(stats.flows.misses, 1, "placement/assembly ran once");
    assert_eq!(stats.flows.hits, 1);

    // A different target misses.
    session
        .run(&FlowRequest::cnfet(FlowSource::FullAdder, Scheme::Scheme1))
        .unwrap();
    assert_eq!(session.stats().flows.misses, 2);
}

#[test]
fn clear_cache_drops_every_request_class() {
    let session = Session::new();
    session.run(&CellRequest::new(StdCellKind::Inv)).unwrap();
    session.run(&LibraryRequest::new(Scheme::Scheme1)).unwrap();
    session
        .run(&ImmunityRequest::certify(StdCellKind::Inv))
        .unwrap();
    session
        .run(&FlowRequest::cnfet(FlowSource::FullAdder, Scheme::Scheme1))
        .unwrap();
    session
        .run(
            &cnfet::SweepRequest::new([StdCellKind::Inv])
                .metrics(cnfet::SweepMetrics::IMMUNITY)
                .mc(cnfet::immunity::McOptions {
                    tubes: 50,
                    ..Default::default()
                }),
        )
        .unwrap();
    session
        .run(&cnfet::RepairRequest::new([StdCellKind::Inv]).dies(2))
        .unwrap();
    session
        .run(
            &cnfet::OptimizeRequest::new([StdCellKind::Inv])
                .grid(cnfet::VariationGrid::nominal().tube_counts([6]).seeds([7]))
                .target(cnfet::OptimizeTarget::new().min_yield(0.0))
                .passes(1)
                .metrics(cnfet::SweepMetrics::IMMUNITY)
                .mc(cnfet::immunity::McOptions {
                    tubes: 50,
                    ..Default::default()
                }),
        )
        .unwrap();
    // Scheme 1 so the macro's internal library request hits the entry
    // cached above instead of adding a second library miss.
    session
        .run(&MacroRequest::new(AdderKind::Ripple, 8).scheme(Scheme::Scheme1))
        .unwrap();
    for class in RequestClass::ALL {
        assert!(
            session.cache_stats(class).entries > 0,
            "{} cache populated",
            class.name()
        );
    }
    session.clear_cache();

    assert_eq!(session.cached_cells(), 0);
    for class in RequestClass::ALL {
        let stats = session.cache_stats(class);
        assert_eq!(stats.entries, 0, "{} cache cleared", class.name());
        assert_eq!(stats.in_flight, 0, "{} cache idle", class.name());
    }
    session.run(&LibraryRequest::new(Scheme::Scheme1)).unwrap();
    session
        .run(&ImmunityRequest::certify(StdCellKind::Inv))
        .unwrap();
    session
        .run(&FlowRequest::cnfet(FlowSource::FullAdder, Scheme::Scheme1))
        .unwrap();
    let stats = session.stats();
    assert_eq!(stats.libraries.misses, 2, "library was dropped");
    assert_eq!(stats.immunity.misses, 2, "verdict was dropped");
    assert_eq!(stats.flows.misses, 2, "flow result was dropped");
}

/// The key a direct caller of the wrapped request builds (the wrapper
/// itself is never keyed).
fn key_of(request: &RequestKind, session: &Session) -> Option<cnfet::CacheKey> {
    match request {
        RequestKind::Cell(r) => r.cache_key(session),
        RequestKind::Library(r) => r.cache_key(session),
        RequestKind::Immunity(r) => r.cache_key(session),
        RequestKind::Flow(r) => r.cache_key(session),
        RequestKind::Sweep(r) => r.cache_key(session),
        RequestKind::SweepCorner(r) => r.cache_key(session),
        RequestKind::Repair(r) => r.cache_key(session),
        RequestKind::Die(r) => r.cache_key(session),
        RequestKind::Optimize(r) => r.cache_key(session),
        RequestKind::Macro(r) => r.cache_key(session),
        RequestKind::MacroSlice(r) => r.cache_key(session),
        RequestKind::Tran(r) => r.cache_key(session),
    }
}

/// A copy of `base` with one edit, wrapped for the table.
fn with<T: Clone + Into<RequestKind>>(base: &T, edit: impl FnOnce(&mut T)) -> RequestKind {
    let mut request = base.clone();
    edit(&mut request);
    request.into()
}

/// A one-gate netlist whose inverter reads `inputs`.
fn netlist(inputs: &[&str]) -> cnfet::flow::Netlist {
    cnfet::flow::Netlist {
        name: "n".into(),
        ports: vec![("y".into(), cnfet::flow::PortDir::Output)],
        instances: vec![cnfet::flow::GateInst {
            name: "u0".into(),
            kind: StdCellKind::Inv,
            strength: 1,
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            output: "y".into(),
        }],
    }
}

/// One row per keyed request kind: a valid base request and, for each
/// identity field, a copy that changes that field alone.
#[allow(clippy::type_complexity)]
fn identity_table() -> Vec<(&'static str, RequestKind, Vec<(&'static str, RequestKind)>)> {
    use cnfet::immunity::McOptions;
    use cnfet::repair::{DefectParams, Solver};
    use cnfet::{
        DieRequest, ImmunityEngine, MacroSliceRequest, OptimizeRequest, OptimizeTarget,
        RepairRequest, SimSpec, SweepCornerRequest, SweepMetrics, SweepRequest, VariationCorner,
        VariationGrid,
    };
    let mc = McOptions {
        tubes: 50,
        ..McOptions::default()
    };
    let inv = CellRequest::new(StdCellKind::Inv);
    let options = |edit: fn(&mut GenerateOptions)| {
        let mut options = GenerateOptions::default();
        edit(&mut options);
        Some(options)
    };

    let cell = CellRequest::new(StdCellKind::Nand(2));
    let cells = vec![
        ("kind", with(&cell, |r| r.kind = StdCellKind::Nor(2))),
        ("strength", with(&cell, |r| r.strength = 2)),
        ("name", with(&cell, |r| r.name = Some("N".into()))),
        (
            "options.style",
            with(&cell, |r| {
                r.options = options(|o| o.style = cnfet::core::Style::OldEtched)
            }),
        ),
        (
            "options.scheme",
            with(&cell, |r| {
                r.options = options(|o| o.scheme = Scheme::Scheme2)
            }),
        ),
        (
            "options.sizing",
            with(&cell, |r| {
                r.options = options(|o| o.sizing = cnfet::core::Sizing::Uniform { width_lambda: 4 })
            }),
        ),
        (
            "options.row_policy",
            with(&cell, |r| {
                r.options = options(|o| o.row_policy = cnfet::core::RowPolicy::FullEuler)
            }),
        ),
        (
            "options.rules",
            with(&cell, |r| r.options = options(|o| o.rules.pin += 1)),
        ),
    ];

    let library = LibraryRequest::new(Scheme::Scheme1);
    let libraries = vec![("scheme", LibraryRequest::new(Scheme::Scheme2).into())];

    let immunity = ImmunityRequest::monte_carlo(StdCellKind::Nand(2), mc.clone());
    let mc_of = |r: &mut ImmunityRequest| match &r.engine {
        ImmunityEngine::MonteCarlo(mc) => mc.clone(),
        _ => unreachable!(),
    };
    let immunities = vec![
        ("cell", with(&immunity, |r| r.cell = inv.clone())),
        (
            "engine certify",
            with(&immunity, |r| r.engine = ImmunityEngine::Certify),
        ),
        (
            "engine both",
            with(&immunity, |r| r.engine = ImmunityEngine::Both(mc_of(r))),
        ),
        (
            "mc.tubes",
            with(&immunity, |r| {
                r.engine = ImmunityEngine::MonteCarlo(McOptions {
                    tubes: 51,
                    ..mc_of(r)
                })
            }),
        ),
        (
            "mc.tau",
            with(&immunity, |r| {
                r.engine = ImmunityEngine::MonteCarlo(McOptions {
                    tau: 0.5,
                    ..mc_of(r)
                })
            }),
        ),
        (
            "mc.segment_len_lambda",
            with(&immunity, |r| {
                r.engine = ImmunityEngine::MonteCarlo(McOptions {
                    segment_len_lambda: 4.0,
                    ..mc_of(r)
                })
            }),
        ),
        (
            "mc.seed",
            with(&immunity, |r| {
                r.engine = ImmunityEngine::MonteCarlo(McOptions {
                    seed: 1,
                    ..mc_of(r)
                })
            }),
        ),
        (
            "mc.metallic_fraction",
            with(&immunity, |r| {
                r.engine = ImmunityEngine::MonteCarlo(McOptions {
                    metallic_fraction: 0.5,
                    ..mc_of(r)
                })
            }),
        ),
    ];

    let flow = FlowRequest::cnfet(FlowSource::FullAdder, Scheme::Scheme1);
    let sim = SimSpec {
        toggle_in: "a".into(),
        ties: [("b".to_string(), true)].into_iter().collect(),
        watch_out: "s".into(),
    };
    let flows = vec![
        (
            "source verilog",
            with(&flow, |r| {
                r.source = FlowSource::Verilog("module m; endmodule".into())
            }),
        ),
        (
            "source netlist",
            with(&flow, |r| r.source = FlowSource::Netlist(netlist(&["a"]))),
        ),
        (
            "source netlist inputs",
            with(&flow, |r| r.source = FlowSource::Netlist(netlist(&["b"]))),
        ),
        (
            "target scheme",
            with(&flow, |r| {
                r.target = cnfet::FlowTarget::Cnfet(Scheme::Scheme2)
            }),
        ),
        (
            "target cmos",
            with(&flow, |r| r.target = cnfet::FlowTarget::Cmos),
        ),
        ("sim", with(&flow, |r| r.sim = Some(sim.clone()))),
        (
            "sim.ties",
            with(&flow, |r| {
                let mut sim = sim.clone();
                sim.ties.insert("b".into(), false);
                r.sim = Some(sim);
            }),
        ),
        ("emit_gds", with(&flow, |r| r.emit_gds = true)),
    ];

    let sweep = SweepRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)])
        .grid(VariationGrid::nominal().seeds([1, 2]))
        .mc(mc.clone());
    let sweeps = vec![
        ("cells", with(&sweep, |r| r.cells.push(inv.clone()))),
        (
            "cells[0].strength",
            with(&sweep, |r| r.cells[0].strength = 2),
        ),
        (
            "grid.tube_counts",
            with(&sweep, |r| r.grid.tube_counts = vec![10]),
        ),
        (
            "grid.pitch_scales",
            with(&sweep, |r| r.grid.pitch_scales = vec![0.9]),
        ),
        (
            "grid.metallic_fractions",
            with(&sweep, |r| r.grid.metallic_fractions = vec![0.01]),
        ),
        ("grid.seeds", with(&sweep, |r| r.grid.seeds = vec![1, 3])),
        (
            "metrics.immunity",
            with(&sweep, |r| r.metrics.immunity = false),
        ),
        ("metrics.timing", with(&sweep, |r| r.metrics.timing = false)),
        (
            "metrics.liberty",
            with(&sweep, |r| r.metrics.liberty = false),
        ),
        (
            "metrics.retain_waveforms",
            with(&sweep, |r| r.metrics.retain_waveforms = true),
        ),
        ("mc.tubes", with(&sweep, |r| r.mc.tubes = 51)),
        ("mc.tau", with(&sweep, |r| r.mc.tau = 0.5)),
        (
            "mc.segment_len_lambda",
            with(&sweep, |r| r.mc.segment_len_lambda = 4.0),
        ),
        ("loads_f", with(&sweep, |r| r.loads_f = vec![2e-15])),
        (
            "one cell, one corner",
            with(&sweep, |r| {
                r.cells.truncate(1);
                r.grid = VariationGrid::nominal();
            }),
        ),
    ];

    // The corner of the one-cell, one-corner sweep above: the two share
    // every field value, yet never a key.
    let corner = SweepCornerRequest {
        cell: inv.clone(),
        corner: VariationCorner::nominal(),
        metrics: SweepMetrics::ALL,
        mc: mc.clone(),
        loads_f: vec![1e-15],
    };
    let corners = vec![
        ("cell", with(&corner, |r| r.cell.kind = StdCellKind::Nor(2))),
        (
            "corner.tubes_per_4lambda",
            with(&corner, |r| r.corner.tubes_per_4lambda = 10),
        ),
        (
            "corner.pitch_scale",
            with(&corner, |r| r.corner.pitch_scale = 0.9),
        ),
        (
            "corner.metallic_fraction",
            with(&corner, |r| r.corner.metallic_fraction = 0.01),
        ),
        ("corner.seed", with(&corner, |r| r.corner.seed = 1)),
        (
            "metrics",
            with(&corner, |r| r.metrics = SweepMetrics::IMMUNITY),
        ),
        ("mc.tubes", with(&corner, |r| r.mc.tubes = 51)),
        ("mc.tau", with(&corner, |r| r.mc.tau = 0.5)),
        (
            "mc.segment_len_lambda",
            with(&corner, |r| r.mc.segment_len_lambda = 4.0),
        ),
        ("loads_f", with(&corner, |r| r.loads_f.push(2e-15))),
    ];

    let lot = RepairRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)]).dies(4);
    let params = |edit: fn(&mut DefectParams)| {
        let mut params = DefectParams::default();
        edit(&mut params);
        params
    };
    let lots = vec![
        ("cells", with(&lot, |r| r.cells.truncate(1))),
        ("dies", with(&lot, |r| r.dies = 5)),
        ("base_seed", with(&lot, |r| r.base_seed = 1)),
        ("spares", with(&lot, |r| r.spares = 2)),
        (
            "params.metallic_fraction",
            with(&lot, |r| r.params = params(|p| p.metallic_fraction = 0.5)),
        ),
        (
            "params.open_fraction",
            with(&lot, |r| r.params = params(|p| p.open_fraction = 0.5)),
        ),
        (
            "params.misposition_fraction",
            with(&lot, |r| {
                r.params = params(|p| p.misposition_fraction = 0.5)
            }),
        ),
        (
            "params.tubes_per_site",
            with(&lot, |r| r.params = params(|p| p.tubes_per_site = 9)),
        ),
        (
            "params.open_tolerance",
            with(&lot, |r| r.params = params(|p| p.open_tolerance = 0.5)),
        ),
        (
            "params.tau",
            with(&lot, |r| r.params = params(|p| p.tau = 0.5)),
        ),
        (
            "params.segment_len_lambda",
            with(&lot, |r| r.params = params(|p| p.segment_len_lambda = 4.0)),
        ),
        ("solver", with(&lot, |r| r.solver = Solver::Sat)),
        ("adjacent", with(&lot, |r| r.adjacent = vec![(0, 1)])),
    ];

    // Die index four of the lot above: the same field values as the
    // four-die lot, yet never its key.
    let die = DieRequest {
        cells: lot.cells.clone(),
        die: 4,
        base_seed: lot.base_seed,
        spares: lot.spares,
        params: lot.params,
        solver: lot.solver,
        adjacent: lot.adjacent.clone(),
    };
    let dies = vec![
        ("cells", with(&die, |r| r.cells.truncate(1))),
        ("die", with(&die, |r| r.die = 5)),
        ("base_seed", with(&die, |r| r.base_seed = 1)),
        ("spares", with(&die, |r| r.spares = 2)),
        (
            "params.tubes_per_site",
            with(&die, |r| r.params = params(|p| p.tubes_per_site = 9)),
        ),
        (
            "params.tau",
            with(&die, |r| r.params = params(|p| p.tau = 0.5)),
        ),
        ("solver", with(&die, |r| r.solver = Solver::Matching)),
        ("adjacent", with(&die, |r| r.adjacent = vec![(1, 0)])),
    ];

    let search = OptimizeRequest::new([StdCellKind::Inv])
        .grid(VariationGrid::nominal().tube_counts([26, 10]).seeds([7]))
        .target(OptimizeTarget::new().min_yield(0.5))
        .passes(1)
        .metrics(SweepMetrics::IMMUNITY)
        .mc(mc.clone());
    let searches = vec![
        ("cells", with(&search, |r| r.cells.push(inv.clone()))),
        (
            "grid.tube_counts",
            with(&search, |r| r.grid.tube_counts = vec![26, 8]),
        ),
        (
            "grid.pitch_scales",
            with(&search, |r| r.grid.pitch_scales = vec![0.9]),
        ),
        (
            "grid.metallic_fractions",
            with(&search, |r| r.grid.metallic_fractions = vec![0.01]),
        ),
        ("grid.seeds", with(&search, |r| r.grid.seeds = vec![8])),
        (
            "target.min_yield",
            with(&search, |r| r.target.min_yield = Some(0.6)),
        ),
        (
            "target.max_delay_s",
            with(&search, |r| r.target.max_delay_s = Some(1e-9)),
        ),
        (
            "target.max_energy_j",
            with(&search, |r| r.target.max_energy_j = Some(1e-12)),
        ),
        ("passes", with(&search, |r| r.passes = 2)),
        ("metrics", with(&search, |r| r.metrics = SweepMetrics::ALL)),
        ("mc.tubes", with(&search, |r| r.mc.tubes = 51)),
        ("mc.tau", with(&search, |r| r.mc.tau = 0.5)),
        (
            "mc.segment_len_lambda",
            with(&search, |r| r.mc.segment_len_lambda = 4.0),
        ),
        ("loads_f", with(&search, |r| r.loads_f = vec![2e-15])),
    ];

    let adder = MacroRequest::new(AdderKind::Ripple, 8);
    let adders = vec![
        ("kind", with(&adder, |r| r.kind = AdderKind::Cla)),
        ("width", with(&adder, |r| r.width = 32)),
        ("scheme", with(&adder, |r| r.scheme = Scheme::Scheme1)),
        ("seed", with(&adder, |r| r.seed = 7)),
    ];

    // Bit zero of an 8-bit ripple adder: the macro's fields plus a bit.
    let slice = MacroSliceRequest {
        kind: adder.kind,
        width: adder.width,
        bit: 0,
        scheme: adder.scheme,
        seed: adder.seed,
    };
    let slices = vec![
        ("kind", with(&slice, |r| r.kind = AdderKind::Cla)),
        ("width", with(&slice, |r| r.width = 32)),
        ("bit", with(&slice, |r| r.bit = 1)),
        ("scheme", with(&slice, |r| r.scheme = Scheme::Scheme1)),
        ("seed", with(&slice, |r| r.seed = 7)),
    ];

    vec![
        ("cell", cell.into(), cells),
        ("library", library.into(), libraries),
        ("immunity", immunity.into(), immunities),
        ("flow", flow.into(), flows),
        ("sweep", sweep.into(), sweeps),
        ("sweep corner", corner.into(), corners),
        ("repair", lot.into(), lots),
        ("die", die.into(), dies),
        ("optimize", search.into(), searches),
        ("macro", adder.into(), adders),
        ("macro slice", slice.into(), slices),
    ]
}

/// Pairs of requests that must share one key: `-0.0` folds to `0.0` in
/// every float a key holds, and a sweep, corner or search key leaves
/// out the `mc.seed` and `mc.metallic_fraction` that every corner
/// replaces with its own.
fn shared_key_pairs() -> Vec<(&'static str, RequestKind, RequestKind)> {
    use cnfet::immunity::McOptions;
    use cnfet::repair::DefectParams;
    use cnfet::{
        OptimizeRequest, OptimizeTarget, RepairRequest, SweepCornerRequest, SweepMetrics,
        SweepRequest, VariationCorner, VariationGrid,
    };
    let mc = |tau: f64, seed: u64, metallic_fraction: f64| McOptions {
        tubes: 50,
        tau,
        seed,
        metallic_fraction,
        ..McOptions::default()
    };
    let immunity =
        |tau, metallic| ImmunityRequest::monte_carlo(StdCellKind::Inv, mc(tau, 1, metallic)).into();
    let sweep = |pitch: f64, metallic: f64, mc: McOptions, load: f64| {
        SweepRequest::new([StdCellKind::Inv])
            .grid(
                VariationGrid::nominal()
                    .pitch_scales([pitch])
                    .metallic_fractions([metallic]),
            )
            .mc(mc)
            .loads([load])
            .into()
    };
    let corner = |pitch: f64, metallic: f64, mc: McOptions, load: f64| {
        SweepCornerRequest {
            cell: StdCellKind::Inv.into(),
            corner: VariationCorner {
                pitch_scale: pitch,
                metallic_fraction: metallic,
                ..VariationCorner::nominal()
            },
            metrics: SweepMetrics::ALL,
            mc,
            loads_f: vec![load],
        }
        .into()
    };
    let search = |metallic: f64, min_yield: f64, mc: McOptions, load: f64| {
        OptimizeRequest::new([StdCellKind::Inv])
            .grid(VariationGrid::nominal().metallic_fractions([metallic]))
            .target(OptimizeTarget::new().min_yield(min_yield))
            .mc(mc)
            .loads([load])
            .into()
    };
    let lot = |open_fraction: f64, tau: f64| {
        RepairRequest::new([StdCellKind::Inv])
            .params(DefectParams {
                open_fraction,
                tau,
                ..DefectParams::default()
            })
            .into()
    };
    vec![
        ("immunity mc.tau", immunity(0.0, 0.0), immunity(-0.0, 0.0)),
        (
            "immunity mc.metallic_fraction",
            immunity(1.0, 0.0),
            immunity(1.0, -0.0),
        ),
        (
            "sweep grid.pitch_scales",
            sweep(0.0, 0.0, mc(1.0, 1, 0.0), 1e-15),
            sweep(-0.0, 0.0, mc(1.0, 1, 0.0), 1e-15),
        ),
        (
            "sweep grid.metallic_fractions",
            sweep(1.0, 0.0, mc(1.0, 1, 0.0), 1e-15),
            sweep(1.0, -0.0, mc(1.0, 1, 0.0), 1e-15),
        ),
        (
            "sweep mc.tau",
            sweep(1.0, 0.0, mc(0.0, 1, 0.0), 1e-15),
            sweep(1.0, 0.0, mc(-0.0, 1, 0.0), 1e-15),
        ),
        (
            "sweep loads_f",
            sweep(1.0, 0.0, mc(1.0, 1, 0.0), 0.0),
            sweep(1.0, 0.0, mc(1.0, 1, 0.0), -0.0),
        ),
        (
            "sweep mc.seed",
            sweep(1.0, 0.0, mc(1.0, 1, 0.0), 1e-15),
            sweep(1.0, 0.0, mc(1.0, 2, 0.0), 1e-15),
        ),
        (
            "sweep mc.metallic_fraction",
            sweep(1.0, 0.0, mc(1.0, 1, 0.0), 1e-15),
            sweep(1.0, 0.0, mc(1.0, 1, 0.5), 1e-15),
        ),
        (
            "corner.pitch_scale",
            corner(0.0, 0.0, mc(1.0, 1, 0.0), 1e-15),
            corner(-0.0, 0.0, mc(1.0, 1, 0.0), 1e-15),
        ),
        (
            "corner.metallic_fraction",
            corner(1.0, 0.0, mc(1.0, 1, 0.0), 1e-15),
            corner(1.0, -0.0, mc(1.0, 1, 0.0), 1e-15),
        ),
        (
            "corner mc.tau",
            corner(1.0, 0.0, mc(0.0, 1, 0.0), 1e-15),
            corner(1.0, 0.0, mc(-0.0, 1, 0.0), 1e-15),
        ),
        (
            "corner mc.seed",
            corner(1.0, 0.0, mc(1.0, 1, 0.0), 1e-15),
            corner(1.0, 0.0, mc(1.0, 2, 0.0), 1e-15),
        ),
        (
            "corner mc.metallic_fraction",
            corner(1.0, 0.0, mc(1.0, 1, 0.0), 1e-15),
            corner(1.0, 0.0, mc(1.0, 1, 0.5), 1e-15),
        ),
        (
            "search grid.metallic_fractions",
            search(0.0, 0.5, mc(1.0, 1, 0.0), 1e-15),
            search(-0.0, 0.5, mc(1.0, 1, 0.0), 1e-15),
        ),
        (
            "search target.min_yield",
            search(0.0, 0.0, mc(1.0, 1, 0.0), 1e-15),
            search(0.0, -0.0, mc(1.0, 1, 0.0), 1e-15),
        ),
        (
            "search mc.tau",
            search(0.0, 0.5, mc(0.0, 1, 0.0), 1e-15),
            search(0.0, 0.5, mc(-0.0, 1, 0.0), 1e-15),
        ),
        (
            "search mc.seed",
            search(0.0, 0.5, mc(1.0, 1, 0.0), 1e-15),
            search(0.0, 0.5, mc(1.0, 2, 0.0), 1e-15),
        ),
        (
            "search loads_f",
            search(0.0, 0.5, mc(1.0, 1, 0.0), 0.0),
            search(0.0, 0.5, mc(1.0, 1, 0.0), -0.0),
        ),
        ("repair params.open_fraction", lot(0.0, 1.0), lot(-0.0, 1.0)),
        ("repair params.tau", lot(0.04, 0.0), lot(0.04, -0.0)),
    ]
}

/// Cache identity across every keyed kind: equal requests share a key,
/// any one identity field tells keys apart (across kinds too), `-0.0`
/// folds to `0.0`, a corner's overridden MC fields never split an
/// entry, and adjacent names cannot run together.
#[test]
fn every_keyed_kind_keys_exactly_its_identity() {
    let session = Session::new();
    let key = |request: &RequestKind| {
        key_of(request, &session).unwrap_or_else(|| panic!("no key for {request:?}"))
    };

    let mut all = Vec::new();
    for (kind, base, variants) in identity_table() {
        assert_eq!(key(&base), key(&base.clone()), "{kind}: equal requests");
        all.push((format!("{kind} base"), key(&base)));
        for (field, variant) in variants {
            assert_eq!(key(&variant), key(&variant.clone()), "{kind} {field}");
            all.push((format!("{kind} {field}"), key(&variant)));
        }
    }
    for (i, (a_name, a)) in all.iter().enumerate() {
        for (b_name, b) in &all[i + 1..] {
            assert_ne!(a, b, "{a_name} and {b_name} share a key");
        }
    }

    for (name, a, b) in shared_key_pairs() {
        assert_eq!(key(&a), key(&b), "{name} splits the entry");
    }

    // Implicit and explicit session defaults are one cell.
    let explicit = CellRequest::new(StdCellKind::Inv).options(session.defaults().clone());
    assert_eq!(
        key(&explicit.into()),
        key(&CellRequest::new(StdCellKind::Inv).into())
    );

    // Strings are length-prefixed: moving a character from one name to
    // the next is a different request.
    let named = |names: [&str; 2]| {
        let cells = names.map(|name| CellRequest::new(StdCellKind::Inv).named(name));
        cnfet::SweepRequest::new(cells).into()
    };
    assert_ne!(key(&named(["ab", "c"])), key(&named(["a", "bc"])));
    let gate = |inputs: [&str; 2]| {
        FlowRequest::cnfet(FlowSource::Netlist(netlist(&inputs)), Scheme::Scheme1).into()
    };
    assert_ne!(key(&gate(["ab", "c"])), key(&gate(["a", "bc"])));
}
