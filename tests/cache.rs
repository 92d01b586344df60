//! Integration tests of the sharded session cache (bounded capacity, LRU
//! eviction, disable switch, per-shard stats, uniform coverage of every
//! request class) and `run_batch` on the session's job pool under
//! skewed workloads.

use cnfet::core::{GenerateOptions, Scheme, StdCellKind};
use cnfet::logic::AdderKind;
use cnfet::{
    CellRequest, FlowRequest, FlowSource, ImmunityRequest, LibraryRequest, MacroRequest,
    RequestClass, Session, SessionBuilder, SessionRequest,
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

    let cache = session.cell_cache_stats();
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
    let cache = session.cell_cache_stats();
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
