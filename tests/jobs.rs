//! Integration tests of the non-blocking submission API:
//! `Session::submit` / `Session::submit_all`, `JobHandle` semantics
//! (`wait`, `try_get`, `wait_timeout`, `is_done`), handle-drop safety,
//! and heterogeneous mixes through the session's job pool.

use cnfet::core::{Scheme, StdCellKind};
use cnfet::immunity::McOptions;
use cnfet::{
    CellRequest, CnfetError, FlowRequest, FlowSource, ImmunityRequest, LibraryRequest,
    RequestClass, RequestKind, ResponseKind, Session, SessionBuilder, SweepCornerRequest,
    SweepMetrics, SweepRequest, TranRequest, VariationCorner, VariationGrid,
};
use std::time::{Duration, Instant};

/// A small immunity-only sweep: 2 cells × 4 corners, cheap MC.
fn small_sweep() -> SweepRequest {
    SweepRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)])
        .grid(
            VariationGrid::nominal()
                .tube_counts([26, 10])
                .metallic_fractions([0.0, 0.1]),
        )
        .metrics(SweepMetrics::IMMUNITY)
        .mc(McOptions {
            tubes: 100,
            ..Default::default()
        })
}

/// A deliberately slow request: a Monte-Carlo sweep big enough that a
/// freshly submitted job cannot finish within a few milliseconds.
fn slow_request() -> ImmunityRequest {
    ImmunityRequest::monte_carlo(
        StdCellKind::Aoi22,
        McOptions {
            tubes: 100_000,
            ..Default::default()
        },
    )
}

#[test]
fn submit_resolves_and_populates_the_cache() {
    let session = Session::new();
    let request = CellRequest::new(StdCellKind::Nand(3));
    let handle = session.submit(request.clone());
    let result = handle.wait().unwrap();
    assert!(!result.cached, "the job ran the generation");
    // The job went through the same cache `run` uses.
    assert!(session.run(&request).unwrap().cached);
    let stats = session.stats();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.cells.misses, 1);
}

/// A cache hit's handle is resolved when `submit` returns, and answers
/// `is_done`, `try_get`, `wait_timeout` and `on_resolve` exactly like
/// the handle of a pool job that has finished.
#[test]
fn cached_requests_get_handles_that_answer_like_finished_jobs() {
    let session = Session::new();
    let request = CellRequest::new(StdCellKind::Nand(2));
    let mut finished = session.submit(request.clone());
    let t0 = Instant::now();
    while !finished.is_done() {
        assert!(t0.elapsed() < Duration::from_secs(60), "job never finished");
        std::thread::yield_now();
    }
    let submitted = session.stats().submitted;
    let mut hit = session.submit(request.clone());
    assert_eq!(session.stats().submitted, submitted, "a hit is not a job");
    for (handle, cached) in [(&mut finished, false), (&mut hit, true)] {
        assert!(handle.is_done());
        assert_eq!(handle.try_get().unwrap().unwrap().cached, cached);
        assert!(handle.is_done(), "still done once collected");
        assert!(handle.try_get().is_none(), "collected exactly once");
        assert!(handle.wait_timeout(Duration::ZERO).is_none());
    }

    let mut hit = session.submit(request.clone());
    let result = hit.wait_timeout(Duration::ZERO).expect("resolved at once");
    assert!(result.unwrap().cached);
    let (tx, rx) = std::sync::mpsc::channel();
    session.submit(request.clone()).on_resolve(move |result| {
        tx.send((result.unwrap().cached, std::thread::current().id()))
            .unwrap();
    });
    let (cached, thread) = rx.try_recv().expect("the hook ran inline");
    assert!(cached);
    assert_eq!(thread, std::thread::current().id());
    assert!(rx.try_recv().is_err(), "the hook ran exactly once");
    assert!(session.submit(request).wait().unwrap().cached);
    let stats = session.stats();
    assert_eq!((stats.cells.hits, stats.cells.misses), (4, 1));
    assert_eq!(stats.submitted, submitted);
}

#[test]
fn try_get_and_wait_timeout_on_a_slow_request() {
    let session = SessionBuilder::new().batch_workers(1).build();
    let mut handle = session.submit(slow_request());

    // The Monte-Carlo sweep takes far longer than this: the handle must
    // still be pending, and a short wait must expire.
    assert!(handle.try_get().is_none(), "pending → try_get is None");
    let t0 = Instant::now();
    assert!(
        handle.wait_timeout(Duration::from_millis(1)).is_none(),
        "wait_timeout expires while the sweep runs"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "timeout returned promptly"
    );

    // Waiting long enough resolves; the result is collected exactly once.
    let report = handle
        .wait_timeout(Duration::from_secs(120))
        .expect("sweep finishes")
        .unwrap();
    assert!(report.mc.is_some());
    assert!(handle.is_done());
    assert!(handle.try_get().is_none(), "already collected");
}

#[test]
fn dropped_handle_does_not_poison_the_cache() {
    let session = SessionBuilder::new().batch_workers(1).build();
    let request = ImmunityRequest::certify(StdCellKind::Nand(2));
    drop(session.submit(request.clone()));

    // The job still runs: poll the stats until its miss is recorded
    // (the miss counter is bumped after the value is resident).
    let t0 = Instant::now();
    while session.stats().immunity.misses == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "abandoned job never ran"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // And the cached verdict it left behind is sound, not poisoned.
    let report = session.run(&request).unwrap();
    assert!(report.immune);
    assert_eq!(session.stats().immunity.hits, 1);
}

#[test]
fn submit_all_heterogeneous_returns_results_in_submission_order() {
    let session = Session::new();
    let requests = vec![
        RequestKind::from(CellRequest::new(StdCellKind::Nand(3))),
        RequestKind::from(ImmunityRequest::certify(StdCellKind::Nand(3))),
        RequestKind::from(FlowRequest::cnfet(FlowSource::FullAdder, Scheme::Scheme1)),
        RequestKind::from(LibraryRequest::new(Scheme::Scheme2)),
        RequestKind::from(CellRequest::new(StdCellKind::Inv)),
        RequestKind::from(TranRequest::new(
            "V1 in 0 PWL(0 0 1e-12 1)\nR1 in out 1k\nC1 out 0 1p\n.end",
            1e-11,
            1e-9,
        )),
    ];
    let classes: Vec<Option<RequestClass>> = requests.iter().map(RequestKind::class).collect();
    assert_eq!(classes.last(), Some(&None), "tran belongs to no class");

    let handles = session.submit_all(requests);
    assert_eq!(handles.len(), 6);
    let responses: Vec<ResponseKind> = handles.into_iter().map(|h| h.wait().unwrap()).collect();

    // One response per request, matching kinds in submission order.
    let got: Vec<Option<RequestClass>> = responses.iter().map(ResponseKind::class).collect();
    assert_eq!(got, classes, "results keep submission order");

    match &responses[0] {
        ResponseKind::Cell(c) => assert_eq!(c.cell.kind, StdCellKind::Nand(3)),
        other => panic!("expected a cell, got {other:?}"),
    }
    assert!(responses[1].clone().into_immunity().unwrap().immune);
    assert!(responses[2].clone().into_flow().unwrap().placement.area_l2 > 0.0);
    assert!(!responses[3]
        .clone()
        .into_library()
        .unwrap()
        .cells
        .is_empty());
    let tran = responses[5].clone().into_tran().unwrap();
    assert!(!tran.time.is_empty());
    assert!((tran.probe("out").unwrap().last().unwrap() - 0.63).abs() < 0.01);
    assert_eq!(session.stats().submitted, 6);
}

#[test]
fn wrapped_and_unwrapped_requests_share_one_cache_entry() {
    // RequestKind must not double-cache: the inner request memoizes
    // itself, so a wrapped submit and a direct run share the entry.
    let session = Session::new();
    let request = CellRequest::new(StdCellKind::Oai21);
    let wrapped = session
        .submit(RequestKind::from(request.clone()))
        .wait()
        .unwrap()
        .into_cell()
        .unwrap();
    let direct = session.run(&request).unwrap();
    assert!(std::sync::Arc::ptr_eq(&wrapped.cell, &direct.cell));
    assert!(direct.cached);
    assert_eq!(session.stats().cells.misses, 1);
}

#[test]
fn composite_sweep_does_not_deadlock_a_single_worker_pool() {
    // The sweep executes ON the pool's only worker and fans its corner
    // sub-requests onto that same pool: without the helping protocol the
    // worker would park on handles nobody is left to serve. Submit
    // individual cell requests around it too — everything must resolve.
    let session = SessionBuilder::new().batch_workers(1).build();
    let before = session.submit(CellRequest::new(StdCellKind::Oai21));
    let sweep = session.submit(small_sweep());
    let after = session.submit(CellRequest::new(StdCellKind::Aoi22));

    let mut sweep = sweep;
    let report = sweep
        .wait_timeout(Duration::from_secs(300))
        .expect("composite sweep completes on a one-worker pool")
        .unwrap();
    assert_eq!(report.rows.len(), 2 * 4);
    assert!(before.wait().is_ok());
    assert!(after.wait().is_ok());

    // Every row landed in the Sweeps cache (8 corners + the sweep key).
    let stats = session.stats();
    assert_eq!(stats.sweeps.misses, 9);
}

#[test]
fn concurrent_identical_sweeps_reduce_once() {
    // Two identical sweeps submitted at once: single-flight on the sweep
    // key means one reduction; the other submission waits and shares the
    // same Arc'd report.
    let session = SessionBuilder::new().batch_workers(2).build();
    let a = session.submit(small_sweep());
    let b = session.submit(small_sweep());
    let ra = a.wait().unwrap();
    let rb = b.wait().unwrap();
    assert!(std::sync::Arc::ptr_eq(&ra, &rb), "one reduction, shared");
    let stats = session.stats();
    assert_eq!(stats.sweeps.misses, 9, "8 corners + 1 sweep key");
    assert_eq!(stats.sweeps.hits, 1, "the duplicate sweep hit");
}

#[test]
fn abandoned_sweep_handles_cancel_on_session_drop() {
    // Occupy the single worker with a slow request, queue a sweep behind
    // it, and drop the session: the queued sweep is discarded during
    // shutdown and must resolve to Canceled rather than strand a waiter.
    let session = SessionBuilder::new().batch_workers(1).build();
    let running = session.submit(slow_request());
    let t0 = Instant::now();
    while session.cache_stats(RequestClass::Immunity).in_flight == 0 {
        assert!(t0.elapsed() < Duration::from_secs(60), "job never started");
        std::thread::yield_now();
    }
    let queued_sweep = session.submit(small_sweep());
    let queued_corner = session.submit(RequestKind::SweepCorner(SweepCornerRequest {
        cell: CellRequest::new(StdCellKind::Inv),
        corner: VariationCorner::nominal(),
        metrics: SweepMetrics::IMMUNITY,
        mc: McOptions {
            tubes: 100,
            ..Default::default()
        },
        loads_f: vec![1e-15],
    }));

    drop(session);
    assert!(running.wait().unwrap().mc.is_some(), "in-flight job landed");
    assert!(matches!(queued_sweep.wait(), Err(CnfetError::Canceled)));
    assert!(matches!(queued_corner.wait(), Err(CnfetError::Canceled)));
}

#[test]
fn queued_jobs_cancel_when_the_session_drops() {
    let session = SessionBuilder::new().batch_workers(1).build();
    let running = session.submit(slow_request());
    // Wait until the slow job is actually executing (its build claims the
    // immunity cache key), so the second job is definitely queued behind
    // it on the single worker.
    let t0 = Instant::now();
    while session.cache_stats(RequestClass::Immunity).in_flight == 0 {
        assert!(t0.elapsed() < Duration::from_secs(60), "job never started");
        std::thread::yield_now();
    }
    let queued = session.submit(CellRequest::new(StdCellKind::Inv));

    // Dropping the last Session handle shuts the engine down: the
    // in-flight job finishes (it holds the core alive while it runs);
    // the queued one is popped during shutdown and canceled.
    drop(session);
    assert!(running.wait().unwrap().mc.is_some(), "in-flight job landed");
    assert!(matches!(queued.wait(), Err(CnfetError::Canceled)));
}
