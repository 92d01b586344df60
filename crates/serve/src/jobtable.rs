//! The bounded job table behind `POST /v1/submit`, `GET /v1/jobs/{id}`,
//! and `GET /v1/jobs/{id}/stream`.
//!
//! A submit enqueues the request on the session's non-blocking pool
//! ([`Session::submit`](cnfet::Session::submit)) under a fresh id and
//! registers a [`JobHandle::on_resolve`](cnfet::JobHandle::on_resolve)
//! hook on the returned handle. The job settles exactly once, on the
//! thread that resolves it: the hook renders the outcome into the job's
//! [`Progress`], which is from then on the job's one settled state.
//! Polls and streams only read it, so repeated `GET`s are cheap and
//! always agree, and a streamer wakes the moment the job resolves.
//!
//! Ids are handed out sequentially, which is what lets the table answer
//! *expired* distinctly from *never existed*: an absent id below the
//! next fresh id must have been dropped by TTL expiry ([`Polled::Expired`]
//! → `410 Gone`), while an id the table never issued is
//! [`Polled::Unknown`] (`404`).
//!
//! Every job also carries a [`Progress`] handle. For the four composite
//! requests (sweeps, repair lots, optimize searches, adder macros) the
//! table attaches an [`Observer`] before submitting, so corner rows /
//! die outcomes / candidate rows / bit-slice outcomes land on the
//! progress as the engine harvests them — the feed under `/stream`.
//! Each lands as an opaque [`StreamRow`] that renders itself, so the
//! stream handler never learns which composite produced it.
//! Whole-report cache hits never execute (the observer stays silent);
//! the missing rows are back-filled from the final report when the job
//! resolves, so a streamed job always delivers every row before its
//! terminal event.
//!
//! Three bounds keep the table from growing without limit under load:
//!
//! * **capacity** — at most `capacity` *pending* jobs at once; a submit
//!   past the bound is refused (the server answers `429`) instead of
//!   queueing unboundedly when producers outpace the pool;
//! * **expiry** — resolved jobs are dropped `ttl` after resolving
//!   (their results have been deliverable for that long), counted in
//!   [`JobTableStats::expired`];
//! * **pending cap** — fault recovery: a job whose handle has not
//!   resolved an hour after its submit is settled [`JobView::Canceled`]
//!   and counted in [`JobTableStats::expired`]. Expiry starts when a job
//!   settles, so without this cap a handle that never resolves (a wedged
//!   pool, a lost completion) would pin its entry — and its slice of
//!   `capacity` — forever.

use crate::json::Json;
use crate::wire;
use cnfet::{CnfetError, Observer, RequestKind, ResponseKind, Session};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// A settled job's client-visible outcome.
#[derive(Clone, Debug, PartialEq)]
pub enum JobView {
    /// Finished; the rendered result summary.
    Done(Json),
    /// Failed; the HTTP status and structured error payload.
    Failed(u16, Json),
    /// Abandoned before producing a result (server shutdown).
    Canceled,
}

/// What polling an id revealed.
#[derive(Clone, Debug, PartialEq)]
pub enum Polled {
    /// The table never issued this id — `404`.
    Unknown,
    /// The id existed but its settled result passed the TTL — `410`.
    Expired,
    /// Still queued or executing, with backoff metadata for pollers.
    Pending {
        /// Milliseconds since the job was submitted.
        age_ms: u64,
        /// Jobs pending in the table right now (this one included) — a
        /// proxy for how far back in the queue the job may be.
        queued: usize,
    },
    /// Settled; replays the same outcome until expiry.
    Settled(JobView),
}

/// How a composite's row renders on a stream. Each row type implements
/// it once, next to its `wire::render_*` renderer.
pub(crate) trait RenderRow: Send + Sync {
    /// The row's JSON object: the `row` member of a `row` event.
    fn json(&self) -> Json;

    /// The row as one binary stream frame at stream position `index`.
    /// Rows without a dedicated frame tag ride in an event frame, as the
    /// `row` event, like `start` and `done` do.
    fn frame(&self, index: usize) -> Vec<u8> {
        crate::encode::event_frame(&wire::row_event(index, self.json()))
    }
}

/// One streamed progress row — a sweep's corner row, a repair lot's die
/// outcome, an optimize search's candidate row, or an adder macro's bit
/// slice — in canonical report order. Opaque: it renders itself, and a
/// clone shares the row rather than copying it.
#[derive(Clone)]
pub struct StreamRow(Arc<dyn RenderRow>);

impl StreamRow {
    fn new<T: RenderRow + Clone + 'static>(row: &T) -> StreamRow {
        StreamRow(Arc::new(row.clone()))
    }

    /// The row's JSON object, as a `row` event carries it.
    pub fn json(&self) -> Json {
        self.0.json()
    }

    /// The row as one binary stream frame at stream position `index`:
    /// a `FRAME_ROW` / `FRAME_DIE` payload for corner and die rows, the
    /// `row` event in a `FRAME_EVENT` for candidate and slice rows.
    pub fn frame(&self, index: usize) -> Vec<u8> {
        self.0.frame(index)
    }
}

/// The live row feed and the settled state of one job. The engine's
/// [`Observer`] on a composite pushes rows and the job's resolve hook
/// settles it; `/stream` handlers and polls only read. Non-composite
/// jobs carry one too, with `total` 0 — a stream of no rows and one
/// terminal event. Rows are shared, so a wait hands out refcounts, never
/// row copies.
pub struct Progress {
    total: usize,
    /// The table's count of unsettled jobs, released once when this job
    /// settles.
    pending: Arc<AtomicUsize>,
    state: Mutex<ProgressState>,
    cv: Condvar,
}

struct ProgressState {
    rows: Vec<StreamRow>,
    /// The terminal view and the instant it was written; `None` while
    /// the job is pending.
    settled: Option<(JobView, Instant)>,
}

impl Progress {
    fn new(total: usize, pending: &Arc<AtomicUsize>) -> Progress {
        Progress {
            total,
            pending: pending.clone(),
            state: Mutex::new(ProgressState {
                rows: Vec::new(),
                settled: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Total rows this job will deliver (cells × corners for a sweep,
    /// dies for a repair lot, candidates for an optimize search, bits
    /// for an adder macro; 0 for non-composite jobs).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Appends the next streamed row. Rows arrive in report order from
    /// the composite's single harvest loop; anything out of order (or
    /// after the terminal state) is dropped rather than misfiled.
    fn push(&self, index: usize, row: StreamRow) {
        let mut state = self.state.lock().expect("progress lock");
        if state.settled.is_none() && index == state.rows.len() {
            state.rows.push(row);
            self.cv.notify_all();
        }
    }

    /// Settles the job — the one writer of its terminal view: back-fills
    /// any rows the observer never saw (a whole-report cache hit skips
    /// execution entirely), records the view and the instant, and
    /// releases the job's pending count. Only the first call settles;
    /// returns whether this one did.
    fn finish(&self, rows: Vec<StreamRow>, view: JobView) -> bool {
        let mut state = self.state.lock().expect("progress lock");
        if state.settled.is_some() {
            return false;
        }
        let seen = state.rows.len();
        state.rows.extend(rows.into_iter().skip(seen));
        state.settled = Some((view, Instant::now()));
        self.pending.fetch_sub(1, Ordering::Relaxed);
        self.cv.notify_all();
        true
    }

    /// Rows past `seen` plus the terminal view once settled; blocks up
    /// to `timeout` when neither is available yet.
    pub fn wait(&self, seen: usize, timeout: Duration) -> (Vec<StreamRow>, Option<JobView>) {
        let mut state = self.state.lock().expect("progress lock");
        if state.rows.len() <= seen && state.settled.is_none() {
            let (guard, _) = self.cv.wait_timeout(state, timeout).expect("progress lock");
            state = guard;
        }
        let rows = state.rows.get(seen..).unwrap_or(&[]).to_vec();
        (rows, state.settled.as_ref().map(|(view, _)| view.clone()))
    }

    /// `read` of the terminal view and the instant it was written, once
    /// the job has settled.
    fn settled<R>(&self, read: impl FnOnce(&(JobView, Instant)) -> R) -> Option<R> {
        let state = self.state.lock().expect("progress lock");
        state.settled.as_ref().map(read)
    }

    /// Blocks until the job settles — or, once `deadline` passes, settles
    /// it canceled: shutdown must terminate. Returns whether the job
    /// ended canceled.
    fn settle_by(&self, deadline: Instant) -> bool {
        let state = self.state.lock().expect("progress lock");
        let left = deadline.saturating_duration_since(Instant::now());
        let waited = self
            .cv
            .wait_timeout_while(state, left, |state| state.settled.is_none());
        drop(waited.expect("progress lock"));
        // A no-op for a job that settled in time.
        self.finish(Vec::new(), JobView::Canceled);
        self.settled(|(view, _)| *view == JobView::Canceled) == Some(true)
    }
}

/// A fresh progress of `total` rows plus the engine observer that feeds
/// it each harvested item. The observer holds the progress weakly: once
/// the job's entry expires, pushes from an execution another client
/// re-triggered go nowhere.
fn feed<T: RenderRow + Clone + 'static>(
    total: usize,
    pending: &Arc<AtomicUsize>,
) -> (Arc<Progress>, Observer<T>) {
    let progress = Arc::new(Progress::new(total, pending));
    let feed: Weak<Progress> = Arc::downgrade(&progress);
    let observer = Observer::new(move |index, item: &T| {
        if let Some(progress) = feed.upgrade() {
            progress.push(index, StreamRow::new(item));
        }
    });
    (progress, observer)
}

struct JobEntry {
    progress: Arc<Progress>,
    /// When the job was submitted; drives the `age_ms` backoff hint and
    /// the pending-age cap.
    created: Instant,
    /// Already counted in [`JobTableStats::expired`] (a pending job
    /// canceled by the pending-age cap); its eventual TTL drop must not
    /// count it twice.
    counted_expired: bool,
}

impl JobEntry {
    /// Ages the entry to `now`: a job still unresolved `pending_ttl`
    /// after its submit is settled canceled (the pending-age cap), and a
    /// job settled `ttl` ago is due for removal. Returns whether the
    /// entry stays, and whether this call expired the job — each job
    /// expires at most once.
    fn age(&mut self, now: Instant, ttl: Duration, pending_ttl: Duration) -> (bool, bool) {
        let capped = now.duration_since(self.created) >= pending_ttl
            && self.progress.finish(Vec::new(), JobView::Canceled);
        let stays = self
            .progress
            .settled(|&(_, at)| now.duration_since(at) < ttl)
            .unwrap_or(true);
        let expired = capped || (!stays && !self.counted_expired);
        self.counted_expired |= expired;
        (stays, expired)
    }
}

/// Why a submit was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backpressure {
    /// The configured pending-job bound that was hit.
    pub capacity: usize,
}

/// Aggregate table counters for `GET /v1/stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobTableStats {
    /// Jobs currently pending.
    pub pending: usize,
    /// Settled jobs still within their expiry window.
    pub settled: usize,
    /// Submits refused with backpressure since start.
    pub rejected: u64,
    /// Jobs ever accepted.
    pub submitted: u64,
    /// Settled jobs dropped by TTL expiry since start — the table's
    /// churn rate.
    pub expired: u64,
}

/// The bounded, expiring id → job map. Internally synchronized; the
/// server shares one behind an `Arc`.
pub struct JobTable {
    inner: Mutex<Inner>,
    /// Jobs submitted and not yet settled, released by each job's
    /// [`Progress`] as it settles: exact without the table lock. A bare
    /// count that publishes no other data, hence `Relaxed`.
    pending: Arc<AtomicUsize>,
    capacity: usize,
    ttl: Duration,
    /// The pending-age cap: [`PENDING_TTL`] outside tests.
    pending_ttl: Duration,
}

/// The pending-age cap: generous enough for any real composite (cold
/// 1000-die lots finish in seconds), small enough that a wedged handle
/// frees its capacity slice the same hour it was leaked.
const PENDING_TTL: Duration = Duration::from_secs(3600);

/// How long shutdown waits, in all, for the table's jobs to settle
/// before settling the rest canceled.
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);

struct Inner {
    jobs: HashMap<u64, JobEntry>,
    next_id: u64,
    rejected: u64,
    submitted: u64,
    expired: u64,
}

impl JobTable {
    /// A table admitting at most `capacity` concurrently-pending jobs and
    /// dropping settled jobs `ttl` after they resolve.
    pub fn new(capacity: usize, ttl: Duration) -> JobTable {
        JobTable {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                next_id: 1,
                rejected: 0,
                submitted: 0,
                expired: 0,
            }),
            pending: Arc::new(AtomicUsize::new(0)),
            capacity,
            ttl,
            pending_ttl: PENDING_TTL,
        }
    }

    /// Submits one request on the session's pool and returns its job id,
    /// or refuses with [`Backpressure`] when `capacity` jobs are already
    /// pending. Expired jobs are purged first, so a full table recovers
    /// on its own as work drains. The four composite requests get an
    /// [`Observer`] attached so their rows feed the job's [`Progress`]
    /// live; every job gets a resolve hook that settles it.
    pub fn submit(&self, session: &Session, request: RequestKind) -> Result<u64, Backpressure> {
        // Build the progress (and, for composites, wire the observer)
        // before taking the table lock: the observer closure only touches
        // the progress's own lock, never the table's.
        let pending = &self.pending;
        let (request, progress) = match request {
            RequestKind::Sweep(sweep) => {
                let (progress, observer) = feed(sweep.row_count(), pending);
                (RequestKind::Sweep(sweep.observe_rows(observer)), progress)
            }
            RequestKind::Repair(repair) => {
                let (progress, observer) = feed(repair.die_count(), pending);
                (RequestKind::Repair(repair.observe_dies(observer)), progress)
            }
            RequestKind::Optimize(optimize) => {
                let (progress, observer) = feed(optimize.candidate_count(), pending);
                let optimize = optimize.observe_candidates(observer);
                (RequestKind::Optimize(optimize), progress)
            }
            RequestKind::Macro(makro) => {
                let (progress, observer) = feed(makro.slice_count(), pending);
                (RequestKind::Macro(makro.observe_slices(observer)), progress)
            }
            other => (other, Arc::new(Progress::new(0, pending))),
        };
        let mut inner = self.inner.lock().expect("job table lock");
        let now = Instant::now();
        inner.refresh(now, self.ttl, self.pending_ttl);
        if pending.load(Ordering::Relaxed) >= self.capacity {
            inner.rejected += 1;
            return Err(Backpressure {
                capacity: self.capacity,
            });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.submitted += 1;
        // Count the job before its hook can release it: a job that has
        // already resolved runs the hook inline, right here.
        pending.fetch_add(1, Ordering::Relaxed);
        let settles = progress.clone();
        session.submit(request).on_resolve(move |result| {
            // Runs on whichever thread resolves the job, and must never
            // take the table lock: `submit` holds it right here.
            let rows = backfill_rows(&result);
            settles.finish(rows, settle(result));
        });
        inner.jobs.insert(
            id,
            JobEntry {
                progress,
                created: now,
                counted_expired: false,
            },
        );
        Ok(id)
    }

    /// The job's current state. A pure read — jobs settle when they
    /// resolve, not when they are polled — and O(1): only the polled
    /// entry is aged, with a single `Instant::now()` per call, because
    /// poll loops are the protocol's hottest path.
    pub fn poll(&self, id: u64) -> Polled {
        let inner = &mut *self.inner.lock().expect("job table lock");
        let now = Instant::now();
        let Some(entry) = inner.jobs.get_mut(&id) else {
            return if id >= 1 && id < inner.next_id {
                Polled::Expired
            } else {
                Polled::Unknown
            };
        };
        let (stays, expired) = entry.age(now, self.ttl, self.pending_ttl);
        inner.expired += u64::from(expired);
        if !stays {
            inner.jobs.remove(&id);
            return Polled::Expired;
        }
        match entry.progress.settled(|(view, _)| view.clone()) {
            Some(view) => Polled::Settled(view),
            None => Polled::Pending {
                age_ms: now.duration_since(entry.created).as_millis() as u64,
                queued: self.pending.load(Ordering::Relaxed),
            },
        }
    }

    /// The job's live [`Progress`] handle, for `/stream`; the `Err`
    /// carries the same unknown/expired distinction as [`JobTable::poll`].
    pub fn watch(&self, id: u64) -> Result<Arc<Progress>, Polled> {
        let inner = self.inner.lock().expect("job table lock");
        match inner.jobs.get(&id) {
            Some(entry) => Ok(entry.progress.clone()),
            None if id >= 1 && id < inner.next_id => Err(Polled::Expired),
            None => Err(Polled::Unknown),
        }
    }

    /// Table counters for the stats endpoint.
    pub fn stats(&self) -> JobTableStats {
        let mut inner = self.inner.lock().expect("job table lock");
        inner.refresh(Instant::now(), self.ttl, self.pending_ttl);
        let pending = self.pending.load(Ordering::Relaxed);
        JobTableStats {
            pending,
            settled: inner.jobs.len() - pending,
            rejected: inner.rejected,
            submitted: inner.submitted,
            expired: inner.expired,
        }
    }

    /// Blocks until every job has settled — the session's pool has been
    /// shut down, so queued jobs cancel and their hooks fire — and
    /// returns how many of the table's jobs ended canceled. All jobs
    /// share one deadline, past which any job still unresolved is settled
    /// canceled: shutdown must terminate. Called once during server
    /// shutdown, after the engine's last live handle is dropped.
    pub fn drain_canceled(&self) -> usize {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        // Waiting under the table lock is safe: resolve hooks never take it.
        let inner = self.inner.lock().expect("job table lock");
        inner
            .jobs
            .values()
            .filter(|entry| entry.progress.settle_by(deadline))
            .count()
    }
}

impl Inner {
    /// Ages every entry (see [`JobEntry::age`]), dropping the expired
    /// ones.
    fn refresh(&mut self, now: Instant, ttl: Duration, pending_ttl: Duration) {
        let mut expired = 0;
        self.jobs.retain(|_, entry| {
            let (stays, newly) = entry.age(now, ttl, pending_ttl);
            expired += u64::from(newly);
            stays
        });
        self.expired += expired;
    }
}

/// The full row list a settled composite result implies (none for other
/// requests) — what a whole-report cache hit back-fills into the
/// progress feed in place of the observer rows that never fired.
fn backfill_rows(result: &Result<ResponseKind, CnfetError>) -> Vec<StreamRow> {
    fn rows<T: RenderRow + Clone + 'static>(items: &[T]) -> Vec<StreamRow> {
        items.iter().map(StreamRow::new).collect()
    }
    match result {
        Ok(ResponseKind::Sweep(report)) => rows(&report.rows),
        Ok(ResponseKind::Repair(report)) => rows(&report.dies),
        Ok(ResponseKind::Optimize(report)) => rows(&report.candidates),
        Ok(ResponseKind::Macro(report)) => rows(&report.slices),
        _ => Vec::new(),
    }
}

/// Renders a resolved job outcome once; polls and streams replay the
/// rendering.
fn settle(result: Result<ResponseKind, CnfetError>) -> JobView {
    match result {
        Ok(response) => JobView::Done(wire::render_response(&response)),
        Err(CnfetError::Canceled) => JobView::Canceled,
        Err(error) => {
            let (status, body) = wire::error_response(&error);
            JobView::Failed(status, body)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnfet::core::StdCellKind;
    use cnfet::CellRequest;

    fn cell() -> RequestKind {
        RequestKind::from(CellRequest::new(StdCellKind::Inv))
    }

    fn settled(table: &JobTable, id: u64) -> JobView {
        loop {
            match table.poll(id) {
                Polled::Pending { .. } => std::thread::yield_now(),
                Polled::Settled(view) => break view,
                other => panic!("job {id} vanished while pending: {other:?}"),
            }
        }
    }

    #[test]
    fn submit_poll_round_trip_and_expiry() {
        let session = Session::new();
        let table = JobTable::new(8, Duration::from_millis(40));
        let id = table.submit(&session, cell()).unwrap();
        let done = settled(&table, id);
        let JobView::Done(body) = done else {
            panic!("expected Done, got {done:?}");
        };
        assert_eq!(body.get("type").unwrap().as_str(), Some("cell"));
        // Settled polls replay the same outcome until the ttl expires.
        assert!(matches!(table.poll(id), Polled::Settled(JobView::Done(_))));
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(table.poll(id), Polled::Expired, "issued ids expire");
        assert_eq!(table.poll(9999), Polled::Unknown, "unissued ids 404");
        assert!(table.stats().expired >= 1, "expiry is counted");
    }

    #[test]
    fn jobs_settle_when_they_resolve_without_a_poll() {
        let session = Session::new();
        let table = JobTable::new(8, Duration::from_secs(5));
        let sweep = RequestKind::from(
            cnfet::SweepRequest::new([StdCellKind::Inv])
                .metrics(cnfet::SweepMetrics::IMMUNITY)
                .grid(cnfet::VariationGrid::nominal().seeds([3, 4]))
                .mc(cnfet::immunity::McOptions {
                    tubes: 60,
                    ..Default::default()
                }),
        );
        // A cold run, then the same sweep as a whole-report cache hit.
        for _ in 0..2 {
            let id = table.submit(&session, sweep.clone()).unwrap();
            let progress = table.watch(id).expect("job exists");
            // Nothing polls: the engine's resolve hook alone must settle
            // the job and back-fill its rows, well within the deadline.
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut seen = 0;
            let view = loop {
                let left = deadline.saturating_duration_since(Instant::now());
                assert!(!left.is_zero(), "job {id} never settled unpolled");
                let (rows, finished) = progress.wait(seen, left);
                seen += rows.len();
                if let Some(view) = finished {
                    break view;
                }
            };
            assert_eq!(seen, 2, "every row arrives before the terminal view");
            assert!(matches!(view, JobView::Done(_)), "{view:?}");
            assert_eq!(table.stats().pending, 0, "settling released the slot");
        }
    }

    #[test]
    fn pending_polls_carry_backoff_metadata() {
        let session = Session::new();
        let table = JobTable::new(8, Duration::from_secs(5));
        let id = table.submit(&session, cell()).unwrap();
        // The job may settle arbitrarily fast; only a pending poll (if
        // we catch one) must carry the metadata.
        if let Polled::Pending { queued, .. } = table.poll(id) {
            assert!(queued >= 1, "the pending job itself counts");
        }
        settled(&table, id);
    }

    #[test]
    fn zero_capacity_refuses_every_submit() {
        let session = Session::new();
        let table = JobTable::new(0, Duration::from_secs(5));
        assert_eq!(
            table.submit(&session, cell()),
            Err(Backpressure { capacity: 0 })
        );
        assert_eq!(table.stats().rejected, 1);
    }

    #[test]
    fn capacity_frees_as_jobs_settle() {
        let session = Session::new();
        let table = JobTable::new(1, Duration::from_secs(5));
        let id = table.submit(&session, cell()).unwrap();
        // Resolve the first job so the pending count returns to zero.
        settled(&table, id);
        table
            .submit(&session, cell())
            .expect("capacity freed once the first job settled");
        let stats = table.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn sweep_progress_streams_rows_then_finishes() {
        let session = Session::new();
        let table = JobTable::new(8, Duration::from_secs(5));
        let sweep = RequestKind::from(
            cnfet::SweepRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)])
                .metrics(cnfet::SweepMetrics::IMMUNITY)
                .grid(cnfet::VariationGrid::nominal().seeds([1, 2]))
                .mc(cnfet::immunity::McOptions {
                    tubes: 60,
                    ..Default::default()
                }),
        );
        let id = table.submit(&session, sweep.clone()).unwrap();
        let progress = table.watch(id).expect("job exists");
        assert_eq!(progress.total(), 4);
        let mut seen = 0;
        let view = loop {
            let (rows, finished) = progress.wait(seen, Duration::from_millis(10));
            seen += rows.len();
            if let Some(view) = finished {
                break view;
            }
        };
        assert_eq!(seen, 4, "every row streams before the terminal view");
        let JobView::Done(body) = view else {
            panic!("sweep failed: {view:?}");
        };
        assert_eq!(body.get("rows").unwrap().as_arr().unwrap().len(), 4);

        // The same sweep again is a whole-report cache hit — the
        // observer never fires, so the rows must back-fill at settle.
        let id = table.submit(&session, sweep).unwrap();
        let progress = table.watch(id).expect("job exists");
        settled(&table, id);
        let (rows, finished) = progress.wait(0, Duration::from_millis(10));
        assert_eq!(rows.len(), 4, "cache-hit jobs back-fill every row");
        assert!(finished.is_some());
    }

    #[test]
    fn repair_progress_streams_die_rows_then_finishes() {
        let session = Session::new();
        let table = JobTable::new(8, Duration::from_secs(5));
        let repair = RequestKind::from(
            cnfet::RepairRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)])
                .dies(3)
                .spares(1)
                .base_seed(11),
        );
        let id = table.submit(&session, repair.clone()).unwrap();
        let progress = table.watch(id).expect("job exists");
        assert_eq!(progress.total(), 3);
        let mut seen = 0;
        let mut dies_streamed = 0;
        let view = loop {
            let (rows, finished) = progress.wait(seen, Duration::from_millis(10));
            seen += rows.len();
            dies_streamed += rows
                .iter()
                .filter(|row| row.frame(0)[0] == crate::encode::FRAME_DIE)
                .count();
            if let Some(view) = finished {
                break view;
            }
        };
        assert_eq!(seen, 3, "every die streams before the terminal view");
        assert_eq!(dies_streamed, 3, "repair jobs stream die rows");
        let JobView::Done(body) = view else {
            panic!("repair failed: {view:?}");
        };
        assert_eq!(body.get("type").unwrap().as_str(), Some("repair"));
        assert_eq!(body.get("dies").unwrap().as_arr().unwrap().len(), 3);

        // The same lot again is a whole-report cache hit — the observer
        // never fires, so the die rows must back-fill at settle.
        let id = table.submit(&session, repair).unwrap();
        let progress = table.watch(id).expect("job exists");
        settled(&table, id);
        let (rows, finished) = progress.wait(0, Duration::from_millis(10));
        assert_eq!(rows.len(), 3, "cache-hit jobs back-fill every die row");
        assert!(finished.is_some());
    }

    #[test]
    fn optimize_progress_streams_candidate_rows_then_finishes() {
        let session = Session::new();
        let table = JobTable::new(8, Duration::from_secs(5));
        let optimize = RequestKind::from(
            cnfet::OptimizeRequest::new([StdCellKind::Inv])
                .grid(cnfet::VariationGrid::nominal().tube_counts([6, 26]))
                .passes(1)
                .metrics(cnfet::SweepMetrics::IMMUNITY)
                .mc(cnfet::immunity::McOptions {
                    tubes: 60,
                    ..Default::default()
                }),
        );
        let id = table.submit(&session, optimize.clone()).unwrap();
        let progress = table.watch(id).expect("job exists");
        assert_eq!(progress.total(), 4, "2 tube + 1 pitch + 1 metallic");
        let mut seen = 0;
        let mut candidates_streamed = 0;
        let view = loop {
            let (rows, finished) = progress.wait(seen, Duration::from_millis(10));
            seen += rows.len();
            candidates_streamed += rows
                .iter()
                .filter(|row| row.json().get("score").is_some())
                .count();
            if let Some(view) = finished {
                break view;
            }
        };
        assert_eq!(seen, 4, "every candidate streams before the terminal view");
        assert_eq!(
            candidates_streamed, 4,
            "optimize jobs stream candidate rows"
        );
        let JobView::Done(body) = view else {
            panic!("optimize failed: {view:?}");
        };
        assert_eq!(body.get("type").unwrap().as_str(), Some("optimize"));
        assert_eq!(body.get("candidates").unwrap().as_arr().unwrap().len(), 4);

        // The same search again is a whole-trajectory cache hit — the
        // observer never fires, so the candidates must back-fill.
        let id = table.submit(&session, optimize).unwrap();
        let progress = table.watch(id).expect("job exists");
        settled(&table, id);
        let (rows, finished) = progress.wait(0, Duration::from_millis(10));
        assert_eq!(rows.len(), 4, "cache-hit jobs back-fill every candidate");
        assert!(finished.is_some());
    }

    #[test]
    fn over_age_pending_jobs_settle_canceled_and_count_expired() {
        let session = cnfet::SessionBuilder::new().batch_workers(1).build();
        // Zero pending cap: any job still unresolved at its first poll
        // is over-age. Before the cap, this entry would stay Pending —
        // holding its capacity slice — forever.
        let mut table = JobTable::new(8, Duration::from_millis(40));
        table.pending_ttl = Duration::ZERO;
        let slow = RequestKind::from(
            cnfet::SweepRequest::new([StdCellKind::Aoi22])
                .metrics(cnfet::SweepMetrics::IMMUNITY)
                .grid(cnfet::VariationGrid::nominal().seeds([99]))
                .mc(cnfet::immunity::McOptions {
                    tubes: 30_000,
                    ..Default::default()
                }),
        );
        let id = table.submit(&session, slow).unwrap();
        assert_eq!(table.poll(id), Polled::Settled(JobView::Canceled));
        let stats = table.stats();
        assert_eq!(stats.pending, 0, "the canceled job frees its slot");
        assert_eq!(stats.expired, 1, "the pending expiry is counted");
        // A streamer waiting on the job sees the terminal view, not a
        // hang.
        let progress = table.watch(id).expect("entry still serves polls");
        let (_, finished) = progress.wait(0, Duration::from_millis(10));
        assert_eq!(finished, Some(JobView::Canceled));
        // The settled entry's eventual TTL drop must not count it twice.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(table.poll(id), Polled::Expired);
        assert_eq!(table.stats().expired, 1, "each job expires once");
    }

    #[test]
    fn drain_cancels_queued_jobs_when_the_engine_dies() {
        // One pool worker, a queue of slow sweeps, and the session
        // dropped underneath: drain must settle everything, counting the
        // never-run tail as canceled.
        let session = cnfet::SessionBuilder::new().batch_workers(1).build();
        let table = JobTable::new(64, Duration::from_secs(5));
        // Distinct seeds: identical sweeps would single-flight into one
        // execution plus three instant cache hits, defeating the test.
        for seed in 0..4 {
            let slow = RequestKind::from(
                cnfet::SweepRequest::new([StdCellKind::Aoi22])
                    .metrics(cnfet::SweepMetrics::IMMUNITY)
                    .grid(cnfet::VariationGrid::nominal().seeds([seed]))
                    .mc(cnfet::immunity::McOptions {
                        tubes: 30_000,
                        ..Default::default()
                    }),
            );
            table.submit(&session, slow).unwrap();
        }
        drop(session);
        let canceled = table.drain_canceled();
        assert!(canceled >= 1, "queued jobs cancel when the session dies");
        let stats = table.stats();
        assert_eq!(stats.pending, 0, "drain settles everything");
    }
}
