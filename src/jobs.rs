//! The session's one executor — a persistent pool of workers over one
//! FIFO job queue — and the [`JobHandle`] it returns.
//!
//! Every multi-request path enqueues through one step that probes the
//! cache on the calling thread first: a request whose answer is cached
//! gets a [`JobHandle`] that is resolved from the start and never
//! becomes a job; only misses run here. [`Session::submit`] and
//! [`Session::submit_all`] hand the handles back to the caller, while
//! [`Session::run_batch`] and the four composite requests (sweep,
//! repair, optimize, macro) harvest theirs through the session's
//! ordered fan-out, helping their own batch while they wait. This
//! std-only module provides:
//!
//! * [`Pool`] — a lazily-started set of worker threads, persistent:
//!   workers park on a condvar when idle and live as long as the
//!   session. Workers pop the front of one shared queue, so whichever
//!   thread is free takes the next job and a skewed tail of expensive
//!   jobs never pins one thread; a caller waiting on its own batch
//!   takes that batch's frontmost job from the same queue.
//! * [`JobHandle`] — the caller's side of one submitted request: [`wait`],
//!   [`try_get`], [`wait_timeout`], [`is_done`] to pull the result, or
//!   [`on_resolve`] to have it pushed to a callback the moment the job
//!   resolves. A cache hit's handle holds its result inline and answers
//!   like a finished job. Dropping a handle never cancels the job — the
//!   work still runs and still populates the session cache. A fill wakes
//!   the handle's condvar only when a thread is parked on it.
//! * [`Completion`] — the worker's side. It resolves the handle exactly
//!   once, *even when the job never runs*: if the job is dropped unrun
//!   (session shut down) or panics on a worker, the completion's `Drop`
//!   resolves the handle with [`CnfetError::Canceled`] instead of
//!   stranding a waiter or a registered callback.
//!
//! [`Session::submit`]: crate::Session::submit
//! [`Session::submit_all`]: crate::Session::submit_all
//! [`Session::run_batch`]: crate::Session::run_batch
//! [`wait`]: JobHandle::wait
//! [`try_get`]: JobHandle::try_get
//! [`wait_timeout`]: JobHandle::wait_timeout
//! [`is_done`]: JobHandle::is_done
//! [`on_resolve`]: JobHandle::on_resolve

use crate::error::{CnfetError, Result};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A unit of work queued on the pool, tagged with the submission batch it
/// belongs to. The tag is what makes *targeted helping* safe: a caller
/// draining the queue while it waits runs only jobs of its own batch —
/// never an arbitrary queued job, which could itself block on the very
/// single-flight claim the helper is holding (a re-entrant deadlock).
pub(crate) struct Job {
    /// Batch the job was submitted under.
    pub(crate) batch: u64,
    /// The work itself.
    pub(crate) run: Box<dyn FnOnce() + Send>,
}

/// Allocates a fresh nonzero batch id (process-global, so ids never
/// collide across sessions).
pub(crate) fn next_batch_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Job handles
// ---------------------------------------------------------------------------

/// One job's result slot, shared between its [`JobHandle`] and its
/// [`Completion`].
enum Slot<T> {
    /// The job has not resolved yet.
    Pending,
    /// The job has not resolved yet; its result goes to this callback.
    Hooked(Box<dyn FnOnce(Result<T>) + Send>),
    /// The job resolved; the result awaits collection.
    Ready(Result<T>),
    /// The result was collected, or handed to the hook.
    Taken,
}

/// The slot and the number of threads parked on it, under one mutex, so
/// a fill wakes the condvar only when someone waits on it.
struct Guarded<T> {
    slot: Slot<T>,
    waiters: usize,
}

struct JobState<T> {
    guarded: Mutex<Guarded<T>>,
    done: Condvar,
}

impl<T> JobState<T> {
    fn lock(&self) -> MutexGuard<'_, Guarded<T>> {
        self.guarded.lock().expect("job slot lock")
    }

    /// Resolves the slot exactly once (later fills are ignored), running
    /// a registered hook after the slot lock is released.
    fn fill(&self, result: Result<T>) {
        let mut guarded = self.lock();
        match std::mem::replace(&mut guarded.slot, Slot::Taken) {
            Slot::Pending => {
                guarded.slot = Slot::Ready(result);
                let parked = guarded.waiters > 0;
                drop(guarded);
                if parked {
                    self.done.notify_all();
                }
            }
            Slot::Hooked(hook) => {
                drop(guarded);
                hook(result);
            }
            resolved => guarded.slot = resolved,
        }
    }

    /// Parks on the condvar, for at most `timeout` when one is given,
    /// counted in `waiters` while parked.
    fn park<'a>(
        &'a self,
        mut guarded: MutexGuard<'a, Guarded<T>>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, Guarded<T>> {
        guarded.waiters += 1;
        let mut guarded = match timeout {
            None => self.done.wait(guarded).expect("job slot lock"),
            Some(timeout) => {
                self.done
                    .wait_timeout(guarded, timeout)
                    .expect("job slot lock")
                    .0
            }
        };
        guarded.waiters -= 1;
        guarded
    }
}

/// The caller's side of one request handed to
/// [`Session::submit`](crate::Session::submit): a non-blocking future for
/// the request's output. A request whose answer was already cached gets
/// a handle that is resolved from the start; any other is a pool job's.
///
/// The result is collected **exactly once** — by [`wait`](Self::wait),
/// [`on_resolve`](Self::on_resolve), or the first [`try_get`](Self::try_get)
/// or [`wait_timeout`](Self::wait_timeout) that returns `Some`. Dropping the
/// handle abandons the result but not the job: the work still runs and
/// still populates the session cache for later requests.
pub struct JobHandle<T> {
    inner: Handle<T>,
}

enum Handle<T> {
    /// Resolved when created: the result until it is collected. No
    /// job, no shared slot.
    Resolved(Option<Result<T>>),
    /// A pool job's slot, shared with its [`Completion`].
    Queued(Arc<JobState<T>>),
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").finish_non_exhaustive()
    }
}

impl<T> JobHandle<T> {
    /// A handle that is resolved from the start: it answers like a
    /// finished job whose output has not been collected yet.
    pub(crate) fn resolved(output: T) -> JobHandle<T> {
        JobHandle {
            inner: Handle::Resolved(Some(Ok(output))),
        }
    }

    /// Whether the job has resolved (successfully, with an error, or
    /// canceled). Non-blocking.
    pub fn is_done(&self) -> bool {
        match &self.inner {
            Handle::Resolved(_) => true,
            Handle::Queued(state) => !matches!(state.lock().slot, Slot::Pending),
        }
    }

    /// Collects the result if the job has resolved; `None` while it is
    /// still pending (or if the result was already collected).
    /// Non-blocking.
    pub fn try_get(&mut self) -> Option<Result<T>> {
        match &mut self.inner {
            Handle::Resolved(result) => result.take(),
            Handle::Queued(state) => take(&mut state.lock().slot),
        }
    }

    /// Blocks until the job resolves and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the result was already collected by an earlier
    /// [`try_get`](Self::try_get) or [`wait_timeout`](Self::wait_timeout).
    pub fn wait(self) -> Result<T> {
        let state = match self.inner {
            Handle::Resolved(result) => return result.expect("job result was already collected"),
            Handle::Queued(state) => state,
        };
        let mut guarded = state.lock();
        while matches!(guarded.slot, Slot::Pending) {
            guarded = state.park(guarded, None);
        }
        take(&mut guarded.slot).expect("job result was already collected")
    }

    /// Blocks for at most `timeout` for the job to resolve. Returns the
    /// result, or `None` if the timeout expired first (the handle stays
    /// valid — wait again or poll later). Also returns `None` if the
    /// result was already collected.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<T>> {
        let state = match &mut self.inner {
            Handle::Resolved(result) => return result.take(),
            Handle::Queued(state) => state,
        };
        let deadline = Instant::now() + timeout;
        let mut guarded = state.lock();
        loop {
            if !matches!(guarded.slot, Slot::Pending) {
                return take(&mut guarded.slot);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            guarded = state.park(guarded, Some(deadline - now));
        }
    }

    /// Hands the result to `f` exactly once, the moment the job resolves:
    /// at once if it already has, else on the thread that resolves it —
    /// the worker, or whoever drops the job unrun (`f` gets
    /// [`CnfetError::Canceled`]). `f` runs under no lock, and must not
    /// panic: for a job that panicked it runs while the worker unwinds.
    ///
    /// # Panics
    ///
    /// Panics if the result was already collected, like [`wait`](Self::wait).
    pub fn on_resolve(self, f: impl FnOnce(Result<T>) + Send + 'static) {
        let state = match self.inner {
            Handle::Resolved(result) => return f(result.expect("job result was already collected")),
            Handle::Queued(state) => state,
        };
        let mut guarded = state.lock();
        match std::mem::replace(&mut guarded.slot, Slot::Taken) {
            Slot::Pending => guarded.slot = Slot::Hooked(Box::new(f)),
            Slot::Ready(result) => {
                drop(guarded);
                f(result);
            }
            _ => panic!("job result was already collected"),
        }
    }
}

/// Moves a `Ready` result out of the slot, leaving `Taken`.
fn take<T>(slot: &mut Slot<T>) -> Option<Result<T>> {
    match std::mem::replace(slot, Slot::Taken) {
        Slot::Ready(result) => Some(result),
        other => {
            *slot = other;
            None
        }
    }
}

/// The worker's side of one job: resolves the paired [`JobHandle`]
/// exactly once. If dropped unresolved — the job was discarded unrun at
/// session shutdown, or the request panicked — the handle resolves to
/// [`CnfetError::Canceled`] so no waiter is ever stranded.
pub(crate) struct Completion<T> {
    state: Option<Arc<JobState<T>>>,
}

impl<T> Completion<T> {
    /// Resolves the handle with the job's outcome.
    pub(crate) fn complete(mut self, result: Result<T>) {
        if let Some(state) = self.state.take() {
            state.fill(result);
        }
    }
}

impl<T> Drop for Completion<T> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            state.fill(Err(CnfetError::Canceled));
        }
    }
}

/// A fresh completion/handle pair for one job.
pub(crate) fn job_channel<T>() -> (Completion<T>, JobHandle<T>) {
    let state = Arc::new(JobState {
        guarded: Mutex::new(Guarded {
            slot: Slot::Pending,
            waiters: 0,
        }),
        done: Condvar::new(),
    });
    (
        Completion {
            state: Some(state.clone()),
        },
        JobHandle {
            inner: Handle::Queued(state),
        },
    )
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// The pool's one queue and its shutdown flag, under one mutex, so a
/// worker that finds the queue empty and the flag clear parks before any
/// push or shutdown can notify it.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

impl Queue {
    /// Removes the frontmost job of `batch`.
    fn take_batch(&mut self, batch: u64) -> Option<Job> {
        let at = self.jobs.iter().position(|job| job.batch == batch)?;
        self.jobs.remove(at)
    }
}

struct PoolShared {
    queue: Mutex<Queue>,
    available: Condvar,
    steals: AtomicU64,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("pool queue lock")
    }
}

/// The persistent executor of a session's jobs: one FIFO queue shared
/// by the workers and the helping callers. Started lazily on the first
/// submission; shut down (draining the queue as cancellations) when the
/// session's last handle drops.
pub(crate) struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers.len())
            .field("steals", &self.steals())
            .finish()
    }
}

impl Pool {
    /// Starts `workers` (at least one) parked worker threads.
    pub(crate) fn new(workers: usize) -> Pool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            steals: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("cnfet-pool-{me}"))
                    .spawn(move || worker(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            workers: handles,
        }
    }

    /// Appends jobs to the queue under one lock. A lone job wakes one
    /// parked worker; a fan-out wakes them all, so a heterogeneous batch
    /// starts on every thread at once.
    pub(crate) fn submit(&self, jobs: Vec<Job>) {
        let count = jobs.len();
        self.shared.lock().jobs.extend(jobs);
        match count {
            0 => {}
            1 => self.shared.available.notify_one(),
            _ => self.shared.available.notify_all(),
        }
    }

    /// Jobs that waiting callers ran through [`Pool::help_run_one`] to
    /// help their own batch.
    pub(crate) fn steals(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Runs **one** queued job *of the given batch* on the calling
    /// thread — the frontmost one — if any is queued. Returns whether a
    /// job ran.
    ///
    /// This is the deadlock escape hatch of the session's fan-out: a
    /// caller that submitted a batch and waits for it — possibly a
    /// composite request executing *on* this pool — would otherwise
    /// park forever on handles nobody is left to serve when the worker
    /// set is bounded; instead it calls this in its wait loop and drains
    /// its own batch itself. Helping is restricted to that batch on
    /// purpose: an arbitrary queued job (say, a second copy of the same
    /// composite) can block on the single-flight claim the helping
    /// thread currently holds, which would deadlock the helper on
    /// itself. Sub-requests only ever wait *downward* (corners on cells,
    /// never on sweeps), so batch-targeted helping cannot cycle.
    /// Panicking jobs are contained exactly as on a worker (the job's
    /// `Completion` cancels its handle while unwinding).
    pub(crate) fn help_run_one(&self, batch: u64) -> bool {
        let Some(job) = self.shared.lock().take_batch(batch) else {
            return false;
        };
        self.shared.steals.fetch_add(1, Ordering::Relaxed);
        let _ = catch_unwind(AssertUnwindSafe(job.run));
        true
    }
}

impl Drop for Pool {
    /// Signals shutdown and joins the workers. Jobs still queued are
    /// popped by the draining workers, whose session upgrade fails, so
    /// every outstanding [`JobHandle`] resolves to
    /// [`CnfetError::Canceled`] rather than hanging.
    fn drop(&mut self) {
        // Set under the queue lock: a worker is either parked (and gets
        // the notification) or has yet to look (and sees the flag).
        self.shared.lock().shutdown = true;
        self.shared.available.notify_all();
        let current = std::thread::current().id();
        for handle in self.workers.drain(..) {
            // A job holding the last live reference to its session drops
            // the pool from inside a worker thread; joining that thread
            // from itself would deadlock — detach it instead (it exits on
            // its own once it has drained the queue and sees the flag).
            if handle.thread().id() == current {
                continue;
            }
            let _ = handle.join();
        }
    }
}

/// One worker: run the front job while there is one, park while the
/// queue is empty, and exit once it is empty after shutdown.
fn worker(shared: &PoolShared) {
    let mut queue = shared.lock();
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            // A panicking request must not kill the worker; the job's
            // Completion resolves the handle to Canceled while unwinding.
            let _ = catch_unwind(AssertUnwindSafe(job.run));
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.available.wait(queue).expect("pool queue lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    /// A test job in a batch of its own.
    fn job(run: impl FnOnce() + Send + 'static) -> Vec<Job> {
        vec![Job {
            batch: next_batch_id(),
            run: Box::new(run),
        }]
    }

    /// Registers an `on_resolve` hook that sends each result it gets
    /// down the returned channel, tagged with the thread it ran on.
    fn hook<T: Send + 'static>(
        handle: JobHandle<T>,
    ) -> mpsc::Receiver<(Result<T>, std::thread::ThreadId)> {
        let (tx, rx) = mpsc::channel();
        handle.on_resolve(move |result| {
            tx.send((result, std::thread::current().id())).unwrap();
        });
        rx
    }

    #[test]
    fn jobs_resolve_handles() {
        let pool = Pool::new(2);
        let handles: Vec<_> = (0..32)
            .map(|i| {
                let (completion, handle) = job_channel::<usize>();
                pool.submit(job(move || completion.complete(Ok(i * 2))));
                handle
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.wait().unwrap(), i * 2);
        }

        // A hook on an already-resolved job runs inline, exactly once.
        let (completion, handle) = job_channel::<usize>();
        completion.complete(Ok(5));
        let results = hook(handle);
        let (result, thread) = results.try_recv().expect("ran inline");
        assert_eq!(result.unwrap(), 5);
        assert_eq!(thread, std::thread::current().id());
        assert!(results.try_recv().is_err(), "the hook ran exactly once");
    }

    #[test]
    fn parked_waiters_are_woken_by_the_fill() {
        // A fill notifies only when its waiter count says someone is
        // parked: a parked `wait` and a parked `wait_timeout` must both
        // still wake, long before the timeout would expire.
        for timed in [false, true] {
            let (completion, handle) = job_channel::<u32>();
            let Handle::Queued(state) = &handle.inner else {
                unreachable!("a job's handle is queued")
            };
            let state = state.clone();
            let (tx, rx) = mpsc::channel();
            let waiter = std::thread::spawn(move || {
                let mut handle = handle;
                let result = if timed {
                    handle.wait_timeout(Duration::from_secs(600))
                } else {
                    Some(handle.wait())
                };
                tx.send(result.map(Result::unwrap)).unwrap();
            });
            while state.lock().waiters == 0 {
                std::thread::yield_now();
            }
            completion.complete(Ok(7));
            let woken = rx.recv_timeout(Duration::from_secs(30));
            assert_eq!(
                woken,
                Ok(Some(7)),
                "the parked waiter (timed: {timed}) woke"
            );
            waiter.join().unwrap();
            assert_eq!(state.lock().waiters, 0);
        }
    }

    #[test]
    fn dropped_unrun_jobs_cancel_their_handles() {
        let (completion, handle) = job_channel::<u32>();
        let unrun = job(move || completion.complete(Ok(1)));
        drop(unrun);
        assert!(matches!(handle.wait(), Err(CnfetError::Canceled)));

        // A hook registered before the drop gets the cancellation.
        let (completion, handle) = job_channel::<u32>();
        let results = hook(handle);
        let unrun = job(move || completion.complete(Ok(1)));
        assert!(results.try_recv().is_err(), "pending: the hook waits");
        drop(unrun);
        let (result, _) = results.try_recv().expect("ran at the drop");
        assert!(matches!(result, Err(CnfetError::Canceled)));
        assert!(results.try_recv().is_err(), "the hook ran exactly once");
    }

    #[test]
    fn panicking_job_cancels_instead_of_stranding() {
        let pool = Pool::new(1);
        let (completion, handle) = job_channel::<u32>();
        pool.submit(job(move || {
            let _keep = &completion;
            panic!("request blew up");
        }));
        assert!(matches!(handle.wait(), Err(CnfetError::Canceled)));
        // The same for a hook: the unwinding completion settles it.
        let (completion, handle) = job_channel::<u32>();
        let results = hook(handle);
        pool.submit(job(move || {
            let _keep = &completion;
            panic!("request blew up");
        }));
        let (result, _) = results.recv().unwrap();
        assert!(matches!(result, Err(CnfetError::Canceled)));
        // The worker survived the panic and still serves jobs.
        let (completion, handle) = job_channel::<u32>();
        pool.submit(job(move || completion.complete(Ok(7))));
        assert_eq!(handle.wait().unwrap(), 7);
    }

    #[test]
    fn try_get_and_timeout_semantics() {
        let pool = Pool::new(1);
        let gate = Arc::new(AtomicUsize::new(0));
        let (completion, mut handle) = job_channel::<u32>();
        let worker_gate = gate.clone();
        pool.submit(job(move || {
            while worker_gate.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            completion.complete(Ok(42));
        }));
        assert!(!handle.is_done());
        assert!(handle.try_get().is_none(), "pending → None");
        assert!(
            handle.wait_timeout(Duration::from_millis(5)).is_none(),
            "timeout expires while the job is gated"
        );
        gate.store(1, Ordering::Release);
        assert_eq!(
            handle
                .wait_timeout(Duration::from_secs(30))
                .expect("resolves once released")
                .unwrap(),
            42
        );
        assert!(handle.is_done());
        assert!(handle.try_get().is_none(), "result collected exactly once");

        // A hook on a pending job runs when the worker fills the slot —
        // on the worker's thread, exactly once.
        let gate = Arc::new(AtomicUsize::new(0));
        let (completion, handle) = job_channel::<u32>();
        let worker_gate = gate.clone();
        pool.submit(job(move || {
            while worker_gate.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            completion.complete(Ok(43));
        }));
        let results = hook(handle);
        assert!(results.try_recv().is_err(), "pending: the hook waits");
        gate.store(1, Ordering::Release);
        let (result, thread) = results.recv().unwrap();
        assert_eq!(result.unwrap(), 43);
        assert_ne!(thread, std::thread::current().id(), "ran on the worker");
        assert!(results.recv().is_err(), "the hook ran exactly once");
    }

    #[test]
    fn help_run_one_drains_only_its_batch() {
        // Gate the single worker on a job, queue a batch plus a foreign
        // job behind it, and drain from this thread via help_run_one —
        // the shape a composite request relies on. Only the targeted
        // batch may run; the foreign job must stay queued.
        let pool = Pool::new(1);
        let gate = Arc::new(AtomicUsize::new(0));
        let worker_gate = gate.clone();
        // Opens the gate if an assertion below fails, so the pool's drop
        // can join its worker and the test fails instead of hanging.
        struct OpenOnDrop(Arc<AtomicUsize>);
        impl Drop for OpenOnDrop {
            fn drop(&mut self) {
                self.0.store(1, Ordering::Release);
            }
        }
        let _open = OpenOnDrop(gate.clone());
        let (running, running_handle) = job_channel::<u32>();
        let started = Arc::new(AtomicUsize::new(0));
        let started_flag = started.clone();
        pool.submit(job(move || {
            started_flag.store(1, Ordering::Release);
            while worker_gate.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            running.complete(Ok(0));
        }));
        while started.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        let batch = next_batch_id();
        let (foreign_completion, mut foreign) = job_channel::<u32>();
        pool.submit(job(move || foreign_completion.complete(Ok(99))));
        let handles: Vec<_> = (1..=4u32)
            .map(|i| {
                let (completion, handle) = job_channel::<u32>();
                pool.submit(vec![Job {
                    batch,
                    run: Box::new(move || completion.complete(Ok(i))),
                }]);
                handle
            })
            .collect();
        let mut ran = 0;
        while pool.help_run_one(batch) {
            ran += 1;
        }
        assert_eq!(ran, 4, "helper drained exactly its batch");
        assert_eq!(pool.steals(), 4, "steals counts the helped jobs");
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.wait().unwrap(), i as u32 + 1);
        }
        assert!(
            foreign.try_get().is_none(),
            "the foreign job was not helped"
        );
        gate.store(1, Ordering::Release);
        assert_eq!(running_handle.wait().unwrap(), 0);
        assert_eq!(
            foreign
                .wait_timeout(Duration::from_secs(60))
                .unwrap()
                .unwrap(),
            99
        );
        assert!(!pool.help_run_one(batch), "nothing left to help with");
    }

    #[test]
    fn every_single_job_wakes_a_parked_worker() {
        // Nothing rescans the queue on a timer, so a lost wake-up would
        // strand a job for good. A short pause before each submission
        // lets the workers park first.
        for workers in [1, 2] {
            let pool = Pool::new(workers);
            for i in 0..200u32 {
                std::thread::sleep(Duration::from_micros(500));
                let (completion, mut handle) = job_channel::<u32>();
                pool.submit(job(move || completion.complete(Ok(i))));
                let result = handle.wait_timeout(Duration::from_secs(10));
                assert_eq!(
                    result.map(Result::unwrap),
                    Some(i),
                    "job {i} on a {workers}-worker pool resolved"
                );
            }
        }
    }

    #[test]
    fn pool_drop_cancels_queued_jobs() {
        let pool = Pool::new(1);
        let gate = Arc::new(AtomicUsize::new(0));
        let worker_gate = gate.clone();
        let (running, running_handle) = job_channel::<u32>();
        let started = Arc::new(AtomicUsize::new(0));
        let started_flag = started.clone();
        pool.submit(job(move || {
            started_flag.store(1, Ordering::Release);
            while worker_gate.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            running.complete(Ok(1));
        }));
        while started.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        // Queued behind the gated job; the pool drops before it runs.
        let (queued, queued_handle) = job_channel::<u32>();
        pool.submit(job(move || queued.complete(Ok(2))));
        gate.store(1, Ordering::Release);
        drop(pool);
        assert_eq!(running_handle.wait().unwrap(), 1, "in-flight job finished");
        // The queued job either ran before shutdown was observed or was
        // discarded and canceled — it must resolve either way.
        match queued_handle.wait() {
            Ok(2) | Err(CnfetError::Canceled) => {}
            other => panic!("queued job resolved unexpectedly: {other:?}"),
        }
    }
}
