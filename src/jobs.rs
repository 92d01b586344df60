//! The persistent work-stealing pool — the session's one executor —
//! and the [`JobHandle`] it returns.
//!
//! Every multi-request path runs here: [`Session::submit`] and
//! [`Session::submit_all`] hand the handles back to the caller, while
//! [`Session::run_batch`] and the four composite requests (sweep,
//! repair, optimize, macro) harvest theirs through the session's
//! ordered fan-out, helping their own batch while they wait. This
//! std-only module provides:
//!
//! * [`Pool`] — a lazily-started set of worker threads, persistent:
//!   workers park on a condvar when idle and live as long as the
//!   session. Each worker pops through [`next_item`]: its own deque
//!   front-to-back, then a chunk refilled from the shared FIFO
//!   injector, then the back half of the fullest other deque, so a
//!   skewed tail of expensive jobs is redistributed instead of pinning
//!   one thread.
//! * [`JobHandle`] — the caller's side of one submitted job: [`wait`],
//!   [`try_get`], [`wait_timeout`], [`is_done`] to pull the result, or
//!   [`on_resolve`] to have it pushed to a callback the moment the job
//!   resolves. Dropping a handle never cancels the job — the work still
//!   runs and still populates the session cache.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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

struct JobState<T> {
    slot: Mutex<Slot<T>>,
    done: Condvar,
}

impl<T> JobState<T> {
    /// Resolves the slot exactly once (later fills are ignored), running
    /// a registered hook after the slot lock is released.
    fn fill(&self, result: Result<T>) {
        let mut slot = self.slot.lock().expect("job slot lock");
        match std::mem::replace(&mut *slot, Slot::Taken) {
            Slot::Pending => {
                *slot = Slot::Ready(result);
                drop(slot);
                self.done.notify_all();
            }
            Slot::Hooked(hook) => {
                drop(slot);
                hook(result);
            }
            resolved => *slot = resolved,
        }
    }
}

/// The caller's side of one job submitted with
/// [`Session::submit`](crate::Session::submit): a non-blocking future for
/// the request's output.
///
/// The result is collected **exactly once** — by [`wait`](Self::wait),
/// [`on_resolve`](Self::on_resolve), or the first [`try_get`](Self::try_get)
/// or [`wait_timeout`](Self::wait_timeout) that returns `Some`. Dropping the
/// handle abandons the result but not the job: the work still runs and
/// still populates the session cache for later requests.
pub struct JobHandle<T> {
    state: Arc<JobState<T>>,
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").finish_non_exhaustive()
    }
}

impl<T> JobHandle<T> {
    /// Whether the job has resolved (successfully, with an error, or
    /// canceled). Non-blocking.
    pub fn is_done(&self) -> bool {
        !matches!(
            *self.state.slot.lock().expect("job slot lock"),
            Slot::Pending
        )
    }

    /// Collects the result if the job has resolved; `None` while it is
    /// still pending (or if the result was already collected).
    /// Non-blocking.
    pub fn try_get(&mut self) -> Option<Result<T>> {
        take(&mut self.state.slot.lock().expect("job slot lock"))
    }

    /// Blocks until the job resolves and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the result was already collected by an earlier
    /// [`try_get`](Self::try_get) or [`wait_timeout`](Self::wait_timeout).
    pub fn wait(self) -> Result<T> {
        let mut slot = self.state.slot.lock().expect("job slot lock");
        loop {
            if matches!(*slot, Slot::Pending) {
                slot = self.state.done.wait(slot).expect("job slot lock");
                continue;
            }
            return take(&mut slot).expect("job result was already collected");
        }
    }

    /// Blocks for at most `timeout` for the job to resolve. Returns the
    /// result, or `None` if the timeout expired first (the handle stays
    /// valid — wait again or poll later). Also returns `None` if the
    /// result was already collected.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<T>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.state.slot.lock().expect("job slot lock");
        loop {
            if !matches!(*slot, Slot::Pending) {
                return take(&mut slot);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timed_out) = self
                .state
                .done
                .wait_timeout(slot, deadline - now)
                .expect("job slot lock");
            slot = guard;
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
        let mut slot = self.state.slot.lock().expect("job slot lock");
        match std::mem::replace(&mut *slot, Slot::Taken) {
            Slot::Pending => *slot = Slot::Hooked(Box::new(f)),
            Slot::Ready(result) => {
                drop(slot);
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
        slot: Mutex::new(Slot::Pending),
        done: Condvar::new(),
    });
    (
        Completion {
            state: Some(state.clone()),
        },
        JobHandle { state },
    )
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// Backstop interval after which a parked worker rescans for stealable
/// work. Wakeups are event-driven — submissions and steal/refill residue
/// notify the condvar, and a worker scans every deque before parking —
/// so this only papers over the one unsynchronized window (items in
/// transit between deques at the exact park instant) and can be long.
const IDLE_RESCAN: Duration = Duration::from_millis(250);

struct PoolShared {
    injector: Mutex<VecDeque<Job>>,
    available: Condvar,
    locals: Vec<Mutex<VecDeque<Job>>>,
    steals: AtomicU64,
    shutdown: AtomicBool,
}

/// The persistent work-stealing executor of a session's jobs. Started
/// lazily on the first submission; shut down (draining the queue as
/// cancellations) when the session's last handle drops.
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
            injector: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            steals: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("cnfet-pool-{me}"))
                    .spawn(move || worker(&shared, me))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            workers: handles,
        }
    }

    /// Enqueues jobs under one injector lock. A lone job wakes one
    /// parked worker; a fan-out wakes them all, so a heterogeneous batch
    /// starts on every thread at once.
    pub(crate) fn submit(&self, jobs: Vec<Job>) {
        let count = jobs.len();
        self.shared
            .injector
            .lock()
            .expect("pool injector lock")
            .extend(jobs);
        match count {
            0 => {}
            1 => self.shared.available.notify_one(),
            _ => self.shared.available.notify_all(),
        }
    }

    /// Deque-to-deque steal operations performed so far.
    pub(crate) fn steals(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Runs **one** queued job *of the given batch* on the calling
    /// thread, if any is immediately available: the injector is scanned
    /// front to back, then every worker deque back to front. Returns
    /// whether a job ran.
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
        // Injector: FIFO, take the frontmost matching job. Worker
        // deques: take the hindmost, steal-style, so the helper contends
        // with the owning worker's `pop_front` as little as possible.
        let take_front = |queue: &Mutex<VecDeque<Job>>| -> Option<Job> {
            let mut queue = queue.lock().expect("pool queue lock");
            let at = queue.iter().position(|job| job.batch == batch)?;
            queue.remove(at)
        };
        let take_back = |queue: &Mutex<VecDeque<Job>>| -> Option<Job> {
            let mut queue = queue.lock().expect("pool queue lock");
            let at = queue.iter().rposition(|job| job.batch == batch)?;
            queue.remove(at)
        };
        let mut job = take_front(&self.shared.injector);
        if job.is_none() {
            // The batch's jobs may have been chunk-refilled or stolen
            // into a worker deque whose owner is itself blocked helping
            // a composite — their queued tails must stay reachable.
            for local in &self.shared.locals {
                job = take_back(local);
                if job.is_some() {
                    self.shared.steals.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        match job {
            Some(job) => {
                let _ = catch_unwind(AssertUnwindSafe(job.run));
                true
            }
            None => false,
        }
    }
}

impl Drop for Pool {
    /// Signals shutdown and joins the workers. Jobs still queued are
    /// popped by the draining workers, whose session upgrade fails, so
    /// every outstanding [`JobHandle`] resolves to
    /// [`CnfetError::Canceled`] rather than hanging.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Lock-and-release before notifying: a worker between its
        // shutdown check and its park holds the injector lock, so this
        // handshake guarantees it is either not yet parked (and will see
        // the flag) or parked (and receives the notification).
        drop(self.shared.injector.lock().expect("pool injector lock"));
        self.shared.available.notify_all();
        let current = std::thread::current().id();
        for handle in self.workers.drain(..) {
            // A job holding the last live reference to its session drops
            // the pool from inside a worker thread; joining that thread
            // from itself would deadlock — detach it instead (it exits on
            // its own once it observes the shutdown flag).
            if handle.thread().id() == current {
                continue;
            }
            let _ = handle.join();
        }
    }
}

/// Pops worker `me`'s next item: its own deque front-to-back; else a
/// small chunk refilled from the injector (keeping the tail available
/// to other workers while amortizing the injector lock); else the back
/// half of the fullest other deque. Whenever the call leaves extra
/// items in the worker's own deque (refill or steal residue) it wakes
/// the parked peers on `available`, so the residue is stealable at once.
fn next_item<T>(
    me: usize,
    injector: &Mutex<VecDeque<T>>,
    locals: &[Mutex<VecDeque<T>>],
    steals: &AtomicU64,
    available: &Condvar,
) -> Option<T> {
    if let Some(item) = locals[me].lock().expect("local deque lock").pop_front() {
        return Some(item);
    }

    // Refill from the injector.
    {
        let mut inj = injector.lock().expect("injector lock");
        if !inj.is_empty() {
            let chunk = (inj.len() / (2 * locals.len())).max(1).min(inj.len());
            let first = inj.pop_front().expect("non-empty injector");
            let mut residue = 0;
            {
                let mut local = locals[me].lock().expect("local deque lock");
                for _ in 1..chunk {
                    match inj.pop_front() {
                        Some(item) => {
                            local.push_back(item);
                            residue += 1;
                        }
                        None => break,
                    }
                }
            }
            drop(inj);
            if residue > 0 {
                available.notify_all();
            }
            return Some(first);
        }
    }

    // Steal the back half of the fullest victim deque.
    let victim = (0..locals.len())
        .filter(|&w| w != me)
        .max_by_key(|&w| locals[w].lock().expect("victim deque lock").len())?;
    let mut stolen: VecDeque<T> = {
        let mut v = locals[victim].lock().expect("victim deque lock");
        let keep = v.len() / 2;
        v.split_off(keep)
    };
    let first = stolen.pop_front()?;
    steals.fetch_add(1, Ordering::Relaxed);
    if !stolen.is_empty() {
        locals[me].lock().expect("local deque lock").extend(stolen);
        available.notify_all();
    }
    Some(first)
}

/// One worker: run everything reachable through [`next_item`], then
/// park until new work or shutdown.
fn worker(shared: &PoolShared, me: usize) {
    loop {
        while let Some(job) = next_item(
            me,
            &shared.injector,
            &shared.locals,
            &shared.steals,
            &shared.available,
        ) {
            // A panicking request must not kill the worker; the job's
            // Completion resolves the handle to Canceled while unwinding.
            let _ = catch_unwind(AssertUnwindSafe(job.run));
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let queue = shared.injector.lock().expect("pool injector lock");
        // Park only if there is truly nothing anywhere. Residue is
        // pushed under the injector lock (refill) or notified after the
        // push (steal), so scanning the deques while holding the
        // injector lock closes the lost-wakeup races; IDLE_RESCAN
        // backstops the remaining in-transit window.
        let nothing_to_do = queue.is_empty()
            && !shared.shutdown.load(Ordering::Acquire)
            && shared
                .locals
                .iter()
                .all(|local| local.lock().expect("local deque lock").is_empty());
        if nothing_to_do {
            let _ = shared
                .available
                .wait_timeout(queue, IDLE_RESCAN)
                .expect("pool injector lock");
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

    #[test]
    fn drains_everything_exactly_once() {
        let injector: Mutex<VecDeque<u32>> = Mutex::new((0..100).collect());
        let locals: Vec<Mutex<VecDeque<u32>>> =
            (0..4).map(|_| Mutex::new(VecDeque::new())).collect();
        let (steals, available) = (AtomicU64::new(0), Condvar::new());
        let mut seen = [false; 100];
        for me in (0..4).cycle() {
            match next_item(me, &injector, &locals, &steals, &available) {
                Some(item) => {
                    assert!(!seen[item as usize], "{item} popped twice");
                    seen[item as usize] = true;
                }
                None if seen.iter().all(|&s| s) => break,
                None => {}
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chunked_refill_leaves_residue_for_peers() {
        let injector: Mutex<VecDeque<u32>> = Mutex::new((0..64).collect());
        let locals: Vec<Mutex<VecDeque<u32>>> =
            (0..2).map(|_| Mutex::new(VecDeque::new())).collect();
        let (steals, available) = (AtomicU64::new(0), Condvar::new());
        let item = next_item(0, &injector, &locals, &steals, &available);
        assert_eq!(item, Some(0));
        let residue = locals[0].lock().unwrap().len();
        assert!(residue > 0, "the chunk left residue in worker 0's deque");
        // With the injector drained, worker 1 steals the residue's back
        // half rather than idling.
        injector.lock().unwrap().clear();
        let back_half_front = locals[0].lock().unwrap()[residue / 2];
        let stolen = next_item(1, &injector, &locals, &steals, &available);
        assert_eq!(stolen, Some(back_half_front));
        assert_eq!(steals.load(Ordering::Relaxed), 1);
    }
}
