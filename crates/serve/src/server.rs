//! The server: a bounded acceptor/worker loop around one shared
//! [`Session`], routing the wire protocol of [`crate::wire`].
//!
//! The threading model mirrors the engine's own job pool
//! (`cnfet::jobs`): one acceptor thread pushes connections onto a
//! bounded queue guarded by a `Mutex` + `Condvar`, and a fixed set of
//! worker threads pops them, each serving its connection's requests in a
//! keep-alive loop against the one shared session. Every worker
//! therefore hits the same sharded caches — the whole point: many remote
//! clients iterating the same co-optimization corners share one warm
//! cache.
//!
//! Shutdown is graceful and deadlock-free: [`Server::shutdown`] sets the
//! shutdown flag, unblocks the acceptor with a **connect-to-self**
//! wakeup (the `accept(2)` call has no other way to observe the flag),
//! joins every thread, drops the engine's last live handle (the
//! session's pool drains, canceling queued jobs), and finally drains
//! the job table: every accepted job settles, the never-run ones as
//! `canceled`, within one shared deadline.

use crate::encode::{self, Format};
use crate::http::{self, ReadError, Request};
use crate::jobtable::{JobTable, JobView, Polled};
use crate::json::{self, Json};
use crate::wire;
use cnfet::{RequestClass, ResponseKind, Session, SessionBuilder};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Everything a server run is configured by; the `cnfet-serve` binary
/// maps its flags onto this one-for-one.
///
/// # Example
///
/// ```
/// use cnfet_serve::ServeConfig;
///
/// let config = ServeConfig::default().cache_capacity(1 << 16).workers(8);
/// assert_eq!(config.cache_capacity, 1 << 16);
/// assert_eq!(config.addr, "127.0.0.1:8373");
/// ```
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`--addr`); port `0` binds an ephemeral port,
    /// reported by [`Server::addr`].
    pub addr: String,
    /// Per-class session cache bound (`--cache-capacity`); see
    /// [`SessionBuilder::cache_capacity`].
    pub cache_capacity: usize,
    /// Session cache lock stripes (`--cache-shards`); see
    /// [`SessionBuilder::cache_shards`].
    pub cache_shards: usize,
    /// HTTP worker threads (`--workers`); also the bound on concurrently
    /// served connections. `0` sizes to available parallelism.
    pub workers: usize,
    /// Engine executor threads (`--engine-workers`); see
    /// [`SessionBuilder::batch_workers`]. `0` sizes to available
    /// parallelism.
    pub engine_workers: usize,
    /// Pending-job bound of the submit table (`--job-capacity`); past
    /// it, `POST /v1/submit` answers `429`.
    pub job_capacity: usize,
    /// How long settled jobs stay pollable (`--job-ttl-secs`).
    pub job_ttl: Duration,
    /// Cache snapshot path (`--snapshot`). When set, the server
    /// warm-boots from the file if it exists (a corrupt or
    /// version-mismatched snapshot logs a warning and boots cold),
    /// flushes the file every [`snapshot_interval`](Self::snapshot_interval)
    /// while running, and writes a final snapshot on graceful shutdown —
    /// so a restarted server replays prior sweeps as pure cache hits
    /// even when the previous process died abruptly between flushes.
    pub snapshot: Option<PathBuf>,
    /// How often the background flusher persists the snapshot
    /// (`--snapshot-interval-secs`). Only meaningful with
    /// [`snapshot`](Self::snapshot) set.
    pub snapshot_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8373".to_string(),
            cache_capacity: cnfet::cache::DEFAULT_CAPACITY,
            cache_shards: cnfet::cache::DEFAULT_SHARDS,
            workers: 0,
            engine_workers: 0,
            job_capacity: 1024,
            job_ttl: Duration::from_secs(300),
            snapshot: None,
            snapshot_interval: Duration::from_secs(60),
        }
    }
}

impl ServeConfig {
    /// Replaces the listen address.
    #[must_use]
    pub fn addr(mut self, addr: impl Into<String>) -> ServeConfig {
        self.addr = addr.into();
        self
    }

    /// Replaces the per-class cache capacity.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> ServeConfig {
        self.cache_capacity = capacity;
        self
    }

    /// Replaces the cache shard count.
    #[must_use]
    pub fn cache_shards(mut self, shards: usize) -> ServeConfig {
        self.cache_shards = shards;
        self
    }

    /// Replaces the HTTP worker count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers;
        self
    }

    /// Replaces the engine executor width.
    #[must_use]
    pub fn engine_workers(mut self, workers: usize) -> ServeConfig {
        self.engine_workers = workers;
        self
    }

    /// Replaces the pending-job bound.
    #[must_use]
    pub fn job_capacity(mut self, capacity: usize) -> ServeConfig {
        self.job_capacity = capacity;
        self
    }

    /// Replaces the settled-job expiry window.
    #[must_use]
    pub fn job_ttl(mut self, ttl: Duration) -> ServeConfig {
        self.job_ttl = ttl;
        self
    }

    /// Sets the warm-restart snapshot path.
    #[must_use]
    pub fn snapshot(mut self, path: impl Into<PathBuf>) -> ServeConfig {
        self.snapshot = Some(path.into());
        self
    }

    /// Replaces the periodic snapshot flush interval.
    #[must_use]
    pub fn snapshot_interval(mut self, interval: Duration) -> ServeConfig {
        self.snapshot_interval = interval;
        self
    }
}

/// What [`Server::shutdown`] observed while winding down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Submitted jobs that settled as canceled instead of finishing.
    pub jobs_canceled: usize,
    /// Requests served over the server's lifetime.
    pub requests_served: u64,
}

/// Connections queued beyond this answer `503` instead of waiting —
/// bounded memory under an accept flood.
const MAX_QUEUED_CONNECTIONS: usize = 1024;

/// Socket read timeout; doubles as the shutdown-flag poll interval for
/// idle keep-alive connections and for streams waiting on a job.
const READ_POLL: Duration = Duration::from_millis(200);

/// Idle keep-alive window after which a silent connection is dropped.
const IDLE_LIMIT: Duration = Duration::from_secs(10);

/// One live connection as it moves between the queue and a worker.
struct Conn {
    /// Buffered read half (a `try_clone` of `stream`).
    reader: BufReader<TcpStream>,
    /// Write half.
    stream: TcpStream,
    /// Idle time accumulated since the last request.
    idle: Duration,
}

struct Shared {
    session: Session,
    jobs: JobTable,
    queue: Mutex<VecDeque<Conn>>,
    available: Condvar,
    shutdown: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
}

/// A running server. Start with [`Server::start`], stop with
/// [`Server::shutdown`] (dropping without calling it aborts the threads
/// ungracefully at process exit, like any detached listener).
///
/// # Example
///
/// ```no_run
/// use cnfet_serve::{Server, ServeConfig};
///
/// let server = Server::start(ServeConfig::default().addr("127.0.0.1:0"))?;
/// println!("serving on http://{}", server.addr());
/// let report = server.shutdown();
/// assert_eq!(report.jobs_canceled, 0);
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    flusher: Option<std::thread::JoinHandle<()>>,
    snapshot: Option<PathBuf>,
}

impl Server {
    /// Binds the configured address and starts the acceptor and worker
    /// threads. The engine (session, caches, job pool) is built fresh
    /// and owned by the returned server.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let session = SessionBuilder::new()
            .cache_capacity(config.cache_capacity)
            .cache_shards(config.cache_shards)
            .batch_workers(config.engine_workers)
            .build();
        // Warm boot: seed the sweep cache from the snapshot, if any. A
        // bad file (corrupt, truncated, old version) must never stop the
        // server — it warns and boots cold.
        if let Some(path) = &config.snapshot {
            if path.exists() {
                match session.load_snapshot(path) {
                    Ok(restored) => eprintln!(
                        "cnfet-serve: warm boot — restored {restored} cache entries from {}",
                        path.display()
                    ),
                    Err(e) => eprintln!(
                        "cnfet-serve: warning: ignoring snapshot {}: {e}; booting cold",
                        path.display()
                    ),
                }
            }
        }
        // Floor of 4: on small machines a lone worker would serialize a
        // heavy request behind every other connection. Idle keep-alive
        // connections don't pin workers either way — see `worker_loop`.
        let workers = if config.workers > 0 {
            config.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(4)
        };
        let shared = Arc::new(Shared {
            session,
            jobs: JobTable::new(config.job_capacity, config.job_ttl),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        });

        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("cnfet-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        let workers = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("cnfet-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn http worker")
            })
            .collect();
        // The periodic flusher lives in the server, not the binary's
        // main loop: an abrupt exit (SIGKILL, a crashed test harness, a
        // dropped-without-shutdown server) still leaves a snapshot at
        // most one interval old behind.
        let flusher = config.snapshot.as_ref().map(|path| {
            let shared = shared.clone();
            let path = path.clone();
            let interval = config.snapshot_interval;
            std::thread::Builder::new()
                .name("cnfet-serve-snapshot".to_string())
                .spawn(move || flush_loop(&shared, &path, interval))
                .expect("spawn snapshot flusher")
        });

        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
            flusher,
            snapshot: config.snapshot,
        })
    }

    /// The bound address (the actual port when the config asked for `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle on the server's engine — same caches, same stats; useful
    /// for in-process warmup and assertions alongside remote clients.
    pub fn session(&self) -> &Session {
        &self.shared.session
    }

    /// Stops accepting, drains the workers, shuts the engine down, and
    /// settles the job table. In-flight requests finish; jobs still
    /// queued on the engine's pool settle as canceled and are counted in
    /// the report.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.shutdown.store(true, Ordering::Release);
        // The acceptor is parked in accept(2); a throwaway connection to
        // ourselves is the portable way to make it re-check the flag.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
        // All worker handles are gone; this Arc is the last. Unwrap it so
        // the session — the engine's last live handle — actually drops:
        // its pool drains, and every still-queued job resolves canceled.
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| unreachable!("all server threads joined"));
        let requests_served = shared.requests.load(Ordering::Relaxed);
        // Persist the sweep cache before the engine goes away, so the
        // next boot replays today's sweeps as pure hits.
        if let Some(path) = &self.snapshot {
            match shared.session.save_snapshot(path) {
                Ok(saved) => eprintln!(
                    "cnfet-serve: wrote {saved} cache entries to {}",
                    path.display()
                ),
                Err(e) => eprintln!(
                    "cnfet-serve: warning: failed to write snapshot {}: {e}",
                    path.display()
                ),
            }
        }
        drop(shared.session);
        let jobs_canceled = shared.jobs.drain_canceled();
        ShutdownReport {
            jobs_canceled,
            requests_served,
        }
    }
}

/// Periodically persists the cache snapshot until shutdown. The final
/// authoritative write still happens in [`Server::shutdown`]; this loop
/// exists so ungraceful exits lose at most one interval of cache. Writes
/// are atomic (temp file + rename), so a flush can never tear a
/// concurrent warm boot from the same path. The shutdown flag is checked
/// every [`READ_POLL`] so joining this thread is prompt even with long
/// intervals.
///
/// Each flush goes through [`cnfet::snapshot::save_if`], re-checking the
/// shutdown flag *under the process-wide save lock*: a flush that loses
/// the race to shutdown is skipped entirely rather than staged alongside
/// (or renamed after) the final snapshot, so the shutdown snapshot
/// always wins — even for an embedder saving through
/// [`Server::session`] concurrently.
fn flush_loop(shared: &Shared, path: &std::path::Path, interval: Duration) {
    let step = READ_POLL.min(interval);
    let mut since_flush = Duration::ZERO;
    loop {
        std::thread::sleep(step);
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        since_flush += step;
        if since_flush < interval {
            continue;
        }
        since_flush = Duration::ZERO;
        let saved = cnfet::snapshot::save_if(&shared.session, path, || {
            !shared.shutdown.load(Ordering::Acquire)
        });
        if let Err(e) = saved {
            eprintln!(
                "cnfet-serve: warning: failed to write snapshot {}: {e}",
                path.display()
            );
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Transient accept failures (fd pressure) must not spin.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return; // The wakeup connection itself lands here too.
        }
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let conn = Conn {
            reader: BufReader::new(read_half),
            stream,
            idle: Duration::ZERO,
        };
        let mut queue = shared.queue.lock().expect("connection queue lock");
        if queue.len() >= MAX_QUEUED_CONNECTIONS {
            drop(queue);
            let mut conn = conn;
            let body = wire::error_body("overloaded", "connection queue full", None).render();
            let _ = http::write_response(&mut conn.stream, 503, &body, true);
            continue;
        }
        queue.push_back(conn);
        drop(queue);
        shared.available.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut queue = shared.queue.lock().expect("connection queue lock");
            loop {
                if let Some(conn) = queue.pop_front() {
                    break conn;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(queue, READ_POLL)
                    .expect("connection queue lock");
                queue = guard;
            }
        };
        if let Some(conn) = serve_connection(conn, shared) {
            // The connection went idle while others were waiting: rotate
            // it to the back of the queue so a bounded worker set
            // round-robins over every live connection instead of letting
            // one idle keep-alive socket pin a worker.
            let mut queue = shared.queue.lock().expect("connection queue lock");
            queue.push_back(conn);
            drop(queue);
            shared.available.notify_one();
        }
    }
}

/// Serves one connection's requests until it closes, errs, idles out, or
/// the server shuts down. Returns the connection when it is merely idle
/// and other connections are waiting for a worker — the caller requeues
/// it.
fn serve_connection(mut conn: Conn, shared: &Shared) -> Option<Conn> {
    loop {
        match http::read_request(&mut conn.reader, &mut conn.stream) {
            Ok(request) => {
                conn.idle = Duration::ZERO;
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let close = request.wants_close() || shared.shutdown.load(Ordering::Acquire);
                match route(&request, shared) {
                    Routed::Json(status, body) => {
                        // HEAD answers exactly like GET minus the payload
                        // (load balancers probe /v1/healthz this way).
                        let body = if request.method == "HEAD" {
                            String::new()
                        } else {
                            body.render()
                        };
                        if http::write_response(&mut conn.stream, status, &body, close).is_err()
                            || close
                        {
                            return None;
                        }
                    }
                    Routed::Binary(status, bytes) => {
                        if http::write_response_bytes(
                            &mut conn.stream,
                            status,
                            encode::BINARY_CONTENT_TYPE,
                            &bytes,
                            close,
                        )
                        .is_err()
                            || close
                        {
                            return None;
                        }
                    }
                    Routed::Stream { id, format } => {
                        // Chunked responses always close the connection
                        // (see `http::start_chunked`); the stream handler
                        // owns the socket from here.
                        stream_job(&mut conn.stream, shared, id, format);
                        return None;
                    }
                }
            }
            Err(ReadError::TimedOut) => {
                conn.idle += READ_POLL;
                if conn.idle >= IDLE_LIMIT || shared.shutdown.load(Ordering::Acquire) {
                    return None;
                }
                // Don't camp on an idle socket while accepted connections
                // wait for a worker. A timeout implies the reader's
                // buffer is empty, so the connection can safely park in
                // the queue and resume on any worker.
                let waiting = !shared
                    .queue
                    .lock()
                    .expect("connection queue lock")
                    .is_empty();
                if waiting {
                    return Some(conn);
                }
            }
            Err(ReadError::Closed) => return None,
            Err(ReadError::Malformed(message)) => {
                let body = wire::error_body("bad_request", &message, None).render();
                let _ = http::write_response(&mut conn.stream, 400, &body, true);
                return None;
            }
            Err(ReadError::TooLarge) => {
                let body =
                    wire::error_body("too_large", "head or body exceeds the limit", None).render();
                let _ = http::write_response(&mut conn.stream, 413, &body, true);
                return None;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// Where a routed request goes: a buffered JSON response, a buffered
/// binary response, or the chunked `/stream` path (which needs the raw
/// socket and is handled by the connection loop).
enum Routed {
    Json(u16, Json),
    Binary(u16, Vec<u8>),
    Stream { id: u64, format: Format },
}

/// Resolves the request's `Accept` header to a result format. JSON is
/// the default (`*/*`, `application/*`, no header); the binary row
/// encoding is `application/x-cnfet-rows`; anything else — a client
/// asking for a format this server cannot produce — is `406`.
fn negotiate(request: &Request) -> Result<Format, Routed> {
    let Some(accept) = request.header("accept") else {
        return Ok(Format::Json);
    };
    // First supported media range wins — clients list preferences in
    // order. Quality parameters (`;q=`) are ignored.
    for part in accept.split(',') {
        let media = part.split(';').next().unwrap_or("").trim();
        match media {
            "" => continue,
            "*/*" | "application/*" | "application/json" => return Ok(Format::Json),
            m if m == encode::BINARY_CONTENT_TYPE => return Ok(Format::Binary),
            _ => continue,
        }
    }
    Err(Routed::Json(
        406,
        wire::error_body(
            "not_acceptable",
            &format!(
                "no supported media type in accept `{accept}`; this server produces application/json and {}",
                encode::BINARY_CONTENT_TYPE
            ),
            None,
        ),
    ))
}

fn route(request: &Request, shared: &Shared) -> Routed {
    let format = match negotiate(request) {
        Ok(format) => format,
        Err(routed) => return routed,
    };
    // HEAD routes exactly like GET; the connection loop strips the body.
    let method = match request.method.as_str() {
        "HEAD" => "GET",
        m => m,
    };
    // The stream endpoint needs the raw socket; everything else buffers.
    if let Some(id) = request
        .path
        .strip_prefix("/v1/jobs/")
        .and_then(|rest| rest.strip_suffix("/stream"))
    {
        if request.method != "GET" {
            return Routed::Json(
                405,
                wire::error_body(
                    "method_not_allowed",
                    &format!("{} is not supported on {}", request.method, request.path),
                    None,
                ),
            );
        }
        return match id.parse::<u64>() {
            Ok(id) => Routed::Stream { id, format },
            Err(_) => Routed::Json(
                400,
                wire::error_body("bad_request", &format!("bad job id `{id}`"), None),
            ),
        };
    }
    // Binary form exists only for sweep and repair results; on any other
    // route the client asked for an encoding the response cannot take.
    if format == Format::Binary {
        if method == "POST" && request.path == "/v1/run" {
            return run_binary(request, shared);
        }
        return Routed::Json(
            406,
            wire::error_body(
                "not_acceptable",
                "the binary row encoding is only defined for sweep and repair results (POST /v1/run with a sweep or repair request, or GET /v1/jobs/{id}/stream)",
                None,
            ),
        );
    }
    let (status, body) = route_json(method, request, shared);
    Routed::Json(status, body)
}

/// `POST /v1/run` with `Accept: application/x-cnfet-rows`: a sweep
/// answers as a binary row table, a repair lot as a binary die table;
/// any other result kind is `406`.
fn run_binary(request: &Request, shared: &Shared) -> Routed {
    let value = match parse_body(&request.body) {
        Ok(value) => value,
        Err((status, body)) => return Routed::Json(status, body),
    };
    let kind = match wire::parse_request(&value) {
        Ok(kind) => kind,
        Err(e) => {
            return Routed::Json(400, wire::error_body("bad_request", &e.message, None));
        }
    };
    match shared.session.run(&kind) {
        Ok(ResponseKind::Sweep(report)) => {
            Routed::Binary(200, encode::encode_row_table(&report.rows))
        }
        Ok(ResponseKind::Repair(report)) => {
            Routed::Binary(200, encode::encode_die_table(&report.dies))
        }
        Ok(_) => Routed::Json(
            406,
            wire::error_body(
                "not_acceptable",
                "the binary row encoding is only defined for sweep and repair results; request this kind as application/json",
                None,
            ),
        ),
        Err(error) => {
            let (status, body) = wire::error_response(&error);
            Routed::Json(status, body)
        }
    }
}

/// Serves `GET /v1/jobs/{id}/stream`: a chunked response of progress
/// events and rows, flushed as the engine harvests them, ending in a
/// terminal `done` / `error` / `canceled` event. Each row renders itself
/// ([`StreamRow`](crate::jobtable::StreamRow)) — a `row` event in JSON
/// mode, its own frame in binary mode — so this handler serves every
/// composite alike. The handler only reads the job's progress: rows and
/// the terminal view land there the moment the engine produces them,
/// and the wait wakes on each, so [`READ_POLL`] bounds only how long a
/// shutdown goes unnoticed. A write failure (the peer hung up
/// mid-stream) ends the handler immediately — the worker is freed and
/// the job settles in the table like any other.
fn stream_job(stream: &mut TcpStream, shared: &Shared, id: u64, format: Format) {
    let progress = match shared.jobs.watch(id) {
        Ok(progress) => progress,
        Err(polled) => {
            let (status, kind, message) = match polled {
                Polled::Expired => (410, "job_expired", format!("job {id} has expired")),
                _ => (404, "unknown_job", format!("no job {id}")),
            };
            let body = wire::error_body(kind, &message, None).render();
            let _ = http::write_response(stream, status, &body, true);
            return;
        }
    };
    let content_type = match format {
        Format::Json => "application/x-ndjson",
        Format::Binary => encode::BINARY_CONTENT_TYPE,
    };
    if http::start_chunked(stream, 200, content_type).is_err() {
        return;
    }
    let start = Json::obj([
        ("event", Json::str("start")),
        ("job", Json::from(id)),
        ("total", Json::from(progress.total())),
    ]);
    if emit_event(stream, format, &start).is_err() {
        return;
    }
    let mut seen = 0usize;
    loop {
        let (rows, finished) = progress.wait(seen, READ_POLL);
        for (offset, row) in rows.iter().enumerate() {
            let index = seen + offset;
            let written = match format {
                Format::Json => emit_event(stream, format, &wire::row_event(index, row.json())),
                Format::Binary => http::write_chunk(stream, &row.frame(index)),
            };
            if written.is_err() {
                return;
            }
        }
        seen += rows.len();
        let terminal = match finished {
            Some(view) => view,
            None if shared.shutdown.load(Ordering::Acquire) => JobView::Canceled,
            None => continue,
        };
        if emit_event(stream, format, &settled_body("event", terminal)).is_ok() {
            let _ = http::finish_chunked(stream);
        }
        return;
    }
}

/// A settled job's outcome as one object tagged under `key` — `status`
/// on a poll, `event` at the end of a stream: `done` with the `result`,
/// `error` with the error's fields, or `canceled`.
fn settled_body(key: &str, view: JobView) -> Json {
    let (tag, fields) = match view {
        JobView::Done(result) => ("done", vec![("result".to_string(), result)]),
        JobView::Failed(_, Json::Obj(error)) => ("error", error),
        JobView::Failed(..) => ("error", Vec::new()),
        JobView::Canceled => ("canceled", Vec::new()),
    };
    let tag = (key.to_string(), Json::str(tag));
    Json::Obj(std::iter::once(tag).chain(fields).collect())
}

/// One stream event: an ndjson line (JSON mode) or an event frame
/// (binary mode).
fn emit_event(stream: &mut TcpStream, format: Format, event: &Json) -> std::io::Result<()> {
    match format {
        Format::Json => {
            let mut line = event.render();
            line.push('\n');
            http::write_chunk(stream, line.as_bytes())
        }
        Format::Binary => http::write_chunk(stream, &encode::event_frame(event)),
    }
}

fn route_json(method: &str, request: &Request, shared: &Shared) -> (u16, Json) {
    match (method, request.path.as_str()) {
        ("GET", "/v1/healthz") => (200, Json::obj([("ok", Json::Bool(true))])),
        ("GET", "/v1/stats") => (200, stats_body(shared)),
        ("POST", "/v1/run") => with_request_body(request, |kind| match shared.session.run(&kind) {
            Ok(response) => (200, wire::render_response(&response)),
            Err(error) => wire::error_response(&error),
        }),
        ("POST", "/v1/batch") => with_batch_body(request, |kinds| {
            let results = shared
                .session
                .run_batch(&kinds)
                .into_iter()
                .map(|result| match result {
                    Ok(response) => Json::obj([("ok", wire::render_response(&response))]),
                    Err(error) => wire::error_response(&error).1,
                })
                .collect::<Vec<Json>>();
            (200, Json::obj([("results", Json::Arr(results))]))
        }),
        ("POST", "/v1/submit") => with_batch_body(request, |kinds| {
            let mut ids = Vec::with_capacity(kinds.len());
            for kind in kinds {
                match shared.jobs.submit(&shared.session, kind) {
                    Ok(id) => ids.push(Json::from(id)),
                    Err(backpressure) => {
                        // Jobs admitted before the refusal stay admitted —
                        // their ids are reported so the client can poll
                        // or retry just the rejected tail.
                        return (
                            429,
                            Json::obj([
                                (
                                    "error",
                                    Json::obj([
                                        ("kind", Json::str("backpressure")),
                                        (
                                            "message",
                                            Json::str(format!(
                                                "job table full ({} pending jobs)",
                                                backpressure.capacity
                                            )),
                                        ),
                                    ]),
                                ),
                                ("jobs", Json::Arr(ids)),
                            ]),
                        );
                    }
                }
            }
            (202, Json::obj([("jobs", Json::Arr(ids))]))
        }),
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            let id = &path["/v1/jobs/".len()..];
            let Ok(id) = id.parse::<u64>() else {
                return (
                    400,
                    wire::error_body("bad_request", &format!("bad job id `{id}`"), None),
                );
            };
            match shared.jobs.poll(id) {
                Polled::Unknown => (
                    404,
                    wire::error_body("unknown_job", &format!("no job {id}"), None),
                ),
                // Distinct from never-issued: the job existed and its
                // result aged out. `410 Gone` tells the poller to stop.
                Polled::Expired => (
                    410,
                    wire::error_body(
                        "job_expired",
                        &format!("job {id} settled and its result expired"),
                        None,
                    ),
                ),
                Polled::Pending { age_ms, queued } => (
                    200,
                    Json::obj([
                        ("status", Json::str("pending")),
                        ("age_ms", Json::from(age_ms)),
                        ("queued", Json::from(queued)),
                    ]),
                ),
                Polled::Settled(view) => (200, settled_body("status", view)),
            }
        }
        // Any other method on a known route is a method error, not a
        // missing resource — including PUT/DELETE and POSTs to job ids.
        (_, "/v1/run" | "/v1/batch" | "/v1/submit" | "/v1/stats" | "/v1/healthz") => (
            405,
            wire::error_body(
                "method_not_allowed",
                &format!("{} is not supported on {}", request.method, request.path),
                None,
            ),
        ),
        (_, path) if path.starts_with("/v1/jobs/") => (
            405,
            wire::error_body(
                "method_not_allowed",
                &format!("{} is not supported on {}", request.method, path),
                None,
            ),
        ),
        _ => (
            404,
            wire::error_body("not_found", &format!("no route for {}", request.path), None),
        ),
    }
}

/// Parses the body as one request object and hands it to `f`; JSON and
/// wire errors short-circuit to `400`.
fn with_request_body(
    request: &Request,
    f: impl FnOnce(cnfet::RequestKind) -> (u16, Json),
) -> (u16, Json) {
    match parse_body(&request.body) {
        Ok(value) => match wire::parse_request(&value) {
            Ok(kind) => f(kind),
            Err(e) => (400, wire::error_body("bad_request", &e.message, None)),
        },
        Err(response) => response,
    }
}

/// Parses the body as `{"requests": [...]}` (or a single request
/// object, treated as a batch of one) and hands the list to `f`.
fn with_batch_body(
    request: &Request,
    f: impl FnOnce(Vec<cnfet::RequestKind>) -> (u16, Json),
) -> (u16, Json) {
    let value = match parse_body(&request.body) {
        Ok(value) => value,
        Err(response) => return response,
    };
    let items: Vec<&Json> = match value.get("requests") {
        Some(Json::Arr(items)) => items.iter().collect(),
        Some(other) if !other.is_null() => {
            return (
                400,
                wire::error_body("bad_request", "requests: expected an array", None),
            )
        }
        _ => vec![&value],
    };
    let mut kinds = Vec::with_capacity(items.len());
    for (i, item) in items.into_iter().enumerate() {
        match wire::parse_request(item) {
            Ok(kind) => kinds.push(kind),
            Err(e) => {
                return (
                    400,
                    wire::error_body("bad_request", &format!("requests[{i}].{}", e.message), None),
                )
            }
        }
    }
    f(kinds)
}

fn parse_body(body: &[u8]) -> Result<Json, (u16, Json)> {
    let text = std::str::from_utf8(body).map_err(|_| {
        (
            400,
            wire::error_body("bad_request", "body is not UTF-8", None),
        )
    })?;
    json::parse(text).map_err(|e| {
        (
            400,
            wire::error_body("bad_request", &e.message, Some(e.position)),
        )
    })
}

/// `GET /v1/stats`: the full engine [`SessionStats`](cnfet::SessionStats)
/// (per-class hits/misses/evictions and the executor counters), per-class
/// cache occupancy, and the server's own counters.
fn stats_body(shared: &Shared) -> Json {
    let stats = shared.session.stats();
    let classes = RequestClass::ALL
        .into_iter()
        .map(|class| {
            let per_class = stats.class(class);
            let cache = shared.session.cache_stats(class);
            (
                class.name().to_string(),
                Json::obj([
                    ("hits", Json::from(per_class.hits)),
                    ("misses", Json::from(per_class.misses)),
                    ("evictions", Json::from(per_class.evictions)),
                    ("requests", Json::from(per_class.requests())),
                    ("entries", Json::from(cache.entries)),
                    ("capacity", Json::from(cache.capacity)),
                    ("in_flight", Json::from(cache.in_flight)),
                ]),
            )
        })
        .collect::<Vec<(String, Json)>>();
    let jobs = shared.jobs.stats();
    Json::obj([
        ("classes", Json::Obj(classes)),
        (
            "engine",
            Json::obj([
                ("inflight_waits", Json::from(stats.inflight_waits)),
                ("batches", Json::from(stats.batches)),
                ("steals", Json::from(stats.steals)),
                ("submitted", Json::from(stats.submitted)),
                ("workers", Json::from(shared.session.worker_count())),
            ]),
        ),
        (
            "server",
            Json::obj([
                (
                    "connections",
                    Json::from(shared.connections.load(Ordering::Relaxed)),
                ),
                (
                    "requests",
                    Json::from(shared.requests.load(Ordering::Relaxed)),
                ),
                (
                    "jobs",
                    Json::obj([
                        ("pending", Json::from(jobs.pending)),
                        ("settled", Json::from(jobs.settled)),
                        ("rejected", Json::from(jobs.rejected)),
                        ("submitted", Json::from(jobs.submitted)),
                        ("expired", Json::from(jobs.expired)),
                    ]),
                ),
            ]),
        ),
    ])
}
