//! The four workloads: fixtures (set-up, warm-up, reference checks) and
//! the closed-loop callers that drive them.

use crate::checks::{self, Fnv};
use crate::gen::{self, Call, Op};
use crate::pace::Gate;
use crate::rng::Rng;
use crate::trace::{self, Tracer};
use cnfet::{CellRequest, RequestKind, ResponseKind, Session, SessionBuilder};
use cnfet_serve::json::Json;
use cnfet_serve::{Client, Format, ServeConfig, Server, StreamEvent};
use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdTiming,
    ColdYield,
    WarmMixed,
    ServedMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdTiming,
        Workload::ColdYield,
        Workload::WarmMixed,
        Workload::ServedMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdTiming => "cold_timing",
            Workload::ColdYield => "cold_yield",
            Workload::WarmMixed => "warm_mixed",
            Workload::ServedMixed => "served_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Concurrent closed-loop callers (never more than the reference
    /// box's two cores).
    pub fn callers(self) -> usize {
        match self {
            Workload::ColdTiming | Workload::ColdYield => 1,
            Workload::WarmMixed | Workload::ServedMixed => 2,
        }
    }

    /// Per-class cache bound: `warm_mixed` bounds it so its miss trickle
    /// evicts alongside the readers; the cold workloads bound it so a
    /// long stream of never-reused results plateaus in memory early.
    pub fn cache_capacity(self) -> usize {
        match self {
            Workload::WarmMixed => 512,
            Workload::ColdTiming | Workload::ColdYield => 1024,
            Workload::ServedMixed => cnfet::cache::DEFAULT_CAPACITY,
        }
    }
}

/// Timed-run width of the engine pool, and of the server's HTTP and
/// engine workers, pinned so neither `CNFET_TEST_WORKERS` nor the
/// machine's parallelism leaks in.
pub const POOL_WIDTH: usize = 2;

/// Latency samples a caller keeps: a uniform reservoir over all its
/// operations, so the benchmark's own memory (part of `peak_rss_mb`)
/// stops growing with throughput.
pub const RESERVOIR: usize = 1 << 18;

/// What one caller measured.
#[derive(Debug, Default)]
pub struct CallerLog {
    /// A uniform sample of at most [`RESERVOIR`] operation latencies.
    pub latencies_us: Vec<f64>,
    /// Traffic component of each latency, an index into [`COMPONENTS`].
    pub components: Vec<u8>,
    /// Timed segment of each latency (see `pace`).
    pub segments: Vec<u32>,
    /// Operations timed, sampled or not.
    pub timed: u64,
    sampler: Rng,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Digest of every fresh output, in draw order.
    pub fresh_digests: Vec<u64>,
}

/// How many fresh outputs of a cold stream the printed digest covers: a
/// prefix every run completes, so digests compare across runs and
/// commits.
pub const DIGEST_PREFIX: usize = 16;

/// The traffic components the results break latency down by: what kind
/// of operation each sample was.
pub const COMPONENTS: [&str; 13] = [
    "macro",
    "sweep",
    "deck",
    "repair",
    "optimize",
    "hit",
    "batch",
    "submit_all",
    "miss",
    "json_hit",
    "binary",
    "stream",
    "stats",
];

fn component(name: &str) -> u8 {
    COMPONENTS
        .iter()
        .position(|&c| c == name)
        .expect("a listed component") as u8
}

/// The component of an in-process operation (`fresh` is its drawn request).
pub fn component_of_op(op: Op, fresh: Option<&RequestKind>) -> u8 {
    component(match (op, fresh) {
        (Op::Batch, _) => "batch",
        (Op::SubmitAll, _) => "submit_all",
        (Op::Fresh, Some(RequestKind::Macro(_))) => "macro",
        (Op::Fresh, Some(RequestKind::Sweep(_))) => "sweep",
        (Op::Fresh, Some(RequestKind::Tran(_))) => "deck",
        (Op::Fresh, Some(RequestKind::Repair(_))) => "repair",
        (Op::Fresh, Some(RequestKind::Optimize(_))) => "optimize",
        (Op::Fresh, _) => "miss",
        (Op::Hit(_) | Op::Http(_), _) => "hit",
    })
}

/// The component of a served exchange.
pub fn component_of_call(call: &Call) -> u8 {
    component(match call {
        Call::Run(body) if body.get("type").and_then(Json::as_str) == Some("tran") => "deck",
        Call::Run(_) => "json_hit",
        Call::Batch(_) => "batch",
        Call::Binary(_) => "binary",
        Call::Stream(_) => "stream",
        Call::Stats => "stats",
    })
}

impl CallerLog {
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    fn with_reservoir() -> CallerLog {
        CallerLog {
            latencies_us: Vec::with_capacity(RESERVOIR),
            components: Vec::with_capacity(RESERVOIR),
            segments: Vec::with_capacity(RESERVOIR),
            ..CallerLog::default()
        }
    }

    /// Reservoir-samples one operation's latency (Algorithm R).
    pub fn record(&mut self, elapsed: Duration, component: u8, segment: u32) {
        self.timed += 1;
        let us = elapsed.as_secs_f64() * 1e6;
        if self.latencies_us.len() < RESERVOIR {
            self.latencies_us.push(us);
            self.components.push(component);
            self.segments.push(segment);
        } else {
            let slot = self.sampler.below(self.timed) as usize;
            if slot < RESERVOIR {
                self.latencies_us[slot] = us;
                self.components[slot] = component;
                self.segments[slot] = segment;
            }
        }
    }

    /// Pools another caller's log. The callers of one workload are
    /// symmetric closed loops that time about as many operations each, so
    /// their pooled reservoirs stay close to a uniform sample.
    pub fn merge(&mut self, other: CallerLog) {
        self.latencies_us.extend(other.latencies_us);
        self.components.extend(other.components);
        self.segments.extend(other.segments);
        self.timed += other.timed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }
}

// ---------------------------------------------------------------------------
// In-process fixture
// ---------------------------------------------------------------------------

/// Where a caller's never-seen requests come from, in draw order.
pub enum Fresh {
    /// A pre-built list (the cold streams).
    Requests(Vec<RequestKind>),
    /// Compact misses, built into requests as they are drawn.
    Misses {
        caller: usize,
        misses: Vec<gen::Miss>,
    },
}

impl Fresh {
    pub fn get(&self, i: usize) -> Option<Cow<'_, RequestKind>> {
        match self {
            Fresh::Requests(requests) => requests.get(i).map(Cow::Borrowed),
            Fresh::Misses { caller, misses } => {
                misses.get(i).map(|m| Cow::Owned(m.request(*caller, i)))
            }
        }
    }
}

/// A set-up session with the first executions of its warm requests.
pub struct Engine {
    pub session: Session,
    pub warm: Arc<Vec<RequestKind>>,
    pub warm_first: Vec<ResponseKind>,
    pub matrix: Arc<Vec<CellRequest>>,
    pub matrix_first: Vec<ResponseKind>,
    pub mixed: Arc<Vec<RequestKind>>,
    pub mixed_first: Vec<ResponseKind>,
    /// Digest of every first execution of the warm set.
    pub warm_digest: u64,
}

fn run_twice(session: &Session, request: &RequestKind) -> Result<ResponseKind, String> {
    let first = session.run(request).map_err(|e| e.to_string())?;
    let again = session.run(request).map_err(|e| e.to_string())?;
    if checks::same_output(&first, &again) {
        Ok(first)
    } else {
        Err(format!(
            "{} hit differs from its first execution",
            checks::kind_name(&first)
        ))
    }
}

/// Builds a session of the given pool width, verifies the reference set
/// and golden files on it, and (for `warm_mixed`) warms every request of
/// the warm set, the matrix and the mix, recording first executions.
///
/// With a tracer, the reference set and the warm set are first replayed
/// bottom-up under its spans, so the set-up's layer work is traced.
pub fn setup_engine(
    workload: Workload,
    width: usize,
    root: &Path,
    tracer: Option<&mut Tracer>,
) -> Result<Engine, String> {
    let session = SessionBuilder::new()
        .batch_workers(width)
        .cache_capacity(workload.cache_capacity())
        .build();
    let warm_mixed = workload == Workload::WarmMixed;
    let (warm, matrix, mixed) = if warm_mixed {
        (gen::warm_set(), gen::matrix(), gen::mixed())
    } else {
        (Vec::new(), Vec::new(), Vec::new())
    };
    if let Some(tr) = tracer {
        trace::replay_all(tr, &session, &checks::reference_requests())?;
        trace::replay_all(tr, &session, &warm)?;
    }
    checks::verify_reference(&session, root).map_err(|e| e.join("; "))?;
    let warm_first = warm
        .iter()
        .map(|r| run_twice(&session, r))
        .collect::<Result<Vec<_>, _>>()?;
    let matrix_first = matrix
        .iter()
        .map(|r| run_twice(&session, &RequestKind::Cell(r.clone())))
        .collect::<Result<Vec<_>, _>>()?;
    let mixed_first = mixed
        .iter()
        .map(|r| run_twice(&session, r))
        .collect::<Result<Vec<_>, _>>()?;
    let mut h = Fnv::default();
    for first in warm_first.iter().chain(&matrix_first).chain(&mixed_first) {
        h.u64(checks::digest(first));
    }
    Ok(Engine {
        session,
        warm: Arc::new(warm),
        warm_first,
        matrix: Arc::new(matrix),
        matrix_first,
        mixed: Arc::new(mixed),
        mixed_first,
        warm_digest: h.finish(),
    })
}

/// One in-process closed-loop caller: runs `schedule` (cycled) while the
/// gate lets it, drawing `Fresh` requests from `fresh` in order and
/// stopping early if they run out.
pub fn run_caller(
    engine: &Engine,
    fresh: &Fresh,
    schedule: &[Op],
    gate: &Gate,
    caller: usize,
) -> CallerLog {
    let mut tr = Tracer::disabled();
    let mut log = CallerLog::with_reservoir();
    let mut next_fresh = 0usize;
    for op in schedule.iter().cycle() {
        let request = match op {
            Op::Fresh => match fresh.get(next_fresh) {
                Some(request) => {
                    next_fresh += 1;
                    Some(request)
                }
                None => break,
            },
            _ => None,
        };
        let Some(segment) = gate.enter(caller) else {
            break;
        };
        log.attempted += 1;
        let (elapsed, verdict) = exec_op(&mut tr, engine, *op, request.as_deref(), None);
        gate.leave(caller);
        log.record(elapsed, component_of_op(*op, request.as_deref()), segment);
        match verdict {
            Ok(Some(digest)) => log.fresh_digests.push(digest),
            Ok(None) => {}
            Err(e) => log.fail(e),
        }
    }
    log
}

/// How the traced run executes an operation: the cache key is timed on
/// its own, and a fresh request is replayed bottom-up through its public
/// sub-requests. `plan` is the search an optimize request will walk.
#[derive(Clone, Copy)]
pub struct Replay<'a> {
    pub plan: Option<&'a cnfet::OptimizeReport>,
}

/// Runs one in-process operation and checks its output. The timed run
/// passes a disabled tracer and no `replay`; the traced run's passes
/// replay. Returns the operation's time, output check excluded, and for a
/// fresh request the digest of its output.
pub fn exec_op(
    tr: &mut Tracer,
    engine: &Engine,
    op: Op,
    fresh: Option<&RequestKind>,
    replay: Option<Replay<'_>>,
) -> (Duration, Result<Option<u64>, String>) {
    let session = &engine.session;
    let started = Instant::now();
    let (elapsed, results, firsts): (_, Vec<cnfet::Result<ResponseKind>>, &[ResponseKind]) =
        match op {
            Op::Hit(i) => {
                let i = i as usize;
                let request = &engine.warm[i];
                if replay.is_some() {
                    let key = tr.time("cache.key", || trace::cache_key(request, session));
                    std::hint::black_box(key);
                }
                let out = tr.time("cache.hit", || session.run(request));
                (started.elapsed(), vec![out], &engine.warm_first[i..=i])
            }
            Op::Batch => {
                let out = tr.time("batch", || session.run_batch(&engine.matrix));
                let elapsed = started.elapsed();
                tr.count("batch.requests", out.len() as f64);
                let out = out.into_iter().map(|r| r.map(ResponseKind::Cell)).collect();
                (elapsed, out, &engine.matrix_first)
            }
            Op::SubmitAll => {
                let out: Vec<_> = tr.time("jobs", || {
                    let handles = session.submit_all(engine.mixed.iter().cloned());
                    handles.into_iter().map(|h| h.wait()).collect()
                });
                let elapsed = started.elapsed();
                tr.count("jobs.jobs", out.len() as f64);
                (elapsed, out, &engine.mixed_first)
            }
            Op::Fresh => {
                let Some(request) = fresh else {
                    return (started.elapsed(), Err("fresh op without a request".into()));
                };
                let out = match replay {
                    Some(Replay { plan }) => {
                        let key = tr.time("cache.key", || trace::cache_key(request, session));
                        std::hint::black_box(key);
                        trace::Replayer { tr, session }.exec(request, plan)
                    }
                    None => session.run(request).map_err(|e| e.to_string()),
                };
                let elapsed = started.elapsed();
                let verdict = out.and_then(|r| {
                    checks::sanity(&r)?;
                    Ok(Some(checks::digest(&r)))
                });
                return (elapsed, verdict);
            }
            Op::Http(_) => {
                return (
                    Duration::ZERO,
                    Err("HTTP op in an in-process schedule".into()),
                );
            }
        };
    let verdict = results
        .into_iter()
        .zip(firsts)
        .try_for_each(|(r, first)| match r {
            Ok(r) if checks::same_output(first, &r) => Ok(()),
            Ok(r) => Err(format!("warm {} hit changed", checks::kind_name(&r))),
            Err(e) => Err(e.to_string()),
        });
    (elapsed, verdict.map(|()| None))
}

// ---------------------------------------------------------------------------
// Served fixture
// ---------------------------------------------------------------------------

/// What a served exchange must answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// Status and body bytes.
    Body(u16, Vec<u8>),
    /// Streamed row count and the terminal `done` result, rendered.
    Stream(usize, String),
}

/// A running loopback server with the reference answer of every table row.
pub struct Served {
    pub server: Server,
    pub table: Arc<Vec<Call>>,
    pub answers: Arc<Vec<Answer>>,
}

impl Served {
    /// Digest of every recorded answer.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for answer in self.answers.iter() {
            match answer {
                Answer::Body(status, bytes) => {
                    h.u64(u64::from(*status));
                    h.bytes(bytes);
                }
                Answer::Stream(rows, done) => {
                    h.u64(*rows as u64);
                    h.str(done);
                }
            }
        }
        h.finish()
    }
}

/// Sends one exchange. Stats answers are reduced to their status: their
/// counters move on every call.
pub fn exchange(client: &mut Client, call: &Call) -> std::io::Result<Answer> {
    let body = |r: cnfet_serve::ClientResponse| Answer::Body(r.status, r.bytes);
    Ok(match call {
        Call::Run(json) => body(client.request("POST", "/v1/run").body(json).send()?),
        Call::Batch(json) => body(client.request("POST", "/v1/batch").body(json).send()?),
        Call::Binary(json) => body(
            client
                .request("POST", "/v1/run")
                .body(json)
                .accept(Format::Binary)
                .send()?,
        ),
        Call::Stats => {
            let r = client.request("GET", "/v1/stats").send()?;
            let ok = r.body.get("classes").is_some();
            Answer::Body(if ok { r.status } else { 599 }, Vec::new())
        }
        Call::Stream(json) => {
            // Submit, poll the job until it has settled, then stream it.
            // Streaming a job that is still pending waits out the
            // server's 200 ms read poll whenever the job finishes between
            // the stream's first poll and its wait, which happens on a
            // varying share of exchanges and would set the mix's
            // throughput by itself.
            let submit = Json::obj([("requests", Json::Arr(vec![json.clone()]))]);
            let submitted = client.request("POST", "/v1/submit").body(&submit).send()?;
            let id = submitted
                .body
                .get("jobs")
                .and_then(Json::as_arr)
                .and_then(|jobs| jobs.first())
                .and_then(Json::as_u64)
                .ok_or_else(|| {
                    std::io::Error::other(format!("submit answered {}", submitted.status))
                })?;
            let path = format!("/v1/jobs/{id}");
            while client
                .request("GET", &path)
                .send()?
                .body
                .get("status")
                .and_then(Json::as_str)
                == Some("pending")
            {}
            let mut rows = 0usize;
            let mut done = String::from("no terminal event");
            client.stream_job(id, Format::Json, |event| match event {
                StreamEvent::Row { .. } => rows += 1,
                StreamEvent::Done(result) => done = result.render(),
                StreamEvent::Error(e) => done = format!("error {}", e.render()),
                StreamEvent::Canceled => done = "canceled".to_string(),
                StreamEvent::Start { .. } => {}
            })?;
            Answer::Stream(rows, done)
        }
    })
}

/// A first execution and the hit after it agree once the `cached` flag
/// (how the answer was served) is set aside.
fn same_answer(first: &Answer, again: &Answer) -> bool {
    match (first, again) {
        (Answer::Body(s1, b1), Answer::Body(s2, b2)) => {
            s1 == s2
                && (b1 == b2
                    || String::from_utf8_lossy(b1).replace("\"cached\":false", "\"cached\":true")
                        == String::from_utf8_lossy(b2))
        }
        _ => first == again,
    }
}

/// Starts a loopback server with pinned widths, verifies the reference
/// set on its session, and warms every table row over the wire. With a
/// tracer, the reference set is first replayed under its spans.
pub fn setup_served(
    seed: u64,
    workers: usize,
    root: &Path,
    tracer: Option<&mut Tracer>,
) -> Result<Served, String> {
    // Settled jobs expire after a second, so the job table holds about a
    // second of streamed jobs instead of growing with throughput for the
    // whole window (and `peak_rss_mb` with it).
    let config = ServeConfig::default()
        .addr("127.0.0.1:0")
        .workers(workers)
        .engine_workers(workers)
        .job_ttl(Duration::from_secs(1));
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    let fixture = (|| {
        if let Some(tr) = tracer {
            trace::replay_all(tr, server.session(), &checks::reference_requests())?;
        }
        checks::verify_reference(server.session(), root).map_err(|e| e.join("; "))?;
        let table = gen::served_table(seed);
        let mut client = Client::new(server.addr());
        let mut answers = Vec::with_capacity(table.len());
        for call in &table {
            let first = exchange(&mut client, call).map_err(|e| e.to_string())?;
            let again = exchange(&mut client, call).map_err(|e| e.to_string())?;
            let ok = match &again {
                Answer::Body(status, _) => *status == 200,
                Answer::Stream(rows, done) => *rows > 0 && done.starts_with('{'),
            };
            if !ok || !same_answer(&first, &again) {
                return Err(format!("warm-up answer of {call:?} is unstable or failed"));
            }
            answers.push(again);
        }
        Ok((table, answers))
    })();
    match fixture {
        Ok((table, answers)) => Ok(Served {
            server,
            table: Arc::new(table),
            answers: Arc::new(answers),
        }),
        Err(e) => {
            server.shutdown();
            Err(e)
        }
    }
}

/// One keep-alive client's closed loop over the served table, while the
/// gate lets it.
pub fn run_client(served: &Served, schedule: &[Op], gate: &Gate, caller: usize) -> CallerLog {
    let mut client = Client::new(served.server.addr());
    let mut log = CallerLog::with_reservoir();
    for op in schedule.iter().cycle() {
        let Op::Http(i) = *op else {
            log.fail("in-process op in a served schedule".to_string());
            break;
        };
        let i = i as usize;
        let Some(segment) = gate.enter(caller) else {
            break;
        };
        log.attempted += 1;
        let started = Instant::now();
        let answer = exchange(&mut client, &served.table[i]);
        let elapsed = started.elapsed();
        gate.leave(caller);
        log.record(elapsed, component_of_call(&served.table[i]), segment);
        let verdict = match answer {
            Ok(answer) => check_answer(i, &answer, &served.answers[i]),
            Err(e) => {
                client = Client::new(served.server.addr());
                Err(format!("row {i}: {e}"))
            }
        };
        if let Err(e) = verdict {
            log.fail(e);
        }
    }
    log
}

/// A served answer must equal the one recorded at set-up for its row.
pub fn check_answer(row: usize, answer: &Answer, expected: &Answer) -> Result<(), String> {
    match answer {
        _ if answer == expected => Ok(()),
        Answer::Body(status, _) => Err(format!("row {row}: status {status} or changed body")),
        Answer::Stream(rows, _) => Err(format!("row {row}: stream of {rows} rows changed")),
    }
}

/// Fresh-request list for a cold workload, sized well past what `seconds`
/// can consume.
pub fn cold_fresh(workload: Workload, seed: u64, seconds: f64) -> Vec<RequestKind> {
    let per_second = match workload {
        Workload::ColdTiming => 120.0,
        _ => 200.0,
    };
    gen::cold_stream(
        seed,
        (seconds * per_second) as usize + 64,
        workload == Workload::ColdTiming,
    )
}

/// Per-caller schedules of a warm workload (callers cycle through them).
pub fn schedules(workload: Workload, seed: u64, warm: usize) -> Vec<Vec<Op>> {
    (0..workload.callers())
        .map(|caller| {
            let mut rng = Rng::new(seed, 100 + caller as u64);
            match workload {
                Workload::ServedMixed => gen::served_schedule(&mut rng, 1 << 15),
                _ => gen::warm_schedule(&mut rng, warm, 1 << 16),
            }
        })
        .collect()
}

/// The misses each `warm_mixed` caller draws from, in order.
pub fn warm_misses(seed: u64, caller: usize, seconds: f64) -> Vec<gen::Miss> {
    let mut rng = Rng::new(seed, 200 + caller as u64);
    // About 6% of ~30k operations per second per caller, with headroom.
    let n = (seconds * 4_000.0) as usize + 1000;
    (0..n).map(|_| gen::Miss::draw(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut log = CallerLog::with_reservoir();
        let n = 4 * RESERVOIR as u64;
        for i in 0..n {
            log.record(Duration::from_nanos(i * 1000), (i % 2) as u8, 0);
        }
        assert_eq!(log.timed, n);
        assert_eq!(log.latencies_us.len(), RESERVOIR);
        assert_eq!(log.components.len(), RESERVOIR);
        // A uniform sample of 0..n µs has its median near n / 2.
        let mut sorted = log.latencies_us.clone();
        sorted.sort_by(f64::total_cmp);
        let median = crate::stats::percentile(&sorted, 50.0);
        assert!((median / (n as f64 / 2.0) - 1.0).abs() < 0.02, "{median}");
        // Samples keep their own component.
        for (&us, &c) in log.latencies_us.iter().zip(&log.components) {
            assert_eq!(us.round() as u64 % 2, u64::from(c));
        }
    }
}
