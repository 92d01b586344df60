//! `--trace 1`: the per-layer run. It replays a fixed prefix of the
//! workload's operations on fresh width-1 fixtures — untraced, traced,
//! untraced again — and reports per-layer calls and self times,
//! coverage, and tracing overhead (traced over untraced median request
//! time of the same replay).

use crate::gen::{Call, Op};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Answer, CallerLog, Fresh, Replay, Workload};
use crate::{checks, errors_json, info, inputs, setup, stats, Args, Fixture};
use cnfet::{RequestKind, ResponseKind, Session};
use cnfet_serve::jobtable::{JobTable, Polled};
use cnfet_serve::json::Json;
use cnfet_serve::{encode, json, wire, Client};
use stats::Outcome;
use std::path::Path;
use std::time::{Duration, Instant};

/// Operations replayed by a traced run: a fixed prefix of the workload's
/// stream, so per-layer totals compare across runs and commits.
fn trace_len(w: Workload) -> usize {
    match w {
        Workload::ColdTiming => 45,
        Workload::ColdYield => 64,
        Workload::WarmMixed => 20_000,
        Workload::ServedMixed => 4_000,
    }
}

/// What one replay pass measured.
#[derive(Default)]
struct Pass {
    /// Per-operation wall time, out-of-line spans excluded.
    wall_us: Vec<f64>,
    /// Digest of every fresh output, in draw order.
    digests: Vec<u64>,
    log: CallerLog,
}

pub fn traced_run(args: &Args, root: &Path) -> Result<(Json, Outcome), String> {
    let w = args.workload;
    let inputs = inputs(args);
    let schedule: Vec<Op> = inputs.schedules[0]
        .iter()
        .copied()
        .cycle()
        .take(trace_len(w))
        .collect();
    let fresh = &inputs.fresh[0];

    // The first untraced pass warms process-wide state (the MNA pattern
    // cache) and records the outputs the later passes must reproduce; the
    // overhead compares the traced pass with the untraced pass after it.
    let first = replay(args, root, &mut Tracer::disabled(), &schedule, fresh, None)?;
    let mut tr = Tracer::default();
    let traced = replay(args, root, &mut tr, &schedule, fresh, Some(&first.digests))?;
    let mut untraced = replay(
        args,
        root,
        &mut Tracer::disabled(),
        &schedule,
        fresh,
        Some(&first.digests),
    )?;
    untraced.log.merge(first.log);

    let layers = trace::layers(&tr.spans);
    let mut outcome = Outcome {
        correct: traced.log.failed == 0 && untraced.log.failed == 0,
        attempted: traced.log.attempted,
        failed: traced.log.failed + untraced.log.failed,
        metrics: Vec::new(),
    };
    layer_metrics(&mut outcome, &tr, &layers);
    let p50 = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, 50.0)
    };
    let (traced_p50, untraced_p50) = (p50(&traced.wall_us), p50(&untraced.wall_us));
    outcome.push("trace.coverage", trace::coverage(&tr.spans), "ratio");
    outcome.push("trace.overhead", traced_p50 / untraced_p50, "ratio");

    let dir = root.join("perfbench/out");
    let path = dir.join(format!("trace-{}-seed{}.tsv", w.name(), args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.render()))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let mut fields = info(args, 1, 1);
    let mut errors = traced.log.errors.clone();
    errors.extend(untraced.log.errors.iter().cloned());
    fields.extend([
        (
            "traced_requests".to_string(),
            Json::from(traced.wall_us.len()),
        ),
        ("spans".to_string(), Json::from(tr.spans.len())),
        ("traced_p50_us".to_string(), Json::Num(traced_p50)),
        ("untraced_p50_us".to_string(), Json::Num(untraced_p50)),
        (
            "span_file".to_string(),
            Json::str(path.display().to_string()),
        ),
        ("errors".to_string(), errors_json(&errors)),
    ]);
    Ok((
        Json::Obj(vec![("info".to_string(), Json::Obj(fields))]),
        outcome,
    ))
}

/// One replay pass on a fresh width-1 fixture. `expect` holds the other
/// pass's fresh-output digests, which this pass must reproduce.
fn replay(
    args: &Args,
    root: &Path,
    tr: &mut Tracer,
    schedule: &[Op],
    fresh: &Fresh,
    expect: Option<&[u64]>,
) -> Result<Pass, String> {
    let id = tr.begin_request(0, "setup");
    let fixture = setup(args, 1, root, Some(&mut *tr));
    tr.end(id);
    let fixture = fixture?;
    let mut pass = Pass::default();
    match &fixture {
        Fixture::Engine(engine) => {
            let planner = Session::builder().batch_workers(1).build();
            let stats0 = engine.session.stats();
            let mut next_fresh = 0;
            for (i, &op) in schedule.iter().enumerate() {
                let drawn = match op {
                    Op::Fresh => match fresh.get(next_fresh) {
                        Some(r) => {
                            next_fresh += 1;
                            Some(r)
                        }
                        None => break,
                    },
                    _ => None,
                };
                let request = drawn.as_deref();
                let plan = match request {
                    Some(r) => trace::plan(&planner, r)?,
                    None => None,
                };
                pass.log.attempted += 1;
                let ool = tr.out_of_line_ns();
                let root_id = tr.begin_request(i as u32 + 1, "request");
                let replay = Replay {
                    plan: plan.as_deref(),
                };
                let (elapsed, verdict) = workloads::exec_op(tr, engine, op, request, Some(replay));
                tr.end(root_id);
                let wall = elapsed.as_nanos() as u64 - (tr.out_of_line_ns() - ool);
                pass.wall_us.push(wall as f64 / 1e3);
                let verdict = verdict.and_then(|digest| {
                    let Some(digest) = digest else { return Ok(()) };
                    pass.digests.push(digest);
                    match (expect, request) {
                        (Some(e), _) if e.get(pass.digests.len() - 1) != Some(&digest) => {
                            Err("traced output differs from the untraced replay".to_string())
                        }
                        (None, Some(RequestKind::Tran(t))) => {
                            engine_agrees(&engine.session, t, digest)
                        }
                        _ => Ok(()),
                    }
                });
                if let Err(e) = verdict {
                    pass.log.fail(e);
                }
            }
            engine_counters(tr, &stats0, &engine.session.stats());
        }
        Fixture::Served(served) => {
            let mut client = Client::new(served.server.addr());
            let jobs = JobTable::new(64, Duration::from_secs(60));
            let stats0 = served.server.session().stats();
            for (i, &op) in schedule.iter().enumerate() {
                pass.log.attempted += 1;
                let root_id = tr.begin_request(i as u32 + 1, "request");
                let verdict = replay_exchange(tr, served, &mut client, &jobs, op);
                tr.end(root_id);
                match verdict {
                    Ok(roundtrip_us) => pass.wall_us.push(roundtrip_us),
                    Err(e) => pass.log.fail(e),
                }
            }
            engine_counters(tr, &stats0, &served.server.session().stats());
        }
    }
    fixture.close();
    Ok(pass)
}

/// The benchmark's replay of a transient deck must equal the engine's own
/// `TranRequest` execution.
fn engine_agrees(
    session: &Session,
    request: &cnfet::TranRequest,
    digest: u64,
) -> Result<(), String> {
    let engine = session.run(request).map_err(|e| e.to_string())?;
    if checks::digest(&ResponseKind::Tran(engine)) == digest {
        Ok(())
    } else {
        Err("replayed transient differs from the engine's".into())
    }
}

/// One served exchange — the client round trip, then its in-process
/// share (JSON parse, wire decode, engine, wire render, JSON render,
/// binary encode, job-table submit) replayed out of line against the
/// server's own session. Transport is the round trip minus that share.
/// Returns the round trip, microseconds.
fn replay_exchange(
    tr: &mut Tracer,
    served: &workloads::Served,
    client: &mut Client,
    jobs: &JobTable,
    op: Op,
) -> Result<f64, String> {
    let Op::Http(i) = op else {
        return Err("in-process op in a served schedule".into());
    };
    let (call, expected) = (&served.table[i as usize], &served.answers[i as usize]);
    let session = served.server.session();
    let started = Instant::now();
    let id = tr.begin("serve.roundtrip");
    let answer = workloads::exchange(client, call);
    tr.end(id);
    let roundtrip_ns = started.elapsed().as_nanos() as u64;
    let answer = answer.map_err(|e| e.to_string())?;
    let ool = tr.out_of_line_ns();

    let decode = |tr: &mut Tracer, body: &Json| {
        let text = body.render();
        let value = tr
            .time_out_of_line("serve.json.parse", || json::parse(&text))
            .map_err(|e| format!("json: {e:?}"))?;
        Ok::<Json, String>(value)
    };
    match call {
        Call::Run(body) | Call::Binary(body) => {
            let value = decode(tr, body)?;
            let kind = tr
                .time_out_of_line("serve.wire.decode", || wire::parse_request(&value))
                .map_err(|e| e.message)?;
            let response = tr
                .time_out_of_line("engine", || session.run(&kind))
                .map_err(|e| e.to_string())?;
            if matches!(call, Call::Binary(_)) {
                let bytes = tr.time_out_of_line("serve.encode.binary", || match &response {
                    ResponseKind::Sweep(r) => encode::encode_row_table(&r.rows),
                    ResponseKind::Repair(r) => encode::encode_die_table(&r.dies),
                    _ => Vec::new(),
                });
                std::hint::black_box(bytes);
            } else {
                let rendered =
                    tr.time_out_of_line("serve.wire.render", || wire::render_response(&response));
                let text = tr.time_out_of_line("serve.json.render", || rendered.render());
                std::hint::black_box(text);
            }
        }
        Call::Batch(body) => {
            let value = decode(tr, body)?;
            let kinds = tr
                .time_out_of_line("serve.wire.decode", || {
                    value
                        .get("requests")
                        .and_then(Json::as_arr)
                        .unwrap_or_default()
                        .iter()
                        .map(wire::parse_request)
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| e.message)?;
            let results = tr.time_out_of_line("engine", || session.run_batch(&kinds));
            let rendered = tr.time_out_of_line("serve.wire.render", || {
                results
                    .iter()
                    .map(|r| r.as_ref().map_or(Json::Null, wire::render_response))
                    .collect::<Json>()
            });
            let text = tr.time_out_of_line("serve.json.render", || rendered.render());
            std::hint::black_box(text);
        }
        Call::Stream(body) => {
            let value = decode(tr, body)?;
            let kind = tr
                .time_out_of_line("serve.wire.decode", || wire::parse_request(&value))
                .map_err(|e| e.message)?;
            let job = tr
                .time_out_of_line("serve.jobtable.submit", || jobs.submit(session, kind))
                .map_err(|_| "job table full".to_string())?;
            tr.time_out_of_line("engine", || {
                while matches!(jobs.poll(job), Polled::Pending { .. }) {
                    std::thread::yield_now();
                }
            });
        }
        Call::Stats => {}
    }
    let local_ns = tr.out_of_line_ns() - ool;
    tr.count("serve.exchanges", 1.0);
    tr.count(
        "serve.transport_ns",
        roundtrip_ns.saturating_sub(local_ns) as f64,
    );
    if let Answer::Body(status, bytes) = &answer {
        tr.count("serve.bytes_out", bytes.len() as f64);
        if *status == 429 || *status >= 500 {
            tr.count("serve.refused", 1.0);
        }
    }
    workloads::check_answer(i as usize, &answer, expected).map(|()| roundtrip_ns as f64 / 1e3)
}

/// Session counter deltas over a pass.
fn engine_counters(tr: &mut Tracer, before: &cnfet::SessionStats, after: &cnfet::SessionStats) {
    let total = |s: &cnfet::SessionStats, f: fn(&cnfet::RequestStats) -> u64| -> f64 {
        cnfet::RequestClass::ALL
            .into_iter()
            .map(|c| f(&s.class(c)) as f64)
            .sum()
    };
    let delta = |f: fn(&cnfet::RequestStats) -> u64| total(after, f) - total(before, f);
    tr.count("cache.hits", delta(|r| r.hits));
    tr.count("cache.fast_hits", delta(|r| r.fast_hits));
    tr.count("cache.misses", delta(|r| r.misses));
    tr.count("cache.evictions", delta(|r| r.evictions));
    tr.count(
        "cache.inflight_waits",
        (after.inflight_waits - before.inflight_waits) as f64,
    );
    tr.count(
        "jobs.submitted",
        (after.submitted - before.submitted) as f64,
    );
    tr.count("batch.steals", (after.steals - before.steals) as f64);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every `per_layer` metric of the benchmark.
fn layer_metrics(
    outcome: &mut Outcome,
    tr: &Tracer,
    layers: &std::collections::BTreeMap<&'static str, trace::Layer>,
) {
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let calls = |name: &str| layer(name).calls as f64;
    let self_ms = |name: &str| layer(name).self_ns / 1e6;
    let mean_ns = |name: &str| ratio(layer(name).total_ns, calls(name));
    let c = |name: &str| tr.counter(name);
    let mut push = |name: &str, value: f64, unit: &str| outcome.push(name, value, unit);

    for name in [
        "core.generate",
        "immunity.mc",
        "immunity.certify",
        "repair.die",
    ] {
        push(&format!("{name}.calls"), calls(name), "count");
        push(&format!("{name}.self_ms"), self_ms(name), "ms");
    }
    push(
        "repair.sat_share",
        ratio(c("repair.sat_dies"), c("repair.dies")),
        "ratio",
    );
    push("dk.characterize.calls", calls("dk.characterize"), "count");
    push("dk.characterize.self_ms", self_ms("dk.characterize"), "ms");
    push("dk.library.self_ms", self_ms("dk.library"), "ms");
    push("spice.parse.self_ms", self_ms("spice.parse"), "ms");
    push("spice.lower.self_ms", self_ms("spice.lower"), "ms");
    for name in ["mna.analyze", "mna.tran"] {
        push(&format!("{name}.calls"), calls(name), "count");
        push(&format!("{name}.self_ms"), self_ms(name), "ms");
    }
    for name in [
        "mna.tran.steps",
        "mna.factorizations",
        "mna.refactorizations",
        "mna.solves",
    ] {
        push(name, c(name), "count");
    }
    push(
        "mna.solves_per_step",
        ratio(c("mna.solves"), c("mna.tran.steps")),
        "ratio",
    );
    push("mna.failures", c("mna.failures"), "count");
    for name in ["flow.place", "flow.gds", "flow.spice"] {
        push(&format!("{name}.self_ms"), self_ms(name), "ms");
    }
    push("fanout.children", c("fanout.children"), "count");
    push("fanout.self_ms", self_ms("fanout"), "ms");
    push("cache.key_build_ns", mean_ns("cache.key"), "ns");
    push("cache.hit_ns", mean_ns("cache.hit"), "ns");
    let lookups = c("cache.hits") + c("cache.misses");
    push("cache.hit_ratio", ratio(c("cache.hits"), lookups), "ratio");
    push(
        "cache.fast_hit_ratio",
        ratio(c("cache.fast_hits"), c("cache.hits")),
        "ratio",
    );
    push("cache.evictions", c("cache.evictions"), "count");
    push("cache.inflight_waits", c("cache.inflight_waits"), "count");
    push("jobs.submitted", c("jobs.submitted"), "count");
    push(
        "jobs.dispatch_ns",
        ratio(layer("jobs").total_ns, c("jobs.jobs")),
        "ns",
    );
    push(
        "batch.per_req_ns",
        ratio(layer("batch").total_ns, c("batch.requests")),
        "ns",
    );
    push("batch.steals", c("batch.steals"), "count");
    for name in [
        "serve.json.parse",
        "serve.json.render",
        "serve.wire.decode",
        "serve.wire.render",
        "serve.encode.binary",
        "serve.jobtable.submit",
    ] {
        push(&format!("{name}_us"), mean_ns(name) / 1e3, "us");
    }
    let transport_us = ratio(c("serve.transport_ns"), c("serve.exchanges")) / 1e3;
    push("serve.transport_us", transport_us, "us");
    push("serve.bytes_out", c("serve.bytes_out"), "bytes");
    push("serve.refused", c("serve.refused"), "count");
}
