//! perfbench — seeded closed-loop benchmark of the cnfet engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_timing|cold_yield|warm_mixed|served_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` replays the workload's requests
//! with per-layer spans instead. The last line of standard output is the
//! result object; the line before it carries the run's machine shape,
//! sample counts and output digest. `--record-reference` rewrites
//! `perfbench/reference.txt` from the current engine.

mod checks;
mod gen;
mod machine;
mod pace;
mod rng;
mod stats;
mod trace;
mod traced;
mod workloads;

use cnfet::Session;
use cnfet_serve::json::Json;
use stats::Outcome;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{CallerLog, Workload};

/// Set-up probes per run; `setup_s` is their median.
const SETUP_PROBES: usize = 15;

/// The first argument of a set-up probe: a child run of this program
/// that generates its inputs, sets up, prints `ready` where the first
/// timed request would start, and exits.
const PROBE_FLAG: &str = "--setup-probe";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let root = Path::new(".");
    if argv.first().map(String::as_str) == Some("--record-reference") {
        return record_reference(root);
    }
    let probe = argv.first().map(String::as_str) == Some(PROBE_FLAG);
    let args = match parse_args(&argv[usize::from(probe)..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if probe {
        return setup_probe(&args, root);
    }
    let result = if args.trace {
        traced::traced_run(&args, root)
    } else {
        timed_run(&args, &argv, root, started)
    };
    match result {
        Ok((info, outcome)) => {
            println!("{}", info.render());
            println!("{}", outcome.to_json().render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn record_reference(root: &Path) -> ExitCode {
    let session = Session::builder()
        .batch_workers(workloads::POOL_WIDTH)
        .build();
    match checks::reference_values(&session) {
        Ok(values) => {
            let path = root.join(checks::REFERENCE_FILE);
            if let Err(e) = std::fs::write(&path, checks::render_reference(&values)) {
                eprintln!("perfbench: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("recorded {} reference values", values.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The machine shape and run parameters every result records.
pub fn info(args: &Args, pool: usize, server_workers: usize) -> Vec<(String, Json)> {
    let field = |k: &str, v: Json| (k.to_string(), v);
    vec![
        field("workload", Json::str(args.workload.name())),
        field("seed", Json::from(args.seed)),
        field("trace", Json::Bool(args.trace)),
        field("nproc", Json::from(machine::nproc())),
        field("pool_width", Json::from(pool)),
        field(
            "server_workers",
            Json::from((args.workload == Workload::ServedMixed).then_some(server_workers as u64)),
        ),
        field(
            "engine_workers",
            Json::from((args.workload == Workload::ServedMixed).then_some(server_workers as u64)),
        ),
        field("callers", Json::from(args.workload.callers())),
        field("rustc", Json::str(machine::rustc_version())),
        field("commit", Json::str(machine::commit())),
    ]
}

pub fn errors_json(errors: &[String]) -> Json {
    errors.iter().map(|e| Json::str(e.as_str())).collect()
}

// ---------------------------------------------------------------------------
// Timed run (tracing off): the end-to-end metrics
// ---------------------------------------------------------------------------

pub enum Fixture {
    Engine(workloads::Engine),
    Served(workloads::Served),
}

impl Fixture {
    pub fn close(self) {
        if let Fixture::Served(served) = self {
            served.server.shutdown();
        }
    }
}

pub fn setup(
    args: &Args,
    width: usize,
    root: &Path,
    tracer: Option<&mut trace::Tracer>,
) -> Result<Fixture, String> {
    Ok(match args.workload {
        Workload::ServedMixed => {
            Fixture::Served(workloads::setup_served(args.seed, width, root, tracer)?)
        }
        w => Fixture::Engine(workloads::setup_engine(w, width, root, tracer)?),
    })
}

/// Inputs of every caller, generated before anything is timed.
pub struct Inputs {
    pub fresh: Vec<workloads::Fresh>,
    pub schedules: Vec<Vec<gen::Op>>,
}

pub fn inputs(args: &Args) -> Inputs {
    let w = args.workload;
    match w {
        Workload::ColdTiming | Workload::ColdYield => Inputs {
            fresh: vec![workloads::Fresh::Requests(workloads::cold_fresh(
                w,
                args.seed,
                args.seconds,
            ))],
            schedules: vec![vec![gen::Op::Fresh]],
        },
        Workload::WarmMixed => Inputs {
            fresh: (0..w.callers())
                .map(|caller| workloads::Fresh::Misses {
                    caller,
                    misses: workloads::warm_misses(args.seed, caller, args.seconds),
                })
                .collect(),
            schedules: workloads::schedules(w, args.seed, gen::warm_set().len()),
        },
        Workload::ServedMixed => Inputs {
            fresh: (0..w.callers())
                .map(|_| workloads::Fresh::Requests(Vec::new()))
                .collect(),
            schedules: workloads::schedules(w, args.seed, 0),
        },
    }
}

fn run_callers(
    fixture: &Fixture,
    inputs: &Inputs,
    seconds: f64,
) -> (Vec<CallerLog>, Vec<pace::Segment>) {
    pace::run(inputs.schedules.len(), seconds, |gate, c| {
        let schedule = &inputs.schedules[c];
        match fixture {
            Fixture::Engine(engine) => {
                workloads::run_caller(engine, &inputs.fresh[c], schedule, gate, c)
            }
            Fixture::Served(served) => workloads::run_client(served, schedule, gate, c),
        }
    })
}

/// Child side of a set-up probe.
fn setup_probe(args: &Args, root: &Path) -> ExitCode {
    let inputs = inputs(args);
    match setup(args, workloads::POOL_WIDTH, root, None) {
        Ok(fixture) => {
            println!("ready");
            std::hint::black_box(inputs);
            fixture.close();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: set-up probe: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Time from starting a child run of this program to its `ready` line:
/// process start to the first timed request, with nothing warm that the
/// process builds for itself.
fn probe_setup_s(argv: &[String]) -> Result<f64, String> {
    use std::io::BufRead;
    use std::process::{Command, Stdio};
    let exe = std::env::current_exe().map_err(|e| format!("set-up probe: {e}"))?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .arg(PROBE_FLAG)
        .args(argv)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let mut line = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    let read = std::io::BufReader::new(stdout).read_line(&mut line);
    let elapsed = started.elapsed().as_secs_f64();
    if read.is_err() {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("set-up probe: {e}"))?;
    if line.trim_end() == "ready" && status.success() {
        Ok(elapsed)
    } else {
        Err(format!("set-up probe failed ({status})"))
    }
}

fn timed_run(
    args: &Args,
    argv: &[String],
    root: &Path,
    started: Instant,
) -> Result<(Json, Outcome), String> {
    let inputs = inputs(args);
    let generated_s = started.elapsed().as_secs_f64();
    let fixture = setup(args, workloads::POOL_WIDTH, root, None)?;
    let own_setup_s = started.elapsed().as_secs_f64();
    let warm_digest = match &fixture {
        Fixture::Engine(e) => e.warm_digest,
        Fixture::Served(s) => s.digest(),
    };

    let (logs, segments) = run_callers(&fixture, &inputs, args.seconds);
    fixture.close();
    // Every time below is reported at the reference speed (see `pace`):
    // each segment's wall and CPU time, each latency by the factor of its
    // segment, each set-up probe by the calibrations on either side.
    let window: f64 = segments.iter().map(|s| s.wall_s).sum();
    let scaled_window: f64 = segments.iter().map(|s| s.wall_s * s.factor).sum();
    let cpu: f64 = segments.iter().map(|s| s.cpu_s).sum();
    let scaled_cpu: f64 = segments.iter().map(|s| s.cpu_s * s.factor).sum();
    let mut raw_setups = Vec::with_capacity(SETUP_PROBES);
    let mut setups = Vec::with_capacity(SETUP_PROBES);
    let mut before = pace::calibrate();
    for _ in 0..SETUP_PROBES {
        let raw = probe_setup_s(argv)?;
        let after = pace::calibrate();
        raw_setups.push(raw);
        setups.push(raw * pace::factor(before, after));
        before = after;
    }

    let mut digest = checks::Fnv::default();
    digest.u64(warm_digest);
    let mut all = CallerLog::default();
    let mut digested = 0;
    for log in logs {
        let prefix = &log.fresh_digests[..log.fresh_digests.len().min(workloads::DIGEST_PREFIX)];
        for &d in prefix {
            digest.u64(d);
        }
        digested += prefix.len();
        all.merge(log);
    }
    if all.latencies_us.is_empty() {
        return Err("no request completed in the window".into());
    }
    let completed = (all.attempted - all.failed).max(1) as f64;
    let mut raw_lat = std::mem::take(&mut all.latencies_us);
    let mut lat: Vec<f64> = raw_lat
        .iter()
        .zip(&all.segments)
        .map(|(&us, &s)| us * segments[s as usize].factor)
        .collect();
    let components = components_json(&lat, &all.components);
    lat.sort_by(f64::total_cmp);
    raw_lat.sort_by(f64::total_cmp);
    let mut outcome = Outcome {
        correct: all.failed == 0,
        attempted: all.attempted,
        failed: all.failed,
        metrics: Vec::new(),
    };
    outcome.push("setup_s", stats::median(&setups), "s");
    outcome.push("throughput_rps", completed / scaled_window, "1/s");
    outcome.push("p50_us", stats::percentile(&lat, 50.0), "us");
    outcome.push("p90_us", stats::percentile(&lat, 90.0), "us");
    outcome.push("p99_us", stats::percentile(&lat, 99.0), "us");
    outcome.push("cpu_ms_per_req", scaled_cpu * 1e3 / completed, "ms");
    outcome.push("peak_rss_mb", machine::peak_rss_mb(), "MB");
    let raw = Json::obj([
        ("setup_s", Json::Num(stats::median(&raw_setups))),
        ("throughput_rps", Json::Num(completed / window)),
        ("p50_us", Json::Num(stats::percentile(&raw_lat, 50.0))),
        ("p90_us", Json::Num(stats::percentile(&raw_lat, 90.0))),
        ("p99_us", Json::Num(stats::percentile(&raw_lat, 99.0))),
        ("cpu_ms_per_req", Json::Num(cpu * 1e3 / completed)),
    ]);
    let factors: Vec<f64> = segments.iter().map(|s| s.factor).collect();
    let speed = Json::obj([
        ("segments", Json::from(segments.len())),
        ("factor_median", Json::Num(stats::median(&factors))),
        (
            "factor_min",
            Json::Num(factors.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        (
            "factor_max",
            Json::Num(factors.iter().copied().fold(0.0, f64::max)),
        ),
        ("factors", factors.iter().map(|&f| Json::Num(f)).collect()),
    ]);

    let mut fields = info(args, workloads::POOL_WIDTH, workloads::POOL_WIDTH);
    let tail = stats::resolved_tail(lat.len()).map_or(Json::Null, Json::Num);
    fields.extend([
        ("operations_timed".to_string(), Json::from(all.timed)),
        ("samples".to_string(), Json::from(lat.len())),
        ("tail_percentile_resolved".to_string(), tail),
        ("window_s".to_string(), Json::Num(window)),
        ("speed".to_string(), speed),
        ("unscaled".to_string(), raw),
        ("inputs_generated_s".to_string(), Json::Num(generated_s)),
        ("own_setup_s".to_string(), Json::Num(own_setup_s)),
        (
            "setups_s".to_string(),
            raw_setups.iter().map(|&s| Json::Num(s)).collect(),
        ),
        ("components".to_string(), components),
        (
            "error_rate".to_string(),
            Json::Num(all.failed as f64 / all.attempted.max(1) as f64),
        ),
        (
            "digest".to_string(),
            Json::str(format!("{:016x}", digest.finish())),
        ),
        ("digested_fresh_outputs".to_string(), Json::from(digested)),
        ("errors".to_string(), errors_json(&all.errors)),
    ]);
    Ok((
        Json::Obj(vec![("info".to_string(), Json::Obj(fields))]),
        outcome,
    ))
}

/// Per traffic component: its share of operations and of summed latency,
/// its own median and p90, and its share of the samples above the run's
/// p90 and p99 (which component sets each tail).
fn components_json(lat_us: &[f64], components: &[u8]) -> Json {
    let mut sorted = lat_us.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (p90, p99) = (
        stats::percentile(&sorted, 90.0),
        stats::percentile(&sorted, 99.0),
    );
    let share = |part: usize, whole: usize| part as f64 / whole.max(1) as f64;
    let above = |limit: f64| lat_us.iter().filter(|&&l| l > limit).count();
    let (above_p90, above_p99) = (above(p90), above(p99));
    let total_us: f64 = lat_us.iter().sum();
    let mut by: Vec<Vec<f64>> = vec![Vec::new(); workloads::COMPONENTS.len()];
    for (&l, &c) in lat_us.iter().zip(components) {
        by[usize::from(c)].push(l);
    }
    let fields = by
        .into_iter()
        .zip(workloads::COMPONENTS)
        .filter(|(v, _)| !v.is_empty())
        .map(|(mut v, name)| {
            let tail = |limit: f64| v.iter().filter(|&&l| l > limit).count();
            let (tail90, tail99) = (tail(p90), tail(p99));
            let time_share = v.iter().sum::<f64>() / total_us;
            v.sort_by(f64::total_cmp);
            let value = Json::obj([
                ("ops_share", Json::Num(share(v.len(), lat_us.len()))),
                ("time_share", Json::Num(time_share)),
                ("p50_us", Json::Num(stats::percentile(&v, 50.0))),
                ("p90_us", Json::Num(stats::percentile(&v, 90.0))),
                ("above_p90_share", Json::Num(share(tail90, above_p90))),
                ("above_p99_share", Json::Num(share(tail99, above_p99))),
            ]);
            (name.to_string(), value)
        })
        .collect();
    Json::Obj(fields)
}
