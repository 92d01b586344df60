//! A minimal wall-clock benchmark harness.
//!
//! The workspace builds without network access, so criterion is not an
//! option; this harness covers what the perf work needs: named samples
//! over a fixed iteration count, min/median/mean/max reporting, and a
//! machine-readable JSON baseline under `target/bench-baselines/<suite>.json`
//! that future perf PRs diff against. A baseline also records the shape
//! of the machine that wrote it (`nproc`, `rustc`) and the session pool
//! width it ran with (`workers`), since timings only compare across runs
//! of one shape.

use std::hint::black_box;
use std::time::Instant;

/// One benchmark's timing summary.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark name.
    pub name: String,
    /// Timed iterations (after one untimed warmup).
    pub iters: u32,
    /// Mean time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: f64,
    /// Median iteration, nanoseconds; `None` when read from a baseline
    /// written before medians were recorded.
    pub median_ns: Option<f64>,
    /// Slowest iteration, nanoseconds.
    pub max_ns: f64,
}

/// Collects samples for one bench suite and writes the baseline on
/// [`Harness::finish`].
pub struct Harness {
    suite: String,
    /// Available parallelism of the machine running the suite.
    nproc: usize,
    /// Worker threads of a default session's pool on this run
    /// ([`cnfet::Session::worker_count`], which honours
    /// `CNFET_TEST_WORKERS`).
    workers: usize,
    /// `rustc --version` of the toolchain on the path, or `"unknown"`.
    rustc: String,
    samples: Vec<Sample>,
}

impl Harness {
    /// Starts a suite (named after the bench target).
    pub fn new(suite: impl Into<String>) -> Harness {
        let suite = suite.into();
        println!("bench suite `{suite}`");
        println!(
            "{:<38} {:>6} {:>12} {:>12} {:>12} {:>12}",
            "name", "iters", "min", "median", "mean", "max"
        );
        Harness {
            suite,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            // The pool starts on first use, so this spawns no thread.
            workers: cnfet::Session::new().worker_count(),
            rustc: rustc_version(),
            samples: Vec::new(),
        }
    }

    /// Runs `f` once untimed (warmup), then `iters` timed iterations.
    /// The result of every call is passed through [`black_box`] so the
    /// optimizer cannot delete the work.
    pub fn bench<T>(&mut self, name: impl Into<String>, iters: u32, mut f: impl FnMut() -> T) {
        let name = name.into();
        black_box(f());
        let mut times = Vec::with_capacity(iters as usize);
        for _ in 0..iters.max(1) {
            let t0 = Instant::now();
            black_box(f());
            times.push(t0.elapsed().as_secs_f64() * 1e9);
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        times.sort_by(f64::total_cmp);
        let (min, max) = (times[0], times[times.len() - 1]);
        let median = median(&times);
        println!(
            "{:<38} {:>6} {:>12} {:>12} {:>12} {:>12}",
            name,
            iters,
            fmt_ns(min),
            fmt_ns(median),
            fmt_ns(mean),
            fmt_ns(max)
        );
        self.samples.push(Sample {
            name,
            iters: iters.max(1),
            mean_ns: mean,
            min_ns: min,
            median_ns: Some(median),
            max_ns: max,
        });
    }

    /// Prints the footer and writes `target/bench-baselines/<suite>.json`
    /// under the workspace target directory.
    pub fn finish(self) {
        let dir = baseline_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{}.json", self.suite));
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("baseline written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }

    /// The suite as a JSON baseline document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"suite\": \"{}\",\n  \"nproc\": {},\n  \"workers\": {},\n  \"rustc\": \"{}\",\n  \"samples\": [\n",
            self.suite, self.nproc, self.workers, self.rustc
        ));
        for (i, s) in self.samples.iter().enumerate() {
            let median = s
                .median_ns
                .map(|m| format!(", \"median_ns\": {m:.1}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"iters\": {}, \"min_ns\": {:.1}{median}, \"mean_ns\": {:.1}, \"max_ns\": {:.1}}}{}\n",
                s.name,
                s.iters,
                s.min_ns,
                s.mean_ns,
                s.max_ns,
                if i + 1 == self.samples.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Parses a baseline document previously written by [`Harness::finish`]
/// back into `(suite, samples)`. This is the exact inverse of
/// [`Harness::to_json`] — a hand-rolled scanner, since the workspace
/// builds without serde — and returns `None` on any malformed field.
/// `median_ns` is optional: baselines recorded before it existed read
/// back with `median_ns: None`. The suite-level fields (`nproc`,
/// `workers`, `rustc`) are not read back; baselines without them parse
/// the same.
pub fn parse_baseline(json: &str) -> Option<(String, Vec<Sample>)> {
    let suite = field_str(json, "\"suite\"")?;
    let mut samples = Vec::new();
    for chunk in json.split("{\"name\"").skip(1) {
        // Re-anchor the chunk so the field helpers see a full object.
        let chunk = format!("{{\"name\"{}", chunk.split('}').next()?);
        samples.push(Sample {
            name: field_str(&chunk, "\"name\"")?,
            iters: field_f64(&chunk, "\"iters\"")? as u32,
            min_ns: field_f64(&chunk, "\"min_ns\"")?,
            median_ns: field_f64(&chunk, "\"median_ns\""),
            mean_ns: field_f64(&chunk, "\"mean_ns\"")?,
            max_ns: field_f64(&chunk, "\"max_ns\"")?,
        });
    }
    Some((suite, samples))
}

/// The first line of `rustc --version`, with any `"` or `\` dropped so
/// it embeds in a JSON string as is, or `"unknown"`.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            let text = String::from_utf8(out.stdout).ok()?;
            let line = text.lines().next()?.replace(['"', '\\'], "");
            Some(line)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Extracts the string value of `"key": "value"`.
fn field_str(json: &str, key: &str) -> Option<String> {
    let after = &json[json.find(key)? + key.len()..];
    let open = after.find('"')? + 1;
    let rest = &after[open..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts the numeric value of `"key": 123.4`.
fn field_f64(json: &str, key: &str) -> Option<f64> {
    let after = &json[json.find(key)? + key.len()..];
    let colon = after.find(':')? + 1;
    let rest = after[colon..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The canonical path of a suite's baseline:
/// `<baseline dir>/<suite>.json`. See [`parse_baseline`] to read one
/// back.
pub fn baseline_path(suite: &str) -> std::path::PathBuf {
    baseline_dir().join(format!("{suite}.json"))
}

/// The baseline directory: `$CARGO_TARGET_DIR/bench-baselines` when set,
/// else the workspace `target/` (two levels above this crate's manifest
/// when run under cargo), else the current directory.
fn baseline_dir() -> std::path::PathBuf {
    if let Some(t) = std::env::var_os("CARGO_TARGET_DIR") {
        return std::path::PathBuf::from(t).join("bench-baselines");
    }
    if let Some(m) = std::env::var_os("CARGO_MANIFEST_DIR") {
        let manifest = std::path::PathBuf::from(m);
        if let Some(ws) = manifest.parent().and_then(|p| p.parent()) {
            return ws.join("target/bench-baselines");
        }
    }
    std::path::PathBuf::from("target/bench-baselines")
}

/// The median of a sorted, non-empty slice (the mean of the two middle
/// values for an even count).
fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_record_and_serialize() {
        let mut h = Harness::new("unit");
        let mut calls = 0u32;
        h.bench("counting", 5, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 6, "one warmup + five timed");
        assert_eq!(h.samples.len(), 1);
        assert!(h.samples[0].min_ns <= h.samples[0].mean_ns);
        assert!(h.samples[0].mean_ns <= h.samples[0].max_ns);
        let median = h.samples[0].median_ns.expect("recorded");
        assert!(h.samples[0].min_ns <= median && median <= h.samples[0].max_ns);
        let json = h.to_json();
        assert!(json.contains("\"suite\": \"unit\""));
        assert!(json.contains("\"name\": \"counting\""));
        assert!(h.nproc >= 1);
        assert!(json.contains(&format!("\"nproc\": {},", h.nproc)));
        assert!(h.workers >= 1);
        assert_eq!(h.workers, cnfet::Session::new().worker_count());
        assert!(json.contains(&format!("\"workers\": {},", h.workers)));
        assert_eq!(
            field_str(&json, "\"rustc\"").as_deref(),
            Some(h.rustc.as_str())
        );
        assert!(!h.rustc.is_empty());
    }

    #[test]
    fn parse_baseline_inverts_to_json() {
        let mut h = Harness::new("roundtrip");
        h.bench("fast", 3, || 1 + 1);
        h.bench("slow", 2, || {
            std::thread::sleep(std::time::Duration::from_micros(50))
        });
        let (suite, samples) = parse_baseline(&h.to_json()).expect("parses");
        assert_eq!(suite, "roundtrip");
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].name, "fast");
        assert_eq!(samples[0].iters, 3);
        assert_eq!(samples[1].name, "slow");
        assert!((samples[1].min_ns - h.samples[1].min_ns).abs() < 0.11);
        assert!((samples[1].mean_ns - h.samples[1].mean_ns).abs() < 0.11);
        let (read, written) = (samples[1].median_ns, h.samples[1].median_ns);
        assert!((read.unwrap() - written.unwrap()).abs() < 0.11);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    /// Baselines written before medians and the machine shape were
    /// recorded still parse, with no median; the committed ones among
    /// them. (`parse_baseline_inverts_to_json` reads the current shape.)
    #[test]
    fn parse_baseline_reads_files_without_a_median() {
        let old =
            "{\n  \"suite\": \"old\",\n  \"samples\": [\n    {\"name\": \"a\", \"iters\": 5, \
                   \"min_ns\": 10.0, \"mean_ns\": 12.5, \"max_ns\": 20.0}\n  ]\n}\n";
        let (suite, samples) = parse_baseline(old).expect("parses");
        assert_eq!(suite, "old");
        assert_eq!(samples[0].min_ns, 10.0);
        assert_eq!(samples[0].median_ns, None);
        for committed in [
            include_str!("../baselines/session.json"),
            include_str!("../baselines/serve.json"),
        ] {
            let (_, samples) = parse_baseline(committed).expect("committed baseline parses");
            assert!(!samples.is_empty());
            assert!(samples.iter().all(|s| s.min_ns > 0.0));
        }
    }

    #[test]
    fn parse_baseline_rejects_garbage() {
        assert!(parse_baseline("not json").is_none());
        assert!(parse_baseline("{\"suite\": \"x\", \"samples\": [{\"name\": \"y\"}]}").is_none());
    }
}
