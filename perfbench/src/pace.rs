//! The timed window, cut into short segments with a calibration pause
//! between every two, and the machine-speed normalization it feeds.
//!
//! A small shared VM does not run at one speed: a neighbour on the same
//! physical core slows every instruction by up to half for seconds or
//! minutes at a time, and process CPU time slows with it. A run that
//! lands in a slow stretch reads slow on every metric, whatever the
//! program did. So the window is cut into [`SEGMENT`]-long stretches; in
//! the pause between two, every caller waits between operations while a
//! fixed calibration kernel, owned by the benchmark and never by the
//! program, runs on [`CAL_THREADS`] threads. A segment's speed factor is
//! [`REFERENCE_REP_S`] over the mean of the calibrations on either side
//! of it, and every time measured in the segment is multiplied by it:
//! the result reads as if the whole run had gone at the reference speed.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Length of one timed segment.
const SEGMENT: Duration = Duration::from_millis(500);

/// Threads the calibration kernel runs on: the two cores every workload
/// keeps busy.
const CAL_THREADS: usize = 2;

/// Kernel repetitions per calibration thread; a calibration is the
/// median repetition time over every thread.
const REPS: usize = 4;

/// The reference speed: the speed at which one kernel repetition takes
/// exactly this long (about what it takes on a quiet core of the 2-vCPU
/// reference VM).
pub const REFERENCE_REP_S: f64 = 2e-3;

/// One repetition of the calibration kernel, about 2 ms: dense LU
/// factorizations and solves of a fixed 24-unknown system (the shape of
/// the engine's MNA work), then string-keyed hash-map inserts and
/// lookups (the shape of its cache keys and JSON). Deterministic; the
/// checksum keeps the work from being optimized away.
fn kernel() -> f64 {
    const N: usize = 24;
    let mut sum = 0.0;
    for round in 0..60 {
        let mut a = [[0.0f64; N]; N];
        let mut b = [0.0f64; N];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = 1.0 / (1.0 + (i + 2 * j + round) as f64);
            }
            row[i] += N as f64;
            b[i] = (i + round) as f64;
        }
        for k in 0..N {
            let p = (k..N)
                .max_by(|&x, &y| a[x][k].abs().total_cmp(&a[y][k].abs()))
                .unwrap_or(k);
            a.swap(k, p);
            b.swap(k, p);
            let pivot = a[k];
            for i in k + 1..N {
                let f = a[i][k] / pivot[k];
                for (x, p) in a[i][k..].iter_mut().zip(&pivot[k..]) {
                    *x -= f * p;
                }
                b[i] -= f * b[k];
            }
        }
        for i in (0..N).rev() {
            let tail: f64 = (i + 1..N).map(|j| a[i][j] * b[j]).sum();
            b[i] = (b[i] - tail) / a[i][i];
        }
        sum += b.iter().sum::<f64>();
    }
    let mut map = std::collections::HashMap::new();
    for i in 0..4500u64 {
        map.insert(format!("cell/{}/{}", i % 97, i), i);
    }
    for i in 0..4500u64 {
        if let Some(v) = map.get(&format!("cell/{}/{}", i % 97, i)) {
            sum += *v as f64;
        }
    }
    sum
}

/// One calibration: the median kernel repetition time, seconds, over
/// [`CAL_THREADS`] threads running at once.
pub fn calibrate() -> f64 {
    let mut reps: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CAL_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    (0..REPS)
                        .map(|_| {
                            let started = Instant::now();
                            std::hint::black_box(kernel());
                            started.elapsed().as_secs_f64()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    reps.sort_by(f64::total_cmp);
    reps[(reps.len() - 1) / 2]
}

/// The speed factor of a stretch of time between two calibrations.
pub fn factor(before: f64, after: f64) -> f64 {
    REFERENCE_REP_S / ((before + after) / 2.0)
}

/// A caller's flag, on a cache line of its own.
#[repr(align(128))]
#[derive(Default)]
struct Busy(AtomicBool);

/// Lets the callers run operations while a segment is open, and holds
/// them between operations while it is closed.
///
/// A caller announces an operation by raising its own flag and then
/// checking that the gate is still open (the closer lowers `open` and
/// then waits for every flag to fall), so an open gate costs a caller
/// two uncontended atomic stores and a load per operation, and no lock.
pub struct Gate {
    open: AtomicBool,
    finished: AtomicBool,
    segment: AtomicU32,
    busy: Vec<Busy>,
    lock: Mutex<()>,
    reopened: Condvar,
}

impl Gate {
    /// A closed gate for `callers` callers.
    fn new(callers: usize) -> Gate {
        Gate {
            open: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            segment: AtomicU32::new(0),
            busy: (0..callers).map(|_| Busy::default()).collect(),
            lock: Mutex::new(()),
            reopened: Condvar::new(),
        }
    }

    /// Waits until a segment is open and claims it for one operation of
    /// `caller`; the segment's index, or `None` once the window is over.
    pub fn enter(&self, caller: usize) -> Option<u32> {
        let busy = &self.busy[caller].0;
        loop {
            busy.store(true, Ordering::SeqCst);
            if self.open.load(Ordering::SeqCst) {
                return Some(self.segment.load(Ordering::SeqCst));
            }
            busy.store(false, Ordering::SeqCst);
            let mut guard = self.lock.lock().expect("gate lock");
            while !self.open.load(Ordering::SeqCst) {
                if self.finished.load(Ordering::SeqCst) {
                    return None;
                }
                guard = self.reopened.wait(guard).expect("gate lock");
            }
        }
    }

    /// Ends `caller`'s operation.
    pub fn leave(&self, caller: usize) {
        self.busy[caller].0.store(false, Ordering::SeqCst);
    }

    /// Opens segment `index`.
    fn open(&self, index: u32) {
        let _guard = self.lock.lock().expect("gate lock");
        self.segment.store(index, Ordering::SeqCst);
        self.open.store(true, Ordering::SeqCst);
        self.reopened.notify_all();
    }

    /// Closes the open segment and waits for every operation in flight.
    fn close(&self) {
        self.open.store(false, Ordering::SeqCst);
        while self.busy.iter().any(|b| b.0.load(Ordering::SeqCst)) {
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    /// Ends the window: every waiting caller's `enter` returns `None`.
    fn finish(&self) {
        let _guard = self.lock.lock().expect("gate lock");
        self.finished.store(true, Ordering::SeqCst);
        self.reopened.notify_all();
    }
}

/// What one segment took.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Wall time from opening to the end of its last operation, seconds.
    pub wall_s: f64,
    /// Process CPU time over the same stretch, seconds.
    pub cpu_s: f64,
    /// Speed factor from the calibrations on either side.
    pub factor: f64,
}

/// Runs `callers` (each given the gate) for `seconds` of open segments
/// and returns their results with every segment's times.
pub fn run<R: Send>(
    callers: usize,
    seconds: f64,
    caller: impl Fn(&Gate, usize) -> R + Sync,
) -> (Vec<R>, Vec<Segment>) {
    let gate = Gate::new(callers);
    let caller = &caller;
    std::thread::scope(|scope| {
        let gate = &gate;
        let handles: Vec<_> = (0..callers)
            .map(|c| scope.spawn(move || caller(gate, c)))
            .collect();
        let mut segments = Vec::new();
        let mut before = calibrate();
        let mut open_s = 0.0;
        while open_s < seconds {
            let length = SEGMENT.as_secs_f64().min(seconds - open_s);
            let cpu0 = crate::machine::cpu_seconds();
            let started = Instant::now();
            gate.open(segments.len() as u32);
            std::thread::sleep(Duration::from_secs_f64(length));
            gate.close();
            let wall_s = started.elapsed().as_secs_f64();
            let cpu_s = crate::machine::cpu_seconds() - cpu0;
            let after = calibrate();
            segments.push(Segment {
                wall_s,
                cpu_s,
                factor: factor(before, after),
            });
            open_s += wall_s;
            before = after;
        }
        gate.finish();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect();
        (results, segments)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel().to_bits(), kernel().to_bits());
        assert!(kernel().is_finite());
    }

    #[test]
    fn factor_is_reference_over_mean_calibration() {
        assert_eq!(factor(REFERENCE_REP_S, REFERENCE_REP_S), 1.0);
        // Twice as slow on both sides: times count half.
        assert_eq!(factor(2.0 * REFERENCE_REP_S, 2.0 * REFERENCE_REP_S), 0.5);
        assert_eq!(factor(REFERENCE_REP_S, 3.0 * REFERENCE_REP_S), 0.5);
    }

    #[test]
    fn callers_run_in_every_segment_and_stop_at_the_end() {
        let ops = AtomicU64::new(0);
        let (per_caller, segments) = run(2, 1.2, |gate, c| {
            let mut seen = Vec::new();
            while let Some(segment) = gate.enter(c) {
                std::hint::black_box(kernel());
                gate.leave(c);
                ops.fetch_add(1, Ordering::Relaxed);
                seen.push(segment);
            }
            seen
        });
        assert_eq!(segments.len(), 3);
        let open: f64 = segments.iter().map(|s| s.wall_s).sum();
        assert!(open >= 1.2, "{open}");
        assert!(segments
            .iter()
            .all(|s| s.factor > 0.0 && s.factor.is_finite()));
        let mut seen: Vec<u32> = per_caller.into_iter().flatten().collect();
        assert_eq!(seen.len() as u64, ops.load(Ordering::Relaxed));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
