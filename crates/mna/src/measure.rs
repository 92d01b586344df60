//! `.measure`-style waveform extraction: threshold crossings,
//! propagation delay, slew and supply energy — computed from simulated
//! [`Waveform`]s, replacing analytic shortcuts.

use crate::waveform::{Probe, Waveform};

/// Which transition direction a crossing search accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edge {
    /// Only upward crossings.
    Rising,
    /// Only downward crossings.
    Falling,
    /// Either direction.
    Any,
}

/// First time at or after `t_from` where `trace` crosses `threshold` in
/// the requested direction, linearly interpolated between samples.
///
/// # Panics
///
/// Panics unless `time` and `trace` have the same length.
///
/// # Example
///
/// ```
/// use cnfet_mna::measure::{crossing_time, Edge};
/// // A trace sampled at 1 s ticks rising from 0 to 1:
/// let time = [0.0, 1.0, 2.0];
/// let v = [0.0, 0.4, 1.0];
/// let t = crossing_time(&time, &v, 0.5, Edge::Rising, 0.0).unwrap();
/// assert!((t - 1.1666).abs() < 1e-3);
/// ```
pub fn crossing_time(
    time: &[f64],
    trace: &[f64],
    threshold: f64,
    edge: Edge,
    t_from: f64,
) -> Option<f64> {
    assert_eq!(time.len(), trace.len(), "waveform length mismatch");
    for k in 1..time.len() {
        if time[k] < t_from {
            continue;
        }
        let (v0, v1) = (trace[k - 1], trace[k]);
        let rising = v0 < threshold && v1 >= threshold;
        let falling = v0 > threshold && v1 <= threshold;
        let hit = match edge {
            Edge::Rising => rising,
            Edge::Falling => falling,
            Edge::Any => rising || falling,
        };
        if hit {
            let frac = (threshold - v0) / (v1 - v0);
            let t = time[k - 1] + frac * (time[k] - time[k - 1]);
            if t >= t_from {
                return Some(t);
            }
        }
    }
    None
}

/// Propagation delay: from the input's mid-rail crossing (in the given
/// direction, at or after `t_from`) to the output's next mid-rail
/// crossing in either direction.
pub fn propagation_delay(
    wave: &Waveform,
    input: Probe,
    output: Probe,
    vdd: f64,
    input_edge: Edge,
    t_from: f64,
) -> Option<f64> {
    let time = wave.time();
    let mid = vdd / 2.0;
    let t_in = crossing_time(time, wave.probe(input), mid, input_edge, t_from)?;
    let t_out = crossing_time(time, wave.probe(output), mid, Edge::Any, t_in)?;
    Some(t_out - t_in)
}

/// 10%-to-90% transition time of the probed trace's edge starting at or
/// after `t_from`.
///
/// # Panics
///
/// Panics on [`Edge::Any`] — a slew measurement needs a direction.
pub fn slew_time(wave: &Waveform, probe: Probe, vdd: f64, edge: Edge, t_from: f64) -> Option<f64> {
    let time = wave.time();
    let trace = wave.probe(probe);
    let (lo, hi) = (0.1 * vdd, 0.9 * vdd);
    match edge {
        Edge::Rising => {
            let t_lo = crossing_time(time, trace, lo, Edge::Rising, t_from)?;
            let t_hi = crossing_time(time, trace, hi, Edge::Rising, t_lo)?;
            Some(t_hi - t_lo)
        }
        Edge::Falling => {
            let t_hi = crossing_time(time, trace, hi, Edge::Falling, t_from)?;
            let t_lo = crossing_time(time, trace, lo, Edge::Falling, t_hi)?;
            Some(t_lo - t_hi)
        }
        Edge::Any => panic!("slew_time needs a definite edge direction"),
    }
}

/// Energy delivered by a fixed supply over `[t0, t1]`: trapezoidal
/// `∫ vdd · (−i_supply) dt`, clipped to the window (the supply branch
/// current is negative while sourcing, per the MNA sign convention).
pub fn energy_from_supply(wave: &Waveform, supply: Probe, vdd: f64, t0: f64, t1: f64) -> f64 {
    let time = wave.time();
    let current = wave.probe(supply);
    let mut energy = 0.0;
    for k in 1..time.len() {
        let (ta, tb) = (time[k - 1], time[k]);
        if tb <= t0 || ta >= t1 {
            continue;
        }
        let (ca, cb) = (ta.max(t0), tb.min(t1));
        // Interpolate the current at the clipped endpoints.
        let lerp = |t: f64| {
            let f = (t - ta) / (tb - ta);
            current[k - 1] + f * (current[k] - current[k - 1])
        };
        energy += vdd * (-(lerp(ca) + lerp(cb)) / 2.0) * (cb - ca);
    }
    energy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{MnaCircuit, SourceWave};
    use crate::engine::{Engine, TranSpec};
    use crate::pattern::Pattern;
    use std::sync::Arc;

    #[test]
    fn crossing_interpolation() {
        let time = [0.0, 1.0, 2.0];
        let trace = [0.0, 1.0, 0.0];
        let t = crossing_time(&time, &trace, 0.5, Edge::Rising, 0.0).unwrap();
        assert!((t - 0.5).abs() < 1e-12);
        let t = crossing_time(&time, &trace, 0.5, Edge::Falling, 0.6).unwrap();
        assert!((t - 1.5).abs() < 1e-12);

        // A held top: the search starts at `t_from` and honors the edge.
        let time = [0.0, 1.0, 2.0, 3.0];
        let trace = [0.0, 1.0, 1.0, 0.0];
        assert_eq!(crossing_time(&time, &trace, 0.5, Edge::Rising, 1.0), None);
        let t = crossing_time(&time, &trace, 0.5, Edge::Any, 1.0).unwrap();
        assert!((t - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_trace_length_is_rejected() {
        crossing_time(&[0.0, 1.0], &[0.0, 1.0, 2.0], 0.5, Edge::Any, 0.0);
    }

    #[test]
    fn no_crossing_returns_none() {
        let time = [0.0, 1.0];
        let trace = [0.0, 0.2];
        assert_eq!(crossing_time(&time, &trace, 0.5, Edge::Any, 0.0), None);
    }

    fn rc_charge() -> (Waveform, f64) {
        // 1 kΩ into 1 pF charged to 1 V: E_supply = C·V² = 1e-12 J.
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
        c.resistor(1, 2, 1e3);
        c.capacitor(2, 0, 1e-12);
        let mut e = Engine::new(Arc::new(Pattern::analyze(&c)));
        let wave = e.tran(&c, &TranSpec::new(1e-12, 12e-9)).unwrap();
        (wave, 1.0)
    }

    #[test]
    fn rc_charge_energy() {
        let (wave, vdd) = rc_charge();
        let e = energy_from_supply(&wave, Probe::SourceCurrent(0), vdd, 0.0, 12e-9);
        assert!(
            (e - 1e-12).abs() < 0.03e-12,
            "expected ~1 pJ from the supply, got {e:e}"
        );
    }

    #[test]
    fn rc_slew_matches_analytic() {
        // Exponential rise: t(10%→90%) = τ·ln 9.
        let (wave, vdd) = rc_charge();
        let slew = slew_time(&wave, Probe::Node(2), vdd, Edge::Rising, 0.0).unwrap();
        let expected = 1e-9 * 9f64.ln();
        assert!(
            (slew - expected).abs() / expected < 0.02,
            "slew {slew:e} vs analytic {expected:e}"
        );
    }

    #[test]
    fn rc_delay_is_ln2_tau() {
        let (wave, vdd) = rc_charge();
        let d = propagation_delay(
            &wave,
            Probe::Node(1),
            Probe::Node(2),
            vdd,
            Edge::Rising,
            0.0,
        )
        .unwrap();
        let expected = 1e-9 * 2f64.ln();
        assert!(
            (d - expected).abs() / expected < 0.02,
            "delay {d:e} vs analytic {expected:e}"
        );
    }
}
