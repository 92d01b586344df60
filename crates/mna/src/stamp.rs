//! Numeric stamping: fills the preallocated system matrix and right-hand
//! side from a circuit's values against its symbolic [`Pattern`].
//!
//! Dynamic elements use companion models — backward-Euler or trapezoidal
//! — referencing the previous step's [`DynamicState`]; FETs are
//! linearized about the candidate solution with numerically-differenced
//! conductances.

use crate::circuit::{MnaCircuit, MnaElement};
use crate::pattern::{Pattern, Plan};
use crate::solver::LuFactor;
use cnfet_device::FetModel;

/// Numeric integration method for capacitors and inductors in transient
/// analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Backward Euler: first-order, strongly damped, unconditionally
    /// stable — the robust default for switching waveforms.
    BackwardEuler,
    /// Trapezoidal: second-order accurate, the right choice when waveform
    /// fidelity matters (convergence studies, AC-adjacent work).
    Trapezoidal,
}

/// Previous-step state of the dynamic elements: one slot per capacitor
/// (branch voltage and current) and per inductor (branch current and
/// voltage), indexed by the pattern's state slots.
#[derive(Clone, Debug)]
pub(crate) struct DynamicState {
    pub cap_v: Vec<f64>,
    pub cap_i: Vec<f64>,
    pub ind_i: Vec<f64>,
    pub ind_v: Vec<f64>,
}

impl DynamicState {
    /// State at a converged operating point `x` (capacitor currents and
    /// inductor voltages are zero in steady state).
    pub fn init(pattern: &Pattern, x: &[f64]) -> DynamicState {
        let mut state = DynamicState {
            cap_v: vec![0.0; pattern.n_capacitors()],
            cap_i: vec![0.0; pattern.n_capacitors()],
            ind_i: vec![0.0; pattern.n_inductors()],
            ind_v: vec![0.0; pattern.n_inductors()],
        };
        for plan in pattern.plans() {
            match plan {
                Plan::Capacitor { a, b, state: k } => {
                    state.cap_v[*k] = voltage_of(x, *a) - voltage_of(x, *b);
                }
                Plan::Inductor { row, state: k, .. } => {
                    state.ind_i[*k] = x[*row];
                }
                _ => {}
            }
        }
        state
    }

    /// Accepts the solution `x` of a step of size `dt`, rolling every
    /// dynamic element's state forward under the given method. Returns
    /// whether any slot changed bits, so the engine can tell a settled
    /// step from a moving one without keeping a second copy.
    pub fn accept(
        &mut self,
        pattern: &Pattern,
        circuit: &MnaCircuit,
        x: &[f64],
        method: Method,
        dt: f64,
    ) -> bool {
        let mut moved = false;
        for (plan, elem) in pattern.plans().iter().zip(circuit.elements()) {
            match (plan, elem) {
                (Plan::Capacitor { a, b, state: k }, MnaElement::Capacitor { farads, .. }) => {
                    let v = voltage_of(x, *a) - voltage_of(x, *b);
                    let i = match method {
                        Method::BackwardEuler => farads / dt * (v - self.cap_v[*k]),
                        Method::Trapezoidal => {
                            2.0 * farads / dt * (v - self.cap_v[*k]) - self.cap_i[*k]
                        }
                    };
                    moved |= set_slot(&mut self.cap_v[*k], v);
                    moved |= set_slot(&mut self.cap_i[*k], i);
                }
                (
                    Plan::Inductor {
                        a,
                        b,
                        row,
                        state: k,
                    },
                    MnaElement::Inductor { .. },
                ) => {
                    moved |= set_slot(&mut self.ind_i[*k], x[*row]);
                    moved |= set_slot(&mut self.ind_v[*k], voltage_of(x, *a) - voltage_of(x, *b));
                }
                _ => {}
            }
        }
        moved
    }
}

/// Stores `v` in `slot`, reporting whether the bits changed (`-0.0` and
/// `0.0` differ, as they can in later arithmetic).
#[inline]
pub(crate) fn set_slot(slot: &mut f64, v: f64) -> bool {
    let moved = slot.to_bits() != v.to_bits();
    *slot = v;
    moved
}

/// What the dynamic elements contribute.
pub(crate) enum Dynamics<'a> {
    /// DC: capacitors open, inductors short.
    Dc,
    /// One transient step of size `dt` from the previous state.
    Tran {
        method: Method,
        dt: f64,
        state: &'a DynamicState,
    },
}

/// Stamping context: evaluation time, source scaling (DC ramping), gmin,
/// and the dynamic-element mode.
pub(crate) struct StampSpec<'a> {
    pub t: f64,
    pub source_scale: f64,
    pub gmin: f64,
    pub dynamics: Dynamics<'a>,
}

#[inline]
fn voltage_of(x: &[f64], idx: Option<usize>) -> f64 {
    match idx {
        None => 0.0,
        Some(i) => x[i],
    }
}

fn stamp_conductance(lu: &mut LuFactor, a: Option<usize>, b: Option<usize>, g: f64) {
    if let Some(i) = a {
        lu.stamp(i, i, g);
    }
    if let Some(j) = b {
        lu.stamp(j, j, g);
    }
    if let (Some(i), Some(j)) = (a, b) {
        lu.stamp(i, j, -g);
        lu.stamp(j, i, -g);
    }
}

/// Drain current (into the drain) at the given terminal voltages, with
/// polarity and source/drain symmetry handled.
pub(crate) fn fet_current(model: &dyn FetModel, vd: f64, vg: f64, vs: f64) -> f64 {
    use cnfet_device::Polarity;
    match model.polarity() {
        Polarity::N => {
            if vd >= vs {
                model.ids(vg - vs, vd - vs)
            } else {
                -model.ids(vg - vd, vs - vd)
            }
        }
        // A p-device is the n-device under voltage mirroring.
        Polarity::P => {
            if vd <= vs {
                -model.ids(vs - vg, vs - vd)
            } else {
                model.ids(vd - vg, vd - vs)
            }
        }
    }
}

/// Small-signal conductances `(gds, gm, gs)` about a terminal-voltage
/// point, by numerical differentiation (robust against model kinks).
pub(crate) fn fet_small_signal(
    model: &dyn FetModel,
    vd: f64,
    vg: f64,
    vs: f64,
) -> (f64, f64, f64, f64) {
    let id0 = fet_current(model, vd, vg, vs);
    let h = 1e-6;
    let gds = (fet_current(model, vd + h, vg, vs) - id0) / h;
    let gm = (fet_current(model, vd, vg + h, vs) - id0) / h;
    let gs = (fet_current(model, vd, vg, vs + h) - id0) / h;
    (id0, gds, gm, gs)
}

#[allow(clippy::too_many_arguments)]
fn stamp_fet(
    lu: &mut LuFactor,
    b: &mut [f64],
    x: &[f64],
    d: Option<usize>,
    g: Option<usize>,
    s: Option<usize>,
    model: &dyn FetModel,
    gmin: f64,
) {
    let vd = voltage_of(x, d);
    let vg = voltage_of(x, g);
    let vs = voltage_of(x, s);
    let (id0, gds, gm, gsrc) = fet_small_signal(model, vd, vg, vs);

    // Linearized: i_d(v) ≈ id0 + gds·Δvd + gm·Δvg + gs·Δvs.
    // Equivalent current source: ieq = id0 - gds·vd - gm·vg - gs·vs.
    let ieq = id0 - gds * vd - gm * vg - gsrc * vs;

    // Current leaves the drain node and enters the source node.
    if let Some(i) = d {
        if let Some(jd) = d {
            lu.stamp(i, jd, gds);
        }
        if let Some(jg) = g {
            lu.stamp(i, jg, gm);
        }
        if let Some(js) = s {
            lu.stamp(i, js, gsrc);
        }
        b[i] -= ieq;
    }
    if let Some(i) = s {
        if let Some(jd) = d {
            lu.stamp(i, jd, -gds);
        }
        if let Some(jg) = g {
            lu.stamp(i, jg, -gm);
        }
        if let Some(js) = s {
            lu.stamp(i, js, -gsrc);
        }
        b[i] += ieq;
    }

    // Convergence aids: gmin from drain and source to ground.
    if let Some(i) = d {
        lu.stamp(i, i, gmin);
    }
    if let Some(i) = s {
        lu.stamp(i, i, gmin);
    }
}

/// Fills `lu` and `b` with the linearized MNA system about the candidate
/// solution `x`. `lu` and `b` must be pre-cleared.
pub(crate) fn stamp_system(
    pattern: &Pattern,
    circuit: &MnaCircuit,
    x: &[f64],
    lu: &mut LuFactor,
    b: &mut [f64],
    spec: &StampSpec<'_>,
) {
    for (plan, elem) in pattern.plans().iter().zip(circuit.elements()) {
        match (plan, elem) {
            (Plan::Conductance { a, b: nb }, MnaElement::Resistor { ohms, .. }) => {
                stamp_conductance(lu, *a, *nb, 1.0 / ohms);
            }
            (Plan::Capacitor { a, b: nb, state }, MnaElement::Capacitor { farads, .. }) => {
                if let Dynamics::Tran {
                    method,
                    dt,
                    state: prev,
                } = &spec.dynamics
                {
                    let (g, ieq) = match method {
                        // Backward Euler companion: i = C/dt (v - v_prev).
                        Method::BackwardEuler => {
                            let g = farads / dt;
                            (g, g * prev.cap_v[*state])
                        }
                        // Trapezoidal companion:
                        // i = 2C/dt (v - v_prev) - i_prev.
                        Method::Trapezoidal => {
                            let g = 2.0 * farads / dt;
                            (g, g * prev.cap_v[*state] + prev.cap_i[*state])
                        }
                    };
                    stamp_conductance(lu, *a, *nb, g);
                    if let Some(i) = a {
                        b[*i] += ieq;
                    }
                    if let Some(i) = nb {
                        b[*i] -= ieq;
                    }
                }
                // DC: open circuit — no stamp.
            }
            (
                Plan::Inductor {
                    a,
                    b: nb,
                    row,
                    state,
                },
                MnaElement::Inductor { henries, .. },
            ) => {
                // Branch current unknown: KCL columns ±1, branch row
                // v_a − v_b − z·i = rhs with z, rhs per method (DC: short).
                if let Some(i) = a {
                    lu.stamp(*i, *row, 1.0);
                    lu.stamp(*row, *i, 1.0);
                }
                if let Some(i) = nb {
                    lu.stamp(*i, *row, -1.0);
                    lu.stamp(*row, *i, -1.0);
                }
                match &spec.dynamics {
                    Dynamics::Dc => {}
                    Dynamics::Tran {
                        method,
                        dt,
                        state: prev,
                    } => match method {
                        // Backward Euler: v = L/dt (i − i_prev).
                        Method::BackwardEuler => {
                            let z = henries / dt;
                            lu.stamp(*row, *row, -z);
                            b[*row] = -z * prev.ind_i[*state];
                        }
                        // Trapezoidal: v + v_prev = 2L/dt (i − i_prev).
                        Method::Trapezoidal => {
                            let z = 2.0 * henries / dt;
                            lu.stamp(*row, *row, -z);
                            b[*row] = -prev.ind_v[*state] - z * prev.ind_i[*state];
                        }
                    },
                }
            }
            (Plan::VSource { p, n, row }, MnaElement::VSource { wave, .. }) => {
                if let Some(i) = p {
                    lu.stamp(*i, *row, 1.0);
                    lu.stamp(*row, *i, 1.0);
                }
                if let Some(i) = n {
                    lu.stamp(*i, *row, -1.0);
                    lu.stamp(*row, *i, -1.0);
                }
                b[*row] = wave.value_at(spec.t) * spec.source_scale;
            }
            (Plan::Fet { d, g, s }, MnaElement::Fet { model, .. }) => {
                stamp_fet(lu, b, x, *d, *g, *s, model.as_ref(), spec.gmin);
            }
            _ => unreachable!("pattern/circuit element mismatch"),
        }
    }
}
