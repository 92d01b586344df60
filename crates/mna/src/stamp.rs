//! Numeric stamping: fills the preallocated system matrix and right-hand
//! side from a circuit's values against its symbolic [`Pattern`].
//!
//! The matrix ([`stamp_matrix`]) and the right-hand side ([`stamp_rhs`])
//! are stamped separately, so a linear system whose factorization is
//! still current re-stamps only the right-hand side; [`matrix_entries`]
//! lists every position [`stamp_matrix`] may touch, the structure the
//! factorization works over. Dynamic elements use companion models —
//! backward-Euler or trapezoidal — referencing the previous step's
//! [`DynamicState`]; FETs are linearized about the candidate solution
//! with numerically-differenced conductances ([`linearize_fets`]), once
//! per Newton iteration for both stamps.

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

/// The `±1` entries tying branch current `row` to terminals `p`/`n`.
fn stamp_branch(lu: &mut LuFactor, p: Option<usize>, n: Option<usize>, row: usize) {
    if let Some(i) = p {
        lu.stamp(i, row, 1.0);
        lu.stamp(row, i, 1.0);
    }
    if let Some(i) = n {
        lu.stamp(i, row, -1.0);
        lu.stamp(row, i, -1.0);
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
fn fet_current(model: &dyn FetModel, vd: f64, vg: f64, vs: f64) -> f64 {
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
fn fet_small_signal(model: &dyn FetModel, vd: f64, vg: f64, vs: f64) -> (f64, f64, f64, f64) {
    let id0 = fet_current(model, vd, vg, vs);
    let h = 1e-6;
    let gds = (fet_current(model, vd + h, vg, vs) - id0) / h;
    let gm = (fet_current(model, vd, vg + h, vs) - id0) / h;
    let gs = (fet_current(model, vd, vg, vs + h) - id0) / h;
    (id0, gds, gm, gs)
}

/// A FET's linearization about a candidate solution: drain-current
/// conductances to the drain, gate and source voltages, and the
/// equivalent current source `ieq = id0 − gds·vd − gm·vg − gs·vs`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FetLinear {
    gds: f64,
    gm: f64,
    gs: f64,
    ieq: f64,
}

/// Linearizes every FET about `x`, in element order, into `out`.
pub(crate) fn linearize_fets(
    pattern: &Pattern,
    circuit: &MnaCircuit,
    x: &[f64],
    out: &mut Vec<FetLinear>,
) {
    out.clear();
    for (plan, elem) in pattern.plans().iter().zip(circuit.elements()) {
        if let (Plan::Fet { d, g, s }, MnaElement::Fet { model, .. }) = (plan, elem) {
            let (vd, vg, vs) = (voltage_of(x, *d), voltage_of(x, *g), voltage_of(x, *s));
            let (id0, gds, gm, gs) = fet_small_signal(model.as_ref(), vd, vg, vs);
            // Linearized: i_d(v) ≈ id0 + gds·Δvd + gm·Δvg + gs·Δvs.
            let ieq = id0 - gds * vd - gm * vg - gs * vs;
            out.push(FetLinear { gds, gm, gs, ieq });
        }
    }
}

/// A capacitor's companion model for one step: conductance `g` and the
/// current `ieq` pushed into terminal `a`.
fn capacitor_companion(
    method: Method,
    farads: f64,
    dt: f64,
    prev: &DynamicState,
    k: usize,
) -> (f64, f64) {
    match method {
        // Backward Euler companion: i = C/dt (v - v_prev).
        Method::BackwardEuler => {
            let g = farads / dt;
            (g, g * prev.cap_v[k])
        }
        // Trapezoidal companion: i = 2C/dt (v - v_prev) - i_prev.
        Method::Trapezoidal => {
            let g = 2.0 * farads / dt;
            (g, g * prev.cap_v[k] + prev.cap_i[k])
        }
    }
}

/// An inductor's companion branch row for one step,
/// `v_a − v_b − z·i = rhs`: the impedance `z` and `rhs`.
fn inductor_companion(
    method: Method,
    henries: f64,
    dt: f64,
    prev: &DynamicState,
    k: usize,
) -> (f64, f64) {
    match method {
        // Backward Euler: v = L/dt (i − i_prev).
        Method::BackwardEuler => {
            let z = henries / dt;
            (z, -z * prev.ind_i[k])
        }
        // Trapezoidal: v + v_prev = 2L/dt (i − i_prev).
        Method::Trapezoidal => {
            let z = 2.0 * henries / dt;
            (z, -prev.ind_v[k] - z * prev.ind_i[k])
        }
    }
}

/// Every matrix position [`stamp_matrix`] may touch for a pattern — the
/// stamped structure of its factorization.
pub(crate) fn matrix_entries(pattern: &Pattern) -> Vec<(usize, usize)> {
    let mut entries = Vec::new();
    // Every row in `rows` meets every column in `cols` (ground skipped).
    let mut cross = |rows: &[Option<usize>], cols: &[Option<usize>]| {
        for &i in rows.iter().flatten() {
            entries.extend(cols.iter().flatten().map(|&j| (i, j)));
        }
    };
    for plan in pattern.plans() {
        match *plan {
            Plan::Conductance { a, b } | Plan::Capacitor { a, b, .. } => cross(&[a, b], &[a, b]),
            Plan::Inductor { a, b, row, .. } => {
                cross(&[a, b, Some(row)], &[Some(row)]);
                cross(&[Some(row)], &[a, b]);
            }
            Plan::VSource { p, n, row } => {
                cross(&[p, n], &[Some(row)]);
                cross(&[Some(row)], &[p, n]);
            }
            Plan::Fet { d, g, s } => cross(&[d, s], &[d, g, s]),
        }
    }
    entries
}

/// Fills `lu` with the linearized MNA matrix; `fets` holds every FET's
/// linearization (see [`linearize_fets`]). `lu` must be pre-cleared.
pub(crate) fn stamp_matrix(
    pattern: &Pattern,
    circuit: &MnaCircuit,
    fets: &[FetLinear],
    lu: &mut LuFactor,
    spec: &StampSpec<'_>,
) {
    let mut fets = fets.iter();
    for (plan, elem) in pattern.plans().iter().zip(circuit.elements()) {
        match (plan, elem) {
            (Plan::Conductance { a, b }, MnaElement::Resistor { ohms, .. }) => {
                stamp_conductance(lu, *a, *b, 1.0 / ohms);
            }
            (Plan::Capacitor { a, b, state }, MnaElement::Capacitor { farads, .. }) => {
                // DC: open circuit — no stamp.
                if let Dynamics::Tran {
                    method,
                    dt,
                    state: prev,
                } = &spec.dynamics
                {
                    let (g, _) = capacitor_companion(*method, *farads, *dt, prev, *state);
                    stamp_conductance(lu, *a, *b, g);
                }
            }
            (Plan::Inductor { a, b, row, state }, MnaElement::Inductor { henries, .. }) => {
                // Branch current unknown: KCL columns ±1, branch row
                // v_a − v_b − z·i = rhs (DC: a short, z = 0).
                stamp_branch(lu, *a, *b, *row);
                if let Dynamics::Tran {
                    method,
                    dt,
                    state: prev,
                } = &spec.dynamics
                {
                    let (z, _) = inductor_companion(*method, *henries, *dt, prev, *state);
                    lu.stamp(*row, *row, -z);
                }
            }
            (Plan::VSource { p, n, row }, MnaElement::VSource { .. }) => {
                stamp_branch(lu, *p, *n, *row);
            }
            (Plan::Fet { d, g, s }, MnaElement::Fet { .. }) => {
                let fet = fets.next().expect("one linearization per FET");
                // Current leaves the drain node and enters the source node.
                for (i, sign) in [(*d, 1.0), (*s, -1.0)] {
                    let Some(i) = i else { continue };
                    for (j, v) in [(*d, fet.gds), (*g, fet.gm), (*s, fet.gs)] {
                        if let Some(j) = j {
                            lu.stamp(i, j, sign * v);
                        }
                    }
                }
                // Convergence aids: gmin from drain and source to ground.
                for i in [*d, *s].into_iter().flatten() {
                    lu.stamp(i, i, spec.gmin);
                }
            }
            _ => unreachable!("pattern/circuit element mismatch"),
        }
    }
}

/// Fills `b` with the MNA right-hand side; `fets` holds every FET's
/// linearization (see [`linearize_fets`]). `b` must be pre-cleared.
pub(crate) fn stamp_rhs(
    pattern: &Pattern,
    circuit: &MnaCircuit,
    fets: &[FetLinear],
    b: &mut [f64],
    spec: &StampSpec<'_>,
) {
    let mut fets = fets.iter();
    for (plan, elem) in pattern.plans().iter().zip(circuit.elements()) {
        match (plan, elem) {
            (Plan::Conductance { .. }, MnaElement::Resistor { .. }) => {}
            (Plan::Capacitor { a, b: nb, state }, MnaElement::Capacitor { farads, .. }) => {
                if let Dynamics::Tran {
                    method,
                    dt,
                    state: prev,
                } = &spec.dynamics
                {
                    let (_, ieq) = capacitor_companion(*method, *farads, *dt, prev, *state);
                    if let Some(i) = a {
                        b[*i] += ieq;
                    }
                    if let Some(i) = nb {
                        b[*i] -= ieq;
                    }
                }
            }
            (Plan::Inductor { row, state, .. }, MnaElement::Inductor { henries, .. }) => {
                if let Dynamics::Tran {
                    method,
                    dt,
                    state: prev,
                } = &spec.dynamics
                {
                    b[*row] = inductor_companion(*method, *henries, *dt, prev, *state).1;
                }
            }
            (Plan::VSource { row, .. }, MnaElement::VSource { wave, .. }) => {
                b[*row] = wave.value_at(spec.t) * spec.source_scale;
            }
            (Plan::Fet { d, s, .. }, MnaElement::Fet { .. }) => {
                let fet = fets.next().expect("one linearization per FET");
                if let Some(i) = d {
                    b[*i] -= fet.ieq;
                }
                if let Some(i) = s {
                    b[*i] += fet.ieq;
                }
            }
            _ => unreachable!("pattern/circuit element mismatch"),
        }
    }
}
