//! The analysis engine: Newton–Raphson DC, adaptive-capable transient,
//! all against one preallocated factorization working set.
//!
//! An [`Engine`] is built from an [`std::sync::Arc`]`<`[`Pattern`]`>` and
//! owns every numeric buffer the pattern's dimension implies. Its
//! [`crate::LuFactor`] works over the positions the pattern's elements
//! stamp plus the fill-in of its pivot order, so elimination and both
//! triangular solves cost what the factors hold (O(n) on a ladder), not
//! O(n²). Each solve re-stamps values and re-factors **in place** — the
//! first factorization records a pivot order (and derives its fill-in)
//! that [`crate::LuFactor::refactor`] then reuses across Newton
//! iterations and timesteps, so the steady-state transient loop performs
//! no allocation, no fresh pivot search and no symbolic work.
//!
//! A pattern without FETs is linear: its matrix depends only on the
//! element values and the system solved — DC, or a transient step of a
//! given method and companion step. Every full transient step uses the
//! nominal `dt` as its companion step, so such an analysis factors once
//! for the whole DC ladder and once per distinct step length. While the
//! factorization belongs to the running system, a solve clears and
//! stamps no matrix entry: it stamps and solves the right-hand side
//! only. The engine remembers which system its factorization belongs to
//! and forgets it at the start of every [`Engine::dc`], so circuits with
//! new values never meet a stale LU.
//!
//! A transient step is a pure function of the previous solution (the
//! Newton guess), the dynamic elements' companion state, every source
//! value at the step's end time, the step length, the method, [`GMIN`]
//! and the LU's recorded pivot order. When a full step returns the
//! solution and the companion state bit for bit unchanged, and needed
//! no halving and no fresh pivot search, it is a fixed point of that
//! function: every following step with bitwise-equal sources and step
//! length repeats the same arithmetic and lands on the same bits.
//! [`Engine::tran`] records such steps without solving them and resumes
//! at the first step whose inputs differ — a source edge or the clamped
//! last step — so a settled circuit costs one source evaluation per
//! step, and the waveform is bit-identical to stepping through. Sources
//! are the only time-dependent stamp input today; any future one (a
//! time-varying element value, a time-dependent `gmin`) must join the
//! source check in [`Engine::tran`], or the rule stops being exact.

use crate::circuit::{MnaCircuit, MnaElement};
use crate::pattern::Pattern;
use crate::solver::{LuFactor, SolveStats};
use crate::stamp::{
    linearize_fets, matrix_entries, set_slot, stamp_matrix, stamp_rhs, DynamicState, Dynamics,
    FetLinear, Method, StampSpec,
};
use crate::waveform::Waveform;
use std::fmt;
use std::sync::Arc;

/// Final conductance from every FET terminal to ground, keeping the
/// Jacobian well-conditioned when devices are off.
pub const GMIN: f64 = 1e-9;
/// Gmin-stepping ladder used to coax large circuits into their DC
/// operating point: solve with heavy shunts first, then tighten.
const GMIN_STEPS: [f64; 4] = [1e-3, 1e-5, 1e-7, GMIN];
/// Newton–Raphson convergence tolerance on node voltages (volts).
const NR_TOL: f64 = 1e-7;
/// Maximum Newton iterations per solve.
const NR_MAX_ITERS: usize = 400;
/// DC source-ramping steps (fractions of the full source values).
const SOURCE_RAMP_STEPS: usize = 4;
/// Most nominal steps one transient may take, `⌈t_stop/dt⌉`. Every
/// characterization, simulation and deck in this workspace takes a few
/// thousand; the ceiling keeps a mistyped or hostile `dt` from asking
/// for petabytes of waveform (or, with `dt` near the smallest float, an
/// endless loop). Local halving may add interior samples beyond it.
pub const MAX_TRAN_STEPS: usize = 1_000_000;
/// Largest system dimension (node plus branch-current unknowns) an
/// [`Engine`] takes. Its LU stores two dense `dim × dim` value arrays,
/// 16 MiB at this bound; the decks, cells and netlists in this
/// workspace reach dim 63. Callers
/// taking a circuit from outside check it before [`Engine::new`], which
/// panics past it.
pub const MAX_DENSE_DIM: usize = 1024;
/// Most values one transient's [`Waveform`] may hold,
/// `(steps + 1) × (dim + 1)`: one sample per nominal step and the
/// operating point, of every unknown and the time axis. That is 32 MiB
/// of `f64` at this bound; the transients in this workspace reach about
/// 128k (a dim-63 deck over 2,000 steps). Local halving may add samples
/// beyond it. Callers taking a spec from outside check it before
/// [`Engine::tran`], which panics past it.
pub const MAX_WAVEFORM_SAMPLES: usize = 1 << 22;

/// Analysis failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MnaError {
    /// Newton iteration failed to converge (even after any timestep
    /// halving the transient spec allowed).
    NoConvergence {
        /// Nominal timestep index at which convergence failed (0 for DC).
        at_step: usize,
    },
    /// The MNA matrix was singular (floating node or source loop).
    Singular,
    /// The system has more unknowns than the dense solver takes
    /// ([`MAX_DENSE_DIM`]); refused before any buffer is allocated.
    TooLarge {
        /// Unknowns in the refused system.
        dim: usize,
    },
}

impl fmt::Display for MnaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MnaError::NoConvergence { at_step } => {
                write!(f, "newton iteration did not converge at step {at_step}")
            }
            MnaError::Singular => write!(f, "singular MNA matrix (floating node?)"),
            MnaError::TooLarge { dim } => write!(
                f,
                "system has {dim} unknowns; the dense solver takes at most {MAX_DENSE_DIM}"
            ),
        }
    }
}

impl std::error::Error for MnaError {}

/// A transient-analysis request: nominal step, stop time, integration
/// method, and how far the engine may locally halve a non-converging
/// step before giving up.
#[derive(Clone, Copy, Debug)]
pub struct TranSpec {
    /// Nominal timestep (s).
    pub dt: f64,
    /// Stop time (s).
    pub t_stop: f64,
    /// Integration method for the dynamic elements.
    pub method: Method,
    /// Maximum local step-halving depth on convergence failure (0 = fixed
    /// step). Accepted sub-steps are recorded, so the waveform's time axis
    /// stays strictly monotone but need not be uniform.
    pub max_halvings: u32,
}

impl TranSpec {
    /// Backward-Euler transient with up to 4 local halvings.
    pub fn new(dt: f64, t_stop: f64) -> TranSpec {
        TranSpec {
            dt,
            t_stop,
            method: Method::BackwardEuler,
            max_halvings: 4,
        }
    }

    /// Selects the integration method.
    pub fn method(mut self, method: Method) -> TranSpec {
        self.method = method;
        self
    }

    /// Sets the maximum local halving depth.
    pub fn max_halvings(mut self, max_halvings: u32) -> TranSpec {
        self.max_halvings = max_halvings;
        self
    }

    /// The number of nominal steps, `⌈t_stop/dt⌉`, or `None` unless `dt`
    /// and `t_stop` are positive and finite and the count is at most
    /// [`MAX_TRAN_STEPS`]. Callers taking a spec from outside check this
    /// before [`Engine::tran`], which panics on `None`.
    pub fn nominal_steps(&self) -> Option<usize> {
        let positive = |v: f64| v > 0.0 && v.is_finite();
        if !(positive(self.dt) && positive(self.t_stop)) {
            return None;
        }
        let steps = (self.t_stop / self.dt).ceil();
        (steps <= MAX_TRAN_STEPS as f64).then_some(steps as usize)
    }
}

/// Which system matrix of a linear (FET-free) pattern a factorization
/// belongs to. Gmin and source scaling never touch such a matrix, so it
/// is fixed by the circuit's values plus this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LinearSystem {
    /// The DC system: capacitors open, inductors shorted.
    Dc,
    /// A transient step: companion step length (as bits) and method.
    Tran(u64, Method),
}

/// The numeric engine for one topology: preallocated factorization,
/// right-hand side and solution buffers, reused across every DC solve,
/// Newton iteration and timestep.
#[derive(Clone, Debug)]
pub struct Engine {
    pattern: Arc<Pattern>,
    lu: LuFactor,
    b: Vec<f64>,
    x: Vec<f64>,
    saved: Vec<f64>,
    /// Every FET's linearization about `x`, refreshed per Newton iteration.
    fets: Vec<FetLinear>,
    /// For a linear pattern, the system `lu` currently holds factored for
    /// the circuit of the running analysis; `None` when unknown.
    factored: Option<LinearSystem>,
    /// Transient steps recorded as repeats of a fixed-point step.
    repeated_steps: u64,
}

impl Engine {
    /// Creates an engine (and its buffers) for a topology. Its
    /// factorization works over the positions the pattern's elements
    /// stamp, plus the fill-in of its pivot order.
    ///
    /// # Panics
    ///
    /// Panics before allocating when the pattern's dimension exceeds
    /// [`MAX_DENSE_DIM`].
    pub fn new(pattern: Arc<Pattern>) -> Engine {
        let dim = pattern.dim();
        assert!(
            dim <= MAX_DENSE_DIM,
            "system dimension {dim} exceeds the dense LU bound of {MAX_DENSE_DIM}"
        );
        Engine {
            lu: LuFactor::with_structure(dim, matrix_entries(&pattern)),
            b: vec![0.0; dim],
            x: vec![0.0; dim],
            saved: vec![0.0; dim],
            fets: Vec::new(),
            factored: None,
            repeated_steps: 0,
            pattern,
        }
    }

    /// The topology this engine was built for.
    pub fn pattern(&self) -> &Arc<Pattern> {
        &self.pattern
    }

    /// Factorization-work counters accumulated over this engine's life —
    /// `refactorizations` dominating `factorizations` is the
    /// pivot-order-reuse contract at work, and `repeated_steps` counts
    /// the transient steps a settled circuit skipped.
    pub fn stats(&self) -> SolveStats {
        SolveStats {
            repeated_steps: self.repeated_steps,
            ..self.lu.stats()
        }
    }

    /// One Newton solve; `self.x` holds the initial guess and, on
    /// success, the converged solution.
    fn newton(
        &mut self,
        circuit: &MnaCircuit,
        t: f64,
        source_scale: f64,
        gmin: f64,
        dynamics: Dynamics<'_>,
        step: usize,
    ) -> Result<(), MnaError> {
        let dim = self.pattern.dim();
        let n_nodes = self.pattern.n_nodes();
        let linear = !self.pattern.has_fets();
        // A linear matrix is fixed by its system: when the factorization
        // already belongs to it, only the right-hand side is stamped and
        // solved.
        let system = match &dynamics {
            _ if !linear => None,
            Dynamics::Dc => Some(LinearSystem::Dc),
            Dynamics::Tran { method, dt, .. } => Some(LinearSystem::Tran(dt.to_bits(), *method)),
        };
        let reuse = system.is_some() && system == self.factored;
        let spec = StampSpec {
            t,
            source_scale,
            gmin,
            dynamics,
        };
        for _ in 0..NR_MAX_ITERS {
            if !linear {
                linearize_fets(&self.pattern, circuit, &self.x, &mut self.fets);
            }
            if !reuse {
                self.lu.clear();
                stamp_matrix(&self.pattern, circuit, &self.fets, &mut self.lu, &spec);
                self.lu.refactor().map_err(|_| MnaError::Singular)?;
                self.factored = system;
            }
            self.b.fill(0.0);
            stamp_rhs(&self.pattern, circuit, &self.fets, &mut self.b, &spec);
            self.lu.solve_in_place(&mut self.b);
            if linear {
                // No nonlinear elements: the first solve is exact.
                self.x.copy_from_slice(&self.b);
                return Ok(());
            }
            let mut delta: f64 = 0.0;
            for i in 0..n_nodes {
                delta = delta.max((self.b[i] - self.x[i]).abs());
            }
            // Damped update for large steps keeps the FET linearization in
            // its region of validity.
            let relax = if delta > 0.5 { 0.5 / delta } else { 1.0 };
            for i in 0..dim {
                self.x[i] += (self.b[i] - self.x[i]) * relax;
            }
            if delta < NR_TOL {
                return Ok(());
            }
        }
        Err(MnaError::NoConvergence { at_step: step })
    }

    /// Solves the DC operating point at `t = 0` with source ramping and
    /// gmin stepping, returning node voltages indexed by node
    /// (`result[0]` is ground, 0 V).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError`] when the Newton iteration cannot converge or
    /// the system is singular.
    ///
    /// # Panics
    ///
    /// Panics when the circuit's topology does not match the engine's
    /// pattern.
    pub fn dc(&mut self, circuit: &MnaCircuit) -> Result<Vec<f64>, MnaError> {
        assert!(
            self.pattern.matches(circuit),
            "circuit topology does not match the engine's pattern"
        );
        self.x.fill(0.0);
        // The circuit may carry new values: no factorization survives
        // into a new analysis.
        self.factored = None;
        // Source stepping at heavy gmin, then gmin stepping at full
        // sources — no circuit cloning, scaling happens in the stamp.
        for step in 1..=SOURCE_RAMP_STEPS {
            let frac = step as f64 / SOURCE_RAMP_STEPS as f64;
            self.newton(circuit, 0.0, frac, GMIN_STEPS[0], Dynamics::Dc, 0)?;
        }
        for &gmin in &GMIN_STEPS[1..] {
            self.newton(circuit, 0.0, 1.0, gmin, Dynamics::Dc, 0)?;
        }
        let mut volts = vec![0.0; self.pattern.n_nodes() + 1];
        volts[1..].copy_from_slice(&self.x[..self.pattern.n_nodes()]);
        Ok(volts)
    }

    /// Advances one step from `t0` to `t1` with companion step `h`; on
    /// convergence failure, locally halves the step (recording the
    /// accepted interior points) up to `halvings` deep.
    ///
    /// Returns whether the step was a fixed point of the step map: one
    /// unhalved solve, no fresh pivot search, and the solution and
    /// dynamic state unchanged bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &mut self,
        circuit: &MnaCircuit,
        t0: f64,
        t1: f64,
        h: f64,
        method: Method,
        halvings: u32,
        step: usize,
        state: &mut DynamicState,
        wave: &mut Waveform,
    ) -> Result<bool, MnaError> {
        self.saved.copy_from_slice(&self.x);
        let factorizations = self.lu.stats().factorizations;
        let attempt = self.newton(
            circuit,
            t1,
            1.0,
            GMIN,
            Dynamics::Tran {
                method,
                dt: h,
                state: &*state,
            },
            step,
        );
        match attempt {
            Ok(()) => {
                let moved = state.accept(&self.pattern, circuit, &self.x, method, h);
                wave.push(t1, &self.x);
                Ok(!moved
                    && self.lu.stats().factorizations == factorizations
                    && same_bits(&self.x, &self.saved))
            }
            Err(MnaError::NoConvergence { .. }) if halvings > 0 => {
                // Retry from the last accepted solution at half the step.
                self.x.copy_from_slice(&self.saved);
                let half = h / 2.0;
                let mid = t0 + half;
                self.advance(
                    circuit,
                    t0,
                    mid,
                    half,
                    method,
                    halvings - 1,
                    step,
                    state,
                    wave,
                )?;
                self.advance(
                    circuit,
                    mid,
                    t1,
                    half,
                    method,
                    halvings - 1,
                    step,
                    state,
                    wave,
                )?;
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Runs a transient analysis from the DC operating point, recording a
    /// strictly monotone [`Waveform`].
    ///
    /// A step is a pure function of the previous solution, the
    /// companion state, the source values at its end time, its length,
    /// the method, [`GMIN`] and the recorded pivot order. Once a full step
    /// returns solution and state bit for bit unchanged (no halving, no
    /// fresh pivot search), following steps with bitwise-equal source
    /// values and step length are recorded without solving, and counted
    /// in [`SolveStats::repeated_steps`]; the waveform is the same, bit
    /// for bit, as stepping through every one.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError`] on a singular system or when a step fails to
    /// converge even at the finest allowed sub-step.
    ///
    /// # Panics
    ///
    /// Panics unless [`TranSpec::nominal_steps`] accepts the spec (`dt`
    /// and `t_stop` positive and finite, at most [`MAX_TRAN_STEPS`]
    /// steps), when the waveform would exceed [`MAX_WAVEFORM_SAMPLES`]
    /// (both checked before any buffer is allocated), or when the
    /// circuit's topology does not match the engine's pattern.
    pub fn tran(&mut self, circuit: &MnaCircuit, spec: &TranSpec) -> Result<Waveform, MnaError> {
        let steps = spec.nominal_steps().unwrap_or_else(|| {
            panic!(
                "dt and t_stop must be positive and finite with t_stop/dt at most \
                 {MAX_TRAN_STEPS} steps, got dt={:e}, t_stop={:e}",
                spec.dt, spec.t_stop
            )
        });
        let samples = (steps + 1).saturating_mul(self.pattern.dim() + 1);
        assert!(
            samples <= MAX_WAVEFORM_SAMPLES,
            "a waveform of {samples} values exceeds the bound of {MAX_WAVEFORM_SAMPLES}"
        );
        self.dc(circuit)?; // leaves self.x at the operating point
        let mut state = DynamicState::init(&self.pattern, &self.x);
        let mut wave = Waveform::new(&self.pattern, steps + 1);
        wave.push(0.0, &self.x);
        // Source values at the end of the latest step, and the step length
        // (as bits) of the latest solved step when it was a fixed point.
        let mut sources = vec![0.0; self.pattern.n_vsources()];
        let mut fixed_h: Option<u64> = None;
        // Nominal times come from the step index (`k·dt`, not
        // accumulation), clamped to `t_stop` so the run ends exactly there
        // regardless of how `t_stop/dt` rounds. Every full step integrates
        // over exactly `dt` (not the rounded `t1 − t0`), so a linear
        // circuit keeps one factorization; only a clamped last step uses
        // its own length.
        let mut t0 = 0.0;
        let mut k = 0usize;
        while t0 < spec.t_stop {
            k += 1;
            let nominal = k as f64 * spec.dt;
            let (t1, h) = if nominal <= spec.t_stop {
                (nominal, spec.dt)
            } else {
                (spec.t_stop, spec.t_stop - t0)
            };
            let sources_moved = sample_sources(circuit, t1, &mut sources);
            if !sources_moved && fixed_h == Some(h.to_bits()) {
                // Same inputs as a fixed-point step: same bits out.
                wave.push(t1, &self.x);
                self.repeated_steps += 1;
            } else {
                let fixed = self.advance(
                    circuit,
                    t0,
                    t1,
                    h,
                    spec.method,
                    spec.max_halvings,
                    k,
                    &mut state,
                    &mut wave,
                )?;
                fixed_h = fixed.then_some(h.to_bits());
            }
            t0 = t1;
        }
        Ok(wave)
    }
}

/// Writes every voltage source's value at `t` into `values` (insertion
/// order), reporting whether any changed bits.
fn sample_sources(circuit: &MnaCircuit, t: f64, values: &mut [f64]) -> bool {
    let waves = circuit.elements().iter().filter_map(|e| match e {
        MnaElement::VSource { wave, .. } => Some(wave),
        _ => None,
    });
    let mut moved = false;
    for (slot, wave) in values.iter_mut().zip(waves) {
        moved |= set_slot(slot, wave.value_at(t));
    }
    moved
}

/// Whether two vectors are equal bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::SourceWave;
    use crate::waveform::Probe;
    use cnfet_device::{CnfetModel, FetModel, Polarity};

    fn engine_for(c: &MnaCircuit) -> Engine {
        Engine::new(Arc::new(Pattern::analyze(c)))
    }

    #[test]
    fn resistive_divider_dc() {
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Dc(2.0));
        c.resistor(1, 2, 1e3);
        c.resistor(2, 0, 3e3);
        let mut e = engine_for(&c);
        let v = e.dc(&c).unwrap();
        assert!((v[2] - 1.5).abs() < 1e-9);
        // 0.5 mA flows out of the supply: SPICE sign, negative branch
        // current.
        let wave = e.tran(&c, &TranSpec::new(1e-12, 1e-11)).unwrap();
        let i = *wave.source_current(0).last().unwrap();
        assert!((i + 0.5e-3).abs() < 1e-9, "supply current {i:e}");
    }

    #[test]
    fn inductor_is_dc_short() {
        // V — R — L to ground: all the drop is across the resistor.
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Dc(1.0));
        c.resistor(1, 2, 1e3);
        c.inductor(2, 0, 1e-9);
        let mut e = engine_for(&c);
        let v = e.dc(&c).unwrap();
        assert!(v[2].abs() < 1e-9, "inductor node should sit at 0 V");
        // ... and the steady current is V/R through both branches.
        let wave = e.tran(&c, &TranSpec::new(1e-12, 1e-11)).unwrap();
        let i = *wave.source_current(0).last().unwrap();
        assert!((i.abs() - 1e-3).abs() < 1e-6, "supply current {i:e}");
        let il = *wave.probe(Probe::InductorCurrent(0)).last().unwrap();
        assert!((il.abs() - 1e-3).abs() < 1e-6, "inductor current {il:e}");
    }

    #[test]
    fn floating_node_is_singular() {
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Dc(1.0));
        c.resistor(1, 0, 1e3);
        c.resistor(2, 3, 1e3); // island with no path to the rest
        assert_eq!(engine_for(&c).dc(&c), Err(MnaError::Singular));
    }

    #[test]
    fn parallel_source_loop_is_singular() {
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Dc(1.0));
        c.vsource(1, 0, SourceWave::Dc(2.0));
        assert_eq!(engine_for(&c).dc(&c), Err(MnaError::Singular));
    }

    /// RC step response vs the analytic exponential, both methods.
    #[test]
    fn rc_step_matches_analytic() {
        for method in [Method::BackwardEuler, Method::Trapezoidal] {
            let mut c = MnaCircuit::new();
            c.vsource(1, 0, SourceWave::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
            c.resistor(1, 2, 1e3);
            c.capacitor(2, 0, 1e-12); // tau = 1 ns
            let mut e = engine_for(&c);
            let wave = e
                .tran(&c, &TranSpec::new(2e-12, 5.001e-9).method(method))
                .unwrap();
            for (k, &t) in wave.time().iter().enumerate() {
                if t < 1e-10 {
                    continue;
                }
                let expected = 1.0 - (-(t - 1e-12) / 1e-9).exp();
                let got = wave.voltage(2)[k];
                assert!(
                    (got - expected).abs() < 0.01,
                    "{method:?} t={t}: got {got}, expected {expected}"
                );
            }
            // Linear circuit: one full factorization for the whole DC
            // ladder, one refactor per companion step (the nominal `dt`
            // and the clamped last step), and solves only after that.
            let stats = e.stats();
            assert_eq!(stats.factorizations, 1);
            assert_eq!(stats.pivot_rebuilds, 0);
            assert_eq!(stats.refactorizations, 2, "{stats:?}");
            assert!(stats.solves > 2000, "{stats:?}");
        }
    }

    /// A two-section RLC ladder with a resistive load, stepped from a
    /// non-zero DC level; `scale` changes every value (and so the DC
    /// point), never the topology.
    fn rlc_ladder(scale: f64) -> MnaCircuit {
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Pwl(vec![(0.0, 0.2), (5e-12, 1.0)]));
        c.resistor(1, 2, 50.0 * scale);
        c.inductor(2, 3, 1e-9 / scale);
        c.capacitor(3, 0, 1e-12 * scale);
        c.resistor(3, 4, 1e3 / scale);
        c.capacitor(4, 0, 0.5e-12 * scale);
        c.resistor(4, 0, 2e3 * scale);
        c
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every probe of a waveform, as raw bits.
    fn wave_bits(wave: &Waveform, nodes: usize) -> Vec<Vec<u64>> {
        let mut out = vec![bits(wave.time())];
        out.extend((1..=nodes).map(|n| bits(wave.voltage(n))));
        out.push(bits(wave.probe(Probe::InductorCurrent(0))));
        out
    }

    /// One engine reused across same-topology circuits with different
    /// values must never solve against the previous circuit's factors:
    /// each waveform and DC point equals a fresh engine's, bit for bit.
    /// A `t_stop` that is a multiple of `dt` ends every run on the
    /// full-step factorization; one that is not adds a clamped last step.
    /// The trailing DC solve leaves the previous circuit's DC system
    /// factored when the next circuit's transient starts.
    #[test]
    fn reused_engine_never_solves_against_a_stale_factorization() {
        // ≈ 1.8 ps, exact in binary, so `k·dt` lands on `t_stop` exactly.
        let dt = 2f64.powi(-39);
        let circuits = [rlc_ladder(1.0), rlc_ladder(1.7), rlc_ladder(1.0)];
        for method in [Method::BackwardEuler, Method::Trapezoidal] {
            let mut reused = engine_for(&circuits[0]);
            for t_stop in [550.0 * dt, 550.5 * dt] {
                let spec = TranSpec::new(dt, t_stop).method(method);
                for c in &circuits {
                    let got = reused.tran(c, &spec).unwrap();
                    let fresh = engine_for(c).tran(c, &spec).unwrap();
                    assert_eq!(
                        wave_bits(&got, 4),
                        wave_bits(&fresh, 4),
                        "{method:?} t_stop={t_stop:e}"
                    );
                    let dc = reused.dc(c).unwrap();
                    assert_eq!(bits(&dc), bits(&engine_for(c).dc(c).unwrap()));
                }
            }
        }
        // The two value sets really are different circuits.
        let spec = TranSpec::new(2e-12, 1.001e-9);
        let a = engine_for(&circuits[0]).tran(&circuits[0], &spec).unwrap();
        let b = engine_for(&circuits[1]).tran(&circuits[1], &spec).unwrap();
        assert_ne!(wave_bits(&a, 4), wave_bits(&b, 4));
    }

    /// Series RLC step response against the underdamped analytic form.
    #[test]
    fn rlc_step_matches_analytic() {
        // L = 1 nH, C = 1 pF, R chosen for zeta = 0.3.
        let (l, cap) = (1e-9f64, 1e-12f64);
        let w0 = 1.0 / (l * cap).sqrt();
        let zeta = 0.3;
        let r = 2.0 * zeta * (l / cap).sqrt();
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Pwl(vec![(0.0, 0.0), (1e-14, 1.0)]));
        c.resistor(1, 2, r);
        c.inductor(2, 3, l);
        c.capacitor(3, 0, cap);
        let mut e = engine_for(&c);
        let wave = e
            .tran(
                &c,
                &TranSpec::new(2e-13, 1.5e-9).method(Method::Trapezoidal),
            )
            .unwrap();
        let wd = w0 * (1.0 - zeta * zeta).sqrt();
        for (k, &t) in wave.time().iter().enumerate() {
            if t < 1e-12 {
                continue;
            }
            let tt = t - 1e-14;
            let env = (-zeta * w0 * tt).exp();
            let expected = 1.0 - env * ((wd * tt).cos() + zeta * w0 / wd * (wd * tt).sin());
            let got = wave.voltage(3)[k];
            assert!(
                (got - expected).abs() < 0.02,
                "t={t}: got {got}, expected {expected}"
            );
        }
        // The inductor branch current is probed and ends near DC: i = 0.
        let i_l = wave.probe(Probe::InductorCurrent(0));
        assert!(i_l.last().unwrap().abs() < 1e-3 / r);
    }

    /// Trapezoidal integration is at least second-order on the RC case:
    /// halving dt shrinks the max error by ~4x.
    #[test]
    fn trapezoidal_dt_halving_is_second_order() {
        // Ramp aligned to both grids (80 ps = 2×40 ps = 4×20 ps), so the
        // only integration error is the smooth-region truncation error.
        let ramp_end = 80e-12;
        let tau = 1e-9;
        let analytic = |t: f64| -> f64 {
            let m = 1.0 / ramp_end;
            if t <= ramp_end {
                m * (t - tau + tau * (-t / tau).exp())
            } else {
                let v_end = m * (ramp_end - tau + tau * (-ramp_end / tau).exp());
                1.0 + (v_end - 1.0) * (-(t - ramp_end) / tau).exp()
            }
        };
        let max_error = |dt: f64| -> f64 {
            let mut c = MnaCircuit::new();
            c.vsource(1, 0, SourceWave::Pwl(vec![(0.0, 0.0), (ramp_end, 1.0)]));
            c.resistor(1, 2, 1e3);
            c.capacitor(2, 0, 1e-12);
            let mut e = engine_for(&c);
            let wave = e
                .tran(
                    &c,
                    &TranSpec::new(dt, 2e-9)
                        .method(Method::Trapezoidal)
                        .max_halvings(0),
                )
                .unwrap();
            wave.time()
                .iter()
                .zip(wave.voltage(2))
                .map(|(&t, &v)| (v - analytic(t)).abs())
                .fold(0.0f64, f64::max)
        };
        let (coarse, fine) = (max_error(40e-12), max_error(20e-12));
        let ratio = coarse / fine;
        assert!(
            ratio > 3.5,
            "expected ~4x error reduction per dt halving, got {ratio:.2} \
             (coarse {coarse:.3e}, fine {fine:.3e})"
        );
    }

    /// A loaded CNFET inverter (supply node 1, input 2, output 3) with
    /// its terminal capacitances, driven by `input`.
    fn cnfet_inverter(input: SourceWave) -> MnaCircuit {
        let model = CnfetModel::poly_65nm();
        let nd: Arc<dyn FetModel + Send + Sync> = Arc::new(model.device(Polarity::N, 4, 130e-9));
        let pd: Arc<dyn FetModel + Send + Sync> = Arc::new(model.device(Polarity::P, 4, 130e-9));
        let mut c = MnaCircuit::new();
        let (vdd, vin, vout) = (1, 2, 3);
        c.vsource(vdd, 0, SourceWave::Dc(1.0));
        c.vsource(vin, 0, input);
        for (d, g, s, m) in [(vout, vin, vdd, &pd), (vout, vin, 0, &nd)] {
            let cg = m.cgate();
            c.capacitor(g, s, cg / 2.0);
            c.capacitor(g, d, cg / 2.0);
            c.capacitor(d, 0, m.cdrain());
            c.fet(d, g, s, Arc::clone(m));
        }
        c.capacitor(vout, 0, 50e-18);
        c
    }

    #[test]
    fn cnfet_inverter_transient_switches() {
        // DC transfer: a low input drives the output high, a high input
        // drives it low.
        for (vin, high) in [(0.0, true), (1.0, false)] {
            let c = cnfet_inverter(SourceWave::Dc(vin));
            let out = engine_for(&c).dc(&c).unwrap()[3];
            assert!(
                if high { out > 0.95 } else { out < 0.05 },
                "in={vin} -> out={out}"
            );
        }
        let vout = 3;
        let c = cnfet_inverter(SourceWave::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 10e-12,
            rise: 2e-12,
            fall: 2e-12,
            width: 100e-12,
            period: 0.0,
        });
        let mut e = engine_for(&c);
        let wave = e.tran(&c, &TranSpec::new(0.25e-12, 80e-12)).unwrap();
        let v = wave.voltage(vout);
        assert!(v[0] > 0.95, "initial output should be high, got {}", v[0]);
        assert!(
            *v.last().unwrap() < 0.05,
            "final output should be low, got {}",
            v.last().unwrap()
        );
        // Nonlinear circuit: Newton re-stamps every iteration, but the
        // pivot order survives nearly all of them.
        let stats = e.stats();
        assert!(
            stats.refactorizations > 10 * stats.factorizations,
            "{stats:?}"
        );
    }

    /// The plain stepping loop, every step solved: the oracle the
    /// fast-forwarding [`Engine::tran`] must match bit for bit.
    fn plain_tran(
        e: &mut Engine,
        circuit: &MnaCircuit,
        spec: &TranSpec,
    ) -> Result<Waveform, MnaError> {
        e.dc(circuit)?;
        let mut state = DynamicState::init(&e.pattern, &e.x);
        let mut wave = Waveform::new(&e.pattern, 0);
        wave.push(0.0, &e.x);
        let (mut t0, mut k) = (0.0, 0usize);
        while t0 < spec.t_stop {
            k += 1;
            let nominal = k as f64 * spec.dt;
            let (t1, h) = if nominal <= spec.t_stop {
                (nominal, spec.dt)
            } else {
                (spec.t_stop, spec.t_stop - t0)
            };
            e.advance(
                circuit,
                t0,
                t1,
                h,
                spec.method,
                spec.max_halvings,
                k,
                &mut state,
                &mut wave,
            )?;
            t0 = t1;
        }
        Ok(wave)
    }

    /// Every trace of a waveform — time, node voltages, source and
    /// inductor currents — as raw bits.
    fn all_bits(wave: &Waveform, pattern: &Pattern) -> Vec<Vec<u64>> {
        let probes = (1..=pattern.n_nodes())
            .map(Probe::Node)
            .chain((0..pattern.n_vsources()).map(Probe::SourceCurrent))
            .chain((0..pattern.n_inductors()).map(Probe::InductorCurrent));
        std::iter::once(bits(wave.time()))
            .chain(probes.map(|p| bits(wave.probe(p))))
            .collect()
    }

    /// Runs `spec` through [`Engine::tran`] and through the oracle, each
    /// on a fresh engine, and asserts bit-identical waveforms (or equal
    /// errors). Returns the fast-forwarding engine's counters.
    fn assert_matches_oracle(c: &MnaCircuit, spec: &TranSpec) -> SolveStats {
        let mut fast = engine_for(c);
        let got = fast.tran(c, spec);
        let want = plain_tran(&mut engine_for(c), c, spec);
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                let p = fast.pattern();
                assert_eq!(all_bits(g, p), all_bits(w, p), "{spec:?}");
            }
            _ => assert_eq!(got.err(), want.err(), "{spec:?}"),
        }
        fast.stats()
    }

    /// A CNFET with its terminal capacitances, as the inverter has them.
    fn add_fet(c: &mut MnaCircuit, d: usize, g: usize, s: usize, polarity: Polarity) {
        let m: Arc<dyn FetModel + Send + Sync> =
            Arc::new(CnfetModel::poly_65nm().device(polarity, 4, 130e-9));
        let cg = m.cgate();
        c.capacitor(g, s, cg / 2.0);
        c.capacitor(g, d, cg / 2.0);
        c.capacitor(d, 0, m.cdrain());
        c.fet(d, g, s, m);
    }

    fn pulse(delay: f64, width: f64, period: f64) -> SourceWave {
        SourceWave::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay,
            rise: 10e-12,
            fall: 10e-12,
            width,
            period,
        }
    }

    /// NAND3 (supply 1, inputs 2–4, output 5, stack nodes 6–7): input
    /// `a` pulses, `b` pulses later, `c` is held high — so the series
    /// stack's internal nodes carry charge between edges.
    fn cnfet_nand3() -> MnaCircuit {
        let mut c = MnaCircuit::new();
        let (vdd, a, b, cin, out, n1, n2) = (1, 2, 3, 4, 5, 6, 7);
        c.vsource(vdd, 0, SourceWave::Dc(1.0));
        c.vsource(a, 0, pulse(50e-12, 300e-12, 0.0));
        c.vsource(b, 0, pulse(150e-12, 400e-12, 0.0));
        c.vsource(cin, 0, SourceWave::Dc(1.0));
        for g in [a, b, cin] {
            add_fet(&mut c, out, g, vdd, Polarity::P);
        }
        add_fet(&mut c, out, a, n1, Polarity::N);
        add_fet(&mut c, n1, b, n2, Polarity::N);
        add_fet(&mut c, n2, cin, 0, Polarity::N);
        c.capacitor(out, 0, 100e-18);
        c
    }

    /// AOI21, `out = !(a·b + c)` (supply 1, inputs 2–4, output 5, stack
    /// nodes 6–7): `a` pulses periodically, `b` is high, `c` low.
    fn cnfet_aoi21() -> MnaCircuit {
        let mut c = MnaCircuit::new();
        let (vdd, a, b, cin, out, n1, p1) = (1, 2, 3, 4, 5, 6, 7);
        c.vsource(vdd, 0, SourceWave::Dc(1.0));
        c.vsource(a, 0, pulse(40e-12, 150e-12, 400e-12));
        c.vsource(b, 0, SourceWave::Dc(1.0));
        c.vsource(cin, 0, SourceWave::Dc(0.0));
        add_fet(&mut c, out, a, n1, Polarity::N);
        add_fet(&mut c, n1, b, 0, Polarity::N);
        add_fet(&mut c, out, cin, 0, Polarity::N);
        add_fet(&mut c, p1, a, vdd, Polarity::P);
        add_fet(&mut c, p1, b, vdd, Polarity::P);
        add_fet(&mut c, out, cin, p1, Polarity::P);
        c.capacitor(out, 0, 100e-18);
        c
    }

    /// Two RC sections, or two RLC sections when `inductive`, driven by a
    /// periodic pulse.
    fn pulse_ladder(inductive: bool) -> MnaCircuit {
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, pulse(20e-12, 200e-12, 500e-12));
        c.resistor(1, 2, 100.0);
        if inductive {
            c.inductor(2, 3, 1e-9);
        } else {
            c.resistor(2, 3, 100.0);
        }
        c.capacitor(3, 0, 0.2e-12);
        c.resistor(3, 4, 500.0);
        c.capacitor(4, 0, 0.1e-12);
        c
    }

    /// A test-double device whose current is the cube root of its drain
    /// voltage above 0.5 V. Near that point the root's slope outgrows a
    /// large step's companion conductance and damped Newton cycles; a
    /// smaller step converges.
    #[derive(Debug)]
    struct CubeRoot;

    impl FetModel for CubeRoot {
        fn ids(&self, _vgs: f64, vds: f64) -> f64 {
            1e-3 * (vds - 0.5).cbrt()
        }
        fn cgate(&self) -> f64 {
            0.0
        }
        fn cdrain(&self) -> f64 {
            0.0
        }
        fn polarity(&self) -> Polarity {
            Polarity::N
        }
    }

    /// An RC node pulled through [`CubeRoot`]: its 2 ps steps need one
    /// local halving on the way up.
    fn cube_root_node() -> MnaCircuit {
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, pulse(20e-12, 1e-9, 0.0));
        c.resistor(1, 2, 1e3);
        c.capacitor(2, 0, 1e-13);
        c.fet(2, 1, 0, Arc::new(CubeRoot));
        c
    }

    #[test]
    fn fast_forward_matches_the_plain_loop_on_cnfet_gates() {
        let inverter = cnfet_inverter(pulse(100e-12, 250e-12, 0.0));
        for method in [Method::BackwardEuler, Method::Trapezoidal] {
            for t_stop in [600e-12, 600.7e-12] {
                let spec = TranSpec::new(2e-12, t_stop).method(method);
                let stats = assert_matches_oracle(&inverter, &spec);
                if method == Method::BackwardEuler {
                    // The inverter's flat stretches settle to the bit.
                    assert!(stats.repeated_steps > 0, "{stats:?}");
                }
                assert_matches_oracle(&cnfet_nand3(), &spec);
                assert_matches_oracle(&cnfet_aoi21(), &spec);
            }
        }
    }

    #[test]
    fn fast_forward_matches_the_plain_loop_on_linear_ladders() {
        for inductive in [false, true] {
            let c = pulse_ladder(inductive);
            for method in [Method::BackwardEuler, Method::Trapezoidal] {
                // A multiple of `dt`, and one that clamps the last step.
                for t_stop in [1.5e-9, 1.5003e-9] {
                    assert_matches_oracle(&c, &TranSpec::new(2e-12, t_stop).method(method));
                }
            }
        }
    }

    /// An edge after a long settled stretch is still simulated: the
    /// source check ends the repeats at the first step whose input moves.
    #[test]
    fn an_edge_after_a_long_flat_stretch_ends_the_repeats() {
        let c = cnfet_inverter(pulse(1.5e-9, 1e-9, 0.0));
        let spec = TranSpec::new(2e-12, 2e-9);
        let stats = assert_matches_oracle(&c, &spec);
        assert!(stats.repeated_steps > 500, "{stats:?}");
        let wave = engine_for(&c).tran(&c, &spec).unwrap();
        let out = wave.voltage(3);
        assert!(
            out[0] > 0.95 && *out.last().unwrap() < 0.05,
            "output never fell"
        );
    }

    /// A source that moves on every step leaves nothing to repeat.
    #[test]
    fn a_pwl_ramp_over_the_whole_run_repeats_nothing() {
        let ramp = SourceWave::Pwl(vec![(0.0, 0.0), (1e-9, 1.0)]);
        let c = cnfet_inverter(ramp.clone());
        let spec = TranSpec::new(2e-12, 1e-9);
        assert_eq!(assert_matches_oracle(&c, &spec).repeated_steps, 0);
        let mut rc = MnaCircuit::new();
        rc.vsource(1, 0, ramp);
        rc.resistor(1, 2, 1e3);
        rc.capacitor(2, 0, 1e-13);
        for method in [Method::BackwardEuler, Method::Trapezoidal] {
            let stats = assert_matches_oracle(&rc, &spec.method(method));
            assert_eq!(stats.repeated_steps, 0);
        }
    }

    /// Halved steps are recorded like the plain loop records them, and a
    /// run that cannot halve fails at the same step.
    #[test]
    fn halving_and_failing_runs_match_the_plain_loop() {
        let c = cube_root_node();
        let spec = TranSpec::new(2e-12, 0.6e-9);
        let stats = assert_matches_oracle(&c, &spec);
        let wave = engine_for(&c).tran(&c, &spec).unwrap();
        assert!(wave.len() > 301, "no step halved: {} samples", wave.len());
        assert!(stats.repeated_steps > 0, "{stats:?}");
        let fixed = spec.max_halvings(0);
        assert_matches_oracle(&c, &fixed);
        assert!(matches!(
            engine_for(&c).tran(&c, &fixed),
            Err(MnaError::NoConvergence { at_step }) if at_step > 0
        ));
    }

    #[test]
    fn nominal_steps_bound_the_run() {
        assert_eq!(TranSpec::new(2e-12, 4.4e-9).nominal_steps(), Some(2200));
        assert_eq!(TranSpec::new(2e-12, 4.4001e-9).nominal_steps(), Some(2201));
        let ceiling = MAX_TRAN_STEPS as f64;
        assert_eq!(
            TranSpec::new(1.0, ceiling).nominal_steps(),
            Some(MAX_TRAN_STEPS)
        );
        for (dt, t_stop) in [
            (1.0, ceiling + 1.0),
            (1e-15, 1.0),
            (1e-300, 1.0),
            (f64::MIN_POSITIVE, f64::MAX),
            (0.0, 1.0),
            (-1e-12, 1e-9),
            (1e-12, f64::INFINITY),
            (f64::NAN, 1e-9),
            (1e-12, 0.0),
        ] {
            assert_eq!(
                TranSpec::new(dt, t_stop).nominal_steps(),
                None,
                "{dt:e} {t_stop:e}"
            );
        }
    }

    /// The ceiling is checked before the DC point or any buffer.
    #[test]
    #[should_panic(expected = "at most 1000000 steps")]
    fn tran_past_the_step_ceiling_panics_before_allocating() {
        let c = pulse_ladder(false);
        let _ = engine_for(&c).tran(&c, &TranSpec::new(1e-15, 1.0));
    }

    /// The dimension bound is checked before the LU is allocated.
    #[test]
    #[should_panic(expected = "exceeds the dense LU bound of 1024")]
    fn engines_past_the_dimension_bound_panic_before_allocating() {
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Dc(1.0));
        for i in 1..MAX_DENSE_DIM {
            c.resistor(i, i + 1, 1.0);
        }
        assert_eq!(c.dim(), MAX_DENSE_DIM + 1);
        let _ = engine_for(&c);
    }

    /// The sample bound is checked before the DC point or any buffer.
    #[test]
    #[should_panic(expected = "exceeds the bound of 4194304")]
    fn tran_past_the_sample_bound_panics_before_allocating() {
        let c = pulse_ladder(false);
        let spec = TranSpec::new(1e-12, 0.9e-6);
        assert!(spec.nominal_steps().unwrap() * (c.dim() + 1) > MAX_WAVEFORM_SAMPLES);
        let _ = engine_for(&c).tran(&c, &spec);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn topology_mismatch_is_rejected() {
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Dc(1.0));
        c.resistor(1, 0, 1e3);
        let mut e = engine_for(&c);
        c.resistor(1, 0, 1e3); // now a different topology
        let _ = e.dc(&c);
    }
}
