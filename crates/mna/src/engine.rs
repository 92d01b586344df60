//! The analysis engine: Newton–Raphson DC, adaptive-capable transient,
//! all against one preallocated factorization working set.
//!
//! An [`Engine`] is built from an [`std::sync::Arc`]`<`[`Pattern`]`>` and
//! owns every numeric buffer the pattern's dimension implies. Each solve
//! re-stamps values and re-factors **in place** — the first factorization
//! records a pivot order that [`crate::LuFactor::refactor`] then reuses
//! across Newton iterations and timesteps, so the steady-state transient
//! loop performs no allocation and no fresh pivot search.
//!
//! A pattern without FETs is linear: its matrix depends only on the
//! element values and the system solved — DC, or a transient step of a
//! given method and companion step. Every full transient step uses the
//! nominal `dt` as its companion step, so such an analysis factors once
//! for the whole DC ladder and once per distinct step length, and
//! otherwise only re-stamps and re-solves the right-hand side. The
//! engine remembers which system its factorization belongs to and
//! forgets it at the start of every [`Engine::dc`], so circuits with new
//! values never meet a stale LU.

use crate::circuit::MnaCircuit;
use crate::pattern::Pattern;
use crate::solver::{LuFactor, SolveStats};
use crate::stamp::{stamp_system, DynamicState, Dynamics, Method, StampSpec};
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
}

impl fmt::Display for MnaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MnaError::NoConvergence { at_step } => {
                write!(f, "newton iteration did not converge at step {at_step}")
            }
            MnaError::Singular => write!(f, "singular MNA matrix (floating node?)"),
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
    /// For a linear pattern, the system `lu` currently holds factored for
    /// the circuit of the running analysis; `None` when unknown.
    factored: Option<LinearSystem>,
}

impl Engine {
    /// Creates an engine (and its buffers) for a topology.
    pub fn new(pattern: Arc<Pattern>) -> Engine {
        let dim = pattern.dim();
        Engine {
            lu: LuFactor::new(dim),
            b: vec![0.0; dim],
            x: vec![0.0; dim],
            saved: vec![0.0; dim],
            factored: None,
            pattern,
        }
    }

    /// The topology this engine was built for.
    pub fn pattern(&self) -> &Arc<Pattern> {
        &self.pattern
    }

    /// Factorization-work counters accumulated over this engine's life —
    /// `refactorizations` dominating `factorizations` is the
    /// pivot-order-reuse contract at work.
    pub fn stats(&self) -> SolveStats {
        self.lu.stats()
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
        // already belongs to it, only the right-hand side needs solving.
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
            self.lu.clear();
            self.b.fill(0.0);
            stamp_system(
                &self.pattern,
                circuit,
                &self.x,
                &mut self.lu,
                &mut self.b,
                &spec,
            );
            if !reuse {
                self.lu.refactor().map_err(|_| MnaError::Singular)?;
                self.factored = system;
            }
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
    ) -> Result<(), MnaError> {
        self.saved.copy_from_slice(&self.x);
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
                state.accept(&self.pattern, circuit, &self.x, method, h);
                wave.push(t1, &self.x);
                Ok(())
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
                )
            }
            Err(e) => Err(e),
        }
    }

    /// Runs a transient analysis from the DC operating point, recording a
    /// strictly monotone [`Waveform`].
    ///
    /// # Errors
    ///
    /// Returns [`MnaError`] on a singular system or when a step fails to
    /// converge even at the finest allowed sub-step.
    ///
    /// # Panics
    ///
    /// Panics unless `dt` and `t_stop` are positive, or when the circuit's
    /// topology does not match the engine's pattern.
    pub fn tran(&mut self, circuit: &MnaCircuit, spec: &TranSpec) -> Result<Waveform, MnaError> {
        assert!(
            spec.dt > 0.0 && spec.t_stop > 0.0,
            "dt and t_stop must be positive"
        );
        self.dc(circuit)?; // leaves self.x at the operating point
        let mut state = DynamicState::init(&self.pattern, &self.x);
        let capacity = (spec.t_stop / spec.dt).ceil() as usize + 1;
        let mut wave = Waveform::new(&self.pattern, capacity);
        wave.push(0.0, &self.x);
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
            self.advance(
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
        let v = engine_for(&c).dc(&c).unwrap();
        assert!((v[2] - 1.5).abs() < 1e-9);
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

    #[test]
    fn cnfet_inverter_transient_switches() {
        let model = CnfetModel::poly_65nm();
        let nd: Arc<dyn FetModel + Send + Sync> = Arc::new(model.device(Polarity::N, 4, 130e-9));
        let pd: Arc<dyn FetModel + Send + Sync> = Arc::new(model.device(Polarity::P, 4, 130e-9));
        let mut c = MnaCircuit::new();
        let (vdd, vin, vout) = (1, 2, 3);
        c.vsource(vdd, 0, SourceWave::Dc(1.0));
        c.vsource(
            vin,
            0,
            SourceWave::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 10e-12,
                rise: 2e-12,
                fall: 2e-12,
                width: 100e-12,
                period: 0.0,
            },
        );
        for (d, g, s, m) in [(vout, vin, vdd, &pd), (vout, vin, 0, &nd)] {
            let cg = m.cgate();
            c.capacitor(g, s, cg / 2.0);
            c.capacitor(g, d, cg / 2.0);
            c.capacitor(d, 0, m.cdrain());
            c.fet(d, g, s, Arc::clone(m));
        }
        c.capacitor(vout, 0, 50e-18);
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
