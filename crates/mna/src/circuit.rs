//! The engine-level circuit description: plain node indices, element
//! values, and source waveforms.
//!
//! An [`MnaCircuit`] is the *numeric* half of the engine's input: element
//! values attached to a topology. The *symbolic* half — unknown indexing
//! and stamping plans — is computed once per topology by
//! [`crate::Pattern::analyze`] and shared across every circuit with the
//! same element kinds and terminals (a sweep corner only changes values).

use cnfet_device::FetModel;
use std::sync::Arc;

/// A time-dependent independent source value (SPICE `DC`/`PULSE`/`PWL`
/// semantics; `cnfet-spice` decks parse to and render from it).
#[derive(Clone, Debug, PartialEq)]
pub enum SourceWave {
    /// Constant voltage.
    Dc(f64),
    /// Periodic trapezoidal pulse.
    Pulse {
        /// Initial level (V).
        v0: f64,
        /// Pulsed level (V).
        v1: f64,
        /// Delay before the first edge (s).
        delay: f64,
        /// Rise time (s).
        rise: f64,
        /// Fall time (s).
        fall: f64,
        /// Pulse width at `v1` (s).
        width: f64,
        /// Period (s); 0 disables repetition.
        period: f64,
    },
    /// Piecewise-linear waveform through `(time, value)` points.
    Pwl(Vec<(f64, f64)>),
}

impl SourceWave {
    /// The source value at time `t`.
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            SourceWave::Dc(v) => *v,
            SourceWave::Pulse {
                v0,
                v1,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v0;
                }
                let mut tt = t - delay;
                if *period > 0.0 {
                    tt %= period;
                }
                if tt < *rise {
                    v0 + (v1 - v0) * tt / rise
                } else if tt < rise + width {
                    *v1
                } else if tt < rise + width + fall {
                    v1 + (v0 - v1) * (tt - rise - width) / fall
                } else {
                    *v0
                }
            }
            SourceWave::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let ((t0, v0), (t1, v1)) = (w[0], w[1]);
                    if t <= t1 {
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points[points.len() - 1].1
            }
        }
    }
}

/// One circuit element over plain node indices; node 0 is ground.
#[derive(Clone)]
pub enum MnaElement {
    /// Linear resistor.
    Resistor {
        /// First terminal.
        a: usize,
        /// Second terminal.
        b: usize,
        /// Resistance in ohms.
        ohms: f64,
    },
    /// Linear capacitor (open at DC; companion model in transient).
    Capacitor {
        /// First terminal.
        a: usize,
        /// Second terminal.
        b: usize,
        /// Capacitance in farads.
        farads: f64,
    },
    /// Linear inductor (short at DC; adds one branch-current unknown).
    Inductor {
        /// First terminal (current flows `a` → `b` at positive branch
        /// current).
        a: usize,
        /// Second terminal.
        b: usize,
        /// Inductance in henries.
        henries: f64,
    },
    /// Independent voltage source from `p` to `n` (adds one branch-current
    /// unknown; positive branch current flows `p` → `n` *through* the
    /// source, the SPICE convention — supplies see negative current).
    VSource {
        /// Positive terminal.
        p: usize,
        /// Negative terminal.
        n: usize,
        /// Source waveform.
        wave: SourceWave,
    },
    /// Quasi-static FET, linearized per Newton iteration. Terminal
    /// capacitances are *not* implied — add explicit [`MnaElement::Capacitor`]s
    /// (`cnfet-spice`'s `Circuit::add_fet` does).
    Fet {
        /// Drain terminal.
        d: usize,
        /// Gate terminal.
        g: usize,
        /// Source terminal.
        s: usize,
        /// Large-signal device model.
        model: Arc<dyn FetModel + Send + Sync>,
    },
}

impl std::fmt::Debug for MnaElement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MnaElement::Resistor { a, b, ohms } => write!(f, "R({a},{b},{ohms})"),
            MnaElement::Capacitor { a, b, farads } => write!(f, "C({a},{b},{farads})"),
            MnaElement::Inductor { a, b, henries } => write!(f, "L({a},{b},{henries})"),
            MnaElement::VSource { p, n, .. } => write!(f, "V({p},{n})"),
            MnaElement::Fet { d, g, s, .. } => write!(f, "FET(d={d},g={g},s={s})"),
        }
    }
}

/// A circuit: an element list over node indices `0..node_count()`, with
/// node 0 as ground. Node indices are dense — adding an element touching
/// node `k` implies nodes `0..=k` exist.
#[derive(Clone, Debug)]
pub struct MnaCircuit {
    n_nodes: usize,
    elements: Vec<MnaElement>,
}

impl Default for MnaCircuit {
    fn default() -> Self {
        MnaCircuit::new()
    }
}

impl MnaCircuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> MnaCircuit {
        MnaCircuit {
            n_nodes: 1,
            elements: Vec::new(),
        }
    }

    fn touch(&mut self, node: usize) {
        self.n_nodes = self.n_nodes.max(node + 1);
    }

    /// Adds an element, growing the node count to cover its terminals.
    pub fn add(&mut self, element: MnaElement) -> &mut MnaCircuit {
        match &element {
            MnaElement::Resistor { a, b, ohms } => {
                assert!(
                    ohms.is_finite() && *ohms > 0.0,
                    "resistance must be positive"
                );
                self.touch(*a);
                self.touch(*b);
            }
            MnaElement::Capacitor { a, b, farads } => {
                assert!(
                    farads.is_finite() && *farads >= 0.0,
                    "capacitance must be non-negative"
                );
                self.touch(*a);
                self.touch(*b);
            }
            MnaElement::Inductor { a, b, henries } => {
                assert!(
                    henries.is_finite() && *henries > 0.0,
                    "inductance must be positive"
                );
                self.touch(*a);
                self.touch(*b);
            }
            MnaElement::VSource { p, n, .. } => {
                self.touch(*p);
                self.touch(*n);
            }
            MnaElement::Fet { d, g, s, .. } => {
                self.touch(*d);
                self.touch(*g);
                self.touch(*s);
            }
        }
        self.elements.push(element);
        self
    }

    /// Adds a resistor.
    pub fn resistor(&mut self, a: usize, b: usize, ohms: f64) -> &mut MnaCircuit {
        self.add(MnaElement::Resistor { a, b, ohms })
    }

    /// Adds a capacitor (zero-valued capacitors are skipped).
    pub fn capacitor(&mut self, a: usize, b: usize, farads: f64) -> &mut MnaCircuit {
        if farads == 0.0 {
            return self;
        }
        self.add(MnaElement::Capacitor { a, b, farads })
    }

    /// Adds an inductor.
    pub fn inductor(&mut self, a: usize, b: usize, henries: f64) -> &mut MnaCircuit {
        self.add(MnaElement::Inductor { a, b, henries })
    }

    /// Adds an independent voltage source and returns its index among
    /// sources (usable with [`crate::Probe::SourceCurrent`]).
    pub fn vsource(&mut self, p: usize, n: usize, wave: SourceWave) -> usize {
        let idx = self.vsource_count();
        self.add(MnaElement::VSource { p, n, wave });
        idx
    }

    /// Adds a FET current element (no implied terminal capacitances).
    pub fn fet(
        &mut self,
        d: usize,
        g: usize,
        s: usize,
        model: Arc<dyn FetModel + Send + Sync>,
    ) -> &mut MnaCircuit {
        self.add(MnaElement::Fet { d, g, s, model })
    }

    /// Declares that nodes `0..n` exist even if no element touches them
    /// yet (never shrinks). A declared-but-unconnected node makes the
    /// system singular — exactly the floating-node diagnostic a named
    /// netlist wants to keep for a name no element touches.
    pub fn reserve_nodes(&mut self, n: usize) -> &mut MnaCircuit {
        self.n_nodes = self.n_nodes.max(n);
        self
    }

    /// Total node count including ground.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// All elements, in insertion order.
    pub fn elements(&self) -> &[MnaElement] {
        &self.elements
    }

    /// Number of voltage sources.
    pub fn vsource_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, MnaElement::VSource { .. }))
            .count()
    }

    /// Whether the circuit contains any nonlinear (FET) element.
    pub fn has_fets(&self) -> bool {
        self.elements
            .iter()
            .any(|e| matches!(e, MnaElement::Fet { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_tracks_terminals() {
        let mut c = MnaCircuit::new();
        assert_eq!(c.node_count(), 1);
        c.resistor(1, 3, 10.0);
        assert_eq!(c.node_count(), 4);
        c.capacitor(2, 0, 1e-15);
        assert_eq!(c.node_count(), 4);
    }

    #[test]
    fn zero_capacitor_skipped() {
        let mut c = MnaCircuit::new();
        c.capacitor(1, 0, 0.0);
        assert!(c.elements().is_empty());
    }

    #[test]
    fn source_wave_pulse_shape() {
        let w = SourceWave::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 1.0,
            rise: 1.0,
            fall: 1.0,
            width: 2.0,
            period: 10.0,
        };
        assert_eq!(w.value_at(0.0), 0.0);
        assert_eq!(w.value_at(1.5), 0.5);
        assert_eq!(w.value_at(3.0), 1.0);
        assert_eq!(w.value_at(4.5), 0.5);
        assert_eq!(w.value_at(6.0), 0.0);
        assert_eq!(w.value_at(11.5), 0.5);
    }

    #[test]
    fn source_wave_pwl_shape() {
        let w = SourceWave::Pwl(vec![(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(0.5), 0.5);
        assert_eq!(w.value_at(1.5), 0.75);
        assert_eq!(w.value_at(5.0), 0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_resistance_rejected() {
        MnaCircuit::new().resistor(1, 0, -1.0);
    }
}
