//! Named-node netlists over the engine's circuit form.
//!
//! A [`Circuit`] is a name table in front of one [`MnaCircuit`]: node
//! names intern to dense indices (`Node(i)` is engine node `i`, ground is
//! `0`) and every element lands directly in the engine circuit, so the
//! i-th voltage source added is the i-th source branch of [`to_mna`].

use cnfet_device::FetModel;
use cnfet_mna::{MnaCircuit, MnaElement, SourceWave};
use std::collections::HashMap;
use std::sync::Arc;

/// A circuit node. Node 0 is ground.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub usize);

/// A circuit under construction.
///
/// # Example
///
/// ```
/// use cnfet_spice::{Circuit, SourceWave};
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add_vsource(a, Circuit::GROUND, SourceWave::Dc(1.0));
/// ckt.add_resistor(a, Circuit::GROUND, 50.0);
/// assert_eq!(ckt.node_count(), 2); // ground + a
/// ```
#[derive(Clone, Debug)]
pub struct Circuit {
    names: Vec<String>,
    by_name: HashMap<String, Node>,
    mna: MnaCircuit,
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new()
    }
}

/// The engine circuit behind a netlist, borrowed: node `Node(i)` is
/// engine node `i`, and interned-but-unconnected nodes stay in it so they
/// surface as the floating-node (singular) diagnostic.
pub fn to_mna(circuit: &Circuit) -> &MnaCircuit {
    &circuit.mna
}

impl Circuit {
    /// The ground node (always node 0).
    pub const GROUND: Node = Node(0);

    /// Creates a circuit containing only the ground node.
    pub fn new() -> Circuit {
        let mut c = Circuit {
            names: Vec::new(),
            by_name: HashMap::new(),
            mna: MnaCircuit::new(),
        };
        let g = c.intern("0");
        debug_assert_eq!(g, Circuit::GROUND);
        c
    }

    fn intern(&mut self, name: &str) -> Node {
        if let Some(&n) = self.by_name.get(name) {
            return n;
        }
        let n = Node(self.names.len());
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), n);
        self.mna.reserve_nodes(self.names.len());
        n
    }

    /// Returns (creating if needed) the node with the given name. The names
    /// `"0"` and `"gnd"` both refer to ground.
    pub fn node(&mut self, name: &str) -> Node {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Circuit::GROUND;
        }
        self.intern(name)
    }

    /// Name of a node.
    pub fn node_name(&self, node: Node) -> &str {
        &self.names[node.0]
    }

    /// Looks up a node by name without creating it (honoring the `"0"` /
    /// `"gnd"` ground aliases).
    pub fn find_node(&self, name: &str) -> Option<Node> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Some(Circuit::GROUND);
        }
        self.by_name.get(name).copied()
    }

    /// Total node count including ground.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// All elements, in insertion order.
    pub fn elements(&self) -> &[MnaElement] {
        self.mna.elements()
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics unless the resistance is positive and finite.
    pub fn add_resistor(&mut self, a: Node, b: Node, ohms: f64) -> &mut Circuit {
        self.mna.resistor(a.0, b.0, ohms);
        self
    }

    /// Adds a capacitor (no-op when zero).
    ///
    /// # Panics
    ///
    /// Panics unless the capacitance is non-negative and finite.
    pub fn add_capacitor(&mut self, a: Node, b: Node, farads: f64) -> &mut Circuit {
        self.mna.capacitor(a.0, b.0, farads);
        self
    }

    /// Adds an inductor.
    ///
    /// # Panics
    ///
    /// Panics unless the inductance is positive and finite.
    pub fn add_inductor(&mut self, a: Node, b: Node, henries: f64) -> &mut Circuit {
        self.mna.inductor(a.0, b.0, henries);
        self
    }

    /// Adds an independent voltage source and returns its index among
    /// sources (usable with [`cnfet_mna::Probe::SourceCurrent`]).
    pub fn add_vsource(&mut self, p: Node, n: Node, wave: SourceWave) -> usize {
        self.mna.vsource(p.0, n.0, wave)
    }

    /// Adds a FET plus its terminal capacitances (gate capacitance split
    /// half to source, half to drain; drain parasitic to ground).
    pub fn add_fet(
        &mut self,
        d: Node,
        g: Node,
        s: Node,
        model: Arc<dyn FetModel + Send + Sync>,
    ) -> &mut Circuit {
        let cg = model.cgate();
        let cd = model.cdrain();
        self.add_capacitor(g, s, cg / 2.0);
        self.add_capacitor(g, d, cg / 2.0);
        self.add_capacitor(d, Circuit::GROUND, cd);
        self.mna.fet(d.0, g.0, s.0, model);
        self
    }

    /// Adds a load capacitor to ground (no-op when zero), a convenience for
    /// characterization sweeps.
    pub fn add_load(&mut self, node: Node, farads: f64) -> &mut Circuit {
        self.add_capacitor(node, Circuit::GROUND, farads)
    }

    /// Renders the circuit as a SPICE-like deck: one line per element in
    /// insertion order, node names as interned, values in scientific
    /// notation. The rendering is **deterministic** — equal circuits
    /// render byte-identically — so it doubles as a canonical form for
    /// golden-file tests and cache keys. FETs render as `M` cards carrying
    /// the model quantities the in-repo simulator actually uses (polarity,
    /// gate and drain capacitance).
    pub fn to_spice(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let name = |n: &usize| self.names[*n].as_str();
        let mut out = String::new();
        let _ = writeln!(out, "* {title}");
        let (mut nr, mut nc, mut nl, mut nv, mut nm) = (0u32, 0u32, 0u32, 0u32, 0u32);
        for e in self.elements() {
            match e {
                MnaElement::Resistor { a, b, ohms } => {
                    nr += 1;
                    let _ = writeln!(out, "R{nr} {} {} {ohms:.6e}", name(a), name(b));
                }
                MnaElement::Capacitor { a, b, farads } => {
                    nc += 1;
                    let _ = writeln!(out, "C{nc} {} {} {farads:.6e}", name(a), name(b));
                }
                MnaElement::Inductor { a, b, henries } => {
                    nl += 1;
                    let _ = writeln!(out, "L{nl} {} {} {henries:.6e}", name(a), name(b));
                }
                MnaElement::VSource { p, n, wave } => {
                    nv += 1;
                    let _ = write!(out, "V{nv} {} {} ", name(p), name(n));
                    match wave {
                        SourceWave::Dc(v) => {
                            let _ = writeln!(out, "DC {v:.6e}");
                        }
                        SourceWave::Pulse {
                            v0,
                            v1,
                            delay,
                            rise,
                            fall,
                            width,
                            period,
                        } => {
                            let _ = writeln!(
                                out,
                                "PULSE({v0:.6e} {v1:.6e} {delay:.6e} {rise:.6e} {fall:.6e} {width:.6e} {period:.6e})"
                            );
                        }
                        SourceWave::Pwl(points) => {
                            let _ = write!(out, "PWL(");
                            for (i, (t, v)) in points.iter().enumerate() {
                                let sep = if i == 0 { "" } else { " " };
                                let _ = write!(out, "{sep}{t:.6e} {v:.6e}");
                            }
                            let _ = writeln!(out, ")");
                        }
                    }
                }
                MnaElement::Fet { d, g, s, model } => {
                    nm += 1;
                    let polarity = match model.polarity() {
                        cnfet_device::Polarity::N => "cnfet_n",
                        cnfet_device::Polarity::P => "cnfet_p",
                    };
                    let _ = writeln!(
                        out,
                        "M{nm} {} {} {} {polarity} cg={:.6e} cd={:.6e}",
                        name(d),
                        name(g),
                        name(s),
                        model.cgate(),
                        model.cdrain()
                    );
                }
            }
        }
        out.push_str(".end\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), Circuit::GROUND);
        assert_eq!(c.node("gnd"), Circuit::GROUND);
        assert_eq!(c.node("GND"), Circuit::GROUND);
        let a = c.node("a");
        assert_ne!(a, Circuit::GROUND);
        assert_eq!(c.node("a"), a);
    }

    #[test]
    fn zero_capacitor_skipped() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_capacitor(a, Circuit::GROUND, 0.0);
        assert!(c.elements().is_empty());

        // A named node no element touches still exists in the engine
        // circuit, so it floats: the floating-node diagnostic.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource(a, Circuit::GROUND, SourceWave::Dc(1.0));
        c.add_resistor(a, Circuit::GROUND, 1e3);
        let _floating = c.node("floating");
        let mna = to_mna(&c);
        let mut engine = cnfet_mna::Engine::new(Arc::new(cnfet_mna::Pattern::analyze(mna)));
        assert_eq!(engine.dc(mna), Err(cnfet_mna::MnaError::Singular));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_resistance_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor(a, Circuit::GROUND, -5.0);
    }

    #[test]
    fn to_spice_renders_deterministically() {
        let build = || {
            let mut c = Circuit::new();
            let a = c.node("in");
            let b = c.node("out");
            c.add_vsource(
                a,
                Circuit::GROUND,
                SourceWave::Pulse {
                    v0: 0.0,
                    v1: 1.0,
                    delay: 1e-10,
                    rise: 1e-11,
                    fall: 1e-11,
                    width: 1e-9,
                    period: 2e-9,
                },
            );
            c.add_resistor(a, b, 1e3);
            c.add_capacitor(b, Circuit::GROUND, 1e-15);
            c
        };
        let deck = build().to_spice("rc");
        assert_eq!(deck, build().to_spice("rc"), "byte-identical rendering");
        assert!(deck.starts_with("* rc\n"));
        assert!(deck.contains("V1 in 0 PULSE("));
        assert!(deck.contains("R1 in out 1.000000e3"));
        assert!(deck.contains("C1 out 0 1.000000e-15"));
        assert!(deck.ends_with(".end\n"));
    }

    #[test]
    fn vsource_indices_count_up() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_eq!(c.add_vsource(a, Circuit::GROUND, SourceWave::Dc(1.0)), 0);
        c.add_resistor(a, b, 1e3);
        c.add_capacitor(b, Circuit::GROUND, 1e-15);
        c.add_inductor(b, Circuit::GROUND, 1e-9);
        assert_eq!(c.add_vsource(b, Circuit::GROUND, SourceWave::Dc(2.0)), 1);
        // The engine circuit keeps node identity and source order.
        let mna = to_mna(&c);
        assert_eq!(mna.node_count(), c.node_count());
        assert_eq!(mna.vsource_count(), 2);
        assert!(matches!(
            mna.elements()[4],
            MnaElement::VSource { p, n: 0, .. } if p == b.0
        ));
    }
}
