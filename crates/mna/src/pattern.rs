//! The symbolic half of the engine: unknown indexing computed once per
//! circuit *topology* and shared across every same-topology circuit.
//!
//! [`Pattern::analyze`] resolves each element's terminals into unknown
//! indices (nodes `1..` map to unknowns `0..`, then one branch-current
//! unknown per voltage source and per inductor) and records a per-element
//! stamping plan. Numeric stamping against a pattern is a flat walk with
//! no name resolution or counting — and a [`PatternCache`] memoizes
//! patterns by topology signature, so repeated same-topology circuits
//! (sweep corners, load sweeps) do **zero symbolic re-analysis**.

use crate::circuit::{MnaCircuit, MnaElement};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-element stamping plan with pre-resolved unknown indices
/// (`None` = ground terminal).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Plan {
    /// Resistor between two nodes.
    Conductance { a: Option<usize>, b: Option<usize> },
    /// Capacitor with its dynamic-state slot.
    Capacitor {
        a: Option<usize>,
        b: Option<usize>,
        state: usize,
    },
    /// Inductor with its branch row and dynamic-state slot.
    Inductor {
        a: Option<usize>,
        b: Option<usize>,
        row: usize,
        state: usize,
    },
    /// Voltage source with its branch row.
    VSource {
        p: Option<usize>,
        n: Option<usize>,
        row: usize,
    },
    /// FET terminals.
    Fet {
        d: Option<usize>,
        g: Option<usize>,
        s: Option<usize>,
    },
}

/// The topology signature: node count plus per-element kind and terminal
/// indices. Two circuits with equal signatures share a `Pattern`.
fn signature_of(circuit: &MnaCircuit) -> Vec<u64> {
    let mut sig = Vec::with_capacity(1 + circuit.elements().len() * 4);
    sig.push(circuit.node_count() as u64);
    for e in circuit.elements() {
        match e {
            MnaElement::Resistor { a, b, .. } => sig.extend([1, *a as u64, *b as u64]),
            MnaElement::Capacitor { a, b, .. } => sig.extend([2, *a as u64, *b as u64]),
            MnaElement::Inductor { a, b, .. } => sig.extend([3, *a as u64, *b as u64]),
            MnaElement::VSource { p, n, .. } => sig.extend([4, *p as u64, *n as u64]),
            MnaElement::Fet { d, g, s, .. } => sig.extend([5, *d as u64, *g as u64, *s as u64]),
        }
    }
    sig
}

/// The symbolic structure of a circuit's MNA system: unknown counts and
/// per-element stamping plans. Built once per topology by
/// [`Pattern::analyze`]; numeric stamping and factorization then reuse it
/// for every same-topology circuit.
#[derive(Clone, Debug)]
pub struct Pattern {
    n_nodes: usize,
    n_vsources: usize,
    n_inductors: usize,
    n_capacitors: usize,
    has_fets: bool,
    plans: Vec<Plan>,
    signature: Vec<u64>,
}

impl Pattern {
    /// Analyzes a circuit's topology: resolves every terminal to its
    /// unknown index and assigns branch rows (voltage sources first, then
    /// inductors, in element order).
    pub fn analyze(circuit: &MnaCircuit) -> Pattern {
        let n_nodes = circuit.node_count() - 1;
        let n_vsources = circuit.vsource_count();
        let idx = |node: usize| if node == 0 { None } else { Some(node - 1) };

        let mut plans = Vec::with_capacity(circuit.elements().len());
        let mut src = 0usize;
        let mut ind = 0usize;
        let mut cap = 0usize;
        let mut has_fets = false;
        for e in circuit.elements() {
            plans.push(match e {
                MnaElement::Resistor { a, b, .. } => Plan::Conductance {
                    a: idx(*a),
                    b: idx(*b),
                },
                MnaElement::Capacitor { a, b, .. } => {
                    cap += 1;
                    Plan::Capacitor {
                        a: idx(*a),
                        b: idx(*b),
                        state: cap - 1,
                    }
                }
                MnaElement::Inductor { a, b, .. } => {
                    ind += 1;
                    Plan::Inductor {
                        a: idx(*a),
                        b: idx(*b),
                        row: n_nodes + n_vsources + ind - 1,
                        state: ind - 1,
                    }
                }
                MnaElement::VSource { p, n, .. } => {
                    src += 1;
                    Plan::VSource {
                        p: idx(*p),
                        n: idx(*n),
                        row: n_nodes + src - 1,
                    }
                }
                MnaElement::Fet { d, g, s, .. } => {
                    has_fets = true;
                    Plan::Fet {
                        d: idx(*d),
                        g: idx(*g),
                        s: idx(*s),
                    }
                }
            });
        }
        Pattern {
            n_nodes,
            n_vsources,
            n_inductors: ind,
            n_capacitors: cap,
            has_fets,
            plans,
            signature: signature_of(circuit),
        }
    }

    /// Number of node-voltage unknowns (excluding ground).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of voltage-source branch-current unknowns.
    pub fn n_vsources(&self) -> usize {
        self.n_vsources
    }

    /// Number of inductor branch-current unknowns.
    pub fn n_inductors(&self) -> usize {
        self.n_inductors
    }

    /// Number of capacitors (dynamic-state slots).
    pub fn n_capacitors(&self) -> usize {
        self.n_capacitors
    }

    /// Whether the topology contains nonlinear (FET) elements.
    pub fn has_fets(&self) -> bool {
        self.has_fets
    }

    /// System dimension: node unknowns plus branch-current unknowns.
    pub fn dim(&self) -> usize {
        self.n_nodes + self.n_vsources + self.n_inductors
    }

    /// The topology signature this pattern was analyzed from.
    pub fn signature(&self) -> &[u64] {
        &self.signature
    }

    /// Whether a circuit has exactly this pattern's topology (same element
    /// kinds and terminals in the same order; values are free to differ).
    pub fn matches(&self, circuit: &MnaCircuit) -> bool {
        self.signature == signature_of(circuit)
    }

    pub(crate) fn plans(&self) -> &[Plan] {
        &self.plans
    }
}

/// Memoizes [`Pattern`]s by topology signature, so every same-topology
/// circuit — a sweep corner, a load point, a Newton re-solve — shares one
/// symbolic analysis. Thread-safe; hold one per subsystem (e.g. a
/// process-wide cache for cell characterization).
#[derive(Debug, Default)]
pub struct PatternCache {
    patterns: Mutex<HashMap<Vec<u64>, Arc<Pattern>>>,
    builds: AtomicU64,
}

impl PatternCache {
    /// Creates an empty cache.
    pub fn new() -> PatternCache {
        PatternCache::default()
    }

    /// Returns the pattern for the circuit's topology, analyzing it only
    /// if no same-topology circuit was seen before.
    pub fn get_or_analyze(&self, circuit: &MnaCircuit) -> Arc<Pattern> {
        let sig = signature_of(circuit);
        let mut map = self.patterns.lock().unwrap();
        if let Some(p) = map.get(&sig) {
            return Arc::clone(p);
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        let p = Arc::new(Pattern::analyze(circuit));
        map.insert(sig, Arc::clone(&p));
        p
    }

    /// How many symbolic analyses ran — stays flat while every request
    /// hits a known topology.
    pub fn symbolic_builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Number of distinct topologies seen.
    pub fn len(&self) -> usize {
        self.patterns.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::SourceWave;

    fn rc(ohms: f64, farads: f64) -> MnaCircuit {
        let mut c = MnaCircuit::new();
        c.vsource(1, 0, SourceWave::Dc(1.0));
        c.resistor(1, 2, ohms);
        c.capacitor(2, 0, farads);
        c
    }

    #[test]
    fn unknown_indexing() {
        let mut c = rc(1e3, 1e-12);
        c.inductor(2, 3, 1e-9);
        let p = Pattern::analyze(&c);
        assert_eq!(p.n_nodes(), 3);
        assert_eq!(p.n_vsources(), 1);
        assert_eq!(p.n_inductors(), 1);
        assert_eq!(p.n_capacitors(), 1);
        assert_eq!(p.dim(), 5); // 3 nodes + 1 source branch + 1 inductor branch
        assert_eq!(c.dim(), p.dim());
        assert!(!p.has_fets());
    }

    #[test]
    fn same_topology_corners_do_zero_symbolic_reanalysis() {
        let cache = PatternCache::new();
        // Ten "corners": same topology, different values.
        let first = cache.get_or_analyze(&rc(1e3, 1e-12));
        for k in 1..10 {
            let p = cache.get_or_analyze(&rc(1e3 * k as f64, 2e-12 * k as f64));
            assert!(Arc::ptr_eq(&first, &p), "corner {k} rebuilt the pattern");
        }
        assert_eq!(cache.symbolic_builds(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_topologies_get_their_own_pattern() {
        let cache = PatternCache::new();
        cache.get_or_analyze(&rc(1e3, 1e-12));
        let mut other = rc(1e3, 1e-12);
        other.resistor(2, 0, 5e3);
        cache.get_or_analyze(&other);
        assert_eq!(cache.symbolic_builds(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn matches_ignores_values_but_not_structure() {
        let p = Pattern::analyze(&rc(1e3, 1e-12));
        assert!(p.matches(&rc(9e9, 5e-15)));
        let mut other = rc(1e3, 1e-12);
        other.resistor(2, 0, 5e3);
        assert!(!p.matches(&other));
    }
}
