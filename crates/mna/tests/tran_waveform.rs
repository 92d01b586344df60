//! Waveform-shape properties of `Engine::tran` over seeded random
//! circuits: whatever the circuit, step or method, the time axis starts
//! at 0, strictly increases and ends exactly at `t_stop`, and every probe
//! carries one sample per timepoint.

use cnfet_device::{CnfetModel, FetModel, Polarity};
use cnfet_mna::{Engine, Method, MnaCircuit, Pattern, Probe, SourceWave, TranSpec, Waveform};
use cnfet_rng::rngs::StdRng;
use cnfet_rng::{Rng, SeedableRng};
use std::sync::Arc;

/// A random connected circuit: a 1 V supply on node 1, a DC, pulse or
/// PWL input on node 2, and 1–4 further nodes each tied to an earlier
/// node by a resistor (so none floats), with random capacitors, an
/// optional RL branch and up to three CNFETs.
fn random_circuit(rng: &mut StdRng) -> MnaCircuit {
    let mut c = MnaCircuit::new();
    c.vsource(1, 0, SourceWave::Dc(1.0));
    let input = match rng.gen_range(0..3u32) {
        0 => SourceWave::Dc(rng.gen_range(0.0..1.0)),
        1 => SourceWave::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: rng.gen_range(0.0..200e-12),
            rise: rng.gen_range(1e-12..30e-12),
            fall: rng.gen_range(1e-12..30e-12),
            width: rng.gen_range(20e-12..300e-12),
            period: if rng.gen_range(0..2u32) == 0 {
                0.0
            } else {
                600e-12
            },
        },
        _ => SourceWave::Pwl(vec![
            (0.0, 0.0),
            (rng.gen_range(10e-12..400e-12), 1.0),
            (rng.gen_range(400e-12..900e-12), 0.2),
        ]),
    };
    c.vsource(2, 0, input);
    let nodes = rng.gen_range(3..=6usize);
    for n in 3..=nodes {
        let to = rng.gen_range(1..n);
        c.resistor(n, to, rng.gen_range(100.0..10e3));
        c.capacitor(n, 0, rng.gen_range(1e-15..1e-12));
        if rng.gen_range(0..3u32) == 0 {
            c.capacitor(n, rng.gen_range(1..n), rng.gen_range(1e-16..1e-13));
        }
    }
    if rng.gen_range(0..2u32) == 0 {
        let (a, mid) = (rng.gen_range(1..=nodes), nodes + 1);
        c.inductor(a, mid, rng.gen_range(0.1e-9..2e-9));
        c.resistor(mid, 0, rng.gen_range(50.0..5e3));
    }
    let model = CnfetModel::poly_65nm();
    for _ in 0..rng.gen_range(0..=3u32) {
        let polarity = if rng.gen_range(0..2u32) == 0 {
            Polarity::N
        } else {
            Polarity::P
        };
        let fet: Arc<dyn FetModel + Send + Sync> =
            Arc::new(model.device(polarity, rng.gen_range(1..=8u32), 130e-9));
        let d = rng.gen_range(3..=nodes);
        let s = if polarity == Polarity::N { 0 } else { 1 };
        c.fet(d, rng.gen_range(1..=nodes), s, fet);
    }
    c
}

fn random_spec(rng: &mut StdRng) -> TranSpec {
    let dt = rng.gen_range(0.5e-12..5e-12);
    // Rarely a multiple of `dt`: most runs end on a clamped short step.
    let t_stop = dt * rng.gen_range(50.0..400.0);
    let method = if rng.gen_range(0..2u32) == 0 {
        Method::BackwardEuler
    } else {
        Method::Trapezoidal
    };
    TranSpec::new(dt, t_stop).method(method)
}

/// Every probe the pattern defines: ground, each node, each source and
/// inductor branch.
fn probes(pattern: &Pattern) -> Vec<Probe> {
    (0..=pattern.n_nodes())
        .map(Probe::Node)
        .chain((0..pattern.n_vsources()).map(Probe::SourceCurrent))
        .chain((0..pattern.n_inductors()).map(Probe::InductorCurrent))
        .collect()
}

fn check_shape(wave: &Waveform, pattern: &Pattern, spec: &TranSpec, seed: u64) {
    let time = wave.time();
    assert!(time.len() > 1, "seed {seed}: only {} samples", time.len());
    assert_eq!(time[0], 0.0, "seed {seed}: time axis must start at 0");
    for w in time.windows(2) {
        assert!(w[1] > w[0], "seed {seed}: time {} after {}", w[1], w[0]);
    }
    assert_eq!(
        *time.last().unwrap(),
        spec.t_stop,
        "seed {seed}: last sample must be t_stop"
    );
    assert_eq!(wave.len(), time.len());
    for probe in probes(pattern) {
        assert_eq!(
            wave.probe(probe).len(),
            time.len(),
            "seed {seed}: {probe:?} length"
        );
    }
    // Nominal steps plus at most the halvings' interior points.
    let steps = spec.nominal_steps().unwrap();
    assert!(time.len() > steps, "seed {seed}: fewer samples than steps");
}

#[test]
fn time_axis_and_probes_keep_their_shape_on_random_circuits() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_circuit(&mut rng);
        let spec = random_spec(&mut rng);
        let pattern = Arc::new(Pattern::analyze(&circuit));
        let mut engine = Engine::new(Arc::clone(&pattern));
        let wave = engine
            .tran(&circuit, &spec)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        check_shape(&wave, &pattern, &spec, seed);
        let stats = engine.stats();
        assert!(
            stats.repeated_steps < wave.len() as u64,
            "seed {seed}: {stats:?}"
        );
    }
}

/// A fixed grid whose `t_stop` is an exact multiple of `dt` ends on a full
/// step, not on a sliver.
#[test]
fn an_exact_multiple_ends_on_a_full_step() {
    let dt = 2f64.powi(-39);
    for seed in 100..112u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_circuit(&mut rng);
        let spec = TranSpec::new(dt, 256.0 * dt).max_halvings(0);
        let pattern = Arc::new(Pattern::analyze(&circuit));
        let wave = Engine::new(Arc::clone(&pattern))
            .tran(&circuit, &spec)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        check_shape(&wave, &pattern, &spec, seed);
        assert_eq!(wave.len(), 257, "seed {seed}");
    }
}
