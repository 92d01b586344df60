//! Bench: transient-simulation throughput (the Figure 7 / Case-study hot
//! path).

use cnfet_bench::harness::Harness;
use cnfet_device::{CnfetModel, Polarity};
use cnfet_mna::{Engine, Pattern, SourceWave, TranSpec, Waveform};
use cnfet_spice::{to_mna, Circuit};
use std::sync::Arc;

fn inverter_chain(stages: usize) -> Circuit {
    let model = CnfetModel::poly_65nm();
    let nd = Arc::new(model.device(Polarity::N, 26, 130e-9));
    let pd = Arc::new(model.device(Polarity::P, 26, 130e-9));
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.add_vsource(vdd, Circuit::GROUND, SourceWave::Dc(1.0));
    let vin = ckt.node("n0");
    ckt.add_vsource(
        vin,
        Circuit::GROUND,
        SourceWave::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 20e-12,
            rise: 5e-12,
            fall: 5e-12,
            width: 200e-12,
            period: 0.0,
        },
    );
    let mut prev = vin;
    for i in 1..=stages {
        let n = ckt.node(&format!("n{i}"));
        ckt.add_fet(n, prev, vdd, pd.clone());
        ckt.add_fet(n, prev, Circuit::GROUND, nd.clone());
        prev = n;
    }
    ckt
}

/// One cold fixed-grid transient: symbolic analysis, engine allocation
/// and every step.
fn transient(ckt: &Circuit, dt: f64, t_stop: f64) -> Waveform {
    let mna = to_mna(ckt);
    let mut engine = Engine::new(Arc::new(Pattern::analyze(mna)));
    engine
        .tran(mna, &TranSpec::new(dt, t_stop).max_halvings(0))
        .unwrap()
}

fn main() {
    let mut h = Harness::new("spice");
    let ckt5 = inverter_chain(5);
    h.bench("transient_inv5_500steps", 20, || {
        transient(&ckt5, 1e-12, 0.5e-9)
    });
    let ckt15 = inverter_chain(15);
    h.bench("transient_inv15_250steps", 20, || {
        transient(&ckt15, 2e-12, 0.5e-9)
    });
    h.finish();
}
