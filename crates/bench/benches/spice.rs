//! Bench: transient-simulation throughput (the Figure 7 / Case-study hot
//! path), one-load cell characterizations (the library and macro slice
//! hot path: a 2 ps grid over 4.4 ns, mostly settled), and linear deck
//! transients on uniform 41-section RC and RLC ladders (dim 43 and 63,
//! 2,000 steps of 2 ps: the `cold_timing` deck shapes).

use cnfet_bench::harness::Harness;
use cnfet_core::{Scheme, StdCellKind};
use cnfet_device::{CnfetModel, Polarity};
use cnfet_dk::{characterize_cell_at, fingered_layout, CharCorner, DesignKit, LibCell};
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

/// A pulse-driven ladder of `sections` series elements, each followed
/// by a shunt capacitor; with `rlc`, every odd section is an inductor.
fn ladder(sections: usize, rlc: bool) -> Circuit {
    let mut deck = String::from("V1 n0 0 PULSE(0 1 1e-10 1e-11 1e-11 2e-9 4e-9)\n");
    for i in 0..sections {
        let next = i + 1;
        if rlc && i % 2 == 1 {
            deck.push_str(&format!("L{i} n{i} n{next} 1n\n"));
        } else {
            deck.push_str(&format!("R{i} n{i} n{next} 100\n"));
        }
        deck.push_str(&format!("C{i} n{next} 0 10f\n"));
    }
    deck.push_str(".end\n");
    Circuit::from_spice(&deck).unwrap()
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
    for (name, rlc) in [
        ("tran_ladder_rc41_2000steps", false),
        ("tran_ladder_rlc41_2000steps", true),
    ] {
        let ckt = ladder(41, rlc);
        h.bench(name, 20, || transient(&ckt, 2e-12, 4e-9));
    }
    let kit = DesignKit::cnfet65();
    for (name, kind, strength, load_f) in [
        ("characterize_inv9_1load", StdCellKind::Inv, 9, 2e-15),
        ("characterize_aoi31_1load", StdCellKind::Aoi31, 1, 1e-15),
    ] {
        let layout = fingered_layout(kind, strength, &kit, Scheme::Scheme1).unwrap();
        let cell = LibCell::from_layout(
            &kit,
            kind,
            strength,
            Arc::new(layout),
            kit.tubes_per_4lambda,
        );
        h.bench(name, 20, || {
            characterize_cell_at(&kit, &cell, &[load_f], CharCorner::nominal(&kit)).unwrap()
        });
    }
    h.finish();
}
