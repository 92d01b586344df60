//! Regenerates **Case study 1**: the FO4 technology comparison and the
//! inverter area gain, cross-validated with the transient simulator.

use cnfet_bench::compare_line;
use cnfet_core::area::inverter_area_gain;
use cnfet_core::DesignRules;
use cnfet_device::fo4::{cmos_fo4, gain_curve};
use cnfet_device::{CmosModel, CnfetModel, Polarity};
use cnfet_mna::measure::{propagation_delay, Edge};
use cnfet_mna::{Engine, Pattern, Probe, SourceWave, TranSpec};
use cnfet_spice::{to_mna, Circuit, Node};
use std::sync::Arc;

fn main() {
    let cnfet = CnfetModel::poly_65nm();
    let cmos = CmosModel::industrial_65nm();
    let rules = DesignRules::cnfet65();

    println!("Case study 1 — CNFET vs CMOS technology comparison at 65 nm\n");
    let curve = gain_curve(&cnfet, &cmos, 32);
    let peak = &curve[25];
    println!(
        "{}",
        compare_line("FO4 delay gain, 1 CNT", curve[0].delay_gain, 2.75, "x")
    );
    println!(
        "{}",
        compare_line("energy gain, 1 CNT", curve[0].energy_gain, 6.3, "x")
    );
    println!(
        "{}",
        compare_line("optimal CNT pitch", peak.pitch_nm, 5.0, "nm")
    );
    println!(
        "{}",
        compare_line("FO4 delay gain at optimum", peak.delay_gain, 4.2, "x")
    );
    println!(
        "{}",
        compare_line("energy gain at optimum", peak.energy_gain, 2.0, "x")
    );
    println!(
        "{}",
        compare_line(
            "inverter area gain (4λ)",
            inverter_area_gain(4, &rules),
            1.4,
            "x",
        )
    );
    for w in [6, 10] {
        println!(
            "  (area gain declines with width: {}λ → {:.2}x)",
            w,
            inverter_area_gain(w, &rules)
        );
    }

    // Cross-validation: simulate a 5-stage FO4 chain transistor-level and
    // measure the 3rd stage, exactly like the paper's setup.
    println!("\nTransient cross-validation (5-stage FO4 chain, 3rd stage):");
    let cnfet_delay = fo4_chain_delay_cnfet(&cnfet);
    let cmos_delay = fo4_chain_delay_cmos(&cmos);
    let analytic = cmos_fo4(&cmos).delay_s;
    println!(
        "  CMOS 3rd-stage delay: {:.2} ps (analytic estimator: {:.2} ps)",
        cmos_delay * 1e12,
        analytic * 1e12
    );
    println!(
        "  CNFET 3rd-stage delay (26 tubes): {:.2} ps",
        cnfet_delay * 1e12
    );
    println!(
        "  simulated delay gain: {:.2}x (analytic: {:.2}x)",
        cmos_delay / cnfet_delay,
        peak.delay_gain
    );
}

/// Builds a 5-stage inverter chain where each stage fans out to 4 copies
/// (modelled as 4x the gate load) and measures stage 3.
fn fo4_chain_delay_cnfet(model: &CnfetModel) -> f64 {
    let w = 130e-9;
    let n_dev = Arc::new(model.device(Polarity::N, 26, w));
    let p_dev = Arc::new(model.device(Polarity::P, 26, w));
    use cnfet_device::FetModel;
    let cin = n_dev.cgate() + p_dev.cgate();
    fo4_chain_delay(model.vdd, cin, |ckt, vin, vout, vdd| {
        ckt.add_fet(vout, vin, vdd, p_dev.clone());
        ckt.add_fet(vout, vin, Circuit::GROUND, n_dev.clone());
    })
}

fn fo4_chain_delay_cmos(model: &CmosModel) -> f64 {
    let wn = model.wmin_n;
    let wp = model.paired_pmos_width(wn);
    let n_dev = Arc::new(model.device(Polarity::N, wn));
    let p_dev = Arc::new(model.device(Polarity::P, wp));
    use cnfet_device::FetModel;
    let cin = n_dev.cgate() + p_dev.cgate();
    fo4_chain_delay(model.vdd, cin, |ckt, vin, vout, vdd| {
        ckt.add_fet(vout, vin, vdd, p_dev.clone());
        ckt.add_fet(vout, vin, Circuit::GROUND, n_dev.clone());
    })
}

fn fo4_chain_delay(
    vdd_v: f64,
    cin: f64,
    mut add_inverter: impl FnMut(&mut Circuit, Node, Node, Node),
) -> f64 {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.add_vsource(vdd, Circuit::GROUND, SourceWave::Dc(vdd_v));
    let vin = ckt.node("n0");
    ckt.add_vsource(
        vin,
        Circuit::GROUND,
        SourceWave::Pulse {
            v0: 0.0,
            v1: vdd_v,
            delay: 50e-12,
            rise: 5e-12,
            fall: 5e-12,
            width: 2e-9,
            period: 0.0,
        },
    );
    let mut nodes = vec![vin];
    for i in 1..=5 {
        let n = ckt.node(&format!("n{i}"));
        nodes.push(n);
    }
    for i in 0..5 {
        add_inverter(&mut ckt, nodes[i], nodes[i + 1], vdd);
        // FO4: each stage drives 3 extra copies of the next stage's input.
        ckt.add_load(nodes[i + 1], 3.0 * cin);
    }
    let mna = to_mna(&ckt);
    let tran = Engine::new(Arc::new(Pattern::analyze(mna)))
        .tran(mna, &TranSpec::new(1e-12, 1e-9).max_halvings(0))
        .expect("fo4 chain converges");
    let (p_in, p_out) = (Probe::Node(nodes[2].0), Probe::Node(nodes[3].0));
    propagation_delay(&tran, p_in, p_out, vdd_v, Edge::Any, 0.0).expect("stage 3 switches")
}
