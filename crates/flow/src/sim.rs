//! Transistor-level simulation of placed gate netlists with wire loads —
//! the engine behind Case study 2's delay/energy comparison.

use crate::netlist::Netlist;
use crate::place::Placement;
use cnfet_core::{SizedNetwork, Sizing};
use cnfet_device::{FetModel, Polarity};
use cnfet_dk::DesignKit;
use cnfet_logic::{NodeKind, PullGraph};
use cnfet_mna::measure::{energy_from_supply, propagation_delay, Edge};
use cnfet_mna::{Engine, MnaError, Pattern, Probe, SourceWave, TranSpec, MAX_DENSE_DIM};
use cnfet_spice::{to_mna, Circuit, Node};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Target technology for simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tech {
    /// CNFET design kit at the optimal pitch.
    Cnfet,
    /// The industrial-65nm-like CMOS baseline.
    Cmos,
}

/// Metal wire capacitance per λ of estimated length (0.2 fF/µm at λ =
/// 32.5 nm), identical for both technologies.
pub const WIRE_CAP_PER_LAMBDA: f64 = 0.2e-15 * 32.5e-3;

/// Simulation result of one netlist run.
#[derive(Clone, Debug)]
pub struct NetlistMetrics {
    /// Propagation delay from the toggled input to the watched output, s.
    pub delay_s: f64,
    /// Energy per full switching cycle drawn from the supply, J.
    pub energy_j: f64,
}

/// Simulates a placed netlist: input `toggle_in` gets a full-cycle pulse,
/// other primary inputs are tied to `tie_values`, and delay is measured to
/// `watch_out`.
///
/// # Errors
///
/// Returns [`MnaError`] when the netlist is too large for the dense
/// solver or the transient fails.
///
/// # Panics
///
/// Panics if `toggle_in`/`watch_out` are not primary ports of the netlist.
pub fn simulate_netlist(
    netlist: &Netlist,
    placement: &Placement,
    tech: Tech,
    toggle_in: &str,
    tie_values: &BTreeMap<String, bool>,
    watch_out: &str,
) -> Result<NetlistMetrics, MnaError> {
    simulate_netlist_with(
        &DesignKit::cnfet65(),
        netlist,
        placement,
        tech,
        toggle_in,
        tie_values,
        watch_out,
    )
}

/// [`simulate_netlist`] against an explicit design kit (device models,
/// supply voltage, base widths) — the form `cnfet::Session` uses so a
/// custom kit flows through simulation too.
///
/// # Errors
///
/// Returns [`MnaError::TooLarge`] when the expanded netlist has more
/// than [`MAX_DENSE_DIM`] unknowns, before the engine is built, and
/// [`MnaError`] when the transient fails.
///
/// # Panics
///
/// Panics if `toggle_in`/`watch_out` are not primary ports of the netlist.
pub fn simulate_netlist_with(
    kit: &DesignKit,
    netlist: &Netlist,
    placement: &Placement,
    tech: Tech,
    toggle_in: &str,
    tie_values: &BTreeMap<String, bool>,
    watch_out: &str,
) -> Result<NetlistMetrics, MnaError> {
    let vdd_v = kit.cnfet.vdd;
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let supply = ckt.add_vsource(vdd, Circuit::GROUND, SourceWave::Dc(vdd_v));

    let period = 6e-9;
    let vin = ckt.node(toggle_in);
    ckt.add_vsource(
        vin,
        Circuit::GROUND,
        SourceWave::Pulse {
            v0: 0.0,
            v1: vdd_v,
            delay: 0.5e-9,
            rise: 10e-12,
            fall: 10e-12,
            width: period / 2.0,
            period,
        },
    );
    for (net, value) in tie_values {
        let node = ckt.node(net);
        ckt.add_vsource(
            node,
            Circuit::GROUND,
            SourceWave::Dc(if *value { vdd_v } else { 0.0 }),
        );
    }

    // Wire load per net from the placement's per-net HPWL.
    for net in netlist.nets() {
        let node = ckt.node(&net);
        let wl = placement.net_hpwl(netlist, &net);
        ckt.add_load(node, wl * WIRE_CAP_PER_LAMBDA);
    }

    // Expand every instance to transistors.
    for inst in &netlist.instances {
        let (pdn, pun, _) = inst.kind.networks();
        let out = ckt.node(&inst.output);
        let inputs: Vec<Node> = inst.inputs.iter().map(|n| ckt.node(n)).collect();
        add_network(
            kit,
            &mut ckt,
            tech,
            &pdn,
            Polarity::N,
            Circuit::GROUND,
            out,
            &inputs,
            inst,
        );
        add_network(
            kit,
            &mut ckt,
            tech,
            &pun,
            Polarity::P,
            vdd,
            out,
            &inputs,
            inst,
        );
    }

    let out_node = ckt.node(watch_out);
    let mna = to_mna(&ckt);
    // The engine's dense buffers are sized from the netlist: refuse it
    // before they are allocated.
    let dim = mna.dim();
    if dim > MAX_DENSE_DIM {
        return Err(MnaError::TooLarge { dim });
    }
    let mut engine = Engine::new(Arc::new(Pattern::analyze(mna)));
    // A fixed uniform step grid: no local halving.
    let spec = TranSpec::new(4e-12, period * 1.05).max_halvings(0);
    let tran = engine.tran(mna, &spec)?;
    let (p_in, p_out) = (Probe::Node(vin.0), Probe::Node(out_node.0));
    let d1 = propagation_delay(&tran, p_in, p_out, vdd_v, Edge::Rising, 0.0);
    let d2 = propagation_delay(
        &tran,
        p_in,
        p_out,
        vdd_v,
        Edge::Falling,
        0.5e-9 + period / 2.0 - 0.1e-9,
    );
    let delay = match (d1, d2) {
        (Some(a), Some(b)) => (a + b) / 2.0,
        (Some(a), None) | (None, Some(a)) => a,
        (None, None) => 0.0,
    };
    let energy = energy_from_supply(
        &tran,
        Probe::SourceCurrent(supply),
        vdd_v,
        0.0,
        period * 1.05,
    );
    Ok(NetlistMetrics {
        delay_s: delay,
        energy_j: energy,
    })
}

#[allow(clippy::too_many_arguments)]
fn add_network(
    kit: &DesignKit,
    ckt: &mut Circuit,
    tech: Tech,
    net: &cnfet_logic::SpNetwork,
    polarity: Polarity,
    source: Node,
    out: Node,
    inputs: &[Node],
    inst: &crate::netlist::GateInst,
) {
    let sized = SizedNetwork::from_network(
        net,
        Sizing::Matched {
            base_lambda: kit.base_width_lambda,
        },
    );
    let widths = sized.widths();
    let graph = PullGraph::from_network(net);
    let mut nodes = Vec::with_capacity(graph.node_count());
    for n in 0..graph.node_count() {
        let node = match graph.kind(cnfet_logic::NodeId(n as u32)) {
            NodeKind::Source => source,
            NodeKind::Drain => out,
            NodeKind::Internal => ckt.node(&format!("{}_{polarity:?}_i{n}", inst.name)),
        };
        nodes.push(node);
    }
    for (ei, e) in graph.edges().iter().enumerate() {
        let w_lambda =
            widths.get(ei).copied().unwrap_or(kit.base_width_lambda) * inst.strength as i64;
        let width_m = w_lambda as f64 * 32.5e-9;
        let model: Arc<dyn FetModel + Send + Sync> = match tech {
            Tech::Cnfet => {
                let tubes = (kit.tubes_per_4lambda as f64 * w_lambda as f64
                    / kit.base_width_lambda as f64)
                    .round()
                    .max(1.0) as u32;
                Arc::new(kit.cnfet.device(polarity, tubes, width_m))
            }
            Tech::Cmos => {
                let w = match polarity {
                    Polarity::N => width_m,
                    Polarity::P => kit.cmos.paired_pmos_width(width_m),
                };
                Arc::new(kit.cmos.device(polarity, w))
            }
        };
        ckt.add_fet(
            nodes[e.b.0 as usize],
            inputs[e.gate.index()],
            nodes[e.a.0 as usize],
            model,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fa::full_adder;
    use crate::place::{place_cmos_with, place_cnfet_with};
    use cnfet_core::Scheme;
    use cnfet_dk::CellLibrary;

    fn lib(scheme: Scheme) -> CellLibrary {
        cnfet_dk::build_library(&DesignKit::cnfet65(), scheme).unwrap()
    }

    fn fa_ties() -> BTreeMap<String, bool> {
        // Toggle `a` with b=1, cin=0: sum = !a (toggles), carry = a.
        let mut ties = BTreeMap::new();
        ties.insert("b".to_string(), true);
        ties.insert("cin".to_string(), false);
        ties
    }

    #[test]
    fn fa_simulates_in_both_technologies() {
        let fa = full_adder();
        let l1 = lib(Scheme::Scheme1);
        let p = place_cnfet_with(&fa, &l1);
        let cnfet = simulate_netlist(&fa, &p, Tech::Cnfet, "a", &fa_ties(), "carry").unwrap();
        let pc = place_cmos_with(&DesignKit::cnfet65(), &fa, &l1);
        let cmos = simulate_netlist(&fa, &pc, Tech::Cmos, "a", &fa_ties(), "carry").unwrap();
        assert!(cnfet.delay_s > 0.0 && cmos.delay_s > 0.0);
        assert!(cnfet.energy_j > 0.0 && cmos.energy_j > 0.0);
        // Case study 2's direction: CNFET faster and lower energy.
        assert!(cmos.delay_s > cnfet.delay_s);
        assert!(cmos.energy_j > cnfet.energy_j);
    }

    #[test]
    fn fa_gains_near_case_study_2() {
        // Paper: ~3.5x average delay and ~1.5x energy improvement. The
        // shape requirement: gains well above 1 and below the inverter's
        // 4.2x/2.0x (wires dilute CNFET's advantage).
        let fa = full_adder();
        let l1 = lib(Scheme::Scheme1);
        let p = place_cnfet_with(&fa, &l1);
        let pc = place_cmos_with(&DesignKit::cnfet65(), &fa, &l1);
        let cnfet = simulate_netlist(&fa, &p, Tech::Cnfet, "a", &fa_ties(), "sum").unwrap();
        let cmos = simulate_netlist(&fa, &pc, Tech::Cmos, "a", &fa_ties(), "sum").unwrap();
        let delay_gain = cmos.delay_s / cnfet.delay_s;
        let energy_gain = cmos.energy_j / cnfet.energy_j;
        assert!(
            (2.0..4.5).contains(&delay_gain),
            "delay gain {delay_gain} out of plausible range"
        );
        assert!(
            (1.1..2.2).contains(&energy_gain),
            "energy gain {energy_gain} out of plausible range"
        );
    }
}
