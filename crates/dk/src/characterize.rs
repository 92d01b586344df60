//! Spice-based cell characterization: delay vs load and switching energy.
//!
//! Measurements run on the [`cnfet_mna`] engine: every cell circuit is
//! built as an [`cnfet_mna::MnaCircuit`] under named nodes, its symbolic
//! [`cnfet_mna::Pattern`] comes from a process-wide [`PatternCache`], and one
//! [`cnfet_mna::Engine`] (with its factorization buffers and recorded
//! pivot order) is reused across the load sweep. Since variation corners
//! only change element *values*, repeated same-cell characterizations —
//! across loads, corners and sweep points — do **zero** symbolic
//! re-analysis.
//!
//! Each load runs a fixed 2 ps backward-Euler grid over 1.1 input
//! periods (2,200 steps), most of it with the output settled. The engine
//! records a step whose inputs repeat those of an exact fixed-point
//! step without solving it ([`Engine::tran`]), so those stretches cost
//! a source evaluation per step, and every delay and energy is
//! bit-identical to solving each step. An inverter settles to the bit
//! within a few steps of each edge; a series stack's internal nodes
//! creep on `GMIN` below threshold and keep being solved. Stepping
//! adaptively or stopping at the last measurement would cut the grid
//! itself, but changes the numbers.

use crate::kit::DesignKit;
#[cfg(test)]
use crate::libgen::build_library;
use crate::libgen::LibCell;
use cnfet_core::SizedNetwork;
use cnfet_core::Sizing;
use cnfet_device::Polarity;
use cnfet_logic::{NodeKind, PullGraph, SpNetwork};
use cnfet_mna::measure::{self, Edge};
use cnfet_mna::{Engine, MnaError, PatternCache, Probe, SourceWave, TranSpec};
use cnfet_spice::{to_mna, Circuit, Node};
use std::sync::{Arc, OnceLock};

/// The process-wide pattern cache shared by all characterization calls.
fn global_patterns() -> &'static PatternCache {
    static CACHE: OnceLock<PatternCache> = OnceLock::new();
    CACHE.get_or_init(PatternCache::new)
}

/// NLDM-style load-indexed timing data for one cell arc.
#[derive(Clone, Debug)]
pub struct TimingTable {
    /// Output loads, farads.
    pub loads_f: Vec<f64>,
    /// Average propagation delay per load, seconds.
    pub delays_s: Vec<f64>,
    /// Switching energy per full output cycle at the first load, joules.
    pub energy_j: f64,
}

impl TimingTable {
    /// Linear-interpolated delay at a load.
    pub fn delay_at(&self, load_f: f64) -> f64 {
        if self.loads_f.is_empty() {
            return 0.0;
        }
        if load_f <= self.loads_f[0] {
            return self.delays_s[0];
        }
        for i in 1..self.loads_f.len() {
            if load_f <= self.loads_f[i] {
                let t = (load_f - self.loads_f[i - 1]) / (self.loads_f[i] - self.loads_f[i - 1]);
                return self.delays_s[i - 1] + t * (self.delays_s[i] - self.delays_s[i - 1]);
            }
        }
        *self.delays_s.last().expect("nonempty")
    }
}

/// A characterization corner: process-variation overrides applied on top
/// of a kit's nominal CNT technology.
///
/// * `tubes_per_4lambda` replaces [`DesignKit::tubes_per_4lambda`] — CNT
///   *count/density* variation (fewer grown tubes mean less drive and
///   less gate capacitance, at a wider effective pitch).
/// * `pitch_scale` multiplies the effective device width seen by the
///   screening model — CNT *pitch/placement spread* variation (tubes
///   bunched tighter than drawn screen each other harder; `1.0` is the
///   evenly-pitched nominal). The drain-strip parasitic scales with it
///   too, as the strip must span the grown spread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CharCorner {
    /// CNTs per 4λ of device width at this corner.
    pub tubes_per_4lambda: u32,
    /// Multiplier on the effective (screening) device width; `1.0` =
    /// nominal.
    pub pitch_scale: f64,
}

impl CharCorner {
    /// The kit's nominal technology point.
    pub fn nominal(kit: &DesignKit) -> CharCorner {
        CharCorner {
            tubes_per_4lambda: kit.tubes_per_4lambda,
            pitch_scale: 1.0,
        }
    }
}

/// Builds the transistor-level circuit of a cell and measures delay from
/// its first input pin to the output across the given loads.
///
/// Side inputs are tied to the sensitizing values that make the output
/// toggle with the probed input.
///
/// # Errors
///
/// Returns [`MnaError`] when a transient fails to converge.
pub fn characterize_cell(
    kit: &DesignKit,
    cell: &LibCell,
    loads_f: &[f64],
) -> Result<TimingTable, MnaError> {
    characterize_cell_at(kit, cell, loads_f, CharCorner::nominal(kit))
}

/// [`characterize_cell`] at an explicit variation corner: the same
/// transient measurement with the corner's tube count and pitch spread
/// substituted for the kit's nominal technology. The nominal corner
/// reproduces `characterize_cell` exactly.
///
/// # Errors
///
/// Returns [`MnaError`] when a transient fails to converge.
pub fn characterize_cell_at(
    kit: &DesignKit,
    cell: &LibCell,
    loads_f: &[f64],
    corner: CharCorner,
) -> Result<TimingTable, MnaError> {
    characterize_with_cache(kit, cell, loads_f, corner, global_patterns(), false)
        .map(|(table, _)| table)
}

/// [`characterize_cell_at`] additionally returning the first-load
/// transient rendered as a deterministic waveform table (`time in out
/// i(vdd)`), for callers that retain waveforms alongside metrics.
///
/// # Errors
///
/// Returns [`MnaError`] when a transient fails to converge.
pub fn characterize_cell_traces(
    kit: &DesignKit,
    cell: &LibCell,
    loads_f: &[f64],
    corner: CharCorner,
) -> Result<(TimingTable, Option<String>), MnaError> {
    characterize_with_cache(kit, cell, loads_f, corner, global_patterns(), true)
}

/// The characterization engine room, parameterized over the pattern cache
/// (tests pass a local cache to observe symbolic-analysis counts).
fn characterize_with_cache(
    kit: &DesignKit,
    cell: &LibCell,
    loads_f: &[f64],
    corner: CharCorner,
    patterns: &PatternCache,
    retain_waveform: bool,
) -> Result<(TimingTable, Option<String>), MnaError> {
    let (pdn, pun, vars) = cell.kind.networks();
    let n_inputs = vars.len();
    let side_mask = sensitizing_mask(&pdn, n_inputs);

    let mut delays = Vec::with_capacity(loads_f.len());
    let mut energy = 0.0;
    let mut waveform_table = None;
    let mut engine: Option<Engine> = None;
    let period = 4e-9;
    for (li, &load) in loads_f.iter().enumerate() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        let vin = ckt.node("in");
        let supply = ckt.add_vsource(vdd, Circuit::GROUND, SourceWave::Dc(kit.cnfet.vdd));
        ckt.add_vsource(
            vin,
            Circuit::GROUND,
            SourceWave::Pulse {
                v0: 0.0,
                v1: kit.cnfet.vdd,
                delay: 0.2e-9,
                rise: 10e-12,
                fall: 10e-12,
                width: period / 2.0,
                period,
            },
        );
        // Side input rails.
        let mut input_nodes = Vec::with_capacity(n_inputs);
        for i in 0..n_inputs {
            if i == 0 {
                input_nodes.push(vin);
            } else {
                let node = ckt.node(&format!("side{i}"));
                let v = if side_mask >> i & 1 == 1 {
                    kit.cnfet.vdd
                } else {
                    0.0
                };
                ckt.add_vsource(node, Circuit::GROUND, SourceWave::Dc(v));
                input_nodes.push(node);
            }
        }
        instantiate_network(
            kit,
            &mut ckt,
            &pdn,
            Polarity::N,
            Circuit::GROUND,
            out,
            &input_nodes,
            cell.strength,
            corner,
        );
        instantiate_network(
            kit,
            &mut ckt,
            &pun,
            Polarity::P,
            vdd,
            out,
            &input_nodes,
            cell.strength,
            corner,
        );
        ckt.add_load(out, load);

        // The symbolic pattern comes from the cache (hit on every
        // same-topology load/corner) and the engine — buffers, pivot
        // order — carries over whenever the pattern is the same Arc.
        let mna = to_mna(&ckt);
        let pattern = patterns.get_or_analyze(mna);
        let engine = match &mut engine {
            Some(e) if Arc::ptr_eq(e.pattern(), &pattern) => e,
            slot => slot.insert(Engine::new(pattern)),
        };
        let wave = engine.tran(mna, &TranSpec::new(2e-12, period * 1.1))?;

        let (p_in, p_out) = (Probe::Node(vin.0), Probe::Node(out.0));
        let d1 = measure::propagation_delay(&wave, p_in, p_out, kit.cnfet.vdd, Edge::Rising, 0.0);
        let d2 = measure::propagation_delay(
            &wave,
            p_in,
            p_out,
            kit.cnfet.vdd,
            Edge::Falling,
            0.2e-9 + period / 2.0 - 50e-12,
        );
        let avg = match (d1, d2) {
            (Some(a), Some(b)) => (a + b) / 2.0,
            (Some(a), None) | (None, Some(a)) => a,
            (None, None) => 0.0,
        };
        delays.push(avg);
        if li == 0 {
            energy = measure::energy_from_supply(
                &wave,
                Probe::SourceCurrent(supply),
                kit.cnfet.vdd,
                0.0,
                period * 1.05,
            );
            if retain_waveform {
                waveform_table = Some(wave.render_table(&[
                    ("in", p_in),
                    ("out", p_out),
                    ("i(vdd)", Probe::SourceCurrent(supply)),
                ]));
            }
        }
    }

    Ok((
        TimingTable {
            loads_f: loads_f.to_vec(),
            delays_s: delays,
            energy_j: energy,
        },
        waveform_table,
    ))
}

/// Chooses side-input values such that the output toggles with input 0.
fn sensitizing_mask(pdn: &SpNetwork, n_inputs: usize) -> u64 {
    for m in 0..1u64 << n_inputs.saturating_sub(1) {
        let mask = m << 1;
        if pdn.conducts(mask | 1) && !pdn.conducts(mask) {
            return mask;
        }
    }
    0
}

/// Adds one pull network's FETs between `source` and `out`, sized at the
/// given variation corner.
#[allow(clippy::too_many_arguments)]
fn instantiate_network(
    kit: &DesignKit,
    ckt: &mut Circuit,
    net: &SpNetwork,
    polarity: Polarity,
    source: Node,
    out: Node,
    inputs: &[Node],
    strength: u8,
    corner: CharCorner,
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
            NodeKind::Internal => ckt.node(&format!("{polarity:?}_int{n}_{}", ckt.node_count())),
        };
        nodes.push(node);
    }
    for (ei, e) in graph.edges().iter().enumerate() {
        let w_lambda = widths.get(ei).copied().unwrap_or(kit.base_width_lambda);
        let width_m = w_lambda as f64 * 32.5e-9 * corner.pitch_scale;
        let tubes = (corner.tubes_per_4lambda as f64 * w_lambda as f64
            / kit.base_width_lambda as f64)
            .round()
            .max(1.0) as u32;
        let dev = kit.cnfet.device(polarity, tubes * strength as u32, width_m);
        ckt.add_fet(
            nodes[e.b.0 as usize],
            inputs[e.gate.index()],
            nodes[e.a.0 as usize],
            Arc::new(dev),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnfet_core::Scheme;

    #[test]
    fn inverter_delay_increases_with_load() {
        let kit = DesignKit::cnfet65();
        let lib = build_library(&kit, Scheme::Scheme1).unwrap();
        let inv = lib.cell("INV_X1").unwrap();
        let table = characterize_cell(&kit, inv, &[0.2e-15, 1e-15, 4e-15]).unwrap();
        assert!(table.delays_s[0] > 0.0);
        assert!(table.delays_s[2] > table.delays_s[1]);
        assert!(table.delays_s[1] > table.delays_s[0]);
        assert!(table.energy_j > 0.0);
    }

    #[test]
    fn nand2_characterizes() {
        let kit = DesignKit::cnfet65();
        let lib = build_library(&kit, Scheme::Scheme1).unwrap();
        let nand = lib.cell("NAND2_X1").unwrap();
        let table = characterize_cell(&kit, nand, &[1e-15]).unwrap();
        assert!(table.delays_s[0] > 0.0 && table.delays_s[0] < 1e-9);
    }

    #[test]
    fn corner_variation_moves_the_metrics() {
        let kit = DesignKit::cnfet65();
        let lib = build_library(&kit, Scheme::Scheme1).unwrap();
        let inv = lib.cell("INV_X1").unwrap();
        let loads = [1e-15];
        let nominal = characterize_cell_at(&kit, inv, &loads, CharCorner::nominal(&kit)).unwrap();
        let explicit = characterize_cell(&kit, inv, &loads).unwrap();
        assert_eq!(
            nominal.delays_s, explicit.delays_s,
            "nominal corner reproduces characterize_cell"
        );

        // Fewer tubes = less drive = slower under the same external load.
        let sparse = characterize_cell_at(
            &kit,
            inv,
            &loads,
            CharCorner {
                tubes_per_4lambda: 8,
                pitch_scale: 1.0,
            },
        )
        .unwrap();
        assert!(
            sparse.delays_s[0] > nominal.delays_s[0],
            "sparse {} vs nominal {}",
            sparse.delays_s[0],
            nominal.delays_s[0]
        );

        // Tubes bunched tighter than drawn screen each other harder:
        // per-tube drive collapses, so the corner is slower as well.
        let bunched = characterize_cell_at(
            &kit,
            inv,
            &loads,
            CharCorner {
                tubes_per_4lambda: kit.tubes_per_4lambda,
                pitch_scale: 0.5,
            },
        )
        .unwrap();
        assert!(bunched.delays_s[0] > nominal.delays_s[0]);
    }

    #[test]
    fn repeated_corners_do_zero_symbolic_reanalysis() {
        let kit = DesignKit::cnfet65();
        let lib = build_library(&kit, Scheme::Scheme1).unwrap();
        let inv = lib.cell("INV_X1").unwrap();
        let loads = [0.5e-15, 2e-15];
        let patterns = PatternCache::new();
        // Two loads, same topology: one symbolic analysis total.
        characterize_with_cache(
            &kit,
            inv,
            &loads,
            CharCorner::nominal(&kit),
            &patterns,
            false,
        )
        .unwrap();
        assert_eq!(patterns.symbolic_builds(), 1, "loads share one pattern");
        // Further corners only change values — still one analysis.
        for tubes in [8, 10, 12, 26] {
            let corner = CharCorner {
                tubes_per_4lambda: tubes,
                pitch_scale: 0.9,
            };
            characterize_with_cache(&kit, inv, &loads, corner, &patterns, false).unwrap();
        }
        assert_eq!(
            patterns.symbolic_builds(),
            1,
            "same-topology corners must not re-analyze"
        );
        // A different cell is a different topology: exactly one more.
        let nand = lib.cell("NAND2_X1").unwrap();
        characterize_with_cache(
            &kit,
            nand,
            &loads,
            CharCorner::nominal(&kit),
            &patterns,
            false,
        )
        .unwrap();
        assert_eq!(patterns.symbolic_builds(), 2);
    }

    #[test]
    fn traces_render_a_waveform_table() {
        let kit = DesignKit::cnfet65();
        let lib = build_library(&kit, Scheme::Scheme1).unwrap();
        let inv = lib.cell("INV_X1").unwrap();
        let (table, wave) =
            characterize_cell_traces(&kit, inv, &[1e-15], CharCorner::nominal(&kit)).unwrap();
        assert!(table.delays_s[0] > 0.0);
        let wave = wave.expect("waveform retained");
        assert!(wave.starts_with("time in out i(vdd)\n"));
        assert!(wave.lines().count() > 100, "full transient recorded");
    }

    #[test]
    fn delay_interpolation() {
        let t = TimingTable {
            loads_f: vec![1.0, 3.0],
            delays_s: vec![10.0, 30.0],
            energy_j: 0.0,
        };
        assert_eq!(t.delay_at(2.0), 20.0);
        assert_eq!(t.delay_at(0.5), 10.0);
        assert_eq!(t.delay_at(9.0), 30.0);
    }

    #[test]
    fn sensitizing_masks() {
        let (nand_pdn, _, _) = cnfet_core::StdCellKind::Nand(3).networks();
        let m = sensitizing_mask(&nand_pdn, 3);
        assert_eq!(m, 0b110, "NAND needs side inputs high");
        let (nor_pdn, _, _) = cnfet_core::StdCellKind::Nor(3).networks();
        assert_eq!(
            sensitizing_mask(&nor_pdn, 3),
            0,
            "NOR needs side inputs low"
        );
    }
}
