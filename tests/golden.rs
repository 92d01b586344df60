//! Golden-file tests: canonical text artifacts — the SPICE deck
//! rendering and the design kit's Liberty/LEF exports — are committed
//! under `tests/golden/` and diffed byte-for-byte against the current
//! output, so any unintended change to an exporter (float formats, line
//! order, unit conventions) fails loudly with the first differing line.
//!
//! To refresh the references after a *deliberate* format change:
//!
//! ```text
//! CNFET_GOLDEN_REGEN=1 cargo test --test golden
//! ```
//!
//! and commit the rewritten files alongside the change.

use cnfet::core::Scheme;
use cnfet::device::Polarity;
use cnfet::dk::{build_library, write_lef, write_liberty, DesignKit, TimingTable};
use cnfet::spice::{Circuit, SourceWave};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Path of one committed golden file.
fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Diffs `current` against the committed golden `name`; with
/// `CNFET_GOLDEN_REGEN=1` rewrites the file instead and passes.
fn assert_matches_golden(name: &str, current: &str) {
    let path = golden_path(name);
    if std::env::var_os("CNFET_GOLDEN_REGEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, current).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\n(run with CNFET_GOLDEN_REGEN=1 to create it)",
            path.display()
        )
    });
    if current == expected {
        return;
    }
    // Report the first differing line, not a wall of text.
    for (i, (got, want)) in current.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "`{name}` first differs at line {} (regen with CNFET_GOLDEN_REGEN=1 if deliberate)",
            i + 1
        );
    }
    panic!(
        "`{name}` differs in length: {} vs {} lines",
        current.lines().count(),
        expected.lines().count()
    );
}

/// Binary twin of [`assert_matches_golden`] for artifacts that are not
/// text (GDSII streams). Reports the first differing byte offset.
fn assert_matches_golden_bytes(name: &str, current: &[u8]) {
    let path = golden_path(name);
    if std::env::var_os("CNFET_GOLDEN_REGEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, current).unwrap();
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\n(run with CNFET_GOLDEN_REGEN=1 to create it)",
            path.display()
        )
    });
    if current == expected {
        return;
    }
    let at = current
        .iter()
        .zip(&expected)
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| current.len().min(expected.len()));
    panic!(
        "`{name}` first differs at byte {at} ({} vs {} bytes; regen with CNFET_GOLDEN_REGEN=1 if deliberate)",
        current.len(),
        expected.len()
    );
}

/// A loaded CNFET inverter driven by a pulse — covers every element
/// card the renderer knows (V sources in all three waveforms, R, C, and
/// both FET polarities).
fn inverter_circuit() -> Circuit {
    let kit = DesignKit::cnfet65();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource(vdd, Circuit::GROUND, SourceWave::Dc(kit.cnfet.vdd));
    ckt.add_vsource(
        vin,
        Circuit::GROUND,
        SourceWave::Pulse {
            v0: 0.0,
            v1: kit.cnfet.vdd,
            delay: 0.2e-9,
            rise: 10e-12,
            fall: 10e-12,
            width: 2e-9,
            period: 4e-9,
        },
    );
    let bias = ckt.node("bias");
    ckt.add_vsource(
        bias,
        Circuit::GROUND,
        SourceWave::Pwl(vec![(0.0, 0.0), (1e-9, 0.5), (2e-9, 0.5)]),
    );
    ckt.add_resistor(bias, out, 1e6);
    let width_m = kit.base_width_lambda as f64 * 32.5e-9;
    let n = kit
        .cnfet
        .device(Polarity::N, kit.tubes_per_4lambda, width_m);
    let p = kit
        .cnfet
        .device(Polarity::P, kit.tubes_per_4lambda, width_m);
    ckt.add_fet(out, vin, Circuit::GROUND, Arc::new(n));
    ckt.add_fet(out, vin, vdd, Arc::new(p));
    ckt.add_load(out, 1e-15);
    ckt
}

fn inverter_deck() -> String {
    inverter_circuit().to_spice("cnfet65 inverter, 1fF load")
}

#[test]
fn spice_deck_rendering_matches_golden() {
    assert_matches_golden("inverter.sp", &inverter_deck());
}

#[test]
fn inverter_transient_matches_golden() {
    // One backward-Euler pulse period through the MNA engine, rendered
    // as the canonical probe table: a byte-for-byte regression net over
    // the whole lowering → analyze → stamp → refactor → solve chain.
    let ckt = inverter_circuit();
    let mna = cnfet::spice::to_mna(&ckt);
    let pattern = Arc::new(cnfet::mna::Pattern::analyze(mna));
    let mut engine = cnfet::mna::Engine::new(pattern);
    let wave = engine
        .tran(mna, &cnfet::mna::TranSpec::new(20e-12, 4e-9))
        .unwrap();
    let table = wave.render_table(&[
        (
            "v(in)",
            cnfet::mna::Probe::Node(ckt.find_node("in").unwrap().0),
        ),
        (
            "v(out)",
            cnfet::mna::Probe::Node(ckt.find_node("out").unwrap().0),
        ),
        ("i(vdd)", cnfet::mna::Probe::SourceCurrent(0)),
    ]);
    assert_matches_golden("inverter.tran", &table);
}

#[test]
fn spice_deck_rendering_is_stable_across_builds() {
    // Independent constructions render byte-identically — the property
    // the golden file (and the cache keys derived from decks) relies on.
    assert_eq!(inverter_deck(), inverter_deck());
}

#[test]
fn die_repair_render_matches_golden() {
    // A fixed-seed 12-die repair lot with a constrained tail: the
    // committed rendering pins the defect sampler, the site tester, both
    // assignment solvers, and the report formatter in one artifact.
    let lot = cnfet::RepairRequest::new([
        cnfet::core::StdCellKind::Inv,
        cnfet::core::StdCellKind::Nand(2),
        cnfet::core::StdCellKind::Nor(2),
    ])
    .dies(12)
    .base_seed(0xB0BBA)
    .spares(2)
    .params(cnfet::repair::DefectParams {
        metallic_fraction: 0.05,
        misposition_fraction: 0.2,
        ..cnfet::repair::DefectParams::default()
    })
    .adjacent([(0, 1)]);
    let report = cnfet::Session::new().run(&lot).unwrap();
    assert_matches_golden("die_repair.txt", &report.render());
}

#[test]
fn adder_macro_artifacts_match_golden() {
    // A fixed-seed 8-bit carry-look-ahead macro: the committed SPICE deck
    // pins the hierarchical netlist (one `.subckt full_adder` referenced
    // by every slice, never flattened), and the committed GDSII stream
    // pins the two-deep cell/instance assembly byte-for-byte.
    let report = cnfet::Session::new()
        .run(&cnfet::MacroRequest::new(cnfet::logic::AdderKind::Cla, 8).seed(0xB0BBA))
        .unwrap();
    assert_matches_golden("adder_cla8.sp", &report.spice);
    assert_matches_golden_bytes("adder_cla8.gds", &report.gds);
}

#[test]
fn liberty_export_matches_golden() {
    let kit = DesignKit::cnfet65();
    let lib = build_library(&kit, Scheme::Scheme1).unwrap();
    // One synthetic (deterministic) timing view: golden-testing the
    // renderer must not depend on transient-simulation float noise.
    let mut timing = HashMap::new();
    timing.insert(
        "INV_X1".to_string(),
        TimingTable {
            loads_f: vec![0.5e-15, 1e-15, 2e-15],
            delays_s: vec![4.25e-12, 6.5e-12, 11.0e-12],
            energy_j: 1.375e-15,
        },
    );
    assert_matches_golden("library_scheme1.lib", &write_liberty(&lib, &timing));
}

#[test]
fn lef_export_matches_golden() {
    let kit = DesignKit::cnfet65();
    let lib = build_library(&kit, Scheme::Scheme2).unwrap();
    assert_matches_golden("library_scheme2.lef", &write_lef(&lib));
}
