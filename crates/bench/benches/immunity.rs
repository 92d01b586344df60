//! Bench: immunity certification, Monte-Carlo and per-die repair
//! throughput.
//!
//! The `certify_*` and `mc_500_*` rows prepare the cell's [`TraceMap`]
//! inside every iteration (a cold analysis); `trace_map_aoi31` times that
//! preparation alone, and the remaining rows run on maps prepared once,
//! the way a session shares them across requests and dies.

use cnfet::repair::{repair_die, DefectParams, DieSpec, Solver};
use cnfet_bench::harness::Harness;
use cnfet_core::{generate_cell, GenerateOptions, StdCellKind, Style};
use cnfet_immunity::{certify, simulate, McOptions, TraceMap};

fn main() {
    let mut h = Harness::new("immunity");
    let nand3 = generate_cell(StdCellKind::Nand(3), &GenerateOptions::default()).unwrap();
    let aoi31 = generate_cell(StdCellKind::Aoi31, &GenerateOptions::default()).unwrap();
    h.bench("certify_nand3", 100, || {
        certify(&TraceMap::new(&nand3.semantics))
    });
    h.bench("certify_aoi31", 100, || {
        certify(&TraceMap::new(&aoi31.semantics))
    });
    h.bench("trace_map_aoi31", 100, || TraceMap::new(&aoi31.semantics));

    let vuln = generate_cell(
        StdCellKind::Nand(2),
        &GenerateOptions {
            style: Style::Vulnerable,
            ..GenerateOptions::default()
        },
    )
    .unwrap();
    let opts = McOptions {
        tubes: 500,
        ..McOptions::default()
    };
    h.bench("mc_500_tubes_nand2", 20, || {
        simulate(&TraceMap::new(&vuln.semantics), &opts)
    });

    let aoi31_map = TraceMap::new(&aoi31.semantics);
    let opts = McOptions {
        tubes: 2000,
        ..McOptions::default()
    };
    h.bench("mc_2000_tubes_aoi31", 20, || simulate(&aoi31_map, &opts));

    // The per-die kernel of the session bench's `repair_1000_dies_cold`
    // lot, on maps prepared once: sampling, site tests and matching only.
    let cells: Vec<TraceMap> = [StdCellKind::Inv, StdCellKind::Nand(2), StdCellKind::Nor(2)]
        .into_iter()
        .map(|kind| {
            let cell = generate_cell(kind, &GenerateOptions::default()).unwrap();
            TraceMap::new(&cell.semantics)
        })
        .collect();
    let maps: Vec<&TraceMap> = cells.iter().collect();
    let params = DefectParams {
        metallic_fraction: 0.05,
        misposition_fraction: 0.2,
        ..DefectParams::default()
    };
    h.bench("repair_1000_dies_kernel_3cells", 10, || {
        repair_1000_dies(&maps, params)
    });

    // The same kernel shaped like the perfbench `cold_yield` dies: wider
    // cells, so longer tubes with more slabs per tube, at that
    // workload's mean defect mix. Recorded only, not gated.
    let wide: Vec<TraceMap> = [StdCellKind::Aoi22, StdCellKind::Oai21, StdCellKind::Nand(3)]
        .into_iter()
        .map(|kind| {
            let cell = generate_cell(kind, &GenerateOptions::default()).unwrap();
            TraceMap::new(&cell.semantics)
        })
        .collect();
    let wide_maps: Vec<&TraceMap> = wide.iter().collect();
    let wide_params = DefectParams {
        metallic_fraction: 0.04,
        misposition_fraction: 0.175,
        ..DefectParams::default()
    };
    h.bench("repair_1000_dies_kernel_wide", 10, || {
        repair_1000_dies(&wide_maps, wide_params)
    });
    h.finish();
}

/// Repairs dies `0..1000` of one lot over `maps`; the count repaired.
fn repair_1000_dies(maps: &[&TraceMap], params: DefectParams) -> usize {
    (0..1000)
        .filter(|&die| {
            repair_die(&DieSpec {
                maps,
                die,
                base_seed: 0xB0BBA,
                spares: 2,
                params,
                solver: Solver::Auto,
                adjacent: &[],
            })
            .repaired
        })
        .count()
}
