//! Variation-aware sweep: judge the paper's cells across a CNT process
//! grid (tube count × pitch spread × metallic fraction) and print the
//! per-corner rows, the delay/energy/yield Pareto frontier, and the
//! best/worst corners — one composite `SweepRequest` through the
//! `Session` engine, fanned out on its job pool.
//!
//! Run with: `cargo run --release --example sweep_pareto`

use cnfet::core::StdCellKind;
use cnfet::immunity::McOptions;
use cnfet::{Session, SweepMetrics, SweepRequest, VariationCorner, VariationGrid};

fn corner_label(c: &VariationCorner) -> String {
    format!(
        "{:>2} tubes/4λ, pitch×{:.2}, metallic {:>4.1}%",
        c.tubes_per_4lambda,
        c.pitch_scale,
        c.metallic_fraction * 100.0
    )
}

fn main() -> cnfet::Result<()> {
    let session = Session::new();
    let request = SweepRequest::new([
        StdCellKind::Inv,
        StdCellKind::Nand(2),
        StdCellKind::Nor(2),
        StdCellKind::Aoi21,
    ])
    .grid(
        VariationGrid::nominal()
            .tube_counts([26, 16, 8])
            .pitch_scales([1.0, 0.75])
            .metallic_fractions([0.0, 0.01]),
    )
    .metrics(SweepMetrics::ALL)
    .mc(McOptions {
        tubes: 1000,
        ..McOptions::default()
    })
    .loads([1e-15]);

    let n_corners = request.grid.len();
    println!(
        "sweeping {} cells × {} corners = {} evaluations…\n",
        request.cells.len(),
        n_corners,
        request.cells.len() * n_corners
    );
    let report = session.run(&request)?;

    println!(
        "{:<10} {:<38} {:>7} {:>9} {:>9}",
        "cell", "corner", "yield", "delay", "energy"
    );
    for row in &report.rows {
        println!(
            "{:<10} {:<38} {:>6.1}% {:>7.1}ps {:>8.2}fJ",
            row.kind.name(),
            corner_label(&row.corner),
            row.yield_frac().unwrap_or(0.0) * 100.0,
            row.delay_s().unwrap_or(0.0) * 1e12,
            row.energy_j().unwrap_or(0.0) * 1e15,
        );
    }

    println!("\nPareto frontier (no row beats these on yield, delay, and energy at once):");
    for row in report.pareto_rows() {
        println!(
            "  {} @ {} — {:.1}% / {:.1} ps / {:.2} fJ",
            row.kind.name(),
            corner_label(&row.corner),
            row.yield_frac().unwrap_or(0.0) * 100.0,
            row.delay_s().unwrap_or(0.0) * 1e12,
            row.energy_j().unwrap_or(0.0) * 1e15,
        );
    }

    if let (Some(best), Some(worst)) = (&report.best_corner, &report.worst_corner) {
        println!(
            "\nbest corner:  {} (min yield {:.1}%, max delay {:.1} ps)",
            corner_label(&best.corner),
            best.min_yield.unwrap_or(0.0) * 100.0,
            best.max_delay_s.unwrap_or(0.0) * 1e12,
        );
        println!(
            "worst corner: {} (min yield {:.1}%, max delay {:.1} ps)",
            corner_label(&worst.corner),
            worst.min_yield.unwrap_or(0.0) * 100.0,
            worst.max_delay_s.unwrap_or(0.0) * 1e12,
        );
    }

    // A repeated sweep is a pure cache hit; an overlapping one reuses
    // every shared corner. Show the engine's accounting.
    session.run(&request)?;
    let stats = session.stats();
    println!(
        "\nengine: {} sweep-class requests ({} hits), {} cell generations, {} jobs submitted",
        stats.sweeps.requests(),
        stats.sweeps.hits,
        stats.cells.misses,
        stats.submitted,
    );
    Ok(())
}
