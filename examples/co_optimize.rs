//! Processing↔circuit co-optimization: search the CNT process grid
//! (tube count × pitch spread × metallic fraction) for the cheapest
//! corner that meets a yield/delay/energy target — one composite
//! `OptimizeRequest` through the `Session` engine. Every candidate is a
//! memoized sweep, so the coordinate-descent revisits and a later
//! re-targeted search come back from the cache.
//!
//! Run with: `cargo run --release --example co_optimize`

use cnfet::core::StdCellKind;
use cnfet::immunity::McOptions;
use cnfet::{
    CandidateRow, Observer, OptimizeRequest, OptimizeTarget, Session, SweepMetrics, VariationGrid,
};

fn main() -> cnfet::Result<()> {
    let session = Session::new();
    let target = OptimizeTarget::new()
        .min_yield(0.9)
        .max_delay_s(50e-12)
        .max_energy_j(40e-15);
    let request = OptimizeRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)])
        .grid(
            VariationGrid::nominal()
                .tube_counts([26, 16, 8])
                .pitch_scales([1.0, 0.8])
                .metallic_fractions([0.0, 0.01]),
        )
        .target(target)
        .passes(2)
        .metrics(SweepMetrics::ALL)
        .mc(McOptions {
            tubes: 500,
            ..McOptions::default()
        })
        .loads([1e-15])
        // Candidates stream in schedule order as the pool harvests them
        // — the same feed `/v1/jobs/{id}/stream` serves over the wire.
        .observe_candidates(Observer::new(|index, row: &CandidateRow| {
            println!(
                "  candidate {index:>2} (pass {}, {:>8} axis): {:>2} tubes/4λ, pitch×{:.3}, metallic {:>4.1}% → score {:.4}{}",
                row.pass,
                row.axis.name(),
                row.outcome.tubes_per_4lambda,
                row.outcome.pitch_scale,
                row.outcome.metallic_fraction * 100.0,
                row.score,
                if row.best_so_far { "  *" } else { "" }
            );
        }));

    println!(
        "searching {} candidate evaluations toward yield ≥ 90%, delay ≤ 50 ps, energy ≤ 40 fJ…\n",
        request.candidate_count()
    );
    let report = session.run(&request)?;
    print!("\n{}", report.render());

    // Relaxing the target is a new trajectory over the SAME candidates:
    // every candidate is a sweep memoized target-free, so only the
    // trajectory key itself is new work.
    let relaxed = request
        .clone()
        .target(OptimizeTarget::new().min_yield(0.5).max_delay_s(80e-12));
    let second = session.run(&relaxed)?;
    let stats = session.stats();
    println!(
        "\nre-targeted search: converged {} — {} trajectories searched, {} candidate sweeps recalled, {} sweeps and corners executed once",
        second.converged,
        stats.optimizations.misses,
        stats.sweeps.hits,
        stats.sweeps.misses,
    );
    Ok(())
}
