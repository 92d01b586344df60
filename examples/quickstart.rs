//! Quickstart: one `Session`, the paper's NAND3 in both immune styles,
//! area comparison, immunity verdicts (submitted non-blocking), and an
//! SVG dump — everything through the generic `run`/`submit` API.
//!
//! Run with: `cargo run --example quickstart`

use cnfet::core::{check_drc, DesignRules, GenerateOptions, Sizing, StdCellKind, Style};
use cnfet::geom::render_svg;
use cnfet::{CellRequest, ImmunityRequest, RequestClass, SessionBuilder};

fn main() -> cnfet::Result<()> {
    // The cache behind the session is sharded and bounded; both knobs are
    // tunable (capacity 0 disables caching entirely).
    let session = SessionBuilder::new()
        .cache_capacity(1024)
        .cache_shards(8)
        .build();
    let opts = |style| GenerateOptions {
        style,
        sizing: Sizing::Matched { base_lambda: 4 },
        ..GenerateOptions::default()
    };

    // The compact layout of Figure 3(b): Euler path Vdd-A-Out-B-Vdd-C-Out.
    let new = session
        .run(&CellRequest::new(StdCellKind::Nand(3)).options(opts(Style::NewImmune)))?
        .cell;

    // The prior art of Figure 3(a): etched regions + vertical gating.
    let old = session
        .run(&CellRequest::new(StdCellKind::Nand(3)).options(opts(Style::OldEtched)))?
        .cell;

    println!("NAND3 at 4λ:");
    println!(
        "  new compact layout: {:>6.0} λ² active",
        new.active_area_l2()
    );
    println!(
        "  old etched layout:  {:>6.0} λ² active",
        old.active_area_l2()
    );
    println!(
        "  saving: {:.2}% (paper: 16.67%)",
        (old.active_area_l2() - new.active_area_l2()) / old.active_area_l2() * 100.0
    );

    // Both are 100% immune to mispositioned CNTs — but only the new one
    // passes conventional design rules (no via-on-gate). The immunity
    // verdicts are submitted non-blocking: both JobHandles resolve on the
    // session's job pool while this thread does other work.
    let new_job = session.submit(ImmunityRequest::certify(
        CellRequest::new(StdCellKind::Nand(3)).options(opts(Style::NewImmune)),
    ));
    let old_job = session.submit(ImmunityRequest::certify(
        CellRequest::new(StdCellKind::Nand(3)).options(opts(Style::OldEtched)),
    ));
    let rules = DesignRules::cnfet65();
    let drc = (
        check_drc(&new.cell, &rules).len(),
        check_drc(&old.cell, &rules).len(),
    );
    let (new_report, old_report) = (new_job.wait()?, old_job.wait()?);
    println!(
        "  immunity: new = {}, old = {}",
        new_report.immune, old_report.immune
    );
    println!(
        "  DRC violations: new = {}, old = {} (vertical gating)",
        drc.0, drc.1
    );
    let stats = session.stats();
    println!(
        "  session: {} generated, {} served from cache, {} evicted; \
         immunity verdicts {} run / {} recalled; {} jobs submitted",
        stats.cells.misses,
        stats.cells.hits,
        stats.cells.evictions,
        stats.immunity.misses,
        stats.immunity.hits,
        stats.submitted
    );
    let cache = session.cache_stats(RequestClass::Cell);
    println!(
        "  cell cache: {} entries over {} shards (capacity {})",
        cache.entries,
        cache.shards.len(),
        cache.capacity
    );

    std::fs::write("nand3_new.svg", render_svg(&new.cell, 2.0))?;
    println!("  wrote nand3_new.svg");
    Ok(())
}
