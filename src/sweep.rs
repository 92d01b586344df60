//! Variation-aware characterization sweeps: the paper's cells, re-judged
//! across a process-variation grid, as one first-class
//! [`SessionRequest`](crate::SessionRequest).
//!
//! The compact imperfection-immune layouts only pay off if their delay,
//! energy, and immunity hold up when the CNT process moves — fewer grown
//! tubes, tubes bunched tighter than drawn, a residue of surviving
//! metallic tubes (the processing/circuit co-optimization loop of Hills
//! et al., and the fault-coverage framing of Lu et al.). A
//! [`SweepRequest`] names a cell set, a [`VariationGrid`] (tube count ×
//! pitch spread × metallic fraction × seed), and a [`SweepMetrics`]
//! selection; the session answers with a [`SweepReport`]: one
//! [`CornerRow`] per cell × corner, the delay/energy/yield Pareto
//! frontier, and best/worst-corner summaries.
//!
//! # Composite execution
//!
//! `SweepRequest` is the engine's first *composite* request: its
//! `execute` fans the corner × cell cross-product out on the session's
//! job pool — one [`SweepCornerRequest`] per pair, each memoized in the
//! [`RequestClass::Sweeps`](crate::RequestClass::Sweeps) cache — and
//! reduces the rows as they land, in order. Because the fan-out
//! rides the *same* persistent pool the sweep itself may be executing
//! on, the executing thread never parks on a pending handle while the
//! queue is non-empty: it pops and runs queued jobs itself (the pool's
//! helping protocol), so even a one-worker pool completes arbitrarily
//! nested fan-outs instead of deadlocking.
//!
//! Memoization works at both granularities: a repeated sweep is one pure
//! `Sweeps`-class hit (the report is never re-reduced), and a *new*
//! sweep that overlaps an earlier one re-uses every memoized corner row
//! and only executes the corners it adds.
//!
//! # Example
//!
//! ```
//! use cnfet::core::StdCellKind;
//! use cnfet::immunity::McOptions;
//! use cnfet::{Session, SweepMetrics, SweepRequest, VariationGrid};
//!
//! let session = Session::new();
//! let request = SweepRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)])
//!     .grid(
//!         VariationGrid::nominal()
//!             .tube_counts([26, 10])
//!             .metallic_fractions([0.0, 0.02]),
//!     )
//!     .metrics(SweepMetrics::IMMUNITY)
//!     .mc(McOptions {
//!         tubes: 200,
//!         ..McOptions::default()
//!     });
//!
//! let report = session.run(&request)?;
//! assert_eq!(report.rows.len(), 2 * 4, "2 cells × 4 corners");
//! // The clean corner of an immune cell yields 100%.
//! assert_eq!(report.row(0, 0).yield_frac(), Some(1.0));
//! // Repeating the sweep is a pure Sweeps-class cache hit.
//! let again = session.run(&request)?;
//! assert!(std::sync::Arc::ptr_eq(&report, &again));
//! # Ok::<(), cnfet::CnfetError>(())
//! ```

use crate::dk::{CharCorner, LibCell, TimingTable};
use crate::error::Result;
use crate::immunity::{metallic_yield, simulate, McOptions, MetallicProcess};
use crate::session::{CellRequest, Observer, Session};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The variation grid
// ---------------------------------------------------------------------------

/// One point of a [`VariationGrid`]: a concrete CNT process corner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VariationCorner {
    /// CNTs grown per 4λ of device width (count/density variation).
    pub tubes_per_4lambda: u32,
    /// Multiplier on the effective inter-CNT pitch seen by the screening
    /// model (placement-spread variation); `1.0` is evenly pitched.
    pub pitch_scale: f64,
    /// Fraction of tube sites that end up as *surviving metallic* tubes
    /// (grown metallic and missed by removal); `0.0` is the paper's
    /// perfect-removal assumption.
    pub metallic_fraction: f64,
    /// Monte-Carlo seed used at this corner.
    pub seed: u64,
}

impl VariationCorner {
    /// The paper's nominal 65 nm corner: 26 tubes per 4λ at even pitch,
    /// perfect metallic removal, the default MC seed.
    pub fn nominal() -> VariationCorner {
        VariationCorner {
            tubes_per_4lambda: 26,
            pitch_scale: 1.0,
            metallic_fraction: 0.0,
            seed: McOptions::default().seed,
        }
    }

    /// The corner with its float fields in canonical form (`-0.0`
    /// normalized to `0.0`). Cache keys render the canonical corner, so
    /// two semantically identical corners that differ only in float sign
    /// bits share one cache entry.
    #[must_use]
    pub fn canonical(mut self) -> VariationCorner {
        self.pitch_scale = canonical_axis_value(self.pitch_scale);
        self.metallic_fraction = canonical_axis_value(self.metallic_fraction);
        self
    }

    /// Checks the corner's float fields are finite and non-negative.
    /// `prefix` names the corner in the reported field path (e.g.
    /// `corner`).
    ///
    /// # Errors
    ///
    /// [`CnfetError::InvalidRequest`](crate::CnfetError::InvalidRequest)
    /// naming the offending field.
    pub fn validate(&self, prefix: &str) -> Result<()> {
        check_axis_value(self.pitch_scale, || format!("{prefix}.pitch_scale"))?;
        check_axis_value(self.metallic_fraction, || {
            format!("{prefix}.metallic_fraction")
        })
    }
}

/// Normalizes one float axis value: `-0.0` becomes `0.0` (the two
/// compare equal but `Debug`-render differently, and cache keys are
/// rendered). Other values — including the invalid ones `validate`
/// rejects — pass through untouched.
pub(crate) fn canonical_axis_value(value: f64) -> f64 {
    if value == 0.0 {
        0.0
    } else {
        value
    }
}

/// Rejects NaN, infinite, and negative float axis values with a
/// field-path [`CnfetError::InvalidRequest`](crate::CnfetError::InvalidRequest).
/// `-0.0` is accepted (it
/// *is* zero); `canonical_axis_value` folds it before any key render.
pub(crate) fn check_axis_value(value: f64, field: impl FnOnce() -> String) -> Result<()> {
    if !value.is_finite() || value < 0.0 {
        return Err(crate::CnfetError::InvalidRequest {
            field: field(),
            message: format!("expected a finite non-negative number, got {value}"),
        });
    }
    Ok(())
}

/// A cross-product variation grid: every combination of the four axes is
/// one [`VariationCorner`]. Axes left at their [`nominal`] single value
/// do not multiply the corner count.
///
/// [`nominal`]: VariationGrid::nominal
#[derive(Clone, Debug, PartialEq)]
pub struct VariationGrid {
    /// Tube-count axis (CNTs per 4λ).
    pub tube_counts: Vec<u32>,
    /// Pitch-spread axis (effective-pitch multipliers).
    pub pitch_scales: Vec<f64>,
    /// Surviving-metallic-fraction axis.
    pub metallic_fractions: Vec<f64>,
    /// Seed axis (one deterministic MC stream per seed).
    pub seeds: Vec<u64>,
}

impl VariationGrid {
    /// The single nominal corner ([`VariationCorner::nominal`]).
    pub fn nominal() -> VariationGrid {
        let n = VariationCorner::nominal();
        VariationGrid {
            tube_counts: vec![n.tubes_per_4lambda],
            pitch_scales: vec![n.pitch_scale],
            metallic_fractions: vec![n.metallic_fraction],
            seeds: vec![n.seed],
        }
    }

    /// Replaces the tube-count axis.
    #[must_use]
    pub fn tube_counts(mut self, counts: impl IntoIterator<Item = u32>) -> VariationGrid {
        self.tube_counts = counts.into_iter().collect();
        self
    }

    /// Replaces the pitch-spread axis.
    #[must_use]
    pub fn pitch_scales(mut self, scales: impl IntoIterator<Item = f64>) -> VariationGrid {
        self.pitch_scales = scales.into_iter().collect();
        self
    }

    /// Replaces the metallic-fraction axis.
    #[must_use]
    pub fn metallic_fractions(mut self, fractions: impl IntoIterator<Item = f64>) -> VariationGrid {
        self.metallic_fractions = fractions.into_iter().collect();
        self
    }

    /// Replaces the seed axis.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> VariationGrid {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Number of corners (the product of the axis lengths, saturating
    /// at `usize::MAX`).
    pub fn len(&self) -> usize {
        self.tube_counts
            .len()
            .saturating_mul(self.pitch_scales.len())
            .saturating_mul(self.metallic_fractions.len())
            .saturating_mul(self.seeds.len())
    }

    /// Whether the grid has no corners (some axis is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The grid with both float axes in canonical form (`-0.0` normalized
    /// to `0.0`). Cache keys render the canonical grid — see
    /// [`VariationCorner::canonical`].
    #[must_use]
    pub fn canonical(mut self) -> VariationGrid {
        for scale in &mut self.pitch_scales {
            *scale = canonical_axis_value(*scale);
        }
        for fraction in &mut self.metallic_fractions {
            *fraction = canonical_axis_value(*fraction);
        }
        self
    }

    /// Checks every float axis value is finite and non-negative. `prefix`
    /// names the grid in the reported field path (e.g. `grid`).
    ///
    /// # Errors
    ///
    /// [`CnfetError::InvalidRequest`](crate::CnfetError::InvalidRequest)
    /// naming the offending axis entry,
    /// e.g. `grid.metallic_fractions[1]`.
    pub fn validate(&self, prefix: &str) -> Result<()> {
        for (i, &scale) in self.pitch_scales.iter().enumerate() {
            check_axis_value(scale, || format!("{prefix}.pitch_scales[{i}]"))?;
        }
        for (i, &fraction) in self.metallic_fractions.iter().enumerate() {
            check_axis_value(fraction, || format!("{prefix}.metallic_fractions[{i}]"))?;
        }
        Ok(())
    }

    /// Every corner of the grid in canonical order: tube count outermost,
    /// then pitch, metallic fraction, and seed innermost. The order is
    /// part of the [`SweepReport`] contract — `rows` is cell-major over
    /// this sequence.
    pub fn corners(&self) -> Vec<VariationCorner> {
        let mut corners = Vec::with_capacity(self.len());
        for &tubes_per_4lambda in &self.tube_counts {
            for &pitch_scale in &self.pitch_scales {
                for &metallic_fraction in &self.metallic_fractions {
                    for &seed in &self.seeds {
                        corners.push(VariationCorner {
                            tubes_per_4lambda,
                            pitch_scale,
                            metallic_fraction,
                            seed,
                        });
                    }
                }
            }
        }
        corners
    }
}

impl Default for VariationGrid {
    fn default() -> Self {
        VariationGrid::nominal()
    }
}

// ---------------------------------------------------------------------------
// Metric selection
// ---------------------------------------------------------------------------

/// Which metrics a sweep evaluates per corner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepMetrics {
    /// Monte-Carlo immunity yield ([`crate::immunity::mc`]) plus the
    /// analytic surviving-metallic yield over the cell's tube sites.
    pub immunity: bool,
    /// Propagation delay and switching energy via the in-repo transient
    /// engine ([`crate::dk::characterize_cell_at`]).
    pub timing: bool,
    /// Liberty-style NLDM characterization: the full load-indexed
    /// [`TimingTable`] plus a rendered liberty `cell` group per row.
    pub liberty: bool,
    /// Keep the nominal-load transient waveform of each characterized
    /// row as a rendered `time in out i(vdd)` table
    /// ([`CornerRow::waveform`]). Off in every preset — waveforms are
    /// bulky, and most sweeps only want the scalar measures; flip it on
    /// with [`SweepMetrics::with_waveforms`] for debugging or plotting.
    pub retain_waveforms: bool,
}

impl SweepMetrics {
    /// Everything: immunity + timing + liberty (no waveform retention).
    pub const ALL: SweepMetrics = SweepMetrics {
        immunity: true,
        timing: true,
        liberty: true,
        retain_waveforms: false,
    };

    /// Immunity yield only (no transient simulation).
    pub const IMMUNITY: SweepMetrics = SweepMetrics {
        immunity: true,
        timing: false,
        liberty: false,
        retain_waveforms: false,
    };

    /// Delay + energy only.
    pub const TIMING: SweepMetrics = SweepMetrics {
        immunity: false,
        timing: true,
        liberty: false,
        retain_waveforms: false,
    };

    /// The same selection with waveform retention switched on.
    #[must_use]
    pub const fn with_waveforms(mut self) -> SweepMetrics {
        self.retain_waveforms = true;
        self
    }

    /// Whether any metric requires the transient characterization.
    pub(crate) fn needs_characterization(&self) -> bool {
        self.timing || self.liberty
    }
}

impl Default for SweepMetrics {
    fn default() -> Self {
        SweepMetrics::ALL
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A variation-aware characterization sweep over a cell set — the
/// engine's first composite request (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use cnfet::core::StdCellKind;
/// use cnfet::{Session, SweepMetrics, SweepRequest, VariationGrid};
///
/// let request = SweepRequest::new([StdCellKind::Inv])
///     .grid(VariationGrid::nominal().seeds([1, 2, 3]))
///     .metrics(SweepMetrics::IMMUNITY)
///     .mc(cnfet::immunity::McOptions { tubes: 50, ..Default::default() });
/// let report = Session::new().run(&request)?;
/// assert_eq!(report.rows.len(), 3, "one cell x three seed corners");
/// # Ok::<(), cnfet::CnfetError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SweepRequest {
    /// Cells to sweep; each is generated through the session cell cache.
    pub cells: Vec<CellRequest>,
    /// The variation grid.
    pub grid: VariationGrid,
    /// Metric selection.
    pub metrics: SweepMetrics,
    /// Base Monte-Carlo options; each corner overrides `seed` and
    /// `metallic_fraction` with its own values.
    pub mc: McOptions,
    /// Output loads for timing/liberty characterization, farads.
    pub loads_f: Vec<f64>,
    /// Per-row progress hook, fed rows in [`SweepReport::rows`] order;
    /// excluded from the cache key (see [`Observer`]).
    observer: Option<Observer<CornerRow>>,
}

impl SweepRequest {
    /// A sweep of the given cells over the nominal grid with every
    /// metric, default MC options, and a single 1 fF load.
    pub fn new(cells: impl IntoIterator<Item = impl Into<CellRequest>>) -> SweepRequest {
        SweepRequest {
            cells: cells.into_iter().map(Into::into).collect(),
            grid: VariationGrid::nominal(),
            metrics: SweepMetrics::ALL,
            mc: McOptions::default(),
            loads_f: vec![1e-15],
            observer: None,
        }
    }

    /// Replaces the variation grid.
    #[must_use]
    pub fn grid(mut self, grid: VariationGrid) -> SweepRequest {
        self.grid = grid;
        self
    }

    /// Replaces the metric selection.
    #[must_use]
    pub fn metrics(mut self, metrics: SweepMetrics) -> SweepRequest {
        self.metrics = metrics;
        self
    }

    /// Replaces the base Monte-Carlo options.
    #[must_use]
    pub fn mc(mut self, mc: McOptions) -> SweepRequest {
        self.mc = mc;
        self
    }

    /// Replaces the characterization load list.
    #[must_use]
    pub fn loads(mut self, loads_f: impl IntoIterator<Item = f64>) -> SweepRequest {
        self.loads_f = loads_f.into_iter().collect();
        self
    }

    /// Attaches a per-row progress observer, fed rows in
    /// [`SweepReport::rows`] order (see [`Observer`] for the
    /// cache-interaction contract).
    #[must_use]
    pub fn observe_rows(mut self, observer: Observer<CornerRow>) -> SweepRequest {
        self.observer = Some(observer);
        self
    }

    /// Total rows this sweep will produce: cells × grid corners
    /// (saturating at `usize::MAX`). The count a streaming consumer
    /// should expect before the report lands.
    pub fn row_count(&self) -> usize {
        self.cells.len().saturating_mul(self.grid.len())
    }

    /// Checks every grid float is finite and non-negative and that the
    /// sweep has at most [`MAX_FANOUT`](crate::MAX_FANOUT) rows and grid
    /// corners (a sweep with no cells still allocates its corners). An
    /// invalid sweep gets no cache key and `execute` rejects it before
    /// any corner is allocated.
    ///
    /// # Errors
    ///
    /// [`CnfetError::InvalidRequest`](crate::CnfetError::InvalidRequest)
    /// naming the offending field (`grid`, or e.g.
    /// `grid.pitch_scales[1]`).
    pub fn validate(&self) -> Result<()> {
        self.grid.validate("grid")?;
        crate::session::check_fanout(
            self.row_count().max(self.grid.len()),
            "grid",
            "grid corners or rows (cells × grid corners)",
        )
    }

    /// The per-corner sub-request of one (cell, corner) pair.
    fn corner_request(&self, cell: &CellRequest, corner: VariationCorner) -> SweepCornerRequest {
        SweepCornerRequest {
            cell: cell.clone(),
            corner,
            metrics: self.metrics,
            mc: self.mc.clone(),
            loads_f: self.loads_f.clone(),
        }
    }
}

/// One cell at one corner: the unit a [`SweepRequest`] fans out, itself a
/// [`SessionRequest`](crate::SessionRequest) memoized in the
/// [`RequestClass::Sweeps`](crate::RequestClass::Sweeps) cache, so
/// overlapping sweeps (and direct submissions) share corner results.
#[derive(Clone, Debug)]
pub struct SweepCornerRequest {
    /// The cell under evaluation.
    pub cell: CellRequest,
    /// The process corner.
    pub corner: VariationCorner,
    /// Metric selection.
    pub metrics: SweepMetrics,
    /// Base Monte-Carlo options (`seed`/`metallic_fraction` overridden by
    /// the corner).
    pub mc: McOptions,
    /// Characterization loads, farads.
    pub loads_f: Vec<f64>,
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// One cell × corner evaluation.
#[derive(Clone, Debug)]
pub struct CornerRow {
    /// Resolved cell name.
    pub cell: String,
    /// Cell function.
    pub kind: crate::core::StdCellKind,
    /// Drive strength.
    pub strength: u8,
    /// The corner this row was evaluated at.
    pub corner: VariationCorner,
    /// Mispositioned tubes sampled (immunity metric only).
    pub mc_tubes: Option<usize>,
    /// Sampled tubes that broke the function (immunity metric only).
    pub mc_failures: Option<usize>,
    /// `failures == 0` (immunity metric only).
    pub immune: Option<bool>,
    /// Analytic probability that none of the cell's tube *sites* is a
    /// surviving metallic short (immunity metric only).
    pub metallic_yield: Option<f64>,
    /// Load-indexed NLDM table (timing/liberty metrics).
    pub timing: Option<TimingTable>,
    /// Rendered liberty `cell` group (liberty metric only).
    pub liberty: Option<String>,
    /// Rendered `time in out i(vdd)` transient table at the first
    /// characterization load
    /// ([`SweepMetrics::retain_waveforms`] only).
    pub waveform: Option<String>,
}

impl CornerRow {
    /// Propagation delay at the first characterization load, seconds.
    pub fn delay_s(&self) -> Option<f64> {
        self.timing
            .as_ref()
            .and_then(|t| t.delays_s.first().copied())
    }

    /// Switching energy per output cycle, joules.
    pub fn energy_j(&self) -> Option<f64> {
        self.timing.as_ref().map(|t| t.energy_j)
    }

    /// Fraction of sampled mispositioned tubes that left the function
    /// intact.
    pub fn functional_yield(&self) -> Option<f64> {
        match (self.mc_tubes, self.mc_failures) {
            (Some(tubes), Some(failures)) if tubes > 0 => {
                Some(1.0 - failures as f64 / tubes as f64)
            }
            (Some(_), Some(_)) => Some(1.0),
            _ => None,
        }
    }

    /// Combined per-corner yield: functional (mispositioning) ×
    /// surviving-metallic.
    pub fn yield_frac(&self) -> Option<f64> {
        match (self.functional_yield(), self.metallic_yield) {
            (Some(f), Some(m)) => Some(f * m),
            (Some(f), None) => Some(f),
            (None, Some(m)) => Some(m),
            (None, None) => None,
        }
    }
}

/// Per-corner aggregate over every swept cell.
#[derive(Clone, Debug)]
pub struct CornerSummary {
    /// Index of the corner in [`SweepReport::corners`].
    pub corner_index: usize,
    /// The corner itself.
    pub corner: VariationCorner,
    /// Worst (minimum) combined yield across the cells.
    pub min_yield: Option<f64>,
    /// Slowest cell delay at this corner, seconds.
    pub max_delay_s: Option<f64>,
    /// Summed switching energy across the cells, joules.
    pub total_energy_j: Option<f64>,
}

/// The reduction of a [`SweepRequest`]: rows, Pareto frontier, and
/// best/worst corner summaries.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Number of distinct cell requests swept.
    pub cells: usize,
    /// The grid corners in canonical order ([`VariationGrid::corners`]).
    pub corners: Vec<VariationCorner>,
    /// One row per cell × corner, cell-major: row `(c, k)` lives at index
    /// `c * corners.len() + k`.
    pub rows: Vec<CornerRow>,
    /// Indices (into `rows`) of the delay/energy/yield Pareto frontier:
    /// rows no other row beats on every available metric at once.
    pub pareto: Vec<usize>,
    /// The corner with the best (max-min-yield, then fastest, then most
    /// frugal) aggregate.
    pub best_corner: Option<CornerSummary>,
    /// The corner with the worst aggregate.
    pub worst_corner: Option<CornerSummary>,
}

impl SweepReport {
    /// The row of cell `cell` (index into the request's cell list) at
    /// corner `corner` (index into [`SweepReport::corners`]).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn row(&self, cell: usize, corner: usize) -> &CornerRow {
        assert!(cell < self.cells, "cell index {cell} out of range");
        assert!(
            corner < self.corners.len(),
            "corner index {corner} out of range"
        );
        &self.rows[cell * self.corners.len() + corner]
    }

    /// The Pareto-frontier rows themselves.
    pub fn pareto_rows(&self) -> impl Iterator<Item = &CornerRow> {
        self.pareto.iter().map(|&i| &self.rows[i])
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Executes a whole sweep on a session: fan out one
/// [`SweepCornerRequest`] per cell × corner through the job pool, help
/// drain the sweep's own batch while waiting, reduce into a
/// [`SweepReport`].
pub(crate) fn execute_sweep(request: &SweepRequest, session: &Session) -> Result<Arc<SweepReport>> {
    request.validate()?;
    let corners = request.grid.corners();
    let rows = session
        .fan_out(request.cells.iter().flat_map(|cell| {
            corners
                .iter()
                .map(|&corner| request.corner_request(cell, corner))
        }))
        .observed(request.observer.as_ref())?;
    Ok(Arc::new(assemble(request.cells.len(), corners, rows)))
}

/// Evaluates one cell at one corner.
pub(crate) fn execute_corner(request: &SweepCornerRequest, session: &Session) -> Result<CornerRow> {
    request.corner.validate("corner")?;
    let result = session.run(&request.cell)?;
    let cell = result.cell.clone();
    let corner = request.corner;
    let kind = request.cell.kind;
    let strength = request.cell.strength.max(1);

    let (mc_tubes, mc_failures, immune, metallic) = if request.metrics.immunity {
        let report = simulate(
            result.trace_map(),
            &McOptions {
                seed: corner.seed,
                metallic_fraction: corner.metallic_fraction,
                ..request.mc.clone()
            },
        );
        // Analytic surviving-metallic yield over the cell's tube sites:
        // every device of the strength-replicated networks grows
        // `tubes_per_4lambda` tubes, and one surviving metallic tube
        // shorts its device.
        let (pdn, pun, _) = kind.networks();
        let sites = (pdn.device_count() + pun.device_count()) as u64 * strength as u64;
        let process = MetallicProcess {
            metallic_fraction: corner.metallic_fraction,
            removal_efficiency: 0.0,
        };
        let m_yield = metallic_yield(&process, sites * corner.tubes_per_4lambda as u64);
        (
            Some(report.tubes),
            Some(report.failures),
            Some(report.failures == 0),
            Some(m_yield),
        )
    } else {
        (None, None, None, None)
    };

    let (timing, waveform) = if request.metrics.needs_characterization() {
        let kit = session.kit();
        let lib_cell =
            LibCell::from_layout(kit, kind, strength, cell.clone(), corner.tubes_per_4lambda);
        let char_corner = CharCorner {
            tubes_per_4lambda: corner.tubes_per_4lambda.max(1),
            pitch_scale: corner.pitch_scale,
        };
        if request.metrics.retain_waveforms {
            let (table, wave) =
                crate::dk::characterize_cell_traces(kit, &lib_cell, &request.loads_f, char_corner)?;
            (Some(table), wave)
        } else {
            let table =
                crate::dk::characterize_cell_at(kit, &lib_cell, &request.loads_f, char_corner)?;
            (Some(table), None)
        }
    } else {
        (None, None)
    };

    let liberty = if request.metrics.liberty {
        timing
            .as_ref()
            .map(|table| liberty_cell_group(&cell.name, kind, table))
    } else {
        None
    };

    Ok(CornerRow {
        cell: cell.name.clone(),
        kind,
        strength,
        corner,
        mc_tubes,
        mc_failures,
        immune,
        metallic_yield: metallic,
        timing,
        liberty,
        waveform,
    })
}

/// Renders one row's liberty-style `cell` group (same units and float
/// formats as [`crate::dk::write_liberty`], so the snippet splices into a
/// library view).
fn liberty_cell_group(name: &str, kind: crate::core::StdCellKind, table: &TimingTable) -> String {
    use std::fmt::Write as _;
    let (f, vars) = kind.function();
    let mut out = String::new();
    let _ = writeln!(out, "cell ({name}) {{");
    let _ = writeln!(out, "  pin (OUT) {{");
    let _ = writeln!(out, "    direction : output;");
    let _ = writeln!(out, "    function : \"{}\";", f.display(&vars));
    let _ = writeln!(out, "    timing () {{");
    let loads: Vec<String> = table
        .loads_f
        .iter()
        .map(|l| format!("{:.4}", l * 1e15))
        .collect();
    let delays: Vec<String> = table
        .delays_s
        .iter()
        .map(|d| format!("{:.2}", d * 1e12))
        .collect();
    let _ = writeln!(out, "      index_1 (\"{}\");", loads.join(", "));
    let _ = writeln!(out, "      values (\"{}\");", delays.join(", "));
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

// ---------------------------------------------------------------------------
// Reduction
// ---------------------------------------------------------------------------

/// Reduces the harvested rows into the report: Pareto frontier plus
/// best/worst corner summaries, all deterministic in row order.
fn assemble(cells: usize, corners: Vec<VariationCorner>, rows: Vec<CornerRow>) -> SweepReport {
    debug_assert_eq!(rows.len(), cells * corners.len());
    let pareto = pareto_frontier(&rows);
    let (best_corner, worst_corner) = corner_summaries(&corners, &rows, cells);
    SweepReport {
        cells,
        corners,
        rows,
        pareto,
        best_corner,
        worst_corner,
    }
}

/// `a` dominates `b` when it is no worse on every *shared* metric and
/// strictly better on at least one. Metrics missing on either side are
/// treated as tied, so immunity-only sweeps still get a yield frontier.
fn dominates(a: &CornerRow, b: &CornerRow) -> bool {
    // (value of a, value of b, lower_is_better)
    let axes = [
        (a.delay_s(), b.delay_s(), true),
        (a.energy_j(), b.energy_j(), true),
        (a.yield_frac(), b.yield_frac(), false),
    ];
    let mut strictly_better = false;
    for (va, vb, lower) in axes {
        let (Some(va), Some(vb)) = (va, vb) else {
            continue;
        };
        let (better, worse) = if lower {
            (va < vb, va > vb)
        } else {
            (va > vb, va < vb)
        };
        if worse {
            return false;
        }
        if better {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Indices of the non-dominated rows, in row order.
fn pareto_frontier(rows: &[CornerRow]) -> Vec<usize> {
    (0..rows.len())
        .filter(|&i| {
            !rows
                .iter()
                .enumerate()
                .any(|(j, r)| j != i && dominates(r, &rows[i]))
        })
        .collect()
}

/// Best and worst corner by (min-yield desc, max-delay asc, total-energy
/// asc), ties broken by corner index (earlier wins for best, later for
/// worst), so the summaries are deterministic.
fn corner_summaries(
    corners: &[VariationCorner],
    rows: &[CornerRow],
    cells: usize,
) -> (Option<CornerSummary>, Option<CornerSummary>) {
    if corners.is_empty() || cells == 0 {
        return (None, None);
    }
    let summaries: Vec<CornerSummary> = corners
        .iter()
        .enumerate()
        .map(|(k, &corner)| {
            let corner_rows = (0..cells).map(|c| &rows[c * corners.len() + k]);
            let mut min_yield: Option<f64> = None;
            let mut max_delay: Option<f64> = None;
            let mut total_energy: Option<f64> = None;
            for row in corner_rows {
                if let Some(y) = row.yield_frac() {
                    min_yield = Some(min_yield.map_or(y, |m: f64| m.min(y)));
                }
                if let Some(d) = row.delay_s() {
                    max_delay = Some(max_delay.map_or(d, |m: f64| m.max(d)));
                }
                if let Some(e) = row.energy_j() {
                    total_energy = Some(total_energy.unwrap_or(0.0) + e);
                }
            }
            CornerSummary {
                corner_index: k,
                corner,
                min_yield,
                max_delay_s: max_delay,
                total_energy_j: total_energy,
            }
        })
        .collect();

    // Higher is better: (yield, -delay, -energy); missing metrics rank
    // as the worst value of their axis.
    let score = |s: &CornerSummary| {
        (
            s.min_yield.unwrap_or(f64::NEG_INFINITY),
            -s.max_delay_s.unwrap_or(f64::INFINITY),
            -s.total_energy_j.unwrap_or(f64::INFINITY),
        )
    };
    let better = |a: &CornerSummary, b: &CornerSummary| score(a) > score(b);
    let mut best = 0;
    let mut worst = 0;
    for k in 1..summaries.len() {
        if better(&summaries[k], &summaries[best]) {
            best = k;
        }
        if !better(&summaries[k], &summaries[worst]) {
            worst = k;
        }
    }
    (
        Some(summaries[best].clone()),
        Some(summaries[worst].clone()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(delay: Option<f64>, energy: Option<f64>, yf: Option<f64>) -> CornerRow {
        CornerRow {
            cell: "T".into(),
            kind: crate::core::StdCellKind::Inv,
            strength: 1,
            corner: VariationCorner::nominal(),
            mc_tubes: yf.map(|_| 1000),
            mc_failures: yf.map(|y| ((1.0 - y) * 1000.0).round() as usize),
            immune: yf.map(|y| y == 1.0),
            metallic_yield: yf.map(|_| 1.0),
            timing: delay.map(|d| TimingTable {
                loads_f: vec![1e-15],
                delays_s: vec![d],
                energy_j: energy.unwrap_or(0.0),
            }),
            liberty: None,
            waveform: None,
        }
    }

    #[test]
    fn grid_cross_product_order_is_canonical() {
        let grid = VariationGrid::nominal()
            .tube_counts([26, 10])
            .metallic_fractions([0.0, 0.5])
            .seeds([1, 2]);
        assert_eq!(grid.len(), 8);
        let corners = grid.corners();
        assert_eq!(corners.len(), 8);
        // Seed varies fastest, tube count slowest.
        assert_eq!(corners[0].seed, 1);
        assert_eq!(corners[1].seed, 2);
        assert_eq!(corners[0].metallic_fraction, 0.0);
        assert_eq!(corners[2].metallic_fraction, 0.5);
        assert_eq!(corners[0].tubes_per_4lambda, 26);
        assert_eq!(corners[4].tubes_per_4lambda, 10);
        assert!(!grid.is_empty());
        assert!(VariationGrid::nominal().seeds([]).is_empty());
    }

    #[test]
    fn pareto_keeps_only_non_dominated_rows() {
        let rows = vec![
            row(Some(1.0), Some(1.0), Some(1.0)), // best on everything
            row(Some(2.0), Some(2.0), Some(0.5)), // dominated by 0
            row(Some(0.5), Some(3.0), Some(1.0)), // faster but hungrier
        ];
        assert_eq!(pareto_frontier(&rows), vec![0, 2]);
    }

    #[test]
    fn pareto_handles_missing_metrics_as_ties() {
        let rows = vec![
            row(None, None, Some(1.0)),
            row(None, None, Some(0.25)),
            row(None, None, Some(1.0)),
        ];
        // Yield-only frontier: both 100% rows survive.
        assert_eq!(pareto_frontier(&rows), vec![0, 2]);
    }

    #[test]
    fn corner_summaries_rank_deterministically() {
        let corners = vec![
            VariationCorner::nominal(),
            VariationCorner {
                metallic_fraction: 0.5,
                ..VariationCorner::nominal()
            },
        ];
        // Two cells × two corners, cell-major.
        let rows = vec![
            row(Some(1.0), Some(1.0), Some(1.0)),
            row(Some(2.0), Some(1.5), Some(0.5)),
            row(Some(1.2), Some(1.1), Some(0.9)),
            row(Some(2.5), Some(1.7), Some(0.4)),
        ];
        let (best, worst) = corner_summaries(&corners, &rows, 2);
        let best = best.unwrap();
        let worst = worst.unwrap();
        assert_eq!(best.corner_index, 0);
        assert_eq!(worst.corner_index, 1);
        assert_eq!(best.min_yield, Some(0.9));
        assert_eq!(best.max_delay_s, Some(1.2));
        assert!((best.total_energy_j.unwrap() - 2.1).abs() < 1e-12);
        assert_eq!(worst.min_yield, Some(0.4));
    }

    #[test]
    fn canonical_folds_negative_zero() {
        let grid = VariationGrid::nominal()
            .pitch_scales([-0.0, 1.0])
            .metallic_fractions([-0.0])
            .canonical();
        assert_eq!(grid.pitch_scales[0].to_bits(), 0.0_f64.to_bits());
        assert_eq!(grid.metallic_fractions[0].to_bits(), 0.0_f64.to_bits());
        // Canonicalization changes bits, not values: the grids compare equal.
        assert_eq!(grid, grid.clone().canonical());

        let corner = VariationCorner {
            pitch_scale: -0.0,
            metallic_fraction: -0.0,
            ..VariationCorner::nominal()
        }
        .canonical();
        assert_eq!(corner.pitch_scale.to_bits(), 0.0_f64.to_bits());
        assert_eq!(corner.metallic_fraction.to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn validate_rejects_nan_and_negative_axes() {
        let nan = VariationGrid::nominal().metallic_fractions([0.0, f64::NAN]);
        let err = nan.validate("grid").unwrap_err();
        match err {
            crate::CnfetError::InvalidRequest { field, message } => {
                assert_eq!(field, "grid.metallic_fractions[1]");
                assert!(message.contains("NaN"));
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }

        let negative = VariationGrid::nominal().pitch_scales([-1.0]);
        assert!(negative.validate("grid").is_err());
        let infinite = VariationGrid::nominal().pitch_scales([f64::INFINITY]);
        assert!(infinite.validate("grid").is_err());
        // -0.0 is zero: valid.
        assert!(VariationGrid::nominal()
            .pitch_scales([-0.0])
            .validate("grid")
            .is_ok());

        let corner = VariationCorner {
            metallic_fraction: f64::NAN,
            ..VariationCorner::nominal()
        };
        assert!(corner.validate("corner").is_err());
    }

    #[test]
    fn yield_composes_functional_and_metallic() {
        let mut r = row(None, None, Some(0.8));
        r.metallic_yield = Some(0.5);
        assert!((r.yield_frac().unwrap() - 0.4).abs() < 1e-12);
        r.mc_tubes = None;
        r.mc_failures = None;
        assert_eq!(r.yield_frac(), Some(0.5));
    }

    #[test]
    fn sweeps_over_max_fanout_are_refused() {
        use crate::core::StdCellKind;
        use crate::request::SessionRequest;
        use crate::{CnfetError, Session, MAX_FANOUT};
        let session = Session::new();
        // 1,024 tube counts × 1,024 seeds is exactly the bound per cell.
        let grid = VariationGrid::nominal()
            .tube_counts(1..=1024)
            .seeds(0..1024);
        let one = SweepRequest::new([StdCellKind::Inv]).grid(grid.clone());
        assert_eq!(one.row_count(), MAX_FANOUT);
        assert!(one.validate().is_ok());
        let two = SweepRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)]).grid(grid);
        match two.validate() {
            Err(CnfetError::InvalidRequest { field, .. }) => assert_eq!(field, "grid"),
            other => panic!("expected an invalid request, got {other:?}"),
        }
        assert!(two.cache_key(&session).is_none());
        // With no cells there are no rows, but the corners are still
        // allocated: a grid past the bound is refused all the same.
        let none = SweepRequest::new(Vec::<StdCellKind>::new()).grid(
            VariationGrid::nominal()
                .tube_counts(1..=1025)
                .seeds(0..1024),
        );
        assert_eq!(none.row_count(), 0);
        assert!(matches!(
            none.validate(),
            Err(CnfetError::InvalidRequest { field, .. }) if field == "grid"
        ));
        assert!(none.cache_key(&session).is_none());
        // Float axes are still checked first, with their index named.
        let nan = SweepRequest::new([StdCellKind::Inv])
            .grid(VariationGrid::nominal().pitch_scales([1.0, f64::NAN]));
        assert!(matches!(
            nan.validate(),
            Err(CnfetError::InvalidRequest { field, .. }) if field == "grid.pitch_scales[1]"
        ));
    }
}
