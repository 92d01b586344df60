//! Processing↔circuit co-optimization: a derivative-free search over
//! the variation-grid axes as a composite
//! [`SessionRequest`](crate::SessionRequest).
//!
//! The sweep layer ([`crate::sweep`]) answers "what happens at these
//! corners"; this module answers the question Hills et al. pose for
//! CNFET design — *which* processing point (tube count, pitch spread,
//! surviving-metallic fraction) meets a circuit-level yield/delay/energy
//! target. An [`OptimizeRequest`] names the cells, the search axes (a
//! [`VariationGrid`]), an [`OptimizeTarget`], and a pass count; the
//! session answers with an [`OptimizeReport`]: the full candidate
//! trajectory, the best candidate, and whether the target was met.
//!
//! # The search
//!
//! Coordinate descent with successive-halving refinement, on a **fixed,
//! deterministic schedule** — the trajectory depends only on the request
//! (never on timing, worker count, or cache state):
//!
//! 1. The current point starts at the first value of each axis.
//! 2. Each pass walks the axes in order (tube count, pitch scale,
//!    metallic fraction). An *axis round* evaluates every value of that
//!    axis with the other coordinates held at the current point, then
//!    moves the point to the round's lowest-scoring coordinate (ties:
//!    earliest) if that improves on the point's score.
//! 3. Between passes the two continuous axes are *halved*: each is
//!    replaced by the same number of points, evenly spaced over half its
//!    previous span, centered on the current point (pitch clamped to
//!    `[0, ∞)`, metallic fraction to `[0, 1]`). The discrete tube-count
//!    axis is re-walked in full each pass.
//!
//! A candidate's *score* is the sum of its target violations (0 when the
//! target is met); see [`OptimizeTarget::score`].
//!
//! # Nesting and memoization
//!
//! This is the engine's deepest composite nesting: optimize → sweeps →
//! corners → cells. Every candidate evaluation **is** a memoized
//! [`SweepRequest`] (one single-point grid × the seed axis), fanned
//! through the session's job pool with the same batch-targeted helping
//! rule the sweep and repair layers use — the executing thread helps
//! drain only its own batch, so a bounded worker set never deadlocks on
//! the nested fan-outs, and overlapping candidates re-execute only new
//! corners.
//!
//! Memoization works at both granularities in the
//! [`RequestClass::Optimizations`](crate::RequestClass::Optimizations)
//! cache: a repeated search is one pure whole-trajectory hit, and each
//! measured candidate ([`CandidateOutcome`]) is memoized **target-free**
//! — re-running a search with a widened or different target replays
//! every already-measured candidate as a hit and the optimizer gets
//! cheaper as it converges.
//!
//! # Example
//!
//! ```
//! use cnfet::core::StdCellKind;
//! use cnfet::immunity::McOptions;
//! use cnfet::{OptimizeRequest, OptimizeTarget, Session, SweepMetrics, VariationGrid};
//!
//! let session = Session::new();
//! let request = OptimizeRequest::new([StdCellKind::Inv])
//!     .grid(
//!         VariationGrid::nominal()
//!             .tube_counts([26, 10])
//!             .metallic_fractions([0.0, 0.02]),
//!     )
//!     .target(OptimizeTarget::new().min_yield(0.5))
//!     .passes(1)
//!     .metrics(SweepMetrics::IMMUNITY)
//!     .mc(McOptions {
//!         tubes: 100,
//!         ..McOptions::default()
//!     });
//!
//! let report = session.run(&request)?;
//! assert_eq!(report.candidates.len(), request.candidate_count());
//! assert!(report.converged);
//! // Repeating the search is a pure Optimizations-class cache hit.
//! let again = session.run(&request)?;
//! assert!(std::sync::Arc::ptr_eq(&report, &again));
//! # Ok::<(), cnfet::CnfetError>(())
//! ```

use crate::error::Result;
use crate::immunity::McOptions;
use crate::session::{check_fanout, CellRequest, Observer, Session};
use crate::sweep::{
    canonical_axis_value, check_axis_value, SweepMetrics, SweepRequest, VariationGrid,
};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------------

/// The constraint set a search drives toward. Every field is optional;
/// a candidate *meets* the target when each set constraint is satisfied
/// by its measured aggregate ([`CandidateOutcome`]). An empty target is
/// trivially met by every candidate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OptimizeTarget {
    /// Lower bound on the candidate's worst per-row combined yield.
    pub min_yield: Option<f64>,
    /// Upper bound on the candidate's slowest cell delay, seconds.
    pub max_delay_s: Option<f64>,
    /// Upper bound on the candidate's worst per-corner summed switching
    /// energy, joules.
    pub max_energy_j: Option<f64>,
}

impl OptimizeTarget {
    /// An empty target (no constraints).
    pub fn new() -> OptimizeTarget {
        OptimizeTarget::default()
    }

    /// Sets the minimum-yield constraint.
    #[must_use]
    pub fn min_yield(mut self, fraction: f64) -> OptimizeTarget {
        self.min_yield = Some(fraction);
        self
    }

    /// Sets the maximum-delay constraint, seconds.
    #[must_use]
    pub fn max_delay_s(mut self, seconds: f64) -> OptimizeTarget {
        self.max_delay_s = Some(seconds);
        self
    }

    /// Sets the maximum-energy constraint, joules.
    #[must_use]
    pub fn max_energy_j(mut self, joules: f64) -> OptimizeTarget {
        self.max_energy_j = Some(joules);
        self
    }

    /// The target with its floats in canonical form (`-0.0` folded to
    /// `0.0`) — trajectory cache keys render the canonical target.
    #[must_use]
    pub fn canonical(mut self) -> OptimizeTarget {
        self.min_yield = self.min_yield.map(canonical_axis_value);
        self.max_delay_s = self.max_delay_s.map(canonical_axis_value);
        self.max_energy_j = self.max_energy_j.map(canonical_axis_value);
        self
    }

    /// Checks every set constraint is usable: the yield bound a finite
    /// fraction in `[0, 1]`, the delay and energy bounds finite and
    /// strictly positive (they divide the relative violations). `prefix`
    /// names the target in the reported field path.
    ///
    /// # Errors
    ///
    /// [`CnfetError::InvalidRequest`](crate::CnfetError::InvalidRequest)
    /// naming the offending field.
    pub fn validate(&self, prefix: &str) -> Result<()> {
        if let Some(y) = self.min_yield {
            if !(y.is_finite() && (0.0..=1.0).contains(&y)) {
                return Err(crate::CnfetError::InvalidRequest {
                    field: format!("{prefix}.min_yield"),
                    message: format!("expected a finite fraction in [0, 1], got {y}"),
                });
            }
        }
        for (value, name) in [
            (self.max_delay_s, "max_delay_s"),
            (self.max_energy_j, "max_energy_j"),
        ] {
            if let Some(v) = value {
                if !(v.is_finite() && v > 0.0) {
                    return Err(crate::CnfetError::InvalidRequest {
                        field: format!("{prefix}.{name}"),
                        message: format!("expected a finite positive number, got {v}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// The candidate's total target violation: `0.0` exactly when every
    /// set constraint is met. Yield contributes its absolute shortfall
    /// (yields are already fractions); delay and energy contribute their
    /// relative excess. A set constraint whose metric the candidate did
    /// not measure (e.g. a delay bound on an immunity-only sweep)
    /// contributes a full violation of `1.0`.
    pub fn score(&self, outcome: &CandidateOutcome) -> f64 {
        let mut score = 0.0;
        if let Some(bound) = self.min_yield {
            score += match outcome.min_yield {
                Some(y) if y >= bound => 0.0,
                Some(y) => bound - y,
                None => 1.0,
            };
        }
        if let Some(bound) = self.max_delay_s {
            score += match outcome.max_delay_s {
                Some(d) if d <= bound => 0.0,
                Some(d) => d / bound - 1.0,
                None => 1.0,
            };
        }
        if let Some(bound) = self.max_energy_j {
            score += match outcome.total_energy_j {
                Some(e) if e <= bound => 0.0,
                Some(e) => e / bound - 1.0,
                None => 1.0,
            };
        }
        score
    }

    /// Whether the candidate satisfies every set constraint.
    pub fn met_by(&self, outcome: &CandidateOutcome) -> bool {
        self.score(outcome) == 0.0
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A processing↔circuit co-optimization search — the engine's deepest
/// composite request (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use cnfet::core::StdCellKind;
/// use cnfet::immunity::McOptions;
/// use cnfet::{OptimizeRequest, OptimizeTarget, Session, SweepMetrics, VariationGrid};
///
/// let request = OptimizeRequest::new([StdCellKind::Inv])
///     .grid(VariationGrid::nominal().metallic_fractions([0.0, 0.05]))
///     .target(OptimizeTarget::new().min_yield(0.9))
///     .passes(1)
///     .metrics(SweepMetrics::IMMUNITY)
///     .mc(McOptions { tubes: 50, ..McOptions::default() });
/// let report = Session::new().run(&request)?;
/// assert_eq!(report.candidates.len(), 4, "1 tube + 1 pitch + 2 metallic");
/// # Ok::<(), cnfet::CnfetError>(())
/// ```
#[derive(Clone, Debug)]
pub struct OptimizeRequest {
    /// Cells every candidate is evaluated over; each is generated
    /// through the session cell cache.
    pub cells: Vec<CellRequest>,
    /// The search axes: `tube_counts`, `pitch_scales`, and
    /// `metallic_fractions` are the coordinates being searched;
    /// `seeds` is the MC replication every candidate is averaged over
    /// (each candidate's sweep runs every seed).
    pub grid: VariationGrid,
    /// The constraint set the search drives toward.
    pub target: OptimizeTarget,
    /// Coordinate-descent passes; the continuous axes halve their span
    /// between passes.
    pub passes: u32,
    /// Metric selection for every candidate sweep.
    pub metrics: SweepMetrics,
    /// Base Monte-Carlo options (`seed`/`metallic_fraction` overridden
    /// per corner, exactly as in a direct sweep).
    pub mc: McOptions,
    /// Characterization loads, farads.
    pub loads_f: Vec<f64>,
    /// Per-candidate progress hook, fed rows in schedule order; excluded
    /// from the cache key (see [`Observer`]).
    observer: Option<Observer<CandidateRow>>,
}

impl OptimizeRequest {
    /// A two-pass search of the given cells over the nominal grid with
    /// an empty target, every metric, default MC options, and a single
    /// 1 fF load.
    pub fn new(cells: impl IntoIterator<Item = impl Into<CellRequest>>) -> OptimizeRequest {
        OptimizeRequest {
            cells: cells.into_iter().map(Into::into).collect(),
            grid: VariationGrid::nominal(),
            target: OptimizeTarget::default(),
            passes: 2,
            metrics: SweepMetrics::ALL,
            mc: McOptions::default(),
            loads_f: vec![1e-15],
            observer: None,
        }
    }

    /// Replaces the search axes.
    #[must_use]
    pub fn grid(mut self, grid: VariationGrid) -> OptimizeRequest {
        self.grid = grid;
        self
    }

    /// Replaces the target.
    #[must_use]
    pub fn target(mut self, target: OptimizeTarget) -> OptimizeRequest {
        self.target = target;
        self
    }

    /// Sets the pass count.
    #[must_use]
    pub fn passes(mut self, passes: u32) -> OptimizeRequest {
        self.passes = passes;
        self
    }

    /// Replaces the metric selection.
    #[must_use]
    pub fn metrics(mut self, metrics: SweepMetrics) -> OptimizeRequest {
        self.metrics = metrics;
        self
    }

    /// Replaces the base Monte-Carlo options.
    #[must_use]
    pub fn mc(mut self, mc: McOptions) -> OptimizeRequest {
        self.mc = mc;
        self
    }

    /// Replaces the characterization load list.
    #[must_use]
    pub fn loads(mut self, loads_f: impl IntoIterator<Item = f64>) -> OptimizeRequest {
        self.loads_f = loads_f.into_iter().collect();
        self
    }

    /// Attaches a per-candidate progress observer, fed rows in
    /// [`OptimizeReport::candidates`] order (see [`Observer`] for the
    /// cache-interaction contract).
    #[must_use]
    pub fn observe_candidates(mut self, observer: Observer<CandidateRow>) -> OptimizeRequest {
        self.observer = Some(observer);
        self
    }

    /// Exact number of candidates the fixed schedule will evaluate:
    /// `passes × (|tube_counts| + |pitch_scales| + |metallic_fractions|)`
    /// — refinement replaces axis values but never their count. The
    /// count a streaming consumer should expect before the report lands.
    ///
    /// Saturates at `usize::MAX`.
    pub fn candidate_count(&self) -> usize {
        (self.passes as usize).saturating_mul(
            self.grid.tube_counts.len()
                + self.grid.pitch_scales.len()
                + self.grid.metallic_fractions.len(),
        )
    }

    /// Checks the request describes a runnable search: at least one
    /// cell, one pass, a non-empty value list on every axis (including
    /// seeds), valid grid floats, a valid target, and at most
    /// [`MAX_FANOUT`](crate::MAX_FANOUT) candidates and rows per
    /// candidate sweep (cells × seeds).
    ///
    /// # Errors
    ///
    /// [`CnfetError::InvalidRequest`](crate::CnfetError::InvalidRequest)
    /// naming the offending field.
    pub fn validate(&self) -> Result<()> {
        let invalid = |field: &str, message: &str| crate::CnfetError::InvalidRequest {
            field: field.to_string(),
            message: message.to_string(),
        };
        if self.cells.is_empty() {
            return Err(invalid("cells", "expected at least one cell"));
        }
        if self.passes == 0 {
            return Err(invalid("passes", "expected at least one search pass"));
        }
        for (len, name) in [
            (self.grid.tube_counts.len(), "grid.tube_counts"),
            (self.grid.pitch_scales.len(), "grid.pitch_scales"),
            (
                self.grid.metallic_fractions.len(),
                "grid.metallic_fractions",
            ),
            (self.grid.seeds.len(), "grid.seeds"),
        ] {
            if len == 0 {
                return Err(invalid(name, "expected a non-empty axis"));
            }
        }
        self.grid.validate("grid")?;
        self.target.validate("target")?;
        check_fanout(self.candidate_count(), "passes", "candidates")?;
        check_sweep_rows(self.cells.len(), self.grid.seeds.len(), "grid.seeds")
    }

    /// The per-candidate sub-request at one coordinate triple.
    fn candidate_request(&self, coords: (u32, f64, f64)) -> OptimizeCandidateRequest {
        OptimizeCandidateRequest {
            cells: self.cells.clone(),
            tubes_per_4lambda: coords.0,
            pitch_scale: coords.1,
            metallic_fraction: coords.2,
            seeds: self.grid.seeds.clone(),
            metrics: self.metrics,
            mc: self.mc.clone(),
            loads_f: self.loads_f.clone(),
        }
    }
}

/// One candidate processing point: the unit an [`OptimizeRequest`]
/// measures, itself a [`SessionRequest`](crate::SessionRequest) memoized
/// in the [`RequestClass::Optimizations`](crate::RequestClass::Optimizations)
/// cache. The key holds the candidate's coordinates and evaluation
/// configuration but **never any target** — overlapping searches (and
/// direct submissions) share measured candidates whatever they were
/// searching for.
#[derive(Clone, Debug)]
pub struct OptimizeCandidateRequest {
    /// Cells evaluated at this point (generated through the session
    /// cache).
    pub cells: Vec<CellRequest>,
    /// Tube-count coordinate (CNTs per 4λ).
    pub tubes_per_4lambda: u32,
    /// Pitch-scale coordinate.
    pub pitch_scale: f64,
    /// Metallic-fraction coordinate.
    pub metallic_fraction: f64,
    /// MC replication seeds; the candidate's sweep runs every seed.
    pub seeds: Vec<u64>,
    /// Metric selection.
    pub metrics: SweepMetrics,
    /// Base Monte-Carlo options.
    pub mc: McOptions,
    /// Characterization loads, farads.
    pub loads_f: Vec<f64>,
}

impl OptimizeCandidateRequest {
    /// The candidate with its float coordinates in canonical form
    /// (`-0.0` folded to `0.0`) — cache keys render the canonical
    /// candidate.
    #[must_use]
    pub fn canonical(mut self) -> OptimizeCandidateRequest {
        self.pitch_scale = canonical_axis_value(self.pitch_scale);
        self.metallic_fraction = canonical_axis_value(self.metallic_fraction);
        self
    }

    /// Checks the candidate is measurable: at least one cell and one
    /// seed, at most [`MAX_FANOUT`](crate::MAX_FANOUT) sweep rows
    /// (cells × seeds), finite non-negative float coordinates.
    ///
    /// # Errors
    ///
    /// [`CnfetError::InvalidRequest`](crate::CnfetError::InvalidRequest)
    /// naming the offending field.
    pub fn validate(&self) -> Result<()> {
        let invalid = |field: &str, message: &str| crate::CnfetError::InvalidRequest {
            field: field.to_string(),
            message: message.to_string(),
        };
        if self.cells.is_empty() {
            return Err(invalid("cells", "expected at least one cell"));
        }
        if self.seeds.is_empty() {
            return Err(invalid("seeds", "expected at least one seed"));
        }
        check_sweep_rows(self.cells.len(), self.seeds.len(), "seeds")?;
        check_axis_value(self.pitch_scale, || "pitch_scale".to_string())?;
        check_axis_value(self.metallic_fraction, || "metallic_fraction".to_string())
    }

    /// The memoized sweep this candidate's measurement **is**: a
    /// single-point grid (this candidate's canonical coordinates) × the
    /// seed axis. Both the optimizer's fan-out and the candidate's own
    /// `execute` build the sweep through this one constructor, so the
    /// two always agree on the sweep's cache key.
    pub fn sweep_request(&self) -> SweepRequest {
        let canonical = self.clone().canonical();
        SweepRequest::new(self.cells.iter().cloned())
            .grid(VariationGrid {
                tube_counts: vec![canonical.tubes_per_4lambda],
                pitch_scales: vec![canonical.pitch_scale],
                metallic_fractions: vec![canonical.metallic_fraction],
                seeds: canonical.seeds.clone(),
            })
            .metrics(self.metrics)
            .mc(self.mc.clone())
            .loads(self.loads_f.iter().copied())
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Target-free aggregate measurements of one candidate point — what the
/// [`RequestClass::Optimizations`](crate::RequestClass::Optimizations)
/// cache memoizes per candidate. Worst-case over the candidate's sweep:
/// the minimum per-row combined yield, the slowest cell delay, and the
/// largest per-corner summed switching energy. Metrics the sweep did
/// not measure are `None`.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidateOutcome {
    /// Tube-count coordinate (CNTs per 4λ).
    pub tubes_per_4lambda: u32,
    /// Pitch-scale coordinate (canonical form).
    pub pitch_scale: f64,
    /// Metallic-fraction coordinate (canonical form).
    pub metallic_fraction: f64,
    /// Sweep rows the aggregates reduce (cells × seeds).
    pub rows: usize,
    /// Worst per-row combined yield across the candidate's sweep.
    pub min_yield: Option<f64>,
    /// Slowest cell delay across the candidate's sweep, seconds.
    pub max_delay_s: Option<f64>,
    /// Largest per-corner summed switching energy, joules.
    pub total_energy_j: Option<f64>,
}

/// One scored entry of an [`OptimizeReport`] trajectory: which schedule
/// slot produced it, what was measured, and how it ranked.
#[derive(Clone, Debug)]
pub struct CandidateRow {
    /// Position in the schedule (and in
    /// [`OptimizeReport::candidates`]).
    pub index: usize,
    /// Zero-based coordinate-descent pass.
    pub pass: u32,
    /// The axis whose round produced this candidate.
    pub axis: OptimizeAxis,
    /// The measured aggregates.
    pub outcome: CandidateOutcome,
    /// Total target violation ([`OptimizeTarget::score`]); `0.0` when
    /// the target is met.
    pub score: f64,
    /// Whether this candidate satisfies every set constraint.
    pub meets_target: bool,
    /// Whether this candidate strictly improved on every earlier one —
    /// the candidate held [`OptimizeReport::best_index`] when it landed.
    pub best_so_far: bool,
}

/// The axis a candidate's round was walking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OptimizeAxis {
    /// The discrete tube-count axis.
    TubeCount,
    /// The continuous pitch-scale axis.
    PitchScale,
    /// The continuous metallic-fraction axis.
    MetallicFraction,
}

impl OptimizeAxis {
    /// Stable lower-case name (`"tubes"`, `"pitch"`, `"metallic"`) —
    /// what reports render and the wire protocol speaks.
    pub fn name(self) -> &'static str {
        match self {
            OptimizeAxis::TubeCount => "tubes",
            OptimizeAxis::PitchScale => "pitch",
            OptimizeAxis::MetallicFraction => "metallic",
        }
    }
}

/// The reduction of an [`OptimizeRequest`]: the full candidate
/// trajectory in schedule order, the best candidate, and the verdict.
#[derive(Clone, Debug)]
pub struct OptimizeReport {
    /// Number of distinct cell requests evaluated per candidate.
    pub cells: usize,
    /// The target the trajectory was scored against.
    pub target: OptimizeTarget,
    /// Coordinate-descent passes the schedule ran.
    pub passes: u32,
    /// Every scored candidate, in schedule order (candidate `k` at
    /// index `k`).
    pub candidates: Vec<CandidateRow>,
    /// Index (into `candidates`) of the lowest-scoring candidate, ties
    /// broken toward the earliest. `None` only for an empty trajectory.
    pub best_index: Option<usize>,
    /// Whether the best candidate meets the target.
    pub converged: bool,
}

impl OptimizeReport {
    /// The best candidate row itself.
    pub fn best(&self) -> Option<&CandidateRow> {
        self.best_index.map(|i| &self.candidates[i])
    }

    /// Renders the report as a fixed-layout text table, one line per
    /// candidate plus the search verdict. Deterministic: equal reports
    /// render byte-identically (fixed column widths, fixed float
    /// precision), which is what the determinism suite pins down.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let opt_frac = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.6}"));
        let opt_sci = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.3e}"));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "co-optimization: {} cells, {} passes, {} candidates",
            self.cells,
            self.passes,
            self.candidates.len()
        );
        let _ = writeln!(
            out,
            "target: yield >= {}, delay <= {} s, energy <= {} J",
            opt_frac(self.target.min_yield),
            opt_sci(self.target.max_delay_s),
            opt_sci(self.target.max_energy_j)
        );
        let _ = writeln!(
            out,
            "{:>5} {:>4} {:>8} {:>5} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9} {:>4}",
            "cand",
            "pass",
            "axis",
            "tubes",
            "pitch",
            "metallic",
            "min-yield",
            "max-delay",
            "energy",
            "score",
            "met"
        );
        for row in &self.candidates {
            let _ = writeln!(
                out,
                "{:>5} {:>4} {:>8} {:>5} {:>9.6} {:>9.6} {:>9} {:>10} {:>10} {:>9.6} {:>4}{}",
                row.index,
                row.pass,
                row.axis.name(),
                row.outcome.tubes_per_4lambda,
                row.outcome.pitch_scale,
                row.outcome.metallic_fraction,
                opt_frac(row.outcome.min_yield),
                opt_sci(row.outcome.max_delay_s),
                opt_sci(row.outcome.total_energy_j),
                row.score,
                if row.meets_target { "yes" } else { "no" },
                if row.best_so_far { "  *" } else { "" }
            );
        }
        match self.best() {
            Some(best) => {
                let _ = writeln!(
                    out,
                    "best: candidate {} (tubes {}, pitch {:.6}, metallic {:.6}), score {:.6}",
                    best.index,
                    best.outcome.tubes_per_4lambda,
                    best.outcome.pitch_scale,
                    best.outcome.metallic_fraction,
                    best.score
                );
            }
            None => {
                let _ = writeln!(out, "best: n/a (empty trajectory)");
            }
        }
        let _ = writeln!(
            out,
            "converged: {}",
            if self.converged { "yes" } else { "no" }
        );
        out
    }
}

/// Rejects a candidate sweep of `cells × seeds` rows over
/// [`MAX_FANOUT`](crate::MAX_FANOUT), naming `field`.
fn check_sweep_rows(cells: usize, seeds: usize, field: &str) -> Result<()> {
    check_fanout(
        cells.saturating_mul(seeds),
        field,
        "rows per candidate sweep (cells × seeds)",
    )
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Executes a whole search on a session: per axis round, fan one
/// memoized candidate sweep per axis value through the job pool, help
/// drain the round's own batch while harvesting, score the outcomes, and
/// walk the coordinate-descent schedule to an [`OptimizeReport`].
pub(crate) fn execute_optimize(
    request: &OptimizeRequest,
    session: &Session,
) -> Result<Arc<OptimizeReport>> {
    request.validate()?;
    let tube_axis = request.grid.tube_counts.clone();
    let mut pitch_axis: Vec<f64> = request
        .grid
        .pitch_scales
        .iter()
        .map(|&v| canonical_axis_value(v))
        .collect();
    let mut metallic_axis: Vec<f64> = request
        .grid
        .metallic_fractions
        .iter()
        .map(|&v| canonical_axis_value(v))
        .collect();

    // The current point starts at the first value of each axis; its
    // score starts unknown (the first round always adopts).
    let mut point = (tube_axis[0], pitch_axis[0], metallic_axis[0]);
    let mut point_score = f64::INFINITY;

    let mut candidates: Vec<CandidateRow> = Vec::with_capacity(request.candidate_count());
    let mut best: Option<usize> = None;
    const AXES: [OptimizeAxis; 3] = [
        OptimizeAxis::TubeCount,
        OptimizeAxis::PitchScale,
        OptimizeAxis::MetallicFraction,
    ];
    for pass in 0..request.passes {
        for axis in AXES {
            let coords: Vec<(u32, f64, f64)> = match axis {
                OptimizeAxis::TubeCount => {
                    tube_axis.iter().map(|&t| (t, point.1, point.2)).collect()
                }
                OptimizeAxis::PitchScale => {
                    pitch_axis.iter().map(|&p| (point.0, p, point.2)).collect()
                }
                OptimizeAxis::MetallicFraction => metallic_axis
                    .iter()
                    .map(|&m| (point.0, point.1, m))
                    .collect(),
            };
            let outcomes = evaluate_round(request, session, &coords)?;

            // Score the round in schedule order; the round's best (lowest
            // score, ties earliest) moves the coordinate when it improves
            // on the current point.
            let mut round_best: Option<(usize, f64)> = None;
            for outcome in outcomes {
                let score = request.target.score(&outcome);
                let index = candidates.len();
                let improves = best.is_none_or(|b| score < candidates[b].score);
                let row = CandidateRow {
                    index,
                    pass,
                    axis,
                    meets_target: request.target.met_by(&outcome),
                    outcome,
                    score,
                    best_so_far: improves,
                };
                if improves {
                    best = Some(index);
                }
                if round_best.is_none_or(|(_, s)| score < s) {
                    round_best = Some((index, score));
                }
                // Flush the row to any observer before moving on:
                // candidates stream in exactly the
                // `OptimizeReport::candidates` order.
                if let Some(observer) = &request.observer {
                    observer.notify(index, &row);
                }
                candidates.push(row);
            }
            let (round_index, round_score) = round_best.expect("axis rounds are non-empty");
            if round_score < point_score {
                let winner = &candidates[round_index].outcome;
                point = (
                    winner.tubes_per_4lambda,
                    winner.pitch_scale,
                    winner.metallic_fraction,
                );
                point_score = round_score;
            }
        }
        // Successive halving: each continuous axis re-spans half its
        // previous width, centered on the current point. The tube axis
        // is discrete — it re-walks the full user list each pass (the
        // repeats are pure candidate-cache hits).
        if pass + 1 < request.passes {
            pitch_axis = refine_axis(&pitch_axis, point.1, 0.0, f64::INFINITY);
            metallic_axis = refine_axis(&metallic_axis, point.2, 0.0, 1.0);
        }
    }

    let converged = best.is_some_and(|b| candidates[b].meets_target);
    Ok(Arc::new(OptimizeReport {
        cells: request.cells.len(),
        target: request.target.canonical(),
        passes: request.passes,
        candidates,
        best_index: best,
        converged,
    }))
}

/// Evaluates one axis round: fan every coordinate's sweep through the
/// job pool (each a memoized [`SweepRequest`] — overlapping candidates
/// re-execute only new corners), helping the round's own batch while
/// harvesting, then reduce each sweep into its memoized
/// [`CandidateOutcome`] (a pure sweep-cache hit at that point).
fn evaluate_round(
    request: &OptimizeRequest,
    session: &Session,
    coords: &[(u32, f64, f64)],
) -> Result<Vec<CandidateOutcome>> {
    let sweeps = session.fan_out(
        coords
            .iter()
            .map(|&c| request.candidate_request(c).sweep_request()),
    );
    let mut outcomes = Vec::with_capacity(coords.len());
    for (sweep, &c) in sweeps.zip(coords) {
        sweep?;
        // The candidate reduction runs through the session so the
        // outcome memoizes in the Optimizations class; its inner sweep
        // re-run is a pure hit on the report just harvested.
        outcomes.push(session.run(&request.candidate_request(c))?);
    }
    Ok(outcomes)
}

/// Executes one candidate: run (or recall) its sweep, then reduce the
/// rows into target-free worst-case aggregates.
pub(crate) fn execute_candidate(
    request: &OptimizeCandidateRequest,
    session: &Session,
) -> Result<CandidateOutcome> {
    request.validate()?;
    let report = session.run(&request.sweep_request())?;
    let canonical = request.clone().canonical();

    let mut min_yield: Option<f64> = None;
    let mut max_delay: Option<f64> = None;
    for row in &report.rows {
        if let Some(y) = row.yield_frac() {
            min_yield = Some(min_yield.map_or(y, |m: f64| m.min(y)));
        }
        if let Some(d) = row.delay_s() {
            max_delay = Some(max_delay.map_or(d, |m: f64| m.max(d)));
        }
    }
    // Worst corner by summed energy: energy budgets are per corner
    // (every cell switches), then worst-cased over the seed replicas.
    let mut total_energy: Option<f64> = None;
    for k in 0..report.corners.len() {
        let mut corner_energy: Option<f64> = None;
        for c in 0..report.cells {
            if let Some(e) = report.row(c, k).energy_j() {
                corner_energy = Some(corner_energy.unwrap_or(0.0) + e);
            }
        }
        if let Some(e) = corner_energy {
            total_energy = Some(total_energy.map_or(e, |m: f64| m.max(e)));
        }
    }
    Ok(CandidateOutcome {
        tubes_per_4lambda: canonical.tubes_per_4lambda,
        pitch_scale: canonical.pitch_scale,
        metallic_fraction: canonical.metallic_fraction,
        rows: report.rows.len(),
        min_yield,
        max_delay_s: max_delay,
        total_energy_j: total_energy,
    })
}

/// Halves a continuous axis: the same number of points, evenly spaced
/// over half the previous span, centered on `center` and clamped to
/// `[lo, hi]`. A single-point axis is already converged and returns
/// unchanged.
fn refine_axis(axis: &[f64], center: f64, lo: f64, hi: f64) -> Vec<f64> {
    let n = axis.len();
    if n <= 1 {
        return axis.to_vec();
    }
    let axis_lo = axis.iter().copied().fold(f64::INFINITY, f64::min);
    let axis_hi = axis.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    // Half the span, so a quarter to each side of the center.
    let reach = (axis_hi - axis_lo) / 4.0;
    let start = (center - reach).clamp(lo, hi);
    let end = (center + reach).clamp(lo, hi);
    let step = (end - start) / (n - 1) as f64;
    (0..n)
        .map(|i| canonical_axis_value(start + step * i as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(
        yield_frac: Option<f64>,
        delay: Option<f64>,
        energy: Option<f64>,
    ) -> CandidateOutcome {
        CandidateOutcome {
            tubes_per_4lambda: 26,
            pitch_scale: 1.0,
            metallic_fraction: 0.0,
            rows: 1,
            min_yield: yield_frac,
            max_delay_s: delay,
            total_energy_j: energy,
        }
    }

    #[test]
    fn score_sums_violations_and_zeroes_when_met() {
        let target = OptimizeTarget::new()
            .min_yield(0.9)
            .max_delay_s(1e-9)
            .max_energy_j(1e-15);
        let good = outcome(Some(0.95), Some(0.5e-9), Some(0.5e-15));
        assert_eq!(target.score(&good), 0.0);
        assert!(target.met_by(&good));

        let bad = outcome(Some(0.4), Some(2e-9), Some(0.5e-15));
        // Yield shortfall 0.5 + relative delay excess 1.0.
        assert!((target.score(&bad) - 1.5).abs() < 1e-9);
        assert!(!target.met_by(&bad));

        // A set constraint with no measurement is a full violation.
        let unmeasured = outcome(Some(0.95), None, None);
        assert_eq!(target.score(&unmeasured), 2.0);
    }

    #[test]
    fn empty_target_is_trivially_met() {
        let target = OptimizeTarget::new();
        assert_eq!(target.score(&outcome(None, None, None)), 0.0);
        assert!(target.met_by(&outcome(None, None, None)));
    }

    #[test]
    fn target_validate_rejects_unusable_bounds() {
        assert!(OptimizeTarget::new()
            .min_yield(1.5)
            .validate("target")
            .is_err());
        assert!(OptimizeTarget::new()
            .min_yield(f64::NAN)
            .validate("target")
            .is_err());
        assert!(OptimizeTarget::new()
            .max_delay_s(0.0)
            .validate("target")
            .is_err());
        assert!(OptimizeTarget::new()
            .max_energy_j(-1.0)
            .validate("target")
            .is_err());
        assert!(OptimizeTarget::new()
            .min_yield(0.9)
            .max_delay_s(1e-9)
            .validate("target")
            .is_ok());
    }

    #[test]
    fn refine_axis_halves_span_around_center() {
        let axis = vec![0.5, 1.0, 1.5];
        let refined = refine_axis(&axis, 1.0, 0.0, f64::INFINITY);
        assert_eq!(refined.len(), 3);
        // Span 1.0 halves to 0.5, centered on 1.0.
        assert!((refined[0] - 0.75).abs() < 1e-12);
        assert!((refined[1] - 1.0).abs() < 1e-12);
        assert!((refined[2] - 1.25).abs() < 1e-12);
        // Clamped at zero, and single-point axes stay fixed.
        let clamped = refine_axis(&[0.0, 0.4], 0.0, 0.0, 1.0);
        assert_eq!(clamped[0], 0.0);
        assert_eq!(refine_axis(&[1.0], 1.0, 0.0, 1.0), vec![1.0]);
    }

    #[test]
    fn candidate_count_is_passes_times_axis_lengths() {
        let request = OptimizeRequest::new([crate::core::StdCellKind::Inv])
            .grid(
                VariationGrid::nominal()
                    .tube_counts([26, 20, 10])
                    .pitch_scales([0.8, 1.0])
                    .metallic_fractions([0.0, 0.01]),
            )
            .passes(3);
        assert_eq!(request.candidate_count(), 3 * (3 + 2 + 2));
    }

    #[test]
    fn validate_rejects_empty_schedules() {
        let base = OptimizeRequest::new([crate::core::StdCellKind::Inv]);
        assert!(base.validate().is_ok());
        assert!(base.clone().passes(0).validate().is_err());
        assert!(base
            .clone()
            .grid(VariationGrid::nominal().seeds([]))
            .validate()
            .is_err());
        assert!(base
            .clone()
            .grid(VariationGrid::nominal().tube_counts([]))
            .validate()
            .is_err());
        assert!(base
            .clone()
            .grid(VariationGrid::nominal().metallic_fractions([f64::NAN]))
            .validate()
            .is_err());
        assert!(base
            .clone()
            .target(OptimizeTarget::new().max_delay_s(f64::INFINITY))
            .validate()
            .is_err());
        let empty: [crate::core::StdCellKind; 0] = [];
        assert!(OptimizeRequest::new(empty).validate().is_err());
    }

    #[test]
    fn render_is_deterministic_and_marks_best() {
        let target = OptimizeTarget::new().min_yield(0.9);
        let rows = vec![
            CandidateRow {
                index: 0,
                pass: 0,
                axis: OptimizeAxis::TubeCount,
                outcome: outcome(Some(0.5), None, None),
                score: 0.4,
                meets_target: false,
                best_so_far: true,
            },
            CandidateRow {
                index: 1,
                pass: 0,
                axis: OptimizeAxis::MetallicFraction,
                outcome: outcome(Some(0.95), None, None),
                score: 0.0,
                meets_target: true,
                best_so_far: true,
            },
        ];
        let report = OptimizeReport {
            cells: 1,
            target,
            passes: 1,
            candidates: rows,
            best_index: Some(1),
            converged: true,
        };
        let text = report.render();
        assert_eq!(text, report.render());
        assert!(text.contains("best: candidate 1"), "{text}");
        assert!(text.contains("converged: yes"), "{text}");
        assert!(text.contains("tubes"), "{text}");
        // Missing metrics render as "-".
        assert!(text.contains('-'), "{text}");
    }

    #[test]
    fn searches_over_max_fanout_are_refused() {
        use crate::core::StdCellKind;
        use crate::request::SessionRequest;
        use crate::{CnfetError, Session, MAX_FANOUT};
        let session = Session::new();
        let field_of = |result: Result<()>| match result {
            Err(CnfetError::InvalidRequest { field, .. }) => field,
            other => panic!("expected an invalid request, got {other:?}"),
        };
        let base = OptimizeRequest::new([StdCellKind::Inv]);
        // Three single-value axes: u32::MAX passes is 3 × u32::MAX candidates.
        let long = base.clone().passes(u32::MAX);
        assert_eq!(field_of(long.validate()), "passes");
        assert!(long.cache_key(&session).is_none());

        let seeds = |n: u64| VariationGrid::nominal().seeds(0..n);
        let wide = OptimizeRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)])
            .grid(seeds(MAX_FANOUT as u64 / 2));
        assert!(wide.validate().is_ok());
        let wider = wide.clone().grid(seeds(MAX_FANOUT as u64 / 2 + 1));
        assert_eq!(field_of(wider.validate()), "grid.seeds");
        assert!(wider.cache_key(&session).is_none());

        let candidate = wider.candidate_request((26, 1.0, 0.0));
        assert_eq!(field_of(candidate.validate()), "seeds");
        assert!(candidate.cache_key(&session).is_none());
    }
}
