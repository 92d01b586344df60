//! Hierarchical arithmetic macros (multi-bit adders) as a composite
//! [`SessionRequest`](crate::SessionRequest).
//!
//! The sweep, repair and optimize layers all treat one *cell* as the
//! unit of work. This module climbs one level of hierarchy: a
//! [`MacroRequest`] composes the paper's full adder into an 8/32/64-bit
//! ripple-carry or carry-look-ahead adder — the structural side lives in
//! [`cnfet_flow::hier`] (slices hold an `Arc` reference to one shared
//! sub-cell netlist; placement and GDS keep the hierarchy two-deep) and
//! the carry plan in [`cnfet_logic::adder`] — and characterizes the
//! critical carry path per bit slice on the MNA engine's shared
//! `PatternCache`.
//!
//! # Composite execution
//!
//! [`MacroRequest`] is the engine's fourth composite request, shaped
//! exactly like a repair lot: its `execute` fans one
//! [`MacroSliceRequest`] per bit out on the session's job pool, helping
//! drain its own batch while harvesting (batch-targeted helping, so a bounded
//! worker set never deadlocks on the fan-out), and reduces the per-bit
//! [`SliceOutcome`]s — plus the placed/assembled hierarchy — into a
//! [`MacroReport`].
//!
//! Memoization works at **three** granularities: the whole report and
//! each bit slice in the [`RequestClass::Macros`](crate::RequestClass)
//! cache, and the full-adder's cell mix in the `Cell` class — a second
//! macro over the same cells (any width, any kind) re-executes zero cell
//! generations. A slice's two fixed-load internal stages (NAND2 core and
//! 4X buffer) are ordinary nominal [`SweepCornerRequest`]s, so every bit
//! of every macro on a kit recalls them from the `Sweeps` class after
//! the first. Slice keys include the macro width: a CLA bit's carry
//! fan-out depends on where the prefix tree puts it, so bit 3 of an
//! 8-bit adder and bit 3 of a 64-bit adder are *not* the same work.
//!
//! # Example
//!
//! ```
//! use cnfet::logic::AdderKind;
//! use cnfet::{MacroRequest, Session};
//!
//! let session = Session::new();
//! let report = session.run(&MacroRequest::new(AdderKind::Cla, 8))?;
//! assert_eq!(report.slices.len(), 8);
//! assert!(report.critical_path_s > 0.0);
//! // Repeating the macro is a pure Macros-class cache hit.
//! let again = session.run(&MacroRequest::new(AdderKind::Cla, 8))?;
//! assert!(std::sync::Arc::ptr_eq(&report, &again));
//! # Ok::<(), cnfet::CnfetError>(())
//! ```

use crate::core::{Scheme, StdCellKind};
use crate::dk::{self, CellLibrary, CharCorner, LibCell};
use crate::error::{CnfetError, Result};
use crate::flow::{assemble_macro_gds, place_macro, MacroAdder};
use crate::immunity::McOptions;
use crate::logic::{AdderKind, AdderPlan};
use crate::session::{CellRequest, LibraryRequest, Observer, Session};
use crate::sweep::{SweepCornerRequest, SweepMetrics, VariationCorner};
use cnfet_rng::{Rng, SeedableRng};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The widths a macro adder composes at. Anything else is rejected
/// before key rendering (see [`MacroRequest::validate`]).
pub const MACRO_WIDTHS: [u32; 3] = [8, 32, 64];

/// A hierarchical adder macro run — a composite request fanning one
/// [`MacroSliceRequest`] per bit (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use cnfet::logic::AdderKind;
/// use cnfet::{MacroRequest, Session};
///
/// let request = MacroRequest::new(AdderKind::Ripple, 8).seed(7);
/// let report = Session::new().run(&request)?;
/// assert_eq!(report.slices.len(), 8);
/// # Ok::<(), cnfet::CnfetError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MacroRequest {
    /// Carry organization of the composed adder.
    pub kind: AdderKind,
    /// Operand width in bits; must be one of [`MACRO_WIDTHS`].
    pub width: u32,
    /// Arrangement scheme of the sub-cell library.
    pub scheme: Scheme,
    /// Seed for the deterministic per-bit wire-load jitter.
    pub seed: u64,
    /// Per-slice progress hook, fed outcomes in bit order; excluded
    /// from the cache key (see [`Observer`]).
    observer: Option<Observer<SliceOutcome>>,
}

impl MacroRequest {
    /// A macro adder of the given kind and width in Scheme 2 (the
    /// compact shelf arrangement) with the default seed.
    pub fn new(kind: AdderKind, width: u32) -> MacroRequest {
        MacroRequest {
            kind,
            width,
            scheme: Scheme::Scheme2,
            seed: 0xADD5,
            observer: None,
        }
    }

    /// Sets the sub-cell library scheme.
    #[must_use]
    pub fn scheme(mut self, scheme: Scheme) -> MacroRequest {
        self.scheme = scheme;
        self
    }

    /// Sets the wire-load jitter seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> MacroRequest {
        self.seed = seed;
        self
    }

    /// Attaches a per-slice progress observer, fed outcomes in
    /// [`MacroReport::slices`] order (see [`Observer`] for the
    /// cache-interaction contract).
    #[must_use]
    pub fn observe_slices(mut self, observer: Observer<SliceOutcome>) -> MacroRequest {
        self.observer = Some(observer);
        self
    }

    /// Number of per-bit outcomes this macro will produce — the count a
    /// streaming consumer should expect before the report lands.
    pub fn slice_count(&self) -> usize {
        self.width as usize
    }

    /// Rejects widths outside [`MACRO_WIDTHS`] — before cache-key
    /// rendering, so a malformed macro can neither poison a
    /// single-flight entry nor occupy a cache slot.
    pub fn validate(&self) -> Result<()> {
        if MACRO_WIDTHS.contains(&self.width) {
            Ok(())
        } else {
            Err(CnfetError::InvalidRequest {
                field: "width".into(),
                message: "expected one of 8|32|64".into(),
            })
        }
    }

    /// The per-bit sub-request of one slice.
    fn slice_request(&self, bit: u32) -> MacroSliceRequest {
        MacroSliceRequest {
            kind: self.kind,
            width: self.width,
            bit,
            scheme: self.scheme,
            seed: self.seed,
        }
    }
}

/// One bit slice's characterization: the unit a [`MacroRequest`] fans
/// out, itself a [`SessionRequest`](crate::SessionRequest) memoized in
/// the [`RequestClass::Macros`](crate::RequestClass) cache. The key
/// holds the macro width as well as the bit — a CLA bit's prefix-tree
/// fan-out (and therefore its wire load) depends on the width it sits
/// in.
#[derive(Clone, Debug)]
pub struct MacroSliceRequest {
    /// Carry organization of the surrounding macro.
    pub kind: AdderKind,
    /// Width of the surrounding macro.
    pub width: u32,
    /// Bit index of this slice (`0..width`).
    pub bit: u32,
    /// Sub-cell library scheme.
    pub scheme: Scheme,
    /// Wire-load jitter seed.
    pub seed: u64,
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// One bit slice's measurements: the slice's wire load and the delays
/// of the full adder's sum and carry arcs at that load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SliceOutcome {
    /// Bit index.
    pub bit: u32,
    /// Prefix-tree fan-out this bit's generate/transmit pair drives
    /// beyond its own slice (`0` in a ripple chain).
    pub fanout: u32,
    /// Output wire load, farads (seeded jitter × fan-out term).
    pub load_f: f64,
    /// Sum-arc delay at the load, seconds.
    pub sum_delay_s: f64,
    /// Carry-arc delay at the load, seconds.
    pub carry_delay_s: f64,
}

/// The reduction of a [`MacroRequest`]: every slice's measurements plus
/// the composed hierarchy's critical path, area, and rendered artifacts.
#[derive(Clone, Debug)]
pub struct MacroReport {
    /// Carry organization.
    pub kind: AdderKind,
    /// Operand width in bits.
    pub width: u32,
    /// Sub-cell library scheme.
    pub scheme: Scheme,
    /// One outcome per bit, in bit order (bit `k` at index `k`).
    pub slices: Vec<SliceOutcome>,
    /// Critical carry-path delay, seconds: the ripple chain summed, or
    /// the CLA tree depth times the worst stage.
    pub critical_path_s: f64,
    /// Placed block area, λ².
    pub area_l2: f64,
    /// Library-cell instances across the hierarchy (slices × sub-cell
    /// gates + glue).
    pub gate_count: usize,
    /// Full-adder sub-cell references in the top cell (one per bit).
    pub fa_instances: usize,
    /// Structural SPICE deck of the hierarchy (one `.subckt
    /// full_adder`, referenced per slice).
    pub spice: String,
    /// Two-deep GDSII stream of the placed hierarchy.
    pub gds: Vec<u8>,
}

impl MacroReport {
    /// Renders the report as a fixed-layout text table, one line per bit
    /// plus the macro aggregates. Deterministic: equal reports render
    /// byte-identically (fixed column widths, fixed float precision),
    /// which is what the determinism suite pins down across worker
    /// counts.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "macro adder_{}{}: {} bits, {}, {} gates, {} fa refs",
            self.kind.name(),
            self.width,
            self.width,
            self.scheme,
            self.gate_count,
            self.fa_instances
        );
        let _ = writeln!(
            out,
            "{:>4} {:>7} {:>13} {:>13} {:>13}",
            "bit", "fanout", "load_f", "sum_s", "carry_s"
        );
        for s in &self.slices {
            let _ = writeln!(
                out,
                "{:>4} {:>7} {:>13.6e} {:>13.6e} {:>13.6e}",
                s.bit, s.fanout, s.load_f, s.sum_delay_s, s.carry_delay_s
            );
        }
        let _ = writeln!(out, "critical path: {:.6e} s", self.critical_path_s);
        let _ = writeln!(out, "area: {:.1} lambda^2", self.area_l2);
        let _ = writeln!(
            out,
            "artifacts: {} spice bytes, {} gds bytes",
            self.spice.len(),
            self.gds.len()
        );
        out
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// The full adder's cell mix: what every slice generates (or recalls)
/// through the session cell cache. The CLA glue draws from the same set
/// (2X NAND2s and 4X inverters), so this list covers the whole
/// hierarchy.
const FA_CELL_MIX: [(StdCellKind, u8); 4] = [
    (StdCellKind::Nand(2), 2),
    (StdCellKind::Inv, 4),
    (StdCellKind::Inv, 7),
    (StdCellKind::Inv, 9),
];

/// Executes a whole macro on a session: fan out one
/// [`MacroSliceRequest`] per bit through the job pool, help drain the
/// macro's own batch while waiting, compose/place/assemble the
/// hierarchy, reduce into a [`MacroReport`].
pub(crate) fn execute_macro(request: &MacroRequest, session: &Session) -> Result<Arc<MacroReport>> {
    request.validate()?;
    let slices = session
        .fan_out((0..request.width).map(|bit| request.slice_request(bit)))
        .observed(request.observer.as_ref())?;

    // Compose, place and assemble the hierarchy (the library build is a
    // Library-class hit after the slices warmed the cell cache).
    let adder = MacroAdder::new(request.kind, request.width);
    let lib = session.run(&LibraryRequest::new(request.scheme))?;
    let placement = place_macro(&adder, &lib);
    let gds = assemble_macro_gds(&adder, &placement, &lib);
    let spice = adder.to_spice();

    let critical_path_s = critical_path(request.kind, &adder.plan, &slices);
    Ok(Arc::new(MacroReport {
        kind: request.kind,
        width: request.width,
        scheme: request.scheme,
        slices,
        critical_path_s,
        area_l2: placement.area_l2,
        gate_count: adder.gate_count(),
        fa_instances: placement.slices.len(),
        spice,
        gds,
    }))
}

/// The macro's critical carry path from the harvested slice delays:
/// ripple chains every carry arc and exits through the last sum; CLA
/// pays the plan's stage depth at the worst carry arc plus the worst
/// sum arc.
fn critical_path(kind: AdderKind, plan: &AdderPlan, slices: &[SliceOutcome]) -> f64 {
    let worst = |f: fn(&SliceOutcome) -> f64| slices.iter().map(f).fold(0.0f64, f64::max);
    match kind {
        AdderKind::Ripple => {
            let chain: f64 = slices.iter().map(|s| s.carry_delay_s).sum();
            chain + slices.last().map_or(0.0, |s| s.sum_delay_s)
        }
        AdderKind::Cla => {
            f64::from(plan.carry_depth()) * worst(|s| s.carry_delay_s) + worst(|s| s.sum_delay_s)
        }
    }
}

/// Executes one bit slice: generate (or recall) the full adder's cell
/// mix through the session cell cache, recall the fixed-load NAND and
/// 4X stage delays from the `Sweeps` class, then characterize the 9X
/// buffer at the slice's seeded wire load on the MNA engine (whose
/// process-wide `PatternCache` makes repeated same-cell transients skip
/// symbolic re-analysis).
pub(crate) fn execute_slice(
    request: &MacroSliceRequest,
    session: &Session,
) -> Result<SliceOutcome> {
    let plan = AdderPlan::new(request.kind, request.width);
    let fanout = plan.fanout_of(request.bit) as u32;

    // Seeded per-bit wire load: jitter models routing spread, the
    // fan-out term the prefix-tree pins this bit must drive.
    let mut rng = cnfet_rng::rngs::StdRng::seed_from_u64(
        request
            .seed
            .wrapping_add(u64::from(request.bit).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let jitter: f64 = rng.gen_range(-1.0..1.0);
    let load_f = 2.0e-15 * (1.0 + 0.25 * jitter) * (1.0 + 0.15 * f64::from(fanout));

    let kit = session.kit();
    let opts = dk::library_options(kit, request.scheme);
    let cell_request = |kind, strength| CellRequest {
        kind,
        strength,
        options: Some(opts.clone()),
        name: Some(CellLibrary::cell_name(kind, strength)),
    };
    let mut lib_cells = Vec::with_capacity(FA_CELL_MIX.len());
    for (kind, strength) in FA_CELL_MIX {
        let cell = session.run(&cell_request(kind, strength))?.cell;
        lib_cells.push(LibCell::from_layout(
            kit,
            kind,
            strength,
            cell,
            kit.tubes_per_4lambda,
        ));
    }
    let (nand, inv9) = (&lib_cells[0], &lib_cells[3]);

    // Internal stages drive gate pins; the output buffers drive the
    // slice's wire load. The internal load is the same for every bit of
    // every macro on a kit, so those two stages are recalled as nominal
    // timing corners from the `Sweeps` class; the 9X buffer's jittered
    // load is unique per bit and characterizes directly.
    let internal_f = (2.0 * nand.input_cap_f).min(load_f);
    let stage_delay = |(kind, strength): (StdCellKind, u8)| -> Result<f64> {
        let row = session.run(&SweepCornerRequest {
            cell: cell_request(kind, strength),
            corner: VariationCorner {
                tubes_per_4lambda: kit.tubes_per_4lambda,
                ..VariationCorner::nominal()
            },
            metrics: SweepMetrics::TIMING,
            mc: McOptions::default(),
            loads_f: vec![internal_f],
        })?;
        let table = row.timing.expect("timing corners carry a timing table");
        Ok(table.delay_at(internal_f))
    };
    let d_nand = stage_delay(FA_CELL_MIX[0])?;
    let d_inv4 = stage_delay(FA_CELL_MIX[1])?;
    let d_inv9 =
        dk::characterize_cell_at(kit, inv9, &[load_f], CharCorner::nominal(kit))?.delay_at(load_f);

    // Stage counts of the nine-NAND2 core: the sum arc crosses six NAND
    // stages (a→s1→s2→axb→s5→s6→sum_raw), the carry arc five
    // (…→s5→carry_raw); both exit through the 4X→9X buffer pair.
    let buffer = d_inv4 + d_inv9;
    Ok(SliceOutcome {
        bit: request.bit,
        fanout,
        load_f,
        sum_delay_s: 6.0 * d_nand + buffer,
        carry_delay_s: 5.0 * d_nand + buffer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dk::DesignKit;

    fn outcome(bit: u32, carry: f64, sum: f64) -> SliceOutcome {
        SliceOutcome {
            bit,
            fanout: 1,
            load_f: 2.0e-15,
            sum_delay_s: sum,
            carry_delay_s: carry,
        }
    }

    #[test]
    fn ripple_critical_path_chains_carries() {
        let plan = AdderPlan::new(AdderKind::Ripple, 8);
        let slices: Vec<SliceOutcome> = (0..8).map(|b| outcome(b, 1e-12, 3e-12)).collect();
        let path = critical_path(AdderKind::Ripple, &plan, &slices);
        assert!((path - (8.0 * 1e-12 + 3e-12)).abs() < 1e-18);
    }

    #[test]
    fn cla_critical_path_scales_with_depth_not_width() {
        let plan = AdderPlan::new(AdderKind::Cla, 64);
        let slices: Vec<SliceOutcome> = (0..64).map(|b| outcome(b, 1e-12, 3e-12)).collect();
        let path = critical_path(AdderKind::Cla, &plan, &slices);
        let depth = f64::from(plan.carry_depth());
        assert!((path - (depth * 1e-12 + 3e-12)).abs() < 1e-18);
        assert!(path < 64.0 * 1e-12, "CLA beats the ripple chain");
    }

    /// Recalling the fixed-load stages from the `Sweeps` class changes no
    /// outcome: every slice equals, exactly, the one direct
    /// characterization gives — and a ripple-8 macro on a fresh session
    /// characterizes each fixed stage once (2 misses) and recalls it for
    /// every other bit (14 hits). The second kit's tube count differs
    /// from `VariationCorner::nominal()`'s, so the recalled corner must
    /// follow the kit.
    #[test]
    fn slices_recall_fixed_stages_from_sweeps_and_match_direct_characterization() {
        let sparse = DesignKit {
            tubes_per_4lambda: 20,
            ..DesignKit::cnfet65()
        };
        for kit in [DesignKit::cnfet65(), sparse] {
            let session = Session::builder().kit(kit).build();
            let report = session
                .run(&MacroRequest::new(AdderKind::Ripple, 8))
                .unwrap();
            let sweeps = session.stats().sweeps;
            assert_eq!((sweeps.misses, sweeps.hits), (2, 14), "{sweeps:?}");

            let kit = session.kit();
            let opts = dk::library_options(kit, Scheme::Scheme2);
            let lib_cell = |(kind, strength): (StdCellKind, u8)| {
                let request = CellRequest {
                    kind,
                    strength,
                    options: Some(opts.clone()),
                    name: Some(CellLibrary::cell_name(kind, strength)),
                };
                let cell = session.run(&request).unwrap().cell;
                LibCell::from_layout(kit, kind, strength, cell, kit.tubes_per_4lambda)
            };
            let (nand, inv4, inv9) = (
                lib_cell(FA_CELL_MIX[0]),
                lib_cell(FA_CELL_MIX[1]),
                lib_cell(FA_CELL_MIX[3]),
            );
            let delay = |cell: &LibCell, load: f64| {
                dk::characterize_cell_at(kit, cell, &[load], CharCorner::nominal(kit))
                    .unwrap()
                    .delay_at(load)
            };
            for slice in &report.slices {
                let internal_f = (2.0 * nand.input_cap_f).min(slice.load_f);
                let d_nand = delay(&nand, internal_f);
                let buffer = delay(&inv4, internal_f) + delay(&inv9, slice.load_f);
                let expected = SliceOutcome {
                    sum_delay_s: 6.0 * d_nand + buffer,
                    carry_delay_s: 5.0 * d_nand + buffer,
                    ..*slice
                };
                assert_eq!(
                    (slice.sum_delay_s.to_bits(), slice.carry_delay_s.to_bits()),
                    (
                        expected.sum_delay_s.to_bits(),
                        expected.carry_delay_s.to_bits()
                    ),
                    "{slice:?}"
                );
            }
        }
    }

    #[test]
    fn invalid_width_is_rejected_with_field_path() {
        let err = MacroRequest::new(AdderKind::Cla, 9).validate().unwrap_err();
        let text = err.to_string();
        assert!(text.contains("width"), "{text}");
        assert!(text.contains("expected one of 8|32|64"), "{text}");
    }

    #[test]
    fn render_is_deterministic() {
        let report = MacroReport {
            kind: AdderKind::Cla,
            width: 8,
            scheme: Scheme::Scheme2,
            slices: (0..8).map(|b| outcome(b, 1e-12, 3e-12)).collect(),
            critical_path_s: 8e-12,
            area_l2: 1234.5,
            gate_count: 120,
            fa_instances: 8,
            spice: "* deck\n".into(),
            gds: vec![0; 16],
        };
        let text = report.render();
        assert_eq!(text, report.render());
        assert!(text.contains("macro adder_cla8"), "{text}");
        assert!(text.contains("critical path: 8.000000e-12 s"), "{text}");
    }
}
