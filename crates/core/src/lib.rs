//! Compact imperfection-immune CNFET layout generation — the core
//! contribution of Bobba et al., DATE 2009.
//!
//! Static CNFET gates are laid out as horizontal diffusion *strips*: CNTs
//! run along x, vertical gate fingers cross them, and metal contact columns
//! tie tube segments to nets. Three layout styles are implemented:
//!
//! * [`Style::NewImmune`] — the paper's contribution: an Euler path through
//!   the pull network places every device in a single strip (or a minimal
//!   set of rows), with **redundant metal contacts** at repeated node
//!   visits instead of etched regions. 100% misaligned-CNT-immune and
//!   compact (Table 1).
//! * [`Style::OldEtched`] — the prior art of Patil et al. [DAC'07]: stages
//!   of stacked parallel branches separated by 2λ **etched regions**,
//!   requiring via-on-gate ("vertical gating") to escape buried gates.
//! * [`Style::Vulnerable`] — a CMOS-style layout with under-sized gate
//!   endcaps, reproducing the mispositioned-CNT failure of Figure 2(b).
//!
//! A CMOS baseline generator ([`cmos::cmos_cell`]) supports the paper's
//! area comparisons, and [`area`] reproduces Table 1 analytically from the
//! same strip model the generators draw.
//!
//! # Example: the NAND3 of Figure 3
//!
//! ```
//! use cnfet_core::{generate_cell, GenerateOptions, StdCellKind, Style, Scheme, Sizing};
//!
//! let opts = GenerateOptions {
//!     style: Style::NewImmune,
//!     scheme: Scheme::Scheme1,
//!     sizing: Sizing::Matched { base_lambda: 4 },
//!     ..GenerateOptions::default()
//! };
//! let cell = generate_cell(StdCellKind::Nand(3), &opts).unwrap();
//! // Figure 3(b): PUN strip is Vdd-A-Out-B-Vdd-C-Out → 30λ × 4λ.
//! assert_eq!(cell.pun_active_area_l2, 120.0);
//! ```

#![forbid(unsafe_code)]

pub mod area;
pub mod cells;
pub mod cmos;
pub mod drc;
pub mod generate;
pub mod rules;
pub mod semantics;
pub mod sizing;
pub mod strip;

pub use cells::StdCellKind;
pub use cmos::cmos_cell;
pub use drc::{check_drc, DrcViolation};
pub use generate::{
    generate_cell, generate_from_networks, GenerateError, GenerateOptions, GeneratedCell,
    RowPolicy, Scheme, Style,
};
pub use rules::DesignRules;
pub use semantics::{PullSide, SemKind, SemRect, SemanticLayout};
pub use sizing::{SizedNetwork, Sizing};
