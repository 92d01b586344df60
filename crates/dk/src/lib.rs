//! The CNFET Design Kit (Section IV of the paper).
//!
//! Bundles everything a logic-to-GDSII flow needs: the rule deck, the
//! device models, a standard-cell library generated with the compact
//! imperfection-immune layouts (in both Scheme 1 and Scheme 2 variants),
//! spice-based timing/energy characterization, and exporters for
//! Liberty-like timing views, LEF-like abstracts, and GDSII.
//!
//! # Example
//!
//! ```
//! use cnfet_dk::{build_library, DesignKit};
//!
//! let kit = DesignKit::cnfet65();
//! let lib = build_library(&kit, cnfet_core::Scheme::Scheme1).unwrap();
//! let inv = lib.cell("INV_X1").unwrap();
//! assert!(inv.input_cap_f > 0.0);
//! ```
//!
//! Production callers should prefer the umbrella crate's `cnfet::Session`,
//! which memoizes cell generation and library builds across requests.

#![forbid(unsafe_code)]

pub mod characterize;
pub mod export;
pub mod kit;
pub mod lef;
pub mod liberty;
pub mod libgen;

pub use characterize::{
    characterize_cell, characterize_cell_at, characterize_cell_traces, CharCorner, TimingTable,
};
pub use export::library_gds;
pub use kit::DesignKit;
pub use lef::write_lef;
pub use liberty::write_liberty;
pub use libgen::{
    build_library, build_library_with, fingered_layout, fingered_networks, library_options,
    replicate, CellLibrary, LibCell,
};
