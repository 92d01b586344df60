//! Mispositioned-CNT functional immunity analysis.
//!
//! The central claim of the paper is that its compact Euler-path layouts
//! are **100% functionally immune to mispositioned CNTs**. This crate
//! verifies that claim mechanically, on the generated geometry, under the
//! standard mispositioning model (Patil et al. \[6\]): a mispositioned tube
//! is an *x-monotone* curve of bounded local slope at an arbitrary
//! vertical offset, clipped at the cell boundary etch.
//!
//! Both engines read a [`TraceMap`]: the layout's column decomposition
//! with interned regions and the nominal path masks of every
//! contact-net pair, prepared once per layout by [`TraceMap::new`] and
//! then shared, read-only, by every run over that layout.
//!
//! Two engines are provided:
//!
//! * [`certify`] — a sound certification: it over-approximates the set of
//!   conduction segments *any* x-monotone tube could create (regardless of
//!   slope bound) by a reachability analysis over the layout's region
//!   decomposition, and judges every segment with the superset criterion.
//!   If it reports immune, no mispositioned tube can alter the cell's
//!   function.
//! * [`simulate`] — Monte-Carlo: random curved tubes are traced through
//!   the layout, producing failure probabilities and concrete witnesses
//!   (this regenerates the Figure 2 comparison).
//!
//! A conduction segment between contacts of nets `a` and `b` with
//! polarity-tagged gate set `S` is *harmless* iff `a == b`, or `S` is
//! unsatisfiable (same input needed both high and low), or some nominal
//! simple path between `a` and `b` in the cell's device graph is a subset
//! of `S` — in which case the stray tube only conducts when the cell
//! already does.
//!
//! # Example
//!
//! ```
//! use cnfet_core::{generate_cell, GenerateOptions, StdCellKind};
//! use cnfet_immunity::{certify, TraceMap};
//!
//! let cell = generate_cell(StdCellKind::Nand(2), &GenerateOptions::default()).unwrap();
//! assert!(certify(&TraceMap::new(&cell.semantics)).immune);
//! ```

#![forbid(unsafe_code)]

pub mod cert;
pub mod mc;
pub mod metallic;
pub mod region;
pub mod verdict;

pub use cert::{certify, CertReport};
pub use mc::{sample_polyline, simulate, trace_polyline, McOptions, McReport, Witness};
pub use metallic::{metallic_yield, MetallicProcess};
pub use region::{build_columns, ColumnMap, RegionKind, Slab, TraceMap};
pub use verdict::{Segment, Verdict};
