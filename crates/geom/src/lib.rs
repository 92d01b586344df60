//! Lambda-grid rectilinear geometry for CNFET standard-cell layouts.
//!
//! This crate is the layout database underlying the reproduction of
//! *"Design of Compact Imperfection-Immune CNFET Layouts for
//! Standard-Cell-Based Logic Synthesis"* (Bobba et al., DATE 2009). It plays
//! the role that the Cadence Virtuoso database plays in the paper's design
//! kit: cells hold rectangles on process layers, libraries hold cells and
//! instances, and layouts stream out to binary GDSII or to SVG for
//! inspection.
//!
//! All coordinates are integers in *database units* ([`Dbu`]); one lambda of
//! the scalable design-rule convention is [`DBU_PER_LAMBDA`] database units,
//! which leaves room for sub-lambda geometry such as the 1.4x-wide CMOS
//! pull-up devices the paper benchmarks against.
//!
//! # Example
//!
//! ```
//! use cnfet_geom::{Cell, Layer, Rect, Dbu};
//!
//! let mut cell = Cell::new("INV");
//! cell.add_rect(Layer::Gate, Rect::from_lambda(5.0, 0.0, 7.0, 4.0));
//! assert_eq!(cell.area_on(Layer::Gate), Dbu::from_lambda(2.0).0 as i128 * Dbu::from_lambda(4.0).0 as i128);
//! ```

#![forbid(unsafe_code)]

pub mod coord;
pub mod gds;
pub mod index;
pub mod layer;
pub mod layout;
pub mod rect;
pub mod svg;
pub mod transform;
pub mod union_area;

pub use coord::{Dbu, Point, DBU_PER_LAMBDA, LAMBDA_NM};
pub use gds::{read_gds, write_gds, GdsError};
pub use index::GridIndex;
pub use layer::Layer;
pub use layout::{Cell, Instance, Library, Shape, Text};
pub use rect::Rect;
pub use svg::render_svg;
pub use transform::{Orientation, Transform};
pub use union_area::union_area;
