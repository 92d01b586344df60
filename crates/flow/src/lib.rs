//! The logic-to-GDSII flow of the CNFET design kit.
//!
//! Covers the path the paper's Section IV describes on top of the design
//! kit: gate-level netlists ([`Netlist`]), a small technology mapper from
//! boolean expressions to NAND2/INV ([`synth`]), the Figure 8 full adder
//! ([`full_adder`]), standard-cell placement in the CMOS baseline and the
//! two CNFET schemes ([`place`]), transistor-level netlist simulation with
//! wire loads ([`sim`]), and final GDS assembly ([`assemble_gds_with`]).
//!
//! # Example: place the paper's full adder in both schemes
//!
//! ```
//! use cnfet_core::Scheme;
//! use cnfet_dk::{build_library, DesignKit};
//! use cnfet_flow::{full_adder, place_cnfet_with};
//!
//! let kit = DesignKit::cnfet65();
//! let fa = full_adder();
//! let s1 = place_cnfet_with(&fa, &build_library(&kit, Scheme::Scheme1).unwrap());
//! let s2 = place_cnfet_with(&fa, &build_library(&kit, Scheme::Scheme2).unwrap());
//! assert!(s2.area_l2 < s1.area_l2, "Scheme 2 is the denser arrangement");
//! ```
//!
//! Production callers should prefer the umbrella crate's `cnfet::Session`,
//! which caches the library build behind typed `FlowRequest`s.

#![forbid(unsafe_code)]

pub mod assemble;
pub mod fa;
pub mod hier;
pub mod netlist;
pub mod place;
pub mod sim;
pub mod synth;
pub mod verilog;

pub use assemble::assemble_gds_with;
pub use fa::full_adder;
pub use hier::{assemble_macro_gds, place_macro, MacroAdder, MacroPlacement, SliceRef};
pub use netlist::{GateInst, Netlist, PortDir};
pub use place::{place_cmos_with, place_cnfet_with, Placement};
pub use sim::{simulate_netlist, simulate_netlist_with, NetlistMetrics, Tech};
pub use synth::synthesize;
pub use verilog::{parse_verilog, VerilogError};
