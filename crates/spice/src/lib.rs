//! A small SPICE front end: named-node netlists and deck
//! parsing/rendering over the [`cnfet_mna`] engine.
//!
//! This crate replaces HSPICE in the paper's design kit. It supports
//! exactly what the paper's experiments need — resistors, capacitors,
//! inductors, independent voltage sources (DC / pulse / PWL) and
//! quasi-static FETs driven by the [`cnfet_device::FetModel`] trait.
//! Netlists render to a deterministic SPICE dialect
//! ([`Circuit::to_spice`]) and parse back ([`Circuit::from_spice`]). A
//! [`Circuit`] is a name table over one [`cnfet_mna::MnaCircuit`]
//! ([`to_mna`]); simulation and the delay and energy probes of Section V
//! are the engine's own ([`cnfet_mna::Engine`], [`cnfet_mna::measure`]).
//!
//! # Example: an RC low-pass step response
//!
//! ```
//! use cnfet_mna::{Engine, Pattern, TranSpec};
//! use cnfet_spice::{to_mna, Circuit, SourceWave};
//! use std::sync::Arc;
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.add_vsource(vin, Circuit::GROUND, SourceWave::Dc(1.0));
//! ckt.add_resistor(vin, vout, 1e3);
//! ckt.add_capacitor(vout, Circuit::GROUND, 1e-12);
//! let mna = to_mna(&ckt);
//! let mut engine = Engine::new(Arc::new(Pattern::analyze(mna)));
//! let wave = engine.tran(mna, &TranSpec::new(1e-11, 10e-9)).unwrap();
//! let v_end = *wave.voltage(vout.0).last().unwrap();
//! assert!((v_end - 1.0).abs() < 1e-3); // fully charged after 10 RC
//! ```

#![forbid(unsafe_code)]

pub mod deck;
pub mod netlist;

pub use cnfet_mna::SourceWave;
pub use deck::DeckError;
pub use netlist::{to_mna, Circuit, Node};
