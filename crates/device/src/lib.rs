//! Device models for the CNFET design kit: CNT physics, a Deng–Wong-style
//! CNFET compact model with inter-CNT screening, and an industrial-65nm-like
//! CMOS baseline.
//!
//! This crate substitutes for the Stanford CNFET HSPICE model and the
//! proprietary 65 nm library used by the paper. The models are *compact and
//! calibrated*: their functional forms encode the physical mechanisms the
//! paper describes (per-tube drive, gate-to-CNT capacitance reduced by
//! inter-CNT charge screening, per-width contact parasitics), and their
//! constants are calibrated so the published anchor points of Section V
//! hold:
//!
//! * 1 CNT/device: FO4 delay gain ≈ 2.75x, energy/cycle gain ≈ 6.3x;
//! * optimal pitch 5 nm: delay gain ≈ 4.2x, energy gain ≈ 2.0x;
//! * ≤1% FO4 delay variation across the 4.5–5.5 nm pitch window.
//!
//! # Example
//!
//! ```
//! use cnfet_device::{CnfetModel, CmosModel, fo4};
//!
//! let cnfet = CnfetModel::poly_65nm();
//! let cmos = CmosModel::industrial_65nm();
//! let curve = fo4::gain_curve(&cnfet, &cmos, 32);
//! let peak = curve.iter().max_by(|a, b| a.delay_gain.total_cmp(&b.delay_gain)).unwrap();
//! assert_eq!(peak.n_tubes, 26); // 5 nm pitch in a 4λ-wide device
//! ```

#![forbid(unsafe_code)]

pub mod alpha_power;
pub mod cmos;
pub mod cnfet;
pub mod cnt;
pub mod fo4;
pub mod interp;

pub use alpha_power::AlphaPowerLaw;
pub use cmos::CmosModel;
pub use cnfet::CnfetModel;
pub use cnt::Chirality;
pub use interp::LinearTable;

/// Channel polarity of a FET.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// n-type (pull-down) device.
    N,
    /// p-type (pull-up) device.
    P,
}

/// A quasi-static large-signal FET description, sufficient for transient
/// simulation: drain current surface plus lumped terminal capacitances.
///
/// Currents follow the n-type convention: `ids(vgs, vds)` is the current
/// from drain to source for an n-device with the given terminal voltages;
/// p-devices are handled by the simulator mirroring voltages.
pub trait FetModel {
    /// Drain-source current of the *n-convention* device in amperes.
    fn ids(&self, vgs: f64, vds: f64) -> f64;
    /// Total gate capacitance (farads); the simulator splits it between
    /// gate-source and gate-drain.
    fn cgate(&self) -> f64;
    /// Drain-to-bulk (ground) parasitic capacitance in farads.
    fn cdrain(&self) -> f64;
    /// Channel polarity.
    fn polarity(&self) -> Polarity;
}
