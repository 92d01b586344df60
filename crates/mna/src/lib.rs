//! Reusable-factorization MNA engine: symbolic structure split from
//! numeric values, with transient and AC small-signal analysis.
//!
//! The crate separates *what a circuit is shaped like* from *what its
//! values are*:
//!
//! - [`MnaCircuit`] holds elements (R, C, L, voltage sources, FETs) over
//!   plain `usize` nodes (0 = ground).
//! - [`Pattern::analyze`] runs the symbolic half **once per topology**:
//!   unknown indexing (nodes, then source branches, then inductor
//!   branches) and per-element stamping plans. A [`PatternCache`]
//!   memoizes patterns, so same-topology circuits — sweep corners, load
//!   points — do zero symbolic re-analysis.
//! - [`Engine`] owns the numeric half: a preallocated [`LuFactor`] that
//!   is re-stamped and re-factored **in place** per Newton iteration and
//!   per timestep, reusing the recorded pivot order
//!   ([`LuFactor::refactor`]) so steady-state solving allocates nothing
//!   and searches no pivots. A circuit without FETs skips even the
//!   refactor while its system (DC, or the companion step) is unchanged.
//!
//! Transient analysis ([`Engine::tran`]) integrates capacitors and
//! inductors through companion models (backward-Euler or trapezoidal,
//! see [`Method`]) with local timestep halving on convergence failure,
//! recording a strictly monotone [`Waveform`] with typed [`Probe`]s. AC
//! analysis ([`Engine::ac`]) linearizes about the DC operating point and
//! sweeps a log frequency grid through a real 2n×2n embedding of the
//! complex system. The [`measure`] module extracts `.measure`-style
//! quantities (crossings, delay, slew, supply energy) from waveforms.
//!
//! ```
//! use cnfet_mna::{Engine, MnaCircuit, Pattern, SourceWave, TranSpec};
//! use std::sync::Arc;
//!
//! // 1 kΩ into 1 pF, stepped from 0 to 1 V: classic RC charge.
//! let mut c = MnaCircuit::new();
//! c.vsource(1, 0, SourceWave::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
//! c.resistor(1, 2, 1e3);
//! c.capacitor(2, 0, 1e-12);
//!
//! let pattern = Arc::new(Pattern::analyze(&c));
//! let mut engine = Engine::new(pattern);
//! let wave = engine.tran(&c, &TranSpec::new(2e-12, 3e-9)).unwrap();
//! let v_end = *wave.voltage(2).last().unwrap();
//! assert!((v_end - 0.95).abs() < 0.05); // ~3 time constants in
//! ```

#![warn(missing_docs)]

mod ac;
mod circuit;
mod engine;
pub mod measure;
mod pattern;
mod solver;
mod stamp;
mod waveform;

pub use ac::{AcResult, AcSpec};
pub use circuit::{MnaCircuit, MnaElement, SourceWave};
pub use engine::{Engine, MnaError, TranSpec, GMIN};
pub use pattern::{Pattern, PatternCache};
pub use solver::{LuFactor, Singular, SolveStats};
pub use stamp::Method;
pub use waveform::{Probe, Waveform};
