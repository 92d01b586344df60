//! Boolean logic and series–parallel network machinery for CNFET layout
//! synthesis.
//!
//! The paper's compact imperfection-immune layout technique works on the
//! *transistor network* level: a static CNFET gate computes `F = !D(X)`
//! where the pull-down network realizes the positive-unate function `D` as
//! a series–parallel device graph and the pull-up network realizes its
//! dual. The new layout is obtained by drawing an **Euler path** through
//! the network graph, "considering the metal contacts (Vdd/Out/Gnd) as
//! nodes and gates (A/B/C) as edges" (Section III).
//!
//! This crate provides:
//!
//! * [`Expr`] — boolean expressions with a parser ([`Expr::parse`]) and
//!   evaluator;
//! * [`SpNetwork`] — series–parallel device networks, their duals, path and
//!   cut enumeration;
//! * [`PullGraph`] — the multigraph view (contacts = nodes, gates = edges);
//! * [`euler`] — Euler path construction and minimum open-trail
//!   decomposition, which generalizes the paper's SOP-row construction.
//!
//! # Example: the NAND3 pull-up network of Figure 3
//!
//! ```
//! use cnfet_logic::{Expr, SpNetwork, PullGraph, euler};
//!
//! let pdn_fn = Expr::parse("A*B*C").unwrap();      // NAND3 pull-down: series
//! let pdn = SpNetwork::from_expr(&pdn_fn.expr).unwrap();
//! let pun = pdn.dual();                            // pull-up: parallel
//! let graph = PullGraph::from_network(&pun);
//! let trail = euler::euler_trails(&graph).remove(0);
//! // Vdd-A-Out-B-Vdd-C-Out: 3 gates, 4 contact visits.
//! assert_eq!(trail.edges.len(), 3);
//! assert_eq!(trail.nodes.len(), 4);
//! ```

#![forbid(unsafe_code)]

pub mod adder;
pub mod euler;
pub mod expr;
pub mod graph;
pub mod network;
pub mod vars;

pub use adder::{AdderKind, AdderPlan, PrefixNode};
pub use euler::{euler_path, euler_trails, Trail};
pub use expr::{parse_letters, Expr, ExprWithVars, ParseError};
pub use graph::{EdgeId, NodeId, NodeKind, PullGraph};
pub use network::SpNetwork;
pub use vars::{VarId, VarTable};
