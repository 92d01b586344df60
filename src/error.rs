//! The workspace-wide error hierarchy.
//!
//! Every crate in the workspace keeps its own narrow error enum
//! (`GenerateError`, `MnaError`, `GdsError`, …) so library code stays
//! precise, but the public [`Session`](crate::Session) surface speaks one
//! language: [`CnfetError`], with a `From` conversion for each crate-level
//! error and a workspace [`Result`] alias. The conversions play the role
//! `#[derive(thiserror::Error)] #[from]` would — written out by hand, as
//! the workspace builds without external dependencies.

use std::fmt;

/// Workspace result alias.
pub type Result<T> = std::result::Result<T, CnfetError>;

/// Any failure the CNFET stack can produce.
#[derive(Debug)]
#[non_exhaustive]
pub enum CnfetError {
    /// Layout generation failed (`cnfet_core`).
    Generate(crate::core::GenerateError),
    /// A boolean expression could not be parsed (`cnfet_logic`).
    Parse(crate::logic::ParseError),
    /// An expression has no pull-network realization (`cnfet_logic`).
    Network(crate::logic::network::NetworkError),
    /// Circuit simulation failed (`cnfet_mna`).
    Sim(crate::mna::MnaError),
    /// A SPICE deck could not be parsed, or a deck-level request (a
    /// [`TranRequest`](crate::TranRequest) analysis spec or probe name)
    /// was invalid (`cnfet_spice`).
    Deck(crate::spice::DeckError),
    /// A GDSII stream could not be read (`cnfet_geom`).
    Gds(crate::geom::GdsError),
    /// A layout-library operation failed (`cnfet_geom`).
    Library(crate::geom::layout::LibraryError),
    /// Structural Verilog could not be parsed (`cnfet_flow`).
    Verilog(crate::flow::VerilogError),
    /// A request referenced a cell the session's library does not hold.
    MissingCell(String),
    /// A request carried a value no execution could give meaning to — a
    /// NaN grid axis, an empty candidate schedule, a zero pass count.
    /// Rejected *before* cache-key rendering so a malformed request can
    /// neither poison a single-flight entry nor occupy a cache slot.
    InvalidRequest {
        /// Dotted path of the offending field (e.g.
        /// `grid.metallic_fractions[1]`).
        field: String,
        /// What the field was expected to hold.
        message: String,
    },
    /// A submitted job was abandoned before it produced a result: its
    /// session shut down with the job still queued, or the request
    /// panicked on a pool worker.
    Canceled,
    /// Filesystem I/O failed (artifact export).
    Io(std::io::Error),
}

impl fmt::Display for CnfetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CnfetError::Generate(e) => write!(f, "layout generation: {e}"),
            CnfetError::Parse(e) => write!(f, "expression parse: {e}"),
            CnfetError::Network(e) => write!(f, "pull network: {e}"),
            CnfetError::Sim(e) => write!(f, "simulation: {e}"),
            CnfetError::Deck(e) => write!(f, "{e}"),
            CnfetError::Gds(e) => write!(f, "gds: {e}"),
            CnfetError::Library(e) => write!(f, "layout library: {e}"),
            CnfetError::Verilog(e) => write!(f, "{e}"),
            CnfetError::MissingCell(name) => {
                write!(f, "cell `{name}` is not in the session's library")
            }
            CnfetError::InvalidRequest { field, message } => {
                write!(f, "invalid request: {field}: {message}")
            }
            CnfetError::Canceled => write!(f, "job canceled before it produced a result"),
            CnfetError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for CnfetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CnfetError::Generate(e) => Some(e),
            CnfetError::Parse(e) => Some(e),
            CnfetError::Network(e) => Some(e),
            CnfetError::Sim(e) => Some(e),
            CnfetError::Deck(e) => Some(e),
            CnfetError::Gds(e) => Some(e),
            CnfetError::Library(e) => Some(e),
            CnfetError::Verilog(e) => Some(e),
            CnfetError::MissingCell(_) => None,
            CnfetError::InvalidRequest { .. } => None,
            CnfetError::Canceled => None,
            CnfetError::Io(e) => Some(e),
        }
    }
}

macro_rules! from_impl {
    ($($variant:ident <- $ty:ty),* $(,)?) => {$(
        impl From<$ty> for CnfetError {
            fn from(e: $ty) -> CnfetError {
                CnfetError::$variant(e)
            }
        }
    )*};
}

from_impl! {
    Generate <- crate::core::GenerateError,
    Parse <- crate::logic::ParseError,
    Network <- crate::logic::network::NetworkError,
    Sim <- crate::mna::MnaError,
    Deck <- crate::spice::DeckError,
    Gds <- crate::geom::GdsError,
    Library <- crate::geom::layout::LibraryError,
    Verilog <- crate::flow::VerilogError,
    Io <- std::io::Error,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn conversions_from_every_crate_error() {
        let g: CnfetError = crate::core::GenerateError::NonUniformSeries("x".into()).into();
        assert!(matches!(g, CnfetError::Generate(_)));
        assert!(g.source().is_some());

        let p: CnfetError = crate::logic::Expr::parse("((").unwrap_err().into();
        assert!(matches!(p, CnfetError::Parse(_)));

        let n: CnfetError = crate::logic::network::NetworkError::NotPositive.into();
        assert!(matches!(n, CnfetError::Network(_)));

        let s: CnfetError = crate::mna::MnaError::Singular.into();
        assert!(matches!(s, CnfetError::Sim(_)));

        let k: CnfetError = crate::spice::Circuit::from_spice("Q1 a b c 1")
            .unwrap_err()
            .into();
        assert!(matches!(k, CnfetError::Deck(_)));
        assert!(k.to_string().contains("deck line 1"));

        let d: CnfetError = crate::geom::GdsError::Truncated.into();
        assert!(matches!(d, CnfetError::Gds(_)));

        let l: CnfetError = crate::geom::layout::LibraryError::MissingCell("INV".into()).into();
        assert!(matches!(l, CnfetError::Library(_)));

        let v: CnfetError = crate::flow::parse_verilog("garbage").unwrap_err().into();
        assert!(matches!(v, CnfetError::Verilog(_)));

        let i: CnfetError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(i, CnfetError::Io(_)));
    }

    #[test]
    fn display_includes_inner_message() {
        let e: CnfetError = crate::mna::MnaError::Singular.into();
        assert!(e.to_string().contains("singular"));
    }

    #[test]
    fn invalid_request_names_the_field() {
        let e = CnfetError::InvalidRequest {
            field: "grid.metallic_fractions[1]".into(),
            message: "expected a finite non-negative number, got NaN".into(),
        };
        assert!(e.to_string().contains("grid.metallic_fractions[1]"));
        assert!(e.source().is_none());
    }
}
