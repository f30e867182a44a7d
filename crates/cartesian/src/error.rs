//! Errors for Cartesian collective operations.

use std::fmt;

use cartcomm_comm::CommError;
use cartcomm_topo::TopoError;
use cartcomm_types::TypeError;

/// Errors raised by Cartesian collective communication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CartError {
    /// Topology-level failure (dimension mismatch, sizes, ...).
    Topo(TopoError),
    /// Communication-level failure.
    Comm(CommError),
    /// Datatype-level failure.
    Type(TypeError),
    /// The collective neighborhood-creation check failed: not all processes
    /// supplied the same relative neighborhood (violates the Cartesian
    /// requirement of Listing 1).
    NotIsomorphic,
    /// Buffer sizes passed to a collective do not match the neighborhood
    /// and counts.
    BadBufferSize {
        what: &'static str,
        expected: usize,
        actual: usize,
    },
    /// Counts/displacements arrays have the wrong length for the
    /// t-neighborhood.
    BadCounts {
        what: &'static str,
        expected: usize,
        actual: usize,
    },
    /// Send-side and receive-side block sizes disagree for a block index —
    /// the irregular combining schedules require identical per-index sizes
    /// on all processes (§3.3).
    BlockSizeMismatch {
        block: usize,
        send: usize,
        recv: usize,
    },
    /// The given allgatherv counts are not uniform, which the combining
    /// allgather schedule requires (isomorphism forces one block size; see
    /// DESIGN.md).
    NonUniformAllgatherCounts,
}

impl fmt::Display for CartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CartError::Topo(e) => write!(f, "topology error: {e}"),
            CartError::Comm(e) => write!(f, "communication error: {e}"),
            CartError::Type(e) => write!(f, "datatype error: {e}"),
            CartError::NotIsomorphic => write!(
                f,
                "neighborhood is not Cartesian: processes supplied different relative neighbor lists"
            ),
            CartError::BadBufferSize {
                what,
                expected,
                actual,
            } => write!(f, "{what} buffer holds {actual} bytes, expected {expected}"),
            CartError::BadCounts {
                what,
                expected,
                actual,
            } => write!(f, "{what} has {actual} entries, expected {expected}"),
            CartError::BlockSizeMismatch { block, send, recv } => write!(
                f,
                "block {block}: send size {send} != receive size {recv}"
            ),
            CartError::NonUniformAllgatherCounts => write!(
                f,
                "combining allgatherv requires one uniform block size (see DESIGN.md §3.3 discussion)"
            ),
        }
    }
}

impl std::error::Error for CartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CartError::Topo(e) => Some(e),
            CartError::Comm(e) => Some(e),
            CartError::Type(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopoError> for CartError {
    fn from(e: TopoError) -> Self {
        CartError::Topo(e)
    }
}

impl From<CommError> for CartError {
    fn from(e: CommError) -> Self {
        CartError::Comm(e)
    }
}

impl From<TypeError> for CartError {
    fn from(e: TypeError) -> Self {
        CartError::Type(e)
    }
}

/// Result alias for Cartesian collective operations.
pub type CartResult<T> = Result<T, CartError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CartError = TopoError::EmptyNeighborhood.into();
        assert!(matches!(e, CartError::Topo(_)));
        assert!(e.to_string().contains("topology"));
        let e: CartError = CommError::InvalidExchange("x".into()).into();
        assert!(std::error::Error::source(&e).is_some());
        let e: CartError = TypeError::InvalidArgument("x".into()).into();
        assert!(e.to_string().contains("datatype"));
        assert!(CartError::NotIsomorphic.to_string().contains("Cartesian"));
        let e = CartError::BadBufferSize {
            what: "send",
            expected: 10,
            actual: 4,
        };
        assert!(e.to_string().contains("send"));
        assert!(std::error::Error::source(&CartError::NotIsomorphic).is_none());
    }
}
