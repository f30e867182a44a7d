//! Errors for the message-passing runtime.

use std::fmt;

use cartcomm_types::TypeError;

/// Errors raised by communication operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A rank index was out of range for the communicator.
    InvalidRank { rank: usize, size: usize },
    /// A message arrived whose payload does not fit the posted receive
    /// datatype (truncation is an error, as in MPI).
    Truncation { received: usize, capacity: usize },
    /// The mailbox closed (its progress thread stopped) while a receive was
    /// outstanding.
    Disconnected { peer: String },
    /// Datatype-level failure (bounds, size mismatch) during gather/scatter.
    Type(TypeError),
    /// An exchange batch was malformed (e.g. duplicate receive slots).
    InvalidExchange(String),
    /// The link to `peer` gave out: the transport could not deliver
    /// (the endpoint is closed or the wire broke).
    PeerUnreachable { peer: usize },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            CommError::Truncation { received, capacity } => write!(
                f,
                "message truncated: {received} bytes arrived for a {capacity}-byte receive"
            ),
            CommError::Disconnected { peer } => write!(f, "peer {peer} disconnected"),
            CommError::Type(e) => write!(f, "datatype error: {e}"),
            CommError::InvalidExchange(msg) => write!(f, "invalid exchange batch: {msg}"),
            CommError::PeerUnreachable { peer } => write!(f, "peer {peer} unreachable"),
        }
    }
}

impl std::error::Error for CommError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommError::Type(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TypeError> for CommError {
    fn from(e: TypeError) -> Self {
        CommError::Type(e)
    }
}

impl From<crate::transport::TransportError> for CommError {
    /// A transport failure is an unreachable peer.
    fn from(e: crate::transport::TransportError) -> Self {
        CommError::PeerUnreachable { peer: e.peer() }
    }
}

impl From<crate::mailbox::Closed> for CommError {
    /// A receive whose mailbox closed under it: the progress thread that
    /// fed it has stopped.
    fn from(_: crate::mailbox::Closed) -> Self {
        CommError::Disconnected {
            peer: "fabric".into(),
        }
    }
}

/// Result alias for communication operations.
pub type CommResult<T> = Result<T, CommError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CommError::InvalidRank { rank: 9, size: 4 };
        assert!(e.to_string().contains('9'));
        let e = CommError::Truncation {
            received: 100,
            capacity: 10,
        };
        assert!(e.to_string().contains("100"));
        let e: CommError = TypeError::SizeMismatch {
            expected: 1,
            actual: 2,
        }
        .into();
        assert!(matches!(e, CommError::Type(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn transport_errors_become_peer_unreachable() {
        let e: CommError = crate::transport::TransportError::Closed { peer: 2 }.into();
        assert_eq!(e, CommError::PeerUnreachable { peer: 2 });
    }
}
