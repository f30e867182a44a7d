//! The in-process backend: a deposit is a push into the destination's
//! [`Mailbox`].
//!
//! The fast path: payloads travel as
//! [`PooledBuf`](crate::pool::PooledBuf)s (no serialization), and the
//! mailbox's FIFO order provides the per-link non-overtaking guarantee
//! directly. A deposit to a rank whose `Comm` is gone returns
//! [`TransportError::Closed`], so peer death surfaces as
//! [`CommError::PeerUnreachable`](crate::error::CommError::PeerUnreachable)
//! exactly like it does on the remote backends.

use std::sync::Arc;

use super::{Transport, TransportError, TransportKind, TransportResult};
use crate::envelope::Envelope;
use crate::mailbox::Mailbox;

/// Mailbox-per-rank transport; all ranks share the process.
pub struct InProcTransport {
    mailboxes: Vec<Arc<Mailbox>>,
}

impl InProcTransport {
    /// Deliver into `mailboxes`, one per rank.
    pub fn new(mailboxes: &[Arc<Mailbox>]) -> InProcTransport {
        InProcTransport {
            mailboxes: mailboxes.to_vec(),
        }
    }
}

impl Transport for InProcTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::InProcess
    }

    fn size(&self) -> usize {
        self.mailboxes.len()
    }

    #[inline]
    fn deposit(&self, dst: usize, env: Envelope) -> TransportResult<()> {
        self.mailboxes[dst]
            .push(env)
            .map_err(|_| TransportError::Closed { peer: dst })
    }

    fn shutdown(&self, _rank: usize) {
        // Endpoint lifetime is the rank's `Comm` lifetime: its last
        // handle closes the mailbox.
    }

    fn in_process(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::per_rank;

    #[test]
    fn deposits_route_and_preserve_fifo() {
        let mbs = per_rank::<Mailbox>(2);
        let t = InProcTransport::new(&mbs);
        assert_eq!(t.size(), 2);
        assert_eq!(t.kind(), TransportKind::InProcess);
        assert!(t.in_process());
        for i in 0..10u8 {
            t.deposit(1, Envelope::new(0, 0, 0, vec![i])).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(mbs[1].try_pop().unwrap().data, vec![i]);
        }
        assert!(mbs[0].try_pop().is_none());
    }

    #[test]
    fn deposit_to_dropped_endpoint_errors() {
        let mbs = per_rank::<Mailbox>(2);
        let t = InProcTransport::new(&mbs);
        mbs[1].close();
        let err = t.deposit(1, Envelope::new(0, 0, 0, vec![1u8])).unwrap_err();
        assert_eq!(err, TransportError::Closed { peer: 1 });
    }
}
