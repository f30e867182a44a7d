//! Pluggable envelope delivery: the [`Transport`] trait and its backends.
//!
//! A universe is not its interconnect: multi-process hosts and a
//! long-running collective service need ranks that do not share an
//! address space, so envelope delivery sits behind a trait. Every
//! backend ends in the same place — a push into the destination rank's
//! [`Mailbox`], which the fabric owns — and
//! differs in how the envelope gets there:
//!
//! * [`inproc::InProcTransport`] — the fast path: a deposit *is* the
//!   push, payloads stay as [`PooledBuf`](crate::pool::PooledBuf)s and
//!   retarget to the receiver's pool, nothing is serialized.
//! * [`shm::ShmTransport`] — one memory-mapped byte ring per directed
//!   link in a single shared file, for multi-process single-host
//!   universes ([`Universe::spawn_processes`](crate::Universe::spawn_processes)).
//!   Envelopes cross the wire format of [`wire`]; a progress thread per
//!   local rank drains the rank's inbound rings into its mailbox.
//! * [`socket::SocketTransport`] — length-prefixed frames over blocking
//!   Unix-domain or TCP sockets (std only), one full-duplex stream per
//!   ordered rank pair and a dedicated progress thread per rank
//!   multiplexing the inbound streams.
//!
//! The contract every backend must honor (pinned by the
//! `transport_conformance` suite, which runs the same matrix against all
//! of them):
//!
//! * **Reliable FIFO links, or honest errors.** `deposit(dst, env)`
//!   either enqueues the envelope for exactly-once, per-link FIFO
//!   delivery, or returns a [`TransportError`] naming the peer. It never
//!   panics on peer death and never silently drops.
//! * **Per-`(src, dst)` ordering** is the MPI non-overtaking guarantee
//!   the matching engine builds on: two deposits from the same source to
//!   the same destination arrive in deposit order. Nothing is guaranteed
//!   across links.
//! * **Shutdown is per-rank and idempotent.** [`Transport::shutdown`]
//!   declares a local rank done: its progress machinery may stop and its
//!   endpoint may drop. Traffic *to* a shut-down rank must keep
//!   returning errors (or vanish into a closed endpoint), never block
//!   forever or panic — dead peers surface as
//!   [`CommError::PeerUnreachable`](crate::error::CommError::PeerUnreachable).
//!
//! Observability, pooling and the plan cache sit *above* this trait and
//! do not care what carries the bytes: above it every link is perfect —
//! possibly slow, possibly closed.

pub mod inproc;
pub mod mmap;
pub mod shm;
pub mod socket;
pub mod wire;

use std::fmt;
use std::sync::Arc;

use crate::envelope::Envelope;
use crate::mailbox::Mailbox;
use crate::pool::WirePool;

/// Which backend a [`crate::fabric::Fabric`] (and thus a `Universe`)
/// runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// A deposit pushes straight into the destination's mailbox. The
    /// default and the fast path.
    #[default]
    InProcess,
    /// Memory-mapped byte ring per directed link in one shared file;
    /// works across processes on one host.
    SharedMem,
    /// Length-prefixed frames over Unix-domain sockets.
    Uds,
    /// Length-prefixed frames over loopback TCP sockets.
    Tcp,
}

impl TransportKind {
    /// Parse a backend name as used by CLI flags and the
    /// `TRANSPORT_BACKEND` test filter: `inproc`, `shm`, `uds`, `tcp`.
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s.trim() {
            "inproc" | "in-process" | "channel" => Some(TransportKind::InProcess),
            "shm" | "shared-mem" | "sharedmem" => Some(TransportKind::SharedMem),
            "uds" | "unix" => Some(TransportKind::Uds),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }

    /// The CLI-facing name of this backend.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::InProcess => "inproc",
            TransportKind::SharedMem => "shm",
            TransportKind::Uds => "uds",
            TransportKind::Tcp => "tcp",
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A delivery failure at the transport layer. Communication APIs map
/// these to [`CommError::PeerUnreachable`](crate::error::CommError::PeerUnreachable),
/// so callers handle "the wire broke" and "the peer went silent"
/// uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer's endpoint is gone (rank terminated, mailbox or stream
    /// closed).
    Closed {
        /// Rank whose endpoint is closed.
        peer: usize,
    },
    /// An I/O error on the link to `peer` (socket write failure, ring
    /// stalled full past its deadline, …).
    Io {
        /// Rank on the other end of the failing link.
        peer: usize,
        /// Human-readable cause.
        msg: String,
    },
}

impl TransportError {
    /// The rank on the other end of the failed link.
    pub fn peer(&self) -> usize {
        match self {
            TransportError::Closed { peer } | TransportError::Io { peer, .. } => *peer,
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed { peer } => write!(f, "endpoint of rank {peer} is closed"),
            TransportError::Io { peer, msg } => write!(f, "link to rank {peer} failed: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Result alias for transport operations.
pub type TransportResult<T> = Result<T, TransportError>;

/// Envelope delivery between ranks. See the [module docs](self) for the
/// contract; see [`crate::fabric::Fabric`] for the layer that owns one
/// of these and adds the mailboxes and pooling on top.
pub trait Transport: Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> TransportKind;

    /// Number of ranks in the universe (across all processes).
    fn size(&self) -> usize;

    /// Enqueue `env` for delivery to `dst`'s endpoint. `env.src` names
    /// the *originating* rank, which for remote backends selects the
    /// directed link.
    fn deposit(&self, dst: usize, env: Envelope) -> TransportResult<()>;

    /// Declare local rank `rank` finished: its progress machinery may
    /// stop. Idempotent; called by the launcher after the rank program
    /// returns, and again for every rank on drop.
    fn shutdown(&self, rank: usize);

    /// True when sender and receiver share one address space, i.e.
    /// payloads cross as [`PooledBuf`](crate::pool::PooledBuf)s without
    /// serialization and the fabric may retarget them to the receiving
    /// rank's pool.
    fn in_process(&self) -> bool {
        false
    }
}

/// What a progress thread does with the bytes it has accumulated from
/// one link: decode every complete frame at the front of `acc` (payloads
/// from the receiving rank's `pool`) and push it into the rank's
/// mailbox. A closed mailbox (rank program finished) turns delivery into
/// draining, so peers never stall on a full ring or socket buffer.
pub(crate) fn deliver_frames(acc: &mut Vec<u8>, pool: &Arc<WirePool>, mailbox: &Mailbox) {
    let mut cursor = 0;
    while let Some((env, used)) = wire::decode_from(&acc[cursor..], pool) {
        cursor += used;
        let _ = mailbox.push(env);
    }
    if cursor > 0 {
        acc.drain(..cursor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_roundtrips() {
        for k in [
            TransportKind::InProcess,
            TransportKind::SharedMem,
            TransportKind::Uds,
            TransportKind::Tcp,
        ] {
            assert_eq!(TransportKind::parse(k.name()), Some(k));
        }
        assert_eq!(TransportKind::parse("carrier-pigeon"), None);
    }

    #[test]
    fn error_names_peer() {
        let e = TransportError::Closed { peer: 3 };
        assert_eq!(e.peer(), 3);
        assert!(e.to_string().contains('3'));
        let e = TransportError::Io {
            peer: 7,
            msg: "broken pipe".into(),
        };
        assert_eq!(e.peer(), 7);
        assert!(e.to_string().contains("broken pipe"));
    }
}
