//! The shared interconnect: per-rank endpoints and pooling layered over
//! a pluggable [`Transport`].
//!
//! The fabric is the stand-in for the cluster network. It owns one
//! [`Mailbox`] per rank; any rank may deposit an [`Envelope`] toward any
//! other rank, the backend ([`Transport`]) carries it into the
//! destination's mailbox with per-link FIFO order — the MPI
//! *non-overtaking* guarantee per (source, context, tag) the matching
//! engine builds on — and the rank's [`Comm`](crate::Comm) pops it.
//!
//! What the fabric adds above the transport: per-rank **mailboxes**,
//! **wire pools** and **observability** handles (a deposit credits the
//! sender's wire-byte counters).
//!
//! Deposits are fallible: a backend whose peer endpoint is gone (rank
//! terminated, socket broken, ring stalled) reports
//! a [`TransportError`](crate::transport::TransportError), which the
//! communication layer maps to
//! [`CommError::PeerUnreachable`](crate::error::CommError::PeerUnreachable).

use std::io;
use std::path::Path;
use std::sync::Arc;

use cartcomm_obs::Obs;

use crate::envelope::Envelope;
use crate::mailbox::Mailbox;
use crate::pool::WirePool;
use crate::transport::inproc::InProcTransport;
use crate::transport::shm::ShmTransport;
use crate::transport::socket::SocketTransport;
use crate::transport::{Transport, TransportKind, TransportResult};

/// What every rank owns one of, indexed by rank.
pub(crate) fn per_rank<T: Default>(p: usize) -> Vec<Arc<T>> {
    (0..p).map(|_| Arc::new(T::default())).collect()
}

/// Shared interconnect state for a universe of `p` ranks.
pub struct Fabric {
    transport: Box<dyn Transport>,
    /// Per-rank inbound queues. The transport delivers into them (it
    /// holds its own handles); each rank's `Comm` pops its own.
    mailboxes: Vec<Arc<Mailbox>>,
    /// Per-rank wire-buffer pools. On an in-process transport `deposit`
    /// retargets each payload to the destination's pool; serializing
    /// backends instead decode into the receiving rank's pool.
    pools: Vec<Arc<WirePool>>,
    /// Per-rank observability handles; `deposit` credits the sender's
    /// wire-byte counters here.
    obs: Vec<Arc<Obs>>,
}

impl Fabric {
    /// Create an in-process fabric. This is the default, infallible
    /// fast path.
    pub fn new(p: usize) -> Fabric {
        Fabric::for_backend(TransportKind::InProcess, p)
            .expect("the in-process backend cannot fail to construct")
    }

    /// Create a fabric on the named backend, all ranks local to this
    /// process. Only the in-process constructor is infallible; the
    /// others touch the filesystem or the network stack.
    pub fn for_backend(kind: TransportKind, p: usize) -> io::Result<Fabric> {
        let (pools, mailboxes, obs) = (per_rank(p), per_rank(p), per_rank(p));
        let transport: Box<dyn Transport> = match kind {
            TransportKind::InProcess => Box::new(InProcTransport::new(&mailboxes)),
            TransportKind::SharedMem => Box::new(ShmTransport::for_threads(p, &pools, &mailboxes)?),
            TransportKind::Uds => Box::new(SocketTransport::uds(p, &pools, &mailboxes)?),
            TransportKind::Tcp => Box::new(SocketTransport::tcp(p, &pools, &mailboxes)?),
        };
        Ok(Fabric {
            transport,
            mailboxes,
            pools,
            obs,
        })
    }

    /// Attach to an existing shared-memory fabric file as one rank of a
    /// multi-process universe (see `Universe::spawn_processes`).
    pub fn attach_shm(path: &Path, p: usize, rank: usize) -> io::Result<Fabric> {
        let (pools, mailboxes, obs) = (per_rank(p), per_rank(p), per_rank(p));
        let transport = ShmTransport::attach(path, p, &[rank], &pools, &mailboxes, false)?;
        let transport = Box::new(transport);
        Ok(Fabric {
            transport,
            mailboxes,
            pools,
            obs,
        })
    }

    /// Which backend carries this fabric's envelopes.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport.kind()
    }

    /// The inbound queue of `rank`.
    #[inline]
    pub fn mailbox(&self, rank: usize) -> &Arc<Mailbox> {
        &self.mailboxes[rank]
    }

    /// The wire-buffer pool owned by `rank`.
    #[inline]
    pub fn pool(&self, rank: usize) -> &Arc<WirePool> {
        &self.pools[rank]
    }

    /// The observability handle owned by `rank`.
    #[inline]
    pub fn obs(&self, rank: usize) -> &Arc<Obs> {
        &self.obs[rank]
    }

    /// Number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// Deposit an envelope toward `dst`. Panics on an invalid
    /// destination (callers validate ranks at the API boundary); returns
    /// an error when the backend cannot reach `dst` — endpoint closed,
    /// stream broken, ring stalled.
    ///
    /// The sender's `wire_bytes_sent` is credited here, once per deposit.
    #[inline]
    pub fn deposit(&self, dst: usize, mut env: Envelope) -> TransportResult<()> {
        self.obs[env.src].metrics().add_wire_sent(env.data.len());
        if self.transport.in_process() {
            // From here the buffer belongs to the receiving side: when the
            // receiver drops it after unpacking, the bytes land in *its*
            // pool. Serializing backends skip this — their payload buffer
            // recycles into the sender's pool after encoding, and the
            // receive side decodes into its own pool.
            env.data.retarget(&self.pools[dst]);
        }
        self.transport.deposit(dst, env)
    }

    /// Whether every rank of this fabric lives in this process
    /// ([`Transport::in_process`]).
    pub(crate) fn in_process(&self) -> bool {
        self.transport.in_process()
    }

    /// Declare `rank`'s program finished: the backend may stop that
    /// rank's progress machinery. Idempotent.
    pub fn rank_done(&self, rank: usize) {
        self.transport.shutdown(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportError;

    #[test]
    fn fabric_routes_to_correct_rank() {
        let fabric = Fabric::new(3);
        assert_eq!(fabric.size(), 3);
        assert_eq!(fabric.transport_kind(), TransportKind::InProcess);
        fabric
            .deposit(
                2,
                Envelope {
                    ctx: 0,
                    src: 0,
                    tag: 7,
                    data: vec![1, 2, 3].into(),
                },
            )
            .unwrap();
        let env = fabric.mailbox(2).try_pop().unwrap();
        assert_eq!(env.src, 0);
        assert_eq!(env.tag, 7);
        assert_eq!(env.data, vec![1, 2, 3]);
        assert!(fabric.mailbox(0).try_pop().is_none());
        assert!(fabric.mailbox(1).try_pop().is_none());
    }

    #[test]
    fn fabric_preserves_fifo_per_sender() {
        let fabric = Fabric::new(2);
        for i in 0..10u8 {
            fabric
                .deposit(
                    1,
                    Envelope {
                        ctx: 0,
                        src: 0,
                        tag: 0,
                        data: vec![i].into(),
                    },
                )
                .unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(fabric.mailbox(1).try_pop().unwrap().data, vec![i]);
        }
    }

    #[test]
    fn deposit_credits_the_senders_wire_bytes() {
        let fabric = Fabric::new(2);
        fabric
            .deposit(0, Envelope::new(0, 1, 0, vec![0u8; 100]))
            .unwrap();
        fabric
            .deposit(1, Envelope::new(0, 0, 0, vec![0u8; 28]))
            .unwrap();
        assert_eq!(fabric.obs(1).snapshot().wire_bytes_sent, 100);
        assert_eq!(fabric.obs(0).snapshot().wire_bytes_sent, 28);
    }

    #[test]
    fn self_deposit_works() {
        let fabric = Fabric::new(1);
        fabric
            .deposit(
                0,
                Envelope {
                    ctx: 0,
                    src: 0,
                    tag: 1,
                    data: vec![42].into(),
                },
            )
            .unwrap();
        assert_eq!(fabric.mailbox(0).try_pop().unwrap().data, vec![42]);
    }

    #[test]
    fn deposit_to_terminated_rank_errors_instead_of_panicking() {
        let fabric = Arc::new(Fabric::new(2));
        drop(crate::Comm::new(1, Arc::clone(&fabric)));
        let err = fabric
            .deposit(1, Envelope::new(0, 0, 0, vec![1u8]))
            .unwrap_err();
        assert_eq!(err, TransportError::Closed { peer: 1 });
        assert_eq!(err.peer(), 1);
    }

    #[test]
    fn recv_parks_counts_the_receives_that_slept() {
        let fabric = Arc::new(Fabric::new(2));
        let comm = crate::Comm::new(1, Arc::clone(&fabric));
        let send = |tag| {
            fabric
                .deposit(1, Envelope::new(0, 0, tag, vec![1u8]))
                .unwrap()
        };
        // Already queued: nothing to wait for.
        send(7);
        comm.recv_bytes(0, 7).unwrap();
        assert_eq!(comm.metrics().recv_parks, 0);
        // A silent peer: the rank runs out of yields and sleeps — it does
        // not spin through the 50 ms.
        std::thread::scope(|s| {
            s.spawn(|| {
                while fabric.mailbox(1).parks() == 0 {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
                send(8);
            });
            comm.recv_bytes(0, 8).unwrap();
        });
        let slept = comm.metrics().recv_parks;
        assert!(slept >= 1);
        // A push to an owner that is not parked adds none.
        send(9);
        comm.recv_bytes(0, 9).unwrap();
        assert_eq!(comm.metrics().recv_parks, slept);
    }

    #[test]
    fn deposit_retargets_payload_to_destination_pool() {
        let fabric = Fabric::new(2);
        fabric
            .deposit(1, Envelope::new(0, 0, 3, vec![0u8; 100]))
            .unwrap();
        let env = fabric.mailbox(1).try_pop().unwrap();
        drop(env); // payload returns to rank 1's pool
        assert_eq!(fabric.pool(0).stats().retained_bytes, 0);
        // vec![0; 100] has capacity 100: binned round-down into the 64-byte
        // class, retained at its true capacity.
        assert_eq!(fabric.pool(1).stats().retained_bytes, 100);
    }

    #[test]
    fn remote_backend_fabric_round_trips_envelopes() {
        let fabric = Fabric::for_backend(TransportKind::SharedMem, 2).unwrap();
        assert_eq!(fabric.transport_kind(), TransportKind::SharedMem);
        fabric
            .deposit(1, Envelope::new(3, 0, 9, vec![7u8; 300]))
            .unwrap();
        let env = fabric.mailbox(1).pop().unwrap();
        assert_eq!((env.ctx, env.src, env.tag), (3, 0, 9));
        assert_eq!(env.data, vec![7u8; 300]);
        for rank in 0..2 {
            fabric.rank_done(rank);
        }
    }
}
