//! # cartcomm-comm — a ranks-as-fibers message-passing substrate
//!
//! The Cartesian collective algorithms of Träff & Hunold (ICPP 2019) are
//! specified on top of MPI point-to-point primitives: matched, tagged,
//! non-overtaking sends and receives, non-blocking operation batches
//! completed with `Waitall` (Listing 5), and a handful of collectives used
//! for setup-time checks. This crate is that substrate, built from scratch:
//!
//! * [`Universe::builder`] — SPMD launcher: runs the same rank program
//!   `p` times, each with its own [`Comm`] handle, as fibers on one worker
//!   thread per core (`min(p, available_parallelism())` of them); a rank
//!   that waits hands its core to a sibling rank without entering the
//!   kernel, so ranks are cooperative — one that computes, sleeps or
//!   blocks on an OS primitive of its own holds its worker's other ranks
//!   (DESIGN.md §2). One [`RunConfig`] composes transport and
//!   profiling.
//! * [`Comm`] — per-rank communicator: [`Comm::send_bytes`] (eager,
//!   buffered), [`Comm::recv_bytes`] (blocking), [`Comm::sendrecv_bytes`],
//!   [`Comm::probe`]/[`Comm::iprobe`], and [`Comm::exchange`] — the
//!   Listing-5 phase primitive posting a batch of receives and sends and
//!   completing them together, with MPI-conforming FIFO matching.
//! * MPI-style matching semantics: messages between a (sender, context,
//!   tag) triple are **non-overtaking**; receives match the earliest
//!   arriving message; `AnySource`/`AnyTag` wildcards are supported.
//!   Every receive — a `recv_bytes`, a probe, an exchange's slots, and
//!   so every collective — matches and waits in one private loop.
//! * [`collectives`] — barrier (dissemination), broadcast (binomial tree),
//!   reduce/allreduce, used by topology setup (§2.2 isomorphism check)
//!   and by tests/benchmarks.
//!
//! Sends are *eager and buffered*: the payload is captured at post time and
//! the send completes locally, which is a conforming MPI implementation
//! choice and makes every schedule in this workspace trivially
//! deadlock-free to execute. Data moves as exactly one gather on the send
//! side and one scatter on the receive side (see `cartcomm-types`), the
//! in-process analogue of the paper's zero-copy datatype execution.

//!
//! Wire messages travel in pooled buffers ([`pool::WirePool`] /
//! [`PooledBuf`]): each rank owns a size-classed free list, send-side
//! packing acquires from it via [`Comm::wire_buf`], and the fabric
//! retargets every payload to the *receiver's* pool at deposit time so
//! unpacked messages recycle where the next receive happens. Persistent
//! collectives pre-warm the pool at init and reach a 100% hit rate in
//! steady state ([`Comm::pool_telemetry`]). A phase that meets instead
//! ([`Comm::rendezvous`]: the in-process fabric, a proven torus phase)
//! takes no wire at all.

//! # Faults
//!
//! Every link is perfect: what is deposited arrives once, in order per
//! link. What fails is a rank or a process — a panicking rank closes
//! every mailbox of its universe, and a dead peer surfaces as
//! [`CommError::PeerUnreachable`] from the deposit that cannot reach it
//! (DESIGN.md §10, §12).
//!
//! # Transport backends
//!
//! Envelope delivery is pluggable ([`transport::Transport`], DESIGN.md
//! §12): the default in-process fabric (a deposit pushes into the
//! receiver's [`mailbox::Mailbox`]), a shared-memory ring fabric spanning
//! processes on one host
//! ([`Universe::spawn_processes`]), and Unix-domain/TCP socket meshes.
//! [`RunConfig::on`] picks the backend per run; everything
//! above the fabric — matching, collectives, observability — is
//! backend-agnostic, pinned by the `transport_conformance` suite.

pub mod collectives;
pub mod comm;
pub mod envelope;
pub mod error;
pub mod fabric;
mod fiber;
pub mod mailbox;
pub mod pool;
pub mod transport;
pub mod universe;

pub use comm::{Comm, ExchangeBatch, RecvSpec, Status};
pub use envelope::{SrcSel, Tag, TagSel, ANY_SOURCE, ANY_TAG};
pub use error::{CommError, CommResult};
pub use pool::{PoolStats, PooledBuf, WirePool};
pub use transport::{Transport, TransportError, TransportKind, TransportResult};
pub use universe::{ProfiledRun, ProfiledRunConfig, RunConfig, SpawnRole, Universe};

/// Structured observability (re-export of `cartcomm-obs`): every rank's
/// [`Comm`] carries an [`cartcomm_obs::Obs`] handle reachable via
/// [`Comm::obs`].
pub use cartcomm_obs as obs;
