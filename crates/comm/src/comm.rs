//! The per-rank communicator: point-to-point operations and phase exchanges.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cartcomm_obs::{MetricsSnapshot, Obs, TraceEvent};
use parking_lot::Mutex;

use crate::envelope::{Envelope, SrcSel, Tag, TagSel};
use crate::error::{CommError, CommResult};
use crate::fabric::Fabric;
use crate::mailbox::Mailbox;
use crate::pool::{PoolStats, PooledBuf, WirePool};

/// Completion information of a receive (`MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Rank the message came from.
    pub src: usize,
    /// Tag the message carried.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: usize,
}

impl Status {
    fn of(env: &Envelope) -> Status {
        Status {
            src: env.src,
            tag: env.tag,
            bytes: env.data.len(),
        }
    }
}

/// A receive slot of an [`Comm::exchange`] batch.
#[derive(Debug, Clone, Copy)]
pub struct RecvSpec {
    /// Source selector.
    pub src: SrcSel,
    /// Tag selector.
    pub tag: TagSel,
}

impl RecvSpec {
    /// Receive from a specific rank with a specific tag — the common case in
    /// schedule execution.
    pub fn from_rank(src: usize, tag: Tag) -> Self {
        RecvSpec {
            src: SrcSel::Rank(src),
            tag: TagSel::Is(tag),
        }
    }
}

/// The reusable send/result storage of a phase exchange.
///
/// Queue sends with [`ExchangeBatch::send`], run the phase with
/// [`Comm::exchange`], then consume completions with
/// [`ExchangeBatch::take_result`] or [`ExchangeBatch::drain_results`].
/// Both internal vectors keep their capacity across phases, so reusing
/// one batch across executes makes a warm exchange allocation-free.
#[derive(Debug, Default)]
pub struct ExchangeBatch {
    pub(crate) sends: Vec<(usize, Tag, PooledBuf)>,
    pub(crate) results: Vec<Option<(PooledBuf, Status)>>,
}

impl ExchangeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        ExchangeBatch::default()
    }

    /// An empty batch with room for `n` sends without reallocation.
    pub fn with_capacity(n: usize) -> Self {
        ExchangeBatch {
            sends: Vec::with_capacity(n),
            results: Vec::with_capacity(n),
        }
    }

    /// Queue one send. Payloads convert from `Vec<u8>` or travel as
    /// [`PooledBuf`]s from [`Comm::wire_buf`].
    pub fn send(&mut self, dst: usize, tag: Tag, data: impl Into<PooledBuf>) {
        self.sends.push((dst, tag, data.into()));
    }

    /// Number of queued (not yet exchanged) sends.
    pub fn pending_sends(&self) -> usize {
        self.sends.len()
    }

    /// Take the completion of receive slot `slot` from the last exchange:
    /// `None` if the slot was already taken (or out of range).
    pub fn take_result(&mut self, slot: usize) -> Option<(PooledBuf, Status)> {
        self.results.get_mut(slot).and_then(Option::take)
    }

    /// Drain all remaining completions of the last exchange in slot
    /// order, skipping already-taken slots.
    pub fn drain_results(&mut self) -> impl Iterator<Item = (PooledBuf, Status)> + '_ {
        self.results.drain(..).flatten()
    }

    /// Drop queued sends and pending results (capacity is kept).
    pub fn clear(&mut self) {
        self.sends.clear();
        self.results.clear();
    }
}

/// Per-rank state shared between a communicator and its duplicates.
pub(crate) struct RankCore {
    /// Where the fabric leaves this rank's arrivals.
    pub(crate) mailbox: Arc<Mailbox>,
    /// Unexpected-message queue, in arrival order.
    pub(crate) pending: Mutex<VecDeque<Envelope>>,
    /// Next context id for `dup` (kept identical across ranks because dup is
    /// collective and deterministic).
    next_ctx: AtomicU32,
    /// Per-rank collective sequence counter (see `collectives`).
    coll_seq: AtomicU32,
}

impl Drop for RankCore {
    /// The rank's last handle is gone: nobody will pop again, so deposits
    /// toward it fail from here on instead of queueing.
    fn drop(&mut self) {
        self.mailbox.close();
    }
}

/// A communicator handle owned by one rank's thread.
///
/// Cheap to clone contexts from via [`Comm::dup`]; all duplicates of one rank
/// share the underlying mailbox but match messages in disjoint contexts.
pub struct Comm {
    pub(crate) rank: usize,
    size: usize,
    pub(crate) ctx: u32,
    pub(crate) fabric: Arc<Fabric>,
    /// This rank's wire-buffer pool (shared with the fabric, which
    /// retargets inbound payloads to it).
    pool: Arc<WirePool>,
    /// This rank's observability handle (shared with the fabric and all
    /// duplicated contexts).
    pub(crate) obs: Arc<Obs>,
    pub(crate) core: Arc<RankCore>,
}

impl Comm {
    pub(crate) fn new(rank: usize, fabric: Arc<Fabric>) -> Self {
        let size = fabric.size();
        let pool = Arc::clone(fabric.pool(rank));
        let obs = Arc::clone(fabric.obs(rank));
        let mailbox = Arc::clone(fabric.mailbox(rank));
        Comm {
            rank,
            size,
            ctx: 0,
            fabric,
            pool,
            obs,
            core: Arc::new(RankCore {
                mailbox,
                pending: Mutex::new(VecDeque::new()),
                next_ctx: AtomicU32::new(2), // 0 = user p2p, 1 = internal collectives
                coll_seq: AtomicU32::new(0),
            }),
        }
    }

    /// Advance and return this rank's collective sequence number.
    pub(crate) fn next_coll_seq(&self) -> u32 {
        self.core.coll_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// This rank's id, `0 <= rank < size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The context id of this communicator handle.
    #[inline]
    pub fn context(&self) -> u32 {
        self.ctx
    }

    /// Duplicate the communicator into a fresh context (like `MPI_Comm_dup`).
    /// Must be called collectively (in the same order on all ranks) so the
    /// resulting context ids agree.
    pub fn dup(&self) -> Comm {
        self.in_context(self.core.next_ctx.fetch_add(1, Ordering::Relaxed))
    }

    /// Handle on the same rank in the reserved internal-collectives context.
    pub(crate) fn internal(&self) -> Comm {
        self.in_context(1)
    }

    fn in_context(&self, ctx: u32) -> Comm {
        Comm {
            ctx,
            fabric: Arc::clone(&self.fabric),
            pool: Arc::clone(&self.pool),
            obs: Arc::clone(&self.obs),
            core: Arc::clone(&self.core),
            ..*self
        }
    }

    /// Wall-clock seconds since an unspecified epoch (`MPI_Wtime`).
    pub fn wtime() -> f64 {
        use std::time::{SystemTime, UNIX_EPOCH};
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_secs_f64()
    }

    // ----- observability ---------------------------------------------------

    /// This rank's observability handle: metrics registry, trace sink
    /// attachment, and clock selection. Shared across duplicated contexts
    /// of the rank.
    #[inline]
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Snapshot of this rank's metrics registry — the consolidated view
    /// of rounds, wire bytes, matches, pack spans, and pool/plan-cache
    /// traffic.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Injected-fault counters of the fabric's fault plane, if it has one.
    pub fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        self.fabric.fault_stats()
    }

    // ----- wire-buffer pool ------------------------------------------------

    /// Acquire an empty wire buffer with capacity at least `cap` from this
    /// rank's pool. Dropping it (here or, after a send, on the receiving
    /// rank) recycles the backing store.
    pub fn wire_buf(&self, cap: usize) -> PooledBuf {
        let (buf, hit) = WirePool::take_tracked(&self.pool, cap);
        if hit {
            self.obs.metrics().pool_hit();
            self.obs
                .emit_with(self.rank, || TraceEvent::PoolHit { bytes: cap });
        } else {
            self.obs.metrics().pool_miss();
            self.obs
                .emit_with(self.rank, || TraceEvent::PoolMiss { bytes: cap });
        }
        buf
    }

    /// This rank's wire-buffer pool handle (for pre-warming by persistent
    /// collectives and for tests).
    pub fn wire_pool(&self) -> &Arc<WirePool> {
        &self.pool
    }

    /// Buffer-pool telemetry for this rank: hits, misses, recycled bytes,
    /// and current residency.
    pub fn pool_telemetry(&self) -> PoolStats {
        self.pool.stats()
    }

    pub(crate) fn check_rank(&self, rank: usize) -> CommResult<()> {
        if rank >= self.size {
            Err(CommError::InvalidRank {
                rank,
                size: self.size,
            })
        } else {
            Ok(())
        }
    }

    // ----- raw byte operations --------------------------------------------

    /// Eager buffered send of a byte payload. Completes locally; never
    /// blocks or deadlocks.
    pub fn send_bytes(&self, dst: usize, tag: Tag, data: Vec<u8>) -> CommResult<()> {
        self.check_rank(dst)?;
        self.fabric
            .deposit(dst, Envelope::new(self.ctx, self.rank, tag, data))?;
        Ok(())
    }

    /// Blocking receive of a byte payload matching the selectors. Returns
    /// the payload and its [`Status`]. The returned bytes are detached from
    /// the wire pool (the caller keeps them); pooled receives happen through
    /// [`Comm::exchange`].
    pub fn recv_bytes(
        &self,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
    ) -> CommResult<(Vec<u8>, Status)> {
        let mut pending = self.core.pending.lock();
        let (at, _) = self.wait(&mut pending, &one(src, tag), |_| true, None)?;
        let env = pending
            .remove(at)
            .expect("the wait names a queued envelope");
        drop(pending);
        let status = Status::of(&env);
        Ok((env.data.into_vec(), status))
    }

    /// Simultaneous send and receive (`MPI_Sendrecv`) — the primitive of the
    /// paper's trivial algorithm (Listing 4). Deadlock-free because the send
    /// is eager.
    pub fn sendrecv_bytes(
        &self,
        dst: usize,
        send_tag: Tag,
        data: Vec<u8>,
        src: impl Into<SrcSel>,
        recv_tag: impl Into<TagSel>,
    ) -> CommResult<(Vec<u8>, Status)> {
        self.send_bytes(dst, send_tag, data)?;
        self.recv_bytes(src, recv_tag)
    }

    /// Blocking probe (`MPI_Probe`): wait until a message matching the
    /// selectors is available and return its status without consuming it.
    /// A subsequent matching receive returns (at least) this message.
    pub fn probe(&self, src: impl Into<SrcSel>, tag: impl Into<TagSel>) -> CommResult<Status> {
        let mut pending = self.core.pending.lock();
        let (at, _) = self.wait(&mut pending, &one(src, tag), |_| true, None)?;
        Ok(Status::of(&pending[at]))
    }

    /// Non-blocking probe (`MPI_Iprobe`): `Some(status)` if a matching
    /// message has already arrived, `None` otherwise.
    pub fn iprobe(
        &self,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
    ) -> CommResult<Option<Status>> {
        let mut pending = self.core.pending.lock();
        while let Some(env) = self.core.mailbox.try_pop() {
            pending.push_back(env);
        }
        let hit = self.scan(&pending, 0, &one(src, tag), &|_| true);
        Ok(hit.map(|(at, _)| Status::of(&pending[at])))
    }

    /// The one receive loop. Returns the queue position of the first
    /// unexpected envelope, in arrival order, that satisfies a still-open
    /// (`open(slot)`) slot of `recvs`, and the earliest such slot — the FIFO
    /// matching rule of MPI. While nothing queued matches, it pops the
    /// mailbox and credits the times it slept to the rank's `recv_parks`
    /// (the rank is the only one that pops, so the difference in the
    /// mailbox's count is its own). Given a `patience`, a mailbox silent
    /// that long fails with [`CommError::PeerUnreachable`] naming the first
    /// still-open slot's source.
    fn wait(
        &self,
        pending: &mut VecDeque<Envelope>,
        recvs: &[RecvSpec],
        open: impl Fn(usize) -> bool,
        patience: Option<Duration>,
    ) -> CommResult<(usize, usize)> {
        let mailbox = &self.core.mailbox;
        let mut from = 0;
        loop {
            if let Some(hit) = self.scan(pending, from, recvs, &open) {
                return Ok(hit);
            }
            from = pending.len();
            let parks = mailbox.parks();
            let arrived = match patience {
                None => mailbox.pop().map(Some),
                Some(limit) => mailbox.pop_timeout(limit),
            };
            let slept = mailbox.parks() - parks;
            if slept > 0 {
                self.obs.metrics().recv_parked(slept);
            }
            let Some(env) = arrived? else {
                let silent = (0..recvs.len()).find(|&slot| open(slot));
                let peer = match silent.map(|slot| recvs[slot].src) {
                    Some(SrcSel::Rank(r)) => r,
                    _ => self.rank,
                };
                return Err(CommError::PeerUnreachable { peer, attempts: 0 });
            };
            pending.push_back(env);
        }
    }

    /// The wait's matcher over the queued envelopes from position `from`
    /// on: the first in this context that satisfies an open slot of
    /// `recvs`, with the earliest such slot.
    fn scan(
        &self,
        pending: &VecDeque<Envelope>,
        from: usize,
        recvs: &[RecvSpec],
        open: &impl Fn(usize) -> bool,
    ) -> Option<(usize, usize)> {
        (from..pending.len()).find_map(|at| {
            let env = &pending[at];
            if env.ctx != self.ctx {
                return None;
            }
            let slot = recvs.iter().enumerate().position(|(slot, spec)| {
                open(slot) && spec.src.matches(env.src) && spec.tag.matches(env.tag)
            })?;
            Some((at, slot))
        })
    }

    // ----- phase exchange (Listing 5) ---------------------------------------

    /// Execute one *phase* of a communication schedule: post all receives,
    /// issue all sends, and complete everything (the
    /// `Irecv`/`Isend`/`Waitall` pattern of Listing 5).
    ///
    /// Matching follows MPI semantics: each incoming message is delivered to
    /// the **earliest-posted** still-open receive slot it matches, so
    /// several slots with the same `(src, tag)` complete in posting order
    /// against the sender's posting order (non-overtaking).
    ///
    /// Sends are queued on the [`ExchangeBatch`] beforehand; on return the
    /// batch holds one completion per [`RecvSpec`], in slot order, consumed
    /// with [`ExchangeBatch::take_result`]/[`ExchangeBatch::drain_results`].
    /// The batch's internal vectors keep their capacity, so reusing one
    /// batch across phases makes a warm exchange allocation-free — wire
    /// payloads already travel as pooled buffers.
    ///
    /// Received payloads stay attached to this rank's wire pool and
    /// recycle on drop; a caller that keeps the bytes takes them with
    /// [`PooledBuf::into_vec`].
    ///
    /// What was deposited arrives: loss and its repair live below the
    /// mailbox. The rank contributes one thing, a receive deadline — on
    /// a lossy fabric an exchange that hears nothing for the transport's
    /// [`patience`](Fabric::patience) fails with
    /// [`CommError::PeerUnreachable`] naming the first still-open slot's
    /// source instead of waiting on a dead link.
    pub fn exchange(&self, batch: &mut ExchangeBatch, recvs: &[RecvSpec]) -> CommResult<()> {
        for &(dst, _, _) in batch.sends.iter() {
            self.check_rank(dst)?;
        }
        self.obs.metrics().exchange_started();
        // Issue all sends eagerly (Isend with buffered completion).
        for (dst, tag, data) in batch.sends.drain(..) {
            self.fabric
                .deposit(dst, Envelope::new(self.ctx, self.rank, tag, data))?;
        }
        // Complete receives with FIFO slot matching: each wait hands over
        // the next arrival that satisfies an open slot, and it closes one.
        let results = &mut batch.results;
        results.clear();
        results.resize_with(recvs.len(), || None);
        let patience = self.fabric.patience();
        let mut pending = self.core.pending.lock();
        for _ in 0..recvs.len() {
            let (at, slot) = self.wait(&mut pending, recvs, |s| results[s].is_none(), patience)?;
            let env = pending
                .remove(at)
                .expect("the wait names a queued envelope");
            let status = Status::of(&env);
            self.obs.metrics().message_matched(status.bytes);
            self.obs
                .emit_with(self.rank, || TraceEvent::ExchangeMatched {
                    src: status.src,
                    tag: status.tag,
                    bytes: status.bytes,
                    slot,
                });
            results[slot] = Some((env.data, status));
        }
        Ok(())
    }
}

/// The one receive slot of a point-to-point receive or probe.
fn one(src: impl Into<SrcSel>, tag: impl Into<TagSel>) -> [RecvSpec; 1] {
    [RecvSpec {
        src: src.into(),
        tag: tag.into(),
    }]
}
