//! The per-rank communicator: point-to-point operations and phase exchanges.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use cartcomm_obs::{MetricsSnapshot, Obs, TraceEvent};
use parking_lot::Mutex;

use crate::envelope::{Envelope, SrcSel, Tag, TagSel};
use crate::error::{CommError, CommResult};
use crate::fabric::Fabric;
use crate::mailbox::{Addr, Mailbox, Offer};
use crate::pool::{PoolStats, PooledBuf, WirePool};
use crate::transport::TransportError;

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
    /// A rendezvous's offers, kept for their capacity: the ones it links
    /// (one per send), and the ones it takes when it posts.
    offers: Mutex<(Vec<Offer>, Vec<Offer>)>,
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
                offers: Mutex::new((Vec::new(), Vec::new())),
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
        let (at, _) = self.wait(&mut pending, &one(src, tag), |_| true)?;
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
        let (at, _) = self.wait(&mut pending, &one(src, tag), |_| true)?;
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
    /// mailbox's count is its own).
    fn wait(
        &self,
        pending: &mut VecDeque<Envelope>,
        recvs: &[RecvSpec],
        open: impl Fn(usize) -> bool,
    ) -> CommResult<(usize, usize)> {
        let mailbox = &self.core.mailbox;
        let mut from = 0;
        loop {
            if let Some(hit) = self.scan(pending, from, recvs, &open) {
                return Ok(hit);
            }
            from = pending.len();
            let parks = mailbox.parks();
            let arrived = mailbox.pop();
            let slept = mailbox.parks() - parks;
            if slept > 0 {
                self.obs.metrics().recv_parked(slept);
            }
            pending.push_back(arrived?);
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
    /// What was deposited arrives: every link is perfect.
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
        let mut pending = self.core.pending.lock();
        for _ in 0..recvs.len() {
            let (at, slot) = self.wait(&mut pending, recvs, |s| results[s].is_none())?;
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

impl Comm {
    // ----- rendezvous phase ------------------------------------------------

    /// Whether this fabric can run a phase as a rendezvous: every rank
    /// lives in this process, so a posted address means the same thing to
    /// sender and receiver. Every rank of a fabric gets the same answer.
    pub fn can_rendezvous(&self) -> bool {
        self.fabric.in_process()
    }

    /// Execute one phase of a schedule as a *rendezvous*: no round of it
    /// crosses the mailbox. Whichever rank of a round arrives second runs
    /// the round's copy from the sender's buffers straight into the
    /// receiver's — a sender that finds the receiver's phase posted copies
    /// into it, one that arrives first leaves an offer that the receiver
    /// copies out when it posts. The phase is:
    ///
    /// 1. *post*: publish `at` for the senders of `recvs` and pull every
    ///    offer already left for them — `copy(round, theirs, at)`;
    /// 2. *push*: for each `(dst, tag, round)` of `sends`, copy
    ///    `copy(round, at, theirs)` into `dst`'s posted phase if it has one
    ///    with an open slot for `(context, rank, tag)`, or leave an offer;
    /// 3. *wait* until every slot of `recvs` is delivered and every offer
    ///    this rank left is copied out, then unpost.
    ///
    /// A phase that `pull`s (its receives fold) is never copied into: its
    /// senders only offer, and this rank copies every slot itself, in
    /// slot order, after its own offers are out — so the copies into its
    /// buffers run one at a time, in the order a deposit would unpack
    /// them.
    ///
    /// Rounds match on (context, source, tag) like envelopes, earliest
    /// offer against earliest open slot. Every rank posts before it
    /// pushes and waits only on ranks of its own phase, so the rank in
    /// the lowest phase always completes. Credits `exchanges` and, for
    /// the times a pull or the wait slept, `recv_parks`; the round
    /// counters are the caller's.
    ///
    /// On an error — a closed mailbox on either side, which is how a
    /// panicking rank ends its universe — and while unwinding from a
    /// panicking `copy`, the phase still ends cleanly: this rank unposts,
    /// takes back the offers nobody took, and waits out the copies
    /// already running out of its buffers before it returns.
    ///
    /// # Safety
    ///
    /// Every rank that meets this one passes a `B` of the same type, a
    /// `copy` that agrees on what `round` means, and the same `pull` for
    /// the phase. From the call until it returns (or unwinds), `at` and
    /// whatever buffers it describes stay valid, this rank touches those
    /// buffers only through `copy`, and no `copy` running at once — this
    /// rank's or a peer's, into or out of them — reads a byte another
    /// writes or writes a byte another writes. Requires
    /// [`Comm::can_rendezvous`].
    pub unsafe fn rendezvous<B>(
        &self,
        at: &B,
        sends: impl Iterator<Item = (usize, Tag, usize)> + Clone,
        recvs: &[RecvSpec],
        pull: bool,
        copy: impl Fn(usize, &B, &B),
    ) -> CommResult<()> {
        debug_assert!(self.can_rendezvous());
        for (dst, _, _) in sends.clone() {
            self.check_rank(dst)?;
        }
        self.obs.metrics().exchange_started();
        let mailbox = &self.core.mailbox;
        let addr = Addr(at as *const B as *const ());
        // SAFETY (of every `theirs`): a peer's `Addr` is the `&B` it passed
        // to this function, valid while its post or offer lives — and the
        // peer leaves neither before the copy that reads it is done.
        let theirs = |a: Addr| unsafe { &*(a.0 as *const B) };
        // One offer per send, in place until the phase has ended: a send
        // that finds no post links its own into the receiver's list.
        let (mut offers, taken) = std::mem::take(&mut *self.core.offers.lock());
        offers.clear();
        offers.extend(sends.map(|(dst, tag, round)| {
            let from = Arc::as_ptr(mailbox);
            Offer::new((self.ctx, self.rank, tag), (dst, round), addr, from)
        }));
        let mut phase = Phase {
            comm: self,
            at: addr,
            offers,
            taken,
            left: 0,
            done: false,
        };
        // 1. Post, and pull what the earlier senders offered.
        // SAFETY: `recvs` outlives the phase, which unposts before it ends
        // (its wait, or `Phase::drop`).
        unsafe { mailbox.post(self.ctx, addr, recvs, pull, &mut phase.taken) }?;
        if !pull {
            let pulls = Pulls(&mut phase.taken);
            while let Some(offer) = pulls.0.pop() {
                let _settle = Settle(offer.from);
                copy(offer.round, theirs(offer.at), at);
            }
        }
        // 2. Push into the posts already there; offer where there is none.
        let nodes = phase.offers.as_mut_ptr();
        for i in 0..phase.offers.len() {
            // SAFETY: `phase.offers` neither grows nor drops before the
            // phase has ended, so its offers stay in place while linked;
            // only the receiver's lock reaches one once it is.
            let (node, dst, round) = unsafe {
                let node = nodes.add(i);
                (node, (*node).dst, (*node).round)
            };
            let peer = self.fabric.mailbox(dst);
            // SAFETY: as above.
            match unsafe { peer.meet(node, |to| copy(round, at, theirs(to))) } {
                Ok(true) => {}
                Ok(false) => phase.left += 1,
                Err(_) => return Err(TransportError::Closed { peer: dst }.into()),
            }
        }
        let parks = mailbox.parks();
        // A pulling phase copies every slot here, in slot order, taking
        // the offers as they come.
        let mut pulled = || {
            if !pull {
                return Ok(());
            }
            let pulls = Pulls(&mut phase.taken);
            for slot in 0..recvs.len() {
                let offer = loop {
                    match pulls.0.iter().position(|o| o.slot == slot) {
                        Some(i) => break pulls.0.swap_remove(i),
                        None => mailbox.take(pulls.0)?,
                    }
                };
                let _settle = Settle(offer.from);
                copy(offer.round, theirs(offer.at), at);
            }
            Ok(())
        };
        // 3. Wait for the slots and for this rank's offers.
        let done = pulled().and_then(|()| mailbox.await_phase(phase.left));
        let slept = mailbox.parks() - parks;
        if slept > 0 {
            self.obs.metrics().recv_parked(slept);
        }
        // Done, it has unposted, and every offer is settled.
        let revoked = done?;
        phase.done = true;
        match revoked {
            None => Ok(()),
            Some(peer) => Err(TransportError::Closed { peer }.into()),
        }
    }
}

/// Settles a taken offer however its copy ends.
struct Settle(*const Mailbox);

impl Drop for Settle {
    fn drop(&mut self) {
        // SAFETY: an offer's `from` outlives it (`Offer::from`).
        unsafe { (*self.0).settle(None) };
    }
}

/// The offers a post took and no copy has started; they are settled
/// uncopied if a copy panics or the phase fails.
struct Pulls<'a>(&'a mut Vec<Offer>);

impl Drop for Pulls<'_> {
    fn drop(&mut self) {
        for offer in self.0.drain(..) {
            drop(Settle(offer.from));
        }
    }
}

/// A rendezvous phase in progress on one rank; dropping it before its
/// wait completed — on an error or an unwind — ends it cleanly. It owns
/// the phase's offers, which stay in place until it has ended.
struct Phase<'a> {
    comm: &'a Comm,
    at: Addr,
    /// One offer per send of the phase.
    offers: Vec<Offer>,
    /// The offers its post took, while it copies them out.
    taken: Vec<Offer>,
    /// Offers this rank linked.
    left: usize,
    /// The wait completed: it unposted, and every offer is settled.
    done: bool,
}

impl Drop for Phase<'_> {
    fn drop(&mut self) {
        let Phase {
            comm,
            at,
            left,
            done,
            ..
        } = *self;
        if !done {
            let mailbox = &comm.core.mailbox;
            // No sender reaches this rank's buffers from here on.
            mailbox.unpost();
            if left > 0 {
                // Unlink what nobody took, then wait out the copies running
                // out of this rank's buffers.
                let nodes = self.offers.as_ptr();
                let withdrawn: usize = (0..self.offers.len())
                    // SAFETY: the phase's own offers, in place; a receiver
                    // writes only their links.
                    .map(|i| unsafe { (*nodes.add(i)).dst })
                    .map(|dst| comm.fabric.mailbox(dst).withdraw(comm.rank, at))
                    .sum();
                mailbox.drain(left - withdrawn);
            }
        }
        // No list links them any more: kept for the capacity.
        let offers = (
            std::mem::take(&mut self.offers),
            std::mem::take(&mut self.taken),
        );
        *comm.core.offers.lock() = offers;
    }
}

/// The one receive slot of a point-to-point receive or probe.
fn one(src: impl Into<SrcSel>, tag: impl Into<TagSel>) -> [RecvSpec; 1] {
    [RecvSpec {
        src: src.into(),
        tag: tag.into(),
    }]
}
