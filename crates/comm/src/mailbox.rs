//! The queue between [`Fabric::deposit`](crate::fabric::Fabric::deposit)
//! and a rank's unexpected-message list: one mutex-guarded FIFO per rank.
//!
//! Every producer — a depositing rank on the in-process backend, a
//! progress thread on the shared-memory and socket backends — pushes
//! under the one lock, so the queue's order is arrival order and two
//! pushes by the same producer stay in push order: the per-link
//! non-overtaking guarantee the matching engine builds on. The only
//! consumer is the owning rank.
//!
//! A pop that finds the queue empty waits the runtime's one way
//! (`fiber::wait`): it registers its fiber's waker under the lock, where
//! it stays, and hands the core to a sibling rank; every push or close
//! notifies the registered waker under the lock — one flag store — and
//! its worker resumes the pop only then. A push costs one lock and that
//! store; a wake-up costs a system call only when it ends a worker's
//! sleep. The mailbox is aligned to its own cache lines, so two ranks'
//! locks never share one.
//!
//! A mailbox closes once and for good: the rank's last
//! [`Comm`](crate::Comm) handle closes it when it drops (later pushes get
//! their envelope back, which the in-process backend reports as
//! [`TransportError::Closed`](crate::transport::TransportError::Closed)),
//! a progress thread closes the mailbox it feeds when it stops, and the
//! launcher closes every rank's mailbox when a rank program panics (a
//! rank blocked in [`Mailbox::pop`] wakes with [`Closed`] instead of
//! hanging). Envelopes queued before the close can still be popped.
//!
//! The mailbox also holds the owner's side of a *rendezvous*
//! ([`Comm::rendezvous`](crate::Comm::rendezvous)): a round between two
//! ranks of one process that meets instead of crossing the queue. The
//! owner *posts* its buffer bases and the receive slots of its phase; a
//! sender that finds the post copies the round straight into the posted
//! buffers under this lock (`meet`), and one that arrives first links an
//! *offer* — its own bases — which the owner takes when it posts and
//! copies out itself. Posts and offers match like envelopes, on
//! `(ctx, src, tag)`, earliest offer against earliest open slot. The one
//! lock, the one waker and the one close serve both: a close revokes the
//! offers not yet taken, telling each sender, and a rank leaving a phase
//! unposts under this lock, which waits out a copy in progress.
//!
//! A met round between two workers moves the cache lines it touches from
//! one core to the other, so the state is laid out by who touches it:
//! the lock word and every field a rendezvous reads or writes — the
//! posted bases and specs, the open, delivered and settled counts, the
//! close, the waker and the head of the offer list — share the mailbox's
//! first 64 bytes (pinned by a unit test). The queue and the rarely
//! written fields come after them. The specs stay the owner's, matched in
//! place, and an offer lives with its sender: only their addresses are
//! stored here.

use std::collections::VecDeque;
use std::ptr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::Thread;

use crate::comm::RecvSpec;
use crate::envelope::{Envelope, Tag};
use crate::fiber::{self, Waker};

/// The mailbox is closed and holds nothing more to pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

/// An address in this process that a rendezvous publishes: a rank's
/// buffer bases, which whoever runs one of its rounds copies from or
/// into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Addr(pub(crate) *const ());

// SAFETY: an `Addr` is only an address. Who may dereference it, and
// for how long, is the rendezvous protocol's to say (`Comm::rendezvous`).
unsafe impl Send for Addr {}

impl Addr {
    /// No address: what an unposted mailbox holds.
    const NONE: Addr = Addr(ptr::null());
}

/// A round its sender reached before the receiver posted its phase: the
/// receiver copies it out of the sender's buffers itself. The offer lives
/// with its sender (`Comm::rendezvous` keeps one per send of the phase)
/// and is linked into the receiver's list, newest first, under the
/// receiver's lock; the receiver copies it out when it takes it.
pub(crate) struct Offer {
    pub(crate) ctx: u32,
    pub(crate) tag: Tag,
    pub(crate) src: usize,
    /// The receiver, named when a close revokes the offer.
    pub(crate) dst: usize,
    /// The sender's round, handed back to the copy.
    pub(crate) round: usize,
    /// The sender's buffers.
    pub(crate) at: Addr,
    /// The sender's mailbox, told when the offer is settled. It outlives
    /// the offer: its owner leaves a phase only once every offer it left
    /// is settled, and holds its mailbox until then.
    pub(crate) from: *const Mailbox,
    /// The next older offer in the receiver's list (null: the oldest).
    next: *mut Offer,
}

// SAFETY: `at`, `from` and `next` are addresses the protocol keeps valid
// while the offer is linked (see `Offer::from`); nothing else in it is
// shared.
unsafe impl Send for Offer {}

impl Offer {
    pub(crate) fn new(
        (ctx, src, tag): (u32, usize, Tag),
        (dst, round): (usize, usize),
        at: Addr,
        from: *const Mailbox,
    ) -> Offer {
        Offer {
            ctx,
            tag,
            src,
            dst,
            round,
            at,
            from,
            next: ptr::null_mut(),
        }
    }
}

/// The state under a mailbox's lock. `#[repr(C)]` keeps the declared
/// order: the rendezvous-hot fields first, in the mailbox's first cache
/// line with the lock word, then the ones a rendezvous does not touch.
#[repr(C)]
struct State {
    /// The owner's waker, registered by a wait that found nothing and
    /// notified by every push, meeting, settle and close after that.
    waker: Option<Waker>,
    /// The owner's posted phase's buffers; [`Addr::NONE`] while nothing
    /// is posted.
    at: Addr,
    /// Offers left here by senders that arrived before the post, newest
    /// first. Each is its sender's, valid while linked (`Offer::from`).
    offers: *mut Offer,
    /// The posted phase's receive slots: the owner's own `&[RecvSpec]`
    /// (`slots` of them), valid while posted, and matched in place.
    specs: *const RecvSpec,
    /// The posted phase's context.
    ctx: u32,
    /// Posted slots not yet delivered.
    open: u32,
    /// The owner's own offers of this phase that their receivers have
    /// settled: copied out, or revoked by a close.
    settled: u32,
    /// How many slots are posted.
    slots: u32,
    /// Bit `i` set: posted slot `i` is delivered, for the first 32; the
    /// rest are in `spill`.
    delivered: u32,
    closed: bool,
    // ----- not touched by a rendezvous round -----
    queue: VecDeque<Envelope>,
    /// The delivered bits of posted slots 32 and up, 32 to a word; the
    /// capacity is kept from phase to phase.
    spill: Vec<u32>,
    /// The receiver of the first revoked offer of the owner's.
    revoked: Option<usize>,
    /// The linked offers in arrival order while a post takes them; kept
    /// for its capacity.
    order: Vec<*mut Offer>,
}

// SAFETY: the raw pointers are offers' and posts' addresses, which the
// rendezvous protocol keeps valid while they are linked or posted and
// which are only followed under this state's lock.
unsafe impl Send for State {}

impl Default for State {
    fn default() -> State {
        State {
            waker: None,
            at: Addr::NONE,
            offers: ptr::null_mut(),
            specs: ptr::null(),
            ctx: 0,
            open: 0,
            settled: 0,
            slots: 0,
            delivered: 0,
            closed: false,
            queue: VecDeque::new(),
            spill: Vec::new(),
            revoked: None,
            order: Vec::new(),
        }
    }
}

impl State {
    /// Tell the owner its wait may be over; its thread, if that sleeps,
    /// is to be unparked after the unlock.
    fn notify(&self) -> Option<Thread> {
        self.waker.as_ref().and_then(Waker::notify)
    }

    /// The earliest open posted slot the round `(ctx, src, tag)` fills.
    fn slot_for(&self, ctx: u32, src: usize, tag: Tag) -> Option<usize> {
        if self.at == Addr::NONE || self.ctx != ctx || self.open == 0 {
            return None;
        }
        // SAFETY: while posted, `specs` is the owner's `slots` specs
        // (`Mailbox::post`).
        let specs = unsafe { std::slice::from_raw_parts(self.specs, self.slots as usize) };
        (0..specs.len()).find(|&i| {
            !self.is_delivered(i) && specs[i].src.matches(src) && specs[i].tag.matches(tag)
        })
    }

    fn is_delivered(&self, slot: usize) -> bool {
        match slot.checked_sub(32) {
            None => self.delivered >> slot & 1 != 0,
            Some(i) => self.spill[i / 32] >> (i % 32) & 1 != 0,
        }
    }

    /// Mark posted slot `slot` delivered.
    fn deliver(&mut self, slot: usize) {
        match slot.checked_sub(32) {
            None => self.delivered |= 1 << slot,
            Some(i) => self.spill[i / 32] |= 1 << (i % 32),
        }
        self.open -= 1;
    }

    /// The post's half of taking offers: walk the list oldest first, move
    /// each offer an open slot takes onto `taken`, and relink the rest.
    fn take_offers(&mut self, taken: &mut Vec<Offer>) {
        let mut order = std::mem::take(&mut self.order);
        let mut at = std::mem::replace(&mut self.offers, ptr::null_mut());
        while !at.is_null() {
            order.push(at);
            // SAFETY: a linked offer is valid until unlinked, and only this
            // lock follows or rewrites its link.
            at = unsafe { (*at).next };
        }
        // Oldest first; what no slot takes is relinked newest first.
        for &node in order.iter().rev() {
            // SAFETY: as above (it is relinked below or copied out); its
            // sender reads it too, and writes none of it while linked.
            let offer = unsafe { node.read() };
            match self.slot_for(offer.ctx, offer.src, offer.tag) {
                Some(slot) => {
                    self.deliver(slot);
                    taken.push(offer);
                }
                None => {
                    // SAFETY: as above.
                    unsafe { (*node).next = self.offers };
                    self.offers = node;
                }
            }
        }
        order.clear();
        self.order = order;
    }

    /// Unlink every offer and return their copies, oldest first.
    fn unlink_all(&mut self) -> Vec<Offer> {
        let mut all = Vec::new();
        let mut at = std::mem::replace(&mut self.offers, ptr::null_mut());
        while !at.is_null() {
            // SAFETY: a linked offer is valid until unlinked (`Offer::from`).
            let offer = unsafe { at.read() };
            at = offer.next;
            all.push(offer);
        }
        all.reverse();
        all
    }
}

/// One rank's inbound envelope queue and rendezvous post, on cache lines
/// of its own: the lock word first.
#[derive(Default)]
#[repr(C, align(128))]
pub struct Mailbox {
    state: Mutex<State>,
    /// Times the owner's wait went to sleep (a statistic).
    parks: AtomicU64,
}

impl Mailbox {
    /// An open, empty mailbox.
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// A rank program that panics propagates through the launcher; the
    /// queue itself is valid after every push and pop, so a poisoned
    /// lock is recovered.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Append `env` and wake the owner if it waits. A closed mailbox
    /// gives the envelope back.
    pub fn push(&self, env: Envelope) -> Result<(), Envelope> {
        let mut st = self.lock();
        if st.closed {
            return Err(env);
        }
        st.queue.push_back(env);
        let sleeper = st.notify();
        drop(st);
        if let Some(thread) = sleeper {
            thread.unpark();
        }
        Ok(())
    }

    /// Block until an envelope is available; a close ends the wait.
    pub fn pop(&self) -> Result<Envelope, Closed> {
        fiber::wait(None, Some(&self.parks), |waker| {
            let mut st = self.lock();
            if let Some(env) = st.queue.pop_front() {
                return Some(Ok(env));
            }
            if st.closed {
                return Some(Err(Closed));
            }
            waker.register(&mut st.waker);
            None
        })
        .expect("a wait without a deadline ends with its poll's value")
    }

    /// The next envelope if one is already queued.
    pub fn try_pop(&self) -> Option<Envelope> {
        self.lock().queue.pop_front()
    }

    /// Close the mailbox: later pushes fail, and a blocked or later pop
    /// reports [`Closed`] once the queue is drained. Idempotent.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        let sleeper = st.notify();
        let offers = st.unlink_all();
        drop(st);
        if let Some(thread) = sleeper {
            thread.unpark();
        }
        // Nobody will take these: their senders stop waiting for them.
        for offer in offers {
            // SAFETY: an offer's `from` outlives it (see `Offer::from`).
            unsafe { (*offer.from).settle(Some(offer.dst)) };
        }
    }

    // ----- rendezvous ------------------------------------------------------

    /// Post the owner's phase: publish `at` for the senders of `slots`,
    /// and take every offer already linked that an open slot takes — in
    /// arrival order, each into its earliest matching slot — unlinking it
    /// and copying it onto `taken`. A taken offer's slot counts as
    /// delivered: the owner copies it next. Once posted, no new offer can
    /// match: its sender meets the post instead. A closed mailbox
    /// refuses.
    ///
    /// # Safety
    ///
    /// `slots` stays valid until the owner unposts (`await_phase` or
    /// `unpost`): senders match against it in place.
    pub(crate) unsafe fn post(
        &self,
        ctx: u32,
        at: Addr,
        slots: &[RecvSpec],
        taken: &mut Vec<Offer>,
    ) -> Result<(), Closed> {
        let mut st = self.lock();
        if st.closed {
            return Err(Closed);
        }
        let n = u32::try_from(slots.len()).expect("a phase posts fewer than 2^32 slots");
        (st.ctx, st.at, st.specs) = (ctx, at, slots.as_ptr());
        (st.slots, st.open, st.delivered, st.settled) = (n, n, 0, 0);
        if st.revoked.is_some() {
            st.revoked = None;
        }
        if let Some(more) = slots.len().checked_sub(32) {
            st.spill.clear();
            st.spill.resize(more.div_ceil(32), 0);
        }
        if !st.offers.is_null() {
            st.take_offers(taken);
        }
        Ok(())
    }

    /// Meet the owner for the round `offer` describes. If the owner has
    /// posted an open slot for it, run `copy` into the posted buffers
    /// under the lock, mark the slot delivered and return `Ok(true)`;
    /// otherwise link the offer and return `Ok(false)`. A closed mailbox
    /// refuses both.
    ///
    /// # Safety
    ///
    /// `offer` is valid for writes, and stays valid and in place until it
    /// is settled or withdrawn if it is linked.
    pub(crate) unsafe fn meet(
        &self,
        offer: *mut Offer,
        copy: impl FnOnce(Addr),
    ) -> Result<bool, Closed> {
        let mut st = self.lock();
        if st.closed {
            return Err(Closed);
        }
        // SAFETY: the caller's offer, valid for writes; nothing else
        // reaches it before it is linked.
        let (ctx, src, tag) = unsafe { ((*offer).ctx, (*offer).src, (*offer).tag) };
        let Some(slot) = st.slot_for(ctx, src, tag) else {
            // SAFETY: as above.
            unsafe { (*offer).next = st.offers };
            st.offers = offer;
            return Ok(false);
        };
        // Under the lock: the owner cannot unpost while the copy runs.
        copy(st.at);
        st.deliver(slot);
        let sleeper = if st.open == 0 { st.notify() } else { None };
        drop(st);
        if let Some(thread) = sleeper {
            thread.unpark();
        }
        Ok(true)
    }

    /// Settle one of the owner's offers: copied out by its receiver, or
    /// (`Some(receiver)`) revoked by the receiver's close. The lock is the
    /// release the owner's wait acquires.
    pub(crate) fn settle(&self, revoked: Option<usize>) {
        let mut st = self.lock();
        st.settled += 1;
        if st.revoked.is_none() && revoked.is_some() {
            st.revoked = revoked;
        }
        let sleeper = if st.open == 0 { st.notify() } else { None };
        drop(st);
        if let Some(thread) = sleeper {
            thread.unpark();
        }
    }

    /// The owner's wait in a posted phase: until every posted slot is
    /// delivered and `left` offers of its own are settled — then it
    /// unposts, under the same lock, and returns the receiver of a
    /// revoked offer, if any — or until the close.
    pub(crate) fn await_phase(&self, left: usize) -> Result<Option<usize>, Closed> {
        fiber::wait(None, Some(&self.parks), |waker| {
            let mut st = self.lock();
            if st.open == 0 && st.settled as usize == left {
                st.at = Addr::NONE;
                return Some(Ok(st.revoked));
            }
            if st.closed {
                return Some(Err(Closed));
            }
            waker.register(&mut st.waker);
            None
        })
        .expect("a wait without a deadline ends with a value")
    }

    /// Unlink the offers `src` left here from the buffers at `at` that
    /// the owner has not taken, and count them.
    pub(crate) fn withdraw(&self, src: usize, at: Addr) -> usize {
        let mut st = self.lock();
        let mut withdrawn = 0;
        let mut link: *mut *mut Offer = &mut st.offers;
        // SAFETY: every linked offer is valid until unlinked, and the
        // links are only followed and rewritten under this lock.
        unsafe {
            while !(*link).is_null() {
                let o = *link;
                if (*o).src == src && (*o).at == at {
                    *link = (*o).next;
                    withdrawn += 1;
                } else {
                    link = &mut (*o).next;
                }
            }
        }
        withdrawn
    }

    /// Wait, closed or not, until `left` of the owner's offers are
    /// settled: the copies already taken out of its buffers are done.
    /// While the thread unwinds it spins instead of switching fibers — a
    /// copy in flight runs to its end on another worker without waiting.
    pub(crate) fn drain(&self, left: usize) {
        let settled = || self.lock().settled as usize >= left;
        if std::thread::panicking() {
            while !settled() {
                std::thread::yield_now();
            }
            return;
        }
        fiber::wait(None, None, |waker| {
            let mut st = self.lock();
            if st.settled as usize >= left {
                return Some(());
            }
            waker.register(&mut st.waker);
            None
        });
    }

    /// End the owner's phase: no sender reaches its buffers after this
    /// returns, and a copy into them still running finishes first (it
    /// holds the lock).
    pub(crate) fn unpost(&self) {
        let mut st = self.lock();
        st.at = Addr::NONE;
        st.open = 0;
    }

    /// How many times a pop has gone to sleep so far.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    fn env(src: usize, n: u32) -> Envelope {
        Envelope::new(0, src, n, Vec::new())
    }

    /// Run `body` on a thread of its own and fail unless it finishes within
    /// `limit`: a lost wake-up then fails the test instead of hanging the
    /// suite.
    fn watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(limit) {
            Ok(()) => worker.join().unwrap(),
            // The body panicked: pass its panic on.
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().unwrap_err())
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("no result within {limit:?}: a wake-up was lost")
            }
        }
    }

    #[test]
    fn fifo_per_producer_under_concurrent_pushes() {
        const PRODUCERS: usize = 4;
        const PUSHES: u32 = 1_000;
        let mb = Mailbox::new();
        let start = Barrier::new(PRODUCERS);
        let mut next = [0u32; PRODUCERS];
        std::thread::scope(|s| {
            for src in 0..PRODUCERS {
                let (mb, start) = (&mb, &start);
                s.spawn(move || {
                    start.wait();
                    for n in 0..PUSHES {
                        mb.push(env(src, n)).unwrap();
                    }
                });
            }
            for _ in 0..PRODUCERS as u32 * PUSHES {
                let e = mb.pop().unwrap();
                assert_eq!(e.tag, next[e.src], "producer {} overtaken", e.src);
                next[e.src] += 1;
            }
        });
        assert_eq!(next, [PUSHES; PRODUCERS]);
        assert!(mb.try_pop().is_none());
    }

    #[test]
    fn blocked_pop_is_woken_by_a_push() {
        let mb = Arc::new(Mailbox::new());
        let (tx, rx) = std::sync::mpsc::channel();
        let popper = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                tx.send(()).unwrap();
                mb.pop()
            })
        };
        // The popper has started; whether it already waits or not yet,
        // the push below must reach it.
        rx.recv().unwrap();
        mb.push(env(3, 42)).unwrap();
        let e = popper.join().unwrap().unwrap();
        assert_eq!((e.src, e.tag), (3, 42));
    }

    #[test]
    fn close_returns_pushes_and_drains_before_reporting_closed() {
        let mb = Mailbox::new();
        mb.push(env(0, 1)).unwrap();
        mb.push(env(0, 2)).unwrap();
        mb.close();
        mb.close();
        let back = mb.push(env(0, 3)).unwrap_err();
        assert_eq!(back.tag, 3);
        assert_eq!(mb.pop().unwrap().tag, 1);
        assert_eq!(mb.pop().unwrap().tag, 2);
        assert_eq!(mb.pop().map(|e| e.tag), Err(Closed));
        assert!(mb.try_pop().is_none());
    }

    #[test]
    fn close_wakes_a_blocked_pop() {
        let mb = Arc::new(Mailbox::new());
        let (tx, rx) = std::sync::mpsc::channel();
        let popper = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                tx.send(()).unwrap();
                mb.pop().map(|e| e.tag)
            })
        };
        rx.recv().unwrap();
        mb.close();
        assert_eq!(popper.join().unwrap(), Err(Closed));
    }

    #[test]
    fn ping_pong_loses_no_wake_up() {
        const ROUND_TRIPS: u32 = 200_000;
        watchdog(Duration::from_secs(300), || {
            let (ping, pong) = (Mailbox::new(), Mailbox::new());
            std::thread::scope(|s| {
                s.spawn(|| {
                    for n in 0..ROUND_TRIPS {
                        assert_eq!(ping.pop().unwrap().tag, n);
                        pong.push(env(1, n)).unwrap();
                    }
                });
                for n in 0..ROUND_TRIPS {
                    ping.push(env(0, n)).unwrap();
                    assert_eq!(pong.pop().unwrap().tag, n);
                }
            });
            assert!(ping.try_pop().is_none() && pong.try_pop().is_none());
            eprintln!(
                "ping-pong: {ROUND_TRIPS} round trips, {} + {} parks",
                ping.parks(),
                pong.parks()
            );
        });
    }

    /// The ping-pong above between two workers, each running one rank as
    /// a fiber. Every fourth ping is held until the receiving worker has
    /// set `sleeping` on its way to park: the push lands between that
    /// store and the park, or in the park, and must end it.
    #[test]
    fn two_workers_ping_pong_with_pushes_landing_as_the_receiver_parks() {
        const ROUND_TRIPS: u32 = 200_000;
        watchdog(Duration::from_secs(300), || {
            let (ping, pong) = (Mailbox::new(), Mailbox::new());
            let (ping, pong) = (&ping, &pong);
            let sleeping = |mb: &Mailbox| mb.lock().waker.as_ref().is_some_and(Waker::sleeping);
            let rank = |rank, body: Box<dyn FnOnce() + Send + '_>| {
                fiber::run([(rank, body as Box<dyn FnOnce()>)]);
            };
            std::thread::scope(|s| {
                s.spawn(move || {
                    rank(
                        1,
                        Box::new(move || {
                            for n in 0..ROUND_TRIPS {
                                assert_eq!(ping.pop().unwrap().tag, n);
                                pong.push(env(1, n)).unwrap();
                            }
                        }),
                    )
                });
                rank(
                    0,
                    Box::new(move || {
                        for n in 0..ROUND_TRIPS {
                            if n % 4 == 0 {
                                while !sleeping(ping) {
                                    std::hint::spin_loop();
                                }
                            }
                            ping.push(env(0, n)).unwrap();
                            assert_eq!(pong.pop().unwrap().tag, n);
                        }
                    }),
                );
            });
            assert!(ping.try_pop().is_none() && pong.try_pop().is_none());
            eprintln!(
                "two-worker ping-pong: {ROUND_TRIPS} round trips, {} + {} parks",
                ping.parks(),
                pong.parks()
            );
        });
    }

    #[test]
    fn pushes_paced_around_the_yield_phase_all_arrive_in_order() {
        const PRODUCERS: usize = 4;
        const PUSHES: u32 = 500;
        watchdog(Duration::from_secs(300), || {
            let mb = Mailbox::new();
            let mut next = [0u32; PRODUCERS];
            std::thread::scope(|s| {
                for src in 0..PRODUCERS {
                    let mb = &mb;
                    s.spawn(move || {
                        // Pauses of 0–200 us: shorter and longer than the
                        // owner's yield phase, so pushes meet it running,
                        // yielding, about to park and parked.
                        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(src as u64);
                        for n in 0..PUSHES {
                            std::thread::sleep(Duration::from_micros(rng.gen_range(0..=200)));
                            mb.push(env(src, n)).unwrap();
                        }
                    });
                }
                for _ in 0..PRODUCERS as u32 * PUSHES {
                    let e = mb.pop().unwrap();
                    assert_eq!(e.tag, next[e.src], "producer {} overtaken", e.src);
                    next[e.src] += 1;
                }
            });
            assert_eq!(next, [PUSHES; PRODUCERS]);
            assert!(mb.try_pop().is_none());
            eprintln!(
                "paced pushes: {} pops, {} parks",
                PRODUCERS as u32 * PUSHES,
                mb.parks()
            );
        });
    }

    /// Every field a rendezvous round reads or writes shares the
    /// mailbox's first cache line with the lock word; a field added among
    /// them that spreads the round over a second line fails here.
    #[test]
    fn rendezvous_hot_fields_share_the_first_line() {
        use std::mem::{align_of, offset_of, size_of_val};
        assert_eq!(align_of::<Mailbox>(), 128);
        assert_eq!(offset_of!(Mailbox, state), 0);
        let mb = Mailbox::new();
        let st = mb.lock();
        let state = &*st as *const State as usize - &mb as *const Mailbox as usize;
        macro_rules! hot {
            ($($field:ident),*) => {
                [$((stringify!($field), offset_of!(State, $field), size_of_val(&st.$field))),*]
            };
        }
        let hot = hot!(waker, at, offers, specs, ctx, open, settled, slots, delivered, closed);
        for (field, at, len) in hot {
            let end = state + at + len;
            assert!(end <= 64, "`{field}` ends at byte {end} of the mailbox");
        }
    }

    /// A phase of more slots than the first word of delivered bits holds:
    /// rounds met in reverse order fill every slot once.
    #[test]
    fn a_post_of_many_slots_is_matched_in_place() {
        const SLOTS: usize = 100;
        let mb = Mailbox::new();
        let specs: Vec<RecvSpec> = (0..SLOTS).map(|r| RecvSpec::from_rank(r, 7)).collect();
        let mine = 0u8;
        let at = Addr(&mine as *const u8 as *const ());
        let mut taken = Vec::new();
        // SAFETY: `specs` outlives the post, which `await_phase` ends.
        unsafe { mb.post(3, at, &specs, &mut taken) }.unwrap();
        assert!(taken.is_empty());
        let mut hits = [false; SLOTS];
        for src in (0..SLOTS).rev() {
            let mut offer = Offer::new((3, src, 7), (0, src), at, &mb);
            // SAFETY: a slot is open for every round, so none is linked.
            let met = unsafe {
                mb.meet(&mut offer, |to| {
                    assert_eq!(to, at);
                    hits[src] = true;
                })
            };
            assert_eq!(met, Ok(true));
        }
        assert!(hits.iter().all(|&h| h));
        // A second round from a source whose slot is taken finds none.
        let mut late = Offer::new((3, 5, 7), (0, 5), at, &mb);
        // SAFETY: `late` outlives its link, withdrawn below.
        assert_eq!(unsafe { mb.meet(&mut late, |_| unreachable!()) }, Ok(false));
        assert_eq!(mb.withdraw(5, at), 1);
        assert_eq!(mb.await_phase(0), Ok(None));
    }

    #[test]
    fn only_an_empty_queue_parks() {
        let mb = Mailbox::new();
        for n in 0..3 {
            mb.push(env(0, n)).unwrap();
        }
        mb.pop().unwrap();
        mb.pop().unwrap();
        mb.try_pop().unwrap();
        assert_eq!(mb.parks(), 0, "nothing waited");
        // An empty one sleeps once its idle budget is spent, until a push.
        std::thread::scope(|s| {
            s.spawn(|| {
                while mb.parks() == 0 {
                    std::thread::yield_now();
                }
                mb.push(env(0, 3)).unwrap();
            });
            assert_eq!(mb.pop().unwrap().tag, 3);
        });
        assert!(mb.parks() >= 1);
    }
}
