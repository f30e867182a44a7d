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
//! buffers under this lock (`meet`), and one that arrives first leaves an
//! *offer* — its own bases — which the owner takes when it posts and
//! copies out itself. Posts and offers match like envelopes, on
//! `(ctx, src, tag)`, earliest offer against earliest open slot. The one
//! lock, the one waker and the one close serve both: a close revokes the
//! offers not yet taken, telling each sender, and a rank leaving a phase
//! unposts under this lock, which waits out a copy in progress.

use std::collections::VecDeque;
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

/// A round its sender reached before the receiver posted its phase: the
/// receiver copies it out of the sender's buffers itself.
pub(crate) struct Offer {
    pub(crate) ctx: u32,
    pub(crate) src: usize,
    pub(crate) tag: Tag,
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
}

// SAFETY: `at` and `from` are addresses the protocol keeps valid while
// the offer exists (see `Offer::from`); nothing else in it is shared.
unsafe impl Send for Offer {}

#[derive(Default)]
struct State {
    queue: VecDeque<Envelope>,
    closed: bool,
    /// The owner's waker, registered by a wait that found nothing and
    /// notified by every push, meeting, settle and close after that.
    waker: Option<Waker>,
    /// The owner's posted phase: its context and buffers.
    post: Option<(u32, Addr)>,
    /// The posted phase's receive slots, `true` once delivered; the
    /// capacity is kept from phase to phase.
    slots: Vec<(RecvSpec, bool)>,
    /// Posted slots not yet delivered.
    open: usize,
    /// Rounds left here by senders that arrived before the post.
    offers: Vec<Offer>,
    /// The owner's own offers of this phase that their receivers have
    /// settled: copied out, or revoked by a close.
    settled: usize,
    /// The receiver of the first revoked one.
    revoked: Option<usize>,
}

impl State {
    /// Tell the owner its wait may be over; its thread, if that sleeps,
    /// is to be unparked after the unlock.
    fn notify(&self) -> Option<Thread> {
        self.waker.as_ref().and_then(Waker::notify)
    }

    /// The earliest open posted slot the round `(ctx, src, tag)` fills.
    fn slot_for(&self, ctx: u32, src: usize, tag: Tag) -> Option<usize> {
        let (posted, _) = self.post?;
        if posted != ctx {
            return None;
        }
        self.slots
            .iter()
            .position(|(spec, done)| !done && spec.src.matches(src) && spec.tag.matches(tag))
    }
}

/// One rank's inbound envelope queue.
#[derive(Default)]
#[repr(align(128))]
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
        let offers = std::mem::take(&mut st.offers);
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
    /// and move every offer already left that an open slot takes — in
    /// arrival order, each into its earliest matching slot — onto
    /// `taken`. A taken offer's slot counts as delivered: the owner copies
    /// it next. Once posted, no new offer can match: its sender meets the
    /// post instead. A closed mailbox refuses.
    pub(crate) fn post(
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
        st.post = Some((ctx, at));
        st.slots.clear();
        st.slots.extend(slots.iter().map(|&spec| (spec, false)));
        st.open = slots.len();
        (st.settled, st.revoked) = (0, None);
        let mut at = 0;
        while at < st.offers.len() && st.open > 0 {
            let o = &st.offers[at];
            match st.slot_for(o.ctx, o.src, o.tag) {
                Some(slot) => {
                    st.slots[slot].1 = true;
                    st.open -= 1;
                    taken.push(st.offers.remove(at));
                }
                None => at += 1,
            }
        }
        Ok(())
    }

    /// Meet the owner for the round `offer` describes. If the owner has
    /// posted an open slot for it, run `copy` into the posted buffers
    /// under the lock, mark the slot delivered and return `Ok(true)`;
    /// otherwise leave the offer and return `Ok(false)`. A closed mailbox
    /// refuses both.
    pub(crate) fn meet(&self, offer: Offer, copy: impl FnOnce(Addr)) -> Result<bool, Closed> {
        let mut st = self.lock();
        if st.closed {
            return Err(Closed);
        }
        let Some(slot) = st.slot_for(offer.ctx, offer.src, offer.tag) else {
            st.offers.push(offer);
            return Ok(false);
        };
        let (_, to) = st.post.expect("a slot is posted");
        // Under the lock: the owner cannot unpost while the copy runs.
        copy(to);
        st.slots[slot].1 = true;
        st.open -= 1;
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
        st.revoked = st.revoked.or(revoked);
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
            if st.open == 0 && st.settled == left {
                st.post = None;
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

    /// Take back the offers `src` left here from the buffers at `at` that
    /// the owner has not taken, and count them.
    pub(crate) fn withdraw(&self, src: usize, at: Addr) -> usize {
        let mut st = self.lock();
        let before = st.offers.len();
        st.offers.retain(|o| o.src != src || o.at != at);
        before - st.offers.len()
    }

    /// Wait, closed or not, until `left` of the owner's offers are
    /// settled: the copies already taken out of its buffers are done.
    /// While the thread unwinds it spins instead of switching fibers — a
    /// copy in flight runs to its end on another worker without waiting.
    pub(crate) fn drain(&self, left: usize) {
        let settled = || self.lock().settled >= left;
        if std::thread::panicking() {
            while !settled() {
                std::thread::yield_now();
            }
            return;
        }
        fiber::wait(None, None, |waker| {
            let mut st = self.lock();
            if st.settled >= left {
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
        st.post = None;
        st.slots.clear();
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
