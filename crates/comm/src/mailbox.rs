//! The queue between [`Fabric::deposit`](crate::fabric::Fabric::deposit)
//! and a rank's unexpected-message list: one mutex-guarded FIFO and one
//! condition variable per rank.
//!
//! Every producer — a depositing rank thread on the in-process backend,
//! a progress thread on the shared-memory and socket backends — pushes
//! under the one lock, so the queue's order is arrival order and two
//! pushes by the same thread stay in push order: the per-link
//! non-overtaking guarantee the matching engine builds on. The only
//! consumer is the owning rank's thread, which the wake-up relies on: one
//! flag says "the owner sleeps", and the signal it earns goes to the one
//! thread that set it.
//!
//! A pop that finds the queue empty first *yields*: it releases the lock
//! and hands the core to whoever is runnable — with more ranks than
//! cores, the rank that owes the message — up to `YIELDS_BEFORE_PARK`
//! times, and only then *parks* on the condition variable. A push makes
//! the wake-up system call only for an owner that is parked, so a
//! message to a rank that is running, or still yielding, costs one lock
//! and no kernel entry.
//!
//! A mailbox closes once and for good: the rank's last
//! [`Comm`](crate::Comm) handle closes it when it drops (later pushes get
//! their envelope back, which the in-process backend reports as
//! [`TransportError::Closed`](crate::transport::TransportError::Closed)),
//! a progress thread closes the mailbox it feeds when it stops, and the
//! launcher closes every rank's mailbox when a rank program panics (a
//! rank blocked in [`Mailbox::pop`] wakes with [`Closed`] instead of
//! hanging). Envelopes queued before the close can still be popped.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::envelope::Envelope;

/// How often an empty pop yields the core before it parks.
///
/// A constant, not a setting: the count that is right depends on how
/// long the peer that owes the message needs, which the waiting rank
/// cannot observe, and a rank that waits longer than this sleeps either
/// way. It was picked from the run-to-run spread of ten 10 s `cartbench`
/// runs per count, not from their medians (`a2a_small`, 8 ranks on 2
/// cores: from 4 yields up the medians are within 6 % of each other).
/// With 4 yields a receive still sleeps once per 20 operations and each
/// sleep costs more than an operation, so whole runs differ with the
/// scheduler's mood: `ops_per_s` spread 6 663 1/s between the quartiles,
/// 2 653 with 16 yields (a sleep per 200 operations), 1 511 with 64 (per
/// 500), 1 201 with 256 and 5 087 with 1 024, where the benchmark's gate
/// allows about 2 900. 64 is the smallest count that was steady; beyond
/// it the spread follows the machine, not the count. It costs a rank
/// whose peer stays silent 64 `sched_yield` calls — about 20 µs of CPU
/// on an otherwise idle core — before it sleeps.
const YIELDS_BEFORE_PARK: u32 = 64;

/// The mailbox is closed and holds nothing more to pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

#[derive(Default)]
struct State {
    queue: VecDeque<Envelope>,
    closed: bool,
    /// The owner is (about to be) parked on `arrived` and has not been
    /// signalled yet. Set by the owner, taken by the push that signals.
    waiting: bool,
}

/// One rank's inbound envelope queue.
#[derive(Default)]
pub struct Mailbox {
    state: Mutex<State>,
    arrived: Condvar,
    /// Times the owner went to sleep on `arrived` (a statistic).
    parks: AtomicU64,
}

impl Mailbox {
    /// An open, empty mailbox.
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// A rank thread that panics propagates through the launcher; the
    /// queue itself is valid after every push and pop, so a poisoned
    /// lock is recovered.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Append `env` and wake the owner if it is parked. A closed mailbox
    /// gives the envelope back.
    pub fn push(&self, env: Envelope) -> Result<(), Envelope> {
        let mut st = self.lock();
        if st.closed {
            return Err(env);
        }
        st.queue.push_back(env);
        // Taken, not read: of several pushes that land before the owner
        // runs again, the first one signals.
        let wake = std::mem::take(&mut st.waiting);
        drop(st);
        if wake {
            self.arrived.notify_one();
        }
        Ok(())
    }

    /// Block until an envelope is available.
    pub fn pop(&self) -> Result<Envelope, Closed> {
        self.wait(None)
            .map(|env| env.expect("a wait without a deadline ends with an envelope"))
    }

    /// [`Mailbox::pop`] that gives up after `timeout`: `Ok(None)` means
    /// nothing arrived in time. A timeout too large for the clock to
    /// represent waits without one.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<Option<Envelope>, Closed> {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.wait(Some(deadline)),
            None => self.pop().map(Some),
        }
    }

    /// The one wait: yield while the queue stays empty, then park until a
    /// push, the close or `deadline` (`Ok(None)`) ends it.
    fn wait(&self, deadline: Option<Instant>) -> Result<Option<Envelope>, Closed> {
        let mut yields = 0;
        let mut st = self.lock();
        loop {
            if let Some(env) = st.queue.pop_front() {
                return Ok(Some(env));
            }
            if st.closed {
                return Err(Closed);
            }
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if remaining == Some(Duration::ZERO) {
                return Ok(None);
            }
            if yields < YIELDS_BEFORE_PARK {
                yields += 1;
                drop(st);
                std::thread::yield_now();
                st = self.lock();
                continue;
            }
            st.waiting = true;
            self.parks.fetch_add(1, Ordering::Relaxed);
            st = match remaining {
                Some(left) => {
                    let woken = self.arrived.wait_timeout(st, left);
                    woken.unwrap_or_else(|p| p.into_inner()).0
                }
                None => self.arrived.wait(st).unwrap_or_else(|p| p.into_inner()),
            };
            st.waiting = false;
        }
    }

    /// The next envelope if one is already queued.
    pub fn try_pop(&self) -> Option<Envelope> {
        self.lock().queue.pop_front()
    }

    /// Close the mailbox: later pushes fail, and a blocked or later pop
    /// reports [`Closed`] once the queue is drained. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.arrived.notify_all();
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
    fn pop_timeout_waits_its_timeout_and_loses_nothing() {
        let mb = Mailbox::new();
        let timeout = Duration::from_millis(20);
        let t0 = Instant::now();
        assert_eq!(mb.pop_timeout(timeout).map(|e| e.is_none()), Ok(true));
        assert!(t0.elapsed() >= timeout, "returned after {:?}", t0.elapsed());

        // An envelope pushed while a pop_timeout is in flight is returned
        // by it or, if it had already timed out, by the next pop.
        std::thread::scope(|s| {
            s.spawn(|| mb.push(env(1, 7)).unwrap());
            let e = match mb.pop_timeout(Duration::from_millis(1)).unwrap() {
                Some(e) => e,
                None => mb.pop().unwrap(),
            };
            assert_eq!((e.src, e.tag), (1, 7));
        });
        assert!(mb.try_pop().is_none());
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
        assert_eq!(
            mb.pop_timeout(Duration::from_secs(5)).unwrap().unwrap().tag,
            2
        );
        assert_eq!(mb.pop().map(|e| e.tag), Err(Closed));
        assert_eq!(
            mb.pop_timeout(Duration::from_secs(5)).map(|e| e.is_some()),
            Err(Closed)
        );
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
    fn pop_timeout_takes_a_timeout_the_clock_cannot_represent() {
        watchdog(Duration::from_secs(60), || {
            let mb = Mailbox::new();
            mb.push(env(2, 5)).unwrap();
            let e = mb.pop_timeout(Duration::MAX).unwrap().unwrap();
            assert_eq!((e.src, e.tag), (2, 5));
            // Empty: it waits like `pop`, for the push as for the close.
            std::thread::scope(|s| {
                s.spawn(|| mb.push(env(2, 6)).unwrap());
                assert_eq!(mb.pop_timeout(Duration::MAX).unwrap().unwrap().tag, 6);
                s.spawn(|| mb.close());
                assert_eq!(
                    mb.pop_timeout(Duration::MAX).map(|e| e.is_some()),
                    Err(Closed)
                );
            });
        });
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
    fn parked_pop_timeout_returns_the_push_long_before_its_timeout() {
        watchdog(Duration::from_secs(60), || {
            let mb = Mailbox::new();
            std::thread::scope(|s| {
                let popper = s.spawn(|| {
                    let t0 = Instant::now();
                    let got = mb.pop_timeout(Duration::from_secs(3_600));
                    (got, t0.elapsed())
                });
                // Push only once the popper sleeps.
                while mb.parks() == 0 {
                    std::thread::yield_now();
                }
                mb.push(env(1, 9)).unwrap();
                let (got, waited) = popper.join().unwrap();
                assert_eq!(got.unwrap().unwrap().tag, 9);
                assert!(waited < Duration::from_secs(30), "woke after {waited:?}");
            });
        });
    }

    #[test]
    fn only_an_empty_queue_parks() {
        let mb = Mailbox::new();
        for n in 0..3 {
            mb.push(env(0, n)).unwrap();
        }
        mb.pop().unwrap();
        mb.pop_timeout(Duration::from_secs(5)).unwrap().unwrap();
        mb.try_pop().unwrap();
        assert_eq!(mb.parks(), 0, "nothing waited");
        // An empty one sleeps once its yields are spent. On a loaded box
        // 64 yields can outlast a short timeout, which then expires before
        // the pop ever parks: double it until one does.
        let mut timeout = Duration::from_millis(20);
        while mb.parks() == 0 && timeout < Duration::from_secs(2) {
            assert_eq!(mb.pop_timeout(timeout).map(|e| e.is_none()), Ok(true));
            timeout *= 2;
        }
        assert!(mb.parks() >= 1);
    }
}
