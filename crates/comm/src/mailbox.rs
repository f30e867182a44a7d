//! The queue between [`Fabric::deposit`](crate::fabric::Fabric::deposit)
//! and a rank's unexpected-message list: one mutex-guarded FIFO and one
//! condition variable per rank.
//!
//! Every producer — a depositing rank thread on the in-process backend,
//! a progress thread on the shared-memory and socket backends — pushes
//! under the one lock, so the queue's order is arrival order and two
//! pushes by the same thread stay in push order: the per-link
//! non-overtaking guarantee the matching engine builds on. The only
//! consumer is the owning rank.
//!
//! A mailbox closes once and for good, from either side: the rank's last
//! [`Comm`](crate::Comm) handle closes it when it drops (later pushes get
//! their envelope back, which the in-process backend reports as
//! [`TransportError::Closed`](crate::transport::TransportError::Closed)),
//! and a progress thread closes the mailbox it feeds when it stops (a
//! rank blocked in [`Mailbox::pop`] wakes with [`Closed`] instead of
//! hanging). Envelopes queued before the close can still be popped.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::envelope::Envelope;

/// The mailbox is closed and holds nothing more to pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

#[derive(Default)]
struct State {
    queue: VecDeque<Envelope>,
    closed: bool,
}

/// One rank's inbound envelope queue.
#[derive(Default)]
pub struct Mailbox {
    state: Mutex<State>,
    arrived: Condvar,
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

    /// Append `env` and wake the owner if it is waiting. A closed mailbox
    /// gives the envelope back.
    pub fn push(&self, env: Envelope) -> Result<(), Envelope> {
        let mut st = self.lock();
        if st.closed {
            return Err(env);
        }
        st.queue.push_back(env);
        drop(st);
        self.arrived.notify_one();
        Ok(())
    }

    /// Block until an envelope is available.
    pub fn pop(&self) -> Result<Envelope, Closed> {
        let mut st = self.lock();
        loop {
            if let Some(env) = st.queue.pop_front() {
                return Ok(env);
            }
            if st.closed {
                return Err(Closed);
            }
            st = self.arrived.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// [`Mailbox::pop`] that gives up after `timeout`: `Ok(None)` means
    /// nothing arrived in time.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<Option<Envelope>, Closed> {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        loop {
            if let Some(env) = st.queue.pop_front() {
                return Ok(Some(env));
            }
            if st.closed {
                return Err(Closed);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            st = self
                .arrived
                .wait_timeout(st, remaining)
                .unwrap_or_else(|p| p.into_inner())
                .0;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    fn env(src: usize, n: u32) -> Envelope {
        Envelope::new(0, src, n, Vec::new())
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
}
