//! Loss and recovery as a transport (DESIGN.md §10).
//!
//! Every backend is a perfect link. A fabric built lossy
//! ([`Fabric::lossy`](crate::fabric::Fabric::lossy),
//! `RunConfig::faults(spec, policy)`) wraps its backend in a
//! [`LossyTransport`]: the backend delivers into a second set of per-rank
//! *wire* mailboxes, a [`FaultPlane`] sits on the way in, and one
//! `lossy-progress` thread carries what survives it from the wire
//! mailboxes into the ranks' real ones. The protocol is stop-and-wait:
//!
//! * **Deposit** stamps the sender's next sequence number, routes the
//!   envelope through the plane and waits for the acknowledgement,
//!   retransmitting on the [`RetryPolicy`]'s backoff. `Ok` means the
//!   envelope is in the destination's mailbox; a spent budget is
//!   [`TransportError::Unacked`]. Every deposit — exchange, point-to-point
//!   send, built-in collective — is protected alike.
//! * **Progress** drops what a link already delivered (`seq ≤ floor`, a
//!   `dup_drop` of the receiving rank), pushes the rest into the rank's
//!   mailbox with the header cleared, and acknowledges both. With one
//!   envelope in flight per sender nothing overtakes on a link, so one
//!   floor per directed link is the whole receive state.
//! * **Acknowledgements bypass the plane**, which sidesteps the
//!   two-generals tail: once acknowledged, the sender *will* hear it.
//!
//! A rank above sees a perfect, possibly slow, possibly closed link and
//! holds no reliability state. It contributes one thing, how long an
//! exchange waits for a receive ([`Transport::patience`]): a sender on a
//! dead link learns that from its budget, a receiver has only silence.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cartcomm_obs::{Obs, TraceEvent};
use parking_lot::Mutex;

use crate::envelope::{EnvKind, Envelope, RelHeader};
use crate::fault::{FaultPlane, FaultSpec, FaultStats};
use crate::fiber::{self, Waker};
use crate::mailbox::Mailbox;
use crate::transport::{Transport, TransportError, TransportKind, TransportResult};

/// How long the progress thread sleeps after a sweep that moved nothing;
/// also the length of one fault-plane poll on an idle fabric.
const TICK: Duration = Duration::from_micros(200);

/// Retransmission schedule of the exchanges over a lossy fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum total transmissions per envelope (the original send plus
    /// `attempts - 1` retransmissions).
    pub attempts: u32,
    /// Wait before the first retransmission.
    pub base: Duration,
    /// Multiplicative backoff between consecutive retransmissions.
    pub factor: f64,
    /// Cap on any single wait.
    pub max: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(5),
            factor: 2.0,
            max: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// The wait after transmission number `sent` (0 = after the original
    /// send): `min(base * factor^sent, max)`.
    pub fn backoff(&self, sent: u32) -> Duration {
        let scaled = self.base.as_secs_f64() * self.factor.powi(sent as i32);
        self.max.min(Duration::from_secs_f64(scaled.max(0.0)))
    }

    /// Total time a sender can spend on one envelope before giving up —
    /// the sum of all backoff waits. Receivers use the same budget as
    /// their no-progress bound, so both sides of a dead link terminate.
    pub fn total_budget(&self) -> Duration {
        (0..self.attempts).map(|k| self.backoff(k)).sum()
    }
}

/// One sender's stop-and-wait state.
#[derive(Default)]
struct Sender {
    /// The last sequence number used, locked for a whole deposit: one
    /// envelope in flight per sender. One counter per sender still rises
    /// strictly on each of its links, which is all a floor needs. Only the
    /// sender's own deposits take it, so holding it across the ack wait
    /// holds up no sibling fiber.
    last: Mutex<u64>,
    acked: Mutex<Acked>,
}

/// The highest sequence number acknowledged, and the one depositor the
/// lock above lets wait for the next.
#[derive(Default)]
struct Acked {
    seq: u64,
    waker: Option<Waker>,
}

/// What the depositing ranks and the progress thread share.
struct Shared {
    /// The backend; it delivers into `wire`.
    inner: Box<dyn Transport>,
    plane: FaultPlane,
    policy: RetryPolicy,
    /// Where the backend leaves what crossed the link, per rank.
    wire: Vec<Arc<Mailbox>>,
    /// The ranks' real mailboxes.
    mailboxes: Vec<Arc<Mailbox>>,
    obs: Vec<Arc<Obs>>,
    senders: Vec<Sender>,
    /// `Drop`'s Release store, the progress loop's Acquire load.
    stop: AtomicBool,
}

/// A [`Transport`] decorator that injures the link with a [`FaultPlane`]
/// and repairs it with stop-and-wait retransmission (see the
/// [module docs](self)).
pub struct LossyTransport {
    shared: Arc<Shared>,
    progress: Option<JoinHandle<()>>,
}

impl LossyTransport {
    /// Wrap `inner`, which must deliver into `wire`; arrivals that pass
    /// the protocol land in `mailboxes`, counters and trace events on
    /// `obs` (all indexed by rank).
    pub(crate) fn new(
        inner: Box<dyn Transport>,
        wire: Vec<Arc<Mailbox>>,
        mailboxes: &[Arc<Mailbox>],
        obs: &[Arc<Obs>],
        spec: FaultSpec,
        policy: RetryPolicy,
    ) -> LossyTransport {
        let p = inner.size();
        let shared = Arc::new(Shared {
            inner,
            plane: FaultPlane::new(spec, p),
            policy,
            wire,
            mailboxes: mailboxes.to_vec(),
            obs: obs.to_vec(),
            senders: (0..p).map(|_| Sender::default()).collect(),
            stop: AtomicBool::new(false),
        });
        let progress = std::thread::Builder::new()
            .name("lossy-progress".into())
            .spawn({
                let shared = Arc::clone(&shared);
                move || shared.progress()
            })
            .expect("failed to spawn the lossy progress thread");
        LossyTransport {
            shared,
            progress: Some(progress),
        }
    }
}

impl Drop for LossyTransport {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.progress.take() {
            let _ = h.join();
        }
    }
}

impl Shared {
    /// One transmission: through the plane, then whatever the plane lets
    /// out (this envelope, its copy, envelopes it had stashed) onto the
    /// backend.
    fn transmit(&self, dst: usize, env: Envelope) -> TransportResult<()> {
        let src = env.src;
        let (out, faulted) = self.plane.route(dst, env);
        if faulted {
            self.obs[src].metrics().fault_injected();
        }
        // All of it goes to `dst`: what a first failure leaves behind
        // would fail too, and its senders retransmit.
        out.into_iter().try_for_each(|e| self.inner.deposit(dst, e))
    }

    /// The progress loop: age the plane's held envelopes, drain the wire
    /// mailboxes, sleep a tick when a sweep moved nothing.
    fn progress(&self) {
        let p = self.wire.len();
        // Highest sequence number delivered on each directed link,
        // `src * p + dst`. Only this thread delivers, so it is a local.
        let mut floor = vec![0u64; p * p];
        while !self.stop.load(Ordering::Acquire) {
            let mut moved = false;
            for dst in 0..p {
                for env in self.plane.poll(dst) {
                    moved = true;
                    // A closed link is the sender's budget's to report.
                    let _ = self.inner.deposit(dst, env);
                }
                while let Some(env) = self.wire[dst].try_pop() {
                    moved = true;
                    self.arrive(dst, env, &mut floor);
                }
            }
            if !moved {
                std::thread::sleep(TICK);
            }
        }
    }

    /// One envelope off `dst`'s wire mailbox. Frames reach it off sockets
    /// and rings: a source out of range or a missing sequence number is
    /// dropped, never indexed with.
    fn arrive(&self, dst: usize, mut env: Envelope, floor: &mut [u64]) {
        let p = self.wire.len();
        let (src, Some(seq)) = (env.src, env.rel.seq) else {
            return;
        };
        if src >= p {
            return;
        }
        if env.is_ack() {
            let mut acked = self.senders[dst].acked.lock();
            if seq > acked.seq {
                acked.seq = seq;
                let sleeper = acked.waker.as_ref().and_then(Waker::notify);
                drop(acked);
                if let Some(thread) = sleeper {
                    thread.unpark();
                }
            }
            return;
        }
        let (ctx, tag) = (env.ctx, env.tag);
        let floor = &mut floor[src * p + dst];
        if seq <= *floor {
            // A plane duplicate or a retransmission that raced its ack:
            // acknowledge again so the sender settles.
            self.obs[dst].metrics().dup_drop();
        } else {
            env.rel = RelHeader::default();
            if self.mailboxes[dst].push(env).is_err() {
                // The rank is gone: no acknowledgement, and the sender's
                // budget reports it.
                return;
            }
            *floor = seq;
        }
        // An undeliverable ack means the sender is gone, which nobody
        // needs to hear.
        let _ = self.inner.deposit(src, Envelope::ack(ctx, dst, tag, seq));
    }
}

impl Transport for LossyTransport {
    fn kind(&self) -> TransportKind {
        self.shared.inner.kind()
    }

    fn size(&self) -> usize {
        self.shared.inner.size()
    }

    /// Stop-and-wait: returns `Ok` once `dst`'s progress path has put the
    /// envelope into `dst`'s mailbox, [`TransportError::Unacked`] when
    /// `policy.attempts` transmissions went unacknowledged.
    fn deposit(&self, dst: usize, mut env: Envelope) -> TransportResult<()> {
        let sh = &*self.shared;
        let (ctx, src, tag) = (env.ctx, env.src, env.tag);
        let sender = &sh.senders[src];
        let mut last = sender.last.lock();
        *last += 1;
        let seq = *last;

        let retained = env.data.as_ref().to_vec();
        env.rel = RelHeader {
            kind: EnvKind::Data,
            seq: Some(seq),
        };
        let mut sent = 0;
        loop {
            sh.transmit(dst, env)?;
            sent += 1;
            // Cooperative like every wait: a sibling rank runs meanwhile,
            // so a dead link spends this rank's budget, not theirs.
            let until = Instant::now().checked_add(sh.policy.backoff(sent - 1));
            let heard = fiber::wait(until, None, |waker| {
                let mut acked = sender.acked.lock();
                if acked.seq >= seq {
                    return Some(());
                }
                waker.register(&mut acked.waker);
                None
            });
            if heard.is_some() {
                return Ok(());
            }
            if sent >= sh.policy.attempts {
                let (peer, attempts) = (dst, sent);
                return Err(TransportError::Unacked { peer, attempts });
            }
            sh.obs[src].metrics().retransmit();
            sh.obs[src].emit_with(src, || TraceEvent::Retransmit {
                dst,
                tag,
                seq,
                attempt: sent,
            });
            env = Envelope::sequenced(ctx, src, tag, seq, retained.clone());
        }
    }

    fn shutdown(&self, rank: usize) {
        self.shared.inner.shutdown(rank);
    }

    fn in_process(&self) -> bool {
        self.shared.inner.in_process()
    }

    /// The policy's total budget: the longest a sender keeps trying.
    fn patience(&self) -> Option<Duration> {
        Some(self.shared.policy.total_budget())
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        Some(self.shared.plane.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::per_rank;
    use crate::pool::WirePool;
    use crate::transport::inproc::InProcTransport;
    use crate::transport::wire;

    #[test]
    fn frames_no_rank_could_have_sent_are_dropped_on_the_progress_path() {
        let (links, mailboxes) = (per_rank::<Mailbox>(2), per_rank::<Mailbox>(2));
        let (inner, obs) = (Box::new(InProcTransport::new(&links)), per_rank(2));
        let (spec, policy) = (FaultSpec::new(1), RetryPolicy::default());
        let t = LossyTransport::new(inner, links.clone(), &mailboxes, &obs, spec, policy);
        let pool = Arc::new(WirePool::new());
        let off_the_wire = |frame: &[u8]| {
            let (env, used) = wire::decode_from(frame, &pool).expect("a complete frame");
            assert_eq!(used, frame.len());
            links[1].push(env).unwrap();
        };
        // One payload byte, tag 5, data with seq 1 — from rank 7 of 2; then
        // an acknowledgement from there; then unsequenced data from rank 0.
        let mut frame = [0u8; wire::HEADER_BYTES + 1];
        (frame[0], frame[8], frame[12], frame[17], frame[24]) = (1, 7, 5, 1, 1);
        off_the_wire(&frame);
        frame[16] = 1;
        off_the_wire(&frame);
        (frame[8], frame[16], frame[17]) = (0, 0, 0);
        off_the_wire(&frame);
        // The thread indexed with none of them and delivered none: the next
        // deposit is acknowledged and is all rank 1 holds.
        t.deposit(1, Envelope::new(0, 0, 5, vec![0xAB])).unwrap();
        assert_eq!(mailboxes[1].try_pop().unwrap().data, vec![0xAB]);
        assert!(mailboxes[1].try_pop().is_none());
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            attempts: 6,
            base: Duration::from_millis(10),
            factor: 2.0,
            max: Duration::from_millis(50),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(50), "capped");
        assert_eq!(
            p.total_budget(),
            Duration::from_millis(10 + 20 + 40 + 50 + 50 + 50)
        );
    }

    #[test]
    fn default_policy_is_sane() {
        let p = RetryPolicy::default();
        assert!(p.attempts >= 4);
        assert!(p.total_budget() >= Duration::from_millis(100));
    }
}
