//! Reliable delivery over a (possibly) lossy fabric.
//!
//! The raw fabric is a perfect transport. Built with a
//! [`FaultPlane`](crate::fault::FaultPlane) it can drop, duplicate, delay,
//! and reorder data envelopes — and this module is the protocol that
//! makes [`Comm::exchange`] correct anyway. It runs iff the fabric is
//! lossy, under the [`RetryPolicy`] the fabric was built with
//! (`RunConfig::faults(spec, policy)`): nothing a rank sets.
//!
//! * **Sequencing** — every data envelope of an exchange carries a
//!   per-`(ctx, dst)` stream sequence number (starting at 1).
//! * **Receiver dedup + in-order release** — each `(ctx, src)` stream
//!   keeps a delivery floor (`next_deliver`) and a parking lot for
//!   early arrivals. Duplicates (anything below the floor or already
//!   parked) are counted, re-acked, and discarded; everything else is
//!   released into the rank's unexpected queue *in sequence order*.
//!   Because **all** receive paths route arrivals through this intake
//!   ([`Comm::intake`]), a delayed retransmit of an already-matched
//!   `(src, tag)` can never satisfy a later post.
//! * **Sender retransmit** — senders retain payload copies and
//!   retransmit on an exponential-backoff schedule
//!   ([`RetryPolicy`]) until acknowledged; exhausting the budget
//!   surfaces [`CommError::PeerUnreachable`] instead of hanging.
//!   Receivers symmetrically give up after the policy's total budget
//!   passes without progress.
//!
//! Acknowledgements bypass the fault plane (a reliable control plane),
//! which sidesteps the two-generals tail: once a receiver has acked, the
//! sender *will* hear it, so a rank can leave `exchange` without being
//! needed for a peer's completion.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use cartcomm_obs::TraceEvent;

use crate::comm::{find_slot, Comm, ExchangeBatch, RecvSpec};
use crate::envelope::{Envelope, SrcSel, Tag};
use crate::error::{CommError, CommResult};

/// How long a reliable receive loop sleeps per tick while pumping the
/// fault plane and the retransmit scan.
pub(crate) const RELIABLE_TICK: Duration = Duration::from_micros(200);

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

/// An unacknowledged sequenced envelope retained for retransmission.
pub(crate) struct Outstanding {
    tag: Tag,
    payload: Vec<u8>,
    /// Transmissions so far (1 = original send only).
    sent: u32,
    deadline: Instant,
}

/// Receive-side state of one `(ctx, src)` stream.
pub(crate) struct StreamState {
    /// Next sequence number to release; everything below is a duplicate.
    next_deliver: u64,
    /// Early (out-of-order) arrivals parked until the floor reaches them.
    parked: BTreeMap<u64, Envelope>,
}

impl Default for StreamState {
    fn default() -> Self {
        StreamState {
            next_deliver: 1,
            parked: BTreeMap::new(),
        }
    }
}

/// A tiny linear-scan map for per-stream state. Stream keys are
/// `(ctx, rank)` pairs and a rank talks to a handful of contexts and at
/// most `p` peers, so a `Vec` scan beats hashing the key on the
/// per-envelope fast path (this map is touched once per sequenced send
/// and once per sequenced arrival).
pub(crate) struct StreamMap<V> {
    entries: Vec<((u32, usize), V)>,
}

impl<V> Default for StreamMap<V> {
    fn default() -> Self {
        StreamMap {
            entries: Vec::new(),
        }
    }
}

impl<V: Default> StreamMap<V> {
    /// Mutable access to the entry for `key`, created on first use.
    pub(crate) fn entry(&mut self, key: (u32, usize)) -> &mut V {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            return &mut self.entries[i].1;
        }
        self.entries.push((key, V::default()));
        &mut self.entries.last_mut().expect("just pushed").1
    }
}

/// Per-rank reliable-protocol state, shared across duplicated contexts
/// (it lives on `RankCore`).
#[derive(Default)]
pub(crate) struct RelState {
    /// Next send sequence per `(ctx, dst)` stream (last used; 0 = none).
    send_seq: StreamMap<u64>,
    /// Receive streams keyed by `(ctx, src)`.
    streams: StreamMap<StreamState>,
    /// Retained unacked sends keyed by `(ctx, dst, seq)`.
    outstanding: HashMap<(u32, usize, u64), Outstanding>,
}

impl Comm {
    /// Injected-fault counters of the fabric's fault plane, if it has one.
    pub fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        self.fabric.fault_stats()
    }

    /// Pump the fault plane once for this rank: releases due delayed and
    /// reordered envelopes into this rank's mailbox. Exchanges and
    /// blocking receives on a lossy fabric pump automatically.
    pub fn poll_faults(&self) {
        // Transport trouble during a pump is not actionable here; the
        // exchange that cares will see it on its own poll.
        let _ = self.fabric.poll(self.rank);
    }

    /// Route one arrived envelope into the rank's delivery state: acks
    /// settle outstanding retransmissions, sequenced data passes the
    /// dedup window and is released **in sequence order** onto the
    /// unexpected queue, unsequenced data is appended as-is. Every
    /// receive path (exchange, `match_one`, probes) takes arrivals
    /// through here, so sequencing protects all matching, not just
    /// exchanges. Sequence numbers exist only on a lossy fabric: every
    /// sequenced arrival is acknowledged.
    pub(crate) fn intake(&self, env: Envelope, pending: &mut VecDeque<Envelope>) {
        if env.is_ack() {
            if let Some(seq) = env.rel.seq {
                self.core
                    .rel
                    .lock()
                    .outstanding
                    .remove(&(env.ctx, env.src, seq));
            }
            return;
        }
        let Some(seq) = env.rel.seq else {
            pending.push_back(env);
            return;
        };
        let (ctx, src, tag) = (env.ctx, env.src, env.tag);
        let mut rel = self.core.rel.lock();
        let stream = rel.streams.entry((ctx, src));
        if seq < stream.next_deliver || stream.parked.contains_key(&seq) {
            drop(rel);
            self.obs.metrics().dup_drop();
            self.obs
                .emit_with(self.rank, || TraceEvent::DupDropped { src, tag, seq });
            // The first ack may have been sent before the sender's
            // retransmit; re-ack so it settles. A dead sender cannot use
            // the ack anyway, so delivery failure is ignorable.
            let _ = self
                .fabric
                .deposit(src, Envelope::ack(ctx, self.rank, tag, seq));
            return;
        }
        if seq == stream.next_deliver {
            stream.next_deliver += 1;
            pending.push_back(env);
            // Release any parked successors now in order.
            while let Some(e) = stream.parked.remove(&stream.next_deliver) {
                stream.next_deliver += 1;
                pending.push_back(e);
            }
        } else {
            stream.parked.insert(seq, env);
        }
        drop(rel);
        // Same as the re-ack above: an undeliverable ack means the sender
        // is gone, which its own retry budget will report.
        let _ = self
            .fabric
            .deposit(src, Envelope::ack(ctx, self.rank, tag, seq));
    }

    /// Forget this exchange's retransmission state (error paths: the
    /// exchange is over, nothing should keep retrying on its behalf).
    fn clear_outstanding(&self, issued: &[(usize, u64)]) {
        let mut rel = self.core.rel.lock();
        for &(d, s) in issued {
            rel.outstanding.remove(&(self.ctx, d, s));
        }
    }

    /// [`Comm::exchange`] over a lossy fabric: sequenced, retransmitting.
    pub(crate) fn exchange_reliable(
        &self,
        batch: &mut ExchangeBatch,
        recvs: &[RecvSpec],
        policy: RetryPolicy,
    ) -> CommResult<()> {
        for &(dst, _, _) in batch.sends.iter() {
            self.check_rank(dst)?;
        }
        self.obs.metrics().exchange_started();

        // Assign stream sequence numbers and issue all sends, retaining
        // payload copies for retransmission.
        let mut issued: Vec<(usize, u64)> = Vec::new();
        let mut send_err = None;
        {
            let mut rel = self.core.rel.lock();
            for (dst, tag, data) in batch.sends.drain(..) {
                let counter = rel.send_seq.entry((self.ctx, dst));
                *counter += 1;
                let seq = *counter;
                rel.outstanding.insert(
                    (self.ctx, dst, seq),
                    Outstanding {
                        tag,
                        payload: data.as_ref().to_vec(),
                        sent: 1,
                        deadline: Instant::now() + policy.backoff(0),
                    },
                );
                issued.push((dst, seq));
                if let Err(e) = self.fabric.deposit(
                    dst,
                    Envelope::sequenced(self.ctx, self.rank, tag, seq, data),
                ) {
                    send_err = Some(e);
                    break;
                }
            }
            if send_err.is_some() {
                for &(d, s) in &issued {
                    rel.outstanding.remove(&(self.ctx, d, s));
                }
            }
        }
        if let Some(e) = send_err {
            return Err(e.into());
        }

        let results = &mut batch.results;
        results.clear();
        results.resize_with(recvs.len(), || None);
        let mut open = recvs.len();
        let budget = policy.total_budget();
        let mut last_progress = Instant::now();

        loop {
            // Match everything already delivered, earliest-posted-slot first.
            {
                let mut pending = self.core.pending.lock();
                let mut i = 0;
                while i < pending.len() && open > 0 {
                    if let Some(slot) = find_slot(self.ctx, &pending[i], recvs, results) {
                        let env = pending.remove(i).expect("index in range");
                        self.complete_slot(results, slot, env);
                        open -= 1;
                        last_progress = Instant::now();
                    } else {
                        i += 1;
                    }
                }
            }
            // Complete when all receives matched and every one of our
            // sends has been acknowledged.
            if open == 0 {
                let rel = self.core.rel.lock();
                if issued
                    .iter()
                    .all(|&(d, s)| !rel.outstanding.contains_key(&(self.ctx, d, s)))
                {
                    break;
                }
            }

            // Pump the plane, take what arrives within a tick, then run the
            // retransmit and liveness scans.
            if let Err(e) = self.fabric.poll(self.rank) {
                self.clear_outstanding(&issued);
                return Err(e.into());
            }
            if let Some(env) = self.counting_parks(|mb| mb.pop_timeout(RELIABLE_TICK))? {
                let mut pending = self.core.pending.lock();
                self.intake(env, &mut pending);
                while let Some(e) = self.core.mailbox.try_pop() {
                    self.intake(e, &mut pending);
                }
            }

            // Retransmit scan.
            let now = Instant::now();
            let mut to_retx: Vec<(usize, u64, Tag, Vec<u8>, u32)> = Vec::new();
            let mut exhausted: Option<(usize, u32)> = None;
            {
                let mut rel = self.core.rel.lock();
                for &(dst, seq) in &issued {
                    let Some(o) = rel.outstanding.get_mut(&(self.ctx, dst, seq)) else {
                        continue;
                    };
                    if now < o.deadline {
                        continue;
                    }
                    if o.sent >= policy.attempts {
                        exhausted = Some((dst, o.sent));
                        break;
                    }
                    o.sent += 1;
                    o.deadline = now + policy.backoff(o.sent - 1);
                    to_retx.push((dst, seq, o.tag, o.payload.clone(), o.sent - 1));
                }
                if exhausted.is_some() {
                    for &(d, s) in &issued {
                        rel.outstanding.remove(&(self.ctx, d, s));
                    }
                }
            }
            if let Some((peer, attempts)) = exhausted {
                return Err(CommError::PeerUnreachable { peer, attempts });
            }
            for (dst, seq, tag, payload, attempt) in to_retx {
                self.obs.metrics().retransmit();
                self.obs.emit_with(self.rank, || TraceEvent::Retransmit {
                    dst,
                    tag,
                    seq,
                    attempt,
                });
                if let Err(e) = self.fabric.deposit(
                    dst,
                    Envelope::sequenced(self.ctx, self.rank, tag, seq, payload),
                ) {
                    self.clear_outstanding(&issued);
                    return Err(e.into());
                }
            }

            // Receiver-side liveness: the peer may have died (or its data
            // may be 100%-dropped with no retransmit reaching us). Give up
            // after the same budget a sender would.
            if open > 0 && last_progress.elapsed() > budget {
                let peer = recvs
                    .iter()
                    .enumerate()
                    .find_map(|(i, spec)| match (results[i].is_none(), spec.src) {
                        (true, SrcSel::Rank(r)) => Some(r),
                        _ => None,
                    })
                    .unwrap_or(self.rank);
                self.clear_outstanding(&issued);
                return Err(CommError::PeerUnreachable {
                    peer,
                    attempts: policy.attempts,
                });
            }
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
