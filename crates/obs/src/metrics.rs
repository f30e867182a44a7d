//! The per-communicator metrics registry.
//!
//! One [`MetricsRegistry`] per rank absorbs the formerly scattered
//! telemetry (`pool_telemetry`, `plan_cache_stats`, fabric counters)
//! into a single place, counted in the paper's units: *rounds* (what
//! Prop. 3.2 predicts as `C`), *wire bytes* (what Prop. 3.3 predicts as
//! `V·m`), plus the machinery around them (matched messages, pack spans,
//! pool and plan-cache traffic).
//!
//! Counters are relaxed atomics and always on — the same cost class as
//! the pre-existing pool telemetry. The round-latency distribution is a
//! `stats::histogram` behind a mutex and is only recorded while tracing
//! is enabled, keeping the disabled path lock-free.

use std::sync::atomic::{AtomicU64, Ordering};

use cartcomm_stats::Histogram;
use parking_lot::Mutex;

/// Bins of the round-latency distribution: `log10(nanoseconds)` over
/// `[0, 10)` — 1 ns to ~10 s.
const LATENCY_LOG10_BINS: usize = 40;

/// Always-on counters plus a tracing-gated latency distribution for one rank.
pub struct MetricsRegistry {
    rounds_started: AtomicU64,
    rounds_completed: AtomicU64,
    wire_bytes_sent: AtomicU64,
    wire_bytes_recv: AtomicU64,
    exchanges: AtomicU64,
    msgs_matched: AtomicU64,
    recv_parks: AtomicU64,
    pack_spans: AtomicU64,
    pack_bytes: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    faults_injected: AtomicU64,
    retransmits: AtomicU64,
    dup_drops: AtomicU64,
    /// Round latency, recorded as `log10(ns)`. Tracing-gated.
    round_latency_log10_ns: Mutex<Histogram>,
}

impl MetricsRegistry {
    /// A zeroed registry.
    pub fn new() -> Self {
        MetricsRegistry {
            rounds_started: AtomicU64::new(0),
            rounds_completed: AtomicU64::new(0),
            wire_bytes_sent: AtomicU64::new(0),
            wire_bytes_recv: AtomicU64::new(0),
            exchanges: AtomicU64::new(0),
            msgs_matched: AtomicU64::new(0),
            recv_parks: AtomicU64::new(0),
            pack_spans: AtomicU64::new(0),
            pack_bytes: AtomicU64::new(0),
            pool_hits: AtomicU64::new(0),
            pool_misses: AtomicU64::new(0),
            plan_cache_hits: AtomicU64::new(0),
            plan_cache_misses: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            retransmits: AtomicU64::new(0),
            dup_drops: AtomicU64::new(0),
            round_latency_log10_ns: Mutex::new(Histogram::new(0.0, 10.0, LATENCY_LOG10_BINS)),
        }
    }

    // ----- hot-path counter updates (always on, relaxed) -------------------

    /// A communication round was issued.
    #[inline]
    pub fn round_started(&self) {
        self.rounds_started.fetch_add(1, Ordering::Relaxed);
    }

    /// A communication round completed (send issued, receive scattered).
    #[inline]
    pub fn round_completed(&self) {
        self.rounds_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// `bytes` were deposited on the wire by this rank.
    #[inline]
    pub fn add_wire_sent(&self, bytes: usize) {
        self.wire_bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// A phase exchange was started.
    #[inline]
    pub fn exchange_started(&self) {
        self.exchanges.fetch_add(1, Ordering::Relaxed);
    }

    /// An inbound message of `bytes` was matched to a receive slot.
    #[inline]
    pub fn message_matched(&self, bytes: usize) {
        self.msgs_matched.fetch_add(1, Ordering::Relaxed);
        self.wire_bytes_recv
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// A blocked receive went to sleep `parks` times (it had run out of
    /// yields; see `cartcomm_comm::mailbox`).
    #[inline]
    pub fn recv_parked(&self, parks: u64) {
        self.recv_parks.fetch_add(parks, Ordering::Relaxed);
    }

    /// A wire message was packed from `spans` ranges totalling `bytes`.
    #[inline]
    pub fn pack(&self, spans: usize, bytes: usize) {
        self.pack_spans.fetch_add(spans as u64, Ordering::Relaxed);
        self.pack_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// A pooled wire-buffer acquisition hit a free list.
    #[inline]
    pub fn pool_hit(&self) {
        self.pool_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A pooled wire-buffer acquisition allocated.
    #[inline]
    pub fn pool_miss(&self) {
        self.pool_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A compiled-plan lookup hit the plan cache.
    #[inline]
    pub fn plan_cache_hit(&self) {
        self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A compiled-plan lookup compiled fresh.
    #[inline]
    pub fn plan_cache_miss(&self) {
        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// The fault plane tampered with one of this rank's deposits.
    #[inline]
    pub fn fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// An unacknowledged sequenced envelope was retransmitted.
    #[inline]
    pub fn retransmit(&self) {
        self.retransmits.fetch_add(1, Ordering::Relaxed);
    }

    /// The dedup window absorbed an already-delivered sequenced envelope.
    #[inline]
    pub fn dup_drop(&self) {
        self.dup_drops.fetch_add(1, Ordering::Relaxed);
    }

    // ----- tracing-gated distribution --------------------------------------

    /// Record one round latency (callers gate on tracing being enabled).
    pub fn record_round_ns(&self, ns: u64) {
        self.round_latency_log10_ns
            .lock()
            .add((ns.max(1) as f64).log10());
    }

    /// Copy of the round-latency distribution (`log10(ns)` domain).
    pub fn latency_histogram(&self) -> Histogram {
        self.round_latency_log10_ns.lock().clone()
    }

    // ----- snapshots -------------------------------------------------------

    /// Plain-data copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            rounds_started: self.rounds_started.load(Ordering::Relaxed),
            rounds_completed: self.rounds_completed.load(Ordering::Relaxed),
            wire_bytes_sent: self.wire_bytes_sent.load(Ordering::Relaxed),
            wire_bytes_recv: self.wire_bytes_recv.load(Ordering::Relaxed),
            exchanges: self.exchanges.load(Ordering::Relaxed),
            msgs_matched: self.msgs_matched.load(Ordering::Relaxed),
            recv_parks: self.recv_parks.load(Ordering::Relaxed),
            pack_spans: self.pack_spans.load(Ordering::Relaxed),
            pack_bytes: self.pack_bytes.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            dup_drops: self.dup_drops.load(Ordering::Relaxed),
        }
    }

    /// The counter traffic since `earlier`, as a [`MetricsDelta`].
    /// Equivalent to `snapshot() - earlier` — the idiomatic way to scope
    /// assertions to a region of interest without resetting the registry.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsDelta {
        MetricsDelta(self.snapshot().since(earlier))
    }

    /// Zero every counter (the latency distribution is kept). Lets a measurement
    /// scope counters to a region of interest.
    pub fn reset(&self) {
        self.rounds_started.store(0, Ordering::Relaxed);
        self.rounds_completed.store(0, Ordering::Relaxed);
        self.wire_bytes_sent.store(0, Ordering::Relaxed);
        self.wire_bytes_recv.store(0, Ordering::Relaxed);
        self.exchanges.store(0, Ordering::Relaxed);
        self.msgs_matched.store(0, Ordering::Relaxed);
        self.recv_parks.store(0, Ordering::Relaxed);
        self.pack_spans.store(0, Ordering::Relaxed);
        self.pack_bytes.store(0, Ordering::Relaxed);
        self.pool_hits.store(0, Ordering::Relaxed);
        self.pool_misses.store(0, Ordering::Relaxed);
        self.plan_cache_hits.store(0, Ordering::Relaxed);
        self.plan_cache_misses.store(0, Ordering::Relaxed);
        self.faults_injected.store(0, Ordering::Relaxed);
        self.retransmits.store(0, Ordering::Relaxed);
        self.dup_drops.store(0, Ordering::Relaxed);
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// A plain-data copy of a [`MetricsRegistry`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Communication rounds issued.
    pub rounds_started: u64,
    /// Communication rounds completed.
    pub rounds_completed: u64,
    /// Payload bytes this rank deposited on the wire, counted once per
    /// deposit: what a lossy link sends again is `retransmits`.
    pub wire_bytes_sent: u64,
    /// Payload bytes matched into this rank's receive slots.
    pub wire_bytes_recv: u64,
    /// Phase exchanges started.
    pub exchanges: u64,
    /// Messages matched to receive slots.
    pub msgs_matched: u64,
    /// Times a blocked receive slept instead of finding its message while
    /// it yielded.
    pub recv_parks: u64,
    /// Contiguous spans gathered while packing wire messages.
    pub pack_spans: u64,
    /// Bytes gathered while packing wire messages.
    pub pack_bytes: u64,
    /// Wire-buffer acquisitions served from a free list.
    pub pool_hits: u64,
    /// Wire-buffer acquisitions that allocated.
    pub pool_misses: u64,
    /// Compiled-plan cache hits.
    pub plan_cache_hits: u64,
    /// Compiled-plan cache misses (compilations).
    pub plan_cache_misses: u64,
    /// Envelopes the fault plane tampered with on this rank's deposits.
    pub faults_injected: u64,
    /// Sequenced envelopes retransmitted after a missed acknowledgement.
    pub retransmits: u64,
    /// Duplicate sequenced envelopes refused on the way into this rank's mailbox.
    pub dup_drops: u64,
}

impl MetricsSnapshot {
    /// Field-wise saturating difference `self − earlier`: the traffic
    /// between two snapshots.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            rounds_started: self.rounds_started.saturating_sub(earlier.rounds_started),
            rounds_completed: self
                .rounds_completed
                .saturating_sub(earlier.rounds_completed),
            wire_bytes_sent: self.wire_bytes_sent.saturating_sub(earlier.wire_bytes_sent),
            wire_bytes_recv: self.wire_bytes_recv.saturating_sub(earlier.wire_bytes_recv),
            exchanges: self.exchanges.saturating_sub(earlier.exchanges),
            msgs_matched: self.msgs_matched.saturating_sub(earlier.msgs_matched),
            recv_parks: self.recv_parks.saturating_sub(earlier.recv_parks),
            pack_spans: self.pack_spans.saturating_sub(earlier.pack_spans),
            pack_bytes: self.pack_bytes.saturating_sub(earlier.pack_bytes),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
            plan_cache_hits: self.plan_cache_hits.saturating_sub(earlier.plan_cache_hits),
            plan_cache_misses: self
                .plan_cache_misses
                .saturating_sub(earlier.plan_cache_misses),
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
            retransmits: self.retransmits.saturating_sub(earlier.retransmits),
            dup_drops: self.dup_drops.saturating_sub(earlier.dup_drops),
        }
    }

    /// The counters as `(name, value)` pairs in a stable order (drives
    /// the per-tenant families of the OpenMetrics exposition).
    pub fn fields(&self) -> [(&'static str, u64); 16] {
        [
            ("rounds_started", self.rounds_started),
            ("rounds_completed", self.rounds_completed),
            ("wire_bytes_sent", self.wire_bytes_sent),
            ("wire_bytes_recv", self.wire_bytes_recv),
            ("exchanges", self.exchanges),
            ("msgs_matched", self.msgs_matched),
            ("recv_parks", self.recv_parks),
            ("pack_spans", self.pack_spans),
            ("pack_bytes", self.pack_bytes),
            ("pool_hits", self.pool_hits),
            ("pool_misses", self.pool_misses),
            ("plan_cache_hits", self.plan_cache_hits),
            ("plan_cache_misses", self.plan_cache_misses),
            ("faults_injected", self.faults_injected),
            ("retransmits", self.retransmits),
            ("dup_drops", self.dup_drops),
        ]
    }
}

impl std::ops::AddAssign for MetricsSnapshot {
    /// Field-wise accumulation — folding per-job [`MetricsDelta`]s into a
    /// per-tenant running total (saturating, like [`MetricsSnapshot::since`]).
    fn add_assign(&mut self, rhs: MetricsSnapshot) {
        self.rounds_started = self.rounds_started.saturating_add(rhs.rounds_started);
        self.rounds_completed = self.rounds_completed.saturating_add(rhs.rounds_completed);
        self.wire_bytes_sent = self.wire_bytes_sent.saturating_add(rhs.wire_bytes_sent);
        self.wire_bytes_recv = self.wire_bytes_recv.saturating_add(rhs.wire_bytes_recv);
        self.exchanges = self.exchanges.saturating_add(rhs.exchanges);
        self.msgs_matched = self.msgs_matched.saturating_add(rhs.msgs_matched);
        self.recv_parks = self.recv_parks.saturating_add(rhs.recv_parks);
        self.pack_spans = self.pack_spans.saturating_add(rhs.pack_spans);
        self.pack_bytes = self.pack_bytes.saturating_add(rhs.pack_bytes);
        self.pool_hits = self.pool_hits.saturating_add(rhs.pool_hits);
        self.pool_misses = self.pool_misses.saturating_add(rhs.pool_misses);
        self.plan_cache_hits = self.plan_cache_hits.saturating_add(rhs.plan_cache_hits);
        self.plan_cache_misses = self.plan_cache_misses.saturating_add(rhs.plan_cache_misses);
        self.faults_injected = self.faults_injected.saturating_add(rhs.faults_injected);
        self.retransmits = self.retransmits.saturating_add(rhs.retransmits);
        self.dup_drops = self.dup_drops.saturating_add(rhs.dup_drops);
    }
}

impl std::ops::Sub for MetricsSnapshot {
    type Output = MetricsDelta;

    /// `later - earlier`: the counter traffic between two snapshots.
    /// Saturating per field, so a reset in between yields zeros instead
    /// of wrapping.
    fn sub(self, earlier: MetricsSnapshot) -> MetricsDelta {
        MetricsDelta(self.since(&earlier))
    }
}

/// The field-wise difference of two [`MetricsSnapshot`]s — counter
/// traffic scoped to a region of interest. Produced by
/// `later_snapshot - earlier_snapshot` or
/// [`MetricsRegistry::delta_since`]; derefs to [`MetricsSnapshot`], so
/// fields and `fields()` are available on the delta.
///
/// Tests should assert on deltas instead of absolute counter values:
/// absolute values are brittle (any setup traffic before the section
/// under test shifts them), a delta pins exactly the section's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsDelta(pub MetricsSnapshot);

impl std::ops::Deref for MetricsDelta {
    type Target = MetricsSnapshot;

    fn deref(&self) -> &MetricsSnapshot {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = MetricsRegistry::new();
        m.round_started();
        m.round_completed();
        m.add_wire_sent(100);
        m.exchange_started();
        m.message_matched(40);
        m.recv_parked(2);
        m.pack(3, 24);
        m.pool_hit();
        m.pool_miss();
        m.plan_cache_hit();
        m.plan_cache_miss();
        let s = m.snapshot();
        assert_eq!(s.rounds_started, 1);
        assert_eq!(s.rounds_completed, 1);
        assert_eq!(s.wire_bytes_sent, 100);
        assert_eq!(s.wire_bytes_recv, 40);
        assert_eq!(s.msgs_matched, 1);
        assert_eq!(s.recv_parks, 2);
        assert_eq!(s.pack_spans, 3);
        assert_eq!(s.pack_bytes, 24);
        assert_eq!(s.pool_hits, 1);
        assert_eq!(s.plan_cache_misses, 1);
    }

    #[test]
    fn since_scopes_counters() {
        let m = MetricsRegistry::new();
        m.round_completed();
        let s0 = m.snapshot();
        m.round_completed();
        m.round_completed();
        let d = m.snapshot().since(&s0);
        assert_eq!(d.rounds_completed, 2);
        assert_eq!(d.rounds_started, 0);
    }

    #[test]
    fn subtraction_yields_delta() {
        let m = MetricsRegistry::new();
        m.add_wire_sent(100);
        let s0 = m.snapshot();
        m.add_wire_sent(23);
        m.pool_hit();
        let d = m.snapshot() - s0;
        assert_eq!(d.wire_bytes_sent, 23);
        assert_eq!(d.pool_hits, 1);
        assert_eq!(d.rounds_started, 0);
        assert_eq!(m.delta_since(&s0), d);
        // Saturating: subtracting a later snapshot clamps at zero.
        let earlier = MetricsSnapshot::default() - m.snapshot();
        assert_eq!(earlier.wire_bytes_sent, 0);
    }

    #[test]
    fn reset_zeroes_counters() {
        let m = MetricsRegistry::new();
        m.message_matched(64);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn distributions_record_in_log_domain() {
        let m = MetricsRegistry::new();
        m.record_round_ns(1_000); // log10 = 3
        let lat = m.latency_histogram();
        assert_eq!(lat.total(), 1);
        assert!((lat.sample_mean() - 3.0).abs() < 1e-9);
    }
}
