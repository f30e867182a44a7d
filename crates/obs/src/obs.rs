//! The per-rank observability handle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::RwLock;

use crate::event::{TraceEvent, TraceRecord};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::sink::RingBufferSink;

/// The process's one time origin, fixed by the first read.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's time origin: the timestamp of every
/// trace record, so the records of every [`Obs`] handle in a process
/// compare without a clock being handed around.
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One rank's observability state: a metrics registry (always on) and an
/// optional trace sink.
///
/// Shared behind an `Arc` by all communicator handles of a rank
/// (duplicated contexts observe into the same registry/sink). Tracing is
/// disabled until [`Obs::attach_sink`]; with tracing disabled,
/// [`Obs::emit_with`] costs one relaxed atomic load and a branch — the
/// event closure is never run, no clock is read, no lock is taken.
pub struct Obs {
    enabled: AtomicBool,
    sink: RwLock<Option<Arc<RingBufferSink>>>,
    metrics: MetricsRegistry,
}

impl Obs {
    /// A fresh handle: tracing disabled, zeroed metrics.
    pub fn new() -> Self {
        Obs {
            enabled: AtomicBool::new(false),
            sink: RwLock::new(None),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Whether tracing is enabled (a sink is attached).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Attach a trace sink and enable tracing. Replaces any prior sink.
    pub fn attach_sink(&self, sink: Arc<RingBufferSink>) {
        *self.sink.write() = Some(sink);
        self.enabled.store(true, Ordering::Release);
    }

    /// Detach the sink and disable tracing.
    pub fn detach_sink(&self) {
        self.enabled.store(false, Ordering::Release);
        *self.sink.write() = None;
    }

    /// Current time, nanoseconds since the process's origin ([`now_ns`]).
    pub fn now_ns(&self) -> u64 {
        now_ns()
    }

    /// The always-on metrics registry.
    #[inline]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Shorthand for `metrics().snapshot()`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Emit an event lazily: the closure runs only while tracing is
    /// enabled, so the disabled path never constructs the event.
    #[inline]
    pub fn emit_with(&self, rank: usize, make: impl FnOnce() -> TraceEvent) {
        if self.enabled() {
            self.deliver(rank, make());
        }
    }

    /// Emit an already-built event (tracing-gated like
    /// [`Obs::emit_with`]).
    #[inline]
    pub fn emit(&self, rank: usize, event: TraceEvent) {
        if self.enabled() {
            self.deliver(rank, event);
        }
    }

    #[cold]
    fn deliver(&self, rank: usize, event: TraceEvent) {
        let rec = TraceRecord {
            t_ns: now_ns(),
            rank,
            event,
        };
        if let Some(sink) = self.sink.read().as_ref() {
            sink.record(&rec);
        }
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .field("metrics", &self.metrics.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emits_nothing_and_skips_closure() {
        let obs = Obs::new();
        let mut ran = false;
        obs.emit_with(0, || {
            ran = true;
            TraceEvent::PoolHit { bytes: 1 }
        });
        assert!(!ran, "closure must not run while disabled");
    }

    #[test]
    fn attached_sink_receives_records() {
        let obs = Obs::new();
        let sink = Arc::new(RingBufferSink::new(16));
        obs.attach_sink(sink.clone());
        assert!(obs.enabled());
        obs.emit(3, TraceEvent::PoolMiss { bytes: 64 });
        let recs = sink.snapshot();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].rank, 3);
        assert_eq!(recs[0].event, TraceEvent::PoolMiss { bytes: 64 });

        obs.detach_sink();
        obs.emit(3, TraceEvent::PoolMiss { bytes: 64 });
        assert_eq!(sink.len(), 1, "no records after detach");
    }

    #[test]
    fn handles_made_apart_share_one_origin() {
        let a = Obs::new();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = Obs::new();
        let first = a.now_ns();
        let second = b.now_ns();
        assert!(second >= first, "b reads {second} ns, behind a's {first}");
    }
}
