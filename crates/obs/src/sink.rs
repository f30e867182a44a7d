//! The trace sink: where emitted events go.
//!
//! A [`RingBufferSink`] receives every [`TraceRecord`] a communicator
//! emits while tracing is enabled, and keeps the most recent records in a
//! bounded ring (old records are dropped, and counted). The `cartprof` tool and the integration tests that pin
//! observed rounds/bytes against the paper's predictions read it
//! through `TraceCollector`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::event::TraceRecord;

/// A bounded in-memory ring of the most recent trace records. Cheap and
/// thread-safe: all ranks of a universe may share one sink.
pub struct RingBufferSink {
    cap: usize,
    buf: Mutex<VecDeque<TraceRecord>>,
    dropped: AtomicU64,
}

impl RingBufferSink {
    /// A ring retaining at most `cap` records (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        RingBufferSink {
            cap: cap.max(1),
            buf: Mutex::new(VecDeque::with_capacity(cap.clamp(1, 4096))),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.buf.lock().iter().copied().collect()
    }

    /// Drain the retained records, oldest first, leaving the ring empty.
    pub fn take(&self) -> Vec<TraceRecord> {
        self.buf.lock().drain(..).collect()
    }

    /// Deliver one record. Called only while tracing is enabled.
    pub fn record(&self, rec: &TraceRecord) {
        let mut buf = self.buf.lock();
        if buf.len() == self.cap {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(*rec);
    }
}

impl std::fmt::Debug for RingBufferSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingBufferSink")
            .field("cap", &self.cap)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn rec(t_ns: u64, rank: usize) -> TraceRecord {
        TraceRecord {
            t_ns,
            rank,
            event: TraceEvent::PoolHit { bytes: 64 },
        }
    }

    #[test]
    fn ring_bounds_and_drops() {
        let sink = RingBufferSink::new(3);
        for i in 0..5 {
            sink.record(&rec(i, 0));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let snap = sink.snapshot();
        assert_eq!(
            snap.iter().map(|r| r.t_ns).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest records evicted first"
        );
    }

    #[test]
    fn take_drains() {
        let sink = RingBufferSink::new(8);
        sink.record(&rec(1, 0));
        sink.record(&rec(2, 1));
        assert_eq!(sink.take().len(), 2);
        assert!(sink.is_empty());
    }
}
