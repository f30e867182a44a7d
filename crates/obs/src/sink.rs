//! Trace sinks: where emitted events go.
//!
//! A [`TraceSink`] receives every [`TraceRecord`] a communicator emits
//! while tracing is enabled. The shipped [`RingBufferSink`] keeps the
//! most recent records in a bounded ring (old records are dropped, and
//! counted) and renders snapshots as a text table or JSON — enough for
//! the `cartprof` tool and for integration tests that pin observed
//! rounds/bytes against the paper's predictions.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::event::TraceRecord;
use crate::json::JsonWriter;

/// A destination for trace records. Implementations must be cheap and
/// thread-safe: all ranks of a universe may share one sink.
pub trait TraceSink: Send + Sync {
    /// Deliver one record. Called only while tracing is enabled.
    fn record(&self, rec: &TraceRecord);
}

/// A bounded in-memory ring of the most recent trace records.
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

    /// Render the retained records as a JSON array (one object per
    /// record). Self-contained: no serializer dependency.
    pub fn to_json(&self) -> String {
        records_to_json(&self.snapshot())
    }

    /// Render the retained records as an aligned text table.
    pub fn to_table(&self) -> String {
        records_to_table(&self.snapshot())
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, rec: &TraceRecord) {
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

/// Render records as a JSON array of flat objects:
/// `{"t_ns":…,"rank":…,"event":"round_start","phase":…,…}`.
pub fn records_to_json(records: &[TraceRecord]) -> String {
    let mut w = JsonWriter::new();
    w.arr();
    for rec in records {
        w.obj().key("t_ns").raw(rec.t_ns).key("rank").raw(rec.rank);
        w.key("event").str(rec.event.kind());
        for (name, value) in rec.event.fields() {
            w.key(name).raw(value);
        }
        w.end();
    }
    w.end();
    w.finish()
}

/// Render records as an aligned text table, one row per record.
pub fn records_to_table(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>14}  {:>4}  {:<16}  details",
        "t_ns", "rank", "event"
    );
    for rec in records {
        let details = rec
            .event
            .fields()
            .into_iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            "{:>14}  {:>4}  {:<16}  {}",
            rec.t_ns,
            rec.rank,
            rec.event.kind(),
            details
        );
    }
    out
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

    #[test]
    fn json_is_well_formed() {
        let sink = RingBufferSink::new(8);
        sink.record(&TraceRecord {
            t_ns: 5,
            rank: 1,
            event: TraceEvent::RoundEnd {
                phase: 0,
                round: 2,
                to: 3,
                from: 4,
                wire_bytes: 128,
                attempt: 0,
            },
        });
        let json = sink.to_json();
        assert_eq!(
            json,
            "[{\"t_ns\":5,\"rank\":1,\"event\":\"round_end\",\
             \"phase\":0,\"round\":2,\"to\":3,\"from\":4,\"wire_bytes\":128,\
             \"attempt\":0}]"
        );
        let doc = crate::json::parse(&json).expect("the ring's JSON parses");
        let row = &doc.as_array().expect("an array of records")[0];
        assert_eq!(row.get("event").and_then(|v| v.as_str()), Some("round_end"));
        assert_eq!(row.get("wire_bytes").and_then(|v| v.as_f64()), Some(128.0));
    }

    #[test]
    fn table_has_one_row_per_record() {
        let sink = RingBufferSink::new(8);
        sink.record(&rec(1, 0));
        sink.record(&rec(2, 1));
        let table = sink.to_table();
        assert_eq!(table.lines().count(), 3, "header + 2 rows");
        assert!(table.contains("pool_hit"));
        assert!(table.contains("bytes=64"));
    }
}
