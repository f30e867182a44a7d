//! Chrome trace-event JSON export of the round DAG.
//!
//! The output loads in `ui.perfetto.dev` (or `chrome://tracing`): one
//! thread track per rank, an `X` complete-event slice per wire message on
//! the sender's track, `s`/`f` flow arrows connecting each slice to its
//! arrival on the receiver's track, and cumulative `C` counter tracks for
//! pool and plan-cache traffic. Event ordering is fully deterministic
//! (metadata in rank order, slices in DAG node order, counters in record
//! order per rank), so the export is golden-testable.

use crate::event::{TraceEvent, TraceRecord};
use crate::json::JsonWriter;

use super::collect::RoundDag;

/// Writer of Chrome trace-event JSON for a [`RoundDag`].
pub struct PerfettoExport<'a> {
    dag: &'a RoundDag,
    records: Option<&'a [Vec<TraceRecord>]>,
    process: &'a str,
}

/// Trace-event timestamps are microseconds; render ns losslessly as a
/// fixed-point decimal so output is deterministic (no float formatting).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

impl<'a> PerfettoExport<'a> {
    /// An export of `dag` with no counter tracks.
    pub fn new(dag: &'a RoundDag) -> Self {
        PerfettoExport {
            dag,
            records: None,
            process: "cartcomm",
        }
    }

    /// Also render cumulative pool / plan-cache counter tracks from the
    /// raw per-rank record streams (index = rank), e.g.
    /// [`super::TraceCollector::records`].
    pub fn with_counters(mut self, records: &'a [Vec<TraceRecord>]) -> Self {
        self.records = Some(records);
        self
    }

    /// Process name shown in the UI (default `"cartcomm"`).
    pub fn with_process_name(mut self, name: &'a str) -> Self {
        self.process = name;
        self
    }

    /// Render the trace as a JSON object (`traceEvents` array plus
    /// `displayTimeUnit`), one event per line.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj().key("displayTimeUnit").str("ns");
        w.key("traceEvents").rows();

        // Metadata: process name, then one thread per rank in rank order.
        w.obj().key("name").str("process_name").key("ph").str("M");
        w.key("pid").raw(1).key("args").obj();
        w.key("name").str(self.process).end().end();
        let ranks = self.dag.ranks().max(self.records.map_or(0, |r| r.len()));
        for rank in 0..ranks {
            w.obj().key("name").str("thread_name").key("ph").str("M");
            w.key("pid").raw(1).key("tid").raw(rank).key("args").obj();
            w.key("name").str(&format!("rank {rank}")).end().end();
        }

        // One slice per wire on the sender's track, plus the flow arrow
        // to the receiver, in deterministic DAG node order.
        for n in self.dag.nodes() {
            // The arrow is spelled as an escape: trace files stay ASCII.
            let name = format_args!("\"p{} r{} \\u2192 {}\"", n.phase, n.round, n.dst);
            w.obj().key("name").raw(name).key("cat").str("round");
            w.key("ph").str("X").key("ts").raw(us(n.depart_ns));
            w.key("dur").raw(us(n.latency_ns())).key("pid").raw(1);
            w.key("tid").raw(n.src).key("args").obj();
            w.key("phase").raw(n.phase).key("round").raw(n.round);
            w.key("to").raw(n.dst).key("wire_bytes").raw(n.wire_bytes);
            w.end().end();
            if n.arrive_ns > 0 {
                for (ph, t_ns, tid) in [("s", n.depart_ns, n.src), ("f", n.arrive_ns, n.dst)] {
                    w.obj().key("name").str("wire").key("cat").str("wire");
                    w.key("ph").str(ph);
                    if ph == "f" {
                        w.key("bp").str("e");
                    }
                    w.key("id").raw(n.id).key("ts").raw(us(t_ns));
                    w.key("pid").raw(1).key("tid").raw(tid).end();
                }
            }
        }

        // Cumulative counter tracks, one pool and one plan-cache series
        // per rank that has such traffic.
        for (rank, recs) in self.records.unwrap_or_default().iter().enumerate() {
            let (mut ph, mut pm, mut ch, mut cm) = (0u64, 0u64, 0u64, 0u64);
            for rec in recs {
                match rec.event {
                    TraceEvent::PoolHit { .. } => ph += 1,
                    TraceEvent::PoolMiss { .. } => pm += 1,
                    TraceEvent::PlanCacheHit { .. } => ch += 1,
                    TraceEvent::PlanCacheMiss { .. } => cm += 1,
                    _ => continue,
                }
                let (track, hits, misses) = match rec.event {
                    TraceEvent::PoolHit { .. } | TraceEvent::PoolMiss { .. } => ("pool", ph, pm),
                    _ => ("plan_cache", ch, cm),
                };
                w.obj().key("name").str(&format!("rank{rank}/{track}"));
                w.key("ph").str("C").key("ts").raw(us(rec.t_ns));
                w.key("pid").raw(1).key("args").obj();
                w.key("hits").raw(hits).key("misses").raw(misses);
                w.end().end();
            }
        }

        w.end().end();
        w.finish() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TraceCollector;

    fn sample_records() -> Vec<Vec<TraceRecord>> {
        vec![
            vec![
                TraceRecord {
                    t_ns: 1_000,
                    rank: 0,
                    event: TraceEvent::RoundStart {
                        phase: 0,
                        round: 0,
                        to: 1,
                        from: 1,
                        wire_bytes: 256,
                        attempt: 0,
                    },
                },
                TraceRecord {
                    t_ns: 1_100,
                    rank: 0,
                    event: TraceEvent::PoolHit { bytes: 256 },
                },
            ],
            vec![TraceRecord {
                t_ns: 3_500,
                rank: 1,
                event: TraceEvent::RoundEnd {
                    phase: 0,
                    round: 0,
                    to: 1,
                    from: 0,
                    wire_bytes: 256,
                    attempt: 0,
                },
            }],
        ]
    }

    #[test]
    fn export_contains_tracks_slices_flows_and_counters() {
        let records = sample_records();
        let dag = TraceCollector::from_ranks(records.clone()).build();
        let json = PerfettoExport::new(&dag).with_counters(&records).to_json();

        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"));
        assert!(json.ends_with("\n]}\n"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"rank 1\""));
        // The slice: departs at 1 µs, lasts 2.5 µs, on rank 0's track.
        assert!(json.contains("\"ph\":\"X\",\"ts\":1.000,\"dur\":2.500,\"pid\":1,\"tid\":0"));
        // Flow start and end share the node id.
        assert!(json.contains("\"ph\":\"s\",\"id\":0"));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":0"));
        // Pool counter at 1.1 µs with one cumulative hit.
        assert!(json.contains("\"name\":\"rank0/pool\",\"ph\":\"C\",\"ts\":1.100"));
        assert!(json.contains("{\"hits\":1,\"misses\":0}"));
    }

    #[test]
    fn export_is_deterministic() {
        let records = sample_records();
        let dag = TraceCollector::from_ranks(records.clone()).build();
        let a = PerfettoExport::new(&dag).with_counters(&records).to_json();
        let b = PerfettoExport::new(&dag).with_counters(&records).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn timestamps_render_as_fixed_point_microseconds() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1), "0.001");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(1_234_567), "1234.567");
    }
}
