//! Pairing per-rank event streams into the global round DAG.

use std::collections::HashMap;

use crate::event::{TraceEvent, TraceRecord};

/// One directed wire message of the global round DAG: rank `src` packed
/// and sent `wire_bytes` to rank `dst` in round `round` of phase `phase`.
///
/// `depart_ns` is the sender's `RoundStart` timestamp (wire packed, send
/// issued), `arrive_ns` the receiver's `RoundEnd` timestamp (message
/// matched and scattered). Both are meaningful as a latency only when all
/// ranks share one clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgNode {
    /// Dense node id, stable under the DAG's deterministic ordering
    /// (phase, round, src, dst).
    pub id: usize,
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Schedule phase (dimension `k`).
    pub phase: usize,
    /// Round index within the schedule.
    pub round: usize,
    /// Packed wire-message size in bytes.
    pub wire_bytes: usize,
    /// Sender-side `RoundStart` timestamp, ns.
    pub depart_ns: u64,
    /// Receiver-side `RoundEnd` timestamp, ns. Zero until the end event
    /// is paired.
    pub arrive_ns: u64,
}

impl MsgNode {
    /// Observed wire latency `arrive − depart`, ns (saturating: an
    /// unpaired or clock-skewed node reads as zero, never wraps).
    pub fn latency_ns(&self) -> u64 {
        self.arrive_ns.saturating_sub(self.depart_ns)
    }
}

/// The global round dependency DAG of one profiled run: every directed
/// wire message as a [`MsgNode`], in deterministic (phase, round, src,
/// dst) order, plus the pairing residue.
#[derive(Debug, Clone, Default)]
pub struct RoundDag {
    nodes: Vec<MsgNode>,
    ranks: usize,
    /// `RoundStart` events with no matching `RoundEnd` (e.g. a rank that
    /// failed before the round completed).
    pub unpaired_starts: usize,
    /// `RoundEnd` events with no matching `RoundStart` (should not happen
    /// with symmetric emit sites; kept as a diagnostics counter).
    pub unpaired_ends: usize,
    /// Records the capture sinks dropped before the collector ever saw
    /// them (ring-buffer overflow, [`crate::RingBufferSink::dropped`]).
    /// A non-zero value means the DAG is an honest *truncation* of the
    /// run, not its entirety.
    pub dropped_records: u64,
}

impl RoundDag {
    /// All wire nodes in (phase, round, src, dst) order.
    pub fn nodes(&self) -> &[MsgNode] {
        &self.nodes
    }

    /// Number of ranks that emitted events (max rank + 1).
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Number of schedule phases seen (max phase + 1).
    pub fn phases(&self) -> usize {
        self.nodes.iter().map(|n| n.phase + 1).max().unwrap_or(0)
    }

    /// Earliest departure timestamp, ns (0 if empty).
    pub fn earliest_depart_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.depart_ns).min().unwrap_or(0)
    }

    /// Latest arrival timestamp, ns (0 if empty).
    pub fn latest_arrive_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.arrive_ns).max().unwrap_or(0)
    }

    /// Observed makespan: latest arrival − earliest departure, ns.
    pub fn makespan_ns(&self) -> u64 {
        self.latest_arrive_ns()
            .saturating_sub(self.earliest_depart_ns())
    }

    /// Rounds each rank *sent* — the per-rank observable that Prop. 3.2
    /// predicts as `C = Σ_k C_k` for combining schedules.
    pub fn sends_per_rank(&self) -> Vec<usize> {
        let mut out = vec![0; self.ranks];
        for n in &self.nodes {
            out[n.src] += 1;
        }
        out
    }

    /// Wire bytes each rank sent — Prop. 3.3's `V·m` for alltoall.
    pub fn sent_bytes_per_rank(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.ranks];
        for n in &self.nodes {
            out[n.src] += n.wire_bytes as u64;
        }
        out
    }

    /// Rounds `rank` sent in each phase — the per-phase `C_k` breakdown.
    pub fn phase_rounds(&self, rank: usize) -> Vec<usize> {
        let mut out = vec![0; self.phases()];
        for n in &self.nodes {
            if n.src == rank {
                out[n.phase] += 1;
            }
        }
        out
    }

    /// `(wire_bytes, latency_ns)` samples of every paired node — the raw
    /// material for [`crate::AlphaBetaFit`].
    pub fn latency_samples(&self) -> Vec<(u64, u64)> {
        self.nodes
            .iter()
            .filter(|n| n.arrive_ns > 0)
            .map(|n| (n.wire_bytes as u64, n.latency_ns()))
            .collect()
    }
}

/// Accumulates the drained per-rank [`TraceRecord`] streams of one run
/// and pairs them into a [`RoundDag`].
///
/// Pairing key: `(phase, round, src, dst)`, where a sender-side
/// `RoundStart` contributes `(rec.rank → event.to)` and a receiver-side
/// `RoundEnd` contributes `(event.from → rec.rank)`. Because isomorphic
/// schedules give every rank the same round sequence, the key is unique
/// per wire message within a run.
#[derive(Debug, Default)]
pub struct TraceCollector {
    per_rank: Vec<Vec<TraceRecord>>,
    dropped: u64,
}

impl TraceCollector {
    /// An empty collector.
    pub fn new() -> Self {
        TraceCollector::default()
    }

    /// A collector over already-drained per-rank record vectors (index =
    /// rank).
    pub fn from_ranks(per_rank: Vec<Vec<TraceRecord>>) -> Self {
        TraceCollector {
            per_rank,
            dropped: 0,
        }
    }

    /// Add (or extend) rank `rank`'s drained records.
    pub fn add_rank(&mut self, rank: usize, records: Vec<TraceRecord>) {
        if self.per_rank.len() <= rank {
            self.per_rank.resize_with(rank + 1, Vec::new);
        }
        self.per_rank[rank].extend(records);
    }

    /// The collected per-rank streams (index = rank), e.g. for counter
    /// tracks in [`crate::PerfettoExport`].
    pub fn records(&self) -> &[Vec<TraceRecord>] {
        &self.per_rank
    }

    /// Note `n` records lost before collection (drained from a capture
    /// sink's [`crate::RingBufferSink::dropped`] counter). Accumulates
    /// across calls and is surfaced as [`RoundDag::dropped_records`], so
    /// overflowed live captures report honest truncation.
    pub fn note_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    /// Total records noted as dropped before collection.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Pair the collected streams into the global round DAG.
    pub fn build(&self) -> RoundDag {
        // (phase, round, src, dst) → index into `nodes`.
        let mut index: HashMap<(usize, usize, usize, usize), usize> = HashMap::new();
        let mut nodes: Vec<MsgNode> = Vec::new();
        let mut unpaired_ends = 0usize;
        let mut ranks = self.per_rank.len();

        // First pass: RoundStart events mint the nodes.
        for recs in &self.per_rank {
            for rec in recs {
                if let TraceEvent::RoundStart {
                    phase,
                    round,
                    to,
                    wire_bytes,
                    ..
                } = rec.event
                {
                    let key = (phase, round, rec.rank, to);
                    let idx = *index.entry(key).or_insert_with(|| {
                        nodes.push(MsgNode {
                            id: 0, // assigned after sorting
                            src: rec.rank,
                            dst: to,
                            phase,
                            round,
                            wire_bytes,
                            depart_ns: rec.t_ns,
                            arrive_ns: 0,
                        });
                        nodes.len() - 1
                    });
                    // Duplicate starts (can't happen with the shipped
                    // executors) keep the earliest departure.
                    nodes[idx].depart_ns = nodes[idx].depart_ns.min(rec.t_ns);
                    ranks = ranks.max(rec.rank + 1).max(to + 1);
                }
            }
        }

        // Second pass: RoundEnd events complete nodes.
        for recs in &self.per_rank {
            for rec in recs {
                if let TraceEvent::RoundEnd {
                    phase, round, from, ..
                } = rec.event
                {
                    match index.get(&(phase, round, from, rec.rank)) {
                        Some(&idx) => {
                            let n = &mut nodes[idx];
                            n.arrive_ns = n.arrive_ns.max(rec.t_ns);
                        }
                        None => unpaired_ends += 1,
                    }
                }
            }
        }

        let unpaired_starts = nodes.iter().filter(|n| n.arrive_ns == 0).count();

        nodes.sort_by_key(|n| (n.phase, n.round, n.src, n.dst));
        for (id, n) in nodes.iter_mut().enumerate() {
            n.id = id;
        }

        RoundDag {
            nodes,
            ranks,
            unpaired_starts,
            unpaired_ends,
            dropped_records: self.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(
        t_ns: u64,
        rank: usize,
        phase: usize,
        round: usize,
        to: usize,
        bytes: usize,
    ) -> TraceRecord {
        TraceRecord {
            t_ns,
            rank,
            event: TraceEvent::RoundStart {
                phase,
                round,
                to,
                from: usize::MAX,
                wire_bytes: bytes,
            },
        }
    }

    fn end(
        t_ns: u64,
        rank: usize,
        phase: usize,
        round: usize,
        from: usize,
        bytes: usize,
    ) -> TraceRecord {
        TraceRecord {
            t_ns,
            rank,
            event: TraceEvent::RoundEnd {
                phase,
                round,
                to: rank,
                from,
                wire_bytes: bytes,
            },
        }
    }

    #[test]
    fn pairs_start_and_end_across_ranks() {
        // 0 → 1 in round 0, 1 → 0 in round 1 (a 2-rank exchange).
        let dag = TraceCollector::from_ranks(vec![
            vec![start(10, 0, 0, 0, 1, 64), end(95, 0, 0, 1, 1, 64)],
            vec![start(12, 1, 0, 1, 0, 64), end(80, 1, 0, 0, 0, 64)],
        ])
        .build();

        assert_eq!(dag.nodes().len(), 2);
        assert_eq!(dag.unpaired_starts, 0);
        assert_eq!(dag.unpaired_ends, 0);
        let a = dag.nodes()[0]; // round 0: 0 → 1
        assert_eq!((a.src, a.dst, a.depart_ns, a.arrive_ns), (0, 1, 10, 80));
        assert_eq!(a.latency_ns(), 70);
        let b = dag.nodes()[1]; // round 1: 1 → 0
        assert_eq!((b.src, b.dst, b.depart_ns, b.arrive_ns), (1, 0, 12, 95));
        assert_eq!(dag.makespan_ns(), 95 - 10);
        assert_eq!(dag.ranks(), 2);
        assert_eq!(dag.sends_per_rank(), vec![1, 1]);
        assert_eq!(dag.sent_bytes_per_rank(), vec![64, 64]);
        assert_eq!(dag.phase_rounds(0), vec![1]);
    }

    #[test]
    fn node_ids_are_deterministic() {
        // Same events in scrambled per-rank order yield identical DAGs.
        let r0 = vec![start(10, 0, 0, 0, 1, 8), start(20, 0, 1, 1, 1, 8)];
        let r1 = vec![end(15, 1, 0, 0, 0, 8), end(25, 1, 1, 1, 0, 8)];
        let fwd = TraceCollector::from_ranks(vec![r0.clone(), r1.clone()]).build();
        let rev = TraceCollector::from_ranks(vec![
            r0.into_iter().rev().collect(),
            r1.into_iter().rev().collect(),
        ])
        .build();
        assert_eq!(fwd.nodes(), rev.nodes());
        assert_eq!(fwd.nodes()[0].id, 0);
        assert_eq!(fwd.nodes()[1].id, 1);
        assert_eq!(fwd.phases(), 2);
    }

    #[test]
    fn unmatched_start_is_counted_not_paired() {
        let dag = TraceCollector::from_ranks(vec![vec![start(5, 0, 0, 0, 1, 32)], vec![]]).build();
        assert_eq!(dag.nodes().len(), 1);
        assert_eq!(dag.unpaired_starts, 1);
        assert_eq!(dag.nodes()[0].arrive_ns, 0);
        assert!(dag.latency_samples().is_empty());
    }

    #[test]
    fn dropped_records_flow_into_the_dag() {
        let mut c = TraceCollector::from_ranks(vec![
            vec![start(10, 0, 0, 0, 1, 64)],
            vec![end(80, 1, 0, 0, 0, 64)],
        ]);
        assert_eq!(c.dropped(), 0);
        c.note_dropped(3);
        c.note_dropped(4);
        let dag = c.build();
        assert_eq!(dag.dropped_records, 7);
        assert_eq!(dag.nodes().len(), 1, "truncation does not affect pairing");
    }

    #[test]
    fn add_rank_extends_sparse_streams() {
        let mut c = TraceCollector::new();
        c.add_rank(2, vec![start(1, 2, 0, 0, 0, 16)]);
        c.add_rank(0, vec![end(9, 0, 0, 0, 2, 16)]);
        let dag = c.build();
        assert_eq!(dag.nodes().len(), 1);
        assert_eq!(dag.ranks(), 3);
        assert_eq!(dag.nodes()[0].latency_ns(), 8);
    }
}
