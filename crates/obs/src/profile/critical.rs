//! Critical-path extraction, per-phase skew, and straggler ranking.

use super::collect::{MsgNode, RoundDag};

/// Per-phase completion spread: when each rank last finished a round of
/// the phase, reduced to the earliest and latest finisher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSkew {
    /// Schedule phase (dimension `k`).
    pub phase: usize,
    /// Earliest per-rank last arrival in this phase, ns.
    pub first_done_ns: u64,
    /// Latest per-rank last arrival in this phase, ns.
    pub last_done_ns: u64,
}

impl PhaseSkew {
    /// The spread `last − first`, ns: how long the fastest rank idles
    /// before the slowest rank clears the phase.
    pub fn skew_ns(&self) -> u64 {
        self.last_done_ns.saturating_sub(self.first_done_ns)
    }
}

/// One rank's last observed activity, for straggler ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankActivity {
    /// The rank.
    pub rank: usize,
    /// Timestamp of its last departure or arrival, ns.
    pub last_ns: u64,
}

/// The chain of wire messages bounding a run's makespan, with the skew
/// and straggler diagnostics that explain *why* it is the bound.
///
/// The walk is timestamp-driven rather than model-driven, so it works
/// identically on timelines stamped at exact model times and on threaded
/// traces (the process's monotonic origin): starting from the globally last
/// arrival, each step moves to the latest-finishing constraint of the
/// current node's sender — either the wire that arrived *into* the sender
/// before it departed (a cross-rank dependency) or the sender's previous
/// departure (send-port serialization).
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The chain, in chronological order. Each element is a [`MsgNode`]
    /// copied out of the DAG.
    pub steps: Vec<MsgNode>,
    /// Observed makespan of the whole DAG, ns.
    pub makespan_ns: u64,
    /// Per-phase completion spread, one entry per phase in phase order.
    pub skew: Vec<PhaseSkew>,
    /// Ranks ordered by last activity, latest (the stragglers) first.
    pub stragglers: Vec<RankActivity>,
}

impl CriticalPath {
    /// Extract the critical path of `dag`. Empty DAGs yield an empty
    /// path with zero makespan.
    pub fn of(dag: &RoundDag) -> CriticalPath {
        let nodes = dag.nodes();
        let mut steps: Vec<MsgNode> = Vec::new();

        // Seed: the globally last arrival (ties: lowest id, so the result
        // is deterministic).
        let mut cur = nodes
            .iter()
            .filter(|n| n.arrive_ns > 0)
            .max_by(|a, b| a.arrive_ns.cmp(&b.arrive_ns).then(b.id.cmp(&a.id)));

        let mut visited = vec![false; nodes.len()];
        while let Some(n) = cur {
            if visited[n.id] {
                break; // equal-timestamp cycle guard
            }
            visited[n.id] = true;
            steps.push(*n);

            // What kept `n.src` busy until `n.depart_ns`? The latest
            // constraint wins; a wire arrival beats a same-time local
            // departure (the cross-rank edge is the interesting one).
            let mut best: Option<(&MsgNode, u64, bool)> = None;
            for c in nodes {
                let (t, is_wire) =
                    if c.dst == n.src && c.arrive_ns > 0 && c.arrive_ns <= n.depart_ns {
                        (c.arrive_ns, true)
                    } else if c.src == n.src && c.depart_ns < n.depart_ns {
                        (c.depart_ns, false)
                    } else {
                        continue;
                    };
                if visited[c.id] {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((b, bt, bw)) => {
                        (t, is_wire, std::cmp::Reverse(c.id)) > (bt, bw, std::cmp::Reverse(b.id))
                    }
                };
                if better {
                    best = Some((c, t, is_wire));
                }
            }
            cur = best.map(|(c, _, _)| c);
        }
        steps.reverse();

        CriticalPath {
            steps,
            makespan_ns: dag.makespan_ns(),
            skew: phase_skew(dag),
            stragglers: stragglers(dag),
        }
    }

    /// The ranks the path passes through, in chronological order
    /// (`src` of the first step, then each step's `dst`).
    pub fn rank_chain(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.steps.len() + 1);
        if let Some(first) = self.steps.first() {
            out.push(first.src);
        }
        out.extend(self.steps.iter().map(|s| s.dst));
        out
    }

    /// Sum of the path's wire latencies, ns — the lower bound the chain
    /// itself imposes on the makespan.
    pub fn path_latency_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.latency_ns()).sum()
    }
}

fn phase_skew(dag: &RoundDag) -> Vec<PhaseSkew> {
    let phases = dag.phases();
    let ranks = dag.ranks();
    let mut out = Vec::with_capacity(phases);
    for phase in 0..phases {
        // Per-rank last arrival within the phase.
        let mut last = vec![0u64; ranks];
        for n in dag.nodes() {
            if n.phase == phase && n.arrive_ns > 0 {
                last[n.dst] = last[n.dst].max(n.arrive_ns);
            }
        }
        let done: Vec<u64> = last.into_iter().filter(|&t| t > 0).collect();
        let (first, lastt) = match (done.iter().min(), done.iter().max()) {
            (Some(&a), Some(&b)) => (a, b),
            _ => (0, 0),
        };
        out.push(PhaseSkew {
            phase,
            first_done_ns: first,
            last_done_ns: lastt,
        });
    }
    out
}

fn stragglers(dag: &RoundDag) -> Vec<RankActivity> {
    let mut last = vec![0u64; dag.ranks()];
    for n in dag.nodes() {
        last[n.src] = last[n.src].max(n.depart_ns);
        if n.arrive_ns > 0 {
            last[n.dst] = last[n.dst].max(n.arrive_ns);
        }
    }
    let mut out: Vec<RankActivity> = last
        .into_iter()
        .enumerate()
        .map(|(rank, last_ns)| RankActivity { rank, last_ns })
        .collect();
    // Latest activity first; ties broken by rank for determinism.
    out.sort_by(|a, b| b.last_ns.cmp(&a.last_ns).then(a.rank.cmp(&b.rank)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, TraceRecord};
    use crate::profile::TraceCollector;

    fn wire(
        phase: usize,
        round: usize,
        src: usize,
        dst: usize,
        depart: u64,
        arrive: u64,
        bytes: usize,
    ) -> [TraceRecord; 2] {
        [
            TraceRecord {
                t_ns: depart,
                rank: src,
                event: TraceEvent::RoundStart {
                    phase,
                    round,
                    to: dst,
                    from: usize::MAX,
                    wire_bytes: bytes,
                    attempt: 0,
                },
            },
            TraceRecord {
                t_ns: arrive,
                rank: dst,
                event: TraceEvent::RoundEnd {
                    phase,
                    round,
                    to: dst,
                    from: src,
                    wire_bytes: bytes,
                    attempt: 0,
                },
            },
        ]
    }

    fn dag_of(wires: &[[TraceRecord; 2]]) -> RoundDag {
        let mut c = TraceCollector::new();
        for [s, e] in wires {
            c.add_rank(s.rank, vec![*s]);
            c.add_rank(e.rank, vec![*e]);
        }
        c.build()
    }

    #[test]
    fn chain_of_dependent_wires_is_the_path() {
        // 0 →(0..10) 1 →(10..25) 2 →(25..45) 3, plus an early unrelated
        // wire 3 → 0 that finishes long before the chain.
        let dag = dag_of(&[
            wire(0, 0, 0, 1, 0, 10, 100),
            wire(1, 1, 1, 2, 10, 25, 100),
            wire(2, 2, 2, 3, 25, 45, 100),
            wire(0, 3, 3, 0, 0, 5, 100),
        ]);
        let cp = CriticalPath::of(&dag);
        assert_eq!(cp.makespan_ns, 45);
        assert_eq!(cp.rank_chain(), vec![0, 1, 2, 3]);
        assert_eq!(cp.steps.len(), 3);
        assert_eq!(cp.path_latency_ns(), 10 + 15 + 20);
    }

    #[test]
    fn send_port_serialization_joins_the_path() {
        // Rank 0 sends twice back-to-back; the second send's constraint
        // is the first departure (no wire ever arrives into rank 0).
        let dag = dag_of(&[wire(0, 0, 0, 1, 0, 10, 64), wire(0, 1, 0, 2, 10, 30, 64)]);
        let cp = CriticalPath::of(&dag);
        assert_eq!(cp.makespan_ns, 30);
        assert_eq!(cp.steps.len(), 2);
        assert_eq!(cp.rank_chain(), vec![0, 1, 2]);
    }

    #[test]
    fn skew_and_stragglers_are_ranked() {
        // Phase 0: rank 1 done at 10, rank 2 done at 40 → skew 30.
        let dag = dag_of(&[wire(0, 0, 0, 1, 0, 10, 8), wire(0, 1, 0, 2, 0, 40, 8)]);
        let cp = CriticalPath::of(&dag);
        assert_eq!(cp.skew.len(), 1);
        assert_eq!(cp.skew[0].skew_ns(), 30);
        assert_eq!(cp.skew[0].first_done_ns, 10);
        assert_eq!(cp.skew[0].last_done_ns, 40);
        // Straggler order: rank 2 (t=40), then 1 (t=10), then 0 (t=0).
        let order: Vec<usize> = cp.stragglers.iter().map(|s| s.rank).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn empty_dag_yields_empty_path() {
        let dag = TraceCollector::new().build();
        let cp = CriticalPath::of(&dag);
        assert!(cp.steps.is_empty());
        assert_eq!(cp.makespan_ns, 0);
        assert!(cp.skew.is_empty());
        assert!(cp.stragglers.is_empty());
    }
}
