//! A small discrete-event simulator with per-rank full-duplex single
//! ports.
//!
//! The closed-form model in [`crate::model`] assumes perfectly symmetric,
//! bulk-synchronous rounds. This engine relaxes that: arbitrary message
//! sets per phase, per-rank port serialization, and per-rank (not global)
//! phase synchronization. For isomorphic schedules it reproduces the
//! closed form exactly (validated in tests); for asymmetric traffic it
//! exposes the contention the formula hides — e.g. an incast onto one rank.

use cartcomm_obs::TraceEvent;

use crate::model::LinearModel;
use crate::trace::SimTracer;

/// One message: source, destination, payload bytes.
pub type Msg = (usize, usize, usize);

/// Discrete-event network state for `p` ranks.
#[derive(Debug, Clone)]
pub struct EventSim {
    model: LinearModel,
    /// Time each rank's send port frees up.
    send_free: Vec<f64>,
    /// Time each rank's receive port frees up.
    recv_free: Vec<f64>,
    /// Per-rank local clock (end of the rank's last completed phase).
    rank_time: Vec<f64>,
}

impl EventSim {
    /// Fresh simulation of `p` ranks at time zero.
    pub fn new(p: usize, model: LinearModel) -> Self {
        EventSim {
            model,
            send_free: vec![0.0; p],
            recv_free: vec![0.0; p],
            rank_time: vec![0.0; p],
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.rank_time.len()
    }

    /// Execute one phase: all `msgs` are posted at their endpoints'
    /// current local times; a rank's sends serialize on its send port and
    /// its receives on its receive port (full duplex: a send and a receive
    /// may overlap). At the end of the phase, every rank that participated
    /// advances its local clock to the completion of its last message —
    /// ranks not involved do not wait (no global barrier).
    pub fn phase(&mut self, msgs: &[Msg]) {
        let mut new_time = self.rank_time.clone();
        for &(src, dst, bytes) in msgs {
            self.post(&mut new_time, src, dst, bytes);
        }
        self.rank_time = new_time;
    }

    /// Schedule one message on the port timelines; returns its model
    /// `(start, end)` times in seconds.
    fn post(&mut self, new_time: &mut [f64], src: usize, dst: usize, bytes: usize) -> (f64, f64) {
        let start = self.send_free[src]
            .max(self.recv_free[dst])
            .max(self.rank_time[src])
            .max(self.rank_time[dst]);
        let end = start + self.model.message(bytes);
        self.send_free[src] = end;
        self.recv_free[dst] = end;
        new_time[src] = new_time[src].max(end);
        new_time[dst] = new_time[dst].max(end);
        (start, end)
    }

    /// Execute one phase exactly like [`EventSim::phase`] while emitting a
    /// [`TraceEvent::RoundStart`]/[`TraceEvent::RoundEnd`] pair per message
    /// through `tracer`, timestamped with the message's *model* start and
    /// completion times (the tracer's [`cartcomm_obs::ManualClock`] is
    /// advanced to each event's time before it is emitted). `phase_idx`
    /// labels the events — for Cartesian schedules, the dimension `k`.
    pub fn phase_traced(&mut self, phase_idx: usize, msgs: &[Msg], tracer: &SimTracer) {
        let mut new_time = self.rank_time.clone();
        for (round, &(src, dst, bytes)) in msgs.iter().enumerate() {
            let (start, end) = self.post(&mut new_time, src, dst, bytes);
            tracer.set_time_secs(start);
            tracer.obs().emit(
                src,
                TraceEvent::RoundStart {
                    phase: phase_idx,
                    round,
                    to: dst,
                    from: src,
                    wire_bytes: bytes,
                    attempt: 0,
                },
            );
            tracer.set_time_secs(end);
            tracer.obs().emit(
                dst,
                TraceEvent::RoundEnd {
                    phase: phase_idx,
                    round,
                    to: dst,
                    from: src,
                    wire_bytes: bytes,
                    attempt: 0,
                },
            );
        }
        self.rank_time = new_time;
    }

    /// Execute a phase and additionally force all ranks to synchronize at
    /// its end (bulk-synchronous round) — the regime of the closed-form
    /// model.
    pub fn phase_synchronized(&mut self, msgs: &[Msg]) {
        self.phase(msgs);
        let t = self.makespan();
        for v in &mut self.rank_time {
            *v = t;
        }
        for v in &mut self.send_free {
            *v = (*v).max(t);
        }
        for v in &mut self.recv_free {
            *v = (*v).max(t);
        }
    }

    /// Current makespan: the latest local clock.
    pub fn makespan(&self) -> f64 {
        self.rank_time.iter().copied().fold(0.0, f64::max)
    }

    /// Convenience: simulate a symmetric schedule in which, per round,
    /// every rank `r` sends `bytes` to `(r + shift) mod p` — the traffic a
    /// Cartesian collective round induces. Returns the makespan.
    pub fn run_symmetric_rounds(p: usize, model: LinearModel, rounds: &[(usize, usize)]) -> f64 {
        let mut sim = EventSim::new(p, model);
        for &(shift, bytes) in rounds {
            let msgs: Vec<Msg> = (0..p).map(|r| (r, (r + shift) % p, bytes)).collect();
            sim.phase_synchronized(&msgs);
        }
        sim.makespan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: LinearModel = LinearModel {
        alpha: 1e-6,
        beta: 1e-9,
    };

    #[test]
    fn single_message_costs_alpha_beta() {
        let mut sim = EventSim::new(2, M);
        sim.phase(&[(0, 1, 1000)]);
        assert!((sim.makespan() - 2e-6).abs() < 1e-15);
        assert_eq!(sim.size(), 2);
    }

    #[test]
    fn symmetric_ring_round_is_one_message_time() {
        // Every rank sends and receives one message concurrently (full
        // duplex): the round costs α + βb regardless of p.
        let t = EventSim::run_symmetric_rounds(16, M, &[(1, 500)]);
        assert!((t - (1e-6 + 500e-9)).abs() < 1e-15);
    }

    #[test]
    fn symmetric_rounds_match_linear_schedule() {
        // The DES reproduces Σ(α+βb) for isomorphic schedules.
        let rounds = [(1usize, 100usize), (3, 40), (2, 0), (5, 4000)];
        let des = EventSim::run_symmetric_rounds(12, M, &rounds);
        let bytes: Vec<usize> = rounds.iter().map(|&(_, b)| b).collect();
        let formula = M.schedule(&bytes);
        assert!(
            (des - formula).abs() < 1e-12,
            "DES {des} vs formula {formula}"
        );
    }

    #[test]
    fn sends_from_one_rank_serialize() {
        let mut sim = EventSim::new(4, M);
        sim.phase(&[(0, 1, 0), (0, 2, 0), (0, 3, 0)]);
        // three α-cost messages share rank 0's send port
        assert!((sim.makespan() - 3e-6).abs() < 1e-15);
    }

    #[test]
    fn incast_serializes_on_receive_port() {
        let mut sim = EventSim::new(4, M);
        sim.phase(&[(1, 0, 0), (2, 0, 0), (3, 0, 0)]);
        assert!((sim.makespan() - 3e-6).abs() < 1e-15);
    }

    #[test]
    fn full_duplex_overlaps_send_and_recv() {
        let mut sim = EventSim::new(2, M);
        // 0 -> 1 and 1 -> 0 in one phase: overlap, one message time.
        sim.phase(&[(0, 1, 100), (1, 0, 100)]);
        assert!((sim.makespan() - M.message(100)).abs() < 1e-15);
    }

    #[test]
    fn uninvolved_ranks_do_not_wait_without_barrier() {
        let mut sim = EventSim::new(4, M);
        sim.phase(&[(0, 1, 1_000_000)]);
        // ranks 2, 3 still at time zero
        assert_eq!(sim.rank_time[2], 0.0);
        assert_eq!(sim.rank_time[3], 0.0);
        assert!(sim.rank_time[1] > 0.0);
    }

    #[test]
    fn direct_delivery_matches_trivial_formula() {
        // t messages of m bytes per rank, all posted in one phase, on a
        // ring of distinct shifts: serializes to t rounds on each port.
        let p = 8;
        let t = 5;
        let m = 64;
        let mut sim = EventSim::new(p, M);
        let mut msgs = Vec::new();
        for shift in 1..=t {
            for r in 0..p {
                msgs.push((r, (r + shift) % p, m));
            }
        }
        sim.phase(&msgs);
        let expect = M.schedule(&vec![m; t]);
        assert!(
            (sim.makespan() - expect).abs() < 1e-12,
            "DES {} vs t rounds {}",
            sim.makespan(),
            expect
        );
    }

    #[test]
    fn phase_order_dependency_chains() {
        let mut sim = EventSim::new(3, M);
        sim.phase_synchronized(&[(0, 1, 0)]);
        sim.phase_synchronized(&[(1, 2, 0)]);
        assert!((sim.makespan() - 2e-6).abs() < 1e-15);
    }

    #[test]
    fn traced_phase_stamps_model_time() {
        use cartcomm_obs::TraceEvent;

        let tracer = SimTracer::new(64);
        let mut sim = EventSim::new(2, M);
        sim.phase_traced(0, &[(0, 1, 1000)], &tracer);

        let recs = tracer.records();
        assert_eq!(recs.len(), 2);
        // RoundStart at t=0 on the sender.
        assert_eq!(recs[0].t_ns, 0);
        assert_eq!(recs[0].rank, 0);
        assert!(matches!(
            recs[0].event,
            TraceEvent::RoundStart {
                to: 1,
                wire_bytes: 1000,
                ..
            }
        ));
        // RoundEnd at the model completion time α + β·1000 = 2 µs on the
        // receiver.
        let end_ns = (M.message(1000) * 1e9).round() as u64;
        assert_eq!(recs[1].t_ns, end_ns);
        assert_eq!(recs[1].rank, 1);
        assert!(matches!(
            recs[1].event,
            TraceEvent::RoundEnd { from: 0, .. }
        ));
    }

    #[test]
    fn traced_phase_matches_untraced_makespan() {
        let rounds: Vec<Msg> = (0..8).map(|r| (r, (r + 1) % 8, 256)).collect();
        let mut plain = EventSim::new(8, M);
        plain.phase(&rounds);

        let tracer = SimTracer::new(256);
        let mut traced = EventSim::new(8, M);
        traced.phase_traced(0, &rounds, &tracer);

        assert_eq!(plain.makespan(), traced.makespan());
        // One start + one end per message, and the latest RoundEnd
        // timestamp equals the makespan in nanoseconds.
        let recs = tracer.records();
        assert_eq!(recs.len(), 2 * rounds.len());
        let last_end = recs.iter().map(|r| r.t_ns).max().unwrap();
        assert_eq!(last_end, (traced.makespan() * 1e9) as u64);
    }

    #[test]
    fn serialized_sends_trace_distinct_times() {
        use cartcomm_obs::TraceEvent;

        let tracer = SimTracer::new(64);
        let mut sim = EventSim::new(4, M);
        // Three α-cost messages share rank 0's send port: completions at
        // α, 2α, 3α.
        sim.phase_traced(2, &[(0, 1, 0), (0, 2, 0), (0, 3, 0)], &tracer);
        let ends: Vec<u64> = tracer
            .records()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RoundEnd { .. }))
            .map(|r| r.t_ns)
            .collect();
        assert_eq!(ends, vec![1_000, 2_000, 3_000]);
    }
}
