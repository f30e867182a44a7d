//! Profiler pinning tests: deterministic timelines stamped at the α-β
//! model's closed-form times, where the critical path and skew are
//! *exact*, plus a threaded
//! `Universe::builder(p).profiled(c)` integration run checked against the schedule
//! analysis (Props 3.2/3.3).

use cartcomm::ops::Algo;
use cartcomm::schedule::alltoall_plan;
use cartcomm::{CartComm, CostSummary};
use cartcomm_comm::obs::{AlphaBetaFit, CriticalPath, TraceCollector, TraceEvent, TraceRecord};
use cartcomm_comm::Universe;
use cartcomm_sim::LinearModel;
use cartcomm_topo::{CartTopology, RelNeighborhood};

/// α = 1 µs, β = 1 ns/B: round numbers so every expected timestamp is an
/// exact integer of nanoseconds.
const M: LinearModel = LinearModel {
    alpha: 1e-6,
    beta: 1e-9,
};

/// Stamp one call's messages `(from, to, wire_bytes)` at the model's
/// closed-form times: each leaves its sender at `*now` (`RoundStart`) and
/// reaches its receiver `M.message(bytes)` later (`RoundEnd`); `*now` then
/// advances to the latest end. Seconds truncate to whole nanoseconds.
fn stamp(
    traces: &mut [Vec<TraceRecord>],
    now: &mut f64,
    phase: usize,
    msgs: &[(usize, usize, usize)],
) {
    let start = *now;
    for (round, &(from, to, wire_bytes)) in msgs.iter().enumerate() {
        let end = start + M.message(wire_bytes);
        let at = |secs: f64, rank, event| TraceRecord {
            t_ns: (secs * 1e9) as u64,
            rank,
            event,
        };
        traces[from].push(at(
            start,
            from,
            TraceEvent::RoundStart {
                phase,
                round,
                to,
                from,
                wire_bytes,
                attempt: 0,
            },
        ));
        traces[to].push(at(
            end,
            to,
            TraceEvent::RoundEnd {
                phase,
                round,
                to,
                from,
                wire_bytes,
                attempt: 0,
            },
        ));
        *now = now.max(end);
    }
}

/// Stamp the combining alltoall schedule of a 2-D Moore 3×3 torus at its
/// model times, one `stamp` call per schedule round (every rank sends its
/// round message), and pin the profiler's outputs exactly.
#[test]
fn des_moore_2d_critical_path_and_skew_are_exact() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let topo = CartTopology::new(&[3, 3], &[true, true]).unwrap();
    let plan = alltoall_plan(&nb);
    let m_bytes = 40usize;
    let round_bytes = plan.round_bytes(&|_| m_bytes);
    assert_eq!(plan.rounds, 4, "moore(2,1): C = d(n-1) = 4");

    let p = 9usize;
    let (mut traces, mut now) = (vec![Vec::new(); p], 0.0);
    let mut global = 0usize;
    for (k, phase) in plan.phases.iter().enumerate() {
        for round in &phase.rounds {
            let msgs: Vec<(usize, usize, usize)> = (0..p)
                .map(|rank| {
                    let dst = topo
                        .rank_of_offset(rank, &round.offset)
                        .unwrap()
                        .expect("all-periodic torus has every neighbor");
                    (rank, dst, round_bytes[global])
                })
                .collect();
            stamp(&mut traces, &mut now, k, &msgs);
            global += 1;
        }
    }

    let dag = TraceCollector::from_ranks(traces).build();

    // Prop 3.2 / 3.3 accounting, per rank, exactly.
    let cost = CostSummary::of(&nb);
    assert_eq!(dag.nodes().len(), p * cost.rounds);
    assert_eq!(dag.sends_per_rank(), vec![cost.rounds; p]);
    assert_eq!(
        dag.sent_bytes_per_rank(),
        vec![(cost.alltoall_volume * m_bytes) as u64; p]
    );
    for rank in 0..p {
        assert_eq!(dag.phase_rounds(rank), vec![2, 2], "C_k = n-1 = 2 per dim");
    }
    assert_eq!(dag.unpaired_starts, 0);
    assert_eq!(dag.unpaired_ends, 0);

    // Exact makespan: isomorphic rounds run bulk-synchronously in the
    // model, so T = Σ_r (α + β·z_r·m) = C·α + β·V·m. The one pricing
    // function accumulates through the same f64 path the timeline uses, so the
    // ns truncation agrees bit for bit (the ideal integer value is
    // 4480 ns; the float path lands within 1 ns of it).
    let t_secs = M.schedule(&round_bytes);
    let expected_ns = (t_secs * 1e9) as u64;
    let ideal_ns = (cost.rounds * 1_000 + cost.alltoall_volume * m_bytes) as u64;
    assert!(expected_ns.abs_diff(ideal_ns) <= 1);
    assert_eq!(dag.makespan_ns(), expected_ns, "C·α + β·V·m, in ns");

    let cp = CriticalPath::of(&dag);
    assert_eq!(cp.makespan_ns, expected_ns);
    // Perfect symmetry: the path is one wire per round, its latency sum
    // is the whole makespan, and no rank ever waits on another (zero
    // skew in both phases).
    assert_eq!(cp.steps.len(), cost.rounds);
    assert_eq!(cp.path_latency_ns(), expected_ns);
    let phases: Vec<usize> = cp.steps.iter().map(|s| s.phase).collect();
    assert_eq!(phases, vec![0, 0, 1, 1], "chronological phase order");
    assert_eq!(cp.skew.len(), 2);
    for s in &cp.skew {
        assert_eq!(s.skew_ns(), 0, "symmetric phases have zero skew");
    }
    // All ranks tie as "stragglers" at the common finish time.
    assert!(cp.stragglers.iter().all(|s| s.last_ns == expected_ns));

    // Every round of this schedule carries the same wire size (3 blocks),
    // so a fit over it is degenerate by definition — the fitter must say
    // so rather than fabricate coefficients.
    let fit = AlphaBetaFit::fit_size_means(&dag.latency_samples());
    assert!(
        fit.degenerate,
        "single distinct size cannot identify α and β"
    );
}

/// A hand-built asymmetric relay (0 → 1 → 2 → 0) where the critical path
/// is unambiguous: pin every node timestamp and the exact chain.
#[test]
fn des_relay_chain_pins_exact_path() {
    let (mut traces, mut now) = (vec![Vec::new(); 3], 0.0);
    stamp(&mut traces, &mut now, 0, &[(0, 1, 1000)]);
    stamp(&mut traces, &mut now, 1, &[(1, 2, 1000)]);
    stamp(&mut traces, &mut now, 2, &[(2, 0, 500)]);

    let dag = TraceCollector::from_ranks(traces).build();
    assert_eq!(dag.nodes().len(), 3);
    let times: Vec<(u64, u64)> = dag
        .nodes()
        .iter()
        .map(|n| (n.depart_ns, n.arrive_ns))
        .collect();
    assert_eq!(times, vec![(0, 2_000), (2_000, 4_000), (4_000, 5_500)]);

    let cp = CriticalPath::of(&dag);
    assert_eq!(cp.makespan_ns, 5_500);
    assert_eq!(cp.steps.len(), 3);
    assert_eq!(cp.rank_chain(), vec![0, 1, 2, 0]);
    assert_eq!(cp.path_latency_ns(), 5_500, "the chain IS the makespan");
    let skews: Vec<u64> = cp.skew.iter().map(|s| s.skew_ns()).collect();
    assert_eq!(skews, vec![0, 0, 0], "one receiver per phase");
    assert_eq!(cp.skew[2].last_done_ns, 5_500);
    // Straggler order: rank 0 finishes last (5.5 µs), then 2, then 1.
    let order: Vec<usize> = cp.stragglers.iter().map(|s| s.rank).collect();
    assert_eq!(order, vec![0, 2, 1]);

    // Two distinct wire sizes identify the model exactly: the
    // timeline is perfectly linear, so the fit recovers α = 1 µs and
    // β = 1 ns/B to rounding error.
    let fit = AlphaBetaFit::fit_size_means(&dag.latency_samples());
    assert!(!fit.degenerate);
    assert!((fit.alpha_ns - 1_000.0).abs() < 1.0, "α̂ = {}", fit.alpha_ns);
    assert!(
        (fit.beta_ns_per_byte - 1.0).abs() < 0.01,
        "β̂ = {}",
        fit.beta_ns_per_byte
    );
}

/// Threaded integration: a profiled combining alltoall on the 2-D Moore
/// torus must assemble into a DAG whose accounting matches the schedule
/// analysis exactly (timestamps are real, so only ordering-free
/// quantities are pinned).
#[test]
fn threaded_profiled_run_matches_schedule_analysis() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let cost = CostSummary::of(&nb);
    let m = 8usize; // i32 elements per block
    let dims = vec![3usize, 3];
    let periods = vec![true, true];
    let t = nb.len();
    let p = 9usize;

    let nb2 = nb.clone();
    let run = Universe::builder(p).profiled(8192).run(move |comm| {
        let cart = CartComm::create(comm, &dims, &periods, nb2.clone()).unwrap();
        let rank = cart.rank();
        let plan = cart.plans().alltoall();
        let send: Vec<i32> = (0..t * m).map(|x| (rank * 100 + x) as i32).collect();
        let mut recv = vec![0i32; t * m];
        cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        plan.phases
            .iter()
            .map(|ph| ph.rounds.len())
            .collect::<Vec<_>>()
    });

    let phase_rounds = run.results[0].clone();
    let dag = TraceCollector::from_ranks(run.traces).build();

    assert_eq!(dag.ranks(), p);
    assert_eq!(dag.sends_per_rank(), vec![cost.rounds; p]);
    let m_bytes = m * std::mem::size_of::<i32>();
    assert_eq!(
        dag.sent_bytes_per_rank(),
        vec![(cost.alltoall_volume * m_bytes) as u64; p]
    );
    for rank in 0..p {
        assert_eq!(dag.phase_rounds(rank), phase_rounds);
    }
    assert_eq!(dag.unpaired_starts, 0);
    assert_eq!(dag.unpaired_ends, 0);
    assert!(dag.makespan_ns() > 0, "shared clock yields a real makespan");

    // The critical path exists and is chronologically consistent.
    let cp = CriticalPath::of(&dag);
    assert!(!cp.steps.is_empty());
    for w in cp.steps.windows(2) {
        assert!(
            w[0].depart_ns <= w[1].depart_ns,
            "path steps are chronological"
        );
    }
    assert!(cp.path_latency_ns() > 0);
    assert_eq!(cp.skew.len(), dag.phases());
}
