//! Property-based tests for the phase-exchange matching semantics: for
//! random message patterns, every receive slot must get a message
//! matching its selectors, and messages between one (source, tag) pair
//! must complete in posting order (the MPI non-overtaking rule the
//! schedules rely on).

use cartcomm_comm::{Comm, ExchangeBatch, RecvSpec, Status, Universe};
use proptest::prelude::*;

/// Receive-only exchange returning the payloads in slot order.
fn recv_all(comm: &Comm, specs: &[RecvSpec]) -> Vec<(Vec<u8>, Status)> {
    let mut batch = ExchangeBatch::new();
    comm.exchange(&mut batch, specs).unwrap();
    batch
        .drain_results()
        .map(|(buf, status)| (buf.into_vec(), status))
        .collect()
}

/// A randomized exchange: rank 0 receives, ranks 1..p send. Each sender
/// posts a random sequence of tagged messages; rank 0 posts one slot per
/// expected message, in a shuffled but compatible order.
#[derive(Debug, Clone)]
struct Scenario {
    p: usize,
    /// per sender (1..p): sequence of (tag, payload marker)
    sends: Vec<Vec<(u32, u8)>>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (2usize..5).prop_flat_map(|p| {
        proptest::collection::vec(
            proptest::collection::vec((0u32..3, any::<u8>()), 0..6),
            p - 1,
        )
        .prop_map(move |sends| Scenario { p, sends })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Specific-slot matching: rank 0 posts one (src, tag) slot per
    /// message in per-sender posting order; payloads must arrive in that
    /// exact order per (src, tag) stream.
    #[test]
    fn fifo_matching_per_source_tag(sc in arb_scenario()) {
        let sc2 = sc.clone();
        Universe::builder(sc.p).run(move |comm| {
            let rank = comm.rank();
            if rank == 0 {
                // build slot list: interleave senders round-robin to mix
                // posting order across sources while preserving per-source
                // order
                let mut specs = Vec::new();
                let mut expect = Vec::new();
                let mut cursors = vec![0usize; sc2.p - 1];
                loop {
                    let mut progressed = false;
                    #[allow(clippy::needless_range_loop)]
                    for s in 0..sc2.p - 1 {
                        if cursors[s] < sc2.sends[s].len() {
                            let (tag, val) = sc2.sends[s][cursors[s]];
                            specs.push(RecvSpec::from_rank(s + 1, tag));
                            expect.push((s + 1, tag, val));
                            cursors[s] += 1;
                            progressed = true;
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
                let results = recv_all(comm, &specs);
                for ((wire, st), (src, tag, val)) in results.iter().zip(expect.iter()) {
                    assert_eq!(st.src, *src);
                    assert_eq!(st.tag, *tag);
                    assert_eq!(wire, &vec![*val]);
                }
            } else {
                for &(tag, val) in &sc2.sends[rank - 1] {
                    comm.send_bytes(0, tag, vec![val]).unwrap();
                }
            }
        });
    }

    /// Wildcard slots drain exactly the posted multiset: with ANY/ANY
    /// slots, the received multiset of (src, tag, payload) equals what was
    /// sent, regardless of arrival order.
    #[test]
    fn wildcard_multiset_complete(sc in arb_scenario()) {
        let sc2 = sc.clone();
        Universe::builder(sc.p).run(move |comm| {
            let rank = comm.rank();
            let total: usize = sc2.sends.iter().map(|v| v.len()).sum();
            if rank == 0 {
                let specs = vec![
                    RecvSpec {
                        src: cartcomm_comm::SrcSel::Any,
                        tag: cartcomm_comm::TagSel::Any,
                    };
                    total
                ];
                let results = recv_all(comm, &specs);
                let mut got: Vec<(usize, u32, u8)> = results
                    .iter()
                    .map(|(w, st)| (st.src, st.tag, w[0]))
                    .collect();
                let mut want: Vec<(usize, u32, u8)> = sc2
                    .sends
                    .iter()
                    .enumerate()
                    .flat_map(|(s, msgs)| msgs.iter().map(move |&(t, v)| (s + 1, t, v)))
                    .collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want);
            } else {
                for &(tag, val) in &sc2.sends[rank - 1] {
                    comm.send_bytes(0, tag, vec![val]).unwrap();
                }
            }
        });
    }
}
