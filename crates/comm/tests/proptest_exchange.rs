//! Property-based tests for the matching semantics: for random message
//! patterns, every receive slot must get a message matching its
//! selectors, messages between one (source, tag) pair must complete in
//! posting order (the MPI non-overtaking rule the schedules rely on), and
//! a message or a met round matches only slots of its own context and
//! tag — in a phase exchange (`Comm::exchange`) and in a rendezvous
//! (`Comm::rendezvous`) alike.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use cartcomm_comm::{Comm, ExchangeBatch, RecvSpec, SrcSel, Status, TagSel, Universe};
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

/// Senders that interleave messages on a communicator and on its `dup`:
/// per sender, a sequence of (context 0 or 1, tag). Tags come from a set
/// of three, so one (source, tag) pair recurs within a context and across
/// the two.
#[derive(Debug, Clone)]
struct Mixed {
    p: usize,
    sends: Vec<Vec<(usize, u32)>>,
}

fn arb_mixed() -> impl Strategy<Value = Mixed> {
    (2usize..5).prop_flat_map(|p| {
        proptest::collection::vec(proptest::collection::vec((0usize..2, 0u32..3), 0..8), p - 1)
            .prop_map(move |sends| Mixed { p, sends })
    })
}

/// A sequence of met phases at rank 0 that alternate between a
/// communicator (even phases) and its `dup` (odd ones), the tag of
/// phase `i` being `i / 2`: each (context, tag) pair is one phase's
/// alone, while every tag recurs in both contexts and every context
/// holds every tag. Per phase, the senders that meet it (ranks `1..p`)
/// and whether rank 0 posts wildcard-source slots for them.
#[derive(Debug, Clone)]
struct MetPhases {
    p: usize,
    phases: Vec<(Vec<bool>, bool)>,
    /// Per sender and phase, how long it spins first.
    pauses: Vec<Vec<u32>>,
}

fn arb_met_phases() -> impl Strategy<Value = MetPhases> {
    (3usize..6, 4usize..12).prop_flat_map(|(p, n)| {
        let phase = (
            proptest::collection::vec(any::<bool>(), p - 1),
            any::<bool>(),
        );
        let pauses = proptest::collection::vec(proptest::collection::vec(0u32..400, n), p - 1);
        (proptest::collection::vec(phase, n), pauses).prop_map(move |(phases, pauses)| MetPhases {
            p,
            phases,
            pauses,
        })
    })
}

/// Run `body` on a thread of its own and fail unless it finishes within
/// `limit`: a round matched into the wrong phase strands its own phase,
/// which then fails instead of hanging the suite.
fn watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(limit) {
        Ok(()) => worker.join().unwrap(),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(RecvTimeoutError::Timeout) => panic!("no result within {limit:?}"),
    }
}

/// A rank's posted buffer in the met phases: its own block, then one
/// block per rank.
struct Blocks {
    at: *mut u8,
    len: usize,
}

const BLOCK: usize = 4;

/// What sender `src` sends in phase `i`.
fn marker(i: usize, src: usize) -> u8 {
    (1 + i * 8 + src) as u8
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Messages on a communicator and on its `dup`, tags drawn from a
    /// small set, interleaved per sender: an exchange on each context, one
    /// slot per message with each sender's slots ordered by tag, gets
    /// exactly that context's messages, each (source, tag) stream in
    /// order. A matcher that ignored the context or the tag would hand a
    /// slot an earlier message of the other context or of another tag.
    #[test]
    fn interleaved_contexts_and_tags_match_only_their_own_slots(sc in arb_mixed()) {
        let sc2 = sc.clone();
        Universe::builder(sc.p).run(move |comm| {
            let dup = comm.dup();
            let comms = [comm, &dup];
            let rank = comm.rank();
            if rank == 0 {
                for (ctx, comm) in comms.into_iter().enumerate() {
                    // Per sender, its messages of this context, by tag
                    // (each tag's in sending order) — not the order they
                    // were sent in; the slots take the senders round-robin.
                    let mine: Vec<Vec<(u32, usize)>> = sc2
                        .sends
                        .iter()
                        .map(|msgs| {
                            let mut mine: Vec<(u32, usize)> = (msgs.iter().enumerate())
                                .filter(|(_, &(c, _))| c == ctx)
                                .map(|(seq, &(_, tag))| (tag, seq))
                                .collect();
                            mine.sort_by_key(|&(tag, _)| tag);
                            mine
                        })
                        .collect();
                    let (mut specs, mut expect) = (Vec::new(), Vec::new());
                    for k in 0..mine.iter().map(Vec::len).max().unwrap_or(0) {
                        for (s, msgs) in mine.iter().enumerate() {
                            if let Some(&(tag, seq)) = msgs.get(k) {
                                specs.push(RecvSpec::from_rank(s + 1, tag));
                                expect.push((s + 1, tag, vec![ctx as u8, seq as u8]));
                            }
                        }
                    }
                    let results = recv_all(comm, &specs);
                    assert_eq!(results.len(), expect.len());
                    for ((wire, st), (src, tag, want)) in results.iter().zip(&expect) {
                        assert_eq!((st.src, st.tag), (*src, *tag));
                        assert_eq!(wire, want, "context {ctx}, from {src}, tag {tag}");
                    }
                }
            } else {
                for (seq, &(ctx, tag)) in sc2.sends[rank - 1].iter().enumerate() {
                    comms[ctx].send_bytes(0, tag, vec![ctx as u8, seq as u8]).unwrap();
                }
            }
        });
    }

    /// The met twin: rank 0 runs a sequence of rendezvous phases that
    /// alternate between a communicator and its `dup`, and each sender —
    /// after a random pause — meets the phases it takes part in, one
    /// round each. A sender that skips a phase runs ahead into later ones,
    /// whose rounds reach rank 0 while it is posted for an earlier phase
    /// of the other context with the same tag, or of the same context
    /// with another tag; with wildcard-source slots only the context and
    /// the tag keep them apart. Every phase must get exactly its own
    /// senders' blocks.
    #[test]
    fn met_rounds_match_only_their_own_context_and_tag(sc in arb_met_phases()) {
        watchdog(Duration::from_secs(60), move || {
            Universe::builder(sc.p).run(|comm| {
                let dup = comm.dup();
                let comms = [comm, &dup];
                let rank = comm.rank();
                let mut buf = vec![0u8; (1 + sc.p) * BLOCK];
                let copy = |src: usize, from: &Blocks, to: &Blocks| {
                    let dst = (1 + src) * BLOCK;
                    assert!(BLOCK <= from.len && dst + BLOCK <= to.len);
                    // SAFETY: the sender's own block into the receiver's
                    // block for it, inside both posted buffers.
                    unsafe { std::ptr::copy_nonoverlapping(from.at, to.at.add(dst), BLOCK) };
                };
                for (i, (senders, wildcard)) in sc.phases.iter().enumerate() {
                    let (comm, tag) = (comms[i % 2], (i / 2) as u32);
                    let from: Vec<usize> = (1..sc.p).filter(|&s| senders[s - 1]).collect();
                    if rank == 0 {
                        buf.fill(0);
                        let specs: Vec<RecvSpec> = from
                            .iter()
                            .map(|&s| RecvSpec {
                                src: if *wildcard { SrcSel::Any } else { SrcSel::Rank(s) },
                                tag: TagSel::Is(tag),
                            })
                            .collect();
                        let at = Blocks { at: buf.as_mut_ptr(), len: buf.len() };
                        // SAFETY: every rank posts its own buffer with
                        // this copy, which writes only the block of its
                        // round's sender.
                        unsafe { comm.rendezvous(&at, std::iter::empty(), &specs, false, copy) }
                            .unwrap();
                        for s in 1..sc.p {
                            let got = &buf[(1 + s) * BLOCK..(2 + s) * BLOCK];
                            let want = if from.contains(&s) { marker(i, s) } else { 0 };
                            assert!(got.iter().all(|&b| b == want), "phase {i}, block of {s}: {got:?}");
                        }
                    } else if from.contains(&rank) {
                        for _ in 0..sc.pauses[rank - 1][i] {
                            std::hint::spin_loop();
                        }
                        buf[..BLOCK].fill(marker(i, rank));
                        let at = Blocks { at: buf.as_mut_ptr(), len: buf.len() };
                        let round = std::iter::once((0, tag, rank));
                        // SAFETY: as above; a sender's round reads its own
                        // block only.
                        unsafe { comm.rendezvous(&at, round, &[], false, copy) }.unwrap();
                    }
                }
            });
        });
    }

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
