//! Integration tests for MPI-conforming semantics of the runtime:
//! matching order, wildcards, phase exchanges, contexts, and collectives.

use cartcomm_comm::{
    Comm, CommError, ExchangeBatch, RecvSpec, SrcSel, Status, TagSel, Universe, ANY_SOURCE, ANY_TAG,
};

mod common;

/// One-shot exchange over plain byte vectors.
fn exchange_vecs(
    comm: &Comm,
    sends: Vec<(usize, u32, Vec<u8>)>,
    specs: &[RecvSpec],
) -> Vec<(Vec<u8>, Status)> {
    let mut batch = ExchangeBatch::with_capacity(sends.len());
    for (dst, tag, data) in sends {
        batch.send(dst, tag, data);
    }
    comm.exchange(&mut batch, specs).unwrap();
    batch
        .drain_results()
        .map(|(buf, status)| (buf.into_vec(), status))
        .collect()
}

#[test]
fn ping_pong() {
    Universe::builder(2).run(|comm| {
        if comm.rank() == 0 {
            comm.send_bytes(1, 7, vec![1, 2, 3]).unwrap();
            let (data, st) = comm.recv_bytes(1, 7).unwrap();
            assert_eq!(data, vec![4, 5, 6]);
            assert_eq!(st.src, 1);
            assert_eq!(st.tag, 7);
            assert_eq!(st.bytes, 3);
        } else {
            let (data, _) = comm.recv_bytes(0, 7).unwrap();
            assert_eq!(data, vec![1, 2, 3]);
            comm.send_bytes(0, 7, vec![4, 5, 6]).unwrap();
        }
    });
}

#[test]
fn non_overtaking_same_src_tag() {
    Universe::builder(2).run(|comm| {
        if comm.rank() == 0 {
            for i in 0..50u8 {
                comm.send_bytes(1, 3, vec![i]).unwrap();
            }
        } else {
            for i in 0..50u8 {
                let (data, _) = comm.recv_bytes(0, 3).unwrap();
                assert_eq!(data, vec![i], "messages must not overtake");
            }
        }
    });
}

#[test]
fn tag_selective_receive_out_of_order() {
    Universe::builder(2).run(|comm| {
        if comm.rank() == 0 {
            comm.send_bytes(1, 1, vec![11]).unwrap();
            comm.send_bytes(1, 2, vec![22]).unwrap();
        } else {
            // Receive tag 2 first although tag 1 arrived first.
            let (d2, _) = comm.recv_bytes(0, 2).unwrap();
            assert_eq!(d2, vec![22]);
            let (d1, _) = comm.recv_bytes(0, 1).unwrap();
            assert_eq!(d1, vec![11]);
        }
    });
}

#[test]
fn any_source_any_tag_wildcards() {
    Universe::builder(4).run(|comm| {
        if comm.rank() == 0 {
            let mut seen = [false; 4];
            for _ in 0..3 {
                let (data, st) = comm.recv_bytes(ANY_SOURCE, ANY_TAG).unwrap();
                assert_eq!(data, vec![st.src as u8]);
                assert_eq!(st.tag, st.src as u32 + 100);
                assert!(!seen[st.src]);
                seen[st.src] = true;
            }
            assert!(seen[1] && seen[2] && seen[3]);
        } else {
            comm.send_bytes(0, comm.rank() as u32 + 100, vec![comm.rank() as u8])
                .unwrap();
        }
    });
}

#[test]
fn self_send_and_receive() {
    Universe::builder(1).run(|comm| {
        comm.send_bytes(0, 9, vec![42]).unwrap();
        let (data, st) = comm.recv_bytes(0, 9).unwrap();
        assert_eq!(data, vec![42]);
        assert_eq!(st.src, 0);
    });
}

#[test]
fn sendrecv_rotates_ring() {
    let p = 5;
    let out = Universe::builder(p).run(|comm| {
        let r = comm.rank();
        let (data, _) = comm
            .sendrecv_bytes((r + 1) % p, 0, vec![r as u8], (r + p - 1) % p, 0)
            .unwrap();
        data[0]
    });
    assert_eq!(out, vec![4, 0, 1, 2, 3]);
}

#[test]
fn invalid_rank_rejected() {
    Universe::builder(2).run(|comm| {
        let err = comm.send_bytes(5, 0, vec![]).unwrap_err();
        assert!(matches!(err, CommError::InvalidRank { rank: 5, size: 2 }));
    });
}

#[test]
fn exchange_fifo_matching_same_src_tag() {
    // Two slots with identical (src, tag): payloads must complete in the
    // sender's posting order (this is what makes same-tag schedule rounds
    // with coinciding ranks correct).
    Universe::builder(2).run(|comm| {
        if comm.rank() == 0 {
            exchange_vecs(comm, vec![(1, 5, vec![b'a']), (1, 5, vec![b'b'])], &[]);
        } else {
            let rx = exchange_vecs(
                comm,
                vec![],
                &[RecvSpec::from_rank(0, 5), RecvSpec::from_rank(0, 5)],
            );
            assert_eq!(rx[0].0, vec![b'a']);
            assert_eq!(rx[1].0, vec![b'b']);
        }
    });
}

#[test]
fn exchange_bidirectional_phase() {
    // Every rank sends to left and right neighbors in one phase; classic
    // halo-exchange shape, would deadlock with unbuffered blocking sends.
    let p = 6;
    Universe::builder(p).run(|comm| {
        let r = comm.rank();
        let left = (r + p - 1) % p;
        let right = (r + 1) % p;
        let rx = exchange_vecs(
            comm,
            vec![(left, 1, vec![r as u8]), (right, 2, vec![r as u8])],
            &[RecvSpec::from_rank(right, 1), RecvSpec::from_rank(left, 2)],
        );
        assert_eq!(rx[0].0, vec![right as u8]);
        assert_eq!(rx[1].0, vec![left as u8]);
    });
}

#[test]
fn exchange_with_wildcard_slots() {
    Universe::builder(3).run(|comm| {
        if comm.rank() == 0 {
            let rx = exchange_vecs(
                comm,
                vec![],
                &[
                    RecvSpec {
                        src: SrcSel::Any,
                        tag: TagSel::Is(1),
                    },
                    RecvSpec {
                        src: SrcSel::Any,
                        tag: TagSel::Is(1),
                    },
                ],
            );
            let mut srcs: Vec<usize> = rx.iter().map(|(_, st)| st.src).collect();
            srcs.sort_unstable();
            assert_eq!(srcs, vec![1, 2]);
        } else {
            comm.send_bytes(0, 1, vec![comm.rank() as u8]).unwrap();
        }
    });
}

#[test]
fn exchange_leaves_unmatched_messages_pending() {
    Universe::builder(2).run(|comm| {
        if comm.rank() == 0 {
            comm.send_bytes(1, 77, vec![1]).unwrap(); // not part of exchange
            comm.send_bytes(1, 5, vec![2]).unwrap();
        } else {
            let rx = exchange_vecs(comm, vec![], &[RecvSpec::from_rank(0, 5)]);
            assert_eq!(rx[0].0, vec![2]);
            // The tag-77 message is still retrievable afterwards.
            let (d, _) = comm.recv_bytes(0, 77).unwrap();
            assert_eq!(d, vec![1]);
        }
    });
}

#[test]
fn dup_contexts_do_not_intercept() {
    Universe::builder(2).run(|comm| {
        let comm2 = comm.dup();
        assert_ne!(comm.context(), comm2.context());
        if comm.rank() == 0 {
            // Same tag on both contexts; payload disambiguates.
            comm2.send_bytes(1, 4, vec![b'B']).unwrap();
            comm.send_bytes(1, 4, vec![b'A']).unwrap();
        } else {
            let (a, _) = comm.recv_bytes(0, 4).unwrap();
            let (b, _) = comm2.recv_bytes(0, 4).unwrap();
            assert_eq!(a, vec![b'A']);
            assert_eq!(b, vec![b'B']);
        }
    });
}

// ----- collectives ----------------------------------------------------------

#[test]
fn barrier_all_sizes() {
    for p in [1, 2, 3, 4, 7, 8, 13] {
        Universe::builder(p).run(|comm| {
            for _ in 0..3 {
                comm.barrier().unwrap();
            }
        });
    }
}

#[test]
fn bcast_from_all_roots() {
    for p in [1, 2, 5, 8] {
        for root in 0..p {
            Universe::builder(p).run(|comm| {
                let mut data = if comm.rank() == root {
                    vec![9u8, 8, 7, root as u8]
                } else {
                    Vec::new()
                };
                comm.bcast_bytes(root, &mut data).unwrap();
                assert_eq!(data, vec![9u8, 8, 7, root as u8]);
            });
        }
    }
}

#[test]
fn bcast_slice_typed() {
    Universe::builder(4).run(|comm| {
        let mut v = if comm.rank() == 2 {
            [3i64, -4, 5]
        } else {
            [0; 3]
        };
        comm.bcast_slice(2, &mut v).unwrap();
        assert_eq!(v, [3, -4, 5]);
    });
}

#[test]
fn reduce_and_allreduce() {
    for p in [1, 2, 3, 5, 8] {
        Universe::builder(p).run(|comm| {
            let mut x = [comm.rank() as u64, 1];
            comm.allreduce(&mut x, |a, b| a + b).unwrap();
            assert_eq!(x[0], (p * (p - 1) / 2) as u64);
            assert_eq!(x[1], p as u64);

            let mut y = [comm.rank() as i32];
            comm.reduce(0, &mut y, |a, b| a.max(b)).unwrap();
            if comm.rank() == 0 {
                assert_eq!(y[0], p as i32 - 1);
            }
        });
    }
}

#[test]
fn allreduce_of_nothing_is_nothing() {
    common::watchdog(|| {
        for p in [1, 2, 3, 5] {
            let done = Universe::builder(p).run(|comm| {
                let mut empty: [u64; 0] = [];
                comm.allreduce(&mut empty, |a, b| a + b)
            });
            assert!(done.iter().all(Result::is_ok), "p = {p}: {done:?}");
        }
    });
}

#[test]
fn all_same_detects_agreement_and_disagreement() {
    Universe::builder(4).run(|comm| {
        assert!(comm.all_same(b"identical").unwrap());
        let per_rank = vec![comm.rank() as u8];
        assert!(!comm.all_same(&per_rank).unwrap());
        // different lengths
        let ragged = vec![0u8; comm.rank()];
        assert!(!comm.all_same(&ragged).unwrap());
        // agreement again after disagreement (sequence tags stay aligned)
        assert!(comm.all_same(&[1, 2, 3]).unwrap());
    });
}

#[test]
fn back_to_back_collectives_do_not_cross_talk() {
    Universe::builder(6).run(|comm| {
        for round in 0..10u8 {
            let mut v = if comm.rank() == 0 {
                vec![round]
            } else {
                Vec::new()
            };
            comm.bcast_bytes(0, &mut v).unwrap();
            assert_eq!(v, vec![round]);
            let mut v = [u64::from(round), comm.rank() as u64];
            comm.allreduce(&mut v, |a, b| a + b).unwrap();
            assert_eq!(v, [6 * u64::from(round), 15]);
        }
    });
}

#[test]
fn rank_metrics_report_traffic() {
    Universe::builder(2).run(|comm| {
        let mut batch = ExchangeBatch::new();
        if comm.rank() == 0 {
            batch.send(1, 0, vec![0u8; 64]);
            comm.exchange(&mut batch, &[]).unwrap();
        } else {
            comm.exchange(&mut batch, &[RecvSpec::from_rank(0, 0)])
                .unwrap();
        }
        comm.barrier().unwrap();
        let m = comm.metrics();
        if comm.rank() == 0 {
            assert!(m.wire_bytes_sent >= 64);
        } else {
            assert!(m.msgs_matched >= 1);
        }
    });
}

#[test]
fn stress_many_ranks_allreduce() {
    let p = 64;
    Universe::builder(p).run(|comm| {
        let mut x = [1u64];
        comm.allreduce(&mut x, |a, b| a + b).unwrap();
        assert_eq!(x[0], p as u64);
    });
}

#[test]
fn probe_reports_without_consuming() {
    Universe::builder(2).run(|comm| {
        if comm.rank() == 0 {
            comm.send_bytes(1, 9, vec![1, 2, 3, 4]).unwrap();
        } else {
            let st = comm.probe(0, 9).unwrap();
            assert_eq!(st.bytes, 4);
            assert_eq!(st.src, 0);
            assert_eq!(st.tag, 9);
            // probing twice sees the same message; receiving consumes it
            let st2 = comm.probe(0, 9).unwrap();
            assert_eq!(st2, st);
            let (data, _) = comm.recv_bytes(0, 9).unwrap();
            assert_eq!(data.len(), 4);
        }
    });
}

#[test]
fn iprobe_nonblocking_semantics() {
    Universe::builder(2).run(|comm| {
        if comm.rank() == 0 {
            // nothing for tag 5 yet
            assert!(comm.iprobe(1, 5).unwrap().is_none());
            comm.barrier().unwrap();
            comm.barrier().unwrap();
            // now rank 1's message must be findable
            loop {
                if let Some(st) = comm.iprobe(1, 5).unwrap() {
                    assert_eq!(st.bytes, 1);
                    break;
                }
                std::thread::yield_now();
            }
            let (d, _) = comm.recv_bytes(1, 5).unwrap();
            assert_eq!(d, vec![42]);
        } else {
            comm.barrier().unwrap();
            comm.send_bytes(0, 5, vec![42]).unwrap();
            comm.barrier().unwrap();
        }
    });
}

#[test]
fn probe_with_wildcards_sizes_dynamic_receive() {
    Universe::builder(3).run(|comm| {
        if comm.rank() == 0 {
            for _ in 0..2 {
                let st = comm.probe(ANY_SOURCE, ANY_TAG).unwrap();
                // allocate exactly the probed size, as MPI codes do
                let (data, st2) = comm.recv_bytes(st.src, st.tag).unwrap();
                assert_eq!(data.len(), st.bytes);
                assert_eq!(st2.src, st.src);
            }
        } else {
            comm.send_bytes(0, comm.rank() as u32, vec![0u8; comm.rank() * 10])
                .unwrap();
        }
    });
}

#[test]
#[should_panic(expected = "deliberate")]
fn a_panicking_rank_ends_its_universe() {
    // Rank 0 waits for a message rank 1 never sends: the panic closes
    // rank 0's mailbox, its receive fails, and the launcher reports the
    // panic that came first, not rank 0's `unwrap`.
    common::watchdog(|| {
        Universe::builder(2).run(|comm| {
            if comm.rank() == 1 {
                panic!("deliberate");
            }
            comm.recv_bytes(1, 3).unwrap();
        });
    });
}

/// The 26 offsets of the Moore neighborhood in three dimensions.
fn moore_offsets() -> Vec<[i64; 3]> {
    (0..27)
        .map(|i| [i / 9 - 1, i / 3 % 3 - 1, i % 3 - 1])
        .filter(|d| *d != [0, 0, 0])
        .collect()
}

/// The rank at offset `d` from `rank` on the 3×3×3 torus.
fn torus_neighbor(rank: usize, d: [i64; 3]) -> usize {
    let at = [rank / 9, rank / 3 % 3, rank % 3];
    (0..3).fold(0, |acc, k| {
        acc * 3 + (at[k] as i64 + d[k]).rem_euclid(3) as usize
    })
}

/// The block `src` sends along offset `slot` in `round`: a closed form of
/// the three.
fn moore_block(src: usize, slot: usize, round: usize) -> Vec<u8> {
    (0..16)
        .map(|i| (src * 31 + slot * 7 + round * 101 + i) as u8)
        .collect()
}

#[test]
fn a_sleeping_rank_holds_only_its_worker_and_every_block_arrives_exact() {
    // 27 ranks share a few workers; rank 13 sleeps 50 ms between its two
    // exchanges, holding its worker and the ranks on it. Every rank still
    // receives, in both rounds, exactly the block the closed form names.
    common::watchdog(|| {
        let offsets = moore_offsets();
        let got = Universe::builder(27).run(|comm| {
            let me = comm.rank();
            (0..2)
                .map(|round| {
                    if round == 1 && me == 13 {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                    }
                    let tag = |slot: usize| (100 * round + slot) as u32;
                    let mut batch = ExchangeBatch::with_capacity(offsets.len());
                    for (slot, &d) in offsets.iter().enumerate() {
                        batch.send(
                            torus_neighbor(me, d),
                            tag(slot),
                            moore_block(me, slot, round),
                        );
                    }
                    // What went out along `d` comes in from the rank at `-d`.
                    let specs: Vec<RecvSpec> = (offsets.iter().enumerate())
                        .map(|(slot, d)| {
                            let from = torus_neighbor(me, d.map(|x| -x));
                            RecvSpec::from_rank(from, tag(slot))
                        })
                        .collect();
                    comm.exchange(&mut batch, &specs).unwrap();
                    let blocks: Vec<Vec<u8>> = batch
                        .drain_results()
                        .map(|(buf, _)| buf.into_vec())
                        .collect();
                    blocks
                })
                .collect::<Vec<_>>()
        });
        for (me, rounds) in got.iter().enumerate() {
            for (round, blocks) in rounds.iter().enumerate() {
                for (slot, block) in blocks.iter().enumerate() {
                    let from = torus_neighbor(me, offsets[slot].map(|x| -x));
                    let want = moore_block(from, slot, round);
                    assert_eq!(block, &want, "rank {me}, round {round}, slot {slot}");
                }
            }
        }
    });
}

#[test]
fn a_rank_recursing_a_mebibyte_deep_returns() {
    /// Recurse `depth` frames of at least 1 KiB each; the address of the
    /// deepest frame's buffer.
    #[inline(never)]
    fn descend(depth: usize) -> usize {
        let mut pad = [0u8; 1024];
        std::hint::black_box(&mut pad);
        if depth == 0 {
            return pad.as_ptr() as usize;
        }
        let deepest = descend(depth - 1);
        std::hint::black_box(&pad);
        deepest
    }
    let deepest = Universe::builder(4).run(|comm| {
        comm.barrier().unwrap();
        let top = 0u8;
        let reached = (&top as *const u8 as usize) - descend(1024);
        comm.barrier().unwrap();
        reached
    });
    for (rank, reached) in deepest.into_iter().enumerate() {
        assert!(
            reached >= 1 << 20,
            "rank {rank} reached only {reached} B deep"
        );
    }
}
