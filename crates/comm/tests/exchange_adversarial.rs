//! Adversarial exchange scenarios: the FIFO matching semantics that the
//! schedule executor depends on, attacked from three directions — many
//! same-`(src, tag)` slots in one batch, stale messages left over from a
//! prior collective sitting in the unexpected queue, and duplicated
//! contexts running interleaved collectives concurrently.

use cartcomm_comm::{Comm, ExchangeBatch, RecvSpec, Status, Universe};

/// Pack a round-trip counter into a payload for order checking.
fn payload(i: usize) -> Vec<u8> {
    vec![i as u8, (i * 7 + 1) as u8]
}

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
fn many_same_src_tag_slots_complete_in_posting_order() {
    // One round with EIGHT identical (src, tag) signatures: the receiver's
    // slots must pair 1:1 with the sender's posting order — the earliest
    // posted open slot takes the earliest sent message.
    const N: usize = 8;
    Universe::builder(2).run(|comm| {
        if comm.rank() == 0 {
            let sends = (0..N).map(|i| (1usize, 9, payload(i))).collect();
            exchange_vecs(comm, sends, &[]);
        } else {
            let specs = vec![RecvSpec::from_rank(0, 9); N];
            let rx = exchange_vecs(comm, vec![], &specs);
            for (i, (data, status)) in rx.iter().enumerate() {
                assert_eq!(data, &payload(i), "slot {i} out of order");
                assert_eq!(status.src, 0);
                assert_eq!(status.tag, 9);
            }
        }
    });
}

#[test]
fn many_same_src_tag_slots_pooled_round_trip() {
    // Same scenario through the default pooled policy: wire buffers
    // acquired from the sender's pool, delivered in order, recycled into
    // the receiver's pool.
    const N: usize = 8;
    Universe::builder(2).run(|comm| {
        if comm.rank() == 0 {
            let mut batch = ExchangeBatch::with_capacity(N);
            for i in 0..N {
                let mut wire = comm.wire_buf(2);
                wire.extend_from_slice(&payload(i));
                batch.send(1, 9, wire);
            }
            comm.exchange(&mut batch, &[]).unwrap();
        } else {
            let specs = vec![RecvSpec::from_rank(0, 9); N];
            let mut batch = ExchangeBatch::new();
            comm.exchange(&mut batch, &specs).unwrap();
            for (i, (data, _)) in batch.drain_results().enumerate() {
                assert_eq!(data, payload(i), "slot {i} out of order");
            }
            // All 8 received buffers recycled into THIS rank's pool.
            let stats = comm.pool_telemetry();
            assert!(
                stats.bytes_recycled >= (N * 64) as u64,
                "expected >= {} recycled bytes, got {}",
                N * 64,
                stats.bytes_recycled
            );
        }
    });
}

#[test]
fn stale_messages_from_prior_collective_do_not_poison_matching() {
    // Rank 0 runs collective A (tags 100..104) and immediately collective B
    // (tags 200..204). Rank 1 receives B FIRST: A's messages all arrive,
    // get parked in the unexpected queue, and must neither satisfy B's
    // slots nor be lost. Then rank 1 receives A and must see A's payloads
    // in their original order.
    const R: usize = 4;
    Universe::builder(2).run(|comm| {
        if comm.rank() == 0 {
            let a = (0..R)
                .map(|i| (1usize, 100 + i as u32, payload(i)))
                .collect();
            exchange_vecs(comm, a, &[]);
            let b = (0..R)
                .map(|i| (1usize, 200 + i as u32, payload(i + 10)))
                .collect();
            exchange_vecs(comm, b, &[]);
        } else {
            let spec_b: Vec<RecvSpec> = (0..R)
                .map(|i| RecvSpec::from_rank(0, 200 + i as u32))
                .collect();
            let rx_b = exchange_vecs(comm, vec![], &spec_b);
            for (i, (data, _)) in rx_b.iter().enumerate() {
                assert_eq!(data, &payload(i + 10), "collective B slot {i}");
            }
            // A's messages were all unexpected during B; they must now
            // match from the queue, still in order.
            let spec_a: Vec<RecvSpec> = (0..R)
                .map(|i| RecvSpec::from_rank(0, 100 + i as u32))
                .collect();
            let rx_a = exchange_vecs(comm, vec![], &spec_a);
            for (i, (data, _)) in rx_a.iter().enumerate() {
                assert_eq!(data, &payload(i), "collective A slot {i}");
            }
        }
    });
}

#[test]
fn stale_same_signature_message_matches_before_fresh_one() {
    // A message with signature (src 0, tag 7) is left unreceived by an
    // earlier operation. When a later exchange posts a slot for (0, 7), the
    // STALE message must match first (FIFO), and the fresh one second.
    Universe::builder(2).run(|comm| {
        if comm.rank() == 0 {
            comm.send_bytes(1, 7, b"stale".to_vec()).unwrap();
            comm.send_bytes(1, 7, b"fresh".to_vec()).unwrap();
        } else {
            // Force the first message into the unexpected queue by
            // receiving something else first.
            comm.probe(0, 7).unwrap(); // both may or may not have arrived
            let rx = exchange_vecs(
                comm,
                vec![],
                &[RecvSpec::from_rank(0, 7), RecvSpec::from_rank(0, 7)],
            );
            assert_eq!(rx[0].0, b"stale".to_vec());
            assert_eq!(rx[1].0, b"fresh".to_vec());
        }
    });
}

#[test]
fn dup_contexts_run_interleaved_collectives_concurrently() {
    // Two duplicated contexts run a ring exchange each, with IDENTICAL tags
    // and reversed send order between them, so every rank's channel carries
    // interleaved traffic of both contexts. Matching must never cross.
    let p = 4;
    Universe::builder(p).run(|comm| {
        let comm2 = comm.dup();
        assert_ne!(comm.context(), comm2.context());
        let r = comm.rank();
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;

        // Post BOTH contexts' sends eagerly before receiving anything, in
        // opposite orders on even/odd ranks, so every receiver's channel
        // carries the two contexts' traffic interleaved differently.
        let send = |c: &Comm, marker: u8| {
            exchange_vecs(c, vec![(right, 3, vec![marker, r as u8])], &[]);
        };
        let recv = |c: &Comm| -> Vec<u8> {
            let rx = exchange_vecs(c, vec![], &[RecvSpec::from_rank(left, 3)]);
            rx.into_iter().next().unwrap().0
        };
        if r % 2 == 0 {
            send(&comm2, 0xB2);
            send(comm, 0xA1);
            let got1 = recv(comm);
            let got2 = recv(&comm2);
            assert_eq!(got1, vec![0xA1, left as u8]);
            assert_eq!(got2, vec![0xB2, left as u8]);
        } else {
            send(comm, 0xA1);
            send(&comm2, 0xB2);
            let got2 = recv(&comm2);
            let got1 = recv(comm);
            assert_eq!(got2, vec![0xB2, left as u8]);
            assert_eq!(got1, vec![0xA1, left as u8]);
        }
    });
}

#[test]
fn wildcard_slot_respects_fifo_against_specific_slots() {
    // Slot 0 is a wildcard, slot 1 is specific to (0, 5). A single message
    // (0, 5) satisfies both; it must land in slot 0 (earliest posted), and
    // the second message completes slot 1.
    Universe::builder(2).run(|comm| {
        if comm.rank() == 0 {
            exchange_vecs(comm, vec![(1, 5, vec![1]), (1, 5, vec![2])], &[]);
        } else {
            let rx = exchange_vecs(
                comm,
                vec![],
                &[
                    RecvSpec {
                        src: cartcomm_comm::ANY_SOURCE,
                        tag: cartcomm_comm::ANY_TAG,
                    },
                    RecvSpec::from_rank(0, 5),
                ],
            );
            assert_eq!(rx[0].0, vec![1], "wildcard slot posted first wins");
            assert_eq!(rx[1].0, vec![2]);
        }
    });
}

#[test]
fn detached_policy_returns_unpooled_buffers() {
    // Detached results must not recycle into the receiver's pool on drop.
    Universe::builder(2).run(|comm| {
        if comm.rank() == 0 {
            exchange_vecs(comm, vec![(1, 4, vec![7u8; 100])], &[]);
        } else {
            let rx = exchange_vecs(comm, vec![], &[RecvSpec::from_rank(0, 4)]);
            let recycled_before = comm.pool_telemetry().bytes_recycled;
            drop(rx);
            assert_eq!(
                comm.pool_telemetry().bytes_recycled,
                recycled_before,
                "detached buffers must not recycle"
            );
        }
    });
}
