//! Edge cases of schedule execution: forwarding through non-contiguous
//! receive layouts, overlapping send blocks, zero-size blocks, and
//! error paths.

use cartcomm::ops::{Algo, WBlock};
use cartcomm::CartComm;
use cartcomm_comm::Universe;
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::Datatype;

/// A 3-hop block whose receive layout is a strided vector: the combining
/// schedule receives the first hop *into the receive buffer's strided
/// layout* (odd remaining hops) and must gather from that layout when
/// forwarding — the subtle zero-copy path of Algorithm 1.
#[test]
fn multi_hop_forwarding_through_strided_recv_layout() {
    let nb = RelNeighborhood::new(3, vec![vec![1, 1, 1]]).unwrap();
    let m = 4usize; // elements per block
    let dims = [3usize, 3, 3];
    let topo = CartTopology::torus(&dims).unwrap();
    // recv layout: m elements strided by 3 (occupying 3m-2 slots)
    let span = 3 * m - 2;
    let strided = Datatype::vector(m, 1, 3, &Datatype::int());
    let contig = Datatype::contiguous(m, &Datatype::int());
    Universe::builder(27).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[true; 3], nb.clone()).unwrap();
        let rank = cart.rank() as i32;
        let send: Vec<i32> = (0..m as i32).map(|e| rank * 100 + e).collect();
        let sendspec = vec![WBlock::new(0, 1, &contig)];
        let recvspec = vec![WBlock::new(0, 1, &strided)];
        let mut recv = vec![-1i32; span];
        {
            let sb = cartcomm_types::cast_slice(&send);
            let rb = cartcomm_types::cast_slice_mut(&mut recv);
            cart.alltoallw(sb, &sendspec, rb, &recvspec, Algo::Combining)
                .unwrap();
        }
        let src = topo
            .rank_of_offset(cart.rank(), &[-1, -1, -1])
            .unwrap()
            .unwrap() as i32;
        for e in 0..m {
            assert_eq!(recv[3 * e], src * 100 + e as i32, "strided element {e}");
        }
        // gaps untouched
        assert_eq!(recv[1], -1);
        assert_eq!(recv[2], -1);
    });
}

/// Overlapping *send* layouts are legal (the same interior cell feeding
/// two neighbors), as in the Figure 1 stencil where corners overlap
/// rows/columns.
#[test]
fn overlapping_send_blocks_are_legal() {
    let nb = RelNeighborhood::new(1, vec![vec![1], vec![-1]]).unwrap();
    Universe::builder(4).run(|comm| {
        let cart = CartComm::create(comm, &[4], &[true], nb.clone()).unwrap();
        let rank = cart.rank() as i32;
        let data: Vec<i32> = vec![rank * 10, rank * 10 + 1];
        // both neighbors receive the SAME two elements
        let whole = Datatype::contiguous(2, &Datatype::int());
        let sendspec = vec![WBlock::new(0, 1, &whole), WBlock::new(0, 1, &whole)];
        let recvspec = vec![WBlock::new(0, 1, &whole), WBlock::new(8, 1, &whole)];
        let mut recv = vec![0i32; 4];
        {
            let sb = cartcomm_types::cast_slice(&data);
            let rb = cartcomm_types::cast_slice_mut(&mut recv);
            cart.alltoallw(sb, &sendspec, rb, &recvspec, Algo::Combining)
                .unwrap();
        }
        let left = ((rank + 3) % 4) * 10;
        let right = ((rank + 1) % 4) * 10;
        assert_eq!(recv, vec![left, left + 1, right, right + 1]);
    });
}

/// Zero-count blocks mixed with non-empty ones in a v-exchange.
#[test]
fn zero_count_blocks_in_alltoallv() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    // every other block empty
    let counts: Vec<usize> = (0..t).map(|i| if i % 2 == 0 { 2 } else { 0 }).collect();
    let displs: Vec<usize> = counts
        .iter()
        .scan(0usize, |a, &c| {
            let v = *a;
            *a += c;
            Some(v)
        })
        .collect();
    let total: usize = counts.iter().sum();
    let topo = CartTopology::torus(&[3, 3]).unwrap();
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let rank = cart.rank();
        let send: Vec<i32> = (0..total).map(|x| (rank * 50 + x) as i32).collect();
        let mut a = vec![0i32; total];
        let mut b = vec![0i32; total];
        cart.alltoallv(
            &send,
            &counts,
            &displs,
            &mut a,
            &counts,
            &displs,
            Algo::Combining,
        )
        .unwrap();
        cart.alltoallv(
            &send,
            &counts,
            &displs,
            &mut b,
            &counts,
            &displs,
            Algo::Trivial,
        )
        .unwrap();
        assert_eq!(a, b);
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                let neg: Vec<i64> = nb.offset(i).iter().map(|&x| -x).collect();
                let src = topo.rank_of_offset(rank, &neg).unwrap().unwrap();
                assert_eq!(a[displs[i]], (src * 50 + displs[i]) as i32);
            }
        }
    });
}

/// Offsets that wrap to self on a small torus, with datatypes.
#[test]
fn wrap_to_self_with_w_types() {
    // On a 2-torus, offset (2) wraps to self: the combining schedule sends
    // a real message to itself.
    let nb = RelNeighborhood::new(1, vec![vec![2], vec![1]]).unwrap();
    Universe::builder(2).run(|comm| {
        let cart = CartComm::create(comm, &[2], &[true], nb.clone()).unwrap();
        let rank = cart.rank() as i32;
        let send = vec![rank * 7, rank * 7 + 1];
        let elem2 = Datatype::contiguous(1, &Datatype::int());
        let sendspec = vec![WBlock::new(0, 1, &elem2), WBlock::new(4, 1, &elem2)];
        let recvspec = vec![WBlock::new(0, 1, &elem2), WBlock::new(4, 1, &elem2)];
        let mut recv = vec![0i32; 2];
        {
            let sb = cartcomm_types::cast_slice(&send);
            let rb = cartcomm_types::cast_slice_mut(&mut recv);
            cart.alltoallw(sb, &sendspec, rb, &recvspec, Algo::Combining)
                .unwrap();
        }
        // block 0 from self (offset 2 ≡ 0), block 1 from the other rank
        assert_eq!(recv[0], rank * 7);
        assert_eq!(recv[1], (1 - rank) * 7 + 1);
    });
}

/// Error paths: wrong spec lengths and mismatched block sizes.
#[test]
fn ops_error_paths() {
    let nb = RelNeighborhood::von_neumann(2, 1).unwrap();
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let int1 = Datatype::int();
        // too few recv specs
        let s4: Vec<WBlock> = (0..4).map(|i| WBlock::new(i * 4, 1, &int1)).collect();
        let s3: Vec<WBlock> = (0..3).map(|i| WBlock::new(i * 4, 1, &int1)).collect();
        let buf = vec![0u8; 64];
        let mut out = vec![0u8; 64];
        assert!(cart
            .alltoallw(&buf, &s4, &mut out, &s3, Algo::Combining)
            .is_err());
        // mismatched per-index sizes
        let big: Vec<WBlock> = (0..4).map(|i| WBlock::new(i * 8, 2, &int1)).collect();
        assert!(matches!(
            cart.alltoallw(&buf, &s4, &mut out, &big, Algo::Combining),
            Err(cartcomm::CartError::BlockSizeMismatch { .. })
        ));
        // allgatherv displacement list too short
        let send = vec![0i32; 2];
        let mut recv = vec![0i32; 8];
        assert!(cart
            .allgatherv(&send, &mut recv, 2, &[0, 2, 4], Algo::Combining)
            .is_err());
        // non-uniform allgather sizes rejected for combining
        let sb = WBlock::new(0, 2, &int1);
        let rs: Vec<WBlock> = (0..4).map(|i| WBlock::new(i * 8, 2, &int1)).collect();
        let mut ok_out = vec![0u8; 64];
        assert!(cart
            .allgatherw(&buf[..8], &sb, &mut ok_out, &rs, Algo::Combining)
            .is_ok());
    });
}

/// In-place persistent execution for a regular alltoall (send == recv
/// buffer; block `i` leaves and arrives at the same place, so no receive
/// lands on a block still to be sent).
#[test]
fn persistent_in_place_roundtrip() {
    let nb = RelNeighborhood::new(1, vec![vec![1], vec![-1]]).unwrap();
    Universe::builder(4).run(|comm| {
        let cart = CartComm::create(comm, &[4], &[true], nb.clone()).unwrap();
        let rank = cart.rank() as i32;
        let mut h = cart.alltoall_init::<i32>(1, Algo::Combining).unwrap();
        let mut buf: Vec<i32> = vec![rank * 2, rank * 2 + 1];
        {
            let bytes = cartcomm_types::cast_slice_mut(&mut buf);
            h.execute_in_place(&cart, bytes).unwrap();
        }
        // block 0 (offset +1) arrives from rank-1's block 0; block 1
        // (offset -1) arrives from rank+1's block 1
        let from_left = ((rank + 3) % 4) * 2;
        let from_right = ((rank + 1) % 4) * 2 + 1;
        assert_eq!(buf, vec![from_left, from_right]);

        // the trivial schedule's one phase per neighbor agrees
        let mut h2 = cart.alltoall_init::<i32>(1, Algo::Trivial).unwrap();
        let mut buf2: Vec<i32> = vec![rank * 2, rank * 2 + 1];
        {
            let bytes = cartcomm_types::cast_slice_mut(&mut buf2);
            h2.execute_in_place(&cart, bytes).unwrap();
        }
        assert_eq!(buf2, buf);
    });
}

/// In place, block `i` arrives where block `j ≠ i` has yet to leave: the
/// trivial schedule sends neighbor 1 a phase after neighbor 0's receive
/// landed on it, and the combining schedule sends a dimension-1 block a
/// phase after the dimension-0 receive did. Both must still deliver the
/// bytes the buffer held at the call.
#[test]
fn in_place_receives_over_blocks_still_to_send() {
    let cases: [(&[usize], Vec<Vec<i64>>); 2] = [
        (&[4], vec![vec![1], vec![-1]]),
        (&[3, 3], vec![vec![1, 0], vec![0, 1]]),
    ];
    for (dims, offsets) in cases {
        let nb = RelNeighborhood::new(dims.len(), offsets).unwrap();
        let topo = CartTopology::torus(dims).unwrap();
        Universe::builder(topo.size()).run(|comm| {
            let periods = vec![true; dims.len()];
            let cart = CartComm::create(comm, dims, &periods, nb.clone()).unwrap();
            let rank = cart.rank();
            // Send[0] = element 0, Send[1] = element 1; Recv[0] lands on
            // element 1, Recv[1] on element 0.
            let expected: Vec<i32> = [1usize, 0]
                .iter()
                .map(|&i| {
                    let neg: Vec<i64> = nb.offset(i).iter().map(|&c| -c).collect();
                    let src = topo.rank_of_offset(rank, &neg).unwrap().unwrap();
                    (src * 2 + i) as i32
                })
                .collect();
            for algo in [Algo::Trivial, Algo::Combining] {
                let mut h = cart
                    .alltoallv_init::<i32>(&[1, 1], &[0, 1], &[1, 1], &[1, 0], algo)
                    .unwrap();
                let mut buf: Vec<i32> = vec![(rank * 2) as i32, (rank * 2 + 1) as i32];
                h.execute_in_place(&cart, cartcomm_types::cast_slice_mut(&mut buf))
                    .unwrap();
                assert_eq!(buf, expected, "{algo:?} on {dims:?}, rank {rank}");
                // The handle's snapshot is reused, not regrown: run again.
                let mut again: Vec<i32> = vec![(rank * 2) as i32, (rank * 2 + 1) as i32];
                h.execute_in_place(&cart, cartcomm_types::cast_slice_mut(&mut again))
                    .unwrap();
                assert_eq!(again, expected);
            }
        });
    }
}
