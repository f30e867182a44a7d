//! Hostile datatypes reach the compiler: alltoallw blocks whose type maps
//! run backwards or start below their lower bound.
//!
//! Every other datatype strategy keeps displacements non-negative, so a
//! descending span list never reaches the hazard walk or the composer of
//! fused copies, whose stride fold takes only ascending ranges. Here each
//! block is one of: a negative-stride `hvector`; elements `resized` to a
//! negative lower bound; an `hindexed` with descending displacements; a
//! negative-stride `hvector` of descending `hindexed` pairs; a whole block
//! `resized` below a negative-stride `hvector`. A block's displacement
//! puts its lowest resolved byte at its slot, so every resolved offset is
//! non-negative.
//!
//! Each case runs split and in place — in place the receive blocks land
//! anywhere over the send blocks — with both algorithms, on the inline
//! carrier and on fiber universes over the in-process fabric (its torus
//! phases meet) and shared memory (every round deposits). Every buffer is
//! framed by poisoned guard bytes at a misalignment, and every block must
//! hold what `cartcomm_types::{gather_append, scatter}` put there.

use cartcomm::ops::{w_layouts, Algo, WBlock};
use cartcomm::{CartComm, InlineUniverse, PlanKind, PlanStore};
use cartcomm_comm::{TransportKind, Universe};
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::{gather_append, scatter, Datatype};
use proptest::prelude::*;

mod common;
use common::sources;

const GUARD: u8 = 0xA5;

/// `n` bytes as `n / w` elements of `w` bytes, `w + gap` apart, in a type
/// map that runs backwards or starts below its lower bound.
fn hostile(shape: usize, n: usize, w: usize, gap: usize) -> Datatype {
    let (count, elem, step) = (n / w, Datatype::bytes(w), (w + gap) as i64);
    match shape % 5 {
        0 => Datatype::hvector(count, 1, -step, &elem),
        1 => Datatype::contiguous(count, &Datatype::resized(-step, w + gap, &elem)),
        2 => {
            let descending: Vec<i64> = (0..count as i64).rev().map(|j| j * step).collect();
            Datatype::hindexed(&vec![1; count], &descending, &elem).unwrap()
        }
        3 if count % 2 == 0 => {
            let pair = Datatype::hindexed(&[1, 1], &[step, 0], &elem).unwrap();
            Datatype::hvector(count / 2, 1, -3 * step, &pair)
        }
        _ => Datatype::resized(-(n as i64), n, &Datatype::hvector(count, 1, -step, &elem)),
    }
}

/// Lay `types` out one after the other from byte `from`, each displaced so
/// its lowest resolved byte starts its slot. Returns the blocks and the
/// end of the last one.
fn place(types: &[Datatype], from: usize, pad: usize) -> (Vec<WBlock>, usize) {
    let mut at = from as i64;
    let blocks = types
        .iter()
        .map(|ty| {
            let flat = ty.commit().unwrap();
            let lo = flat.spans().iter().map(|s| s.offset).min().unwrap();
            let hi = flat.spans().iter().map(|s| s.end()).max().unwrap();
            let block = WBlock::new(at - lo, 1, ty);
            at += hi - lo + pad as i64;
            block
        })
        .collect();
    (blocks, at as usize)
}

/// One side of a block's type: its shape, element width (a power of two)
/// and the gap between elements.
type Side = (usize, usize, usize);

#[derive(Debug, Clone)]
struct Case {
    dims: Vec<usize>,
    offsets: Vec<Vec<i64>>,
    /// Per block: its size in units of 8 bytes, and per side the shape,
    /// element width and gap of its type.
    blocks: Vec<(usize, [Side; 2])>,
    /// Bytes between blocks, and where in place the receive blocks start.
    pad: usize,
    shift: usize,
    lead: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let side = || (0usize..5, 0usize..4, 0usize..5);
    (1usize..=2)
        .prop_flat_map(move |d| {
            (
                proptest::collection::vec(2usize..4, d..=d),
                proptest::collection::vec(proptest::collection::vec(-1i64..2, d..=d), 1..5),
                proptest::collection::vec((1usize..4, (side(), side())), 4..=4),
                0usize..3,
                0usize..200,
                0usize..16,
            )
        })
        .prop_map(|(dims, offsets, blocks, pad, shift, lead)| Case {
            blocks: blocks[..offsets.len()]
                .iter()
                .map(|&(n, (s, r))| (n, [s, r]))
                .collect(),
            dims,
            offsets,
            pad,
            shift,
            lead,
        })
}

impl Case {
    /// The send blocks, the receive blocks of the split run and of the
    /// in-place run, and the buffer lengths: send, receive, in place.
    fn layouts(&self) -> ([Vec<WBlock>; 3], [usize; 3]) {
        let types = |k: usize| -> Vec<Datatype> {
            let ty = |&(n, sides): &(usize, [Side; 2])| {
                let (shape, w, gap) = sides[k];
                hostile(shape, 8 * n, 1 << w, gap)
            };
            self.blocks.iter().map(ty).collect()
        };
        let (send, send_len) = place(&types(0), 0, self.pad);
        let (recv, recv_len) = place(&types(1), 0, self.pad);
        let shift = self.shift % (send_len + 1);
        let (over, over_len) = place(&types(1), shift, self.pad);
        (
            [send, recv, over],
            [send_len, recv_len, send_len.max(over_len)],
        )
    }
}

/// Rank `rank`'s initial bytes of a buffer `len` long; `salt` tells the
/// buffers apart.
fn bytes_of(rank: usize, len: usize, salt: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((rank * 131 + i * 7 + salt * 29) % 251) as u8 + 1)
        .collect()
}

/// What `rank` holds after the exchange: `init`, with every block `i`
/// scattered from what its source's `sent` holds in send block `i`.
fn expected(
    topo: &CartTopology,
    nb: &RelNeighborhood,
    rank: usize,
    (send, recv): (&[WBlock], &[WBlock]),
    sent: impl Fn(usize) -> Vec<u8>,
    mut init: Vec<u8>,
) -> Vec<u8> {
    for (i, src) in sources(topo, nb, rank).into_iter().enumerate() {
        let (s, r) = (send[i].commit().unwrap(), recv[i].commit().unwrap());
        let mut wire = Vec::new();
        gather_append(&sent(src.unwrap()), s.disp, &s.ty, &mut wire).unwrap();
        scatter(&wire, &mut init, r.disp, &r.ty).unwrap();
    }
    init
}

/// `run` on a copy of `body` framed by guard bytes, `lead` of them in
/// front; every guard must be intact afterwards. Returns the body.
fn guarded(body: &[u8], lead: usize, run: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let at = lead..lead + body.len();
    let mut buf = vec![GUARD; at.end + 1 + lead % 7];
    buf[at.clone()].copy_from_slice(body);
    run(&mut buf[at.clone()]);
    let mut outside = buf[..at.start].iter().chain(&buf[at.end..]);
    assert!(outside.all(|&x| x == GUARD), "a guard byte was overwritten");
    buf[at].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hostile_blocks_land_where_the_reference_puts_them(case in arb_case()) {
        let d = case.dims.len();
        let topo = CartTopology::torus(&case.dims).unwrap();
        let nb = RelNeighborhood::new(d, case.offsets.clone()).unwrap();
        let p = topo.size();
        let ([send, recv, over], [send_len, recv_len, buf_len]) = case.layouts();
        // What each rank's split and in-place runs must leave.
        let split = |r| {
            let sent = |s| bytes_of(s, send_len, 0);
            expected(&topo, &nb, r, (&send, &recv), sent, bytes_of(r, recv_len, 1))
        };
        let in_place = |r| {
            let sent = |s| bytes_of(s, buf_len, 2);
            expected(&topo, &nb, r, (&send, &over), sent, bytes_of(r, buf_len, 2))
        };
        let algos = [Algo::Trivial, Algo::Combining];

        // The inline carrier takes send and receive apart: in place, the
        // receive side starts as a copy of the buffers sent from. Per run:
        // the receive blocks, the (length, salt) of the buffers sent from
        // and received into, and what each rank must hold.
        type Want<'a> = &'a dyn Fn(usize) -> Vec<u8>;
        type Run<'a> = (&'a [WBlock], (usize, usize), (usize, usize), Want<'a>);
        let runs: [Run; 2] = [
            (&recv, (send_len, 0), (recv_len, 1), &split),
            (&over, (buf_len, 2), (buf_len, 2), &in_place),
        ];
        let all = |(len, salt)| (0..p).flat_map(|r| bytes_of(r, len, salt)).collect::<Vec<_>>();
        let mut uni = InlineUniverse::new(&case.dims, &vec![true; d], nb.clone())
            .unwrap()
            .with_plan_store(PlanStore::new(2, 8));
        for algo in algos {
            for &(blocks, sent, (len, salt), want) in &runs {
                let lay = w_layouts(&send, blocks, PlanKind::Alltoall).unwrap();
                let got = guarded(&all((len, salt)), case.lead, |out| {
                    uni.run(PlanKind::Alltoall, &lay, None, &all(sent), out, algo).unwrap();
                });
                for (r, got) in got.chunks(len).enumerate() {
                    prop_assert_eq!(got, &want(r)[..], "inline {:?}, rank {}", algo, r);
                }
            }
        }

        for kind in [TransportKind::InProcess, TransportKind::SharedMem] {
            let runs = Universe::builder(p).on(kind).run(|comm| {
                let cart = CartComm::create(comm, &case.dims, &vec![true; d], nb.clone()).unwrap();
                let r = cart.rank();
                let lead = case.lead + r;
                let mut out = Vec::new();
                for algo in algos {
                    let mut h = cart.alltoallw_init(&send, &recv, algo).unwrap();
                    let sent = bytes_of(r, send_len, 0);
                    out.push(guarded(&bytes_of(r, recv_len, 1), lead, |b| {
                        h.execute(&cart, &sent, b).unwrap()
                    }));
                    let mut h = cart.alltoallw_init(&send, &over, algo).unwrap();
                    out.push(guarded(&bytes_of(r, buf_len, 2), lead, |b| {
                        h.execute_in_place(&cart, b).unwrap()
                    }));
                }
                out
            });
            for (r, out) in runs.iter().enumerate() {
                let (want_split, want_in_place) = (split(r), in_place(r));
                for (j, got) in out.iter().enumerate() {
                    let want = if j % 2 == 0 { &want_split } else { &want_in_place };
                    prop_assert_eq!(got, want, "{:?} run {}, rank {}", kind, j, r);
                }
            }
        }
    }
}
