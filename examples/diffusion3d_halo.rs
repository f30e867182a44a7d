//! 3-D diffusion with the §3.4 composite halo exchange and a global
//! residual via tree-combining neighborhood reduction.
//!
//! Run with: `cargo run --example diffusion3d_halo`
//!
//! A 12³ global grid is distributed over a 2×2×2 torus of ranks. Each
//! iteration refreshes the full 26-neighbor halo with [`HaloExchange`] —
//! **6 messages per rank instead of 26**, corners and edges riding inside
//! the face slabs — then applies a 7-point diffusion update. Every few
//! iterations, each rank accumulates its neighbors' local residuals with
//! `neighbor_allreduce` (the §2.2 extension) to drive a local convergence
//! check. Verified against a single-process reference and the
//! reduction's closed form.

use cartcomm::halo::HaloExchange;
use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::Universe;
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::{Datatype, RedOp};

const P: usize = 2; // ranks per dimension
const N: usize = 6; // interior cells per rank per dimension
const G: usize = P * N;
const STEPS: usize = 30;

fn idx3(r: usize, c: usize, z: usize, w: usize) -> usize {
    (r * w + c) * w + z
}

fn initial(g: [usize; 3]) -> f64 {
    ((g[0] * 7 + g[1] * 13 + g[2] * 29) % 23) as f64
}

fn reference() -> Vec<f64> {
    let mut cur = vec![0.0f64; G * G * G];
    for r in 0..G {
        for c in 0..G {
            for z in 0..G {
                cur[idx3(r, c, z, G)] = initial([r, c, z]);
            }
        }
    }
    let mut next = cur.clone();
    for _ in 0..STEPS {
        for r in 0..G {
            for c in 0..G {
                for z in 0..G {
                    let at = |dr: i64, dc: i64, dz: i64| {
                        let rr = (r as i64 + dr).rem_euclid(G as i64) as usize;
                        let cc = (c as i64 + dc).rem_euclid(G as i64) as usize;
                        let zz = (z as i64 + dz).rem_euclid(G as i64) as usize;
                        cur[idx3(rr, cc, zz, G)]
                    };
                    next[idx3(r, c, z, G)] = 0.4 * at(0, 0, 0)
                        + 0.1
                            * (at(-1, 0, 0)
                                + at(1, 0, 0)
                                + at(0, -1, 0)
                                + at(0, 1, 0)
                                + at(0, 0, -1)
                                + at(0, 0, 1));
                }
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

fn main() {
    let w = N + 2;
    let dims = [P, P, P];
    let topo = CartTopology::torus(&dims).unwrap();
    let nb_moore = RelNeighborhood::moore(3, 1).unwrap();

    let outputs = Universe::builder(P * P * P).run(|comm| {
        let mut halo = HaloExchange::new(comm, &dims, &[N, N, N], 1, &Datatype::double()).unwrap();
        // A separate CartComm for the residual reduction over all 26
        // Moore neighbors.
        let cart = CartComm::create(comm, &dims, &[true, true, true], nb_moore.clone()).unwrap();

        let coords = topo.coords_of(comm.rank());
        let mut tile = vec![0.0f64; w * w * w];
        let mut next = tile.clone();
        for r in 0..N {
            for c in 0..N {
                for z in 0..N {
                    tile[idx3(r + 1, c + 1, z + 1, w)] =
                        initial([coords[0] * N + r, coords[1] * N + c, coords[2] * N + z]);
                }
            }
        }

        // (own, neighborhood) residuals at the last convergence check.
        let mut residual = (0.0f64, 0.0f64);
        for step in 0..STEPS {
            {
                let bytes = cartcomm_types::cast_slice_mut(&mut tile);
                halo.exchange(bytes).unwrap();
            }
            let mut local_residual = 0.0f64;
            for r in 1..=N {
                for c in 1..=N {
                    for z in 1..=N {
                        let v = 0.4 * tile[idx3(r, c, z, w)]
                            + 0.1
                                * (tile[idx3(r - 1, c, z, w)]
                                    + tile[idx3(r + 1, c, z, w)]
                                    + tile[idx3(r, c - 1, z, w)]
                                    + tile[idx3(r, c + 1, z, w)]
                                    + tile[idx3(r, c, z - 1, w)]
                                    + tile[idx3(r, c, z + 1, w)]);
                        local_residual += (v - tile[idx3(r, c, z, w)]).abs();
                        next[idx3(r, c, z, w)] = v;
                    }
                }
            }
            for r in 1..=N {
                for c in 1..=N {
                    for z in 1..=N {
                        tile[idx3(r, c, z, w)] = next[idx3(r, c, z, w)];
                    }
                }
            }
            if step % 10 == 9 {
                // Sum the residuals of this rank and its 26 neighbors: a
                // local convergence indicator without a global barrier.
                let mut sum = [0.0f64];
                cart.neighbor_allreduce(RedOp::Sum, &[local_residual], &mut sum, Algo::Combining)
                    .unwrap();
                residual = (local_residual, sum[0]);
            }
        }
        (coords, tile, residual)
    });

    // stitch + verify
    let expect = reference();
    let mut max_err = 0.0f64;
    for (coords, tile, _) in &outputs {
        for r in 0..N {
            for c in 0..N {
                for z in 0..N {
                    let g = idx3(coords[0] * N + r, coords[1] * N + c, coords[2] * N + z, G);
                    let err = (tile[idx3(r + 1, c + 1, z + 1, w)] - expect[g]).abs();
                    max_err = max_err.max(err);
                }
            }
        }
    }
    // The reduction's closed form: own residual + the 26 neighbors'.
    for (rank, (_, _, (own, sum))) in outputs.iter().enumerate() {
        let expect = nb_moore.offsets().iter().fold(*own, |acc, off| {
            let src = topo.rank_of_offset(rank, off).unwrap().unwrap();
            acc + outputs[src].2 .0
        });
        assert!(
            (sum - expect).abs() <= 1e-12 * expect.abs(),
            "rank {rank}: neighborhood residual {sum} != {expect}"
        );
    }
    println!("diffusion3d_halo: {G}^3 grid on {P}x{P}x{P} ranks, {STEPS} steps");
    println!("  halo: 6 messages/rank/iteration (vs 26 for the naive Moore exchange)");
    println!(
        "  neighborhood residual at last check: {:.3}",
        outputs[0].2 .1
    );
    println!("  max |error| vs single-process reference: {max_err:.3e}");
    assert!(max_err < 1e-9, "distributed must match the reference");
    println!("  OK — distributed and sequential solutions agree.");
}
