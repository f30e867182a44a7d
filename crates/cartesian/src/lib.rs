//! # cartcomm — Cartesian Collective Communication
//!
//! A from-scratch Rust implementation of *Cartesian Collective
//! Communication* (Träff & Hunold, ICPP 2019): sparse collective
//! communication over processes organized in a d-dimensional torus or mesh,
//! where every process specifies the **same** list of relative coordinate
//! offsets (an *isomorphic t-neighborhood*). Because neighborhoods are
//! isomorphic, every process computes identical, deadlock-free
//! communication schedules **locally, without any communication**
//! (Proposition 3.1).
//!
//! ## What's here
//!
//! * [`CartComm`] — the communicator created by the paper's one new
//!   function, `Cart_neighborhood_create` (Listing 1), carrying the
//!   Cartesian topology, the t-neighborhood, and the [`PlanStore`] its
//!   schedules and programs come from; plus the
//!   Listing 2 helpers (`relative_rank`, `relative_shift`,
//!   `relative_coord`, `neighbor_count`, `neighbor_get`).
//! * [`plan`] — the schedule representation: `d` communication phases of
//!   send-receive rounds over block references that alternate between the
//!   user receive buffer and a temporary buffer (zero-copy execution,
//!   Listing 5).
//! * [`compile`] — the compile stage between planning and execution, and
//!   the only executor: a [`Program`] resolves a schedule over concrete
//!   layouts (tags, wire sizes, memcpy span programs, on a mesh what one
//!   rank's boundary cuts off) and annotates it in passes, a file each:
//!   one hazard walk, the fused form, the fingerprint. One serves all
//!   ranks of a torus; a [`CompiledPlan`] adds one rank's peers. Every
//!   collective, persistent handle and serve job runs these programs:
//!   resolve the plan, look the program up in the [`PlanStore`] (counted
//!   once, on the rank's `Obs`), run it through the one [`execute`] — or,
//!   for all ranks on one thread, [`InlineUniverse::run`]; repeated
//!   executes pay no coordinate math, datatype traversal or allocation.
//! * [`schedule::alltoall`] — Algorithm 1: the message-combining alltoall
//!   schedule (`C = Σ C_k` rounds, volume `V = Σ z_i`, Prop. 3.2).
//! * [`schedule::allgather`] — Algorithm 2: the message-combining allgather
//!   tree schedule (volume = tree edges, Prop. 3.3), with dimensions
//!   processed in increasing `C_k` order.
//! * [`schedule::trivial`] — Listing 4 as a schedule: one single-block
//!   round per neighbor, for all four collectives.
//! * [`ops`] — the collective operations: `Cart_alltoall{,v,w}` and
//!   `Cart_allgather{,v,w}`, each with an [`ops::Algo`] choosing the
//!   trivial (t-round, Listing 4) or the message-combining schedule, plus
//!   persistent `_init` handles; [`reduce`] adds `Cart_reduce_scatter`
//!   and `Cart_allreduce`.
//! * [`inline`] — [`InlineUniverse`]: the compiled program stepped at all
//!   `p` ranks, phase by phase, on the calling thread, with no rank threads,
//!   channels or wake-ups — what a serving process uses to run a whole
//!   job inside one address space.
//! * [`neighbor`] — distributed-graph communicators and the §2.2
//!   detection that such a graph is secretly Cartesian, with its promotion
//!   to a [`CartComm`]. The `MPI_Neighbor_*` baseline is priced by the
//!   simulator and run as the trivial plan.
//! * [`cost`] — round/volume accounting and the latency cut-off
//!   `m < (α/β)·(t−C)/(V−t)` used throughout the evaluation.
//!
//! ## Quick taste
//!
//! ```
//! use cartcomm_comm::Universe;
//! use cartcomm_topo::RelNeighborhood;
//! use cartcomm::ops::Algo;
//! use cartcomm::CartComm;
//!
//! // 9-point stencil halo exchange on a 3x3 torus, one i32 per neighbor.
//! let nb = RelNeighborhood::moore(2, 1).unwrap();
//! Universe::builder(9).run(|comm| {
//!     let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
//!     let send: Vec<i32> = (0..8).map(|i| (cart.rank() * 10 + i) as i32).collect();
//!     let mut recv = vec![0i32; 8];
//!     cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
//!     // Every block arrived from the matching source neighbor.
//!     for i in 0..8 {
//!         let src = cart.relative_shift(cart.neighborhood().offset(i)).unwrap().0.unwrap();
//!         assert_eq!(recv[i], (src * 10 + i) as i32);
//!     }
//! });
//! ```

pub mod cartcomm;
pub mod compile;
pub mod cost;
pub mod error;
pub mod exec;
pub mod halo;
pub mod inline;
pub mod neighbor;
pub mod ops;
pub mod plan;
pub mod plan_store;
pub mod reduce;
pub mod schedule;

pub use crate::cartcomm::CartComm;
pub use compile::{execute, CompiledPlan, ExecScratch, Program};
pub use cost::{cutoff_ratio, CostSummary};
pub use error::{CartError, CartResult};
pub use inline::InlineUniverse;
pub use plan::{BlockRef, Loc, LocalCopy, Plan, PlanKind, PlanPhase, PlanRound, Schedule};
pub use plan_store::{PlanStore, PlanStoreStats};
