//! # cartesian-collectives — facade crate
//!
//! A from-scratch Rust reproduction of *Cartesian Collective Communication*
//! (Träff & Hunold, ICPP 2019). This facade re-exports the workspace
//! crates under one roof; see the individual crates for the full APIs:
//!
//! * [`cartcomm`] — the paper's contribution: `CartComm`, the
//!   message-combining alltoall/allgather schedules, the trivial baseline,
//!   persistent handles, and the §2.2 promotion of distributed graphs.
//! * [`comm`] — the ranks-as-fibers message-passing substrate.
//! * [`topo`] — Cartesian/mesh/torus topologies, neighborhoods, stencils.
//! * [`types`] — the derived-datatype engine (zero-copy gather/scatter).
//! * [`sim`] — the α-β network cost simulator and machine profiles.
//! * [`stats`] — the Appendix-A measurement statistics.
//! * [`obs`] — round-level tracing + metrics (the paper's `C`/`V`
//!   accounting, observed at runtime), and the cross-rank profiler:
//!   global round DAG, critical-path analysis, α-β fitting, Perfetto
//!   export (`obs::profile`, driven by the `cartprof` binary).
//!
//! ```
//! use cartesian_collectives::prelude::*;
//!
//! let nb = RelNeighborhood::moore(2, 1).unwrap();
//! let outs = Universe::builder(9).run(|comm| {
//!     let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
//!     let send: Vec<i32> = (0..8).map(|i| i as i32).collect();
//!     let mut recv = vec![0i32; 8];
//!     cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
//!     recv
//! });
//! assert_eq!(outs.len(), 9);
//! ```

pub use cartcomm;
pub use cartcomm_comm as comm;
pub use cartcomm_obs as obs;
pub use cartcomm_sim as sim;
pub use cartcomm_stats as stats;
pub use cartcomm_topo as topo;
pub use cartcomm_types as types;

/// The most commonly used items in one import.
pub mod prelude {
    pub use cartcomm::neighbor::DistGraphComm;
    pub use cartcomm::ops::{Algo, PersistentCollective, WBlock};
    pub use cartcomm::{CartComm, CartError, CartResult};
    pub use cartcomm_comm::{Comm, ExchangeBatch, ProfiledRun, SpawnRole, TransportKind, Universe};
    pub use cartcomm_obs::{
        AlphaBetaFit, CriticalPath, MetricsDelta, Obs, PerfettoExport, RingBufferSink, RoundDag,
        TraceCollector, TraceEvent,
    };
    pub use cartcomm_topo::{dims_create, CartTopology, DistGraphTopology, RelNeighborhood};
    pub use cartcomm_types::{Datatype, FlatType, Primitive};
}
