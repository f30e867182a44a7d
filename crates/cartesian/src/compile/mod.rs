//! Schedule compilation: executable programs and the ranks' views of them.
//!
//! A [`Plan`](crate::plan::Plan) is rank-independent and symbolic. A
//! [`Program`] resolves it **once** for concrete `(topology, layouts)` —
//! what the paper's persistent `_init` operations (Listing 3) exist for —
//! and, like the plan, is the same for every process of an isomorphic
//! neighborhood on a torus (Prop 3.1): one `Arc<Program>` serves all ranks.
//! A [`CompiledPlan`] is one rank's view of it, the program plus that
//! rank's peer table, and the only form a schedule is executed in.
//!
//! [`Program::compile`] builds the bare program (`program`: tags, wire
//! sizes, span programs, copies, and on a mesh what the rank's boundary
//! class cuts off), then runs the passes that annotate it, a file each:
//! the one `hazard` walk, the `fuse`d form of every phase it proves
//! apart, and that form's identity (`fingerprint`, beside the structural
//! hash goldens pin). `exec` holds the halves both carriers step a program
//! through and the threaded carrier, [`execute`]: zero heap allocation,
//! zero coordinate math and zero datatype traversal in steady state.

mod exec;
mod fingerprint;
mod fuse;
mod hazard;
mod program;

pub use exec::{execute, ExecScratch};
pub use program::{CompiledPlan, Program};

pub(crate) use exec::{check_reducer, copy_runs, too_small, Bases, Credit, Mem, RankExec};
pub(crate) use fingerprint::Fnv;
pub(crate) use fuse::FusedRun;
pub(crate) use program::boundary_class;
#[cfg(test)]
pub(crate) use {fingerprint::buf_tag, program::BufId};

/// Helpers the passes' unit tests share.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecLayouts;
    use crate::ops::{regular_layouts, size_temp};
    use crate::plan::Plan;
    use crate::schedule::alltoall_plan;
    use cartcomm_topo::{CartTopology, RelNeighborhood};

    /// `rank`'s program for `plan` over `m`-byte contiguous blocks.
    pub(super) fn compile(topo: &CartTopology, rank: usize, plan: &Plan, m: usize) -> CompiledPlan {
        let lay = regular_layouts(plan.t, m, plan.kind);
        let lay = size_temp(lay, plan.kind, plan.temp_slots).unwrap();
        CompiledPlan::compile(topo, rank, plan, &lay, 0x100).unwrap()
    }

    /// Rounds with a send half, and with a receive half.
    pub(super) fn halves(cp: &CompiledPlan) -> (usize, usize) {
        let peers = cp.round_peers();
        (
            peers.iter().filter(|p| p.0.is_some()).count(),
            peers.iter().filter(|p| p.1.is_some()).count(),
        )
    }

    /// An alltoall on a 2×2×2 torus whose own block is a one-element-wide
    /// face of an `n × n × 2` f64 tile: it leaves from face 0 and arrives
    /// at face `into`.
    pub(super) fn strided_self_block(n: usize, into: usize) -> (CartTopology, Plan, ExecLayouts) {
        use cartcomm_types::Datatype;
        let topo = CartTopology::torus(&[2, 2, 2]).unwrap();
        let nb = RelNeighborhood::new(3, vec![vec![0, 0, 0], vec![0, 0, 1]]).unwrap();
        let face = |z: usize| {
            let ty = Datatype::subarray(&[n, n, 2], &[n, n, 1], &[0, 0, z], &Datatype::double());
            crate::ops::WBlock::new(0, 1, &ty.unwrap())
        };
        let (out, into) = ([face(0), face(0)], [face(into), face(into)]);
        let plan = alltoall_plan(&nb);
        let lay = crate::ops::w_layouts(&out, &into, plan.kind).unwrap();
        let lay = size_temp(lay, plan.kind, plan.temp_slots).unwrap();
        (topo, plan, lay)
    }
}
