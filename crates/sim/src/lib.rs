//! # cartcomm-sim — network cost simulation for cluster-scale experiments
//!
//! The paper evaluates on 1152-process Hydra (Skylake + OmniPath) and
//! 16384-process Titan (Cray XK7 + Gemini) installations. This crate is the
//! substitute substrate: it prices communication schedules under the same
//! linear cost model the paper's analysis uses — latency `α` plus transfer
//! time `β` per byte, single-port full-duplex — so that the *shape* of
//! every figure (who wins, by what factor, where the cut-over block size
//! falls) is reproduced by construction, at any process count.
//!
//! Components:
//!
//! * [`model`] — the `α`-`β` [`model::LinearModel`]: a machine's two
//!   constants handed to `cartcomm_obs::price`, the one function that
//!   prices a schedule from its per-round wire bytes.
//! * [`machine`] — calibrated [`machine::MachineProfile`]s for the paper's
//!   systems (Table 2), including per-MPI-library *quirk* models that
//!   emulate the pathological `MPI_Neighbor_*` overheads the paper observed
//!   (Figures 3–4) — disabled by default, because they are implementation
//!   defects rather than algorithmic effects.
//! * [`noise`] — system-noise injection for the run-time distribution study
//!   (Figure 7): per-round maxima over `p` ranks of outlier delays.
//!
//! Pricing is the whole simulation: the combining schedules are
//! isomorphic — every rank runs the same rounds in lockstep — so a
//! schedule's cost is the sum of its rounds' costs.

pub mod machine;
pub mod model;
pub mod noise;

pub use machine::{BaselineQuirks, MachineProfile};
pub use model::LinearModel;
pub use noise::NoiseModel;
