//! Cross-rank profiling: the global round DAG and its analyses.
//!
//! The executors' per-rank [`crate::TraceEvent`] streams already carry
//! everything the paper's evaluation (§4) asks about — each
//! `RoundStart`/`RoundEnd` pair names the phase, the round index within
//! the schedule, both peer ranks, and the exact wire bytes. What no
//! single rank can answer is the *cross-rank* questions: which rank/round
//! chain bounds the makespan, how observed round latency scales with
//! message size, and whether the measured cut-off block size matches
//! Prop. 3.2's `m < (α/β)·(t−C)/(V−t)`.
//!
//! This module answers them after the run, from the drained sinks:
//!
//! * [`TraceCollector`] pairs sender-side `RoundStart` events with
//!   receiver-side `RoundEnd` events across ranks (key: phase, round,
//!   src, dst) into directed wire nodes and assembles the global
//!   [`RoundDag`].
//! * [`CriticalPath`] walks the DAG backwards from the last arrival,
//!   alternating wire hops and same-rank serialization hops, yielding the
//!   chain that bounds the makespan, plus per-phase skew ([`PhaseSkew`])
//!   and a straggler ranking.
//! * [`AlphaBetaFit`] least-squares-fits observed round latency against
//!   wire bytes into `α̂ + β̂·bytes`, the linear cost model the paper's
//!   cut-off analysis assumes, and converts the fit into a measured
//!   cut-off `m*` given a schedule's `(t−C)/(V−t)` ratio; beside it,
//!   [`price`] is the model itself: `Σ (α + β·bytes)` over a schedule's
//!   rounds, the one function everything that prices a plan calls.
//! * [`PerfettoExport`] renders the DAG as Chrome trace-event JSON — one
//!   track per rank, flow arrows for wires, counter tracks for pool and
//!   plan-cache traffic — loadable in `ui.perfetto.dev`.
//!
//! Timestamps are cross-rank comparable because every [`crate::Obs`] of a
//! process stamps from one origin ([`crate::now_ns`]).

mod collect;
mod critical;
mod fit;
mod perfetto;

pub use collect::{MsgNode, RoundDag, TraceCollector};
pub use critical::{CriticalPath, PhaseSkew, RankActivity};
pub use fit::{price, AlphaBetaFit};
pub use perfetto::PerfettoExport;
