//! Structured observability for the cartesian-collectives stack.
//!
//! The paper's analytical quantities — the round count `C = Σ_k C_k`
//! (Prop. 3.2), the communication volume `V = Σ_i z_i` (Prop. 3.3), and
//! the cut-off block size `m < (α/β)·(t−C)/(V−t)` — are exactly what a
//! communication stack must *observe* to pick algorithms at runtime. This
//! crate is the substrate for that: every communicator carries an [`Obs`]
//! handle through which the executors report what actually happened, in
//! the same units the schedule constructions predict.
//!
//! Three layers, each usable on its own:
//!
//! * **[`MetricsRegistry`]** — always-on relaxed atomic counters (rounds,
//!   wire bytes, matched messages, pack spans, pool and plan-cache
//!   traffic) plus a `stats::histogram` round-latency distribution that is
//!   only touched while tracing is enabled. A [`MetricsSnapshot`] is a
//!   plain-data copy.
//! * **[`TraceEvent`]/[`RingBufferSink`]** — typed round-level events
//!   ([`TraceEvent::RoundStart`]/[`TraceEvent::RoundEnd`] with the phase
//!   dimension, peer ranks, and wire bytes; [`TraceEvent::PackSpan`];
//!   pool and plan-cache hits/misses; [`TraceEvent::ExchangeMatched`])
//!   delivered to the one sink type, a bounded in-memory ring that
//!   [`TraceCollector`] reads.
//! * **[`now_ns`]** — one process-wide time origin stamps every record,
//!   so the records of every [`Obs`] handle in a process compare.
//! * **[`profile`]** — post-run cross-rank analysis: [`TraceCollector`]
//!   pairs every rank's `RoundStart`/`RoundEnd` stream into a global
//!   [`RoundDag`] of send→recv wires; [`CriticalPath`] extracts the
//!   rank/round chain bounding the makespan plus per-phase skew and
//!   straggler ranking; [`AlphaBetaFit`] least-squares-fits round latency
//!   against wire bytes into α̂/β̂ and the paper's cut-off `m*`;
//!   [`PerfettoExport`] renders the DAG as Chrome trace-event JSON.
//!
//! # Disabled-path guarantees
//!
//! Tracing is off until a sink is attached. With tracing disabled, the
//! per-event cost on the hot path is **one relaxed atomic load and a
//! predictable branch** — no clock read, no event construction, no lock.
//! The registry's plain counters stay on unconditionally; they are the
//! same cost class as the pre-existing pool/fabric telemetry (a relaxed
//! `fetch_add`). What an attached sink costs a whole collective is
//! `cartbench`'s `obs.traced_over_untraced`.
//!
//! # JSON
//!
//! [`json`] is the stack's one JSON writer and reader: the Perfetto
//! export, the daemon's profile report and the bench tools' baselines are
//! written through [`json::JsonWriter`] and read back through
//! [`json::parse`].

mod event;
pub mod json;
mod metrics;
mod obs;
pub mod openmetrics;
pub mod profile;
mod sink;
pub mod tenant;

pub use event::{ServeStageKind, TraceEvent, TraceRecord};
pub use metrics::{MetricsDelta, MetricsRegistry, MetricsSnapshot, RoundTally};
pub use obs::{now_ns, Obs};
pub use openmetrics::OpenMetricsWriter;
pub use profile::{
    price, AlphaBetaFit, CriticalPath, MsgNode, PerfettoExport, PhaseSkew, RoundDag, TraceCollector,
};
pub use sink::RingBufferSink;
pub use tenant::{StageDist, TenantRegistry, TenantStats};
