//! # cartcomm-serve — a multi-tenant collective service
//!
//! The serving layer over the cartesian-collectives stack: a daemon
//! (`cartserve`) owns resident universes — inline ones, which the thread
//! of the connection a job arrived on steps itself — and a process-wide
//! plan store; clients own data and submit complete jobs — topology,
//! isomorphic neighborhood, operation, algorithm, and the send buffers of
//! every rank — over a length-prefixed wire protocol (the same frame
//! format the rank-to-rank socket transport uses).
//!
//! Why a service: the paper's schedules are *identity-keyed* artifacts.
//! Two tenants asking for the same `(topology, neighborhood, operation
//! shape)` need the same schedule and the same compiled program, and
//! the [`cartcomm::PlanStore`] shares both process-wide. A
//! resident daemon turns that sharing into an operational property:
//! tenant B's first job runs entirely on plans tenant A paid to compile,
//! and the per-tenant observed-vs-predicted table
//! ([`cartcomm_obs::TenantRegistry`]) makes the attribution visible.
//!
//! * [`proto`] — message types, the [`proto::JobSpec`] job description,
//!   and its wire encoding.
//! * [`server`] — the daemon: listener, bounded admission, the pace,
//!   inline execution where a job was decoded, per-tenant accounting,
//!   graceful drain.
//! * [`client`] — a blocking client with `BUSY` backoff.
//! * [`reference`] — the daemon-free ground-truth executor (trivial
//!   algorithm, isolated store) that byte-identity checks compare
//!   against.

pub mod client;
pub mod exporter;
pub mod proto;
pub mod reference;
pub mod server;

pub use client::{Client, Submission};
pub use exporter::MetricsInputs;
pub use proto::{AlgoSpec, JobSpec, OpSpec, ProfileSpec, Reply, Request, PROTO_VERSION};
pub use server::{Endpoint, ServeConfig, Server, ServerCounters};
