//! The typed trace-event taxonomy.
//!
//! Events mirror the paper's accounting units: one
//! [`TraceEvent::RoundStart`]/[`TraceEvent::RoundEnd`] pair per
//! communication round (so a schedule's observed round count can be
//! checked against `C = Σ_k C_k`, Prop. 3.2), with `wire_bytes` carrying
//! the exact packed message size (so observed volume can be checked
//! against `V·m`, Prop. 3.3). The remaining events expose the machinery
//! around the rounds: datatype packing, buffer-pool traffic, plan-cache
//! traffic, and receive-slot matching.

/// One structured observability event.
///
/// All ranks and sizes are in the units the executors use internally:
/// ranks are communicator ranks, bytes are payload bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A communication round is about to issue: the wire message for
    /// `to` has been packed. `phase` is the schedule phase (the dimension
    /// `k` for Cartesian schedules), `round` the round index within the
    /// whole schedule.
    RoundStart {
        /// Schedule phase (dimension `k`).
        phase: usize,
        /// Round index within the schedule.
        round: usize,
        /// Destination rank of this round's send.
        to: usize,
        /// Source rank of this round's receive.
        from: usize,
        /// Packed wire-message size in bytes.
        wire_bytes: usize,
        /// Delivery attempt of this round's wire message: always `0`, as
        /// every link delivers once.
        attempt: u32,
    },
    /// The matching round completed: the inbound message from `from` has
    /// been received and scattered.
    RoundEnd {
        /// Schedule phase (dimension `k`).
        phase: usize,
        /// Round index within the schedule.
        round: usize,
        /// Destination rank of this round's send.
        to: usize,
        /// Source rank of this round's receive.
        from: usize,
        /// Received wire-message size in bytes.
        wire_bytes: usize,
        /// Delivery attempt that completed the round: always `0` (see
        /// [`TraceEvent::RoundStart::attempt`]).
        attempt: u32,
    },
    /// A wire message was packed (gathered) from `spans` source ranges
    /// totalling `bytes` bytes.
    PackSpan {
        /// Round index the pack belongs to.
        round: usize,
        /// Number of contiguous memory spans gathered.
        spans: usize,
        /// Total bytes packed.
        bytes: usize,
    },
    /// A reduction round's incoming wire message was unpacked through the
    /// accumulate kernels: `spans` destination ranges combined (or
    /// first-touch assigned) from `bytes` wire bytes. The reduce-side
    /// mirror of [`TraceEvent::PackSpan`].
    AccumSpan {
        /// Round index the accumulation belongs to.
        round: usize,
        /// Number of contiguous destination spans touched.
        spans: usize,
        /// Total wire bytes folded in.
        bytes: usize,
    },
    /// A wire-buffer acquisition was served from the pool's free list.
    PoolHit {
        /// Requested capacity in bytes.
        bytes: usize,
    },
    /// A wire-buffer acquisition had to allocate.
    PoolMiss {
        /// Requested capacity in bytes.
        bytes: usize,
    },
    /// A compiled-plan lookup hit the communicator's plan cache.
    PlanCacheHit {
        /// Low 64 bits of the layout fingerprint.
        fingerprint: u64,
    },
    /// A compiled-plan lookup missed and compiled.
    PlanCacheMiss {
        /// Low 64 bits of the layout fingerprint.
        fingerprint: u64,
    },
    /// An inbound message was matched to a posted receive slot of a phase
    /// exchange.
    ExchangeMatched {
        /// Sender rank.
        src: usize,
        /// Message tag.
        tag: u32,
        /// Payload bytes.
        bytes: usize,
        /// Receive-slot index the message matched.
        slot: usize,
    },
    /// A serving-layer job crossed a lifecycle stage. Emitted by the
    /// daemon's own `Obs` (rank 0 by convention — the daemon is a single
    /// control plane, not a rank), so request-lifecycle traces share the
    /// sink with executor traces.
    ServeStage {
        /// Daemon-assigned job id, monotonically increasing per process.
        job: u64,
        /// Which stage boundary was crossed.
        stage: ServeStageKind,
        /// Stage-specific detail: jobs waiting at accept, 1 at
        /// coalesce/dispatch, ranks at execute, total ns at reply.
        detail: u64,
    },
}

/// A serving-layer job-lifecycle stage — the `stage` payload of
/// [`TraceEvent::ServeStage`]. The daemon stamps each job at every
/// boundary on its own clock, so per-stage durations (queue wait,
/// coalesce delay, execute, reply) are differences of consecutive stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeStageKind {
    /// The job passed admission and has a start on the daemon's pace.
    Accepted,
    /// The job's start has come (the name is the wire's, and older than
    /// the daemon that runs every job alone).
    Coalesced,
    /// The job has a resident universe to run on.
    Dispatched,
    /// All ranks finished executing the job's collective.
    Executed,
    /// The result frame was written back to the client.
    Replied,
}

impl ServeStageKind {
    /// Stable numeric code.
    pub fn code(self) -> u64 {
        match self {
            ServeStageKind::Accepted => 0,
            ServeStageKind::Coalesced => 1,
            ServeStageKind::Dispatched => 2,
            ServeStageKind::Executed => 3,
            ServeStageKind::Replied => 4,
        }
    }
}

/// A timestamped, rank-attributed [`TraceEvent`] as delivered to sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since the process's origin ([`crate::now_ns`]).
    pub t_ns: u64,
    /// Rank that emitted the event.
    pub rank: usize,
    /// The event payload.
    pub event: TraceEvent,
}
