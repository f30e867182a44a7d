//! The cartserve daemon: resident universes executing jobs from many
//! tenants, behind admission control and a pace.
//!
//! ## Data flow
//!
//! One listener thread accepts connections (Unix-domain or TCP); each
//! connection gets a thread that decodes [`Request`]
//! frames and answers them, and nothing else runs: a daemon with `k` open
//! connections is `k + 1` threads. Control requests (`HELLO`, `PING`,
//! `METRICS`, `SHUTDOWN`) are answered inline, and so is `SUBMIT`: **a job
//! runs where it was decoded**. `submit` carries it from the frame to the
//! reply on the connection's thread — so a tenant that sends a huge job,
//! or does not read its replies, holds up its own connection and no other.
//! A job's payload stays in the pooled buffer its frame was read into —
//! straight off the socket, not through a staging copy (see
//! [`crate::proto`]) — and its reply is written from the buffer the
//! ranks scattered into, which the connection's next job reuses: in
//! steady state nothing the size of a job is allocated per job, and every
//! byte of it is held once.
//!
//! **Admission.** What connections share is the *floor*: one short lock
//! over a count of jobs in flight, the pace and the resident universes. A
//! `SUBMIT` is validated, then counted in — unless the daemon is draining
//! or holds [`MAX_TENANTS`] tenants and not the job's (`ERR`), or
//! [`ServeConfig::queue_cap`] jobs are in flight already, which
//! is answered with `BUSY` and a retry-after hint rather than buffered:
//! the client owns the backoff. In flight means admitted and not yet
//! replied to; a connection has at most one such job.
//!
//! **The pace.** Counting a job in reserves its start on the daemon's one
//! clock: each job holds the next one's start off for 200 µs, whatever it
//! moves, so that the rate closed-loop clients are served at is set by a
//! clock and not by how the scheduler happens to interleave their
//! threads; a job that finds the daemon idle starts at once (see
//! `JOB_GAP`). The connection thread sleeps until its start has come.
//!
//! **Execution.** The thread takes the [`InlineUniverse`] of the job's
//! topology and neighborhood off the floor (or makes one) and steps all
//! ranks' compiled programs through it itself — either algorithm, torus
//! or mesh — scattering every rank's result straight into the reply
//! buffer: no rank thread, channel or wake-up. The first job of a shape
//! compiles its program (one for all ranks of a torus, one per boundary
//! class on a mesh) and the rest — of other tenants, on other connections — ride the
//! warm cache, which is the serving-side payoff of the process-wide
//! [`PlanStore`] (schedules and compiled programs are keyed by identity,
//! not by owner). Every rank's execution is attributed to the job's
//! tenant: its metrics delta plus the analytical round count `C`
//! (Prop. 3.2) and wire volume `V·m` (Prop. 3.3) of the schedule that ran
//! are folded into a shared [`TenantRegistry`], which the metrics document
//! (`METRICS`, `GET /metrics`) carries per tenant. A job that fails (or
//! panics) in the executor is answered with `ERR` and costs its universe —
//! and nothing else. A reply that cannot be written within
//! `WRITE_TIMEOUT` ends its connection.
//!
//! **Drain** (`SHUTDOWN` or [`Server::shutdown`]): new submissions are
//! refused, the jobs in flight are replied to, and only then is
//! `SHUTDOWN_OK` sent and the process free to exit.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use cartcomm::exec::ExecLayouts;
use cartcomm::ops::{regular_layouts, v_layouts, w_layouts, WBlock};
use cartcomm::plan::{Plan, PlanKind};
use cartcomm::{CartComm, InlineUniverse, PlanStore};
use cartcomm_comm::PooledBuf;
use cartcomm_obs::tenant::STAGE_COUNT;
use cartcomm_obs::{
    json::JsonWriter, AlphaBetaFit, CriticalPath, MetricsSnapshot, Obs, PerfettoExport,
    RingBufferSink, ServeStageKind, TenantRegistry, TraceCollector, TraceEvent, TraceRecord,
};
use cartcomm_topo::RelNeighborhood;
use cartcomm_types::{Datatype, Reducer};

use crate::exporter::{self, MetricsInputs};
use crate::proto::{
    self, JobSpec, OpSpec, ProfileSpec, RecvBuf, Reply, Request, PROTO_VERSION, TAG_RESULT,
    TAG_SUBMIT,
};

/// Default per-rank ring-sink capacity for attach profiling, when the
/// `PROFILE` request leaves `ring_capacity` at 0.
const DEFAULT_PROFILE_CAPACITY: usize = 1 << 15;

/// Default wall-clock budget for attach profiling, when the `PROFILE`
/// request leaves `duration_ms` at 0.
const DEFAULT_PROFILE_DURATION_MS: u32 = 30_000;

/// How many tenants the daemon keeps accounts for: a job of a tenant it
/// does not hold is refused once it holds this many. Jobs in flight when
/// the bound is reached add at most `queue_cap` more.
pub const MAX_TENANTS: usize = 1024;

/// The pace: under load the daemon starts no more than one job per
/// `JOB_GAP`, however many bytes it moves. A daemon that starts a job the
/// moment it is decoded serves closed-loop clients at whatever rate the
/// thread scheduler settles on: with two of them, how their jobs
/// interleave flips from one second to the next, and the jobs/s with it
/// (14 000–27 000 for 3 KiB jobs on two cores). Paced below what the
/// machine saturates at, the rate is the pace whatever the machine is
/// doing; between starts the cores belong to the connection threads
/// taking in the next job. A job that finds the daemon idle starts at
/// once: the gap only ever delays a job that follows another.
const JOB_GAP: Duration = Duration::from_micros(200);

/// How long a reply may sit unwritten before its connection is given up:
/// a client that does not read must not hold a thread, or the drain.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// The admission clock: when the next job may start (see [`JOB_GAP`]).
struct Pacer {
    next: Instant,
}

impl Pacer {
    /// The start of a job admitted at `now`: when the schedule says, or at
    /// once if that has passed. The job after it is due a gap after this
    /// one was — not after it was admitted, so a late arrival does not
    /// stretch the period — unless this one came a whole gap late (an idle
    /// daemon): then the schedule restarts here.
    fn reserve(&mut self, now: Instant) -> Instant {
        let due = if now.saturating_duration_since(self.next) < JOB_GAP {
            self.next
        } else {
            now
        };
        self.next = due + JOB_GAP;
        due.max(now)
    }
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission bound: jobs admitted and not yet replied to (at most one
    /// per connection); a `SUBMIT` beyond this is refused with `BUSY`.
    pub queue_cap: usize,
    /// How many resident universes stay warm between jobs: one per
    /// topology + neighborhood, and one more of it for every job that ran
    /// beside another of the same.
    pub max_universes: usize,
    /// The retry-after hint (ms) sent with `BUSY`.
    pub busy_retry_ms: u32,
    /// Optional plain-HTTP listener address (e.g. `127.0.0.1:0`) serving
    /// `GET /metrics` in OpenMetrics text, so standard scrapers work
    /// without speaking the wire protocol.
    pub metrics_http: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_cap: 64,
            max_universes: 4,
            busy_retry_ms: 5,
            metrics_http: None,
        }
    }
}

/// Where a server is listening.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// Unix-domain socket path.
    Uds(PathBuf),
    /// TCP socket address.
    Tcp(SocketAddr),
}

/// A snapshot of the daemon's lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Jobs admitted.
    pub jobs_submitted: u64,
    /// Jobs refused with `BUSY` (`queue_cap` jobs in flight).
    pub jobs_rejected: u64,
    /// Jobs refused because the daemon was draining.
    pub jobs_drained: u64,
    /// Jobs whose result (or error) was sent.
    pub jobs_completed: u64,
    /// Executions on a universe: one per job that got that far.
    pub batches_executed: u64,
    /// Jobs that shared an execution with another: none do, it stays 0
    /// (the metrics document and the benchmark still read it).
    pub jobs_coalesced: u64,
}

#[derive(Default)]
struct Counters {
    jobs_submitted: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_drained: AtomicU64,
    jobs_completed: AtomicU64,
    batches_executed: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServerCounters {
        ServerCounters {
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            jobs_drained: self.jobs_drained.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            batches_executed: self.batches_executed.load(Ordering::Relaxed),
            jobs_coalesced: 0,
        }
    }
}

/// The write half of an accepted socket. Only its connection's thread
/// writes to it.
type Wire = Box<dyn Write + Send>;

/// Where a profile session's deferred `PROFILE_OK` waits for the
/// connection that registered it: whichever thread settles the session
/// parks the reply here, and the connection's own thread writes it at its
/// next read tick — so an observer that does not read holds up nobody
/// else's thread.
type Deferred = Arc<Mutex<Option<(u32, Reply)>>>;

/// Write one reply. A frame that fails, or is not taken within
/// [`WRITE_TIMEOUT`], may be half written: that is the end of the
/// connection, and `false`.
fn send_reply(wire: &mut Wire, ctx: u32, reply: &Reply) -> bool {
    reply.write_frame(ctx, wire).is_ok()
}

/// A `RESULT` reply, its payload written from where it lies.
fn send_result(wire: &mut Wire, ctx: u32, payload: &[u8]) -> bool {
    proto::write_frame(wire, ctx, TAG_RESULT, &[], payload).is_ok()
}

/// Write the `PROFILE_OK` the connection is owed, if its session has
/// settled.
fn send_deferred(conn: &mut Conn) -> bool {
    let parked = conn
        .deferred
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take();
    parked.is_none_or(|(ctx, reply)| send_reply(&mut conn.wire, ctx, &reply))
}

fn err_reply(message: impl Into<String>) -> Reply {
    Reply::Err {
        message: message.into(),
    }
}

/// A job's send buffers, all ranks' back to back: the tail of its
/// `SUBMIT` body, left in the wire buffer the frame was decoded into. The
/// buffer returns to its connection's pool when the job is done.
struct Payload {
    body: PooledBuf,
    at: usize,
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.body[self.at..]
    }
}

/// One live attach-profiling session (at most one at a time).
///
/// Registered by the connection thread handling `PROFILE`; the thread that
/// runs a matching job claims a capture for it and deposits every rank's
/// captured stream after the job ran, and [`maybe_finalize_profile`] parks
/// the deferred `PROFILE_OK` for the observer once the budget is spent (or
/// the deadline passes).
struct ProfileSession {
    tenant: String,
    /// Remaining job budget; `None` means "until the deadline".
    jobs_left: Option<u32>,
    /// Daemon-clock deadline in ns.
    deadline_ns: u64,
    /// Per-rank ring-sink capacity.
    capacity: usize,
    /// Embed a Perfetto trace of the last captured job in the reply.
    want_trace: bool,
    captures: Vec<JobCapture>,
    /// Where (and under which request id) the deferred reply is parked.
    reply: Deferred,
    ctx: u32,
}

/// The captured record streams of one profiled job.
struct JobCapture {
    ranks: usize,
    per_rank: Vec<Vec<TraceRecord>>,
    /// Ring-overflow losses summed over ranks.
    dropped: u64,
    /// How many ranks have deposited; the capture is complete at `ranks`.
    deposits: usize,
    /// Analytical predictions (Props. 3.2/3.3), reported by rank 0.
    c_pred: u64,
    v_pred: u64,
}

impl JobCapture {
    fn new(ranks: usize) -> JobCapture {
        JobCapture {
            ranks,
            per_rank: vec![Vec::new(); ranks],
            dropped: 0,
            deposits: 0,
            c_pred: 0,
            v_pred: 0,
        }
    }
}

/// What the connection threads share under one short lock.
struct Floor {
    pacer: Pacer,
    /// Jobs admitted and not yet replied to.
    in_flight: usize,
    /// Those of them whose start has not come.
    waiting: usize,
    /// Test hook: no job starts, so a burst can pile up and be observed.
    paused: bool,
    /// The universes no job is running on; a job takes one that [`fits`] it.
    universes: Lru<InlineUniverse>,
}

struct Shared {
    cfg: ServeConfig,
    floor: Mutex<Floor>,
    /// Signalled when `paused` is cleared (a start may have come) and when
    /// the last job in flight leaves a draining daemon.
    floor_cv: Condvar,
    /// Refuse new submissions. Set and read under the floor lock, so a job
    /// is either refused or counted in before [`drain`] counts.
    draining: AtomicBool,
    /// No job is in flight and none will be: [`drain`] is through.
    drained: AtomicBool,
    /// Listener and connection threads should stop.
    stop_io: AtomicBool,
    tenants: Arc<TenantRegistry>,
    counters: Counters,
    store: Arc<PlanStore>,
    /// Process start, for uptime reporting.
    started: Instant,
    /// Monotonic job ids.
    job_seq: AtomicU64,
    /// Daemon-side observability handle: request-lifecycle
    /// [`TraceEvent::ServeStage`] events are emitted here (rank 0), so a
    /// host-attached sink sees the full accepted→replied stream.
    obs: Arc<Obs>,
    /// The live attach-profiling session, if any.
    profile: Mutex<Option<ProfileSession>>,
    /// Gauge: ring sinks currently attached to rank `Obs` handles.
    profile_sinks: AtomicU64,
}

impl Shared {
    fn floor(&self) -> MutexGuard<'_, Floor> {
        self.floor.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The daemon clock: the process's one origin, which every lifecycle
    /// stamp, `obs`'s stage events and every profiled rank sink share.
    fn now_ns(&self) -> u64 {
        cartcomm_obs::now_ns()
    }

    fn emit_stage(&self, job_id: u64, stage: ServeStageKind, detail: u64) {
        self.obs.emit(
            0,
            TraceEvent::ServeStage {
                job: job_id,
                stage,
                detail,
            },
        );
    }

    /// The OpenMetrics document served on `METRICS` and `GET /metrics`.
    fn openmetrics(&self) -> String {
        // Each lock is let go before the render, which formats every tenant.
        let queue_depth = self.floor().waiting;
        let profile = self.profile.lock().unwrap_or_else(|e| e.into_inner());
        let profile_active = profile.is_some();
        drop(profile);
        exporter::render(&MetricsInputs {
            version: env!("CARGO_PKG_VERSION"),
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            counters: self.counters.snapshot(),
            queue_depth,
            draining: self.draining.load(Ordering::Acquire),
            plan_store: self.store.stats(),
            profile_active,
            profile_sinks_installed: self.profile_sinks.load(Ordering::Relaxed),
            tenants: &self.tenants,
        })
    }
}

/// A running cartserve daemon. Dropping the handle does **not** stop the
/// daemon — call [`Server::shutdown`] (host side) or send the wire
/// `SHUTDOWN` command and then [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    listener: Option<thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    /// Unlink the socket path on shutdown.
    uds_path: Option<PathBuf>,
    /// The plain-HTTP metrics listener, when configured.
    metrics_thread: Option<thread::JoinHandle<()>>,
    metrics_addr: Option<SocketAddr>,
}

enum AnyListener {
    Uds(UnixListener),
    Tcp(TcpListener),
}

impl Server {
    /// Bind a Unix-domain socket at `path` (replacing a stale socket
    /// file) and start serving.
    pub fn bind_uds(path: impl AsRef<Path>, cfg: ServeConfig) -> io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Self::start(
            AnyListener::Uds(listener),
            Endpoint::Uds(path.clone()),
            Some(path),
            cfg,
        )
    }

    /// Bind a TCP socket at `addr` (e.g. `127.0.0.1:0`) and start
    /// serving. The chosen address is available via [`Server::endpoint`].
    pub fn bind_tcp(addr: &str, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Self::start(AnyListener::Tcp(listener), Endpoint::Tcp(local), None, cfg)
    }

    fn start(
        listener: AnyListener,
        endpoint: Endpoint,
        uds_path: Option<PathBuf>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let metrics_http = cfg.metrics_http.clone();
        let shared = Arc::new(Shared {
            floor: Mutex::new(Floor {
                pacer: Pacer {
                    next: Instant::now(),
                },
                in_flight: 0,
                waiting: 0,
                paused: false,
                universes: Lru::new(cfg.max_universes),
            }),
            floor_cv: Condvar::new(),
            cfg,
            draining: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            stop_io: AtomicBool::new(false),
            tenants: Arc::new(TenantRegistry::new()),
            counters: Counters::default(),
            store: PlanStore::global(),
            started: Instant::now(),
            job_seq: AtomicU64::new(0),
            obs: Arc::new(Obs::new()),
            profile: Mutex::new(None),
            profile_sinks: AtomicU64::new(0),
        });
        let conns: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        // Bind the optional /metrics HTTP listener up front so a bad
        // address fails server startup rather than a background thread.
        let mut metrics_thread = None;
        let mut metrics_addr = None;
        if let Some(addr) = metrics_http {
            let http = TcpListener::bind(&addr)?;
            http.set_nonblocking(true)?;
            metrics_addr = Some(http.local_addr()?);
            let shared = Arc::clone(&shared);
            metrics_thread = Some(
                thread::Builder::new()
                    .name("cartserve-metrics".into())
                    .spawn(move || metrics_http_loop(http, &shared))?,
            );
        }

        let listener_thread = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            thread::Builder::new()
                .name("cartserve-listen".into())
                .spawn(move || listener_loop(listener, &shared, &conns))?
        };

        Ok(Server {
            shared,
            endpoint,
            listener: Some(listener_thread),
            conns,
            uds_path,
            metrics_thread,
            metrics_addr,
        })
    }

    /// Where the daemon is listening.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The shared per-tenant observed-vs-predicted registry.
    pub fn tenants(&self) -> &Arc<TenantRegistry> {
        &self.shared.tenants
    }

    /// Lifetime counters.
    pub fn counters(&self) -> ServerCounters {
        self.shared.counters.snapshot()
    }

    /// The plan store jobs execute against (the process-wide store).
    pub fn plan_store(&self) -> &Arc<PlanStore> {
        &self.shared.store
    }

    /// Jobs admitted whose start has not come.
    pub fn queue_depth(&self) -> usize {
        self.shared.floor().waiting
    }

    /// The OpenMetrics text the wire `METRICS` command (and the HTTP
    /// listener, when configured) returns.
    pub fn metrics_text(&self) -> String {
        self.shared.openmetrics()
    }

    /// Where `GET /metrics` is served, when [`ServeConfig::metrics_http`]
    /// was set (useful with port 0).
    pub fn metrics_endpoint(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The daemon-side observability handle carrying request-lifecycle
    /// [`TraceEvent::ServeStage`] events (a test/host hook: attach a sink
    /// to watch the accepted→replied stream).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.shared.obs
    }

    /// Test hook: start no job until [`Server::resume_dispatch`], so a
    /// burst of submissions piles up where [`Server::queue_depth`] and the
    /// admission bound see it.
    pub fn pause_dispatch(&self) {
        self.shared.floor().paused = true;
    }

    /// Release [`Server::pause_dispatch`].
    pub fn resume_dispatch(&self) {
        self.shared.floor().paused = false;
        self.shared.floor_cv.notify_all();
    }

    /// Host-side graceful drain: refuse new submissions, reply to the
    /// jobs in flight, stop the I/O threads, unlink the socket.
    pub fn shutdown(mut self) {
        drain(&self.shared);
        self.join_all();
    }

    /// Wait for a wire-initiated `SHUTDOWN` to finish draining, then
    /// reap threads. Blocks until then.
    pub fn wait(mut self) {
        while !self.shared.drained.load(Ordering::Acquire) {
            thread::sleep(Duration::from_millis(10));
        }
        self.join_all();
    }

    fn join_all(&mut self) {
        self.shared.stop_io.store(true, Ordering::Release);
        // The listener sleeps in `accept`: one connection to the daemon's
        // own endpoint wakes it, and it finds `stop_io` set. Should the
        // endpoint be gone (a socket file someone unlinked), nothing can
        // reach the listener any more and its thread is left behind.
        let woken = match &self.endpoint {
            Endpoint::Uds(path) => UnixStream::connect(path).is_ok(),
            Endpoint::Tcp(addr) => TcpStream::connect(addr).is_ok(),
        };
        if let Some(l) = self.listener.take().filter(|_| woken) {
            let _ = l.join();
        }
        if let Some(m) = self.metrics_thread.take() {
            let _ = m.join();
        }
        let handles = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
        if let Some(path) = self.uds_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ----- listener + per-connection threads ----------------------------------------

fn listener_loop(
    listener: AnyListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
) {
    loop {
        // Blocks until a client — or `join_all`'s wake-up — connects, so a
        // new connection is served as soon as it is made.
        let accepted: io::Result<(Box<dyn Read + Send>, Wire)> = match &listener {
            AnyListener::Uds(l) => l.accept().and_then(|(s, _)| {
                s.set_read_timeout(Some(Duration::from_millis(50)))?;
                s.set_write_timeout(Some(WRITE_TIMEOUT))?;
                let w = s.try_clone()?;
                Ok((Box::new(s) as _, Box::new(w) as _))
            }),
            AnyListener::Tcp(l) => l.accept().and_then(|(s, _)| {
                s.set_read_timeout(Some(Duration::from_millis(50)))?;
                s.set_write_timeout(Some(WRITE_TIMEOUT))?;
                s.set_nodelay(true)?;
                let w = s.try_clone()?;
                Ok((Box::new(s) as _, Box::new(w) as _))
            }),
        };
        if shared.stop_io.load(Ordering::Acquire) {
            return;
        }
        let mut conns = conns.lock().unwrap_or_else(|e| e.into_inner());
        // Connections that have closed since the last accept: joining
        // gives their threads' stacks back, and the list stays as long as
        // the connections that are open.
        for closed in conns.extract_if(.., |h| h.is_finished()) {
            let _ = closed.join();
        }
        match accepted {
            Ok((reader, writer)) => {
                let shared = Arc::clone(shared);
                let handle = thread::Builder::new()
                    .name("cartserve-conn".into())
                    .spawn(move || connection_loop(reader, writer, &shared));
                if let Ok(h) = handle {
                    conns.push(h);
                }
            }
            // Out of descriptors, or the like: give it time to pass.
            Err(_) => {
                drop(conns);
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// What a connection's thread keeps from one request to the next.
struct Conn {
    wire: Wire,
    /// The `PROFILE_OK` of a session this connection registered, once it
    /// has settled.
    deferred: Deferred,
    /// The tenant set by HELLO; SUBMIT may override per request.
    hello_tenant: Option<String>,
    /// The reply payload this connection's jobs scatter into, one after
    /// the other: it is written to the socket before the next job runs.
    result: Vec<u8>,
}

fn connection_loop(mut reader: Box<dyn Read + Send>, wire: Wire, shared: &Shared) {
    let mut conn = Conn {
        wire,
        deferred: Deferred::default(),
        hello_tenant: None,
        result: Vec::new(),
    };
    // A frame arrives in a buffer of `buf`'s pool. A job keeps the buffer
    // of its `SUBMIT` until it is done, then the buffer goes back there.
    let mut buf = RecvBuf::new();

    loop {
        // Every complete frame that has arrived. A `SUBMIT` is taken apart
        // here, so that its payload stays where it was read.
        while let Some(env) = buf.next_frame() {
            let ctx = env.ctx;
            let open = if env.tag == TAG_SUBMIT {
                proto::decode_submit_head(&env.data).map(|(tenant, spec, at)| {
                    let payload = Payload { body: env.data, at };
                    submit(tenant, spec, payload, ctx, &mut conn, shared)
                })
            } else {
                Request::decode_env(&env).map(|req| handle_request(req, ctx, &mut conn, shared))
            };
            if !open.unwrap_or_else(|msg| send_reply(&mut conn.wire, ctx, &err_reply(msg))) {
                return;
            }
        }

        // A profile session whose budget a job just spent, or whose
        // deadline passed while the daemon was idle: every connection
        // looks once per read, and the read ticks. Its reply is written
        // by the observer's own connection, here. `stop_io` is read
        // first: a session `drain` settled is parked by the time it is set.
        maybe_finalize_profile(shared, false);
        let stopping = shared.stop_io.load(Ordering::Acquire);
        if !send_deferred(&mut conn) || stopping {
            return;
        }
        match buf.fill(&mut *reader) {
            Ok(0) => return, // client hung up, or a reply to it failed
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return,
        }
    }
}

/// Handle one request; returns whether the connection stays open (it
/// closes after a completed `SHUTDOWN`, or a reply that failed).
fn handle_request(req: Request, ctx: u32, conn: &mut Conn, shared: &Shared) -> bool {
    let reply = match req {
        Request::Hello { tenant } => {
            conn.hello_tenant = Some(tenant);
            Reply::HelloOk {
                version: PROTO_VERSION,
            }
        }
        Request::Ping { payload } => Reply::Pong { payload },
        Request::Metrics => Reply::MetricsOk {
            text: shared.openmetrics(),
        },
        // Registered, its reply is deferred — once the reply of a session
        // registered before it, which it must not park over, is out.
        Request::Profile { spec } => {
            if !send_deferred(conn) {
                return false;
            }
            match register_profile(spec, ctx, &conn.deferred, shared) {
                Ok(()) => return true,
                Err(msg) => err_reply(msg),
            }
        }
        // (The connection loop takes `SUBMIT` frames apart itself, to
        // leave the payload where it was decoded.)
        Request::Submit {
            tenant,
            spec,
            payload,
        } => {
            let payload = Payload {
                body: payload.into(),
                at: 0,
            };
            return submit(tenant, spec, payload, ctx, conn, shared);
        }
        Request::Shutdown => {
            drain(shared);
            // A session this connection registered has settled by now.
            if send_deferred(conn) {
                send_reply(&mut conn.wire, ctx, &Reply::ShutdownOk);
            }
            return false;
        }
    };
    send_reply(&mut conn.wire, ctx, &reply)
}

/// Register an attach-profiling session. The reply is **deferred**: the
/// session keeps where the connection expects it, the threads that run
/// the tenant's jobs capture them, and [`maybe_finalize_profile`] parks
/// `PROFILE_OK` there once the budget is spent or the deadline passes.
/// Other tenants are never paused.
fn register_profile(
    spec: ProfileSpec,
    ctx: u32,
    reply: &Deferred,
    shared: &Shared,
) -> Result<(), String> {
    spec.validate()?;
    let duration_ms = if spec.duration_ms > 0 {
        spec.duration_ms
    } else {
        DEFAULT_PROFILE_DURATION_MS
    };
    let capacity = if spec.ring_capacity > 0 {
        spec.ring_capacity as usize
    } else {
        DEFAULT_PROFILE_CAPACITY
    };
    let session = ProfileSession {
        tenant: spec.tenant,
        jobs_left: if spec.jobs > 0 { Some(spec.jobs) } else { None },
        deadline_ns: shared.now_ns() + duration_ms as u64 * 1_000_000,
        capacity,
        want_trace: spec.include_trace,
        captures: Vec::new(),
        reply: Arc::clone(reply),
        ctx,
    };
    let mut prof = shared.profile.lock().unwrap_or_else(|e| e.into_inner());
    // Read under the lock `drain` settles the session under: a session is
    // either refused here or settled there.
    if shared.draining.load(Ordering::Acquire) {
        return Err("daemon is draining".into());
    }
    if prof.is_some() {
        return Err("a profile session is already active".into());
    }
    *prof = Some(session);
    Ok(())
}

/// Structural validation of a `SUBMIT`, before anything is spent on it.
fn check_job(tenant: &str, spec: &JobSpec, payload: &[u8]) -> Result<(), String> {
    if tenant.is_empty() {
        return Err("no tenant named (send HELLO or put one in SUBMIT)".into());
    }
    proto::check_tenant_len(tenant)?;
    spec.validate()?;
    // The neighborhood must construct (isomorphism preconditions are
    // checked rank-side, but arity/duplicate problems surface here,
    // before a universe is spent on the job).
    build_neighborhood(spec).map_err(|e| format!("bad neighborhood: {e:?}"))?;
    let want = spec.ranks() * spec.send_bytes_per_rank();
    if payload.len() != want {
        return Err(format!(
            "payload is {} bytes, spec needs {want}",
            payload.len()
        ));
    }
    Ok(())
}

pub(crate) fn build_neighborhood(
    spec: &JobSpec,
) -> Result<RelNeighborhood, cartcomm_topo::TopoError> {
    RelNeighborhood::new(spec.dims.len(), spec.offsets.clone())
}

// ----- a job, from its frame to its reply ---------------------------------------

/// A few resident values in recency order, least recently used first.
struct Lru<V> {
    cap: usize,
    entries: Vec<V>,
}

impl<V> Lru<V> {
    fn new(cap: usize) -> Self {
        Lru {
            cap: cap.max(1),
            entries: Vec::new(),
        }
    }

    /// Make `value` resident (most recently used), pushing the least
    /// recently used one out if the cache was full.
    fn insert(&mut self, value: V) {
        if self.entries.len() >= self.cap {
            self.entries.remove(0);
        }
        self.entries.push(value);
    }

    /// Take the most recently used value that satisfies `wanted` out.
    fn take(&mut self, wanted: impl Fn(&V) -> bool) -> Option<V> {
        let at = self.entries.iter().rposition(wanted)?;
        Some(self.entries.remove(at))
    }
}

/// Carry one job from its decoded `SUBMIT` to its reply, on the thread of
/// its connection: admission, the wait for its paced start, execution on
/// a resident universe, accounting, the reply. A `SUBMIT` that names no
/// tenant runs under the connection's `HELLO` one. A job that fails — or
/// panics — in the executor gets an `ERR` reply and its universe is
/// dropped; the connection, and the daemon, carry on. Returns whether the
/// connection stays open (its reply was written).
fn submit(
    tenant: String,
    spec: JobSpec,
    payload: Payload,
    ctx: u32,
    conn: &mut Conn,
    shared: &Shared,
) -> bool {
    let tenant = if tenant.is_empty() {
        conn.hello_tenant.clone().unwrap_or_default()
    } else {
        tenant
    };
    if let Err(msg) = check_job(&tenant, &spec, &payload) {
        return send_reply(&mut conn.wire, ctx, &err_reply(msg));
    }
    let p = spec.ranks();
    let counters = &shared.counters;

    // Admission: refused, or counted in with a start on the pace. A new
    // tenant is admitted under the floor lock, so that only the jobs in
    // flight can take the registry past `MAX_TENANTS`.
    let mut floor = shared.floor();
    if !shared.tenants.admits(&tenant, MAX_TENANTS) {
        drop(floor);
        let msg = format!("the daemon holds {MAX_TENANTS} tenants, and not this one");
        return send_reply(&mut conn.wire, ctx, &err_reply(msg));
    }
    let refused = if shared.draining.load(Ordering::Acquire) {
        Some((&counters.jobs_drained, err_reply("daemon is draining")))
    } else if floor.in_flight >= shared.cfg.queue_cap {
        let retry_after_ms = shared.cfg.busy_retry_ms;
        Some((&counters.jobs_rejected, Reply::Busy { retry_after_ms }))
    } else {
        None
    };
    if let Some((counter, reply)) = refused {
        drop(floor);
        counter.fetch_add(1, Ordering::Relaxed);
        return send_reply(&mut conn.wire, ctx, &reply);
    }
    floor.in_flight += 1;
    floor.waiting += 1;
    let depth = floor.waiting as u64;
    let start = floor.pacer.reserve(Instant::now());
    drop(floor);
    let job_id = shared.job_seq.fetch_add(1, Ordering::Relaxed);
    let accepted_ns = shared.now_ns();
    counters.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    shared.emit_stage(job_id, ServeStageKind::Accepted, depth);

    // The wait for the start, which takes the topology's universe along.
    let mut floor = shared.floor();
    loop {
        let wait = start.saturating_duration_since(Instant::now());
        floor = if floor.paused {
            shared
                .floor_cv
                .wait(floor)
                .unwrap_or_else(|e| e.into_inner())
        } else if !wait.is_zero() {
            let timed = shared.floor_cv.wait_timeout(floor, wait);
            timed.unwrap_or_else(|e| e.into_inner()).0
        } else {
            break;
        };
    }
    floor.waiting -= 1;
    let resident = floor.universes.take(|uni| fits(uni, &spec));
    drop(floor);
    let started_ns = shared.now_ns();
    shared.emit_stage(job_id, ServeStageKind::Coalesced, 1);

    let universe = resident.map_or_else(|| new_universe(&spec, shared), Ok);
    let dispatched_ns = shared.now_ns();
    shared.emit_stage(job_id, ServeStageKind::Dispatched, 1);

    let mut clean = None;
    let outcome = universe.and_then(|mut uni| {
        // A live profile session that wants this tenant (and has budget
        // and time left) gets a capture of the job: the job runs with one
        // ring sink per rank attached. They come off after the unwind
        // boundary, so a panicking job still deposits and the session
        // still settles.
        let claim = claim_capture(shared, &tenant, p);
        let sinks: Option<Vec<_>> = claim.map(|(_, capacity)| {
            (0..p)
                .map(|rank| attach_sink(uni.obs(rank), shared, capacity))
                .collect()
        });
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_inline(&mut uni, shared, &tenant, &spec, &payload, &mut conn.result)
        }))
        .unwrap_or_else(|_| Err("job panicked in the inline executor".into()));
        if let (Some((ci, _)), Some(sinks)) = (claim, sinks) {
            let predicted = run.as_ref().ok().copied();
            for (rank, sink) in sinks.iter().enumerate() {
                detach_sink(uni.obs(rank), shared, sink, (ci, rank), predicted);
            }
        }
        clean = run.is_ok().then_some(uni);
        run.map(|_| &conn.result[..])
    });
    let executed_ns = shared.now_ns();
    shared.emit_stage(job_id, ServeStageKind::Executed, p as u64);

    // Everything a client could read back is settled before its reply
    // goes out (the reply stage clocks what happens between the executor
    // and the write, not the write).
    let stamps = [accepted_ns, started_ns, dispatched_ns, executed_ns];
    finish_job(shared, job_id, &tenant, stamps);
    let open = match outcome {
        Ok(result) => send_result(&mut conn.wire, ctx, result),
        Err(msg) => send_reply(&mut conn.wire, ctx, &err_reply(msg)),
    };

    let mut floor = shared.floor();
    if let Some(uni) = clean {
        floor.universes.insert(uni);
    }
    floor.in_flight -= 1;
    if floor.in_flight == 0 && shared.draining.load(Ordering::Acquire) {
        shared.floor_cv.notify_all();
    }
    open
}

/// Reserve a capture of a `ranks`-rank job of `tenant` in the live profile
/// session, if there is one and it wants the job: the capture's index and
/// the session's per-rank ring capacity.
fn claim_capture(shared: &Shared, tenant: &str, ranks: usize) -> Option<(usize, usize)> {
    let mut prof = shared.profile.lock().unwrap_or_else(|e| e.into_inner());
    let sess = prof.as_mut()?;
    let wanted =
        sess.tenant == tenant && sess.jobs_left != Some(0) && shared.now_ns() < sess.deadline_ns;
    wanted.then(|| {
        sess.jobs_left = sess.jobs_left.map(|n| n - 1);
        sess.captures.push(JobCapture::new(ranks));
        (sess.captures.len() - 1, sess.capacity)
    })
}

/// An inline universe for `spec`'s topology and neighborhood, on the
/// daemon's plan store.
fn new_universe(spec: &JobSpec, shared: &Shared) -> Result<InlineUniverse, String> {
    let nb = build_neighborhood(spec).map_err(|e| format!("{e:?}"))?;
    let uni = InlineUniverse::new(&spec.dims, &spec.periods, nb).map_err(|e| format!("{e:?}"))?;
    Ok(uni.with_plan_store(Arc::clone(&shared.store)))
}

/// Execute one job on `uni` and attribute every rank's metrics delta,
/// with the analytical `C`/`V·m` prediction of the schedule that ran (none
/// if the job did not get that far), to the job's tenant. All ranks'
/// receive buffers are scattered straight into `result`, the reply
/// payload; returns the prediction.
fn run_inline(
    uni: &mut InlineUniverse,
    shared: &Shared,
    tenant: &str,
    spec: &JobSpec,
    payload: &[u8],
    result: &mut Vec<u8>,
) -> Result<(u64, u64), String> {
    let (kind, lay, red) = job_layouts(spec).map_err(|e| format!("{e:?}"))?;
    let p = uni.size();
    let before: Vec<MetricsSnapshot> = (0..p).map(|rank| uni.obs(rank).snapshot()).collect();
    result.clear();
    result.resize(p * spec.recv_bytes_per_rank(), 0);
    let run = uni.run(kind, &lay, red, payload, result, spec.algo.to_algo());
    let (c_pred, v_pred) = run.as_ref().map_or((0, 0), |plan| predict(spec, plan));
    for (rank, before) in before.iter().enumerate() {
        let delta = uni.obs(rank).metrics().delta_since(before);
        shared.tenants.record_job(tenant, c_pred, v_pred, &delta);
    }
    run.map(|_| (c_pred, v_pred)).map_err(|e| format!("{e:?}"))
}

/// A job's operation as an [`InlineUniverse`] takes it: the plan kind, one
/// rank's buffer layouts and — for the reductions — the reducer.
type JobShape = (PlanKind, ExecLayouts, Option<Reducer>);

/// `spec`'s operation as a [`JobShape`]. Counts and displacements arrive
/// in the client's element units and are scaled to bytes here, so rank
/// buffers are plain `u8` regardless of the tenant's element type.
fn job_layouts(spec: &JobSpec) -> cartcomm::CartResult<JobShape> {
    let t = spec.neighbor_count();
    let byte = Datatype::byte();
    let blocks = |v: &[(i64, usize)]| {
        v.iter()
            .map(|&(disp, count)| WBlock::new(disp, count, &byte))
            .collect::<Vec<_>>()
    };
    Ok(match &spec.op {
        OpSpec::Alltoallv {
            elem_size,
            sendcounts,
            senddispls,
            recvcounts,
            recvdispls,
        } => (
            PlanKind::Alltoall,
            v_layouts(
                *elem_size,
                sendcounts,
                senddispls,
                recvcounts,
                recvdispls,
                PlanKind::Alltoall,
            )?,
            None,
        ),
        OpSpec::Allgatherv {
            elem_size,
            sendcount,
            recvdispls,
        } => (
            PlanKind::Allgather,
            v_layouts(
                *elem_size,
                &[*sendcount],
                &[0],
                &vec![*sendcount; t],
                recvdispls,
                PlanKind::Allgather,
            )?,
            None,
        ),
        OpSpec::Alltoallw {
            send_blocks,
            recv_blocks,
        } => (
            PlanKind::Alltoall,
            w_layouts(
                &blocks(send_blocks),
                &blocks(recv_blocks),
                PlanKind::Alltoall,
            )?,
            None,
        ),
        OpSpec::Allgatherw {
            send_block,
            recv_blocks,
        } => (
            PlanKind::Allgather,
            w_layouts(
                &blocks(std::slice::from_ref(send_block)),
                &blocks(recv_blocks),
                PlanKind::Allgather,
            )?,
            None,
        ),
        OpSpec::ReduceScatter { red, count } => (
            PlanKind::ReduceScatter,
            regular_layouts(t, count * red.width(), PlanKind::ReduceScatter),
            Some(*red),
        ),
        OpSpec::Allreduce { red, count } => (
            PlanKind::Allreduce,
            regular_layouts(t, count * red.width(), PlanKind::Allreduce),
            Some(*red),
        ),
    })
}

/// Attach a fresh ring sink to one rank's `Obs`.
fn attach_sink(obs: &Obs, shared: &Shared, capacity: usize) -> Arc<RingBufferSink> {
    let sink = Arc::new(RingBufferSink::new(capacity));
    obs.attach_sink(Arc::clone(&sink));
    shared.profile_sinks.fetch_add(1, Ordering::Relaxed);
    sink
}

/// Detach `sink` from `rank`'s `Obs` and deposit what it captured (and,
/// if the job succeeded, its analytical prediction) into capture `ci` of
/// the live profile session.
fn detach_sink(
    obs: &Obs,
    shared: &Shared,
    sink: &RingBufferSink,
    (ci, rank): (usize, usize),
    predicted: Option<(u64, u64)>,
) {
    obs.detach_sink();
    shared.profile_sinks.fetch_sub(1, Ordering::Relaxed);
    let records = sink.take();
    let dropped = sink.dropped();
    let mut prof = shared.profile.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(cap) = prof.as_mut().and_then(|sess| sess.captures.get_mut(ci)) {
        cap.per_rank[rank] = records;
        cap.dropped += dropped;
        cap.deposits += 1;
        if let Some((c_pred, v_pred)) = predicted {
            cap.c_pred = c_pred;
            cap.v_pred = v_pred;
        }
    }
}

/// Close out one job before its reply is written: count it and record
/// its stage durations, from the stamps taken when it was accepted, when
/// its start had come, when it had its universe and when it had run.
fn finish_job(shared: &Shared, job_id: u64, tenant: &str, stamps: [u64; STAGE_COUNT]) {
    let counters = &shared.counters;
    counters.batches_executed.fetch_add(1, Ordering::Relaxed);
    counters.jobs_completed.fetch_add(1, Ordering::Relaxed);
    let replied_ns = shared.now_ns();
    let [accepted_ns, started_ns, dispatched_ns, executed_ns] = stamps;
    let stage_ns = [
        started_ns.saturating_sub(accepted_ns),
        dispatched_ns.saturating_sub(started_ns),
        executed_ns.saturating_sub(dispatched_ns),
        replied_ns.saturating_sub(executed_ns),
    ];
    shared.tenants.record_stages(tenant, stage_ns);
    let total_ns = replied_ns.saturating_sub(accepted_ns);
    shared.emit_stage(job_id, ServeStageKind::Replied, total_ns);
}

/// Refuse new submissions, wait until every job in flight has been
/// replied to, and settle a live profile session (every claimed capture
/// has deposited by then). What [`Server::shutdown`] and the wire
/// `SHUTDOWN` both do; a second call finds nothing left to do.
fn drain(shared: &Shared) {
    let mut floor = shared.floor();
    floor.paused = false;
    shared.draining.store(true, Ordering::Release);
    shared.floor_cv.notify_all();
    while floor.in_flight > 0 {
        floor = shared
            .floor_cv
            .wait(floor)
            .unwrap_or_else(|e| e.into_inner());
    }
    drop(floor);
    maybe_finalize_profile(shared, true);
    shared.drained.store(true, Ordering::Release);
}

// ----- attach profiling ---------------------------------------------------------

/// Settle the live session if it is finished — the job budget is spent
/// (or the deadline passed) *and* every claimed capture has all its rank
/// deposits — and park its `PROFILE_OK` for the observer's connection to
/// write. `force` (drain) settles the session unconditionally — by then no
/// job is in flight. The reply is rendered and parked under the profile
/// lock, so once `drain` has passed that lock it is parked.
fn maybe_finalize_profile(shared: &Shared, force: bool) {
    let mut prof = shared.profile.lock().unwrap_or_else(|e| e.into_inner());
    let Some(sess) = prof.as_ref() else { return };
    let now = shared.now_ns();
    let budget_spent = sess.jobs_left == Some(0);
    let deadline_hit = now >= sess.deadline_ns;
    let all_deposited = sess.captures.iter().all(|c| c.deposits == c.ranks);
    if !(force || ((budget_spent || deadline_hit) && all_deposited)) {
        return;
    }
    let session = prof.take().expect("checked above");
    let (json, trace) = profile_report(&session);
    let reply = Reply::ProfileOk { json, trace };
    *session.reply.lock().unwrap_or_else(|e| e.into_inner()) = Some((session.ctx, reply));
}

/// Render a finished session into the `PROFILE_OK` JSON summary (schema
/// `cartserve-profile-v1`) plus an optional Perfetto trace of the last
/// captured job. Each capture is paired into its own [`RoundDag`] and
/// validated against the analytical round count `C` (Prop. 3.2) and wire
/// volume `V·m` (Prop. 3.3) rank 0 reported at execution time.
fn profile_report(session: &ProfileSession) -> (String, Vec<u8>) {
    let mut rounds_ok = true;
    let mut volume_ok = true;
    let mut clean_pairing = true;
    let mut dropped_total: u64 = 0;
    // The verdicts precede the rows in the document and follow from them.
    let mut jobs = JsonWriter::new();
    jobs.arr();
    let mut samples: Vec<(u64, u64)> = Vec::new();
    let mut last: Option<(TraceCollector, cartcomm_obs::RoundDag)> = None;

    for cap in &session.captures {
        let mut collector = TraceCollector::from_ranks(cap.per_rank.clone());
        collector.note_dropped(cap.dropped);
        let dag = collector.build();

        let sends = dag.sends_per_rank();
        let bytes = dag.sent_bytes_per_rank();
        let job_rounds_ok =
            cap.deposits == cap.ranks && sends.iter().all(|&s| s as u64 == cap.c_pred);
        let job_volume_ok = cap.deposits == cap.ranks && bytes.iter().all(|&b| b == cap.v_pred);
        let job_clean = dag.unpaired_starts == 0 && dag.unpaired_ends == 0;
        rounds_ok &= job_rounds_ok;
        volume_ok &= job_volume_ok;
        clean_pairing &= job_clean;
        dropped_total += cap.dropped;
        samples.extend(dag.latency_samples());

        jobs.obj().key("c_pred").raw(cap.c_pred);
        jobs.key("v_pred_bytes").raw(cap.v_pred);
        jobs.key("sends_per_rank").list(&sends);
        jobs.key("sent_bytes_per_rank").list(&bytes);
        jobs.key("unpaired_starts").raw(dag.unpaired_starts);
        jobs.key("unpaired_ends").raw(dag.unpaired_ends);
        jobs.key("dropped").raw(cap.dropped);
        jobs.key("makespan_ns").raw(dag.makespan_ns()).end();
        last = Some((collector, dag));
    }
    jobs.end();

    let captured = session.captures.len();
    let all_ok = captured > 0 && rounds_ok && volume_ok && clean_pairing;
    let mut w = JsonWriter::new();
    w.obj().key("schema").str("cartserve-profile-v1");
    w.key("tenant").str(&session.tenant);
    w.key("jobs_captured").raw(captured);
    w.key("dropped_records").raw(dropped_total);
    w.key("rounds_ok").raw(rounds_ok);
    w.key("volume_ok").raw(volume_ok);
    w.key("clean_pairing").raw(clean_pairing);
    w.key("all_checks_passed").raw(all_ok);
    w.key("jobs").raw(jobs.finish());

    // A live service sees same-size jobs, so the α-β fit over a capture
    // set is often rank-deficient; `degenerate` is reported but does NOT
    // gate the pass verdict — only the paper invariants do.
    let fit = AlphaBetaFit::fit(&samples);
    w.key("fit").obj().key("alpha_ns").float(fit.alpha_ns, 6);
    w.key("beta_ns_per_byte").float(fit.beta_ns_per_byte, 6);
    w.key("samples").raw(fit.samples);
    w.key("distinct_sizes").raw(fit.distinct_sizes);
    w.key("degenerate").raw(fit.degenerate).end();

    let mut trace = Vec::new();
    w.key("critical_path");
    match &last {
        Some((collector, dag)) => {
            let cp = CriticalPath::of(dag);
            w.obj().key("steps").raw(cp.steps.len());
            w.key("makespan_ns").raw(cp.makespan_ns).end();
            if session.want_trace {
                trace = PerfettoExport::new(dag)
                    .with_counters(collector.records())
                    .with_process_name("cartserve-live")
                    .to_json()
                    .into_bytes();
            }
        }
        None => {
            w.null();
        }
    }
    w.end();
    (w.finish(), trace)
}

// ----- /metrics HTTP listener ---------------------------------------------------

/// How long one `/metrics` request may take to arrive, all reads
/// together: a client that trickles its request holds the listener (and
/// with it every other scraper and the daemon's shutdown) no longer.
const HTTP_REQUEST_DEADLINE: Duration = Duration::from_millis(500);

/// Minimal HTTP/1.1 loop for `GET /metrics`: enough for Prometheus-style
/// scrapers and `curl`, with no framework dependency. Anything but
/// `GET /metrics` (the path alone, or with a query) is a 404; the loop
/// exits with the daemon's I/O stop.
fn metrics_http_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.stop_io.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                let deadline = Instant::now() + HTTP_REQUEST_DEADLINE;
                let mut req = Vec::new();
                let mut chunk = [0u8; 1024];
                while !req.windows(4).any(|w| w == b"\r\n\r\n") && req.len() < 16 * 1024 {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
                        break;
                    }
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => req.extend_from_slice(&chunk[..n]),
                    }
                }
                let line = req
                    .split(|&b| b == b'\r' || b == b'\n')
                    .next()
                    .map(|l| String::from_utf8_lossy(l).into_owned())
                    .unwrap_or_default();
                let target = line.strip_prefix("GET /metrics");
                let (status, body) = if target.is_some_and(|t| t.starts_with([' ', '?'])) {
                    ("200 OK", shared.openmetrics())
                } else {
                    ("404 Not Found", String::new())
                };
                let response = format!(
                    concat!(
                        "HTTP/1.1 {}\r\n",
                        "Content-Type: application/openmetrics-text; ",
                        "version=1.0.0; charset=utf-8\r\n",
                        "Content-Length: {}\r\nConnection: close\r\n\r\n{}"
                    ),
                    status,
                    body.len(),
                    body
                );
                let _ = stream.write_all(response.as_bytes());
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

// ----- job shapes and predictions ----------------------------------------------

/// Whether `uni` has the job's topology and neighborhood, compared
/// element by element (op and algorithm are the program's business).
fn fits(uni: &InlineUniverse, spec: &JobSpec) -> bool {
    let topo = uni.topology();
    topo.dims() == spec.dims
        && topo.periods() == spec.periods
        && uni.neighborhood().offsets() == spec.offsets
}

/// The analytical per-rank prediction for one execution of `plan`, the
/// schedule that ran: its round count `C` (Prop. 3.2) and wire volume in
/// bytes (`V·m` generalized to irregular block sizes via the schedule's
/// per-round byte census, Prop. 3.3). What a rank of a torus observes
/// exactly; a mesh's boundary ranks do less.
fn predict(spec: &JobSpec, plan: &Plan) -> (u64, u64) {
    let block_bytes = spec.recv_block_bytes();
    let v: usize = plan.round_bytes(&|b| block_bytes[b]).iter().sum();
    (plan.rounds as u64, v as u64)
}

/// Run `spec`'s collective on one rank of a threaded universe, through
/// the same [`job_layouts`] description the daemon executes: the
/// [`reference`](crate::reference) executor's rank program.
pub(crate) fn run_op(
    cart: &CartComm,
    spec: &JobSpec,
    send: &[u8],
    recv: &mut [u8],
) -> Result<(), String> {
    job_layouts(spec)
        .and_then(|(kind, lay, red)| cart.run(kind, lay, red, send, recv, spec.algo.to_algo()))
        .map_err(|e| format!("{e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, Submission};

    /// A daemon on a Unix-domain socket and one on TCP.
    fn both_transports(tag: &str) -> [Server; 2] {
        let sock = std::env::temp_dir().join(format!(
            "cartserve-listener-{tag}-{}.sock",
            std::process::id()
        ));
        [
            Server::bind_uds(sock, ServeConfig::default()).expect("bind uds"),
            Server::bind_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind tcp"),
        ]
    }

    fn connect(server: &Server) -> Client {
        match server.endpoint() {
            Endpoint::Uds(path) => Client::connect_uds(path, "listener-test"),
            Endpoint::Tcp(addr) => Client::connect_tcp(&addr.to_string(), "listener-test"),
        }
        .expect("connect")
    }

    #[test]
    fn a_fresh_connection_is_served_at_once() {
        for server in both_transports("fresh") {
            let mut first_reply: Vec<Duration> = (0..20)
                .map(|_| {
                    let t0 = Instant::now();
                    let mut client = connect(&server);
                    assert_eq!(client.ping(b"first").expect("ping"), b"first");
                    t0.elapsed()
                })
                .collect();
            first_reply.sort();
            // Connect, `HELLO` and `PING` over loopback take well under a
            // millisecond; a listener that polls would add its period.
            assert!(
                first_reply[10] < Duration::from_millis(5),
                "median first reply after {:?} on {:?}",
                first_reply[10],
                server.endpoint()
            );
            server.shutdown();
        }
    }

    #[test]
    fn closed_connections_are_reaped() {
        for server in both_transports("reap") {
            for _ in 0..200 {
                drop(connect(&server));
            }
            // A connection thread ends when it reads the close; the
            // listener joins the ended ones at its next accept, and a
            // handle it has joined is a thread that has ended.
            let deadline = Instant::now() + Duration::from_secs(10);
            let open = loop {
                let probe = connect(&server);
                let conns = server.conns.lock().unwrap().len();
                drop(probe);
                if conns <= 4 || Instant::now() > deadline {
                    break conns;
                }
                thread::sleep(Duration::from_millis(5));
            };
            assert!(open <= 4, "{open} handles kept for one open connection");
            server.shutdown();
        }
    }

    #[test]
    fn both_ways_to_stop_return_promptly() {
        for by_wire in [false, true] {
            for server in both_transports(if by_wire { "wire" } else { "host" }) {
                let mut client = connect(&server);
                let t0 = Instant::now();
                if by_wire {
                    client.shutdown().expect("wire shutdown");
                    server.wait();
                } else {
                    server.shutdown();
                }
                // Bounded by the 50 ms read timeout of the open
                // connection and the 10 ms poll of `wait`, not by
                // anyone's arrival.
                let took = t0.elapsed();
                assert!(took < Duration::from_secs(2), "stopping took {took:?}");
            }
        }
    }

    #[test]
    fn pacer_keeps_its_schedule_through_late_starts_and_restarts_it_after_idling() {
        let t0 = Instant::now();
        let us = Duration::from_micros;
        let mut pacer = Pacer { next: t0 };
        // An idle daemon starts at once; each job holds the next one's
        // start off for a job gap.
        let first = t0 + us(5000);
        assert_eq!(pacer.reserve(first), first);
        assert_eq!(pacer.reserve(first), first + JOB_GAP);
        // Admitted 60 µs late: it starts at once, and the job after is
        // due one job gap after this one was due, not after it started.
        let late = first + 2 * JOB_GAP + us(60);
        assert_eq!(pacer.reserve(late), late);
        // A job that moves a mebibyte holds the next one off for one job
        // gap, like every other: the pace does not count bytes.
        assert_eq!(pacer.reserve(late), first + 3 * JOB_GAP);
        let due = first + 4 * JOB_GAP;
        assert_eq!(pacer.reserve(due - us(1)), due);
        // A whole gap late or more: the schedule restarts at the start.
        let idle = due + 3 * JOB_GAP;
        assert_eq!(pacer.reserve(idle), idle);
        assert_eq!(pacer.reserve(idle), idle + JOB_GAP);
    }

    /// A 2-rank ring job: cheap, and no other test's shape.
    fn ring_spec() -> JobSpec {
        JobSpec {
            dims: vec![2],
            periods: vec![true],
            offsets: vec![vec![1]],
            op: OpSpec::Alltoallw {
                send_blocks: vec![(0, 8)],
                recv_blocks: vec![(0, 8)],
            },
            algo: proto::AlgoSpec::Combining,
        }
    }

    /// An offset of `i64::MIN` has no negation: the `SUBMIT` carrying it
    /// is refused before a universe is spent on it.
    #[test]
    fn a_min_offset_is_refused_at_submit() {
        let spec = JobSpec {
            offsets: vec![vec![i64::MIN]],
            ..ring_spec()
        };
        assert_eq!(check_job("t", &ring_spec(), &[0u8; 16]), Ok(()));
        let refusal = check_job("t", &spec, &[0u8; 16]).unwrap_err();
        assert!(refusal.contains("UnnegatableCoordinate"), "{refusal}");
    }

    /// A job is refused or counted in under the lock `drain` counts under:
    /// no `SUBMIT` falls between, counted and never answered.
    #[test]
    fn a_submit_racing_the_drain_is_answered_or_refused_never_lost() {
        for server in both_transports("race") {
            let shared = Arc::clone(&server.shared);
            let (done, watchdog) = std::sync::mpsc::channel();
            let clients: Vec<_> = (0..4)
                .map(|_| {
                    let (mut client, done) = (connect(&server), done.clone());
                    thread::spawn(move || {
                        let (spec, payload) = (ring_spec(), [7u8; 16]);
                        let golden = crate::reference::execute(&spec, &payload).expect("golden");
                        // Until the daemon refuses, or is gone.
                        let refusal = loop {
                            match client.submit(&spec, &payload) {
                                Ok(Submission::Done(out)) => assert_eq!(out, golden),
                                Ok(busy) => panic!("{busy:?} with 4 of 64 in flight"),
                                Err(e) => break e,
                            }
                        };
                        let closed = refusal.kind() == io::ErrorKind::UnexpectedEof
                            || refusal.kind() == io::ErrorKind::ConnectionReset
                            || refusal.kind() == io::ErrorKind::BrokenPipe;
                        assert!(
                            closed || refusal.to_string().contains("draining"),
                            "{refusal}"
                        );
                        done.send(()).expect("the test is waiting");
                    })
                })
                .collect();
            // Every client is in its loop before the drain begins.
            while shared.counters.snapshot().jobs_completed < 16 {
                thread::yield_now();
            }
            server.shutdown();
            for _ in &clients {
                let ended = watchdog.recv_timeout(Duration::from_secs(20));
                ended.expect("a client hung, or failed, across the drain");
            }
            for client in clients {
                client.join().expect("client thread");
            }
            let c = shared.counters.snapshot();
            assert_eq!(c.jobs_submitted, c.jobs_completed, "{c:?}");
        }
    }

    /// A wire document against its golden file under `tests/golden`
    /// (`BLESS_GOLDEN=1` rewrites it).
    fn check_golden(name: &str, rendered: &str) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        if std::env::var_os("BLESS_GOLDEN").is_some() {
            std::fs::write(&path, rendered).unwrap();
            return;
        }
        let golden = std::fs::read_to_string(&path).expect("golden file (BLESS_GOLDEN=1 makes it)");
        assert_eq!(rendered, golden, "{name} drifted from its golden file");
    }

    const HOSTILE: &str = "t\tab\nline\"quote\\slash";

    #[test]
    fn profile_report_matches_golden_file() {
        // Two jobs on two ranks: 64 bytes from rank 0 that nobody
        // received, then a 256-byte exchange.
        let rec = |t_ns, rank, event| TraceRecord { t_ns, rank, event };
        let start = |to, wire_bytes| TraceEvent::RoundStart {
            phase: 0,
            round: 0,
            to,
            from: to,
            wire_bytes,
        };
        let end = |from, wire_bytes| TraceEvent::RoundEnd {
            phase: 0,
            round: 0,
            to: from,
            from,
            wire_bytes,
        };
        let paired = JobCapture {
            ranks: 2,
            per_rank: vec![
                vec![
                    rec(1_000, 0, start(1, 256)),
                    rec(1_200, 0, TraceEvent::PoolHit { bytes: 256 }),
                    rec(4_500, 0, end(1, 256)),
                ],
                vec![rec(1_100, 1, start(0, 256)), rec(3_500, 1, end(0, 256))],
            ],
            dropped: 3,
            deposits: 2,
            c_pred: 1,
            v_pred: 256,
        };
        let mut unpaired = JobCapture::new(2);
        unpaired.per_rank[0].push(rec(9_000, 0, start(1, 64)));
        unpaired.deposits = 1;
        unpaired.c_pred = 1;
        unpaired.v_pred = 64;

        let session = |captures, want_trace| ProfileSession {
            tenant: HOSTILE.to_string(),
            jobs_left: None,
            deadline_ns: 0,
            capacity: 16,
            want_trace,
            captures,
            reply: Deferred::default(),
            ctx: 0,
        };
        let (json, trace) = profile_report(&session(vec![unpaired, paired], true));
        check_golden("profile_report.json", &json);
        // (`perfetto_golden.rs` pins the trace format.)
        assert!(trace.starts_with(b"{\"displayTimeUnit\""));
        let (json, trace) = profile_report(&session(Vec::new(), false));
        check_golden("profile_report_empty.json", &json);
        assert!(trace.is_empty());
    }
}
