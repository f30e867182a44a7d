//! SPMD launcher: run the same rank program as `p` fibers on one worker
//! thread per core (see `fiber.rs`) — or, with
//! [`Universe::spawn_processes`], on `p` processes sharing a
//! memory-mapped fabric.
//!
//! Every thread-mode launch goes through one configurable entry point,
//! [`Universe::builder`]: transport backend and profiling compose
//! freely.

use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, ExitStatus};
use std::sync::Arc;
use std::time::Duration;

use cartcomm_obs::{RingBufferSink, TraceRecord};
use parking_lot::Mutex;

use crate::comm::Comm;
use crate::fabric::Fabric;
use crate::fiber;
use crate::transport::shm::ShmTransport;
use crate::transport::TransportKind;

/// Entry point of the runtime: builds the fabric and runs rank programs.
pub struct Universe;

/// The output of a profiled run: per-rank results plus every rank's
/// drained trace, timestamped from the process's one origin so the records
/// are cross-rank comparable (feed them to
/// `cartcomm_obs::profile::TraceCollector`).
pub struct ProfiledRun<R> {
    /// Rank program results, in rank order.
    pub results: Vec<R>,
    /// Drained trace records, in rank order.
    pub traces: Vec<Vec<TraceRecord>>,
    /// Records each rank's ring sink dropped on overflow, in rank order —
    /// non-zero entries mean `traces` is an honest truncation (feed them
    /// to `TraceCollector::note_dropped`).
    pub dropped: Vec<u64>,
}

/// Which side of a [`Universe::spawn_processes`] call this process is.
pub enum SpawnRole<R> {
    /// This process is one rank of the universe; the rank program ran and
    /// produced this result.
    Child(R),
    /// This process is the launcher; all child processes have exited with
    /// these statuses (in rank order).
    Parent(Vec<std::process::ExitStatus>),
}

/// Environment protocol between the spawning parent and its rank
/// processes.
const ENV_SHM_FILE: &str = "CARTCOMM_SHM_FILE";
const ENV_RANK: &str = "CARTCOMM_RANK";
const ENV_SIZE: &str = "CARTCOMM_SIZE";

fn spawn_scratch_path() -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cartcomm-spawn-{}-{n}.fabric", std::process::id()))
}

/// A fully described thread-mode launch: `p` ranks on `transport`, and
/// optional profiling (one ring sink per rank). Obtained from
/// [`Universe::builder`]; every knob composes with every other.
///
/// ```
/// use cartcomm_comm::Universe;
/// let sums = Universe::builder(4).run(|comm| {
///     let mut x = [comm.rank() as u64];
///     comm.allreduce(&mut x, |a, b| a + b).unwrap();
///     x[0]
/// });
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
#[derive(Debug, Clone)]
pub struct RunConfig {
    p: usize,
    transport: TransportKind,
}

/// A [`RunConfig`] with profiling enabled ([`RunConfig::profiled`]):
/// `run` returns a [`ProfiledRun`] carrying per-rank traces instead of
/// bare results.
#[derive(Debug, Clone)]
pub struct ProfiledRunConfig {
    inner: RunConfig,
    capacity: usize,
}

impl RunConfig {
    /// Select the transport backend (default: in-process). The
    /// in-process backend never fails to construct; the shared-memory and
    /// socket backends touch the filesystem or network stack and may —
    /// use [`RunConfig::try_run`] to observe the error.
    pub fn on(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Enable profiling: before any rank starts, every rank's `Obs` gets
    /// its own [`RingBufferSink`] holding up to `capacity` records; after
    /// the join, the sinks are drained into [`ProfiledRun::traces`]. Every
    /// `Obs` of a process stamps from one origin
    /// ([`cartcomm_obs::now_ns`]), so the ranks' timestamps compare.
    pub fn profiled(self, capacity: usize) -> ProfiledRunConfig {
        ProfiledRunConfig {
            inner: self,
            capacity,
        }
    }

    /// Launch and join, returning per-rank results in rank order.
    ///
    /// `f` receives each rank's [`Comm`] handle. Panics in any rank
    /// program propagate (the launcher re-panics the first after joining;
    /// the other ranks' receives fail with `Disconnected` instead of
    /// waiting on it), so test assertions inside rank programs work
    /// naturally. Panics if the backend fails to construct — the
    /// in-process default cannot.
    pub fn run<F, R>(self, f: F) -> Vec<R>
    where
        F: Fn(&mut Comm) -> R + Send + Sync,
        R: Send,
    {
        let kind = self.transport;
        self.try_run(f)
            .unwrap_or_else(|e| panic!("cannot bring up {kind} fabric: {e}"))
    }

    /// [`RunConfig::run`] surfacing backend construction failure instead
    /// of panicking.
    pub fn try_run<F, R>(self, f: F) -> io::Result<Vec<R>>
    where
        F: Fn(&mut Comm) -> R + Send + Sync,
        R: Send,
    {
        let (fabric, _sinks) = self.bring_up(None)?;
        Ok(launch(fabric, f))
    }

    /// Construct the fabric and (optionally) profiling.
    fn bring_up(
        &self,
        profile_capacity: Option<usize>,
    ) -> io::Result<(Arc<Fabric>, Vec<Arc<RingBufferSink>>)> {
        assert!(self.p > 0, "universe needs at least one rank");
        let fabric = Fabric::for_backend(self.transport, self.p)?;
        let sinks = match profile_capacity {
            Some(capacity) => install_profiling(&fabric, self.p, capacity),
            None => Vec::new(),
        };
        Ok((Arc::new(fabric), sinks))
    }
}

impl ProfiledRunConfig {
    /// Select the transport backend (see [`RunConfig::on`]).
    pub fn on(mut self, kind: TransportKind) -> Self {
        self.inner = self.inner.on(kind);
        self
    }

    /// Launch, join, and drain the per-rank trace sinks. Panics if the
    /// backend fails to construct — the in-process default cannot.
    pub fn run<F, R>(self, f: F) -> ProfiledRun<R>
    where
        F: Fn(&mut Comm) -> R + Send + Sync,
        R: Send,
    {
        let kind = self.inner.transport;
        self.try_run(f)
            .unwrap_or_else(|e| panic!("cannot bring up {kind} fabric: {e}"))
    }

    /// [`ProfiledRunConfig::run`] surfacing backend construction failure
    /// instead of panicking.
    pub fn try_run<F, R>(self, f: F) -> io::Result<ProfiledRun<R>>
    where
        F: Fn(&mut Comm) -> R + Send + Sync,
        R: Send,
    {
        let (fabric, sinks) = self.inner.bring_up(Some(self.capacity))?;
        let results = launch(fabric, f);
        Ok(ProfiledRun {
            traces: sinks.iter().map(|s| s.take()).collect(),
            dropped: sinks.iter().map(|s| s.dropped()).collect(),
            results,
        })
    }
}

/// Shared launch core: run the `p` ranks as fibers on
/// `w = min(p, available_parallelism())` worker threads, rank `r` on
/// worker `⌊r·w/p⌋`, join, re-panic the first rank panic. After a rank
/// program returns, its `Comm` drops (closing the rank's mailbox) and the
/// fabric is told the rank is done so backend progress machinery can
/// stop. A rank that panics closes every rank's mailbox: a peer blocked
/// on it wakes with [`CommError::Disconnected`](crate::CommError::Disconnected)
/// instead of waiting forever, and the panics that wake-up causes are not
/// reported.
fn launch<F, R>(fabric: Arc<Fabric>, f: F) -> Vec<R>
where
    F: Fn(&mut Comm) -> R + Send + Sync,
    R: Send,
{
    let f = &f;
    let p = fabric.size();
    let w = std::thread::available_parallelism().map_or(1, |n| n.get().min(p));
    let first_panic = Mutex::new(None);
    let mut outs: Vec<Option<R>> = (0..p).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut rest = &mut outs[..];
        let mut handles = Vec::with_capacity(w);
        for k in 0..w {
            // Worker k runs ranks ⌈k·p/w⌉ .. ⌈(k+1)·p/w⌉.
            let first = (k * p).div_ceil(w);
            let (mine, tail) = rest.split_at_mut(((k + 1) * p).div_ceil(w) - first);
            rest = tail;
            let (fabric, first_panic) = (&fabric, &first_panic);
            let ranks = mine.iter_mut().zip(first..).map(move |(out, rank)| {
                let body = Box::new(move || {
                    let mut comm = Comm::new(rank, Arc::clone(fabric));
                    *out = match panic::catch_unwind(AssertUnwindSafe(|| f(&mut comm))) {
                        Ok(out) => Some(out),
                        Err(payload) => {
                            // Recorded before the close, so a panic the
                            // close causes never comes first.
                            first_panic.lock().get_or_insert(payload);
                            (0..p).for_each(|r| fabric.mailbox(r).close());
                            None
                        }
                    };
                    drop(comm);
                    fabric.rank_done(rank);
                }) as Box<dyn FnOnce() + '_>;
                (rank, body)
            });
            let h = std::thread::Builder::new()
                .name(format!("worker-{k}"))
                .spawn_scoped(scope, move || fiber::run(ranks))
                .expect("failed to spawn a worker thread");
            handles.push(h);
        }
        for h in handles {
            h.join().unwrap_or_else(|e| panic::resume_unwind(e));
        }
    });
    if let Some(payload) = first_panic.into_inner() {
        panic::resume_unwind(payload);
    }
    outs.into_iter()
        .map(|out| out.expect("no rank panicked"))
        .collect()
}

/// Install one ring sink per rank on the fabric's `Obs` handles,
/// returning the sinks for post-run draining.
fn install_profiling(fabric: &Fabric, p: usize, capacity: usize) -> Vec<Arc<RingBufferSink>> {
    (0..p)
        .map(|rank| {
            let sink = Arc::new(RingBufferSink::new(capacity));
            fabric.obs(rank).attach_sink(sink.clone());
            sink
        })
        .collect()
}

impl Universe {
    /// Configure a thread-mode launch: `p` ranks, in-process transport,
    /// no profiling. Chain [`RunConfig::on`]/[`RunConfig::profiled`] in
    /// either order,
    /// then [`RunConfig::run`] (or [`RunConfig::try_run`] for fallible
    /// backends).
    pub fn builder(p: usize) -> RunConfig {
        RunConfig {
            p,
            transport: TransportKind::InProcess,
        }
    }

    /// Run `f` as a universe of `p` **processes** on one host, over the
    /// shared-memory transport.
    ///
    /// Called in the launching process, this creates the fabric file,
    /// re-executes the current binary `p` times with `rerun_args` (plus
    /// rank/fabric environment variables), waits for all children, and
    /// returns [`SpawnRole::Parent`] with their exit statuses. The first
    /// child to exit unsuccessfully ends the universe: the parent kills
    /// and reaps the others, removes the fabric file and returns an error
    /// naming that rank and its status. Each child
    /// re-enters this same function, detects the environment, attaches to
    /// the fabric as its rank, runs `f`, and returns
    /// [`SpawnRole::Child`] with the rank program's result.
    ///
    /// In a test, pass the test's own name as the rerun filter so the
    /// child harness runs exactly this function again:
    ///
    /// ```ignore
    /// match Universe::spawn_processes(4, &["my_test_name", "--exact"], |comm| {
    ///     comm.barrier().unwrap();
    /// })? {
    ///     SpawnRole::Parent(statuses) => assert!(statuses.iter().all(|s| s.success())),
    ///     SpawnRole::Child(()) => {} // the child's work happened in the closure
    /// }
    /// ```
    pub fn spawn_processes<F, R>(p: usize, rerun_args: &[&str], f: F) -> io::Result<SpawnRole<R>>
    where
        F: FnOnce(&mut Comm) -> R,
    {
        assert!(p > 0, "universe needs at least one rank");
        if let (Ok(path), Ok(rank), Ok(size)) = (
            std::env::var(ENV_SHM_FILE),
            std::env::var(ENV_RANK),
            std::env::var(ENV_SIZE),
        ) {
            let rank: usize = rank
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad CARTCOMM_RANK"))?;
            let size: usize = size
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad CARTCOMM_SIZE"))?;
            if size != p {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("spawned universe has {size} ranks, caller expected {p}"),
                ));
            }
            let fabric = Arc::new(Fabric::attach_shm(std::path::Path::new(&path), size, rank)?);
            let mut comm = Comm::new(rank, Arc::clone(&fabric));
            let out = f(&mut comm);
            drop(comm);
            fabric.rank_done(rank);
            return Ok(SpawnRole::Child(out));
        }

        let path = spawn_scratch_path();
        ShmTransport::create_file(&path, p)?;
        let exe = std::env::current_exe()?;
        let mut children = Vec::with_capacity(p);
        for rank in 0..p {
            let child = std::process::Command::new(&exe)
                .args(rerun_args)
                .env(ENV_SHM_FILE, &path)
                .env(ENV_RANK, rank.to_string())
                .env(ENV_SIZE, p.to_string())
                .spawn();
            match child {
                Ok(c) => children.push(c),
                Err(e) => {
                    // Launch failed partway: reap what started, clean up.
                    for mut c in children {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    let _ = std::fs::remove_file(&path);
                    return Err(e);
                }
            }
        }
        let statuses = reap(children);
        let _ = std::fs::remove_file(&path);
        Ok(SpawnRole::Parent(statuses?))
    }
}

/// Wait for every rank's process. The first to exit unsuccessfully takes
/// the others down with it — they would block on it forever — and is
/// named in the error.
fn reap(mut children: Vec<Child>) -> io::Result<Vec<ExitStatus>> {
    let mut statuses: Vec<Option<ExitStatus>> = vec![None; children.len()];
    let failed = 'poll: loop {
        for (rank, child) in children.iter_mut().enumerate() {
            if statuses[rank].is_some() {
                continue;
            }
            match child.try_wait() {
                Ok(Some(status)) if status.success() => statuses[rank] = Some(status),
                Ok(Some(status)) => {
                    break 'poll io::Error::other(format!("rank {rank} exited with {status}"))
                }
                Ok(None) => {}
                Err(e) => break 'poll e,
            }
        }
        if statuses.iter().all(Option::is_some) {
            return Ok(statuses.into_iter().flatten().collect());
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    for child in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }
    Err(failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cartcomm_obs::TraceEvent;

    #[test]
    fn single_rank_universe() {
        let out = Universe::builder(1).run(|comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            comm.barrier().unwrap();
            "done"
        });
        assert_eq!(out, vec!["done"]);
    }

    #[test]
    fn ranks_are_distinct_and_ordered() {
        let out = Universe::builder(8).run(|comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn profiling_and_transport_compose() {
        let run = Universe::builder(3)
            .profiled(256)
            .on(TransportKind::InProcess)
            .run(|comm| {
                comm.obs()
                    .emit(comm.rank(), TraceEvent::PoolHit { bytes: 3 });
                comm.rank()
            });
        assert_eq!(run.results, vec![0, 1, 2]);
        assert_eq!(run.traces.len(), 3);
        assert!(run.traces.iter().all(|t| !t.is_empty()));
    }

    #[test]
    fn run_on_every_backend_allreduces() {
        for kind in [
            TransportKind::InProcess,
            TransportKind::SharedMem,
            TransportKind::Uds,
            TransportKind::Tcp,
        ] {
            let sums = Universe::builder(4)
                .on(kind)
                .try_run(|comm| {
                    let mut x = [comm.rank() as u64 + 1];
                    comm.allreduce(&mut x, |a, b| a + b).unwrap();
                    x[0]
                })
                .unwrap_or_else(|e| panic!("{kind} backend failed to launch: {e}"));
            assert_eq!(sums, vec![10, 10, 10, 10], "backend {kind}");
        }
    }

    #[test]
    fn run_profiled_drains_per_rank_traces() {
        let run = Universe::builder(4).profiled(1024).run(|comm| {
            // Emit one marker event per rank through its own Obs.
            comm.obs()
                .emit(comm.rank(), TraceEvent::PoolHit { bytes: comm.rank() });
            comm.barrier().unwrap();
            comm.rank()
        });
        assert_eq!(run.results, vec![0, 1, 2, 3]);
        assert_eq!(run.traces.len(), 4);
        for (rank, trace) in run.traces.iter().enumerate() {
            assert!(
                trace
                    .iter()
                    .any(|r| r.event == TraceEvent::PoolHit { bytes: rank }),
                "rank {rank} marker missing"
            );
        }
    }

    #[test]
    fn profiled_run_reports_ring_overflow_honestly() {
        // Capacity 2 with 5 events per rank: each rank keeps the newest 2
        // and reports 3 dropped, so truncated captures are detectable.
        let run = Universe::builder(2).profiled(2).run(|comm| {
            for i in 0..5 {
                comm.obs()
                    .emit(comm.rank(), TraceEvent::PoolHit { bytes: i });
            }
        });
        assert_eq!(run.dropped, vec![3, 3]);
        assert!(run.traces.iter().all(|t| t.len() == 2));

        let roomy = Universe::builder(2).profiled(64).run(|comm| {
            comm.obs()
                .emit(comm.rank(), TraceEvent::PoolHit { bytes: 0 });
        });
        assert_eq!(roomy.dropped, vec![0, 0]);
    }

    #[test]
    fn profiled_timestamps_share_one_clock() {
        // Rank 1 emits strictly after rank 0 (enforced by a barrier in
        // between); with the shared clock its timestamp must not precede
        // rank 0's. With per-rank clock origins this would be flaky.
        let run = Universe::builder(2).profiled(64).run(|comm| {
            if comm.rank() == 0 {
                comm.obs().emit(0, TraceEvent::PoolHit { bytes: 1 });
            }
            comm.barrier().unwrap();
            if comm.rank() == 1 {
                comm.obs().emit(1, TraceEvent::PoolHit { bytes: 2 });
            }
        });
        let t0 = run.traces[0]
            .iter()
            .find(|r| r.event == TraceEvent::PoolHit { bytes: 1 })
            .unwrap()
            .t_ns;
        let t1 = run.traces[1]
            .iter()
            .find(|r| r.event == TraceEvent::PoolHit { bytes: 2 })
            .unwrap()
            .t_ns;
        assert!(
            t1 >= t0,
            "barrier-ordered events must not reorder: {t0} vs {t1}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Universe::builder(0).run(|_| ());
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn rank_panics_propagate() {
        Universe::builder(2).run(|comm| {
            if comm.rank() == 1 {
                panic!("deliberate");
            }
        });
    }
}
