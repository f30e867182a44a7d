//! Shared-memory backend: one byte ring per directed link, in one
//! memory-mapped file.
//!
//! The file holds `p × p` fixed-size regions; region `(src, dst)` is a
//! single-producer single-consumer byte ring carrying the wire frames
//! ([`super::wire`]) of the directed link `src → dst`. Rings are byte
//! streams, not slot queues, so frames larger than the ring simply
//! stream through as the consumer drains. Producer and consumer
//! synchronize on two monotone byte cursors (`head` written by the
//! producer, `tail` by the consumer) with acquire/release atomics —
//! which work across processes on a `MAP_SHARED` mapping, making this
//! the substrate for multi-process single-host universes
//! ([`Universe::spawn_processes`](crate::Universe::spawn_processes)).
//!
//! Each *local* rank gets a dedicated progress thread that sweeps its
//! `p` inbound rings, reassembles frames, and delivers decoded
//! envelopes (payloads allocated from the rank's wire pool) into the
//! rank's [`Mailbox`] — the receive paths of `Comm` are byte-for-byte
//! the same as on the in-process backend. When it stops it closes the
//! mailbox, so a rank still blocked in a receive gets an error, not a
//! hang.
//!
//! Producer-side discipline: only rank `src` ever writes ring
//! `(src, dst)`, and a per-link mutex serializes a link's producers in
//! this process. In a universe that is the link's source rank alone, one
//! fiber, so no two fibers of a worker contend for it and the writer may
//! hold it across its full-ring waits. A ring that
//! stays full past [`STALL_TIMEOUT`] — the consumer died — fails the
//! deposit with [`TransportError::Io`] instead of blocking forever.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cartcomm_types::kernel;
use parking_lot::Mutex;

use super::mmap::SharedMap;
use super::{deliver_frames, wire, Transport, TransportError, TransportKind, TransportResult};
use crate::envelope::Envelope;
use crate::fiber;
use crate::mailbox::Mailbox;
use crate::pool::WirePool;

/// Bytes per directed-link region (cursors + data).
pub const REGION_BYTES: usize = 1 << 18; // 256 KiB
/// Offset of the data area within a region; head and tail cursors live
/// on separate cache lines in front of it.
const DATA_OFFSET: usize = 128;
/// Usable ring capacity per link.
pub const RING_BYTES: usize = REGION_BYTES - DATA_OFFSET;
/// How long a producer tolerates a full ring with no consumer progress
/// before declaring the link dead.
const STALL_TIMEOUT: Duration = Duration::from_secs(1);
/// How long a producer at a full ring waits before it looks again. The
/// consumer is a progress thread, which cannot wake a waiter across
/// processes, so the wait ends by its deadline; meanwhile the producer's
/// sibling ranks run.
const FULL_RING_NAP: Duration = Duration::from_micros(10);
/// Progress-thread nap when a sweep found no bytes.
const IDLE_NAP: Duration = Duration::from_micros(40);

/// Unique-enough scratch names for thread-mode universes (no wall-clock
/// entropy needed: pid + a process-wide counter).
fn scratch_path() -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cartcomm-shm-{}-{n}.fabric", std::process::id()))
}

/// One directed link's view into the mapping.
#[derive(Clone, Copy)]
struct Ring {
    base: *mut u8,
}

// SAFETY: `base` points into a `SharedMap` its transport keeps alive for
// as long as any `Ring` is used; all access to the cursors is atomic and
// to the data area follows the single-producer single-consumer protocol.
unsafe impl Send for Ring {}
// SAFETY: as for `Send`.
unsafe impl Sync for Ring {}

impl Ring {
    fn at(map: &SharedMap, p: usize, src: usize, dst: usize) -> Ring {
        let off = (src * p + dst) * REGION_BYTES;
        debug_assert!(off + REGION_BYTES <= map.len());
        Ring {
            // SAFETY: the mapping holds `p × p` regions (`file_len`), so
            // region `(src, dst)` lies inside it.
            base: unsafe { map.as_ptr().add(off) },
        }
    }

    /// Producer cursor: total bytes ever written to this ring.
    #[inline]
    fn head(&self) -> &AtomicU64 {
        // SAFETY: the region's first, 64-byte-aligned word, only ever
        // accessed atomically.
        unsafe { &*(self.base as *const AtomicU64) }
    }

    /// Consumer cursor: total bytes ever read from this ring.
    #[inline]
    fn tail(&self) -> &AtomicU64 {
        // SAFETY: the word on the region's second cache line, only ever
        // accessed atomically.
        unsafe { &*(self.base.add(64) as *const AtomicU64) }
    }

    #[inline]
    fn data(&self) -> *mut u8 {
        // SAFETY: the data area starts `DATA_OFFSET` bytes into the region.
        unsafe { self.base.add(DATA_OFFSET) }
    }

    /// Bytes the producer may write now.
    fn free(&self) -> usize {
        let h = self.head().load(Ordering::Acquire);
        let t = self.tail().load(Ordering::Acquire);
        RING_BYTES - (h - t) as usize
    }

    /// Stream `bytes` into the ring, waiting (bounded) for the consumer
    /// when full. `peer` only labels the error.
    fn write(&self, bytes: &[u8], peer: usize) -> TransportResult<()> {
        let mut written = 0;
        let mut last_progress = Instant::now();
        while written < bytes.len() {
            let free = self.free();
            if free == 0 {
                if last_progress.elapsed() > STALL_TIMEOUT {
                    return Err(TransportError::Io {
                        peer,
                        msg: format!("ring full for {STALL_TIMEOUT:?} (consumer stalled)"),
                    });
                }
                let nap = Instant::now().checked_add(FULL_RING_NAP);
                fiber::wait(nap, None, |_| (self.free() > 0).then_some(()));
                continue;
            }
            let h = self.head().load(Ordering::Acquire);
            let n = free.min(bytes.len() - written);
            let pos = (h as usize) % RING_BYTES;
            let first = n.min(RING_BYTES - pos);
            // Wrap-around double copy through the wide-copy kernel: small
            // frames (the combining schedules' tiny-m regime) stay under
            // the memcpy-call threshold and use inline word windows.
            // SAFETY: `n ≤ free` bytes from `pos` (wrapping once) are the
            // ring's free space, which the consumer does not read until
            // the Release store of `head` below; the source has `n` bytes
            // left past `written`.
            unsafe {
                kernel::copy_raw(bytes.as_ptr().add(written), self.data().add(pos), first);
                if n > first {
                    kernel::copy_raw(bytes.as_ptr().add(written + first), self.data(), n - first);
                }
            }
            self.head().store(h + n as u64, Ordering::Release);
            written += n;
            last_progress = Instant::now();
        }
        Ok(())
    }

    /// Drain everything currently readable into `out`. Returns the
    /// number of bytes taken.
    fn read_into(&self, out: &mut Vec<u8>) -> usize {
        let h = self.head().load(Ordering::Acquire);
        let t = self.tail().load(Ordering::Relaxed); // single consumer: own cursor
        let avail = (h - t) as usize;
        if avail == 0 {
            return 0;
        }
        let pos = (t as usize) % RING_BYTES;
        let first = avail.min(RING_BYTES - pos);
        out.reserve(avail);
        // SAFETY: the producer published `avail` bytes from `pos` (wrapping
        // once) with its Release store of `head`, and does not overwrite
        // them until the Release store of `tail` below; `out` has room for
        // `avail` more bytes after the reserve, all initialized here.
        unsafe {
            let dst = out.as_mut_ptr().add(out.len());
            kernel::copy_raw(self.data().add(pos) as *const u8, dst, first);
            if avail > first {
                kernel::copy_raw(self.data() as *const u8, dst.add(first), avail - first);
            }
            out.set_len(out.len() + avail);
        }
        self.tail().store(t + avail as u64, Ordering::Release);
        avail
    }
}

/// The shared-memory transport: mapping, per-link write locks, and the
/// local ranks' progress threads.
pub struct ShmTransport {
    p: usize,
    map: Arc<SharedMap>,
    /// Serializes in-process producers of one link: the link's source
    /// rank, the one fiber that writes it.
    write_locks: Vec<Mutex<()>>,
    /// Per-local-rank stop flags, indexed by rank (None for remote).
    stops: Vec<Option<Arc<AtomicBool>>>,
    threads: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// Remove the backing file on drop iff this instance created it.
    owned_path: Option<PathBuf>,
}

impl ShmTransport {
    /// Byte length of the backing file for a `p`-rank universe.
    pub fn file_len(p: usize) -> u64 {
        (p * p * REGION_BYTES) as u64
    }

    /// Create (truncate) and size the backing file. The file is sparse;
    /// rings start zeroed, i.e. empty.
    pub fn create_file(path: &Path, p: usize) -> io::Result<()> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(Self::file_len(p))?;
        Ok(())
    }

    /// Map an existing backing file and bring up progress threads for
    /// `local_ranks`. `pools[r]` supplies decode buffers for local rank
    /// `r`, and `mailboxes[r]` is where its envelopes are delivered.
    ///
    /// `own_file` transfers cleanup responsibility: the instance that
    /// created the file removes it on drop.
    pub fn attach(
        path: &Path,
        p: usize,
        local_ranks: &[usize],
        pools: &[Arc<WirePool>],
        mailboxes: &[Arc<Mailbox>],
        own_file: bool,
    ) -> io::Result<ShmTransport> {
        assert!(p > 0, "universe needs at least one rank");
        assert_eq!(pools.len(), p, "one pool per rank");
        assert_eq!(mailboxes.len(), p, "one mailbox per rank");
        let file = File::options().read(true).write(true).open(path)?;
        if file.metadata()?.len() < Self::file_len(p) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "shm fabric file shorter than p*p regions",
            ));
        }
        let map = Arc::new(SharedMap::map(&file, Self::file_len(p) as usize)?);

        let mut stops: Vec<Option<Arc<AtomicBool>>> = vec![None; p];
        let mut threads = Vec::new();
        for &rank in local_ranks {
            assert!(rank < p, "local rank out of range");
            let stop = Arc::new(AtomicBool::new(false));
            stops[rank] = Some(Arc::clone(&stop));
            threads.push(Some(Self::spawn_progress(
                Arc::clone(&map),
                p,
                rank,
                Arc::clone(&pools[rank]),
                Arc::clone(&mailboxes[rank]),
                stop,
            )));
        }
        Ok(ShmTransport {
            p,
            map,
            write_locks: (0..p * p).map(|_| Mutex::new(())).collect(),
            stops,
            threads: Mutex::new(threads),
            owned_path: own_file.then(|| path.to_path_buf()),
        })
    }

    /// One-process universe: create a scratch backing file, attach all
    /// ranks, and clean the file up on drop.
    pub fn for_threads(
        p: usize,
        pools: &[Arc<WirePool>],
        mailboxes: &[Arc<Mailbox>],
    ) -> io::Result<ShmTransport> {
        let path = scratch_path();
        Self::create_file(&path, p)?;
        let local: Vec<usize> = (0..p).collect();
        Self::attach(&path, p, &local, pools, mailboxes, true)
    }

    /// The sweep loop of one local rank: drain all inbound rings,
    /// reassemble frames, deliver envelopes.
    fn spawn_progress(
        map: Arc<SharedMap>,
        p: usize,
        rank: usize,
        pool: Arc<WirePool>,
        mailbox: Arc<Mailbox>,
        stop: Arc<AtomicBool>,
    ) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name(format!("shm-progress-{rank}"))
            .spawn(move || {
                let rings: Vec<Ring> = (0..p).map(|src| Ring::at(&map, p, src, rank)).collect();
                let mut acc: Vec<Vec<u8>> = vec![Vec::new(); p];
                loop {
                    let mut moved = 0;
                    for (src, ring) in rings.iter().enumerate() {
                        moved += ring.read_into(&mut acc[src]);
                        deliver_frames(&mut acc[src], &pool, &mailbox);
                    }
                    if stop.load(Ordering::Acquire) {
                        mailbox.close();
                        return;
                    }
                    if moved == 0 {
                        std::thread::sleep(IDLE_NAP);
                    }
                }
            })
            .expect("failed to spawn shm progress thread")
    }
}

impl Transport for ShmTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::SharedMem
    }

    fn size(&self) -> usize {
        self.p
    }

    fn deposit(&self, dst: usize, env: Envelope) -> TransportResult<()> {
        let mut frame = Vec::with_capacity(wire::HEADER_BYTES + env.data.len());
        wire::encode_into(&env, &mut frame);
        let _guard = self.write_locks[env.src * self.p + dst].lock();
        Ring::at(&self.map, self.p, env.src, dst).write(&frame, dst)
    }

    fn shutdown(&self, rank: usize) {
        if let Some(stop) = self.stops.get(rank).and_then(|s| s.as_ref()) {
            stop.store(true, Ordering::Release);
        }
    }
}

impl Drop for ShmTransport {
    fn drop(&mut self) {
        for stop in self.stops.iter().flatten() {
            stop.store(true, Ordering::Release);
        }
        for handle in self.threads.lock().iter_mut() {
            if let Some(h) = handle.take() {
                let _ = h.join();
            }
        }
        if let Some(path) = &self.owned_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fabric::{per_rank, Fabric};

    #[test]
    fn deposits_cross_the_ring_in_order() {
        let mbs = per_rank::<Mailbox>(2);
        let t = ShmTransport::for_threads(2, &per_rank(2), &mbs).unwrap();
        for i in 0..50u8 {
            t.deposit(1, Envelope::new(0, 0, 7, vec![i; 3])).unwrap();
        }
        for i in 0..50u8 {
            let env = mbs[1].pop().unwrap();
            assert_eq!(env.src, 0);
            assert_eq!(env.tag, 7);
            assert_eq!(env.data, vec![i; 3]);
        }
        for rank in 0..2 {
            t.shutdown(rank);
        }
    }

    #[test]
    fn frames_larger_than_the_ring_stream_through() {
        let mbs = per_rank::<Mailbox>(2);
        let t = ShmTransport::for_threads(2, &per_rank(2), &mbs).unwrap();
        let big = vec![0xCDu8; RING_BYTES + 10_000];
        let expect = big.clone();
        t.deposit(1, Envelope::new(0, 0, 1, big)).unwrap();
        let env = mbs[1].pop().unwrap();
        assert_eq!(env.data.len(), expect.len());
        assert_eq!(*env.data, expect);
    }

    #[test]
    fn self_deposit_loops_back() {
        let mbs = per_rank::<Mailbox>(1);
        let t = ShmTransport::for_threads(1, &per_rank(1), &mbs).unwrap();
        t.deposit(0, Envelope::new(0, 0, 9, vec![42u8])).unwrap();
        assert_eq!(mbs[0].pop().unwrap().data, vec![42u8]);
    }

    #[test]
    fn scratch_file_is_removed_on_drop() {
        let path = scratch_path();
        ShmTransport::create_file(&path, 2).unwrap();
        {
            let local = [0usize, 1];
            let _t =
                ShmTransport::attach(&path, 2, &local, &per_rank(2), &per_rank(2), true).unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists(), "owner must clean up the backing file");
    }

    #[test]
    fn stalled_consumer_fails_the_deposit() {
        // Rank 1 has no progress thread (not local), so its rings never
        // drain: filling one past the stall timeout must error, not hang.
        let path = scratch_path();
        ShmTransport::create_file(&path, 2).unwrap();
        let t = ShmTransport::attach(&path, 2, &[0], &per_rank(2), &per_rank(2), true).unwrap();
        let chunk = vec![0u8; RING_BYTES / 2];
        let mut result = Ok(());
        for _ in 0..4 {
            result = t.deposit(1, Envelope::new(0, 0, 0, chunk.clone()));
            if result.is_err() {
                break;
            }
        }
        match result {
            Err(TransportError::Io { peer: 1, .. }) => {}
            other => panic!("expected a stalled-ring error, got {other:?}"),
        }
    }

    #[test]
    fn ranks_streaming_through_full_rings_on_one_worker_hold_up_no_fiber() {
        // Seven ranks, fibers of one worker, each stream frames twice a
        // ring's size to rank 0: each waits at its full ring holding its
        // link's lock while its siblings run and take theirs.
        let fabric = Fabric::for_backend(TransportKind::SharedMem, 8).unwrap();
        let big = 2 * RING_BYTES;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let fabric = Arc::new(fabric);
        let worker = {
            let fabric = Arc::clone(&fabric);
            std::thread::spawn(move || {
                let fabric = &fabric;
                fiber::run((1..8).map(|src| -> (usize, Box<dyn FnOnce()>) {
                    let body = Box::new(move || {
                        for i in 0..6u8 {
                            let env = Envelope::new(0, src, 3, vec![src as u8 ^ i; big]);
                            fabric.deposit(0, env).unwrap();
                        }
                    });
                    (src, body)
                }));
                let _ = done_tx.send(());
            })
        };
        if done_rx.recv_timeout(Duration::from_secs(60)).is_err() {
            panic!("the senders' worker hung");
        }
        worker.join().unwrap();
        let mut next = [0u8; 8];
        for _ in 0..7 * 6 {
            let env = fabric.mailbox(0).pop().unwrap();
            let i = next[env.src];
            assert!(env.data.len() == big && env.data.iter().all(|&b| b == env.src as u8 ^ i));
            next[env.src] += 1;
        }
        assert_eq!(&next[1..], &[6; 7]);
    }
}
