//! Socket backend: length-prefixed frames over Unix-domain or loopback
//! TCP streams, std-only.
//!
//! Topology is a full mesh of ordered-pair streams: rank `s` holds one
//! outbound connection per peer `d`, carrying the wire frames
//! ([`super::wire`]) of link `s → d`; a stream's byte order *is* the
//! link's FIFO order. Each rank gets a dedicated progress thread that
//! owns the rank's listener, accepts the `p - 1` inbound streams (each
//! opens with a 4-byte hello naming the connecting rank), then
//! multiplexes them non-blockingly: read, reassemble frames, decode with
//! the rank's wire pool, deliver into the rank's [`Mailbox`]; when it
//! stops it closes the mailbox. Deposits to self skip the kernel and go
//! straight to the mailbox.
//!
//! Connection setup is deadlock-free by construction: every listener is
//! bound (with backlog) before any progress thread spawns, and the
//! constructor performs all `p × (p - 1)` connects itself before
//! returning — accepts happen concurrently in the progress threads, but
//! a connect to a bound listener succeeds regardless of accept order.
//!
//! A failed stream write surfaces as [`TransportError::Io`] naming the
//! destination rank, and the stream is poisoned so later deposits fail
//! fast with [`TransportError::Closed`].

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use super::{deliver_frames, wire, Transport, TransportError, TransportKind, TransportResult};
use crate::envelope::Envelope;
use crate::mailbox::Mailbox;
use crate::pool::WirePool;

/// Nap between empty sweeps of a rank's inbound streams.
const IDLE_NAP: Duration = Duration::from_micros(40);
/// Ceiling on waiting for a connecting rank's hello byte.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// Either flavor of connected stream, so the progress and deposit paths
/// are written once.
enum Stream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_nonblocking(on),
            Stream::Tcp(s) => s.set_nonblocking(on),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Uds(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Listener::Uds(l) => l.set_nonblocking(on),
            Listener::Tcp(l) => l.set_nonblocking(on),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
        }
    }
}

fn scratch_dir() -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cartcomm-uds-{}-{n}", std::process::id()))
}

/// Full-mesh stream transport over UDS or loopback TCP.
pub struct SocketTransport {
    p: usize,
    kind: TransportKind,
    /// Outbound stream of link `(src, dst)` at index `src * p + dst`;
    /// `None` on the diagonal and after a write poisons the stream.
    out: Vec<Mutex<Option<Stream>>>,
    /// Per-rank local delivery for self-sends.
    mailboxes: Vec<Arc<Mailbox>>,
    stops: Vec<Arc<AtomicBool>>,
    threads: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// Socket-file directory to remove on drop (UDS only).
    uds_dir: Option<PathBuf>,
}

impl SocketTransport {
    /// Unix-domain flavor; socket files live in a scratch directory
    /// removed on drop.
    pub fn uds(
        p: usize,
        pools: &[Arc<WirePool>],
        mailboxes: &[Arc<Mailbox>],
    ) -> io::Result<SocketTransport> {
        Self::mesh(TransportKind::Uds, p, pools, mailboxes)
    }

    /// Loopback-TCP flavor; every rank listens on an ephemeral
    /// 127.0.0.1 port.
    pub fn tcp(
        p: usize,
        pools: &[Arc<WirePool>],
        mailboxes: &[Arc<Mailbox>],
    ) -> io::Result<SocketTransport> {
        Self::mesh(TransportKind::Tcp, p, pools, mailboxes)
    }

    fn mesh(
        kind: TransportKind,
        p: usize,
        pools: &[Arc<WirePool>],
        mailboxes: &[Arc<Mailbox>],
    ) -> io::Result<SocketTransport> {
        assert!(p > 0, "universe needs at least one rank");
        assert_eq!(pools.len(), p, "one pool per rank");
        assert_eq!(mailboxes.len(), p, "one mailbox per rank");

        // 1. Bind every rank's listener before anything connects.
        let uds_dir = match kind {
            TransportKind::Uds => {
                let dir = scratch_dir();
                std::fs::create_dir_all(&dir)?;
                Some(dir)
            }
            _ => None,
        };
        let mut listeners = Vec::with_capacity(p);
        // In TCP mode, `tcp_ports[rank]` is rank's bound loopback port
        // (one push per iteration keeps the index aligned); unused for UDS.
        let mut tcp_ports: Vec<u16> = Vec::with_capacity(p);
        for rank in 0..p {
            let l = match kind {
                TransportKind::Uds => Listener::Uds(UnixListener::bind(
                    uds_dir
                        .as_ref()
                        .expect("uds dir")
                        .join(format!("rank-{rank}.sock")),
                )?),
                TransportKind::Tcp => {
                    let l = TcpListener::bind("127.0.0.1:0")?;
                    tcp_ports.push(l.local_addr()?.port());
                    Listener::Tcp(l)
                }
                other => panic!("{other} is not a socket transport"),
            };
            listeners.push(l);
        }

        // 2. Spawn the progress threads; each accepts its p - 1 inbound
        //    streams, then multiplexes them.
        let mut stops = Vec::with_capacity(p);
        let mut threads = Vec::with_capacity(p);
        for (rank, listener) in listeners.into_iter().enumerate() {
            let stop = Arc::new(AtomicBool::new(false));
            threads.push(Some(Self::spawn_progress(
                listener,
                p,
                rank,
                Arc::clone(&pools[rank]),
                Arc::clone(&mailboxes[rank]),
                Arc::clone(&stop),
            )));
            stops.push(stop);
        }

        // 3. Connect the full mesh of outbound streams.
        let mut out: Vec<Mutex<Option<Stream>>> = (0..p * p).map(|_| Mutex::new(None)).collect();
        for src in 0..p {
            for dst in 0..p {
                if src == dst {
                    continue;
                }
                let mut stream = match kind {
                    TransportKind::Uds => Stream::Uds(UnixStream::connect(
                        uds_dir
                            .as_ref()
                            .expect("uds dir")
                            .join(format!("rank-{dst}.sock")),
                    )?),
                    TransportKind::Tcp => {
                        let s = TcpStream::connect(("127.0.0.1", tcp_ports[dst]))?;
                        s.set_nodelay(true)?;
                        Stream::Tcp(s)
                    }
                    _ => unreachable!(),
                };
                stream.write_all(&(src as u32).to_le_bytes())?;
                *out[src * p + dst].get_mut() = Some(stream);
            }
        }

        Ok(SocketTransport {
            p,
            kind,
            out,
            mailboxes: mailboxes.to_vec(),
            stops,
            threads: Mutex::new(threads),
            uds_dir,
        })
    }

    /// One rank's progress thread: accept inbound streams, then sweep
    /// them for frames until stopped.
    fn spawn_progress(
        listener: Listener,
        p: usize,
        rank: usize,
        pool: Arc<WirePool>,
        mailbox: Arc<Mailbox>,
        stop: Arc<AtomicBool>,
    ) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name(format!("sock-progress-{rank}"))
            .spawn(move || {
                // Accept phase: the listener is non-blocking so teardown
                // can never strand this thread mid-accept.
                let _ = listener.set_nonblocking(true);
                let mut inbound: Vec<(Stream, Vec<u8>)> = Vec::with_capacity(p - 1);
                while inbound.len() < p - 1 && !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok(stream) => {
                            // The hello names the connecting rank; we only
                            // need it consumed so frame bytes start clean.
                            let _ = stream.set_nonblocking(false);
                            let _ = stream.set_read_timeout(Some(HELLO_TIMEOUT));
                            let mut hello = [0u8; 4];
                            let mut s = stream;
                            if s.read_exact(&mut hello).is_err() {
                                continue; // stray connection; drop it
                            }
                            let _ = s.set_read_timeout(None);
                            let _ = s.set_nonblocking(true);
                            inbound.push((s, Vec::new()));
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(IDLE_NAP);
                        }
                        Err(_) => std::thread::sleep(IDLE_NAP),
                    }
                }

                // Sweep phase.
                let mut buf = vec![0u8; 64 * 1024];
                loop {
                    if stop.load(Ordering::Acquire) {
                        mailbox.close();
                        return;
                    }
                    let mut moved = false;
                    for (stream, acc) in &mut inbound {
                        loop {
                            match stream.read(&mut buf) {
                                Ok(0) => break, // peer closed; frames already buffered
                                Ok(n) => {
                                    moved = true;
                                    acc.extend_from_slice(&buf[..n]);
                                }
                                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                                Err(_) => break,
                            }
                        }
                        deliver_frames(acc, &pool, &mailbox);
                    }
                    if !moved {
                        std::thread::sleep(IDLE_NAP);
                    }
                }
            })
            .expect("failed to spawn socket progress thread")
    }
}

impl Transport for SocketTransport {
    fn kind(&self) -> TransportKind {
        self.kind
    }

    fn size(&self) -> usize {
        self.p
    }

    fn deposit(&self, dst: usize, env: Envelope) -> TransportResult<()> {
        if env.src == dst {
            return self.mailboxes[dst]
                .push(env)
                .map_err(|_| TransportError::Closed { peer: dst });
        }
        let mut frame = Vec::with_capacity(wire::HEADER_BYTES + env.data.len());
        wire::encode_into(&env, &mut frame);
        let mut slot = self.out[env.src * self.p + dst].lock();
        let stream = slot.as_mut().ok_or(TransportError::Closed { peer: dst })?;
        if let Err(e) = stream.write_all(&frame) {
            *slot = None; // poison: later deposits fail fast as Closed
            return Err(TransportError::Io {
                peer: dst,
                msg: e.to_string(),
            });
        }
        Ok(())
    }

    fn shutdown(&self, rank: usize) {
        if let Some(stop) = self.stops.get(rank) {
            stop.store(true, Ordering::Release);
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        for stop in &self.stops {
            stop.store(true, Ordering::Release);
        }
        for slot in &self.out {
            *slot.lock() = None; // close outbound streams
        }
        for handle in self.threads.lock().iter_mut() {
            if let Some(h) = handle.take() {
                let _ = h.join();
            }
        }
        if let Some(dir) = &self.uds_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fabric::per_rank;

    fn exercise(t: &SocketTransport, mbs: &[Arc<Mailbox>]) {
        // Cross-rank FIFO per link, plus a self-send.
        for i in 0..20u8 {
            t.deposit(1, Envelope::new(0, 0, 5, vec![i; 8])).unwrap();
        }
        t.deposit(0, Envelope::new(0, 0, 6, vec![0xEE])).unwrap();
        for i in 0..20u8 {
            let env = mbs[1].pop().unwrap();
            assert_eq!((env.src, env.tag), (0, 5));
            assert_eq!(env.data, vec![i; 8]);
        }
        assert_eq!(mbs[0].pop().unwrap().data, vec![0xEEu8]);
    }

    #[test]
    fn uds_mesh_delivers_in_order() {
        let mbs = per_rank::<Mailbox>(3);
        let t = SocketTransport::uds(3, &per_rank(3), &mbs).unwrap();
        assert_eq!(t.kind(), TransportKind::Uds);
        assert!(!t.in_process());
        exercise(&t, &mbs);
    }

    #[test]
    fn tcp_mesh_delivers_in_order() {
        let mbs = per_rank::<Mailbox>(3);
        let t = SocketTransport::tcp(3, &per_rank(3), &mbs).unwrap();
        assert_eq!(t.kind(), TransportKind::Tcp);
        exercise(&t, &mbs);
    }

    #[test]
    fn large_payload_crosses_the_stream() {
        let mbs = per_rank::<Mailbox>(2);
        let t = SocketTransport::uds(2, &per_rank(2), &mbs).unwrap();
        let big = vec![0x5Au8; 1 << 20];
        t.deposit(1, Envelope::new(0, 0, 1, big.clone())).unwrap();
        let env = mbs[1].pop().unwrap();
        assert_eq!(*env.data, big);
    }

    #[test]
    fn uds_scratch_dir_is_removed_on_drop() {
        let dir = {
            let t = SocketTransport::uds(2, &per_rank(2), &per_rank(2)).unwrap();
            let dir = t.uds_dir.clone().unwrap();
            assert!(dir.exists());
            dir
        };
        assert!(!dir.exists(), "socket dir must be cleaned up");
    }

    #[test]
    fn single_rank_universe_works() {
        let mbs = per_rank::<Mailbox>(1);
        let t = SocketTransport::tcp(1, &per_rank(1), &mbs).unwrap();
        t.deposit(0, Envelope::new(0, 0, 0, vec![1u8])).unwrap();
        assert_eq!(mbs[0].pop().unwrap().data, vec![1u8]);
    }
}
