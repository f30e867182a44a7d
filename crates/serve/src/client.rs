//! A blocking cartserve client: one connection, one tenant, one
//! outstanding request at a time.
//!
//! The client frames [`Request`](crate::proto::Request)s onto the socket
//! and parses [`Reply`](crate::proto::Reply) frames back, matching the
//! echoed request id. [`Client::submit`] surfaces admission control
//! directly — a full daemon comes back as [`Submission::Busy`] with
//! the daemon's retry-after hint, and [`Client::submit_retrying`] wraps
//! the obvious backoff loop for callers that just want the bytes. A
//! job's payload goes out from the caller's slice, and its `RESULT` is
//! read straight into the buffer [`Submission::Done`] hands back: neither
//! is copied on the client's side of the socket.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use crate::proto::{self, JobSpec, ProfileSpec, RecvBuf, Reply, Request, PROTO_VERSION};

enum Stream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn reader(&mut self) -> &mut dyn Read {
        match self {
            Stream::Uds(s) => s,
            Stream::Tcp(s) => s,
        }
    }

    fn writer(&mut self) -> &mut dyn Write {
        match self {
            Stream::Uds(s) => s,
            Stream::Tcp(s) => s,
        }
    }
}

/// The outcome of one submission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submission {
    /// The job ran; `p` concatenated per-rank receive buffers.
    Done(Vec<u8>),
    /// The daemon had its fill of jobs; retry after the hinted delay.
    Busy {
        /// Daemon's backoff hint in milliseconds.
        retry_after_ms: u32,
    },
}

/// A connected cartserve client for one tenant.
pub struct Client {
    stream: Stream,
    tenant: String,
    buf: RecvBuf,
    next_ctx: u32,
}

impl Client {
    /// Connect over a Unix-domain socket and handshake as `tenant`.
    pub fn connect_uds(path: impl AsRef<Path>, tenant: &str) -> io::Result<Client> {
        let s = UnixStream::connect(path)?;
        Self::handshake(Stream::Uds(s), tenant)
    }

    /// Connect over TCP and handshake as `tenant`.
    pub fn connect_tcp(addr: &str, tenant: &str) -> io::Result<Client> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Self::handshake(Stream::Tcp(s), tenant)
    }

    fn handshake(stream: Stream, tenant: &str) -> io::Result<Client> {
        let mut c = Client {
            stream,
            tenant: tenant.to_string(),
            buf: RecvBuf::new(),
            next_ctx: 1,
        };
        match c.roundtrip(&Request::Hello {
            tenant: tenant.to_string(),
        })? {
            Reply::HelloOk { version } if version == PROTO_VERSION => Ok(c),
            Reply::HelloOk { version } => Err(other(format!(
                "daemon speaks protocol v{version}, client v{PROTO_VERSION}"
            ))),
            r => Err(other(format!("unexpected hello reply: {r:?}"))),
        }
    }

    /// The tenant this connection submits as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Submit one job. `payload` must hold the send buffers of all
    /// `spec.ranks()` ranks back to back.
    pub fn submit(&mut self, spec: &JobSpec, payload: &[u8]) -> io::Result<Submission> {
        let ctx = self.next_ctx();
        proto::write_submit(self.stream.writer(), ctx, &self.tenant, spec, payload)?;
        match self.read_reply(ctx)? {
            Reply::Result { payload } => Ok(Submission::Done(payload)),
            Reply::Busy { retry_after_ms } => Ok(Submission::Busy { retry_after_ms }),
            Reply::Err { message } => Err(other(message)),
            r => Err(other(format!("unexpected submit reply: {r:?}"))),
        }
    }

    /// Submit, sleeping out `BUSY` responses, up to `max_attempts`.
    pub fn submit_retrying(
        &mut self,
        spec: &JobSpec,
        payload: &[u8],
        max_attempts: usize,
    ) -> io::Result<Vec<u8>> {
        for _ in 0..max_attempts.max(1) {
            match self.submit(spec, payload)? {
                Submission::Done(out) => return Ok(out),
                Submission::Busy { retry_after_ms } => {
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1) as u64));
                }
            }
        }
        Err(other("daemon stayed busy past the retry budget"))
    }

    /// Fetch the daemon's stats report (JSON).
    pub fn stats(&mut self) -> io::Result<String> {
        match self.roundtrip(&Request::Stats)? {
            Reply::StatsOk { json } => Ok(json),
            r => Err(other(format!("unexpected stats reply: {r:?}"))),
        }
    }

    /// Liveness probe: the daemon echoes `payload`.
    pub fn ping(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        self.ping_info(payload).map(|(payload, _, _)| payload)
    }

    /// Liveness probe with daemon identity: the echoed payload plus the
    /// daemon's uptime in milliseconds and its build version.
    pub fn ping_info(&mut self, payload: &[u8]) -> io::Result<(Vec<u8>, u64, String)> {
        match self.roundtrip(&Request::Ping {
            payload: payload.to_vec(),
        })? {
            Reply::Pong {
                payload,
                uptime_ms,
                version,
            } => Ok((payload, uptime_ms, version)),
            r => Err(other(format!("unexpected ping reply: {r:?}"))),
        }
    }

    /// Start an attach-profiling session and block until the daemon sends
    /// the deferred `PROFILE_OK` — after `spec.jobs` jobs of the target
    /// tenant ran, or the duration budget expired. Returns the JSON
    /// summary and the (possibly empty) embedded Perfetto trace.
    pub fn profile(&mut self, spec: &ProfileSpec) -> io::Result<(String, Vec<u8>)> {
        match self.roundtrip(&Request::Profile { spec: spec.clone() })? {
            Reply::ProfileOk { json, trace } => Ok((json, trace)),
            Reply::Err { message } => Err(other(message)),
            r => Err(other(format!("unexpected profile reply: {r:?}"))),
        }
    }

    /// Fetch the daemon's OpenMetrics text document.
    pub fn metrics_text(&mut self) -> io::Result<String> {
        match self.roundtrip(&Request::Metrics)? {
            Reply::MetricsOk { text } => Ok(text),
            r => Err(other(format!("unexpected metrics reply: {r:?}"))),
        }
    }

    /// Ask the daemon to drain and stop. Returns once the drain is
    /// complete (`SHUTDOWN_OK` received).
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Reply::ShutdownOk => Ok(()),
            r => Err(other(format!("unexpected shutdown reply: {r:?}"))),
        }
    }

    fn next_ctx(&mut self) -> u32 {
        let ctx = self.next_ctx;
        self.next_ctx = self.next_ctx.wrapping_add(1);
        ctx
    }

    fn roundtrip(&mut self, req: &Request) -> io::Result<Reply> {
        let ctx = self.next_ctx();
        let bytes = req.encode_frame(ctx);
        self.stream.writer().write_all(&bytes)?;
        self.stream.writer().flush()?;
        self.read_reply(ctx)
    }

    fn read_reply(&mut self, ctx: u32) -> io::Result<Reply> {
        loop {
            while let Some(env) = self.buf.next_frame() {
                if env.ctx != ctx {
                    // Stale reply to an abandoned request; skip it.
                    continue;
                }
                return Reply::from_env(env).map_err(other);
            }
            if self.buf.fill(self.stream.reader())? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
        }
    }
}

fn other(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}
