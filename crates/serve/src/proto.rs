//! The cartserve wire protocol: job submission and control messages.
//!
//! Every message travels as one [`Envelope`] frame in the byte format of
//! [`cartcomm_comm::transport::wire`] — the exact encoding the socket and
//! shared-memory transports use for rank-to-rank traffic, reused here for
//! the client↔daemon control plane. The envelope `tag` carries the message
//! type, the envelope `ctx` carries a client-chosen request id that the
//! daemon echoes in its reply, and the payload carries the message body.
//!
//! Request tags (client → daemon):
//!
//! | tag | message | body |
//! |-----|---------|------|
//! | `0x01` | `HELLO` | tenant name |
//! | `0x02` | `SUBMIT` | tenant + [`JobSpec`] + send payload |
//! | `0x04` | `SHUTDOWN` | empty |
//! | `0x05` | `PING` | opaque bytes, echoed |
//! | `0x06` | `PROFILE` | tenant + job/duration budget + capture knobs |
//! | `0x07` | `METRICS` | empty |
//!
//! Reply tags (daemon → client):
//!
//! | tag | message | body |
//! |-----|---------|------|
//! | `0x81` | `HELLO_OK` | protocol version (`u32`) |
//! | `0x82` | `RESULT` | `p` concatenated per-rank receive buffers |
//! | `0x83` | `BUSY` | retry-after hint in ms (`u32`) |
//! | `0x84` | `ERR` | UTF-8 error message |
//! | `0x86` | `SHUTDOWN_OK` | empty |
//! | `0x87` | `PONG` | the `PING` bytes |
//! | `0x88` | `PROFILE_OK` | UTF-8 JSON report + optional Perfetto trace |
//! | `0x89` | `METRICS_OK` | UTF-8 OpenMetrics text |
//!
//! A [`JobSpec`] names a complete collective: the Cartesian topology
//! (dims and periodicity), the isomorphic relative neighborhood, the
//! operation with its counts/displacements (in the units of the matching
//! `CartComm` method), and the algorithm. The submit payload carries the
//! send buffers of **all** `p` ranks back to back — the service owns the
//! ranks, the client owns the data. All integers little-endian.
//!
//! Both ends read frames through one `RecvBuf`: headers and small frames
//! arrive in a fixed 16 KiB staging buffer and decode out of it; a larger
//! frame is read straight into the pooled buffer that becomes its
//! envelope's `data` — a daemon's job payload, a client's `RESULT` — so
//! its bytes are held once, and that buffer grows with what arrives, never
//! with what a header claims.

use std::borrow::Cow;
use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;

use cartcomm::ops::Algo;
use cartcomm_comm::envelope::Envelope;
use cartcomm_comm::transport::wire;
use cartcomm_comm::{PooledBuf, WirePool};
use cartcomm_types::Reducer;

/// Protocol version sent in `HELLO_OK`. Version 2 added the
/// `PROFILE`/`METRICS` requests; version 3 dropped `STATS` (the metrics
/// document carries what it reported) and made `PONG` an echo only.
pub const PROTO_VERSION: u32 = 3;

/// Request tags.
pub const TAG_HELLO: u32 = 0x01;
pub const TAG_SUBMIT: u32 = 0x02;
pub const TAG_SHUTDOWN: u32 = 0x04;
pub const TAG_PING: u32 = 0x05;
pub const TAG_PROFILE: u32 = 0x06;
pub const TAG_METRICS: u32 = 0x07;

/// Reply tags.
pub const TAG_HELLO_OK: u32 = 0x81;
pub const TAG_RESULT: u32 = 0x82;
pub const TAG_BUSY: u32 = 0x83;
pub const TAG_ERR: u32 = 0x84;
pub const TAG_SHUTDOWN_OK: u32 = 0x86;
pub const TAG_PONG: u32 = 0x87;
pub const TAG_PROFILE_OK: u32 = 0x88;
pub const TAG_METRICS_OK: u32 = 0x89;

/// Which algorithm the daemon should run the collective with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoSpec {
    /// The t-round trivial algorithm (Listing 4).
    Trivial,
    /// The message-combining schedule (§3).
    Combining,
}

impl AlgoSpec {
    /// The ops-layer algorithm selector.
    pub fn to_algo(self) -> Algo {
        match self {
            AlgoSpec::Trivial => Algo::Trivial,
            AlgoSpec::Combining => Algo::Combining,
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            AlgoSpec::Trivial => 0,
            AlgoSpec::Combining => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(AlgoSpec::Trivial),
            1 => Some(AlgoSpec::Combining),
            _ => None,
        }
    }
}

/// The collective operation of a job, with per-neighbor counts and
/// displacements in the units of the matching [`cartcomm::CartComm`]
/// method. `w` blocks are `(byte displacement, byte count)` pairs over the
/// byte datatype.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpSpec {
    /// `Cart_alltoallv`: counts/displs in elements of `elem_size` bytes.
    Alltoallv {
        elem_size: usize,
        sendcounts: Vec<usize>,
        senddispls: Vec<usize>,
        recvcounts: Vec<usize>,
        recvdispls: Vec<usize>,
    },
    /// `Cart_allgatherv`: one send block of `sendcount` elements,
    /// `t` receive displacements.
    Allgatherv {
        elem_size: usize,
        sendcount: usize,
        recvdispls: Vec<usize>,
    },
    /// `Cart_alltoallw` over byte blocks.
    Alltoallw {
        send_blocks: Vec<(i64, usize)>,
        recv_blocks: Vec<(i64, usize)>,
    },
    /// `Cart_allgatherw` over byte blocks.
    Allgatherw {
        send_block: (i64, usize),
        recv_blocks: Vec<(i64, usize)>,
    },
    /// `Cart_reduce_scatter`: each rank contributes `t` blocks of `count`
    /// elements of the reducer's primitive and receives one combined
    /// block of `count` elements.
    ReduceScatter { red: Reducer, count: usize },
    /// `Cart_allreduce`: one block of `count` elements in, the reduced
    /// block of `count` elements out.
    Allreduce { red: Reducer, count: usize },
}

/// A complete job: topology, neighborhood, operation, algorithm. The
/// tenant name and the payload travel beside the spec in `SUBMIT`, so the
/// spec itself is exactly the *shape* of the job — two submissions with
/// equal specs hit the same plan-store entries, whoever sent them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Grid extent per dimension; the job runs on `Π dims` ranks.
    pub dims: Vec<usize>,
    /// Periodicity per dimension.
    pub periods: Vec<bool>,
    /// The isomorphic relative neighborhood, one offset vector per
    /// neighbor, each of `dims.len()` coordinates.
    pub offsets: Vec<Vec<i64>>,
    /// The collective to run.
    pub op: OpSpec,
    /// Which algorithm to run it with.
    pub algo: AlgoSpec,
}

impl JobSpec {
    /// Number of ranks the job needs: the product of the grid dims.
    /// Panics if it overflows `usize`; [`JobSpec::validate`] refuses such
    /// a spec.
    pub fn ranks(&self) -> usize {
        self.checked_ranks().expect(OVERFLOWS)
    }

    fn checked_ranks(&self) -> Option<usize> {
        self.dims.iter().try_fold(1usize, |p, &d| p.checked_mul(d))
    }

    /// Neighborhood size `t`.
    pub fn neighbor_count(&self) -> usize {
        self.offsets.len()
    }

    /// Bytes each rank contributes in the submit payload. Panics if they
    /// overflow `usize`; [`JobSpec::validate`] refuses such a spec.
    pub fn send_bytes_per_rank(&self) -> usize {
        self.checked_send_bytes().expect(OVERFLOWS)
    }

    fn checked_send_bytes(&self) -> Option<usize> {
        match &self.op {
            OpSpec::Alltoallv {
                elem_size,
                sendcounts,
                senddispls,
                ..
            } => span_bytes(sendcounts, senddispls, *elem_size),
            OpSpec::Allgatherv {
                elem_size,
                sendcount,
                ..
            } => sendcount.checked_mul(*elem_size),
            OpSpec::Alltoallw { send_blocks, .. } => w_span(send_blocks),
            OpSpec::Allgatherw { send_block, .. } => w_span(std::slice::from_ref(send_block)),
            OpSpec::ReduceScatter { red, count } => self
                .neighbor_count()
                .checked_mul(*count)?
                .checked_mul(red.width()),
            OpSpec::Allreduce { red, count } => count.checked_mul(red.width()),
        }
    }

    /// Bytes each rank receives in the result payload. Panics if they
    /// overflow `usize`; [`JobSpec::validate`] refuses such a spec.
    pub fn recv_bytes_per_rank(&self) -> usize {
        self.checked_recv_bytes().expect(OVERFLOWS)
    }

    fn checked_recv_bytes(&self) -> Option<usize> {
        match &self.op {
            OpSpec::Alltoallv {
                elem_size,
                recvcounts,
                recvdispls,
                ..
            } => span_bytes(recvcounts, recvdispls, *elem_size),
            OpSpec::Allgatherv {
                elem_size,
                sendcount,
                recvdispls,
            } => span_bytes(&vec![*sendcount; recvdispls.len()], recvdispls, *elem_size),
            OpSpec::Alltoallw { recv_blocks, .. } | OpSpec::Allgatherw { recv_blocks, .. } => {
                w_span(recv_blocks)
            }
            OpSpec::ReduceScatter { red, count } | OpSpec::Allreduce { red, count } => {
                count.checked_mul(red.width())
            }
        }
    }

    /// Per-neighbor receive-block sizes in bytes — the `block_bytes` the
    /// executor's layouts carry, used for the analytical volume
    /// prediction (`V·m`, Prop. 3.3).
    pub fn recv_block_bytes(&self) -> Vec<usize> {
        match &self.op {
            OpSpec::Alltoallv {
                elem_size,
                recvcounts,
                ..
            } => recvcounts.iter().map(|c| c * elem_size).collect(),
            OpSpec::Allgatherv {
                elem_size,
                sendcount,
                recvdispls,
            } => vec![sendcount * elem_size; recvdispls.len()],
            OpSpec::Alltoallw { recv_blocks, .. } | OpSpec::Allgatherw { recv_blocks, .. } => {
                recv_blocks.iter().map(|&(_, count)| count).collect()
            }
            OpSpec::ReduceScatter { red, count } | OpSpec::Allreduce { red, count } => {
                vec![count * red.width(); self.neighbor_count()]
            }
        }
    }

    /// Structural validation: everything a daemon must check before
    /// spending a universe on the job.
    pub fn validate(&self) -> Result<(), String> {
        let d = self.dims.len();
        if d == 0 {
            return Err("job has no dimensions".into());
        }
        if self.periods.len() != d {
            return Err(format!("{} periods for {} dims", self.periods.len(), d));
        }
        if self.dims.contains(&0) {
            return Err("zero-extent dimension".into());
        }
        let t = self.neighbor_count();
        if t == 0 {
            return Err("empty neighborhood".into());
        }
        if let Some(bad) = self.offsets.iter().find(|o| o.len() != d) {
            return Err(format!("offset {bad:?} has wrong arity (want {d})"));
        }
        let check = |name: &str, len: usize, want: usize| -> Result<(), String> {
            if len != want {
                Err(format!("{name} has {len} entries, want {want}"))
            } else {
                Ok(())
            }
        };
        match &self.op {
            OpSpec::Alltoallv {
                elem_size,
                sendcounts,
                senddispls,
                recvcounts,
                recvdispls,
            } => {
                if *elem_size == 0 {
                    return Err("elem_size is zero".into());
                }
                check("sendcounts", sendcounts.len(), t)?;
                check("senddispls", senddispls.len(), t)?;
                check("recvcounts", recvcounts.len(), t)?;
                check("recvdispls", recvdispls.len(), t)?;
            }
            OpSpec::Allgatherv {
                elem_size,
                recvdispls,
                ..
            } => {
                if *elem_size == 0 {
                    return Err("elem_size is zero".into());
                }
                check("recvdispls", recvdispls.len(), t)?;
            }
            OpSpec::Alltoallw {
                send_blocks,
                recv_blocks,
            } => {
                check("send_blocks", send_blocks.len(), t)?;
                check("recv_blocks", recv_blocks.len(), t)?;
            }
            OpSpec::Allgatherw { recv_blocks, .. } => {
                check("recv_blocks", recv_blocks.len(), t)?;
            }
            OpSpec::ReduceScatter { .. } | OpSpec::Allreduce { .. } => {
                // The reducer is validated structurally at decode time and
                // the buffer sizes follow from `count` alone.
            }
        }
        // Every size the daemon computes from the spec, up to the whole
        // payload and the whole result, fits a `usize`.
        let ranks = self.checked_ranks();
        let fits = |per_rank: Option<usize>| ranks?.checked_mul(per_rank?);
        if fits(self.checked_send_bytes()).is_none() || fits(self.checked_recv_bytes()).is_none() {
            return Err("job size overflows (ranks × bytes per rank)".into());
        }
        // A job of zero bytes costs nothing by size, but its ranks each get
        // state before a byte moves.
        let p = self.ranks();
        if p > MAX_RANKS {
            return Err(format!("job asks for {p} ranks, over {MAX_RANKS}"));
        }
        Ok(())
    }

    /// Serialize the spec body (without tenant or payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let d = self.dims.len();
        out.push(d as u8);
        for &x in &self.dims {
            put_u32(&mut out, x as u32);
        }
        for &p in &self.periods {
            out.push(p as u8);
        }
        put_u32(&mut out, self.offsets.len() as u32);
        for off in &self.offsets {
            for &c in off {
                put_i64(&mut out, c);
            }
        }
        out.push(self.algo.to_byte());
        match &self.op {
            OpSpec::Alltoallv {
                elem_size,
                sendcounts,
                senddispls,
                recvcounts,
                recvdispls,
            } => {
                out.push(0);
                put_u32(&mut out, *elem_size as u32);
                put_usize_vec(&mut out, sendcounts);
                put_usize_vec(&mut out, senddispls);
                put_usize_vec(&mut out, recvcounts);
                put_usize_vec(&mut out, recvdispls);
            }
            OpSpec::Allgatherv {
                elem_size,
                sendcount,
                recvdispls,
            } => {
                out.push(1);
                put_u32(&mut out, *elem_size as u32);
                put_u64(&mut out, *sendcount as u64);
                put_usize_vec(&mut out, recvdispls);
            }
            OpSpec::Alltoallw {
                send_blocks,
                recv_blocks,
            } => {
                out.push(2);
                put_block_vec(&mut out, send_blocks);
                put_block_vec(&mut out, recv_blocks);
            }
            OpSpec::Allgatherw {
                send_block,
                recv_blocks,
            } => {
                out.push(3);
                put_i64(&mut out, send_block.0);
                put_u64(&mut out, send_block.1 as u64);
                put_block_vec(&mut out, recv_blocks);
            }
            OpSpec::ReduceScatter { red, count } => {
                out.push(4);
                out.extend_from_slice(&red.encode());
                put_u64(&mut out, *count as u64);
            }
            OpSpec::Allreduce { red, count } => {
                out.push(5);
                out.extend_from_slice(&red.encode());
                put_u64(&mut out, *count as u64);
            }
        }
        out
    }

    /// Deserialize a spec body.
    pub fn decode(buf: &[u8]) -> Result<Self, String> {
        let mut c = Cursor::new(buf);
        let spec = Self::read(&mut c)?;
        if !c.at_end() {
            return Err("trailing bytes after job spec".into());
        }
        Ok(spec)
    }

    fn read(c: &mut Cursor<'_>) -> Result<Self, String> {
        let d = c.u8()? as usize;
        let dims = (0..d)
            .map(|_| c.u32().map(|x| x as usize))
            .collect::<Result<Vec<_>, _>>()?;
        let periods = (0..d)
            .map(|_| c.u8().map(|b| b != 0))
            .collect::<Result<Vec<_>, _>>()?;
        let t = c.u32()? as usize;
        // An offset takes `8·d` bytes, so what arrived bounds how many
        // decode — except in zero dimensions, where none holds a byte.
        if t > MAX_NEIGHBORS || (d == 0 && t > 0) {
            return Err(format!(
                "neighborhood of {t} in {d} dimensions exceeds limit"
            ));
        }
        let offsets = (0..t)
            .map(|_| (0..d).map(|_| c.i64()).collect::<Result<Vec<_>, _>>())
            .collect::<Result<Vec<_>, _>>()?;
        let algo = AlgoSpec::from_byte(c.u8()?).ok_or("bad algo byte")?;
        let op = match c.u8()? {
            0 => OpSpec::Alltoallv {
                elem_size: c.u32()? as usize,
                sendcounts: c.usize_vec()?,
                senddispls: c.usize_vec()?,
                recvcounts: c.usize_vec()?,
                recvdispls: c.usize_vec()?,
            },
            1 => OpSpec::Allgatherv {
                elem_size: c.u32()? as usize,
                sendcount: c.u64()? as usize,
                recvdispls: c.usize_vec()?,
            },
            2 => OpSpec::Alltoallw {
                send_blocks: c.block_vec()?,
                recv_blocks: c.block_vec()?,
            },
            3 => OpSpec::Allgatherw {
                send_block: (c.i64()?, c.u64()? as usize),
                recv_blocks: c.block_vec()?,
            },
            4 => OpSpec::ReduceScatter {
                red: c.reducer()?,
                count: c.u64()? as usize,
            },
            5 => OpSpec::Allreduce {
                red: c.reducer()?,
                count: c.u64()? as usize,
            },
            k => return Err(format!("unknown op kind {k}")),
        };
        Ok(JobSpec {
            dims,
            periods,
            offsets,
            op,
            algo,
        })
    }
}

/// Sanity bound on decoded vector lengths (a malformed frame must not
/// allocate unbounded memory).
const MAX_NEIGHBORS: usize = 1 << 20;

/// Bound on a job's rank count: a daemon builds an `Obs`, a peer table and
/// on the reference path a thread per rank.
const MAX_RANKS: usize = 1 << 16;

/// Bound on a tenant name's bytes: the daemon keeps every name it has
/// served, and renders each into every metrics scrape.
pub(crate) const MAX_TENANT_BYTES: usize = 256;

/// Refuse a tenant name over [`MAX_TENANT_BYTES`].
pub(crate) fn check_tenant_len(tenant: &str) -> Result<(), String> {
    match tenant.len() {
        n if n > MAX_TENANT_BYTES => {
            Err(format!("tenant name is {n} bytes, over {MAX_TENANT_BYTES}"))
        }
        _ => Ok(()),
    }
}

/// An attach-on-demand profiling request: capture the next `jobs` jobs of
/// `tenant` (or until `duration_ms` elapses, whichever comes first) with
/// per-rank ring sinks, and reply with the analyzed report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSpec {
    /// Tenant whose jobs get captured; other tenants run unperturbed.
    pub tenant: String,
    /// Number of jobs to capture. `0` means "until the deadline".
    pub jobs: u32,
    /// Wall-clock budget in ms. `0` means the daemon default (30 s).
    pub duration_ms: u32,
    /// Per-rank ring-sink capacity in records. `0` means the daemon
    /// default.
    pub ring_capacity: u32,
    /// Embed a Perfetto trace of the last captured job in the reply.
    pub include_trace: bool,
}

impl ProfileSpec {
    /// Structural validation mirroring [`JobSpec::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if self.tenant.is_empty() {
            return Err("profile request names no tenant".into());
        }
        check_tenant_len(&self.tenant)?;
        if self.jobs == 0 && self.duration_ms == 0 {
            return Err("profile request has neither a job nor a duration budget".into());
        }
        Ok(())
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(17 + self.tenant.len());
        put_u32(&mut out, self.tenant.len() as u32);
        out.extend_from_slice(self.tenant.as_bytes());
        put_u32(&mut out, self.jobs);
        put_u32(&mut out, self.duration_ms);
        put_u32(&mut out, self.ring_capacity);
        out.push(self.include_trace as u8);
        out
    }

    fn decode(body: &[u8]) -> Result<Self, String> {
        let mut c = Cursor::new(body);
        let tlen = c.u32()? as usize;
        let tenant = utf8(c.take(tlen)?)?;
        let spec = ProfileSpec {
            tenant,
            jobs: c.u32()?,
            duration_ms: c.u32()?,
            ring_capacity: c.u32()?,
            include_trace: c.u8()? != 0,
        };
        if !c.at_end() {
            return Err("trailing bytes after profile spec".into());
        }
        Ok(spec)
    }
}

/// A decoded client→daemon request.
///
/// `Submit` dwarfs the other variants by design — a request either is a
/// job or is a few bytes of control — so boxing the spec would only add
/// an indirection on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum Request {
    Hello {
        tenant: String,
    },
    Submit {
        tenant: String,
        spec: JobSpec,
        payload: Vec<u8>,
    },
    Shutdown,
    Ping {
        payload: Vec<u8>,
    },
    Profile {
        spec: ProfileSpec,
    },
    Metrics,
}

impl Request {
    /// Frame the request as one wire envelope with request id `ctx`.
    pub fn encode_frame(&self, ctx: u32) -> Vec<u8> {
        let (tag, body) = match self {
            Request::Hello { tenant } => (TAG_HELLO, tenant.as_bytes().to_vec()),
            Request::Submit {
                tenant,
                spec,
                payload,
            } => {
                let spec_bytes = spec.encode();
                let mut body =
                    Vec::with_capacity(8 + tenant.len() + spec_bytes.len() + payload.len());
                put_u32(&mut body, tenant.len() as u32);
                body.extend_from_slice(tenant.as_bytes());
                put_u32(&mut body, spec_bytes.len() as u32);
                body.extend_from_slice(&spec_bytes);
                body.extend_from_slice(payload);
                (TAG_SUBMIT, body)
            }
            Request::Shutdown => (TAG_SHUTDOWN, Vec::new()),
            Request::Ping { payload } => (TAG_PING, payload.clone()),
            Request::Profile { spec } => (TAG_PROFILE, spec.encode()),
            Request::Metrics => (TAG_METRICS, Vec::new()),
        };
        frame(ctx, tag, &body)
    }

    /// Decode a request from an envelope.
    pub fn decode_env(env: &Envelope) -> Result<Self, String> {
        let body: &[u8] = &env.data;
        match env.tag {
            TAG_HELLO => Ok(Request::Hello {
                tenant: utf8(body)?,
            }),
            TAG_SUBMIT => {
                let (tenant, spec, payload_at) = decode_submit_head(body)?;
                Ok(Request::Submit {
                    tenant,
                    spec,
                    payload: body[payload_at..].to_vec(),
                })
            }
            TAG_SHUTDOWN => Ok(Request::Shutdown),
            TAG_PING => Ok(Request::Ping {
                payload: body.to_vec(),
            }),
            TAG_PROFILE => Ok(Request::Profile {
                spec: ProfileSpec::decode(body)?,
            }),
            TAG_METRICS => Ok(Request::Metrics),
            t => Err(format!("unknown request tag {t:#x}")),
        }
    }
}

/// A decoded daemon→client reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    HelloOk {
        version: u32,
    },
    Result {
        payload: Vec<u8>,
    },
    Busy {
        retry_after_ms: u32,
    },
    Err {
        message: String,
    },
    ShutdownOk,
    /// Echo of the `PING` bytes. The daemon's uptime and version are in
    /// its metrics document.
    Pong {
        payload: Vec<u8>,
    },
    /// The analyzed attach-profiling report: a JSON summary plus, when
    /// requested, an embedded Perfetto trace of the last captured job.
    ProfileOk {
        json: String,
        trace: Vec<u8>,
    },
    /// The OpenMetrics text exposition of the daemon's live metrics.
    MetricsOk {
        text: String,
    },
}

impl Reply {
    /// The reply's tag and body. Payload-carrying replies lend their
    /// bytes; the rest build a few.
    fn parts(&self) -> (u32, Cow<'_, [u8]>) {
        let owned = |tag: u32, b: Vec<u8>| (tag, Cow::Owned(b));
        match self {
            Reply::HelloOk { version } => owned(TAG_HELLO_OK, version.to_le_bytes().to_vec()),
            Reply::Result { payload } => (TAG_RESULT, Cow::Borrowed(&payload[..])),
            Reply::Busy { retry_after_ms } => {
                owned(TAG_BUSY, retry_after_ms.to_le_bytes().to_vec())
            }
            Reply::Err { message } => (TAG_ERR, Cow::Borrowed(message.as_bytes())),
            Reply::ShutdownOk => owned(TAG_SHUTDOWN_OK, Vec::new()),
            Reply::Pong { payload } => (TAG_PONG, Cow::Borrowed(&payload[..])),
            Reply::ProfileOk { json, trace } => {
                let mut b = Vec::with_capacity(4 + json.len() + trace.len());
                put_u32(&mut b, json.len() as u32);
                b.extend_from_slice(json.as_bytes());
                b.extend_from_slice(trace);
                owned(TAG_PROFILE_OK, b)
            }
            Reply::MetricsOk { text } => (TAG_METRICS_OK, Cow::Borrowed(text.as_bytes())),
        }
    }

    /// Frame the reply as one wire envelope echoing request id `ctx`.
    pub fn encode_frame(&self, ctx: u32) -> Vec<u8> {
        let (tag, body) = self.parts();
        frame(ctx, tag, &body)
    }

    /// Write the frame [`Reply::encode_frame`] builds to `w` and flush,
    /// without building it (see `proto::write_frame`): a large `RESULT` payload
    /// is never copied.
    pub fn write_frame(&self, ctx: u32, w: &mut dyn Write) -> io::Result<()> {
        let (tag, body) = self.parts();
        write_frame(w, ctx, tag, &[], &body)
    }

    /// Decode a reply from an envelope it may take apart: a `RESULT`
    /// keeps the envelope's bytes instead of copying them.
    pub fn from_env(env: Envelope) -> Result<Self, String> {
        match env.tag {
            TAG_RESULT => Ok(Reply::Result {
                payload: env.data.into_vec(),
            }),
            _ => Reply::decode_env(&env),
        }
    }

    /// Decode a reply from an envelope.
    pub fn decode_env(env: &Envelope) -> Result<Self, String> {
        let body: &[u8] = &env.data;
        match env.tag {
            TAG_HELLO_OK => {
                let mut c = Cursor::new(body);
                Ok(Reply::HelloOk { version: c.u32()? })
            }
            TAG_RESULT => Ok(Reply::Result {
                payload: body.to_vec(),
            }),
            TAG_BUSY => {
                let mut c = Cursor::new(body);
                Ok(Reply::Busy {
                    retry_after_ms: c.u32()?,
                })
            }
            TAG_ERR => Ok(Reply::Err {
                message: utf8(body)?,
            }),
            TAG_SHUTDOWN_OK => Ok(Reply::ShutdownOk),
            TAG_PONG => Ok(Reply::Pong {
                payload: body.to_vec(),
            }),
            TAG_PROFILE_OK => {
                let mut c = Cursor::new(body);
                let jlen = c.u32()? as usize;
                let json = utf8(c.take(jlen)?)?;
                let trace = c.rest().to_vec();
                Ok(Reply::ProfileOk { json, trace })
            }
            TAG_METRICS_OK => Ok(Reply::MetricsOk { text: utf8(body)? }),
            t => Err(format!("unknown reply tag {t:#x}")),
        }
    }
}

fn frame(ctx: u32, tag: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(wire::HEADER_BYTES + body.len());
    out.extend_from_slice(&wire::encode_header(body.len(), ctx, 0, tag));
    out.extend_from_slice(body);
    out
}

/// Write one frame whose body is `head` followed by `payload`, and flush.
/// Header and both parts go out as the slices of vectored writes, so the
/// frame is never assembled; the bytes on the wire are those of [`frame`].
pub(crate) fn write_frame(
    w: &mut dyn Write,
    ctx: u32,
    tag: u32,
    head: &[u8],
    payload: &[u8],
) -> io::Result<()> {
    let body_len = head.len() + payload.len();
    let header = wire::encode_header(body_len, ctx, 0, tag);
    let mut slices = [&header[..], head, payload].map(IoSlice::new);
    let mut left = &mut slices[..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Write the frame of a `SUBMIT` request without owning — or copying —
/// its payload.
pub(crate) fn write_submit(
    w: &mut dyn Write,
    ctx: u32,
    tenant: &str,
    spec: &JobSpec,
    payload: &[u8],
) -> io::Result<()> {
    let spec_bytes = spec.encode();
    let mut head = Vec::with_capacity(8 + tenant.len() + spec_bytes.len());
    put_u32(&mut head, tenant.len() as u32);
    head.extend_from_slice(tenant.as_bytes());
    put_u32(&mut head, spec_bytes.len() as u32);
    head.extend_from_slice(&spec_bytes);
    write_frame(w, ctx, TAG_SUBMIT, &head, payload)
}

/// The part of a `SUBMIT` body before the payload: the tenant, the job,
/// and where in `body` the payload starts.
pub(crate) fn decode_submit_head(body: &[u8]) -> Result<(String, JobSpec, usize), String> {
    let mut c = Cursor::new(body);
    let tlen = c.u32()? as usize;
    let tenant = utf8(c.take(tlen)?)?;
    let slen = c.u32()? as usize;
    let spec = JobSpec::decode(c.take(slen)?)?;
    Ok((tenant, spec, body.len() - c.rest().len()))
}

/// The receiving end of a connection. Headers and the frames that fit
/// beside them arrive in one fixed staging buffer and decode out of it. A
/// frame that does not fit is read straight into the pooled buffer that
/// will carry it — the envelope's `data`, a job's payload, a client's
/// result — so its body crosses from the socket into memory once.
pub(crate) struct RecvBuf {
    /// Staging, `MIN_READ` bytes, all of it initialised;
    /// `staged[start..end]` is pending.
    staged: Vec<u8>,
    start: usize,
    end: usize,
    /// The frame being read past the staging buffer, if one is.
    body: Option<Body>,
    /// Where every frame's body buffer comes from and returns to.
    pool: Arc<WirePool>,
}

/// A frame too large to stage: its header, and its body as it arrives.
struct Body {
    header: [u8; wire::HEADER_BYTES],
    /// `data[..got]` has arrived; the rest of `data` is zeroed room for
    /// the read in progress.
    data: PooledBuf,
    got: usize,
    /// The body's length, as the header gives it.
    len: usize,
}

impl RecvBuf {
    /// The staging buffer's size: a frame up to this long is read and
    /// decoded there.
    const MIN_READ: usize = 16 * 1024;
    /// How far a body buffer may reach past what has arrived of it: it
    /// grows with the bytes a peer sends, not with the length its header
    /// claims.
    const MAX_READ: usize = 1 << 20;

    pub(crate) fn new() -> RecvBuf {
        RecvBuf {
            staged: vec![0; Self::MIN_READ],
            start: 0,
            end: 0,
            body: None,
            pool: Arc::new(WirePool::new()),
        }
    }

    /// The frame at the front, if all of it has arrived.
    pub(crate) fn next_frame(&mut self) -> Option<Envelope> {
        if let Some(body) = &self.body {
            if body.got < body.len {
                return None;
            }
            let Body { header, data, .. } = self.body.take()?;
            return Some(wire::envelope(&header, data));
        }
        let (env, used) = wire::decode_from(&self.staged[self.start..self.end], &self.pool)?;
        self.start += used;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        Some(env)
    }

    /// One `read` from `r`: onto the pending bytes in staging or, once the
    /// frame at the front is known not to fit there, into its body — never
    /// past that frame's end. Returns the number of bytes read; 0 is end
    /// of stream.
    pub(crate) fn fill(&mut self, r: &mut dyn Read) -> io::Result<usize> {
        let pending = &self.staged[self.start..self.end];
        let unstaged = wire::frame_len(pending).filter(|&n| n > Self::MIN_READ);
        if let (None, Some(total)) = (&self.body, unstaged) {
            let (header, arrived) = pending.split_at(wire::HEADER_BYTES);
            let len = total - wire::HEADER_BYTES;
            let mut data = WirePool::take(&self.pool, len.min(Self::MAX_READ));
            data.extend_from_slice(arrived);
            self.body = Some(Body {
                header: header.try_into().expect("a whole header"),
                got: arrived.len(),
                data,
                len,
            });
            (self.start, self.end) = (0, 0);
        }
        if let Some(body) = &mut self.body {
            let room = body.got + (body.len - body.got).min(Self::MAX_READ);
            if body.data.len() < room {
                // Exactly: what the buffer holds is its capacity.
                let more = room - body.data.len();
                body.data.reserve_exact(more);
                body.data.resize(room, 0);
            }
            let n = r.read(&mut body.data[body.got..room])?;
            body.got += n;
            return Ok(n);
        }
        // The frame at the front fits: move it to the front of staging,
        // where all of it has room.
        if self.start > 0 {
            self.staged.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        let n = r.read(&mut self.staged[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Bytes the buffer holds: staging and the body buffer's capacity.
    #[cfg(test)]
    fn held(&self) -> usize {
        self.staged.capacity() + self.body.as_ref().map_or(0, |b| b.data.capacity())
    }
}

fn utf8(b: &[u8]) -> Result<String, String> {
    String::from_utf8(b.to_vec()).map_err(|_| "invalid utf-8".to_string())
}

/// What a job's sizes panic with when they overflow.
const OVERFLOWS: &str = "job size overflows usize (JobSpec::validate refuses it)";

fn span_bytes(counts: &[usize], displs: &[usize], elem_size: usize) -> Option<usize> {
    counts.iter().zip(displs).try_fold(0, |max: usize, (c, d)| {
        Some(max.max(d.checked_add(*c)?.checked_mul(elem_size)?))
    })
}

fn w_span(blocks: &[(i64, usize)]) -> Option<usize> {
    blocks.iter().try_fold(0, |max: usize, &(disp, count)| {
        Some(max.max((disp.max(0) as usize).checked_add(count)?))
    })
}

// ----- little-endian primitives -------------------------------------------------

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, x: i64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_usize_vec(out: &mut Vec<u8>, v: &[usize]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_u64(out, x as u64);
    }
}

fn put_block_vec(out: &mut Vec<u8>, v: &[(i64, usize)]) {
    put_u32(out, v.len() as u32);
    for &(disp, count) in v {
        put_i64(out, disp);
        put_u64(out, count as u64);
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.at < n {
            return Err("truncated message".into());
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.at..];
        self.at = self.buf.len();
        s
    }

    fn at_end(&self) -> bool {
        self.at == self.buf.len()
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize_vec(&mut self) -> Result<Vec<usize>, String> {
        let n = self.u32()? as usize;
        if n > MAX_NEIGHBORS {
            return Err(format!("vector of {n} exceeds limit"));
        }
        (0..n).map(|_| self.u64().map(|x| x as usize)).collect()
    }

    fn reducer(&mut self) -> Result<Reducer, String> {
        let bytes = [self.u8()?, self.u8()?];
        Reducer::decode(bytes).ok_or_else(|| format!("bad reducer encoding {bytes:?}"))
    }

    fn block_vec(&mut self) -> Result<Vec<(i64, usize)>, String> {
        let n = self.u32()? as usize;
        if n > MAX_NEIGHBORS {
            return Err(format!("vector of {n} exceeds limit"));
        }
        (0..n)
            .map(|_| Ok((self.i64()?, self.u64()? as usize)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cartcomm_comm::WirePool;
    use std::sync::Arc;

    fn moore_spec(algo: AlgoSpec) -> JobSpec {
        let offsets: Vec<Vec<i64>> = (-1..=1)
            .flat_map(|a| (-1..=1).map(move |b| vec![a, b]))
            .filter(|o| o.iter().any(|&c| c != 0))
            .collect();
        let t = offsets.len();
        JobSpec {
            dims: vec![3, 3],
            periods: vec![true, true],
            offsets,
            op: OpSpec::Alltoallv {
                elem_size: 4,
                sendcounts: vec![2; t],
                senddispls: (0..t).map(|i| i * 2).collect(),
                recvcounts: vec![2; t],
                recvdispls: (0..t).map(|i| i * 2).collect(),
            },
            algo,
        }
    }

    fn roundtrip_req(req: &Request) -> Request {
        let bytes = req.encode_frame(7);
        let pool = Arc::new(WirePool::new());
        let (env, used) = wire::decode_from(&bytes, &pool).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(env.ctx, 7);
        Request::decode_env(&env).expect("request decodes")
    }

    fn roundtrip_reply(rep: &Reply) -> Reply {
        let bytes = rep.encode_frame(9);
        let pool = Arc::new(WirePool::new());
        let (env, used) = wire::decode_from(&bytes, &pool).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(env.ctx, 9);
        Reply::decode_env(&env).expect("reply decodes")
    }

    #[test]
    fn spec_roundtrips_and_sizes_add_up() {
        let spec = moore_spec(AlgoSpec::Combining);
        assert_eq!(JobSpec::decode(&spec.encode()).unwrap(), spec);
        assert_eq!(spec.ranks(), 9);
        assert_eq!(spec.neighbor_count(), 8);
        assert_eq!(spec.send_bytes_per_rank(), 8 * 2 * 4);
        assert_eq!(spec.recv_bytes_per_rank(), 8 * 2 * 4);
        assert_eq!(spec.recv_block_bytes(), vec![8; 8]);
        spec.validate().expect("valid");
    }

    #[test]
    fn reduce_specs_roundtrip_and_size() {
        use cartcomm_types::{Primitive, RedOp};
        let mut s = moore_spec(AlgoSpec::Combining);
        s.op = OpSpec::Allreduce {
            red: Reducer::new(RedOp::Sum, Primitive::F64),
            count: 5,
        };
        assert_eq!(JobSpec::decode(&s.encode()).unwrap(), s);
        assert_eq!(s.send_bytes_per_rank(), 5 * 8);
        assert_eq!(s.recv_bytes_per_rank(), 5 * 8);
        assert_eq!(s.recv_block_bytes(), vec![40; 8]);
        s.validate().expect("valid allreduce spec");

        let mut s2 = moore_spec(AlgoSpec::Trivial);
        s2.op = OpSpec::ReduceScatter {
            red: Reducer::new(RedOp::Max, Primitive::I16),
            count: 3,
        };
        assert_eq!(JobSpec::decode(&s2.encode()).unwrap(), s2);
        assert_eq!(s2.send_bytes_per_rank(), 8 * 3 * 2);
        assert_eq!(s2.recv_bytes_per_rank(), 3 * 2);
        s2.validate().expect("valid reduce_scatter spec");

        // A bad reducer byte must fail decode, not panic downstream.
        let mut bytes = s.encode();
        let n = bytes.len();
        bytes[n - 9] = 0xFF; // primitive code byte of the reducer
        assert!(JobSpec::decode(&bytes).is_err());
    }

    #[test]
    fn requests_and_replies_roundtrip_the_wire_format() {
        let spec = moore_spec(AlgoSpec::Combining);
        let payload = vec![0xAB; spec.ranks() * spec.send_bytes_per_rank()];
        for req in [
            Request::Hello {
                tenant: "t1".into(),
            },
            Request::Submit {
                tenant: "t1".into(),
                spec: spec.clone(),
                payload: payload.clone(),
            },
            Request::Shutdown,
            Request::Ping {
                payload: vec![1, 2, 3],
            },
            Request::Profile {
                spec: ProfileSpec {
                    tenant: "t1".into(),
                    jobs: 4,
                    duration_ms: 0,
                    ring_capacity: 1 << 14,
                    include_trace: true,
                },
            },
            Request::Metrics,
        ] {
            assert_eq!(roundtrip_req(&req), req);
        }
        for rep in [
            Reply::HelloOk {
                version: PROTO_VERSION,
            },
            Reply::Result {
                payload: payload.clone(),
            },
            Reply::Busy { retry_after_ms: 5 },
            Reply::Err {
                message: "nope".into(),
            },
            Reply::ShutdownOk,
            Reply::Pong {
                payload: vec![9; 4],
            },
            Reply::ProfileOk {
                json: "{\"schema\":\"cartserve-profile-v1\"}".into(),
                trace: vec![0x7B, 0x7D],
            },
            Reply::MetricsOk {
                text: "# EOF\n".into(),
            },
        ] {
            assert_eq!(roundtrip_reply(&rep), rep);
        }
    }

    /// A writer that takes at most `step` bytes per call and only looks
    /// at the first slice of a vectored write, like a short socket write.
    struct Dribble {
        out: Vec<u8>,
        step: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn written_frames_are_bit_identical_to_encoded_ones() {
        for rep in [
            Reply::HelloOk {
                version: PROTO_VERSION,
            },
            Reply::Result {
                payload: (0..=255u8).cycle().take(3000).collect(),
            },
            Reply::Result {
                payload: Vec::new(),
            },
            Reply::Busy { retry_after_ms: 5 },
            Reply::Err {
                message: "nope".into(),
            },
            Reply::ShutdownOk,
            Reply::Pong {
                payload: vec![9; 4],
            },
            Reply::ProfileOk {
                json: "{}".into(),
                trace: vec![1, 2, 3],
            },
            Reply::MetricsOk {
                text: "# EOF\n".into(),
            },
        ] {
            // The reference: the body in an envelope, through the codec
            // the transports use.
            let (tag, body) = rep.parts();
            let mut want = Vec::new();
            wire::encode_into(&Envelope::new(11, 0, tag, body.to_vec()), &mut want);
            assert_eq!(rep.encode_frame(11), want, "{rep:?}");

            let mut whole = Vec::new();
            rep.write_frame(11, &mut whole).expect("write");
            assert_eq!(whole, want, "{rep:?}");
            // Short writes resume where they stopped, in header and body.
            for step in [1, 7, 32, 33, 1000] {
                let mut w = Dribble {
                    out: Vec::new(),
                    step,
                };
                rep.write_frame(11, &mut w).expect("write");
                assert_eq!(w.out, want, "{rep:?} in steps of {step}");
            }
        }
    }

    #[test]
    fn a_submit_written_from_a_borrowed_payload_is_the_encoded_request() {
        let spec = moore_spec(AlgoSpec::Combining);
        for len in [0, 5, 3000] {
            let payload: Vec<u8> = (0..=255u8).cycle().take(len).collect();
            let want = Request::Submit {
                tenant: "acme".into(),
                spec: spec.clone(),
                payload: payload.clone(),
            }
            .encode_frame(3);
            for step in [7, 33, 1 << 20] {
                let mut w = Dribble {
                    out: Vec::new(),
                    step,
                };
                write_submit(&mut w, 3, "acme", &spec, &payload).expect("write");
                assert_eq!(w.out, want, "{len} payload bytes in steps of {step}");
            }
            let body = &want[wire::HEADER_BYTES..];
            let (tenant, back, at) = decode_submit_head(body).expect("a valid head");
            assert_eq!(
                (tenant.as_str(), &back, &body[at..]),
                ("acme", &spec, &payload[..])
            );
        }
        assert!(decode_submit_head(&[9, 0, 0, 0, b'x']).is_err());
    }

    /// A reader that hands out at most `.1` bytes of `.0` per call.
    struct Cut<'a>(&'a [u8], usize);

    impl Read for Cut<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = out.len().min(self.1).min(self.0.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// Every frame `buf` yields from `src` until the stream ends.
    fn frames_of(buf: &mut RecvBuf, src: &mut dyn Read) -> Vec<Envelope> {
        let mut got = Vec::new();
        loop {
            while let Some(env) = buf.next_frame() {
                got.push(env);
            }
            if buf.fill(src).expect("read") == 0 {
                return got;
            }
        }
    }

    #[test]
    fn recv_buf_yields_the_frames_of_a_stream_however_it_is_cut() {
        // Small, large (past the staging buffer, so read into a body of
        // their own) and empty frames, back to back.
        let bodies: Vec<Vec<u8>> = [3usize, 40_000, 0, 100_000, 17]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 7 + n) as u8).collect())
            .collect();
        let mut stream = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            stream.extend(frame(i as u32, TAG_PING, body));
        }
        for cut in [1, 31, 32, 33, 4096, 70_001, stream.len()] {
            let mut buf = RecvBuf::new();
            let got: Vec<(u32, Vec<u8>)> = frames_of(&mut buf, &mut Cut(&stream, cut))
                .into_iter()
                .map(|env| (env.ctx, env.data.to_vec()))
                .collect();
            let want: Vec<(u32, Vec<u8>)> = (0u32..).zip(bodies.iter().cloned()).collect();
            assert_eq!(got, want, "reads of at most {cut} bytes");
        }
    }

    /// A peer that announces a huge body and trickles it: what the buffer
    /// holds follows what arrived, never the header's claim.
    #[test]
    fn a_claimed_body_is_held_only_as_it_arrives() {
        let bound = |received: usize| received + RecvBuf::MAX_READ + RecvBuf::MIN_READ;
        for claim in [64usize << 20, u32::MAX as usize] {
            let header = wire::encode_header(claim, 5, 0, TAG_PING);
            // 3 MiB of it, in reads of assorted sizes up to 300 KiB.
            let stream: Vec<u8> = header
                .iter()
                .copied()
                .chain((0..3usize << 20).map(|i| i as u8))
                .collect();
            let mut src = &stream[..];
            let mut buf = RecvBuf::new();
            let mut received = 0;
            for step in (1usize..).map(|k| (k * 7919) % (300 << 10) + 1) {
                let mut cut = Cut(src, step);
                let n = buf.fill(&mut cut).expect("read");
                src = cut.0;
                received += n;
                assert!(
                    buf.held() <= bound(received),
                    "{claim} claimed, {received} received: {} held",
                    buf.held()
                );
                assert!(buf.next_frame().is_none());
                if n == 0 {
                    break;
                }
            }
            assert_eq!(received, stream.len());
        }
    }

    /// A stream cut anywhere — in a header, in a staged frame, in a body —
    /// yields the frames before the cut and then nothing.
    #[test]
    fn a_truncated_stream_yields_none_and_never_panics() {
        let small = frame(1, TAG_PING, &[7; 100]);
        let large = frame(2, TAG_PING, &[9; 40_000]);
        let stream: Vec<u8> = [&small[..], &large[..]].concat();
        let mut cuts: Vec<usize> = (0..200).collect();
        cuts.extend([small.len() + 31, small.len() + 32, 20_000, stream.len() - 1]);
        for cut in cuts {
            let got = frames_of(&mut RecvBuf::new(), &mut Cut(&stream[..cut], 997));
            let whole = [small.len(), stream.len()]
                .iter()
                .filter(|&&end| end <= cut)
                .count();
            assert_eq!(got.len(), whole, "stream cut at {cut}");
        }
    }

    /// `SUBMIT` and `RESULT` bodies on either side of the staging size (as
    /// a frame, and as a body) and of the largest read: encode then
    /// decode, through a socket-like reader, is the identity.
    #[test]
    fn submit_and_result_roundtrip_at_the_staging_and_read_limits() {
        let spec = moore_spec(AlgoSpec::Combining);
        let head = 8 + "t".len() + spec.encode().len();
        let staged = RecvBuf::MIN_READ - wire::HEADER_BYTES;
        for body in [staged, RecvBuf::MIN_READ, RecvBuf::MAX_READ]
            .into_iter()
            .flat_map(|at| [at - 1, at, at + 1])
        {
            let payload: Vec<u8> = (0..body - head).map(|i| (i * 31) as u8).collect();
            let req = Request::Submit {
                tenant: "t".into(),
                spec: spec.clone(),
                payload: payload.clone(),
            };
            let rep = Reply::Result {
                payload: (0..body).map(|i| (i * 17) as u8).collect(),
            };
            for cut in [4096, 65_536, 1 << 21] {
                let frames = frames_of(&mut RecvBuf::new(), &mut Cut(&req.encode_frame(3), cut));
                assert_eq!(frames.len(), 1);
                assert_eq!(frames[0].data.len(), body);
                assert_eq!(Request::decode_env(&frames[0]).unwrap(), req);
                let mut frames =
                    frames_of(&mut RecvBuf::new(), &mut Cut(&rep.encode_frame(4), cut));
                assert_eq!(Reply::from_env(frames.pop().unwrap()).unwrap(), rep);
            }
        }
    }

    #[test]
    fn profile_spec_validates_budgets() {
        let ok = ProfileSpec {
            tenant: "t".into(),
            jobs: 1,
            duration_ms: 0,
            ring_capacity: 0,
            include_trace: false,
        };
        ok.validate().expect("job budget suffices");
        let by_time = ProfileSpec {
            jobs: 0,
            duration_ms: 250,
            ..ok.clone()
        };
        by_time.validate().expect("duration budget suffices");
        let no_budget = ProfileSpec {
            jobs: 0,
            duration_ms: 0,
            ..ok.clone()
        };
        assert!(no_budget.validate().is_err());
        let no_tenant = ProfileSpec {
            tenant: String::new(),
            ..ok
        };
        assert!(no_tenant.validate().is_err());
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        let mut s = moore_spec(AlgoSpec::Combining);
        s.periods.pop();
        assert!(s.validate().is_err());
        let mut s = moore_spec(AlgoSpec::Combining);
        s.offsets[0].pop();
        assert!(s.validate().is_err());
        let mut s = moore_spec(AlgoSpec::Combining);
        if let OpSpec::Alltoallv { sendcounts, .. } = &mut s.op {
            sendcounts.pop();
        }
        assert!(s.validate().is_err());
        assert!(JobSpec::decode(&[1, 2, 3]).is_err(), "truncated spec");
    }

    /// Every size a daemon derives from a spec is checked: each per-rank
    /// size and ranks × bytes (the rank count itself: `loopback.rs`,
    /// `an_overflowing_job_is_refused`).
    #[test]
    fn validation_rejects_overflowing_sizes() {
        use cartcomm_types::{Primitive, RedOp};
        let big = usize::MAX / 2 + 1;
        let moore = moore_spec(AlgoSpec::Combining);
        let t = moore.neighbor_count();
        let red = Reducer::new(RedOp::Sum, Primitive::F64);
        let ops = [
            OpSpec::Alltoallv {
                elem_size: 2,
                sendcounts: vec![big; t],
                senddispls: vec![0; t],
                recvcounts: vec![1; t],
                recvdispls: vec![0; t],
            },
            OpSpec::Alltoallv {
                elem_size: 1,
                sendcounts: vec![1; t],
                senddispls: vec![0; t],
                recvcounts: vec![usize::MAX; t],
                recvdispls: vec![1; t],
            },
            OpSpec::Allgatherv {
                elem_size: 2,
                sendcount: big,
                recvdispls: vec![0; t],
            },
            OpSpec::Alltoallw {
                send_blocks: vec![(i64::MAX, usize::MAX); t],
                recv_blocks: vec![(0, 1); t],
            },
            OpSpec::ReduceScatter {
                red,
                count: big / 4,
            },
            OpSpec::Allreduce { red, count: big },
            // Fits per rank, overflows over the 9 ranks.
            OpSpec::Allreduce {
                red,
                count: usize::MAX / 8 / 8,
            },
        ];
        for op in ops {
            let s = JobSpec {
                op: op.clone(),
                ..moore.clone()
            };
            assert!(s.validate().is_err(), "{op:?}");
        }
        let fits = JobSpec {
            op: OpSpec::Allreduce {
                red,
                count: usize::MAX / 8 / 9,
            },
            ..moore
        };
        fits.validate().expect("9 ranks × count × 8 B fits");
    }

    /// A job that moves no bytes is still bounded by its rank count: dims
    /// travel as `u32`s, so one dimension may ask for 2³² − 1 ranks.
    #[test]
    fn tenant_names_over_max_tenant_bytes_are_refused() {
        let name = |n: usize| "t".repeat(n);
        check_tenant_len(&name(MAX_TENANT_BYTES)).expect("MAX_TENANT_BYTES bytes are admitted");
        let err = check_tenant_len(&name(MAX_TENANT_BYTES + 1)).expect_err("one byte over");
        assert!(err.contains("tenant"), "{err}");
        let profile = |tenant| ProfileSpec {
            tenant,
            jobs: 1,
            duration_ms: 0,
            ring_capacity: 0,
            include_trace: false,
        };
        assert!(profile(name(1 << 20)).validate().is_err());
    }

    #[test]
    fn validation_refuses_more_than_max_ranks() {
        use cartcomm_types::{Primitive, RedOp};
        let red = Reducer::new(RedOp::Sum, Primitive::F64);
        let zero_bytes = [
            OpSpec::Allreduce { red, count: 0 },
            OpSpec::Alltoallv {
                elem_size: 1,
                sendcounts: vec![0],
                senddispls: vec![0],
                recvcounts: vec![0],
                recvdispls: vec![0],
            },
        ];
        for op in zero_bytes {
            let ring = |n: usize| JobSpec {
                dims: vec![n],
                periods: vec![true],
                offsets: vec![vec![1]],
                op: op.clone(),
                algo: AlgoSpec::Combining,
            };
            let err = ring(u32::MAX as usize)
                .validate()
                .expect_err("2³² − 1 ranks");
            assert!(err.contains("ranks"), "{err}");
            assert!(ring(MAX_RANKS + 1).validate().is_err(), "{op:?}");
            ring(MAX_RANKS)
                .validate()
                .expect("MAX_RANKS ranks are admitted");
        }
    }

    /// Hostile input: every decoder of the protocol over arbitrary bytes,
    /// over valid frames cut short, and over valid frames with a length
    /// or a byte overwritten. None may panic, and what one decodes holds
    /// no more elements than it was given bytes — so nothing it allocates
    /// is sized by a claim rather than by what arrived.
    mod hostile {
        use super::*;
        use cartcomm_types::{Primitive, RedOp};
        use proptest::prelude::*;

        fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(any::<u8>(), 0..max)
        }

        /// Text of one- to four-byte characters.
        fn text() -> impl Strategy<Value = String> {
            proptest::collection::vec(0u32..0x11000, 0..12)
                .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
        }

        fn blocks() -> impl Strategy<Value = Vec<(i64, usize)>> {
            proptest::collection::vec((any::<i64>(), 0usize..1 << 40), 0..5)
        }

        fn words() -> impl Strategy<Value = Vec<usize>> {
            proptest::collection::vec(0usize..1 << 40, 0..5)
        }

        fn reducer() -> impl Strategy<Value = Reducer> {
            (0u8..4, 0u8..12).prop_map(|(op, prim)| {
                Reducer::decode([op, prim]).unwrap_or(Reducer::new(RedOp::Sum, Primitive::U32))
            })
        }

        fn op() -> impl Strategy<Value = OpSpec> {
            prop_oneof![
                (1usize..9, words(), words(), words(), words()).prop_map(|(e, sc, sd, rc, rd)| {
                    OpSpec::Alltoallv {
                        elem_size: e,
                        sendcounts: sc,
                        senddispls: sd,
                        recvcounts: rc,
                        recvdispls: rd,
                    }
                }),
                (1usize..9, 0usize..1 << 40, words()).prop_map(|(e, n, rd)| OpSpec::Allgatherv {
                    elem_size: e,
                    sendcount: n,
                    recvdispls: rd,
                }),
                (blocks(), blocks()).prop_map(|(s, r)| OpSpec::Alltoallw {
                    send_blocks: s,
                    recv_blocks: r,
                }),
                ((any::<i64>(), 0usize..1 << 40), blocks()).prop_map(|(s, r)| {
                    OpSpec::Allgatherw {
                        send_block: s,
                        recv_blocks: r,
                    }
                }),
                (reducer(), 0usize..1 << 40)
                    .prop_map(|(red, count)| OpSpec::ReduceScatter { red, count }),
                (reducer(), 0usize..1 << 40)
                    .prop_map(|(red, count)| OpSpec::Allreduce { red, count }),
            ]
        }

        /// Any spec the encoding carries: zero dimensions with no
        /// neighbor, or up to three with up to five.
        fn spec() -> impl Strategy<Value = JobSpec> {
            (0usize..4).prop_flat_map(|d| {
                let t = if d == 0 { 0..1 } else { 0..6 };
                (
                    proptest::collection::vec(0usize..9, d..=d),
                    proptest::collection::vec(any::<bool>(), d..=d),
                    proptest::collection::vec(proptest::collection::vec(any::<i64>(), d..=d), t),
                    op(),
                    any::<bool>(),
                )
                    .prop_map(|(dims, periods, offsets, op, combining)| JobSpec {
                        dims,
                        periods,
                        offsets,
                        op,
                        algo: match combining {
                            true => AlgoSpec::Combining,
                            false => AlgoSpec::Trivial,
                        },
                    })
            })
        }

        fn request() -> impl Strategy<Value = Request> {
            prop_oneof![
                text().prop_map(|tenant| Request::Hello { tenant }),
                (text(), spec(), bytes(64)).prop_map(|(tenant, spec, payload)| Request::Submit {
                    tenant,
                    spec,
                    payload,
                }),
                Just(Request::Shutdown),
                bytes(64).prop_map(|payload| Request::Ping { payload }),
                (
                    text(),
                    any::<u32>(),
                    any::<u32>(),
                    any::<u32>(),
                    any::<bool>()
                )
                    .prop_map(
                        |(tenant, jobs, duration_ms, ring_capacity, include_trace)| {
                            Request::Profile {
                                spec: ProfileSpec {
                                    tenant,
                                    jobs,
                                    duration_ms,
                                    ring_capacity,
                                    include_trace,
                                },
                            }
                        }
                    ),
                Just(Request::Metrics),
            ]
        }

        fn reply() -> impl Strategy<Value = Reply> {
            prop_oneof![
                any::<u32>().prop_map(|version| Reply::HelloOk { version }),
                bytes(64).prop_map(|payload| Reply::Result { payload }),
                any::<u32>().prop_map(|retry_after_ms| Reply::Busy { retry_after_ms }),
                text().prop_map(|message| Reply::Err { message }),
                Just(Reply::ShutdownOk),
                bytes(64).prop_map(|payload| Reply::Pong { payload }),
                (text(), bytes(64)).prop_map(|(json, trace)| Reply::ProfileOk { json, trace }),
                text().prop_map(|text| Reply::MetricsOk { text }),
            ]
        }

        /// A valid frame, then hostile: cut short at `cut`, a `u32` written
        /// over it at `at`, or the byte at `at` flipped.
        fn damaged() -> impl Strategy<Value = Vec<u8>> {
            let valid = prop_oneof![
                (request(), any::<u32>()).prop_map(|(r, ctx)| r.encode_frame(ctx)),
                (reply(), any::<u32>()).prop_map(|(r, ctx)| r.encode_frame(ctx)),
                spec().prop_map(|s| s.encode()),
            ];
            (valid, 0usize..3, any::<usize>(), any::<u32>()).prop_map(|(mut b, how, at, word)| {
                let at = at % (b.len() + 1);
                match how {
                    0 => b.truncate(at),
                    1 => {
                        let end = (at + 4).min(b.len());
                        let word = word.to_le_bytes();
                        b[at..end].copy_from_slice(&word[..end - at]);
                    }
                    _ => {
                        if let Some(x) = b.get_mut(at) {
                            *x ^= word as u8 | 1;
                        }
                    }
                }
                b
            })
        }

        /// Elements a decoded spec holds; each took at least a byte.
        fn weight(s: &JobSpec) -> usize {
            let op = match &s.op {
                OpSpec::Alltoallv {
                    sendcounts,
                    senddispls,
                    recvcounts,
                    recvdispls,
                    ..
                } => 1 + sendcounts.len() + senddispls.len() + recvcounts.len() + recvdispls.len(),
                OpSpec::Allgatherv { recvdispls, .. } => 2 + recvdispls.len(),
                OpSpec::Alltoallw {
                    send_blocks,
                    recv_blocks,
                } => send_blocks.len() + recv_blocks.len(),
                OpSpec::Allgatherw { recv_blocks, .. } => 1 + recv_blocks.len(),
                OpSpec::ReduceScatter { .. } | OpSpec::Allreduce { .. } => 2,
            };
            let coords: usize = s.offsets.iter().map(Vec::len).sum();
            s.dims.len() + s.periods.len() + s.offsets.len() + coords + op
        }

        fn request_weight(r: &Request) -> usize {
            match r {
                Request::Hello { tenant } => tenant.len(),
                Request::Submit {
                    tenant,
                    spec,
                    payload,
                } => tenant.len() + weight(spec) + payload.len(),
                Request::Ping { payload } => payload.len(),
                Request::Profile { spec } => spec.tenant.len(),
                Request::Shutdown | Request::Metrics => 0,
            }
        }

        fn reply_weight(r: &Reply) -> usize {
            match r {
                Reply::Result { payload } | Reply::Pong { payload } => payload.len(),
                Reply::Err { message: s } | Reply::MetricsOk { text: s } => s.len(),
                Reply::ProfileOk { json, trace } => json.len() + trace.len(),
                Reply::HelloOk { .. } | Reply::Busy { .. } | Reply::ShutdownOk => 0,
            }
        }

        /// Every decoder over `b`: no panic, nothing decoded beyond `b`.
        fn decode_all(b: &[u8], tag: u32) -> Result<(), TestCaseError> {
            if let Ok(spec) = JobSpec::decode(b) {
                prop_assert!(weight(&spec) <= b.len(), "{} bytes: {:?}", b.len(), spec);
            }
            if let Ok((tenant, spec, at)) = decode_submit_head(b) {
                prop_assert!(
                    at <= b.len() && tenant.len() + weight(&spec) <= at,
                    "{:?}",
                    spec
                );
            }
            let env = wire::envelope(&wire::encode_header(b.len(), 0, 0, tag), b.to_vec().into());
            if let Ok(r) = Request::decode_env(&env) {
                prop_assert!(request_weight(&r) <= b.len(), "{:?}", r);
            }
            if let Ok(r) = Reply::decode_env(&env) {
                prop_assert!(reply_weight(&r) <= b.len(), "{:?}", r);
            }
            prop_assert_eq!(wire::frame_len(b).is_some(), b.len() >= wire::HEADER_BYTES);
            if let Some((env, used)) = wire::decode_from(b, &Arc::new(WirePool::new())) {
                prop_assert_eq!(Some(used), wire::frame_len(b));
                prop_assert!(used <= b.len() && env.data.len() == used - wire::HEADER_BYTES);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            #[test]
            fn arbitrary_bytes_decode_to_errors_or_to_no_more_than_they_hold(
                b in bytes(96),
                tag in prop_oneof![0u32..0x8A, any::<u32>()],
            ) {
                decode_all(&b, tag)?;
            }

            #[test]
            fn damaged_frames_decode_to_errors_or_to_no_more_than_they_hold(
                b in damaged(),
                tag in 0u32..0x8A,
            ) {
                decode_all(&b, tag)?;
                decode_all(b.get(wire::HEADER_BYTES..).unwrap_or(&[]), tag)?;
            }

            #[test]
            fn every_request_and_reply_survives_the_wire(
                req in request(),
                rep in reply(),
                ctx in any::<u32>(),
            ) {
                let pool = Arc::new(WirePool::new());
                let frame = req.encode_frame(ctx);
                let (env, used) = wire::decode_from(&frame, &pool).expect("a whole frame");
                prop_assert_eq!((used, env.ctx), (frame.len(), ctx));
                prop_assert_eq!(Request::decode_env(&env), Ok(req));
                let frame = rep.encode_frame(ctx);
                let (env, used) = wire::decode_from(&frame, &pool).expect("a whole frame");
                prop_assert_eq!((used, env.ctx), (frame.len(), ctx));
                prop_assert_eq!(Reply::decode_env(&env), Ok(rep.clone()));
                prop_assert_eq!(Reply::from_env(env), Ok(rep));
            }
        }
    }
}
