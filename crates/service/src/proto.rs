//! The `mdfused` wire protocol: length-prefixed frames over a byte stream
//! (unix socket or TCP — see [`crate::transport`]).
//!
//! A frame is a little-endian `u32` payload length followed by exactly
//! that many bytes; the first payload byte is a message tag, the rest is
//! the tag's body. The format is hand-rolled (the workspace takes no
//! external crates) and deliberately rigid:
//!
//! * the length prefix is validated against [`MAX_FRAME`] **before** any
//!   allocation, so an adversarial prefix cannot make the daemon reserve
//!   gigabytes;
//! * every decoder is total — truncated frames, unknown tags, garbage
//!   strings, and trailing bytes all produce a typed [`ProtoError`], never
//!   a panic;
//! * decoding checks embedded lengths against the bytes actually present
//!   before allocating for them.
//!
//! The server's contract on a protocol error is *typed error + connection
//! close*: one malformed client never costs more than its own connection.

use std::fmt;
use std::io::Read;

/// Hard ceiling on a frame payload (1 MiB). Large enough for any DSL
/// program the pipeline would accept, small enough that a hostile length
/// prefix cannot cause meaningful allocation.
pub const MAX_FRAME: u32 = 1 << 20;

/// Wire-format schema version, exchanged nowhere: both ends are built
/// from this crate. Bumped (with decode support) if the format changes.
/// v2: `Submit.client` identity, `Outcome.{batched,rerouted,shard}`
/// fleet provenance, and the `Fleet`/`FleetStats` router messages.
/// v3: `ServiceStats.{cache_warm_hits,cache_warm_loaded}` warm-restart
/// counters.
pub const PROTO_VERSION: u8 = 3;

/// A typed protocol failure. The connection is closed after reporting it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream ended (or a read stalled out) before a complete frame.
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The claimed payload length.
        len: u64,
    },
    /// A zero-length frame (no tag byte).
    Empty,
    /// The tag byte names no known message.
    UnknownTag(u8),
    /// A structurally invalid body (bad UTF-8, impossible enum value,
    /// embedded length past the end of the frame).
    BadPayload(&'static str),
    /// Bytes left over after a complete message was decoded.
    TrailingBytes {
        /// How many bytes were left.
        extra: usize,
    },
    /// A read mid-frame made no progress for longer than the stall grace.
    Stalled {
        /// The grace that expired, in milliseconds.
        grace_ms: u64,
    },
    /// A transport-level failure underneath the framing.
    Io(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated frame: expected {expected} more bytes, got {got}"
                )
            }
            ProtoError::Oversized { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
            ProtoError::Empty => write!(f, "empty frame (no message tag)"),
            ProtoError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtoError::BadPayload(why) => write!(f, "malformed payload: {why}"),
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            ProtoError::Stalled { grace_ms } => {
                write!(f, "read stalled mid-frame for over {grace_ms} ms")
            }
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Which execution engine a submission asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The compiled kernel (default).
    Kernel,
    /// The reference interpreter.
    Interp,
}

impl Engine {
    /// Stable wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Kernel => "kernel",
            Engine::Interp => "interp",
        }
    }

    /// Parses a CLI engine name.
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "kernel" => Some(Engine::Kernel),
            "interp" => Some(Engine::Interp),
            _ => None,
        }
    }
}

/// One fusion request: plan (and, for DSL programs, execute) `source`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Submit {
    /// Execution engine for DSL programs.
    pub engine: Engine,
    /// Outer iteration bound (`i = 0..=n`).
    pub n: i64,
    /// Inner iteration bound (`j = 0..=m`).
    pub m: i64,
    /// Client deadline in milliseconds; `0` means the server's
    /// [`crate::DEFAULT_DEADLINE_MS`].
    pub deadline_ms: u64,
    /// Client identity for fair-share scheduling; empty means anonymous
    /// (all anonymous submissions share one identity).
    pub client: String,
    /// DSL program or textfmt MLDG source (auto-detected, as `mdfuse`
    /// file inputs are).
    pub source: String,
}

/// Client → server messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Plan/execute a program or graph.
    Submit(Submit),
    /// Snapshot the server counters.
    Stats,
    /// Snapshot the fleet counters (answered by a router; a plain daemon
    /// replies with a typed error).
    Fleet,
    /// Begin graceful drain: stop admitting, finish in-flight work.
    Shutdown,
}

/// Typed request-failure codes. Stable values: they map onto `mdfuse`
/// exit codes and appear in `BENCH_service.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrCode {
    /// Protocol violation; the server closes the connection after this.
    Proto = 1,
    /// Unparseable or invalid source.
    Malformed = 2,
    /// The graph admits no legal fusion (lexicographically negative cycle).
    Infeasible = 3,
    /// A non-deadline resource budget tripped.
    Budget = 4,
    /// The request's wall-clock deadline expired, while planning or
    /// mid-run.
    Deadline = 5,
    /// Admission queue full; retry after the hinted backoff.
    Overloaded = 6,
    /// The server is draining and admits no new work.
    Draining = 7,
    /// A server-side bug (isolated panic, failed verification).
    Internal = 8,
}

impl ErrCode {
    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ErrCode::Proto => "proto",
            ErrCode::Malformed => "malformed",
            ErrCode::Infeasible => "infeasible",
            ErrCode::Budget => "budget",
            ErrCode::Deadline => "deadline",
            ErrCode::Overloaded => "overloaded",
            ErrCode::Draining => "draining",
            ErrCode::Internal => "internal",
        }
    }

    fn from_u8(v: u8) -> Option<ErrCode> {
        Some(match v {
            1 => ErrCode::Proto,
            2 => ErrCode::Malformed,
            3 => ErrCode::Infeasible,
            4 => ErrCode::Budget,
            5 => ErrCode::Deadline,
            6 => ErrCode::Overloaded,
            7 => ErrCode::Draining,
            8 => ErrCode::Internal,
            _ => return None,
        })
    }
}

/// A typed request failure, with a retry hint where retrying can help.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceError {
    /// Failure class.
    pub code: ErrCode,
    /// Suggested client backoff before retrying, in milliseconds; `0`
    /// means retrying will not help (malformed input, infeasible graph).
    pub retry_after_ms: u64,
    /// Human-readable detail.
    pub message: String,
}

/// A successful submission result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// `true` when the fused schedule was executed (DSL input, fully
    /// fused plan); `false` for plan-only results (MLDG input, or a plan
    /// that degraded to partial fusion).
    pub executed: bool,
    /// Final memory fingerprint (0 for plan-only results). Identical to
    /// what a direct `mdfuse run` of the same source reports.
    pub fingerprint: u64,
    /// Barriers of the executed fused schedule.
    pub barriers: u64,
    /// Statement instances executed.
    pub stmt_instances: u64,
    /// Whether the plan came from the cache (plan+certify skipped).
    pub cache_hit: bool,
    /// Whether supervised recovery (retry or checkpoint resume) was
    /// needed to finish this request.
    pub recovered: bool,
    /// How many same-fingerprint submissions this execution served. A
    /// direct daemon submit is always `1`; the router reports the batch
    /// group size `k` to every member it coalesced.
    pub batched: u64,
    /// Whether the router re-routed this request to another shard after
    /// its original owner died mid-flight.
    pub rerouted: bool,
    /// Which fleet shard executed the request (`0` for a single daemon).
    pub shard: u32,
    /// One-line plan description.
    pub plan: String,
}

/// Server counters, as reported by [`Request::Stats`] and flushed on
/// drain. Field order is the wire order; adding a field bumps the frame
/// layout for both ends at once (they share this crate).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests decoded (all kinds).
    pub requests: u64,
    /// Submissions completing with an [`Outcome`].
    pub completed: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Cached plans rejected by revalidation (poison or collision).
    pub cache_rejected: u64,
    /// Submissions refused with [`ErrCode::Overloaded`].
    pub overload_rejections: u64,
    /// Submissions refused with [`ErrCode::Draining`].
    pub drain_rejections: u64,
    /// Submissions failing with [`ErrCode::Deadline`].
    pub deadline_expiries: u64,
    /// Requests finished only via supervised retry or checkpoint resume.
    pub recoveries: u64,
    /// Protocol errors observed (connection closed after each).
    pub proto_errors: u64,
    /// Worker panics isolated to a typed error (never a crashed daemon).
    pub panics_isolated: u64,
    /// Plan-cache hits served by an entry warm-loaded from the
    /// persistent store (a subset of `cache_hits`).
    pub cache_warm_hits: u64,
    /// Entries warm-loaded from the persistent store at boot.
    pub cache_warm_loaded: u64,
}

impl ServiceStats {
    const FIELDS: usize = 14;

    fn to_words(self) -> [u64; Self::FIELDS] {
        [
            self.connections,
            self.requests,
            self.completed,
            self.cache_hits,
            self.cache_misses,
            self.cache_rejected,
            self.overload_rejections,
            self.drain_rejections,
            self.deadline_expiries,
            self.recoveries,
            self.proto_errors,
            self.panics_isolated,
            self.cache_warm_hits,
            self.cache_warm_loaded,
        ]
    }

    fn from_words(w: [u64; Self::FIELDS]) -> ServiceStats {
        ServiceStats {
            connections: w[0],
            requests: w[1],
            completed: w[2],
            cache_hits: w[3],
            cache_misses: w[4],
            cache_rejected: w[5],
            overload_rejections: w[6],
            drain_rejections: w[7],
            deadline_expiries: w[8],
            recoveries: w[9],
            proto_errors: w[10],
            panics_isolated: w[11],
            cache_warm_hits: w[12],
            cache_warm_loaded: w[13],
        }
    }
}

/// One shard's row in a [`FleetStats`] report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardRow {
    /// Stable shard index (its position on the hash ring).
    pub id: u32,
    /// Respawn generation: `0` for the original process, incremented on
    /// every supervised respawn.
    pub generation: u64,
    /// Whether the shard answered its most recent health ping.
    pub healthy: bool,
    /// Submissions the router sent to this shard.
    pub routed: u64,
    /// Submissions this shard served as members of a batch group ≥ 2.
    pub batched: u64,
    /// Submissions re-routed *to* this shard after another shard died.
    pub reroutes: u64,
    /// The shard daemon's own counters at snapshot time.
    pub stats: ServiceStats,
}

/// Router counters plus a per-shard breakdown, as reported by
/// [`Request::Fleet`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Submissions routed to a shard (batched members each count once).
    pub routed: u64,
    /// Batch groups flushed (each cost one shard execution).
    pub batched_groups: u64,
    /// Submissions that rode in a batch group of size ≥ 2.
    pub batched_submits: u64,
    /// Submissions re-routed to another shard after their owner died.
    pub reroutes: u64,
    /// Shard deaths detected (health ping or mid-request failure).
    pub shard_deaths: u64,
    /// Supervised shard respawns.
    pub respawns: u64,
    /// Submissions refused by fair-share admission (typed Overloaded).
    pub fair_rejections: u64,
    /// Per-shard rows, in shard-id order.
    pub shards: Vec<ShardRow>,
}

impl FleetStats {
    /// Router-level scalar counters, in wire order.
    const SCALARS: usize = 7;

    /// Every shard's counters summed field by field (a dead shard's row
    /// holds zeros), so a fleet reports the same aggregate a single
    /// daemon does.
    pub fn shard_totals(&self) -> ServiceStats {
        let mut sum = [0u64; ServiceStats::FIELDS];
        for row in &self.shards {
            for (total, word) in sum.iter_mut().zip(row.stats.to_words()) {
                *total += word;
            }
        }
        ServiceStats::from_words(sum)
    }

    fn to_scalars(&self) -> [u64; Self::SCALARS] {
        [
            self.routed,
            self.batched_groups,
            self.batched_submits,
            self.reroutes,
            self.shard_deaths,
            self.respawns,
            self.fair_rejections,
        ]
    }

    fn from_scalars(w: [u64; Self::SCALARS]) -> FleetStats {
        FleetStats {
            routed: w[0],
            batched_groups: w[1],
            batched_submits: w[2],
            reroutes: w[3],
            shard_deaths: w[4],
            respawns: w[5],
            fair_rejections: w[6],
            shards: Vec::new(),
        }
    }
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// A submission succeeded.
    Done(Outcome),
    /// A submission (or the connection) failed, typed.
    Err(ServiceError),
    /// Counter snapshot.
    Stats(ServiceStats),
    /// Fleet counter snapshot (router only).
    Fleet(FleetStats),
    /// Drain acknowledged; the server finishes in-flight work and exits.
    ShutdownAck,
}

// Message tags. Requests are low, responses have the high bit set, so a
// stray response frame fed to the request decoder (or vice versa) is an
// UnknownTag, not a misparse.
const TAG_PING: u8 = 0x01;
const TAG_SUBMIT: u8 = 0x02;
const TAG_STATS: u8 = 0x03;
const TAG_SHUTDOWN: u8 = 0x04;
const TAG_FLEET: u8 = 0x05;
const TAG_PONG: u8 = 0x81;
const TAG_DONE: u8 = 0x82;
const TAG_ERR: u8 = 0x83;
const TAG_STATS_REPORT: u8 = 0x84;
const TAG_SHUTDOWN_ACK: u8 = 0x85;
const TAG_FLEET_REPORT: u8 = 0x86;

/// Encoded size of one [`ShardRow`]: id (4) + generation (8) + healthy
/// (1) + routed/batched/reroutes (24) + the stats words. Used to bound
/// the row count against the bytes actually present before allocating
/// the row vector.
const SHARD_ROW_BYTES: usize = 4 + 8 + 1 + 24 + 8 * ServiceStats::FIELDS;

const ENGINE_KERNEL: u8 = 0;
const ENGINE_INTERP: u8 = 1;

/// Bounded little-endian writer for one frame body. `pub(crate)` so the
/// persistent plan-cache store shares the exact same framing discipline.
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new(tag: u8) -> Writer {
        Writer { buf: vec![tag] }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn str(&mut self, s: &str) {
        // Encoding is in-process; the server-side length cap lives in
        // decode. Saturate rather than wrap if a caller hands us >4 GiB.
        let len = u32::try_from(s.len()).unwrap_or(u32::MAX);
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The body bytes written so far (tag included), without a prefix.
    pub(crate) fn body(&self) -> &[u8] {
        &self.buf
    }

    /// Prepends the length prefix and returns the complete frame.
    pub(crate) fn frame(self) -> Vec<u8> {
        let len = u32::try_from(self.buf.len()).unwrap_or(u32::MAX);
        let mut out = Vec::with_capacity(4 + self.buf.len());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&self.buf);
        out
    }
}

/// Bounds-checked little-endian reader over one frame payload.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated {
                expected: n,
                got: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, ProtoError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(i64::from_le_bytes(a))
    }

    pub(crate) fn str(&mut self) -> Result<String, ProtoError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        let len = u32::from_le_bytes(a) as usize;
        // The embedded length is checked against the bytes actually
        // present before any allocation happens.
        if len > self.remaining() {
            return Err(ProtoError::BadPayload(
                "embedded string length exceeds the frame",
            ));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::BadPayload("string is not valid UTF-8"))
    }

    pub(crate) fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(ProtoError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

impl Request {
    /// Encodes this request as a complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Ping => Writer::new(TAG_PING).frame(),
            Request::Submit(s) => {
                let mut w = Writer::new(TAG_SUBMIT);
                w.u8(match s.engine {
                    Engine::Kernel => ENGINE_KERNEL,
                    Engine::Interp => ENGINE_INTERP,
                });
                w.i64(s.n);
                w.i64(s.m);
                w.u64(s.deadline_ms);
                w.str(&s.client);
                w.str(&s.source);
                w.frame()
            }
            Request::Stats => Writer::new(TAG_STATS).frame(),
            Request::Fleet => Writer::new(TAG_FLEET).frame(),
            Request::Shutdown => Writer::new(TAG_SHUTDOWN).frame(),
        }
    }

    /// Decodes a request from a frame payload (length prefix stripped).
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut r = Reader::new(payload);
        let tag = r.u8().map_err(|_| ProtoError::Empty)?;
        let req = match tag {
            TAG_PING => Request::Ping,
            TAG_SUBMIT => {
                let engine = match r.u8()? {
                    ENGINE_KERNEL => Engine::Kernel,
                    ENGINE_INTERP => Engine::Interp,
                    _ => return Err(ProtoError::BadPayload("unknown engine discriminant")),
                };
                Request::Submit(Submit {
                    engine,
                    n: r.i64()?,
                    m: r.i64()?,
                    deadline_ms: r.u64()?,
                    client: r.str()?,
                    source: r.str()?,
                })
            }
            TAG_STATS => Request::Stats,
            TAG_FLEET => Request::Fleet,
            TAG_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtoError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes this response as a complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Pong => Writer::new(TAG_PONG).frame(),
            Response::Done(o) => {
                let mut w = Writer::new(TAG_DONE);
                w.u8(o.executed as u8);
                w.u64(o.fingerprint);
                w.u64(o.barriers);
                w.u64(o.stmt_instances);
                w.u8(o.cache_hit as u8);
                w.u8(o.recovered as u8);
                w.u64(o.batched);
                w.u8(o.rerouted as u8);
                w.u32(o.shard);
                w.str(&o.plan);
                w.frame()
            }
            Response::Err(e) => {
                let mut w = Writer::new(TAG_ERR);
                w.u8(e.code as u8);
                w.u64(e.retry_after_ms);
                w.str(&e.message);
                w.frame()
            }
            Response::Stats(s) => {
                let mut w = Writer::new(TAG_STATS_REPORT);
                for v in s.to_words() {
                    w.u64(v);
                }
                w.frame()
            }
            Response::Fleet(f) => {
                let mut w = Writer::new(TAG_FLEET_REPORT);
                for v in f.to_scalars() {
                    w.u64(v);
                }
                let count = u32::try_from(f.shards.len()).unwrap_or(u32::MAX);
                w.u32(count);
                for row in &f.shards {
                    w.u32(row.id);
                    w.u64(row.generation);
                    w.u8(row.healthy as u8);
                    w.u64(row.routed);
                    w.u64(row.batched);
                    w.u64(row.reroutes);
                    for v in row.stats.to_words() {
                        w.u64(v);
                    }
                }
                w.frame()
            }
            Response::ShutdownAck => Writer::new(TAG_SHUTDOWN_ACK).frame(),
        }
    }

    /// Decodes a response from a frame payload (length prefix stripped).
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut r = Reader::new(payload);
        let tag = r.u8().map_err(|_| ProtoError::Empty)?;
        let resp = match tag {
            TAG_PONG => Response::Pong,
            TAG_DONE => Response::Done(Outcome {
                executed: r.u8()? != 0,
                fingerprint: r.u64()?,
                barriers: r.u64()?,
                stmt_instances: r.u64()?,
                cache_hit: r.u8()? != 0,
                recovered: r.u8()? != 0,
                batched: r.u64()?,
                rerouted: r.u8()? != 0,
                shard: r.u32()?,
                plan: r.str()?,
            }),
            TAG_ERR => Response::Err(ServiceError {
                code: ErrCode::from_u8(r.u8()?)
                    .ok_or(ProtoError::BadPayload("unknown error code"))?,
                retry_after_ms: r.u64()?,
                message: r.str()?,
            }),
            TAG_STATS_REPORT => {
                let mut w = [0u64; ServiceStats::FIELDS];
                for v in &mut w {
                    *v = r.u64()?;
                }
                Response::Stats(ServiceStats::from_words(w))
            }
            TAG_FLEET_REPORT => {
                let mut scalars = [0u64; FleetStats::SCALARS];
                for v in &mut scalars {
                    *v = r.u64()?;
                }
                let mut fleet = FleetStats::from_scalars(scalars);
                let count = r.u32()? as usize;
                // Bound the claimed row count by the bytes actually in
                // the frame before allocating for it.
                if count * SHARD_ROW_BYTES > r.remaining() {
                    return Err(ProtoError::BadPayload("shard row count exceeds the frame"));
                }
                fleet.shards.reserve(count);
                for _ in 0..count {
                    let id = r.u32()?;
                    let generation = r.u64()?;
                    let healthy = r.u8()? != 0;
                    let routed = r.u64()?;
                    let batched = r.u64()?;
                    let reroutes = r.u64()?;
                    let mut w = [0u64; ServiceStats::FIELDS];
                    for v in &mut w {
                        *v = r.u64()?;
                    }
                    fleet.shards.push(ShardRow {
                        id,
                        generation,
                        healthy,
                        routed,
                        batched,
                        reroutes,
                        stats: ServiceStats::from_words(w),
                    });
                }
                Response::Fleet(fleet)
            }
            TAG_SHUTDOWN_ACK => Response::ShutdownAck,
            other => return Err(ProtoError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Reads one frame payload from `r` (blocking until complete).
///
/// `Ok(None)` is a clean end-of-stream at a frame boundary; ending inside
/// a frame is [`ProtoError::Truncated`]. The length prefix is validated
/// against [`MAX_FRAME`] before the payload is allocated.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut prefix = [0u8; 4];
    let mut have = 0usize;
    while have < 4 {
        match r.read(&mut prefix[have..]) {
            Ok(0) if have == 0 => return Ok(None),
            Ok(0) => {
                return Err(ProtoError::Truncated {
                    expected: 4 - have,
                    got: 0,
                })
            }
            Ok(n) => have += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(prefix);
    check_frame_len(len)?;
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(ProtoError::Truncated {
                    expected: payload.len() - filled,
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e.to_string())),
        }
    }
    Ok(Some(payload))
}

/// Validates a length prefix: frames must be non-empty and within
/// [`MAX_FRAME`]. Split out so incremental readers (the server's polled
/// loop) share the exact same policy as [`read_frame`].
pub fn check_frame_len(len: u32) -> Result<(), ProtoError> {
    if len == 0 {
        return Err(ProtoError::Empty);
    }
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized { len: len as u64 });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let frame = req.encode();
        let payload = read_frame(&mut &frame[..]).unwrap().unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let frame = resp.encode();
        let payload = read_frame(&mut &frame[..]).unwrap().unwrap();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn all_messages_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Fleet);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Submit(Submit {
            engine: Engine::Interp,
            n: -3,
            m: 1 << 40,
            deadline_ms: 250,
            client: "tenant-7".into(),
            source: "program p { arrays a; do i { doall A: j { a[i][j] = 1; } } }".into(),
        }));
        round_trip_response(Response::Pong);
        round_trip_response(Response::ShutdownAck);
        round_trip_response(Response::Done(Outcome {
            executed: true,
            fingerprint: 0xdead_beef,
            barriers: 14,
            stmt_instances: 700,
            cache_hit: true,
            recovered: false,
            batched: 5,
            rerouted: true,
            shard: 3,
            plan: "full parallel (Alg 4)".into(),
        }));
        round_trip_response(Response::Err(ServiceError {
            code: ErrCode::Overloaded,
            retry_after_ms: 25,
            message: "queue full".into(),
        }));
        let stats = ServiceStats {
            connections: 1,
            requests: 2,
            completed: 3,
            cache_hits: 4,
            cache_misses: 5,
            cache_rejected: 6,
            overload_rejections: 7,
            drain_rejections: 8,
            deadline_expiries: 9,
            recoveries: 10,
            proto_errors: 11,
            panics_isolated: 12,
            cache_warm_hits: 13,
            cache_warm_loaded: 14,
        };
        round_trip_response(Response::Stats(stats));
        round_trip_response(Response::Fleet(FleetStats {
            routed: 100,
            batched_groups: 20,
            batched_submits: 60,
            reroutes: 2,
            shard_deaths: 1,
            respawns: 1,
            fair_rejections: 4,
            shards: vec![
                ShardRow {
                    id: 0,
                    generation: 0,
                    healthy: true,
                    routed: 50,
                    batched: 30,
                    reroutes: 0,
                    stats,
                },
                ShardRow {
                    id: 1,
                    generation: 2,
                    healthy: false,
                    routed: 50,
                    batched: 30,
                    reroutes: 2,
                    stats: ServiceStats::default(),
                },
            ],
        }));
        round_trip_response(Response::Fleet(FleetStats::default()));
    }

    #[test]
    fn clean_eof_is_none_not_error() {
        assert_eq!(read_frame(&mut &[][..]).unwrap(), None);
    }

    /// The satellite's table: every class of malformed input maps to a
    /// typed error — no panic, no allocation driven by hostile lengths.
    #[test]
    fn malformed_frames_yield_typed_errors() {
        let huge_prefix = (MAX_FRAME + 1).to_le_bytes().to_vec();
        let mut bad_string = vec![TAG_SUBMIT, ENGINE_KERNEL];
        bad_string.extend_from_slice(&1i64.to_le_bytes());
        bad_string.extend_from_slice(&1i64.to_le_bytes());
        bad_string.extend_from_slice(&0u64.to_le_bytes());
        bad_string.extend_from_slice(&0u32.to_le_bytes()); // empty client
        bad_string.extend_from_slice(&u32::MAX.to_le_bytes()); // source "length"
        bad_string.extend_from_slice(b"xy");

        let mut bad_utf8 = vec![TAG_SUBMIT, ENGINE_KERNEL];
        bad_utf8.extend_from_slice(&1i64.to_le_bytes());
        bad_utf8.extend_from_slice(&1i64.to_le_bytes());
        bad_utf8.extend_from_slice(&0u64.to_le_bytes());
        bad_utf8.extend_from_slice(&0u32.to_le_bytes()); // empty client
        bad_utf8.extend_from_slice(&2u32.to_le_bytes());
        bad_utf8.extend_from_slice(&[0xff, 0xfe]);

        let frame_cases: Vec<(&str, Vec<u8>, ProtoError)> = vec![
            (
                "eof inside the length prefix",
                vec![0x05, 0x00],
                ProtoError::Truncated {
                    expected: 2,
                    got: 0,
                },
            ),
            (
                "oversized length prefix",
                huge_prefix,
                ProtoError::Oversized {
                    len: (MAX_FRAME + 1) as u64,
                },
            ),
            (
                "zero-length frame",
                0u32.to_le_bytes().to_vec(),
                ProtoError::Empty,
            ),
            (
                "eof inside the payload",
                {
                    let mut v = 10u32.to_le_bytes().to_vec();
                    v.extend_from_slice(&[1, 2, 3]);
                    v
                },
                ProtoError::Truncated {
                    expected: 7,
                    got: 3,
                },
            ),
        ];
        for (name, bytes, want) in frame_cases {
            match read_frame(&mut &bytes[..]) {
                Err(got) => assert_eq!(got, want, "case {name:?}"),
                other => panic!("case {name:?}: expected error, got {other:?}"),
            }
        }

        let payload_cases: Vec<(&str, Vec<u8>, ProtoError)> = vec![
            ("unknown tag", vec![0x7f], ProtoError::UnknownTag(0x7f)),
            (
                "response tag in a request",
                vec![TAG_PONG],
                ProtoError::UnknownTag(TAG_PONG),
            ),
            (
                "truncated submit body",
                vec![TAG_SUBMIT, ENGINE_KERNEL, 1, 2],
                ProtoError::Truncated {
                    expected: 8,
                    got: 2,
                },
            ),
            (
                "bad engine discriminant",
                vec![TAG_SUBMIT, 9],
                ProtoError::BadPayload("unknown engine discriminant"),
            ),
            (
                "string length past the frame",
                bad_string,
                ProtoError::BadPayload("embedded string length exceeds the frame"),
            ),
            (
                "invalid utf-8 in source",
                bad_utf8,
                ProtoError::BadPayload("string is not valid UTF-8"),
            ),
            (
                "trailing bytes after ping",
                vec![TAG_PING, 0, 0],
                ProtoError::TrailingBytes { extra: 2 },
            ),
        ];
        for (name, payload, want) in payload_cases {
            match Request::decode(&payload) {
                Err(got) => assert_eq!(got, want, "case {name:?}"),
                other => panic!("case {name:?}: expected error, got {other:?}"),
            }
        }

        // And the response decoder rejects garbage the same way.
        assert_eq!(
            Response::decode(&[TAG_ERR, 99]),
            Err(ProtoError::BadPayload("unknown error code"))
        );
        assert_eq!(Response::decode(&[]), Err(ProtoError::Empty));

        // A fleet report claiming more shard rows than the frame holds is
        // rejected before the row vector is allocated.
        let mut huge_fleet = vec![TAG_FLEET_REPORT];
        for _ in 0..FleetStats::SCALARS {
            huge_fleet.extend_from_slice(&0u64.to_le_bytes());
        }
        huge_fleet.extend_from_slice(&u32::MAX.to_le_bytes()); // shard "count"
        assert_eq!(
            Response::decode(&huge_fleet),
            Err(ProtoError::BadPayload("shard row count exceeds the frame"))
        );
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        // A prefix claiming u32::MAX bytes must fail from just 4 bytes of
        // input — if the decoder allocated first, this would OOM long
        // before returning.
        let bytes = u32::MAX.to_le_bytes();
        assert_eq!(
            read_frame(&mut &bytes[..]),
            Err(ProtoError::Oversized {
                len: u32::MAX as u64
            })
        );
    }

    #[test]
    fn two_frames_in_sequence_parse_independently() {
        let mut stream = Request::Ping.encode();
        stream.extend_from_slice(&Request::Stats.encode());
        let mut cursor = &stream[..];
        let a = read_frame(&mut cursor).unwrap().unwrap();
        let b = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(Request::decode(&a).unwrap(), Request::Ping);
        assert_eq!(Request::decode(&b).unwrap(), Request::Stats);
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }
}
