//! The query wire protocol: length-prefixed binary frames, fixed-width
//! big-endian fields, no external dependencies.
//!
//! Every message is one frame: a `u32` big-endian payload length (capped at
//! [`MAX_FRAME`]) followed by the payload. Payloads open with a version
//! byte ([`PROTO_VERSION`]) and an op byte; requests and responses use the
//! same op space so a response always echoes its request's op.
//!
//! ```text
//! request  op 1 (Lookup):   [ver][1][addr]
//! request  op 2 (Batch):    [ver][2][count:u32][addr]*count        count ≤ MAX_BATCH
//! request  op 3 (Info):     [ver][3]
//! request  op 4 (QueryAt):  [ver][4][epoch:u64][addr]
//! request  op 5 (DiffRange):[ver][5][from:u64][to:u64]
//! request  op 6 (WaitEpoch):[ver][6][min_epoch:u64]
//! request  op 7 (Dump):     [ver][7]
//! response op 1/2/4:        [ver][op][epoch:u64][count:u32][answer]*count
//! response op 3/6:          [ver][op][epoch:u64][ts:u64][entries:u64][bytes:u64]
//!                                [garbage:u64][rotations:u64][age_nanos:u64]
//! response op 5:            [ver][5][from:u64][to:u64][count:u32][change]*count
//! response op 7:            [ver][7][flight blob]
//! addr:                     [af:u8=4|6][4 or 16 address bytes, network order]
//! answer:                   [kind:u8][prefix_len:u8][router:u32][ifindex:u16][confidence:f64 bits]
//! change:                   [tag:u8=1|2|3][prefix][ingress before?][ingress after?]
//! prefix:                   [af:u8=4|6][4 or 16 network bytes][len:u8]
//! ingress:                  [kind:u8=1|2][router:u32][ifindex:u16]
//! ```
//!
//! Version 2 (this version) extended the `Info` shape with the store's
//! freshness accounting — `garbage` (dead arena cells), `rotations`
//! (compaction rebuilds since start), `age_nanos` (wall nanoseconds since
//! the served epoch was published; 0 when the server has no telemetry) —
//! and added the `Dump` op, which returns the server's flight-recorder
//! tail. The *flight blob* is the canonical little-endian event codec from
//! `ipd-telemetry` ([`ipd_telemetry::encode_events`]) embedded verbatim:
//! an opaque sub-message with its own count header, so the same bytes a
//! crash dump prints travel on the wire.
//!
//! Answer `kind` is 0 = unmapped (all other fields zero), 1 = link,
//! 2 = bundle (`ifindex` is the bundle's lowest member interface; the full
//! member list is not carried — the map's consumer keys on router anyway,
//! see DESIGN.md §11). `confidence` travels as raw IEEE-754 bits so the
//! answer is bit-identical to the store's value.
//!
//! The longitudinal ops (4/5, DESIGN.md §13) are answered from an attached
//! history provider. A `QueryAt` for an epoch the store does not hold
//! answers with **zero** answers (count 0); `DiffRange` change tags are
//! 1 = appeared (`after` only), 2 = disappeared (`before` only), 3 = moved
//! (`before` then `after`), with changes sorted by prefix and capped at
//! [`MAX_DIFF`]. Prefixes travel in canonical form — a set host bit is a
//! protocol error, which keeps decoding bijective. `WaitEpoch` (op 6)
//! blocks server-side until the published epoch reaches `min_epoch` (or the
//! server's wait cap expires) and answers with the same shape as `Info` —
//! pollers sync on publication without hammering `Info`.
//!
//! Encoding and decoding are pure byte-slice functions — no sockets, no
//! allocation beyond the output — which is what makes the decoder directly
//! fuzzable (`ipd-fuzz` target `proto`).

use ipd_lpm::{Addr, Af, Prefix};
use ipd_telemetry::{decode_events, encode_events, FlightCodecError, FlightEvent};

use crate::live::IngressAnswer;
use ipd::{LogicalIngress, PrefixChange};

/// Protocol version byte every payload opens with. Version 2 extended the
/// `Info` response and added the `Dump` op (see the module docs).
pub const PROTO_VERSION: u8 = 2;

/// Maximum payload length a frame may declare (1 MiB) — caps what a server
/// buffers per connection before decoding.
pub const MAX_FRAME: usize = 1 << 20;

/// Maximum addresses in one batch request.
pub const MAX_BATCH: usize = 4_096;

/// Maximum prefix changes in one `DiffRange` response; a larger diff is
/// truncated by the server (changes are prefix-sorted, so a client can page
/// by narrowing the range).
pub const MAX_DIFF: usize = 8_192;

const OP_LOOKUP: u8 = 1;
const OP_BATCH: u8 = 2;
const OP_INFO: u8 = 3;
const OP_QUERY_AT: u8 = 4;
const OP_DIFF: u8 = 5;
const OP_WAIT: u8 = 6;
const OP_DUMP: u8 = 7;

const KIND_UNMAPPED: u8 = 0;
const KIND_LINK: u8 = 1;
const KIND_BUNDLE: u8 = 2;

const CHANGE_APPEARED: u8 = 1;
const CHANGE_DISAPPEARED: u8 = 2;
const CHANGE_MOVED: u8 = 3;

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Single-address lookup.
    Lookup(Addr),
    /// Batched lookup; answers come back in request order.
    Batch(Vec<Addr>),
    /// Store metadata (epoch, stamp, entry count, footprint).
    Info,
    /// Time-travel lookup against the longitudinal store: the answer the
    /// server would have given at `epoch`.
    QueryAt {
        /// The historical epoch to answer from.
        epoch: u64,
        /// The address to look up.
        addr: Addr,
    },
    /// All per-prefix classification changes between two epochs.
    DiffRange {
        /// The earlier epoch.
        from: u64,
        /// The later epoch.
        to: u64,
    },
    /// Block until the published epoch reaches `min_epoch`, then answer
    /// like `Info`.
    WaitEpoch {
        /// The epoch to wait for.
        min_epoch: u64,
    },
    /// The server's flight-recorder tail — the same structured events a
    /// crash dump prints, for remote post-mortems.
    Dump,
}

/// What kind of ingress an answer names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerKind {
    /// No classified range covers the address.
    Unmapped,
    /// A single (router, interface) link.
    Link,
    /// A bundle of interfaces on one router.
    Bundle,
}

/// One lookup answer as it travels on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireAnswer {
    /// Unmapped, link, or bundle.
    pub kind: AnswerKind,
    /// Length of the matched range (0 when unmapped — note a real default
    /// route also has length 0; `kind` disambiguates).
    pub prefix_len: u8,
    /// Ingress router id (0 when unmapped).
    pub router: u32,
    /// Ingress interface; for a bundle, its lowest member (0 when unmapped).
    pub ifindex: u16,
    /// `s_ingress` of the range at snapshot time (0.0 when unmapped).
    pub confidence: f64,
}

impl WireAnswer {
    /// The unmapped answer.
    pub const UNMAPPED: WireAnswer = WireAnswer {
        kind: AnswerKind::Unmapped,
        prefix_len: 0,
        router: 0,
        ifindex: 0,
        confidence: 0.0,
    };

    /// Flatten a store lookup into wire form.
    pub fn from_lookup(found: Option<IngressAnswer<'_>>) -> WireAnswer {
        match found {
            None => WireAnswer::UNMAPPED,
            Some(a) => {
                let (kind, ifindex) = match a.ingress {
                    LogicalIngress::Link(p) => (AnswerKind::Link, p.ifindex),
                    LogicalIngress::Bundle(b) => {
                        // Members are sorted ascending; the first is the
                        // canonical representative.
                        (
                            AnswerKind::Bundle,
                            b.ifindexes.first().copied().unwrap_or(0),
                        )
                    }
                };
                WireAnswer {
                    kind,
                    prefix_len: a.prefix.len(),
                    router: a.ingress.router(),
                    ifindex,
                    confidence: a.confidence,
                }
            }
        }
    }

    /// True when the answer names an ingress.
    pub fn is_mapped(&self) -> bool {
        self.kind != AnswerKind::Unmapped
    }
}

/// A logical ingress as it travels inside a [`WireChange`]: flattened the
/// same way [`WireAnswer`] flattens (bundles carry their lowest member
/// interface; the consumer keys on router).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireIngress {
    /// True for a bundle, false for a single link.
    pub bundle: bool,
    /// Ingress router id.
    pub router: u32,
    /// Ingress interface; for a bundle, its lowest member.
    pub ifindex: u16,
}

impl WireIngress {
    /// Flatten a logical ingress into wire form.
    pub fn from_logical(ing: &LogicalIngress) -> WireIngress {
        match ing {
            LogicalIngress::Link(p) => WireIngress {
                bundle: false,
                router: p.router,
                ifindex: p.ifindex,
            },
            LogicalIngress::Bundle(b) => WireIngress {
                bundle: true,
                router: b.router,
                ifindex: b.ifindexes.first().copied().unwrap_or(0),
            },
        }
    }
}

/// One prefix's classification change as it travels on the wire: appeared
/// (`before` absent), disappeared (`after` absent), or moved (both
/// present). Both absent never decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireChange {
    /// The range that changed.
    pub prefix: Prefix,
    /// Ingress before the change (`None` = newly classified).
    pub before: Option<WireIngress>,
    /// Ingress after the change (`None` = no longer classified).
    pub after: Option<WireIngress>,
}

impl WireChange {
    /// Flatten a [`PrefixChange`] into wire form. Returns `None` for the
    /// degenerate no-op change (neither side present), which the diff seam
    /// never produces.
    pub fn from_change(c: &PrefixChange) -> Option<WireChange> {
        if c.before.is_none() && c.after.is_none() {
            return None;
        }
        Some(WireChange {
            prefix: c.prefix,
            before: c.before.as_ref().map(WireIngress::from_logical),
            after: c.after.as_ref().map(WireIngress::from_logical),
        })
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answers to a Lookup (one element) or Batch (request order), stamped
    /// with the epoch that produced every one of them.
    Answers {
        /// Publication epoch of the store that answered.
        epoch: u64,
        /// One answer per queried address.
        answers: Vec<WireAnswer>,
    },
    /// Store metadata.
    Info {
        /// Publication epoch of the current store.
        epoch: u64,
        /// Data timestamp the store serves.
        ts: u64,
        /// Classified ranges held.
        entries: u64,
        /// Approximate heap footprint in bytes.
        memory_bytes: u64,
        /// Dead arena cells awaiting the next compaction rotation.
        garbage: u64,
        /// Compaction rebuilds (store rotations) since server start.
        rotations: u64,
        /// Wall nanoseconds since the served epoch was published (0 when
        /// the server runs without telemetry).
        age_nanos: u64,
    },
    /// Per-prefix changes between two epochs, sorted by prefix, capped at
    /// [`MAX_DIFF`].
    Diff {
        /// The earlier epoch queried.
        from: u64,
        /// The later epoch queried.
        to: u64,
        /// What changed between them.
        changes: Vec<WireChange>,
    },
    /// The flight-recorder tail, oldest first.
    Dump {
        /// Recorded events, in sequence order.
        events: Vec<FlightEvent>,
    },
}

/// Decode failures. Every variant is a protocol violation by the peer;
/// none is an internal error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Payload ended before the structure it declared.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown op byte.
    BadOp(u8),
    /// Address family byte other than 4 or 6.
    BadAf(u8),
    /// Unknown answer kind byte.
    BadKind(u8),
    /// Batch count exceeds [`MAX_BATCH`].
    BatchTooLarge(u32),
    /// Diff change count exceeds [`MAX_DIFF`].
    DiffTooLarge(u32),
    /// A prefix with a length beyond its family width, or with host bits
    /// set (prefixes travel canonically).
    BadPrefix,
    /// Bytes left over after the declared structure.
    TrailingBytes(usize),
    /// A flight blob the event codec rejects (truncated, oversized, or
    /// non-canonical).
    BadFlightBlob,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "payload truncated"),
            ProtoError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            ProtoError::BadOp(o) => write!(f, "unknown op {o}"),
            ProtoError::BadAf(a) => write!(f, "unknown address family {a}"),
            ProtoError::BadKind(k) => write!(f, "unknown answer kind {k}"),
            ProtoError::BatchTooLarge(n) => write!(f, "batch of {n} exceeds {MAX_BATCH}"),
            ProtoError::DiffTooLarge(n) => write!(f, "diff of {n} changes exceeds {MAX_DIFF}"),
            ProtoError::BadPrefix => write!(f, "non-canonical or out-of-range prefix"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            ProtoError::BadFlightBlob => write!(f, "malformed flight-recorder blob"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// A cursor over a payload that fails soft on truncation.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn addr(&mut self) -> Result<Addr, ProtoError> {
        match self.u8()? {
            4 => Ok(Addr::v4(u32::from_be_bytes(
                self.take(4)?.try_into().unwrap(),
            ))),
            6 => Ok(Addr::v6(u128::from_be_bytes(
                self.take(16)?.try_into().unwrap(),
            ))),
            other => Err(ProtoError::BadAf(other)),
        }
    }

    /// A canonical prefix: family byte, full-width network bytes, length.
    /// Host bits set beyond the length are a protocol error — decoding
    /// stays bijective (decode → encode reproduces the input bytes).
    fn prefix(&mut self) -> Result<Prefix, ProtoError> {
        let addr = self.addr()?;
        let len = self.u8()?;
        let p = Prefix::new(addr, len).map_err(|_| ProtoError::BadPrefix)?;
        if p.addr() != addr {
            return Err(ProtoError::BadPrefix);
        }
        Ok(p)
    }

    fn ingress(&mut self) -> Result<WireIngress, ProtoError> {
        let bundle = match self.u8()? {
            KIND_LINK => false,
            KIND_BUNDLE => true,
            other => return Err(ProtoError::BadKind(other)),
        };
        Ok(WireIngress {
            bundle,
            router: self.u32()?,
            ifindex: self.u16()?,
        })
    }

    fn change(&mut self) -> Result<WireChange, ProtoError> {
        let tag = self.u8()?;
        let prefix = self.prefix()?;
        let (before, after) = match tag {
            CHANGE_APPEARED => (None, Some(self.ingress()?)),
            CHANGE_DISAPPEARED => (Some(self.ingress()?), None),
            CHANGE_MOVED => (Some(self.ingress()?), Some(self.ingress()?)),
            other => return Err(ProtoError::BadKind(other)),
        };
        Ok(WireChange {
            prefix,
            before,
            after,
        })
    }

    /// Everything not yet consumed (used for embedded sub-messages with
    /// their own codec, like the flight blob).
    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn finish(self) -> Result<(), ProtoError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(left))
        }
    }
}

fn put_addr(out: &mut Vec<u8>, addr: Addr) {
    match addr.af() {
        Af::V4 => {
            out.push(4);
            out.extend_from_slice(&(addr.bits() as u32).to_be_bytes());
        }
        Af::V6 => {
            out.push(6);
            out.extend_from_slice(&addr.bits().to_be_bytes());
        }
    }
}

fn put_prefix(out: &mut Vec<u8>, p: Prefix) {
    put_addr(out, p.addr());
    out.push(p.len());
}

fn put_ingress(out: &mut Vec<u8>, i: &WireIngress) {
    out.push(if i.bundle { KIND_BUNDLE } else { KIND_LINK });
    out.extend_from_slice(&i.router.to_be_bytes());
    out.extend_from_slice(&i.ifindex.to_be_bytes());
}

fn put_change(out: &mut Vec<u8>, c: &WireChange) {
    match (&c.before, &c.after) {
        (None, Some(after)) => {
            out.push(CHANGE_APPEARED);
            put_prefix(out, c.prefix);
            put_ingress(out, after);
        }
        (Some(before), None) => {
            out.push(CHANGE_DISAPPEARED);
            put_prefix(out, c.prefix);
            put_ingress(out, before);
        }
        (Some(before), Some(after)) => {
            out.push(CHANGE_MOVED);
            put_prefix(out, c.prefix);
            put_ingress(out, before);
            put_ingress(out, after);
        }
        (None, None) => unreachable!("WireChange with neither side never constructs"),
    }
}

/// Encode a request payload (no length prefix — see [`frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = vec![PROTO_VERSION];
    match req {
        Request::Lookup(addr) => {
            out.push(OP_LOOKUP);
            put_addr(&mut out, *addr);
        }
        Request::Batch(addrs) => {
            out.push(OP_BATCH);
            out.extend_from_slice(&(addrs.len() as u32).to_be_bytes());
            for &a in addrs {
                put_addr(&mut out, a);
            }
        }
        Request::Info => out.push(OP_INFO),
        Request::QueryAt { epoch, addr } => {
            out.push(OP_QUERY_AT);
            out.extend_from_slice(&epoch.to_be_bytes());
            put_addr(&mut out, *addr);
        }
        Request::DiffRange { from, to } => {
            out.push(OP_DIFF);
            out.extend_from_slice(&from.to_be_bytes());
            out.extend_from_slice(&to.to_be_bytes());
        }
        Request::WaitEpoch { min_epoch } => {
            out.push(OP_WAIT);
            out.extend_from_slice(&min_epoch.to_be_bytes());
        }
        Request::Dump => out.push(OP_DUMP),
    }
    out
}

/// Decode a request payload. Total, never panics: any byte sequence either
/// decodes or returns a [`ProtoError`].
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor::new(payload);
    let version = c.u8()?;
    if version != PROTO_VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let req = match c.u8()? {
        OP_LOOKUP => Request::Lookup(c.addr()?),
        OP_BATCH => {
            let count = c.u32()?;
            if count as usize > MAX_BATCH {
                return Err(ProtoError::BatchTooLarge(count));
            }
            // Capacity from bytes actually present, not the declared count:
            // a tiny frame claiming 4096 addresses must not pre-allocate.
            let mut addrs = Vec::with_capacity((count as usize).min(payload.len() / 5 + 1));
            for _ in 0..count {
                addrs.push(c.addr()?);
            }
            Request::Batch(addrs)
        }
        OP_INFO => Request::Info,
        OP_QUERY_AT => Request::QueryAt {
            epoch: c.u64()?,
            addr: c.addr()?,
        },
        OP_DIFF => Request::DiffRange {
            from: c.u64()?,
            to: c.u64()?,
        },
        OP_WAIT => Request::WaitEpoch {
            min_epoch: c.u64()?,
        },
        OP_DUMP => Request::Dump,
        other => return Err(ProtoError::BadOp(other)),
    };
    c.finish()?;
    Ok(req)
}

fn put_answer(out: &mut Vec<u8>, a: &WireAnswer) {
    out.push(match a.kind {
        AnswerKind::Unmapped => KIND_UNMAPPED,
        AnswerKind::Link => KIND_LINK,
        AnswerKind::Bundle => KIND_BUNDLE,
    });
    out.push(a.prefix_len);
    out.extend_from_slice(&a.router.to_be_bytes());
    out.extend_from_slice(&a.ifindex.to_be_bytes());
    out.extend_from_slice(&a.confidence.to_bits().to_be_bytes());
}

/// Encode a response payload. `op` must be the request op being answered:
/// an answer list travels under `1`, `2`, or `4`; the info shape under `3`
/// (Info) or `6` (WaitEpoch); a diff always under `5`.
pub fn encode_response(resp: &Response, op: u8) -> Vec<u8> {
    let mut out = vec![PROTO_VERSION];
    match resp {
        Response::Answers { epoch, answers } => {
            out.push(op);
            out.extend_from_slice(&epoch.to_be_bytes());
            out.extend_from_slice(&(answers.len() as u32).to_be_bytes());
            for a in answers {
                put_answer(&mut out, a);
            }
        }
        Response::Info {
            epoch,
            ts,
            entries,
            memory_bytes,
            garbage,
            rotations,
            age_nanos,
        } => {
            out.push(op);
            out.extend_from_slice(&epoch.to_be_bytes());
            out.extend_from_slice(&ts.to_be_bytes());
            out.extend_from_slice(&entries.to_be_bytes());
            out.extend_from_slice(&memory_bytes.to_be_bytes());
            out.extend_from_slice(&garbage.to_be_bytes());
            out.extend_from_slice(&rotations.to_be_bytes());
            out.extend_from_slice(&age_nanos.to_be_bytes());
        }
        Response::Diff { from, to, changes } => {
            out.push(OP_DIFF);
            out.extend_from_slice(&from.to_be_bytes());
            out.extend_from_slice(&to.to_be_bytes());
            out.extend_from_slice(&(changes.len() as u32).to_be_bytes());
            for ch in changes {
                put_change(&mut out, ch);
            }
        }
        Response::Dump { events } => {
            out.push(OP_DUMP);
            out.extend_from_slice(&encode_events(events));
        }
    }
    out
}

/// Decode a response payload. Total like [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cursor::new(payload);
    let version = c.u8()?;
    if version != PROTO_VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let resp = match c.u8()? {
        OP_LOOKUP | OP_BATCH | OP_QUERY_AT => {
            let epoch = c.u64()?;
            let count = c.u32()?;
            if count as usize > MAX_BATCH {
                return Err(ProtoError::BatchTooLarge(count));
            }
            let mut answers = Vec::with_capacity((count as usize).min(payload.len() / 16 + 1));
            for _ in 0..count {
                let kind = match c.u8()? {
                    KIND_UNMAPPED => AnswerKind::Unmapped,
                    KIND_LINK => AnswerKind::Link,
                    KIND_BUNDLE => AnswerKind::Bundle,
                    other => return Err(ProtoError::BadKind(other)),
                };
                answers.push(WireAnswer {
                    kind,
                    prefix_len: c.u8()?,
                    router: c.u32()?,
                    ifindex: c.u16()?,
                    confidence: f64::from_bits(c.u64()?),
                });
            }
            Response::Answers { epoch, answers }
        }
        OP_INFO | OP_WAIT => Response::Info {
            epoch: c.u64()?,
            ts: c.u64()?,
            entries: c.u64()?,
            memory_bytes: c.u64()?,
            garbage: c.u64()?,
            rotations: c.u64()?,
            age_nanos: c.u64()?,
        },
        OP_DIFF => {
            let from = c.u64()?;
            let to = c.u64()?;
            let count = c.u32()?;
            if count as usize > MAX_DIFF {
                return Err(ProtoError::DiffTooLarge(count));
            }
            let mut changes = Vec::with_capacity((count as usize).min(payload.len() / 14 + 1));
            for _ in 0..count {
                changes.push(c.change()?);
            }
            Response::Diff { from, to, changes }
        }
        OP_DUMP => {
            // The remainder is the little-endian flight codec, which does
            // its own exact-length accounting — so `finish` below is
            // trivially satisfied and canonicality comes from the codec.
            let events = decode_events(c.rest()).map_err(|e| match e {
                FlightCodecError::Truncated | FlightCodecError::LengthMismatch { .. } => {
                    ProtoError::BadFlightBlob
                }
                FlightCodecError::TooManyEvents(_) => ProtoError::BadFlightBlob,
            })?;
            Response::Dump { events }
        }
        other => return Err(ProtoError::BadOp(other)),
    };
    c.finish()?;
    Ok(resp)
}

/// The op byte a request travels under (a response echoes it).
pub fn request_op(req: &Request) -> u8 {
    match req {
        Request::Lookup(_) => OP_LOOKUP,
        Request::Batch(_) => OP_BATCH,
        Request::Info => OP_INFO,
        Request::QueryAt { .. } => OP_QUERY_AT,
        Request::DiffRange { .. } => OP_DIFF,
        Request::WaitEpoch { .. } => OP_WAIT,
        Request::Dump => OP_DUMP,
    }
}

/// Wrap a payload in its length prefix: the bytes that go on the wire.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes), Ok(req));
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Info);
        roundtrip_request(Request::Lookup(Addr::v4(0xC000_0201)));
        roundtrip_request(Request::Lookup(Addr::v6((0x2001 << 112) | 7)));
        roundtrip_request(Request::Batch(vec![]));
        roundtrip_request(Request::Batch(vec![
            Addr::v4(1),
            Addr::v6(2),
            Addr::v4(u32::MAX),
        ]));
        roundtrip_request(Request::QueryAt {
            epoch: 512,
            addr: Addr::v4(0x0A00_0001),
        });
        roundtrip_request(Request::QueryAt {
            epoch: u64::MAX,
            addr: Addr::v6(77),
        });
        roundtrip_request(Request::DiffRange { from: 3, to: 907 });
        roundtrip_request(Request::WaitEpoch { min_epoch: 42 });
        roundtrip_request(Request::Dump);
    }

    #[test]
    fn response_roundtrips() {
        let answers = Response::Answers {
            epoch: 77,
            answers: vec![
                WireAnswer::UNMAPPED,
                WireAnswer {
                    kind: AnswerKind::Link,
                    prefix_len: 24,
                    router: 30,
                    ifindex: 2,
                    confidence: 0.991,
                },
                WireAnswer {
                    kind: AnswerKind::Bundle,
                    prefix_len: 12,
                    router: 9,
                    ifindex: 1,
                    confidence: 1.0,
                },
            ],
        };
        let bytes = encode_response(&answers, 2);
        assert_eq!(decode_response(&bytes), Ok(answers));

        let info = Response::Info {
            epoch: 3,
            ts: 600,
            entries: 131_072,
            memory_bytes: 9_999_999,
            garbage: 4_096,
            rotations: 2,
            age_nanos: 1_500_000_000,
        };
        let bytes = encode_response(&info, 3);
        assert_eq!(decode_response(&bytes), Ok(info.clone()));

        // The same info shape answers WaitEpoch, under op 6.
        let bytes = encode_response(&info, 6);
        assert_eq!(bytes[1], 6);
        assert_eq!(decode_response(&bytes), Ok(info));

        // QueryAt answers travel like lookups, under op 4 — including the
        // zero-answer "epoch unknown" form.
        let missing = Response::Answers {
            epoch: 99,
            answers: vec![],
        };
        let bytes = encode_response(&missing, 4);
        assert_eq!(bytes[1], 4);
        assert_eq!(decode_response(&bytes), Ok(missing));
    }

    #[test]
    fn diff_response_roundtrips() {
        let link = |r, i| {
            Some(WireIngress {
                bundle: false,
                router: r,
                ifindex: i,
            })
        };
        let bundle = |r, i| {
            Some(WireIngress {
                bundle: true,
                router: r,
                ifindex: i,
            })
        };
        let diff = Response::Diff {
            from: 10,
            to: 20,
            changes: vec![
                WireChange {
                    prefix: "10.0.0.0/8".parse().unwrap(),
                    before: None,
                    after: link(30, 2),
                },
                WireChange {
                    prefix: "10.64.0.0/12".parse().unwrap(),
                    before: bundle(7, 1),
                    after: None,
                },
                WireChange {
                    prefix: "2001:db8::/32".parse().unwrap(),
                    before: link(1, 9),
                    after: bundle(2, 3),
                },
            ],
        };
        let bytes = encode_response(&diff, 5);
        assert_eq!(decode_response(&bytes), Ok(diff));

        let empty = Response::Diff {
            from: 5,
            to: 5,
            changes: vec![],
        };
        let bytes = encode_response(&empty, 5);
        assert_eq!(decode_response(&bytes), Ok(empty));
    }

    #[test]
    fn non_canonical_prefixes_are_rejected() {
        // Hand-build a diff response whose prefix has host bits set.
        let mut bytes = vec![PROTO_VERSION, OP_DIFF];
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.extend_from_slice(&2u64.to_be_bytes());
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.push(CHANGE_APPEARED);
        bytes.push(4);
        bytes.extend_from_slice(&0x0A00_00FFu32.to_be_bytes()); // 10.0.0.255
        bytes.push(8); // /8 — host bits set
        bytes.push(KIND_LINK);
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&1u16.to_be_bytes());
        assert_eq!(decode_response(&bytes), Err(ProtoError::BadPrefix));

        // Length beyond the family width is equally rejected.
        let mut bytes = vec![PROTO_VERSION, OP_DIFF];
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.extend_from_slice(&2u64.to_be_bytes());
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.push(CHANGE_APPEARED);
        bytes.push(4);
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.push(33);
        bytes.push(KIND_LINK);
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&1u16.to_be_bytes());
        assert_eq!(decode_response(&bytes), Err(ProtoError::BadPrefix));
    }

    #[test]
    fn from_change_flattens_the_diff_seam() {
        use ipd_topology::{Bundle, IngressPoint};
        let c = PrefixChange {
            prefix: "10.0.0.0/8".parse().unwrap(),
            before: Some(LogicalIngress::Link(IngressPoint::new(3, 1))),
            after: Some(LogicalIngress::Bundle(Bundle::new(4, vec![8, 2]))),
        };
        let w = WireChange::from_change(&c).unwrap();
        assert_eq!(
            w.before,
            Some(WireIngress {
                bundle: false,
                router: 3,
                ifindex: 1
            })
        );
        assert_eq!(
            w.after,
            Some(WireIngress {
                bundle: true,
                router: 4,
                ifindex: 2
            })
        );
        let degenerate = PrefixChange {
            prefix: c.prefix,
            before: None,
            after: None,
        };
        assert!(WireChange::from_change(&degenerate).is_none());
    }

    #[test]
    fn confidence_travels_bit_exact() {
        let odd = f64::from_bits(0x3FEF_FFFF_FFFF_FFFF);
        let resp = Response::Answers {
            epoch: 1,
            answers: vec![WireAnswer {
                kind: AnswerKind::Link,
                prefix_len: 8,
                router: 1,
                ifindex: 1,
                confidence: odd,
            }],
        };
        let Response::Answers { answers, .. } =
            decode_response(&encode_response(&resp, 1)).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(answers[0].confidence.to_bits(), odd.to_bits());
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        assert_eq!(decode_request(&[]), Err(ProtoError::Truncated));
        assert_eq!(decode_request(&[9, 1]), Err(ProtoError::BadVersion(9)));
        // Version 1 no longer decodes: the Info shape changed with v2.
        assert_eq!(decode_request(&[1, 3]), Err(ProtoError::BadVersion(1)));
        assert_eq!(decode_request(&[2, 99]), Err(ProtoError::BadOp(99)));
        assert_eq!(decode_request(&[2, 1, 5]), Err(ProtoError::BadAf(5)));
        assert_eq!(decode_request(&[2, 1, 4, 0]), Err(ProtoError::Truncated));
        assert_eq!(
            decode_request(&[2, 3, 0]),
            Err(ProtoError::TrailingBytes(1))
        );
        // A batch declaring more than MAX_BATCH addresses is rejected before
        // any allocation proportional to the claim.
        let mut huge = vec![2, 2];
        huge.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert_eq!(
            decode_request(&huge),
            Err(ProtoError::BatchTooLarge(u32::MAX))
        );
        assert_eq!(decode_response(&[2, 1, 0]), Err(ProtoError::Truncated));
        assert!(decode_response(&[2, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 1, 7]).is_err());
    }

    #[test]
    fn dump_roundtrips_and_rejects_malformed_blobs() {
        let events: Vec<FlightEvent> = (0..3)
            .map(|i| FlightEvent {
                kind: i as u8 + 1,
                seq: i + 1,
                ts: 60 * (i + 1),
                a: i,
                b: i * 2,
                c: i * 3,
            })
            .collect();
        let dump = Response::Dump { events };
        let bytes = encode_response(&dump, 7);
        assert_eq!(bytes[1], 7);
        assert_eq!(decode_response(&bytes), Ok(dump));

        let empty = Response::Dump { events: vec![] };
        let bytes = encode_response(&empty, 7);
        assert_eq!(decode_response(&bytes), Ok(empty));

        // A blob whose count disagrees with its length is rejected, as is
        // a truncated one — the embedded codec does its own accounting.
        let mut lying = vec![PROTO_VERSION, 7];
        lying.extend_from_slice(&5u32.to_le_bytes());
        lying.extend_from_slice(&[0u8; 41]); // one frame, five declared
        assert_eq!(decode_response(&lying), Err(ProtoError::BadFlightBlob));
        assert_eq!(
            decode_response(&[PROTO_VERSION, 7, 1]),
            Err(ProtoError::BadFlightBlob)
        );
    }

    #[test]
    fn from_lookup_flattens_bundles() {
        use ipd_topology::{Bundle, IngressPoint};
        let link = LogicalIngress::Link(IngressPoint::new(30, 4));
        let a = WireAnswer::from_lookup(Some(IngressAnswer {
            prefix: "10.0.0.0/8".parse().unwrap(),
            ingress: &link,
            confidence: 0.97,
        }));
        assert_eq!(
            (a.kind, a.router, a.ifindex, a.prefix_len),
            (AnswerKind::Link, 30, 4, 8)
        );

        let bundle = LogicalIngress::Bundle(Bundle::new(7, vec![9, 3]));
        let b = WireAnswer::from_lookup(Some(IngressAnswer {
            prefix: "10.0.0.0/12".parse().unwrap(),
            ingress: &bundle,
            confidence: 1.0,
        }));
        assert_eq!((b.kind, b.router, b.ifindex), (AnswerKind::Bundle, 7, 3));
        assert!(!WireAnswer::from_lookup(None).is_mapped());
    }

    #[test]
    fn frame_prefixes_length() {
        let f = frame(&[1, 2, 3]);
        assert_eq!(f, vec![0, 0, 0, 3, 1, 2, 3]);
    }
}
