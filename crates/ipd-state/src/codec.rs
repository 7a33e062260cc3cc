//! The checkpoint codec: a versioned, deterministic binary image of the
//! full engine state plus the bucket clock.
//!
//! Layout (all integers little-endian, f64 as IEEE-754 bit patterns):
//!
//! ```text
//! magic "IPDSTAT1" | version u16 | section* | checksum u64
//! section := tag u8 | len u64 | payload[len]
//! ```
//!
//! Sections appear exactly once, in tag order: params (1), ingress registry
//! (2), engine stats (3), bucket clock (4), v4 trie (5), v6 trie (6). The
//! trailing checksum is eight-lane interleaved FNV-1a 64 (see
//! [`image_checksum`]) over every preceding byte. [`encode`] and
//! [`decode`] are pure sans-I/O functions; because the underlying
//! [`EngineStateDump`] is canonical (maps sorted by key), the same engine
//! state always encodes to the same bytes — checkpoint files are
//! content-comparable.

use ipd::persist::{ClassifiedDump, EngineStateDump, IpEntryDump, TrieNodeDump};
use ipd::pipeline::BucketClock;
use ipd::{CountMode, EngineStats, IpdParams, LogicalIngress};
use ipd_topology::{Bundle, IngressPoint};

/// Checkpoint file magic.
pub const MAGIC: [u8; 8] = *b"IPDSTAT1";
/// Current format version.
pub const VERSION: u16 = 1;

const SEC_PARAMS: u8 = 1;
const SEC_REGISTRY: u8 = 2;
const SEC_STATS: u8 = 3;
const SEC_CLOCK: u8 = 4;
const SEC_TRIE_V4: u8 = 5;
const SEC_TRIE_V6: u8 = 6;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 — same function [`ipd::Snapshot::digest`] uses. Used for the
/// short per-frame journal checksums, where the serial dependency chain is
/// irrelevant.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Image checksum: FNV-1a in eight interleaved lanes (lane `i` hashes bytes
/// `i, i+8, i+16, …`), folded together with a final FNV-1a pass over the
/// lane values. Same primitive and detection strength as plain FNV-1a, but
/// the eight independent multiply chains pipeline, so checkpoint-sized
/// images hash at memory speed instead of one multiply-latency per byte.
/// Exported for the other on-disk formats that share the `IPDSTAT1`
/// conventions (the `IPDSEG1` segments of `ipd-hist`).
pub fn image_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [0u64; 8];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = FNV_OFFSET ^ (i as u64);
    }
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, &b) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    for (lane, &b) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = (*lane ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    let mut h = FNV_OFFSET ^ bytes.len() as u64;
    for lane in lanes {
        for b in lane.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Everything a checkpoint holds: the engine state plus the driver clock, so
/// a restored run resumes tick cadence exactly where it stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// The full engine state.
    pub dump: EngineStateDump,
    /// The bucket driver's data-time position at checkpoint time.
    pub clock: BucketClock,
}

/// Why a byte image is not a valid checkpoint.
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the claimed structure needs.
    Truncated,
    /// The magic does not match.
    BadMagic,
    /// A format version this build does not read.
    BadVersion(u16),
    /// The trailing checksum does not match the content.
    BadChecksum {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum of the actual bytes.
        computed: u64,
    },
    /// A section is missing, duplicated, or out of order.
    BadSection(u8),
    /// A structurally invalid field value.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "checkpoint truncated"),
            CodecError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CodecError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            CodecError::BadSection(tag) => write!(f, "bad section sequence at tag {tag}"),
            CodecError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    /// Append a section: tag, length placeholder, payload via `fill`, then
    /// backpatch the length.
    fn section(&mut self, tag: u8, fill: impl FnOnce(&mut Writer)) {
        self.u8(tag);
        let len_at = self.buf.len();
        self.u64(0);
        fill(self);
        let len = (self.buf.len() - len_at - 8) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("bool out of range")),
        }
    }
    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Encode a checkpoint to its canonical byte image.
pub fn encode(state: &CheckpointState) -> Vec<u8> {
    let mut w = Writer {
        buf: Vec::with_capacity(4096),
    };
    w.buf.extend_from_slice(&MAGIC);
    w.u16(VERSION);

    let p = &state.dump.params;
    w.section(SEC_PARAMS, |w| {
        w.u8(p.cidr_max_v4);
        w.u8(p.cidr_max_v6);
        w.f64(p.ncidr_factor_v4);
        w.f64(p.ncidr_factor_v6);
        w.f64(p.q);
        w.u64(p.t_secs);
        w.u64(p.e_secs);
        w.u8(match p.count_mode {
            CountMode::Flows => 0,
            CountMode::Bytes => 1,
        });
        w.bool(p.enable_bundles);
        w.f64(p.bundle_member_min_share);
        w.f64(p.drop_floor);
        w.bool(p.detect_router_lb);
    });

    w.section(SEC_REGISTRY, |w| {
        w.u32(state.dump.ingresses.len() as u32);
        for p in &state.dump.ingresses {
            w.u32(p.router);
            w.u16(p.ifindex);
        }
    });

    let s = &state.dump.stats;
    w.section(SEC_STATS, |w| {
        w.u64(s.flows_ingested);
        w.u64(s.ticks);
        w.u64(s.splits);
        w.u64(s.joins);
        w.u64(s.classifications);
        w.u64(s.drops);
    });

    w.section(SEC_CLOCK, |w| {
        match state.clock.current_bucket {
            Some(b) => {
                w.u8(1);
                w.u64(b);
            }
            None => {
                w.u8(0);
                w.u64(0);
            }
        }
        w.u32(state.clock.ticks_since_snapshot);
    });

    w.section(SEC_TRIE_V4, |w| encode_trie(w, &state.dump.v4));
    w.section(SEC_TRIE_V6, |w| encode_trie(w, &state.dump.v6));

    let checksum = image_checksum(&w.buf);
    w.u64(checksum);
    w.buf
}

fn encode_trie(w: &mut Writer, nodes: &[TrieNodeDump]) {
    w.u64(nodes.len() as u64);
    for node in nodes {
        match node {
            TrieNodeDump::Internal => w.u8(0),
            TrieNodeDump::Monitoring(ips) => {
                w.u8(1);
                w.u32(ips.len() as u32);
                for e in ips {
                    w.u128(e.ip);
                    w.u64(e.last_ts);
                    encode_counts(w, &e.counts);
                }
            }
            TrieNodeDump::Classified(c) => {
                w.u8(2);
                match &c.ingress {
                    LogicalIngress::Link(p) => {
                        w.u8(1);
                        w.u32(p.router);
                        w.u16(p.ifindex);
                    }
                    LogicalIngress::Bundle(b) => {
                        w.u8(2);
                        w.u32(b.router);
                        w.u16(b.ifindexes.len() as u16);
                        for &i in &b.ifindexes {
                            w.u16(i);
                        }
                    }
                }
                w.u32(c.member_ids.len() as u32);
                for &id in &c.member_ids {
                    w.u32(id);
                }
                encode_counts(w, &c.counts);
                w.f64(c.total);
                w.u64(c.last_ts);
                w.u64(c.since);
            }
        }
    }
}

fn encode_counts(w: &mut Writer, counts: &[(u32, f64)]) {
    w.u32(counts.len() as u32);
    for &(id, weight) in counts {
        w.u32(id);
        w.f64(weight);
    }
}

/// Decode a checkpoint image. Verifies the checksum, magic, version, and
/// section structure; the deeper semantic checks (param validity, trie
/// preorder shape, ingress id bounds) happen when the returned dump is fed
/// to [`ipd::IpdEngine::restore_state`].
pub fn decode(bytes: &[u8]) -> Result<CheckpointState, CodecError> {
    let min = MAGIC.len() + 2 + 8;
    if bytes.len() < min {
        return Err(CodecError::Truncated);
    }
    let (content, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    let computed = image_checksum(content);
    if stored != computed {
        return Err(CodecError::BadChecksum { stored, computed });
    }
    let mut r = Reader { buf: content };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }

    fn section<'a>(expected: u8, r: &mut Reader<'a>) -> Result<Reader<'a>, CodecError> {
        let tag = r.u8()?;
        if tag != expected {
            return Err(CodecError::BadSection(tag));
        }
        let len = r.u64()? as usize;
        Ok(Reader { buf: r.take(len)? })
    }

    let mut pr = section(SEC_PARAMS, &mut r)?;
    let params = IpdParams {
        cidr_max_v4: pr.u8()?,
        cidr_max_v6: pr.u8()?,
        ncidr_factor_v4: pr.f64()?,
        ncidr_factor_v6: pr.f64()?,
        q: pr.f64()?,
        t_secs: pr.u64()?,
        e_secs: pr.u64()?,
        count_mode: match pr.u8()? {
            0 => CountMode::Flows,
            1 => CountMode::Bytes,
            _ => return Err(CodecError::Malformed("count mode out of range")),
        },
        enable_bundles: pr.bool()?,
        bundle_member_min_share: pr.f64()?,
        drop_floor: pr.f64()?,
        detect_router_lb: pr.bool()?,
    };

    let mut rr = section(SEC_REGISTRY, &mut r)?;
    let n = rr.u32()? as usize;
    let mut ingresses = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let router = rr.u32()?;
        let ifindex = rr.u16()?;
        ingresses.push(IngressPoint::new(router, ifindex));
    }

    let mut sr = section(SEC_STATS, &mut r)?;
    let stats = EngineStats {
        flows_ingested: sr.u64()?,
        ticks: sr.u64()?,
        splits: sr.u64()?,
        joins: sr.u64()?,
        classifications: sr.u64()?,
        drops: sr.u64()?,
    };

    let mut cr = section(SEC_CLOCK, &mut r)?;
    let has_bucket = cr.bool()?;
    let bucket = cr.u64()?;
    let clock = BucketClock {
        current_bucket: has_bucket.then_some(bucket),
        ticks_since_snapshot: cr.u32()?,
    };

    let mut t4 = section(SEC_TRIE_V4, &mut r)?;
    let v4 = decode_trie(&mut t4)?;
    let mut t6 = section(SEC_TRIE_V6, &mut r)?;
    let v6 = decode_trie(&mut t6)?;

    if !r.is_empty() {
        return Err(CodecError::Malformed("trailing bytes after last section"));
    }

    Ok(CheckpointState {
        dump: EngineStateDump {
            params,
            ingresses,
            stats,
            v4,
            v6,
        },
        clock,
    })
}

fn decode_trie(r: &mut Reader) -> Result<Vec<TrieNodeDump>, CodecError> {
    let n = r.u64()? as usize;
    let mut nodes = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let node = match r.u8()? {
            0 => TrieNodeDump::Internal,
            1 => {
                let n_ips = r.u32()? as usize;
                let mut ips = Vec::with_capacity(n_ips.min(1 << 20));
                for _ in 0..n_ips {
                    let ip = r.u128()?;
                    let last_ts = r.u64()?;
                    let counts = decode_counts(r)?;
                    ips.push(IpEntryDump {
                        ip,
                        last_ts,
                        counts,
                    });
                }
                TrieNodeDump::Monitoring(ips)
            }
            2 => {
                let ingress = match r.u8()? {
                    1 => {
                        let router = r.u32()?;
                        let ifindex = r.u16()?;
                        LogicalIngress::Link(IngressPoint::new(router, ifindex))
                    }
                    2 => {
                        let router = r.u32()?;
                        let n_ifs = r.u16()? as usize;
                        let mut ifs = Vec::with_capacity(n_ifs);
                        for _ in 0..n_ifs {
                            ifs.push(r.u16()?);
                        }
                        LogicalIngress::Bundle(Bundle::new(router, ifs))
                    }
                    _ => return Err(CodecError::Malformed("ingress kind out of range")),
                };
                let n_members = r.u32()? as usize;
                let mut member_ids = Vec::with_capacity(n_members.min(1 << 20));
                for _ in 0..n_members {
                    member_ids.push(r.u32()?);
                }
                let counts = decode_counts(r)?;
                let total = r.f64()?;
                let last_ts = r.u64()?;
                let since = r.u64()?;
                TrieNodeDump::Classified(ClassifiedDump {
                    ingress,
                    member_ids,
                    counts,
                    total,
                    last_ts,
                    since,
                })
            }
            _ => return Err(CodecError::Malformed("node tag out of range")),
        };
        nodes.push(node);
    }
    if !r.is_empty() {
        return Err(CodecError::Malformed("trailing bytes in trie section"));
    }
    Ok(nodes)
}

fn decode_counts(r: &mut Reader) -> Result<Vec<(u32, f64)>, CodecError> {
    let n = r.u32()? as usize;
    let mut counts = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let id = r.u32()?;
        let w = r.f64()?;
        counts.push((id, w));
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd::IpdEngine;
    use ipd_lpm::Addr;

    fn populated_engine() -> IpdEngine {
        let params = IpdParams {
            ncidr_factor_v4: 0.01,
            ..IpdParams::default()
        };
        let mut e = IpdEngine::new(params).unwrap();
        for i in 0..1200u32 {
            e.ingest_parts(
                30,
                Addr::v4(i.wrapping_mul(0x9E37_79B9)),
                IngressPoint::new(1 + i % 3, 1 + (i % 2) as u16),
                1,
            );
        }
        for i in 0..50u128 {
            e.ingest_parts(
                40,
                Addr::v6((0x2001_0db8u128 << 96) | (i << 40)),
                IngressPoint::new(9, 1),
                1,
            );
        }
        e.tick(60);
        e
    }

    fn state() -> CheckpointState {
        CheckpointState {
            dump: populated_engine().dump_state(),
            clock: BucketClock {
                current_bucket: Some(17),
                ticks_since_snapshot: 3,
            },
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let s = state();
        let bytes = encode(&s);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn encoding_is_deterministic_across_rebuilds() {
        // Two engines with identical logical state but different HashMap
        // iteration histories must encode to identical bytes.
        let s = state();
        let restored = IpdEngine::restore_state(s.dump.clone()).unwrap();
        let s2 = CheckpointState {
            dump: restored.dump_state(),
            clock: s.clock,
        };
        assert_eq!(encode(&s), encode(&s2));
    }

    #[test]
    fn restored_engine_matches_original() {
        let e = populated_engine();
        let restored = IpdEngine::restore_state(e.dump_state()).unwrap();
        assert_eq!(restored.stats(), e.stats());
        assert_eq!(restored.snapshot(999).digest(), e.snapshot(999).digest());
        assert_eq!(restored.registry().len(), e.registry().len());
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let bytes = encode(&state());
        // Flip a spread of bytes (every 97th): each must fail the checksum
        // (or, for flips inside the checksum itself, mismatch the content).
        for i in (0..bytes.len()).step_by(97) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                matches!(decode(&corrupt), Err(CodecError::BadChecksum { .. })),
                "flip at {i} must be caught"
            );
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let bytes = encode(&state());
        assert_eq!(decode(&bytes[..10]), Err(CodecError::Truncated));
        assert_eq!(decode(b""), Err(CodecError::Truncated));
        // Valid checksum over garbage content: bad magic.
        let mut garbage = b"NOTASTATEFILE!!!".to_vec();
        let sum = image_checksum(&garbage);
        garbage.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(decode(&garbage), Err(CodecError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode(&state());
        bytes[8] = 0xFF; // version low byte
        let len = bytes.len();
        let sum = image_checksum(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(CodecError::BadVersion(_))));
    }

    #[test]
    fn empty_engine_roundtrips() {
        let e = IpdEngine::new(IpdParams::default()).unwrap();
        let s = CheckpointState {
            dump: e.dump_state(),
            clock: BucketClock::default(),
        };
        let back = decode(&encode(&s)).unwrap();
        assert_eq!(back, s);
        let restored = IpdEngine::restore_state(back.dump).unwrap();
        assert_eq!(restored.range_count(), 2);
    }
}
