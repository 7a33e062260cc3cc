//! The segment and manifest codecs, sharing the `IPDSTAT1` conventions
//! (DESIGN.md §13): versioned magic, little-endian integers, tagged
//! sections, and the trailing eight-lane FNV image checksum
//! ([`ipd_state::image_checksum`]). Error reporting reuses
//! [`ipd_state::CodecError`].
//!
//! A **segment** (`IPDSEG1\0`) holds one epoch — either the full ingress
//! map or a delta against the previous epoch:
//!
//! ```text
//! magic | version u16 | section* | checksum u64
//! section  := tag u8 | len u64 | payload[len]
//! HEADER 1 := kind u8 (1 full, 2 delta) | epoch u64 | ts u64 | base u64
//! ROWS   2 := count u64 | row*            (full only; base = 0)
//! REMOVED 3:= count u64 | prefix*         (delta only; base = epoch - 1)
//! UPSERTS 4:= count u64 | row*            (delta only)
//! row      := prefix | ingress | confidence f64 bits
//! prefix   := af u8 (4|6) | addr u128 | len u8
//! ingress  := 1 router u32 ifindex u16
//!           | 2 router u32 n u16 ifindex u16 * n   (strictly ascending)
//! ```
//!
//! A **manifest** (`IPDMAN1\0`) names every live segment:
//!
//! ```text
//! magic | version u16 | ENTRIES 1 := count u64 | entry* | checksum u64
//! entry := epoch u64 | kind u8 | ts u64 | bytes u64
//! ```
//!
//! Both decoders are **total and canonical**: any byte string either fails
//! with a [`CodecError`] or decodes to a value that re-encodes to exactly
//! the input (prefixes host-bit-clean, rows strictly ascending, bundle
//! members strictly ascending, delta base pinned to `epoch - 1`). The
//! `fuzz_seg` target drives the decoder with arbitrary bytes against that
//! oracle.

use ipd::{LogicalIngress, StoreDelta};
use ipd_lpm::{Addr, Af, Prefix};
use ipd_state::{image_checksum, CodecError};
use ipd_topology::{Bundle, IngressPoint};

use crate::image::{EpochImage, Row};

/// Segment file magic.
pub const SEG_MAGIC: [u8; 8] = *b"IPDSEG1\0";
/// Manifest file magic.
pub const MAN_MAGIC: [u8; 8] = *b"IPDMAN1\0";
/// Current format version (shared by both files).
pub const VERSION: u16 = 1;

const SEC_HEADER: u8 = 1;
const SEC_ROWS: u8 = 2;
const SEC_REMOVED: u8 = 3;
const SEC_UPSERTS: u8 = 4;
const SEC_ENTRIES: u8 = 1;

const KIND_FULL: u8 = 1;
const KIND_DELTA: u8 = 2;
const ING_LINK: u8 = 1;
const ING_BUNDLE: u8 = 2;

/// Whether a segment carries a full image or a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// The complete ingress map — a reconstruction keyframe.
    Full,
    /// Changes against epoch − 1.
    Delta,
}

/// One decoded segment: one epoch of history.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// The epoch this segment materializes (≥ 1).
    pub epoch: u64,
    /// Data timestamp of the epoch's map.
    pub ts: u64,
    /// Full image or delta payload.
    pub payload: SegmentPayload,
}

/// The two segment payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentPayload {
    /// The complete row set, strictly ascending.
    Full(Vec<Row>),
    /// Row-level changes against the previous epoch.
    Delta(StoreDelta),
}

impl Segment {
    /// A keyframe segment holding `image` whole.
    pub fn full(image: &EpochImage) -> Segment {
        Segment {
            epoch: image.epoch,
            ts: image.ts,
            payload: SegmentPayload::Full(image.rows().to_vec()),
        }
    }

    /// A delta segment carrying `image`'s changes against the previous
    /// epoch's image.
    pub fn delta(prev: &EpochImage, image: &EpochImage) -> Segment {
        debug_assert_eq!(prev.epoch + 1, image.epoch);
        Segment {
            epoch: image.epoch,
            ts: image.ts,
            payload: SegmentPayload::Delta(image.delta_from(prev)),
        }
    }

    /// Which kind of payload this is.
    pub fn kind(&self) -> SegmentKind {
        match self.payload {
            SegmentPayload::Full(_) => SegmentKind::Full,
            SegmentPayload::Delta(_) => SegmentKind::Delta,
        }
    }
}

/// One manifest line: a live segment file and its identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Epoch the segment materializes.
    pub epoch: u64,
    /// Full or delta — decides the file name and reconstruction role.
    pub kind: SegmentKind,
    /// Data timestamp (duplicated here so `at_time` needs no segment read).
    pub ts: u64,
    /// Encoded segment size in bytes.
    pub bytes: u64,
}

/// The authoritative list of live segments: contiguous epochs, first one a
/// keyframe. Atomically replaced on disk via the generation-store idiom.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// Entries in epoch order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Last epoch held, or 0 when empty.
    pub fn last_epoch(&self) -> u64 {
        self.entries.last().map_or(0, |e| e.epoch)
    }

    /// First epoch held, or 0 when empty.
    pub fn first_epoch(&self) -> u64 {
        self.entries.first().map_or(0, |e| e.epoch)
    }

    /// The entry for `epoch`, if held.
    pub fn get(&self, epoch: u64) -> Option<&ManifestEntry> {
        let first = self.first_epoch();
        if epoch < first || epoch > self.last_epoch() {
            return None;
        }
        self.entries.get((epoch - first) as usize)
    }

    /// Mutable entry access (compaction flips `Delta` to `Full`).
    pub fn get_mut(&mut self, epoch: u64) -> Option<&mut ManifestEntry> {
        let first = self.first_epoch();
        if epoch < first || epoch > self.last_epoch() {
            return None;
        }
        self.entries.get_mut((epoch - first) as usize)
    }
}

// ---- byte helpers (the IPDSTAT1 writer/reader, local copy) ----

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a section: tag, length placeholder, payload via `fill`, then
/// backpatch the length.
fn section(buf: &mut Vec<u8>, tag: u8, fill: impl FnOnce(&mut Vec<u8>)) {
    buf.push(tag);
    let len_at = buf.len();
    put_u64(buf, 0);
    fill(buf);
    let len = (buf.len() - len_at - 8) as u64;
    buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
}

fn put_prefix(buf: &mut Vec<u8>, p: Prefix) {
    buf.push(match p.af() {
        Af::V4 => 4,
        Af::V6 => 6,
    });
    put_u128(buf, p.addr().bits());
    buf.push(p.len());
}

/// Canonical row bytes — also the unit [`EpochImage::digest`] folds over.
pub(crate) fn append_row_bytes(buf: &mut Vec<u8>, (prefix, ingress, confidence): &Row) {
    put_prefix(buf, *prefix);
    match ingress {
        LogicalIngress::Link(p) => {
            buf.push(ING_LINK);
            put_u32(buf, p.router);
            put_u16(buf, p.ifindex);
        }
        LogicalIngress::Bundle(b) => {
            buf.push(ING_BUNDLE);
            put_u32(buf, b.router);
            put_u16(buf, b.ifindexes.len() as u16);
            for &i in &b.ifindexes {
                put_u16(buf, i);
            }
        }
    }
    put_u64(buf, confidence.to_bits());
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
    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn section(&mut self, expected: u8) -> Result<Reader<'a>, CodecError> {
        let tag = self.u8()?;
        if tag != expected {
            return Err(CodecError::BadSection(tag));
        }
        let len = self.u64()? as usize;
        Ok(Reader {
            buf: self.take(len)?,
        })
    }

    fn prefix(&mut self) -> Result<Prefix, CodecError> {
        let af = match self.u8()? {
            4 => Af::V4,
            6 => Af::V6,
            _ => return Err(CodecError::Malformed("address family out of range")),
        };
        let bits = self.u128()?;
        if af == Af::V4 && bits > u32::MAX as u128 {
            return Err(CodecError::Malformed("v4 address exceeds 32 bits"));
        }
        let addr = Addr::new(af, bits);
        let len = self.u8()?;
        let p = Prefix::new(addr, len)
            .map_err(|_| CodecError::Malformed("prefix length out of range"))?;
        if p.addr() != addr {
            return Err(CodecError::Malformed("prefix has host bits set"));
        }
        Ok(p)
    }

    fn ingress(&mut self) -> Result<LogicalIngress, CodecError> {
        match self.u8()? {
            ING_LINK => {
                let router = self.u32()?;
                let ifindex = self.u16()?;
                Ok(LogicalIngress::Link(IngressPoint::new(router, ifindex)))
            }
            ING_BUNDLE => {
                let router = self.u32()?;
                let n = self.u16()? as usize;
                let mut ifs = Vec::with_capacity(n);
                for _ in 0..n {
                    ifs.push(self.u16()?);
                }
                if ifs.is_empty() {
                    return Err(CodecError::Malformed("empty bundle"));
                }
                if ifs.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(CodecError::Malformed("bundle members out of order"));
                }
                Ok(LogicalIngress::Bundle(Bundle::new(router, ifs)))
            }
            _ => Err(CodecError::Malformed("ingress kind out of range")),
        }
    }

    fn row(&mut self) -> Result<Row, CodecError> {
        let prefix = self.prefix()?;
        let ingress = self.ingress()?;
        let confidence = f64::from_bits(self.u64()?);
        Ok((prefix, ingress, confidence))
    }

    fn rows(&mut self) -> Result<Vec<Row>, CodecError> {
        let n = self.u64()? as usize;
        let mut rows: Vec<Row> = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let row = self.row()?;
            if let Some(last) = rows.last() {
                if last.0 >= row.0 {
                    return Err(CodecError::Malformed("rows out of order"));
                }
            }
            rows.push(row);
        }
        if !self.is_empty() {
            return Err(CodecError::Malformed("trailing bytes in row section"));
        }
        Ok(rows)
    }
}

/// Strip and verify the checksum/magic/version envelope shared by both
/// file kinds; returns the section bytes.
fn open_envelope<'a>(bytes: &'a [u8], magic: &[u8; 8]) -> Result<Reader<'a>, CodecError> {
    let min = magic.len() + 2 + 8;
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
    if r.take(magic.len())? != magic {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    Ok(r)
}

/// Encode a segment to its canonical byte image.
pub fn encode_segment(seg: &Segment) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    buf.extend_from_slice(&SEG_MAGIC);
    put_u16(&mut buf, VERSION);
    let (kind, base) = match seg.payload {
        SegmentPayload::Full(_) => (KIND_FULL, 0),
        SegmentPayload::Delta(_) => (KIND_DELTA, seg.epoch - 1),
    };
    section(&mut buf, SEC_HEADER, |buf| {
        buf.push(kind);
        put_u64(buf, seg.epoch);
        put_u64(buf, seg.ts);
        put_u64(buf, base);
    });
    match &seg.payload {
        SegmentPayload::Full(rows) => {
            section(&mut buf, SEC_ROWS, |buf| {
                put_u64(buf, rows.len() as u64);
                for row in rows {
                    append_row_bytes(buf, row);
                }
            });
        }
        SegmentPayload::Delta(delta) => {
            section(&mut buf, SEC_REMOVED, |buf| {
                put_u64(buf, delta.removes.len() as u64);
                for &p in &delta.removes {
                    put_prefix(buf, p);
                }
            });
            section(&mut buf, SEC_UPSERTS, |buf| {
                put_u64(buf, delta.upserts.len() as u64);
                for row in &delta.upserts {
                    append_row_bytes(buf, row);
                }
            });
        }
    }
    let checksum = image_checksum(&buf);
    put_u64(&mut buf, checksum);
    buf
}

/// Decode a segment image, verifying the checksum and every canonicality
/// invariant (see module doc).
pub fn decode_segment(bytes: &[u8]) -> Result<Segment, CodecError> {
    let mut r = open_envelope(bytes, &SEG_MAGIC)?;
    let mut h = r.section(SEC_HEADER)?;
    let kind = h.u8()?;
    let epoch = h.u64()?;
    let ts = h.u64()?;
    let base = h.u64()?;
    if !h.is_empty() {
        return Err(CodecError::Malformed("trailing bytes in header"));
    }
    if epoch == 0 {
        return Err(CodecError::Malformed("epoch zero"));
    }
    let payload = match kind {
        KIND_FULL => {
            if base != 0 {
                return Err(CodecError::Malformed("full segment with a base epoch"));
            }
            SegmentPayload::Full(r.section(SEC_ROWS)?.rows()?)
        }
        KIND_DELTA => {
            if base != epoch - 1 {
                return Err(CodecError::Malformed("delta base is not epoch - 1"));
            }
            let mut rem = r.section(SEC_REMOVED)?;
            let n = rem.u64()? as usize;
            let mut removes: Vec<Prefix> = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let p = rem.prefix()?;
                if let Some(&last) = removes.last() {
                    if last >= p {
                        return Err(CodecError::Malformed("removed prefixes out of order"));
                    }
                }
                removes.push(p);
            }
            if !rem.is_empty() {
                return Err(CodecError::Malformed("trailing bytes in removed section"));
            }
            let upserts = r.section(SEC_UPSERTS)?.rows()?;
            SegmentPayload::Delta(StoreDelta { upserts, removes })
        }
        _ => return Err(CodecError::Malformed("segment kind out of range")),
    };
    if !r.is_empty() {
        return Err(CodecError::Malformed("trailing bytes after last section"));
    }
    Ok(Segment { epoch, ts, payload })
}

/// Encode a manifest to its canonical byte image.
pub fn encode_manifest(man: &Manifest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32 + man.entries.len() * 25);
    buf.extend_from_slice(&MAN_MAGIC);
    put_u16(&mut buf, VERSION);
    section(&mut buf, SEC_ENTRIES, |buf| {
        put_u64(buf, man.entries.len() as u64);
        for e in &man.entries {
            put_u64(buf, e.epoch);
            buf.push(match e.kind {
                SegmentKind::Full => KIND_FULL,
                SegmentKind::Delta => KIND_DELTA,
            });
            put_u64(buf, e.ts);
            put_u64(buf, e.bytes);
        }
    });
    let checksum = image_checksum(&buf);
    put_u64(&mut buf, checksum);
    buf
}

/// Decode a manifest image: contiguous ascending epochs, first entry (if
/// any) a keyframe — the invariant reconstruction relies on.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, CodecError> {
    let mut r = open_envelope(bytes, &MAN_MAGIC)?;
    let mut er = r.section(SEC_ENTRIES)?;
    let n = er.u64()? as usize;
    let mut entries: Vec<ManifestEntry> = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let epoch = er.u64()?;
        let kind = match er.u8()? {
            KIND_FULL => SegmentKind::Full,
            KIND_DELTA => SegmentKind::Delta,
            _ => return Err(CodecError::Malformed("entry kind out of range")),
        };
        let ts = er.u64()?;
        let bytes = er.u64()?;
        match entries.last() {
            None => {
                if epoch == 0 {
                    return Err(CodecError::Malformed("epoch zero"));
                }
                if kind != SegmentKind::Full {
                    return Err(CodecError::Malformed("first entry is not a keyframe"));
                }
            }
            Some(prev) => {
                if epoch != prev.epoch + 1 {
                    return Err(CodecError::Malformed("entries not contiguous"));
                }
            }
        }
        entries.push(ManifestEntry {
            epoch,
            kind,
            ts,
            bytes,
        });
    }
    if !er.is_empty() {
        return Err(CodecError::Malformed("trailing bytes in entries section"));
    }
    if !r.is_empty() {
        return Err(CodecError::Malformed("trailing bytes after last section"));
    }
    Ok(Manifest { entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(r: u32, i: u16) -> LogicalIngress {
        LogicalIngress::Link(IngressPoint::new(r, i))
    }

    fn sample_rows() -> Vec<Row> {
        vec![
            (Prefix::of(Addr::v4(0x0a00_0000), 8), link(1, 1), 0.97),
            (
                Prefix::of(Addr::v4(0x0b00_0000), 12),
                LogicalIngress::Bundle(Bundle::new(2, vec![3, 1, 9])),
                0.76,
            ),
            (Prefix::of(Addr::v4(0xc000_0200), 24), link(3, 2), 1.0),
            (
                Prefix::of(Addr::v6(0x2001_0db8u128 << 96), 32),
                link(4, 7),
                0.5,
            ),
        ]
    }

    fn full_segment() -> Segment {
        Segment::full(&EpochImage::new(9, 540, sample_rows()))
    }

    fn delta_segment() -> Segment {
        let prev = EpochImage::new(9, 540, sample_rows());
        let mut rows = sample_rows();
        rows.remove(2);
        rows[0].2 = 0.5;
        rows.push((Prefix::of(Addr::v4(0xdead_0000), 16), link(8, 8), 0.66));
        let next = EpochImage::new(10, 600, rows);
        Segment::delta(&prev, &next)
    }

    #[test]
    fn segments_roundtrip_losslessly() {
        for seg in [full_segment(), delta_segment()] {
            let bytes = encode_segment(&seg);
            let back = decode_segment(&bytes).unwrap();
            assert_eq!(back, seg);
            // Canonical: re-encoding the decoded value reproduces the input.
            assert_eq!(encode_segment(&back), bytes);
        }
    }

    #[test]
    fn empty_payloads_roundtrip() {
        let empty_full = Segment::full(&EpochImage::new(1, 60, vec![]));
        let a = EpochImage::new(3, 180, sample_rows());
        let mut b = a.clone();
        b.epoch = 4;
        b.ts = 240;
        let empty_delta = Segment::delta(&a, &b);
        for seg in [empty_full, empty_delta] {
            let back = decode_segment(&encode_segment(&seg)).unwrap();
            assert_eq!(back, seg);
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let bytes = encode_segment(&full_segment());
        for i in (0..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                matches!(
                    decode_segment(&corrupt),
                    Err(CodecError::BadChecksum { .. })
                ),
                "flip at {i} must be caught"
            );
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let bytes = encode_segment(&delta_segment());
        assert_eq!(decode_segment(&bytes[..10]), Err(CodecError::Truncated));
        assert_eq!(decode_segment(b""), Err(CodecError::Truncated));
        let mut garbage = b"NOTASEGMENTFILE!".to_vec();
        let sum = image_checksum(&garbage);
        garbage.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(decode_segment(&garbage), Err(CodecError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode_segment(&full_segment());
        bytes[8] = 0xFF;
        let len = bytes.len();
        let sum = image_checksum(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_segment(&bytes),
            Err(CodecError::BadVersion(_))
        ));
    }

    /// Rebuild a segment image with `mutate` applied to the decoded-section
    /// bytes, checksum recomputed — for reaching the semantic validators
    /// behind the checksum gate.
    fn remut(seg: &Segment, mutate: impl FnOnce(&mut Vec<u8>)) -> Result<Segment, CodecError> {
        let mut bytes = encode_segment(seg);
        bytes.truncate(bytes.len() - 8);
        mutate(&mut bytes);
        let sum = image_checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        decode_segment(&bytes)
    }

    #[test]
    fn semantic_invariants_are_enforced() {
        let seg = full_segment();
        // Header starts at magic(8) + version(2) + tag(1) + len(8) = byte 19.
        // kind byte:
        assert!(matches!(
            remut(&seg, |b| b[19] = 7),
            Err(CodecError::Malformed("segment kind out of range"))
        ));
        // epoch zero:
        assert!(matches!(
            remut(&seg, |b| b[20..28].fill(0)),
            Err(CodecError::Malformed("epoch zero"))
        ));
        // full segment claiming a base epoch:
        assert!(matches!(
            remut(&seg, |b| b[36] = 3),
            Err(CodecError::Malformed("full segment with a base epoch"))
        ));
    }

    #[test]
    fn disordered_rows_are_rejected() {
        let rows = sample_rows();
        let mut disordered = rows.clone();
        disordered.swap(0, 1);
        let seg = Segment {
            epoch: 2,
            ts: 120,
            payload: SegmentPayload::Full(disordered),
        };
        // encode_segment writes whatever order it is given; decode refuses.
        assert!(matches!(
            decode_segment(&encode_segment(&seg)),
            Err(CodecError::Malformed("rows out of order"))
        ));
    }

    #[test]
    fn manifests_roundtrip_and_validate() {
        let man = Manifest {
            entries: vec![
                ManifestEntry {
                    epoch: 1,
                    kind: SegmentKind::Full,
                    ts: 60,
                    bytes: 100,
                },
                ManifestEntry {
                    epoch: 2,
                    kind: SegmentKind::Delta,
                    ts: 120,
                    bytes: 40,
                },
                ManifestEntry {
                    epoch: 3,
                    kind: SegmentKind::Delta,
                    ts: 180,
                    bytes: 44,
                },
            ],
        };
        let bytes = encode_manifest(&man);
        let back = decode_manifest(&bytes).unwrap();
        assert_eq!(back, man);
        assert_eq!(encode_manifest(&back), bytes);
        assert_eq!(back.get(2).unwrap().kind, SegmentKind::Delta);
        assert_eq!(back.get(4), None);
        assert_eq!(back.last_epoch(), 3);

        // Empty manifest is valid.
        let empty = decode_manifest(&encode_manifest(&Manifest::default())).unwrap();
        assert!(empty.entries.is_empty());
        assert_eq!(empty.last_epoch(), 0);

        // Gap in epochs is rejected.
        let mut gapped = man.clone();
        gapped.entries[2].epoch = 5;
        assert!(matches!(
            decode_manifest(&encode_manifest(&gapped)),
            Err(CodecError::Malformed("entries not contiguous"))
        ));

        // First entry must be a keyframe.
        let mut headless = man;
        headless.entries[0].kind = SegmentKind::Delta;
        assert!(matches!(
            decode_manifest(&encode_manifest(&headless)),
            Err(CodecError::Malformed("first entry is not a keyframe"))
        ));
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(
            encode_segment(&full_segment()),
            encode_segment(&full_segment())
        );
        assert_eq!(
            encode_segment(&delta_segment()),
            encode_segment(&delta_segment())
        );
    }
}
