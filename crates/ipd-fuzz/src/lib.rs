//! Fuzz targets for every parser in the workspace that eats raw bytes off
//! the wire or off disk: NetFlow v5 datagrams, IPFIX messages (stateful —
//! template caches carry across messages), the write-ahead journal, the
//! serving layer's binary query protocol, the longitudinal store's
//! segment/manifest files (`IPDSEG1`/`IPDMAN1`), the spoof detector's
//! verdict/label records, and the flight recorder's dump codec (also
//! embedded in the serve protocol's `Dump` response).
//!
//! The target functions are plain `fn(&[u8])` so they can be driven two
//! ways:
//!
//! * **cargo-fuzz** (`fuzz/` at the repository root, excluded from the
//!   workspace): coverage-guided libFuzzer harnesses, one per target, for
//!   hosts with the nightly toolchain and `cargo-fuzz` installed.
//! * **the in-tree deterministic fuzzer** (`src/main.rs` here): a seeded
//!   mutation loop over the [`seed_corpus`] with no external dependencies,
//!   runnable in CI on any stable toolchain.
//!
//! The contract under test is *no panic, ever*: decoders must return
//! `Err`/torn-tail for damaged input, never abort. Cheap structural
//! invariants are asserted on the `Ok` paths so the fuzzer also catches
//! "successfully decoded garbage into impossible shapes".

use std::time::Instant;

use ipd::LogicalIngress;
use ipd_hist::codec::{
    decode_manifest, decode_segment, encode_manifest, encode_segment, Manifest, ManifestEntry,
    Segment, SegmentKind,
};
use ipd_hist::EpochImage;
use ipd_netflow::ipfix::{IpfixDecoder, IpfixExporter};
use ipd_netflow::v5::{decode as v5_decode, V5Exporter};
use ipd_netflow::FlowRecord;
use ipd_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, request_op, Request,
    Response, WireAnswer, MAX_BATCH,
};
use ipd_spoof::{decode_verdict, encode_verdict, Verdict, VerdictRecord};
use ipd_state::{parse_journal, JournalWriter};
use ipd_telemetry::{
    decode_events, encode_events, EventKind, FlightEvent, EVENT_WIRE_BYTES, MAX_DUMP_EVENTS,
};
use ipd_topology::{Bundle, IngressPoint};
use ipd_traffic::FlowLabel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// NetFlow v5 target: a single datagram through the stateless decoder.
pub fn fuzz_v5(data: &[u8]) {
    if let Ok(packet) = v5_decode(data, 1) {
        // v5 caps a datagram at 30 records; the header count must match
        // what was decoded, and every record must carry the router we gave.
        assert!(packet.records.len() <= 30, "v5 overlong packet");
        assert!(
            packet.records.iter().all(|r| r.router == 1),
            "v5 router id not applied"
        );
    }
}

/// IPFIX target: the input is split in two and fed as consecutive messages
/// to one decoder, so template registrations from the first message feed
/// data decoding in the second — the stateful path real collectors run.
pub fn fuzz_ipfix(data: &[u8]) {
    let mut decoder = IpfixDecoder::new();
    let cut = data.len() / 2;
    let _ = decoder.decode(&data[..cut], 1);
    if let Ok(msg) = decoder.decode(&data[cut..], 1) {
        assert!(
            msg.records.iter().all(|r| r.router == 1),
            "ipfix router id not applied"
        );
    }
    // Template accounting never goes backwards and never double-counts.
    assert!(
        decoder.templates_registered() >= decoder.template_count() as u64,
        "more live templates than registrations"
    );
}

/// Journal target: the byte image through the torn-tail-tolerant parser.
pub fn fuzz_journal(data: &[u8]) {
    if let Ok(contents) = parse_journal(data) {
        // Whole frames are 74 bytes after the 8-byte magic; the parser can
        // never produce more records than the image has room for.
        let max = (data.len().saturating_sub(8)) / ipd_state::journal::FRAME_LEN;
        assert!(
            contents.records.len() <= max,
            "journal decoded {} records from room for {max}",
            contents.records.len()
        );
    }
}

/// Serve query protocol target: the same bytes through both the request
/// and the response decoder (the two sides share the payload framing, so
/// one mutated input exercises both). Decoding is canonical — whatever
/// decodes must re-encode to exactly the input bytes — which turns the
/// fuzzer into a roundtrip oracle, not just a crash detector.
pub fn fuzz_proto(data: &[u8]) {
    if let Ok(req) = decode_request(data) {
        if let Request::Batch(addrs) = &req {
            assert!(addrs.len() <= MAX_BATCH, "oversized batch decoded");
        }
        assert_eq!(
            encode_request(&req),
            data,
            "request decode is not canonical"
        );
        // The op survives the roundtrip (a response echoes it).
        assert_eq!(request_op(&req), data[1], "request op not preserved");
    }
    if let Ok(resp) = decode_response(data) {
        if let Response::Answers { answers, .. } = &resp {
            assert!(answers.len() <= MAX_BATCH, "oversized answer set decoded");
        }
        // Re-encode under the original op byte: bit-identical, including
        // NaN/odd confidence bit patterns.
        assert_eq!(
            encode_response(&resp, data[1]),
            data,
            "response decode is not canonical"
        );
    }
}

/// Longitudinal-store codec target: the same bytes through the segment
/// (`IPDSEG1`) and manifest (`IPDMAN1`) decoders. Both are total and
/// canonical (DESIGN.md §13) — anything that decodes must re-encode to
/// exactly the input bytes, with every structural invariant (row order,
/// bundle-member order, host-bit-clean prefixes, delta base = epoch − 1,
/// manifest contiguity and leading keyframe) enforced on the way in. As
/// with `fuzz_proto`, the roundtrip makes this an oracle, not just a
/// crash detector.
pub fn fuzz_seg(data: &[u8]) {
    if let Ok(seg) = decode_segment(data) {
        assert!(seg.epoch >= 1, "segment with epoch zero decoded");
        assert_eq!(
            encode_segment(&seg),
            data,
            "segment decode is not canonical"
        );
    }
    if let Ok(man) = decode_manifest(data) {
        if let Some(first) = man.entries.first() {
            assert_eq!(
                first.kind,
                SegmentKind::Full,
                "manifest without a leading keyframe decoded"
            );
        }
        assert_eq!(
            encode_manifest(&man),
            data,
            "manifest decode is not canonical"
        );
    }
}

/// One decoded concurrent-store operation (see [`fuzz_lpm_ops`]). Public so
/// the seed encoder and the unit tests can speak the same 6-byte format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpmOp {
    Insert(ipd_lpm::Prefix, u32),
    Remove(ipd_lpm::Prefix),
    Lookup(ipd_lpm::Addr),
    Exact(ipd_lpm::Prefix),
}

/// Ops per trace cap: keeps worst-case fuzz iterations O(1) while still
/// letting traces grow the tree across strides and both families.
const MAX_LPM_OPS: usize = 512;

/// Decode one 6-byte frame `[op, len, a0, a1, a2, a3]` into an [`LpmOp`]:
/// bits 0–1 of `op` pick the verb, bit 2 the address family; `len` is
/// reduced mod (width + 1); the four address bytes are used verbatim for
/// IPv4 and tiled across the high bits for IPv6 so mutations reach deep
/// strides in both families.
pub fn decode_lpm_op(frame: &[u8; 6]) -> LpmOp {
    let [op, len, a0, a1, a2, a3] = *frame;
    let word = u32::from_be_bytes([a0, a1, a2, a3]);
    let addr = if op & 4 == 0 {
        ipd_lpm::Addr::v4(word)
    } else {
        let w = u128::from(word);
        ipd_lpm::Addr::v6((w << 96) | (w << 64) | (w << 32) | w)
    };
    let plen = len % (addr.af().width() + 1);
    let value = word ^ u32::from(len).rotate_left(16);
    match op & 3 {
        0 => LpmOp::Insert(ipd_lpm::Prefix::of(addr, plen), value),
        1 => LpmOp::Remove(ipd_lpm::Prefix::of(addr, plen)),
        2 => LpmOp::Lookup(addr),
        _ => LpmOp::Exact(ipd_lpm::Prefix::of(addr, plen)),
    }
}

/// Encode an op trace in the [`decode_lpm_op`] frame format — the seed-side
/// inverse, so the corpus starts from traces that decode into real work.
pub fn encode_lpm_ops(ops: &[(u8, u8, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ops.len() * 6);
    for &(op, len, word) in ops {
        out.push(op);
        out.push(len);
        out.extend_from_slice(&word.to_be_bytes());
    }
    out
}

/// Concurrent-store op-trace target: the input is a stream of 6-byte frames
/// (trailing partial frame ignored) decoded into insert/remove/lookup/exact
/// ops and replayed against a [`ConcurrentLpm`](ipd_lpm::ConcurrentLpm) and
/// an [`LpmTrie`](ipd_lpm::LpmTrie) oracle in lockstep. Every op's result
/// must agree — insert's was-new bit, remove's was-present bit, lookup's
/// (prefix, value), exact's value — plus `len()` after each op. At the end
/// the store's sorted rows must equal the trie's, and a
/// [`FlatLpm`](ipd_lpm::FlatLpm) built from the oracle must answer every
/// trace address identically to the concurrent store. This is the
/// single-threaded differential leg of the concurrent store's proof; the
/// interleaved leg lives in `ipd-lpm/tests/interleave.rs`.
pub fn fuzz_lpm_ops(data: &[u8]) {
    let store: ipd_lpm::ConcurrentLpm<u32> = ipd_lpm::ConcurrentLpm::new();
    let mut oracle: ipd_lpm::LpmTrie<u32> = ipd_lpm::LpmTrie::new();
    let mut upd = store.update();
    let mut probes = Vec::new();
    for frame in data.chunks_exact(6).take(MAX_LPM_OPS) {
        let op = decode_lpm_op(frame.try_into().expect("chunks_exact(6)"));
        match op {
            LpmOp::Insert(p, v) => {
                let was_new = upd.insert(p, v);
                assert_eq!(
                    was_new,
                    oracle.insert(p, v).is_none(),
                    "insert {p}: was-new bit diverged"
                );
                probes.push(p.addr());
            }
            LpmOp::Remove(p) => {
                assert_eq!(
                    upd.remove(p),
                    oracle.remove(p).is_some(),
                    "remove {p}: was-present bit diverged"
                );
                probes.push(p.addr());
            }
            LpmOp::Lookup(addr) => {
                assert_eq!(
                    store.lookup(addr).map(|(p, &v)| (p, v)),
                    oracle.lookup(addr).map(|(p, &v)| (p, v)),
                    "lookup {addr}: answers diverged"
                );
            }
            LpmOp::Exact(p) => {
                assert_eq!(
                    store.exact(p).copied(),
                    oracle.exact(p).copied(),
                    "exact {p}: answers diverged"
                );
            }
        }
        assert_eq!(store.len(), oracle.len(), "len diverged after {op:?}");
    }
    // Terminal state: rows bit-identical to the oracle, and the flat build
    // of the oracle answers every touched address like the live store.
    let mut rows = store.rows();
    rows.sort_by_key(|&(p, _)| p);
    let mut want: Vec<(ipd_lpm::Prefix, u32)> = oracle.iter().map(|(p, &v)| (p, v)).collect();
    want.sort_by_key(|&(p, _)| p);
    assert_eq!(rows, want, "terminal rows diverged from the oracle");
    let flat = ipd_lpm::FlatLpm::from_trie(&oracle);
    for addr in probes {
        assert_eq!(
            store.lookup(addr).map(|(p, &v)| (p, v)),
            flat.lookup(addr).map(|(p, &v)| (p, v)),
            "flat vs concurrent diverged at {addr}"
        );
    }
}

/// Verdict-record codec target: one buffer through the spoof detector's
/// verdict/label decoder. The codec is total and canonical (DESIGN.md §15)
/// — whatever decodes must re-encode to exactly the input bytes, with the
/// verdict and label codes surviving the trip through their public enums —
/// so, as with `fuzz_proto` and `fuzz_seg`, the roundtrip makes this an
/// oracle rather than just a crash detector.
pub fn fuzz_verdict(data: &[u8]) {
    if let Ok(rec) = decode_verdict(data) {
        assert_eq!(
            encode_verdict(&rec),
            data,
            "verdict decode is not canonical"
        );
        assert_eq!(
            Verdict::from_code(rec.verdict.code()),
            Some(rec.verdict),
            "verdict code does not roundtrip"
        );
        if let Some(label) = rec.label {
            assert_eq!(
                FlowLabel::from_code(label.code()),
                Some(label),
                "label code does not roundtrip"
            );
        }
    }
}

/// Flight-recorder dump codec target: one buffer through the telemetry
/// layer's event decoder. The codec is total and canonical — anything that
/// decodes must re-encode to exactly the input bytes, the declared count
/// must match the decoded length, and the event cap must hold — so, as
/// with the other codec targets, the roundtrip makes this an oracle.
pub fn fuzz_flight(data: &[u8]) {
    if let Ok(events) = decode_events(data) {
        assert!(events.len() <= MAX_DUMP_EVENTS, "oversized dump decoded");
        assert_eq!(
            data.len(),
            4 + events.len() * EVENT_WIRE_BYTES,
            "decoded length disagrees with the input size"
        );
        assert_eq!(
            encode_events(&events),
            data,
            "flight decode is not canonical"
        );
    }
}

/// A fuzz entry point: consumes arbitrary bytes, panics only on a bug.
pub type FuzzTarget = fn(&[u8]);

/// The targets by name, in the order `--target all` runs them.
pub const TARGETS: &[(&str, FuzzTarget)] = &[
    ("v5", fuzz_v5),
    ("ipfix", fuzz_ipfix),
    ("journal", fuzz_journal),
    ("proto", fuzz_proto),
    ("seg", fuzz_seg),
    ("lpm_ops", fuzz_lpm_ops),
    ("verdict", fuzz_verdict),
    ("flight", fuzz_flight),
];

/// Well-formed seed inputs for `target`, produced by the matching encoders
/// (the same test vectors the unit suites use). Mutations start from these
/// so the fuzzer reaches deep decode paths immediately instead of bouncing
/// off the magic/version checks.
pub fn seed_corpus(target: &str) -> Vec<Vec<u8>> {
    let flows: Vec<FlowRecord> = (0..40u32)
        .map(|i| {
            let src = if i % 5 == 4 {
                ipd_lpm::Addr::v6((0x2001_0db8u128 << 96) | (u128::from(i) << 40))
            } else {
                ipd_lpm::Addr::v4(0x0A00_0000 + i * 8191)
            };
            FlowRecord::synthetic(1_000 + u64::from(i), src, 1, (i % 3) as u16 + 1)
        })
        .collect();
    let v4_flows: Vec<FlowRecord> = flows
        .iter()
        .filter(|f| f.src.af() == ipd_lpm::Af::V4)
        .cloned()
        .collect();
    match target {
        "v5" => {
            // v5 is IPv4-only; three packets with different record counts.
            let mut exporter = V5Exporter::new(1, 7, 64, 900);
            let mut seeds = Vec::new();
            for chunk in v4_flows.chunks(13) {
                for gram in exporter.encode(2_000, chunk).expect("v4-only input") {
                    seeds.push(gram.to_vec());
                }
            }
            seeds
        }
        "ipfix" => {
            let mut exporter = IpfixExporter::new(0x99, 2);
            let mut seeds = Vec::new();
            // Several rounds so some seeds carry templates and some rely on
            // earlier ones — plus a template-refresh message.
            for chunk in flows.chunks(12) {
                for gram in exporter.encode(2_000, chunk) {
                    seeds.push(gram.to_vec());
                }
            }
            seeds
        }
        "journal" => {
            let dir = std::env::temp_dir().join("ipd-fuzz-seeds");
            std::fs::create_dir_all(&dir).expect("seed dir");
            let path = dir.join(format!("journal-seed-{}.ipdj", std::process::id()));
            let mut writer = JournalWriter::create(&path).expect("seed journal");
            writer.append_all(&flows).expect("append");
            writer.sync().expect("sync");
            let bytes = std::fs::read(&path).expect("read back");
            let _ = std::fs::remove_file(&path);
            // The full journal, a truncated (torn) one, and just the header.
            vec![
                bytes.clone(),
                bytes[..bytes.len() * 2 / 3].to_vec(),
                bytes[..8].to_vec(),
            ]
        }
        "proto" => {
            // Both sides of the wire, straight from the encoders: every op,
            // both address families, mapped and unmapped answers, and an
            // awkward confidence bit pattern.
            let addrs: Vec<ipd_lpm::Addr> = flows.iter().map(|f| f.src).collect();
            let answers = vec![
                WireAnswer::UNMAPPED,
                WireAnswer {
                    kind: ipd_serve::proto::AnswerKind::Link,
                    prefix_len: 24,
                    router: 30,
                    ifindex: 2,
                    confidence: 0.991,
                },
                WireAnswer {
                    kind: ipd_serve::proto::AnswerKind::Bundle,
                    prefix_len: 12,
                    router: 9,
                    ifindex: 1,
                    confidence: f64::from_bits(0x3FEF_FFFF_FFFF_FFFF),
                },
            ];
            vec![
                encode_request(&Request::Lookup(addrs[0])),
                encode_request(&Request::Lookup(addrs[4])),
                encode_request(&Request::Batch(addrs)),
                encode_request(&Request::Batch(Vec::new())),
                encode_request(&Request::Info),
                encode_request(&Request::Dump),
                encode_response(
                    &Response::Answers {
                        epoch: 12,
                        answers: answers.clone(),
                    },
                    2,
                ),
                encode_response(
                    &Response::Answers {
                        epoch: 1,
                        answers: answers[..1].to_vec(),
                    },
                    1,
                ),
                encode_response(
                    &Response::Info {
                        epoch: 9,
                        ts: 540,
                        entries: 131_072,
                        memory_bytes: 4_200_000,
                        garbage: 4_096,
                        rotations: 2,
                        age_nanos: 1_500_000_000,
                    },
                    3,
                ),
                encode_response(
                    &Response::Dump {
                        events: flight_events(),
                    },
                    7,
                ),
                encode_response(&Response::Dump { events: Vec::new() }, 7),
            ]
        }
        "seg" => {
            // The longitudinal store's two file kinds, straight from the
            // encoders: a keyframe with both ingress kinds and both address
            // families, a delta with removals and upserts, an empty
            // keyframe, manifests, and torn variants of each.
            let link = |r: u32, i: u16| LogicalIngress::Link(IngressPoint::new(r, i));
            let rows = vec![
                (
                    ipd_lpm::Prefix::of(ipd_lpm::Addr::v4(0x0A00_0000), 8),
                    link(1, 1),
                    0.97,
                ),
                (
                    ipd_lpm::Prefix::of(ipd_lpm::Addr::v4(0x0B40_0000), 12),
                    LogicalIngress::Bundle(Bundle::new(2, vec![3, 1, 9])),
                    0.76,
                ),
                (
                    ipd_lpm::Prefix::of(ipd_lpm::Addr::v6(0x2001_0db8u128 << 96), 32),
                    link(4, 7),
                    0.5,
                ),
            ];
            let prev = EpochImage::new(9, 540, rows.clone());
            let mut next_rows = rows;
            next_rows.remove(1);
            next_rows[0].2 = 0.5;
            next_rows.push((
                ipd_lpm::Prefix::of(ipd_lpm::Addr::v4(0xC000_0200), 24),
                link(8, 2),
                f64::from_bits(0x3FEF_FFFF_FFFF_FFFF),
            ));
            let next = EpochImage::new(10, 600, next_rows);
            let full = encode_segment(&Segment::full(&prev));
            let delta = encode_segment(&Segment::delta(&prev, &next));
            let man = encode_manifest(&Manifest {
                entries: vec![
                    ManifestEntry {
                        epoch: 9,
                        kind: SegmentKind::Full,
                        ts: 540,
                        bytes: full.len() as u64,
                    },
                    ManifestEntry {
                        epoch: 10,
                        kind: SegmentKind::Delta,
                        ts: 600,
                        bytes: delta.len() as u64,
                    },
                ],
            });
            vec![
                full.clone(),
                delta.clone(),
                encode_segment(&Segment::full(&EpochImage::new(1, 60, vec![]))),
                man.clone(),
                encode_manifest(&Manifest::default()),
                // Torn tails and a bare envelope — the recovery-path shapes.
                full[..full.len() * 2 / 3].to_vec(),
                delta[..19].to_vec(),
                man[..10].to_vec(),
            ]
        }
        "lpm_ops" => {
            // Op traces straight from the encoder: overlapping nested
            // prefixes in both families, insert/overwrite/remove cycles,
            // lookups between mutations, and a dense same-node cluster so
            // mutants immediately exercise bitmap transitions rather than
            // bouncing off empty trees. Frame: (op, len, addr-word).
            let ins4 = |len: u8, w: u32| (0u8, len, w);
            let rm4 = |len: u8, w: u32| (1u8, len, w);
            let get4 = |w: u32| (2u8, 0, w);
            let ins6 = |len: u8, w: u32| (4u8, len, w);
            vec![
                // Nested v4 chain root→/28 with lookups at every depth.
                encode_lpm_ops(&[
                    ins4(0, 0),
                    ins4(8, 0x0A00_0000),
                    ins4(12, 0x0A10_0000),
                    ins4(16, 0x0A10_8000),
                    ins4(24, 0x0A10_8200),
                    ins4(28, 0x0A10_8210),
                    get4(0x0A10_8213),
                    get4(0x0A10_8300),
                    get4(0x0B00_0000),
                    (3, 24, 0x0A10_8200), // exact hit
                    (3, 20, 0x0A10_8000), // exact miss
                ]),
                // Insert → overwrite → remove → reinsert on one prefix,
                // plus sibling fill inside a single stride-4 node.
                encode_lpm_ops(&[
                    ins4(24, 0xC0A8_0100),
                    ins4(24, 0xC0A8_0100),
                    get4(0xC0A8_01FF),
                    rm4(24, 0xC0A8_0100),
                    get4(0xC0A8_01FF),
                    ins4(26, 0xC0A8_0100),
                    ins4(26, 0xC0A8_0140),
                    ins4(26, 0xC0A8_0180),
                    ins4(26, 0xC0A8_01C0),
                    get4(0xC0A8_0155),
                    rm4(26, 0xC0A8_0140),
                    get4(0xC0A8_0155),
                    rm4(26, 0xC0A8_0140), // absent: no-op leg
                ]),
                // v6 tiling: words replicate across the address, so these
                // land in deep strides; mixed with v4 to hit both roots.
                encode_lpm_ops(&[
                    ins6(32, 0x2001_0db8),
                    ins6(48, 0x2001_0db8),
                    ins6(64, 0x2001_0db8),
                    (6, 0, 0x2001_0db8), // v6 lookup
                    ins4(8, 0x7F00_0000),
                    (6, 0, 0xdead_beef),
                    (5, 48, 0x2001_0db8), // v6 remove
                    (6, 0, 0x2001_0db8),
                    (7, 64, 0x2001_0db8), // v6 exact
                ]),
            ]
        }
        "verdict" => {
            // Straight from the encoder: both families, every verdict, every
            // label plus unlabeled, boundary timestamps/epochs — and torn
            // tails so mutants hit the truncation paths immediately.
            let rec = |ts, src, verdict, label, epoch| {
                encode_verdict(&VerdictRecord {
                    ts,
                    src,
                    observed: IngressPoint::new(30, 2),
                    verdict,
                    label,
                    epoch,
                })
            };
            let v4 = ipd_lpm::Addr::v4(0x1600_0001);
            let v6 = ipd_lpm::Addr::v6(0x2001_0db8u128 << 96);
            let full = rec(
                u64::MAX,
                v6,
                Verdict::CatchmentShift,
                Some(FlowLabel::Shift),
                u64::MAX,
            );
            vec![
                rec(1_700_000_000, v4, Verdict::Consistent, None, 1),
                rec(
                    1_700_000_060,
                    v4,
                    Verdict::Spoofed,
                    Some(FlowLabel::Spoofed),
                    7,
                ),
                rec(0, v6, Verdict::Consistent, Some(FlowLabel::Legit), 0),
                full.clone(),
                full[..full.len() - 7].to_vec(),
                full[..3].to_vec(),
            ]
        }
        "flight" => {
            // Straight from the encoder: a populated dump (every defined
            // kind plus an unknown one, boundary field values), an empty
            // dump, and torn/lying-count variants so mutants hit the exact
            // length accounting immediately.
            let full = encode_events(&flight_events());
            let empty = encode_events(&[]);
            let mut lying = 5u32.to_le_bytes().to_vec();
            lying.extend_from_slice(&full[4..4 + EVENT_WIRE_BYTES]);
            vec![
                full.clone(),
                empty,
                full[..full.len() - 11].to_vec(),
                full[..3].to_vec(),
                lying,
            ]
        }
        other => {
            panic!(
                "unknown fuzz target {other:?} (want v5|ipfix|journal|proto|seg|lpm_ops|verdict|flight)"
            )
        }
    }
}

/// Seed flight events shared by the `flight` and `proto` corpora: every
/// defined kind, one unknown kind (decoding is total over `u8`), and
/// boundary field values.
fn flight_events() -> Vec<FlightEvent> {
    let mut events: Vec<FlightEvent> = [
        EventKind::EpochPublished,
        EventKind::DeltaApplied,
        EventKind::Rotation,
        EventKind::HistAppend,
        EventKind::Compaction,
        EventKind::ShardTick,
        EventKind::ChurnBurst,
        EventKind::SpoofSummary,
        EventKind::Stall,
    ]
    .iter()
    .enumerate()
    .map(|(i, &kind)| FlightEvent {
        kind: kind as u8,
        seq: i as u64,
        ts: 60 * (i as u64 + 1),
        a: i as u64,
        b: u64::from(u32::MAX) + i as u64,
        c: i as u64 * 7,
    })
    .collect();
    events.push(FlightEvent {
        kind: 0xEE,
        seq: u64::MAX,
        ts: u64::MAX,
        a: 0,
        b: u64::MAX,
        c: 1,
    });
    events
}

/// Corpus size cap for the deterministic driver: interesting mutants are
/// kept and remixed, but the pool never grows past this, so long runs stay
/// O(1) in memory.
const MAX_CORPUS: usize = 512;

/// One mutation of `base`: bit flips, byte sets, truncation, extension, a
/// splice from another corpus entry, or a length-field-sized overwrite.
/// Mirrors what libFuzzer's default mutator does, minus coverage feedback.
pub fn mutate(rng: &mut StdRng, base: &[u8], other: &[u8]) -> Vec<u8> {
    let mut out = base.to_vec();
    match rng.random_range(0u32..6) {
        // Flip 1..=8 random bits.
        0 => {
            if !out.is_empty() {
                for _ in 0..rng.random_range(1usize..=8) {
                    let i = rng.random_range(0..out.len());
                    out[i] ^= 1 << rng.random_range(0u32..8);
                }
            }
        }
        // Overwrite a random byte with a boundary-ish value.
        1 => {
            if !out.is_empty() {
                let i = rng.random_range(0..out.len());
                out[i] = [0x00u8, 0x01, 0x7F, 0x80, 0xFF, 0x09, 0x0A][rng.random_range(0usize..7)];
            }
        }
        // Truncate to a random prefix (torn input).
        2 => {
            if !out.is_empty() {
                out.truncate(rng.random_range(0..out.len()));
            }
        }
        // Extend with random bytes.
        3 => {
            for _ in 0..rng.random_range(1usize..=64) {
                out.push(rng.random_range(0u32..256) as u8);
            }
        }
        // Splice: prefix of this + suffix of another entry.
        4 => {
            let cut_a = if out.is_empty() {
                0
            } else {
                rng.random_range(0..=out.len())
            };
            let cut_b = if other.is_empty() {
                0
            } else {
                rng.random_range(0..other.len())
            };
            out.truncate(cut_a);
            out.extend_from_slice(&other[cut_b..]);
        }
        // Overwrite a u16/u32-sized window — hits length/count fields.
        _ => {
            let width = if rng.random_range(0u32..2) == 0 { 2 } else { 4 };
            if out.len() >= width {
                let i = rng.random_range(0..=out.len() - width);
                for b in &mut out[i..i + width] {
                    *b = rng.random_range(0u32..256) as u8;
                }
            }
        }
    }
    out
}

/// Tiny stable string hash so each target gets a distinct PRNG stream from
/// the same `--seed`.
fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run the seeded mutation loop for one named target: the seed corpus
/// first, then mutants until `iters` iterations or `deadline`, whichever
/// is given. Returns the number of mutated iterations executed. Any panic
/// in the target propagates — a finding, reproducible from (`name`,
/// `seed`).
pub fn run_target(name: &str, seed: u64, iters: u64, deadline: Option<Instant>) -> u64 {
    let target = TARGETS
        .iter()
        .find(|&&(n, _)| n == name)
        .unwrap_or_else(|| panic!("unknown fuzz target {name:?}"))
        .1;
    let mut rng = StdRng::seed_from_u64(seed ^ fxhash(name));
    let mut corpus = seed_corpus(name);
    for input in &corpus {
        target(input);
    }
    let mut done = 0u64;
    loop {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                break;
            }
        } else if done >= iters {
            break;
        }
        let a = rng.random_range(0..corpus.len());
        let b = rng.random_range(0..corpus.len());
        let mutant = mutate(&mut rng, &corpus[a], &corpus[b]);
        target(&mutant);
        // Keep a sample of mutants so later mutations stack damage; replace
        // a random slot once the pool is full.
        if corpus.len() < MAX_CORPUS {
            corpus.push(mutant);
        } else if rng.random_range(0u32..16) == 0 {
            let slot = rng.random_range(0..corpus.len());
            corpus[slot] = mutant;
        }
        done += 1;
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_exist_and_run_clean() {
        for &(name, target) in TARGETS {
            let seeds = seed_corpus(name);
            assert!(!seeds.is_empty(), "{name}: empty seed corpus");
            for seed in &seeds {
                target(seed);
            }
        }
    }

    #[test]
    fn v5_seeds_actually_decode() {
        for seed in seed_corpus("v5") {
            let packet = v5_decode(&seed, 1).expect("seed must be well-formed");
            assert!(!packet.records.is_empty());
        }
    }

    #[test]
    fn seg_seeds_cover_both_file_kinds() {
        let seeds = seed_corpus("seg");
        let segments = seeds.iter().filter(|s| decode_segment(s).is_ok()).count();
        let manifests = seeds.iter().filter(|s| decode_manifest(s).is_ok()).count();
        assert!(segments >= 3, "want full + delta + empty segment seeds");
        assert!(manifests >= 2, "want populated + empty manifest seeds");
        // The torn variants must be rejected, not decoded.
        assert!(
            segments + manifests < seeds.len(),
            "every seed decoded — torn seeds missing"
        );
    }

    #[test]
    fn verdict_seeds_cover_the_record_space() {
        let seeds = seed_corpus("verdict");
        let decoded: Vec<VerdictRecord> = seeds
            .iter()
            .filter_map(|s| decode_verdict(s).ok())
            .collect();
        assert!(decoded.len() >= 4, "want one seed per verdict and family");
        assert!(
            decoded.iter().any(|r| r.src.af() == ipd_lpm::Af::V6)
                && decoded.iter().any(|r| r.src.af() == ipd_lpm::Af::V4),
            "seed corpus misses an address family"
        );
        assert!(
            decoded.iter().any(|r| r.label.is_none()) && decoded.iter().any(|r| r.label.is_some()),
            "seed corpus misses the labeled or unlabeled shape"
        );
        // The torn variants must be rejected, not decoded.
        assert!(
            decoded.len() < seeds.len(),
            "every seed decoded — torn seeds missing"
        );
    }

    #[test]
    fn lpm_op_decoder_covers_every_verb_and_family() {
        let seeds = seed_corpus("lpm_ops");
        let mut verbs = [false; 4];
        let mut v6 = false;
        for seed in &seeds {
            for frame in seed.chunks_exact(6) {
                let op = decode_lpm_op(frame.try_into().unwrap());
                match op {
                    LpmOp::Insert(p, _) | LpmOp::Remove(p) | LpmOp::Exact(p) => {
                        verbs[match op {
                            LpmOp::Insert(..) => 0,
                            LpmOp::Remove(..) => 1,
                            _ => 3,
                        }] = true;
                        v6 |= p.af() == ipd_lpm::Af::V6;
                    }
                    LpmOp::Lookup(a) => {
                        verbs[2] = true;
                        v6 |= a.af() == ipd_lpm::Af::V6;
                    }
                }
            }
        }
        assert_eq!(verbs, [true; 4], "seed corpus misses a verb");
        assert!(v6, "seed corpus never reaches IPv6");
    }

    #[test]
    fn lpm_ops_mutants_run_clean() {
        // A short in-test mutation burst so the differential harness itself
        // is exercised on garbage frames, not just on well-formed seeds.
        run_target("lpm_ops", 7, 400, None);
    }

    #[test]
    fn flight_seeds_cover_codec_edges() {
        let seeds = seed_corpus("flight");
        let decoded: Vec<Vec<FlightEvent>> =
            seeds.iter().filter_map(|s| decode_events(s).ok()).collect();
        assert!(
            decoded.iter().any(|d| d.len() >= 9),
            "want a full-dump seed"
        );
        assert!(decoded.iter().any(|d| d.is_empty()), "want an empty seed");
        assert!(
            decoded.iter().flatten().any(|e| e.kind == 0xEE),
            "want an unknown-kind event (decoding is total over u8)"
        );
        // The torn and lying-count variants must be rejected, not decoded.
        assert!(
            decoded.len() < seeds.len(),
            "every seed decoded — torn seeds missing"
        );
    }

    #[test]
    #[should_panic(expected = "unknown fuzz target")]
    fn unknown_target_panics() {
        seed_corpus("nope");
    }
}
