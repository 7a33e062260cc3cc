//! Flight recorder: an always-on, fixed-size, lock-free ring of structured
//! binary events — the postmortem layer the `trace` feature (format-on-emit,
//! off by default) cannot provide.
//!
//! Every live [`crate::Telemetry`] registry owns one ring
//! ([`crate::Telemetry::flight`]); a disabled registry hands out no-op
//! recorders, so the inertness contract extends to the recorder unchanged.
//! Writers take a ticket with one `fetch_add` and publish into its slot
//! under a per-slot seqlock (sequence odd while the write is in flight,
//! even once stable), entered with a compare-exchange so that at most one
//! writer is ever in a slot; when the ring wraps, the oldest events are
//! overwritten — the recorder keeps the *last* [`FLIGHT_CAPACITY`] events,
//! always. Readers ([`FlightRecorder::dump`]) skip slots whose write is in
//! flight and sort the survivors by sequence number, oldest first. Every
//! field is an atomic: a torn read is impossible by construction, the
//! seqlock only guards against *mixed* reads (fields from two different
//! events in one decoded record).
//!
//! Events are 5-tuple payloads `(kind, ts, a, b, c)` — the meaning of
//! `ts`/`a`/`b`/`c` is per-kind (see [`EventKind`]). The wire codec
//! ([`encode_events`]/[`decode_events`]) is total and canonical: any
//! payload that decodes re-encodes to the same bytes, which is what the
//! `fuzz_flight` target asserts.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

/// Ring capacity in events (power of two; ~160 KiB of atomics).
pub const FLIGHT_CAPACITY: usize = 4096;

/// Hard cap on events in one encoded dump — bounds the allocation a
/// malicious or corrupt frame can demand from [`decode_events`].
pub const MAX_DUMP_EVENTS: usize = 65_536;

/// Bytes per encoded event: kind u8 + seq/ts/a/b/c as u64 LE.
pub const EVENT_WIRE_BYTES: usize = 1 + 8 * 5;

/// Well-known event kinds. The wire format carries a raw `u8` so decoding
/// is total (unknown kinds round-trip untouched and render as `kind=N`);
/// this enum only names the codes the system emits today.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A fresh epoch became visible to readers.
    /// `ts`=bucket-close flow time, `a`=epoch, `b`=changes applied, `c`=store entries.
    EpochPublished = 1,
    /// A per-bucket delta was applied to the live store.
    /// `ts`=bucket-close flow time, `a`=epoch, `b`=change count, `c`=garbage rows.
    DeltaApplied = 2,
    /// The live store was rebuilt to shed garbage.
    /// `ts`=bucket-close flow time, `a`=epoch, `b`=garbage shed, `c`=entries kept.
    Rotation = 3,
    /// An epoch was persisted to the longitudinal store.
    /// `ts`=epoch flow time, `a`=epoch, `b`=segment count, `c`=bytes on disk.
    HistAppend = 4,
    /// A delta run was folded into a keyframe.
    /// `ts`=wall seconds, `a`=last epoch, `b`=segments before, `c`=segments after.
    Compaction = 5,
    /// The engine finished a tick.
    /// `ts`=bucket-close flow time, `a`=newly classified, `b`=live ranges,
    /// `c`=classified ranges.
    ShardTick = 6,
    /// A delta larger than the churn-burst threshold was applied.
    /// `ts`=bucket-close flow time, `a`=epoch, `b`=change count, `c`=threshold.
    ChurnBurst = 7,
    /// Spoof verdict counts over a reporting window.
    /// `ts`=flow time, `a`=consistent, `b`=spoofed, `c`=catchment shifts.
    SpoofSummary = 8,
    /// A stage stopped making progress while its upstream advanced.
    /// `ts`=upstream flow time, `a`=stage index, `b`=stage flow time, `c`=stage updates.
    Stall = 9,
}

impl EventKind {
    /// Human-readable name for a raw kind byte.
    pub fn name(code: u8) -> &'static str {
        match code {
            1 => "epoch_published",
            2 => "delta_applied",
            3 => "rotation",
            4 => "hist_append",
            5 => "compaction",
            6 => "shard_tick",
            7 => "churn_burst",
            8 => "spoof_summary",
            9 => "stall",
            _ => "unknown",
        }
    }
}

/// One recorded event. `seq` is the global record order (0-based ticket);
/// after the ring wraps, dumps contain the last [`FLIGHT_CAPACITY`]
/// sequence numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    pub kind: u8,
    pub seq: u64,
    pub ts: u64,
    pub a: u64,
    pub b: u64,
    pub c: u64,
}

#[derive(Debug, Default)]
struct Slot {
    /// Seqlock word: 0 = never written, `2*ticket+1` = write in flight,
    /// `2*(ticket+1)` = stable content for `ticket`.
    seq: AtomicU64,
    kind: AtomicU64,
    ts: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

#[derive(Debug)]
pub(crate) struct FlightRing {
    cursor: AtomicU64,
    slots: Box<[Slot]>,
}

impl FlightRing {
    pub(crate) fn new() -> Self {
        Self::with_capacity(FLIGHT_CAPACITY)
    }

    fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        let slots: Vec<Slot> = (0..capacity).map(|_| Slot::default()).collect();
        FlightRing {
            cursor: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    fn record(&self, kind: u8, ts: u64, a: u64, b: u64, c: u64) {
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        // Claim the slot from a stable state: two writers whose tickets are
        // a ring length apart share a slot, and interleaved field stores
        // under one even sequence would be a mixed read. A writer in flight
        // is waited out; a newer event already in the slot wins, and this
        // older one is dropped.
        let mut seq = slot.seq.load(Ordering::Relaxed);
        loop {
            if seq % 2 == 1 {
                std::hint::spin_loop();
                seq = slot.seq.load(Ordering::Relaxed);
                continue;
            }
            if seq > 2 * ticket {
                return;
            }
            match slot.seq.compare_exchange_weak(
                seq,
                2 * ticket + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => seq = now,
            }
        }
        fence(Ordering::Release);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.c.store(c, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.seq.store(2 * (ticket + 1), Ordering::Release);
    }

    fn dump(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or write in flight right now
            }
            let kind = slot.kind.load(Ordering::Relaxed);
            let ts = slot.ts.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let c = slot.c.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 != s2 {
                continue; // overwritten mid-read; its successor will show up
            }
            out.push(FlightEvent {
                kind: kind as u8,
                seq: s1 / 2 - 1,
                ts,
                a,
                b,
                c,
            });
        }
        out.sort_by_key(|e| e.seq);
        out
    }
}

/// Handle to a flight-recorder ring. Cloning shares the ring; the disabled
/// handle is a one-branch no-op. Obtain via [`crate::Telemetry::flight`].
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder(pub(crate) Option<Arc<FlightRing>>);

impl FlightRecorder {
    /// A no-op handle.
    pub fn disabled() -> Self {
        FlightRecorder(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record one event (lock-free, ~one `fetch_add` plus six stores).
    pub fn record(&self, kind: EventKind, ts: u64, a: u64, b: u64, c: u64) {
        if let Some(ring) = &self.0 {
            ring.record(kind as u8, ts, a, b, c);
        }
    }

    /// Total events ever recorded (including ones the ring has since
    /// overwritten); 0 if disabled.
    pub fn recorded(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |r| r.cursor.load(Ordering::Relaxed))
    }

    /// All currently held events, oldest first. Slots with a write in
    /// flight are skipped, never blocked on.
    pub fn dump(&self) -> Vec<FlightEvent> {
        self.0.as_ref().map_or_else(Vec::new, |r| r.dump())
    }

    /// The last `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<FlightEvent> {
        let mut events = self.dump();
        if events.len() > n {
            events.drain(..events.len() - n);
        }
        events
    }
}

/// Encode a batch of events: `[count: u32 LE]` then [`EVENT_WIRE_BYTES`]
/// per event (`kind u8`, then `seq`/`ts`/`a`/`b`/`c` as u64 LE).
pub fn encode_events(events: &[FlightEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + events.len() * EVENT_WIRE_BYTES);
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for e in events {
        out.push(e.kind);
        out.extend_from_slice(&e.seq.to_le_bytes());
        out.extend_from_slice(&e.ts.to_le_bytes());
        out.extend_from_slice(&e.a.to_le_bytes());
        out.extend_from_slice(&e.b.to_le_bytes());
        out.extend_from_slice(&e.c.to_le_bytes());
    }
    out
}

/// Decode error for [`decode_events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightCodecError {
    /// Input shorter than the count header.
    Truncated,
    /// Count exceeds [`MAX_DUMP_EVENTS`].
    TooManyEvents(u32),
    /// Input length is not exactly `4 + 41 * count`.
    LengthMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for FlightCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightCodecError::Truncated => write!(f, "input shorter than the count header"),
            FlightCodecError::TooManyEvents(n) => {
                write!(f, "count {n} exceeds the {MAX_DUMP_EVENTS} event cap")
            }
            FlightCodecError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "expected {expected} bytes for the declared count, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for FlightCodecError {}

/// Decode a batch encoded by [`encode_events`]. Total and canonical: every
/// accepted input re-encodes to exactly the input bytes (all field values
/// are free u8/u64s; only the framing is constrained), and length/count
/// bounds are checked before any allocation.
pub fn decode_events(data: &[u8]) -> Result<Vec<FlightEvent>, FlightCodecError> {
    if data.len() < 4 {
        return Err(FlightCodecError::Truncated);
    }
    let count = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    if count as usize > MAX_DUMP_EVENTS {
        return Err(FlightCodecError::TooManyEvents(count));
    }
    let expected = 4 + count as usize * EVENT_WIRE_BYTES;
    if data.len() != expected {
        return Err(FlightCodecError::LengthMismatch {
            expected,
            got: data.len(),
        });
    }
    let mut events = Vec::with_capacity(count as usize);
    let mut off = 4usize;
    let u64_at = |off: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&data[off..off + 8]);
        u64::from_le_bytes(b)
    };
    for _ in 0..count {
        events.push(FlightEvent {
            kind: data[off],
            seq: u64_at(off + 1),
            ts: u64_at(off + 9),
            a: u64_at(off + 17),
            b: u64_at(off + 25),
            c: u64_at(off + 33),
        });
        off += EVENT_WIRE_BYTES;
    }
    Ok(events)
}

/// Render events as one line each (`seq kind ts a b c`), for stderr dumps
/// and `ipd-tool` output.
pub fn render_events(events: &[FlightEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for e in events {
        let _ = writeln!(
            out,
            "#{:<8} {:<16} ts={} a={} b={} c={}",
            e.seq,
            EventKind::name(e.kind),
            e.ts,
            e.a,
            e.b,
            e.c
        );
    }
    out
}

/// Install a panic hook that dumps the recorder tail to stderr before the
/// default hook runs. The first installed recorder wins (one process-wide
/// hook); later calls are no-ops. Disabled recorders install nothing.
pub fn install_panic_dump(recorder: &FlightRecorder) {
    static HOOKED: Once = Once::new();
    static RECORDER: OnceLock<Mutex<FlightRecorder>> = OnceLock::new();
    if !recorder.is_enabled() {
        return;
    }
    let _ = RECORDER.set(Mutex::new(recorder.clone()));
    HOOKED.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(slot) = RECORDER.get() {
                if let Ok(rec) = slot.lock() {
                    let tail = rec.tail(64);
                    if !tail.is_empty() {
                        eprintln!("== flight recorder (last {} events) ==", tail.len());
                        eprint!("{}", render_events(&tail));
                    }
                }
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live() -> FlightRecorder {
        FlightRecorder(Some(Arc::new(FlightRing::new())))
    }

    #[test]
    fn records_and_dumps_in_order() {
        let r = live();
        r.record(EventKind::EpochPublished, 60, 1, 10, 100);
        r.record(EventKind::DeltaApplied, 120, 2, 20, 200);
        r.record(EventKind::Rotation, 180, 3, 30, 300);
        let events = r.dump();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(events[0].kind, EventKind::EpochPublished as u8);
        assert_eq!(events[1].ts, 120);
        assert_eq!(events[2].c, 300);
        assert_eq!(r.recorded(), 3);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = FlightRecorder(Some(Arc::new(FlightRing::with_capacity(8))));
        for i in 0..20u64 {
            r.record(EventKind::ShardTick, i, i, 0, 0);
        }
        let events = r.dump();
        assert_eq!(events.len(), 8);
        // The last 8 tickets survive, oldest first.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (12..20).collect::<Vec<_>>()
        );
        assert_eq!(r.recorded(), 20);
        assert_eq!(
            r.tail(3).iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![17, 18, 19]
        );
    }

    #[test]
    fn disabled_is_inert() {
        let r = FlightRecorder::disabled();
        r.record(EventKind::Stall, 1, 2, 3, 4);
        assert_eq!(r.recorded(), 0);
        assert!(r.dump().is_empty());
        assert!(!r.is_enabled());
    }

    #[test]
    fn codec_roundtrips() {
        let events = vec![
            FlightEvent {
                kind: 1,
                seq: 0,
                ts: 60,
                a: 1,
                b: 2,
                c: 3,
            },
            FlightEvent {
                kind: 255, // unknown kinds round-trip untouched
                seq: u64::MAX,
                ts: 0,
                a: u64::MAX,
                b: 42,
                c: 7,
            },
        ];
        let bytes = encode_events(&events);
        assert_eq!(bytes.len(), 4 + 2 * EVENT_WIRE_BYTES);
        assert_eq!(decode_events(&bytes).unwrap(), events);
        assert_eq!(decode_events(&encode_events(&[])).unwrap(), vec![]);
    }

    #[test]
    fn codec_is_canonical() {
        // Arbitrary well-framed bytes decode and re-encode bit-identically.
        let mut data = vec![2, 0, 0, 0];
        data.extend((0..2 * EVENT_WIRE_BYTES).map(|i| (i * 37 % 251) as u8));
        let events = decode_events(&data).unwrap();
        assert_eq!(encode_events(&events), data);
    }

    #[test]
    fn codec_rejects_bad_framing() {
        assert_eq!(decode_events(&[1, 2]), Err(FlightCodecError::Truncated));
        assert_eq!(
            decode_events(&u32::MAX.to_le_bytes()),
            Err(FlightCodecError::TooManyEvents(u32::MAX))
        );
        let mut short = vec![1, 0, 0, 0];
        short.extend_from_slice(&[0u8; EVENT_WIRE_BYTES - 1]);
        assert!(matches!(
            decode_events(&short),
            Err(FlightCodecError::LengthMismatch { .. })
        ));
        let mut long = vec![0, 0, 0, 0];
        long.push(9);
        assert!(matches!(
            decode_events(&long),
            Err(FlightCodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn concurrent_writers_never_produce_mixed_reads() {
        let r = FlightRecorder(Some(Arc::new(FlightRing::with_capacity(16))));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    // Each writer tags every field with its thread id so a
                    // mixed read is detectable.
                    r.record(EventKind::ShardTick, t, t, t, t);
                    if i % 64 == 0 {
                        for e in r.dump() {
                            assert_eq!(e.ts, e.a);
                            assert_eq!(e.a, e.b);
                            assert_eq!(e.b, e.c);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.recorded(), 8_000);
    }

    #[test]
    fn render_names_known_kinds() {
        let text = render_events(&[
            FlightEvent {
                kind: 3,
                seq: 5,
                ts: 1,
                a: 2,
                b: 3,
                c: 4,
            },
            FlightEvent {
                kind: 200,
                seq: 6,
                ts: 0,
                a: 0,
                b: 0,
                c: 0,
            },
        ]);
        assert!(text.contains("rotation"));
        assert!(text.contains("unknown"));
    }
}
