//! Differential correctness of the serving layer: for a generated flow
//! trace, the published [`LiveStore`] at **every** epoch boundary is
//! bit-identical to the engine's own snapshot trie at the same bucket
//! boundary — including on a route-churned stream and in the all-unmapped
//! case, and for publishers that skip crossings
//! (first publishing after silent ones, or only at the close). A separate
//! test keeps reader threads querying *during* `ServePublisher::closed()` —
//! with the store's yield hook armed so the apply window is stretched
//! across thousands of scheduling points — and asserts every answer belongs
//! to a published state within the epoch window the reader observed. Under the old
//! whole-store swap that contract held vacuously; under in-place
//! publication this test pins it end to end (the schedule-exhaustive
//! no-torn-reads proof lives in the `ipd-lpm` interleaving harness).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ipd::pipeline::{run_offline_with, BucketClock, PipelineHook};
use ipd::{IpdEngine, IpdParams, LogicalIngress, Snapshot};
use ipd_lpm::{Addr, Prefix};
use ipd_netflow::FlowRecord;
use ipd_serve::{EpochSwap, IngressStore, LiveStore, ServePublisher};
use ipd_traffic::{FlowSim, SimConfig, World, WorldConfig};

/// A trace with enough concentration to classify ranges at several ingress
/// points, across both address families (the simulator emits v4 and v6).
fn trace(minutes: u64) -> Vec<FlowRecord> {
    let world = World::generate(WorldConfig::default(), 42);
    let mut sim = FlowSim::new(
        world,
        SimConfig {
            flows_per_minute: 3_000,
            seed: 7,
            ..SimConfig::default()
        },
    );
    let mut out = Vec::new();
    for _ in 0..minutes {
        out.extend(sim.next_minute().flows.into_iter().map(|lf| lf.flow));
    }
    out
}

fn classify_params() -> IpdParams {
    IpdParams {
        // 3k flows/min over /0 needs a small threshold factor to classify.
        ncidr_factor_v4: 64.0 / 32.0e6 * 3_000.0,
        ncidr_factor_v6: 1e-12,
        ..IpdParams::default()
    }
}

/// One publication boundary, captured while the pipeline is quiescent: the
/// engine's own snapshot (the reference) and the live store's epoch stamp
/// plus fully materialised rows. The store mutates in place, so holding a
/// pointer to it would alias every later epoch — the rows must be copied
/// out at the boundary.
struct EpochCapture {
    snapshot: Snapshot,
    epoch: u64,
    ts: u64,
    rows: Vec<(Prefix, LogicalIngress, f64)>,
}

/// Which boundaries a [`CaptureHook`] publishes at. Every hook publishes
/// at the close; the engine ticks at every crossing regardless.
#[derive(Debug, Clone, Copy)]
enum Schedule {
    /// Every crossing — `ipd-tool serve` over a trace.
    Every,
    /// Silent through the first `k` crossings, then every one — a warm-up
    /// whose map is first published late.
    AfterSilent(usize),
    /// Only at the close — a frozen map, as `serve --from-checkpoint`
    /// publishes once from a state it never published before.
    CloseOnly,
}

/// Rides alongside [`ServePublisher`] and captures every publication point.
struct CaptureHook {
    publisher: ServePublisher,
    swap: EpochSwap<LiveStore>,
    epochs: Vec<EpochCapture>,
    schedule: Schedule,
    crossings: usize,
}

impl CaptureHook {
    fn new(schedule: Schedule) -> Self {
        let publisher = ServePublisher::new();
        let swap = publisher.swap();
        CaptureHook {
            publisher,
            swap,
            epochs: Vec::new(),
            schedule,
            crossings: 0,
        }
    }

    fn capture(&mut self, engine: &IpdEngine, ts: u64) {
        let current = self.swap.load();
        self.epochs.push(EpochCapture {
            snapshot: engine.classified_snapshot(ts),
            epoch: current.value.epoch(),
            ts: current.value.ts(),
            rows: current.value.rows(),
        });
    }
}

impl PipelineHook for CaptureHook {
    fn bucket_crossed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        self.crossings += 1;
        let publish = match self.schedule {
            Schedule::Every => true,
            Schedule::AfterSilent(k) => self.crossings > k,
            Schedule::CloseOnly => false,
        };
        if !publish {
            return;
        }
        self.publisher.bucket_crossed(engine, clock);
        let ts = clock
            .current_bucket
            .map_or(0, |b| b * engine.params().t_secs);
        self.capture(engine, ts);
    }

    fn closed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        self.publisher.closed(engine, clock);
        let ts = clock
            .current_bucket
            .map_or(0, |b| (b + 1) * engine.params().t_secs);
        self.capture(engine, ts);
    }
}

/// Probe set: every range boundary of the snapshot plus a deterministic
/// spray of both families (hits, near-misses, and far misses).
fn probes(snapshot: &Snapshot) -> Vec<Addr> {
    let mut addrs = Vec::new();
    for r in &snapshot.records {
        addrs.push(r.range.first_addr());
        addrs.push(r.range.last_addr());
    }
    let mut x = 0x2545_F491u32;
    for _ in 0..4_000 {
        x = x.wrapping_mul(0x6C07_8965).wrapping_add(1);
        addrs.push(Addr::v4(x));
    }
    for i in 0..500u128 {
        addrs.push(Addr::v6((0x2001u128 << 112) | (i * 0x0001_0001_0001)));
        addrs.push(Addr::v6(i << 64));
    }
    addrs
}

/// The differential proper: at every published epoch boundary, the store
/// and the snapshot's trie agree on every row and every probe — same range,
/// same ingress, and the confidence travels with its exact bit pattern.
fn assert_epochs_identical(epochs: &[EpochCapture]) {
    assert!(!epochs.is_empty(), "at least the close publication exists");
    for (i, cap) in epochs.iter().enumerate() {
        assert_eq!(cap.epoch, i as u64 + 1, "one epoch per publication");
        assert_eq!(cap.ts, cap.snapshot.ts, "store stamped with the boundary");
        // Row-level bit identity against the snapshot's classified set.
        let mut want: Vec<(Prefix, &LogicalIngress, u64)> = cap
            .snapshot
            .classified()
            .filter_map(|r| {
                r.ingress
                    .as_ref()
                    .map(|ing| (r.range, ing, r.confidence.to_bits()))
            })
            .collect();
        want.sort_by_key(|&(p, _, _)| p);
        assert_eq!(cap.rows.len(), want.len(), "row count at epoch {}", i + 1);
        for ((gp, gi, gc), (wp, wi, wc)) in cap.rows.iter().zip(&want) {
            assert_eq!((gp, &gi), (wp, wi), "row mismatch at epoch {}", i + 1);
            assert_eq!(gc.to_bits(), *wc, "confidence bits for {gp}");
        }
        // Lookup-level identity: the materialised rows answer every probe
        // like the snapshot's own trie.
        let store = IngressStore::from_rows(cap.ts, cap.rows.iter().cloned());
        let table = cap.snapshot.lpm_table();
        assert_eq!(store.len(), table.len());
        for addr in probes(&cap.snapshot) {
            let want = table.lookup(addr);
            let got = store.lookup(addr);
            match (got, want) {
                (None, None) => {}
                (Some(g), Some((p, ing))) => {
                    assert_eq!(g.prefix, p, "range mismatch at {addr} epoch {}", i + 1);
                    assert_eq!(g.ingress, ing, "ingress mismatch at {addr} epoch {}", i + 1);
                }
                (g, w) => panic!(
                    "mapped-ness mismatch at {addr} epoch {}: store={g:?} trie={w:?}",
                    i + 1
                ),
            }
        }
    }
}

/// Run `flows` publishing on `schedule` and check every publication.
fn run_with_schedule(
    mut engine: IpdEngine,
    flows: Vec<FlowRecord>,
    schedule: Schedule,
) -> Vec<EpochCapture> {
    let mut hook = CaptureHook::new(schedule);
    run_offline_with(&mut engine, flows, 1, None, &mut hook, |_| {});
    assert_epochs_identical(&hook.epochs);
    hook.epochs
}

fn run_and_check(engine: IpdEngine, flows: Vec<FlowRecord>) -> usize {
    run_with_schedule(engine, flows, Schedule::Every)
        .last()
        .map(|c| c.snapshot.classified().count())
        .unwrap_or(0)
}

#[test]
fn plain_engine_every_epoch_is_bit_identical() {
    let classified = run_and_check(IpdEngine::new(classify_params()).unwrap(), trace(10));
    assert!(classified > 0, "the trace must classify something");
}

/// The DFZ satellite: the same every-epoch bit-identity must hold while the
/// substrate is actively churning routes — prefixes withdrawing, reappearing,
/// and flapping between ingress links mid-run (ISSUE: differential scale
/// test, serving side).
#[test]
fn dfz_churned_stream_every_epoch_is_bit_identical() {
    use ipd_traffic::{DfzConfig, DfzWorld};

    let cfg = DfzConfig::smoke_10k(13);
    let world = DfzWorld::new(cfg);
    let minutes = 8;
    assert!(
        world
            .churn_events(cfg.epoch, cfg.epoch + minutes * 60)
            .next()
            .is_some(),
        "churn must be active during the serving window"
    );
    let flows: Vec<FlowRecord> = world.flows(minutes).map(|lf| lf.flow).collect();
    let rate = cfg.flows_per_minute as f64;
    let params = IpdParams {
        ncidr_factor_v4: 64.0 / 32.0e6 * rate,
        ncidr_factor_v6: (rate * 1.5e-11).max(1e-9),
        ..IpdParams::default()
    };
    let classified = run_and_check(IpdEngine::new(params).unwrap(), flows);
    assert!(classified > 0, "the churned stream must classify something");
}

/// A publisher that first publishes after `SILENT` crossings it only
/// ticked through still serves every epoch bit-identically: its first delta
/// is taken against the empty store, not against a bucket it never
/// published.
#[test]
fn first_publication_after_silent_crossings_is_bit_identical() {
    const SILENT: usize = 4;
    let every = run_with_schedule(
        IpdEngine::new(classify_params()).unwrap(),
        trace(10),
        Schedule::Every,
    );
    let plain = run_with_schedule(
        IpdEngine::new(classify_params()).unwrap(),
        trace(10),
        Schedule::AfterSilent(SILENT),
    );
    assert_eq!(plain.len(), every.len() - SILENT);
    assert!(!plain[0].rows.is_empty(), "the first publication is warm");
}

/// A publisher that publishes only at the close serves the terminal map
/// bit-identically from one full delta.
#[test]
fn close_only_publication_is_bit_identical() {
    let epochs = run_with_schedule(
        IpdEngine::new(classify_params()).unwrap(),
        trace(10),
        Schedule::CloseOnly,
    );
    assert_eq!(epochs.len(), 1, "one publication, at the close");
    assert!(!epochs[0].rows.is_empty(), "the terminal map classifies");
}

#[test]
fn unclassifiable_trace_serves_unmapped_everywhere() {
    // Default thresholds are far beyond this volume: nothing classifies,
    // every published store is empty, every lookup is unmapped — at every
    // epoch, exactly like the engine's own (empty) table.
    let mut hook = CaptureHook::new(Schedule::Every);
    let mut engine = IpdEngine::new(IpdParams::default()).unwrap();
    run_offline_with(&mut engine, trace(4), 1, None, &mut hook, |_| {});
    assert!(!hook.epochs.is_empty());
    for cap in &hook.epochs {
        assert!(cap.rows.is_empty());
        assert_eq!(cap.snapshot.lpm_table().len(), 0);
    }
    let terminal = hook.swap.load();
    assert!(terminal.value.lookup(Addr::v4(0x0808_0808)).is_none());
    assert!(terminal.value.lookup(Addr::v6(1)).is_none());
}

/// Hook for the precompute pass: record every boundary snapshot without
/// publishing anything, so the live run below has a reference table per
/// epoch (the engine is deterministic, so the two runs agree exactly).
struct SnapshotHook {
    snapshots: Vec<Snapshot>,
}

impl PipelineHook for SnapshotHook {
    fn bucket_crossed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        let ts = clock
            .current_bucket
            .map_or(0, |b| b * engine.params().t_secs);
        self.snapshots.push(engine.classified_snapshot(ts));
    }

    fn closed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        let ts = clock
            .current_bucket
            .map_or(0, |b| (b + 1) * engine.params().t_secs);
        self.snapshots.push(engine.classified_snapshot(ts));
    }
}

type RowKey = (LogicalIngress, u64);

/// The regression this PR adds: readers querying *while*
/// `ServePublisher::closed()` / `bucket_crossed()` apply their delta must
/// only ever observe published states. Every answer is checked against the
/// epoch window `[e1, e2 + 1]` the reader observed around its lookup
/// (`+ 1` because the store epoch bumps *after* the apply, so mid-apply
/// rows of the next publication are already visible — the floor contract):
///
/// * if the expected answer is identical across the whole window, the
///   lookup must return exactly that answer — a reader that drops or
///   resurrects an unrelated row fails here;
/// * otherwise the returned row must exist, bit-for-bit, in at least one
///   epoch of the window, and a miss is only legal if some epoch in the
///   window also misses.
///
/// The store's yield hook is armed on the publisher thread, stretching
/// every apply across thousands of scheduler yields so lookups genuinely
/// land mid-window. Under the old whole-store swap this window contract
/// was vacuous (one immutable store per epoch); in-place publication has
/// to earn it. This is the end-to-end floor-contract check — the
/// schedule-exhaustive no-torn-reads proof, where removing the store's
/// seqlock validation demonstrably fails, lives in the `ipd-lpm`
/// interleaving harness (`tests/interleave.rs`).
#[test]
fn queries_during_publication_observe_only_published_states() {
    let flows = trace(8);

    // Pass 1: reference tables per epoch (index 0 = before any publication).
    let mut pre = SnapshotHook {
        snapshots: Vec::new(),
    };
    let mut engine = IpdEngine::new(classify_params()).unwrap();
    run_offline_with(&mut engine, flows.clone(), 1, None, &mut pre, |_| {});
    let last = pre.snapshots.last().expect("publications happened");
    assert!(
        last.classified().count() > 0,
        "the trace must classify something"
    );

    let tables: Vec<IngressStore> = std::iter::once(IngressStore::empty())
        .chain(pre.snapshots.iter().map(IngressStore::from_snapshot))
        .collect();
    let maps: Vec<HashMap<Prefix, RowKey>> = std::iter::once(HashMap::new())
        .chain(pre.snapshots.iter().map(|s| {
            s.classified()
                .filter_map(|r| {
                    r.ingress
                        .as_ref()
                        .map(|ing| (r.range, (ing.clone(), r.confidence.to_bits())))
                })
                .collect()
        }))
        .collect();

    // A compact probe set: boundaries of the final table plus a v4 spray.
    let mut probe_set: Vec<Addr> = Vec::new();
    for r in last.records.iter().take(200) {
        probe_set.push(r.range.first_addr());
        probe_set.push(r.range.last_addr());
    }
    let mut x = 0x2545_F491u32;
    for _ in 0..128 {
        x = x.wrapping_mul(0x6C07_8965).wrapping_add(1);
        probe_set.push(Addr::v4(x));
    }
    // Expected answer per (epoch, probe), as bit-exact rows.
    let expected: Vec<Vec<Option<(Prefix, LogicalIngress, u64)>>> = tables
        .iter()
        .map(|t| {
            probe_set
                .iter()
                .map(|&a| {
                    t.lookup(a)
                        .map(|ans| (ans.prefix, ans.ingress.clone(), ans.confidence.to_bits()))
                })
                .collect()
        })
        .collect();
    let max_epoch = pre.snapshots.len() as u64;

    // Pass 2: the live run, with reader threads hammering the store while
    // the publisher (this thread) applies deltas with stretched windows.
    let publisher = ServePublisher::new();
    let swap = publisher.swap();
    let done = Arc::new(AtomicBool::new(false));
    let checks = Arc::new(AtomicU64::new(0));
    let probes = Arc::new(probe_set);
    let expected = Arc::new(expected);
    let maps = Arc::new(maps);

    let readers: Vec<_> = (0..4)
        .map(|r| {
            let swap = swap.clone();
            let done = Arc::clone(&done);
            let checks = Arc::clone(&checks);
            let probes = Arc::clone(&probes);
            let expected = Arc::clone(&expected);
            let maps = Arc::clone(&maps);
            std::thread::spawn(move || {
                let mut reader = swap.reader();
                let mut i = r; // desynchronise the four probe walks
                let mut last_epoch = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let k = i % probes.len();
                    i += 1;
                    let current = reader.current_arc();
                    let e1 = current.value.epoch();
                    let got = current
                        .value
                        .lookup(probes[k])
                        .map(|ans| (ans.prefix, ans.ingress.clone(), ans.confidence.to_bits()));
                    let e2 = current.value.epoch();
                    assert!(e1 >= last_epoch, "reader {r}: epoch went backwards");
                    last_epoch = e1;
                    // The apply of epoch e2+1 may be in flight.
                    let window = e1..=(e2 + 1).min(max_epoch);
                    let lo = *window.start() as usize;
                    let hi = *window.end() as usize;
                    if expected[lo..=hi].iter().all(|e| e[k] == expected[lo][k]) {
                        assert_eq!(
                            got, expected[lo][k],
                            "reader {r}: probe {} diverged from the stable answer \
                             across epochs {lo}..={hi}",
                            probes[k]
                        );
                    } else {
                        match &got {
                            None => assert!(
                                expected[lo..=hi].iter().any(|e| e[k].is_none()),
                                "reader {r}: probe {} unmapped but every epoch in \
                                 {lo}..={hi} maps it",
                                probes[k]
                            ),
                            Some((p, ing, conf)) => assert!(
                                p.contains(probes[k])
                                    && maps[lo..=hi]
                                        .iter()
                                        .any(|m| { m.get(p) == Some(&(ing.clone(), *conf)) }),
                                "reader {r}: probe {} answered {p} — a row in no \
                                 published state of epochs {lo}..={hi}",
                                probes[k]
                            ),
                        }
                    }
                    checks.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Stretch every apply window: the publisher thread (this one) yields at
    // every atomic step of the store walk while readers run full speed.
    ipd_lpm::concurrent::set_yield_hook(Some(std::thread::yield_now));
    let mut engine = IpdEngine::new(classify_params()).unwrap();
    let mut hook = publisher;
    run_offline_with(&mut engine, flows, 1, None, &mut hook, |_| {});
    ipd_lpm::concurrent::set_yield_hook(None);

    done.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().expect("reader panicked");
    }
    assert_eq!(swap.load().value.epoch(), max_epoch);
    assert!(
        checks.load(Ordering::Relaxed) > 1_000,
        "readers must actually overlap the publications"
    );
}
