//! Differential correctness of the longitudinal store: for a churned
//! 100k-tier run, the store reconstructed by [`HistReader`] at **every**
//! epoch is bit-identical to the engine's own snapshot trie captured live
//! at that epoch — same ranges, same ingresses, confidence bit patterns
//! included — and its image equals the rows `ServePublisher` served at that
//! epoch, for a publisher that records every crossing and for publishers
//! that skip crossings (first recording after silent ones, or only at the
//! close).
//! A serve-integration variant drives the same comparison through the wire
//! protocol, synchronizing on `WaitEpoch` instead of sleeping.

use std::sync::Arc;

use ipd::pipeline::{run_offline, BucketClock, BucketDriver, PipelineHook};
use ipd::{IpdEngine, IpdParams, Snapshot};
use ipd_hist::{HistConfig, HistPublisher, HistStore, HistTelemetry, Row};
use ipd_lpm::Addr;
use ipd_netflow::FlowRecord;
use ipd_serve::proto::WireAnswer;
use ipd_serve::{
    EpochSwap, HistoryProvider, LiveStore, ServeClient, ServePublisher, ServeServer, ServeTelemetry,
};
use ipd_traffic::{DfzConfig, DfzWorld};

fn churned_world() -> (DfzWorld, Vec<FlowRecord>, IpdParams) {
    // The 100k-tier prefix plan and topology, at a flow rate sized for the
    // tier-1 suite; thresholds follow the established rate formula.
    let mut cfg = DfzConfig::tier_100k(23);
    cfg.flows_per_minute = 20_000;
    let world = DfzWorld::new(cfg);
    let minutes = 10;
    assert!(
        world
            .churn_events(cfg.epoch, cfg.epoch + minutes * 60)
            .next()
            .is_some(),
        "churn must be active during the recorded window"
    );
    let flows: Vec<FlowRecord> = world.flows(minutes).map(|lf| lf.flow).collect();
    let rate = cfg.flows_per_minute as f64;
    let params = IpdParams {
        ncidr_factor_v4: 64.0 / 32.0e6 * rate,
        ncidr_factor_v6: (rate * 1.5e-11).max(1e-9),
        ..IpdParams::default()
    };
    (world, flows, params)
}

/// Which boundaries a [`RecordingHook`] publishes at. Every hook publishes
/// at the close; the engine ticks at every crossing regardless.
#[derive(Debug, Clone, Copy)]
enum Schedule {
    /// Every crossing — `ipd-tool serve --hist-dir` over a trace.
    Every,
    /// Silent through the first `k` crossings, then every one — a warm-up
    /// whose map is first recorded late.
    AfterSilent(usize),
    /// Only at the close — `serve --from-checkpoint`'s single epoch.
    CloseOnly,
}

/// Records every publication three ways: the live snapshot (the
/// reference), the rows the live store serves, and an append into the
/// history store (the system under test).
struct RecordingHook {
    serve: ServePublisher,
    swap: EpochSwap<LiveStore>,
    hist: HistPublisher,
    snapshots: Vec<Snapshot>,
    served: Vec<Vec<Row>>,
    schedule: Schedule,
    crossings: usize,
}

impl RecordingHook {
    fn new(store: HistStore, schedule: Schedule) -> Self {
        let serve = ServePublisher::new();
        RecordingHook {
            swap: serve.swap(),
            serve,
            hist: HistPublisher::new(store),
            snapshots: Vec::new(),
            served: Vec::new(),
            schedule,
            crossings: 0,
        }
    }

    fn record(&mut self, engine: &IpdEngine, ts: u64) {
        self.snapshots.push(engine.classified_snapshot(ts));
        self.served.push(self.swap.load().value.rows());
    }
}

impl PipelineHook for RecordingHook {
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
        self.serve.bucket_crossed(engine, clock);
        self.hist.bucket_crossed(engine, clock);
        let ts = clock
            .current_bucket
            .map_or(0, |b| b * engine.params().t_secs);
        self.record(engine, ts);
    }

    fn closed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        self.serve.closed(engine, clock);
        self.hist.closed(engine, clock);
        let ts = clock
            .current_bucket
            .map_or(0, |b| (b + 1) * engine.params().t_secs);
        self.record(engine, ts);
    }
}

fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((pa, ia, ca), (pb, ib, cb))| {
            pa == pb && ia == ib && ca.to_bits() == cb.to_bits()
        })
}

/// Probe set: every range boundary plus a deterministic spray of both
/// families.
fn probes(snapshot: &Snapshot) -> Vec<Addr> {
    let mut addrs = Vec::new();
    for r in &snapshot.records {
        addrs.push(r.range.first_addr());
        addrs.push(r.range.last_addr());
    }
    let mut x = 0x2545_F491u32;
    for _ in 0..2_000 {
        x = x.wrapping_mul(0x6C07_8965).wrapping_add(1);
        addrs.push(Addr::v4(x));
    }
    for i in 0..300u128 {
        addrs.push(Addr::v6((0x2001u128 << 112) | (i * 0x0001_0001_0001)));
    }
    addrs
}

fn assert_store_matches_snapshot(store: &LiveStore, snapshot: &Snapshot, epoch: u64) {
    assert_eq!(store.epoch(), epoch, "epoch {epoch}: rebuilt store's epoch");
    assert_eq!(store.ts(), snapshot.ts, "epoch {epoch}: boundary stamp");
    let table = snapshot.lpm_table();
    assert_eq!(store.len(), table.len(), "epoch {epoch}: row count");
    for addr in probes(snapshot) {
        let want = table.lookup(addr);
        let got = store.lookup(addr);
        match (got, want) {
            (None, None) => {}
            (Some(g), Some((p, ing))) => {
                assert_eq!(g.prefix, p, "epoch {epoch}: range mismatch at {addr}");
                assert_eq!(g.ingress, ing, "epoch {epoch}: ingress mismatch at {addr}");
            }
            (g, w) => {
                panic!("epoch {epoch}: mapped-ness mismatch at {addr}: hist={g:?} trie={w:?}")
            }
        }
    }
    for r in snapshot.classified() {
        let ans = store
            .lookup(r.range.first_addr())
            .expect("classified range must answer");
        if ans.prefix == r.range {
            assert_eq!(
                ans.confidence.to_bits(),
                r.confidence.to_bits(),
                "epoch {epoch}: confidence bits for {}",
                r.range
            );
        }
    }
}

/// Run `flows` recording on `schedule`, then check every epoch: the
/// reconstructed store answers like the live snapshot, and the image equals
/// the rows served at that epoch. Returns (epochs, classified at close).
fn run_and_check(
    mut engine: IpdEngine,
    flows: Vec<FlowRecord>,
    dir: &std::path::Path,
    schedule: Schedule,
) -> (usize, usize) {
    let cfg = HistConfig {
        keyframe_every: 4,
        ..HistConfig::default()
    };
    let store = HistStore::open_with(dir, cfg, HistTelemetry::default()).unwrap();
    let mut hook = RecordingHook::new(store, schedule);
    run_offline(&mut engine, BucketDriver::new(1), flows, &mut hook, |_| {});
    assert!(
        hook.hist.error().is_none(),
        "append failed: {:?}",
        hook.hist.error()
    );
    let store = hook.hist.store();
    store.compact_now().unwrap();
    let reader = store.reader();
    assert_eq!(store.last_epoch(), hook.snapshots.len() as u64);
    for (i, snapshot) in hook.snapshots.iter().enumerate() {
        let epoch = i as u64 + 1;
        let rebuilt = reader
            .store_at(epoch)
            .unwrap()
            .unwrap_or_else(|| panic!("epoch {epoch} not held"));
        assert_store_matches_snapshot(&rebuilt, snapshot, epoch);
        let image = reader.image_at(epoch).unwrap().expect("epoch held");
        assert!(
            same_rows(image.rows(), &hook.served[i]),
            "epoch {epoch}: history image differs from the served rows"
        );
    }
    let classified = hook
        .snapshots
        .last()
        .map(|s| s.classified().count())
        .unwrap_or(0);
    (hook.snapshots.len(), classified)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ipd-hist-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn dfz_plain_engine_every_epoch_reconstructs_bit_identically() {
    let (_, flows, params) = churned_world();
    let dir = temp_dir("plain");
    let (_, classified) = run_and_check(
        IpdEngine::new(params).unwrap(),
        flows,
        &dir,
        Schedule::Every,
    );
    assert!(classified > 0, "the churned stream must classify something");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recorder that first records after `SILENT` crossings it only ticked
/// through starts the history with a keyframe of the warm map, and every
/// epoch after it still equals the served rows.
#[test]
fn dfz_first_record_after_silent_crossings_reconstructs_bit_identically() {
    const SILENT: usize = 4;
    let (_, flows, params) = churned_world();
    let dir = temp_dir("silent");
    let (epochs, classified) = run_and_check(
        IpdEngine::new(params).unwrap(),
        flows,
        &dir,
        Schedule::AfterSilent(SILENT),
    );
    // 10 minutes: 10 crossings and the close, the first SILENT unrecorded.
    assert_eq!(epochs, 11 - SILENT);
    assert!(classified > 0, "the churned stream must classify something");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recorder that records only at the close holds one epoch: the
/// terminal map, equal to the served rows.
#[test]
fn dfz_close_only_record_reconstructs_bit_identically() {
    let (_, flows, params) = churned_world();
    let dir = temp_dir("close-only");
    let (epochs, classified) = run_and_check(
        IpdEngine::new(params).unwrap(),
        flows,
        &dir,
        Schedule::CloseOnly,
    );
    assert_eq!(epochs, 1);
    assert!(classified > 0, "the churned stream must classify something");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The wire-protocol variant: a server with the history attached answers
/// `QueryAt` for a past epoch identically to the store reconstructed
/// locally, and the client synchronizes on `WaitEpoch` (the satellite op)
/// instead of polling `Info` in a sleep loop.
#[test]
fn serve_integration_answers_history_over_the_wire() {
    let (_, flows, params) = churned_world();
    let dir = temp_dir("serve");

    let publisher = ServePublisher::new();
    let swap = publisher.swap();
    let hist = HistPublisher::new(HistStore::open(&dir).unwrap());
    let store = hist.store();
    let reader = store.reader();
    let server = ServeServer::serve_with_history(
        "127.0.0.1:0",
        swap,
        ServeTelemetry::default(),
        Some(Arc::new(reader.clone()) as Arc<dyn HistoryProvider>),
    )
    .expect("bind");
    let addr = server.local_addr();

    struct BothHooks {
        serve: ServePublisher,
        hist: HistPublisher,
    }
    impl PipelineHook for BothHooks {
        fn bucket_crossed(&mut self, engine: &IpdEngine, clock: BucketClock) {
            self.serve.bucket_crossed(engine, clock);
            self.hist.bucket_crossed(engine, clock);
        }
        fn closed(&mut self, engine: &IpdEngine, clock: BucketClock) {
            self.serve.closed(engine, clock);
            self.hist.closed(engine, clock);
        }
    }

    let pipeline = std::thread::spawn(move || {
        let mut hook = BothHooks {
            serve: publisher,
            hist,
        };
        let mut engine = IpdEngine::new(params).unwrap();
        run_offline(&mut engine, BucketDriver::new(1), flows, &mut hook, |_| {});
        assert!(hook.hist.error().is_none());
    });

    // Park on the wire until publication reaches epoch 3, then time-travel.
    let mut client = ServeClient::connect(addr).expect("connect");
    let info = client.wait_epoch(3).expect("wait");
    assert!(
        info.epoch >= 3,
        "WaitEpoch returned at epoch {}",
        info.epoch
    );
    pipeline.join().unwrap();

    let target = 3u64;
    let local = reader.store_at(target).unwrap().expect("epoch 3 held");
    // Every wire query reconstructs the epoch server-side (the provider is
    // deliberately cache-free), so keep the round-trip count modest.
    let mut x = 0x9E37_79B9u32;
    for _ in 0..200 {
        x = x.wrapping_mul(0x6C07_8965).wrapping_add(1);
        let probe = Addr::v4(x);
        let wire = client
            .query_at(target, probe)
            .expect("query-at")
            .unwrap_or_else(|| panic!("server does not hold epoch {target}"));
        let want = WireAnswer::from_lookup(local.lookup(probe));
        assert_eq!(wire.kind, want.kind, "mapped-ness mismatch at {probe}");
        assert_eq!(wire.prefix_len, want.prefix_len, "range length at {probe}");
        assert_eq!(
            (wire.router, wire.ifindex),
            (want.router, want.ifindex),
            "ingress mismatch at {probe}"
        );
        assert_eq!(
            wire.confidence.to_bits(),
            want.confidence.to_bits(),
            "confidence bits at {probe}"
        );
    }

    // DiffRange over the wire agrees with the local diff on count and
    // prefix identity.
    let last = store.last_epoch();
    let local_diff = reader.diff(1, last).unwrap().expect("range held");
    let wire_diff = client.diff_range(1, last).expect("diff");
    assert_eq!(
        wire_diff.len(),
        local_diff.len().min(ipd_serve::proto::MAX_DIFF)
    );
    for (w, l) in wire_diff.iter().zip(local_diff.iter()) {
        assert_eq!(w.prefix, l.prefix);
        assert_eq!(w.before.is_some(), l.before.is_some());
        assert_eq!(w.after.is_some(), l.after.is_some());
    }

    server.shutdown();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
