//! Concurrency soak: reader threads (in-process and over TCP) hammer
//! lookups while the pipeline applies churned publications to the live
//! store underneath them. Asserts the serving contract — per-reader epoch
//! monotonicity, ≤1-access staleness (the epoch answered from is never
//! older than the store epoch observed at entry), internally consistent
//! answers mid-apply — and that `finish()` still terminates with a hook
//! attached and the output receiver taken (regression guard on the
//! bounded-channel wind-down deadlock fix).
//!
//! The stream is the 100k-tier DFZ world with active route churn, so the
//! in-place deltas exercise upserts, removes, and flapping reassignments —
//! not just monotone growth. A longer run of the same stream drives the
//! publisher through a compaction rotation, and a connection storm checks
//! that the server's connection cap holds and is counted.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipd::pipeline::{run_offline, BucketDriver, IpdPipeline, PipelineConfig};
use ipd::{IpdEngine, IpdParams};
use ipd_lpm::Addr;
use ipd_netflow::FlowRecord;
use ipd_serve::{EpochSwap, LiveStore, ServeClient, ServePublisher, ServeServer, ServeTelemetry};
use ipd_telemetry::{EventKind, Telemetry};
use ipd_traffic::{DfzConfig, DfzWorld};

/// The churned 100k-tier stream at a rate the tier-1 suite can afford.
fn churned_trace(minutes: u64) -> (Vec<FlowRecord>, IpdParams) {
    let mut cfg = DfzConfig::tier_100k(31);
    cfg.flows_per_minute = 20_000;
    let world = DfzWorld::new(cfg);
    assert!(
        world
            .churn_events(cfg.epoch, cfg.epoch + minutes * 60)
            .next()
            .is_some(),
        "churn must be active during the soak window"
    );
    let flows: Vec<FlowRecord> = world.flows(minutes).map(|lf| lf.flow).collect();
    let rate = cfg.flows_per_minute as f64;
    let params = IpdParams {
        ncidr_factor_v4: 64.0 / 32.0e6 * rate,
        ncidr_factor_v6: (rate * 1.5e-11).max(1e-9),
        ..IpdParams::default()
    };
    (flows, params)
}

#[test]
fn readers_never_see_torn_or_regressing_state_and_finish_terminates() {
    let (flows, params) = churned_trace(8);
    let publisher = ServePublisher::with_metrics(ServeTelemetry::default());
    let swap = publisher.swap();
    let pipeline = IpdPipeline::spawn_hooked(
        PipelineConfig {
            params,
            channel_capacity: 4,
            snapshot_every_ticks: 1,
            ..Default::default()
        },
        Box::new(publisher),
    )
    .unwrap();

    // The output channel is bounded and we take it: drain concurrently so
    // the engine never parks on a full channel (the consumption contract).
    let out_rx = pipeline.output().clone();
    let drainer = std::thread::spawn(move || out_rx.iter().count());

    // A TCP front-end over the same swap, queried while epochs advance.
    let server =
        ServeServer::serve("127.0.0.1:0", swap.clone(), ServeTelemetry::default()).expect("bind");
    let server_addr = server.local_addr();

    let done = Arc::new(AtomicBool::new(false));
    let max_seen = Arc::new(AtomicU64::new(0));

    // In-process readers: the sharpest view of the live store's guarantees.
    let in_process: Vec<_> = (0..8)
        .map(|r| {
            let swap = swap.clone();
            let done = Arc::clone(&done);
            let max_seen = Arc::clone(&max_seen);
            std::thread::spawn(move || {
                let mut reader = swap.reader();
                let mut last_epoch = 0u64;
                let mut last_ts = 0u64;
                let mut checks = 0u64;
                while !done.load(Ordering::Relaxed) {
                    // ≤1-access staleness: the epoch answered from is never
                    // older than the global store epoch at entry.
                    let floor = swap.load().value.epoch();
                    let v = reader.current();
                    let epoch = v.value.epoch();
                    assert!(
                        epoch >= floor,
                        "reader {r}: answer stale beyond the entry epoch"
                    );
                    assert!(epoch >= last_epoch, "reader {r}: epoch went backwards");
                    last_epoch = epoch;
                    // The publication stamp moves with data time, forward
                    // only — an in-place apply must never rewind it.
                    let ts = v.value.ts();
                    assert!(ts >= last_ts, "reader {r}: publication ts went backwards");
                    last_ts = ts;
                    // Exercise the lookup path mid-churn. The store mutates
                    // in place, so two reads may legally differ — but each
                    // answer must be internally consistent: a covering
                    // range with a sane confidence, never a torn mix.
                    let probe = Addr::v4((checks as u32).wrapping_mul(0x9E37_79B9));
                    if let Some(a) = v.value.lookup(probe) {
                        assert!(
                            a.prefix.contains(probe),
                            "reader {r}: answered range does not cover the probe"
                        );
                        assert!(
                            a.confidence.is_finite() && a.confidence > 0.0,
                            "reader {r}: torn confidence {}",
                            a.confidence
                        );
                    }
                    checks += 1;
                }
                max_seen.fetch_max(last_epoch, Ordering::Relaxed);
                checks
            })
        })
        .collect();

    // TCP readers: epoch monotonicity must survive the wire too.
    let tcp: Vec<_> = (0..2)
        .map(|r| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(server_addr).expect("connect");
                let mut last_epoch = 0u64;
                let mut calls = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let addrs: Vec<Addr> = (0..16)
                        .map(|i| Addr::v4((calls as u32 * 16 + i).wrapping_mul(0x0101_4107)))
                        .collect();
                    let (epoch, answers) = client.batch(&addrs).expect("batch");
                    assert_eq!(answers.len(), addrs.len());
                    assert!(epoch >= last_epoch, "tcp reader {r}: epoch went backwards");
                    last_epoch = epoch;
                    calls += 1;
                }
                calls
            })
        })
        .collect();

    // Feed the trace in small batches so publications interleave with the
    // readers above.
    let tx = pipeline.input();
    for chunk in flows.chunks(500) {
        tx.send(chunk.to_vec()).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(tx);

    // The deadlock regression guard: finish must return promptly even with
    // a hook attached and the output taken (drained concurrently).
    let finished = Arc::new(AtomicBool::new(false));
    let finish_flag = Arc::clone(&finished);
    let finisher = std::thread::spawn(move || {
        let (engine, _hook, _leftover) = pipeline.finish_hooked();
        finish_flag.store(true, Ordering::SeqCst);
        engine
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    while !finished.load(Ordering::SeqCst) {
        assert!(
            Instant::now() < deadline,
            "finish() wedged with serve hook + taken output"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let engine = finisher.join().unwrap();
    let outputs_seen = drainer.join().unwrap();
    assert!(outputs_seen > 0, "ticks and snapshots flowed");

    // Let readers observe the final epoch before stopping them.
    let final_epoch = swap.load().value.epoch();
    assert!(final_epoch >= 8, "8 minutes publish at least 8 epochs");
    std::thread::sleep(Duration::from_millis(50));
    done.store(true, Ordering::Relaxed);
    for h in in_process {
        assert!(h.join().unwrap() > 0, "reader did real work");
    }
    for h in tcp {
        assert!(h.join().unwrap() > 0, "tcp reader did real work");
    }
    assert_eq!(
        max_seen.load(Ordering::Relaxed),
        final_epoch,
        "readers converged on the terminal epoch"
    );

    // The terminal published store answers like the terminal engine state,
    // rows bit-identical to the engine's own classified snapshot.
    let terminal = swap.load();
    let snapshot = engine.classified_snapshot(terminal.value.ts());
    let table = snapshot.lpm_table();
    assert!(
        !terminal.value.is_empty(),
        "the churned tier classified rows"
    );
    assert_eq!(terminal.value.len(), table.len());
    for (p, ing, conf) in terminal.value.rows() {
        let rec = snapshot
            .classified()
            .find(|r| r.range == p)
            .unwrap_or_else(|| panic!("store row {p} not in the engine snapshot"));
        assert_eq!(Some(&ing), rec.ingress.as_ref());
        assert_eq!(conf.to_bits(), rec.confidence.to_bits());
    }
    server.shutdown();
}

/// 16 churned minutes leave enough dead arena cells to trigger exactly one
/// compaction rotation. Across it the published epochs stay gapless, the
/// terminal store holds the engine's rows bit for bit, and a reader minted
/// before the rotation moves to the fresh store.
#[test]
fn compaction_rotation_keeps_epochs_rows_and_readers() {
    let (flows, params) = churned_trace(16);
    let telemetry = Telemetry::new();
    let mut publisher = ServePublisher::with_metrics(ServeTelemetry::register(&telemetry));
    let swap = publisher.swap();
    let mut reader = swap.reader();
    assert_eq!(
        reader.current().epoch,
        0,
        "the reader starts on the first store"
    );
    let mut engine = IpdEngine::new(params).unwrap();
    run_offline(
        &mut engine,
        BucketDriver::new(1),
        flows,
        &mut publisher,
        |_| {},
    );

    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("ipd_serve_store_rebuilds_total"), Some(1));
    assert_eq!(swap.epoch(), 1, "one rotation of the swap");
    let published: Vec<u64> = telemetry
        .flight()
        .dump()
        .iter()
        .filter(|e| e.kind == EventKind::EpochPublished as u8)
        .map(|e| e.a)
        .collect();
    let n = published.len() as u64;
    assert_eq!(
        published,
        (1..=n).collect::<Vec<_>>(),
        "epochs must run 1..=N with no gap or repeat across the rotation"
    );

    let terminal = swap.load();
    let want = engine.served_rows();
    let got = terminal.value.rows();
    assert!(!want.is_empty(), "the churned tier classified rows");
    assert_eq!(got.len(), want.len());
    for ((gp, gi, gc), (wp, wi, wc)) in got.iter().zip(&want) {
        assert_eq!((gp, gi), (wp, wi));
        assert_eq!(gc.to_bits(), wc.to_bits(), "confidence bits for {gp}");
    }

    // The pre-rotation reader now answers from the fresh store.
    let current = reader.current();
    assert_eq!(current.epoch, 1);
    assert!(std::ptr::eq(&current.value, &terminal.value));
    assert_eq!(current.value.epoch(), n);
    let table = engine.classified_snapshot(terminal.value.ts()).lpm_table();
    for (p, _, _) in want.iter().step_by(7) {
        let probe = p.first_addr();
        assert_eq!(
            current
                .value
                .lookup(probe)
                .map(|a| (a.prefix, a.ingress.clone())),
            table.lookup(probe).map(|(q, ing)| (q, ing.clone())),
            "probe {probe}"
        );
    }
}

/// A storm of connections cannot grow the server's thread count: with the
/// cap's worth of connections held open, each further connection fails its
/// first request and is counted; once one held connection closes, a new
/// connection is served again.
#[test]
fn connection_storm_is_capped_and_counted() {
    const EXTRA: usize = 4;
    let cap = ServeServer::MAX_CONNECTIONS;
    let telemetry = Telemetry::new();
    let server = ServeServer::serve(
        "127.0.0.1:0",
        EpochSwap::new(LiveStore::new()),
        ServeTelemetry::register(&telemetry),
    )
    .expect("bind");
    let addr = server.local_addr();
    let probe = Addr::v4(0x0100_0000);

    // Each held connection has answered, so its handler thread is running.
    let mut held: Vec<ServeClient> = (0..cap)
        .map(|i| {
            let mut client = ServeClient::connect(addr).expect("connect");
            client
                .lookup(probe)
                .unwrap_or_else(|e| panic!("held connection {i} not served: {e}"));
            client
        })
        .collect();
    for i in 0..EXTRA {
        let mut client = ServeClient::connect(addr).expect("the TCP handshake still completes");
        assert!(
            client.lookup(probe).is_err(),
            "connection {} beyond the cap was served",
            cap + i
        );
    }
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.counter("ipd_serve_connections_rejected_total"),
        Some(EXTRA as u64)
    );
    assert_eq!(
        snap.counter("ipd_serve_connections_total"),
        Some(cap as u64)
    );

    // Free one slot: its handler exits on EOF and the next accept reaps it.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = ServeClient::connect(addr).expect("connect");
        if client.lookup(probe).is_ok() {
            break;
        }
        assert!(Instant::now() < deadline, "the freed slot was never reused");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(held);
    server.shutdown();
}
