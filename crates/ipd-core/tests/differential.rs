//! Differential-equivalence harness for the engine's drivers.
//!
//! Every seeded flow stream is pushed through —
//!
//! 1. a per-flow loop of [`BucketDriver::observe`] then
//!    [`IpdEngine::ingest`] (the reference),
//! 2. `run_offline` (batched ingest),
//! 3. the threaded [`IpdPipeline`] (one engine thread, channel-fed,
//!    batched ingest)
//!
//! — and every run must produce the identical classified prefix→ingress
//! set, identical cumulative [`EngineStats`], identical tick reports, and
//! bit-for-bit identical snapshot digests. The property tests run it in
//! both count modes, with byte counts drawn from the edges of the `u32`
//! field (0, 1, 1400, `u32::MAX`).
//!
//! The row-source tests hold the publication path to the snapshot path
//! after every tick: [`IpdEngine::served_rows`] equals the classified
//! snapshot's rows, and the row merge [`StoreDelta::between_rows`] equals
//! the `HashMap` oracle [`StoreDelta::between`].

use ipd::output::Snapshot;
use ipd::pipeline::{
    run_offline, BucketDriver, IpdPipeline, NoopHook, PipelineConfig, PipelineOutput,
};
use ipd::{
    CoreTelemetry, CountMode, EngineStats, IpdEngine, IpdParams, LogicalIngress, ServedRow,
    StoreDelta, TickReport,
};
use ipd_lpm::{Addr, Prefix};
use ipd_netflow::FlowRecord;
use ipd_telemetry::Telemetry;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const SNAPSHOT_EVERY: u32 = 2;

fn test_params() -> IpdParams {
    IpdParams {
        ncidr_factor_v4: 0.002,
        ncidr_factor_v6: 1e-9,
        cidr_max_v4: 20,
        ..IpdParams::default()
    }
}

/// A tick report in comparable form, its range lists in sweep order.
#[derive(Debug, Clone, PartialEq)]
struct CanonReport {
    now: u64,
    newly_classified: Vec<(Prefix, LogicalIngress)>,
    dropped: Vec<Prefix>,
    invalidated: Vec<Prefix>,
    lb_suspects: Vec<Prefix>,
    counters: (usize, usize, usize, usize, usize),
}

fn canon(r: TickReport) -> CanonReport {
    CanonReport {
        now: r.now,
        newly_classified: r.newly_classified,
        dropped: r.dropped,
        invalidated: r.invalidated,
        lb_suspects: r.lb_suspects,
        counters: (r.splits, r.joins, r.collapses, r.bundles, r.expired_ips),
    }
}

/// Everything one run produces, in comparable form.
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    stats: EngineStats,
    ticks: Vec<CanonReport>,
    snapshot_digests: Vec<u64>,
    classified: Vec<(Prefix, LogicalIngress)>,
}

fn summarize(
    stats: EngineStats,
    outputs: Vec<PipelineOutput>,
    last_snapshot: Snapshot,
) -> RunResult {
    let mut ticks = Vec::new();
    let mut snapshot_digests = Vec::new();
    for o in outputs {
        match o {
            PipelineOutput::Tick(t) => ticks.push(canon(t)),
            PipelineOutput::Snapshot(s) => snapshot_digests.push(s.digest()),
        }
    }
    let mut classified: Vec<(Prefix, LogicalIngress)> = last_snapshot
        .classified()
        .filter_map(|r| r.ingress.clone().map(|i| (r.range, i)))
        .collect();
    classified.sort_unstable_by_key(|a| a.0);
    RunResult {
        stats,
        ticks,
        snapshot_digests,
        classified,
    }
}

/// The reference drives one flow at a time: observe its timestamp, then
/// ingest it.
fn reference_run(flows: &[FlowRecord], params: &IpdParams) -> RunResult {
    let mut engine = IpdEngine::new(params.clone()).unwrap();
    let mut outputs = Vec::new();
    let mut out = |o| outputs.push(o);
    let mut driver = BucketDriver::new(SNAPSHOT_EVERY);
    for flow in flows {
        driver.observe(&mut engine, flow.ts, &mut out, &mut NoopHook);
        engine.ingest(flow);
    }
    driver.finish(&mut engine, &mut out, &mut NoopHook);
    let snap = engine.snapshot(u64::MAX);
    summarize(engine.stats().clone(), outputs, snap)
}

fn offline_run(flows: &[FlowRecord], params: &IpdParams, driver: BucketDriver) -> RunResult {
    let mut engine = IpdEngine::new(params.clone()).unwrap();
    let mut outputs = Vec::new();
    run_offline(
        &mut engine,
        driver,
        flows.iter().cloned(),
        &mut NoopHook,
        |o| outputs.push(o),
    );
    let snap = engine.snapshot(u64::MAX);
    summarize(engine.stats().clone(), outputs, snap)
}

fn threaded_run(flows: &[FlowRecord], params: &IpdParams, batch: usize) -> RunResult {
    let pipeline = IpdPipeline::spawn_hooked(
        PipelineConfig {
            params: params.clone(),
            channel_capacity: 8,
            snapshot_every_ticks: SNAPSHOT_EVERY,
            ..Default::default()
        },
        Box::new(NoopHook),
    )
    .unwrap();
    let tx = pipeline.input();
    let rx = pipeline.output().clone();
    let drain = std::thread::spawn(move || rx.iter().collect::<Vec<_>>());
    for chunk in flows.chunks(batch.max(1)) {
        tx.send(chunk.to_vec()).unwrap();
    }
    drop(tx);
    let (engine, _, leftover) = pipeline.finish_hooked();
    let mut outputs = drain.join().unwrap();
    outputs.extend(leftover);
    let snap = engine.snapshot(u64::MAX);
    summarize(engine.stats().clone(), outputs, snap)
}

/// Assert full equivalence of every driver on one stream.
fn assert_all_equivalent(flows: &[FlowRecord], params: &IpdParams, batch: usize) -> RunResult {
    let mode = params.count_mode;
    let reference = reference_run(flows, params);
    let offline = offline_run(flows, params, BucketDriver::new(SNAPSHOT_EVERY));
    assert_eq!(offline, reference, "{mode:?}: run_offline diverged");
    let threaded = threaded_run(flows, params, batch);
    assert_eq!(
        threaded, reference,
        "{mode:?}: threaded IpdPipeline diverged"
    );
    reference
}

/// [`assert_all_equivalent`] in both count modes.
fn assert_equivalent_in_both_modes(flows: &[FlowRecord], batch: usize) {
    for count_mode in [CountMode::Flows, CountMode::Bytes] {
        let params = IpdParams {
            count_mode,
            ..test_params()
        };
        assert_all_equivalent(flows, &params, batch);
    }
}

/// Byte counts at the edges of the record's `u32` field.
fn bytes() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(1), Just(1400), Just(u32::MAX)]
}

/// One synthetic sample: (seconds offset, source bits, ingress index, v6?,
/// bytes).
type Sample = (u16, u32, u8, bool, u32);

fn flows_from_samples(samples: &[Sample]) -> Vec<FlowRecord> {
    samples
        .iter()
        .map(|&(off, bits, ing, v6, bytes)| {
            let src = if v6 {
                Addr::v6((0x2001_0db8u128 << 96) | (u128::from(bits) << 24))
            } else {
                Addr::v4(bits)
            };
            // Spread over routers and interfaces so bundles are possible.
            let mut flow = FlowRecord::synthetic(
                u64::from(off),
                src,
                u32::from(ing / 2) + 1,
                u16::from(ing % 2) + 1,
            );
            flow.bytes = bytes;
            flow
        })
        .collect()
}

proptest! {
    /// Seeded random streams — unsorted timestamps included, so late data
    /// and bucket-gap decay paths are exercised — produce identical results
    /// through both drivers, in both count modes.
    #[test]
    fn random_streams_are_equivalent(
        samples in proptest::collection::vec(
            (0u16..480, any::<u32>(), 0u8..6, any::<bool>(), bytes()), 1..300),
        batch in 1usize..128,
    ) {
        let flows = flows_from_samples(&samples);
        assert_equivalent_in_both_modes(&flows, batch);
    }

    /// Streams concentrated on few /20s force splits down to cidr_max and
    /// router-level bundles; equivalence must survive the cascades.
    #[test]
    fn concentrated_streams_are_equivalent(
        samples in proptest::collection::vec(
            (0u16..300, 0u32..1 << 14, 0u8..4, any::<bool>(), bytes()), 1..300),
        batch in 1usize..64,
    ) {
        // Map the narrow source space onto two distant /20-sized pools.
        let flows: Vec<FlowRecord> = samples
            .iter()
            .map(|&(off, bits, ing, high, bytes)| {
                let base = if high { 0xC000_0000u32 } else { 0x0A00_0000 };
                let mut f = flows_from_samples(&[(off, base | (bits & 0xFFF), ing, false, bytes)])
                    .pop()
                    .unwrap();
                f.input_if = u16::from(ing % 3) + 1; // same-router interfaces → bundles
                f.router = u32::from(ing / 3) + 1;
                f
            })
            .collect();
        assert_equivalent_in_both_modes(&flows, batch);
    }
}

/// The telemetry-inertness proof: a live metrics registry must not change a
/// single engine bit. The same seeded stream runs through both drivers
/// with telemetry attached — offline and the threaded pipeline — and each
/// instrumented run must equal the uninstrumented reference exactly (stats,
/// tick reports, snapshot digests, classified set). On top of
/// that, two identical instrumented runs must yield identical
/// *deterministic* metric snapshots: the counters themselves are pure
/// functions of the input stream.
#[test]
fn telemetry_is_inert() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7e1e_2024);
    let mut flows = Vec::new();
    for minute in 0..12u64 {
        for _ in 0..400 {
            let low: u32 = rng.random_range(0u32..1 << 20);
            flows.push(FlowRecord::synthetic(
                minute * 60 + rng.random_range(0..60u64),
                Addr::v4(0x0A00_0000 + low),
                1 + (low % 3),
                1 + (low % 2) as u16,
            ));
        }
    }
    flows.sort_by_key(|f| f.ts);
    let reference = reference_run(&flows, &test_params());

    let instrumented_offline = || -> (RunResult, Telemetry) {
        let telemetry = Telemetry::new();
        let driver =
            BucketDriver::new(SNAPSHOT_EVERY).with_metrics(CoreTelemetry::register(&telemetry));
        (offline_run(&flows, &test_params(), driver), telemetry)
    };

    // Offline, telemetry on: engine output unchanged.
    let (plain, plain_telemetry) = instrumented_offline();
    assert_eq!(plain, reference, "telemetry changed the plain engine");

    // The threaded pipeline with telemetry in the config: unchanged too.
    let threaded_telemetry = Telemetry::new();
    let p = IpdPipeline::spawn_hooked(
        PipelineConfig {
            params: test_params(),
            channel_capacity: 8,
            snapshot_every_ticks: SNAPSHOT_EVERY,
            telemetry: threaded_telemetry.clone(),
        },
        Box::new(NoopHook),
    )
    .unwrap();
    let (tx, rx) = (p.input(), p.output().clone());
    let drain = std::thread::spawn(move || rx.iter().collect::<Vec<_>>());
    for chunk in flows.chunks(256) {
        tx.send(chunk.to_vec()).unwrap();
    }
    drop(tx);
    let (engine, _, leftover) = p.finish_hooked();
    let mut outputs = drain.join().unwrap();
    outputs.extend(leftover);
    let threaded = summarize(engine.stats().clone(), outputs, engine.snapshot(u64::MAX));
    assert_eq!(threaded, reference, "telemetry changed IpdPipeline");

    // Deterministic metrics: two identical instrumented runs agree sample
    // for sample once timing-class metrics are filtered out.
    let (_, plain_telemetry2) = instrumented_offline();
    assert_eq!(
        plain_telemetry.snapshot().deterministic(),
        plain_telemetry2.snapshot().deterministic(),
        "deterministic metrics differ between identical runs"
    );
    // And the offline driver and the threaded pipeline agree on the core
    // flow/tick counters (batching detail aside).
    let offline_snap = plain_telemetry.snapshot();
    let threaded_snap = threaded_telemetry.snapshot();
    for name in [
        "ipd_pipeline_flows_total",
        "ipd_engine_ticks_total",
        "ipd_engine_splits_total",
        "ipd_engine_classifications_total",
    ] {
        assert_eq!(
            offline_snap.counter(name),
            threaded_snap.counter(name),
            "{name} differs between offline and threaded runs"
        );
    }
    assert_eq!(
        offline_snap.counter("ipd_pipeline_flows_total"),
        Some(reference.stats.flows_ingested),
        "flow counter must equal the engine's own count"
    );

    // The observability surfaces were live during those bit-identical runs:
    // watermarks advanced and the flight recorder captured events. Their
    // inertness is exactly what the output equality above proved.
    let marks = plain_telemetry.watermarks();
    for name in ["ipd_pipeline_ingest_watermark", "ipd_engine_tick_watermark"] {
        let (_, w) = marks
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} not registered"));
        assert!(w.updates > 0, "{name} never recorded");
        assert!(w.flow_ts > 0, "{name} never advanced");
    }
    assert!(
        plain_telemetry.flight().recorded() > 0,
        "instrumented run recorded no flight events"
    );
    // None of them may enter the deterministic subset (watermark-derived
    // samples and lag gauges are all timing-class): the golden pins must
    // stay insensitive to wall-clock freshness.
    assert!(
        offline_snap
            .deterministic()
            .samples
            .iter()
            .all(|s| !s.name.contains("watermark")
                && !s.name.contains("_age_seconds")
                && !s.name.contains("_lag_seconds")),
        "watermark-derived samples leaked into the deterministic subset"
    );
}

/// A route-churned stream from the 100k-prefix streaming substrate — next-hop
/// flaps and withdraw/re-announce cycles included — with the thresholds its
/// rate calls for.
fn churned_dfz_stream() -> (Vec<FlowRecord>, IpdParams) {
    use ipd_traffic::{DfzConfig, DfzWorld};

    let cfg = DfzConfig {
        flows_per_minute: 60_000,
        ..DfzConfig::tier_100k(11)
    };
    let world = DfzWorld::new(cfg);
    let minutes = 5;
    // Churn must actually be active inside the evaluated window, or the
    // "equivalence under churn" claim is vacuous.
    let churned = world
        .churn_events(cfg.epoch, cfg.epoch + minutes * 60)
        .count();
    assert!(churned > 0, "no churn events in the test window");

    let flows: Vec<FlowRecord> = world.flows(minutes).map(|lf| lf.flow).collect();
    assert!(flows.len() as u64 > minutes * 50_000, "stream too thin");

    let rate = cfg.flows_per_minute as f64;
    let params = IpdParams {
        ncidr_factor_v4: 64.0 / 32.0e6 * rate,
        ncidr_factor_v6: (rate * 1.5e-11).max(1e-9),
        ..IpdParams::default()
    };
    (flows, params)
}

/// The DFZ-scale equivalence proof: the churned stream must produce
/// bit-identical snapshot digests, stats, tick reports and classified sets
/// through the offline driver and the threaded `IpdPipeline`.
#[test]
fn dfz_churned_stream_offline_vs_threaded_is_equivalent() {
    let (flows, params) = churned_dfz_stream();
    let reference = reference_run(&flows, &params);
    assert!(
        !reference.snapshot_digests.is_empty(),
        "no snapshots published"
    );
    assert!(reference.stats.classifications > 0, "nothing classified");
    let threaded = threaded_run(&flows, &params, 512);
    assert_eq!(
        threaded.snapshot_digests, reference.snapshot_digests,
        "IpdPipeline digest diverged on churned DFZ stream"
    );
    assert_eq!(threaded, reference, "IpdPipeline diverged");
}

/// A heavier, fully deterministic stream: ~40k flows over 30 minutes from a
/// seeded generator, shaped so the run exercises splits to `cidr_max`,
/// joins, decay-driven drops, invalidations and dual-stack state.
fn seeded_heavy_stream() -> Vec<FlowRecord> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1bd_2024);
    let mut flows = Vec::new();
    for minute in 0..30u64 {
        // Two stable pools owned by distinct routers...
        for _ in 0..600 {
            let low: u32 = rng.random_range(0u32..1 << 22);
            flows.push(FlowRecord::synthetic(
                minute * 60 + rng.random_range(0..60u64),
                Addr::v4(0x0A00_0000 + low),
                1,
                1,
            ));
            let high: u32 = rng.random_range(0u32..1 << 22);
            flows.push(FlowRecord::synthetic(
                minute * 60 + rng.random_range(0..60u64),
                Addr::v4(0xC000_0000 + high),
                2,
                1,
            ));
        }
        // ...a contested pool that flips ownership halfway (invalidations),
        for _ in 0..200 {
            let bits: u32 = rng.random_range(0u32..1 << 16);
            let router = if minute < 15 { 3 } else { 4 };
            flows.push(FlowRecord::synthetic(
                minute * 60 + rng.random_range(0..60u64),
                Addr::v4(0x5000_0000 + bits),
                router,
                2,
            ));
        }
        // ...a pool that goes silent (decay + drop + collapse),
        if minute < 8 {
            for _ in 0..200 {
                let bits: u32 = rng.random_range(0u32..1 << 16);
                flows.push(FlowRecord::synthetic(
                    minute * 60 + rng.random_range(0..60u64),
                    Addr::v4(0x8000_0000 + bits),
                    5,
                    1,
                ));
            }
        }
        // ...and some v6 spread across two interfaces of one router (bundle).
        for _ in 0..100 {
            let bits: u32 = rng.random_range(0u32..1 << 20);
            let ifidx = rng.random_range(1u16..3);
            flows.push(FlowRecord::synthetic(
                minute * 60 + rng.random_range(0..60u64),
                Addr::v6((0x2001_0db8u128 << 96) | (u128::from(bits) << 30)),
                6,
                ifidx,
            ));
        }
    }
    flows.sort_by_key(|f| f.ts);
    flows
}

/// The seeded heavy stream through both drivers; the
/// equivalence assertion is identical to the property tests above.
#[test]
fn seeded_heavy_stream_is_equivalent() {
    let reference = assert_all_equivalent(&seeded_heavy_stream(), &test_params(), 512);
    // The stream must actually have exercised the interesting machinery —
    // otherwise the equivalence proof is vacuous.
    assert!(reference.stats.flows_ingested > 40_000);
    assert!(reference.stats.splits > 0, "no splits exercised");
    assert!(reference.stats.classifications > 0, "nothing classified");
    assert!(
        reference.stats.drops > 0,
        "no drops/invalidations exercised"
    );
    assert!(!reference.classified.is_empty());
    assert!(reference
        .classified
        .iter()
        .any(|(p, _)| p.af() == ipd_lpm::Af::V6));
}

/// Drive `engine` over `flows` at the `BucketDriver` cadence — one stage-2
/// cycle per crossed bucket, plus the final one — and after every tick hold
/// the publication row source to the snapshot path: `served_rows()` equals
/// the `(range, ingress, confidence)` rows of `classified_snapshot(ts)`, in
/// order, confidence compared by bits; and the row merge from the previous
/// tick's rows equals the `StoreDelta::between` oracle over the two
/// snapshots. Returns how many ticks changed the served map.
fn assert_row_source_matches(mut engine: IpdEngine, flows: &[FlowRecord]) -> usize {
    let t = engine.params().t_secs;
    let mut prev_snapshot = Snapshot::default();
    let mut prev_rows: Vec<ServedRow> = Vec::new();
    let mut changed = 0;
    let mut tick = |engine: &mut IpdEngine, now: u64| {
        engine.tick(now);
        let snapshot = engine.classified_snapshot(now);
        let rows = engine.served_rows();
        let want: Vec<(Prefix, Option<&LogicalIngress>, u64)> = snapshot
            .records
            .iter()
            .map(|r| (r.range, r.ingress.as_ref(), r.confidence.to_bits()))
            .collect();
        let got: Vec<(Prefix, Option<&LogicalIngress>, u64)> = rows
            .iter()
            .map(|(p, ing, c)| (*p, Some(ing), c.to_bits()))
            .collect();
        assert_eq!(got, want, "served rows diverged from the snapshot at {now}");
        let delta = StoreDelta::between_rows(&prev_rows, &rows);
        assert_eq!(
            delta,
            StoreDelta::between(&prev_snapshot, &snapshot),
            "row merge diverged from the oracle at {now}"
        );
        changed += usize::from(!delta.is_empty());
        prev_snapshot = snapshot;
        prev_rows = rows;
    };
    let mut bucket: Option<u64> = None;
    for flow in flows {
        let b = flow.ts / t;
        match bucket {
            None => bucket = Some(b),
            Some(current) if b > current => {
                for crossed in current..b {
                    tick(&mut engine, (crossed + 1) * t);
                }
                bucket = Some(b);
            }
            Some(_) => {} // same bucket, or late data: no tick due
        }
        engine.ingest(flow);
    }
    if let Some(current) = bucket {
        tick(&mut engine, (current + 1) * t);
    }
    changed
}

/// The row source on one input: the served map must change more than once.
fn assert_row_source_on(flows: &[FlowRecord], params: &IpdParams) {
    let changed = assert_row_source_matches(IpdEngine::new(params.clone()).unwrap(), flows);
    assert!(changed > 1, "the served map must change more than once");
}

#[test]
fn row_source_matches_snapshots_on_seeded_heavy_stream() {
    assert_row_source_on(&seeded_heavy_stream(), &test_params());
}

#[test]
fn row_source_matches_snapshots_on_churned_dfz_stream() {
    let (flows, params) = churned_dfz_stream();
    assert_row_source_on(&flows, &params);
}
