//! Integration: the full production path across every crate —
//! synthetic world → NetFlow/IPFIX wire encoding → collector → statistical
//! time pre-processing → IPD engine → LPM validation against ground truth.

use std::collections::HashMap;

use ipd_suite::ipd::{IpdEngine, IpdParams};
use ipd_suite::netflow::ipfix::IpfixExporter;
use ipd_suite::netflow::v5::V5Exporter;
use ipd_suite::netflow::{Collector, FlowRecord, RouterId};
use ipd_suite::stattime::{Flush, StatTimeConfig, TimeBucketer};
use ipd_suite::topology::IngressPoint;
use ipd_suite::traffic::{FlowSim, LabeledFlow, SimConfig, World, WorldConfig};

const FLOWS_PER_MINUTE: u64 = 10_000;

fn scaled_params() -> IpdParams {
    IpdParams {
        ncidr_factor_v4: 64.0 / 32.0e6 * FLOWS_PER_MINUTE as f64,
        ncidr_factor_v6: FLOWS_PER_MINUTE as f64 * 1.5e-11,
        ..IpdParams::default()
    }
}

#[test]
fn wire_stattime_engine_validation() {
    let world = World::generate(WorldConfig::default(), 42);
    let mut sim = FlowSim::new(
        world,
        SimConfig {
            flows_per_minute: FLOWS_PER_MINUTE,
            // Plenty of drifting clocks so statistical time has work to do.
            drift_router_fraction: 0.3,
            drift_max_offset: 90,
            ..SimConfig::default()
        },
    );
    let mut engine = IpdEngine::new(scaled_params()).unwrap();
    let mut collector = Collector::new();
    let mut bucketer = TimeBucketer::new(StatTimeConfig {
        bucket_secs: 60,
        activity_threshold: 50,
        max_skew_buckets: 3,
        promote_threshold: 500,
    });
    let mut v5: HashMap<RouterId, V5Exporter> = HashMap::new();
    let mut ipfix: HashMap<RouterId, IpfixExporter> = HashMap::new();

    // Keep ground truth per (claimed ts, source address) for validation.
    let mut truth: HashMap<(u64, ipd_suite::lpm::Addr), IngressPoint> = HashMap::new();
    let minutes = 25;
    let mut emitted_buckets = 0usize;
    let mut last_bucket_end = 0u64;
    for minute in 0..minutes {
        let batch = sim.next_minute();
        // 1) Export on the wire, per router, alternating protocols.
        let mut by_router: HashMap<RouterId, Vec<LabeledFlow>> = HashMap::new();
        for lf in batch.flows {
            by_router.entry(lf.flow.router).or_default().push(lf);
        }
        let mut decoded: Vec<FlowRecord> = Vec::new();
        for (router, lfs) in by_router {
            for lf in &lfs {
                truth.insert(
                    (lf.flow.ts, lf.flow.src),
                    IngressPoint::new(lf.flow.router, lf.flow.input_if),
                );
            }
            let flows: Vec<FlowRecord> = lfs.iter().map(|lf| lf.flow).collect();
            let now = flows.first().map(|f| f.ts).unwrap_or(0);
            // NetFlow v5 cannot carry IPv6: v6 always goes via IPFIX, v4
            // uses the router's configured protocol.
            let (v4_flows, v6_flows): (Vec<FlowRecord>, Vec<FlowRecord>) = flows
                .into_iter()
                .partition(|f| f.src.af() == ipd_suite::lpm::Af::V4);
            let mut grams = Vec::new();
            if router % 2 == 0 {
                grams.extend(
                    v5.entry(router)
                        .or_insert_with(|| V5Exporter::new(router, 0, 1000, 0))
                        .encode(now, &v4_flows)
                        .expect("v4 traffic"),
                );
                if !v6_flows.is_empty() {
                    grams.extend(
                        ipfix
                            .entry(router)
                            .or_insert_with(|| IpfixExporter::new(router, 64))
                            .encode(now, &v6_flows),
                    );
                }
            } else {
                let mut all = v4_flows;
                all.extend(v6_flows);
                grams.extend(
                    ipfix
                        .entry(router)
                        .or_insert_with(|| IpfixExporter::new(router, 64))
                        .encode(now, &all),
                );
            }
            for g in grams {
                collector
                    .feed(&g, router, &mut decoded)
                    .expect("well-formed datagrams");
            }
        }
        // 2) Statistical time: bucket, discard out-of-range, re-stamp.
        for f in decoded {
            bucketer.push(f);
        }
        for flush in bucketer.flush_closed() {
            if let Flush::Emitted {
                bucket_start,
                flows,
            } = flush
            {
                emitted_buckets += 1;
                for f in &flows {
                    engine.ingest(f);
                }
                last_bucket_end = bucket_start + 60;
                engine.tick(last_bucket_end);
            }
        }
        let _ = minute;
    }
    for flush in bucketer.finish() {
        if let Flush::Emitted {
            bucket_start,
            flows,
        } = flush
        {
            emitted_buckets += 1;
            for f in &flows {
                engine.ingest(f);
            }
            last_bucket_end = bucket_start + 60;
            engine.tick(last_bucket_end);
        }
    }

    assert!(emitted_buckets >= 20, "buckets emitted: {emitted_buckets}");
    assert_eq!(collector.stats().errors, 0);
    assert!(engine.stats().flows_ingested > FLOWS_PER_MINUTE * 5);
    assert!(
        engine.classified_count() > 10,
        "classified: {}",
        engine.classified_count()
    );

    // 3) Validate the final LPM table against ground truth of the last
    // minutes' flows (where the engine has had time to learn).
    let lpm = engine.snapshot(last_bucket_end).lpm_table();
    let mut total = 0u64;
    let mut correct = 0u64;
    let warm_from = last_bucket_end.saturating_sub(300);
    for (&(ts, src), &actual) in &truth {
        if ts < warm_from {
            continue;
        }
        total += 1;
        if let Some((_, ing)) = lpm.lookup(src) {
            if ing.matches(actual) {
                correct += 1;
            }
        }
    }
    assert!(total > 1000, "validation set too small: {total}");
    let accuracy = correct as f64 / total as f64;
    assert!(
        accuracy > 0.6,
        "end-to-end accuracy {accuracy:.3} over {total} flows"
    );
}

#[test]
fn threaded_pipeline_agrees_with_direct_ingestion() {
    use ipd_suite::ipd::pipeline::{IpdPipeline, NoopHook, PipelineConfig};

    let world = World::generate(WorldConfig::default(), 7);
    let mut sim = FlowSim::new(
        world,
        SimConfig {
            flows_per_minute: 4000,
            ..SimConfig::default()
        },
    );
    let batches: Vec<Vec<FlowRecord>> = (0..8)
        .map(|_| {
            sim.next_minute()
                .flows
                .into_iter()
                .map(|lf| lf.flow)
                .collect()
        })
        .collect();

    // Direct.
    let mut direct = IpdEngine::new(scaled_params()).unwrap();
    {
        use ipd_suite::ipd::pipeline::{run_offline, BucketDriver, NoopHook};
        run_offline(
            &mut direct,
            BucketDriver::new(5),
            batches.iter().flatten().cloned(),
            &mut NoopHook,
            |_| {},
        );
    }

    // Threaded.
    let pipeline = IpdPipeline::spawn_hooked(
        PipelineConfig {
            params: scaled_params(),
            channel_capacity: 64,
            snapshot_every_ticks: 5,
            ..Default::default()
        },
        Box::new(NoopHook),
    )
    .unwrap();
    let tx = pipeline.input();
    let rx = pipeline.output().clone();
    let drain = std::thread::spawn(move || rx.iter().count());
    for b in &batches {
        tx.send(b.clone()).unwrap();
    }
    drop(tx);
    let (threaded, _, _) = pipeline.finish_hooked();
    let outputs = drain.join().unwrap();

    assert!(outputs > 0);
    assert_eq!(
        threaded.stats().flows_ingested,
        direct.stats().flows_ingested
    );
    assert_eq!(threaded.stats().ticks, direct.stats().ticks);
    assert_eq!(threaded.classified_count(), direct.classified_count());
    assert_eq!(threaded.range_count(), direct.range_count());
}
