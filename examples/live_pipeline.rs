//! The full deployment shape on one machine (§5.7): border routers export
//! NetFlow v5 / IPFIX datagrams, flow-reader threads decode them, the
//! engine thread runs IPD, and snapshots stream out — all over channels.
//!
//! ```text
//! cargo run --release --example live_pipeline
//! ```
//!
//! Traffic comes from the synthetic tier-1 world; every flow actually goes
//! through wire encoding and back (half the routers speak NetFlow v5, half
//! IPFIX), exactly like the production collector path.

use std::collections::HashMap;
use std::thread;
use std::time::Instant;

use crossbeam::channel::bounded;
use ipd_suite::ipd::pipeline::{run_reader, IpdPipeline, NoopHook, PipelineConfig, PipelineOutput};
use ipd_suite::ipd::IpdParams;
use ipd_suite::netflow::ipfix::IpfixExporter;
use ipd_suite::netflow::v5::V5Exporter;
use ipd_suite::netflow::{FlowRecord, RouterId};
use ipd_suite::traffic::{FlowSim, SimConfig, World, WorldConfig};

const N_READERS: usize = 4;
const MINUTES: u64 = 20;
const FLOWS_PER_MINUTE: u64 = 30_000;

fn main() {
    let world = World::generate(WorldConfig::default(), 42);
    let epoch = world.config.epoch;
    let mut sim = FlowSim::new(
        world,
        SimConfig {
            flows_per_minute: FLOWS_PER_MINUTE,
            ..SimConfig::default()
        },
    );
    println!(
        "pipeline: {} reader threads + 1 engine thread; {} min at ~{} flows/min",
        N_READERS, MINUTES, FLOWS_PER_MINUTE
    );

    // Engine thread.
    let pipeline = IpdPipeline::spawn_hooked(
        PipelineConfig {
            params: IpdParams {
                // n_cidr factors scaled to the flow rate (see ipd-eval docs).
                ncidr_factor_v4: 64.0 / 32.0e6 * FLOWS_PER_MINUTE as f64,
                ncidr_factor_v6: FLOWS_PER_MINUTE as f64 * 1.5e-11,
                ..IpdParams::default()
            },
            ..PipelineConfig::default()
        },
        Box::new(NoopHook),
    )
    .expect("valid params");

    // Reader threads, sharded by router id (IPFIX template caches are
    // per-router, so a router must always hit the same reader).
    let mut gram_txs = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..N_READERS {
        let (tx, rx) = bounded(4096);
        let flow_tx = pipeline.input();
        readers.push(thread::spawn(move || run_reader(rx, flow_tx, 512)));
        gram_txs.push(tx);
    }

    // Output consumer.
    let out_rx = pipeline.output().clone();
    let printer = thread::spawn(move || {
        let (mut ticks, mut snaps, mut classified) = (0u64, 0u64, 0usize);
        for o in out_rx.iter() {
            match o {
                PipelineOutput::Tick(t) => {
                    ticks += 1;
                    if !t.newly_classified.is_empty() || t.splits > 0 {
                        println!(
                            "  tick @{:>7}s: +{} classified, {} splits, {} joins, {} drops",
                            t.now,
                            t.newly_classified.len(),
                            t.splits,
                            t.joins,
                            t.dropped.len() + t.invalidated.len()
                        );
                    }
                }
                PipelineOutput::Snapshot(s) => {
                    snaps += 1;
                    classified = s.classified().count();
                }
            }
        }
        (ticks, snaps, classified)
    });

    // Exporters: one per border router, alternating protocol by router id.
    let mut v5: HashMap<RouterId, V5Exporter> = HashMap::new();
    let mut ipfix: HashMap<RouterId, IpfixExporter> = HashMap::new();
    let started = Instant::now();
    let mut total_flows = 0u64;
    for _ in 0..MINUTES {
        let batch = sim.next_minute();
        total_flows += batch.flows.len() as u64;
        // Group flows by exporting router, as the network would.
        let mut by_router: HashMap<RouterId, Vec<FlowRecord>> = HashMap::new();
        for lf in batch.flows {
            by_router.entry(lf.flow.router).or_default().push(lf.flow);
        }
        for (router, flows) in by_router {
            let shard = router as usize % N_READERS;
            let now = flows.first().map(|f| f.ts).unwrap_or(epoch);
            // v6 must go via IPFIX (NetFlow v5 is IPv4-only); v4 uses the
            // router's configured protocol.
            let (v4_flows, v6_flows): (Vec<FlowRecord>, Vec<FlowRecord>) = flows
                .into_iter()
                .partition(|f| f.src.af() == ipd_suite::lpm::Af::V4);
            if router % 2 == 0 {
                let exp = v5
                    .entry(router)
                    .or_insert_with(|| V5Exporter::new(router, 0, 1000, epoch));
                for gram in exp.encode(now, &v4_flows).expect("v4-only traffic") {
                    gram_txs[shard].send((router, gram)).expect("reader alive");
                }
                let exp = ipfix
                    .entry(router)
                    .or_insert_with(|| IpfixExporter::new(router, 32));
                for gram in exp.encode(now, &v6_flows) {
                    gram_txs[shard].send((router, gram)).expect("reader alive");
                }
            } else {
                let mut all = v4_flows;
                all.extend(v6_flows);
                let exp = ipfix
                    .entry(router)
                    .or_insert_with(|| IpfixExporter::new(router, 32));
                for gram in exp.encode(now, &all) {
                    gram_txs[shard].send((router, gram)).expect("reader alive");
                }
            }
        }
    }
    drop(gram_txs);

    // Drain: readers finish → engine input closes → engine finishes.
    let mut decoded = 0u64;
    let mut gaps = 0u64;
    for r in readers {
        let stats = r.join().expect("reader thread");
        decoded += stats.records;
        gaps += stats.sequence_gap;
    }
    let (engine, _, _leftover) = pipeline.finish_hooked();
    let (ticks, snaps, classified) = printer.join().expect("printer thread");

    let elapsed = started.elapsed().as_secs_f64();
    println!("\n--- pipeline summary -------------------------------------");
    println!("generated flows:    {total_flows}");
    println!("decoded from wire:  {decoded} (sequence gaps: {gaps})");
    println!("engine ingested:    {}", engine.stats().flows_ingested);
    println!("ticks / snapshots:  {ticks} / {snaps}");
    println!("classified ranges:  {classified}");
    println!(
        "wall time:          {elapsed:.1}s  ({:.0} flows/s end-to-end)",
        total_flows as f64 / elapsed
    );
    assert_eq!(decoded, total_flows, "no flow may be lost on the wire");
    assert_eq!(engine.stats().flows_ingested, total_flows);
    assert!(classified > 0);
    println!("wire → readers → engine path verified ✓");
}
