//! DFZ-scale substrate benchmarks: what does it cost to *generate* the
//! streaming world, and what does stage-1 ingest cost when fed from it?
//!
//! These run at the 100k tier so `cargo bench -p ipd-bench --bench scale`
//! stays interactive.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ipd::{IpdEngine, IpdParams};
use ipd_bench::scaled_factor;
use ipd_traffic::{DfzConfig, DfzWorld};

const BENCH_FLOWS: u64 = 200_000;

fn world_100k() -> DfzWorld {
    DfzWorld::new(DfzConfig::tier_100k(42))
}

fn bench_generation(c: &mut Criterion) {
    let world = world_100k();
    let mut g = c.benchmark_group("scale_generate");
    g.throughput(Throughput::Elements(BENCH_FLOWS));
    // Pure stream cost: derive BENCH_FLOWS labeled flows and discard them.
    g.bench_function("flow_stream_100k", |b| {
        b.iter(|| {
            let mut bytes = 0u64;
            for lf in world.flows(120).take(BENCH_FLOWS as usize) {
                bytes = bytes.wrapping_add(lf.flow.bytes as u64);
            }
            bytes
        })
    });
    g.finish();

    let mut g = c.benchmark_group("scale_routes");
    let plan = world.plan.params();
    let n_routes = plan.v4_prefixes + plan.v6_prefixes;
    g.throughput(Throughput::Elements(n_routes));
    // One full RIB walk at a churn-active instant.
    g.bench_function("routes_at_100k", |b| {
        let t = world.config().epoch + 3600;
        b.iter(|| world.routes_at(t).filter(|r| r.visible).count())
    });
    g.finish();

    let mut g = c.benchmark_group("scale_churn");
    // An hour of churn events, windowed and ordered.
    g.bench_function("churn_events_1h_100k", |b| {
        let t0 = world.config().epoch;
        b.iter(|| world.churn_events(t0, t0 + 3600).count())
    });
    g.finish();
}

fn bench_stream_ingest(c: &mut Criterion) {
    let world = world_100k();
    let rate = world.config().flows_per_minute;
    let params = IpdParams {
        ncidr_factor_v4: scaled_factor(rate),
        ncidr_factor_v6: (rate as f64 * 1.5e-11).max(1e-9),
        ..IpdParams::default()
    };
    let mut g = c.benchmark_group("scale_ingest");
    g.throughput(Throughput::Elements(BENCH_FLOWS));
    g.sample_size(10);
    // Generation + stage-1 ingest, fused — the shape the pipeline sees.
    g.bench_function("stream_into_cold_trie_100k", |b| {
        b.iter(|| {
            let mut engine = IpdEngine::new(params.clone()).unwrap();
            for lf in world.flows(120).take(BENCH_FLOWS as usize) {
                engine.ingest(&lf.flow);
            }
            engine.classified_count()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_generation, bench_stream_ingest);
criterion_main!(benches);
