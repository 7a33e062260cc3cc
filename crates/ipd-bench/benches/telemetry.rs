//! Telemetry hot-path overhead: the same offline ingest+tick run with a
//! disabled registry and with a live registry. The acceptance bound for the
//! observability layer is <3% ingest regression live-vs-disabled; compare
//! the `disabled` and `enabled` lines.
//!
//! Also micro-benches the raw handle operations (counter inc, histogram
//! observe, disabled counter inc) so a regression can be localized.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ipd::pipeline::{run_offline, BucketDriver, NoopHook};
use ipd::{CoreTelemetry, IpdEngine, IpdParams};
use ipd_bench::{flow_batch, scaled_factor};
use ipd_telemetry::{Class, Telemetry, SIZE_BUCKETS};

fn params() -> IpdParams {
    IpdParams {
        ncidr_factor_v4: scaled_factor(30_000),
        ncidr_factor_v6: 1e-6,
        ..IpdParams::default()
    }
}

fn bench_telemetry(c: &mut Criterion) {
    let flows = flow_batch(3, 30_000);
    let mut g = c.benchmark_group("telemetry");
    g.sample_size(10);
    g.throughput(Throughput::Elements(flows.len() as u64));

    let run = |telemetry: &Telemetry| {
        let mut engine = IpdEngine::new(params()).unwrap();
        let mut outputs = 0usize;
        run_offline(
            &mut engine,
            BucketDriver::new(5).with_metrics(CoreTelemetry::register(telemetry)),
            flows.iter().cloned(),
            &mut NoopHook,
            |_| outputs += 1,
        );
        (engine.classified_count(), outputs)
    };

    g.bench_function("disabled", |b| {
        let telemetry = Telemetry::disabled();
        b.iter(|| run(&telemetry))
    });

    g.bench_function("enabled", |b| {
        let telemetry = Telemetry::new();
        b.iter(|| run(&telemetry))
    });

    g.finish();

    let mut g = c.benchmark_group("telemetry_handles");
    g.throughput(Throughput::Elements(1));
    let telemetry = Telemetry::new();
    let counter = telemetry.counter("bench_counter_total", "bench");
    let histogram = telemetry.histogram("bench_hist", "bench", SIZE_BUCKETS, Class::Deterministic);
    let disabled = Telemetry::disabled().counter("bench_disabled_total", "bench");
    g.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    g.bench_function("histogram_observe", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 7) & 0xFFFF;
            histogram.observe(v)
        })
    });
    g.bench_function("disabled_counter_inc", |b| b.iter(|| disabled.inc()));
    g.finish();
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
