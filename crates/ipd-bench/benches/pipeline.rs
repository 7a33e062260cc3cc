//! End-to-end pipeline throughput: flows through the threaded engine with
//! data-time ticks — the number to compare against §5.7's "4 million flow
//! records per second on average" (per machine, with ~30 reader cores; this
//! is the single-engine-thread core of it).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ipd::pipeline::{run_offline, BucketDriver, IpdPipeline, NoopHook, PipelineConfig};
use ipd::{IpdEngine, IpdParams};
use ipd_bench::{flow_batch, scaled_factor};

fn params() -> IpdParams {
    IpdParams {
        ncidr_factor_v4: scaled_factor(30_000),
        ncidr_factor_v6: 1e-6,
        ..IpdParams::default()
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let flows = flow_batch(3, 30_000);
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.throughput(Throughput::Elements(flows.len() as u64));

    g.bench_function("offline_with_ticks", |b| {
        b.iter(|| {
            let mut engine = IpdEngine::new(params()).unwrap();
            let mut outputs = 0usize;
            run_offline(
                &mut engine,
                BucketDriver::new(5),
                flows.iter().cloned(),
                &mut NoopHook,
                |_| outputs += 1,
            );
            (engine.classified_count(), outputs)
        })
    });

    g.bench_function("threaded", |b| {
        b.iter(|| {
            let pipeline = IpdPipeline::spawn_hooked(
                PipelineConfig {
                    params: params(),
                    channel_capacity: 256,
                    snapshot_every_ticks: 5,
                    ..Default::default()
                },
                Box::new(NoopHook),
            )
            .unwrap();
            let tx = pipeline.input();
            let rx = pipeline.output().clone();
            let drain = std::thread::spawn(move || rx.iter().count());
            for chunk in flows.chunks(1024) {
                tx.send(chunk.to_vec()).unwrap();
            }
            drop(tx);
            let (engine, _, _) = pipeline.finish_hooked();
            let outputs = drain.join().unwrap();
            (engine.classified_count(), outputs)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
