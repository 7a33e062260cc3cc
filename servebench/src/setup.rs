//! Set-up: input generation, datagram encoding, the warm-up replay and the
//! detector build. Every workload starts from the same warm state: the
//! first `warm_minutes` data minutes replayed through the pipeline, with
//! publication held back to the last warm bucket (and, on `lookup`, to the
//! pipeline's close).

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::bounded;
use ipd::pipeline::{run_reader, IpdPipeline, PipelineConfig};
use ipd::IpdEngine;
use ipd_hist::{HistPublisher, HistStore};
use ipd_netflow::CollectorStats;
use ipd_serve::{EpochSwap, LiveStore, ServePublisher};
use ipd_spoof::{RouteExpect, SpoofDetector, SpoofTelemetry};
use ipd_traffic::DfzWorld;

use crate::hook::{drain, BenchHook, HookConfig, Output, Shared};
use crate::inputs::{self, flow_hash, Encoder, Exporters, Timed};
use crate::stats::PeakRss;
use crate::trace::Clock;
use crate::{Args, Workload};

/// Flows per batch a reader hands the engine (as in the threaded-pipeline
/// example).
pub const READER_BATCH: usize = 512;
/// Capacity of the bounded datagram queue in front of each reader.
pub const DATAGRAM_QUEUE: usize = 4096;
/// `ipd-tool serve` emits a full snapshot every this many ticks.
const SNAPSHOT_EVERY_TICKS: u32 = 5;
/// Longest the warm-up may take to drain into the engine.
const WARM_TIMEOUT: Duration = Duration::from_secs(120);

pub struct Setup {
    pub secs: f64,
    pub timed: Timed,
    /// The running pipeline (`ingest`, `live`).
    pub pipeline: Option<IpdPipeline>,
    pub drainer: Option<JoinHandle<Vec<Output>>>,
    /// The closed engine (`lookup`).
    pub engine: Option<IpdEngine>,
    pub shared: Arc<Shared>,
    pub swap: EpochSwap<LiveStore>,
    pub hist: Option<Arc<HistStore>>,
    pub hist_dir: Option<PathBuf>,
    pub detector: Option<SpoofDetector>,
    pub warm_stats: CollectorStats,
    /// Sum of `flow_hash` over the warm-up flows.
    pub warm_digest: u64,
    pub clock: Clock,
    pub rss: Option<PeakRss>,
}

/// Timed data minutes a workload pre-encodes.
pub fn wire_minutes(args: &Args) -> u64 {
    let flows_per_minute = args
        .tier
        .run_config(args.seed)
        .scenario
        .dfz
        .flows_per_minute as f64;
    let secs = args.seconds as f64;
    match args.workload {
        Workload::Ingest => (secs * args.tier.ingest_minutes_per_sec).ceil() as u64,
        Workload::Lookup => 0,
        Workload::Live => (secs * args.tier.live_rate / flows_per_minute).ceil() as u64,
    }
}

pub fn build(
    args: &Args,
    traced: bool,
    measure_rss: bool,
    hist_dir: Option<PathBuf>,
) -> Result<Setup, String> {
    let t0 = Instant::now();
    let cfg = args.tier.run_config(args.seed);
    let params = cfg.engine_params();
    let t_secs = params.t_secs;
    let world = DfzWorld::new(cfg.scenario.dfz);
    let warm = args.tier.warm_minutes;
    let pool_minutes = match args.workload {
        Workload::Ingest => 0,
        Workload::Lookup | Workload::Live => args.tier.pool_minutes,
    };
    let timed = inputs::timed_inputs(&cfg, &world, warm, wire_minutes(args), pool_minutes, t_secs);
    let rss = measure_rss.then(PeakRss::start);

    let serve = ServePublisher::new();
    let swap = serve.swap();
    let (hist_pub, hist) = match &hist_dir {
        Some(dir) => {
            let store = HistStore::open(dir).map_err(|e| format!("history store: {e}"))?;
            let publisher = HistPublisher::new(store);
            let store = publisher.store();
            (Some(publisher), Some(store))
        }
        None => (None, None),
    };
    let last_warm_bucket = (inputs::minute_start(&world, warm) - 1) / t_secs;
    let clock = Clock(Instant::now());
    let shared = Arc::new(Shared::default());
    let hook = BenchHook::new(
        serve,
        hist_pub,
        HookConfig {
            publish_from: (args.workload != Workload::Lookup).then_some(last_warm_bucket),
            bucket_ends: timed
                .wire
                .bucket_starts
                .iter()
                .map(|&(_, gram)| timed.warm_flows + timed.wire.cum[gram])
                .collect(),
            trace: traced.then_some((clock, timed.warm_flows)),
        },
        Arc::clone(&shared),
    );
    let pipeline = IpdPipeline::spawn_hooked(
        PipelineConfig {
            params,
            snapshot_every_ticks: SNAPSHOT_EVERY_TICKS,
            ..PipelineConfig::default()
        },
        Box::new(hook),
    )
    .map_err(|e| format!("engine parameters: {e:?}"))?;
    let output = pipeline.output().clone();
    let drainer = std::thread::spawn(move || drain(output, traced.then_some(clock)));

    // The warm-up minutes go through a reader of their own, encoded as they
    // are generated; the timed datagrams come from separate exporters and
    // a separate reader, so neither phase sees the other's sequence numbers.
    let (gram_tx, gram_rx) = bounded(DATAGRAM_QUEUE);
    let flow_tx = pipeline.input();
    let reader = std::thread::spawn(move || run_reader(gram_rx, flow_tx, READER_BATCH));
    let mut exporters = Exporters::default();
    let mut encoder = Encoder::new(&mut exporters);
    let (mut warm_digest, mut warm_flows) = (0u64, 0u64);
    let mut sink = |router, gram, _n, _ts| {
        // A send fails only if the reader died; its join reports that.
        let _ = gram_tx.send((router, gram));
    };
    for sf in cfg.scenario.stream(&world, warm) {
        warm_digest = warm_digest.wrapping_add(flow_hash(&sf.flow));
        warm_flows += 1;
        encoder.push(sf.flow, &mut sink);
    }
    encoder.flush(&mut sink);
    drop(gram_tx);
    let warm_stats = reader.join().map_err(|_| "warm-up reader panicked")?;
    if warm_flows != timed.warm_flows {
        return Err(format!(
            "warm-up stream changed between passes: {warm_flows} vs {} flows",
            timed.warm_flows
        ));
    }
    let deadline = Instant::now() + WARM_TIMEOUT;
    while shared.flows.load(Ordering::Acquire) < warm_flows
        || (args.workload != Workload::Lookup && shared.publications().is_empty())
    {
        if Instant::now() > deadline {
            return Err("warm-up did not reach the engine in time".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let (pipeline, drainer, engine) = if args.workload == Workload::Lookup {
        // A frozen map: the warm state is published once, at close.
        let (engine, _hook, _) = pipeline.finish_hooked();
        drainer.join().map_err(|_| "output drainer panicked")?;
        (None, None, Some(engine))
    } else {
        (Some(pipeline), Some(drainer), None)
    };
    let detector = (args.workload != Workload::Ingest).then(|| {
        SpoofDetector::new(
            RouteExpect::new(&world, cfg.window_secs),
            SpoofTelemetry::default(),
        )
    });
    Ok(Setup {
        secs: t0.elapsed().as_secs_f64(),
        timed,
        pipeline,
        drainer,
        engine,
        shared,
        swap,
        hist,
        hist_dir,
        detector,
        warm_stats,
        warm_digest,
        clock,
        rss,
    })
}

/// Close whatever a set-up left running and delete its history.
pub fn teardown(mut setup: Setup) {
    if let Some(pipeline) = setup.pipeline.take() {
        let _ = pipeline.finish_hooked();
    }
    if let Some(drainer) = setup.drainer.take() {
        let _ = drainer.join();
    }
    // The hook (inside the finished pipeline) and this handle are the
    // store's only owners; dropping both joins its compaction thread.
    drop(setup.hist.take());
    if let Some(dir) = &setup.hist_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}
