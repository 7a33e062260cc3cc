//! The deployment shape of IPD (paper §5.7): parallel flow-reader threads
//! decoding export datagrams, a single engine thread running stage 1
//! continuously and stage 2 at every time-bucket boundary.
//!
//! Time is *data time*: ticks fire when the flow stream crosses a `t`-second
//! bucket boundary, not on a wall clock. That matches the paper's online
//! contract ("an online algorithm that must be completed by the end of each
//! time bucket") while keeping every run bit-for-bit reproducible — the same
//! input stream always produces the same outputs, whether driven offline
//! ([`run_offline`]) or through the threaded [`IpdPipeline`].

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use ipd_netflow::{Collector, CollectorStats, FlowRecord, RouterId};
use ipd_telemetry::Telemetry;

use crate::engine::{IpdEngine, TickReport};
use crate::output::Snapshot;
use crate::params::IpdParams;
use crate::telemetry::CoreTelemetry;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Engine parameters.
    pub params: IpdParams,
    /// Bounded channel capacity between stages (batches, not flows).
    pub channel_capacity: usize,
    /// Emit a full [`Snapshot`] every this many ticks. The paper's raw
    /// output is written at 5-minute granularity with t = 60 s, i.e. 5.
    pub snapshot_every_ticks: u32,
    /// Metric registry the run reports into. The default is
    /// [`Telemetry::disabled`], whose handles are no-ops — telemetry is
    /// observational only and never changes engine output either way (the
    /// differential suite proves digests are bit-for-bit equal with it on
    /// or off).
    pub telemetry: Telemetry,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            params: IpdParams::default(),
            channel_capacity: 1024,
            snapshot_every_ticks: 5,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Items the engine thread emits.
#[derive(Debug, Clone)]
pub enum PipelineOutput {
    /// A stage-2 cycle completed.
    Tick(TickReport),
    /// A periodic full snapshot (see [`PipelineConfig::snapshot_every_ticks`]).
    Snapshot(Snapshot),
}

/// The data-time position of a [`BucketDriver`] — checkpointed alongside
/// the engine state so a restored run resumes tick/snapshot cadence exactly
/// where the interrupted run left it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BucketClock {
    /// The bucket of the last observed flow (None before the first flow).
    pub current_bucket: Option<u64>,
    /// Ticks fired since the last periodic snapshot.
    pub ticks_since_snapshot: u32,
}

/// Observer of a driven engine run — the durability seam. A hook sees every
/// flow *before* it is ingested (write-ahead: a flow is journaled before it
/// can mutate state) and every bucket-boundary crossing *after* its ticks
/// fired but before the crossing flow is delivered — at that instant the
/// engine state is exactly "all flows of the closed buckets applied", the
/// well-defined point a checkpoint captures.
pub trait PipelineHook: Send {
    /// A run of flows about to be ingested, in stream order.
    fn flows(&mut self, flows: &[FlowRecord]) {
        let _ = flows;
    }
    /// Bucket-boundary ticks just fired; `clock` is the driver position.
    fn bucket_crossed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        let _ = (engine, clock);
    }
    /// End of stream, *before* the final tick — a restored run replays to
    /// this state and fires the final tick itself.
    fn finished(&mut self, engine: &IpdEngine, clock: BucketClock) {
        let _ = (engine, clock);
    }
    /// End of stream, *after* the final tick and snapshot fired — the
    /// terminal engine state. This is the publication seam a serving layer
    /// (e.g. `ipd-serve`) uses to push the last ingress map of a run;
    /// durability hooks keep using [`finished`](PipelineHook::finished),
    /// whose pre-final-tick state is what a restore replays to.
    fn closed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        let _ = (engine, clock);
    }
}

/// The do-nothing hook, for runs nothing observes.
pub struct NoopHook;

impl PipelineHook for NoopHook {}

/// Drives stage-2 ticks from data timestamps: the one path the offline
/// runner, the threaded pipeline and restore's replay all go through. The
/// bucket length is the `t_secs` of the engine it drives.
#[derive(Debug)]
pub struct BucketDriver {
    snapshot_every: u32,
    current_bucket: Option<u64>,
    ticks_since_snapshot: u32,
    metrics: CoreTelemetry,
}

impl BucketDriver {
    /// A driver at the start of a stream that emits a periodic snapshot
    /// every `snapshot_every_ticks` ticks.
    pub fn new(snapshot_every_ticks: u32) -> Self {
        BucketDriver {
            snapshot_every: snapshot_every_ticks.max(1),
            current_bucket: None,
            ticks_since_snapshot: 0,
            metrics: CoreTelemetry::default(),
        }
    }

    /// Resume from a checkpointed [`BucketClock`]. The snapshot cadence
    /// must match the interrupted run's for tick-exact replay.
    pub fn with_clock(mut self, clock: BucketClock) -> Self {
        self.current_bucket = clock.current_bucket;
        self.ticks_since_snapshot = clock.ticks_since_snapshot;
        self
    }

    /// Attach metric handles: flow and tick counters, the ingest
    /// watermark, stage-2 timing, and post-tick state gauges are recorded
    /// by this driver. Purely observational.
    pub fn with_metrics(mut self, metrics: CoreTelemetry) -> Self {
        self.metrics = metrics;
        self
    }

    /// The current data-time position.
    pub fn clock(&self) -> BucketClock {
        BucketClock {
            current_bucket: self.current_bucket,
            ticks_since_snapshot: self.ticks_since_snapshot,
        }
    }

    /// Observe the timestamp of the next flow *before* ingesting it; fires
    /// any due ticks (one per crossed bucket, so decay sees every cycle),
    /// then tells `hook` the bucket boundary was crossed.
    pub fn observe<F: FnMut(PipelineOutput)>(
        &mut self,
        engine: &mut IpdEngine,
        ts: u64,
        out: &mut F,
        hook: &mut dyn PipelineHook,
    ) {
        let t = engine.params().t_secs;
        let bucket = ts / t;
        let Some(current) = self.current_bucket else {
            self.current_bucket = Some(bucket);
            return;
        };
        if bucket <= current {
            return; // same bucket, or late data: no tick due
        }
        for b in current..bucket {
            self.fire(engine, (b + 1) * t, out);
        }
        self.current_bucket = Some(bucket);
        hook.bucket_crossed(engine, self.clock());
    }

    /// Observe *and ingest* a whole batch: due ticks still fire exactly at
    /// bucket boundaries inside the batch, while each maximal run of flows
    /// between boundaries goes to [`PipelineHook::flows`] and then through
    /// the engine's batch path. A boundary crossing mid-batch therefore
    /// sees the preceding run applied and the following run not yet
    /// journaled: per flow, the same observe-then-ingest sequence.
    pub fn ingest_batch<F: FnMut(PipelineOutput)>(
        &mut self,
        engine: &mut IpdEngine,
        batch: &[FlowRecord],
        out: &mut F,
        hook: &mut dyn PipelineHook,
    ) {
        let t = engine.params().t_secs;
        let mut start = 0;
        for (i, flow) in batch.iter().enumerate() {
            let due = match self.current_bucket {
                Some(current) => flow.ts / t > current,
                None => false,
            };
            if due {
                hook.flows(&batch[start..i]);
                engine.ingest_batch(&batch[start..i]);
                start = i;
            }
            self.observe(engine, flow.ts, out, hook);
        }
        hook.flows(&batch[start..]);
        engine.ingest_batch(&batch[start..]);
        self.metrics.flows.add(batch.len() as u64);
        if let Some(last) = batch.last() {
            self.metrics.ingest_watermark.record(last.ts);
        }
    }

    /// End of stream: tell `hook` the stream [`finished`](PipelineHook::finished),
    /// fire the final tick and snapshot, then tell it the run
    /// [`closed`](PipelineHook::closed).
    pub fn finish<F: FnMut(PipelineOutput)>(
        self,
        engine: &mut IpdEngine,
        out: &mut F,
        hook: &mut dyn PipelineHook,
    ) {
        hook.finished(engine, self.clock());
        if let Some(current) = self.current_bucket {
            let now = (current + 1) * engine.params().t_secs;
            let report = self.timed_tick(engine, now);
            self.metrics.record_tick(&report, engine, now);
            out(PipelineOutput::Tick(report));
            out(PipelineOutput::Snapshot(engine.snapshot(now)));
        }
        hook.closed(engine, self.clock());
    }

    fn fire<F: FnMut(PipelineOutput)>(&mut self, engine: &mut IpdEngine, now: u64, out: &mut F) {
        let report = self.timed_tick(engine, now);
        self.metrics.record_tick(&report, engine, now);
        out(PipelineOutput::Tick(report));
        self.ticks_since_snapshot += 1;
        if self.ticks_since_snapshot >= self.snapshot_every {
            self.ticks_since_snapshot = 0;
            out(PipelineOutput::Snapshot(engine.snapshot(now)));
        }
    }

    /// Run stage 2 under the tick-duration timer. A disabled histogram's
    /// timer never reads the clock, so the untelemetered path stays free of
    /// `Instant::now` calls.
    fn timed_tick(&self, engine: &mut IpdEngine, now: u64) -> TickReport {
        let _timer = self.metrics.tick_duration.start_timer();
        engine.tick(now)
    }
}

/// Flows per [`BucketDriver::ingest_batch`] call in [`run_offline`].
const OFFLINE_BATCH: usize = 4096;

/// Run IPD over an in-memory, time-ordered flow stream through `driver`,
/// which carries the snapshot cadence, the clock to resume from and the
/// metrics. Stage 1 and the end of stream go the same way as in the
/// threaded [`IpdPipeline`]. `on_output` receives every tick report and
/// snapshot, including the final end-of-stream snapshot.
pub fn run_offline<I, F>(
    engine: &mut IpdEngine,
    mut driver: BucketDriver,
    flows: I,
    hook: &mut dyn PipelineHook,
    mut on_output: F,
) where
    I: IntoIterator<Item = FlowRecord>,
    F: FnMut(PipelineOutput),
{
    let mut flows = flows.into_iter();
    let mut batch = Vec::with_capacity(OFFLINE_BATCH);
    loop {
        batch.clear();
        batch.extend(flows.by_ref().take(OFFLINE_BATCH));
        if batch.is_empty() {
            break;
        }
        driver.ingest_batch(engine, &batch, &mut on_output, hook);
    }
    driver.finish(engine, &mut on_output, hook);
}

/// Handle to a running threaded pipeline.
///
/// Feed batches of flows through [`IpdPipeline::input`]; consume
/// [`PipelineOutput`]s from [`IpdPipeline::output`]; call
/// [`IpdPipeline::finish_hooked`] to close the input, drain, and get the
/// engine back.
pub struct IpdPipeline {
    input: Sender<Vec<FlowRecord>>,
    output: Receiver<PipelineOutput>,
    output_taken: std::sync::atomic::AtomicBool,
    handle: std::thread::JoinHandle<(IpdEngine, Box<dyn PipelineHook>)>,
}

impl IpdPipeline {
    /// Spawn the engine thread with a [`PipelineHook`] riding on the driver
    /// (e.g. a checkpointer, or [`NoopHook`]). The hook lives on the engine
    /// thread and is handed back by [`IpdPipeline::finish_hooked`].
    pub fn spawn_hooked(
        config: PipelineConfig,
        hook: Box<dyn PipelineHook>,
    ) -> Result<Self, crate::params::ParamError> {
        let engine = IpdEngine::new(config.params.clone())?;
        let (in_tx, in_rx) = bounded::<Vec<FlowRecord>>(config.channel_capacity);
        let (out_tx, out_rx) = bounded::<PipelineOutput>(config.channel_capacity);
        let snapshot_every = config.snapshot_every_ticks;
        let metrics = CoreTelemetry::register(&config.telemetry);
        let handle = std::thread::Builder::new()
            .name("ipd-engine".into())
            .spawn(move || {
                let mut engine = engine;
                let mut hook = hook;
                let mut driver = BucketDriver::new(snapshot_every).with_metrics(metrics.clone());
                // If the consumer goes away we keep processing; IPD state is
                // still useful when handed back by finish_hooked().
                let mut emit = |o: PipelineOutput| {
                    let _ = out_tx.send(o);
                };
                for batch in in_rx.iter() {
                    metrics.batches.inc();
                    metrics.batch_size.observe(batch.len() as u64);
                    metrics.channel_depth.set(in_rx.len() as i64);
                    driver.ingest_batch(&mut engine, &batch, &mut emit, hook.as_mut());
                }
                driver.finish(&mut engine, &mut emit, hook.as_mut());
                (engine, hook)
            })
            .expect("spawning the engine thread");
        Ok(IpdPipeline {
            input: in_tx,
            output: out_rx,
            output_taken: std::sync::atomic::AtomicBool::new(false),
            handle,
        })
    }

    /// A clonable sender for flow batches.
    pub fn input(&self) -> Sender<Vec<FlowRecord>> {
        self.input.clone()
    }

    /// The output stream of tick reports and snapshots.
    ///
    /// Taking this receiver makes the caller the output consumer: drain it
    /// until it disconnects (the output channel is bounded, and the engine
    /// thread blocks on it for backpressure). If it is never taken,
    /// [`IpdPipeline::finish_hooked`] consumes the stream itself and
    /// returns it whole.
    pub fn output(&self) -> &Receiver<PipelineOutput> {
        self.output_taken
            .store(true, std::sync::atomic::Ordering::Relaxed);
        &self.output
    }

    /// Close the input, wait for the engine thread, and return the engine,
    /// the hook passed to [`IpdPipeline::spawn_hooked`] (after its
    /// [`closed`](PipelineHook::closed) callback ran), and the run's
    /// outputs: all of them if [`IpdPipeline::output`] was never taken,
    /// otherwise none (the consumer that took it receives every output).
    pub fn finish_hooked(self) -> (IpdEngine, Box<dyn PipelineHook>, Vec<PipelineOutput>) {
        drop(self.input);
        // The output channel is bounded, so an engine thread flushing its
        // final ticks can be parked mid-`send`; someone must keep consuming
        // or the join deadlocks. If the caller took the output, it owns
        // consumption (it drains until the channel disconnects, which also
        // unparks the engine), and reading here too would take some of the
        // last outputs and hand them back out of order with the caller's.
        // Otherwise this is the sole consumer: it drains until the engine
        // thread hangs up, so a fire-and-finish caller cannot deadlock.
        let leftover = if self.output_taken.load(std::sync::atomic::Ordering::Relaxed) {
            Vec::new()
        } else {
            self.output.iter().collect()
        };
        let (engine, hook) = self.handle.join().expect("engine thread never panics");
        (engine, hook, leftover)
    }
}

/// A flow-reader worker (paper §5.7: "processes that handle incoming flow
/// data", ~120 MB each): decodes export datagrams from its routers and
/// forwards flow batches to the engine.
///
/// IPFIX template caches are per-collector, so *all datagrams of one router
/// must go to the same reader* — shard by `router % n_readers`.
pub fn run_reader(
    datagrams: Receiver<(RouterId, Bytes)>,
    flows_out: Sender<Vec<FlowRecord>>,
    batch_size: usize,
) -> CollectorStats {
    let mut collector = Collector::new();
    let mut batch: Vec<FlowRecord> = Vec::with_capacity(batch_size.max(1));
    for (router, datagram) in datagrams.iter() {
        // Malformed datagrams are counted in the stats and skipped; one bad
        // exporter must not take the reader down.
        let _ = collector.feed(&datagram, router, &mut batch);
        if batch.len() >= batch_size {
            if flows_out.send(std::mem::take(&mut batch)).is_err() {
                break; // engine gone; drain and report
            }
            batch = Vec::with_capacity(batch_size.max(1));
        }
    }
    if !batch.is_empty() {
        let _ = flows_out.send(batch);
    }
    collector.stats().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_lpm::Addr;
    use ipd_netflow::v5::V5Exporter;
    use ipd_topology::IngressPoint;
    use std::sync::{Arc, Mutex};

    fn test_params() -> IpdParams {
        IpdParams {
            ncidr_factor_v4: 0.01,
            ..IpdParams::default()
        }
    }

    fn flows_two_halves(n_per_minute: u32, minutes: u64) -> Vec<FlowRecord> {
        let mut flows = Vec::new();
        for m in 0..minutes {
            for i in 0..n_per_minute {
                let ts = m * 60 + (i as u64 % 60);
                let mut f = FlowRecord::synthetic(ts, Addr::v4(i * 4096), 1, 1);
                f.input_if = 1;
                flows.push(f);
                let g = FlowRecord::synthetic(ts, Addr::v4(0x8000_0000 + i * 4096), 2, 1);
                flows.push(g);
            }
        }
        flows.sort_by_key(|f| f.ts);
        flows
    }

    #[test]
    fn offline_run_classifies_and_snapshots() {
        let mut engine = IpdEngine::new(test_params()).unwrap();
        let mut ticks = 0;
        let mut snapshots = Vec::new();
        run_offline(
            &mut engine,
            BucketDriver::new(5),
            flows_two_halves(200, 10),
            &mut NoopHook,
            |o| match o {
                PipelineOutput::Tick(_) => ticks += 1,
                PipelineOutput::Snapshot(s) => snapshots.push(s),
            },
        );
        assert_eq!(ticks, 10, "one tick per crossed bucket + final");
        assert!(!snapshots.is_empty());
        let last = snapshots.last().unwrap();
        let lpm = last.lpm_table();
        assert!(lpm
            .lookup(Addr::v4(0x0100_0000))
            .unwrap()
            .1
            .is_link(IngressPoint::new(1, 1)));
        assert!(lpm
            .lookup(Addr::v4(0x9100_0000))
            .unwrap()
            .1
            .is_link(IngressPoint::new(2, 1)));
    }

    /// One [`PipelineHook`] callback as [`HookLog`] records it.
    #[derive(Debug, Clone, PartialEq)]
    enum HookEvent {
        Flows(usize),
        Crossed(BucketClock),
        Finished(BucketClock),
        Closed(BucketClock),
    }

    /// Logs every callback. Consecutive `flows` calls merge into one count,
    /// so drivers that batch differently log the same sequence.
    #[derive(Clone, Default)]
    struct HookLog(Arc<Mutex<Vec<HookEvent>>>);

    impl HookLog {
        fn events(&self) -> Vec<HookEvent> {
            self.0.lock().unwrap().clone()
        }
    }

    impl PipelineHook for HookLog {
        fn flows(&mut self, flows: &[FlowRecord]) {
            let mut log = self.0.lock().unwrap();
            match log.last_mut() {
                Some(HookEvent::Flows(n)) => *n += flows.len(),
                _ => log.push(HookEvent::Flows(flows.len())),
            }
        }
        fn bucket_crossed(&mut self, _: &IpdEngine, clock: BucketClock) {
            self.0.lock().unwrap().push(HookEvent::Crossed(clock));
        }
        fn finished(&mut self, _: &IpdEngine, clock: BucketClock) {
            self.0.lock().unwrap().push(HookEvent::Finished(clock));
        }
        fn closed(&mut self, _: &IpdEngine, clock: BucketClock) {
            self.0.lock().unwrap().push(HookEvent::Closed(clock));
        }
    }

    /// Every driver produces the same outputs and the same hook sequence:
    /// the batched offline runner, the threaded pipeline at several batch
    /// sizes, and a per-flow loop of observe, journal, ingest. Durable
    /// state journals and checkpoints on these callbacks.
    #[test]
    fn threaded_pipeline_matches_offline() {
        let flows = flows_two_halves(100, 6);
        // Offline reference.
        let mut ref_engine = IpdEngine::new(test_params()).unwrap();
        let mut ref_outputs = Vec::new();
        let ref_log = HookLog::default();
        run_offline(
            &mut ref_engine,
            BucketDriver::new(2),
            flows.clone(),
            &mut ref_log.clone(),
            |o| ref_outputs.push(o),
        );
        let want = ref_log.events();
        let crossings = want
            .iter()
            .filter(|e| matches!(e, HookEvent::Crossed(_)))
            .count();
        assert_eq!(crossings, 5, "six minutes cross five boundaries");
        let logged: usize = want
            .iter()
            .map(|e| match e {
                HookEvent::Flows(n) => *n,
                _ => 0,
            })
            .sum();
        assert_eq!(logged, flows.len());
        assert!(matches!(
            want[want.len() - 2..],
            [HookEvent::Finished(_), HookEvent::Closed(_)]
        ));

        // One flow at a time.
        let mut engine = IpdEngine::new(test_params()).unwrap();
        let mut driver = BucketDriver::new(2);
        let mut per_flow = HookLog::default();
        for flow in &flows {
            driver.observe(&mut engine, flow.ts, &mut |_| {}, &mut per_flow);
            per_flow.flows(std::slice::from_ref(flow));
            engine.ingest(flow);
        }
        driver.finish(&mut engine, &mut |_| {}, &mut per_flow);
        assert_eq!(per_flow.events(), want, "per-flow hook sequence");
        assert_eq!(engine.stats(), ref_engine.stats());

        // Threaded runs with the same data.
        for batch in [1, 97, 4096] {
            let log = HookLog::default();
            let pipeline = IpdPipeline::spawn_hooked(
                PipelineConfig {
                    params: test_params(),
                    channel_capacity: 16,
                    snapshot_every_ticks: 2,
                    ..Default::default()
                },
                Box::new(log.clone()),
            )
            .unwrap();
            let tx = pipeline.input();
            // Collect concurrently to avoid backpressure deadlock.
            let rx = pipeline.output().clone();
            let drainer = std::thread::spawn(move || rx.iter().collect::<Vec<_>>());
            for chunk in flows.chunks(batch) {
                tx.send(chunk.to_vec()).unwrap();
            }
            drop(tx);
            let (engine, _, leftover) = pipeline.finish_hooked();
            assert!(leftover.is_empty());
            let outputs = drainer.join().unwrap();

            assert_eq!(engine.stats(), ref_engine.stats(), "batch {batch}");
            assert_eq!(engine.classified_count(), ref_engine.classified_count());
            // Same number and kinds of outputs in the same order.
            let kinds = |v: &[PipelineOutput]| -> Vec<bool> {
                v.iter()
                    .map(|o| matches!(o, PipelineOutput::Snapshot(_)))
                    .collect()
            };
            assert_eq!(kinds(&outputs), kinds(&ref_outputs), "batch {batch}");
            assert_eq!(log.events(), want, "batch {batch} hook sequence");
        }
    }

    /// A consumer that took the output receives the whole stream, in
    /// emission order, however slowly it drains: `finish` must not read the
    /// channel behind its back, or the last outputs end up split between
    /// the two and reordered.
    #[test]
    fn taken_output_receives_every_output_in_order() {
        let flows = flows_two_halves(50, 12);
        let key = |o: &PipelineOutput| match o {
            PipelineOutput::Tick(t) => (false, t.now),
            PipelineOutput::Snapshot(s) => (true, s.ts),
        };
        let mut ref_engine = IpdEngine::new(test_params()).unwrap();
        let mut want = Vec::new();
        run_offline(
            &mut ref_engine,
            BucketDriver::new(1),
            flows.clone(),
            &mut NoopHook,
            |o| want.push(key(&o)),
        );

        let pipeline = IpdPipeline::spawn_hooked(
            PipelineConfig {
                params: test_params(),
                channel_capacity: 4,
                snapshot_every_ticks: 1,
                ..Default::default()
            },
            Box::new(NoopHook),
        )
        .unwrap();
        let rx = pipeline.output().clone();
        // Slow enough that the engine thread has exited, with outputs
        // still queued, before the consumer gets to them.
        let drainer = std::thread::spawn(move || {
            rx.iter()
                .map(|o| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    key(&o)
                })
                .collect::<Vec<_>>()
        });
        let tx = pipeline.input();
        for chunk in flows.chunks(97) {
            tx.send(chunk.to_vec()).unwrap();
        }
        drop(tx);
        let (_, _, leftover) = pipeline.finish_hooked();
        assert!(leftover.is_empty(), "finish read a taken output channel");
        assert_eq!(drainer.join().unwrap(), want);
    }

    #[test]
    fn readers_decode_and_forward() {
        let (gram_tx, gram_rx) = bounded(64);
        let (flow_tx, flow_rx) = bounded(64);
        let reader = std::thread::spawn(move || run_reader(gram_rx, flow_tx, 10));
        let mut exporter = V5Exporter::new(4, 0, 1000, 0);
        let records: Vec<FlowRecord> = (0..25)
            .map(|i| FlowRecord::synthetic(60, Addr::v4(0x0A000000 + i), 4, 2))
            .collect();
        for gram in exporter.encode(60, &records).unwrap() {
            gram_tx.send((4, gram)).unwrap();
        }
        // A garbage datagram must be survivable.
        gram_tx.send((4, Bytes::from_static(&[0, 9, 9]))).unwrap();
        drop(gram_tx);
        let stats = reader.join().unwrap();
        let got: Vec<FlowRecord> = flow_rx.iter().flatten().collect();
        assert_eq!(got.len(), 25);
        assert_eq!(stats.records, 25);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn late_data_does_not_rewind_ticks() {
        let mut engine = IpdEngine::new(test_params()).unwrap();
        let mut driver = BucketDriver::new(1000);
        let mut ticks = Vec::new();
        let mut out = |o: PipelineOutput| {
            if let PipelineOutput::Tick(t) = o {
                ticks.push(t.now);
            }
        };
        for ts in [10u64, 70, 65, 130, 50, 200] {
            driver.observe(&mut engine, ts, &mut out, &mut NoopHook);
            engine.ingest_parts(ts, Addr::v4(1), IngressPoint::new(1, 1), 1);
        }
        driver.finish(&mut engine, &mut out, &mut NoopHook);
        // Buckets crossed: 0→1 (tick @60), 1→2 (@120), 2→3 (@180), final (@240).
        assert_eq!(ticks, vec![60, 120, 180, 240]);
    }

    #[test]
    fn one_second_buckets_tick_every_second() {
        let mut engine = IpdEngine::new(IpdParams {
            t_secs: 1,
            ..test_params()
        })
        .unwrap();
        let mut driver = BucketDriver::new(1000);
        let mut ticks = Vec::new();
        let mut out = |o: PipelineOutput| {
            if let PipelineOutput::Tick(t) = o {
                ticks.push(t.now);
            }
        };
        for ts in [0u64, 1, 3, 3, 4] {
            driver.observe(&mut engine, ts, &mut out, &mut NoopHook);
            engine.ingest_parts(ts, Addr::v4(ts as u32), IngressPoint::new(1, 1), 1);
        }
        driver.finish(&mut engine, &mut out, &mut NoopHook);
        // Every crossed 1-second boundary ticks exactly once, including both
        // seconds of the 1→3 jump; the final tick closes bucket 4.
        assert_eq!(ticks, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn duplicate_timestamps_at_bucket_boundary_tick_once() {
        let mut engine = IpdEngine::new(test_params()).unwrap();
        let mut driver = BucketDriver::new(1000);
        let mut ticks = Vec::new();
        let mut out = |o: PipelineOutput| {
            if let PipelineOutput::Tick(t) = o {
                ticks.push(t.now);
            }
        };
        // Several flows stamped exactly at the boundary must fire the tick
        // for the crossed bucket once, not once per duplicate.
        for ts in [59u64, 60, 60, 60, 61] {
            driver.observe(&mut engine, ts, &mut out, &mut NoopHook);
        }
        assert_eq!(ticks, vec![60]);
    }

    #[test]
    fn backward_multi_bucket_jump_never_rewinds() {
        let mut engine = IpdEngine::new(test_params()).unwrap();
        let mut driver = BucketDriver::new(1000);
        let mut ticks = Vec::new();
        let mut out = |o: PipelineOutput| {
            if let PipelineOutput::Tick(t) = o {
                ticks.push(t.now);
            }
        };
        // A flow far in the future, then stragglers several buckets back:
        // the stragglers are ingested but fire nothing, and the next
        // forward crossing resumes from the *maximum* bucket seen.
        for ts in [310u64, 60, 0, 250, 311] {
            driver.observe(&mut engine, ts, &mut out, &mut NoopHook);
            engine.ingest_parts(ts, Addr::v4(7), IngressPoint::new(1, 1), 1);
        }
        driver.observe(&mut engine, 370, &mut out, &mut NoopHook);
        // Nothing fired for the backward jumps; the forward crossing resumes
        // from the maximum bucket with a single tick.
        assert_eq!(
            ticks,
            vec![360],
            "one tick, not one per skipped bucket backwards"
        );
    }

    #[test]
    fn batched_observe_matches_per_flow_observe() {
        // The batch driver used by IpdPipeline must fire the same ticks
        // at the same data times as the per-flow path, including a batch
        // spanning several boundaries and late data inside the batch.
        let flows: Vec<FlowRecord> = [10u64, 59, 60, 60, 130, 95, 250, 240, 305]
            .iter()
            .map(|&ts| FlowRecord::synthetic(ts, Addr::v4(ts as u32 * 131), 1, 1))
            .collect();

        let mut ref_engine = IpdEngine::new(test_params()).unwrap();
        let mut ref_driver = BucketDriver::new(1000);
        let mut ref_ticks = Vec::new();
        let mut ref_out = |o: PipelineOutput| {
            if let PipelineOutput::Tick(t) = o {
                ref_ticks.push(t.now);
            }
        };
        for f in &flows {
            ref_driver.observe(&mut ref_engine, f.ts, &mut ref_out, &mut NoopHook);
            ref_engine.ingest(f);
        }

        let mut engine = IpdEngine::new(test_params()).unwrap();
        let mut driver = BucketDriver::new(1000);
        let mut ticks = Vec::new();
        let mut out = |o: PipelineOutput| {
            if let PipelineOutput::Tick(t) = o {
                ticks.push(t.now);
            }
        };
        driver.ingest_batch(&mut engine, &flows, &mut out, &mut NoopHook);

        assert_eq!(ticks, ref_ticks);
        assert_eq!(engine.stats(), ref_engine.stats());
        assert_eq!(
            engine.snapshot(999).digest(),
            ref_engine.snapshot(999).digest()
        );
    }

    #[test]
    fn reader_survives_engine_disconnect_mid_stream() {
        let (gram_tx, gram_rx) = bounded(64);
        let (flow_tx, flow_rx) = bounded::<Vec<FlowRecord>>(1);
        let reader = std::thread::spawn(move || run_reader(gram_rx, flow_tx, 5));
        let mut exporter = V5Exporter::new(4, 0, 1000, 0);
        let records: Vec<FlowRecord> = (0..30u32)
            .map(|i| FlowRecord::synthetic(60, Addr::v4(0x0A00_0000 + i * 64), 4, 2))
            .collect();
        // One 25-record datagram: `feed` decodes the whole datagram before
        // the batch-size check, so this arrives downstream as a single batch.
        for gram in exporter.encode(60, &records[..25]).unwrap() {
            gram_tx.send((4, gram)).unwrap();
        }
        let first = flow_rx.recv().expect("the first batch is forwarded");
        assert_eq!(first.len(), 25);
        // Kill the downstream "engine" mid-stream, then keep exporting. The
        // reader must decode the next datagram, notice the dead channel on
        // its send, stop forwarding, and still return its decode stats —
        // without panicking and without wedging the datagram producer.
        drop(flow_rx);
        gram_tx.send((4, Bytes::from_static(&[0, 9, 9]))).unwrap(); // malformed: counted, no send
        for gram in exporter.encode(61, &records[25..]).unwrap() {
            gram_tx.send((4, gram)).unwrap();
        }
        drop(gram_tx);
        let stats = reader.join().expect("reader must not panic on disconnect");
        assert_eq!(
            stats.records, 30,
            "everything fed before the failed send is counted"
        );
        assert_eq!(
            stats.errors, 1,
            "the malformed datagram is counted, not fatal"
        );
    }

    #[test]
    fn gap_in_stream_fires_intermediate_ticks_for_decay() {
        let mut engine = IpdEngine::new(test_params()).unwrap();
        let mut driver = BucketDriver::new(1000);
        let mut n = 0;
        let mut out = |o: PipelineOutput| {
            if matches!(o, PipelineOutput::Tick(_)) {
                n += 1;
            }
        };
        driver.observe(&mut engine, 30, &mut out, &mut NoopHook);
        driver.observe(&mut engine, 630, &mut out, &mut NoopHook);
        assert_eq!(n, 10, "a 10-bucket gap fires 10 ticks");
    }
}
