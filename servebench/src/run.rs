//! The timed phase of each workload and the output checks that follow it.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use ipd::pipeline::{run_reader, IpdPipeline};
use ipd::{IpdEngine, LogicalIngress};
use ipd_hist::HistStore;
use ipd_lpm::Prefix;
use ipd_netflow::{Collector, CollectorStats, FlowRecord, RouterId};
use ipd_serve::proto::{AnswerKind, WireAnswer};
use ipd_serve::{LiveStore, ServeClient, ServeServer, ServeTelemetry, Versioned};
use ipd_spoof::{MapView, SpoofDetector, Verdict, VerdictDigest, VerdictRecord};
use ipd_topology::IngressPoint;

use crate::hook::{Output, Publication};
use crate::inputs::Pool;
use crate::layers::{self, EngineCheck, Metrics};
use crate::setup::{wire_minutes, Setup, DATAGRAM_QUEUE, READER_BATCH};
use crate::stats::{quantile, sorted, tail};
use crate::trace::{Clock, SpanLog};
use crate::{run_dir, Args, Workload};

/// Consumer threads and connections of `lookup` (the `spoof --server`
/// pool size); `live` runs one.
const LOOKUP_CONSUMERS: usize = 2;
/// `lookup` compares every this-many-th batch with in-process lookups.
const VERIFY_EVERY: usize = 64;

/// Operations attempted and failed, and which checks failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    fn check(&mut self, ok: bool, what: impl AsRef<str>) {
        self.ops(1, u64::from(!ok), what.as_ref());
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// What a timed phase measured.
pub struct PhaseOut {
    /// Flows ingested (`ingest`) or judged (`lookup`, `live`) per second.
    pub flows_per_s: f64,
    /// The workload's latency samples in ms: bucket close to epoch visible
    /// (`ingest`), RPC round trip (`lookup`), publish latency (`live`).
    pub latency_ms: Vec<f64>,
    /// Named figures for the human-readable report.
    pub report: Vec<String>,
    pub checks: Checks,
    pub rss_mib: f64,
    pub layers: Metrics,
    pub logs: Vec<SpanLog>,
    pub engine_check: Option<EngineCheck>,
}

impl PhaseOut {
    fn new() -> Self {
        PhaseOut {
            flows_per_s: 0.0,
            latency_ms: Vec::new(),
            report: Vec::new(),
            checks: Checks::default(),
            rss_mib: 0.0,
            layers: Metrics::new(),
            logs: Vec::new(),
            engine_check: None,
        }
    }

    fn line(&mut self, name: &str, value: f64, unit: &str, note: impl AsRef<str>) {
        self.report
            .push(format!("{name} = {value:.3} {unit} {}", note.as_ref()));
    }

    pub fn latency_p50(&self) -> f64 {
        quantile(&sorted(self.latency_ms.clone()), 0.5)
    }
}

pub fn run(setup: Setup, args: &Args, traced: bool) -> Result<PhaseOut, String> {
    match args.workload {
        Workload::Ingest => ingest(setup, args, traced),
        Workload::Lookup => lookup(setup, args, traced),
        Workload::Live => live(setup, args, traced),
    }
}

/// Reader-thread record of the traced run.
struct ReaderTrace {
    log: SpanLog,
    /// `(flows handed over so far, ns when the batch was queued)`.
    batches: Vec<(u64, u64)>,
    decode_ns: u64,
}

/// `run_reader` with spans around each `Collector::feed` and each
/// hand-off to the engine.
fn traced_reader(
    datagrams: Receiver<(RouterId, Bytes)>,
    flows_out: Sender<Vec<FlowRecord>>,
    clock: Clock,
) -> (CollectorStats, ReaderTrace) {
    let mut collector = Collector::new();
    let mut batch: Vec<FlowRecord> = Vec::with_capacity(READER_BATCH);
    let mut trace = ReaderTrace {
        log: SpanLog::new("reader"),
        batches: Vec::new(),
        decode_ns: 0,
    };
    let (mut sent, mut batch_start, mut first_child) = (0u64, None, 0usize);
    let mut hand_off = |batch: Vec<FlowRecord>, trace: &mut ReaderTrace, start: u64, first| {
        let key = trace.batches.len() as u64;
        sent += batch.len() as u64;
        let t0 = clock.ns();
        let ok = flows_out.send(batch).is_ok();
        let t1 = clock.ns();
        trace.log.push("reader.send", key, t0, t1, None);
        let root = trace.log.push("reader.batch", key, start, t1, None);
        let end = trace.log.spans.len() - 1;
        for s in &mut trace.log.spans[first..end] {
            s.parent = Some(root);
        }
        trace.batches.push((sent, t1));
        ok
    };
    loop {
        let t0 = clock.ns();
        let Ok((router, datagram)) = datagrams.recv() else {
            break;
        };
        let t1 = clock.ns();
        if batch_start.is_none() {
            batch_start = Some(t0);
            first_child = trace.log.spans.len();
        }
        // As in `run_reader`: a malformed datagram is counted and skipped.
        let _ = collector.feed(&datagram, router, &mut batch);
        let t2 = clock.ns();
        trace.decode_ns += t2 - t1;
        trace.log.push(
            "ipd-netflow.decode",
            trace.batches.len() as u64,
            t1,
            t2,
            None,
        );
        if batch.len() >= READER_BATCH {
            let full = std::mem::replace(&mut batch, Vec::with_capacity(READER_BATCH));
            let start = batch_start.take().unwrap_or(t0);
            if !hand_off(full, &mut trace, start, first_child) {
                break;
            }
        }
    }
    if !batch.is_empty() {
        let start = batch_start.take().unwrap_or_else(|| clock.ns());
        hand_off(batch, &mut trace, start, first_child);
    }
    (collector.stats().clone(), trace)
}

type ReaderHandle = JoinHandle<(CollectorStats, Option<ReaderTrace>)>;
type Drainer = JoinHandle<Vec<Output>>;

/// The timed phase's reader: `run_reader` itself, or its traced twin.
fn spawn_reader(
    datagrams: Receiver<(RouterId, Bytes)>,
    flows_out: Sender<Vec<FlowRecord>>,
    clock: Option<Clock>,
) -> ReaderHandle {
    std::thread::spawn(move || match clock {
        None => (run_reader(datagrams, flows_out, READER_BATCH), None),
        Some(clock) => {
            let (stats, trace) = traced_reader(datagrams, flows_out, clock);
            (stats, Some(trace))
        }
    })
}

/// How long the generator sleeps while the datagram queue is full, and at
/// least while waiting for the next due time. Datagrams are queued in
/// bursts of up to this much traffic, so the generator wakes about a
/// thousand times a second rather than once per datagram, and contends
/// less with the reader for the second core.
const GEN_TICK: Duration = Duration::from_millis(1);

/// The load generator: pushes pre-encoded datagrams into the reader's
/// bounded queue, closed loop or at due times.
struct Generator {
    tx: Sender<(RouterId, Bytes)>,
    /// The queue's receiving side, to see whether it is full.
    queue: Receiver<(RouterId, Bytes)>,
    clock: Clock,
    /// Spans of the traced run, and time spent waiting for room.
    log: Option<(SpanLog, u64)>,
}

impl Generator {
    fn new(
        tx: Sender<(RouterId, Bytes)>,
        queue: Receiver<(RouterId, Bytes)>,
        clock: Clock,
        traced: bool,
    ) -> Self {
        Generator {
            tx,
            queue,
            clock,
            log: traced.then(|| (SpanLog::new("generator"), 0)),
        }
    }

    /// Send each datagram once it is due (`None`: at once) and there is
    /// room; returns how late the latest one left.
    fn feed(
        &mut self,
        grams: &[(RouterId, Bytes)],
        due: Option<&dyn Fn(usize) -> Instant>,
    ) -> Result<Duration, String> {
        let mut late = Duration::ZERO;
        for (i, gram) in grams.iter().enumerate() {
            let due = due.map(|d| d(i));
            if let Some(due) = due {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep((due - now).max(GEN_TICK));
                }
            }
            if self.queue.is_full() {
                let t0 = self.clock.ns();
                while self.queue.is_full() {
                    std::thread::sleep(GEN_TICK);
                }
                if let Some((log, blocked)) = &mut self.log {
                    let t1 = self.clock.ns();
                    *blocked += t1 - t0;
                    log.push("gen.blocked", 0, t0, t1, None);
                }
            }
            self.tx
                .send(gram.clone())
                .map_err(|_| "the reader hung up")?;
            if let Some(due) = due {
                late = late.max(Instant::now().saturating_duration_since(due));
            }
        }
        Ok(late)
    }

    /// Close the queue; in the traced run, return the generator's spans
    /// under one root and set `gen.blocked_ms`.
    fn finish(self, start: Instant, end: Instant, m: &mut Metrics) -> Option<SpanLog> {
        let (mut log, blocked) = self.log?;
        let root = log.push("gen.run", 0, self.clock.at(start), self.clock.at(end), None);
        for s in &mut log.spans[..root] {
            s.parent = Some(root);
        }
        m.set("gen.blocked_ms", blocked as f64 / 1e6);
        Some(log)
    }
}

fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn ingest(mut s: Setup, args: &Args, traced: bool) -> Result<PhaseOut, String> {
    let mut out = PhaseOut::new();
    let pipeline = s
        .pipeline
        .take()
        .expect("ingest keeps its pipeline running");
    let clock = s.clock;
    let (gram_tx, gram_rx) = bounded(DATAGRAM_QUEUE);
    let mut gen = Generator::new(gram_tx, gram_rx.clone(), clock, traced);
    let reader = spawn_reader(gram_rx, pipeline.input(), traced.then_some(clock));
    let start = Instant::now();
    let wire = &s.timed.wire;
    gen.feed(&wire.grams, None)?;
    let sent = Instant::now();
    let gen_log = gen.finish(start, sent, &mut out.layers);
    let (stats, reader_trace) = reader.join().map_err(|_| "reader panicked")?;
    let (engine, outputs) = close(pipeline, &mut s.drainer)?;
    let pubs = s.shared.publications();
    let terminal = pubs.last().expect("close always publishes");
    out.flows_per_s = wire.flows() as f64 / (terminal.visible - start).as_secs_f64();
    out.latency_ms = pubs
        .iter()
        .filter(|p| p.start >= start)
        .filter_map(|p| p.last_flow.map(|l| ms_between(l, p.visible)))
        .collect();
    out.rss_mib = s.rss.as_ref().map_or(0.0, |r| r.growth_mib());
    out.line(
        "ingest_flows_per_s",
        out.flows_per_s,
        "flows/s",
        format!("({} flows)", wire.flows()),
    );
    let n = out.latency_ms.len();
    out.line(
        "publish_latency_ms_p50",
        out.latency_p50(),
        "ms",
        format!("(closed loop, bucket's last flow to epoch visible, n={n})"),
    );

    let store = s.swap.load();
    store_report(&mut out, &store);
    check_decode(&mut out.checks, &s, Some(&stats), &engine);
    let rows = check_rows(&mut out.checks, &store.value, &engine);
    let hist = s.hist.as_ref().expect("ingest records history");
    check_history(&mut out.checks, &s, hist, &rows, &pubs);
    let digest = engine.snapshot(store.value.ts()).digest();
    check_repeat(
        &mut out.checks,
        &format!(
            "ingest-{}-{}-{}m",
            args.tier.name,
            args.seed,
            wire_minutes(args)
        ),
        &format!("{digest:#018x}"),
    );

    if traced {
        out.logs = write_path_layers(
            &mut out,
            &s,
            (&stats, reader_trace),
            &outputs,
            &engine,
            start,
        )?;
        out.logs.extend(gen_log);
        let m = &mut out.layers;
        m.set("hist.bytes_on_disk", hist.bytes_on_disk() as f64);
        let failed = s.shared.hist_failed.load(Ordering::Relaxed);
        m.set("hist.errors", f64::from(u8::from(failed)));
    }
    crate::setup::teardown(s);
    Ok(out)
}

fn lookup(mut s: Setup, args: &Args, traced: bool) -> Result<PhaseOut, String> {
    let mut out = PhaseOut::new();
    let server = ServeServer::serve("127.0.0.1:0", s.swap.clone(), ServeTelemetry::default())
        .map_err(|e| format!("bind: {e}"))?;
    let store = s.swap.load();
    let detector = s.detector.as_ref().expect("lookup builds a detector");
    let pool = &s.timed.pool;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let stop = || Instant::now() >= deadline;
    let clock = traced.then_some(s.clock);
    let consumers: Vec<ConsumerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LOOKUP_CONSUMERS)
            .map(|id| {
                let c = Consumer {
                    id,
                    addr: server.local_addr(),
                    pool,
                    batches: (id..pool.batches()).step_by(LOOKUP_CONSUMERS).collect(),
                    detector,
                    stop: &stop,
                    verify: Some(&store.value),
                    clock,
                };
                scope.spawn(move || c.run())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("consumer panicked"))
            .collect()
    });
    server.shutdown();
    let engine = s.engine.take().expect("lookup keeps the closed engine");
    let first = consumers.iter().filter_map(|c| c.start).min();
    let last = consumers.iter().filter_map(|c| c.end).max();
    let verdicts: u64 = consumers.iter().map(|c| c.verdicts).sum();
    if let (Some(first), Some(last)) = (first, last) {
        out.flows_per_s = verdicts as f64 / (last - first).as_secs_f64();
    }
    let rpc_ms: Vec<f64> = consumers
        .iter()
        .flat_map(|c| c.rpc_ms.iter().copied())
        .collect();
    out.latency_ms = rpc_ms.clone();
    out.rss_mib = s.rss.as_ref().map_or(0.0, |r| r.growth_mib());
    out.line(
        "verdicts_per_s",
        out.flows_per_s,
        "verdicts/s",
        format!("({verdicts} verdicts)"),
    );
    rpc_report(&mut out, &rpc_ms);

    check_consumers(&mut out.checks, &consumers);
    check_decode(&mut out.checks, &s, None, &engine);
    check_rows(&mut out.checks, &store.value, &engine);
    let digests: Vec<String> = consumers
        .iter()
        .map(|c| {
            c.digest
                .map_or("incomplete".into(), |d| format!("{d:#018x}"))
        })
        .collect();
    out.checks.check(
        consumers.iter().all(|c| c.digest.is_some()),
        "every consumer judged its whole partition",
    );
    check_repeat(
        &mut out.checks,
        &format!("lookup-{}-{}", args.tier.name, args.seed),
        &digests.join(","),
    );

    if traced {
        let m = &mut out.layers;
        consumer_layers(m, &consumers, &rpc_ms);
        // In-process lookups over the same keys the consumers sent.
        let t = Instant::now();
        let mut hits = 0u64;
        for a in &pool.addrs {
            hits += u64::from(std::hint::black_box(store.value.lookup(*a)).is_some());
        }
        let ns = t.elapsed().as_nanos() as f64 / pool.addrs.len().max(1) as f64;
        std::hint::black_box(hits);
        m.set("serve.lookup_ns_per_key", ns);
        m.set("publish.rows", store.value.len() as f64);
        out.logs = consumers.into_iter().filter_map(|c| c.log).collect();
    }
    crate::setup::teardown(s);
    Ok(out)
}

fn live(mut s: Setup, args: &Args, traced: bool) -> Result<PhaseOut, String> {
    let mut out = PhaseOut::new();
    let pipeline = s.pipeline.take().expect("live keeps its pipeline running");
    let server = ServeServer::serve("127.0.0.1:0", s.swap.clone(), ServeTelemetry::default())
        .map_err(|e| format!("bind: {e}"))?;
    let clock = s.clock;
    let detector = s.detector.as_ref().expect("live builds a detector");
    let wire = &s.timed.wire;
    let pool = &s.timed.pool;
    let rate = args.tier.live_rate;
    let stop_flag = AtomicBool::new(false);
    let stop = || stop_flag.load(Ordering::Acquire);
    let (gram_tx, gram_rx) = bounded(DATAGRAM_QUEUE);
    let mut gen = Generator::new(gram_tx, gram_rx.clone(), clock, traced);
    let reader = spawn_reader(gram_rx, pipeline.input(), traced.then_some(clock));
    let consumer = Consumer {
        id: 0,
        addr: server.local_addr(),
        pool,
        batches: (0..pool.batches()).collect(),
        detector,
        stop: &stop,
        verify: None,
        clock: traced.then_some(clock),
    };
    let due = |t0: Instant, gram: usize| t0 + Duration::from_secs_f64(wire.cum[gram] as f64 / rate);
    let mut gen_log = None;
    let (t0, late_max, consumer, joined) = std::thread::scope(|scope| {
        let consumer = scope.spawn(move || consumer.run());
        // Open loop: each datagram leaves at its due time, whatever the
        // system does; a stall shows as lateness of the datagrams after it.
        let t0 = Instant::now();
        let fed = gen.feed(&wire.grams, Some(&|i| due(t0, i)));
        gen_log = gen.finish(t0, Instant::now(), &mut out.layers);
        let joined = reader.join();
        let (engine, _, _) = pipeline.finish_hooked();
        stop_flag.store(true, Ordering::Release);
        let consumer = consumer.join().expect("consumer panicked");
        let fed_ok = fed.is_ok();
        (
            t0,
            fed.unwrap_or_default(),
            consumer,
            joined.ok().filter(|_| fed_ok).map(|r| (r, engine)),
        )
    });
    let ((stats, reader_trace), engine) = joined.ok_or("reader panicked or hung up")?;
    server.shutdown();
    let outputs = join_drainer(&mut s.drainer)?;
    let pubs = s.shared.publications();

    // Publish latency: from the due time of the datagram that closes a
    // bucket to the consumer's first answer from that bucket's epoch.
    let mut missing = 0;
    for &(bucket, gram) in &wire.bucket_starts {
        let epoch = pubs
            .iter()
            .find(|p| p.bucket == Some(bucket - 1))
            .map(|p| p.epoch);
        let seen = epoch.and_then(|e| consumer.first_seen.iter().find(|(s, _)| *s >= e));
        match seen {
            Some(&(_, at)) => out.latency_ms.push(ms_between(due(t0, gram), at)),
            None => missing += 1,
        }
    }
    if let (Some(start), Some(end)) = (consumer.start, consumer.end) {
        out.flows_per_s = consumer.verdicts as f64 / (end - start).as_secs_f64();
    }
    out.rss_mib = s.rss.as_ref().map_or(0.0, |r| r.growth_mib());
    let terminal = pubs.last().expect("close always publishes");
    let n = out.latency_ms.len();
    out.line(
        "verdicts_per_s",
        out.flows_per_s,
        "verdicts/s",
        format!("({} verdicts)", consumer.verdicts),
    );
    rpc_report(&mut out, &consumer.rpc_ms);
    let samples: Vec<String> = out.latency_ms.iter().map(|l| format!("{l:.0}")).collect();
    out.line(
        "publish_latency_ms_p50",
        out.latency_p50(),
        "ms",
        format!("(n={n}: {})", samples.join(" ")),
    );
    let lat = sorted(out.latency_ms.clone());
    out.line(
        "publish_latency_ms_max",
        lat.last().copied().unwrap_or(0.0),
        "ms",
        format!("(tail, n={n})"),
    );
    out.line(
        "offered_flows_per_s",
        rate,
        "flows/s",
        format!(
            "(achieved {:.0} flows/s to the terminal epoch; generator at most {:.3} ms late)",
            wire.flows() as f64 / (terminal.visible - t0).as_secs_f64(),
            late_max.as_secs_f64() * 1e3
        ),
    );

    out.checks.ops(
        wire.bucket_starts.len() as u64,
        missing,
        "timed bucket epochs seen by the consumer",
    );
    check_consumers(&mut out.checks, std::slice::from_ref(&consumer));
    check_decode(&mut out.checks, &s, Some(&stats), &engine);
    let store = s.swap.load();
    store_report(&mut out, &store);
    check_rows(&mut out.checks, &store.value, &engine);

    if traced {
        out.logs = write_path_layers(&mut out, &s, (&stats, reader_trace), &outputs, &engine, t0)?;
        let m = &mut out.layers;
        m.set("gen.late_ms_max", late_max.as_secs_f64() * 1e3);
        consumer_layers(m, std::slice::from_ref(&consumer), &consumer.rpc_ms);
        m.set(
            "publish_latency_ms_tail",
            lat.last().copied().unwrap_or(0.0),
        );
        out.logs.extend(gen_log.into_iter().chain(consumer.log));
    }
    crate::setup::teardown(s);
    Ok(out)
}

/// Close the pipeline's input and wait for its terminal publication.
fn close(
    pipeline: IpdPipeline,
    drainer: &mut Option<Drainer>,
) -> Result<(IpdEngine, Vec<Output>), String> {
    let (engine, _, _) = pipeline.finish_hooked();
    Ok((engine, join_drainer(drainer)?))
}

fn join_drainer(drainer: &mut Option<Drainer>) -> Result<Vec<Output>, String> {
    drainer
        .take()
        .expect("drainer runs with the pipeline")
        .join()
        .map_err(|_| "output drainer panicked".into())
}

/// Per-layer metrics of the write path (decode, stage 1, stage 2, publish)
/// from a traced phase that began at `start`; returns the engine and
/// reader lanes.
fn write_path_layers(
    out: &mut PhaseOut,
    s: &Setup,
    (stats, reader): (&CollectorStats, Option<ReaderTrace>),
    outputs: &[Output],
    engine: &IpdEngine,
    start: Instant,
) -> Result<Vec<SpanLog>, String> {
    let m = &mut out.layers;
    let reader = reader.ok_or("no reader trace")?;
    decode_layers(m, stats, &reader);
    let trace = s.shared.trace.lock().expect("hook panicked").take();
    let (log, check) = layers::engine(
        m,
        trace.as_ref().ok_or("no engine trace")?,
        s.clock.at(start),
        &reader.batches,
        outputs,
        s.hist.is_some(),
    );
    let store = s.swap.load();
    m.set("stage2.ranges", engine.range_count() as f64);
    m.set("stage2.monitored_ips", engine.monitored_ip_count() as f64);
    m.set("publish.rows", store.value.len() as f64);
    let published: usize = s
        .shared
        .publications()
        .iter()
        .filter(|p| p.start >= start)
        .map(|p| p.rows)
        .sum();
    let changed = m.get("stage2.changed_ranges");
    m.set("publish.useful_ratio", changed / published.max(1) as f64);
    out.engine_check = Some(check);
    Ok(vec![log, reader.log])
}

/// The served map at the end: rows, dead arena cells, compaction rotations.
fn store_report(out: &mut PhaseOut, current: &Versioned<LiveStore>) {
    out.report.push(format!(
        "served map: {} rows, {} garbage cells, {} rotations, epoch {}",
        current.value.len(),
        current.value.garbage(),
        current.epoch,
        current.value.epoch()
    ));
}

fn rpc_report(out: &mut PhaseOut, rpc_ms: &[f64]) {
    let rpc = sorted(rpc_ms.to_vec());
    let n = rpc.len();
    out.line(
        "lookup_rpc_us_p50",
        1e3 * quantile(&rpc, 0.5),
        "us",
        format!("(n={n})"),
    );
    out.line(
        "lookup_rpc_us_p90",
        1e3 * quantile(&rpc, 0.9),
        "us",
        format!("(n={n})"),
    );
    if let Some((q, v)) = tail(&rpc) {
        out.line(
            "lookup_rpc_us_tail",
            1e3 * v,
            "us",
            format!("(p{q:.3}, n={n})"),
        );
    }
}

/// One consumer: a connection that sends 256-flow batches and judges every
/// answer, as `ipd-tool spoof --server` does.
struct Consumer<'a> {
    id: usize,
    addr: SocketAddr,
    pool: &'a Pool,
    /// Batch indices of this consumer's partition, judged in turn.
    batches: Vec<usize>,
    detector: &'a SpoofDetector,
    stop: &'a (dyn Fn() -> bool + Sync),
    /// A frozen store to compare sampled answers with.
    verify: Option<&'a LiveStore>,
    clock: Option<Clock>,
}

#[derive(Default)]
struct ConsumerOut {
    start: Option<Instant>,
    end: Option<Instant>,
    verdicts: u64,
    rpcs: u64,
    rpc_failed: u64,
    rpc_ms: Vec<f64>,
    /// First response stamped with each new epoch.
    first_seen: Vec<(u64, Instant)>,
    regressions: u64,
    checks: u64,
    mismatches: u64,
    /// Verdict digest over the first pass through the partition.
    digest: Option<u64>,
    verdict_counts: [u64; 3],
    mapped: u64,
    decide_ns: u64,
    log: Option<SpanLog>,
}

/// How a wire answer relates to where the flow arrived; a bundle carries
/// only its lowest member, so bundle matching is router equality.
fn wire_view(a: &WireAnswer, observed: IngressPoint) -> MapView {
    match a.kind {
        AnswerKind::Unmapped => MapView::Unmapped,
        AnswerKind::Link if a.router == observed.router && a.ifindex == observed.ifindex => {
            MapView::Match
        }
        AnswerKind::Bundle if a.router == observed.router => MapView::Match,
        _ => MapView::Mismatch,
    }
}

fn same_answer(a: &WireAnswer, b: &WireAnswer) -> bool {
    (
        a.kind,
        a.prefix_len,
        a.router,
        a.ifindex,
        a.confidence.to_bits(),
    ) == (
        b.kind,
        b.prefix_len,
        b.router,
        b.ifindex,
        b.confidence.to_bits(),
    )
}

impl Consumer<'_> {
    fn run(self) -> ConsumerOut {
        let mut out = ConsumerOut {
            log: self
                .clock
                .map(|_| SpanLog::new(format!("consumer{}", self.id))),
            ..ConsumerOut::default()
        };
        if self.batches.is_empty() {
            return out;
        }
        let mut client = match ServeClient::connect(self.addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("servebench: consumer {} cannot connect: {e}", self.id);
                out.rpc_failed += 1;
                return out;
            }
        };
        let mut digest = VerdictDigest::new();
        let mut last_epoch = 0;
        out.start = Some(Instant::now());
        for k in 0.. {
            // One last round trip after the stop signal, so a consumer
            // stopped right after a publication still observes it.
            let stopping = (self.stop)();
            let range = self.pool.batch(self.batches[k % self.batches.len()]);
            let t0 = Instant::now();
            let result = client.batch(&self.pool.addrs[range.clone()]);
            let t1 = Instant::now();
            out.rpcs += 1;
            let (epoch, answers) = match result {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("servebench: consumer {} rpc failed: {e}", self.id);
                    out.rpc_failed += 1;
                    break;
                }
            };
            out.rpc_ms.push(ms_between(t0, t1));
            if epoch < last_epoch {
                out.regressions += 1;
            } else if epoch > last_epoch {
                out.first_seen.push((epoch, t1));
                last_epoch = epoch;
            }
            let first_pass = k < self.batches.len();
            for (p, a) in self.pool.probes[range.clone()].iter().zip(&answers) {
                let map = wire_view(a, p.observed);
                let verdict = self.detector.decide(p.src, p.observed, p.ts, map);
                out.verdict_counts[verdict.index()] += 1;
                out.mapped += u64::from(a.is_mapped());
                if first_pass {
                    digest.observe(&VerdictRecord {
                        ts: p.ts,
                        src: p.src,
                        observed: p.observed,
                        verdict,
                        label: Some(p.label),
                        epoch,
                    });
                }
            }
            let t2 = Instant::now();
            out.verdicts += answers.len() as u64;
            if k + 1 == self.batches.len() {
                out.digest = Some(digest.finish());
            }
            if let Some(store) = self.verify.filter(|_| k % VERIFY_EVERY == 0) {
                out.checks += 1;
                let all_equal = self.pool.addrs[range]
                    .iter()
                    .zip(&answers)
                    .all(|(addr, a)| same_answer(a, &WireAnswer::from_lookup(store.lookup(*addr))));
                out.mismatches += u64::from(!all_equal);
            }
            if let (Some(log), Some(clock)) = (&mut out.log, self.clock) {
                let key = (self.id as u64) << 32 | out.rpcs;
                let (a, b, c) = (clock.at(t0), clock.at(t1), clock.at(t2));
                out.decide_ns += c - b;
                let root = log.push("consumer.batch", key, a, c, None);
                log.push("ipd-serve.rpc", key, a, b, Some(root));
                log.push("ipd-spoof.decide", key, b, c, Some(root));
            }
            if stopping {
                break;
            }
        }
        out.end = Some(Instant::now());
        out
    }
}

fn check_consumers(c: &mut Checks, consumers: &[ConsumerOut]) {
    for (i, con) in consumers.iter().enumerate() {
        c.ops(
            con.rpcs,
            con.rpc_failed,
            &format!("consumer {i} lookup RPCs"),
        );
        c.ops(
            con.checks,
            con.mismatches,
            &format!("consumer {i} sampled answers equal in-process LiveStore::lookup"),
        );
        c.check(
            con.regressions == 0,
            format!(
                "consumer {i} epochs never go backwards ({} regressions)",
                con.regressions
            ),
        );
    }
}

/// Reader statistics: every datagram decoded, none lost or reordered.
fn check_stats(c: &mut Checks, what: &str, st: &CollectorStats) {
    c.ops(
        st.datagrams + st.errors,
        st.errors,
        &format!("{what} datagrams decoded"),
    );
    c.check(
        st.sequence_gap == 0 && st.reordered == 0 && st.unknown_template_sets == 0,
        format!(
            "{what} datagrams complete and in order (gap {}, reordered {}, unknown template sets {})",
            st.sequence_gap, st.reordered, st.unknown_template_sets
        ),
    );
}

/// Decoded records equal the generated flows: reader statistics complete
/// and in order, and the engine took every flow (count and digest). `timed`
/// is the timed phase's reader, if the workload has one.
fn check_decode(c: &mut Checks, s: &Setup, timed: Option<&CollectorStats>, engine: &IpdEngine) {
    check_stats(c, "warm-up", &s.warm_stats);
    let (mut records, mut expected, mut digest) =
        (s.warm_stats.records, s.timed.warm_flows, s.warm_digest);
    if let Some(timed) = timed {
        check_stats(c, "timed", timed);
        records += timed.records;
        expected += s.timed.wire.flows();
        digest = digest.wrapping_add(s.timed.wire.digest);
    }
    c.check(
        records == expected
            && s.shared.flows.load(Ordering::Acquire) == expected
            && engine.stats().flows_ingested == expected
            && s.shared.digest.load(Ordering::Acquire) == digest,
        "decoded records equal the generated flows",
    );
}

type Row = (Prefix, LogicalIngress, f64);

fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((pa, ia, ca), (pb, ib, cb))| {
            pa == pb && ia == ib && ca.to_bits() == cb.to_bits()
        })
}

/// The served rows at the end against the final
/// `classified_snapshot(ts).lpm_table()`, bit for bit.
fn check_rows(c: &mut Checks, store: &LiveStore, engine: &IpdEngine) -> Vec<Row> {
    let snapshot = engine.classified_snapshot(store.ts());
    let table = snapshot.lpm_table();
    let mut want: Vec<Row> = snapshot
        .classified()
        .filter_map(|r| r.ingress.clone().map(|i| (r.range, i, r.confidence)))
        .collect();
    want.sort_by_key(|r| r.0);
    let rows = store.rows();
    c.check(
        same_rows(&rows, &want)
            && table.len() == rows.len()
            && rows.iter().all(|(p, i, _)| table.exact(*p) == Some(i)),
        "served rows are bit-identical to classified_snapshot(ts).lpm_table()",
    );
    rows
}

fn check_history(c: &mut Checks, s: &Setup, hist: &HistStore, rows: &[Row], pubs: &[Publication]) {
    let failed = s.shared.hist_failed.load(Ordering::Relaxed);
    c.ops(pubs.len() as u64, u64::from(failed), "history appends");
    let last = hist.last_epoch();
    c.check(
        last == pubs.len() as u64 && pubs.last().is_some_and(|p| p.epoch == last),
        format!(
            "history's last epoch ({last}) equals the publications ({})",
            pubs.len()
        ),
    );
    let image = hist.reader().image_at(last);
    c.check(
        matches!(&image, Ok(Some(img)) if same_rows(img.rows(), rows)),
        "history's final image equals the served rows",
    );
}

/// Outputs that must repeat across runs of one seed: the first run of a
/// build records them, later runs compare.
fn check_repeat(c: &mut Checks, key: &str, value: &str) {
    let dir = run_dir().join("digests");
    let path: PathBuf = dir.join(format!("{key}-{}", build_id()));
    match std::fs::read_to_string(&path) {
        Ok(prev) => c.check(
            prev == value,
            format!("{key} repeats across runs (recorded {prev}, now {value})"),
        ),
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, value);
        }
    }
}

/// Identifies the benchmark binary, so digests recorded by another build
/// are never compared.
fn build_id() -> String {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    match meta {
        Ok(m) => {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{:x}-{mtime:x}", m.len())
        }
        Err(_) => "unknown".into(),
    }
}

fn decode_layers(m: &mut Metrics, st: &CollectorStats, t: &ReaderTrace) {
    m.set("decode.datagrams", st.datagrams as f64);
    m.set("decode.records", st.records as f64);
    m.set("decode.busy_ms", t.decode_ns as f64 / 1e6);
    m.set(
        "decode.ns_per_record",
        t.decode_ns as f64 / st.records.max(1) as f64,
    );
    m.set("decode.errors", st.errors as f64);
}

fn consumer_layers(m: &mut Metrics, consumers: &[ConsumerOut], rpc_ms: &[f64]) {
    let rpc = sorted(rpc_ms.to_vec());
    let sum = |f: fn(&ConsumerOut) -> u64| consumers.iter().map(f).sum::<u64>() as f64;
    let lookups = sum(|c| c.verdicts);
    m.set("serve.rpcs", sum(|c| c.rpcs));
    m.set("serve.lookups", lookups);
    m.set("serve.rpc_us_p50", 1e3 * quantile(&rpc, 0.5));
    m.set("serve.rpc_us_p90", 1e3 * quantile(&rpc, 0.9));
    m.set("serve.rpc_us_p99", 1e3 * quantile(&rpc, 0.99));
    m.set(
        "serve.rpc_us_tail",
        1e3 * tail(&rpc).map_or(0.0, |(_, v)| v),
    );
    m.set("serve.hit_ratio", sum(|c| c.mapped) / lookups.max(1.0));
    m.set(
        "serve.errors",
        sum(|c| c.rpc_failed + c.mismatches + c.regressions),
    );
    m.set(
        "serve.epochs_seen",
        consumers
            .iter()
            .map(|c| c.first_seen.len())
            .max()
            .unwrap_or(0) as f64,
    );
    let decide_ns = sum(|c| c.decide_ns);
    m.set("spoof.decisions", lookups);
    m.set("spoof.busy_ms", decide_ns / 1e6);
    m.set("spoof.ns_per_decision", decide_ns / lookups.max(1.0));
    let verdicts = |v: Verdict| {
        consumers
            .iter()
            .map(|c| c.verdict_counts[v.index()])
            .sum::<u64>() as f64
    };
    m.set("spoof.consistent", verdicts(Verdict::Consistent));
    m.set("spoof.spoofed", verdicts(Verdict::Spoofed));
    m.set("spoof.shift", verdicts(Verdict::CatchmentShift));
}
