//! Per-layer metrics of the traced run. Layers are named after their
//! crates; the engine thread's spans are rebuilt from the hook's
//! timestamps, the reader's batch hand-offs and the drainer's receipts.

use std::collections::BTreeMap;

use crate::hook::{EngineTrace, Output};
use crate::stats::{quantile, sorted};
use crate::trace::SpanLog;

/// Every per-layer metric as `(name, unit, better)`. A layer a workload
/// does not run reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("gen.blocked_ms", "ms", "lower"),
    ("gen.late_ms_max", "ms", "lower"),
    ("decode.datagrams", "count", "higher"),
    ("decode.records", "count", "higher"),
    ("decode.busy_ms", "ms", "lower"),
    ("decode.ns_per_record", "ns", "lower"),
    ("decode.errors", "count", "lower"),
    ("stage1.flows", "count", "higher"),
    ("stage1.busy_ms", "ms", "lower"),
    ("stage1.ns_per_flow", "ns", "lower"),
    ("engine.idle_ms", "ms", "higher"),
    ("engine.wall_ms", "ms", "lower"),
    ("engine.self_sum_pct", "%", "higher"),
    ("stage2.ticks", "count", "higher"),
    ("stage2.tick_ms_p50", "ms", "lower"),
    ("stage2.tick_ms_max", "ms", "lower"),
    ("stage2.busy_ms", "ms", "lower"),
    ("stage2.snapshot_output_ms", "ms", "lower"),
    ("stage2.changed_ranges", "count", "lower"),
    ("stage2.splits", "count", "lower"),
    ("stage2.expired_ips", "count", "lower"),
    ("stage2.ranges", "count", "lower"),
    ("stage2.monitored_ips", "count", "lower"),
    ("publish.calls", "count", "higher"),
    ("publish.ms_p50", "ms", "lower"),
    ("publish.ms_max", "ms", "lower"),
    ("publish.busy_ms", "ms", "lower"),
    ("publish.rows", "count", "higher"),
    ("publish.useful_ratio", "ratio", "higher"),
    ("hist.appends", "count", "higher"),
    ("hist.ms_p50", "ms", "lower"),
    ("hist.ms_max", "ms", "lower"),
    ("hist.busy_ms", "ms", "lower"),
    ("hist.bytes_on_disk", "bytes", "lower"),
    ("hist.errors", "count", "lower"),
    ("serve.rpcs", "count", "higher"),
    ("serve.lookups", "count", "higher"),
    ("serve.rpc_us_p50", "us", "lower"),
    ("serve.rpc_us_p90", "us", "lower"),
    ("serve.rpc_us_p99", "us", "lower"),
    ("serve.rpc_us_tail", "us", "lower"),
    ("serve.hit_ratio", "ratio", "higher"),
    ("serve.lookup_ns_per_key", "ns", "lower"),
    ("serve.errors", "count", "lower"),
    ("serve.epochs_seen", "count", "higher"),
    ("spoof.decisions", "count", "higher"),
    ("spoof.busy_ms", "ms", "lower"),
    ("spoof.ns_per_decision", "ns", "lower"),
    ("spoof.consistent", "count", "higher"),
    ("spoof.spoofed", "count", "higher"),
    ("spoof.shift", "count", "higher"),
    ("publish_latency_ms_tail", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

#[derive(Debug, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn new() -> Self {
        Metrics(PER_LAYER.iter().map(|&(n, _, _)| (n, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self.0.get_mut(name).expect("a listed per-layer metric");
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The engine thread's time accounting over the traced phase.
#[derive(Debug, Clone, Copy)]
pub struct EngineCheck {
    pub wall_ns: u64,
    /// Self time of every layer span (stage 1, stage 2, publish, hist,
    /// idle) — everything but the per-bucket roots.
    pub accounted_ns: u64,
}

impl EngineCheck {
    pub fn pct(&self) -> f64 {
        100.0 * self.accounted_ns as f64 / self.wall_ns.max(1) as f64
    }
}

/// Rebuild the engine thread's spans for the traced phase, which began at
/// `start`: per bucket a root span with stage 1, stage 2 (tick and
/// snapshot output as children), publish and hist, and idle spans where
/// the engine waited for input. `batches` are the reader's hand-offs as
/// `(flows sent so far, ns when available)`.
pub fn engine(
    m: &mut Metrics,
    t: &EngineTrace,
    start: u64,
    batches: &[(u64, u64)],
    outputs: &[Output],
    hist: bool,
) -> (SpanLog, EngineCheck) {
    let mut log = SpanLog::new("engine");
    let f = &t.flow_ns;
    let n = f.len();
    // Input waits: before the first flow of each batch, from the previous
    // flow until the batch was available.
    let mut idle_before: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    let mut first = 0usize;
    for &(sent, avail) in batches {
        if first < n {
            let prev = if first == 0 { start } else { f[first - 1] };
            let end = avail.min(f[first]);
            if end > prev {
                idle_before.insert(first, (prev, end));
            }
        }
        first = sent as usize;
    }
    // The timed ticks are the last ones the drainer received, one per
    // publication; a snapshot follows every fifth.
    let mut ticks = Vec::new();
    for (i, o) in outputs.iter().enumerate() {
        if !o.snapshot {
            let snap = outputs.get(i + 1).filter(|x| x.snapshot).map(|x| x.at);
            ticks.push((o, snap));
        }
    }
    let ticks = &ticks[ticks.len().saturating_sub(t.crossings.len())..];

    if let Some(&(s, e)) = idle_before.get(&0) {
        log.push("engine.idle", 0, s, e, None);
    }
    let mut stage2_ms = Vec::new();
    let mut publish_ms = Vec::new();
    let mut hist_ms = Vec::new();
    let (mut a, mut prev_end, mut key) = (0usize, start, 0u64);
    for (j, c) in t.crossings.iter().enumerate() {
        key = c.bucket.unwrap_or(key + 1);
        let b = (c.flows as usize).min(n);
        let seg_start = if b > a { f[a] } else { prev_end };
        let root = log.push("bucket", key, seg_start, c.end, None);
        let mut s2_from = seg_start;
        if b > a {
            let s1 = log.push("ipd-core.stage1", key, f[a], f[b - 1], Some(root));
            for (_, &(is, ie)) in idle_before.range(a + 1..b) {
                log.push("engine.idle", key, is, ie, Some(s1));
            }
            s2_from = f[b - 1];
        }
        let mut idle_ns = 0;
        let mut cursor = s2_from;
        let s2 = if c.bucket.is_none() {
            // End of input: the engine waits for the last sender to hang
            // up, then runs the final tick.
            log.push("engine.idle", key, s2_from, t.finished, Some(root));
            cursor = t.finished.max(s2_from);
            log.push("ipd-core.stage2", key, cursor, c.enter, Some(root))
        } else {
            let s2 = log.push("ipd-core.stage2", key, s2_from, c.enter, Some(root));
            if let Some(&(is, ie)) = idle_before.get(&b) {
                let ie = ie.min(c.enter);
                log.push("engine.idle", key, is, ie, Some(s2));
                idle_ns = ie.saturating_sub(is);
                cursor = ie;
            }
            s2
        };
        stage2_ms.push(ms(c
            .enter
            .saturating_sub(log.spans[s2].start)
            .saturating_sub(idle_ns)));
        if let Some(&(tick, snap)) = ticks.get(j) {
            let tick_end = tick.at.max(cursor).min(c.enter);
            log.push("ipd-core.tick", key, cursor, tick_end, Some(s2));
            if let Some(at) = snap {
                let end = at.max(tick_end).min(c.enter);
                log.push("ipd-core.snapshot", key, tick_end, end, Some(s2));
            }
        }
        log.push("ipd-serve.publish", key, c.enter, c.serve_end, Some(root));
        publish_ms.push(ms(c.serve_end - c.enter));
        if hist {
            log.push("ipd-hist.append", key, c.serve_end, c.end, Some(root));
            hist_ms.push(ms(c.end - c.serve_end));
        }
        a = b;
        prev_end = c.end;
    }

    let names = log.by_name();
    let self_ms = |name: &str| names.get(name).map_or(0.0, |&(ns, _)| ms(ns));
    let accounted_ns = names
        .iter()
        .filter(|(name, _)| **name != "bucket")
        .map(|(_, &(ns, _))| ns)
        .sum();
    let check = EngineCheck {
        wall_ns: prev_end.saturating_sub(start),
        accounted_ns,
    };
    let stage1_ms = self_ms("ipd-core.stage1");
    m.set("stage1.flows", n as f64);
    m.set("stage1.busy_ms", stage1_ms);
    m.set("stage1.ns_per_flow", stage1_ms * 1e6 / n.max(1) as f64);
    m.set("engine.idle_ms", self_ms("engine.idle"));
    m.set("engine.wall_ms", ms(check.wall_ns));
    m.set("engine.self_sum_pct", check.pct());
    let stage2_sorted = sorted(stage2_ms.clone());
    m.set("stage2.ticks", t.crossings.len() as f64);
    m.set("stage2.tick_ms_p50", quantile(&stage2_sorted, 0.5));
    m.set(
        "stage2.tick_ms_max",
        stage2_sorted.last().copied().unwrap_or(0.0),
    );
    m.set("stage2.busy_ms", stage2_ms.iter().sum());
    m.set("stage2.snapshot_output_ms", self_ms("ipd-core.snapshot"));
    let changed: u64 = ticks.iter().map(|(o, _)| o.changed).sum();
    m.set("stage2.changed_ranges", changed as f64);
    m.set(
        "stage2.splits",
        ticks.iter().map(|(o, _)| o.splits).sum::<u64>() as f64,
    );
    m.set(
        "stage2.expired_ips",
        ticks.iter().map(|(o, _)| o.expired_ips).sum::<u64>() as f64,
    );
    let publish = sorted(publish_ms);
    m.set("publish.calls", publish.len() as f64);
    m.set("publish.ms_p50", quantile(&publish, 0.5));
    m.set("publish.ms_max", publish.last().copied().unwrap_or(0.0));
    m.set("publish.busy_ms", publish.iter().sum());
    if hist {
        let hist = sorted(hist_ms);
        m.set("hist.appends", hist.len() as f64);
        m.set("hist.ms_p50", quantile(&hist, 0.5));
        m.set("hist.ms_max", hist.last().copied().unwrap_or(0.0));
        m.set("hist.busy_ms", hist.iter().sum());
    }
    (log, check)
}
