//! Metric handles for the pipeline and engine, registered once per run and
//! shared by the drivers in [`crate::pipeline`].
//!
//! Telemetry is strictly observational: every handle here writes atomics on
//! the side and nothing reads them back into the engine, so a run with a
//! live registry produces bit-for-bit the same snapshots as a run with a
//! disabled one (the differential suite proves this). Metrics marked
//! deterministic below are pure functions of the input flow stream; timing
//! metrics (wall-clock durations, channel depth) vary run to run and are
//! excluded from `MetricsSnapshot::deterministic()`.

use ipd_telemetry::{
    Class, Counter, EventKind, FlightRecorder, Gauge, Histogram, Telemetry, Watermark, SIZE_BUCKETS,
};

use crate::engine::TickReport;

/// All pipeline/engine metric handles. `Default` yields all-disabled
/// handles (the no-telemetry configuration); [`CoreTelemetry::register`]
/// binds them to a live registry. Cloning shares the underlying cells.
#[derive(Debug, Clone, Default)]
pub struct CoreTelemetry {
    /// `ipd_pipeline_flows_total` — flows ingested (stage 1).
    pub flows: Counter,
    /// `ipd_pipeline_batches_total` — flow batches received by the engine
    /// thread.
    pub batches: Counter,
    /// `ipd_pipeline_batch_size` — flows per received batch.
    pub batch_size: Histogram,
    /// `ipd_pipeline_channel_depth` — batches queued toward the engine
    /// thread, sampled per batch (timing class: scheduling-dependent).
    pub channel_depth: Gauge,
    /// `ipd_engine_ticks_total` — stage-2 cycles run.
    pub ticks: Counter,
    /// `ipd_engine_tick_nanoseconds` — stage-2 sweep wall time.
    pub tick_duration: Histogram,
    /// `ipd_engine_splits_total` — range splits.
    pub splits: Counter,
    /// `ipd_engine_joins_total` — sibling joins.
    pub joins: Counter,
    /// `ipd_engine_classifications_total` — ranges (newly) classified.
    pub classifications: Counter,
    /// `ipd_engine_drops_total` — classified ranges dropped (decay +
    /// invalidation).
    pub drops: Counter,
    /// `ipd_engine_classifications_per_tick` — classifications per stage-2
    /// cycle.
    pub classifications_per_tick: Histogram,
    /// `ipd_engine_ranges` — live leaf ranges, set after each tick.
    pub ranges: Gauge,
    /// `ipd_engine_classified_ranges` — classified ranges, set after each
    /// tick.
    pub classified_ranges: Gauge,
    /// `ipd_engine_monitored_ips` — per-IP state entries held for
    /// unclassified ranges, set after each tick.
    pub monitored_ips: Gauge,
    /// `ipd_engine_state_bytes` — estimated engine heap footprint, set
    /// after each tick.
    pub state_bytes: Gauge,
    /// `ipd_pipeline_ingest_watermark` — stage-1 high-water mark of the
    /// flow clock (the freshest flow timestamp ingested so far).
    pub ingest_watermark: Watermark,
    /// `ipd_engine_tick_watermark` — flow time of the latest completed
    /// stage-2 cycle; the gap to the ingest watermark is the stage-2 lag.
    pub tick_watermark: Watermark,
    /// The registry's flight recorder; tick boundaries land here.
    pub flight: FlightRecorder,
}

impl CoreTelemetry {
    /// Register every pipeline/engine metric in `telemetry`. Idempotent:
    /// registering twice (e.g. driver plus engine-thread loop) shares the
    /// same cells.
    pub fn register(telemetry: &Telemetry) -> Self {
        CoreTelemetry {
            flows: telemetry.counter(
                "ipd_pipeline_flows_total",
                "Flow records ingested by stage 1",
            ),
            batches: telemetry.counter(
                "ipd_pipeline_batches_total",
                "Flow batches received by the engine thread",
            ),
            batch_size: telemetry.histogram(
                "ipd_pipeline_batch_size",
                "Flows per received batch",
                SIZE_BUCKETS,
                Class::Deterministic,
            ),
            channel_depth: telemetry.gauge(
                "ipd_pipeline_channel_depth",
                "Batches queued toward the engine thread, sampled per batch",
                Class::Timing,
            ),
            ticks: telemetry.counter("ipd_engine_ticks_total", "Stage-2 cycles run"),
            tick_duration: telemetry.timing(
                "ipd_engine_tick_nanoseconds",
                "Stage-2 sweep wall time in nanoseconds",
            ),
            splits: telemetry.counter("ipd_engine_splits_total", "Range splits"),
            joins: telemetry.counter(
                "ipd_engine_joins_total",
                "Joins of equally-classified sibling ranges",
            ),
            classifications: telemetry.counter(
                "ipd_engine_classifications_total",
                "Ranges that received a (new) classification",
            ),
            drops: telemetry.counter(
                "ipd_engine_drops_total",
                "Classified ranges dropped by decay or invalidation",
            ),
            classifications_per_tick: telemetry.histogram(
                "ipd_engine_classifications_per_tick",
                "Classifications per stage-2 cycle",
                SIZE_BUCKETS,
                Class::Deterministic,
            ),
            ranges: telemetry.gauge(
                "ipd_engine_ranges",
                "Live leaf ranges across both families, set after each tick",
                Class::Deterministic,
            ),
            classified_ranges: telemetry.gauge(
                "ipd_engine_classified_ranges",
                "Classified ranges, set after each tick",
                Class::Deterministic,
            ),
            monitored_ips: telemetry.gauge(
                "ipd_engine_monitored_ips",
                "Per-IP state entries held for unclassified ranges, set after each tick",
                Class::Deterministic,
            ),
            state_bytes: telemetry.gauge(
                "ipd_engine_state_bytes",
                "Estimated engine heap footprint in bytes, set after each tick",
                Class::Deterministic,
            ),
            ingest_watermark: telemetry.watermark(
                "ipd_pipeline_ingest_watermark",
                "Stage-1 high-water mark of the flow clock",
            ),
            tick_watermark: telemetry.watermark(
                "ipd_engine_tick_watermark",
                "Flow time of the latest completed stage-2 cycle",
            ),
            flight: telemetry.flight(),
        }
    }

    /// Record one completed stage-2 cycle ending at flow time `now`:
    /// counters from the report, the post-tick state gauges, the tick
    /// watermark, and a tick-boundary flight event. The four gauges and the
    /// flight event share one walk of the trie, and a run that observes
    /// none of them makes no walk at all.
    pub(crate) fn record_tick(
        &self,
        report: &TickReport,
        engine: &crate::engine::IpdEngine,
        now: u64,
    ) {
        self.ticks.inc();
        self.splits.add(report.splits as u64);
        self.joins.add(report.joins as u64);
        self.classifications
            .add(report.newly_classified.len() as u64);
        self.drops
            .add((report.dropped.len() + report.invalidated.len()) as u64);
        self.classifications_per_tick
            .observe(report.newly_classified.len() as u64);
        self.tick_watermark.record(now);
        let gauges = [
            &self.ranges,
            &self.classified_ranges,
            &self.monitored_ips,
            &self.state_bytes,
        ];
        if !self.flight.is_enabled() && !gauges.iter().any(|g| g.is_enabled()) {
            return;
        }
        let counts = engine.state_counts();
        self.ranges.set(counts.ranges as i64);
        self.classified_ranges.set(counts.classified as i64);
        self.monitored_ips.set(counts.monitored_ips as i64);
        self.state_bytes.set(counts.state_bytes() as i64);
        self.flight.record(
            EventKind::ShardTick,
            now,
            report.newly_classified.len() as u64,
            counts.ranges as u64,
            counts.classified as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IpdEngine;
    use crate::params::IpdParams;
    use ipd_lpm::Addr;
    use ipd_topology::IngressPoint;

    #[test]
    fn record_tick_fills_counters_and_gauges() {
        let telemetry = Telemetry::new();
        let m = CoreTelemetry::register(&telemetry);
        let params = IpdParams {
            ncidr_factor_v4: 0.01,
            ..IpdParams::default()
        };
        let mut engine = IpdEngine::new(params).unwrap();
        for i in 0..2000u32 {
            engine.ingest_parts(30, Addr::v4(i * 4096), IngressPoint::new(1, 1), 1);
        }
        let report = engine.tick(60);
        m.record_tick(&report, &engine, 60);

        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("ipd_engine_ticks_total"), Some(1));
        assert_eq!(
            snap.counter("ipd_engine_classifications_total"),
            Some(report.newly_classified.len() as u64)
        );
        assert_eq!(
            snap.gauge("ipd_engine_ranges"),
            Some(engine.range_count() as i64)
        );
        assert!(snap.gauge("ipd_engine_state_bytes").unwrap() > 0);
        // The tick watermark carries the bucket-close flow time and the
        // tick boundary lands in the flight recorder.
        assert_eq!(snap.gauge("ipd_engine_tick_watermark_flow_ts"), Some(60));
        let events = telemetry.flight().dump();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::ShardTick as u8);
        assert_eq!(events[0].ts, 60);
        assert_eq!(events[0].b, engine.range_count() as u64);
    }

    #[test]
    fn disabled_core_telemetry_is_default() {
        let m = CoreTelemetry::default();
        m.flows.add(5);
        assert_eq!(m.flows.get(), 0);
    }

    #[test]
    fn registration_is_shared_between_instances() {
        let telemetry = Telemetry::new();
        let a = CoreTelemetry::register(&telemetry);
        let b = CoreTelemetry::register(&telemetry);
        a.flows.add(2);
        b.flows.add(3);
        assert_eq!(a.flows.get(), 5);
    }
}
