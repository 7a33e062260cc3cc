//! Metric handles for the serving layer, mirroring the `StateTelemetry`
//! idiom: `Default` is all-disabled no-ops, `register` binds to a live
//! [`Telemetry`] registry. Observational only — nothing here feeds back
//! into publication or lookups.

use ipd_telemetry::{
    Class, Counter, FlightRecorder, Gauge, Histogram, Telemetry, Watermark, SIZE_BUCKETS,
};

/// All serving metric handles.
#[derive(Debug, Clone, Default)]
pub struct ServeTelemetry {
    /// `ipd_serve_epoch` — the publication epoch currently served (0 until
    /// the first bucket closes). The CI smoke job asserts this advances.
    pub epoch: Gauge,
    /// `ipd_serve_published_total` — stores published (bucket closes plus
    /// the end-of-stream publication).
    pub published: Counter,
    /// `ipd_serve_store_entries` — classified ranges in the current store.
    pub store_entries: Gauge,
    /// `ipd_serve_store_bytes` — approximate heap bytes of the current store.
    pub store_bytes: Gauge,
    /// `ipd_serve_publish_nanoseconds` — row read + delta merge + store
    /// apply wall time per publication.
    pub publish_duration: Histogram,
    /// `ipd_serve_changed_prefixes_total` — rows upserted or removed by
    /// incremental publications; per-bucket publish cost tracks this, not
    /// the table size.
    pub changed: Counter,
    /// `ipd_serve_store_rebuilds_total` — compaction rebuilds (full store
    /// rotations triggered by arena garbage crossing the threshold).
    pub rebuilds: Counter,
    /// `ipd_serve_connections_total` — query connections accepted and
    /// served.
    pub connections: Counter,
    /// `ipd_serve_connections_rejected_total` — connections closed
    /// unanswered because the server already held its connection cap.
    pub connections_rejected: Counter,
    /// `ipd_serve_requests_total` — request frames decoded.
    pub requests: Counter,
    /// `ipd_serve_lookups_total` — individual address lookups answered
    /// (a batch of 50 counts 50).
    pub lookups: Counter,
    /// `ipd_serve_unmapped_total` — lookups with no covering classified
    /// range.
    pub unmapped: Counter,
    /// `ipd_serve_proto_errors_total` — malformed request frames rejected.
    pub proto_errors: Counter,
    /// `ipd_serve_lookup_nanoseconds` — per-request lookup wall time (the
    /// store walk only, excluding socket I/O), on the sub-microsecond
    /// bucket scale.
    pub lookup_duration: Histogram,
    /// `ipd_serve_batch_size` — addresses per batch request.
    pub batch_size: Histogram,
    /// `ipd_serve_store_garbage` — dead arena cells in the current store
    /// (the rotation trigger's input), set per publication.
    pub garbage: Gauge,
    /// `ipd_serve_publish_watermark` — flow time of the latest published
    /// epoch; its wall age is the served map's freshness and feeds the
    /// derived `ipd_serve_epoch_age_seconds` gauge.
    pub publish_watermark: Watermark,
    /// The registry's flight recorder; publications, rotations and churn
    /// bursts land here.
    pub flight: FlightRecorder,
}

impl ServeTelemetry {
    /// Register every serving metric in `telemetry`. Idempotent — two
    /// registrations share the same cells.
    pub fn register(telemetry: &Telemetry) -> Self {
        ServeTelemetry {
            epoch: telemetry.gauge(
                "ipd_serve_epoch",
                "Publication epoch currently served",
                Class::Timing,
            ),
            published: telemetry.counter(
                "ipd_serve_published_total",
                "Ingress stores published (bucket closes + end of stream)",
            ),
            store_entries: telemetry.gauge(
                "ipd_serve_store_entries",
                "Classified ranges in the current store",
                Class::Timing,
            ),
            store_bytes: telemetry.gauge(
                "ipd_serve_store_bytes",
                "Approximate heap bytes of the current store",
                Class::Timing,
            ),
            publish_duration: telemetry.timing(
                "ipd_serve_publish_nanoseconds",
                "Row read + delta merge + store apply wall time per publication",
            ),
            changed: telemetry.counter(
                "ipd_serve_changed_prefixes_total",
                "Rows upserted or removed by incremental publications",
            ),
            rebuilds: telemetry.counter(
                "ipd_serve_store_rebuilds_total",
                "Compaction rebuilds of the live store",
            ),
            connections: telemetry.counter(
                "ipd_serve_connections_total",
                "Query connections accepted and served",
            ),
            connections_rejected: telemetry.counter(
                "ipd_serve_connections_rejected_total",
                "Query connections closed unanswered at the connection cap",
            ),
            requests: telemetry.counter("ipd_serve_requests_total", "Request frames decoded"),
            lookups: telemetry.counter(
                "ipd_serve_lookups_total",
                "Individual address lookups answered",
            ),
            unmapped: telemetry.counter(
                "ipd_serve_unmapped_total",
                "Lookups with no covering classified range",
            ),
            proto_errors: telemetry.counter(
                "ipd_serve_proto_errors_total",
                "Malformed request frames rejected",
            ),
            lookup_duration: telemetry.timing_fine(
                "ipd_serve_lookup_nanoseconds",
                "Per-request store lookup wall time (socket I/O excluded)",
            ),
            batch_size: telemetry.histogram(
                "ipd_serve_batch_size",
                "Addresses per batch request",
                SIZE_BUCKETS,
                Class::Timing,
            ),
            garbage: telemetry.gauge(
                "ipd_serve_store_garbage",
                "Dead arena cells in the current store",
                Class::Timing,
            ),
            publish_watermark: {
                let w = telemetry.watermark(
                    "ipd_serve_publish_watermark",
                    "Flow time of the latest published epoch",
                );
                let age = w.clone();
                telemetry.derived_gauge(
                    "ipd_serve_epoch_age_seconds",
                    "Wall seconds since the served epoch was published",
                    move || age.age_nanos() as f64 / 1e9,
                );
                let lag = telemetry.clone();
                telemetry.derived_gauge(
                    "ipd_serve_flow_lag_seconds",
                    "Flow-time gap between stage-1 ingest and the served epoch \
                     (end-to-end freshness of the served map)",
                    move || {
                        let marks = lag.watermarks();
                        let find = |name: &str| {
                            marks
                                .iter()
                                .find(|(n, _)| n == name)
                                .map(|(_, s)| s.flow_ts)
                        };
                        match (
                            find("ipd_pipeline_ingest_watermark"),
                            find("ipd_serve_publish_watermark"),
                        ) {
                            (Some(ingest), Some(publish)) => ingest.saturating_sub(publish) as f64,
                            _ => 0.0,
                        }
                    },
                );
                w
            },
            flight: telemetry.flight(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let m = ServeTelemetry::default();
        m.published.inc();
        m.epoch.set(9);
        assert_eq!(m.published.get(), 0);
    }

    #[test]
    fn registers_under_serve_namespace() {
        let t = Telemetry::new();
        let m = ServeTelemetry::register(&t);
        m.lookups.add(3);
        m.epoch.set(2);
        let snap = t.snapshot();
        assert_eq!(snap.counter("ipd_serve_lookups_total"), Some(3));
        assert!(snap
            .samples
            .iter()
            .all(|s| s.name.starts_with("ipd_serve_")));
    }
}
