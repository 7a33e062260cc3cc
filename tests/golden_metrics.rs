//! Golden metrics regression — the telemetry companion to `golden.rs`.
//!
//! The same seeded mini-internet run, instrumented with a live registry:
//! every deterministic-class metric must come out bit-for-bit identical on
//! every machine and every run, and must match the values pinned below. Timing-class metrics (tick wall time) are checked for *presence*
//! only — their values are scheduling noise by design.
//!
//! If `golden.rs` trips, fix that first; if only this file trips, the
//! engine still behaves identically but the telemetry accounting changed —
//! update the constants only for an intentional accounting change, and say
//! so in the commit.

use ipd_suite::ipd::pipeline::{run_offline, BucketDriver, NoopHook};
use ipd_suite::ipd::{CoreTelemetry, IpdEngine, IpdParams};
use ipd_suite::netflow::FlowRecord;
use ipd_suite::telemetry::{MetricsSnapshot, Telemetry};
use ipd_suite::traffic::{FlowSim, SimConfig, World, WorldConfig};

const SEED: u64 = 1337;
const MINUTES: u64 = 12;
const FLOWS_PER_MINUTE: u64 = 6_000;
const SNAPSHOT_EVERY: u32 = 5;

/// Pinned deterministic counters/gauges for the run below. The names are
/// looked up in the metrics snapshot; keep the list sorted by name.
const GOLDEN_METRICS: &[(&str, i64)] = &[
    ("ipd_engine_classifications_total", 3_980),
    ("ipd_engine_classified_ranges", 1_281),
    ("ipd_engine_drops_total", 2_339),
    ("ipd_engine_joins_total", 180),
    ("ipd_engine_monitored_ips", 594),
    ("ipd_engine_ranges", 2_324),
    ("ipd_engine_splits_total", 3_424),
    ("ipd_engine_ticks_total", 13),
    ("ipd_pipeline_flows_total", 47_706),
];

fn golden_params() -> IpdParams {
    IpdParams {
        ncidr_factor_v4: 64.0 / 32.0e6 * FLOWS_PER_MINUTE as f64,
        ncidr_factor_v6: FLOWS_PER_MINUTE as f64 * 1.5e-11,
        ..IpdParams::default()
    }
}

fn golden_flows() -> Vec<FlowRecord> {
    let world = World::generate(WorldConfig::default(), SEED);
    let mut sim = FlowSim::new(
        world,
        SimConfig {
            flows_per_minute: FLOWS_PER_MINUTE,
            seed: SEED,
            ..SimConfig::default()
        },
    );
    let mut flows = Vec::new();
    for _ in 0..MINUTES {
        flows.extend(sim.next_minute().flows.into_iter().map(|lf| lf.flow));
    }
    flows
}

/// Run the golden stream instrumented and return the metrics snapshot.
fn instrumented_run() -> MetricsSnapshot {
    let telemetry = Telemetry::new();
    let mut engine = IpdEngine::new(golden_params()).unwrap();
    run_offline(
        &mut engine,
        BucketDriver::new(SNAPSHOT_EVERY).with_metrics(CoreTelemetry::register(&telemetry)),
        golden_flows(),
        &mut NoopHook,
        |_| {},
    );
    telemetry.snapshot()
}

/// Extract the pinned subset from a snapshot in `GOLDEN_METRICS` shape, so
/// a mismatch prints every actual value at once.
fn pinned_subset(snap: &MetricsSnapshot) -> Vec<(&'static str, i64)> {
    GOLDEN_METRICS
        .iter()
        .map(|&(name, _)| {
            let value = snap
                .counter(name)
                .map(|v| v as i64)
                .or_else(|| snap.gauge(name))
                .unwrap_or(-1);
            (name, value)
        })
        .collect()
}

#[test]
fn golden_metrics_are_bit_for_bit_stable() {
    let snap = instrumented_run();
    assert_eq!(
        pinned_subset(&snap),
        GOLDEN_METRICS.to_vec(),
        "deterministic metrics drifted from the pinned golden values"
    );
    // Timing-class metrics exist but are never pinned: the tick histogram
    // must have observed exactly one duration per tick.
    let ticks = snap.counter("ipd_engine_ticks_total").unwrap();
    let tick_timings = snap
        .samples
        .iter()
        .find(|s| s.name == "ipd_engine_tick_nanoseconds")
        .expect("tick timing histogram registered");
    match &tick_timings.value {
        ipd_suite::telemetry::MetricValue::Histogram { count, .. } => {
            assert_eq!(*count, ticks, "one timing observation per tick");
        }
        other => panic!("expected a histogram, got {other:?}"),
    }
    // And the timing histogram is excluded from the deterministic subset.
    assert!(
        !snap
            .deterministic()
            .samples
            .iter()
            .any(|s| s.name == "ipd_engine_tick_nanoseconds"),
        "timing metrics must not be in the deterministic subset"
    );
}

#[test]
fn golden_metrics_are_identical_across_runs() {
    let first = instrumented_run().deterministic();
    let second = instrumented_run().deterministic();
    assert_eq!(
        first, second,
        "two identical runs disagreed on deterministic metrics"
    );
}
