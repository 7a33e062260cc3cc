//! # ipd-telemetry — observability substrate for the IPD pipeline
//!
//! The paper's deployment runs IPD continuously for six years against
//! ~3,000 routers (§5.7); that is only operable with live visibility into
//! drop rates, stage latency, and per-stage throughput. This crate is the
//! metrics layer every stage of this reproduction reports into:
//!
//! * [`Telemetry`] — a lock-light registry of named metrics. Registration
//!   (cold path) takes a mutex; the handles it returns touch only atomics.
//! * [`Counter`], [`Gauge`], [`Histogram`] — allocation-free hot-path
//!   handles. A handle obtained from [`Telemetry::disabled`] is a no-op
//!   that compiles down to a branch on an `Option` discriminant, which is
//!   the "zero-cost when disabled" contract the pipeline relies on.
//! * [`Histogram::start_timer`] — span timing: a guard that observes its
//!   elapsed nanoseconds on drop. Disabled handles never read the clock.
//! * [`MetricsSnapshot`] — a deterministic, name-sorted view of every
//!   registered metric, renderable as Prometheus text exposition format
//!   ([`MetricsSnapshot::to_prometheus_text`]) or a human table
//!   ([`MetricsSnapshot::render_table`]).
//! * [`MetricsServer`] — a dependency-free HTTP endpoint serving
//!   `GET /metrics` (wired to `ipd-tool run --metrics-addr`).
//!
//! ## The determinism contract
//!
//! Every metric declares a [`Class`]:
//!
//! * [`Class::Deterministic`] — the value is a pure function of the input
//!   flow stream (flow counts, ticks, splits, trie sizes, …). For a fixed
//!   seed these are bit-for-bit identical on every run and every machine;
//!   the golden-metrics test pins them.
//! * [`Class::Timing`] — wall-clock measurements (stage latency, tick
//!   duration) and scheduling-dependent values (channel depth). Exported,
//!   but excluded from [`MetricsSnapshot::deterministic`].
//!
//! Telemetry is *observational only*: nothing in this crate feeds back
//! into the engine, so a run with telemetry attached produces bit-for-bit
//! the same [`ipd::Snapshot`] digest as a run without — a property the
//! differential harness in `ipd-core` proves end to end.
//!
//! ## Observability v2 (freshness + postmortem + introspection)
//!
//! * [`Watermark`] — per-stage flow-time high-water marks; the difference
//!   between two stages' marks is the pipeline's per-stage lag, the wall
//!   age of a mark is its freshness. Exported as `Timing`-class samples.
//! * [`FlightRecorder`] — an always-on, fixed-size, lock-free ring of
//!   structured events ([`Telemetry::flight`]), dumpable on demand, over
//!   the serve protocol, and on panic ([`install_panic_dump`]) or stall.
//! * [`Telemetry::derived_gauge`] — snapshot-time computed gauges such as
//!   `ipd_serve_epoch_age_seconds`.
//! * [`StallDetector`] — flags stages whose upstream advances while their
//!   own watermark update counter stands still.
//! * [`StatusHub`] — named JSON sections served at `GET /statusz` beside
//!   `/metrics`, with a minimal in-tree JSON reader ([`Json`]) for
//!   `ipd-tool top`.
//!
//! All of it obeys the same inertness contract: disabled handles are
//! one-branch no-ops, and enabled handles only observe.

mod flight;
mod http;
mod metrics;
mod registry;
mod snapshot;
mod stall;
mod status;
mod watermark;

pub use flight::{
    decode_events, encode_events, install_panic_dump, render_events, EventKind, FlightCodecError,
    FlightEvent, FlightRecorder, EVENT_WIRE_BYTES, FLIGHT_CAPACITY, MAX_DUMP_EVENTS,
};
pub use http::MetricsServer;
pub use metrics::{Counter, Gauge, Histogram, Timer};
pub use registry::{Class, Kind, Telemetry};
pub use snapshot::{validate_prometheus_text, MetricSample, MetricValue, MetricsSnapshot};
pub use stall::{StallDetector, StallHandle};
pub use status::{json_f64, json_string, Json, StatusHub};
pub use watermark::{monotonic_nanos, Watermark, WatermarkSnapshot};

/// Default bucket bounds (in nanoseconds) for timing histograms: 1 µs to
/// ~16 s in powers of four — wide enough for a per-datagram decode and a
/// full stage-2 sweep over a hundred thousand ranges.
pub const TIMING_BUCKETS_NANOS: &[u64] = &[
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
    16_777_216_000,
];

/// Fine-grained bucket bounds (in nanoseconds) for sub-microsecond
/// operations — a single LPM lookup in the serving layer's flattened table
/// lands around 100 ns, two orders of magnitude below the first
/// [`TIMING_BUCKETS_NANOS`] bound: 64 ns to ~1 ms in powers of four.
pub const TIMING_BUCKETS_FINE_NANOS: &[u64] =
    &[64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576];

/// Default bucket bounds for size-ish deterministic histograms (batch
/// sizes, classifications per tick): 1 to 65536 in powers of four.
pub const SIZE_BUCKETS: &[u64] = &[1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536];
