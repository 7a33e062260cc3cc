//! # ipd-serve — the concurrent read side of the IPD reproduction
//!
//! The paper's whole point is answering *"through which ingress point does
//! traffic for IP x enter the ISP?"* — this crate answers that question
//! **while the pipeline runs**, against the freshest closed bucket:
//!
//! * [`LiveStore`] — the one served ingress map: a concurrent tree-bitmap
//!   trie ([`ipd_lpm::ConcurrentLpm`]) updated **in place** per
//!   publication; lookups are wait-free on the steady state and
//!   seqlock-validated against in-flight updates. History answers come
//!   from the same type, rebuilt at the requested epoch by `ipd-hist`.
//! * [`EpochSwap`] / [`Reader`] — atomic epoch-swapped publication, used
//!   only for compaction *rotations* of the [`LiveStore`]; readers pay one
//!   atomic load per lookup on the steady state and never take a lock on
//!   the lookup path.
//! * [`ServePublisher`] — the [`ipd::pipeline::PipelineHook`] that rides
//!   the engine thread and applies each bucket's [`ipd::StoreDelta`] to
//!   the live store at every bucket close (and once more after the final
//!   tick), so publish cost scales with route churn, not table size.
//! * [`ServeServer`] / [`ServeClient`] — a threaded TCP front-end speaking
//!   a length-prefixed binary protocol ([`proto`]) with single, batched,
//!   and metadata queries; wired into `ipd-tool serve` / `ipd-tool query`.
//!   Open connections are capped; a connection beyond the cap is closed
//!   unanswered and counted.
//! * [`ServeTelemetry`] — `ipd_serve_*` metrics: lookup counters, per-
//!   lookup latency on sub-microsecond buckets, and the epoch gauge a
//!   scrape watches to see publication advance.
//! * [`HistoryProvider`] — the seam to a longitudinal store (`ipd-hist`):
//!   a server given a provider answers the time-travel ops `QueryAt`,
//!   `DiffRange`, and clients can park on `WaitEpoch` until publication
//!   reaches a target epoch (DESIGN.md §13).
//! * [`RetryClient`] — [`ServeClient`] with bounded, jittered
//!   reconnect-and-retry on connect/IO failures.
//!
//! ## The serving contract (DESIGN.md §11)
//!
//! An **epoch** is a closed bucket: epoch N serves exactly the engine state
//! after the ticks of the N-th published boundary, never anything mid-
//! bucket. The store is updated **in place**, so the epoch a reader
//! observes is a *floor*: any individual answer is at least as fresh as
//! that epoch (it may already reflect rows of the publication in flight),
//! and every answer equals some prefix of the applied update sequence —
//! never a torn mix within one row. Readers are **at most one access
//! stale**: the epoch a lookup is answered from is never older than the
//! global epoch at the moment the reader checked. At a quiescent boundary,
//! lookups are bit-identical to querying `snapshot.lpm_table()` — the
//! differential suite pins this at every epoch, and the `ipd-lpm`
//! interleaving harness proves the no-torn-reads claim over thousands of
//! distinct schedules (DESIGN.md §14).

mod client;
mod history;
mod hook;
mod live;
pub mod proto;
mod server;
mod swap;
mod telemetry;

pub use client::{
    ClientError, ClientPool, PooledClient, RetryClient, RetryPolicy, ServeClient, ServeInfo,
};
pub use history::HistoryProvider;
pub use hook::ServePublisher;
pub use live::{IngressAnswer, LiveStore};
pub use server::ServeServer;
pub use swap::{EpochSwap, Reader, Versioned};
pub use telemetry::ServeTelemetry;
