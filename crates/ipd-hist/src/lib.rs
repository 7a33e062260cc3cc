//! # ipd-hist — the longitudinal memory of the IPD reproduction
//!
//! The live pipeline answers *"which ingress point serves IP x **now**?"*;
//! this crate answers the longitudinal forms the paper's §5 analysis asks —
//! *which ingress served x at epoch e? what changed between e₁ and e₂? how
//! stable is a prefix's assignment over a day of churn?* — by persisting
//! **every published epoch** into a write-once, append-only store:
//!
//! * [`EpochImage`] — one epoch's full ingress map as canonical sorted
//!   rows; consecutive epochs differ by an [`ipd::StoreDelta`], the same
//!   two-pointer row merge the live publisher applies.
//! * [`codec`] — the `IPDSEG1` segment format and `IPDMAN1` manifest,
//!   sharing the `IPDSTAT1` conventions (versioned magic, little-endian
//!   sections, eight-lane FNV image checksum); decoders are total and
//!   canonical, fuzzed by the `fuzz_seg` target.
//! * [`HistStore`] — the LSM-ish write side: an in-memory memtable of
//!   recent epochs, immutable segment files (full images at sparse
//!   *keyframes*, deltas elsewhere), a crash-safe generation-swapped
//!   manifest, and background compaction folding delta runs so any epoch
//!   reconstructs from at most `keyframe_every` segment reads.
//! * [`HistReader`] — the time-travel query API: `store_at(epoch)` /
//!   `store_at_time(ts)` rebuild the exact [`ipd_serve::IngressStore`]
//!   published at that point (bit-identical, confidence included),
//!   `diff(a, b)` lists per-prefix ingress changes, and
//!   [`HistReader::stability`] summarizes a prefix's churn. Implements
//!   [`ipd_serve::HistoryProvider`], so `ipd-tool serve --hist-dir` answers
//!   the wire ops `QueryAt` and `DiffRange` from history.
//! * [`HistPublisher`] — the [`ipd::pipeline::PipelineHook`] that records
//!   an epoch at every bucket close, numbering epochs exactly like the
//!   live `ServePublisher`.
//! * [`HistTelemetry`] — `ipd_hist_*` metrics: segment/keyframe/bytes
//!   gauges, append and compaction counters, reconstruction read counts.
//!
//! ## The longitudinal contract (DESIGN.md §13)
//!
//! Epoch N in the history is **the** map served live at epoch N: rebuilt
//! stores are bit-identical (prefixes, ingresses, confidence bits) to the
//! `snapshot.lpm_table()` captured at the boundary — the differential
//! suite pins this across plain and sharded engines. Segments are written
//! once and never modified; compaction only *replaces* a delta with the
//! equivalent full image, committing via atomic manifest swap before
//! deleting anything. Memory stays bounded by the memtable depth, never by
//! history length.

pub mod codec;
mod hook;
mod image;
mod reader;
mod store;
mod telemetry;

pub use hook::HistPublisher;
pub use image::{EpochImage, Row};
pub use reader::{HistReader, StabilityReport};
pub use store::{HistConfig, HistError, HistStore};
pub use telemetry::HistTelemetry;
