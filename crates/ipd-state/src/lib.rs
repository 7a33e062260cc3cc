//! # ipd-state — durable state for the IPD engine
//!
//! IPD's value compounds over hours of traffic: classified ranges take many
//! buckets to earn their confidence, and a restart that starts cold throws
//! that history away. This crate makes an IPD run crash-safe and
//! warm-restartable with two complementary artifacts:
//!
//! * **Checkpoints** ([`codec`], [`store`]) — a versioned, deterministic
//!   binary image of the full engine state (both tries, the ingress intern
//!   table, parameters, stats) plus the bucket clock, written atomically at
//!   bucket boundaries. Encoding is canonical: identical logical state
//!   yields identical bytes, regardless of hash-map history.
//! * **A write-ahead flow journal** ([`journal`]) — every flow is appended
//!   (length-delimited, per-frame checksummed) *before* it is ingested, so
//!   the flows an in-memory engine saw after its last checkpoint survive
//!   the crash that loses the engine.
//!
//! [`durable::Durable`] is the [`ipd::pipeline::PipelineHook`] that
//! maintains both during a run; [`durable::restore`] rebuilds the engine
//! from the newest valid checkpoint (falling back past damaged ones) and
//! replays the journal tail, tolerating a torn final frame.
//!
//! ## The equivalence contract
//!
//! Kill a run at any point, [`restore`], and continue
//! with the remaining flows: the final [`ipd::Snapshot::digest`] and
//! classified set are bit-for-bit identical to an uninterrupted run, for
//! the offline driver and the threaded pipeline alike, in both count
//! modes.

pub mod codec;
pub mod durable;
pub mod journal;
pub mod store;
pub mod telemetry;

pub use codec::{decode, encode, fnv1a, image_checksum, CheckpointState, CodecError};
pub use durable::{
    restore, Durable, DurableConfig, DurableHandle, DurableStats, RestoreError, Restored,
};
pub use journal::{parse_journal, read_journal, JournalContents, JournalWriter};
pub use store::{CheckpointStore, ValidCheckpoint};
pub use telemetry::StateTelemetry;
