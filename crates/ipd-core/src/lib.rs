//! # IPD — Ingress Point Detection
//!
//! A from-scratch Rust implementation of the IPD algorithm from
//! *"IPD: Detecting Traffic Ingress Points at ISPs"* (ACM SIGCOMM 2024).
//!
//! IPD answers the question *where does traffic enter my network?* by
//! consuming sampled flow records from **all** border routers and
//! partitioning the IP address space — by *traffic*, not by BGP — into
//! dynamic CIDR ranges that each enter the network through one dominant
//! ingress point (a specific router and interface, or a *bundle* of
//! interfaces on one router).
//!
//! ## Algorithm in one paragraph (paper §3.2, Algorithm 1)
//!
//! Stage 1 masks every source IP to `cidr_max` and adds it, with its ingress
//! link and timestamp, into a binary prefix trie (one per address family).
//! Stage 2 runs every `t` seconds: it expires stale per-IP state (older than
//! `e`), decays counters of silent classified ranges, and for every range
//! that has accumulated at least `n_cidr` samples either **classifies** it
//! (one ingress holds at least share `q`), **splits** it in half (ambiguous,
//! below `cidr_max`), or — at `cidr_max` — tries router-level **bundling**.
//! Sibling ranges classified to the same ingress are **joined** back into
//! their parent. Classified ranges whose dominant share falls below `q` are
//! dropped and re-learned.
//!
//! ## Crate layout
//!
//! * [`IpdParams`] — all knobs of Table 1 with the paper's defaults.
//! * [`IpdEngine`] — the deterministic core: [`IpdEngine::ingest`] (stage 1)
//!   and [`IpdEngine::tick`] (stage 2). No clocks, no threads, no I/O —
//!   drive it with data timestamps and it is fully reproducible. Each
//!   family's trie is one flat arena of `u32`-linked nodes, and every
//!   stage-1 walk starts from a 16-bit stride table.
//! * [`output`] — per-tick snapshots in the shape of the paper's raw output
//!   (Table 3), plus LPM-table export for validation.
//! * [`pipeline`] — the deployment shape (§5.7): parallel reader threads
//!   feeding the one engine thread over channels, ticks at time-bucket
//!   boundaries.
//!
//! ## Quick start
//!
//! ```
//! use ipd::{IpdEngine, IpdParams};
//! use ipd_topology::IngressPoint;
//! use ipd_lpm::Addr;
//!
//! // Small thresholds so the doc-test classifies with a handful of samples.
//! let params = IpdParams { ncidr_factor_v4: 0.01, ..IpdParams::default() };
//! let mut engine = IpdEngine::new(params).unwrap();
//!
//! // All traffic enters via router 1, interface 1...
//! let ingress = IngressPoint::new(1, 1);
//! for i in 0..1000u32 {
//!     engine.ingest_parts(60, Addr::v4(0x0A00_0000 | ((i * 97) & 0xFF_FFFF)), ingress, 1);
//! }
//! let report = engine.tick(120);
//! assert!(!report.newly_classified.is_empty());
//!
//! // ...so looking any source address up in the exported LPM table finds it.
//! let table = engine.snapshot(120).lpm_table();
//! let (range, who) = table.lookup(Addr::v4(0x0A01_0203)).unwrap();
//! assert!(who.is_link(ingress));
//! assert!(range.contains(Addr::v4(0x0A01_0203)));
//! ```

mod engine;
mod hash;
mod ingress;
pub mod output;
mod params;
pub mod persist;
pub mod pipeline;
mod range;
pub mod telemetry;
mod trie;

pub use engine::{EngineStats, IpdEngine, TickReport};
pub use ingress::{IngressId, IngressRegistry, LogicalIngress};
pub use output::{IpdRangeRecord, PrefixChange, ServedRow, Snapshot, StoreDelta};
pub use params::{CountMode, IpdParams, ParamError};
pub use telemetry::CoreTelemetry;
