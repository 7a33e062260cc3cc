//! `ipd-spoof` — spoofing and catchment-shift detection on top of the
//! served IPD ingress map.
//!
//! IPD's ingress map answers "where does traffic from this source enter the
//! network?". This crate closes the loop and asks the converse question of
//! every arriving flow: *could* a packet with this source legitimately have
//! entered here? Three answers are possible:
//!
//! * [`Verdict::Consistent`] — the served map (or, while the map is still
//!   cold, the current BGP expectation) agrees with the arrival point.
//! * [`Verdict::Spoofed`] — the claimed source prefix has **no** route at
//!   the arrival link: no candidate announcement of its origin AS lands
//!   there, at any point of the evidence window. The claim cannot be honest.
//! * [`Verdict::CatchmentShift`] — the arrival point is wrong but
//!   *plausible*: a legitimate candidate of the origin AS, observed while
//!   the prefix's routing demonstrably moved inside the trailing evidence
//!   window (or while the map is one epoch stale). Expected during anycast
//!   catchment churn; not an attack.
//!
//! The decision procedure ([`SpoofDetector::decide`]) is a pure function of
//! the flow, the served map's answer, and closed-form BGP oracles — no
//! per-flow mutable state. Same trace + same served epochs ⇒ bit-identical
//! verdict stream ([`VerdictDigest`]; [`offline`]'s determinism test and the
//! workspace golden test pin this).
//!
//! Start with [`run_offline`] for scenario-driven runs, or assemble
//! [`RouteExpect`] + [`SpoofDetector`] yourself to judge a live query feed,
//! scoring it with the same [`SpoofScorer`] the offline run uses.

pub mod detect;
pub mod expect;
pub mod offline;
pub mod telemetry;
pub mod verdict;

pub use detect::{MapView, SpoofConfig, SpoofDetector};
pub use expect::{Expectation, RouteExpect};
pub use offline::{run_offline, SpoofReport, SpoofRunConfig, SpoofScorer};
pub use telemetry::SpoofTelemetry;
pub use verdict::{
    decode_verdict, encode_verdict, Verdict, VerdictCodecError, VerdictDigest, VerdictRecord,
};
