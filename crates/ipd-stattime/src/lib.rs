//! Statistical-time pre-processing.
//!
//! The paper (§3.1, "Addressing clock drift with statistical time"): with
//! over 3,000 routers, "inaccurate router clocks occur", so IPD's pre-processing
//! "rel\[ies\] on inferring sequences of events from time input in the flow
//! data, rather than assuming that all clocks are in sync. This *statistical
//! time* approach segments traffic into uniform time buckets and analyzes
//! flow samples within these periods. Intervals that don't meet a certain
//! activity threshold are discarded, along with data outside the current
//! time range."
//!
//! [`TimeBucketer`] implements exactly that contract:
//!
//! * incoming flows are binned into uniform buckets of `bucket_secs`;
//! * the *statistical now* is advanced by observed traffic mass, not by any
//!   single router's claim — a lone fast clock cannot drag time forward;
//! * flows clamed to be further than `max_skew_buckets` behind statistical
//!   now are discarded as out-of-range;
//! * closed buckets below the activity threshold are discarded whole;
//! * emitted flows are re-stamped to the bucket start, so downstream IPD
//!   sees one consistent clock.
//!
//! [`ClockDrift`] is the matching fault injector used by the traffic
//! generator to corrupt router clocks in the first place.

mod bucketer;
mod drift;

pub use bucketer::{Flush, StatTimeConfig, TimeBucketer};
pub use drift::ClockDrift;
