//! The seam between the live server and a longitudinal store.
//!
//! `ipd-hist` depends on this crate (for [`LiveStore`] and the wire types),
//! so the server cannot name `ipd-hist` types directly — instead it accepts
//! any [`HistoryProvider`], and `ipd-hist`'s `HistReader` implements the
//! trait. A server without a provider still speaks the longitudinal ops; it
//! just answers every `QueryAt` with "epoch unknown" and every `DiffRange`
//! with an empty diff.

use ipd::PrefixChange;

use crate::live::LiveStore;

/// What the server needs from a longitudinal store to answer the
/// time-travel ops (`QueryAt`, `DiffRange`).
pub trait HistoryProvider: Send + Sync {
    /// The full ingress map at `epoch`, with [`LiveStore::epoch`] equal to
    /// `epoch`, or `None` if the store does not hold that epoch.
    fn at_epoch(&self, epoch: u64) -> Option<LiveStore>;

    /// Per-prefix changes between two held epochs, sorted by prefix.
    /// `None` if either epoch is not held.
    fn diff(&self, from: u64, to: u64) -> Option<Vec<PrefixChange>>;
}
