//! Longest-prefix-match trie and the canonical address/prefix types shared by
//! the IPD reproduction.
//!
//! This crate sits at the bottom of the workspace dependency graph and provides:
//!
//! * [`Addr`] — an address-family-tagged IP address (IPv4 or IPv6) stored as a
//!   `u128`, cheap to copy and mask.
//! * [`Prefix`] — a CIDR range (`addr/len`) with the trie-navigation operations
//!   the IPD algorithm needs: children, parent, sibling, containment.
//! * [`LpmTrie`] — a generic binary longest-prefix-match trie keyed by
//!   [`Prefix`], used for the validation lookup table of §5.1 of the paper and
//!   for all BGP lookups.
//! * [`FlatLpm`] — the immutable, flattened read-side twin of [`LpmTrie`]:
//!   contiguous nodes plus a 16-bit stride table, built once and then only
//!   read. The spoof detector's BGP route expectation (`ipd-spoof`) uses it.
//! * [`ConcurrentLpm`] — the mutable concurrent sibling: a stride-4
//!   tree-bitmap store updated in place by one writer while readers perform
//!   seqlock-validated lock-free lookups. It is the one served ingress map
//!   (`ipd-serve`'s `LiveStore`), live and historical alike; its
//!   consistency contract is proven by the deterministic interleaving
//!   harness in `tests/interleave.rs`.
//!
//! The sequential types are deliberately simple (no unsafe anywhere in the
//! crate): per the project's networking guide, robustness and obviousness
//! beat micro-optimisation. The concurrent store keeps that promise — it is
//! built entirely from `std` atomics, `OnceLock` arenas, and a sequence lock,
//! with the module doc spelling out the memory-ordering argument.

pub mod concurrent;

mod addr;
mod flat;
mod prefix;
mod trie;

pub use addr::{Addr, Af};
pub use concurrent::{ConcurrentLpm, Updater};
pub use flat::FlatLpm;
pub use prefix::{ParsePrefixError, Prefix};
pub use trie::LpmTrie;
