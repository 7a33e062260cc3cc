//! Plain-data export and rebuild of the complete engine state.
//!
//! This is the sans-I/O substrate for checkpointing: [`EngineStateDump`] is
//! an owned, serialization-friendly mirror of everything an
//! [`IpdEngine`](crate::IpdEngine) holds — params, the ingress intern
//! table, cumulative stats, and both family tries in preorder. The `ipd-state` crate turns a dump into bytes
//! and back; this module guarantees the round trip is lossless and
//! *canonical*: every map is emitted sorted by key, so the same engine state
//! always produces the same dump regardless of `HashMap` iteration order.
//!
//! In both count modes a restored engine is bit-for-bit equivalent to the
//! original — continuing an interrupted run after
//! [`IpdEngine::restore_state`](crate::IpdEngine::restore_state) yields
//! `Snapshot::digest()`s identical to an uninterrupted run. Per-IP weights travel as `f64` but are integers in
//! the engine, so restore rejects any that is not one (and every other
//! count the engine cannot hold: see [`RestoreError::BadCounts`]), and it
//! rejects every trie shape the engine cannot build
//! ([`RestoreError::ImpossibleShape`]).

use ipd_lpm::Af;
use ipd_topology::IngressPoint;

use crate::engine::EngineStats;
use crate::ingress::LogicalIngress;
use crate::params::{IpdParams, ParamError};

/// Everything an [`IpdEngine`](crate::IpdEngine) holds, as plain owned data.
///
/// Produced by [`IpdEngine::dump_state`](crate::IpdEngine::dump_state);
/// consumed by [`IpdEngine::restore_state`](crate::IpdEngine::restore_state).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStateDump {
    /// Engine parameters (restore re-validates them).
    pub params: IpdParams,
    /// The intern table, in id order: index `i` is the point of id `i`.
    pub ingresses: Vec<IngressPoint>,
    /// Cumulative counters.
    pub stats: EngineStats,
    /// IPv4 trie in preorder (internal node, then left, then right subtree).
    pub v4: Vec<TrieNodeDump>,
    /// IPv6 trie in preorder.
    pub v6: Vec<TrieNodeDump>,
}

/// One trie node in a preorder dump.
#[derive(Debug, Clone, PartialEq)]
pub enum TrieNodeDump {
    /// An internal node; the next entries are its left then right subtrees.
    Internal,
    /// A monitoring leaf: per-masked-IP state, sorted by IP.
    Monitoring(Vec<IpEntryDump>),
    /// A classified leaf.
    Classified(ClassifiedDump),
}

/// Per-IP monitoring state of one masked source address.
#[derive(Debug, Clone, PartialEq)]
pub struct IpEntryDump {
    /// The masked source address (family width, right-aligned).
    pub ip: u128,
    /// Last sample timestamp.
    pub last_ts: u64,
    /// Per-ingress weights, sorted by ingress id.
    pub counts: Vec<(u32, f64)>,
}

/// State of a classified leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifiedDump {
    /// The assigned logical ingress.
    pub ingress: LogicalIngress,
    /// Member ids (already sorted by the engine).
    pub member_ids: Vec<u32>,
    /// Per-ingress weights, sorted by ingress id.
    pub counts: Vec<(u32, f64)>,
    /// Total weight.
    pub total: f64,
    /// Last sample timestamp.
    pub last_ts: u64,
    /// When the range was classified.
    pub since: u64,
}

/// Why a dump cannot be turned back into an engine.
#[derive(Debug)]
pub enum RestoreError {
    /// The dumped params fail [`IpdParams::validate`].
    Params(ParamError),
    /// The intern table contains the same point twice.
    DuplicateIngress(IngressPoint),
    /// A counter or member references an id outside the intern table.
    UnknownIngressId(u32),
    /// A preorder walk ran past the end of the node list.
    TruncatedTrie(Af),
    /// A preorder walk finished with nodes left over.
    TrailingNodes(Af, usize),
    /// The trie has a shape the engine never builds: an internal node at
    /// or below `cidr_max`, or an IP entry that is not masked to
    /// `cidr_max` or lies outside its leaf's range.
    ImpossibleShape(Af, &'static str),
    /// A leaf holds counts the engine cannot: a per-IP weight that is not
    /// a non-negative integer, an IP entry without counts, an IP or an
    /// ingress listed twice, a range whose weights overflow 64 bits, or a
    /// classified weight that is NaN, infinite or negative.
    BadCounts(Af, &'static str),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Params(e) => write!(f, "invalid params: {e}"),
            RestoreError::DuplicateIngress(p) => {
                write!(f, "duplicate ingress point R{}.{}", p.router, p.ifindex)
            }
            RestoreError::UnknownIngressId(id) => write!(f, "unknown ingress id {id}"),
            RestoreError::TruncatedTrie(af) => write!(f, "{af:?} trie preorder is truncated"),
            RestoreError::TrailingNodes(af, n) => {
                write!(f, "{af:?} trie preorder has {n} trailing nodes")
            }
            RestoreError::ImpossibleShape(af, why) | RestoreError::BadCounts(af, why) => {
                write!(f, "{af:?} trie: {why}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<ParamError> for RestoreError {
    fn from(e: ParamError) -> Self {
        RestoreError::Params(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IpdEngine;
    use ipd_lpm::Addr;

    /// A real dump: the IPv4 root classified, the IPv6 root monitoring
    /// ten IPs.
    fn dump() -> EngineStateDump {
        let params = IpdParams {
            ncidr_factor_v4: 0.01,
            ..IpdParams::default()
        };
        let mut e = IpdEngine::new(params).unwrap();
        for i in 0..1000u32 {
            e.ingest_parts(30, Addr::v4(i << 12), IngressPoint::new(1, 1), 1);
        }
        e.tick(60);
        for i in 0..10u128 {
            let src = Addr::v6((0x2001_0db8u128 << 96) | (i << 80));
            e.ingest_parts(70, src, IngressPoint::new(2, 1), 1);
        }
        e.dump_state()
    }

    fn monitored(d: &mut EngineStateDump) -> &mut Vec<IpEntryDump> {
        match d.v6.as_mut_slice() {
            [TrieNodeDump::Monitoring(ips)] => ips,
            other => panic!("expected one monitored IPv6 leaf, got {other:?}"),
        }
    }

    fn classified(d: &mut EngineStateDump) -> &mut ClassifiedDump {
        match d.v4.as_mut_slice() {
            [TrieNodeDump::Classified(c)] => c,
            other => panic!("expected one classified IPv4 leaf, got {other:?}"),
        }
    }

    fn rejected(d: EngineStateDump, af: Af) {
        match IpdEngine::restore_state(d) {
            Err(RestoreError::BadCounts(got, _)) => assert_eq!(got, af),
            other => panic!("expected BadCounts({af:?}), got {other:?}"),
        }
    }

    fn misshapen(d: EngineStateDump, af: Af) {
        match IpdEngine::restore_state(d) {
            Err(RestoreError::ImpossibleShape(got, _)) => assert_eq!(got, af),
            other => panic!("expected ImpossibleShape({af:?}), got {other:?}"),
        }
    }

    /// A monitored IPv4 leaf holding `ip`, alone in `0.0.0.0/1` beside an
    /// empty `128.0.0.0/1`.
    fn split_root_holding(ip: u128) -> EngineStateDump {
        let mut d = dump();
        d.v4 = vec![
            TrieNodeDump::Internal,
            TrieNodeDump::Monitoring(vec![IpEntryDump {
                ip,
                last_ts: 30,
                counts: vec![(0, 1.0)],
            }]),
            TrieNodeDump::Monitoring(Vec::new()),
        ];
        d
    }

    #[test]
    fn restore_rejects_an_ip_entry_outside_its_range() {
        assert!(IpdEngine::restore_state(split_root_holding(0x0A00_0000)).is_ok());
        misshapen(split_root_holding(0x8000_0000), Af::V4);
    }

    #[test]
    fn restore_rejects_an_ip_entry_not_masked_to_cidr_max() {
        let mut d = split_root_holding(0x0A00_0001);
        d.params.cidr_max_v4 = 28;
        misshapen(d, Af::V4);
    }

    #[test]
    fn restore_rejects_an_internal_node_at_cidr_max() {
        // 28 nested internal nodes down the left edge are as deep as
        // splits go at cidr_max /28; a 29th is not.
        let nested = |n: usize| {
            let mut d = dump();
            d.params.cidr_max_v4 = 28;
            d.v4 = vec![TrieNodeDump::Internal; n];
            d.v4.extend((0..=n).map(|_| TrieNodeDump::Monitoring(Vec::new())));
            d
        };
        assert!(IpdEngine::restore_state(nested(28)).is_ok());
        misshapen(nested(29), Af::V4);
    }

    #[test]
    fn restore_rejects_per_ip_weights_that_are_not_non_negative_integers() {
        for bad in [f64::NAN, f64::INFINITY, -1.0, 0.5, 2f64.powi(64)] {
            let mut d = dump();
            monitored(&mut d)[3].counts[0].1 = bad;
            rejected(d, Af::V6);
        }
    }

    #[test]
    fn restore_rejects_an_ip_entry_without_counts() {
        let mut d = dump();
        monitored(&mut d)[3].counts.clear();
        rejected(d, Af::V6);
    }

    #[test]
    fn restore_rejects_classified_weights_that_are_nan_infinite_or_negative() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut d = dump();
            classified(&mut d).counts[0].1 = bad;
            rejected(d, Af::V4);
            let mut d = dump();
            classified(&mut d).total = bad;
            rejected(d, Af::V4);
        }
    }

    #[test]
    fn restore_rejects_entries_ingest_never_produces() {
        // An ingress listed twice within one IP.
        let mut d = dump();
        let entry = &mut monitored(&mut d)[0];
        entry.counts.push(entry.counts[0]);
        rejected(d, Af::V6);
        // One IP listed twice within a range.
        let mut d = dump();
        let ips = monitored(&mut d);
        ips[1].ip = ips[0].ip;
        rejected(d, Af::V6);
        // Weights whose range total overflows 64 bits.
        let mut d = dump();
        for e in monitored(&mut d) {
            e.counts[0].1 = 2f64.powi(63);
        }
        rejected(d, Af::V6);
    }
}
