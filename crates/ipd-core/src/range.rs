//! Per-range state and the classify/split/bundle decision.

use std::collections::hash_map::Entry;

use ipd_topology::Bundle;

use crate::hash::FastMap;
use crate::ingress::{IngressId, IngressRegistry, LogicalIngress};

/// Counter map: per-ingress accumulated weight (flows or bytes).
pub(crate) type CountMap = FastMap<IngressId, f64>;

/// State of one leaf range in the IPD trie.
#[derive(Debug, Clone)]
pub(crate) enum RangeState {
    /// Not yet classified: full per-(masked) source IP state is kept so that
    /// expiry can be exact and splits can redistribute it (the paper:
    /// "maintaining state only for ranges lacking a definitive ingress").
    Monitoring(MonitorState),
    /// Classified: "all state is removed for efficiency reasons, and only
    /// the total number of samples, the counters for the respective
    /// ingresses, and the last timestamp are retained."
    Classified(ClassifiedState),
}

impl RangeState {
    pub(crate) fn empty() -> Self {
        RangeState::Monitoring(MonitorState::default())
    }

    /// Most recent sample timestamp in this range, if any.
    pub(crate) fn last_ts(&self) -> Option<u64> {
        match self {
            RangeState::Monitoring(m) => (!m.is_empty()).then_some(m.newest),
            RangeState::Classified(c) => Some(c.last_ts),
        }
    }
}

/// Per masked-source-IP observation state. Monitoring weights are
/// integers — 1 per flow, or the flow's byte count — so every sum over
/// them is exact and independent of the order it is taken in.
#[derive(Debug, Clone)]
pub(crate) struct IpState {
    pub(crate) last_ts: u64,
    /// The first ingress this IP was seen on, with its weight.
    first: (IngressId, u64),
    /// Further ingresses in first-seen order: empty, and unallocated, for
    /// the common IP that only ever enters through one link.
    more: Vec<(IngressId, u64)>,
}

impl IpState {
    /// An IP's state from its first `(ingress, weight)`.
    pub(crate) fn new(last_ts: u64, id: IngressId, weight: u64) -> Self {
        IpState {
            last_ts,
            first: (id, weight),
            more: Vec::new(),
        }
    }

    /// Every `(ingress, weight)` of this IP, each ingress once.
    pub(crate) fn counts(&self) -> impl Iterator<Item = (IngressId, u64)> + '_ {
        std::iter::once(self.first).chain(self.more.iter().copied())
    }

    /// Add `weight` on `id`; true when `id` is new to this IP.
    pub(crate) fn add(&mut self, id: IngressId, weight: u64) -> bool {
        if self.first.0 == id {
            self.first.1 += weight;
            return false;
        }
        if let Some(e) = self.more.iter_mut().find(|e| e.0 == id) {
            e.1 += weight;
            return false;
        }
        self.more.push((id, weight));
        true
    }
}

/// One ingress's share of a monitored range: its weight summed over the
/// range's IPs, and how many of those IPs hold it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct IngressTotal {
    weight: u64,
    ips: u32,
}

/// Unclassified-range state: one entry per masked source IP, plus running
/// aggregates over them that `add`, `expire`, `split` and restore keep
/// equal to a recomputation — so the per-tick totals cost O(ingresses),
/// not O(IPs).
#[derive(Debug, Clone)]
pub(crate) struct MonitorState {
    ips: FastMap<u128, IpState>,
    /// Sum of every weight of every IP.
    total: u64,
    /// Per-ingress weight and holder count. An ingress leaves when its
    /// last holder expires, so zero-weight ingresses (`bytes = 0` flows)
    /// stay listed exactly as long as a recomputation would list them.
    per_ingress: FastMap<IngressId, IngressTotal>,
    /// The largest `last_ts` of any IP (meaningless while empty).
    newest: u64,
    /// A lower bound on the smallest `last_ts` of any IP (`u64::MAX` while
    /// empty): exact after every scan, lowered by every new IP.
    oldest: u64,
}

impl Default for MonitorState {
    fn default() -> Self {
        MonitorState {
            ips: FastMap::default(),
            total: 0,
            per_ingress: FastMap::default(),
            newest: 0,
            oldest: u64::MAX,
        }
    }
}

impl MonitorState {
    /// Record one sample.
    pub(crate) fn add(&mut self, masked_ip: u128, ts: u64, id: IngressId, weight: u64) {
        let new_ingress = match self.ips.entry(masked_ip) {
            Entry::Occupied(e) => {
                let s = e.into_mut();
                s.last_ts = s.last_ts.max(ts);
                s.add(id, weight)
            }
            Entry::Vacant(e) => {
                e.insert(IpState::new(ts, id, weight));
                self.oldest = self.oldest.min(ts);
                true
            }
        };
        self.total += weight;
        self.newest = self.newest.max(ts);
        let agg = self.per_ingress.entry(id).or_default();
        agg.weight += weight;
        agg.ips += u32::from(new_ingress);
    }

    /// Insert a whole per-IP entry (split and restore), folding it into
    /// the aggregates. False, and nothing changes, if the address is held.
    pub(crate) fn insert(&mut self, masked_ip: u128, st: IpState) -> bool {
        let Entry::Vacant(slot) = self.ips.entry(masked_ip) else {
            return false;
        };
        for (id, w) in st.counts() {
            self.total += w;
            let agg = self.per_ingress.entry(id).or_default();
            agg.weight += w;
            agg.ips += 1;
        }
        self.newest = self.newest.max(st.last_ts);
        self.oldest = self.oldest.min(st.last_ts);
        slot.insert(st);
        true
    }

    /// Remove per-IP state older than `e` seconds. Returns how many IPs were
    /// expired. Returns at once while even the oldest IP is fresh.
    pub(crate) fn expire(&mut self, now: u64, e_secs: u64) -> usize {
        if self.oldest.saturating_add(e_secs) >= now {
            return 0;
        }
        let before = self.ips.len();
        let mut oldest = u64::MAX;
        let (total, per_ingress) = (&mut self.total, &mut self.per_ingress);
        self.ips.retain(|_, s| {
            if s.last_ts.saturating_add(e_secs) >= now {
                oldest = oldest.min(s.last_ts);
                return true;
            }
            for (id, w) in s.counts() {
                *total -= w;
                let Entry::Occupied(mut agg) = per_ingress.entry(id) else {
                    unreachable!("every held ingress is aggregated")
                };
                agg.get_mut().weight -= w;
                agg.get_mut().ips -= 1;
                if agg.get().ips == 0 {
                    agg.remove();
                }
            }
            false
        });
        self.oldest = oldest;
        if self.ips.is_empty() {
            self.newest = 0;
        }
        before - self.ips.len()
    }

    /// Read the entries [`MonitorState::add`] of this IP and ingress will
    /// update, so that the add finds them in cache.
    pub(crate) fn touch(&self, masked_ip: u128, id: IngressId) {
        std::hint::black_box((self.ips.get(&masked_ip), self.per_ingress.get(&id)));
    }

    /// Total weight over all IPs.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Per-ingress weights, as the `f64` counters the decision and the
    /// classified state work with (exact: the integers stay below 2^53).
    pub(crate) fn per_ingress(&self) -> CountMap {
        self.per_ingress
            .iter()
            .map(|(&id, agg)| (id, agg.weight as f64))
            .collect()
    }

    /// Number of monitored IPs.
    pub(crate) fn ip_count(&self) -> usize {
        self.ips.len()
    }

    /// Every monitored IP with its state, in map order.
    pub(crate) fn ips(&self) -> impl Iterator<Item = (u128, &IpState)> + '_ {
        self.ips.iter().map(|(&ip, st)| (ip, st))
    }

    /// True when no per-IP state remains.
    pub(crate) fn is_empty(&self) -> bool {
        self.ips.is_empty()
    }

    /// Split the state into (bit = 0, bit = 1) halves according to address
    /// bit `depth` (0-based from the MSB of the family width `width`).
    pub(crate) fn split(self, width: u8, depth: u8) -> (MonitorState, MonitorState) {
        let mut halves = [MonitorState::default(), MonitorState::default()];
        let shift = width - 1 - depth;
        for (ip, st) in self.ips {
            halves[((ip >> shift) & 1) as usize].insert(ip, st);
        }
        let [left, right] = halves;
        (left, right)
    }
}

/// Classified-range state.
#[derive(Debug, Clone)]
pub(crate) struct ClassifiedState {
    /// The assigned logical ingress.
    pub(crate) ingress: LogicalIngress,
    /// Interned ids belonging to the ingress (one for a link, several for a
    /// bundle) — kept sorted for cheap membership tests.
    pub(crate) member_ids: Vec<IngressId>,
    /// Per-ingress counters (all ingresses, members and strays).
    pub(crate) counts: CountMap,
    /// Total weight (`s_ipcount` in Table 3).
    pub(crate) total: f64,
    /// Last sample timestamp.
    pub(crate) last_ts: u64,
    /// When this range was classified.
    pub(crate) since: u64,
}

impl ClassifiedState {
    /// Record one sample.
    pub(crate) fn add(&mut self, ts: u64, id: IngressId, weight: f64) {
        *self.counts.entry(id).or_insert(0.0) += weight;
        self.total += weight;
        self.last_ts = self.last_ts.max(ts);
    }

    /// Share of the traffic entering through member ingresses — the paper's
    /// `s_ingress` confidence for a classified range.
    pub(crate) fn member_share(&self) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        let member: f64 = self
            .member_ids
            .iter()
            .filter_map(|id| self.counts.get(id))
            .sum();
        member / self.total
    }

    /// Multiply every counter by `factor` (the Table 1 decay).
    pub(crate) fn decay(&mut self, factor: f64) {
        for w in self.counts.values_mut() {
            *w *= factor;
        }
        self.total *= factor;
    }
}

/// Outcome of evaluating an unclassified range that met its `n_cidr`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Decision {
    /// One logical ingress dominates: classify.
    Classify(LogicalIngress, Vec<IngressId>),
    /// Ambiguous and below `cidr_max`: split into the two children.
    Split,
    /// Ambiguous at `cidr_max` (and bundling did not help): keep monitoring.
    Wait,
}

/// The classification decision of Algorithm 1, lines 9–15.
///
/// * A single ingress with share ≥ `q` classifies as a link at any depth.
/// * Below `cidr_max`, anything ambiguous splits.
/// * At `cidr_max` ranges cannot split, so we attempt router-level
///   *bundling*: if one router's interfaces jointly hold share ≥ `q`, the
///   interfaces carrying at least `bundle_member_min_share` of that router's
///   weight form a [`Bundle`]. Otherwise the range stays monitored.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide(
    per_ingress: &CountMap,
    total: f64,
    q: f64,
    at_cidr_max: bool,
    enable_bundles: bool,
    bundle_member_min_share: f64,
    registry: &IngressRegistry,
) -> Decision {
    if total <= 0.0 {
        return Decision::Wait;
    }
    // Single dominant link? Ties break toward the lower id so the decision
    // is deterministic (HashMap iteration order is randomly seeded).
    if let Some((&best_id, &best_w)) = per_ingress.iter().max_by(|a, b| {
        a.1.partial_cmp(b.1)
            .expect("weights are finite")
            .then(b.0.cmp(a.0))
    }) {
        if best_w / total >= q {
            let point = registry.resolve(best_id);
            return Decision::Classify(LogicalIngress::Link(point), vec![best_id]);
        }
    }
    if !at_cidr_max {
        return Decision::Split;
    }
    if enable_bundles {
        // Group by router.
        let mut per_router: FastMap<u32, f64> = FastMap::default();
        for (&id, &w) in per_ingress {
            *per_router.entry(registry.resolve(id).router).or_insert(0.0) += w;
        }
        if let Some((&router, &router_w)) = per_router.iter().max_by(|a, b| {
            a.1.partial_cmp(b.1)
                .expect("weights are finite")
                .then(b.0.cmp(a.0))
        }) {
            if router_w / total >= q {
                let mut member_ids: Vec<IngressId> = per_ingress
                    .iter()
                    .filter(|(&id, &w)| {
                        registry.resolve(id).router == router
                            && w >= bundle_member_min_share * router_w
                    })
                    .map(|(&id, _)| id)
                    .collect();
                member_ids.sort_unstable();
                // Re-check: dropping sub-threshold members must not push the
                // member share below q.
                let member_w: f64 = member_ids.iter().filter_map(|id| per_ingress.get(id)).sum();
                if member_w / total >= q {
                    if member_ids.len() == 1 {
                        let point = registry.resolve(member_ids[0]);
                        return Decision::Classify(LogicalIngress::Link(point), member_ids);
                    }
                    let ifindexes = member_ids
                        .iter()
                        .map(|&id| registry.resolve(id).ifindex)
                        .collect();
                    return Decision::Classify(
                        LogicalIngress::Bundle(Bundle::new(router, ifindexes)),
                        member_ids,
                    );
                }
            }
        }
    }
    Decision::Wait
}

/// Does this counter distribution look like *router-level load balancing*
/// (§5.8)? True when at least two distinct routers each carry ≥ 25 % of the
/// range's traffic and together carry ≥ `q` — the signature of a neighbor
/// hashing flows across two of our routers, which IPD deliberately does not
/// classify but can cheaply flag.
pub(crate) fn looks_load_balanced(
    per_ingress: &CountMap,
    total: f64,
    q: f64,
    registry: &IngressRegistry,
) -> bool {
    if total <= 0.0 {
        return false;
    }
    let mut per_router: FastMap<u32, f64> = FastMap::default();
    for (&id, &w) in per_ingress {
        *per_router.entry(registry.resolve(id).router).or_insert(0.0) += w;
    }
    let mut majors: Vec<f64> = per_router
        .values()
        .copied()
        .filter(|w| *w / total >= 0.25)
        .collect();
    if majors.len() < 2 {
        return false;
    }
    majors.sort_by(|a, b| b.partial_cmp(a).expect("finite weights"));
    majors.iter().take(3).sum::<f64>() / total >= q
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::trie::{dump_leaf, restore_leaf};
    use ipd_lpm::{Af, Prefix};
    use ipd_topology::IngressPoint;
    use proptest::prelude::*;

    fn registry_with(points: &[(u32, u16)]) -> (IngressRegistry, Vec<IngressId>) {
        let mut reg = IngressRegistry::new();
        let ids = points
            .iter()
            .map(|&(r, i)| reg.intern(IngressPoint::new(r, i)))
            .collect();
        (reg, ids)
    }

    #[test]
    fn monitor_add_expire_totals() {
        let (_, ids) = registry_with(&[(1, 1), (1, 2)]);
        let mut m = MonitorState::default();
        m.add(100, 10, ids[0], 1);
        m.add(100, 12, ids[0], 1);
        m.add(200, 50, ids[1], 3);
        assert_eq!(m.total(), 5);
        let per = m.per_ingress();
        assert_eq!(per[&ids[0]], 2.0);
        assert_eq!(per[&ids[1]], 3.0);
        assert_eq!(RangeState::Monitoring(m.clone()).last_ts(), Some(50));
        // IP 100 was last seen at 12 (12+120 < 170: expired at now=170);
        // IP 200 at 50 (50+120 = 170 >= 170: kept, then expired at 200).
        assert_eq!(m.expire(170, 120), 1);
        assert_eq!(m.ip_count(), 1);
        assert_eq!(m.total(), 3);
        assert!(!m.per_ingress().contains_key(&ids[0]));
        assert_eq!(m.expire(200, 120), 1);
        assert!(m.is_empty());
        assert_eq!(RangeState::Monitoring(m).last_ts(), None);
    }

    #[test]
    fn one_ingress_per_ip_stays_inline() {
        let (_, ids) = registry_with(&[(1, 1), (1, 2)]);
        let mut m = MonitorState::default();
        for ts in 0..5 {
            m.add(7, ts, ids[0], 1);
        }
        assert!(m.ips[&7].more.is_empty(), "one ingress never spills");
        m.add(7, 5, ids[1], 0);
        assert_eq!(
            m.ips[&7].counts().collect::<Vec<_>>(),
            vec![(ids[0], 5), (ids[1], 0)]
        );
        // A zero-weight ingress is still an ingress of the range.
        assert_eq!(m.per_ingress()[&ids[1]], 0.0);
    }

    #[test]
    fn monitor_split_partitions_by_bit() {
        let (_, ids) = registry_with(&[(1, 1)]);
        let mut m = MonitorState::default();
        // IPv4 (width 32), splitting at depth 8 (bit index 8 from MSB).
        let low = 0x0A00_0001u128; // 10.0.0.1  -> bit 8 = 0
        let high = 0x0A80_0001u128; // 10.128.0.1 -> bit 8 = 1
        m.add(low, 1, ids[0], 1);
        m.add(high, 1, ids[0], 2);
        let (l, r) = m.split(32, 8);
        assert_eq!(l.ip_count(), 1);
        assert!(l.ips.contains_key(&low));
        assert_eq!(l.total(), 1);
        assert_eq!(r.ip_count(), 1);
        assert!(r.ips.contains_key(&high));
        assert_eq!(r.total(), 2);
    }

    #[test]
    fn classified_share_and_decay() {
        let (_, ids) = registry_with(&[(1, 1), (2, 1)]);
        let mut c = ClassifiedState {
            ingress: LogicalIngress::Link(IngressPoint::new(1, 1)),
            member_ids: vec![ids[0]],
            counts: CountMap::default(),
            total: 0.0,
            last_ts: 0,
            since: 0,
        };
        for _ in 0..95 {
            c.add(10, ids[0], 1.0);
        }
        for _ in 0..5 {
            c.add(11, ids[1], 1.0);
        }
        assert!((c.member_share() - 0.95).abs() < 1e-9);
        assert_eq!(c.last_ts, 11);
        c.decay(0.5);
        assert!((c.total - 50.0).abs() < 1e-9);
        assert!((c.member_share() - 0.95).abs() < 1e-9, "decay keeps shares");
    }

    #[test]
    fn decide_single_dominant_link() {
        let (reg, ids) = registry_with(&[(1, 1), (2, 1)]);
        let mut per = CountMap::default();
        per.insert(ids[0], 96.0);
        per.insert(ids[1], 4.0);
        let d = decide(&per, 100.0, 0.95, false, true, 0.05, &reg);
        assert_eq!(
            d,
            Decision::Classify(LogicalIngress::Link(IngressPoint::new(1, 1)), vec![ids[0]])
        );
    }

    #[test]
    fn decide_ambiguous_splits_below_max() {
        let (reg, ids) = registry_with(&[(1, 1), (2, 1)]);
        let mut per = CountMap::default();
        per.insert(ids[0], 60.0);
        per.insert(ids[1], 40.0);
        assert_eq!(
            decide(&per, 100.0, 0.95, false, true, 0.05, &reg),
            Decision::Split
        );
    }

    #[test]
    fn decide_bundles_at_cidr_max() {
        // Two interfaces of router 5 share the traffic evenly.
        let (reg, ids) = registry_with(&[(5, 1), (5, 2), (6, 1)]);
        let mut per = CountMap::default();
        per.insert(ids[0], 49.0);
        per.insert(ids[1], 48.0);
        per.insert(ids[2], 3.0);
        match decide(&per, 100.0, 0.95, true, true, 0.05, &reg) {
            Decision::Classify(LogicalIngress::Bundle(b), members) => {
                assert_eq!(b, Bundle::new(5, vec![1, 2]));
                assert_eq!(members.len(), 2);
            }
            other => panic!("expected bundle, got {other:?}"),
        }
    }

    #[test]
    fn decide_no_bundle_when_disabled_or_across_routers() {
        let (reg, ids) = registry_with(&[(5, 1), (5, 2)]);
        let mut per = CountMap::default();
        per.insert(ids[0], 50.0);
        per.insert(ids[1], 50.0);
        // Disabled: waits.
        assert_eq!(
            decide(&per, 100.0, 0.95, true, false, 0.05, &reg),
            Decision::Wait
        );
        // Across two routers: no bundle possible.
        let (reg2, ids2) = registry_with(&[(5, 1), (6, 1)]);
        let mut per2 = CountMap::default();
        per2.insert(ids2[0], 50.0);
        per2.insert(ids2[1], 50.0);
        assert_eq!(
            decide(&per2, 100.0, 0.95, true, true, 0.05, &reg2),
            Decision::Wait
        );
    }

    #[test]
    fn decide_bundle_collapses_to_link_when_one_member_survives() {
        // Second interface is below the member threshold, first holds ≥ q alone.
        let (reg, ids) = registry_with(&[(5, 1), (5, 2)]);
        let mut per = CountMap::default();
        per.insert(ids[0], 96.0);
        per.insert(ids[1], 4.0);
        // Single-link rule fires first anyway at 96%.
        match decide(&per, 100.0, 0.95, true, true, 0.25, &reg) {
            Decision::Classify(LogicalIngress::Link(p), _) => {
                assert_eq!(p, IngressPoint::new(5, 1));
            }
            other => panic!("expected link, got {other:?}"),
        }
    }

    #[test]
    fn decide_empty_waits() {
        let (reg, _) = registry_with(&[]);
        assert_eq!(
            decide(&CountMap::default(), 0.0, 0.95, false, true, 0.05, &reg),
            Decision::Wait
        );
    }

    #[test]
    fn bundle_members_below_threshold_are_excluded() {
        // Router 5 dominates via three interfaces: 60/35/1 (+4 stray).
        // With member_min_share 0.05, the 1%-interface is excluded but the
        // remaining two still hold ≥ q... 95/100 exactly.
        let (reg, ids) = registry_with(&[(5, 1), (5, 2), (5, 3), (6, 1)]);
        let mut per = CountMap::default();
        per.insert(ids[0], 60.0);
        per.insert(ids[1], 35.0);
        per.insert(ids[2], 1.0);
        per.insert(ids[3], 4.0);
        match decide(&per, 100.0, 0.95, true, true, 0.05, &reg) {
            Decision::Classify(LogicalIngress::Bundle(b), members) => {
                assert_eq!(b, Bundle::new(5, vec![1, 2]));
                assert_eq!(members.len(), 2);
            }
            other => panic!("expected bundle, got {other:?}"),
        }
    }

    /// One step of the aggregate oracle below.
    #[derive(Debug, Clone)]
    enum Op {
        /// A sample `late` seconds behind the clock.
        Add {
            range: usize,
            ip: u128,
            late: u64,
            ingress: u32,
            weight: u64,
        },
        Advance(u64),
        Expire(usize),
        Split(usize, u8),
        Restore(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        let weight = prop_oneof![Just(0u64), Just(1), Just(1400), Just(u64::from(u32::MAX))];
        prop_oneof![
            6 => (any::<usize>(), 0u128..16, 0u128..4, 0u64..200, 0u32..4, weight).prop_map(
                |(range, hi, lo, late, ingress, weight)| Op::Add {
                    range,
                    ip: (hi << 28) | lo,
                    late,
                    ingress,
                    weight,
                }
            ),
            2 => (1u64..90).prop_map(Op::Advance),
            2 => any::<usize>().prop_map(Op::Expire),
            1 => (any::<usize>(), 0u8..4).prop_map(|(range, depth)| Op::Split(range, depth)),
            1 => any::<usize>().prop_map(Op::Restore),
        ]
    }

    /// The running aggregates equal a recomputation over the IPs.
    fn assert_aggregates(m: &MonitorState) {
        let mut total = 0u64;
        let mut per: BTreeMap<IngressId, IngressTotal> = BTreeMap::new();
        for s in m.ips.values() {
            let ids: BTreeSet<IngressId> = s.counts().map(|(id, _)| id).collect();
            assert_eq!(ids.len(), s.counts().count(), "an ingress listed twice");
            for (id, w) in s.counts() {
                total += w;
                let agg = per.entry(id).or_default();
                agg.weight += w;
                agg.ips += 1;
            }
        }
        assert_eq!(m.total, total);
        let held: BTreeMap<IngressId, IngressTotal> =
            m.per_ingress.iter().map(|(&id, &agg)| (id, agg)).collect();
        assert_eq!(held, per);
        match m.ips.values().map(|s| s.last_ts).max() {
            Some(newest) => assert_eq!(m.newest, newest),
            None => assert_eq!(m.oldest, u64::MAX),
        }
        if let Some(oldest) = m.ips.values().map(|s| s.last_ts).min() {
            assert!(m.oldest <= oldest, "oldest is not a lower bound");
        }
    }

    /// Dump and rebuild one monitored leaf through the checkpoint path.
    fn restored(m: MonitorState) -> MonitorState {
        let dump = dump_leaf(&RangeState::Monitoring(m));
        match restore_leaf(&dump, Prefix::root(Af::V4), 32, 4) {
            Ok(RangeState::Monitoring(m)) => m,
            other => panic!("restore changed the leaf: {other:?}"),
        }
    }

    proptest! {
        /// Random add/expire/split/restore sequences — late data, IPs on
        /// several ingresses, zero-byte flows — keep every range's
        /// aggregates equal to a recomputation, and `expire` skips its
        /// scan only when the scan would expire nothing.
        #[test]
        fn aggregates_match_recomputation(ops in proptest::collection::vec(op(), 1..200)) {
            const E_SECS: u64 = 120;
            let mut ranges = vec![MonitorState::default()];
            let mut now = 200u64;
            for op in ops {
                match op {
                    Op::Add { range, ip, late, ingress, weight } => {
                        let n = ranges.len();
                        ranges[range % n].add(ip, now - late, IngressId(ingress), weight);
                    }
                    Op::Advance(secs) => now += secs,
                    Op::Expire(range) => {
                        let n = ranges.len();
                        let m = &mut ranges[range % n];
                        let stale = m.ips.values().filter(|s| s.last_ts + E_SECS < now).count();
                        if m.oldest.saturating_add(E_SECS) >= now {
                            prop_assert_eq!(stale, 0, "skipped a scan that would expire");
                        }
                        prop_assert_eq!(m.expire(now, E_SECS), stale);
                    }
                    Op::Split(range, depth) => {
                        let n = ranges.len();
                        let m = std::mem::take(&mut ranges[range % n]);
                        let ips = m.ip_count();
                        let (l, r) = m.split(32, depth);
                        prop_assert_eq!(l.ip_count() + r.ip_count(), ips);
                        ranges[range % n] = l;
                        ranges.push(r);
                    }
                    Op::Restore(range) => {
                        let n = ranges.len();
                        let m = std::mem::take(&mut ranges[range % n]);
                        ranges[range % n] = restored(m);
                    }
                }
                for m in &ranges {
                    assert_aggregates(m);
                }
            }
        }
    }
}
