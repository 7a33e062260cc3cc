//! The IPD range trie: structure, ingest walk, and the stage-2 sweep.

use ipd_lpm::Prefix;

use crate::engine::TickReport;
use crate::ingress::{IngressId, IngressRegistry};
use crate::params::IpdParams;
use crate::persist::{ClassifiedDump, IpEntryDump, RestoreError, TrieNodeDump};
use crate::range::{
    decide, looks_load_balanced, ClassifiedState, CountMap, Decision, IpState, MonitorState,
    RangeState,
};

/// A dumped per-IP weight as the integer the engine holds: `None` unless
/// it is a finite, non-negative integer below 2^64.
fn exact_weight(w: f64) -> Option<u64> {
    (w >= 0.0 && w.fract() == 0.0 && w < u64::MAX as f64).then_some(w as u64)
}

/// Per-ingress weights as a sorted plain vector (canonical dump order).
fn sorted_counts(counts: &CountMap) -> Vec<(u32, f64)> {
    let mut v: Vec<(u32, f64)> = counts.iter().map(|(id, &w)| (id.index(), w)).collect();
    v.sort_unstable_by_key(|&(id, _)| id);
    v
}

/// Flows whose descents [`Node::ingest_run`] walks together.
const GROUP: usize = 8;

/// One flow ready for the trie walk: its ingress interned, its source
/// masked to `cidr_max` (family width, right-aligned), its weight taken
/// from the count mode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreparedFlow {
    pub(crate) bits: u128,
    pub(crate) ts: u64,
    pub(crate) weight: u64,
    pub(crate) id: IngressId,
}

/// A node of the binary range trie. Leaves carry range state; internal nodes
/// exist only where a range has been split.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf(RangeState),
    Internal(Box<[Node; 2]>),
}

/// Context threaded through the stage-2 sweep.
pub(crate) struct TickCtx<'a> {
    pub now: u64,
    pub params: &'a IpdParams,
    pub registry: &'a IngressRegistry,
    pub report: &'a mut TickReport,
}

impl Node {
    /// A fresh (monitoring, empty) leaf.
    pub(crate) fn empty() -> Self {
        Node::Leaf(RangeState::empty())
    }

    /// Stage 1 for a run of flows that all fall under this node, which sits
    /// `depth` levels below its family root (0 for the root itself; the
    /// sharded engine ingests straight into frontier subtrees). The flows
    /// are taken [`GROUP`] at a time: first every descent of the group is
    /// walked read-only, one level of each flow per step, so their cache
    /// misses overlap instead of queueing behind each other; then each flow
    /// is applied in stream order, exactly as one-by-one ingest would.
    pub(crate) fn ingest_run(&mut self, depth: u8, width: u8, flows: &[PreparedFlow]) {
        for group in flows.chunks(GROUP) {
            if group.len() > 1 {
                self.prewalk(depth, width, group);
            }
            for flow in group {
                self.ingest_from(depth, width, flow);
            }
        }
    }

    /// The read-only half of [`Node::ingest_run`]: bring each flow's path
    /// and the leaf entry it will update into cache.
    fn prewalk(&self, depth: u8, width: u8, group: &[PreparedFlow]) {
        let mut at = [self; GROUP];
        let at = &mut at[..group.len()];
        let mut level = depth;
        loop {
            let mut moved = false;
            for (node, flow) in at.iter_mut().zip(group) {
                if let Node::Internal(children) = *node {
                    *node = &children[((flow.bits >> (width - 1 - level)) & 1) as usize];
                    moved = true;
                }
            }
            if !moved {
                break;
            }
            level += 1;
        }
        for (node, flow) in at.iter().zip(group) {
            match node {
                Node::Leaf(RangeState::Monitoring(m)) => m.touch(flow.bits, flow.id),
                Node::Leaf(RangeState::Classified(c)) => {
                    std::hint::black_box(c.counts.get(&flow.id));
                }
                Node::Internal(_) => unreachable!("the walk stops at leaves"),
            }
        }
    }

    /// Walk to the leaf covering `flow.bits` from this node, `depth` levels
    /// below the family root, and record the sample there.
    pub(crate) fn ingest_from(&mut self, mut depth: u8, width: u8, flow: &PreparedFlow) {
        let mut node = self;
        loop {
            match node {
                Node::Internal(children) => {
                    let bit = ((flow.bits >> (width - 1 - depth)) & 1) as usize;
                    depth += 1;
                    node = &mut children[bit];
                }
                Node::Leaf(state) => {
                    match state {
                        RangeState::Monitoring(m) => {
                            m.add(flow.bits, flow.ts, flow.id, flow.weight)
                        }
                        RangeState::Classified(c) => c.add(flow.ts, flow.id, flow.weight as f64),
                    }
                    return;
                }
            }
        }
    }

    /// Stage 2 sweep (Algorithm 1 lines 5–19) over the subtree at `prefix`.
    pub(crate) fn tick(&mut self, prefix: Prefix, ctx: &mut TickCtx<'_>) {
        match self {
            Node::Leaf(_) => self.tick_leaf(prefix, ctx),
            Node::Internal(_) => {
                let (lp, rp) = prefix
                    .children()
                    .expect("internal nodes never sit at full address depth");
                if let Node::Internal(children) = self {
                    children[0].tick(lp, ctx);
                    children[1].tick(rp, ctx);
                }
                self.try_merge(prefix, ctx);
            }
        }
    }

    fn tick_leaf(&mut self, prefix: Prefix, ctx: &mut TickCtx<'_>) {
        let Node::Leaf(state) = self else {
            unreachable!("tick_leaf on internal node")
        };
        let params = ctx.params;
        let cidr_max = params.cidr_max(prefix.af());
        match state {
            RangeState::Monitoring(m) => {
                // Line 7: remove expired per-IP state.
                ctx.report.expired_ips += m.expire(ctx.now, params.e_secs);
                let total = m.total() as f64;
                let n_cidr = params.n_cidr(prefix.af(), prefix.len());
                // Line 8: enough samples?
                if total < n_cidr {
                    return;
                }
                let per_ingress = m.per_ingress();
                let at_max = prefix.len() >= cidr_max;
                match decide(
                    &per_ingress,
                    total,
                    params.q,
                    at_max,
                    params.enable_bundles,
                    params.bundle_member_min_share,
                    ctx.registry,
                ) {
                    Decision::Classify(ingress, member_ids) => {
                        // Line 10: assign; drop per-IP state, keep counters.
                        let last_ts = state.last_ts().unwrap_or(ctx.now);
                        ctx.report.newly_classified.push((prefix, ingress.clone()));
                        if matches!(ingress, crate::ingress::LogicalIngress::Bundle(_)) {
                            ctx.report.bundles += 1;
                        }
                        *state = RangeState::Classified(ClassifiedState {
                            ingress,
                            member_ids,
                            counts: per_ingress,
                            total,
                            last_ts,
                            since: ctx.now,
                        });
                    }
                    Decision::Split => {
                        // Line 13: split into the two children, then continue
                        // the sweep into them immediately — a child created
                        // mid-cycle is just another range of this cycle's
                        // `all_ranges`, so deep structure resolves within one
                        // tick instead of one level per tick.
                        let RangeState::Monitoring(m) =
                            std::mem::replace(state, RangeState::empty())
                        else {
                            unreachable!("checked monitoring above")
                        };
                        let (l, r) = m.split(prefix.af().width(), prefix.len());
                        ctx.report.splits += 1;
                        *self = Node::Internal(Box::new([
                            Node::Leaf(RangeState::Monitoring(l)),
                            Node::Leaf(RangeState::Monitoring(r)),
                        ]));
                        self.tick(prefix, ctx);
                    }
                    Decision::Wait => {
                        // §5.8 extension: a range stuck at cidr_max with an
                        // even split across routers is likely router-level
                        // load balancing by the neighbor — flag it.
                        if at_max
                            && params.detect_router_lb
                            && looks_load_balanced(&per_ingress, total, params.q, ctx.registry)
                        {
                            ctx.report.lb_suspects.push(prefix);
                        }
                    }
                }
            }
            RangeState::Classified(c) => {
                // Line 7 for classified ranges: decay when silent beyond `e`.
                // The Table 1 factor is applied once per cycle with the age
                // of one bucket (the counters are one `t` older each cycle),
                // i.e. ×0.55 per cycle at the defaults — a geometric fade
                // that "ensures that ranges are quickly removed from
                // classification when no new traffic is received" (§3.2).
                // (Using the cumulative silent age instead would make the
                // per-cycle factor approach 1 and large counters would
                // effectively never drain.)
                if ctx.now > c.last_ts + params.e_secs {
                    let factor = params.decay_factor(params.t_secs);
                    c.decay(factor);
                    if c.total < params.drop_floor {
                        // Fully faded out: forget the classification.
                        ctx.report.dropped.push(prefix);
                        *state = RangeState::empty();
                        return;
                    }
                }
                // Lines 16–19: prevalent ingress still valid?
                if c.member_share() < params.q {
                    ctx.report.invalidated.push(prefix);
                    *state = RangeState::empty();
                }
            }
        }
    }

    /// Join/collapse pass on an internal node whose children were just
    /// ticked: merge equal classified siblings (paper: "Adjacent ranges may
    /// also be joined if they share the same ingress and meet sample count
    /// requirements") and collapse empty monitoring siblings so the trie
    /// does not grow without bound.
    fn try_merge(&mut self, prefix: Prefix, ctx: &mut TickCtx<'_>) {
        let Node::Internal(children) = self else {
            return;
        };
        match (&children[0], &children[1]) {
            (Node::Leaf(RangeState::Classified(a)), Node::Leaf(RangeState::Classified(b)))
                if a.ingress == b.ingress =>
            {
                let combined = a.total + b.total;
                if combined < ctx.params.n_cidr(prefix.af(), prefix.len()) {
                    return;
                }
                let mut merged = a.clone();
                for (&id, &w) in &b.counts {
                    *merged.counts.entry(id).or_insert(0.0) += w;
                }
                merged.total = combined;
                merged.last_ts = a.last_ts.max(b.last_ts);
                merged.since = a.since.min(b.since);
                ctx.report.joins += 1;
                ctx.report
                    .newly_classified
                    .push((prefix, merged.ingress.clone()));
                *self = Node::Leaf(RangeState::Classified(merged));
            }
            (Node::Leaf(RangeState::Monitoring(a)), Node::Leaf(RangeState::Monitoring(b)))
                if a.is_empty() && b.is_empty() =>
            {
                ctx.report.collapses += 1;
                *self = Node::empty();
            }
            _ => {}
        }
    }

    /// Collect disjoint mutable handles on the subtrees `depth` levels below
    /// this node — the sharded engine's parallel work units. A leaf sitting
    /// shallower than `depth` becomes one unit covering every shard slot
    /// underneath it, so the returned entries always partition the address
    /// space exactly, in address order.
    pub(crate) fn frontier_at_depth<'a>(
        &'a mut self,
        prefix: Prefix,
        depth: u8,
        out: &mut Vec<(Prefix, &'a mut Node)>,
    ) {
        if depth == 0 {
            out.push((prefix, self));
            return;
        }
        match self {
            Node::Leaf(_) => out.push((prefix, self)),
            Node::Internal(children) => {
                let (lp, rp) = prefix
                    .children()
                    .expect("internal nodes never sit at full address depth");
                let [l, r] = &mut **children;
                l.frontier_at_depth(lp, depth - 1, out);
                r.frontier_at_depth(rp, depth - 1, out);
            }
        }
    }

    /// Sequential top phase of a sharded tick: every frontier subtree
    /// returned by [`Node::frontier_at_depth`] has already been fully ticked,
    /// so only the join/collapse pass on internal nodes *above* the frontier
    /// remains. Runs bottom-up like [`Node::tick`] does.
    ///
    /// A frontier leaf that split during its own tick leaves internal nodes
    /// above the old frontier; re-running [`Node::try_merge`] on those is a
    /// provable no-op (the in-subtree pass either merged — the node is a
    /// leaf now — or declined on conditions that have not changed since).
    pub(crate) fn tick_top(&mut self, prefix: Prefix, depth: u8, ctx: &mut TickCtx<'_>) {
        if depth == 0 {
            return; // at the frontier: the subtree was ticked in phase A
        }
        if !matches!(self, Node::Internal(_)) {
            return; // a frontier leaf shallower than `depth`: already ticked
        }
        let (lp, rp) = prefix
            .children()
            .expect("internal nodes never sit at full address depth");
        if let Node::Internal(children) = self {
            let [l, r] = &mut **children;
            l.tick_top(lp, depth - 1, ctx);
            r.tick_top(rp, depth - 1, ctx);
        }
        self.try_merge(prefix, ctx);
    }

    /// Visit every leaf with its prefix, in address order.
    pub(crate) fn visit_leaves<'a, F>(&'a self, prefix: Prefix, f: &mut F)
    where
        F: FnMut(Prefix, &'a RangeState),
    {
        match self {
            Node::Leaf(state) => f(prefix, state),
            Node::Internal(children) => {
                let (lp, rp) = prefix.children().expect("internal node below full depth");
                children[0].visit_leaves(lp, f);
                children[1].visit_leaves(rp, f);
            }
        }
    }

    /// Append this subtree to `out` in preorder (node, left, right). Maps
    /// are emitted sorted by key so the dump is canonical — the same trie
    /// state always yields the same dump.
    pub(crate) fn dump_into(&self, out: &mut Vec<TrieNodeDump>) {
        match self {
            Node::Internal(children) => {
                out.push(TrieNodeDump::Internal);
                children[0].dump_into(out);
                children[1].dump_into(out);
            }
            Node::Leaf(RangeState::Monitoring(m)) => {
                let mut ips: Vec<IpEntryDump> = m
                    .ips()
                    .map(|(ip, st)| {
                        let mut counts: Vec<(u32, f64)> =
                            st.counts().map(|(id, w)| (id.index(), w as f64)).collect();
                        counts.sort_unstable_by_key(|&(id, _)| id);
                        IpEntryDump {
                            ip,
                            last_ts: st.last_ts,
                            counts,
                        }
                    })
                    .collect();
                ips.sort_unstable_by_key(|e| e.ip);
                out.push(TrieNodeDump::Monitoring(ips));
            }
            Node::Leaf(RangeState::Classified(c)) => {
                out.push(TrieNodeDump::Classified(ClassifiedDump {
                    ingress: c.ingress.clone(),
                    member_ids: c.member_ids.iter().map(|id| id.index()).collect(),
                    counts: sorted_counts(&c.counts),
                    total: c.total,
                    last_ts: c.last_ts,
                    since: c.since,
                }));
            }
        }
    }

    /// Rebuild one subtree from a preorder dump, consuming entries from
    /// `nodes` starting at `*pos`. `n_ingresses` bounds the valid ingress
    /// ids; `af` is only used to name the family in errors, `depth_left`
    /// guards against dumps nesting deeper than the address width.
    pub(crate) fn from_dump(
        nodes: &[TrieNodeDump],
        pos: &mut usize,
        n_ingresses: u32,
        af: ipd_lpm::Af,
        depth_left: u8,
    ) -> Result<Node, RestoreError> {
        let Some(entry) = nodes.get(*pos) else {
            return Err(RestoreError::TruncatedTrie(af));
        };
        *pos += 1;
        let check_id = |id: u32| {
            if id < n_ingresses {
                Ok(IngressId(id))
            } else {
                Err(RestoreError::UnknownIngressId(id))
            }
        };
        match entry {
            TrieNodeDump::Internal => {
                if depth_left == 0 {
                    return Err(RestoreError::TooDeep(af));
                }
                let left = Node::from_dump(nodes, pos, n_ingresses, af, depth_left - 1)?;
                let right = Node::from_dump(nodes, pos, n_ingresses, af, depth_left - 1)?;
                Ok(Node::Internal(Box::new([left, right])))
            }
            TrieNodeDump::Monitoring(ips) => {
                let bad = |why| RestoreError::BadCounts(af, why);
                let mut m = MonitorState::default();
                let mut total = 0u64;
                for e in ips {
                    let mut st: Option<IpState> = None;
                    for &(id, w) in &e.counts {
                        let id = check_id(id)?;
                        let w = exact_weight(w)
                            .ok_or(bad("a per-IP weight is not a non-negative integer"))?;
                        total = total
                            .checked_add(w)
                            .ok_or(bad("a range's weights overflow 64 bits"))?;
                        match &mut st {
                            None => st = Some(IpState::new(e.last_ts, id, w)),
                            Some(st) => {
                                if !st.add(id, w) {
                                    return Err(bad("an IP entry lists an ingress twice"));
                                }
                            }
                        }
                    }
                    let st = st.ok_or(bad("an IP entry holds no counts"))?;
                    if !m.insert(e.ip, st) {
                        return Err(bad("a range lists an IP twice"));
                    }
                }
                Ok(Node::Leaf(RangeState::Monitoring(m)))
            }
            TrieNodeDump::Classified(c) => {
                let weight = |w: f64| {
                    if w.is_finite() && w >= 0.0 {
                        Ok(w)
                    } else {
                        Err(RestoreError::BadCounts(
                            af,
                            "a classified weight is NaN, infinite or negative",
                        ))
                    }
                };
                let mut counts =
                    CountMap::with_capacity_and_hasher(c.counts.len(), Default::default());
                for &(id, w) in &c.counts {
                    counts.insert(check_id(id)?, weight(w)?);
                }
                let member_ids = c
                    .member_ids
                    .iter()
                    .map(|&id| check_id(id))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Node::Leaf(RangeState::Classified(ClassifiedState {
                    ingress: c.ingress.clone(),
                    member_ids,
                    counts,
                    total: weight(c.total)?,
                    last_ts: c.last_ts,
                    since: c.since,
                })))
            }
        }
    }

    /// (leaves, classified leaves, monitored source IPs) in this subtree.
    pub(crate) fn counts(&self) -> (usize, usize, usize) {
        match self {
            Node::Leaf(RangeState::Monitoring(m)) => (1, 0, m.ip_count()),
            Node::Leaf(RangeState::Classified(_)) => (1, 1, 0),
            Node::Internal(children) => {
                let a = children[0].counts();
                let b = children[1].counts();
                (a.0 + b.0, a.1 + b.1, a.2 + b.2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TickReport;
    use crate::ingress::LogicalIngress;
    use ipd_lpm::{Addr, Af};
    use ipd_topology::IngressPoint;

    impl Node {
        /// One sample into the family root.
        fn ingest(&mut self, bits: u128, width: u8, ts: u64, id: IngressId, weight: u64) {
            self.ingest_from(
                0,
                width,
                &PreparedFlow {
                    bits,
                    ts,
                    weight,
                    id,
                },
            );
        }
    }

    fn small_params() -> IpdParams {
        IpdParams {
            // n_cidr(/0) = 1*sqrt(2^32) = 65536? too big for unit tests; use
            // tiny factor so a handful of samples suffice at shallow depths.
            ncidr_factor_v4: 0.0001,
            ..IpdParams::default()
        }
    }

    fn tick_once(
        node: &mut Node,
        params: &IpdParams,
        registry: &IngressRegistry,
        now: u64,
    ) -> TickReport {
        let mut report = TickReport::new(now);
        let mut ctx = TickCtx {
            now,
            params,
            registry,
            report: &mut report,
        };
        node.tick(Prefix::root(Af::V4), &mut ctx);
        report
    }

    #[test]
    fn single_ingress_classifies_root() {
        let params = small_params();
        let mut reg = IngressRegistry::new();
        let id = reg.intern(IngressPoint::new(1, 1));
        let mut root = Node::empty();
        for i in 0..100u32 {
            root.ingest(Addr::v4(i * 1000).masked(28).bits(), 32, 10, id, 1);
        }
        let report = tick_once(&mut root, &params, &reg, 60);
        assert_eq!(report.newly_classified.len(), 1);
        let (p, ing) = &report.newly_classified[0];
        assert_eq!(p.to_string(), "0.0.0.0/0");
        assert!(ing.is_link(IngressPoint::new(1, 1)));
        assert_eq!(root.counts(), (1, 1, 0));
    }

    #[test]
    fn two_ingresses_split_then_classify_halves() {
        let params = small_params();
        let mut reg = IngressRegistry::new();
        let a = reg.intern(IngressPoint::new(1, 1));
        let b = reg.intern(IngressPoint::new(2, 1));
        let mut root = Node::empty();
        // Low half via a, high half via b.
        for i in 0..60u32 {
            root.ingest(Addr::v4(i * 64).masked(28).bits(), 32, 10, a, 1);
            root.ingest(
                Addr::v4(0x8000_0000 + i * 64).masked(28).bits(),
                32,
                10,
                b,
                1,
            );
        }
        // The ambiguous root splits and — because the sweep cascades into
        // fresh children — both halves classify within the same tick.
        let r1 = tick_once(&mut root, &params, &reg, 60);
        assert_eq!(r1.splits, 1, "ambiguous root splits");
        assert_eq!(r1.newly_classified.len(), 2);
        let names: Vec<String> = r1
            .newly_classified
            .iter()
            .map(|(p, _)| p.to_string())
            .collect();
        assert!(names.contains(&"0.0.0.0/1".to_string()));
        assert!(names.contains(&"128.0.0.0/1".to_string()));
    }

    #[test]
    fn classified_range_invalidated_when_share_drops() {
        let params = small_params();
        let mut reg = IngressRegistry::new();
        let a = reg.intern(IngressPoint::new(1, 1));
        let b = reg.intern(IngressPoint::new(2, 1));
        let mut root = Node::empty();
        for i in 0..100u32 {
            root.ingest(Addr::v4(i * 1000).masked(28).bits(), 32, 10, a, 1);
        }
        tick_once(&mut root, &params, &reg, 60);
        assert_eq!(root.counts().1, 1);
        // Now the ingress shifts: feed heavy traffic via b.
        for i in 0..300u32 {
            root.ingest(Addr::v4(i * 1000).masked(28).bits(), 32, 70, b, 1);
        }
        let report = tick_once(&mut root, &params, &reg, 120);
        assert_eq!(report.invalidated.len(), 1);
        assert_eq!(root.counts().1, 0, "back to monitoring");
    }

    #[test]
    fn silent_classified_range_decays_and_drops() {
        let params = small_params();
        let mut reg = IngressRegistry::new();
        let a = reg.intern(IngressPoint::new(1, 1));
        let mut root = Node::empty();
        for i in 0..50u32 {
            root.ingest(Addr::v4(i * 1000).masked(28).bits(), 32, 10, a, 1);
        }
        tick_once(&mut root, &params, &reg, 60);
        assert_eq!(root.counts().1, 1);
        // Silence. Decay factors: age grows each tick; counters shrink
        // multiplicatively until below drop_floor (1.0).
        let mut dropped = false;
        let mut now = 60;
        for _ in 0..200 {
            now += params.t_secs;
            let r = tick_once(&mut root, &params, &reg, now);
            if !r.dropped.is_empty() {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "silent range must eventually be dropped");
        assert_eq!(root.counts(), (1, 0, 0));
    }

    #[test]
    fn equal_classified_siblings_join() {
        let params = small_params();
        let mut reg = IngressRegistry::new();
        let a = reg.intern(IngressPoint::new(1, 1));
        let b = reg.intern(IngressPoint::new(2, 1));
        let mut root = Node::empty();
        // Phase 1: two ingresses → split at tick 1, halves classify (a, b)
        // at tick 2 while the per-IP state is still fresh.
        for i in 0..60u32 {
            root.ingest(Addr::v4(i * 64).masked(28).bits(), 32, 10, a, 1);
            root.ingest(
                Addr::v4(0x8000_0000 + i * 64).masked(28).bits(),
                32,
                10,
                b,
                1,
            );
        }
        let r = tick_once(&mut root, &params, &reg, 60);
        assert_eq!(r.newly_classified.len(), 2);
        assert_eq!(root.counts(), (2, 2, 0));
        // Phase 2: traffic moves entirely to a for both halves. The b-half
        // dilutes below q, gets invalidated, re-learns a — then the two
        // a-classified siblings join back into the root.
        let mut joined = false;
        let mut now = 61;
        for _ in 0..10 {
            for i in 0..60u32 {
                root.ingest(Addr::v4(i * 64).masked(28).bits(), 32, now, a, 1);
                root.ingest(
                    Addr::v4(0x8000_0000 + i * 64).masked(28).bits(),
                    32,
                    now,
                    a,
                    1,
                );
            }
            now += params.t_secs;
            let r = tick_once(&mut root, &params, &reg, now);
            if r.joins > 0 {
                joined = true;
                break;
            }
        }
        assert!(joined, "siblings with equal ingress must join");
        assert_eq!(root.counts(), (1, 1, 0));
        // And the joined range is the root, classified to a.
        let mut seen = Vec::new();
        root.visit_leaves(Prefix::root(Af::V4), &mut |p, s| {
            if let RangeState::Classified(c) = s {
                seen.push((p, c.ingress.clone()));
            }
        });
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, Prefix::root(Af::V4));
        assert_eq!(seen[0].1, LogicalIngress::Link(IngressPoint::new(1, 1)));
    }

    #[test]
    fn empty_monitoring_siblings_collapse() {
        let params = small_params();
        let mut reg = IngressRegistry::new();
        let a = reg.intern(IngressPoint::new(1, 1));
        let b = reg.intern(IngressPoint::new(2, 1));
        let mut root = Node::empty();
        for i in 0..60u32 {
            root.ingest(Addr::v4(i * 64).masked(28).bits(), 32, 10, a, 1);
            root.ingest(
                Addr::v4(0x8000_0000 + i * 64).masked(28).bits(),
                32,
                10,
                b,
                1,
            );
        }
        tick_once(&mut root, &params, &reg, 60); // split + classify halves
        assert_eq!(root.counts().0, 2);
        // With traffic gone, the classified halves decay away, revert to
        // empty monitoring leaves, and collapse back into a single root.
        let mut now = 60;
        let mut collapsed = false;
        for _ in 0..200 {
            now += params.t_secs;
            let r = tick_once(&mut root, &params, &reg, now);
            if r.collapses >= 1 {
                collapsed = true;
                break;
            }
        }
        assert!(collapsed, "empty siblings must collapse");
        assert_eq!(root.counts(), (1, 0, 0));
    }

    #[test]
    fn router_load_balancing_is_flagged_not_classified() {
        // Same /28, flows alternating evenly between two *routers* — the
        // §5.8 pathological case.
        let params = small_params();
        let mut reg = IngressRegistry::new();
        let a = reg.intern(IngressPoint::new(1, 1));
        let b = reg.intern(IngressPoint::new(2, 1));
        let mut root = Node::empty();
        for i in 0..200u32 {
            let addr = Addr::v4(0x0A000000 + (i % 4)).masked(28).bits();
            root.ingest(addr, 32, 10, if i % 2 == 0 { a } else { b }, 1);
        }
        let report = tick_once(&mut root, &params, &reg, 60);
        assert!(report.newly_classified.is_empty(), "LB must not classify");
        assert!(
            report.lb_suspects.iter().any(|p| p.len() == 28),
            "expected a /28 LB suspect, got {:?}",
            report.lb_suspects
        );
        // Detection off: silent.
        let quiet = IpdParams {
            detect_router_lb: false,
            ..small_params()
        };
        let report = tick_once(&mut root, &quiet, &reg, 61);
        assert!(report.lb_suspects.is_empty());
    }

    #[test]
    fn even_split_on_one_router_is_a_bundle_not_lb() {
        let params = small_params();
        let mut reg = IngressRegistry::new();
        let a = reg.intern(IngressPoint::new(1, 1));
        let b = reg.intern(IngressPoint::new(1, 2));
        let mut root = Node::empty();
        for i in 0..200u32 {
            let addr = Addr::v4(0x0A000000 + (i % 4)).masked(28).bits();
            root.ingest(addr, 32, 10, if i % 2 == 0 { a } else { b }, 1);
        }
        let report = tick_once(&mut root, &params, &reg, 60);
        assert!(
            report.lb_suspects.is_empty(),
            "same-router split bundles instead"
        );
        assert_eq!(report.bundles, 1);
    }

    #[test]
    fn splits_stop_at_cidr_max() {
        let params = IpdParams {
            cidr_max_v4: 2,
            ncidr_factor_v4: 0.0001,
            ..IpdParams::default()
        };
        let mut reg = IngressRegistry::new();
        let ids: Vec<_> = (0..16)
            .map(|i| reg.intern(IngressPoint::new(100 + i as u32, 1)))
            .collect();
        let mut root = Node::empty();
        // 16 different ingresses spread over the whole space: would split
        // forever without the cidr_max stop.
        for round in 0..5 {
            for (i, &id) in ids.iter().enumerate() {
                for j in 0..50u32 {
                    let addr = Addr::v4(((i as u32) << 28) + j * 1024);
                    root.ingest(addr.masked(2).bits(), 32, round * 60, id, 1);
                }
            }
            tick_once(&mut root, &params, &reg, (round + 1) * 60);
        }
        // Depth never exceeds 2 → at most 4 leaves.
        assert!(root.counts().0 <= 4, "leaves: {}", root.counts().0);
    }
}
