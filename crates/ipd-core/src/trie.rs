//! The IPD range trie: one flat arena per address family, the stage-1
//! walk, and the stage-2 sweep.
//!
//! Internal nodes are pairs of child [`Link`]s in one `Vec`, leaves are
//! [`RangeState`]s in another, and a slot freed by a join or collapse goes
//! on its arena's free list for the next split to take. A 2^16-entry
//! stride table holds, for every value of the top [`STRIDE_BITS`] address
//! bits, the deepest node at depth ≤ [`STRIDE_BITS`] on that path, so every
//! stage-1 walk starts there instead of at the root. Only stage 2 changes
//! the structure: the table is refilled at the end of any sweep that split,
//! joined or collapsed a range, and after restore; stage 1 only reads it.

use ipd_lpm::{Af, Prefix};

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

/// Flows whose walks [`Trie::ingest_run`] interleaves.
const GROUP: usize = 8;

/// Leading address bits the stride table resolves.
const STRIDE_BITS: u8 = 16;

/// A child link: a leaf slot with [`LEAF`] set, otherwise an internal slot.
type Link = u32;

/// The tag bit of a [`Link`] that names a leaf.
const LEAF: Link = 1 << 31;

fn is_leaf(link: Link) -> bool {
    link & LEAF != 0
}

/// The arena slot a link names.
fn slot(link: Link) -> usize {
    (link & !LEAF) as usize
}

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

/// Context threaded through the stage-2 sweep.
pub(crate) struct TickCtx<'a> {
    pub now: u64,
    pub params: &'a IpdParams,
    pub registry: &'a IngressRegistry,
    pub report: &'a mut TickReport,
}

/// The range trie of one address family. Leaves carry range state;
/// internal nodes exist only where a range has been split.
#[derive(Clone)]
pub(crate) struct Trie {
    af: Af,
    root: Link,
    inner: Vec<[Link; 2]>,
    leaves: Vec<RangeState>,
    free_inner: Vec<Link>,
    free_leaves: Vec<Link>,
    /// Per top-[`STRIDE_BITS`] value: the deepest node at depth ≤
    /// [`STRIDE_BITS`] on that path, with its depth.
    stride: Vec<(Link, u8)>,
}

impl std::fmt::Debug for Trie {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trie")
            .field("af", &self.af)
            .field("ranges", &(self.leaves.len() - self.free_leaves.len()))
            .field("internal", &(self.inner.len() - self.free_inner.len()))
            .finish_non_exhaustive()
    }
}

impl Trie {
    /// A trie holding one fresh (monitoring, empty) root leaf.
    pub(crate) fn new(af: Af) -> Self {
        Trie {
            af,
            root: LEAF,
            inner: Vec::new(),
            leaves: vec![RangeState::empty()],
            free_inner: Vec::new(),
            free_leaves: Vec::new(),
            stride: vec![(LEAF, 0); 1 << STRIDE_BITS],
        }
    }

    /// Stage 1 for a run of this family's flows. The flows are taken
    /// [`GROUP`] at a time: every walk of the group starts at its stride
    /// entry and they go down interleaved, one level of each flow per step,
    /// so their cache misses overlap instead of queueing behind each other;
    /// then the leaf entries the flows will update are touched, and each
    /// flow is applied to the leaf it reached, in stream order. Stage 1
    /// never changes the structure, so those leaves stay valid throughout.
    pub(crate) fn ingest_run(&mut self, flows: &[PreparedFlow]) {
        let width = self.af.width();
        for group in flows.chunks(GROUP) {
            let mut at = [(LEAF, 0u8); GROUP];
            let at = &mut at[..group.len()];
            for (at, flow) in at.iter_mut().zip(group) {
                *at = self.stride[(flow.bits >> (width - STRIDE_BITS)) as usize];
            }
            loop {
                let mut moved = false;
                for ((link, depth), flow) in at.iter_mut().zip(group) {
                    if !is_leaf(*link) {
                        let bit = (flow.bits >> (width - 1 - *depth)) & 1;
                        *link = self.inner[slot(*link)][bit as usize];
                        *depth += 1;
                        moved = true;
                    }
                }
                if !moved {
                    break;
                }
            }
            if group.len() > 1 {
                for (&(link, _), flow) in at.iter().zip(group) {
                    match &self.leaves[slot(link)] {
                        RangeState::Monitoring(m) => m.touch(flow.bits, flow.id),
                        RangeState::Classified(c) => {
                            std::hint::black_box(c.counts.get(&flow.id));
                        }
                    }
                }
            }
            for (&(link, _), flow) in at.iter().zip(group) {
                match &mut self.leaves[slot(link)] {
                    RangeState::Monitoring(m) => m.add(flow.bits, flow.ts, flow.id, flow.weight),
                    RangeState::Classified(c) => c.add(flow.ts, flow.id, flow.weight as f64),
                }
            }
        }
    }

    /// Stage 2 sweep (Algorithm 1 lines 5–19) over the whole trie, in
    /// depth-first address order; refills the stride table if the sweep
    /// changed the structure.
    pub(crate) fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        let reshapes = |r: &TickReport| r.splits + r.joins + r.collapses;
        let before = reshapes(ctx.report);
        self.root = self.sweep(self.root, Prefix::root(self.af), ctx);
        if reshapes(ctx.report) != before {
            self.refill_stride();
        }
    }

    /// Tick the subtree at `link`, covering `prefix`; returns the link that
    /// now stands in its place.
    fn sweep(&mut self, link: Link, prefix: Prefix, ctx: &mut TickCtx<'_>) -> Link {
        if is_leaf(link) {
            return self.tick_leaf(link, prefix, ctx);
        }
        let (lp, rp) = prefix
            .children()
            .expect("internal nodes never sit at full address depth");
        let [l, r] = self.inner[slot(link)];
        let l = self.sweep(l, lp, ctx);
        let r = self.sweep(r, rp, ctx);
        self.inner[slot(link)] = [l, r];
        self.try_merge(link, prefix, ctx)
    }

    fn tick_leaf(&mut self, link: Link, prefix: Prefix, ctx: &mut TickCtx<'_>) -> Link {
        let params = ctx.params;
        let cidr_max = params.cidr_max(prefix.af());
        let state = &mut self.leaves[slot(link)];
        match state {
            RangeState::Monitoring(m) => {
                // Line 7: remove expired per-IP state.
                ctx.report.expired_ips += m.expire(ctx.now, params.e_secs);
                let total = m.total() as f64;
                let n_cidr = params.n_cidr(prefix.af(), prefix.len());
                // Line 8: enough samples?
                if total < n_cidr {
                    return link;
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
                        // tick instead of one level per tick. The left child
                        // keeps this leaf's slot.
                        let RangeState::Monitoring(m) =
                            std::mem::replace(state, RangeState::empty())
                        else {
                            unreachable!("checked monitoring above")
                        };
                        let (l, r) = m.split(prefix.af().width(), prefix.len());
                        ctx.report.splits += 1;
                        self.leaves[slot(link)] = RangeState::Monitoring(l);
                        let r = self.new_leaf(RangeState::Monitoring(r));
                        let node = self.new_inner([link, r]);
                        return self.sweep(node, prefix, ctx);
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
                        return link;
                    }
                }
                // Lines 16–19: prevalent ingress still valid?
                if c.member_share() < params.q {
                    ctx.report.invalidated.push(prefix);
                    *state = RangeState::empty();
                }
            }
        }
        link
    }

    /// Join/collapse pass on an internal node whose children were just
    /// ticked: merge equal classified siblings (paper: "Adjacent ranges may
    /// also be joined if they share the same ingress and meet sample count
    /// requirements") and collapse empty monitoring siblings so the trie
    /// does not grow without bound. The merged range takes the left
    /// child's slot; the right child's and the node's go to the free lists.
    fn try_merge(&mut self, link: Link, prefix: Prefix, ctx: &mut TickCtx<'_>) -> Link {
        let [l, r] = self.inner[slot(link)];
        if !is_leaf(l) || !is_leaf(r) {
            return link;
        }
        match (&self.leaves[slot(l)], &self.leaves[slot(r)]) {
            (RangeState::Classified(a), RangeState::Classified(b)) if a.ingress == b.ingress => {
                let combined = a.total + b.total;
                if combined < ctx.params.n_cidr(prefix.af(), prefix.len()) {
                    return link;
                }
                let RangeState::Classified(b) =
                    std::mem::replace(&mut self.leaves[slot(r)], RangeState::empty())
                else {
                    unreachable!("matched classified above")
                };
                let RangeState::Classified(merged) = &mut self.leaves[slot(l)] else {
                    unreachable!("matched classified above")
                };
                for (&id, &w) in &b.counts {
                    *merged.counts.entry(id).or_insert(0.0) += w;
                }
                merged.total = combined;
                merged.last_ts = merged.last_ts.max(b.last_ts);
                merged.since = merged.since.min(b.since);
                ctx.report.joins += 1;
                ctx.report
                    .newly_classified
                    .push((prefix, merged.ingress.clone()));
            }
            (RangeState::Monitoring(a), RangeState::Monitoring(b))
                if a.is_empty() && b.is_empty() =>
            {
                ctx.report.collapses += 1;
                self.leaves[slot(l)] = RangeState::empty();
            }
            _ => return link,
        }
        self.free(r);
        self.free(link);
        l
    }

    /// Put `state` in a leaf slot, reusing a freed one first.
    fn new_leaf(&mut self, state: RangeState) -> Link {
        match self.free_leaves.pop() {
            Some(link) => {
                self.leaves[slot(link)] = state;
                link
            }
            None => {
                self.leaves.push(state);
                arena_link(self.leaves.len() - 1) | LEAF
            }
        }
    }

    /// Put `children` in an internal slot, reusing a freed one first.
    fn new_inner(&mut self, children: [Link; 2]) -> Link {
        match self.free_inner.pop() {
            Some(link) => {
                self.inner[slot(link)] = children;
                link
            }
            None => {
                self.inner.push(children);
                arena_link(self.inner.len() - 1)
            }
        }
    }

    /// Return a node's slot to its free list; a leaf's state is dropped so
    /// the free slot holds no per-IP memory.
    fn free(&mut self, link: Link) {
        if is_leaf(link) {
            self.leaves[slot(link)] = RangeState::empty();
            self.free_leaves.push(link);
        } else {
            self.free_inner.push(link);
        }
    }

    /// Rewrite every stride entry from the current structure.
    fn refill_stride(&mut self) {
        self.fill_stride(self.root, 0, 0);
    }

    fn fill_stride(&mut self, link: Link, depth: u8, first: usize) {
        if is_leaf(link) || depth == STRIDE_BITS {
            let n = 1usize << (STRIDE_BITS - depth);
            self.stride[first..first + n].fill((link, depth));
        } else {
            let [l, r] = self.inner[slot(link)];
            self.fill_stride(l, depth + 1, first);
            self.fill_stride(r, depth + 1, first + (1usize << (STRIDE_BITS - depth - 1)));
        }
    }

    /// Visit every leaf with its prefix, in address order.
    pub(crate) fn visit_leaves<'a, F>(&'a self, f: &mut F)
    where
        F: FnMut(Prefix, &'a RangeState),
    {
        self.visit(self.root, Prefix::root(self.af), f);
    }

    fn visit<'a, F>(&'a self, link: Link, prefix: Prefix, f: &mut F)
    where
        F: FnMut(Prefix, &'a RangeState),
    {
        if is_leaf(link) {
            return f(prefix, &self.leaves[slot(link)]);
        }
        let (lp, rp) = prefix.children().expect("internal node below full depth");
        let [l, r] = self.inner[slot(link)];
        self.visit(l, lp, f);
        self.visit(r, rp, f);
    }

    /// Append the trie to `out` in preorder (node, left, right).
    pub(crate) fn dump_into(&self, out: &mut Vec<TrieNodeDump>) {
        self.dump_node(self.root, out);
    }

    fn dump_node(&self, link: Link, out: &mut Vec<TrieNodeDump>) {
        if is_leaf(link) {
            return out.push(dump_leaf(&self.leaves[slot(link)]));
        }
        out.push(TrieNodeDump::Internal);
        let [l, r] = self.inner[slot(link)];
        self.dump_node(l, out);
        self.dump_node(r, out);
    }

    /// Rebuild a trie from its preorder dump. `n_ingresses` bounds the
    /// valid ingress ids. Besides the counts, the walk checks the shape
    /// against what the engine can build: no internal node at or below
    /// `cidr_max`, and every IP entry masked to `cidr_max` and inside its
    /// range.
    pub(crate) fn from_dump(
        nodes: &[TrieNodeDump],
        af: Af,
        cidr_max: u8,
        n_ingresses: u32,
    ) -> Result<Trie, RestoreError> {
        let mut trie = Trie {
            leaves: Vec::new(),
            ..Trie::new(af)
        };
        let mut pos = 0;
        trie.root = trie.restore_node(nodes, &mut pos, Prefix::root(af), cidr_max, n_ingresses)?;
        if pos != nodes.len() {
            return Err(RestoreError::TrailingNodes(af, nodes.len() - pos));
        }
        trie.refill_stride();
        Ok(trie)
    }

    /// Rebuild the subtree at `prefix` from `nodes[*pos..]`, advancing `pos`.
    fn restore_node(
        &mut self,
        nodes: &[TrieNodeDump],
        pos: &mut usize,
        prefix: Prefix,
        cidr_max: u8,
        n_ingresses: u32,
    ) -> Result<Link, RestoreError> {
        let Some(entry) = nodes.get(*pos) else {
            return Err(RestoreError::TruncatedTrie(self.af));
        };
        *pos += 1;
        let TrieNodeDump::Internal = entry else {
            let state = restore_leaf(entry, prefix, cidr_max, n_ingresses)?;
            return Ok(self.new_leaf(state));
        };
        if prefix.len() >= cidr_max {
            return Err(RestoreError::ImpossibleShape(
                self.af,
                "an internal node sits at or below cidr_max",
            ));
        }
        let (lp, rp) = prefix.children().expect("above cidr_max");
        let node = self.new_inner([LEAF, LEAF]);
        let l = self.restore_node(nodes, pos, lp, cidr_max, n_ingresses)?;
        let r = self.restore_node(nodes, pos, rp, cidr_max, n_ingresses)?;
        self.inner[slot(node)] = [l, r];
        Ok(node)
    }

    /// (leaves, classified leaves, monitored source IPs), from one scan of
    /// the leaf arena (a free slot holds an empty monitoring state).
    pub(crate) fn counts(&self) -> (usize, usize, usize) {
        let (mut classified, mut ips) = (0, 0);
        for state in &self.leaves {
            match state {
                RangeState::Monitoring(m) => ips += m.ip_count(),
                RangeState::Classified(_) => classified += 1,
            }
        }
        (self.leaves.len() - self.free_leaves.len(), classified, ips)
    }
}

/// The link of arena slot `i`.
fn arena_link(i: usize) -> Link {
    Link::try_from(i)
        .ok()
        .filter(|&l| l < LEAF)
        .expect("a trie arena holds fewer than 2^31 nodes")
}

/// One leaf's dump entry. Maps are emitted sorted by key so the dump is
/// canonical — the same trie state always yields the same dump.
pub(crate) fn dump_leaf(state: &RangeState) -> TrieNodeDump {
    match state {
        RangeState::Monitoring(m) => {
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
            TrieNodeDump::Monitoring(ips)
        }
        RangeState::Classified(c) => TrieNodeDump::Classified(ClassifiedDump {
            ingress: c.ingress.clone(),
            member_ids: c.member_ids.iter().map(|id| id.index()).collect(),
            counts: sorted_counts(&c.counts),
            total: c.total,
            last_ts: c.last_ts,
            since: c.since,
        }),
    }
}

/// Rebuild one leaf of range `prefix` from its dump entry, rejecting any
/// count or IP entry the engine cannot hold there.
pub(crate) fn restore_leaf(
    entry: &TrieNodeDump,
    prefix: Prefix,
    cidr_max: u8,
    n_ingresses: u32,
) -> Result<RangeState, RestoreError> {
    let af = prefix.af();
    let check_id = |id: u32| {
        if id < n_ingresses {
            Ok(IngressId(id))
        } else {
            Err(RestoreError::UnknownIngressId(id))
        }
    };
    match entry {
        TrieNodeDump::Internal => unreachable!("internal nodes are rebuilt by the walk"),
        TrieNodeDump::Monitoring(ips) => {
            let bad = |why| RestoreError::BadCounts(af, why);
            let mut m = MonitorState::default();
            let mut total = 0u64;
            for e in ips {
                if e.ip & af.mask(cidr_max) != e.ip {
                    return Err(RestoreError::ImpossibleShape(
                        af,
                        "an IP entry is not masked to cidr_max",
                    ));
                }
                if e.ip & af.mask(prefix.len()) != prefix.addr().bits() {
                    return Err(RestoreError::ImpossibleShape(
                        af,
                        "an IP entry lies outside its range",
                    ));
                }
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
            Ok(RangeState::Monitoring(m))
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
            let mut counts = CountMap::with_capacity_and_hasher(c.counts.len(), Default::default());
            for &(id, w) in &c.counts {
                counts.insert(check_id(id)?, weight(w)?);
            }
            let member_ids = c
                .member_ids
                .iter()
                .map(|&id| check_id(id))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(RangeState::Classified(ClassifiedState {
                ingress: c.ingress.clone(),
                member_ids,
                counts,
                total: weight(c.total)?,
                last_ts: c.last_ts,
                since: c.since,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TickReport;
    use crate::ingress::LogicalIngress;
    use crate::IpdEngine;
    use ipd_lpm::Addr;
    use ipd_netflow::FlowRecord;
    use ipd_topology::IngressPoint;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    impl Trie {
        /// One sample through the stage-1 walk.
        fn ingest(&mut self, bits: u128, ts: u64, id: IngressId, weight: u64) {
            self.ingest_run(&[PreparedFlow {
                bits,
                ts,
                weight,
                id,
            }]);
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
        trie: &mut Trie,
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
        trie.tick(&mut ctx);
        report
    }

    #[test]
    fn single_ingress_classifies_root() {
        let params = small_params();
        let mut reg = IngressRegistry::new();
        let id = reg.intern(IngressPoint::new(1, 1));
        let mut root = Trie::new(Af::V4);
        for i in 0..100u32 {
            root.ingest(Addr::v4(i * 1000).masked(28).bits(), 10, id, 1);
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
        let mut root = Trie::new(Af::V4);
        // Low half via a, high half via b.
        for i in 0..60u32 {
            root.ingest(Addr::v4(i * 64).masked(28).bits(), 10, a, 1);
            root.ingest(Addr::v4(0x8000_0000 + i * 64).masked(28).bits(), 10, b, 1);
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
        let mut root = Trie::new(Af::V4);
        for i in 0..100u32 {
            root.ingest(Addr::v4(i * 1000).masked(28).bits(), 10, a, 1);
        }
        tick_once(&mut root, &params, &reg, 60);
        assert_eq!(root.counts().1, 1);
        // Now the ingress shifts: feed heavy traffic via b.
        for i in 0..300u32 {
            root.ingest(Addr::v4(i * 1000).masked(28).bits(), 70, b, 1);
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
        let mut root = Trie::new(Af::V4);
        for i in 0..50u32 {
            root.ingest(Addr::v4(i * 1000).masked(28).bits(), 10, a, 1);
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
        let mut root = Trie::new(Af::V4);
        // Phase 1: two ingresses → split at tick 1, halves classify (a, b)
        // at tick 2 while the per-IP state is still fresh.
        for i in 0..60u32 {
            root.ingest(Addr::v4(i * 64).masked(28).bits(), 10, a, 1);
            root.ingest(Addr::v4(0x8000_0000 + i * 64).masked(28).bits(), 10, b, 1);
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
                root.ingest(Addr::v4(i * 64).masked(28).bits(), now, a, 1);
                root.ingest(Addr::v4(0x8000_0000 + i * 64).masked(28).bits(), now, a, 1);
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
        root.visit_leaves(&mut |p, s| {
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
        let mut root = Trie::new(Af::V4);
        for i in 0..60u32 {
            root.ingest(Addr::v4(i * 64).masked(28).bits(), 10, a, 1);
            root.ingest(Addr::v4(0x8000_0000 + i * 64).masked(28).bits(), 10, b, 1);
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
        let mut root = Trie::new(Af::V4);
        for i in 0..200u32 {
            let addr = Addr::v4(0x0A000000 + (i % 4)).masked(28).bits();
            root.ingest(addr, 10, if i % 2 == 0 { a } else { b }, 1);
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
        let mut root = Trie::new(Af::V4);
        for i in 0..200u32 {
            let addr = Addr::v4(0x0A000000 + (i % 4)).masked(28).bits();
            root.ingest(addr, 10, if i % 2 == 0 { a } else { b }, 1);
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
        let mut root = Trie::new(Af::V4);
        // 16 different ingresses spread over the whole space: would split
        // forever without the cidr_max stop.
        for round in 0..5 {
            for (i, &id) in ids.iter().enumerate() {
                for j in 0..50u32 {
                    let addr = Addr::v4(((i as u32) << 28) + j * 1024);
                    root.ingest(addr.masked(2).bits(), round * 60, id, 1);
                }
            }
            tick_once(&mut root, &params, &reg, (round + 1) * 60);
        }
        // Depth never exceeds 2 → at most 4 leaves.
        assert!(root.counts().0 <= 4, "leaves: {}", root.counts().0);
    }

    /// One step of the flat-trie oracle below.
    #[derive(Debug, Clone)]
    enum Step {
        /// One batch of flows: (IPv6?, top, mid, low, noise, seconds late).
        Ingest(Vec<(bool, u32, u32, u32, u32, u64)>),
        /// This many ticks, one per bucket, with no traffic in between.
        Ticks(u64),
        /// Dump, restore, and carry on with the restored engine.
        Restore,
    }

    fn step() -> impl Strategy<Value = Step> {
        let flow = (any::<bool>(), 0u32..4, 0u32..4, 0u32..4, 0u32..12, 0u64..60);
        prop_oneof![
            4 => proptest::collection::vec(flow, 1..60).prop_map(Step::Ingest),
            3 => prop_oneof![Just(1u64), Just(2), Just(12)].prop_map(Step::Ticks),
            1 => Just(Step::Restore),
        ]
    }

    /// The flow a step entry describes. The populated space is four
    /// regions (`top`) of 4 × 4 /20s (`mid`, `low`) that differ in the
    /// bits just above and just below the stride cut at depth 16, and
    /// reach `cidr_max` at depth 20. Three entries in four enter where
    /// their region and `mid` say, so ranges classify and join; the noisy
    /// rest make ranges split down to `cidr_max`.
    fn flow_of(e: (bool, u32, u32, u32, u32, u64), now: u64) -> FlowRecord {
        let (v6, top, mid, low, noise, late) = e;
        let src = if v6 {
            Addr::v6((u128::from(top) << 126) | (u128::from(mid) << 112) | (u128::from(low) << 110))
        } else {
            Addr::v4((top << 30) | (mid << 16) | (low << 14))
        };
        let router = if noise < 3 { noise } else { (top + mid) % 3 };
        FlowRecord::synthetic(now - late, src, router + 1, 1)
    }

    /// The leaf a walk from `(link, depth)` reaches for `bits`.
    fn descend(t: &Trie, mut link: Link, mut depth: u8, bits: u128) -> Link {
        let width = t.af.width();
        while !is_leaf(link) {
            link = t.inner[slot(link)][((bits >> (width - 1 - depth)) & 1) as usize];
            depth += 1;
        }
        link
    }

    /// (internal, leaf) slots in use.
    fn live(t: &Trie) -> (usize, usize) {
        (
            t.inner.len() - t.free_inner.len(),
            t.leaves.len() - t.free_leaves.len(),
        )
    }

    /// The structural invariants of one family's trie.
    fn check_trie(t: &Trie, probes: &[u128]) {
        // Every stride entry is the deepest node at depth ≤ 16 a walk
        // from the root finds on that path.
        for (top, &entry) in t.stride.iter().enumerate() {
            let (mut link, mut depth) = (t.root, 0u8);
            while !is_leaf(link) && depth < STRIDE_BITS {
                let bit = (top >> (STRIDE_BITS - 1 - depth)) & 1;
                link = t.inner[slot(link)][bit];
                depth += 1;
            }
            assert_eq!(entry, (link, depth), "stride entry {top:#06x}");
        }
        // A walk from the table and one from the root meet at one leaf.
        let width = t.af.width();
        for &bits in probes {
            let bits = bits & t.af.mask(width);
            let (link, depth) = t.stride[(bits >> (width - STRIDE_BITS)) as usize];
            assert_eq!(descend(t, link, depth, bits), descend(t, t.root, 0, bits));
        }
        // Reachable nodes and free slots account for every slot once, and
        // a free leaf slot holds no state.
        let mut inner = vec![0u8; t.inner.len()];
        let mut leaves = vec![0u8; t.leaves.len()];
        let mut stack = vec![t.root];
        while let Some(link) = stack.pop() {
            if is_leaf(link) {
                leaves[slot(link)] += 1;
            } else {
                inner[slot(link)] += 1;
                stack.extend(t.inner[slot(link)]);
            }
        }
        for &link in &t.free_leaves {
            leaves[slot(link)] += 1;
            assert!(matches!(&t.leaves[slot(link)], RangeState::Monitoring(m) if m.is_empty()));
        }
        for &link in &t.free_inner {
            inner[slot(link)] += 1;
        }
        assert!(
            inner.iter().chain(&leaves).all(|&n| n == 1),
            "a slot is lost or shared"
        );
    }

    proptest! {
        /// Random ingest/tick/restore sequences with a tiny `n_cidr`, so
        /// that splits reach `cidr_max` and joins, collapses, decays and
        /// drops all happen, keep the stride table, the arenas and the
        /// checkpoint round trip exact, and never grow an arena past the
        /// most nodes that were live at once.
        #[test]
        fn flat_trie_matches_its_oracle(
            steps in proptest::collection::vec(step(), 1..40),
            probe_seed in any::<u64>(),
        ) {
            let params = IpdParams {
                cidr_max_v4: 20,
                cidr_max_v6: 20,
                ncidr_factor_v4: 0.0002,
                ncidr_factor_v6: 1e-7,
                ..IpdParams::default()
            };
            let mut engine = IpdEngine::new(params).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(probe_seed);
            let mut now = 1000u64;
            for step in steps {
                let before = [&engine.v4, &engine.v6].map(|t| (live(t), t.inner.len(), t.leaves.len()));
                let mut splits = 0;
                let restored = matches!(step, Step::Restore);
                match step {
                    Step::Ingest(flows) => {
                        let flows: Vec<FlowRecord> =
                            flows.into_iter().map(|e| flow_of(e, now)).collect();
                        engine.ingest_batch(&flows);
                    }
                    Step::Ticks(n) => {
                        for _ in 0..n {
                            now += 60;
                            splits += engine.tick(now).splits;
                        }
                    }
                    Step::Restore => {
                        let dump = engine.dump_state();
                        engine = IpdEngine::restore_state(dump.clone()).unwrap();
                        prop_assert_eq!(engine.dump_state(), dump);
                    }
                }
                let probes: Vec<u128> = (0..64).map(|_| rng.random()).collect();
                for (t, (live_before, inner_before, leaves_before)) in
                    [&engine.v4, &engine.v6].into_iter().zip(before)
                {
                    check_trie(t, &probes);
                    let (inner_live, leaves_live) = live(t);
                    if restored {
                        prop_assert_eq!((t.inner.len(), t.leaves.len()), (inner_live, leaves_live));
                    } else {
                        prop_assert!(t.inner.len() <= inner_before.max(live_before.0 + splits));
                        prop_assert!(t.leaves.len() <= leaves_before.max(live_before.1 + splits));
                    }
                }
            }
        }
    }
}
