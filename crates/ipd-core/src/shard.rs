//! Multi-core IPD: one logical engine, K-way parallel execution.
//!
//! [`ShardedEngine`] holds exactly the state an [`IpdEngine`] holds — one
//! range trie per address family, one ingress intern table, one stats
//! block — and parallelizes the two hot paths over disjoint subtrees:
//!
//! * **Shard key.** With `K = 2^d` shards, the top `d` bits of the (masked)
//!   source address select the shard; shard `i` owns the depth-`d` subtree
//!   under prefix `i` of each family. Because ranges shallower than `d` may
//!   exist (the trie starts as a single root leaf), the actual work units
//!   are the trie's *frontier* at depth `d`: every subtree rooted at depth
//!   `d` plus every leaf sitting above it ([`Node::frontier_at_depth`]).
//!   These units are disjoint and cover the space, so `&mut` handles to all
//!   of them can be farmed out to scoped threads at once.
//! * **Stage 1** ([`ShardedEngine::ingest_batch`]): ingress points are
//!   interned *sequentially in stream order* (so `IngressId` assignment is
//!   identical to the unsharded engine), then flows are routed to their
//!   owning frontier unit and applied in parallel, each unit through the
//!   same grouped descent the unsharded engine uses
//!   ([`Node::ingest_run`]) — per unit still in stream order, so every
//!   per-range accumulator sees the exact addition sequence the unsharded
//!   engine produces.
//! * **Stage 2** ([`ShardedEngine::tick`]): phase A fully ticks each
//!   frontier subtree in parallel (each with its own [`TickReport`]); phase
//!   B runs the remaining join/collapse pass on the internal nodes *above*
//!   the frontier sequentially ([`Node::tick_top`]). Together the two
//!   phases perform the same node-local operations in the same bottom-up
//!   order per path as `IpdEngine::tick`.
//!
//! **Determinism contract.** For any flow stream fed in the same order and
//! any shard count K, the engine state after each `ingest_batch`/`tick` is
//! *bit-for-bit identical* to the unsharded engine's, in both count modes,
//! independent of thread scheduling. Snapshots are therefore
//! byte-identical, and `Snapshot::digest()` can be compared across K.
//! Tick reports are returned in canonical form — counters summed, range
//! lists sorted by prefix — which equals the unsharded report as a
//! *multiset* (the unsharded sweep emits in DFS order instead).

use ipd_lpm::{Af, Prefix};
use ipd_netflow::FlowRecord;
use ipd_topology::IngressPoint;

use crate::engine::{prepare, EngineStats, IpdEngine, TickReport};
use crate::ingress::IngressRegistry;
use crate::output::Snapshot;
use crate::params::{IpdParams, ParamError};
use crate::telemetry::ShardCounters;
use crate::trie::{Node, PreparedFlow, TickCtx};

/// Hard ceiling on the shard count: 256 shards (depth 8) is already far
/// beyond any host this targets, and keeps the slot-routing table small.
pub const MAX_SHARDS: usize = 256;

/// A multi-core wrapper around the IPD state: same trie, same results,
/// K-way parallel ingest and tick. See the module docs for the shard-key
/// scheme and the determinism contract.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    inner: IpdEngine,
    shards: usize,
    depth: u8,
    /// Per-slot ingest counters; disabled (empty) unless
    /// [`ShardedEngine::attach_telemetry`] was called. Observational only —
    /// never read back into routing or trie state.
    shard_counters: ShardCounters,
}

impl ShardedEngine {
    /// Build a sharded engine. `shards` must be a power of two in
    /// 1..=[`MAX_SHARDS`]; 1 degenerates to the unsharded engine run on the
    /// calling thread.
    pub fn new(params: IpdParams, shards: usize) -> Result<Self, ParamError> {
        Self::from_engine(IpdEngine::new(params)?, shards)
    }

    /// Wrap an existing engine (state is preserved — sharding is purely an
    /// execution strategy).
    pub fn from_engine(engine: IpdEngine, shards: usize) -> Result<Self, ParamError> {
        if shards == 0 || shards > MAX_SHARDS || !shards.is_power_of_two() {
            return Err(ParamError::BadShardCount(shards));
        }
        let depth = shards.trailing_zeros() as u8;
        Ok(ShardedEngine {
            inner: engine,
            shards,
            depth,
            shard_counters: ShardCounters::default(),
        })
    }

    /// Register per-shard flow counters (`ipd_shard_flows_total{shard=..}`)
    /// in `telemetry`. A disabled registry leaves counting off entirely.
    pub fn attach_telemetry(&mut self, telemetry: &ipd_telemetry::Telemetry) {
        if telemetry.is_enabled() {
            self.shard_counters = ShardCounters::register(telemetry, self.shards);
        }
    }

    /// The configured shard count K.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The wrapped engine (full read access to the logical state).
    pub fn engine(&self) -> &IpdEngine {
        &self.inner
    }

    /// Unwrap back into the plain engine.
    pub fn into_engine(self) -> IpdEngine {
        self.inner
    }

    /// Export the complete logical state — identical to the wrapped
    /// engine's [`IpdEngine::dump_state`]; the shard count is an execution
    /// strategy, not state, so checkpoints are shard-count-free.
    pub fn dump_state(&self) -> crate::persist::EngineStateDump {
        self.inner.dump_state()
    }

    /// Rebuild a sharded engine from a dump at *any* valid shard count —
    /// including one different from the engine the dump was taken from.
    pub fn restore_state(
        dump: crate::persist::EngineStateDump,
        shards: usize,
    ) -> Result<Self, crate::persist::RestoreError> {
        let engine = IpdEngine::restore_state(dump)?;
        Self::from_engine(engine, shards).map_err(crate::persist::RestoreError::Params)
    }

    /// The engine's parameters.
    pub fn params(&self) -> &IpdParams {
        self.inner.params()
    }

    /// The ingress intern table.
    pub fn registry(&self) -> &IngressRegistry {
        self.inner.registry()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &EngineStats {
        self.inner.stats()
    }

    /// Number of live leaf ranges (both families).
    pub fn range_count(&self) -> usize {
        self.inner.range_count()
    }

    /// Number of classified ranges.
    pub fn classified_count(&self) -> usize {
        self.inner.classified_count()
    }

    /// Number of per-IP state entries held for unclassified ranges.
    pub fn monitored_ip_count(&self) -> usize {
        self.inner.monitored_ip_count()
    }

    /// Stage 1 for a single flow — sequential passthrough; use
    /// [`ShardedEngine::ingest_batch`] for the parallel path.
    pub fn ingest(&mut self, flow: &FlowRecord) {
        if !self.shard_counters.is_empty() {
            let af = flow.af();
            let bits = flow.src.masked(self.inner.params().cidr_max(af)).bits();
            self.shard_counters.add(self.slot_of(bits, af.width()), 1);
        }
        self.inner.ingest(flow);
    }

    /// Shard slot for a masked address: the top `depth` bits.
    fn slot_of(&self, bits: u128, width: u8) -> usize {
        if self.depth == 0 {
            0
        } else {
            (bits >> (width - self.depth)) as usize
        }
    }

    /// Stage 1 with explicit parts — sequential passthrough.
    pub fn ingest_parts(
        &mut self,
        ts: u64,
        src: ipd_lpm::Addr,
        ingress: IngressPoint,
        weight: u64,
    ) {
        self.inner.ingest_parts(ts, src, ingress, weight);
    }

    /// Stage 1 over a batch, executed on up to K threads.
    ///
    /// Interning happens first, sequentially, in stream order; the trie
    /// walks then run in parallel per frontier unit, each unit applying its
    /// flows in stream order through the grouped descent the unsharded
    /// engine uses. The result is bit-for-bit the state `IpdEngine::ingest`
    /// would produce flow by flow.
    pub fn ingest_batch(&mut self, flows: &[FlowRecord]) {
        if flows.is_empty() {
            return;
        }
        let depth = self.depth;
        let IpdEngine {
            params,
            root_v4,
            root_v6,
            registry,
            stats,
        } = &mut self.inner;
        stats.flows_ingested += flows.len() as u64;

        let mut entries = Vec::new();
        root_v4.frontier_at_depth(Prefix::root(Af::V4), depth, &mut entries);
        let v4_units = entries.len();
        root_v6.frontier_at_depth(Prefix::root(Af::V6), depth, &mut entries);

        // Route each flow to its owning unit via the top `depth` address
        // bits, preserving stream order within each unit.
        let v4_slots = slot_table(&entries[..v4_units], depth);
        let v6_slots = slot_table(&entries[v4_units..], depth);
        let mut groups: Vec<Vec<PreparedFlow>> = vec![Vec::new(); entries.len()];
        let mut slot_flows = vec![0u64; self.shard_counters.len()];
        for flow in flows {
            let (af, p) = prepare(params, registry, flow);
            let slot = if depth == 0 {
                0
            } else {
                (p.bits >> (af.width() - depth)) as usize
            };
            if let Some(n) = slot_flows.get_mut(slot) {
                *n += 1;
            }
            let unit = match af {
                Af::V4 => v4_slots[slot],
                Af::V6 => v4_units + v6_slots[slot],
            };
            groups[unit].push(p);
        }
        for (slot, n) in slot_flows.into_iter().enumerate() {
            if n > 0 {
                self.shard_counters.add(slot, n);
            }
        }

        let busy = groups.iter().filter(|g| !g.is_empty()).count();
        if busy <= 1 {
            for ((prefix, node), group) in entries.into_iter().zip(&groups) {
                node.ingest_run(prefix.len(), prefix.af().width(), group);
            }
            return;
        }
        std::thread::scope(|s| {
            for ((prefix, node), group) in entries.into_iter().zip(groups) {
                if !group.is_empty() {
                    s.spawn(move || node.ingest_run(prefix.len(), prefix.af().width(), &group));
                }
            }
        });
    }

    /// Stage 2, executed on up to K threads per family: phase A ticks every
    /// frontier subtree in parallel, phase B finishes the join/collapse pass
    /// above the frontier, and the per-unit reports are merged into one
    /// canonical report (counters summed, range lists sorted by prefix).
    pub fn tick(&mut self, now: u64) -> TickReport {
        let depth = self.depth;
        let IpdEngine {
            params,
            root_v4,
            root_v6,
            registry,
            stats,
        } = &mut self.inner;
        let params: &IpdParams = params;
        let registry: &IngressRegistry = registry;

        let mut entries = Vec::new();
        root_v4.frontier_at_depth(Prefix::root(Af::V4), depth, &mut entries);
        root_v6.frontier_at_depth(Prefix::root(Af::V6), depth, &mut entries);

        let tick_unit = |prefix: Prefix, node: &mut Node| -> TickReport {
            let mut report = TickReport::new(now);
            let mut ctx = TickCtx {
                now,
                params,
                registry,
                report: &mut report,
            };
            node.tick(prefix, &mut ctx);
            report
        };
        let mut reports: Vec<TickReport> = if entries.len() <= 1 {
            entries.into_iter().map(|(p, n)| tick_unit(p, n)).collect()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = entries
                    .into_iter()
                    .map(|(p, n)| s.spawn(move || tick_unit(p, n)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard tick threads do not panic"))
                    .collect()
            })
        };

        let mut top = TickReport::new(now);
        {
            let mut ctx = TickCtx {
                now,
                params,
                registry,
                report: &mut top,
            };
            root_v4.tick_top(Prefix::root(Af::V4), depth, &mut ctx);
            root_v6.tick_top(Prefix::root(Af::V6), depth, &mut ctx);
        }
        reports.push(top);
        let report = merge_reports(now, reports);

        stats.ticks += 1;
        stats.splits += report.splits as u64;
        stats.joins += report.joins as u64;
        stats.classifications += report.newly_classified.len() as u64;
        stats.drops += (report.dropped.len() + report.invalidated.len()) as u64;
        report
    }

    /// Snapshot of every live range — same code path as the unsharded
    /// engine, hence byte-identical output.
    pub fn snapshot(&self, ts: u64) -> Snapshot {
        self.inner.snapshot(ts)
    }
}

/// Map each of the `2^depth` shard slots of one family to the index of the
/// frontier unit owning it. A unit at prefix length `j <= depth` owns the
/// `2^(depth-j)` consecutive slots under its prefix.
fn slot_table(units: &[(Prefix, &mut Node)], depth: u8) -> Vec<usize> {
    let mut table = Vec::with_capacity(1usize << depth);
    for (idx, (prefix, _)) in units.iter().enumerate() {
        let covered = 1usize << (depth - prefix.len());
        table.extend(std::iter::repeat_n(idx, covered));
    }
    debug_assert_eq!(
        table.len(),
        1usize << depth,
        "frontier must cover the space"
    );
    table
}

/// Fold per-unit reports into one canonical report: counters summed, range
/// lists concatenated and sorted by prefix — a total order independent of
/// shard count and thread scheduling.
fn merge_reports(now: u64, reports: Vec<TickReport>) -> TickReport {
    let mut out = TickReport::new(now);
    for r in reports {
        out.newly_classified.extend(r.newly_classified);
        out.dropped.extend(r.dropped);
        out.invalidated.extend(r.invalidated);
        out.lb_suspects.extend(r.lb_suspects);
        out.splits += r.splits;
        out.joins += r.joins;
        out.collapses += r.collapses;
        out.bundles += r.bundles;
        out.expired_ips += r.expired_ips;
    }
    // Each list names every prefix at most once per tick, so an unstable
    // sort by prefix alone is already a total order.
    out.newly_classified.sort_unstable_by_key(|a| a.0);
    out.dropped.sort_unstable();
    out.invalidated.sort_unstable();
    out.lb_suspects.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_lpm::Addr;

    fn test_params() -> IpdParams {
        IpdParams {
            ncidr_factor_v4: 0.01,
            ncidr_factor_v6: 1e-9,
            ..IpdParams::default()
        }
    }

    fn two_halves(n: u32, ts: u64) -> Vec<FlowRecord> {
        let mut flows = Vec::new();
        for i in 0..n {
            flows.push(FlowRecord::synthetic(ts, Addr::v4(i * 4096), 1, 1));
            flows.push(FlowRecord::synthetic(
                ts,
                Addr::v4(0x8000_0000 + i * 4096),
                2,
                1,
            ));
        }
        flows
    }

    #[test]
    fn rejects_bad_shard_counts() {
        for bad in [0usize, 3, 6, 12, 512] {
            assert_eq!(
                ShardedEngine::new(test_params(), bad).unwrap_err(),
                ParamError::BadShardCount(bad)
            );
        }
        for ok in [1usize, 2, 4, 8, 256] {
            assert_eq!(ShardedEngine::new(test_params(), ok).unwrap().shards(), ok);
        }
    }

    #[test]
    fn matches_unsharded_engine_bit_for_bit() {
        let flows = two_halves(600, 30);
        let mut reference = IpdEngine::new(test_params()).unwrap();
        for f in &flows {
            reference.ingest(f);
        }
        let mut ref_report = reference.tick(60);
        ref_report.newly_classified.sort_unstable_by_key(|a| a.0);

        for k in [1usize, 2, 8, 64] {
            let mut sharded = ShardedEngine::new(test_params(), k).unwrap();
            sharded.ingest_batch(&flows);
            let report = sharded.tick(60);
            assert_eq!(
                report.newly_classified, ref_report.newly_classified,
                "K={k}"
            );
            assert_eq!(report.splits, ref_report.splits, "K={k}");
            assert_eq!(sharded.stats(), reference.stats(), "K={k}");
            assert_eq!(
                sharded.snapshot(60).digest(),
                reference.snapshot(60).digest(),
                "K={k}"
            );
        }
    }

    #[test]
    fn join_across_the_shard_frontier() {
        // Classify the two /1 halves to the *same* ingress: the join back
        // into /0 happens above any shard frontier deeper than 1, i.e. in
        // the sequential phase B — exactly the cross-shard case.
        let mut flows = Vec::new();
        for i in 0..600u32 {
            flows.push(FlowRecord::synthetic(30, Addr::v4(i * 4096), 1, 1));
            flows.push(FlowRecord::synthetic(
                30,
                Addr::v4(0x8000_0000 + i * 4096),
                2,
                1,
            ));
        }
        let run = |k: usize| {
            let mut e = ShardedEngine::new(test_params(), k).unwrap();
            e.ingest_batch(&flows);
            e.tick(60);
            // Move the high half to ingress 1 as well; once both halves are
            // classified to router 1 they must join into 0.0.0.0/0.
            let mut joins = 0;
            let mut now = 60;
            for round in 0..10u64 {
                let shift: Vec<FlowRecord> = (0..600u32)
                    .flat_map(|i| {
                        [
                            FlowRecord::synthetic(61 + round, Addr::v4(i * 4096), 1, 1),
                            FlowRecord::synthetic(
                                61 + round,
                                Addr::v4(0x8000_0000 + i * 4096),
                                1,
                                1,
                            ),
                        ]
                    })
                    .collect();
                e.ingest_batch(&shift);
                now += 60;
                joins += e.tick(now).joins;
                if joins > 0 {
                    break;
                }
            }
            (joins, e.snapshot(now).digest(), e.stats().clone())
        };
        let (joins1, digest1, stats1) = run(1);
        assert!(joins1 > 0, "equal halves must join in the reference run");
        for k in [2usize, 8] {
            let (joins, digest, stats) = run(k);
            assert_eq!(joins, joins1, "K={k}");
            assert_eq!(digest, digest1, "K={k}");
            assert_eq!(stats, stats1, "K={k}");
        }
    }

    #[test]
    fn slot_table_covers_space_with_shallow_leaves() {
        let mut root = Node::empty();
        let mut entries = Vec::new();
        root.frontier_at_depth(Prefix::root(Af::V4), 3, &mut entries);
        assert_eq!(entries.len(), 1, "a fresh trie is a single shallow leaf");
        let table = slot_table(&entries, 3);
        assert_eq!(table, vec![0; 8]);
    }

    #[test]
    fn v6_flows_route_to_v6_units() {
        let mut e = ShardedEngine::new(test_params(), 4).unwrap();
        let flows: Vec<FlowRecord> = (0..64u32)
            .map(|i| {
                FlowRecord::synthetic(
                    30,
                    Addr::v6((0x2001_0db8u128 << 96) | (u128::from(i) << 40)),
                    9,
                    2,
                )
            })
            .collect();
        e.ingest_batch(&flows);
        let report = e.tick(60);
        assert!(report
            .newly_classified
            .iter()
            .any(|(p, ing)| p.af() == Af::V6 && ing.is_link(IngressPoint::new(9, 2))));
    }
}
