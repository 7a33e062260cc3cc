//! The deterministic IPD engine: stage-1 ingest and stage-2 ticks.

use ipd_lpm::{Addr, Af, Prefix};
use ipd_netflow::FlowRecord;
use ipd_topology::IngressPoint;

use crate::ingress::{IngressRegistry, LogicalIngress};
use crate::output::{IpdRangeRecord, ServedRow, Snapshot};
use crate::params::{IpdParams, ParamError};
use crate::range::RangeState;
use crate::trie::{PreparedFlow, TickCtx, Trie};

/// What happened during one stage-2 cycle.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Timestamp the cycle ran at.
    pub now: u64,
    /// Ranges that received a (new) classification this cycle, including
    /// ranges re-created by joins.
    pub newly_classified: Vec<(Prefix, LogicalIngress)>,
    /// Classified ranges dropped because their counters decayed away.
    pub dropped: Vec<Prefix>,
    /// Classified ranges dropped because the dominant share fell below `q`.
    pub invalidated: Vec<Prefix>,
    /// Number of range splits.
    pub splits: usize,
    /// Number of joins of equally-classified siblings.
    pub joins: usize,
    /// Number of empty sibling collapses.
    pub collapses: usize,
    /// Newly created bundle classifications.
    pub bundles: usize,
    /// Per-IP state entries expired.
    pub expired_ips: usize,
    /// Ranges at `cidr_max` whose traffic splits evenly across routers —
    /// likely router-level load balancing by the neighbor (§5.8 extension;
    /// see [`crate::IpdParams::detect_router_lb`]).
    pub lb_suspects: Vec<Prefix>,
}

impl TickReport {
    pub(crate) fn new(now: u64) -> Self {
        TickReport {
            now,
            ..Default::default()
        }
    }
}

/// Cumulative engine statistics (all cheap counters; the live state sizes
/// are computed on demand).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Flow samples ingested (stage 1).
    pub flows_ingested: u64,
    /// Stage-2 cycles run.
    pub ticks: u64,
    /// Total splits over the engine lifetime.
    pub splits: u64,
    /// Total joins.
    pub joins: u64,
    /// Total classifications assigned.
    pub classifications: u64,
    /// Total drops (decay + invalidation).
    pub drops: u64,
}

/// Live state sizes, taken in one walk ([`IpdEngine::state_counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StateCounts {
    pub(crate) ranges: usize,
    pub(crate) classified: usize,
    pub(crate) monitored_ips: usize,
}

impl StateCounts {
    /// See [`IpdEngine::state_bytes_estimate`].
    pub(crate) fn state_bytes(self) -> usize {
        // HashMap entry overhead approximations; precision is irrelevant,
        // relative growth with cidr_max is what the figure shows.
        const IP_ENTRY: usize = 16 + 8 + 48; // key + ts + counts map base
        const RANGE: usize = 96;
        self.monitored_ips * IP_ENTRY + self.ranges * RANGE
    }
}

/// The IPD engine. See the crate docs for the algorithm description.
///
/// Deterministic and I/O-free: `ingest` and `tick` are the only mutations,
/// and both are driven by caller-provided timestamps (use data time for
/// reproducible runs; the [`crate::pipeline`] does exactly that).
#[derive(Debug, Clone)]
pub struct IpdEngine {
    pub(crate) params: IpdParams,
    pub(crate) v4: Trie,
    pub(crate) v6: Trie,
    pub(crate) registry: IngressRegistry,
    pub(crate) stats: EngineStats,
}

impl IpdEngine {
    /// Build an engine after validating `params`.
    pub fn new(params: IpdParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(IpdEngine {
            params,
            v4: Trie::new(Af::V4),
            v6: Trie::new(Af::V6),
            registry: IngressRegistry::new(),
            stats: EngineStats::default(),
        })
    }

    /// The engine's parameters.
    pub fn params(&self) -> &IpdParams {
        &self.params
    }

    /// The ingress intern table (maps internal ids back to (router, if)).
    pub fn registry(&self) -> &IngressRegistry {
        &self.registry
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Stage 1 for one flow record (Algorithm 1, lines 1–4): mask the source
    /// IP to `cidr_max` and add it, with its ingress link and timestamp, to
    /// the range covering it.
    pub fn ingest(&mut self, flow: &FlowRecord) {
        self.ingest_parts(
            flow.ts,
            flow.src,
            IngressPoint::new(flow.router, flow.input_if),
            self.params.count_mode.weight(flow.bytes),
        );
    }

    /// Stage 1 with explicit parts (useful when flows come from synthetic
    /// sources that never materialize full records). `weight` is what the
    /// sample adds to its range: 1 per flow, or its byte count.
    pub fn ingest_parts(&mut self, ts: u64, src: Addr, ingress: IngressPoint, weight: u64) {
        let flow = self.prepare(ts, src, ingress, weight);
        let trie = match src.af() {
            Af::V4 => &mut self.v4,
            Af::V6 => &mut self.v6,
        };
        trie.ingest_run(std::slice::from_ref(&flow));
        self.stats.flows_ingested += 1;
    }

    /// Stage 1 over a batch, in stream order: every ingress is interned
    /// first, in stream order, then each family's flows go down its trie
    /// through the same grouped walk a single flow takes. The result is
    /// bit for bit the state [`IpdEngine::ingest`] produces flow by flow.
    pub fn ingest_batch(&mut self, flows: &[FlowRecord]) {
        let (mut v4, mut v6) = (Vec::new(), Vec::new());
        for flow in flows {
            let ingress = IngressPoint::new(flow.router, flow.input_if);
            let weight = self.params.count_mode.weight(flow.bytes);
            let prepared = self.prepare(flow.ts, flow.src, ingress, weight);
            match flow.af() {
                Af::V4 => v4.push(prepared),
                Af::V6 => v6.push(prepared),
            }
        }
        self.v4.ingest_run(&v4);
        self.v6.ingest_run(&v6);
        self.stats.flows_ingested += flows.len() as u64;
    }

    /// Intern, mask and weigh one sample for the trie walk; interning in
    /// stream order keeps `IngressId` assignment identical on every path.
    fn prepare(&mut self, ts: u64, src: Addr, ingress: IngressPoint, weight: u64) -> PreparedFlow {
        PreparedFlow {
            bits: src.masked(self.params.cidr_max(src.af())).bits(),
            ts,
            weight,
            id: self.registry.intern(ingress),
        }
    }

    /// Stage 2 (Algorithm 1, lines 5–19): sweep all ranges — expire, decay,
    /// classify, split, bundle, join, drop. Call every `t` seconds of data
    /// time.
    pub fn tick(&mut self, now: u64) -> TickReport {
        let mut report = TickReport::new(now);
        {
            let mut ctx = TickCtx {
                now,
                params: &self.params,
                registry: &self.registry,
                report: &mut report,
            };
            self.v4.tick(&mut ctx);
            self.v6.tick(&mut ctx);
        }
        self.stats.ticks += 1;
        self.stats.splits += report.splits as u64;
        self.stats.joins += report.joins as u64;
        self.stats.classifications += report.newly_classified.len() as u64;
        self.stats.drops += (report.dropped.len() + report.invalidated.len()) as u64;
        report
    }

    /// Number of live leaf ranges (both families).
    pub fn range_count(&self) -> usize {
        self.state_counts().ranges
    }

    /// Number of classified ranges.
    pub fn classified_count(&self) -> usize {
        self.state_counts().classified
    }

    /// Number of per-IP state entries currently held for unclassified
    /// ranges — the dominant memory consumer (Appendix A: "the state of each
    /// (masked) IP must be held for each range").
    pub fn monitored_ip_count(&self) -> usize {
        self.state_counts().monitored_ips
    }

    /// Rough live state size in bytes, for the resource-consumption metric
    /// of the parameter study (Fig 20). Counts the dominant contributors:
    /// per-IP entries and per-range counter entries.
    pub fn state_bytes_estimate(&self) -> usize {
        self.state_counts().state_bytes()
    }

    /// Every state size above from one scan of both leaf arenas.
    pub(crate) fn state_counts(&self) -> StateCounts {
        let (a, b) = (self.v4.counts(), self.v6.counts());
        StateCounts {
            ranges: a.0 + b.0,
            classified: a.1 + b.1,
            monitored_ips: a.2 + b.2,
        }
    }

    /// Export the complete engine state as canonical plain data — the
    /// substrate checkpoints are encoded from. See [`crate::persist`].
    pub fn dump_state(&self) -> crate::persist::EngineStateDump {
        let mut v4 = Vec::new();
        let mut v6 = Vec::new();
        self.v4.dump_into(&mut v4);
        self.v6.dump_into(&mut v6);
        crate::persist::EngineStateDump {
            params: self.params.clone(),
            ingresses: self.registry.points().to_vec(),
            stats: self.stats.clone(),
            v4,
            v6,
        }
    }

    /// Rebuild an engine from a [`dump`](IpdEngine::dump_state). Validates
    /// params, the intern table, and both trie preorders, shapes included.
    pub fn restore_state(
        dump: crate::persist::EngineStateDump,
    ) -> Result<Self, crate::persist::RestoreError> {
        dump.params.validate()?;
        let registry = IngressRegistry::from_points(dump.ingresses)?;
        let n = registry.len() as u32;
        let v4 = Trie::from_dump(&dump.v4, Af::V4, dump.params.cidr_max_v4, n)?;
        let v6 = Trie::from_dump(&dump.v6, Af::V6, dump.params.cidr_max_v6, n)?;
        Ok(IpdEngine {
            params: dump.params,
            v4,
            v6,
            registry,
            stats: dump.stats,
        })
    }

    /// Snapshot of every live range (classified and monitored) in the shape
    /// of the paper's raw output (Table 3). `ts` stamps the records.
    pub fn snapshot(&self, ts: u64) -> Snapshot {
        let mut records = Vec::new();
        let mut emit = |prefix: Prefix, state: &RangeState| {
            records.push(IpdRangeRecord::from_state(
                ts,
                prefix,
                state,
                &self.params,
                &self.registry,
            ));
        };
        self.v4.visit_leaves(&mut emit);
        self.v6.visit_leaves(&mut emit);
        // Root leaves with no data are noise, not ranges.
        records.retain(|r| r.sample_count > 0.0 || r.classified);
        Snapshot { ts, records }
    }

    /// Like [`snapshot`](IpdEngine::snapshot) but keeps only classified
    /// ranges — the records that carry an ingress verdict. This is the view a
    /// serving layer publishes: monitored-but-unclassified ranges answer
    /// "unmapped" anyway, so shipping them to readers is pure overhead.
    pub fn classified_snapshot(&self, ts: u64) -> Snapshot {
        let mut snap = self.snapshot(ts);
        snap.records.retain(|r| r.classified);
        snap
    }

    /// The served map: one `(range, ingress, confidence)` row per classified
    /// leaf, in address order (`Prefix` order, IPv4 before IPv6), with the
    /// confidence bit-identical to the record
    /// [`classified_snapshot`](IpdEngine::classified_snapshot) carries. Only
    /// the classified leaves are read — no monitored range, share list or
    /// `n_cidr` is built — so this is the row source every publisher uses.
    pub fn served_rows(&self) -> Vec<ServedRow> {
        let mut rows = Vec::new();
        let mut emit = |prefix: Prefix, state: &RangeState| {
            if let RangeState::Classified(c) = state {
                rows.push((prefix, c.ingress.clone(), c.member_share()));
            }
        };
        self.v4.visit_leaves(&mut emit);
        self.v6.visit_leaves(&mut emit);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CountMode;

    fn test_params() -> IpdParams {
        // n_cidr(v4 /0) = 0.01 * sqrt(2^32) ≈ 655; the v6 reference width is
        // 64 bits so its factor must be far smaller for unit-test volumes.
        IpdParams {
            ncidr_factor_v4: 0.01,
            ncidr_factor_v6: 1e-9,
            ..IpdParams::default()
        }
    }

    fn v4(bits: u32) -> Addr {
        Addr::v4(bits)
    }

    #[test]
    fn rejects_invalid_params() {
        assert!(IpdEngine::new(IpdParams {
            q: 0.3,
            ..IpdParams::default()
        })
        .is_err());
    }

    #[test]
    fn end_to_end_classification_via_flow_records() {
        let mut e = IpdEngine::new(test_params()).unwrap();
        for i in 0..2000u32 {
            let f = FlowRecord::synthetic(30, v4(0x0A00_0000 + i * 16), 7, 3);
            e.ingest(&f);
        }
        assert_eq!(e.stats().flows_ingested, 2000);
        let report = e.tick(60);
        assert!(!report.newly_classified.is_empty());
        assert!(report.newly_classified[0]
            .1
            .is_link(IngressPoint::new(7, 3)));
        assert_eq!(e.stats().ticks, 1);
        assert!(e.classified_count() >= 1);
    }

    #[test]
    fn byte_mode_weights_by_bytes() {
        let params = IpdParams {
            count_mode: CountMode::Bytes,
            ncidr_factor_v4: 0.01,
            ..IpdParams::default()
        };
        let mut e = IpdEngine::new(params).unwrap();
        // One giant flow outweighs many small ones from another ingress.
        let mut big = FlowRecord::synthetic(30, v4(0x0A000001), 1, 1);
        big.bytes = 1_000_000;
        e.ingest(&big);
        for i in 0..20u32 {
            let mut small = FlowRecord::synthetic(30, v4(0x0A000001 + i), 2, 1);
            small.bytes = 100;
            e.ingest(&small);
        }
        let report = e.tick(60);
        assert!(report
            .newly_classified
            .iter()
            .any(|(_, ing)| ing.is_link(IngressPoint::new(1, 1))));
    }

    #[test]
    fn v4_and_v6_are_independent_tries() {
        let mut e = IpdEngine::new(test_params()).unwrap();
        // 1000 samples clears n_cidr(v4 /0) ≈ 655.
        for i in 0..1000u32 {
            e.ingest_parts(30, v4(0x0A000000 + i * 256), IngressPoint::new(1, 1), 1);
            e.ingest_parts(
                30,
                Addr::v6((0x2001_0db8u128 << 96) | ((i as u128) << 40)),
                IngressPoint::new(2, 1),
                1,
            );
        }
        let report = e.tick(60);
        let v4_cls: Vec<_> = report
            .newly_classified
            .iter()
            .filter(|(p, _)| p.af() == Af::V4)
            .collect();
        let v6_cls: Vec<_> = report
            .newly_classified
            .iter()
            .filter(|(p, _)| p.af() == Af::V6)
            .collect();
        assert!(!v4_cls.is_empty());
        assert!(!v6_cls.is_empty());
        assert!(v6_cls[0].1.is_link(IngressPoint::new(2, 1)));
    }

    #[test]
    fn snapshot_contains_classified_and_monitored() {
        let mut e = IpdEngine::new(test_params()).unwrap();
        // Dominant traffic (share 1000/1002 ≥ q) with a stray dribble: the
        // root classifies while still reporting all ingress shares.
        for i in 0..1000u32 {
            e.ingest_parts(30, v4(i * 512), IngressPoint::new(1, 1), 1);
        }
        e.ingest_parts(30, v4(0xF000_0001), IngressPoint::new(2, 1), 1);
        e.ingest_parts(30, v4(0xF000_0011), IngressPoint::new(3, 1), 1);
        e.tick(60);
        let snap = e.snapshot(60);
        assert!(!snap.records.is_empty());
        let classified = snap.records.iter().filter(|r| r.classified).count();
        assert!(classified >= 1);
        for r in &snap.records {
            assert!(r.confidence >= 0.0 && r.confidence <= 1.0 + 1e-9);
            assert!(r.n_cidr > 0.0);
        }
    }

    #[test]
    fn range_count_and_state_estimate_move() {
        let mut e = IpdEngine::new(test_params()).unwrap();
        assert_eq!(e.range_count(), 2); // two empty roots
        let base = e.state_bytes_estimate();
        for i in 0..100u32 {
            e.ingest_parts(30, v4(i << 16), IngressPoint::new((i % 7) + 1, 1), 1);
        }
        assert!(e.monitored_ip_count() > 0);
        assert!(e.state_bytes_estimate() > base);
        e.tick(60);
        let _ = e.tick(120);
        assert!(e.stats().ticks == 2);
    }
}
