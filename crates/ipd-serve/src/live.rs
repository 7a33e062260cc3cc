//! The mutable read side: a regioned [`ConcurrentLpm`] ingress map updated
//! *in place* by the publisher while readers keep looking up — the
//! incremental replacement for rebuilding a whole [`IngressStore`] per epoch.
//!
//! # Regions
//!
//! The store is split into `K` (a power of two) independent concurrent LPM
//! regions routed on the top `log2 K` address bits of each family, so the
//! changes of one publication can be applied region by region. A prefix
//! shorter than the routing depth is replicated into every region it
//! covers; an address lookup therefore touches exactly one region.
//!
//! # Epoch semantics
//!
//! [`LiveStore::apply`] installs one [`StoreDelta`] (the rows by which the
//! newly closed bucket's table differs from the previous one) and then bumps
//! the store's own epoch counter. Because updates land in place, the epoch a
//! reader observes is a *floor*: an answer read after epoch N was published
//! reflects state at least as new as N (never older — per-row seqlock
//! validation inside [`ConcurrentLpm`] rules out torn mixes). At every
//! publication boundary the store's table is bit-identical to
//! `snapshot.lpm_table()` — the differential suite pins this, including
//! probes taken *during* the apply window for unchanged rows.
//!
//! The value arenas of the underlying regions retain dead cells until the
//! store is dropped; [`LiveStore::garbage`] exposes the count and the
//! publisher rotates in a freshly built store (epoch numbering continues)
//! when garbage overtakes live rows.

use ipd::{LogicalIngress, ServedRow, StoreDelta};
use ipd_lpm::{Addr, ConcurrentLpm, Prefix};

use crate::store::IngressAnswer;
use std::sync::atomic::{AtomicU64, Ordering};

/// Minimum delta size before region application fans out to threads.
const PARALLEL_APPLY_MIN: usize = 4_096;

/// A concurrently updatable ingress map. `None` from [`LiveStore::lookup`]
/// means *unmapped*, exactly like [`IngressStore`](crate::IngressStore).
#[derive(Debug)]
pub struct LiveStore {
    regions: Vec<ConcurrentLpm<(LogicalIngress, f64)>>,
    /// `log2(regions.len())`: address routing uses this many top bits.
    depth: u8,
    /// Publication epoch: 0 until the first [`apply`](Self::apply).
    epoch: AtomicU64,
    /// Timestamp of the snapshot the current epoch was built from.
    ts: AtomicU64,
}

impl Default for LiveStore {
    fn default() -> Self {
        Self::new(1)
    }
}

impl LiveStore {
    /// An empty store with `regions` concurrent LPM regions (power of two,
    /// at most 256), at epoch 0.
    pub fn new(regions: usize) -> Self {
        Self::with_base_epoch(regions, 0)
    }

    /// An empty store whose *next* publication becomes `base_epoch + 1` —
    /// how a compaction rebuild keeps per-reader epoch monotonicity across
    /// the rotation.
    pub fn with_base_epoch(regions: usize, base_epoch: u64) -> Self {
        assert!(
            regions.is_power_of_two() && regions <= 256,
            "regions must be a power of two ≤ 256, got {regions}"
        );
        LiveStore {
            regions: (0..regions).map(|_| ConcurrentLpm::new()).collect(),
            depth: regions.trailing_zeros() as u8,
            epoch: AtomicU64::new(base_epoch),
            ts: AtomicU64::new(0),
        }
    }

    /// Number of regions (the publisher's parallelism).
    pub fn regions(&self) -> usize {
        self.regions.len()
    }

    /// The published epoch — a floor on the freshness of every answer.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The snapshot timestamp of the current epoch.
    pub fn ts(&self) -> u64 {
        self.ts.load(Ordering::Acquire)
    }

    #[inline]
    fn region_of(&self, addr: Addr) -> usize {
        if self.depth == 0 {
            0
        } else {
            (addr.bits() >> (addr.af().width() - self.depth)) as usize
        }
    }

    /// The contiguous region range a prefix must live in: one region for
    /// `len >= depth`, replicated across `2^(depth - len)` otherwise.
    fn covered(&self, p: Prefix) -> std::ops::Range<usize> {
        if self.depth == 0 {
            return 0..1;
        }
        let start = (p.addr().bits() >> (p.af().width() - self.depth)) as usize;
        if p.len() >= self.depth {
            start..start + 1
        } else {
            start..start + (1usize << (self.depth - p.len()))
        }
    }

    /// Longest-prefix match against the live table. Lock-free; validated
    /// per-region, so the answer always reflects one consistent state.
    #[inline]
    pub fn lookup(&self, addr: Addr) -> Option<IngressAnswer<'_>> {
        self.regions[self.region_of(addr)]
            .lookup(addr)
            .map(|(prefix, (ingress, confidence))| IngressAnswer {
                prefix,
                ingress,
                confidence: *confidence,
            })
    }

    /// Distinct live prefixes (replicas of short prefixes counted once).
    pub fn len(&self) -> usize {
        (0u16..=128)
            .map(|l| {
                let total: usize = self.regions.iter().map(|r| r.len_at(l as u8)).sum();
                total >> self.depth.saturating_sub(l as u8).min(self.depth)
            })
            .sum()
    }

    /// Whether the store answers everything with unmapped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dead value cells retained across all regions — the compaction signal.
    pub fn garbage(&self) -> usize {
        self.regions.iter().map(|r| r.garbage()).sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.regions.iter().map(|r| r.memory_bytes()).sum()
    }

    /// Apply one publication delta and bump the epoch. Returns the new
    /// epoch. Region application fans out to scoped threads when the delta
    /// is large enough to amortise them.
    ///
    /// Single-publisher only (concurrent `apply`s would interleave their
    /// windows); lookups proceed throughout.
    pub fn apply(&self, delta: &StoreDelta, ts: u64) -> u64 {
        self.apply_rows(&delta.upserts, &delta.removes, ts)
    }

    /// Upsert every row of a whole map, in any order, and bump the epoch.
    /// On an empty store this publishes exactly `rows` — how a compaction
    /// rotation builds its fresh store from the rows the publication
    /// diffed. Returns the new epoch.
    pub fn publish_full(&self, rows: &[ServedRow], ts: u64) -> u64 {
        self.apply_rows(rows, &[], ts)
    }

    fn apply_rows(&self, upserts: &[ServedRow], removes: &[Prefix], ts: u64) -> u64 {
        if self.regions.len() == 1 || upserts.len() + removes.len() < PARALLEL_APPLY_MIN {
            for r in 0..self.regions.len() {
                self.apply_region(r, upserts, removes);
            }
        } else {
            std::thread::scope(|s| {
                for r in 0..self.regions.len() {
                    s.spawn(move || self.apply_region(r, upserts, removes));
                }
            });
        }
        self.ts.store(ts, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Apply the rows that route to region `r`.
    fn apply_region(&self, r: usize, upserts: &[ServedRow], removes: &[Prefix]) {
        let store = &self.regions[r];
        let mut u = store.update();
        for &(p, ref ing, conf) in upserts {
            if self.covered(p).contains(&r) {
                u.insert(p, (ing.clone(), conf));
            }
        }
        for &p in removes {
            if self.covered(p).contains(&r) {
                u.remove(p);
            }
        }
    }

    /// Materialise the live table as `(range, ingress, confidence)` rows,
    /// sorted by prefix, replicas deduplicated — the shape
    /// [`IngressStore::from_rows`](crate::IngressStore::from_rows) rebuilds
    /// from and the longitudinal store persists.
    pub fn rows(&self) -> Vec<ServedRow> {
        let mut out: Vec<ServedRow> = Vec::with_capacity(self.len());
        for r in &self.regions {
            out.extend(r.rows().into_iter().map(|(p, (ing, c))| (p, ing, c)));
        }
        out.sort_by_key(|&(p, _, _)| p);
        out.dedup_by_key(|&mut (p, _, _)| p);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd::{IpdEngine, IpdParams};
    use ipd_topology::IngressPoint;

    fn classified_engine() -> IpdEngine {
        let params = IpdParams {
            ncidr_factor_v4: 0.01,
            ..IpdParams::default()
        };
        let mut e = IpdEngine::new(params).unwrap();
        for i in 0..600u32 {
            e.ingest_parts(30, Addr::v4(i * 1024), IngressPoint::new(1, 1), 1);
            e.ingest_parts(
                30,
                Addr::v4(0x8000_0000 + i * 1024),
                IngressPoint::new(2, 4),
                1,
            );
        }
        e.tick(60);
        e.tick(61);
        e
    }

    #[test]
    fn empty_store_is_unmapped_at_epoch_zero() {
        let s = LiveStore::new(1);
        assert!(s.is_empty());
        assert_eq!(s.epoch(), 0);
        assert!(s.lookup(Addr::v4(0x0102_0304)).is_none());
    }

    #[test]
    fn full_publication_matches_snapshot_table() {
        for regions in [1usize, 8] {
            let e = classified_engine();
            let table = e.classified_snapshot(61).lpm_table();
            let s = LiveStore::new(regions);
            assert_eq!(s.publish_full(&e.served_rows(), 61), 1);
            assert_eq!(s.len(), table.len(), "regions {regions}");
            assert_eq!(s.ts(), 61);
            for i in 0..10_000u32 {
                let addr = Addr::v4(i.wrapping_mul(0x9E37_79B9));
                let want = table.lookup(addr).map(|(p, ing)| (p, ing.clone()));
                let got = s.lookup(addr).map(|a| (a.prefix, a.ingress.clone()));
                assert_eq!(got, want, "regions {regions}, divergence at {addr}");
            }
        }
    }

    #[test]
    fn incremental_apply_converges_to_target() {
        let e = classified_engine();
        let snap = e.classified_snapshot(61);
        let s = LiveStore::new(4);
        s.publish_full(&e.served_rows(), 61);
        // Second epoch: drop every fourth row, tweak confidences upstream by
        // republishing a doctored snapshot.
        let mut snap2 = snap.clone();
        snap2.ts = 121;
        let mut i = 0usize;
        snap2.records.retain(|_| {
            i += 1;
            !i.is_multiple_of(4)
        });
        for r in snap2.records.iter_mut().take(10) {
            r.confidence *= 0.5;
        }
        let delta = StoreDelta::between(&snap, &snap2);
        assert!(delta.change_count() < snap.records.len() + snap2.records.len());
        assert_eq!(s.apply(&delta, snap2.ts), 2);
        let table = snap2.lpm_table();
        assert_eq!(s.len(), table.len());
        let want: Vec<_> = snap2
            .classified()
            .filter_map(|r| r.ingress.clone().map(|ing| (r.range, ing, r.confidence)))
            .collect();
        let got = s.rows();
        assert_eq!(got.len(), want.len());
        for ((gp, gi, gc), (wp, wi, wc)) in got.iter().zip({
            let mut w = want.clone();
            w.sort_by_key(|&(p, _, _)| p);
            w
        }) {
            assert_eq!((*gp, gi.clone()), (wp, wi));
            assert_eq!(gc.to_bits(), wc.to_bits());
        }
    }

    #[test]
    fn short_prefixes_replicate_across_regions() {
        let s = LiveStore::new(8);
        let wide: Prefix = "128.0.0.0/2".parse().unwrap(); // depth 3 > len 2
        let narrow: Prefix = "10.0.0.0/8".parse().unwrap();
        let delta = StoreDelta {
            upserts: vec![
                (wide, LogicalIngress::Link(IngressPoint::new(1, 1)), 0.9),
                (narrow, LogicalIngress::Link(IngressPoint::new(2, 2)), 0.8),
            ],
            removes: vec![],
        };
        assert_eq!(s.apply(&delta, 7), 1);
        assert_eq!(s.len(), 2, "replicas count once");
        // Both halves of the /2 route to different regions yet answer.
        for addr in [Addr::v4(0x8000_0001), Addr::v4(0xBFFF_FFFF)] {
            assert_eq!(s.lookup(addr).unwrap().prefix, wide);
        }
        assert_eq!(s.lookup(Addr::v4(0x0A00_0001)).unwrap().prefix, narrow);
        assert_eq!(s.rows().len(), 2);
        // Removing the wide prefix clears every replica.
        let rm = StoreDelta {
            upserts: vec![],
            removes: vec![wide],
        };
        assert_eq!(s.apply(&rm, 8), 2);
        assert!(s.lookup(Addr::v4(0x8000_0001)).is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn rotation_continues_epoch_numbering() {
        let rows = classified_engine().served_rows();
        let old = LiveStore::new(1);
        old.publish_full(&rows, 61);
        old.publish_full(&rows, 61);
        assert_eq!(old.epoch(), 2);
        let fresh = LiveStore::with_base_epoch(1, old.epoch());
        assert_eq!(fresh.publish_full(&rows, 61), 3);
        assert_eq!(fresh.epoch(), 3);
    }
}
