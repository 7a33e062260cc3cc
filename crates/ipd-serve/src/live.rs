//! The served ingress map: one [`ConcurrentLpm`] updated *in place* by the
//! publisher while readers keep looking up.
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
//! The same type answers history: `ipd-hist` rebuilds the map of a past
//! epoch with [`LiveStore::with_base_epoch`] and [`LiveStore::publish_full`],
//! so a historical answer and a live one come from one lookup path.
//!
//! The value arena of the underlying map retains dead cells until the store
//! is dropped; [`LiveStore::garbage`] exposes the count and the publisher
//! rotates in a freshly built store (epoch numbering continues) when garbage
//! overtakes live rows.

use ipd::{LogicalIngress, ServedRow, StoreDelta};
use ipd_lpm::{Addr, ConcurrentLpm, Prefix};

use std::sync::atomic::{AtomicU64, Ordering};

/// One lookup result: the matched range, its assigned logical ingress, and
/// the ingress's traffic share (`s_ingress`) when the range was published.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngressAnswer<'a> {
    /// The most specific classified range containing the queried address.
    pub prefix: Prefix,
    /// The ingress the range was classified to.
    pub ingress: &'a LogicalIngress,
    /// Share of the assigned ingress at publication, 0..=1.
    pub confidence: f64,
}

/// A concurrently updatable ingress map. `None` from [`LiveStore::lookup`]
/// means *unmapped*: no classified range covers the address (the paper's
/// ranges only ever cover observed traffic, so misses are normal).
#[derive(Debug, Default)]
pub struct LiveStore {
    lpm: ConcurrentLpm<(LogicalIngress, f64)>,
    /// Publication epoch: 0 until the first [`apply`](Self::apply).
    epoch: AtomicU64,
    /// Timestamp of the snapshot the current epoch was built from.
    ts: AtomicU64,
}

impl LiveStore {
    /// An empty store at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store whose *next* publication becomes `base_epoch + 1` —
    /// how a compaction rebuild keeps per-reader epoch monotonicity across
    /// the rotation, and how a history rebuild of epoch `e` is stamped `e`.
    pub fn with_base_epoch(base_epoch: u64) -> Self {
        LiveStore {
            epoch: AtomicU64::new(base_epoch),
            ..Self::default()
        }
    }

    /// The published epoch — a floor on the freshness of every answer.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The snapshot timestamp of the current epoch.
    pub fn ts(&self) -> u64 {
        self.ts.load(Ordering::Acquire)
    }

    /// Longest-prefix match against the live table. Lock-free and
    /// seqlock-validated, so the answer always reflects one consistent state.
    #[inline]
    pub fn lookup(&self, addr: Addr) -> Option<IngressAnswer<'_>> {
        self.lpm
            .lookup(addr)
            .map(|(prefix, (ingress, confidence))| IngressAnswer {
                prefix,
                ingress,
                confidence: *confidence,
            })
    }

    /// Live prefixes.
    pub fn len(&self) -> usize {
        self.lpm.len()
    }

    /// Whether the store answers everything with unmapped.
    pub fn is_empty(&self) -> bool {
        self.lpm.is_empty()
    }

    /// Dead value cells retained by the map — the compaction signal.
    pub fn garbage(&self) -> usize {
        self.lpm.garbage()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.lpm.memory_bytes()
    }

    /// Apply one publication delta and bump the epoch. Returns the new
    /// epoch.
    ///
    /// Single-publisher only (concurrent `apply`s would interleave their
    /// windows); lookups proceed throughout.
    pub fn apply(&self, delta: &StoreDelta, ts: u64) -> u64 {
        self.apply_rows(&delta.upserts, &delta.removes, ts)
    }

    /// Upsert every row of a whole map, in any order, and bump the epoch.
    /// On an empty store this publishes exactly `rows` — how a compaction
    /// rotation builds its fresh store from the rows the publication
    /// diffed, and how history rebuilds a past epoch. Returns the new epoch.
    pub fn publish_full(&self, rows: &[ServedRow], ts: u64) -> u64 {
        self.apply_rows(rows, &[], ts)
    }

    fn apply_rows(&self, upserts: &[ServedRow], removes: &[Prefix], ts: u64) -> u64 {
        let mut u = self.lpm.update();
        for &(p, ref ing, conf) in upserts {
            u.insert(p, (ing.clone(), conf));
        }
        for &p in removes {
            u.remove(p);
        }
        drop(u);
        self.ts.store(ts, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Materialise the live table as `(range, ingress, confidence)` rows,
    /// sorted by prefix — the shape [`LiveStore::publish_full`] rebuilds
    /// from and the longitudinal store persists.
    pub fn rows(&self) -> Vec<ServedRow> {
        let mut out: Vec<ServedRow> = self
            .lpm
            .rows()
            .into_iter()
            .map(|(p, (ing, c))| (p, ing, c))
            .collect();
        out.sort_by_key(|&(p, _, _)| p);
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
        let s = LiveStore::new();
        assert!(s.is_empty());
        assert_eq!(s.epoch(), 0);
        assert!(s.lookup(Addr::v4(0x0102_0304)).is_none());
    }

    #[test]
    fn full_publication_matches_snapshot_table() {
        let e = classified_engine();
        let table = e.classified_snapshot(61).lpm_table();
        let s = LiveStore::new();
        assert_eq!(s.publish_full(&e.served_rows(), 61), 1);
        assert_eq!(s.len(), table.len());
        assert_eq!(s.ts(), 61);
        for i in 0..10_000u32 {
            let addr = Addr::v4(i.wrapping_mul(0x9E37_79B9));
            let want = table.lookup(addr).map(|(p, ing)| (p, ing.clone()));
            let got = s.lookup(addr).map(|a| (a.prefix, a.ingress.clone()));
            assert_eq!(got, want, "divergence at {addr}");
        }
    }

    #[test]
    fn confidence_rides_along() {
        let engine = classified_engine();
        let snap = engine.classified_snapshot(61);
        let s = LiveStore::new();
        s.publish_full(&engine.served_rows(), 61);
        for r in &snap.records {
            let ans = s
                .lookup(r.range.first_addr())
                .expect("classified range answers");
            assert_eq!(ans.confidence.to_bits(), r.confidence.to_bits());
        }
    }

    #[test]
    fn incremental_apply_converges_to_target() {
        let e = classified_engine();
        let snap = e.classified_snapshot(61);
        let s = LiveStore::new();
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
    fn rotation_continues_epoch_numbering() {
        let rows = classified_engine().served_rows();
        let old = LiveStore::new();
        old.publish_full(&rows, 61);
        old.publish_full(&rows, 61);
        assert_eq!(old.epoch(), 2);
        let fresh = LiveStore::with_base_epoch(old.epoch());
        assert_eq!(fresh.publish_full(&rows, 61), 3);
        assert_eq!(fresh.epoch(), 3);
    }
}
