//! The immutable read-side ingress map: a [`FlatLpm`] over the classified
//! ranges of one engine snapshot, plus the metadata a query answer carries.
//!
//! A store is built once — from a live [`Snapshot`], an engine, or a
//! checkpoint — and never mutated; the serving layer replaces whole stores
//! via [`crate::swap::EpochSwap`]. Lookups are bit-identical to querying
//! `snapshot.lpm_table()` directly (the differential suite pins this): the
//! store is built from the same classified records in the same order, and
//! `FlatLpm` agrees with `LpmTrie` on every address.

use ipd::persist::{EngineStateDump, RestoreError};
use ipd::{IpdEngine, LogicalIngress, ServedRow, Snapshot};
use ipd_lpm::{Addr, FlatLpm, Prefix};
use ipd_state::CheckpointState;

/// One lookup result: the matched range, its assigned logical ingress, and
/// the ingress's traffic share (`s_ingress`) at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngressAnswer<'a> {
    /// The most specific classified range containing the queried address.
    pub prefix: Prefix,
    /// The ingress the range was classified to.
    pub ingress: &'a LogicalIngress,
    /// Share of the assigned ingress when the snapshot was taken, 0..=1.
    pub confidence: f64,
}

/// An immutable ingress map for serving. `None` from [`IngressStore::lookup`]
/// means *unmapped*: no classified range covers the address (the paper's
/// ranges only ever cover observed traffic, so misses are normal).
#[derive(Debug, Clone, Default)]
pub struct IngressStore {
    ts: u64,
    lpm: FlatLpm<(LogicalIngress, f64)>,
}

impl IngressStore {
    /// A store answering every lookup with unmapped, stamped ts 0 — the
    /// epoch-0 value a server starts from before the first bucket closes.
    pub fn empty() -> Self {
        IngressStore::default()
    }

    /// Build from a snapshot's classified records.
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        IngressStore {
            ts: snapshot.ts,
            lpm: snapshot
                .classified()
                .filter_map(|r| r.ingress.clone().map(|ing| (r.range, (ing, r.confidence))))
                .collect(),
        }
    }

    /// Build from a live engine's classified ranges, stamped `ts`.
    pub fn from_engine(engine: &IpdEngine, ts: u64) -> Self {
        Self::from_rows(ts, engine.served_rows())
    }

    /// Build from a checkpointed engine dump, stamped `ts`.
    pub fn from_dump(dump: EngineStateDump, ts: u64) -> Result<Self, RestoreError> {
        let engine = IpdEngine::restore_state(dump)?;
        Ok(Self::from_engine(&engine, ts))
    }

    /// Build from raw `(range, ingress, confidence)` rows, stamped `ts` —
    /// an engine's [`IpdEngine::served_rows`], or the reconstruction path of
    /// the longitudinal store (`ipd-hist`), which persists exactly the rows
    /// [`IngressStore::iter`] yields. Row order does not matter; the LPM
    /// table is canonical either way.
    pub fn from_rows<I>(ts: u64, rows: I) -> Self
    where
        I: IntoIterator<Item = ServedRow>,
    {
        IngressStore {
            ts,
            lpm: rows.into_iter().map(|(p, ing, c)| (p, (ing, c))).collect(),
        }
    }

    /// Build from a decoded checkpoint — the serve-from-disk path: no
    /// journal replay, no tick. The checkpoint state is "all flows of the
    /// closed buckets applied", exactly what the hook would have published
    /// at that boundary; the stamp is the last closed bucket's end.
    pub fn from_checkpoint(state: CheckpointState) -> Result<Self, RestoreError> {
        let engine = IpdEngine::restore_state(state.dump)?;
        let t = engine.params().t_secs;
        let ts = state.clock.current_bucket.map_or(0, |b| b * t);
        Ok(Self::from_engine(&engine, ts))
    }

    /// The snapshot timestamp the store serves.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Number of classified ranges held.
    pub fn len(&self) -> usize {
        self.lpm.len()
    }

    /// Whether the store answers everything with unmapped.
    pub fn is_empty(&self) -> bool {
        self.lpm.is_empty()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.lpm.memory_bytes()
    }

    /// Longest-prefix match over the classified ranges.
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

    /// Iterate over all `(range, ingress, confidence)` rows.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &LogicalIngress, f64)> {
        self.lpm.iter().map(|(p, (ing, c))| (p, ing, *c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd::IpdParams;
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
    fn empty_store_is_all_unmapped() {
        let s = IngressStore::empty();
        assert!(s.is_empty());
        assert_eq!(s.ts(), 0);
        assert!(s.lookup(Addr::v4(0x0102_0304)).is_none());
    }

    #[test]
    fn store_matches_snapshot_lpm_table() {
        let engine = classified_engine();
        let snap = engine.snapshot(61);
        let table = snap.lpm_table();
        let store = IngressStore::from_snapshot(&snap);
        assert_eq!(store.len(), table.len());
        assert_eq!(store.ts(), 61);
        for i in 0..10_000u32 {
            let addr = Addr::v4(i.wrapping_mul(0x9E37_79B9));
            let want = table.lookup(addr).map(|(p, ing)| (p, ing.clone()));
            let got = store.lookup(addr).map(|a| (a.prefix, a.ingress.clone()));
            assert_eq!(got, want, "divergence at {addr}");
        }
    }

    #[test]
    fn confidence_rides_along() {
        let engine = classified_engine();
        let snap = engine.classified_snapshot(61);
        let store = IngressStore::from_engine(&engine, 61);
        for r in &snap.records {
            let probe = r.range.first_addr();
            let ans = store.lookup(probe).expect("classified range answers");
            assert_eq!(ans.confidence.to_bits(), r.confidence.to_bits());
        }
    }

    #[test]
    fn from_rows_rebuilds_bit_identically() {
        let engine = classified_engine();
        let direct = IngressStore::from_engine(&engine, 61);
        let rebuilt = IngressStore::from_rows(
            direct.ts(),
            direct.iter().map(|(p, ing, c)| (p, ing.clone(), c)),
        );
        assert_eq!(rebuilt.len(), direct.len());
        assert_eq!(rebuilt.ts(), 61);
        for i in 0..5_000u32 {
            let addr = Addr::v4(i.wrapping_mul(0x9E37_79B9));
            let want = direct
                .lookup(addr)
                .map(|a| (a.prefix, a.ingress.clone(), a.confidence.to_bits()));
            let got = rebuilt
                .lookup(addr)
                .map(|a| (a.prefix, a.ingress.clone(), a.confidence.to_bits()));
            assert_eq!(got, want, "divergence at {addr}");
        }
    }

    #[test]
    fn dump_round_trips() {
        let engine = classified_engine();
        let direct = IngressStore::from_engine(&engine, 61);
        let restored = IngressStore::from_dump(engine.dump_state(), 61).unwrap();
        assert_eq!(restored.len(), direct.len());
        for i in 0..2_000u32 {
            let addr = Addr::v4(i.wrapping_mul(0x6C07_8965));
            assert_eq!(
                restored.lookup(addr).map(|a| (a.prefix, a.ingress.clone())),
                direct.lookup(addr).map(|a| (a.prefix, a.ingress.clone())),
            );
        }
    }
}
