//! The in-memory value the store persists: one epoch's full ingress map as
//! canonical sorted rows, plus row-level deltas between consecutive epochs.
//!
//! Rows are exactly what the engine serves ([`ipd::IpdEngine::served_rows`])
//! and [`IngressStore::iter`] yields — `(range, ingress, confidence)` — held
//! strictly ascending by prefix. That canonical order is what makes
//! segments content-comparable and a delta one two-pointer merge.

use ipd::{ServedRow, StoreDelta};
use ipd_lpm::Prefix;
use ipd_serve::IngressStore;

use crate::codec::append_row_bytes;

/// One `(range, ingress, confidence)` row of an epoch's ingress map.
pub type Row = ServedRow;

/// A full ingress map at one epoch, in canonical row order.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochImage {
    /// Publication epoch (first published map is epoch 1).
    pub epoch: u64,
    /// Data timestamp the map serves (the closed bucket's boundary).
    pub ts: u64,
    rows: Vec<Row>,
}

impl EpochImage {
    /// Build from rows in any order; sorts into canonical order. Duplicate
    /// prefixes are impossible in a well-formed map and are debug-asserted.
    pub fn new(epoch: u64, ts: u64, mut rows: Vec<Row>) -> Self {
        rows.sort_by_key(|(p, _, _)| *p);
        debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "duplicate prefix");
        EpochImage { epoch, ts, rows }
    }

    /// Capture a published [`IngressStore`] as epoch `epoch`.
    pub fn from_store(epoch: u64, store: &IngressStore) -> Self {
        Self::new(
            epoch,
            store.ts(),
            store
                .iter()
                .map(|(p, ing, c)| (p, ing.clone(), c))
                .collect(),
        )
    }

    /// The canonical rows, strictly ascending by prefix.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Consume into the rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Rebuild the servable store — bit-identical to the one the rows were
    /// captured from (`ipd-serve` pins this in `from_rows_rebuilds_bit_identically`).
    pub fn to_store(&self) -> IngressStore {
        IngressStore::from_rows(self.ts, self.rows.iter().cloned())
    }

    /// This exact row, if present (exact-prefix match, not LPM).
    pub fn get(&self, prefix: Prefix) -> Option<&Row> {
        self.rows
            .binary_search_by_key(&prefix, |(p, _, _)| *p)
            .ok()
            .map(|i| &self.rows[i])
    }

    /// Content digest over epoch, ts, and the canonical row bytes
    /// (confidence bit-exact). Two images with the same digest answer every
    /// query identically — the differential suite compares these instead of
    /// holding a thousand live snapshots in memory.
    pub fn digest(&self) -> u64 {
        let mut buf = Vec::with_capacity(16 + self.rows.len() * 32);
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&self.ts.to_le_bytes());
        for row in &self.rows {
            append_row_bytes(&mut buf, row);
        }
        ipd_state::image_checksum(&buf)
    }

    /// Row-level changes from `prev` to `self`: prefixes gone entirely, and
    /// rows that appeared or changed (ingress or confidence bits) — the
    /// serving layer's [`StoreDelta::between_rows`] merge, since both
    /// images hold their rows in canonical order.
    pub fn delta_from(&self, prev: &EpochImage) -> StoreDelta {
        StoreDelta::between_rows(&prev.rows, &self.rows)
    }

    /// The image one delta later: `self` with `delta` applied, restamped as
    /// `(epoch, ts)`. Inverse of [`EpochImage::delta_from`] — reconstruction
    /// folds these from the nearest keyframe forward.
    pub fn apply(&self, delta: &StoreDelta, epoch: u64, ts: u64) -> EpochImage {
        let mut rows = Vec::with_capacity(self.rows.len() + delta.upserts.len());
        let mut removes = delta.removes.iter().copied().peekable();
        let mut upserts = delta.upserts.iter().peekable();
        for row in &self.rows {
            // Appeared prefixes sorting strictly before this row go first.
            while upserts.peek().is_some_and(|u| u.0 < row.0) {
                rows.push(upserts.next().unwrap().clone());
            }
            if removes.next_if_eq(&row.0).is_some() {
                continue;
            }
            if let Some(up) = upserts.next_if(|u| u.0 == row.0) {
                rows.push(up.clone());
            } else {
                rows.push(row.clone());
            }
        }
        rows.extend(upserts.cloned());
        EpochImage { epoch, ts, rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd::LogicalIngress;
    use ipd_lpm::Addr;
    use ipd_topology::{Bundle, IngressPoint};

    fn link(r: u32, i: u16) -> LogicalIngress {
        LogicalIngress::Link(IngressPoint::new(r, i))
    }

    fn row(net: u32, len: u8, r: u32, c: f64) -> Row {
        (Prefix::of(Addr::v4(net), len), link(r, 1), c)
    }

    fn image(epoch: u64, rows: Vec<Row>) -> EpochImage {
        EpochImage::new(epoch, epoch * 60, rows)
    }

    #[test]
    fn delta_and_apply_are_inverse() {
        let a = image(
            1,
            vec![
                row(0x0a00_0000, 8, 1, 0.9),
                row(0x0b00_0000, 8, 2, 0.8),
                row(0x0c00_0000, 8, 3, 0.7),
            ],
        );
        let b = image(
            2,
            vec![
                row(0x0a00_0000, 8, 1, 0.9), // unchanged
                row(0x0b00_0000, 8, 9, 0.8), // moved ingress
                row(0x0d00_0000, 8, 4, 0.6), // appeared (0x0c gone)
                (
                    Prefix::of(Addr::v6(0x2001 << 112), 32),
                    LogicalIngress::Bundle(Bundle::new(7, vec![2, 1])),
                    0.5,
                ),
            ],
        );
        let d = b.delta_from(&a);
        assert_eq!(d.removes, vec![Prefix::of(Addr::v4(0x0c00_0000), 8)]);
        assert_eq!(d.upserts.len(), 3);
        let rebuilt = a.apply(&d, b.epoch, b.ts);
        assert_eq!(rebuilt, b);
        assert_eq!(rebuilt.digest(), b.digest());
    }

    #[test]
    fn confidence_bit_changes_count_as_upserts() {
        let a = image(1, vec![row(0x0a00_0000, 8, 1, 0.9)]);
        let b = image(2, vec![row(0x0a00_0000, 8, 1, 0.9000000001)]);
        let d = b.delta_from(&a);
        assert_eq!(d.upserts.len(), 1);
        assert!(d.removes.is_empty());
        assert_eq!(a.apply(&d, 2, 120), b);
    }

    #[test]
    fn identical_images_yield_the_empty_delta() {
        let a = image(
            1,
            vec![row(0x0a00_0000, 8, 1, 0.9), row(0x0b00_0000, 8, 2, 0.8)],
        );
        let mut b = a.clone();
        b.epoch = 2;
        let d = b.delta_from(&a);
        assert!(d.is_empty());
        assert_eq!(a.apply(&d, 2, b.ts).rows(), b.rows());
    }

    #[test]
    fn digest_tracks_content_not_capture_order() {
        let a = image(
            1,
            vec![row(0x0a00_0000, 8, 1, 0.9), row(0x0b00_0000, 8, 2, 0.8)],
        );
        let shuffled = image(
            1,
            vec![row(0x0b00_0000, 8, 2, 0.8), row(0x0a00_0000, 8, 1, 0.9)],
        );
        assert_eq!(a.digest(), shuffled.digest());
        let changed = image(
            1,
            vec![row(0x0a00_0000, 8, 1, 0.9), row(0x0b00_0000, 8, 2, 0.81)],
        );
        assert_ne!(a.digest(), changed.digest());
    }

    #[test]
    fn empty_to_populated_round_trips_through_delta() {
        let empty = image(1, vec![]);
        let full = image(2, vec![row(0x0a00_0000, 8, 1, 0.9)]);
        let d = full.delta_from(&empty);
        assert_eq!(d.upserts.len(), 1);
        assert_eq!(empty.apply(&d, 2, full.ts), full);
        let back = empty.delta_from(&full);
        assert_eq!(back.removes.len(), 1);
        assert_eq!(full.apply(&back, 1, empty.ts), empty);
    }
}
