//! The time-travel query API over a [`HistStore`]'s directory state, and
//! the [`HistoryProvider`] impl that plugs it into `ipd-serve`.

use std::ops::RangeInclusive;
use std::sync::Arc;

use ipd::{LogicalIngress, PrefixChange};
use ipd_lpm::Prefix;
use ipd_serve::{HistoryProvider, LiveStore};

use crate::codec::{SegmentKind, SegmentPayload};
use crate::image::EpochImage;
use crate::store::{HistError, Inner};

/// A shareable, cloneable read handle. Obtained from
/// [`crate::HistStore::reader`]; stays valid while the store appends and
/// compacts concurrently.
#[derive(Clone)]
pub struct HistReader {
    inner: Arc<Inner>,
}

/// Per-prefix longitudinal summary over an epoch range — the §5 stability
/// question: *how often does a range's ingress point move?*
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StabilityReport {
    /// Epochs examined (`to - from + 1`).
    pub epochs: u64,
    /// Epochs in which the prefix had a classified row (exact match).
    pub present: u64,
    /// Epoch-to-epoch transitions where the assigned ingress differed —
    /// appearing and disappearing each count as one change.
    pub changes: u64,
}

impl StabilityReport {
    /// A prefix that kept one ingress for the whole range (and was there).
    pub fn stable(&self) -> bool {
        self.present == self.epochs && self.changes == 0
    }
}

impl HistReader {
    pub(crate) fn new(inner: Arc<Inner>) -> HistReader {
        HistReader { inner }
    }

    /// Epochs currently held, as `first..=last` (`1..=0`, i.e. empty, for a
    /// fresh store).
    pub fn epochs(&self) -> RangeInclusive<u64> {
        let st = self.inner.state.lock().expect("state poisoned");
        let first = st.manifest.first_epoch().max(1);
        let last = st.manifest.last_epoch();
        first..=last
    }

    /// The full epoch image at `epoch`, or `None` if not held.
    pub fn image_at(&self, epoch: u64) -> Result<Option<Arc<EpochImage>>, HistError> {
        let mut st = self.inner.state.lock().expect("state poisoned");
        Ok(self.inner.image_at(&mut st, epoch)?.map(|(img, _)| img))
    }

    /// [`HistReader::image_at`] plus the segment-read count it cost — the
    /// bound the acceptance suite asserts against the keyframe interval.
    pub fn image_at_counted(
        &self,
        epoch: u64,
    ) -> Result<Option<(Arc<EpochImage>, u64)>, HistError> {
        let mut st = self.inner.state.lock().expect("state poisoned");
        self.inner.image_at(&mut st, epoch)
    }

    /// The servable [`LiveStore`] at `epoch`, stamped with that epoch —
    /// bit-identical to the one published live at that epoch.
    pub fn store_at(&self, epoch: u64) -> Result<Option<LiveStore>, HistError> {
        Ok(self.image_at(epoch)?.map(|img| img.to_store()))
    }

    /// The greatest held epoch whose data timestamp is ≤ `ts`, if any —
    /// point-in-time lookup by simulation time instead of epoch number.
    pub fn epoch_at_time(&self, ts: u64) -> Option<u64> {
        let st = self.inner.state.lock().expect("state poisoned");
        st.manifest
            .entries
            .iter()
            .take_while(|e| e.ts <= ts)
            .last()
            .map(|e| e.epoch)
    }

    /// Ingress-level changes from epoch `from` to epoch `to`, sorted by
    /// prefix. `None` when either epoch is not held. Confidence-only drift
    /// does not count as a change.
    pub fn diff(&self, from: u64, to: u64) -> Result<Option<Vec<PrefixChange>>, HistError> {
        let mut st = self.inner.state.lock().expect("state poisoned");
        let Some((a, _)) = self.inner.image_at(&mut st, from)? else {
            return Ok(None);
        };
        let Some((b, _)) = self.inner.image_at(&mut st, to)? else {
            return Ok(None);
        };
        drop(st);
        let mut changes = Vec::new();
        let (mut i, mut j) = (0, 0);
        let (ra, rb) = (a.rows(), b.rows());
        while i < ra.len() || j < rb.len() {
            match (ra.get(i), rb.get(j)) {
                (Some(old), Some(new)) if old.0 == new.0 => {
                    if old.1 != new.1 {
                        changes.push(PrefixChange {
                            prefix: new.0,
                            before: Some(old.1.clone()),
                            after: Some(new.1.clone()),
                        });
                    }
                    i += 1;
                    j += 1;
                }
                (Some(old), Some(new)) if old.0 < new.0 => {
                    changes.push(PrefixChange {
                        prefix: old.0,
                        before: Some(old.1.clone()),
                        after: None,
                    });
                    i += 1;
                }
                (Some(_), Some(new)) => {
                    changes.push(PrefixChange {
                        prefix: new.0,
                        before: None,
                        after: Some(new.1.clone()),
                    });
                    j += 1;
                }
                (Some(old), None) => {
                    changes.push(PrefixChange {
                        prefix: old.0,
                        before: Some(old.1.clone()),
                        after: None,
                    });
                    i += 1;
                }
                (None, Some(new)) => {
                    changes.push(PrefixChange {
                        prefix: new.0,
                        before: None,
                        after: Some(new.1.clone()),
                    });
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        Ok(Some(changes))
    }

    /// Walk one prefix's assignment across `from..=to`, calling `visit`
    /// with each epoch's exact-match row state. Reads each delta segment
    /// once instead of materializing every epoch — the longitudinal-eval
    /// workhorse.
    pub fn walk_prefix(
        &self,
        prefix: Prefix,
        from: u64,
        to: u64,
        mut visit: impl FnMut(u64, Option<(&LogicalIngress, f64)>),
    ) -> Result<bool, HistError> {
        if from > to {
            return Ok(true);
        }
        let mut st = self.inner.state.lock().expect("state poisoned");
        if st.manifest.get(from).is_none() || st.manifest.get(to).is_none() {
            return Ok(false);
        }
        let Some((start, _)) = self.inner.image_at(&mut st, from)? else {
            return Ok(false);
        };
        let mut current: Option<(LogicalIngress, f64)> =
            start.get(prefix).map(|(_, ing, c)| (ing.clone(), *c));
        visit(from, current.as_ref().map(|(ing, c)| (ing, *c)));
        for epoch in from + 1..=to {
            let kind = st.manifest.get(epoch).expect("range checked").kind;
            // Memtable hit avoids the file read for recent epochs.
            if let Some(img) = st.memtable.iter().find(|i| i.epoch == epoch) {
                current = img.get(prefix).map(|(_, ing, c)| (ing.clone(), *c));
            } else {
                let seg = crate::store::read_segment(&self.inner.dir, epoch, kind)?;
                match seg.payload {
                    SegmentPayload::Full(rows) => {
                        current = rows
                            .binary_search_by_key(&prefix, |(p, _, _)| *p)
                            .ok()
                            .map(|i| (rows[i].1.clone(), rows[i].2));
                    }
                    SegmentPayload::Delta(delta) => {
                        if delta.removes.binary_search(&prefix).is_ok() {
                            current = None;
                        } else if let Ok(i) =
                            delta.upserts.binary_search_by_key(&prefix, |(p, _, _)| *p)
                        {
                            current = Some((delta.upserts[i].1.clone(), delta.upserts[i].2));
                        }
                    }
                }
            }
            visit(epoch, current.as_ref().map(|(ing, c)| (ing, *c)));
        }
        Ok(true)
    }

    /// Summarize one prefix's ingress stability over `from..=to`. `None`
    /// when the range is not fully held.
    pub fn stability(
        &self,
        prefix: Prefix,
        from: u64,
        to: u64,
    ) -> Result<Option<StabilityReport>, HistError> {
        let mut report = StabilityReport::default();
        let mut prev: Option<LogicalIngress> = None;
        let mut first = true;
        let held = self.walk_prefix(prefix, from, to, |_, row| {
            report.epochs += 1;
            let ing = row.map(|(ing, _)| ing.clone());
            if ing.is_some() {
                report.present += 1;
            }
            if !first && ing != prev {
                report.changes += 1;
            }
            first = false;
            prev = ing;
        })?;
        Ok(held.then_some(report))
    }

    /// Keyframe segments currently on disk (diagnostics).
    pub fn keyframe_count(&self) -> usize {
        let st = self.inner.state.lock().expect("state poisoned");
        st.manifest
            .entries
            .iter()
            .filter(|e| e.kind == SegmentKind::Full)
            .count()
    }
}

/// The serve-side seam: errors degrade to "not held" — a corrupt segment
/// store must not take the live query plane down with it.
impl HistoryProvider for HistReader {
    fn at_epoch(&self, epoch: u64) -> Option<LiveStore> {
        self.store_at(epoch).ok().flatten()
    }

    fn diff(&self, from: u64, to: u64) -> Option<Vec<PrefixChange>> {
        HistReader::diff(self, from, to).ok().flatten()
    }
}

impl std::fmt::Debug for HistReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistReader").finish_non_exhaustive()
    }
}
