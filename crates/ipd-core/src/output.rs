//! IPD output records — the shape of the paper's raw output (Table 3) —
//! and the LPM lookup-table export used for validation (§5.1).

use std::cmp::Ordering;

use ipd_lpm::{LpmTrie, Prefix};
use ipd_topology::IngressPoint;

use crate::ingress::{IngressRegistry, LogicalIngress};
use crate::params::IpdParams;
use crate::range::RangeState;

/// One output row, mirroring Table 3 of the paper:
/// `timestamp, ip(version), s_ingress, s_ipcount, n_cidr, range, ingress(all shares)`.
#[derive(Debug, Clone, PartialEq)]
pub struct IpdRangeRecord {
    /// Snapshot timestamp.
    pub ts: u64,
    /// The IPD range.
    pub range: Prefix,
    /// Whether the range currently has an assigned ingress.
    pub classified: bool,
    /// The assigned ingress (classified), or the current best candidate
    /// (monitored, if any traffic was seen).
    pub ingress: Option<LogicalIngress>,
    /// `s_ingress`: share of the dominant/assigned ingress, 0..=1.
    pub confidence: f64,
    /// `s_ipcount`: total samples accumulated in the range.
    pub sample_count: f64,
    /// `n_cidr`: the minimum-sample threshold for this range size.
    pub n_cidr: f64,
    /// When the range was classified (classified ranges only).
    pub since: Option<u64>,
    /// All ingress points with their accumulated weights, descending —
    /// Table 3: "in parentheses, *all* ingress points and their traffic
    /// share are shown".
    pub shares: Vec<(IngressPoint, f64)>,
}

impl IpdRangeRecord {
    pub(crate) fn from_state(
        ts: u64,
        range: Prefix,
        state: &RangeState,
        params: &IpdParams,
        registry: &IngressRegistry,
    ) -> Self {
        let n_cidr = params.n_cidr(range.af(), range.len());
        match state {
            RangeState::Monitoring(m) => {
                let (total, per) = (m.total() as f64, m.per_ingress());
                let mut shares: Vec<(IngressPoint, f64)> = per
                    .iter()
                    .map(|(&id, &w)| (registry.resolve(id), w))
                    .collect();
                shares.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .expect("finite weights")
                        .then(a.0.cmp(&b.0))
                });
                let (ingress, confidence) = match shares.first() {
                    Some(&(p, w)) if total > 0.0 => (Some(LogicalIngress::Link(p)), w / total),
                    _ => (None, 0.0),
                };
                IpdRangeRecord {
                    ts,
                    range,
                    classified: false,
                    ingress,
                    confidence,
                    sample_count: total,
                    n_cidr,
                    since: None,
                    shares,
                }
            }
            RangeState::Classified(c) => {
                let mut shares: Vec<(IngressPoint, f64)> = c
                    .counts
                    .iter()
                    .map(|(&id, &w)| (registry.resolve(id), w))
                    .collect();
                shares.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .expect("finite weights")
                        .then(a.0.cmp(&b.0))
                });
                IpdRangeRecord {
                    ts,
                    range,
                    classified: true,
                    ingress: Some(c.ingress.clone()),
                    confidence: c.member_share(),
                    sample_count: c.total,
                    n_cidr,
                    since: Some(c.since),
                    shares,
                }
            }
        }
    }

    /// Render one Table-3-style line. `fmt_ingress` maps an ingress point to
    /// its display form; pass `Topology::format_ingress` for the paper's
    /// `C2-R2.4` labels, or [`default_ingress_format`] without a topology.
    pub fn table3_line<F: Fn(IngressPoint) -> String>(&self, fmt_ingress: &F) -> String {
        let af = self.range.af();
        let ingress = match &self.ingress {
            None => "-".to_string(),
            Some(LogicalIngress::Link(p)) => fmt_ingress(*p),
            Some(LogicalIngress::Bundle(b)) => {
                let parts: Vec<String> = b
                    .ifindexes
                    .iter()
                    .map(|&i| fmt_ingress(IngressPoint::new(b.router, i)))
                    .collect();
                format!("bundle[{}]", parts.join("+"))
            }
        };
        let details: Vec<String> = self
            .shares
            .iter()
            .map(|(p, w)| format!("{}={}", fmt_ingress(*p), *w as u64))
            .collect();
        format!(
            "{}\t{}\t{:.3}\t{}\t{}\t{}\t{}({})",
            self.ts,
            af,
            self.confidence,
            self.sample_count as u64,
            self.n_cidr.ceil() as u64,
            self.range,
            ingress,
            details.join(",")
        )
    }
}

/// Topology-free ingress formatting: `R30.1`.
pub fn default_ingress_format(p: IngressPoint) -> String {
    format!("R{}.{}", p.router, p.ifindex)
}

/// A full engine snapshot at one timestamp.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Snapshot timestamp.
    pub ts: u64,
    /// All live ranges, in address order.
    pub records: Vec<IpdRangeRecord>,
}

impl Snapshot {
    /// Only the classified ranges.
    pub fn classified(&self) -> impl Iterator<Item = &IpdRangeRecord> {
        self.records.iter().filter(|r| r.classified)
    }

    /// Build the Longest-Prefix-Match lookup table the paper validates with
    /// (§5.1: "we create a LPM lookup table from the IPD output that maps
    /// each IPD prefix to its corresponding ingress router and interface").
    pub fn lpm_table(&self) -> LpmTrie<LogicalIngress> {
        self.classified()
            .filter_map(|r| r.ingress.clone().map(|i| (r.range, i)))
            .collect()
    }

    /// Order-sensitive FNV-1a 64-bit digest over a canonical encoding of the
    /// whole snapshot. Two snapshots digest equal exactly when the timestamp
    /// and every record — including the *bit patterns* of the f64 fields —
    /// are equal, so the golden-determinism and sharded-equivalence tests
    /// can pin a run to a single number.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        let point = |p: &IngressPoint, eat: &mut dyn FnMut(&[u8])| {
            eat(&p.router.to_le_bytes());
            eat(&u32::from(p.ifindex).to_le_bytes());
        };
        eat(&self.ts.to_le_bytes());
        eat(&(self.records.len() as u64).to_le_bytes());
        for r in &self.records {
            eat(&r.ts.to_le_bytes());
            eat(&[r.range.af().width(), r.range.len(), u8::from(r.classified)]);
            eat(&r.range.addr().bits().to_le_bytes());
            match &r.ingress {
                None => eat(&[0]),
                Some(LogicalIngress::Link(p)) => {
                    eat(&[1]);
                    point(p, &mut eat);
                }
                Some(LogicalIngress::Bundle(b)) => {
                    eat(&[2]);
                    eat(&b.router.to_le_bytes());
                    eat(&(b.ifindexes.len() as u64).to_le_bytes());
                    for &i in &b.ifindexes {
                        eat(&u32::from(i).to_le_bytes());
                    }
                }
            }
            eat(&r.confidence.to_bits().to_le_bytes());
            eat(&r.sample_count.to_bits().to_le_bytes());
            eat(&r.n_cidr.to_bits().to_le_bytes());
            eat(&[u8::from(r.since.is_some())]);
            eat(&r.since.unwrap_or(0).to_le_bytes());
            eat(&(r.shares.len() as u64).to_le_bytes());
            for (p, w) in &r.shares {
                point(p, &mut eat);
                eat(&w.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// Render the whole snapshot as Table-3 lines (classified and monitored).
    pub fn to_table3<F: Fn(IngressPoint) -> String>(&self, fmt_ingress: &F) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.table3_line(fmt_ingress));
            out.push('\n');
        }
        out
    }
}

/// Differences between two snapshots — what an operator dashboard renders
/// (§5.8: IPD "can easily reveal" route changes "e.g., via dashboards").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDiff {
    /// Ranges classified in `after` but not in `before`.
    pub appeared: Vec<(Prefix, LogicalIngress)>,
    /// Ranges classified in `before` but gone (or declassified) in `after`.
    pub disappeared: Vec<(Prefix, LogicalIngress)>,
    /// Ranges classified in both but with a different ingress:
    /// `(range, before, after)`.
    pub moved: Vec<(Prefix, LogicalIngress, LogicalIngress)>,
    /// Ranges classified identically in both.
    pub unchanged: usize,
}

impl SnapshotDiff {
    /// Compare the classified populations of two snapshots by exact range.
    pub fn between(before: &Snapshot, after: &Snapshot) -> SnapshotDiff {
        let mut old: std::collections::HashMap<Prefix, &LogicalIngress> = before
            .classified()
            .filter_map(|r| r.ingress.as_ref().map(|i| (r.range, i)))
            .collect();
        let mut diff = SnapshotDiff::default();
        for r in after.classified() {
            let Some(new_ing) = r.ingress.as_ref() else {
                continue;
            };
            match old.remove(&r.range) {
                None => diff.appeared.push((r.range, new_ing.clone())),
                Some(old_ing) if old_ing == new_ing => diff.unchanged += 1,
                Some(old_ing) => {
                    diff.moved.push((r.range, old_ing.clone(), new_ing.clone()));
                }
            }
        }
        diff.disappeared = old.into_iter().map(|(p, i)| (p, i.clone())).collect();
        diff.appeared.sort_by_key(|(p, _)| *p);
        diff.disappeared.sort_by_key(|(p, _)| *p);
        diff.moved.sort_by_key(|(p, _, _)| *p);
        diff
    }

    /// Total number of changes.
    pub fn change_count(&self) -> usize {
        self.appeared.len() + self.disappeared.len() + self.moved.len()
    }

    /// True when the snapshots' classified populations are identical.
    pub fn is_empty(&self) -> bool {
        self.change_count() == 0
    }

    /// Flatten into one per-prefix change list, sorted by prefix — the row
    /// shape the longitudinal store and the `DiffRange` wire op speak.
    pub fn changes(&self) -> Vec<PrefixChange> {
        let mut out: Vec<PrefixChange> = Vec::with_capacity(self.change_count());
        out.extend(self.appeared.iter().map(|(p, i)| PrefixChange {
            prefix: *p,
            before: None,
            after: Some(i.clone()),
        }));
        out.extend(self.disappeared.iter().map(|(p, i)| PrefixChange {
            prefix: *p,
            before: Some(i.clone()),
            after: None,
        }));
        out.extend(self.moved.iter().map(|(p, b, a)| PrefixChange {
            prefix: *p,
            before: Some(b.clone()),
            after: Some(a.clone()),
        }));
        out.sort_by_key(|c| c.prefix);
        out
    }
}

/// One served row: a classified range, the ingress it was classified to,
/// and that ingress's share (`s_ingress`) — exactly what a lookup answers.
pub type ServedRow = (Prefix, LogicalIngress, f64);

/// The store-level difference between two published maps: exactly the rows
/// the serving layer must upsert or remove to turn `before`'s lookup table
/// into `after`'s. It is also the payload of a history delta segment.
///
/// This is deliberately *not* [`SnapshotDiff`]: that is an operator-facing
/// view keyed on ingress moves only. The serving contract pins every
/// published answer bit-identical to `snapshot.lpm_table()` *including the
/// confidence each answer carries*, so a row whose confidence changed while
/// its ingress stayed put must still be republished — the comparison here is
/// on the ingress and the confidence's bit pattern.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreDelta {
    /// Rows to insert or overwrite, sorted by prefix.
    pub upserts: Vec<ServedRow>,
    /// Prefixes to delete, sorted.
    pub removes: Vec<Prefix>,
}

impl StoreDelta {
    /// Rows to apply so a store serving `before` serves `after`. Both sides
    /// must be strictly ascending by prefix — the order
    /// [`IpdEngine::served_rows`](crate::IpdEngine::served_rows) yields —
    /// which makes the diff one two-pointer merge.
    pub fn between_rows(before: &[ServedRow], after: &[ServedRow]) -> StoreDelta {
        let mut delta = StoreDelta::default();
        let mut old = before.iter().peekable();
        let mut new = after.iter().peekable();
        loop {
            let order = match (old.peek(), new.peek()) {
                (Some(o), Some(n)) => o.0.cmp(&n.0),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => return delta,
            };
            match order {
                Ordering::Less => delta.removes.push(old.next().expect("peeked").0),
                Ordering::Greater => delta.upserts.push(new.next().expect("peeked").clone()),
                Ordering::Equal => {
                    let (o, n) = (old.next().expect("peeked"), new.next().expect("peeked"));
                    if o.1 != n.1 || o.2.to_bits() != n.2.to_bits() {
                        delta.upserts.push(n.clone());
                    }
                }
            }
        }
    }

    /// The same delta between two snapshots' classified records, computed
    /// independently through a `HashMap` — the test oracle for
    /// [`StoreDelta::between_rows`]. Publication never calls it.
    pub fn between(before: &Snapshot, after: &Snapshot) -> StoreDelta {
        let mut old: std::collections::HashMap<Prefix, (&LogicalIngress, u64)> = before
            .classified()
            .filter_map(|r| {
                r.ingress
                    .as_ref()
                    .map(|i| (r.range, (i, r.confidence.to_bits())))
            })
            .collect();
        let mut delta = StoreDelta::default();
        for r in after.classified() {
            let Some(ing) = r.ingress.as_ref() else {
                continue;
            };
            match old.remove(&r.range) {
                Some((oi, oc)) if oi == ing && oc == r.confidence.to_bits() => {}
                _ => delta.upserts.push((r.range, ing.clone(), r.confidence)),
            }
        }
        delta.removes = old.into_keys().collect();
        delta.upserts.sort_by_key(|(p, _, _)| *p);
        delta.removes.sort();
        delta
    }

    /// Number of rows touched.
    pub fn change_count(&self) -> usize {
        self.upserts.len() + self.removes.len()
    }

    /// True when the served tables are already identical.
    pub fn is_empty(&self) -> bool {
        self.change_count() == 0
    }
}

/// One range's classification change between two points in time: appeared
/// (`before` is `None`), disappeared (`after` is `None`), or moved to a
/// different ingress (both present). Both `None` never occurs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixChange {
    /// The range that changed.
    pub prefix: Prefix,
    /// Its ingress before the change (`None` = not classified).
    pub before: Option<LogicalIngress>,
    /// Its ingress after the change (`None` = no longer classified).
    pub after: Option<LogicalIngress>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IpdEngine;
    use crate::params::IpdParams;
    use ipd_lpm::Addr;

    fn engine_with_split_space() -> IpdEngine {
        let params = IpdParams {
            ncidr_factor_v4: 0.01,
            ..IpdParams::default()
        };
        let mut e = IpdEngine::new(params).unwrap();
        // n_cidr: /0 needs ~656 samples, /1 needs ~464 — 600 per half works.
        for i in 0..600u32 {
            e.ingest_parts(30, Addr::v4(i * 1024), IngressPoint::new(1, 1), 1);
            e.ingest_parts(
                30,
                Addr::v4(0x8000_0000 + i * 1024),
                IngressPoint::new(2, 4),
                1,
            );
        }
        e.tick(60); // split
        e.tick(61); // classify halves
        e
    }

    #[test]
    fn snapshot_lpm_table_matches_classifications() {
        let e = engine_with_split_space();
        let snap = e.snapshot(61);
        let lpm = snap.lpm_table();
        assert_eq!(lpm.len(), 2);
        let (p, ing) = lpm.lookup(Addr::v4(0x0100_0000)).unwrap();
        assert_eq!(p.to_string(), "0.0.0.0/1");
        assert!(ing.is_link(IngressPoint::new(1, 1)));
        let (_, ing) = lpm.lookup(Addr::v4(0x9000_0000)).unwrap();
        assert!(ing.is_link(IngressPoint::new(2, 4)));
    }

    #[test]
    fn table3_line_shape() {
        let e = engine_with_split_space();
        let snap = e.snapshot(61);
        let text = snap.to_table3(&default_ingress_format);
        let first = text.lines().next().unwrap();
        // ts, af, confidence, count, ncidr, range, ingress(details)
        let fields: Vec<&str> = first.split('\t').collect();
        assert_eq!(fields.len(), 7, "line: {first}");
        assert_eq!(fields[0], "61");
        assert_eq!(fields[1], "4");
        assert!(fields[2].parse::<f64>().unwrap() >= 0.95);
        assert!(fields[6].starts_with("R1.1(R1.1="), "field: {}", fields[6]);
    }

    #[test]
    fn monitored_record_reports_best_candidate() {
        let params = IpdParams::default(); // huge thresholds: nothing classifies
        let mut e = IpdEngine::new(params).unwrap();
        e.ingest_parts(30, Addr::v4(1), IngressPoint::new(1, 1), 3);
        e.ingest_parts(30, Addr::v4(2), IngressPoint::new(2, 1), 1);
        let snap = e.snapshot(30);
        assert_eq!(snap.records.len(), 1);
        let r = &snap.records[0];
        assert!(!r.classified);
        assert_eq!(r.sample_count, 4.0);
        assert!((r.confidence - 0.75).abs() < 1e-9);
        assert!(r.ingress.as_ref().unwrap().is_link(IngressPoint::new(1, 1)));
        assert!(r.since.is_none());
        // Empty engine → empty snapshot.
        let empty = IpdEngine::new(IpdParams::default()).unwrap().snapshot(0);
        assert!(empty.records.is_empty());
    }

    #[test]
    fn snapshot_diff_tracks_changes() {
        let e = engine_with_split_space();
        let before = e.snapshot(61);
        // Identical snapshots: no changes.
        let same = SnapshotDiff::between(&before, &before);
        assert!(same.is_empty());
        assert_eq!(same.unchanged, 2);

        // Shift the high half to a new ingress and let IPD react: the first
        // tick invalidates (dominant share diluted), fresh traffic then
        // re-learns the new ingress.
        let mut e = engine_with_split_space();
        for i in 0..3000u32 {
            e.ingest_parts(
                120,
                Addr::v4(0x8000_0000 + i * 1024),
                IngressPoint::new(9, 9),
                1,
            );
        }
        e.tick(180); // invalidation (resets per-IP state)
        for i in 0..3000u32 {
            e.ingest_parts(
                185,
                Addr::v4(0x8000_0000 + i * 1024),
                IngressPoint::new(9, 9),
                1,
            );
        }
        e.tick(240); // re-classification from fresh state
        let after = e.snapshot(240);
        let diff = SnapshotDiff::between(&before, &after);
        assert!(!diff.is_empty());
        let total_refs = diff.unchanged + diff.moved.len() + diff.disappeared.len();
        assert_eq!(total_refs, before.classified().count());
        // The low half is untouched.
        assert!(diff.unchanged >= 1);
        // The high half either moved to R9.9 or went through a
        // disappear/appear cycle at finer granularity.
        let high_moved = diff
            .moved
            .iter()
            .any(|(_, _, new)| new.is_link(IngressPoint::new(9, 9)))
            || diff
                .appeared
                .iter()
                .any(|(_, ing)| ing.is_link(IngressPoint::new(9, 9)));
        assert!(high_moved, "diff: {diff:?}");
    }

    #[test]
    fn shares_are_descending() {
        let e = engine_with_split_space();
        let snap = e.snapshot(61);
        for r in &snap.records {
            for w in r.shares.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }
}
