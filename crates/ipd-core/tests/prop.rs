//! Property-based tests for the IPD engine's structural invariants.

use ipd::{IpdEngine, IpdParams};
use ipd_lpm::{Addr, Af};
use ipd_topology::IngressPoint;
use proptest::prelude::*;

/// One synthetic sample: (seconds offset, source bits, ingress index).
type Sample = (u16, u32, u8);

fn arb_samples() -> impl Strategy<Value = Vec<Sample>> {
    proptest::collection::vec((0u16..600, any::<u32>(), 0u8..6), 1..400)
}

fn small_params() -> IpdParams {
    IpdParams {
        ncidr_factor_v4: 0.001,
        ncidr_factor_v6: 1e-9,
        ..IpdParams::default()
    }
}

/// Run the engine over the samples, ticking at bucket boundaries, and return
/// it after a final tick.
fn run(params: &IpdParams, samples: &[Sample]) -> IpdEngine {
    let mut sorted = samples.to_vec();
    sorted.sort_by_key(|s| s.0);
    let mut engine = IpdEngine::new(params.clone()).unwrap();
    let mut bucket = 0u64;
    for &(off, bits, ing) in &sorted {
        let ts = off as u64;
        let b = ts / params.t_secs;
        while bucket < b {
            bucket += 1;
            engine.tick(bucket * params.t_secs);
        }
        engine.ingest_parts(ts, Addr::v4(bits), IngressPoint::new(ing as u32 + 1, 1), 1);
    }
    engine.tick((bucket + 1) * params.t_secs);
    engine
}

proptest! {
    /// Snapshot ranges are disjoint (they are trie leaves), sorted, within
    /// cidr_max, and counters/confidences are sane.
    #[test]
    fn snapshot_invariants(samples in arb_samples()) {
        let params = small_params();
        let engine = run(&params, &samples);
        let snap = engine.snapshot(9999);
        let v4: Vec<_> = snap.records.iter().filter(|r| r.range.af() == Af::V4).collect();
        for w in v4.windows(2) {
            // Sorted and non-overlapping.
            prop_assert!(w[0].range < w[1].range);
            prop_assert!(!w[0].range.contains_prefix(w[1].range));
            prop_assert!(!w[1].range.contains_prefix(w[0].range));
        }
        for r in &snap.records {
            prop_assert!(r.range.len() <= params.cidr_max(r.range.af()));
            prop_assert!(r.sample_count >= 0.0);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r.confidence));
            prop_assert!(r.n_cidr > 0.0);
            if r.classified {
                prop_assert!(r.ingress.is_some());
                prop_assert!(r.since.is_some());
            }
        }
    }

    /// Classified ranges that survive a quiet tick satisfy the validity
    /// invariant: dominant share ≥ q (Algorithm 1 line 16).
    #[test]
    fn validity_invariant_after_tick(samples in arb_samples()) {
        let params = small_params();
        let mut engine = run(&params, &samples);
        engine.tick(700);
        let snap = engine.snapshot(700);
        for r in snap.classified() {
            prop_assert!(
                r.confidence >= params.q - 1e-9,
                "classified {} with confidence {}",
                r.range,
                r.confidence
            );
        }
    }

    /// The engine is deterministic: the same input stream yields identical
    /// snapshots.
    #[test]
    fn deterministic(samples in arb_samples()) {
        let params = small_params();
        let a = run(&params, &samples).snapshot(9999);
        let b = run(&params, &samples).snapshot(9999);
        prop_assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(b.records.iter()) {
            prop_assert_eq!(x, y);
        }
    }

    /// The exported LPM table contains exactly the classified ranges, and
    /// looking up any address inside a classified range returns it.
    #[test]
    fn lpm_export_roundtrip(samples in arb_samples()) {
        let params = small_params();
        let engine = run(&params, &samples);
        let snap = engine.snapshot(9999);
        let lpm = snap.lpm_table();
        prop_assert_eq!(lpm.len(), snap.classified().count());
        for r in snap.classified() {
            let (got_range, got_ing) = lpm.lookup(r.range.addr()).unwrap();
            // Leaves are disjoint so the LPM hit is exactly this range.
            prop_assert_eq!(got_range, r.range);
            prop_assert_eq!(Some(got_ing), r.ingress.as_ref());
        }
    }

    /// Flow accounting: stats count every ingested sample, and the monitored
    /// per-IP state never exceeds the number of distinct masked sources.
    #[test]
    fn accounting(samples in arb_samples()) {
        let params = small_params();
        let engine = run(&params, &samples);
        prop_assert_eq!(engine.stats().flows_ingested, samples.len() as u64);
        let distinct: std::collections::HashSet<u128> = samples
            .iter()
            .map(|&(_, bits, _)| Addr::v4(bits).masked(params.cidr_max_v4).bits())
            .collect();
        prop_assert!(engine.monitored_ip_count() <= distinct.len());
    }
}
