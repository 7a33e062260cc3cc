//! Reaction-to-changes case study (§5.3.4, Figs 13–14).
//!
//! A scripted scenario on one /23, mirroring the paper's example:
//!
//! * `x.y.196.0/25` and `x.y.197.0/24` enter through the same ingress until
//!   a router maintenance event moves them to a different interface;
//! * `x.y.196.128/26` sits between them on a different ingress point;
//! * the first range has occasional traffic gaps (classification
//!   discontinuities);
//! * finally the whole /23 remaps to a single ingress and re-aggregates.
//!
//! The timeline is compressed (minutes instead of weeks); the mechanics —
//! split, interface change, gap + decay, re-aggregation — are the same.

use ipd::pipeline::{BucketDriver, NoopHook, PipelineOutput};
use ipd::{IpdEngine, IpdParams};
use ipd_lpm::{Addr, Prefix};
use ipd_netflow::FlowRecord;
use ipd_topology::IngressPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Classification status of one range at one snapshot (a Fig 13 cell).
#[derive(Debug, Clone, PartialEq)]
pub struct RangeStatus {
    /// The range.
    pub range: Prefix,
    /// Classified (full opacity) vs still monitored (low opacity).
    pub classified: bool,
    /// Ingress label (`R1.1` style).
    pub ingress: Option<String>,
    /// Confidence `s_ingress`.
    pub confidence: f64,
}

/// Fig 14 detail series point for the focus /24.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailPoint {
    /// Snapshot time.
    pub ts: u64,
    /// Whether the covering range is classified.
    pub classified: bool,
    /// Confidence of the covering range.
    pub confidence: f64,
    /// `n_cidr` of the covering range.
    pub n_cidr: f64,
    /// Total sample counter.
    pub total: f64,
    /// Per-ingress counters, descending.
    pub per_ingress: Vec<(String, f64)>,
}

/// Full case-study output.
#[derive(Debug, Clone, Default)]
pub struct CaseStudyOutput {
    /// Per snapshot: status of every live range inside the /23.
    pub timeline: Vec<(u64, Vec<RangeStatus>)>,
    /// Per snapshot: the focus /24's detail.
    pub detail: Vec<DetailPoint>,
}

/// The scenario's ingress points.
pub const INGRESS_A: IngressPoint = IngressPoint {
    router: 1,
    ifindex: 1,
};
/// Backup interface on the same router (the maintenance target).
pub const INGRESS_A2: IngressPoint = IngressPoint {
    router: 1,
    ifindex: 2,
};
/// The /26 in the middle enters elsewhere.
pub const INGRESS_B: IngressPoint = IngressPoint {
    router: 2,
    ifindex: 1,
};
/// Final ingress for the re-aggregated /23.
pub const INGRESS_C: IngressPoint = IngressPoint {
    router: 3,
    ifindex: 1,
};

const BASE: u32 = 0xCB00_C400; // 203.0.196.0; the /23 is 203.0.196.0/23

/// The /23 under study.
pub fn study_prefix() -> Prefix {
    Prefix::of(Addr::v4(BASE), 23)
}

/// The focus /24 (`x.y.197.0/24`).
pub fn focus_prefix() -> Prefix {
    Prefix::of(Addr::v4(BASE + 0x100), 24)
}

fn flows_for_minute(minute: u64, rng: &mut StdRng) -> Vec<FlowRecord> {
    // Phase plan (minutes):
    //   0..30   steady state: /25 + /24 via A, middle /26 via B
    //  30..45   maintenance: A's ranges shift to A2 (same router)
    //  45..60   restored to A
    //  60..82   gap: the /25 goes quiet (decay + declassification)
    //  82..110  the whole /23 enters via C (re-aggregation)
    let ts0 = minute * 60;
    let mut out = Vec::new();
    let mut push = |rng: &mut StdRng, base: u32, span: u32, n: u32, ing: IngressPoint| {
        for _ in 0..n {
            let addr = Addr::v4(base + rng.random_range(0..span));
            let ts = ts0 + rng.random_range(0..60u64);
            out.push(FlowRecord::synthetic(ts, addr, ing.router, ing.ifindex));
        }
    };
    let a_like = if (30..45).contains(&minute) {
        INGRESS_A2
    } else {
        INGRESS_A
    };
    if minute < 82 {
        // x.y.196.0/25 via A (quiet during the gap phase).
        if !(60..82).contains(&minute) {
            push(rng, BASE, 128, 120, a_like);
        }
        // x.y.196.128/26 via B.
        push(rng, BASE + 128, 64, 90, INGRESS_B);
        // x.y.197.0/24 via A.
        push(rng, BASE + 0x100, 256, 200, a_like);
    } else {
        // Whole /23 via C.
        push(rng, BASE, 512, 300, INGRESS_C);
    }
    out.sort_by_key(|f| f.ts);
    out
}

/// Run the scripted scenario and collect Fig 13/14 series.
pub fn run_case_study() -> CaseStudyOutput {
    let params = IpdParams {
        // Thresholds sized to the scenario's ~410 flows/min: the root needs
        // n_cidr(/0) = 0.008 × 65536 ≈ 524 live samples (two minutes of
        // traffic), deep ranges a handful.
        ncidr_factor_v4: 0.008,
        ..IpdParams::default()
    };
    let mut engine = IpdEngine::new(params).expect("valid params");
    let mut driver = BucketDriver::new(5);
    let mut rng = StdRng::seed_from_u64(1234);
    let mut out = CaseStudyOutput::default();
    let study = study_prefix();
    let focus = focus_prefix();

    let handle = |o: PipelineOutput, engine_snapshot_out: &mut CaseStudyOutput| {
        if let PipelineOutput::Snapshot(snap) = o {
            let mut statuses = Vec::new();
            let mut detail: Option<(u8, DetailPoint)> = None;
            for r in &snap.records {
                if !study.contains_prefix(r.range) && !r.range.contains_prefix(study) {
                    continue;
                }
                statuses.push(RangeStatus {
                    range: r.range,
                    classified: r.classified,
                    ingress: r.ingress.as_ref().map(|i| i.to_string()),
                    confidence: r.confidence,
                });
                // The focus /24's covering or covered range.
                if r.range.contains_prefix(focus) || focus.contains_prefix(r.range) {
                    // Prefer the most specific covering/covered range.
                    let better = detail.as_ref().is_none_or(|(len, _)| r.range.len() >= *len);
                    if better {
                        detail = Some((
                            r.range.len(),
                            DetailPoint {
                                ts: snap.ts,
                                classified: r.classified,
                                confidence: r.confidence,
                                n_cidr: r.n_cidr,
                                total: r.sample_count,
                                per_ingress: r
                                    .shares
                                    .iter()
                                    .map(|(p, w)| (format!("R{}.{}", p.router, p.ifindex), *w))
                                    .collect(),
                            },
                        ));
                    }
                }
            }
            engine_snapshot_out.timeline.push((snap.ts, statuses));
            if let Some((_, d)) = detail {
                engine_snapshot_out.detail.push(d);
            }
        }
    };

    for minute in 0..110 {
        for flow in flows_for_minute(minute, &mut rng) {
            let mut emitted = Vec::new();
            driver.observe(
                &mut engine,
                flow.ts,
                &mut |o| emitted.push(o),
                &mut NoopHook,
            );
            for o in emitted {
                handle(o, &mut out);
            }
            engine.ingest(&flow);
        }
    }
    let mut emitted = Vec::new();
    driver.finish(&mut engine, &mut |o| emitted.push(o), &mut NoopHook);
    for o in emitted {
        handle(o, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ingress_of_focus_at(out: &CaseStudyOutput, ts: u64) -> Option<String> {
        out.timeline
            .iter()
            .rfind(|(t, _)| *t <= ts)?
            .1
            .iter()
            .filter(|s| {
                s.classified
                    && (s.range.contains_prefix(focus_prefix())
                        || focus_prefix().contains_prefix(s.range))
            })
            .max_by_key(|s| s.range.len())
            .and_then(|s| s.ingress.clone())
    }

    #[test]
    fn scenario_reproduces_the_papers_story() {
        let out = run_case_study();
        assert!(!out.timeline.is_empty());
        assert!(!out.detail.is_empty());

        // Steady state (~minute 25): the focus /24 enters via A = R1.1.
        assert_eq!(ingress_of_focus_at(&out, 25 * 60).as_deref(), Some("R1.1"));

        // During/after maintenance (~minute 44): reclassified to R1.2 — the
        // paper's interface change on the same router.
        let during = ingress_of_focus_at(&out, 45 * 60);
        assert_eq!(during.as_deref(), Some("R1.2"), "maintenance shift");

        // Final phase (~minute 105): everything enters via C = R3.1.
        assert_eq!(ingress_of_focus_at(&out, 108 * 60).as_deref(), Some("R3.1"));
    }

    #[test]
    fn middle_26_has_its_own_ingress() {
        let out = run_case_study();
        // At steady state the middle /26 must be classified to B while its
        // neighbors are at A — forcing the /23 to be split (Fig 13's whole
        // point).
        let (_, statuses) = out
            .timeline
            .iter()
            .find(|(ts, _)| *ts >= 25 * 60)
            .expect("snapshots exist");
        let b_range = statuses
            .iter()
            .find(|s| s.classified && s.ingress.as_deref() == Some("R2.1"));
        assert!(
            b_range.is_some(),
            "middle /26 classified to B: {statuses:?}"
        );
    }

    #[test]
    fn gap_phase_declassifies_the_quiet_range() {
        let out = run_case_study();
        let quiet = Prefix::of(Addr::v4(super::BASE), 25);
        // Near the end of the gap (minute ~80) no classified range should
        // specifically cover the quiet /25 via A anymore (decayed), while
        // the focus /24 stays classified.
        let (_, statuses) = out.timeline.iter().rfind(|(ts, _)| *ts <= 82 * 60).unwrap();
        let quiet_live = statuses.iter().any(|s| {
            s.classified
                && s.range.len() >= 24
                && quiet.contains_prefix(s.range)
                && s.ingress.as_deref() == Some("R1.1")
        });
        assert!(!quiet_live, "quiet /25 must have decayed: {statuses:?}");
    }

    #[test]
    fn detail_series_counters_increase_until_change() {
        let out = run_case_study();
        // Confidence stays within [0,1]; totals positive; per-ingress sorted.
        for d in &out.detail {
            assert!((0.0..=1.0 + 1e-9).contains(&d.confidence));
            assert!(d.total >= 0.0);
            for w in d.per_ingress.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }
}
