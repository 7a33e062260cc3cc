//! The verdict decision procedure.
//!
//! [`SpoofDetector::decide`] is a *pure* function of the flow identity, the
//! served map's answer, the BGP expectation oracle, and the flow timestamp
//! — it keeps no per-flow mutable state. That purity makes the verdict
//! stream a function of the published epochs alone: the same epochs give
//! a bit-identical stream, whether they are read in process or over the
//! wire.
//!
//! The windowed evidence model is realized as a *look-back* into the churn
//! record rather than per-source counters: a wrong-but-plausible ingress is
//! excused as a catchment shift exactly when the source's prefix provably
//! moved (flap or withdraw/re-announce) inside the trailing evidence
//! window. A source whose claimed prefix never ingresses at the arrival
//! link has no such excuse at any window width — it is spoofed.

use ipd_lpm::Addr;
use ipd_serve::IngressAnswer;
use ipd_topology::IngressPoint;

use crate::expect::RouteExpect;
use crate::telemetry::SpoofTelemetry;
use crate::verdict::Verdict;

/// The served map's answer for one source, reduced to what the decision
/// procedure needs. In-process callers derive it from `LiveStore::lookup`
/// with [`MapView::of`]; live callers from the wire answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapView {
    /// No classified range covers the source yet.
    Unmapped,
    /// A range covers the source and the observed point belongs to its
    /// ingress (link equality or bundle membership).
    Match,
    /// A range covers the source but the observed point is foreign to it.
    Mismatch,
}

impl MapView {
    /// The view of an in-process lookup answer from a flow that arrived at
    /// `observed`.
    pub fn of(answer: Option<IngressAnswer<'_>>, observed: IngressPoint) -> MapView {
        match answer {
            None => MapView::Unmapped,
            Some(a) if a.ingress.matches(observed) => MapView::Match,
            Some(_) => MapView::Mismatch,
        }
    }
}

/// Detector tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpoofConfig {
    /// Trailing evidence window: how far back a routing move may lie and
    /// still excuse a wrong-but-plausible ingress as a catchment shift.
    pub window_secs: u64,
}

impl Default for SpoofConfig {
    fn default() -> Self {
        // Five minutes: generously past any shift propagation lag the
        // scenarios model, still far below typical inter-flap gaps.
        SpoofConfig { window_secs: 300 }
    }
}

/// The verdict engine: route expectations plus tuning plus metric handles.
#[derive(Debug, Clone)]
pub struct SpoofDetector {
    expect: RouteExpect,
    metrics: SpoofTelemetry,
}

impl SpoofDetector {
    /// Build a detector over a prepared expectation oracle.
    pub fn new(expect: RouteExpect, metrics: SpoofTelemetry) -> Self {
        SpoofDetector { expect, metrics }
    }

    /// The expectation oracle (window included).
    pub fn expect(&self) -> &RouteExpect {
        &self.expect
    }

    /// Decide one flow. `observed` is the arrival ingress point, `map` the
    /// served map's answer for `src`, `ts` the flow timestamp.
    pub fn decide(&self, src: Addr, observed: IngressPoint, ts: u64, map: MapView) -> Verdict {
        // A disabled histogram's timer never reads the clock, so the
        // untelemetered hot path stays free of `Instant::now`.
        let timer = self.metrics.decision_duration.start_timer();
        self.metrics.flows.inc();
        if map == MapView::Unmapped {
            self.metrics.unmapped.inc();
        }
        let verdict = self.decide_inner(src, observed, ts, map);
        match verdict {
            Verdict::Consistent => self.metrics.consistent.inc(),
            Verdict::Spoofed => self.metrics.spoofed.inc(),
            Verdict::CatchmentShift => self.metrics.shift.inc(),
        }
        timer.observe();
        verdict
    }

    fn decide_inner(&self, src: Addr, observed: IngressPoint, ts: u64, map: MapView) -> Verdict {
        // 1. The served map agrees — nothing to explain.
        if map == MapView::Match {
            return Verdict::Consistent;
        }
        // 2. No announced prefix covers the claimed source: a bogon can
        //    only be forged.
        let Some(exp) = self.expect.expectation(src, ts) else {
            return Verdict::Spoofed;
        };
        // 3. The arrival point is exactly where BGP routes the prefix right
        //    now. If the map disagrees it is merely stale — the prefix
        //    re-homed since the last published epoch.
        if observed == exp.current {
            return match map {
                MapView::Unmapped => Verdict::Consistent,
                _ => Verdict::CatchmentShift,
            };
        }
        // 4. The origin AS announces no link behind this point: no routing
        //    state, past or future, puts this source here.
        if !self.expect.plausible(&exp, observed) {
            return Verdict::Spoofed;
        }
        // 5. Wrong but plausible: excused when the prefix demonstrably
        //    moved inside the evidence window (in-flight traffic riding the
        //    old catchment).
        if self.expect.moved_recently(&exp, ts) {
            return Verdict::CatchmentShift;
        }
        // 6. Plausible link, but the prefix has been routed elsewhere the
        //    whole window — the claim does not hold up.
        Verdict::Spoofed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_traffic::{DfzConfig, DfzWorld};

    fn detector() -> (DfzWorld, SpoofDetector) {
        let w = DfzWorld::new(DfzConfig {
            flows_per_minute: 3_000,
            ..DfzConfig::smoke_10k(41)
        });
        let exp = RouteExpect::new(&w, SpoofConfig::default().window_secs);
        (w, SpoofDetector::new(exp, SpoofTelemetry::default()))
    }

    #[test]
    fn map_match_is_always_consistent() {
        let (w, d) = detector();
        let f = w.flows(1).next().expect("flow");
        assert_eq!(
            d.decide(
                f.flow.src,
                IngressPoint::new(0, 0),
                f.flow.ts,
                MapView::Match
            ),
            Verdict::Consistent
        );
    }

    #[test]
    fn bogon_sources_are_spoofed_regardless_of_map() {
        let (w, d) = detector();
        let bogon = Addr::v4(0x6440_0001);
        for map in [MapView::Unmapped, MapView::Mismatch] {
            assert_eq!(
                d.decide(bogon, IngressPoint::new(1, 1), w.config().epoch, map),
                Verdict::Spoofed
            );
        }
    }

    #[test]
    fn current_ingress_shadows_a_cold_or_stale_map() {
        let (w, d) = detector();
        let f = w.flows(1).next().expect("flow");
        let at = w.topology.ingress_of_link(f.link);
        assert_eq!(
            d.decide(f.flow.src, at, f.flow.ts, MapView::Unmapped),
            Verdict::Consistent,
            "cold map, flow at the current ingress"
        );
        assert_eq!(
            d.decide(f.flow.src, at, f.flow.ts, MapView::Mismatch),
            Verdict::CatchmentShift,
            "stale map, flow at the current ingress"
        );
    }

    #[test]
    fn implausible_ingress_is_spoofed() {
        let (w, d) = detector();
        let f = w.flows(1).next().expect("flow");
        let exp = d
            .expect()
            .expectation(f.flow.src, f.flow.ts)
            .expect("resolves");
        let foreign = (0..w.topology.params().links)
            .map(|l| w.topology.ingress_of_link(l))
            .find(|&p| !d.expect().plausible(&exp, p))
            .expect("some non-candidate link exists");
        assert_eq!(
            d.decide(f.flow.src, foreign, f.flow.ts, MapView::Mismatch),
            Verdict::Spoofed
        );
    }

    #[test]
    fn metrics_count_each_verdict_once() {
        let t = ipd_telemetry::Telemetry::new();
        let (w, _) = detector();
        let d = SpoofDetector::new(RouteExpect::new(&w, 300), SpoofTelemetry::register(&t));
        let f = w.flows(1).next().expect("flow");
        d.decide(
            f.flow.src,
            IngressPoint::new(0, 0),
            f.flow.ts,
            MapView::Match,
        );
        d.decide(
            Addr::v4(0x6440_0001),
            IngressPoint::new(1, 1),
            f.flow.ts,
            MapView::Unmapped,
        );
        let snap = t.snapshot();
        assert_eq!(snap.counter("ipd_spoof_flows_total"), Some(2));
        assert_eq!(snap.counter("ipd_spoof_consistent_total"), Some(1));
        assert_eq!(snap.counter("ipd_spoof_spoofed_total"), Some(1));
        assert_eq!(snap.counter("ipd_spoof_unmapped_total"), Some(1));
    }
}
