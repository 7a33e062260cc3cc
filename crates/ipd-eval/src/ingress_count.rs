//! Ingress points per prefix (Fig 3) and primary-ingress traffic share
//! (Fig 4), computed from flow data the way the paper does (§2): "the number
//! of simultaneous ingress points per /24 prefix, derived from the ISP's
//! flow traffic data".

use std::collections::{BTreeMap, HashMap};

use ipd::IpdEngine;
use ipd_lpm::LpmTrie;
use ipd_topology::RouterId;
use ipd_traffic::{MinuteBatch, World};

use crate::harness::RunVisitor;

/// Per-(/24, window) observation: traffic per ingress *router* (Fig 3
/// counts next-hop routers, so we aggregate interfaces).
#[derive(Debug, Default, Clone)]
struct PrefixObs {
    per_router: HashMap<RouterId, u64>,
    as_idx: usize,
}

/// Collects per-/24 ingress observations over a run.
///
/// Observations are windowed (default: one hour): Fig 3 counts
/// *simultaneous* ingress points, so a prefix that remaps from router A to
/// router B across the day must count as single-ingress in each window, not
/// as a two-ingress prefix over the whole run.
#[derive(Debug, Default)]
pub struct IngressCountVisitor {
    obs: HashMap<(u64, u128), PrefixObs>,
    /// Observation window in seconds.
    pub window_secs: u64,
    /// Ignore routers carrying less than this share of a prefix's traffic
    /// when counting "simultaneous ingress points" (filters sampling noise,
    /// which would otherwise count every spoofed packet as an ingress).
    pub min_share: f64,
}

impl IngressCountVisitor {
    /// Default observer (1-hour windows, 1 % minimum share).
    pub fn new() -> Self {
        IngressCountVisitor {
            obs: HashMap::new(),
            window_secs: 3600,
            min_share: 0.01,
        }
    }

    /// CDF points `(k, P(X <= k))` of simultaneous ingress-router counts per
    /// (/24, window), optionally restricted to ASes with rank < `max_rank`.
    /// Observations with fewer than 10 flows are skipped — one or two
    /// samples cannot witness a second ingress.
    pub fn ingress_count_cdf(&self, max_rank: Option<usize>) -> Vec<(usize, f64)> {
        let mut hist: BTreeMap<usize, usize> = BTreeMap::new();
        for o in self.obs.values() {
            if let Some(mr) = max_rank {
                if o.as_idx >= mr {
                    continue;
                }
            }
            let total: u64 = o.per_router.values().sum();
            if total < 10 {
                continue;
            }
            let significant = o
                .per_router
                .values()
                .filter(|&&c| c as f64 / total as f64 >= self.min_share)
                .count()
                .max(1);
            *hist.entry(significant).or_insert(0) += 1;
        }
        let total: usize = hist.values().sum();
        let mut acc = 0;
        hist.into_iter()
            .map(|(k, n)| {
                acc += n;
                (k, acc as f64 / total.max(1) as f64)
            })
            .collect()
    }

    /// Share of /24s with a single significant ingress point.
    pub fn single_ingress_share(&self, max_rank: Option<usize>) -> f64 {
        self.ingress_count_cdf(max_rank)
            .first()
            .filter(|(k, _)| *k == 1)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }

    /// Fig 4: for /24s with more than one significant ingress, the traffic
    /// share of the first-ranked (primary) ingress router — returned as raw
    /// samples for CDF plotting. Restricted to `max_rank` ASes when given.
    pub fn primary_share_samples(&self, max_rank: Option<usize>) -> Vec<f64> {
        let mut out = Vec::new();
        for o in self.obs.values() {
            if let Some(mr) = max_rank {
                if o.as_idx >= mr {
                    continue;
                }
            }
            let total: u64 = o.per_router.values().sum();
            if total < 10 {
                continue;
            }
            let significant = o
                .per_router
                .values()
                .filter(|&&c| c as f64 / total as f64 >= self.min_share)
                .count();
            if significant < 2 {
                continue;
            }
            let top = o.per_router.values().max().copied().unwrap_or(0);
            out.push(top as f64 / total as f64);
        }
        out
    }

    /// Number of (/24, window) observations.
    pub fn prefix_count(&self) -> usize {
        self.obs.len()
    }
}

impl RunVisitor for IngressCountVisitor {
    fn on_minute(
        &mut self,
        batch: &MinuteBatch,
        _world: &World,
        _lpm: &LpmTrie<ipd::LogicalIngress>,
        _engine: &IpdEngine,
    ) {
        for lf in &batch.flows {
            // Fig 3/Fig 4 are per-/24 (IPv4) figures.
            if lf.flow.src.af() != ipd_lpm::Af::V4 {
                continue;
            }
            let window = lf.flow.ts / self.window_secs.max(1);
            let key = (window, lf.flow.src.masked(24).bits());
            let o = self.obs.entry(key).or_default();
            o.as_idx = lf.as_idx;
            *o.per_router.entry(lf.flow.router).or_insert(0) += 1;
        }
    }
}

/// Fig 3's dotted (BGP) lines: CDF of next-hop router counts per prefix.
pub fn bgp_next_hop_cdf(world: &World, origin_filter: Option<&[u32]>) -> Vec<(usize, f64)> {
    let hist = ipd_bgp::stats::next_hop_count_histogram(&world.rib, origin_filter);
    ipd_bgp::stats::histogram_cdf(&hist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run, EvalConfig};

    // The windowed counter skips (/24, hour) observations with < 10 flows,
    // so the tests need a dense run: one shared 30-minute × 20k-flows/min
    // stream (~30 flows per active /24 per window).
    fn observed(_minutes: u64) -> (IngressCountVisitor, crate::harness::RunOutput) {
        let cfg = EvalConfig::quick(30, 20_000);
        let mut v = IngressCountVisitor::new();
        v.window_secs = 1800; // the run spans half an hour
        let out = run(&cfg, &mut v);
        (v, out)
    }

    #[test]
    fn most_prefixes_have_single_ingress() {
        let (v, _) = observed(10);
        assert!(v.prefix_count() > 100);
        let single = v.single_ingress_share(None);
        // §2: "nearly 80% of the traffic enters through only one ingress
        // point". Accept the shape: clearly most, not all. (Short runs see
        // few flows per /24, under-observing the mixed ones, so the share
        // runs high here; the 25-hour experiment lands lower.)
        assert!(
            (0.6..0.995).contains(&single),
            "single-ingress share {single}"
        );
    }

    #[test]
    fn multi_ingress_prefixes_have_moderate_primary_share() {
        let (v, _) = observed(10);
        let samples = v.primary_share_samples(None);
        assert!(!samples.is_empty(), "expected some multi-ingress /24s");
        for &s in &samples {
            assert!((0.0..=1.0).contains(&s));
            assert!(s >= 0.3, "primary is first-ranked, share {s}");
        }
        let mean = crate::stats::mean(&samples);
        assert!(
            mean < 0.98,
            "if primaries all ~1.0 the multi model is broken"
        );
    }

    #[test]
    fn bgp_curve_shows_more_paths_than_traffic() {
        let (v, out) = observed(6);
        let bgp = bgp_next_hop_cdf(out.sim.world(), None);
        let traffic = v.ingress_count_cdf(None);
        // P(count == 1): BGP around 20 %, traffic much higher (Fig 3's gap).
        let bgp_single = bgp
            .first()
            .map(|&(k, p)| if k == 1 { p } else { 0.0 })
            .unwrap_or(0.0);
        let traffic_single = traffic
            .first()
            .map(|&(k, p)| if k == 1 { p } else { 0.0 })
            .unwrap();
        assert!(
            traffic_single > bgp_single + 0.2,
            "traffic single {traffic_single} vs bgp single {bgp_single}"
        );
    }

    #[test]
    fn cdf_is_monotone() {
        let (v, _) = observed(5);
        for cdf in [v.ingress_count_cdf(None), v.ingress_count_cdf(Some(5))] {
            for w in cdf.windows(2) {
                assert!(w[1].1 >= w[0].1);
                assert!(w[1].0 > w[0].0);
            }
            if let Some(last) = cdf.last() {
                assert!((last.1 - 1.0).abs() < 1e-9);
            }
        }
    }
}
