//! BGP route expectations for the detector: which ingress links a source
//! prefix may legitimately use, which one is current, and whether the
//! prefix's routing moved inside the evidence window.
//!
//! Resolution is honest: the detector does not peek at the flow's label or
//! rank. It resolves the claimed source address through its own
//! leaf-pushed [`FlatLpm`] over the generated RIB, whose value carries the
//! prefix's rank and its origin AS rank, then derives candidates and churn
//! evidence from the closed-form substrate oracles — one table walk and
//! `O(1)` work per flow after the one-time table build.

use ipd_bgp::dfz::{current_link_among, AsLinks, ChurnModel};
use ipd_lpm::{Addr, Af, FlatLpm};
use ipd_topology::{IngressPoint, LinkId, ScaleTopology};
use ipd_traffic::DfzWorld;

/// What the RIB expects for one source prefix at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Expectation<'a> {
    /// Family of the resolved prefix.
    pub af: Af,
    /// Popularity rank of the resolved prefix.
    pub rank: u64,
    /// Every link the origin AS announces — the plausibility set.
    pub candidates: &'a [LinkId],
    /// The ingress point of the current best link.
    pub current: IngressPoint,
}

/// The detector's route-expectation oracle over a DFZ world.
#[derive(Debug, Clone)]
pub struct RouteExpect {
    churn: ChurnModel,
    as_links: AsLinks,
    topology: ScaleTopology,
    /// `prefix → (rank, origin AS rank)` reverse table over the whole plan;
    /// the family is the matched prefix's.
    lpm: FlatLpm<(u64, u32)>,
    window_secs: u64,
}

impl RouteExpect {
    /// Build the oracle: one pass over the plan to construct the reverse
    /// LPM table (`O(prefixes)`), everything else borrowed closed-form.
    pub fn new(world: &DfzWorld, window_secs: u64) -> Self {
        let plan = &world.plan;
        let lpm = [Af::V4, Af::V6]
            .into_iter()
            .flat_map(|af| {
                (0..plan.len(af))
                    .map(move |rank| (plan.prefix(af, rank), (rank, plan.as_rank_of(af, rank))))
            })
            .collect();
        RouteExpect {
            churn: world.churn,
            as_links: world.as_links.clone(),
            topology: world.topology.clone(),
            lpm,
            window_secs,
        }
    }

    /// The evidence window in seconds.
    pub fn window_secs(&self) -> u64 {
        self.window_secs
    }

    /// Prefixes in the reverse table.
    pub fn prefixes(&self) -> usize {
        self.lpm.len()
    }

    /// Resolve a source address to its RIB expectation at time `t`.
    /// `None` means the address is covered by no announced prefix — a
    /// bogon source.
    pub fn expectation(&self, src: Addr, t: u64) -> Option<Expectation<'_>> {
        let (prefix, &(rank, as_rank)) = self.lpm.lookup(src)?;
        let af = prefix.af();
        let candidates = self.as_links.links_of(as_rank);
        let current =
            self.topology
                .ingress_of_link(current_link_among(&self.churn, candidates, af, rank, t));
        Some(Expectation {
            af,
            rank,
            candidates,
            current,
        })
    }

    /// Is `p` the ingress point of any candidate link?
    pub fn plausible(&self, exp: &Expectation<'_>, p: IngressPoint) -> bool {
        exp.candidates
            .iter()
            .any(|&l| self.topology.ingress_of_link(l) == p)
    }

    /// Did the prefix's routing move inside `(t - window, t]`? True when a
    /// next-hop flap fired or the prefix was withdrawn/re-announced in the
    /// window — the churn corroboration that turns a wrong-but-plausible
    /// ingress into a catchment-shift candidate.
    pub fn moved_recently(&self, exp: &Expectation<'_>, t: u64) -> bool {
        let (af, rank) = (exp.af, exp.rank);
        let t0 = (t + 1).saturating_sub(self.window_secs);
        self.churn.flap_count(af, rank, t + 1) > self.churn.flap_count(af, rank, t0)
            || self
                .churn
                .updown_transitions_in(af, rank, t0, t + 1)
                .next()
                .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_traffic::DfzConfig;

    fn world() -> DfzWorld {
        DfzWorld::new(DfzConfig {
            flows_per_minute: 3_000,
            ..DfzConfig::smoke_10k(23)
        })
    }

    #[test]
    fn resolves_every_generated_source_to_its_prefix() {
        let w = world();
        let exp = RouteExpect::new(&w, 300);
        assert_eq!(
            exp.prefixes() as u64,
            w.plan.len(Af::V4) + w.plan.len(Af::V6)
        );
        for f in w.flows(1).take(2_000) {
            let e = exp
                .expectation(f.flow.src, f.flow.ts)
                .expect("generated source resolves");
            assert_eq!((e.af, e.rank), (f.af, f.rank));
            // The ground-truth link is always plausible and current.
            assert!(e.candidates.contains(&f.link));
            assert_eq!(e.current, w.topology.ingress_of_link(f.link));
        }
    }

    /// Every plan prefix, at both ends, resolves to the candidates and
    /// current ingress the closed-form oracles give for its rank: at the
    /// epoch, and at a flapper's flap instant, one second before it and one
    /// second after it (flaps count over `[epoch, t)`, so the move shows
    /// there). This pins the AS rank stored in the table and the one
    /// home-slot rule.
    #[test]
    fn every_plan_prefix_matches_the_closed_form_oracle() {
        let w = world();
        let exp = RouteExpect::new(&w, 300);
        let t0 = w.config().epoch;
        let mut flaps = 0;
        for af in [Af::V4, Af::V6] {
            for rank in 0..w.plan.len(af) {
                let mut instants = vec![t0];
                if w.churn.is_flapper(af, rank) {
                    if let Some(flap) = w.churn.flap_times_in(af, rank, t0, t0 + 7_200).next() {
                        instants.extend([flap - 1, flap, flap + 1]);
                        flaps += 1;
                    }
                }
                let prefix = w.plan.prefix(af, rank);
                for src in [prefix.first_addr(), prefix.last_addr()] {
                    for &t in &instants {
                        let e = exp.expectation(src, t).expect("plan prefix resolves");
                        assert_eq!(e.af, af);
                        assert!(w.plan.prefix(af, e.rank).contains(src));
                        assert_eq!(
                            e.candidates,
                            w.as_links.links_of(w.plan.as_rank_of(af, e.rank)),
                            "candidates of {af} rank {}",
                            e.rank
                        );
                        assert_eq!(
                            e.current,
                            w.topology.ingress_of_link(w.current_link(af, e.rank, t)),
                            "current ingress of {af} rank {} at {t}",
                            e.rank
                        );
                    }
                }
            }
        }
        assert!(flaps > 0, "no flappers with events in 2h");
    }

    #[test]
    fn bogon_sources_resolve_to_nothing() {
        let w = world();
        let exp = RouteExpect::new(&w, 300);
        // The flow generator's CGNAT destination pool is never announced.
        assert!(exp
            .expectation(Addr::v4(0x6440_0001), w.config().epoch)
            .is_none());
    }

    #[test]
    fn moved_recently_tracks_flap_windows() {
        let w = world();
        let exp = RouteExpect::new(&w, 300);
        let t0 = w.config().epoch;
        let mut checked = 0;
        for rank in 0..w.plan.len(Af::V4) {
            if !w.churn.is_flapper(Af::V4, rank) {
                continue;
            }
            let Some(flap) = w.churn.flap_times_in(Af::V4, rank, t0, t0 + 7_200).next() else {
                continue;
            };
            let src = w.plan.prefix(Af::V4, rank).addr();
            let e = exp.expectation(src, flap).expect("resolves");
            assert!(exp.moved_recently(&e, flap), "flap at its own instant");
            assert!(
                exp.moved_recently(&e, flap + 299),
                "still inside the window"
            );
            checked += 1;
            if checked >= 20 {
                break;
            }
        }
        assert!(checked > 0, "no flappers with events in 2h");
    }
}
