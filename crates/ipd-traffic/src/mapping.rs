//! Ground-truth ingress mapping: who *really* enters where.
//!
//! The mapping is hierarchical, mirroring how CDNs actually assign users to
//! data centers: contiguous *regions* (e.g. a /16) share a *home* ingress
//! link, with granule-level *exceptions* (e.g. a /28 mapped elsewhere). This
//! produces the spatial coherence that lets IPD aggregate ranges of many
//! sizes (Fig 9) while still exercising fine-grained dynamics.

use ipd_lpm::{Addr, LpmTrie, Prefix};
use ipd_topology::LinkId;
use rand::Rng;

/// The ingress decision for a block of address space: a primary link plus
/// optional alternates with fixed traffic shares (Fig 4's multi-ingress
/// prefixes).
#[derive(Debug, Clone, PartialEq)]
pub struct IngressChoice {
    /// The dominant ingress link.
    pub primary: LinkId,
    /// Alternate links and the share of traffic each carries.
    pub alternates: Vec<(LinkId, f64)>,
}

impl IngressChoice {
    /// A single-ingress choice (the ~80 % case of Fig 3).
    pub fn single(primary: LinkId) -> Self {
        IngressChoice {
            primary,
            alternates: Vec::new(),
        }
    }

    /// A multi-ingress choice. Alternate shares must sum below 1.
    pub fn with_alternates(primary: LinkId, alternates: Vec<(LinkId, f64)>) -> Self {
        debug_assert!(alternates.iter().map(|a| a.1).sum::<f64>() < 1.0);
        IngressChoice {
            primary,
            alternates,
        }
    }

    /// Share of traffic on the primary link.
    pub fn primary_share(&self) -> f64 {
        1.0 - self.alternates.iter().map(|a| a.1).sum::<f64>()
    }

    /// Number of distinct ingress links.
    pub fn ingress_count(&self) -> usize {
        1 + self.alternates.len()
    }

    /// Sample a link according to the shares.
    pub fn pick<R: Rng + ?Sized>(&self, rng: &mut R) -> LinkId {
        if self.alternates.is_empty() {
            return self.primary;
        }
        let mut x: f64 = rng.random();
        for &(link, share) in &self.alternates {
            if x < share {
                return link;
            }
            x -= share;
        }
        self.primary
    }
}

/// The evolving ground-truth mapping for the whole world.
#[derive(Debug, Default)]
pub struct MappingState {
    regions: LpmTrie<IngressChoice>,
    region_keys: Vec<Prefix>,
    exceptions: LpmTrie<IngressChoice>,
}

impl MappingState {
    /// Empty mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or replace) a region's home choice.
    pub fn set_region(&mut self, region: Prefix, choice: IngressChoice) {
        if self.regions.insert(region, choice).is_none() {
            self.region_keys.push(region);
        }
    }

    /// Install (or replace) a granule-level exception, shadowing its region.
    pub fn set_exception(&mut self, granule: Prefix, choice: IngressChoice) {
        self.exceptions.insert(granule, choice);
    }

    /// Remove an exception; the region mapping shows through again.
    pub fn clear_exception(&mut self, granule: Prefix) -> bool {
        self.exceptions.remove(granule).is_some()
    }

    /// The effective choice for an address: most specific exception first,
    /// then the region, else `None` (unmapped space carries no traffic).
    pub fn choice(&self, addr: Addr) -> Option<&IngressChoice> {
        if let Some((_, c)) = self.exceptions.lookup(addr) {
            return Some(c);
        }
        self.regions.lookup(addr).map(|(_, c)| c)
    }

    /// The effective *primary* ingress link of an address.
    pub fn primary(&self, addr: Addr) -> Option<LinkId> {
        self.choice(addr).map(|c| c.primary)
    }

    /// All region prefixes, in insertion order (stable across runs).
    pub fn region_keys(&self) -> &[Prefix] {
        &self.region_keys
    }

    /// Region count.
    pub fn region_count(&self) -> usize {
        self.region_keys.len()
    }

    /// Exception count.
    pub fn exception_count(&self) -> usize {
        self.exceptions.len()
    }

    /// The choice currently installed for a region prefix.
    pub fn region_choice(&self, region: Prefix) -> Option<&IngressChoice> {
        self.regions.exact(region)
    }

    /// Remove every exception inside `region` (night-time consolidation).
    /// Returns how many were removed.
    pub fn clear_exceptions_within(&mut self, region: Prefix) -> usize {
        let keys: Vec<Prefix> = self
            .exceptions
            .iter_within(region)
            .map(|(p, _)| p)
            .collect();
        for k in &keys {
            self.exceptions.remove(*k);
        }
        keys.len()
    }

    /// Snapshot of the *effective* mapping as `(prefix, choice)` pairs:
    /// every region and every exception (exceptions being more specific,
    /// an LPM over the snapshot reproduces [`MappingState::choice`]).
    pub fn snapshot(&self) -> Vec<(Prefix, IngressChoice)> {
        let mut out: Vec<(Prefix, IngressChoice)> =
            self.regions.iter().map(|(p, c)| (p, c.clone())).collect();
        out.extend(self.exceptions.iter().map(|(p, c)| (p, c.clone())));
        out.sort_by_key(|(p, _)| *p);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Addr {
        s.parse::<std::net::IpAddr>().unwrap().into()
    }

    #[test]
    fn choice_shares() {
        let c = IngressChoice::with_alternates(1, vec![(2, 0.2), (3, 0.1)]);
        assert!((c.primary_share() - 0.7).abs() < 1e-9);
        assert_eq!(c.ingress_count(), 3);
        assert_eq!(IngressChoice::single(9).primary_share(), 1.0);
    }

    #[test]
    fn pick_follows_shares() {
        let c = IngressChoice::with_alternates(1, vec![(2, 0.3)]);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let hits2 = (0..n).filter(|_| c.pick(&mut rng) == 2).count();
        let share = hits2 as f64 / n as f64;
        assert!((share - 0.3).abs() < 0.02, "alternate share {share}");
        // Single choice always picks primary.
        let s = IngressChoice::single(7);
        assert!((0..100).all(|_| s.pick(&mut rng) == 7));
    }

    #[test]
    fn exceptions_shadow_regions() {
        let mut m = MappingState::new();
        m.set_region(p("10.1.0.0/16"), IngressChoice::single(1));
        m.set_exception(p("10.1.2.0/28"), IngressChoice::single(2));
        assert_eq!(m.primary(a("10.1.9.9")), Some(1));
        assert_eq!(m.primary(a("10.1.2.5")), Some(2));
        assert_eq!(
            m.primary(a("10.1.2.20")),
            Some(1),
            "outside the /28 exception"
        );
        assert_eq!(m.primary(a("11.0.0.1")), None, "unmapped space");
        assert!(m.clear_exception(p("10.1.2.0/28")));
        assert_eq!(m.primary(a("10.1.2.5")), Some(1));
        assert!(!m.clear_exception(p("10.1.2.0/28")));
    }

    #[test]
    fn region_replacement_keeps_key_list_stable() {
        let mut m = MappingState::new();
        m.set_region(p("10.1.0.0/16"), IngressChoice::single(1));
        m.set_region(p("10.2.0.0/16"), IngressChoice::single(2));
        m.set_region(p("10.1.0.0/16"), IngressChoice::single(9)); // replace
        assert_eq!(m.region_count(), 2);
        assert_eq!(m.region_keys(), &[p("10.1.0.0/16"), p("10.2.0.0/16")]);
        assert_eq!(m.region_choice(p("10.1.0.0/16")).unwrap().primary, 9);
    }

    #[test]
    fn snapshot_reproduces_effective_mapping() {
        let mut m = MappingState::new();
        m.set_region(p("10.1.0.0/16"), IngressChoice::single(1));
        m.set_exception(p("10.1.2.0/24"), IngressChoice::single(2));
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        let lpm: LpmTrie<IngressChoice> = snap.into_iter().collect();
        assert_eq!(lpm.lookup(a("10.1.2.3")).unwrap().1.primary, 2);
        assert_eq!(lpm.lookup(a("10.1.3.3")).unwrap().1.primary, 1);
    }
}
