//! Routes and per-prefix RIB entries.

use ipd_topology::{IngressPoint, LinkId};

/// One BGP route for a prefix, as learned over one external link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The border router and interface the route was learned on — i.e. where
    /// traffic *would egress* if this route is best, and a *candidate*
    /// ingress point for return traffic.
    pub next_hop: IngressPoint,
    /// The external link carrying the session.
    pub link: LinkId,
    /// AS path; the last element is the origin AS.
    pub as_path: Vec<u32>,
    /// Local preference (higher wins).
    pub local_pref: u32,
}

impl Route {
    /// The origin AS (last AS-path element), or `None` for an empty path.
    pub fn origin_as(&self) -> Option<u32> {
        self.as_path.last().copied()
    }

    /// The neighbor AS (first AS-path element), or `None` for an empty path.
    pub fn neighbor_as(&self) -> Option<u32> {
        self.as_path.first().copied()
    }
}

/// All routes for one prefix, kept sorted best-first.
///
/// Best-path order (a standard subset of the BGP decision process):
/// 1. highest `local_pref`
/// 2. shortest AS path
/// 3. lowest (router, ifindex) — the "lowest router id" tiebreak stands in
///    for lowest peer address.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RibEntry {
    routes: Vec<Route>,
}

impl RibEntry {
    /// Entry with a single route.
    pub fn single(route: Route) -> Self {
        RibEntry {
            routes: vec![route],
        }
    }

    /// The best route, if any.
    pub fn best(&self) -> Option<&Route> {
        self.routes.first()
    }

    /// All routes, best first.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if no routes remain.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Number of *distinct next-hop routers* — the paper's Fig 3 metric for
    /// "possible ingress points" of a prefix.
    pub fn next_hop_router_count(&self) -> usize {
        let mut routers: Vec<_> = self.routes.iter().map(|r| r.next_hop.router).collect();
        routers.sort_unstable();
        routers.dedup();
        routers.len()
    }

    /// Insert or replace (same `next_hop` replaces), keeping best-first order.
    pub fn upsert(&mut self, route: Route) {
        self.routes.retain(|r| r.next_hop != route.next_hop);
        self.routes.push(route);
        self.routes.sort_by(|a, b| {
            b.local_pref
                .cmp(&a.local_pref)
                .then(a.as_path.len().cmp(&b.as_path.len()))
                .then(a.next_hop.cmp(&b.next_hop))
        });
    }

    /// Remove the route via `next_hop`; returns whether one was removed.
    pub fn withdraw(&mut self, next_hop: IngressPoint) -> bool {
        let before = self.routes.len();
        self.routes.retain(|r| r.next_hop != next_hop);
        self.routes.len() != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(router: u32, ifx: u16, path: &[u32], pref: u32) -> Route {
        Route {
            next_hop: IngressPoint::new(router, ifx),
            link: 0,
            as_path: path.to_vec(),
            local_pref: pref,
        }
    }

    #[test]
    fn origin_and_neighbor() {
        let r = route(1, 1, &[100, 200, 300], 100);
        assert_eq!(r.neighbor_as(), Some(100));
        assert_eq!(r.origin_as(), Some(300));
        assert_eq!(route(1, 1, &[], 100).origin_as(), None);
    }

    #[test]
    fn best_path_prefers_local_pref() {
        let mut e = RibEntry::default();
        e.upsert(route(1, 1, &[100], 100));
        e.upsert(route(2, 1, &[100, 200], 200));
        assert_eq!(e.best().unwrap().next_hop.router, 2);
    }

    #[test]
    fn best_path_prefers_shorter_as_path_at_equal_pref() {
        let mut e = RibEntry::default();
        e.upsert(route(1, 1, &[100, 200, 300], 100));
        e.upsert(route(2, 1, &[100, 300], 100));
        assert_eq!(e.best().unwrap().next_hop.router, 2);
    }

    #[test]
    fn best_path_tiebreak_lowest_router() {
        let mut e = RibEntry::default();
        e.upsert(route(9, 1, &[100], 100));
        e.upsert(route(3, 1, &[100], 100));
        e.upsert(route(3, 2, &[100], 100));
        assert_eq!(e.best().unwrap().next_hop, IngressPoint::new(3, 1));
    }

    #[test]
    fn upsert_replaces_same_next_hop() {
        let mut e = RibEntry::default();
        e.upsert(route(1, 1, &[100, 200], 100));
        e.upsert(route(1, 1, &[100], 100));
        assert_eq!(e.len(), 1);
        assert_eq!(e.best().unwrap().as_path, vec![100]);
    }

    #[test]
    fn withdraw_removes() {
        let mut e = RibEntry::default();
        e.upsert(route(1, 1, &[100], 100));
        e.upsert(route(2, 1, &[100], 100));
        assert!(e.withdraw(IngressPoint::new(1, 1)));
        assert!(!e.withdraw(IngressPoint::new(1, 1)));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn next_hop_router_count_dedups_interfaces() {
        let mut e = RibEntry::default();
        e.upsert(route(1, 1, &[100], 100));
        e.upsert(route(1, 2, &[100, 200], 100));
        e.upsert(route(2, 1, &[100, 200, 300], 100));
        assert_eq!(e.len(), 3);
        assert_eq!(e.next_hop_router_count(), 2);
    }
}
