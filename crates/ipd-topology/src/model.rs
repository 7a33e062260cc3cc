//! Topology data model.

use std::collections::HashMap;
use std::fmt;

/// Dense country identifier.
pub type CountryId = u16;
/// Dense PoP identifier.
pub type PopId = u16;
/// Dense router identifier (shared with `ipd-netflow`'s exporter id).
pub type RouterId = u32;
/// Dense link identifier.
pub type LinkId = u32;

/// Classification of an external link, following the ISP's link taxonomy
/// used in §5.4 ("33.4% of those are PNI links") and §5.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Private Network Interconnect: direct private connection to one AS.
    Pni,
    /// Public peering (e.g., across an IXP fabric).
    PublicPeering,
    /// Transit: the neighbor sells us reachability.
    Transit,
    /// Customer: we sell the neighbor reachability.
    Customer,
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkClass::Pni => write!(f, "PNI"),
            LinkClass::PublicPeering => write!(f, "peering"),
            LinkClass::Transit => write!(f, "transit"),
            LinkClass::Customer => write!(f, "customer"),
        }
    }
}

/// A country the ISP operates in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Country {
    /// Dense id, 1-based to match the paper's `C1`, `C2`, … labels.
    pub id: CountryId,
    /// Human-readable name.
    pub name: String,
}

/// A Point of Presence: a physical location hosting border routers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pop {
    /// Dense id.
    pub id: PopId,
    /// Country this PoP is located in.
    pub country: CountryId,
    /// Human-readable name.
    pub name: String,
}

/// A border router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Router {
    /// Dense id, 1-based to match `R1`, `R2`, … labels.
    pub id: RouterId,
    /// The PoP hosting this router.
    pub pop: PopId,
}

/// An external interface of a border router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interface {
    /// Owning router.
    pub router: RouterId,
    /// SNMP ifIndex on that router.
    pub ifindex: u16,
}

/// An external link: an interface facing a neighbor AS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// Dense id.
    pub id: LinkId,
    /// Router-side endpoint.
    pub interface: Interface,
    /// The neighboring AS on the far end.
    pub neighbor_as: u32,
    /// Link classification.
    pub class: LinkClass,
    /// Nominal capacity in Gbit/s (used for load-weighted generation).
    pub capacity_gbps: u32,
}

/// A (router, interface) pair — the granularity at which IPD reports ingress
/// points ("IPD identifies the specific router and interface through which a
/// particular segment of the Internet address space enters a network").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IngressPoint {
    /// Border router.
    pub router: RouterId,
    /// Interface on that router.
    pub ifindex: u16,
}

impl IngressPoint {
    /// Construct from parts.
    pub fn new(router: RouterId, ifindex: u16) -> Self {
        IngressPoint { router, ifindex }
    }
}

/// Several interfaces of one router treated as a single logical ingress
/// (paper §3.2: "they are bundled as a single logical ingress (called
/// *bundles*)") — e.g. a LAG towards a CDN.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bundle {
    /// The router all member interfaces belong to.
    pub router: RouterId,
    /// Member ifindexes, sorted and deduplicated.
    pub ifindexes: Vec<u16>,
}

impl Bundle {
    /// A bundle over the given interfaces of `router`. Indexes are sorted and
    /// deduplicated so equal bundles compare equal.
    pub fn new(router: RouterId, mut ifindexes: Vec<u16>) -> Self {
        ifindexes.sort_unstable();
        ifindexes.dedup();
        Bundle { router, ifindexes }
    }

    /// Does this bundle contain the given ingress point?
    pub fn contains(&self, p: IngressPoint) -> bool {
        p.router == self.router && self.ifindexes.binary_search(&p.ifindex).is_ok()
    }
}

/// The assembled ISP topology with index structures for fast lookup.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    pub(crate) countries: Vec<Country>,
    pub(crate) pops: Vec<Pop>,
    pub(crate) routers: Vec<Router>,
    pub(crate) links: Vec<Link>,
    pub(crate) router_index: HashMap<RouterId, usize>,
    pub(crate) pop_index: HashMap<PopId, usize>,
    pub(crate) country_index: HashMap<CountryId, usize>,
    pub(crate) link_by_interface: HashMap<Interface, LinkId>,
    pub(crate) links_by_as: HashMap<u32, Vec<LinkId>>,
}

impl Topology {
    /// All countries.
    pub fn countries(&self) -> &[Country] {
        &self.countries
    }

    /// All PoPs.
    pub fn pops(&self) -> &[Pop] {
        &self.pops
    }

    /// All border routers.
    pub fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// All external links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Look up a router by id.
    pub fn router(&self, id: RouterId) -> Option<&Router> {
        self.router_index.get(&id).map(|&i| &self.routers[i])
    }

    /// Look up a PoP by id.
    pub fn pop(&self, id: PopId) -> Option<&Pop> {
        self.pop_index.get(&id).map(|&i| &self.pops[i])
    }

    /// Look up a country by id.
    pub fn country(&self, id: CountryId) -> Option<&Country> {
        self.country_index.get(&id).map(|&i| &self.countries[i])
    }

    /// Look up a link by id.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id as usize)
    }

    /// The link terminating at the given (router, ifindex), if any.
    pub fn link_at(&self, interface: Interface) -> Option<&Link> {
        self.link_by_interface
            .get(&interface)
            .and_then(|&id| self.link(id))
    }

    /// All links facing a given neighbor AS.
    pub fn links_of_as(&self, asn: u32) -> impl Iterator<Item = &Link> + '_ {
        self.links_by_as
            .get(&asn)
            .into_iter()
            .flatten()
            .filter_map(move |&id| self.link(id))
    }

    /// PoP of a router.
    pub fn pop_of_router(&self, id: RouterId) -> Option<&Pop> {
        self.router(id).and_then(|r| self.pop(r.pop))
    }

    /// Country of a router.
    pub fn country_of_router(&self, id: RouterId) -> Option<&Country> {
        self.pop_of_router(id).and_then(|p| self.country(p.country))
    }

    /// The ingress point of a link id.
    pub fn ingress_of_link(&self, id: LinkId) -> Option<IngressPoint> {
        self.link(id)
            .map(|l| IngressPoint::new(l.interface.router, l.interface.ifindex))
    }

    /// Format an ingress point like the paper's raw output (Table 3):
    /// `C2-R30.1` = country 2, router 30, interface 1. Unknown routers format
    /// as `C?-R<id>.<if>` rather than panicking — the evaluation tooling must
    /// be able to print data referring to since-removed routers.
    pub fn format_ingress(&self, p: IngressPoint) -> String {
        match self.country_of_router(p.router) {
            Some(c) => format!("C{}-R{}.{}", c.id, p.router, p.ifindex),
            None => format!("C?-R{}.{}", p.router, p.ifindex),
        }
    }

    /// Are two ingress points at the same PoP? (Used by the miss taxonomy of
    /// §5.1.2: interface miss vs router miss vs PoP miss.)
    pub fn same_pop(&self, a: IngressPoint, b: IngressPoint) -> bool {
        match (self.pop_of_router(a.router), self.pop_of_router(b.router)) {
            (Some(x), Some(y)) => x.id == y.id,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;

    fn tiny() -> Topology {
        let mut b = TopologyBuilder::new();
        b.add_country(1, "Alpha").unwrap();
        b.add_country(2, "Beta").unwrap();
        b.add_pop(1, 1, "alpha-pop1").unwrap();
        b.add_pop(2, 2, "beta-pop1").unwrap();
        b.add_router(1, 1).unwrap();
        b.add_router(2, 2).unwrap();
        b.add_link(
            Interface {
                router: 1,
                ifindex: 1,
            },
            65001,
            LinkClass::Pni,
            100,
        )
        .unwrap();
        b.add_link(
            Interface {
                router: 1,
                ifindex: 2,
            },
            65001,
            LinkClass::Pni,
            100,
        )
        .unwrap();
        b.add_link(
            Interface {
                router: 2,
                ifindex: 1,
            },
            65002,
            LinkClass::Transit,
            400,
        )
        .unwrap();
        b.build()
    }

    #[test]
    fn lookups() {
        let t = tiny();
        assert_eq!(t.routers().len(), 2);
        assert_eq!(t.links().len(), 3);
        assert_eq!(t.pop_of_router(1).unwrap().id, 1);
        assert_eq!(t.country_of_router(2).unwrap().name, "Beta");
        assert!(t.router(99).is_none());
        let l = t
            .link_at(Interface {
                router: 1,
                ifindex: 2,
            })
            .unwrap();
        assert_eq!(l.neighbor_as, 65001);
        assert!(t
            .link_at(Interface {
                router: 1,
                ifindex: 9
            })
            .is_none());
    }

    #[test]
    fn links_of_as() {
        let t = tiny();
        assert_eq!(t.links_of_as(65001).count(), 2);
        assert_eq!(t.links_of_as(65002).count(), 1);
        assert_eq!(t.links_of_as(7).count(), 0);
    }

    #[test]
    fn ingress_formatting_matches_table3_style() {
        let t = tiny();
        assert_eq!(t.format_ingress(IngressPoint::new(2, 1)), "C2-R2.1");
        assert_eq!(t.format_ingress(IngressPoint::new(42, 7)), "C?-R42.7");
    }

    #[test]
    fn same_pop_taxonomy() {
        let t = tiny();
        assert!(t.same_pop(IngressPoint::new(1, 1), IngressPoint::new(1, 2)));
        assert!(!t.same_pop(IngressPoint::new(1, 1), IngressPoint::new(2, 1)));
        assert!(!t.same_pop(IngressPoint::new(1, 1), IngressPoint::new(99, 1)));
    }

    #[test]
    fn bundles_normalize_and_contain() {
        let b = Bundle::new(5, vec![3, 1, 3, 2]);
        assert_eq!(b.ifindexes, vec![1, 2, 3]);
        assert!(b.contains(IngressPoint::new(5, 2)));
        assert!(!b.contains(IngressPoint::new(5, 4)));
        assert!(!b.contains(IngressPoint::new(6, 2)));
        assert_eq!(b, Bundle::new(5, vec![1, 2, 3]));
    }

    #[test]
    fn link_class_display() {
        assert_eq!(LinkClass::Pni.to_string(), "PNI");
        assert_eq!(LinkClass::Transit.to_string(), "transit");
    }
}
