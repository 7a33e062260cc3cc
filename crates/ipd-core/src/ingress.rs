//! Ingress identity: interning and logical (link vs bundle) ingress points.

use std::fmt;

use ipd_topology::{Bundle, IngressPoint};

use crate::hash::FastMap;

/// Dense interned id for an [`IngressPoint`]. The engine counts per-`u32`
/// instead of per-struct, which keeps per-range counter maps small and fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IngressId(pub(crate) u32);

impl IngressId {
    /// Raw index value.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Bidirectional intern table for ingress points.
#[derive(Debug, Default, Clone)]
pub struct IngressRegistry {
    by_point: FastMap<IngressPoint, IngressId>,
    points: Vec<IngressPoint>,
}

impl IngressRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an ingress point (idempotent).
    pub fn intern(&mut self, p: IngressPoint) -> IngressId {
        if let Some(&id) = self.by_point.get(&p) {
            return id;
        }
        let id = IngressId(self.points.len() as u32);
        self.by_point.insert(p, id);
        self.points.push(p);
        id
    }

    /// Resolve an id back to its ingress point.
    ///
    /// # Panics
    /// Panics on an id not produced by this registry — that is a logic error,
    /// not a data error.
    pub fn resolve(&self, id: IngressId) -> IngressPoint {
        self.points[id.0 as usize]
    }

    /// Get the id of a point if it was interned before.
    pub fn get(&self, p: IngressPoint) -> Option<IngressId> {
        self.by_point.get(&p).copied()
    }

    /// All interned points in id order: index `i` is the point of id `i`.
    pub fn points(&self) -> &[IngressPoint] {
        &self.points
    }

    /// Rebuild a registry from a point list in id order (the shape
    /// [`IngressRegistry::points`] returns). Fails on duplicates — an intern
    /// table maps each point to exactly one id.
    pub(crate) fn from_points(
        points: Vec<IngressPoint>,
    ) -> Result<Self, crate::persist::RestoreError> {
        let mut by_point = FastMap::with_capacity_and_hasher(points.len(), Default::default());
        for (i, &p) in points.iter().enumerate() {
            if by_point.insert(p, IngressId(i as u32)).is_some() {
                return Err(crate::persist::RestoreError::DuplicateIngress(p));
            }
        }
        Ok(IngressRegistry { by_point, points })
    }

    /// Number of distinct ingress points seen.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// A classified ingress: either a single link (router + interface) or a
/// *bundle* — several interfaces of one router acting as one logical link
/// (paper §3.2: "where multiple interfaces of the same router are logically
/// mapped as one link").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogicalIngress {
    /// One (router, interface).
    Link(IngressPoint),
    /// Several interfaces on one router.
    Bundle(Bundle),
}

impl LogicalIngress {
    /// The router of this ingress.
    pub fn router(&self) -> u32 {
        match self {
            LogicalIngress::Link(p) => p.router,
            LogicalIngress::Bundle(b) => b.router,
        }
    }

    /// Does a concrete ingress point belong to this logical ingress?
    pub fn matches(&self, p: IngressPoint) -> bool {
        match self {
            LogicalIngress::Link(l) => *l == p,
            LogicalIngress::Bundle(b) => b.contains(p),
        }
    }

    /// Convenience: is this exactly the given single link?
    pub fn is_link(&self, p: IngressPoint) -> bool {
        matches!(self, LogicalIngress::Link(l) if *l == p)
    }

    /// All member interfaces (one for a link).
    pub fn members(&self) -> Vec<IngressPoint> {
        match self {
            LogicalIngress::Link(p) => vec![*p],
            LogicalIngress::Bundle(b) => b
                .ifindexes
                .iter()
                .map(|&i| IngressPoint::new(b.router, i))
                .collect(),
        }
    }
}

impl fmt::Display for LogicalIngress {
    /// Topology-free rendering: `R30.1` for a link, `R30.[1+2]` for a
    /// bundle. Use `Topology::format_ingress` for the paper's `C2-R30.1`
    /// form (needs country data this crate does not have).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalIngress::Link(p) => write!(f, "R{}.{}", p.router, p.ifindex),
            LogicalIngress::Bundle(b) => {
                let ifs: Vec<String> = b.ifindexes.iter().map(|i| i.to_string()).collect();
                write!(f, "R{}.[{}]", b.router, ifs.join("+"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut reg = IngressRegistry::new();
        let a = reg.intern(IngressPoint::new(1, 1));
        let b = reg.intern(IngressPoint::new(1, 2));
        let a2 = reg.intern(IngressPoint::new(1, 1));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.resolve(a), IngressPoint::new(1, 1));
        assert_eq!(reg.resolve(b), IngressPoint::new(1, 2));
        assert_eq!(reg.get(IngressPoint::new(1, 2)), Some(b));
        assert_eq!(reg.get(IngressPoint::new(9, 9)), None);
    }

    #[test]
    fn logical_ingress_matching() {
        let link = LogicalIngress::Link(IngressPoint::new(3, 7));
        assert!(link.matches(IngressPoint::new(3, 7)));
        assert!(!link.matches(IngressPoint::new(3, 8)));
        assert!(link.is_link(IngressPoint::new(3, 7)));
        assert_eq!(link.router(), 3);

        let bundle = LogicalIngress::Bundle(Bundle::new(3, vec![7, 8]));
        assert!(bundle.matches(IngressPoint::new(3, 7)));
        assert!(bundle.matches(IngressPoint::new(3, 8)));
        assert!(!bundle.matches(IngressPoint::new(3, 9)));
        assert!(!bundle.matches(IngressPoint::new(4, 7)));
        assert!(!bundle.is_link(IngressPoint::new(3, 7)));
        assert_eq!(bundle.members().len(), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            LogicalIngress::Link(IngressPoint::new(30, 1)).to_string(),
            "R30.1"
        );
        assert_eq!(
            LogicalIngress::Bundle(Bundle::new(30, vec![2, 1])).to_string(),
            "R30.[1+2]"
        );
    }
}
