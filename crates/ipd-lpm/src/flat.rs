//! A flattened, read-only longest-prefix-match table.
//!
//! [`LpmTrie`] is the mutable build-side structure; [`FlatLpm`] is its
//! immutable read-side twin: every node lives in one contiguous `Vec`
//! (`u32` child indices instead of boxed pointers), and lookups on large
//! tables start from a level-compressed 16-bit stride table that skips the
//! top half of the walk in a single indexed load. The result is
//! cache-friendly, trivially shareable across threads (`&FlatLpm` is all a
//! reader needs), and bit-identical to [`LpmTrie::lookup`] for every
//! address — the property `tests/prop.rs` and the `lpm` fuzz target pin.
//! The spoof detector's route expectation (`ipd-spoof`) is built on it.

use crate::addr::{Addr, Af};
use crate::prefix::Prefix;
use crate::trie::LpmTrie;

/// Sentinel for "no node / no value".
const NONE: u32 = u32::MAX;

/// Number of leading address bits resolved by the stride tables.
const STRIDE_BITS: u8 = 16;

/// Entry count at which building a family's stride table pays for itself.
/// Below this the table (2 × 65 536 × 8 B) costs more to fill than the
/// plain walk it saves; lookups are identical either way.
const STRIDE_MIN_ENTRIES: usize = 2_048;

#[derive(Debug, Clone, Copy)]
struct FlatNode {
    /// Left (bit 0) and right (bit 1) child node indices, or [`NONE`].
    child: [u32; 2],
    /// Index into `entries`, or [`NONE`] for a pass-through node.
    value: u32,
}

impl FlatNode {
    const EMPTY: FlatNode = FlatNode {
        child: [NONE, NONE],
        value: NONE,
    };
}

/// One precomputed top-`STRIDE_BITS` path: the node the walk reaches at
/// depth [`STRIDE_BITS`] (or [`NONE`] if the path leaves the trie earlier)
/// and the best value index seen on the way down, the node at depth
/// [`STRIDE_BITS`] included.
#[derive(Debug, Clone, Copy)]
struct StrideSlot {
    node: u32,
    best: u32,
}

/// An immutable, flattened LPM table. Build once (from an [`LpmTrie`] or an
/// iterator of `(Prefix, V)` pairs), look up forever; there is no mutation
/// API by design.
#[derive(Debug, Clone)]
pub struct FlatLpm<V> {
    nodes: Vec<FlatNode>,
    entries: Vec<(Prefix, V)>,
    /// Stride tables per family; empty when the family is below
    /// [`STRIDE_MIN_ENTRIES`] (the walk then starts at the root).
    v4_stride: Vec<StrideSlot>,
    v6_stride: Vec<StrideSlot>,
}

/// Node index of the IPv4 root (nodes[0]) and IPv6 root (nodes[1]).
const V4_ROOT: u32 = 0;
const V6_ROOT: u32 = 1;

impl<V> Default for FlatLpm<V> {
    fn default() -> Self {
        FlatLpm::new()
    }
}

impl<V> FlatLpm<V> {
    /// An empty table (every lookup misses).
    pub fn new() -> Self {
        FlatLpm {
            nodes: vec![FlatNode::EMPTY, FlatNode::EMPTY],
            entries: Vec::new(),
            v4_stride: Vec::new(),
            v6_stride: Vec::new(),
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn root(af: Af) -> u32 {
        match af {
            Af::V4 => V4_ROOT,
            Af::V6 => V6_ROOT,
        }
    }

    fn insert(&mut self, prefix: Prefix, value: V) {
        let mut node = Self::root(prefix.af()) as usize;
        for i in 0..prefix.len() {
            let b = prefix.addr().bit(i) as usize;
            let next = self.nodes[node].child[b];
            node = if next == NONE {
                self.nodes.push(FlatNode::EMPTY);
                let idx = (self.nodes.len() - 1) as u32;
                self.nodes[node].child[b] = idx;
                idx as usize
            } else {
                next as usize
            };
        }
        // Last insert wins, like `LpmTrie::insert` replacing the value.
        if self.nodes[node].value == NONE {
            self.nodes[node].value = self.entries.len() as u32;
            self.entries.push((prefix, value));
        } else {
            self.entries[self.nodes[node].value as usize] = (prefix, value);
        }
    }

    /// Resolve the top [`STRIDE_BITS`] bits of `chunk` (right-aligned) from
    /// the family root: the node reached at full stride depth and the best
    /// value index on the path, including that node's own value.
    fn resolve_stride(&self, af: Af, chunk: u32) -> StrideSlot {
        let mut node = Self::root(af) as usize;
        let mut best = self.nodes[node].value;
        for i in 0..STRIDE_BITS {
            let b = ((chunk >> (STRIDE_BITS - 1 - i)) & 1) as usize;
            let next = self.nodes[node].child[b];
            if next == NONE {
                return StrideSlot { node: NONE, best };
            }
            node = next as usize;
            if self.nodes[node].value != NONE {
                best = self.nodes[node].value;
            }
        }
        StrideSlot {
            node: node as u32,
            best,
        }
    }

    fn family_len(&self, af: Af) -> usize {
        self.entries.iter().filter(|(p, _)| p.af() == af).count()
    }

    fn build_strides(&mut self) {
        for af in [Af::V4, Af::V6] {
            if self.family_len(af) < STRIDE_MIN_ENTRIES {
                continue;
            }
            let table: Vec<StrideSlot> = (0u32..1 << STRIDE_BITS)
                .map(|chunk| self.resolve_stride(af, chunk))
                .collect();
            match af {
                Af::V4 => self.v4_stride = table,
                Af::V6 => self.v6_stride = table,
            }
        }
    }

    /// Build from a [`LpmTrie`], cloning the values.
    pub fn from_trie(trie: &LpmTrie<V>) -> Self
    where
        V: Clone,
    {
        trie.iter().map(|(p, v)| (p, v.clone())).collect()
    }

    /// Longest-prefix match: the most specific stored prefix containing
    /// `addr`, with its value. Agrees with [`LpmTrie::lookup`] on every
    /// address for the same entry set.
    #[inline]
    pub fn lookup(&self, addr: Addr) -> Option<(Prefix, &V)> {
        let width = addr.af().width();
        let stride = match addr.af() {
            Af::V4 => &self.v4_stride,
            Af::V6 => &self.v6_stride,
        };
        let (mut node, mut best, start) = if stride.is_empty() {
            let root = Self::root(addr.af());
            (root, self.nodes[root as usize].value, 0)
        } else {
            // The stride table already resolved the top bits in one load.
            let chunk = (addr.bits() >> (width - STRIDE_BITS)) as usize;
            let slot = stride[chunk];
            (slot.node, slot.best, STRIDE_BITS)
        };
        if node != NONE {
            for i in start..width {
                let b = addr.bit(i) as usize;
                let next = self.nodes[node as usize].child[b];
                if next == NONE {
                    break;
                }
                node = next;
                let v = self.nodes[node as usize].value;
                if v != NONE {
                    best = v;
                }
            }
        }
        if best == NONE {
            return None;
        }
        let (prefix, value) = &self.entries[best as usize];
        Some((*prefix, value))
    }
}

impl<V> FromIterator<(Prefix, V)> for FlatLpm<V> {
    fn from_iter<I: IntoIterator<Item = (Prefix, V)>>(iter: I) -> Self {
        let mut flat = FlatLpm::new();
        for (p, v) in iter {
            flat.insert(p, v);
        }
        flat.build_strides();
        flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Addr {
        s.parse::<std::net::IpAddr>().unwrap().into()
    }

    #[test]
    fn empty_table_misses() {
        let f: FlatLpm<u32> = FlatLpm::new();
        assert!(f.is_empty());
        assert_eq!(f.lookup(a("10.0.0.1")), None);
        assert_eq!(f.lookup(a("2001:db8::1")), None);
    }

    #[test]
    fn longest_match_wins() {
        let f: FlatLpm<&str> = vec![
            (p("10.0.0.0/8"), "eight"),
            (p("10.1.0.0/16"), "sixteen"),
            (p("10.1.2.0/24"), "twentyfour"),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            f.lookup(a("10.1.2.3")).unwrap(),
            (p("10.1.2.0/24"), &"twentyfour")
        );
        assert_eq!(
            f.lookup(a("10.1.9.9")).unwrap(),
            (p("10.1.0.0/16"), &"sixteen")
        );
        assert_eq!(
            f.lookup(a("10.9.9.9")).unwrap(),
            (p("10.0.0.0/8"), &"eight")
        );
        assert_eq!(f.lookup(a("11.0.0.1")), None);
    }

    #[test]
    fn default_route_and_family_disjointness() {
        let f: FlatLpm<u32> = vec![(p("0.0.0.0/0"), 4), (p("::/0"), 6)]
            .into_iter()
            .collect();
        assert_eq!(f.lookup(a("203.0.113.77")).unwrap(), (p("0.0.0.0/0"), &4));
        assert_eq!(f.lookup(a("2001:db8::1")).unwrap(), (p("::/0"), &6));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn duplicate_prefix_last_wins() {
        let f: FlatLpm<u32> = vec![(p("10.0.0.0/8"), 1), (p("10.0.0.0/8"), 2)]
            .into_iter()
            .collect();
        assert_eq!(f.len(), 1);
        assert_eq!(f.lookup(a("10.0.0.1")).unwrap().1, &2);
    }

    #[test]
    fn host_routes_match_exactly() {
        let f: FlatLpm<u32> = vec![(p("192.0.2.1/32"), 1), (p("2001:db8::1/128"), 2)]
            .into_iter()
            .collect();
        assert_eq!(f.lookup(a("192.0.2.1")).unwrap().1, &1);
        assert_eq!(f.lookup(a("192.0.2.2")), None);
        assert_eq!(f.lookup(a("2001:db8::1")).unwrap().1, &2);
        assert_eq!(f.lookup(a("2001:db8::2")), None);
    }

    #[test]
    fn stride_table_agrees_with_plain_walk() {
        // Enough v4 entries to trigger the stride build, with prefixes both
        // shorter and longer than STRIDE_BITS, then compare against LpmTrie
        // over addresses chosen to hit every interesting region.
        let mut trie = LpmTrie::new();
        let mut entries = Vec::new();
        for i in 0..3_000u32 {
            let len = 8 + (i % 21) as u8; // /8 ..= /28
            let addr = Addr::v4(i.wrapping_mul(0x9E37_79B9));
            let prefix = Prefix::of(addr.masked(len), len);
            trie.insert(prefix, i);
            entries.push((prefix, i));
        }
        let flat: FlatLpm<u32> = entries.into_iter().collect();
        assert!(
            !flat.v4_stride.is_empty(),
            "3000 entries must build the stride table"
        );
        for i in 0..20_000u32 {
            let addr = Addr::v4(i.wrapping_mul(0x6C07_8965).wrapping_add(i));
            let want = trie.lookup(addr).map(|(p, v)| (p, *v));
            let got = flat.lookup(addr).map(|(p, v)| (p, *v));
            assert_eq!(got, want, "divergence at {addr}");
        }
    }

    #[test]
    fn from_trie_round_trips() {
        let mut trie = LpmTrie::new();
        trie.insert(p("10.0.0.0/8"), 1u32);
        trie.insert(p("2001:db8::/32"), 2);
        let flat = FlatLpm::from_trie(&trie);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.lookup(a("10.2.3.4")).unwrap().1, &1);
        assert_eq!(flat.lookup(a("2001:db8::9")).unwrap().1, &2);
    }
}
