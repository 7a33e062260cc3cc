//! A flattened, read-only longest-prefix-match table.
//!
//! [`LpmTrie`] is the mutable build-side structure; [`FlatLpm`] is its
//! immutable read-side twin: a leaf-pushed multibit table of 256-slot `u32`
//! tables in one contiguous `Vec`, one table per 8 address bits. Every slot
//! already holds the final answer for every address under it (the build
//! pushes each prefix's answer down into the slots it covers), or the index
//! of the next table when longer prefixes continue below it. A lookup reads
//! one table per address byte and stops at the first answer, with no
//! "best so far" to track and no backtracking: at most 3 table loads for
//! IPv4 when no stored prefix is longer than /24 (4 otherwise), and at most
//! 6 for IPv6 prefixes up to /48. The table is trivially shareable across
//! threads (`&FlatLpm` is all a reader needs) and bit-identical to
//! [`LpmTrie::lookup`] for every address — the property `tests/prop.rs` and
//! the `lpm_ops` fuzz target pin. The spoof detector's route expectation
//! (`ipd-spoof`) is built on it.

use crate::addr::{Addr, Af};
use crate::prefix::Prefix;
use crate::trie::LpmTrie;

/// Tag bit of a slot. Set: the low 31 bits index the next table. Clear:
/// they index `entries`, or are [`MISS`].
const TABLE: u32 = 1 << 31;

/// An untagged slot that no stored prefix covers. Entry and table indices
/// stay below it (checked at build), so it is never a valid index.
const MISS: u32 = TABLE - 1;

/// Slots per table: one per value of an 8-bit address chunk.
const SLOTS: usize = 256;

/// Table index of the IPv4 root (tables[0]) and the IPv6 root (tables[1]);
/// the build's scratch trie numbers its two root nodes the same way.
const V4_ROOT: usize = 0;
const V6_ROOT: usize = 1;

fn root(af: Af) -> usize {
    match af {
        Af::V4 => V4_ROOT,
        Af::V6 => V6_ROOT,
    }
}

/// "No child" in the build's scratch binary trie.
const NONE: u32 = u32::MAX;

/// A node of the scratch binary trie the build fills the tables from.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Left (bit 0) and right (bit 1) child node indices, or [`NONE`].
    child: [u32; 2],
    /// Index into `entries`, or [`MISS`] for a pass-through node.
    value: u32,
}

impl Node {
    const EMPTY: Node = Node {
        child: [NONE, NONE],
        value: MISS,
    };
}

/// An immutable, leaf-pushed LPM table. Build once (from an [`LpmTrie`] or
/// an iterator of `(Prefix, V)` pairs), look up forever; there is no
/// mutation API by design.
///
/// Memory: the two 1 KiB root tables, plus at most ⌊(L−1)/8⌋ tables of
/// 1 KiB for each stored prefix of length L (prefixes that share their
/// leading bytes share tables), plus one `(Prefix, V)` entry per prefix.
#[derive(Debug, Clone)]
pub struct FlatLpm<V> {
    /// 256-slot tables back to back; table `t` is `tables[t * 256..][..256]`.
    tables: Vec<u32>,
    entries: Vec<(Prefix, V)>,
}

impl<V> Default for FlatLpm<V> {
    fn default() -> Self {
        FlatLpm::new()
    }
}

/// `i` as a `u32` index. Entry and table indices are slot payloads, so
/// they must stay below the tag bit and apart from [`MISS`]; the build's
/// node indices share the bound.
///
/// # Panics
/// Panics if `i` reaches [`MISS`].
fn index(i: usize, what: &str) -> u32 {
    assert!(i < MISS as usize, "FlatLpm holds at most {MISS} {what}");
    i as u32
}

/// Fill `span` slots from `start` under binary node `node`, which sits at
/// the bit depth those slots begin at. `best` is the longest match above
/// `node`. A span of one slot whose node has children gets a new table,
/// filled from the same node.
fn fill(nodes: &[Node], tables: &mut Vec<u32>, start: usize, span: usize, node: u32, best: u32) {
    let n = nodes[node as usize];
    let best = if n.value == MISS { best } else { n.value };
    if span == 1 {
        tables[start] = if n.child == [NONE, NONE] {
            best
        } else {
            let table = tables.len() / SLOTS;
            let tag = TABLE | index(table, "tables");
            tables.resize(tables.len() + SLOTS, MISS);
            fill(nodes, tables, table * SLOTS, SLOTS, node, best);
            tag
        };
        return;
    }
    let half = span / 2;
    for (side, &child) in n.child.iter().enumerate() {
        let lo = start + side * half;
        if child == NONE {
            tables[lo..lo + half].fill(best);
        } else {
            fill(nodes, tables, lo, half, child, best);
        }
    }
}

impl<V> FlatLpm<V> {
    /// An empty table (every lookup misses).
    pub fn new() -> Self {
        FlatLpm {
            tables: vec![MISS; 2 * SLOTS],
            entries: Vec::new(),
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
        let bits = addr.bits();
        let mut shift = addr.af().width();
        let mut table = root(addr.af());
        loop {
            // The last byte of an address never points on: no prefix is
            // longer than the address.
            shift -= 8;
            let slot = self.tables[table * SLOTS + ((bits >> shift) as usize & (SLOTS - 1))];
            if slot & TABLE == 0 {
                // MISS lies past every entry index, so it reads as `None`.
                let (prefix, value) = self.entries.get(slot as usize)?;
                return Some((*prefix, value));
            }
            table = (slot & !TABLE) as usize;
        }
    }
}

impl<V> FromIterator<(Prefix, V)> for FlatLpm<V> {
    /// Insert into a scratch binary trie (last insert of a prefix wins,
    /// like `LpmTrie::insert` replacing the value), then fill the tables
    /// from it and drop it.
    fn from_iter<I: IntoIterator<Item = (Prefix, V)>>(iter: I) -> Self {
        let mut entries = Vec::new();
        let mut nodes = vec![Node::EMPTY; 2];
        for (prefix, value) in iter {
            let mut node = root(prefix.af());
            for i in 0..prefix.len() {
                let b = prefix.addr().bit(i) as usize;
                if nodes[node].child[b] == NONE {
                    nodes[node].child[b] = index(nodes.len(), "build nodes");
                    nodes.push(Node::EMPTY);
                }
                node = nodes[node].child[b] as usize;
            }
            if nodes[node].value == MISS {
                nodes[node].value = index(entries.len(), "prefixes");
                entries.push((prefix, value));
            } else {
                entries[nodes[node].value as usize] = (prefix, value);
            }
        }
        let mut tables = vec![MISS; 2 * SLOTS];
        for r in [V4_ROOT, V6_ROOT] {
            fill(&nodes, &mut tables, r * SLOTS, SLOTS, r as u32, MISS);
        }
        FlatLpm { tables, entries }
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
    fn table_boundaries_and_pushed_answers_match_trie() {
        // One nested chain per family with a length on each side of every
        // 8-bit table boundary, a short prefix whose answer must fill the
        // empty slots of two tables below it, and a duplicate (last wins).
        let mut entries: Vec<(Prefix, u32)> = [0u8, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32]
            .iter()
            .map(|&len| (Prefix::of(a("10.128.128.129"), len), u32::from(len)))
            .collect();
        entries.extend([0u8, 47, 48, 49, 127, 128].iter().map(|&len| {
            (
                Prefix::of(a("2001:db8:8000::8001"), len),
                1000 + u32::from(len),
            )
        }));
        entries.push((p("20.16.0.0/12"), 12));
        entries.push((p("20.17.5.0/24"), 24));
        entries.push((p("20.17.5.0/24"), 2424));
        let trie: LpmTrie<u32> = entries.iter().copied().collect();
        let flat: FlatLpm<u32> = entries.iter().copied().collect();
        assert_eq!(flat.len(), trie.len());

        // The /12's answer fills the 255 other slots of 20.17.x and the
        // other slots of 20.16–31.x; outside it nothing but /0 answers.
        assert_eq!(
            flat.lookup(a("20.17.5.9")).unwrap(),
            (p("20.17.5.0/24"), &2424)
        );
        assert_eq!(
            flat.lookup(a("20.17.6.1")).unwrap(),
            (p("20.16.0.0/12"), &12)
        );
        assert_eq!(
            flat.lookup(a("20.31.255.255")).unwrap(),
            (p("20.16.0.0/12"), &12)
        );
        assert_eq!(flat.lookup(a("20.32.0.0")).unwrap(), (p("0.0.0.0/0"), &0));

        // Every stored boundary and its neighbours just outside.
        let mut probes = Vec::new();
        for (prefix, _) in &entries {
            let (lo, hi) = (prefix.first_addr(), prefix.last_addr());
            probes.extend([lo, hi]);
            probes.push(Addr::new(lo.af(), lo.bits().wrapping_sub(1)));
            probes.push(Addr::new(hi.af(), hi.bits().wrapping_add(1)));
        }
        for addr in probes {
            let want = trie.lookup(addr).map(|(p, v)| (p, *v));
            assert_eq!(flat.lookup(addr).map(|(p, v)| (p, *v)), want, "at {addr}");
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
