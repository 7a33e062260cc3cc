//! Property-based tests for the LPM trie against a naive model.

use std::collections::HashMap;

use ipd_lpm::{Addr, Af, ConcurrentLpm, LpmTrie, Prefix};
use proptest::prelude::*;

/// A naive model of an LPM table: a flat map, with lookup by linear scan.
#[derive(Default)]
struct Model {
    entries: HashMap<Prefix, u32>,
}

impl Model {
    fn insert(&mut self, p: Prefix, v: u32) -> Option<u32> {
        self.entries.insert(p, v)
    }

    fn remove(&mut self, p: Prefix) -> Option<u32> {
        self.entries.remove(&p)
    }

    fn lookup(&self, a: Addr) -> Option<(Prefix, u32)> {
        self.entries
            .iter()
            .filter(|(p, _)| p.contains(a))
            .max_by_key(|(p, _)| p.len())
            .map(|(p, v)| (*p, *v))
    }
}

fn arb_prefix_v4() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix::of(Addr::v4(bits), len))
}

fn arb_prefix_v6() -> impl Strategy<Value = Prefix> {
    // Constrain to a /16 so collisions (and thus interesting overlap) happen.
    (any::<u128>(), 0u8..=128).prop_map(|(bits, len)| {
        let bits = (0x2001u128 << 112) | (bits >> 16);
        Prefix::of(Addr::v6(bits), len)
    })
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Prefix, u32),
    Remove(Prefix),
    Lookup(Addr),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let prefix = prop_oneof![4 => arb_prefix_v4(), 1 => arb_prefix_v6()];
    prop_oneof![
        3 => (prefix.clone(), any::<u32>()).prop_map(|(p, v)| Op::Insert(p, v)),
        1 => prefix.prop_map(Op::Remove),
        3 => any::<u32>().prop_map(|bits| Op::Lookup(Addr::v4(bits))),
    ]
}

proptest! {
    /// The trie agrees with the naive model under arbitrary operation
    /// sequences, for both the returned prefix and value.
    #[test]
    fn trie_matches_model(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut trie = LpmTrie::new();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Insert(p, v) => {
                    prop_assert_eq!(trie.insert(p, v), model.insert(p, v));
                }
                Op::Remove(p) => {
                    prop_assert_eq!(trie.remove(p), model.remove(p));
                }
                Op::Lookup(a) => {
                    let got = trie.lookup(a).map(|(p, v)| (p, *v));
                    prop_assert_eq!(got, model.lookup(a));
                }
            }
            prop_assert_eq!(trie.len(), model.entries.len());
        }
    }

    /// Iteration returns exactly the inserted set, sorted, with no duplicates.
    #[test]
    fn iter_is_sorted_and_complete(
        entries in proptest::collection::hash_map(arb_prefix_v4(), any::<u32>(), 0..100)
    ) {
        let trie: LpmTrie<u32> = entries.iter().map(|(p, v)| (*p, *v)).collect();
        let got: Vec<(Prefix, u32)> = trie.iter().map(|(p, v)| (p, *v)).collect();
        let mut expect: Vec<(Prefix, u32)> = entries.into_iter().collect();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    /// lookup_all is consistent with lookup: the last element of lookup_all is
    /// the LPM result, and each element contains the address.
    #[test]
    fn lookup_all_consistent(
        entries in proptest::collection::hash_map(arb_prefix_v4(), any::<u32>(), 1..60),
        addr_bits in any::<u32>(),
    ) {
        let trie: LpmTrie<u32> = entries.iter().map(|(p, v)| (*p, *v)).collect();
        let addr = Addr::v4(addr_bits);
        let all = trie.lookup_all(addr);
        for w in all.windows(2) {
            prop_assert!(w[0].0.len() < w[1].0.len());
        }
        for (p, _) in &all {
            prop_assert!(p.contains(addr));
        }
        prop_assert_eq!(
            all.last().map(|(p, v)| (*p, **v)),
            trie.lookup(addr).map(|(p, v)| (p, *v))
        );
    }

    /// The flattened read-side table agrees with the trie it was built from
    /// on every lookup — the serving layer's correctness hinge.
    #[test]
    fn flat_lpm_matches_trie(
        entries in proptest::collection::hash_map(
            prop_oneof![4 => arb_prefix_v4(), 1 => arb_prefix_v6()],
            any::<u32>(),
            0..200,
        ),
        probes in proptest::collection::vec(any::<u32>(), 1..100),
    ) {
        let trie: LpmTrie<u32> = entries.iter().map(|(p, v)| (*p, *v)).collect();
        let flat: ipd_lpm::FlatLpm<u32> = entries.iter().map(|(p, v)| (*p, *v)).collect();
        prop_assert_eq!(flat.len(), trie.len());
        // Probe random addresses plus every stored boundary (first/last
        // address of each prefix), both families.
        let mut addrs: Vec<Addr> = probes.iter().map(|&b| Addr::v4(b)).collect();
        for p in entries.keys() {
            addrs.push(p.first_addr());
            addrs.push(p.last_addr());
        }
        for addr in addrs {
            let want = trie.lookup(addr).map(|(p, v)| (p, *v));
            let got = flat.lookup(addr).map(|(p, v)| (p, *v));
            prop_assert_eq!(got, want, "divergence at {}", addr);
        }
    }

    /// The concurrent tree-bitmap store agrees with [`LpmTrie`] under any
    /// interleaved sequence of inserts, removals, and lookups — op by op,
    /// and as a whole via the materialised row set.
    #[test]
    fn concurrent_matches_trie(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let store = ConcurrentLpm::new();
        let mut trie = LpmTrie::new();
        for op in ops {
            match op {
                Op::Insert(p, v) => {
                    let mut u = store.update();
                    prop_assert_eq!(u.insert(p, v), trie.insert(p, v).is_none());
                }
                Op::Remove(p) => {
                    let mut u = store.update();
                    prop_assert_eq!(u.remove(p), trie.remove(p).is_some());
                }
                Op::Lookup(a) => {
                    let got = store.lookup(a).map(|(p, v)| (p, *v));
                    prop_assert_eq!(got, trie.lookup(a).map(|(p, v)| (p, *v)));
                }
            }
            prop_assert_eq!(store.len(), trie.len());
        }
        let mut rows = store.rows();
        rows.sort();
        let mut expect: Vec<(Prefix, u32)> = trie.iter().map(|(p, v)| (p, *v)).collect();
        expect.sort();
        prop_assert_eq!(rows, expect);
    }

    /// A prefix round-trips through its string representation.
    #[test]
    fn prefix_string_roundtrip(p in prop_oneof![arb_prefix_v4(), arb_prefix_v6()]) {
        let s = p.to_string();
        let back: Prefix = s.parse().unwrap();
        prop_assert_eq!(p, back);
    }

    /// children/parent/sibling are mutually consistent.
    #[test]
    fn tree_navigation_consistent(p in arb_prefix_v4()) {
        if let Some((l, r)) = p.children() {
            prop_assert_eq!(l.parent().unwrap(), p);
            prop_assert_eq!(r.parent().unwrap(), p);
            prop_assert_eq!(l.sibling().unwrap(), r);
            prop_assert_eq!(r.sibling().unwrap(), l);
            prop_assert!(!l.is_right_child());
            prop_assert!(r.is_right_child());
            prop_assert!(p.contains_prefix(l) && p.contains_prefix(r));
            // The two children partition the parent exactly.
            prop_assert_eq!(l.first_addr(), p.first_addr());
            prop_assert_eq!(r.last_addr(), p.last_addr());
            prop_assert_eq!(l.last_addr().bits() + 1, r.first_addr().bits());
        }
        let _ = Af::V4; // silence unused import when children is None for all cases
    }
}
