//! A concurrent tree-bitmap prefix store: lock-free longest-prefix-match
//! lookups while a single writer inserts, updates, and removes prefixes in
//! place — no epoch copy of the table, no reader locks.
//!
//! # Layout
//!
//! The tree walks addresses in 4-bit strides. Each `CNode` holds:
//!
//! * `children: [AtomicU32; 16]` — once-allocated child indices into a
//!   chunked node arena (children are created on demand and never freed or
//!   moved, so a reader can chase a child pointer without coordination);
//! * `slots: [AtomicU32; 15]` — one slot per prefix the node can terminate
//!   (remainder `r = len % 4` bits beyond the node's depth: slot 0 is `r = 0`,
//!   slots 1–2 are `r = 1`, 3–6 are `r = 2`, 7–14 are `r = 3`). A slot stores
//!   an index into the value arena or `NONE`;
//! * `pfx_bitmap: AtomicU32` — an occupancy bitmap over the slots, kept as a
//!   cheap filter so the common miss probes one word instead of four slots.
//!
//! Values live in an append-only chunked arena of `OnceLock<(Prefix, V)>`
//! cells. An update writes a *new* cell, then publishes its index into the
//! slot with one atomic store — readers holding a reference to the old value
//! keep a valid reference forever (cells are never freed until the store is
//! dropped; dead cells are counted in [`ConcurrentLpm::garbage`] so the
//! serving layer can decide when a compaction rebuild pays for itself).
//!
//! # Consistency: seqlock-validated lookups
//!
//! Per-word atomicity is not enough for a multi-word structure: a lookup that
//! reads node A before an update and node B after it can assemble an answer
//! matching *no* state of the store (insert `10/8`, remove `10.0/16`: a reader
//! that misses the /8 but also misses the /16 answers "unmapped", which was
//! never true). Every mutation therefore executes inside a sequence window:
//! the writer bumps [`seq`] to odd, stores the slot/bitmap words, and bumps it
//! back to even. Readers snapshot `seq` (retrying while odd), walk the tree,
//! and retry if `seq` moved. A validated lookup observed *exactly* the state
//! after `seq / 2` mutations — the property the interleaving harness checks
//! against a replayed [`LpmTrie`](crate::LpmTrie) oracle.
//!
//! The memory-ordering argument: the opening bump is an `AcqRel` RMW and
//! every in-window store is `Release`; a reader's data loads are `Acquire`
//! followed by an `Acquire` fence before re-reading `seq`. If a reader's data
//! load observes a window-`k` store, the release/acquire edge makes window
//! `k`'s opening bump happen-before the reader's second `seq` load, which by
//! coherence then returns at least `2k + 1 ≠ v1` — the read is rejected.
//! Conversely `v1 = 2m` acquires every store of windows `≤ m`, so an accepted
//! read saw all of them and none of window `m + 1`.
//!
//! Lookups are wait-free in the steady state (no update in flight: one `seq`
//! load, one validated walk) and lock-free while an update is mid-window —
//! a reader retries only when a writer made progress. Writers serialise on a
//! mutex ([`ConcurrentLpm::update`]); readers never touch it.
//!
//! [`seq`]: ConcurrentLpm::seq

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::{Addr, Af, Prefix};

/// Sentinel for "no child" / "no value" in the u32 index words.
const NONE: u32 = u32::MAX;
/// Cells in the first arena chunk; chunk `k` holds `BASE << k`.
const BASE: usize = 1024;
/// Chunk count — geometric growth covers the full u32 index space.
const CHUNKS: usize = 22;
/// Slots per node: prefixes with 0–3 bits beyond the node's depth.
const SLOTS: usize = 15;

// ---------------------------------------------------------------------------
// Scheduling instrumentation
// ---------------------------------------------------------------------------

static HOOK_ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static YIELD_HOOK: Cell<Option<fn()>> = const { Cell::new(None) };
}

/// Install (or clear) a per-thread yield hook called between the individual
/// atomic steps of lookups and updates.
///
/// This exists for the deterministic interleaving harness: a scheduled
/// executor registers its `yield_now` here and thereby gets a scheduling
/// point at every interleaving-relevant instruction. In production no hook is
/// installed and the probe is a single relaxed load of a static flag.
pub fn set_yield_hook(hook: Option<fn()>) {
    if hook.is_some() {
        HOOK_ARMED.store(true, Ordering::Relaxed);
    }
    YIELD_HOOK.with(|h| h.set(hook));
}

#[inline(always)]
fn pause() {
    if HOOK_ARMED.load(Ordering::Relaxed) {
        pause_cold();
    }
}

#[cold]
fn pause_cold() {
    YIELD_HOOK.with(|h| {
        if let Some(f) = h.get() {
            f()
        }
    });
}

// ---------------------------------------------------------------------------
// Arenas
// ---------------------------------------------------------------------------

/// One stride-4 node. 128 bytes, all words independently atomic.
struct CNode {
    children: [AtomicU32; 16],
    pfx_bitmap: AtomicU32,
    slots: [AtomicU32; SLOTS],
}

impl CNode {
    fn new() -> Self {
        CNode {
            children: std::array::from_fn(|_| AtomicU32::new(NONE)),
            pfx_bitmap: AtomicU32::new(0),
            slots: std::array::from_fn(|_| AtomicU32::new(NONE)),
        }
    }
}

/// `idx -> (chunk, offset)` for geometric chunk sizes `BASE << k`.
#[inline]
fn split(idx: u32) -> (usize, usize) {
    let q = idx as usize / BASE + 1;
    let chunk = (usize::BITS - 1 - q.leading_zeros()) as usize;
    let off = idx as usize - BASE * ((1 << chunk) - 1);
    (chunk, off)
}

/// Append-only node storage. Chunks are allocated once and never moved, so
/// `&CNode` references handed to readers stay valid for the arena's life.
struct NodeArena {
    chunks: [OnceLock<Box<[CNode]>>; CHUNKS],
    len: AtomicU32,
}

impl NodeArena {
    fn new() -> Self {
        NodeArena {
            chunks: [const { OnceLock::new() }; CHUNKS],
            len: AtomicU32::new(0),
        }
    }

    #[inline]
    fn get(&self, idx: u32) -> &CNode {
        let (c, off) = split(idx);
        &self.chunks[c].get().expect("published node chunk")[off]
    }

    /// Single-writer append. The fresh node is all-`NONE` and unreachable
    /// until a parent's child pointer is stored.
    fn alloc(&self) -> u32 {
        let idx = self.len.load(Ordering::Relaxed);
        assert!(idx != NONE, "node arena exhausted");
        let (c, off) = split(idx);
        assert!(c < CHUNKS, "node arena exhausted");
        let chunk = self.chunks[c].get_or_init(|| {
            (0..BASE << c)
                .map(|_| CNode::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        debug_assert!(off < chunk.len());
        self.len.store(idx + 1, Ordering::Release);
        idx
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed) as usize
    }
}

/// One geometric chunk of value cells, allocated on first touch.
type ValueChunk<V> = Box<[OnceLock<(Prefix, V)>]>;

/// Append-only value storage: each mutation publishes a freshly written cell.
struct ValueArena<V> {
    chunks: [OnceLock<ValueChunk<V>>; CHUNKS],
    len: AtomicU32,
}

impl<V> ValueArena<V> {
    fn new() -> Self {
        ValueArena {
            chunks: [const { OnceLock::new() }; CHUNKS],
            len: AtomicU32::new(0),
        }
    }

    #[inline]
    fn get(&self, idx: u32) -> &(Prefix, V) {
        let (c, off) = split(idx);
        self.chunks[c].get().expect("published value chunk")[off]
            .get()
            .expect("published value cell")
    }

    /// Single-writer append: the cell is fully written *before* its index is
    /// returned, so publishing the index (Release) publishes the value.
    fn push(&self, prefix: Prefix, value: V) -> u32 {
        let idx = self.len.load(Ordering::Relaxed);
        assert!(idx != NONE, "value arena exhausted");
        let (c, off) = split(idx);
        assert!(c < CHUNKS, "value arena exhausted");
        let chunk = self.chunks[c].get_or_init(|| {
            (0..BASE << c)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        chunk[off]
            .set((prefix, value))
            .unwrap_or_else(|_| panic!("value cell reused"));
        self.len.store(idx + 1, Ordering::Release);
        idx
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed) as usize
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// A concurrent LPM table over [`Prefix`] keys: one writer at a time mutates
/// in place, any number of readers look up without locks. See the module doc
/// for the layout and the consistency contract.
pub struct ConcurrentLpm<V> {
    nodes: NodeArena,
    values: ValueArena<V>,
    /// Sequence word: odd while a mutation window is open; `seq / 2` is the
    /// number of applied mutations.
    seq: AtomicU64,
    /// Live prefix count.
    len: AtomicUsize,
    /// Dead value cells (overwritten or removed) retained by the arena.
    garbage: AtomicUsize,
    writer: Mutex<()>,
}

impl<V> Default for ConcurrentLpm<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> std::fmt::Debug for ConcurrentLpm<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentLpm")
            .field("len", &self.len())
            .field("seq", &self.seq())
            .field("garbage", &self.garbage())
            .finish()
    }
}

impl<V> ConcurrentLpm<V> {
    /// An empty store. Node 0 is the IPv4 root, node 1 the IPv6 root.
    pub fn new() -> Self {
        let s = ConcurrentLpm {
            nodes: NodeArena::new(),
            values: ValueArena::new(),
            seq: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            garbage: AtomicUsize::new(0),
            writer: Mutex::new(()),
        };
        let v4 = s.nodes.alloc();
        let v6 = s.nodes.alloc();
        debug_assert_eq!((v4, v6), (0, 1));
        s
    }

    #[inline]
    fn root(af: Af) -> u32 {
        match af {
            Af::V4 => 0,
            Af::V6 => 1,
        }
    }

    /// Slot index inside a node for the final `r = len % 4` prefix bits.
    #[inline]
    fn slot_of(p: Prefix, depth: usize, r: usize) -> usize {
        if r == 0 {
            0
        } else {
            let w = p.af().width() as usize;
            let nib = ((p.addr().bits() >> (w - 4 * (depth + 1))) & 0xF) as usize;
            ((1 << r) - 1) + (nib >> (4 - r))
        }
    }

    /// Walk to the node terminating `p`, optionally creating missing interior
    /// nodes (single-writer only when `create`). Returns `(node, slot)`.
    fn locate(&self, p: Prefix, create: bool) -> Option<(u32, usize)> {
        let depth = (p.len() / 4) as usize;
        let r = (p.len() % 4) as usize;
        let w = p.af().width() as usize;
        let bits = p.addr().bits();
        let mut node = Self::root(p.af());
        for d in 0..depth {
            let nib = ((bits >> (w - 4 * (d + 1))) & 0xF) as usize;
            let n = self.nodes.get(node);
            let c = n.children[nib].load(Ordering::Acquire);
            node = if c == NONE {
                if !create {
                    return None;
                }
                let fresh = self.nodes.alloc();
                // An empty node becoming reachable is invisible to lookups:
                // publishing it needs no sequence window.
                n.children[nib].store(fresh, Ordering::Release);
                fresh
            } else {
                c
            };
        }
        Some((node, Self::slot_of(p, depth, r)))
    }

    /// Begin a mutation batch. Writers serialise here; readers are unaffected.
    pub fn update(&self) -> Updater<'_, V> {
        Updater {
            store: self,
            _guard: match self.writer.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            },
        }
    }

    /// The raw sequence word (even when quiescent, `seq / 2` mutations done).
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Live prefix count.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether no prefix is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dead value cells retained by the append-only arena. The publisher
    /// compares this against [`len`](Self::len) to schedule a compaction
    /// rebuild.
    pub fn garbage(&self) -> usize {
        self.garbage.load(Ordering::Relaxed)
    }

    /// Approximate heap footprint (node + value arenas; excludes `V` heap).
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<CNode>()
            + self.values.len() * std::mem::size_of::<OnceLock<(Prefix, V)>>()
    }

    /// One unvalidated LPM walk. Must run inside a seqlock read window.
    fn walk(&self, addr: Addr) -> Option<(Prefix, &V)> {
        let w = addr.af().width() as usize;
        let bits = addr.bits();
        let max_d = w / 4;
        let mut node = Self::root(addr.af());
        let mut best = NONE;
        let mut d = 0;
        loop {
            let n = self.nodes.get(node);
            pause();
            let bm = n.pfx_bitmap.load(Ordering::Acquire);
            if d == max_d {
                // Deepest node for this family: only the host-route slot.
                if bm & 1 != 0 {
                    let s = n.slots[0].load(Ordering::Acquire);
                    if s != NONE {
                        best = s;
                    }
                }
                break;
            }
            let nib = ((bits >> (w - 4 * (d + 1))) & 0xF) as usize;
            // Most specific first: r = 3, 2, 1, then the node's own r = 0.
            for slot in [7 + (nib >> 1), 3 + (nib >> 2), 1 + (nib >> 3), 0] {
                if bm & (1u32 << slot) != 0 {
                    let s = n.slots[slot].load(Ordering::Acquire);
                    if s != NONE {
                        best = s;
                        break;
                    }
                }
            }
            pause();
            let child = n.children[nib].load(Ordering::Acquire);
            if child == NONE {
                break;
            }
            node = child;
            d += 1;
        }
        if best == NONE {
            None
        } else {
            let (p, v) = self.values.get(best);
            Some((*p, v))
        }
    }

    /// Longest-prefix match. Wait-free when no update is in flight; retries
    /// (lock-free) while a writer holds the sequence window open.
    #[inline]
    pub fn lookup(&self, addr: Addr) -> Option<(Prefix, &V)> {
        self.lookup_versioned(addr).0
    }

    /// [`lookup`](Self::lookup) plus the validated sequence number: the
    /// answer is exactly what the store held after `seq / 2` mutations. The
    /// interleaving harness maps this index into a replayed oracle.
    pub fn lookup_versioned(&self, addr: Addr) -> (Option<(Prefix, &V)>, u64) {
        loop {
            pause();
            let v1 = self.seq.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let ans = self.walk(addr);
            fence(Ordering::Acquire);
            pause();
            if self.seq.load(Ordering::Acquire) == v1 {
                return (ans, v1);
            }
        }
    }

    /// Exact-match read of one prefix's value, seqlock-validated.
    pub fn exact(&self, p: Prefix) -> Option<&V> {
        loop {
            pause();
            let v1 = self.seq.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let ans = self.locate(p, false).and_then(|(ni, slot)| {
                let vi = self.nodes.get(ni).slots[slot].load(Ordering::Acquire);
                if vi == NONE {
                    None
                } else {
                    Some(&self.values.get(vi).1)
                }
            });
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Acquire) == v1 {
                return ans;
            }
        }
    }

    fn collect(&self, node: u32, out: &mut Vec<(Prefix, V)>)
    where
        V: Clone,
    {
        let n = self.nodes.get(node);
        let bm = n.pfx_bitmap.load(Ordering::Acquire);
        for s in 0..SLOTS {
            if bm & (1u32 << s) != 0 {
                let vi = n.slots[s].load(Ordering::Acquire);
                if vi != NONE {
                    let (p, v) = self.values.get(vi);
                    out.push((*p, v.clone()));
                }
            }
        }
        for c in 0..16 {
            let ci = n.children[c].load(Ordering::Acquire);
            if ci != NONE {
                self.collect(ci, out);
            }
        }
    }

    /// Materialise all rows, seqlock-validated (a consistent snapshot even
    /// under a concurrent writer; under continuous churn prefer calling from
    /// the writer thread between batches). Order is tree order, not sorted.
    pub fn rows(&self) -> Vec<(Prefix, V)>
    where
        V: Clone,
    {
        loop {
            pause();
            let v1 = self.seq.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let mut out = Vec::with_capacity(self.len.load(Ordering::Relaxed));
            self.collect(Self::root(Af::V4), &mut out);
            self.collect(Self::root(Af::V6), &mut out);
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Acquire) == v1 {
                return out;
            }
        }
    }
}

/// Exclusive write access to a [`ConcurrentLpm`]. Holding an `Updater` holds
/// the writer mutex; lookups proceed concurrently throughout.
pub struct Updater<'a, V> {
    store: &'a ConcurrentLpm<V>,
    _guard: MutexGuard<'a, ()>,
}

impl<V> Updater<'_, V> {
    /// Insert or update `p`. Returns `true` if the prefix was new. Exactly
    /// one sequence window per call.
    pub fn insert(&mut self, p: Prefix, value: V) -> bool {
        let s = self.store;
        let (ni, slot) = s.locate(p, true).expect("create-mode locate");
        let vi = s.values.push(p, value);
        let n = s.nodes.get(ni);
        pause();
        let open = s.seq.fetch_add(1, Ordering::AcqRel);
        debug_assert_eq!(open & 1, 0, "nested mutation window");
        pause();
        let old = n.slots[slot].swap(vi, Ordering::AcqRel);
        pause();
        if old == NONE {
            n.pfx_bitmap.fetch_or(1u32 << slot, Ordering::Release);
        }
        pause();
        s.seq.fetch_add(1, Ordering::Release);
        if old == NONE {
            s.len.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            s.garbage.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Remove `p`. Returns `true` if it was present (one sequence window);
    /// removing an absent prefix is a no-op with no window.
    pub fn remove(&mut self, p: Prefix) -> bool {
        let s = self.store;
        let Some((ni, slot)) = s.locate(p, false) else {
            return false;
        };
        let n = s.nodes.get(ni);
        // Single writer: this pre-check cannot race another mutation.
        if n.slots[slot].load(Ordering::Acquire) == NONE {
            return false;
        }
        pause();
        let open = s.seq.fetch_add(1, Ordering::AcqRel);
        debug_assert_eq!(open & 1, 0, "nested mutation window");
        pause();
        // Clear the filter first so readers inside this window cannot take
        // the bitmap fast path to a slot about to vanish; any such read is
        // rejected by seq validation regardless.
        n.pfx_bitmap.fetch_and(!(1u32 << slot), Ordering::Release);
        pause();
        let old = n.slots[slot].swap(NONE, Ordering::AcqRel);
        debug_assert_ne!(old, NONE);
        pause();
        s.seq.fetch_add(1, Ordering::Release);
        s.len.fetch_sub(1, Ordering::Relaxed);
        s.garbage.fetch_add(1, Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LpmTrie;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn empty_store_misses() {
        let s: ConcurrentLpm<u32> = ConcurrentLpm::new();
        assert!(s.is_empty());
        assert_eq!(s.lookup(Addr::v4(0x0102_0304)), None);
        assert_eq!(s.lookup(Addr::v6(1)), None);
        assert_eq!(s.seq(), 0);
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let s = ConcurrentLpm::new();
        let mut u = s.update();
        assert!(u.insert(p("10.0.0.0/8"), 1u32));
        assert!(u.insert(p("10.1.0.0/16"), 2));
        assert!(u.insert(p("10.1.2.0/24"), 3));
        assert!(!u.insert(p("10.1.0.0/16"), 20)); // update, not new
        drop(u);
        assert_eq!(s.len(), 3);
        assert_eq!(s.garbage(), 1);
        assert_eq!(s.seq(), 8);

        let a = |x: &str| Addr::from(x.parse::<std::net::IpAddr>().unwrap());
        assert_eq!(s.lookup(a("10.1.2.3")), Some((p("10.1.2.0/24"), &3)));
        assert_eq!(s.lookup(a("10.1.9.9")), Some((p("10.1.0.0/16"), &20)));
        assert_eq!(s.lookup(a("10.9.9.9")), Some((p("10.0.0.0/8"), &1)));
        assert_eq!(s.lookup(a("11.0.0.1")), None);
        assert_eq!(s.exact(p("10.1.0.0/16")), Some(&20));
        assert_eq!(s.exact(p("10.2.0.0/16")), None);

        let mut u = s.update();
        assert!(u.remove(p("10.1.0.0/16")));
        assert!(!u.remove(p("10.1.0.0/16")));
        drop(u);
        assert_eq!(s.lookup(a("10.1.9.9")), Some((p("10.0.0.0/8"), &1)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.garbage(), 2);
    }

    #[test]
    fn full_length_and_root_prefixes() {
        let s = ConcurrentLpm::new();
        let mut u = s.update();
        u.insert(p("0.0.0.0/0"), 0u32);
        u.insert(p("203.0.113.7/32"), 1);
        u.insert(p("::/0"), 2);
        u.insert(p("2001:db8::1/128"), 3);
        drop(u);
        let a = |x: &str| Addr::from(x.parse::<std::net::IpAddr>().unwrap());
        assert_eq!(s.lookup(a("203.0.113.7")), Some((p("203.0.113.7/32"), &1)));
        assert_eq!(s.lookup(a("203.0.113.8")), Some((p("0.0.0.0/0"), &0)));
        assert_eq!(s.lookup(a("2001:db8::1")), Some((p("2001:db8::1/128"), &3)));
        assert_eq!(s.lookup(a("2001:db8::2")), Some((p("::/0"), &2)));
    }

    #[test]
    fn matches_trie_on_dense_nested_ranges() {
        let s = ConcurrentLpm::new();
        let mut oracle = LpmTrie::new();
        let mut u = s.update();
        let mut x = 0x243F_6A88_u32; // deterministic LCG-ish mix
        for i in 0..4_000u32 {
            x = x.wrapping_mul(0x9E37_79B9).wrapping_add(i);
            let len = 8 + (x % 25) as u8; // 8..=32
            let pfx = Prefix::of(Addr::v4(x), len);
            if x.is_multiple_of(5) {
                u.remove(pfx);
                oracle.remove(pfx);
            } else {
                u.insert(pfx, x);
                oracle.insert(pfx, x);
            }
        }
        drop(u);
        assert_eq!(s.len(), oracle.len());
        let mut y = 1u32;
        for _ in 0..20_000 {
            y = y.wrapping_mul(0x6C07_8965).wrapping_add(17);
            let addr = Addr::v4(y);
            let want = oracle.lookup(addr).map(|(pfx, v)| (pfx, *v));
            let got = s.lookup(addr).map(|(pfx, v)| (pfx, *v));
            assert_eq!(got, want, "divergence at {addr}");
        }
    }

    #[test]
    fn rows_materialise_the_live_set() {
        let s = ConcurrentLpm::new();
        let mut u = s.update();
        u.insert(p("10.0.0.0/8"), 1u32);
        u.insert(p("10.1.0.0/16"), 2);
        u.insert(p("2001:db8::/32"), 3);
        u.remove(p("10.1.0.0/16"));
        drop(u);
        let mut rows = s.rows();
        rows.sort_by_key(|(pfx, _)| *pfx);
        assert_eq!(rows, vec![(p("10.0.0.0/8"), 1), (p("2001:db8::/32"), 3)]);
    }

    #[test]
    fn arena_split_is_exhaustive() {
        let mut expect = 0u32;
        for c in 0..CHUNKS {
            let size = BASE << c;
            for off in [0usize, size - 1] {
                let idx = expect + off as u32;
                assert_eq!(split(idx), (c, off), "idx {idx}");
            }
            let next = expect as u64 + size as u64;
            if next > u32::MAX as u64 {
                break;
            }
            expect = next as u32;
        }
    }
}
