//! DFZ-scale routing substrate: a functional prefix plan with route churn.
//!
//! The paper validates IPD against a default-free-zone table — ~1M IPv4 and
//! ~200k IPv6 prefixes (§5.7). Materializing a world that size the way
//! `ipd-traffic::World` does (per-prefix structs, region maps, an explicit
//! RIB) costs gigabytes. This module takes the opposite approach: the entire
//! routing table is a *pure function* of a seed, and the only materialized
//! state is a handful of small tables whose sizes are bounded by the
//! parameter counts (length classes, AS boundaries, per-AS link slices,
//! churner index lists) — never by the prefix count times anything.
//!
//! Three layers:
//!
//! * [`PrefixPlan`] — maps a dense *rank* (0-based popularity rank; rank 0 is
//!   the most popular prefix) to a concrete CIDR prefix and origin AS, O(1)
//!   per query. Prefixes are carved from per-length *classes* laid out as
//!   disjoint stride regions, so distinctness holds by construction; a
//!   Feistel permutation decorrelates popularity from prefix length and
//!   address. AS sizes are Zipf, so a few ASes originate most of the table.
//! * [`ChurnModel`] — per-prefix appearance/disappearance (square-wave
//!   visibility with hash-derived phase and durations) and next-hop flap
//!   (renewal process with hash-derived period and bounded jitter), following
//!   the topology-dynamics modeling of Mehner et al. (PAPERS.md). Both are
//!   closed-form: `visible(rank, t)` and `flap_count(rank, t)` are O(1), so
//!   flow generation never replays history.
//! * [`ChurnStream`] — the event view of the same processes: a time-ordered
//!   iterator of [`ChurnEvent`]s over a window, allocation-bounded by the
//!   churner fraction, and guaranteed consistent with the closed-form state
//!   queries (same hash inputs).
//!
//! Everything here is deterministic per seed and cheap enough to query a
//! billion times; `ipd-traffic::dfz` composes these pieces with a
//! [`ScaleTopology`] into a flow stream.

use ipd_lpm::{Addr, Af, Prefix};
use ipd_topology::scale::{mix, mix3, unit_f64};
use ipd_topology::{LinkId, ScaleTopology};

// Hash stream namespaces. Each independent random decision gets its own
// constant so adding decisions never perturbs existing ones.
const S_PERM_V4: u64 = 0x5045_524D_0034;
const S_PERM_V6: u64 = 0x5045_524D_0036;
const S_FLAP_SEL: u64 = 0x464C_4150_5345;
const S_FLAP_PERIOD: u64 = 0x464C_4150_5045;
const S_FLAP_JITTER: u64 = 0x464C_4150_4A49;
const S_UPDOWN_SEL: u64 = 0x5550_444E_5345;
const S_UPDOWN_SHAPE: u64 = 0x5550_444E_5348;
const S_AS_LINKS: u64 = 0x4153_4C49_4E4B;
const S_HOME_LINK: u64 = 0x484F_4D45_4C4E;

/// Origin ASNs are `AS_BASE + as_rank` (as_rank 0 = biggest AS).
pub const AS_BASE: u32 = 1000;

fn famtag(af: Af) -> u64 {
    match af {
        Af::V4 => 0,
        Af::V6 => 1 << 40,
    }
}

/// Hash for a per-(family, rank) decision.
#[inline]
fn hrank(seed: u64, stream: u64, af: Af, rank: u64) -> u64 {
    mix3(seed, stream, famtag(af) | rank)
}

// ---------------------------------------------------------------------------
// Feistel permutation
// ---------------------------------------------------------------------------

/// A seeded bijection on `[0, n)`: a 4-round unbalanced Feistel network over
/// the next power of two, cycle-walked back into the domain. Used to map
/// popularity ranks to plan slots so popularity is uncorrelated with prefix
/// length and address.
#[derive(Debug, Clone, Copy)]
struct Perm {
    n: u64,
    bits: u32,
    key: u64,
}

impl Perm {
    fn new(n: u64, key: u64) -> Self {
        assert!(n >= 1);
        let bits = 64 - (n - 1).max(1).leading_zeros();
        Perm {
            n,
            bits: bits.max(2),
            key,
        }
    }

    fn round(&self, x: u64) -> u64 {
        let lb = self.bits / 2;
        let rb = self.bits - lb;
        let (mut a, mut b) = (x >> rb, x & ((1u64 << rb) - 1));
        let (mut wa, mut wb) = (lb, rb);
        for r in 0..4u64 {
            let f = mix3(self.key, r, b) & ((1u64 << wa) - 1);
            let t = a ^ f;
            a = b;
            b = t;
            std::mem::swap(&mut wa, &mut wb);
        }
        debug_assert!(wb == rb);
        (a << rb) | b
    }

    /// Apply the bijection.
    fn apply(&self, x: u64) -> u64 {
        debug_assert!(x < self.n);
        let mut y = self.round(x);
        // Cycle-walking: the Feistel is a bijection on [0, 2^bits); walking
        // out-of-domain points through it again yields a bijection on [0, n).
        while y >= self.n {
            y = self.round(y);
        }
        y
    }
}

// ---------------------------------------------------------------------------
// Prefix plan
// ---------------------------------------------------------------------------

/// One per-length stride region: `count` prefixes of length `len` starting at
/// `base`, slot `s` in the class mapping to `base + (s - start) * stride`.
#[derive(Debug, Clone, Copy)]
struct LenClass {
    len: u8,
    /// First slot (within the family's slot space) carved from this class.
    start: u64,
    count: u64,
    base: u128,
}

/// Parameters for a [`PrefixPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfzPlanParams {
    /// IPv4 prefix count.
    pub v4_prefixes: u64,
    /// IPv6 prefix count.
    pub v6_prefixes: u64,
    /// Number of origin ASes.
    pub ases: u32,
    /// Seed for the rank→slot permutations.
    pub seed: u64,
}

impl DfzPlanParams {
    /// The paper's DFZ shape: ~1M IPv4 + ~200k IPv6 prefixes (§5.7).
    pub fn dfz(seed: u64) -> Self {
        DfzPlanParams {
            v4_prefixes: 1_048_576,
            v6_prefixes: 204_800,
            ases: 2048,
            seed,
        }
    }

    /// A proportionally smaller table for test tiers.
    pub fn tier(seed: u64, v4_prefixes: u64) -> Self {
        DfzPlanParams {
            v4_prefixes,
            v6_prefixes: v4_prefixes / 5,
            ases: ((v4_prefixes / 512).clamp(16, 2048)) as u32,
            seed,
        }
    }
}

/// IPv4 length-class weights in 1/10000ths, /24-heavy per the paper's Fig 9
/// shape but with the fine tail boosted so one million prefixes fit
/// disjointly under 2^32 addresses. Coarsest first; the integer-division
/// remainder goes to /24.
const V4_CLASSES: &[(u8, u64)] = &[
    (12, 4),
    (14, 16),
    (16, 80),
    (17, 120),
    (18, 200),
    (19, 300),
    (20, 500),
    (21, 550),
    (22, 1000),
    (23, 1100),
    (24, 6130), // receives the remainder
];

/// IPv6 length-class weights in 1/10000ths. Laid out from `2400::`.
const V6_CLASSES: &[(u8, u64)] = &[
    (32, 2500),
    (36, 1000),
    (40, 1500),
    (44, 1500),
    (48, 3500), // receives the remainder
];

/// IPv4 regions start at 1.0.0.0 (0/8 is unusable anyway).
const V4_BASE: u128 = 0x0100_0000;
/// IPv6 regions start at 2400::.
const V6_BASE: u128 = 0x2400 << 112;
/// IPv6 layout must stay under 3000:: (sanity bound, far from user space).
const V6_LIMIT: u128 = 0x3000 << 112;

fn carve(classes: &[(u8, u64)], n: u64, af: Af, base0: u128, limit: u128) -> Vec<LenClass> {
    let total_w: u64 = classes.iter().map(|&(_, w)| w).sum();
    debug_assert_eq!(total_w, 10_000);
    let mut counts: Vec<u64> = classes.iter().map(|&(_, w)| n * w / 10_000).collect();
    let assigned: u64 = counts.iter().sum();
    // Remainder to the last (finest) class.
    *counts.last_mut().expect("non-empty class table") += n - assigned;
    let mut out = Vec::with_capacity(classes.len());
    let (mut start, mut base) = (0u64, base0);
    for (&(len, _), &count) in classes.iter().zip(&counts) {
        if count == 0 {
            continue;
        }
        let stride = 1u128 << (af.width() - len);
        out.push(LenClass {
            len,
            start,
            count,
            base,
        });
        start += count;
        base += stride * count as u128;
        assert!(
            base <= limit,
            "prefix plan overflows address space: {n} {af:?} prefixes need \
             {base:#x} > {limit:#x}; reduce the prefix count"
        );
    }
    out
}

/// The DFZ prefix table as a pure function of rank.
///
/// Resident memory is `O(classes + ases)` — a dozen length classes and one
/// cumulative boundary per AS — regardless of prefix count.
#[derive(Debug, Clone)]
pub struct PrefixPlan {
    params: DfzPlanParams,
    classes_v4: Vec<LenClass>,
    classes_v6: Vec<LenClass>,
    /// Cumulative Zipf(1.1) AS sizes over the IPv4 rank space:
    /// `as_cum[a]` = first rank NOT owned by AS rank `a`.
    as_cum: Vec<u64>,
    perm_v4: Perm,
    perm_v6: Perm,
}

/// Zipf exponent for AS table-share (how many prefixes an AS originates).
const AS_SIZE_ALPHA: f64 = 1.1;

impl PrefixPlan {
    /// Build the plan. `O(ases)` work and memory.
    pub fn new(params: DfzPlanParams) -> Self {
        assert!(params.v4_prefixes >= 1, "need at least one IPv4 prefix");
        assert!(params.ases >= 1, "need at least one AS");
        let classes_v4 = carve(V4_CLASSES, params.v4_prefixes, Af::V4, V4_BASE, 1 << 32);
        let classes_v6 = if params.v6_prefixes > 0 {
            carve(V6_CLASSES, params.v6_prefixes, Af::V6, V6_BASE, V6_LIMIT)
        } else {
            Vec::new()
        };
        // Zipf AS sizes: AS rank a owns ranks [as_cum[a-1], as_cum[a]).
        let a = params.ases as usize;
        let mut h = 0.0f64;
        let mut weights = Vec::with_capacity(a);
        for i in 1..=a {
            let w = (i as f64).powf(-AS_SIZE_ALPHA);
            h += w;
            weights.push(h);
        }
        let n = params.v4_prefixes;
        let mut as_cum: Vec<u64> = weights
            .iter()
            .map(|&c| ((c / h) * n as f64).round() as u64)
            .collect();
        // Monotone, total, and every AS non-empty where space allows.
        let mut prev = 0u64;
        for (i, c) in as_cum.iter_mut().enumerate() {
            let floor = (prev + 1).min(n - (a - 1 - i) as u64);
            *c = (*c).clamp(floor, n);
            prev = *c;
        }
        *as_cum.last_mut().expect("ases >= 1") = n;
        PrefixPlan {
            classes_v4,
            classes_v6,
            as_cum,
            perm_v4: Perm::new(params.v4_prefixes, mix(params.seed, S_PERM_V4)),
            perm_v6: Perm::new(params.v6_prefixes.max(1), mix(params.seed, S_PERM_V6)),
            params,
        }
    }

    /// The parameters the plan was built from.
    pub fn params(&self) -> &DfzPlanParams {
        &self.params
    }

    /// Prefix count for a family.
    pub fn len(&self, af: Af) -> u64 {
        match af {
            Af::V4 => self.params.v4_prefixes,
            Af::V6 => self.params.v6_prefixes,
        }
    }

    /// True if the family has no prefixes.
    pub fn is_empty(&self, af: Af) -> bool {
        self.len(af) == 0
    }

    fn classes(&self, af: Af) -> &[LenClass] {
        match af {
            Af::V4 => &self.classes_v4,
            Af::V6 => &self.classes_v6,
        }
    }

    /// The prefix at a plan *slot* (pre-permutation address-order position).
    fn prefix_at_slot(&self, af: Af, slot: u64) -> Prefix {
        let classes = self.classes(af);
        // ≤ a dozen classes: linear scan beats binary search.
        let c = classes
            .iter()
            .rev()
            .find(|c| c.start <= slot)
            .expect("slot within plan");
        debug_assert!(slot - c.start < c.count);
        let stride = 1u128 << (af.width() - c.len);
        Prefix::of(
            Addr::new(af, c.base + stride * (slot - c.start) as u128),
            c.len,
        )
    }

    /// The prefix at popularity rank `rank` (0 = most popular). O(1).
    pub fn prefix(&self, af: Af, rank: u64) -> Prefix {
        debug_assert!(rank < self.len(af), "rank {rank} out of range");
        let slot = match af {
            Af::V4 => self.perm_v4.apply(rank),
            Af::V6 => self.perm_v6.apply(rank),
        };
        self.prefix_at_slot(af, slot)
    }

    /// AS rank (0 = biggest) originating the prefix at `rank`. IPv6 ranks are
    /// projected onto the IPv4 Zipf boundaries so both families share one AS
    /// population. O(log ases).
    pub fn as_rank_of(&self, af: Af, rank: u64) -> u32 {
        let r4 = match af {
            Af::V4 => rank,
            Af::V6 => {
                debug_assert!(self.params.v6_prefixes > 0);
                rank * self.params.v4_prefixes / self.params.v6_prefixes
            }
        };
        self.as_cum.partition_point(|&c| c <= r4) as u32
    }

    /// Origin ASN of the prefix at `rank`.
    pub fn origin_asn(&self, af: Af, rank: u64) -> u32 {
        AS_BASE + self.as_rank_of(af, rank)
    }

    /// The rank range `[lo, hi)` owned by an AS rank in the IPv4 space.
    pub fn as_rank_range(&self, as_rank: u32) -> (u64, u64) {
        let lo = if as_rank == 0 {
            0
        } else {
            self.as_cum[as_rank as usize - 1]
        };
        (lo, self.as_cum[as_rank as usize])
    }
}

// ---------------------------------------------------------------------------
// Churn model
// ---------------------------------------------------------------------------

/// Route-churn parameters. Rates follow the appearance/disappearance +
/// next-hop flap decomposition of Mehner et al. (PAPERS.md): a fraction of
/// prefixes carries each process; per-prefix periods are hash-scaled around
/// the configured means so the population decorrelates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Epoch all phases are anchored to (unix seconds). Queries before the
    /// epoch saturate to it.
    pub epoch: u64,
    /// Fraction of prefixes with a next-hop flap process.
    pub flap_fraction: f64,
    /// Mean seconds between flaps for a flapping prefix.
    pub flap_mean_secs: u64,
    /// Fraction of prefixes that appear/disappear.
    pub updown_fraction: f64,
    /// Mean visible duration.
    pub up_mean_secs: u64,
    /// Mean withdrawn duration.
    pub down_mean_secs: u64,
    /// Seed for all churn decisions.
    pub seed: u64,
}

impl ChurnConfig {
    /// Default churn shape: 10 % of prefixes flap roughly hourly; 5 % come
    /// and go with two-hour up / fifteen-minute down cycles.
    pub fn default_rates(epoch: u64, seed: u64) -> Self {
        ChurnConfig {
            epoch,
            flap_fraction: 0.10,
            flap_mean_secs: 3600,
            updown_fraction: 0.05,
            up_mean_secs: 7200,
            down_mean_secs: 900,
            seed,
        }
    }

    /// No churn at all: a static table.
    pub fn none(epoch: u64, seed: u64) -> Self {
        ChurnConfig {
            epoch,
            flap_fraction: 0.0,
            flap_mean_secs: 3600,
            updown_fraction: 0.0,
            up_mean_secs: 7200,
            down_mean_secs: 900,
            seed,
        }
    }
}

/// Closed-form per-prefix churn state. All queries O(1); no history replay.
#[derive(Debug, Clone, Copy)]
pub struct ChurnModel {
    cfg: ChurnConfig,
}

/// A flapping prefix's renewal process: event `k` fires at
/// `epoch + phase + k·period + jitter(k)` with `jitter < period/4`, so events
/// are strictly increasing with gaps ≥ `3·period/4`.
#[derive(Debug, Clone, Copy)]
struct FlapShape {
    period: f64,
    phase: f64,
}

/// An up/down prefix's square wave: within each cycle of `period` seconds the
/// prefix is visible for the first `up` seconds, withdrawn for the rest. The
/// wave is offset by `phase`.
#[derive(Debug, Clone, Copy)]
struct UpDownShape {
    up: f64,
    period: f64,
    phase: f64,
}

impl ChurnModel {
    /// Wrap a config.
    pub fn new(cfg: ChurnConfig) -> Self {
        assert!(cfg.flap_mean_secs >= 4, "flap mean too small");
        assert!(cfg.up_mean_secs >= 4 && cfg.down_mean_secs >= 4);
        ChurnModel { cfg }
    }

    /// The config.
    pub fn config(&self) -> &ChurnConfig {
        &self.cfg
    }

    /// Does this prefix carry a next-hop flap process?
    pub fn is_flapper(&self, af: Af, rank: u64) -> bool {
        unit_f64(hrank(self.cfg.seed, S_FLAP_SEL, af, rank)) < self.cfg.flap_fraction
    }

    /// Does this prefix appear/disappear?
    pub fn is_updown(&self, af: Af, rank: u64) -> bool {
        unit_f64(hrank(self.cfg.seed, S_UPDOWN_SEL, af, rank)) < self.cfg.updown_fraction
    }

    fn flap_shape(&self, af: Af, rank: u64) -> FlapShape {
        let h = hrank(self.cfg.seed, S_FLAP_PERIOD, af, rank);
        // Period in [0.5, 1.5) × mean; phase uniform in [0, period).
        let period = self.cfg.flap_mean_secs as f64 * (0.5 + unit_f64(h));
        let phase = unit_f64(mix(h, 1)) * period;
        FlapShape { period, phase }
    }

    fn flap_jitter(&self, af: Af, rank: u64, k: u64, period: f64) -> f64 {
        unit_f64(mix(hrank(self.cfg.seed, S_FLAP_JITTER, af, rank), k)) * period * 0.25
    }

    /// Number of next-hop flaps of this prefix in `[epoch, t)`. O(1), exact,
    /// monotone in `t`. Zero for non-flappers.
    pub fn flap_count(&self, af: Af, rank: u64, t: u64) -> u64 {
        if !self.is_flapper(af, rank) || t <= self.cfg.epoch {
            return 0;
        }
        let s = self.flap_shape(af, rank);
        let delta = (t - self.cfg.epoch) as f64 - s.phase;
        if delta < 0.0 {
            return 0;
        }
        // Events 0..q fire strictly before epoch+phase+q·period ≤ t; event q
        // itself fires iff its jitter lands inside the remaining fraction.
        let q = (delta / s.period).floor() as u64;
        let frac = delta - q as f64 * s.period;
        q + u64::from(self.flap_jitter(af, rank, q, s.period) < frac)
    }

    /// The exact flap event times of this prefix inside `[t0, t1)`.
    /// Yields nothing for non-flappers.
    pub fn flap_times_in(
        &self,
        af: Af,
        rank: u64,
        t0: u64,
        t1: u64,
    ) -> impl Iterator<Item = u64> + '_ {
        let shape = self.is_flapper(af, rank).then(|| self.flap_shape(af, rank));
        let cfg = self.cfg;
        let model = *self;
        shape
            .into_iter()
            .flat_map(move |s| {
                let lo = (t0.max(cfg.epoch) - cfg.epoch) as f64 - s.phase;
                let k0 = ((lo / s.period).floor() as i64 - 1).max(0) as u64;
                let hi = (t1.max(cfg.epoch) - cfg.epoch) as f64 - s.phase;
                let k1 = (hi / s.period).ceil().max(0.0) as u64 + 1;
                (k0..k1).map(move |k| {
                    let ts = cfg.epoch as f64
                        + s.phase
                        + k as f64 * s.period
                        + model.flap_jitter(af, rank, k, s.period);
                    ts as u64
                })
            })
            .filter(move |&ts| ts >= t0 && ts < t1)
    }

    fn updown_shape(&self, af: Af, rank: u64) -> UpDownShape {
        let h = hrank(self.cfg.seed, S_UPDOWN_SHAPE, af, rank);
        let up = self.cfg.up_mean_secs as f64 * (0.5 + unit_f64(h));
        let down = self.cfg.down_mean_secs as f64 * (0.5 + unit_f64(mix(h, 1)));
        let period = up + down;
        let phase = unit_f64(mix(h, 2)) * period;
        UpDownShape { up, period, phase }
    }

    /// Is the prefix announced at time `t`? Always true for non-up/down
    /// prefixes. O(1).
    pub fn visible(&self, af: Af, rank: u64, t: u64) -> bool {
        if !self.is_updown(af, rank) {
            return true;
        }
        let s = self.updown_shape(af, rank);
        let x = (t.max(self.cfg.epoch) - self.cfg.epoch) as f64;
        (x - s.phase).rem_euclid(s.period) < s.up
    }

    /// Appearance (`true`) / disappearance (`false`) transitions of this
    /// prefix inside `[t0, t1)`, time-ordered. Empty for non-up/down prefixes.
    pub fn updown_transitions_in(
        &self,
        af: Af,
        rank: u64,
        t0: u64,
        t1: u64,
    ) -> impl Iterator<Item = (u64, bool)> + '_ {
        let shape = self
            .is_updown(af, rank)
            .then(|| self.updown_shape(af, rank));
        let cfg = self.cfg;
        shape
            .into_iter()
            .flat_map(move |s| {
                let lo = (t0.max(cfg.epoch) - cfg.epoch) as f64 - s.phase;
                let k0 = ((lo / s.period).floor() as i64 - 1).max(0) as u64;
                let hi = (t1.max(cfg.epoch) - cfg.epoch) as f64 - s.phase;
                let k1 = (hi / s.period).ceil().max(0.0) as u64 + 1;
                (k0..k1).flat_map(move |k| {
                    let cycle = cfg.epoch as f64 + s.phase + k as f64 * s.period;
                    [(cycle as u64, true), ((cycle + s.up) as u64, false)]
                })
            })
            .filter(move |&(ts, _)| ts >= t0 && ts < t1)
    }
}

// ---------------------------------------------------------------------------
// Churn event stream
// ---------------------------------------------------------------------------

/// What happened to a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// The prefix became visible (announced).
    Appear,
    /// The prefix was withdrawn.
    Disappear,
    /// The prefix's best route moved to another of its AS's links. The
    /// payload is the flap ordinal (its current next-hop slot offset).
    NextHopFlap(u64),
}

/// One route-churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Event time (unix seconds).
    pub ts: u64,
    /// Address family of the prefix.
    pub af: Af,
    /// Popularity rank of the prefix.
    pub rank: u64,
    /// The concrete prefix.
    pub prefix: Prefix,
    /// What happened.
    pub kind: ChurnKind,
}

/// Time-ordered stream of churn events over `[t0, t1)`.
///
/// Construction scans the rank space once to collect churner indices (memory
/// bounded by the churn fractions); iteration then steps fixed windows,
/// computing each churner's O(1) events per window. Events are globally
/// ordered by `(ts, af, rank)`; per-prefix timestamps are strictly monotone
/// for flaps and alternate appear/disappear for up/down prefixes.
pub struct ChurnStream<'a> {
    plan: &'a PrefixPlan,
    model: &'a ChurnModel,
    /// Packed churners: `famtag | rank`.
    flappers: Vec<u64>,
    updowners: Vec<u64>,
    cursor: u64,
    end: u64,
    window: u64,
    buf: std::vec::IntoIter<ChurnEvent>,
}

fn unpack(p: u64) -> (Af, u64) {
    if p & (1 << 40) != 0 {
        (Af::V6, p & ((1 << 40) - 1))
    } else {
        (Af::V4, p)
    }
}

impl<'a> ChurnStream<'a> {
    /// Stream all churn events in `[t0, t1)`, batched in `window`-second
    /// sorting windows (60 s is a good default).
    pub fn new(plan: &'a PrefixPlan, model: &'a ChurnModel, t0: u64, t1: u64, window: u64) -> Self {
        assert!(window >= 1);
        let mut flappers = Vec::new();
        let mut updowners = Vec::new();
        for af in [Af::V4, Af::V6] {
            for rank in 0..plan.len(af) {
                if model.is_flapper(af, rank) {
                    flappers.push(famtag(af) | rank);
                }
                if model.is_updown(af, rank) {
                    updowners.push(famtag(af) | rank);
                }
            }
        }
        ChurnStream {
            plan,
            model,
            flappers,
            updowners,
            cursor: t0,
            end: t1,
            window,
            buf: Vec::new().into_iter(),
        }
    }

    fn fill_window(&mut self) {
        let w0 = self.cursor;
        let w1 = (w0 + self.window).min(self.end);
        self.cursor = w1;
        let mut events = Vec::new();
        for &p in &self.flappers {
            let (af, rank) = unpack(p);
            let base = self.model.flap_count(af, rank, w0);
            for (i, ts) in self.model.flap_times_in(af, rank, w0, w1).enumerate() {
                events.push(ChurnEvent {
                    ts,
                    af,
                    rank,
                    prefix: self.plan.prefix(af, rank),
                    kind: ChurnKind::NextHopFlap(base + i as u64 + 1),
                });
            }
        }
        for &p in &self.updowners {
            let (af, rank) = unpack(p);
            for (ts, up) in self.model.updown_transitions_in(af, rank, w0, w1) {
                events.push(ChurnEvent {
                    ts,
                    af,
                    rank,
                    prefix: self.plan.prefix(af, rank),
                    kind: if up {
                        ChurnKind::Appear
                    } else {
                        ChurnKind::Disappear
                    },
                });
            }
        }
        events.sort_by_key(|e| (e.ts, famtag(e.af), e.rank));
        self.buf = events.into_iter();
    }
}

impl Iterator for ChurnStream<'_> {
    type Item = ChurnEvent;

    fn next(&mut self) -> Option<ChurnEvent> {
        loop {
            if let Some(e) = self.buf.next() {
                return Some(e);
            }
            if self.cursor >= self.end {
                return None;
            }
            self.fill_window();
        }
    }
}

// ---------------------------------------------------------------------------
// AS → links and the route view
// ---------------------------------------------------------------------------

/// Per-AS candidate ingress links, assigned by hash against a
/// [`ScaleTopology`]. Memory `O(Σ links per AS)` — a few entries per AS.
/// Big ASes (low rank) get many links (the paper's CDNs peer everywhere);
/// the tail gets one or two. Distinct within an AS; sharing across ASes is
/// allowed (an IXP port serves many peers).
#[derive(Debug, Clone)]
pub struct AsLinks {
    offsets: Vec<u32>,
    links: Vec<LinkId>,
}

impl AsLinks {
    /// Assign links for `ases` ASes over the topology's link table.
    pub fn new(topo: &ScaleTopology, ases: u32, seed: u64) -> Self {
        let l = topo.link_count() as u64;
        let mut offsets = Vec::with_capacity(ases as usize + 1);
        let mut links: Vec<LinkId> = Vec::new();
        offsets.push(0);
        for a in 0..ases as u64 {
            let want = match a {
                0..=7 => 12usize,
                8..=63 => 6,
                64..=511 => 3,
                _ => 1 + (mix3(seed, S_AS_LINKS, a) & 1) as usize,
            }
            .min(l as usize);
            let start = links.len();
            let mut attempt = 0u64;
            while links.len() - start < want {
                let cand = (mix3(seed, S_AS_LINKS ^ 0xFF, (a << 20) | attempt) % l) as LinkId;
                attempt += 1;
                if !links[start..].contains(&cand) {
                    links.push(cand);
                }
            }
            offsets.push(links.len() as u32);
        }
        AsLinks { offsets, links }
    }

    /// The candidate links of an AS rank.
    pub fn links_of(&self, as_rank: u32) -> &[LinkId] {
        let a = as_rank as usize;
        &self.links[self.offsets[a] as usize..self.offsets[a + 1] as usize]
    }

    /// Number of ASes.
    pub fn ases(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }
}

/// The current best route of a prefix: which link (and so which router and
/// interface) traffic from it enters on, given the churn state at `t`.
///
/// `home + flap_count` walks the AS's link slice round-robin, so a flap
/// always moves the prefix to the *next* candidate link.
pub fn current_link(
    plan: &PrefixPlan,
    model: &ChurnModel,
    as_links: &AsLinks,
    af: Af,
    rank: u64,
    t: u64,
) -> LinkId {
    let as_rank = plan.as_rank_of(af, rank);
    let candidates = as_links.links_of(as_rank);
    let n = candidates.len() as u64;
    let home = hrank(model.config().seed, S_HOME_LINK, af, rank) % n;
    let slot = (home + model.flap_count(af, rank, t)) % n;
    candidates[slot as usize]
}

/// One entry of the DFZ routing table view at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfzRoute {
    /// The prefix.
    pub prefix: Prefix,
    /// Popularity rank within its family.
    pub rank: u64,
    /// Origin ASN.
    pub origin_asn: u32,
    /// Current best link (valid even while withdrawn: where it would land).
    pub link: LinkId,
    /// Is the prefix announced at the query time?
    pub visible: bool,
}

/// Streaming iterator over the full table (both families) at time `t`.
/// O(1) memory per item.
pub fn routes_at<'a>(
    plan: &'a PrefixPlan,
    model: &'a ChurnModel,
    as_links: &'a AsLinks,
    t: u64,
) -> impl Iterator<Item = DfzRoute> + 'a {
    [Af::V4, Af::V6].into_iter().flat_map(move |af| {
        (0..plan.len(af)).map(move |rank| DfzRoute {
            prefix: plan.prefix(af, rank),
            rank,
            origin_asn: plan.origin_asn(af, rank),
            link: current_link(plan, model, as_links, af, rank, t),
            visible: model.visible(af, rank, t),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_topology::ScaleParams;

    #[test]
    fn perm_is_bijective() {
        for &n in &[1u64, 2, 10, 100, 1000, 4096, 10_007] {
            let p = Perm::new(n, 0xDEAD_BEEF ^ n);
            let mut seen = vec![false; n as usize];
            for x in 0..n {
                let y = p.apply(x);
                assert!(y < n, "n={n} x={x} -> {y}");
                assert!(!seen[y as usize], "collision at n={n} x={x}");
                seen[y as usize] = true;
            }
        }
    }

    fn plan_10k() -> PrefixPlan {
        PrefixPlan::new(DfzPlanParams::tier(7, 10_000))
    }

    #[test]
    fn plan_covers_and_is_disjoint() {
        let plan = plan_10k();
        let mut seen = std::collections::HashSet::new();
        for rank in 0..plan.len(Af::V4) {
            let p = plan.prefix(Af::V4, rank);
            assert!(seen.insert(p), "duplicate prefix {p} at rank {rank}");
            assert!((12..=24).contains(&p.len()));
        }
        // Stride layout ⇒ no prefix contains another: all same-length within
        // a class, classes in disjoint regions. Spot-check across classes.
        let all: Vec<Prefix> = seen.iter().copied().collect();
        for w in all.windows(2).take(500) {
            assert!(!w[0].contains_prefix(w[1]) && !w[1].contains_prefix(w[0]));
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let a = plan_10k();
        let b = plan_10k();
        for rank in (0..10_000).step_by(97) {
            assert_eq!(a.prefix(Af::V4, rank), b.prefix(Af::V4, rank));
            assert_eq!(a.origin_asn(Af::V4, rank), b.origin_asn(Af::V4, rank));
        }
        let c = PrefixPlan::new(DfzPlanParams {
            seed: 8,
            ..*a.params()
        });
        let diff = (0..10_000u64)
            .filter(|&r| a.prefix(Af::V4, r) != c.prefix(Af::V4, r))
            .count();
        assert!(diff > 5_000, "different seed must reshuffle ({diff})");
    }

    #[test]
    fn as_sizes_are_zipf_and_total() {
        let plan = plan_10k();
        let n = plan.len(Af::V4);
        let ases = plan.params().ases;
        let (lo0, hi0) = plan.as_rank_range(0);
        assert_eq!(lo0, 0);
        let (_, hi_last) = plan.as_rank_range(ases - 1);
        assert_eq!(hi_last, n);
        // Biggest AS owns much more than an equal share.
        assert!(hi0 > 5 * (n / ases as u64));
        // Boundaries monotone; membership agrees with as_rank_of.
        for a in 1..ases {
            let (lo, hi) = plan.as_rank_range(a);
            assert!(lo <= hi, "range collapsed");
            assert!(plan.as_rank_range(a - 1).1 == lo);
        }
        assert_eq!(plan.as_rank_of(Af::V4, 0), 0);
        assert_eq!(plan.as_rank_of(Af::V4, n - 1), ases - 1);
    }

    #[test]
    fn v6_shares_the_as_population() {
        let plan = plan_10k();
        assert!(plan.len(Af::V6) == 2000);
        let p = plan.prefix(Af::V6, 0);
        assert_eq!(p.af(), Af::V6);
        assert!((32..=48).contains(&p.len()));
        // Rank 0 of both families belongs to the biggest AS.
        assert_eq!(plan.as_rank_of(Af::V6, 0), 0);
        assert!(plan.origin_asn(Af::V6, plan.len(Af::V6) - 1) >= AS_BASE);
    }

    #[test]
    fn dfz_plan_fits_address_space() {
        // The acceptance-scale plan must construct (asserts internally).
        let plan = PrefixPlan::new(DfzPlanParams::dfz(1));
        assert_eq!(plan.len(Af::V4), 1_048_576);
        assert_eq!(plan.len(Af::V6), 204_800);
        let p = plan.prefix(Af::V4, 1_048_575);
        assert!(p.addr().bits() < (1 << 32));
    }

    fn model() -> ChurnModel {
        ChurnModel::new(ChurnConfig::default_rates(1_700_000_000, 42))
    }

    #[test]
    fn flap_count_monotone_and_matches_times() {
        let m = model();
        let epoch = m.config().epoch;
        let rank = (0..10_000)
            .find(|&r| m.is_flapper(Af::V4, r))
            .expect("some flapper in 10k");
        let mut prev = 0;
        for t in (epoch..epoch + 4 * 3600).step_by(61) {
            let c = m.flap_count(Af::V4, rank, t);
            assert!(c >= prev, "flap_count must be monotone");
            prev = c;
        }
        // Event view consistent with the closed form.
        let t1 = epoch + 6 * 3600;
        let times: Vec<u64> = m.flap_times_in(Af::V4, rank, epoch, t1).collect();
        assert_eq!(times.len() as u64, m.flap_count(Af::V4, rank, t1));
        for w in times.windows(2) {
            assert!(w[0] < w[1], "flap times strictly increasing");
        }
    }

    #[test]
    fn updown_transitions_match_visibility() {
        let m = model();
        let epoch = m.config().epoch;
        let rank = (0..10_000)
            .find(|&r| m.is_updown(Af::V4, r))
            .expect("some up/down prefix in 10k");
        let t1 = epoch + 24 * 3600;
        let trans: Vec<(u64, bool)> = m.updown_transitions_in(Af::V4, rank, epoch, t1).collect();
        assert!(!trans.is_empty());
        for w in trans.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert_ne!(w[0].1, w[1].1, "appear/disappear must alternate");
        }
        // Just after an appearance the prefix is visible; just after a
        // disappearance it is not.
        for &(ts, up) in &trans {
            assert_eq!(m.visible(Af::V4, rank, ts + 1), up, "at {ts}");
        }
    }

    #[test]
    fn non_churners_are_static() {
        let m = model();
        let rank = (0..10_000)
            .find(|&r| !m.is_flapper(Af::V4, r) && !m.is_updown(Af::V4, r))
            .unwrap();
        let epoch = m.config().epoch;
        assert!(m.visible(Af::V4, rank, epoch + 999_999));
        assert_eq!(m.flap_count(Af::V4, rank, epoch + 999_999), 0);
        assert_eq!(m.flap_times_in(Af::V4, rank, 0, u64::MAX / 2).count(), 0);
    }

    #[test]
    fn churn_stream_ordered_and_consistent() {
        let plan = plan_10k();
        let m = model();
        let epoch = m.config().epoch;
        let (t0, t1) = (epoch, epoch + 2 * 3600);
        let events: Vec<ChurnEvent> = ChurnStream::new(&plan, &m, t0, t1, 60).collect();
        assert!(!events.is_empty());
        let mut last_ts = 0;
        let mut per_prefix: std::collections::HashMap<(u64, u64), u64> = Default::default();
        for e in &events {
            assert!(e.ts >= last_ts, "global order by ts");
            assert!(e.ts >= t0 && e.ts < t1);
            last_ts = e.ts;
            let k = (famtag(e.af), e.rank);
            if let Some(&p) = per_prefix.get(&k) {
                assert!(e.ts >= p, "per-prefix monotone");
            }
            per_prefix.insert(k, e.ts);
            assert_eq!(e.prefix, plan.prefix(e.af, e.rank));
        }
        // Flap ordinals agree with flap_count at window end.
        for e in events.iter().rev() {
            if let ChurnKind::NextHopFlap(ord) = e.kind {
                assert!(ord <= m.flap_count(e.af, e.rank, t1));
                break;
            }
        }
    }

    #[test]
    fn as_links_distinct_and_sized() {
        let topo = ScaleTopology::new(ScaleParams::scaled(5, 0.05));
        let al = AsLinks::new(&topo, 256, 9);
        assert_eq!(al.ases(), 256);
        assert_eq!(al.links_of(0).len(), 12.min(topo.link_count() as usize));
        assert_eq!(al.links_of(10).len(), 6);
        assert_eq!(al.links_of(200).len(), 3);
        for a in 0..256 {
            let ls = al.links_of(a);
            let set: std::collections::HashSet<_> = ls.iter().collect();
            assert_eq!(set.len(), ls.len(), "AS {a} links must be distinct");
            for &l in ls {
                assert!(l < topo.link_count());
            }
        }
    }

    #[test]
    fn current_link_round_robins_on_flap() {
        let topo = ScaleTopology::new(ScaleParams::scaled(5, 0.05));
        let plan = plan_10k();
        let m = model();
        let al = AsLinks::new(&topo, plan.params().ases, 9);
        let epoch = m.config().epoch;
        let rank = (0..10_000)
            .find(|&r| {
                m.is_flapper(Af::V4, r) && al.links_of(plan.as_rank_of(Af::V4, r)).len() >= 2
            })
            .unwrap();
        let l0 = current_link(&plan, &m, &al, Af::V4, rank, epoch);
        let flap_ts = m
            .flap_times_in(Af::V4, rank, epoch, epoch + 48 * 3600)
            .next()
            .unwrap();
        let l1 = current_link(&plan, &m, &al, Af::V4, rank, flap_ts + 1);
        assert_ne!(l0, l1, "a flap must move the prefix to another link");
        let cands = al.links_of(plan.as_rank_of(Af::V4, rank));
        assert!(cands.contains(&l0) && cands.contains(&l1));
    }

    #[test]
    fn routes_at_streams_both_families() {
        let topo = ScaleTopology::new(ScaleParams::scaled(5, 0.05));
        let plan = PrefixPlan::new(DfzPlanParams::tier(7, 1000));
        let m = model();
        let al = AsLinks::new(&topo, plan.params().ases, 9);
        let routes: Vec<DfzRoute> = routes_at(&plan, &m, &al, m.config().epoch + 100).collect();
        assert_eq!(routes.len(), 1000 + 200);
        assert!(routes.iter().any(|r| r.prefix.af() == Af::V6));
        assert!(routes.iter().filter(|r| !r.visible).count() < routes.len() / 10);
    }
}
