//! AS population: traffic shares, kinds, behaviors, and address space.

use ipd_lpm::{Addr, Prefix};
use rand::Rng;

/// What kind of network an AS is — drives link class, placement, and
/// dynamics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsKind {
    /// Content delivery network: many PNI links, /28-granular server
    /// mappings, demand-driven remapping.
    Cdn,
    /// Cloud provider: PNI links, moderately dynamic.
    Cloud,
    /// Tier-1 peer: settlement-free peering links at a few PoPs.
    Tier1,
    /// Transit/regional network.
    Transit,
    /// Stub / enterprise network: one or two links, static.
    Stub,
}

/// Scripted per-AS dynamics, used to reproduce the miss taxonomy of §5.1.2.
#[derive(Debug, Clone, PartialEq)]
pub enum AsBehavior {
    /// No scripted events (background remap rate still applies).
    Stable,
    /// The paper's AS1: a router with a link bundle undergoes maintenance at
    /// fixed local hours, shifting traffic to two other interfaces on the
    /// same router → *interface misses*.
    MaintenanceBundle {
        /// Hours of day (local) the maintenance windows start.
        hours: Vec<u8>,
        /// Window length in minutes.
        duration_min: u32,
    },
    /// The paper's AS4: large regions (/12–/15) are remapped to another
    /// ingress in proportion to demand → diurnal *PoP/router misses*.
    DiurnalRemap {
        /// Fraction of regions remapped at peak.
        peak_fraction: f64,
    },
    /// The paper's AS3: user↔server mapping flaps between countries,
    /// correlated with load → *PoP misses*.
    PopFlap {
        /// Per-region flap probability per hour at peak.
        rate_per_hour: f64,
    },
    /// The pathological case of §5.8: the AS balances flows over two routers
    /// per granule, which IPD intentionally cannot classify.
    LoadBalanced,
}

/// One neighbor AS: identity, traffic weight, address space, link layout.
#[derive(Debug, Clone)]
pub struct AsProfile {
    /// AS number.
    pub asn: u32,
    /// Kind (drives link class and dynamics).
    pub kind: AsKind,
    /// Scripted behavior.
    pub behavior: AsBehavior,
    /// Fraction of total ingress traffic (sums to 1 across the population).
    pub traffic_share: f64,
    /// Prefixes this AS originates (its source address space).
    pub prefixes: Vec<Prefix>,
    /// Number of links to the ISP.
    pub n_links: usize,
    /// Number of PoPs those links are spread over.
    pub n_pops: usize,
    /// Ground-truth mapping granularity (the CDN of the paper maps at /28;
    /// most networks are modeled at /24).
    pub granule_len: u8,
    /// Region granularity: contiguous blocks sharing a home ingress link.
    pub region_len: u8,
}

impl AsProfile {
    /// Total IPv4 address count of this AS.
    pub fn address_space(&self) -> f64 {
        self.prefixes.iter().map(|p| p.num_addrs()).sum()
    }
}

/// Zipf shares: `share(i) ∝ 1/(i+1)^alpha`, normalized.
///
/// With `alpha = 1.05` over 50 ASes the top 5 hold ≈ 54 % and the top 20
/// ≈ 81 % of traffic — matching §5.1's "TOP5 … 52% of the total volume …
/// top 20 … 80%".
pub fn zipf_shares(n: usize, alpha: f64) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-alpha)).collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|x| x / sum).collect()
}

/// Mask-length distribution for BGP prefix allocation, following Fig 9's
/// gray bars: /24 announcements are >50 % of the table, /20–/23 hold 5–10 %
/// each, with a tail of larger blocks.
fn sample_mask<R: Rng + ?Sized>(rng: &mut R) -> u8 {
    let x: f64 = rng.random();
    match x {
        x if x < 0.52 => 24,
        x if x < 0.61 => 23,
        x if x < 0.70 => 22,
        x if x < 0.78 => 21,
        x if x < 0.86 => 20,
        x if x < 0.91 => 19,
        x if x < 0.95 => 18,
        x if x < 0.98 => 16,
        x if x < 0.995 => 14,
        _ => 12,
    }
}

/// Allocate the AS population: shares, kinds, behaviors, and address space.
///
/// Address space is carved sequentially from `10.0.0.0`-style blocks per AS
/// — disjoint by construction — with per-prefix masks drawn from the Fig 9
/// distribution until the AS reaches a size proportional to its traffic
/// share (heavier ASes own more space, as hypergiants do).
pub fn allocate_ases<R: Rng + ?Sized>(
    n: usize,
    alpha: f64,
    n_tier1: usize,
    rng: &mut R,
) -> Vec<AsProfile> {
    let shares = zipf_shares(n, alpha);
    let mut out = Vec::with_capacity(n);
    // Each AS gets its own /8 so allocations never collide and there is
    // room for growth; ASNs are 64500 + rank.
    for (rank, &share) in shares.iter().enumerate() {
        let kind = match rank {
            0 | 2 | 3 => AsKind::Cdn, // AS1, AS3, AS4 of the paper are CDNs
            1 => AsKind::Cloud,       // AS2
            r if r >= 4 && r < 4 + n_tier1 => AsKind::Tier1,
            r if r % 3 == 0 => AsKind::Transit,
            _ => AsKind::Stub,
        };
        let behavior = match rank {
            0 => AsBehavior::MaintenanceBundle {
                hours: vec![11, 23],
                duration_min: 45,
            },
            2 => AsBehavior::PopFlap {
                rate_per_hour: 0.05,
            },
            3 => AsBehavior::DiurnalRemap {
                peak_fraction: 0.25,
            },
            _ => AsBehavior::Stable,
        };
        // Address budget: between 2^14 and 2^20 addresses, scaled by share.
        let budget = (share * 64.0 * (1 << 20) as f64).clamp(16384.0, (1 << 20) as f64);
        let base: u32 = ((rank as u32 + 11) % 200 + 11) << 24; // 11.0.0.0/8, 12.0.0.0/8, ...
        let mut cursor: u32 = base;
        let mut allocated = 0.0;
        let mut prefixes = Vec::new();
        while allocated < budget {
            let mask = sample_mask(rng);
            let size = 1u32 << (32 - mask);
            // Align the cursor to the prefix size.
            cursor = (cursor + size - 1) & !(size - 1);
            if cursor.saturating_sub(base) >= 1 << 24 {
                break; // /8 exhausted (cannot happen with the default budget)
            }
            prefixes.push(Prefix::of(Addr::v4(cursor), mask));
            cursor += size;
            allocated += size as f64;
        }
        // Dual stack: the big networks also originate IPv6 space (one /32
        // each, like real hypergiants); IPD maps it at /48 granularity.
        if rank < 12 {
            let v6_base: u128 = (0x2400u128 + rank as u128) << 112;
            prefixes.push(Prefix::of(Addr::v6(v6_base), 32));
        }
        let (n_links, n_pops, granule_len, region_len) = match kind {
            AsKind::Cdn => (10, 6, 28, 16),
            AsKind::Cloud => (8, 5, 26, 16),
            AsKind::Tier1 => (4, 3, 24, 14),
            AsKind::Transit => (3, 2, 24, 16),
            AsKind::Stub => (rng.random_range(1..=2), 1, 24, 18),
        };
        out.push(AsProfile {
            asn: 64500 + rank as u32,
            kind,
            behavior,
            traffic_share: share,
            prefixes,
            n_links,
            n_pops,
            granule_len,
            region_len,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_shares_sum_to_one_and_decrease() {
        let s = zipf_shares(50, 1.05);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for w in s.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn zipf_calibration_matches_paper_targets() {
        let s = zipf_shares(50, 1.05);
        let top5: f64 = s[..5].iter().sum();
        let top20: f64 = s[..20].iter().sum();
        // §5.1: TOP5 = 52 %, TOP20 = 80 %. Accept the shape within a few points.
        assert!((0.45..0.62).contains(&top5), "top5 share {top5}");
        assert!((0.72..0.88).contains(&top20), "top20 share {top20}");
    }

    #[test]
    fn allocation_is_disjoint_and_owned() {
        let mut rng = StdRng::seed_from_u64(42);
        let ases = allocate_ases(30, 1.05, 8, &mut rng);
        assert_eq!(ases.len(), 30);
        // No two prefixes overlap across the whole population.
        let mut all: Vec<Prefix> = ases.iter().flat_map(|a| a.prefixes.clone()).collect();
        all.sort();
        for w in all.windows(2) {
            assert!(
                !w[0].contains_prefix(w[1]) && !w[1].contains_prefix(w[0]),
                "{} overlaps {}",
                w[0],
                w[1]
            );
        }
        for a in &ases {
            assert!(!a.prefixes.is_empty());
            assert!(a.address_space() >= 16384.0);
            assert!(a.n_links >= 1);
            assert!(a.granule_len >= a.region_len);
        }
    }

    #[test]
    fn mask_distribution_is_24_heavy() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut n24 = 0;
        let total = 10_000;
        for _ in 0..total {
            if sample_mask(&mut rng) == 24 {
                n24 += 1;
            }
        }
        let share = n24 as f64 / total as f64;
        assert!((0.48..0.56).contains(&share), "/24 share {share}");
    }

    #[test]
    fn paper_as_roles_are_cast() {
        let mut rng = StdRng::seed_from_u64(1);
        let ases = allocate_ases(50, 1.05, 16, &mut rng);
        assert_eq!(ases[0].kind, AsKind::Cdn);
        assert!(matches!(
            ases[0].behavior,
            AsBehavior::MaintenanceBundle { .. }
        ));
        assert!(matches!(ases[2].behavior, AsBehavior::PopFlap { .. }));
        assert!(matches!(ases[3].behavior, AsBehavior::DiurnalRemap { .. }));
        assert_eq!(ases.iter().filter(|a| a.kind == AsKind::Tier1).count(), 16);
        // CDNs map at /28 like the paper's collaborating CDN.
        assert_eq!(ases[0].granule_len, 28);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = allocate_ases(20, 1.05, 4, &mut StdRng::seed_from_u64(5));
        let b = allocate_ases(20, 1.05, 4, &mut StdRng::seed_from_u64(5));
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.prefixes, y.prefixes);
            assert_eq!(x.n_links, y.n_links);
        }
    }
}
