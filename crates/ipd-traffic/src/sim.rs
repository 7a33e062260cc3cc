//! The flow simulator: sampled, ground-truth-labeled NetFlow records.

use ipd_lpm::{Addr, Prefix};
use ipd_netflow::FlowRecord;
use ipd_topology::{LinkId, RouterId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use crate::diurnal::diurnal_factor;
use crate::world::World;

/// Flow simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Sampled flow records per minute at peak (the paper's deployment sees
    /// ~32 M/min; the default is a 1:200 scale model — remember to scale
    /// `n_cidr` factors accordingly).
    pub flows_per_minute: u64,
    /// Probability a flow enters through a uniformly random (wrong) link:
    /// spoofing, routing noise, measurement error. The paper's `q = 0.95`
    /// tolerates exactly this.
    pub noise_rate: f64,
    /// Fraction of /24 user groups active within any given hour (activity
    /// churn drives range appearance/disappearance, a big part of Fig 2).
    pub activity_fraction: f64,
    /// Advertised sampling interval (1 out of n packets).
    pub sampling_interval: u32,
    /// Fraction of routers whose clock drifts.
    pub drift_router_fraction: f64,
    /// Maximum clock offset (seconds, ±) for drifting routers.
    pub drift_max_offset: i64,
    /// Share of a dual-stacked AS's traffic that is IPv6.
    pub v6_share: f64,
    /// RNG seed for the flow stream (independent of the world seed).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            flows_per_minute: 150_000,
            noise_rate: 0.01,
            activity_fraction: 0.75,
            sampling_interval: 1000,
            drift_router_fraction: 0.05,
            drift_max_offset: 45,
            v6_share: 0.2,
            seed: 0xF10775,
        }
    }
}

/// A generated flow with its ground truth: the link it *actually* entered
/// through (which the evaluation compares against IPD's prediction).
#[derive(Debug, Clone)]
pub struct LabeledFlow {
    /// The flow record as the collector would see it (drifted clock and all).
    pub flow: FlowRecord,
    /// The link the flow truly entered on.
    pub true_link: LinkId,
    /// Index of the source AS in [`World::ases`].
    pub as_idx: usize,
}

/// One simulated minute of traffic.
#[derive(Debug, Clone)]
pub struct MinuteBatch {
    /// Start of the minute (unix seconds, true time).
    pub ts_start: u64,
    /// Flows, sorted by (claimed) timestamp.
    pub flows: Vec<LabeledFlow>,
}

/// The simulator: owns the world, advances it minute by minute, and emits
/// labeled flows.
#[derive(Debug)]
pub struct FlowSim {
    world: World,
    cfg: SimConfig,
    rng: StdRng,
    /// Cumulative AS share for O(log n) AS sampling.
    as_cdf: Vec<f64>,
    /// Per-AS cumulative IPv4 prefix weights (by address count).
    prefix_cdf: Vec<Vec<(f64, Prefix)>>,
    /// Per-AS IPv6 prefixes (uniform weights — a /32 per hypergiant).
    v6_prefixes: Vec<Vec<Prefix>>,
    /// Per-router clock offsets (only drifting routers present).
    drift: HashMap<RouterId, i64>,
    /// All links (for noise flows).
    all_links: Vec<LinkId>,
}

impl FlowSim {
    /// Build a simulator over `world`.
    pub fn new(world: World, cfg: SimConfig) -> FlowSim {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut as_cdf = Vec::with_capacity(world.ases.len());
        let mut acc = 0.0;
        for a in &world.ases {
            acc += a.traffic_share;
            as_cdf.push(acc);
        }
        let prefix_cdf = world
            .ases
            .iter()
            .map(|a| {
                let mut acc = 0.0;
                a.prefixes
                    .iter()
                    .filter(|p| p.af() == ipd_lpm::Af::V4)
                    .map(|p| {
                        acc += p.num_addrs();
                        (acc, *p)
                    })
                    .collect()
            })
            .collect();
        let v6_prefixes = world
            .ases
            .iter()
            .map(|a| {
                a.prefixes
                    .iter()
                    .copied()
                    .filter(|p| p.af() == ipd_lpm::Af::V6)
                    .collect()
            })
            .collect();
        let mut drift: HashMap<RouterId, i64> = HashMap::new();
        for r in world.topology.routers() {
            if rng.random::<f64>() < cfg.drift_router_fraction {
                drift.insert(
                    r.id,
                    rng.random_range(-cfg.drift_max_offset..=cfg.drift_max_offset),
                );
            }
        }
        let all_links = world.topology.links().iter().map(|l| l.id).collect();
        FlowSim {
            world,
            cfg,
            rng,
            as_cdf,
            prefix_cdf,
            v6_prefixes,
            drift,
            all_links,
        }
    }

    /// The world (read access for evaluation).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The config.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Generate the next minute of traffic and advance the world past it.
    pub fn next_minute(&mut self) -> MinuteBatch {
        let ts_start = self.world.now();
        let volume = (self.cfg.flows_per_minute as f64 * diurnal_factor(ts_start)) as u64;
        let mut flows = Vec::with_capacity(volume as usize);
        for _ in 0..volume {
            if let Some(f) = self.one_flow(ts_start) {
                flows.push(f);
            }
        }
        flows.sort_by_key(|f| f.flow.ts);
        self.world.advance_to(ts_start + 60);
        MinuteBatch { ts_start, flows }
    }

    fn one_flow(&mut self, minute_start: u64) -> Option<LabeledFlow> {
        let ts_true = minute_start + self.rng.random_range(0..60u64);
        // Pick the source AS by traffic share.
        let x: f64 = self.rng.random();
        let as_idx = match self
            .as_cdf
            .binary_search_by(|v| v.partial_cmp(&x).expect("finite"))
        {
            Ok(i) | Err(i) => i.min(self.as_cdf.len() - 1),
        };
        // Pick a source address, retrying inactive /24 user groups.
        let mut src = self.random_addr(as_idx);
        let hour = ts_true / 3600;
        for _ in 0..4 {
            if self.is_active(src, hour) {
                break;
            }
            src = self.random_addr(as_idx);
        }
        if !self.is_active(src, hour) {
            return None; // sampled into a quiet corner: no flow this slot
        }
        // Ground truth ingress.
        let choice = self.world.true_choice(src)?.clone();
        let true_link = if self.rng.random::<f64>() < self.cfg.noise_rate {
            self.all_links[self.rng.random_range(0..self.all_links.len())]
        } else {
            choice.pick(&mut self.rng)
        };
        let ingress = self.world.ingress_point_of_link(true_link);
        // Claimed timestamp: the exporting router's clock may drift.
        let ts_claimed = match self.drift.get(&ingress.router) {
            Some(&off) => (ts_true as i64 + off).max(0) as u64,
            None => ts_true,
        };
        // Sampled packet/byte counts: mostly single-packet samples with a
        // heavy-ish tail; bytes correlate with packets (§3.1: corr ≈ 0.82).
        let packets: u32 = 1 + self.geometric(0.45).min(200);
        let bpp = self.rng.random_range(60..1500) as u32;
        // Destination: an ISP-customer address of the same family (CGNAT
        // space for v4, a ULA-style block for v6).
        let dst = match src.af() {
            ipd_lpm::Af::V4 => {
                Addr::v4(0x6440_0000 | self.rng.random_range(0..0x3F_FFFFu32)) // 100.64/10
            }
            ipd_lpm::Af::V6 => Addr::v6((0xfd00u128 << 112) | self.rng.random::<u64>() as u128),
        };
        let flow = FlowRecord {
            ts: ts_claimed,
            src,
            dst,
            router: ingress.router,
            input_if: ingress.ifindex,
            output_if: 0,
            proto: if self.rng.random::<f64>() < 0.8 {
                6
            } else {
                17
            },
            src_port: 443,
            dst_port: self.rng.random_range(1024..u16::MAX),
            packets,
            bytes: packets.saturating_mul(bpp),
        };
        Some(LabeledFlow {
            flow,
            true_link,
            as_idx,
        })
    }

    fn random_addr(&mut self, as_idx: usize) -> Addr {
        // Dual-stacked ASes send a share of their traffic over IPv6.
        let v6 = &self.v6_prefixes[as_idx];
        if !v6.is_empty() && self.rng.random::<f64>() < self.cfg.v6_share {
            let prefix = v6[self.rng.random_range(0..v6.len())];
            return self.random_addr_in(prefix);
        }
        let cdf = &self.prefix_cdf[as_idx];
        let total = cdf.last().expect("ASes own IPv4 prefixes").0;
        let x = self.rng.random::<f64>() * total;
        let i = match cdf.binary_search_by(|(c, _)| c.partial_cmp(&x).expect("finite")) {
            Ok(i) | Err(i) => i.min(cdf.len() - 1),
        };
        let prefix = cdf[i].1;
        self.random_addr_in(prefix)
    }

    fn random_addr_in(&mut self, prefix: Prefix) -> Addr {
        let host_bits = (prefix.af().width() - prefix.len()) as u32;
        // Compose from two draws so > 63 host bits get full entropy.
        let offset: u128 = if host_bits == 0 {
            0
        } else {
            let raw = ((self.rng.random::<u64>() as u128) << 64) | self.rng.random::<u64>() as u128;
            if host_bits >= 128 {
                raw
            } else {
                raw & ((1u128 << host_bits) - 1)
            }
        };
        Addr::new(prefix.af(), prefix.addr().bits() | offset)
    }

    /// Deterministic per-(user-group, hour) activity: a hash decides whether
    /// this group (/24 for IPv4, /40 for IPv6) sends traffic this hour.
    fn is_active(&self, addr: Addr, hour: u64) -> bool {
        let group_len = match addr.af() {
            ipd_lpm::Af::V4 => 24,
            ipd_lpm::Af::V6 => 40,
        };
        let bits = addr.masked(group_len).bits();
        let group = (bits as u64) ^ ((bits >> 64) as u64);
        let h = splitmix64(group ^ hour.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.cfg.seed);
        (h as f64 / u64::MAX as f64) < self.cfg.activity_fraction
    }

    fn geometric(&mut self, p: f64) -> u32 {
        let u: f64 = self.rng.random::<f64>().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - p).ln()) as u32
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig};
    use std::collections::HashMap;

    fn sim(flows_per_minute: u64) -> FlowSim {
        let world = World::generate(WorldConfig::default(), 42);
        FlowSim::new(
            world,
            SimConfig {
                flows_per_minute,
                seed: 7,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn minutes_advance_time_and_volume_follows_diurnal() {
        let mut s = sim(2000);
        let m1 = s.next_minute();
        let m2 = s.next_minute();
        assert_eq!(m2.ts_start, m1.ts_start + 60);
        // Epoch is midnight UTC; volume should be well below peak.
        assert!((m1.flows.len() as f64) < 2000.0 * 0.8);
        // Flows sorted by claimed time.
        for w in m1.flows.windows(2) {
            assert!(w[0].flow.ts <= w[1].flow.ts);
        }
    }

    #[test]
    fn ground_truth_labels_match_flow_ingress() {
        let mut s = sim(3000);
        let m = s.next_minute();
        assert!(!m.flows.is_empty());
        for lf in &m.flows {
            let p = s.world().ingress_point_of_link(lf.true_link);
            assert_eq!(lf.flow.router, p.router);
            assert_eq!(lf.flow.input_if, p.ifindex);
            // AS label matches the address.
            assert_eq!(s.world().as_index_of(lf.flow.src), Some(lf.as_idx));
        }
    }

    #[test]
    fn traffic_shares_follow_zipf() {
        let mut s = sim(8000);
        let mut per_as: HashMap<usize, usize> = HashMap::new();
        for _ in 0..5 {
            for lf in s.next_minute().flows {
                *per_as.entry(lf.as_idx).or_insert(0) += 1;
            }
        }
        let total: usize = per_as.values().sum();
        let top5: usize = (0..5).map(|i| per_as.get(&i).copied().unwrap_or(0)).sum();
        let share = top5 as f64 / total as f64;
        // §5.1: TOP5 ≈ 52 %.
        assert!((0.42..0.66).contains(&share), "top5 traffic share {share}");
    }

    #[test]
    fn noise_rate_is_respected() {
        // Freeze world dynamics so the mapping at generation time is still
        // the mapping when we check.
        let cfg = WorldConfig {
            rates: crate::events::EventRates {
                base_remap_per_hour: 0.0,
                exception_add_per_hour: 0.0,
                night_consolidation_per_hour: 0.0,
                violation_base_per_hour: 0.0,
                ..crate::events::EventRates::default()
            },
            ..WorldConfig::default()
        };
        let world = World::generate(cfg, 42);
        let mut s = FlowSim::new(
            world,
            SimConfig {
                flows_per_minute: 5000,
                noise_rate: 0.0,
                seed: 7,
                ..SimConfig::default()
            },
        );
        let m = s.next_minute();
        assert!(!m.flows.is_empty());
        // With no noise every flow matches its mapping choice.
        for lf in &m.flows {
            let c = s.world().true_choice(lf.flow.src).unwrap();
            let allowed: Vec<_> = std::iter::once(c.primary)
                .chain(c.alternates.iter().map(|a| a.0))
                .collect();
            assert!(allowed.contains(&lf.true_link));
        }
    }

    #[test]
    fn deterministic_stream() {
        let mut a = sim(1000);
        let mut b = sim(1000);
        for _ in 0..3 {
            let ma = a.next_minute();
            let mb = b.next_minute();
            assert_eq!(ma.flows.len(), mb.flows.len());
            for (x, y) in ma.flows.iter().zip(mb.flows.iter()) {
                assert_eq!(x.flow, y.flow);
                assert_eq!(x.true_link, y.true_link);
            }
        }
    }

    #[test]
    fn drifted_routers_report_shifted_clocks() {
        let world = World::generate(WorldConfig::default(), 42);
        let mut s = FlowSim::new(
            world,
            SimConfig {
                flows_per_minute: 5000,
                drift_router_fraction: 1.0,
                drift_max_offset: 600,
                seed: 9,
                ..SimConfig::default()
            },
        );
        let m = s.next_minute();
        // With every router drifting up to ±600 s, some claimed timestamps
        // must fall outside the true minute.
        let outside = m
            .flows
            .iter()
            .filter(|lf| lf.flow.ts < m.ts_start || lf.flow.ts >= m.ts_start + 60)
            .count();
        assert!(outside > 0, "expected drifted timestamps");
    }
}
