//! Adversarial and routing-dynamics scenarios over the DFZ substrate.
//!
//! [`DfzFlowStream`] emits only well-behaved traffic: every flow enters the
//! ISP exactly where the ground-truth RIB says it should. The detector
//! workloads (`ipd-spoof`) need the two failure modes the literature warns
//! about, with exact labels threaded through the stream:
//!
//! * **spoofed** — a flow whose source address is forged from a prefix that
//!   *never* ingresses at the link the flow arrived on (the claimed origin
//!   AS has no candidate route there). Every labeled-spoofed flow provably
//!   violates the generated RIB — the property tests in
//!   `tests/scenario_prop.rs` re-derive this from [`AsLinks`] directly.
//! * **anycast catchment shift** — a *legitimate* flow that arrives at the
//!   pre-flap ingress shortly after its prefix's best route moved (the
//!   catchment lags the control plane). Shift flows exist only inside
//!   `[flap, flap + shift_lag_secs)` windows of real [`ChurnModel`] events,
//!   and always at a link the origin AS legitimately announces.
//!
//! The stream stays a deterministic function of the seed and keeps the
//! non-decreasing-timestamp invariant the bucket driver requires: injected
//! flows are stamped with the second of the base draw they ride on.
//!
//! [`AsLinks`]: ipd_bgp::dfz::AsLinks
//! [`ChurnModel`]: ipd_bgp::dfz::ChurnModel

use ipd_lpm::{Addr, Af};
use ipd_netflow::FlowRecord;
use ipd_topology::scale::{mix, mix3, unit_f64};
use ipd_topology::LinkId;

use crate::dfz::{DfzConfig, DfzFlowStream, DfzWorld};

/// Hash stream namespace for scenario decisions ("SPFSCEN").
const S_SCENARIO: u64 = 0x0053_5046_5343_454E;

/// Ground truth attached to every scenario flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowLabel {
    /// Well-behaved traffic at the current best ingress.
    Legit,
    /// Source address forged from a prefix with no route at the arrival link.
    Spoofed,
    /// Legitimate source arriving at the pre-flap ingress during a
    /// catchment-lag window.
    Shift,
}

impl FlowLabel {
    /// Stable wire code (used by the `ipd-spoof` verdict record codec).
    pub fn code(self) -> u8 {
        match self {
            FlowLabel::Legit => 0,
            FlowLabel::Spoofed => 1,
            FlowLabel::Shift => 2,
        }
    }

    /// Inverse of [`FlowLabel::code`].
    pub fn from_code(code: u8) -> Option<FlowLabel> {
        match code {
            0 => Some(FlowLabel::Legit),
            1 => Some(FlowLabel::Spoofed),
            2 => Some(FlowLabel::Shift),
            _ => None,
        }
    }
}

/// A flow record with scenario ground truth attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioFlow {
    /// The record as the engine and detector see it.
    pub flow: FlowRecord,
    /// Family of the claimed source prefix.
    pub af: Af,
    /// Popularity rank of the claimed source prefix.
    pub rank: u64,
    /// The link the flow actually arrived on.
    pub link: LinkId,
    /// Ground truth.
    pub label: FlowLabel,
}

/// Configuration of a spoof/catchment scenario over a [`DfzConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpoofScenario {
    /// The substrate the scenario rides on.
    pub dfz: DfzConfig,
    /// Probability that a base draw also injects one forged flow.
    pub spoof_share: f64,
    /// Probability that a legit flow of a recently-flapped prefix arrives
    /// at the pre-flap ingress instead of the current one.
    pub shift_share: f64,
    /// Catchment lag: shift flows occur within this many seconds after a
    /// next-hop flap of their prefix.
    pub shift_lag_secs: u64,
}

impl SpoofScenario {
    /// Spoofing only: forged flows injected at `share`, no catchment lag.
    pub fn spoofed(dfz: DfzConfig, share: f64) -> Self {
        SpoofScenario {
            dfz,
            spoof_share: share,
            shift_share: 0.0,
            shift_lag_secs: 0,
        }
    }

    /// Catchment shift only: no forged flows.
    pub fn catchment_shift(dfz: DfzConfig, share: f64, lag_secs: u64) -> Self {
        SpoofScenario {
            dfz,
            spoof_share: 0.0,
            shift_share: share,
            shift_lag_secs: lag_secs,
        }
    }

    /// Both failure modes at the default rates: 5 % forged traffic, half of
    /// the post-flap traffic lagging for two minutes.
    pub fn mixed(dfz: DfzConfig) -> Self {
        SpoofScenario {
            dfz,
            spoof_share: 0.05,
            shift_share: 0.5,
            shift_lag_secs: 120,
        }
    }

    /// [`SpoofScenario::mixed`] over the CI 100k tier.
    pub fn tier_100k(seed: u64) -> Self {
        SpoofScenario::mixed(DfzConfig::tier_100k(seed))
    }

    /// [`SpoofScenario::mixed`] over the golden/smoke 10k tier.
    pub fn smoke_10k(seed: u64) -> Self {
        SpoofScenario::mixed(DfzConfig::smoke_10k(seed))
    }

    /// The labeled scenario stream for `minutes` starting at the epoch.
    /// `world` must be built from this scenario's [`DfzConfig`].
    pub fn stream<'a>(&self, world: &'a DfzWorld, minutes: u64) -> ScenarioStream<'a> {
        ScenarioStream::new(world, *self, minutes)
    }
}

/// Streaming labeled scenario generator:
/// `Iterator<Item = ScenarioFlow>`, non-decreasing timestamps, bit-identical
/// for the same seed.
pub struct ScenarioStream<'a> {
    world: &'a DfzWorld,
    cfg: SpoofScenario,
    base: DfzFlowStream<'a>,
    /// Scenario decision counter (separate hash stream from the base draws).
    counter: u64,
    /// An injected forged flow waiting to be emitted (same second as the
    /// base flow that triggered it, so ordering holds).
    pending: Option<ScenarioFlow>,
}

impl<'a> ScenarioStream<'a> {
    /// Stream `minutes` minutes of labeled flows starting at the epoch.
    pub fn new(world: &'a DfzWorld, cfg: SpoofScenario, minutes: u64) -> Self {
        assert_eq!(
            world.config(),
            &cfg.dfz,
            "world must be built from the scenario's DfzConfig"
        );
        ScenarioStream {
            world,
            cfg,
            base: world.flows(minutes),
            counter: 0,
            pending: None,
        }
    }

    /// Forge one flow: a source from a victim prefix injected at a link its
    /// origin AS never announces. Returns `None` only in degenerate worlds
    /// where every link is a candidate of the victim AS.
    fn forge(&self, ts: u64, h: u64) -> Option<ScenarioFlow> {
        let w = self.world;
        let af = if w.plan.len(Af::V6) > 0 && unit_f64(h) < self.cfg.dfz.v6_share {
            Af::V6
        } else {
            Af::V4
        };
        let n = w.plan.len(af);
        let rank = mix(h, 1) % n;
        let candidates = w.as_links.links_of(w.plan.as_rank_of(af, rank));
        let links = w.topology.link_count() as u64;
        let attack = (0..32u64)
            .map(|i| (mix(h, 16 + i) % links) as LinkId)
            .find(|l| !candidates.contains(l))?;
        let ingress = w.topology.ingress_of_link(attack);

        // Same source-address derivation as the base stream: a hash-chosen
        // /28 user group inside the claimed prefix, then a host inside it.
        let prefix = w.plan.prefix(af, rank);
        let host_bits = (af.width() - prefix.len()) as u32;
        let groups: u128 = 1 << host_bits.saturating_sub(4);
        let g = mix(h, 2) as u128 % groups;
        let host = (mix(h, 3) & 0xF) as u128 % (1 << host_bits.min(4));
        let src = Addr::new(af, prefix.addr().bits() | (g << host_bits.min(4)) | host);

        let hv = mix(h, 4);
        let dst = match af {
            Af::V4 => Addr::v4(0x6440_0000 | (hv as u32 & 0x003F_FFFF)),
            Af::V6 => Addr::new(Af::V6, (0xfd00u128 << 112) | (hv as u128)),
        };
        let packets = 1 + (hv >> 32 & 0x7) as u32;
        Some(ScenarioFlow {
            flow: FlowRecord {
                ts,
                src,
                dst,
                router: ingress.router,
                input_if: ingress.ifindex,
                output_if: 0,
                proto: if hv & 0xF < 13 { 6 } else { 17 },
                src_port: 443,
                dst_port: (49152 + (hv >> 16 & 0x3FFF)) as u16,
                packets,
                bytes: packets * (200 + (hv >> 40 & 0x3FF) as u32),
            },
            af,
            rank,
            link: attack,
            label: FlowLabel::Spoofed,
        })
    }
}

impl Iterator for ScenarioStream<'_> {
    type Item = ScenarioFlow;

    fn next(&mut self) -> Option<ScenarioFlow> {
        if let Some(pending) = self.pending.take() {
            return Some(pending);
        }
        let lf = self.base.next()?;
        let w = self.world;
        let h = mix3(self.cfg.dfz.seed, S_SCENARIO, self.counter);
        self.counter += 1;

        let mut out = ScenarioFlow {
            flow: lf.flow,
            af: lf.af,
            rank: lf.rank,
            link: lf.link,
            label: FlowLabel::Legit,
        };

        // Catchment shift: rewrite this legit flow to the pre-flap ingress
        // when its prefix flapped within the lag window.
        let lag = self.cfg.shift_lag_secs;
        if self.cfg.shift_share > 0.0 && lag > 0 && unit_f64(h) < self.cfg.shift_share {
            let ts = lf.flow.ts;
            let t0 = (ts + 1).saturating_sub(lag);
            if let Some(flap) = w.churn.flap_times_in(lf.af, lf.rank, t0, ts + 1).last() {
                let old = w.current_link(lf.af, lf.rank, flap.saturating_sub(1));
                if old != lf.link {
                    let ingress = w.topology.ingress_of_link(old);
                    out.flow.router = ingress.router;
                    out.flow.input_if = ingress.ifindex;
                    out.link = old;
                    out.label = FlowLabel::Shift;
                }
            }
        }

        // Spoof injection: queue one forged flow at the same second.
        if self.cfg.spoof_share > 0.0 && unit_f64(mix(h, 1)) < self.cfg.spoof_share {
            self.pending = self.forge(lf.flow.ts, mix(h, 2));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SpoofScenario {
        SpoofScenario::mixed(DfzConfig {
            flows_per_minute: 6_000,
            ..DfzConfig::smoke_10k(17)
        })
    }

    #[test]
    fn stream_is_deterministic_ordered_and_mixed() {
        let cfg = tiny();
        let w = DfzWorld::new(cfg.dfz);
        let a: Vec<ScenarioFlow> = cfg.stream(&w, 3).collect();
        let b: Vec<ScenarioFlow> = cfg.stream(&w, 3).collect();
        assert_eq!(a, b);
        for p in a.windows(2) {
            assert!(p[0].flow.ts <= p[1].flow.ts, "timestamps non-decreasing");
        }
        let spoofed = a.iter().filter(|f| f.label == FlowLabel::Spoofed).count();
        let shifted = a.iter().filter(|f| f.label == FlowLabel::Shift).count();
        let total = a.len();
        assert!(spoofed > 0, "no spoofed flows in {total}");
        assert!(shifted > 0, "no shift flows in {total}");
        // ~5% injection on top of the base stream.
        let share = spoofed as f64 / total as f64;
        assert!((0.02..0.10).contains(&share), "spoof share {share}");
    }

    #[test]
    fn spoofed_flows_violate_the_rib() {
        let cfg = tiny();
        let w = DfzWorld::new(cfg.dfz);
        let mut seen = 0;
        for f in cfg.stream(&w, 2) {
            if f.label != FlowLabel::Spoofed {
                continue;
            }
            seen += 1;
            let candidates = w.as_links.links_of(w.plan.as_rank_of(f.af, f.rank));
            assert!(
                !candidates.contains(&f.link),
                "spoofed flow arrived at a legitimate candidate link"
            );
            assert!(w.plan.prefix(f.af, f.rank).contains(f.flow.src));
        }
        assert!(seen > 50, "only {seen} spoofed flows");
    }

    #[test]
    fn shift_flows_ride_real_flap_windows() {
        let cfg = tiny();
        let w = DfzWorld::new(cfg.dfz);
        let mut seen = 0;
        for f in cfg.stream(&w, 3) {
            if f.label != FlowLabel::Shift {
                continue;
            }
            seen += 1;
            let ts = f.flow.ts;
            let t0 = (ts + 1).saturating_sub(cfg.shift_lag_secs);
            let flap = w
                .churn
                .flap_times_in(f.af, f.rank, t0, ts + 1)
                .last()
                .expect("shift flow without a flap in the lag window");
            assert_eq!(f.link, w.current_link(f.af, f.rank, flap - 1));
            assert_ne!(f.link, w.current_link(f.af, f.rank, ts));
        }
        assert!(seen > 0, "no shift flows");
    }

    #[test]
    fn pure_spoof_and_pure_shift_configs() {
        let base = DfzConfig {
            flows_per_minute: 3_000,
            ..DfzConfig::smoke_10k(18)
        };
        let w = DfzWorld::new(base);
        let spoof_only: Vec<_> = SpoofScenario::spoofed(base, 0.1).stream(&w, 2).collect();
        assert!(spoof_only.iter().all(|f| f.label != FlowLabel::Shift));
        assert!(spoof_only.iter().any(|f| f.label == FlowLabel::Spoofed));
        let shift_only: Vec<_> = SpoofScenario::catchment_shift(base, 1.0, 300)
            .stream(&w, 2)
            .collect();
        assert!(shift_only.iter().all(|f| f.label != FlowLabel::Spoofed));
    }
}
