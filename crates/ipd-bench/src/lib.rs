//! Shared fixtures for the IPD benchmarks: a pre-generated world and flow
//! batches so individual benches measure the system under test, not the
//! generator.

use ipd::{LogicalIngress, ServedRow};
use ipd_lpm::{Addr, Prefix};
use ipd_netflow::FlowRecord;
use ipd_serve::LiveStore;
use ipd_topology::IngressPoint;
use ipd_traffic::{FlowSim, SimConfig, World, WorldConfig};

/// Deterministic flow batch: `minutes` of traffic at `flows_per_minute`.
pub fn flow_batch(minutes: u64, flows_per_minute: u64) -> Vec<FlowRecord> {
    let world = World::generate(WorldConfig::default(), 42);
    let mut sim = FlowSim::new(
        world,
        SimConfig {
            flows_per_minute,
            seed: 7,
            ..SimConfig::default()
        },
    );
    let mut out = Vec::new();
    for _ in 0..minutes {
        out.extend(sim.next_minute().flows.into_iter().map(|lf| lf.flow));
    }
    out
}

/// The paper-scaled `n_cidr` factor for a given flow rate (factor 64 at
/// ~32 M flows/min).
pub fn scaled_factor(flows_per_minute: u64) -> f64 {
    64.0 / 32.0e6 * flows_per_minute as f64
}

/// Deterministic serving-layer fixture: the served map type, a
/// [`LiveStore`], holding `prefix_count` classified v4 ranges of mixed
/// lengths (/12../28, nesting allowed — the LPM resolves it), spread over
/// 64 ingress routers, published in one [`LiveStore::publish_full`] like a
/// compaction rotation or a history rebuild.
pub fn serve_store(prefix_count: usize) -> LiveStore {
    let mut rows: Vec<ServedRow> = Vec::with_capacity(prefix_count);
    let mut seen = std::collections::HashSet::with_capacity(prefix_count * 2);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    while rows.len() < prefix_count {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let len = 12 + (x >> 48) as u8 % 17;
        let range = Prefix::of(Addr::v4((x >> 16) as u32), len);
        if !seen.insert(range) {
            continue;
        }
        let router = 1 + ((x >> 8) as u32 % 64);
        let ingress = LogicalIngress::Link(IngressPoint::new(router, 1 + (x as u16 % 8)));
        rows.push((range, ingress, 0.95 + (x % 50) as f64 / 1000.0));
    }
    let store = LiveStore::new();
    store.publish_full(&rows, 600);
    store
}

/// Deterministic v4 lookup keys, uniformly sprayed — a mix of hits and
/// misses against [`serve_store`].
pub fn lookup_keys(n: usize) -> Vec<Addr> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            Addr::v4((x >> 24) as u32)
        })
        .collect()
}
