//! Seed-derived inputs. Everything the program under test sees is made
//! here: the labelled scenario stream, encoded into NetFlow v5 (IPv4) and
//! IPFIX (IPv6) datagrams with one exporter per router, and the flow
//! batches consumers look up and judge.

use std::collections::BTreeMap;

use bytes::Bytes;
use ipd_lpm::{Addr, Af};
use ipd_netflow::ipfix::IpfixExporter;
use ipd_netflow::v5::V5Exporter;
use ipd_netflow::{FlowRecord, RouterId};
use ipd_spoof::SpoofRunConfig;
use ipd_topology::IngressPoint;
use ipd_traffic::{DfzWorld, FlowLabel, SpoofScenario};

/// Flows per lookup RPC: the batch `ipd-tool spoof --server` sends.
pub const LOOKUP_BATCH: usize = 256;

/// IPFIX exporters re-send their templates every this many messages.
const TEMPLATE_REFRESH: u32 = 32;

/// Scale of one benchmark world.
#[derive(Debug, Clone, Copy)]
pub struct Tier {
    pub name: &'static str,
    scenario: fn(u64) -> SpoofScenario,
    /// Data minutes replayed through the pipeline before timing starts.
    pub warm_minutes: u64,
    /// Offered load of `live`, flows per second.
    pub live_rate: f64,
    /// Data minutes of scenario flows the consumers judge.
    pub pool_minutes: u64,
    /// Timed data minutes `ingest` pre-encodes per requested second.
    pub ingest_minutes_per_sec: f64,
}

/// The benchmark tier: 100k IPv4 + 20k IPv6 prefixes, ~209k flows/minute.
pub const TIER_100K: Tier = Tier {
    name: "100k",
    scenario: SpoofScenario::tier_100k,
    warm_minutes: 4,
    live_rate: 100_000.0,
    pool_minutes: 2,
    ingest_minutes_per_sec: 0.65,
};

/// The self-test tier: 10k + 2k prefixes, ~63k flows/minute.
pub const TIER_10K: Tier = Tier {
    name: "10k",
    scenario: SpoofScenario::smoke_10k,
    warm_minutes: 3,
    live_rate: 60_000.0,
    pool_minutes: 1,
    ingest_minutes_per_sec: 2.0,
};

impl Tier {
    pub fn by_name(name: &str) -> Option<Tier> {
        [TIER_100K, TIER_10K].into_iter().find(|t| t.name == name)
    }

    /// The scenario and the engine parameters
    /// [`SpoofRunConfig::engine_params`] derives from its flow rate.
    pub fn run_config(&self, seed: u64) -> SpoofRunConfig {
        SpoofRunConfig {
            scenario: (self.scenario)(seed),
            ..SpoofRunConfig::tier_100k(seed)
        }
    }
}

/// Order-independent hash of one record, summed over a stream so that the
/// decoded multiset can be compared with the generated one.
pub fn flow_hash(f: &FlowRecord) -> u64 {
    let words = [
        f.ts,
        u64::from(f.src.af() == Af::V6),
        f.src.bits() as u64,
        (f.src.bits() >> 64) as u64,
        f.dst.bits() as u64,
        (f.dst.bits() >> 64) as u64,
        u64::from(f.router) << 32 | u64::from(f.input_if) << 16 | u64::from(f.output_if),
        u64::from(f.proto) << 32 | u64::from(f.src_port) << 16 | u64::from(f.dst_port),
        u64::from(f.packets) << 32 | u64::from(f.bytes),
    ];
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for w in words {
        h = (h ^ w).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 32;
    }
    h
}

/// One exporter per router and protocol: v5 carries a router's IPv4 flows,
/// IPFIX its IPv6 flows.
#[derive(Default)]
pub struct Exporters {
    v5: BTreeMap<RouterId, V5Exporter>,
    ipfix: BTreeMap<RouterId, IpfixExporter>,
}

/// Groups a stream into per-second, per-router export datagrams. Each
/// datagram carries flows of one second, whose timestamp its header holds.
pub struct Encoder<'a> {
    exporters: &'a mut Exporters,
    second: Option<u64>,
    by_router: BTreeMap<RouterId, (Vec<FlowRecord>, Vec<FlowRecord>)>,
}

impl<'a> Encoder<'a> {
    pub fn new(exporters: &'a mut Exporters) -> Self {
        Encoder {
            exporters,
            second: None,
            by_router: BTreeMap::new(),
        }
    }

    /// Add the next flow (non-decreasing timestamps); completed seconds go
    /// to `sink` as `(router, datagram, records, ts)`.
    pub fn push(&mut self, flow: FlowRecord, sink: &mut impl FnMut(RouterId, Bytes, u64, u64)) {
        if self.second != Some(flow.ts) {
            self.flush(sink);
            self.second = Some(flow.ts);
        }
        let (v4, v6) = self.by_router.entry(flow.router).or_default();
        if flow.src.af() == Af::V4 {
            v4.push(flow);
        } else {
            v6.push(flow);
        }
    }

    /// Encode the buffered second.
    pub fn flush(&mut self, sink: &mut impl FnMut(RouterId, Bytes, u64, u64)) {
        let Some(ts) = self.second else { return };
        for (router, (v4, v6)) in std::mem::take(&mut self.by_router) {
            if !v4.is_empty() {
                let exporter = self
                    .exporters
                    .v5
                    .entry(router)
                    .or_insert_with(|| V5Exporter::new(router, 0, 1, 0));
                let grams = exporter.encode(ts, &v4).expect("IPv4-only batch");
                for g in grams {
                    // v5 header: the record count is bytes 2..4.
                    let n = u64::from(u16::from_be_bytes([g[2], g[3]]));
                    sink(router, g, n, ts);
                }
            }
            if !v6.is_empty() {
                let exporter = self
                    .exporters
                    .ipfix
                    .entry(router)
                    .or_insert_with(|| IpfixExporter::new(router, TEMPLATE_REFRESH));
                let grams = exporter.encode(ts, &v6);
                // IPFIX header: bytes 8..12 hold the sequence number of the
                // message's first data record.
                let seq = |g: &Bytes| u32::from_be_bytes([g[8], g[9], g[10], g[11]]);
                let end = exporter.sequence();
                for (i, g) in grams.iter().enumerate() {
                    let next = grams.get(i + 1).map_or(end, seq);
                    sink(router, g.clone(), u64::from(next.wrapping_sub(seq(g))), ts);
                }
            }
        }
        self.second = None;
    }
}

/// Pre-encoded datagrams for a span of data minutes.
#[derive(Default)]
pub struct Wire {
    pub grams: Vec<(RouterId, Bytes)>,
    /// `cum[i]`: flows carried by datagrams `0..i` (one longer than `grams`).
    pub cum: Vec<u64>,
    /// `(bucket, index of its first datagram)` for every bucket that starts
    /// inside this span after its first datagram.
    pub bucket_starts: Vec<(u64, usize)>,
    /// Sum of [`flow_hash`] over the carried flows.
    pub digest: u64,
}

impl Wire {
    pub fn flows(&self) -> u64 {
        self.cum.last().copied().unwrap_or(0)
    }
}

/// What a consumer needs to judge one flow.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub src: Addr,
    pub observed: IngressPoint,
    pub ts: u64,
    pub label: FlowLabel,
}

/// The flows consumers look up, in [`LOOKUP_BATCH`]-sized batches.
#[derive(Default)]
pub struct Pool {
    pub addrs: Vec<Addr>,
    pub probes: Vec<Probe>,
}

impl Pool {
    pub fn batches(&self) -> usize {
        self.probes.len().div_ceil(LOOKUP_BATCH)
    }

    pub fn batch(&self, i: usize) -> std::ops::Range<usize> {
        let start = i * LOOKUP_BATCH;
        start..(start + LOOKUP_BATCH).min(self.probes.len())
    }
}

/// The timed inputs of a run, generated before the warm-up.
pub struct Timed {
    /// Datagrams of minutes `warm..warm + wire_minutes`.
    pub wire: Wire,
    /// Flows of minutes `warm..warm + pool_minutes`.
    pub pool: Pool,
    /// Flows of the warm-up minutes (counted, not kept).
    pub warm_flows: u64,
}

/// Data timestamp where minute `m` of the stream starts.
pub fn minute_start(world: &DfzWorld, m: u64) -> u64 {
    world.config().epoch + 60 * m
}

/// One pass over the stream: skip the warm-up minutes, encode the next
/// `wire_minutes` with fresh exporters and keep the next `pool_minutes` as
/// lookup probes.
pub fn timed_inputs(
    cfg: &SpoofRunConfig,
    world: &DfzWorld,
    warm: u64,
    wire_minutes: u64,
    pool_minutes: u64,
    t_secs: u64,
) -> Timed {
    let start = minute_start(world, warm);
    let wire_end = minute_start(world, warm + wire_minutes);
    let pool_end = minute_start(world, warm + pool_minutes);
    let mut warm_flows = 0;
    let mut pool = Pool::default();
    let mut wire = Wire {
        cum: vec![0],
        ..Wire::default()
    };
    let mut digest = 0u64;
    let mut exporters = Exporters::default();
    let mut encoder = Encoder::new(&mut exporters);
    let mut last_bucket = None;
    let mut sink = |router: RouterId, g: Bytes, n: u64, ts: u64| {
        let bucket = ts / t_secs;
        if last_bucket.is_some_and(|b| b != bucket) {
            wire.bucket_starts.push((bucket, wire.grams.len()));
        }
        last_bucket = Some(bucket);
        wire.grams.push((router, g));
        wire.cum.push(wire.cum.last().expect("cum starts at 0") + n);
    };
    let minutes = warm + wire_minutes.max(pool_minutes);
    for sf in cfg.scenario.stream(world, minutes) {
        let ts = sf.flow.ts;
        if ts < start {
            warm_flows += 1;
            continue;
        }
        if ts < wire_end {
            digest = digest.wrapping_add(flow_hash(&sf.flow));
            encoder.push(sf.flow, &mut sink);
        }
        if ts < pool_end {
            pool.addrs.push(sf.flow.src);
            pool.probes.push(Probe {
                src: sf.flow.src,
                observed: IngressPoint::new(sf.flow.router, sf.flow.input_if),
                ts,
                label: sf.label,
            });
        }
    }
    encoder.flush(&mut sink);
    wire.digest = digest;
    Timed {
        wire,
        pool,
        warm_flows,
    }
}
