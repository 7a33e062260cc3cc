//! Record the DFZ-scale performance trajectory into `BENCH_dfz.json`.
//!
//! Unlike the criterion benches (quick, 100k tier), this binary runs the
//! *full* substrate — 1,048,576 IPv4 + 204,800 IPv6 prefixes, 3,000 routers
//! by default — end to end through stage 1 and stage 2, and measures the
//! four numbers the scale contract promises (DESIGN.md §12):
//!
//!   * ingest throughput   — stage-1 flows/second into the trie
//!   * tick latency        — stage-2 cycle wall-clock, mean and p99
//!   * peak RSS            — `VmHWM` from `/proc/self/status`
//!   * serve lookups/s     — read-path rate against the final snapshot
//!
//! Since schema v2 it also measures the publication path both ways at
//! every tick: applying the inter-snapshot [`StoreDelta`] to a live
//! concurrent store in place versus rebuilding a fresh store from the full
//! snapshot — the numbers behind `ServePublisher`'s incremental default.
//!
//! Usage (normally via `scripts/record_bench`):
//!
//! ```text
//! cargo run --release -p ipd-bench --bin record_scale -- \
//!     [--tier dfz|100k|10k] [--minutes N] [--seed N] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ipd::{IpdEngine, IpdParams, ServedRow, StoreDelta};
use ipd_bench::scaled_factor;
use ipd_lpm::Addr;
use ipd_serve::{IngressStore, LiveStore};
use ipd_traffic::{DfzConfig, DfzWorld};

const SERVE_KEYS: usize = 65_536;
const CHUNK: usize = 131_072;

/// Publication-path measurement: at every tick, apply the inter-snapshot
/// delta to a long-lived concurrent store (what `ServePublisher` does) and
/// separately rebuild a fresh store from the whole snapshot (what rotation
/// costs), timing both.
struct PublishBench {
    live: LiveStore,
    prev: Vec<ServedRow>,
    incremental: Duration,
    full: Duration,
    changed: u64,
    publications: u64,
}

impl PublishBench {
    fn new() -> Self {
        Self {
            live: LiveStore::new(1),
            prev: Vec::new(),
            incremental: Duration::ZERO,
            full: Duration::ZERO,
            changed: 0,
            publications: 0,
        }
    }

    fn publish(&mut self, engine: &IpdEngine, ts: u64) {
        let rows = engine.served_rows();
        let delta = StoreDelta::between_rows(&self.prev, &rows);
        let t = Instant::now();
        self.live.apply(&delta, ts);
        self.incremental += t.elapsed();
        let t = Instant::now();
        let fresh = LiveStore::new(1);
        fresh.publish_full(&rows, ts);
        self.full += t.elapsed();
        assert_eq!(self.live.len(), fresh.len(), "incremental apply diverged");
        self.changed += delta.change_count() as u64;
        self.prev = rows;
        self.publications += 1;
    }
}

fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let tier = get("--tier").unwrap_or_else(|| "dfz".to_string());
    let seed: u64 = get("--seed").map_or(42, |v| v.parse().expect("--seed"));
    let minutes: u64 = get("--minutes").map_or(10, |v| v.parse().expect("--minutes"));
    let out = get("--out").unwrap_or_else(|| "BENCH_dfz.json".to_string());

    let cfg = match tier.as_str() {
        "dfz" => DfzConfig::dfz(seed),
        "100k" => DfzConfig::tier_100k(seed),
        "10k" => DfzConfig::smoke_10k(seed),
        other => {
            eprintln!("unknown tier {other:?} (want dfz|100k|10k)");
            std::process::exit(2);
        }
    };
    let rate = cfg.flows_per_minute;
    eprintln!(
        "[record_scale] tier {tier}: {} IPv4 + {} IPv6 prefixes, {} routers, \
         {minutes} min at {rate} flows/min",
        cfg.plan.v4_prefixes, cfg.plan.v6_prefixes, cfg.topology.routers
    );

    let wall_start = Instant::now();
    let world = DfzWorld::new(cfg);
    let params = IpdParams {
        ncidr_factor_v4: scaled_factor(rate),
        ncidr_factor_v6: (rate as f64 * 1.5e-11).max(1e-9),
        ..IpdParams::default()
    };
    let t_secs = params.t_secs;
    let mut engine = IpdEngine::new(params).expect("valid params");

    // Stream in CHUNK-sized batches so generation and ingest are timed
    // separately; tick at every t_secs bucket boundary, as BucketDriver would.
    let mut gen_time = Duration::ZERO;
    let mut ingest_time = Duration::ZERO;
    let mut tick_times: Vec<Duration> = Vec::new();
    let mut flows = 0u64;
    let mut serve_keys: Vec<Addr> = Vec::with_capacity(SERVE_KEYS);
    let mut batch = Vec::with_capacity(CHUNK);
    let mut publish = PublishBench::new();
    let mut next_tick = world.config().epoch + t_secs;
    let mut stream = world.flows(minutes);
    let mut last_ts = world.config().epoch;
    loop {
        batch.clear();
        let t = Instant::now();
        for lf in stream.by_ref().take(CHUNK) {
            batch.push(lf.flow);
        }
        gen_time += t.elapsed();
        if batch.is_empty() {
            break;
        }
        for f in &batch {
            while f.ts >= next_tick {
                let t = Instant::now();
                engine.tick(next_tick);
                tick_times.push(t.elapsed());
                publish.publish(&engine, next_tick);
                next_tick += t_secs;
            }
            let t = Instant::now();
            engine.ingest(f);
            ingest_time += t.elapsed();
            if serve_keys.len() < SERVE_KEYS && flows.is_multiple_of(97) {
                serve_keys.push(f.src);
            }
            last_ts = f.ts;
            flows += 1;
        }
        eprint!(
            "\r[record_scale] {flows} flows, {} ticks, classified {}   ",
            tick_times.len(),
            engine.classified_count()
        );
    }
    let t = Instant::now();
    engine.tick(last_ts + t_secs);
    tick_times.push(t.elapsed());
    publish.publish(&engine, last_ts + t_secs);
    eprintln!();

    // Read path: the final table served the way ipd-serve holds it.
    let store = IngressStore::from_engine(&engine, last_ts);
    let mut lookups = 0u64;
    let mut hits = 0u64;
    let serve_start = Instant::now();
    while serve_start.elapsed() < Duration::from_secs(2) {
        for &k in &serve_keys {
            hits += store.lookup(k).is_some() as u64;
        }
        lookups += serve_keys.len() as u64;
    }
    let serve_secs = serve_start.elapsed().as_secs_f64();

    tick_times.sort();
    let tick_mean =
        tick_times.iter().sum::<Duration>().as_secs_f64() / tick_times.len().max(1) as f64;
    let tick_p99 = percentile(&tick_times, 0.99);
    let peak_rss = peak_rss_bytes().unwrap_or(0);
    let recorded = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());

    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"ipd-bench-dfz-v2\",");
    let _ = writeln!(j, "  \"recorded_unix\": {recorded},");
    let _ = writeln!(j, "  \"tier\": \"{tier}\",");
    let _ = writeln!(j, "  \"seed\": {seed},");
    let _ = writeln!(j, "  \"v4_prefixes\": {},", cfg.plan.v4_prefixes);
    let _ = writeln!(j, "  \"v6_prefixes\": {},", cfg.plan.v6_prefixes);
    let _ = writeln!(j, "  \"routers\": {},", cfg.topology.routers);
    let _ = writeln!(j, "  \"links\": {},", cfg.topology.links);
    let _ = writeln!(j, "  \"minutes\": {minutes},");
    let _ = writeln!(j, "  \"flows_per_minute\": {rate},");
    let _ = writeln!(j, "  \"flows\": {flows},");
    let _ = writeln!(
        j,
        "  \"ingest_throughput_flows_per_sec\": {:.0},",
        flows as f64 / ingest_time.as_secs_f64().max(1e-9)
    );
    let _ = writeln!(
        j,
        "  \"generation_throughput_flows_per_sec\": {:.0},",
        flows as f64 / gen_time.as_secs_f64().max(1e-9)
    );
    let _ = writeln!(j, "  \"ticks\": {},", tick_times.len());
    let _ = writeln!(j, "  \"tick_latency_ms_mean\": {:.3},", tick_mean * 1e3);
    let _ = writeln!(
        j,
        "  \"tick_latency_ms_p99\": {:.3},",
        tick_p99.as_secs_f64() * 1e3
    );
    let _ = writeln!(j, "  \"peak_rss_bytes\": {peak_rss},");
    let _ = writeln!(
        j,
        "  \"serve_lookups_per_sec\": {:.0},",
        lookups as f64 / serve_secs.max(1e-9)
    );
    let _ = writeln!(j, "  \"serve_store_prefixes\": {},", store.len());
    let _ = writeln!(
        j,
        "  \"serve_hit_fraction\": {:.4},",
        hits as f64 / lookups.max(1) as f64
    );
    let _ = writeln!(j, "  \"classified_ranges\": {},", engine.classified_count());
    let _ = writeln!(j, "  \"publish_ticks\": {},", publish.publications);
    let _ = writeln!(
        j,
        "  \"publish_changed_prefixes_total\": {},",
        publish.changed
    );
    let _ = writeln!(
        j,
        "  \"publish_incremental_ms_total\": {:.3},",
        publish.incremental.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        j,
        "  \"publish_full_rebuild_ms_total\": {:.3},",
        publish.full.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        j,
        "  \"publish_incremental_speedup\": {:.2},",
        publish.full.as_secs_f64() / publish.incremental.as_secs_f64().max(1e-9)
    );
    let _ = writeln!(
        j,
        "  \"wall_clock_secs_total\": {:.1}",
        wall_start.elapsed().as_secs_f64()
    );
    let _ = writeln!(j, "}}");

    std::fs::write(&out, &j).expect("write output file");
    eprintln!("[record_scale] wrote {out}");
    print!("{j}");
}
