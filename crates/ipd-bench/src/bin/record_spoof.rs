//! Record the spoof-detector performance trajectory into
//! `BENCH_spoof.json`.
//!
//! Replays the mixed spoof/catchment scenario through the full deployment
//! loop — engine + per-bucket epoch publication + per-flow verdicts — and
//! measures the numbers the detector contract cares about (DESIGN.md §15):
//!
//!   * verdict throughput  — flows judged per second, end to end
//!   * decision latency    — `SpoofDetector::decide` wall-clock, p50/p99,
//!     split per verdict (the spoofed path walks the candidate set;
//!     consistent usually short-circuits)
//!   * peak RSS            — engine + oracle + live store at the tier
//!
//! Usage (normally via `scripts/record_bench spoof`):
//!
//! ```text
//! cargo run --release -p ipd-bench --bin record_spoof -- \
//!     [--tier dfz|100k|10k] [--minutes N] [--seed N] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ipd::pipeline::{BucketDriver, PipelineHook, PipelineOutput};
use ipd::IpdEngine;
use ipd_serve::ServePublisher;
use ipd_spoof::{MapView, RouteExpect, SpoofDetector, SpoofRunConfig, SpoofTelemetry, Verdict};
use ipd_topology::IngressPoint;
use ipd_traffic::{DfzConfig, DfzWorld, SpoofScenario};

fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Exact nanosecond percentiles over a sorted sample.
fn percentile_ns(sorted: &[u32], p: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct Timings {
    /// Decision wall-clock in nanoseconds, one bucket per [`Verdict::index`].
    per_verdict: [Vec<u32>; 3],
    decide_total: Duration,
}

fn drive(mut engine: IpdEngine, world: &DfzWorld, cfg: &SpoofRunConfig) -> (u64, u64, Timings) {
    let detector = SpoofDetector::new(
        RouteExpect::new(world, cfg.window_secs),
        SpoofTelemetry::default(),
    );
    let mut publisher = ServePublisher::new();
    let swap = publisher.swap();
    let mut reader = swap.reader();
    let mut driver = BucketDriver::new(engine.params().t_secs, cfg.snapshot_every_ticks);

    let mut timings = Timings {
        per_verdict: [Vec::new(), Vec::new(), Vec::new()],
        decide_total: Duration::ZERO,
    };
    let mut flows = 0u64;
    let mut out = |_: PipelineOutput| {};
    for sf in cfg.scenario.stream(world, cfg.minutes) {
        driver.observe_with(&mut engine, sf.flow.ts, &mut out, &mut publisher);
        let store = reader.current();
        let observed = IngressPoint::new(sf.flow.router, sf.flow.input_if);
        let map = match store.value.lookup(sf.flow.src) {
            None => MapView::Unmapped,
            Some(a) if a.ingress.matches(observed) => MapView::Match,
            Some(_) => MapView::Mismatch,
        };
        let t = Instant::now();
        let verdict = detector.decide(sf.flow.src, observed, sf.flow.ts, map);
        let d = t.elapsed();
        timings.decide_total += d;
        timings.per_verdict[verdict.index()].push(d.as_nanos().min(u32::MAX as u128) as u32);
        flows += 1;
        engine.ingest(&sf.flow);
    }
    publisher.finished(&engine, driver.clock());
    driver.finish(&mut engine, &mut out);
    publisher.closed(&engine, driver.clock());
    let epochs = swap.load().value.epoch();
    (flows, epochs, timings)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let tier = get("--tier").unwrap_or_else(|| "100k".to_string());
    let seed: u64 = get("--seed").map_or(42, |v| v.parse().expect("--seed"));
    let minutes: u64 = get("--minutes").map_or(30, |v| v.parse().expect("--minutes"));
    let out = get("--out").unwrap_or_else(|| "BENCH_spoof.json".to_string());

    let dfz = match tier.as_str() {
        "dfz" => DfzConfig::dfz(seed),
        "100k" => DfzConfig::tier_100k(seed),
        "10k" => DfzConfig::smoke_10k(seed),
        other => {
            eprintln!("unknown tier {other:?} (want dfz|100k|10k)");
            std::process::exit(2);
        }
    };
    let cfg = SpoofRunConfig {
        scenario: SpoofScenario::mixed(dfz),
        minutes,
        ..SpoofRunConfig::tier_100k(seed)
    };
    eprintln!(
        "[record_spoof] tier {tier}: {} IPv4 + {} IPv6 prefixes, {minutes} min at \
         {} flows/min",
        dfz.plan.v4_prefixes, dfz.plan.v6_prefixes, dfz.flows_per_minute
    );

    let wall_start = Instant::now();
    let world = DfzWorld::new(dfz);
    let params = cfg.engine_params();
    let judge_start = Instant::now();
    let (flows, epochs, mut timings) =
        drive(IpdEngine::new(params).expect("valid params"), &world, &cfg);
    let judge_secs = judge_start.elapsed().as_secs_f64();
    eprintln!("[record_spoof] {flows} flows judged, {epochs} epochs published");

    let peak_rss = peak_rss_bytes().unwrap_or(0);
    let recorded = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let decided: u64 = timings.per_verdict.iter().map(|v| v.len() as u64).sum();

    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"ipd-bench-spoof-v1\",");
    let _ = writeln!(j, "  \"recorded_unix\": {recorded},");
    let _ = writeln!(j, "  \"tier\": \"{tier}\",");
    let _ = writeln!(j, "  \"seed\": {seed},");
    let _ = writeln!(j, "  \"minutes\": {minutes},");
    let _ = writeln!(j, "  \"flows\": {flows},");
    let _ = writeln!(j, "  \"epochs\": {epochs},");
    let _ = writeln!(
        j,
        "  \"verdicts_per_sec_end_to_end\": {:.0},",
        flows as f64 / judge_secs.max(1e-9)
    );
    let _ = writeln!(
        j,
        "  \"decisions_per_sec\": {:.0},",
        decided as f64 / timings.decide_total.as_secs_f64().max(1e-9)
    );
    for (verdict, key) in [
        (Verdict::Consistent, "consistent"),
        (Verdict::Spoofed, "spoofed"),
        (Verdict::CatchmentShift, "catchment_shift"),
    ] {
        let lat = &mut timings.per_verdict[verdict.index()];
        lat.sort_unstable();
        let _ = writeln!(j, "  \"verdicts_{key}\": {},", lat.len());
        let _ = writeln!(
            j,
            "  \"decision_latency_ns_p50_{key}\": {},",
            percentile_ns(lat, 0.50)
        );
        let _ = writeln!(
            j,
            "  \"decision_latency_ns_p99_{key}\": {},",
            percentile_ns(lat, 0.99)
        );
    }
    let _ = writeln!(j, "  \"peak_rss_bytes\": {peak_rss},");
    let _ = writeln!(
        j,
        "  \"wall_clock_secs_total\": {:.1}",
        wall_start.elapsed().as_secs_f64()
    );
    let _ = writeln!(j, "}}");

    std::fs::write(&out, &j).expect("write output file");
    eprintln!("[record_spoof] wrote {out}");
    print!("{j}");
}
