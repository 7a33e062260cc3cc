//! Record the longitudinal-store performance trajectory into
//! `BENCH_hist.json`.
//!
//! Streams a churned DFZ-tier substrate through the engine, appending
//! every epoch to an `ipd-hist` store, then reconstructs the whole
//! history, measuring the three numbers the hist contract promises
//! (DESIGN.md §13):
//!
//!   * append throughput    — epochs/s and rows/s into the segment store
//!   * reconstruct latency  — point-in-time query wall-clock, mean and p99
//!   * bytes per epoch      — on-disk footprint after compaction
//!
//! Usage (normally via `scripts/record_bench hist`):
//!
//! ```text
//! cargo run --release -p ipd-bench --bin record_hist -- \
//!     [--tier dfz|100k|10k] [--minutes N] [--seed N] [--keyframe-every K] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ipd::{IpdEngine, IpdParams};
use ipd_bench::scaled_factor;
use ipd_hist::{EpochImage, HistConfig, HistStore, HistTelemetry};
use ipd_traffic::{DfzConfig, DfzWorld};

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
    let tier = get("--tier").unwrap_or_else(|| "100k".to_string());
    let seed: u64 = get("--seed").map_or(42, |v| v.parse().expect("--seed"));
    let minutes: u64 = get("--minutes").map_or(30, |v| v.parse().expect("--minutes"));
    let keyframe_every: u64 =
        get("--keyframe-every").map_or(8, |v| v.parse().expect("--keyframe-every"));
    let out = get("--out").unwrap_or_else(|| "BENCH_hist.json".to_string());

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
        "[record_hist] tier {tier}: {} IPv4 + {} IPv6 prefixes, {minutes} min at \
         {rate} flows/min, keyframe every {keyframe_every}",
        cfg.plan.v4_prefixes, cfg.plan.v6_prefixes
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

    let dir = std::env::temp_dir().join(format!("ipd-record-hist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let hist_cfg = HistConfig {
        keyframe_every,
        ..HistConfig::default()
    };
    let store = HistStore::open_with(&dir, hist_cfg, HistTelemetry::default()).expect("open store");

    // Drive ticks by bucket boundary (as BucketDriver would) and append
    // one epoch per tick, timing only the row read + append cost — the
    // publication overhead a recording pipeline (`HistPublisher`) pays on
    // top of the engine.
    let mut append_time = Duration::ZERO;
    let mut rows_appended = 0u64;
    let mut next_tick = world.config().epoch + t_secs;
    let mut last_ts = world.config().epoch;
    let mut flows = 0u64;
    let mut append_epoch = |engine: &IpdEngine, ts: u64| {
        let t = Instant::now();
        let image = EpochImage::new(store.last_epoch() + 1, ts, engine.served_rows());
        rows_appended += image.rows().len() as u64;
        store.append(image).expect("append");
        append_time += t.elapsed();
    };
    for lf in world.flows(minutes) {
        let f = lf.flow;
        while f.ts >= next_tick {
            engine.tick(next_tick);
            append_epoch(&engine, next_tick);
            next_tick += t_secs;
        }
        engine.ingest(&f);
        last_ts = f.ts;
        flows += 1;
    }
    engine.tick(last_ts + t_secs);
    append_epoch(&engine, last_ts + t_secs);
    let epochs = store.last_epoch();
    eprintln!("[record_hist] {flows} flows -> {epochs} epochs appended");

    let t = Instant::now();
    let folded = store.compact_now().expect("compaction");
    store.flush().expect("manifest");
    let compact_time = t.elapsed();

    // Reconstruct the entire history, epoch by epoch — the time-travel
    // read path, cold per query (the reader holds no cache).
    let reader = store.reader();
    let mut reconstruct_times: Vec<Duration> = Vec::with_capacity(epochs as usize);
    let mut worst_reads = 0u64;
    for e in 1..=epochs {
        let t = Instant::now();
        let (img, reads) = reader
            .image_at_counted(e)
            .expect("reconstruct")
            .expect("epoch held");
        reconstruct_times.push(t.elapsed());
        worst_reads = worst_reads.max(reads);
        std::hint::black_box(img);
    }
    reconstruct_times.sort();
    let reconstruct_mean = reconstruct_times.iter().sum::<Duration>().as_secs_f64()
        / reconstruct_times.len().max(1) as f64;
    let reconstruct_p99 = percentile(&reconstruct_times, 0.99);

    let bytes_on_disk = store.bytes_on_disk();
    let peak_rss = peak_rss_bytes().unwrap_or(0);
    let recorded = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());

    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"ipd-bench-hist-v1\",");
    let _ = writeln!(j, "  \"recorded_unix\": {recorded},");
    let _ = writeln!(j, "  \"tier\": \"{tier}\",");
    let _ = writeln!(j, "  \"seed\": {seed},");
    let _ = writeln!(j, "  \"minutes\": {minutes},");
    let _ = writeln!(j, "  \"flows\": {flows},");
    let _ = writeln!(j, "  \"epochs\": {epochs},");
    let _ = writeln!(j, "  \"keyframe_every\": {keyframe_every},");
    let _ = writeln!(
        j,
        "  \"append_throughput_epochs_per_sec\": {:.1},",
        epochs as f64 / append_time.as_secs_f64().max(1e-9)
    );
    let _ = writeln!(
        j,
        "  \"append_throughput_rows_per_sec\": {:.0},",
        rows_appended as f64 / append_time.as_secs_f64().max(1e-9)
    );
    let _ = writeln!(
        j,
        "  \"reconstruct_latency_ms_mean\": {:.3},",
        reconstruct_mean * 1e3
    );
    let _ = writeln!(
        j,
        "  \"reconstruct_latency_ms_p99\": {:.3},",
        reconstruct_p99.as_secs_f64() * 1e3
    );
    let _ = writeln!(j, "  \"reconstruct_max_segment_reads\": {worst_reads},");
    let _ = writeln!(j, "  \"segments\": {},", store.segment_count());
    let _ = writeln!(j, "  \"keyframes\": {},", reader.keyframe_count());
    let _ = writeln!(j, "  \"deltas_folded_at_close\": {folded},");
    let _ = writeln!(j, "  \"compact_secs\": {:.3},", compact_time.as_secs_f64());
    let _ = writeln!(j, "  \"bytes_on_disk\": {bytes_on_disk},");
    let _ = writeln!(
        j,
        "  \"bytes_per_epoch\": {},",
        bytes_on_disk / epochs.max(1)
    );
    let _ = writeln!(j, "  \"peak_rss_bytes\": {peak_rss},");
    let _ = writeln!(
        j,
        "  \"wall_clock_secs_total\": {:.1}",
        wall_start.elapsed().as_secs_f64()
    );
    let _ = writeln!(j, "}}");

    drop(reader);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::write(&out, &j).expect("write output file");
    eprintln!("[record_hist] wrote {out}");
    print!("{j}");
}
