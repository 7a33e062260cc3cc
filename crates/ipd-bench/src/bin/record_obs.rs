//! Record the observability-overhead trajectory into `BENCH_obs.json`.
//!
//! Runs the same churned DFZ-scale stream through the engine plus the
//! epoch publisher twice — once with telemetry disabled (the
//! `Option<Arc<…>>` handles are one-branch no-ops) and once with a live
//! registry carrying the full observability-v2 surface: counters,
//! histograms, freshness watermarks, derived lag gauges, and the flight
//! recorder. The delta is the price of always-on observability on the hot
//! path; the contract (DESIGN.md §16) targets < 3% at the 100k tier.
//!
//! Each rep runs both arms back to back (alternating which goes first, so
//! slow machine drift cancels) after one discarded warmup pass; the
//! reported overhead is the median of the per-rep paired ratios — on a
//! shared machine a single lucky or unlucky rep would otherwise dominate.
//!
//! Usage (normally via `scripts/record_bench obs`):
//!
//! ```text
//! cargo run --release -p ipd-bench --bin record_obs -- \
//!     [--tier dfz|100k|10k] [--minutes N] [--seed N] [--reps N] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use ipd::pipeline::run_offline_instrumented;
use ipd::{IpdEngine, IpdParams};
use ipd_serve::{ServePublisher, ServeTelemetry};
use ipd_telemetry::Telemetry;
use ipd_traffic::{DfzConfig, DfzWorld};

/// Snapshot cadence matching `ipd-tool run` (one publication per tick).
const SNAPSHOT_EVERY_TICKS: u32 = 5;

fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

struct ArmResult {
    flows: u64,
    secs: f64,
    epochs: u64,
    flight_recorded: u64,
    watermarks: usize,
}

/// One full run: stream `minutes` of the substrate through the engine with
/// an epoch publisher attached, against the given registry (live or
/// disabled).
fn run_arm(world: &DfzWorld, minutes: u64, params: IpdParams, telemetry: &Telemetry) -> ArmResult {
    let serve_metrics = if telemetry.is_enabled() {
        ServeTelemetry::register(telemetry)
    } else {
        ServeTelemetry::default()
    };
    let mut publisher = ServePublisher::with_metrics(serve_metrics);
    let swap = publisher.swap();

    let mut flows = 0u64;
    let stream = world.flows(minutes).map(|f| {
        flows += 1;
        f.flow
    });
    let start = Instant::now();
    let mut engine = IpdEngine::new(params).expect("valid params");
    run_offline_instrumented(
        &mut engine,
        stream,
        SNAPSHOT_EVERY_TICKS,
        None,
        &mut publisher,
        telemetry,
        |_| {},
    );
    let secs = start.elapsed().as_secs_f64();
    ArmResult {
        flows,
        secs,
        epochs: swap.load().value.epoch(),
        flight_recorded: telemetry.flight().recorded(),
        watermarks: telemetry.watermarks().len(),
    }
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
    let minutes: u64 = get("--minutes").map_or(10, |v| v.parse().expect("--minutes"));
    let reps: usize = get("--reps").map_or(5, |v| v.parse().expect("--reps"));
    let out = get("--out").unwrap_or_else(|| "BENCH_obs.json".to_string());

    let dfz = match tier.as_str() {
        "dfz" => DfzConfig::dfz(seed),
        "100k" => DfzConfig::tier_100k(seed),
        "10k" => DfzConfig::smoke_10k(seed),
        other => {
            eprintln!("unknown tier {other:?} (want dfz|100k|10k)");
            std::process::exit(2);
        }
    };
    let rate = dfz.flows_per_minute as f64;
    let params = IpdParams {
        ncidr_factor_v4: (64.0 / 32.0e6 * rate).max(1e-4),
        ncidr_factor_v6: (rate * 1.5e-11).max(1e-9),
        ..IpdParams::default()
    };
    eprintln!(
        "[record_obs] tier {tier}: {} IPv4 + {} IPv6 prefixes, {minutes} min at \
         {} flows/min, {reps} rep(s) per arm",
        dfz.plan.v4_prefixes, dfz.plan.v6_prefixes, dfz.flows_per_minute
    );

    let wall_start = Instant::now();
    let world = DfzWorld::new(dfz);
    // One untimed pass warms the page cache, the allocator, and the branch
    // predictors so the first measured arm isn't penalized for running cold.
    let warm = run_arm(
        &world,
        minutes.min(2),
        params.clone(),
        &Telemetry::disabled(),
    );
    eprintln!(
        "[record_obs] warmup: {} flows in {:.2}s (discarded)",
        warm.flows, warm.secs
    );
    let mut off_runs: Vec<ArmResult> = Vec::new();
    let mut on_runs: Vec<ArmResult> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    for rep in 0..reps {
        let run_off = || run_arm(&world, minutes, params.clone(), &Telemetry::disabled());
        let run_on = || run_arm(&world, minutes, params.clone(), &Telemetry::new());
        // Alternate the order within each pair so slow machine drift (one
        // arm always running later than the other) cancels out.
        let (o, i) = if rep % 2 == 0 {
            let o = run_off();
            (o, run_on())
        } else {
            let i = run_on();
            (run_off(), i)
        };
        eprintln!(
            "[record_obs] rep {rep}: off {:.2}s, on {:.2}s ({:+.2}%, {} flight events)",
            o.secs,
            i.secs,
            (i.secs / o.secs - 1.0) * 100.0,
            i.flight_recorded
        );
        ratios.push(i.secs / o.secs);
        off_runs.push(o);
        on_runs.push(i);
    }
    {
        let (off, on) = (off_runs.last().unwrap(), on_runs.last().unwrap());
        assert_eq!(off.flows, on.flows, "arms saw different streams");
        assert_eq!(off.epochs, on.epochs, "telemetry changed publication");
        assert!(on.flight_recorded > 0, "instrumented arm recorded nothing");
    }
    let flows = off_runs[0].flows;
    let epochs = off_runs[0].epochs;
    let flight_recorded = on_runs[0].flight_recorded;
    let watermarks = on_runs[0].watermarks;
    let median_secs = |runs: &mut [ArmResult]| {
        runs.sort_by(|a, b| a.secs.total_cmp(&b.secs));
        runs[runs.len() / 2].secs
    };
    ratios.sort_by(f64::total_cmp);
    let overhead = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    let off_secs = median_secs(&mut off_runs);
    let on_secs = median_secs(&mut on_runs);
    let peak_rss = peak_rss_bytes().unwrap_or(0);
    let recorded = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());

    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"ipd-bench-obs-v1\",");
    let _ = writeln!(j, "  \"recorded_unix\": {recorded},");
    let _ = writeln!(j, "  \"tier\": \"{tier}\",");
    let _ = writeln!(j, "  \"seed\": {seed},");
    let _ = writeln!(j, "  \"minutes\": {minutes},");
    let _ = writeln!(j, "  \"reps\": {reps},");
    let _ = writeln!(j, "  \"flows\": {flows},");
    let _ = writeln!(j, "  \"epochs\": {epochs},");
    let _ = writeln!(
        j,
        "  \"flows_per_sec_telemetry_off\": {:.0},",
        flows as f64 / off_secs.max(1e-9)
    );
    let _ = writeln!(
        j,
        "  \"flows_per_sec_telemetry_on\": {:.0},",
        flows as f64 / on_secs.max(1e-9)
    );
    let _ = writeln!(j, "  \"overhead_percent\": {overhead:.2},");
    let _ = writeln!(j, "  \"overhead_target_percent\": 3.0,");
    let _ = writeln!(j, "  \"flight_events_recorded\": {flight_recorded},");
    let _ = writeln!(j, "  \"watermarks_registered\": {watermarks},");
    let _ = writeln!(j, "  \"peak_rss_bytes\": {peak_rss},");
    let _ = writeln!(
        j,
        "  \"wall_clock_secs_total\": {:.1}",
        wall_start.elapsed().as_secs_f64()
    );
    let _ = writeln!(j, "}}");

    std::fs::write(&out, &j).expect("write output file");
    eprintln!("[record_obs] wrote {out} (overhead {overhead:.2}%)");
    print!("{j}");
}
