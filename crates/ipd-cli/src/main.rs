//! `ipd-tool` — command-line front end for the IPD reproduction.
//!
//! ```text
//! ipd-tool simulate --minutes 30 --flows-per-minute 20000 --seed 42 \
//!          --out trace.ipdt [--bgp-dump rib.txt]
//! ipd-tool run      --trace trace.ipdt [--q 0.95] [--cidr-max 28] \
//!          [--factor <auto>] [--table3 out.txt]
//! ipd-tool lookup   --trace trace.ipdt --addr 22.1.2.3 [--addr ...]
//! ipd-tool info     --trace trace.ipdt
//! ```
//!
//! `simulate` generates the synthetic tier-1 world and records its flow
//! stream to a trace file; `run` replays any trace through the engine and
//! prints the classification summary (optionally the full Table-3 output);
//! `lookup` resolves addresses against the final LPM table; `info` shows
//! trace statistics; `checkpoint` inspects a durable state directory;
//! `restore` recovers a crashed run and finishes the stream; `serve` runs
//! the pipeline and the ingress-lookup query server together, publishing a
//! fresh epoch every bucket close (or serves the last durable checkpoint
//! directly, no replay); `query` is the matching one-liner client.

mod args;

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;

use args::{ArgError, Args};
use ipd::output::default_ingress_format;
use ipd::pipeline::{
    run_offline_instrumented, run_offline_with, BucketClock, IpdPipeline, NoopHook, PipelineConfig,
    PipelineHook, PipelineOutput,
};
use ipd::{IpdEngine, IpdParams, Snapshot};
use ipd_bgp::write_dump;
use ipd_hist::{EpochImage, HistConfig, HistPublisher, HistStore, HistTelemetry};
use ipd_lpm::Addr;
use ipd_netflow::{FlowRecord, TraceReader, TraceWriter};
use ipd_serve::proto::{AnswerKind, WireAnswer};
use ipd_serve::{
    ClientPool, HistoryProvider, RetryPolicy, ServeClient, ServePublisher, ServeServer,
    ServeTelemetry,
};
use ipd_spoof::{
    run_offline, MapView, RouteExpect, SpoofDetector, SpoofReport, SpoofRunConfig, SpoofTelemetry,
    VerdictDigest, VerdictRecord,
};
use ipd_state::{read_journal, CheckpointStore, Durable, DurableConfig};
use ipd_telemetry::{install_panic_dump, Json, MetricsServer, StallDetector, StatusHub, Telemetry};
use ipd_topology::IngressPoint;
use ipd_traffic::{DfzConfig, DfzWorld, FlowSim, SimConfig, SpoofScenario, World, WorldConfig};
use std::sync::Arc;

const USAGE: &str =
    "usage: ipd-tool <simulate|run|lookup|info|checkpoint|restore|serve|query|spoof|hist> [--options]
  simulate   --out FILE [--minutes N] [--flows-per-minute N] [--seed N] [--bgp-dump FILE]
  run        --trace FILE [--q Q] [--cidr-max N] [--factor F] [--table3 FILE]
             [--checkpoint-dir DIR] [--checkpoint-every BUCKETS] [--retain N] [--limit N]
             [--metrics-addr HOST:PORT] [--metrics-dump]
  run        --scale dfz|100k|10k [--minutes N] [--seed N] [--prefixes N] [--v6-prefixes N]
             [--routers N] [--links N] [--flows-per-minute N] [--flap-fraction F]
             [--flap-secs S] [--updown-fraction F] [--up-secs S] [--down-secs S]
             (streaming DFZ substrate with route churn; no trace file involved)
  lookup     --trace FILE --addr A [--addr B ...]   (repeat via comma list)
  info       --trace FILE
  checkpoint --dir DIR                              (inspect a state directory)
  restore    --dir DIR [--trace FILE] [--table3 FILE]
  serve      --trace FILE | --from-checkpoint DIR   [--addr HOST:PORT]
             [--linger-secs S] [--port-file FILE] [--metrics-addr HOST:PORT]
             [--hist-dir DIR]       (record every epoch; answer QueryAt/DiffRange)
  query      --server HOST:PORT [--addr A,B,...] [--info] [--dump]
             [--at-epoch N] [--diff FROM,TO] [--wait-epoch N]
  top        --metrics-addr HOST:PORT [--interval-secs S] [--once]
             (live terminal view over a process's /statusz endpoint)
  spoof      --scale dfz|100k|10k [scale knobs] [--window-secs S]
             [--spoof-share F] [--shift-share F] [--shift-lag-secs S]
             [--server HOST:PORT [--pool N] | --from-checkpoint DIR]
             (judge a labeled scenario stream: offline deployment loop by
              default, or against a live server / a frozen checkpointed map)
  hist record   --dir DIR (--trace FILE | --scale dfz|100k|10k [scale knobs])
                [--keyframe-every K]
  hist info     --dir DIR
  hist query-at --dir DIR (--epoch N | --at-ts T) [--addr A,B,...]
  hist diff     --dir DIR --from N --to N [--limit N]
  hist compact  --dir DIR";

/// Snapshot cadence (in ticks) used by `run` and `restore`; the two must
/// agree for a restored run to resume the exact snapshot rhythm.
const SNAPSHOT_EVERY_TICKS: u32 = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ipd-tool: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_cli(raw: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    // `hist` takes an action word before the options (`hist record --dir …`);
    // fold it into the command so the flat parser stays positional-free.
    let mut raw = raw;
    if raw.first().map(String::as_str) == Some("hist") {
        match raw.get(1) {
            Some(action) if !action.starts_with('-') => {
                let action = raw.remove(1);
                raw[0] = format!("hist-{action}");
            }
            _ => {
                return Err(Box::new(ArgError(
                    "hist needs an action: record, info, query-at, diff, or compact".into(),
                )))
            }
        }
    }
    let args = Args::parse(raw)?;
    match args.command.as_str() {
        "simulate" => simulate(&args),
        "run" => run(&args),
        "lookup" => lookup(&args),
        "info" => info(&args),
        "checkpoint" => checkpoint(&args),
        "restore" => restore(&args),
        "serve" => serve(&args),
        "query" => query(&args),
        "top" => top(&args),
        "spoof" => spoof(&args),
        "hist-record" => hist_record(&args),
        "hist-info" => hist_info(&args),
        "hist-query-at" => hist_query_at(&args),
        "hist-diff" => hist_diff(&args),
        "hist-compact" => hist_compact(&args),
        other => Err(Box::new(ArgError(format!("unknown subcommand {other:?}")))),
    }
}

fn simulate(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let out = args.require("out")?;
    let minutes: u64 = args.get_or("minutes", 30)?;
    let flows_per_minute: u64 = args.get_or("flows-per-minute", 20_000)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let quiet = args.flag("quiet");

    let world = World::generate(WorldConfig::default(), seed);
    if !quiet {
        eprintln!(
            "world: {} ASes, {} routers, {} links, {} BGP prefixes",
            world.ases.len(),
            world.topology.routers().len(),
            world.topology.links().len(),
            world.rib.prefix_count()
        );
    }
    if let Some(path) = args.get("bgp-dump") {
        std::fs::write(path, write_dump(&world.rib, world.config.epoch))?;
        eprintln!("wrote BGP table dump to {path}");
    }
    let mut sim = FlowSim::new(
        world,
        SimConfig {
            flows_per_minute,
            seed,
            ..SimConfig::default()
        },
    );
    let mut writer = TraceWriter::new(BufWriter::new(File::create(out)?))?;
    for m in 0..minutes {
        for lf in sim.next_minute().flows {
            writer.write(&lf.flow)?;
        }
        if m % 10 == 9 {
            eprintln!("  {}/{} minutes, {} flows", m + 1, minutes, writer.count());
        }
    }
    let n = writer.count();
    writer.finish()?.flush()?;
    eprintln!("wrote {n} flows over {minutes} minutes to {out}");
    Ok(())
}

fn load_trace(path: &str) -> Result<Vec<FlowRecord>, Box<dyn std::error::Error>> {
    let reader = TraceReader::new(BufReader::new(File::open(path)?))?;
    let mut flows = Vec::new();
    for r in reader {
        flows.push(r?);
    }
    Ok(flows)
}

/// Make the durability hook `run` drives the engine with: a [`Durable`]
/// session when `--checkpoint-dir` is given, the no-op hook otherwise.
fn make_hook(
    args: &Args,
    engine: &IpdEngine,
    telemetry: &Telemetry,
) -> Result<Box<dyn PipelineHook>, Box<dyn std::error::Error>> {
    let Some(dir) = args.get("checkpoint-dir") else {
        return Ok(Box::new(NoopHook));
    };
    let config = DurableConfig {
        checkpoint_every_buckets: args.get_or("checkpoint-every", 10)?,
        retain: args.get_or("retain", 3)?,
    };
    let durable =
        Durable::start(dir, engine, BucketClock::default(), config)?.with_telemetry(telemetry);
    eprintln!(
        "durable: checkpointing to {dir} every {} buckets (generation {}, retaining {})",
        config.checkpoint_every_buckets,
        durable.seq(),
        config.retain
    );
    Ok(Box::new(durable))
}

/// Auto-scale the n_cidr factor to the trace's flow rate unless given.
/// Computed over the whole trace, before any --limit cut, so a truncated
/// (crash-simulating) run uses the same parameters as a full one. Returns
/// the parameters and the observed flow rate per minute.
fn trace_params(
    args: &Args,
    flows: &[FlowRecord],
) -> Result<(IpdParams, f64), Box<dyn std::error::Error>> {
    let span_secs = match (flows.first(), flows.last()) {
        (Some(a), Some(b)) => b.ts.saturating_sub(a.ts).max(60),
        _ => 60,
    };
    let rate_per_min = flows.len() as f64 / (span_secs as f64 / 60.0);
    let auto_factor = (64.0 / 32.0e6 * rate_per_min).max(1e-4);
    let params = IpdParams {
        q: args.get_or("q", 0.95)?,
        cidr_max_v4: args.get_or("cidr-max", 28)?,
        ncidr_factor_v4: args.get_or("factor", auto_factor)?,
        ncidr_factor_v6: (rate_per_min * 1.5e-11).max(1e-9),
        ..IpdParams::default()
    };
    Ok((params, rate_per_min))
}

fn engine_over(
    args: &Args,
    flows: &[FlowRecord],
    telemetry: &Telemetry,
) -> Result<(IpdEngine, Option<Snapshot>), Box<dyn std::error::Error>> {
    let (params, rate_per_min) = trace_params(args, flows)?;
    let limit: usize = args.get_or("limit", flows.len())?;
    let flows = &flows[..limit.min(flows.len())];
    eprintln!(
        "running IPD over {} flows (~{:.0} flows/min), q={}, cidr_max=/{}, n_cidr factor={:.4}",
        flows.len(),
        rate_per_min,
        params.q,
        params.cidr_max_v4,
        params.ncidr_factor_v4,
    );
    let mut last_snapshot = None;
    let mut capture = |o: PipelineOutput| {
        if let PipelineOutput::Snapshot(s) = o {
            last_snapshot = Some(s);
        }
    };
    let mut engine = IpdEngine::new(params)?;
    let mut hook = make_hook(args, &engine, telemetry)?;
    run_offline_instrumented(
        &mut engine,
        flows.iter().cloned(),
        SNAPSHOT_EVERY_TICKS,
        None,
        hook.as_mut(),
        telemetry,
        &mut capture,
    );
    Ok((engine, last_snapshot))
}

/// The classification summary both `run` and `restore` print.
fn report(
    args: &Args,
    engine: &IpdEngine,
    snapshot: Snapshot,
) -> Result<(), Box<dyn std::error::Error>> {
    let stats = engine.stats();
    println!("flows ingested:     {}", stats.flows_ingested);
    println!("stage-2 cycles:     {}", stats.ticks);
    println!("splits/joins:       {}/{}", stats.splits, stats.joins);
    println!("classifications:    {}", stats.classifications);
    println!("drops:              {}", stats.drops);
    println!("live ranges:        {}", engine.range_count());
    println!("classified ranges:  {}", engine.classified_count());
    println!(
        "state estimate:     {} KiB",
        engine.state_bytes_estimate() / 1024
    );
    if let Some(path) = args.get("table3") {
        std::fs::write(path, snapshot.to_table3(&default_ingress_format))?;
        println!(
            "wrote Table-3 output ({} ranges) to {path}",
            snapshot.records.len()
        );
    } else {
        println!("\ntop classified ranges by samples:");
        let mut classified: Vec<_> = snapshot.classified().collect();
        classified.sort_by(|a, b| b.sample_count.partial_cmp(&a.sample_count).expect("finite"));
        for r in classified.iter().take(10) {
            println!("  {}", r.table3_line(&default_ingress_format));
        }
    }
    Ok(())
}

/// Telemetry setup for `run` and `serve`: a live registry when either
/// metrics option is present (`--metrics-addr` additionally serves it over
/// HTTP, with `/statusz` beside `/metrics`), a disabled one otherwise — so
/// runs without the flags pay nothing. The returned [`StatusHub`] accepts
/// extra sections after the server is already bound (`serve` registers its
/// store and history state there). A live registry also installs the
/// panic-hook flight dump, so a crash prints the last recorded events.
fn metrics_setup(
    args: &Args,
) -> Result<(Telemetry, Option<MetricsServer>, StatusHub), Box<dyn std::error::Error>> {
    let telemetry = if args.get("metrics-addr").is_some() || args.flag("metrics-dump") {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    install_panic_dump(&telemetry.flight());
    let hub = StatusHub::with_telemetry(&telemetry);
    let server = match args.get("metrics-addr") {
        Some(addr) => {
            let server = MetricsServer::serve_with_status(addr, telemetry.clone(), hub.clone())?;
            eprintln!(
                "metrics: serving Prometheus text on http://{}/metrics \
                 (introspection on /statusz)",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };
    Ok((telemetry, server, hub))
}

/// Resolve `--scale` plus its override knobs into a [`DfzConfig`]. The
/// preset picks coherent defaults; every knob then overrides its field.
fn dfz_config(args: &Args) -> Result<(DfzConfig, u64), Box<dyn std::error::Error>> {
    let scale = args.require("scale")?;
    let seed: u64 = args.get_or("seed", 42)?;
    let mut cfg = match scale {
        "dfz" => DfzConfig::dfz(seed),
        "100k" => DfzConfig::tier_100k(seed),
        "10k" => DfzConfig::smoke_10k(seed),
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown --scale {other:?} (want dfz, 100k, or 10k)"
            ))))
        }
    };
    if let Some(v) = args.get("prefixes") {
        cfg.plan.v4_prefixes = v.parse()?;
    }
    if let Some(v) = args.get("v6-prefixes") {
        cfg.plan.v6_prefixes = v.parse()?;
    }
    if let Some(v) = args.get("routers") {
        cfg.topology.routers = v.parse()?;
    }
    if let Some(v) = args.get("links") {
        cfg.topology.links = v.parse()?;
    }
    // Keep the hierarchy valid if the router count was shrunk below the
    // preset's PoP count.
    cfg.topology.pops = cfg
        .topology
        .pops
        .min(cfg.topology.routers.min(u16::MAX as u32) as u16);
    cfg.topology.countries = cfg.topology.countries.min(cfg.topology.pops);
    cfg.flows_per_minute = args.get_or("flows-per-minute", cfg.flows_per_minute)?;
    cfg.churn.flap_fraction = args.get_or("flap-fraction", cfg.churn.flap_fraction)?;
    cfg.churn.flap_mean_secs = args.get_or("flap-secs", cfg.churn.flap_mean_secs)?;
    cfg.churn.updown_fraction = args.get_or("updown-fraction", cfg.churn.updown_fraction)?;
    cfg.churn.up_mean_secs = args.get_or("up-secs", cfg.churn.up_mean_secs)?;
    cfg.churn.down_mean_secs = args.get_or("down-secs", cfg.churn.down_mean_secs)?;
    let minutes: u64 = args.get_or("minutes", 10)?;
    Ok((cfg, minutes))
}

/// `run --scale`: stream a churned DFZ-scale substrate straight into the
/// engine — no trace file, no materialized world; memory is the engine's own
/// state plus a few hundred KiB of generator tables.
fn run_scale(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (cfg, minutes) = dfz_config(args)?;
    let (telemetry, _server, _hub) = metrics_setup(args)?;
    let world = DfzWorld::new(cfg);
    let rate = cfg.flows_per_minute as f64;
    let params = IpdParams {
        q: args.get_or("q", 0.95)?,
        cidr_max_v4: args.get_or("cidr-max", 28)?,
        ncidr_factor_v4: args.get_or("factor", (64.0 / 32.0e6 * rate).max(1e-4))?,
        ncidr_factor_v6: (rate * 1.5e-11).max(1e-9),
        ..IpdParams::default()
    };
    eprintln!(
        "scale world: {} IPv4 + {} IPv6 prefixes, {} routers, {} links, {} ASes \
         ({} KiB resident)",
        cfg.plan.v4_prefixes,
        cfg.plan.v6_prefixes,
        world.topology.router_count(),
        world.topology.link_count(),
        cfg.plan.ases,
        world.memory_bytes() / 1024,
    );
    eprintln!(
        "streaming {minutes} minutes at nominal {} flows/min (flap {:.0}% ~{}s, \
         up/down {:.0}% ~{}s/{}s), q={}, n_cidr factor={:.4}",
        cfg.flows_per_minute,
        cfg.churn.flap_fraction * 100.0,
        cfg.churn.flap_mean_secs,
        cfg.churn.updown_fraction * 100.0,
        cfg.churn.up_mean_secs,
        cfg.churn.down_mean_secs,
        params.q,
        params.ncidr_factor_v4,
    );
    let mut last_snapshot = None;
    let mut capture = |o: PipelineOutput| {
        if let PipelineOutput::Snapshot(s) = o {
            last_snapshot = Some(s);
        }
    };
    let mut engine = IpdEngine::new(params)?;
    let mut hook = make_hook(args, &engine, &telemetry)?;
    run_offline_instrumented(
        &mut engine,
        world.flows(minutes).map(|f| f.flow),
        SNAPSHOT_EVERY_TICKS,
        None,
        hook.as_mut(),
        &telemetry,
        &mut capture,
    );
    let snapshot = last_snapshot.ok_or("scale stream produced no snapshots (zero minutes?)")?;
    report(args, &engine, snapshot)?;
    if args.flag("metrics-dump") {
        println!("\nend-of-run metrics:");
        print!("{}", telemetry.snapshot().render_table());
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    if args.get("scale").is_some() {
        return run_scale(args);
    }
    let flows = load_trace(args.require("trace")?)?;
    let (telemetry, _server, _hub) = metrics_setup(args)?;
    let (engine, snapshot) = engine_over(args, &flows, &telemetry)?;
    let snapshot = snapshot.ok_or("trace produced no snapshots (empty?)")?;
    report(args, &engine, snapshot)?;
    if args.flag("metrics-dump") {
        println!("\nend-of-run metrics:");
        print!("{}", telemetry.snapshot().render_table());
    }
    Ok(())
}

/// Inspect a durable state directory: one line per generation.
fn checkpoint(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let dir = args.require("dir")?;
    let store = CheckpointStore::open(dir)?;
    let gens = store.generations()?;
    if gens.is_empty() {
        println!("no checkpoints in {dir}");
        return Ok(());
    }
    for seq in gens {
        match store.load_checkpoint(seq)? {
            Ok(state) => println!(
                "gen {seq}: valid, bucket {}, {} flows ingested, {} ingresses, {} ticks",
                state
                    .clock
                    .current_bucket
                    .map_or("-".into(), |b| b.to_string()),
                state.dump.stats.flows_ingested,
                state.dump.ingresses.len(),
                state.dump.stats.ticks,
            ),
            Err(e) => println!("gen {seq}: INVALID ({e})"),
        }
        let jpath = store.journal_path(seq);
        if jpath.exists() {
            let j = read_journal(&jpath)?;
            println!(
                "         journal: {} flows{}",
                j.records.len(),
                if j.torn_tail { ", torn tail" } else { "" }
            );
        }
    }
    Ok(())
}

/// Recover a crashed run from its state directory. With `--trace`, the
/// remainder of the stream (everything past the flows the restored engine
/// already ingested) is re-delivered before the final tick fires; without
/// it, the final tick closes out the restored state as-is.
fn restore(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let dir = args.require("dir")?;
    let restored = ipd_state::restore(Path::new(dir), SNAPSHOT_EVERY_TICKS)?;
    eprintln!(
        "restored generation {} from {dir}: {} journal flows replayed{}{}",
        restored.seq,
        restored.replayed,
        if restored.torn_tail {
            ", torn journal tail"
        } else {
            ""
        },
        if restored.fell_back > 0 {
            format!(
                ", fell back past {} damaged generation(s)",
                restored.fell_back
            )
        } else {
            String::new()
        },
    );
    let applied = restored.engine.stats().flows_ingested as usize;
    let rest: Vec<FlowRecord> = match args.get("trace") {
        Some(path) => {
            let flows = load_trace(path)?;
            eprintln!(
                "continuing with {} of {} trace flows",
                flows.len().saturating_sub(applied),
                flows.len()
            );
            flows.get(applied..).unwrap_or(&[]).to_vec()
        }
        None => Vec::new(),
    };

    let mut last_snapshot = None;
    let mut capture = |o: PipelineOutput| {
        if let PipelineOutput::Snapshot(s) = o {
            last_snapshot = Some(s);
        }
    };
    let mut engine = restored.engine;
    run_offline_with(
        &mut engine,
        rest,
        SNAPSHOT_EVERY_TICKS,
        Some(restored.clock),
        &mut NoopHook,
        &mut capture,
    );
    let snapshot = last_snapshot.ok_or("restored state produced no snapshot (no flows ever?)")?;
    report(args, &engine, snapshot)
}

/// Run the query server: drive a trace through the live pipeline (one
/// epoch per bucket close) or serve the newest durable checkpoint directly
/// (one epoch, no replay). `--linger-secs` keeps answering after the
/// source is exhausted; `--port-file` records the bound addresses for
/// scripts (line 1 query, line 2 metrics or `-`).
fn serve(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (telemetry, metrics_server, hub) = metrics_setup(args)?;
    let serve_metrics = ServeTelemetry::register(&telemetry);
    let mut publisher = ServePublisher::with_metrics(serve_metrics.clone());
    let swap = publisher.swap();
    // --hist-dir: every published epoch is also appended to a longitudinal
    // store, and the server answers QueryAt/DiffRange out of it.
    let mut hist_pub = match args.get("hist-dir") {
        Some(dir) => {
            let store = HistStore::open_with(
                dir,
                HistConfig::default(),
                HistTelemetry::register(&telemetry),
            )?;
            eprintln!(
                "serve: recording history to {dir} (next epoch {})",
                store.last_epoch() + 1
            );
            Some(HistPublisher::new(store))
        }
        None => None,
    };
    let hist_store = hist_pub.as_ref().map(|p| p.store());
    let history: Option<Arc<dyn HistoryProvider>> = hist_store
        .as_ref()
        .map(|s| Arc::new(s.reader()) as Arc<dyn HistoryProvider>);
    // /statusz sections beyond the built-ins: the live store's publication
    // state (including garbage and rotation accounting) and, when recording,
    // the history manifest. Field names are part of the DESIGN.md §16
    // append-only contract.
    {
        let status_swap = swap.clone();
        hub.register("serve", move || {
            let current = status_swap.load();
            format!(
                "{{\"epoch\":{},\"ts\":{},\"entries\":{},\"memory_bytes\":{},\
                 \"garbage\":{},\"rotations\":{}}}",
                current.value.epoch(),
                current.value.ts(),
                current.value.len(),
                current.value.memory_bytes(),
                current.value.garbage(),
                current.epoch,
            )
        });
    }
    if let Some(store) = &hist_store {
        let store = Arc::clone(store);
        hub.register("hist", move || {
            format!(
                "{{\"last_epoch\":{},\"segments\":{},\"keyframes\":{},\"bytes_on_disk\":{}}}",
                store.last_epoch(),
                store.segment_count(),
                store.reader().keyframe_count(),
                store.bytes_on_disk(),
            )
        });
    }
    // Stall detection over the freshness watermarks: a wedged publication
    // (or persistence) stage surfaces within one poll interval, recording a
    // stall flight event and dumping the recorder tail to stderr. Watermark
    // registration is idempotent, so looking the stages up by name here
    // shares the cells the pipeline and hist layers record into.
    let _stall = if telemetry.is_enabled() {
        let mut detector = StallDetector::new(
            telemetry.watermark(
                "ipd_pipeline_ingest_watermark",
                "Flow time of the latest flow batch handed to the engine",
            ),
            telemetry.flight(),
            telemetry.counter("ipd_serve_stalls_total", "Stages detected wedged"),
        );
        detector.watch("publish", serve_metrics.publish_watermark.clone());
        if hist_store.is_some() {
            detector.watch(
                "hist",
                telemetry.watermark(
                    "ipd_hist_persist_watermark",
                    "Flow time of the latest durably appended epoch",
                ),
            );
        }
        Some(detector.spawn(std::time::Duration::from_secs(2)))
    } else {
        None
    };
    // A checkpoint is published before the port is announced, so the first
    // client of a port-file script already sees the restored map.
    let from_checkpoint = args.get("from-checkpoint");
    if let Some(dir) = from_checkpoint {
        let store = CheckpointStore::open(dir)?;
        let (seq, engine, clock) = store
            .latest_engine()?
            .ok_or("no restorable checkpoint in the state directory")?;
        let ts = clock
            .current_bucket
            .map_or(0, |b| b * engine.params().t_secs);
        let epoch = publisher.publish_now(&engine, ts);
        if let Some(store) = &hist_store {
            let epoch = store.last_epoch() + 1;
            store.append(EpochImage::new(epoch, ts, engine.served_rows()))?;
        }
        eprintln!(
            "serve: published generation {seq} ({} classified ranges, data ts {ts}) as epoch {epoch}",
            engine.classified_count()
        );
    }
    let server = ServeServer::serve_with_history(
        args.get("addr").unwrap_or("127.0.0.1:0"),
        swap.clone(),
        serve_metrics,
        history,
    )?;
    eprintln!("serve: answering queries on {}", server.local_addr());
    if let Some(path) = args.get("port-file") {
        // Written whole then renamed, so a polling script never reads a
        // half-written file.
        let metrics_line = metrics_server
            .as_ref()
            .map_or("-".to_string(), |s| s.local_addr().to_string());
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, format!("{}\n{metrics_line}\n", server.local_addr()))?;
        std::fs::rename(&tmp, path)?;
    }

    if from_checkpoint.is_none() {
        let flows = load_trace(args.require("trace")?)?;
        let (params, rate) = trace_params(args, &flows)?;
        eprintln!(
            "serve: streaming {} flows (~{rate:.0} flows/min) through the pipeline",
            flows.len()
        );
        let config = PipelineConfig {
            params,
            snapshot_every_ticks: SNAPSHOT_EVERY_TICKS,
            telemetry: telemetry.clone(),
            ..PipelineConfig::default()
        };
        // With a history directory the pipeline hook publishes on both
        // planes; append errors latch inside the wrapped HistPublisher (the
        // boxed hook is not recoverable after finish), so the end-of-run
        // compaction below is what surfaces persistent I/O trouble.
        let hook: Box<dyn PipelineHook> = match hist_pub.take() {
            Some(hist) => Box::new(RecordingPublisher {
                serve: publisher,
                hist,
            }),
            None => Box::new(publisher),
        };
        // The bounded output channel must be drained or the engine stalls
        // mid-stream; serve has no other use for the tick reports.
        let pipeline = IpdPipeline::spawn_hooked(config, hook)?;
        let rx = pipeline.output().clone();
        let drainer = std::thread::spawn(move || rx.iter().count());
        let tx = pipeline.input();
        for chunk in flows.chunks(4096) {
            tx.send(chunk.to_vec())
                .map_err(|_| "pipeline input closed early")?;
        }
        drop(tx);
        let (engine, _hook, _leftover) = pipeline.finish_hooked();
        drainer.join().expect("drainer");
        let classified = engine.classified_count();
        eprintln!(
            "serve: stream complete at epoch {}, {classified} classified ranges",
            swap.load().value.epoch()
        );
    }

    let linger: u64 = args.get_or("linger-secs", 0)?;
    if linger > 0 {
        eprintln!("serve: answering for another {linger}s");
        std::thread::sleep(std::time::Duration::from_secs(linger));
    }
    if let Some(store) = &hist_store {
        store.compact_now()?;
        store.flush()?;
        eprintln!(
            "serve: history holds epochs {:?} ({} segments, {} KiB on disk)",
            store.reader().epochs(),
            store.segment_count(),
            store.bytes_on_disk() / 1024
        );
    }
    server.shutdown();
    drop(metrics_server);
    Ok(())
}

/// `serve --hist-dir`: one pipeline hook feeding both publication planes —
/// the live epoch swap and the longitudinal store — so the wire epoch and
/// the recorded epoch advance in lockstep.
struct RecordingPublisher {
    serve: ServePublisher,
    hist: HistPublisher,
}

impl PipelineHook for RecordingPublisher {
    fn flows(&mut self, flows: &[FlowRecord]) {
        self.serve.flows(flows);
        self.hist.flows(flows);
    }

    fn bucket_crossed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        self.serve.bucket_crossed(engine, clock);
        self.hist.bucket_crossed(engine, clock);
    }

    fn finished(&mut self, engine: &IpdEngine, clock: BucketClock) {
        self.serve.finished(engine, clock);
        self.hist.finished(engine, clock);
    }

    fn closed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        self.serve.closed(engine, clock);
        self.hist.closed(engine, clock);
    }
}

fn parse_addrs(spec: &str) -> Result<Vec<Addr>, std::net::AddrParseError> {
    spec.split(',')
        .map(|s| s.trim().parse::<std::net::IpAddr>().map(Addr::from))
        .collect()
}

fn print_wire_answer(addr: Addr, a: &ipd_serve::proto::WireAnswer) {
    match a.kind {
        AnswerKind::Unmapped => println!("  {addr:<18} (not classified)"),
        AnswerKind::Link => println!(
            "  {addr:<18} /{:<3} router {} if {}   link    confidence {:.3}",
            a.prefix_len, a.router, a.ifindex, a.confidence
        ),
        AnswerKind::Bundle => println!(
            "  {addr:<18} /{:<3} router {} if {}+  bundle  confidence {:.3}",
            a.prefix_len, a.router, a.ifindex, a.confidence
        ),
    }
}

fn wire_ingress_label(i: &Option<ipd_serve::proto::WireIngress>) -> String {
    match i {
        Some(w) if w.bundle => format!("router {} if {}+ (bundle)", w.router, w.ifindex),
        Some(w) => format!("router {} if {}", w.router, w.ifindex),
        None => "(unmapped)".to_string(),
    }
}

/// One-shot client against a running `serve`: batched lookups and/or the
/// store metadata line, plus the time-travel operations when the server
/// carries a history (`--at-epoch`, `--diff`) and epoch synchronization
/// (`--wait-epoch`).
fn query(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let mut client = ServeClient::connect(args.require("server")?)?;
    if args.flag("dump") {
        let events = client.dump()?;
        println!("{} flight event(s):", events.len());
        print!("{}", ipd_telemetry::render_events(&events));
        return Ok(());
    }
    if let Some(min) = args.get("wait-epoch") {
        let min: u64 = min.parse()?;
        let i = client.wait_epoch(min)?;
        println!(
            "epoch {} reached (data ts {}, {} entries)",
            i.epoch, i.ts, i.entries
        );
        if args.get("addr").is_none() && args.get("diff").is_none() {
            return Ok(());
        }
    }
    if let Some(spec) = args.get("diff") {
        let (from, to) = spec
            .split_once(',')
            .ok_or_else(|| ArgError("--diff wants FROM,TO (two epochs)".into()))?;
        let (from, to) = (from.trim().parse::<u64>()?, to.trim().parse::<u64>()?);
        let changes = client.diff_range(from, to)?;
        // Routinely piped into `head`; stop quietly when the reader hangs
        // up instead of panicking on the broken pipe.
        use std::io::Write as _;
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        if writeln!(
            out,
            "{} change(s) between epoch {from} and epoch {to}:",
            changes.len()
        )
        .is_err()
        {
            return Ok(());
        }
        for c in &changes {
            if writeln!(
                out,
                "  {:<20} {} -> {}",
                c.prefix,
                wire_ingress_label(&c.before),
                wire_ingress_label(&c.after)
            )
            .is_err()
            {
                return Ok(());
            }
        }
        return Ok(());
    }
    if let Some(epoch) = args.get("at-epoch") {
        let epoch: u64 = epoch.parse()?;
        let addrs = parse_addrs(args.require("addr")?)?;
        println!("epoch {epoch} (historical):");
        for addr in addrs {
            match client.query_at(epoch, addr)? {
                Some(a) => print_wire_answer(addr, &a),
                None => return Err(format!("server does not hold epoch {epoch}").into()),
            }
        }
        return Ok(());
    }
    if args.flag("info") || args.get("addr").is_none() {
        let i = client.info()?;
        println!("epoch:     {}", i.epoch);
        println!("data ts:   {}", i.ts);
        println!("entries:   {}", i.entries);
        println!("memory:    {} KiB", i.memory_bytes / 1024);
        println!("garbage:   {}", i.garbage);
        println!("rotations: {}", i.rotations);
        println!("epoch age: {:.3} s", i.age_nanos as f64 / 1e9);
        if args.get("addr").is_none() {
            return Ok(());
        }
    }
    let addrs = parse_addrs(args.require("addr")?)?;
    let (epoch, answers) = client.batch(&addrs)?;
    println!("epoch {epoch}:");
    for (addr, a) in addrs.iter().zip(&answers) {
        print_wire_answer(*addr, a);
    }
    Ok(())
}

/// One raw `GET /statusz` against a metrics endpoint, parsed into [`Json`].
/// Plain `std::net`, mirroring the serving side's zero-dependency HTTP.
fn fetch_statusz(addr: &str) -> Result<Json, Box<dyn std::error::Error>> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(std::time::Duration::from_secs(5)))?;
    // One write syscall: the server reads once and then responds.
    let request = format!("GET /statusz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .ok_or("malformed HTTP response (no header/body separator)")?;
    Ok(Json::parse(body).map_err(|e| format!("/statusz is not valid JSON: {e}"))?)
}

/// Render one scalar JSON value for the `top` view.
fn json_scalar(v: &Json) -> String {
    match v {
        Json::Num(n) => format!("{n}"),
        Json::Str(s) => s.clone(),
        Json::Bool(b) => format!("{b}"),
        Json::Null => "null".to_string(),
        Json::Arr(items) => format!("[{} items]", items.len()),
        Json::Obj(fields) => format!("{{{} fields}}", fields.len()),
    }
}

/// Format a `/statusz` document as the `top` terminal view: watermarks and
/// the flight tail get dedicated layouts, every other section prints its
/// fields generically — so sections added by future processes show up
/// without a tool upgrade (the unknown-fields-are-ignored contract, read
/// side).
fn render_statusz(doc: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if let Some(wm) = doc.get("watermarks").and_then(Json::as_obj) {
        let _ = writeln!(out, "watermarks:");
        if wm.is_empty() {
            let _ = writeln!(out, "  (none recorded)");
        }
        for (name, w) in wm {
            let num = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {name:<36} flow_ts {:>12}  age {:>9.3}s  updates {}",
                num("flow_ts"),
                num("age_seconds"),
                num("updates"),
            );
        }
    }
    for (name, section) in doc.as_obj().unwrap_or(&[]) {
        if name == "watermarks" || name == "flight" {
            continue;
        }
        let _ = writeln!(out, "{name}:");
        match section.as_obj() {
            Some([]) => {
                let _ = writeln!(out, "  (empty)");
            }
            Some(fields) => {
                for (k, v) in fields {
                    let _ = writeln!(out, "  {k:<36} {}", json_scalar(v));
                }
            }
            None => {
                let _ = writeln!(out, "  {}", json_scalar(section));
            }
        }
    }
    if let Some(flight) = doc.get("flight") {
        let recorded = flight.get("recorded").and_then(Json::as_f64).unwrap_or(0.0);
        let _ = writeln!(out, "flight ({recorded} recorded):");
        let tail = flight.get("tail").and_then(Json::as_arr).unwrap_or(&[]);
        if tail.is_empty() {
            let _ = writeln!(out, "  (no events)");
        }
        for e in tail {
            let num = |k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  #{:<8} {:<16} ts={} a={} b={} c={}",
                num("seq"),
                e.get("kind").and_then(Json::as_str).unwrap_or("?"),
                num("ts"),
                num("a"),
                num("b"),
                num("c"),
            );
        }
    }
    out
}

/// `top`: a live terminal view over a process's `/statusz` endpoint —
/// freshness watermarks, lag gauges, store/history state, and the flight
/// recorder tail, refreshed in place until interrupted (`--once` renders a
/// single frame, for scripts and tests).
fn top(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let addr = args.require("metrics-addr")?;
    let interval: u64 = args.get_or("interval-secs", 2)?;
    let once = args.flag("once");
    loop {
        let doc = fetch_statusz(addr)?;
        let frame = render_statusz(&doc);
        if !once {
            // ANSI clear + home: repaint in place like top(1).
            print!("\x1b[2J\x1b[H");
        }
        println!("ipd-tool top — {addr}");
        print!("{frame}");
        if once {
            return Ok(());
        }
        std::io::Write::flush(&mut std::io::stdout())?;
        std::thread::sleep(std::time::Duration::from_secs(interval.max(1)));
    }
}

/// Resolve the scenario + detector knobs shared by every `spoof` mode.
fn spoof_scenario(args: &Args) -> Result<(SpoofScenario, u64, u64), Box<dyn std::error::Error>> {
    let (dfz, minutes) = dfz_config(args)?;
    let mut scenario = SpoofScenario::mixed(dfz);
    scenario.spoof_share = args.get_or("spoof-share", scenario.spoof_share)?;
    scenario.shift_share = args.get_or("shift-share", scenario.shift_share)?;
    scenario.shift_lag_secs = args.get_or("shift-lag-secs", scenario.shift_lag_secs)?;
    let window_secs: u64 = args.get_or("window-secs", 300)?;
    Ok((scenario, minutes, window_secs))
}

/// The machine-readable summary every `spoof` mode ends with; the CI
/// smoke job greps these lines, so keys and formats are load-bearing.
fn print_spoof_report(r: &SpoofReport) {
    println!("flows: {}", r.flows);
    println!(
        "verdicts: consistent {} spoofed {} catchment-shift {}",
        r.verdicts[0], r.verdicts[1], r.verdicts[2]
    );
    println!("precision: {:.4}", r.precision());
    println!("recall: {:.4}", r.recall());
    println!("f1: {:.4}", r.f1());
    println!("shift_non_spoofed: {:.4}", r.shift_non_spoofed());
    println!("digest: {:#018x}", r.digest);
}

/// How a [`WireAnswer`] relates to the ingress a flow arrived at. A bundle
/// answer carries only its lowest member interface over the wire, so bundle
/// matching degrades to router equality — the same router is by definition
/// where every member interface terminates.
fn wire_view(a: &WireAnswer, observed: IngressPoint) -> MapView {
    match a.kind {
        AnswerKind::Unmapped => MapView::Unmapped,
        AnswerKind::Link if a.router == observed.router && a.ifindex == observed.ifindex => {
            MapView::Match
        }
        AnswerKind::Bundle if a.router == observed.router => MapView::Match,
        _ => MapView::Mismatch,
    }
}

/// `spoof`: judge a labeled scenario stream. Three map sources share one
/// detector: the offline deployment loop (engine + live publication, the
/// exact shape `ipd-spoof` pins golden), a running `serve` instance
/// (batched lookups through a bounded connection pool), or the newest
/// durable checkpoint (one frozen epoch, no replay).
fn spoof(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (scenario, minutes, window_secs) = spoof_scenario(args)?;
    eprintln!(
        "spoof: {} v4 + {} v6 prefixes, {} flows/min x {minutes} min, shares spoof {:.3} shift {:.3} (lag {}s), window {window_secs}s",
        scenario.dfz.plan.v4_prefixes,
        scenario.dfz.plan.v6_prefixes,
        scenario.dfz.flows_per_minute,
        scenario.spoof_share,
        scenario.shift_share,
        scenario.shift_lag_secs,
    );

    let report = if let Some(server) = args.get("server") {
        spoof_against_server(args, server, &scenario, minutes, window_secs)?
    } else if let Some(dir) = args.get("from-checkpoint") {
        spoof_against_checkpoint(dir, &scenario, minutes, window_secs)?
    } else {
        let cfg = SpoofRunConfig {
            scenario,
            minutes,
            window_secs,
            snapshot_every_ticks: SNAPSHOT_EVERY_TICKS,
        };
        eprintln!("spoof: offline deployment loop, publishing every bucket close");
        run_offline(&cfg, &SpoofTelemetry::default())
    };
    print_spoof_report(&report);
    Ok(())
}

/// Judge the scenario against whatever map a running `serve` holds. Lookups
/// go out in batches through a [`ClientPool`], so a slow or restarting
/// server costs reconnects, not verdicts.
fn spoof_against_server(
    args: &Args,
    server: &str,
    scenario: &SpoofScenario,
    minutes: u64,
    window_secs: u64,
) -> Result<SpoofReport, Box<dyn std::error::Error>> {
    const BATCH: usize = 256;
    let pool = ClientPool::new(server, args.get_or("pool", 2)?, RetryPolicy::default())?;
    let world = DfzWorld::new(scenario.dfz);
    let detector = SpoofDetector::new(
        RouteExpect::new(&world, window_secs),
        SpoofTelemetry::default(),
    );
    eprintln!(
        "spoof: judging against live map at {server} (pool of {}, batches of {BATCH})",
        pool.capacity()
    );

    let mut scorer = SpoofScorer::default();
    let mut pending = Vec::with_capacity(BATCH);
    let mut stream = scenario.stream(&world, minutes);
    loop {
        pending.clear();
        pending.extend(stream.by_ref().take(BATCH));
        if pending.is_empty() {
            break;
        }
        let addrs: Vec<Addr> = pending.iter().map(|sf| sf.flow.src).collect();
        let (epoch, answers) = pool.checkout().batch(&addrs)?;
        for (sf, a) in pending.iter().zip(&answers) {
            let observed = IngressPoint::new(sf.flow.router, sf.flow.input_if);
            let map = wire_view(a, observed);
            scorer.judge(&detector, sf, observed, map, epoch);
        }
    }
    Ok(scorer.finish(pool.checkout().info()?.epoch))
}

/// Judge the scenario against the newest durable checkpoint: one frozen
/// epoch published into a local [`LiveStore`](ipd_serve::LiveStore), no
/// replay, no network.
fn spoof_against_checkpoint(
    dir: &str,
    scenario: &SpoofScenario,
    minutes: u64,
    window_secs: u64,
) -> Result<SpoofReport, Box<dyn std::error::Error>> {
    let store = CheckpointStore::open(dir)?;
    let (seq, engine, clock) = store
        .latest_engine()?
        .ok_or("no restorable checkpoint in the state directory")?;
    let ts = clock
        .current_bucket
        .map_or(0, |b| b * engine.params().t_secs);
    let mut publisher = ServePublisher::new();
    let epoch = publisher.publish_now(&engine, ts);
    eprintln!(
        "spoof: judging against checkpoint generation {seq} ({} classified ranges, data ts {ts}) as epoch {epoch}",
        engine.classified_count()
    );

    let world = DfzWorld::new(scenario.dfz);
    let detector = SpoofDetector::new(
        RouteExpect::new(&world, window_secs),
        SpoofTelemetry::default(),
    );
    let swap = publisher.swap();
    let live = swap.load();
    let mut scorer = SpoofScorer::default();
    for sf in scenario.stream(&world, minutes) {
        let observed = IngressPoint::new(sf.flow.router, sf.flow.input_if);
        let map = match live.value.lookup(sf.flow.src) {
            None => MapView::Unmapped,
            Some(a) if a.ingress.matches(observed) => MapView::Match,
            Some(_) => MapView::Mismatch,
        };
        scorer.judge(&detector, &sf, observed, map, epoch);
    }
    Ok(scorer.finish(epoch))
}

/// Confusion accounting shared by the server and checkpoint modes (the
/// offline mode keeps its own inside `ipd-spoof`, where the publication
/// loop lives).
#[derive(Default)]
struct SpoofScorer {
    flows: u64,
    verdicts: [u64; 3],
    matrix: [[u64; 3]; 3],
    digest: VerdictDigest,
}

impl SpoofScorer {
    fn judge(
        &mut self,
        detector: &SpoofDetector,
        sf: &ipd_traffic::ScenarioFlow,
        observed: IngressPoint,
        map: MapView,
        epoch: u64,
    ) {
        let verdict = detector.decide(sf.flow.src, observed, sf.flow.ts, map);
        self.digest.observe(&VerdictRecord {
            ts: sf.flow.ts,
            src: sf.flow.src,
            observed,
            verdict,
            label: Some(sf.label),
            epoch,
        });
        self.flows += 1;
        self.verdicts[verdict.index()] += 1;
        self.matrix[sf.label.code() as usize][verdict.index()] += 1;
    }

    fn finish(self, epochs: u64) -> SpoofReport {
        SpoofReport {
            flows: self.flows,
            ticks: 0,
            epochs,
            verdicts: self.verdicts,
            matrix: self.matrix,
            digest: self.digest.finish(),
        }
    }
}

/// `hist record`: run a trace or the DFZ-scale substrate through the
/// engine, appending every published epoch to a longitudinal store, then
/// compact so the directory is immediately cheap to query.
fn hist_record(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let dir = args.require("dir")?;
    let cfg = HistConfig {
        keyframe_every: args.get_or("keyframe-every", HistConfig::default().keyframe_every)?,
        ..HistConfig::default()
    };
    let store = HistStore::open_with(dir, cfg, HistTelemetry::default())?;
    let first = store.last_epoch() + 1;
    let mut hook = HistPublisher::new(store);
    let mut drive = |params: IpdParams, flows: &mut dyn Iterator<Item = FlowRecord>| {
        let mut engine = IpdEngine::new(params)?;
        run_offline_with(
            &mut engine,
            flows,
            SNAPSHOT_EVERY_TICKS,
            None,
            &mut hook,
            |_| {},
        );
        Ok::<_, ipd::ParamError>(())
    };

    if args.get("scale").is_some() {
        let (cfg, minutes) = dfz_config(args)?;
        let world = DfzWorld::new(cfg);
        let rate = cfg.flows_per_minute as f64;
        let params = IpdParams {
            q: args.get_or("q", 0.95)?,
            cidr_max_v4: args.get_or("cidr-max", 28)?,
            ncidr_factor_v4: args.get_or("factor", (64.0 / 32.0e6 * rate).max(1e-4))?,
            ncidr_factor_v6: (rate * 1.5e-11).max(1e-9),
            ..IpdParams::default()
        };
        eprintln!(
            "hist record: streaming {minutes} minutes of the {}-prefix substrate into {dir}",
            cfg.plan.v4_prefixes
        );
        drive(params, &mut world.flows(minutes).map(|f| f.flow))?;
    } else {
        let flows = load_trace(args.require("trace")?)?;
        let (params, rate) = trace_params(args, &flows)?;
        eprintln!(
            "hist record: replaying {} flows (~{rate:.0} flows/min) into {dir}",
            flows.len()
        );
        drive(params, &mut flows.into_iter())?;
    }
    if let Some(e) = hook.error() {
        return Err(format!("recording failed: {e}").into());
    }
    let store = hook.store();
    store.compact_now()?;
    store.flush()?;
    println!("recorded epochs {first}..={}", store.last_epoch());
    println!(
        "segments:  {} ({} keyframes)",
        store.segment_count(),
        store.reader().keyframe_count()
    );
    println!("on disk:   {} KiB", store.bytes_on_disk() / 1024);
    Ok(())
}

/// Open a history directory for the read-side subcommands: no background
/// compaction thread, nothing on disk is modified by reads.
fn open_hist_readonly(dir: &str) -> Result<HistStore, Box<dyn std::error::Error>> {
    let cfg = HistConfig {
        background_compaction: false,
        ..HistConfig::default()
    };
    Ok(HistStore::open_with(dir, cfg, HistTelemetry::default())?)
}

fn hist_info(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let store = open_hist_readonly(args.require("dir")?)?;
    let reader = store.reader();
    let range = reader.epochs();
    if range.is_empty() {
        println!("empty history");
        return Ok(());
    }
    let (first, last) = (*range.start(), *range.end());
    let first_img = reader.image_at(first)?.expect("first epoch held");
    let last_img = reader.image_at(last)?.expect("last epoch held");
    println!("epochs:    {first}..={last}");
    println!("time span: {} .. {}", first_img.ts, last_img.ts);
    println!("entries:   {} (at epoch {last})", last_img.rows().len());
    println!(
        "segments:  {} ({} keyframes)",
        store.segment_count(),
        reader.keyframe_count()
    );
    println!("on disk:   {} KiB", store.bytes_on_disk() / 1024);
    Ok(())
}

/// `hist query-at`: reconstruct one epoch (by number or by simulation
/// time) and resolve addresses against it.
fn hist_query_at(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let store = open_hist_readonly(args.require("dir")?)?;
    let reader = store.reader();
    let epoch = if let Some(e) = args.get("epoch") {
        e.parse::<u64>()?
    } else if let Some(t) = args.get("at-ts") {
        let ts: u64 = t.parse()?;
        reader
            .epoch_at_time(ts)
            .ok_or_else(|| format!("no epoch at or before ts {ts}"))?
    } else {
        return Err(Box::new(ArgError(
            "hist query-at needs --epoch N or --at-ts T".into(),
        )));
    };
    let rebuilt = reader
        .store_at(epoch)?
        .ok_or_else(|| format!("epoch {epoch} not held (history: {:?})", reader.epochs()))?;
    println!(
        "epoch {epoch}: data ts {}, {} entries",
        rebuilt.ts(),
        rebuilt.len()
    );
    if let Some(spec) = args.get("addr") {
        for addr in parse_addrs(spec)? {
            match rebuilt.lookup(addr) {
                Some(a) => println!(
                    "  {addr:<18} {:<20} {}   confidence {:.3}",
                    a.prefix, a.ingress, a.confidence
                ),
                None => println!("  {addr:<18} (not classified)"),
            }
        }
    }
    Ok(())
}

/// `hist diff`: what changed between two recorded epochs — appeared (`+`),
/// disappeared (`-`), or moved ingress (`~`).
fn hist_diff(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let store = open_hist_readonly(args.require("dir")?)?;
    let reader = store.reader();
    let from: u64 = args.require("from")?.parse()?;
    let to: u64 = args.require("to")?.parse()?;
    let limit: usize = args.get_or("limit", 50)?;
    let changes = reader
        .diff(from, to)?
        .ok_or_else(|| format!("epoch range not held (history: {:?})", reader.epochs()))?;
    // Bulk output is routinely piped into `head`; stop quietly when the
    // reader hangs up instead of panicking on the broken pipe.
    use std::io::Write as _;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut emit = |line: String| writeln!(out, "{line}").is_ok();
    if !emit(format!(
        "{} change(s) between epoch {from} and epoch {to}:",
        changes.len()
    )) {
        return Ok(());
    }
    for c in changes.iter().take(limit) {
        let line = match (&c.before, &c.after) {
            (None, Some(a)) => format!("  + {:<20} -> {a}", c.prefix),
            (Some(b), None) => format!("  - {:<20} was {b}", c.prefix),
            (Some(b), Some(a)) => format!("  ~ {:<20} {b} -> {a}", c.prefix),
            (None, None) => unreachable!("the diff seam never emits a no-op change"),
        };
        if !emit(line) {
            return Ok(());
        }
    }
    if changes.len() > limit {
        emit(format!(
            "  … {} more (raise --limit)",
            changes.len() - limit
        ));
    }
    Ok(())
}

fn hist_compact(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let dir = args.require("dir")?;
    let cfg = HistConfig {
        background_compaction: false,
        ..HistConfig::default()
    };
    let store = HistStore::open_with(dir, cfg, HistTelemetry::default())?;
    let folded = store.compact_now()?;
    store.flush()?;
    println!("folded {folded} delta segment(s) into keyframes");
    println!(
        "segments:  {} ({} keyframes), {} KiB on disk",
        store.segment_count(),
        store.reader().keyframe_count(),
        store.bytes_on_disk() / 1024
    );
    Ok(())
}

fn lookup(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let flows = load_trace(args.require("trace")?)?;
    let addrs: Vec<Addr> = args
        .require("addr")?
        .split(',')
        .map(|s| s.trim().parse::<std::net::IpAddr>().map(Addr::from))
        .collect::<Result<_, _>>()?;
    let (_, snapshot) = engine_over(args, &flows, &Telemetry::disabled())?;
    let table = snapshot
        .ok_or("trace produced no snapshots (empty?)")?
        .lpm_table();
    for addr in addrs {
        match table.lookup(addr) {
            Some((range, ingress)) => println!("{addr:<18} {range:<20} {ingress}"),
            None => println!("{addr:<18} (not classified)"),
        }
    }
    Ok(())
}

fn info(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let flows = load_trace(args.require("trace")?)?;
    if flows.is_empty() {
        println!("empty trace");
        return Ok(());
    }
    let (first, last) = (
        flows.first().expect("non-empty"),
        flows.last().expect("non-empty"),
    );
    let routers: std::collections::HashSet<u32> = flows.iter().map(|f| f.router).collect();
    let srcs: std::collections::HashSet<u128> =
        flows.iter().map(|f| f.src.masked(24).bits()).collect();
    println!("records:        {}", flows.len());
    println!(
        "time span:      {} .. {} ({} s)",
        first.ts,
        last.ts,
        last.ts - first.ts
    );
    println!("border routers: {}", routers.len());
    println!("distinct /24s:  {}", srcs.len());
    println!(
        "total volume:   {:.1} M packets, {:.1} GB (sampled)",
        flows.iter().map(|f| f.packets as f64).sum::<f64>() / 1e6,
        flows.iter().map(|f| f.bytes as f64).sum::<f64>() / 1e9
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("ipd-tool-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn simulate_then_run_and_lookup() {
        let trace = tmp("smoke.ipdt");
        let bgp = tmp("smoke-rib.txt");
        run_cli(argv(&[
            "simulate",
            "--minutes",
            "6",
            "--flows-per-minute",
            "3000",
            "--seed",
            "7",
            "--out",
            &trace,
            "--bgp-dump",
            &bgp,
        ]))
        .expect("simulate");
        assert!(std::fs::metadata(&trace).expect("trace file").len() > 1000);
        let dump = std::fs::read_to_string(&bgp).expect("bgp dump");
        assert!(dump.starts_with("TABLE_DUMP2|"));

        let table3 = tmp("smoke-table3.txt");
        run_cli(argv(&["run", "--trace", &trace, "--table3", &table3])).expect("run");
        let t3 = std::fs::read_to_string(&table3).expect("table3 output");
        assert!(!t3.is_empty());

        run_cli(argv(&[
            "lookup",
            "--trace",
            &trace,
            "--addr",
            "22.0.0.1,23.0.0.1",
        ]))
        .expect("lookup");
        run_cli(argv(&["info", "--trace", &trace])).expect("info");
    }

    #[test]
    fn crashed_checkpointed_run_restores_to_identical_output() {
        let trace = tmp("ckpt.ipdt");
        run_cli(argv(&[
            "simulate",
            "--minutes",
            "6",
            "--flows-per-minute",
            "3000",
            "--seed",
            "13",
            "--out",
            &trace,
        ]))
        .expect("simulate");

        // Reference: the uninterrupted run.
        let t3_full = tmp("ckpt-full.txt");
        run_cli(argv(&["run", "--trace", &trace, "--table3", &t3_full])).expect("full run");

        // Crashed run: durable, but only the first 60% of the stream is
        // delivered before the "process dies".
        let dir = tmp("ckpt-state");
        let _ = std::fs::remove_dir_all(&dir);
        let n = {
            let reader = TraceReader::new(BufReader::new(File::open(&trace).unwrap())).unwrap();
            reader.count()
        };
        run_cli(argv(&[
            "run",
            "--trace",
            &trace,
            "--limit",
            &(n * 3 / 5).to_string(),
            "--checkpoint-dir",
            &dir,
            "--checkpoint-every",
            "2",
        ]))
        .expect("durable run");

        // The state directory is inspectable.
        run_cli(argv(&["checkpoint", "--dir", &dir])).expect("checkpoint inspect");

        // Restore + finish the stream: output must match the reference
        // byte for byte.
        let t3_resumed = tmp("ckpt-resumed.txt");
        run_cli(argv(&[
            "restore",
            "--dir",
            &dir,
            "--trace",
            &trace,
            "--table3",
            &t3_resumed,
        ]))
        .expect("restore");
        let full = std::fs::read_to_string(&t3_full).expect("full output");
        let resumed = std::fs::read_to_string(&t3_resumed).expect("resumed output");
        assert!(!full.is_empty());
        assert_eq!(
            full, resumed,
            "restore must reproduce the uninterrupted run"
        );

        // Restore without a trace still closes out the restored state.
        run_cli(argv(&["restore", "--dir", &dir])).expect("restore without trace");

        // An empty directory has nothing to restore.
        let empty = tmp("ckpt-empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(run_cli(argv(&["restore", "--dir", &empty])).is_err());
    }

    #[test]
    fn run_with_metrics_flags_serves_and_dumps() {
        let trace = tmp("metrics.ipdt");
        run_cli(argv(&[
            "simulate",
            "--minutes",
            "4",
            "--flows-per-minute",
            "2000",
            "--seed",
            "21",
            "--out",
            &trace,
        ]))
        .expect("simulate");

        // The real flag path end to end: a run with both metrics options
        // must succeed (server binds an ephemeral port, dump prints).
        run_cli(argv(&[
            "run",
            "--trace",
            &trace,
            "--metrics-addr",
            "127.0.0.1:0",
            "--metrics-dump",
        ]))
        .expect("run with metrics");

        // Component-level snapshot test of what --metrics-addr serves: run
        // the same engine path against a live registry, then GET /metrics
        // and hold the response to the exposition-format contract.
        let flows = load_trace(&trace).expect("trace");
        let args = Args::parse(argv(&["run", "--trace", &trace])).unwrap();
        let telemetry = Telemetry::new();
        let (engine, _) = engine_over(&args, &flows, &telemetry).expect("engine");

        let server = MetricsServer::serve("127.0.0.1:0", telemetry.clone()).expect("bind");
        let response = {
            use std::io::{Read, Write};
            let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
            let request = format!(
                "GET /metrics HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
                server.local_addr()
            );
            stream.write_all(request.as_bytes()).expect("request");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("response");
            response
        };
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        let body = response.split("\r\n\r\n").nth(1).expect("body");
        ipd_telemetry::validate_prometheus_text(body).expect("valid exposition format");
        assert!(
            body.contains(&format!(
                "ipd_pipeline_flows_total {}",
                engine.stats().flows_ingested
            )),
            "flow counter must match the engine:\n{body}"
        );
        for metric in [
            "ipd_engine_ticks_total",
            "ipd_engine_classified_ranges",
            "ipd_engine_tick_nanoseconds_count",
        ] {
            assert!(body.contains(metric), "{metric} missing from:\n{body}");
        }

        // The dump table mentions the same metrics.
        let table = telemetry.snapshot().render_table();
        assert!(table.contains("ipd_pipeline_flows_total"), "{table}");
    }

    /// Start `serve` with the given extra arguments on a background thread
    /// and return the (query, metrics) addresses from its port file.
    fn spawn_serve(
        port_file: &str,
        serve_args: &[&str],
    ) -> (std::thread::JoinHandle<Result<(), String>>, String, String) {
        let _ = std::fs::remove_file(port_file);
        let owned = argv(serve_args);
        let handle = std::thread::spawn(move || run_cli(owned).map_err(|e| e.to_string()));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let (addr, metrics) = loop {
            assert!(
                std::time::Instant::now() < deadline,
                "serve never wrote its port file"
            );
            if let Ok(text) = std::fs::read_to_string(port_file) {
                let mut lines = text.lines();
                if let (Some(a), Some(m)) = (lines.next(), lines.next()) {
                    break (a.to_string(), m.to_string());
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        (handle, addr, metrics)
    }

    #[test]
    fn serve_publishes_epochs_and_answers_queries() {
        let trace = tmp("serve.ipdt");
        run_cli(argv(&[
            "simulate",
            "--minutes",
            "6",
            "--flows-per-minute",
            "3000",
            "--seed",
            "7",
            "--out",
            &trace,
        ]))
        .expect("simulate");

        let port_file = tmp("serve-ports");
        let (handle, addr, metrics_addr) = spawn_serve(
            &port_file,
            &[
                "serve",
                "--trace",
                &trace,
                "--port-file",
                &port_file,
                "--linger-secs",
                "5",
                "--metrics-addr",
                "127.0.0.1:0",
            ],
        );

        // The stream is 6 minutes: the terminal epoch is at least 6 (5
        // in-stream crossings + the close publication). Poll up to it.
        let mut client = ipd_serve::ServeClient::connect(&addr).expect("connect");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let info = loop {
            let info = client.info().expect("info");
            if info.epoch >= 6 {
                break info;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "epoch stuck at {}",
                info.epoch
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        assert!(info.entries > 0, "stream must classify something");

        // Batched lookup over the wire: all answers share one epoch, and
        // the simulator's client space resolves to real ingresses.
        let addrs: Vec<Addr> = (0..64u32)
            .map(|i| Addr::v4(0x1600_0000 + i * 0x10_0000))
            .collect();
        let (epoch, answers) = client.batch(&addrs).expect("batch");
        assert!(epoch >= 6);
        assert_eq!(answers.len(), addrs.len());
        assert!(
            answers.iter().any(|a| a.is_mapped()),
            "no probe hit a classified range"
        );

        // The query subcommand against the same server.
        run_cli(argv(&["query", "--server", &addr, "--info"])).expect("query --info");
        run_cli(argv(&[
            "query",
            "--server",
            &addr,
            "--addr",
            "22.0.0.1,23.0.0.1",
        ]))
        .expect("query");

        // The epoch gauge is scrapable and has advanced with publication.
        let body = {
            use std::io::{Read, Write};
            let mut s = std::net::TcpStream::connect(&metrics_addr).expect("metrics connect");
            s.write_all(
                format!(
                    "GET /metrics HTTP/1.1\r\nHost: {metrics_addr}\r\nConnection: close\r\n\r\n"
                )
                .as_bytes(),
            )
            .expect("metrics request");
            let mut response = String::new();
            s.read_to_string(&mut response).expect("metrics response");
            response.split("\r\n\r\n").nth(1).expect("body").to_string()
        };
        let gauge = body
            .lines()
            .find_map(|l| l.strip_prefix("ipd_serve_epoch "))
            .expect("epoch gauge exported")
            .trim()
            .parse::<f64>()
            .expect("numeric gauge");
        assert!(gauge >= 6.0, "epoch gauge must advance, got {gauge}");
        assert!(body.contains("ipd_serve_lookups_total"));
        assert!(
            body.contains("ipd_serve_epoch_age_seconds"),
            "freshness gauge missing from:\n{body}"
        );

        // The flight recorder is dumpable over the wire, both through the
        // client API and the query subcommand.
        let events = client.dump().expect("dump");
        assert!(!events.is_empty(), "publication must leave flight events");
        assert!(events
            .iter()
            .any(|e| e.kind == ipd_telemetry::EventKind::EpochPublished as u8));
        run_cli(argv(&["query", "--server", &addr, "--dump"])).expect("query --dump");

        // /statusz carries the serve section plus watermarks and the
        // flight tail; `top --once` renders one frame of it.
        let doc = fetch_statusz(&metrics_addr).expect("statusz");
        let serve = doc.get("serve").expect("serve section");
        assert!(serve.get("epoch").unwrap().as_f64().unwrap() >= 6.0);
        assert!(doc
            .get("watermarks")
            .unwrap()
            .get("ipd_serve_publish_watermark")
            .is_some());
        assert!(doc.get("flight").unwrap().get("recorded").unwrap().as_f64() > Some(0.0));
        run_cli(argv(&["top", "--metrics-addr", &metrics_addr, "--once"])).expect("top --once");

        handle.join().unwrap().expect("serve exits cleanly");
    }

    #[test]
    fn serve_from_checkpoint_needs_no_replay() {
        let trace = tmp("serve-ckpt.ipdt");
        run_cli(argv(&[
            "simulate",
            "--minutes",
            "6",
            "--flows-per-minute",
            "3000",
            "--seed",
            "17",
            "--out",
            &trace,
        ]))
        .expect("simulate");
        let dir = tmp("serve-ckpt-state");
        let _ = std::fs::remove_dir_all(&dir);
        run_cli(argv(&[
            "run",
            "--trace",
            &trace,
            "--checkpoint-dir",
            &dir,
            "--checkpoint-every",
            "2",
        ]))
        .expect("durable run");

        let port_file = tmp("serve-ckpt-ports");
        let hist = tmp("serve-ckpt-hist");
        let _ = std::fs::remove_dir_all(&hist);
        let (handle, addr, _metrics) = spawn_serve(
            &port_file,
            &[
                "serve",
                "--from-checkpoint",
                &dir,
                "--hist-dir",
                &hist,
                "--port-file",
                &port_file,
                "--linger-secs",
                "5",
            ],
        );
        let mut client = ipd_serve::ServeClient::connect(&addr).expect("connect");
        let info = client.info().expect("info");
        assert_eq!(info.epoch, 1, "checkpoint mode publishes exactly once");
        assert!(
            info.entries > 0,
            "checkpointed state must hold classifications"
        );
        let (_, answer) = client.lookup(Addr::v4(0x1600_0001)).expect("lookup");
        let _ = answer.is_mapped(); // any verdict is fine; the wire worked
        handle.join().unwrap().expect("serve exits cleanly");
        // The history records the same one epoch, row for row.
        let store = HistStore::open(&hist).expect("hist reopens");
        assert_eq!(store.last_epoch(), 1);
        let image = store.reader().image_at(1).unwrap().expect("epoch 1 held");
        assert_eq!(image.rows().len() as u64, info.entries);

        // An empty directory is a startup error, not a silent empty store.
        let empty = tmp("serve-ckpt-empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(run_cli(argv(&["serve", "--from-checkpoint", &empty])).is_err());
    }

    #[test]
    fn hist_record_then_time_travel_queries() {
        let trace = tmp("hist.ipdt");
        run_cli(argv(&[
            "simulate",
            "--minutes",
            "6",
            "--flows-per-minute",
            "3000",
            "--seed",
            "29",
            "--out",
            &trace,
        ]))
        .expect("simulate");

        let dir = tmp("hist-store");
        let _ = std::fs::remove_dir_all(&dir);
        run_cli(argv(&[
            "hist",
            "record",
            "--dir",
            &dir,
            "--trace",
            &trace,
            "--keyframe-every",
            "4",
        ]))
        .expect("hist record");

        // The 6-minute stream publishes 6 epochs; every read-side
        // subcommand works against the recorded directory.
        let store = ipd_hist::HistStore::open(&dir).expect("reopen");
        assert!(store.last_epoch() >= 6, "6 minutes -> at least 6 epochs");
        assert!(store.reader().keyframe_count() >= 1);
        // A simulation timestamp mid-history, for the --at-ts form (trace
        // stamps are absolute epoch seconds).
        let mid_ts = store
            .reader()
            .image_at(3)
            .unwrap()
            .expect("epoch 3 held")
            .ts
            .to_string();
        drop(store);
        run_cli(argv(&["hist", "info", "--dir", &dir])).expect("hist info");
        run_cli(argv(&[
            "hist",
            "query-at",
            "--dir",
            &dir,
            "--epoch",
            "3",
            "--addr",
            "22.0.0.1,23.0.0.1",
        ]))
        .expect("hist query-at --epoch");
        run_cli(argv(&[
            "hist", "query-at", "--dir", &dir, "--at-ts", &mid_ts, "--addr", "22.0.0.1",
        ]))
        .expect("hist query-at --at-ts");
        run_cli(argv(&[
            "hist", "diff", "--dir", &dir, "--from", "1", "--to", "6",
        ]))
        .expect("hist diff");
        run_cli(argv(&["hist", "compact", "--dir", &dir])).expect("hist compact");
        run_cli(argv(&["hist", "query-at", "--dir", &dir, "--epoch", "6"]))
            .expect("query-at after compact");

        // Usage errors stay errors.
        assert!(run_cli(argv(&["hist"])).is_err(), "missing action");
        assert!(run_cli(argv(&["hist", "frobnicate", "--dir", &dir])).is_err());
        assert!(
            run_cli(argv(&["hist", "query-at", "--dir", &dir])).is_err(),
            "needs --epoch or --at-ts"
        );
        assert!(
            run_cli(argv(&["hist", "query-at", "--dir", &dir, "--epoch", "99"])).is_err(),
            "epoch outside the held range"
        );
    }

    #[test]
    fn serve_with_hist_dir_answers_time_travel_over_the_wire() {
        let trace = tmp("serve-hist.ipdt");
        run_cli(argv(&[
            "simulate",
            "--minutes",
            "6",
            "--flows-per-minute",
            "3000",
            "--seed",
            "31",
            "--out",
            &trace,
        ]))
        .expect("simulate");

        let dir = tmp("serve-hist-store");
        let _ = std::fs::remove_dir_all(&dir);
        let port_file = tmp("serve-hist-ports");
        let (handle, addr, _metrics) = spawn_serve(
            &port_file,
            &[
                "serve",
                "--trace",
                &trace,
                "--hist-dir",
                &dir,
                "--port-file",
                &port_file,
                "--linger-secs",
                "5",
            ],
        );

        // --wait-epoch parks on the wire until publication catches up — no
        // polling loop needed before the historical queries.
        run_cli(argv(&["query", "--server", &addr, "--wait-epoch", "6"]))
            .expect("query --wait-epoch");
        run_cli(argv(&[
            "query",
            "--server",
            &addr,
            "--at-epoch",
            "2",
            "--addr",
            "22.0.0.1,23.0.0.1",
        ]))
        .expect("query --at-epoch");
        run_cli(argv(&["query", "--server", &addr, "--diff", "1,6"])).expect("query --diff");
        assert!(
            run_cli(argv(&[
                "query",
                "--server",
                &addr,
                "--at-epoch",
                "99",
                "--addr",
                "22.0.0.1"
            ]))
            .is_err(),
            "unheld epoch is an error"
        );
        handle.join().unwrap().expect("serve exits cleanly");

        // The recorded directory outlives the server: the live run's epochs
        // are all reconstructable offline.
        let store = ipd_hist::HistStore::open(&dir).expect("reopen");
        assert!(store.last_epoch() >= 6);
        let reader = store.reader();
        for e in 1..=store.last_epoch() {
            assert!(reader.image_at(e).unwrap().is_some(), "epoch {e} lost");
        }
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run_cli(argv(&["frobnicate"])).is_err());
        assert!(run_cli(argv(&["run"])).is_err(), "missing --trace");
        assert!(run_cli(argv(&["run", "--trace", "/does/not/exist.ipdt"])).is_err());
    }

    #[test]
    fn run_scale_dfz_streams_and_is_deterministic() {
        let t3a = tmp("scale-a.txt");
        let t3b = tmp("scale-b.txt");
        for out in [&t3a, &t3b] {
            run_cli(argv(&[
                "run",
                "--scale",
                "10k",
                "--minutes",
                "8",
                "--flows-per-minute",
                "6000",
                "--seed",
                "9",
                "--table3",
                out,
            ]))
            .expect("run --scale");
        }
        let a = std::fs::read(&t3a).expect("table3 a");
        assert_eq!(
            a,
            std::fs::read(&t3b).expect("table3 b"),
            "same seed, same output"
        );
    }

    #[test]
    fn run_scale_dfz_knobs_and_errors() {
        // Unknown tier is a usage error.
        assert!(run_cli(argv(&["run", "--scale", "mega"])).is_err());
        // Knobs parse and apply (tiny overrides keep this fast); a run with
        // heavy churn still completes.
        run_cli(argv(&[
            "run",
            "--scale",
            "10k",
            "--prefixes",
            "5000",
            "--v6-prefixes",
            "500",
            "--routers",
            "40",
            "--links",
            "120",
            "--minutes",
            "6",
            "--flows-per-minute",
            "3000",
            "--flap-fraction",
            "0.5",
            "--flap-secs",
            "120",
            "--updown-fraction",
            "0.3",
            "--up-secs",
            "300",
            "--down-secs",
            "60",
        ]))
        .expect("run --scale with knobs");
    }

    #[test]
    fn spoof_judges_offline_checkpoint_and_live_maps() {
        let dir = tmp("spoof-ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        run_cli(argv(&[
            "run",
            "--scale",
            "10k",
            "--minutes",
            "6",
            "--flows-per-minute",
            "3000",
            "--seed",
            "11",
            "--checkpoint-dir",
            &dir,
        ]))
        .expect("run --scale builds the checkpointed map");

        // Offline deployment loop exits cleanly.
        run_cli(argv(&[
            "spoof",
            "--scale",
            "10k",
            "--minutes",
            "3",
            "--flows-per-minute",
            "3000",
            "--seed",
            "11",
        ]))
        .expect("spoof offline");

        // Checkpoint mode: the frozen map still meets the detection floors
        // (legit traffic matches it; forged sources fail the route oracle).
        let scenario = SpoofScenario::mixed(DfzConfig {
            flows_per_minute: 3000,
            ..DfzConfig::smoke_10k(11)
        });
        let r = spoof_against_checkpoint(&dir, &scenario, 4, 300).expect("checkpoint judge");
        assert!(r.flows > 10_000, "{} flows", r.flows);
        assert!(r.epochs > 0);
        assert!(r.precision() >= 0.95, "precision {}", r.precision());
        assert!(r.recall() >= 0.90, "recall {}", r.recall());
        assert!(
            r.shift_non_spoofed() >= 0.90,
            "shift leakage {}",
            r.shift_non_spoofed()
        );

        // Live mode: the same checkpoint served over the wire, judged
        // through the client pool.
        let port_file = tmp("spoof-serve-ports");
        let (handle, addr, _metrics) = spawn_serve(
            &port_file,
            &[
                "serve",
                "--from-checkpoint",
                &dir,
                "--port-file",
                &port_file,
                "--linger-secs",
                "20",
            ],
        );
        run_cli(argv(&[
            "spoof",
            "--scale",
            "10k",
            "--minutes",
            "2",
            "--flows-per-minute",
            "3000",
            "--seed",
            "11",
            "--server",
            &addr,
            "--pool",
            "3",
        ]))
        .expect("spoof live");
        handle.join().unwrap().expect("serve exits cleanly");
    }
}
