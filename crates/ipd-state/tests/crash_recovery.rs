//! Crash-recovery differential harness: the equivalence contract of the
//! checkpoint/journal subsystem, checked end to end.
//!
//! A seeded ~44k-flow stream is run to completion on a plain engine (the
//! reference). Then durable runs are killed mid-stream — the in-memory
//! engine discarded, exactly as a crash would lose it — restored from disk,
//! and driven over the remainder of the stream. The final snapshot digest,
//! classified prefix→ingress set, and cumulative engine stats must be
//! bit-for-bit identical to the uninterrupted run, for:
//!
//! * a per-flow driver loop,
//! * the threaded `IpdPipeline` (`spawn_hooked`, batched ingest),
//! * a damaged latest checkpoint (restore falls back a generation), and
//! * a torn final journal frame (replay stops at the last whole frame and
//!   the lost flows are re-delivered).

use ipd::pipeline::{
    run_offline, BucketClock, BucketDriver, IpdPipeline, NoopHook, PipelineConfig, PipelineHook,
};
use ipd::{EngineStats, IpdEngine, IpdParams, LogicalIngress};
use ipd_lpm::{Addr, Prefix};
use ipd_netflow::FlowRecord;
use ipd_state::{restore, CheckpointStore, Durable, DurableConfig};
use ipd_telemetry::Telemetry;
use rand::{Rng, SeedableRng};

const SNAPSHOT_EVERY: u32 = 2;
const EVERY_BUCKETS: u64 = 2;

fn test_params() -> IpdParams {
    IpdParams {
        ncidr_factor_v4: 0.002,
        ncidr_factor_v6: 1e-9,
        cidr_max_v4: 20,
        ..IpdParams::default()
    }
}

fn durable_config() -> DurableConfig {
    DurableConfig {
        checkpoint_every_buckets: EVERY_BUCKETS,
        retain: 4,
    }
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("ipd-state-crash-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The same shaped stream as ipd-core's seeded differential test: stable
/// pools, a contested pool that flips ownership (invalidations), a pool
/// that goes silent (decay/drop), and v6 across two interfaces (bundle).
fn seeded_flows() -> Vec<FlowRecord> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1bd_2024);
    let mut flows = Vec::new();
    for minute in 0..30u64 {
        for _ in 0..600 {
            let low: u32 = rng.random_range(0u32..1 << 22);
            flows.push(FlowRecord::synthetic(
                minute * 60 + rng.random_range(0..60u64),
                Addr::v4(0x0A00_0000 + low),
                1,
                1,
            ));
            let high: u32 = rng.random_range(0u32..1 << 22);
            flows.push(FlowRecord::synthetic(
                minute * 60 + rng.random_range(0..60u64),
                Addr::v4(0xC000_0000 + high),
                2,
                1,
            ));
        }
        for _ in 0..200 {
            let bits: u32 = rng.random_range(0u32..1 << 16);
            let router = if minute < 15 { 3 } else { 4 };
            flows.push(FlowRecord::synthetic(
                minute * 60 + rng.random_range(0..60u64),
                Addr::v4(0x5000_0000 + bits),
                router,
                2,
            ));
        }
        if minute < 8 {
            for _ in 0..200 {
                let bits: u32 = rng.random_range(0u32..1 << 16);
                flows.push(FlowRecord::synthetic(
                    minute * 60 + rng.random_range(0..60u64),
                    Addr::v4(0x8000_0000 + bits),
                    5,
                    1,
                ));
            }
        }
        for _ in 0..100 {
            let bits: u32 = rng.random_range(0u32..1 << 20);
            let ifidx = rng.random_range(1u16..3);
            flows.push(FlowRecord::synthetic(
                minute * 60 + rng.random_range(0..60u64),
                Addr::v6((0x2001_0db8u128 << 96) | (u128::from(bits) << 30)),
                6,
                ifidx,
            ));
        }
    }
    flows.sort_by_key(|f| f.ts);
    flows
}

/// Everything the equivalence contract compares.
#[derive(Debug, PartialEq)]
struct FinalState {
    stats: EngineStats,
    digest: u64,
    classified: Vec<(Prefix, LogicalIngress)>,
}

fn final_state(engine: &IpdEngine) -> FinalState {
    let snap = engine.snapshot(u64::MAX);
    let mut classified: Vec<(Prefix, LogicalIngress)> = snap
        .classified()
        .filter_map(|r| r.ingress.clone().map(|i| (r.range, i)))
        .collect();
    classified.sort_unstable_by_key(|a| a.0);
    FinalState {
        stats: engine.stats().clone(),
        digest: snap.digest(),
        classified,
    }
}

fn reference_run(flows: &[FlowRecord]) -> FinalState {
    let mut engine = IpdEngine::new(test_params()).unwrap();
    run_offline(
        &mut engine,
        BucketDriver::new(SNAPSHOT_EVERY),
        flows.iter().cloned(),
        &mut NoopHook,
        |_| {},
    );
    final_state(&engine)
}

/// Drive a durable per-flow run over `flows[..cut]` and "crash": the hook's
/// end-of-stream sync fires (the OS would have those bytes anyway), but no
/// final tick runs and the in-memory engine is dropped on the floor.
fn crash_plain(dir: &std::path::Path, flows: &[FlowRecord], cut: usize) {
    let mut engine = IpdEngine::new(test_params()).unwrap();
    let mut durable =
        Durable::start(dir, &engine, BucketClock::default(), durable_config()).unwrap();
    let mut driver = BucketDriver::new(SNAPSHOT_EVERY);
    let mut sink = |_out| {};
    for flow in &flows[..cut] {
        driver.observe(&mut engine, flow.ts, &mut sink, &mut durable);
        durable.flows(std::slice::from_ref(flow));
        engine.ingest(flow);
    }
    PipelineHook::finished(&mut durable, &engine, driver.clock());
    assert_eq!(durable.handle().stats().io_errors, 0);
    // Engine dropped here: the crash.
}

fn resume_plain(dir: &std::path::Path, flows: &[FlowRecord]) -> FinalState {
    let restored = restore(dir, SNAPSHOT_EVERY, &Telemetry::disabled()).unwrap();
    let applied = restored.engine.stats().flows_ingested as usize;
    assert!(applied <= flows.len());
    let mut engine = restored.engine;
    run_offline(
        &mut engine,
        BucketDriver::new(SNAPSHOT_EVERY).with_clock(restored.clock),
        flows[applied..].iter().cloned(),
        &mut NoopHook,
        |_| {},
    );
    final_state(&engine)
}

#[test]
fn plain_engine_crash_at_two_cuts_restores_exactly() {
    let flows = seeded_flows();
    assert!(flows.len() > 40_000);
    let reference = reference_run(&flows);
    assert!(reference.stats.splits > 0 && !reference.classified.is_empty());

    for (label, cut) in [
        ("third", flows.len() / 3),
        ("two-thirds", flows.len() * 2 / 3),
    ] {
        let dir = tmp_dir(&format!("plain-{label}"));
        crash_plain(&dir, &flows, cut);
        let resumed = resume_plain(&dir, &flows);
        assert_eq!(resumed, reference, "cut at {label} diverged");
    }
}

#[test]
fn threaded_pipelines_crash_and_restore_exactly() {
    let flows = seeded_flows();
    let reference = reference_run(&flows);
    let cut = flows.len() * 2 / 5;

    // Plain threaded pipeline, killed after the cut: discard the returned
    // engine (a crash loses it) and restore from disk alone.
    let dir = tmp_dir("pipeline-plain");
    {
        let seed = IpdEngine::new(test_params()).unwrap();
        let durable =
            Durable::start(&dir, &seed, BucketClock::default(), durable_config()).unwrap();
        let handle = durable.handle();
        let pipeline = IpdPipeline::spawn_hooked(
            PipelineConfig {
                params: test_params(),
                channel_capacity: 8,
                snapshot_every_ticks: SNAPSHOT_EVERY,
                ..Default::default()
            },
            Box::new(durable),
        )
        .unwrap();
        let tx = pipeline.input();
        let rx = pipeline.output().clone();
        let drain = std::thread::spawn(move || rx.iter().for_each(drop));
        for chunk in flows[..cut].chunks(512) {
            tx.send(chunk.to_vec()).unwrap();
        }
        drop(tx);
        let (_engine, _hook, _leftover) = pipeline.finish_hooked();
        drain.join().unwrap();
        assert_eq!(handle.stats().io_errors, 0);
        // _engine discarded: the crash.
    }
    assert_eq!(
        resume_plain(&dir, &flows),
        reference,
        "IpdPipeline crash diverged"
    );
}

/// The DFZ satellite: crash in the middle of a route-churn *burst* — flap
/// and withdraw/re-announce rates cranked far above the defaults — and the
/// restore must be clock-exact: the recovered [`BucketClock`] equals the one
/// the crashed run died with, and finishing the stream lands bit-for-bit on
/// the uninterrupted run's digest.
#[test]
fn dfz_churn_burst_crash_restores_clock_exact() {
    use ipd_traffic::{DfzConfig, DfzWorld};

    let mut cfg = DfzConfig::smoke_10k(17);
    cfg.flows_per_minute = 9_000;
    // A burst, not background churn: most prefixes flap every few minutes
    // and a quarter of the table cycles through withdraw/re-announce.
    cfg.churn.flap_fraction = 0.5;
    cfg.churn.flap_mean_secs = 240;
    cfg.churn.updown_fraction = 0.25;
    cfg.churn.up_mean_secs = 300;
    cfg.churn.down_mean_secs = 120;
    let world = DfzWorld::new(cfg);
    let minutes = 12;
    let churned = world
        .churn_events(cfg.epoch, cfg.epoch + minutes * 60)
        .count();
    assert!(churned > 1_000, "only {churned} events — not a burst");
    let flows: Vec<FlowRecord> = world.flows(minutes).map(|lf| lf.flow).collect();

    let rate = cfg.flows_per_minute as f64;
    let params = IpdParams {
        ncidr_factor_v4: 64.0 / 32.0e6 * rate,
        ncidr_factor_v6: (rate * 1.5e-11).max(1e-9),
        ..IpdParams::default()
    };

    // Uninterrupted reference.
    let reference = {
        let mut engine = IpdEngine::new(params.clone()).unwrap();
        run_offline(
            &mut engine,
            BucketDriver::new(SNAPSHOT_EVERY),
            flows.iter().cloned(),
            &mut NoopHook,
            |_| {},
        );
        final_state(&engine)
    };
    assert!(!reference.classified.is_empty());

    // Crash mid-burst, remembering the clock the run died with.
    let cut = flows.len() / 2;
    let dir = tmp_dir("dfz-churn-burst");
    let crashed_clock = {
        let mut engine = IpdEngine::new(params.clone()).unwrap();
        let mut durable =
            Durable::start(&dir, &engine, BucketClock::default(), durable_config()).unwrap();
        let mut driver = BucketDriver::new(SNAPSHOT_EVERY);
        let mut sink = |_out| {};
        for flow in &flows[..cut] {
            driver.observe(&mut engine, flow.ts, &mut sink, &mut durable);
            durable.flows(std::slice::from_ref(flow));
            engine.ingest(flow);
        }
        PipelineHook::finished(&mut durable, &engine, driver.clock());
        assert_eq!(durable.handle().stats().io_errors, 0);
        driver.clock()
        // Engine dropped here: the crash.
    };

    // Clock-exact: the restored clock is the crashed run's clock, to the
    // bucket — resuming must not re-tick or skip a bucket across the burst.
    let restored = restore(&dir, SNAPSHOT_EVERY, &Telemetry::disabled()).unwrap();
    assert_eq!(restored.clock, crashed_clock, "restored clock drifted");
    assert_eq!(restored.engine.stats().flows_ingested as usize, cut);

    let mut engine = restored.engine;
    run_offline(
        &mut engine,
        BucketDriver::new(SNAPSHOT_EVERY).with_clock(restored.clock),
        flows[cut..].iter().cloned(),
        &mut NoopHook,
        |_| {},
    );
    assert_eq!(
        final_state(&engine),
        reference,
        "churn-burst restore diverged"
    );
}

#[test]
fn corrupt_latest_checkpoint_falls_back_a_generation() {
    let flows = seeded_flows();
    let reference = reference_run(&flows);
    let cut = flows.len() / 2;

    let dir = tmp_dir("corrupt-ckpt");
    crash_plain(&dir, &flows, cut);

    // Flip one byte in the newest checkpoint.
    let store = CheckpointStore::open(&dir).unwrap();
    let latest = *store.generations().unwrap().last().unwrap();
    assert!(latest >= 2, "need at least two generations to fall back");
    let path = store.checkpoint_path(latest);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, bytes).unwrap();

    let restored = restore(&dir, SNAPSHOT_EVERY, &Telemetry::disabled()).unwrap();
    assert_eq!(restored.fell_back, 1, "must skip the damaged generation");
    assert_eq!(restored.seq, latest - 1);
    assert!(!restored.torn_tail);

    // The older checkpoint plus BOTH journals (its own and the damaged
    // generation's) reconstruct the same point in the stream.
    let applied = restored.engine.stats().flows_ingested as usize;
    let mut engine = restored.engine;
    run_offline(
        &mut engine,
        BucketDriver::new(SNAPSHOT_EVERY).with_clock(restored.clock),
        flows[applied..].iter().cloned(),
        &mut NoopHook,
        |_| {},
    );
    assert_eq!(final_state(&engine), reference, "fallback restore diverged");
}

#[test]
fn torn_final_journal_frame_replays_to_last_whole_frame() {
    let flows = seeded_flows();
    let reference = reference_run(&flows);
    let cut = flows.len() / 2;

    let dir = tmp_dir("torn-journal");
    crash_plain(&dir, &flows, cut);

    // Tear the newest journal mid-frame: drop the last 20 bytes, landing
    // inside the final frame's payload/checksum.
    let store = CheckpointStore::open(&dir).unwrap();
    let latest = *store.generations().unwrap().last().unwrap();
    let path = store.journal_path(latest);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 20]).unwrap();

    let clean = restore(&dir, SNAPSHOT_EVERY, &Telemetry::disabled()).unwrap();
    assert!(clean.torn_tail, "tear must be detected");
    let applied = clean.engine.stats().flows_ingested as usize;
    // Exactly one frame lost relative to the cut.
    assert_eq!(applied, cut - 1);

    // Re-delivering from the lost flow onward completes the stream exactly.
    let mut engine = clean.engine;
    run_offline(
        &mut engine,
        BucketDriver::new(SNAPSHOT_EVERY).with_clock(clean.clock),
        flows[applied..].iter().cloned(),
        &mut NoopHook,
        |_| {},
    );
    assert_eq!(
        final_state(&engine),
        reference,
        "torn-tail restore diverged"
    );
}
