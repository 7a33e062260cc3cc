//! Golden determinism regression for the DFZ streaming substrate: a small
//! but *actively churned* world — next-hop flaps and withdraw/re-announce
//! cycles running at their default rates — must produce the exact same
//! snapshot digest on every machine, every run.
//!
//! The pinned numbers encode the whole scale chain: the hash-derived prefix
//! plan (Feistel rank permutation, stride carving), the closed-form churn
//! model, per-second flow quotas, and the engine behavior on top. Update the
//! constants only for an *intentional* behavior change, and say so in the
//! commit (see `tests/golden.rs` for the paper-scale counterpart).

use ipd_suite::ipd::pipeline::{run_offline, BucketDriver, NoopHook, PipelineOutput};
use ipd_suite::ipd::{IpdEngine, IpdParams, Snapshot};
use ipd_suite::netflow::FlowRecord;
use ipd_suite::traffic::{DfzConfig, DfzWorld};

const SEED: u64 = 4242;
const MINUTES: u64 = 10;
const FLOWS_PER_MINUTE: u64 = 12_000;

/// Pinned expectations for the run below (see module docs before touching).
const GOLDEN_DIGEST: u64 = 0x6547_a5c4_350a_d625;
const GOLDEN_FLOWS: u64 = 119_195;
const GOLDEN_TICKS: u64 = 11;
const GOLDEN_CLASSIFICATIONS: u64 = 17_703;
const GOLDEN_CHURN_EVENTS: u64 = 132;

fn golden_config() -> DfzConfig {
    DfzConfig {
        flows_per_minute: FLOWS_PER_MINUTE,
        ..DfzConfig::smoke_10k(SEED)
    }
}

fn golden_params() -> IpdParams {
    IpdParams {
        ncidr_factor_v4: 64.0 / 32.0e6 * FLOWS_PER_MINUTE as f64,
        ncidr_factor_v6: (FLOWS_PER_MINUTE as f64 * 1.5e-11).max(1e-9),
        ..IpdParams::default()
    }
}

fn golden_flows() -> Vec<FlowRecord> {
    let world = DfzWorld::new(golden_config());
    world.flows(MINUTES).map(|lf| lf.flow).collect()
}

fn last_snapshot(outputs: Vec<PipelineOutput>) -> Snapshot {
    outputs
        .into_iter()
        .rev()
        .find_map(|o| match o {
            PipelineOutput::Snapshot(s) => Some(s),
            PipelineOutput::Tick(_) => None,
        })
        .expect("the final snapshot always fires")
}

#[test]
fn golden_dfz_churned_run_is_bit_for_bit_stable() {
    let cfg = golden_config();
    let world = DfzWorld::new(cfg);
    let churned = world
        .churn_events(cfg.epoch, cfg.epoch + MINUTES * 60)
        .count() as u64;
    assert_eq!(churned, GOLDEN_CHURN_EVENTS, "churn model behavior changed");
    assert!(churned > 0, "the golden window must contain churn");

    let flows = golden_flows();
    let mut engine = IpdEngine::new(golden_params()).unwrap();
    let mut outputs = Vec::new();
    run_offline(
        &mut engine,
        BucketDriver::new(5),
        flows.iter().cloned(),
        &mut NoopHook,
        |o| outputs.push(o),
    );
    let snap = last_snapshot(outputs);

    assert_eq!(
        engine.stats().flows_ingested,
        GOLDEN_FLOWS,
        "substrate stream changed"
    );
    assert_eq!(engine.stats().ticks, GOLDEN_TICKS);
    assert_eq!(
        engine.stats().classifications,
        GOLDEN_CLASSIFICATIONS,
        "classification behavior changed"
    );
    assert_eq!(
        snap.digest(),
        GOLDEN_DIGEST,
        "snapshot digest drifted — stats: {:?}, {} records",
        engine.stats(),
        snap.records.len()
    );
}
