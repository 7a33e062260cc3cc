//! Golden determinism regression: a seeded mini-internet run must produce
//! the exact same engine statistics and snapshot digest on every machine,
//! every run.
//!
//! The pinned numbers below encode the full behavior chain: the world
//! generator and flow simulator (seeded `StdRng` streams), stage-1
//! accumulation (exact integer sums in both count modes), the stage-2
//! classify/split/join/decay cascade, and the canonical snapshot encoding
//! behind `Snapshot::digest()`. If any of those changes behavior — knowingly
//! or not — this test is the tripwire. Update the constants only for an
//! *intentional* behavior change, and say so in the commit.

use ipd_suite::ipd::pipeline::{run_offline, run_offline_with, PipelineOutput};
use ipd_suite::ipd::{CountMode, IpdEngine, IpdParams, LogicalIngress, Snapshot};
use ipd_suite::netflow::FlowRecord;
use ipd_suite::serve::{ServePublisher, ServeTelemetry};
use ipd_suite::traffic::{FlowSim, SimConfig, World, WorldConfig};

const SEED: u64 = 1337;
const MINUTES: u64 = 12;
const FLOWS_PER_MINUTE: u64 = 6_000;

/// Pinned expectations for the run below (see module docs before touching).
const GOLDEN_DIGEST: u64 = 0x05f1_51da_17d1_52db;
const GOLDEN_FLOWS: u64 = 47_706;
const GOLDEN_TICKS: u64 = 13;
const GOLDEN_CLASSIFICATIONS: u64 = 3_980;

/// FNV-1a over the concurrent live store's terminal rows after the same
/// run is published incrementally (delta per bucket) through
/// `ServePublisher` — the concurrent-store counterpart of
/// [`GOLDEN_DIGEST`], pinned for both 1 and 8 store regions.
const GOLDEN_STORE_DIGEST: u64 = 0x8fbf_9ec1_038c_7eba;

/// The same run in `CountMode::Bytes`: every sample weighs its flow's byte
/// count, so the stage-1 sums are large integers. Pinned for K ∈ {1, 8}.
const GOLDEN_BYTES_DIGEST: u64 = 0xaba7_816f_d81a_5b0f;
const GOLDEN_BYTES_CLASSIFIED: usize = 1_729;

fn golden_params() -> IpdParams {
    IpdParams {
        ncidr_factor_v4: 64.0 / 32.0e6 * FLOWS_PER_MINUTE as f64,
        ncidr_factor_v6: FLOWS_PER_MINUTE as f64 * 1.5e-11,
        ..IpdParams::default()
    }
}

fn golden_flows() -> Vec<FlowRecord> {
    let world = World::generate(WorldConfig::default(), SEED);
    let mut sim = FlowSim::new(
        world,
        SimConfig {
            flows_per_minute: FLOWS_PER_MINUTE,
            seed: SEED,
            ..SimConfig::default()
        },
    );
    let mut flows = Vec::new();
    for _ in 0..MINUTES {
        flows.extend(sim.next_minute().flows.into_iter().map(|lf| lf.flow));
    }
    flows
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
fn golden_run_is_bit_for_bit_stable() {
    let flows = golden_flows();
    let mut engine = IpdEngine::new(golden_params()).unwrap();
    let mut outputs = Vec::new();
    run_offline(&mut engine, flows.iter().cloned(), 5, |o| outputs.push(o));
    let snap = last_snapshot(outputs);

    assert_eq!(
        engine.stats().flows_ingested,
        GOLDEN_FLOWS,
        "simulator stream changed"
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

#[test]
fn golden_bytes_mode_run_is_stable() {
    let flows = golden_flows();
    let params = IpdParams {
        count_mode: CountMode::Bytes,
        ..golden_params()
    };
    let mut engine = IpdEngine::new(params).unwrap();
    let mut outputs = Vec::new();
    run_offline(&mut engine, flows.iter().cloned(), 5, |o| outputs.push(o));
    let snap = last_snapshot(outputs);
    assert_eq!(engine.stats().flows_ingested, GOLDEN_FLOWS);
    assert_eq!(
        (snap.digest(), snap.classified().count()),
        (GOLDEN_BYTES_DIGEST, GOLDEN_BYTES_CLASSIFIED),
        "Bytes-mode snapshot drifted — stats: {:?}",
        engine.stats()
    );
}

/// Canonical FNV-1a encoding of the live store's materialised rows: address
/// family, prefix bits, length, ingress shape, and the exact confidence bit
/// pattern. Any behavior drift in the concurrent store's insert/remove/rows
/// path — or in the delta publication feeding it — moves this digest.
fn store_rows_digest(rows: &[(ipd_suite::lpm::Prefix, LogicalIngress, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (p, ing, conf) in rows {
        eat(&[p.af().width(), p.len()]);
        eat(&p.addr().bits().to_be_bytes());
        let members = ing.members();
        eat(&[
            matches!(ing, LogicalIngress::Bundle(_)) as u8,
            members.len() as u8,
        ]);
        eat(&ing.router().to_be_bytes());
        for m in members {
            eat(&m.ifindex.to_be_bytes());
        }
        eat(&conf.to_bits().to_be_bytes());
    }
    h
}

/// The golden run published *incrementally* through the concurrent store:
/// one delta per bucket close, terminal rows bit-identical to the terminal
/// snapshot's classified set, digest pinned and region-count invariant.
#[test]
fn golden_live_store_digest_is_stable_and_region_invariant() {
    let flows = golden_flows();
    for regions in [1usize, 8] {
        let mut hook = ServePublisher::with_config(regions, ServeTelemetry::default());
        let swap = hook.swap();
        let mut engine = IpdEngine::new(golden_params()).unwrap();
        let mut outputs = Vec::new();
        run_offline_with(
            &mut engine,
            flows.iter().cloned(),
            5,
            None,
            &mut hook,
            |o| outputs.push(o),
        );
        let store = swap.load();
        assert_eq!(
            store.value.epoch(),
            GOLDEN_TICKS,
            "one epoch per closed bucket, including the final flush"
        );
        let rows = store.value.rows();

        // Terminal rows == the terminal snapshot's classified set, bit for
        // bit — the incremental path converged exactly.
        let snap = last_snapshot(outputs);
        let mut want: Vec<_> = snap
            .classified()
            .filter_map(|r| {
                r.ingress
                    .as_ref()
                    .map(|ing| (r.range, ing.clone(), r.confidence))
            })
            .collect();
        want.sort_by_key(|&(p, _, _)| p);
        assert_eq!(rows.len(), want.len(), "regions {regions}: row count");
        for ((gp, gi, gc), (wp, wi, wc)) in rows.iter().zip(&want) {
            assert_eq!((gp, gi), (wp, wi), "regions {regions}: row mismatch");
            assert_eq!(gc.to_bits(), wc.to_bits(), "regions {regions}: confidence");
        }

        assert_eq!(
            store_rows_digest(&rows),
            GOLDEN_STORE_DIGEST,
            "regions {regions}: live-store digest drifted ({} rows)",
            rows.len()
        );
    }
}
