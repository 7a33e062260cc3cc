//! Golden determinism regression for the spoofing detector: the smoke-tier
//! mixed scenario (forged sources and anycast catchment shifts over the
//! churned 10k DFZ world) must produce the exact same verdict stream on
//! every machine, every run.
//!
//! The pinned digest covers the whole chain: scenario draws (spoof
//! injection, shift rewrites), bucket-by-bucket epoch publication into the
//! live store, and every per-flow verdict with its label and epoch. Update
//! the constants only for an *intentional* behavior change, and say so in
//! the commit (see `tests/golden_dfz.rs` for the substrate counterpart).

use ipd_suite::spoof::{run_offline, SpoofRunConfig, SpoofTelemetry};

const SEED: u64 = 4242;

/// Pinned expectations for `SpoofRunConfig::smoke(SEED)` (see module docs
/// before touching). The CI `spoof-smoke` job checks the same digest from
/// the CLI, so the two must move together.
const GOLDEN_DIGEST: u64 = 0x41d4_5823_7cb7_ec6e;
const GOLDEN_FLOWS: u64 = 150_234;
const GOLDEN_VERDICTS: [u64; 3] = [131_931, 7_195, 11_108];

#[test]
fn golden_spoof_verdict_stream_is_bit_for_bit_stable() {
    let r = run_offline(&SpoofRunConfig::smoke(SEED), &SpoofTelemetry::default());
    assert_eq!(r.flows, GOLDEN_FLOWS, "scenario stream changed shape");
    assert_eq!(r.verdicts, GOLDEN_VERDICTS, "verdict mix changed");
    assert_eq!(
        r.digest, GOLDEN_DIGEST,
        "verdict stream digest diverged (got {:#018x})",
        r.digest
    );
    assert!(r.epochs > 0, "nothing was published");
    assert!(r.precision() >= 0.95, "precision {}", r.precision());
    assert!(r.recall() >= 0.90, "recall {}", r.recall());
    assert!(
        r.shift_non_spoofed() >= 0.90,
        "shift leakage {}",
        r.shift_non_spoofed()
    );
}
