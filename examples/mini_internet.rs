//! Mini-IPD: a guided walkthrough on a classroom-sized internet.
//!
//! ```text
//! cargo run --release --example mini_internet
//! ```
//!
//! The paper ships a companion artifact ("Mini IPD", running IPD inside the
//! ETH Mini Internet) for research and teaching. This example is the same
//! idea in-process: a fixed 2-country / 3-router ISP, three neighbor
//! networks with scripted behavior, and a narrated run that shows every
//! concept of §3 — splitting, classification, bundles, invalidation, decay
//! and the snapshot diff an operator would watch.

use ipd_suite::ipd::output::default_ingress_format;
use ipd_suite::ipd::{IpdEngine, IpdParams, SnapshotDiff};
use ipd_suite::lpm::Addr;
use ipd_suite::topology::IngressPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STUDENT_NET: u32 = 0x0A64_0000; // 10.100.0.0/16 — "student" AS
const CDN_NET: u32 = 0x0A65_0000; //     10.101.0.0/16 — "CDN" AS
const LB_NET: u32 = 0x0A66_0000; //      10.102.0.0/16 — load-balancing AS

fn feed<R: Rng>(engine: &mut IpdEngine, rng: &mut R, minute: u64) {
    let ts = minute * 60;
    // Student network: always enters at R1.1.
    for _ in 0..300 {
        let addr = Addr::v4(STUDENT_NET + rng.random_range(0u32..0xFFFF));
        engine.ingest_parts(
            ts + rng.random_range(0..60u64),
            addr,
            IngressPoint::new(1, 1),
            1,
        );
    }
    // CDN: enters via a two-interface bundle on R2 until minute 8, then the
    // CDN remaps everything to R3.1 (a different country).
    for _ in 0..300 {
        let addr = Addr::v4(CDN_NET + rng.random_range(0u32..0xFFFF));
        let ingress = if minute < 8 {
            IngressPoint::new(2, 1 + (rng.random_range(0..2u16)))
        } else {
            IngressPoint::new(3, 1)
        };
        engine.ingest_parts(ts + rng.random_range(0..60u64), addr, ingress, 1);
    }
    // The pathological neighbor: hashes flows across routers R1 and R3.
    for _ in 0..200 {
        let addr = Addr::v4(LB_NET + rng.random_range(0u32..0xFF));
        let ingress = if rng.random::<bool>() {
            IngressPoint::new(1, 7)
        } else {
            IngressPoint::new(3, 7)
        };
        engine.ingest_parts(ts + rng.random_range(0..60u64), addr, ingress, 1);
    }
}

fn main() {
    let params = IpdParams {
        ncidr_factor_v4: 0.01,
        ..IpdParams::default()
    };
    let mut engine = IpdEngine::new(params).unwrap();
    let mut rng = StdRng::seed_from_u64(2024);

    println!("mini internet: student net → R1.1, CDN → bundle R2.[1+2], LB net → R1.7/R3.7\n");
    let mut prev = engine.snapshot(0);
    for minute in 0..14u64 {
        feed(&mut engine, &mut rng, minute);
        let report = engine.tick((minute + 1) * 60);
        let snap = engine.snapshot((minute + 1) * 60);
        let diff = SnapshotDiff::between(&prev, &snap);
        print!(
            "minute {:>2}: {:>2} ranges",
            minute + 1,
            engine.range_count()
        );
        if report.splits > 0 {
            print!(", {} splits", report.splits);
        }
        if report.bundles > 0 {
            print!(", {} new bundle(s)", report.bundles);
        }
        if !report.lb_suspects.is_empty() {
            print!(", {} load-balancing suspect(s)", report.lb_suspects.len());
        }
        if !diff.moved.is_empty() {
            print!(
                ", moved: {}",
                diff.moved
                    .iter()
                    .map(|(p, from, to)| format!("{p} {from}→{to}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
        println!();
        prev = snap;
    }

    let snap = engine.snapshot(14 * 60);
    println!("\nfinal classified ranges:");
    for r in snap.classified() {
        println!("  {}", r.table3_line(&default_ingress_format));
    }

    // The walkthrough's teaching points, verified.
    let table = snap.lpm_table();
    let (_, student) = table
        .lookup(Addr::v4(STUDENT_NET + 5))
        .expect("student net classified");
    assert!(student.is_link(IngressPoint::new(1, 1)));
    let (_, cdn) = table
        .lookup(Addr::v4(CDN_NET + 5))
        .expect("cdn net classified");
    assert_eq!(cdn.router(), 3, "CDN remap must be detected");
    assert!(
        table.lookup(Addr::v4(LB_NET + 5)).is_none(),
        "router-level LB is intentionally unclassified (§5.8)"
    );
    println!("\nstudent→R1.1 ✓   CDN remap detected (→R3) ✓   LB space unclassified ✓");
}
