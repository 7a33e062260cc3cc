//! Quickstart: detect ingress points on a hand-built four-router ISP.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a tiny topology (2 countries, 2 PoPs, 4 routers), feeds the engine
//! a few minutes of synthetic flows where three address blocks enter through
//! three different links, and prints the classified IPD ranges in the
//! paper's raw-output format (Table 3) plus some LPM lookups.

use ipd_suite::ipd::{IpdEngine, IpdParams};
use ipd_suite::lpm::Addr;
use ipd_suite::topology::{IngressPoint, Interface, LinkClass, TopologyBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // --- A miniature ISP: 2 countries, 2 PoPs, 4 border routers. ----------
    let mut b = TopologyBuilder::new();
    b.add_country(1, "Alpha").unwrap();
    b.add_country(2, "Beta").unwrap();
    b.add_pop(1, 1, "alpha-pop").unwrap();
    b.add_pop(2, 2, "beta-pop").unwrap();
    for (router, pop) in [(1, 1), (2, 1), (3, 2), (4, 2)] {
        b.add_router(router, pop).unwrap();
    }
    // Three external links: a CDN PNI in Alpha, a peer in Beta, a transit.
    b.add_link(
        Interface {
            router: 1,
            ifindex: 1,
        },
        64500,
        LinkClass::Pni,
        400,
    )
    .unwrap();
    b.add_link(
        Interface {
            router: 3,
            ifindex: 1,
        },
        64501,
        LinkClass::PublicPeering,
        100,
    )
    .unwrap();
    b.add_link(
        Interface {
            router: 4,
            ifindex: 2,
        },
        64502,
        LinkClass::Transit,
        100,
    )
    .unwrap();
    let topo = b.build();
    println!(
        "topology: {} countries, {} pops, {} routers, {} links",
        topo.countries().len(),
        topo.pops().len(),
        topo.routers().len(),
        topo.links().len()
    );

    // --- The IPD engine with thresholds sized for a toy trace. ------------
    let params = IpdParams {
        ncidr_factor_v4: 0.05,
        ..IpdParams::default()
    };
    let mut engine = IpdEngine::new(params).unwrap();

    // --- Traffic: three /12 blocks entering through the three links. ------
    let mut rng = StdRng::seed_from_u64(7);
    let blocks: [(u32, IngressPoint); 3] = [
        (0x0A00_0000, IngressPoint::new(1, 1)), // 10.0/12    → CDN PNI
        (0x0A10_0000, IngressPoint::new(3, 1)), // 10.16/12   → peer
        (0x0A20_0000, IngressPoint::new(4, 2)), // 10.32/12   → transit
    ];
    for minute in 0..5u64 {
        for _ in 0..3000 {
            let (base, ingress) = blocks[rng.random_range(0..blocks.len())];
            let addr = Addr::v4(base + rng.random_range(0u32..1 << 20));
            let ts = minute * 60 + rng.random_range(0..60u64);
            engine.ingest_parts(ts, addr, ingress, 1);
        }
        let report = engine.tick((minute + 1) * 60);
        println!(
            "tick {:>3}s: {} splits, {} new classifications, {} live ranges",
            (minute + 1) * 60,
            report.splits,
            report.newly_classified.len(),
            engine.range_count()
        );
    }

    // --- The raw output, Table-3 style, with topology ingress labels. -----
    let snapshot = engine.snapshot(300);
    println!("\nraw IPD output (Table 3 format):");
    let fmt = |p: IngressPoint| topo.format_ingress(p);
    for record in snapshot.classified() {
        println!("  {}", record.table3_line(&fmt));
    }

    // --- And the LPM lookups an operator would run. ------------------------
    let table = snapshot.lpm_table();
    println!("\nLPM lookups:");
    for addr_s in ["10.3.7.9", "10.18.0.1", "10.40.1.1", "192.0.2.1"] {
        let addr: Addr = addr_s.parse::<std::net::IpAddr>().unwrap().into();
        match table.lookup(addr) {
            Some((range, ingress)) => {
                let label = match ingress {
                    ipd_suite::ipd::LogicalIngress::Link(p) => topo.format_ingress(*p),
                    other => other.to_string(),
                };
                println!("  {addr_s:<12} → {range}  enters at {label}");
            }
            None => println!("  {addr_s:<12} → (not classified)"),
        }
    }

    // Sanity: all three blocks must be classified to their links.
    for (base, ingress) in blocks {
        let (_, got) = table.lookup(Addr::v4(base + 99)).expect("block classified");
        assert!(got.is_link(ingress), "block {base:#x} misclassified");
    }
    println!("\nall three blocks resolved to their true ingress points ✓");
}
