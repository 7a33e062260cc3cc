//! Regenerate every table and figure of the IPD paper.
//!
//! ```text
//! cargo run --release -p ipd-eval --bin experiments -- <id> [--quick]
//! cargo run --release -p ipd-eval --bin experiments -- all
//! ```
//!
//! `<id>` ∈ fig2..fig20, tab1, tab2, tab3, tab-prefixcorr. Output goes to
//! stdout (summary + shape checks against the paper) and `results/<id>.tsv`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ipd::{IpdEngine, IpdParams};
use ipd_eval::accuracy::{MissType, ValidationVisitor};
use ipd_eval::case_study::run_case_study;
use ipd_eval::daytime::{DaytimeVisitor, MASK_GROUPS};
use ipd_eval::harness::{run, EvalConfig, RunVisitor};
use ipd_eval::ingress_count::{bgp_next_hop_cdf, IngressCountVisitor};
use ipd_eval::longitudinal::fig10_series;
use ipd_eval::param_study::{effects, reduced_design, run_study, table2, Factor};
use ipd_eval::range_dist::{bgp_mask_distribution, ipd_mask_distribution, summarize};
use ipd_eval::report::{f, sparkline, Table};
use ipd_eval::stability::StabilityVisitor;
use ipd_eval::stats::{ecdf, mean, pearson};
use ipd_eval::symmetry::{fig16_series, prefix_correlation};
use ipd_eval::violations::{fig17_series, mean_violating_share};
use ipd_lpm::Addr;
use ipd_traffic::{World, WorldConfig};

fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// The main 25-hour validation run feeding most flow-level figures
/// (the paper's trace is 25 h of NetFlow, §4).
struct MainRun {
    validation: ValidationVisitor,
    stability: StabilityVisitor,
    ingress: IngressCountVisitor,
    daytime_top5: DaytimeVisitor,
    daytime_as4: DaytimeVisitor,
    last_snapshot: Option<ipd::Snapshot>,
    out: Option<ipd_eval::harness::RunOutput>,
}

struct MainVisitor<'a>(&'a mut MainRun);

impl RunVisitor for MainVisitor<'_> {
    fn on_minute(
        &mut self,
        batch: &ipd_traffic::MinuteBatch,
        world: &World,
        lpm: &ipd_lpm::LpmTrie<ipd::LogicalIngress>,
        engine: &IpdEngine,
    ) {
        self.0.validation.on_minute(batch, world, lpm, engine);
        self.0.ingress.on_minute(batch, world, lpm, engine);
    }

    fn on_tick(&mut self, report: &ipd::TickReport, engine: &IpdEngine) {
        self.0.validation.on_tick(report, engine);
    }

    fn on_snapshot(&mut self, snapshot: &ipd::Snapshot, world: &World, engine: &IpdEngine) {
        self.0.stability.on_snapshot(snapshot, world, engine);
        self.0.daytime_top5.on_snapshot(snapshot, world, engine);
        self.0.daytime_as4.on_snapshot(snapshot, world, engine);
        self.0.last_snapshot = Some(snapshot.clone());
    }
}

impl MainRun {
    fn execute(quick: bool) -> MainRun {
        let minutes = if quick { 120 } else { 25 * 60 };
        let flows = if quick { 8_000 } else { 20_000 };
        println!("[main run] {minutes} simulated minutes at ~{flows} flows/min ...");
        let cfg = EvalConfig::quick(minutes, flows);
        let mut state = MainRun {
            validation: ValidationVisitor::new(),
            stability: StabilityVisitor::new(),
            ingress: IngressCountVisitor::new(),
            daytime_top5: DaytimeVisitor::new(Some((0, 5))),
            daytime_as4: DaytimeVisitor::new(Some((3, 4))),
            last_snapshot: None,
            out: None,
        };
        let out = {
            let mut v = MainVisitor(&mut state);
            run(&cfg, &mut v)
        };
        state.validation.finish();
        state.stability.finish();
        println!(
            "[main run] done: {} flows, {} classified ranges",
            out.flows,
            out.engine.classified_count()
        );
        state.out = Some(out);
        state
    }

    fn world(&self) -> &World {
        self.out.as_ref().expect("run executed").sim.world()
    }
}

struct Ctx {
    quick: bool,
    main: Option<MainRun>,
}

impl Ctx {
    fn main_run(&mut self) -> &mut MainRun {
        if self.main.is_none() {
            self.main = Some(MainRun::execute(self.quick));
        }
        self.main.as_mut().expect("just created")
    }
}

fn check(label: &str, ok: bool, detail: String) {
    println!(
        "  [{}] {label}: {detail}",
        if ok { "OK   " } else { "CHECK" }
    );
}

// ---------------------------------------------------------------- figures

fn fig2(ctx: &mut Ctx) {
    let m = ctx.main_run();
    let durations = m.stability.durations();
    let mut t = Table::new(&["stability_seconds", "cdf"]);
    for (x, p) in ecdf(&durations) {
        t.row(vec![f(x, 0), f(p, 4)]);
    }
    t.write(&results_dir(), "fig2").expect("write results");
    let below_1h = m.stability.share_below(3600);
    let above_6h = 1.0 - m.stability.share_below(6 * 3600);
    println!(
        "fig2: stability duration per prefix on a link ({} phases)",
        durations.len()
    );
    check(
        "60% stable < 1h (paper)",
        (0.35..0.85).contains(&below_1h),
        format!("{below_1h:.2}"),
    );
    check(
        "10% stable > 6h (paper)",
        above_6h < 0.45,
        format!("{above_6h:.2}"),
    );
}

fn fig3(ctx: &mut Ctx) {
    let top5_asns: Vec<u32>;
    let top20_asns: Vec<u32>;
    {
        let w = ctx.main_run().world();
        top5_asns = w.top_asns(5);
        top20_asns = w.top_asns(20);
    }
    let m = ctx.main_run();
    let mut t = Table::new(&[
        "k",
        "traffic_all",
        "traffic_top5",
        "traffic_top20",
        "bgp_all",
        "bgp_top5",
        "bgp_top20",
    ]);
    let series: Vec<Vec<(usize, f64)>> = vec![
        m.ingress.ingress_count_cdf(None),
        m.ingress.ingress_count_cdf(Some(5)),
        m.ingress.ingress_count_cdf(Some(20)),
        bgp_next_hop_cdf(m.world(), None),
        bgp_next_hop_cdf(m.world(), Some(&top5_asns)),
        bgp_next_hop_cdf(m.world(), Some(&top20_asns)),
    ];
    let max_k = series
        .iter()
        .flat_map(|s| s.iter().map(|&(k, _)| k))
        .max()
        .unwrap_or(1);
    let at = |s: &[(usize, f64)], k: usize| -> f64 {
        s.iter()
            .take_while(|&&(kk, _)| kk <= k)
            .last()
            .map(|&(_, p)| p)
            .unwrap_or(0.0)
    };
    for k in 1..=max_k {
        t.row(vec![
            k.to_string(),
            f(at(&series[0], k), 4),
            f(at(&series[1], k), 4),
            f(at(&series[2], k), 4),
            f(at(&series[3], k), 4),
            f(at(&series[4], k), 4),
            f(at(&series[5], k), 4),
        ]);
    }
    t.write(&results_dir(), "fig3").expect("write results");
    let single_traffic = m.ingress.single_ingress_share(None);
    let single_bgp = at(&series[3], 1);
    let bgp_over5 = 1.0 - at(&series[3], 5);
    println!(
        "fig3: ingress router count per prefix ({} (/24, hour) observations)",
        m.ingress.prefix_count()
    );
    check(
        "~80% single traffic ingress (paper)",
        (0.6..0.95).contains(&single_traffic),
        format!("{single_traffic:.2}"),
    );
    check(
        "~20% single BGP next-hop (paper)",
        (0.1..0.4).contains(&single_bgp),
        format!("{single_bgp:.2}"),
    );
    check(
        "~60% BGP >5 next-hops (paper)",
        (0.35..0.8).contains(&bgp_over5),
        format!("{bgp_over5:.2}"),
    );
}

fn fig4(ctx: &mut Ctx) {
    let m = ctx.main_run();
    let mut t = Table::new(&["primary_share", "cdf_all", "cdf_top5"]);
    let all = ecdf(&m.ingress.primary_share_samples(None));
    let top5 = ecdf(&m.ingress.primary_share_samples(Some(5)));
    let grid: Vec<f64> = (30..=100).map(|i| i as f64 / 100.0).collect();
    let at = |s: &[(f64, f64)], x: f64| -> f64 {
        s.iter()
            .take_while(|&&(v, _)| v <= x)
            .last()
            .map(|&(_, p)| p)
            .unwrap_or(0.0)
    };
    for x in grid {
        t.row(vec![f(x, 2), f(at(&all, x), 4), f(at(&top5, x), 4)]);
    }
    t.write(&results_dir(), "fig4").expect("write results");
    let p80 = at(&all, 0.8);
    println!(
        "fig4: relative traffic share of first-ranked ingress ({} multi-ingress /24s)",
        all.len()
    );
    check(
        "most multi-ingress prefixes have primary ≤ 0.8 (paper: 80%)",
        p80 > 0.4,
        format!("P(share<=0.8) = {p80:.2}"),
    );
}

fn fig5(_ctx: &mut Ctx) {
    // The worked example of §3.2: watch the algorithm split /0 and classify.
    use ipd_topology::IngressPoint;
    let params = IpdParams {
        ncidr_factor_v4: 0.002,
        ..IpdParams::default()
    };
    let mut engine = IpdEngine::new(params).expect("valid params");
    let mut t = Table::new(&["tick", "event", "range", "ingress"]);
    // Two halves with different ingress points, plus a small mixed corner.
    for minute in 0..4u64 {
        for i in 0..400u32 {
            let ts = minute * 60 + (i % 60) as u64;
            engine.ingest_parts(ts, Addr::v4(i * 1024), IngressPoint::new(1, 1), 1);
            engine.ingest_parts(
                ts,
                Addr::v4(0x8000_0000 + i * 1024),
                IngressPoint::new(2, 1),
                1,
            );
        }
        let report = engine.tick((minute + 1) * 60);
        for (p, ing) in &report.newly_classified {
            t.row(vec![
                (minute + 1).to_string(),
                "classify".into(),
                p.to_string(),
                ing.to_string(),
            ]);
        }
        if report.splits > 0 {
            t.row(vec![
                (minute + 1).to_string(),
                format!("split x{}", report.splits),
                "-".into(),
                "-".into(),
            ]);
        }
    }
    t.write(&results_dir(), "fig5").expect("write results");
    println!(
        "fig5: worked algorithm example (split then classify)\n{}",
        t.render(20)
    );
    check(
        "root splits then halves classify",
        t.rows.iter().any(|r| r[1] == "classify"),
        format!("{} events", t.rows.len()),
    );
}

fn fig6(ctx: &mut Ctx) {
    let m = ctx.main_run();
    let mut t = Table::new(&["bin_ts", "acc_all", "acc_top20", "acc_top5", "volume_norm"]);
    let max_bytes = m
        .validation
        .bins
        .iter()
        .map(|b| b.bytes)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    for b in &m.validation.bins {
        t.row(vec![
            b.ts.to_string(),
            f(b.all.accuracy(), 4),
            f(b.top20.accuracy(), 4),
            f(b.top5.accuracy(), 4),
            f(b.bytes / max_bytes, 4),
        ]);
    }
    t.write(&results_dir(), "fig6").expect("write results");
    let (all, top20, top5) = m.validation.mean_accuracy();
    // Skip the cold-start bins for the headline number (the paper's system
    // had been running for years before the validation window).
    let warm: Vec<f64> = m
        .validation
        .bins
        .iter()
        .skip(6)
        .map(|b| b.all.accuracy())
        .collect();
    let warm_all = mean(&warm);
    println!(
        "fig6: IPD accuracy vs ground truth ({} bins)",
        m.validation.bins.len()
    );
    println!(
        "  accuracy sparkline: {}",
        sparkline(
            &m.validation
                .bins
                .iter()
                .map(|b| b.all.accuracy())
                .collect::<Vec<_>>()
        )
    );
    check(
        "ALL ≈ 91% (paper)",
        warm_all > 0.75,
        format!("mean {all:.3}, warm {warm_all:.3}"),
    );
    check(
        "TOP5 ≥ ALL (paper: 97.4% vs 91%)",
        top5 >= all - 0.02,
        format!("top5 {top5:.3} top20 {top20:.3}"),
    );
}

fn fig7(ctx: &mut Ctx) {
    let m = ctx.main_run();
    let mut t = Table::new(&["as_rank", "miss_type", "count", "distinct_srcs"]);
    for rank in 0..5usize {
        for (mt, label) in [
            (MissType::Interface, "interface"),
            (MissType::Router, "router"),
            (MissType::Pop, "pop"),
            (MissType::Unmatched, "unmatched"),
        ] {
            let count = m
                .validation
                .miss_counts
                .get(&(rank, mt))
                .copied()
                .unwrap_or(0);
            let srcs = m
                .validation
                .miss_srcs
                .get(&(rank, mt))
                .map_or(0, |s| s.len());
            t.row(vec![
                format!("AS{}", rank + 1),
                label.into(),
                count.to_string(),
                srcs.to_string(),
            ]);
        }
    }
    t.write(&results_dir(), "fig7").expect("write results");
    let total: u64 = m.validation.miss_counts.values().sum();
    println!("fig7: miss taxonomy for TOP5 ASes\n{}", t.render(24));
    check(
        "misses exist and are typed",
        total > 0,
        format!("{total} misses"),
    );
}

fn fig8(ctx: &mut Ctx) {
    let m = ctx.main_run();
    let mut t = Table::new(&["bin_ts", "as1", "as2", "as3", "as4", "as5"]);
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); 5];
    for b in &m.validation.bins {
        let mut cells = vec![b.ts.to_string()];
        for (rank, s) in series.iter_mut().enumerate() {
            let misses: u64 = b
                .misses_by_as
                .iter()
                .filter(|((r, _), _)| *r == rank)
                .map(|(_, c)| *c)
                .sum();
            s.push(misses as f64);
            cells.push(misses.to_string());
        }
        t.row(cells);
    }
    t.write(&results_dir(), "fig8").expect("write results");
    println!("fig8: misses over time per TOP5 AS");
    for (rank, s) in series.iter().enumerate() {
        println!("  AS{}: {}", rank + 1, sparkline(s));
    }
    // AS1 (MaintenanceBundle at 11:00/23:00) should have pronounced peaks.
    let as1 = &series[0];
    let peak = as1.iter().cloned().fold(0.0f64, f64::max);
    let avg = mean(as1);
    check(
        "AS1 shows maintenance peaks (paper: 11AM/11PM)",
        peak > avg * 2.0 || avg == 0.0,
        format!("peak {peak:.0} vs mean {avg:.1}"),
    );
}

fn fig9(ctx: &mut Ctx) {
    let m = ctx.main_run();
    let snap = m
        .last_snapshot
        .clone()
        .expect("main run produced snapshots");
    let world = m.world();
    let ipd_all = ipd_mask_distribution(&snap, world, None);
    let ipd_top5 = ipd_mask_distribution(&snap, world, Some(5));
    let ipd_top20 = ipd_mask_distribution(&snap, world, Some(20));
    let bgp = bgp_mask_distribution(world);
    let mut t = Table::new(&["mask", "ipd_all", "ipd_top5", "ipd_top20", "bgp"]);
    for mask in 0..=28u8 {
        let g = |m: &BTreeMap<u8, f64>| m.get(&mask).copied().unwrap_or(0.0);
        if g(&ipd_all) > 0.0 || g(&bgp) > 0.0 || g(&ipd_top5) > 0.0 {
            t.row(vec![
                format!("/{mask}"),
                f(g(&ipd_all), 4),
                f(g(&ipd_top5), 4),
                f(g(&ipd_top20), 4),
                f(g(&bgp), 4),
            ]);
        }
    }
    t.write(&results_dir(), "fig9").expect("write results");
    let s = summarize(&ipd_all, &bgp);
    println!("fig9: distribution of IPD ranges vs BGP\n{}", t.render(30));
    check(
        ">50% of BGP is /24 (paper)",
        s.bgp_24_share > 0.4,
        format!("{:.2}", s.bgp_24_share),
    );
    check(
        "IPD uses masks BGP does not",
        !s.ipd_only_masks.is_empty(),
        format!("{:?}", s.ipd_only_masks),
    );
}

fn fig10(ctx: &mut Ctx) {
    let days = if ctx.quick { 60 } else { 720 };
    println!("[fig10] simulating {days} days of mapping evolution ...");
    let mut world = World::generate(WorldConfig::default(), 42);
    let series = fig10_series(&mut world, 0, days, None);
    let mut t = Table::new(&["day", "matching", "stable"]);
    for p in &series {
        t.row(vec![p.day.to_string(), f(p.matching, 4), f(p.stable, 4)]);
    }
    t.write(&results_dir(), "fig10").expect("write results");
    println!("fig10: longitudinal matching/stable shares at 8PM daily");
    println!(
        "  matching: {}",
        sparkline(&series.iter().map(|p| p.matching).collect::<Vec<_>>())
    );
    println!(
        "  stable:   {}",
        sparkline(&series.iter().map(|p| p.stable).collect::<Vec<_>>())
    );
    let early = series.first().expect("non-empty").stable;
    let late = series.last().expect("non-empty").stable;
    check(
        "stable share decays over time (paper: 50% → ~0)",
        late < early,
        format!("day1 {early:.2} → day{days} {late:.2}"),
    );
}

fn daytime_fig(ctx: &mut Ctx, name: &str, which: &str) {
    let m = ctx.main_run();
    let v = if which == "top5" {
        &m.daytime_top5
    } else {
        &m.daytime_as4
    };
    let series = v.normalized_series();
    let mut cols = vec![
        "hour".to_string(),
        "total_space".to_string(),
        "total_prefixes".to_string(),
    ];
    for g in MASK_GROUPS {
        cols.push(format!("space_{g}"));
        cols.push(format!("prefixes_{g}"));
    }
    let mut t = Table::new(&cols.iter().map(String::as_str).collect::<Vec<_>>());
    for p in &series {
        let mut row = vec![
            p.hour.to_string(),
            f(p.total_space(), 4),
            f(p.total_prefixes(), 4),
        ];
        for g in MASK_GROUPS {
            row.push(f(p.space.get(g).copied().unwrap_or(0.0), 4));
            row.push(f(p.prefixes.get(g).copied().unwrap_or(0.0), 4));
        }
        t.row(row);
    }
    t.write(&results_dir(), name).expect("write results");
    println!("{name}: network size by hour of day ({which})");
    println!(
        "  prefixes: {}",
        sparkline(
            &series
                .iter()
                .map(|p| p.total_prefixes())
                .collect::<Vec<_>>()
        )
    );
    println!(
        "  space:    {}",
        sparkline(&series.iter().map(|p| p.total_space()).collect::<Vec<_>>())
    );
    if series.len() >= 20 {
        let pref: Vec<f64> = series.iter().map(|p| p.total_prefixes()).collect();
        let min = pref.iter().cloned().fold(f64::INFINITY, f64::min);
        check(
            "prefix count fluctuates over the day (paper: drops to 40–70% at night)",
            min < 0.95,
            format!("min/max = {min:.2}"),
        );
    }
}

fn fig13_14(_ctx: &mut Ctx) {
    let out = run_case_study();
    let mut t13 = Table::new(&["ts", "range", "classified", "ingress", "confidence"]);
    for (ts, statuses) in &out.timeline {
        for s in statuses {
            t13.row(vec![
                ts.to_string(),
                s.range.to_string(),
                s.classified.to_string(),
                s.ingress.clone().unwrap_or_else(|| "-".into()),
                f(s.confidence, 3),
            ]);
        }
    }
    t13.write(&results_dir(), "fig13").expect("write results");
    let mut t14 = Table::new(&[
        "ts",
        "classified",
        "confidence",
        "n_cidr",
        "total",
        "ingresses",
    ]);
    for d in &out.detail {
        let shares: Vec<String> = d
            .per_ingress
            .iter()
            .map(|(l, w)| format!("{l}={}", *w as u64))
            .collect();
        t14.row(vec![
            d.ts.to_string(),
            d.classified.to_string(),
            f(d.confidence, 3),
            f(d.n_cidr, 1),
            f(d.total, 0),
            shares.join(","),
        ]);
    }
    t14.write(&results_dir(), "fig14").expect("write results");
    println!(
        "fig13/fig14: reaction-to-change case study ({} snapshots)",
        out.timeline.len()
    );
    let changed = out
        .detail
        .windows(2)
        .any(|w| w[0].per_ingress.first().map(|x| &x.0) != w[1].per_ingress.first().map(|x| &x.0));
    check(
        "ingress change detected in detail series",
        changed,
        format!("{} detail points", out.detail.len()),
    );
}

fn fig15(ctx: &mut Ctx) {
    let m = ctx.main_run();
    let all = m.stability.durations();
    let elephants = m.stability.elephant_durations(0.01);
    let mut t = Table::new(&["series", "stability_seconds", "cdf"]);
    for (x, p) in ecdf(&all) {
        t.row(vec!["all".into(), f(x, 0), f(p, 4)]);
    }
    for (x, p) in ecdf(&elephants) {
        t.row(vec!["elephant".into(), f(x, 0), f(p, 4)]);
    }
    t.write(&results_dir(), "fig15").expect("write results");
    println!(
        "fig15: stability of elephant ranges ({} elephants)",
        elephants.len()
    );
    check(
        "elephants more stable than baseline (paper: months vs <1h)",
        mean(&elephants) >= mean(&all),
        format!("mean {:.0}s vs {:.0}s", mean(&elephants), mean(&all)),
    );
}

fn fig16(ctx: &mut Ctx) {
    let days = if ctx.quick { 90 } else { 4 * 365 };
    println!("[fig16] simulating {days} days for symmetry series ...");
    let mut world = World::generate(WorldConfig::default(), 42);
    let series = fig16_series(&mut world, days, 30);
    let mut t = Table::new(&["day", "all", "top20", "top5", "tier1"]);
    for p in &series {
        t.row(vec![
            p.day.to_string(),
            f(p.all, 4),
            f(p.top20, 4),
            f(p.top5, 4),
            f(p.tier1, 4),
        ]);
    }
    t.write(&results_dir(), "fig16").expect("write results");
    let last = series.last().expect("non-empty");
    println!("fig16: traffic symmetry ratios over time");
    check("tier-1 ≈ 91% (paper)", last.tier1 > 0.8, f(last.tier1, 3));
    check(
        "top5 ≈ 77% > all ≈ 62% (paper)",
        last.top5 > last.all - 0.05,
        format!("top5 {:.2} all {:.2}", last.top5, last.all),
    );
}

fn fig17(ctx: &mut Ctx) {
    let days = if ctx.quick { 180 } else { 3 * 365 };
    println!("[fig17] simulating {days} days for violations ...");
    let mut world = World::generate(WorldConfig::default(), 42);
    let series = fig17_series(&mut world, days, 30);
    let asns: Vec<u32> = series
        .iter()
        .flat_map(|p| p.per_asn.keys().copied())
        .collect::<std::collections::BTreeSet<u32>>()
        .into_iter()
        .collect();
    let mut cols = vec!["day".to_string(), "total".to_string(), "share".to_string()];
    cols.extend(asns.iter().map(|a| format!("as{a}")));
    let mut t = Table::new(&cols.iter().map(String::as_str).collect::<Vec<_>>());
    for p in &series {
        let mut row = vec![
            p.day.to_string(),
            p.total().to_string(),
            f(p.violating_share, 4),
        ];
        for a in &asns {
            row.push(p.per_asn.get(a).copied().unwrap_or(0).to_string());
        }
        t.row(row);
    }
    t.write(&results_dir(), "fig17").expect("write results");
    println!("fig17: tier-1 peering violations over time");
    println!(
        "  total: {}",
        sparkline(&series.iter().map(|p| p.total() as f64).collect::<Vec<_>>())
    );
    let early: usize = series[..series.len() / 3].iter().map(|p| p.total()).sum();
    let late: usize = series[2 * series.len() / 3..]
        .iter()
        .map(|p| p.total())
        .sum();
    check(
        "upward trend (paper: +50% from 2019, 2x by 2020)",
        late > early,
        format!("{early} → {late}"),
    );
    check(
        "~9% of tier-1 prefixes indirect (paper)",
        mean_violating_share(&series) < 0.4,
        f(mean_violating_share(&series), 3),
    );
}

fn param_study(ctx: &mut Ctx) {
    let (minutes, flows) = if ctx.quick { (8, 3_000) } else { (20, 8_000) };
    let design = reduced_design();
    println!(
        "[fig18-20] parameter study: {} configurations × {minutes} min (paper: 308 configs; Table 2 full factorial = {})",
        design.configs(1.0).len(),
        table2().configs(1.0).len()
    );
    let results = run_study(&design, minutes, flows, 42);
    let mut t = Table::new(&[
        "q",
        "ncidr_factor",
        "cidr_max",
        "accuracy",
        "ks",
        "mean_stability_s",
        "runtime_s",
        "state_bytes",
        "ranges",
    ]);
    for r in &results {
        t.row(vec![
            f(r.q, 3),
            f(r.ncidr_factor, 2),
            format!("/{}", r.cidr_max),
            f(r.accuracy, 4),
            f(r.ks, 4),
            f(r.mean_stability, 0),
            f(r.runtime_s, 2),
            r.peak_state_bytes.to_string(),
            r.peak_ranges.to_string(),
        ]);
    }
    t.write(&results_dir(), "fig18_20_configs")
        .expect("write results");
    let eff = effects(&results);
    let mut te = Table::new(&["factor", "metric", "levels(mean)", "F", "p", "eta2"]);
    for e in &eff {
        let levels: Vec<String> = e
            .level_means
            .iter()
            .map(|(l, m)| format!("{l}:{m:.3}"))
            .collect();
        let (fstat, p, eta) = e
            .anova
            .as_ref()
            .map(|a| (a.f, a.p, a.eta_squared))
            .unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        te.row(vec![
            format!("{:?}", e.factor),
            e.metric.to_string(),
            levels.join(" "),
            f(fstat, 2),
            f(p, 4),
            f(eta, 3),
        ]);
    }
    te.write(&results_dir(), "fig18_20_effects")
        .expect("write results");
    println!("{}", te.render(40));
    // Paper findings: accuracy flat across configs; cidr_max drives resources.
    let accs: Vec<f64> = results.iter().map(|r| r.accuracy).collect();
    let spread =
        accs.iter().cloned().fold(0.0f64, f64::max) - accs.iter().cloned().fold(1.0f64, f64::min);
    check(
        "fig18: accuracy barely affected by parameters (paper)",
        spread < 0.25,
        format!("max-min accuracy spread {spread:.3}"),
    );
    let state_by_cidr = eff
        .iter()
        .find(|e| e.factor == Factor::CidrMax && e.metric == "state_bytes")
        .expect("effect exists");
    let growing = state_by_cidr
        .level_means
        .windows(2)
        .all(|w| w[1].1 >= w[0].1 * 0.8);
    check(
        "fig20: state grows with cidr_max (paper: exponential)",
        growing,
        format!("{:?}", state_by_cidr.level_means),
    );
    let ks_by_q = eff
        .iter()
        .find(|e| e.factor == Factor::Q && e.metric == "ks_distance")
        .expect("effect exists");
    check(
        "fig19: q affects stability",
        ks_by_q.anova.is_some(),
        format!("{:?}", ks_by_q.level_means),
    );
}

fn tab1(_ctx: &mut Ctx) {
    let p = IpdParams::default();
    println!("tab1: default IPD parameters\n{}", p.table1());
    std::fs::create_dir_all(results_dir()).expect("results dir");
    std::fs::write(results_dir().join("tab1.txt"), p.table1()).expect("write results");
    check(
        "defaults match Table 1",
        p.cidr_max_v4 == 28 && p.q == 0.95 && p.t_secs == 60,
        "cidr_max=/28 q=0.95 t=60 e=120".into(),
    );
}

fn tab2(_ctx: &mut Ctx) {
    let d = table2();
    let mut t = Table::new(&["factor", "levels"]);
    t.row(vec!["t".into(), format!("[{}]", d.t_secs)]);
    t.row(vec!["e".into(), format!("[{}]", d.e_secs)]);
    t.row(vec!["q".into(), format!("{:?}", d.q)]);
    t.row(vec![
        "ncidr_factor (scaled 1:1000 traffic)".into(),
        format!("{:?}", d.ncidr_factor),
    ]);
    t.row(vec!["cidr_max".into(), format!("{:?}", d.cidr_max)]);
    t.write(&results_dir(), "tab2").expect("write results");
    println!("tab2: factorial design\n{}", t.render(10));
    check(
        "full factorial size",
        d.configs(64.0).len() == 180,
        format!("{} IPv4 configs", d.configs(64.0).len()),
    );
}

fn tab3(ctx: &mut Ctx) {
    let m = ctx.main_run();
    let snap = m.last_snapshot.clone().expect("snapshots exist");
    let world = m.world();
    let fmt = |p: ipd_topology::IngressPoint| world.topology.format_ingress(p);
    let text = snap.to_table3(&fmt);
    std::fs::create_dir_all(results_dir()).expect("results dir");
    std::fs::write(results_dir().join("tab3.txt"), &text).expect("write results");
    let classified: Vec<&str> = text
        .lines()
        .filter(|l| !l.contains("\t-("))
        .take(8)
        .collect();
    println!("tab3: raw IPD output sample (ts  ip  s_ingress  s_ipcount  n_cidr  range  ingress)");
    for l in &classified {
        println!("  {l}");
    }
    check(
        "rows have Table-3 shape",
        classified.iter().all(|l| l.split('\t').count() == 7),
        format!("{} rows", text.lines().count()),
    );
}

fn tab_prefixcorr(ctx: &mut Ctx) {
    let m = ctx.main_run();
    let snap = m.last_snapshot.clone().expect("snapshots exist");
    let corr = prefix_correlation(&snap, m.world());
    let (more, exact, less) = corr.shares();
    let mut t = Table::new(&["relation", "count", "share"]);
    t.row(vec![
        "ipd_more_specific".into(),
        corr.more_specific.to_string(),
        f(more, 4),
    ]);
    t.row(vec!["exact".into(), corr.exact.to_string(), f(exact, 4)]);
    t.row(vec![
        "ipd_less_specific".into(),
        corr.less_specific.to_string(),
        f(less, 4),
    ]);
    t.row(vec![
        "uncovered".into(),
        corr.uncovered.to_string(),
        "-".into(),
    ]);
    t.write(&results_dir(), "tab_prefixcorr")
        .expect("write results");
    println!(
        "tab-prefixcorr: IPD range vs BGP prefix correlation\n{}",
        t.render(6)
    );
    check(
        "IPD mostly more specific than BGP (paper: 91%/1%/8%)",
        more > 0.5 && more > less,
        format!("{more:.2}/{exact:.2}/{less:.2}"),
    );
}

fn flow_byte_correlation(ctx: &mut Ctx) {
    // §3.1's design-choice sanity stat: flow and byte counts correlate (~0.82).
    let m = ctx.main_run();
    let (mut flows, mut bytes) = (Vec::new(), Vec::new());
    for b in &m.validation.bins {
        flows.push(b.all.total as f64);
        bytes.push(b.bytes);
    }
    let r = pearson(&flows, &bytes);
    println!("§3.1 flow/byte correlation across bins: {r:.3}");
    check(
        "strong flow/byte correlation (paper: 0.82)",
        r > 0.6,
        f(r, 3),
    );
}

/// DFZ-scale re-run of the accuracy/stability analyses. Writes into the
/// parallel `results/dfz/` directory; the paper-scale TSVs in `results/`
/// are pinned byte-identical by `tests/results_pinned.rs` and must never be
/// touched by this path.
fn dfz_scale(ctx: &mut Ctx) {
    use ipd_eval::dfz::{run_dfz, DfzEvalConfig};
    let cfg = if ctx.quick {
        DfzEvalConfig::smoke(42)
    } else {
        DfzEvalConfig::tier_100k(42)
    };
    println!(
        "[dfz] {} IPv4 + {} IPv6 prefixes, {} routers, {} min at {} flows/min ...",
        cfg.dfz.plan.v4_prefixes,
        cfg.dfz.plan.v6_prefixes,
        cfg.dfz.topology.routers,
        cfg.minutes,
        cfg.dfz.flows_per_minute
    );
    let r = run_dfz(&cfg);
    println!(
        "[dfz] {} flows, {} ticks, {} classified ranges, {} churn events",
        r.flows, r.ticks, r.classified_ranges, r.churn_events
    );
    println!(
        "[dfz] settled accuracy {}, TOP5 {}, TOP20 {}, {} distinct user /28s",
        f(r.settled_accuracy(), 4),
        f(r.top5_share, 3),
        f(r.top20_share, 3),
        r.distinct_user28
    );
    let paths = r
        .write_tables(&results_dir().join("dfz"), &cfg)
        .expect("write results/dfz");
    for p in paths {
        println!("wrote {}", p.display());
    }
    check(
        "settled accuracy reasonable under churn",
        r.settled_accuracy() > 0.5,
        f(r.settled_accuracy(), 3),
    );
    check(
        "Zipf AS concentration (paper §5.1: TOP5 ≈ 52 %)",
        r.top5_share > 0.4 && r.top5_share < 0.95,
        f(r.top5_share, 3),
    );
}

/// Spoofing & catchment-shift detection on top of the served map
/// (`ipd-spoof`): run the mixed adversarial scenario, score the verdict
/// stream against ground truth, and write `results/spoof/`. The full tier
/// is the acceptance gate for the detector's precision/recall floors.
fn spoof_scale(ctx: &mut Ctx) {
    use ipd_eval::spoof::{run_spoof, SpoofEvalConfig};
    let cfg = if ctx.quick {
        SpoofEvalConfig::smoke(42)
    } else {
        SpoofEvalConfig::tier_100k(42)
    };
    println!(
        "[spoof] {} IPv4 + {} IPv6 prefixes, {} min at {} flows/min, spoof share {}, shift share {} (lag {} s) ...",
        cfg.run.scenario.dfz.plan.v4_prefixes,
        cfg.run.scenario.dfz.plan.v6_prefixes,
        cfg.run.minutes,
        cfg.run.scenario.dfz.flows_per_minute,
        cfg.run.scenario.spoof_share,
        cfg.run.scenario.shift_share,
        cfg.run.scenario.shift_lag_secs,
    );
    let r = run_spoof(&cfg);
    println!(
        "[spoof] {} flows ({} spoofed, {} shift), {} ticks, {} epochs, digest {:#018x}",
        r.report.flows,
        r.report.labeled(ipd_traffic::FlowLabel::Spoofed),
        r.report.labeled(ipd_traffic::FlowLabel::Shift),
        r.report.ticks,
        r.report.epochs,
        r.report.digest,
    );
    println!(
        "[spoof] precision {}, recall {}, F1 {}, shift non-spoofed {}",
        f(r.report.precision(), 4),
        f(r.report.recall(), 4),
        f(r.report.f1(), 4),
        f(r.report.shift_non_spoofed(), 4),
    );
    let paths = r
        .write_tables(&results_dir().join("spoof"))
        .expect("write results/spoof");
    for p in paths {
        println!("wrote {}", p.display());
    }
    check(
        "spoofed-flow precision >= 0.95",
        r.report.precision() >= 0.95,
        f(r.report.precision(), 4),
    );
    check(
        "spoofed-flow recall >= 0.90",
        r.report.recall() >= 0.90,
        f(r.report.recall(), 4),
    );
    check(
        "catchment-shift flows classified non-spoofed >= 0.90",
        r.report.shift_non_spoofed() >= 0.90,
        f(r.report.shift_non_spoofed(), 4),
    );
}

/// Longitudinal stability from a **recorded history**: stream a churned
/// DFZ-tier substrate through the engine with an `ipd-hist` publisher,
/// then compute the §5 stability table and the Fig-10-shaped epoch series
/// from the reconstructed epochs. Writes into `results/hist/` (the pinned
/// paper-scale TSVs in `results/` are never touched).
fn hist_scale(ctx: &mut Ctx) {
    use ipd::pipeline::{run_offline, BucketDriver};
    use ipd_eval::hist_stability::{epoch_series, per_prefix, stability_buckets};
    use ipd_hist::{HistConfig, HistPublisher, HistStore, HistTelemetry};
    use ipd_traffic::{DfzConfig, DfzWorld};

    let (cfg, minutes) = if ctx.quick {
        (DfzConfig::smoke_10k(42), 20)
    } else {
        (DfzConfig::tier_100k(42), 60)
    };
    let world = DfzWorld::new(cfg);
    let rate = cfg.flows_per_minute as f64;
    let params = IpdParams {
        ncidr_factor_v4: 64.0 / 32.0e6 * rate,
        ncidr_factor_v6: (rate * 1.5e-11).max(1e-9),
        ..IpdParams::default()
    };
    println!(
        "[hist] recording {minutes} min of the {}-prefix substrate, then time-travelling ...",
        cfg.plan.v4_prefixes
    );
    let dir = std::env::temp_dir().join(format!("ipd-eval-hist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = HistStore::open_with(&dir, HistConfig::default(), HistTelemetry::default())
        .expect("open history store");
    let mut hook = HistPublisher::new(store);
    let mut engine = IpdEngine::new(params).expect("engine");
    run_offline(
        &mut engine,
        BucketDriver::new(5),
        world.flows(minutes).map(|lf| lf.flow),
        &mut hook,
        |_| {},
    );
    assert!(hook.error().is_none(), "append failed: {:?}", hook.error());
    let store = hook.store();
    store.compact_now().expect("compaction");
    let reader = store.reader();
    let (from, to) = (1, store.last_epoch());
    println!(
        "[hist] {} epochs recorded, {} segments ({} keyframes)",
        to,
        store.segment_count(),
        reader.keyframe_count()
    );

    let per = per_prefix(&reader, from, to)
        .expect("reconstruct")
        .expect("range held");
    let buckets = stability_buckets(&per);
    let mut t = Table::new(&[
        "changes",
        "prefixes",
        "prefix_share",
        "addr_share",
        "mean_present",
    ]);
    for b in &buckets {
        t.row(vec![
            b.label.to_string(),
            b.prefixes.to_string(),
            f(b.prefix_share, 4),
            f(b.addr_share, 4),
            f(b.mean_present, 4),
        ]);
    }
    print!("{}", t.render(10));
    t.write(&results_dir().join("hist"), "stability_table")
        .expect("write results/hist");

    let series = epoch_series(&reader, from, to)
        .expect("reconstruct")
        .expect("range held");
    let mut t = Table::new(&["epoch", "matching", "stable"]);
    for p in &series {
        t.row(vec![p.epoch.to_string(), f(p.matching, 4), f(p.stable, 4)]);
    }
    t.write(&results_dir().join("hist"), "epoch_series")
        .expect("write results/hist");
    println!(
        "[hist] stable share: {}",
        sparkline(&series.iter().map(|p| p.stable).collect::<Vec<_>>())
    );

    check(
        "every prefix ever held is examined",
        !per.is_empty(),
        per.len().to_string(),
    );
    check(
        "churn leaves an unstable bucket",
        buckets.iter().skip(1).any(|b| b.prefixes > 0),
        buckets
            .iter()
            .map(|b| b.prefixes.to_string())
            .collect::<Vec<_>>()
            .join("/"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let id = ids.first().copied().unwrap_or("all");

    let mut ctx = Ctx { quick, main: None };
    let all = [
        "tab1",
        "tab2",
        "fig5",
        "fig2",
        "fig3",
        "fig4",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig11",
        "fig12",
        "fig13",
        "fig15",
        "tab3",
        "tab-prefixcorr",
        "corr",
        "fig10",
        "fig16",
        "fig17",
        "fig18",
    ];
    let run_one = |ctx: &mut Ctx, id: &str| match id {
        "fig2" => fig2(ctx),
        "fig3" => fig3(ctx),
        "fig4" => fig4(ctx),
        "fig5" => fig5(ctx),
        "fig6" => fig6(ctx),
        "fig7" => fig7(ctx),
        "fig8" => fig8(ctx),
        "fig9" => fig9(ctx),
        "fig10" => fig10(ctx),
        "fig11" => daytime_fig(ctx, "fig11", "top5"),
        "fig12" => daytime_fig(ctx, "fig12", "as4"),
        "fig13" | "fig14" => fig13_14(ctx),
        "fig15" => fig15(ctx),
        "fig16" => fig16(ctx),
        "fig17" => fig17(ctx),
        "fig18" | "fig19" | "fig20" => param_study(ctx),
        "tab1" => tab1(ctx),
        "tab2" => tab2(ctx),
        "tab3" => tab3(ctx),
        "tab-prefixcorr" => tab_prefixcorr(ctx),
        "corr" => flow_byte_correlation(ctx),
        "dfz" => dfz_scale(ctx),
        "hist" => hist_scale(ctx),
        "spoof" => spoof_scale(ctx),
        other => {
            eprintln!("unknown experiment id {other:?}; known: fig2..fig20, tab1..tab3, tab-prefixcorr, dfz, hist, spoof, all");
            std::process::exit(2);
        }
    };
    if id == "all" {
        for id in all {
            println!("\n=== {id} ===");
            run_one(&mut ctx, id);
        }
        println!("\nall results written to {}/", results_dir().display());
    } else {
        run_one(&mut ctx, id);
    }
}
