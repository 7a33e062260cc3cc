//! Accuracy/stability evaluation at DFZ scale.
//!
//! The paper-scale harness ([`harness::run`](crate::harness::run)) walks the
//! materialized [`World`](ipd_traffic::World); its memory and wall-clock are
//! fine at 20k flows/min and hopeless at a million prefixes. This module is
//! the scale counterpart: it drives the *streaming* substrate
//! ([`DfzWorld`]) through the engine, validating each
//! flow against the functional ground truth at its own timestamp — so churn
//! (next-hop flaps, withdrawn prefixes) is part of the test, not an
//! interruption of it.
//!
//! Output goes to `results/dfz/` — a *parallel* directory so the pinned
//! paper-scale TSVs in `results/` stay byte-identical (see
//! `tests/results_pinned.rs` at the workspace root).

use std::collections::HashSet;
use std::path::Path;

use ipd::pipeline::{BucketDriver, NoopHook, PipelineOutput};
use ipd::{IpdEngine, IpdParams};
use ipd_lpm::LpmTrie;
use ipd_traffic::{DfzConfig, DfzWorld};

use crate::report::{f, Table};

/// Configuration of a DFZ-scale evaluation run.
#[derive(Debug, Clone, Copy)]
pub struct DfzEvalConfig {
    /// The substrate (world size, churn rates, flow rate, seed).
    pub dfz: DfzConfig,
    /// Minutes of stream to evaluate.
    pub minutes: u64,
    /// Snapshot cadence in ticks (5 matches the paper's 5-minute output).
    pub snapshot_every_ticks: u32,
}

impl DfzEvalConfig {
    /// The CI-sized tier: 100k IPv4 + 20k IPv6 prefixes, half an hour.
    pub fn tier_100k(seed: u64) -> Self {
        DfzEvalConfig {
            dfz: DfzConfig::tier_100k(seed),
            minutes: 30,
            snapshot_every_ticks: 5,
        }
    }

    /// A fast smoke tier for tests.
    pub fn smoke(seed: u64) -> Self {
        DfzEvalConfig {
            dfz: DfzConfig::smoke_10k(seed),
            minutes: 12,
            snapshot_every_ticks: 5,
        }
    }
}

/// Accuracy within one snapshot interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct DfzBin {
    /// Interval start (unix seconds).
    pub ts: u64,
    /// Flows checked against a published table.
    pub checked: u64,
    /// Correctly mapped flows.
    pub correct: u64,
}

impl DfzBin {
    /// Fraction correct (0 when nothing was checked).
    pub fn accuracy(&self) -> f64 {
        if self.checked == 0 {
            0.0
        } else {
            self.correct as f64 / self.checked as f64
        }
    }
}

/// Everything a DFZ-scale run measures.
#[derive(Debug, Clone)]
pub struct DfzEvalReport {
    /// Flows ingested (draws minus withdrawn suppressions).
    pub flows: u64,
    /// Stage-2 ticks executed.
    pub ticks: u64,
    /// Classified ranges at end of run.
    pub classified_ranges: usize,
    /// Final snapshot digest (determinism witness).
    pub digest: u64,
    /// Per-snapshot-interval accuracy, time-ordered.
    pub bins: Vec<DfzBin>,
    /// Route-churn events the substrate emitted during the run.
    pub churn_events: u64,
    /// Traffic share of the 5 / 20 biggest ASes (calibration, paper §5.1).
    pub top5_share: f64,
    /// See `top5_share`.
    pub top20_share: f64,
    /// Distinct user /28-equivalents observed in the stream.
    pub distinct_user28: u64,
}

impl DfzEvalReport {
    /// Accuracy over the second half of the run (after warm-up).
    pub fn settled_accuracy(&self) -> f64 {
        let half = &self.bins[self.bins.len() / 2..];
        let (c, k) = half
            .iter()
            .fold((0u64, 0u64), |(c, k), b| (c + b.correct, k + b.checked));
        if k == 0 {
            0.0
        } else {
            c as f64 / k as f64
        }
    }

    /// Write the `results/dfz/` tables: accuracy trajectory and a run
    /// summary. Returns the paths written.
    pub fn write_tables(
        &self,
        dir: &Path,
        cfg: &DfzEvalConfig,
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        let mut acc = Table::new(&["interval_start", "checked", "correct", "accuracy"]);
        for b in &self.bins {
            acc.row(vec![
                b.ts.to_string(),
                b.checked.to_string(),
                b.correct.to_string(),
                f(b.accuracy(), 4),
            ]);
        }
        let mut sum = Table::new(&["metric", "value"]);
        for (k, v) in [
            ("v4_prefixes", cfg.dfz.plan.v4_prefixes.to_string()),
            ("v6_prefixes", cfg.dfz.plan.v6_prefixes.to_string()),
            ("routers", cfg.dfz.topology.routers.to_string()),
            ("links", cfg.dfz.topology.links.to_string()),
            ("minutes", cfg.minutes.to_string()),
            ("flows", self.flows.to_string()),
            ("ticks", self.ticks.to_string()),
            ("classified_ranges", self.classified_ranges.to_string()),
            ("churn_events", self.churn_events.to_string()),
            ("settled_accuracy", f(self.settled_accuracy(), 4)),
            ("top5_as_share", f(self.top5_share, 4)),
            ("top20_as_share", f(self.top20_share, 4)),
            ("distinct_user_slash28", self.distinct_user28.to_string()),
            ("digest", format!("{:#018x}", self.digest)),
        ] {
            sum.row(vec![k.to_string(), v]);
        }
        Ok(vec![
            acc.write(dir, "dfz_accuracy")?,
            sum.write(dir, "dfz_summary")?,
        ])
    }
}

/// Run the evaluation: stream the substrate through a fresh engine, checking
/// every flow against the most recently published ingress table (the paper's
/// own validation protocol, §5.1: "we compare the ingress interface of each
/// sampled flow with the interface IPD reports").
pub fn run_dfz(cfg: &DfzEvalConfig) -> DfzEvalReport {
    let world = DfzWorld::new(cfg.dfz);
    let rate = cfg.dfz.flows_per_minute as f64;
    let params = IpdParams {
        ncidr_factor_v4: (64.0 / 32.0e6 * rate).max(1e-4),
        ncidr_factor_v6: (rate * 1.5e-11).max(1e-9),
        ..IpdParams::default()
    };
    let mut engine = IpdEngine::new(params).expect("valid params");
    let mut driver = BucketDriver::new(cfg.snapshot_every_ticks);

    let mut lpm: Option<LpmTrie<ipd::LogicalIngress>> = None;
    let mut bins: Vec<DfzBin> = Vec::new();
    let mut cur = DfzBin::default();
    let mut last_snapshot: Option<ipd::Snapshot> = None;
    let mut snapshots = 0u64;
    let mut ticks = 0u64;
    let mut as_flow_counts = vec![0u64; cfg.dfz.plan.ases as usize];
    let mut user28: HashSet<u64> = HashSet::new();
    let mut flows = 0u64;

    let t0 = cfg.dfz.epoch;
    for lf in world.flows(cfg.minutes) {
        // Snapshot boundaries publish a fresh table and open a new bin.
        let before = snapshots;
        {
            let mut on_out = |o: PipelineOutput| match o {
                PipelineOutput::Tick(_) => ticks += 1,
                PipelineOutput::Snapshot(s) => {
                    snapshots += 1;
                    lpm = Some(s.lpm_table());
                    last_snapshot = Some(s);
                }
            };
            driver.observe(&mut engine, lf.flow.ts, &mut on_out, &mut NoopHook);
        }
        if snapshots != before {
            if cur.checked > 0 {
                bins.push(cur);
            }
            cur = DfzBin {
                ts: lf.flow.ts,
                ..DfzBin::default()
            };
        }
        if let Some(table) = &lpm {
            cur.checked += 1;
            let actual = ipd_topology::IngressPoint::new(lf.flow.router, lf.flow.input_if);
            if let Some((_, ing)) = table.lookup(lf.flow.src) {
                if ing.matches(actual) {
                    cur.correct += 1;
                }
            }
        }
        let as_rank = world.plan.as_rank_of(lf.af, lf.rank) as usize;
        as_flow_counts[as_rank] += 1;
        // One 64-bit fingerprint per /28-equivalent user group.
        let group = lf.flow.src.masked(lf.flow.src.af().width() - 4).bits();
        user28.insert(ipd_topology::scale::mix((group >> 64) as u64, group as u64));
        engine.ingest(&lf.flow);
        flows += 1;
    }
    let mut on_out = |o: PipelineOutput| match o {
        PipelineOutput::Tick(_) => ticks += 1,
        PipelineOutput::Snapshot(s) => {
            last_snapshot = Some(s);
        }
    };
    driver.finish(&mut engine, &mut on_out, &mut NoopHook);
    if cur.checked > 0 {
        bins.push(cur);
    }

    let total: u64 = as_flow_counts.iter().sum();
    let top_share = |k: usize| {
        if total == 0 {
            0.0
        } else {
            as_flow_counts.iter().take(k).sum::<u64>() as f64 / total as f64
        }
    };
    let churn_events = world.churn_events(t0, t0 + cfg.minutes * 60).count() as u64;
    let snapshot = last_snapshot.expect("at least the final snapshot");
    DfzEvalReport {
        flows,
        ticks,
        classified_ranges: engine.classified_count(),
        digest: snapshot.digest(),
        bins,
        churn_events,
        top5_share: top_share(5),
        top20_share: top_share(20),
        distinct_user28: user28.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_reports_sane_numbers() {
        let cfg = DfzEvalConfig {
            dfz: DfzConfig {
                flows_per_minute: 12_000,
                ..DfzConfig::smoke_10k(5)
            },
            minutes: 12,
            snapshot_every_ticks: 5,
        };
        let r = run_dfz(&cfg);
        assert!(r.flows > 100_000, "{} flows", r.flows);
        assert!(r.ticks >= 11, "{} ticks", r.ticks);
        assert!(r.classified_ranges > 0);
        assert!(!r.bins.is_empty());
        assert!(r.churn_events > 0, "churn must be active");
        // Calibration: Zipf AS shares concentrate traffic. The smoke tier
        // only has ~19 ASes, so concentration is higher than at 100k/1M.
        assert!(
            r.top5_share > 0.4 && r.top5_share < 0.95,
            "top5 {}",
            r.top5_share
        );
        assert!(r.top20_share >= r.top5_share && r.top20_share <= 1.0);
        assert!(r.distinct_user28 > 10_000);
        // Once settled, most checked flows should map correctly even under
        // churn (the substrate's popular ranks dominate checks).
        assert!(
            r.settled_accuracy() > 0.5,
            "accuracy {}",
            r.settled_accuracy()
        );
        // Determinism: the digest is reproducible.
        let r2 = run_dfz(&cfg);
        assert_eq!(r.digest, r2.digest);
        assert_eq!(r.flows, r2.flows);
    }

    #[test]
    fn tables_write_to_parallel_dir() {
        let cfg = DfzEvalConfig {
            dfz: DfzConfig {
                flows_per_minute: 3_000,
                ..DfzConfig::smoke_10k(6)
            },
            minutes: 6,
            snapshot_every_ticks: 5,
        };
        let r = run_dfz(&cfg);
        let dir = std::env::temp_dir().join("ipd-dfz-eval-test");
        std::fs::create_dir_all(&dir).unwrap();
        let paths = r.write_tables(&dir, &cfg).unwrap();
        assert_eq!(paths.len(), 2);
        for p in &paths {
            let text = std::fs::read_to_string(p).unwrap();
            // Header plus at least one data row.
            assert!(text.lines().count() >= 2, "{p:?} too small");
        }
    }
}
