//! Offline detection runs: scenario stream → engine + live publication →
//! per-flow verdicts, scored against the scenario's ground-truth labels.
//!
//! The run replays the exact deployment loop: every flow first advances the
//! [`BucketDriver`] (firing due stage-2 ticks, after which the
//! [`ServePublisher`] hook publishes a fresh epoch of the [`LiveStore`]),
//! then is judged against the *currently served* map — the same answer a
//! live query at that instant would have produced — and only then ingested.
//! Spoofed flows are ingested too: a real deployment cannot pre-filter
//! them, and the paper's q-quantile classification shrugs off minority
//! noise.
//!
//! Determinism contract: the verdict stream is a function of the scenario
//! seed and the published epoch sequence alone, so the same trace produces
//! a bit-identical stream (pinned by the workspace golden test).
//!
//! [`LiveStore`]: ipd_serve::LiveStore

use ipd::pipeline::{BucketDriver, PipelineHook, PipelineOutput};
use ipd::{IpdEngine, IpdParams};
use ipd_serve::ServePublisher;
use ipd_topology::IngressPoint;
use ipd_traffic::{DfzWorld, FlowLabel, SpoofScenario};

use crate::detect::{MapView, SpoofConfig, SpoofDetector};
use crate::expect::RouteExpect;
use crate::telemetry::SpoofTelemetry;
use crate::verdict::{Verdict, VerdictDigest, VerdictRecord};

/// Configuration of one offline detection run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpoofRunConfig {
    /// The labeled workload.
    pub scenario: SpoofScenario,
    /// Minutes of stream.
    pub minutes: u64,
    /// Detector evidence window (see [`SpoofConfig`]).
    pub window_secs: u64,
    /// Snapshot cadence of the driver, in ticks.
    pub snapshot_every_ticks: u32,
}

impl SpoofRunConfig {
    /// The golden/CI smoke shape: mixed scenario on the 10k tier, 12
    /// minutes. Fast enough for debug-mode test runs.
    pub fn smoke(seed: u64) -> Self {
        SpoofRunConfig {
            scenario: SpoofScenario::mixed(ipd_traffic::DfzConfig {
                flows_per_minute: 12_000,
                ..ipd_traffic::DfzConfig::smoke_10k(seed)
            }),
            minutes: 12,
            window_secs: SpoofConfig::default().window_secs,
            snapshot_every_ticks: 5,
        }
    }

    /// The acceptance shape: mixed scenario on the 100k tier with live
    /// churn, 30 minutes (~6M flows — release builds only).
    pub fn tier_100k(seed: u64) -> Self {
        SpoofRunConfig {
            scenario: SpoofScenario::tier_100k(seed),
            minutes: 30,
            window_secs: SpoofConfig::default().window_secs,
            snapshot_every_ticks: 5,
        }
    }

    /// Engine parameters matched to the scenario's flow rate (the same
    /// calibration `ipd-eval`'s DFZ runs use).
    pub fn engine_params(&self) -> IpdParams {
        let rate = self.scenario.dfz.flows_per_minute as f64;
        IpdParams {
            ncidr_factor_v4: (64.0 / 32.0e6 * rate).max(1e-4),
            ncidr_factor_v6: (rate * 1.5e-11).max(1e-9),
            ..IpdParams::default()
        }
    }
}

/// Outcome of an offline run: raw confusion counts plus the stream digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpoofReport {
    /// Scenario flows judged (spoof injections included).
    pub flows: u64,
    /// Stage-2 ticks fired.
    pub ticks: u64,
    /// Final publication epoch of the live store.
    pub epochs: u64,
    /// Verdict totals, indexed by [`Verdict::index`].
    pub verdicts: [u64; 3],
    /// Confusion counts: `matrix[label.code()][verdict.index()]`.
    pub matrix: [[u64; 3]; 3],
    /// FNV-1a digest of the canonical verdict stream.
    pub digest: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

impl SpoofReport {
    /// Flows carrying a given ground-truth label.
    pub fn labeled(&self, label: FlowLabel) -> u64 {
        self.matrix[label.code() as usize].iter().sum()
    }

    /// Of the flows flagged spoofed, the fraction that really were.
    pub fn precision(&self) -> f64 {
        let spoofed = Verdict::Spoofed.index();
        let tp = self.matrix[FlowLabel::Spoofed.code() as usize][spoofed];
        let flagged: u64 = self.matrix.iter().map(|row| row[spoofed]).sum();
        ratio(tp, flagged)
    }

    /// Of the truly spoofed flows, the fraction flagged.
    pub fn recall(&self) -> f64 {
        let tp = self.matrix[FlowLabel::Spoofed.code() as usize][Verdict::Spoofed.index()];
        ratio(tp, self.labeled(FlowLabel::Spoofed))
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Fraction of catchment-shift flows *not* flagged spoofed — the
    /// false-alarm guard the acceptance gate checks.
    pub fn shift_non_spoofed(&self) -> f64 {
        let row = &self.matrix[FlowLabel::Shift.code() as usize];
        ratio(
            row[Verdict::Consistent.index()] + row[Verdict::CatchmentShift.index()],
            row.iter().sum(),
        )
    }
}

/// Run the detector offline over a freshly generated scenario: build the
/// world, size the engine to the flow rate, and drive it.
pub fn run_offline(cfg: &SpoofRunConfig, metrics: &SpoofTelemetry) -> SpoofReport {
    let world = DfzWorld::new(cfg.scenario.dfz);
    let mut engine = IpdEngine::new(cfg.engine_params()).expect("preset params are valid");
    let detector = SpoofDetector::new(RouteExpect::new(&world, cfg.window_secs), metrics.clone());
    let mut publisher = ServePublisher::new();
    let swap = publisher.swap();
    let mut reader = swap.reader();
    let mut driver = BucketDriver::new(engine.params().t_secs, cfg.snapshot_every_ticks);

    let mut flows = 0u64;
    let mut ticks = 0u64;
    let mut verdicts = [0u64; 3];
    let mut matrix = [[0u64; 3]; 3];
    let mut digest = VerdictDigest::new();
    let mut summary_epoch = 0u64;

    let mut out = |o: PipelineOutput| {
        if matches!(o, PipelineOutput::Tick(_)) {
            ticks += 1;
        }
    };
    for sf in cfg.scenario.stream(&world, cfg.minutes) {
        // 1. Advance data time; bucket crossings publish fresh epochs.
        driver.observe_with(&mut engine, sf.flow.ts, &mut out, &mut publisher);
        // 2. Judge against the map exactly as served at this instant.
        let store = reader.current();
        let observed = IngressPoint::new(sf.flow.router, sf.flow.input_if);
        let map = match store.value.lookup(sf.flow.src) {
            None => MapView::Unmapped,
            Some(a) if a.ingress.matches(observed) => MapView::Match,
            Some(_) => MapView::Mismatch,
        };
        // How stale the served map was for this very decision, in flow
        // time — the end-to-end freshness the detector actually saw.
        metrics
            .decision_epoch_lag
            .observe(sf.flow.ts.saturating_sub(store.value.ts()));
        let epoch = store.value.epoch();
        if epoch != summary_epoch {
            // A fresh epoch took over: leave a cumulative verdict summary
            // in the flight ring (spoofed and shift counts so far).
            metrics.flight.record(
                ipd_telemetry::EventKind::SpoofSummary,
                sf.flow.ts,
                epoch,
                verdicts[Verdict::Spoofed.index()],
                verdicts[Verdict::CatchmentShift.index()],
            );
            summary_epoch = epoch;
        }
        let verdict = detector.decide(sf.flow.src, observed, sf.flow.ts, map);
        digest.observe(&VerdictRecord {
            ts: sf.flow.ts,
            src: sf.flow.src,
            observed,
            verdict,
            label: Some(sf.label),
            epoch: store.value.epoch(),
        });
        flows += 1;
        verdicts[verdict.index()] += 1;
        matrix[sf.label.code() as usize][verdict.index()] += 1;
        // 3. Ingest — forged flows included; the engine cannot pre-filter.
        engine.ingest(&sf.flow);
    }
    publisher.finished(&engine, driver.clock());
    driver.finish(&mut engine, &mut out);
    publisher.closed(&engine, driver.clock());
    // The terminal summary: final epoch, total spoofed/shift verdicts.
    let last = swap.load();
    metrics.flight.record(
        ipd_telemetry::EventKind::SpoofSummary,
        last.value.ts(),
        last.value.epoch(),
        verdicts[Verdict::Spoofed.index()],
        verdicts[Verdict::CatchmentShift.index()],
    );

    SpoofReport {
        flows,
        ticks,
        epochs: swap.load().value.epoch(),
        verdicts,
        matrix,
        digest: digest.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast(seed: u64) -> SpoofRunConfig {
        SpoofRunConfig {
            scenario: SpoofScenario::mixed(ipd_traffic::DfzConfig {
                flows_per_minute: 6_000,
                ..ipd_traffic::DfzConfig::smoke_10k(seed)
            }),
            minutes: 10,
            window_secs: 300,
            snapshot_every_ticks: 5,
        }
    }

    #[test]
    fn offline_run_meets_detection_floors() {
        let r = run_offline(&fast(7), &SpoofTelemetry::default());
        assert!(r.flows > 10_000, "{} flows", r.flows);
        assert!(r.ticks >= 9, "{} ticks", r.ticks);
        assert!(r.epochs > 0, "nothing published");
        assert!(r.labeled(FlowLabel::Spoofed) > 100);
        assert!(r.labeled(FlowLabel::Shift) > 0);
        assert!(r.precision() >= 0.95, "precision {}", r.precision());
        assert!(r.recall() >= 0.90, "recall {}", r.recall());
        assert!(
            r.shift_non_spoofed() >= 0.90,
            "shift leakage {}",
            r.shift_non_spoofed()
        );
    }

    #[test]
    fn verdict_stream_is_deterministic() {
        let t = ipd_telemetry::Telemetry::new();
        let a = run_offline(&fast(8), &SpoofTelemetry::default());
        // Telemetry on or off never changes the stream.
        let b = run_offline(&fast(8), &SpoofTelemetry::register(&t));
        assert_eq!(a, b);
        assert_eq!(t.snapshot().counter("ipd_spoof_flows_total"), Some(a.flows));
    }
}
