//! Spoofing & catchment-shift detection evaluation: score `ipd-spoof`'s
//! verdict stream against the scenario ground truth and write the
//! `results/spoof/` tables (pinned byte-identical by
//! `tests/results_pinned.rs` at the committed tier).
//!
//! The acceptance gate (`experiments -- spoof` at the 100k tier) checks
//! precision ≥ 0.95 and recall ≥ 0.90 on labeled spoofed flows, with at
//! least 90 % of catchment-shift flows classified as non-spoofed.

use std::path::{Path, PathBuf};

use ipd_spoof::{run_offline, SpoofReport, SpoofRunConfig, SpoofTelemetry};
use ipd_traffic::FlowLabel;

use crate::report::{f, Table};

/// Configuration of one detection evaluation.
#[derive(Debug, Clone, Copy)]
pub struct SpoofEvalConfig {
    /// The underlying offline detector run.
    pub run: SpoofRunConfig,
}

impl SpoofEvalConfig {
    /// The quick / CI shape: 10k-tier mixed scenario.
    pub fn smoke(seed: u64) -> Self {
        SpoofEvalConfig {
            run: SpoofRunConfig::smoke(seed),
        }
    }

    /// The acceptance shape: 100k-tier mixed scenario with live churn.
    pub fn tier_100k(seed: u64) -> Self {
        SpoofEvalConfig {
            run: SpoofRunConfig::tier_100k(seed),
        }
    }
}

/// The scored outcome.
#[derive(Debug, Clone, Copy)]
pub struct SpoofEvalReport {
    /// Raw confusion counts and the verdict-stream digest.
    pub report: SpoofReport,
}

impl SpoofEvalReport {
    /// Write `spoof_summary.tsv` and `spoof_confusion.tsv` into `dir`.
    pub fn write_tables(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let r = &self.report;
        let mut summary = Table::new(&["metric", "value"]);
        let kv = [
            ("flows", r.flows.to_string()),
            ("ticks", r.ticks.to_string()),
            ("epochs", r.epochs.to_string()),
            ("legit_flows", r.labeled(FlowLabel::Legit).to_string()),
            ("spoofed_flows", r.labeled(FlowLabel::Spoofed).to_string()),
            ("shift_flows", r.labeled(FlowLabel::Shift).to_string()),
            ("precision", f(r.precision(), 4)),
            ("recall", f(r.recall(), 4)),
            ("f1", f(r.f1(), 4)),
            ("shift_non_spoofed", f(r.shift_non_spoofed(), 4)),
            ("digest", format!("{:#018x}", r.digest)),
        ];
        for (k, v) in kv {
            summary.row(vec![k.to_string(), v]);
        }

        let mut confusion = Table::new(&["label", "consistent", "spoofed", "catchment_shift"]);
        for (label, name) in [
            (FlowLabel::Legit, "legit"),
            (FlowLabel::Spoofed, "spoofed"),
            (FlowLabel::Shift, "shift"),
        ] {
            let row = &r.matrix[label.code() as usize];
            confusion.row(vec![
                name.to_string(),
                row[0].to_string(),
                row[1].to_string(),
                row[2].to_string(),
            ]);
        }

        Ok(vec![
            summary.write(dir, "spoof_summary")?,
            confusion.write(dir, "spoof_confusion")?,
        ])
    }
}

/// Run the detector over the configured scenario and score it.
pub fn run_spoof(cfg: &SpoofEvalConfig) -> SpoofEvalReport {
    SpoofEvalReport {
        report: run_offline(&cfg.run, &SpoofTelemetry::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_traffic::{DfzConfig, SpoofScenario};

    fn quick() -> SpoofEvalConfig {
        SpoofEvalConfig {
            run: SpoofRunConfig {
                scenario: SpoofScenario::mixed(DfzConfig {
                    flows_per_minute: 6_000,
                    ..DfzConfig::smoke_10k(3)
                }),
                minutes: 8,
                window_secs: 300,
                snapshot_every_ticks: 5,
            },
        }
    }

    #[test]
    fn tables_write_to_spoof_dir() {
        let r = run_spoof(&quick());
        assert!(r.report.precision() >= 0.9);
        let dir = std::env::temp_dir().join("ipd-spoof-eval-test");
        std::fs::create_dir_all(&dir).unwrap();
        let paths = r.write_tables(&dir).unwrap();
        assert_eq!(paths.len(), 2);
        for p in &paths {
            let text = std::fs::read_to_string(p).unwrap();
            assert!(text.lines().count() >= 4, "{} too short", p.display());
        }
        let summary = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(summary.contains("digest\t0x"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
