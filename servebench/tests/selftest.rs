//! Self-test at the 10k tier: every workload, untraced and traced, prints
//! every metric `BENCHMARK.json` names with its unit, plus the named
//! figures of its workload, and passes all of its output checks. Running
//! each workload twice also exercises the across-runs digest check.

use std::path::Path;
use std::process::Command;

use ipd_telemetry::Json;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(bench: &Json, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Figures each workload prints by name, with their unit.
fn named(workload: &str) -> &'static [&'static str] {
    match workload {
        "ingest" => &[
            "ingest_flows_per_s = ",
            " flows/s",
            "publish_latency_ms_p50 = ",
        ],
        "lookup" => &[
            "verdicts_per_s = ",
            "lookup_rpc_us_p50 = ",
            "lookup_rpc_us_p90 = ",
        ],
        _ => &[
            "verdicts_per_s = ",
            "lookup_rpc_us_p50 = ",
            "lookup_rpc_us_p90 = ",
            "publish_latency_ms_p50 = ",
        ],
    }
}

#[test]
fn every_workload_prints_its_metrics_and_passes_its_checks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("servebench-selftest");
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    for workload in ["ingest", "lookup", "live"] {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_ipd-servebench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--tier", "10k"])
                .current_dir(&scratch)
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = Json::parse(stdout.lines().last().expect("a result line"))
                .expect("the last line is JSON");
            assert!(
                matches!(result.get("correct"), Some(Json::Bool(true))),
                "{stdout}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
                    >= 1.0
            );
            let section = if trace == "0" {
                "end_to_end"
            } else {
                "per_layer"
            };
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    assert!(m
                        .get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite));
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                printed,
                declared(&bench, section),
                "{workload} --trace {trace}"
            );
            let common: &[&str] = if trace == "0" {
                &["setup_s = ", "peak_rss_mb = ", "error_ratio = 0 "]
            } else {
                &["setup_s = ", "error_ratio = 0 "]
            };
            for figure in named(workload).iter().chain(common) {
                assert!(
                    stdout.contains(figure),
                    "{workload}: no {figure:?} in\n{stdout}"
                );
            }
            if trace == "1" {
                assert!(stdout.contains("self time per layer"), "{stdout}");
                assert!(stdout.contains("span dump: "), "{stdout}");
                assert!(stdout.contains("tracing overhead: "), "{stdout}");
                if workload != "lookup" {
                    assert!(stdout.contains("engine thread: layer self times sum to"));
                }
            }
        }
    }
}
