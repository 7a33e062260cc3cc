//! End-to-end benchmark of the serve path: the components `ipd-tool serve`
//! wires together (collector, pipeline, `ServePublisher`, `HistPublisher`,
//! `ServeServer`) driven by seed-derived export datagrams, with consumers
//! that look flows up over TCP and judge them as `ipd-tool spoof --server`
//! does.
//!
//! ```text
//! servebench --workload ingest|lookup|live --seed N --seconds S --trace 0|1 [--tier 100k|10k]
//! ```
//!
//! One run prints the workload's figures, checks the outputs and ends with
//! one JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`. It exits non-zero if an output
//! check fails. See `README.md` for the metric definitions.

mod hook;
mod inputs;
mod layers;
mod run;
mod setup;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::inputs::{Tier, TIER_100K};
use crate::run::{Checks, PhaseOut};
use crate::stats::median;

const USAGE: &str = "usage: servebench --workload ingest|lookup|live --seed N --seconds S \
                     --trace 0|1 [--tier 100k|10k]";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Every end-to-end metric as `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("flows_per_s", "flows/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop ingest with history, no consumers: the write path.
    Ingest,
    /// Two consumers against a frozen map: the read path.
    Lookup,
    /// Open-loop ingest at a fixed rate with one consumer alongside.
    Live,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub tier: Tier,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut tier) =
            (None, None, None, None, TIER_100K);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "ingest" => Workload::Ingest,
                        "lookup" => Workload::Lookup,
                        "live" => Workload::Live,
                        _ => return Err(format!("unknown workload {value}")),
                    })
                }
                "--seed" => seed = Some(value.parse().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                "--tier" => tier = Tier::by_name(&value).ok_or(format!("unknown tier {value}"))?,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            tier,
        })
    }

    fn name(&self) -> &'static str {
        match self.workload {
            Workload::Ingest => "ingest",
            Workload::Lookup => "lookup",
            Workload::Live => "live",
        }
    }
}

/// Scratch space of a run (history directories, recorded digests, span
/// dumps), relative to the working directory.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".servebench_run")
}

fn hist_dir(args: &Args, n: usize) -> Option<PathBuf> {
    (args.workload == Workload::Ingest)
        .then(|| run_dir().join(format!("hist-{}-{n}", std::process::id())))
}

/// Set up, run the timed phase and check it.
fn phase(
    args: &Args,
    traced: bool,
    measure_rss: bool,
    setups: &mut Vec<f64>,
) -> Result<PhaseOut, String> {
    let setup = setup::build(args, traced, measure_rss, hist_dir(args, setups.len()))?;
    setups.push(setup.secs);
    run::run(setup, args, traced)
}

/// The JSON `metrics` object. A metric without samples (NaN) fails the
/// run and is written as 0, so that the line stays valid JSON.
fn json_metrics(metrics: &[(&str, f64, &str)], checks: &mut Checks) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            checks.ops(
                1,
                u64::from(!value.is_finite()),
                &format!("{name} has a value"),
            );
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload and print its result; `Ok(false)` if a check failed.
fn bench(args: &Args) -> Result<bool, String> {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "servebench: workload {} tier {} seed {} seconds {} trace {} (available parallelism {threads})",
        args.name(),
        args.tier.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut setups = Vec::new();
    // Set up again, untimed otherwise, so that setup_s is a median. The
    // traced run does one of these first, so that its untraced and traced
    // phases both run in a process whose allocator is already warm.
    let extra_setup = |setups: &mut Vec<f64>| -> Result<(), String> {
        let s = setup::build(args, false, false, hist_dir(args, setups.len()))?;
        setups.push(s.secs);
        setup::teardown(s);
        Ok(())
    };
    if args.trace {
        extra_setup(&mut setups)?;
    }
    let mut plain = phase(args, false, !args.trace, &mut setups)?;
    let traced = if args.trace {
        Some(phase(args, true, false, &mut setups)?)
    } else {
        None
    };
    while setups.len() < SETUPS {
        extra_setup(&mut setups)?;
    }
    let setup_s = median(&setups);

    for line in &plain.report {
        println!("{line}");
    }
    println!(
        "setup_s = {setup_s:.3} s (median of {}: {})",
        setups.len(),
        setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if !args.trace {
        println!(
            "peak_rss_mb = {:.1} MiB (growth after input generation)",
            plain.rss_mib
        );
    }
    let mut checks = std::mem::take(&mut plain.checks);
    let metrics_line = match traced {
        None => {
            let values = [
                plain.flows_per_s,
                plain.latency_p50(),
                plain.rss_mib,
                setup_s,
            ];
            let metrics: Vec<(&str, f64, &str)> = END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect();
            json_metrics(&metrics, &mut checks)
        }
        Some(mut t) => {
            let overhead = 100.0 * (plain.flows_per_s - t.flows_per_s) / plain.flows_per_s;
            t.layers.set("trace.overhead_pct", overhead);
            println!(
                "tracing overhead: flows_per_s {:.1} untraced vs {:.1} traced ({overhead:+.2}%), \
                 latency_ms_p50 {:.3} untraced vs {:.3} traced",
                plain.flows_per_s,
                t.flows_per_s,
                plain.latency_p50(),
                t.latency_p50()
            );
            trace::print_self_times(&t.logs);
            let path = run_dir().join(format!("spans-{}-{}.tsv", args.name(), args.tier.name));
            let n = trace::dump(&path, &t.logs).map_err(|e| format!("span dump: {e}"))?;
            println!("span dump: {} ({n} spans)", path.display());
            if let Some(c) = t.engine_check {
                let ok = (c.pct() - 100.0).abs() <= 5.0;
                println!(
                    "engine thread: layer self times sum to {:.1} of {:.1} ms wall ({:.2}%)",
                    c.accounted_ns as f64 / 1e6,
                    c.wall_ns as f64 / 1e6,
                    c.pct()
                );
                if args.workload == Workload::Ingest {
                    t.checks
                        .ops(1, u64::from(!ok), "engine self times sum to wall within 5%");
                }
            }
            let metrics: Vec<(&str, f64, &str)> = layers::PER_LAYER
                .iter()
                .map(|&(name, unit, _)| (name, t.layers.get(name), unit))
                .collect();
            for (name, value, unit) in &metrics {
                println!("  {name} = {value} {unit}");
            }
            checks.absorb(t.checks);
            json_metrics(&metrics, &mut checks)
        }
    };
    println!(
        "error_ratio = {} ({} failed of {} attempted)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    for f in &checks.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = checks.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_line}}}",
        checks.attempted, checks.failed
    );
    Ok(correct)
}
