//! The common experiment driver: a simulated world feeding IPD, with
//! per-bin LPM validation exactly as §5.1 describes.
//!
//! The paper's validation loop: (1) build an LPM table from IPD output,
//! (2) compare each flow's actual ingress with the table, (3) per time bin,
//! recompute the table "after every 5-minute bin to ensure we are using the
//! latest available information". [`run`] implements that loop streaming —
//! flows are validated against the table from the *previous* completed bin
//! while being ingested into the engine for the next.

use ipd::pipeline::{BucketDriver, NoopHook, PipelineOutput};
use ipd::{IpdEngine, IpdParams, LogicalIngress, Snapshot, TickReport};
use ipd_lpm::LpmTrie;
use ipd_traffic::{FlowSim, MinuteBatch, SimConfig, World, WorldConfig};

/// Configuration shared by all experiments.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Seed for world + flows.
    pub seed: u64,
    /// Simulated minutes to run.
    pub minutes: u64,
    /// Engine parameters.
    pub params: IpdParams,
    /// World parameters.
    pub world: WorldConfig,
    /// Flow simulation parameters.
    pub sim: SimConfig,
    /// Snapshot / LPM rebuild cadence in ticks (paper: 5-minute bins).
    pub snapshot_every_ticks: u32,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig::quick(60, 30_000)
    }
}

impl EvalConfig {
    /// A config whose `n_cidr` factor is scaled to the flow rate the same
    /// way the paper's is: the deployment uses factor 64 at ~32 M flows/min,
    /// i.e. `factor ≈ 2e-6 × flows_per_minute`. The constraint behind the
    /// scaling: a range can only ever hold `rate × e` live (unexpired)
    /// samples, so `n_cidr(/0) = factor × 65536` must stay below that.
    pub fn quick(minutes: u64, flows_per_minute: u64) -> Self {
        let factor = (64.0 / 32.0e6 * flows_per_minute as f64).max(1e-4);
        // IPv6 uses a 64-bit reference width (so sqrt(2^64) at the root) and
        // carries ~20 % of the traffic: scale its factor so the root
        // threshold sits at roughly half the family's live-sample budget.
        let factor_v6 = (flows_per_minute as f64 * 1.5e-11).max(1e-9);
        EvalConfig {
            seed: 42,
            minutes,
            params: IpdParams {
                ncidr_factor_v4: factor,
                ncidr_factor_v6: factor_v6,
                ..IpdParams::default()
            },
            world: WorldConfig::default(),
            sim: SimConfig {
                flows_per_minute,
                ..SimConfig::default()
            },
            snapshot_every_ticks: 5,
        }
    }
}

/// Observer of a streaming run. All hooks are optional.
pub trait RunVisitor {
    /// Called for every simulated minute *before* its flows are ingested,
    /// with the LPM table of the last completed bin (empty at start).
    fn on_minute(
        &mut self,
        batch: &MinuteBatch,
        world: &World,
        lpm: &LpmTrie<LogicalIngress>,
        engine: &IpdEngine,
    ) {
        let _ = (batch, world, lpm, engine);
    }

    /// Called on every stage-2 tick.
    fn on_tick(&mut self, report: &TickReport, engine: &IpdEngine) {
        let _ = (report, engine);
    }

    /// Called on every snapshot (every `snapshot_every_ticks` ticks).
    fn on_snapshot(&mut self, snapshot: &Snapshot, world: &World, engine: &IpdEngine) {
        let _ = (snapshot, world, engine);
    }
}

/// No-op visitor (useful when only the final engine state matters).
pub struct NullVisitor;

impl RunVisitor for NullVisitor {}

/// Outcome of a run.
pub struct RunOutput {
    /// The engine in its final state.
    pub engine: IpdEngine,
    /// The simulator (world access for post-hoc analysis).
    pub sim: FlowSim,
    /// Total flows generated.
    pub flows: u64,
}

/// Run IPD over `cfg.minutes` of simulated traffic, driving `visitor`.
pub fn run<V: RunVisitor>(cfg: &EvalConfig, visitor: &mut V) -> RunOutput {
    let world = World::generate(cfg.world.clone(), cfg.seed);
    let sim = FlowSim::new(
        world,
        SimConfig {
            seed: cfg.seed ^ 0xF10,
            ..cfg.sim.clone()
        },
    );
    run_with_sim(cfg, sim, visitor)
}

/// Same as [`run`] but over a caller-built simulator (used by scripted
/// scenarios like the Fig 13/14 case study).
pub fn run_with_sim<V: RunVisitor>(
    cfg: &EvalConfig,
    mut sim: FlowSim,
    visitor: &mut V,
) -> RunOutput {
    let mut engine = IpdEngine::new(cfg.params.clone()).expect("valid eval parameters");
    let mut driver = BucketDriver::new(cfg.snapshot_every_ticks);
    let mut lpm: LpmTrie<LogicalIngress> = LpmTrie::new();
    let mut flows = 0u64;

    for _ in 0..cfg.minutes {
        let batch = sim.next_minute();
        visitor.on_minute(&batch, sim.world(), &lpm, &engine);
        flows += batch.flows.len() as u64;
        for lf in &batch.flows {
            let mut emitted: Vec<PipelineOutput> = Vec::new();
            driver.observe(
                &mut engine,
                lf.flow.ts,
                &mut |o| emitted.push(o),
                &mut NoopHook,
            );
            for out in emitted {
                match out {
                    PipelineOutput::Tick(report) => visitor.on_tick(&report, &engine),
                    PipelineOutput::Snapshot(snapshot) => {
                        lpm = snapshot.lpm_table();
                        visitor.on_snapshot(&snapshot, sim.world(), &engine);
                    }
                }
            }
            engine.ingest(&lf.flow);
        }
    }
    // Final tick + snapshot.
    let mut emitted: Vec<PipelineOutput> = Vec::new();
    driver.finish(&mut engine, &mut |o| emitted.push(o), &mut NoopHook);
    for out in emitted {
        match out {
            PipelineOutput::Tick(report) => visitor.on_tick(&report, &engine),
            PipelineOutput::Snapshot(snapshot) => {
                visitor.on_snapshot(&snapshot, sim.world(), &engine);
            }
        }
    }
    RunOutput { engine, sim, flows }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        minutes: usize,
        ticks: usize,
        snapshots: usize,
        classified_seen: usize,
    }

    impl RunVisitor for Counter {
        fn on_minute(
            &mut self,
            _b: &MinuteBatch,
            _w: &World,
            _l: &LpmTrie<LogicalIngress>,
            _e: &IpdEngine,
        ) {
            self.minutes += 1;
        }
        fn on_tick(&mut self, _r: &TickReport, _e: &IpdEngine) {
            self.ticks += 1;
        }
        fn on_snapshot(&mut self, s: &Snapshot, _w: &World, _e: &IpdEngine) {
            self.snapshots += 1;
            self.classified_seen += s.classified().count();
        }
    }

    fn quick_cfg(minutes: u64) -> EvalConfig {
        EvalConfig::quick(minutes, 3000)
    }

    #[test]
    fn run_produces_ticks_and_snapshots() {
        let mut v = Counter {
            minutes: 0,
            ticks: 0,
            snapshots: 0,
            classified_seen: 0,
        };
        let out = run(&quick_cfg(12), &mut v);
        assert_eq!(v.minutes, 12);
        // ~11 bucket-crossing ticks + final.
        assert!(v.ticks >= 11, "ticks {}", v.ticks);
        // Two 5-minute snapshots + the final one.
        assert!(v.snapshots >= 3, "snapshots {}", v.snapshots);
        assert!(v.classified_seen > 0, "something must classify in 12 min");
        assert!(out.flows > 10_000);
        assert_eq!(out.engine.stats().flows_ingested, out.flows);
    }

    #[test]
    fn runs_are_reproducible() {
        let mut v1 = NullVisitor;
        let mut v2 = NullVisitor;
        let a = run(&quick_cfg(6), &mut v1);
        let b = run(&quick_cfg(6), &mut v2);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.engine.classified_count(), b.engine.classified_count());
        assert_eq!(a.engine.range_count(), b.engine.range_count());
    }
}
