//! A panicking reader must never wedge the pipeline.
//!
//! The collector side of a deployment is the untrusted half: it parses
//! arbitrary bytes off the wire, and a bug there takes down the reader
//! thread, dropping its `Sender` mid-stream. The engine thread only learns
//! about this through channel disconnection — these tests pin down that it
//! shuts down cleanly from that signal alone: `finish_hooked()` returns (no
//! deadlock), every flow sent before the panic is ingested, and the final
//! ticks still fire. The last test additionally parks the engine thread
//! mid-`send` on the bounded output channel before finishing — the exact
//! state where a join-before-drain `finish_hooked()` deadlocks.
//!
//! Everything runs under a watchdog so a regression fails the suite with a
//! message instead of hanging CI at the job timeout.

use std::sync::mpsc;
use std::time::Duration;

use ipd::pipeline::{IpdPipeline, NoopHook, PipelineConfig, PipelineOutput};
use ipd::IpdParams;
use ipd_lpm::Addr;
use ipd_netflow::FlowRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCHES_BEFORE_PANIC: usize = 20;
const FLOWS_PER_BATCH: usize = 250;

fn config() -> PipelineConfig {
    PipelineConfig {
        params: IpdParams {
            ncidr_factor_v4: 1e-2,
            ..IpdParams::default()
        },
        channel_capacity: 4,
        snapshot_every_ticks: 5,
        ..Default::default()
    }
}

fn batch(rng: &mut StdRng, minute: u64) -> Vec<FlowRecord> {
    (0..FLOWS_PER_BATCH)
        .map(|_| {
            let ts = minute * 60 + rng.random_range(0u64..60);
            FlowRecord::synthetic(ts, Addr::v4(rng.random::<u32>()), 1, 1)
        })
        .collect()
}

/// Run `f` on its own thread and fail the test if it takes longer than
/// `secs` — the deadlock detector. `recv_timeout` fires while the worker
/// is still blocked, which is exactly the wedged-pipeline case.
fn with_watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("pipeline deadlocked: finish_hooked() did not return after the reader panicked")
}

fn count_ticks(outputs: &[PipelineOutput]) -> usize {
    outputs
        .iter()
        .filter(|o| matches!(o, PipelineOutput::Tick(_)))
        .count()
}

/// The common scenario: a drainer consumes outputs (the normal deployment
/// shape), a reader sends `BATCHES_BEFORE_PANIC` batches and dies. Returns
/// (flows ingested, ticks seen) once the pipeline is fully drained.
fn panicking_reader_scenario() -> (u64, usize) {
    with_watchdog(60, move || {
        let p = IpdPipeline::spawn_hooked(config(), Box::new(NoopHook)).unwrap();
        let (input, output) = (p.input(), p.output().clone());

        // Downstream consumer: keeps the bounded output channel moving,
        // collects until the engine thread hangs up.
        let drainer = std::thread::spawn(move || output.iter().collect::<Vec<_>>());

        let reader = std::thread::Builder::new()
            .name("panicking-reader".into())
            .spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xDEAD);
                for minute in 0..BATCHES_BEFORE_PANIC as u64 {
                    input.send(batch(&mut rng, minute)).unwrap();
                }
                panic!("simulated reader crash (datagram parse bug)");
                // `input` dropped here by unwinding — the only shutdown
                // signal the engine thread gets.
            })
            .unwrap();
        assert!(reader.join().is_err(), "reader was supposed to panic");

        // The engine side must drain everything sent before the crash and
        // come back. (The pipeline's own Sender clone is dropped inside
        // finish_hooked(); until then the input channel is still open.)
        let (engine, _, leftover) = p.finish_hooked();
        let flows = engine.stats().flows_ingested;
        // The drainer took the output, so it receives every output and
        // finish_hooked() hands back none; together they hold every output.
        let drained = drainer.join().expect("drainer never panics");
        (flows, count_ticks(&drained) + count_ticks(&leftover))
    })
}

#[test]
fn plain_pipeline_survives_reader_panic() {
    let (flows, ticks) = panicking_reader_scenario();
    assert_eq!(
        flows,
        (BATCHES_BEFORE_PANIC * FLOWS_PER_BATCH) as u64,
        "flows sent before the crash must all be ingested"
    );
    // 20 minutes of data-time crossed 19 bucket boundaries plus the final
    // flush tick.
    assert!(
        ticks >= BATCHES_BEFORE_PANIC - 1,
        "final ticks missing: {ticks}"
    );
}

#[test]
fn finish_unwedges_engine_blocked_on_full_output_channel() {
    // Worst case: nobody drains outputs. One batch spanning 30 minutes of
    // data-time makes the engine emit ~29 ticks into a capacity-4 output
    // channel, so by the time finish_hooked() is called the engine thread is
    // parked mid-`send`. finish_hooked() must drain before joining or this
    // deadlocks (it did: the drain used to happen after the join).
    const MINUTES: u64 = 30;
    let (flows, ticks) = with_watchdog(60, || {
        let p = IpdPipeline::spawn_hooked(config(), Box::new(NoopHook)).unwrap();
        let input = p.input();
        let reader = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xBEEF);
            let mut big: Vec<FlowRecord> = (0..MINUTES).flat_map(|m| batch(&mut rng, m)).collect();
            big.sort_by_key(|f| f.ts);
            // Capacity is 4, this is one send: can never block.
            input.send(big).unwrap();
            panic!("simulated reader crash");
        });
        assert!(reader.join().is_err());
        // Give the engine time to actually fill the output channel and
        // park on `send` — makes the pre-fix deadlock deterministic
        // instead of racy.
        std::thread::sleep(Duration::from_millis(300));
        let (engine, _, leftover) = p.finish_hooked();
        (engine.stats().flows_ingested, count_ticks(&leftover))
    });
    assert_eq!(flows, MINUTES * FLOWS_PER_BATCH as u64);
    // All ~29 boundary ticks plus the final flush must surface in the
    // leftover outputs finish_hooked() hands back.
    assert!(
        ticks >= MINUTES as usize - 1,
        "final ticks missing: {ticks}"
    );
}
