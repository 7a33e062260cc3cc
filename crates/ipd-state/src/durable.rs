//! Durable sessions: the [`PipelineHook`] that journals flows write-ahead
//! and checkpoints the engine at bucket boundaries, plus [`restore`], which
//! brings a crashed run back to the exact state it died in.
//!
//! The recovery contract (see DESIGN.md §9): generation `s` is checkpoint
//! `s` (engine + clock at a bucket boundary) plus journal `s` (every flow
//! delivered after that boundary, written *before* it touched the engine).
//! Replaying journal `s` on top of checkpoint `s` through the same
//! [`BucketDriver`] reproduces the in-memory engine bit-for-bit, so a
//! restored run that then continues from the cut produces the same final
//! digest as an uninterrupted one.

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use ipd::persist::RestoreError as EngineRestoreError;
use ipd::pipeline::{BucketClock, BucketDriver, NoopHook, PipelineHook};
use ipd::IpdEngine;
use ipd_netflow::FlowRecord;

use crate::codec::CheckpointState;
use crate::journal::{read_journal, JournalWriter};
use crate::store::CheckpointStore;
use crate::telemetry::StateTelemetry;

/// Knobs for a [`Durable`] session.
#[derive(Debug, Clone, Copy)]
pub struct DurableConfig {
    /// Checkpoint every this many buckets of data time.
    pub checkpoint_every_buckets: u64,
    /// Keep this many newest generations on disk (minimum 1).
    pub retain: usize,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            checkpoint_every_buckets: 10,
            retain: 3,
        }
    }
}

/// Counters a [`Durable`] session maintains, observable from outside the
/// pipeline through a [`DurableHandle`].
#[derive(Debug, Clone, Default)]
pub struct DurableStats {
    /// Current generation sequence number.
    pub seq: u64,
    /// Checkpoints written (including the opening one).
    pub checkpoints_written: u64,
    /// Flow frames appended to journals.
    pub flows_journaled: u64,
    /// I/O failures swallowed (durability degrades, the run continues).
    pub io_errors: u64,
    /// Message of the most recent I/O failure, if any.
    pub last_error: Option<String>,
}

/// Cloneable view of a [`Durable`] session's [`DurableStats`] — usable while
/// the hook itself is owned by a pipeline thread.
#[derive(Debug, Clone)]
pub struct DurableHandle(Arc<Mutex<DurableStats>>);

impl DurableHandle {
    /// Snapshot of the current counters.
    pub fn stats(&self) -> DurableStats {
        self.0.lock().unwrap().clone()
    }
}

/// The write-ahead durability hook. Plug into
/// [`run_offline`](ipd::pipeline::run_offline) or
/// [`IpdPipeline::spawn_hooked`](ipd::pipeline::IpdPipeline::spawn_hooked).
///
/// I/O failures after start are recorded (see [`DurableHandle`]) but do not
/// stop the run — losing durability is strictly better than losing the
/// analysis.
#[derive(Debug)]
pub struct Durable {
    store: CheckpointStore,
    config: DurableConfig,
    journal: JournalWriter,
    last_ckpt_bucket: Option<u64>,
    shared: Arc<Mutex<DurableStats>>,
    metrics: StateTelemetry,
}

impl Durable {
    /// Open a durable session in `dir`: writes the opening checkpoint of
    /// `engine` at `clock` as a fresh generation (one past the newest on
    /// disk) and opens its journal. Fails if the opening checkpoint cannot
    /// be written — a session that can never recover is refused up front.
    pub fn start(
        dir: impl Into<std::path::PathBuf>,
        engine: &IpdEngine,
        clock: BucketClock,
        config: DurableConfig,
    ) -> io::Result<Self> {
        let store = CheckpointStore::open(dir)?;
        let seq = store.generations()?.last().map_or(1, |last| last + 1);
        let state = CheckpointState {
            dump: engine.dump_state(),
            clock,
        };
        store.save_checkpoint(seq, &state)?;
        let journal = JournalWriter::create(&store.journal_path(seq))?;
        store.prune(config.retain)?;
        let shared = Arc::new(Mutex::new(DurableStats {
            seq,
            checkpoints_written: 1,
            ..DurableStats::default()
        }));
        Ok(Durable {
            store,
            config,
            journal,
            last_ckpt_bucket: clock.current_bucket,
            shared,
            metrics: StateTelemetry::default(),
        })
    }

    /// Register this session's durability metrics (`ipd_state_*`) in
    /// `telemetry`. The opening checkpoint written by [`Durable::start`] is
    /// counted retroactively so the metric matches
    /// [`DurableStats::checkpoints_written`].
    pub fn with_telemetry(mut self, telemetry: &ipd_telemetry::Telemetry) -> Self {
        self.metrics = StateTelemetry::register(telemetry);
        self.metrics
            .checkpoints
            .add(self.shared.lock().unwrap().checkpoints_written);
        self
    }

    /// A handle for observing this session's counters from outside.
    pub fn handle(&self) -> DurableHandle {
        DurableHandle(Arc::clone(&self.shared))
    }

    /// Current generation sequence number.
    pub fn seq(&self) -> u64 {
        self.shared.lock().unwrap().seq
    }

    /// Force a checkpoint now: syncs the open journal (so the previous
    /// generation stays a complete fallback), writes the next-generation
    /// checkpoint, rotates to its journal, and prunes old generations.
    pub fn checkpoint_now(&mut self, engine: &IpdEngine, clock: BucketClock) -> io::Result<()> {
        {
            let _timer = self.metrics.journal_sync_duration.start_timer();
            self.journal.sync()?;
        }
        let seq = self.seq() + 1;
        let state = CheckpointState {
            dump: engine.dump_state(),
            clock,
        };
        {
            let _timer = self.metrics.checkpoint_write_duration.start_timer();
            self.store.save_checkpoint(seq, &state)?;
        }
        self.journal = JournalWriter::create(&self.store.journal_path(seq))?;
        self.store.prune(self.config.retain)?;
        self.last_ckpt_bucket = clock.current_bucket;
        self.metrics.checkpoints.inc();
        let mut s = self.shared.lock().unwrap();
        s.seq = seq;
        s.checkpoints_written += 1;
        Ok(())
    }

    fn record_error(&self, what: &str, err: io::Error) {
        self.metrics.io_errors.inc();
        let mut s = self.shared.lock().unwrap();
        s.io_errors += 1;
        s.last_error = Some(format!("{what}: {err}"));
        eprintln!("ipd-state: {what}: {err} (durability degraded, run continues)");
    }
}

impl PipelineHook for Durable {
    fn flows(&mut self, flows: &[FlowRecord]) {
        match self.journal.append_all(flows) {
            Ok(()) => {
                self.shared.lock().unwrap().flows_journaled += flows.len() as u64;
                self.metrics.journal_appended(flows.len() as u64);
            }
            Err(e) => self.record_error("journal append failed", e),
        }
    }

    fn bucket_crossed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        let due = match (self.last_ckpt_bucket, clock.current_bucket) {
            (Some(last), Some(b)) => b.saturating_sub(last) >= self.config.checkpoint_every_buckets,
            // First crossing of a run that started with no bucket position:
            // checkpoint to establish the baseline.
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if due {
            if let Err(e) = self.checkpoint_now(engine, clock) {
                self.record_error("checkpoint failed", e);
            }
        }
    }

    fn finished(&mut self, _engine: &IpdEngine, _clock: BucketClock) {
        // End of stream: make the journal durable. No checkpoint — the
        // restore path replays the tail and fires the final tick itself.
        let timer = self.metrics.journal_sync_duration.start_timer();
        if let Err(e) = self.journal.sync() {
            drop(timer);
            self.record_error("journal sync failed", e);
        }
    }
}

/// Why a restore could not produce an engine.
#[derive(Debug)]
pub enum RestoreError {
    /// Filesystem trouble reading the state directory.
    Io(io::Error),
    /// No generation had a checksum-valid checkpoint.
    NoValidCheckpoint,
    /// A checkpoint decoded but described an impossible engine state.
    Engine(EngineRestoreError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Io(e) => write!(f, "restore i/o error: {e}"),
            RestoreError::NoValidCheckpoint => write!(f, "no valid checkpoint in state directory"),
            RestoreError::Engine(e) => write!(f, "checkpoint is not a valid engine state: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<io::Error> for RestoreError {
    fn from(e: io::Error) -> Self {
        RestoreError::Io(e)
    }
}

impl From<EngineRestoreError> for RestoreError {
    fn from(e: EngineRestoreError) -> Self {
        RestoreError::Engine(e)
    }
}

/// A recovered run: the engine exactly as the crashed process last had it,
/// plus the clock to resume the [`BucketDriver`] from.
#[derive(Debug)]
pub struct Restored {
    /// The rebuilt engine, journal tail already replayed.
    pub engine: IpdEngine,
    /// Driver position after replay — pass to [`BucketDriver::with_clock`]
    /// to continue the stream.
    pub clock: BucketClock,
    /// Generation the checkpoint came from.
    pub seq: u64,
    /// Journal frames replayed on top of the checkpoint.
    pub replayed: u64,
    /// True if replay stopped at a torn (partially written) journal frame.
    pub torn_tail: bool,
    /// Newer generations skipped because their checkpoint was damaged.
    pub fell_back: usize,
}

/// Recover from the state directory `dir`: load the newest valid
/// checkpoint (falling back past damaged generations), rebuild the engine,
/// and replay every journal from that generation onward through a
/// [`BucketDriver`] so mid-replay ticks fire exactly as they did in the
/// original run. `snapshot_every_ticks` must match the interrupted run's
/// pipeline configuration.
///
/// Replay progress goes to `telemetry`:
/// `ipd_state_restore_replayed_frames_total` grows as each journal is
/// applied, so a metrics endpoint polled during a long restore shows how
/// far replay has come. Pass [`Telemetry::disabled`] for none; the
/// resulting engine is the same either way.
///
/// [`Telemetry::disabled`]: ipd_telemetry::Telemetry::disabled
pub fn restore(
    dir: &Path,
    snapshot_every_ticks: u32,
    telemetry: &ipd_telemetry::Telemetry,
) -> Result<Restored, RestoreError> {
    let metrics = StateTelemetry::register(telemetry);
    let store = CheckpointStore::open(dir)?;
    let valid = store
        .latest_valid()?
        .ok_or(RestoreError::NoValidCheckpoint)?;
    let mut engine = IpdEngine::restore_state(valid.state.dump)?;
    let mut driver = BucketDriver::new(snapshot_every_ticks).with_clock(valid.state.clock);

    // Replay journals ascending from the restored generation through the
    // newest on disk. When we fell back past a damaged checkpoint, its
    // journal still holds the flows that followed it — they continue the
    // stream of the older generation's journal. Replay stops at the first
    // torn journal: anything after a tear cannot be ordered reliably.
    let last_journal = store
        .generations()?
        .last()
        .copied()
        .unwrap_or(valid.seq)
        .max(valid.seq);
    let mut replayed = 0u64;
    let mut torn_tail = false;
    let mut sink = |_out| {};
    for seq in valid.seq..=last_journal {
        let path = store.journal_path(seq);
        if !path.exists() {
            continue;
        }
        let contents = read_journal(&path)?;
        driver.ingest_batch(&mut engine, &contents.records, &mut sink, &mut NoopHook);
        replayed += contents.records.len() as u64;
        metrics.restore_replayed.add(contents.records.len() as u64);
        if contents.torn_tail {
            torn_tail = true;
            break;
        }
    }

    Ok(Restored {
        engine,
        clock: driver.clock(),
        seq: valid.seq,
        replayed,
        torn_tail,
        fell_back: valid.skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd::pipeline::run_offline;
    use ipd::IpdParams;
    use ipd_lpm::Addr;
    use ipd_telemetry::Telemetry;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("ipd-state-durable-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn test_params() -> IpdParams {
        IpdParams {
            ncidr_factor_v4: 0.01,
            ..IpdParams::default()
        }
    }

    fn flows(n: usize) -> Vec<FlowRecord> {
        (0..n)
            .map(|i| {
                let ts = 60 + (i as u64) * 2; // ~30 flows per 60 s bucket
                FlowRecord::synthetic(
                    ts,
                    Addr::v4(0x0A00_0000 | ((i as u32).wrapping_mul(2654435761) >> 8)),
                    1 + (i as u32) % 2,
                    1,
                )
            })
            .collect()
    }

    #[test]
    fn durable_run_checkpoints_and_journals() {
        let dir = tmp_dir("checkpoints");
        let mut engine = IpdEngine::new(test_params()).unwrap();
        let mut durable = Durable::start(
            &dir,
            &engine,
            BucketClock::default(),
            DurableConfig {
                checkpoint_every_buckets: 2,
                retain: 100,
            },
        )
        .unwrap();
        let handle = durable.handle();
        run_offline(
            &mut engine,
            BucketDriver::new(4),
            flows(600),
            &mut durable,
            |_| {},
        );
        let stats = handle.stats();
        assert_eq!(stats.flows_journaled, 600);
        assert_eq!(stats.io_errors, 0, "unexpected: {:?}", stats.last_error);
        // 600 flows at 2 s spacing cross ~20 buckets; every 2 buckets → ~10
        // checkpoints plus the opening one.
        assert!(
            stats.checkpoints_written >= 5,
            "got {}",
            stats.checkpoints_written
        );
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(
            store.generations().unwrap().len() as u64,
            stats.checkpoints_written
        );
    }

    #[test]
    fn restore_reproduces_interrupted_run() {
        let dir = tmp_dir("reproduce");
        let all = flows(900);
        let cut = 555;

        // Uninterrupted reference.
        let mut reference = IpdEngine::new(test_params()).unwrap();
        run_offline(
            &mut reference,
            BucketDriver::new(4),
            all.clone(),
            &mut NoopHook,
            |_| {},
        );

        // Durable run killed mid-stream: drive flows[..cut] through the
        // hook without ever calling finished/finish — then drop the engine
        // on the floor, as a crash would.
        {
            let mut engine = IpdEngine::new(test_params()).unwrap();
            let mut durable = Durable::start(
                &dir,
                &engine,
                BucketClock::default(),
                DurableConfig {
                    checkpoint_every_buckets: 2,
                    retain: 3,
                },
            )
            .unwrap();
            let mut driver = BucketDriver::new(4);
            let mut sink = |_out| {};
            for flow in &all[..cut] {
                driver.observe(&mut engine, flow.ts, &mut sink, &mut durable);
                durable.flows(std::slice::from_ref(flow));
                engine.ingest(flow);
            }
            durable.journal.sync().unwrap(); // the OS would have these bytes
        }

        // Restore and finish the stream.
        let restored = restore(&dir, 4, &Telemetry::disabled()).unwrap();
        assert!(!restored.torn_tail);
        assert_eq!(restored.fell_back, 0);
        let mut engine = restored.engine;
        run_offline(
            &mut engine,
            BucketDriver::new(4).with_clock(restored.clock),
            all[cut..].to_vec(),
            &mut NoopHook,
            |_| {},
        );

        let ts = all.last().unwrap().ts + 120;
        assert_eq!(engine.stats(), reference.stats());
        assert_eq!(
            engine.snapshot(ts).digest(),
            reference.snapshot(ts).digest()
        );
    }

    #[test]
    fn restore_of_empty_dir_fails() {
        let dir = tmp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            restore(&dir, 4, &Telemetry::disabled()),
            Err(RestoreError::NoValidCheckpoint)
        ));
    }

    #[test]
    fn telemetry_mirrors_durable_stats() {
        let dir = tmp_dir("telemetry");
        let telemetry = Telemetry::new();
        let mut engine = IpdEngine::new(test_params()).unwrap();
        let mut durable = Durable::start(
            &dir,
            &engine,
            BucketClock::default(),
            DurableConfig {
                checkpoint_every_buckets: 2,
                retain: 100,
            },
        )
        .unwrap()
        .with_telemetry(&telemetry);
        let handle = durable.handle();
        run_offline(
            &mut engine,
            BucketDriver::new(4),
            flows(600),
            &mut durable,
            |_| {},
        );
        let stats = handle.stats();
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter("ipd_state_journal_frames_total"),
            Some(stats.flows_journaled)
        );
        assert_eq!(
            snap.counter("ipd_state_journal_bytes_total"),
            Some(stats.flows_journaled * crate::journal::FRAME_LEN as u64)
        );
        assert_eq!(
            snap.counter("ipd_state_checkpoints_total"),
            Some(stats.checkpoints_written)
        );
        assert_eq!(snap.counter("ipd_state_io_errors_total"), Some(0));

        // Restore with telemetry reports replay progress and produces the
        // same engine as a restore without.
        let restored = restore(&dir, 4, &telemetry).unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter("ipd_state_restore_replayed_frames_total"),
            Some(restored.replayed)
        );
        let plain = restore(&dir, 4, &Telemetry::disabled()).unwrap();
        let ts = 60 + 600 * 2 + 120;
        assert_eq!(
            restored.engine.snapshot(ts).digest(),
            plain.engine.snapshot(ts).digest()
        );
    }

    #[test]
    fn generations_accumulate_across_sessions() {
        let dir = tmp_dir("sessions");
        let engine = IpdEngine::new(test_params()).unwrap();
        let cfg = DurableConfig {
            checkpoint_every_buckets: 2,
            retain: 10,
        };
        let d1 = Durable::start(&dir, &engine, BucketClock::default(), cfg).unwrap();
        assert_eq!(d1.seq(), 1);
        drop(d1);
        let d2 = Durable::start(&dir, &engine, BucketClock::default(), cfg).unwrap();
        assert_eq!(d2.seq(), 2);
    }
}
