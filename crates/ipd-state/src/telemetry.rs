//! Metric handles for the durability layer, mirroring [`DurableStats`] into
//! an [`ipd_telemetry::Telemetry`] registry plus timings the stats block
//! does not carry (checkpoint encode+write and journal fsync wall time).
//!
//! Like the rest of the telemetry surface these are observational only:
//! nothing here feeds back into checkpointing decisions, and a disabled
//! registry leaves every handle a no-op.
//!
//! [`DurableStats`]: crate::durable::DurableStats

use ipd_telemetry::{Counter, Histogram, Telemetry};

use crate::journal::FRAME_LEN;

/// All durability metric handles. `Default` is all-disabled;
/// [`StateTelemetry::register`] binds them to a live registry.
#[derive(Debug, Clone, Default)]
pub struct StateTelemetry {
    /// `ipd_state_journal_frames_total` — flow frames appended to journals.
    pub journal_frames: Counter,
    /// `ipd_state_journal_bytes_total` — on-disk journal bytes appended
    /// (frames × [`FRAME_LEN`], headers excluded).
    pub journal_bytes: Counter,
    /// `ipd_state_journal_sync_nanoseconds` — journal flush+fsync wall time.
    pub journal_sync_duration: Histogram,
    /// `ipd_state_checkpoints_total` — checkpoints written (including each
    /// session's opening one).
    pub checkpoints: Counter,
    /// `ipd_state_checkpoint_write_nanoseconds` — checkpoint encode + atomic
    /// write wall time.
    pub checkpoint_write_duration: Histogram,
    /// `ipd_state_io_errors_total` — I/O failures swallowed (durability
    /// degraded, run continued).
    pub io_errors: Counter,
    /// `ipd_state_restore_replayed_frames_total` — journal frames replayed
    /// onto a restored checkpoint; grows live during
    /// [`restore`](crate::durable::restore), so a metrics endpoint shows
    /// replay progress.
    pub restore_replayed: Counter,
}

impl StateTelemetry {
    /// Register every durability metric in `telemetry`. Idempotent — two
    /// registrations share the same cells.
    pub fn register(telemetry: &Telemetry) -> Self {
        StateTelemetry {
            journal_frames: telemetry.counter(
                "ipd_state_journal_frames_total",
                "Flow frames appended to write-ahead journals",
            ),
            journal_bytes: telemetry.counter(
                "ipd_state_journal_bytes_total",
                "On-disk journal bytes appended (frames only, headers excluded)",
            ),
            journal_sync_duration: telemetry.timing(
                "ipd_state_journal_sync_nanoseconds",
                "Journal flush+fsync wall time in nanoseconds",
            ),
            checkpoints: telemetry.counter(
                "ipd_state_checkpoints_total",
                "Engine checkpoints written, including the opening one",
            ),
            checkpoint_write_duration: telemetry.timing(
                "ipd_state_checkpoint_write_nanoseconds",
                "Checkpoint encode + atomic write wall time in nanoseconds",
            ),
            io_errors: telemetry.counter(
                "ipd_state_io_errors_total",
                "Durability I/O failures swallowed (run continued)",
            ),
            restore_replayed: telemetry.counter(
                "ipd_state_restore_replayed_frames_total",
                "Journal frames replayed during restore",
            ),
        }
    }

    /// Record `n` frames appended to the journal.
    pub(crate) fn journal_appended(&self, n: u64) {
        self.journal_frames.add(n);
        self.journal_bytes.add(n * FRAME_LEN as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_append_counts_bytes() {
        let telemetry = Telemetry::new();
        let m = StateTelemetry::register(&telemetry);
        m.journal_appended(3);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("ipd_state_journal_frames_total"), Some(3));
        assert_eq!(
            snap.counter("ipd_state_journal_bytes_total"),
            Some(3 * FRAME_LEN as u64)
        );
    }

    #[test]
    fn disabled_is_inert() {
        let m = StateTelemetry::default();
        m.journal_appended(10);
        m.io_errors.inc();
        assert_eq!(m.journal_frames.get(), 0);
        assert_eq!(m.io_errors.get(), 0);
    }
}
