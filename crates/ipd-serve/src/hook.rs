//! The publication seam: a [`PipelineHook`] that applies each closed
//! bucket's *changes* to the in-place [`LiveStore`] — instead of rebuilding
//! the whole table per epoch — and rotates in a compacted store when the
//! concurrent arenas accumulate too much garbage.

use ipd::pipeline::{BucketClock, PipelineHook};
use ipd::{IpdEngine, ServedRow, StoreDelta};
use ipd_telemetry::EventKind;

use crate::live::LiveStore;
use crate::swap::EpochSwap;
use crate::telemetry::ServeTelemetry;

/// Garbage cells below this never trigger a rotation (rebuilds are pointless
/// for small tables — the arenas are lazily chunked anyway).
const REBUILD_MIN_GARBAGE: usize = 65_536;

/// Publications changing at least this many rows record a
/// [`EventKind::ChurnBurst`] flight event — the same order as the
/// parallel-apply threshold, i.e. churn big enough to dominate publish cost.
const CHURN_BURST_CHANGES: usize = 4_096;

/// Publishes into a [`LiveStore`] on every bucket crossing and at stream
/// close. Riding on the engine thread means each publication sees exactly
/// the post-tick state of the closed bucket — the same well-defined point
/// checkpoints capture — so an epoch is a bucket boundary, nothing in
/// between.
///
/// Publication is incremental: the hook reads the engine's classified
/// leaves as rows ([`IpdEngine::served_rows`]), merges them against the rows
/// it published last into a [`StoreDelta`], and applies only the changed
/// rows — no `Snapshot` is built. Route churn is localised and bursty, so
/// the store-side cost scales with the churn, not the 131k–1.2M-prefix
/// table. The outer [`EpochSwap`] rotates only on compaction rebuilds —
/// when dead arena cells outgrow the live rows — with the store's own epoch
/// numbering continuing across the rotation.
pub struct ServePublisher {
    swap: EpochSwap<LiveStore>,
    regions: usize,
    /// The rows the store serves: the left side of the next delta.
    prev: Vec<ServedRow>,
    metrics: ServeTelemetry,
}

impl ServePublisher {
    /// A single-region publisher starting from the empty store at epoch 0.
    /// Clone the returned [`EpochSwap`] before boxing the publisher into
    /// `spawn_hooked` — it is the readers' handle.
    pub fn new() -> Self {
        Self::with_config(1, ServeTelemetry::default())
    }

    /// [`ServePublisher::new`] reporting into metric handles.
    pub fn with_metrics(metrics: ServeTelemetry) -> Self {
        Self::with_config(1, metrics)
    }

    /// A publisher over `regions` store regions (power of two ≤ 256; see
    /// [`LiveStore`]), reporting into `metrics`.
    pub fn with_config(regions: usize, metrics: ServeTelemetry) -> Self {
        ServePublisher {
            swap: EpochSwap::new(LiveStore::new(regions)),
            regions,
            prev: Vec::new(),
            metrics,
        }
    }

    /// The swap readers subscribe to. Its [`Versioned::epoch`] counts store
    /// *rotations*; the publication epoch lives on the store itself
    /// ([`LiveStore::epoch`]).
    ///
    /// [`Versioned::epoch`]: crate::Versioned
    pub fn swap(&self) -> EpochSwap<LiveStore> {
        self.swap.clone()
    }

    /// Publish one store outside the pipeline — the serve-from-checkpoint
    /// path, where there is no stream and the hook never fires. Same metric
    /// accounting as a hook-driven publication. Returns the new epoch.
    pub fn publish_now(&mut self, engine: &IpdEngine, ts: u64) -> u64 {
        self.publish(engine, ts)
    }

    fn publish(&mut self, engine: &IpdEngine, ts: u64) -> u64 {
        let _timer = self.metrics.publish_duration.start_timer();
        let rows = engine.served_rows();
        let delta = StoreDelta::between_rows(&self.prev, &rows);
        let current = self.swap.load();
        let store = &current.value;
        let garbage = store.garbage();
        let epoch = if garbage >= REBUILD_MIN_GARBAGE && garbage > store.len() {
            // Compaction rebuild: rotate in a fresh store built from the
            // same rows; epoch numbering continues so readers stay monotonic.
            let fresh = LiveStore::with_base_epoch(self.regions, store.epoch());
            let epoch = fresh.publish_full(&rows, ts);
            self.metrics.rebuilds.inc();
            self.metrics.flight.record(
                EventKind::Rotation,
                ts,
                epoch,
                garbage as u64,
                fresh.len() as u64,
            );
            self.swap.publish(fresh);
            epoch
        } else {
            let epoch = store.apply(&delta, ts);
            self.metrics.flight.record(
                EventKind::DeltaApplied,
                ts,
                epoch,
                delta.change_count() as u64,
                store.garbage() as u64,
            );
            epoch
        };
        if delta.change_count() >= CHURN_BURST_CHANGES {
            self.metrics.flight.record(
                EventKind::ChurnBurst,
                ts,
                epoch,
                delta.change_count() as u64,
                rows.len() as u64,
            );
        }
        self.metrics.changed.add(delta.change_count() as u64);
        let current = self.swap.load();
        self.metrics.store_entries.set(current.value.len() as i64);
        self.metrics
            .store_bytes
            .set(current.value.memory_bytes().min(i64::MAX as usize) as i64);
        self.metrics
            .garbage
            .set(current.value.garbage().min(i64::MAX as usize) as i64);
        self.metrics.epoch.set(epoch.min(i64::MAX as u64) as i64);
        self.metrics.published.inc();
        self.metrics.publish_watermark.record(ts);
        self.metrics.flight.record(
            EventKind::EpochPublished,
            ts,
            epoch,
            delta.change_count() as u64,
            current.value.len() as u64,
        );
        self.prev = rows;
        epoch
    }
}

impl Default for ServePublisher {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelineHook for ServePublisher {
    /// A bucket just closed: its ticks fired, the crossing flow is not yet
    /// applied. Publish the post-tick map, stamped with the closed bucket's
    /// end (= the new bucket's start).
    fn bucket_crossed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        let t = engine.params().t_secs;
        let ts = clock.current_bucket.map_or(0, |b| b * t);
        self.publish(engine, ts);
    }

    /// End of stream, after the final tick: publish the terminal map so the
    /// last bucket's classifications are servable too.
    fn closed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        let t = engine.params().t_secs;
        let ts = clock.current_bucket.map_or(0, |b| (b + 1) * t);
        self.publish(engine, ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd::pipeline::run_offline_with;
    use ipd::{IpdParams, Snapshot};
    use ipd_lpm::Addr;
    use ipd_netflow::FlowRecord;
    use ipd_telemetry::Telemetry;

    fn test_params() -> IpdParams {
        IpdParams {
            ncidr_factor_v4: 0.01,
            ..IpdParams::default()
        }
    }

    fn two_half_flows(minutes: u64) -> Vec<FlowRecord> {
        let mut flows = Vec::new();
        for m in 0..minutes {
            for i in 0..200u32 {
                let ts = m * 60 + (i as u64 % 60);
                flows.push(FlowRecord::synthetic(ts, Addr::v4(i * 4096), 1, 1));
                flows.push(FlowRecord::synthetic(
                    ts,
                    Addr::v4(0x8000_0000 + i * 4096),
                    2,
                    1,
                ));
            }
        }
        flows.sort_by_key(|f| f.ts);
        flows
    }

    #[test]
    fn publishes_every_bucket_and_at_close() {
        let telemetry = Telemetry::new();
        let mut hook = ServePublisher::with_metrics(ServeTelemetry::register(&telemetry));
        let swap = hook.swap();
        let mut engine = ipd::IpdEngine::new(test_params()).unwrap();
        let mut snapshots: Vec<Snapshot> = Vec::new();
        run_offline_with(&mut engine, two_half_flows(6), 1, None, &mut hook, |o| {
            if let ipd::pipeline::PipelineOutput::Snapshot(s) = o {
                snapshots.push(s);
            }
        });
        // 6 minutes of data: 5 in-stream crossings + 1 close publication.
        // The publication epoch lives on the store; the swap only counts
        // rotations (none here — no compaction at this size).
        assert_eq!(swap.load().value.epoch(), 6);
        assert_eq!(swap.epoch(), 0);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("ipd_serve_published_total"), Some(6));
        assert_eq!(snap.gauge("ipd_serve_epoch"), Some(6));
        assert_eq!(snap.counter("ipd_serve_store_rebuilds_total"), Some(0));
        // Incremental cost: a stable stream republishes far fewer rows than
        // 6 full tables' worth.
        let changed = snap
            .counter("ipd_serve_changed_prefixes_total")
            .expect("changed counter");
        let entries = snap.gauge("ipd_serve_store_entries").unwrap() as u64;
        assert!(entries > 0);
        assert!(
            changed < 6 * entries,
            "changed {changed} should undercut republishing {entries} rows 6 times"
        );

        // The final published store answers like the final snapshot table.
        let mut reader = swap.reader();
        let current = reader.current();
        let last = snapshots.last().expect("final snapshot");
        let table = last.lpm_table();
        assert!(!current.value.is_empty());
        assert_eq!(current.value.ts(), last.ts);
        for i in 0..5_000u32 {
            let addr = Addr::v4(i.wrapping_mul(0x9E37_79B9));
            assert_eq!(
                current
                    .value
                    .lookup(addr)
                    .map(|a| (a.prefix, a.ingress.clone())),
                table.lookup(addr).map(|(p, ing)| (p, ing.clone())),
            );
        }
    }

    #[test]
    fn sharded_publisher_matches_single_region() {
        let mut plain = ServePublisher::new();
        let mut sharded = ServePublisher::with_config(8, ServeTelemetry::default());
        for hook in [&mut plain, &mut sharded] {
            let mut engine = ipd::IpdEngine::new(test_params()).unwrap();
            run_offline_with(&mut engine, two_half_flows(4), 1, None, hook, |_| {});
        }
        let a = plain.swap.load();
        let b = sharded.swap.load();
        assert_eq!(a.value.epoch(), b.value.epoch());
        assert_eq!(a.value.len(), b.value.len());
        let (ra, rb) = (a.value.rows(), b.value.rows());
        assert_eq!(ra.len(), rb.len());
        for ((pa, ia, ca), (pb, ib, cb)) in ra.iter().zip(rb.iter()) {
            assert_eq!((pa, ia), (pb, ib));
            assert_eq!(ca.to_bits(), cb.to_bits());
        }
    }

    #[test]
    fn empty_stream_publishes_nothing() {
        let mut hook = ServePublisher::new();
        let swap = hook.swap();
        let mut engine = ipd::IpdEngine::new(test_params()).unwrap();
        run_offline_with(
            &mut engine,
            Vec::<FlowRecord>::new(),
            1,
            None,
            &mut hook,
            |_| {},
        );
        // closed() fires even with no flows, from the empty clock.
        assert_eq!(swap.load().value.epoch(), 1);
        assert!(swap.load().value.is_empty());
    }
}
