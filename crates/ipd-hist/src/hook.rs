//! The recording seam: a [`PipelineHook`] that appends every published
//! epoch into a [`HistStore`], riding the engine thread alongside (and
//! epoch-for-epoch identical to) `ipd-serve`'s `ServePublisher`. Both read
//! the same rows, [`IpdEngine::served_rows`].

use std::sync::Arc;

use ipd::pipeline::{BucketClock, PipelineHook};
use ipd::IpdEngine;

use crate::image::EpochImage;
use crate::store::{HistError, HistStore};

/// Appends one epoch per bucket crossing plus one at stream close — the
/// exact publication points of `ServePublisher`, so epoch N in the history
/// is the same map epoch N served live. Append failures latch: the first
/// error stops further recording (history must never wedge the pipeline)
/// and is surfaced via [`HistPublisher::error`].
pub struct HistPublisher {
    store: Arc<HistStore>,
    error: Option<HistError>,
}

impl HistPublisher {
    /// Record into `store`, starting at its current last epoch.
    pub fn new(store: HistStore) -> Self {
        HistPublisher {
            store: Arc::new(store),
            error: None,
        }
    }

    /// The shared store — clone for a [`crate::HistReader`] or to compact
    /// after the run.
    pub fn store(&self) -> Arc<HistStore> {
        Arc::clone(&self.store)
    }

    /// The latched first append failure, if recording stopped.
    pub fn error(&self) -> Option<&HistError> {
        self.error.as_ref()
    }

    fn publish(&mut self, engine: &IpdEngine, ts: u64) {
        if self.error.is_some() {
            return;
        }
        let epoch = self.store.last_epoch() + 1;
        let image = EpochImage::new(epoch, ts, engine.served_rows());
        if let Err(e) = self.store.append(image) {
            self.error = Some(e);
        }
    }
}

impl PipelineHook for HistPublisher {
    /// A bucket just closed mid-stream: record the post-tick map, stamped
    /// with the closed bucket's end.
    fn bucket_crossed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        let t = engine.params().t_secs;
        let ts = clock.current_bucket.map_or(0, |b| b * t);
        self.publish(engine, ts);
    }

    /// End of stream, after the final tick: record the terminal map.
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
    use ipd::IpdParams;
    use ipd_lpm::Addr;
    use ipd_netflow::FlowRecord;

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
    fn records_every_bucket_and_at_close() {
        let dir = std::env::temp_dir().join(format!("ipd-hist-hook-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut hook = HistPublisher::new(HistStore::open(&dir).unwrap());
        let mut engine = ipd::IpdEngine::new(test_params()).unwrap();
        run_offline_with(&mut engine, two_half_flows(6), 1, None, &mut hook, |_| {});
        assert!(hook.error().is_none());
        let store = hook.store();
        // 6 minutes of data: 5 in-stream crossings + 1 close record.
        assert_eq!(store.last_epoch(), 6);
        let reader = store.reader();
        // Epoch 6 carries the final map, stamped with the last bucket's end.
        let final_store = reader.store_at(6).unwrap().unwrap();
        assert_eq!(final_store.ts(), 360);
        assert!(!final_store.is_empty());
        // Every epoch reconstructs.
        for e in 1..=6 {
            assert!(reader.store_at(e).unwrap().is_some(), "epoch {e} missing");
        }
        assert!(reader.store_at(7).unwrap().is_none());
        drop(hook);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_stream_records_epoch_one() {
        let dir = std::env::temp_dir().join(format!("ipd-hist-hook-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut hook = HistPublisher::new(HistStore::open(&dir).unwrap());
        let mut engine = ipd::IpdEngine::new(test_params()).unwrap();
        run_offline_with(
            &mut engine,
            Vec::<FlowRecord>::new(),
            1,
            None,
            &mut hook,
            |_| {},
        );
        let store = hook.store();
        assert_eq!(store.last_epoch(), 1);
        let s = store.reader().store_at(1).unwrap().unwrap();
        assert!(s.is_empty());
        drop(hook);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
