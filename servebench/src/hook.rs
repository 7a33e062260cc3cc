//! The benchmark's composite pipeline hook: [`ServePublisher`], plus
//! [`HistPublisher`] where the workload records history, exactly as
//! `ipd-tool serve --hist-dir` chains them, with the bookkeeping the
//! benchmark reads (flow counts, a decoded-flow digest, publication times
//! and, in the traced run, engine-thread timestamps).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crossbeam::channel::Receiver;
use ipd::pipeline::{BucketClock, PipelineHook, PipelineOutput};
use ipd::IpdEngine;
use ipd_hist::HistPublisher;
use ipd_netflow::FlowRecord;
use ipd_serve::{EpochSwap, LiveStore, ServePublisher};

use crate::inputs::flow_hash;
use crate::trace::Clock;

/// One publication as the engine thread made it.
#[derive(Debug, Clone)]
pub struct Publication {
    /// The bucket it closed; `None` for the terminal publication.
    pub bucket: Option<u64>,
    pub epoch: u64,
    /// When the engine took the closed bucket's last flow (timed buckets).
    pub last_flow: Option<Instant>,
    pub start: Instant,
    /// `ServePublisher` returned: readers see the epoch from here on.
    pub visible: Instant,
    /// `LiveStore::len` after the publication.
    pub rows: usize,
}

/// A publication on the traced engine thread, in [`Clock`] nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Crossing {
    /// Traced flows the engine had taken before this publication.
    pub flows: u64,
    pub bucket: Option<u64>,
    pub enter: u64,
    pub serve_end: u64,
    pub end: u64,
}

/// Engine-thread timestamps of the traced run.
#[derive(Debug, Default)]
pub struct EngineTrace {
    /// When stage 1 took each traced flow (`PipelineHook::flows`).
    pub flow_ns: Vec<u64>,
    pub crossings: Vec<Crossing>,
    /// End of input seen (`PipelineHook::finished`).
    pub finished: u64,
}

/// State the hook shares with the benchmark threads.
#[derive(Default)]
pub struct Shared {
    /// Flows handed to stage 1 so far.
    pub flows: AtomicU64,
    /// Sum of [`flow_hash`] over those flows, stored at close.
    pub digest: AtomicU64,
    pub publications: Mutex<Vec<Publication>>,
    pub hist_failed: AtomicBool,
    pub trace: Mutex<Option<EngineTrace>>,
}

impl Shared {
    pub fn publications(&self) -> Vec<Publication> {
        self.publications.lock().expect("hook panicked").clone()
    }
}

pub struct HookConfig {
    /// Crossings into this bucket and later publish; earlier crossings
    /// (the warm-up) only tick. `None`: publish only at close.
    pub publish_from: Option<u64>,
    /// Flow counts at which a timed bucket's last flow reaches stage 1.
    pub bucket_ends: Vec<u64>,
    /// Record engine timestamps for flows after this many.
    pub trace: Option<(Clock, u64)>,
}

pub struct BenchHook {
    serve: ServePublisher,
    hist: Option<HistPublisher>,
    swap: EpochSwap<LiveStore>,
    cfg: HookConfig,
    shared: Arc<Shared>,
    count: u64,
    digest: u64,
    next_end: usize,
    last_flow: Option<Instant>,
    trace: Option<EngineTrace>,
}

impl BenchHook {
    pub fn new(
        serve: ServePublisher,
        hist: Option<HistPublisher>,
        cfg: HookConfig,
        shared: Arc<Shared>,
    ) -> Self {
        BenchHook {
            swap: serve.swap(),
            serve,
            hist,
            trace: cfg.trace.map(|_| EngineTrace::default()),
            cfg,
            shared,
            count: 0,
            digest: 0,
            next_end: 0,
            last_flow: None,
        }
    }

    fn ns(&self) -> u64 {
        self.cfg.trace.map_or(0, |(clock, _)| clock.ns())
    }

    fn publish(&mut self, engine: &IpdEngine, clock: BucketClock, terminal: bool) {
        let start = Instant::now();
        let enter = self.ns();
        if terminal {
            self.serve.closed(engine, clock);
        } else {
            self.serve.bucket_crossed(engine, clock);
        }
        let visible = Instant::now();
        let serve_end = self.ns();
        if let Some(hist) = &mut self.hist {
            if terminal {
                hist.closed(engine, clock);
            } else {
                hist.bucket_crossed(engine, clock);
            }
            if hist.error().is_some() {
                self.shared.hist_failed.store(true, Ordering::Relaxed);
            }
        }
        let end = Instant::now();
        let bucket = match (terminal, clock.current_bucket) {
            (false, Some(b)) => Some(b - 1),
            _ => None,
        };
        // Publications before the traced flows (the warm one) are set-up.
        let traced = self.cfg.trace.filter(|&(_, from)| self.count >= from);
        if let (Some(trace), Some((clock, _))) = (&mut self.trace, traced) {
            trace.crossings.push(Crossing {
                flows: trace.flow_ns.len() as u64,
                bucket,
                enter,
                serve_end,
                end: clock.at(end),
            });
        }
        let store = self.swap.load();
        self.shared
            .publications
            .lock()
            .expect("benchmark thread panicked")
            .push(Publication {
                bucket,
                epoch: store.value.epoch(),
                last_flow: self.last_flow.take(),
                start,
                visible,
                rows: store.value.len(),
            });
    }
}

impl PipelineHook for BenchHook {
    fn flows(&mut self, flows: &[FlowRecord]) {
        for f in flows {
            self.digest = self.digest.wrapping_add(flow_hash(f));
            self.count += 1;
            if let (Some(trace), Some((clock, from))) = (&mut self.trace, self.cfg.trace) {
                if self.count > from {
                    trace.flow_ns.push(clock.ns());
                }
            }
            if self.cfg.bucket_ends.get(self.next_end) == Some(&self.count) {
                self.last_flow = Some(Instant::now());
                self.next_end += 1;
            }
        }
        self.shared.flows.store(self.count, Ordering::Release);
    }

    fn bucket_crossed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        let publish = match (self.cfg.publish_from, clock.current_bucket) {
            (Some(from), Some(b)) => b >= from,
            _ => false,
        };
        if publish {
            self.publish(engine, clock, false);
        }
    }

    fn finished(&mut self, _engine: &IpdEngine, _clock: BucketClock) {
        let now = self.ns();
        if let Some(trace) = &mut self.trace {
            trace.finished = now;
        }
    }

    fn closed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        self.publish(engine, clock, true);
        self.shared.digest.store(self.digest, Ordering::Release);
        *self.shared.trace.lock().expect("benchmark thread panicked") = self.trace.take();
    }
}

/// One item the output drainer received.
#[derive(Debug, Clone, Copy)]
pub struct Output {
    pub at: u64,
    pub snapshot: bool,
    /// Newly classified + dropped + invalidated ranges of a tick.
    pub changed: u64,
    pub splits: u64,
    pub expired_ips: u64,
}

/// Drain the pipeline output the way `ipd-tool serve` does; with a clock,
/// also note when each item arrived.
pub fn drain(rx: Receiver<PipelineOutput>, clock: Option<Clock>) -> Vec<Output> {
    let mut log = Vec::new();
    for o in rx.iter() {
        let Some(clock) = clock else { continue };
        let at = clock.ns();
        log.push(match o {
            PipelineOutput::Tick(t) => Output {
                at,
                snapshot: false,
                changed: (t.newly_classified.len() + t.dropped.len() + t.invalidated.len()) as u64,
                splits: t.splits as u64,
                expired_ips: t.expired_ips as u64,
            },
            PipelineOutput::Snapshot(_) => Output {
                at,
                snapshot: true,
                changed: 0,
                splits: 0,
                expired_ips: 0,
            },
        });
    }
    log
}
