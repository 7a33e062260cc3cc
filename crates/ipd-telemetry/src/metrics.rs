//! Hot-path metric handles: plain atomics behind an `Option`, so a handle
//! from a disabled registry costs one predictable branch and no clock read.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cache-line-padded atomic cell. Counters that different shard threads
/// hammer concurrently each get their own line, so shard A's increments
/// never bounce shard B's line (the "shard-aware" part of the registry).
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct PaddedU64(pub(crate) AtomicU64);

/// Monotonically increasing counter.
///
/// Cloning shares the underlying cell. The disabled variant (from
/// [`crate::Telemetry::disabled`]) is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<PaddedU64>>);

impl Counter {
    /// A no-op counter (what disabled registries hand out).
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for disabled handles).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.0.load(Ordering::Relaxed))
    }
}

/// Last-write-wins instantaneous value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicI64>>);

impl Gauge {
    /// A no-op gauge.
    pub fn disabled() -> Self {
        Gauge(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Set the current value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 for disabled handles).
    pub fn get(&self) -> i64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Shared cells of one histogram: fixed bucket bounds chosen at
/// registration, one atomic per bucket plus the +Inf overflow, and the
/// running sum/count. `observe` is allocation-free.
#[derive(Debug)]
pub(crate) struct HistogramCells {
    pub(crate) bounds: Vec<u64>,
    pub(crate) buckets: Vec<AtomicU64>,
    pub(crate) overflow: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) count: AtomicU64,
}

impl HistogramCells {
    pub(crate) fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        HistogramCells {
            bounds: bounds.to_vec(),
            buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Fixed-bucket histogram (cumulative-bucket semantics are produced at
/// snapshot time; the live cells hold per-bucket counts).
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCells>>);

impl Histogram {
    /// A no-op histogram.
    pub fn disabled() -> Self {
        Histogram(None)
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let Some(cells) = &self.0 else { return };
        // Bucket vectors are short (≤ ~16); a linear scan beats binary
        // search on branch predictability and stays allocation-free.
        match cells.bounds.iter().position(|&b| v <= b) {
            Some(i) => cells.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => cells.overflow.fetch_add(1, Ordering::Relaxed),
        };
        cells.sum.fetch_add(v, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations so far (0 for disabled handles).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Start a span timer that observes its elapsed nanoseconds when
    /// dropped. A disabled histogram returns a timer that never reads the
    /// clock — `Instant::now` is the expensive part of span timing, so
    /// disabled spans cost only the discriminant branch.
    #[inline]
    pub fn start_timer(&self) -> Timer {
        Timer {
            histogram: self.clone(),
            started: self.0.as_ref().map(|_| Instant::now()),
        }
    }
}

/// Span-timing guard from [`Histogram::start_timer`].
#[derive(Debug)]
pub struct Timer {
    histogram: Histogram,
    started: Option<Instant>,
}

impl Timer {
    /// Stop early and record; equivalent to dropping the guard.
    pub fn observe(self) {}
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(started) = self.started.take() {
            let nanos = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.histogram.observe(nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let c = Counter::disabled();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = Gauge::disabled();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 0);
        let h = Histogram::disabled();
        h.observe(123);
        drop(h.start_timer());
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let cells = Arc::new(HistogramCells::new(&[10, 100]));
        let h = Histogram(Some(cells.clone()));
        for v in [1, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        assert_eq!(cells.buckets[0].load(Ordering::Relaxed), 2); // 1, 10
        assert_eq!(cells.buckets[1].load(Ordering::Relaxed), 2); // 11, 100
        assert_eq!(cells.overflow.load(Ordering::Relaxed), 2); // 101, 5000
        assert_eq!(cells.count.load(Ordering::Relaxed), 6);
        assert_eq!(
            cells.sum.load(Ordering::Relaxed),
            1 + 10 + 11 + 100 + 101 + 5000
        );
    }

    #[test]
    fn timer_records_elapsed() {
        let cells = Arc::new(HistogramCells::new(&[1_000_000_000]));
        let h = Histogram(Some(cells));
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.count(), 1);
    }
}
