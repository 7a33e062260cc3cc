//! Percentiles and process memory.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Linear-interpolated quantile of ascending `sorted` (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; `None` below 20 samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 20 {
        return None;
    }
    let q = 1.0 - 10.0 / n as f64;
    Some((100.0 * q, quantile(sorted, q)))
}

/// Resident set size in KiB (`VmRSS` of `/proc/self/status`).
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// How often [`PeakRss`] samples the resident set.
const RSS_SAMPLE: Duration = Duration::from_millis(5);

/// Peak-RSS growth from a starting point, such as the end of input
/// generation, so that what was resident before (the pre-encoded input) is
/// excluded. A thread samples the resident set every few milliseconds; the
/// kernel's own high-water mark only moves when memory is unmapped, so it
/// sees a transient peak or misses it depending on timing.
pub struct PeakRss {
    base_kib: u64,
    peak_kib: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

impl PeakRss {
    pub fn start() -> PeakRss {
        let base_kib = rss_kib().unwrap_or(0);
        let peak_kib = Arc::new(AtomicU64::new(base_kib));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (peak, stop) = (Arc::clone(&peak_kib), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(kib) = rss_kib() {
                        peak.fetch_max(kib, Ordering::Relaxed);
                    }
                    std::thread::sleep(RSS_SAMPLE);
                }
            })
        };
        PeakRss {
            base_kib,
            peak_kib,
            stop,
            sampler: Some(sampler),
        }
    }

    /// Growth of the sampled peak over the base so far, in MiB.
    pub fn growth_mib(&self) -> f64 {
        let peak = self
            .peak_kib
            .load(Ordering::Relaxed)
            .max(rss_kib().unwrap_or(0));
        peak.saturating_sub(self.base_kib) as f64 / 1024.0
    }
}

impl Drop for PeakRss {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
    }
}
