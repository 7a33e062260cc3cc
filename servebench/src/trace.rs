//! In-memory spans for the traced run. Each thread records into its own
//! [`SpanLog`]; the logs are merged and written out when the run ends.
//! A span's self time is its duration minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Nanoseconds since a run-wide origin, so spans of all threads share one
/// clock.
#[derive(Debug, Clone, Copy)]
pub struct Clock(pub Instant);

impl Clock {
    #[inline]
    pub fn ns(&self) -> u64 {
        self.at(Instant::now())
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.0).as_nanos() as u64
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The bucket or RPC this span belongs to.
    pub key: u64,
    pub start: u64,
    pub end: u64,
    /// Index of the parent within the same log.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one thread ("lane").
#[derive(Debug, Default)]
pub struct SpanLog {
    pub lane: String,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(lane: impl Into<String>) -> Self {
        SpanLog {
            lane: lane.into(),
            spans: Vec::new(),
        }
    }

    /// Record a span; returns its index for children to name as parent.
    pub fn push(
        &mut self,
        name: &'static str,
        key: u64,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            key,
            start,
            end: end.max(start),
            parent,
        });
        self.spans.len() - 1
    }

    /// Self time of every span: duration minus its children's durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// Self time and span count per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += t;
            e.1 += 1;
        }
        out
    }

    /// Wall time the lane's spans cover, first start to last end.
    pub fn extent(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start).min().unwrap_or(0);
        let end = self.spans.iter().map(|s| s.end).max().unwrap_or(0);
        end.saturating_sub(start)
    }
}

/// Write every lane's spans as tab-separated rows
/// `id parent key lane name start_ns end_ns` (parent 0 = root).
pub fn dump(path: &Path, logs: &[SpanLog]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tkey\tlane\tname\tstart_ns\tend_ns")?;
    let mut base = 0usize;
    for log in logs {
        for (i, s) in log.spans.iter().enumerate() {
            let parent = s.parent.map_or(0, |p| base + p + 1);
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                base + i + 1,
                s.key,
                log.lane,
                s.name,
                s.start,
                s.end
            )?;
        }
        base += log.spans.len();
    }
    out.flush()?;
    Ok(base)
}

/// Print the per-lane, per-layer self-time table.
pub fn print_self_times(logs: &[SpanLog]) {
    println!("self time per layer (traced run):");
    println!(
        "  {:<12} {:<22} {:>9} {:>12} {:>8}",
        "lane", "layer", "spans", "self_ms", "share"
    );
    for log in logs {
        let wall = log.extent().max(1) as f64;
        for (name, (ns, n)) in log.by_name() {
            println!(
                "  {:<12} {:<22} {:>9} {:>12.3} {:>7.2}%",
                log.lane,
                name,
                n,
                ns as f64 / 1e6,
                100.0 * ns as f64 / wall
            );
        }
    }
}
