//! Minimal offline stand-in for the `criterion` crate (see `shims/README.md`).
//!
//! Benchmarks run and report a wall-clock mean per iteration plus throughput;
//! there is no statistical analysis, outlier rejection, or HTML report. The
//! measurement loop auto-calibrates the iteration count to target roughly
//! `sample_size` × ~30 ms of measurement per benchmark.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation: scales the per-iteration time into a rate.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// Controls how `iter_batched` amortizes setup; the shim runs one setup per
/// timed routine call regardless, so this only exists for API compatibility.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Benchmark identifier: `function_id/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_id: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_id.into(), parameter),
        }
    }
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("\n== group: {name} ==");
        BenchmarkGroup {
            _criterion: self,
            name,
            throughput: None,
            sample_size: 10,
        }
    }

    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(name, None, 10, &mut f);
        self
    }
}

/// A named group of benchmarks sharing throughput/sample-size settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name.into());
        run_benchmark(&full, self.throughput, self.sample_size, &mut f);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        run_benchmark(&full, self.throughput, self.sample_size, &mut |b| {
            f(b, input)
        });
        self
    }

    pub fn finish(self) {}
}

fn run_benchmark<F>(name: &str, throughput: Option<Throughput>, sample_size: usize, f: &mut F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        total: Duration::ZERO,
        iterations: 0,
        sample_size,
    };
    f(&mut bencher);
    let iters = bencher.iterations.max(1);
    let per_iter = bencher.total.as_nanos() as f64 / iters as f64;
    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => format_rate(n as f64 / (per_iter * 1e-9), "elem/s"),
        Throughput::Bytes(n) => format_rate(n as f64 / (per_iter * 1e-9), "B/s"),
    });
    match rate {
        Some(r) => eprintln!(
            "{name:<40} {:>14} ns/iter   thrpt: {r}",
            format_ns(per_iter)
        ),
        None => eprintln!("{name:<40} {:>14} ns/iter", format_ns(per_iter)),
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 100.0 {
        format!("{:.0}", ns)
    } else {
        format!("{:.2}", ns)
    }
}

fn format_rate(per_sec: f64, unit: &str) -> String {
    if per_sec >= 1e9 {
        format!("{:.2} G{unit}", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2} M{unit}", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2} K{unit}", per_sec / 1e3)
    } else {
        format!("{:.2} {unit}", per_sec)
    }
}

/// Passed to the benchmark closure; accumulates timed iterations.
pub struct Bencher {
    total: Duration,
    iterations: u64,
    sample_size: usize,
}

impl Bencher {
    /// Per-sample measurement budget: keeps full `cargo bench` runs in
    /// seconds, not minutes, while still timing enough iterations to matter.
    const SAMPLE_BUDGET: Duration = Duration::from_millis(30);

    /// Time `routine` repeatedly, auto-scaling the iteration count.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm-up & calibration: run once to estimate cost.
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));

        let per_sample = (Self::SAMPLE_BUDGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..per_sample {
                black_box(routine());
            }
            self.total += start.elapsed();
            self.iterations += per_sample as u64;
        }
    }

    /// Time `routine` over inputs built by `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Calibrate with one setup+routine pair.
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        let once = start.elapsed().max(Duration::from_nanos(1));

        let per_sample = (Self::SAMPLE_BUDGET.as_nanos() / once.as_nanos()).clamp(1, 10_000);
        for _ in 0..self.sample_size {
            for _ in 0..per_sample {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                self.total += start.elapsed();
                self.iterations += 1;
            }
        }
    }
}

/// Declare a group-runner function that executes each benchmark target.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declare `main` running one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim_selftest");
        g.sample_size(2);
        g.throughput(Throughput::Elements(100));
        g.bench_function("iter", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.bench_function("iter_batched", |b| {
            b.iter_batched(
                || vec![1u64; 100],
                |v| v.into_iter().sum::<u64>(),
                BatchSize::LargeInput,
            )
        });
        g.bench_with_input(BenchmarkId::new("with_input", 7), &7u64, |b, &n| {
            b.iter(|| n * 2)
        });
        g.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_runs_to_completion() {
        benches();
    }
}
