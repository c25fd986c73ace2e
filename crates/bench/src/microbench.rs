//! A minimal, dependency-free micro-benchmark harness with a criterion-style API.
//!
//! The real `criterion` crate is not vendored in this build environment, so this
//! module provides the part of its surface `bench_diads` uses — [`Criterion`],
//! `benchmark_group`, `sample_size` and `bench_function` — implemented over
//! `std::time::Instant`. The measurement protocol follows the same discipline
//! (warm-up, fixed sample count, adaptive iterations per sample, median-of-samples
//! reporting) at a fraction of the rigor, which is adequate for the
//! order-of-magnitude comparisons tracked in `BENCH_diads.json`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall time for one sample batch.
const TARGET_SAMPLE: Duration = Duration::from_millis(4);
/// Number of warm-up batches before sampling.
const WARMUP_BATCHES: u64 = 3;

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Record {
    /// Group name (`kde`, `workflow`, ...).
    pub group: String,
    /// Benchmark id within the group (`fit/30`, `batch_diagnosis`, ...).
    pub bench: String,
    /// Median time per iteration, in nanoseconds.
    pub median_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters: u64,
}

/// Entry point object, modelled on criterion's.
#[derive(Debug, Default)]
pub struct Criterion {
    records: Vec<Record>,
}

impl Criterion {
    /// Creates the harness.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), sample_size: 20, criterion: self }
    }

    /// All measurements taken so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }
}

/// A group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: usize,
    criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(5);
        self
    }

    /// Measures one closure.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let record = run_bench(&self.name, id, self.sample_size, |b| f(b));
        println!(
            "{:<44} {:>14}/iter  ({} samples x {} iters)",
            format!("{}/{}", self.name, id),
            format_ns(record.median_ns),
            record.samples,
            record.iters,
        );
        self.criterion.records.push(record);
        self
    }
}

/// Times the body passed to [`Bencher::iter`].
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `f` for the configured number of iterations and records the elapsed time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(group: &str, id: &str, samples: usize, mut f: F) -> Record {
    // Calibrate: find an iteration count whose batch lands near the target time.
    let mut bencher = Bencher { iters: 1, elapsed: Duration::ZERO };
    f(&mut bencher);
    let per_iter = bencher.elapsed.max(Duration::from_nanos(1));
    let iters = (TARGET_SAMPLE.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut bencher = Bencher { iters, elapsed: Duration::ZERO };
    for _ in 0..WARMUP_BATCHES {
        f(&mut bencher);
    }
    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        f(&mut bencher);
        per_iter_ns.push(bencher.elapsed.as_nanos() as f64 / iters as f64);
    }
    per_iter_ns.sort_by(f64::total_cmp);
    let median_ns = per_iter_ns[per_iter_ns.len() / 2];
    Record { group: group.to_string(), bench: id.to_string(), median_ns, samples, iters }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_plausible() {
        let mut c = Criterion::new();
        {
            let mut g = c.benchmark_group("test");
            g.sample_size(5);
            g.bench_function("noop", |b| b.iter(|| 1 + 1));
            g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        }
        assert_eq!(c.records().len(), 2);
        assert!(c.records()[0].median_ns >= 0.0);
        assert_eq!(c.records()[1].bench, "sum");
    }
}
