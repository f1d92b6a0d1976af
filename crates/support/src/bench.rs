//! A wall-clock micro-benchmark harness.
//!
//! Each benchmark warms up, picks a batch size targeting a fixed batch
//! duration (so per-iteration timer overhead is amortized for
//! nanosecond-scale bodies), then times a fixed number of batches and
//! reports per-iteration statistics. Used by the `aov-bench` bench
//! binaries (`cargo bench` with `harness = false`): positional CLI
//! arguments act as substring filters, `--list` lists names.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timing parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Minimum warmup per benchmark.
    pub warmup: Duration,
    /// Target duration of one measured batch.
    pub batch_target: Duration,
    /// Number of measured batches (samples).
    pub samples: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup: Duration::from_millis(300),
            batch_target: Duration::from_millis(50),
            samples: 12,
        }
    }
}

/// Per-iteration statistics of one benchmark, in nanoseconds.
#[derive(Debug, Clone)]
pub struct BenchStats {
    pub name: String,
    /// Iterations per measured batch.
    pub batch_iters: u64,
    /// Batches measured.
    pub samples: usize,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
    /// Sample standard deviation of the per-batch means.
    pub stddev_ns: f64,
}

impl BenchStats {
    fn format_ns(ns: f64) -> String {
        if ns >= 1e9 {
            format!("{:.3} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.3} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.3} µs", ns / 1e3)
        } else {
            format!("{ns:.1} ns")
        }
    }

    /// One-line rendering: `name  mean ± stddev  [min, max]`.
    pub fn render(&self) -> String {
        format!(
            "{:<48} {:>12} ± {:<10} [{} .. {}]  ({} iters × {} samples)",
            self.name,
            Self::format_ns(self.mean_ns),
            Self::format_ns(self.stddev_ns),
            Self::format_ns(self.min_ns),
            Self::format_ns(self.max_ns),
            self.batch_iters,
            self.samples,
        )
    }
}

/// Collects and reports benchmarks. See the module docs for the CLI
/// contract.
pub struct Harness {
    config: BenchConfig,
    filters: Vec<String>,
    list_only: bool,
    results: Vec<BenchStats>,
    skipped: usize,
}

impl Harness {
    /// A harness configured from `std::env::args` (filters, `--list`);
    /// flags it does not know (e.g. `--bench`, passed by cargo) are
    /// ignored.
    pub fn from_args() -> Self {
        let mut filters = Vec::new();
        let mut list_only = false;
        for arg in std::env::args().skip(1) {
            if arg == "--list" {
                list_only = true;
            } else if !arg.starts_with('-') {
                filters.push(arg);
            }
        }
        Harness {
            config: BenchConfig::default(),
            filters,
            list_only,
            results: Vec::new(),
            skipped: 0,
        }
    }

    /// A harness with explicit parameters (no CLI parsing) — for tests.
    pub fn with_config(config: BenchConfig) -> Self {
        Harness {
            config,
            filters: Vec::new(),
            list_only: false,
            results: Vec::new(),
            skipped: 0,
        }
    }

    fn selected(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f.as_str()))
    }

    /// Runs (or lists/skips) one benchmark. The closure's return value is
    /// passed through [`black_box`] so the optimizer cannot delete the
    /// measured work.
    pub fn bench<R>(&mut self, name: &str, mut body: impl FnMut() -> R) {
        if !self.selected(name) {
            self.skipped += 1;
            return;
        }
        if self.list_only {
            println!("{name}");
            return;
        }
        let stats = measure(name, &self.config, &mut body);
        println!("{}", stats.render());
        self.results.push(stats);
    }

    /// Results measured so far.
    pub fn results(&self) -> &[BenchStats] {
        &self.results
    }

    /// Prints the summary footer. Call at the end of `main`.
    pub fn finish(self) {
        if !self.list_only {
            println!(
                "\n{} benchmarks measured, {} filtered out",
                self.results.len(),
                self.skipped
            );
        }
    }
}

/// Measures one closure with the harness's warmup/batch protocol and
/// returns the raw statistics without printing.
fn measure<R>(name: &str, config: &BenchConfig, body: &mut impl FnMut() -> R) -> BenchStats {
    // Warmup: run for at least `warmup`, counting iterations to estimate
    // the per-iteration cost.
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < config.warmup || warm_iters == 0 {
        black_box(body());
        warm_iters += 1;
    }
    let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
    let batch_iters = ((config.batch_target.as_secs_f64() / per_iter).ceil() as u64).max(1);

    let mut batch_means = Vec::with_capacity(config.samples);
    for _ in 0..config.samples {
        let t = Instant::now();
        for _ in 0..batch_iters {
            black_box(body());
        }
        batch_means.push(t.elapsed().as_secs_f64() * 1e9 / batch_iters as f64);
    }
    let n = batch_means.len() as f64;
    let mean = batch_means.iter().sum::<f64>() / n;
    let var = if batch_means.len() > 1 {
        batch_means.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    BenchStats {
        name: name.to_string(),
        batch_iters,
        samples: batch_means.len(),
        mean_ns: mean,
        min_ns: batch_means.iter().copied().fold(f64::INFINITY, f64::min),
        max_ns: batch_means.iter().copied().fold(0.0, f64::max),
        stddev_ns: var.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> BenchConfig {
        BenchConfig {
            warmup: Duration::from_millis(5),
            batch_target: Duration::from_millis(2),
            samples: 4,
        }
    }

    #[test]
    fn measures_something_positive() {
        let mut h = Harness::with_config(quick_config());
        h.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        let r = &h.results()[0];
        assert!(r.mean_ns > 0.0);
        assert!(r.min_ns <= r.mean_ns && r.mean_ns <= r.max_ns);
        assert_eq!(r.samples, 4);
    }

    #[test]
    fn render_units() {
        assert_eq!(BenchStats::format_ns(12.3), "12.3 ns");
        assert_eq!(BenchStats::format_ns(12_300.0), "12.300 µs");
        assert_eq!(BenchStats::format_ns(12_300_000.0), "12.300 ms");
        assert_eq!(BenchStats::format_ns(2_500_000_000.0), "2.500 s");
    }
}
