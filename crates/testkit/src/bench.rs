//! A criterion-flavoured microbenchmark harness so `crates/bench/benches`
//! compile and run with no external dependencies. Benchmarks are declared
//! with [`criterion_group!`](crate::criterion_group) /
//! [`criterion_main!`](crate::criterion_main) and `harness = false`.
//!
//! Measurement model: per benchmark, a short warm-up, then `sample_size`
//! timed batches whose batch size is auto-calibrated so each batch takes
//! roughly a millisecond; the report prints the median, min, and max
//! per-iteration time. Far simpler than criterion's bootstrap analysis,
//! but stable enough to compare kernels.
//!
//! Two environment variables support the CI bench-smoke tier:
//!
//! * `SEGRAM_BENCH_SAMPLES=N` — run exactly `N` samples per benchmark and
//!   skip warm-up/calibration (each sample is one iteration), so bench
//!   binaries can be smoke-tested in seconds;
//! * `SEGRAM_BENCH_JSON=path` — append one JSON object per benchmark
//!   (`{"group":…,"id":…,"median_s":…,"min_s":…,"max_s":…,"samples":…}`)
//!   to `path`, giving CI a machine-readable artifact.

use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

// Re-exported here so `use segram_testkit::bench::{criterion_group, ...}`
// mirrors `use criterion::{criterion_group, ...}`.
pub use crate::{criterion_group, criterion_main};

/// Top-level harness state (mirrors `criterion::Criterion`).
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: 20,
            throughput: None,
        }
    }
}

/// The `SEGRAM_BENCH_SAMPLES` smoke override, if set and parsable.
fn smoke_samples() -> Option<usize> {
    std::env::var("SEGRAM_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|n: usize| n.max(1))
}

/// A `name/parameter` benchmark id (mirrors `criterion::BenchmarkId`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Combines a function name and a parameter value.
    pub fn new(name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{name}/{parameter}"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(id: &str) -> Self {
        Self { id: id.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        Self { id }
    }
}

/// Throughput annotation for a group (printed with each report line).
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// A group of related benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples.max(2);
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut bencher = Bencher::new(self.sample_size);
        f(&mut bencher);
        bencher.report(&self.name, &id.into().id, self.throughput);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut bencher = Bencher::new(self.sample_size);
        f(&mut bencher, input);
        bencher.report(&self.name, &id.into().id, self.throughput);
        self
    }

    /// Ends the group (report lines are printed eagerly; this exists for
    /// criterion source compatibility).
    pub fn finish(&mut self) {}
}

/// Hands the measured closure to the harness (mirrors
/// `criterion::Bencher`).
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    /// Per-iteration seconds, one entry per timed batch.
    measurements: Vec<f64>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Self {
            samples,
            measurements: Vec::new(),
        }
    }

    /// Measures `routine`.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // Smoke mode: a fixed tiny sample count, one iteration per sample,
        // no warm-up — CI only checks that the benchmark still runs.
        if let Some(samples) = smoke_samples() {
            self.measurements.clear();
            for _ in 0..samples {
                let start = Instant::now();
                black_box(routine());
                self.measurements.push(start.elapsed().as_secs_f64());
            }
            return;
        }
        // Warm-up + batch-size calibration: grow until one batch costs
        // >= ~1 ms (or a growth cap for very slow routines).
        let mut batch = 1u64;
        let batch = loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(1) || batch >= 1 << 20 {
                break batch;
            }
            batch *= 2;
        };
        self.measurements.clear();
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.measurements
                .push(start.elapsed().as_secs_f64() / batch as f64);
        }
    }

    fn report(&self, group: &str, id: &str, throughput: Option<Throughput>) {
        if self.measurements.is_empty() {
            println!("  {group}/{id}: no measurements");
            return;
        }
        let mut sorted = self.measurements.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let line = format!(
            "  {group}/{id}: median {} (min {}, max {}, {} samples)",
            format_time(median),
            format_time(sorted[0]),
            format_time(*sorted.last().unwrap()),
            sorted.len(),
        );
        match throughput {
            Some(Throughput::Bytes(bytes)) => {
                println!("{line} [{}]", format_rate(bytes as f64 / median, "B"));
            }
            Some(Throughput::Elements(n)) => {
                println!("{line} [{}]", format_rate(n as f64 / median, "elem"));
            }
            None => println!("{line}"),
        }
        self.append_json(group, id, median, sorted[0], *sorted.last().unwrap());
    }

    /// Appends this benchmark's result as one JSON line to the
    /// `SEGRAM_BENCH_JSON` artifact, when requested. Failures are
    /// reported but never fail the benchmark itself.
    fn append_json(&self, group: &str, id: &str, median: f64, min: f64, max: f64) {
        let Ok(path) = std::env::var("SEGRAM_BENCH_JSON") else {
            return;
        };
        let line = format!(
            "{{\"group\":{group:?},\"id\":{id:?},\"median_s\":{median:e},\
             \"min_s\":{min:e},\"max_s\":{max:e},\"samples\":{}}}",
            self.measurements.len()
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(err) = appended {
            eprintln!("SEGRAM_BENCH_JSON: cannot append to {path}: {err}");
        }
    }
}

fn format_time(seconds: f64) -> String {
    if seconds < 1e-6 {
        format!("{:.1} ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.2} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{seconds:.3} s")
    }
}

/// Formats a per-second rate with the SI prefix that keeps its leading
/// digits visible: ~70 reads/s prints as `70.0 elem/s`, not `0.00 Melem/s`.
fn format_rate(per_second: f64, unit: &str) -> String {
    let (scaled, prefix) = if per_second >= 1e9 {
        (per_second / 1e9, "G")
    } else if per_second >= 1e6 {
        (per_second / 1e6, "M")
    } else if per_second >= 1e3 {
        (per_second / 1e3, "K")
    } else {
        (per_second, "")
    };
    format!("{scaled:.1} {prefix}{unit}/s")
}

/// Declares a group of benchmark functions (mirrors criterion's macro;
/// only the positional `criterion_group!(name, target, ...)` form is
/// supported).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::bench::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main` (mirrors criterion's macro).
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

    #[test]
    fn bencher_measures_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("testkit_selftest");
        group.sample_size(3);
        group.throughput(Throughput::Bytes(1024));
        let mut runs = 0u64;
        group.bench_function("noop", |b| b.iter(|| runs = runs.wrapping_add(1)));
        group.bench_with_input(BenchmarkId::new("sum", 64), &64u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
        assert!(runs > 0);
    }

    #[test]
    fn smoke_mode_writes_json_artifact() {
        let path =
            std::env::temp_dir().join(format!("segram_bench_smoke_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::env::set_var("SEGRAM_BENCH_SAMPLES", "2");
        std::env::set_var("SEGRAM_BENCH_JSON", &path);
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("json_selftest");
        let mut runs = 0u64;
        group.bench_function("noop", |b| b.iter(|| runs = runs.wrapping_add(1)));
        group.finish();
        std::env::remove_var("SEGRAM_BENCH_SAMPLES");
        std::env::remove_var("SEGRAM_BENCH_JSON");
        // Smoke mode ran exactly the requested samples (no calibration).
        assert_eq!(runs, 2);
        let artifact = std::fs::read_to_string(&path).expect("artifact written");
        let line = artifact
            .lines()
            .find(|l| l.contains("\"group\":\"json_selftest\""))
            .expect("selftest line present");
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"samples\":2"), "{line}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn format_time_picks_units() {
        assert!(format_time(5e-9).ends_with("ns"));
        assert!(format_time(5e-6).ends_with("µs"));
        assert!(format_time(5e-3).ends_with("ms"));
        assert!(format_time(5.0).ends_with(" s"));
    }

    #[test]
    fn format_rate_keeps_the_digits_visible() {
        assert_eq!(format_rate(70.0, "elem"), "70.0 elem/s");
        assert_eq!(format_rate(0.5, "elem"), "0.5 elem/s");
        assert_eq!(format_rate(12_345.0, "elem"), "12.3 Kelem/s");
        assert_eq!(format_rate(2.5e6, "elem"), "2.5 Melem/s");
        assert_eq!(format_rate(1024.0 * 1024.0, "B"), "1.0 MB/s");
        assert_eq!(format_rate(3.2e9, "B"), "3.2 GB/s");
    }
}
