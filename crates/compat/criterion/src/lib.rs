//! Minimal, offline stand-in for the subset of the [`criterion`] benchmark
//! harness this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace renames
//! this crate onto the `criterion` dependency key (see the root
//! `Cargo.toml`). The shim keeps the bench sources unchanged and preserves
//! criterion's two execution modes:
//!
//! * **`cargo bench`** passes `--bench` to each harness; the shim then
//!   warms up each benchmark and reports the mean wall-clock time per
//!   iteration over the configured measurement window.
//! * **`cargo test`** runs the harness with no arguments; the shim detects
//!   this and executes every benchmark body exactly once, so the tier-1
//!   verify smoke-tests the benches without paying measurement time.
//!
//! There are no statistics beyond the mean, no plots, and no saved
//! baselines — this is a timing loop, not a measurement lab. Swap in the
//! real criterion (root `Cargo.toml`) for publishable numbers.
//!
//! [`criterion`]: https://docs.rs/criterion
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How work is counted for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The benchmark processes this many logical elements per iteration.
    Elements(u64),
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id combining a function name and a parameter, rendered `name/param`.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{name}/{parameter}"),
        }
    }

    /// An id that is just the parameter, for groups benching one function at
    /// several parameter values.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Drives the timing loop of a single benchmark.
#[derive(Debug)]
pub struct Bencher<'a> {
    mode: Mode,
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    result: &'a mut Option<Sample>,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    iterations: u64,
    total: Duration,
}

impl Bencher<'_> {
    /// Calls `routine` repeatedly and records its mean wall-clock time. In
    /// test mode the routine runs exactly once.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        match self.mode {
            Mode::Test => {
                let start = Instant::now();
                black_box(routine());
                *self.result = Some(Sample {
                    iterations: 1,
                    total: start.elapsed(),
                });
            }
            Mode::Bench => {
                let warm_deadline = Instant::now() + self.warm_up;
                while Instant::now() < warm_deadline {
                    black_box(routine());
                }
                let mut iterations = 0u64;
                let start = Instant::now();
                let deadline = start + self.measurement;
                while iterations < self.sample_size as u64 || Instant::now() < deadline {
                    black_box(routine());
                    iterations += 1;
                }
                *self.result = Some(Sample {
                    iterations,
                    total: start.elapsed(),
                });
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `cargo bench`: warm up and measure.
    Bench,
    /// `cargo test`: run each routine once as a smoke test.
    Test,
}

/// The benchmark manager; the entry point mirrors `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    mode: Mode,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { mode: Mode::Test }
    }
}

impl Criterion {
    /// Builds a manager from the process arguments, as `criterion_main!`
    /// does: `--bench` (passed by `cargo bench`) selects measurement mode,
    /// anything else (including `cargo test`, which passes no flag) selects
    /// single-pass smoke mode.
    pub fn from_args() -> Self {
        let bench = std::env::args().any(|a| a == "--bench");
        Criterion {
            mode: if bench { Mode::Bench } else { Mode::Test },
        }
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            mode: self.mode,
            warm_up: Duration::from_secs(3),
            measurement: Duration::from_secs(5),
            sample_size: 100,
            throughput: None,
            _criterion: std::marker::PhantomData,
        }
    }
}

/// A group of benchmarks sharing a name prefix and timing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    mode: Mode,
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: std::marker::PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    /// Sets the warm-up duration used before measuring.
    pub fn warm_up_time(&mut self, duration: Duration) -> &mut Self {
        self.warm_up = duration;
        self
    }

    /// Sets the measurement window.
    pub fn measurement_time(&mut self, duration: Duration) -> &mut Self {
        self.measurement = duration;
        self
    }

    /// Sets the minimum number of iterations per measurement.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples;
        self
    }

    /// Declares the per-iteration throughput of subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs the benchmark `id` with the timing loop provided to `routine`.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let mut result = None;
        let mut bencher = Bencher {
            mode: self.mode,
            warm_up: self.warm_up,
            measurement: self.measurement,
            sample_size: self.sample_size,
            result: &mut result,
        };
        routine(&mut bencher);
        self.report(&id.to_string(), result);
        self
    }

    /// Runs the benchmark `id`, handing `input` through to `routine`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        self.bench_function(id, |b| routine(b, input))
    }

    /// Ends the group (kept for API compatibility; reporting is per-bench).
    pub fn finish(self) {}

    fn report(&self, id: &str, sample: Option<Sample>) {
        let Some(sample) = sample else {
            println!(
                "{}/{id}: no measurement (routine never called iter)",
                self.name
            );
            return;
        };
        let mean = sample.total.as_secs_f64() / sample.iterations as f64;
        let label = match self.mode {
            Mode::Test => "smoke-tested",
            Mode::Bench => "time",
        };
        let mut line = format!(
            "{}/{id}: {label} {} over {} iteration(s)",
            self.name,
            format_seconds(mean),
            sample.iterations
        );
        if let (Mode::Bench, Some(tp)) = (self.mode, self.throughput) {
            let per_second = match tp {
                Throughput::Elements(n) => format!(
                    "{:.3e} elem/s, {:.1} ns/elem",
                    n as f64 / mean,
                    mean * 1e9 / n as f64
                ),
                Throughput::Bytes(n) => format!("{:.3e} B/s", n as f64 / mean),
            };
            line.push_str(&format!(" ({per_second})"));
        }
        println!("{line}");
    }
}

fn format_seconds(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Bundles benchmark functions into a group runner, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(criterion: &mut $crate::Criterion) {
            $( $target(criterion); )+
        }
    };
}

/// Generates the harness `main`, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::from_args();
            $( $group(&mut criterion); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_criterion() -> Criterion {
        Criterion { mode: Mode::Test }
    }

    #[test]
    fn bench_function_runs_routine_once_in_test_mode() {
        let mut criterion = smoke_criterion();
        let mut group = criterion.benchmark_group("g");
        let mut calls = 0u32;
        group.bench_function("f", |b| b.iter(|| calls += 1));
        group.finish();
        assert_eq!(calls, 1);
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut criterion = smoke_criterion();
        let mut group = criterion.benchmark_group("g");
        let mut seen = 0u64;
        group.sample_size(10).throughput(Throughput::Elements(3));
        group.bench_with_input(BenchmarkId::from_parameter(7u64), &7u64, |b, &n| {
            b.iter(|| seen = n)
        });
        group.finish();
        assert_eq!(seen, 7);
    }

    #[test]
    fn bench_mode_honours_sample_size() {
        let mut criterion = Criterion { mode: Mode::Bench };
        let mut group = criterion.benchmark_group("g");
        group
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(1))
            .sample_size(5);
        let mut calls = 0u32;
        group.bench_function("f", |b| b.iter(|| calls += 1));
        group.finish();
        assert!(
            calls >= 5,
            "expected at least sample_size calls, got {calls}"
        );
    }

    #[test]
    fn benchmark_ids_render() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("p_0.6").to_string(), "p_0.6");
    }

    #[test]
    fn seconds_formatting_picks_sane_units() {
        assert!(format_seconds(2.5).ends_with(" s"));
        assert!(format_seconds(2.5e-3).ends_with(" ms"));
        assert!(format_seconds(2.5e-6).ends_with(" µs"));
        assert!(format_seconds(2.5e-9).ends_with(" ns"));
    }
}
