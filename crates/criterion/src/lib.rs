//! Minimal, API-compatible stand-in for the `criterion` benchmark harness.
//!
//! This container cannot reach crates.io, so the workspace vendors the small
//! subset of criterion's API that the `stm-bench` targets use:
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`], [`BenchmarkId`],
//! [`criterion_group!`] and [`criterion_main!`].
//!
//! Semantics:
//!
//! * **Bench mode** (`cargo bench`): each benchmark is warmed up for
//!   `warm_up_time`, then timed for up to `sample_size` iterations or
//!   `measurement_time`, whichever is hit first, and a
//!   `name  time: [mean per-iter]` line is printed.
//! * **Test mode** (`cargo bench -- --test`, or the `--test` flag cargo
//!   passes when running bench targets under `cargo test`): each benchmark
//!   body runs exactly once and is reported as `ok` — a smoke run.
//!
//! Command-line filters (positional args) restrict which benchmark IDs run,
//! matching criterion's substring-filter behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier of one benchmark within a group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A two-part id: `function_name/parameter`.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id consisting only of a parameter value.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Timing loop handle passed to benchmark bodies.
pub struct Bencher<'a> {
    mode: Mode,
    warm_up_time: Duration,
    measurement_time: Duration,
    sample_size: usize,
    result: &'a mut Option<Sample>,
}

#[derive(Clone, Copy, Debug)]
struct Sample {
    iterations: u64,
    total: Duration,
}

impl Bencher<'_> {
    /// Runs `routine` repeatedly and records its mean execution time. In
    /// test mode the routine runs exactly once.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.mode == Mode::Test {
            black_box(routine());
            *self.result = Some(Sample {
                iterations: 1,
                total: Duration::ZERO,
            });
            return;
        }
        let warm_up_end = Instant::now() + self.warm_up_time;
        while Instant::now() < warm_up_end {
            black_box(routine());
        }
        let mut iterations = 0u64;
        let started = Instant::now();
        let deadline = started + self.measurement_time;
        while iterations < self.sample_size as u64 && Instant::now() < deadline {
            black_box(routine());
            iterations += 1;
        }
        if iterations == 0 {
            black_box(routine());
            iterations = 1;
        }
        *self.result = Some(Sample {
            iterations,
            total: started.elapsed(),
        });
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Bench,
    Test,
}

/// The benchmark harness: parses the command line and owns global settings.
pub struct Criterion {
    mode: Mode,
    filters: Vec<String>,
    executed: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            mode: Mode::Bench,
            filters: Vec::new(),
            executed: 0,
        }
    }
}

impl Criterion {
    /// Builds a harness from `std::env::args`, understanding `--test` (smoke
    /// mode), ignoring harness flags cargo passes (`--bench`, `--nocapture`,
    /// `--quiet`, `--verbose`) and treating positional args as substring
    /// filters.
    pub fn from_args() -> Self {
        let mut c = Criterion::default();
        let mut args = std::env::args().skip(1).peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--test" => c.mode = Mode::Test,
                "--bench" | "--nocapture" | "--quiet" | "--verbose" | "--noplot" | "--exact" => {}
                "--save-baseline" | "--baseline" | "--measurement-time" | "--warm-up-time"
                | "--sample-size" | "--profile-time" => {
                    // Flags with a value: consume and ignore it.
                    let _ = args.next();
                }
                flag if flag.starts_with("--") => {}
                filter => c.filters.push(filter.to_string()),
            }
        }
        c
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group<S: Into<String>>(&mut self, group_name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: group_name.into(),
            sample_size: 100,
            warm_up_time: Duration::from_secs(3),
            measurement_time: Duration::from_secs(5),
        }
    }

    /// Prints the end-of-run summary (invoked by [`criterion_main!`]).
    pub fn final_summary(&self) {
        match self.mode {
            Mode::Test => println!(
                "\ntest result: ok. {} benchmarks smoke-tested",
                self.executed
            ),
            Mode::Bench => println!("\ncompleted {} benchmarks", self.executed),
        }
    }

    fn matches(&self, id: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| id.contains(f.as_str()))
    }
}

/// A group of related benchmarks sharing settings; mirrors criterion's
/// `BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the target number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Sets the warm-up duration.
    pub fn warm_up_time(&mut self, dur: Duration) -> &mut Self {
        self.warm_up_time = dur;
        self
    }

    /// Sets the measurement-time budget.
    pub fn measurement_time(&mut self, dur: Duration) -> &mut Self {
        self.measurement_time = dur;
        self
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function<F>(&mut self, id: BenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        self.run(id, &mut f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}

    fn run(&mut self, id: BenchmarkId, f: &mut dyn FnMut(&mut Bencher<'_>)) {
        let full_id = format!("{}/{}", self.name, id.id);
        if !self.criterion.matches(&full_id) {
            return;
        }
        let mode = self.criterion.mode;
        if mode == Mode::Test {
            print!("Testing {full_id} ... ");
        } else {
            print!("Benchmarking {full_id} ... ");
        }
        let mut result = None;
        let mut bencher = Bencher {
            mode,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            sample_size: self.sample_size,
            result: &mut result,
        };
        f(&mut bencher);
        self.criterion.executed += 1;
        match (mode, result) {
            (Mode::Test, _) => println!("ok"),
            (Mode::Bench, Some(sample)) => {
                let mean = sample.total.as_secs_f64() / sample.iterations as f64;
                println!(
                    "time: [{} per iter over {} iters]",
                    format_time(mean),
                    sample.iterations
                );
            }
            (Mode::Bench, None) => println!("skipped (body never called Bencher::iter)"),
        }
    }
}

/// Formats a duration in seconds with an adaptive unit, criterion-style.
fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.3} ns", seconds * 1e9)
    }
}

/// Declares a function running a list of benchmark functions in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(criterion: &mut $crate::Criterion) {
            $( $target(criterion); )+
        }
    };
}

/// Declares `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::from_args();
            $( $group(&mut criterion); )+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("lee", "SwissTM").id, "lee/SwissTM");
        assert_eq!(BenchmarkId::from_parameter(42).id, "42");
    }

    #[test]
    fn test_mode_runs_each_body_once() {
        let mut c = Criterion {
            mode: Mode::Test,
            filters: Vec::new(),
            executed: 0,
        };
        let mut calls = 0;
        {
            let mut group = c.benchmark_group("g");
            group.bench_function(BenchmarkId::from_parameter("once"), |b| {
                b.iter(|| calls += 1)
            });
            group.finish();
        }
        assert_eq!(calls, 1);
        assert_eq!(c.executed, 1);
    }

    #[test]
    fn filters_select_by_substring() {
        let mut c = Criterion {
            mode: Mode::Test,
            filters: vec!["keep".into()],
            executed: 0,
        };
        let mut kept = 0;
        let mut dropped = 0;
        {
            let mut group = c.benchmark_group("g");
            group.bench_function(BenchmarkId::from_parameter("keep_me"), |b| {
                b.iter(|| kept += 1)
            });
            group.bench_function(BenchmarkId::from_parameter("skip_me"), |b| {
                b.iter(|| dropped += 1)
            });
            group.finish();
        }
        assert_eq!((kept, dropped), (1, 0));
    }

    #[test]
    fn bench_mode_times_iterations() {
        let mut c = Criterion {
            mode: Mode::Bench,
            filters: Vec::new(),
            executed: 0,
        };
        let mut calls = 0u64;
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(5);
            group.warm_up_time(Duration::from_millis(1));
            group.measurement_time(Duration::from_millis(50));
            group.bench_function(BenchmarkId::from_parameter("count"), |b| {
                b.iter(|| calls += 3)
            });
            group.finish();
        }
        assert!(
            calls >= 5 * 3,
            "expected at least the sample-size iterations"
        );
    }

    #[test]
    fn times_are_printed_in_an_adaptive_unit() {
        assert_eq!(format_time(2.0), "2.000 s");
        assert_eq!(format_time(0.0015), "1.500 ms");
        assert_eq!(format_time(2.5e-6), "2.500 µs");
        assert_eq!(format_time(3e-9), "3.000 ns");
        assert_eq!(format_time(0.0), "0.000 ns");
    }

    #[test]
    fn filters_match_the_group_qualified_id() {
        let mut c = Criterion {
            mode: Mode::Test,
            filters: vec!["fig3/".into()],
            executed: 0,
        };
        let mut ran = Vec::new();
        for group_name in ["fig3", "fig4"] {
            let mut group = c.benchmark_group(group_name);
            group.bench_function(BenchmarkId::new("genome", "TL2"), |b| {
                b.iter(|| ran.push(group_name))
            });
            group.finish();
        }
        assert_eq!(ran, ["fig3"]);
        assert_eq!(c.executed, 1);
    }
}
