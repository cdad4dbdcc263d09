//! # stm-bench
//!
//! Criterion benchmarks for the SwissTM reproduction.
//!
//! Two bench targets exist:
//!
//! * `paper_figures` — one benchmark group per figure/table of the paper,
//!   each measuring the corresponding workload/STM combination through the
//!   same [`stm_harness::runner`] code the `repro` binary uses (with small
//!   data points, so `cargo bench` completes in minutes).
//! * `stm_primitives` — microbenchmarks of the raw STM operations (read,
//!   write, commit) across the four algorithms, useful for tracking
//!   single-thread overheads (the effect visible in the paper's Figure 5 at
//!   one thread).
//!
//! This crate's library part only re-exports the helpers shared by the two
//! bench targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use stm_harness::runner::RunOptions;

/// Run options used by the Criterion benches: single-digit-millisecond data
/// points so the full suite stays fast.
pub fn bench_options(threads: usize) -> RunOptions {
    RunOptions {
        max_threads: threads,
        point_duration: Duration::from_millis(25),
        lock_table_log2: 14,
        seed: 0xbe7c,
        ..RunOptions::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_options_are_small() {
        let options = bench_options(2);
        assert_eq!(options.max_threads, 2);
        assert!(options.point_duration < Duration::from_millis(100));
    }
}
