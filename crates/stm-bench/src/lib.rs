//! # stm-bench
//!
//! Criterion benchmarks for the SwissTM reproduction.
//!
//! Two bench targets exist:
//!
//! * `paper_figures` — one benchmark group per fixed-work figure of the
//!   paper (STAMP, Lee-TM), each timing the corresponding workload/STM
//!   combination through the same [`stm_harness::runner`] code the `repro`
//!   binary uses. The throughput figures (STMBench7, red-black tree) run
//!   for a fixed window, which a timer would only measure back; `repro`
//!   prints them.
//! * `stm_primitives` — microbenchmarks of the raw STM operations (read,
//!   write, commit) across the four algorithms, useful for tracking
//!   single-thread overheads (the effect visible in the paper's Figure 5 at
//!   one thread).
//!
//! This crate's library part holds the `paper_figures` run options.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use stm_harness::runner::RunOptions;

/// Run options used by the `paper_figures` benches: the quick profile's
/// datasets on a smaller lock table.
pub fn bench_options(threads: usize) -> RunOptions {
    RunOptions {
        max_threads: threads,
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
    }

    #[test]
    fn bench_options_keep_the_quick_datasets_on_a_smaller_table() {
        let options = bench_options(3);
        let quick = RunOptions::quick();
        assert_eq!(options.profile, quick.profile);
        assert_eq!(options.heap_words, quick.heap_words);
        assert_eq!(options.lock_table_log2, 14);
        assert!(options.lock_table_log2 < quick.lock_table_log2);
        assert_eq!(options.thread_counts(), vec![1, 2, 3]);
    }
}
