//! # stm-bench
//!
//! Criterion benchmarks for the SwissTM reproduction: one bench target,
//! `stm_primitives` — microbenchmarks of the raw STM operations (read,
//! write, commit) across the four algorithms, useful for tracking
//! single-thread overheads (the effect visible in the paper's Figure 5 at
//! one thread). The paper's figures themselves are `repro`'s
//! (`stm-harness`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
