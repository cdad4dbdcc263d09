//! # stm-harness
//!
//! The experiment harness that regenerates every figure and table of the
//! SwissTM paper's evaluation (Sections 4 and 5). Each experiment is a
//! function in [`experiments`] returning a [`table::Table`] whose rows and
//! series mirror the corresponding figure; the `repro` binary prints them.
//!
//! The harness is deliberately configuration-driven ([`runner::RunOptions`])
//! so the same code produces a quick smoke run (seconds per data point,
//! used in CI), the paper's full sweep, and a huge paper-scale-and-beyond
//! profile. [`shapes`] adds machine-checkable assertions on the *shape* of
//! the headline figures (who dominates beyond two threads), exposed through
//! `repro --check-shapes`. [`contention`] adds the contention-telemetry
//! profiles (wait/back-off shares, CM resolution counts, inflicted/received
//! remote aborts), exposed through `repro contention`. [`bench7_ops`] times
//! every STMBench7 operation kind on one thread, on each benchmark subject
//! and on a lock-free reference (`repro bench7-ops`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench7_ops;
pub mod contention;
pub mod experiments;
pub mod runner;
pub mod shapes;
pub mod table;
