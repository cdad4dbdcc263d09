//! # stm-workloads
//!
//! The benchmark workloads used by the SwissTM paper's evaluation,
//! reimplemented on top of the [`stm_core::tm::TmAlgorithm`] interface so
//! that every workload runs unchanged on SwissTM, TL2, TinySTM and RSTM:
//!
//! * [`rbtree`] — the red-black tree microbenchmark (paper Figure 5, 10),
//! * [`stmbench7`] — the STMBench7-style CAD object graph with its
//!   read-dominated / read-write / write-dominated operation mixes
//!   (Figures 2, 7, 9, 12 and Table 1),
//! * [`lee`] — the Lee-TM circuit router with the paper's "memory" and
//!   "mainboard" style inputs and the *irregular* variant with a hot shared
//!   word (Figures 4 and 8),
//! * [`stamp`] — reimplementations of the ten STAMP workloads (Figures 3
//!   and 11),
//! * [`structures`] — the transactional data structures (red-black tree,
//!   sorted list, hash map, queue) the workloads are built from,
//! * [`driver`] — the multi-threaded measurement driver shared by the
//!   experiment harness and the Criterion benches,
//! * [`profile`] — the `quick` / `full` / `huge` size profiles every
//!   workload family states its dataset geometry for.
//!
//! All workloads are deterministic given a seed, so experiment tables are
//! reproducible run to run (modulo thread interleaving).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod lee;
pub mod profile;
pub mod rbtree;
pub mod stamp;
pub mod stmbench7;
pub mod structures;

pub use driver::{run_workload, RunLength, RunResult, Workload};
pub use profile::SizeProfile;
