//! Construction of STM instances and execution of a single experiment data
//! point.
//!
//! The workloads are generic over [`stm_core::tm::TmAlgorithm`] (static
//! dispatch); the harness therefore enumerates the STM configurations it
//! needs as [`StmVariant`] values and matches on them to instantiate the
//! right concrete type.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use rstm::{Rstm, RstmVariant};
use stm_core::backoff::FastRng;
use stm_core::cm::{CmHandle, Greedy, Polka, Serializer, Timid, TwoPhase};
use stm_core::config::{ClockMode, HeapConfig, LockTableConfig, StmConfig, TableLayout};
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_workloads::driver::{run_workload_spec, RunLength, RunResult, RunSpec, Workload};
use stm_workloads::lee::{LeeBoard, LeeConfig, LeeWorkload};
use stm_workloads::profile::SizeProfile;
use stm_workloads::rbtree::{RbTreeConfig, RbTreeWorkload};
use stm_workloads::stamp::StampApp;
use stm_workloads::stmbench7::{Bench7Config, Bench7Data, Bench7Workload, WorkloadMix};
use swisstm::SwissTm;
use tinystm::TinyStm;
use tl2::Tl2;

/// Contention managers the harness can plug into an STM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmChoice {
    /// The STM's own default manager.
    Default,
    /// Timid (abort self, no back-off).
    Timid,
    /// Greedy.
    Greedy,
    /// Serializer.
    Serializer,
    /// Polka.
    Polka,
    /// The paper's two-phase manager.
    TwoPhase,
    /// Two-phase without post-abort back-off (Figure 11's "no backoff").
    TwoPhaseNoBackoff,
}

impl CmChoice {
    fn build(self) -> Option<CmHandle> {
        match self {
            CmChoice::Default => None,
            CmChoice::Timid => Some(Arc::new(Timid::new())),
            CmChoice::Greedy => Some(Arc::new(Greedy::new())),
            CmChoice::Serializer => Some(Arc::new(Serializer::new())),
            CmChoice::Polka => Some(Arc::new(Polka::new())),
            CmChoice::TwoPhase => Some(Arc::new(TwoPhase::new())),
            CmChoice::TwoPhaseNoBackoff => Some(Arc::new(TwoPhase::new().without_backoff())),
        }
    }

    /// Label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            CmChoice::Default => "default",
            CmChoice::Timid => "timid",
            CmChoice::Greedy => "greedy",
            CmChoice::Serializer => "serializer",
            CmChoice::Polka => "polka",
            CmChoice::TwoPhase => "two-phase",
            CmChoice::TwoPhaseNoBackoff => "no-backoff",
        }
    }
}

/// A fully specified STM configuration for one experiment series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StmVariant {
    /// SwissTM with the given contention manager.
    Swiss(CmChoice),
    /// TL2 with the given contention manager.
    Tl2(CmChoice),
    /// TinySTM with the given contention manager.
    Tiny(CmChoice),
    /// RSTM with the given algorithm variant and contention manager.
    Rstm(RstmVariant, CmChoice),
}

impl StmVariant {
    /// The paper's default configuration of each system.
    pub fn paper_defaults() -> [StmVariant; 4] {
        [
            StmVariant::Swiss(CmChoice::Default),
            StmVariant::Tiny(CmChoice::Default),
            StmVariant::Rstm(RstmVariant::eager_invisible(), CmChoice::Default),
            StmVariant::Tl2(CmChoice::Default),
        ]
    }

    /// Series label used in tables.
    pub fn label(&self) -> String {
        match self {
            StmVariant::Swiss(CmChoice::Default) => "SwissTM".into(),
            StmVariant::Swiss(cm) => format!("SwissTM[{}]", cm.label()),
            StmVariant::Tl2(CmChoice::Default) => "TL2".into(),
            StmVariant::Tl2(cm) => format!("TL2[{}]", cm.label()),
            StmVariant::Tiny(CmChoice::Default) => "TinySTM".into(),
            StmVariant::Tiny(cm) => format!("TinySTM[{}]", cm.label()),
            StmVariant::Rstm(variant, CmChoice::Default) => format!("RSTM[{}]", variant.label()),
            StmVariant::Rstm(variant, cm) => {
                format!("RSTM[{},{}]", variant.label(), cm.label())
            }
        }
    }
}

/// Global options for one experiment invocation.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Thread counts to sweep (each becomes one column/row of the figure).
    pub max_threads: usize,
    /// Wall-clock duration per throughput data point.
    pub point_duration: Duration,
    /// Heap size used by STM instances.
    pub heap_words: usize,
    /// Lock-table entries (log2).
    pub lock_table_log2: u32,
    /// Stripe granularity override (log2 words per stripe).
    pub grain_shift: u32,
    /// Commit-clock mode (strict counter vs deferred GV5-style clock).
    pub clock: ClockMode,
    /// Lock-table memory layout (flat vs padded entries, optional index
    /// mixing).
    pub table_layout: TableLayout,
    /// Workload size profile: every benchmark family states its dataset
    /// geometry and fixed work amount per profile (see
    /// [`stm_workloads::profile`]).
    pub profile: SizeProfile,
    /// Seed for workload construction and operation streams.
    pub seed: u64,
}

impl RunOptions {
    /// Quick options: small data points suitable for smoke tests and CI.
    pub fn quick() -> Self {
        RunOptions {
            max_threads: 4,
            point_duration: Duration::from_millis(150),
            heap_words: 1 << 21,
            lock_table_log2: 16,
            grain_shift: 1,
            clock: ClockMode::Strict,
            table_layout: TableLayout::Flat,
            profile: SizeProfile::Quick,
            seed: 0x5715,
        }
    }

    /// Full options: the paper's 1–8 thread sweep with one-second data
    /// points and the full-profile dataset geometry.
    pub fn full() -> Self {
        RunOptions {
            max_threads: 8,
            point_duration: Duration::from_millis(1_000),
            heap_words: 1 << 24,
            lock_table_log2: 20,
            profile: SizeProfile::Full,
            ..RunOptions::quick()
        }
    }

    /// Huge options: paper-scale-and-beyond datasets with two-second data
    /// points, for dedicated runs of individual figures.
    pub fn huge() -> Self {
        RunOptions {
            max_threads: 8,
            point_duration: Duration::from_millis(2_000),
            heap_words: 1 << 26,
            lock_table_log2: 22,
            profile: SizeProfile::Huge,
            ..RunOptions::quick()
        }
    }

    /// The thread counts swept by figure-style experiments.
    pub fn thread_counts(&self) -> Vec<usize> {
        (1..=self.max_threads).collect()
    }

    /// The STM configuration derived from these options.
    pub fn stm_config(&self) -> StmConfig {
        StmConfig {
            heap: HeapConfig::with_words(self.heap_words),
            lock_table: LockTableConfig {
                log2_entries: self.lock_table_log2,
                grain_shift: self.grain_shift,
                layout: self.table_layout,
            },
            clock: self.clock,
        }
    }

    /// Returns a copy with a different stripe granularity.
    pub fn with_grain_shift(mut self, grain_shift: u32) -> Self {
        self.grain_shift = grain_shift;
        self
    }

    /// Returns a copy with a different commit-clock mode.
    pub fn with_clock(mut self, clock: ClockMode) -> Self {
        self.clock = clock;
        self
    }

    /// Returns a copy with a different lock-table layout.
    pub fn with_table_layout(mut self, table_layout: TableLayout) -> Self {
        self.table_layout = table_layout;
        self
    }
}

/// Which benchmark a data point runs.
#[derive(Clone, Debug)]
pub enum Benchmark {
    /// STMBench7 with a workload mix (throughput measurement).
    Bench7(WorkloadMix),
    /// The red-black tree microbenchmark (throughput measurement).
    RbTree(RbTreeConfig),
    /// The red-black tree microbenchmark with one private tree per thread,
    /// all in one STM instance: the threads share the clock, the lock
    /// table and the allocator but no data (`repro sharing`).
    RbTreeDisjoint(RbTreeConfig),
    /// Lee-TM routing with a board configuration (execution-time
    /// measurement over the whole netlist).
    Lee(LeeConfig),
    /// A STAMP application (execution-time measurement over a fixed number
    /// of operations).
    Stamp(StampApp),
}

impl Benchmark {
    /// Short name used in tables.
    pub fn label(&self) -> String {
        match self {
            Benchmark::Bench7(mix) => format!("stmbench7-{}", mix.name),
            Benchmark::RbTree(_) => "red-black tree".into(),
            Benchmark::RbTreeDisjoint(_) => "red-black tree (one per thread)".into(),
            Benchmark::Lee(config) => match config.board {
                LeeBoard::Main => "lee-main".into(),
                LeeBoard::Memory => "lee-memory".into(),
                LeeBoard::Test => "lee-test".into(),
            },
            Benchmark::Stamp(app) => app.label().into(),
        }
    }
}

thread_local! {
    /// The tree the calling worker of a [`DisjointTrees`] run operates on.
    static OWN_TREE: Cell<usize> = const { Cell::new(0) };
}

/// [`Benchmark::RbTreeDisjoint`]: worker `i` runs the red-black tree
/// operation mix on tree `i` and touches no other.
struct DisjointTrees {
    trees: Vec<Arc<RbTreeWorkload>>,
}

impl<A: TmAlgorithm> Workload<A> for DisjointTrees {
    fn execute(&self, ctx: &mut ThreadContext<A>, rng: &mut FastRng, op_index: u64) {
        self.trees[OWN_TREE.get()].execute(ctx, rng, op_index);
    }

    fn name(&self) -> String {
        format!("{} disjoint red-black trees", self.trees.len())
    }

    fn check(&self, ctx: &mut ThreadContext<A>) -> bool {
        self.trees.iter().all(|tree| tree.check(ctx))
    }

    fn on_thread_start(&self, thread_index: usize) {
        OWN_TREE.set(thread_index);
    }
}

/// The fully threaded run specification for one data point: the driver
/// records the spec's seed/clock/layout into the [`RunResult`] so every
/// snapshot point is self-describing.
fn run_spec(threads: usize, length: RunLength, options: &RunOptions) -> RunSpec {
    RunSpec::new(threads, length, options.seed)
        .with_clock(options.clock)
        .with_table_layout(options.table_layout)
}

/// Builds `benchmark`'s data on `stm` and runs one data point; for the
/// subjects that are not a [`StmVariant`] (the shape checks' references).
pub(crate) fn build_workload_and_run<A>(
    stm: Arc<A>,
    benchmark: &Benchmark,
    threads: usize,
    options: &RunOptions,
) -> RunResult
where
    A: TmAlgorithm,
{
    match benchmark {
        Benchmark::Bench7(mix) => {
            let data = Bench7Data::build(
                &stm,
                Bench7Config::for_profile(options.profile),
                options.seed,
            );
            let workload: Arc<dyn Workload<A>> = Arc::new(Bench7Workload::new(data, *mix));
            run_workload_spec(
                stm,
                workload,
                &run_spec(
                    threads,
                    RunLength::Duration(options.point_duration),
                    options,
                ),
            )
        }
        Benchmark::RbTree(config) => {
            let workload = RbTreeWorkload::setup(&stm, *config, options.seed);
            run_workload_spec(
                stm,
                workload,
                &run_spec(
                    threads,
                    RunLength::Duration(options.point_duration),
                    options,
                ),
            )
        }
        Benchmark::RbTreeDisjoint(config) => {
            let trees = (0..threads as u64)
                .map(|tree| RbTreeWorkload::setup(&stm, *config, options.seed + tree))
                .collect();
            run_workload_spec(
                stm,
                Arc::new(DisjointTrees { trees }),
                &run_spec(
                    threads,
                    RunLength::Duration(options.point_duration),
                    options,
                ),
            )
        }
        Benchmark::Lee(config) => {
            let workload = LeeWorkload::setup(&stm, *config, options.seed);
            run_workload_spec(
                stm,
                workload,
                &run_spec(threads, RunLength::TotalOps(config.routes as u64), options),
            )
        }
        Benchmark::Stamp(app) => {
            let workload = app.build_at(&stm, options.seed, options.profile);
            let ops = app.ops_at(options.profile);
            run_workload_spec(
                stm,
                workload,
                &run_spec(threads, RunLength::TotalOps(ops), options),
            )
        }
    }
}

/// Runs one data point: `benchmark` on `variant` with `threads` threads.
///
/// Every measurement of the harness funnels through here, so this is also
/// where the perf-snapshot recorder taps in: when armed (see
/// [`crate::snapshot::arm_recorder`]) the result is additionally captured
/// as a [`crate::snapshot::SnapshotPoint`].
pub fn run_point(
    variant: StmVariant,
    benchmark: &Benchmark,
    threads: usize,
    options: &RunOptions,
) -> RunResult {
    let result = run_point_unrecorded(variant, benchmark, threads, options);
    if crate::snapshot::recorder_armed() {
        crate::snapshot::record_point(crate::snapshot::SnapshotPoint::from_run(
            benchmark.label(),
            variant.label(),
            threads,
            options.profile,
            options.grain_shift,
            &result,
        ));
    }
    result
}

fn run_point_unrecorded(
    variant: StmVariant,
    benchmark: &Benchmark,
    threads: usize,
    options: &RunOptions,
) -> RunResult {
    let config = options.stm_config();
    match variant {
        StmVariant::Swiss(cm) => {
            let mut builder = SwissTm::builder().config(config);
            if let Some(cm) = cm.build() {
                builder = builder.contention_manager(cm);
            }
            build_workload_and_run(Arc::new(builder.build()), benchmark, threads, options)
        }
        StmVariant::Tl2(cm) => {
            let mut builder = Tl2::builder().config(config);
            if let Some(cm) = cm.build() {
                builder = builder.contention_manager(cm);
            }
            build_workload_and_run(Arc::new(builder.build()), benchmark, threads, options)
        }
        StmVariant::Tiny(cm) => {
            let mut builder = TinyStm::builder().config(config);
            if let Some(cm) = cm.build() {
                builder = builder.contention_manager(cm);
            }
            build_workload_and_run(Arc::new(builder.build()), benchmark, threads, options)
        }
        StmVariant::Rstm(rstm_variant, cm) => {
            let mut builder = Rstm::builder().config(config).variant(rstm_variant);
            if let Some(cm) = cm.build() {
                builder = builder.contention_manager(cm);
            }
            build_workload_and_run(Arc::new(builder.build()), benchmark, threads, options)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> RunOptions {
        RunOptions {
            max_threads: 2,
            point_duration: Duration::from_millis(30),
            heap_words: 1 << 20,
            lock_table_log2: 12,
            seed: 7,
            ..RunOptions::quick()
        }
    }

    #[test]
    fn run_point_covers_all_stm_variants_on_rbtree() {
        let options = tiny_options();
        let benchmark = Benchmark::RbTree(RbTreeConfig::small());
        for variant in StmVariant::paper_defaults() {
            let result = run_point(variant, &benchmark, 2, &options);
            assert!(result.check_passed, "{} failed", variant.label());
            assert!(result.throughput() > 0.0);
        }
    }

    #[test]
    fn run_point_runs_lee_and_stamp_points() {
        let options = tiny_options();
        let lee = Benchmark::Lee(LeeConfig::tiny());
        let result = run_point(StmVariant::Swiss(CmChoice::Default), &lee, 2, &options);
        assert!(result.check_passed);

        let stamp = Benchmark::Stamp(StampApp::KmeansHigh);
        let result = run_point(StmVariant::Tl2(CmChoice::Default), &stamp, 2, &options);
        assert!(result.check_passed);
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(StmVariant::Swiss(CmChoice::Default).label(), "SwissTM");
        assert_eq!(
            StmVariant::Swiss(CmChoice::Greedy).label(),
            "SwissTM[greedy]"
        );
        assert!(
            StmVariant::Rstm(RstmVariant::lazy_invisible(), CmChoice::Polka)
                .label()
                .contains("lazy")
        );
        assert_eq!(
            Benchmark::RbTree(RbTreeConfig::small()).label(),
            "red-black tree"
        );
        assert_eq!(Benchmark::Stamp(StampApp::Yada).label(), "yada");
    }

    #[test]
    fn options_profiles_and_threads() {
        let options = tiny_options();
        assert_eq!(options.thread_counts(), vec![1, 2]);
        assert_eq!(options.with_grain_shift(4).grain_shift, 4);
        assert_eq!(
            options.with_clock(ClockMode::Deferred).stm_config().clock,
            ClockMode::Deferred
        );
        assert_eq!(
            options
                .with_table_layout(TableLayout::PaddedMixed)
                .stm_config()
                .lock_table
                .layout,
            TableLayout::PaddedMixed
        );
        assert_eq!(RunOptions::full().max_threads, 8);
        assert!(RunOptions::quick().point_duration < RunOptions::full().point_duration);
        assert_eq!(RunOptions::quick().profile, SizeProfile::Quick);
        assert_eq!(RunOptions::full().profile, SizeProfile::Full);
        assert_eq!(RunOptions::huge().profile, SizeProfile::Huge);
        assert!(RunOptions::huge().heap_words > RunOptions::full().heap_words);
    }
}
