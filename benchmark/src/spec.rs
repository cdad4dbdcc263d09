//! What the benchmark runs: the four workloads, the five subjects and the
//! sizes frozen for them. Nothing here is calibrated at run time; a run
//! with `--seconds S` scales the frozen op counts by `S / RUN_SECONDS`.

use std::sync::Arc;

use rstm::{Rstm, RstmVariant};
use stm_core::config::{ClockMode, HeapConfig, LockTableConfig, StmConfig, TableLayout};
use stm_core::naive::NaiveGlobalLockTm;
use stm_core::tm::TmAlgorithm;
use stm_workloads::driver::Workload;
use stm_workloads::rbtree::{RbTreeConfig, RbTreeWorkload};
use stm_workloads::stmbench7::{Bench7Config, Bench7Data, Bench7Workload, WorkloadMix};
use swisstm::SwissTm;
use tinystm::TinyStm;
use tl2::Tl2;

/// The `run_seconds` of `BENCHMARK.json` the op counts below are frozen for.
pub const RUN_SECONDS: u64 = 20;

pub const TRACED_SCALE: u64 = 4;

/// The four STMs, then the global-lock reference.
pub const SUBJECTS: [&str; 5] = ["swisstm", "tl2", "tinystm", "rstm", "naive"];
pub const STMS: [&str; 4] = ["swisstm", "tl2", "tinystm", "rstm"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Data {
    RbTree,
    Bench7Read,
    Bench7Write,
}

#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub data: Data,
    pub threads: usize,
    /// Timed operations per thread per trial at [`RUN_SECONDS`]; a tenth
    /// more run first, untimed, as warm-up.
    pub ops_per_thread: u64,
    /// Untraced trials per subject; the reported value is their mean.
    pub trials: usize,
    /// Frozen wall time one trial is expected to take on the slowest
    /// subject; the watchdog kills a child at ten times this.
    pub expected_trial_s: f64,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "rbtree-1t",
        data: Data::RbTree,
        threads: 1,
        ops_per_thread: 800_000,
        trials: 12,
        expected_trial_s: 0.5,
    },
    WorkloadSpec {
        name: "rbtree-2t",
        data: Data::RbTree,
        threads: 2,
        ops_per_thread: 280_000,
        trials: 12,
        expected_trial_s: 0.75,
    },
    WorkloadSpec {
        name: "bench7-read-1t",
        data: Data::Bench7Read,
        threads: 1,
        ops_per_thread: 10_000,
        trials: 12,
        expected_trial_s: 0.5,
    },
    WorkloadSpec {
        name: "bench7-write-2t",
        data: Data::Bench7Write,
        threads: 2,
        ops_per_thread: 720,
        trials: 40,
        expected_trial_s: 0.4,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl WorkloadSpec {
    pub fn single_threaded(&self) -> bool {
        self.threads == 1
    }

    /// Timed ops per thread for a run of `seconds`, optionally cut to a
    /// twentieth for `--smoke`. A traced pass runs one trial per subject
    /// where the untraced pass runs `trials`, so its trials are
    /// [`TRACED_SCALE`] times as long.
    pub fn scaled_ops(&self, seconds: u64, smoke: bool, traced_pass: bool) -> u64 {
        let scale = if traced_pass { TRACED_SCALE } else { 1 };
        let ops = self.ops_per_thread * scale * seconds / RUN_SECONDS;
        (if smoke { ops / 20 } else { ops }).max(16)
    }

    /// Builds the workload's data on `stm` from `seed`.
    pub fn build<A: TmAlgorithm>(&self, stm: &Arc<A>, seed: u64) -> Arc<dyn Workload<A>> {
        let bench7 = |mix| {
            let data = Bench7Data::build(stm, Bench7Config::medium(), seed);
            Arc::new(Bench7Workload::new(data, mix)) as Arc<dyn Workload<A>>
        };
        match self.data {
            Data::RbTree => RbTreeWorkload::setup(stm, RbTreeConfig::paper_default(), seed),
            Data::Bench7Read => bench7(WorkloadMix::read_dominated()),
            Data::Bench7Write => bench7(WorkloadMix::write_dominated()),
        }
    }
}

/// The harness's quick geometry: heap 2^21 words, lock table 2^16 entries,
/// two-word stripes, flat layout, strict clock.
pub fn stm_config() -> StmConfig {
    StmConfig {
        heap: HeapConfig::with_words(1 << 21),
        lock_table: LockTableConfig {
            log2_entries: 16,
            grain_shift: 1,
            layout: TableLayout::Flat,
        },
        clock: ClockMode::Strict,
    }
}

/// Something to do with a subject once its concrete type is known.
pub trait Job {
    type Out;
    fn run<A: TmAlgorithm>(self, stm: A) -> Self::Out;
}

/// Constructs `subject` with its default contention manager and hands it to
/// `job`. `None` for an unknown subject name.
pub fn with_subject<J: Job>(subject: &str, job: J) -> Option<J::Out> {
    let config = stm_config();
    Some(match subject {
        "swisstm" => job.run(SwissTm::builder().config(config).build()),
        "tl2" => job.run(Tl2::builder().config(config).build()),
        "tinystm" => job.run(TinyStm::builder().config(config).build()),
        "rstm" => job.run(
            Rstm::builder()
                .config(config)
                .variant(RstmVariant::eager_invisible())
                .build(),
        ),
        "naive" => job.run(NaiveGlobalLockTm::new(config.heap)),
        _ => return None,
    })
}
