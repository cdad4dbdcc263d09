//! An STMBench7-style benchmark (paper Figures 2, 7, 9, 12 and Table 1).
//!
//! STMBench7 models a CAD/CAM-style application over a large, non-uniform
//! object graph: a module containing a tree of complex assemblies whose
//! leaves (base assemblies) reference composite parts from a shared pool;
//! each composite part owns a connected graph of atomic parts and a
//! document; indices map identifiers to parts. Operations range from very
//! short read-only lookups to long traversals that touch (and possibly
//! modify) large parts of the structure, which is exactly the short/long
//! mix the paper's analysis revolves around.
//!
//! The reproduction keeps the structure and the operation families but
//! scales the default dimensions down so a data point completes in seconds
//! rather than minutes (see [`Bench7Config`]); the *relative* behaviour of
//! the STMs — which is what Figures 2/7/9/12 compare — is preserved because
//! the transaction length distribution and conflict patterns are the same.

mod model;
mod operations;
pub mod visited;

pub use model::{Bench7Config, Bench7Data};
pub use operations::{Bench7Workload, OperationKind, WorkloadMix};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_workload, RunLength};
    use std::sync::Arc;
    use stm_core::config::{HeapConfig, LockTableConfig, StmConfig};
    use stm_core::tm::ThreadContext;
    use swisstm::SwissTm;
    use tinystm::TinyStm;
    use tl2::Tl2;

    fn tiny_config() -> StmConfig {
        StmConfig {
            heap: HeapConfig::with_words(1 << 20),
            lock_table: LockTableConfig::small(),
            clock: stm_core::config::ClockMode::Strict,
        }
    }

    #[test]
    fn structure_is_built_consistently() {
        let stm = Arc::new(SwissTm::with_config(tiny_config()));
        let data = Bench7Data::build(&stm, Bench7Config::tiny(), 42);
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        assert!(data.check(&mut ctx));
        let parts = ctx.atomically(|tx| data.part_index().len(tx)).unwrap();
        assert_eq!(
            parts,
            (Bench7Config::tiny().composite_pool * Bench7Config::tiny().parts_per_composite) as u64
        );
    }

    #[test]
    fn read_dominated_mix_runs_on_all_word_stms() {
        let config = Bench7Config::tiny();
        let mix = WorkloadMix::read_dominated();

        let stm = Arc::new(SwissTm::with_config(tiny_config()));
        let data = Bench7Data::build(&stm, config, 1);
        let workload = Arc::new(Bench7Workload::new(data, mix));
        run_workload(stm, workload, 2, RunLength::OpsPerThread(60), 5);

        let stm = Arc::new(Tl2::with_config(tiny_config()));
        let data = Bench7Data::build(&stm, config, 1);
        let workload = Arc::new(Bench7Workload::new(data, mix));
        run_workload(stm, workload, 2, RunLength::OpsPerThread(60), 5);

        let stm = Arc::new(TinyStm::with_config(tiny_config()));
        let data = Bench7Data::build(&stm, config, 1);
        let workload = Arc::new(Bench7Workload::new(data, mix));
        run_workload(stm, workload, 2, RunLength::OpsPerThread(60), 5);
    }

    #[test]
    fn write_dominated_mix_mutates_the_structure() {
        let stm = Arc::new(SwissTm::with_config(tiny_config()));
        let data = Bench7Data::build(&stm, Bench7Config::tiny(), 7);
        let workload = Arc::new(Bench7Workload::new(data, WorkloadMix::write_dominated()));
        let r = run_workload(
            Arc::clone(&stm),
            workload,
            2,
            RunLength::OpsPerThread(80),
            11,
        );
        assert!(
            r.totals.writes > 0,
            "write-dominated mix must perform transactional writes"
        );
    }

    #[test]
    fn mixes_have_expected_read_only_ratios() {
        assert_eq!(WorkloadMix::read_dominated().read_only_percent, 90);
        assert_eq!(WorkloadMix::read_write().read_only_percent, 60);
        assert_eq!(WorkloadMix::write_dominated().read_only_percent, 10);
    }
}
