//! The red-black tree microbenchmark (paper Figure 5 and Figure 10).
//!
//! Short, simple transactions over a shared [`RbTree`]: lookups, inserts and
//! removals of uniformly random keys from a fixed range. The paper's
//! configuration is a key range of 16 384 with 20 % update operations; both
//! parameters are configurable here.

use std::sync::Arc;

use stm_core::backoff::FastRng;
use stm_core::tm::{ThreadContext, TmAlgorithm};

use crate::driver::Workload;
use crate::structures::RbTree;

/// Configuration of the microbenchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RbTreeConfig {
    /// Keys are drawn uniformly from `[0, key_range)`.
    pub key_range: u64,
    /// Percentage of operations that update the tree (split evenly between
    /// inserts and removals); the rest are lookups.
    pub update_percent: u64,
    /// Number of keys inserted before the measurement starts.
    pub initial_size: u64,
}

impl RbTreeConfig {
    /// The paper's configuration: range 16 384, 20 % updates, half-full
    /// tree.
    pub fn paper_default() -> Self {
        RbTreeConfig {
            key_range: 16 * 1024,
            update_percent: 20,
            initial_size: 8 * 1024,
        }
    }

    /// A small configuration for unit tests.
    pub fn small() -> Self {
        RbTreeConfig {
            key_range: 512,
            update_percent: 20,
            initial_size: 256,
        }
    }

    /// Overrides the update percentage.
    pub fn with_update_percent(mut self, update_percent: u64) -> Self {
        self.update_percent = update_percent;
        self
    }
}

impl Default for RbTreeConfig {
    fn default() -> Self {
        RbTreeConfig::paper_default()
    }
}

/// The microbenchmark workload: a shared tree plus the operation mix.
#[derive(Debug)]
pub struct RbTreeWorkload {
    tree: RbTree,
    config: RbTreeConfig,
}

impl RbTreeWorkload {
    /// Creates the tree and pre-populates it with `initial_size` random
    /// keys.
    ///
    /// # Panics
    ///
    /// Panics if the heap cannot hold the initial tree.
    pub fn setup<A: TmAlgorithm>(stm: &Arc<A>, config: RbTreeConfig, seed: u64) -> Arc<Self> {
        let tree = RbTree::create(stm.heap()).expect("heap too small for red-black tree");
        let mut ctx = ThreadContext::register(Arc::clone(stm));
        let mut rng = FastRng::new(seed | 1);
        let mut inserted = 0;
        while inserted < config.initial_size {
            let key = rng.next_below(config.key_range);
            let fresh = ctx
                .atomically(|tx| tree.insert(tx, key, key))
                .expect("initial population must not fail");
            if fresh {
                inserted += 1;
            }
        }
        Arc::new(RbTreeWorkload { tree, config })
    }

    /// The shared tree (used by tests and consistency checks).
    pub fn tree(&self) -> RbTree {
        self.tree
    }

    /// The configured operation mix.
    pub fn config(&self) -> RbTreeConfig {
        self.config
    }
}

impl<A: TmAlgorithm> Workload<A> for RbTreeWorkload {
    fn execute(&self, ctx: &mut ThreadContext<A>, rng: &mut FastRng, _op_index: u64) {
        let key = rng.next_below(self.config.key_range);
        let roll = rng.next_below(100);
        if roll < self.config.update_percent {
            if roll % 2 == 0 {
                ctx.atomically(|tx| self.tree.insert(tx, key, key))
                    .expect("insert transaction must eventually commit");
            } else {
                ctx.atomically(|tx| self.tree.remove(tx, key))
                    .expect("remove transaction must eventually commit");
            }
        } else {
            ctx.atomically_read_only(|tx| self.tree.contains(tx, key))
                .expect("lookup transaction must eventually commit");
        }
    }

    fn name(&self) -> String {
        format!(
            "rbtree(range={}, updates={}%)",
            self.config.key_range, self.config.update_percent
        )
    }

    fn check(&self, ctx: &mut ThreadContext<A>) -> bool {
        ctx.atomically(|tx| self.tree.check_invariants(tx))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_workload, RunLength};
    use stm_core::config::StmConfig;
    use swisstm::SwissTm;
    use tinystm::TinyStm;
    use tl2::Tl2;

    #[test]
    fn workload_runs_on_swisstm_and_keeps_invariants() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let workload = RbTreeWorkload::setup(&stm, RbTreeConfig::small(), 3);
        let result = run_workload(stm, workload, 3, RunLength::OpsPerThread(300), 99);
        assert_eq!(result.operations, 900);
        assert!(result.totals.commits >= 900);
    }

    #[test]
    fn workload_runs_on_tl2_and_tinystm() {
        let stm = Arc::new(Tl2::with_config(StmConfig::small()));
        let workload = RbTreeWorkload::setup(&stm, RbTreeConfig::small(), 4);
        run_workload(stm, workload, 2, RunLength::OpsPerThread(200), 7);

        let stm = Arc::new(TinyStm::with_config(StmConfig::small()));
        let workload = RbTreeWorkload::setup(&stm, RbTreeConfig::small(), 4);
        run_workload(stm, workload, 2, RunLength::OpsPerThread(200), 7);
    }

    #[test]
    fn read_only_mix_produces_read_only_commits() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let config = RbTreeConfig::small().with_update_percent(0);
        let workload = RbTreeWorkload::setup(&stm, config, 5);
        let result = run_workload(stm, workload, 1, RunLength::OpsPerThread(100), 1);
        assert_eq!(result.totals.read_only_commits, 100);
    }

    #[test]
    fn setup_populates_requested_size() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let workload = RbTreeWorkload::setup(&stm, RbTreeConfig::small(), 11);
        let mut ctx = ThreadContext::register(stm);
        let len = ctx.atomically(|tx| workload.tree().len(tx)).unwrap();
        assert_eq!(len, RbTreeConfig::small().initial_size);
    }
}
