//! STAMP `bayes`: Bayesian network structure learning.
//!
//! The original application learns the structure of a Bayesian network by
//! hill climbing: each transaction evaluates the score gain of adding a
//! dependency edge (reading the adjacency information and a chunk of the
//! training data) and, when beneficial, inserts the edge and updates the
//! affected scores. Transactions are comparatively long — this is one of
//! the workloads where SwissTM's advantage over TL2 is largest in the
//! paper's Figure 3.
//!
//! The reproduction keeps the skeleton: a dependency graph over `variables`
//! nodes stored as adjacency bitmaps, a per-node score word, and a shared
//! block of "training data" words that every evaluation reads.

use std::sync::Arc;

use stm_core::backoff::FastRng;
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_core::word::{Addr, Word};

use crate::driver::Workload;

/// Configuration of the bayes kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BayesConfig {
    /// Number of random variables (nodes of the learned network). At most
    /// 64 so a node's parent set fits in one bitmap word.
    pub variables: usize,
    /// Number of shared training-data words each evaluation reads.
    pub data_words_per_eval: usize,
    /// Total size of the training-data block.
    pub data_words: usize,
    /// Maximum number of parents per variable.
    pub max_parents: u32,
}

impl BayesConfig {
    /// The dataset geometry for a size profile. Quick matches the historic
    /// default; full and huge grow the training data and per-evaluation
    /// read sets (the variable count is capped at 64 by the bitmap layout).
    pub fn for_profile(profile: crate::profile::SizeProfile) -> Self {
        BayesConfig {
            variables: profile.pick(48, 64, 64),
            data_words_per_eval: profile.pick(96, 192, 384),
            data_words: profile.pick(4096, 16_384, 65_536),
            max_parents: profile.pick(4, 4, 6),
        }
    }
}

impl Default for BayesConfig {
    fn default() -> Self {
        BayesConfig::for_profile(crate::profile::SizeProfile::Quick)
    }
}

/// The bayes workload.
#[derive(Debug)]
pub struct BayesWorkload {
    config: BayesConfig,
    /// Per variable: `[parents_bitmap, score]`.
    nodes: Addr,
    /// Shared training data (read-only after set-up, but read inside
    /// transactions, lengthening them).
    data: Addr,
}

impl BayesWorkload {
    const NODE_WORDS: usize = 2;

    /// Builds the empty network and the training data.
    ///
    /// # Panics
    ///
    /// Panics if the heap cannot hold the structures, or if
    /// `config.variables > 64`.
    pub fn setup<A: TmAlgorithm>(stm: &Arc<A>, config: BayesConfig, seed: u64) -> Arc<Self> {
        assert!(config.variables <= 64, "parent bitmaps are single words");
        let nodes = stm
            .heap()
            .alloc_zeroed(config.variables * Self::NODE_WORDS)
            .expect("heap too small for bayes nodes");
        let data = stm
            .heap()
            .alloc_zeroed(config.data_words)
            .expect("heap too small for bayes data");
        let mut rng = FastRng::new(seed | 1);
        for i in 0..config.data_words {
            stm.heap().store(data.offset(i), rng.next_below(1000));
        }
        Arc::new(BayesWorkload {
            config,
            nodes,
            data,
        })
    }

    fn node(&self, variable: usize) -> Addr {
        self.nodes.offset(variable * Self::NODE_WORDS)
    }

    /// Total number of edges in the learned network.
    pub fn edge_count<A: TmAlgorithm>(&self, ctx: &mut ThreadContext<A>) -> u32 {
        ctx.atomically(|tx| {
            let mut edges = 0;
            for v in 0..self.config.variables {
                edges += tx.read(self.node(v))?.count_ones();
            }
            Ok(edges)
        })
        .unwrap_or(0)
    }
}

impl<A: TmAlgorithm> Workload<A> for BayesWorkload {
    fn execute(&self, ctx: &mut ThreadContext<A>, rng: &mut FastRng, _op_index: u64) {
        let child = rng.next_below(self.config.variables as u64) as usize;
        let parent = rng.next_below(self.config.variables as u64) as usize;
        let data_start = rng
            .next_below((self.config.data_words - self.config.data_words_per_eval) as u64)
            as usize;
        ctx.atomically(|tx| {
            if child == parent {
                return Ok(());
            }
            let child_node = self.node(child);
            let parent_node = self.node(parent);
            let parents = tx.read(child_node)?;
            if parents & (1 << parent) != 0 || parents.count_ones() >= self.config.max_parents {
                return Ok(());
            }
            // "Score" the candidate edge by scanning a chunk of the shared
            // training data — a long read phase, as in the original.
            let mut score_gain: Word = 0;
            for i in 0..self.config.data_words_per_eval {
                score_gain = score_gain.wrapping_add(tx.read(self.data.offset(data_start + i))?);
            }
            score_gain %= 100;
            let child_score = tx.read(child_node.offset(1))?;
            if score_gain > 40 {
                // Accept: add the edge and update both scores.
                tx.write(child_node, parents | (1 << parent))?;
                tx.write(child_node.offset(1), child_score + score_gain)?;
                let parent_score = tx.read(parent_node.offset(1))?;
                tx.write(parent_node.offset(1), parent_score + 1)?;
            }
            Ok(())
        })
        .expect("bayes evaluation must eventually commit");
    }

    fn name(&self) -> String {
        format!("bayes(vars={})", self.config.variables)
    }

    fn check(&self, ctx: &mut ThreadContext<A>) -> bool {
        // Parent sets respect the cap and never point at the node itself.
        ctx.atomically(|tx| {
            for v in 0..self.config.variables {
                let parents = tx.read(self.node(v))?;
                if parents.count_ones() > self.config.max_parents {
                    return Ok(false);
                }
                if parents & (1 << v) != 0 {
                    return Ok(false);
                }
            }
            Ok(true)
        })
        .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_workload, RunLength};
    use stm_core::config::StmConfig;
    use swisstm::SwissTm;

    fn small_config() -> BayesConfig {
        BayesConfig {
            variables: 16,
            data_words_per_eval: 16,
            data_words: 256,
            max_parents: 3,
        }
    }

    #[test]
    fn learning_adds_edges_within_bounds() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let workload = BayesWorkload::setup(&stm, small_config(), 3);
        run_workload(
            Arc::clone(&stm),
            Arc::clone(&workload),
            2,
            RunLength::TotalOps(300),
            5,
        );
        let mut ctx = ThreadContext::register(stm);
        let edges = workload.edge_count(&mut ctx);
        assert!(edges > 0, "hill climbing should have accepted some edges");
        assert!(edges <= (small_config().variables as u32) * small_config().max_parents);
    }

    #[test]
    #[should_panic(expected = "parent bitmaps")]
    fn too_many_variables_is_rejected() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let config = BayesConfig {
            variables: 65,
            ..small_config()
        };
        let _ = BayesWorkload::setup(&stm, config, 1);
    }
}
