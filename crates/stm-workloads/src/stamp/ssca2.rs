//! STAMP `ssca2`: graph construction with very small transactions.
//!
//! The SSCA2 kernel inserts edges into the adjacency structure of a large
//! sparse graph. Transactions are tiny (append one edge: bump two degree
//! counters and write two adjacency slots) and contention is low because
//! edge endpoints are spread over many nodes — the paper uses it as a
//! low-contention, short-transaction data point.

use std::sync::Arc;

use stm_core::backoff::FastRng;
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_core::word::{Addr, Word};

use crate::driver::Workload;

/// Configuration of the ssca2 kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ssca2Config {
    /// Number of graph nodes.
    pub nodes: usize,
    /// Maximum adjacency slots per node.
    pub max_degree: usize,
}

impl Ssca2Config {
    /// The graph geometry for a size profile (quick matches the historic
    /// default).
    pub fn for_profile(profile: crate::profile::SizeProfile) -> Self {
        Ssca2Config {
            nodes: profile.pick(4096, 16_384, 65_536),
            max_degree: profile.pick(16, 16, 32),
        }
    }
}

impl Default for Ssca2Config {
    fn default() -> Self {
        Ssca2Config::for_profile(crate::profile::SizeProfile::Quick)
    }
}

/// The ssca2 workload: a shared adjacency structure.
#[derive(Debug)]
pub struct Ssca2Workload {
    config: Ssca2Config,
    /// Per node: `[degree, slot_0 .. slot_{max_degree-1}]`.
    adjacency: Addr,
    /// Pre-generated edge list (deterministic).
    edges: Vec<(usize, usize)>,
}

impl Ssca2Workload {
    fn node_words(config: &Ssca2Config) -> usize {
        config.max_degree + 1
    }

    /// Builds the empty adjacency structure and a deterministic edge list.
    ///
    /// # Panics
    ///
    /// Panics if the heap cannot hold the adjacency arrays.
    pub fn setup<A: TmAlgorithm>(stm: &Arc<A>, config: Ssca2Config, seed: u64) -> Arc<Self> {
        let adjacency = stm
            .heap()
            .alloc_zeroed(config.nodes * Self::node_words(&config))
            .expect("heap too small for ssca2 adjacency");
        let mut rng = FastRng::new(seed | 1);
        let edges = (0..config.nodes * 4)
            .map(|_| {
                (
                    rng.next_below(config.nodes as u64) as usize,
                    rng.next_below(config.nodes as u64) as usize,
                )
            })
            .collect();
        Arc::new(Ssca2Workload {
            config,
            adjacency,
            edges,
        })
    }

    fn node(&self, index: usize) -> Addr {
        self.adjacency
            .offset(index * Self::node_words(&self.config))
    }

    /// Total number of directed adjacency entries inserted so far.
    pub fn total_degree<A: TmAlgorithm>(&self, ctx: &mut ThreadContext<A>) -> u64 {
        ctx.atomically(|tx| {
            let mut total = 0;
            for n in 0..self.config.nodes {
                total += tx.read(self.node(n))?;
            }
            Ok(total)
        })
        .unwrap_or(0)
    }
}

impl<A: TmAlgorithm> Workload<A> for Ssca2Workload {
    fn execute(&self, ctx: &mut ThreadContext<A>, _rng: &mut FastRng, op_index: u64) {
        let (from, to) = self.edges[(op_index as usize) % self.edges.len()];
        ctx.atomically(|tx| {
            for &endpoint in &[from, to] {
                let node = self.node(endpoint);
                let degree = tx.read(node)?;
                if (degree as usize) < self.config.max_degree {
                    tx.write(node.offset(1 + degree as usize), (from ^ to) as Word)?;
                    tx.write(node, degree + 1)?;
                }
            }
            Ok(())
        })
        .expect("ssca2 edge insertion must eventually commit");
    }

    fn name(&self) -> String {
        format!("ssca2(nodes={})", self.config.nodes)
    }

    fn check(&self, ctx: &mut ThreadContext<A>) -> bool {
        // Degrees never exceed the per-node capacity.
        ctx.atomically(|tx| {
            for n in 0..self.config.nodes {
                if tx.read(self.node(n))? as usize > self.config.max_degree {
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

    #[test]
    fn edges_are_inserted_and_degrees_bounded() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let workload = Ssca2Workload::setup(
            &stm,
            Ssca2Config {
                nodes: 128,
                max_degree: 8,
            },
            3,
        );
        run_workload(
            Arc::clone(&stm),
            Arc::clone(&workload),
            3,
            RunLength::TotalOps(300),
            1,
        );
        let mut ctx = ThreadContext::register(stm);
        let degree = workload.total_degree(&mut ctx);
        assert!(degree > 0);
        assert!(degree <= 600);
    }
}
