//! STAMP `yada`: Delaunay mesh refinement.
//!
//! The original application repeatedly pops a "bad" triangle from a shared
//! work list, collects the cavity of elements around it, retriangulates the
//! cavity and pushes any newly created bad triangles back. Transactions are
//! mid-sized (a cavity of elements read and rewritten) and the work list is
//! shared. The reproduction keeps exactly that skeleton over a mesh of
//! element records: each element has a quality value and a fixed set of
//! neighbours; "refining" an element improves its quality, perturbs its
//! neighbours and occasionally reinserts a neighbour into the work list.

use std::sync::Arc;

use stm_core::backoff::FastRng;
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_core::word::{Addr, Word};

use crate::driver::Workload;
use crate::structures::Queue;

/// Quality threshold below which an element is considered "bad".
const QUALITY_THRESHOLD: Word = 50;

/// Configuration of the yada kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct YadaConfig {
    /// Number of mesh elements.
    pub elements: usize,
    /// Neighbours per element (the cavity size).
    pub neighbours: usize,
    /// Fraction (percent) of elements that start out "bad".
    pub initial_bad_percent: u64,
}

impl YadaConfig {
    /// The mesh geometry for a size profile (quick matches the historic
    /// default).
    pub fn for_profile(profile: crate::profile::SizeProfile) -> Self {
        YadaConfig {
            elements: profile.pick(4096, 16_384, 65_536),
            neighbours: 4,
            initial_bad_percent: 30,
        }
    }
}

impl Default for YadaConfig {
    fn default() -> Self {
        YadaConfig::for_profile(crate::profile::SizeProfile::Quick)
    }
}

/// The yada workload.
#[derive(Debug)]
pub struct YadaWorkload {
    config: YadaConfig,
    /// Per element: `[quality, neighbour_0 .. neighbour_{n-1}]` (neighbour
    /// slots store element indices).
    mesh: Addr,
    /// Work list of bad element indices.
    worklist: Queue,
}

impl YadaWorkload {
    fn element_words(config: &YadaConfig) -> usize {
        config.neighbours + 1
    }

    /// Builds the mesh and seeds the work list with the initially bad
    /// elements.
    ///
    /// # Panics
    ///
    /// Panics if the heap cannot hold the mesh.
    pub fn setup<A: TmAlgorithm>(stm: &Arc<A>, config: YadaConfig, seed: u64) -> Arc<Self> {
        let mesh = stm
            .heap()
            .alloc_zeroed(config.elements * Self::element_words(&config))
            .expect("heap too small for the yada mesh");
        let worklist = Queue::create(stm.heap()).expect("heap exhausted");
        let workload = YadaWorkload {
            config,
            mesh,
            worklist,
        };

        let mut rng = FastRng::new(seed | 1);
        let mut ctx = ThreadContext::register(Arc::clone(stm));
        for element in 0..config.elements {
            let bad = rng.chance_percent(config.initial_bad_percent);
            let quality = if bad {
                rng.next_below(QUALITY_THRESHOLD)
            } else {
                QUALITY_THRESHOLD + rng.next_below(50)
            };
            let neighbours: Vec<Word> = (0..config.neighbours)
                .map(|_| rng.next_below(config.elements as u64))
                .collect();
            ctx.atomically(|tx| {
                let base = workload.element(element);
                tx.write(base, quality)?;
                for (i, &n) in neighbours.iter().enumerate() {
                    tx.write(base.offset(1 + i), n)?;
                }
                if bad {
                    workload.worklist.enqueue(tx, element as Word)?;
                }
                Ok(())
            })
            .expect("mesh construction failed");
        }
        Arc::new(workload)
    }

    fn element(&self, index: usize) -> Addr {
        self.mesh.offset(index * Self::element_words(&self.config))
    }

    /// Number of elements still below the quality threshold.
    pub fn remaining_bad<A: TmAlgorithm>(&self, ctx: &mut ThreadContext<A>) -> usize {
        ctx.atomically(|tx| {
            let mut bad = 0;
            for e in 0..self.config.elements {
                if tx.read(self.element(e))? < QUALITY_THRESHOLD {
                    bad += 1;
                }
            }
            Ok(bad)
        })
        .unwrap_or(usize::MAX)
    }
}

impl<A: TmAlgorithm> Workload<A> for YadaWorkload {
    fn execute(&self, ctx: &mut ThreadContext<A>, rng: &mut FastRng, _op_index: u64) {
        ctx.atomically(|tx| {
            // Pop a bad element; nothing to do if the work list is empty.
            let Some(element) = self.worklist.dequeue(tx)? else {
                return Ok(());
            };
            let element = element as usize;
            let base = self.element(element);
            // Read the cavity: the element and its neighbours.
            let mut cavity = vec![element];
            for i in 0..self.config.neighbours {
                cavity.push(tx.read(base.offset(1 + i))? as usize);
            }
            // Retriangulate: the centre becomes good, neighbours get
            // perturbed; a neighbour that drops below the threshold goes
            // back on the work list.
            tx.write(base, QUALITY_THRESHOLD + rng.next_below(50))?;
            for &neighbour in &cavity[1..] {
                let n_base = self.element(neighbour);
                let quality = tx.read(n_base)?;
                let perturbed = if rng.chance_percent(25) {
                    quality.saturating_sub(10)
                } else {
                    quality + 5
                };
                tx.write(n_base, perturbed)?;
                if perturbed < QUALITY_THRESHOLD {
                    self.worklist.enqueue(tx, neighbour as Word)?;
                }
            }
            Ok(())
        })
        .expect("yada refinement must eventually commit");
    }

    fn name(&self) -> String {
        format!("yada(elements={})", self.config.elements)
    }

    fn check(&self, ctx: &mut ThreadContext<A>) -> bool {
        // The mesh must stay addressable and neighbour indices in range.
        ctx.atomically(|tx| {
            for e in (0..self.config.elements).step_by(64) {
                let base = self.element(e);
                for i in 0..self.config.neighbours {
                    if tx.read(base.offset(1 + i))? as usize >= self.config.elements {
                        return Ok(false);
                    }
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

    fn small_config() -> YadaConfig {
        YadaConfig {
            elements: 256,
            neighbours: 3,
            initial_bad_percent: 40,
        }
    }

    #[test]
    fn refinement_reduces_bad_elements() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let workload = YadaWorkload::setup(&stm, small_config(), 3);
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let before = workload.remaining_bad(&mut ctx);
        run_workload(
            Arc::clone(&stm),
            Arc::clone(&workload),
            2,
            RunLength::TotalOps(400),
            9,
        );
        let after = workload.remaining_bad(&mut ctx);
        assert!(
            after < before,
            "refinement should reduce bad elements ({before} -> {after})"
        );
    }
}
