//! STAMP `kmeans`: clustering with tiny update transactions.
//!
//! Each operation assigns one point to its nearest cluster centre (a
//! non-transactional distance computation over a read-only snapshot of the
//! points) and then transactionally adds the point to the centre's
//! accumulator. The contention knob is the number of clusters: few clusters
//! (high contention) make most transactions collide on the same handful of
//! accumulator words.

use std::sync::Arc;

use stm_core::backoff::FastRng;
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_core::word::{Addr, Word};

use crate::driver::Workload;

/// Number of coordinates per point.
pub const DIMENSIONS: usize = 4;

/// Configuration of the kmeans kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KmeansConfig {
    /// Number of points.
    pub points: usize,
    /// Number of cluster centres.
    pub clusters: usize,
}

impl KmeansConfig {
    /// High-contention variant (few clusters) at the quick profile.
    pub fn high_contention() -> Self {
        KmeansConfig::high_contention_at(crate::profile::SizeProfile::Quick)
    }

    /// High-contention variant at the given size profile: the cluster count
    /// (the contention knob) stays small while the point set grows.
    pub fn high_contention_at(profile: crate::profile::SizeProfile) -> Self {
        KmeansConfig {
            points: profile.pick(2048, 16_384, 65_536),
            clusters: profile.pick(8, 16, 16),
        }
    }

    /// Low-contention variant (many clusters) at the quick profile.
    pub fn low_contention() -> Self {
        KmeansConfig::low_contention_at(crate::profile::SizeProfile::Quick)
    }

    /// Low-contention variant at the given size profile.
    pub fn low_contention_at(profile: crate::profile::SizeProfile) -> Self {
        KmeansConfig {
            points: profile.pick(2048, 16_384, 65_536),
            clusters: profile.pick(48, 64, 160),
        }
    }
}

impl Default for KmeansConfig {
    fn default() -> Self {
        KmeansConfig::high_contention()
    }
}

/// The kmeans workload.
#[derive(Debug)]
pub struct KmeansWorkload {
    config: KmeansConfig,
    /// Non-transactional, read-only point coordinates.
    points: Vec<[Word; DIMENSIONS]>,
    /// Cluster centres (read-only during one round).
    centres: Vec<[Word; DIMENSIONS]>,
    /// Accumulators: per cluster, `DIMENSIONS` sums plus a count word.
    accumulators: Addr,
}

impl KmeansWorkload {
    /// Words per accumulator record.
    const ACC_WORDS: usize = DIMENSIONS + 1;

    /// Builds the points and the shared accumulators.
    ///
    /// # Panics
    ///
    /// Panics if the heap cannot hold the accumulators.
    pub fn setup<A: TmAlgorithm>(stm: &Arc<A>, config: KmeansConfig, seed: u64) -> Arc<Self> {
        let mut rng = FastRng::new(seed | 1);
        let points: Vec<[Word; DIMENSIONS]> = (0..config.points)
            .map(|_| std::array::from_fn(|_| rng.next_below(1000)))
            .collect();
        let centres: Vec<[Word; DIMENSIONS]> = (0..config.clusters)
            .map(|_| std::array::from_fn(|_| rng.next_below(1000)))
            .collect();
        let accumulators = stm
            .heap()
            .alloc_zeroed(config.clusters * Self::ACC_WORDS)
            .expect("heap too small for kmeans accumulators");
        Arc::new(KmeansWorkload {
            config,
            points,
            centres,
            accumulators,
        })
    }

    fn nearest_centre(&self, point: &[Word; DIMENSIONS]) -> usize {
        let mut best = 0;
        let mut best_distance = u64::MAX;
        for (i, centre) in self.centres.iter().enumerate() {
            let distance: u64 = point
                .iter()
                .zip(centre.iter())
                .map(|(&p, &c)| {
                    let d = p.abs_diff(c);
                    d * d
                })
                .sum();
            if distance < best_distance {
                best_distance = distance;
                best = i;
            }
        }
        best
    }

    fn accumulator(&self, cluster: usize) -> Addr {
        self.accumulators.offset(cluster * Self::ACC_WORDS)
    }

    /// Sum of all accumulator counts (equals the number of executed
    /// operations).
    pub fn total_assigned<A: TmAlgorithm>(&self, ctx: &mut ThreadContext<A>) -> u64 {
        ctx.atomically(|tx| {
            let mut total = 0;
            for c in 0..self.config.clusters {
                total += tx.read(self.accumulator(c).offset(DIMENSIONS))?;
            }
            Ok(total)
        })
        .unwrap_or(0)
    }
}

impl<A: TmAlgorithm> Workload<A> for KmeansWorkload {
    fn execute(&self, ctx: &mut ThreadContext<A>, _rng: &mut FastRng, op_index: u64) {
        let point = &self.points[(op_index as usize) % self.points.len()];
        let cluster = self.nearest_centre(point);
        let acc = self.accumulator(cluster);
        ctx.atomically(|tx| {
            for (d, &coordinate) in point.iter().enumerate() {
                let sum = tx.read(acc.offset(d))?;
                tx.write(acc.offset(d), sum + coordinate)?;
            }
            let count = tx.read(acc.offset(DIMENSIONS))?;
            tx.write(acc.offset(DIMENSIONS), count + 1)
        })
        .expect("kmeans update must eventually commit");
    }

    fn name(&self) -> String {
        format!("kmeans(clusters={})", self.config.clusters)
    }

    fn check(&self, ctx: &mut ThreadContext<A>) -> bool {
        // Every assignment increments exactly one count: totals must be
        // non-zero after a run and sums consistent with counts (sums of
        // coordinates bounded by count * max coordinate).
        ctx.atomically(|tx| {
            for c in 0..self.config.clusters {
                let acc = self.accumulator(c);
                let count = tx.read(acc.offset(DIMENSIONS))?;
                for d in 0..DIMENSIONS {
                    if tx.read(acc.offset(d))? > count * 1000 {
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

    #[test]
    fn assignments_are_counted_exactly_once() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let workload = KmeansWorkload::setup(&stm, KmeansConfig::high_contention(), 3);
        run_workload(
            Arc::clone(&stm),
            Arc::clone(&workload),
            4,
            RunLength::TotalOps(400),
            5,
        );
        let mut ctx = ThreadContext::register(stm);
        assert_eq!(workload.total_assigned(&mut ctx), 400);
    }

    #[test]
    fn contention_variants_differ_in_cluster_count() {
        assert!(KmeansConfig::high_contention().clusters < KmeansConfig::low_contention().clusters);
    }

    #[test]
    fn nearest_centre_is_stable() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let workload = KmeansWorkload::setup(&stm, KmeansConfig::low_contention(), 11);
        let c1 = workload.nearest_centre(&workload.points[0].clone());
        let c2 = workload.nearest_centre(&workload.points[0].clone());
        assert_eq!(c1, c2);
    }
}
