//! STAMP `genome`: gene sequencing (segment deduplication + chaining).
//!
//! The original application reassembles a genome from overlapping segments
//! in two transactional phases: deduplicating segments by inserting them
//! into a hash set, and then linking unique segments into chains by matching
//! overlapping prefixes/suffixes. The reproduction keeps both phases:
//! every operation deduplicates one segment and, if it was fresh, links it
//! to its predecessor in a shared chain table.

use std::sync::Arc;

use stm_core::backoff::FastRng;
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_core::word::Word;

use crate::driver::Workload;
use crate::structures::HashMap;

/// Configuration of the genome kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenomeConfig {
    /// Number of distinct segments in the underlying "genome".
    pub unique_segments: usize,
    /// Oversampling factor: how many (duplicated) segment observations the
    /// input stream contains per unique segment.
    pub duplication: usize,
    /// Buckets of the deduplication and chain tables.
    pub buckets: usize,
}

impl GenomeConfig {
    /// The dataset geometry for a size profile (quick matches the historic
    /// default).
    pub fn for_profile(profile: crate::profile::SizeProfile) -> Self {
        GenomeConfig {
            unique_segments: profile.pick(2048, 8192, 32_768),
            duplication: profile.pick(4, 4, 8),
            buckets: profile.pick(1024, 4096, 16_384),
        }
    }
}

impl Default for GenomeConfig {
    fn default() -> Self {
        GenomeConfig::for_profile(crate::profile::SizeProfile::Quick)
    }
}

/// The genome workload.
#[derive(Debug)]
pub struct GenomeWorkload {
    config: GenomeConfig,
    /// The input stream of segment ids (with duplicates), fixed at set-up.
    stream: Vec<Word>,
    /// Deduplication set: segment id -> 1.
    segments: HashMap,
    /// Chain table: segment id -> id of its successor segment.
    chains: HashMap,
}

impl GenomeWorkload {
    /// Builds the input stream and the shared tables.
    ///
    /// # Panics
    ///
    /// Panics if the heap cannot hold the tables.
    pub fn setup<A: TmAlgorithm>(stm: &Arc<A>, config: GenomeConfig, seed: u64) -> Arc<Self> {
        let segments =
            HashMap::create(stm.heap(), config.buckets).expect("heap too small for genome tables");
        let chains =
            HashMap::create(stm.heap(), config.buckets).expect("heap too small for genome tables");
        let mut rng = FastRng::new(seed | 1);
        let mut stream = Vec::with_capacity(config.unique_segments * config.duplication);
        for _ in 0..config.unique_segments * config.duplication {
            // Segment ids 1..=unique_segments; 0 is reserved.
            stream.push(1 + rng.next_below(config.unique_segments as u64));
        }
        Arc::new(GenomeWorkload {
            config,
            stream,
            segments,
            chains,
        })
    }

    /// Number of distinct segments inserted so far.
    pub fn distinct_segments<A: TmAlgorithm>(&self, ctx: &mut ThreadContext<A>) -> usize {
        ctx.atomically(|tx| self.segments.len(tx)).unwrap_or(0)
    }
}

impl<A: TmAlgorithm> Workload<A> for GenomeWorkload {
    fn execute(&self, ctx: &mut ThreadContext<A>, _rng: &mut FastRng, op_index: u64) {
        let segment = self.stream[(op_index as usize) % self.stream.len()];
        // Phase 1: deduplicate.
        let fresh = ctx
            .atomically(|tx| self.segments.insert(tx, segment, 1))
            .expect("genome dedup must eventually commit");
        if fresh {
            // Phase 2: link the segment to its overlap successor
            // (deterministically `segment + 1`, wrapping), mimicking the
            // chain construction of the original application.
            let successor = if segment as usize >= self.config.unique_segments {
                1
            } else {
                segment + 1
            };
            ctx.atomically(|tx| {
                // Only link if the successor has not already been claimed by
                // somebody else chaining to it.
                if self.chains.get(tx, segment)?.is_none() {
                    self.chains.insert(tx, segment, successor)?;
                }
                Ok(())
            })
            .expect("genome chaining must eventually commit");
        }
    }

    fn name(&self) -> String {
        format!("genome(segments={})", self.config.unique_segments)
    }

    fn check(&self, ctx: &mut ThreadContext<A>) -> bool {
        ctx.atomically(|tx| {
            let distinct = self.segments.len(tx)?;
            let chained = self.chains.len(tx)?;
            // Chains only exist for deduplicated segments.
            Ok(chained <= distinct && distinct <= self.config.unique_segments)
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
    fn deduplication_converges_to_unique_segments() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let config = GenomeConfig {
            unique_segments: 64,
            duplication: 4,
            buckets: 64,
        };
        let workload = GenomeWorkload::setup(&stm, config, 5);
        let total = (config.unique_segments * config.duplication) as u64;
        run_workload(
            Arc::clone(&stm),
            Arc::clone(&workload),
            3,
            RunLength::TotalOps(total),
            9,
        );
        let mut ctx = ThreadContext::register(stm);
        let distinct = workload.distinct_segments(&mut ctx);
        // Drawing 256 samples from 64 ids covers almost all of them.
        assert!(distinct > 48, "only {distinct} distinct segments inserted");
        assert!(distinct <= 64);
    }
}
