//! STAMP `intruder`: network intrusion detection.
//!
//! The application's transactional skeleton is a three-stage pipeline:
//! every worker (1) dequeues a packet fragment from a *single shared queue*
//! — the memory hot spot the paper points at in Figure 11 — (2) inserts the
//! fragment into a per-flow reassembly map and, when the flow is complete,
//! (3) pushes the reassembled flow onto a detection queue. The detection
//! scan itself is non-transactional.

use std::sync::Arc;

use stm_core::backoff::FastRng;
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_core::word::Word;

use crate::driver::Workload;
use crate::structures::{HashMap, Queue};

/// Configuration of the intruder kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntruderConfig {
    /// Number of network flows.
    pub flows: usize,
    /// Fragments per flow.
    pub fragments_per_flow: usize,
    /// Buckets of the reassembly map.
    pub buckets: usize,
}

impl IntruderConfig {
    /// The dataset geometry for a size profile (quick matches the historic
    /// default).
    pub fn for_profile(profile: crate::profile::SizeProfile) -> Self {
        IntruderConfig {
            flows: profile.pick(1024, 4096, 16_384),
            fragments_per_flow: profile.pick(4, 8, 8),
            buckets: profile.pick(512, 2048, 8192),
        }
    }
}

impl Default for IntruderConfig {
    fn default() -> Self {
        IntruderConfig::for_profile(crate::profile::SizeProfile::Quick)
    }
}

/// The intruder workload.
#[derive(Debug)]
pub struct IntruderWorkload {
    config: IntruderConfig,
    /// The shared fragment queue (hot spot).
    fragment_queue: Queue,
    /// Flow id -> number of fragments received.
    reassembly: HashMap,
    /// Completed flows awaiting detection.
    detection_queue: Queue,
}

impl IntruderWorkload {
    /// Builds the queues and pre-loads the fragment queue with the whole
    /// packet trace (flow fragments interleaved deterministically).
    ///
    /// # Panics
    ///
    /// Panics if the heap cannot hold the trace.
    pub fn setup<A: TmAlgorithm>(stm: &Arc<A>, config: IntruderConfig, seed: u64) -> Arc<Self> {
        let fragment_queue = Queue::create(stm.heap()).expect("heap exhausted");
        let reassembly = HashMap::create(stm.heap(), config.buckets).expect("heap exhausted");
        let detection_queue = Queue::create(stm.heap()).expect("heap exhausted");

        // Pre-load the trace: every flow contributes `fragments_per_flow`
        // fragments, interleaved by a deterministic shuffle.
        let mut fragments: Vec<Word> = Vec::new();
        for flow in 1..=config.flows as Word {
            for _ in 0..config.fragments_per_flow {
                fragments.push(flow);
            }
        }
        let mut rng = FastRng::new(seed | 1);
        for i in (1..fragments.len()).rev() {
            let j = rng.next_below((i + 1) as u64) as usize;
            fragments.swap(i, j);
        }

        let mut ctx = ThreadContext::register(Arc::clone(stm));
        for chunk in fragments.chunks(64) {
            ctx.atomically(|tx| {
                for &fragment in chunk {
                    fragment_queue.enqueue(tx, fragment)?;
                }
                Ok(())
            })
            .expect("loading the packet trace failed");
        }

        Arc::new(IntruderWorkload {
            config,
            fragment_queue,
            reassembly,
            detection_queue,
        })
    }

    /// Number of flows fully reassembled and queued for detection.
    pub fn completed_flows<A: TmAlgorithm>(&self, ctx: &mut ThreadContext<A>) -> usize {
        ctx.atomically(|tx| self.detection_queue.len(tx))
            .unwrap_or(0)
    }
}

impl<A: TmAlgorithm> Workload<A> for IntruderWorkload {
    fn execute(&self, ctx: &mut ThreadContext<A>, _rng: &mut FastRng, _op_index: u64) {
        // Stage 1: grab a fragment from the shared queue.
        let fragment = ctx
            .atomically(|tx| self.fragment_queue.dequeue(tx))
            .expect("dequeue must eventually commit");
        let Some(flow) = fragment else {
            return; // trace exhausted
        };
        // Stage 2: add it to the flow's reassembly state; when complete,
        // move the flow to the detection queue.
        let complete = ctx
            .atomically(|tx| {
                let received = self.reassembly.add(tx, flow, 1)?;
                Ok(received as usize == self.config.fragments_per_flow)
            })
            .expect("reassembly must eventually commit");
        if complete {
            ctx.atomically(|tx| self.detection_queue.enqueue(tx, flow))
                .expect("detection enqueue must eventually commit");
            // Stage 3 (detection scan) is a pure computation in the original
            // application; nothing transactional to do here.
        }
    }

    fn name(&self) -> String {
        format!("intruder(flows={})", self.config.flows)
    }

    fn check(&self, ctx: &mut ThreadContext<A>) -> bool {
        ctx.atomically(|tx| {
            // No flow ever collects more fragments than were sent.
            let completed = self.detection_queue.len(tx)?;
            Ok(completed <= self.config.flows)
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
    fn all_flows_complete_when_the_trace_is_drained() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let config = IntruderConfig {
            flows: 32,
            fragments_per_flow: 3,
            buckets: 32,
        };
        let workload = IntruderWorkload::setup(&stm, config, 7);
        let total = (config.flows * config.fragments_per_flow) as u64;
        run_workload(
            Arc::clone(&stm),
            Arc::clone(&workload),
            3,
            RunLength::TotalOps(total),
            13,
        );
        let mut ctx = ThreadContext::register(stm);
        assert_eq!(workload.completed_flows(&mut ctx), config.flows);
    }

    #[test]
    fn draining_past_the_end_is_harmless() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let config = IntruderConfig {
            flows: 8,
            fragments_per_flow: 2,
            buckets: 16,
        };
        let workload = IntruderWorkload::setup(&stm, config, 7);
        run_workload(
            Arc::clone(&stm),
            Arc::clone(&workload),
            2,
            RunLength::TotalOps(100),
            13,
        );
    }
}
