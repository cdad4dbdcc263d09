//! STAMP `labyrinth`: maze routing.
//!
//! STAMP's labyrinth uses the same routing algorithm as Lee-TM (the paper
//! points this out explicitly); the difference is the synthetic maze input
//! instead of real circuit boards. The reproduction therefore wraps the
//! [`crate::lee`] router with a maze-shaped configuration: a mid-size grid
//! with a moderate number of long routes.

use std::sync::Arc;

use stm_core::backoff::FastRng;
use stm_core::tm::{ThreadContext, TmAlgorithm};

use crate::driver::Workload;
use crate::lee::{LeeBoard, LeeConfig, LeeWorkload};

/// Configuration of the labyrinth kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LabyrinthConfig {
    /// Maze side length (the maze is square).
    pub side: usize,
    /// Number of paths to route.
    pub paths: usize,
}

impl LabyrinthConfig {
    /// The maze geometry for a size profile (quick matches the historic
    /// default).
    pub fn for_profile(profile: crate::profile::SizeProfile) -> Self {
        LabyrinthConfig {
            side: profile.pick(48, 96, 192),
            paths: profile.pick(96, 192, 384),
        }
    }
}

impl Default for LabyrinthConfig {
    fn default() -> Self {
        LabyrinthConfig::for_profile(crate::profile::SizeProfile::Quick)
    }
}

/// The labyrinth workload (a thin wrapper around the Lee router).
#[derive(Debug)]
pub struct LabyrinthWorkload {
    router: Arc<LeeWorkload>,
    config: LabyrinthConfig,
}

impl LabyrinthWorkload {
    /// Builds the maze and its path list.
    ///
    /// # Panics
    ///
    /// Panics if the heap cannot hold the maze.
    pub fn setup<A: TmAlgorithm>(stm: &Arc<A>, config: LabyrinthConfig, seed: u64) -> Arc<Self> {
        let lee_config = LeeConfig {
            board: LeeBoard::Test,
            width: config.side,
            height: config.side,
            routes: config.paths,
            max_route_length: config.side / 2,
            irregular_update_percent: 0,
        };
        let router = LeeWorkload::setup(stm, lee_config, seed ^ 0x1ab);
        Arc::new(LabyrinthWorkload { router, config })
    }

    /// The wrapped router (used by tests).
    pub fn router(&self) -> &LeeWorkload {
        &self.router
    }
}

impl<A: TmAlgorithm> Workload<A> for LabyrinthWorkload {
    fn execute(&self, ctx: &mut ThreadContext<A>, rng: &mut FastRng, op_index: u64) {
        self.router.execute(ctx, rng, op_index);
    }

    fn name(&self) -> String {
        format!(
            "labyrinth(side={}, paths={})",
            self.config.side, self.config.paths
        )
    }

    fn check(&self, ctx: &mut ThreadContext<A>) -> bool {
        self.router.check(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_workload, RunLength};
    use stm_core::config::StmConfig;
    use swisstm::SwissTm;

    #[test]
    fn labyrinth_routes_paths() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let workload = LabyrinthWorkload::setup(
            &stm,
            LabyrinthConfig {
                side: 16,
                paths: 12,
            },
            3,
        );
        run_workload(
            Arc::clone(&stm),
            Arc::clone(&workload),
            2,
            RunLength::TotalOps(12),
            5,
        );
        let mut ctx = ThreadContext::register(stm);
        assert!(workload.router().routed(&mut ctx) > 0);
    }
}
