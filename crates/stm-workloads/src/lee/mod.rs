//! The Lee-TM circuit-routing benchmark (paper Figure 4 and Figure 8).
//!
//! Lee's algorithm routes point-to-point connections on a grid: an
//! expansion phase floods outwards from the source until the destination is
//! reached (reading a large number of grid cells), then a backtracking phase
//! lays the route (writing a small number of cells). Each connection is one
//! transaction — large, but with a very regular read-then-write pattern.
//!
//! The original benchmark ships two input boards ("memory" and
//! "mainboard"). Those files are not redistributable here, so
//! [`LeeConfig::memory_board`] and [`LeeConfig::main_board`] generate
//! deterministic pseudo-random netlists of comparable density (see
//! DESIGN.md §2); the transaction shape (many reads, few writes, conflicts
//! where routes cross) is the same.
//!
//! The *irregular* variant of Section 5 adds a single hot word `Oc` that
//! every transaction reads at its start and a fraction `R` of transactions
//! also update, creating long-lasting read/write conflicts; this is
//! [`LeeConfig::irregular_update_percent`].

use std::sync::Arc;

use stm_core::backoff::FastRng;
use stm_core::error::TxResult;
use stm_core::tm::{ThreadContext, TmAlgorithm, Tx};
use stm_core::word::{Addr, Word};

use crate::driver::Workload;
use crate::profile::SizeProfile;

/// Which of the two benchmark inputs a board stands in for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LeeBoard {
    /// The dense "memory" circuit board with short connections.
    #[default]
    Memory,
    /// The larger "mainboard" input with longer connections.
    Main,
    /// Ad-hoc boards used by unit tests.
    Test,
}

/// Configuration of the router benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeeConfig {
    /// Which benchmark input this board stands in for (used for labels).
    pub board: LeeBoard,
    /// Grid width in cells.
    pub width: usize,
    /// Grid height in cells.
    pub height: usize,
    /// Number of connections in the netlist.
    pub routes: usize,
    /// Maximum Manhattan length of a generated connection.
    pub max_route_length: usize,
    /// Percentage of transactions that also update the shared hot word
    /// (`R` in the paper's irregular Lee-TM experiment); 0 disables the hot
    /// word entirely, reproducing the original regular benchmark.
    pub irregular_update_percent: u64,
}

impl LeeConfig {
    /// Stand-in for the "memory" circuit board at the quick profile: a
    /// dense board with short connections.
    pub fn memory_board() -> Self {
        LeeConfig::memory_board_at(SizeProfile::Quick)
    }

    /// The "memory" board at the given size profile.
    pub fn memory_board_at(profile: SizeProfile) -> Self {
        LeeConfig {
            board: LeeBoard::Memory,
            width: profile.pick(64, 128, 256),
            height: profile.pick(64, 128, 256),
            routes: profile.pick(160, 384, 1024),
            max_route_length: profile.pick(24, 32, 48),
            irregular_update_percent: 0,
        }
    }

    /// Stand-in for the "mainboard" input at the quick profile: a larger
    /// board with longer connections.
    pub fn main_board() -> Self {
        LeeConfig::main_board_at(SizeProfile::Quick)
    }

    /// The "mainboard" input at the given size profile.
    pub fn main_board_at(profile: SizeProfile) -> Self {
        LeeConfig {
            board: LeeBoard::Main,
            width: profile.pick(96, 192, 384),
            height: profile.pick(96, 192, 384),
            routes: profile.pick(220, 512, 1536),
            max_route_length: profile.pick(48, 64, 96),
            irregular_update_percent: 0,
        }
    }

    /// A tiny board for unit tests.
    pub fn tiny() -> Self {
        LeeConfig {
            board: LeeBoard::Test,
            width: 16,
            height: 16,
            routes: 24,
            max_route_length: 8,
            irregular_update_percent: 0,
        }
    }

    /// Enables the "irregular" variant with update ratio `percent`.
    pub fn with_irregular_updates(mut self, percent: u64) -> Self {
        self.irregular_update_percent = percent;
        self
    }

    /// Number of grid cells.
    pub fn cells(&self) -> usize {
        self.width * self.height
    }
}

impl Default for LeeConfig {
    fn default() -> Self {
        LeeConfig::memory_board()
    }
}

/// One connection request of the netlist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Source cell (x, y).
    pub src: (usize, usize),
    /// Destination cell (x, y).
    pub dst: (usize, usize),
}

/// The Lee-TM workload: a shared grid plus a fixed netlist.
#[derive(Debug)]
pub struct LeeWorkload {
    config: LeeConfig,
    grid: Addr,
    /// The shared hot word of the irregular variant.
    hot_word: Addr,
    /// Count of successfully routed connections (heap word, updated
    /// transactionally).
    routed_counter: Addr,
    netlist: Vec<Route>,
}

impl LeeWorkload {
    /// Builds the grid and a deterministic netlist.
    ///
    /// # Panics
    ///
    /// Panics if the heap cannot hold the grid.
    pub fn setup<A: TmAlgorithm>(stm: &Arc<A>, config: LeeConfig, seed: u64) -> Arc<Self> {
        let heap = stm.heap();
        let grid = heap
            .alloc_zeroed(config.cells())
            .expect("heap too small for the routing grid");
        let hot_word = heap.alloc_zeroed(1).expect("heap exhausted");
        let routed_counter = heap.alloc_zeroed(1).expect("heap exhausted");

        let mut rng = FastRng::new(seed | 1);
        let mut netlist = Vec::with_capacity(config.routes);
        while netlist.len() < config.routes {
            let sx = rng.next_below(config.width as u64) as usize;
            let sy = rng.next_below(config.height as u64) as usize;
            let max = config.max_route_length as i64;
            let dx = rng.next_below((2 * max + 1) as u64) as i64 - max;
            let dy = rng.next_below((2 * max + 1) as u64) as i64 - max;
            let tx = sx as i64 + dx;
            let ty = sy as i64 + dy;
            if tx < 0 || ty < 0 || tx >= config.width as i64 || ty >= config.height as i64 {
                continue;
            }
            let dst = (tx as usize, ty as usize);
            if dst == (sx, sy) {
                continue;
            }
            netlist.push(Route { src: (sx, sy), dst });
        }

        Arc::new(LeeWorkload {
            config,
            grid,
            hot_word,
            routed_counter,
            netlist,
        })
    }

    /// The netlist (route `op_index % len` is attempted by each operation).
    pub fn netlist(&self) -> &[Route] {
        &self.netlist
    }

    /// The benchmark configuration.
    pub fn config(&self) -> LeeConfig {
        self.config
    }

    fn cell(&self, x: usize, y: usize) -> Addr {
        self.grid.offset(y * self.config.width + x)
    }

    /// Number of successfully routed connections so far.
    pub fn routed<A: TmAlgorithm>(&self, ctx: &mut ThreadContext<A>) -> u64 {
        ctx.read_word(self.routed_counter).unwrap_or(0)
    }

    /// Routes one connection inside the given transaction. Returns `true`
    /// if a route was laid.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn route_one<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        route: Route,
        net_id: Word,
        rng: &mut FastRng,
    ) -> TxResult<bool> {
        let config = self.config;

        // Irregular variant: read the hot word first; a fraction of the
        // transactions also update it, creating read/write conflicts with
        // every other in-flight transaction.
        if config.irregular_update_percent > 0 {
            let hot = tx.read(self.hot_word)?;
            if rng.chance_percent(config.irregular_update_percent) {
                tx.write(self.hot_word, hot.wrapping_add(1))?;
            }
        }

        // Expansion (breadth-first flood): cost grid is transaction-local,
        // the occupancy reads are transactional.
        let cells = config.cells();
        let mut cost: Vec<u32> = vec![u32::MAX; cells];
        let mut queue = std::collections::VecDeque::new();
        let src_index = route.src.1 * config.width + route.src.0;
        let dst_index = route.dst.1 * config.width + route.dst.0;
        cost[src_index] = 0;
        queue.push_back(route.src);

        let mut found = false;
        while let Some((x, y)) = queue.pop_front() {
            if (x, y) == route.dst {
                found = true;
                break;
            }
            let here = cost[y * config.width + x];
            for (nx, ny) in neighbours(x, y, config.width, config.height) {
                let n_index = ny * config.width + nx;
                if cost[n_index] != u32::MAX {
                    continue;
                }
                let occupancy = tx.read(self.cell(nx, ny))?;
                // A cell is passable if it is free, already carries this net,
                // or is the destination endpoint.
                if occupancy != 0 && occupancy != net_id && n_index != dst_index {
                    continue;
                }
                cost[n_index] = here + 1;
                queue.push_back((nx, ny));
            }
        }

        if !found {
            return Ok(false);
        }

        // Backtracking: walk from the destination to the source along
        // decreasing cost, claiming the cells.
        let (mut x, mut y) = route.dst;
        loop {
            tx.write(self.cell(x, y), net_id)?;
            if (x, y) == route.src {
                break;
            }
            let here = cost[y * config.width + x];
            let mut stepped = false;
            for (nx, ny) in neighbours(x, y, config.width, config.height) {
                let neighbour_cost = cost[ny * config.width + nx];
                if neighbour_cost != u32::MAX && neighbour_cost + 1 == here {
                    x = nx;
                    y = ny;
                    stepped = true;
                    break;
                }
            }
            if !stepped {
                // Should be impossible: the expansion found the destination.
                return Ok(false);
            }
        }

        let routed = tx.read(self.routed_counter)?;
        tx.write(self.routed_counter, routed + 1)?;
        Ok(true)
    }

    /// Grid-consistency check: every occupied cell carries a valid net id.
    pub fn grid_is_consistent<A: TmAlgorithm>(&self, ctx: &mut ThreadContext<A>) -> bool {
        let max_net = self.netlist.len() as Word;
        ctx.atomically(|tx| {
            for i in 0..self.config.cells() {
                let value = tx.read(self.grid.offset(i))?;
                if value > max_net {
                    return Ok(false);
                }
            }
            Ok(true)
        })
        .unwrap_or(false)
    }
}

fn neighbours(x: usize, y: usize, width: usize, height: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(4);
    if x > 0 {
        out.push((x - 1, y));
    }
    if x + 1 < width {
        out.push((x + 1, y));
    }
    if y > 0 {
        out.push((x, y - 1));
    }
    if y + 1 < height {
        out.push((x, y + 1));
    }
    out
}

impl<A: TmAlgorithm> Workload<A> for LeeWorkload {
    fn execute(&self, ctx: &mut ThreadContext<A>, rng: &mut FastRng, op_index: u64) {
        let route_index = (op_index as usize) % self.netlist.len();
        let route = self.netlist[route_index];
        let net_id = route_index as Word + 1;
        ctx.atomically(|tx| self.route_one(tx, route, net_id, rng))
            .expect("routing transaction must eventually commit");
    }

    fn name(&self) -> String {
        format!(
            "lee({}x{}, {} routes, R={}%)",
            self.config.width,
            self.config.height,
            self.config.routes,
            self.config.irregular_update_percent
        )
    }

    fn check(&self, ctx: &mut ThreadContext<A>) -> bool {
        self.grid_is_consistent(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_workload, RunLength};
    use stm_core::config::{HeapConfig, LockTableConfig, StmConfig};
    use swisstm::SwissTm;
    use tinystm::TinyStm;

    fn small_config() -> StmConfig {
        StmConfig {
            heap: HeapConfig::with_words(1 << 18),
            lock_table: LockTableConfig::small(),
            clock: stm_core::config::ClockMode::Strict,
        }
    }

    #[test]
    fn boards_scale_with_the_profile() {
        for board_at in [LeeConfig::memory_board_at, LeeConfig::main_board_at] {
            let quick = board_at(SizeProfile::Quick);
            let full = board_at(SizeProfile::Full);
            let huge = board_at(SizeProfile::Huge);
            assert!(quick.cells() < full.cells() && full.cells() < huge.cells());
            assert!(quick.routes < full.routes && full.routes < huge.routes);
            assert_eq!(quick.board, full.board);
        }
        assert_eq!(LeeConfig::memory_board().board, LeeBoard::Memory);
        assert_eq!(LeeConfig::main_board().board, LeeBoard::Main);
        assert_eq!(LeeConfig::tiny().board, LeeBoard::Test);
    }

    #[test]
    fn netlist_is_deterministic_and_in_bounds() {
        let stm = Arc::new(SwissTm::with_config(small_config()));
        let a = LeeWorkload::setup(&stm, LeeConfig::tiny(), 7);
        let b = LeeWorkload::setup(&stm, LeeConfig::tiny(), 7);
        assert_eq!(a.netlist(), b.netlist());
        for route in a.netlist() {
            assert!(route.src.0 < LeeConfig::tiny().width);
            assert!(route.dst.1 < LeeConfig::tiny().height);
            assert_ne!(route.src, route.dst);
        }
    }

    #[test]
    fn routes_are_laid_on_the_grid() {
        let stm = Arc::new(SwissTm::with_config(small_config()));
        let workload = LeeWorkload::setup(&stm, LeeConfig::tiny(), 3);
        run_workload(
            Arc::clone(&stm),
            Arc::clone(&workload),
            2,
            RunLength::TotalOps(LeeConfig::tiny().routes as u64),
            9,
        );
        let mut ctx = ThreadContext::register(stm);
        let routed = workload.routed(&mut ctx);
        assert!(routed > 0, "at least one connection must be routable");
        // Every routed connection has its endpoints claimed by its net.
        let all_good = ctx
            .atomically(|tx| {
                for (i, route) in workload.netlist().iter().enumerate() {
                    let net = i as Word + 1;
                    let src = tx.read(workload.cell(route.src.0, route.src.1))?;
                    let dst = tx.read(workload.cell(route.dst.0, route.dst.1))?;
                    // Either the route failed (both untouched by this net) or
                    // both endpoints belong to the net.
                    let laid = src == net && dst == net;
                    let skipped = src != net || dst != net;
                    if !(laid || skipped) {
                        return Ok(false);
                    }
                }
                Ok(true)
            })
            .unwrap();
        assert!(all_good);
    }

    #[test]
    fn irregular_variant_touches_the_hot_word() {
        let stm = Arc::new(TinyStm::with_config(small_config()));
        let config = LeeConfig::tiny().with_irregular_updates(100);
        let workload = LeeWorkload::setup(&stm, config, 5);
        run_workload(
            Arc::clone(&stm),
            Arc::clone(&workload),
            2,
            RunLength::TotalOps(16),
            3,
        );
        assert!(stm.heap().load(workload.hot_word) > 0);
    }

    #[test]
    fn unroutable_connection_commits_without_writes() {
        let stm = Arc::new(SwissTm::with_config(small_config()));
        let workload = LeeWorkload::setup(&stm, LeeConfig::tiny(), 11);
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        // Wall off the destination so the route cannot be laid.
        let route = workload.netlist()[0];
        ctx.atomically(|tx| {
            for (nx, ny) in neighbours(
                route.dst.0,
                route.dst.1,
                workload.config().width,
                workload.config().height,
            ) {
                tx.write(workload.cell(nx, ny), 999)?;
            }
            Ok(())
        })
        .unwrap();
        let mut rng = FastRng::new(1);
        let routed = ctx
            .atomically(|tx| workload.route_one(tx, route, 1, &mut rng))
            .unwrap();
        assert!(!routed);
        assert_eq!(workload.routed(&mut ctx), 0);
    }
}
