//! STAMP `vacation`: a travel reservation system.
//!
//! The database consists of red-black-tree tables of cars, flights and
//! rooms (each item has a stock counter) plus a customer table. Client
//! transactions query several random items across the tables and reserve
//! one of each kind, cancel a customer's reservations, or update the tables
//! (add/remove stock). The contention knob is how many rows each
//! transaction touches and how much of the table it may touch.

use std::sync::Arc;

use stm_core::backoff::FastRng;
use stm_core::error::TxResult;
use stm_core::tm::{ThreadContext, TmAlgorithm, Tx};
use stm_core::word::Word;

use crate::driver::Workload;
use crate::structures::RbTree;

/// Configuration of the vacation kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VacationConfig {
    /// Rows per table (cars / flights / rooms).
    pub relations: usize,
    /// Number of rows queried per reservation transaction.
    pub queries_per_tx: usize,
    /// Percentage of the table that queries may touch (smaller = more
    /// contention on the same rows).
    pub query_range_percent: usize,
    /// Percentage of operations that are reservations (the rest split
    /// between customer deletions and table updates).
    pub reservation_percent: u64,
}

impl VacationConfig {
    /// STAMP's high-contention configuration (narrow query range, many
    /// queries per transaction) at the quick profile.
    pub fn high_contention() -> Self {
        VacationConfig::high_contention_at(crate::profile::SizeProfile::Quick)
    }

    /// The high-contention configuration at the given size profile: the
    /// tables grow while the query range stays narrow.
    pub fn high_contention_at(profile: crate::profile::SizeProfile) -> Self {
        VacationConfig {
            relations: profile.pick(1024, 4096, 16_384),
            queries_per_tx: profile.pick(8, 8, 16),
            query_range_percent: 10,
            reservation_percent: 50,
        }
    }

    /// STAMP's low-contention configuration (wide query range, fewer
    /// queries) at the quick profile.
    pub fn low_contention() -> Self {
        VacationConfig::low_contention_at(crate::profile::SizeProfile::Quick)
    }

    /// The low-contention configuration at the given size profile.
    pub fn low_contention_at(profile: crate::profile::SizeProfile) -> Self {
        VacationConfig {
            relations: profile.pick(1024, 4096, 16_384),
            queries_per_tx: profile.pick(4, 4, 8),
            query_range_percent: 90,
            reservation_percent: 90,
        }
    }
}

impl Default for VacationConfig {
    fn default() -> Self {
        VacationConfig::high_contention()
    }
}

/// The vacation workload: four shared tables.
#[derive(Debug)]
pub struct VacationWorkload {
    config: VacationConfig,
    cars: RbTree,
    flights: RbTree,
    rooms: RbTree,
    customers: RbTree,
}

impl VacationWorkload {
    /// Builds and populates the four tables.
    ///
    /// # Panics
    ///
    /// Panics if the heap cannot hold the tables.
    pub fn setup<A: TmAlgorithm>(stm: &Arc<A>, config: VacationConfig, _seed: u64) -> Arc<Self> {
        let heap = stm.heap();
        let cars = RbTree::create(heap).expect("heap exhausted");
        let flights = RbTree::create(heap).expect("heap exhausted");
        let rooms = RbTree::create(heap).expect("heap exhausted");
        let customers = RbTree::create(heap).expect("heap exhausted");

        let mut ctx = ThreadContext::register(Arc::clone(stm));
        // Populate in chunks to keep set-up transactions reasonably sized.
        for chunk_start in (1..=config.relations as Word).step_by(64) {
            let chunk_end = (chunk_start + 63).min(config.relations as Word);
            ctx.atomically(|tx| {
                for id in chunk_start..=chunk_end {
                    cars.insert(tx, id, 10)?;
                    flights.insert(tx, id, 10)?;
                    rooms.insert(tx, id, 10)?;
                }
                Ok(())
            })
            .expect("populating vacation tables failed");
        }

        Arc::new(VacationWorkload {
            config,
            cars,
            flights,
            rooms,
            customers,
        })
    }

    fn random_row(&self, rng: &mut FastRng) -> Word {
        let range = (self.config.relations * self.config.query_range_percent / 100).max(1) as u64;
        1 + rng.next_below(range)
    }

    fn make_reservation<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        rng: &mut FastRng,
        customer: Word,
    ) -> TxResult<bool> {
        let mut reserved = 0u64;
        for table in [&self.cars, &self.flights, &self.rooms] {
            // Query several rows, remember the one with the most stock.
            let mut best: Option<(Word, Word)> = None;
            for _ in 0..self.config.queries_per_tx {
                let id = self.random_row(rng);
                if let Some(stock) = table.get(tx, id)? {
                    if best.map(|(_, s)| stock > s).unwrap_or(true) {
                        best = Some((id, stock));
                    }
                }
            }
            if let Some((id, stock)) = best {
                if stock > 0 {
                    table.insert(tx, id, stock - 1)?;
                    reserved += 1;
                }
            }
        }
        if reserved > 0 {
            let previous = self.customers.get(tx, customer)?.unwrap_or(0);
            self.customers.insert(tx, customer, previous + reserved)?;
            return Ok(true);
        }
        Ok(false)
    }

    fn delete_customer<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        customer: Word,
    ) -> TxResult<bool> {
        self.customers.remove(tx, customer)
    }

    fn update_tables<A: TmAlgorithm>(&self, tx: &mut Tx<'_, A>, rng: &mut FastRng) -> TxResult<()> {
        // Restock or deplete a handful of random rows.
        for _ in 0..self.config.queries_per_tx / 2 + 1 {
            let id = self.random_row(rng);
            let table = match rng.next_below(3) {
                0 => &self.cars,
                1 => &self.flights,
                _ => &self.rooms,
            };
            let stock = table.get(tx, id)?.unwrap_or(0);
            if rng.chance_percent(50) {
                table.insert(tx, id, stock + 5)?;
            } else {
                table.insert(tx, id, stock.saturating_sub(1))?;
            }
        }
        Ok(())
    }

    /// Total stock across the three resource tables (used by the check).
    fn total_stock<A: TmAlgorithm>(&self, tx: &mut Tx<'_, A>) -> TxResult<u64> {
        let mut total = 0;
        for table in [&self.cars, &self.flights, &self.rooms] {
            for id in 1..=self.config.relations as Word {
                total += table.get(tx, id)?.unwrap_or(0);
            }
        }
        Ok(total)
    }
}

impl<A: TmAlgorithm> Workload<A> for VacationWorkload {
    fn execute(&self, ctx: &mut ThreadContext<A>, rng: &mut FastRng, op_index: u64) {
        let roll = rng.next_below(100);
        if roll < self.config.reservation_percent {
            let customer = 1 + (op_index % 4096);
            ctx.atomically(|tx| self.make_reservation(tx, rng, customer))
                .expect("reservation must eventually commit");
        } else if roll
            < self.config.reservation_percent + (100 - self.config.reservation_percent) / 2
        {
            let customer = 1 + rng.next_below(4096);
            ctx.atomically(|tx| self.delete_customer(tx, customer))
                .expect("customer deletion must eventually commit");
        } else {
            ctx.atomically(|tx| self.update_tables(tx, rng))
                .expect("table update must eventually commit");
        }
    }

    fn name(&self) -> String {
        format!(
            "vacation(range={}%, queries={})",
            self.config.query_range_percent, self.config.queries_per_tx
        )
    }

    fn check(&self, ctx: &mut ThreadContext<A>) -> bool {
        ctx.atomically(|tx| {
            Ok(self.cars.check_invariants(tx)?
                && self.flights.check_invariants(tx)?
                && self.rooms.check_invariants(tx)?
                && self.customers.check_invariants(tx)?
                && self.total_stock(tx)? <= 30 * self.config.relations as u64 * 10)
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

    fn small_config() -> VacationConfig {
        VacationConfig {
            relations: 64,
            queries_per_tx: 4,
            query_range_percent: 50,
            reservation_percent: 60,
        }
    }

    #[test]
    fn reservations_decrement_stock_and_register_customers() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        // A query range of one row makes every query hit row 1, so the
        // reservation outcome is fully deterministic.
        let config = VacationConfig {
            query_range_percent: 1,
            ..small_config()
        };
        let workload = Arc::new_cyclic(|_| VacationWorkload {
            config,
            cars: RbTree::create(stm.heap()).unwrap(),
            flights: RbTree::create(stm.heap()).unwrap(),
            rooms: RbTree::create(stm.heap()).unwrap(),
            customers: RbTree::create(stm.heap()).unwrap(),
        });
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        ctx.atomically(|tx| {
            workload.cars.insert(tx, 1, 2)?;
            workload.flights.insert(tx, 1, 2)?;
            workload.rooms.insert(tx, 1, 2)?;
            Ok(())
        })
        .unwrap();
        let mut rng = FastRng::new(4);
        let reserved = ctx
            .atomically(|tx| workload.make_reservation(tx, &mut rng, 7))
            .unwrap();
        assert!(reserved);
        let (car_stock, customer) = ctx
            .atomically(|tx| Ok((workload.cars.get(tx, 1)?, workload.customers.get(tx, 7)?)))
            .unwrap();
        assert_eq!(car_stock, Some(1));
        assert_eq!(customer, Some(3));
    }

    #[test]
    fn workload_runs_and_keeps_table_invariants() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let workload = VacationWorkload::setup(&stm, small_config(), 1);
        let result = run_workload(stm, workload, 3, RunLength::TotalOps(150), 3);
        assert!(result.totals.commits >= 150);
    }

    #[test]
    fn contention_presets_differ() {
        let high = VacationConfig::high_contention();
        let low = VacationConfig::low_contention();
        assert!(high.query_range_percent < low.query_range_percent);
        assert!(high.queries_per_tx > low.queries_per_tx);
    }
}
