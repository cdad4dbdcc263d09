//! The SwissTM algorithm (paper Algorithm 1) on the shared engine, whose
//! default operations are SwissTM's: `start`, `rollback`, the read-only
//! `commit` and the head of `read-word` are the engine's `TmAlgorithm`
//! impl, the rest of `read-word` is [`Policy::read_logged`], `write-word`
//! [`Policy::write_word`], the update `commit` [`Policy::commit_update`],
//! and `validate` / `extend` are [`Engine::validate`] / [`Policy::extend`].

use std::sync::Arc;

use stm_core::cm::{CmHandle, TwoPhase};
use stm_core::engine::{Builder, Descriptor, Engine, OnHeld, Policy};
use stm_core::locktable::LockTable;
use stm_core::prelude::*;

use crate::entry::StripeEntry;

/// Builder for [`SwissTm`] instances.
///
/// The defaults reproduce the paper's configuration: a 2^22-entry lock
/// table with 16-byte stripes and the two-phase contention manager with
/// `Wn = 10` and randomized linear back-off. The builder exists so the
/// dissection experiments (Figures 10–13, Tables 1–2) can swap the
/// contention manager and the stripe granularity.
pub type SwissTmBuilder = Builder<SwissTm>;

/// Transaction descriptor of [`SwissTm`].
///
/// The stripes whose write lock the transaction holds — together with the
/// read-lock version observed at acquisition time (restored if commit-time
/// validation fails) — are the owned stripe records, which each held write
/// lock names by position; `snapshot` is the paper's `tx.valid-ts`.
pub type SwissDescriptor = Descriptor<()>;

/// The SwissTM software transactional memory.
///
/// See the crate-level documentation for the algorithm overview; the
/// methods of [`TmAlgorithm`] map one-to-one onto the paper's pseudo-code
/// functions (`start`, `read-word`, `write-word`, `commit`, `rollback`,
/// `validate`, `extend`).
#[derive(Debug)]
pub struct SwissTm {
    engine: Engine<StripeEntry>,
}

impl SwissTm {
    /// Creates an instance with the paper's default configuration and a
    /// benchmark-sized heap.
    pub fn new() -> Self {
        SwissTmBuilder::new().build()
    }

    /// Creates an instance with an explicit configuration.
    pub fn with_config(config: StmConfig) -> Self {
        SwissTmBuilder::new().config(config).build()
    }

    /// Returns a builder for customised instances.
    pub fn builder() -> SwissTmBuilder {
        SwissTmBuilder::new()
    }

    /// Current value of the global commit counter.
    pub fn clock_value(&self) -> u64 {
        self.engine.clock.read()
    }

    /// The configured commit-clock mode.
    pub fn clock_mode(&self) -> ClockMode {
        self.engine.clock.mode()
    }

    /// The lock-table stripe granularity (log2 words per stripe).
    pub fn grain_shift(&self) -> u32 {
        self.engine.table.grain_shift()
    }

    /// The lock table, exposed for diagnostics and for deterministic
    /// conflict rigs that stage stuck locks (see
    /// `stm_core::testkit::RecordingCm`). Application code never needs it.
    pub fn lock_table(&self) -> &LockTable<StripeEntry> {
        &self.engine.table
    }
}

impl Default for SwissTm {
    fn default() -> Self {
        SwissTm::new()
    }
}

/// The engine's default read, write and commit are SwissTM's.
impl Policy for SwissTm {
    type Stripe = StripeEntry;
    type Log = ();
    const NAME: &'static str = "SwissTM";
    /// Lazy read/write conflict detection: a read samples the r-lock, so a
    /// w-lock does not stop it; only a writer's commit does, and the reader
    /// waits that out.
    const HELD: OnHeld = OnHeld::Wait;

    fn default_cm() -> CmHandle {
        Arc::new(TwoPhase::new())
    }

    fn assemble(engine: Engine<StripeEntry>) -> Self {
        SwissTm { engine }
    }

    fn engine(&self) -> &Engine<StripeEntry> {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::config::{HeapConfig, LockTableConfig, StmConfig};
    use stm_core::tm::ThreadContext;

    fn small_stm() -> Arc<SwissTm> {
        Arc::new(SwissTm::with_config(StmConfig::small()))
    }

    #[test]
    fn read_your_own_writes() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(2).unwrap();
        let mut ctx = ThreadContext::register(stm);
        let observed = ctx
            .atomically(|tx| {
                tx.write(addr, 10)?;
                tx.write(addr.offset(1), 20)?;
                Ok((tx.read(addr)?, tx.read(addr.offset(1))?))
            })
            .unwrap();
        assert_eq!(observed, (10, 20));
    }

    #[test]
    fn committed_writes_are_visible_to_later_transactions() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        ctx.atomically(|tx| tx.write(addr, 99)).unwrap();
        let mut ctx2 = ThreadContext::register(stm);
        assert_eq!(ctx2.read_word(addr).unwrap(), 99);
    }

    #[test]
    fn aborted_writes_leave_no_trace() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(2);
        let _ = ctx.atomically(|tx| {
            tx.write(addr, 1234)?;
            tx.retry::<()>()
        });
        assert_eq!(stm.heap().load(addr), 0);
        // The stripe's write lock must have been released.
        let mut ctx2 = ThreadContext::register(stm);
        ctx2.atomically(|tx| tx.write(addr, 5)).unwrap();
        assert_eq!(ctx2.read_word(addr).unwrap(), 5);
    }

    #[test]
    fn commit_timestamp_advances_only_for_updates() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let before = stm.clock_value();
        ctx.atomically(|tx| tx.read(addr)).unwrap();
        assert_eq!(stm.clock_value(), before);
        ctx.atomically(|tx| tx.write(addr, 1)).unwrap();
        assert_eq!(stm.clock_value(), before + 1);
    }

    #[test]
    fn counter_is_consistent_under_concurrency() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let threads = 4;
        let increments = 500;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let stm = Arc::clone(&stm);
                std::thread::spawn(move || {
                    let mut ctx = ThreadContext::register(stm);
                    for _ in 0..increments {
                        ctx.atomically(|tx| {
                            let v = tx.read(addr)?;
                            tx.write(addr, v + 1)
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stm.heap().load(addr), (threads * increments) as u64);
    }

    #[test]
    fn disjoint_writers_commit_without_interference() {
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        // Allocate addresses far apart so they hit different stripes.
        let a = stm.heap().alloc_zeroed(64).unwrap();
        let b = stm.heap().alloc_zeroed(64).unwrap();
        let s1 = Arc::clone(&stm);
        let s2 = Arc::clone(&stm);
        let t1 = std::thread::spawn(move || {
            let mut ctx = ThreadContext::register(s1);
            for i in 0..200 {
                ctx.atomically(|tx| tx.write(a, i)).unwrap();
            }
        });
        let t2 = std::thread::spawn(move || {
            let mut ctx = ThreadContext::register(s2);
            for i in 0..200 {
                ctx.atomically(|tx| tx.write(b.offset(63), i)).unwrap();
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(stm.heap().load(a), 199);
        assert_eq!(stm.heap().load(b.offset(63)), 199);
    }

    #[test]
    fn money_transfer_preserves_the_total() {
        // The classic opacity/atomicity smoke test: concurrent transfers
        // between accounts never create or destroy money.
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let accounts = 8usize;
        let base = stm.heap().alloc_zeroed(accounts).unwrap();
        let initial = 1000u64;
        for i in 0..accounts {
            stm.heap().store(base.offset(i), initial);
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let stm = Arc::clone(&stm);
                std::thread::spawn(move || {
                    let mut ctx = ThreadContext::register(stm);
                    let mut rng = stm_core::backoff::FastRng::new(t as u64 + 1);
                    for _ in 0..500 {
                        let from = rng.next_below(accounts as u64) as usize;
                        let to = rng.next_below(accounts as u64) as usize;
                        ctx.atomically(|tx| {
                            let f = tx.read(base.offset(from))?;
                            let t_balance = tx.read(base.offset(to))?;
                            if from != to && f >= 10 {
                                tx.write(base.offset(from), f - 10)?;
                                tx.write(base.offset(to), t_balance + 10)?;
                            }
                            Ok(())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = (0..accounts).map(|i| stm.heap().load(base.offset(i))).sum();
        assert_eq!(total, initial * accounts as u64);
    }

    #[test]
    fn reader_spinning_on_locked_stripe_honours_remote_abort() {
        // Regression test: a reader spinning in the consistent-read loop on
        // a read-locked stripe must notice a remote abort request instead of
        // spinning until the lock is released.
        let stm = Arc::new(SwissTm::with_config(StmConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        // Simulate a writer stuck mid-commit: the stripe's read lock stays
        // locked for the whole test.
        stm.lock_table().entry(addr).lock_read();

        let reader_stm = Arc::clone(&stm);
        let reader = std::thread::spawn(move || {
            let mut ctx = ThreadContext::register(reader_stm).with_retry_budget(3);
            ctx.atomically(|tx| tx.read(addr))
        });
        // Keep requesting an abort (each attempt clears the flag) until the
        // reader gives up its retry budget. Without the abort check in the
        // read loop this never happens and the test hangs.
        while !reader.is_finished() {
            for shared in stm.registry().iter_registered() {
                shared.request_abort();
            }
            std::thread::yield_now();
        }
        let result = reader.join().unwrap();
        assert!(matches!(
            result,
            Err(stm_core::error::StmError::RetryBudgetExhausted { attempts: 3 })
        ));
        stm.lock_table().entry(addr).publish_version(0);
    }

    #[test]
    fn builder_respects_grain_shift() {
        let stm = SwissTm::builder()
            .config(
                StmConfig::small().with_lock_table(LockTableConfig::small().with_grain_shift(4)),
            )
            .build();
        assert_eq!(stm.grain_shift(), 4);
    }

    #[test]
    fn custom_contention_manager_is_used() {
        let stm = SwissTm::builder()
            .config(StmConfig::small())
            .contention_manager(Arc::new(stm_core::cm::Timid::new()))
            .build();
        assert_eq!(stm.contention_manager().name(), "timid");
        assert_eq!(
            SwissTm::with_config(StmConfig::small())
                .contention_manager()
                .name(),
            "two-phase"
        );
    }

    #[test]
    fn debug_output_mentions_algorithm_state() {
        let stm = SwissTm::with_config(StmConfig::small().with_heap(HeapConfig::small()));
        let dbg = format!("{stm:?}");
        assert!(dbg.contains("SwissTm"));
        assert!(dbg.contains("cm"));
    }

    #[test]
    fn validations_and_extensions_are_counted() {
        let counts = stm_core::testkit::validation_counts(&small_stm());
        assert_eq!(counts.quiet, (0, 0), "nobody else committed");
        assert_eq!(counts.fresh_read, (0, 1));
        assert_eq!(
            counts.busy_commit,
            (1, 0),
            "a non-quiescent commit validates"
        );
    }
}
