//! # TinySTM baseline
//!
//! A reproduction of **TinySTM** (Felber, Fetzer and Riegel, PPoPP 2008) in
//! its default *write-back, encounter-time locking* configuration — the
//! paper's "pure eager" word-based baseline.
//!
//! Key properties (paper §2.1 and §5):
//!
//! * **Encounter-time locking (eager acquisition).** A writer acquires the
//!   stripe's versioned lock at its *first* write, so write/write conflicts
//!   are detected immediately — the behaviour SwissTM keeps.
//! * **Eager read/write conflict detection.** A reader that encounters a
//!   stripe locked by another transaction aborts immediately (the paper's
//!   point 2 in the introduction: "read/write conflicts … are detected very
//!   early and resolved by aborting readers"). This is the behaviour
//!   SwissTM *relaxes* with its lazy read/write detection.
//! * **Time-based validation with snapshot extension** (the LSA scheme):
//!   reads are invisible and validated against a global clock, and the
//!   snapshot is extended when possible.
//! * **Timid contention management** with optional back-off.
//!
//! Everything else — the descriptor, the read path, validation, extension
//! and the contention-managed acquisition loop — is the shared
//! [`stm_core::engine`]. What this crate decides is its policy on the
//! paper's axes: it acquires at the first write, a logged read aborts on a
//! stripe another writer holds (and so does a log-free one, which stays
//! log-free), the snapshot is extended, and the lock word is the one-word
//! [`OwnedLock`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use stm_core::prelude::*;
//! use tinystm::TinyStm;
//!
//! let stm = Arc::new(TinyStm::with_config(stm_core::config::StmConfig::small()));
//! let cell = stm.heap().alloc_zeroed(1).unwrap();
//! let mut ctx = ThreadContext::register(stm);
//! ctx.atomically(|tx| tx.write(cell, 9)).unwrap();
//! assert_eq!(ctx.read_word(cell).unwrap(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use stm_core::cm::{CmHandle, Timid};
use stm_core::engine::{Builder, Descriptor, Engine, OnHeld, Policy};
use stm_core::locktable::LockTable;
use stm_core::prelude::*;

/// TinySTM's versioned lock — the lock word it shares with TL2: `version <<
/// 1` when free, `tag << 1 | 1` when owned by a writer, `tag` being the
/// [`OwnerTag`](stm_core::logs::OwnerTag) that names the owner's slot and
/// the position of the stripe's record in the owner's write log.
pub use stm_core::locktable::{LockState as OwnedLockState, VersionedLock as OwnedLock};

/// Transaction descriptor of [`TinyStm`]: the stripes it owns — with the
/// version to restore on abort — are the owned stripe records, which each
/// owned lock names by position, and its writes hang off them.
pub type TinyDescriptor = Descriptor<()>;

/// Builder for [`TinyStm`] instances (default manager: [`Timid`]).
pub type TinyStmBuilder = Builder<TinyStm>;

/// The TinySTM software transactional memory (encounter-time locking).
#[derive(Debug)]
pub struct TinyStm {
    engine: Engine<OwnedLock>,
}

impl TinyStm {
    /// Creates an instance with the benchmark configuration.
    pub fn new() -> Self {
        TinyStmBuilder::new().build()
    }

    /// Creates an instance with an explicit configuration.
    pub fn with_config(config: StmConfig) -> Self {
        TinyStmBuilder::new().config(config).build()
    }

    /// Returns a builder for customised instances.
    pub fn builder() -> TinyStmBuilder {
        TinyStmBuilder::new()
    }

    /// Current value of the global clock.
    pub fn clock_value(&self) -> u64 {
        self.engine.clock.read()
    }

    /// The configured commit-clock mode.
    pub fn clock_mode(&self) -> ClockMode {
        self.engine.clock.mode()
    }

    /// The lock table, exposed for diagnostics and for deterministic
    /// conflict rigs that stage stuck locks (see
    /// `stm_core::testkit::RecordingCm`). Application code never needs it.
    pub fn lock_table(&self) -> &LockTable<OwnedLock> {
        &self.engine.table
    }
}

impl Default for TinyStm {
    fn default() -> Self {
        TinyStm::new()
    }
}

/// Encounter-time locking: the engine's default read, write and commit.
impl Policy for TinyStm {
    type Stripe = OwnedLock;
    type Log = ();
    const NAME: &'static str = "TinySTM";
    /// Eager read/write conflict detection: a stripe owned by another writer
    /// aborts the reader immediately (TinySTM encounter-time locking
    /// behaviour the paper contrasts with SwissTM).
    const HELD: OnHeld = OnHeld::Abort;
    /// A log-free attempt owns no stripe, so an owned stripe is a writer's
    /// and aborts the reader as the logged read does — the retry stays
    /// log-free.
    const LOG_FREE_HELD: Abort = Abort::READ_LOCKED;

    fn default_cm() -> CmHandle {
        Arc::new(Timid::new())
    }

    fn assemble(engine: Engine<OwnedLock>) -> Self {
        TinyStm { engine }
    }

    fn engine(&self) -> &Engine<OwnedLock> {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::config::StmConfig;
    use stm_core::tm::ThreadContext;

    fn small_stm() -> Arc<TinyStm> {
        Arc::new(TinyStm::with_config(StmConfig::small()))
    }

    #[test]
    fn read_your_own_writes() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(stm);
        let v = ctx
            .atomically(|tx| {
                tx.write(addr, 3)?;
                tx.read(addr)
            })
            .unwrap();
        assert_eq!(v, 3);
    }

    #[test]
    fn eager_acquisition_locks_the_stripe_before_commit() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let probe = Arc::clone(&stm);
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
        let _ = ctx.atomically(|tx| {
            tx.write(addr, 1)?;
            // Encounter-time locking: the stripe is owned right now even
            // though the transaction has not committed.
            let lock = probe.lock_table().entry(addr);
            assert!(matches!(lock.state(), OwnedLockState::Owned { .. }));
            tx.retry::<()>()
        });
        // After the abort the lock must have been restored.
        let lock = stm.lock_table().entry(addr);
        assert!(matches!(lock.state(), OwnedLockState::Free { .. }));
        assert_eq!(stm.heap().load(addr), 0);
    }

    #[test]
    fn counter_is_consistent_under_concurrency() {
        let stm = Arc::new(TinyStm::with_config(StmConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let stm = Arc::clone(&stm);
                std::thread::spawn(move || {
                    let mut ctx = ThreadContext::register(stm);
                    for _ in 0..500 {
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
        assert_eq!(stm.heap().load(addr), 2000);
    }

    #[test]
    fn money_transfer_preserves_the_total() {
        let stm = Arc::new(TinyStm::with_config(StmConfig::small()));
        let accounts = 8usize;
        let base = stm.heap().alloc_zeroed(accounts).unwrap();
        for i in 0..accounts {
            stm.heap().store(base.offset(i), 1000);
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let stm = Arc::clone(&stm);
                std::thread::spawn(move || {
                    let mut ctx = ThreadContext::register(stm);
                    let mut rng = stm_core::backoff::FastRng::new(t as u64 + 21);
                    for _ in 0..400 {
                        let from = rng.next_below(accounts as u64) as usize;
                        let to = rng.next_below(accounts as u64) as usize;
                        ctx.atomically(|tx| {
                            let f = tx.read(base.offset(from))?;
                            let t_bal = tx.read(base.offset(to))?;
                            if from != to && f >= 10 {
                                tx.write(base.offset(from), f - 10)?;
                                tx.write(base.offset(to), t_bal + 10)?;
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
        assert_eq!(total, 8000);
    }

    #[test]
    fn clock_advances_once_per_update_transaction() {
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
    fn builder_accepts_custom_cm() {
        let stm = TinyStm::builder()
            .config(StmConfig::small())
            .contention_manager(Arc::new(stm_core::cm::Timid::with_backoff()))
            .build();
        assert_eq!(stm.contention_manager().name(), "timid+backoff");
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
