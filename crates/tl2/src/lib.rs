//! # TL2 baseline
//!
//! A reproduction of **Transactional Locking II** (Dice, Shalev and Shavit,
//! DISC 2006), the lazy, commit-time-locking, word-based STM the paper uses
//! as its "pure lazy" baseline.
//!
//! Key properties (paper §2.1 and §5):
//!
//! * **Lazy acquisition / commit-time locking.** Writes are buffered in a
//!   redo log; the per-stripe versioned locks are only acquired during
//!   commit. Write/write conflicts are therefore detected *late*, which is
//!   exactly the behaviour the paper criticises for long transactions
//!   (work performed after the conflict materialises is wasted). A read of
//!   an attempt that has written searches the redo log only when the log's
//!   address summary (TL2's Bloom filter) says the word may be its own.
//! * **Locking in write order.** Commit locks the written stripes in the
//!   order they were first written — TL2 locks "in any convenient order" —
//!   and takes a stripe several writes share once, by finding its own tag
//!   in the lock word. No global order is needed to stay deadlock-free; see
//!   the shared acquisition loop, `stm_core::engine::Engine::acquire`.
//! * **Invisible reads with a global version clock.** A transaction samples
//!   the global clock at start (`rv`); every read checks that the stripe's
//!   version is not newer than `rv` and that the stripe is unlocked,
//!   otherwise the transaction aborts (original TL2 does not extend its
//!   snapshot).
//! * **Timid contention management.** On any conflict the transaction
//!   aborts itself, optionally after a short back-off.
//!
//! The implementation is generic over the contention manager so the
//! dissection experiments can plug other policies, but the default is the
//! paper's (timid).
//!
//! Everything else — the descriptor, the read path, the shared acquisition
//! loop, release and publish — is the shared [`stm_core::engine`]. What
//! this crate decides is its policy on the paper's axes: it acquires at
//! commit, over the redo log; a read aborts on a stripe a committer holds
//! or on a version past `rv`; the snapshot is never extended and commit
//! validates GV5-style; the lock word is the one-word [`VersionedLock`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use stm_core::prelude::*;
//! use tl2::Tl2;
//!
//! let stm = Arc::new(Tl2::with_config(stm_core::config::StmConfig::small()));
//! let cell = stm.heap().alloc_zeroed(1).unwrap();
//! let mut ctx = ThreadContext::register(stm);
//! ctx.atomically(|tx| tx.write(cell, 5)).unwrap();
//! assert_eq!(ctx.read_word(cell).unwrap(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use stm_core::cm::{CmHandle, Timid};
use stm_core::engine::{Builder, Desc, Descriptor, Engine, OnHeld, Policy};
use stm_core::error::TxResult;
use stm_core::locktable::LockTable;
use stm_core::logs::WriteLog;
use stm_core::prelude::*;
use stm_core::telemetry::ConflictSite;
use stm_core::tm;

/// TL2's versioned lock — the lock word it shares with TinySTM: `version <<
/// 1` when free, `tag << 1 | 1` while held during a commit, `tag` being the
/// [`OwnerTag`](stm_core::logs::OwnerTag) that names the committer's slot
/// and the position of the stripe's record among the stripes its commit
/// has locked.
pub use stm_core::locktable::{LockState, VersionedLock};

/// Transaction descriptor of [`Tl2`]: `snapshot` is the read version `rv`,
/// the policy log the redo log, and the owned stripes are the ones the
/// current commit attempt has locked, with the version to restore on
/// failure; each held lock word names its record's position, which is how
/// read-set validation finds it.
pub type Tl2Descriptor = Descriptor<WriteLog>;

/// Builder for [`Tl2`] instances (default manager: [`Timid`]).
pub type Tl2Builder = Builder<Tl2>;

/// The TL2 software transactional memory (lazy / commit-time locking).
#[derive(Debug)]
pub struct Tl2 {
    engine: Engine<VersionedLock>,
}

impl Tl2 {
    /// Creates an instance with the benchmark configuration.
    pub fn new() -> Self {
        Tl2Builder::new().build()
    }

    /// Creates an instance with an explicit configuration.
    pub fn with_config(config: StmConfig) -> Self {
        Tl2Builder::new().config(config).build()
    }

    /// Returns a builder for customised instances.
    pub fn builder() -> Tl2Builder {
        Tl2Builder::new()
    }

    /// The lock table, exposed for diagnostics and for deterministic
    /// conflict rigs that stage stuck locks (see
    /// `stm_core::testkit::RecordingCm`). Application code never needs it.
    pub fn lock_table(&self) -> &LockTable<VersionedLock> {
        &self.engine.table
    }

    /// Current value of the global version clock.
    pub fn clock_value(&self) -> u64 {
        self.engine.clock.read()
    }

    /// The configured commit-clock mode.
    pub fn clock_mode(&self) -> ClockMode {
        self.engine.clock.mode()
    }

    /// Validates the read set: every read stripe must be free (or locked by
    /// this transaction during commit) with a version not newer than the
    /// transaction's read version.
    fn validate(&self, desc: &mut Tl2Descriptor) -> bool {
        desc.core.attempt_validations += 1;
        desc.read_log.iter().all(|entry| {
            match self.engine.table.entry_at(entry.lock_index).state() {
                LockState::Free { version } if version > desc.snapshot => {
                    // Classic GV5 catch-up: fold the too-new version into a
                    // deferred clock so the retry's snapshot covers it
                    // (no-op for the strict clock).
                    self.engine.clock.observe(version);
                    false
                }
                LockState::Free { .. } => true,
                // A stripe we locked during this commit names its record;
                // the version it carried just before we locked it must
                // still be covered by our read version, otherwise another
                // transaction committed it after our snapshot.
                LockState::Owned { owner, record } => {
                    owner == desc.core.slot && desc.owned.stripe(record).version <= desc.snapshot
                }
            }
        })
    }

    /// Locks the stripe of every write entry for the committing transaction,
    /// in first-write order, in the engine's acquisition loop (whose
    /// liveness argument covers this order). A stripe an earlier entry
    /// locked already carries this transaction's tag and is skipped, so each
    /// is locked and recorded once, at the position its lock word was given,
    /// and a failed commit's rollback releases it.
    fn lock_write_set(&self, desc: &mut Tl2Descriptor) -> TxResult<()> {
        let table = &self.engine.table;
        for entry in desc.policy.iter() {
            let stripe = (entry.lock_index, table.entry_at(entry.lock_index));
            let site = ConflictSite::Commit;
            (self.engine).acquire(&desc.core, &mut desc.owned, stripe, site)?;
        }
        Ok(())
    }

    /// A read of memory: the stripe sampled by the engine.
    #[inline(always)]
    fn read_memory(&self, desc: &mut Tl2Descriptor, addr: Addr) -> TxResult<Word> {
        let lock_index = self.engine.table.index_of(addr);
        let stripe = self.engine.table.entry_at(lock_index);
        self.finish_read(desc, lock_index, stripe, addr)
    }

    /// Read of a word the redo log's summary says may have been written: the
    /// redo log first.
    #[inline(never)]
    fn read_after_write(&self, desc: &mut Tl2Descriptor, addr: Addr) -> TxResult<Word> {
        match desc.policy.lookup(addr) {
            Some(value) => Ok(value),
            None => self.read_memory(desc, addr),
        }
    }
}

impl Default for Tl2 {
    fn default() -> Self {
        Tl2::new()
    }
}

/// Commit-time locking over the redo log.
impl Policy for Tl2 {
    type Stripe = VersionedLock;
    type Log = WriteLog;
    const NAME: &'static str = "TL2";
    /// A stripe held by a committer, or changed under the read, aborts the
    /// reader.
    const HELD: OnHeld = OnHeld::Abort;
    /// Original TL2 does not extend its snapshot: a version newer than `rv`
    /// aborts the reader.
    const EXTENDS: bool = false;

    fn default_cm() -> CmHandle {
        Arc::new(Timid::new())
    }

    fn assemble(engine: Engine<VersionedLock>) -> Self {
        Tl2 { engine }
    }

    fn engine(&self) -> &Engine<VersionedLock> {
        &self.engine
    }

    /// Inline for an attempt that has not written yet and reads a free
    /// stripe its `rv` covers. (A log-free attempt has no redo log to probe
    /// and no read log to push: the sample within `rv` is the whole read,
    /// and any other sample upgrades.)
    #[inline(always)]
    fn read_logged(&self, desc: &mut Desc<Self>, addr: Addr) -> TxResult<Word> {
        if !desc.policy.is_empty() && desc.policy.may_contain(addr) {
            return self.read_after_write(desc, addr);
        }
        self.read_memory(desc, addr)
    }

    fn write_word(&self, desc: &mut Desc<Self>, addr: Addr, value: Word) -> TxResult<()> {
        self.write_lazy(desc, addr, value)
    }

    /// Acquires every write-set stripe (commit-time locking): write/write
    /// conflicts surface only here — the "lazy" behaviour the paper
    /// dissects in Figure 6a. Then stamped, validated unless nothing could
    /// have changed, written back and released with the new version.
    #[inline(never)]
    fn commit_update(&self, desc: &mut Desc<Self>) -> TxResult<()> {
        if let Err(abort) = self.lock_write_set(desc) {
            return tm::doom(self, desc, abort);
        }
        self.commit_owned(desc, |desc| self.validate(desc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::config::StmConfig;
    use stm_core::tm::ThreadContext;

    fn small_stm() -> Arc<Tl2> {
        Arc::new(Tl2::with_config(StmConfig::small()))
    }

    #[test]
    fn read_your_own_writes() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(stm);
        let v = ctx
            .atomically(|tx| {
                tx.write(addr, 7)?;
                tx.read(addr)
            })
            .unwrap();
        assert_eq!(v, 7);
    }

    #[test]
    fn writes_are_invisible_until_commit() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let heap_view = Arc::clone(&stm);
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
        let _ = ctx.atomically(|tx| {
            tx.write(addr, 55)?;
            // Lazy STM: nothing is locked, nothing is written yet.
            assert_eq!(heap_view.heap().load(addr), 0);
            tx.retry::<()>()
        });
        assert_eq!(stm.heap().load(addr), 0);
    }

    #[test]
    fn counter_is_consistent_under_concurrency() {
        let stm = Arc::new(Tl2::with_config(StmConfig::small()));
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
    fn clock_advances_once_per_update_transaction() {
        let stm = small_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let before = stm.clock_value();
        ctx.atomically(|tx| tx.read(addr)).unwrap();
        assert_eq!(stm.clock_value(), before);
        ctx.atomically(|tx| tx.write(addr, 3)).unwrap();
        assert_eq!(stm.clock_value(), before + 1);
    }

    /// Six words that start a two-word stripe: words 0 and 1 share a stripe,
    /// words 2 and 4 start the next two.
    fn stripe_aligned_block(stm: &Tl2) -> Addr {
        let block = stm.heap().alloc_zeroed(7).unwrap();
        block.offset(block.index() % 2)
    }

    /// Commit locks a stripe once however many of its words were written,
    /// in the order the stripes were first written, and each lock word names
    /// the position of its record.
    #[test]
    fn written_words_of_one_stripe_take_one_lock_and_one_record() {
        let stm = small_stm();
        let block = stripe_aligned_block(&stm);
        let (first, second) = (
            stm.lock_table().index_of(block),
            stm.lock_table().index_of(block.offset(2)),
        );
        assert_eq!(stm.lock_table().index_of(block.offset(1)), first);
        let slot = stm.registry().register().unwrap();
        let mut desc = stm.create_descriptor(slot);
        stm.begin(&mut desc, false);
        // The second stripe is written first, then both words of the first:
        // the entry of word 0 finds the lock word 1's entry took.
        for (offset, value) in [(2, 7), (1, 8), (0, 9)] {
            stm.write(&mut desc, block.offset(offset), value).unwrap();
        }
        stm.lock_write_set(&mut desc).unwrap();
        let order = [second, first];
        let locked: Vec<usize> = desc.owned.stripes().iter().map(|s| s.lock_index).collect();
        assert_eq!(locked, order, "one record per stripe, in first-write order");
        for (record, &lock_index) in order.iter().enumerate() {
            assert_eq!(
                stm.lock_table().entry_at(lock_index).state(),
                LockState::Owned {
                    owner: slot,
                    record
                }
            );
        }
        stm.rollback(&mut desc);
        assert!(desc.owned.is_empty());
        for lock_index in order {
            assert_eq!(
                stm.lock_table().entry_at(lock_index).state(),
                LockState::Free { version: 0 }
            );
        }
        assert_eq!(stm.heap().load(block), 0, "nothing was written back");
    }

    /// A transaction that reads a stripe and then writes it validates that
    /// read against a lock it holds itself: the tag in the lock word leads to
    /// the version the stripe had when commit locked it. `rival_on_the_stripe`
    /// decides whether that version is still the one the read saw.
    fn read_then_write_attempts(rival_on_the_stripe: bool) -> u64 {
        let stm = small_stm();
        let block = stripe_aligned_block(&stm);
        let (word, neighbour, elsewhere) = (block, block.offset(1), block.offset(4));
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let mut rival = ThreadContext::register(Arc::clone(&stm));
        let mut attempts = 0;
        ctx.atomically(|tx| {
            attempts += 1;
            let value = tx.read(word)?;
            if attempts == 1 {
                // Either way the clock moves, so the commit must validate.
                let target = if rival_on_the_stripe {
                    neighbour
                } else {
                    elsewhere
                };
                rival.atomically(|tx2| tx2.write(target, 1)).unwrap();
            }
            tx.write(word, value + 10)
        })
        .unwrap();
        let stats = ctx.take_stats();
        assert_eq!(stats.validations, 1, "the first attempt's commit");
        assert_eq!(
            stats.aborts_by_reason.get("read-validation").copied(),
            (attempts > 1).then_some(1)
        );
        assert_eq!(stm.heap().load(word), 10);
        attempts
    }

    #[test]
    fn read_then_write_of_a_stripe_validates_through_the_tag() {
        assert_eq!(
            read_then_write_attempts(false),
            1,
            "nobody committed the stripe between the read and the lock"
        );
        assert_eq!(
            read_then_write_attempts(true),
            2,
            "a rival committed the stripe between the read and the lock"
        );
    }

    #[test]
    fn money_transfer_preserves_the_total() {
        let stm = Arc::new(Tl2::with_config(StmConfig::small()));
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
                    let mut rng = stm_core::backoff::FastRng::new(t as u64 + 11);
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
    fn builder_accepts_custom_cm() {
        let stm = Tl2::builder()
            .config(StmConfig::small())
            .contention_manager(Arc::new(stm_core::cm::Greedy::new()))
            .build();
        assert_eq!(stm.contention_manager().name(), "greedy");
        assert_eq!(
            Tl2::with_config(StmConfig::small())
                .contention_manager()
                .name(),
            "timid"
        );
    }

    #[test]
    fn validations_and_extensions_are_counted() {
        let counts = stm_core::testkit::validation_counts(&small_stm());
        assert_eq!(counts.quiet, (0, 0), "nobody else committed");
        // TL2 does not extend: the fresh read aborts the attempt and the retry
        // starts from a snapshot that covers it.
        assert_eq!(counts.fresh_read, (0, 0));
        assert_eq!(
            counts.busy_commit,
            (1, 0),
            "a non-quiescent commit validates"
        );
    }
}
