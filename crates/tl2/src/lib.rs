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
//!   the lock loop, `Tl2::lock_write_set`.
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

use stm_core::clock::{ThreadRegistry, ThreadSlot, TxClock, TxShared};
use stm_core::cm::{CmHandle, ContentionManager, InstalledCm, Resolution, Timid};
use stm_core::config::StmConfig;
use stm_core::error::{Abort, TxResult};
use stm_core::heap::TmHeap;
use stm_core::locktable::LockTable;
use stm_core::logs::{ReadLog, StripeRecord, WriteLog};
use stm_core::telemetry::{self, ConflictSite, WaitTimer};
use stm_core::tm::{self, DescriptorCore, TmAlgorithm, TxDescriptor};
use stm_core::word::{Addr, Word};

/// TL2's versioned lock — the lock word it shares with TinySTM: `version <<
/// 1` when free, `tag << 1 | 1` while held during a commit, `tag` being the
/// [`OwnerTag`](stm_core::logs::OwnerTag) that names the committer's slot
/// and the position of the stripe's record among the stripes its commit
/// has locked.
pub use stm_core::locktable::{LockState, VersionedLock};

/// Transaction descriptor of [`Tl2`].
#[derive(Debug)]
pub struct Tl2Descriptor {
    core: DescriptorCore,
    /// Read version: global-clock sample taken at transaction start.
    rv: u64,
    read_log: ReadLog,
    write_log: WriteLog,
    /// Stripes locked during the current commit attempt, with the version to
    /// restore on failure; each held lock word names its record's position,
    /// which is how read-set validation finds it.
    commit_locked: Vec<StripeRecord>,
}

impl TxDescriptor for Tl2Descriptor {
    fn core(&self) -> &DescriptorCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut DescriptorCore {
        &mut self.core
    }

    fn is_read_only(&self) -> bool {
        self.write_log.is_empty()
    }
}

/// Builder for [`Tl2`] instances.
#[derive(Debug)]
pub struct Tl2Builder {
    config: StmConfig,
    cm: Option<CmHandle>,
}

impl Tl2Builder {
    /// Starts a builder with the default (paper) configuration.
    pub fn new() -> Self {
        Tl2Builder {
            config: StmConfig::benchmark(),
            cm: None,
        }
    }

    /// Sets the heap and lock-table configuration.
    pub fn config(mut self, config: StmConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the contention manager (default: [`Timid`]).
    pub fn contention_manager(mut self, cm: CmHandle) -> Self {
        self.cm = Some(cm);
        self
    }

    /// Builds the STM instance.
    pub fn build(self) -> Tl2 {
        Tl2 {
            heap: TmHeap::new(self.config.heap),
            registry: ThreadRegistry::new(),
            lock_table: LockTable::new(self.config.lock_table),
            clock: TxClock::new(self.config.clock),
            cm: InstalledCm::new(self.cm.unwrap_or_else(|| Arc::new(Timid::new()))),
        }
    }
}

impl Default for Tl2Builder {
    fn default() -> Self {
        Tl2Builder::new()
    }
}

/// The TL2 software transactional memory (lazy / commit-time locking).
pub struct Tl2 {
    heap: TmHeap,
    registry: ThreadRegistry,
    lock_table: LockTable<VersionedLock>,
    clock: TxClock,
    cm: InstalledCm,
}

impl std::fmt::Debug for Tl2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tl2")
            .field("lock_table_entries", &self.lock_table.len())
            .field("clock", &self.clock.read())
            .field("cm", &self.cm.name())
            .finish()
    }
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
        &self.lock_table
    }

    /// Current value of the global version clock.
    pub fn clock_value(&self) -> u64 {
        self.clock.read()
    }

    /// The configured commit-clock mode.
    pub fn clock_mode(&self) -> stm_core::config::ClockMode {
        self.clock.mode()
    }

    fn shared_of(&self, slot: ThreadSlot) -> &Arc<TxShared> {
        self.registry.shared(slot)
    }

    /// Validates the read set: every read stripe must be free (or locked by
    /// this transaction during commit) with a version not newer than the
    /// transaction's read version.
    fn validate(&self, desc: &mut Tl2Descriptor) -> bool {
        desc.core.attempt_validations += 1;
        for entry in desc.read_log.iter() {
            let lock = self.lock_table.entry_at(entry.lock_index);
            match lock.state() {
                LockState::Free { version } => {
                    if version > desc.rv {
                        // Classic GV5 catch-up: fold the too-new version
                        // into a deferred clock so the retry's snapshot
                        // covers it (no-op for the strict clock).
                        self.clock.observe(version);
                        return false;
                    }
                }
                LockState::Owned { owner, record } => {
                    // A stripe we locked during this commit names its record;
                    // the version it carried just before we locked it must
                    // still be covered by our read version, otherwise another
                    // transaction committed it after our snapshot.
                    if owner != desc.core.slot || desc.commit_locked[record].version > desc.rv {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn release_commit_locks(&self, desc: &mut Tl2Descriptor) {
        for stripe in desc.commit_locked.drain(..) {
            self.lock_table
                .entry_at(stripe.lock_index)
                .restore(stripe.version);
        }
    }

    /// Locks the stripe of every write entry for the committing transaction,
    /// in first-write order, consulting the contention manager on
    /// conflicts. A stripe an earlier entry locked already carries this
    /// transaction's tag and is skipped, so each is locked and recorded
    /// once. Successfully locked stripes are recorded in `commit_locked`
    /// (with their pre-lock version), at the position the lock word was
    /// given, so the caller can release them on any failure path.
    ///
    /// There is no global lock order, so two committers may each hold a
    /// stripe the other wants. That cannot deadlock, because no conflict
    /// here is waited out for ever: every manager's `resolve` ends it in
    /// `AbortSelf` (this commit fails and releases what it holds),
    /// `AbortOther` (the owner is asked to abort; an owner stuck in this
    /// same loop sees the request below and releases), or a bounded `Wait`
    /// (Polka's budget) that the waiter cuts short when it is itself asked
    /// to abort. The encounter-time lockers acquire in program order on the
    /// same argument.
    fn lock_write_set(&self, desc: &mut Tl2Descriptor) -> TxResult<()> {
        for entry in desc.write_log.iter() {
            let lock = self.lock_table.entry_at(entry.lock_index);
            // Per-stripe lazily started wait timer, scoped exactly like the
            // encounter-time STMs' timers: it covers one conflict episode
            // (first contended attempt until this stripe is resolved either
            // way) and drops at the end of the stripe's iteration, so
            // uncontended acquisitions of the remaining write set are never
            // billed as CM wait time.
            let mut wait_timer: Option<WaitTimer> = None;
            loop {
                match lock.state() {
                    LockState::Free { version } => {
                        let record = desc.commit_locked.len();
                        if lock.try_acquire(desc.core.slot, record, version) {
                            desc.commit_locked.push(StripeRecord {
                                lock_index: entry.lock_index,
                                version,
                            });
                            break;
                        }
                    }
                    // Only this thread stores its own tag: an earlier entry
                    // of the stripe locked it.
                    LockState::Owned { owner, .. } if owner == desc.core.slot => break,
                    LockState::Owned { owner, .. } => {
                        if wait_timer.is_none() {
                            wait_timer = Some(WaitTimer::start(&desc.core.shared));
                        }
                        match telemetry::resolve_recorded(
                            &*self.cm,
                            &desc.core.shared,
                            self.shared_of(owner),
                            ConflictSite::Commit,
                        ) {
                            Resolution::AbortSelf => {
                                return Err(Abort::WRITE_CONFLICT);
                            }
                            Resolution::AbortOther | Resolution::Wait => {
                                stm_core::sync::spin_loop()
                            }
                        }
                        if desc.core.shared.abort_requested() {
                            return Err(Abort::REMOTE);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Read of a word the redo log's summary says may have been written: the
    /// redo log first.
    #[inline(never)]
    fn read_after_write(&self, desc: &mut Tl2Descriptor, addr: Addr) -> TxResult<Word> {
        match desc.write_log.lookup(addr) {
            Some(value) => Ok(value),
            None => self.read_memory(desc, addr),
        }
    }

    /// Post-validated sample: lock word, value, lock word again. The value
    /// and the stripe's version when the stripe was free and unchanged
    /// across the load, otherwise the second lock-word state.
    #[inline(always)]
    fn sample(&self, lock: &VersionedLock, addr: Addr) -> Result<(Word, u64), LockState> {
        let pre = lock.sample();
        let value = self.heap.load(addr);
        let post = lock.sample();
        match VersionedLock::decode(post) {
            LockState::Free { version } if pre == post => Ok((value, version)),
            post => Err(post),
        }
    }

    /// Post-validated read: the sample must be of a free, unchanged stripe
    /// not newer than rv.
    #[inline(always)]
    fn read_memory(&self, desc: &mut Tl2Descriptor, addr: Addr) -> TxResult<Word> {
        let lock_index = self.lock_table.index_of(addr);
        match self.sample(self.lock_table.entry_at(lock_index), addr) {
            Ok((value, version)) if version <= desc.rv => {
                if self.cm.on_inline_read(&desc.core.shared, || {
                    desc.read_log.try_push(lock_index, version)
                }) {
                    return Ok(value);
                }
                self.log_read(desc, lock_index, value, version)
            }
            Ok((_, version)) => self.read_conflict(desc, LockState::Free { version }),
            Err(post) => self.read_conflict(desc, post),
        }
    }

    /// A read whose stripe is held by a committer, changed under the read,
    /// or is newer than rv.
    #[cold]
    #[inline(never)]
    fn read_conflict(&self, desc: &mut Tl2Descriptor, post: LockState) -> TxResult<Word> {
        let LockState::Free { version } = post else {
            return tm::doom(self, desc, Abort::READ_LOCKED);
        };
        // GV5 catch-up before aborting, so the retry starts with a
        // snapshot that covers the version we just tripped over.
        self.clock.observe(version);
        tm::doom(self, desc, Abort::READ_VALIDATION)
    }

    /// The end of a valid read the inline path does not finish itself: the
    /// log has to grow, or the contention manager wants its `on_read` called.
    #[cold]
    #[inline(never)]
    fn log_read(
        &self,
        desc: &mut Tl2Descriptor,
        lock_index: usize,
        value: Word,
        version: u64,
    ) -> TxResult<Word> {
        desc.read_log.push(lock_index, version);
        self.cm.on_read(&desc.core.shared, desc.read_log.len());
        Ok(value)
    }
}

impl Default for Tl2 {
    fn default() -> Self {
        Tl2::new()
    }
}

impl TmAlgorithm for Tl2 {
    type Descriptor = Tl2Descriptor;

    fn name(&self) -> &'static str {
        "TL2"
    }

    fn heap(&self) -> &TmHeap {
        &self.heap
    }

    fn registry(&self) -> &ThreadRegistry {
        &self.registry
    }

    fn contention_manager(&self) -> &dyn ContentionManager {
        &*self.cm
    }

    fn create_descriptor(&self, slot: ThreadSlot) -> Tl2Descriptor {
        Tl2Descriptor {
            core: DescriptorCore::new(slot, Arc::clone(self.shared_of(slot))),
            rv: 0,
            read_log: ReadLog::new(),
            write_log: WriteLog::new(),
            commit_locked: Vec::with_capacity(16),
        }
    }

    #[inline]
    fn begin(&self, desc: &mut Tl2Descriptor, is_restart: bool) {
        desc.core.reset_attempt();
        desc.read_log.clear();
        desc.write_log.clear();
        desc.commit_locked.clear();
        desc.rv = self.clock.read();
        self.cm.on_start(&desc.core.shared, is_restart);
    }

    /// TL2's read-only mode, unless the manager wants every read hook.
    #[inline]
    fn begin_read_only(&self, desc: &mut Tl2Descriptor, is_restart: bool) -> bool {
        self.begin(desc, is_restart);
        desc.core.read_only = self.cm.admits_log_free_reads();
        desc.core.read_only
    }

    /// Inline for a live attempt that has not written yet and reads a free
    /// stripe its `rv` covers: straight-line, every way out a tail call.
    /// (`always`: LLVM declines the plain hint at this size.) A log-free
    /// attempt has no redo log to probe and no read log to push: the sample
    /// within `rv` is the whole read, and any other sample upgrades.
    #[inline(always)]
    fn read(&self, desc: &mut Tl2Descriptor, addr: Addr) -> TxResult<Word> {
        if desc.core.read_only {
            desc.core.attempt_reads += 1;
            return match self.sample(self.lock_table.entry(addr), addr) {
                Ok((value, version)) if version <= desc.rv => Ok(value),
                Ok((_, version)) | Err(LockState::Free { version }) => {
                    tm::upgrade(self, desc, &self.clock, version)
                }
                Err(LockState::Owned { .. }) => tm::upgrade(self, desc, &self.clock, 0),
            };
        }
        if desc.core.refused() {
            return tm::refuse(self, desc);
        }
        desc.core.attempt_reads += 1;
        if !desc.write_log.is_empty() && desc.write_log.may_contain(addr) {
            return self.read_after_write(desc, addr);
        }
        self.read_memory(desc, addr)
    }

    fn write(&self, desc: &mut Tl2Descriptor, addr: Addr, value: Word) -> TxResult<()> {
        if desc.core.refused() {
            return tm::refuse(self, desc);
        }
        if desc.core.read_only {
            return tm::upgrade(self, desc, &self.clock, 0);
        }
        desc.core.attempt_writes += 1;
        // Lazy acquisition: just buffer the write — one probe of the redo
        // log's address index. Commit derives the stripes to lock from the
        // entries.
        let lock_index = self.lock_table.index_of(addr);
        desc.write_log.record(addr, value, lock_index, 0);
        self.cm.on_write(&desc.core.shared, desc.write_log.len());
        Ok(())
    }

    /// Inline for a read-only transaction.
    #[inline]
    fn commit(&self, desc: &mut Tl2Descriptor) -> TxResult<()> {
        if desc.core.refused() {
            return tm::refuse(self, desc);
        }
        if desc.write_log.is_empty() {
            desc.read_log.clear();
            return Ok(());
        }
        self.commit_update(desc)
    }

    fn rollback(&self, desc: &mut Tl2Descriptor) {
        self.release_commit_locks(desc);
        desc.read_log.clear();
        desc.write_log.clear();
        desc.core.doomed = false;
    }
}

impl Tl2 {
    /// Commit of an update transaction.
    #[inline(never)]
    fn commit_update(&self, desc: &mut Tl2Descriptor) -> TxResult<()> {
        // Acquire every write-set stripe (commit-time locking). Write/write
        // conflicts surface only here — the "lazy" behaviour the paper
        // dissects in Figure 6a. Each stripe once, in write order.
        if let Err(abort) = self.lock_write_set(desc) {
            return tm::doom(self, desc, abort);
        }

        // Stamped after the write set is locked: a deferred clock's
        // committer-side fence sits between the lock stores above and its
        // clock read (see `TxClock`).
        let stamp = self.clock.commit_stamp(desc.rv);
        let wv = stamp.ts;

        // Validate the read set unless nothing could have changed.
        if stamp.needs_validation() && !self.validate(desc) {
            return tm::doom(self, desc, Abort::READ_VALIDATION);
        }

        // Write back and release with the new version.
        for entry in desc.write_log.iter() {
            self.heap.store(entry.addr, entry.value);
        }
        for stripe in desc.commit_locked.drain(..) {
            self.lock_table.entry_at(stripe.lock_index).publish(wv);
        }
        desc.read_log.clear();
        desc.write_log.clear();
        Ok(())
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
            stm.lock_table.index_of(block),
            stm.lock_table.index_of(block.offset(2)),
        );
        assert_eq!(stm.lock_table.index_of(block.offset(1)), first);
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
        let locked: Vec<usize> = desc.commit_locked.iter().map(|s| s.lock_index).collect();
        assert_eq!(locked, order, "one record per stripe, in first-write order");
        for (record, &lock_index) in order.iter().enumerate() {
            assert_eq!(
                stm.lock_table.entry_at(lock_index).state(),
                LockState::Owned {
                    owner: slot,
                    record
                }
            );
        }
        stm.rollback(&mut desc);
        assert!(desc.commit_locked.is_empty());
        for lock_index in order {
            assert_eq!(
                stm.lock_table.entry_at(lock_index).state(),
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
