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

use stm_core::clock::{ThreadRegistry, ThreadSlot, TxClock, TxShared};
use stm_core::cm::{CmHandle, ContentionManager, InstalledCm, Resolution, Timid};
use stm_core::config::StmConfig;
use stm_core::error::{Abort, TxResult};
use stm_core::heap::TmHeap;
use stm_core::locktable::LockTable;
use stm_core::logs::{OwnedWriteLog, ReadEntry, ReadLog};
use stm_core::telemetry::{self, ConflictSite, WaitTimer};
use stm_core::tm::{self, DescriptorCore, TmAlgorithm, TxDescriptor};
use stm_core::word::{Addr, Word};

/// TinySTM's versioned lock — the lock word it shares with TL2: `version <<
/// 1` when free, `tag << 1 | 1` when owned by a writer, `tag` being the
/// [`OwnerTag`](stm_core::logs::OwnerTag) that names the owner's slot and
/// the position of the stripe's record in the owner's write log.
pub use stm_core::locktable::{LockState as OwnedLockState, VersionedLock as OwnedLock};

/// Transaction descriptor of [`TinyStm`].
///
/// The stripes owned by the transaction — with the version to restore on
/// abort — are the write log's stripe records, which each owned lock names
/// by position.
#[derive(Debug)]
pub struct TinyDescriptor {
    core: DescriptorCore,
    /// Snapshot timestamp (start or last successful extension).
    valid_ts: u64,
    read_log: ReadLog,
    write_log: OwnedWriteLog,
}

impl TxDescriptor for TinyDescriptor {
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

/// Builder for [`TinyStm`] instances.
#[derive(Debug)]
pub struct TinyStmBuilder {
    config: StmConfig,
    cm: Option<CmHandle>,
}

impl TinyStmBuilder {
    /// Starts a builder with the default configuration.
    pub fn new() -> Self {
        TinyStmBuilder {
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
    pub fn build(self) -> TinyStm {
        TinyStm {
            heap: TmHeap::new(self.config.heap),
            registry: ThreadRegistry::new(),
            lock_table: LockTable::new(self.config.lock_table),
            clock: TxClock::new(self.config.clock),
            cm: InstalledCm::new(self.cm.unwrap_or_else(|| Arc::new(Timid::new()))),
        }
    }
}

impl Default for TinyStmBuilder {
    fn default() -> Self {
        TinyStmBuilder::new()
    }
}

/// The TinySTM software transactional memory (encounter-time locking).
pub struct TinyStm {
    heap: TmHeap,
    registry: ThreadRegistry,
    lock_table: LockTable<OwnedLock>,
    clock: TxClock,
    cm: InstalledCm,
}

impl std::fmt::Debug for TinyStm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TinyStm")
            .field("lock_table_entries", &self.lock_table.len())
            .field("clock", &self.clock.read())
            .field("cm", &self.cm.name())
            .finish()
    }
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
        self.clock.read()
    }

    /// The configured commit-clock mode.
    pub fn clock_mode(&self) -> stm_core::config::ClockMode {
        self.clock.mode()
    }

    /// The lock table, exposed for diagnostics and for deterministic
    /// conflict rigs that stage stuck locks (see
    /// `stm_core::testkit::RecordingCm`). Application code never needs it.
    pub fn lock_table(&self) -> &LockTable<OwnedLock> {
        &self.lock_table
    }

    fn shared_of(&self, slot: ThreadSlot) -> &Arc<TxShared> {
        self.registry.shared(slot)
    }

    /// Validates a slice of read-log entries. The self-owned stripe check
    /// is O(1): the owned lock word names the stripe's record.
    fn entries_valid(&self, me: ThreadSlot, log: &OwnedWriteLog, entries: &[ReadEntry]) -> bool {
        for entry in entries {
            let lock = self.lock_table.entry_at(entry.lock_index);
            match lock.state() {
                OwnedLockState::Free { version } => {
                    if version != entry.version {
                        return false;
                    }
                }
                OwnedLockState::Owned { owner, record } => {
                    // We own the stripe, so its version word is hidden behind
                    // the lock — but the version it carried when we acquired
                    // it must equal the one this read observed, otherwise
                    // another transaction committed in between.
                    if owner != me || log.stripe(record).version != entry.version {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Full read-set validation (used by the commit path).
    fn validate(&self, desc: &mut TinyDescriptor) -> bool {
        desc.core.attempt_validations += 1;
        self.entries_valid(desc.core.slot, &desc.write_log, desc.read_log.entries())
    }

    /// Snapshot extension (the LSA scheme) for a stripe `version` beyond the
    /// snapshot, or the attempt's abort. The version is folded into a
    /// deferred clock first, so the new snapshot reaches at least it.
    /// [`ReadLog::extend_with`] orders the work — fresh suffix first, then
    /// the opacity-mandated re-confirmation of the validated prefix.
    #[cold]
    #[inline(never)]
    fn extend(&self, desc: &mut TinyDescriptor, version: u64) -> TxResult<()> {
        self.clock.observe(version);
        let ts = self.clock.read();
        let slot = desc.core.slot;
        let write_log = &desc.write_log;
        if !desc
            .read_log
            .extend_with(|entries| self.entries_valid(slot, write_log, entries))
        {
            return tm::doom(self, desc, Abort::READ_VALIDATION);
        }
        desc.valid_ts = ts;
        desc.core.attempt_extensions += 1;
        Ok(())
    }

    /// Restores every owned stripe's pre-acquisition version. The stripe
    /// records themselves are cleared with the write log by the caller.
    fn release_locks(&self, desc: &mut TinyDescriptor) {
        for stripe in desc.write_log.stripes() {
            self.lock_table
                .entry_at(stripe.lock_index)
                .restore(stripe.version);
        }
    }

    /// The end of every sampled read the inline path does not finish itself:
    /// the log has to grow, the contention manager wants its `on_read`
    /// called, or the version is beyond the snapshot.
    #[cold]
    #[inline(never)]
    fn log_read(
        &self,
        desc: &mut TinyDescriptor,
        lock_index: usize,
        value: Word,
        version: u64,
    ) -> TxResult<Word> {
        desc.read_log.push(lock_index, version);
        self.cm.on_read(&desc.core.shared, desc.read_log.len());
        if version > desc.valid_ts {
            self.extend(desc, version)?;
        }
        Ok(value)
    }
}

impl Default for TinyStm {
    fn default() -> Self {
        TinyStm::new()
    }
}

impl TmAlgorithm for TinyStm {
    type Descriptor = TinyDescriptor;

    fn name(&self) -> &'static str {
        "TinySTM"
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

    fn create_descriptor(&self, slot: ThreadSlot) -> TinyDescriptor {
        TinyDescriptor {
            core: DescriptorCore::new(slot, Arc::clone(self.shared_of(slot))),
            valid_ts: 0,
            read_log: ReadLog::new(),
            write_log: OwnedWriteLog::new(),
        }
    }

    #[inline]
    fn begin(&self, desc: &mut TinyDescriptor, is_restart: bool) {
        desc.core.reset_attempt();
        desc.read_log.clear();
        desc.write_log.clear();
        desc.valid_ts = self.clock.read();
        self.cm.on_start(&desc.core.shared, is_restart);
    }

    /// Log-free unless the manager wants every read hook.
    #[inline]
    fn begin_read_only(&self, desc: &mut TinyDescriptor, is_restart: bool) -> bool {
        self.begin(desc, is_restart);
        desc.core.read_only = self.cm.admits_log_free_reads();
        desc.core.read_only
    }

    /// Inline for a live attempt reading a free stripe its snapshot covers:
    /// straight-line, every way out a tail call.
    /// (`always`: LLVM declines the plain hint at this size.)
    ///
    /// A log-free attempt owns no stripe, so an owned stripe is a writer's
    /// and aborts the reader as the logged read does — the retry stays
    /// log-free; any other sample it cannot use upgrades it.
    #[inline(always)]
    fn read(&self, desc: &mut TinyDescriptor, addr: Addr) -> TxResult<Word> {
        if desc.core.read_only {
            desc.core.attempt_reads += 1;
            let lock = self.lock_table.entry(addr);
            let pre = lock.sample();
            let OwnedLockState::Free { version } = OwnedLock::decode(pre) else {
                return tm::doom(self, desc, Abort::READ_LOCKED);
            };
            let value = self.heap.load(addr);
            if lock.sample() == pre && version <= desc.valid_ts {
                return Ok(value);
            }
            return tm::upgrade(self, desc, &self.clock, version);
        }
        if desc.core.refused() {
            return tm::refuse(self, desc);
        }
        desc.core.attempt_reads += 1;

        let lock_index = self.lock_table.index_of(addr);
        let lock = self.lock_table.entry_at(lock_index);

        // Read from our own redo log if we own the stripe.
        if let Some(record) = lock.owned_record(desc.core.slot) {
            return desc.write_log.read_owned(&self.heap, record, addr);
        }

        // Eager read/write conflict detection: a stripe owned by another
        // writer aborts the reader immediately (TinySTM encounter-time
        // locking behaviour the paper contrasts with SwissTM).
        let pre = lock.sample();
        let OwnedLockState::Free { version } = OwnedLock::decode(pre) else {
            return tm::doom(self, desc, Abort::READ_LOCKED);
        };
        let value = self.heap.load(addr);
        if lock.sample() != pre {
            return tm::doom(self, desc, Abort::READ_VALIDATION);
        }
        if version <= desc.valid_ts
            && self.cm.on_inline_read(&desc.core.shared, || {
                desc.read_log.try_push(lock_index, version)
            })
        {
            return Ok(value);
        }
        self.log_read(desc, lock_index, value, version)
    }

    /// Inline up to the case of a stripe the transaction already owns.
    #[inline]
    fn write(&self, desc: &mut TinyDescriptor, addr: Addr, value: Word) -> TxResult<()> {
        if desc.core.refused() {
            return tm::refuse(self, desc);
        }
        desc.core.attempt_writes += 1;

        let lock_index = self.lock_table.index_of(addr);
        let lock = self.lock_table.entry_at(lock_index);

        if let Some(record) = lock.owned_record(desc.core.slot) {
            desc.write_log.write(record, addr, value);
            return Ok(());
        }
        self.acquire_and_write(desc, lock, lock_index, addr, value)
    }

    /// Inline for a read-only transaction.
    #[inline]
    fn commit(&self, desc: &mut TinyDescriptor) -> TxResult<()> {
        if desc.core.refused() {
            return tm::refuse(self, desc);
        }
        if desc.write_log.is_empty() {
            desc.read_log.clear();
            return Ok(());
        }
        self.commit_update(desc)
    }

    fn rollback(&self, desc: &mut TinyDescriptor) {
        self.release_locks(desc);
        desc.read_log.clear();
        desc.write_log.clear();
        desc.core.doomed = false;
    }
}

/// The out-of-line halves of `write` and `commit`.
impl TinyStm {
    /// First write to a stripe.
    #[inline(never)]
    fn acquire_and_write(
        &self,
        desc: &mut TinyDescriptor,
        lock: &OwnedLock,
        lock_index: usize,
        addr: Addr,
        value: Word,
    ) -> TxResult<()> {
        if desc.core.read_only {
            // Not performed, so not an access: take back the inline count.
            desc.core.attempt_writes -= 1;
            return tm::upgrade(self, desc, &self.clock, 0);
        }
        // Encounter-time acquisition with contention management. The wait
        // timer starts lazily on the first contended iteration and records
        // the loop's wall-clock time on every exit path.
        let mut wait_timer: Option<WaitTimer> = None;
        let version = loop {
            match lock.state() {
                OwnedLockState::Free { version } => {
                    let record = desc.write_log.stripe_count();
                    if lock.try_acquire(desc.core.slot, record, version) {
                        break version;
                    }
                }
                OwnedLockState::Owned { owner, .. } => {
                    // Only this thread stores its own tag, and `write` found
                    // the lock not ours.
                    assert_ne!(owner, desc.core.slot, "write() resolves owned stripes");
                    if wait_timer.is_none() {
                        wait_timer = Some(WaitTimer::start(&desc.core.shared));
                    }
                    match telemetry::resolve_recorded(
                        &*self.cm,
                        &desc.core.shared,
                        self.shared_of(owner),
                        ConflictSite::Write,
                    ) {
                        Resolution::AbortSelf => {
                            return tm::doom(self, desc, Abort::WRITE_CONFLICT);
                        }
                        Resolution::AbortOther | Resolution::Wait => stm_core::sync::spin_loop(),
                    }
                    if desc.core.shared.abort_requested() {
                        return tm::doom(self, desc, Abort::REMOTE);
                    }
                }
            }
        };
        drop(wait_timer);

        let record = desc.write_log.push_stripe(lock_index, version);
        desc.write_log.write(record, addr, value);
        self.cm
            .on_write(&desc.core.shared, desc.write_log.stripe_count());

        if version > desc.valid_ts {
            self.extend(desc, version)?;
        }
        Ok(())
    }

    /// Commit of an update transaction.
    #[inline(never)]
    fn commit_update(&self, desc: &mut TinyDescriptor) -> TxResult<()> {
        // Stamped with the whole write set already owned (encounter-time
        // locking): a deferred clock's committer-side fence sits between
        // those acquisitions and its clock read (see `TxClock`).
        let stamp = self.clock.commit_stamp(desc.valid_ts);
        let ts = stamp.ts;
        if stamp.needs_validation() && !self.validate(desc) {
            return tm::doom(self, desc, Abort::READ_VALIDATION);
        }

        for entry in desc.write_log.entries() {
            self.heap.store(entry.addr, entry.value);
        }
        for stripe in desc.write_log.stripes() {
            self.lock_table.entry_at(stripe.lock_index).publish(ts);
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
            let lock = probe.lock_table.entry(addr);
            assert!(matches!(lock.state(), OwnedLockState::Owned { .. }));
            tx.retry::<()>()
        });
        // After the abort the lock must have been restored.
        let lock = stm.lock_table.entry(addr);
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
