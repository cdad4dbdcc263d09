//! The SwissTM algorithm (paper Algorithm 1) on top of `stm-core`.

use std::sync::Arc;

use stm_core::clock::{ThreadRegistry, ThreadSlot, TxClock, TxShared};
use stm_core::cm::{CmHandle, ContentionManager, InstalledCm, Resolution, TwoPhase};
use stm_core::config::StmConfig;
use stm_core::error::{Abort, TxResult};
use stm_core::heap::TmHeap;
use stm_core::locktable::LockTable;
use stm_core::logs::{OwnedWriteLog, ReadEntry, ReadLog};
use stm_core::telemetry::{self, ConflictSite, WaitTimer};
use stm_core::tm::{self, DescriptorCore, TmAlgorithm, TxDescriptor};
use stm_core::word::{Addr, Word};

use crate::entry::{ReadLockState, StripeEntry};

/// Builder for [`SwissTm`] instances.
///
/// The defaults reproduce the paper's configuration: a 2^22-entry lock
/// table with 16-byte stripes and the two-phase contention manager with
/// `Wn = 10` and randomized linear back-off. The builder exists so the
/// dissection experiments (Figures 10–13, Tables 1–2) can swap the
/// contention manager and the stripe granularity.
#[derive(Debug)]
pub struct SwissTmBuilder {
    config: StmConfig,
    cm: Option<CmHandle>,
}

impl SwissTmBuilder {
    /// Starts a builder with the paper's defaults and a benchmark-sized
    /// heap.
    pub fn new() -> Self {
        SwissTmBuilder {
            config: StmConfig::benchmark(),
            cm: None,
        }
    }

    /// Sets the heap and lock-table configuration.
    pub fn config(mut self, config: StmConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the contention manager (default: [`TwoPhase`]).
    pub fn contention_manager(mut self, cm: CmHandle) -> Self {
        self.cm = Some(cm);
        self
    }

    /// Builds the STM instance.
    pub fn build(self) -> SwissTm {
        SwissTm {
            heap: TmHeap::new(self.config.heap),
            registry: ThreadRegistry::new(),
            lock_table: LockTable::new(self.config.lock_table),
            commit_ts: TxClock::new(self.config.clock),
            cm: InstalledCm::new(self.cm.unwrap_or_else(|| Arc::new(TwoPhase::new()))),
        }
    }
}

impl Default for SwissTmBuilder {
    fn default() -> Self {
        SwissTmBuilder::new()
    }
}

/// The SwissTM software transactional memory.
///
/// See the crate-level documentation for the algorithm overview; the
/// methods of [`TmAlgorithm`] map one-to-one onto the paper's pseudo-code
/// functions (`start`, `read-word`, `write-word`, `commit`, `rollback`,
/// `validate`, `extend`).
pub struct SwissTm {
    heap: TmHeap,
    registry: ThreadRegistry,
    lock_table: LockTable<StripeEntry>,
    commit_ts: TxClock,
    cm: InstalledCm,
}

impl std::fmt::Debug for SwissTm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwissTm")
            .field("lock_table_entries", &self.lock_table.len())
            .field("grain_shift", &self.lock_table.grain_shift())
            .field("commit_ts", &self.commit_ts.read())
            .field("cm", &self.cm.name())
            .finish()
    }
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
    pub fn commit_timestamp(&self) -> u64 {
        self.commit_ts.read()
    }

    /// The configured commit-clock mode.
    pub fn clock_mode(&self) -> stm_core::config::ClockMode {
        self.commit_ts.mode()
    }

    /// The lock-table stripe granularity (log2 words per stripe).
    pub fn grain_shift(&self) -> u32 {
        self.lock_table.grain_shift()
    }

    /// The lock table, exposed for diagnostics and for deterministic
    /// conflict rigs that stage stuck locks (see
    /// `stm_core::testkit::RecordingCm`). Application code never needs it.
    pub fn lock_table(&self) -> &LockTable<StripeEntry> {
        &self.lock_table
    }

    fn shared_of(&self, slot: ThreadSlot) -> &Arc<TxShared> {
        self.registry.shared(slot)
    }

    /// `validate` (paper lines 50–53) over a slice of read-log entries:
    /// every entry must still carry the version it had when first read. A
    /// mismatch is benign only for a stripe whose write lock we hold *and*
    /// whose read-lock version at acquisition time equals the version the
    /// read observed — i.e. nothing committed between our read and our
    /// acquisition (the read lock is locked by us during commit, so the raw
    /// word cannot match then). The write lock of a stripe we hold names its
    /// record in the write log, so validation is linear in the number of
    /// checked entries, not O(entries × write-set).
    fn entries_valid(&self, me: ThreadSlot, log: &OwnedWriteLog, entries: &[ReadEntry]) -> bool {
        for entry in entries {
            let stripe = self.lock_table.entry_at(entry.lock_index);
            let current = stripe.read_lock_raw();
            if current == entry.version << 1 {
                continue;
            }
            match stripe.write_locked_record(me) {
                Some(record) if log.stripe(record).version == entry.version => {}
                _ => return false,
            }
        }
        true
    }

    /// Full read-set validation (used by the commit path).
    fn validate(&self, desc: &mut SwissDescriptor) -> bool {
        desc.core.attempt_validations += 1;
        self.entries_valid(desc.core.slot, &desc.write_log, desc.read_log.entries())
    }

    /// `extend` (paper lines 54–57), for a stripe `version` beyond the
    /// snapshot: re-validate and, on success, advance the transaction's
    /// validity timestamp to the current commit counter; on failure the
    /// attempt is inconsistent and aborts. The version is folded into a
    /// deferred clock first, so the new snapshot reaches at least it.
    /// [`ReadLog::extend_with`] orders the work — fresh suffix first, then
    /// the opacity-mandated re-confirmation of the validated prefix.
    #[cold]
    #[inline(never)]
    fn extend(&self, desc: &mut SwissDescriptor, version: u64) -> TxResult<()> {
        self.commit_ts.observe(version);
        let ts = self.commit_ts.read();
        let (slot, write_log) = (desc.core.slot, &desc.write_log);
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

    /// Releases all acquired write locks (paper `rollback`, lines 46–49,
    /// minus the contention-manager hook which the driver invokes). The
    /// stripe records themselves are cleared with the write log by the
    /// caller.
    fn release_write_locks(&self, desc: &mut SwissDescriptor) {
        for stripe in desc.write_log.stripes() {
            self.lock_table.entry_at(stripe.lock_index).release_write();
        }
    }

    /// One consistent (r-lock, value, r-lock) triple read: the two read-lock
    /// samples agree and are unlocked. `None` while a writer commits the
    /// stripe.
    #[inline(always)]
    fn sample(&self, stripe: &StripeEntry, addr: Addr) -> Option<(Word, u64)> {
        let first = stripe.read_lock_raw();
        if let ReadLockState::Unlocked { version } = StripeEntry::decode_read_lock(first) {
            let value = self.heap.load(addr);
            if stripe.read_lock_raw() == first {
                return Some((value, version));
            }
        }
        None
    }

    /// Spins until the stripe can be sampled. The spin honours remote abort
    /// requests — the stripe may be read-locked by a writer that is itself
    /// waiting for *us* to abort, so spinning blindly could ignore the
    /// contention manager's decision indefinitely.
    #[cold]
    #[inline(never)]
    fn read_contended(
        &self,
        desc: &mut SwissDescriptor,
        lock_index: usize,
        addr: Addr,
    ) -> TxResult<Word> {
        let stripe = self.lock_table.entry_at(lock_index);
        loop {
            if desc.core.shared.abort_requested() {
                return tm::doom(self, desc, Abort::REMOTE);
            }
            stm_core::sync::spin_loop();
            if let Some((value, version)) = self.sample(stripe, addr) {
                return self.log_read(desc, lock_index, value, version);
            }
        }
    }

    /// The end of every sampled read the inline path does not finish itself:
    /// the log has to grow, the contention manager wants its `on_read`
    /// called, or the version is beyond the snapshot.
    #[cold]
    #[inline(never)]
    fn log_read(
        &self,
        desc: &mut SwissDescriptor,
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

impl Default for SwissTm {
    fn default() -> Self {
        SwissTm::new()
    }
}

/// Transaction descriptor of [`SwissTm`].
///
/// The stripes whose write lock the transaction holds — together with the
/// read-lock version observed at acquisition time (restored if commit-time
/// validation fails) — are the write log's stripe records, which each held
/// write lock names by position.
#[derive(Debug)]
pub struct SwissDescriptor {
    core: DescriptorCore,
    /// `tx.valid-ts`: value of the commit counter at start or last
    /// successful extension.
    valid_ts: u64,
    read_log: ReadLog,
    write_log: OwnedWriteLog,
}

impl TxDescriptor for SwissDescriptor {
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

impl TmAlgorithm for SwissTm {
    type Descriptor = SwissDescriptor;

    fn name(&self) -> &'static str {
        "SwissTM"
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

    fn create_descriptor(&self, slot: ThreadSlot) -> SwissDescriptor {
        SwissDescriptor {
            core: DescriptorCore::new(slot, Arc::clone(self.shared_of(slot))),
            valid_ts: 0,
            read_log: ReadLog::new(),
            write_log: OwnedWriteLog::new(),
        }
    }

    /// Paper `start` (lines 1–3): snapshot the commit counter and notify the
    /// contention manager.
    #[inline]
    fn begin(&self, desc: &mut SwissDescriptor, is_restart: bool) {
        desc.core.reset_attempt();
        desc.read_log.clear();
        desc.write_log.clear();
        desc.valid_ts = self.commit_ts.read();
        self.cm.on_start(&desc.core.shared, is_restart);
    }

    /// `start`, log-free unless the manager wants every read hook.
    #[inline]
    fn begin_read_only(&self, desc: &mut SwissDescriptor, is_restart: bool) -> bool {
        self.begin(desc, is_restart);
        desc.core.read_only = self.cm.admits_log_free_reads();
        desc.core.read_only
    }

    /// Paper `read-word` (lines 4–18). What is inline is the whole read of a
    /// live attempt on a stripe that nobody is committing and whose version
    /// the snapshot covers: straight-line, and every way out of it is a tail
    /// call into an out-of-line function, so nothing stays alive across a
    /// call. `always`, because LLVM declines the plain hint at this size and
    /// a read is the one call a transaction makes by the dozen.
    ///
    /// A log-free attempt owns no w-lock and logs nothing: its read is the
    /// (r-lock, value, r-lock) sample checked against the snapshot, and a
    /// stripe being committed or committed past the snapshot upgrades it.
    #[inline(always)]
    fn read(&self, desc: &mut SwissDescriptor, addr: Addr) -> TxResult<Word> {
        if desc.core.read_only {
            desc.core.attempt_reads += 1;
            return match self.sample(self.lock_table.entry(addr), addr) {
                Some((value, version)) if version <= desc.valid_ts => Ok(value),
                sampled => tm::upgrade(self, desc, &self.commit_ts, sampled.map_or(0, |s| s.1)),
            };
        }
        if desc.core.refused() {
            return tm::refuse(self, desc);
        }
        desc.core.attempt_reads += 1;
        let lock_index = self.lock_table.index_of(addr);
        let stripe = self.lock_table.entry_at(lock_index);
        if let Some(record) = stripe.write_locked_record(desc.core.slot) {
            return desc.write_log.read_owned(&self.heap, record, addr);
        }
        match self.sample(stripe, addr) {
            Some((value, version))
                if version <= desc.valid_ts
                    && self.cm.on_inline_read(&desc.core.shared, || {
                        desc.read_log.try_push(lock_index, version)
                    }) =>
            {
                Ok(value)
            }
            Some((value, version)) => self.log_read(desc, lock_index, value, version),
            None => self.read_contended(desc, lock_index, addr),
        }
    }

    /// Paper `write-word` (lines 19–33): inline up to the case of a stripe
    /// the transaction already owns.
    #[inline]
    fn write(&self, desc: &mut SwissDescriptor, addr: Addr, value: Word) -> TxResult<()> {
        if desc.core.refused() {
            return tm::refuse(self, desc);
        }
        desc.core.attempt_writes += 1;
        let lock_index = self.lock_table.index_of(addr);
        let stripe = self.lock_table.entry_at(lock_index);

        // Already own the stripe: its write lock says where its record is.
        if let Some(record) = stripe.write_locked_record(desc.core.slot) {
            desc.write_log.write(record, addr, value);
            return Ok(());
        }
        self.acquire_and_write(desc, stripe, lock_index, addr, value)
    }

    /// Paper `commit` (lines 34–45); inline for a read-only transaction.
    #[inline]
    fn commit(&self, desc: &mut SwissDescriptor) -> TxResult<()> {
        if desc.core.refused() {
            return tm::refuse(self, desc);
        }
        // Read-only transactions commit immediately: their read log is
        // guaranteed consistent by construction.
        if desc.write_log.is_empty() {
            desc.read_log.clear();
            return Ok(());
        }
        self.commit_update(desc)
    }

    /// Paper `rollback` (lines 46–49). Idempotent: the driver may call it
    /// after an operation already cleaned up.
    fn rollback(&self, desc: &mut SwissDescriptor) {
        self.release_write_locks(desc);
        desc.read_log.clear();
        desc.write_log.clear();
        desc.core.doomed = false;
    }
}

/// The out-of-line halves of `write` and `commit`.
impl SwissTm {
    /// First write to a stripe (paper lines 22–33).
    #[inline(never)]
    fn acquire_and_write(
        &self,
        desc: &mut SwissDescriptor,
        stripe: &StripeEntry,
        lock_index: usize,
        addr: Addr,
        value: Word,
    ) -> TxResult<()> {
        if desc.core.read_only {
            // Not performed, so not an access: take back the inline count.
            desc.core.attempt_writes -= 1;
            return tm::upgrade(self, desc, &self.commit_ts, 0);
        }
        // Eager acquisition loop with contention management on write/write
        // conflicts. The wait timer starts lazily on the first contended
        // iteration (conflict-free writes never sample a clock) and records
        // the time spent in the loop on every exit path when it drops.
        let mut wait_timer: Option<WaitTimer> = None;
        loop {
            let Some(owner_tag) = stripe.write_lock() else {
                let record = desc.write_log.stripe_count();
                if stripe.try_acquire_write(desc.core.slot, record) {
                    break;
                }
                continue;
            };
            // Only this thread stores its own tag, and `write` found the lock
            // not ours; breaking here would push a second record that no tag
            // names.
            let owner_slot = owner_tag.slot();
            assert_ne!(owner_slot, desc.core.slot, "write() resolves owned stripes");
            if wait_timer.is_none() {
                wait_timer = Some(WaitTimer::start(&desc.core.shared));
            }
            let owner = self.shared_of(owner_slot);
            match telemetry::resolve_recorded(
                &*self.cm,
                &desc.core.shared,
                owner,
                ConflictSite::Write,
            ) {
                Resolution::AbortSelf => {
                    return tm::doom(self, desc, Abort::WRITE_CONFLICT);
                }
                Resolution::AbortOther | Resolution::Wait => {
                    stm_core::sync::spin_loop();
                }
            }
            // Check whether somebody asked *us* to abort while we were
            // fighting for the lock (deadlock avoidance between two
            // second-phase transactions).
            if desc.core.shared.abort_requested() {
                return tm::doom(self, desc, Abort::REMOTE);
            }
        }
        drop(wait_timer);

        // Acquired the stripe: remember the version for a potential restore
        // at commit time.
        let version = match stripe.read_lock() {
            ReadLockState::Unlocked { version } => version,
            // The previous owner unlocks the read lock before releasing the
            // write lock, so observing it locked here is impossible; be
            // conservative anyway. The write lock we just took has no record
            // yet, so it must be released here or it would leak past the
            // rollback.
            ReadLockState::Locked => {
                stripe.release_write();
                return tm::doom(self, desc, Abort::WRITE_CONFLICT);
            }
        };
        let record = desc.write_log.push_stripe(lock_index, version);
        desc.write_log.write(record, addr, value);
        self.cm
            .on_write(&desc.core.shared, desc.write_log.stripe_count());

        // Preserve opacity: if the stripe moved past our snapshot we must be
        // able to extend, otherwise the transaction is inconsistent.
        if version > desc.valid_ts {
            self.extend(desc, version)?;
        }
        Ok(())
    }

    /// Commit of an update transaction (paper lines 36–45).
    #[inline(never)]
    fn commit_update(&self, desc: &mut SwissDescriptor) -> TxResult<()> {
        // Lock the read locks of every stripe we are about to update.
        for stripe in desc.write_log.stripes() {
            self.lock_table.entry_at(stripe.lock_index).lock_read();
        }

        // The stamp is taken after the read locks above are held: a
        // deferred clock's committer-side fence sits between those lock
        // stores and its clock read (see `TxClock`).
        let stamp = self.commit_ts.commit_stamp(desc.valid_ts);
        let ts = stamp.ts;

        if stamp.needs_validation() && !self.validate(desc) {
            // Restore read-lock versions, release write locks and abort.
            for stripe in desc.write_log.stripes() {
                self.lock_table
                    .entry_at(stripe.lock_index)
                    .restore_read_version(stripe.version);
            }
            return tm::doom(self, desc, Abort::READ_VALIDATION);
        }

        // Write back the redo log and publish the new version.
        for entry in desc.write_log.entries() {
            self.heap.store(entry.addr, entry.value);
        }
        for stripe in desc.write_log.stripes() {
            let entry = self.lock_table.entry_at(stripe.lock_index);
            entry.publish_version(ts);
            entry.release_write();
        }
        desc.read_log.clear();
        desc.write_log.clear();
        Ok(())
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
        let before = stm.commit_timestamp();
        ctx.atomically(|tx| tx.read(addr)).unwrap();
        assert_eq!(stm.commit_timestamp(), before);
        ctx.atomically(|tx| tx.write(addr, 1)).unwrap();
        assert_eq!(stm.commit_timestamp(), before + 1);
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
        stm.lock_table.entry(addr).lock_read();

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
        stm.lock_table.entry(addr).publish_version(0);
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
