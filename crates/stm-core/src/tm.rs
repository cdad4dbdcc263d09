//! The algorithm-facing STM interface and the transaction retry driver.
//!
//! Every STM in the workspace (SwissTM, TL2, TinySTM, RSTM) implements
//! [`TmAlgorithm`]. Application code never calls the algorithm directly;
//! it registers a [`ThreadContext`] and runs closures through
//! [`ThreadContext::atomically`], which handles begin/commit/rollback,
//! contention-manager hooks, transactional allocation bookkeeping, retry
//! and statistics.
//!
//! The split mirrors the paper's structure: Algorithm 1 is the per-word
//! algorithm (here: a `TmAlgorithm` impl), Algorithm 2 the contention
//! manager (here: [`crate::cm::ContentionManager`]), and the benchmarks sit
//! on top of a thin word-based API (here: [`Tx`]).

use std::sync::Arc;

use crate::clock::{ThreadRegistry, ThreadSlot, TxClock, TxShared, TxStatus};
use crate::cm::{ContentionManager, ReadHook};
use crate::error::{Abort, AbortReason, StmError, TxResult};
use crate::heap::{AllocCache, TmHeap};
use crate::logs::AllocLog;
use crate::stats::TxStats;
use crate::word::{Addr, Word};

/// State shared by every algorithm's transaction descriptor.
///
/// Algorithms embed a `DescriptorCore` in their descriptor type and expose
/// it through [`TxDescriptor::core`]; the retry driver uses it for
/// allocation bookkeeping, statistics and contention-manager hooks.
#[derive(Debug)]
pub struct DescriptorCore {
    /// The thread slot owning this descriptor.
    pub slot: ThreadSlot,
    /// The thread's shared record (visible to other threads).
    pub shared: Arc<TxShared>,
    /// Allocator activity of the current attempt.
    pub alloc_log: AllocLog,
    /// The thread's private front end to the heap's allocator: where
    /// [`Tx::alloc`] takes blocks from and where the blocks of `alloc_log`
    /// go when the attempt ends.
    pub alloc_cache: AllocCache,
    /// Why the last failed [`Tx::alloc`] failed; the driver turns it into
    /// the transaction's error.
    pub alloc_error: Option<StmError>,
    /// Transactional reads performed by the current attempt.
    pub attempt_reads: u64,
    /// Transactional writes performed by the current attempt.
    pub attempt_writes: u64,
    /// Commit-time read-set validations run by the current attempt.
    pub attempt_validations: u64,
    /// Snapshot extensions the current attempt completed.
    pub attempt_extensions: u64,
    /// Set once an operation has aborted the attempt; every later operation
    /// is refused until the driver restarts the transaction.
    pub doomed: bool,
    /// `true` while the attempt runs log-free: set by an algorithm whose
    /// [`TmAlgorithm::begin_read_only`] granted the mode, cleared by
    /// [`DescriptorCore::reset_attempt`]. (Not to be confused with
    /// [`TxDescriptor::is_read_only`], which says the attempt has not
    /// written.)
    pub read_only: bool,
    /// `true` while a log-free attempt reads *quiet*: it began on a
    /// quiescent snapshot ([`TxClock::is_quiescent`]) and every read so far
    /// found the clock unchanged, so each read loads its word and checks
    /// the clock instead of its stripe. Set by
    /// [`TmAlgorithm::begin_read_only`], cleared by the first read that
    /// finds the clock moved and by every `begin` of an algorithm that sets
    /// it; still set at commit, it makes the commit a
    /// [`TxStats::quiet_commits`](crate::stats::TxStats::quiet_commits) one.
    /// ([`DescriptorCore::reset_attempt`] leaves it alone: clearing it
    /// beside the other per-attempt fields widens their one zeroing store
    /// into an overlapping one, which stalls the counters' loads at the end
    /// of a short transaction.)
    pub quiet: bool,
}

impl DescriptorCore {
    /// Creates a core for `slot` with its shared record.
    pub fn new(slot: ThreadSlot, shared: Arc<TxShared>) -> Self {
        DescriptorCore {
            slot,
            shared,
            alloc_log: AllocLog::new(),
            alloc_cache: AllocCache::new(),
            alloc_error: None,
            attempt_reads: 0,
            attempt_writes: 0,
            attempt_validations: 0,
            attempt_extensions: 0,
            doomed: false,
            read_only: false,
            quiet: false,
        }
    }

    /// Resets the per-attempt state (called from `begin`).
    #[inline]
    pub fn reset_attempt(&mut self) {
        self.attempt_reads = 0;
        self.attempt_writes = 0;
        self.attempt_validations = 0;
        self.attempt_extensions = 0;
        self.doomed = false;
        self.read_only = false;
    }

    /// The preamble of every logged `read` and of every `write` and
    /// `commit`: `true` when the call must be refused, because an earlier
    /// operation already aborted the attempt or another thread asked it to
    /// abort. The caller then returns [`refuse`]'s answer.
    ///
    /// A log-free read ([`TmAlgorithm::begin_read_only`]) skips it: the read
    /// is validated on its own against the snapshot and leaves nothing a
    /// later operation depends on, so a log-free attempt meets its doomed
    /// flag or a remote abort request at `commit`, and its reads keep
    /// answering until then.
    #[inline]
    pub fn refused(&self) -> bool {
        self.doomed || self.shared.abort_requested()
    }
}

/// Aborts the current attempt from inside an operation: rolls it back, which
/// releases every lock the algorithm holds, and dooms the descriptor so the
/// attempt's remaining operations are refused. Returns `Err(abort)` as the
/// caller's whole result, so that the call is a tail call: an operation's
/// inline fast path then keeps nothing alive across it.
#[cold]
#[inline(never)]
pub fn doom<A: TmAlgorithm, T>(alg: &A, desc: &mut A::Descriptor, abort: Abort) -> TxResult<T> {
    alg.rollback(desc);
    desc.core_mut().doomed = true;
    Err(abort)
}

/// The answer to a call [`DescriptorCore::refused`] turned away:
/// `Abort::EXPLICIT` on an already doomed attempt, otherwise the attempt is
/// doomed now and the abort is `Abort::REMOTE`.
#[cold]
#[inline(never)]
pub fn refuse<A: TmAlgorithm, T>(alg: &A, desc: &mut A::Descriptor) -> TxResult<T> {
    if desc.core().doomed {
        Err(Abort::EXPLICIT)
    } else {
        doom(alg, desc, Abort::REMOTE)
    }
}

/// Ends a log-free attempt that has to re-run logged: a read its snapshot
/// does not cover, or a write. `version` is the stripe version the read
/// sampled (0 when it sampled none); it is folded into a deferred `clock`
/// first, so the logged re-run's snapshot covers it.
#[cold]
#[inline(never)]
pub fn upgrade<A: TmAlgorithm, T>(
    alg: &A,
    desc: &mut A::Descriptor,
    clock: &TxClock,
    version: u64,
) -> TxResult<T> {
    clock.observe(version);
    doom(alg, desc, Abort::UPGRADE)
}

/// Trait implemented by every algorithm's transaction descriptor.
pub trait TxDescriptor: Send {
    /// Shared descriptor core.
    fn core(&self) -> &DescriptorCore;
    /// Mutable access to the shared descriptor core.
    fn core_mut(&mut self) -> &mut DescriptorCore;
    /// `true` if the current attempt has not written anything.
    fn is_read_only(&self) -> bool;
}

/// A word-based software transactional memory algorithm.
///
/// # Contract
///
/// * `read`, `write` and `commit` return `Err(Abort)` when the attempt must
///   be retried. An operation that returns `Err` must leave the descriptor
///   in a state where [`TmAlgorithm::rollback`] can be called safely.
/// * `rollback` must be idempotent: the driver calls it on every abort
///   path, including after a failed `commit` that already cleaned up.
/// * `commit` returning `Ok(())` means all writes of the attempt are
///   visible atomically to other transactions (opacity is expected, as in
///   the paper).
/// * Once another thread has called [`TxShared::request_abort`] on the
///   transaction's shared record, the *next* `read`, `write` or `commit`
///   is refused: it returns `Err(Abort::REMOTE)` with every lock of the
///   attempt released and without performing the access. A refused call is
///   not counted in [`DescriptorCore::attempt_reads`] /
///   [`DescriptorCore::attempt_writes`], so `TxStats.reads`/`writes` count
///   accesses performed, not calls made. [`DescriptorCore::refused`] and
///   [`refuse`] implement the rule.
/// * The exception is the read of a log-free attempt
///   ([`TmAlgorithm::begin_read_only`]). It is validated on its own against
///   the snapshot and makes no refusal check, so the doomed flag and remote
///   abort requests are honoured at the attempt's `commit`, which keeps the
///   check; the reads before it keep answering. Such an attempt holds no
///   lock and is no rival's victim, so the delay costs nobody a wait.
pub trait TmAlgorithm: Send + Sync + 'static {
    /// Per-thread transaction descriptor, reused across transactions.
    type Descriptor: TxDescriptor;

    /// Human-readable algorithm name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// The shared transactional heap this instance operates on.
    fn heap(&self) -> &TmHeap;

    /// The registry handing out thread slots for this instance.
    fn registry(&self) -> &ThreadRegistry;

    /// The contention manager used by this instance.
    fn contention_manager(&self) -> &dyn ContentionManager;

    /// Creates a descriptor for a registered thread slot.
    fn create_descriptor(&self, slot: ThreadSlot) -> Self::Descriptor;

    /// Starts a new transaction attempt.
    fn begin(&self, desc: &mut Self::Descriptor, is_restart: bool);

    /// Starts an attempt of a transaction its caller declared read-only
    /// ([`ThreadContext::atomically_read_only`]) and answers whether the
    /// attempt runs *log-free*; an algorithm that grants the mode sets
    /// [`DescriptorCore::read_only`].
    ///
    /// A log-free read counts itself, samples its stripe the way the logged
    /// read does and returns the value when the version is within the
    /// snapshot — no read log, no probe for the attempt's own writes, no
    /// contention-manager hook, no refusal check. Every other case, and
    /// every `write`, ends the attempt with [`Abort::UPGRADE`] (see
    /// [`upgrade`]; a write that upgrades is not counted), after which the
    /// driver runs the transaction's remaining attempts logged. With no
    /// read log there is nothing to extend or validate, which is what makes
    /// the mode cheap, and why a reader under write traffic must leave it.
    /// While no commit has been stamped since the attempt began
    /// ([`DescriptorCore::quiet`]), a log-free read need not even sample:
    /// it loads the word and checks the commit clock.
    ///
    /// The default declines: it runs [`TmAlgorithm::begin`] and answers
    /// `false`, so the attempt is an ordinary logged one.
    fn begin_read_only(&self, desc: &mut Self::Descriptor, is_restart: bool) -> bool {
        self.begin(desc, is_restart);
        false
    }

    /// Transactional read of the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns `Err(Abort)` when the attempt must be rolled back (e.g. the
    /// read-set could not be validated).
    fn read(&self, desc: &mut Self::Descriptor, addr: Addr) -> TxResult<Word>;

    /// Transactional write of `value` to `addr`.
    ///
    /// # Errors
    ///
    /// Returns `Err(Abort)` when the attempt must be rolled back (e.g. a
    /// write/write conflict was resolved against this transaction).
    fn write(&self, desc: &mut Self::Descriptor, addr: Addr, value: Word) -> TxResult<()>;

    /// Attempts to commit the current attempt.
    ///
    /// # Errors
    ///
    /// Returns `Err(Abort)` when commit-time validation fails; the
    /// implementation must have released all its locks before returning.
    fn commit(&self, desc: &mut Self::Descriptor) -> TxResult<()>;

    /// Rolls back the current attempt, releasing any acquired locks.
    /// Must be idempotent.
    fn rollback(&self, desc: &mut Self::Descriptor);
}

/// Handle passed to transaction bodies.
///
/// All transactional operations of application code go through `Tx`; it
/// simply forwards to the algorithm, adding convenience helpers for
/// pointer-like fields and transactional allocation.
pub struct Tx<'a, A: TmAlgorithm> {
    alg: &'a A,
    desc: &'a mut A::Descriptor,
}

impl<'a, A: TmAlgorithm> Tx<'a, A> {
    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's abort decision; transaction bodies should
    /// forward it with `?`.
    #[inline]
    pub fn read(&mut self, addr: Addr) -> TxResult<Word> {
        self.alg.read(self.desc, addr)
    }

    /// Writes `value` to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's abort decision.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: Word) -> TxResult<()> {
        self.alg.write(self.desc, addr, value)
    }

    /// Reads the field at `base + offset`.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's abort decision.
    #[inline]
    pub fn read_field(&mut self, base: Addr, offset: usize) -> TxResult<Word> {
        self.read(base.offset(offset))
    }

    /// Writes the field at `base + offset`.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's abort decision.
    #[inline]
    pub fn write_field(&mut self, base: Addr, offset: usize, value: Word) -> TxResult<()> {
        self.write(base.offset(offset), value)
    }

    /// Reads a heap "pointer" stored at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's abort decision.
    #[inline]
    pub fn read_addr(&mut self, addr: Addr) -> TxResult<Addr> {
        Ok(Addr::from_word(self.read(addr)?))
    }

    /// Stores a heap "pointer" at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's abort decision.
    #[inline]
    pub fn write_addr(&mut self, addr: Addr, value: Addr) -> TxResult<()> {
        self.write(addr, value.to_word())
    }

    /// Allocates `words` zeroed words from the transactional heap. The
    /// allocation is rolled back if the transaction aborts.
    ///
    /// *Alloc is a read*: every word of the new block is read through the
    /// algorithm before the block is returned. A recycled block was written
    /// by the transaction that freed it ([`Tx::free`]), so an attempt whose
    /// snapshot still holds the block's previous life aborts here instead
    /// of aliasing a node of its own snapshot — which a lazy STM would
    /// otherwise not notice, because its redo-log hits skip version checks.
    ///
    /// # Errors
    ///
    /// Returns [`Abort::OOM`] when the heap is exhausted — the transaction
    /// then ends with [`StmError::OutOfMemory`] instead of retrying — and
    /// propagates the algorithm's abort decision for the reads. A log-free
    /// attempt allocates nothing: it ends with [`Abort::UPGRADE`].
    pub fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        if self.desc.core().read_only {
            return doom(self.alg, self.desc, Abort::UPGRADE);
        }
        let core = self.desc.core_mut();
        let addr = match core.alloc_cache.alloc_zeroed(self.alg.heap(), words) {
            Ok(addr) => addr,
            Err(error) => {
                core.alloc_error = Some(error);
                return Err(Abort::OOM);
            }
        };
        core.alloc_log.record_alloc(addr, words);
        for offset in 0..words {
            self.read(addr.offset(offset))?;
        }
        Ok(addr)
    }

    /// Frees a heap block when (and only when) the transaction commits.
    ///
    /// *Free is a write*: before the commit the driver writes every word of
    /// the block through the algorithm, so the stripes' versions move and a
    /// transaction still holding a pointer to the block fails validation
    /// instead of reading the zeros of the block's next life. In a log-free
    /// attempt the first of those writes upgrades it.
    pub fn free(&mut self, addr: Addr, words: usize) {
        self.desc.core_mut().alloc_log.record_free(addr, words);
    }

    /// Ends an attempt whose body returned `Ok`: writes the blocks the body
    /// freed (see [`Tx::free`]), then commits. Returns whether the attempt
    /// was read-only.
    fn commit(mut self) -> TxResult<bool> {
        for block in 0..self.desc.core().alloc_log.freed().len() {
            let (addr, words) = self.desc.core().alloc_log.freed()[block];
            for offset in 0..words {
                self.write(addr.offset(offset), 0)?;
            }
        }
        let read_only = self.desc.is_read_only();
        self.alg.commit(self.desc)?;
        Ok(read_only)
    }

    /// Explicitly aborts and retries the transaction.
    ///
    /// # Errors
    ///
    /// Always returns `Err(Abort::EXPLICIT)`; the idiom is
    /// `return tx.retry();`.
    pub fn retry<T>(&mut self) -> TxResult<T> {
        Err(Abort::EXPLICIT)
    }

    /// The thread slot running this transaction.
    pub fn slot(&self) -> ThreadSlot {
        self.desc.core().slot
    }

    /// `true` if the attempt has not performed any write yet.
    pub fn is_read_only(&self) -> bool {
        self.desc.is_read_only()
    }

    /// `true` if the attempt runs log-free
    /// ([`ThreadContext::atomically_read_only`]).
    pub fn is_log_free(&self) -> bool {
        self.desc.core().read_only
    }

    /// The algorithm executing this transaction (for advanced callers that
    /// need configuration data such as the lock-table granularity).
    pub fn algorithm(&self) -> &A {
        self.alg
    }
}

/// Per-thread entry point: owns the thread's descriptor and statistics and
/// drives the retry loop.
pub struct ThreadContext<A: TmAlgorithm> {
    alg: Arc<A>,
    slot: ThreadSlot,
    desc: A::Descriptor,
    stats: TxStats,
    retry_budget: Option<u64>,
}

impl<A: TmAlgorithm> ThreadContext<A> {
    /// Registers the calling thread with the STM instance and returns its
    /// context.
    ///
    /// # Panics
    ///
    /// Panics if more than [`crate::clock::MAX_THREADS`] threads register;
    /// [`ThreadContext::try_register`] returns the error instead.
    pub fn register(alg: Arc<A>) -> Self {
        Self::try_register(alg).expect("exceeded the maximum number of STM threads")
    }

    /// Registers the calling thread with the STM instance and returns its
    /// context.
    ///
    /// # Errors
    ///
    /// Returns [`StmError::TooManyThreads`] once the instance has handed out
    /// its [`crate::clock::MAX_THREADS`] slots; the contexts registered
    /// before are unaffected.
    pub fn try_register(alg: Arc<A>) -> Result<Self, StmError> {
        let slot = alg.registry().register()?;
        let desc = alg.create_descriptor(slot);
        Ok(ThreadContext {
            alg,
            slot,
            desc,
            stats: TxStats::new(),
            retry_budget: None,
        })
    }

    /// Limits the number of attempts per transaction; afterwards
    /// [`ThreadContext::atomically`] returns
    /// [`StmError::RetryBudgetExhausted`]. Mainly useful in tests.
    pub fn with_retry_budget(mut self, attempts: u64) -> Self {
        self.retry_budget = Some(attempts);
        self
    }

    /// The thread slot of this context.
    pub fn slot(&self) -> ThreadSlot {
        self.slot
    }

    /// The STM algorithm driven by this context.
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    /// The thread's shared record, borrowed from the descriptor that holds
    /// it for the context's lifetime: an attempt touches no reference count.
    #[inline]
    fn shared(&self) -> &TxShared {
        &self.desc.core().shared
    }

    /// Statistics accumulated so far.
    ///
    /// The contention telemetry written through the shared record (CM
    /// resolutions, wait/back-off time) is folded in lazily; call
    /// [`ThreadContext::sync_telemetry`] first (or use
    /// [`ThreadContext::take_stats`], which does) when those fields matter.
    pub fn stats(&self) -> &TxStats {
        &self.stats
    }

    /// Drains the contention telemetry accumulated on the thread's shared
    /// record into the statistics. Counters recorded by contention-manager
    /// hooks and STM conflict paths live on [`TxShared`] (they only have a
    /// shared reference); folding them in here keeps the per-transaction
    /// epilogues free of telemetry loads.
    pub fn sync_telemetry(&mut self) {
        self.stats
            .absorb_telemetry(self.desc.core().shared.telemetry());
    }

    /// Returns the accumulated statistics (telemetry folded in), resetting
    /// the counters.
    pub fn take_stats(&mut self) -> TxStats {
        self.sync_telemetry();
        std::mem::take(&mut self.stats)
    }

    /// Runs `body` as a transaction, retrying until it commits.
    ///
    /// The closure may be executed several times; it must be free of
    /// side effects other than transactional reads/writes and
    /// allocations through [`Tx`].
    ///
    /// # Panics
    ///
    /// A panic of `body` (or of the algorithm under it) propagates, after
    /// the attempt has been rolled back: the algorithm's locks are released
    /// and its in-place stores undone, the blocks the attempt allocated are
    /// back with the allocator, and the transaction's status is
    /// [`TxStatus::Aborted`]. The context stays usable.
    ///
    /// # Errors
    ///
    /// Returns [`StmError::RetryBudgetExhausted`] if a retry budget was set
    /// and exceeded, and [`StmError::OutOfMemory`] if an attempt ran out of
    /// heap ([`Abort::OOM`]): the attempt is rolled back like any other, but
    /// running it again would fail the same way. Otherwise retries until
    /// commit.
    pub fn atomically<T, F>(&mut self, body: F) -> Result<T, StmError>
    where
        F: FnMut(&mut Tx<'_, A>) -> TxResult<T>,
    {
        self.run(false, body)
    }

    /// Runs `body`, which its caller declares does not write, as a
    /// transaction: [`ThreadContext::atomically`] with the attempts started
    /// by [`TmAlgorithm::begin_read_only`]. Where the algorithm grants it,
    /// an attempt runs *log-free* — its reads keep no read log — until it
    /// meets a read its snapshot does not cover, a write or an allocation;
    /// that attempt aborts with [`AbortReason::Upgrade`] and the remaining
    /// attempts run logged, so a long reader under write traffic keeps
    /// snapshot extension and cannot starve. A body that writes after all
    /// is still correct, only slower.
    ///
    /// # Panics
    ///
    /// As [`ThreadContext::atomically`].
    ///
    /// # Errors
    ///
    /// As [`ThreadContext::atomically`].
    pub fn atomically_read_only<T, F>(&mut self, body: F) -> Result<T, StmError>
    where
        F: FnMut(&mut Tx<'_, A>) -> TxResult<T>,
    {
        self.run(true, body)
    }

    /// The retry loop of both entry points: `log_free` asks the algorithm
    /// for log-free attempts until one upgrades or the algorithm declines.
    /// Inlined into each, so `atomically` keeps no trace of the mode.
    #[inline(always)]
    fn run<T, F>(&mut self, mut log_free: bool, mut body: F) -> Result<T, StmError>
    where
        F: FnMut(&mut Tx<'_, A>) -> TxResult<T>,
    {
        let mut attempts: u64 = 0;
        loop {
            attempts += 1;
            self.shared().clear_abort_request();
            self.shared().set_status(TxStatus::Active);
            if log_free {
                log_free = self.alg.begin_read_only(&mut self.desc, attempts > 1);
            } else {
                self.alg.begin(&mut self.desc, attempts > 1);
            }

            let unwinding = RollbackOnUnwind(self);
            let mut tx = Tx {
                alg: &*unwinding.0.alg,
                desc: &mut unwinding.0.desc,
            };
            let outcome = body(&mut tx).and_then(|value| Ok((value, tx.commit()?)));
            std::mem::forget(unwinding);

            match outcome {
                Ok((value, read_only)) => {
                    self.finish_commit(read_only, attempts);
                    return Ok(value);
                }
                Err(abort) => {
                    // The contract promises `rollback` on *every* abort
                    // path, including a failed commit: commit released the
                    // algorithm's locks, but descriptor state (e.g. the
                    // doomed flag) is only reset here. `rollback` is
                    // idempotent, so this is safe even when the failing
                    // operation already cleaned everything up.
                    self.alg.rollback(&mut self.desc);
                    if log_free {
                        self.credit_log_free_reads();
                        log_free = abort.reason != AbortReason::Upgrade;
                    }
                    self.finish_abort(abort.reason);
                    if abort.reason == AbortReason::OutOfMemory {
                        return Err(self.out_of_memory());
                    }
                }
            }

            if let Some(budget) = self.retry_budget {
                if attempts >= budget {
                    return Err(StmError::RetryBudgetExhausted { attempts });
                }
            }
        }
    }

    /// The error of a transaction that ended with [`Abort::OOM`]: the one
    /// the failed [`Tx::alloc`] left behind, or a description of the heap
    /// when the body made up the abort itself.
    #[cold]
    fn out_of_memory(&mut self) -> StmError {
        let error = self.desc.core_mut().alloc_error.take();
        error.unwrap_or_else(|| StmError::OutOfMemory {
            requested: 0,
            available: self.alg.heap().remaining(),
        })
    }

    /// Runs a read-only convenience transaction returning a single word.
    ///
    /// # Errors
    ///
    /// Same as [`ThreadContext::atomically`].
    pub fn read_word(&mut self, addr: Addr) -> Result<Word, StmError> {
        self.atomically(|tx| tx.read(addr))
    }

    /// Runs a convenience transaction writing a single word.
    ///
    /// # Errors
    ///
    /// Same as [`ThreadContext::atomically`].
    pub fn write_word(&mut self, addr: Addr, value: Word) -> Result<(), StmError> {
        self.atomically(|tx| tx.write(addr, value))
    }

    /// Folds the finished attempt's counters into the statistics and hands
    /// the blocks `select` picks from its allocation log back to the
    /// allocator (the thread's cache): the freed ones after a commit, the
    /// allocated ones after an abort.
    fn close_attempt(&mut self, select: fn(&AllocLog) -> &[(Addr, usize)]) {
        let core = self.desc.core_mut();
        self.stats.reads += core.attempt_reads;
        self.stats.writes += core.attempt_writes;
        self.stats.validations += core.attempt_validations;
        self.stats.extensions += core.attempt_extensions;
        if !core.alloc_log.is_empty() {
            for &(addr, words) in select(&core.alloc_log) {
                core.alloc_cache.free(self.alg.heap(), addr, words);
            }
            core.alloc_log.clear();
        }
    }

    /// Gives the contention manager the reads of an aborted log-free
    /// attempt, which delivered no hook: a manager that counts accesses
    /// ([`ReadHook::CountAccess`], Polka) has them added to the priority in
    /// one step, as a logged attempt would have by now. Priorities persist
    /// across restarts; a committed attempt needs nothing, because a commit
    /// resets the priority, and an attempt that holds no lock is no rival's
    /// victim, so nobody read its priority while it ran.
    #[cold]
    fn credit_log_free_reads(&self) {
        if self.alg.contention_manager().read_hook() == ReadHook::CountAccess {
            let me = self.shared();
            me.set_priority(me.priority().wrapping_add(self.desc.core().attempt_reads));
        }
    }

    fn finish_commit(&mut self, read_only: bool, attempts: u64) {
        self.stats.quiet_commits += u64::from(self.desc.core().quiet);
        self.close_attempt(AllocLog::freed);
        self.stats.record_commit(read_only);
        self.stats.retries.record(attempts);
        self.shared().reset_aborts();
        self.alg.contention_manager().on_commit(self.shared());
        self.shared().set_status(TxStatus::Idle);
    }

    fn finish_abort(&mut self, reason: AbortReason) {
        self.close_attempt(AllocLog::allocated);
        self.stats.record_abort(reason);
        self.shared().record_abort();
        // Under the model checker, an abort caused by a lock that a rival
        // still holds turns the retry loop into a busy-wait: re-running the
        // attempt before the owner moves hits the same lock and spawns an
        // unbounded retry schedule. Yielding through the instrumented spin
        // hint parks this thread until another thread stores — sound,
        // because a held lock implies a live owner (every commit/rollback
        // path releases before the thread finishes), so a wake-up store is
        // always coming. Validation failures are not yielded: their retry
        // can succeed with no further external store (bounded by the finite
        // number of rival commits), so parking could deadlock the model.
        #[cfg(stm_model)]
        if matches!(reason, AbortReason::WriteConflict | AbortReason::ReadLocked) {
            crate::sync::spin_loop();
        }
        self.shared().set_status(TxStatus::Aborted);
        self.alg.contention_manager().on_rollback(self.shared());
    }
}

/// Held by [`ThreadContext::atomically`] while an attempt's body and commit
/// run, and forgotten when they return: dropped only by a panic unwinding
/// through them. A guard rather than a `catch_unwind` around the body, so
/// the body need not be `UnwindSafe` and the panic keeps its payload and
/// its backtrace. No abort is counted and no contention-manager hook runs
/// (a manager may sleep in `on_rollback`).
struct RollbackOnUnwind<'a, A: TmAlgorithm>(&'a mut ThreadContext<A>);

impl<A: TmAlgorithm> Drop for RollbackOnUnwind<'_, A> {
    // Out of line: all the landing pad in `atomically` holds is this call.
    #[cold]
    #[inline(never)]
    fn drop(&mut self) {
        let ctx = &mut *self.0;
        ctx.alg.rollback(&mut ctx.desc);
        ctx.close_attempt(AllocLog::allocated);
        ctx.shared().set_status(TxStatus::Aborted);
    }
}

impl<A: TmAlgorithm> Drop for ThreadContext<A> {
    /// Returns the blocks and the chunk of the thread's allocator cache to
    /// the heap, where other threads can allocate them.
    fn drop(&mut self) {
        self.desc.core_mut().alloc_cache.flush(self.alg.heap());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeapConfig;
    use crate::naive::NaiveGlobalLockTm;

    fn new_stm() -> Arc<NaiveGlobalLockTm> {
        Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()))
    }

    #[test]
    fn atomically_commits_a_simple_transaction() {
        let stm = new_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        ctx.atomically(|tx| tx.write(addr, 5)).unwrap();
        assert_eq!(ctx.read_word(addr).unwrap(), 5);
        assert_eq!(ctx.stats().commits, 2);
    }

    #[test]
    fn explicit_retry_consumes_budget() {
        let stm = new_stm();
        let mut ctx = ThreadContext::register(stm).with_retry_budget(3);
        let result: Result<(), StmError> = ctx.atomically(|tx| tx.retry());
        assert!(matches!(
            result,
            Err(StmError::RetryBudgetExhausted { attempts: 3 })
        ));
        assert_eq!(ctx.stats().aborts, 3);
        assert_eq!(ctx.stats().commits, 0);
    }

    #[test]
    fn aborted_allocations_are_returned_to_the_heap() {
        let stm = new_stm();
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
        let live_before = stm.heap().live_words();
        let _ = ctx.atomically(|tx| {
            tx.alloc(8)?;
            tx.retry::<()>()
        });
        assert_eq!(stm.heap().live_words(), live_before);
    }

    #[test]
    fn commit_applies_deferred_frees() {
        let stm = new_stm();
        let block = stm.heap().alloc_zeroed(8).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let live_before = stm.heap().live_words();
        ctx.atomically(|tx| {
            tx.free(block, 8);
            Ok(())
        })
        .unwrap();
        assert_eq!(stm.heap().live_words(), live_before - 8);
    }

    /// The allocator rules are accesses like any other: an allocation reads
    /// every word of its block, a free writes every word of its block (and
    /// so turns a transaction that only frees into an update).
    #[test]
    fn alloc_is_a_read_and_free_is_a_write() {
        let stm = new_stm();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let block = ctx.atomically(|tx| tx.alloc(5)).unwrap();
        assert_eq!((ctx.stats().reads, ctx.stats().writes), (5, 0));
        stm.heap().store(block.offset(2), 9);
        ctx.atomically(|tx| {
            tx.free(block, 5);
            Ok(())
        })
        .unwrap();
        assert_eq!((ctx.stats().reads, ctx.stats().writes), (5, 5));
        assert_eq!(ctx.stats().read_only_commits, 1, "only the allocation");
        assert_eq!(
            stm.heap().load(block.offset(2)),
            0,
            "freed words are zeroed"
        );
    }

    #[test]
    fn read_only_commits_are_tracked() {
        let stm = new_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| tx.read(addr)).unwrap();
        ctx.atomically(|tx| tx.write(addr, 1)).unwrap();
        assert_eq!(ctx.stats().read_only_commits, 1);
        assert_eq!(ctx.stats().commits, 2);
    }

    #[test]
    fn pointer_helpers_round_trip() {
        let stm = new_stm();
        let addr = stm.heap().alloc_zeroed(4).unwrap();
        let target = Addr::new(1234);
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| {
            tx.write_addr(addr, target)?;
            tx.write_field(addr, 1, 77)?;
            Ok(())
        })
        .unwrap();
        let (ptr, field) = ctx
            .atomically(|tx| Ok((tx.read_addr(addr)?, tx.read_field(addr, 1)?)))
            .unwrap();
        assert_eq!(ptr, target);
        assert_eq!(field, 77);
    }

    /// A minimal algorithm whose commit fails a configurable number of
    /// times. Commit failure leaves `needs_rollback` set on the descriptor;
    /// only `rollback` clears it, and `begin` asserts it is clear — so the
    /// test fails loudly if the driver ever skips `rollback` on the
    /// failed-commit path (the contract documented on [`TmAlgorithm`]).
    struct FlakyTm {
        heap: TmHeap,
        registry: ThreadRegistry,
        cm: crate::cm::Timid,
        commit_failures: crate::sync::AtomicU64,
        rollbacks: crate::sync::AtomicU64,
    }

    struct FlakyDescriptor {
        core: DescriptorCore,
        needs_rollback: bool,
    }

    impl TxDescriptor for FlakyDescriptor {
        fn core(&self) -> &DescriptorCore {
            &self.core
        }

        fn core_mut(&mut self) -> &mut DescriptorCore {
            &mut self.core
        }

        fn is_read_only(&self) -> bool {
            false
        }
    }

    impl TmAlgorithm for FlakyTm {
        type Descriptor = FlakyDescriptor;

        fn name(&self) -> &'static str {
            "flaky"
        }

        fn heap(&self) -> &TmHeap {
            &self.heap
        }

        fn registry(&self) -> &ThreadRegistry {
            &self.registry
        }

        fn contention_manager(&self) -> &dyn ContentionManager {
            &self.cm
        }

        fn create_descriptor(&self, slot: ThreadSlot) -> FlakyDescriptor {
            FlakyDescriptor {
                core: DescriptorCore::new(slot, Arc::clone(self.registry.shared(slot))),
                needs_rollback: false,
            }
        }

        fn begin(&self, desc: &mut FlakyDescriptor, _is_restart: bool) {
            assert!(
                !desc.needs_rollback,
                "begin reached without rollback after a failed commit"
            );
            desc.core.reset_attempt();
        }

        fn read(&self, desc: &mut FlakyDescriptor, addr: Addr) -> TxResult<Word> {
            desc.core.attempt_reads += 1;
            Ok(self.heap.load(addr))
        }

        fn write(&self, desc: &mut FlakyDescriptor, addr: Addr, value: Word) -> TxResult<()> {
            desc.core.attempt_writes += 1;
            self.heap.store(addr, value);
            Ok(())
        }

        fn commit(&self, desc: &mut FlakyDescriptor) -> TxResult<()> {
            use crate::sync::Ordering;
            // sync: Relaxed — single-threaded test harness.
            let remaining = self.commit_failures.load(Ordering::Relaxed);
            if remaining > 0 {
                // sync: Relaxed — single-threaded test harness.
                self.commit_failures.store(remaining - 1, Ordering::Relaxed);
                desc.needs_rollback = true;
                return Err(Abort::READ_VALIDATION);
            }
            Ok(())
        }

        fn rollback(&self, desc: &mut FlakyDescriptor) {
            desc.needs_rollback = false;
            self.rollbacks
                // sync: Relaxed — single-threaded test harness.
                .fetch_add(1, crate::sync::Ordering::Relaxed);
        }
    }

    #[test]
    fn rollback_runs_after_a_failed_commit() {
        let stm = Arc::new(FlakyTm {
            heap: TmHeap::new(HeapConfig::small()),
            registry: ThreadRegistry::new(),
            cm: crate::cm::Timid::new(),
            commit_failures: crate::sync::AtomicU64::new(2),
            rollbacks: crate::sync::AtomicU64::new(0),
        });
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        // Two commit failures, then success; `begin` panics if any failed
        // commit was not followed by `rollback`.
        ctx.atomically(|tx| tx.write(addr, 9)).unwrap();
        assert_eq!(
            // sync: Relaxed — single-threaded test harness.
            stm.rollbacks.load(crate::sync::Ordering::Relaxed),
            2,
            "driver must roll back once per failed commit"
        );
        assert_eq!(ctx.stats().aborts, 2);
        assert_eq!(ctx.stats().commits, 1);
    }

    #[test]
    fn the_65th_registration_is_an_error_and_the_64_before_it_still_commit() {
        let stm = new_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut contexts: Vec<_> = (0..crate::clock::MAX_THREADS)
            .map(|_| ThreadContext::try_register(Arc::clone(&stm)).expect("a free slot"))
            .collect();
        assert!(matches!(
            ThreadContext::try_register(Arc::clone(&stm)).map(|ctx| ctx.slot()),
            Err(StmError::TooManyThreads {
                max: crate::clock::MAX_THREADS
            })
        ));
        for ctx in &mut contexts {
            ctx.atomically(|tx| {
                let v = tx.read(addr)?;
                tx.write(addr, v + 1)
            })
            .unwrap();
        }
        assert_eq!(stm.heap().load(addr), crate::clock::MAX_THREADS as u64);
    }

    #[test]
    fn take_stats_resets_counters() {
        let stm = new_stm();
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| tx.write(addr, 1)).unwrap();
        let taken = ctx.take_stats();
        assert_eq!(taken.commits, 1);
        assert_eq!(ctx.stats().commits, 0);
    }
}
