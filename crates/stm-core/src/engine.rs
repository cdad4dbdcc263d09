//! The engine the four STMs share: the shell, the descriptor, the read path,
//! validation and extension, and the contention-managed acquisition loop,
//! written once over the [`Stripe`] lock-word trait.
//!
//! The paper places SwissTM, TL2, TinySTM and RSTM on a few design axes, and
//! that is all an STM crate still decides, by implementing [`Policy`]:
//!
//! * **when a writer acquires** — at its first write
//!   ([`Policy::write_eager`]: SwissTM, TinySTM, eager RSTM) or at commit,
//!   over the redo log ([`Policy::write_lazy`], then [`Engine::acquire`] per
//!   entry: TL2, lazy RSTM);
//! * **what a logged read does with a stripe it cannot sample**
//!   ([`Policy::HELD`]): wait the write-back out (SwissTM, RSTM) or abort
//!   (TL2, TinySTM); RSTM's eager reader fights an owner first
//!   ([`Engine::wait_unowned`]) and its visible reader registers itself;
//! * **whether the snapshot is extended** ([`Policy::EXTENDS`]): all but
//!   TL2, which validates GV5-style at commit instead;
//! * **the lock word** ([`Stripe`]): TL2's and TinySTM's
//!   [`VersionedLock`](crate::locktable::VersionedLock),
//!   SwissTM's r-lock/w-lock pair, RSTM's object header.
//!
//! Every implementor of [`Policy`] is a [`TmAlgorithm`]. Everything is
//! monomorphised per STM, with no `dyn` on any path, and the inline tiers
//! are the STMs' own: a read is one `#[inline(always)]` straight line whose
//! every exit is a tail call into a cold half.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::clock::{ThreadRegistry, ThreadSlot, TxClock};
use crate::cm::{CmHandle, ContentionManager, InstalledCm, Resolution};
use crate::config::StmConfig;
use crate::error::{Abort, TxResult};
use crate::heap::TmHeap;
use crate::locktable::LockTable;
use crate::logs::{OwnedWriteLog, OwnerTag, ReadEntry, ReadLog, WriteLog};
use crate::telemetry::{self, ConflictSite, WaitTimer};
use crate::tm::{self, DescriptorCore, TmAlgorithm, TxDescriptor};
use crate::word::{Addr, Word};

/// A lock-table entry in one of the three shapes the STMs use. It has an
/// owner — an [`OwnerTag`] naming the owner's slot and the position of the
/// stripe's record in its [`OwnedWriteLog`] — and a version readers sample.
/// Owning the one-word lock hides the version; the two-word shapes hide it
/// only while the owner writes back, between [`Stripe::lock_write_back`]
/// and [`Stripe::publish`].
pub trait Stripe: Default + Send + Sync + 'static {
    /// Raw sample of the word a reader validates against.
    fn sample(&self) -> u64;
    /// The version in a raw sample; `None` while held or written back.
    fn version_in(raw: u64) -> Option<u64>;
    /// The version a reader may use right now.
    #[inline]
    fn version(&self) -> Option<u64> {
        Self::version_in(self.sample())
    }
    /// The owner's tag, if the stripe is owned.
    fn owner_tag(&self) -> Option<OwnerTag>;
    /// The position of the stripe's record in `slot`'s log, if `slot` owns it.
    fn owned_record(&self, slot: ThreadSlot) -> Option<usize>;
    /// One acquiring try for `slot`, whose log will hold the record at `record`.
    fn claim(&self, slot: ThreadSlot, record: usize) -> Claim;
    /// Hides the version for the owner's write-back (no-op where owning does).
    fn lock_write_back(&self);
    /// Undoes [`Stripe::lock_write_back`], showing `version` again.
    fn unlock_write_back(&self, version: u64);
    /// Releases the stripe unpublished, acquired at `version`.
    fn restore(&self, version: u64);
    /// Releases the stripe with the new `version` (commit).
    fn publish(&self, version: u64);
}

/// What one [`Stripe::claim`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Claim {
    /// Acquired; the stripe carried this version.
    Won(u64),
    /// Owned already, by the caller or a rival, as the tag says.
    Held(OwnerTag),
    /// The stripe changed under the try; try again.
    Lost,
}

/// What a descriptor keeps beside its owned stripes: nothing for the
/// encounter-time lockers (`()`, the defaults), the redo [`WriteLog`] for the
/// commit-time ones.
pub trait PolicyLog: Default + std::fmt::Debug + Send {
    /// `true` while no write is buffered here.
    #[inline]
    fn is_empty(&self) -> bool {
        true
    }
    /// Empties the log for the next attempt.
    #[inline]
    fn clear(&mut self) {}
    /// Installs the buffered writes (commit, under the write set's locks).
    #[inline]
    fn write_back(&self, _heap: &TmHeap) {}
}

impl PolicyLog for () {}

impl PolicyLog for WriteLog {
    #[inline]
    fn is_empty(&self) -> bool {
        WriteLog::is_empty(self)
    }

    #[inline]
    fn clear(&mut self) {
        WriteLog::clear(self);
    }

    fn write_back(&self, heap: &TmHeap) {
        for entry in self.iter() {
            heap.store(entry.addr, entry.value);
        }
    }
}

impl AsMut<WriteLog> for WriteLog {
    fn as_mut(&mut self) -> &mut WriteLog {
        self
    }
}

/// The transaction descriptor of every engine-built STM.
#[derive(Debug)]
pub struct Descriptor<X> {
    /// What the retry driver shares with the algorithm.
    pub core: DescriptorCore,
    /// The clock at start or at the last extension (SwissTM's `tx.valid-ts`,
    /// TL2's `rv`).
    pub snapshot: u64,
    /// The logged reads.
    pub read_log: ReadLog,
    /// The owned stripes, at the positions their lock words name, each with
    /// the version it carried at acquisition: restored on abort, and what a
    /// read made before the acquisition must have seen. The encounter-time
    /// lockers' writes hang off these records.
    pub owned: OwnedWriteLog,
    /// The rest, by the STM's policy.
    pub policy: X,
}

/// The descriptor of the STM `P`.
pub type Desc<P> = Descriptor<<P as Policy>::Log>;

impl<X: PolicyLog> TxDescriptor for Descriptor<X> {
    fn core(&self) -> &DescriptorCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut DescriptorCore {
        &mut self.core
    }

    #[inline]
    fn is_read_only(&self) -> bool {
        self.owned.is_empty() && self.policy.is_empty()
    }
}

/// What a logged read does with a stripe it cannot sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnHeld {
    /// Spins until the owner's write-back ends (SwissTM, RSTM).
    Wait,
    /// Aborts the reader (TL2, TinySTM).
    Abort,
}

/// The shell of an STM: heap, registry, lock table, clock and manager.
pub struct Engine<E> {
    /// The transactional heap.
    pub heap: TmHeap,
    /// The registry handing out thread slots.
    pub registry: ThreadRegistry,
    /// The lock table.
    pub table: LockTable<E>,
    /// The commit clock.
    pub clock: TxClock,
    /// The contention manager.
    pub cm: InstalledCm,
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("lock_table_entries", &self.table.len())
            .field("grain_shift", &self.table.grain_shift())
            .field("clock", &self.clock.read())
            .field("cm", &self.cm.name())
            .finish()
    }
}

/// Builder of an engine-built STM `T`.
#[derive(Debug)]
pub struct Builder<T> {
    config: StmConfig,
    cm: Option<CmHandle>,
    stm: PhantomData<fn() -> T>,
}

impl<T: Policy> Builder<T> {
    /// Starts a builder with the benchmark configuration and `T`'s default
    /// contention manager.
    pub fn new() -> Self {
        Builder {
            config: StmConfig::benchmark(),
            cm: None,
            stm: PhantomData,
        }
    }

    /// Sets the heap, lock-table and clock configuration.
    pub fn config(mut self, config: StmConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the contention manager.
    pub fn contention_manager(mut self, cm: CmHandle) -> Self {
        self.cm = Some(cm);
        self
    }

    /// Builds the STM instance.
    pub fn build(self) -> T {
        T::assemble(Engine {
            heap: TmHeap::new(self.config.heap),
            registry: ThreadRegistry::new(),
            table: LockTable::new(self.config.lock_table),
            clock: TxClock::new(self.config.clock),
            cm: InstalledCm::new(self.cm.unwrap_or_else(T::default_cm)),
        })
    }
}

impl<T: Policy> Default for Builder<T> {
    fn default() -> Self {
        Builder::new()
    }
}

impl<E: Stripe> Engine<E> {
    /// SwissTM's `validate` (paper lines 50–53) over read-log entries: each
    /// must still carry the version it had when read. A mismatch (or a
    /// hidden version) is benign only for a stripe the attempt owns *and*
    /// whose version at acquisition equals the one the read observed —
    /// nothing committed between the read and the acquisition. The owned
    /// stripe's lock word names its record, so the check is O(1) per entry,
    /// not O(entries × write set).
    fn entries_valid(&self, me: ThreadSlot, owned: &OwnedWriteLog, entries: &[ReadEntry]) -> bool {
        entries.iter().all(|entry| {
            let stripe = self.table.entry_at(entry.lock_index);
            stripe.version() == Some(entry.version)
                || stripe
                    .owned_record(me)
                    .is_some_and(|record| owned.stripe(record).version == entry.version)
        })
    }

    /// Full read-set validation (the commit path).
    pub fn validate<X>(&self, desc: &mut Descriptor<X>) -> bool {
        desc.core.attempt_validations += 1;
        self.entries_valid(desc.core.slot, &desc.owned, desc.read_log.entries())
    }

    /// Makes the attempt the owner of `stripe`, the lock-table entry at
    /// `lock_index`, and returns the position of its record in `owned`: a new record at the end, or
    /// that of an earlier acquisition, recognised by the attempt's own tag
    /// (a lazy commit's second entry of a stripe). A rival's stripe is a
    /// conflict at `site` for the contention manager. The wait timer starts
    /// lazily on the first contended try — a conflict-free acquisition never
    /// samples a clock — and records the loop's time on every exit path.
    ///
    /// The commit-time lockers acquire in write order with no global lock
    /// order, so two committers may each hold a stripe the other wants. That
    /// cannot deadlock, because no conflict here is waited out for ever:
    /// every manager's `resolve` ends it in `AbortSelf` (this attempt fails
    /// and releases what it holds), `AbortOther` (the owner is asked to
    /// abort; an owner stuck in this same loop sees the request and
    /// releases), or a bounded `Wait` (Polka's budget) that the waiter cuts
    /// short when it is itself asked to abort. The encounter-time lockers
    /// acquire in program order on the same argument.
    ///
    /// Inline: it is the loop of the first write's out-of-line half and of
    /// the lazy commit's, and only its contended step is a call.
    #[inline(always)]
    pub fn acquire(
        &self,
        core: &DescriptorCore,
        owned: &mut OwnedWriteLog,
        (lock_index, stripe): (usize, &E),
        site: ConflictSite,
    ) -> TxResult<usize> {
        let mut wait_timer = None;
        let version = loop {
            let tag = match stripe.claim(core.slot, owned.stripe_count()) {
                Claim::Won(version) => break version,
                Claim::Lost => continue,
                Claim::Held(tag) => tag,
            };
            if let Some(record) = tag.record_of(core.slot) {
                return Ok(record);
            }
            self.conflict(core, &mut wait_timer, tag, site, Abort::WRITE_CONFLICT)?;
        };
        drop(wait_timer);
        Ok(owned.push_stripe(lock_index, version))
    }

    /// Waits, under the contention manager, until nobody owns `stripe` —
    /// eager RSTM's read of an object a writer owns (site `Read`; losing
    /// aborts the reader with `READ_LOCKED`).
    pub fn wait_unowned(&self, core: &DescriptorCore, stripe: &E) -> TxResult<()> {
        let mut wait_timer = None;
        while let Some(tag) = stripe.owner_tag() {
            self.conflict(
                core,
                &mut wait_timer,
                tag,
                ConflictSite::Read,
                Abort::READ_LOCKED,
            )?;
        }
        Ok(())
    }

    /// One contention-managed step against the owner `tag` names: `lost` if
    /// the manager sacrifices the caller, otherwise a spin (the owner was
    /// asked to abort, or the caller waits) and `REMOTE` if somebody asked
    /// *the caller* to abort meanwhile — deadlock avoidance between two
    /// waiters, and the exit the liveness argument above relies on.
    #[cold]
    #[inline(never)]
    fn conflict(
        &self,
        core: &DescriptorCore,
        wait_timer: &mut Option<WaitTimer>,
        tag: OwnerTag,
        site: ConflictSite,
        lost: Abort,
    ) -> TxResult<()> {
        wait_timer.get_or_insert_with(|| WaitTimer::start(&core.shared));
        let owner = self.registry.shared(tag.slot());
        match telemetry::resolve_recorded(&*self.cm, &core.shared, owner, site) {
            Resolution::AbortSelf => return Err(lost),
            Resolution::AbortOther | Resolution::Wait => crate::sync::spin_loop(),
        }
        if core.shared.abort_requested() {
            return Err(Abort::REMOTE);
        }
        Ok(())
    }
}

/// An STM built on the engine: its lock word, its policy on the paper's
/// axes, and — as provided methods — the operations every STM runs the same
/// way. The defaults of [`Policy::read_logged`], [`Policy::write_word`] and
/// [`Policy::commit_update`] are the encounter-time locker's (SwissTM,
/// TinySTM); TL2 and RSTM replace them.
pub trait Policy: Send + Sync + Sized + 'static {
    /// The lock word.
    type Stripe: Stripe;
    /// What the descriptor keeps beside the owned stripes.
    type Log: PolicyLog;
    /// The name experiment tables print.
    const NAME: &'static str;
    /// What a logged read does with a stripe it cannot sample.
    const HELD: OnHeld;
    /// Why a log-free read ends on a held stripe: [`Abort::UPGRADE`] re-runs
    /// the transaction logged; TinySTM aborts with `READ_LOCKED` and stays
    /// log-free.
    const LOG_FREE_HELD: Abort = Abort::UPGRADE;
    /// Whether a read past the snapshot extends it; TL2 aborts instead.
    const EXTENDS: bool = true;

    /// The contention manager the STM runs unless its builder names one.
    fn default_cm() -> CmHandle;
    /// The STM around a freshly built engine.
    fn assemble(engine: Engine<Self::Stripe>) -> Self;
    /// The STM's engine.
    fn engine(&self) -> &Engine<Self::Stripe>;

    /// Whether log-free attempts are granted at all.
    fn grants_log_free(&self) -> bool {
        true
    }

    /// A logged read, once it is counted and not refused. The default is
    /// SwissTM's paper `read-word` (lines 4–18), TinySTM's too: a stripe the
    /// attempt owns is read from its write log, any other is sampled.
    #[inline(always)]
    fn read_logged(&self, desc: &mut Desc<Self>, addr: Addr) -> TxResult<Word> {
        let table = &self.engine().table;
        let lock_index = table.index_of(addr);
        let stripe = table.entry_at(lock_index);
        if let Some(record) = stripe.owned_record(desc.core.slot) {
            return desc.owned.read_owned(&self.engine().heap, record, addr);
        }
        self.finish_read(desc, lock_index, stripe, addr)
    }

    /// [`TmAlgorithm::write`]; the default acquires at the first write.
    #[inline(always)]
    fn write_word(&self, desc: &mut Desc<Self>, addr: Addr, value: Word) -> TxResult<()> {
        self.write_eager(desc, addr, value, |_, _| Ok(()))
    }

    /// The commit of an update attempt; the default owns its write set
    /// already and runs [`Policy::commit_owned`] with the engine's
    /// validation.
    #[inline(never)]
    fn commit_update(&self, desc: &mut Desc<Self>) -> TxResult<()> {
        self.commit_owned(desc, |desc| self.engine().validate(desc))
    }

    /// Drops what the attempt registered beyond its owned stripes (RSTM's
    /// visible reads), when it commits or rolls back.
    #[inline(always)]
    fn end_attempt(&self, _desc: &mut Desc<Self>) {}

    /// The read of a log-free attempt ([`TmAlgorithm::begin_read_only`]):
    /// the sample checked against the snapshot, and nothing else. The
    /// attempt owns and buffers nothing, so it has no own writes to look up;
    /// every other sample leaves through one cold exit.
    #[inline(always)]
    fn read_log_free(&self, desc: &mut Desc<Self>, addr: Addr) -> TxResult<Word> {
        desc.core.attempt_reads += 1;
        match self.sample(self.engine().table.entry(addr), addr) {
            Ok((value, version)) if version <= desc.snapshot => Ok(value),
            sampled => self.log_free_miss(desc, sampled.map(|(_, version)| version)),
        }
    }

    /// A log-free read that cannot answer: a stripe committed past the
    /// snapshot (`Ok(version)`) or changed under the read upgrades the
    /// attempt, a held one ends it with [`Policy::LOG_FREE_HELD`] (`Err` of
    /// the last raw sample).
    #[cold]
    #[inline(never)]
    fn log_free_miss(&self, desc: &mut Desc<Self>, sampled: Result<u64, u64>) -> TxResult<Word> {
        let version = match sampled {
            Ok(version) => version,
            Err(raw) => match Self::Stripe::version_in(raw) {
                Some(version) => version,
                None => return tm::doom(self, desc, Self::LOG_FREE_HELD),
            },
        };
        tm::upgrade(self, desc, &self.engine().clock, version)
    }

    /// Post-validated sample: stripe, value, stripe again. The value and its
    /// version when the stripe was readable and unchanged across the load,
    /// otherwise the last raw sample.
    #[inline(always)]
    fn sample(&self, stripe: &Self::Stripe, addr: Addr) -> Result<(Word, u64), u64> {
        let pre = stripe.sample();
        let Some(version) = Self::Stripe::version_in(pre) else {
            return Err(pre);
        };
        let value = self.engine().heap.load(addr);
        let post = stripe.sample();
        if post == pre {
            Ok((value, version))
        } else {
            Err(post)
        }
    }

    /// The end of every logged read of a stripe the attempt does not own
    /// (`stripe`, the lock-table entry at `lock_index`, which the caller has
    /// fetched already): sampled within the snapshot, logged without growing
    /// the log and with the manager's due paid in place, it returns the
    /// value; every other way out is a tail call.
    #[inline(always)]
    fn finish_read(
        &self,
        desc: &mut Desc<Self>,
        lock_index: usize,
        stripe: &Self::Stripe,
        addr: Addr,
    ) -> TxResult<Word> {
        match self.sample(stripe, addr) {
            Ok((value, version))
                if version <= desc.snapshot
                    && self.engine().cm.on_inline_read(&desc.core.shared, || {
                        desc.read_log.try_push(lock_index, version)
                    }) =>
            {
                Ok(value)
            }
            Ok((value, version)) => self.log_read(desc, lock_index, value, version),
            Err(_) if Self::HELD == OnHeld::Wait => self.read_waiting(desc, lock_index, addr),
            Err(raw) => self.read_aborted(desc, raw),
        }
    }

    /// The end of a sampled read the inline path does not finish itself:
    /// the log has to grow, the contention manager wants its `on_read`
    /// called, or the version is beyond the snapshot — extended, or (TL2)
    /// the attempt's abort.
    #[cold]
    #[inline(never)]
    fn log_read(
        &self,
        desc: &mut Desc<Self>,
        lock_index: usize,
        value: Word,
        version: u64,
    ) -> TxResult<Word> {
        if !Self::EXTENDS && version > desc.snapshot {
            // GV5 catch-up before aborting, so the retry starts with a
            // snapshot that covers the version we just tripped over.
            self.engine().clock.observe(version);
            return tm::doom(self, desc, Abort::READ_VALIDATION);
        }
        desc.read_log.push(lock_index, version);
        (self.engine().cm).on_read(&desc.core.shared, desc.read_log.len());
        if version > desc.snapshot {
            self.extend(desc, version)?;
        }
        Ok(value)
    }

    /// [`OnHeld::Wait`]: spins until the stripe can be sampled. The spin
    /// honours remote abort requests — the stripe may be held by a writer
    /// that is itself waiting for *us* to abort, so spinning blindly could
    /// ignore the contention manager's decision indefinitely.
    #[cold]
    #[inline(never)]
    fn read_waiting(&self, desc: &mut Desc<Self>, lock_index: usize, addr: Addr) -> TxResult<Word> {
        let stripe = self.engine().table.entry_at(lock_index);
        loop {
            if desc.core.shared.abort_requested() {
                return tm::doom(self, desc, Abort::REMOTE);
            }
            crate::sync::spin_loop();
            if let Ok((value, version)) = self.sample(stripe, addr) {
                return self.log_read(desc, lock_index, value, version);
            }
        }
    }

    /// [`OnHeld::Abort`], on the last sample `raw`: `READ_LOCKED` while a
    /// writer holds the stripe, `READ_VALIDATION` when it changed under the
    /// read, after the GV5 catch-up on its version.
    #[cold]
    #[inline(never)]
    fn read_aborted(&self, desc: &mut Desc<Self>, raw: u64) -> TxResult<Word> {
        let Some(version) = Self::Stripe::version_in(raw) else {
            return tm::doom(self, desc, Abort::READ_LOCKED);
        };
        self.engine().clock.observe(version);
        tm::doom(self, desc, Abort::READ_VALIDATION)
    }

    /// SwissTM's `extend` (paper lines 54–57), the LSA scheme TinySTM and
    /// RSTM share, for a stripe `version` beyond the snapshot: re-validate
    /// and, on success, advance the snapshot to the current clock; on
    /// failure the attempt is inconsistent and aborts. The version is folded
    /// into a deferred clock first, so the new snapshot reaches at least it.
    /// [`ReadLog::extend_with`] orders the work — fresh suffix first, then
    /// the opacity-mandated re-confirmation of the validated prefix.
    #[cold]
    #[inline(never)]
    fn extend(&self, desc: &mut Desc<Self>, version: u64) -> TxResult<()> {
        let engine = self.engine();
        engine.clock.observe(version);
        let ts = engine.clock.read();
        let (slot, owned) = (desc.core.slot, &desc.owned);
        if !desc
            .read_log
            .extend_with(|entries| engine.entries_valid(slot, owned, entries))
        {
            return tm::doom(self, desc, Abort::READ_VALIDATION);
        }
        desc.snapshot = ts;
        desc.core.attempt_extensions += 1;
        Ok(())
    }

    /// Encounter-time write (SwissTM's paper `write-word`, lines 19–33),
    /// inline up to the case of a stripe the attempt already owns. `opened`
    /// runs after a fresh acquisition (RSTM's visible readers).
    #[inline(always)]
    fn write_eager(
        &self,
        desc: &mut Desc<Self>,
        addr: Addr,
        value: Word,
        opened: impl FnOnce(&DescriptorCore, &Self::Stripe) -> TxResult<()>,
    ) -> TxResult<()> {
        if desc.core.refused() {
            return tm::refuse(self, desc);
        }
        desc.core.attempt_writes += 1;
        let table = &self.engine().table;
        let lock_index = table.index_of(addr);
        let stripe = table.entry_at(lock_index);
        // Already own the stripe: its lock word says where its record is.
        if let Some(record) = stripe.owned_record(desc.core.slot) {
            desc.owned.write(record, addr, value);
            return Ok(());
        }
        self.acquire_and_write(desc, (lock_index, stripe), addr, value, opened)
    }

    /// First write to a stripe (SwissTM's paper lines 22–33).
    #[inline(never)]
    fn acquire_and_write(
        &self,
        desc: &mut Desc<Self>,
        stripe: (usize, &Self::Stripe),
        addr: Addr,
        value: Word,
        opened: impl FnOnce(&DescriptorCore, &Self::Stripe) -> TxResult<()>,
    ) -> TxResult<()> {
        if desc.core.read_only {
            // Not performed, so not an access: take back the inline count.
            desc.core.attempt_writes -= 1;
            return tm::upgrade(self, desc, &self.engine().clock, 0);
        }
        let engine = self.engine();
        let site = ConflictSite::Write;
        let record = match engine.acquire(&desc.core, &mut desc.owned, stripe, site) {
            Ok(record) => record,
            Err(abort) => return tm::doom(self, desc, abort),
        };
        desc.owned.write(record, addr, value);
        engine
            .cm
            .on_write(&desc.core.shared, desc.owned.stripe_count());
        if let Err(abort) = opened(&desc.core, stripe.1) {
            return tm::doom(self, desc, abort);
        }
        // Preserve opacity: if the stripe moved past our snapshot we must be
        // able to extend, otherwise the transaction is inconsistent.
        let version = desc.owned.stripe(record).version;
        if version > desc.snapshot {
            self.extend(desc, version)?;
        }
        Ok(())
    }

    /// Commit-time locker's write: buffered in the redo log — one probe of
    /// its address index — and nothing locked; commit derives the stripes to
    /// acquire from the entries.
    #[inline(always)]
    fn write_lazy(&self, desc: &mut Desc<Self>, addr: Addr, value: Word) -> TxResult<()>
    where
        Self::Log: AsMut<WriteLog>,
    {
        if desc.core.refused() {
            return tm::refuse(self, desc);
        }
        if desc.core.read_only {
            return tm::upgrade(self, desc, &self.engine().clock, 0);
        }
        desc.core.attempt_writes += 1;
        let redo = desc.policy.as_mut();
        redo.record(addr, value, self.engine().table.index_of(addr), 0);
        (self.engine().cm).on_write(&desc.core.shared, redo.len());
        Ok(())
    }

    /// The commit of an update attempt that owns its write set (SwissTM's
    /// paper lines 36–45): hide the write set's versions, take the stamp,
    /// validate unless nothing could have changed, write back, publish.
    #[inline(always)]
    fn commit_owned(
        &self,
        desc: &mut Desc<Self>,
        validate: impl FnOnce(&mut Desc<Self>) -> bool,
    ) -> TxResult<()> {
        let engine = self.engine();
        // sync: the write-back locks must be taken *before* the clock is
        // stamped. The clock stamp is an AcqRel RMW, so a rival whose
        // begin-time snapshot (Acquire clock read) covers our stamp also
        // observes these locked version words — it can never sample a
        // consistent pre-commit version/value pair for a stripe we are about
        // to overwrite and then skip validation because its stamp lands
        // directly after ours. RSTM's owner word alone does not give that
        // guarantee: its invisible read samples only the version word.
        // (Locking after validation used to be safe under SC; the model
        // checker's lost-update scenario found the C11-level window — see
        // crates/stm-model-tests/tests/lost_update.rs.) A deferred clock's
        // committer-side fence sits here too: between the write set's locks
        // and its clock read (see `TxClock`).
        for stripe in desc.owned.stripes() {
            engine.table.entry_at(stripe.lock_index).lock_write_back();
        }
        let stamp = engine.clock.commit_stamp(desc.snapshot);
        if stamp.needs_validation() && !validate(desc) {
            // Show the acquisition-time versions again before rolling back:
            // the rollback only releases ownership, and a version left
            // hidden would park every later reader for ever.
            for stripe in desc.owned.stripes() {
                let entry = engine.table.entry_at(stripe.lock_index);
                entry.unlock_write_back(stripe.version);
            }
            return tm::doom(self, desc, Abort::READ_VALIDATION);
        }
        desc.policy.write_back(&engine.heap);
        for entry in desc.owned.entries() {
            engine.heap.store(entry.addr, entry.value);
        }
        for stripe in desc.owned.stripes() {
            engine.table.entry_at(stripe.lock_index).publish(stamp.ts);
        }
        desc.owned.clear();
        desc.read_log.clear();
        desc.policy.clear();
        Ok(())
    }
}

impl<P: Policy> TmAlgorithm for P {
    type Descriptor = Desc<P>;

    fn name(&self) -> &'static str {
        P::NAME
    }

    fn heap(&self) -> &TmHeap {
        &self.engine().heap
    }

    fn registry(&self) -> &ThreadRegistry {
        &self.engine().registry
    }

    fn contention_manager(&self) -> &dyn ContentionManager {
        &*self.engine().cm
    }

    fn create_descriptor(&self, slot: ThreadSlot) -> Desc<P> {
        Descriptor {
            core: DescriptorCore::new(slot, Arc::clone(self.engine().registry.shared(slot))),
            snapshot: 0,
            read_log: ReadLog::new(),
            owned: OwnedWriteLog::new(),
            policy: P::Log::default(),
        }
    }

    /// Snapshots the clock and notifies the contention manager (SwissTM's
    /// paper `start`, lines 1–3).
    #[inline]
    fn begin(&self, desc: &mut Desc<P>, is_restart: bool) {
        desc.core.reset_attempt();
        desc.read_log.clear();
        desc.owned.clear();
        desc.policy.clear();
        desc.snapshot = self.engine().clock.read();
        self.engine().cm.on_start(&desc.core.shared, is_restart);
    }

    /// Log-free if the STM grants the mode and the manager does not want
    /// every read hook.
    #[inline]
    fn begin_read_only(&self, desc: &mut Desc<P>, is_restart: bool) -> bool {
        self.begin(desc, is_restart);
        desc.core.read_only = self.grants_log_free() && self.engine().cm.admits_log_free_reads();
        desc.core.read_only
    }

    /// The log-free branch, the refusal check and the count, then
    /// [`Policy::read_logged`]: inline for a live attempt reading a stripe
    /// it can sample within its snapshot, a straight line whose every way
    /// out is a tail call. (`always`: LLVM declines the plain hint at this
    /// size, and a read is the one call a transaction makes by the dozen.)
    #[inline(always)]
    fn read(&self, desc: &mut Desc<P>, addr: Addr) -> TxResult<Word> {
        if desc.core.read_only {
            return self.read_log_free(desc, addr);
        }
        if desc.core.refused() {
            return tm::refuse(self, desc);
        }
        desc.core.attempt_reads += 1;
        self.read_logged(desc, addr)
    }

    #[inline]
    fn write(&self, desc: &mut Desc<P>, addr: Addr, value: Word) -> TxResult<()> {
        self.write_word(desc, addr, value)
    }

    /// Inline for a read-only attempt, whose reads were consistent when
    /// made: it commits at once.
    #[inline]
    fn commit(&self, desc: &mut Desc<P>) -> TxResult<()> {
        let committed = if desc.core.refused() {
            tm::refuse(self, desc)
        } else if desc.is_read_only() {
            desc.read_log.clear();
            Ok(())
        } else {
            self.commit_update(desc)
        };
        self.end_attempt(desc);
        committed
    }

    /// Releases every owned stripe at the version it was acquired at and
    /// empties the logs (SwissTM's paper `rollback`, lines 46–49, minus the
    /// contention-manager hook, which the driver invokes). Idempotent: the
    /// driver may call it after an operation already cleaned up.
    fn rollback(&self, desc: &mut Desc<P>) {
        self.end_attempt(desc);
        for stripe in desc.owned.stripes() {
            let entry = self.engine().table.entry_at(stripe.lock_index);
            entry.restore(stripe.version);
        }
        desc.owned.clear();
        desc.read_log.clear();
        desc.policy.clear();
        desc.core.doomed = false;
    }
}
