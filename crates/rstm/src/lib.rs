//! # RSTM-style baseline
//!
//! A reproduction of the **RSTM (version 3)** design point used by the
//! paper: an object-based STM with per-object metadata, configurable
//! *eager vs lazy* acquisition, *visible vs invisible* reads, a global
//! commit-counter validation heuristic and pluggable contention managers
//! (Polka by default, Serializer/Greedy for the STMBench7 experiments).
//!
//! ## Relation to the original
//!
//! The original RSTM manages heap *objects* through an object header with
//! an owner pointer and a visible-reader list. Our workloads live in the
//! shared word heap (see DESIGN.md §2), so the "objects" here are lock-table
//! stripes: every stripe carries an [`ObjectHeader`] with
//!
//! * an **owner** word (the acquiring transaction's slot),
//! * a **visible-readers bitmap** (one bit per thread slot),
//! * a **versioned lock** used for commit-time write-back.
//!
//! This keeps RSTM's cost profile — several metadata words touched per
//! access, reader-bitmap read-modify-writes in visible mode, Polka
//! bookkeeping — which is what drives its relative performance in the
//! paper's Lee-TM and red-black-tree experiments.
//!
//! ## Variants
//!
//! [`RstmVariant`] selects the acquisition strategy and read visibility;
//! the four combinations correspond to the four RSTM algorithm variants the
//! paper mentions in §2.1 and exercises in Figure 7 and Table 1.
//!
//! Everything else — the descriptor, the read path, validation, extension
//! and the contention-managed acquisition loop — is the shared
//! [`stm_core::engine`]. What this crate decides is its policy on the
//! paper's axes: it acquires at the first write or at commit, by variant; a
//! read waits out a write-back, an eager reader first fights a writer that
//! owns the object, a visible reader registers in the header; the snapshot
//! is extended; commit takes the version lock of every object it writes
//! and aborts (or backs off from) the object's visible readers.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use stm_core::prelude::*;
//! use rstm::{Rstm, RstmVariant};
//!
//! let stm = Arc::new(
//!     Rstm::builder()
//!         .config(stm_core::config::StmConfig::small())
//!         .variant(RstmVariant::eager_invisible())
//!         .build(),
//! );
//! let cell = stm.heap().alloc_zeroed(1).unwrap();
//! let mut ctx = ThreadContext::register(stm);
//! ctx.atomically(|tx| tx.write(cell, 1)).unwrap();
//! assert_eq!(ctx.read_word(cell).unwrap(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use stm_core::sync::{AtomicU64, Ordering};

use stm_core::cm::{CmHandle, Polka};
use stm_core::engine::{
    Builder, Claim, Desc, Descriptor, Engine, OnHeld, Policy, PolicyLog, Stripe,
};
use stm_core::error::TxResult;
use stm_core::locktable::LockTable;
use stm_core::logs::{OwnerTag, StripeSet, WriteLog};
use stm_core::prelude::*;
use stm_core::telemetry::ConflictSite;
use stm_core::tm::{self, DescriptorCore};

/// Acquisition strategy: when does a writer take ownership of an object?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acquisition {
    /// At the first write (encounter time).
    Eager,
    /// At commit time.
    Lazy,
}

/// Read visibility: do readers announce themselves in the object header?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadVisibility {
    /// Readers register in the per-object reader bitmap; writers abort them
    /// when acquiring the object.
    Visible,
    /// Readers leave no trace and validate their read set against object
    /// versions (with the global commit-counter heuristic).
    Invisible,
}

/// An RSTM algorithm variant: acquisition strategy × read visibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RstmVariant {
    /// Acquisition strategy.
    pub acquisition: Acquisition,
    /// Read visibility.
    pub visibility: ReadVisibility,
}

impl RstmVariant {
    /// Eager acquisition, invisible reads (the paper's default RSTM
    /// configuration).
    pub fn eager_invisible() -> Self {
        RstmVariant {
            acquisition: Acquisition::Eager,
            visibility: ReadVisibility::Invisible,
        }
    }

    /// Eager acquisition, visible reads.
    pub fn eager_visible() -> Self {
        RstmVariant {
            acquisition: Acquisition::Eager,
            visibility: ReadVisibility::Visible,
        }
    }

    /// Lazy acquisition, invisible reads.
    pub fn lazy_invisible() -> Self {
        RstmVariant {
            acquisition: Acquisition::Lazy,
            visibility: ReadVisibility::Invisible,
        }
    }

    /// Lazy acquisition, visible reads.
    pub fn lazy_visible() -> Self {
        RstmVariant {
            acquisition: Acquisition::Lazy,
            visibility: ReadVisibility::Visible,
        }
    }

    /// Short label used in experiment tables, e.g. `"eager/invisible"`.
    pub fn label(&self) -> &'static str {
        match (self.acquisition, self.visibility) {
            (Acquisition::Eager, ReadVisibility::Invisible) => "eager/invisible",
            (Acquisition::Eager, ReadVisibility::Visible) => "eager/visible",
            (Acquisition::Lazy, ReadVisibility::Invisible) => "lazy/invisible",
            (Acquisition::Lazy, ReadVisibility::Visible) => "lazy/visible",
        }
    }
}

impl Default for RstmVariant {
    fn default() -> Self {
        RstmVariant::eager_invisible()
    }
}

/// Per-object (per-stripe) metadata header.
#[derive(Debug, Default)]
pub struct ObjectHeader {
    /// Owning writer: 0 when unowned, otherwise the [`OwnerTag`] naming the
    /// owner's slot and the position of the object's record in its log.
    owner: AtomicU64,
    /// Bitmap of visible readers (bit *i* = thread slot *i*).
    readers: AtomicU64,
    /// Versioned lock used for commit-time write-back: `version << 1` when
    /// free, `1` while a writer installs its updates.
    version: AtomicU64,
}

impl ObjectHeader {
    /// Current owner, if any.
    #[inline]
    pub fn owner(&self) -> Option<ThreadSlot> {
        self.owner_tag().map(OwnerTag::slot)
    }

    /// Attempts to acquire ownership for `slot`, whose log will hold the
    /// object's record at position `record`.
    #[inline]
    pub fn try_acquire(&self, slot: ThreadSlot, record: usize) -> bool {
        self.owner
            .compare_exchange(
                OwnerTag::FREE,
                OwnerTag::new(slot, record).raw(),
                // sync: AcqRel on success — Acquire orders the new owner
                // after the previous release, Release publishes ownership
                // to conflicting transactions; Acquire on failure because
                // the loser reads the winner's tag to fight or wait.
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Releases ownership.
    #[inline]
    pub fn release(&self) {
        // sync: Release so the next acquirer sees the previous owner's
        // write-back (eager) or abandoned state (abort) before free.
        self.owner.store(OwnerTag::FREE, Ordering::Release);
    }

    /// Registers `slot` as a visible reader.
    #[inline]
    pub fn add_reader(&self, slot: ThreadSlot) {
        // sync: AcqRel RMW — registration must be ordered against a
        // concurrent writer's readers() scan: either the writer sees this
        // reader's bit, or this reader's subsequent version check sees the
        // writer's acquisition.
        self.readers.fetch_or(1 << slot.index(), Ordering::AcqRel);
    }

    /// Unregisters `slot` as a visible reader.
    #[inline]
    pub fn remove_reader(&self, slot: ThreadSlot) {
        self.readers
            // sync: AcqRel RMW, mirror of add_reader().
            .fetch_and(!(1 << slot.index()), Ordering::AcqRel);
    }

    /// Snapshot of the visible-reader bitmap.
    #[inline]
    pub fn readers(&self) -> u64 {
        // sync: Acquire pairs with add_reader's RMW so a writer that saw
        // the bitmap empty is ordered after the readers' deregistrations.
        self.readers.load(Ordering::Acquire)
    }

    /// Raw sample of the versioned lock.
    #[inline]
    pub fn version_raw(&self) -> u64 {
        // sync: Acquire pairs with publish_version's Release — observing
        // version v implies observing the write-back v stamps.
        self.version.load(Ordering::Acquire)
    }

    /// Current version, or `None` while a writer installs updates.
    #[inline]
    pub fn version(&self) -> Option<u64> {
        Self::version_in(self.version_raw())
    }

    /// Marks the object as being written back.
    #[inline]
    pub fn lock_version(&self) {
        // sync: Release — only the object's owner stores here; readers
        // spinning on the locked marker re-sample with Acquire.
        self.version.store(1, Ordering::Release);
    }

    /// Publishes a new version (unlocking the write-back lock).
    #[inline]
    pub fn publish_version(&self, version: u64) {
        // sync: Release publishes the installed updates before the new
        // version becomes visible (pairs with version_raw's Acquire).
        self.version.store(version << 1, Ordering::Release);
    }
}

/// The engine's view of the header: the owner word, and the version word
/// readers sample, hidden only while the owner installs its updates.
impl Stripe for ObjectHeader {
    #[inline]
    fn sample(&self) -> u64 {
        self.version_raw()
    }

    #[inline]
    fn version_in(raw: u64) -> Option<u64> {
        (raw & 1 == 0).then_some(raw >> 1)
    }

    #[inline]
    fn owner_tag(&self) -> Option<OwnerTag> {
        // sync: Acquire so whoever sees an owner tag also sees that
        // owner's descriptor state (pairs with try_acquire's Release).
        OwnerTag::from_raw(self.owner.load(Ordering::Acquire))
    }

    #[inline]
    fn owned_record(&self, slot: ThreadSlot) -> Option<usize> {
        // sync: Acquire, same edge as owner_tag().
        OwnerTag::record_in(self.owner.load(Ordering::Acquire), slot)
    }

    #[inline]
    fn claim(&self, slot: ThreadSlot, record: usize) -> Claim {
        if let Some(tag) = self.owner_tag() {
            return Claim::Held(tag);
        }
        if !self.try_acquire(slot, record) {
            return Claim::Lost;
        }
        // The version observed at acquisition lets commit detect read/write
        // races on the object itself. The previous owner publishes before it
        // releases, so the version cannot be locked here; be conservative
        // anyway and give the object back.
        match self.version() {
            Some(version) => Claim::Won(version),
            None => {
                self.release();
                Claim::Lost
            }
        }
    }

    #[inline]
    fn lock_write_back(&self) {
        self.lock_version();
    }

    #[inline]
    fn unlock_write_back(&self, version: u64) {
        self.publish_version(version);
    }

    #[inline]
    fn restore(&self, _version: u64) {
        self.release();
    }

    #[inline]
    fn publish(&self, version: u64) {
        self.publish_version(version);
        self.release();
    }
}

/// What an [`Rstm`] descriptor keeps beside the objects it owns.
#[derive(Debug, Default)]
pub struct RstmLog {
    /// Lazy acquisition only: the writes, buffered by address until commit
    /// acquires their objects.
    redo: WriteLog,
    /// Objects on which this transaction registered as a visible reader
    /// (O(1) membership test on the read hot path). Emptied by
    /// unregistering, at commit and rollback, never by `clear`.
    visible: StripeSet,
}

impl PolicyLog for RstmLog {
    #[inline]
    fn is_empty(&self) -> bool {
        self.redo.is_empty()
    }

    #[inline]
    fn clear(&mut self) {
        self.redo.clear();
    }

    fn write_back(&self, heap: &TmHeap) {
        self.redo.write_back(heap);
    }
}

impl AsMut<WriteLog> for RstmLog {
    fn as_mut(&mut self) -> &mut WriteLog {
        &mut self.redo
    }
}

/// Transaction descriptor of [`Rstm`]: the owned objects carry the version
/// observed when each was acquired, and each owner word names its record by
/// position; with eager acquisition the writes are chained off those
/// records.
pub type RstmDescriptor = Descriptor<RstmLog>;

/// Builder for [`Rstm`] instances.
#[derive(Debug, Default)]
pub struct RstmBuilder {
    engine: Builder<Rstm>,
    variant: RstmVariant,
}

impl RstmBuilder {
    /// Starts a builder with the paper's default RSTM configuration
    /// (eager acquisition, invisible reads, Polka).
    pub fn new() -> Self {
        RstmBuilder::default()
    }

    /// Sets the heap and lock-table configuration.
    pub fn config(mut self, config: StmConfig) -> Self {
        self.engine = self.engine.config(config);
        self
    }

    /// Sets the algorithm variant.
    pub fn variant(mut self, variant: RstmVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Replaces the contention manager (default: [`Polka`]).
    pub fn contention_manager(mut self, cm: CmHandle) -> Self {
        self.engine = self.engine.contention_manager(cm);
        self
    }

    /// Builds the STM instance.
    pub fn build(self) -> Rstm {
        Rstm {
            variant: self.variant,
            ..self.engine.build()
        }
    }
}

/// The RSTM-style software transactional memory.
#[derive(Debug)]
pub struct Rstm {
    engine: Engine<ObjectHeader>,
    variant: RstmVariant,
}

impl Rstm {
    /// Creates an instance with the paper's default configuration.
    pub fn new() -> Self {
        RstmBuilder::new().build()
    }

    /// Creates an instance with an explicit heap/lock-table configuration.
    pub fn with_config(config: StmConfig) -> Self {
        RstmBuilder::new().config(config).build()
    }

    /// Returns a builder for customised instances.
    pub fn builder() -> RstmBuilder {
        RstmBuilder::new()
    }

    /// The variant (acquisition × visibility) of this instance.
    pub fn variant(&self) -> RstmVariant {
        self.variant
    }

    /// Current value of the global commit counter.
    pub fn clock_value(&self) -> u64 {
        self.engine.clock.read()
    }

    /// The configured commit-clock mode.
    pub fn clock_mode(&self) -> ClockMode {
        self.engine.clock.mode()
    }

    /// The object-header table, exposed for diagnostics and for
    /// deterministic conflict rigs that stage stuck owners or visible
    /// readers (see `stm_core::testkit::RecordingCm`). Application code
    /// never needs it.
    pub fn objects(&self) -> &LockTable<ObjectHeader> {
        &self.engine.table
    }

    /// Aborts (or waits for) the visible readers of an object the caller
    /// just acquired, in ascending slot order.
    fn resolve_visible_readers(
        &self,
        core: &DescriptorCore,
        object: &ObjectHeader,
    ) -> TxResult<()> {
        let mut readers = object.readers() & !(1 << core.slot.index());
        while readers != 0 {
            let slot = ThreadSlot::new(readers.trailing_zeros() as usize);
            readers &= readers - 1;
            let reader = self.engine.registry.shared(slot);
            let resolution = self.engine.cm.resolve(&core.shared, reader);
            // This site cannot wait: any decision other than AbortSelf is
            // carried out by telling the reader to abort, so the telemetry
            // records the *effective* resolution — a literal `Wait` answer
            // would otherwise show up as waits with zero victim-aborts next
            // to a non-zero inflicted count.
            let effective = match resolution {
                Resolution::Wait => Resolution::AbortOther,
                other => other,
            };
            core.shared
                .telemetry()
                .record_resolution(ConflictSite::VisibleReader, effective);
            match resolution {
                Resolution::AbortSelf => return Err(Abort::WRITE_CONFLICT),
                Resolution::AbortOther | Resolution::Wait => {
                    if reader.request_abort() {
                        core.shared.telemetry().record_abort_inflicted();
                    }
                }
            }
        }
        Ok(())
    }

    /// The reads the inline path hands over. With eager acquisition an
    /// object owned by an active writer is an eagerly detected read/write
    /// conflict (RSTM "opens" the object and consults the contention
    /// manager) — the behaviour the paper's Figure 7/8 analysis attributes
    /// to eager designs; the owner is never the reader itself, whose own
    /// objects took the read-after-write path. A visible reader registers
    /// (once per object). A write-back in progress is waited out.
    #[cold]
    #[inline(never)]
    fn read_slow(
        &self,
        desc: &mut RstmDescriptor,
        lock_index: usize,
        addr: Addr,
    ) -> TxResult<Word> {
        let object = self.engine.table.entry_at(lock_index);
        if self.variant.acquisition == Acquisition::Eager {
            if let Err(abort) = self.engine.wait_unowned(&desc.core, object) {
                return tm::doom(self, desc, abort);
            }
        }
        if self.variant.visibility == ReadVisibility::Visible
            && !desc.policy.visible.contains(lock_index)
        {
            object.add_reader(desc.core.slot);
            desc.policy.visible.insert(lock_index, 0);
        }
        self.finish_read(desc, lock_index, object, addr)
    }

    /// Lazy variant: acquires the whole write set, in first-write order,
    /// each object once — the engine's acquisition loop recognises the
    /// objects an earlier entry acquired by their tag, and its liveness
    /// argument covers this order.
    fn acquire_write_set(&self, desc: &mut RstmDescriptor) -> TxResult<()> {
        for entry in desc.policy.redo.iter() {
            let object = self.engine.table.entry_at(entry.lock_index);
            let (fresh, site) = (desc.owned.stripe_count(), ConflictSite::Commit);
            let stripe = (entry.lock_index, object);
            if self
                .engine
                .acquire(&desc.core, &mut desc.owned, stripe, site)?
                == fresh
            {
                (self.engine.cm).on_write(&desc.core.shared, desc.owned.stripe_count());
                self.resolve_visible_readers(&desc.core, object)?;
            }
        }
        Ok(())
    }
}

impl Default for Rstm {
    fn default() -> Self {
        Rstm::new()
    }
}

/// Eager or lazy acquisition by variant, visible readers, and the version
/// lock taken over the write-back.
impl Policy for Rstm {
    type Stripe = ObjectHeader;
    type Log = RstmLog;
    const NAME: &'static str = "RSTM";
    /// An invisible read samples only the version word: a writer's commit
    /// locks it while installing updates, and the reader waits that out.
    const HELD: OnHeld = OnHeld::Wait;

    fn default_cm() -> CmHandle {
        Arc::new(Polka::new())
    }

    fn assemble(engine: Engine<ObjectHeader>) -> Self {
        Rstm {
            engine,
            variant: RstmVariant::default(),
        }
    }

    fn engine(&self) -> &Engine<ObjectHeader> {
        &self.engine
    }

    /// Log-free for the invisible variants: a visible reader's registration
    /// is a read log of its own.
    fn grants_log_free(&self) -> bool {
        self.variant.visibility == ReadVisibility::Invisible
    }

    /// Inline for an invisible read of an unowned object that nobody is
    /// installing and whose version the snapshot covers: call-free — RSTM's
    /// default manager, Polka, has its access counted in place.
    ///
    /// A log-free read is the version/value/version sample checked against
    /// the snapshot, and nothing else: the attempt has no objects or
    /// buffered writes of its own to look up, and it does not open an
    /// object a writer owns — a writer installs its updates only under the
    /// version lock the sample watches, so the reader detects the conflict
    /// lazily, like SwissTM, instead of fighting the owner for it.
    #[inline(always)]
    fn read_logged(&self, desc: &mut Desc<Self>, addr: Addr) -> TxResult<Word> {
        let lock_index = self.engine.table.index_of(addr);
        let object = self.engine.table.entry_at(lock_index);

        // Read-after-write.
        if let Some(record) = object.owned_record(desc.core.slot) {
            return desc.owned.read_owned(&self.engine.heap, record, addr);
        }
        if let Some(value) = desc.policy.redo.lookup(addr) {
            // Lazy variant: the write is buffered but the object not yet
            // acquired.
            return Ok(value);
        }

        if self.variant.acquisition == Acquisition::Eager && object.owner().is_some()
            || self.variant.visibility == ReadVisibility::Visible
        {
            return self.read_slow(desc, lock_index, addr);
        }
        self.finish_read(desc, lock_index, object, addr)
    }

    fn write_word(&self, desc: &mut Desc<Self>, addr: Addr, value: Word) -> TxResult<()> {
        if self.variant.acquisition == Acquisition::Lazy {
            return self.write_lazy(desc, addr, value);
        }
        // Visible readers conflict with the new writer right away.
        self.write_eager(desc, addr, value, |core, object| {
            self.resolve_visible_readers(core, object)
        })
    }

    /// Lazy variant: acquire the write set first. Commit then takes the
    /// version lock of every object written, validates and installs.
    #[inline(never)]
    fn commit_update(&self, desc: &mut Desc<Self>) -> TxResult<()> {
        if self.variant.acquisition == Acquisition::Lazy {
            if let Err(abort) = self.acquire_write_set(desc) {
                return tm::doom(self, desc, abort);
            }
        }
        self.commit_owned(desc, |desc| self.engine.validate(desc))
    }

    /// The visible-reader registrations end with the attempt.
    #[inline(always)]
    fn end_attempt(&self, desc: &mut Desc<Self>) {
        if desc.policy.visible.is_empty() {
            return;
        }
        for stripe in desc.policy.visible.iter() {
            let object = self.engine.table.entry_at(stripe.lock_index);
            object.remove_reader(desc.core.slot);
        }
        desc.policy.visible.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::config::StmConfig;
    use stm_core::tm::ThreadContext;

    fn stm_with(variant: RstmVariant) -> Arc<Rstm> {
        Arc::new(
            Rstm::builder()
                .config(StmConfig::small())
                .variant(variant)
                .build(),
        )
    }

    fn all_variants() -> Vec<RstmVariant> {
        vec![
            RstmVariant::eager_invisible(),
            RstmVariant::eager_visible(),
            RstmVariant::lazy_invisible(),
            RstmVariant::lazy_visible(),
        ]
    }

    #[test]
    fn read_your_own_writes_in_all_variants() {
        for variant in all_variants() {
            let stm = stm_with(variant);
            let addr = stm.heap().alloc_zeroed(1).unwrap();
            let mut ctx = ThreadContext::register(stm);
            let v = ctx
                .atomically(|tx| {
                    tx.write(addr, 11)?;
                    tx.read(addr)
                })
                .unwrap();
            assert_eq!(v, 11, "variant {}", variant.label());
        }
    }

    #[test]
    fn counter_is_consistent_under_concurrency_in_all_variants() {
        for variant in all_variants() {
            let stm = stm_with(variant);
            let addr = stm.heap().alloc_zeroed(1).unwrap();
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let stm = Arc::clone(&stm);
                    std::thread::spawn(move || {
                        let mut ctx = ThreadContext::register(stm);
                        for _ in 0..250 {
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
            assert_eq!(stm.heap().load(addr), 1000, "variant {}", variant.label());
        }
    }

    #[test]
    fn aborted_writes_leave_no_trace() {
        for variant in all_variants() {
            let stm = stm_with(variant);
            let addr = stm.heap().alloc_zeroed(1).unwrap();
            let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
            let _ = ctx.atomically(|tx| {
                tx.write(addr, 77)?;
                tx.retry::<()>()
            });
            assert_eq!(stm.heap().load(addr), 0, "variant {}", variant.label());
            // Object must be released so another transaction can write it.
            let mut ctx2 = ThreadContext::register(stm);
            ctx2.atomically(|tx| tx.write(addr, 5)).unwrap();
        }
    }

    #[test]
    fn visible_readers_are_cleared_on_commit() {
        let stm = stm_with(RstmVariant::eager_visible());
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        ctx.atomically(|tx| tx.read(addr)).unwrap();
        assert_eq!(stm.objects().entry(addr).readers(), 0);
    }

    #[test]
    fn object_header_reader_bitmap() {
        let header = ObjectHeader::default();
        header.add_reader(ThreadSlot::new(0));
        header.add_reader(ThreadSlot::new(5));
        assert_eq!(header.readers(), 0b100001);
        header.remove_reader(ThreadSlot::new(0));
        assert_eq!(header.readers(), 0b100000);
    }

    #[test]
    fn object_header_ownership() {
        let header = ObjectHeader::default();
        assert_eq!(header.owner(), None);
        assert!(header.try_acquire(ThreadSlot::new(2), 7));
        assert!(!header.try_acquire(ThreadSlot::new(3), 0));
        assert_eq!(header.owned_record(ThreadSlot::new(2)), Some(7));
        assert_eq!(header.owned_record(ThreadSlot::new(3)), None);
        header.release();
        assert_eq!(header.owner(), None);
        assert_eq!(header.owned_record(ThreadSlot::new(2)), None);
    }

    #[test]
    fn owner_tags_round_trip_every_slot_and_record() {
        for slot in (0..stm_core::clock::MAX_THREADS).map(ThreadSlot::new) {
            for record in [0, 1, 1 << 20, 1 << 40] {
                let header = ObjectHeader::default();
                assert!(header.try_acquire(slot, record));
                assert_eq!(header.owned_record(slot), Some(record));
                // A rival learns the owner's slot (its CM victim) and that
                // the object is not its own.
                let rival = ThreadSlot::new((slot.index() + 1) % stm_core::clock::MAX_THREADS);
                assert_eq!(header.owner(), Some(slot));
                assert_eq!(header.owned_record(rival), None);
            }
        }
    }

    #[test]
    fn object_header_version_lock() {
        let header = ObjectHeader::default();
        assert_eq!(header.version(), Some(0));
        header.lock_version();
        assert_eq!(header.version(), None);
        header.publish_version(6);
        assert_eq!(header.version(), Some(6));
    }

    #[test]
    fn variant_labels_are_distinct() {
        let mut labels: Vec<_> = all_variants().iter().map(|v| v.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn default_cm_is_polka() {
        let stm = Rstm::with_config(StmConfig::small());
        assert_eq!(stm.contention_manager().name(), "polka");
        assert_eq!(stm.variant(), RstmVariant::eager_invisible());
    }

    #[test]
    fn reader_spinning_on_write_back_locked_object_honours_remote_abort() {
        // Regression test: a reader spinning on an object whose write-back
        // lock is held must notice a remote abort request instead of
        // spinning until the lock is released.
        let stm = stm_with(RstmVariant::eager_invisible());
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        // Simulate a committer stuck mid-write-back.
        stm.objects().entry(addr).lock_version();

        let reader_stm = Arc::clone(&stm);
        let reader = std::thread::spawn(move || {
            let mut ctx = ThreadContext::register(reader_stm).with_retry_budget(3);
            ctx.atomically(|tx| tx.read(addr))
        });
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
        stm.objects().entry(addr).publish_version(0);
    }

    #[test]
    fn money_transfer_preserves_the_total() {
        let stm = stm_with(RstmVariant::eager_invisible());
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
                    let mut rng = stm_core::backoff::FastRng::new(t as u64 + 31);
                    for _ in 0..300 {
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
    fn validations_and_extensions_are_counted() {
        let counts =
            stm_core::testkit::validation_counts(&stm_with(RstmVariant::eager_invisible()));
        assert_eq!(counts.quiet, (0, 0), "nobody else committed");
        assert_eq!(counts.fresh_read, (0, 1));
        assert_eq!(
            counts.busy_commit,
            (1, 0),
            "a non-quiescent commit validates"
        );
    }
}
