//! Global clocks and the thread registry.
//!
//! * [`GlobalClock`] is the shared monotonically increasing counter used as
//!   the commit timestamp (`commit-ts` in the paper) and as the Greedy
//!   contention-manager clock (`greedy-ts`).
//! * [`TxClock`] wraps a [`GlobalClock`] with a [`ClockMode`]-selected
//!   timestamp protocol: the paper's strict `increment&get`, or a
//!   TL2/GV5-style deferred ("sloppy") clock that keeps update commits off
//!   the shared cache line. All four STMs take their snapshots and commit
//!   stamps through this type. In strict mode it also counts the stamped
//!   commits that have finished, which tells a log-free reader when its
//!   snapshot is *quiescent* and a read may check the clock instead of its
//!   stripe.
//! * [`ThreadRegistry`] hands out [`ThreadSlot`]s and stores one shared
//!   [`TxShared`] record per slot. Contention managers use these records to
//!   inspect and signal *other* transactions (e.g. Greedy aborting a
//!   victim), which is how the reproduction expresses the paper's
//!   `abort(lock-owner)` without raw pointers.

use std::sync::Arc;

use crate::sync::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::config::ClockMode;
use crate::error::StmError;
use crate::pad::CachePadded;
use crate::telemetry::ContentionTelemetry;

/// A shared monotonically increasing 64-bit counter.
///
/// Used both as the global commit counter (`commit-ts`) and, with a separate
/// instance, as the Greedy timestamp source (`greedy-ts`). The counter is
/// cache-line padded: it is the single most contended word in the system,
/// and without padding whatever the allocator happens to place next to it
/// (a registry header, another clock) is dragged into its coherence storms.
#[derive(Debug, Default)]
pub struct GlobalClock {
    value: CachePadded<AtomicU64>,
}

impl GlobalClock {
    /// Creates a clock starting at zero.
    pub fn new() -> Self {
        GlobalClock {
            value: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Reads the current clock value.
    #[inline]
    pub fn read(&self) -> u64 {
        // sync: Acquire pairs with the Release half of the committer RMWs
        // below — a reader that observes clock value v also observes every
        // stripe version published before the commit that produced v.
        self.value.load(Ordering::Acquire)
    }

    /// Atomically increments the clock and returns the *new* value
    /// (`increment&get` in the paper's pseudo-code).
    #[inline]
    pub fn increment_and_get(&self) -> u64 {
        // sync: AcqRel — Release publishes the committer's locked write set
        // to any reader whose snapshot observes the new value; Acquire
        // orders the committer after every earlier commit (this RMW is the
        // strict clock's only synchronisation edge, see the TxClock docs).
        self.value.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Atomically advances the clock to at least `target` and returns the
    /// resulting value. Used by TL2-style GV clocks when adopting a
    /// timestamp observed elsewhere.
    pub fn advance_to(&self, target: u64) -> u64 {
        // sync: Acquire — same reader edge as read(); the CAS below retries
        // from the observed value, so a stale first load only costs a loop.
        let mut current = self.value.load(Ordering::Acquire);
        while current < target {
            match self.value.compare_exchange_weak(
                current,
                target,
                // sync: AcqRel on success for the same publish edge as
                // increment_and_get; Acquire on failure because the
                // observed value seeds the next retry and may be returned
                // to a reader as its snapshot.
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return target,
                Err(observed) => current = observed,
            }
        }
        current
    }
}

/// Sentinel meaning "no Greedy timestamp yet" (the paper's `∞`).
pub const CM_TS_INFINITY: u64 = u64::MAX;

/// The timestamp handed to a committing update transaction by
/// [`TxClock::commit_stamp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitStamp {
    /// The version to publish on the written stripes.
    pub ts: u64,
    /// `true` when the clock guarantees that *no other* update transaction
    /// committed between the transaction's snapshot and `ts`, so commit-time
    /// read-set validation may be skipped. A strict clock hands out unique
    /// timestamps and sets this when `ts == snapshot + 1`; a deferred clock
    /// never sets it, because concurrent committers may share a timestamp
    /// and `ts == snapshot + 1` then proves nothing about quiescence.
    pub quiescent: bool,
}

impl CommitStamp {
    /// Whether the committer must run full read-set validation.
    #[inline]
    pub fn needs_validation(self) -> bool {
        !self.quiescent
    }
}

/// The commit clock used by the STM algorithms, in one of two modes.
///
/// # Strict mode (the paper's scheme)
///
/// [`TxClock::commit_stamp`] is `increment&get`: one CAS/`fetch_add` on the
/// shared counter per update commit. Timestamps are unique, and the RMW
/// doubles as the synchronisation edge that makes snapshot extension sound:
/// a reader whose snapshot is `v` has synchronised with the committer that
/// produced `v`, so it is guaranteed to see that committer's stripe locks.
/// The cost is that every committer in the system serialises on one cache
/// line — the exact coherence wall this module exists to remove.
///
/// # Deferred mode (GV5-style "sloppy" clock)
///
/// `commit_stamp` only *reads* the counter and stamps `read + 1` — no RMW,
/// no coherence traffic on the commit fast path. The counter advances
/// lazily, through [`TxClock::observe`], when a reader encounters a stripe
/// version ahead of its snapshot. Two trade-offs follow, both encoded in
/// the API so the STMs cannot get them wrong:
///
/// 1. **Timestamps are not unique.** Two concurrent committers may both
///    stamp `v + 1`, so the strict-mode shortcut "`ts == snapshot + 1`
///    implies nobody committed in between → skip read-set validation" is
///    unsound: a whole commit can complete without moving the clock.
///    [`CommitStamp::quiescent`] is therefore never set in deferred mode;
///    update commits always validate.
///
/// 2. **The RMW synchronisation edge is gone.** With plain loads, a reader
///    could take snapshot `v`, fail to see the stripe locks of a concurrent
///    committer that stamped `v` (its lock stores may not be visible yet),
///    validate successfully, and then accept that committer's
///    write-back as "not newer than my snapshot" — a mixed snapshot and an
///    opacity violation. The deferred clock restores the edge with two
///    `SeqCst` fences instead of a shared RMW: committers fence *between*
///    locking their write set and reading the clock
///    ([`TxClock::commit_stamp`]), readers fence *between* reading the
///    clock and validating ([`TxClock::read`]). For any committer/reader
///    pair, one fence precedes the other: either the reader's validation
///    sees the committer's locks (and fails or waits), or the committer's
///    clock read sees a value ≥ the reader's snapshot (and stamps beyond
///    it). Both fences are core-local — no cross-core cache-line traffic —
///    which is the entire point: under contention a local fence is vastly
///    cheaper than a shared-line RMW, and on the uncontended path it is
///    roughly a wash (documented in EXPERIMENTS.md).
///
/// Opacity is preserved in both modes; deferred mode pays slightly more
/// validation work (no quiescence shortcut) and slightly staler snapshots
/// (more false extensions/aborts) in exchange for a commit path that does
/// not touch any globally contended cache line.
///
/// # Quiescent snapshots (strict mode)
///
/// Beside the clock, strict mode counts the stamped commits that have
/// *retired* ([`TxClock::retire`]): written back and published, or, after a
/// failed validation, shown their old versions again. No STM stores to the
/// heap before its stamp, so while a snapshot is quiescent
/// ([`TxClock::is_quiescent`]: as many commits retired as stamped) and the
/// clock still reads it ([`TxClock::unchanged_since`]), the heap holds the
/// snapshot's values: a log-free read may load its word and then check the
/// clock instead of its stripe. Two arguments make that sound.
///
/// 1. A value load that returns the write-back of a commit stamped after
///    the snapshot synchronises with that Release store, which is sequenced
///    after the commit's stamp RMW; the clock load after the value load
///    then sees the moved clock.
/// 2. `retired == snapshot` means every commit stamped up to the snapshot
///    has retired — retired commits are a subset of the stamped ones, and
///    the Acquire load of the counter synchronises with every retirement it
///    counts — unless a commit stamped *after* the snapshot retired already.
///    Then that commit's stamp happens before the counter load, and every
///    later clock load differs from the snapshot. So the clock and the
///    counter may be loaded in either order.
///
/// Deferred mode never reports quiescence: its commits do not move the
/// clock, so an unchanged clock proves nothing, and it keeps no counter.
#[derive(Debug, Default)]
pub struct TxClock {
    clock: GlobalClock,
    /// Strict mode: the stamped commits that have retired. Its own line, so
    /// the retirements do not bounce the line every snapshot reads.
    retired: CachePadded<AtomicU64>,
    mode: ClockMode,
}

impl TxClock {
    /// Creates a clock in `mode`, starting at zero.
    pub fn new(mode: ClockMode) -> Self {
        TxClock {
            clock: GlobalClock::new(),
            retired: CachePadded::new(AtomicU64::new(0)),
            mode,
        }
    }

    /// The configured mode.
    #[inline]
    pub fn mode(&self) -> ClockMode {
        self.mode
    }

    /// Takes a snapshot of the clock for `begin` or snapshot extension.
    ///
    /// In deferred mode this issues the reader-side `SeqCst` fence *after*
    /// the load, so it must be called before the reads/validation it
    /// protects (which is how all the STMs' `begin` and `extend` paths are
    /// structured).
    #[inline]
    pub fn read(&self) -> u64 {
        let snapshot = self.clock.read();
        if self.mode == ClockMode::Deferred {
            // sync: SeqCst reader fence, paired with the committer fence in
            // commit_stamp. In the SC total order one of the pair is first:
            // either the reader's validation sees the committer's write-set
            // locks, or the committer's clock read sees >= the reader's
            // snapshot and stamps beyond it. Model-checked by
            // deferred_clock.rs in stm-model-tests.
            fence(Ordering::SeqCst);
        }
        snapshot
    }

    /// Produces the commit timestamp for an update transaction whose
    /// current snapshot is `snapshot`.
    ///
    /// Must be called *after* the write set is locked (which is where all
    /// four STMs call it): in deferred mode the committer-side fence sits
    /// between those lock stores and the clock read.
    #[inline]
    pub fn commit_stamp(&self, snapshot: u64) -> CommitStamp {
        match self.mode {
            ClockMode::Strict => {
                let ts = self.clock.increment_and_get();
                CommitStamp {
                    ts,
                    quiescent: ts == snapshot + 1,
                }
            }
            ClockMode::Deferred => {
                // sync: SeqCst committer fence between the write-set lock
                // stores and the clock read; see the pairing argument on
                // TxClock::read above.
                fence(Ordering::SeqCst);
                // The clock is monotone and `snapshot` was read from it, so
                // `read() + 1 > snapshot` always holds.
                CommitStamp {
                    ts: self.clock.read() + 1,
                    quiescent: false,
                }
            }
        }
    }

    /// Notes a stripe version ahead of the caller's snapshot.
    ///
    /// In deferred mode this is what advances the clock: versions published
    /// by committers are folded back in by the readers that encounter them,
    /// so a subsequent snapshot (or extension) reaches at least `version`
    /// and the reader stops tripping over the same stripe. Strict mode
    /// never hands out versions ahead of the counter, so this is a no-op.
    #[inline]
    pub fn observe(&self, version: u64) {
        if self.mode == ClockMode::Deferred && version > self.clock.read() {
            self.clock.advance_to(version);
        }
    }

    /// Marks a stamped commit retired: called once per
    /// [`TxClock::commit_stamp`], after the committer's last store to the
    /// heap and to its stripes. A no-op in deferred mode.
    #[inline]
    pub fn retire(&self) {
        if self.mode == ClockMode::Strict {
            // sync: Release — a snapshot that counts this retirement (the
            // Acquire load in is_quiescent, through the release sequence of
            // these RMWs) sees the commit's write-back and its published
            // stripes; the RMW keeps concurrent retirements from losing one.
            self.retired.fetch_add(1, Ordering::Release);
        }
    }

    /// Whether `snapshot`, a value [`TxClock::read`] returned, is quiescent:
    /// every commit stamped up to it has retired. Never in deferred mode.
    /// See the type's docs for why the counter may be loaded after the
    /// clock.
    #[inline]
    pub fn is_quiescent(&self, snapshot: u64) -> bool {
        // sync: Acquire, pairing with retire()'s Release: the caller sees the
        // write-back of every commit the counter counts.
        self.mode == ClockMode::Strict && self.retired.load(Ordering::Acquire) == snapshot
    }

    /// Whether the clock still reads `snapshot`: the check a quiet read
    /// makes after its value load. A plain Acquire load, with no deferred-
    /// mode fence — only a strict-mode quiescent snapshot relies on it.
    #[inline(always)]
    pub fn unchanged_since(&self, snapshot: u64) -> bool {
        self.clock.read() == snapshot
    }
}

/// Words of a [`TxShared`] record written by *other* threads.
///
/// Kept on a dedicated cache line: an attacker delivering an abort request
/// must not invalidate the line holding the owner's hot, owner-written
/// state (which the owner re-reads on every transactional operation).
#[derive(Debug)]
struct RemoteSignals {
    /// Set by an attacker that decided to abort this transaction.
    abort_requested: AtomicBool,
}

/// Words of a [`TxShared`] record written only by the *owning* thread
/// (other threads' contention managers read them).
#[derive(Debug)]
struct OwnerState {
    /// Contention-manager timestamp (`cm-ts`); [`CM_TS_INFINITY`] means the
    /// transaction is still in the first (timid) phase.
    cm_ts: AtomicU64,
    /// Polka/Karma-style priority: number of locations accessed so far.
    priority: AtomicU64,
    /// Number of successive aborts of the current transaction (reset on
    /// commit); drives randomized linear back-off.
    successive_aborts: AtomicU64,
    /// Number of times the current attempt's contention manager chose to
    /// wait; bounds Polka's wait budget per attempt.
    cm_waits: AtomicU64,
}

/// Per-thread state that must be visible to *other* threads.
///
/// Everything a contention manager may need to know about a foreign
/// transaction lives here: its Greedy/two-phase timestamp, its Polka
/// priority, whether somebody asked it to abort, and how many times it has
/// aborted in a row (for back-off).
///
/// The record is split into cache-line-padded groups by *writer*: words
/// written remotely (abort requests) are isolated from words written by the
/// owner (timestamps, counters, telemetry), and the whole record is
/// 64-byte aligned so two threads' records never share a line. Without the
/// split, every remote abort request would invalidate the owner's priority
/// and back-off counters — false sharing on the conflict-resolution path,
/// exactly where latency decides which transaction wins.
#[derive(Debug)]
pub struct TxShared {
    /// The owning thread slot (index into the registry).
    slot: ThreadSlot,
    /// Remotely written signal words, on their own line.
    remote: CachePadded<RemoteSignals>,
    /// Owner-written conflict-resolution state, on its own line.
    owner: CachePadded<OwnerState>,
    /// Contention telemetry counters (written by the owning thread only).
    telemetry: ContentionTelemetry,
}

impl TxShared {
    fn new(slot: ThreadSlot) -> Self {
        TxShared {
            slot,
            remote: CachePadded::new(RemoteSignals {
                abort_requested: AtomicBool::new(false),
            }),
            owner: CachePadded::new(OwnerState {
                cm_ts: AtomicU64::new(CM_TS_INFINITY),
                priority: AtomicU64::new(0),
                successive_aborts: AtomicU64::new(0),
                cm_waits: AtomicU64::new(0),
            }),
            telemetry: ContentionTelemetry::default(),
        }
    }

    /// The thread slot this record belongs to.
    pub fn slot(&self) -> ThreadSlot {
        self.slot
    }

    /// Current contention-manager timestamp ([`CM_TS_INFINITY`] if unset).
    #[inline]
    pub fn cm_ts(&self) -> u64 {
        // sync: Acquire/Release on cm_ts so a Greedy/Serializer CM that
        // reads a rival's timestamp also sees the writes of the attempt
        // that published it (priority decisions stay causally consistent).
        self.owner.cm_ts.load(Ordering::Acquire)
    }

    /// Sets the contention-manager timestamp.
    #[inline]
    pub fn set_cm_ts(&self, ts: u64) {
        // sync: Release half of the cm_ts edge documented on cm_ts().
        self.owner.cm_ts.store(ts, Ordering::Release);
    }

    /// Current Polka-style priority.
    #[inline]
    pub fn priority(&self) -> u64 {
        // sync: Relaxed — Polka priorities are heuristic inputs to conflict
        // resolution; a stale value changes which side backs off, never
        // correctness (see the telemetry module for the exemption rule).
        self.owner.priority.load(Ordering::Relaxed)
    }

    /// Sets the Polka-style priority.
    #[inline]
    pub fn set_priority(&self, p: u64) {
        // sync: Relaxed — heuristic, see priority().
        self.owner.priority.store(p, Ordering::Relaxed);
    }

    /// Increments the Polka-style priority by one.
    #[inline]
    pub fn bump_priority(&self) {
        // sync: Relaxed load + store instead of an RMW — the priority is
        // written only by its owning thread (set_priority and bump_priority
        // are always called on `me`), so no increment can be lost, and Polka
        // calls this once per read and write: a `lock xadd` there cost more
        // than the other four managers' whole hook set. Remote readers
        // tolerate staleness, see priority().
        let bumped = self.owner.priority.load(Ordering::Relaxed).wrapping_add(1);
        // sync: Relaxed — the store half of the owner-only increment above.
        self.owner.priority.store(bumped, Ordering::Relaxed);
    }

    /// Requests that the owning transaction aborts itself at its next
    /// transactional operation. Returns `true` when the request was newly
    /// delivered (the flag transitioned from clear to set) — the caller uses
    /// this to count *inflicted* remote aborts without double-counting
    /// re-requests while a previous one is still pending.
    #[inline]
    pub fn request_abort(&self) -> bool {
        // sync: AcqRel RMW — Release so the victim's next Acquire poll also
        // sees why it was aborted (the requester's conflicting ownership),
        // Acquire so the requester observes the victim state it is about to
        // act on; the RMW makes concurrent requesters agree on who delivered
        // first. Model-checked by remote_abort.rs in stm-model-tests.
        !self.remote.abort_requested.swap(true, Ordering::AcqRel)
    }

    /// Returns `true` if some other transaction requested an abort.
    #[inline]
    pub fn abort_requested(&self) -> bool {
        // sync: Acquire, pairing with the Release in request_abort().
        self.remote.abort_requested.load(Ordering::Acquire)
    }

    /// Clears the abort request flag (called when a new attempt starts).
    #[inline]
    pub fn clear_abort_request(&self) {
        // sync: Release so a requester that still sees `true` after this
        // store can only have raced the new attempt, not an old one.
        self.remote.abort_requested.store(false, Ordering::Release);
    }

    /// Number of successive aborts of the currently running transaction.
    #[inline]
    pub fn successive_aborts(&self) -> u64 {
        // sync: Relaxed — backoff/CM heuristic counters, owner-written;
        // remote readers tolerate staleness (telemetry exemption rule).
        self.owner.successive_aborts.load(Ordering::Relaxed)
    }

    /// Records one more abort and returns the updated count.
    #[inline]
    pub fn record_abort(&self) -> u64 {
        // sync: Relaxed — heuristic, see successive_aborts().
        self.owner.successive_aborts.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Resets the successive abort counter (on commit).
    #[inline]
    pub fn reset_aborts(&self) {
        // sync: Relaxed — heuristic, see successive_aborts().
        self.owner.successive_aborts.store(0, Ordering::Relaxed);
    }

    /// Number of CM waits recorded for the current attempt.
    #[inline]
    pub fn cm_wait_count(&self) -> u64 {
        // sync: Relaxed — heuristic, see successive_aborts().
        self.owner.cm_waits.load(Ordering::Relaxed)
    }

    /// Records one more CM wait of the current attempt.
    #[inline]
    pub fn bump_cm_waits(&self) {
        // sync: Relaxed — heuristic, see successive_aborts().
        self.owner.cm_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Resets the per-attempt CM wait counter (called from `on_start`).
    #[inline]
    pub fn reset_cm_waits(&self) {
        // sync: Relaxed — heuristic, see successive_aborts().
        self.owner.cm_waits.store(0, Ordering::Relaxed);
    }

    /// The thread's contention telemetry counters.
    #[inline]
    pub fn telemetry(&self) -> &ContentionTelemetry {
        &self.telemetry
    }
}

/// Identifier of a registered thread (a dense index starting at zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadSlot(usize);

impl ThreadSlot {
    /// Creates a slot from a raw index. Mostly useful in tests.
    pub const fn new(index: usize) -> Self {
        ThreadSlot(index)
    }

    /// The raw slot index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ThreadSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Maximum number of threads a single STM instance supports.
///
/// The bound exists because visible-reader bitmaps (used by the RSTM
/// baseline) store one bit per thread in a single word.
pub const MAX_THREADS: usize = 64;

/// Registry of per-thread shared records.
#[derive(Debug)]
pub struct ThreadRegistry {
    slots: Vec<Arc<TxShared>>,
    next: AtomicUsize,
}

impl ThreadRegistry {
    /// Creates a registry with capacity for [`MAX_THREADS`] threads.
    pub fn new() -> Self {
        let slots = (0..MAX_THREADS)
            .map(|i| Arc::new(TxShared::new(ThreadSlot(i))))
            .collect();
        ThreadRegistry {
            slots,
            next: AtomicUsize::new(0),
        }
    }

    /// Registers the calling thread and returns its slot.
    ///
    /// # Errors
    ///
    /// Returns [`StmError::TooManyThreads`] once [`MAX_THREADS`] slots have
    /// been handed out.
    pub fn register(&self) -> Result<ThreadSlot, StmError> {
        // sync: AcqRel — the RMW hands out unique slots; Release/Acquire
        // orders slot initialisation with registered() readers iterating
        // live slots.
        let idx = self.next.fetch_add(1, Ordering::AcqRel);
        if idx >= MAX_THREADS {
            return Err(StmError::TooManyThreads { max: MAX_THREADS });
        }
        Ok(ThreadSlot(idx))
    }

    /// Number of slots handed out so far.
    pub fn registered(&self) -> usize {
        // sync: Acquire, pairing with register()'s Release (see above).
        self.next.load(Ordering::Acquire).min(MAX_THREADS)
    }

    /// Shared record for `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn shared(&self, slot: ThreadSlot) -> &Arc<TxShared> {
        &self.slots[slot.index()]
    }

    /// Iterates over the shared records of all slots handed out so far.
    pub fn iter_registered(&self) -> impl Iterator<Item = &Arc<TxShared>> {
        self.slots.iter().take(self.registered())
    }
}

impl Default for ThreadRegistry {
    fn default() -> Self {
        ThreadRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_increments() {
        let c = GlobalClock::new();
        assert_eq!(c.read(), 0);
        assert_eq!(c.increment_and_get(), 1);
        assert_eq!(c.increment_and_get(), 2);
        assert_eq!(c.read(), 2);
    }

    #[test]
    fn clock_advance_to_is_monotone() {
        let c = GlobalClock::new();
        assert_eq!(c.advance_to(10), 10);
        assert_eq!(c.advance_to(5), 10);
        assert_eq!(c.read(), 10);
    }

    #[test]
    fn registry_hands_out_dense_slots() {
        let r = ThreadRegistry::new();
        let a = r.register().unwrap();
        let b = r.register().unwrap();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(r.registered(), 2);
        assert_eq!(r.shared(a).slot(), a);
    }

    #[test]
    fn registry_rejects_too_many_threads() {
        let r = ThreadRegistry::new();
        for _ in 0..MAX_THREADS {
            r.register().unwrap();
        }
        assert!(matches!(r.register(), Err(StmError::TooManyThreads { .. })));
    }

    #[test]
    fn tx_shared_flags_round_trip() {
        let r = ThreadRegistry::new();
        let slot = r.register().unwrap();
        let shared = r.shared(slot);
        assert_eq!(shared.cm_ts(), CM_TS_INFINITY);
        shared.set_cm_ts(7);
        assert_eq!(shared.cm_ts(), 7);

        assert!(!shared.abort_requested());
        assert!(shared.request_abort(), "first request is newly delivered");
        assert!(shared.abort_requested());
        assert!(
            !shared.request_abort(),
            "re-request while pending is not a fresh delivery"
        );
        shared.clear_abort_request();
        assert!(!shared.abort_requested());

        assert_eq!(shared.cm_wait_count(), 0);
        shared.bump_cm_waits();
        shared.bump_cm_waits();
        assert_eq!(shared.cm_wait_count(), 2);
        shared.reset_cm_waits();
        assert_eq!(shared.cm_wait_count(), 0);

        assert_eq!(shared.record_abort(), 1);
        assert_eq!(shared.record_abort(), 2);
        shared.reset_aborts();
        assert_eq!(shared.successive_aborts(), 0);

        shared.set_priority(3);
        shared.bump_priority();
        assert_eq!(shared.priority(), 4);
    }

    #[test]
    fn strict_stamps_are_unique_and_detect_quiescence() {
        let clock = TxClock::new(ClockMode::Strict);
        let snapshot = clock.read();
        let first = clock.commit_stamp(snapshot);
        assert_eq!(first.ts, snapshot + 1);
        assert!(first.quiescent, "no intervening commit: skip validation");
        assert!(!first.needs_validation());
        let second = clock.commit_stamp(snapshot);
        assert_eq!(second.ts, snapshot + 2);
        assert!(second.needs_validation(), "a commit intervened");
        assert_eq!(clock.read(), snapshot + 2);
    }

    #[test]
    fn a_strict_snapshot_is_quiescent_once_every_stamped_commit_retired() {
        let clock = TxClock::new(ClockMode::Strict);
        assert!(clock.is_quiescent(clock.read()));
        let first = clock.commit_stamp(0);
        let second = clock.commit_stamp(0);
        let snapshot = clock.read();
        assert!(!clock.is_quiescent(snapshot), "two commits in flight");
        clock.retire();
        assert!(!clock.is_quiescent(snapshot), "one commit in flight");
        clock.retire();
        assert!(clock.is_quiescent(snapshot));
        assert!(clock.unchanged_since(snapshot));
        assert_eq!(snapshot, second.ts);
        assert!(!clock.unchanged_since(first.ts), "the clock moved past it");
    }

    #[test]
    fn a_deferred_snapshot_is_never_quiescent() {
        let clock = TxClock::new(ClockMode::Deferred);
        assert!(!clock.is_quiescent(clock.read()));
        clock.commit_stamp(0);
        clock.retire();
        assert!(!clock.is_quiescent(clock.read()));
        assert!(!clock.is_quiescent(1));
    }

    #[test]
    fn strict_observe_is_a_no_op() {
        let clock = TxClock::new(ClockMode::Strict);
        clock.observe(100);
        assert_eq!(clock.read(), 0);
    }

    #[test]
    fn deferred_stamps_do_not_advance_the_clock() {
        let clock = TxClock::new(ClockMode::Deferred);
        assert_eq!(clock.mode(), ClockMode::Deferred);
        let snapshot = clock.read();
        let first = clock.commit_stamp(snapshot);
        let second = clock.commit_stamp(snapshot);
        assert_eq!(first.ts, snapshot + 1);
        assert_eq!(second.ts, first.ts, "stamps may repeat without an RMW");
        assert_eq!(clock.read(), snapshot, "the counter did not move");
        assert!(
            first.needs_validation() && second.needs_validation(),
            "deferred commits must always validate"
        );
    }

    #[test]
    fn deferred_clock_advances_through_observation() {
        let clock = TxClock::new(ClockMode::Deferred);
        clock.observe(7);
        assert_eq!(clock.read(), 7, "an observed version catches the clock up");
        clock.observe(3);
        assert_eq!(clock.read(), 7, "observation is monotone");
        let stamp = clock.commit_stamp(5);
        assert_eq!(stamp.ts, 8, "stamps sit one past the observed frontier");
    }

    #[test]
    fn tx_shared_isolates_remote_and_owner_lines() {
        use crate::pad::CACHE_LINE_BYTES;
        use std::mem::{align_of, size_of};

        assert_eq!(align_of::<TxShared>(), CACHE_LINE_BYTES);
        assert_eq!(size_of::<CachePadded<RemoteSignals>>(), CACHE_LINE_BYTES);
        assert_eq!(size_of::<CachePadded<OwnerState>>(), CACHE_LINE_BYTES);
        // The whole record is a multiple of the line size, so consecutive
        // records in any allocation never share a line.
        assert_eq!(size_of::<TxShared>() % CACHE_LINE_BYTES, 0);
        // The padded global clock occupies exactly one line.
        assert_eq!(align_of::<GlobalClock>(), CACHE_LINE_BYTES);
        assert_eq!(size_of::<GlobalClock>(), CACHE_LINE_BYTES);
    }

    #[test]
    fn clock_is_shared_across_threads() {
        let c = Arc::new(GlobalClock::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.increment_and_get();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.read(), 4000);
    }
}
