//! Read, write and allocation logs kept by transaction descriptors.
//!
//! The read and allocation logs are append-only `Vec`s, as in the paper's
//! STMs. What is *searched on the hot paths* never pays a scan proportional
//! to the log size, and how depends on when the STM acquires:
//!
//! * [`OwnedWriteLog`], for the encounter-time lockers, is indexed through
//!   the lock word: the [`OwnerTag`] the acquiring CAS stores names the
//!   owner's stripe record, so a re-write, a read-after-write or a
//!   validation self-check decodes the tag it has just loaded and indexes —
//!   no hashing at all (paper §3.3: the `w-lock` *is* the pointer to the
//!   write-log entry).
//! * [`WriteLog`], for the STMs that hold no lock at write time (TL2, lazy
//!   RSTM), answers read-after-write lookups by address through a hash
//!   index, one probe per write. In front of that index sits a constant-size
//!   bit summary of the written addresses (TL2's Bloom filter), so a read of
//!   an attempt that has written probes the index only when the address may
//!   be its own. Commit locks the stripes in first-write order, straight off
//!   the entries; a stripe several entries share is recognised by the
//!   committer's own tag in its lock word.
//! * [`StripeSet`] is what is left for membership by stripe with no lock
//!   word to ask: RSTM's visible-reader registrations.
//! * [`ReadLog`] keeps a *validated watermark*: the prefix of the log that
//!   was confirmed consistent by the last successful snapshot extension.
//!   Extension checks the fresh suffix first (the entries that can actually
//!   carry a new conflict) before re-confirming the prefix, so a doomed
//!   snapshot is detected without scanning the whole log.
//!
//! This keeps the per-operation bookkeeping of the reproduced algorithms
//! constant-time, which is the regime their published cost models assume
//! (validation linear in the read-set size with O(1) per entry, not
//! O(read-set × write-set)).

use std::collections::hash_map::Entry;

use crate::clock::ThreadSlot;
use crate::error::TxResult;
use crate::hash::{fast_map_with_capacity, FastHashMap};
use crate::heap::TmHeap;
use crate::word::{Addr, Word};

/// One entry of a read log: which lock-table entry was read and the version
/// observed at the time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadEntry {
    /// Index of the lock-table entry covering the location.
    pub lock_index: usize,
    /// Version number observed when the location was first read.
    pub version: u64,
}

/// Append-only read log with a validated watermark.
///
/// The watermark marks the prefix of the log that was confirmed consistent
/// by the last successful validation ([`ReadLog::mark_validated`]).
/// Algorithms use it to check the *unvalidated suffix first* during
/// snapshot extension; the prefix must still be re-confirmed before the
/// snapshot timestamp advances (skipping it would violate opacity: a stripe
/// validated at the old timestamp may have been overwritten since), but a
/// conflict on the fresh entries is now detected without touching the rest
/// of the log.
#[derive(Debug, Default)]
pub struct ReadLog {
    entries: Vec<ReadEntry>,
    validated: usize,
}

impl ReadLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        ReadLog {
            entries: Vec::with_capacity(64),
            validated: 0,
        }
    }

    /// Appends an entry.
    #[inline]
    pub fn push(&mut self, lock_index: usize, version: u64) {
        self.entries.push(ReadEntry {
            lock_index,
            version,
        });
    }

    /// Appends an entry unless the log would have to grow for it; `false`
    /// sends the caller to its out-of-line path, which calls
    /// [`ReadLog::push`]. This is what keeps a read's inline fast path free
    /// of calls: the allocator is only ever reached from the cold side.
    #[inline]
    pub fn try_push(&mut self, lock_index: usize, version: u64) -> bool {
        let has_room = self.entries.len() < self.entries.capacity();
        if has_room {
            self.push(lock_index, version);
        }
        has_room
    }

    /// Number of logged reads.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no reads were logged.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The logged reads in program order.
    #[inline]
    pub fn entries(&self) -> &[ReadEntry] {
        &self.entries
    }

    /// Iterates over the logged reads in program order.
    pub fn iter(&self) -> impl Iterator<Item = &ReadEntry> {
        self.entries.iter()
    }

    /// Length of the prefix confirmed by the last successful validation
    /// (diagnostic accessor; the watermark itself is advanced only by
    /// [`ReadLog::extend_with`]).
    #[inline]
    pub fn validated_len(&self) -> usize {
        self.validated
    }

    /// Runs a snapshot extension over the log: `entries_valid` is called on
    /// the suffix appended since the last successful extension first (the
    /// fail-fast path — fresh entries are the ones that can carry a new
    /// conflict), then on the already-validated prefix. Only if both passes
    /// succeed is the watermark advanced.
    ///
    /// The prefix re-check is mandatory for opacity, not an optimisation
    /// artifact: an entry validated at an older timestamp may cover a
    /// stripe that was overwritten since, and only the per-entry version
    /// check can detect that. Implementing the ordering here keeps the
    /// invariant in one place for every STM that extends snapshots.
    #[inline]
    pub fn extend_with(&mut self, mut entries_valid: impl FnMut(&[ReadEntry]) -> bool) -> bool {
        if !entries_valid(&self.entries[self.validated..]) {
            return false;
        }
        if !entries_valid(&self.entries[..self.validated]) {
            return false;
        }
        self.validated = self.entries.len();
        true
    }

    /// Clears the log for the next transaction attempt.
    #[inline]
    pub fn clear(&mut self) {
        self.entries.clear();
        self.validated = 0;
    }
}

/// One record of a [`StripeSet`]: a lock-table index and the version the
/// stripe carried when it was recorded.
///
/// Algorithms use the version to restore a stripe's lock word when an
/// attempt aborts and to recognise, during validation, reads that observed
/// the stripe *before* this transaction acquired it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeRecord {
    /// Index of the lock-table entry.
    pub lock_index: usize,
    /// Version observed when the stripe was recorded.
    pub version: u64,
}

/// An insertion-ordered set of lock-table stripes with O(1) membership and
/// version lookup.
///
/// This replaces the `Vec<(usize, u64)>` + linear-scan pattern the seed
/// used for acquired-stripe tracking: `insert`, `contains` and
/// `version_of` are all amortised O(1), while iteration still yields the
/// records in acquisition order (commit and rollback rely on that to
/// release each lock exactly once).
#[derive(Debug, Default)]
pub struct StripeSet {
    records: Vec<StripeRecord>,
    index: FastHashMap<usize, usize>,
}

impl StripeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        StripeSet {
            records: Vec::with_capacity(16),
            index: fast_map_with_capacity(16),
        }
    }

    /// Inserts `lock_index` with the given `version`. Returns `true` if the
    /// stripe was not yet recorded; an existing record keeps its original
    /// version (the first observation is the one abort paths must restore).
    pub fn insert(&mut self, lock_index: usize, version: u64) -> bool {
        match self.index.entry(lock_index) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(self.records.len());
                self.records.push(StripeRecord {
                    lock_index,
                    version,
                });
                true
            }
        }
    }

    /// Returns `true` if `lock_index` is in the set.
    #[inline]
    pub fn contains(&self, lock_index: usize) -> bool {
        self.index.contains_key(&lock_index)
    }

    /// The version recorded for `lock_index`, if present.
    #[inline]
    pub fn version_of(&self, lock_index: usize) -> Option<u64> {
        self.index
            .get(&lock_index)
            .map(|&pos| self.records[pos].version)
    }

    /// Iterates over the records in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &StripeRecord> {
        self.records.iter()
    }

    /// Number of recorded stripes.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no stripe is recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Clears the set for the next transaction attempt. Inline and guarded:
    /// `begin` clears sets that the previous commit or rollback already
    /// emptied, and an empty set (records and index fill together) costs
    /// one compare instead of a call into the hash table.
    #[inline]
    pub fn clear(&mut self) {
        if !self.records.is_empty() {
            self.records.clear();
            self.index.clear();
        }
    }
}

/// One entry of a write (redo) log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteEntry {
    /// The written address.
    pub addr: Addr,
    /// The value to install at commit time.
    pub value: Word,
    /// Index of the lock-table entry covering `addr`.
    pub lock_index: usize,
    /// Version of the location when the stripe was acquired (used by
    /// algorithms that restore versions on rollback).
    pub version: u64,
}

/// Bits in a [`WriteLog`]'s address summary: bit `i` stands for every word
/// whose index is `i` modulo this (8 KiB of summary).
const SUMMARY_BITS: usize = 1 << 16;

/// Entries above which [`WriteLog::clear`] zeroes the whole summary rather
/// than the summary word of each entry.
const SUMMARY_WHOLESALE_CLEAR: usize = 128;

/// The summary word and the bit in it that stand for `addr`.
#[inline(always)]
fn summary_slot(addr: Addr) -> (usize, u64) {
    let bit = addr.index() % SUMMARY_BITS;
    (bit / 64, 1 << (bit % 64))
}

/// A redo log with O(1) read-after-write lookups by address, for the STMs
/// that acquire at commit time (TL2, lazy RSTM).
///
/// A bit summary of the written addresses answers most misses without
/// hashing: [`WriteLog::may_contain`] is never wrong about an address the
/// log holds, and an address it does not hold is a false positive only if
/// some written word's index equals it modulo 2^16. Several written
/// addresses may share a lock-table stripe; [`WriteLog::iter`] yields them
/// all, and a committer takes each stripe once by recognising its own tag
/// in the lock word.
pub struct WriteLog {
    entries: Vec<WriteEntry>,
    by_addr: FastHashMap<Addr, usize>,
    summary: Box<[u64; SUMMARY_BITS / 64]>,
}

impl std::fmt::Debug for WriteLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteLog")
            .field("entries", &self.entries)
            .finish_non_exhaustive()
    }
}

impl Default for WriteLog {
    fn default() -> Self {
        WriteLog::new()
    }
}

impl WriteLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        WriteLog {
            entries: Vec::with_capacity(32),
            by_addr: fast_map_with_capacity(32),
            summary: Box::new([0; SUMMARY_BITS / 64]),
        }
    }

    /// Records a write to `addr`. If the address was already written the
    /// existing entry's value is updated (no new entry is appended) and
    /// `false` is returned; otherwise a new entry is appended and `true` is
    /// returned. One probe of the address index either way.
    pub fn record(&mut self, addr: Addr, value: Word, lock_index: usize, version: u64) -> bool {
        match self.by_addr.entry(addr) {
            Entry::Occupied(slot) => {
                self.entries[*slot.get()].value = value;
                false
            }
            Entry::Vacant(slot) => {
                slot.insert(self.entries.len());
                self.entries.push(WriteEntry {
                    addr,
                    value,
                    lock_index,
                    version,
                });
                let (word, bit) = summary_slot(addr);
                self.summary[word] |= bit;
                true
            }
        }
    }

    /// `false` if `addr` was certainly not written; `true` if it was, or if
    /// a written word's index equals its own modulo 2^16. One load and a
    /// bit test.
    #[inline(always)]
    pub fn may_contain(&self, addr: Addr) -> bool {
        let (word, bit) = summary_slot(addr);
        self.summary[word] & bit != 0
    }

    /// Looks up the latest value written to `addr`, if any. An empty log —
    /// every read of a transaction that has not written yet, and every read
    /// of eager RSTM — and an address the summary rules out answer inline,
    /// without hashing.
    #[inline(always)]
    pub fn lookup(&self, addr: Addr) -> Option<Word> {
        if self.entries.is_empty() || !self.may_contain(addr) {
            return None;
        }
        self.probe(addr)
    }

    /// The hash-index half of [`WriteLog::lookup`].
    #[inline(never)]
    fn probe(&self, addr: Addr) -> Option<Word> {
        self.by_addr.get(&addr).map(|&pos| self.entries[pos].value)
    }

    /// Number of distinct written addresses.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the write entries in first-write order.
    pub fn iter(&self) -> impl Iterator<Item = &WriteEntry> {
        self.entries.iter()
    }

    /// Clears the log for the next transaction attempt; inline and guarded
    /// like [`StripeSet::clear`] (entries, address map and summary fill
    /// together).
    #[inline]
    pub fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.clear_filled();
        }
    }

    /// Zeroes the summary word of each entry — 8 KiB at once for a write
    /// set large enough that this is cheaper — and empties the rest.
    #[inline(never)]
    fn clear_filled(&mut self) {
        if self.entries.len() > SUMMARY_WHOLESALE_CLEAR {
            self.summary.fill(0);
        } else {
            for entry in &self.entries {
                self.summary[summary_slot(entry.addr).0] = 0;
            }
        }
        self.entries.clear();
        self.by_addr.clear();
    }
}

/// What an encounter-time locker's acquiring CAS stores in a lock word: the
/// owner's thread slot (`slot + 1` in the low 16 bits, so no tag is `0`)
/// and, above it, the position of the stripe's record in the owner's
/// [`OwnedWriteLog`]. A rival reads the slot to pick a contention-management
/// victim; the owner reads the position to reach its own entries without
/// searching for them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OwnerTag(u64);

impl OwnerTag {
    /// Raw value of a lock word nobody owns.
    pub const FREE: u64 = 0;
    /// Width of the slot field ([`crate::clock::MAX_THREADS`] is 64). A
    /// record position may use 41 bits and still leave a lock word its flag
    /// bit.
    pub const SLOT_BITS: u32 = 16;

    /// The tag of `slot` owning the stripe recorded at position `record`.
    #[inline]
    pub fn new(slot: ThreadSlot, record: usize) -> Self {
        debug_assert!(slot.index() < (1 << Self::SLOT_BITS) - 1 && record < 1 << 41);
        OwnerTag((record as u64) << Self::SLOT_BITS | (slot.index() as u64 + 1))
    }

    /// Decodes a raw owner word; `None` for [`OwnerTag::FREE`].
    #[inline]
    pub fn from_raw(raw: u64) -> Option<Self> {
        (raw != Self::FREE).then_some(OwnerTag(raw))
    }

    /// The raw owner word.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The owning thread's slot.
    #[inline]
    pub fn slot(self) -> ThreadSlot {
        ThreadSlot::new(((self.0 & ((1 << Self::SLOT_BITS) - 1)) - 1) as usize)
    }

    /// Position of the stripe's record in the owner's log.
    #[inline]
    pub fn record(self) -> usize {
        (self.0 >> Self::SLOT_BITS) as usize
    }

    /// The record position, if `slot` is the owner.
    #[inline]
    pub fn record_of(self, slot: ThreadSlot) -> Option<usize> {
        Self::record_in(self.0, slot)
    }

    /// The record position, if the raw owner word `raw` is `slot`'s tag: one
    /// mask and compare, which is all an access to an unowned stripe pays.
    #[inline]
    pub fn record_in(raw: u64, slot: ThreadSlot) -> Option<usize> {
        let mine = raw & ((1 << Self::SLOT_BITS) - 1) == slot.index() as u64 + 1;
        mine.then_some((raw >> Self::SLOT_BITS) as usize)
    }
}

/// End of an [`OwnedStripe`]'s entry chain.
const NO_ENTRY: u32 = u32::MAX;

/// One stripe an encounter-time locker owns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OwnedStripe {
    /// Index of the lock-table entry.
    pub lock_index: usize,
    /// Version the stripe carried at acquisition: restored when the attempt
    /// aborts, and what a read of the stripe made *before* the acquisition
    /// must have observed to still be valid.
    pub version: u64,
    /// Newest write entry of this stripe, [`NO_ENTRY`] if none.
    head: u32,
}

/// One buffered write of an [`OwnedWriteLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OwnedWrite {
    /// The written address.
    pub addr: Addr,
    /// The value to install at commit time.
    pub value: Word,
    /// The stripe's next-older entry, [`NO_ENTRY`] at the end of the chain.
    next: u32,
}

/// The redo log of an encounter-time locker: two `Vec`s and no hash index.
///
/// The owner is told where a stripe's record is by the lock word itself (see
/// [`OwnerTag`]): it reads [`OwnedWriteLog::stripe_count`] before the
/// acquiring CAS, stores that position in the tag, and pushes the record
/// once the CAS succeeded. Each record heads a chain of the stripe's write
/// entries — at most `2^grain_shift` of them unless stripes alias to one
/// lock entry — so finding an address is a short walk from the record.
/// Commit and rollback iterate the two vectors in first-write order.
#[derive(Debug, Default)]
pub struct OwnedWriteLog {
    stripes: Vec<OwnedStripe>,
    entries: Vec<OwnedWrite>,
}

impl OwnedWriteLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        OwnedWriteLog {
            stripes: Vec::with_capacity(16),
            entries: Vec::with_capacity(32),
        }
    }

    /// Appends the record of a stripe just acquired and returns its
    /// position — the value [`OwnedWriteLog::stripe_count`] had when the
    /// caller built the tag.
    #[inline]
    pub fn push_stripe(&mut self, lock_index: usize, version: u64) -> usize {
        self.stripes.push(OwnedStripe {
            lock_index,
            version,
            head: NO_ENTRY,
        });
        self.stripes.len() - 1
    }

    /// Buffers `value` for `addr`, a word of the stripe recorded at
    /// `record`: updates the address's entry if it has one, appends one
    /// otherwise.
    #[inline]
    pub fn write(&mut self, record: usize, addr: Addr, value: Word) {
        let stripe = &mut self.stripes[record];
        let mut at = stripe.head;
        while at != NO_ENTRY {
            let entry = &mut self.entries[at as usize];
            if entry.addr == addr {
                entry.value = value;
                return;
            }
            at = entry.next;
        }
        let next = std::mem::replace(&mut stripe.head, self.entries.len() as u32);
        self.entries.push(OwnedWrite { addr, value, next });
    }

    /// Read-after-write of `addr`, a word of the stripe recorded at
    /// `record`: the log holds the latest value of the addresses it wrote,
    /// `heap` the rest of the stripe, which nobody else can change while the
    /// stripe is owned. Shaped as a read's whole result, for the STMs' inline
    /// read paths to tail-call.
    #[cold]
    #[inline(never)]
    pub fn read_owned(&self, heap: &TmHeap, record: usize, addr: Addr) -> TxResult<Word> {
        let mut at = self.stripes[record].head;
        while at != NO_ENTRY {
            let entry = &self.entries[at as usize];
            if entry.addr == addr {
                return Ok(entry.value);
            }
            at = entry.next;
        }
        Ok(heap.load(addr))
    }

    /// The record at position `record`.
    #[inline]
    pub fn stripe(&self, record: usize) -> &OwnedStripe {
        &self.stripes[record]
    }

    /// The owned stripes in acquisition order.
    #[inline]
    pub fn stripes(&self) -> &[OwnedStripe] {
        &self.stripes
    }

    /// Number of owned stripes: the position the next record will take.
    #[inline]
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The buffered writes in first-write order.
    #[inline]
    pub fn entries(&self) -> &[OwnedWrite] {
        &self.entries
    }

    /// Returns `true` if no stripe is owned (and so nothing is buffered).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stripes.is_empty()
    }

    /// Clears the log for the next transaction attempt.
    #[inline]
    pub fn clear(&mut self) {
        self.stripes.clear();
        self.entries.clear();
    }
}

/// Log of transactional allocations and frees.
///
/// * Allocations performed inside an aborted transaction are returned to
///   the heap.
/// * Frees requested inside a transaction are deferred until commit (so
///   that concurrent readers never observe recycled memory mid-transaction).
#[derive(Debug, Default)]
pub struct AllocLog {
    allocated: Vec<(Addr, usize)>,
    freed: Vec<(Addr, usize)>,
}

impl AllocLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        AllocLog::default()
    }

    /// Records a block allocated by the running transaction.
    pub fn record_alloc(&mut self, addr: Addr, words: usize) {
        self.allocated.push((addr, words));
    }

    /// Records a block the running transaction wants to free at commit.
    pub fn record_free(&mut self, addr: Addr, words: usize) {
        self.freed.push((addr, words));
    }

    /// Blocks allocated by the running transaction.
    #[inline]
    pub fn allocated(&self) -> &[(Addr, usize)] {
        &self.allocated
    }

    /// Blocks to free when the transaction commits.
    #[inline]
    pub fn freed(&self) -> &[(Addr, usize)] {
        &self.freed
    }

    /// Returns `true` if the log records no allocator activity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.allocated.is_empty() && self.freed.is_empty()
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        self.allocated.clear();
        self.freed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::FastRng;

    #[test]
    fn read_log_appends_in_order() {
        let mut log = ReadLog::new();
        assert!(log.is_empty());
        log.push(3, 10);
        log.push(7, 11);
        assert_eq!(log.len(), 2);
        let entries: Vec<_> = log.iter().copied().collect();
        assert_eq!(
            entries[0],
            ReadEntry {
                lock_index: 3,
                version: 10
            }
        );
        assert_eq!(
            entries[1],
            ReadEntry {
                lock_index: 7,
                version: 11
            }
        );
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn read_log_watermark_tracks_validated_prefix() {
        let mut log = ReadLog::new();
        log.push(1, 5);
        log.push(2, 5);
        assert_eq!(log.validated_len(), 0);
        assert!(log.extend_with(|_| true));
        assert_eq!(log.validated_len(), 2);
        log.push(3, 6);
        assert_eq!(log.validated_len(), 2);
        log.clear();
        assert_eq!(log.validated_len(), 0);
    }

    #[test]
    fn extend_with_checks_suffix_first_and_then_prefix() {
        let mut log = ReadLog::new();
        log.push(1, 5);
        log.push(2, 5);
        assert!(log.extend_with(|_| true));
        log.push(3, 6);

        // Record the slices the extension hands to the checker.
        let mut seen: Vec<Vec<usize>> = Vec::new();
        assert!(log.extend_with(|entries| {
            seen.push(entries.iter().map(|e| e.lock_index).collect());
            true
        }));
        assert_eq!(
            seen,
            vec![vec![3], vec![1, 2]],
            "suffix must be checked first"
        );
        assert_eq!(log.validated_len(), 3, "success advances the watermark");

        // A failing suffix check must not advance the watermark and must not
        // touch the prefix.
        log.push(4, 9);
        let mut calls = 0;
        assert!(!log.extend_with(|_| {
            calls += 1;
            false
        }));
        assert_eq!(calls, 1, "prefix must not be checked after a failed suffix");
        assert_eq!(log.validated_len(), 3);
    }

    #[test]
    fn stripe_set_keeps_first_version_and_insertion_order() {
        let mut set = StripeSet::new();
        assert!(set.insert(4, 10));
        assert!(!set.insert(4, 99));
        assert!(set.insert(9, 11));
        assert_eq!(set.version_of(4), Some(10));
        assert_eq!(set.version_of(9), Some(11));
        assert_eq!(set.version_of(2), None);
        assert!(set.contains(9));
        assert!(!set.contains(2));
        let order: Vec<usize> = set.iter().map(|r| r.lock_index).collect();
        assert_eq!(order, vec![4, 9]);
        set.clear();
        assert!(set.is_empty());
        assert!(!set.contains(4));
    }

    #[test]
    fn write_log_deduplicates_addresses() {
        let mut log = WriteLog::new();
        assert!(log.record(Addr::new(5), 1, 0, 0));
        assert!(!log.record(Addr::new(5), 2, 0, 0));
        assert_eq!(log.len(), 1);
        assert_eq!(log.lookup(Addr::new(5)), Some(2));
        assert_eq!(log.lookup(Addr::new(6)), None);
        assert!(!log.may_contain(Addr::new(6)));
        // A twin in the summary: it may be there, the index says it is not.
        let twin = Addr::new(5 + SUMMARY_BITS);
        assert!(log.may_contain(twin));
        assert_eq!(log.lookup(twin), None);
    }

    #[test]
    fn owner_tag_round_trips_and_tells_a_rival_whose_it_is() {
        assert_eq!(OwnerTag::from_raw(OwnerTag::FREE), None);
        for slot in (0..crate::clock::MAX_THREADS).map(ThreadSlot::new) {
            for record in [0, 1, 1 << 20, 1 << 40] {
                let tag = OwnerTag::new(slot, record);
                assert_ne!(tag.raw(), OwnerTag::FREE);
                assert_eq!(OwnerTag::from_raw(tag.raw()), Some(tag));
                assert_eq!((tag.slot(), tag.record()), (slot, record));
                assert_eq!(tag.record_of(slot), Some(record));
                let rival = ThreadSlot::new((slot.index() + 1) % crate::clock::MAX_THREADS);
                assert_eq!(tag.record_of(rival), None);
                // TinySTM keeps the tag above a flag bit.
                assert_eq!((tag.raw() << 1) >> 1, tag.raw());
            }
        }
    }

    #[test]
    fn owned_write_log_matches_a_hash_map_model() {
        // The log as an encounter-time locker drives it, on a 4-entry lock
        // table with two-word stripes: word `a` belongs to stripe `a / 2`,
        // stripes `s` and `s + 4` alias to lock entry `s % 4` and share one
        // record. `tags` stands in for the lock words.
        let heap = TmHeap::new(crate::config::HeapConfig::small());
        let base = heap.alloc_zeroed(32).expect("heap holds the test's words");
        for i in 0..32 {
            heap.store(base.offset(i), 1000 + i as u64);
        }
        let lock_index_of = |word: usize| (word / 2) % 4;
        let me = ThreadSlot::new(3);

        let mut rng = FastRng::new(0x0DD_BA11);
        let mut log = OwnedWriteLog::new();
        let mut tags: [Option<OwnerTag>; 4] = [None; 4];
        let mut model: std::collections::HashMap<Addr, Word> = Default::default();
        let mut order: Vec<Addr> = Vec::new();
        let mut acquired: Vec<(usize, u64)> = Vec::new();
        for step in 0..20_000u64 {
            let word = rng.next_below(32) as usize;
            let (addr, lock_index) = (base.offset(word), lock_index_of(word));
            match rng.next_below(100) {
                0..=49 => {
                    // A write: re-write, first write to an owned stripe, or
                    // acquisition (the tag is built before the record is).
                    let value = rng.next_below(1 << 30);
                    let record = match tags[lock_index] {
                        Some(tag) => tag.record_of(me).expect("only we acquire"),
                        None => {
                            let version = rng.next_below(1 << 20);
                            tags[lock_index] = Some(OwnerTag::new(me, log.stripe_count()));
                            acquired.push((lock_index, version));
                            log.push_stripe(lock_index, version)
                        }
                    };
                    assert_eq!(tags[lock_index].unwrap().record(), record);
                    log.write(record, addr, value);
                    if model.insert(addr, value).is_none() {
                        order.push(addr);
                    }
                }
                50..=94 => {
                    // A read: of an owned stripe through the log (an
                    // unwritten word falls through to the heap), else the
                    // heap's.
                    let expected = model.get(&addr).copied();
                    if let Some(tag) = tags[lock_index] {
                        let record = tag.record();
                        assert_eq!(
                            log.read_owned(&heap, record, addr),
                            Ok(expected.unwrap_or(1000 + word as u64)),
                            "step {step}"
                        );
                        assert_eq!(log.stripe(record).lock_index, lock_index);
                    } else {
                        assert_eq!(expected, None, "unowned stripes hold no writes");
                    }
                }
                _ => {
                    log.clear();
                    tags = [None; 4];
                    model.clear();
                    order.clear();
                    acquired.clear();
                }
            }
            let entries: Vec<(Addr, Word)> =
                log.entries().iter().map(|e| (e.addr, e.value)).collect();
            let expected: Vec<(Addr, Word)> = order.iter().map(|a| (*a, model[a])).collect();
            assert_eq!(
                entries, expected,
                "write-back order diverged at step {step}"
            );
            let stripes: Vec<(usize, u64)> = log
                .stripes()
                .iter()
                .map(|s| (s.lock_index, s.version))
                .collect();
            assert_eq!(stripes, acquired, "stripe records diverged at step {step}");
            assert_eq!(log.is_empty(), acquired.is_empty());
        }
    }

    #[test]
    fn alloc_log_tracks_both_directions() {
        let mut log = AllocLog::new();
        assert!(log.is_empty());
        log.record_alloc(Addr::new(10), 4);
        log.record_free(Addr::new(20), 2);
        assert_eq!(log.allocated(), &[(Addr::new(10), 4)]);
        assert_eq!(log.freed(), &[(Addr::new(20), 2)]);
        log.clear();
        assert!(log.is_empty());
    }

    /// Vec-scan reference model of [`StripeSet`]: the exact structure the
    /// seed used for acquired-stripe tracking.
    #[derive(Default)]
    struct ModelStripes(Vec<(usize, u64)>);

    impl ModelStripes {
        fn insert(&mut self, lock_index: usize, version: u64) -> bool {
            if self.0.iter().any(|&(idx, _)| idx == lock_index) {
                false
            } else {
                self.0.push((lock_index, version));
                true
            }
        }

        fn contains(&self, lock_index: usize) -> bool {
            self.0.iter().any(|&(idx, _)| idx == lock_index)
        }

        fn version_of(&self, lock_index: usize) -> Option<u64> {
            self.0
                .iter()
                .find(|&&(idx, _)| idx == lock_index)
                .map(|&(_, v)| v)
        }
    }

    #[test]
    fn stripe_set_matches_vec_scan_model() {
        // Property-style test with the workspace's seeded FastRng (the
        // `stm-workloads` pattern): random insert/lookup/clear sequences
        // must behave exactly like the old linear-scan structure.
        let mut rng = FastRng::new(0xD06F00D);
        let mut set = StripeSet::new();
        let mut model = ModelStripes::default();
        for step in 0..20_000u64 {
            let lock_index = rng.next_below(64) as usize;
            match rng.next_below(100) {
                0..=49 => {
                    let version = rng.next_below(1 << 20);
                    assert_eq!(
                        set.insert(lock_index, version),
                        model.insert(lock_index, version),
                        "insert diverged at step {step}"
                    );
                }
                50..=74 => {
                    assert_eq!(
                        set.contains(lock_index),
                        model.contains(lock_index),
                        "contains diverged at step {step}"
                    );
                }
                75..=97 => {
                    assert_eq!(
                        set.version_of(lock_index),
                        model.version_of(lock_index),
                        "version_of diverged at step {step}"
                    );
                }
                _ => {
                    set.clear();
                    model.0.clear();
                }
            }
            assert_eq!(set.len(), model.0.len(), "len diverged at step {step}");
            let order: Vec<(usize, u64)> = set.iter().map(|r| (r.lock_index, r.version)).collect();
            assert_eq!(order, model.0, "iteration order diverged at step {step}");
        }
    }

    /// Vec-backed reference model of the [`WriteLog`]: the address map by
    /// scan.
    #[derive(Default)]
    struct ModelWriteLog {
        entries: Vec<(Addr, Word)>,
    }

    impl ModelWriteLog {
        fn record(&mut self, addr: Addr, value: Word) -> bool {
            if let Some(entry) = self.entries.iter_mut().find(|(a, _)| *a == addr) {
                entry.1 = value;
                false
            } else {
                self.entries.push((addr, value));
                true
            }
        }

        fn lookup(&self, addr: Addr) -> Option<Word> {
            self.entries
                .iter()
                .find(|&&(a, _)| a == addr)
                .map(|&(_, v)| v)
        }
    }

    /// Random record / lookup / clear sequences against the scan model.
    /// Addresses are 96 words in each of four blocks 2^16 words apart, so
    /// every word has three twins that share its summary bit; the odds of a
    /// `clear` alternate between 1 in 25 and 1 in 1 000, so some write sets
    /// stay below the wholesale-clear threshold and some pass it. The
    /// summary is never wrong about an address the log holds, `iter` yields
    /// the entries in first-write order, and a `clear` forgets every
    /// address whichever way it zeroes the summary.
    #[test]
    fn write_log_matches_vec_scan_model() {
        let mut rng = FastRng::new(0xBEEFCAFE);
        let mut log = WriteLog::new();
        let mut model = ModelWriteLog::default();
        let draw = |rng: &mut FastRng| {
            let twin = rng.next_below(4) as usize * SUMMARY_BITS;
            Addr::new(1 + twin + rng.next_below(96) as usize)
        };
        let (mut clear_odds, mut wholesale_clears) = (25, 0);
        for step in 0..40_000u64 {
            match rng.next_below(clear_odds) {
                0 => {
                    wholesale_clears += usize::from(log.len() > SUMMARY_WHOLESALE_CLEAR);
                    log.clear();
                    for &(addr, _) in &model.entries {
                        assert_eq!(log.lookup(addr), None, "clear kept {addr:?} at {step}");
                    }
                    model.entries.clear();
                    clear_odds = if clear_odds == 25 { 1000 } else { 25 };
                }
                odds if odds % 2 == 0 => {
                    let (addr, value) = (draw(&mut rng), rng.next_below(1 << 30));
                    assert_eq!(
                        log.record(addr, value, addr.index() / 2, 0),
                        model.record(addr, value),
                        "record diverged at step {step}"
                    );
                }
                _ => {
                    let addr = draw(&mut rng);
                    assert_eq!(
                        log.lookup(addr),
                        model.lookup(addr),
                        "lookup diverged at step {step}"
                    );
                }
            }
            for &(addr, _) in &model.entries {
                assert!(log.may_contain(addr), "false negative {addr:?} at {step}");
            }
            let entries: Vec<(Addr, Word)> = log.iter().map(|e| (e.addr, e.value)).collect();
            assert_eq!(entries, model.entries, "entries diverged at step {step}");
        }
        assert!(wholesale_clears > 0, "no write set passed the threshold");
    }
}
