//! Read, write and allocation logs kept by transaction descriptors.
//!
//! The read and allocation logs are append-only `Vec`s, as in the paper's
//! STMs. Everything *searched on the hot paths* is backed by a hash index
//! so that a single transactional operation never pays a scan proportional
//! to the log size:
//!
//! * [`WriteLog`] answers read-after-write lookups by address in O(1) and
//!   tracks the set of distinct acquired stripes — together with the
//!   version observed at acquisition time — in an O(1) [`StripeSet`]
//!   instead of a linear `Vec::contains` scan.
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
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
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

    /// The records in insertion order.
    #[inline]
    pub fn records(&self) -> &[StripeRecord] {
        &self.records
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

/// A redo log with O(1) read-after-write lookups by address.
///
/// Several written addresses may share a lock-table stripe; the log also
/// tracks the set of *distinct* stripes acquired — with the version each
/// stripe carried at acquisition time — so that commit and rollback release
/// each lock exactly once and validation can recognise self-owned stripes
/// in O(1).
#[derive(Debug, Default)]
pub struct WriteLog {
    entries: Vec<WriteEntry>,
    by_addr: FastHashMap<Addr, usize>,
    stripes: StripeSet,
}

impl WriteLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        WriteLog {
            entries: Vec::with_capacity(32),
            by_addr: fast_map_with_capacity(32),
            stripes: StripeSet::new(),
        }
    }

    /// Records a write to `addr`. If the address was already written the
    /// existing entry's value is updated (no new entry is appended) and
    /// `false` is returned; otherwise a new entry is appended and `true` is
    /// returned.
    pub fn record(&mut self, addr: Addr, value: Word, lock_index: usize, version: u64) -> bool {
        if let Some(&pos) = self.by_addr.get(&addr) {
            self.entries[pos].value = value;
            false
        } else {
            self.by_addr.insert(addr, self.entries.len());
            self.entries.push(WriteEntry {
                addr,
                value,
                lock_index,
                version,
            });
            true
        }
    }

    /// Marks `lock_index` as a stripe acquired by this transaction,
    /// remembering the version it carried at acquisition time. Returns
    /// `true` if the stripe was not yet recorded; re-recording keeps the
    /// original version.
    ///
    /// Lazy STMs that never acquire at encounter time (TL2, RSTM's lazy
    /// variant) record stripes with a sentinel version of `0` purely to
    /// track the distinct write-set stripes; for them the real restore
    /// versions live elsewhere (e.g. TL2's `commit_locked`), and
    /// [`WriteLog::stripe_version`] must not be used for validation.
    #[inline]
    pub fn record_stripe(&mut self, lock_index: usize, version: u64) -> bool {
        self.stripes.insert(lock_index, version)
    }

    /// Fills `scratch` with the distinct recorded stripe indices in
    /// ascending order — the global acquisition order lazy STMs use at
    /// commit time for deadlock avoidance. Reusing a per-descriptor
    /// scratch buffer keeps the commit path allocation-free.
    pub fn sorted_stripe_indices(&self, scratch: &mut Vec<usize>) {
        scratch.clear();
        scratch.extend(self.stripes.iter().map(|s| s.lock_index));
        scratch.sort_unstable();
    }

    /// The distinct lock-table stripes acquired so far, in acquisition
    /// order.
    #[inline]
    pub fn stripes(&self) -> &[StripeRecord] {
        self.stripes.records()
    }

    /// Number of distinct stripes recorded so far.
    #[inline]
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Returns `true` if this transaction already recorded `lock_index`.
    #[inline]
    pub fn owns_stripe(&self, lock_index: usize) -> bool {
        self.stripes.contains(lock_index)
    }

    /// The version `lock_index` carried when it was recorded, if this
    /// transaction recorded it.
    #[inline]
    pub fn stripe_version(&self, lock_index: usize) -> Option<u64> {
        self.stripes.version_of(lock_index)
    }

    /// Looks up the latest value written to `addr`, if any. An empty log —
    /// every read of a transaction that has not written yet — answers
    /// without hashing.
    #[inline]
    pub fn lookup(&self, addr: Addr) -> Option<Word> {
        if self.entries.is_empty() {
            return None;
        }
        self.by_addr.get(&addr).map(|&pos| self.entries[pos].value)
    }

    /// Read-after-write on a stripe the transaction owns: the log holds the
    /// latest value of the addresses it wrote, `heap` the rest of the
    /// stripe, which nobody else can change while the stripe is owned.
    /// Shaped as a read's whole result, for the STMs' inline read paths to
    /// tail-call.
    #[cold]
    #[inline(never)]
    pub fn read_owned(&self, heap: &TmHeap, addr: Addr) -> TxResult<Word> {
        Ok(self.lookup(addr).unwrap_or_else(|| heap.load(addr)))
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
    /// like [`StripeSet::clear`] (entries and address map fill together).
    #[inline]
    pub fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.entries.clear();
            self.by_addr.clear();
        }
        self.stripes.clear();
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
    }

    #[test]
    fn write_log_tracks_distinct_stripes() {
        let mut log = WriteLog::new();
        assert!(log.record_stripe(4, 7));
        assert!(!log.record_stripe(4, 8));
        assert!(log.record_stripe(9, 3));
        let stripes: Vec<(usize, u64)> = log
            .stripes()
            .iter()
            .map(|r| (r.lock_index, r.version))
            .collect();
        assert_eq!(stripes, vec![(4, 7), (9, 3)]);
        assert_eq!(log.stripe_count(), 2);
        assert!(log.owns_stripe(9));
        assert!(!log.owns_stripe(2));
        assert_eq!(log.stripe_version(4), Some(7));
        assert_eq!(log.stripe_version(2), None);
        let mut order = vec![999];
        log.sorted_stripe_indices(&mut order);
        assert_eq!(order, vec![4, 9]);
    }

    #[test]
    fn write_log_clear_resets_everything() {
        let mut log = WriteLog::new();
        log.record(Addr::new(1), 1, 0, 0);
        log.record_stripe(0, 5);
        log.clear();
        assert!(log.is_empty());
        assert!(log.stripes().is_empty());
        assert_eq!(log.stripe_count(), 0);
        assert!(!log.owns_stripe(0));
        assert_eq!(log.lookup(Addr::new(1)), None);
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

    /// Vec-backed reference model of the [`WriteLog`] address map plus the
    /// old `distinct_stripes: Vec<usize>` stripe tracking.
    #[derive(Default)]
    struct ModelWriteLog {
        entries: Vec<(Addr, Word)>,
        stripes: Vec<(usize, u64)>,
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

    #[test]
    fn write_log_matches_vec_scan_model() {
        let mut rng = FastRng::new(0xBEEFCAFE);
        let mut log = WriteLog::new();
        let mut model = ModelWriteLog::default();
        for step in 0..20_000u64 {
            match rng.next_below(100) {
                0..=39 => {
                    let addr = Addr::new(1 + rng.next_below(96) as usize);
                    let value = rng.next_below(1 << 30);
                    let lock_index = addr.index() / 2;
                    assert_eq!(
                        log.record(addr, value, lock_index, 0),
                        model.record(addr, value),
                        "record diverged at step {step}"
                    );
                }
                40..=59 => {
                    let addr = Addr::new(1 + rng.next_below(96) as usize);
                    assert_eq!(
                        log.lookup(addr),
                        model.lookup(addr),
                        "lookup diverged at step {step}"
                    );
                }
                60..=79 => {
                    let lock_index = rng.next_below(48) as usize;
                    let version = rng.next_below(1 << 20);
                    let fresh = !model.stripes.iter().any(|&(idx, _)| idx == lock_index);
                    if fresh {
                        model.stripes.push((lock_index, version));
                    }
                    assert_eq!(
                        log.record_stripe(lock_index, version),
                        fresh,
                        "record_stripe diverged at step {step}"
                    );
                }
                80..=97 => {
                    let lock_index = rng.next_below(48) as usize;
                    let expected = model
                        .stripes
                        .iter()
                        .find(|&&(idx, _)| idx == lock_index)
                        .map(|&(_, v)| v);
                    assert_eq!(log.stripe_version(lock_index), expected);
                    assert_eq!(log.owns_stripe(lock_index), expected.is_some());
                }
                _ => {
                    log.clear();
                    model.entries.clear();
                    model.stripes.clear();
                }
            }
            assert_eq!(log.len(), model.entries.len());
            let stripes: Vec<(usize, u64)> = log
                .stripes()
                .iter()
                .map(|r| (r.lock_index, r.version))
                .collect();
            assert_eq!(
                stripes, model.stripes,
                "stripe order diverged at step {step}"
            );
        }
    }
}
