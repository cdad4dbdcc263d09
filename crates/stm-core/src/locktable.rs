//! The lock table: mapping heap words to ownership records.
//!
//! This reproduces the paper's Figure 1. Every stripe of
//! `2^grain_shift` consecutive heap words maps to one entry of a global
//! table with `2^log2_entries` entries:
//!
//! ```text
//! entry_index = mix((addr >> grain_shift)) & (2^log2_entries - 1)
//! ```
//!
//! Different stripes may alias to the same entry (false conflicts), which
//! the paper notes "does not cause any problems in practice"; the
//! granularity sweep of Figure 13 / Table 2 is reproduced by varying
//! `grain_shift`.
//!
//! The table is generic over the entry type because each STM stores
//! different metadata per stripe (SwissTM: a read lock and a write lock;
//! TL2/TinySTM: one [`VersionedLock`]; RSTM: an object header with a visible
//! reader bitmap).
//!
//! # Layouts ([`TableLayout`])
//!
//! The paper's table packs entries back to back, so with 8-byte entries
//! eight *adjacent* stripes share one 64-byte cache line: threads working
//! on neighbouring heap words ping-pong that line even when their stripes
//! never conflict. Two independent remedies are available:
//!
//! * **Padding** ([`TableLayout::padded`]) stores every entry in its own
//!   [`CachePadded`] cell. False sharing between entries disappears
//!   entirely, at 4–8× the table's memory (the paper-default 2^22-entry
//!   table grows from 32–64 MiB to 256 MiB — opt-in for dedicated runs).
//! * **Index mixing** ([`TableLayout::mixed`]) keeps the packed layout but
//!   multiplies the stripe index by an odd constant (mod the table size)
//!   before indexing. The map is a bijection on the index space, so the
//!   false-conflict rate is unchanged — stripes that aliased before still
//!   alias (indices equal mod `2^log2_entries` stay equal after the odd
//!   multiply) — but stripes that are *adjacent* in the heap land on
//!   distant cache lines, for free.

use crate::clock::ThreadSlot;
use crate::config::{LockTableConfig, TableLayout};
use crate::engine::{Claim, Stripe};
use crate::logs::OwnerTag;
use crate::pad::CachePadded;
use crate::sync::{AtomicU64, Ordering};
use crate::word::Addr;

/// Odd multiplier for index mixing, from the 64-bit golden ratio (the same
/// constant as [`crate::hash`]). Any odd constant gives a bijection modulo
/// a power of two; this one also spreads consecutive indices far apart.
const INDEX_MIX: usize = 0x9e37_79b9_7f4a_7c15_u64 as usize;

/// Entry storage for the two memory layouts.
///
/// The enum match in [`LockTable::entry_at`] is a perfectly predicted
/// branch (the variant never changes for a given table), so the flat
/// layout's hot path is unaffected by the padded option's existence.
#[derive(Debug)]
enum Entries<E> {
    /// Packed entries (the paper's layout).
    Flat(Box<[E]>),
    /// One cache line per entry.
    Padded(Box<[CachePadded<E>]>),
}

/// A fixed-size table mapping heap addresses to per-stripe entries.
#[derive(Debug)]
pub struct LockTable<E> {
    entries: Entries<E>,
    grain_shift: u32,
    mask: usize,
    /// Multiplier applied to the stripe index before masking; 1 for the
    /// identity mapping, [`INDEX_MIX`] when index mixing is enabled. Using
    /// a multiplier of 1 keeps the unmixed hot path branch-free.
    mix: usize,
}

impl<E: Default> LockTable<E> {
    /// Creates a table whose entries are default-initialised.
    pub fn new(config: LockTableConfig) -> Self {
        let entries = if config.layout.padded() {
            Entries::Padded(
                (0..config.entries())
                    .map(|_| CachePadded::new(E::default()))
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
            )
        } else {
            Entries::Flat(
                (0..config.entries())
                    .map(|_| E::default())
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
            )
        };
        LockTable {
            entries,
            grain_shift: config.grain_shift,
            mask: config.entries() - 1,
            mix: if config.layout.mixed() { INDEX_MIX } else { 1 },
        }
    }
}

impl<E> LockTable<E> {
    /// Number of entries in the table.
    pub fn len(&self) -> usize {
        match &self.entries {
            Entries::Flat(entries) => entries.len(),
            Entries::Padded(entries) => entries.len(),
        }
    }

    /// Returns `true` if the table has no entries (never the case for
    /// tables built through [`LockTable::new`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// log2 of the number of heap words covered by one entry.
    pub fn grain_shift(&self) -> u32 {
        self.grain_shift
    }

    /// The memory layout this table was built with.
    pub fn layout(&self) -> TableLayout {
        match (&self.entries, self.mix != 1) {
            (Entries::Flat(_), false) => TableLayout::Flat,
            (Entries::Flat(_), true) => TableLayout::Mixed,
            (Entries::Padded(_), false) => TableLayout::Padded,
            (Entries::Padded(_), true) => TableLayout::PaddedMixed,
        }
    }

    /// Index of the entry covering `addr`.
    #[inline]
    pub fn index_of(&self, addr: Addr) -> usize {
        (addr.index() >> self.grain_shift).wrapping_mul(self.mix) & self.mask
    }

    /// The entry covering `addr`.
    #[inline]
    pub fn entry(&self, addr: Addr) -> &E {
        self.entry_at(self.index_of(addr))
    }

    /// The entry at a raw table index (used when logs store indices instead
    /// of addresses).
    #[inline]
    pub fn entry_at(&self, index: usize) -> &E {
        match &self.entries {
            Entries::Flat(entries) => &entries[index],
            Entries::Padded(entries) => &entries[index],
        }
    }

    /// Iterates over all entries (used by tests and invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        (0..self.len()).map(move |i| self.entry_at(i))
    }
}

/// The one-word versioned lock of TL2 and TinySTM: `version << 1` when free,
/// `tag << 1 | 1` while owned, `tag` being the [`OwnerTag`] that names the
/// owner's slot and the position of the stripe's record in the owner's log
/// (TinySTM: its write log's stripe records, from the first write on; TL2:
/// the stripes its running commit has locked). The owner so reaches its
/// record — the version to restore, the version a read made before the
/// acquisition must have seen — by index, without searching.
#[derive(Debug, Default)]
pub struct VersionedLock {
    word: AtomicU64,
}

/// Decoded state of a [`VersionedLock`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockState {
    /// Unlocked; carries the stripe's current version.
    Free {
        /// Commit timestamp of the stripe's last writer.
        version: u64,
    },
    /// Owned by the transaction running on `owner`.
    Owned {
        /// Slot of the owning thread.
        owner: ThreadSlot,
        /// Position of the stripe's record in the owner's log.
        record: usize,
    },
}

impl VersionedLock {
    #[inline]
    fn owned_word(slot: ThreadSlot, record: usize) -> u64 {
        OwnerTag::new(slot, record).raw() << 1 | 1
    }

    /// Decodes a raw sample.
    #[inline]
    pub fn decode(raw: u64) -> LockState {
        match OwnerTag::from_raw(raw >> 1) {
            Some(tag) if raw & 1 == 1 => LockState::Owned {
                owner: tag.slot(),
                record: tag.record(),
            },
            _ => LockState::Free { version: raw >> 1 },
        }
    }

    /// Current state.
    #[inline]
    pub fn state(&self) -> LockState {
        Self::decode(self.sample())
    }

    /// Tries to acquire the lock for `slot`, whose log will hold the
    /// stripe's record at position `record`, expecting free state with
    /// `version`.
    #[inline]
    pub fn try_acquire(&self, slot: ThreadSlot, record: usize, version: u64) -> bool {
        self.word
            .compare_exchange(
                version << 1,
                Self::owned_word(slot, record),
                // sync: AcqRel on success — Acquire orders the new owner
                // after the previous release, Release publishes ownership to
                // conflicting transactions; Acquire on failure because the
                // loser decodes the winner's tag for contention management.
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// [`VersionedLock::try_acquire`] naming record 0: all a caller needs
    /// that keeps no record, such as a conflict rig staging a stuck lock.
    #[inline]
    pub fn try_lock(&self, slot: ThreadSlot, version: u64) -> bool {
        self.try_acquire(slot, 0, version)
    }

    /// Releases the lock, restoring `version` (abort path).
    #[inline]
    pub fn restore(&self, version: u64) {
        // sync: Release — only the owner stores here; the restored version
        // must not be visible before the owner's rollback stores.
        self.word.store(version << 1, Ordering::Release);
    }
}

/// The engine's view of the lock: owning it hides the version, so the
/// write-back needs no step of its own.
impl Stripe for VersionedLock {
    #[inline]
    fn sample(&self) -> u64 {
        // sync: Acquire pairs with publish()'s Release — a transaction that
        // validates against version v also sees the write-back v stamps.
        self.word.load(Ordering::Acquire)
    }

    /// One bit test: a set flag bit always comes with a tag.
    #[inline]
    fn version_in(raw: u64) -> Option<u64> {
        (raw & 1 == 0).then_some(raw >> 1)
    }

    #[inline]
    fn owner_tag(&self) -> Option<OwnerTag> {
        match self.state() {
            LockState::Free { .. } => None,
            LockState::Owned { owner, record } => Some(OwnerTag::new(owner, record)),
        }
    }

    #[inline]
    fn owned_record(&self, slot: ThreadSlot) -> Option<usize> {
        // One mask and compare: the flag bit and the slot field together.
        const OWNER_BITS: u32 = OwnerTag::SLOT_BITS + 1;
        let raw = self.sample();
        let mine = raw & ((1 << OWNER_BITS) - 1) == Self::owned_word(slot, 0);
        mine.then_some((raw >> OWNER_BITS) as usize)
    }

    #[inline]
    fn claim(&self, slot: ThreadSlot, record: usize) -> Claim {
        match self.state() {
            LockState::Free { version } if self.try_acquire(slot, record, version) => {
                Claim::Won(version)
            }
            LockState::Free { .. } => Claim::Lost,
            LockState::Owned { owner, record } => Claim::Held(OwnerTag::new(owner, record)),
        }
    }

    #[inline]
    fn lock_write_back(&self) {}

    #[inline]
    fn unlock_write_back(&self, _version: u64) {}

    #[inline]
    fn restore(&self, version: u64) {
        VersionedLock::restore(self, version);
    }

    #[inline]
    fn publish(&self, version: u64) {
        // sync: Release publishes the committed write-back before the new
        // version becomes visible (pairs with sample()'s Acquire).
        self.word.store(version << 1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pad::CACHE_LINE_BYTES;

    /// The lock word under both crates' method names: TinySTM's
    /// `try_acquire` / `owned_record`, TL2's `try_lock`.
    #[test]
    fn versioned_lock_encoding_round_trips() {
        let lock = VersionedLock::default();
        assert_eq!(lock.state(), LockState::Free { version: 0 });
        assert!(lock.try_acquire(ThreadSlot::new(2), 5, 0));
        assert_eq!(lock.owned_record(ThreadSlot::new(2)), Some(5));
        assert_eq!(lock.owned_record(ThreadSlot::new(1)), None);
        assert!(!lock.try_lock(ThreadSlot::new(1), 0), "already owned");
        lock.publish(4);
        assert_eq!(lock.state(), LockState::Free { version: 4 });
        assert_eq!(lock.owned_record(ThreadSlot::new(2)), None);
        assert!(!lock.try_acquire(ThreadSlot::new(2), 0, 3), "stale version");
        assert!(!lock.try_lock(ThreadSlot::new(0), 3), "stale version");
        assert!(lock.try_lock(ThreadSlot::new(3), 4));
        assert_eq!(
            lock.state(),
            LockState::Owned {
                owner: ThreadSlot::new(3),
                record: 0
            }
        );
        lock.restore(4);
        assert_eq!(lock.state(), LockState::Free { version: 4 });
        assert_eq!(VersionedLock::decode(lock.sample()), lock.state());
    }

    #[test]
    fn owner_tags_round_trip_every_slot_and_record() {
        for slot in (0..crate::clock::MAX_THREADS).map(ThreadSlot::new) {
            for record in [0, 1, 1 << 20, 1 << 40] {
                let lock = VersionedLock::default();
                assert!(lock.try_acquire(slot, record, 0));
                assert_eq!(lock.owned_record(slot), Some(record));
                // A rival learns the owner's slot (its CM victim) and that
                // the stripe is not its own.
                let rival = ThreadSlot::new((slot.index() + 1) % crate::clock::MAX_THREADS);
                assert_eq!(
                    lock.state(),
                    LockState::Owned {
                        owner: slot,
                        record
                    }
                );
                assert_eq!(lock.owned_record(rival), None);
            }
        }
    }

    #[test]
    fn entries_cover_consecutive_words() {
        // grain_shift = 2 -> 4 words per stripe.
        let table: LockTable<AtomicU64> =
            LockTable::new(LockTableConfig::small().with_grain_shift(2));
        let base = Addr::new(64);
        let idx = table.index_of(base);
        for i in 0..4 {
            assert_eq!(table.index_of(base.offset(i)), idx);
        }
        assert_ne!(table.index_of(base.offset(4)), idx);
    }

    #[test]
    fn mapping_wraps_around_table_size() {
        let cfg = LockTableConfig {
            log2_entries: 4,
            grain_shift: 0,
            layout: TableLayout::Flat,
        };
        let table: LockTable<AtomicU64> = LockTable::new(cfg);
        assert_eq!(table.len(), 16);
        // Addresses 16 apart alias to the same entry: a false conflict.
        assert_eq!(table.index_of(Addr::new(3)), table.index_of(Addr::new(19)));
    }

    #[test]
    fn word_level_granularity_distinguishes_neighbours() {
        let cfg = LockTableConfig::small().with_grain_shift(0);
        let table: LockTable<AtomicU64> = LockTable::new(cfg);
        assert_ne!(table.index_of(Addr::new(1)), table.index_of(Addr::new(2)));
    }

    #[test]
    fn entries_are_shared_state() {
        let table: LockTable<AtomicU64> = LockTable::new(LockTableConfig::small());
        let addr = Addr::new(40);
        // sync: Relaxed — single-threaded test, no concurrent observer.
        table.entry(addr).store(7, Ordering::Relaxed);
        assert_eq!(
            // sync: Relaxed — single-threaded test.
            table.entry_at(table.index_of(addr)).load(Ordering::Relaxed),
            7
        );
    }

    #[test]
    fn iter_covers_all_entries() {
        let cfg = LockTableConfig {
            log2_entries: 6,
            grain_shift: 1,
            layout: TableLayout::Flat,
        };
        let table: LockTable<AtomicU64> = LockTable::new(cfg);
        assert_eq!(table.iter().count(), 64);
        assert!(!table.is_empty());
    }

    /// Every layout must produce the same aliasing classes: within-stripe
    /// words map together, and stripes `2^log2_entries` apart still alias.
    #[test]
    fn all_layouts_preserve_stripe_aliasing() {
        for layout in TableLayout::ALL {
            let cfg = LockTableConfig {
                log2_entries: 4,
                grain_shift: 1,
                layout,
            };
            let table: LockTable<AtomicU64> = LockTable::new(cfg);
            assert_eq!(table.layout(), layout);
            assert_eq!(table.len(), 16);
            // Words 0 and 1 share the stripe, whatever the mapping.
            assert_eq!(
                table.index_of(Addr::new(2)),
                table.index_of(Addr::new(3)),
                "{layout:?}"
            );
            // Stripes 16 apart (words 32 apart) alias: the mix is a
            // bijection modulo the table size, so false-conflict classes
            // are unchanged.
            assert_eq!(
                table.index_of(Addr::new(3)),
                table.index_of(Addr::new(35)),
                "{layout:?}"
            );
        }
    }

    #[test]
    fn mixing_is_a_bijection_on_the_index_space() {
        let cfg = LockTableConfig {
            log2_entries: 8,
            grain_shift: 0,
            layout: TableLayout::Mixed,
        };
        let table: LockTable<AtomicU64> = LockTable::new(cfg);
        let mut seen = vec![false; 256];
        for word in 0..256usize {
            let idx = table.index_of(Addr::new(word));
            assert!(!seen[idx], "index {idx} hit twice");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mixing_separates_adjacent_stripes() {
        let flat: LockTable<AtomicU64> = LockTable::new(LockTableConfig {
            log2_entries: 12,
            grain_shift: 0,
            layout: TableLayout::Flat,
        });
        let mixed: LockTable<AtomicU64> = LockTable::new(LockTableConfig {
            log2_entries: 12,
            grain_shift: 0,
            layout: TableLayout::Mixed,
        });
        let per_line = CACHE_LINE_BYTES / std::mem::size_of::<AtomicU64>();
        // Flat: consecutive stripes pack onto the same cache line.
        assert_eq!(
            flat.index_of(Addr::new(1)) / per_line,
            flat.index_of(Addr::new(2)) / per_line
        );
        // Mixed: every pair of adjacent stripes is at least a line apart.
        for word in 1..64usize {
            let a = mixed.index_of(Addr::new(word));
            let b = mixed.index_of(Addr::new(word + 1));
            assert!(
                a.abs_diff(b) >= per_line,
                "stripes {word} and {} map {a} and {b}, same line",
                word + 1
            );
        }
    }

    #[test]
    fn padded_layout_gives_each_entry_its_own_line() {
        let table: LockTable<AtomicU64> = LockTable::new(LockTableConfig {
            log2_entries: 4,
            grain_shift: 1,
            layout: TableLayout::Padded,
        });
        let lines: Vec<usize> = (0..table.len())
            .map(|i| (table.entry_at(i) as *const AtomicU64 as usize) / CACHE_LINE_BYTES)
            .collect();
        let distinct: std::collections::HashSet<_> = lines.iter().collect();
        assert_eq!(distinct.len(), table.len());
    }

    #[test]
    fn padded_tables_behave_like_flat_ones() {
        for layout in [TableLayout::Padded, TableLayout::PaddedMixed] {
            let table: LockTable<AtomicU64> =
                LockTable::new(LockTableConfig::small().with_layout(layout));
            let addr = Addr::new(40);
            // sync: Relaxed — single-threaded test.
            table.entry(addr).store(9, Ordering::Relaxed);
            assert_eq!(
                // sync: Relaxed — single-threaded test.
                table.entry_at(table.index_of(addr)).load(Ordering::Relaxed),
                9
            );
            assert_eq!(table.iter().count(), table.len());
        }
    }
}
