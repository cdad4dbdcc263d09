//! Lock-table stripe entries: the `r-lock` / `w-lock` pair.
//!
//! Each stripe of consecutive heap words maps to one [`StripeEntry`]
//! (paper §3, §3.3):
//!
//! * the **write lock** (`w-lock`) is `0` when free and otherwise an
//!   [`OwnerTag`]: the owning thread slot and the position of the stripe's
//!   record in the owner's write log — the paper's "pointer to the write-log
//!   entry", which lets the owner reach its writes without searching. It is
//!   acquired eagerly with a compare-and-swap at a transaction's first write
//!   to the stripe, and simply overwritten with `0` on release (only the
//!   owner releases it).
//! * the **read lock** (`r-lock`) stores the stripe's version number
//!   shifted left by one (so its least-significant bit is `0`) when
//!   unlocked, and the value `1` while the owning writer is committing.
//!   Only the transaction holding the corresponding write lock ever locks
//!   the read lock, so no compare-and-swap is needed.

use stm_core::sync::{AtomicU64, Ordering};

use stm_core::clock::ThreadSlot;
use stm_core::engine::{Claim, Stripe};
use stm_core::logs::OwnerTag;

/// Value of an unlocked write lock.
const W_UNLOCKED: u64 = OwnerTag::FREE;
/// Value of a locked read lock.
const R_LOCKED: u64 = 1;

/// Decoded state of a stripe's read lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadLockState {
    /// The stripe is not being committed; `version` is its current version.
    Unlocked {
        /// Commit timestamp of the last committed writer of the stripe.
        version: u64,
    },
    /// The owning writer is committing the stripe right now.
    Locked,
}

/// One lock-table entry: the pair of locks guarding a stripe of heap words.
#[derive(Debug, Default)]
pub struct StripeEntry {
    w_lock: AtomicU64,
    r_lock: AtomicU64,
}

impl StripeEntry {
    /// The owner's tag, if the write lock is held.
    #[inline]
    pub fn write_lock(&self) -> Option<OwnerTag> {
        // sync: Acquire so a transaction that sees an owner tag also sees
        // that owner's descriptor state (pairs with try_acquire_write).
        OwnerTag::from_raw(self.w_lock.load(Ordering::Acquire))
    }

    /// The position of the stripe's record in `slot`'s write log, if `slot`
    /// holds the write lock.
    #[inline]
    pub fn write_locked_record(&self, slot: ThreadSlot) -> Option<usize> {
        // sync: Acquire, same edge as write_lock().
        OwnerTag::record_in(self.w_lock.load(Ordering::Acquire), slot)
    }

    /// Attempts to acquire the write lock for `slot`, whose write log will
    /// hold the stripe's record at position `record`. Returns `true` on
    /// success.
    #[inline]
    pub fn try_acquire_write(&self, slot: ThreadSlot, record: usize) -> bool {
        self.w_lock
            .compare_exchange(
                W_UNLOCKED,
                OwnerTag::new(slot, record).raw(),
                // sync: AcqRel on success — Acquire orders the new owner
                // after the previous owner's release, Release publishes the
                // ownership to conflicting readers/writers; Acquire on
                // failure because the loser inspects the winner's tag to
                // pick a contention-management victim.
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Releases the write lock. Only the owner may call this.
    #[inline]
    pub fn release_write(&self) {
        // sync: Release so the next acquirer (Acquire CAS) sees the
        // owner's write-back/rollback stores before the lock reads as free.
        self.w_lock.store(W_UNLOCKED, Ordering::Release);
    }

    /// Current state of the read lock.
    #[inline]
    pub fn read_lock(&self) -> ReadLockState {
        // sync: Acquire pairs with publish_version's Release — a reader
        // that observes version v also observes the write-back that v
        // stamps (validation correctness; model-checked in stm-model-tests).
        Self::decode_read_lock(self.r_lock.load(Ordering::Acquire))
    }

    /// Raw read-lock word (used by the read-word consistency loop, which
    /// needs to compare two samples for equality regardless of state).
    #[inline]
    pub fn read_lock_raw(&self) -> u64 {
        // sync: Acquire, same edge as read_lock().
        self.r_lock.load(Ordering::Acquire)
    }

    /// Decodes a raw read-lock sample.
    #[inline]
    pub fn decode_read_lock(raw: u64) -> ReadLockState {
        if raw & 1 == R_LOCKED {
            ReadLockState::Locked
        } else {
            ReadLockState::Unlocked { version: raw >> 1 }
        }
    }

    /// Locks the read lock for commit. Only the write-lock owner may call
    /// this; plain stores suffice (paper §3.3).
    #[inline]
    pub fn lock_read(&self) {
        // sync: Release — only the write-lock owner stores here (no CAS
        // needed, paper §3.3); Release keeps the lock-read marker ordered
        // after the owner's prior stores for readers that spin on it.
        self.r_lock.store(R_LOCKED, Ordering::Release);
    }

    /// Restores the read lock to a previously observed version (used when
    /// commit-time validation fails).
    #[inline]
    pub fn restore_read_version(&self, version: u64) {
        // sync: Release — restores the pre-commit version; readers that
        // see it proceed exactly as before the aborted commit.
        self.r_lock.store(version << 1, Ordering::Release);
    }

    /// Publishes a new version (the committing transaction's timestamp) and
    /// thereby unlocks the read lock.
    #[inline]
    pub fn publish_version(&self, version: u64) {
        // sync: Release publishes the committed write-back before the new
        // version becomes visible (pairs with read_lock's Acquire).
        self.r_lock.store(version << 1, Ordering::Release);
    }

    /// Convenience: the current version if unlocked.
    #[inline]
    pub fn version(&self) -> Option<u64> {
        match self.read_lock() {
            ReadLockState::Unlocked { version } => Some(version),
            ReadLockState::Locked => None,
        }
    }
}

/// The engine's view of the pair: the w-lock is the owner word, the r-lock
/// the version readers sample, hidden only while the owner commits.
impl Stripe for StripeEntry {
    #[inline]
    fn sample(&self) -> u64 {
        self.read_lock_raw()
    }

    #[inline]
    fn version_in(raw: u64) -> Option<u64> {
        match Self::decode_read_lock(raw) {
            ReadLockState::Unlocked { version } => Some(version),
            ReadLockState::Locked => None,
        }
    }

    #[inline]
    fn owner_tag(&self) -> Option<OwnerTag> {
        self.write_lock()
    }

    #[inline]
    fn owned_record(&self, slot: ThreadSlot) -> Option<usize> {
        self.write_locked_record(slot)
    }

    #[inline]
    fn claim(&self, slot: ThreadSlot, record: usize) -> Claim {
        if let Some(tag) = self.write_lock() {
            return Claim::Held(tag);
        }
        if !self.try_acquire_write(slot, record) {
            return Claim::Lost;
        }
        match self.read_lock() {
            ReadLockState::Unlocked { version } => Claim::Won(version),
            // The previous owner unlocks the read lock before releasing the
            // write lock, so observing it locked here is impossible; be
            // conservative anyway and give the write lock back, which has no
            // record yet and would otherwise leak past the rollback.
            ReadLockState::Locked => {
                self.release_write();
                Claim::Lost
            }
        }
    }

    #[inline]
    fn lock_write_back(&self) {
        self.lock_read();
    }

    #[inline]
    fn unlock_write_back(&self, version: u64) {
        self.restore_read_version(version);
    }

    #[inline]
    fn restore(&self, _version: u64) {
        self.release_write();
    }

    #[inline]
    fn publish(&self, version: u64) {
        self.publish_version(version);
        self.release_write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_entry_is_unlocked_with_version_zero() {
        let e = StripeEntry::default();
        assert_eq!(e.write_lock(), None);
        assert_eq!(e.read_lock(), ReadLockState::Unlocked { version: 0 });
        assert_eq!(e.version(), Some(0));
    }

    #[test]
    fn write_lock_acquire_release() {
        let e = StripeEntry::default();
        let a = ThreadSlot::new(0);
        let b = ThreadSlot::new(1);
        assert!(e.try_acquire_write(a, 3));
        assert_eq!(e.write_locked_record(a), Some(3));
        assert_eq!(e.write_locked_record(b), None);
        assert_eq!(e.write_lock().map(OwnerTag::slot), Some(a));
        // Second acquisition fails until released.
        assert!(!e.try_acquire_write(b, 0));
        e.release_write();
        assert_eq!(e.write_locked_record(a), None);
        assert!(e.try_acquire_write(b, 0));
        assert_eq!(e.write_lock().map(OwnerTag::slot), Some(b));
    }

    #[test]
    fn read_lock_version_cycle() {
        let e = StripeEntry::default();
        e.lock_read();
        assert_eq!(e.read_lock(), ReadLockState::Locked);
        assert_eq!(e.version(), None);
        e.publish_version(7);
        assert_eq!(e.read_lock(), ReadLockState::Unlocked { version: 7 });
        e.lock_read();
        e.restore_read_version(7);
        assert_eq!(e.version(), Some(7));
    }

    #[test]
    fn decode_matches_raw_samples() {
        let e = StripeEntry::default();
        e.publish_version(42);
        let raw = e.read_lock_raw();
        assert_eq!(
            StripeEntry::decode_read_lock(raw),
            ReadLockState::Unlocked { version: 42 }
        );
        e.lock_read();
        assert_eq!(
            StripeEntry::decode_read_lock(e.read_lock_raw()),
            ReadLockState::Locked
        );
    }

    #[test]
    fn owner_tags_round_trip_every_slot_and_record() {
        for slot in (0..stm_core::clock::MAX_THREADS).map(ThreadSlot::new) {
            for record in [0, 1, 1 << 20, 1 << 40] {
                let e = StripeEntry::default();
                assert!(e.try_acquire_write(slot, record));
                assert_eq!(e.write_locked_record(slot), Some(record));
                // A rival learns the owner's slot (its CM victim) and that
                // the stripe is not its own.
                let rival = ThreadSlot::new((slot.index() + 1) % stm_core::clock::MAX_THREADS);
                assert_eq!(e.write_lock().map(OwnerTag::slot), Some(slot));
                assert_eq!(e.write_locked_record(rival), None);
            }
        }
    }
}
