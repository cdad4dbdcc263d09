//! The single-global-lock reference: the benchmark's anchor.
//!
//! [`NaiveGlobalLockTm`] serialises *every* transaction — read-only ones
//! included — behind one spin lock taken in `begin` and released by
//! `commit` or `rollback`. It is the "all shared objects protected by a
//! single global lock" program the paper's introduction contrasts TMs
//! against, and the subject every end-to-end figure of `benchmark/` is
//! graded against (`<stm>.vs_naive`), so it has to cost what lock-based code
//! costs and no more:
//!
//! * a read is a heap load;
//! * a write is a load of the old value, a store **in place** and a push of
//!   `(address, old value)` onto an undo `Vec`;
//! * `commit` drops the undo entries and releases the lock — nothing is
//!   written back, nothing is hashed;
//! * `rollback` replays the undo entries newest first (so a word written
//!   twice ends at the value it held before the *first* write) and releases
//!   the lock.
//!
//! Storing in place is trivially opaque here: the lock is held from `begin`
//! on, so no other transaction of the instance is running while the heap
//! holds a half-applied attempt, and the undo replay finishes before the
//! lock is released. The price is that a body which unwinds must still be
//! rolled back — [`crate::tm::ThreadContext::atomically`] does that.
//!
//! It also exercises the [`crate::tm::ThreadContext`] driver in this
//! crate's own tests without depending on the real algorithms.

use crate::sync::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::clock::{ThreadRegistry, ThreadSlot};
use crate::cm::{ContentionManager, Timid};
use crate::config::HeapConfig;
use crate::error::TxResult;
use crate::heap::TmHeap;
use crate::tm::{DescriptorCore, TmAlgorithm, TxDescriptor};
use crate::word::{Addr, Word};

/// Transaction descriptor of [`NaiveGlobalLockTm`].
#[derive(Debug)]
pub struct NaiveDescriptor {
    core: DescriptorCore,
    /// `(address, value before the store)` of every store of the attempt,
    /// oldest first.
    undo: Vec<(Addr, Word)>,
    holds_lock: bool,
}

impl TxDescriptor for NaiveDescriptor {
    fn core(&self) -> &DescriptorCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut DescriptorCore {
        &mut self.core
    }

    fn is_read_only(&self) -> bool {
        self.undo.is_empty()
    }
}

/// A single-global-lock transactional memory (the benchmark's anchor).
#[derive(Debug)]
pub struct NaiveGlobalLockTm {
    heap: TmHeap,
    registry: ThreadRegistry,
    cm: Timid,
    lock: AtomicBool,
}

impl NaiveGlobalLockTm {
    /// Creates an instance with its own heap.
    pub fn new(heap_config: HeapConfig) -> Self {
        NaiveGlobalLockTm {
            heap: TmHeap::new(heap_config),
            registry: ThreadRegistry::new(),
            cm: Timid::new(),
            lock: AtomicBool::new(false),
        }
    }

    #[inline]
    fn acquire_global_lock(&self, desc: &mut NaiveDescriptor) {
        if desc.holds_lock {
            return;
        }
        while self
            .lock
            // sync: AcqRel on success — Acquire makes the lock holder see
            // the previous holder's writes, Release is not needed for the
            // acquisition itself but comes free with the RMW; Relaxed on
            // failure because a failed attempt only spins again.
            .compare_exchange_weak(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            crate::sync::spin_loop();
        }
        desc.holds_lock = true;
    }

    #[inline]
    fn release_global_lock(&self, desc: &mut NaiveDescriptor) {
        if desc.holds_lock {
            // sync: Release publishes the critical-section writes to the
            // next Acquire lock holder.
            self.lock.store(false, Ordering::Release);
            desc.holds_lock = false;
        }
    }
}

impl TmAlgorithm for NaiveGlobalLockTm {
    type Descriptor = NaiveDescriptor;

    fn name(&self) -> &'static str {
        "global-lock"
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

    fn create_descriptor(&self, slot: ThreadSlot) -> NaiveDescriptor {
        NaiveDescriptor {
            core: DescriptorCore::new(slot, Arc::clone(self.registry.shared(slot))),
            undo: Vec::with_capacity(32),
            holds_lock: false,
        }
    }

    #[inline]
    fn begin(&self, desc: &mut NaiveDescriptor, _is_restart: bool) {
        desc.core.reset_attempt();
        // One lock serialises *all* transactions (including read-only
        // ones); taking it up front is what makes the in-place stores below
        // opaque.
        self.acquire_global_lock(desc);
    }

    #[inline]
    fn read(&self, desc: &mut NaiveDescriptor, addr: Addr) -> TxResult<Word> {
        desc.core.attempt_reads += 1;
        // The lock is held for the whole transaction: the heap is the
        // committed state plus this attempt's own stores.
        Ok(self.heap.load(addr))
    }

    #[inline]
    fn write(&self, desc: &mut NaiveDescriptor, addr: Addr, value: Word) -> TxResult<()> {
        desc.core.attempt_writes += 1;
        desc.undo.push((addr, self.heap.load(addr)));
        self.heap.store(addr, value);
        Ok(())
    }

    #[inline]
    fn commit(&self, desc: &mut NaiveDescriptor) -> TxResult<()> {
        desc.undo.clear();
        self.release_global_lock(desc);
        Ok(())
    }

    fn rollback(&self, desc: &mut NaiveDescriptor) {
        // Newest first: a word stored twice ends at its pre-attempt value.
        // Idempotent — a second call finds no entry and no lock.
        while let Some((addr, old)) = desc.undo.pop() {
            self.heap.store(addr, old);
        }
        self.release_global_lock(desc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tm::ThreadContext;

    #[test]
    fn counter_increments_across_threads() {
        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let threads: Vec<_> = (0..4)
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
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(stm.heap().load(addr), 1000);
    }

    #[test]
    fn rollback_releases_the_global_lock() {
        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
        let _ = ctx.atomically(|tx| {
            tx.write(addr, 9)?;
            tx.retry::<()>()
        });
        // If the lock leaked, this second transaction would deadlock.
        let mut ctx2 = ThreadContext::register(stm);
        ctx2.atomically(|tx| tx.write(addr, 3)).unwrap();
        assert_eq!(ctx2.read_word(addr).unwrap(), 3);
    }

    #[test]
    fn rollback_replays_the_undo_log_newest_first() {
        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let block = stm.heap().alloc_zeroed(2).unwrap();
        stm.heap().store(block, 5);
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
        let _ = ctx.atomically(|tx| {
            // Replayed oldest first, the second entry (old value 6) would
            // win and leave the word at 6.
            tx.write(block, 6)?;
            tx.write(block, 7)?;
            tx.write(block.offset(1), 8)?;
            assert_eq!(stm.heap().load(block), 7, "stores land in place");
            tx.retry::<()>()
        });
        assert_eq!(stm.heap().load(block), 5);
        assert_eq!(stm.heap().load(block.offset(1)), 0);
    }

    #[test]
    fn an_out_of_memory_attempt_restores_every_word_it_stored() {
        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let block = stm.heap().alloc_zeroed(4).unwrap();
        for i in 0..4 {
            stm.heap().store(block.offset(i), 10 + i as u64);
        }
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let result = ctx.atomically(|tx| {
            for i in 0..4 {
                tx.write(block.offset(i), 99)?;
            }
            tx.alloc(1 << 20)
        });
        assert!(matches!(
            result,
            Err(crate::error::StmError::OutOfMemory { .. })
        ));
        for i in 0..4 {
            assert_eq!(stm.heap().load(block.offset(i)), 10 + i as u64);
        }
        // The lock was released with the rollback.
        ctx.atomically(|tx| tx.write(block, 1)).unwrap();
    }

    #[test]
    fn read_only_exactly_when_nothing_was_written() {
        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| {
            assert!(tx.is_read_only());
            tx.read(addr)?;
            assert!(tx.is_read_only(), "a read writes nothing");
            tx.write(addr, 0)?;
            assert!(!tx.is_read_only(), "a store of the same value is a write");
            Ok(())
        })
        .unwrap();
        // The next attempt starts from an empty undo log.
        ctx.atomically(|tx| {
            assert!(tx.is_read_only());
            Ok(())
        })
        .unwrap();
        assert_eq!(ctx.stats().read_only_commits, 1);
    }

    #[test]
    fn read_after_write_sees_own_update() {
        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(stm);
        let observed = ctx
            .atomically(|tx| {
                tx.write(addr, 42)?;
                tx.read(addr)
            })
            .unwrap();
        assert_eq!(observed, 42);
    }
}
