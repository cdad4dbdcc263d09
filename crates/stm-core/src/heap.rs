//! The shared transactional heap and its allocator.
//!
//! The heap is a fixed-size slab of `AtomicU64` words. It plays the role of
//! the raw process address space in the paper's C++ implementation: all
//! transactional data structures of the workloads live here, and the STM
//! lock tables map heap addresses (word indices) to ownership records.
//!
//! Reads and writes through [`TmHeap::load`] / [`TmHeap::store`] are plain
//! atomic accesses with relaxed-to-acquire/release semantics; *consistency*
//! is the job of the STM algorithm built on top, exactly as in the paper.
//!
//! The allocator has two levels. The *global* level, [`TmHeap::alloc_raw`] /
//! [`TmHeap::free`], is a bump pointer plus size-class free lists behind one
//! mutex; set-up code uses it directly. Transactions allocate through a
//! thread-private [`AllocCache`] — free lists and a bump chunk of its own —
//! whose slow path is the global level: a hit takes no lock, performs no
//! atomic read-modify-write and hands a thread back the blocks it freed
//! itself, so transactions on disjoint data share nothing in the allocator.
//! Transactional allocation semantics (roll back allocations of aborted
//! transactions, defer frees to commit time) are provided by
//! [`crate::logs::AllocLog`] and applied by the transaction driver.

use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::config::HeapConfig;
use crate::error::StmError;
use crate::pad::CachePadded;
use crate::sync::{AtomicU64, AtomicUsize, Ordering};
use crate::word::{Addr, Word};

/// Number of size classes tracked by the free-list allocator. Size class
/// `i` holds blocks of exactly `i` words; larger blocks are never recycled.
const FREE_LIST_CLASSES: usize = 64;

/// Words an [`AllocCache`] carves from the heap at a time (32 KiB: a few
/// thousand tree nodes per lock acquisition, and two threads' fresh nodes
/// never share a cache line).
const CHUNK_WORDS: usize = 4096;

/// Blocks an [`AllocCache`] takes from a global free list per refill.
const REFILL_BLOCKS: usize = 32;

/// Longest free list an [`AllocCache`] keeps: one block more and the older
/// half goes back to the global list, so a thread that only frees feeds the
/// threads that only allocate.
const CACHE_CAP_BLOCKS: usize = 64;

/// Words an [`AllocCache`] holds, written by its owner only and summed by
/// [`TmHeap::live_words`].
type CachedWords = Arc<CachePadded<AtomicUsize>>;

#[derive(Debug, Default)]
struct AllocatorState {
    /// Next never-allocated word.
    bump: usize,
    /// One past the heap's last word.
    end: usize,
    /// Free lists indexed by block size in words.
    free: Vec<Vec<usize>>,
    /// Unused tails of the chunks that flushed caches handed back.
    spare: Vec<Range<usize>>,
    /// Words handed out and not returned: to direct callers and to caches.
    handed_out: usize,
    /// The counters of the attached caches.
    caches: Vec<CachedWords>,
}

impl AllocatorState {
    /// Takes `want` never-allocated words, or as many as are left but at
    /// least `min`, from a spare chunk or else from the bump region.
    fn carve(&mut self, min: usize, want: usize) -> Option<Range<usize>> {
        if let Some(at) = self.spare.iter().position(|range| range.len() >= min) {
            let spare = self.spare[at].clone();
            let taken = spare.start..spare.start + want.min(spare.len());
            if taken.end == spare.end {
                self.spare.swap_remove(at);
            } else {
                self.spare[at].start = taken.end;
            }
            return Some(taken);
        }
        let left = self.end - self.bump;
        if left < min {
            return None;
        }
        let taken = self.bump..self.bump + want.min(left);
        self.bump = taken.end;
        Some(taken)
    }

    /// Never-allocated words: the bump region and the spare chunks.
    fn remaining(&self) -> usize {
        self.end - self.bump + self.spare.iter().map(Range::len).sum::<usize>()
    }

    fn out_of_memory(&self, requested: usize) -> StmError {
        StmError::OutOfMemory {
            requested,
            available: self.remaining(),
        }
    }
}

/// The shared transactional heap.
#[derive(Debug)]
pub struct TmHeap {
    words: Box<[AtomicU64]>,
    alloc: Mutex<AllocatorState>,
}

impl TmHeap {
    /// Creates a heap with the given configuration. Word 0 is reserved so
    /// that [`Addr::NULL`] never refers to live data.
    pub fn new(config: HeapConfig) -> Self {
        assert!(config.words >= 2, "heap must have at least two words");
        let words = (0..config.words)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        TmHeap {
            words,
            alloc: Mutex::new(AllocatorState {
                bump: 1, // skip Addr::NULL
                end: config.words,
                free: vec![Vec::new(); FREE_LIST_CLASSES],
                ..AllocatorState::default()
            }),
        }
    }

    /// Locks the global allocator. A thread that panicked while holding the
    /// lock does not take the allocator down with it: every mutation of the
    /// state is a completed push, pop or counter update, so the state a
    /// poisoned lock guards is valid.
    fn allocator(&self) -> MutexGuard<'_, AllocatorState> {
        self.alloc.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Total number of words in the heap.
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Number of words currently allocated. A block waiting in an
    /// [`AllocCache`] is not allocated; the figure is exact whenever no
    /// transaction is in flight.
    pub fn live_words(&self) -> usize {
        let state = self.allocator();
        let cached: usize = state
            .caches
            .iter()
            // sync: Relaxed — a statistic written by the cache's owner; it
            // publishes nothing, and the caller asked at a quiescent point.
            .map(|words| words.load(Ordering::Relaxed))
            .sum();
        state.handed_out.saturating_sub(cached)
    }

    /// Directly loads the value stored at `addr` (non-transactional).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    #[inline]
    pub fn load(&self, addr: Addr) -> Word {
        // sync: Acquire — a reader that validated against a stripe version
        // must see the word contents written before that version was
        // published (pairs with store_word's Release write-back).
        self.words[addr.index()].load(Ordering::Acquire)
    }

    /// Directly stores `value` at `addr` (non-transactional).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    #[inline]
    pub fn store(&self, addr: Addr, value: Word) {
        // sync: Release — write-back publishes the word before the committer
        // publishes the stripe version that makes it readable.
        self.words[addr.index()].store(value, Ordering::Release);
    }

    #[inline]
    fn zero(&self, addr: Addr, words: usize) {
        for i in 0..words {
            self.store(addr.offset(i), 0);
        }
    }

    /// Allocates `words` consecutive words, zeroing them.
    ///
    /// This is the *non-transactional* allocation entry point used for
    /// building initial data structures; inside transactions use
    /// [`crate::tm::Tx::alloc`] which records the allocation for rollback.
    ///
    /// # Errors
    ///
    /// Returns [`StmError::OutOfMemory`] when the heap cannot satisfy the
    /// request.
    pub fn alloc_zeroed(&self, words: usize) -> Result<Addr, StmError> {
        let addr = self.alloc_raw(words)?;
        self.zero(addr, words);
        Ok(addr)
    }

    /// Allocates `words` consecutive words without zeroing recycled blocks.
    ///
    /// # Errors
    ///
    /// Returns [`StmError::OutOfMemory`] when the heap cannot satisfy the
    /// request.
    pub fn alloc_raw(&self, words: usize) -> Result<Addr, StmError> {
        assert!(words > 0, "cannot allocate zero words");
        let mut state = self.allocator();
        let recycled = state.free.get_mut(words).and_then(Vec::pop);
        let index = match recycled {
            Some(index) => index,
            None => match state.carve(words, words) {
                Some(fresh) => fresh.start,
                None => return Err(state.out_of_memory(words)),
            },
        };
        state.handed_out += words;
        Ok(Addr::new(index))
    }

    /// Returns a block previously obtained from [`TmHeap::alloc_raw`] /
    /// [`TmHeap::alloc_zeroed`] to the allocator.
    ///
    /// The block size must match the size it was allocated with; blocks of
    /// 64 words or more are not recycled (they are simply leaked inside the
    /// slab), which mirrors the paper's benchmarks where large blocks are
    /// allocated once at set-up time.
    pub fn free(&self, addr: Addr, words: usize) {
        assert!(!addr.is_null(), "cannot free the null address");
        let mut state = self.allocator();
        state.handed_out = state.handed_out.saturating_sub(words);
        if let Some(list) = state.free.get_mut(words) {
            list.push(addr.index());
        }
    }

    /// Words still available for fresh (non-recycled) allocation.
    pub fn remaining(&self) -> usize {
        self.allocator().remaining()
    }
}

/// A thread's private front end to the allocator of one [`TmHeap`]: a free
/// list per size class and a bump chunk, refilled from and spilled to the
/// heap's global allocator in batches.
///
/// [`AllocCache::alloc_raw`] served from the cache and [`AllocCache::free`]
/// that does not spill take no lock and perform no atomic read-modify-write;
/// the only shared word they store to is the cache's own word count, on a
/// cache line of its own that [`TmHeap::live_words`] alone reads. A block
/// may be freed into another cache, or into the heap directly, than the one
/// it was allocated from.
///
/// The cache holds heap words, so its owner must [`AllocCache::flush`] it
/// before dropping it ([`crate::tm::ThreadContext`] does): words still
/// cached at drop are lost to the heap.
#[derive(Debug)]
pub struct AllocCache {
    /// Free lists indexed by block size in words.
    free: Vec<Vec<usize>>,
    /// Never-allocated words only this cache allocates from.
    chunk: Range<usize>,
    /// Words held by `free` and `chunk`.
    cached_words: CachedWords,
    /// Whether the heap's allocator sums `cached_words`.
    attached: bool,
}

impl Default for AllocCache {
    fn default() -> Self {
        AllocCache::new()
    }
}

impl AllocCache {
    /// Creates an empty cache. It belongs to the heap its first operation
    /// names; every later operation must name the same heap.
    pub fn new() -> Self {
        AllocCache {
            free: vec![Vec::new(); FREE_LIST_CLASSES],
            chunk: 0..0,
            cached_words: Arc::new(CachePadded::new(AtomicUsize::new(0))),
            attached: false,
        }
    }

    /// Moves the count of cached words by what `update` does to it. Only
    /// the owner writes the counter, so this is a load and a store.
    #[inline]
    fn count(&self, update: impl FnOnce(usize) -> usize) {
        // sync: Relaxed — a statistic with a single writer (this thread);
        // it publishes nothing and is summed at quiescent points only.
        let cached = self.cached_words.load(Ordering::Relaxed);
        // sync: Relaxed — as above.
        self.cached_words.store(update(cached), Ordering::Relaxed);
    }

    /// Makes the heap's `live_words` see this cache's count.
    fn attach(&mut self, state: &mut AllocatorState) {
        if !self.attached {
            state.caches.push(Arc::clone(&self.cached_words));
            self.attached = true;
        }
    }

    /// [`TmHeap::alloc_zeroed`] through the cache.
    ///
    /// # Errors
    ///
    /// Returns [`StmError::OutOfMemory`] when neither the cache nor the
    /// heap's free lists nor its never-allocated words can satisfy the
    /// request.
    pub fn alloc_zeroed(&mut self, heap: &TmHeap, words: usize) -> Result<Addr, StmError> {
        let addr = self.alloc_raw(heap, words)?;
        heap.zero(addr, words);
        Ok(addr)
    }

    /// [`TmHeap::alloc_raw`] through the cache: the block this cache freed
    /// last, else the next words of its chunk; when it has neither, it first
    /// takes a batch from the heap's free list of the size class or, if that
    /// is empty, a fresh chunk. Blocks too large for a size class go to the
    /// heap directly.
    ///
    /// # Errors
    ///
    /// As [`AllocCache::alloc_zeroed`].
    pub fn alloc_raw(&mut self, heap: &TmHeap, words: usize) -> Result<Addr, StmError> {
        assert!(words > 0, "cannot allocate zero words");
        if words >= FREE_LIST_CLASSES {
            return heap.alloc_raw(words);
        }
        let index = loop {
            if let Some(index) = self.free[words].pop() {
                break index;
            }
            if self.chunk.len() >= words {
                let index = self.chunk.start;
                self.chunk.start += words;
                break index;
            }
            self.refill(heap, words)?;
        };
        self.count(|cached| cached - words);
        Ok(Addr::new(index))
    }

    /// The slow path of an allocation: leaves a block of `words` words in
    /// the free list or in the chunk.
    #[cold]
    #[inline(never)]
    fn refill(&mut self, heap: &TmHeap, words: usize) -> Result<(), StmError> {
        let mut state = heap.allocator();
        self.attach(&mut state);
        let list = &mut state.free[words];
        let batch = list.len().min(REFILL_BLOCKS);
        let gained = if batch > 0 {
            let kept = list.len() - batch;
            self.free[words].extend(list.drain(kept..));
            batch * words
        } else {
            let Some(fresh) = state.carve(words, CHUNK_WORDS) else {
                return Err(state.out_of_memory(words));
            };
            // What is left of the old chunk is shorter than `words`, hence
            // a block of a size class.
            if !self.chunk.is_empty() {
                self.free[self.chunk.len()].push(self.chunk.start);
            }
            self.chunk = fresh;
            self.chunk.len()
        };
        state.handed_out += gained;
        self.count(|cached| cached + gained);
        Ok(())
    }

    /// [`TmHeap::free`] through the cache: the block joins the cache's free
    /// list of its size class; a list grown past its cap returns its older
    /// half to the heap.
    pub fn free(&mut self, heap: &TmHeap, addr: Addr, words: usize) {
        assert!(!addr.is_null(), "cannot free the null address");
        if words >= FREE_LIST_CLASSES {
            return heap.free(addr, words);
        }
        self.free[words].push(addr.index());
        self.count(|cached| cached + words);
        if !self.attached || self.free[words].len() > CACHE_CAP_BLOCKS {
            self.spill(heap, words);
        }
    }

    /// The slow path of a free: attaches a cache whose first operation is a
    /// free, and halves a list that outgrew its cap.
    #[cold]
    #[inline(never)]
    fn spill(&mut self, heap: &TmHeap, words: usize) {
        let mut state = heap.allocator();
        self.attach(&mut state);
        let list = &mut self.free[words];
        if list.len() > CACHE_CAP_BLOCKS {
            let returned = list.len() / 2;
            state.free[words].extend(list.drain(..returned));
            state.handed_out = state.handed_out.saturating_sub(returned * words);
            self.count(|cached| cached - returned * words);
        }
    }

    /// Returns everything the cache holds to the heap: the blocks to the
    /// global free lists, the rest of the chunk to the spare chunks.
    pub fn flush(&mut self, heap: &TmHeap) {
        if !self.attached {
            return;
        }
        let mut state = heap.allocator();
        for (words, list) in self.free.iter_mut().enumerate() {
            state.free[words].append(list);
        }
        if !self.chunk.is_empty() {
            state.spare.push(std::mem::take(&mut self.chunk));
        }
        // sync: Relaxed — the owner reads its own counter.
        let cached = self.cached_words.load(Ordering::Relaxed);
        state.handed_out = state.handed_out.saturating_sub(cached);
        self.count(|_| 0);
        state
            .caches
            .retain(|words| !Arc::ptr_eq(words, &self.cached_words));
        self.attached = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::FastRng;

    #[test]
    fn alloc_skips_null_word() {
        let heap = TmHeap::new(HeapConfig::small());
        let a = heap.alloc_zeroed(4).unwrap();
        assert!(!a.is_null());
        assert!(a.index() >= 1);
    }

    #[test]
    fn load_store_round_trip() {
        let heap = TmHeap::new(HeapConfig::small());
        let a = heap.alloc_zeroed(2).unwrap();
        heap.store(a, 17);
        heap.store(a.offset(1), 99);
        assert_eq!(heap.load(a), 17);
        assert_eq!(heap.load(a.offset(1)), 99);
    }

    #[test]
    fn free_list_recycles_blocks() {
        let heap = TmHeap::new(HeapConfig::small());
        let a = heap.alloc_zeroed(8).unwrap();
        heap.free(a, 8);
        let b = heap.alloc_raw(8).unwrap();
        assert_eq!(a, b, "freed block should be recycled for same size class");
    }

    #[test]
    fn out_of_memory_is_reported() {
        let heap = TmHeap::new(HeapConfig::with_words(16));
        assert!(heap.alloc_zeroed(64).is_err());
        let err = heap.alloc_zeroed(1000).unwrap_err();
        assert!(matches!(err, StmError::OutOfMemory { .. }));
    }

    #[test]
    fn live_words_tracks_alloc_and_free() {
        let heap = TmHeap::new(HeapConfig::small());
        assert_eq!(heap.live_words(), 0);
        let a = heap.alloc_zeroed(4).unwrap();
        let b = heap.alloc_zeroed(6).unwrap();
        assert_eq!(heap.live_words(), 10);
        heap.free(a, 4);
        assert_eq!(heap.live_words(), 6);
        heap.free(b, 6);
        assert_eq!(heap.live_words(), 0);
    }

    #[test]
    fn alloc_zeroed_clears_recycled_memory() {
        let heap = TmHeap::new(HeapConfig::small());
        let a = heap.alloc_zeroed(2).unwrap();
        heap.store(a, 0xdead);
        heap.free(a, 2);
        let b = heap.alloc_zeroed(2).unwrap();
        assert_eq!(heap.load(b), 0);
    }

    #[test]
    #[should_panic(expected = "cannot free the null address")]
    fn freeing_null_panics() {
        let heap = TmHeap::new(HeapConfig::small());
        heap.free(Addr::NULL, 1);
    }

    /// A thread that panics inside the allocator poisons the mutex; the
    /// state it guards is still valid and every entry point keeps working.
    #[test]
    fn a_poisoned_allocator_keeps_working() {
        let heap = TmHeap::new(HeapConfig::small());
        let kept = heap.alloc_zeroed(4).unwrap();
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = heap.alloc.lock().unwrap();
                    panic!("a thread dies inside the allocator");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(heap.alloc.is_poisoned());

        assert_eq!(heap.live_words(), 4);
        let remaining = heap.remaining();
        let block = heap.alloc_zeroed(8).unwrap();
        assert_eq!(heap.remaining(), remaining - 8);
        assert_eq!(heap.live_words(), 12);
        heap.free(block, 8);
        assert_eq!(heap.alloc_raw(8).unwrap(), block);
        heap.free(block, 8);

        let mut cache = AllocCache::new();
        let cached = cache.alloc_zeroed(&heap, 8).unwrap();
        assert_eq!(cached, block, "refilled from the global list");
        cache.free(&heap, cached, 8);
        cache.flush(&heap);
        heap.free(kept, 4);
        assert_eq!(heap.live_words(), 0);
    }

    const NODE: usize = 4;

    #[test]
    fn a_cache_hit_leaves_the_global_allocator_alone() {
        let heap = TmHeap::new(HeapConfig::small());
        let mut cache = AllocCache::new();
        let first = cache.alloc_zeroed(&heap, NODE).unwrap();
        let after_refill = heap.remaining();
        assert_eq!(after_refill, heap.capacity() - 1 - CHUNK_WORDS);
        // Poison-free proof that the next calls take no lock: hold it.
        let guard = heap.alloc.lock().unwrap();
        let second = cache.alloc_zeroed(&heap, NODE).unwrap();
        assert_eq!(second, first.offset(NODE), "the chunk is bumped");
        cache.free(&heap, first, NODE);
        assert_eq!(cache.alloc_raw(&heap, NODE).unwrap(), first, "LIFO reuse");
        drop(guard);
        assert_eq!(heap.remaining(), after_refill);
        assert_eq!(heap.live_words(), 2 * NODE);
        cache.flush(&heap);
        assert_eq!(heap.live_words(), 2 * NODE, "a flush frees nothing");
        assert_eq!(heap.remaining(), heap.capacity() - 1 - 2 * NODE);
    }

    #[test]
    fn a_refill_prefers_the_global_list_to_a_fresh_chunk() {
        let heap = TmHeap::new(HeapConfig::small());
        let blocks: Vec<Addr> = (0..REFILL_BLOCKS + 1)
            .map(|_| heap.alloc_zeroed(NODE).unwrap())
            .collect();
        for &block in &blocks {
            heap.free(block, NODE);
        }
        let remaining = heap.remaining();
        let mut cache = AllocCache::new();
        // One batch: the blocks freed last, handed out last-freed first.
        for expected in blocks.iter().rev().take(REFILL_BLOCKS) {
            assert_eq!(cache.alloc_raw(&heap, NODE).unwrap(), *expected);
        }
        // A second refill takes what the list has left.
        assert_eq!(cache.alloc_raw(&heap, NODE).unwrap(), blocks[0]);
        assert_eq!(heap.remaining(), remaining, "no chunk was carved");
        // Only now, with the global list empty, a chunk.
        let fresh = cache.alloc_raw(&heap, NODE).unwrap();
        assert!(!blocks.contains(&fresh));
        assert_eq!(heap.remaining(), remaining - CHUNK_WORDS);
        assert_eq!(heap.live_words(), (REFILL_BLOCKS + 2) * NODE);
    }

    #[test]
    fn a_full_list_spills_its_older_half() {
        let heap = TmHeap::new(HeapConfig::small());
        let blocks: Vec<Addr> = (0..CACHE_CAP_BLOCKS + 1)
            .map(|_| heap.alloc_zeroed(NODE).unwrap())
            .collect();
        let mut consumer = AllocCache::new();
        for &block in &blocks[..CACHE_CAP_BLOCKS] {
            consumer.free(&heap, block, NODE);
        }
        assert_eq!(heap.live_words(), NODE);
        let guard = heap.alloc.lock().unwrap();
        assert!(guard.free[NODE].is_empty(), "up to the cap nothing spills");
        drop(guard);
        consumer.free(&heap, blocks[CACHE_CAP_BLOCKS], NODE);
        assert_eq!(heap.live_words(), 0);
        let spilled = heap.alloc.lock().unwrap().free[NODE].clone();
        let oldest: Vec<usize> = blocks[..CACHE_CAP_BLOCKS / 2]
            .iter()
            .map(|block| block.index())
            .collect();
        assert_eq!(spilled, oldest);
        // What one thread frees another allocates, with no fresh words.
        let remaining = heap.remaining();
        let mut producer = AllocCache::new();
        for _ in 0..spilled.len() {
            let block = producer.alloc_raw(&heap, NODE).unwrap();
            assert!(spilled.contains(&block.index()));
        }
        assert_eq!(heap.remaining(), remaining);
    }

    /// Exhaustion is reported only when the cache, the global lists and the
    /// never-allocated words have all failed.
    #[test]
    fn exhaustion_needs_every_level_to_fail() {
        let heap = TmHeap::new(HeapConfig::with_words(1 + 10 * NODE + 3));
        let parked = heap.alloc_zeroed(NODE).unwrap();
        let mut cache = AllocCache::new();
        let mut blocks = Vec::new();
        loop {
            match cache.alloc_zeroed(&heap, NODE) {
                Ok(block) => blocks.push(block),
                Err(error) => {
                    assert!(matches!(
                        error,
                        StmError::OutOfMemory {
                            requested: NODE,
                            available: 0
                        }
                    ));
                    break;
                }
            }
        }
        assert_eq!(blocks.len(), 9, "the chunk was cut to what was left");
        assert_eq!(heap.live_words(), 10 * NODE);
        // The three words behind the last block are a block of class 3.
        let tail = cache.alloc_zeroed(&heap, 3).unwrap();
        assert_eq!(tail, blocks[8].offset(NODE));
        assert!(cache.alloc_zeroed(&heap, 3).is_err());
        // The global list serves a cache whose chunk is dry ...
        heap.free(parked, NODE);
        assert_eq!(cache.alloc_zeroed(&heap, NODE).unwrap(), parked);
        // ... and so does the cache itself.
        cache.free(&heap, blocks[4], NODE);
        assert_eq!(cache.alloc_zeroed(&heap, NODE).unwrap(), blocks[4]);
        assert!(cache.alloc_zeroed(&heap, NODE).is_err());
        assert_eq!(heap.live_words(), 10 * NODE + 3);
    }

    #[test]
    fn a_flushed_chunk_is_carved_again() {
        let heap = TmHeap::new(HeapConfig::small());
        let mut first = AllocCache::new();
        let block = first.alloc_zeroed(&heap, NODE).unwrap();
        first.flush(&heap);
        let remaining = heap.remaining();
        assert_eq!(remaining, heap.capacity() - 1 - NODE);
        let mut second = AllocCache::new();
        assert_eq!(
            second.alloc_zeroed(&heap, NODE).unwrap(),
            block.offset(NODE),
            "the spare chunk goes before the bump region"
        );
        second.flush(&heap);
        // The direct path carves the same words.
        assert_eq!(heap.alloc_zeroed(100).unwrap(), block.offset(2 * NODE));
        assert_eq!(heap.remaining(), remaining - NODE - 100);
        assert_eq!(heap.live_words(), 2 * NODE + 100);
    }

    /// Reference model of the two-level allocator's contract: which words
    /// are allocated, and with which size each freed block was freed.
    struct ModelHeap {
        occupied: Vec<bool>,
        live: Vec<(Addr, usize)>,
        freed_as: std::collections::HashMap<usize, usize>,
    }

    impl ModelHeap {
        fn allocated(&mut self, heap: &TmHeap, addr: Addr, words: usize, step: u64) {
            assert!(!addr.is_null(), "step {step}");
            assert!(addr.index() + words <= heap.capacity(), "step {step}");
            for offset in 0..words {
                let word = &mut self.occupied[addr.index() + offset];
                assert!(!*word, "step {step}: {addr:?}+{offset} handed out twice");
                *word = true;
                assert_eq!(heap.load(addr.offset(offset)), 0, "step {step}: zeroed");
                heap.store(addr.offset(offset), u64::MAX);
            }
            if let Some(size) = self.freed_as.remove(&addr.index()) {
                assert_eq!(size, words, "step {step}: recycled in another class");
            }
            self.live.push((addr, words));
        }

        fn free_one(&mut self, rng: &mut FastRng) -> Option<(Addr, usize)> {
            if self.live.is_empty() {
                return None;
            }
            let at = rng.next_below(self.live.len() as u64) as usize;
            let (addr, words) = self.live.swap_remove(at);
            for offset in 0..words {
                self.occupied[addr.index() + offset] = false;
            }
            if words < FREE_LIST_CLASSES {
                self.freed_as.insert(addr.index(), words);
            }
            Some((addr, words))
        }

        fn live_words(&self) -> usize {
            self.live.iter().map(|&(_, words)| words).sum()
        }
    }

    /// Three caches and the direct path on one heap, in phases that swing
    /// between allocating and freeing so that lists refill, spill and
    /// flush: no word is ever handed out twice, blocks keep their size
    /// class, every block arrives zeroed and `live_words` matches the model
    /// after every step.
    #[test]
    fn caches_match_a_model_allocator() {
        const CACHES: u64 = 3;
        let heap = TmHeap::new(HeapConfig::with_words(1 << 17));
        let mut caches: Vec<AllocCache> = (0..CACHES).map(|_| AllocCache::new()).collect();
        let mut model = ModelHeap {
            occupied: vec![false; heap.capacity()],
            live: Vec::new(),
            freed_as: std::collections::HashMap::new(),
        };
        let mut rng = FastRng::new(0xA110C);
        let (mut exhausted, mut flushes, mut refills, mut spills) = (0, 0, 0, 0);
        let global_nodes = |heap: &TmHeap| heap.alloc.lock().unwrap().free[NODE].len();
        for step in 0..40_000u64 {
            let nodes_before = global_nodes(&heap);
            // Phases of 500 steps: mostly allocating, then mostly freeing.
            let alloc_percent = if (step / 500) % 2 == 0 { 75 } else { 25 };
            let via = rng.next_below(CACHES + 1) as usize;
            if rng.next_below(100) < alloc_percent {
                let words = match rng.next_below(100) {
                    0..=59 => NODE,
                    60..=94 => 1 + rng.next_below(8) as usize,
                    95..=97 => FREE_LIST_CLASSES - 1,
                    _ => FREE_LIST_CLASSES + rng.next_below(40) as usize,
                };
                let outcome = match caches.get_mut(via) {
                    Some(cache) => cache.alloc_zeroed(&heap, words),
                    None => heap.alloc_zeroed(words),
                };
                match outcome {
                    Ok(addr) => model.allocated(&heap, addr, words, step),
                    Err(_) => exhausted += 1,
                }
            } else if let Some((addr, words)) = model.free_one(&mut rng) {
                match caches.get_mut(via) {
                    Some(cache) => cache.free(&heap, addr, words),
                    None => heap.free(addr, words),
                }
            }
            if via < caches.len() {
                refills += usize::from(global_nodes(&heap) < nodes_before);
                spills += usize::from(global_nodes(&heap) > nodes_before);
            }
            if rng.next_below(2_000) == 0 {
                caches[rng.next_below(CACHES) as usize].flush(&heap);
                flushes += 1;
            }
            assert_eq!(heap.live_words(), model.live_words(), "step {step}");
        }
        assert!(flushes > 10 && refills > 10 && spills > 10);
        assert_eq!(exhausted, 0, "the heap holds the leaked large blocks too");
        let longest = caches.iter().flat_map(|cache| &cache.free).map(Vec::len);
        assert!(longest.max().unwrap() <= CACHE_CAP_BLOCKS, "lists spill");

        while let Some((addr, words)) = model.free_one(&mut rng) {
            caches[0].free(&heap, addr, words);
        }
        let fresh_before_flush = heap.remaining();
        for cache in &mut caches {
            cache.flush(&heap);
        }
        assert_eq!(heap.live_words(), 0);
        assert!(heap.alloc.lock().unwrap().caches.is_empty());
        assert!(heap.remaining() > fresh_before_flush, "chunks came back");
    }
}
