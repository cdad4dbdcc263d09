//! A transactional chained hash map with a fixed number of buckets.
//!
//! Layout: the handle is `[bucket_count, buckets_base]`; `buckets_base`
//! points to a block of `bucket_count` words, each the head of a chain of
//! `[key, value, next]` nodes. The bucket count is fixed at creation time
//! (no transactional resizing), which matches how the STAMP applications
//! size their tables up front.

use stm_core::error::TxResult;
use stm_core::heap::TmHeap;
use stm_core::tm::{TmAlgorithm, Tx};
use stm_core::word::{Addr, Word};

const NODE_KEY: usize = 0;
const NODE_VALUE: usize = 1;
const NODE_NEXT: usize = 2;
const NODE_WORDS: usize = 3;

/// Handle to a transactional hash map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HashMap {
    buckets: Addr,
    bucket_count: usize,
}

impl HashMap {
    /// Creates a map with `bucket_count` buckets (rounded up to a power of
    /// two) during non-transactional set-up.
    ///
    /// # Errors
    ///
    /// Returns an error when the heap is exhausted.
    pub fn create(heap: &TmHeap, bucket_count: usize) -> Result<Self, stm_core::error::StmError> {
        let bucket_count = bucket_count.next_power_of_two().max(2);
        let buckets = heap.alloc_zeroed(bucket_count)?;
        Ok(HashMap {
            buckets,
            bucket_count,
        })
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.bucket_count
    }

    fn bucket_of(&self, key: Word) -> Addr {
        // Fibonacci hashing spreads sequential ids well enough for the
        // benchmark tables.
        let hash = key.wrapping_mul(0x9e3779b97f4a7c15);
        let index = (hash >> 32) as usize & (self.bucket_count - 1);
        self.buckets.offset(index)
    }

    /// Inserts `key -> value`; returns `false` if the key existed (its value
    /// is then updated).
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn insert<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        key: Word,
        value: Word,
    ) -> TxResult<bool> {
        let bucket = self.bucket_of(key);
        let mut current = tx.read_addr(bucket)?;
        while !current.is_null() {
            if tx.read_field(current, NODE_KEY)? == key {
                tx.write_field(current, NODE_VALUE, value)?;
                return Ok(false);
            }
            current = Addr::from_word(tx.read_field(current, NODE_NEXT)?);
        }
        let head = tx.read_addr(bucket)?;
        let node = tx.alloc(NODE_WORDS)?;
        tx.write_field(node, NODE_KEY, key)?;
        tx.write_field(node, NODE_VALUE, value)?;
        tx.write_field(node, NODE_NEXT, head.to_word())?;
        tx.write_addr(bucket, node)?;
        Ok(true)
    }

    /// Looks up the value stored under `key`.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn get<A: TmAlgorithm>(&self, tx: &mut Tx<'_, A>, key: Word) -> TxResult<Option<Word>> {
        let bucket = self.bucket_of(key);
        let mut current = tx.read_addr(bucket)?;
        while !current.is_null() {
            if tx.read_field(current, NODE_KEY)? == key {
                return Ok(Some(tx.read_field(current, NODE_VALUE)?));
            }
            current = Addr::from_word(tx.read_field(current, NODE_NEXT)?);
        }
        Ok(None)
    }

    /// Returns `true` if `key` is present.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn contains<A: TmAlgorithm>(&self, tx: &mut Tx<'_, A>, key: Word) -> TxResult<bool> {
        Ok(self.get(tx, key)?.is_some())
    }

    /// Removes `key`; returns `true` if it was present.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn remove<A: TmAlgorithm>(&self, tx: &mut Tx<'_, A>, key: Word) -> TxResult<bool> {
        let bucket = self.bucket_of(key);
        let mut prev = Addr::NULL;
        let mut current = tx.read_addr(bucket)?;
        while !current.is_null() {
            if tx.read_field(current, NODE_KEY)? == key {
                let next = tx.read_field(current, NODE_NEXT)?;
                if prev.is_null() {
                    tx.write(bucket, next)?;
                } else {
                    tx.write_field(prev, NODE_NEXT, next)?;
                }
                tx.free(current, NODE_WORDS);
                return Ok(true);
            }
            prev = current;
            current = Addr::from_word(tx.read_field(current, NODE_NEXT)?);
        }
        Ok(false)
    }

    /// Adds `delta` to the value stored under `key`, inserting
    /// `key -> delta` if absent. Returns the new value.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn add<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        key: Word,
        delta: Word,
    ) -> TxResult<Word> {
        let bucket = self.bucket_of(key);
        let mut current = tx.read_addr(bucket)?;
        while !current.is_null() {
            if tx.read_field(current, NODE_KEY)? == key {
                let new = tx.read_field(current, NODE_VALUE)?.wrapping_add(delta);
                tx.write_field(current, NODE_VALUE, new)?;
                return Ok(new);
            }
            current = Addr::from_word(tx.read_field(current, NODE_NEXT)?);
        }
        self.insert(tx, key, delta)?;
        Ok(delta)
    }

    /// Number of entries (walks every bucket).
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn len<A: TmAlgorithm>(&self, tx: &mut Tx<'_, A>) -> TxResult<usize> {
        let mut count = 0;
        for i in 0..self.bucket_count {
            let mut current = tx.read_addr(self.buckets.offset(i))?;
            while !current.is_null() {
                count += 1;
                current = Addr::from_word(tx.read_field(current, NODE_NEXT)?);
            }
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stm_core::config::HeapConfig;
    use stm_core::naive::NaiveGlobalLockTm;
    use stm_core::tm::ThreadContext;

    fn setup(buckets: usize) -> (Arc<NaiveGlobalLockTm>, HashMap) {
        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let map = HashMap::create(stm.heap(), buckets).unwrap();
        (stm, map)
    }

    #[test]
    fn bucket_count_is_rounded_to_power_of_two() {
        let (_stm, map) = setup(100);
        assert_eq!(map.bucket_count(), 128);
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let (stm, map) = setup(16);
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| {
            assert!(map.insert(tx, 1, 10)?);
            assert!(map.insert(tx, 2, 20)?);
            assert!(!map.insert(tx, 1, 11)?);
            Ok(())
        })
        .unwrap();
        let (one, two, three) = ctx
            .atomically(|tx| Ok((map.get(tx, 1)?, map.get(tx, 2)?, map.get(tx, 3)?)))
            .unwrap();
        assert_eq!(one, Some(11));
        assert_eq!(two, Some(20));
        assert_eq!(three, None);
        let removed = ctx.atomically(|tx| map.remove(tx, 1)).unwrap();
        assert!(removed);
        let gone = ctx.atomically(|tx| map.contains(tx, 1)).unwrap();
        assert!(!gone);
    }

    #[test]
    fn many_keys_survive_chaining() {
        // Few buckets forces long chains; everything must still be found.
        let (stm, map) = setup(2);
        let mut ctx = ThreadContext::register(stm);
        for key in 0..200u64 {
            ctx.atomically(|tx| map.insert(tx, key, key * 3)).unwrap();
        }
        let len = ctx.atomically(|tx| map.len(tx)).unwrap();
        assert_eq!(len, 200);
        for key in 0..200u64 {
            let v = ctx.atomically(|tx| map.get(tx, key)).unwrap();
            assert_eq!(v, Some(key * 3));
        }
    }

    #[test]
    fn add_accumulates() {
        let (stm, map) = setup(8);
        let mut ctx = ThreadContext::register(stm);
        let v1 = ctx.atomically(|tx| map.add(tx, 7, 5)).unwrap();
        let v2 = ctx.atomically(|tx| map.add(tx, 7, 3)).unwrap();
        assert_eq!(v1, 5);
        assert_eq!(v2, 8);
        let stored = ctx.atomically(|tx| map.get(tx, 7)).unwrap();
        assert_eq!(stored, Some(8));
    }

    #[test]
    fn removing_middle_of_chain_keeps_other_entries() {
        let (stm, map) = setup(2);
        let mut ctx = ThreadContext::register(stm);
        for key in 0..10u64 {
            ctx.atomically(|tx| map.insert(tx, key, key)).unwrap();
        }
        ctx.atomically(|tx| map.remove(tx, 4)).unwrap();
        ctx.atomically(|tx| map.remove(tx, 5)).unwrap();
        let len = ctx.atomically(|tx| map.len(tx)).unwrap();
        assert_eq!(len, 8);
        for key in [0u64, 1, 2, 3, 6, 7, 8, 9] {
            let present = ctx.atomically(|tx| map.contains(tx, key)).unwrap();
            assert!(present, "key {key} must still be present");
        }
    }

    #[test]
    fn random_operations_match_a_std_hashmap_and_free_removed_nodes() {
        let (stm, map) = setup(4);
        let live_before = stm.heap().live_words();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let mut model = std::collections::HashMap::new();
        let mut rng = stm_core::backoff::FastRng::new(23);
        for step in 0..800u64 {
            let key = rng.next_below(48);
            match rng.next_below(4) {
                0 => {
                    let fresh = ctx.atomically(|tx| map.insert(tx, key, step)).unwrap();
                    assert_eq!(fresh, model.insert(key, step).is_none(), "insert {key}");
                }
                1 => {
                    let removed = ctx.atomically(|tx| map.remove(tx, key)).unwrap();
                    assert_eq!(removed, model.remove(&key).is_some(), "remove {key}");
                }
                2 => {
                    let total = ctx.atomically(|tx| map.add(tx, key, step)).unwrap();
                    let entry = model.entry(key).or_insert(0);
                    *entry += step;
                    assert_eq!(total, *entry, "add {key}");
                }
                _ => {
                    let value = ctx.atomically(|tx| map.get(tx, key)).unwrap();
                    assert_eq!(value, model.get(&key).copied(), "get {key}");
                }
            }
        }
        let len = ctx.atomically(|tx| map.len(tx)).unwrap();
        assert_eq!(len, model.len());
        assert_eq!(stm.heap().live_words() - live_before, len * NODE_WORDS);
        for (&key, &value) in &model {
            let stored = ctx.atomically(|tx| map.get(tx, key)).unwrap();
            assert_eq!(stored, Some(value), "key {key}");
        }
    }

    #[test]
    fn an_abandoned_transaction_leaves_the_map_and_the_heap_as_they_were() {
        let (stm, map) = setup(4);
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
        ctx.atomically(|tx| map.insert(tx, 1, 10)).unwrap();
        let live_before = stm.heap().live_words();
        let outcome: Result<(), _> = ctx.atomically(|tx| {
            map.add(tx, 1, 5)?;
            map.insert(tx, 2, 20)?;
            map.remove(tx, 1)?;
            tx.retry()
        });
        assert!(outcome.is_err());
        assert_eq!(stm.heap().live_words(), live_before);
        let (one, two, len) = ctx
            .atomically(|tx| Ok((map.get(tx, 1)?, map.get(tx, 2)?, map.len(tx)?)))
            .unwrap();
        assert_eq!((one, two, len), (Some(10), None, 1));
    }
}
