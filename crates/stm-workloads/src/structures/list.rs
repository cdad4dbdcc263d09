//! A transactional sorted singly-linked list (a set/map with u64 keys).
//!
//! Layout: the list handle is one heap word holding the head pointer; each
//! node is three consecutive words `[key, value, next]`.

use stm_core::error::TxResult;
use stm_core::heap::TmHeap;
use stm_core::tm::{TmAlgorithm, Tx};
use stm_core::word::{Addr, Word};

const KEY: usize = 0;
const VALUE: usize = 1;
const NEXT: usize = 2;
const NODE_WORDS: usize = 3;

/// Handle to a transactional sorted linked list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortedList {
    head: Addr,
}

impl SortedList {
    /// Creates an empty list (non-transactionally, during set-up).
    ///
    /// # Errors
    ///
    /// Returns an error when the heap is exhausted.
    pub fn create(heap: &TmHeap) -> Result<Self, stm_core::error::StmError> {
        let head = heap.alloc_zeroed(1)?;
        Ok(SortedList { head })
    }

    /// The heap address of the list header (useful for tests).
    pub fn head_addr(&self) -> Addr {
        self.head
    }

    /// Wraps an existing (zero-initialised) header word as a list handle.
    /// Useful when the header is embedded inside a larger record, as in the
    /// STMBench7 composite parts.
    pub fn from_header(head: Addr) -> Self {
        SortedList { head }
    }

    /// Inserts `key -> value`; returns `false` if the key was already
    /// present (in which case the value is updated).
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
        let mut prev = Addr::NULL;
        let mut current = tx.read_addr(self.head)?;
        while !current.is_null() {
            let current_key = tx.read_field(current, KEY)?;
            if current_key == key {
                tx.write_field(current, VALUE, value)?;
                return Ok(false);
            }
            if current_key > key {
                break;
            }
            prev = current;
            current = Addr::from_word(tx.read_field(current, NEXT)?);
        }
        let node = tx.alloc(NODE_WORDS)?;
        tx.write_field(node, KEY, key)?;
        tx.write_field(node, VALUE, value)?;
        tx.write_field(node, NEXT, current.to_word())?;
        if prev.is_null() {
            tx.write_addr(self.head, node)?;
        } else {
            tx.write_field(prev, NEXT, node.to_word())?;
        }
        Ok(true)
    }

    /// Removes `key`; returns `true` if it was present.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn remove<A: TmAlgorithm>(&self, tx: &mut Tx<'_, A>, key: Word) -> TxResult<bool> {
        let mut prev = Addr::NULL;
        let mut current = tx.read_addr(self.head)?;
        while !current.is_null() {
            let current_key = tx.read_field(current, KEY)?;
            if current_key == key {
                let next = tx.read_field(current, NEXT)?;
                if prev.is_null() {
                    tx.write(self.head, next)?;
                } else {
                    tx.write_field(prev, NEXT, next)?;
                }
                tx.free(current, NODE_WORDS);
                return Ok(true);
            }
            if current_key > key {
                return Ok(false);
            }
            prev = current;
            current = Addr::from_word(tx.read_field(current, NEXT)?);
        }
        Ok(false)
    }

    /// Looks up the value stored under `key`.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn get<A: TmAlgorithm>(&self, tx: &mut Tx<'_, A>, key: Word) -> TxResult<Option<Word>> {
        let mut current = tx.read_addr(self.head)?;
        while !current.is_null() {
            let current_key = tx.read_field(current, KEY)?;
            if current_key == key {
                return Ok(Some(tx.read_field(current, VALUE)?));
            }
            if current_key > key {
                return Ok(None);
            }
            current = Addr::from_word(tx.read_field(current, NEXT)?);
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

    /// Number of elements (walks the whole list).
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn len<A: TmAlgorithm>(&self, tx: &mut Tx<'_, A>) -> TxResult<usize> {
        let mut count = 0;
        let mut current = tx.read_addr(self.head)?;
        while !current.is_null() {
            count += 1;
            current = Addr::from_word(tx.read_field(current, NEXT)?);
        }
        Ok(count)
    }

    /// Collects all `(key, value)` pairs in ascending key order.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn to_vec<A: TmAlgorithm>(&self, tx: &mut Tx<'_, A>) -> TxResult<Vec<(Word, Word)>> {
        let mut out = Vec::new();
        let mut current = tx.read_addr(self.head)?;
        while !current.is_null() {
            out.push((tx.read_field(current, KEY)?, tx.read_field(current, VALUE)?));
            current = Addr::from_word(tx.read_field(current, NEXT)?);
        }
        Ok(out)
    }

    /// Applies `f` to every `(key, value)` pair in ascending key order.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn for_each<A: TmAlgorithm, F>(&self, tx: &mut Tx<'_, A>, mut f: F) -> TxResult<()>
    where
        F: FnMut(Word, Word),
    {
        let mut current = tx.read_addr(self.head)?;
        while !current.is_null() {
            f(tx.read_field(current, KEY)?, tx.read_field(current, VALUE)?);
            current = Addr::from_word(tx.read_field(current, NEXT)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stm_core::config::HeapConfig;
    use stm_core::naive::NaiveGlobalLockTm;
    use stm_core::tm::ThreadContext;

    fn setup() -> (Arc<NaiveGlobalLockTm>, SortedList) {
        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let list = SortedList::create(stm.heap()).unwrap();
        (stm, list)
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let (stm, list) = setup();
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| {
            assert!(list.insert(tx, 5, 50)?);
            assert!(list.insert(tx, 3, 30)?);
            assert!(list.insert(tx, 9, 90)?);
            assert!(!list.insert(tx, 5, 55)?);
            Ok(())
        })
        .unwrap();
        let (value, len, sorted) = ctx
            .atomically(|tx| Ok((list.get(tx, 5)?, list.len(tx)?, list.to_vec(tx)?)))
            .unwrap();
        assert_eq!(value, Some(55));
        assert_eq!(len, 3);
        assert_eq!(sorted, vec![(3, 30), (5, 55), (9, 90)]);
        ctx.atomically(|tx| {
            assert!(list.remove(tx, 5)?);
            assert!(!list.remove(tx, 5)?);
            Ok(())
        })
        .unwrap();
        let contains = ctx.atomically(|tx| list.contains(tx, 5)).unwrap();
        assert!(!contains);
    }

    #[test]
    fn keys_stay_sorted() {
        let (stm, list) = setup();
        let mut ctx = ThreadContext::register(stm);
        for key in [9u64, 1, 7, 3, 8, 2] {
            ctx.atomically(|tx| list.insert(tx, key, key)).unwrap();
        }
        let keys: Vec<u64> = ctx
            .atomically(|tx| list.to_vec(tx))
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec![1, 2, 3, 7, 8, 9]);
    }

    #[test]
    fn remove_head_and_missing_key() {
        let (stm, list) = setup();
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| {
            list.insert(tx, 1, 1)?;
            list.insert(tx, 2, 2)?;
            Ok(())
        })
        .unwrap();
        let removed = ctx.atomically(|tx| list.remove(tx, 1)).unwrap();
        assert!(removed);
        let missing = ctx.atomically(|tx| list.remove(tx, 42)).unwrap();
        assert!(!missing);
        let len = ctx.atomically(|tx| list.len(tx)).unwrap();
        assert_eq!(len, 1);
    }

    #[test]
    fn for_each_visits_everything() {
        let (stm, list) = setup();
        let mut ctx = ThreadContext::register(stm);
        for key in 0..10u64 {
            ctx.atomically(|tx| list.insert(tx, key, key * 2)).unwrap();
        }
        let mut sum = 0u64;
        ctx.atomically(|tx| {
            sum = 0;
            list.for_each(tx, |_, v| sum += v)
        })
        .unwrap();
        assert_eq!(sum, (0..10u64).map(|k| k * 2).sum());
    }

    #[test]
    fn random_operations_match_a_btreemap_and_free_removed_nodes() {
        let (stm, list) = setup();
        let live_before = stm.heap().live_words();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let mut model = std::collections::BTreeMap::new();
        let mut rng = stm_core::backoff::FastRng::new(11);
        for step in 0..600u64 {
            let key = rng.next_below(32);
            match rng.next_below(3) {
                0 => {
                    let fresh = ctx.atomically(|tx| list.insert(tx, key, step)).unwrap();
                    assert_eq!(fresh, model.insert(key, step).is_none(), "insert {key}");
                }
                1 => {
                    let removed = ctx.atomically(|tx| list.remove(tx, key)).unwrap();
                    assert_eq!(removed, model.remove(&key).is_some(), "remove {key}");
                }
                _ => {
                    let value = ctx.atomically(|tx| list.get(tx, key)).unwrap();
                    assert_eq!(value, model.get(&key).copied(), "get {key}");
                }
            }
        }
        let entries = ctx.atomically(|tx| list.to_vec(tx)).unwrap();
        assert_eq!(entries, model.into_iter().collect::<Vec<_>>());
        assert_eq!(
            stm.heap().live_words() - live_before,
            entries.len() * NODE_WORDS
        );
    }

    #[test]
    fn an_abandoned_transaction_leaves_the_list_and_the_heap_as_they_were() {
        let (stm, list) = setup();
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
        ctx.atomically(|tx| {
            list.insert(tx, 1, 10)?;
            list.insert(tx, 2, 20)?;
            Ok(())
        })
        .unwrap();
        let live_before = stm.heap().live_words();
        let outcome: Result<(), _> = ctx.atomically(|tx| {
            list.insert(tx, 0, 0)?;
            list.insert(tx, 1, 11)?;
            list.remove(tx, 2)?;
            list.insert(tx, 3, 30)?;
            tx.retry()
        });
        assert!(outcome.is_err());
        let entries = ctx.atomically(|tx| list.to_vec(tx)).unwrap();
        assert_eq!(entries, vec![(1, 10), (2, 20)]);
        assert_eq!(stm.heap().live_words(), live_before);
    }

    #[test]
    fn a_handle_rebuilt_from_the_header_sees_the_same_list() {
        let (stm, list) = setup();
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| list.insert(tx, 4, 40)).unwrap();
        let alias = SortedList::from_header(list.head_addr());
        ctx.atomically(|tx| alias.insert(tx, 2, 20)).unwrap();
        let entries = ctx.atomically(|tx| list.to_vec(tx)).unwrap();
        assert_eq!(entries, vec![(2, 20), (4, 40)]);
    }
}
