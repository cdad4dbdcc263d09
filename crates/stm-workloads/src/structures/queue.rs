//! A transactional FIFO queue.
//!
//! Layout: the handle is two heap words `[head, tail]`; each node is two
//! words `[value, next]`. The queue is a deliberate contention hot spot in
//! workloads such as STAMP's `intruder` (paper Figure 11).

use stm_core::error::TxResult;
use stm_core::heap::TmHeap;
use stm_core::tm::{TmAlgorithm, Tx};
use stm_core::word::{Addr, Word};

const HEAD: usize = 0;
const TAIL: usize = 1;
const NODE_VALUE: usize = 0;
const NODE_NEXT: usize = 1;
const NODE_WORDS: usize = 2;

/// Handle to a transactional FIFO queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Queue {
    header: Addr,
}

impl Queue {
    /// Creates an empty queue (non-transactionally, during set-up).
    ///
    /// # Errors
    ///
    /// Returns an error when the heap is exhausted.
    pub fn create(heap: &TmHeap) -> Result<Self, stm_core::error::StmError> {
        let header = heap.alloc_zeroed(2)?;
        Ok(Queue { header })
    }

    /// Appends `value` at the tail.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn enqueue<A: TmAlgorithm>(&self, tx: &mut Tx<'_, A>, value: Word) -> TxResult<()> {
        let node = tx.alloc(NODE_WORDS)?;
        tx.write_field(node, NODE_VALUE, value)?;
        tx.write_field(node, NODE_NEXT, Addr::NULL.to_word())?;
        let tail = tx.read_addr(self.header.offset(TAIL))?;
        if tail.is_null() {
            tx.write_addr(self.header.offset(HEAD), node)?;
        } else {
            tx.write_field(tail, NODE_NEXT, node.to_word())?;
        }
        tx.write_addr(self.header.offset(TAIL), node)?;
        Ok(())
    }

    /// Removes and returns the head value, or `None` if the queue is empty.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn dequeue<A: TmAlgorithm>(&self, tx: &mut Tx<'_, A>) -> TxResult<Option<Word>> {
        let head = tx.read_addr(self.header.offset(HEAD))?;
        if head.is_null() {
            return Ok(None);
        }
        let value = tx.read_field(head, NODE_VALUE)?;
        let next = tx.read_field(head, NODE_NEXT)?;
        tx.write(self.header.offset(HEAD), next)?;
        if Addr::from_word(next).is_null() {
            tx.write_addr(self.header.offset(TAIL), Addr::NULL)?;
        }
        tx.free(head, NODE_WORDS);
        Ok(Some(value))
    }

    /// Returns `true` if the queue has no elements.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn is_empty<A: TmAlgorithm>(&self, tx: &mut Tx<'_, A>) -> TxResult<bool> {
        Ok(tx.read_addr(self.header.offset(HEAD))?.is_null())
    }

    /// Number of queued elements (walks the queue).
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn len<A: TmAlgorithm>(&self, tx: &mut Tx<'_, A>) -> TxResult<usize> {
        let mut count = 0;
        let mut current = tx.read_addr(self.header.offset(HEAD))?;
        while !current.is_null() {
            count += 1;
            current = Addr::from_word(tx.read_field(current, NODE_NEXT)?);
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

    fn setup() -> (Arc<NaiveGlobalLockTm>, Queue) {
        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let queue = Queue::create(stm.heap()).unwrap();
        (stm, queue)
    }

    #[test]
    fn fifo_order_is_preserved() {
        let (stm, queue) = setup();
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| {
            queue.enqueue(tx, 1)?;
            queue.enqueue(tx, 2)?;
            queue.enqueue(tx, 3)?;
            Ok(())
        })
        .unwrap();
        let drained = ctx
            .atomically(|tx| {
                Ok((
                    queue.dequeue(tx)?,
                    queue.dequeue(tx)?,
                    queue.dequeue(tx)?,
                    queue.dequeue(tx)?,
                ))
            })
            .unwrap();
        assert_eq!(drained, (Some(1), Some(2), Some(3), None));
    }

    #[test]
    fn empty_and_len_reflect_content() {
        let (stm, queue) = setup();
        let mut ctx = ThreadContext::register(stm);
        let empty = ctx.atomically(|tx| queue.is_empty(tx)).unwrap();
        assert!(empty);
        ctx.atomically(|tx| {
            queue.enqueue(tx, 10)?;
            queue.enqueue(tx, 20)?;
            Ok(())
        })
        .unwrap();
        let (empty, len) = ctx
            .atomically(|tx| Ok((queue.is_empty(tx)?, queue.len(tx)?)))
            .unwrap();
        assert!(!empty);
        assert_eq!(len, 2);
    }

    #[test]
    fn dequeue_last_element_resets_tail() {
        let (stm, queue) = setup();
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| queue.enqueue(tx, 7)).unwrap();
        let v = ctx.atomically(|tx| queue.dequeue(tx)).unwrap();
        assert_eq!(v, Some(7));
        // Enqueue again after the queue became empty: tail must have been
        // reset, otherwise this would corrupt the structure.
        ctx.atomically(|tx| queue.enqueue(tx, 8)).unwrap();
        let v = ctx.atomically(|tx| queue.dequeue(tx)).unwrap();
        assert_eq!(v, Some(8));
    }

    #[test]
    fn producer_consumer_conserves_items() {
        let (stm, queue) = setup();
        let produced = 500u64;
        let stm_producer = Arc::clone(&stm);
        let producer = std::thread::spawn(move || {
            let mut ctx = ThreadContext::register(stm_producer);
            for i in 0..produced {
                ctx.atomically(|tx| queue.enqueue(tx, i)).unwrap();
            }
        });
        let stm_consumer = Arc::clone(&stm);
        let consumer = std::thread::spawn(move || {
            let mut ctx = ThreadContext::register(stm_consumer);
            let mut seen = Vec::new();
            while seen.len() < produced as usize {
                if let Some(v) = ctx.atomically(|tx| queue.dequeue(tx)).unwrap() {
                    seen.push(v);
                }
            }
            seen
        });
        producer.join().unwrap();
        let seen = consumer.join().unwrap();
        // FIFO per producer: the consumer sees values in order.
        assert_eq!(seen, (0..produced).collect::<Vec<_>>());
    }

    #[test]
    fn random_operations_match_a_vecdeque_and_free_dequeued_nodes() {
        let (stm, queue) = setup();
        let live_before = stm.heap().live_words();
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let mut model = std::collections::VecDeque::new();
        let mut rng = stm_core::backoff::FastRng::new(5);
        for step in 0..600u64 {
            if rng.chance_percent(55) {
                ctx.atomically(|tx| queue.enqueue(tx, step)).unwrap();
                model.push_back(step);
            } else {
                let value = ctx.atomically(|tx| queue.dequeue(tx)).unwrap();
                assert_eq!(value, model.pop_front(), "dequeue at step {step}");
            }
        }
        let len = ctx.atomically(|tx| queue.len(tx)).unwrap();
        assert_eq!(len, model.len());
        assert_eq!(stm.heap().live_words() - live_before, len * NODE_WORDS);
        let mut drained = Vec::new();
        while let Some(value) = ctx.atomically(|tx| queue.dequeue(tx)).unwrap() {
            drained.push(value);
        }
        assert_eq!(drained, model.into_iter().collect::<Vec<_>>());
        assert_eq!(stm.heap().live_words(), live_before);
    }

    #[test]
    fn an_abandoned_transaction_leaves_the_queue_and_the_heap_as_they_were() {
        let (stm, queue) = setup();
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
        ctx.atomically(|tx| queue.enqueue(tx, 1)).unwrap();
        let live_before = stm.heap().live_words();
        let outcome: Result<(), _> = ctx.atomically(|tx| {
            queue.dequeue(tx)?;
            queue.enqueue(tx, 2)?;
            queue.enqueue(tx, 3)?;
            tx.retry()
        });
        assert!(outcome.is_err());
        assert_eq!(stm.heap().live_words(), live_before);
        let drained = ctx
            .atomically(|tx| Ok((queue.dequeue(tx)?, queue.dequeue(tx)?)))
            .unwrap();
        assert_eq!(drained, (Some(1), None));
    }
}
