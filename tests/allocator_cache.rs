//! The thread-private allocator caches, through transactions on every STM.
//!
//! `stm_core::heap` pins the cache itself against a model; here real
//! `ThreadContext`s come and go, hand blocks to each other and run a heap
//! dry, and the heap's books (`live_words`, `remaining`) must come out
//! right every time.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};

use stm_core::config::{HeapConfig, StmConfig};
use stm_core::error::{AbortReason, StmError};
use stm_core::naive::NaiveGlobalLockTm;
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_core::word::Addr;

use rstm::Rstm;
use swisstm::SwissTm;
use tinystm::TinyStm;
use tl2::Tl2;

const NODE_WORDS: usize = 4;

fn config(heap_words: usize) -> StmConfig {
    StmConfig::small().with_heap(HeapConfig::with_words(heap_words))
}

/// Runs `scenario` on the four STMs and the global-lock baseline, each on a
/// heap of `heap_words` words.
macro_rules! on_every_stm {
    ($scenario:ident, $heap_words:expr) => {
        $scenario(Arc::new(SwissTm::with_config(config($heap_words))));
        $scenario(Arc::new(Tl2::with_config(config($heap_words))));
        $scenario(Arc::new(TinyStm::with_config(config($heap_words))));
        $scenario(Arc::new(Rstm::with_config(config($heap_words))));
        $scenario(Arc::new(NaiveGlobalLockTm::new(config($heap_words).heap)));
    };
}

/// A transaction that allocates until the heap is dry ends with
/// `StmError::OutOfMemory` after one attempt — retrying cannot help — and
/// ends like any abort: its write is undone, its locks are released and its
/// blocks are the allocator's again.
fn exhaustion_ends_the_transaction<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let heap = stm.heap();
    let cell = heap.alloc_zeroed(2).unwrap();
    let live = heap.live_words();
    // The budget only keeps a driver that retries `Abort::OOM` from
    // hanging the test.
    let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(3);
    let mut last_block = Addr::NULL;
    let outcome: Result<(), StmError> = ctx.atomically(|tx| {
        tx.write(cell, 7)?;
        loop {
            last_block = tx.alloc(NODE_WORDS)?;
            tx.write(last_block, 1)?;
        }
    });
    assert!(
        matches!(
            outcome,
            Err(StmError::OutOfMemory {
                requested: NODE_WORDS,
                ..
            })
        ),
        "{name}: {outcome:?}"
    );
    assert!(!last_block.is_null(), "{name}: the heap held some blocks");
    assert_eq!(ctx.stats().aborts, 1, "{name}: one attempt");
    let label = AbortReason::OutOfMemory.label();
    assert_eq!(ctx.stats().aborts_by_reason.get(label), Some(&1), "{name}");
    assert_eq!(heap.live_words(), live, "{name}: the blocks came back");
    assert_eq!(heap.load(cell), 0, "{name}: the write was rolled back");

    // No lock is left on the stripes the attempt wrote.
    let mut rival = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
    rival
        .atomically(|tx| {
            tx.write(cell, 9)?;
            tx.write(last_block, 9)
        })
        .unwrap_or_else(|error| panic!("{name}: a lock was left held: {error}"));

    // The context goes on working, out of the blocks it got back.
    let block = ctx.atomically(|tx| tx.alloc(NODE_WORDS)).unwrap();
    assert_eq!(heap.live_words(), live + NODE_WORDS, "{name}");
    ctx.atomically(|tx| {
        tx.free(block, NODE_WORDS);
        Ok(())
    })
    .unwrap();
    assert_eq!(heap.live_words(), live, "{name}");
}

#[test]
fn heap_exhaustion_ends_the_transaction_on_every_stm() {
    on_every_stm!(exhaustion_ends_the_transaction, 256);
}

const GENERATIONS: usize = 12;
const CHURN_THREADS: usize = 2;
const CHURN_ROUNDS: usize = 3;
/// Blocks a churn thread holds at its peak; twice as many in the first
/// generation.
const CHURN_BLOCKS: usize = 40;

/// Allocates `peak` blocks, five per transaction, waits until every thread
/// of the generation holds its peak, then frees them the same way.
fn churn_round<A: TmAlgorithm>(ctx: &mut ThreadContext<A>, peak: usize, at_peak: &Barrier) {
    let mut held: Vec<Addr> = Vec::new();
    while held.len() < peak {
        let blocks = ctx.atomically(|tx| {
            let mut blocks = [Addr::NULL; 5];
            for block in &mut blocks {
                *block = tx.alloc(NODE_WORDS)?;
                tx.write(*block, 1)?;
            }
            Ok(blocks)
        });
        held.extend(blocks.expect("the heap holds every generation"));
    }
    at_peak.wait();
    for blocks in held.chunks(5) {
        ctx.atomically(|tx| {
            for &block in blocks {
                tx.free(block, NODE_WORDS);
            }
            Ok(())
        })
        .expect("a free cannot fail");
    }
}

/// Generations of short-lived contexts: what a context cached goes back to
/// the heap when it drops, so after every generation nothing is live, and
/// no generation takes a fresh word once the free lists hold a
/// generation's peak. The first generation leaves them twice that, so that
/// a later thread finds a full refill batch however the threads interleave.
fn thread_churn_leaks_nothing<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let heap = stm.heap();
    let live = heap.live_words();
    let mut remaining = Vec::new();
    for generation in 0..GENERATIONS {
        let peak = if generation == 0 {
            2 * CHURN_BLOCKS
        } else {
            CHURN_BLOCKS
        };
        let at_peak = Barrier::new(CHURN_THREADS);
        std::thread::scope(|scope| {
            for _ in 0..CHURN_THREADS {
                scope.spawn(|| {
                    let mut ctx = ThreadContext::register(Arc::clone(&stm));
                    for _ in 0..CHURN_ROUNDS {
                        churn_round(&mut ctx, peak, &at_peak);
                    }
                });
            }
        });
        assert_eq!(heap.live_words(), live, "{name}: generation {generation}");
        remaining.push(heap.remaining());
    }
    let fresh_words = heap.capacity() - 1 - remaining[0];
    assert!(
        fresh_words >= CHURN_THREADS * 2 * CHURN_BLOCKS * NODE_WORDS,
        "{name}: the first generation's blocks are fresh"
    );
    assert!(
        remaining.iter().all(|&left| left == remaining[0]),
        "{name}: fresh words keep going: {remaining:?}"
    );
}

#[test]
fn thread_churn_leaks_nothing_on_every_stm() {
    on_every_stm!(thread_churn_leaks_nothing, 1 << 16);
}

/// Blocks the producer allocates: 400 000 words through a heap of 8 192.
const HANDED_OFF: usize = 100_000;

/// One thread only allocates, the other only frees the same blocks: the
/// consumer's cache spills what the producer's refills take, so the heap
/// never runs dry although the traffic is fifty times its size.
fn hand_off_never_exhausts<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let heap = stm.heap();
    let live = heap.live_words();
    let (send, receive) = mpsc::sync_channel::<Addr>(64);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut ctx = ThreadContext::register(Arc::clone(&stm));
            for _ in 0..HANDED_OFF {
                let block = ctx.atomically(|tx| {
                    let block = tx.alloc(NODE_WORDS)?;
                    tx.write(block, 1)?;
                    Ok(block)
                });
                let block = block.unwrap_or_else(|error| panic!("{name}: producer: {error}"));
                send.send(block)
                    .expect("the consumer outlives the producer");
            }
            drop(send);
        });
        scope.spawn(|| {
            let mut ctx = ThreadContext::register(Arc::clone(&stm));
            for block in receive {
                ctx.atomically(|tx| {
                    tx.free(block, NODE_WORDS);
                    Ok(())
                })
                .expect("a free cannot fail");
            }
        });
    });
    assert_eq!(heap.live_words(), live, "{name}");
}

#[test]
fn a_producer_consumer_hand_off_never_exhausts_the_heap() {
    on_every_stm!(hand_off_never_exhausts, 1 << 13);
}
