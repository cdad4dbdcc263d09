//! Opacity across the allocator: a recycled block must never be readable
//! through a pointer taken during its previous life.
//!
//! `TmHeap::alloc_zeroed` re-zeroes a recycled block with plain stores, so
//! the allocator alone lets a transaction that still holds a pointer to a
//! freed node read zeros that validate — on the red-black tree a red node
//! whose parent is `NULL`, where `insert_fixup` walks `NULL → parent(NULL)`
//! for ever (the "zombie loop"). The driver closes the hole with the two
//! rules of the original STMs: *free is a write* (`Tx::free`'s blocks are
//! written through the algorithm before commit) and *alloc is a read*
//! (`Tx::alloc` reads the new block through the algorithm).
//!
//! Two deterministic single-threaded schedules pin each rule on every STM;
//! a two-thread update-only red-black-tree stress, the workload the loop was
//! found on, runs under a watchdog that fails the test instead of hanging.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use stm_core::backoff::FastRng;
use stm_core::config::StmConfig;
use stm_core::error::{Abort, TxResult};
use stm_core::sync::{AtomicU64, Ordering};
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_core::word::{Addr, Word};
use stm_workloads::driver::Workload;
use stm_workloads::rbtree::{RbTreeConfig, RbTreeWorkload};

use rstm::Rstm;
use swisstm::SwissTm;
use tinystm::TinyStm;
use tl2::Tl2;

fn config() -> StmConfig {
    StmConfig::small()
}

const NODE_WORDS: usize = 4;
const KEY: Word = 42;

/// A one-node "list": `head` points to a node whose first word is [`KEY`].
fn list_with_one_node<A: TmAlgorithm>(stm: &Arc<A>) -> (Addr, Addr) {
    let head = stm.heap().alloc_zeroed(2).unwrap();
    let mut ctx = ThreadContext::register(Arc::clone(stm));
    let node = ctx
        .atomically(|tx| {
            let node = tx.alloc(NODE_WORDS)?;
            tx.write(node, KEY)?;
            tx.write_addr(head, node)?;
            Ok(node)
        })
        .unwrap();
    (head, node)
}

/// Unlinks and frees the node on a context of its own (T2).
fn remove_node<A: TmAlgorithm>(stm: &Arc<A>, head: Addr) {
    ThreadContext::register(Arc::clone(stm))
        .atomically(|tx| {
            let node = tx.read_addr(head)?;
            tx.write_addr(head, Addr::NULL)?;
            tx.free(node, NODE_WORDS);
            Ok(())
        })
        .unwrap();
}

/// *Free is a write.* T1 reads the node pointer; on its first attempt only,
/// T2 removes and frees the node and T3 allocates the recycled block, both
/// to completion; T1's next read of the node must abort the attempt instead
/// of returning the zeros of the block's next life.
fn stale_pointer_read_aborts<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let (head, node) = list_with_one_node(&stm);
    let mut t1 = ThreadContext::register(Arc::clone(&stm));
    let mut attempts = 0;
    let mut stale_read: Option<TxResult<Word>> = None;
    t1.atomically(|tx| {
        attempts += 1;
        let pointer = tx.read_addr(head)?;
        if pointer.is_null() {
            return Ok(());
        }
        assert_eq!((attempts, pointer), (1, node), "{name}");
        remove_node(&stm, head);
        let recycled = ThreadContext::register(Arc::clone(&stm))
            .atomically(|tx3| tx3.alloc(NODE_WORDS))
            .unwrap();
        assert_eq!(
            recycled, node,
            "{name}: the freed block is handed out again"
        );
        let outcome = tx.read(pointer);
        stale_read = Some(outcome);
        outcome.map(drop)
    })
    .unwrap();
    assert_eq!(
        stale_read,
        Some(Err(Abort::READ_VALIDATION)),
        "{name}: a read through the stale pointer must abort"
    );
    assert_eq!(attempts, 2, "{name}: the retry sees the empty list");
}

/// *Alloc is a read.* T1 reads the node pointer, T2 removes and frees the
/// node, and T1 itself is handed the recycled block: the allocation must
/// abort the attempt, or T1 would own a block that aliases a node of its
/// snapshot (and a lazy STM would serve T1's later reads through the stale
/// pointer from its redo log, with no version check at all).
fn recycled_block_of_own_snapshot_aborts<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let (head, node) = list_with_one_node(&stm);
    let mut t1 = ThreadContext::register(Arc::clone(&stm));
    let mut attempts = 0;
    let mut first_alloc: Option<TxResult<Addr>> = None;
    t1.atomically(|tx| {
        attempts += 1;
        let pointer = tx.read_addr(head)?;
        if attempts == 1 {
            assert_eq!(pointer, node, "{name}");
            remove_node(&stm, head);
        }
        let outcome = tx.alloc(NODE_WORDS);
        first_alloc.get_or_insert(outcome);
        outcome.map(drop)
    })
    .unwrap();
    assert_eq!(
        first_alloc,
        Some(Err(Abort::READ_VALIDATION)),
        "{name}: the block is recycled from the attempt's own snapshot"
    );
    assert_eq!(attempts, 2, "{name}");
}

#[test]
fn a_read_through_a_stale_pointer_aborts_on_every_stm() {
    stale_pointer_read_aborts(Arc::new(SwissTm::with_config(config())));
    stale_pointer_read_aborts(Arc::new(Tl2::with_config(config())));
    stale_pointer_read_aborts(Arc::new(TinyStm::with_config(config())));
    stale_pointer_read_aborts(Arc::new(Rstm::with_config(config())));
}

#[test]
fn a_block_recycled_from_the_own_snapshot_aborts_on_every_stm() {
    recycled_block_of_own_snapshot_aborts(Arc::new(SwissTm::with_config(config())));
    recycled_block_of_own_snapshot_aborts(Arc::new(Tl2::with_config(config())));
    recycled_block_of_own_snapshot_aborts(Arc::new(TinyStm::with_config(config())));
    recycled_block_of_own_snapshot_aborts(Arc::new(Rstm::with_config(config())));
}

const STRESS_THREADS: u64 = 2;
const STRESS_OPS: u64 = 40_000;
/// Millions of times a tree transaction; a zombie never completes another.
const STALL: Duration = Duration::from_secs(3);

/// Two threads of inserts and removes on a small tree: every removal
/// recycles a node the other thread may be standing on. The workers are
/// detached, so a zombie among them cannot hang the test: the calling
/// thread is the watchdog and panics once no operation completed for
/// [`STALL`].
fn update_only_tree_stress<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let tree_config = RbTreeConfig::small().with_update_percent(100);
    let workload = RbTreeWorkload::setup(&stm, tree_config, 7);
    let completed = Arc::new(AtomicU64::new(0));
    let (finished, watchdog) = mpsc::channel();
    for thread in 0..STRESS_THREADS {
        let (stm, workload) = (Arc::clone(&stm), Arc::clone(&workload));
        let (completed, finished) = (Arc::clone(&completed), finished.clone());
        std::thread::spawn(move || {
            let mut ctx = ThreadContext::register(stm);
            let mut rng = FastRng::new(thread + 1);
            for op in 0..STRESS_OPS {
                workload.execute(&mut ctx, &mut rng, op);
                // sync: Relaxed — a heartbeat: the watchdog only asks
                // whether the count moved between two polls.
                completed.fetch_add(1, Ordering::Relaxed);
            }
            let _ = finished.send(());
        });
    }
    drop(finished);
    let mut seen = 0;
    let mut running = STRESS_THREADS;
    while running > 0 {
        match watchdog.recv_timeout(STALL) {
            Ok(()) => running -= 1,
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{name}: a worker panicked"),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // sync: Relaxed — see the heartbeat above.
                let now = completed.load(Ordering::Relaxed);
                assert_ne!(now, seen, "{name}: no operation for {STALL:?}: a zombie");
                seen = now;
            }
        }
    }
    let mut checker = ThreadContext::register(Arc::clone(&stm));
    assert!(
        Workload::check(&*workload, &mut checker),
        "{name}: red-black invariants violated"
    );
}

#[test]
fn update_only_tree_stress_finishes_on_every_stm() {
    update_only_tree_stress(Arc::new(SwissTm::with_config(config())));
    update_only_tree_stress(Arc::new(Tl2::with_config(config())));
    update_only_tree_stress(Arc::new(TinyStm::with_config(config())));
    update_only_tree_stress(Arc::new(Rstm::with_config(config())));
}
