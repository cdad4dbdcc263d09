//! Microbenchmarks of the raw STM primitives (single-threaded).
//!
//! These track the per-operation overheads of the four algorithms: the
//! effect the paper discusses for the single-thread red-black tree numbers
//! (SwissTM pays for its two locks per stripe, RSTM for its object
//! metadata).

use std::hint::black_box;
use std::sync::Arc;

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rstm::{Rstm, RstmVariant};
use stm_core::backoff::FastRng;
use stm_core::clock::ThreadRegistry;
use stm_core::cm::{ContentionManager, Polka};
use stm_core::config::{ClockMode, HeapConfig, StmConfig, TableLayout};
use stm_core::error::TxResult;
use stm_core::hash::fast_map_with_capacity;
use stm_core::heap::{AllocCache, TmHeap};
use stm_core::naive::NaiveGlobalLockTm;
use stm_core::sync::{AtomicBool, Ordering};
use stm_core::testkit::SequentialTm;
use stm_core::tm::{ThreadContext, TmAlgorithm, Tx};
use stm_core::word::Addr;
use stm_workloads::stmbench7::visited::VisitedSet;
use stm_workloads::structures::RbTree;
use swisstm::SwissTm;
use tinystm::TinyStm;
use tl2::Tl2;

fn config() -> StmConfig {
    StmConfig::small()
}

/// The sharded configuration: deferred commit clock + cache-line-padded,
/// index-mixed lock table. Benchmarked alongside the default so the
/// uncontended single-thread path of the relaxed/padded combination is
/// tracked against the strict/flat baseline (it must stay within noise —
/// the sharding only pays off under cross-thread contention).
fn sharded_config() -> StmConfig {
    StmConfig::small()
        .with_clock(ClockMode::Deferred)
        .with_table_layout(TableLayout::PaddedMixed)
}

/// Entries per transaction in the large read/write-set cases: big enough
/// that any per-operation scan of the descriptor's own logs (the seed's
/// `Vec::contains`-style acquired-stripe and visible-reader tracking)
/// dominates the run time quadratically.
const LARGE_SET: usize = 4096;

fn bench_algorithm<A: TmAlgorithm>(c: &mut Criterion, group_name: &str, stm: Arc<A>) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    let block = stm.heap().alloc_zeroed(64).expect("heap exhausted");
    let mut ctx = ThreadContext::register(Arc::clone(&stm));

    group.bench_function(BenchmarkId::from_parameter("read_8_words"), |b| {
        b.iter(|| {
            ctx.atomically(|tx| {
                let mut sum = 0;
                for i in 0..8 {
                    sum += tx.read(block.offset(i))?;
                }
                Ok(sum)
            })
            .unwrap()
        });
    });

    group.bench_function(BenchmarkId::from_parameter("write_8_words"), |b| {
        b.iter(|| {
            ctx.atomically(|tx| {
                for i in 0..8 {
                    tx.write(block.offset(i), i as u64)?;
                }
                Ok(())
            })
            .unwrap()
        });
    });

    group.bench_function(BenchmarkId::from_parameter("read_modify_write"), |b| {
        b.iter(|| {
            ctx.atomically(|tx| {
                let v = tx.read(block)?;
                tx.write(block, v + 1)
            })
            .unwrap()
        });
    });

    group.finish();
}

/// Single transactions with ≥4k-entry read/write sets. These isolate the
/// cost of the descriptor-side log bookkeeping: with O(1) stripe tracking
/// every case is linear in the set size; with the seed's linear scans the
/// write-heavy cases (and visible reads) degrade quadratically.
fn bench_large_sets<A: TmAlgorithm>(c: &mut Criterion, group_name: &str, stm: Arc<A>) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(700));
    let block = stm.heap().alloc_zeroed(LARGE_SET).expect("heap exhausted");
    let mut ctx = ThreadContext::register(Arc::clone(&stm));

    group.bench_function(BenchmarkId::from_parameter("read_4096_words"), |b| {
        b.iter(|| {
            ctx.atomically(|tx| {
                let mut sum = 0;
                for i in 0..LARGE_SET {
                    sum += tx.read(block.offset(i))?;
                }
                Ok(sum)
            })
            .unwrap()
        });
    });

    group.bench_function(BenchmarkId::from_parameter("write_4096_words"), |b| {
        b.iter(|| {
            ctx.atomically(|tx| {
                for i in 0..LARGE_SET {
                    tx.write(block.offset(i), i as u64)?;
                }
                Ok(())
            })
            .unwrap()
        });
    });

    group.bench_function(
        BenchmarkId::from_parameter("read_after_write_4096_words"),
        |b| {
            b.iter(|| {
                ctx.atomically(|tx| {
                    for i in 0..LARGE_SET {
                        tx.write(block.offset(i), i as u64)?;
                    }
                    let mut sum = 0;
                    for i in 0..LARGE_SET {
                        sum += tx.read(block.offset(i))?;
                    }
                    Ok(sum)
                })
                .unwrap()
            });
        },
    );

    group.finish();
}

fn primitives(c: &mut Criterion) {
    bench_algorithm(
        c,
        "primitives_swisstm",
        Arc::new(SwissTm::with_config(config())),
    );
    bench_algorithm(c, "primitives_tl2", Arc::new(Tl2::with_config(config())));
    bench_algorithm(
        c,
        "primitives_tinystm",
        Arc::new(TinyStm::with_config(config())),
    );
    bench_algorithm(c, "primitives_rstm", Arc::new(Rstm::with_config(config())));
}

/// The same primitive cases under the sharded configuration (deferred
/// clock, padded-mixed lock table): single-threaded, so any delta vs the
/// `primitives_*` groups is pure uncontended-path overhead.
fn primitives_sharded(c: &mut Criterion) {
    bench_algorithm(
        c,
        "primitives_swisstm_sharded",
        Arc::new(SwissTm::with_config(sharded_config())),
    );
    bench_algorithm(
        c,
        "primitives_tl2_sharded",
        Arc::new(Tl2::with_config(sharded_config())),
    );
    bench_algorithm(
        c,
        "primitives_tinystm_sharded",
        Arc::new(TinyStm::with_config(sharded_config())),
    );
    bench_algorithm(
        c,
        "primitives_rstm_sharded",
        Arc::new(Rstm::with_config(sharded_config())),
    );
}

fn large_sets(c: &mut Criterion) {
    bench_large_sets(
        c,
        "large_sets_swisstm",
        Arc::new(SwissTm::with_config(config())),
    );
    bench_large_sets(c, "large_sets_tl2", Arc::new(Tl2::with_config(config())));
    bench_large_sets(
        c,
        "large_sets_tinystm",
        Arc::new(TinyStm::with_config(config())),
    );
    bench_large_sets(c, "large_sets_rstm", Arc::new(Rstm::with_config(config())));
    // The visible-readers variant additionally exercises the per-read
    // registration set (the seed's `visible_reads.contains` linear scan).
    bench_large_sets(
        c,
        "large_sets_rstm_visible",
        Arc::new(
            Rstm::builder()
                .config(config())
                .variant(RstmVariant::eager_visible())
                .build(),
        ),
    );
}

/// Keys of the `tree_lookup` tree: half the paper's 16 384-key range, the
/// size the red-black-tree workload holds in steady state.
const TREE_KEYS: u64 = 8192;

/// Transactions per timed iteration of the `empty_tx` / `tree_lookup`
/// groups: the stand-in harness reads the clock around every iteration, and
/// one of these transactions costs less than that.
const HOT_BATCH: u64 = 1024;

/// Runs `body` through `atomically`, or `atomically_read_only` when
/// `read_only`.
fn transact<A: TmAlgorithm, T>(
    ctx: &mut ThreadContext<A>,
    read_only: bool,
    body: impl FnMut(&mut Tx<'_, A>) -> TxResult<T>,
) -> T {
    let result = if read_only {
        ctx.atomically_read_only(body)
    } else {
        ctx.atomically(body)
    };
    result.unwrap()
}

/// The two quantities the hot-path work moves, per subject: the driver's
/// fixed cost (`empty_tx`: begin + read-only commit + epilogue, no access)
/// and the per-read cost on pointer-chasing reads (`tree_lookup`: a
/// read-only `RbTree::get`, ≈14 node visits of two or three reads each).
/// With `log_free_rows`, each group also has a `<subject>/read_only` row:
/// the same transactions declared read-only, which the STMs run log-free.
/// The reported time is that of [`HOT_BATCH`] transactions.
fn bench_hot_path<A: TmAlgorithm>(
    c: &mut Criterion,
    subject: &str,
    stm: Arc<A>,
    log_free_rows: bool,
) {
    let tree = RbTree::create(stm.heap()).expect("heap exhausted");
    let mut ctx = ThreadContext::register(stm);
    let mut rng = FastRng::new(0x7ee);
    let mut keys = 0;
    while keys < TREE_KEYS {
        let key = rng.next_below(2 * TREE_KEYS);
        keys += u64::from(ctx.atomically(|tx| tree.insert(tx, key, key)).unwrap());
    }

    for group_name in ["empty_tx", "tree_lookup"] {
        let mut group = c.benchmark_group(group_name);
        group.sample_size(20);
        group.warm_up_time(Duration::from_millis(100));
        group.measurement_time(Duration::from_millis(500));
        for read_only in [false, true] {
            let id = match (read_only, log_free_rows) {
                (false, _) => BenchmarkId::from_parameter(subject),
                (true, true) => BenchmarkId::new(subject, "read_only"),
                (true, false) => continue,
            };
            group.bench_function(id, |b| {
                b.iter(|| {
                    for _ in 0..HOT_BATCH {
                        if group_name == "empty_tx" {
                            transact(&mut ctx, read_only, |_tx| Ok(()));
                        } else {
                            let key = rng.next_below(2 * TREE_KEYS);
                            black_box(transact(&mut ctx, read_only, |tx| tree.get(tx, key)));
                        }
                    }
                });
            });
        }
        group.finish();
    }
}

fn hot_path(c: &mut Criterion) {
    // 8 192 six-word nodes do not fit the small heap.
    let config = config().with_heap(HeapConfig::with_words(1 << 17));
    bench_hot_path(c, "swisstm", Arc::new(SwissTm::with_config(config)), true);
    bench_hot_path(c, "tl2", Arc::new(Tl2::with_config(config)), true);
    bench_hot_path(c, "tinystm", Arc::new(TinyStm::with_config(config)), true);
    bench_hot_path(c, "rstm", Arc::new(Rstm::with_config(config)), true);
    // Both decline the mode: a read-only row would repeat the logged one.
    bench_hot_path(
        c,
        "naive",
        Arc::new(NaiveGlobalLockTm::new(config.heap)),
        false,
    );
    // What `naive` is graded against: the same driver with no lock.
    let sequential = Arc::new(SequentialTm::new(config.heap));
    bench_hot_path(c, "sequential", sequential, false);
}

/// Stripes a `write_set` transaction writes: the common one-to-eight-word
/// write set, an STMBench7 update traversal's, and one that fills the small
/// configuration's lock table (4 096 entries, no two stripes aliasing).
const WRITE_SET_STRIPES: [usize; 4] = [1, 8, 512, 4096];

/// Stripes written per timed iteration of the `write_set` group, whatever
/// the transaction size, so the four sizes read on one scale.
const WRITE_SET_BATCH: usize = 4096;

/// What a `write_set` transaction does after its first writes.
#[derive(Clone, Copy)]
enum Then {
    Nothing,
    WriteAgain,
    ReadBack,
    ReadElsewhere,
}

/// The write path, per subject: transactions that write one word of each of
/// N stripes (`first_write`: what acquisition and logging cost), then write
/// the same words again (`re_write`) or read them back
/// (`read_after_write`) — the two lookups of a transaction's own writes —
/// or read one word of each of N other stripes (`read_elsewhere`): the
/// lookup that misses, which the commit-time lockers answer from their
/// write log's address summary instead of its hash index. (At 4 096 the
/// other stripes share the full table's lock entries with the written ones,
/// so the encounter-time lockers read through their own locks there.)
/// The reported time is that of [`WRITE_SET_BATCH`] stripes.
fn bench_write_set<A: TmAlgorithm>(c: &mut Criterion, subject: &str, stm: Arc<A>) {
    const STRIPE_WORDS: usize = 2;
    let block = stm
        .heap()
        .alloc_zeroed(2 * WRITE_SET_BATCH * STRIPE_WORDS)
        .expect("heap exhausted");
    let word = |stripe: usize| block.offset(stripe * STRIPE_WORDS);
    let mut ctx = ThreadContext::register(stm);

    let mut group = c.benchmark_group("write_set");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(100));
    group.measurement_time(Duration::from_millis(400));
    for (case, then) in [
        ("first_write", Then::Nothing),
        ("re_write", Then::WriteAgain),
        ("read_after_write", Then::ReadBack),
        ("read_elsewhere", Then::ReadElsewhere),
    ] {
        for stripes in WRITE_SET_STRIPES {
            let id = BenchmarkId::new(format!("{subject}/{case}"), stripes);
            group.bench_function(id, |b| {
                b.iter(|| {
                    for _ in 0..WRITE_SET_BATCH / stripes {
                        let sum = ctx.atomically(|tx| {
                            let mut sum = 0u64;
                            for s in 0..stripes {
                                tx.write(word(s), s as u64)?;
                            }
                            for s in 0..stripes {
                                match then {
                                    Then::Nothing => break,
                                    Then::WriteAgain => tx.write(word(s), 1)?,
                                    Then::ReadBack => sum += tx.read(word(s))?,
                                    Then::ReadElsewhere => sum += tx.read(word(stripes + s))?,
                                }
                            }
                            Ok(sum)
                        });
                        black_box(sum.unwrap());
                    }
                });
            });
        }
    }
    group.finish();
}

fn write_set(c: &mut Criterion) {
    assert_eq!(config().lock_table.grain_shift, 1, "two-word stripes");
    bench_write_set(c, "swisstm", Arc::new(SwissTm::with_config(config())));
    bench_write_set(c, "tl2", Arc::new(Tl2::with_config(config())));
    bench_write_set(c, "tinystm", Arc::new(TinyStm::with_config(config())));
    bench_write_set(c, "rstm", Arc::new(Rstm::with_config(config())));
    bench_write_set(c, "naive", Arc::new(NaiveGlobalLockTm::new(config().heap)));
    bench_write_set(c, "sequential", Arc::new(SequentialTm::new(config().heap)));
}

/// Allocations per timed iteration of the `heap/alloc_free*` groups.
const HEAP_BATCH: usize = 1024;

/// [`HEAP_BATCH`] times: allocate a red-black-tree node and free it again,
/// through `cache` or, without one, through the heap's global allocator.
fn alloc_free_batch(heap: &TmHeap, cache: &mut Option<AllocCache>) {
    const NODE_WORDS: usize = 4;
    for _ in 0..HEAP_BATCH {
        match cache {
            Some(cache) => {
                let block = cache.alloc_zeroed(heap, NODE_WORDS).expect("heap has room");
                cache.free(heap, black_box(block), NODE_WORDS);
            }
            None => {
                let block = heap.alloc_zeroed(NODE_WORDS).expect("heap has room");
                heap.free(black_box(block), NODE_WORDS);
            }
        }
    }
}

/// The allocator under a transaction's `alloc`/`free`, per path: `global`
/// is the mutex-guarded allocator set-up code uses, `cached` a thread's
/// [`AllocCache`] in front of it. `heap/alloc_free_2t` times the same loop
/// while a second thread runs it on the same heap (with a cache of its own):
/// the cached path shares nothing and keeps its one-thread figure, the
/// global path pays for the lock and the free list's cache lines.
fn heap_alloc_free(c: &mut Criterion) {
    for (group_name, with_rival) in [("heap/alloc_free", false), ("heap/alloc_free_2t", true)] {
        let mut group = c.benchmark_group(group_name);
        // Half a second of iterations, whatever their number: a rival that
        // loses its core for a millisecond must not decide the figure.
        group.sample_size(100_000);
        group.warm_up_time(Duration::from_millis(100));
        group.measurement_time(Duration::from_millis(500));
        for (path, cached) in [("global", false), ("cached", true)] {
            // A heap per case: a block the previous case left on the global
            // list would sit on one cache line with the rival's first.
            let heap = TmHeap::new(HeapConfig::small());
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                if with_rival {
                    scope.spawn(|| {
                        let mut cache = cached.then(AllocCache::new);
                        // sync: Relaxed — the flag only ends the rival's
                        // loop; nothing is published through it.
                        while !stop.load(Ordering::Relaxed) {
                            alloc_free_batch(&heap, &mut cache);
                        }
                        if let Some(cache) = &mut cache {
                            cache.flush(&heap);
                        }
                    });
                }
                let mut cache = cached.then(AllocCache::new);
                group.bench_function(BenchmarkId::from_parameter(path), |b| {
                    b.iter(|| alloc_free_batch(&heap, &mut cache));
                });
                // sync: Relaxed — see the rival's load.
                stop.store(true, Ordering::Relaxed);
                if let Some(cache) = &mut cache {
                    cache.flush(&heap);
                }
            });
        }
        group.finish();
    }
}

/// `cm/polka_first_wait`: what the first `resolve` of an attempt costs a
/// Polka attacker whose enemy is a million accesses ahead — two clock
/// samples and a wait drawn from the first round's window, `[0, 64)` spins.
/// (With the priority deficit as the exponent that window was the widest
/// there is and this read ≈ 22 ms.)
fn cm_polka_first_wait(c: &mut Criterion) {
    let registry = ThreadRegistry::new();
    let me = registry.shared(registry.register().expect("a free slot"));
    let owner = registry.shared(registry.register().expect("a free slot"));
    let cm = Polka::new();
    owner.set_priority(1_000_000);
    let mut group = c.benchmark_group("cm");
    group.bench_function(BenchmarkId::from_parameter("polka_first_wait"), |b| {
        b.iter(|| {
            cm.on_start(me, false);
            black_box(cm.resolve(me, owner))
        });
    });
    group.finish();
}

/// `workload/visited_set`: the "reached already?" bookkeeping of one
/// composite-part traversal at the repo benchmark's geometry — 32 parts,
/// the root and 96 edges asked about, then a clear — for the stamped
/// [`VisitedSet`] the STMBench7 traversal uses and for the
/// `FastHashMap<Addr, ()>` it used before (`hash_map`, kept here only).
fn workload_visited_set(c: &mut Criterion) {
    const PARTS: usize = 32;
    let part = |index: usize| Addr::new(4096 + 10 * index);
    let mut rng = FastRng::new(32);
    // The root, then every part's connections: its ring successor and two
    // random parts of the composite.
    let asked: Vec<Addr> = std::iter::once(part(0))
        .chain((0..PARTS).flat_map(|index| {
            let mut random = || part(rng.next_below(PARTS as u64) as usize);
            [part((index + 1) % PARTS), random(), random()]
        }))
        .collect();

    let mut group = c.benchmark_group("workload/visited_set");
    let mut set = VisitedSet::for_members(PARTS);
    group.bench_function(BenchmarkId::from_parameter("stamped"), |b| {
        b.iter(|| {
            let fresh = asked.iter().filter(|&&addr| set.insert(addr)).count();
            set.clear();
            black_box(fresh)
        });
    });
    let mut map = fast_map_with_capacity::<Addr, ()>(PARTS);
    group.bench_function(BenchmarkId::from_parameter("hash_map"), |b| {
        b.iter(|| {
            let fresh = asked
                .iter()
                .filter(|&&addr| map.insert(addr, ()).is_none())
                .count();
            map.clear();
            black_box(fresh)
        });
    });
    group.finish();
}

criterion_group!(
    stm_primitives,
    primitives,
    primitives_sharded,
    large_sets,
    hot_path,
    write_set,
    heap_alloc_free,
    cm_polka_first_wait,
    workload_visited_set
);
criterion_main!(stm_primitives);
