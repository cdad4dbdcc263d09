//! Anatomy kernels: tight loops over one layer's public functions, so each
//! layer of a transaction has a price of its own. Single-threaded unless
//! the name ends in `_2t`, where two threads share one instance.
//!
//! Every kernel body does a batch of work and says how many units the batch
//! holds; the clock is read once per batch, a sample is the mean over at
//! least `dur`, and the reported value is the median of [`REPS`] samples.

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use stm_core::backoff::FastRng;
use stm_core::clock::{ThreadRegistry, TxClock};
use stm_core::cm::{ContentionManager, Greedy, Polka, Serializer, Timid, TwoPhase};
use stm_core::config::{ClockMode, LockTableConfig, TableLayout};
use stm_core::heap::TmHeap;
use stm_core::locktable::LockTable;
use stm_core::logs::{ReadLog, StripeSet, WriteLog};
use stm_core::sync::{AtomicU64, Ordering};
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_core::word::Addr;

use crate::spec::{stm_config, with_subject, Job, STMS, SUBJECTS};

const REPS: usize = 5;
/// Words per large transaction of the `*1k_ns` kernels.
const WORDS: usize = 1024;
/// Entries per log kernel batch: a write set of the size update
/// transactions of the workloads actually build.
const LOG_BATCH: usize = 64;
/// Random addresses per stream: 8 MB of `Addr`, larger than the 2 MB L2.
const STREAM: usize = 1 << 20;
const NODE_WORDS: usize = 6;

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// One sample: nanoseconds per unit of `batch`, which does `units` units
/// per call, over at least `dur`.
fn sample_ns(dur: Duration, units: usize, mut batch: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        batch();
        calls += 1;
        let elapsed = start.elapsed();
        if elapsed >= dur {
            return elapsed.as_nanos() as f64 / (calls as f64 * units as f64);
        }
    }
}

/// Nanoseconds per unit of `batch`: the median of [`REPS`] samples.
fn per_unit_ns(dur: Duration, units: usize, mut batch: impl FnMut()) -> f64 {
    let mut samples = [0.0; REPS];
    for sample in &mut samples {
        *sample = sample_ns(dur, units, &mut batch);
    }
    median(&mut samples)
}

/// As [`per_unit_ns`] with two threads calling `batch` on shared state; a
/// sample is the mean of the two threads' own figures.
fn per_unit_ns_2t(dur: Duration, units: usize, batch: impl Fn() + Sync) -> f64 {
    let mut samples = [0.0; REPS];
    for sample in &mut samples {
        let barrier = Barrier::new(2);
        let figures: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        sample_ns(dur, units, &batch)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("kernel thread panicked"))
                .collect()
        });
        *sample = figures.iter().sum::<f64>() / figures.len() as f64;
    }
    median(&mut samples)
}

/// The kernels that go through `ThreadContext`/`Tx`, for one subject.
struct TxKernels<'a> {
    subject: &'a str,
    dur: Duration,
}

impl Job for TxKernels<'_> {
    type Out = Vec<(String, f64)>;

    fn run<A: TmAlgorithm>(self, stm: A) -> Self::Out {
        let (s, dur) = (self.subject, self.dur);
        let stm = Arc::new(stm);
        let base = stm
            .heap()
            .alloc_zeroed(WORDS)
            .expect("heap holds the kernel's words");
        let mut ctx = ThreadContext::register(stm);
        let mut out = vec![(
            format!("tm.empty_tx_ns.{s}"),
            per_unit_ns(dur, 256, || {
                for _ in 0..256 {
                    ctx.atomically(|_tx| Ok(())).expect("empty transaction");
                }
            }),
        )];
        if !STMS.contains(&s) {
            return out;
        }
        out.push((
            format!("{s}.read1k_ns"),
            per_unit_ns(dur, WORDS, || {
                let sum = ctx.atomically(|tx| {
                    let mut sum = 0u64;
                    for i in 0..WORDS {
                        sum = sum.wrapping_add(tx.read(base.offset(i))?);
                    }
                    Ok(sum)
                });
                black_box(sum.expect("read transaction"));
            }),
        ));
        out.push((
            format!("{s}.write1k_ns"),
            per_unit_ns(dur, WORDS, || {
                ctx.atomically(|tx| {
                    for i in 0..WORDS {
                        tx.write(base.offset(i), i as u64)?;
                    }
                    Ok(())
                })
                .expect("write transaction");
            }),
        ));
        // One unit is a write followed by a read of the same word.
        out.push((
            format!("{s}.raw1k_ns"),
            per_unit_ns(dur, WORDS, || {
                let sum = ctx.atomically(|tx| {
                    let mut sum = 0u64;
                    for i in 0..WORDS {
                        tx.write(base.offset(i), i as u64)?;
                        sum = sum.wrapping_add(tx.read(base.offset(i))?);
                    }
                    Ok(sum)
                });
                black_box(sum.expect("read-after-write transaction"));
            }),
        ));
        out
    }
}

fn address_stream(seed: u64, heap_words: usize) -> Vec<Addr> {
    let mut rng = FastRng::new(seed);
    (0..STREAM)
        .map(|_| Addr::new(1 + rng.next_below(heap_words as u64 - 1) as usize))
        .collect()
}

fn lock_table_kernels(dur: Duration, stream: &[Addr], out: &mut Vec<(String, f64)>) {
    for layout in TableLayout::ALL {
        let table: LockTable<AtomicU64> = LockTable::new(LockTableConfig {
            layout,
            ..stm_config().lock_table
        });
        let ns = per_unit_ns(dur, stream.len(), || {
            let mut sum = 0u64;
            for &addr in stream {
                let entry = table.entry_at(table.index_of(addr));
                // sync: Relaxed — the kernel prices the index and the entry
                // load only; nothing is published through these words.
                sum = sum.wrapping_add(entry.load(Ordering::Relaxed));
            }
            black_box(sum);
        });
        out.push((format!("locktable.entry_ns.{}", layout.label()), ns));
    }
}

fn clock_kernels(dur: Duration, out: &mut Vec<(String, f64)>) {
    const BATCH: usize = 4096;
    for mode in ClockMode::ALL {
        let clock = TxClock::new(mode);
        let read = per_unit_ns(dur, BATCH, || {
            for _ in 0..BATCH {
                black_box(clock.read());
            }
        });
        out.push((format!("clock.read_ns.{}", mode.label()), read));
        let stamp = || {
            for _ in 0..BATCH {
                black_box(clock.commit_stamp(clock.read()));
            }
        };
        out.push((
            format!("clock.stamp_ns.{}", mode.label()),
            per_unit_ns(dur, BATCH, stamp),
        ));
        if mode == ClockMode::Strict {
            out.push((
                "clock.stamp_ns_2t.strict".into(),
                per_unit_ns_2t(dur, BATCH, stamp),
            ));
        }
    }
}

fn log_kernels(dur: Duration, out: &mut Vec<(String, f64)>) {
    let mut reads = ReadLog::new();
    out.push((
        "logs.readlog_push_ns".into(),
        per_unit_ns(dur, WORDS, || {
            reads.clear();
            for i in 0..WORDS {
                reads.push(i, i as u64);
            }
            black_box(reads.len());
        }),
    ));
    // Addresses a stripe apart, as a transaction's distinct writes are.
    let addr = |i: usize| Addr::new(64 + 2 * i);
    let mut writes = WriteLog::new();
    out.push((
        "logs.writelog_record_ns".into(),
        per_unit_ns(dur, LOG_BATCH, || {
            writes.clear();
            for i in 0..LOG_BATCH {
                writes.record(addr(i), i as u64, i, 0);
            }
            black_box(writes.len());
        }),
    ));
    out.push((
        "logs.writelog_lookup_hit_ns".into(),
        per_unit_ns(dur, LOG_BATCH, || {
            for i in 0..LOG_BATCH {
                black_box(writes.lookup(addr(i)));
            }
        }),
    ));
    out.push((
        "logs.writelog_lookup_miss_ns".into(),
        per_unit_ns(dur, LOG_BATCH, || {
            for i in 0..LOG_BATCH {
                black_box(writes.lookup(addr(LOG_BATCH + i)));
            }
        }),
    ));
    let mut stripes = StripeSet::new();
    out.push((
        "logs.stripeset_insert_ns".into(),
        per_unit_ns(dur, LOG_BATCH, || {
            stripes.clear();
            for i in 0..LOG_BATCH {
                stripes.insert(i, 0);
            }
            black_box(stripes.len());
        }),
    ));
}

/// One unit is a transaction's worth of hooks through `&dyn
/// ContentionManager`: start, eight reads, two writes, commit.
fn cm_kernels(dur: Duration, out: &mut Vec<(String, f64)>) {
    let managers: [(&str, Box<dyn ContentionManager>); 5] = [
        ("timid", Box::new(Timid::new())),
        ("greedy", Box::new(Greedy::new())),
        ("serializer", Box::new(Serializer::new())),
        ("polka", Box::new(Polka::new())),
        ("two-phase", Box::new(TwoPhase::new())),
    ];
    let registry = ThreadRegistry::new();
    let slot = registry.register().expect("first slot of a fresh registry");
    let me = registry.shared(slot);
    for (name, manager) in &managers {
        let cm: &dyn ContentionManager = black_box(manager.as_ref());
        let ns = per_unit_ns(dur, 256, || {
            for _ in 0..256 {
                cm.on_start(me, false);
                for read in 1..=8 {
                    cm.on_read(me, read);
                }
                for write in 1..=2 {
                    cm.on_write(me, write);
                }
                cm.on_commit(me);
            }
        });
        out.push((format!("cm.hooks_ns.{name}"), ns));
    }
}

fn heap_kernels(dur: Duration, stream: &[Addr], out: &mut Vec<(String, f64)>) {
    let heap = TmHeap::new(stm_config().heap);
    out.push((
        "heap.load_ns".into(),
        per_unit_ns(dur, stream.len(), || {
            let mut sum = 0u64;
            for &addr in stream {
                sum = sum.wrapping_add(heap.load(addr));
            }
            black_box(sum);
        }),
    ));
    out.push((
        "heap.store_ns".into(),
        per_unit_ns(dur, stream.len(), || {
            for &addr in stream {
                heap.store(addr, addr.to_word());
            }
        }),
    ));
    // A red-black tree node, the block the rbtree workloads allocate.
    let alloc_free = || {
        for _ in 0..256 {
            let block = heap.alloc_zeroed(NODE_WORDS).expect("heap has room");
            heap.free(black_box(block), NODE_WORDS);
        }
    };
    out.push((
        "heap.alloc_free_ns".into(),
        per_unit_ns(dur, 256, alloc_free),
    ));
    out.push((
        "heap.alloc_free_ns_2t".into(),
        per_unit_ns_2t(dur, 256, alloc_free),
    ));
}

/// Runs every kernel for at least `dur` per sample; `(metric name, ns)`.
pub fn run(dur: Duration, seed: u64) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for subject in SUBJECTS {
        out.extend(with_subject(subject, TxKernels { subject, dur }).expect("known subject"));
    }
    let stream = address_stream(seed, stm_config().heap.words);
    lock_table_kernels(dur, &stream, &mut out);
    clock_kernels(dur, &mut out);
    log_kernels(dur, &mut out);
    cm_kernels(dur, &mut out);
    heap_kernels(dur, &stream, &mut out);
    out
}
