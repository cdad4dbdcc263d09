//! `TracedTm<A>`: a `TmAlgorithm` that delegates every call to `A` and
//! records what crossed the boundary — a count on every call, and a span
//! (name, start, end, parent operation, thread) around each call of the
//! operations the trial loop marks as sampled.
//!
//! The trial loop and the wrapper talk through one thread-local word: the
//! loop says whether the calls that follow are outside the measurement
//! (`OFF`: set-up, warm-up, the final check), counted only (`COUNT`), or
//! children of the sampled operation whose index it stores.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use stm_core::clock::{ThreadRegistry, ThreadSlot};
use stm_core::cm::ContentionManager;
use stm_core::error::TxResult;
use stm_core::heap::TmHeap;
use stm_core::tm::{DescriptorCore, TmAlgorithm, TxDescriptor};
use stm_core::word::{Addr, Word};

pub const OFF: u32 = u32::MAX;
pub const COUNT: u32 = u32::MAX - 1;

thread_local! {
    static MODE: Cell<u32> = const { Cell::new(OFF) };
}

/// Tells the wrapper how to treat this thread's next calls: [`OFF`],
/// [`COUNT`], or the index of the sampled operation they belong to.
pub fn set_mode(mode: u32) {
    MODE.with(|m| m.set(mode));
}

pub const KINDS: [&str; 5] = ["begin", "read", "write", "commit", "rollback"];
const BEGIN: usize = 0;
const READ: usize = 1;
const WRITE: usize = 2;
const COMMIT: usize = 3;
const ROLLBACK: usize = 4;

/// The trace file gets each thread's last `SPAN_RING` call spans; the
/// per-kind sums cover every sampled call. A ring, so that every span costs
/// the same to record however long the trial is.
const SPAN_RING: usize = 4096;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: u8,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct KindTotals {
    /// Calls seen while measuring.
    pub calls: u64,
    /// Calls that were timed (children of sampled operations).
    pub timed: u64,
    /// Summed duration of the timed calls.
    pub ns: u64,
}

/// What one thread's descriptor saw.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    pub thread: usize,
    pub kinds: [KindTotals; 5],
    /// The last [`SPAN_RING`] spans, oldest first once [`ThreadTrace::spans`]
    /// has put them in order.
    ring: Vec<Span>,
    recorded: usize,
}

impl ThreadTrace {
    fn new(thread: usize) -> ThreadTrace {
        ThreadTrace {
            thread,
            ring: Vec::with_capacity(SPAN_RING),
            ..ThreadTrace::default()
        }
    }

    /// Counts one call of `kind`; in a sampled operation, also times it.
    #[inline]
    fn record<R>(&mut self, epoch: Instant, kind: usize, f: impl FnOnce() -> R) -> R {
        let mode = MODE.with(Cell::get);
        if mode == OFF {
            return f();
        }
        self.kinds[kind].calls += 1;
        if mode == COUNT {
            return f();
        }
        let start = epoch.elapsed();
        let out = f();
        let end = epoch.elapsed();
        let totals = &mut self.kinds[kind];
        totals.timed += 1;
        totals.ns += (end - start).as_nanos() as u64;
        let span = Span {
            kind: kind as u8,
            parent: mode,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        };
        if self.ring.len() < SPAN_RING {
            self.ring.push(span);
        } else {
            self.ring[self.recorded % SPAN_RING] = span;
        }
        self.recorded += 1;
        out
    }

    /// The kept spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        let split = if self.ring.len() < SPAN_RING {
            0
        } else {
            self.recorded % SPAN_RING
        };
        self.ring[split..].iter().chain(&self.ring[..split])
    }
}

pub type Sink = Arc<Mutex<Vec<ThreadTrace>>>;

pub struct TracedTm<A> {
    inner: A,
    epoch: Instant,
    sink: Sink,
}

impl<A> TracedTm<A> {
    /// Wraps `inner`; every descriptor hands its trace to `sink` when it is
    /// dropped, with times counted from `epoch`.
    pub fn new(inner: A, epoch: Instant, sink: Sink) -> Self {
        TracedTm { inner, epoch, sink }
    }
}

pub struct TracedDescriptor<D> {
    inner: D,
    trace: ThreadTrace,
    sink: Sink,
}

impl<D> Drop for TracedDescriptor<D> {
    fn drop(&mut self) {
        // A poisoned sink means another thread already panicked; its panic
        // is the one to report, so the trace is simply dropped.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(std::mem::take(&mut self.trace));
        }
    }
}

impl<D: TxDescriptor> TxDescriptor for TracedDescriptor<D> {
    fn core(&self) -> &DescriptorCore {
        self.inner.core()
    }

    fn core_mut(&mut self) -> &mut DescriptorCore {
        self.inner.core_mut()
    }

    fn is_read_only(&self) -> bool {
        self.inner.is_read_only()
    }
}

impl<A: TmAlgorithm> TracedTm<A> {
    #[inline]
    fn call<R>(
        &self,
        desc: &mut TracedDescriptor<A::Descriptor>,
        kind: usize,
        f: impl FnOnce(&A, &mut A::Descriptor) -> R,
    ) -> R {
        let TracedDescriptor { inner, trace, .. } = desc;
        trace.record(self.epoch, kind, || f(&self.inner, inner))
    }
}

impl<A: TmAlgorithm> TmAlgorithm for TracedTm<A> {
    type Descriptor = TracedDescriptor<A::Descriptor>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn heap(&self) -> &TmHeap {
        self.inner.heap()
    }

    fn registry(&self) -> &ThreadRegistry {
        self.inner.registry()
    }

    fn contention_manager(&self) -> &dyn ContentionManager {
        self.inner.contention_manager()
    }

    fn create_descriptor(&self, slot: ThreadSlot) -> Self::Descriptor {
        TracedDescriptor {
            inner: self.inner.create_descriptor(slot),
            trace: ThreadTrace::new(slot.index()),
            sink: Arc::clone(&self.sink),
        }
    }

    fn begin(&self, desc: &mut Self::Descriptor, is_restart: bool) {
        self.call(desc, BEGIN, |a, d| a.begin(d, is_restart));
    }

    fn read(&self, desc: &mut Self::Descriptor, addr: Addr) -> TxResult<Word> {
        self.call(desc, READ, |a, d| a.read(d, addr))
    }

    fn write(&self, desc: &mut Self::Descriptor, addr: Addr, value: Word) -> TxResult<()> {
        self.call(desc, WRITE, |a, d| a.write(d, addr, value))
    }

    fn commit(&self, desc: &mut Self::Descriptor) -> TxResult<()> {
        self.call(desc, COMMIT, |a, d| a.commit(d))
    }

    fn rollback(&self, desc: &mut Self::Descriptor) {
        self.call(desc, ROLLBACK, |a, d| a.rollback(d));
    }
}

/// What recording a span costs, measured by recording spans around
/// nothing: `(inside, outside)` nanoseconds, the part of the cost that lands
/// in the span's own duration and the part that lands in its parent's.
pub fn span_overhead_ns() -> (f64, f64) {
    const CALLS: u32 = 50_000;
    let epoch = Instant::now();
    let mut trace = ThreadTrace::new(0);
    set_mode(0);
    let started = epoch.elapsed();
    for i in 0..CALLS {
        trace.record(epoch, READ, || std::hint::black_box(i));
    }
    let total = (epoch.elapsed() - started).as_nanos() as f64;
    set_mode(OFF);
    let inside = trace.kinds[READ].ns as f64;
    (inside / CALLS as f64, (total - inside) / CALLS as f64)
}
