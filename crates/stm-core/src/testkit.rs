//! Test support: contention-management rigs and the lock-free reference.
//!
//! [`RecordingCm`] wraps any [`ContentionManager`], records every `resolve`
//! outcome and every lifecycle hook it receives, and can run a
//! caller-supplied hook *before* returning a decision to the STM. The deterministic conflict rig
//! (`tests/contention_telemetry.rs` in the workspace root) combines it with
//! a "stuck lock" staged directly in an STM's lock table: the hook releases
//! the stuck lock the moment the manager decides `AbortOther`, so the
//! attacker's acquisition loop observes exactly one resolution per decision
//! and the whole schedule is single-threaded and deterministic — no timing,
//! no flakiness.
//!
//! [`validation_counts`] drives the single-threaded schedules that make an
//! STM validate at commit or extend its snapshot, for the unit tests that
//! pin `TxStats.validations` / `TxStats.extensions` in each STM crate.
//!
//! [`SequentialTm`] is what the `naive` global-lock subject is graded
//! against, the way every STM is graded against `naive`: the same driver
//! and the same undo log with no lock at all, so the ratio of the two is
//! what the lock costs and a `naive` that grows bookkeeping shows.
//!
//! This module is plain `pub` (not `cfg(test)`) because the rigs live in
//! integration tests of other crates; it is not part of the performance
//! path.

use std::sync::{Arc, Mutex};

use crate::clock::{ThreadRegistry, ThreadSlot, TxShared};
use crate::cm::{CmHandle, ContentionManager, Resolution, Timid};
use crate::config::HeapConfig;
use crate::error::TxResult;
use crate::heap::TmHeap;
use crate::sync::{AtomicBool, Ordering};
use crate::tm::{DescriptorCore, ThreadContext, TmAlgorithm, TxDescriptor};
use crate::word::{Addr, Word};

/// Type of the hook invoked after every delegated `resolve`, with the inner
/// manager's decision, before that decision reaches the STM.
pub type ResolveHook = Box<dyn Fn(Resolution) + Send + Sync>;

/// One lifecycle hook a [`RecordingCm`] received, with its argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HookCall {
    /// `on_start(_, is_restart)`.
    Start(bool),
    /// `on_read(_, reads_so_far)`.
    Read(usize),
    /// `on_write(_, writes_so_far)`.
    Write(usize),
    /// `on_commit(_)`.
    Commit,
    /// `on_rollback(_)`.
    Rollback,
}

/// A contention manager decorator that logs every resolution and hook. It
/// keeps the trait's default `read_hook() == ReadHook::Call`, so the STMs
/// deliver `on_read` to it whatever the wrapped manager would have
/// answered.
pub struct RecordingCm {
    inner: CmHandle,
    log: Mutex<Vec<Resolution>>,
    calls: Mutex<Vec<HookCall>>,
    hook: Mutex<Option<ResolveHook>>,
}

impl RecordingCm {
    /// Wraps `inner`, recording its resolutions.
    pub fn new(inner: CmHandle) -> Self {
        RecordingCm {
            inner,
            log: Mutex::new(Vec::new()),
            calls: Mutex::new(Vec::new()),
            hook: Mutex::new(None),
        }
    }

    /// Installs a hook that runs after every delegated `resolve` (with its
    /// decision) before the decision is returned to the STM. Rigs use this
    /// to release a staged stuck lock on `AbortOther`, making the conflict
    /// schedule fully deterministic.
    pub fn set_resolve_hook(&self, hook: ResolveHook) {
        *self.hook.lock().unwrap() = Some(hook);
    }

    /// Removes the installed hook (dropping whatever it captured).
    pub fn clear_resolve_hook(&self) {
        *self.hook.lock().unwrap() = None;
    }

    /// The recorded resolution sequence so far.
    pub fn resolutions(&self) -> Vec<Resolution> {
        self.log.lock().unwrap().clone()
    }

    /// The lifecycle hooks received so far, in order.
    pub fn hook_calls(&self) -> Vec<HookCall> {
        self.calls.lock().unwrap().clone()
    }

    /// Clears the recorded resolutions and hook calls.
    pub fn clear(&self) {
        self.log.lock().unwrap().clear();
        self.calls.lock().unwrap().clear();
    }

    fn record(&self, call: HookCall) {
        self.calls.lock().unwrap().push(call);
    }
}

impl std::fmt::Debug for RecordingCm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingCm")
            .field("inner", &self.inner.name())
            .field("recorded", &self.log.lock().unwrap().len())
            .finish()
    }
}

impl ContentionManager for RecordingCm {
    fn on_start(&self, me: &TxShared, is_restart: bool) {
        self.record(HookCall::Start(is_restart));
        self.inner.on_start(me, is_restart);
    }

    fn on_write(&self, me: &TxShared, writes_so_far: usize) {
        self.record(HookCall::Write(writes_so_far));
        self.inner.on_write(me, writes_so_far);
    }

    fn on_read(&self, me: &TxShared, reads_so_far: usize) {
        self.record(HookCall::Read(reads_so_far));
        self.inner.on_read(me, reads_so_far);
    }

    fn resolve(&self, me: &TxShared, owner: &TxShared) -> Resolution {
        let resolution = self.inner.resolve(me, owner);
        self.log.lock().unwrap().push(resolution);
        if let Some(hook) = &*self.hook.lock().unwrap() {
            hook(resolution);
        }
        resolution
    }

    fn on_rollback(&self, me: &TxShared) {
        self.record(HookCall::Rollback);
        self.inner.on_rollback(me);
    }

    fn on_commit(&self, me: &TxShared) {
        self.record(HookCall::Commit);
        self.inner.on_commit(me);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Transaction descriptor of [`SequentialTm`].
#[derive(Debug)]
pub struct SequentialDescriptor {
    core: DescriptorCore,
    /// `(address, value before the store)` of every store of the attempt.
    undo: Vec<(Addr, Word)>,
}

impl TxDescriptor for SequentialDescriptor {
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

/// No transactional memory at all: loads and stores go straight to the
/// heap, an undo `Vec` lets `retry` and a failed body take the stores back,
/// and nothing keeps two transactions apart. For one thread at a time only
/// — `begin` panics when another transaction of the instance is running.
#[derive(Debug)]
pub struct SequentialTm {
    heap: TmHeap,
    registry: ThreadRegistry,
    cm: Timid,
    running: AtomicBool,
}

impl SequentialTm {
    /// Creates an instance with its own heap.
    pub fn new(heap_config: HeapConfig) -> Self {
        SequentialTm {
            heap: TmHeap::new(heap_config),
            registry: ThreadRegistry::new(),
            cm: Timid::new(),
            running: AtomicBool::new(false),
        }
    }

    #[inline]
    fn finish(&self) {
        // sync: Release — the next transaction's begin (Acquire) sees this
        // one's stores; sequential use from several threads in turn, as a
        // workload driver's set-up / worker / checker, stays sound.
        self.running.store(false, Ordering::Release);
    }
}

impl TmAlgorithm for SequentialTm {
    type Descriptor = SequentialDescriptor;

    fn name(&self) -> &'static str {
        "sequential"
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

    fn create_descriptor(&self, slot: ThreadSlot) -> SequentialDescriptor {
        SequentialDescriptor {
            core: DescriptorCore::new(slot, Arc::clone(self.registry.shared(slot))),
            undo: Vec::with_capacity(32),
        }
    }

    #[inline]
    fn begin(&self, desc: &mut SequentialDescriptor, _is_restart: bool) {
        desc.core.reset_attempt();
        // A load and a store, not an RMW: this detects misuse, it is not a
        // lock, and an RMW is the cost the reference exists to leave out.
        // sync: Acquire pairs with finish()'s Release.
        let overlapping = self.running.load(Ordering::Acquire);
        assert!(!overlapping, "SequentialTm runs one transaction at a time");
        // sync: Relaxed — only read by the misuse check above.
        self.running.store(true, Ordering::Relaxed);
    }

    #[inline]
    fn read(&self, desc: &mut SequentialDescriptor, addr: Addr) -> TxResult<Word> {
        desc.core.attempt_reads += 1;
        Ok(self.heap.load(addr))
    }

    #[inline]
    fn write(&self, desc: &mut SequentialDescriptor, addr: Addr, value: Word) -> TxResult<()> {
        desc.core.attempt_writes += 1;
        desc.undo.push((addr, self.heap.load(addr)));
        self.heap.store(addr, value);
        Ok(())
    }

    #[inline]
    fn commit(&self, desc: &mut SequentialDescriptor) -> TxResult<()> {
        desc.undo.clear();
        self.finish();
        Ok(())
    }

    fn rollback(&self, desc: &mut SequentialDescriptor) {
        while let Some((addr, old)) = desc.undo.pop() {
            self.heap.store(addr, old);
        }
        self.finish();
    }
}

/// `(TxStats.validations, TxStats.extensions)` of one committed transaction
/// per schedule of [`validation_counts`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValidationCounts {
    /// An update transaction with nobody else running.
    pub quiet: (u64, u64),
    /// A read-only transaction that reads a word committed after it began.
    pub fresh_read: (u64, u64),
    /// An update transaction during which an unrelated update committed.
    pub busy_commit: (u64, u64),
}

/// Runs the three schedules of [`ValidationCounts`] on `stm`, deterministic
/// and on one thread: the interfering commit runs on a second context from
/// inside the first attempt of the measured transaction's body.
pub fn validation_counts<A: TmAlgorithm>(stm: &Arc<A>) -> ValidationCounts {
    let block = stm.heap().alloc_zeroed(16).expect("heap holds 16 words");
    // Four words apart: a stripe each at any grain the tests use.
    let (a, b, fresh, unrelated) = (block, block.offset(4), block.offset(8), block.offset(12));
    let mut ctx = ThreadContext::register(Arc::clone(stm));
    let mut other = ThreadContext::register(Arc::clone(stm));
    let mut counts = |interfere_on: Option<crate::word::Addr>, update: bool| {
        let mut first_attempt = true;
        ctx.atomically(|tx| {
            tx.read(a)?;
            if let (true, Some(word)) = (first_attempt, interfere_on) {
                other
                    .atomically(|tx2| tx2.write(word, 1))
                    .expect("the interfering update commits");
            }
            first_attempt = false;
            tx.read(fresh)?;
            if update {
                tx.write(b, 2)?;
            }
            Ok(())
        })
        .expect("the measured transaction commits");
        let stats = ctx.take_stats();
        (stats.validations, stats.extensions)
    };
    ValidationCounts {
        quiet: counts(None, true),
        fresh_read: counts(Some(fresh), false),
        busy_commit: counts(Some(unrelated), true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Abort;
    use crate::sync::AtomicUsize;

    #[test]
    fn sequential_tm_stores_in_place_and_takes_a_retried_attempt_back() {
        let stm = Arc::new(SequentialTm::new(HeapConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
        ctx.atomically(|tx| tx.write(addr, 5)).unwrap();
        let _ = ctx.atomically(|tx| {
            tx.write(addr, 6)?;
            tx.write(addr, 7)?;
            assert_eq!(tx.read(addr)?, 7);
            tx.retry::<()>()
        });
        assert_eq!(stm.heap().load(addr), 5);
        assert_eq!(ctx.read_word(addr).unwrap(), 5);
    }

    #[test]
    #[should_panic(expected = "one transaction at a time")]
    fn sequential_tm_refuses_overlapping_transactions() {
        let stm = Arc::new(SequentialTm::new(HeapConfig::small()));
        let mut outer = ThreadContext::register(Arc::clone(&stm));
        let mut inner = ThreadContext::register(stm);
        let _ = outer.atomically(|_| inner.atomically(|_| Ok(())).map_err(|_| Abort::EXPLICIT));
    }

    #[test]
    fn records_delegated_resolutions_and_runs_the_hook() {
        let cm = RecordingCm::new(Arc::new(Timid::new()));
        let hook_calls = Arc::new(AtomicUsize::new(0));
        let calls = Arc::clone(&hook_calls);
        cm.set_resolve_hook(Box::new(move |resolution| {
            assert_eq!(resolution, Resolution::AbortSelf);
            // sync: SeqCst — test counter, strongest ordering for clarity.
            calls.fetch_add(1, Ordering::SeqCst);
        }));
        let registry = ThreadRegistry::new();
        let a = registry.register().unwrap();
        let b = registry.register().unwrap();
        assert_eq!(
            cm.resolve(registry.shared(a), registry.shared(b)),
            Resolution::AbortSelf
        );
        assert_eq!(cm.resolutions(), vec![Resolution::AbortSelf]);
        // sync: SeqCst — test counter.
        assert_eq!(hook_calls.load(Ordering::SeqCst), 1);
        assert_eq!(cm.name(), "timid");
        cm.clear_resolve_hook();
        cm.clear();
        cm.resolve(registry.shared(a), registry.shared(b));
        assert_eq!(cm.resolutions().len(), 1);
        // sync: SeqCst — test counter.
        assert_eq!(hook_calls.load(Ordering::SeqCst), 1, "hook was cleared");
    }
}
