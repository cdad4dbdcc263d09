//! The log-free read-only mode (`ThreadContext::atomically_read_only`).
//!
//! A transaction its caller declares read-only runs its attempts log-free
//! where the STM grants it: reads keep no read log and make no refusal
//! check, and whatever such an attempt cannot do without a log — a read its
//! snapshot does not cover, a write, an allocation — ends it with an
//! `upgrade` abort, after which the transaction re-runs logged. These tests
//! pin what that looks like from outside on the four STMs and on `naive`,
//! which declines the mode: the counts the benchmark compares across
//! subjects, the upgrade rules, the refusal rule moved to `commit`, Polka's
//! priority, the managers and variants that decline, and the STMBench7
//! operations that declare themselves read-only.

use std::sync::{Arc, Mutex};

use stm_core::backoff::FastRng;
use stm_core::clock::{ThreadRegistry, ThreadSlot};
use stm_core::cm::{CmHandle, ContentionManager, Polka, Timid};
use stm_core::config::{HeapConfig, StmConfig};
use stm_core::error::{AbortReason, TxResult};
use stm_core::heap::TmHeap;
use stm_core::naive::NaiveGlobalLockTm;
use stm_core::stats::TxStats;
use stm_core::testkit::RecordingCm;
use stm_core::tm::{ThreadContext, TmAlgorithm, Tx};
use stm_core::word::{Addr, Word};
use stm_workloads::stmbench7::{Bench7Config, Bench7Data, Bench7Workload, WorkloadMix};
use stm_workloads::structures::RbTree;

use rstm::{Rstm, RstmVariant};
use swisstm::SwissTm;
use tinystm::TinyStm;
use tl2::Tl2;

fn config() -> StmConfig {
    StmConfig::small().with_heap(HeapConfig::with_words(1 << 20))
}

fn naive() -> Arc<NaiveGlobalLockTm> {
    Arc::new(NaiveGlobalLockTm::new(config().heap))
}

/// The four STMs built with `cm`.
fn swisstm(cm: CmHandle) -> Arc<SwissTm> {
    Arc::new(
        SwissTm::builder()
            .config(config())
            .contention_manager(cm)
            .build(),
    )
}

fn tl2(cm: CmHandle) -> Arc<Tl2> {
    Arc::new(
        Tl2::builder()
            .config(config())
            .contention_manager(cm)
            .build(),
    )
}

fn tinystm(cm: CmHandle) -> Arc<TinyStm> {
    Arc::new(
        TinyStm::builder()
            .config(config())
            .contention_manager(cm)
            .build(),
    )
}

fn rstm(cm: CmHandle, variant: RstmVariant) -> Arc<Rstm> {
    Arc::new(
        Rstm::builder()
            .config(config())
            .variant(variant)
            .contention_manager(cm)
            .build(),
    )
}

/// Four words, two stripes apart: `(a, b)`.
fn two_stripes<A: TmAlgorithm>(stm: &A) -> (Addr, Addr) {
    let block = stm.heap().alloc_zeroed(4).unwrap();
    (block, block.offset(2))
}

/// 500 seeded red-black-tree lookups, declared read-only or not; the
/// statistics of the lookups alone.
fn lookups<A: TmAlgorithm>(ctx: &mut ThreadContext<A>, tree: RbTree, read_only: bool) -> TxStats {
    let mut rng = FastRng::new(0x100c);
    ctx.take_stats();
    for _ in 0..500 {
        let key = rng.next_below(512);
        let body = |tx: &mut Tx<'_, A>| tree.contains(tx, key);
        if read_only {
            ctx.atomically_read_only(body).unwrap();
        } else {
            ctx.atomically(body).unwrap();
        }
    }
    ctx.take_stats()
}

/// On one thread the mode changes no count: no attempt aborts, and the
/// reads and read-only commits are the logged run's — what the
/// benchmark's equal-counts check across subjects relies on.
fn one_thread_counts_are_the_logged_ones<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let tree = RbTree::create(stm.heap()).unwrap();
    let mut ctx = ThreadContext::register(Arc::clone(&stm));
    let mut rng = FastRng::new(7);
    for _ in 0..256 {
        let key = rng.next_below(512);
        ctx.atomically(|tx| tree.insert(tx, key, key)).unwrap();
    }
    let logged = lookups(&mut ctx, tree, false);
    let log_free = lookups(&mut ctx, tree, true);
    assert_eq!(log_free.aborts, 0, "{name}: {log_free}");
    assert_eq!(log_free.reads, logged.reads, "{name}");
    assert_eq!(
        log_free.read_only_commits, logged.read_only_commits,
        "{name}"
    );
    assert_eq!((log_free.commits, log_free.writes), (500, 0), "{name}");
}

#[test]
fn one_thread_counts_are_the_logged_ones_on_every_subject() {
    one_thread_counts_are_the_logged_ones(Arc::new(SwissTm::with_config(config())));
    one_thread_counts_are_the_logged_ones(Arc::new(Tl2::with_config(config())));
    one_thread_counts_are_the_logged_ones(Arc::new(TinyStm::with_config(config())));
    one_thread_counts_are_the_logged_ones(Arc::new(Rstm::with_config(config())));
    one_thread_counts_are_the_logged_ones(naive());
}

/// A stripe committed after the attempt began upgrades it once, and the
/// logged re-run commits with the new value.
fn a_fresh_stripe_upgrades_once<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let (a, b) = two_stripes(&*stm);
    let mut ctx = ThreadContext::register(Arc::clone(&stm));
    let mut rival = ThreadContext::register(Arc::clone(&stm));
    let mut modes = Vec::new();
    let value = ctx
        .atomically_read_only(|tx| {
            modes.push(tx.is_log_free());
            tx.read(a)?;
            if modes.len() == 1 {
                rival.atomically(|tx2| tx2.write(b, 5)).unwrap();
            }
            tx.read(b)
        })
        .unwrap();
    assert_eq!(value, 5, "{name}");
    assert_eq!(modes, [true, false], "{name}: log-free, then logged");
    let stats = ctx.take_stats();
    assert_eq!(stats.aborts_for(AbortReason::Upgrade), 1, "{name}: {stats}");
    assert_eq!((stats.aborts, stats.commits), (1, 1), "{name}");
    assert_eq!(stats.reads, 4, "{name}: the upgrading read was performed");
}

#[test]
fn a_stripe_committed_after_begin_upgrades_once_on_every_stm() {
    a_fresh_stripe_upgrades_once(Arc::new(SwissTm::with_config(config())));
    a_fresh_stripe_upgrades_once(Arc::new(Tl2::with_config(config())));
    a_fresh_stripe_upgrades_once(Arc::new(TinyStm::with_config(config())));
    a_fresh_stripe_upgrades_once(Arc::new(Rstm::with_config(config())));
}

/// What a body declared read-only does that needs a log after all.
#[derive(Clone, Copy, Debug)]
enum Update {
    Write,
    Alloc,
    Free,
}

/// One read, then `update`: one upgrade and a logged commit on an STM that
/// granted the mode (`granted`), a plain commit on one that declined. The
/// write that upgrades was not performed and is not counted.
fn an_update_upgrades_once<A: TmAlgorithm>(stm: Arc<A>, update: Update, granted: bool) {
    let name = format!("{} / {update:?}", stm.name());
    let (a, b) = two_stripes(&*stm);
    let freed = stm.heap().alloc_zeroed(2).unwrap();
    let mut ctx = ThreadContext::register(Arc::clone(&stm));
    let mut modes = Vec::new();
    ctx.atomically_read_only(|tx| {
        modes.push(tx.is_log_free());
        tx.read(a)?;
        match update {
            Update::Write => tx.write(b, 7),
            Update::Alloc => tx.alloc(2).map(drop),
            Update::Free => {
                tx.free(freed, 2);
                Ok(())
            }
        }
    })
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    let stats = ctx.take_stats();
    let upgrades = u64::from(granted);
    let expected_modes: &[bool] = if granted { &[true, false] } else { &[false] };
    assert_eq!(modes, expected_modes, "{name}");
    assert_eq!(
        stats.aborts_for(AbortReason::Upgrade),
        upgrades,
        "{name}: {stats}"
    );
    assert_eq!((stats.aborts, stats.commits), (upgrades, 1), "{name}");
    // The logged attempt's accesses, plus the log-free attempt's one read.
    let (reads, writes) = match update {
        Update::Write => (1, 1),
        Update::Alloc => (3, 0),
        Update::Free => (1, 2),
    };
    assert_eq!(
        (stats.reads, stats.writes),
        (reads + upgrades, writes),
        "{name}"
    );
    match update {
        Update::Write => assert_eq!(stm.heap().load(b), 7, "{name}"),
        Update::Alloc => assert_eq!(stats.read_only_commits, 1, "{name}"),
        Update::Free => assert_eq!(stats.read_only_commits, 0, "{name}"),
    }
}

#[test]
fn a_write_alloc_or_free_upgrades_once_on_every_stm() {
    for update in [Update::Write, Update::Alloc, Update::Free] {
        an_update_upgrades_once(Arc::new(SwissTm::with_config(config())), update, true);
        an_update_upgrades_once(Arc::new(Tl2::with_config(config())), update, true);
        an_update_upgrades_once(Arc::new(TinyStm::with_config(config())), update, true);
        an_update_upgrades_once(Arc::new(Rstm::with_config(config())), update, true);
        an_update_upgrades_once(naive(), update, false);
    }
}

/// A remote abort request reaches a log-free attempt at its commit: the
/// reads before it keep answering, the commit is refused with
/// `remote-abort`, and the retry — log-free again — commits.
fn a_remote_request_is_honoured_at_commit<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let (a, b) = two_stripes(&*stm);
    stm.heap().store(b, 9);
    let mut ctx = ThreadContext::register(Arc::clone(&stm));
    let me = Arc::clone(stm.registry().shared(ctx.slot()));
    let mut modes = Vec::new();
    let mut answers = Vec::new();
    let value = ctx
        .atomically_read_only(|tx| {
            modes.push(tx.is_log_free());
            tx.read(a)?;
            if modes.len() == 1 {
                assert!(me.request_abort(), "{name}: the request is fresh");
            }
            let answer = tx.read(b);
            answers.push(answer);
            answer
        })
        .unwrap();
    assert_eq!(value, 9, "{name}");
    assert_eq!(modes, [true, true], "{name}");
    assert_eq!(answers, [Ok(9), Ok(9)], "{name}: reads keep answering");
    let stats = ctx.take_stats();
    assert_eq!(
        stats.aborts_for(AbortReason::RemoteAbort),
        1,
        "{name}: {stats}"
    );
    assert_eq!(
        (stats.aborts, stats.commits, stats.reads),
        (1, 1, 4),
        "{name}"
    );
}

#[test]
fn a_remote_request_is_honoured_at_commit_on_every_stm() {
    a_remote_request_is_honoured_at_commit(Arc::new(SwissTm::with_config(config())));
    a_remote_request_is_honoured_at_commit(Arc::new(Tl2::with_config(config())));
    a_remote_request_is_honoured_at_commit(Arc::new(TinyStm::with_config(config())));
    a_remote_request_is_honoured_at_commit(Arc::new(Rstm::with_config(config())));
}

/// Under Polka the log-free reads are counted when the attempt aborts: the
/// logged re-run starts with one priority point per read of the upgraded
/// attempt.
fn polka_is_paid_the_upgraded_reads<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let block = stm.heap().alloc_zeroed(8).unwrap();
    let mut ctx = ThreadContext::register(Arc::clone(&stm));
    let me = Arc::clone(stm.registry().shared(ctx.slot()));
    let mut priorities = Vec::new();
    ctx.atomically_read_only(|tx| {
        priorities.push(me.priority());
        for word in 0..3 {
            tx.read(block.offset(2 * word))?;
        }
        tx.write(block.offset(6), 1)
    })
    .unwrap();
    assert_eq!(priorities, [0, 3], "{name}");
    assert_eq!(me.priority(), 0, "{name}: a commit resets it");
}

#[test]
fn polka_priority_after_an_upgrade_is_the_attempts_reads_on_every_stm() {
    let polka = || Arc::new(Polka::new()) as CmHandle;
    polka_is_paid_the_upgraded_reads(swisstm(polka()));
    polka_is_paid_the_upgraded_reads(tl2(polka()));
    polka_is_paid_the_upgraded_reads(tinystm(polka()));
    polka_is_paid_the_upgraded_reads(rstm(polka(), RstmVariant::eager_invisible()));
    polka_is_paid_the_upgraded_reads(rstm(polka(), RstmVariant::lazy_invisible()));
}

/// The same reads through both entry points: whether the attempt ran
/// log-free, and the hooks a recording manager received.
fn run_both_ways<A: TmAlgorithm>(stm: &Arc<A>, recording: &RecordingCm) -> [Vec<String>; 2] {
    let (a, b) = two_stripes(&**stm);
    let mut ctx = ThreadContext::register(Arc::clone(stm));
    [false, true].map(|read_only| {
        recording.clear();
        let mut log_free = Vec::new();
        let body = |tx: &mut Tx<'_, A>| {
            log_free.push(tx.is_log_free());
            Ok(tx.read(a)? + tx.read(b)? + tx.read(a)?)
        };
        if read_only {
            ctx.atomically_read_only(body).unwrap();
        } else {
            ctx.atomically(body).unwrap();
        }
        assert_eq!(log_free, [false], "{}: declined", stm.name());
        recording
            .hook_calls()
            .iter()
            .map(|call| format!("{call:?}"))
            .collect()
    })
}

/// A manager that wants every read hook, and RSTM with visible readers,
/// decline the mode: the attempt runs logged, and the hooks are those of
/// `atomically`.
#[test]
fn a_call_manager_and_visible_rstm_decline_the_mode() {
    let recording = Arc::new(RecordingCm::new(Arc::new(Timid::new())));
    let cm = || Arc::clone(&recording) as CmHandle;
    let hooks = [
        run_both_ways(&swisstm(cm()), &recording),
        run_both_ways(&tl2(cm()), &recording),
        run_both_ways(&tinystm(cm()), &recording),
        run_both_ways(&rstm(cm(), RstmVariant::eager_invisible()), &recording),
        run_both_ways(&rstm(cm(), RstmVariant::eager_visible()), &recording),
    ];
    for [logged, declared] in &hooks {
        assert!(logged.len() > 2, "{logged:?}");
        assert_eq!(declared, logged);
    }

    // Visibility alone declines too: under Polka, which counts accesses,
    // the visible variants register their reads as before.
    for variant in [RstmVariant::eager_visible(), RstmVariant::lazy_visible()] {
        let stm = rstm(Arc::new(Polka::new()), variant);
        let (a, _) = two_stripes(&*stm);
        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        ctx.atomically_read_only(|tx| {
            assert!(!tx.is_log_free(), "{}", variant.label());
            tx.read(a)?;
            assert_ne!(stm.objects().entry(a).readers(), 0, "{}", variant.label());
            Ok(())
        })
        .unwrap();
    }
}

/// Forwards every call to `A` and counts the attempts begun through
/// `begin_read_only`.
struct Declared<A> {
    inner: A,
    read_only_begins: Mutex<u64>,
}

impl<A: TmAlgorithm> TmAlgorithm for Declared<A> {
    type Descriptor = A::Descriptor;

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

    fn create_descriptor(&self, slot: ThreadSlot) -> A::Descriptor {
        self.inner.create_descriptor(slot)
    }

    fn begin(&self, desc: &mut A::Descriptor, is_restart: bool) {
        self.inner.begin(desc, is_restart);
    }

    fn begin_read_only(&self, desc: &mut A::Descriptor, is_restart: bool) -> bool {
        *self.read_only_begins.lock().unwrap() += 1;
        self.inner.begin_read_only(desc, is_restart)
    }

    fn read(&self, desc: &mut A::Descriptor, addr: Addr) -> TxResult<Word> {
        self.inner.read(desc, addr)
    }

    fn write(&self, desc: &mut A::Descriptor, addr: Addr, value: Word) -> TxResult<()> {
        self.inner.write(desc, addr, value)
    }

    fn commit(&self, desc: &mut A::Descriptor) -> TxResult<()> {
        self.inner.commit(desc)
    }

    fn rollback(&self, desc: &mut A::Descriptor) {
        self.inner.rollback(desc);
    }
}

/// Over a seeded STMBench7 stream, the kinds that declare themselves
/// read-only run through `atomically_read_only` — one declared attempt
/// each — and never upgrade; the others are never declared.
fn bench7_declarations_hold<A: TmAlgorithm>(inner: A) {
    let name = inner.name();
    let stm = Arc::new(Declared {
        inner,
        read_only_begins: Mutex::new(0),
    });
    let data = Bench7Data::build(&stm, Bench7Config::tiny(), 3);
    let workload = Bench7Workload::new(data, WorkloadMix::read_write());
    let mut ctx = ThreadContext::register(Arc::clone(&stm));
    let mut rng = FastRng::new(2831);
    let mut declared = 0;
    for _ in 0..300 {
        let kind = workload.mix().pick(&mut rng);
        workload.run_operation(&mut ctx, &mut rng, kind);
        let stats = ctx.take_stats();
        declared += u64::from(kind.is_read_only());
        assert_eq!(
            *stm.read_only_begins.lock().unwrap(),
            declared,
            "{name}: {kind:?}"
        );
        assert_eq!((stats.commits, stats.aborts), (1, 0), "{name}: {kind:?}");
    }
    assert!(declared > 100, "{name}: the mix is 60 % read-only");
}

#[test]
fn bench7_read_only_kinds_commit_without_upgrades_on_every_stm() {
    bench7_declarations_hold(SwissTm::with_config(config()));
    bench7_declarations_hold(Tl2::with_config(config()));
    bench7_declarations_hold(TinyStm::with_config(config()));
    bench7_declarations_hold(Rstm::with_config(config()));
}

// Quiet reads: while no commit has been stamped since a log-free attempt
// began, its reads load their words and check the commit clock instead of
// their stripes. A read-only commit whose every read did so is counted in
// `TxStats::quiet_commits`.

/// One declared read-only transaction of `a` and `b`; its values and
/// statistics.
fn read_pair<A: TmAlgorithm>(
    ctx: &mut ThreadContext<A>,
    a: Addr,
    b: Addr,
) -> ((Word, Word), TxStats) {
    ctx.take_stats();
    let values = ctx
        .atomically_read_only(|tx| Ok((tx.read(a)?, tx.read(b)?)))
        .unwrap();
    (values, ctx.take_stats())
}

/// Update commits on the thread retire before the next attempt begins, so
/// that attempt is quiet; `naive`, which declines the mode, never is.
fn quiet_after_updates<A: TmAlgorithm>(stm: Arc<A>, granted: bool) {
    let name = stm.name();
    let (a, b) = two_stripes(&*stm);
    let mut ctx = ThreadContext::register(Arc::clone(&stm));
    for value in 1..=3 {
        ctx.atomically(|tx| {
            tx.write(a, value)?;
            tx.write(b, value * 10)
        })
        .unwrap();
    }
    let (values, stats) = read_pair(&mut ctx, a, b);
    assert_eq!(values, (3, 30), "{name}");
    assert_eq!(
        (stats.commits, stats.read_only_commits, stats.aborts),
        (1, 1, 0),
        "{name}: {stats}"
    );
    assert_eq!(stats.quiet_commits, u64::from(granted), "{name}: {stats}");
}

#[test]
fn after_update_commits_the_next_read_only_attempt_is_quiet() {
    quiet_after_updates(Arc::new(SwissTm::with_config(config())), true);
    quiet_after_updates(Arc::new(Tl2::with_config(config())), true);
    quiet_after_updates(Arc::new(TinyStm::with_config(config())), true);
    quiet_after_updates(Arc::new(Rstm::with_config(config())), true);
    quiet_after_updates(naive(), false);
}

/// A rival that commits mid-attempt moves the clock: the next read finds
/// it moved and samples its stripe from then on. The attempt still
/// commits, un-upgraded, with the values of its snapshot, and it is not a
/// quiet commit; the transaction after it is quiet again.
fn a_rival_commit_ends_the_quiet_reads<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let block = stm.heap().alloc_zeroed(6).unwrap();
    let (a, b, c) = (block, block.offset(2), block.offset(4));
    stm.heap().store(a, 1);
    stm.heap().store(c, 3);
    let mut ctx = ThreadContext::register(Arc::clone(&stm));
    let mut rival = ThreadContext::register(Arc::clone(&stm));
    let mut attempts = 0;
    let values = ctx
        .atomically_read_only(|tx| {
            attempts += 1;
            let first = tx.read(a)?;
            if attempts == 1 {
                rival
                    .atomically(|tx2| {
                        tx2.write(a, 10)?;
                        tx2.write(b, 20)
                    })
                    .unwrap();
            }
            Ok((first, tx.read(c)?))
        })
        .unwrap();
    assert_eq!(values, (1, 3), "{name}: the snapshot's values");
    let stats = ctx.take_stats();
    assert_eq!(
        (stats.commits, stats.aborts, stats.reads),
        (1, 0, 2),
        "{name}: {stats}"
    );
    assert_eq!(
        (stats.read_only_commits, stats.quiet_commits),
        (1, 0),
        "{name}: {stats}"
    );
    let (values, stats) = read_pair(&mut ctx, a, b);
    assert_eq!(values, (10, 20), "{name}");
    assert_eq!(stats.quiet_commits, 1, "{name}: {stats}");
}

#[test]
fn a_rival_commit_mid_attempt_makes_the_next_read_sample_on_every_stm() {
    a_rival_commit_ends_the_quiet_reads(Arc::new(SwissTm::with_config(config())));
    a_rival_commit_ends_the_quiet_reads(Arc::new(Tl2::with_config(config())));
    a_rival_commit_ends_the_quiet_reads(Arc::new(TinyStm::with_config(config())));
    a_rival_commit_ends_the_quiet_reads(Arc::new(Rstm::with_config(config())));
}

/// An update commit that fails validation after taking its stamp retires
/// the stamp all the same: the next read-only attempt is quiet.
fn a_failed_commit_retires<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let (a, b) = two_stripes(&*stm);
    let mut ctx = ThreadContext::register(Arc::clone(&stm));
    let mut rival = ThreadContext::register(Arc::clone(&stm));
    let mut attempts = 0;
    ctx.atomically(|tx| {
        attempts += 1;
        let seen = tx.read(a)?;
        tx.write(b, seen + 1)?;
        if attempts == 1 {
            rival.atomically(|tx2| tx2.write(a, 5)).unwrap();
        }
        Ok(())
    })
    .unwrap();
    let stats = ctx.take_stats();
    assert_eq!(
        (stats.aborts_for(AbortReason::ReadValidation), stats.commits),
        (1, 1),
        "{name}: the first commit failed its validation: {stats}"
    );
    let (values, stats) = read_pair(&mut ctx, a, b);
    assert_eq!(values, (5, 6), "{name}");
    assert_eq!(stats.quiet_commits, 1, "{name}: {stats}");
}

#[test]
fn a_commit_that_fails_validation_still_retires_on_every_stm() {
    a_failed_commit_retires(Arc::new(SwissTm::with_config(config())));
    a_failed_commit_retires(Arc::new(Tl2::with_config(config())));
    a_failed_commit_retires(Arc::new(TinyStm::with_config(config())));
    a_failed_commit_retires(Arc::new(Rstm::with_config(config())));
}

/// Under the deferred clock commits do not move the clock, so no snapshot
/// is quiescent: the attempts run log-free and sample every stripe.
fn never_quiet_when_deferred<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let (a, b) = two_stripes(&*stm);
    let mut ctx = ThreadContext::register(Arc::clone(&stm));
    let (_, stats) = read_pair(&mut ctx, a, b);
    assert_eq!(stats.quiet_commits, 0, "{name}: before any commit: {stats}");
    ctx.atomically(|tx| tx.write(a, 1)).unwrap();
    let (values, stats) = read_pair(&mut ctx, a, b);
    assert_eq!(values, (1, 0), "{name}");
    assert_eq!(
        (stats.read_only_commits, stats.quiet_commits),
        (1, 0),
        "{name}: {stats}"
    );
}

#[test]
fn the_deferred_clock_is_never_quiet_on_every_stm() {
    let deferred = || config().with_clock(stm_core::config::ClockMode::Deferred);
    never_quiet_when_deferred(Arc::new(SwissTm::with_config(deferred())));
    never_quiet_when_deferred(Arc::new(Tl2::with_config(deferred())));
    never_quiet_when_deferred(Arc::new(TinyStm::with_config(deferred())));
    never_quiet_when_deferred(Arc::new(Rstm::with_config(deferred())));
}
