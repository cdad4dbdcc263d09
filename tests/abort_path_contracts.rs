//! Abort-path contract regressions: a transaction whose *commit* fails must
//! leave its descriptor fully reset — locks released, logs cleared, no
//! stale doomed flag — exactly as if the attempt had aborted inside the
//! body. `atomically` documents that `rollback` runs on every abort path,
//! including after a failed commit; these tests pin the observable side of
//! that contract on all four STMs.
//!
//! The second contract pinned here is the remote-abort rule of
//! `TmAlgorithm`: once `TxShared::request_abort` was called on a
//! transaction's record, its *next* `read`, `write` or `commit` is refused
//! with `Abort::REMOTE`, every lock already released, and the refused call
//! is not counted as a read or a write.
//!
//! The third is the exit of the shared acquisition loop: a transaction
//! waiting there on a rival's stripe, under a manager that always answers
//! `Wait`, leaves the loop once it is asked to abort — at the first write
//! for the encounter-time lockers, at commit for the commit-time ones —
//! holding nothing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stm_core::clock::{ThreadSlot, TxShared};
use stm_core::cm::{CmHandle, ContentionManager, Resolution};
use stm_core::config::StmConfig;
use stm_core::engine::Stripe;
use stm_core::error::{Abort, StmError};
use stm_core::locktable::LockTable;
use stm_core::sync::{AtomicU64, Ordering};
use stm_core::telemetry::ConflictSite;
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_core::word::Addr;

use rstm::{Rstm, RstmVariant};
use swisstm::SwissTm;
use tinystm::TinyStm;
use tl2::Tl2;

fn config() -> StmConfig {
    StmConfig::small()
}

/// Forces a deterministic commit-time validation failure:
///
/// 1. the victim reads `a`,
/// 2. a second context commits two updates to `a` (advancing the global
///    clock past the victim's snapshot and re-versioning `a`),
/// 3. the victim writes `b` and returns, so its commit must validate the
///    read of `a` — which fails on every algorithm.
///
/// With a retry budget of 1 the driver reports the failed commit instead of
/// retrying, and the test can inspect the aftermath.
fn failed_commit_leaves_no_residue<A: TmAlgorithm>(stm: Arc<A>) {
    let name = stm.name();
    let block = stm.heap().alloc_zeroed(4).unwrap();
    let a = block;
    // Two words per stripe at the default grain: offset 2 lands on a
    // different lock-table entry than `a`.
    let b = block.offset(2);

    let mut victim = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
    let mut other = ThreadContext::register(Arc::clone(&stm));

    let result: Result<(), StmError> = victim.atomically(|tx| {
        let _ = tx.read(a)?;
        // Invalidate the victim's snapshot from a second context. Two
        // commits make sure the clock moves far enough that no algorithm
        // can skip commit-time validation.
        for _ in 0..2 {
            other
                .atomically(|tx2| {
                    let v = tx2.read(a)?;
                    tx2.write(a, v + 1)
                })
                .expect("interfering update must commit");
        }
        tx.write(b, 99)?;
        Ok(())
    });

    // The only attempt must have failed at commit time.
    assert!(
        matches!(result, Err(StmError::RetryBudgetExhausted { attempts: 1 })),
        "{name}: expected the commit to fail deterministically, got {result:?}"
    );
    assert_eq!(victim.stats().commits, 0, "{name}: commit was recorded");
    assert_eq!(victim.stats().aborts, 1, "{name}: abort was not recorded");

    // The aborted write must not have reached the heap.
    assert_eq!(
        stm.heap().load(b),
        0,
        "{name}: failed commit leaked a write"
    );

    // Every lock the failed commit touched must be free again: a *different*
    // context (which can never bypass a leaked lock as its owner) must be
    // able to update both stripes within a bounded number of attempts.
    let mut probe = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(64);
    probe
        .atomically(|tx| {
            tx.write(a, 1000)?;
            tx.write(b, 2000)
        })
        .unwrap_or_else(|e| panic!("{name}: stripes still locked after failed commit: {e:?}"));

    // And the victim's descriptor must be fully reset (no stale doomed flag,
    // cleared logs): its next transaction commits normally.
    victim
        .atomically(|tx| {
            let vb = tx.read(b)?;
            tx.write(b, vb + 1)
        })
        .unwrap_or_else(|e| panic!("{name}: descriptor unusable after failed commit: {e:?}"));
    assert_eq!(stm.heap().load(b), 2001, "{name}: post-failure commit lost");
    assert_eq!(victim.stats().commits, 1);
}

#[test]
fn failed_commit_leaves_no_residue_on_swisstm() {
    failed_commit_leaves_no_residue(Arc::new(SwissTm::with_config(config())));
}

#[test]
fn failed_commit_leaves_no_residue_on_tl2() {
    failed_commit_leaves_no_residue(Arc::new(Tl2::with_config(config())));
}

#[test]
fn failed_commit_leaves_no_residue_on_tinystm() {
    failed_commit_leaves_no_residue(Arc::new(TinyStm::with_config(config())));
}

#[test]
fn failed_commit_leaves_no_residue_on_rstm() {
    failed_commit_leaves_no_residue(Arc::new(Rstm::with_config(config())));
}

/// The stripe a transaction read and then acquired itself: validation may
/// trust its own lock only for what the stripe held *when it was acquired*.
///
/// * `rival_commits_to_a` — the victim reads `a`, a rival commits to `a`,
///   the victim writes `a`. Its read is stale, so the attempt must abort
///   with a validation failure (at the acquiring write's snapshot extension
///   or at commit) — a validation that waves its own stripes through would
///   commit a lost update here.
/// * otherwise the rival commits to an unrelated stripe, which only makes
///   the victim's commit validate: the read of `a` predates the acquisition
///   by nobody's commit and the transaction must commit.
///
/// Either way the self-owned check is answered by the record the lock word
/// names (encounter-time lockers) or the commit-time lock set (TL2).
fn read_then_acquire<A: TmAlgorithm>(stm: Arc<A>, rival_commits_to_a: bool) {
    let name = format!("{} / rival on a: {rival_commits_to_a}", stm.name());
    let block = stm.heap().alloc_zeroed(4).unwrap();
    let (a, c) = (block, block.offset(2));
    let mut victim = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
    let mut rival = ThreadContext::register(Arc::clone(&stm));

    let result: Result<(), StmError> = victim.atomically(|tx| {
        let seen = tx.read(a)?;
        let target = if rival_commits_to_a { a } else { c };
        rival
            .atomically(|tx2| {
                let v = tx2.read(target)?;
                tx2.write(target, v + 1)
            })
            .expect("the rival's update must commit");
        tx.write(a, seen + 10)
    });

    let stats = victim.take_stats();
    if rival_commits_to_a {
        assert!(
            matches!(result, Err(StmError::RetryBudgetExhausted { attempts: 1 })),
            "{name}: a stale read of a self-owned stripe committed: {result:?}"
        );
        // Validation catches it — or, with visible reads, the rival's
        // acquisition has already told the victim to abort.
        let reason = stats.aborts_by_reason.keys().next().copied();
        assert!(
            matches!(reason, Some("read-validation" | "remote-abort")),
            "{name}: aborted for {reason:?}"
        );
        assert_eq!((stats.commits, stats.aborts), (0, 1), "{name}");
        assert_eq!(stm.heap().load(a), 1, "{name}: the rival's update was lost");
    } else {
        assert!(result.is_ok(), "{name}: own acquisition failed: {result:?}");
        assert_eq!(stats.validations, 1, "{name}: the commit must validate");
        assert_eq!(stm.heap().load(a), 10, "{name}");
    }
    // No lock outlives the attempt.
    rival
        .atomically(|tx| tx.write(a, 5))
        .unwrap_or_else(|e| panic!("{name}: stripe still locked: {e:?}"));
}

#[test]
fn a_read_stripe_acquired_later_is_validated_on_every_stm() {
    for rival_commits_to_a in [true, false] {
        read_then_acquire(Arc::new(SwissTm::with_config(config())), rival_commits_to_a);
        read_then_acquire(Arc::new(Tl2::with_config(config())), rival_commits_to_a);
        read_then_acquire(Arc::new(TinyStm::with_config(config())), rival_commits_to_a);
        for variant in [
            RstmVariant::eager_invisible(),
            RstmVariant::eager_visible(),
            RstmVariant::lazy_invisible(),
            RstmVariant::lazy_visible(),
        ] {
            let stm = Rstm::builder().config(config()).variant(variant).build();
            read_then_acquire(Arc::new(stm), rival_commits_to_a);
        }
    }
}

/// Which call meets the pending abort request.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Refused {
    Read,
    Write,
    Commit,
}

/// The victim reads `b`, writes `a` (the encounter-time STMs now hold `a`'s
/// lock), receives an abort request, and makes one more call.
fn remote_abort_refuses_the_next_call<A: TmAlgorithm>(stm: Arc<A>, refused: Refused) {
    let name = format!("{} / {refused:?}", stm.name());
    let block = stm.heap().alloc_zeroed(4).unwrap();
    let (a, b) = (block, block.offset(2));
    let mut victim = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
    let mut probe = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
    let me = Arc::clone(stm.registry().shared(victim.slot()));

    let mut answer = None;
    let result: Result<(), StmError> = victim.atomically(|tx| {
        tx.read(b)?;
        tx.write(a, 7)?;
        assert!(me.request_abort(), "{name}: the request is fresh");
        let outcome = match refused {
            Refused::Read => tx.read(b).map(drop),
            Refused::Write => tx.write(b, 8),
            Refused::Commit => return Ok(()),
        };
        answer = Some(outcome);
        // The refusal itself released the locks, before any rollback: a
        // second context takes both stripes at its first attempt.
        probe
            .atomically(|tx2| {
                tx2.write(a, 100)?;
                tx2.write(b, 200)
            })
            .unwrap_or_else(|e| panic!("{name}: locks held past the refusal: {e:?}"));
        outcome
    });

    assert!(
        matches!(result, Err(StmError::RetryBudgetExhausted { attempts: 1 })),
        "{name}: got {result:?}"
    );
    if refused != Refused::Commit {
        assert_eq!(answer, Some(Err(Abort::REMOTE)), "{name}: the refused call");
    }
    let stats = victim.take_stats();
    assert_eq!(
        stats.aborts_by_reason.get("remote-abort"),
        Some(&1),
        "{name}"
    );
    assert_eq!((stats.commits, stats.aborts), (0, 1), "{name}");
    assert_eq!(
        (stats.reads, stats.writes),
        (1, 1),
        "{name}: a refused call is not an access"
    );
    // Nothing of the victim reached the heap, and after a refused commit
    // the stripes are free as well.
    let expected = if refused == Refused::Commit { 0 } else { 100 };
    assert_eq!(stm.heap().load(a), expected, "{name}: leaked write");
    probe
        .atomically(|tx| tx.write(a, 1))
        .unwrap_or_else(|e| panic!("{name}: stripe locked after the abort: {e:?}"));
}

#[test]
fn remote_abort_refuses_the_next_call_on_every_stm() {
    for refused in [Refused::Read, Refused::Write, Refused::Commit] {
        remote_abort_refuses_the_next_call(Arc::new(SwissTm::with_config(config())), refused);
        remote_abort_refuses_the_next_call(Arc::new(Tl2::with_config(config())), refused);
        remote_abort_refuses_the_next_call(Arc::new(TinyStm::with_config(config())), refused);
        remote_abort_refuses_the_next_call(Arc::new(Rstm::with_config(config())), refused);
    }
}

/// The multi-thread stress rerun of the money-transfer invariant on all
/// four STMs with the reworked log structures: concurrent transfers across
/// enough accounts to exercise large-ish read/write sets never create or
/// destroy money, even while commit-time validation failures are frequent.
#[test]
fn money_transfer_stress_survives_the_log_rework() {
    fn run<A: TmAlgorithm>(stm: Arc<A>) {
        let name = stm.name();
        let accounts = 32usize;
        let base = stm.heap().alloc_zeroed(accounts).unwrap();
        for i in 0..accounts {
            stm.heap().store(base.offset(i), 1000);
        }
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let stm = Arc::clone(&stm);
                scope.spawn(move || {
                    let mut ctx = ThreadContext::register(stm);
                    let mut rng = stm_core::backoff::FastRng::new(t + 101);
                    for _ in 0..400 {
                        let from = rng.next_below(accounts as u64) as usize;
                        let to = rng.next_below(accounts as u64) as usize;
                        ctx.atomically(|tx| {
                            // Audit a window of accounts (a larger read set)
                            // before moving money between two of them.
                            let mut window = 0;
                            for i in 0..8 {
                                window += tx.read(base.offset((from + i) % accounts))?;
                            }
                            let _ = window;
                            let f = tx.read(base.offset(from))?;
                            let t_bal = tx.read(base.offset(to))?;
                            if from != to && f >= 10 {
                                tx.write(base.offset(from), f - 10)?;
                                tx.write(base.offset(to), t_bal + 10)?;
                            }
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        let total: u64 = (0..accounts).map(|i| stm.heap().load(base.offset(i))).sum();
        assert_eq!(total, 32_000, "money created/destroyed on {name}");
    }

    run(Arc::new(SwissTm::with_config(config())));
    run(Arc::new(Tl2::with_config(config())));
    run(Arc::new(TinyStm::with_config(config())));
    run(Arc::new(Rstm::with_config(config())));
}

/// Waits out every conflict, and counts how often it was asked.
#[derive(Debug, Default)]
struct AlwaysWait {
    resolves: AtomicU64,
}

impl ContentionManager for AlwaysWait {
    fn resolve(&self, _me: &TxShared, _owner: &TxShared) -> Resolution {
        // sync: Relaxed — a plain counter the test polls; no data is
        // published through it.
        self.resolves.fetch_add(1, Ordering::Relaxed);
        Resolution::Wait
    }

    fn name(&self) -> &'static str {
        "always-wait"
    }
}

/// A rival holds `a`'s stripe (staged by `stage` through the STM's lock
/// table); the waiter writes `b`, then `a`, and waits in the acquisition
/// loop at `site` until the test asks it to abort. A waiter that ignores
/// the request is freed by `unstage` after a grace period, so the test
/// fails on its outcome instead of hanging.
fn waiter_leaves_the_loop_on_a_remote_abort<A, S>(
    build: impl FnOnce(CmHandle) -> A,
    table: impl Fn(&A) -> &LockTable<S>,
    stage: impl FnOnce(&S, ThreadSlot),
    unstage: impl FnOnce(&S),
    site: ConflictSite,
) where
    A: TmAlgorithm,
    S: Stripe,
{
    let cm = Arc::new(AlwaysWait::default());
    let stm = Arc::new(build(Arc::clone(&cm) as CmHandle));
    let name = stm.name();
    let block = stm.heap().alloc_zeroed(4).unwrap();
    let (a, b) = (block, block.offset(2));
    let rival = stm.registry().register().unwrap();
    stage(table(&stm).entry(a), rival);

    let mut waiter = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
    let me = Arc::clone(stm.registry().shared(waiter.slot()));
    let (result, stats) = std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let result = waiter.atomically(|tx| {
                tx.write(b, 1)?;
                tx.write(a, 2)
            });
            (result, waiter.take_stats())
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        // sync: Relaxed, as in `resolve`.
        while cm.resolves.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "{name}: the waiter never waited");
            std::thread::yield_now();
        }
        assert!(me.request_abort(), "{name}: the request is fresh");
        let grace = Instant::now() + Duration::from_secs(10);
        while !handle.is_finished() && Instant::now() < grace {
            std::thread::yield_now();
        }
        if !handle.is_finished() {
            unstage(table(&stm).entry(a));
        }
        handle.join().unwrap()
    });

    assert!(
        matches!(result, Err(StmError::RetryBudgetExhausted { attempts: 1 })),
        "{name}: got {result:?}"
    );
    assert_eq!(
        stats.aborts_by_reason.get("remote-abort"),
        Some(&1),
        "{name}"
    );
    assert!(
        stats.contention.resolved(site, Resolution::Wait) > 0,
        "{name}: waited at {site:?}"
    );
    let held = |addr: Addr| table(&stm).entry(addr).owner_tag().map(|tag| tag.slot());
    assert_eq!(
        held(a),
        Some(rival),
        "{name}: the staged lock names the rival"
    );
    assert_eq!(held(b), None, "{name}: the waiter holds nothing");
    assert_eq!(stm.heap().load(b), 0, "{name}: leaked write");
}

#[test]
fn the_acquisition_loop_leaves_on_a_remote_abort_on_every_stm() {
    let with = |variant| {
        move |cm| {
            Rstm::builder()
                .config(config())
                .variant(variant)
                .contention_manager(cm)
                .build()
        }
    };
    waiter_leaves_the_loop_on_a_remote_abort(
        |cm| {
            SwissTm::builder()
                .config(config())
                .contention_manager(cm)
                .build()
        },
        SwissTm::lock_table,
        |stripe, rival| assert!(stripe.try_acquire_write(rival, 0)),
        |stripe| stripe.release_write(),
        ConflictSite::Write,
    );
    waiter_leaves_the_loop_on_a_remote_abort(
        |cm| {
            TinyStm::builder()
                .config(config())
                .contention_manager(cm)
                .build()
        },
        TinyStm::lock_table,
        |stripe, rival| assert!(stripe.try_lock(rival, 0)),
        |stripe| stripe.restore(0),
        ConflictSite::Write,
    );
    waiter_leaves_the_loop_on_a_remote_abort(
        |cm| {
            Tl2::builder()
                .config(config())
                .contention_manager(cm)
                .build()
        },
        Tl2::lock_table,
        |stripe, rival| assert!(stripe.try_lock(rival, 0)),
        |stripe| stripe.restore(0),
        ConflictSite::Commit,
    );
    for (variant, site) in [
        (RstmVariant::eager_invisible(), ConflictSite::Write),
        (RstmVariant::lazy_invisible(), ConflictSite::Commit),
    ] {
        waiter_leaves_the_loop_on_a_remote_abort(
            with(variant),
            Rstm::objects,
            |object, rival| assert!(object.try_acquire(rival, 0)),
            |object| object.release(),
            site,
        );
    }
}
