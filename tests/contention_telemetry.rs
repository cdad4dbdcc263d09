//! Deterministic conflict rig + telemetry invariants.
//!
//! Part 1 — the rig. Each scenario stages a *stuck lock* directly in the
//! STM's lock table, owned by a fabricated victim slot whose shared record
//! (CM timestamp, Polka priority) the test scripts explicitly. The attacker
//! then runs a real transaction into the conflict. A
//! [`stm_core::testkit::RecordingCm`] wraps the contention manager, records
//! every `resolve` outcome, and — via its resolve hook — releases the stuck
//! lock the moment the manager decides `AbortOther`, so the attacker's
//! acquisition loop observes *exactly one* resolution per decision. The
//! whole schedule runs on a single thread: no timing, no flakiness, and the
//! resolution sequence plus every telemetry counter can be asserted
//! exactly, for all five contention managers on all four STMs.
//!
//! Part 2 — the property test. For every (STM × CM) pair, a seeded
//! money-transfer stress asserts the accounting invariants that must never
//! drift: `aborts == Σ aborts_by_reason`, received remote aborts ≤
//! inflicted remote aborts (a delivered request can be missed — the victim
//! may commit first — but never invented), retry-histogram total == commits,
//! CM-resolution self-aborts ≤ aborts, and wait time ≤ total thread time.
//!
//! Part 3 — hook delivery. One fixed transaction per STM, with the exact
//! `on_start`/`on_read`/`on_write`/`on_commit` sequence a recording manager
//! receives and the Polka priority the same transaction accumulates: the
//! STMs ask a manager once whether it observes reads, and neither a manager
//! that does nor one that does not say may lose or gain a hook by it.

use std::sync::Arc;
use std::time::Instant;

use stm_core::backoff::FastRng;
use stm_core::clock::TxShared;
use stm_core::cm::{CmHandle, Greedy, Polka, Resolution, Serializer, Timid, TwoPhase};
use stm_core::config::StmConfig;
use stm_core::error::StmError;
use stm_core::stats::TxStats;
use stm_core::telemetry::ConflictSite;
use stm_core::testkit::{HookCall, RecordingCm};
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_core::word::Addr;

use rstm::{Rstm, RstmVariant};
use swisstm::SwissTm;
use tinystm::TinyStm;
use tl2::Tl2;

use Resolution::{AbortOther, AbortSelf, Wait};

fn config() -> StmConfig {
    StmConfig::small()
}

/// One scripted conflict, independent of the STM under test.
///
/// `conflict_writes` is the number of `on_write` hook invocations the
/// attacker has seen when the conflict resolves — it differs per STM
/// (encounter-time STMs count only the pre-writes; TL2 also counts the
/// conflicting write, which it buffers before commit), so Polka priorities
/// and TwoPhase thresholds are stated relative to it.
struct Scenario {
    name: &'static str,
    /// Builds the inner CM; receives `conflict_writes`.
    make_cm: fn(u64) -> CmHandle,
    /// Scripts the fabricated victim's shared record; receives
    /// `conflict_writes` (== the attacker's Polka priority at conflict).
    victim_setup: fn(&TxShared, u64),
    /// Non-conflicting writes the attacker performs before the conflicting
    /// one (boosts Polka priority by one each, promotes TwoPhase).
    pre_writes: usize,
    /// The exact resolution sequence the rig must observe.
    expected: &'static [Resolution],
}

fn no_victim_setup(_: &TxShared, _: u64) {}

/// The scripted conflict schedules: every contention manager's documented
/// resolution behaviour, pinned exactly.
fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "timid always aborts the attacker",
            make_cm: |_| Arc::new(Timid::new()),
            victim_setup: no_victim_setup,
            pre_writes: 0,
            expected: &[AbortSelf],
        },
        Scenario {
            name: "greedy: older attacker aborts the victim",
            make_cm: |_| Arc::new(Greedy::new()),
            // The attacker draws timestamp 1 from the manager's fresh
            // clock; a victim at 100 is younger and loses.
            victim_setup: |victim, _| victim.set_cm_ts(100),
            pre_writes: 0,
            expected: &[AbortOther],
        },
        Scenario {
            name: "greedy: younger attacker aborts itself",
            make_cm: |_| Arc::new(Greedy::new()),
            victim_setup: |victim, _| victim.set_cm_ts(0),
            pre_writes: 0,
            expected: &[AbortSelf],
        },
        Scenario {
            name: "serializer: older attacker aborts the victim",
            make_cm: |_| Arc::new(Serializer::new()),
            victim_setup: |victim, _| victim.set_cm_ts(100),
            pre_writes: 0,
            expected: &[AbortOther],
        },
        Scenario {
            name: "serializer: younger attacker aborts itself",
            make_cm: |_| Arc::new(Serializer::new()),
            victim_setup: |victim, _| victim.set_cm_ts(0),
            pre_writes: 0,
            expected: &[AbortSelf],
        },
        Scenario {
            name: "polka: waits exactly the deficit, then aborts the victim",
            make_cm: |_| Arc::new(Polka::with_attempts(10)),
            victim_setup: |victim, attacker_priority| victim.set_priority(attacker_priority + 2),
            pre_writes: 0,
            expected: &[Wait, Wait, AbortOther],
        },
        Scenario {
            name: "polka: budget caps the waits, then the victim dies",
            make_cm: |_| Arc::new(Polka::with_attempts(1)),
            victim_setup: |victim, attacker_priority| victim.set_priority(attacker_priority + 50),
            pre_writes: 0,
            expected: &[Wait, AbortOther],
        },
        Scenario {
            name: "polka: a zero budget never waits",
            make_cm: |_| Arc::new(Polka::with_attempts(0)),
            victim_setup: |victim, attacker_priority| victim.set_priority(attacker_priority + 50),
            pre_writes: 0,
            expected: &[AbortOther],
        },
        Scenario {
            name: "two-phase: first phase is timid",
            make_cm: |_| Arc::new(TwoPhase::new()),
            victim_setup: no_victim_setup,
            pre_writes: 0,
            expected: &[AbortSelf],
        },
        Scenario {
            name: "two-phase: flips to greedy exactly at wn",
            make_cm: |conflict_writes| Arc::new(TwoPhase::with_wn(conflict_writes as usize)),
            victim_setup: no_victim_setup,
            pre_writes: 1,
            expected: &[AbortOther],
        },
        Scenario {
            name: "two-phase: one write below wn is still timid",
            make_cm: |conflict_writes| Arc::new(TwoPhase::with_wn(conflict_writes as usize + 1)),
            victim_setup: no_victim_setup,
            pre_writes: 1,
            expected: &[AbortSelf],
        },
        Scenario {
            name: "two-phase: older promoted owner beats a promoted attacker",
            make_cm: |conflict_writes| Arc::new(TwoPhase::with_wn(conflict_writes as usize)),
            victim_setup: |victim, _| victim.set_cm_ts(0),
            pre_writes: 1,
            expected: &[AbortSelf],
        },
    ]
}

/// Runs the attacker into the staged conflict and asserts the exact
/// resolution sequence and telemetry counters. `conflict_writes` is the
/// attacker's `on_write` count at conflict time (see [`Scenario`]).
fn drive_attacker<A: TmAlgorithm>(
    stm: &Arc<A>,
    recording: &RecordingCm,
    scenario: &Scenario,
    conflict_addr: Addr,
    pre_addrs: &[Addr],
    site: ConflictSite,
) {
    let name = format!("[{} / {}]", stm.name(), scenario.name);
    let expected = scenario.expected;
    let self_aborts = expected.iter().filter(|r| **r == AbortSelf).count() as u64;
    let other_aborts = expected.iter().filter(|r| **r == AbortOther).count() as u64;
    let waits = expected.iter().filter(|r| **r == Wait).count() as u64;
    let attacker_wins = *expected.last().unwrap() == AbortOther;
    let budget = if attacker_wins {
        self_aborts + 1
    } else {
        self_aborts
    };

    let mut ctx = ThreadContext::register(Arc::clone(stm)).with_retry_budget(budget);
    let result = ctx.atomically(|tx| {
        for (i, &addr) in pre_addrs.iter().enumerate() {
            tx.write(addr, i as u64 + 1)?;
        }
        tx.write(conflict_addr, 42)
    });

    if attacker_wins {
        result.unwrap_or_else(|e| panic!("{name}: the attacker should commit, got {e:?}"));
        assert_eq!(stm.heap().load(conflict_addr), 42, "{name}: lost write");
    } else {
        assert!(
            matches!(result, Err(StmError::RetryBudgetExhausted { .. })),
            "{name}: the attacker should exhaust its budget, got {result:?}"
        );
        assert_eq!(stm.heap().load(conflict_addr), 0, "{name}: leaked write");
    }

    assert_eq!(
        recording.resolutions(),
        expected.to_vec(),
        "{name}: resolution sequence"
    );

    let stats = ctx.take_stats();
    assert_eq!(
        stats.contention.resolved(site, Wait),
        waits,
        "{name}: waits"
    );
    assert_eq!(
        stats.contention.resolved(site, AbortSelf),
        self_aborts,
        "{name}: self-aborts"
    );
    assert_eq!(
        stats.contention.resolved(site, AbortOther),
        other_aborts,
        "{name}: victim-aborts"
    );
    // Every resolution was attributed to this site and no other.
    for other_site in ConflictSite::ALL {
        if other_site != site {
            for resolution in [Wait, AbortSelf, AbortOther] {
                assert_eq!(
                    stats.contention.resolved(other_site, resolution),
                    0,
                    "{name}: stray resolution at site {other_site:?}"
                );
            }
        }
    }
    // One delivered abort request per AbortOther (the victim's flag was
    // clear, so each delivery is fresh), and no remote aborts received.
    assert_eq!(
        stats.contention.remote_aborts_inflicted, other_aborts,
        "{name}: inflicted"
    );
    assert_eq!(
        stats.contention.remote_aborts_received, 0,
        "{name}: received"
    );
    assert_eq!(stats.aborts, self_aborts, "{name}: aborts");
    assert_eq!(stats.commits, u64::from(attacker_wins), "{name}: commits");
    assert_eq!(
        stats.retries.total(),
        stats.commits,
        "{name}: retry histogram total"
    );
    assert!(
        stats.contention.cm_wait_nanos > 0,
        "{name}: the wait-loop timer must record the contended acquisition"
    );
}

/// The per-STM staging: how the rig fabricates a stuck lock owned by the
/// victim slot and how the resolve hook releases it on `AbortOther`.
fn run_rig_on_swisstm(scenario: &Scenario) {
    let conflict_writes = scenario.pre_writes as u64;
    let recording = Arc::new(RecordingCm::new((scenario.make_cm)(conflict_writes)));
    let stm = Arc::new(
        SwissTm::builder()
            .config(config())
            .contention_manager(Arc::clone(&recording) as CmHandle)
            .build(),
    );
    let victim_slot = stm.registry().register().unwrap();
    (scenario.victim_setup)(stm.registry().shared(victim_slot), conflict_writes);
    let (conflict_addr, pre_addrs) = rig_addresses(stm.heap(), scenario.pre_writes);
    assert!(stm
        .lock_table()
        .entry(conflict_addr)
        .try_acquire_write(victim_slot, 0));
    let hook_stm = Arc::clone(&stm);
    recording.set_resolve_hook(Box::new(move |resolution| {
        if resolution == AbortOther {
            hook_stm.lock_table().entry(conflict_addr).release_write();
        }
    }));
    drive_attacker(
        &stm,
        &recording,
        scenario,
        conflict_addr,
        &pre_addrs,
        ConflictSite::Write,
    );
    recording.clear_resolve_hook();
}

fn run_rig_on_tinystm(scenario: &Scenario) {
    let conflict_writes = scenario.pre_writes as u64;
    let recording = Arc::new(RecordingCm::new((scenario.make_cm)(conflict_writes)));
    let stm = Arc::new(
        TinyStm::builder()
            .config(config())
            .contention_manager(Arc::clone(&recording) as CmHandle)
            .build(),
    );
    let victim_slot = stm.registry().register().unwrap();
    (scenario.victim_setup)(stm.registry().shared(victim_slot), conflict_writes);
    let (conflict_addr, pre_addrs) = rig_addresses(stm.heap(), scenario.pre_writes);
    assert!(stm
        .lock_table()
        .entry(conflict_addr)
        .try_acquire(victim_slot, 0, 0));
    let hook_stm = Arc::clone(&stm);
    recording.set_resolve_hook(Box::new(move |resolution| {
        if resolution == AbortOther {
            hook_stm.lock_table().entry(conflict_addr).restore(0);
        }
    }));
    drive_attacker(
        &stm,
        &recording,
        scenario,
        conflict_addr,
        &pre_addrs,
        ConflictSite::Write,
    );
    recording.clear_resolve_hook();
}

fn run_rig_on_tl2(scenario: &Scenario) {
    // TL2 buffers the conflicting write and calls `on_write` for it before
    // the commit-time conflict, so the attacker has seen one more write
    // than the encounter-time STMs when `resolve` runs.
    let conflict_writes = scenario.pre_writes as u64 + 1;
    let recording = Arc::new(RecordingCm::new((scenario.make_cm)(conflict_writes)));
    let stm = Arc::new(
        Tl2::builder()
            .config(config())
            .contention_manager(Arc::clone(&recording) as CmHandle)
            .build(),
    );
    let victim_slot = stm.registry().register().unwrap();
    (scenario.victim_setup)(stm.registry().shared(victim_slot), conflict_writes);
    let (conflict_addr, pre_addrs) = rig_addresses(stm.heap(), scenario.pre_writes);
    assert!(stm
        .lock_table()
        .entry(conflict_addr)
        .try_lock(victim_slot, 0));
    let hook_stm = Arc::clone(&stm);
    recording.set_resolve_hook(Box::new(move |resolution| {
        if resolution == AbortOther {
            hook_stm.lock_table().entry(conflict_addr).restore(0);
        }
    }));
    drive_attacker(
        &stm,
        &recording,
        scenario,
        conflict_addr,
        &pre_addrs,
        ConflictSite::Commit,
    );
    recording.clear_resolve_hook();
}

fn run_rig_on_rstm(scenario: &Scenario) {
    let conflict_writes = scenario.pre_writes as u64;
    let recording = Arc::new(RecordingCm::new((scenario.make_cm)(conflict_writes)));
    let stm = Arc::new(
        Rstm::builder()
            .config(config())
            .variant(RstmVariant::eager_invisible())
            .contention_manager(Arc::clone(&recording) as CmHandle)
            .build(),
    );
    let victim_slot = stm.registry().register().unwrap();
    (scenario.victim_setup)(stm.registry().shared(victim_slot), conflict_writes);
    let (conflict_addr, pre_addrs) = rig_addresses(stm.heap(), scenario.pre_writes);
    assert!(stm
        .objects()
        .entry(conflict_addr)
        .try_acquire(victim_slot, 0));
    let hook_stm = Arc::clone(&stm);
    recording.set_resolve_hook(Box::new(move |resolution| {
        if resolution == AbortOther {
            hook_stm.objects().entry(conflict_addr).release();
        }
    }));
    drive_attacker(
        &stm,
        &recording,
        scenario,
        conflict_addr,
        &pre_addrs,
        ConflictSite::Write,
    );
    recording.clear_resolve_hook();
}

/// Allocates the conflict word plus `pre_writes` extra words, two words
/// apart so every address lands on its own lock-table stripe at the
/// default grain.
fn rig_addresses(heap: &stm_core::heap::TmHeap, pre_writes: usize) -> (Addr, Vec<Addr>) {
    let block = heap.alloc_zeroed(2 * (pre_writes + 1)).unwrap();
    let pre_addrs = (1..=pre_writes).map(|i| block.offset(2 * i)).collect();
    (block, pre_addrs)
}

#[test]
fn conflict_rig_pins_every_cm_on_swisstm() {
    for scenario in scenarios() {
        run_rig_on_swisstm(&scenario);
    }
}

#[test]
fn conflict_rig_pins_every_cm_on_tinystm() {
    for scenario in scenarios() {
        run_rig_on_tinystm(&scenario);
    }
}

#[test]
fn conflict_rig_pins_every_cm_on_tl2() {
    for scenario in scenarios() {
        run_rig_on_tl2(&scenario);
    }
}

#[test]
fn conflict_rig_pins_every_cm_on_rstm() {
    for scenario in scenarios() {
        run_rig_on_rstm(&scenario);
    }
}

/// RSTM's two extra conflict sites, staged the same way: an eager
/// read/write conflict against a stuck owner (site `Read`) and a writer
/// acquiring an object with a registered visible reader (site
/// `VisibleReader`).
#[test]
fn conflict_rig_covers_rstm_read_site() {
    // Timid: the reader aborts itself with `read-locked`.
    let recording = Arc::new(RecordingCm::new(Arc::new(Timid::new()) as CmHandle));
    let stm = Arc::new(
        Rstm::builder()
            .config(config())
            .contention_manager(Arc::clone(&recording) as CmHandle)
            .build(),
    );
    let victim_slot = stm.registry().register().unwrap();
    let addr = stm.heap().alloc_zeroed(1).unwrap();
    assert!(stm.objects().entry(addr).try_acquire(victim_slot, 0));
    let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
    let result = ctx.atomically(|tx| tx.read(addr));
    assert!(matches!(
        result,
        Err(StmError::RetryBudgetExhausted { attempts: 1 })
    ));
    assert_eq!(recording.resolutions(), vec![AbortSelf]);
    let stats = ctx.take_stats();
    assert_eq!(stats.contention.resolved(ConflictSite::Read, AbortSelf), 1);
    assert_eq!(stats.aborts_by_reason.get("read-locked"), Some(&1));
    assert!(stats.contention.cm_wait_nanos > 0);

    // Greedy with an older attacker: the stuck owner is evicted and the
    // read completes.
    let recording = Arc::new(RecordingCm::new(Arc::new(Greedy::new()) as CmHandle));
    let stm = Arc::new(
        Rstm::builder()
            .config(config())
            .contention_manager(Arc::clone(&recording) as CmHandle)
            .build(),
    );
    let victim_slot = stm.registry().register().unwrap();
    stm.registry().shared(victim_slot).set_cm_ts(100);
    let addr = stm.heap().alloc_zeroed(1).unwrap();
    stm.heap().store(addr, 17);
    assert!(stm.objects().entry(addr).try_acquire(victim_slot, 0));
    let hook_stm = Arc::clone(&stm);
    recording.set_resolve_hook(Box::new(move |resolution| {
        if resolution == AbortOther {
            hook_stm.objects().entry(addr).release();
        }
    }));
    let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
    let value = ctx.atomically(|tx| tx.read(addr)).unwrap();
    assert_eq!(value, 17);
    assert_eq!(recording.resolutions(), vec![AbortOther]);
    let stats = ctx.take_stats();
    assert_eq!(stats.contention.resolved(ConflictSite::Read, AbortOther), 1);
    assert_eq!(stats.contention.remote_aborts_inflicted, 1);
    recording.clear_resolve_hook();
}

#[test]
fn conflict_rig_covers_rstm_visible_reader_site() {
    // Timid: the writer backs off from the registered reader.
    let recording = Arc::new(RecordingCm::new(Arc::new(Timid::new()) as CmHandle));
    let stm = Arc::new(
        Rstm::builder()
            .config(config())
            .contention_manager(Arc::clone(&recording) as CmHandle)
            .build(),
    );
    let victim_slot = stm.registry().register().unwrap();
    let addr = stm.heap().alloc_zeroed(1).unwrap();
    stm.objects().entry(addr).add_reader(victim_slot);
    let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
    let result = ctx.atomically(|tx| tx.write(addr, 5));
    assert!(matches!(
        result,
        Err(StmError::RetryBudgetExhausted { attempts: 1 })
    ));
    assert_eq!(recording.resolutions(), vec![AbortSelf]);
    let stats = ctx.take_stats();
    assert_eq!(
        stats
            .contention
            .resolved(ConflictSite::VisibleReader, AbortSelf),
        1
    );

    // Greedy with an older attacker: the reader is told to abort and the
    // write commits over it.
    let recording = Arc::new(RecordingCm::new(Arc::new(Greedy::new()) as CmHandle));
    let stm = Arc::new(
        Rstm::builder()
            .config(config())
            .contention_manager(Arc::clone(&recording) as CmHandle)
            .build(),
    );
    let victim_slot = stm.registry().register().unwrap();
    stm.registry().shared(victim_slot).set_cm_ts(100);
    let addr = stm.heap().alloc_zeroed(1).unwrap();
    stm.objects().entry(addr).add_reader(victim_slot);
    let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
    ctx.atomically(|tx| tx.write(addr, 5)).unwrap();
    assert_eq!(stm.heap().load(addr), 5);
    assert_eq!(recording.resolutions(), vec![AbortOther]);
    let stats = ctx.take_stats();
    assert_eq!(
        stats
            .contention
            .resolved(ConflictSite::VisibleReader, AbortOther),
        1
    );
    assert_eq!(stats.contention.remote_aborts_inflicted, 1);
    assert!(
        stm.registry().shared(victim_slot).abort_requested(),
        "the victim reader must have been told to abort"
    );
}

/// A Polka attacker spends its whole wait budget on a stuck lock whose owner
/// is a million accesses ahead, staged like the rig above (`stage` locks the
/// word for the fabricated victim, `release` undoes it when the manager
/// gives up waiting): the attempt's back-off spins stay below the sum of
/// the round windows.
fn assert_exhausted_polka_budget_is_bounded<A: TmAlgorithm>(
    build: impl FnOnce(CmHandle) -> A,
    stage: impl FnOnce(&A, Addr, stm_core::clock::ThreadSlot),
    release: impl Fn(&A, Addr) + Send + Sync + 'static,
) {
    use stm_core::backoff::{BACKOFF_UNIT, MAX_EXPONENT};
    const BUDGET: u32 = 12;
    let bound: u64 = (0..BUDGET)
        .map(|round| (1 << round.min(MAX_EXPONENT)) * BACKOFF_UNIT)
        .sum();

    let recording = Arc::new(RecordingCm::new(Arc::new(Polka::with_attempts(BUDGET))));
    let stm = Arc::new(build(Arc::clone(&recording) as CmHandle));
    let victim_slot = stm.registry().register().unwrap();
    stm.registry().shared(victim_slot).set_priority(1_000_000);
    let addr = stm.heap().alloc_zeroed(1).unwrap();
    stage(&stm, addr, victim_slot);
    let hook_stm = Arc::clone(&stm);
    recording.set_resolve_hook(Box::new(move |resolution| {
        if resolution == AbortOther {
            release(&hook_stm, addr);
        }
    }));
    let mut ctx = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);
    ctx.atomically(|tx| tx.write(addr, 42)).unwrap();
    recording.clear_resolve_hook();
    let mut expected = vec![Wait; BUDGET as usize];
    expected.push(AbortOther);
    assert_eq!(recording.resolutions(), expected, "{}", stm.name());
    let spins = ctx.take_stats().contention.backoff_spins;
    assert!(
        spins < bound,
        "{}: {spins} spins, windows sum to {bound}",
        stm.name()
    );
}

/// The `k`-th wait of an attempt is drawn from `2^min(k, MAX_EXPONENT)`
/// back-off units, whatever the priority deficit: an attempt that exhausts
/// its budget has spun less than the sum of those windows. (With the deficit
/// as the exponent every one of these waits drew from the widest window,
/// 4.2 M spins.)
#[test]
fn polka_backoff_of_an_exhausted_budget_is_bounded_by_the_round_windows() {
    assert_exhausted_polka_budget_is_bounded(
        |cm| {
            SwissTm::builder()
                .config(config())
                .contention_manager(cm)
                .build()
        },
        |stm, addr, victim| assert!(stm.lock_table().entry(addr).try_acquire_write(victim, 0)),
        |stm, addr| stm.lock_table().entry(addr).release_write(),
    );
    assert_exhausted_polka_budget_is_bounded(
        |cm| {
            TinyStm::builder()
                .config(config())
                .contention_manager(cm)
                .build()
        },
        |stm, addr, victim| assert!(stm.lock_table().entry(addr).try_acquire(victim, 0, 0)),
        |stm, addr| stm.lock_table().entry(addr).restore(0),
    );
    assert_exhausted_polka_budget_is_bounded(
        |cm| {
            Tl2::builder()
                .config(config())
                .contention_manager(cm)
                .build()
        },
        |stm, addr, victim| assert!(stm.lock_table().entry(addr).try_lock(victim, 0)),
        |stm, addr| stm.lock_table().entry(addr).restore(0),
    );
    assert_exhausted_polka_budget_is_bounded(
        |cm| {
            Rstm::builder()
                .config(config())
                .variant(RstmVariant::eager_invisible())
                .contention_manager(cm)
                .build()
        },
        |stm, addr, victim| assert!(stm.objects().entry(addr).try_acquire(victim, 0)),
        |stm, addr| stm.objects().entry(addr).release(),
    );
}

// ---------------------------------------------------------------------------
// Part 2: cross-STM telemetry invariants under real contention.
// ---------------------------------------------------------------------------

const STRESS_THREADS: usize = 4;
const STRESS_OPS: u64 = 150;
const STRESS_ACCOUNTS: usize = 8;

/// Runs the seeded money-transfer stress and returns the merged statistics
/// plus the wall-clock time of the run.
fn money_transfer_stress<A: TmAlgorithm>(stm: &Arc<A>) -> (TxStats, std::time::Duration) {
    let base = stm.heap().alloc_zeroed(STRESS_ACCOUNTS).unwrap();
    for i in 0..STRESS_ACCOUNTS {
        stm.heap().store(base.offset(i), 1_000);
    }
    let started = Instant::now();
    let per_thread: Vec<TxStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..STRESS_THREADS as u64)
            .map(|t| {
                let stm = Arc::clone(stm);
                scope.spawn(move || {
                    let mut ctx = ThreadContext::register(stm);
                    let mut rng = FastRng::new(t + 31);
                    for _ in 0..STRESS_OPS {
                        let from = rng.next_below(STRESS_ACCOUNTS as u64) as usize;
                        let to = rng.next_below(STRESS_ACCOUNTS as u64) as usize;
                        ctx.atomically(|tx| {
                            let f = tx.read(base.offset(from))?;
                            let t_balance = tx.read(base.offset(to))?;
                            if from != to && f >= 10 {
                                tx.write(base.offset(from), f - 10)?;
                                tx.write(base.offset(to), t_balance + 10)?;
                            }
                            Ok(())
                        })
                        .unwrap();
                    }
                    ctx.take_stats()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed();
    let total: u64 = (0..STRESS_ACCOUNTS)
        .map(|i| stm.heap().load(base.offset(i)))
        .sum();
    assert_eq!(
        total,
        1_000 * STRESS_ACCOUNTS as u64,
        "{}: money created or destroyed",
        stm.name()
    );
    let mut totals = TxStats::new();
    for stats in &per_thread {
        totals.merge(stats);
    }
    (totals, wall)
}

/// The telemetry invariants that must hold for any (STM × CM) pair.
fn assert_telemetry_invariants(label: &str, totals: &TxStats, wall: std::time::Duration) {
    assert_eq!(
        totals.commits,
        STRESS_THREADS as u64 * STRESS_OPS,
        "{label}: one commit per operation"
    );
    let by_reason: u64 = totals.aborts_by_reason.values().sum();
    assert_eq!(
        totals.aborts, by_reason,
        "{label}: aborts must equal the sum of aborts_by_reason"
    );
    assert_eq!(
        totals.retries.total(),
        totals.commits,
        "{label}: every commit lands in exactly one retry bucket"
    );
    let remote_reason = totals
        .aborts_by_reason
        .get("remote-abort")
        .copied()
        .unwrap_or(0);
    assert_eq!(
        totals.contention.remote_aborts_received, remote_reason,
        "{label}: the received counter mirrors the remote-abort reason"
    );
    assert!(
        totals.contention.remote_aborts_received <= totals.contention.remote_aborts_inflicted,
        "{label}: {} remote aborts received but only {} delivered — a victim \
         cannot abort remotely without somebody inflicting it",
        totals.contention.remote_aborts_received,
        totals.contention.remote_aborts_inflicted
    );
    assert!(
        totals.contention.aborts_self() <= totals.aborts,
        "{label}: every AbortSelf resolution dooms exactly one attempt"
    );
    let thread_time_nanos = wall.as_nanos() as u64 * STRESS_THREADS as u64;
    assert!(
        totals.contention.cm_wait_nanos <= thread_time_nanos,
        "{label}: {}ns waited > {}ns of total thread time",
        totals.contention.cm_wait_nanos,
        thread_time_nanos
    );
    assert!(
        totals.contention.backoff_nanos <= thread_time_nanos,
        "{label}: back-off time exceeds total thread time"
    );
}

type CmFactory = fn() -> CmHandle;

fn all_cms() -> Vec<(&'static str, CmFactory)> {
    vec![
        ("timid", || Arc::new(Timid::new())),
        ("greedy", || Arc::new(Greedy::new())),
        ("serializer", || Arc::new(Serializer::new())),
        ("polka", || Arc::new(Polka::new())),
        ("two-phase", || Arc::new(TwoPhase::new())),
    ]
}

#[test]
fn telemetry_invariants_hold_for_every_cm_on_swisstm() {
    for (cm_name, make_cm) in all_cms() {
        let stm = Arc::new(
            SwissTm::builder()
                .config(config())
                .contention_manager(make_cm())
                .build(),
        );
        let (totals, wall) = money_transfer_stress(&stm);
        assert_telemetry_invariants(&format!("SwissTM × {cm_name}"), &totals, wall);
    }
}

#[test]
fn telemetry_invariants_hold_for_every_cm_on_tl2() {
    for (cm_name, make_cm) in all_cms() {
        let stm = Arc::new(
            Tl2::builder()
                .config(config())
                .contention_manager(make_cm())
                .build(),
        );
        let (totals, wall) = money_transfer_stress(&stm);
        assert_telemetry_invariants(&format!("TL2 × {cm_name}"), &totals, wall);
    }
}

#[test]
fn telemetry_invariants_hold_for_every_cm_on_tinystm() {
    for (cm_name, make_cm) in all_cms() {
        let stm = Arc::new(
            TinyStm::builder()
                .config(config())
                .contention_manager(make_cm())
                .build(),
        );
        let (totals, wall) = money_transfer_stress(&stm);
        assert_telemetry_invariants(&format!("TinySTM × {cm_name}"), &totals, wall);
    }
}

#[test]
fn telemetry_invariants_hold_for_every_cm_on_rstm() {
    for (cm_name, make_cm) in all_cms() {
        // Eager/invisible is the paper's default; eager/visible exercises
        // the visible-reader site under real contention.
        for variant in [RstmVariant::eager_invisible(), RstmVariant::eager_visible()] {
            let stm = Arc::new(
                Rstm::builder()
                    .config(config())
                    .variant(variant)
                    .contention_manager(make_cm())
                    .build(),
            );
            let (totals, wall) = money_transfer_stress(&stm);
            assert_telemetry_invariants(
                &format!("RSTM[{}] × {cm_name}", variant.label()),
                &totals,
                wall,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Part 3: hook delivery for a fixed transaction.
// ---------------------------------------------------------------------------

/// Two reads, a first write to a stripe, a second write to the same word, a
/// write to the stripe's other word, a read-after-write and a repeated read.
/// Returns the Polka-style priority the transaction's own record carries
/// when the body ends.
fn fixed_transaction<A: TmAlgorithm>(stm: &Arc<A>) -> u64 {
    let block = stm.heap().alloc_zeroed(8).unwrap();
    // Two words per stripe at the default grain: start on a stripe boundary.
    let base = block.offset(block.index() % 2);
    let (a, b, c) = (base, base.offset(2), base.offset(4));
    let mut ctx = ThreadContext::register(Arc::clone(stm));
    let me = Arc::clone(stm.registry().shared(ctx.slot()));
    let (value, priority) = ctx
        .atomically(|tx| {
            tx.read(a)?;
            tx.read(b)?;
            tx.write(c, 1)?;
            tx.write(c, 2)?;
            tx.write(c.offset(1), 3)?;
            let value = tx.read(c)?;
            tx.read(a)?;
            Ok((value, me.priority()))
        })
        .unwrap();
    assert_eq!(value, 2, "{}: read-after-write", stm.name());
    assert_eq!(ctx.stats().reads, 4, "{}: reads", stm.name());
    assert_eq!(ctx.stats().writes, 3, "{}: writes", stm.name());
    priority
}

/// The sequence of the encounter-time STMs: one `on_read` per logged read
/// (the read-after-write is served from the redo log and logs nothing) and
/// one `on_write` per acquired stripe.
const EAGER_HOOKS: [HookCall; 6] = [
    HookCall::Start(false),
    HookCall::Read(1),
    HookCall::Read(2),
    HookCall::Write(1),
    HookCall::Read(3),
    HookCall::Commit,
];

/// TL2 buffers every write and reports the redo log's length each time.
const TL2_HOOKS: [HookCall; 8] = [
    HookCall::Start(false),
    HookCall::Read(1),
    HookCall::Read(2),
    HookCall::Write(1),
    HookCall::Write(1),
    HookCall::Write(2),
    HookCall::Read(3),
    HookCall::Commit,
];

/// Runs [`fixed_transaction`] on the STM `build` makes, once under a
/// recording manager (which never says whether it observes reads) and once
/// under plain Polka (which says it does): `hooks` is the exact sequence the
/// first must receive, and the second must end the body with one priority
/// point per read and write hook and commit back to zero.
fn assert_hook_delivery<A: TmAlgorithm>(build: impl Fn(CmHandle) -> A, hooks: &[HookCall]) {
    let recording = Arc::new(RecordingCm::new(Arc::new(Timid::new()) as CmHandle));
    let stm = Arc::new(build(Arc::clone(&recording) as CmHandle));
    fixed_transaction(&stm);
    assert_eq!(recording.hook_calls(), hooks, "{}: hooks", stm.name());

    let stm = Arc::new(build(Arc::new(Polka::new())));
    let accesses = hooks
        .iter()
        .filter(|call| matches!(call, HookCall::Read(_) | HookCall::Write(_)))
        .count() as u64;
    assert_eq!(fixed_transaction(&stm), accesses, "{}: Polka", stm.name());
    let shared = stm.registry().iter_registered().next().unwrap();
    assert_eq!(shared.priority(), 0, "{}: after commit", stm.name());
}

#[test]
fn hook_delivery_is_pinned_on_every_stm() {
    assert_hook_delivery(
        |cm| {
            SwissTm::builder()
                .config(config())
                .contention_manager(cm)
                .build()
        },
        &EAGER_HOOKS,
    );
    assert_hook_delivery(
        |cm| {
            Tl2::builder()
                .config(config())
                .contention_manager(cm)
                .build()
        },
        &TL2_HOOKS,
    );
    assert_hook_delivery(
        |cm| {
            TinyStm::builder()
                .config(config())
                .contention_manager(cm)
                .build()
        },
        &EAGER_HOOKS,
    );
    assert_hook_delivery(
        |cm| {
            Rstm::builder()
                .config(config())
                .contention_manager(cm)
                .build()
        },
        &EAGER_HOOKS,
    );
}
