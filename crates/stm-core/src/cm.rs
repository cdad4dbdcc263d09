//! Contention managers.
//!
//! A contention manager decides what happens when a transaction (the
//! *attacker*) conflicts with another transaction (the *victim*, usually the
//! current owner of a write lock). The paper evaluates several policies
//! (Section 2.1 and Section 5) and contributes the **two-phase** manager
//! used by SwissTM (Algorithm 2). All of them are provided here so that the
//! Figure 9/10/12 and Table 1 experiments can mix and match managers and
//! STM algorithms:
//!
//! * [`Timid`] — always abort the attacker (default of TL2 and TinySTM),
//!   optionally with randomized linear back-off on rollback.
//! * [`Greedy`] — every transaction draws a unique timestamp at its first
//!   start; the older transaction always wins. Starvation-free.
//! * [`Serializer`] — like Greedy but draws a *new* timestamp on every
//!   restart, so it does not prevent starvation.
//! * [`Polka`] — priority = number of locations accessed; the attacker
//!   backs off once per point of priority deficit, up to a bounded number of
//!   waits per attempt and for exponentially growing intervals, then aborts
//!   the victim.
//! * [`TwoPhase`] — the paper's manager: transactions are timid until they
//!   have performed `Wn` writes, then they join the Greedy order; rollback
//!   uses randomized linear back-off.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::backoff;
use crate::clock::{GlobalClock, TxShared, CM_TS_INFINITY};

/// Decision returned by [`ContentionManager::resolve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// The attacker must abort itself (and later retry).
    AbortSelf,
    /// The victim should be aborted; the attacker may then retry the
    /// conflicting operation.
    AbortOther,
    /// The attacker should wait (briefly) and retry the conflicting
    /// operation without aborting anyone.
    Wait,
}

/// A pluggable contention-management policy.
///
/// The hooks mirror the call sites of the paper's Algorithm 1: transaction
/// start, successful write, write/write conflict, rollback and commit.
/// Implementations must be cheap and lock-free: they run on the STM fast
/// path.
pub trait ContentionManager: Send + Sync + 'static {
    /// Called when a transaction attempt starts. `is_restart` is `true` when
    /// the attempt re-executes a previously aborted transaction.
    fn on_start(&self, me: &TxShared, is_restart: bool) {
        let _ = (me, is_restart);
    }

    /// Called after a successful transactional write; `writes_so_far` counts
    /// the distinct writes of the current attempt.
    fn on_write(&self, me: &TxShared, writes_so_far: usize) {
        let _ = (me, writes_so_far);
    }

    /// Called after a transactional read; `reads_so_far` counts the reads of
    /// the current attempt. Only priority-accumulating managers care.
    fn on_read(&self, me: &TxShared, reads_so_far: usize) {
        let _ = (me, reads_so_far);
    }

    /// What this manager wants of a transactional read, in the three states
    /// an STM's inline read path can act on (see [`ReadHook`]). Asked once,
    /// when the STM is built; a manager that answers [`ReadHook::Ignore`]
    /// never receives [`ContentionManager::on_read`], which takes a virtual
    /// call off every transactional read. The default is [`ReadHook::Call`],
    /// so a manager that does not say (a custom one, a test decorator)
    /// keeps receiving every hook.
    fn read_hook(&self) -> ReadHook {
        ReadHook::Call
    }

    /// Resolves a write/write conflict between the attacker `me` and the
    /// current `owner` of the contended location.
    fn resolve(&self, me: &TxShared, owner: &TxShared) -> Resolution;

    /// Called when the transaction rolls back; usually implements the
    /// post-abort back-off policy.
    fn on_rollback(&self, me: &TxShared) {
        let _ = me;
    }

    /// Called when the transaction commits.
    fn on_commit(&self, me: &TxShared) {
        let _ = me;
    }

    /// Human-readable policy name (used in experiment tables).
    fn name(&self) -> &'static str;
}

impl fmt::Debug for dyn ContentionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContentionManager({})", self.name())
    }
}

/// Shared handle to a contention manager.
pub type CmHandle = Arc<dyn ContentionManager>;

/// A manager's build-time answer to "what do you want of a read?"
/// ([`ContentionManager::read_hook`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadHook {
    /// Nothing: `on_read` is never delivered.
    Ignore,
    /// One access counted: the manager's `on_read` is exactly
    /// [`TxShared::bump_priority`] on `me`, whatever `reads_so_far` is, so
    /// the STM performs that owner-only load + store in place and never
    /// calls the hook. A manager answering this promises the equivalence.
    CountAccess,
    /// Every `on_read` is delivered through the handle.
    Call,
}

/// A contention manager as an STM instance holds it: the handle plus the
/// manager's build-time answer to [`ContentionManager::read_hook`].
/// Dereferences to the manager for every hook but `on_read`, which it
/// delivers by that answer — a virtual call only to a manager that asked
/// for one.
#[derive(Debug)]
pub struct InstalledCm {
    cm: CmHandle,
    read_hook: ReadHook,
}

impl InstalledCm {
    /// Installs `cm`, asking it once what it wants of reads.
    pub fn new(cm: CmHandle) -> Self {
        InstalledCm {
            read_hook: cm.read_hook(),
            cm,
        }
    }

    /// Whether the STM may run log-free attempts under this manager
    /// ([`crate::tm::TmAlgorithm::begin_read_only`]): their reads deliver no
    /// hook, which a manager that ignores reads does not notice and one that
    /// counts accesses is paid for in one step when the attempt aborts. A
    /// manager that wants every `on_read` call declines the mode.
    #[inline]
    pub fn admits_log_free_reads(&self) -> bool {
        self.read_hook != ReadHook::Call
    }

    /// [`ContentionManager::on_read`], delivered as the manager asked.
    #[inline]
    pub fn on_read(&self, me: &TxShared, reads_so_far: usize) {
        match self.read_hook {
            ReadHook::Ignore => {}
            ReadHook::CountAccess => me.bump_priority(),
            ReadHook::Call => self.cm.on_read(me, reads_so_far),
        }
    }

    /// The end of a read on an STM's inline path: runs `log` (the read-log
    /// push that cannot grow the log) and gives the manager its due without
    /// a call. `false` — nothing logged, nothing counted — when `log` said
    /// so or the manager wants the call; the STM then takes its out-of-line
    /// path, which logs and delivers [`InstalledCm::on_read`].
    ///
    /// One copy of `log` and the count *after* it, on purpose. Any form in
    /// which the manager that ignores reads keeps a single test of the
    /// build-time answer (a `match` with the push in two arms; a room check,
    /// then a `match` that counts, then the push; the same with the counting
    /// arm marked cold) makes LLVM duplicate the push and the caller's
    /// continuation per read site — STMBench7's traversal functions grew by
    /// 12–20 % and SwissTM, which counts nothing, lost 4.7 % on
    /// `bench7-write-2t`. Here that manager pays a second compare of the
    /// byte it already loaded, and the code is the size it was.
    #[inline(always)]
    pub fn on_inline_read(&self, me: &TxShared, log: impl FnOnce() -> bool) -> bool {
        if self.read_hook == ReadHook::Call || !log() {
            return false;
        }
        if self.read_hook == ReadHook::CountAccess {
            me.bump_priority();
        }
        true
    }
}

impl std::ops::Deref for InstalledCm {
    type Target = dyn ContentionManager;

    #[inline]
    fn deref(&self) -> &Self::Target {
        &*self.cm
    }
}

/// Randomized linear back-off after a rollback, recorded in the thread's
/// contention telemetry (spin count and wall-clock time). Only runs on the
/// abort path, so the `Instant` samples never touch the fast path.
fn timed_rollback_backoff(me: &TxShared) {
    let start = Instant::now();
    let spins = backoff::wait_random_linear(me.successive_aborts());
    me.telemetry().record_backoff(spins, start.elapsed());
}

// ---------------------------------------------------------------------------
// Timid
// ---------------------------------------------------------------------------

/// Always abort the attacker. Optionally backs off after rollback.
#[derive(Debug)]
pub struct Timid {
    backoff_on_rollback: bool,
}

impl Timid {
    /// Timid manager without any back-off (TL2/TinySTM default behaviour).
    pub fn new() -> Self {
        Timid {
            backoff_on_rollback: false,
        }
    }

    /// Timid manager with randomized linear back-off after rollback.
    pub fn with_backoff() -> Self {
        Timid {
            backoff_on_rollback: true,
        }
    }
}

impl Default for Timid {
    fn default() -> Self {
        Timid::new()
    }
}

impl ContentionManager for Timid {
    fn resolve(&self, _me: &TxShared, _owner: &TxShared) -> Resolution {
        Resolution::AbortSelf
    }

    fn on_rollback(&self, me: &TxShared) {
        if self.backoff_on_rollback {
            timed_rollback_backoff(me);
        }
    }

    fn read_hook(&self) -> ReadHook {
        ReadHook::Ignore
    }

    fn name(&self) -> &'static str {
        if self.backoff_on_rollback {
            "timid+backoff"
        } else {
            "timid"
        }
    }
}

// ---------------------------------------------------------------------------
// Greedy
// ---------------------------------------------------------------------------

/// The Greedy manager of Guerraoui, Herlihy and Pochon: each transaction
/// draws a unique, monotonically increasing timestamp at its *first* start
/// and keeps it across restarts; the transaction with the lower timestamp
/// always wins. Starvation-free.
#[derive(Debug)]
pub struct Greedy {
    clock: GlobalClock,
}

impl Greedy {
    /// Creates a Greedy manager with its own timestamp clock.
    pub fn new() -> Self {
        Greedy {
            clock: GlobalClock::new(),
        }
    }
}

impl Default for Greedy {
    fn default() -> Self {
        Greedy::new()
    }
}

impl ContentionManager for Greedy {
    fn on_start(&self, me: &TxShared, is_restart: bool) {
        if !is_restart {
            me.set_cm_ts(self.clock.increment_and_get());
        }
    }

    fn resolve(&self, me: &TxShared, owner: &TxShared) -> Resolution {
        if owner.cm_ts() < me.cm_ts() {
            Resolution::AbortSelf
        } else {
            Resolution::AbortOther
        }
    }

    fn on_commit(&self, me: &TxShared) {
        me.set_cm_ts(CM_TS_INFINITY);
    }

    fn read_hook(&self) -> ReadHook {
        ReadHook::Ignore
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

// ---------------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------------

/// Like [`Greedy`], but a transaction draws a *fresh* timestamp on every
/// restart, so long transactions can starve (this is the manager the paper
/// uses for RSTM in STMBench7).
#[derive(Debug)]
pub struct Serializer {
    clock: GlobalClock,
}

impl Serializer {
    /// Creates a Serializer manager with its own timestamp clock.
    pub fn new() -> Self {
        Serializer {
            clock: GlobalClock::new(),
        }
    }
}

impl Default for Serializer {
    fn default() -> Self {
        Serializer::new()
    }
}

impl ContentionManager for Serializer {
    fn on_start(&self, me: &TxShared, _is_restart: bool) {
        // New timestamp on every attempt, including restarts.
        me.set_cm_ts(self.clock.increment_and_get());
    }

    fn resolve(&self, me: &TxShared, owner: &TxShared) -> Resolution {
        if owner.cm_ts() < me.cm_ts() {
            Resolution::AbortSelf
        } else {
            Resolution::AbortOther
        }
    }

    fn on_commit(&self, me: &TxShared) {
        me.set_cm_ts(CM_TS_INFINITY);
    }

    fn read_hook(&self) -> ReadHook {
        ReadHook::Ignore
    }

    fn name(&self) -> &'static str {
        "serializer"
    }
}

// ---------------------------------------------------------------------------
// Polka
// ---------------------------------------------------------------------------

/// The Polka manager of Scherer and Scott: the attacker's priority is the
/// number of locations it has accessed; a lower-priority attacker backs off
/// "for a number of intervals equal to the priority difference, of
/// exponentially increasing length" — one priority point gained per wait,
/// the `k`-th wait of an attempt drawn from `[0, 2^k)` back-off units — and
/// aborts the victim (never itself) once its boosted priority reaches the
/// victim's or its wait budget is exhausted.
///
/// The wait budget is accounted *per transaction attempt*: once an attempt
/// has spent `attempts` waits (across all of its conflicts), every further
/// conflict resolves to `AbortOther` immediately. The earlier revision of
/// this manager resolved an exhausted budget with `AbortSelf`, which
/// contradicts the original Polka's "back off N times, then abort the
/// enemy" rule and made the budget edge cases untestable (`attempts = 0`
/// degenerated to timid instead of to pure priority arbitration).
#[derive(Debug)]
pub struct Polka {
    /// Maximum number of back-off rounds per attempt before forcibly
    /// aborting the victim.
    max_attempts: u32,
}

impl Polka {
    /// Default number of back-off rounds used by the original Polka paper.
    pub const DEFAULT_ATTEMPTS: u32 = 22;

    /// Creates a Polka manager with the default wait budget.
    pub fn new() -> Self {
        Polka {
            max_attempts: Self::DEFAULT_ATTEMPTS,
        }
    }

    /// Creates a Polka manager with an explicit wait budget. `attempts = 0`
    /// never waits: every conflict resolves to `AbortOther` immediately
    /// (the priority comparison only decides whether a wait would have been
    /// attempted first).
    pub fn with_attempts(attempts: u32) -> Self {
        Polka {
            max_attempts: attempts,
        }
    }
}

impl Default for Polka {
    fn default() -> Self {
        Polka::new()
    }
}

impl ContentionManager for Polka {
    fn on_start(&self, me: &TxShared, is_restart: bool) {
        if !is_restart {
            me.set_priority(0);
        }
        // Priorities persist across restarts (Karma heritage): aborted work
        // still counts. The wait budget, however, is per attempt.
        me.reset_cm_waits();
    }

    /// Exactly `bump_priority`: what [`ReadHook::CountAccess`] promises.
    fn on_read(&self, me: &TxShared, _reads_so_far: usize) {
        me.bump_priority();
    }

    fn read_hook(&self) -> ReadHook {
        ReadHook::CountAccess
    }

    fn on_write(&self, me: &TxShared, _writes_so_far: usize) {
        me.bump_priority();
    }

    fn resolve(&self, me: &TxShared, owner: &TxShared) -> Resolution {
        // The driver calls `resolve` repeatedly while the conflict persists.
        // Each round the attacker backs off and boosts its priority by one,
        // so against a static owner the *number* of waits is the initial
        // priority deficit, capped by the per-attempt budget; in both cases
        // the conflict ends with the *enemy* aborted, exactly as the
        // original Polka specifies. The *length* of a wait grows with the
        // round — how many waits this attempt has already made — and not
        // with the deficit: any owner 16 accesses ahead would otherwise earn
        // the longest wait there is (tens of milliseconds, see `backoff`)
        // on the very first round, slept holding encounter-time locks.
        let my_priority = me.priority();
        let owner_priority = owner.priority();
        if my_priority >= owner_priority {
            return Resolution::AbortOther;
        }
        let round = me.cm_wait_count();
        if round >= u64::from(self.max_attempts) {
            return Resolution::AbortOther;
        }
        me.bump_cm_waits();
        me.bump_priority();
        let start = Instant::now();
        // `round < max_attempts`, a u32. The waiter holds write locks: it
        // gives the wait up as soon as somebody asks *it* to abort, and
        // watches nothing the owner writes.
        let spins = backoff::wait_random_exponential_unless(round as u32, || me.abort_requested());
        me.telemetry().record_backoff(spins, start.elapsed());
        Resolution::Wait
    }

    fn on_commit(&self, me: &TxShared) {
        me.set_priority(0);
    }

    fn name(&self) -> &'static str {
        "polka"
    }
}

// ---------------------------------------------------------------------------
// TwoPhase (the paper's contribution, Algorithm 2)
// ---------------------------------------------------------------------------

/// The paper's two-phase contention manager.
///
/// Phase one ("timid"): a transaction that has performed fewer than `Wn`
/// writes has `cm-ts = ∞` and aborts itself on any write/write conflict.
/// Phase two ("greedy"): upon its `Wn`-th write the transaction increments
/// the shared `greedy-ts` clock and adopts the value; conflicts between two
/// phase-two transactions are resolved in favour of the *older* timestamp
/// (the one that has been running — and working — longer). Rollback applies
/// randomized linear back-off proportional to the number of successive
/// aborts.
#[derive(Debug)]
pub struct TwoPhase {
    greedy_clock: GlobalClock,
    wn: usize,
    backoff_on_rollback: bool,
}

impl TwoPhase {
    /// The paper's write-count threshold (`Wn = 10`).
    pub const DEFAULT_WN: usize = 10;

    /// Creates the manager with the paper's parameters.
    pub fn new() -> Self {
        TwoPhase {
            greedy_clock: GlobalClock::new(),
            wn: Self::DEFAULT_WN,
            backoff_on_rollback: true,
        }
    }

    /// Creates the manager with a custom `Wn` threshold (used by the extra
    /// `Wn` ablation bench). `wn = 0` degenerates to a fully greedy manager:
    /// the transaction enters the second phase on its very first write.
    pub fn with_wn(wn: usize) -> Self {
        TwoPhase {
            greedy_clock: GlobalClock::new(),
            wn,
            backoff_on_rollback: true,
        }
    }

    /// Disables the post-rollback back-off (the "no backoff" series of
    /// Figure 11).
    pub fn without_backoff(mut self) -> Self {
        self.backoff_on_rollback = false;
        self
    }

    /// The configured `Wn` threshold.
    pub fn wn(&self) -> usize {
        self.wn
    }
}

impl Default for TwoPhase {
    fn default() -> Self {
        TwoPhase::new()
    }
}

impl ContentionManager for TwoPhase {
    fn on_start(&self, me: &TxShared, is_restart: bool) {
        // cm-start: only a *fresh* transaction resets its timestamp; a
        // restarted transaction keeps the timestamp it may have acquired, so
        // that its accumulated work keeps being prioritised.
        if !is_restart {
            me.set_cm_ts(CM_TS_INFINITY);
        }
    }

    fn on_write(&self, me: &TxShared, writes_so_far: usize) {
        // cm-on-write: upon the Wn-th write, enter the second phase. `>=`
        // rather than `==` so that `Wn = 0` means "greedy from the first
        // write": `writes_so_far` starts at 1, so an equality test would
        // never fire for a zero threshold.
        if me.cm_ts() == CM_TS_INFINITY && writes_so_far >= self.wn {
            me.set_cm_ts(self.greedy_clock.increment_and_get());
        }
    }

    fn resolve(&self, me: &TxShared, owner: &TxShared) -> Resolution {
        // cm-should-abort.
        if me.cm_ts() == CM_TS_INFINITY {
            return Resolution::AbortSelf;
        }
        if owner.cm_ts() < me.cm_ts() {
            Resolution::AbortSelf
        } else {
            Resolution::AbortOther
        }
    }

    fn on_rollback(&self, me: &TxShared) {
        if self.backoff_on_rollback {
            timed_rollback_backoff(me);
        }
    }

    fn on_commit(&self, me: &TxShared) {
        me.set_cm_ts(CM_TS_INFINITY);
    }

    fn read_hook(&self) -> ReadHook {
        ReadHook::Ignore
    }

    fn name(&self) -> &'static str {
        if self.backoff_on_rollback {
            "two-phase"
        } else {
            "two-phase(no-backoff)"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ThreadRegistry;

    fn two_txs() -> (
        ThreadRegistry,
        crate::clock::ThreadSlot,
        crate::clock::ThreadSlot,
    ) {
        let reg = ThreadRegistry::new();
        let a = reg.register().unwrap();
        let b = reg.register().unwrap();
        (reg, a, b)
    }

    #[test]
    fn timid_always_aborts_self() {
        let (reg, a, b) = two_txs();
        let cm = Timid::new();
        assert_eq!(
            cm.resolve(reg.shared(a), reg.shared(b)),
            Resolution::AbortSelf
        );
        assert_eq!(cm.name(), "timid");
        assert_eq!(Timid::with_backoff().name(), "timid+backoff");
    }

    #[test]
    fn greedy_older_transaction_wins() {
        let (reg, a, b) = two_txs();
        let cm = Greedy::new();
        cm.on_start(reg.shared(a), false); // ts 1
        cm.on_start(reg.shared(b), false); // ts 2
                                           // b attacks a: a is older, so b must abort itself.
        assert_eq!(
            cm.resolve(reg.shared(b), reg.shared(a)),
            Resolution::AbortSelf
        );
        // a attacks b: a is older, so it may abort b.
        assert_eq!(
            cm.resolve(reg.shared(a), reg.shared(b)),
            Resolution::AbortOther
        );
    }

    #[test]
    fn greedy_timestamp_survives_restart() {
        let (reg, a, _) = two_txs();
        let cm = Greedy::new();
        cm.on_start(reg.shared(a), false);
        let ts = reg.shared(a).cm_ts();
        cm.on_start(reg.shared(a), true);
        assert_eq!(reg.shared(a).cm_ts(), ts);
        cm.on_commit(reg.shared(a));
        assert_eq!(reg.shared(a).cm_ts(), CM_TS_INFINITY);
    }

    #[test]
    fn serializer_redraws_timestamp_on_restart() {
        let (reg, a, _) = two_txs();
        let cm = Serializer::new();
        cm.on_start(reg.shared(a), false);
        let ts = reg.shared(a).cm_ts();
        cm.on_start(reg.shared(a), true);
        assert!(reg.shared(a).cm_ts() > ts);
    }

    #[test]
    fn two_phase_first_phase_is_timid() {
        let (reg, a, b) = two_txs();
        let cm = TwoPhase::new();
        cm.on_start(reg.shared(a), false);
        cm.on_start(reg.shared(b), false);
        // Neither has performed Wn writes: attacker aborts itself.
        assert_eq!(
            cm.resolve(reg.shared(a), reg.shared(b)),
            Resolution::AbortSelf
        );
    }

    #[test]
    fn two_phase_wn_zero_is_greedy_from_the_first_write() {
        let (reg, a, b) = two_txs();
        let cm = TwoPhase::with_wn(0);
        cm.on_start(reg.shared(a), false);
        cm.on_start(reg.shared(b), false);
        // The very first write promotes to the second (greedy) phase:
        // writes_so_far starts at 1, so a zero threshold must not be able to
        // slip past an equality comparison.
        cm.on_write(reg.shared(a), 1);
        assert_ne!(
            reg.shared(a).cm_ts(),
            CM_TS_INFINITY,
            "wn = 0 must promote on the first write"
        );
        // The timestamp is drawn exactly once: later writes keep it.
        let ts = reg.shared(a).cm_ts();
        cm.on_write(reg.shared(a), 2);
        assert_eq!(reg.shared(a).cm_ts(), ts);
        // Promoted-vs-timid resolution favours the promoted transaction.
        assert_eq!(
            cm.resolve(reg.shared(a), reg.shared(b)),
            Resolution::AbortOther
        );
        cm.on_commit(reg.shared(a));
        assert_eq!(reg.shared(a).cm_ts(), CM_TS_INFINITY);
    }

    #[test]
    fn two_phase_promotes_after_wn_writes() {
        let (reg, a, b) = two_txs();
        let cm = TwoPhase::with_wn(3);
        cm.on_start(reg.shared(a), false);
        cm.on_start(reg.shared(b), false);
        for w in 1..=3 {
            cm.on_write(reg.shared(a), w);
        }
        assert_ne!(reg.shared(a).cm_ts(), CM_TS_INFINITY);
        // a is in phase two, b is in phase one: a wins against b.
        assert_eq!(
            cm.resolve(reg.shared(a), reg.shared(b)),
            Resolution::AbortOther
        );
        // b (phase one) still aborts itself.
        assert_eq!(
            cm.resolve(reg.shared(b), reg.shared(a)),
            Resolution::AbortSelf
        );
    }

    #[test]
    fn two_phase_short_transactions_never_touch_greedy_clock() {
        let (reg, a, _) = two_txs();
        let cm = TwoPhase::new();
        cm.on_start(reg.shared(a), false);
        for w in 1..TwoPhase::DEFAULT_WN {
            cm.on_write(reg.shared(a), w);
        }
        assert_eq!(reg.shared(a).cm_ts(), CM_TS_INFINITY);
    }

    #[test]
    fn two_phase_older_phase_two_transaction_wins() {
        let (reg, a, b) = two_txs();
        let cm = TwoPhase::with_wn(1);
        cm.on_start(reg.shared(a), false);
        cm.on_start(reg.shared(b), false);
        cm.on_write(reg.shared(a), 1); // ts 1
        cm.on_write(reg.shared(b), 1); // ts 2
        assert_eq!(
            cm.resolve(reg.shared(b), reg.shared(a)),
            Resolution::AbortSelf
        );
        assert_eq!(
            cm.resolve(reg.shared(a), reg.shared(b)),
            Resolution::AbortOther
        );
    }

    #[test]
    fn two_phase_commit_resets_timestamp() {
        let (reg, a, _) = two_txs();
        let cm = TwoPhase::with_wn(1);
        cm.on_start(reg.shared(a), false);
        cm.on_write(reg.shared(a), 1);
        cm.on_commit(reg.shared(a));
        assert_eq!(reg.shared(a).cm_ts(), CM_TS_INFINITY);
    }

    #[test]
    fn polka_higher_priority_attacker_aborts_victim() {
        let (reg, a, b) = two_txs();
        let cm = Polka::new();
        cm.on_start(reg.shared(a), false);
        cm.on_start(reg.shared(b), false);
        reg.shared(a).set_priority(10);
        reg.shared(b).set_priority(2);
        assert_eq!(
            cm.resolve(reg.shared(a), reg.shared(b)),
            Resolution::AbortOther
        );
    }

    #[test]
    fn polka_lower_priority_attacker_waits_and_boosts() {
        let (reg, a, b) = two_txs();
        let cm = Polka::with_attempts(4);
        cm.on_start(reg.shared(a), false);
        cm.on_start(reg.shared(b), false);
        reg.shared(a).set_priority(1);
        reg.shared(b).set_priority(3);
        let r = cm.resolve(reg.shared(a), reg.shared(b));
        assert_eq!(r, Resolution::Wait);
        assert_eq!(reg.shared(a).priority(), 2);
    }

    /// The attempt bound, pinned exactly: with a deficit of `k ≤ attempts`
    /// the attacker waits exactly `k` times (catching up one priority per
    /// wait) and the `k+1`-th resolve aborts the *victim* — never the
    /// attacker.
    #[test]
    fn polka_waits_exactly_deficit_times_then_aborts_the_victim() {
        let (reg, a, b) = two_txs();
        let cm = Polka::with_attempts(10);
        cm.on_start(reg.shared(a), false);
        cm.on_start(reg.shared(b), false);
        reg.shared(b).set_priority(3);
        for round in 0..3 {
            assert_eq!(
                cm.resolve(reg.shared(a), reg.shared(b)),
                Resolution::Wait,
                "round {round} must wait"
            );
        }
        assert_eq!(
            cm.resolve(reg.shared(a), reg.shared(b)),
            Resolution::AbortOther
        );
    }

    /// The budget caps the waits even when the deficit is larger: exactly
    /// `attempts` waits precede the `AbortOther`.
    #[test]
    fn polka_exhausted_budget_aborts_the_victim_after_exactly_max_waits() {
        let (reg, a, b) = two_txs();
        let cm = Polka::with_attempts(2);
        cm.on_start(reg.shared(a), false);
        cm.on_start(reg.shared(b), false);
        reg.shared(b).set_priority(100);
        assert_eq!(cm.resolve(reg.shared(a), reg.shared(b)), Resolution::Wait);
        assert_eq!(cm.resolve(reg.shared(a), reg.shared(b)), Resolution::Wait);
        // Budget (2) spent: the victim is aborted, the attacker never is.
        assert_eq!(
            cm.resolve(reg.shared(a), reg.shared(b)),
            Resolution::AbortOther
        );
    }

    /// Edge case mirroring `TwoPhase::with_wn(0)`: a zero wait budget must
    /// degenerate to pure priority arbitration with no waiting at all, not
    /// to a timid manager that aborts itself.
    #[test]
    fn polka_with_attempts_zero_never_waits() {
        let (reg, a, b) = two_txs();
        let cm = Polka::with_attempts(0);
        cm.on_start(reg.shared(a), false);
        cm.on_start(reg.shared(b), false);
        reg.shared(b).set_priority(50);
        assert_eq!(
            cm.resolve(reg.shared(a), reg.shared(b)),
            Resolution::AbortOther,
            "attempts = 0 must not be able to slip into the wait branch"
        );
        assert_eq!(reg.shared(a).priority(), 0, "no wait, no priority boost");
    }

    /// A deficit beyond `u32::MAX` must not truncate into a tiny back-off
    /// exponent: the wait is the capped maximum, and the resolve still
    /// terminates promptly.
    #[test]
    fn polka_huge_deficit_waits_with_the_capped_exponent() {
        let (reg, a, b) = two_txs();
        let cm = Polka::with_attempts(1);
        cm.on_start(reg.shared(a), false);
        cm.on_start(reg.shared(b), false);
        reg.shared(b).set_priority(u64::MAX - 1);
        assert_eq!(cm.resolve(reg.shared(a), reg.shared(b)), Resolution::Wait);
        assert_eq!(
            cm.resolve(reg.shared(a), reg.shared(b)),
            Resolution::AbortOther
        );
    }

    /// Back-off spins `me` recorded since the last call.
    fn drain_backoff_spins(me: &TxShared) -> u64 {
        let mut counters = crate::telemetry::ContentionCounters::default();
        me.telemetry().drain_into(&mut counters);
        counters.backoff_spins
    }

    /// The length of a wait follows the round, not the deficit: against an
    /// owner a million accesses ahead the `k`-th wait of the attempt stays
    /// below `2^k` back-off units, and the number of waits is still the
    /// budget. The late rounds' windows are tens of milliseconds wide; the
    /// test hurries through them by asking the waiter to abort, which cuts
    /// the sleep short and must not change a single decision.
    #[test]
    fn polka_wait_windows_grow_with_the_round_not_the_deficit() {
        let (reg, a, b) = two_txs();
        let (me, owner) = (reg.shared(a), reg.shared(b));
        let cm = Polka::new();
        cm.on_start(me, false);
        cm.on_start(owner, false);
        owner.set_priority(1_000_000);
        let mut total = 0;
        for round in 0..8 {
            assert_eq!(cm.resolve(me, owner), Resolution::Wait);
            let spins = drain_backoff_spins(me);
            assert!(
                spins < (1 << round) * backoff::BACKOFF_UNIT,
                "wait {round} spun {spins} times"
            );
            total += spins;
        }
        assert!(total <= 255 * backoff::BACKOFF_UNIT);

        me.request_abort();
        let mut waits = 8;
        while cm.resolve(me, owner) == Resolution::Wait {
            waits += 1;
            assert!(waits <= Polka::DEFAULT_ATTEMPTS, "budget overrun");
        }
        assert_eq!(waits, Polka::DEFAULT_ATTEMPTS);
        assert_eq!(me.priority(), u64::from(Polka::DEFAULT_ATTEMPTS));
        assert_eq!(cm.resolve(me, owner), Resolution::AbortOther);

        let cm = Polka::with_attempts(0);
        cm.on_start(me, false);
        assert_eq!(cm.resolve(me, owner), Resolution::AbortOther);
        assert_eq!(drain_backoff_spins(me), 0, "a zero budget never waits");
    }

    /// A waiter sleeps holding its write locks, so it must hear its own
    /// abort request: with the flag already set, even a wait of the widest
    /// window (4.2 M spins) returns within one poll interval — and is still
    /// a wait, with its priority point.
    #[test]
    fn polka_wait_hears_its_own_abort_request() {
        let (reg, a, b) = two_txs();
        let (me, owner) = (reg.shared(a), reg.shared(b));
        let cm = Polka::new();
        cm.on_start(me, false);
        owner.set_priority(1_000_000);
        for _ in 0..backoff::MAX_EXPONENT {
            me.bump_cm_waits();
        }
        me.request_abort();
        assert_eq!(cm.resolve(me, owner), Resolution::Wait);
        assert!(drain_backoff_spins(me) <= backoff::BACKOFF_UNIT);
        assert_eq!(me.priority(), 1);
        assert_eq!(me.cm_wait_count(), u64::from(backoff::MAX_EXPONENT) + 1);
    }

    /// The wait budget is per attempt: a restart resets it.
    #[test]
    fn polka_wait_budget_resets_on_restart() {
        let (reg, a, b) = two_txs();
        let cm = Polka::with_attempts(1);
        cm.on_start(reg.shared(a), false);
        cm.on_start(reg.shared(b), false);
        reg.shared(b).set_priority(100);
        assert_eq!(cm.resolve(reg.shared(a), reg.shared(b)), Resolution::Wait);
        assert_eq!(
            cm.resolve(reg.shared(a), reg.shared(b)),
            Resolution::AbortOther
        );
        cm.on_start(reg.shared(a), true);
        assert_eq!(
            cm.resolve(reg.shared(a), reg.shared(b)),
            Resolution::Wait,
            "a fresh attempt gets a fresh wait budget"
        );
    }

    #[test]
    fn polka_tracks_accesses_as_priority() {
        let (reg, a, _) = two_txs();
        let cm = Polka::new();
        cm.on_start(reg.shared(a), false);
        cm.on_read(reg.shared(a), 1);
        cm.on_read(reg.shared(a), 2);
        cm.on_write(reg.shared(a), 1);
        assert_eq!(reg.shared(a).priority(), 3);
        cm.on_commit(reg.shared(a));
        assert_eq!(reg.shared(a).priority(), 0);
    }

    /// A manager that does not say.
    struct Silent;

    impl ContentionManager for Silent {
        fn resolve(&self, _me: &TxShared, _owner: &TxShared) -> Resolution {
            Resolution::AbortSelf
        }

        fn name(&self) -> &'static str {
            "silent"
        }
    }

    /// Of the built-in managers only Polka wants reads; every other hook
    /// reaches an installed manager through the deref.
    #[test]
    fn only_polka_observes_reads() {
        let observers: Vec<&str> = [
            Arc::new(Timid::new()) as CmHandle,
            Arc::new(Greedy::new()),
            Arc::new(Serializer::new()),
            Arc::new(Polka::new()),
            Arc::new(TwoPhase::new()),
        ]
        .iter()
        .filter(|cm| cm.read_hook() != ReadHook::Ignore)
        .map(|cm| cm.name())
        .collect();
        assert_eq!(observers, ["polka"]);

        let (reg, a, _) = two_txs();
        let polka = InstalledCm::new(Arc::new(Polka::new()));
        polka.on_read(reg.shared(a), 1);
        assert_eq!(reg.shared(a).priority(), 1);
        polka.on_write(reg.shared(a), 1);
        assert_eq!(reg.shared(a).priority(), 2);
        assert_eq!(polka.name(), "polka");
    }

    /// The three answers about reads: Polka's is *count one access*, whose
    /// promise its `on_read` keeps; a manager that says nothing is called;
    /// and the inline read path's ending logs, counts or declines
    /// accordingly — never counting a read it did not log.
    #[test]
    fn read_hook_has_three_states() {
        assert_eq!(Polka::new().read_hook(), ReadHook::CountAccess);
        assert_eq!(Silent.read_hook(), ReadHook::Call);
        assert_eq!(TwoPhase::new().read_hook(), ReadHook::Ignore);

        let (reg, a, b) = two_txs();
        let (counted, called) = (reg.shared(a), reg.shared(b));
        let polka = InstalledCm::new(Arc::new(Polka::new()));
        for reads_so_far in [1, 7, 1 << 40] {
            polka.on_read(counted, reads_so_far);
            Polka::new().on_read(called, reads_so_far);
            assert_eq!(counted.priority(), called.priority());
        }

        counted.set_priority(0);
        assert!(polka.on_inline_read(counted, || true));
        assert!(!polka.on_inline_read(counted, || false));
        assert_eq!(counted.priority(), 1, "one logged read, one point");

        let timid = InstalledCm::new(Arc::new(Timid::new()));
        assert!(timid.on_inline_read(counted, || true));
        assert!(!timid.on_inline_read(counted, || false));
        assert_eq!(counted.priority(), 1);

        let silent = InstalledCm::new(Arc::new(Silent));
        assert!(!silent.admits_log_free_reads());
        assert!(!silent.on_inline_read(counted, || panic!("the out-of-line path logs")));
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Timid::new().name(),
            Greedy::new().name(),
            Serializer::new().name(),
            Polka::new().name(),
            TwoPhase::new().name(),
            TwoPhase::new().without_backoff().name(),
        ];
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
