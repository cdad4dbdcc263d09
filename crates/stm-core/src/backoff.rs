//! Back-off policies used after transaction rollbacks and while waiting on
//! conflicts.
//!
//! The paper's SwissTM uses *randomized linear back-off*: after the `k`-th
//! successive abort a transaction spins for a uniformly random number of
//! iterations in `[0, k * UNIT)` before restarting (Algorithm 2, line 11 and
//! Figure 11). Polka uses *exponential* back-off while waiting on a
//! conflicting owner, and the exponent is the **wait round** — how many
//! times this attempt has already backed off — not the priority deficit:
//! Scherer and Scott's Polka backs off "for a number of intervals equal to
//! the priority difference, of exponentially increasing length". The deficit
//! decides *how many* waits there are ([`crate::cm::Polka`]), the round how
//! long each may be: the `k`-th wait of an attempt draws from
//! `[0, 2^min(k, MAX_EXPONENT) * UNIT)`, so a conflict with a long
//! transaction starts with sub-microsecond waits and grows. Both policies are
//! provided here.
//!
//! Every constant here counts `spin_loop` hints, so every back-off is
//! machine-relative: one hint takes about 10.5 ns on the 2-core profile the
//! EXPERIMENTS.md numbers come from and 40–70 ns on bare-metal
//! Skylake-class parts (where `pause` is ~140 cycles). The longest single
//! exponential wait, `2^MAX_EXPONENT * BACKOFF_UNIT` = 4.2 M spins, is up to
//! 44 ms on the former and 170–290 ms on the latter; an attempt reaches it
//! only from its 17th wait on. Nothing is calibrated at run time.

use std::cell::Cell;
#[cfg(not(stm_model))]
use std::hint;

/// Number of spin iterations in one back-off "unit".
pub const BACKOFF_UNIT: u64 = 64;

/// Cap on the exponential back-off exponent to avoid multi-second stalls.
pub const MAX_EXPONENT: u32 = 16;

thread_local! {
    static THREAD_RNG_STATE: Cell<u64> = const { Cell::new(0) };
}

fn thread_seed() -> u64 {
    THREAD_RNG_STATE.with(|state| {
        let mut s = state.get();
        if s == 0 {
            // Derive a per-thread seed from the address of the TLS cell so
            // that threads do not back off in lock step.
            s = (state as *const Cell<u64> as usize as u64) ^ 0x9e37_79b9_7f4a_7c15;
        }
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state.set(s);
        s
    })
}

/// Spins for `iterations` relaxed spin-loop hints.
///
/// Under the model checker (`--cfg stm_model`) this is a no-op: backoff
/// burns wall-clock time to dodge contention, which is meaningless when the
/// scheduler already enumerates every interleaving — and a bounded busy
/// loop is not a schedule point, so spinning here would only slow the DFS
/// down without adding explored states.
#[inline]
pub fn spin(iterations: u64) {
    #[cfg(stm_model)]
    let _ = iterations;
    #[cfg(not(stm_model))]
    for _ in 0..iterations {
        hint::spin_loop();
    }
}

/// Randomized linear back-off: spin for a uniformly random number of
/// iterations in the half-open range `[0, successive_aborts * BACKOFF_UNIT)`.
/// Returns the number of iterations spun, so callers can feed the
/// contention telemetry.
///
/// This is the paper's `wait-random(tx.succ-abort-count)`.
pub fn wait_random_linear(successive_aborts: u64) -> u64 {
    if successive_aborts == 0 {
        return 0;
    }
    let bound = successive_aborts.saturating_mul(BACKOFF_UNIT).max(1);
    let mut rng = FastRng::new(thread_seed());
    let iterations = rng.next_below(bound);
    spin(iterations);
    iterations
}

/// Randomized exponential back-off for a waiter inside a conflict loop,
/// which sleeps holding its write locks: spin for a random number of
/// iterations in the half-open range
/// `[0, 2^min(round, MAX_EXPONENT) * BACKOFF_UNIT)` and return the number
/// spun, so callers can feed the contention telemetry. `cancelled` is asked
/// before the first spin and then every [`BACKOFF_UNIT`] spins — a
/// cancelled waiter stops within a microsecond and the poll is noise — and
/// the wait ends early, returning the iterations actually spun, once it
/// answers `true`. Pass a condition that reads only what the *waiter's*
/// side is told (its own abort-request flag): polling a line the
/// conflicting owner writes on every access makes the wait itself the
/// contention.
pub fn wait_random_exponential_unless(round: u32, cancelled: impl Fn() -> bool) -> u64 {
    let exp = round.min(MAX_EXPONENT);
    let bound = (1u64 << exp).saturating_mul(BACKOFF_UNIT);
    let mut rng = FastRng::new(thread_seed());
    let iterations = rng.next_below(bound);
    if cfg!(stm_model) {
        // `spin` does nothing under the model checker, and every poll would
        // be a schedule point: there is no wait to cancel.
        return iterations;
    }
    let mut spun = 0;
    while spun < iterations && !cancelled() {
        let chunk = (iterations - spun).min(BACKOFF_UNIT);
        spin(chunk);
        spun += chunk;
    }
    spun
}

/// A deterministic, cheap pseudo-random generator for use *inside*
/// transaction bodies of the workloads (so that aborted and re-executed
/// transactions draw fresh values without heap allocation).
///
/// This is a SplitMix64 generator; it is not cryptographically secure.
#[derive(Clone, Debug)]
pub struct FastRng {
    state: u64,
}

impl FastRng {
    /// Creates a generator from a seed (a zero seed is remapped so that the
    /// stream is never all-zero).
    pub fn new(seed: u64) -> Self {
        FastRng {
            state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniformly random value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.next_u64() % bound
    }

    /// Returns `true` with probability `percent / 100`.
    #[inline]
    pub fn chance_percent(&mut self, percent: u64) -> bool {
        self.next_below(100) < percent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_backoff_with_zero_aborts_returns_immediately() {
        assert_eq!(wait_random_linear(0), 0);
        assert!(wait_random_linear(3) < 3 * BACKOFF_UNIT);
    }

    #[test]
    fn exponential_backoff_caps_exponent() {
        // Must terminate quickly even for absurd attempt counts, and report
        // a spin count inside the capped bound.
        let spins = wait_random_exponential_unless(1_000_000, || false);
        assert!(spins < (1u64 << MAX_EXPONENT) * BACKOFF_UNIT);
    }

    /// The window is set by the round, and a cancelled wait reports the
    /// spins it made: none when cancelled from the start, at most one poll
    /// interval past the moment the condition turned.
    #[test]
    fn exponential_backoff_window_follows_the_round_and_stops_when_cancelled() {
        for round in 0..6 {
            for _ in 0..50 {
                assert!(
                    wait_random_exponential_unless(round, || false)
                        < (1u64 << round) * BACKOFF_UNIT
                );
            }
        }
        assert_eq!(wait_random_exponential_unless(MAX_EXPONENT, || true), 0);
        let polls = Cell::new(0u64);
        let spins = wait_random_exponential_unless(MAX_EXPONENT, || {
            polls.set(polls.get() + 1);
            polls.get() > 3
        });
        assert!(spins <= 3 * BACKOFF_UNIT, "{spins} spins after 3 polls");
    }

    #[test]
    fn fast_rng_is_deterministic_per_seed() {
        let mut a = FastRng::new(42);
        let mut b = FastRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fast_rng_streams_differ_between_seeds() {
        let mut a = FastRng::new(1);
        let mut b = FastRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = FastRng::new(7);
        for _ in 0..1000 {
            assert!(rng.next_below(10) < 10);
        }
    }

    #[test]
    fn chance_percent_extremes() {
        let mut rng = FastRng::new(9);
        assert!((0..100).all(|_| !rng.chance_percent(0)));
        assert!((0..100).all(|_| rng.chance_percent(100)));
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut rng = FastRng::new(0);
        assert_ne!(rng.next_u64(), 0);
    }

    #[test]
    fn thread_seed_varies_between_calls() {
        assert_ne!(thread_seed(), thread_seed());
    }
}
