//! The log-free read-only mode against a committer, under both clock modes.
//!
//! A transaction declared read-only (`ThreadContext::atomically_read_only`)
//! starts log-free: each read samples its stripe, checks the version
//! against the snapshot and keeps nothing, and the attempt commits without
//! validating. That is sound only if every sample is itself consistent and
//! every version the snapshot does not cover ends the attempt (an
//! `upgrade`, after which the transaction re-runs logged). Here the reader
//! reads two stripes in order while a committer writes both: whatever the
//! interleaving and whatever stale value a load may return, the reader
//! commits a consistent pair — both old or both new — never a torn one.
//!
//! The scenario covers the two lock shapes the log-free read samples
//! (SwissTM's r-lock beside its w-lock, the one-word versioned lock of TL2
//! and TinySTM) and RSTM's version word, each under the strict and the
//! deferred clock. A read that skips its post-sample — the second lock-word
//! load after the value — returns a value a committer wrote back under a
//! version it had not yet published, which this scenario reports as a torn
//! pair.
//!
//! Under the strict clock a reader that begins with no commit in flight is
//! *quiet*: each read loads its word and then checks that the clock has not
//! moved, sampling no stripe. Whenever the reader begins before the writer
//! stamps or after it retired, it commits quiet, and the scenario asserts
//! that some executions do; under the deferred clock none may. The torn-pair
//! check is what catches a quiet read that trusts the heap too early: a
//! commit retired at its stamp instead of after its write-back, the clock
//! checked before the value load instead of after it, the quiet path let
//! into deferred mode, or the clock check left out.
//!
//! The three-thread scenario has two committers finish out of order while
//! the reader begins: the second stamp retires first, so a retirement count
//! that stood for "the latest stamp retired" would let the reader in quiet
//! while the first committer is still writing back.
//!
//! Run with: `RUSTFLAGS="--cfg stm_model" cargo test -p stm-model-tests`
#![cfg(stm_model)]

mod common;

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rstm::RstmVariant;
use stm_core::prelude::*;

use common::{rstm, run_tx, swisstm, tiny_config, tinystm, tl2};

/// What exploring one scenario found: the checker's report and in how many
/// executions the reader committed quiet.
struct Explored {
    report: stm_model::Report,
    quiet_executions: u64,
}

impl Explored {
    /// Asserts that the reader committed quiet in some executions under the
    /// strict clock and in none under the deferred one, and prints the
    /// counts.
    fn expect_quiet(&self, label: &str, mode: ClockMode) {
        println!(
            "{label}: {} executions, the reader quiet in {}",
            self.report.executions, self.quiet_executions
        );
        match mode {
            ClockMode::Strict => assert!(self.quiet_executions > 0, "the reader never began quiet"),
            ClockMode::Deferred => {
                assert_eq!(self.quiet_executions, 0, "quiet under the deferred clock")
            }
        }
    }
}

fn check_log_free_reader<A>(make: impl Fn() -> Arc<A> + Copy) -> Explored
where
    A: TmAlgorithm + 'static,
{
    let quiet_executions = Arc::new(Mutex::new(0));
    let counted = Arc::clone(&quiet_executions);
    let report = stm_model::model(move || {
        let stm = make();
        // Two words on two stripes (two words per stripe).
        let block = stm.heap().alloc_zeroed(4).unwrap();
        let (x, y) = (block, block.offset(2));

        let writer = {
            let stm = Arc::clone(&stm);
            stm_model::thread::spawn(move || {
                run_tx(stm, |tx| {
                    tx.write(x, 1)?;
                    tx.write(y, 1)
                });
            })
        };
        let reader = {
            let stm = Arc::clone(&stm);
            let counted = Arc::clone(&counted);
            stm_model::thread::spawn(move || {
                let mut ctx = ThreadContext::register(stm);
                let mut first_attempt = true;
                let (rx, ry) = ctx
                    .atomically_read_only(|tx| {
                        assert!(
                            tx.is_log_free() || !first_attempt,
                            "the first attempt is log-free"
                        );
                        first_attempt = false;
                        Ok((tx.read(x)?, tx.read(y)?))
                    })
                    .expect("the reader commits");
                assert_eq!(rx, ry, "torn pair: x={rx} y={ry}");
                *counted.lock().unwrap() += ctx.stats().quiet_commits;
            })
        };
        writer.join();
        reader.join();
        assert_eq!(stm.heap().load(x), 1);
        assert_eq!(stm.heap().load(y), 1);
    });
    let quiet_executions = *quiet_executions.lock().unwrap();
    Explored {
        report,
        quiet_executions,
    }
}

/// Two committers, the first writing `x` and `y`, the second `z`, against a
/// log-free reader of `x` and `y` on the main thread; the second committer
/// may stamp after the first and retire before it. The reader makes one
/// attempt: an attempt that ends without committing is no finding, a torn
/// commit is. (The contexts are registered before the threads start and
/// the reader does not re-run, which keeps three threads within reach of
/// exhaustive exploration.)
fn check_out_of_order_retirement<A>(make: impl Fn() -> Arc<A> + Copy) -> Explored
where
    A: TmAlgorithm + 'static,
{
    let quiet_executions = Arc::new(Mutex::new(0));
    let counted = Arc::clone(&quiet_executions);
    let report = stm_model::model(move || {
        let stm = make();
        // Three words on three stripes (two words per stripe).
        let block = stm.heap().alloc_zeroed(6).unwrap();
        let (x, y, z) = (block, block.offset(2), block.offset(4));
        let mut pair = ThreadContext::register(Arc::clone(&stm));
        let mut single = ThreadContext::register(Arc::clone(&stm));
        let mut reader = ThreadContext::register(Arc::clone(&stm)).with_retry_budget(1);

        let pair = stm_model::thread::spawn(move || {
            pair.atomically(|tx| {
                tx.write(x, 1)?;
                tx.write(y, 1)
            })
            .expect("the pair commits");
        });
        let single = stm_model::thread::spawn(move || {
            single
                .atomically(|tx| tx.write(z, 1))
                .expect("the single commits");
        });
        match reader.atomically_read_only(|tx| Ok((tx.read(x)?, tx.read(y)?))) {
            Ok((rx, ry)) => {
                assert_eq!(rx, ry, "torn pair: x={rx} y={ry}");
                *counted.lock().unwrap() += reader.stats().quiet_commits;
            }
            Err(StmError::RetryBudgetExhausted { .. }) => {}
            Err(error) => panic!("the reader failed: {error}"),
        }
        pair.join();
        single.join();
        for word in [x, y, z] {
            assert_eq!(stm.heap().load(word), 1);
        }
    });
    let quiet_executions = *quiet_executions.lock().unwrap();
    Explored {
        report,
        quiet_executions,
    }
}

fn strict() -> StmConfig {
    tiny_config().with_clock(ClockMode::Strict)
}

fn deferred() -> StmConfig {
    tiny_config().with_clock(ClockMode::Deferred)
}

#[test]
fn swisstm_log_free_reader_strict_clock() {
    check_log_free_reader(|| swisstm(strict())).expect_quiet("swisstm strict", ClockMode::Strict);
}

#[test]
fn swisstm_log_free_reader_deferred_clock() {
    check_log_free_reader(|| swisstm(deferred()))
        .expect_quiet("swisstm deferred", ClockMode::Deferred);
}

#[test]
fn tl2_log_free_reader_strict_clock() {
    check_log_free_reader(|| tl2(strict())).expect_quiet("tl2 strict", ClockMode::Strict);
}

#[test]
fn tl2_log_free_reader_deferred_clock() {
    check_log_free_reader(|| tl2(deferred())).expect_quiet("tl2 deferred", ClockMode::Deferred);
}

#[test]
fn tinystm_log_free_reader_strict_clock() {
    check_log_free_reader(|| tinystm(strict())).expect_quiet("tinystm strict", ClockMode::Strict);
}

#[test]
fn tinystm_log_free_reader_deferred_clock() {
    check_log_free_reader(|| tinystm(deferred()))
        .expect_quiet("tinystm deferred", ClockMode::Deferred);
}

#[test]
fn rstm_log_free_reader_strict_clock() {
    check_log_free_reader(|| rstm(strict(), RstmVariant::eager_invisible()))
        .expect_quiet("rstm strict", ClockMode::Strict);
}

#[test]
fn rstm_log_free_reader_deferred_clock() {
    check_log_free_reader(|| rstm(deferred(), RstmVariant::eager_invisible()))
        .expect_quiet("rstm deferred", ClockMode::Deferred);
}

fn check_and_time_out_of_order_retirement<A>(label: &str, make: impl Fn() -> Arc<A> + Copy)
where
    A: TmAlgorithm + 'static,
{
    let start = Instant::now();
    check_out_of_order_retirement(make).expect_quiet(label, ClockMode::Strict);
    println!("{label}: explored in {:.1?}", start.elapsed());
}

#[test]
fn swisstm_quiet_reader_against_out_of_order_retirement() {
    check_and_time_out_of_order_retirement("swisstm out-of-order", || swisstm(strict()));
}

#[test]
fn tl2_quiet_reader_against_out_of_order_retirement() {
    check_and_time_out_of_order_retirement("tl2 out-of-order", || tl2(strict()));
}

#[test]
fn tinystm_quiet_reader_against_out_of_order_retirement() {
    check_and_time_out_of_order_retirement("tinystm out-of-order", || tinystm(strict()));
}

#[test]
fn rstm_quiet_reader_against_out_of_order_retirement() {
    check_and_time_out_of_order_retirement("rstm out-of-order", || {
        rstm(strict(), RstmVariant::eager_invisible())
    });
}
