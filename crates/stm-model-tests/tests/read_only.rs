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
//! Run with: `RUSTFLAGS="--cfg stm_model" cargo test -p stm-model-tests`
#![cfg(stm_model)]

mod common;

use std::sync::Arc;

use rstm::RstmVariant;
use stm_core::prelude::*;

use common::{rstm, run_tx, swisstm, tiny_config, tinystm, tl2};

fn check_log_free_reader<A>(make: impl Fn() -> Arc<A> + Copy) -> stm_model::Report
where
    A: TmAlgorithm + 'static,
{
    stm_model::model(move || {
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
            })
        };
        writer.join();
        reader.join();
        assert_eq!(stm.heap().load(x), 1);
        assert_eq!(stm.heap().load(y), 1);
    })
}

fn strict() -> StmConfig {
    tiny_config().with_clock(ClockMode::Strict)
}

fn deferred() -> StmConfig {
    tiny_config().with_clock(ClockMode::Deferred)
}

#[test]
fn swisstm_log_free_reader_strict_clock() {
    let r = check_log_free_reader(|| swisstm(strict()));
    println!("swisstm strict: {} executions", r.executions);
}

#[test]
fn swisstm_log_free_reader_deferred_clock() {
    let r = check_log_free_reader(|| swisstm(deferred()));
    println!("swisstm deferred: {} executions", r.executions);
}

#[test]
fn tl2_log_free_reader_strict_clock() {
    let r = check_log_free_reader(|| tl2(strict()));
    println!("tl2 strict: {} executions", r.executions);
}

#[test]
fn tl2_log_free_reader_deferred_clock() {
    let r = check_log_free_reader(|| tl2(deferred()));
    println!("tl2 deferred: {} executions", r.executions);
}

#[test]
fn tinystm_log_free_reader_strict_clock() {
    let r = check_log_free_reader(|| tinystm(strict()));
    println!("tinystm strict: {} executions", r.executions);
}

#[test]
fn tinystm_log_free_reader_deferred_clock() {
    let r = check_log_free_reader(|| tinystm(deferred()));
    println!("tinystm deferred: {} executions", r.executions);
}

#[test]
fn rstm_log_free_reader_strict_clock() {
    let r = check_log_free_reader(|| rstm(strict(), RstmVariant::eager_invisible()));
    println!("rstm strict: {} executions", r.executions);
}

#[test]
fn rstm_log_free_reader_deferred_clock() {
    let r = check_log_free_reader(|| rstm(deferred(), RstmVariant::eager_invisible()));
    println!("rstm deferred: {} executions", r.executions);
}
