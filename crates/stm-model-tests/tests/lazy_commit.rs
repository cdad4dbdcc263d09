//! The lazy-commit lock/validate/write-back window (TL2 and lazy RSTM).
//!
//! Lazy STMs buffer writes and only at commit time (1) acquire the locks,
//! (2) validate the read set, (3) write back, (4) publish new versions and
//! release. Between (1) and (4) the heap holds a half-committed state that
//! must be invisible to every rival: a reader that samples a lock-word
//! mid-window has to either wait it out, abort, or prove the word unchanged.
//!
//! The scenario puts one committing writer (two words, so the window has a
//! middle) against a rival that both *reads transactionally* (must see a
//! consistent pair) and then *increments* one of the words (its commit-time
//! validation must catch the writer's intervening commit). Exhausting every
//! interleaving of the window against the rival is exactly what stress runs
//! cannot guarantee.
//!
//! Run with: `RUSTFLAGS="--cfg stm_model" cargo test -p stm-model-tests`
#![cfg(stm_model)]

mod common;

use std::sync::Arc;

use rstm::RstmVariant;
use stm_core::prelude::*;

use common::{rstm, run_tx, tiny_config, tl2};

/// Writer commits `x = y = 1` lazily; rival reads the pair (consistency
/// through the write-back window) then increments `x` (write-write conflict
/// against the window). Final state must reflect both commits.
fn check_lazy_commit_window<A>(make: impl Fn() -> Arc<A> + Copy) -> stm_model::Report
where
    A: TmAlgorithm + 'static,
{
    stm_model::model(move || {
        let stm = make();
        let x = stm.heap().alloc_zeroed(1).unwrap();
        let y = stm.heap().alloc_zeroed(1).unwrap();

        let writer = {
            let stm = Arc::clone(&stm);
            stm_model::thread::spawn(move || {
                run_tx(stm, |tx| {
                    tx.write(x, 1)?;
                    tx.write(y, 1)
                });
            })
        };
        let rival = {
            let stm = Arc::clone(&stm);
            stm_model::thread::spawn(move || {
                let (rx, ry) = run_tx(Arc::clone(&stm), |tx| {
                    let rx = tx.read(x)?;
                    let ry = tx.read(y)?;
                    Ok((rx, ry))
                });
                assert_eq!(rx, ry, "read through the write-back window: x={rx} y={ry}");
                run_tx(stm, |tx| {
                    let v = tx.read(x)?;
                    tx.write(x, v + 10)
                });
                rx
            })
        };
        writer.join();
        let rx = rival.join();
        // Serializability: the writer's blind `x = 1` may land before or
        // after the increment, so `x` ends at 11 (increment last) or 1
        // (writer last, increment saw the initial 0). A lost update or a
        // write-back leak produces anything else. And once the rival has
        // *seen* the writer's commit, the increment must build on it.
        let fx = stm.heap().load(x);
        assert!(fx == 11 || fx == 1, "impossible final x={fx}");
        if rx == 1 {
            assert_eq!(fx, 11, "increment lost after observing the writer's commit");
        }
        assert_eq!(stm.heap().load(y), 1);
    })
}

/// Two writers whose write sets cross: one writes `x = 1` then `y = 1`, the
/// other `y = 2` then `x = 2`, each on its own stripe. A lazy STM locks in
/// write order, so each committer may hold the stripe the other wants next;
/// every execution must still finish (the explorer reports a deadlock
/// otherwise) with one writer's pair intact.
fn check_crossed_write_sets<A>(make: impl Fn() -> Arc<A> + Copy) -> stm_model::Report
where
    A: TmAlgorithm + 'static,
{
    stm_model::model(move || {
        let stm = make();
        // Two words on two stripes (two words per stripe).
        let block = stm.heap().alloc_zeroed(4).unwrap();
        let (x, y) = (block, block.offset(2));
        let writers: Vec<_> = [(x, y, 1), (y, x, 2)]
            .into_iter()
            .map(|(first, second, value)| {
                let stm = Arc::clone(&stm);
                stm_model::thread::spawn(move || {
                    run_tx(stm, |tx| {
                        tx.write(first, value)?;
                        tx.write(second, value)
                    });
                })
            })
            .collect();
        for writer in writers {
            writer.join();
        }
        let (fx, fy) = (stm.heap().load(x), stm.heap().load(y));
        assert!(
            fx == fy && fx != 0,
            "crossed commits tore the pair: x={fx} y={fy}"
        );
    })
}

fn strict() -> StmConfig {
    tiny_config().with_clock(ClockMode::Strict)
}

#[test]
fn tl2_crossed_write_sets_commit() {
    let r = check_crossed_write_sets(|| tl2(strict()));
    println!("tl2 crossed write sets: {} executions", r.executions);
}

#[test]
fn rstm_lazy_invisible_crossed_write_sets_commit() {
    let r = check_crossed_write_sets(|| rstm(strict(), RstmVariant::lazy_invisible()));
    println!(
        "rstm lazy/invisible crossed write sets: {} executions",
        r.executions
    );
}

#[test]
fn tl2_commit_window_is_invisible() {
    let r = check_lazy_commit_window(|| tl2(tiny_config()));
    println!("tl2 lazy-commit: {} executions", r.executions);
}

#[test]
fn rstm_lazy_invisible_commit_window_is_invisible() {
    let r = check_lazy_commit_window(|| rstm(tiny_config(), RstmVariant::lazy_invisible()));
    println!(
        "rstm lazy/invisible lazy-commit: {} executions",
        r.executions
    );
}

#[test]
fn rstm_lazy_visible_commit_window_is_invisible() {
    let r = check_lazy_commit_window(|| rstm(tiny_config(), RstmVariant::lazy_visible()));
    println!("rstm lazy/visible lazy-commit: {} executions", r.executions);
}
