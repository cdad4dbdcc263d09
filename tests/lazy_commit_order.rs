//! Commit-time lockers take their write sets in write order, not in one
//! global order, so two committers whose write sets cross may each hold a
//! stripe the other wants.
//!
//! TL2 and lazy RSTM lock what a transaction wrote in the order it first
//! wrote it. Nothing orders two transactions' locks against each other;
//! what keeps them live is that every contention manager ends a conflict
//! (abort itself, abort the owner, or a bounded wait given up on a remote
//! abort request) and that the lock loops honour remote aborts. Here two
//! threads commit increments of both `a` and `b`, one writing `a` first and
//! the other `b` first, on TL2 and on lazy RSTM with invisible and visible
//! readers, under each of the five managers. Every thread must finish —
//! a watchdog fails the test instead of letting a deadlock hang it — and no
//! increment may be lost.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use stm_core::cm::{CmHandle, Greedy, Polka, Serializer, Timid, TwoPhase};
use stm_core::config::StmConfig;
use stm_core::tm::{ThreadContext, TmAlgorithm};

use rstm::{Rstm, RstmVariant};
use tl2::Tl2;

/// Commits per thread.
const COMMITS: u64 = 2_000;

/// Far longer than 2 × [`COMMITS`] two-word transactions take; a deadlock
/// never ends.
const STALL: Duration = Duration::from_secs(30);

type CmFactory = fn() -> CmHandle;

fn managers() -> [(&'static str, CmFactory); 5] {
    [
        ("timid", || Arc::new(Timid::new())),
        ("greedy", || Arc::new(Greedy::new())),
        ("serializer", || Arc::new(Serializer::new())),
        ("polka", || Arc::new(Polka::new())),
        ("two-phase", || Arc::new(TwoPhase::new())),
    ]
}

fn crossed_write_sets_commit<A: TmAlgorithm>(label: &str, stm: Arc<A>) {
    // Four words apart: a stripe each at the small configuration's grain.
    let block = stm.heap().alloc_zeroed(8).unwrap();
    let (a, b) = (block, block.offset(4));
    let start = Arc::new(Barrier::new(2));
    let (done, watchdog) = mpsc::channel();
    let workers: Vec<_> = [(a, b), (b, a)]
        .into_iter()
        .map(|(first, second)| {
            let (stm, start, done) = (Arc::clone(&stm), Arc::clone(&start), done.clone());
            std::thread::spawn(move || {
                let mut ctx = ThreadContext::register(stm);
                start.wait();
                for _ in 0..COMMITS {
                    ctx.atomically(|tx| {
                        let v = tx.read(first)?;
                        tx.write(first, v + 1)?;
                        let w = tx.read(second)?;
                        tx.write(second, w + 1)
                    })
                    .unwrap();
                }
                let _ = done.send(());
            })
        })
        .collect();
    for _ in &workers {
        watchdog.recv_timeout(STALL).unwrap_or_else(|_| {
            panic!("{label}: a thread with a crossed write set never finished")
        });
    }
    for worker in workers {
        worker.join().unwrap();
    }
    let (fa, fb) = (stm.heap().load(a), stm.heap().load(b));
    assert_eq!(
        (fa, fb),
        (2 * COMMITS, 2 * COMMITS),
        "{label}: lost increments"
    );
}

#[test]
fn crossed_write_sets_commit_on_tl2_under_every_manager() {
    for (cm, make) in managers() {
        let stm = Tl2::builder()
            .config(StmConfig::small())
            .contention_manager(make())
            .build();
        crossed_write_sets_commit(&format!("TL2 × {cm}"), Arc::new(stm));
    }
}

#[test]
fn crossed_write_sets_commit_on_lazy_rstm_under_every_manager() {
    for variant in [RstmVariant::lazy_invisible(), RstmVariant::lazy_visible()] {
        for (cm, make) in managers() {
            let stm = Rstm::builder()
                .config(StmConfig::small())
                .variant(variant)
                .contention_manager(make())
                .build();
            let label = format!("RSTM {} × {cm}", variant.label());
            crossed_write_sets_commit(&label, Arc::new(stm));
        }
    }
}
