//! A transaction body that panics is rolled back before the panic leaves
//! `ThreadContext::atomically`.
//!
//! The encounter-time lockers hold lock words while a body runs and `naive`
//! holds its one lock and has stored in place, so an attempt abandoned by an
//! unwind would strand all of it: the next writer of the stripe spins for
//! ever, and on `naive` every later transaction does. One deterministic
//! schedule pins the outcome on the four STMs and `naive`: after a body
//! that writes two stripes, allocates and panics, the written words hold
//! their old values, the allocated block is back with the allocator, no lock
//! word is held, the panic reached the caller with its payload, and both the
//! panicked context and a fresh one commit on the same stripes. The second
//! commit runs on a thread of its own under a watchdog, so a stranded lock
//! fails the test instead of hanging it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use stm_core::config::StmConfig;
use stm_core::naive::NaiveGlobalLockTm;
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_core::word::Addr;

use rstm::{Rstm, RstmVariant};
use swisstm::SwissTm;
use tinystm::{OwnedLockState, TinyStm};
use tl2::{LockState, Tl2};

fn config() -> StmConfig {
    StmConfig::small()
}

/// Far longer than a two-word transaction; a stranded lock never lets go.
const STALL: Duration = Duration::from_secs(10);

fn panicking_body_is_rolled_back<A: TmAlgorithm>(stm: Arc<A>, unlocked: fn(&A, Addr) -> bool) {
    let name = stm.name();
    // Four words apart: a stripe each at the small configuration's grain.
    let block = stm.heap().alloc_zeroed(8).unwrap();
    let (a, b) = (block, block.offset(4));
    stm.heap().store(a, 11);
    stm.heap().store(b, 22);
    let live_before = stm.heap().live_words();

    let mut ctx = ThreadContext::register(Arc::clone(&stm));
    let payload = catch_unwind(AssertUnwindSafe(|| {
        ctx.atomically(|tx| {
            tx.write(a, 1)?;
            tx.write(b, 2)?;
            tx.write(a, 3)?;
            let node = tx.alloc(6)?;
            tx.write(node, 4)?;
            assert_eq!(tx.read(a)?, 3, "{name}");
            panic!("body gave up");
            #[allow(unreachable_code)]
            Ok(())
        })
    }))
    .expect_err("the panic propagates");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"body gave up"),
        "{name}: the payload is the body's"
    );

    assert_eq!(stm.heap().load(a), 11, "{name}: old value restored");
    assert_eq!(stm.heap().load(b), 22, "{name}: old value restored");
    assert_eq!(stm.heap().live_words(), live_before, "{name}: block leaked");
    assert!(unlocked(&stm, a) && unlocked(&stm, b), "{name}: lock held");

    // A second context commits on the same stripes ...
    let (done, watchdog) = mpsc::channel();
    let rival_stm = Arc::clone(&stm);
    let rival = std::thread::spawn(move || {
        let mut ctx = ThreadContext::register(rival_stm);
        let sum = ctx
            .atomically(|tx| {
                let sum = tx.read(a)? + tx.read(b)?;
                tx.write(a, sum)?;
                tx.write(b, sum)?;
                Ok(sum)
            })
            .unwrap();
        let _ = done.send(sum);
    });
    let sum = watchdog
        .recv_timeout(STALL)
        .unwrap_or_else(|_| panic!("{name}: the stripes of the panicked attempt are stuck"));
    rival.join().unwrap();
    assert_eq!(sum, 33, "{name}");
    // ... and so does the one that panicked.
    ctx.atomically(|tx| tx.write(a, 5)).unwrap();
    assert_eq!(ctx.read_word(a).unwrap(), 5, "{name}");
    assert_eq!(stm.heap().live_words(), live_before, "{name}");
}

#[test]
fn a_panicking_body_is_rolled_back_on_every_stm() {
    panicking_body_is_rolled_back(Arc::new(SwissTm::with_config(config())), |stm, addr| {
        let entry = stm.lock_table().entry(addr);
        entry.write_lock().is_none() && entry.version().is_some()
    });
    panicking_body_is_rolled_back(Arc::new(Tl2::with_config(config())), |stm, addr| {
        matches!(stm.lock_table().entry(addr).state(), LockState::Free { .. })
    });
    panicking_body_is_rolled_back(Arc::new(TinyStm::with_config(config())), |stm, addr| {
        matches!(
            stm.lock_table().entry(addr).state(),
            OwnedLockState::Free { .. }
        )
    });
    for variant in [
        RstmVariant::eager_invisible(),
        RstmVariant::eager_visible(),
        RstmVariant::lazy_invisible(),
    ] {
        let stm = Rstm::builder().config(config()).variant(variant).build();
        panicking_body_is_rolled_back(Arc::new(stm), |stm, addr| {
            let object = stm.objects().entry(addr);
            object.owner().is_none() && object.readers() == 0 && object.version().is_some()
        });
    }
}

/// `naive` has no lock word to inspect: its lock is free when the second
/// context gets through `begin`, which the watchdog checks.
#[test]
fn a_panicking_body_is_rolled_back_on_the_global_lock() {
    let stm = NaiveGlobalLockTm::new(config().heap);
    panicking_body_is_rolled_back(Arc::new(stm), |_, _| true);
}
