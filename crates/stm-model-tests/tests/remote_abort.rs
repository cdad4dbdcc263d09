//! The split-`TxShared` remote-abort handshake, model-checked at the
//! `stm-core` level.
//!
//! PR 6 split `TxShared` into a remotely written signal line and an
//! owner-written state line. The correctness story has two halves, checked
//! exhaustively here:
//!
//! 1. **Delivered-once.** Two racing requesters calling
//!    [`TxShared::request_abort`] must agree on who delivered: the AcqRel
//!    swap makes exactly one of them see the clear→set transition, so
//!    inflicted-abort telemetry never double-counts.
//! 2. **The message-passing edge.** A victim that observes
//!    `abort_requested() == true` (Acquire) must also observe everything the
//!    requester published *before* the request (Release side of the swap) —
//!    here, the requester's contention-manager timestamp (`cm_ts`), which
//!    is what Greedy and two-phase inspect to decide whom it lost to.
//!
//! Run with: `RUSTFLAGS="--cfg stm_model" cargo test -p stm-model-tests`
#![cfg(stm_model)]

use std::sync::Arc;

use stm_core::{ThreadRegistry, ThreadSlot};

#[test]
fn racing_abort_requests_deliver_exactly_once() {
    let report = stm_model::model(|| {
        let registry = Arc::new(ThreadRegistry::new());
        let victim = registry.register().unwrap();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let registry = Arc::clone(&registry);
                stm_model::thread::spawn(move || registry.shared(victim).request_abort())
            })
            .collect();
        let delivered: u32 = handles.into_iter().map(|h| h.join() as u32).sum();
        assert_eq!(
            delivered, 1,
            "remote abort delivered {delivered} times, not once"
        );
        assert!(registry.shared(victim).abort_requested());
    });
    println!("delivered-once: {} executions", report.executions);
}

#[test]
fn victim_observes_requester_state_through_the_abort_flag() {
    let report = stm_model::model(|| {
        let registry = Arc::new(ThreadRegistry::new());
        let victim = registry.register().unwrap();
        let requester = registry.register().unwrap();

        let req = {
            let registry = Arc::clone(&registry);
            stm_model::thread::spawn(move || {
                // Publish our own state first, then signal: the Release half
                // of request_abort's swap orders these for the victim.
                registry.shared(requester).set_cm_ts(7);
                registry.shared(victim).request_abort();
            })
        };
        let vic = {
            let registry = Arc::clone(&registry);
            stm_model::thread::spawn(move || {
                while !registry.shared(victim).abort_requested() {
                    stm_model::spin_loop();
                }
                // The flag is set, so the requester's earlier timestamp
                // store is visible — a stale `CM_TS_INFINITY` here would
                // mean Greedy or two-phase rank the requester by a
                // timestamp it has already replaced.
                assert_eq!(
                    registry.shared(requester).cm_ts(),
                    7,
                    "abort flag arrived before the requester's state"
                );
                // A new attempt clears the flag; re-observing `true` after
                // this point would be a stale delivery.
                registry.shared(victim).clear_abort_request();
                assert!(!registry.shared(victim).abort_requested());
            })
        };
        req.join();
        vic.join();
    });
    println!("victim-observes: {} executions", report.executions);
}

#[test]
fn registry_slots_are_unique_under_concurrent_registration() {
    let report = stm_model::model(|| {
        let registry = Arc::new(ThreadRegistry::new());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let registry = Arc::clone(&registry);
                stm_model::thread::spawn(move || registry.register().unwrap())
            })
            .collect();
        let slots: Vec<ThreadSlot> = handles.into_iter().map(|h| h.join()).collect();
        assert_ne!(slots[0], slots[1], "two threads were handed the same slot");
    });
    println!("unique-slots: {} executions", report.executions);
}
