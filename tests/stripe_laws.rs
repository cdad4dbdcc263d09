//! The laws every lock-word shape obeys as an `stm_core::engine::Stripe`,
//! checked by one generic function on all three: TL2's and TinySTM's
//! one-word `VersionedLock`, SwissTM's r-lock/w-lock `StripeEntry` and
//! RSTM's `ObjectHeader`. The engine's read, validation, acquisition,
//! commit and rollback rely on exactly these facts and nothing
//! shape-specific.

use stm_core::clock::{ThreadSlot, MAX_THREADS};
use stm_core::engine::{Claim, Stripe};
use stm_core::locktable::VersionedLock;

use rstm::ObjectHeader;
use swisstm::StripeEntry;

fn rival_of(slot: ThreadSlot) -> ThreadSlot {
    ThreadSlot::new((slot.index() + 1) % MAX_THREADS)
}

fn check_laws<S: Stripe>() {
    // A fresh stripe reads version 0 and has no owner.
    let fresh = S::default();
    assert_eq!(fresh.version(), Some(0));
    assert_eq!(fresh.owner_tag(), None);

    // An acquire names the owner's record; a rival sees the owner's slot,
    // no record of its own, and cannot acquire.
    for slot in (0..MAX_THREADS).map(ThreadSlot::new) {
        for record in [0, 1, 1 << 20, 1 << 40] {
            let stripe = S::default();
            assert_eq!(stripe.claim(slot, record), Claim::Won(0));
            assert_eq!(stripe.owned_record(slot), Some(record));
            let tag = stripe.owner_tag().expect("owned");
            assert_eq!((tag.slot(), tag.record_of(slot)), (slot, Some(record)));
            let rival = rival_of(slot);
            assert_eq!(stripe.owned_record(rival), None);
            assert_eq!(tag.record_of(rival), None);
            match stripe.claim(rival, 0) {
                Claim::Held(held) => assert_eq!(held.slot(), slot),
                other => panic!("a rival's try on an owned stripe: {other:?}"),
            }
        }
    }

    let (a, b) = (ThreadSlot::new(3), ThreadSlot::new(5));
    let stripe = S::default();

    // Publish frees the stripe and installs the new version.
    assert_eq!(stripe.claim(a, 0), Claim::Won(0));
    stripe.lock_write_back();
    stripe.publish(7);
    assert_eq!((stripe.version(), stripe.owner_tag()), (Some(7), None));

    // Restore frees the stripe and keeps the version it was acquired at.
    assert_eq!(stripe.claim(b, 2), Claim::Won(7));
    stripe.restore(7);
    assert_eq!((stripe.version(), stripe.owner_tag()), (Some(7), None));
    assert_eq!(stripe.owned_record(b), None);

    // A stripe being written back gives readers no version; undoing that
    // leaves it owned, and a restore then frees it at the old version.
    assert_eq!(stripe.claim(a, 1), Claim::Won(7));
    stripe.lock_write_back();
    assert_eq!(stripe.version(), None);
    assert_eq!(S::version_in(stripe.sample()), None);
    stripe.unlock_write_back(7);
    assert_eq!(stripe.owned_record(a), Some(1));
    stripe.restore(7);
    assert_eq!((stripe.version(), stripe.owner_tag()), (Some(7), None));
}

#[test]
fn stripe_laws_hold_for_the_versioned_lock() {
    check_laws::<VersionedLock>();
}

#[test]
fn stripe_laws_hold_for_swisstm_stripe_entries() {
    check_laws::<StripeEntry>();
}

#[test]
fn stripe_laws_hold_for_rstm_object_headers() {
    check_laws::<ObjectHeader>();
}
