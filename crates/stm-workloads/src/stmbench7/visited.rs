//! The "reached already?" set of a composite-part traversal.

use stm_core::word::Addr;

/// Multiplier of the multiply-shift hash: 2^64 / φ, odd, so consecutive
/// part addresses (a fixed stride apart) spread over the whole table.
const HASH_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// A set of heap addresses that is filled and emptied once per composite
/// part: open addressing with linear probing, and every slot carries the
/// stamp of the round that filled it, so [`VisitedSet::clear`] is an
/// increment rather than a wipe.
#[derive(Debug)]
pub struct VisitedSet {
    /// `(member, stamp)`; a slot is occupied iff its stamp is the current one.
    slots: Vec<(Addr, u32)>,
    /// The current round's stamp. Never 0, the stamp of a slot no round used.
    stamp: u32,
    len: usize,
    /// `64 - log2(slots.len())`: the hash is the product's top bits.
    shift: u32,
}

impl VisitedSet {
    /// A set with at least four slots per expected member. It grows when
    /// more arrive (a structural addition can push a composite past the
    /// size it was built with).
    pub fn for_members(members: usize) -> Self {
        let capacity = (4 * members).next_power_of_two().max(8);
        VisitedSet {
            slots: vec![(Addr::NULL, 0); capacity],
            stamp: 1,
            len: 0,
            shift: 64 - capacity.trailing_zeros(),
        }
    }

    /// Adds `addr`; `false` if it was a member already.
    #[inline]
    pub fn insert(&mut self, addr: Addr) -> bool {
        let mask = self.slots.len() - 1;
        let mut index = (addr.to_word().wrapping_mul(HASH_MULTIPLIER) >> self.shift) as usize;
        // At most half the slots are occupied, so the probe ends.
        loop {
            let (member, stamp) = self.slots[index];
            if stamp != self.stamp {
                self.slots[index] = (addr, self.stamp);
                self.len += 1;
                if self.len * 2 > self.slots.len() {
                    self.grow();
                }
                return true;
            }
            if member == addr {
                return false;
            }
            index = (index + 1) & mask;
        }
    }

    /// Empties the set.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
        if self.stamp == u32::MAX {
            self.wipe();
        } else {
            self.stamp += 1;
        }
    }

    /// The stamps are used up: a slot filled 2^32 - 1 rounds ago would read
    /// as occupied once the counter came round to its stamp again.
    #[cold]
    fn wipe(&mut self) {
        self.slots.fill((Addr::NULL, 0));
        self.stamp = 1;
    }

    #[cold]
    fn grow(&mut self) {
        let capacity = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(Addr::NULL, 0); capacity]);
        self.shift -= 1;
        self.len = 0;
        for (member, stamp) in old {
            if stamp == self.stamp {
                self.insert(member);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use stm_core::backoff::FastRng;

    #[test]
    fn agrees_with_a_hash_set_over_interleaved_inserts_and_clears() {
        let mut rng = FastRng::new(0x5e7);
        let mut set = VisitedSet::for_members(8);
        let mut model = HashSet::new();
        for round in 0..400 {
            // Few distinct addresses, so most rounds see repeats; every
            // fourth round is large enough to grow the table.
            let inserts = if round % 4 == 0 { 200 } else { 24 };
            for _ in 0..inserts {
                let addr = Addr::new(1 + 11 * rng.next_below(150) as usize);
                assert_eq!(set.insert(addr), model.insert(addr), "round {round}");
            }
            set.clear();
            model.clear();
        }
    }

    #[test]
    fn growth_keeps_membership() {
        let mut set = VisitedSet::for_members(2);
        let initial_slots = set.slots.len();
        let members: Vec<Addr> = (1..=10 * initial_slots)
            .map(|i| Addr::new(13 * i))
            .collect();
        for &member in &members {
            assert!(set.insert(member));
        }
        assert!(set.slots.len() >= 2 * members.len());
        for &member in &members {
            assert!(!set.insert(member), "{member:?} lost in growth");
        }
        set.clear();
        assert!(set.insert(members[0]));
    }

    #[test]
    fn stamp_wrap_around_leaves_no_ghost_members() {
        let mut set = VisitedSet::for_members(8);
        let ghost = Addr::new(77);
        assert!(set.insert(ghost)); // its slot carries stamp 1
        set.clear();
        // 2^32 - 3 rounds later, none of which touched that slot:
        set.stamp = u32::MAX;
        let last = Addr::new(99);
        assert!(set.insert(last));
        set.clear();
        assert_eq!(set.stamp, 1, "the counter came round");
        assert!(set.insert(ghost), "a member of round 1 came back");
        assert!(set.insert(last), "a member of the last round survived");
        assert!(!set.insert(ghost));
    }
}
