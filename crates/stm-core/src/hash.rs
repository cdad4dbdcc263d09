//! A cheap multiplicative hasher for the descriptor-side log indexes.
//!
//! The write-log address map and the stripe sets are keyed by small
//! integers (heap word indexes and lock-table indexes) and sit on the
//! hottest STM paths: every transactional write performs at least one map
//! insertion and every read-after-write a lookup. The standard library's
//! default SipHash is a keyed cryptographic hash built to resist
//! collision-flooding from untrusted input — a property these maps do not
//! need (the keys come from the transaction itself) — and its per-operation
//! cost is visible in the `stm_primitives` microbenchmarks.
//!
//! [`FxStyleHasher`] is the Firefox/rustc "Fx" construction: fold each word
//! of input into the state with a rotate, xor and multiply by a
//! golden-ratio-derived odd constant. It is not DoS-resistant and must not
//! be used for attacker-controlled keys.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the 64-bit golden ratio (same constant as SplitMix64).
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// A fast, non-cryptographic hasher for integer-keyed hot-path maps.
#[derive(Debug, Default)]
pub struct FxStyleHasher {
    hash: u64,
}

impl FxStyleHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxStyleHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` using [`FxStyleHasher`]; for hot-path maps with
/// transaction-internal integer keys only.
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxStyleHasher>>;

/// Creates a [`FastHashMap`] with room for `capacity` entries.
pub fn fast_map_with_capacity<K, V>(capacity: usize) -> FastHashMap<K, V> {
    FastHashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_integer_keys() {
        let mut map: FastHashMap<usize, u64> = fast_map_with_capacity(8);
        for i in 0..1000usize {
            map.insert(i, (i * 2) as u64);
        }
        for i in 0..1000usize {
            assert_eq!(map.get(&i), Some(&((i * 2) as u64)));
        }
        assert_eq!(map.get(&1000), None);
    }

    #[test]
    fn nearby_keys_spread_across_buckets() {
        // Dense small integers (the common lock-index pattern) must not all
        // collide in the low bits the HashMap uses for bucketing.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..64u64 {
            let mut h = FxStyleHasher::default();
            h.write_u64(i);
            low_bits.insert(h.finish() & 63);
        }
        assert!(
            low_bits.len() > 32,
            "only {} distinct buckets",
            low_bits.len()
        );
    }

    #[test]
    fn byte_stream_fallback_is_consistent() {
        let mut a = FxStyleHasher::default();
        let mut b = FxStyleHasher::default();
        a.write(b"swisstm-stripe");
        b.write(b"swisstm-stripe");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxStyleHasher::default();
        c.write(b"swisstm-stripes");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn an_integer_hashes_alike_whatever_its_width() {
        let finish = |write: &dyn Fn(&mut FxStyleHasher)| {
            let mut hasher = FxStyleHasher::default();
            write(&mut hasher);
            hasher.finish()
        };
        let wide = finish(&|h| h.write_u64(200));
        assert_eq!(finish(&|h| h.write_u8(200)), wide);
        assert_eq!(finish(&|h| h.write_u32(200)), wide);
        assert_eq!(finish(&|h| h.write_usize(200)), wide);
        // The byte path folds whole little-endian words, so eight bytes of
        // an integer hash as the integer does.
        assert_eq!(finish(&|h| h.write(&200u64.to_le_bytes())), wide);
        assert_ne!(finish(&|h| h.write_u64(201)), wide);
    }
}
