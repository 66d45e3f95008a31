//! A Fibonacci-multiply hasher for the simulator's hot-path maps.
//!
//! The persist path does several map operations per store (counter
//! blocks, architectural plaintexts, the sanitizer's WAW tracker, the
//! NVM write-combining table), and the standard library's default
//! SipHash is the single largest non-crypto cost on that path. The
//! keys involved — page indices, block addresses, node labels — are
//! integers, so a multiply by the 64-bit golden-ratio constant mixes
//! them; folding the product's high half into its low half keeps keys
//! with a power-of-two stride (page-aligned addresses) from all
//! landing in one probe group. These maps are never iterated for
//! user-visible output, so the hasher cannot perturb the simulator's
//! byte-deterministic stdout.
//!
//! It lives here, below every timing model, because the NVM device
//! keys its write-combining table with it; `plp_core::fastmap` is the
//! front door for the crates above.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// The 64-bit golden-ratio constant.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// One Fibonacci multiply per written word.
#[derive(Debug, Default)]
pub struct FibHasher(u64);

impl std::hash::Hasher for FibHasher {
    fn finish(&self) -> u64 {
        // The product's low bits depend only on the key's low bits;
        // the fold lets the high bits reach the bucket index.
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FIB);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FIB);
    }
}

/// A `HashMap` keyed by integers, hashed with one multiply and a fold.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FibHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    fn hash(key: u64) -> u64 {
        let mut h = FibHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn behaves_like_a_map() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 0x1000, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 0x1000)), Some(&i));
        }
        assert_eq!(m.remove(&0), Some(0));
        assert!(!m.contains_key(&0));
    }

    #[test]
    fn byte_and_word_paths_agree_on_distribution() {
        // Not a correctness requirement, just a sanity floor: nearby
        // keys must not all collide into one bucket's hash.
        let seen: std::collections::HashSet<u64> = (0..64u64).map(hash).collect();
        assert_eq!(seen.len(), 64, "sequential keys collided");
    }

    #[test]
    fn page_strided_keys_spread_over_the_low_bits() {
        // Keys 4096 apart agree in their low 12 bits, and so does a
        // bare product; hashbrown indexes buckets by the low bits, so
        // without the fold all of these share one probe group.
        let low: std::collections::HashSet<u64> =
            (0..4096u64).map(|i| hash(i << 12) & 0xfff).collect();
        assert!(
            low.len() > 2048,
            "page-strided keys reach only {} of 4096 low-bit values",
            low.len()
        );
    }
}
