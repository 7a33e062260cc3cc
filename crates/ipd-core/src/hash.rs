//! The engine's one hasher: a keyed multiply-mix for its integer keys.
//!
//! Every map inside the engine is keyed by small integers — masked source
//! addresses, interned ingress ids, router ids, ingress points — so std's
//! SipHash spends most of a lookup hashing. [`FastState`] replaces it with
//! one folded 64×64→128 multiply per word. Its two keys are drawn once per
//! process from std's [`RandomState`]: source addresses are chosen by
//! whoever sends the traffic (and are trivially spoofed), so an unkeyed
//! hash would let a sender precompute addresses that collide in one
//! range's map. Nothing depends on map iteration order — monitoring
//! weights are integers, whose sums are exact in any order — so a
//! per-process key leaves every output unchanged.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` hashed with [`FastState`].
pub(crate) type FastMap<K, V> = HashMap<K, V, FastState>;

/// The process-wide keys: the initial state and an odd multiplier.
fn keys() -> (u64, u64) {
    static KEYS: OnceLock<(u64, u64)> = OnceLock::new();
    *KEYS.get_or_init(|| {
        let s = RandomState::new();
        (s.hash_one(0u8), s.hash_one(1u8) | 1)
    })
}

/// Builds [`FastHasher`]s with the process keys. Zero-sized, so a map
/// carries no per-map hasher state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FastState;

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        let (state, mul) = keys();
        FastHasher { state, mul }
    }
}

/// One hash computation: each written word is folded into the state with
/// a keyed multiply whose high and low halves are xor-ed together, so
/// every input bit reaches both the low bits (the bucket index) and the
/// high bits (the control byte).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FastHasher {
    state: u64,
    mul: u64,
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.state ^ n) * u128::from(self.mul);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equal_keys_hash_equal_and_nearby_keys_spread() {
        let s = FastState;
        assert_eq!(s.hash_one(7u128), s.hash_one(7u128));
        // Consecutive masked IPv4 /28s must not pile into a few buckets:
        // the low 12 bits (a 4096-bucket table) stay well spread.
        let buckets: HashSet<u64> = (0..4096u128)
            .map(|i| s.hash_one(0x0A00_0000 + (i << 4)) & 0xFFF)
            .collect();
        assert!(buckets.len() > 2000, "only {} buckets used", buckets.len());
        // And the high 7 bits (the control byte) vary too.
        let tags: HashSet<u64> = (0..4096u128).map(|i| s.hash_one(i) >> 57).collect();
        assert!(tags.len() > 100, "only {} control tags", tags.len());
    }
}
