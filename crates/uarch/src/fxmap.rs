//! Deterministic fast hashing for simulator-internal maps.
//!
//! `std`'s default `RandomState` draws a per-process seed, which is both
//! slow (SipHash) and a reproducibility hazard: any accidental iteration
//! over such a map would vary between runs. Simulator state instead uses
//! this fixed-seed multiply-xor hasher (the FxHash construction from
//! rustc): a few cycles per integer key, and the same table shape in
//! every process.
//!
//! This is *not* a DoS-resistant hasher; keys here are simulated line
//! numbers and PCs, never attacker-controlled input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fixed-seed multiply-xor hasher (FxHash).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
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

/// A `HashMap` with the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` with the deterministic [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic() {
        let h = |n: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(n);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn map_works_like_a_map() {
        let mut m: FxHashMap<u64, bool> = FxHashMap::default();
        m.insert(7, false);
        m.insert(7, true);
        m.insert(9, false);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&7), Some(&true));
        assert_eq!(m.values().filter(|&&v| !v).count(), 1);
    }
}
