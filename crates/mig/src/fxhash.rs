//! A dependency-free FxHash-style hasher for the optimizer's hot maps.
//!
//! The managed network hits its hash maps on every structural operation:
//! `node_for_key` probes the strash for each normalized gate key, and
//! the scheduler tracks dirty nodes per step. The keys
//! are tiny (one to three words of node ids / packed signals), so the
//! default SipHash spends more time hashing than probing. [`FxHasher`]
//! is the classic multiply-xor word hasher (the rustc / FxHashMap
//! recipe): one rotate, one xor and one multiply per 8-byte word.
//!
//! Determinism: swapping the hasher changes *iteration order* of maps
//! and sets, nothing else. Every code path that feeds results back into
//! the graph is iteration-order independent (`debug_check` sorts before
//! comparing), so the swap cannot perturb bit-determinism — but any new
//! consumer must keep that property.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from FxHash: a randomly generated odd constant with a
/// roughly even bit distribution.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word-at-a-time multiply-xor hasher. Not collision resistant and
/// not DoS hardened — strictly for internal maps keyed by node ids and
/// gate keys, never attacker-controlled data.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

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
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; plugs into any `HashMap`/`HashSet`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_stable_and_spread() {
        let h = |v: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(v);
            hasher.finish()
        };
        // Deterministic across calls.
        assert_eq!(h(42), h(42));
        // Nearby keys do not collide (the strash keys are dense ids).
        let hashes: FxHashSet<u64> = (0..4096).map(h).collect();
        assert_eq!(hashes.len(), 4096);
    }

    #[test]
    fn map_roundtrip_with_array_keys() {
        let mut m: FxHashMap<[u64; 3], u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert([u64::from(i), u64::from(i) << 7, 3], i);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&[u64::from(i), u64::from(i) << 7, 3]), Some(&i));
        }
    }

    #[test]
    fn unaligned_byte_writes_are_deterministic() {
        // The generic `write` path pads the tail chunk with zeros (like
        // FxHash, length discrimination is the `Hash` impl's job).
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(h(&[1, 2, 3]), h(&[1, 2, 4]));
        assert_eq!(h(&[9; 13]), h(&[9; 13]));
    }
}
