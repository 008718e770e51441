//! A deterministic multiply-xor hasher for hot integer-keyed maps.
//!
//! The std `HashMap` default (SipHash-1-3 with a per-process random seed)
//! is a DoS-hardened choice the simulation doesn't need: every key we
//! hash on hot paths is a small tuple of node indices derived from
//! trusted simulation state, and the per-lookup SipHash cost shows up
//! directly in routing-table walks (one map probe per forwarding hop).
//! This module provides the classic FxHash construction — rotate, xor,
//! multiply by a sparse odd constant — which compiles to a handful of
//! ALU ops per word.
//!
//! Two properties matter here beyond speed:
//!
//! * **Determinism.** No random state: the same keys hash identically in
//!   every process, so behaviour cannot vary run-to-run even if a map is
//!   (incorrectly) iterated. SipHash's random seed would hide such a bug
//!   behind nondeterminism; this hasher keeps it reproducible — and the
//!   repo's own lint still forbids hash-container iteration on the step
//!   path outright.
//! * **Not collision-hardened.** Keys must come from trusted input, as
//!   all simulation node indices do. Do not use for attacker-controlled
//!   keys.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with [`FxHasher`] — drop-in for integer-keyed hot maps.
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher (the rustc "FxHash" construction).
#[derive(Default, Clone)]
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
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        let key = (7u16, 42u32);
        assert_eq!(hash_of(&key), hash_of(&key));
        // Fresh builder, same value: no hidden random state.
        let again = BuildHasherDefault::<FxHasher>::default().hash_one(key);
        assert_eq!(hash_of(&key), again);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a distribution test — just a guard against a degenerate
        // implementation that maps adjacent indices to one bucket chain.
        let mut seen = std::collections::HashSet::new();
        for a in 0u32..64 {
            for b in 0u32..64 {
                seen.insert(hash_of(&(a, b)));
            }
        }
        assert_eq!(seen.len(), 64 * 64);
    }

    #[test]
    fn fast_map_roundtrip() {
        let mut m: FastMap<(u32, u32), u32> = FastMap::default();
        for i in 0u32..1000 {
            m.insert((i, i.wrapping_mul(2654435761)), i);
        }
        for i in 0u32..1000 {
            assert_eq!(m.get(&(i, i.wrapping_mul(2654435761))), Some(&i));
        }
    }
}
