//! Deterministic 32-bit key hashing for all tries in the workspace.
//!
//! The paper's tries consume exactly 32 bits of hash code per key. We provide
//! an in-repo Fx-style multiply-rotate hasher (no external dependencies) and
//! fold its 64-bit state to 32 bits. The hasher is *deterministic across runs
//! and platforms*, which the benchmarks rely on (identical trie shapes per
//! seed) and which makes collision-crafting in tests straightforward: two
//! keys whose `Hash` impls write identical byte sequences always collide.

use std::hash::{Hash, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An Fx-style streaming hasher: each written word is folded into the state
/// with a rotate-xor-multiply round.
///
/// Use [`hash32`] unless you need incremental hashing.
#[derive(Debug, Clone, Default)]
pub struct TrieHasher {
    state: u64,
}

impl TrieHasher {
    /// Creates a hasher with the fixed all-zero initial state.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline(always)]
    fn round(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for TrieHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.round(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            // Tag the partial word with its length so "ab" ++ "" != "a" ++ "b".
            buf[7] = buf[7].wrapping_add(rest.len() as u8);
            self.round(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.round(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.round(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.round(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.round(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.round(i as u64);
        self.round((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.round(i as u64);
    }
}

/// Hashes a key to the 32-bit hash code consumed by the tries.
///
/// The 64-bit internal state is xor-folded so that both halves contribute to
/// every 5-bit trie mask.
///
/// # Examples
///
/// ```
/// use trie_common::hash::hash32;
/// assert_eq!(hash32(&42u32), hash32(&42u32));
/// assert_ne!(hash32(&42u32), hash32(&43u32));
/// ```
#[inline]
pub fn hash32<K: Hash + ?Sized>(key: &K) -> u32 {
    let mut hasher = TrieHasher::new();
    key.hash(&mut hasher);
    let h = hasher.finish();
    (h ^ (h >> 32)) as u32
}

/// The misuse guard of the hashed entry points (`get_hashed`,
/// `insert_hashed_mut`, `value_set_hashed`, ...): in debug builds, panics
/// unless `hash` is `key`'s [`hash32`]. Release builds check nothing and
/// hash nothing.
///
/// A wrong hash is a logic error, like a `Hash` that disagrees with `Eq`:
/// the key is looked up or stored under the wrong branches, so a lookup
/// misses it and an insert may store it twice. It is never undefined
/// behaviour.
#[inline(always)]
#[track_caller]
pub fn debug_assert_hash<K: Hash + ?Sized>(key: &K, hash: u32) {
    debug_assert_eq!(hash, hash32(key), "the hash given is not the key's hash32");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_across_invocations() {
        for i in 0..1000u64 {
            assert_eq!(hash32(&i), hash32(&i));
        }
    }

    #[test]
    fn distinct_small_ints_rarely_collide() {
        let hashes: HashSet<u32> = (0..10_000u32).map(|i| hash32(&i)).collect();
        // Essentially-injective on small dense domains.
        assert!(hashes.len() > 9_990, "got {} distinct hashes", hashes.len());
    }

    #[test]
    fn low_bits_are_well_distributed() {
        // The first trie level uses the lowest 5 bits; all 32 buckets should
        // be populated by a modest number of consecutive integers.
        let mut buckets = [0u32; 32];
        for i in 0..4096u32 {
            buckets[(hash32(&i) & 31) as usize] += 1;
        }
        for (b, count) in buckets.iter().enumerate() {
            assert!(*count > 0, "bucket {b} empty");
        }
    }

    #[test]
    fn string_hashing_differs_by_content() {
        assert_ne!(hash32("hello"), hash32("world"));
        assert_ne!(hash32("ab"), hash32("ba"));
        assert_eq!(hash32("multi"), hash32("multi"));
    }

    #[test]
    fn partial_word_length_matters() {
        let mut a = TrieHasher::new();
        a.write(b"ab");
        let mut b = TrieHasher::new();
        b.write(b"a\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn equal_write_sequences_collide_by_construction() {
        // Test scaffolding for collision nodes relies on this property.
        use std::hash::{Hash, Hasher};
        struct K {
            bucket: u32,
            // Distinguishes instances without feeding the hasher.
            #[allow(dead_code)]
            id: u32,
        }
        impl Hash for K {
            fn hash<H: Hasher>(&self, state: &mut H) {
                state.write_u32(self.bucket);
            }
        }
        let a = K { bucket: 7, id: 1 };
        let b = K { bucket: 7, id: 2 };
        assert_eq!(hash32(&a), hash32(&b));
    }
}
