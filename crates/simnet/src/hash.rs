//! A cheap hasher for maps keyed by ids the emulator mints itself.
//!
//! `std`'s default SipHash buys resistance to keys crafted to collide. The
//! one map that uses [`IdHashMap`], the FIB group table's `ids`, is keyed by
//! next-hop groups out of the local daemon's FIB projection, which no
//! outside input reaches, and sits on the per-prefix FIB path, where SipHash
//! over a 256-member group is a measurable share of the work. It is also
//! point-lookup only: never iterated, so swapping the hasher cannot reorder
//! anything. Keep the default hasher for any map that is iterated or whose
//! keys arrive from a socket or a document. State keyed by device or
//! session is not hashed at all: it lives in dense per-device tables
//! (`DenseMap`, the coalescer's per-sender session table).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` over [`IdHasher`].
pub(crate) type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiply-rotate word hasher (the FxHash construction): one rotate, xor
/// and multiply per word written.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

/// Odd, bit-dense multiplier (FxHash's 64-bit constant).
const K: u64 = 0x517c_c1b7_2722_0a95;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
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

    /// The multiply leaves its entropy in the high bits; the table indexes
    /// buckets with the low ones, so rotate them down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn dense_ids_spread_over_low_and_high_bits() {
        // hashbrown picks the bucket from the low bits and the control byte
        // from the top seven: sequential ids must not collapse in either.
        let mut low = std::collections::BTreeSet::new();
        let mut high = std::collections::BTreeSet::new();
        for id in 0u64..4096 {
            let h = hash_of(id);
            low.insert(h & 0xfff);
            high.insert(h >> 57);
        }
        assert!(low.len() > 2048, "low 12 bits: {} of 4096", low.len());
        assert_eq!(high.len(), 128);
    }

    #[test]
    fn session_keys_and_groups_hash_by_content() {
        assert_ne!(hash_of((1u32, 2u32, 0u8)), hash_of((2u32, 1u32, 0u8)));
        assert_ne!(hash_of((1u32, 2u32, 0u8)), hash_of((1u32, 2u32, 1u8)));
        let group: Vec<(u64, u32)> = vec![(256, 1), (512, 1)];
        assert_eq!(hash_of(&group[..]), hash_of(group.clone()));
        assert_ne!(hash_of(&group[..]), hash_of(&group[..1]));
        // Bytes that do not fill a word still count.
        assert_ne!(hash_of("abc"), hash_of("abd"));
    }
}
