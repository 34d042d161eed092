//! A deterministic word hasher for the maps keyed by ids the program hands out.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fx-style word hasher: each word written is added to the state, which
/// is then multiplied by an odd constant, and [`Hasher::finish`] rotates
/// the well-mixed high bits down to the low bits a table uses to pick a
/// bucket. One add and one multiply per word, against SipHash's rounds
/// per 8 bytes, and unseeded, so equal keys hash equally in every run.
///
/// It has no defence against keys crafted to collide, so it is only for
/// keys the program hands out itself — fact, tuple, predicate and term
/// ids and tuples of them — never for bytes from input: the `Symbol`
/// interner, which hashes names read from parsed text, keeps `std`'s
/// seeded `RandomState`.
#[derive(Clone, Copy, Default)]
pub struct FxHasher(u64);

pub(crate) const MUL: u64 = 0xf135_7aea_2e62_a9c5;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(MUL);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`FxHasher`]; build it with `FxMap::default()`.
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`]; build it with `FxSet::default()`.
pub type FxSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(t)
    }

    #[test]
    fn hashes_repeat_and_separate_nearby_ids() {
        assert_eq!(hash(&(3u32, [7u32, 9])), hash(&(3u32, [7u32, 9])));
        // Consecutive ids land in different low bits (bucket choice).
        let low: HashSet<u64> = (0u32..64).map(|i| hash(&i) & 0xff).collect();
        assert!(low.len() > 32, "{} distinct low bytes", low.len());
        assert_ne!(hash(&[1u32, 2]), hash(&[2u32, 1]));
    }
}
