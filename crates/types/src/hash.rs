//! A fast deterministic hasher for maps keyed by values the simulator
//! makes itself.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
///
/// # Examples
///
/// ```
/// use blockpart_types::{Address, FastMap};
///
/// let mut balances: FastMap<Address, u64> = FastMap::default();
/// balances.insert(Address::from_index(7), 42);
/// assert_eq!(balances[&Address::from_index(7)], 42);
/// ```
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// rustc's multiply-rotate `FxHasher`: one rotate, xor and multiply per
/// 64-bit word.
///
/// It is not DoS-resistant and not seeded per process, which suits the
/// state path: its keys are `mix64`-scrambled addresses, slot numbers and
/// transaction ids, all made by the simulator. Iteration order becomes a
/// function of the keys, but nothing the program outputs depends on it
/// (with `RandomState` it already differed in every process).
#[derive(Clone, Copy, Debug, Default)]
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
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn hashes_are_the_same_in_every_process() {
        // pinned: a change here reorders every FastMap iteration
        assert_eq!(hash_of(1u64), SEED);
        assert_eq!(hash_of(0u64), 0);
        assert_ne!(hash_of(1u64), hash_of(2u64));
    }

    #[test]
    fn byte_tails_shorter_than_a_word_count() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }
}
