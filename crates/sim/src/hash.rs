//! A fixed-seed hasher for the few in-memory hash indexes.
//!
//! std's `RandomState` salts every map per process, so the same keys
//! land in a different table layout in every run. [`FixedState`] has no
//! salt: a map built with it has the same layout in every process, which
//! keeps a hash index's host time — and anything that could ever read
//! its order — the same from run to run.
//!
//! The hasher is FxHash's multiply-rotate over 8-byte words, finished by
//! murmur3's `fmix64` avalanche. The finish is not optional: the index
//! keys are `user{i:012}`-style rows that differ only in their last
//! bytes, and a multiply carries a changed bit only upwards, so without
//! it sequential rows agree in their low bits (the bucket index) and a
//! warm-up of a few hundred thousand rows degrades to probing chains.

use std::hash::{BuildHasher, Hasher};

/// Builds [`FixedHasher`]s: an unsalted `BuildHasher` for a map's third
/// type parameter.
///
/// # Example
///
/// ```
/// use cumulo_sim::FixedState;
/// use std::hash::BuildHasher;
///
/// // No per-process salt: a key hashes alike in every run.
/// let h = FixedState.hash_one(b"user000000000001");
/// assert_eq!(h, FixedState.hash_one(b"user000000000001"));
/// assert_ne!(h, FixedState.hash_one(b"user000000000002"));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedState;

impl BuildHasher for FixedState {
    type Hasher = FixedHasher;

    fn build_hasher(&self) -> FixedHasher {
        FixedHasher { state: 0 }
    }
}

/// The [`Hasher`] a [`FixedState`] builds.
#[derive(Clone, Copy, Debug)]
pub struct FixedHasher {
    state: u64,
}

/// FxHash's multiplier.
const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

impl FixedHasher {
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // Zero-padded: `Hash for [u8]` prefixes the length, so "a"
            // and "a\0" still differ.
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// murmur3's `fmix64`: every input bit reaches every output bit.
    fn finish(&self) -> u64 {
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}
