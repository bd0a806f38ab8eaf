//! Deterministic per-store-file bloom filters over `(row, column)` pairs.
//!
//! Every store file carries a bloom filter built at flush (or compaction)
//! time; the point-get read path probes it before charging the file's
//! read-amplification service term, so a get only pays for files that can
//! plausibly contain the key (see `server/data_path.rs` for the service model).
//!
//! ## Determinism
//!
//! Cross-process determinism is a repo invariant: the same seed must
//! produce byte-identical runs on any host. The filter therefore uses a
//! fixed-seed FNV-1a hash pair with double hashing — **no
//! `RandomState`**, no per-process salts — so the same entry set always
//! produces the same bit pattern, and an encode/decode round trip through
//! the distributed filesystem is exact.
//!
//! ## Sizing
//!
//! [`BITS_PER_KEY`] = 10 and [`NUM_PROBES`] = 7 give a theoretical false
//! positive rate of ~0.8–1% (the classic `(1 - e^{-kn/m})^k` bound), and
//! ≤ ~2% in practice with double hashing — cheap insurance at 1.25 bytes
//! per distinct `(row, column)` pair.

use crate::codec::{DecodeError, Decoder, Encoder};
use bytes::Bytes;
use std::fmt;

/// Filter bits allocated per distinct `(row, column)` key.
pub const BITS_PER_KEY: usize = 10;

/// Probes (hash functions) per lookup, near-optimal for 10 bits/key.
pub const NUM_PROBES: u32 = 7;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Seeds for the two independent FNV-1a streams that drive the double
/// hashing scheme. Fixed constants: determinism is an invariant.
const SEED_H1: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED_H2: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// Seeded FNV-1a over the length-prefixed `(row, column)` pair, one
/// stream per seed, all in one pass over the bytes. The length prefix
/// keeps `("ab", "c")` and `("a", "bc")` distinct.
fn fnv1a<const N: usize>(seeds: [u64; N], row: &[u8], column: &[u8]) -> [u64; N] {
    let mut hashes = seeds.map(|seed| FNV_OFFSET ^ seed);
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            for h in &mut hashes {
                *h = (*h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        }
    };
    eat(&(row.len() as u32).to_be_bytes());
    eat(row);
    eat(column);
    hashes
}

/// The double-hashing pair `(h1, h2)` of a `(row, column)` key. The
/// stride `h2` is forced odd so it never degenerates to probing one bit.
pub fn hash_pair(row: &[u8], column: &[u8]) -> (u64, u64) {
    let [h1, h2] = fnv1a([SEED_H1, SEED_H2], row, column);
    (h1, h2 | 1)
}

/// The first half of [`hash_pair`] alone: what addresses a store file's
/// hash index, for callers that probe no filter.
pub fn cell_hash(row: &[u8], column: &[u8]) -> u64 {
    let [h1] = fnv1a([SEED_H1], row, column);
    h1
}

/// A requested `(row, column)` with its [`hash_pair`] taken once. A point
/// read builds one per requested cell and hands it to every file it
/// probes ([`crate::StoreFileData::filter_may_contain_cell`],
/// [`crate::StoreFileData::get_cell`]), so the key bytes are hashed once
/// per get rather than once per file and step.
#[derive(Clone, Debug)]
pub struct CellKey {
    row: Bytes,
    column: Bytes,
    hash: (u64, u64),
}

impl CellKey {
    /// Hashes `(row, column)`.
    pub fn new(row: Bytes, column: Bytes) -> CellKey {
        let hash = hash_pair(&row, &column);
        CellKey { row, column, hash }
    }

    /// The row key.
    pub fn row(&self) -> &Bytes {
        &self.row
    }

    /// The column qualifier.
    pub fn column(&self) -> &Bytes {
        &self.column
    }

    /// [`hash_pair`] of the row and column.
    pub fn hash(&self) -> (u64, u64) {
        self.hash
    }
}

/// What a probe position moves by, modulo `nbits`, when the 64-bit sum
/// `h1 + i·h2` wraps: `-2⁶⁴ mod nbits`, in `1..=nbits`.
fn carry_fix(nbits: u64) -> u64 {
    nbits - (u64::MAX % nbits + 1) % nbits
}

/// [`probe_bits`] with the filter's [`carry_fix`] already worked out.
/// Branch-free: whether a sum wraps is a coin toss per probe.
fn step_bits(h1: u64, h2: u64, nbits: u64, carry_fix: u64) -> [u64; NUM_PROBES as usize] {
    debug_assert!(nbits <= 1 << 62, "position sums must not overflow");
    // `x` in `0..2·nbits` reduced into `0..nbits`: the subtraction wraps
    // to a huge value exactly when `x` is already in range.
    let reduce = |x: u64| x.min(x.wrapping_sub(nbits));
    let step = h2 % nbits;
    let mut sum = h1;
    let mut bit = h1 % nbits;
    let mut bits = [0; NUM_PROBES as usize];
    for slot in &mut bits {
        *slot = bit;
        let (next, carried) = sum.overflowing_add(h2);
        sum = next;
        bit = reduce(bit + step);
        bit = reduce(bit + (carry_fix & u64::from(carried).wrapping_neg()));
    }
    bits
}

/// The [`NUM_PROBES`] bit positions `h1.wrapping_add(i * h2) % nbits`,
/// `i = 0, 1, …`, of one key in a filter of `nbits` bits, with two
/// divisions per key instead of one per probe: each position is the
/// previous one plus `h2 % nbits`, moved by `2⁶⁴ % nbits` whenever the
/// 64-bit sum `h1 + i·h2` wrapped — which is all that distinguishes the
/// wrapping sum from the true one. The filter is persisted and its false
/// positives feed the simulated service time, so the positions are
/// exactly the formula's (see `tests/filter_properties.rs`).
pub fn probe_bits(h1: u64, h2: u64, nbits: u64) -> [u64; NUM_PROBES as usize] {
    step_bits(h1, h2, nbits, carry_fix(nbits))
}

/// A fixed-size bloom filter over `(row, column)` pairs.
///
/// Built once (store files are immutable), probed on every point get.
/// An empty filter (zero keys) rejects everything.
///
/// # Example
///
/// ```
/// use cumulo_store::bloom::BloomFilter;
///
/// let filter = BloomFilter::build([(b"row1".as_ref(), b"c".as_ref())]);
/// assert!(filter.may_contain(b"row1", b"c"));
/// assert!(!filter.may_contain(b"row2", b"c"));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BloomFilter {
    /// Bit array in 64-bit words; `words.len() * 64` addressable bits.
    words: Box<[u64]>,
}

impl fmt::Debug for BloomFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BloomFilter")
            .field("bits", &(self.words.len() * 64))
            .field("bytes", &self.approx_bytes())
            .finish()
    }
}

impl BloomFilter {
    /// Builds a filter sized for (and containing) the given keys.
    pub fn build<'a, I>(keys: I) -> BloomFilter
    where
        I: IntoIterator<Item = (&'a [u8], &'a [u8])>,
    {
        let hashes: Vec<(u64, u64)> = keys.into_iter().map(|(r, c)| hash_pair(r, c)).collect();
        BloomFilter::from_hashes(&hashes)
    }

    /// Builds a filter sized for (and containing) the keys whose
    /// [`hash_pair`]s are given — the store-file builder hashes each
    /// distinct key as it streams past and sizes the filter at the end.
    pub fn from_hashes(hashes: &[(u64, u64)]) -> BloomFilter {
        if hashes.is_empty() {
            return BloomFilter {
                words: Box::default(),
            };
        }
        let bits = (hashes.len() * BITS_PER_KEY).max(64);
        let mut words = vec![0u64; bits.div_ceil(64)].into_boxed_slice();
        let nbits = (words.len() * 64) as u64;
        let carry_fix = carry_fix(nbits);
        for &(h1, h2) in hashes {
            for bit in step_bits(h1, h2, nbits, carry_fix) {
                words[(bit / 64) as usize] |= 1 << (bit % 64);
            }
        }
        BloomFilter { words }
    }

    /// Whether the filter may contain `(row, column)`. `false` is
    /// definitive (the pair was never inserted); `true` may be a false
    /// positive.
    pub fn may_contain(&self, row: &[u8], column: &[u8]) -> bool {
        self.may_contain_hashed(hash_pair(row, column))
    }

    /// [`BloomFilter::may_contain`] for a key whose [`hash_pair`] the
    /// caller already holds.
    pub fn may_contain_hashed(&self, (h1, h2): (u64, u64)) -> bool {
        if self.words.is_empty() {
            return false;
        }
        let nbits = (self.words.len() * 64) as u64;
        probe_bits(h1, h2, nbits)
            .iter()
            .all(|bit| self.words[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }

    /// In-memory (and on-disk) size of the bit array in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Bytes [`BloomFilter::encode`] appends.
    pub fn encoded_len(&self) -> usize {
        4 + self.approx_bytes()
    }

    /// Serializes the filter (word count, then the words).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.words.len() as u32);
        for w in self.words.iter() {
            enc.put_u64(*w);
        }
    }

    /// Parses a filter previously produced by [`BloomFilter::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated input.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<BloomFilter, DecodeError> {
        let n = dec.get_u32()? as usize;
        // A count read from input is bounded before it sizes anything.
        if n > dec.remaining() / 8 {
            return Err(dec.error("filter word count"));
        }
        let mut words = Vec::with_capacity(n);
        for _ in 0..n {
            words.push(dec.get_u64()?);
        }
        Ok(BloomFilter {
            words: words.into_boxed_slice(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("row{i:08}").into_bytes(),
                    format!("c{}", i % 4).into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn hash_pair_values_are_pinned() {
        // Persisted in every filter and deciding every store file's hash
        // index layout: these two values must never change.
        assert_eq!(
            hash_pair(b"user000000000001", b"f0"),
            (11_276_055_705_951_501_446, 7_981_344_869_512_685_005)
        );
        assert_eq!(
            cell_hash(b"user000000000001", b"f0"),
            11_276_055_705_951_501_446
        );
    }

    #[test]
    fn no_false_negatives() {
        let keys = pairs(5_000);
        let filter = BloomFilter::build(keys.iter().map(|(r, c)| (&r[..], &c[..])));
        for (r, c) in &keys {
            assert!(filter.may_contain(r, c));
        }
    }

    #[test]
    fn false_positive_rate_within_budget() {
        let keys = pairs(10_000);
        let filter = BloomFilter::build(keys.iter().map(|(r, c)| (&r[..], &c[..])));
        let mut fp = 0u32;
        let trials = 20_000u32;
        for i in 0..trials {
            if filter.may_contain(format!("absent{i:08}").as_bytes(), b"c0") {
                fp += 1;
            }
        }
        let rate = fp as f64 / trials as f64;
        assert!(rate <= 0.02, "false positive rate {rate} above 2%");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let filter = BloomFilter::build(std::iter::empty());
        assert!(!filter.may_contain(b"r", b"c"));
        assert_eq!(filter.approx_bytes(), 0);
    }

    #[test]
    fn length_prefix_separates_row_and_column() {
        let filter = BloomFilter::build([(b"ab".as_ref(), b"c".as_ref())]);
        // Same concatenation, different split: overwhelmingly unlikely to
        // collide thanks to the length prefix.
        assert!(!filter.may_contain(b"a", b"bc"));
    }

    #[test]
    fn encode_decode_is_exact() {
        let keys = pairs(1_000);
        let filter = BloomFilter::build(keys.iter().map(|(r, c)| (&r[..], &c[..])));
        let mut enc = Encoder::new();
        filter.encode(&mut enc);
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf);
        let back = BloomFilter::decode(&mut dec).expect("decode");
        assert_eq!(back, filter);
        assert!(dec.is_at_end());
        // Truncated input errors out instead of panicking.
        let mut dec = Decoder::new(&buf[..buf.len() - 3]);
        assert!(BloomFilter::decode(&mut dec).is_err());
    }

    #[test]
    fn build_is_deterministic() {
        let keys = pairs(500);
        let a = BloomFilter::build(keys.iter().map(|(r, c)| (&r[..], &c[..])));
        let b = BloomFilter::build(keys.iter().map(|(r, c)| (&r[..], &c[..])));
        assert_eq!(a, b);
    }
}
