//! Property-based tests of the per-store-file bloom filters: a filter
//! must never produce a false negative — any `(row, column)` pair
//! present at build time must still match after an encode/decode round
//! trip through the on-disk format — and pruning must never change what
//! a get returns.

use bytes::Bytes;
use cumulo_store::bloom::{hash_pair, probe_bits, BloomFilter, NUM_PROBES};
use cumulo_store::codec::Encoder;
use cumulo_store::{MemStore, RegionId, StoreFileData, Timestamp};
use proptest::prelude::*;

fn row(r: u16) -> Bytes {
    Bytes::from(format!("row{r:05}"))
}

fn col(c: u8) -> Bytes {
    Bytes::from(format!("c{}", c % 5))
}

/// Builds one store file from arbitrary writes.
fn build_file(writes: &[(u16, u8, u64, Option<u8>)]) -> StoreFileData {
    let mut ms = MemStore::new();
    for (r, c, ts, v) in writes {
        ms.apply(
            row(*r),
            col(*c),
            Timestamp(ts % 50 + 1),
            v.map(|x| Bytes::from(format!("v{x}"))),
        );
    }
    StoreFileData::from_memstore(RegionId(0), "/f", &ms)
}

/// The bits a filter is persisted with, as hex: word count, then words.
fn encoded(filter: &BloomFilter) -> String {
    let mut enc = Encoder::new();
    filter.encode(&mut enc);
    enc.finish().iter().map(|b| format!("{b:02x}")).collect()
}

/// The filter bits did not move: filters over fixed keys equal the ones
/// captured before hashing became one pass and probing division-free
/// (commit 8652e17). They are persisted in every store file, and their
/// false positives feed the simulated service time.
#[test]
fn golden_filter_bits_are_unchanged() {
    let keys: Vec<(String, String)> = (0..20)
        .map(|i| (format!("row{i:04}"), format!("c{}", i % 3)))
        .collect();
    let filter = BloomFilter::build(keys.iter().map(|(r, c)| (r.as_bytes(), c.as_bytes())));
    assert_eq!(
        encoded(&filter),
        "0000000485d37881194a2304e596d238d1d40be408681fc953e69c1f090b2c1225a04ce1"
    );
    // A filter big enough that the probe sums wrap: its FNV-1a digest.
    let keys: Vec<String> = (0..5000).map(|i| format!("user{i:012}")).collect();
    let filter = BloomFilter::build(keys.iter().map(|r| (r.as_bytes(), &b"f0"[..])));
    let bits = encoded(&filter);
    assert_eq!(bits.len(), 2 * 6260);
    let digest = bits
        .as_bytes()
        .chunks(2)
        .fold(0xcbf2_9ce4_8422_2325u64, |h, pair| {
            let byte = u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap();
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(digest, 0x63ae_864e_efd5_c179);
}

proptest! {
    /// Stepping from one probe position to the next with an addition and
    /// a carry correction lands on exactly the positions the defining
    /// formula `(h1 + i·h2 mod 2⁶⁴) mod nbits` gives — for strides near
    /// `u64::MAX` (the sum wraps at every step), tiny strides (it never
    /// does), and filter sizes from the 64-bit minimum up.
    #[test]
    fn probe_stepping_matches_the_modulo_formula(
        h1 in any::<u64>(),
        h2 in any::<u64>(),
        extreme in 0u8..4,
        words in 1u64..100_000,
    ) {
        let h2 = match extreme {
            0 => u64::MAX - h2 % 1024,
            1 => h2 % 1024,
            _ => h2,
        } | 1;
        for nbits in [64, words * 64] {
            let want: Vec<u64> = (0..u64::from(NUM_PROBES))
                .map(|i| h1.wrapping_add(i.wrapping_mul(h2)) % nbits)
                .collect();
            prop_assert_eq!(probe_bits(h1, h2, nbits).to_vec(), want);
        }
    }

    /// A key's hash pair is a pure function of it; the stride is odd,
    /// and the row/column boundary matters.
    #[test]
    fn hash_pair_is_stable_and_odd(
        r in prop::collection::vec(any::<u8>(), 0..24),
        c in prop::collection::vec(any::<u8>(), 1..8),
    ) {
        let (h1, h2) = hash_pair(&r, &c);
        prop_assert_eq!(hash_pair(&r, &c), (h1, h2));
        prop_assert_eq!(h2 & 1, 1);
        // Moving the boundary one byte changes the length prefix.
        let mut longer_row = r.clone();
        longer_row.push(c[0]);
        prop_assert_ne!(hash_pair(&longer_row, &c[1..]).0, h1);
    }

    /// No false negatives, before or after the codec round trip: every
    /// pair inserted at build time matches, in the built filter and in
    /// the decoded one.
    #[test]
    fn bloom_never_false_negative_across_roundtrip(
        writes in prop::collection::vec(
            (any::<u16>(), any::<u8>(), any::<u64>(), prop::option::of(any::<u8>())),
            1..200
        ),
    ) {
        let sf = build_file(&writes);
        let decoded = StoreFileData::decode("/f", &sf.encode()).expect("decode");
        for e in sf.entries() {
            let (r, c, ts, v) = (e.row, e.column, e.ts, e.value_bytes());
            prop_assert!(sf.filter_may_contain(r, c), "built filter missed ({r:?}, {c:?})");
            prop_assert!(
                decoded.filter_may_contain(r, c),
                "decoded filter missed ({r:?}, {c:?})"
            );
            prop_assert!(sf.contains_key(r, c));
            // The round trip also preserves the entries themselves.
            let got = decoded.get(r, c, ts);
            prop_assert_eq!(got.as_ref().map(|vv| &vv.value), Some(&v));
        }
        prop_assert_eq!(decoded.key_range(), sf.key_range());
        prop_assert_eq!(decoded.filter_bytes(), sf.filter_bytes());
    }

    /// Pruning soundness: for any probe key, if either the range check or
    /// the filter excludes the file, a get against the file must return
    /// nothing — at any snapshot.
    #[test]
    fn pruned_files_hold_nothing(
        writes in prop::collection::vec(
            (any::<u16>(), any::<u8>(), any::<u64>(), prop::option::of(any::<u8>())),
            1..100
        ),
        probe_r in any::<u16>(),
        probe_c in any::<u8>(),
        snap in any::<u64>(),
    ) {
        let sf = build_file(&writes);
        let (r, c) = (row(probe_r), col(probe_c));
        let excluded = !sf.row_in_range(&r) || !sf.filter_may_contain(&r, &c);
        if excluded {
            prop_assert!(!sf.contains_key(&r, &c), "filter excluded a present key");
            prop_assert_eq!(sf.get(&r, &c, Timestamp(snap)), None);
        }
    }

    /// The filter is a pure function of the key set: building twice from
    /// the same file contents yields bit-identical filters (the
    /// determinism invariant — no per-process hash state).
    #[test]
    fn filter_build_is_deterministic(
        writes in prop::collection::vec(
            (any::<u16>(), any::<u8>(), any::<u64>(), prop::option::of(any::<u8>())),
            1..100
        ),
    ) {
        let a = build_file(&writes);
        let b = build_file(&writes);
        prop_assert_eq!(a.encode(), b.encode());
        let mut keys: Vec<(Bytes, Bytes)> = a
            .entries()
            .map(|e| (Bytes::copy_from_slice(e.row), Bytes::copy_from_slice(e.column)))
            .collect();
        keys.dedup();
        let direct = BloomFilter::build(keys.iter().map(|(r, c)| (&r[..], &c[..])));
        for (r, c) in &keys {
            prop_assert!(direct.may_contain(r, c));
        }
    }
}
