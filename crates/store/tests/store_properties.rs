//! Property-based tests of the store's core data structures.

use bytes::Bytes;
use cumulo_store::bloom::BloomFilter;
use cumulo_store::codec::{
    decode_wal_batch, encode_mutation, encode_wal_batch, Encoder, WalRecord,
};
use cumulo_store::compaction::{merge_store_files, GcWatermark};
use cumulo_store::merge_iter::{scan_page, EntryRef, MergeIter};
use cumulo_store::{
    BlockCache, MemStore, Mutation, MutationKind, RegionId, RegionMap, StoreFileData,
    StoreFileEntry, Timestamp, VersionedValue,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::rc::Rc;

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (
        prop::collection::vec(any::<u8>(), 1..8),
        prop::collection::vec(any::<u8>(), 1..4),
        prop::option::of(prop::collection::vec(any::<u8>(), 0..16)),
    )
        .prop_map(|(row, col, val)| Mutation {
            row: Bytes::from(row),
            column: Bytes::from(col),
            kind: match val {
                Some(v) => MutationKind::Put(Bytes::from(v)),
                None => MutationKind::Delete,
            },
        })
}

type Cell = (Bytes, Bytes, VersionedValue);

/// One versioned write over a small key alphabet (so versions, cells and
/// sources collide): (row id, column id, ts, value — None = tombstone).
type ArbVersion = (u8, u8, u64, Option<u8>);

fn arb_versions(max: usize) -> impl Strategy<Value = Vec<ArbVersion>> {
    prop::collection::vec(
        (0u8..12, 0u8..3, 1u64..40, prop::option::of(0u8..4)),
        0..max,
    )
}

/// A row of 0–24 bytes over `{0x00, 0x01, 0xff}`: the first `n ≤ 16`
/// bytes of one of two 16-byte stems, then up to 8 more. So rows that
/// share their first 16 bytes and differ after them occur, and so do rows
/// that tie once zero-padded to 16 bytes (`ab` against `ab\0`).
fn arb_edge_row() -> impl Strategy<Value = Bytes> {
    const ALPHABET: [u8; 3] = [0x00, 0x01, 0xff];
    const STEMS: [[u8; 16]; 2] = [
        [0x01; 16],
        [
            0x00, 0x01, 0xff, 0x00, 0x00, 0x01, 0xff, 0x01, 0x00, 0xff, 0xff, 0x01, 0x00, 0x00,
            0x01, 0x00,
        ],
    ];
    (
        0usize..2,
        0usize..17,
        prop::collection::vec(0usize..3, 0..9),
    )
        .prop_map(|(stem, n, tail)| {
            let mut row = STEMS[stem][..n].to_vec();
            row.extend(tail.into_iter().map(|i| ALPHABET[i]));
            Bytes::from(row)
        })
}

fn scan_row(r: u8) -> Bytes {
    Bytes::from(format!("row{r:02}"))
}

fn memstore_of(versions: &[ArbVersion]) -> MemStore {
    let mut ms = MemStore::new();
    for (r, c, ts, v) in versions {
        // Copies of one (cell, ts) in different sources can disagree on
        // being a tombstone. No real history does that, but it makes the
        // tie-break (the first-listed source wins) observable.
        // Value id 0 is the empty value — stored, and not a tombstone.
        let value = v.map(|x| match x {
            0 => Bytes::new(),
            _ => Bytes::from(format!("v{r}-{c}-{ts}")),
        });
        ms.apply(
            scan_row(*r),
            Bytes::from(format!("c{c}")),
            Timestamp(*ts),
            value,
        );
    }
    ms
}

fn file_of(versions: &[ArbVersion], path: &str) -> Rc<StoreFileData> {
    Rc::new(StoreFileData::from_memstore(
        RegionId(0),
        path,
        &memstore_of(versions),
    ))
}

/// A scan bound picked from before, on, between and after the row
/// alphabet.
fn bound(sel: u8) -> Vec<u8> {
    match sel % 16 {
        0 => Vec::new(),
        13 => b"a".to_vec(),
        14 => b"row05~".to_vec(),
        15 => b"zzz".to_vec(),
        r => scan_row(r - 1).to_vec(),
    }
}

/// A borrowed entry in owned form.
fn owned(e: EntryRef<'_>) -> StoreFileEntry {
    let (row, col, vv) = e.to_cell();
    (row, col, vv.ts, vv.value)
}

/// A memstore's contents in owned form.
fn owned_entries(ms: &MemStore) -> Vec<StoreFileEntry> {
    ms.iter()
        .map(|(r, c, ts, v)| (r.clone(), c.clone(), ts, v.clone()))
        .collect()
}

/// The full-walk scan the cursors replaced, kept as the reference:
/// visits every entry of the source and filters by range and snapshot.
fn full_walk_scan(
    entries: impl IntoIterator<Item = StoreFileEntry>,
    start: &[u8],
    end: Option<&[u8]>,
    snapshot: Timestamp,
) -> Vec<Cell> {
    let mut out: Vec<Cell> = Vec::new();
    for (row, col, ts, value) in entries {
        if ts > snapshot || &row[..] < start || end.is_some_and(|end| &row[..] >= end) {
            continue;
        }
        if matches!(out.last(), Some((lr, lc, _)) if *lr == row && *lc == col) {
            continue;
        }
        out.push((row, col, VersionedValue { ts, value }));
    }
    out
}

fn full_walk_file(
    sf: &StoreFileData,
    start: &[u8],
    end: Option<&[u8]>,
    snap: Timestamp,
) -> Vec<Cell> {
    full_walk_scan(sf.entries().map(owned), start, end, snap)
}

/// The store file the flat image replaced, kept as the reference model:
/// a sorted `Vec` of owned entries, every operation written the obvious
/// way over it — including the encoder, entry by entry through
/// `encode_mutation`, with the filter built from the distinct keys.
struct ModelFile {
    region: RegionId,
    entries: Vec<StoreFileEntry>,
    /// A reference half-file keeps its parent's filter.
    filter_keys: Vec<(Bytes, Bytes)>,
}

impl ModelFile {
    fn new(region: RegionId, entries: Vec<StoreFileEntry>) -> ModelFile {
        let mut filter_keys: Vec<(Bytes, Bytes)> = entries
            .iter()
            .map(|(r, c, ..)| (r.clone(), c.clone()))
            .collect();
        filter_keys.dedup();
        ModelFile {
            region,
            entries,
            filter_keys,
        }
    }

    fn reference(&self, region: RegionId, start: &[u8], end: Option<&[u8]>) -> Option<ModelFile> {
        let entries: Vec<StoreFileEntry> = self
            .entries
            .iter()
            .filter(|(r, ..)| &r[..] >= start && end.is_none_or(|end| &r[..] < end))
            .cloned()
            .collect();
        (!entries.is_empty()).then(|| ModelFile {
            region,
            entries,
            filter_keys: self.filter_keys.clone(),
        })
    }

    fn get(&self, row: &[u8], col: &[u8], snap: Timestamp) -> Option<VersionedValue> {
        self.entries
            .iter()
            .find(|(r, c, ts, _)| r == row && c == col && *ts <= snap)
            .map(|(_, _, ts, v)| VersionedValue {
                ts: *ts,
                value: v.clone(),
            })
    }

    fn contains_key(&self, row: &[u8], col: &[u8]) -> bool {
        self.entries.iter().any(|(r, c, ..)| r == row && c == col)
    }

    fn range(&self, start: &[u8], end: Option<&[u8]>) -> Vec<StoreFileEntry> {
        self.entries
            .iter()
            .filter(|(r, ..)| &r[..] >= start && end.is_none_or(|end| &r[..] < end))
            .cloned()
            .collect()
    }

    fn key_range(&self) -> Option<(&[u8], &[u8])> {
        let (min, ..) = self.entries.first()?;
        let (max, ..) = self.entries.last()?;
        Some((min, max))
    }

    fn mid_row(&self) -> Option<Bytes> {
        self.entries
            .get(self.entries.len() / 2)
            .map(|(r, ..)| r.clone())
    }

    fn total_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|(r, c, _, v)| r.len() + c.len() + v.as_ref().map_or(0, Bytes::len) + 24)
            .sum()
    }

    fn encode(&self) -> Bytes {
        let mut enc = Encoder::new();
        enc.put_u32(self.region.0);
        enc.put_u32(self.entries.len() as u32);
        for (row, column, ts, value) in &self.entries {
            let kind = match value {
                Some(v) => MutationKind::Put(v.clone()),
                None => MutationKind::Delete,
            };
            let m = Mutation {
                row: row.clone(),
                column: column.clone(),
                kind,
            };
            encode_mutation(&mut enc, &m);
            enc.put_u64(ts.0);
        }
        BloomFilter::build(self.filter_keys.iter().map(|(r, c)| (&r[..], &c[..]))).encode(&mut enc);
        enc.finish()
    }
}

/// Everything observable about a flat file equals the model's.
fn assert_matches_model(sf: &StoreFileData, want: &ModelFile) -> Result<(), TestCaseError> {
    let path = sf.path();
    prop_assert_eq!(sf.len(), want.entries.len(), "{}", path);
    prop_assert_eq!(sf.is_empty(), want.entries.is_empty());
    prop_assert_eq!(sf.entries().len(), want.entries.len());
    prop_assert_eq!(&sf.entries().map(owned).collect::<Vec<_>>(), &want.entries);
    prop_assert_eq!(sf.total_bytes(), want.total_bytes(), "{}", path);
    prop_assert_eq!(sf.key_range(), want.key_range(), "{}", path);
    prop_assert_eq!(sf.mid_row(), want.mid_row(), "{}", path);
    prop_assert_eq!(sf.encode(), want.encode(), "{}", path);
    // Every cell of the alphabet and one outside it, at every snapshot.
    for r in 0..13u8 {
        for c in 0..4u8 {
            let (row, col) = (scan_row(r), Bytes::from(format!("c{c}")));
            prop_assert_eq!(sf.contains_key(&row, &col), want.contains_key(&row, &col));
            for snap in (0..=41).chain([u64::MAX]).map(Timestamp) {
                prop_assert_eq!(
                    sf.get(&row, &col, snap),
                    want.get(&row, &col, snap),
                    "{} get({:?}, {:?}) @ {:?}",
                    path,
                    row,
                    col,
                    snap
                );
            }
        }
    }
    // Bounds before, inside and after the rows; `end` open, past, at and
    // before `start`.
    for start in 0..16u8 {
        let start = bound(start);
        for end in [None, Some(15), Some(7), Some(3), Some(0)] {
            let end = end.map(bound);
            let end = end.as_deref();
            prop_assert_eq!(
                sf.range(&start, end).map(owned).collect::<Vec<_>>(),
                want.range(&start, end),
                "{} range [{:?}, {:?})",
                path,
                start,
                end
            );
            prop_assert_eq!(sf.range(&start, end).len(), want.range(&start, end).len());
            for snap in [0, 1, 17, 39, u64::MAX].map(Timestamp) {
                prop_assert_eq!(
                    sf.scan(&start, end, snap),
                    full_walk_scan(want.entries.iter().cloned(), &start, end, snap)
                );
            }
        }
    }
    Ok(())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The wire format did not move: a fixed five-entry file — several
/// versions of a cell, a tombstone, an empty value, a wide timestamp —
/// still encodes to the bytes captured before files became their images
/// (commit 8652e17, the `Vec`-of-entries representation).
#[test]
fn golden_image_is_unchanged() {
    let b = |s: &str| Bytes::copy_from_slice(s.as_bytes());
    let mut ms = MemStore::new();
    ms.apply(b("apple"), b("f0"), Timestamp(7), Some(b("red")));
    ms.apply(b("apple"), b("f0"), Timestamp(3), None);
    ms.apply(b("apple"), b("f1"), Timestamp(9), Some(b("")));
    ms.apply(b("banana"), b("f0"), Timestamp(5), Some(b("yellow")));
    let wide = Timestamp(0x0102_0304_0506_0708);
    ms.apply(b("cherry"), b("q"), wide, Some(b("dark red")));
    let sf = StoreFileData::from_memstore(RegionId(42), "/golden", &ms);
    assert_eq!(
        hex(&sf.encode()),
        "0000002a00000005\
         000000056170706c65000000026630010000000372656400000000\
         00000007\
         000000056170706c6500000002663002\
         0000000000000003\
         000000056170706c650000000266310100000000\
         0000000000000009\
         0000000662616e616e61000000026630010000000679656c6c6f77\
         0000000000000005\
         00000006636865727279000000017101000000086461726b20726564\
         0102030405060708\
         00000001b250e14a050889b5"
    );
    assert_eq!(sf.total_bytes(), 173);
    // The same bytes are a valid file, and parse back to themselves.
    let back = StoreFileData::decode("/golden", &sf.encode()).expect("decode");
    assert_eq!(back.encode(), sf.encode());
    assert_eq!(back.region(), RegionId(42));
    assert_eq!(
        back.get(b"apple", b"f1", Timestamp(9)).unwrap().value,
        Some(Bytes::new())
    );
    assert_eq!(back.get(b"apple", b"f0", Timestamp(6)).unwrap().value, None);
}

/// Whatever is wrong with the input, `decode` answers with an error:
/// any truncation, a tag that is neither put nor delete, a count that
/// claims more or fewer entries than follow, entries out of order.
#[test]
fn decode_rejects_corrupt_input_without_panicking() {
    let file = file_of(
        &[(1, 0, 5, Some(1)), (1, 0, 3, None), (2, 1, 4, Some(0))],
        "/f",
    );
    let good = file.encode().to_vec();
    assert!(StoreFileData::decode("/f", &good).is_ok());
    for cut in 0..good.len() {
        assert!(
            StoreFileData::decode("/f", &good[..cut]).is_err(),
            "cut at {cut}"
        );
    }
    let mut extra = good.clone();
    extra.push(0);
    assert!(
        StoreFileData::decode("/f", &extra).is_err(),
        "trailing byte"
    );

    // The first entry's tag sits behind the header, "row01" and "c0".
    let tag_at = 8 + (4 + 5) + (4 + 2);
    assert_eq!(good[tag_at], 1);
    for tag in [0, 3, 0xff] {
        let mut bad = good.clone();
        bad[tag_at] = tag;
        assert!(StoreFileData::decode("/f", &bad).is_err(), "tag {tag}");
    }
    for count in [0u32, 2, 4, 1 << 20, u32::MAX] {
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&count.to_be_bytes());
        assert!(StoreFileData::decode("/f", &bad).is_err(), "count {count}");
    }
    // Swapping the two versions of the first cell breaks the ordering.
    let mut swapped = good.clone();
    let ts_at = tag_at + 1 + (4 + "v1-0-5".len());
    assert_eq!(swapped[ts_at..ts_at + 8], 5u64.to_be_bytes());
    swapped[ts_at..ts_at + 8].copy_from_slice(&1u64.to_be_bytes());
    assert!(
        StoreFileData::decode("/f", &swapped).is_err(),
        "entry order"
    );
}

/// The region scan the streaming merge replaced, kept as the reference:
/// scan every source in full, keep the newest version per cell (the
/// earlier source on a tie), drop tombstoned cells, order by key, and
/// only then cut to `limit`.
fn merge_sort_truncate(sources: &[Vec<Cell>], limit: usize) -> Vec<Cell> {
    let mut merged: BTreeMap<(Bytes, Bytes), VersionedValue> = BTreeMap::new();
    for (row, col, vv) in sources.iter().flatten() {
        let key = (row.clone(), col.clone());
        if merged.get(&key).is_none_or(|old| old.ts < vv.ts) {
            merged.insert(key, vv.clone());
        }
    }
    let mut out: Vec<Cell> = merged
        .into_iter()
        .filter(|(_, vv)| vv.value.is_some())
        .map(|((row, col), vv)| (row, col, vv))
        .collect();
    out.truncate(limit);
    out
}

proptest! {
    /// The seeking cursors return exactly what a walk over the whole
    /// source returns — for memstores, physical files, reference
    /// half-files and references over references, whatever the bounds.
    #[test]
    fn cursor_scans_match_full_walk(
        versions in arb_versions(150),
        bounds in prop::collection::vec((any::<u8>(), prop::option::of(any::<u8>())), 1..12),
        clip in (any::<u8>(), prop::option::of(any::<u8>())),
        clip2 in (any::<u8>(), prop::option::of(any::<u8>())),
    ) {
        let ms = memstore_of(&versions);
        let file = file_of(&versions, "/parent");
        let half = StoreFileData::reference(
            &file, RegionId(1), "/half", &bound(clip.0), clip.1.map(bound).as_deref(),
        ).map(Rc::new);
        let quarter = half.as_ref().and_then(|half| StoreFileData::reference(
            half, RegionId(2), "/quarter", &bound(clip2.0), clip2.1.map(bound).as_deref(),
        ));
        for (start, end) in bounds {
            let (start, end) = (bound(start), end.map(bound));
            let end = end.as_deref();
            // Snapshots below every version, inside the history, above it.
            for snap in [0, 1, 17, 39, u64::MAX].map(Timestamp) {
                prop_assert_eq!(
                    ms.scan(&start, end, snap),
                    full_walk_scan(owned_entries(&ms), &start, end, snap)
                );
                let files = [Some(&*file), half.as_deref(), quarter.as_ref()];
                for sf in files.into_iter().flatten() {
                    prop_assert_eq!(
                        sf.scan(&start, end, snap),
                        full_walk_file(sf, &start, end, snap),
                        "{} [{:?}, {:?}) @ {:?}", sf.path(), start, end, snap
                    );
                }
            }
        }
    }

    /// The streaming, limit-bounded region scan returns exactly what
    /// merging full per-source scans, sorting and truncating returned —
    /// over stacks of 1–4 store files, an optional flushing snapshot and
    /// a memstore that share versions of the same cells.
    #[test]
    fn streaming_scan_page_matches_merge_sort_truncate(
        writes in prop::collection::vec(
            ((0u8..12, 0u8..3, 1u64..40, prop::option::of(0u8..4)), 1u8..64),
            0..200
        ),
        n_files in 1usize..5,
        flushing in any::<bool>(),
        bounds in prop::collection::vec((any::<u8>(), prop::option::of(any::<u8>())), 1..8),
        snap in 0u64..45,
    ) {
        // Source 0 is the memstore. A write lands in every source whose
        // bit its mask sets, so the same (cell, ts) turns up in several.
        let n_sources = 1 + n_files + usize::from(flushing);
        let per_source = |i: usize| -> Vec<ArbVersion> {
            writes
                .iter()
                .filter(|(_, mask)| mask >> i & 1 == 1)
                .map(|(w, _)| *w)
                .collect()
        };
        let ms = memstore_of(&per_source(0));
        let files: Vec<Rc<StoreFileData>> = (1..n_sources)
            .map(|i| file_of(&per_source(i), &format!("/f{i}")))
            .collect();
        let snap = Timestamp(snap);
        for (start, end) in bounds {
            let (start, end) = (bound(start), end.map(bound));
            let end = end.as_deref();
            let mut per_source_hits = vec![full_walk_scan(owned_entries(&ms), &start, end, snap)];
            per_source_hits.extend(files.iter().map(|sf| full_walk_file(sf, &start, end, snap)));
            let all = merge_sort_truncate(&per_source_hits, usize::MAX);
            for limit in [0, 1, all.len() / 2, all.len(), all.len() + 3, usize::MAX] {
                let (page, examined) =
                    scan_page(&ms, files.iter().map(Rc::as_ref), &start, end, snap, limit);
                prop_assert_eq!(
                    &page,
                    &merge_sort_truncate(&per_source_hits, limit),
                    "[{:?}, {:?}) limit {}", start, end, limit
                );
                let stored = ms.len() + files.iter().map(|sf| sf.len()).sum::<usize>();
                prop_assert!(examined as usize <= stored);
            }
        }
    }

    /// With nothing to garbage-collect, the compaction merge is the
    /// k-way merge alone: every input version once, in `(row, column,
    /// descending ts)` order, duplicates across inputs collapsed.
    #[test]
    fn compaction_merge_is_the_sorted_union_of_its_inputs(
        writes in prop::collection::vec(
            ((0u8..12, 0u8..3, 1u64..40, prop::option::of(0u8..4)), 1u8..16),
            0..200
        ),
        n_files in 2usize..5,
    ) {
        let files: Vec<Rc<StoreFileData>> = (0..n_files)
            .map(|i| {
                let mine: Vec<ArbVersion> = writes
                    .iter()
                    .filter(|(_, mask)| mask >> i & 1 == 1)
                    .map(|(w, _)| *w)
                    .collect();
                file_of(&mine, &format!("/f{i}"))
            })
            .collect();
        let merged = merge_store_files(
            RegionId(0), "/merged", &files, GcWatermark::ZERO, false, &|_, _, _| false,
        );
        let mut want: Vec<_> = files.iter().flat_map(|sf| sf.entries().map(owned)).collect();
        want.sort_by(|a, b| (&a.0, &a.1, !a.2.0).cmp(&(&b.0, &b.1, !b.2.0)));
        want.dedup_by(|a, b| (&a.0, &a.1, a.2) == (&b.0, &b.1, b.2));
        let input_versions: usize = files.iter().map(|sf| sf.len()).sum();
        prop_assert_eq!(merged.versions_dropped as usize, input_versions - want.len());
        prop_assert_eq!(merged.output.entries().map(owned).collect::<Vec<_>>(), want);
    }

    /// The flat file — an image and an offset index — is observably the
    /// `Vec`-of-entries file it replaced: same lookups at every
    /// snapshot, same cursors and scans whatever the bounds, same
    /// metadata, same bytes on the wire; and so are a reference
    /// half-file over it and a reference over that reference.
    #[test]
    fn flat_file_matches_vec_model(
        versions in arb_versions(150),
        clip in (any::<u8>(), prop::option::of(any::<u8>())),
        clip2 in (any::<u8>(), prop::option::of(any::<u8>())),
    ) {
        let file = file_of(&versions, "/parent");
        let model = ModelFile::new(RegionId(0), owned_entries(&memstore_of(&versions)));
        assert_matches_model(&file, &model)?;
        // The other constructor builds the same file.
        let direct = StoreFileData::from_sorted_entries(RegionId(0), "/direct", model.entries.clone());
        prop_assert_eq!(direct.encode(), file.encode());

        let (start, end) = (bound(clip.0), clip.1.map(bound));
        let half = StoreFileData::reference(&file, RegionId(1), "/half", &start, end.as_deref());
        let half_model = model.reference(RegionId(1), &start, end.as_deref());
        prop_assert_eq!(half.is_some(), half_model.is_some());
        let (Some(half), Some(half_model)) = (half, half_model) else {
            return Ok(());
        };
        let half = Rc::new(half);
        assert_matches_model(&half, &half_model)?;

        let (start, end) = (bound(clip2.0), clip2.1.map(bound));
        let quarter = StoreFileData::reference(&half, RegionId(2), "/quarter", &start, end.as_deref());
        let quarter_model = half_model.reference(RegionId(2), &start, end.as_deref());
        prop_assert_eq!(quarter.is_some(), quarter_model.is_some());
        if let (Some(quarter), Some(quarter_model)) = (quarter, quarter_model) {
            prop_assert_eq!(quarter.backing_path(), "/parent");
            assert_matches_model(&quarter, &quarter_model)?;
        }
    }

    /// A point read through the hash index answers what an ordered seek
    /// through the offset index answers and what the `Vec` model answers
    /// — over files with many versions per cell, tombstones, and empty
    /// rows, columns and values, for stored cells and for absent keys
    /// sorting before, between and after them, at every snapshot from
    /// below the oldest version up. `decode` rebuilds an index that
    /// answers the same.
    #[test]
    fn indexed_get_matches_ordered_seek_and_model(
        writes in prop::collection::vec(
            (0usize..5, 0usize..3, 1u64..12, prop::option::of(0u8..3)),
            0..120,
        ),
    ) {
        const ROWS: [&[u8]; 5] = [b"", b"a", b"ab", b"b", b"ba"];
        const COLUMNS: [&[u8]; 3] = [b"", b"c", b"cc"];
        // Never written: before, between and after the stored keys.
        const ABSENT_ROWS: [&[u8]; 4] = [b"\0", b"aa", b"abc", b"c"];
        const ABSENT_COLUMNS: [&[u8]; 3] = [b"b", b"ca", b"d"];
        let mut ms = MemStore::new();
        for &(r, c, ts, v) in &writes {
            let value = v.map(|len| Bytes::from(vec![b'v'; len as usize]));
            ms.apply(Bytes::from(ROWS[r]), Bytes::from(COLUMNS[c]), Timestamp(ts), value);
        }
        let built = StoreFileData::from_memstore(RegionId(0), "/f", &ms);
        let decoded = StoreFileData::decode("/f", &built.encode()).expect("decode");
        let model = ModelFile::new(RegionId(0), owned_entries(&ms));
        for row in ROWS.iter().chain(&ABSENT_ROWS) {
            for col in COLUMNS.iter().chain(&ABSENT_COLUMNS) {
                for sf in [&built, &decoded] {
                    prop_assert_eq!(sf.contains_key(row, col), model.contains_key(row, col));
                }
                // The row's versions as a seek finds them: `row ++ 0x00`
                // is the least key after `row`.
                let next_row = [row, &[0][..]].concat();
                for snap in (0..=12).chain([u64::MAX]).map(Timestamp) {
                    let want = model.get(row, col, snap);
                    let sought = built
                        .range(row, Some(&next_row))
                        .find(|e| e.column == *col && e.ts <= snap)
                        .map(|e| e.to_cell().2);
                    prop_assert_eq!(&sought, &want, "seek ({:?}, {:?}) @ {:?}", row, col, snap);
                    for sf in [&built, &decoded] {
                        prop_assert_eq!(
                            sf.get(row, col, snap), want.clone(),
                            "get({:?}, {:?}) @ {:?}", row, col, snap
                        );
                    }
                }
            }
        }
    }

    /// `decode` inverts `encode` byte for byte, for physical files and
    /// for the re-framed bytes of a reference half-file.
    #[test]
    fn decode_then_encode_is_the_identity(
        versions in arb_versions(150),
        clip in (any::<u8>(), prop::option::of(any::<u8>())),
    ) {
        let file = file_of(&versions, "/parent");
        let half = StoreFileData::reference(
            &file, RegionId(1), "/half", &bound(clip.0), clip.1.map(bound).as_deref(),
        );
        for sf in [Some(&*file), half.as_ref()].into_iter().flatten() {
            let encoded = sf.encode();
            let back = StoreFileData::decode(sf.path(), &encoded).expect("decode");
            prop_assert_eq!(back.encode(), encoded);
            prop_assert_eq!(back.region(), sf.region());
            prop_assert_eq!(back.total_bytes(), sf.total_bytes());
            prop_assert_eq!(back.key_range(), sf.key_range());
            prop_assert_eq!(
                back.entries().map(owned).collect::<Vec<_>>(),
                sf.entries().map(owned).collect::<Vec<_>>()
            );
        }
    }

    /// The merge with its leader held out of the heap yields what
    /// sorting all the entries by key, ties by source index, yields —
    /// so copies of one version come out lowest source first — and
    /// `examined` still counts what it read: everything yielded plus at
    /// most one waiting head per source.
    #[test]
    fn merge_iter_matches_a_stable_sort_by_source(
        writes in prop::collection::vec(
            ((0u8..12, 0u8..3, 1u64..40, prop::option::of(0u8..4)), 1u8..32),
            0..200
        ),
        n_sources in 1usize..6,
        stop_after in 0usize..250,
    ) {
        // Source 0 is a memstore, the rest are files; a write lands in
        // every source whose bit its mask sets.
        let per_source = |i: usize| -> Vec<ArbVersion> {
            writes
                .iter()
                .filter(|(_, mask)| mask >> i & 1 == 1)
                .map(|(w, _)| *w)
                .collect()
        };
        let ms = memstore_of(&per_source(0));
        let files: Vec<Rc<StoreFileData>> = (1..n_sources)
            .map(|i| file_of(&per_source(i), &format!("/f{i}")))
            .collect();
        let mut want: Vec<(StoreFileEntry, usize)> =
            owned_entries(&ms).into_iter().map(|e| (e, 0)).collect();
        for (i, sf) in files.iter().enumerate() {
            want.extend(sf.entries().map(|e| (owned(e), i + 1)));
        }
        want.sort_by(|(a, i), (b, j)| (&a.0, &a.1, !a.2.0, i).cmp(&(&b.0, &b.1, !b.2.0, j)));

        let cursors = || {
            let mut all: Vec<Box<dyn Iterator<Item = EntryRef<'_>>>> =
                vec![Box::new(ms.range(b"", None))];
            all.extend(files.iter().map(|sf| Box::new(sf.range(b"", None)) as Box<_>));
            all
        };
        let mut merge = MergeIter::new(cursors());
        let got: Vec<StoreFileEntry> = merge.by_ref().map(owned).collect();
        prop_assert_eq!(&got, &want.iter().map(|(e, _)| e.clone()).collect::<Vec<_>>());
        prop_assert_eq!(merge.examined() as usize, want.len());

        let mut merge = MergeIter::new(cursors());
        let pulled = merge.by_ref().take(stop_after).count();
        let examined = merge.examined() as usize;
        prop_assert!(pulled <= examined && examined <= pulled + n_sources);
        prop_assert!(examined <= want.len());
    }

    /// MemStore behaves exactly like a model map keyed by
    /// (row, col) -> sorted versions, for any apply/get interleaving:
    /// point gets, the full `iter()` order and `range(start, end)`. Its
    /// rows ([`arb_edge_row`]) sit on both edges of the memstore key's
    /// inline 16-byte prefix.
    #[test]
    fn memstore_matches_reference_model(
        writes in prop::collection::vec(
            (arb_edge_row(), prop::collection::vec(0u8..2, 1..3), prop::option::of(any::<u8>()), 1u64..100),
            1..200,
        ),
        reads in prop::collection::vec((0usize..200, 0u64..120), 1..50),
        ranges in prop::collection::vec((arb_edge_row(), prop::option::of(arb_edge_row())), 1..10),
    ) {
        let mut ms = MemStore::new();
        let mut model: BTreeMap<(Bytes, Bytes), Vec<(u64, Option<Bytes>)>> = BTreeMap::new();
        for (row, column, value, ts) in &writes {
            let column = Bytes::from(column.clone());
            let value = value.map(|v| Bytes::from(vec![v]));
            ms.apply(row.clone(), column.clone(), Timestamp(*ts), value.clone());
            let versions = model.entry((row.clone(), column)).or_default();
            versions.retain(|(t, _)| t != ts);
            versions.push((*ts, value));
            versions.sort_by_key(|(t, _)| *t);
        }
        for (idx, snap) in reads {
            let (row, column, _, _) = &writes[idx % writes.len()];
            let got = ms.get(row, column, Timestamp(snap));
            let expect = model
                .get(&(row.clone(), Bytes::from(column.clone())))
                .and_then(|vs| vs.iter().rev().find(|(t, _)| *t <= snap))
                .map(|(t, v)| (Timestamp(*t), v.clone()));
            prop_assert_eq!(got.map(|vv| (vv.ts, vv.value)), expect);
        }
        // The model's order: row, column, then newest version first.
        let model_versions = || {
            model.iter().flat_map(|((row, column), versions)| {
                versions
                    .iter()
                    .rev()
                    .map(move |(ts, value)| (row.clone(), column.clone(), Timestamp(*ts), value.clone()))
            })
        };
        let iterated: Vec<_> = ms
            .iter()
            .map(|(row, column, ts, value)| (row.clone(), column.clone(), ts, value.clone()))
            .collect();
        prop_assert_eq!(iterated, model_versions().collect::<Vec<_>>());
        for (start, end) in &ranges {
            let got: Vec<_> = ms
                .range(start, end.as_deref())
                .map(|e| {
                    let (row, column, vv) = e.to_cell();
                    (row, column, vv.ts, vv.value)
                })
                .collect();
            let expect: Vec<_> = model_versions()
                .filter(|(row, ..)| row >= start && end.as_ref().is_none_or(|end| row < end))
                .collect();
            prop_assert_eq!(got, expect);
        }
    }

    /// Store files preserve memstore lookups exactly, including through
    /// an encode/decode round trip.
    #[test]
    fn storefile_equals_memstore_after_roundtrip(
        writes in prop::collection::vec((arb_mutation(), 1u64..50), 1..100),
    ) {
        let mut ms = MemStore::new();
        for (m, ts) in &writes {
            ms.apply_mutation(m.row.clone(), m.column.clone(), Timestamp(*ts), &m.kind);
        }
        let sf = StoreFileData::from_memstore(RegionId(0), "/f", &ms);
        let back = StoreFileData::decode("/f", &sf.encode()).unwrap();
        for (m, _) in &writes {
            for snap in [0u64, 10, 25, 49, 100] {
                let a = ms.get(&m.row, &m.column, Timestamp(snap));
                let b = sf.get(&m.row, &m.column, Timestamp(snap));
                let c = back.get(&m.row, &m.column, Timestamp(snap));
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(&b, &c);
            }
        }
    }

    /// The store file a WAL split builds from a log's records reads
    /// exactly like a memstore that replayed them — through puts and
    /// deletes, timestamps out of order, and one `(cell, ts)` written
    /// more than once with different contents (the last write stands).
    #[test]
    fn wal_split_file_reads_like_a_memstore_replay(
        log in prop::collection::vec(
            (1u64..12, prop::collection::vec((0u8..6, 0u8..2, prop::option::of(any::<u8>())), 0..5)),
            0..40,
        ),
        snapshots in prop::collection::vec(0u64..14, 1..6),
    ) {
        let records: Vec<WalRecord> = log
            .into_iter()
            .map(|(ts, writes)| WalRecord {
                region: RegionId(0),
                ts: Timestamp(ts),
                mutations: writes
                    .into_iter()
                    .map(|(r, c, v)| Mutation {
                        row: scan_row(r),
                        column: Bytes::from(format!("c{c}")),
                        kind: match v {
                            Some(v) => MutationKind::Put(Bytes::from(vec![v; (v % 3) as usize])),
                            None => MutationKind::Delete,
                        },
                    })
                    .collect(),
            })
            .collect();
        let mut ms = MemStore::new();
        for rec in &records {
            for m in &rec.mutations {
                ms.apply_mutation(m.row.clone(), m.column.clone(), rec.ts, &m.kind);
            }
        }
        let sf = StoreFileData::from_wal_records(RegionId(0), "/f", &records);
        prop_assert_eq!(
            sf.range(b"", None).map(owned).collect::<Vec<_>>(),
            owned_entries(&ms)
        );
        // Byte for byte the file that memstore would have flushed to.
        let flushed = StoreFileData::from_memstore(RegionId(0), "/f", &ms);
        prop_assert_eq!(sf.encode(), flushed.encode());
        prop_assert_eq!(sf.total_bytes(), flushed.total_bytes());
        let back = StoreFileData::decode("/f", &sf.encode()).unwrap();
        for snap in snapshots {
            for (r, c) in (0u8..6).flat_map(|r| (0u8..2).map(move |c| (r, c))) {
                let (row, col) = (scan_row(r), format!("c{c}"));
                let want = ms.get(&row, col.as_bytes(), Timestamp(snap));
                prop_assert_eq!(&sf.get(&row, col.as_bytes(), Timestamp(snap)), &want);
                prop_assert_eq!(&back.get(&row, col.as_bytes(), Timestamp(snap)), &want);
            }
        }
    }

    /// WAL batches decode to exactly what was encoded, for arbitrary
    /// record contents.
    #[test]
    fn wal_codec_roundtrip(
        records in prop::collection::vec(
            (0u32..8, 1u64..1000, prop::collection::vec(arb_mutation(), 0..6)),
            0..20
        ),
    ) {
        let records: Vec<WalRecord> = records
            .into_iter()
            .map(|(r, ts, mutations)| WalRecord { region: RegionId(r), ts: Timestamp(ts), mutations })
            .collect();
        let decoded = decode_wal_batch(&encode_wal_batch(&records)).unwrap();
        prop_assert_eq!(decoded, records);
    }

    /// Every key belongs to exactly one region, whatever the split count.
    #[test]
    fn region_map_partitions_keyspace(
        keys in 1u64..10_000,
        regions in 1usize..12,
        samples in prop::collection::vec(any::<u64>(), 1..50),
    ) {
        let map = RegionMap::split_decimal_keyspace("user", keys, regions);
        prop_assert_eq!(map.regions().len(), regions);
        for s in samples {
            let key = format!("user{:012}", s % keys);
            let covering = map
                .regions()
                .iter()
                .filter(|r| r.contains(key.as_bytes()))
                .count();
            prop_assert_eq!(covering, 1);
        }
    }

    /// The LRU cache never exceeds capacity and a just-inserted block is
    /// always resident.
    #[test]
    fn block_cache_capacity_and_residency(
        capacity in 1usize..64,
        ops in prop::collection::vec((any::<u16>(), any::<bool>()), 1..300),
    ) {
        let mut cache = BlockCache::new(capacity);
        for (k, is_insert) in ops {
            let key = Bytes::from(format!("k{}", k % 200));
            if is_insert {
                cache.insert(RegionId(0), key.clone());
                prop_assert!(cache.contains(RegionId(0), &key));
            } else {
                cache.access(RegionId(0), &key);
            }
            prop_assert!(cache.len() <= capacity);
        }
    }
}
