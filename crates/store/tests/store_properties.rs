//! Property-based tests of the store's core data structures.

use bytes::Bytes;
use cumulo_store::codec::{decode_wal_batch, encode_wal_batch, WalRecord};
use cumulo_store::compaction::{merge_store_files, GcWatermark};
use cumulo_store::merge_iter::{scan_page, EntryRef};
use cumulo_store::{
    BlockCache, MemStore, Mutation, MutationKind, RegionId, RegionMap, StoreFileData, Timestamp,
    VersionedValue,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
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

fn scan_row(r: u8) -> Bytes {
    Bytes::from(format!("row{r:02}"))
}

fn memstore_of(versions: &[ArbVersion]) -> MemStore {
    let mut ms = MemStore::new();
    for (r, c, ts, v) in versions {
        // Copies of one (cell, ts) in different sources can disagree on
        // being a tombstone. No real history does that, but it makes the
        // tie-break (the first-listed source wins) observable.
        let value = v.map(|_| Bytes::from(format!("v{r}-{c}-{ts}")));
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

/// The full-walk scan the cursors replaced, kept as the reference:
/// visits every entry of the source and filters by range and snapshot.
fn full_walk_scan<'a>(
    entries: impl Iterator<Item = EntryRef<'a>>,
    start: &[u8],
    end: Option<&[u8]>,
    snapshot: Timestamp,
) -> Vec<Cell> {
    let mut out: Vec<Cell> = Vec::new();
    for (row, col, ts, value) in entries {
        if ts > snapshot || &row[..] < start || end.is_some_and(|end| &row[..] >= end) {
            continue;
        }
        if matches!(out.last(), Some((lr, lc, _)) if lr == row && lc == col) {
            continue;
        }
        let value = value.clone();
        out.push((row.clone(), col.clone(), VersionedValue { ts, value }));
    }
    out
}

fn full_walk_file(
    sf: &StoreFileData,
    start: &[u8],
    end: Option<&[u8]>,
    snap: Timestamp,
) -> Vec<Cell> {
    let entries = sf.entries().map(|(r, c, ts, v)| (r, c, *ts, v));
    full_walk_scan(entries, start, end, snap)
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
                    full_walk_scan(ms.iter(), &start, end, snap)
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
            let mut per_source_hits = vec![full_walk_scan(ms.iter(), &start, end, snap)];
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
        let mut want: Vec<_> = files.iter().flat_map(|sf| sf.entries().cloned()).collect();
        want.sort_by(|a, b| (&a.0, &a.1, !a.2.0).cmp(&(&b.0, &b.1, !b.2.0)));
        want.dedup_by(|a, b| (&a.0, &a.1, a.2) == (&b.0, &b.1, b.2));
        let input_versions: usize = files.iter().map(|sf| sf.len()).sum();
        prop_assert_eq!(merged.versions_dropped as usize, input_versions - want.len());
        prop_assert_eq!(merged.output.entries().cloned().collect::<Vec<_>>(), want);
    }

    /// MemStore behaves exactly like a model map keyed by
    /// (row, col) -> sorted versions, for any apply/get interleaving.
    #[test]
    fn memstore_matches_reference_model(
        writes in prop::collection::vec((arb_mutation(), 1u64..100), 1..200),
        reads in prop::collection::vec((0usize..200, 0u64..120), 1..50),
    ) {
        let mut ms = MemStore::new();
        let mut model: HashMap<(Bytes, Bytes), Vec<(u64, Option<Bytes>)>> = HashMap::new();
        for (m, ts) in &writes {
            let value = match &m.kind {
                MutationKind::Put(v) => Some(v.clone()),
                MutationKind::Delete => None,
            };
            ms.apply(m.row.clone(), m.column.clone(), Timestamp(*ts), value.clone());
            let versions = model.entry((m.row.clone(), m.column.clone())).or_default();
            versions.retain(|(t, _)| t != ts);
            versions.push((*ts, value));
            versions.sort_by_key(|(t, _)| *t);
        }
        for (idx, snap) in reads {
            let (m, _) = &writes[idx % writes.len()];
            let got = ms.get(&m.row, &m.column, Timestamp(snap));
            let expect = model
                .get(&(m.row.clone(), m.column.clone()))
                .and_then(|vs| vs.iter().rev().find(|(t, _)| *t <= snap))
                .map(|(t, v)| (Timestamp(*t), v.clone()));
            prop_assert_eq!(got.map(|vv| (vv.ts, vv.value)), expect);
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
