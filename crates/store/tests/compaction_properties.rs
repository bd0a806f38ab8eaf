//! Property-based tests of the compaction merge: a compacted file set
//! must answer every get and scan identically to the uncompacted files,
//! for every snapshot at or above the GC watermark.

use bytes::Bytes;
use cumulo_store::compaction::{
    merge_store_files, merge_survivors, pick_candidates, CompactionConfig, GcWatermark,
};
use cumulo_store::{MemStore, RegionId, StoreFileData, StoreFileEntry, Timestamp};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::rc::Rc;

const MAX_TS: u64 = 60;

/// One write: (row id, column id, ts, value — None = tombstone), plus
/// which of the input files it lands in.
type ArbWrite = ((u8, u8, u64, Option<u8>), u8);

fn row(r: u8) -> Bytes {
    Bytes::from(format!("row{:02}", r % 12))
}

fn col(c: u8) -> Bytes {
    Bytes::from(format!("c{}", c % 3))
}

/// Builds `n_files` store files from the writes (dropping duplicate
/// versions of the same cell, which cannot occur in a real history).
fn build_files(writes: &[ArbWrite], n_files: usize) -> Vec<Rc<StoreFileData>> {
    let mut seen: BTreeMap<(Bytes, Bytes, u64), usize> = BTreeMap::new();
    let mut stores: Vec<MemStore> = (0..n_files).map(|_| MemStore::new()).collect();
    for ((r, c, ts, v), file) in writes {
        let ts = ts % MAX_TS + 1;
        let key = (row(*r), col(*c), ts);
        let file = (*file as usize) % n_files;
        // The same version may legitimately appear in several files
        // (post-crash overlap) but always with the same value.
        let canonical = *seen
            .entry(key.clone())
            .or_insert_with(|| v.map(|x| x as usize).unwrap_or(usize::MAX));
        let value = (canonical != usize::MAX).then(|| Bytes::from(format!("v{canonical}")));
        stores[file].apply(key.0, key.1, Timestamp(ts), value);
    }
    stores
        .into_iter()
        .enumerate()
        .map(|(i, ms)| {
            Rc::new(StoreFileData::from_memstore(
                RegionId(0),
                format!("/f{i}"),
                &ms,
            ))
        })
        .collect()
}

/// The value a reader at `snap` sees for a cell across a file set
/// (newest version wins; tombstones read as "no value").
fn folded_get(files: &[Rc<StoreFileData>], r: u8, c: u8, snap: u64) -> Option<Bytes> {
    files
        .iter()
        .filter_map(|sf| sf.get(&row(r), &col(c), Timestamp(snap)))
        .max_by_key(|vv| vv.ts)
        .and_then(|vv| vv.value)
}

/// The visible (row, col) -> value map a scan at `snap` produces across a
/// file set.
fn folded_scan(files: &[Rc<StoreFileData>], snap: u64) -> BTreeMap<(Bytes, Bytes), Bytes> {
    let mut merged: BTreeMap<(Bytes, Bytes), (Timestamp, Option<Bytes>)> = BTreeMap::new();
    for sf in files {
        for (r, c, vv) in sf.scan(b"", None, Timestamp(snap)) {
            match merged.get(&(r.clone(), c.clone())) {
                Some((ts, _)) if *ts >= vv.ts => {}
                _ => {
                    merged.insert((r, c), (vv.ts, vv.value));
                }
            }
        }
    }
    merged
        .into_iter()
        .filter_map(|(k, (_, v))| v.map(|v| (k, v)))
        .collect()
}

/// A file's entries in owned form.
fn owned_entries(sf: &StoreFileData) -> Vec<StoreFileEntry> {
    sf.entries()
        .map(|e| e.to_cell())
        .map(|(row, col, vv)| (row, col, vv.ts, vv.value))
        .collect()
}

/// The merge the streaming one replaced, kept as the reference: gather
/// the inputs' entries in `(row, column, descending ts)` order with
/// copies of a version adjacent (earliest input first) and apply the
/// MVCC GC rules into one list of survivors.
fn merge_into_list(
    inputs: &[Rc<StoreFileData>],
    gc: GcWatermark,
    purge_tombstones: bool,
    has_older_elsewhere: &dyn Fn(&[u8], &[u8], Timestamp) -> bool,
) -> (Vec<StoreFileEntry>, u64) {
    let mut all: Vec<(StoreFileEntry, usize)> = Vec::new();
    for (i, sf) in inputs.iter().enumerate() {
        all.extend(owned_entries(sf).into_iter().map(|e| (e, i)));
    }
    all.sort_by(|(a, i), (b, j)| (&a.0, &a.1, !a.2 .0, i).cmp(&(&b.0, &b.1, !b.2 .0, j)));

    let mut out: Vec<StoreFileEntry> = Vec::new();
    let mut dropped = 0u64;
    let mut current_cell: Option<(Bytes, Bytes)> = None;
    let mut cell_resolved_below_watermark = false;
    let mut last_ts: Option<Timestamp> = None;
    for ((row, col, ts, value), _) in all {
        let same_cell = current_cell.as_ref() == Some(&(row.clone(), col.clone()));
        if !same_cell {
            current_cell = Some((row.clone(), col.clone()));
            cell_resolved_below_watermark = false;
            last_ts = None;
        }
        if same_cell && last_ts == Some(ts) {
            dropped += 1;
            continue;
        }
        last_ts = Some(ts);
        if ts > gc.horizon {
            out.push((row, col, ts, value));
            continue;
        }
        if cell_resolved_below_watermark {
            dropped += 1;
            continue;
        }
        cell_resolved_below_watermark = true;
        let purge = purge_tombstones
            && value.is_none()
            && ts <= gc.purge_floor
            && !has_older_elsewhere(&row, &col, ts);
        if purge {
            dropped += 1;
        } else {
            out.push((row, col, ts, value));
        }
    }
    (out, dropped)
}

proptest! {
    /// The streaming merge — survivors go straight into the output's
    /// builder — produces what merging into a list produced (the
    /// reference this test was first written against also partitioned
    /// that list): the same file, entry for entry, the same versions
    /// dropped, and a name drawn only when some version survives.
    /// Whatever the watermark, the purge mode and its guard.
    #[test]
    fn streaming_merge_matches_merge_then_partition(
        writes in prop::collection::vec(
            ((any::<u8>(), any::<u8>(), 0u64..60, prop::option::of(0u8..4)), any::<u8>()),
            0..160
        ),
        n_files in 1usize..5,
        horizon in 0u64..80,
        purge_floor in 0u64..80,
        purge in any::<bool>(),
        guarded_row in any::<u8>(),
    ) {
        let files = build_files(&writes, n_files);
        let gc = GcWatermark { horizon: Timestamp(horizon), purge_floor: Timestamp(purge_floor) };
        let guard = |r: &[u8], _: &[u8], _: Timestamp| r == &row(guarded_row)[..];
        let (want, want_dropped) = merge_into_list(&files, gc, purge, &guard);

        let named = std::cell::Cell::new(0);
        let name = || {
            named.set(named.get() + 1);
            "/p0".to_owned()
        };
        let (got, dropped) = merge_survivors(RegionId(3), name, &files, gc, purge, &guard);
        prop_assert_eq!(dropped, want_dropped);
        prop_assert_eq!(named.get(), usize::from(!want.is_empty()));
        prop_assert_eq!(got.is_some(), !want.is_empty());
        if let Some(sf) = got {
            prop_assert_eq!(sf.path(), "/p0");
            prop_assert_eq!(sf.region(), RegionId(3));
            prop_assert_eq!(&owned_entries(&sf), &want);
            // The output is the file those entries build on their own.
            let alone = StoreFileData::from_sorted_entries(RegionId(3), "/x", want.clone());
            prop_assert_eq!(sf.encode(), alone.encode());
            prop_assert_eq!(sf.total_bytes(), alone.total_bytes());
        }

        // The merge named up front is the same merge, with an empty file
        // standing in for "nothing survived".
        let single = merge_store_files(RegionId(3), "/single", &files, gc, purge, &guard);
        prop_assert_eq!(single.versions_dropped, want_dropped);
        prop_assert_eq!(single.output.path(), "/single");
        prop_assert_eq!(owned_entries(&single.output), want);
    }

    /// Merge equivalence: for any write history split across files, any
    /// watermark and any purge mode, the merged file answers every get
    /// identically to the uncompacted set at every snapshot >= watermark
    /// (and at *every* snapshot when the watermark is zero).
    #[test]
    fn merged_file_is_read_equivalent(
        writes in prop::collection::vec(
            ((any::<u8>(), any::<u8>(), 0u64..60, prop::option::of(0u8..4)), any::<u8>()),
            1..120
        ),
        n_files in 2usize..5,
        watermark in 0u64..80,
        purge in any::<bool>(),
    ) {
        let files = build_files(&writes, n_files);
        let merged = merge_store_files(
            RegionId(0),
            "/merged",
            &files,
            GcWatermark::at(Timestamp(watermark)),
            purge,
            &|_, _, _| false,
        );
        let out = [Rc::new(merged.output)];
        let lo = if watermark == 0 { 0 } else { watermark };
        for snap in [lo, lo + 1, lo + 7, MAX_TS / 2, MAX_TS, MAX_TS + 20] {
            if snap < lo {
                continue;
            }
            for r in 0..12u8 {
                for c in 0..3u8 {
                    let want = folded_get(&files, r, c, snap);
                    let got = folded_get(&out, r, c, snap);
                    prop_assert_eq!(
                        &got, &want,
                        "get({}, {}) @ snap {} watermark {} purge {}",
                        r, c, snap, watermark, purge
                    );
                }
            }
            prop_assert_eq!(folded_scan(&out, snap), folded_scan(&files, snap));
        }
        // GC must never *invent* data: the merged file is no larger.
        let input_versions: usize = files.iter().map(|f| f.len()).sum();
        prop_assert!(out[0].len() + merged.versions_dropped as usize == input_versions);
    }

    /// An encode/decode round trip of a merged file changes nothing (the
    /// DFS write path preserves merge results exactly).
    #[test]
    fn merged_file_survives_codec_roundtrip(
        writes in prop::collection::vec(
            ((any::<u8>(), any::<u8>(), 0u64..60, prop::option::of(0u8..4)), any::<u8>()),
            1..60
        ),
        watermark in 0u64..80,
    ) {
        let files = build_files(&writes, 3);
        let merged = merge_store_files(
            RegionId(0), "/m", &files, GcWatermark::at(Timestamp(watermark)), false, &|_, _, _| false,
        ).output;
        let back = StoreFileData::decode("/m", &merged.encode()).unwrap();
        prop_assert_eq!(back.len(), merged.len());
        for r in 0..12u8 {
            for c in 0..3u8 {
                for snap in [watermark, watermark + 5, MAX_TS + 20] {
                    prop_assert_eq!(
                        back.get(&row(r), &col(c), Timestamp(snap)),
                        merged.get(&row(r), &col(c), Timestamp(snap))
                    );
                }
            }
        }
    }

    /// The size-tiered picker always returns a mergeable set (>= 2 files,
    /// within bounds, no duplicates) once the threshold is crossed, and
    /// never picks below it.
    #[test]
    fn candidate_picker_is_sound(
        sizes in prop::collection::vec(1usize..1_000_000, 0..20),
        min_files in 2usize..6,
        max_files in 6usize..12,
        tier_ratio in 1u32..10,
    ) {
        let cfg = CompactionConfig {
            min_files,
            max_files,
            tier_ratio: tier_ratio as f64,
            ..CompactionConfig::default()
        };
        match pick_candidates(&sizes, &cfg) {
            None => prop_assert!(sizes.len() < min_files.max(2)),
            Some(picked) => {
                prop_assert!(picked.len() >= 2);
                prop_assert!(picked.len() <= max_files);
                prop_assert!(picked.iter().all(|&i| i < sizes.len()));
                let mut dedup = picked.clone();
                dedup.sort_unstable();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), picked.len(), "duplicate candidate indices");
            }
        }
    }
}
