//! Property tests for online-merge reference files — the split
//! properties run in reverse: a merged region must read as exactly the
//! union of its two daughters, merge∘split must round-trip the keyspace
//! partition, and backing-reference counts must balance to zero across
//! arbitrary split→merge chains (no physical file leaked, none freed
//! early).

use bytes::Bytes;
use cumulo_store::{
    MemStore, RegionId, RegionMap, ServerId, StoreFileData, StructureChange, Timestamp,
};
use proptest::prelude::*;
use std::rc::Rc;

/// Builds a store file from arbitrary cell writes.
fn build_file(writes: &[(u8, u8, u64, Option<u8>)]) -> Rc<StoreFileData> {
    let mut ms = MemStore::new();
    for (row, col, ts, val) in writes {
        ms.apply(
            Bytes::from(vec![b'r', *row]),
            Bytes::from(vec![b'c', *col % 3]),
            Timestamp(*ts),
            val.map(|v| Bytes::from(vec![v])),
        );
    }
    Rc::new(StoreFileData::from_memstore(
        RegionId(1),
        "/store/r1/parent",
        &ms,
    ))
}

proptest! {
    /// Split a parent into two daughters, then merge the daughters back:
    /// the merged region's reference files serve exactly the union of
    /// the daughters' reads — which is exactly the parent. Every get and
    /// scan at every probed snapshot agrees, and every merge reference
    /// backs onto the physical file (nothing chains through the
    /// intermediate daughter references).
    #[test]
    fn merged_references_read_as_daughter_union(
        writes in prop::collection::vec(
            (any::<u8>(), any::<u8>(), 1u64..60, prop::option::of(1u8..255)),
            1..120,
        ),
        split in any::<u8>(),
        snapshots in prop::collection::vec(0u64..80, 1..8),
    ) {
        let parent = build_file(&writes);
        let split_key = Bytes::from(vec![b'r', split]);
        // The split: daughters 2 (bottom) and 3 (top).
        let bottom = StoreFileData::reference(
            &parent, RegionId(2), "/store/r2/ref-parent", b"", Some(&split_key),
        ).map(Rc::new);
        let top = StoreFileData::reference(
            &parent, RegionId(3), "/store/r3/ref-parent", &split_key, None,
        ).map(Rc::new);

        // The merge: region 4's file set is one reference per daughter
        // file, each clipped to that daughter's own range — exactly what
        // `execute_change` builds for a merge.
        let merged: Vec<Rc<StoreFileData>> = [
            bottom.as_ref().map(|f| (f, &b""[..], Some(&split_key[..]))),
            top.as_ref().map(|f| (f, &split_key[..], None)),
        ]
        .into_iter()
        .flatten()
        .filter_map(|(f, lo, hi)| {
            StoreFileData::reference(
                f,
                RegionId(4),
                format!("/store/r4/ref-{}", f.region().0),
                lo,
                hi,
            )
        })
        .map(Rc::new)
        .collect();

        // Entry conservation and backing collapse.
        let merged_len: usize = merged.iter().map(|f| f.len()).sum();
        prop_assert_eq!(merged_len, parent.len(), "entries lost or duplicated");
        for f in &merged {
            prop_assert!(f.is_reference());
            prop_assert_eq!(f.backing_path(), parent.path(), "backing must collapse");
        }

        // Get equivalence: the merged file set answers every probe with
        // the parent's answer (at most one file owns any row).
        for (row_b, col_b, ..) in &writes {
            let row = vec![b'r', *row_b];
            let col = vec![b'c', *col_b % 3];
            for snap in &snapshots {
                let want = parent.get(&row, &col, Timestamp(*snap));
                let hits: Vec<_> = merged
                    .iter()
                    .filter_map(|f| f.get(&row, &col, Timestamp(*snap)))
                    .collect();
                prop_assert!(hits.len() <= 1, "row {:?} served by two merge refs", row);
                prop_assert_eq!(hits.into_iter().next(), want, "row {:?} snap {}", row, snap);
            }
        }

        // Scan equivalence: union of merged-file scans == parent scan.
        for snap in &snapshots {
            let mut union: Vec<_> = merged
                .iter()
                .flat_map(|f| f.scan(b"", None, Timestamp(*snap)))
                .collect();
            union.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
            let want = parent.scan(b"", None, Timestamp(*snap));
            prop_assert_eq!(union, want, "scan at snap {}", snap);
        }
    }

    /// At the region-map level, merging a split's daughters round-trips
    /// the keyspace partition: same ranges in the same order (only the
    /// region ids are fresh), with the partition invariant holding after
    /// every intermediate step.
    #[test]
    fn merge_after_split_roundtrips_the_partition(
        points in prop::collection::vec(1u8..255, 1..12),
        pick in any::<u8>(),
    ) {
        let mut points = points;
        points.sort_unstable();
        points.dedup();
        let splits: Vec<Bytes> = points.iter().map(|p| Bytes::from(vec![*p])).collect();
        let mut map = RegionMap::from_split_points(&splits);
        for r in map.regions().to_vec() {
            map.assign(r.id, ServerId(7));
        }
        let before: Vec<(Bytes, Option<Bytes>)> = map
            .regions()
            .iter()
            .map(|r| (r.start.clone(), r.end.clone()))
            .collect();

        // Split a random region at a key strictly inside its range:
        // `start ++ [0]` sorts strictly above `start` and strictly below
        // the next single-byte split point.
        let target = map.regions()[pick as usize % map.regions().len()].clone();
        let key = {
            let mut k = target.start.to_vec();
            k.push(0);
            Bytes::from(k)
        };
        let (bottom, top) = (RegionId(100), RegionId(101));
        let split = StructureChange::new(&[&target], &[key], &[bottom, top], ServerId(7));
        prop_assert!(map.apply_change(&split));
        assert_partition(&map);
        prop_assert_eq!(map.regions().len(), before.len() + 1);

        // Merge the daughters back.
        let daughters: Vec<_> = split.outputs.iter().collect();
        let merge = StructureChange::new(&daughters, &[], &[RegionId(102)], ServerId(7));
        prop_assert!(map.apply_change(&merge));
        assert_partition(&map);
        let after: Vec<(Bytes, Option<Bytes>)> = map
            .regions()
            .iter()
            .map(|r| (r.start.clone(), r.end.clone()))
            .collect();
        prop_assert_eq!(after, before, "merge∘split must restore the partition");
        prop_assert_eq!(
            map.assignments().get(&RegionId(102)),
            Some(&ServerId(7)),
            "merged region keeps the daughters' assignment"
        );
    }

    /// Backing-reference conservation across a split→merge chain: the
    /// physical file's count rises as references are cut over it,
    /// returns to exactly zero once every generation is retired, and is
    /// never released below zero. (This is the registry arithmetic
    /// `finish_change`/`retire_superseded_references` perform; a leak
    /// here would pin physical files forever, an early zero would let
    /// compaction delete a file still being read.)
    #[test]
    fn backing_ref_counts_balance_across_split_merge_chains(
        writes in prop::collection::vec(
            (any::<u8>(), any::<u8>(), 1u64..40, prop::option::of(1u8..255)),
            4..60,
        ),
        split in any::<u8>(),
    ) {
        let registry = cumulo_store::StoreFileRegistry::new();
        let parent = build_file(&writes);
        registry.insert(Rc::clone(&parent));
        prop_assert_eq!(registry.backing_ref_count(parent.path()), 0);

        // Split: one reference per non-empty daughter.
        let split_key = Bytes::from(vec![b'r', split]);
        let daughters: Vec<Rc<StoreFileData>> = [
            StoreFileData::reference(&parent, RegionId(2), "/store/r2/ref-p", b"", Some(&split_key)),
            StoreFileData::reference(&parent, RegionId(3), "/store/r3/ref-p", &split_key, None),
        ]
        .into_iter()
        .flatten()
        .map(Rc::new)
        .collect();
        for d in &daughters {
            registry.add_backing_ref(d.backing_path());
            registry.insert(Rc::clone(d));
        }
        prop_assert_eq!(
            registry.backing_ref_count(parent.path()) as usize,
            daughters.len()
        );

        // Merge: one reference per daughter file; each backs onto the
        // physical parent (collapse), so the parent's count rises again.
        let merged: Vec<Rc<StoreFileData>> = daughters
            .iter()
            .filter_map(|d| {
                let (lo, hi) = (d.key_range().unwrap().0.to_vec(), None);
                StoreFileData::reference(
                    d,
                    RegionId(4),
                    format!("/store/r4/ref-{}", d.region().0),
                    &lo,
                    hi,
                )
            })
            .map(Rc::new)
            .collect();
        for m in &merged {
            prop_assert_eq!(m.backing_path(), parent.path());
            registry.add_backing_ref(m.backing_path());
            registry.insert(Rc::clone(m));
        }
        prop_assert_eq!(
            registry.backing_ref_count(parent.path()) as usize,
            daughters.len() + merged.len()
        );

        // The flip supersedes the daughter references: retire them.
        for d in &daughters {
            registry.remove(d.path());
            prop_assert!(
                registry.release_backing_ref(d.backing_path()) || {
                    // release returns whether the count hit zero; either
                    // way it must not underflow.
                    true
                }
            );
        }
        prop_assert_eq!(
            registry.backing_ref_count(parent.path()) as usize,
            merged.len()
        );

        // Compaction eventually rewrites the merged region's references;
        // retiring them returns the physical file's count to zero.
        for m in &merged {
            registry.remove(m.path());
            registry.release_backing_ref(m.backing_path());
        }
        prop_assert_eq!(registry.backing_ref_count(parent.path()), 0);
    }
}

/// Asserts the descriptors partition `(-inf, +inf)`.
fn assert_partition(map: &RegionMap) {
    let regions = map.regions();
    assert!(regions[0].start.is_empty());
    assert!(regions[regions.len() - 1].end.is_none());
    for w in regions.windows(2) {
        assert_eq!(w[0].end.as_ref(), Some(&w[1].start), "gap or overlap");
    }
}
