//! Property tests for online-split reference half-files: a daughter pair
//! must be read-equivalent to its parent — every `(row, col, ts)` visible
//! through the parent is visible through *exactly one* daughter, and the
//! daughters partition the parent's key range exactly.

use bytes::Bytes;
use cumulo_store::{MemStore, RegionId, StoreFileData, Timestamp};
use proptest::prelude::*;
use std::rc::Rc;

/// Builds a parent store file from arbitrary cell writes.
fn build_parent(writes: &[(u8, u8, u64, Option<u8>)]) -> Rc<StoreFileData> {
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
    /// Every version the parent stores is served by exactly one daughter
    /// (gets agree version-for-version), and the daughters' key ranges
    /// partition the parent's: nothing lost, nothing duplicated.
    #[test]
    fn daughter_references_partition_parent_reads(
        writes in prop::collection::vec(
            (any::<u8>(), any::<u8>(), 1u64..60, prop::option::of(1u8..255)),
            1..120,
        ),
        split in any::<u8>(),
        snapshots in prop::collection::vec(0u64..80, 1..8),
    ) {
        let parent = build_parent(&writes);
        let split_key = Bytes::from(vec![b'r', split]);
        let bottom = StoreFileData::reference(
            &parent, RegionId(2), "/store/r2/ref-parent", b"", Some(&split_key),
        );
        let top = StoreFileData::reference(
            &parent, RegionId(3), "/store/r3/ref-parent", &split_key, None,
        );

        // Entry partition: every parent entry appears in exactly one
        // daughter, chosen by the split key.
        let count = |f: &Option<StoreFileData>| f.as_ref().map(|f| f.len()).unwrap_or(0);
        prop_assert_eq!(count(&bottom) + count(&top), parent.len());
        if let Some(b) = &bottom {
            for e in b.entries() {
                prop_assert!(e.row < &split_key[..], "bottom row beyond the split key");
            }
            prop_assert!(b.is_reference());
            prop_assert_eq!(b.backing_path(), parent.path());
        }
        if let Some(t) = &top {
            for e in t.entries() {
                prop_assert!(e.row >= &split_key[..], "top row below the split key");
            }
        }

        // Read equivalence at every probed snapshot: the daughter owning
        // the row answers exactly what the parent answers; the sibling
        // answers nothing for that row.
        for (row_b, col_b, ..) in &writes {
            let row = vec![b'r', *row_b];
            let col = vec![b'c', *col_b % 3];
            let (owner, sibling) = if row[..] < split_key[..] {
                (&bottom, &top)
            } else {
                (&top, &bottom)
            };
            for snap in &snapshots {
                let want = parent.get(&row, &col, Timestamp(*snap));
                let got = owner.as_ref().and_then(|f| f.get(&row, &col, Timestamp(*snap)));
                prop_assert_eq!(got, want, "row {:?} snap {}", row, snap);
                let stray = sibling.as_ref().and_then(|f| f.get(&row, &col, Timestamp(*snap)));
                prop_assert_eq!(stray, None, "row {:?} served by both daughters", row);
            }
        }

        // Scans compose: parent scan == merged daughter scans.
        for snap in &snapshots {
            let mut merged: Vec<_> = bottom
                .iter()
                .chain(top.iter())
                .flat_map(|f| f.scan(b"", None, Timestamp(*snap)))
                .collect();
            merged.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
            let want = parent.scan(b"", None, Timestamp(*snap));
            prop_assert_eq!(merged, want, "scan at snap {}", snap);
        }
    }

    /// A reference over a reference (a daughter splitting again) still
    /// reads exactly like the equivalent direct clip of the grandparent,
    /// and its backing path collapses to the physical file.
    #[test]
    fn nested_references_collapse_to_the_physical_file(
        writes in prop::collection::vec(
            (any::<u8>(), any::<u8>(), 1u64..40, prop::option::of(1u8..255)),
            1..80,
        ),
        cut1 in any::<u8>(),
        cut2 in any::<u8>(),
    ) {
        let parent = build_parent(&writes);
        let (lo, hi) = (cut1.min(cut2), cut1.max(cut2));
        let k1 = Bytes::from(vec![b'r', lo]);
        let k2 = Bytes::from(vec![b'r', hi]);
        // Top half first, then the bottom of that top half.
        let Some(top) = StoreFileData::reference(
            &parent, RegionId(2), "/store/r2/ref-parent", &k1, None,
        ) else { return Ok(()); };
        let top = Rc::new(top);
        let Some(nested) = StoreFileData::reference(
            &top, RegionId(4), "/store/r4/ref-ref-parent", &k1, Some(&k2),
        ) else { return Ok(()); };
        prop_assert_eq!(nested.backing_path(), parent.path(), "backing must collapse");
        let direct = StoreFileData::reference(
            &parent, RegionId(5), "/store/r5/direct", &k1, Some(&k2),
        );
        let direct = direct.expect("nested non-empty implies direct non-empty");
        prop_assert_eq!(nested.len(), direct.len());
        for e in direct.entries() {
            prop_assert_eq!(
                nested.get(e.row, e.column, Timestamp::MAX),
                direct.get(e.row, e.column, Timestamp::MAX)
            );
        }
        // Both references probe the parent's hash index, which holds every
        // cell of the parent; each must still answer, for every one of
        // those cells and at every snapshot, like its half physically
        // rewritten (whose index holds its own cells only) — so a cell
        // clipped into the sibling is a miss.
        for half in [&*top, &nested] {
            let rewritten = StoreFileData::decode("/rewritten", &half.encode()).expect("decode");
            prop_assert_eq!(rewritten.len(), half.len());
            for e in parent.entries() {
                let inside = e.row >= half.key_range().unwrap().0
                    && e.row <= half.key_range().unwrap().1;
                prop_assert_eq!(half.contains_key(e.row, e.column), inside);
                prop_assert_eq!(rewritten.contains_key(e.row, e.column), inside);
                for snap in (0..=40).chain([u64::MAX]).map(Timestamp) {
                    prop_assert_eq!(
                        half.get(e.row, e.column, snap),
                        rewritten.get(e.row, e.column, snap),
                        "{} get({:?}, {:?}) @ {:?}", half.path(), e.row, e.column, snap
                    );
                }
            }
        }
    }
}

/// The mid-row split heuristic and clip arithmetic on a concrete file.
#[test]
fn reference_clip_bounds_are_row_exact() {
    let mut ms = MemStore::new();
    for i in 0..10u8 {
        ms.apply(
            Bytes::from(vec![b'r', i]),
            Bytes::from_static(b"c"),
            Timestamp(5),
            Some(Bytes::from_static(b"v")),
        );
        // A second version of the same row must travel with it.
        ms.apply(
            Bytes::from(vec![b'r', i]),
            Bytes::from_static(b"c"),
            Timestamp(9),
            Some(Bytes::from_static(b"w")),
        );
    }
    let parent = Rc::new(StoreFileData::from_memstore(RegionId(1), "/p", &ms));
    assert_eq!(parent.mid_row(), Some(Bytes::from(vec![b'r', 5])));
    let key = Bytes::from(vec![b'r', 4]);
    let bottom =
        StoreFileData::reference(&parent, RegionId(2), "/b", b"", Some(&key)).expect("non-empty");
    let top = StoreFileData::reference(&parent, RegionId(3), "/t", &key, None).expect("non-empty");
    assert_eq!(bottom.len(), 8, "4 rows x 2 versions");
    assert_eq!(top.len(), 12, "6 rows x 2 versions");
    assert_eq!(
        bottom.key_range(),
        Some(([b'r', 0].as_ref(), [b'r', 3].as_ref()))
    );
    assert_eq!(
        top.key_range(),
        Some(([b'r', 4].as_ref(), [b'r', 9].as_ref()))
    );
    // Both versions of a boundary-adjacent row are visible in its owner.
    assert_eq!(
        top.get(&[b'r', 4], b"c", Timestamp(6)).unwrap().ts,
        Timestamp(5)
    );
    assert_eq!(
        top.get(&[b'r', 4], b"c", Timestamp(9)).unwrap().ts,
        Timestamp(9)
    );
    assert!(bottom.get(&[b'r', 4], b"c", Timestamp::MAX).is_none());
}
