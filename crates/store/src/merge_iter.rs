//! The store's one k-way merge, and the region scan built on it.
//!
//! A region's versions live in several sorted sources at once — the
//! memstore, the flushing snapshot, every store file — each ordered by
//! `(row, column, descending ts)`. Two consumers need them as *one*
//! stream in that order: compaction (which applies the MVCC GC rules on
//! top, see [`crate::compaction`]) and the scan path ([`scan_page`]:
//! first version at or below the snapshot per cell, tombstones elided,
//! stop at `limit`). [`MergeIter`] is that stream. It borrows its
//! sources — heap keys are slices into them, nothing is cloned or
//! materialised — so a consumer that stops early has paid only for the
//! entries it pulled.

use crate::memstore::{MemStore, VersionedValue};
use crate::sstable::StoreFileData;
use crate::types::Timestamp;
use bytes::Bytes;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One borrowed versioned cell — what the sorted cursors
/// ([`MemStore::range`], [`StoreFileData::range`]) yield. The key fields
/// are plain slices, so merging and garbage collection compare and copy
/// bytes in place; [`EntryRef::to_cell`] turns the entry into owned
/// buffers without copying them.
#[derive(Clone, Copy, Debug)]
pub struct EntryRef<'a> {
    /// Row key.
    pub row: &'a [u8],
    /// Column qualifier.
    pub column: &'a [u8],
    /// The commit timestamp that wrote this version.
    pub ts: Timestamp,
    source: Source<'a>,
}

/// Where an entry lives: what its value is read from, and what
/// [`EntryRef::to_cell`] takes its reference counts on.
#[derive(Clone, Copy, Debug)]
enum Source<'a> {
    /// A memstore entry: each field is a buffer of its own. (The value
    /// is only dereferenced when asked for: most entries a merge pulls
    /// are compared and passed over.)
    Cells {
        row: &'a Bytes,
        column: &'a Bytes,
        value: &'a Option<Bytes>,
    },
    /// A store-file entry: every field is a slice of the file's image.
    Image {
        image: &'a Bytes,
        value: Option<&'a [u8]>,
    },
}

impl<'a> EntryRef<'a> {
    /// An entry whose fields are separately owned buffers.
    pub fn from_cells(
        row: &'a Bytes,
        column: &'a Bytes,
        ts: Timestamp,
        value: &'a Option<Bytes>,
    ) -> EntryRef<'a> {
        EntryRef {
            row,
            column,
            ts,
            source: Source::Cells { row, column, value },
        }
    }

    /// An entry parsed out of `image`: `row`, `column` and `value` must
    /// be slices of `image`'s own memory.
    pub(crate) fn in_image(
        image: &'a Bytes,
        row: &'a [u8],
        column: &'a [u8],
        ts: Timestamp,
        value: Option<&'a [u8]>,
    ) -> EntryRef<'a> {
        EntryRef {
            row,
            column,
            ts,
            source: Source::Image { image, value },
        }
    }

    /// The value, or `None` for a delete tombstone.
    pub fn value(&self) -> Option<&'a [u8]> {
        match self.source {
            Source::Cells { value, .. } => value.as_deref(),
            Source::Image { value, .. } => value,
        }
    }

    /// Whether this version is a delete.
    pub fn is_tombstone(&self) -> bool {
        match self.source {
            Source::Cells { value, .. } => value.is_none(),
            Source::Image { value, .. } => value.is_none(),
        }
    }

    /// The value as an owned buffer sharing the entry's allocation.
    pub fn value_bytes(&self) -> Option<Bytes> {
        match self.source {
            Source::Cells { value, .. } => value.clone(),
            Source::Image { image, value } => value.map(|v| image.slice_ref(v)),
        }
    }

    /// The entry in the owned cell shape reads return. Nothing is
    /// copied: a memstore entry's buffers are cloned, a store-file
    /// entry's fields become views of the file's image — which stays
    /// alive as long as any of them does, so hold the result briefly or
    /// copy it (the view-pinning rule, see [`StoreFileData`]).
    pub fn to_cell(&self) -> (Bytes, Bytes, VersionedValue) {
        let (row, column) = match self.source {
            Source::Cells { row, column, .. } => (row.clone(), column.clone()),
            Source::Image { image, .. } => {
                (image.slice_ref(self.row), image.slice_ref(self.column))
            }
        };
        let value = VersionedValue {
            ts: self.ts,
            value: self.value_bytes(),
        };
        (row, column, value)
    }
}

/// The head entry of one source, ordered by the store sort key
/// `(row, column, descending ts)` with the source index as tie-break, so
/// duplicates of one version resolve deterministically: lowest index
/// first.
struct Head<'a> {
    entry: EntryRef<'a>,
    source: usize,
}

impl Head<'_> {
    fn key(&self) -> (&[u8], &[u8], u64, usize) {
        let e = &self.entry;
        (e.row, e.column, !e.ts.0, self.source)
    }
}

impl PartialEq for Head<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Head<'_> {}
impl PartialOrd for Head<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Head<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// K-way merge of sources that are each sorted by `(row, column,
/// descending ts)` into one stream in that order. Equal versions from
/// different sources come out adjacent, lowest source index first —
/// callers list the source that should win a tie first.
///
/// The smallest head (the *leader*) is held out of the heap. When the
/// leader's source follows it with an entry that still precedes every
/// other head — the usual case when one big file meets a few small
/// ones, or a scan runs through rows only one source holds — that entry
/// becomes the leader after one comparison and the heap is not touched.
/// Otherwise it costs O(log s) for `s` sources. Allocates only the
/// `s`-slot heap.
pub struct MergeIter<'a, I> {
    sources: Vec<I>,
    leader: Option<Head<'a>>,
    /// The heads of every other non-exhausted source.
    heap: BinaryHeap<Reverse<Head<'a>>>,
    examined: u64,
}

impl<'a, I: Iterator<Item = EntryRef<'a>>> MergeIter<'a, I> {
    /// Starts the merge, reading each source's first entry.
    pub fn new(sources: impl IntoIterator<Item = I>) -> Self {
        let mut sources: Vec<I> = sources.into_iter().collect();
        let mut heap: BinaryHeap<_> = sources
            .iter_mut()
            .enumerate()
            .filter_map(|(source, it)| it.next().map(|entry| Reverse(Head { entry, source })))
            .collect();
        let examined = heap.len() as u64;
        let leader = heap.pop().map(|Reverse(head)| head);
        MergeIter {
            sources,
            leader,
            heap,
            examined,
        }
    }

    /// Entries read from the sources so far: everything yielded plus the
    /// (at most one per source) heads waiting to be.
    pub fn examined(&self) -> u64 {
        self.examined
    }
}

impl<'a, I: Iterator<Item = EntryRef<'a>>> Iterator for MergeIter<'a, I> {
    type Item = EntryRef<'a>;

    fn next(&mut self) -> Option<EntryRef<'a>> {
        let Head { entry, source } = self.leader.take()?;
        self.leader = match self.sources[source].next() {
            Some(next) => {
                self.examined += 1;
                let follower = Head {
                    entry: next,
                    source,
                };
                match self.heap.peek_mut() {
                    // Another source's head comes first: it leads now,
                    // and the follower takes its place in the heap (one
                    // sift when the `PeekMut` drops).
                    Some(mut top) if top.0 < follower => {
                        Some(std::mem::replace(&mut top.0, follower))
                    }
                    _ => Some(follower),
                }
            }
            None => self.heap.pop().map(|Reverse(head)| head),
        };
        Some(entry)
    }
}

/// Filters a `(row, column, descending ts)`-sorted stream down to what a
/// reader at `snapshot` resolves each cell to: the first version at or
/// below `snapshot` per cell, tombstones included (a tombstone must
/// still shadow older versions further down a merge).
pub fn visible_at<'a>(
    entries: impl Iterator<Item = EntryRef<'a>>,
    snapshot: Timestamp,
) -> impl Iterator<Item = EntryRef<'a>> {
    let mut resolved: Option<(&'a [u8], &'a [u8])> = None;
    entries.filter(move |e| {
        if e.ts > snapshot || resolved == Some((e.row, e.column)) {
            return false;
        }
        resolved = Some((e.row, e.column));
        true
    })
}

/// One region's page of a snapshot scan: the newest version at or below
/// `snapshot` of each live cell with row in `[start, end)` (`end`
/// exclusive, `None` = unbounded), in `(row, column)` order, at most
/// `limit` of them — plus the number of stored versions the merge read
/// to produce it.
///
/// `files` lists the region's immutable sources newest first (flushing
/// snapshot, then store files newest to oldest); the memstore is newer
/// than all of them. A version present in several sources is served from
/// the newest. Every source is entered by a seek to `start` and the
/// merge stops at the `limit`-th live cell, so the cost is
/// O(log n + k·log s) for `k` versions read — not the region's size.
pub fn scan_page<'a>(
    memstore: &'a MemStore,
    files: impl IntoIterator<Item = &'a StoreFileData>,
    start: &[u8],
    end: Option<&[u8]>,
    snapshot: Timestamp,
    limit: usize,
) -> (Vec<(Bytes, Bytes, VersionedValue)>, u64) {
    let mut in_range = memstore.len();
    let mut sources: Vec<Box<dyn Iterator<Item = EntryRef<'a>> + 'a>> =
        vec![Box::new(memstore.range(start, end))];
    for file in files {
        if file.range_overlaps(start, end) {
            let cursor = file.range(start, end);
            in_range += cursor.len();
            sources.push(Box::new(cursor));
        }
    }
    let mut merge = MergeIter::new(sources);
    let mut cells = Vec::with_capacity(limit.min(in_range));
    cells.extend(
        visible_at(merge.by_ref(), snapshot)
            .filter(|e| !e.is_tombstone())
            .take(limit)
            .map(|e| e.to_cell()),
    );
    (cells, merge.examined())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RegionId;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn memstore(writes: &[(&str, u64, Option<&str>)]) -> MemStore {
        let mut ms = MemStore::new();
        for (row, ts, value) in writes {
            ms.apply(b(row), b("c"), Timestamp(*ts), value.map(b));
        }
        ms
    }

    fn file(writes: &[(&str, u64, Option<&str>)]) -> StoreFileData {
        StoreFileData::from_memstore(RegionId(0), "/f", &memstore(writes))
    }

    #[test]
    fn merge_orders_across_sources_and_breaks_ties_by_source() {
        let first = memstore(&[("a", 5, Some("first")), ("c", 1, Some("c1"))]);
        let second = memstore(&[
            ("a", 5, Some("second")),
            ("a", 9, Some("a9")),
            ("b", 2, None),
        ]);
        let mut merge = MergeIter::new([first.range(b"", None), second.range(b"", None)]);
        let got: Vec<_> = merge
            .by_ref()
            .map(|e| (Bytes::copy_from_slice(e.row), e.ts.0, e.value_bytes()))
            .collect();
        assert_eq!(
            got,
            vec![
                (b("a"), 9, Some(b("a9"))),
                (b("a"), 5, Some(b("first"))),
                (b("a"), 5, Some(b("second"))),
                (b("b"), 2, None),
                (b("c"), 1, Some(b("c1"))),
            ]
        );
        assert_eq!(merge.examined(), 5);
    }

    /// A delete still in the memstore shadows the value an older store
    /// file holds — which is why the per-source cursors and scans must
    /// hand tombstones on rather than drop them.
    #[test]
    fn memstore_tombstone_shadows_file_value() {
        let sf = file(&[("r", 10, Some("v10"))]);
        let ms = memstore(&[("r", 20, None)]);
        assert_eq!(ms.scan(b"", None, Timestamp(25))[0].2.value, None);

        let (page, _) = scan_page(&ms, [&sf], b"", None, Timestamp(25), 10);
        assert!(page.is_empty(), "deleted at 20, read at 25: {page:?}");
        let (page, _) = scan_page(&ms, [&sf], b"", None, Timestamp(15), 10);
        assert_eq!(page.len(), 1);
        assert_eq!(page[0].2.ts, Timestamp(10));
        assert_eq!(page[0].2.value, Some(b("v10")));
    }

    #[test]
    fn scan_page_stops_reading_at_the_limit() {
        let rows: Vec<String> = (0..1000).map(|i| format!("row{i:04}")).collect();
        let older: Vec<_> = rows.iter().map(|r| (r.as_str(), 1, Some("old"))).collect();
        let newer: Vec<_> = rows.iter().map(|r| (r.as_str(), 2, Some("new"))).collect();
        let sf = file(&older);
        let ms = memstore(&newer);
        let (page, examined) = scan_page(&ms, [&sf], b"row0500", None, Timestamp::MAX, 10);
        assert_eq!(page.len(), 10);
        assert_eq!(page[0].0, b("row0500"));
        assert!(page.iter().all(|(.., vv)| vv.value == Some(b("new"))));
        // Ten cells of two versions each, plus one waiting head per source.
        assert!(examined <= 10 * 2 + 2, "examined {examined}");
        let (page, examined) = scan_page(&ms, [&sf], b"row0500", None, Timestamp::MAX, 0);
        assert!(page.is_empty());
        assert_eq!(examined, 2);
    }
}
