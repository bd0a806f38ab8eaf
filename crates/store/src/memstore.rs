//! The in-memory, MVCC-versioned write buffer of a region.
//!
//! Every update a region server receives is applied here first (after the
//! WAL append) and served from here until a flush writes it to a store
//! file. Versions are commit timestamps, so applying the same write-set
//! twice — which recovery replay can do — is idempotent.

use crate::merge_iter::{visible_at, EntryRef};
use crate::types::{MutationKind, Timestamp};
use bytes::Bytes;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

/// Key of one versioned cell: (row, column, timestamp).
///
/// Ordered by row, then column, then *descending* timestamp so that a range
/// scan starting at `(row, col, ts)` finds the newest version ≤ `ts` first.
/// The row's first bytes ride inline as `prefix`, ahead of `row` in the
/// derived order, so most comparisons are settled by two integer compares
/// without touching the row's heap buffer; see [`Prefix`] for why the
/// order is unchanged.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct VersionKey {
    prefix: Prefix,
    row: Bytes,
    column: Bytes,
    /// Stored inverted (`!ts`) so larger timestamps sort first.
    inv_ts: u64,
}

impl VersionKey {
    fn new(row: Bytes, column: Bytes, ts: Timestamp) -> VersionKey {
        VersionKey {
            prefix: Prefix::of(&row),
            row,
            column,
            inv_ts: !ts.0,
        }
    }

    fn ts(&self) -> Timestamp {
        Timestamp(!self.inv_ts)
    }
}

/// A row's first 16 bytes, zero-padded and read as two big-endian words.
///
/// Ordering keys by `(prefix, row)` is ordering them by `row`. Big-endian
/// words compare as the bytes they hold, and zero padding keeps order:
/// if `a < b` then `prefix(a) ≤ prefix(b)`, since a proper prefix pads
/// with the smallest byte there is. So unequal prefixes already decide,
/// and equal ones (rows alike in their first 16 bytes, or `ab` against
/// `ab\0`) fall through to the full rows.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Prefix(u64, u64);

impl Prefix {
    fn of(row: &[u8]) -> Prefix {
        let mut buf = [0u8; 16];
        let n = row.len().min(buf.len());
        buf[..n].copy_from_slice(&row[..n]);
        let words = u128::from_be_bytes(buf);
        Prefix((words >> 64) as u64, words as u64)
    }
}

/// A [`VersionKey`] seen as its inline prefix plus borrowed slices, so
/// that reads can probe the map with the caller's `&[u8]` row and column
/// instead of allocating an owned key per lookup. `BTreeMap` accepts a
/// probe of any type `Q` the key can `Borrow` as; a trait object is the
/// one `Q` that both an owned key and a [`Probe`] can be viewed as. Its
/// ordering below is the same `(prefix, row, column, inv_ts)` order
/// `VersionKey` derives, and `rest` is only read when the prefixes tie.
trait KeyView {
    fn prefix(&self) -> Prefix;
    fn rest(&self) -> (&[u8], &[u8], u64);
}

impl KeyView for VersionKey {
    fn prefix(&self) -> Prefix {
        self.prefix
    }
    fn rest(&self) -> (&[u8], &[u8], u64) {
        (&self.row, &self.column, self.inv_ts)
    }
}

/// A borrowed probe key, its row's prefix computed once per lookup.
struct Probe<'a> {
    prefix: Prefix,
    row: &'a [u8],
    column: &'a [u8],
    inv_ts: u64,
}

impl<'a> Probe<'a> {
    fn new(row: &'a [u8], column: &'a [u8], inv_ts: u64) -> Probe<'a> {
        Probe {
            prefix: Prefix::of(row),
            row,
            column,
            inv_ts,
        }
    }

    /// The smallest key of `row`: sorts at or before every version of
    /// every column of that row.
    fn row_floor(row: &'a [u8]) -> Probe<'a> {
        Probe::new(row, &[], 0)
    }
}

impl KeyView for Probe<'_> {
    fn prefix(&self) -> Prefix {
        self.prefix
    }
    fn rest(&self) -> (&[u8], &[u8], u64) {
        (self.row, self.column, self.inv_ts)
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for VersionKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for dyn KeyView + '_ {}
impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.prefix()
            .cmp(&other.prefix())
            .then_with(|| self.rest().cmp(&other.rest()))
    }
}

/// One versioned cell value as returned by reads: the version that wrote
/// it and the value (`None` for a delete tombstone).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VersionedValue {
    /// The commit timestamp that wrote this version.
    pub ts: Timestamp,
    /// The value, or `None` if this version is a tombstone.
    pub value: Option<Bytes>,
}

/// An in-memory multi-version cell store.
///
/// # Example
///
/// ```
/// use bytes::Bytes;
/// use cumulo_store::{MemStore, Timestamp};
///
/// let mut ms = MemStore::new();
/// ms.apply(Bytes::from_static(b"row"), Bytes::from_static(b"col"), Timestamp(10), Some(Bytes::from_static(b"v1")));
/// ms.apply(Bytes::from_static(b"row"), Bytes::from_static(b"col"), Timestamp(20), Some(Bytes::from_static(b"v2")));
/// // A snapshot at ts 15 sees the version written at 10.
/// let seen = ms.get(b"row", b"col", Timestamp(15)).unwrap();
/// assert_eq!(seen.ts, Timestamp(10));
/// assert_eq!(seen.value.as_deref(), Some(&b"v1"[..]));
/// ```
#[derive(Clone, Default)]
pub struct MemStore {
    cells: BTreeMap<VersionKey, Option<Bytes>>,
    approx_bytes: usize,
}

impl fmt::Debug for MemStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemStore")
            .field("versions", &self.cells.len())
            .field("approx_bytes", &self.approx_bytes)
            .finish()
    }
}

impl MemStore {
    /// Creates an empty memstore.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Applies one versioned write (idempotent: re-applying the same
    /// (cell, ts) pair replaces the identical entry).
    pub fn apply(&mut self, row: Bytes, column: Bytes, ts: Timestamp, value: Option<Bytes>) {
        let size = row.len() + column.len() + value.as_ref().map(Bytes::len).unwrap_or(0) + 24;
        let prev = self.cells.insert(VersionKey::new(row, column, ts), value);
        if prev.is_none() {
            self.approx_bytes += size;
        }
    }

    /// Applies a [`MutationKind`] at the given version.
    pub fn apply_mutation(
        &mut self,
        row: Bytes,
        column: Bytes,
        ts: Timestamp,
        kind: &MutationKind,
    ) {
        let value = match kind {
            MutationKind::Put(v) => Some(v.clone()),
            MutationKind::Delete => None,
        };
        self.apply(row, column, ts, value);
    }

    /// The newest version of `(row, column)` with timestamp ≤
    /// `snapshot`, if any (including tombstones: callers distinguish
    /// "no entry" from "deleted").
    pub fn get(&self, row: &[u8], column: &[u8], snapshot: Timestamp) -> Option<VersionedValue> {
        let probe = Probe::new(row, column, !snapshot.0);
        let from = Bound::Included(&probe as &dyn KeyView);
        let (key, value) = self
            .cells
            .range::<dyn KeyView, _>((from, Bound::Unbounded))
            .next()?;
        if key.row == row && key.column == column {
            Some(VersionedValue {
                ts: key.ts(),
                value: value.clone(),
            })
        } else {
            None
        }
    }

    /// Iterates all versions in (row, column, descending ts) order, as
    /// `(row, column, ts, value)` — the flush path uses this. Unlike
    /// [`MemStore::range`] it knows its length, so collecting it
    /// allocates once.
    pub fn iter(
        &self,
    ) -> impl ExactSizeIterator<Item = (&Bytes, &Bytes, Timestamp, &Option<Bytes>)> + '_ {
        self.cells
            .iter()
            .map(|(k, v)| (&k.row, &k.column, k.ts(), v))
    }

    /// Bounded cursor: every version of rows in `[start, end)` (`end`
    /// exclusive, `None` = unbounded) in (row, column, descending ts)
    /// order. Seeks to `start` in O(log n) and ends at `end`, so a
    /// consumer pays for what it pulls, not for the memstore's size.
    pub fn range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> impl Iterator<Item = EntryRef<'_>> + '_ {
        let from = Probe::row_floor(start);
        // `BTreeMap::range` panics on inverted bounds; an `end` before
        // `start` is simply an empty range.
        let to = end.map(|end| Probe::row_floor(end.max(start)));
        let to = match &to {
            Some(to) => Bound::Excluded(to as &dyn KeyView),
            None => Bound::Unbounded,
        };
        self.cells
            .range::<dyn KeyView, _>((Bound::Included(&from as &dyn KeyView), to))
            .map(|(k, v)| EntryRef::from_cells(&k.row, &k.column, k.ts(), v))
    }

    /// Newest version at or below `snapshot` per cell for rows in
    /// `[start, end)` (`end` exclusive, `None` = unbounded), in key
    /// order — *including* tombstones: a delete still in the memstore
    /// must shadow an older value in a store file, so the region's merge
    /// ([`crate::merge_iter::scan_page`]) has to see it. A collector
    /// over [`MemStore::range`].
    pub fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        snapshot: Timestamp,
    ) -> Vec<(Bytes, Bytes, VersionedValue)> {
        visible_at(self.range(start, end), snapshot)
            .map(|e| e.to_cell())
            .collect()
    }

    /// Number of stored versions.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no versions are stored.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The flush trigger's model of the stored versions: per version, its
    /// row, column and value lengths plus 24 bytes. It is not the heap
    /// size (the in-memory key's layout is not charged), so a layout
    /// change moves no flush point.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Removes everything (after a successful flush).
    pub fn clear(&mut self) {
        self.cells.clear();
        self.approx_bytes = 0;
    }

    /// Moves the current contents out (flush snapshot), leaving the
    /// memstore empty for new writes.
    pub fn take(&mut self) -> MemStore {
        let cells = std::mem::take(&mut self.cells);
        let bytes = std::mem::replace(&mut self.approx_bytes, 0);
        MemStore {
            cells,
            approx_bytes: bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn snapshot_reads_see_correct_version() {
        let mut ms = MemStore::new();
        ms.apply(b("r"), b("c"), Timestamp(10), Some(b("v10")));
        ms.apply(b("r"), b("c"), Timestamp(20), Some(b("v20")));
        ms.apply(b("r"), b("c"), Timestamp(30), Some(b("v30")));
        assert_eq!(ms.get(b"r", b"c", Timestamp(5)), None);
        assert_eq!(
            ms.get(b"r", b"c", Timestamp(10)).unwrap().value,
            Some(b("v10"))
        );
        assert_eq!(
            ms.get(b"r", b"c", Timestamp(25)).unwrap().value,
            Some(b("v20"))
        );
        assert_eq!(
            ms.get(b"r", b"c", Timestamp::MAX).unwrap().value,
            Some(b("v30"))
        );
    }

    #[test]
    fn tombstones_are_returned_distinctly() {
        let mut ms = MemStore::new();
        ms.apply(b("r"), b("c"), Timestamp(10), Some(b("v")));
        ms.apply_mutation(b("r"), b("c"), Timestamp(20), &MutationKind::Delete);
        let vv = ms.get(b"r", b"c", Timestamp(25)).unwrap();
        assert_eq!(vv.ts, Timestamp(20));
        assert_eq!(vv.value, None);
        // Distinct from a cell that never existed:
        assert_eq!(ms.get(b"r", b"x", Timestamp(25)), None);
    }

    #[test]
    fn idempotent_replay() {
        let mut ms = MemStore::new();
        ms.apply(b("r"), b("c"), Timestamp(10), Some(b("v")));
        let size1 = ms.approx_bytes();
        let len1 = ms.len();
        ms.apply(b("r"), b("c"), Timestamp(10), Some(b("v"))); // replay
        assert_eq!(ms.len(), len1);
        assert_eq!(ms.approx_bytes(), size1);
        assert_eq!(
            ms.get(b"r", b"c", Timestamp(10)).unwrap().value,
            Some(b("v"))
        );
    }

    #[test]
    fn cells_do_not_interfere() {
        let mut ms = MemStore::new();
        ms.apply(b("a"), b("c1"), Timestamp(10), Some(b("x")));
        ms.apply(b("a"), b("c2"), Timestamp(11), Some(b("y")));
        ms.apply(b("b"), b("c1"), Timestamp(12), Some(b("z")));
        assert_eq!(
            ms.get(b"a", b"c1", Timestamp::MAX).unwrap().value,
            Some(b("x"))
        );
        assert_eq!(
            ms.get(b"a", b"c2", Timestamp::MAX).unwrap().value,
            Some(b("y"))
        );
        assert_eq!(
            ms.get(b"b", b"c1", Timestamp::MAX).unwrap().value,
            Some(b("z"))
        );
        assert_eq!(ms.get(b"b", b"c2", Timestamp::MAX), None);
    }

    #[test]
    fn iter_is_sorted_newest_first_per_cell() {
        let mut ms = MemStore::new();
        ms.apply(b("a"), b("c"), Timestamp(1), Some(b("old")));
        ms.apply(b("a"), b("c"), Timestamp(2), Some(b("new")));
        ms.apply(b("b"), b("c"), Timestamp(1), Some(b("b1")));
        let entries: Vec<_> = ms
            .iter()
            .map(|(r, c, ts, _)| (r.clone(), c.clone(), ts))
            .collect();
        assert_eq!(
            entries,
            vec![
                (b("a"), b("c"), Timestamp(2)),
                (b("a"), b("c"), Timestamp(1)),
                (b("b"), b("c"), Timestamp(1)),
            ]
        );
    }

    #[test]
    fn scan_returns_latest_visible_per_cell() {
        let mut ms = MemStore::new();
        ms.apply(b("a"), b("c"), Timestamp(1), Some(b("a1")));
        ms.apply(b("a"), b("c"), Timestamp(5), Some(b("a5")));
        ms.apply(b("b"), b("c"), Timestamp(2), Some(b("b2")));
        ms.apply(b("c"), b("c"), Timestamp(3), Some(b("c3")));
        let hits = ms.scan(b"a", Some(b"c"), Timestamp(4));
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].2.value, Some(b("a1"))); // ts5 invisible at snapshot 4
        assert_eq!(hits[1].2.value, Some(b("b2")));
    }

    #[test]
    fn take_leaves_empty() {
        let mut ms = MemStore::new();
        ms.apply(b("a"), b("c"), Timestamp(1), Some(b("v")));
        let snap = ms.take();
        assert_eq!(snap.len(), 1);
        assert!(ms.is_empty());
        assert_eq!(ms.approx_bytes(), 0);
        ms.apply(b("b"), b("c"), Timestamp(2), Some(b("w")));
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn approx_bytes_grows_with_data() {
        let mut ms = MemStore::new();
        assert_eq!(ms.approx_bytes(), 0);
        ms.apply(
            b("row"),
            b("col"),
            Timestamp(1),
            Some(Bytes::from(vec![0u8; 1000])),
        );
        assert_eq!(ms.approx_bytes(), 3 + 3 + 1000 + 24);
        ms.clear();
        assert_eq!(ms.approx_bytes(), 0);
    }
}
