//! Immutable store files (HFile/SSTable equivalents) and the cluster-wide
//! store-file registry.
//!
//! A memstore flush writes its contents as a sorted, immutable store file
//! into the distributed filesystem. Readers locate the newest version ≤
//! their snapshot with binary search.
//!
//! ## Read-path service model
//!
//! Between compactions a region accumulates store files, and the newest
//! visible version of a cell can live in any of them. What a point get
//! *pays* for, in handler service time, is governed by per-file metadata
//! built here at flush time (and rebuilt by compaction for merge
//! outputs):
//!
//! * **Key-range pruning** — every file records its min/max row key
//!   ([`StoreFileData::key_range`]). A file whose range does not cover
//!   the requested row costs *nothing*: the range check is an in-memory
//!   metadata comparison.
//! * **Bloom-filter probe** — files whose range covers the row are probed
//!   against a per-file [`BloomFilter`] over `(row, column)` pairs. Each
//!   probe costs a small `filter_probe_service` term (filters are not
//!   free), and a negative probe definitively excludes the file.
//! * **Consultation** — only files the filter cannot exclude are
//!   consulted, each charging the `storefile_read_service`
//!   read-amplification term (beyond the first consulted file). A
//!   consulted file that turns out not to hold the key at all is a
//!   *false positive*, surfaced through the server's `FilterStats`.
//!
//! Scans use key-range pruning only: a scan touches many rows, so a
//! per-`(row, column)` filter cannot exclude a file for it.
//!
//! ## Simulation note: the registry
//!
//! In HBase, any region server can read any store file block from HDFS. We
//! model the *latency* of those block reads in the region server's service
//! time (cache-miss penalty) but serve the *bytes* from a shared
//! [`StoreFileRegistry`] keyed by file path, populated only after the DFS
//! write of the file has been acknowledged. Durability stays honest — a
//! file enters the registry only once it is really replicated — while
//! avoiding the unrealistic cost of re-reading whole files per lookup.
//! Liveness stays honest too: the read path checks that at least one
//! replica datanode of the file is alive before serving from the registry.

use crate::bloom::BloomFilter;
use crate::codec::{decode_mutation, encode_mutation, DecodeError, Decoder, Encoder};
use crate::memstore::{MemStore, VersionedValue};
use crate::merge_iter::{to_cell, visible_at, EntryRef};
use crate::types::{Mutation, MutationKind, RegionId, Timestamp};
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// One sorted immutable store file's contents — either a *physical* file
/// (a flush or compaction output, owning its entries) or a *reference
/// half-file* created by an online region split, which shares the parent
/// file's entry array and clips it to the daughter's key range (see
/// [`StoreFileData::reference`]).
pub struct StoreFileData {
    region: RegionId,
    path: String,
    /// Sorted by (row, column, descending ts) — same order as a memstore.
    /// Shared (`Rc`) so a split's reference half-files are O(metadata):
    /// they alias the parent's array and narrow `[lo, hi)`.
    entries: Rc<Vec<(Bytes, Bytes, Timestamp, Option<Bytes>)>>,
    /// Visible slice bounds into `entries` (`0..len` for physical files).
    lo: usize,
    hi: usize,
    total_bytes: usize,
    /// Min/max row key stored (`None` for an empty file); the read path's
    /// free range-pruning check.
    key_range: Option<(Bytes, Bytes)>,
    /// Membership filter over the file's distinct `(row, column)` pairs.
    /// Reference files share the parent's filter (it may answer `true`
    /// for keys clipped into the sibling daughter — an ordinary false
    /// positive).
    bloom: Rc<BloomFilter>,
    /// For a reference half-file: the DFS path of the parent file that
    /// physically holds the bytes (replica-liveness checks target it, and
    /// it may only be deleted once every reference is rewritten).
    backing: Option<String>,
}

impl fmt::Debug for StoreFileData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreFileData")
            .field("region", &self.region)
            .field("path", &self.path)
            .field("entries", &self.entries.len())
            .field("bytes", &self.total_bytes)
            .field("filter_bytes", &self.bloom.approx_bytes())
            .finish()
    }
}

/// One versioned cell as stored in a file: `(row, column, ts, value)`,
/// with `None` marking a delete tombstone.
pub type StoreFileEntry = (Bytes, Bytes, Timestamp, Option<Bytes>);

/// Min/max row key over sorted entries (`None` when empty).
fn key_range_of(entries: &[StoreFileEntry]) -> Option<(Bytes, Bytes)> {
    match (entries.first(), entries.last()) {
        (Some((min, ..)), Some((max, ..))) => Some((min.clone(), max.clone())),
        _ => None,
    }
}

/// Builds the file's bloom filter over its distinct `(row, column)`
/// pairs. Entries are sorted, so distinct pairs are adjacent.
fn build_bloom(entries: &[StoreFileEntry]) -> BloomFilter {
    let mut last: Option<(&Bytes, &Bytes)> = None;
    let distinct = entries.iter().filter(move |(r, c, ..)| {
        let fresh = last != Some((r, c));
        last = Some((r, c));
        fresh
    });
    BloomFilter::build(distinct.map(|(r, c, ..)| (&r[..], &c[..])))
}

impl StoreFileData {
    /// Builds a store file from a (snapshot) memstore.
    pub fn from_memstore(
        region: RegionId,
        path: impl Into<String>,
        ms: &MemStore,
    ) -> StoreFileData {
        let entries: Vec<_> = ms
            .iter()
            .map(|(r, c, ts, v)| (r.clone(), c.clone(), ts, v.clone()))
            .collect();
        StoreFileData::from_sorted_entries(region, path, entries)
    }

    /// Builds a store file from entries already in `(row, column,
    /// descending ts)` order — the compaction merge path.
    ///
    /// # Panics
    ///
    /// Debug-asserts the required ordering.
    pub fn from_sorted_entries(
        region: RegionId,
        path: impl Into<String>,
        entries: Vec<StoreFileEntry>,
    ) -> StoreFileData {
        debug_assert!(
            entries.windows(2).all(|w| {
                let a = (&w[0].0, &w[0].1, !w[0].2 .0);
                let b = (&w[1].0, &w[1].1, !w[1].2 .0);
                a < b
            }),
            "entries must be strictly sorted by (row, column, descending ts)"
        );
        let total_bytes = entries
            .iter()
            .map(|(r, c, _, v)| r.len() + c.len() + v.as_ref().map(Bytes::len).unwrap_or(0) + 24)
            .sum();
        let bloom = build_bloom(&entries);
        let hi = entries.len();
        StoreFileData {
            region,
            path: path.into(),
            key_range: key_range_of(&entries),
            lo: 0,
            hi,
            total_bytes,
            bloom: Rc::new(bloom),
            entries: Rc::new(entries),
            backing: None,
        }
    }

    /// Builds a reference half-file over `parent` for an online region
    /// split: the result aliases the parent's entry array clipped to rows
    /// in `[start, end)` (two `partition_point` calls — O(log n), no data
    /// copy) and shares the parent's bloom filter. The reference's
    /// [`StoreFileData::backing_path`] names the parent file, whose
    /// replicas actually hold the bytes; the parent file must outlive
    /// every reference (the daughter's first compaction covering the
    /// reference rewrites it into a physical file).
    ///
    /// Returns `None` when no row of the parent falls inside the range
    /// (nothing to reference).
    pub fn reference(
        parent: &Rc<StoreFileData>,
        region: RegionId,
        path: impl Into<String>,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> Option<StoreFileData> {
        // Clipping within the parent's own visible window means a
        // reference over a reference composes — daughters can split again.
        let (lo, hi) = parent.row_bounds(start, end);
        if lo >= hi {
            return None;
        }
        let slice = &parent.entries[lo..hi];
        let total_bytes = slice
            .iter()
            .map(|(r, c, _, v)| r.len() + c.len() + v.as_ref().map(Bytes::len).unwrap_or(0) + 24)
            .sum();
        Some(StoreFileData {
            region,
            path: path.into(),
            key_range: key_range_of(slice),
            lo,
            hi,
            total_bytes,
            bloom: Rc::clone(&parent.bloom),
            entries: Rc::clone(&parent.entries),
            backing: Some(
                parent
                    .backing
                    .clone()
                    .unwrap_or_else(|| parent.path.clone()),
            ),
        })
    }

    /// The visible entry slice (the whole array for physical files, the
    /// clipped window for reference half-files).
    fn slice(&self) -> &[StoreFileEntry] {
        &self.entries[self.lo..self.hi]
    }

    /// Bounds, as indices into the shared `entries` array, of the visible
    /// rows in `[start, end)`: two binary searches inside `[lo, hi)`. An
    /// `end` at or before `start` gives an empty range.
    fn row_bounds(&self, start: &[u8], end: Option<&[u8]>) -> (usize, usize) {
        let visible = self.slice();
        let from = self.lo + visible.partition_point(|(r, ..)| &r[..] < start);
        let to = match end {
            Some(end) => self.lo + visible.partition_point(|(r, ..)| &r[..] < end),
            None => self.hi,
        };
        (from, to.max(from))
    }

    /// Bounded cursor: every stored version of rows in `[start, end)`
    /// (`end` exclusive, `None` = unbounded) in `(row, column,
    /// descending ts)` order — what scans and the compaction merge
    /// consume. Seeks in O(log n) (reference half-files included: the
    /// search runs inside their clipped window), so a consumer pays for
    /// what it pulls, not for the file's size.
    pub fn range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> impl ExactSizeIterator<Item = EntryRef<'_>> + '_ {
        let (from, to) = self.row_bounds(start, end);
        self.entries[from..to]
            .iter()
            .map(|(r, c, ts, v)| (r, c, *ts, v))
    }

    /// Iterates all stored versions in `(row, column, descending ts)`
    /// order.
    pub fn entries(&self) -> impl Iterator<Item = &StoreFileEntry> + '_ {
        self.slice().iter()
    }

    /// Whether this is a reference half-file over another file's bytes.
    pub fn is_reference(&self) -> bool {
        self.backing.is_some()
    }

    /// The DFS path whose replicas physically hold this file's bytes: the
    /// parent file for a reference half-file, the file itself otherwise.
    pub fn backing_path(&self) -> &str {
        self.backing.as_deref().unwrap_or(&self.path)
    }

    /// The row key of the middle visible entry — the split-point heuristic
    /// (HBase picks the largest store file's index midkey the same way).
    /// `None` for an empty file.
    pub fn mid_row(&self) -> Option<Bytes> {
        let slice = self.slice();
        slice.get(slice.len() / 2).map(|(r, ..)| r.clone())
    }

    /// The region this file belongs to.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// The DFS path the file was written to.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Number of stored versions.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the file stores nothing.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Approximate on-disk size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// The min/max row key stored, or `None` for an empty file.
    pub fn key_range(&self) -> Option<(&[u8], &[u8])> {
        self.key_range.as_ref().map(|(a, b)| (&a[..], &b[..]))
    }

    /// Whether `row` falls inside the file's min/max row range — the free
    /// pruning check the read path applies before any filter probe.
    pub fn row_in_range(&self, row: &[u8]) -> bool {
        match &self.key_range {
            Some((min, max)) => &min[..] <= row && row <= &max[..],
            None => false,
        }
    }

    /// Whether the file's row range intersects the scan range
    /// `[start, end)`.
    pub fn range_overlaps(&self, start: &[u8], end: Option<&[u8]>) -> bool {
        match &self.key_range {
            Some((min, max)) => &max[..] >= start && end.map(|e| &min[..] < e).unwrap_or(true),
            None => false,
        }
    }

    /// Probes the file's bloom filter for `(row, column)`. `false` is
    /// definitive; `true` may be a false positive.
    pub fn filter_may_contain(&self, row: &[u8], column: &[u8]) -> bool {
        self.bloom.may_contain(row, column)
    }

    /// Exact membership check: whether *any* version of `(row, column)`
    /// is stored, regardless of snapshot. Used to classify filter
    /// outcomes (false positives / negatives), not to serve reads.
    pub fn contains_key(&self, row: &[u8], column: &[u8]) -> bool {
        let slice = self.slice();
        let idx = slice.partition_point(|(r, c, ..)| (&r[..], &c[..]) < (row, column));
        matches!(slice.get(idx), Some((r, c, ..)) if r == row && c == column)
    }

    /// Bytes of filter metadata (the bloom bit array) this file carries.
    pub fn filter_bytes(&self) -> usize {
        self.bloom.approx_bytes()
    }

    /// The newest version of `(row, column)` at or before `snapshot`.
    pub fn get(&self, row: &[u8], column: &[u8], snapshot: Timestamp) -> Option<VersionedValue> {
        // First entry with key >= (row, column, inv(snapshot)) in the
        // (row, col, desc-ts) order.
        let slice = self.slice();
        let idx = slice
            .partition_point(|(r, c, ts, _)| (&r[..], &c[..], !ts.0) < (row, column, !snapshot.0));
        let (r, c, ts, v) = slice.get(idx)?;
        if r == row && c == column {
            Some(VersionedValue {
                ts: *ts,
                value: v.clone(),
            })
        } else {
            None
        }
    }

    /// Latest version ≤ `snapshot` per cell for rows in `[start, end)`
    /// (`end` exclusive, `None` = unbounded) — including tombstones,
    /// which the region server's merge needs so a newer file-borne
    /// delete shadows older values. A collector over
    /// [`StoreFileData::range`]; the region's own scan merges the
    /// cursors directly ([`crate::merge_iter::scan_page`]).
    pub fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        snapshot: Timestamp,
    ) -> Vec<(Bytes, Bytes, VersionedValue)> {
        visible_at(self.range(start, end), snapshot)
            .map(to_cell)
            .collect()
    }

    /// Serializes the file for the DFS write.
    pub fn encode(&self) -> Bytes {
        let mut enc = Encoder::new();
        enc.put_u32(self.region.0);
        enc.put_u32(self.len() as u32);
        for (r, c, ts, v) in self.slice() {
            let kind = match v {
                Some(v) => MutationKind::Put(v.clone()),
                None => MutationKind::Delete,
            };
            let m = Mutation {
                row: r.clone(),
                column: c.clone(),
                kind,
            };
            encode_mutation(&mut enc, &m);
            enc.put_u64(ts.0);
        }
        // Filter metadata trails the entries so the deterministic bloom
        // bits survive the DFS round trip (the row range is derivable
        // from the sorted entries and is not encoded).
        self.bloom.encode(&mut enc);
        enc.finish()
    }

    /// Parses a file previously produced by [`StoreFileData::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or corrupt input.
    pub fn decode(path: impl Into<String>, buf: &[u8]) -> Result<StoreFileData, DecodeError> {
        let mut dec = Decoder::new(buf);
        let region = RegionId(dec.get_u32()?);
        let n = dec.get_u32()? as usize;
        let mut entries = Vec::with_capacity(n);
        let mut total_bytes = 0;
        for _ in 0..n {
            let m = decode_mutation(&mut dec)?;
            let ts = Timestamp(dec.get_u64()?);
            let v = match m.kind {
                MutationKind::Put(v) => Some(v),
                MutationKind::Delete => None,
            };
            total_bytes +=
                m.row.len() + m.column.len() + v.as_ref().map(Bytes::len).unwrap_or(0) + 24;
            entries.push((m.row, m.column, ts, v));
        }
        let bloom = BloomFilter::decode(&mut dec)?;
        let hi = entries.len();
        Ok(StoreFileData {
            region,
            path: path.into(),
            key_range: key_range_of(&entries),
            lo: 0,
            hi,
            total_bytes,
            bloom: Rc::new(bloom),
            entries: Rc::new(entries),
            backing: None,
        })
    }
}

/// Cluster-wide map from store-file path to parsed contents (see the
/// module docs for why this exists).
///
/// The registry also tracks how many split reference half-files point at
/// each physical parent file ([`StoreFileRegistry::add_backing_ref`]): a
/// parent file may only be deleted once the last daughter reference to it
/// has been compacted away, and that count is cluster-level metadata (both
/// daughters may have failed over to different servers by then).
#[derive(Default)]
pub struct StoreFileRegistry {
    files: RefCell<HashMap<String, Rc<StoreFileData>>>,
    /// Outstanding reference half-files per backing (parent) file path.
    backing_refs: RefCell<HashMap<String, u32>>,
}

impl fmt::Debug for StoreFileRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreFileRegistry")
            .field("files", &self.files.borrow().len())
            .finish()
    }
}

impl StoreFileRegistry {
    /// Creates an empty registry.
    pub fn new() -> Rc<StoreFileRegistry> {
        Rc::new(StoreFileRegistry::default())
    }

    /// Registers a file (call only after its DFS write was acknowledged).
    pub fn insert(&self, data: Rc<StoreFileData>) {
        self.files.borrow_mut().insert(data.path().to_owned(), data);
    }

    /// Looks up a file by path.
    pub fn get(&self, path: &str) -> Option<Rc<StoreFileData>> {
        self.files.borrow().get(path).cloned()
    }

    /// Unregisters a file (when compaction retires it), returning whether
    /// it was present. Existing readers holding the `Rc` are unaffected;
    /// the path just stops resolving for new opens.
    pub fn remove(&self, path: &str) -> bool {
        self.files.borrow_mut().remove(path).is_some()
    }

    /// Records one more reference half-file over the physical file at
    /// `backing` (called when a split creates a daughter reference).
    pub fn add_backing_ref(&self, backing: &str) {
        *self
            .backing_refs
            .borrow_mut()
            .entry(backing.to_owned())
            .or_insert(0) += 1;
    }

    /// Releases one reference over `backing`; returns `true` when that
    /// was the last one (the physical file may now be deleted).
    pub fn release_backing_ref(&self, backing: &str) -> bool {
        let mut refs = self.backing_refs.borrow_mut();
        match refs.get_mut(backing) {
            Some(n) if *n > 1 => {
                *n -= 1;
                false
            }
            Some(_) => {
                refs.remove(backing);
                true
            }
            None => false,
        }
    }

    /// Outstanding reference half-files over `backing`.
    pub fn backing_ref_count(&self, backing: &str) -> u32 {
        self.backing_refs
            .borrow()
            .get(backing)
            .copied()
            .unwrap_or(0)
    }

    /// Unregisters every *reference* half-file whose path starts with
    /// `prefix` (a rolled-back split daughter's directory), releasing
    /// each one's hold on its backing file, and returns how many were
    /// purged. The backing physical files themselves are left alone —
    /// the parent region, recovered elsewhere, still serves them. Without
    /// this cleanup a crash mid-split would leak inflated backing counts
    /// and the parent's files could never be deleted after a later
    /// successful split.
    pub fn purge_references_under(&self, prefix: &str) -> usize {
        let mut victims: Vec<(String, String)> = self
            .files
            .borrow()
            .iter()
            .filter(|(p, d)| p.starts_with(prefix) && d.is_reference())
            .map(|(p, d)| (p.clone(), d.backing_path().to_owned()))
            .collect();
        victims.sort();
        for (path, backing) in &victims {
            self.files.borrow_mut().remove(path);
            let _ = self.release_backing_ref(backing);
        }
        victims.len()
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.files.borrow().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.files.borrow().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn sample() -> StoreFileData {
        let mut ms = MemStore::new();
        ms.apply(b("a"), b("c"), Timestamp(10), Some(b("a10")));
        ms.apply(b("a"), b("c"), Timestamp(20), Some(b("a20")));
        ms.apply(b("b"), b("c"), Timestamp(15), None); // tombstone
        ms.apply(b("c"), b("d"), Timestamp(5), Some(b("c5")));
        StoreFileData::from_memstore(RegionId(1), "/store/r1/0", &ms)
    }

    #[test]
    fn get_respects_snapshot() {
        let sf = sample();
        assert_eq!(sf.get(b"a", b"c", Timestamp(9)), None);
        assert_eq!(
            sf.get(b"a", b"c", Timestamp(10)).unwrap().value,
            Some(b("a10"))
        );
        assert_eq!(
            sf.get(b"a", b"c", Timestamp(19)).unwrap().value,
            Some(b("a10"))
        );
        assert_eq!(
            sf.get(b"a", b"c", Timestamp(20)).unwrap().value,
            Some(b("a20"))
        );
        assert_eq!(sf.get(b"b", b"c", Timestamp(20)).unwrap().value, None); // tombstone
        assert_eq!(sf.get(b"zz", b"c", Timestamp(20)), None);
        assert_eq!(
            sf.get(b"c", b"d", Timestamp(5)).unwrap().value,
            Some(b("c5"))
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let sf = sample();
        let encoded = sf.encode();
        let back = StoreFileData::decode("/store/r1/0", &encoded).expect("decode");
        assert_eq!(back.region(), RegionId(1));
        assert_eq!(back.len(), sf.len());
        assert_eq!(
            back.get(b"a", b"c", Timestamp(20)),
            sf.get(b"a", b"c", Timestamp(20))
        );
        assert_eq!(
            back.get(b"b", b"c", Timestamp(20)),
            sf.get(b"b", b"c", Timestamp(20))
        );
        assert!(StoreFileData::decode("/x", &encoded[..3]).is_err());
    }

    #[test]
    fn scan_filters_range_and_snapshot() {
        let sf = sample();
        let hits = sf.scan(b"a", Some(b"c"), Timestamp(50));
        assert_eq!(hits.len(), 2); // a (latest=20) and b (tombstone)
        assert_eq!(hits[0].2.ts, Timestamp(20));
        let hits = sf.scan(b"a", None, Timestamp(5));
        assert_eq!(hits.len(), 1); // only c@5 visible
        assert_eq!(hits[0].0, b("c"));
    }

    #[test]
    fn registry_roundtrip() {
        let reg = StoreFileRegistry::new();
        assert!(reg.is_empty());
        let sf = Rc::new(sample());
        reg.insert(Rc::clone(&sf));
        assert_eq!(reg.len(), 1);
        let got = reg.get("/store/r1/0").expect("registered");
        assert_eq!(got.len(), sf.len());
        assert!(reg.get("/other").is_none());
    }

    #[test]
    fn registry_remove_unregisters() {
        let reg = StoreFileRegistry::new();
        let sf = Rc::new(sample());
        reg.insert(Rc::clone(&sf));
        assert!(!reg.remove("/not-there"));
        assert!(reg.remove("/store/r1/0"));
        assert!(reg.get("/store/r1/0").is_none());
        assert!(reg.is_empty());
        // The held Rc still reads fine after removal.
        assert_eq!(
            sf.get(b"a", b"c", Timestamp(20)).unwrap().value,
            Some(b("a20"))
        );
    }

    #[test]
    fn from_sorted_entries_matches_memstore_build() {
        let via_ms = sample();
        let entries: Vec<_> = via_ms.entries().cloned().collect();
        let direct = StoreFileData::from_sorted_entries(RegionId(1), "/store/r1/0", entries);
        assert_eq!(direct.len(), via_ms.len());
        assert_eq!(direct.total_bytes(), via_ms.total_bytes());
        assert_eq!(
            direct.get(b"a", b"c", Timestamp(20)),
            via_ms.get(b"a", b"c", Timestamp(20))
        );
    }

    #[test]
    fn range_and_filter_metadata() {
        let sf = sample();
        assert_eq!(sf.key_range(), Some((b"a".as_ref(), b"c".as_ref())));
        assert!(sf.row_in_range(b"a"));
        assert!(sf.row_in_range(b"b"));
        assert!(!sf.row_in_range(b"0"));
        assert!(!sf.row_in_range(b"d"));
        assert!(sf.range_overlaps(b"b", Some(b"z")));
        assert!(sf.range_overlaps(b"", None));
        assert!(!sf.range_overlaps(b"d", None));
        assert!(!sf.range_overlaps(b"", Some(b"a")));
        // Inserted pairs always match; the tombstoned cell too.
        assert!(sf.filter_may_contain(b"a", b"c"));
        assert!(sf.filter_may_contain(b"b", b"c"));
        assert!(sf.filter_may_contain(b"c", b"d"));
        assert!(sf.contains_key(b"a", b"c"));
        assert!(sf.contains_key(b"b", b"c"));
        assert!(!sf.contains_key(b"a", b"d"));
        assert!(!sf.contains_key(b"zz", b"c"));
        assert!(sf.filter_bytes() > 0);
    }

    #[test]
    fn decode_preserves_filter_metadata() {
        let sf = sample();
        let back = StoreFileData::decode("/store/r1/0", &sf.encode()).expect("decode");
        assert_eq!(back.key_range(), sf.key_range());
        assert_eq!(back.filter_bytes(), sf.filter_bytes());
        for (r, c, ..) in sf.entries() {
            assert!(back.filter_may_contain(r, c), "no false negatives");
        }
        // The trailing filter section is covered by truncation checks too.
        let encoded = sf.encode();
        assert!(StoreFileData::decode("/x", &encoded[..encoded.len() - 2]).is_err());
    }

    #[test]
    fn empty_file() {
        let ms = MemStore::new();
        let sf = StoreFileData::from_memstore(RegionId(0), "/f", &ms);
        assert!(sf.is_empty());
        assert_eq!(sf.get(b"a", b"c", Timestamp::MAX), None);
        let back = StoreFileData::decode("/f", &sf.encode()).unwrap();
        assert!(back.is_empty());
    }
}
