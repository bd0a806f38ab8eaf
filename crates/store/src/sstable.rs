//! Immutable store files (HFile/SSTable equivalents) and the cluster-wide
//! store-file registry.
//!
//! A memstore flush writes its contents as a sorted, immutable store file
//! into the distributed filesystem. A point read hashes its `(row,
//! column)` once, finds the cell's newest version through the file's
//! hash index, and steps to the first version ≤ its snapshot; ordered
//! seeks (scans, split clip points) binary-search the offset index.
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
//!   probe costs a small `FILTER_PROBE_SERVICE` term (filters are not
//!   free), and a negative probe definitively excludes the file.
//! * **Consultation** — only files the filter cannot exclude are
//!   consulted, each charging the `STOREFILE_READ_SERVICE`
//!   read-amplification term (beyond the first consulted file). A
//!   consulted file that turns out not to hold the key at all is a
//!   *false positive*, surfaced through the server's `FilterStats`.
//!
//! Scans use key-range pruning only: a scan touches many rows, so a
//! per-`(row, column)` filter cannot exclude a file for it.
//!
//! ## Representation: a file is its wire image
//!
//! A [`StoreFileData`] holds the exact bytes the file has in the
//! distributed filesystem — `image`, the same buffer the replicas keep —
//! plus two indexes that exist only in memory: an offset index with one
//! `u32` per stored version, and a hash index with one slot or more per
//! distinct cell:
//!
//! ```text
//! image:  region:u32  count:u32 | entry 0 | entry 1 | … | filter words
//! entry:  len:u32 row | len:u32 column | tag:u8 [len:u32 value] | ts:u64
//! index:  [offset of entry 0, …, offset of entry count-1, end of entries]
//! slots:  [tag:u32 offset:u32 of a cell's newest version, or EMPTY; 2ⁿ of them]
//! ```
//!
//! Every file is built through one streaming constructor,
//! [`StoreFileBuilder`]: `push` appends an entry's wire form to a
//! pre-sized buffer, `finish` appends the bloom filter and freezes the
//! buffer without copying it. So [`StoreFileData::encode`] is a
//! reference-count bump, [`StoreFileData::decode`] is one pass that
//! validates the input and records offsets without allocating per entry,
//! and cursors walk the image front to back. A split's reference
//! half-file shares the parent's image and both indexes and clips them
//! to `lo..hi`.
//!
//! ### The hash index
//!
//! `slots` is an open-addressed table (linear probing) of the smallest
//! power of two that is at least twice the file's distinct `(row, column)`
//! cells, so 16–32 bytes per cell beside ~130 of image. A cell's home slot
//! comes from the first half of the [`hash_pair`] the bloom filter already
//! takes of it ([`cell_hash`]); its slot packs that half's high 32 bits
//! (the tag) above the image offset of the cell's newest version. Cells
//! are inserted in file order: the table is a pure function of the file's
//! bytes, so it is not on the wire — the builder fills it in `finish`,
//! `decode` in its validating pass, and both arrive at the same table.
//! [`StoreFileData::get_cell`] is:
//!
//! 1. hash, and probe from the home slot to the first empty one, passing
//!    every slot whose tag differs without touching `index` or `image`;
//! 2. at a slot whose tag matches, compare the key bytes in place at its
//!    offset; a match is the cell's newest version, parsed there;
//! 3. only if that version is above the snapshot: find its entry number
//!    (one binary search of the offsets in `index`) and gallop to the
//!    first version at or below the snapshot (O(log v) for a cell with v
//!    versions).
//!
//! [`StoreFileData::contains_cell`] is steps 1 and 2. A reference
//! half-file probes the parent's table and treats an offset outside
//! `index[lo]..index[hi]` as a miss. What needs *order* rather than
//! identity — [`StoreFileData::range`], the clip points of
//! [`StoreFileData::reference`] — still binary-searches the offset index
//! (`lower_bound`).
//!
//! ### The view-pinning rule
//!
//! What a file hands out as owned [`Bytes`] — values from
//! [`StoreFileData::get`], cells from [`StoreFileData::scan`] and
//! [`crate::merge_iter::scan_page`] — are *views* of the image
//! ([`Bytes::slice_ref`]): free to make, but each keeps the whole image
//! allocated until it is dropped. That suits what is handed to a client
//! and dropped with the reply. Anything long-lived must **copy, not
//! view**: the file's own [`StoreFileData::key_range`],
//! [`StoreFileData::mid_row`] (it becomes a region boundary), block-cache
//! keys, and whatever is parked in a memstore. Otherwise one retired
//! multi-megabyte file stays resident for the sake of a 16-byte key.
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

use crate::bloom::{cell_hash, hash_pair, BloomFilter, CellKey};
use crate::codec::{decode_cell, encode_cell, DecodeError, Decoder, Encoder, WalRecord, TAG_PUT};
use crate::memstore::{MemStore, VersionedValue};
use crate::merge_iter::{visible_at, EntryRef};
use crate::types::{MutationKind, RegionId, Timestamp};
use bytes::Bytes;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Bytes of the image before the first entry: region id, entry count.
const HEADER_BYTES: usize = 8;

/// The smallest entry on the wire: empty row and column, a delete.
const MIN_ENTRY_BYTES: usize = 4 + 4 + 1 + 8;

/// An unoccupied slot of the hash index (never a packed slot: an entry's
/// offset in an image below 4 GiB is below `u32::MAX`).
const EMPTY: u64 = u64::MAX;

/// The bits of a slot that hold its cell's tag: the high half of the
/// cell's [`cell_hash`]. The low half holds the image offset.
const TAG_BITS: u64 = !(u32::MAX as u64);

/// Where the probe for a cell whose first [`hash_pair`] half is `hash`
/// starts, in a table of `mask + 1` slots. FNV's low bits depend only on
/// the low bits of the key's bytes, so the high half is folded in.
fn home_slot(hash: u64, mask: usize) -> usize {
    (hash ^ (hash >> 32)) as usize & mask
}

/// Builds the hash index (module docs) from each distinct cell's hash and
/// the image offset of its newest version, in file order.
fn build_slots(cells: impl ExactSizeIterator<Item = (u64, u32)>) -> Rc<[u64]> {
    if cells.len() == 0 {
        return Rc::new([]);
    }
    let mut slots = vec![EMPTY; (cells.len() * 2).next_power_of_two()];
    let mask = slots.len() - 1;
    for (hash, at) in cells {
        let mut slot = home_slot(hash, mask);
        while slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        slots[slot] = hash & TAG_BITS | u64::from(at);
    }
    slots.into()
}

#[cfg(test)]
thread_local! {
    /// Entries [`StoreFileData::sorts_before`] compared on this thread:
    /// what the unit tests bound a lookup's work by, without a clock.
    static KEY_COMPARES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Keys [`StoreFileData::find`] read out of the image on this thread:
    /// one per probed slot whose tag matched.
    static KEY_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Reads the fields of entries out of a file's own image, in wire order.
/// The image was written by the builder or checked field by field in
/// `decode`, and is immutable since, so unlike [`Decoder`] this reports
/// nothing: a field that does not fit is a bug here, and panics (every
/// access is still a checked slice index).
struct Reader<'a> {
    image: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn fixed<const N: usize>(&mut self) -> [u8; N] {
        let bytes = &self.image[self.at..self.at + N];
        self.at += N;
        bytes.try_into().expect("sliced to N bytes")
    }

    /// A length-prefixed byte string: a row or a column.
    fn bytes(&mut self) -> &'a [u8] {
        let len = u32::from_be_bytes(self.fixed()) as usize;
        let bytes = &self.image[self.at..self.at + len];
        self.at += len;
        bytes
    }

    /// The tag and what follows it: a value, or nothing for a delete.
    fn value(&mut self) -> Option<&'a [u8]> {
        let [tag] = self.fixed();
        (tag == TAG_PUT).then(|| self.bytes())
    }

    fn ts(&mut self) -> Timestamp {
        Timestamp(u64::from_be_bytes(self.fixed()))
    }
}

/// What one stored version counts for in [`StoreFileData::total_bytes`]
/// (and in a memstore's `approx_bytes`): its payload plus a fixed
/// per-entry allowance.
fn entry_bytes(row: &[u8], column: &[u8], value: Option<&[u8]>) -> usize {
    row.len() + column.len() + value.map_or(0, <[u8]>::len) + 24
}

/// One sorted immutable store file's contents — either a *physical* file
/// (a flush or compaction output, owning its image) or a *reference
/// half-file* created by an online region split, which shares the parent
/// file's image and index and clips them to the daughter's key range
/// (see [`StoreFileData::reference`]).
///
/// **The view-pinning rule.** The file holds its exact wire image (layout
/// in `sstable.rs`'s module docs), and the owned [`Bytes`] it hands out —
/// [`StoreFileData::get`] values, [`StoreFileData::scan`] cells — are
/// views that keep the whole image allocated while they live. Hold them
/// for the length of a request; anything long-lived (a region boundary,
/// a cache key, a memstore entry) must copy instead, as
/// [`StoreFileData::key_range`] and [`StoreFileData::mid_row`] do.
pub struct StoreFileData {
    region: RegionId,
    path: String,
    /// The file's wire image (the parent's, for a reference half-file).
    /// Entries are sorted by (row, column, descending ts) — the same
    /// order as a memstore.
    image: Bytes,
    /// Offset into `image` of every entry, then of the end of the
    /// entries. Shared (`Rc`) so a split's reference half-files are
    /// O(metadata): they alias the parent's index and narrow `[lo, hi)`.
    index: Rc<Vec<u32>>,
    /// Hash index: for each distinct cell, its hash's tag and the image
    /// offset of its newest version (module docs). Shared like `index`; a
    /// reference half-file ignores what it finds outside its window.
    slots: Rc<[u64]>,
    /// Visible bounds into `index` (`0..count` for physical files).
    lo: usize,
    hi: usize,
    total_bytes: usize,
    /// Min/max row key stored (`None` for an empty file); the read path's
    /// free range-pruning check. Copies, not views (module docs).
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
            .field("entries", &self.len())
            .field("bytes", &self.total_bytes)
            .field("filter_bytes", &self.bloom.approx_bytes())
            .finish()
    }
}

/// One versioned cell in owned form: `(row, column, ts, value)`, with
/// `None` marking a delete tombstone. Files do not store these (see the
/// module docs); it is the input shape of
/// [`StoreFileData::from_sorted_entries`].
pub type StoreFileEntry = (Bytes, Bytes, Timestamp, Option<Bytes>);

/// The one constructor of store files: entries are pushed in `(row,
/// column, descending ts)` order and appended to the file's wire image
/// as they arrive; [`StoreFileBuilder::finish`] seals the image.
///
/// Memstore flushes, compaction outputs, the WAL split
/// ([`StoreFileData::from_wal_records`]) and
/// [`StoreFileData::from_sorted_entries`] all build through this, so the
/// wire format, the size accounting and the filter are defined once.
pub struct StoreFileBuilder {
    /// The image so far: a header with the count still blank, then the
    /// entries pushed.
    image: Encoder,
    /// Offset of each entry pushed.
    index: Vec<u32>,
    /// Hash pair of each distinct `(row, column)` pushed, taken while
    /// the key is in cache; the filter and the hash index are sized from
    /// their number.
    hashes: Vec<(u64, u64)>,
    /// Image offset of each distinct cell's first (newest) version, in
    /// step with `hashes`.
    firsts: Vec<u32>,
    total_bytes: usize,
}

impl StoreFileBuilder {
    /// A builder for a file expected to hold about `entries` versions
    /// counting `total_bytes` (in [`StoreFileData::total_bytes`] terms).
    /// With exact or high estimates nothing regrows: the image of such a
    /// file, filter included, is never larger than its `total_bytes`
    /// plus the header.
    pub fn with_capacity(entries: usize, total_bytes: usize) -> StoreFileBuilder {
        let mut image = Encoder::with_capacity(HEADER_BYTES + total_bytes + 12);
        image.put_u32(0);
        image.put_u32(0);
        StoreFileBuilder {
            image,
            index: Vec::with_capacity(entries + 1),
            hashes: Vec::with_capacity(entries),
            firsts: Vec::with_capacity(entries),
            total_bytes: 0,
        }
    }

    /// What one version counts for in [`StoreFileData::total_bytes`]:
    /// with these summed over a file's entries, [`Self::with_capacity`]
    /// never regrows.
    pub fn entry_bytes(row: &[u8], column: &[u8], value: Option<&[u8]>) -> usize {
        entry_bytes(row, column, value)
    }

    /// The row and column of the last entry pushed, and a reader placed
    /// behind them.
    fn last_key(&self) -> Option<(&[u8], &[u8], Reader<'_>)> {
        let mut entry = Reader {
            image: self.image.as_slice(),
            at: *self.index.last()? as usize,
        };
        Some((entry.bytes(), entry.bytes(), entry))
    }

    /// Appends one version. Entries must arrive strictly sorted by
    /// `(row, column, descending ts)`.
    ///
    /// # Panics
    ///
    /// If the image would reach 4 GiB (offsets are `u32`);
    /// debug-asserts the ordering.
    pub fn push(&mut self, row: &[u8], column: &[u8], ts: Timestamp, value: Option<&[u8]>) {
        let same_cell = self
            .last_key()
            .is_some_and(|(last_row, last_column, mut rest)| {
                debug_assert!(
                    {
                        rest.value();
                        (last_row, last_column, !rest.ts().0) < (row, column, !ts.0)
                    },
                    "entries must be strictly sorted by (row, column, descending ts)"
                );
                last_row == row && last_column == column
            });
        let at = u32::try_from(self.image.len()).expect("a store file's image stays below 4 GiB");
        if !same_cell {
            self.hashes.push(hash_pair(row, column));
            self.firsts.push(at);
        }
        self.index.push(at);
        encode_cell(&mut self.image, row, column, value);
        self.image.put_u64(ts.0);
        self.total_bytes += entry_bytes(row, column, value);
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// [`StoreFileData::total_bytes`] of the entries pushed so far.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// The row of the last entry pushed.
    pub fn last_row(&self) -> Option<&[u8]> {
        self.last_key().map(|(row, ..)| row)
    }

    /// Seals the file: fills in the header, builds the bloom filter over
    /// the distinct `(row, column)` pairs and appends it (it trails the
    /// entries so the deterministic bits survive the DFS round trip; the
    /// row range and the hash index are derivable from the sorted entries
    /// and are not encoded), and freezes the image without copying it.
    ///
    /// # Panics
    ///
    /// If the image would reach 4 GiB.
    pub fn finish(self, region: RegionId, path: impl Into<String>) -> StoreFileData {
        let StoreFileBuilder {
            mut image,
            mut index,
            hashes,
            firsts,
            total_bytes,
        } = self;
        let count = index.len();
        image.set_u32(0, region.0);
        image.set_u32(4, count as u32);
        let bloom = BloomFilter::from_hashes(&hashes);
        let end = image.len() + bloom.encoded_len();
        assert!(
            u32::try_from(end).is_ok(),
            "a store file's image stays below 4 GiB"
        );
        index.push(image.len() as u32);
        bloom.encode(&mut image);
        let mut file = StoreFileData {
            region,
            path: path.into(),
            image: image.finish(),
            index: Rc::new(index),
            slots: build_slots(hashes.iter().map(|h| h.0).zip(firsts)),
            lo: 0,
            hi: count,
            total_bytes,
            key_range: None,
            bloom: Rc::new(bloom),
            backing: None,
        };
        file.key_range = file.key_range_of_window();
        file
    }
}

/// Sequential cursor over a run of a file's entries: parses the image
/// front to back (it never consults the index).
struct Cursor<'a> {
    image: &'a Bytes,
    reader: Reader<'a>,
    left: usize,
}

impl<'a> Iterator for Cursor<'a> {
    type Item = EntryRef<'a>;

    fn next(&mut self) -> Option<EntryRef<'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (row, column) = (self.reader.bytes(), self.reader.bytes());
        let (value, ts) = (self.reader.value(), self.reader.ts());
        Some(EntryRef::in_image(self.image, row, column, ts, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Cursor<'_> {}

impl StoreFileData {
    /// Builds a store file from a (snapshot) memstore.
    pub fn from_memstore(
        region: RegionId,
        path: impl Into<String>,
        ms: &MemStore,
    ) -> StoreFileData {
        let mut builder = StoreFileBuilder::with_capacity(ms.len(), ms.approx_bytes());
        for (row, column, ts, value) in ms.iter() {
            builder.push(row, column, ts, value.as_deref());
        }
        builder.finish(region, path)
    }

    /// Builds the store file a memstore that replayed `records` in order
    /// would flush to: every mutation becomes a version at its record's
    /// timestamp, sorted into file order, and of several writes of one
    /// `(cell, ts)` — a write-set delivered twice, a put and a delete of
    /// one cell in one transaction — the last in log order stands. This
    /// is how a failed server's split WAL reaches its regions' new hosts
    /// (as a file to adopt, not edits to replay).
    pub fn from_wal_records(
        region: RegionId,
        path: impl Into<String>,
        records: &[WalRecord],
    ) -> StoreFileData {
        let mut versions: Vec<(&[u8], &[u8], u64, Option<&[u8]>)> = records
            .iter()
            .flat_map(|rec| {
                rec.mutations.iter().map(|m| {
                    let value = match &m.kind {
                        MutationKind::Put(v) => Some(&v[..]),
                        MutationKind::Delete => None,
                    };
                    (&m.row[..], &m.column[..], !rec.ts.0, value)
                })
            })
            .collect();
        // Stable, so writes of one (cell, ts) stay in log order; of each
        // such run the last write is kept.
        versions.sort_by_key(|&(row, column, inv_ts, _)| (row, column, inv_ts));
        versions.dedup_by(|later, kept| {
            let same = (later.0, later.1, later.2) == (kept.0, kept.1, kept.2);
            if same {
                *kept = *later;
            }
            same
        });
        let total_bytes = versions
            .iter()
            .map(|(r, c, _, v)| entry_bytes(r, c, *v))
            .sum();
        let mut builder = StoreFileBuilder::with_capacity(versions.len(), total_bytes);
        for (row, column, inv_ts, value) in versions {
            builder.push(row, column, Timestamp(!inv_ts), value);
        }
        builder.finish(region, path)
    }

    /// Builds a store file from owned entries already in `(row, column,
    /// descending ts)` order.
    ///
    /// # Panics
    ///
    /// Debug-asserts the required ordering.
    pub fn from_sorted_entries(
        region: RegionId,
        path: impl Into<String>,
        entries: Vec<StoreFileEntry>,
    ) -> StoreFileData {
        let total_bytes = entries
            .iter()
            .map(|(r, c, _, v)| entry_bytes(r, c, v.as_deref()))
            .sum();
        let mut builder = StoreFileBuilder::with_capacity(entries.len(), total_bytes);
        for (row, column, ts, value) in &entries {
            builder.push(row, column, *ts, value.as_deref());
        }
        builder.finish(region, path)
    }

    /// Builds a reference half-file over `parent` for an online region
    /// split: the result aliases the parent's image and indexes clipped to
    /// rows in `[start, end)` and shares the parent's bloom filter. No
    /// entry is copied; finding the clip points is two binary searches,
    /// and one pass over the clipped entries sums their sizes. The
    /// reference's [`StoreFileData::backing_path`] names the parent file,
    /// whose replicas actually hold the bytes; the parent file must
    /// outlive every reference (the daughter's first compaction covering
    /// the reference rewrites it into a physical file).
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
        let mut file = StoreFileData {
            region,
            path: path.into(),
            image: parent.image.clone(),
            index: Rc::clone(&parent.index),
            slots: Rc::clone(&parent.slots),
            lo,
            hi,
            total_bytes: 0,
            key_range: None,
            bloom: Rc::clone(&parent.bloom),
            backing: Some(
                parent
                    .backing
                    .clone()
                    .unwrap_or_else(|| parent.path.clone()),
            ),
        };
        file.total_bytes = file
            .entries()
            .map(|e| entry_bytes(e.row, e.column, e.value()))
            .sum();
        file.key_range = file.key_range_of_window();
        Some(file)
    }

    /// The same file under another name: image, index and filter are
    /// shared, nothing is copied or parsed again.
    pub fn with_path(&self, path: impl Into<String>) -> StoreFileData {
        StoreFileData {
            region: self.region,
            path: path.into(),
            image: self.image.clone(),
            index: Rc::clone(&self.index),
            slots: Rc::clone(&self.slots),
            lo: self.lo,
            hi: self.hi,
            total_bytes: self.total_bytes,
            key_range: self.key_range.clone(),
            bloom: Rc::clone(&self.bloom),
            backing: self.backing.clone(),
        }
    }

    /// Min/max row key of the visible window, copied out of the image
    /// (`None` when empty).
    fn key_range_of_window(&self) -> Option<(Bytes, Bytes)> {
        if self.is_empty() {
            return None;
        }
        let min = self.entry(self.lo).row;
        let max = self.entry(self.hi - 1).row;
        Some((Bytes::copy_from_slice(min), Bytes::copy_from_slice(max)))
    }

    /// Entry `i` of the shared index, parsed.
    fn entry(&self, i: usize) -> EntryRef<'_> {
        self.entry_at(self.index[i])
    }

    /// The entry at image offset `at`, parsed.
    fn entry_at(&self, at: u32) -> EntryRef<'_> {
        self.cursor(at, 1).next().expect("one entry left")
    }

    /// Cursor over `left` entries from image offset `at`.
    fn cursor(&self, at: u32, left: usize) -> Cursor<'_> {
        Cursor {
            image: &self.image,
            reader: Reader {
                image: &self.image,
                at: at as usize,
            },
            left,
        }
    }

    /// Whether the entry at offset `at` of `image` sorts before `(row,
    /// column, inv_ts)` in `(row, column, descending ts)` order, comparing
    /// key bytes in place, each field parsed only if the ones before it
    /// tie.
    fn sorts_before(image: &[u8], at: u32, row: &[u8], column: &[u8], inv_ts: u64) -> bool {
        #[cfg(test)]
        KEY_COMPARES.with(|n| n.set(n.get() + 1));
        let mut entry = Reader {
            image,
            at: at as usize,
        };
        let order = entry
            .bytes()
            .cmp(row)
            .then_with(|| entry.bytes().cmp(column))
            .then_with(|| {
                entry.value();
                (!entry.ts().0).cmp(&inv_ts)
            });
        order == Ordering::Less
    }

    /// The first entry of `[from, to)`, as an index into the shared
    /// array, that does not sort before `(row, column, inv_ts)` — a binary
    /// search over the offset index.
    fn search(&self, from: usize, to: usize, row: &[u8], column: &[u8], inv_ts: u64) -> usize {
        let image: &[u8] = &self.image;
        from + self.index[from..to]
            .partition_point(|&at| Self::sorts_before(image, at, row, column, inv_ts))
    }

    /// [`StoreFileData::search`] over the whole visible window: what
    /// ordered seeks (`range`, `reference`) use. Point reads go through
    /// the hash index instead ([`StoreFileData::find`]).
    fn lower_bound(&self, row: &[u8], column: &[u8], inv_ts: u64) -> usize {
        self.search(self.lo, self.hi, row, column, inv_ts)
    }

    /// [`StoreFileData::search`] over `[from, hi)` for a key expected
    /// close behind `from`: probes at doubling distances until one does
    /// not sort before the key, then binary-searches the last stride —
    /// O(log d) comparisons for an answer d entries away.
    fn gallop(&self, from: usize, row: &[u8], column: &[u8], inv_ts: u64) -> usize {
        let mut lo = from;
        let mut stride = 1;
        let hi = loop {
            let probe = lo + stride - 1;
            if probe >= self.hi {
                break self.hi;
            }
            if !Self::sorts_before(&self.image, self.index[probe], row, column, inv_ts) {
                break probe;
            }
            lo = probe + 1;
            stride *= 2;
        };
        self.search(lo, hi, row, column, inv_ts)
    }

    /// The image offset of the newest version of `(row, column)`, whose
    /// first [`hash_pair`] half is `hash`, if the visible window stores
    /// the cell: a probe of the hash index that reads the key bytes, in
    /// place, only of slots whose tag matches. The table is at most half
    /// full, so the probe ends at an empty slot.
    fn find(&self, row: &[u8], column: &[u8], hash: u64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = home_slot(hash, mask);
        loop {
            let packed = self.slots[slot];
            if packed == EMPTY {
                return None;
            }
            if packed & TAG_BITS == hash & TAG_BITS {
                #[cfg(test)]
                KEY_READS.with(|n| n.set(n.get() + 1));
                let at = packed as u32;
                let mut key = Reader {
                    image: &self.image,
                    at: at as usize,
                };
                if key.bytes() == row && key.bytes() == column {
                    // A reference half-file shares the parent's table: cells
                    // clipped into the sibling are there, and are misses.
                    let visible = !self.is_reference()
                        || (self.index[self.lo]..self.index[self.hi]).contains(&at);
                    return visible.then_some(at);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The newest version of `(row, column)` at or before `snapshot`,
    /// given the first half of the cell's [`hash_pair`].
    fn get_hashed(
        &self,
        row: &[u8],
        column: &[u8],
        hash: u64,
        snapshot: Timestamp,
    ) -> Option<VersionedValue> {
        let at = self.find(row, column, hash)?;
        let mut e = self.entry_at(at);
        if e.ts > snapshot {
            // Older versions follow in descending ts; the run may be
            // thousands long (a hot cell in one flush), so no linear walk:
            // the gallop starts behind the newest version's entry number.
            let newest = self.lo + self.index[self.lo..self.hi].partition_point(|&o| o < at);
            let idx = self.gallop(newest + 1, row, column, !snapshot.0);
            if idx >= self.hi {
                return None;
            }
            e = self.entry(idx);
            if e.row != row || e.column != column {
                return None;
            }
        }
        Some(VersionedValue {
            ts: e.ts,
            value: e.value_bytes(),
        })
    }

    /// Bounds, as indices into the shared index, of the visible rows in
    /// `[start, end)`: two binary searches inside `[lo, hi)`. An `end` at
    /// or before `start` gives an empty range.
    fn row_bounds(&self, start: &[u8], end: Option<&[u8]>) -> (usize, usize) {
        // `(row, "", !MAX)` sorts at or before every version of `row`.
        let from = self.lower_bound(start, b"", 0);
        let to = match end {
            Some(end) => self.lower_bound(end, b"", 0),
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
        self.cursor(self.index[from], to - from)
    }

    /// Iterates all stored versions in `(row, column, descending ts)`
    /// order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = EntryRef<'_>> + '_ {
        self.cursor(self.index[self.lo], self.len())
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
    /// `None` for an empty file. A copy, not a view: the caller makes it
    /// a region boundary.
    pub fn mid_row(&self) -> Option<Bytes> {
        let mid = self.lo + self.len() / 2;
        (mid < self.hi).then(|| Bytes::copy_from_slice(self.entry(mid).row))
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

    /// [`StoreFileData::filter_may_contain`] for a cell hashed already.
    pub fn filter_may_contain_cell(&self, key: &CellKey) -> bool {
        self.bloom.may_contain_hashed(key.hash())
    }

    /// Exact membership check: whether *any* version of `(row, column)`
    /// is stored, regardless of snapshot. Used to classify filter
    /// outcomes (false positives / negatives), not to serve reads.
    pub fn contains_key(&self, row: &[u8], column: &[u8]) -> bool {
        self.find(row, column, cell_hash(row, column)).is_some()
    }

    /// [`StoreFileData::contains_key`] for a cell hashed already.
    pub fn contains_cell(&self, key: &CellKey) -> bool {
        self.find(key.row(), key.column(), key.hash().0).is_some()
    }

    /// Bytes of filter metadata (the bloom bit array) this file carries.
    pub fn filter_bytes(&self) -> usize {
        self.bloom.approx_bytes()
    }

    /// The newest version of `(row, column)` at or before `snapshot`.
    /// The value is a view of the file's image (module docs).
    pub fn get(&self, row: &[u8], column: &[u8], snapshot: Timestamp) -> Option<VersionedValue> {
        self.get_hashed(row, column, cell_hash(row, column), snapshot)
    }

    /// [`StoreFileData::get`] for a cell hashed already.
    pub fn get_cell(&self, key: &CellKey, snapshot: Timestamp) -> Option<VersionedValue> {
        self.get_hashed(key.row(), key.column(), key.hash().0, snapshot)
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
            .map(|e| e.to_cell())
            .collect()
    }

    /// The file's bytes for the DFS write. A physical file hands out its
    /// image (O(1)); a reference half-file, which is never itself
    /// written, re-frames its run of the parent's entries with its own
    /// header and the shared filter.
    pub fn encode(&self) -> Bytes {
        if self.backing.is_none() {
            return self.image.clone();
        }
        let run = &self.image[self.index[self.lo] as usize..self.index[self.hi] as usize];
        let mut enc = Encoder::with_capacity(HEADER_BYTES + run.len() + self.bloom.encoded_len());
        enc.put_u32(self.region.0);
        enc.put_u32(self.len() as u32);
        enc.put_raw(run);
        self.bloom.encode(&mut enc);
        enc.finish()
    }

    /// Parses a file previously produced by [`StoreFileData::encode`]:
    /// one copy of `buf` becomes the image, and one pass over it checks
    /// the framing and the entry order, records the offsets and hashes
    /// each distinct cell for the hash index.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or corrupt input.
    pub fn decode(path: impl Into<String>, buf: &[u8]) -> Result<StoreFileData, DecodeError> {
        if u32::try_from(buf.len()).is_err() {
            return Err(Decoder::new(buf).error("store file over 4 GiB"));
        }
        let image = Bytes::from(buf.to_vec());
        let mut dec = Decoder::new(&image);
        let region = RegionId(dec.get_u32()?);
        let count = dec.get_u32()? as usize;
        // A count read from input is bounded before it sizes anything.
        if count > dec.remaining() / MIN_ENTRY_BYTES {
            return Err(dec.error("entry count"));
        }
        let mut index = Vec::with_capacity(count + 1);
        // Hash and image offset of each distinct cell's newest version,
        // as the builder collects them, for the hash index.
        let mut cells: Vec<(u64, u32)> = Vec::new();
        let mut total_bytes = 0;
        let mut last: Option<(&[u8], &[u8], u64)> = None;
        for _ in 0..count {
            let at = dec.pos() as u32;
            index.push(at);
            let (row, column, value) = decode_cell(&mut dec)?;
            let inv_ts = !dec.get_u64()?;
            if last.is_some_and(|last| last >= (row, column, inv_ts)) {
                return Err(dec.error("entry order"));
            }
            if last.is_none_or(|(r, c, _)| (r, c) != (row, column)) {
                cells.push((cell_hash(row, column), at));
            }
            last = Some((row, column, inv_ts));
            total_bytes += entry_bytes(row, column, value);
        }
        index.push(dec.pos() as u32);
        let bloom = BloomFilter::decode(&mut dec)?;
        if !dec.is_at_end() {
            return Err(dec.error("trailing bytes"));
        }
        let mut file = StoreFileData {
            region,
            path: path.into(),
            image,
            index: Rc::new(index),
            slots: build_slots(cells.into_iter()),
            lo: 0,
            hi: count,
            total_bytes,
            key_range: None,
            bloom: Rc::new(bloom),
            backing: None,
        };
        file.key_range = file.key_range_of_window();
        Ok(file)
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
    files: RefCell<BTreeMap<String, Rc<StoreFileData>>>,
    /// Outstanding reference half-files per backing (parent) file path.
    backing_refs: RefCell<BTreeMap<String, u32>>,
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
        let victims: Vec<(String, String)> = self
            .files
            .borrow()
            .iter()
            .filter(|(p, d)| p.starts_with(prefix) && d.is_reference())
            .map(|(p, d)| (p.clone(), d.backing_path().to_owned()))
            .collect();
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
    fn with_path_renames_and_shares_the_image() {
        let sf = sample();
        let renamed = sf.with_path("/store/r1/1");
        assert_eq!(renamed.path(), "/store/r1/1");
        assert_eq!(renamed.encode(), sf.encode());
        assert_eq!(renamed.encode().as_ptr(), sf.encode().as_ptr());
        assert_eq!(renamed.key_range(), sf.key_range());
        assert_eq!(
            renamed.get(b"a", b"c", Timestamp(20)),
            sf.get(b"a", b"c", Timestamp(20))
        );
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
        let entries: Vec<StoreFileEntry> = via_ms
            .entries()
            .map(|e| e.to_cell())
            .map(|(r, c, vv)| (r, c, vv.ts, vv.value))
            .collect();
        let direct = StoreFileData::from_sorted_entries(RegionId(1), "/store/r1/0", entries);
        assert_eq!(direct.encode(), via_ms.encode());
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
        for e in sf.entries() {
            assert!(
                back.filter_may_contain(e.row, e.column),
                "no false negatives"
            );
        }
        // The trailing filter section is covered by truncation checks too.
        let encoded = sf.encode();
        assert!(StoreFileData::decode("/x", &encoded[..encoded.len() - 2]).is_err());
    }

    /// The view-pinning rule (module docs): what reads hand out points
    /// into the image; what the file or a region keeps does not.
    #[test]
    fn reads_are_views_and_metadata_is_copied() {
        let sf = sample();
        let image = sf.image.as_ptr_range();
        let pinned = |b: &[u8]| image.contains(&b.as_ptr());
        let value = sf.get(b"a", b"c", Timestamp(20)).unwrap().value.unwrap();
        assert!(pinned(&value));
        let (row, column, vv) = sf.scan(b"c", None, Timestamp::MAX).remove(0);
        assert!(pinned(&row) && pinned(&column) && pinned(&vv.value.unwrap()));
        assert_eq!(
            sf.encode().as_ptr(),
            sf.image.as_ptr(),
            "encode is the image"
        );

        assert!(!pinned(&sf.mid_row().unwrap()));
        let (min, max) = sf.key_range().unwrap();
        assert!(!pinned(min) && !pinned(max));
        let parent = Rc::new(sf);
        let half = StoreFileData::reference(&parent, RegionId(2), "/h", b"b", None).unwrap();
        assert_eq!(
            half.image.as_ptr(),
            parent.image.as_ptr(),
            "a reference copies nothing"
        );
        let (min, max) = half.key_range().unwrap();
        assert!(!pinned(min) && !pinned(max) && !pinned(&half.mid_row().unwrap()));
    }

    #[test]
    fn builder_tracks_what_the_partitioned_merge_cuts_on() {
        let mut builder = StoreFileBuilder::with_capacity(0, 0);
        assert!(builder.is_empty());
        assert_eq!(builder.last_row(), None);
        builder.push(b"a", b"c", Timestamp(2), Some(b"new"));
        builder.push(b"a", b"c", Timestamp(1), None);
        builder.push(b"b", b"", Timestamp(1), Some(b""));
        assert_eq!(builder.last_row(), Some(&b"b"[..]));
        assert_eq!(
            builder.total_bytes(),
            (1 + 1 + 3 + 24) + (1 + 1 + 24) + (1 + 24)
        );
        let sf = builder.finish(RegionId(7), "/b");
        assert_eq!(sf.len(), 3);
        assert_eq!(sf.total_bytes(), 80);
        assert_eq!(sf.key_range(), Some((b"a".as_ref(), b"b".as_ref())));
        assert!(sf.filter_may_contain(b"a", b"c") && sf.filter_may_contain(b"b", b""));
        assert_eq!(
            sf.get(b"b", b"", Timestamp(1)).unwrap().value,
            Some(Bytes::new())
        );
        // Sized from exact totals, the image never regrows (see
        // `StoreFileBuilder::with_capacity`).
        assert!(sf.encode().len() <= HEADER_BYTES + sf.total_bytes() + 12);
    }

    /// Entries compared by [`StoreFileData::sorts_before`] while `f` ran.
    fn key_compares(f: impl FnOnce()) -> u64 {
        let before = KEY_COMPARES.with(|n| n.get());
        f();
        KEY_COMPARES.with(|n| n.get()) - before
    }

    /// Keys [`StoreFileData::find`] read out of the image while `f` ran.
    fn key_reads(f: impl FnOnce()) -> u64 {
        let before = KEY_READS.with(|n| n.get());
        f();
        KEY_READS.with(|n| n.get()) - before
    }

    /// A hot cell between two neighbours: 10 000 versions at the even
    /// timestamps 2..=20 000 in one file.
    #[test]
    fn deep_version_chain_is_searched_logarithmically() {
        const VERSIONS: u64 = 10_000;
        let mut builder = StoreFileBuilder::with_capacity(0, 0);
        builder.push(b"a", b"c", Timestamp(1), Some(b"before"));
        for ts in (1..=VERSIONS).rev() {
            builder.push(b"hot", b"c", Timestamp(2 * ts), Some(&ts.to_be_bytes()));
        }
        builder.push(b"z", b"c", Timestamp(1), Some(b"after"));
        let sf = builder.finish(RegionId(0), "/deep");
        let version = |snapshot: u64| {
            let mut found = None;
            let compares = key_compares(|| found = sf.get(b"hot", b"c", Timestamp(snapshot)));
            (found.map(|vv| vv.ts.0), compares)
        };
        // The newest version costs no search at all.
        assert_eq!(version(u64::MAX), (Some(2 * VERSIONS), 0));
        assert_eq!(version(2 * VERSIONS), (Some(2 * VERSIONS), 0));
        // A gallop and a binary search over at most 2¹⁴ entries: under 30
        // comparisons where a walk would take thousands.
        for (snapshot, want) in [
            (2 * VERSIONS - 1, Some(2 * VERSIONS - 2)),
            (VERSIONS + 1, Some(VERSIONS)),
            (3, Some(2)),
            (2, Some(2)),
            (1, None),
            (0, None),
        ] {
            let (got, compares) = version(snapshot);
            assert_eq!(got, want, "snapshot {snapshot}");
            assert!(compares <= 30, "snapshot {snapshot}: {compares} compares");
        }
        // Near the newest version the search is short, not log(run).
        assert!(version(2 * VERSIONS - 1).1 <= 3);
        // The chain's neighbours and absent keys around it resolve exactly.
        assert_eq!(sf.get(b"a", b"c", Timestamp(0)), None);
        assert_eq!(sf.get(b"z", b"c", Timestamp(5)).unwrap().ts, Timestamp(1));
        assert!(!sf.contains_key(b"hot", b"b") && !sf.contains_key(b"hos", b"c"));
        assert_eq!(key_compares(|| assert!(sf.contains_key(b"hot", b"c"))), 0);
    }

    /// Eight cells that all hash to one home slot of their table still
    /// resolve exactly, present and absent, before and after a decode,
    /// and the probe reads the key of no slot whose tag differs.
    #[test]
    fn colliding_cells_probe_past_each_other() {
        const CELLS: usize = 8;
        let mask = (2 * CELLS).next_power_of_two() - 1;
        let home = |row: &str| home_slot(hash_pair(row.as_bytes(), b"c").0, mask);
        let mut crowd: Vec<String> = (0..)
            .map(|i| format!("row{i:05}"))
            .filter(|row| home(row) == 5)
            .take(CELLS + 1)
            .collect();
        let absent = crowd.pop().unwrap();
        crowd.sort();
        let mut builder = StoreFileBuilder::with_capacity(0, 0);
        for row in &crowd {
            builder.push(row.as_bytes(), b"c", Timestamp(9), Some(row.as_bytes()));
            builder.push(row.as_bytes(), b"c", Timestamp(4), None);
        }
        let built = builder.finish(RegionId(0), "/crowd");
        assert_eq!(built.slots.len(), mask + 1);
        // One run of occupied slots from the shared home, in file order:
        // each holds its cell's tag and its newest version's offset.
        let tag = |row: &str| hash_pair(row.as_bytes(), b"c").0 & TAG_BITS;
        for (i, row) in crowd.iter().enumerate() {
            let packed = built.slots[(5 + i) & mask];
            assert_eq!(packed & TAG_BITS, tag(row), "slot {i}");
            assert_eq!(packed as u32, built.index[2 * i], "slot {i}");
        }
        // 32-bit tags: the nine cells' are distinct (else the counts
        // below would read one key more).
        let mut tags: Vec<u64> = crowd.iter().chain([&absent]).map(|r| tag(r)).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), CELLS + 1);
        let decoded = StoreFileData::decode("/crowd", &built.encode()).unwrap();
        for sf in [&built, &decoded] {
            for row in &crowd {
                let newest = sf.get(row.as_bytes(), b"c", Timestamp(9)).unwrap();
                assert_eq!(newest.value.as_deref(), Some(row.as_bytes()));
                let older = sf.get(row.as_bytes(), b"c", Timestamp(8)).unwrap();
                assert_eq!((older.ts, older.value), (Timestamp(4), None));
                assert_eq!(sf.get(row.as_bytes(), b"c", Timestamp(3)), None);
                let reads = key_reads(|| assert!(sf.contains_key(row.as_bytes(), b"c")));
                assert_eq!(reads, 1, "{row}: only its own slot's key is read");
            }
            let reads = key_reads(|| assert!(!sf.contains_key(absent.as_bytes(), b"c")));
            assert_eq!(reads, 0, "the absent cell passes eight slots unread");
            assert_eq!(sf.get(absent.as_bytes(), b"c", Timestamp::MAX), None);
        }
    }

    /// Two cells forged to share one home slot and one tag: the tag lets
    /// both through, and the key bytes tell them apart.
    #[test]
    fn a_tag_collision_resolves_by_key_bytes() {
        let mut builder = StoreFileBuilder::with_capacity(0, 0);
        builder.push(b"a", b"c", Timestamp(7), Some(b"a7"));
        builder.push(b"a", b"c", Timestamp(3), Some(b"a3"));
        builder.push(b"b", b"c", Timestamp(5), Some(b"b5"));
        let mut sf = builder.finish(RegionId(0), "/forged");
        let forged = 0xDEAD_BEEF_0000_0003;
        sf.slots = build_slots([(forged, sf.index[0]), (forged, sf.index[2])].into_iter());
        assert_eq!(sf.slots.len(), 4);
        let read = |row: &[u8], snapshot| {
            let mut found = None;
            let reads = key_reads(|| found = sf.get_hashed(row, b"c", forged, Timestamp(snapshot)));
            (found.and_then(|vv| vv.value), reads)
        };
        assert_eq!(read(b"a", 9), (Some(b("a7")), 1));
        assert_eq!(read(b"a", 4), (Some(b("a3")), 1));
        assert_eq!(read(b"b", 9), (Some(b("b5")), 2));
        assert_eq!(read(b"b", 4), (None, 2));
        // An absent cell with the same hash reads both keys, then misses.
        assert_eq!(read(b"z", 9), (None, 2));
        assert_eq!(sf.find(b"a", b"c", forged), Some(sf.index[0]));
        assert_eq!(sf.find(b"b", b"c", forged), Some(sf.index[2]));
    }

    /// The hash index is a function of the file's bytes: `decode` arrives
    /// at the builder's table, which is sized as documented and shared,
    /// not copied, by reference half-files.
    #[test]
    fn hash_index_is_rebuilt_by_decode_and_shared_by_references() {
        let mut ms = MemStore::new();
        for i in 0..300u32 {
            let row = b(&format!("row{:04}", i % 100));
            ms.apply(row, b("c"), Timestamp(u64::from(i) + 1), Some(b("v")));
        }
        ms.apply(b("row0007"), b(""), Timestamp(1), None);
        let sf = Rc::new(StoreFileData::from_memstore(RegionId(1), "/p", &ms));
        assert_eq!(sf.len(), 301);
        assert_eq!(sf.slots.len(), 256, "101 cells: the power of two ≥ 202");
        let occupied = sf.slots.iter().filter(|&&e| e != EMPTY).count();
        assert_eq!(occupied, 101);
        let decoded = StoreFileData::decode("/p", &sf.encode()).unwrap();
        assert_eq!(decoded.slots, sf.slots);

        let half = StoreFileData::reference(&sf, RegionId(2), "/h", b"row0050", None).unwrap();
        assert!(Rc::ptr_eq(&half.slots, &sf.slots));
        // The shared table still holds the sibling's cells; the window
        // makes them misses.
        assert!(sf.contains_key(b"row0049", b"c") && !half.contains_key(b"row0049", b"c"));
        assert_eq!(half.get(b"row0007", b"", Timestamp::MAX), None);
        assert!(half.contains_key(b"row0050", b"c"));
        // A reference's own wire form decodes to a table of its own size.
        let rewritten = StoreFileData::decode("/h", &half.encode()).unwrap();
        assert_eq!(rewritten.slots.len(), 128);
        assert_eq!(
            rewritten.get(b"row0099", b"c", Timestamp(250)),
            half.get(b"row0099", b"c", Timestamp(250))
        );
    }

    /// A read below a cell's newest version recovers the entry number
    /// from the offset the slot holds; on a half-file whose window
    /// starts mid-parent that number is still the parent's, and every
    /// answer is the parent's.
    #[test]
    fn reads_below_the_newest_version_of_a_half_file_match_the_parent() {
        let mut ms = MemStore::new();
        for i in 0..300u32 {
            let row = b(&format!("row{:04}", i % 100));
            ms.apply(
                row,
                b("c"),
                Timestamp(u64::from(i) + 1),
                Some(b(&i.to_string())),
            );
        }
        let parent = Rc::new(StoreFileData::from_memstore(RegionId(1), "/p", &ms));
        let half = StoreFileData::reference(&parent, RegionId(2), "/h", b"row0050", None).unwrap();
        assert_eq!(half.lo, 150, "the window starts mid-parent");
        let low = StoreFileData::reference(&parent, RegionId(3), "/l", b"", Some(b"row0050"));
        let low = low.unwrap();
        for i in 0..100 {
            let row = format!("row{i:04}");
            let (mine, other) = if i < 50 { (&low, &half) } else { (&half, &low) };
            for snapshot in [0, 1, 50, 150, 199, 250, 299, 300, u64::MAX] {
                let want = parent.get(row.as_bytes(), b"c", Timestamp(snapshot));
                assert_eq!(mine.get(row.as_bytes(), b"c", Timestamp(snapshot)), want);
                assert_eq!(other.get(row.as_bytes(), b"c", Timestamp(snapshot)), None);
            }
        }
        // Each row's versions are ts i+1, i+101 and i+201: a snapshot
        // between the last two takes the middle one.
        let vv = half.get(b"row0099", b"c", Timestamp(250)).unwrap();
        assert_eq!((vv.ts, vv.value), (Timestamp(200), Some(b("199"))));
    }

    #[test]
    fn empty_file() {
        let ms = MemStore::new();
        let sf = StoreFileData::from_memstore(RegionId(0), "/f", &ms);
        assert!(sf.is_empty());
        assert_eq!(sf.get(b"a", b"c", Timestamp::MAX), None);
        assert!(!sf.contains_key(b"", b"") && sf.slots.is_empty());
        let back = StoreFileData::decode("/f", &sf.encode()).unwrap();
        assert!(back.is_empty() && back.slots.is_empty());
    }
}
