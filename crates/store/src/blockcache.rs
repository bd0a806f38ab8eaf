//! LRU block cache.
//!
//! A region server serves reads from its block cache when possible and
//! pays a filesystem block fetch otherwise. After a failover the server
//! that inherits a region has none of its blocks cached — which is exactly
//! the ~30-second warm-up the paper observes after recovery (Fig. 3):
//! "the longer delay in returning to pre-failure performance levels is due
//! to the region server cache taking a while to warm up".
//!
//! Keys are `(region, row)` pairs: we model cache residency at row
//! granularity, which is what decides hit-or-miss service time.
//!
//! The hot read path hits [`BlockCache::access`] once per get, so the
//! index is two levels into the intrusive LRU list: a `BTreeMap` over
//! the few regions a server hosts, and per region a hash index of rows
//! under the unsalted [`FixedState`]. Hit-path lookups are O(1) *and*
//! allocation-free (the row index is queried by `&[u8]`, no owned key is
//! built for a probe), and evicting a region on a move or compaction
//! walks only that region's entries instead of the whole cache.

use crate::types::RegionId;
use bytes::Bytes;
use cumulo_sim::FixedState;
use std::collections::BTreeMap;
use std::fmt;

type Key = (RegionId, Bytes);

const NIL: usize = usize::MAX;

struct Entry {
    key: Key,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU set of cached blocks.
///
/// # Example
///
/// ```
/// use bytes::Bytes;
/// use cumulo_store::{BlockCache, RegionId};
///
/// let mut cache = BlockCache::new(2);
/// let r = RegionId(0);
/// cache.insert(r, Bytes::from_static(b"a"));
/// cache.insert(r, Bytes::from_static(b"b"));
/// cache.insert(r, Bytes::from_static(b"c")); // evicts "a"
/// assert!(!cache.contains(r, b"a"));
/// assert!(cache.contains(r, b"b"));
/// assert!(cache.contains(r, b"c"));
/// ```
pub struct BlockCache {
    capacity: usize,
    /// Per-region index into `entries`; the row index is queried by
    /// borrowed `&[u8]` rows so the hit path never allocates.
    #[expect(
        clippy::disallowed_types,
        reason = "the row index is hit on every get; unsalted (FixedState), so its layout is the same in every process, and only membership and lookup reach an output: evict_region sorts the one iteration it does"
    )]
    map: BTreeMap<RegionId, std::collections::HashMap<Bytes, usize, FixedState>>,
    len: usize,
    entries: Vec<Entry>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockCache")
            .field("len", &self.len)
            .field("capacity", &self.capacity)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("evictions", &self.evictions)
            .finish()
    }
}

impl BlockCache {
    /// Creates a cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> BlockCache {
        assert!(capacity > 0, "cache capacity must be non-zero");
        BlockCache {
            capacity,
            map: Default::default(),
            len: 0,
            entries: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Checks residency *and records the access*: a hit refreshes the
    /// entry's recency, a miss bumps the miss counter. This is the method
    /// the read path uses — one O(1) borrowed lookup, no allocation.
    pub fn access(&mut self, region: RegionId, row: &[u8]) -> bool {
        let hit = self
            .map
            .get(&region)
            .and_then(|rows| rows.get(row))
            .copied();
        if let Some(idx) = hit {
            self.hits += 1;
            self.detach(idx);
            self.attach_front(idx);
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Pure residency check, with no recency or statistics side effects.
    pub fn contains(&self, region: RegionId, row: &[u8]) -> bool {
        self.map
            .get(&region)
            .map(|rows| rows.contains_key(row))
            .unwrap_or(false)
    }

    /// Removes `key` from the index, dropping its region's inner map when
    /// it empties (a region that moved away should not pin an entry).
    fn unindex(&mut self, key: &Key) -> Option<usize> {
        let rows = self.map.get_mut(&key.0)?;
        let idx = rows.remove(&key.1);
        if idx.is_some() {
            self.len -= 1;
            if rows.is_empty() {
                self.map.remove(&key.0);
            }
        }
        idx
    }

    /// Inserts a block (after a miss fetched it), evicting the least
    /// recently used block if full. A row already cached is refreshed.
    pub fn insert(&mut self, region: RegionId, row: Bytes) {
        let (entries, free) = (&mut self.entries, &mut self.free);
        let mut fresh = false;
        let idx = *self
            .map
            .entry(region)
            .or_default()
            .entry(row)
            .or_insert_with_key(|row| {
                fresh = true;
                let entry = Entry {
                    key: (region, row.clone()),
                    prev: NIL,
                    next: NIL,
                };
                match free.pop() {
                    Some(i) => {
                        entries[i] = entry;
                        i
                    }
                    None => {
                        entries.push(entry);
                        entries.len() - 1
                    }
                }
            });
        if fresh {
            self.len += 1;
        } else {
            self.detach(idx);
        }
        self.attach_front(idx);
        if self.len > self.capacity {
            let victim = self.tail;
            self.detach(victim);
            let vkey = self.entries[victim].key.clone();
            self.unindex(&vkey);
            self.free.push(victim);
            self.evictions += 1;
        }
    }

    /// Inserts `rows` of `region` in order, leaving the cache as that run
    /// of [`BlockCache::insert`]s would (the paper's pre-measurement
    /// warm-up). The region's index and the slots are sized up front for
    /// the rows that can stay, so the run hashes each row once instead of
    /// again on every doubling of the table.
    pub fn warm(&mut self, region: RegionId, rows: impl ExactSizeIterator<Item = Bytes>) {
        let n = rows.len();
        if n > 0 {
            self.map
                .entry(region)
                .or_default()
                .reserve(n.min(self.capacity));
            // An insert links before it evicts, so a cache that evicts
            // uses one slot more than its capacity.
            let slots = (self.len + n).min(self.capacity + 1);
            self.entries
                .reserve(slots.saturating_sub(self.entries.len()));
        }
        for row in rows {
            self.insert(region, row);
        }
    }

    /// Drops every cached block of `region` (used when a region moves away
    /// from this server or a compaction rewrites its blocks). O(blocks of
    /// `region`), not O(cache).
    pub fn evict_region(&mut self, region: RegionId) {
        let Some(rows) = self.map.remove(&region) else {
            return;
        };
        self.len -= rows.len();
        // Slot indices are internal, but free-list order decides which
        // slot a future insert reuses — keep it independent of HashMap
        // iteration order so identical runs stay byte-identical in every
        // observable detail (the repo's determinism invariant).
        let mut doomed: Vec<usize> = rows.into_values().collect();
        doomed.sort_unstable();
        for idx in doomed {
            self.detach(idx);
            self.free.push(idx);
        }
    }

    /// Blocks currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total recorded hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total recorded misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hit fraction over all accesses (0 if never accessed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::hash::BuildHasher;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn basic_insert_access() {
        let mut c = BlockCache::new(10);
        let r = RegionId(0);
        assert!(!c.access(r, b"x"));
        c.insert(r, b("x"));
        assert!(c.access(r, b"x"));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = BlockCache::new(3);
        let r = RegionId(0);
        c.insert(r, b("a"));
        c.insert(r, b("b"));
        c.insert(r, b("c"));
        // Touch "a" so "b" becomes LRU.
        assert!(c.access(r, b"a"));
        c.insert(r, b("d"));
        assert!(c.contains(r, b"a"));
        assert!(!c.contains(r, b"b"));
        assert!(c.contains(r, b"c"));
        assert!(c.contains(r, b"d"));
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let mut c = BlockCache::new(2);
        let r = RegionId(0);
        c.insert(r, b("a"));
        c.insert(r, b("b"));
        c.insert(r, b("a")); // refresh
        c.insert(r, b("c")); // evicts b (LRU), not a
        assert!(c.contains(r, b"a"));
        assert!(!c.contains(r, b"b"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn regions_are_distinct() {
        let mut c = BlockCache::new(10);
        c.insert(RegionId(0), b("x"));
        assert!(c.contains(RegionId(0), b"x"));
        assert!(!c.contains(RegionId(1), b"x"));
    }

    #[test]
    fn evict_region_clears_only_that_region() {
        let mut c = BlockCache::new(10);
        c.insert(RegionId(0), b("x"));
        c.insert(RegionId(0), b("y"));
        c.insert(RegionId(1), b("x"));
        c.evict_region(RegionId(0));
        assert_eq!(c.len(), 1);
        assert!(c.contains(RegionId(1), b"x"));
        // Slots are recycled.
        c.insert(RegionId(2), b("z"));
        c.insert(RegionId(2), b("w"));
        assert_eq!(c.len(), 3);
    }

    /// Whether each of `regions` × `rows` is cached, as `(region, row)`.
    fn resident(c: &BlockCache, regions: u32, rows: u32) -> Vec<(u32, u32)> {
        (0..regions)
            .flat_map(|r| (0..rows).map(move |k| (r, k)))
            .filter(|&(r, k)| c.contains(RegionId(r), format!("k{k}").as_bytes()))
            .collect()
    }

    proptest! {
        /// `warm` leaves the cache as a run of `insert`s would: the same
        /// rows, counters, and LRU order, which a probe sequence and then
        /// a stream of fresh rows (each evicting the current tail) reveal.
        #[test]
        fn warming_equals_inserting_in_order(
            existing in prop::collection::vec((0u32..3, 0u32..40), 0..30),
            rows in prop::collection::vec(0u32..40, 0..50),
            probes in prop::collection::vec((0u32..3, 0u32..40), 0..20),
        ) {
            let n = rows.len();
            for capacity in [1, n / 2, n.saturating_sub(1), n, n + 1, n + 35] {
                let capacity = capacity.max(1);
                for existing in [&existing[..], &[]] {
                    let mut caches = [BlockCache::new(capacity), BlockCache::new(capacity)];
                    for c in &mut caches {
                        for &(r, k) in existing {
                            c.insert(RegionId(r), b(&format!("k{k}")));
                        }
                    }
                    let [warmed, inserted] = &mut caches;
                    warmed.warm(RegionId(0), rows.iter().map(|k| b(&format!("k{k}"))));
                    for k in &rows {
                        inserted.insert(RegionId(0), b(&format!("k{k}")));
                    }
                    for &(r, k) in &probes {
                        let row = format!("k{k}");
                        prop_assert_eq!(
                            warmed.access(RegionId(r), row.as_bytes()),
                            inserted.access(RegionId(r), row.as_bytes())
                        );
                    }
                    for i in 0..=capacity {
                        prop_assert_eq!(warmed.len(), inserted.len());
                        prop_assert_eq!(warmed.hits(), inserted.hits());
                        prop_assert_eq!(warmed.misses(), inserted.misses());
                        prop_assert_eq!(warmed.evictions(), inserted.evictions());
                        prop_assert_eq!(resident(warmed, 3, 40), resident(inserted, 3, 40));
                        warmed.insert(RegionId(7), b(&format!("fresh{i}")));
                        inserted.insert(RegionId(7), b(&format!("fresh{i}")));
                    }
                }
            }
        }
    }

    #[test]
    fn warming_nothing_indexes_no_region() {
        let mut c = BlockCache::new(4);
        c.warm(RegionId(2), std::iter::empty());
        assert!(c.map.is_empty());
    }

    #[test]
    fn sequential_rows_spread_over_the_index() {
        // The loader's keys differ only in their last digits. The index
        // takes its bucket from a hash's low bits and its probe tags from
        // the top 7, so both must spread.
        let hashes: Vec<u64> = (0..65_536u64)
            .map(|i| FixedState.hash_one(format!("user{i:012}").as_bytes()))
            .collect();
        let low: BTreeSet<u64> = hashes.iter().map(|h| h & 0xffff).collect();
        let top: BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        // About 41,400 expected of a random function.
        assert!(low.len() > 40_000, "{} distinct low 16 bits", low.len());
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn single_slot_cache() {
        let mut c = BlockCache::new(1);
        let r = RegionId(0);
        c.insert(r, b("a"));
        c.insert(r, b("b"));
        assert!(!c.contains(r, b"a"));
        assert!(c.contains(r, b"b"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = BlockCache::new(0);
    }

    #[test]
    fn heavy_churn_consistency() {
        // Cross-check against a naive model on a few thousand operations.
        let mut c = BlockCache::new(50);
        let mut model: Vec<Bytes> = Vec::new(); // front = MRU
        let r = RegionId(0);
        let mut x: u64 = 12345;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = b(&format!("k{}", x % 120));
            if x.is_multiple_of(3) {
                let hit = c.access(r, &key);
                let model_hit = model.contains(&key);
                assert_eq!(hit, model_hit);
                if model_hit {
                    model.retain(|k| k != &key);
                    model.insert(0, key);
                }
            } else {
                c.insert(r, key.clone());
                model.retain(|k| k != &key);
                model.insert(0, key);
                if model.len() > 50 {
                    model.pop();
                }
            }
            assert_eq!(c.len(), model.len());
        }
    }
}
