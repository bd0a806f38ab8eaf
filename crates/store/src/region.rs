//! Region descriptors and the key-range → region map.
//!
//! A table is partitioned into regions, each a contiguous, sorted key
//! range; every region is hosted by exactly one region server at a time
//! (§2.1 of the paper). The paper itself treats the boundaries as fixed
//! (online splits are out of its scope), but this implementation goes
//! further: the map is epoch-versioned and *mutable* — an online
//! [`StructureChange`] ([`RegionMap::apply_change`]) atomically replaces a
//! hot parent region with two daughters (a split) or two shrunken
//! neighbours with their union (a merge), and clients that route with a
//! stale map get a `WrongRegion` error telling them to refresh and
//! re-group (see ARCHITECTURE.md, "Structure changes").
//! [`RegionMap::from_split_points`] remains the bootstrap path. Region ids
//! are never reused, so a cached id always means the same key range.
//!
//! [`StructureChange`] is the one description of such a change — the
//! server's unit of work, the master's in-flight record and the durable
//! intent's wire form; [`ChangeKind`], derived from its shape, carries
//! the few strings in which a split and a merge differ.

use crate::codec::{DecodeError, Decoder, Encoder};
use crate::types::{RegionId, ServerId};
use bytes::Bytes;
use std::collections::HashMap;
use std::fmt;

/// Which structure change a [`StructureChange`] is. Derived from the
/// shape, never stored: one input is a split, two are a merge. The kind
/// supplies what differs between the two on the wire and in the journals
/// (ARCHITECTURE.md, "Structure changes", has the table).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ChangeKind {
    /// One region replaced by two daughters cut at a key inside it.
    Split,
    /// Two adjacent regions replaced by one spanning their union.
    Merge,
}

impl ChangeKind {
    /// The kind of the change that replaces `inputs`.
    pub fn of(inputs: &[RegionId]) -> ChangeKind {
        if inputs.len() == 1 {
            ChangeKind::Split
        } else {
            ChangeKind::Merge
        }
    }

    /// `"split"` or `"merge"`: the metric-name segment and the intent
    /// record's directory.
    pub fn name(self) -> &'static str {
        self.pick("split", "merge")
    }

    /// The first argument for a split, the second for a merge. Journal
    /// kinds are `&'static str`, so each record site names both.
    pub fn pick<T>(self, split: T, merge: T) -> T {
        match self {
            ChangeKind::Split => split,
            ChangeKind::Merge => merge,
        }
    }

    /// The journal-detail rendering of a change's inputs: `region=4`
    /// for a split, `left=4 right=5` for a merge.
    pub fn inputs_label(self, inputs: &[RegionId]) -> String {
        labelled(self.pick(&["region"][..], &["left", "right"][..]), inputs)
    }
}

fn labelled(names: &[&str], ids: &[RegionId]) -> String {
    let parts: Vec<String> = names
        .iter()
        .zip(ids)
        .map(|(name, id)| format!("{name}={id}"))
        .collect();
    parts.join(" ")
}

/// One online change to the table's structure: the adjacent regions
/// `inputs` (in key order) are atomically replaced by `outputs`, which
/// partition exactly the same key range (also in key order). A split is
/// 1→2, a merge 2→1. This is both the master's in-flight record and the
/// durable intent it persists (at `/split/{parent}` or `/merge/{left}`)
/// *before* the hosting server is told to execute. Failover of a server
/// with an intent outstanding rolls the change back when the map never
/// flipped — always safe, because clients cannot address output ids the
/// map has never shown them; after the flip the outputs recover like
/// any other region. Inputs and outputs are never served simultaneously.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StructureChange {
    /// The regions being replaced, adjacent and in key order.
    pub inputs: Vec<RegionId>,
    /// The regions replacing them, with never-before-used ids.
    pub outputs: Vec<RegionDescriptor>,
    /// The server executing the change (it hosts every input).
    pub server: ServerId,
}

impl StructureChange {
    /// The change that replaces `inputs` (adjacent, in key order) with
    /// `ids.len()` regions whose interior boundaries are `cuts`: output
    /// `i` spans from the `i`-th boundary to the next, the outermost
    /// boundaries being the inputs' own.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or `ids.len() != cuts.len() + 1`.
    pub fn new(
        inputs: &[&RegionDescriptor],
        cuts: &[Bytes],
        ids: &[RegionId],
        server: ServerId,
    ) -> StructureChange {
        assert_eq!(ids.len(), cuts.len() + 1, "one output per key range");
        let last = inputs
            .last()
            .expect("a change replaces at least one region");
        let starts = std::iter::once(&inputs[0].start).chain(cuts);
        let ends = cuts.iter().cloned().map(Some).chain([last.end.clone()]);
        StructureChange {
            inputs: inputs.iter().map(|d| d.id).collect(),
            outputs: ids
                .iter()
                .zip(starts.zip(ends))
                .map(|(id, (start, end))| RegionDescriptor {
                    id: *id,
                    start: start.clone(),
                    end,
                })
                .collect(),
            server,
        }
    }

    /// Split or merge, by shape.
    pub fn kind(&self) -> ChangeKind {
        ChangeKind::of(&self.inputs)
    }

    /// The journal-detail rendering of the outputs: `bottom=6 top=7`
    /// for a split, `merged=6` for a merge.
    pub fn outputs_label(&self) -> String {
        let ids: Vec<RegionId> = self.outputs.iter().map(|o| o.id).collect();
        let names = self.kind().pick(&["bottom", "top"][..], &["merged"][..]);
        labelled(names, &ids)
    }

    /// The inputs ([`ChangeKind::inputs_label`]), then the outputs.
    pub fn label(&self) -> String {
        let inputs = self.kind().inputs_label(&self.inputs);
        format!("{inputs} {}", self.outputs_label())
    }

    /// The boundaries between consecutive outputs (a split's one key;
    /// none for a merge).
    pub fn cuts(&self) -> impl Iterator<Item = &Bytes> {
        self.outputs.iter().skip(1).map(|o| &o.start)
    }

    /// Where the intent record lives in the filesystem.
    pub fn intent_path(&self) -> String {
        format!("/{}/{}", self.kind().name(), self.inputs[0])
    }

    /// Serializes the intent for its filesystem record: input ids, the
    /// cuts, output ids, the server. The inputs' outer boundaries are
    /// not recorded — the region map the intent is against has them.
    pub fn encode(&self) -> Bytes {
        let mut enc = Encoder::new();
        for id in &self.inputs {
            enc.put_u32(id.0);
        }
        for cut in self.cuts() {
            enc.put_bytes(cut);
        }
        for out in &self.outputs {
            enc.put_u32(out.id.0);
        }
        enc.put_u32(self.server.0);
        enc.finish()
    }

    /// Parses an intent record previously produced by
    /// [`StructureChange::encode`]. The record's directory gives the
    /// `kind`; `map` — which must still hold the inputs, as it does for
    /// any intent that has not flipped — supplies their outer boundaries.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or corrupt input, or when
    /// an input is not in `map`.
    pub fn decode(
        kind: ChangeKind,
        buf: &[u8],
        map: &RegionMap,
    ) -> Result<StructureChange, DecodeError> {
        let (n_in, n_out) = kind.pick((1, 2), (2, 1));
        let mut dec = Decoder::new(buf);
        let mut inputs = Vec::with_capacity(n_in);
        for _ in 0..n_in {
            let id = RegionId(dec.get_u32()?);
            inputs.push(
                map.descriptor(id)
                    .ok_or_else(|| dec.error("unknown input region"))?,
            );
        }
        let mut cuts = Vec::with_capacity(n_out - 1);
        for _ in 1..n_out {
            cuts.push(dec.get_bytes()?);
        }
        let mut ids = Vec::with_capacity(n_out);
        for _ in 0..n_out {
            ids.push(RegionId(dec.get_u32()?));
        }
        let server = ServerId(dec.get_u32()?);
        Ok(StructureChange::new(&inputs, &cuts, &ids, server))
    }
}

/// A region's identity and key range `[start, end)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegionDescriptor {
    /// The region id.
    pub id: RegionId,
    /// Inclusive start key (empty = from the beginning of the table).
    pub start: Bytes,
    /// Exclusive end key (`None` = to the end of the table).
    pub end: Option<Bytes>,
}

impl RegionDescriptor {
    /// Whether `row` falls inside this region.
    pub fn contains(&self, row: &[u8]) -> bool {
        row >= &self.start[..]
            && match &self.end {
                Some(end) => row < &end[..],
                None => true,
            }
    }

    /// Whether `key` could split this region: inside it and above its
    /// start, so both sides of the cut are non-empty key ranges.
    pub fn splits_at(&self, key: &[u8]) -> bool {
        key > &self.start[..] && self.contains(key)
    }
}

/// The set of region boundaries plus the current region → server
/// assignment. Clients cache a copy and refresh it from the master when a
/// request hits a moved or offline region.
#[derive(Clone, Debug, Default)]
pub struct RegionMap {
    regions: Vec<RegionDescriptor>,
    assignments: HashMap<RegionId, ServerId>,
    /// Per-server assigned-region counts, maintained incrementally so the
    /// master's load-aware placement reads a server's load in O(1) instead
    /// of scanning every assignment (O(regions) per server per placement —
    /// the scaling cliff the million-key soak exposed).
    assigned_counts: HashMap<ServerId, usize>,
    /// Backup servers per region (the primary is in `assignments`). Only
    /// populated when region replication is enabled; replica changes bump
    /// the epoch like assignment changes, because the epoch doubles as the
    /// fencing token of the primary→backup ship stream.
    replicas: HashMap<RegionId, Vec<ServerId>>,
    /// Bumped on every assignment change so caches can detect staleness.
    epoch: u64,
}

impl fmt::Display for RegionMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RegionMap(epoch {} regions {})",
            self.epoch,
            self.regions.len()
        )?;
        Ok(())
    }
}

impl RegionMap {
    /// Builds a map from explicit split points: `splits = [k1, k2]` yields
    /// regions `[-inf,k1) [k1,k2) [k2,+inf)`.
    ///
    /// # Panics
    ///
    /// Panics if the split points are not strictly increasing.
    pub fn from_split_points(splits: &[Bytes]) -> RegionMap {
        for w in splits.windows(2) {
            assert!(w[0] < w[1], "split points must be strictly increasing");
        }
        let mut regions = Vec::with_capacity(splits.len() + 1);
        let mut start = Bytes::new();
        for (i, split) in splits.iter().enumerate() {
            regions.push(RegionDescriptor {
                id: RegionId(i as u32),
                start: start.clone(),
                end: Some(split.clone()),
            });
            start = split.clone();
        }
        regions.push(RegionDescriptor {
            id: RegionId(splits.len() as u32),
            start,
            end: None,
        });
        RegionMap {
            regions,
            assignments: HashMap::new(),
            assigned_counts: HashMap::new(),
            replicas: HashMap::new(),
            epoch: 0,
        }
    }

    /// Builds `n` regions splitting the space of zero-padded decimal keys
    /// `prefix{number}` uniformly over `[0, key_count)` — matching the YCSB
    /// loader's `user{:012}` keys.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn split_decimal_keyspace(prefix: &str, key_count: u64, n: usize) -> RegionMap {
        assert!(n > 0, "need at least one region");
        let splits: Vec<Bytes> = (1..n)
            .map(|i| {
                let boundary = key_count * i as u64 / n as u64;
                Bytes::from(format!("{prefix}{boundary:012}"))
            })
            .collect();
        RegionMap::from_split_points(&splits)
    }

    /// All region descriptors, ordered by start key.
    pub fn regions(&self) -> &[RegionDescriptor] {
        &self.regions
    }

    /// The descriptor for `id`, if any.
    pub fn descriptor(&self, id: RegionId) -> Option<&RegionDescriptor> {
        self.regions.iter().find(|r| r.id == id)
    }

    /// The region containing `row`.
    ///
    /// # Panics
    ///
    /// Panics if the map is empty (an unconfigured cluster).
    pub fn region_for(&self, row: &[u8]) -> RegionId {
        assert!(!self.regions.is_empty(), "region map is empty");
        // Binary search over start keys: last region whose start <= row.
        let idx = match self.regions.binary_search_by(|r| r.start[..].cmp(row)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        debug_assert!(self.regions[idx].contains(row));
        self.regions[idx].id
    }

    /// The server currently assigned `region`, if any.
    pub fn server_for(&self, region: RegionId) -> Option<ServerId> {
        self.assignments.get(&region).copied()
    }

    /// Routes a row to its (region, server), if the region is assigned.
    pub fn locate(&self, row: &[u8]) -> (RegionId, Option<ServerId>) {
        let r = self.region_for(row);
        (r, self.server_for(r))
    }

    fn count_inc(&mut self, server: ServerId) {
        *self.assigned_counts.entry(server).or_insert(0) += 1;
    }

    fn count_dec(&mut self, server: ServerId) {
        if let Some(n) = self.assigned_counts.get_mut(&server) {
            *n -= 1;
            if *n == 0 {
                self.assigned_counts.remove(&server);
            }
        }
    }

    /// Records an assignment, bumping the epoch.
    pub fn assign(&mut self, region: RegionId, server: ServerId) {
        if let Some(prev) = self.assignments.insert(region, server) {
            self.count_dec(prev);
        }
        self.count_inc(server);
        self.epoch += 1;
    }

    /// Removes an assignment (region offline), bumping the epoch.
    pub fn unassign(&mut self, region: RegionId) {
        if let Some(prev) = self.assignments.remove(&region) {
            self.count_dec(prev);
            self.epoch += 1;
        }
    }

    /// How many regions are currently assigned to `server` — O(1), fed by
    /// the incrementally-maintained per-server counts.
    pub fn assigned_count(&self, server: ServerId) -> usize {
        self.assigned_counts.get(&server).copied().unwrap_or(0)
    }

    /// All regions currently assigned to `server`.
    pub fn regions_of(&self, server: ServerId) -> Vec<RegionId> {
        let mut out: Vec<RegionId> = self
            .assignments
            .iter()
            .filter(|(_, s)| **s == server)
            .map(|(r, _)| *r)
            .collect();
        out.sort_unstable();
        out
    }

    /// Records `region`'s backup set, bumping the epoch (the new epoch is
    /// the fencing token handed to the primary's ship stream).
    pub fn set_replicas(&mut self, region: RegionId, backups: Vec<ServerId>) {
        self.replicas.insert(region, backups);
        self.epoch += 1;
    }

    /// Drops `region`'s backup set (if any), bumping the epoch on change.
    pub fn clear_replicas(&mut self, region: RegionId) {
        if self.replicas.remove(&region).is_some() {
            self.epoch += 1;
        }
    }

    /// The backup servers of `region` (empty when unreplicated).
    pub fn replicas_of(&self, region: RegionId) -> &[ServerId] {
        self.replicas.get(&region).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All regions that keep a backup on `server`, sorted.
    pub fn replica_hosts(&self, server: ServerId) -> Vec<RegionId> {
        let mut out: Vec<RegionId> = self
            .replicas
            .iter()
            .filter(|(_, backups)| backups.contains(&server))
            .map(|(r, _)| *r)
            .collect();
        out.sort_unstable();
        out
    }

    /// Applies an online structure change: the `inputs`' descriptors are
    /// atomically replaced by `outputs`, the inputs' common assignment
    /// (if any) carries over to every output, and the epoch bumps so
    /// caches detect the change. Returns `false` (and changes nothing)
    /// unless the change is a 1→2 split or a 2→1 merge whose inputs are
    /// in the map, adjacent in key order and assigned to one server (or
    /// none), and whose outputs partition exactly the inputs' key range
    /// into non-empty ranges.
    pub fn apply_change(&mut self, change: &StructureChange) -> bool {
        let (inputs, outputs) = (&change.inputs, &change.outputs);
        if !matches!((inputs.len(), outputs.len()), (1, 2) | (2, 1)) {
            return false;
        }
        let Some(idx) = self.regions.iter().position(|r| r.id == inputs[0]) else {
            return false;
        };
        let Some(run) = self.regions.get(idx..idx + inputs.len()) else {
            return false;
        };
        if !run.iter().map(|r| r.id).eq(inputs.iter().copied()) {
            return false;
        }
        let server = self.assignments.get(&inputs[0]).copied();
        if inputs
            .iter()
            .any(|r| self.assignments.get(r).copied() != server)
        {
            return false;
        }
        let partitions = outputs[0].start == run[0].start
            && outputs[outputs.len() - 1].end == run[run.len() - 1].end
            && outputs
                .windows(2)
                .all(|w| w[0].end.as_ref() == Some(&w[1].start))
            && outputs
                .iter()
                .all(|o| o.end.as_ref().map(|e| o.start < *e).unwrap_or(true));
        if !partitions {
            return false;
        }
        self.regions
            .splice(idx..idx + inputs.len(), outputs.iter().cloned());
        if let Some(server) = server {
            for r in inputs {
                self.assignments.remove(r);
                self.count_dec(server);
            }
            for o in outputs {
                self.assignments.insert(o.id, server);
                self.count_inc(server);
            }
        }
        // A split parent's backup set carries to every daughter: the
        // master re-ships daughter state to the same hosts, preserving
        // locality. Merged inputs' backup sets retire with them; the
        // master would re-establish a group for the merged region from
        // scratch.
        let backups: Vec<Vec<ServerId>> = inputs
            .iter()
            .filter_map(|r| self.replicas.remove(r))
            .collect();
        if let ([_], [backups]) = (&inputs[..], &backups[..]) {
            for o in outputs {
                self.replicas.insert(o.id, backups.clone());
            }
        }
        self.epoch += 1;
        true
    }

    /// The largest region id in the map (`None` when empty) — the master
    /// allocates daughter ids above it, never reusing an id.
    pub fn max_region_id(&self) -> Option<RegionId> {
        self.regions.iter().map(|r| r.id).max()
    }

    /// The staleness epoch (bumped on every assignment change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current assignments, for snapshotting into client caches.
    pub fn assignments(&self) -> &HashMap<RegionId, ServerId> {
        &self.assignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_points_partition_keyspace() {
        let map = RegionMap::from_split_points(&[Bytes::from_static(b"m")]);
        assert_eq!(map.regions().len(), 2);
        assert_eq!(map.region_for(b"a"), RegionId(0));
        assert_eq!(map.region_for(b"lzz"), RegionId(0));
        assert_eq!(map.region_for(b"m"), RegionId(1));
        assert_eq!(map.region_for(b"zzz"), RegionId(1));
        assert_eq!(map.region_for(b""), RegionId(0));
    }

    #[test]
    fn decimal_split_is_balanced() {
        let map = RegionMap::split_decimal_keyspace("user", 1000, 4);
        assert_eq!(map.regions().len(), 4);
        assert_eq!(map.region_for(b"user000000000000"), RegionId(0));
        assert_eq!(map.region_for(b"user000000000249"), RegionId(0));
        assert_eq!(map.region_for(b"user000000000250"), RegionId(1));
        assert_eq!(map.region_for(b"user000000000999"), RegionId(3));
    }

    #[test]
    fn every_key_maps_to_exactly_one_region() {
        let map = RegionMap::split_decimal_keyspace("user", 100, 3);
        for i in 0..100u64 {
            let key = format!("user{i:012}");
            let region = map.region_for(key.as_bytes());
            let covering: Vec<_> = map
                .regions()
                .iter()
                .filter(|r| r.contains(key.as_bytes()))
                .collect();
            assert_eq!(covering.len(), 1, "key {key} covered by {covering:?}");
            assert_eq!(covering[0].id, region);
        }
    }

    #[test]
    fn assignment_lifecycle() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 2);
        assert_eq!(map.epoch(), 0);
        map.assign(RegionId(0), ServerId(1));
        map.assign(RegionId(1), ServerId(2));
        assert_eq!(map.epoch(), 2);
        assert_eq!(map.server_for(RegionId(0)), Some(ServerId(1)));
        assert_eq!(map.locate(b"user000000000010").1, Some(ServerId(1)));
        assert_eq!(map.regions_of(ServerId(2)), vec![RegionId(1)]);
        map.unassign(RegionId(0));
        assert_eq!(map.server_for(RegionId(0)), None);
        assert_eq!(map.epoch(), 3);
        // Unassigning twice does not bump the epoch again.
        map.unassign(RegionId(0));
        assert_eq!(map.epoch(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_splits_panic() {
        let _ = RegionMap::from_split_points(&[Bytes::from_static(b"m"), Bytes::from_static(b"a")]);
    }

    /// The split of `parent` at `key` into `bottom`/`top`, as the master
    /// would build it from `map`.
    fn split_of(
        map: &RegionMap,
        parent: u32,
        key: &'static [u8],
        bottom: u32,
        top: u32,
    ) -> StructureChange {
        let parent = map.descriptor(RegionId(parent)).expect("parent in map");
        StructureChange::new(
            &[parent],
            &[Bytes::from_static(key)],
            &[RegionId(bottom), RegionId(top)],
            ServerId(0),
        )
    }

    /// The merge of `left` and `right` into `merged`, as the master would
    /// build it from `map`.
    fn merge_of(map: &RegionMap, left: u32, right: u32, merged: u32) -> StructureChange {
        let left = map.descriptor(RegionId(left)).expect("left in map");
        let right = map.descriptor(RegionId(right)).expect("right in map");
        StructureChange::new(&[left, right], &[], &[RegionId(merged)], ServerId(0))
    }

    #[test]
    fn apply_split_replaces_parent_and_partitions_range() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 2);
        map.assign(RegionId(0), ServerId(7));
        let epoch = map.epoch();
        let split = split_of(&map, 0, b"user000000000020", 2, 3);
        assert!(map.apply_change(&split));
        assert!(map.epoch() > epoch);
        assert!(map.descriptor(RegionId(0)).is_none(), "parent retired");
        assert_eq!(map.region_for(b"user000000000019"), RegionId(2));
        assert_eq!(map.region_for(b"user000000000020"), RegionId(3));
        assert_eq!(map.region_for(b"user000000000049"), RegionId(3));
        assert_eq!(map.region_for(b"user000000000050"), RegionId(1));
        // The parent's assignment carried over to both daughters.
        assert_eq!(map.server_for(RegionId(2)), Some(ServerId(7)));
        assert_eq!(map.server_for(RegionId(3)), Some(ServerId(7)));
        assert_eq!(map.server_for(RegionId(0)), None);
        // The map still partitions the key space.
        for i in 0..100u64 {
            let key = format!("user{i:012}");
            let covering = map
                .regions()
                .iter()
                .filter(|r| r.contains(key.as_bytes()))
                .count();
            assert_eq!(covering, 1, "key {key}");
        }
        assert_eq!(map.max_region_id(), Some(RegionId(3)));
    }

    #[test]
    fn apply_split_rejects_bad_keys_and_unknown_parents() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 2);
        let epoch = map.epoch();
        // Key at the region start: bottom daughter would be empty.
        let at_start = split_of(&map, 0, b"", 2, 3);
        assert!(!map.apply_change(&at_start));
        // Key outside the region.
        let outside = split_of(&map, 0, b"user000000000090", 2, 3);
        assert!(!map.apply_change(&outside));
        // Unknown parent.
        let mut unknown = split_of(&map, 0, b"user000000000020", 2, 3);
        unknown.inputs = vec![RegionId(9)];
        assert!(!map.apply_change(&unknown));
        assert_eq!(map.epoch(), epoch, "failed splits must not bump the epoch");
        assert_eq!(map.regions().len(), 2);
    }

    #[test]
    fn apply_merge_collapses_adjacent_daughters() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 2);
        map.assign(RegionId(0), ServerId(7));
        map.assign(RegionId(1), ServerId(7));
        // Split then merge back: the keyspace partition round-trips.
        let split = split_of(&map, 0, b"user000000000020", 2, 3);
        assert!(map.apply_change(&split));
        let epoch = map.epoch();
        let merge = merge_of(&map, 2, 3, 4);
        assert!(map.apply_change(&merge));
        assert!(map.epoch() > epoch);
        assert!(map.descriptor(RegionId(2)).is_none(), "left retired");
        assert!(map.descriptor(RegionId(3)).is_none(), "right retired");
        assert_eq!(map.region_for(b"user000000000019"), RegionId(4));
        assert_eq!(map.region_for(b"user000000000020"), RegionId(4));
        assert_eq!(map.region_for(b"user000000000050"), RegionId(1));
        assert_eq!(map.server_for(RegionId(4)), Some(ServerId(7)));
        for i in 0..100u64 {
            let key = format!("user{i:012}");
            let covering = map
                .regions()
                .iter()
                .filter(|r| r.contains(key.as_bytes()))
                .count();
            assert_eq!(covering, 1, "key {key}");
        }
        assert_eq!(map.max_region_id(), Some(RegionId(4)));
    }

    #[test]
    fn apply_merge_rejects_non_adjacent_and_split_hosting() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 4);
        map.assign(RegionId(0), ServerId(1));
        map.assign(RegionId(1), ServerId(1));
        map.assign(RegionId(2), ServerId(2));
        map.assign(RegionId(3), ServerId(2));
        let epoch = map.epoch();
        // Wrong order: right must be immediately above left.
        assert!(!map.apply_change(&merge_of(&map, 1, 0, 9)));
        // Not adjacent.
        assert!(!map.apply_change(&merge_of(&map, 0, 2, 9)));
        // Adjacent but hosted by different servers.
        assert!(!map.apply_change(&merge_of(&map, 1, 2, 9)));
        // Unknown region.
        let mut unknown = merge_of(&map, 0, 1, 9);
        unknown.inputs[0] = RegionId(8);
        assert!(!map.apply_change(&unknown));
        assert_eq!(map.epoch(), epoch, "failed merges must not bump the epoch");
        assert_eq!(map.regions().len(), 4);
        // A valid merge of the co-hosted adjacent pair still works.
        assert!(map.apply_change(&merge_of(&map, 2, 3, 9)));
        assert_eq!(map.regions().len(), 3);
    }

    #[test]
    fn apply_change_rejects_every_other_shape() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 4);
        let d = |id: u32| map.descriptor(RegionId(id)).expect("in map").clone();
        let key = |k: &'static [u8]| Bytes::from_static(k);
        let ids = |ids: &[u32]| ids.iter().map(|i| RegionId(*i)).collect::<Vec<_>>();
        let shapes = [
            // 1→1: a rename (what a move would be).
            StructureChange::new(&[&d(0)], &[], &ids(&[9]), ServerId(0)),
            // 1→3.
            StructureChange::new(
                &[&d(0)],
                &[key(b"user000000000005"), key(b"user000000000010")],
                &ids(&[9, 10, 11]),
                ServerId(0),
            ),
            // 2→2: a boundary shift.
            StructureChange::new(
                &[&d(0), &d(1)],
                &[key(b"user000000000030")],
                &ids(&[9, 10]),
                ServerId(0),
            ),
            // 3→1.
            StructureChange::new(&[&d(0), &d(1), &d(2)], &[], &ids(&[9]), ServerId(0)),
        ];
        let epoch = map.epoch();
        for change in &shapes {
            assert!(!map.apply_change(change), "{change:?}");
        }
        assert_eq!(map.epoch(), epoch);
        assert_eq!(map.regions().len(), 4);
    }

    #[test]
    fn assigned_counts_track_mutations() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 3);
        assert_eq!(map.assigned_count(ServerId(1)), 0);
        map.assign(RegionId(0), ServerId(1));
        map.assign(RegionId(1), ServerId(1));
        map.assign(RegionId(2), ServerId(2));
        assert_eq!(map.assigned_count(ServerId(1)), 2);
        assert_eq!(map.assigned_count(ServerId(2)), 1);
        // Reassignment moves the count between servers.
        map.assign(RegionId(1), ServerId(2));
        assert_eq!(map.assigned_count(ServerId(1)), 1);
        assert_eq!(map.assigned_count(ServerId(2)), 2);
        map.unassign(RegionId(0));
        assert_eq!(map.assigned_count(ServerId(1)), 0);
        // Splits add one hosted region; merges remove one.
        let split = split_of(&map, 1, b"user000000000050", 3, 4);
        assert!(map.apply_change(&split));
        assert_eq!(map.assigned_count(ServerId(2)), 3);
        let merge = merge_of(&map, 3, 4, 5);
        assert!(map.apply_change(&merge));
        assert_eq!(map.assigned_count(ServerId(2)), 2);
        // Counts always agree with the exhaustive scan.
        for s in [ServerId(1), ServerId(2)] {
            assert_eq!(map.assigned_count(s), map.regions_of(s).len());
        }
    }

    /// The intent records' bytes as captured from the last commit that
    /// had one intent type (and one encoder) per kind: record lengths
    /// are inputs to the simulated filesystem, so the wire form is
    /// pinned.
    #[test]
    fn intent_records_keep_their_bytes_and_roundtrip() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 2);
        // Make the ids the golden records name: 4 splits into 10/11,
        // which merge into 12.
        let setup = StructureChange::new(
            &[&map.descriptor(RegionId(0)).expect("in map").clone()],
            &[Bytes::from_static(b"user000000000010")],
            &[RegionId(3), RegionId(4)],
            ServerId(1),
        );
        assert!(map.apply_change(&setup));

        let mut split = split_of(&map, 4, b"user000000000033", 10, 11);
        split.server = ServerId(1);
        assert_eq!(split.kind(), ChangeKind::Split);
        assert_eq!(split.intent_path(), "/split/r4");
        let golden_split: &[u8] = &[
            0, 0, 0, 4, 0, 0, 0, 16, 117, 115, 101, 114, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48,
            51, 51, 0, 0, 0, 10, 0, 0, 0, 11, 0, 0, 0, 1,
        ];
        assert_eq!(&split.encode()[..], golden_split);
        let back = StructureChange::decode(ChangeKind::Split, golden_split, &map);
        assert_eq!(back.as_ref(), Ok(&split));
        assert_eq!(
            back.expect("decoded").outputs[1].end,
            Some(Bytes::from_static(b"user000000000050"))
        );

        assert!(map.apply_change(&split));
        let mut merge = merge_of(&map, 10, 11, 12);
        merge.server = ServerId(2);
        assert_eq!(merge.kind(), ChangeKind::Merge);
        assert_eq!(merge.intent_path(), "/merge/r10");
        let golden_merge: &[u8] = &[0, 0, 0, 10, 0, 0, 0, 11, 0, 0, 0, 12, 0, 0, 0, 2];
        assert_eq!(&merge.encode()[..], golden_merge);
        assert_eq!(
            StructureChange::decode(ChangeKind::Merge, golden_merge, &map),
            Ok(merge)
        );

        // Truncation anywhere is an error, for both shapes; so is a
        // record naming a region the map does not hold.
        for (kind, golden) in [
            (ChangeKind::Split, golden_split),
            (ChangeKind::Merge, golden_merge),
        ] {
            for cut in 0..golden.len() {
                assert!(
                    StructureChange::decode(kind, &golden[..cut], &map).is_err(),
                    "{kind:?} truncated to {cut} bytes"
                );
            }
        }
        assert!(StructureChange::decode(ChangeKind::Split, golden_split, &map).is_err());
    }

    #[test]
    fn replica_bookkeeping_bumps_epoch_and_follows_splits() {
        let mut map = RegionMap::split_decimal_keyspace("user", 100, 2);
        map.assign(RegionId(0), ServerId(1));
        let epoch = map.epoch();
        map.set_replicas(RegionId(0), vec![ServerId(2), ServerId(3)]);
        assert!(map.epoch() > epoch, "replica changes must fence");
        assert_eq!(map.replicas_of(RegionId(0)), &[ServerId(2), ServerId(3)]);
        assert_eq!(map.replicas_of(RegionId(1)), &[] as &[ServerId]);
        assert_eq!(map.replica_hosts(ServerId(2)), vec![RegionId(0)]);
        assert_eq!(map.replica_hosts(ServerId(1)), Vec::<RegionId>::new());
        // Splitting the parent carries its backup set to both daughters.
        let split = split_of(&map, 0, b"user000000000020", 2, 3);
        assert!(map.apply_change(&split));
        assert_eq!(map.replicas_of(RegionId(2)), &[ServerId(2), ServerId(3)]);
        assert_eq!(map.replicas_of(RegionId(3)), &[ServerId(2), ServerId(3)]);
        assert_eq!(
            map.replica_hosts(ServerId(3)),
            vec![RegionId(2), RegionId(3)]
        );
        // Clearing is idempotent on the epoch.
        map.clear_replicas(RegionId(2));
        let epoch = map.epoch();
        map.clear_replicas(RegionId(2));
        assert_eq!(map.epoch(), epoch);
        assert_eq!(map.replicas_of(RegionId(2)), &[] as &[ServerId]);
        // Merging drops the inputs' backup sets with them.
        let merge = merge_of(&map, 2, 3, 4);
        assert!(map.apply_change(&merge));
        assert_eq!(map.replicas_of(RegionId(4)), &[] as &[ServerId]);
        assert_eq!(map.replica_hosts(ServerId(3)), Vec::<RegionId>::new());
    }

    #[test]
    fn descriptor_lookup() {
        let map = RegionMap::split_decimal_keyspace("user", 100, 2);
        assert!(map.descriptor(RegionId(0)).is_some());
        assert!(map.descriptor(RegionId(9)).is_none());
    }
}
