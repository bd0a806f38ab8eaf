//! Core identifiers and data-model types shared across the stack.

use bytes::Bytes;
use std::fmt;

/// Identifier of a region server process.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

impl fmt::Debug for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rs{}", self.0)
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rs{}", self.0)
    }
}

impl ServerId {
    /// Where the servers' ephemeral liveness nodes live in the
    /// coordination service; the master and the recovery manager watch it.
    pub const LIVE_PREFIX: &'static str = "/live/servers/";

    /// The server's liveness node, [`ServerId::LIVE_PREFIX`] then `rsN`:
    /// created with its coordination session, read back before it deletes
    /// files. The prefix is spelled out, not formatted in: a format string
    /// that opens with a literal sizes the buffer in one allocation.
    pub fn live_path(self) -> String {
        format!("/live/servers/{self}")
    }

    /// The server a coordination path names in its last segment, in the
    /// `rsN` form `Display` writes (`/live/servers/rs3`,
    /// `/thresholds/servers/rs3`).
    pub fn from_path(path: &str) -> Option<ServerId> {
        let name = path.rsplit('/').next()?;
        name.strip_prefix("rs")?.parse().ok().map(ServerId)
    }
}

/// Identifier of a key-value client process (the paper's "HBase client").
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifier of a region (a contiguous key range of the table).
///
/// Region ids are never reused: an online split retires the parent's id
/// and allocates two fresh daughter ids above every id ever issued, so a
/// cached id always denotes the same key range (a stale cache can be
/// *incomplete*, never *wrong* about boundaries).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A commit timestamp / version number.
///
/// Commit timestamps are assigned monotonically by the transaction manager
/// and double as MVCC version numbers in the store, which is what makes
/// write-set replay idempotent (§2.2 of the paper: replaying a write-set
/// stamps the same versions, so applying it twice is a no-op).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp (before any transaction committed).
    pub const ZERO: Timestamp = Timestamp(0);
    /// A timestamp later than every assignable timestamp.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// The next timestamp.
    pub fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What a mutation does to a cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MutationKind {
    /// Write the given value.
    Put(Bytes),
    /// Delete the cell (a tombstone at the mutation's version).
    Delete,
}

/// One cell-level write: the unit the paper's write-sets are made of.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Mutation {
    /// Row key.
    pub row: Bytes,
    /// Column qualifier.
    pub column: Bytes,
    /// Put or delete.
    pub kind: MutationKind,
}

impl Mutation {
    /// Creates a put mutation.
    pub fn put(
        row: impl Into<Bytes>,
        column: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> Mutation {
        Mutation {
            row: row.into(),
            column: column.into(),
            kind: MutationKind::Put(value.into()),
        }
    }

    /// Creates a delete mutation.
    pub fn delete(row: impl Into<Bytes>, column: impl Into<Bytes>) -> Mutation {
        Mutation {
            row: row.into(),
            column: column.into(),
            kind: MutationKind::Delete,
        }
    }

    /// Bytes of row key, column and value, without any framing.
    pub fn payload_len(&self) -> usize {
        let v = match &self.kind {
            MutationKind::Put(v) => v.len(),
            MutationKind::Delete => 0,
        };
        self.row.len() + self.column.len() + v
    }

    /// Approximate wire size in bytes: the payload framed for a client
    /// request.
    pub fn wire_size(&self) -> usize {
        16 + self.payload_len()
    }
}

/// A committed transaction's buffered writes, stamped with its commit
/// timestamp when flushed.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct WriteSet {
    /// The mutations, in the order the transaction issued them.
    pub mutations: Vec<Mutation>,
}

impl WriteSet {
    /// Creates an empty write-set.
    pub fn new() -> WriteSet {
        WriteSet::default()
    }

    /// Adds a mutation, replacing an earlier write to the same cell (last
    /// write within a transaction wins, as both end up with the same
    /// version anyway).
    pub fn push(&mut self, m: Mutation) {
        if let Some(existing) = self
            .mutations
            .iter_mut()
            .find(|e| e.row == m.row && e.column == m.column)
        {
            *existing = m;
        } else {
            self.mutations.push(m);
        }
    }

    /// The buffered value for a cell, if this write-set wrote it
    /// (read-your-own-writes support).
    pub fn get(&self, row: &[u8], column: &[u8]) -> Option<&MutationKind> {
        self.mutations
            .iter()
            .rev()
            .find(|m| m.row == row && m.column == column)
            .map(|m| &m.kind)
    }

    /// Number of mutations.
    pub fn len(&self) -> usize {
        self.mutations.len()
    }

    /// Whether the write-set has no mutations (read-only transaction).
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty()
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        16 + self
            .mutations
            .iter()
            .map(Mutation::wire_size)
            .sum::<usize>()
    }
}

impl FromIterator<Mutation> for WriteSet {
    fn from_iter<T: IntoIterator<Item = Mutation>>(iter: T) -> Self {
        let mut ws = WriteSet::new();
        for m in iter {
            ws.push(m);
        }
        ws
    }
}

impl Extend<Mutation> for WriteSet {
    fn extend<T: IntoIterator<Item = Mutation>>(&mut self, iter: T) {
        for m in iter {
            self.push(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_ordering_and_next() {
        assert!(Timestamp(1) < Timestamp(2));
        assert_eq!(Timestamp(1).next(), Timestamp(2));
        assert!(Timestamp::ZERO < Timestamp::MAX);
        assert_eq!(format!("{}", Timestamp(7)), "7");
        assert_eq!(format!("{:?}", Timestamp(7)), "ts7");
    }

    #[test]
    fn ids_display() {
        assert_eq!(ServerId(3).to_string(), "rs3");
        assert_eq!(ClientId(3).to_string(), "c3");
        assert_eq!(RegionId(3).to_string(), "r3");
    }

    #[test]
    fn server_paths_round_trip() {
        assert_eq!(ServerId(9).live_path(), "/live/servers/rs9");
        assert!(ServerId(9).live_path().starts_with(ServerId::LIVE_PREFIX));
        assert_eq!(
            ServerId::from_path(&ServerId(9).live_path()),
            Some(ServerId(9))
        );
        assert_eq!(ServerId::from_path("/live/servers/rs3"), Some(ServerId(3)));
        assert_eq!(
            ServerId::from_path("/live/servers/rs12"),
            Some(ServerId(12))
        );
        assert_eq!(
            ServerId::from_path("/thresholds/servers/rs0"),
            Some(ServerId(0))
        );
        assert_eq!(ServerId::from_path("/live/servers/garbage"), None);
        assert_eq!(ServerId::from_path("/live/servers/rsX"), None);
        assert_eq!(ServerId::from_path("/live/servers/c3"), None);
    }

    #[test]
    fn write_set_last_write_wins_per_cell() {
        let mut ws = WriteSet::new();
        ws.push(Mutation::put("r1", "a", "v1"));
        ws.push(Mutation::put("r1", "b", "v2"));
        ws.push(Mutation::put("r1", "a", "v3"));
        assert_eq!(ws.len(), 2);
        assert_eq!(
            ws.get(b"r1", b"a"),
            Some(&MutationKind::Put(Bytes::from_static(b"v3")))
        );
        assert_eq!(
            ws.get(b"r1", b"b"),
            Some(&MutationKind::Put(Bytes::from_static(b"v2")))
        );
        assert_eq!(ws.get(b"r1", b"zz"), None);
    }

    #[test]
    fn write_set_delete_shadows_put() {
        let mut ws = WriteSet::new();
        ws.push(Mutation::put("r", "c", "v"));
        ws.push(Mutation::delete("r", "c"));
        assert_eq!(ws.get(b"r", b"c"), Some(&MutationKind::Delete));
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn write_set_collects_from_iterator() {
        let ws: WriteSet = vec![Mutation::put("a", "c", "1"), Mutation::put("b", "c", "2")]
            .into_iter()
            .collect();
        assert_eq!(ws.len(), 2);
        let mut ws2 = WriteSet::new();
        ws2.extend(vec![Mutation::put("a", "c", "1")]);
        assert_eq!(ws2.len(), 1);
    }

    #[test]
    fn wire_sizes_are_positive_and_scale() {
        let small = Mutation::put("r", "c", "v").wire_size();
        let big = Mutation::put("r", "c", vec![0u8; 1000]).wire_size();
        assert!(big > small + 900);
        let ws: WriteSet = vec![Mutation::delete("r", "c")].into_iter().collect();
        assert!(ws.wire_size() > 0);
    }
}
