//! Snapshot-isolation write-write conflict detection
//! (first-committer-wins).

use bytes::Bytes;
use cumulo_sim::FixedState;
use cumulo_store::{Timestamp, WriteSet};
use std::cell::RefCell;
use std::fmt;

/// Tracks, per cell, the commit timestamp of the last committed writer,
/// and rejects a committing transaction whose write-set overlaps a cell
/// written after the transaction's snapshot.
///
/// Entries older than the prune horizon can be discarded: a transaction's
/// `start_ts` is always ≥ the flush watermark, which trails the newest
/// commits by milliseconds, so old entries can never conflict.
///
/// # Example
///
/// ```
/// use cumulo_store::{Mutation, Timestamp, WriteSet};
/// use cumulo_txn::ConflictChecker;
///
/// let checker = ConflictChecker::new();
/// let ws: WriteSet = vec![Mutation::put("row", "col", "v")].into_iter().collect();
/// // First writer commits at ts 10 against snapshot 5: fine.
/// assert!(checker.check_and_record(&ws, Timestamp(5), Timestamp(10)));
/// // Second writer with snapshot 5 overlaps the ts-10 write: conflict.
/// assert!(!checker.check_and_record(&ws, Timestamp(5), Timestamp(11)));
/// // A writer that started after 10 is fine.
/// assert!(checker.check_and_record(&ws, Timestamp(10), Timestamp(12)));
/// ```
#[derive(Default)]
pub struct ConflictChecker {
    #[expect(
        clippy::disallowed_types,
        reason = "hit on every commit; unsalted (FixedState), so its layout is the same in every process, and it is only probed, written and pruned by retain, so its order never reaches an output"
    )]
    last_writer: RefCell<std::collections::HashMap<(Bytes, Bytes), Timestamp, FixedState>>,
}

impl fmt::Debug for ConflictChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConflictChecker")
            .field("tracked_cells", &self.last_writer.borrow().len())
            .finish()
    }
}

impl ConflictChecker {
    /// Creates an empty checker.
    pub fn new() -> ConflictChecker {
        ConflictChecker::default()
    }

    /// Returns `true` and records `commit_ts` as the last writer of every
    /// cell in `ws` if no cell was written by a transaction that committed
    /// after `start_ts`; returns `false` (recording nothing) otherwise.
    pub fn check_and_record(
        &self,
        ws: &WriteSet,
        start_ts: Timestamp,
        commit_ts: Timestamp,
    ) -> bool {
        let mut map = self.last_writer.borrow_mut();
        for m in &ws.mutations {
            if let Some(&last) = map.get(&(m.row.clone(), m.column.clone())) {
                if last > start_ts {
                    return false;
                }
            }
        }
        for m in &ws.mutations {
            map.insert((m.row.clone(), m.column.clone()), commit_ts);
        }
        true
    }

    /// Discards entries with timestamp < `horizon` (safe once no active
    /// transaction's snapshot predates `horizon`).
    pub fn prune_below(&self, horizon: Timestamp) {
        self.last_writer.borrow_mut().retain(|_, ts| *ts >= horizon);
    }

    /// Number of tracked cells (memory diagnostics).
    pub fn tracked_cells(&self) -> usize {
        self.last_writer.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulo_store::Mutation;

    fn ws(cells: &[(&str, &str)]) -> WriteSet {
        cells
            .iter()
            .map(|(r, c)| Mutation::put(r.to_string(), c.to_string(), "v"))
            .collect()
    }

    #[test]
    fn disjoint_writes_never_conflict() {
        let ck = ConflictChecker::new();
        assert!(ck.check_and_record(&ws(&[("a", "c")]), Timestamp(0), Timestamp(1)));
        assert!(ck.check_and_record(&ws(&[("b", "c")]), Timestamp(0), Timestamp(2)));
        assert!(ck.check_and_record(&ws(&[("a", "d")]), Timestamp(0), Timestamp(3)));
        assert_eq!(ck.tracked_cells(), 3);
    }

    #[test]
    fn overlapping_concurrent_writes_conflict() {
        let ck = ConflictChecker::new();
        assert!(ck.check_and_record(&ws(&[("a", "c"), ("b", "c")]), Timestamp(0), Timestamp(5)));
        // Concurrent txn (snapshot 0 < 5) touching either cell aborts.
        assert!(!ck.check_and_record(&ws(&[("b", "c")]), Timestamp(0), Timestamp(6)));
        assert!(!ck.check_and_record(&ws(&[("a", "c"), ("x", "y")]), Timestamp(3), Timestamp(7)));
        // The failed commit must not have recorded anything.
        assert!(ck.check_and_record(&ws(&[("x", "y")]), Timestamp(0), Timestamp(8)));
    }

    #[test]
    fn later_snapshot_does_not_conflict() {
        let ck = ConflictChecker::new();
        assert!(ck.check_and_record(&ws(&[("a", "c")]), Timestamp(0), Timestamp(5)));
        assert!(ck.check_and_record(&ws(&[("a", "c")]), Timestamp(5), Timestamp(6)));
        assert!(ck.check_and_record(&ws(&[("a", "c")]), Timestamp(7), Timestamp(8)));
    }

    #[test]
    fn prune_discards_old_entries_only() {
        let ck = ConflictChecker::new();
        ck.check_and_record(&ws(&[("a", "c")]), Timestamp(0), Timestamp(5));
        ck.check_and_record(&ws(&[("b", "c")]), Timestamp(0), Timestamp(50));
        ck.prune_below(Timestamp(10));
        assert_eq!(ck.tracked_cells(), 1);
        // Entry at 50 still conflicts.
        assert!(!ck.check_and_record(&ws(&[("b", "c")]), Timestamp(20), Timestamp(60)));
        // Pruned entry no longer conflicts (correct, because snapshots
        // this old cannot belong to active transactions).
        assert!(ck.check_and_record(&ws(&[("a", "c")]), Timestamp(20), Timestamp(61)));
    }

    #[test]
    fn read_only_write_set_never_conflicts() {
        let ck = ConflictChecker::new();
        ck.check_and_record(&ws(&[("a", "c")]), Timestamp(0), Timestamp(5));
        assert!(ck.check_and_record(&WriteSet::new(), Timestamp(0), Timestamp(6)));
    }
}
