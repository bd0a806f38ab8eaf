//! The history checker: (R), (A), (W) and (M) over the recorded
//! transactions, and (R) and (A) over a read-back.

use super::{Outcome, Read, Seen, TxnRecord};
use bytes::Bytes;
use cumulo_store::{MutationKind, Timestamp};
use cumulo_txn::TxnId;
use std::collections::BTreeMap;
use std::fmt;

/// A rule of the history check (ARCHITECTURE, "History check").
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Rule {
    /// A read returns a version committed at or below its snapshot,
    /// holding the value its writer wrote.
    R,
    /// A read skips no commit at or below its snapshot that wrote its
    /// cell: a snapshot sees every write-set committed at or below it.
    A,
    /// No two committed transactions whose `[snapshot, commit]` spans
    /// overlap write one cell.
    W,
    /// A client's snapshots never go backwards.
    M,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rule = match self {
            Rule::R => "(R)",
            Rule::A => "(A)",
            Rule::W => "(W)",
            Rule::M => "(M)",
        };
        f.write_str(rule)
    }
}

/// One broken rule: which, by which transaction, at which cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The rule.
    pub rule: Rule,
    /// The transaction that read or wrote (`None`: the read-back).
    pub txn: Option<TxnId>,
    /// The cell, for every rule but (M).
    pub cell: Option<(Bytes, Bytes)>,
    /// What happened, naming the other transaction involved.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.rule, name(self.txn))?;
        if let Some((row, column)) = &self.cell {
            write!(f, " at {}", cell_name(row, column))?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// A transaction as violations and dumps name it: `c<client>.<sequence>`.
pub(super) fn name(txn: Option<TxnId>) -> String {
    match txn {
        Some(txn) => format!("{}.{}", txn.client(), txn.0 as u32),
        None => "read-back".to_owned(),
    }
}

/// A cell as violations and dumps name it: `<row>/<column>`.
pub(super) fn cell_name(row: &[u8], column: &[u8]) -> String {
    format!(
        "{}/{}",
        String::from_utf8_lossy(row),
        String::from_utf8_lossy(column)
    )
}

/// A write that may have reached the store.
struct Writer<'a> {
    txn: TxnId,
    /// Its commit timestamp; `None` while unresolved.
    ts: Option<Timestamp>,
    kind: &'a MutationKind,
}

impl Writer<'_> {
    /// Whether a version holding `value` is this write.
    fn wrote(&self, value: Option<&Bytes>) -> bool {
        match self.kind {
            MutationKind::Put(v) => value == Some(v),
            MutationKind::Delete => value.is_none(),
        }
    }
}

/// The recorded writes by cell, and the write commits by timestamp.
struct Writes<'a> {
    cells: BTreeMap<(&'a [u8], &'a [u8]), Vec<Writer<'a>>>,
    commits: BTreeMap<Timestamp, TxnId>,
}

impl<'a> Writes<'a> {
    fn new(txns: &'a BTreeMap<TxnId, TxnRecord>) -> Writes<'a> {
        let mut writes = Writes {
            cells: BTreeMap::new(),
            commits: BTreeMap::new(),
        };
        for (&txn, record) in txns {
            let Some(ws) = record.applied_writes() else {
                continue;
            };
            let ts = match record.outcome {
                Outcome::Committed(ts) => Some(ts),
                _ => None,
            };
            if let (Some(ts), false) = (ts, ws.is_empty()) {
                writes.commits.insert(ts, txn);
            }
            for m in &ws.mutations {
                let writer = Writer {
                    txn,
                    ts,
                    kind: &m.kind,
                };
                let cell = (&m.row[..], &m.column[..]);
                writes.cells.entry(cell).or_default().push(writer);
            }
        }
        writes
    }

    /// Checks one read taken at `snapshot` by (R), then (A).
    fn read(&self, txn: Option<TxnId>, snapshot: Timestamp, read: &Read) -> Option<Violation> {
        let (ts, value) = match &read.seen {
            Seen::Own => return None,
            Seen::Absent => (None, None),
            Seen::Version(ts, value) => (Some(*ts), value.as_ref()),
        };
        let writers = self
            .cells
            .get(&(&read.row[..], &read.column[..]))
            .map_or(&[][..], Vec::as_slice);
        let violation = |rule, detail| {
            Some(Violation {
                rule,
                txn,
                cell: Some((read.row.clone(), read.column.clone())),
                detail,
            })
        };
        // (R): the version is one a commit at or below the snapshot wrote
        // (version 0 is what was there before the history: a bulk load).
        if let Some(ts) = ts.filter(|&ts| ts != Timestamp::ZERO) {
            if ts > snapshot {
                let detail = format!("read version {ts}, above its snapshot {snapshot}");
                return violation(Rule::R, detail);
            }
            match writers.iter().find(|w| w.ts == Some(ts)) {
                Some(w) if !w.wrote(value) => {
                    let detail = format!(
                        "read version {ts} holding a value {} did not write",
                        name(Some(w.txn))
                    );
                    return violation(Rule::R, detail);
                }
                Some(_) => {}
                // A commit whose client never learned its outcome is
                // legal only where its recorded write-set holds the cell.
                None if writers.iter().any(|w| w.ts.is_none() && w.wrote(value)) => {}
                None => {
                    let detail = match self.commits.get(&ts) {
                        Some(&other) => format!(
                            "read version {ts}, the commit of {}, which did not write the cell",
                            name(Some(other))
                        ),
                        None => format!("read version {ts}, which no recorded commit wrote"),
                    };
                    return violation(Rule::R, detail);
                }
            }
        }
        // (A): no commit at or below the snapshot is newer than what the
        // read saw. Seeing no version at all is the newest commit's
        // delete with its tombstone purged.
        let newest = writers
            .iter()
            .filter(|w| w.ts.is_some_and(|t| t <= snapshot))
            .max_by_key(|w| w.ts)?;
        let skipped = match ts {
            None => matches!(newest.kind, MutationKind::Put(_)),
            Some(ts) => newest.ts > Some(ts),
        };
        if !skipped {
            return None;
        }
        let saw = ts.map_or("no version".to_owned(), |ts| format!("version {ts}"));
        let detail = format!(
            "read {saw} at snapshot {snapshot}, missing {}'s commit at {}",
            name(Some(newest.txn)),
            newest.ts.unwrap_or(Timestamp::ZERO)
        );
        violation(Rule::A, detail)
    }

    /// (W): per cell, each commit against the one before it in commit
    /// order (if any earlier commit is above a snapshot, the latest is).
    fn conflicts(&self, txns: &BTreeMap<TxnId, TxnRecord>) -> Vec<Violation> {
        let mut out = Vec::new();
        for (&(row, column), writers) in &self.cells {
            let mut commits: Vec<(Timestamp, Timestamp, TxnId)> = writers
                .iter()
                .filter_map(|w| Some((w.ts?, txns[&w.txn].snapshot?, w.txn)))
                .collect();
            commits.sort_unstable();
            for pair in commits.windows(2) {
                let ((before, _, other), (ts, snapshot, txn)) = (pair[0], pair[1]);
                if before > snapshot {
                    out.push(Violation {
                        rule: Rule::W,
                        txn: Some(txn),
                        cell: Some((Bytes::copy_from_slice(row), Bytes::copy_from_slice(column))),
                        detail: format!(
                            "committed at {ts} from snapshot {snapshot}, over {}'s commit at {before}",
                            name(Some(other))
                        ),
                    });
                }
            }
        }
        out
    }
}

/// (M): each client's snapshots in begin order, against the highest
/// before them.
fn monotonic(txns: &BTreeMap<TxnId, TxnRecord>) -> Vec<Violation> {
    let mut out = Vec::new();
    // The client's highest snapshot so far, and whose it was.
    let mut highest: Option<(TxnId, Timestamp)> = None;
    for (&txn, record) in txns {
        let Some(snapshot) = record.snapshot else {
            continue;
        };
        match highest {
            Some((before, high)) if before.client() == txn.client() && snapshot < high => {
                out.push(Violation {
                    rule: Rule::M,
                    txn: Some(txn),
                    cell: None,
                    detail: format!("snapshot {snapshot} below {}'s {high}", name(Some(before))),
                });
            }
            _ => highest = Some((txn, snapshot)),
        }
    }
    out
}

/// Every violation of the recorded transactions.
pub(super) fn transactions(txns: &BTreeMap<TxnId, TxnRecord>) -> Vec<Violation> {
    let writes = Writes::new(txns);
    let mut out: Vec<Violation> = txns
        .iter()
        .filter_map(|(&txn, r)| Some((txn, r.snapshot?, &r.reads)))
        .flat_map(|(txn, snapshot, reads)| {
            let writes = &writes;
            reads
                .iter()
                .filter_map(move |read| writes.read(Some(txn), snapshot, read))
        })
        .collect();
    out.extend(writes.conflicts(txns));
    out.extend(monotonic(txns));
    out
}

/// Every violation of reads taken at the newest version.
pub(super) fn read_back(txns: &BTreeMap<TxnId, TxnRecord>, reads: &[Read]) -> Vec<Violation> {
    let writes = Writes::new(txns);
    reads
        .iter()
        .filter_map(|read| writes.read(None, Timestamp::MAX, read))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::{History, Outcome, Read, Seen};
    use super::Rule;
    use bytes::Bytes;
    use cumulo_store::{ClientId, Mutation, Timestamp, WriteSet};
    use cumulo_txn::TxnId;

    /// An empty history that records.
    fn recording() -> History {
        let h = History::detached();
        h.attach();
        h
    }

    fn txn(client: u32, seq: u32) -> TxnId {
        TxnId::new(ClientId(client), seq)
    }

    fn row(name: &str) -> Bytes {
        Bytes::from(format!("user{name}"))
    }

    /// A bulk-loaded version: at timestamp 0, written by no transaction.
    fn loaded() -> Seen {
        Seen::Version(Timestamp::ZERO, Some(Bytes::from_static(b"loaded")))
    }

    fn version(ts: u64, value: Option<&str>) -> Seen {
        Seen::Version(Timestamp(ts), value.map(|v| Bytes::from(v.to_owned())))
    }

    /// Begins `txn` at `snapshot` and records its reads of `f0` cells.
    fn begin(h: &History, txn: TxnId, snapshot: u64, reads: &[(&str, Seen)]) {
        h.begun(txn);
        h.snapshot(txn, Timestamp(snapshot));
        for (name, seen) in reads {
            h.read(txn, &row(name), &Bytes::from_static(b"f0"), seen.clone());
        }
    }

    /// Sends `txn`'s commit with `writes` (`None` = delete) and, when
    /// `ts` is given, acknowledges it there.
    fn commit(h: &History, txn: TxnId, writes: &[(&str, Option<&str>)], ts: Option<u64>) {
        let ws: WriteSet = writes
            .iter()
            .map(|(name, value)| match value {
                Some(v) => Mutation::put(row(name), "f0", v.to_string()),
                None => Mutation::delete(row(name), "f0"),
            })
            .collect();
        h.commit_sent(txn, &ws);
        if let Some(ts) = ts {
            h.ended(txn, Outcome::Committed(Timestamp(ts)));
        }
    }

    /// The one violation `h` holds, rendered.
    fn only_violation(h: &History) -> (Rule, String) {
        let found = h.check();
        assert_eq!(found.len(), 1, "{found:#?}");
        (found[0].rule, found[0].to_string())
    }

    #[test]
    fn a_legal_history_passes() {
        let h = recording();
        // Reads a bulk-loaded version at 0, writes x and deletes y.
        begin(&h, txn(0, 0), 5, &[("x", loaded())]);
        commit(&h, txn(0, 0), &[("x", Some("a")), ("y", None)], Some(10));
        // Reads the tombstone and the put, then its own write.
        begin(
            &h,
            txn(1, 0),
            10,
            &[("y", version(10, None)), ("x", version(10, Some("a")))],
        );
        commit(&h, txn(1, 0), &[("z", Some("b"))], None);
        h.read(txn(1, 0), &row("z"), &Bytes::from_static(b"f0"), Seen::Own);
        h.ended(txn(1, 0), Outcome::Committed(Timestamp(12)));
        // A read-only commit, logged at its snapshot.
        begin(&h, txn(1, 1), 12, &[("z", version(12, Some("b")))]);
        h.ended(txn(1, 1), Outcome::Committed(Timestamp(12)));
        // Its client dies with the commit in flight; the manager had
        // committed it at 15.
        begin(&h, txn(2, 0), 12, &[]);
        commit(&h, txn(2, 0), &[("w", Some("u"))], None);
        // Sees the unresolved write, and y's tombstone purged.
        begin(
            &h,
            txn(0, 1),
            20,
            &[("w", version(15, Some("u"))), ("y", Seen::Absent)],
        );
        h.ended(txn(0, 1), Outcome::Committed(Timestamp(20)));
        // A conflict-aborted write-set leaves nothing to read back.
        begin(&h, txn(2, 1), 12, &[]);
        commit(&h, txn(2, 1), &[("x", Some("lost"))], None);
        h.ended(txn(2, 1), Outcome::Aborted("conflict"));

        assert_eq!(h.check(), []);
        let cell = |name: &str, seen| Read {
            row: row(name),
            column: Bytes::from_static(b"f0"),
            seen,
        };
        let cells: Vec<String> = h
            .written_cells()
            .iter()
            .map(|(r, c)| super::cell_name(r, c))
            .collect();
        assert_eq!(cells, ["userw/f0", "userx/f0", "usery/f0", "userz/f0"]);
        let read_back = [
            cell("w", version(15, Some("u"))),
            cell("x", version(10, Some("a"))),
            cell("y", version(10, None)),
            cell("z", version(12, Some("b"))),
        ];
        assert_eq!(h.check_read_back(&read_back), []);
    }

    #[test]
    fn r_names_a_version_no_commit_wrote() {
        let h = recording();
        begin(&h, txn(0, 0), 5, &[]);
        commit(&h, txn(0, 0), &[("x", Some("a"))], None);
        h.ended(txn(0, 0), Outcome::Aborted("conflict"));
        begin(&h, txn(1, 0), 20, &[("x", version(7, Some("a")))]);
        assert_eq!(
            only_violation(&h),
            (
                Rule::R,
                "(R) c1.0 at userx/f0: read version 7, which no recorded commit wrote".to_owned()
            )
        );
    }

    #[test]
    fn a_names_the_commit_a_snapshot_missed() {
        let h = recording();
        begin(&h, txn(0, 0), 5, &[]);
        commit(
            &h,
            txn(0, 0),
            &[("x", Some("a")), ("y", Some("b"))],
            Some(10),
        );
        begin(
            &h,
            txn(1, 0),
            12,
            &[("x", version(10, Some("a"))), ("y", loaded())],
        );
        assert_eq!(
            only_violation(&h),
            (
                Rule::A,
                "(A) c1.0 at usery/f0: read version 0 at snapshot 12, missing c0.0's commit at 10"
                    .to_owned()
            )
        );
    }

    #[test]
    fn w_names_overlapping_writers_of_one_cell() {
        let h = recording();
        begin(&h, txn(0, 0), 5, &[]);
        commit(&h, txn(0, 0), &[("x", Some("a"))], Some(10));
        begin(&h, txn(1, 0), 8, &[]);
        commit(&h, txn(1, 0), &[("x", Some("b"))], Some(12));
        assert_eq!(
            only_violation(&h),
            (
                Rule::W,
                "(W) c1.0 at userx/f0: committed at 12 from snapshot 8, over c0.0's commit at 10"
                    .to_owned()
            )
        );
    }

    #[test]
    fn m_names_a_snapshot_that_went_backwards() {
        let h = recording();
        begin(&h, txn(0, 0), 20, &[]);
        begin(&h, txn(1, 0), 3, &[]);
        begin(&h, txn(0, 1), 15, &[]);
        assert_eq!(
            only_violation(&h),
            (Rule::M, "(M) c0.1: snapshot 15 below c0.0's 20".to_owned())
        );
    }

    #[test]
    fn the_read_back_is_checked_by_the_same_rules() {
        let h = recording();
        begin(&h, txn(0, 0), 5, &[]);
        commit(&h, txn(0, 0), &[("x", Some("a"))], Some(10));
        let read_back = [Read {
            row: row("x"),
            column: Bytes::from_static(b"f0"),
            seen: version(10, Some("b")),
        }];
        let found: Vec<String> = h
            .check_read_back(&read_back)
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            found,
            ["(R) read-back at userx/f0: read version 10 holding a value c0.0 did not write"]
        );
    }
}
