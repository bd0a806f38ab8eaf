//! The run's transactions as their clients saw them, and the check that
//! they form a snapshot-isolated history.
//!
//! Every transaction passes through one door, the
//! [`Transaction`](crate::Transaction) handle, and a [`History`] attached
//! to the cluster ([`Cluster::attach_history`](crate::Cluster::attach_history))
//! logs what crosses it, per transaction:
//!
//! * the snapshot the begin reply handed out;
//! * each read's cell and what it saw: the store's version (its commit
//!   timestamp and value), no version at all, or the transaction's own
//!   buffered write;
//! * the write-set, at the moment the commit request leaves;
//! * the outcome: the commit timestamp (a read-only commit is logged at
//!   its snapshot), an abort and its cause, or nothing, when the client
//!   died before it learned one.
//!
//! A version's timestamp *is* its writer's identity, so nothing on the
//! wire widens. Recording is pure, under the journals' rules: it draws no
//! RNG, schedules no event and sends no message, so a run with a history
//! attached is the run without one, and two runs of one seed
//! [`dump`](History::dump) byte-identical histories.
//!
//! [`History::check`] checks the recorded transactions against the rules
//! ARCHITECTURE ("History check") states; [`History::check_read_back`]
//! checks a read-back of every written cell at the newest version
//! ([`Cluster::read_back`](crate::Cluster::read_back)) by the same read
//! rules.

mod check;

pub use check::{Rule, Violation};

use bytes::Bytes;
use cumulo_store::{MutationKind, Timestamp, VersionedValue, WriteSet};
use cumulo_txn::TxnId;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::rc::Rc;

/// What one read saw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Seen {
    /// The transaction's own buffered write answered it.
    Own,
    /// The store had no version of the cell at or below the snapshot.
    Absent,
    /// The store's version: the commit timestamp that wrote it and its
    /// value (`None` for a tombstone).
    Version(Timestamp, Option<Bytes>),
}

impl Seen {
    /// What a store read's answer says.
    pub(crate) fn of(vv: Option<&VersionedValue>) -> Seen {
        match vv {
            None => Seen::Absent,
            Some(v) => Seen::Version(v.ts, v.value.clone()),
        }
    }
}

/// One read of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Read {
    /// Row key.
    pub row: Bytes,
    /// Column qualifier.
    pub column: Bytes,
    /// What it saw.
    pub seen: Seen,
}

/// How a transaction ended, as its client learned it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub(crate) enum Outcome {
    /// No outcome learned: still open, or its client died first. A
    /// transaction whose commit request left and that ends the run here
    /// is *unresolved*: the manager may have committed it.
    #[default]
    Pending,
    /// Committed at this timestamp (a read-only commit at its snapshot).
    Committed(Timestamp),
    /// Aborted, with the cause its `txn.abort` span names.
    Aborted(&'static str),
}

/// One transaction as its client saw it.
#[derive(Debug, Default)]
struct TxnRecord {
    /// The snapshot, once the begin reply landed.
    snapshot: Option<Timestamp>,
    /// Its reads, in the order their answers arrived.
    reads: Vec<Read>,
    /// The write-set its commit request carried (`None`: none left; a
    /// read-only commit sends none).
    writes: Option<WriteSet>,
    /// How it ended.
    outcome: Outcome,
}

impl TxnRecord {
    /// The write-set that may have reached the store: a commit's, or an
    /// unresolved transaction's.
    fn applied_writes(&self) -> Option<&WriteSet> {
        match self.outcome {
            Outcome::Aborted(_) => None,
            Outcome::Committed(_) | Outcome::Pending => self.writes.as_ref(),
        }
    }
}

struct Inner {
    recording: Cell<bool>,
    txns: RefCell<BTreeMap<TxnId, TxnRecord>>,
}

/// The recorded transactions of a run (see the module docs). Cheap to
/// clone; clones share one record.
#[derive(Clone)]
pub struct History {
    inner: Rc<Inner>,
}

impl History {
    /// An empty history that records nothing until
    /// [`History::attach`]: what a cluster's clients are born with.
    pub(crate) fn detached() -> History {
        History {
            inner: Rc::new(Inner {
                recording: Cell::new(false),
                txns: RefCell::new(BTreeMap::new()),
            }),
        }
    }

    /// Starts recording: the transactions begun from now on are logged.
    pub(crate) fn attach(&self) {
        self.inner.recording.set(true);
    }

    /// Whether it records: the client's read paths copy a cell's key for
    /// the history only then.
    pub(crate) fn recording(&self) -> bool {
        self.inner.recording.get()
    }

    /// Applies `f` to `txn`'s record, if it has one: a transaction begun
    /// before recording started is not logged at all.
    fn update(&self, txn: TxnId, f: impl FnOnce(&mut TxnRecord)) {
        if !self.recording() {
            return;
        }
        if let Some(record) = self.inner.txns.borrow_mut().get_mut(&txn) {
            f(record);
        }
    }

    /// `txn`'s begin request left.
    pub(crate) fn begun(&self, txn: TxnId) {
        if self.recording() {
            self.inner
                .txns
                .borrow_mut()
                .insert(txn, TxnRecord::default());
        }
    }

    /// `txn`'s begin reply handed out `snapshot`.
    pub(crate) fn snapshot(&self, txn: TxnId, snapshot: Timestamp) {
        self.update(txn, |r| r.snapshot = Some(snapshot));
    }

    /// A read of `txn` saw `seen`.
    pub(crate) fn read(&self, txn: TxnId, row: &Bytes, column: &Bytes, seen: Seen) {
        self.update(txn, |r| {
            r.reads.push(Read {
                row: row.clone(),
                column: column.clone(),
                seen,
            })
        });
    }

    /// `txn`'s commit request left carrying `writes`.
    pub(crate) fn commit_sent(&self, txn: TxnId, writes: &WriteSet) {
        self.update(txn, |r| r.writes = Some(writes.clone()));
    }

    /// `txn`'s client learned `outcome`.
    pub(crate) fn ended(&self, txn: TxnId, outcome: Outcome) {
        self.update(txn, |r| r.outcome = outcome);
    }

    /// Every cell a committed or unresolved write-set holds, in cell
    /// order: what a read-back audits.
    pub(crate) fn written_cells(&self) -> Vec<(Bytes, Bytes)> {
        let txns = self.inner.txns.borrow();
        let cells: BTreeSet<(Bytes, Bytes)> = txns
            .values()
            .filter_map(TxnRecord::applied_writes)
            .flat_map(|ws| &ws.mutations)
            .map(|m| (m.row.clone(), m.column.clone()))
            .collect();
        cells.into_iter().collect()
    }

    /// Checks the recorded transactions by (R), (A), (W) and (M); empty
    /// when the history is snapshot-isolated as far as they go.
    pub fn check(&self) -> Vec<Violation> {
        check::transactions(&self.inner.txns.borrow())
    }

    /// Checks reads taken at the newest version ([`Timestamp::MAX`]) by
    /// (R) and (A), against the recorded commits.
    pub fn check_read_back(&self, reads: &[Read]) -> Vec<Violation> {
        check::read_back(&self.inner.txns.borrow(), reads)
    }

    /// The history as text, one line per transaction in id order: its
    /// snapshot, each read's cell and what it saw (`@ts`, `@ts-` for a
    /// tombstone, `@none`, `@own`), each written cell (`-` for a delete)
    /// and the outcome. Two runs of one seed dump the same bytes.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (&txn, r) in self.inner.txns.borrow().iter() {
            let _ = write!(out, "{}", check::name(Some(txn)));
            if let Some(s) = r.snapshot {
                let _ = write!(out, " snapshot={s}");
            }
            for read in &r.reads {
                let _ = write!(out, " read={}", check::cell_name(&read.row, &read.column));
                let _ = match &read.seen {
                    Seen::Own => write!(out, "@own"),
                    Seen::Absent => write!(out, "@none"),
                    Seen::Version(ts, Some(_)) => write!(out, "@{ts}"),
                    Seen::Version(ts, None) => write!(out, "@{ts}-"),
                };
            }
            for m in r.writes.iter().flat_map(|ws| &ws.mutations) {
                let _ = write!(out, " write={}", check::cell_name(&m.row, &m.column));
                if matches!(m.kind, MutationKind::Delete) {
                    out.push('-');
                }
            }
            let _ = match r.outcome {
                Outcome::Pending => writeln!(out, " pending"),
                Outcome::Committed(ts) => writeln!(out, " committed={ts}"),
                Outcome::Aborted(cause) => writeln!(out, " aborted={cause}"),
            };
        }
        out
    }
}
