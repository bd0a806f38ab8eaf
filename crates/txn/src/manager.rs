//! The transaction manager component: begin / commit / abort, commit-time
//! logging, and the flush watermark for read snapshots.

use crate::conflict::ConflictChecker;
use crate::log::{LogRecord, RecoveryLog, RecoveryLogConfig};
use crate::oracle::TimestampOracle;
use cumulo_sim::{every, NodeId, Sim, SimDuration, TimerHandle};
use cumulo_store::{ClientId, Timestamp, WriteSet};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::rc::{Rc, Weak};

/// Identifier of an in-flight transaction.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// The transaction manager's commit decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Committed with this timestamp; the write-set is durable in the
    /// recovery log. The client must now flush it to the store.
    Committed(Timestamp),
    /// Aborted due to a write-write conflict (first committer won).
    Conflict,
    /// The transaction id is unknown (already terminated).
    UnknownTxn,
}

/// Period of the conflict-table prune.
const PRUNE_INTERVAL: SimDuration = SimDuration::from_secs(10);

struct ActiveTxn {
    client: ClientId,
    start_ts: Timestamp,
}

/// The transaction manager. Runs on its own node; other components reach
/// it through a [`crate::TmClient`], which wraps every call in network
/// messages.
pub struct TransactionManager {
    node: NodeId,
    oracle: TimestampOracle,
    conflicts: ConflictChecker,
    log: Rc<RecoveryLog>,
    active: RefCell<HashMap<TxnId, ActiveTxn>>,
    next_txn: Cell<u64>,
    /// Commit timestamps whose write-sets are not yet fully flushed.
    pending_flush: RefCell<BTreeSet<Timestamp>>,
    /// All transactions with ts ≤ watermark are committed *and* flushed;
    /// new transactions read at this snapshot.
    watermark: Cell<Timestamp>,
    commits: Cell<u64>,
    aborts: Cell<u64>,
    conflict_aborts: Cell<u64>,
    timers: RefCell<Vec<TimerHandle>>,
}

impl fmt::Debug for TransactionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransactionManager")
            .field("node", &self.node)
            .field("active", &self.active.borrow().len())
            .field("commits", &self.commits.get())
            .field("watermark", &self.watermark.get())
            .finish()
    }
}

impl TransactionManager {
    /// Creates the manager on `node` and starts its background timers.
    pub fn new(sim: &Sim, node: NodeId) -> Rc<TransactionManager> {
        let tm = Rc::new(TransactionManager {
            node,
            oracle: TimestampOracle::new(),
            conflicts: ConflictChecker::new(),
            log: RecoveryLog::new(sim, RecoveryLogConfig::default()),
            active: RefCell::new(HashMap::new()),
            next_txn: Cell::new(1),
            pending_flush: RefCell::new(BTreeSet::new()),
            watermark: Cell::new(Timestamp::ZERO),
            commits: Cell::new(0),
            aborts: Cell::new(0),
            conflict_aborts: Cell::new(0),
            timers: RefCell::new(Vec::new()),
        });
        let weak: Weak<TransactionManager> = Rc::downgrade(&tm);
        let timer = every(sim, PRUNE_INTERVAL, move || {
            if let Some(tm) = weak.upgrade() {
                // Prune at the oldest *pinned* snapshot, not the flush
                // watermark: the watermark advances past still-running
                // transactions, and a transaction that began before it
                // moved (e.g. stalled behind a crashed region) must still
                // find the conflict records of everything committed after
                // its start snapshot. Pruning those records early lets
                // such a straggler commit a write-write conflict — a lost
                // update that breaks atomicity invariants downstream
                // (found by `tests/atomicity.rs`'s shifted-RNG probe).
                tm.conflicts.prune_below(tm.oldest_active_snapshot());
            }
        });
        tm.timers.borrow_mut().push(timer);
        tm
    }

    /// The node the manager runs on (RPC destination).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The recovery log (the recovery manager fetches and truncates it).
    pub fn log(&self) -> &Rc<RecoveryLog> {
        &self.log
    }

    /// Starts a transaction for `client`: returns its id and its read
    /// snapshot (the current flush watermark).
    pub fn handle_begin(&self, client: ClientId) -> (TxnId, Timestamp) {
        let id = TxnId(self.next_txn.get());
        self.next_txn.set(id.0 + 1);
        let start_ts = self.watermark.get();
        // Pin the read snapshot so MVCC garbage collection (store-file
        // compaction) never drops a version this transaction can observe.
        self.oracle.pin_snapshot(start_ts);
        self.active
            .borrow_mut()
            .insert(id, ActiveTxn { client, start_ts });
        (id, start_ts)
    }

    /// Commit request. On success the outcome (with the assigned commit
    /// timestamp) is delivered through `reply` *after* the write-set is
    /// durable in the recovery log; conflict aborts reply immediately.
    pub fn handle_commit(
        self: &Rc<Self>,
        txn: TxnId,
        write_set: WriteSet,
        reply: impl FnOnce(CommitOutcome) + 'static,
    ) {
        let Some(info) = self.active.borrow_mut().remove(&txn) else {
            reply(CommitOutcome::UnknownTxn);
            return;
        };
        self.oracle.unpin_snapshot(info.start_ts);
        // Read-only transactions commit without logging or flushing.
        if write_set.is_empty() {
            self.commits.set(self.commits.get() + 1);
            let ts = self.oracle.next_ts();
            self.advance_watermark();
            reply(CommitOutcome::Committed(ts));
            return;
        }
        let commit_ts = self.oracle.next_ts();
        if !self
            .conflicts
            .check_and_record(&write_set, info.start_ts, commit_ts)
        {
            self.aborts.set(self.aborts.get() + 1);
            self.conflict_aborts.set(self.conflict_aborts.get() + 1);
            reply(CommitOutcome::Conflict);
            return;
        }
        self.pending_flush.borrow_mut().insert(commit_ts);
        let record = LogRecord {
            ts: commit_ts,
            client: info.client,
            write_set,
        };
        let this = Rc::clone(self);
        self.log.append(record, move || {
            this.commits.set(this.commits.get() + 1);
            reply(CommitOutcome::Committed(commit_ts));
        });
    }

    /// Client-failure notification (from the recovery manager): aborts
    /// every transaction the dead client still had open, releasing their
    /// pinned snapshots so the MVCC garbage-collection watermark can keep
    /// advancing. Returns the reaped transactions in `TxnId` order.
    pub fn handle_client_failed(&self, client: ClientId) -> Vec<TxnId> {
        let mut doomed: Vec<TxnId> = self
            .active
            .borrow()
            .iter()
            .filter(|(_, info)| info.client == client)
            .map(|(id, _)| *id)
            .collect();
        // `active` is a HashMap; aborting in its iteration order would
        // release locks and emit trace events in a per-process order.
        // Reap in TxnId order so recovery runs stay byte-identical.
        doomed.sort_unstable();
        for txn in &doomed {
            self.handle_abort(*txn);
        }
        doomed
    }

    /// Abort request: the buffered write-set is simply discarded (§2.2:
    /// "it is not stored in the recovery log nor flushed").
    pub fn handle_abort(&self, txn: TxnId) {
        if let Some(info) = self.active.borrow_mut().remove(&txn) {
            self.oracle.unpin_snapshot(info.start_ts);
            self.aborts.set(self.aborts.get() + 1);
        }
    }

    /// Flush-completion notification: transaction `ts`'s write-set has
    /// been applied at every participant server. Advances the watermark.
    pub fn handle_flush_complete(&self, ts: Timestamp) {
        self.pending_flush.borrow_mut().remove(&ts);
        self.advance_watermark();
    }

    fn advance_watermark(&self) {
        let candidate = match self.pending_flush.borrow().iter().next() {
            Some(min) => Timestamp(min.0 - 1),
            None => self.oracle.last_assigned(),
        };
        if candidate > self.watermark.get() {
            self.watermark.set(candidate);
        }
    }

    /// The current flush watermark (read snapshot for new transactions).
    pub fn watermark(&self) -> Timestamp {
        self.watermark.get()
    }

    /// The oldest snapshot any reader can currently observe — the safe
    /// watermark for MVCC garbage collection.
    ///
    /// Every running transaction pins its read snapshot in the oracle;
    /// the oldest pin bounds what current readers see, and the flush
    /// watermark bounds what *future* transactions will read at (new
    /// snapshots are handed out at the watermark, which only advances).
    /// Store-file compaction may therefore drop any version shadowed at
    /// or below this timestamp.
    pub fn oldest_active_snapshot(&self) -> Timestamp {
        self.oracle
            .oldest_pinned()
            .unwrap_or_else(|| self.watermark.get())
    }

    /// The most recently assigned commit timestamp.
    pub fn last_commit_ts(&self) -> Timestamp {
        self.oracle.last_assigned()
    }

    /// Transactions currently executing (begun, not terminated).
    pub fn active_count(&self) -> usize {
        self.active.borrow().len()
    }

    /// Commits so far (including read-only).
    pub fn commit_count(&self) -> u64 {
        self.commits.get()
    }

    /// Aborts so far (explicit + conflict).
    pub fn abort_count(&self) -> u64 {
        self.aborts.get()
    }

    /// Aborts due to write-write conflicts.
    pub fn conflict_abort_count(&self) -> u64 {
        self.conflict_aborts.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulo_store::Mutation;

    fn tm() -> (Sim, Rc<TransactionManager>) {
        let sim = Sim::new(2);
        let node = NodeId(0);
        let tm = TransactionManager::new(&sim, node);
        (sim, tm)
    }

    fn ws(row: &str) -> WriteSet {
        vec![Mutation::put(row.to_string(), "c", "v")]
            .into_iter()
            .collect()
    }

    #[test]
    fn commit_assigns_monotonic_timestamps_after_log_durability() {
        let (sim, tm) = tm();
        let out: Rc<RefCell<Vec<Timestamp>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let (txn, _) = tm.handle_begin(ClientId(0));
            let out = out.clone();
            tm.handle_commit(txn, ws(&format!("row{i}")), move |o| match o {
                CommitOutcome::Committed(ts) => out.borrow_mut().push(ts),
                other => panic!("unexpected outcome {other:?}"),
            });
        }
        assert!(
            out.borrow().is_empty(),
            "commit acks wait for the group commit"
        );
        sim.run_for(SimDuration::from_millis(100));
        let tss = out.borrow().clone();
        assert_eq!(tss.len(), 5);
        assert!(tss.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(tm.commit_count(), 5);
        assert_eq!(tm.log().len(), 5);
    }

    /// Regression: the conflict table must survive pruning for as long
    /// as any *running* transaction could still conflict with it. The
    /// watermark advances past open transactions (their start snapshots
    /// stay pinned below it), so pruning at the watermark let a straggler
    /// — e.g. one stalled behind a crashed region — commit a write-write
    /// conflict as a lost update. Pruning is bounded by the oldest pinned
    /// snapshot instead.
    #[test]
    fn prune_spares_conflicts_of_open_stragglers() {
        let (sim, tm) = tm();
        // The straggler begins first: its snapshot pins the epoch.
        let (straggler, start) = tm.handle_begin(ClientId(0));
        // A rival commits and fully flushes a write to the same cell.
        let (rival, _) = tm.handle_begin(ClientId(1));
        let committed: Rc<RefCell<Option<Timestamp>>> = Rc::new(RefCell::new(None));
        let c2 = committed.clone();
        tm.handle_commit(rival, ws("contested"), move |o| match o {
            CommitOutcome::Committed(ts) => *c2.borrow_mut() = Some(ts),
            other => panic!("unexpected outcome {other:?}"),
        });
        sim.run_for(SimDuration::from_millis(100));
        let rival_ts = committed.borrow().expect("rival committed");
        tm.handle_flush_complete(rival_ts);
        // A later commit on an unrelated cell flushes too, pushing the
        // watermark strictly past the rival's record.
        let (later, _) = tm.handle_begin(ClientId(2));
        let committed_later: Rc<RefCell<Option<Timestamp>>> = Rc::new(RefCell::new(None));
        let c3 = committed_later.clone();
        tm.handle_commit(later, ws("unrelated"), move |o| match o {
            CommitOutcome::Committed(ts) => *c3.borrow_mut() = Some(ts),
            other => panic!("unexpected outcome {other:?}"),
        });
        sim.run_for(SimDuration::from_millis(100));
        let later_ts = committed_later.borrow().expect("later committed");
        tm.handle_flush_complete(later_ts);
        assert!(
            tm.watermark() > rival_ts,
            "the watermark moved past the rival's conflict record"
        );
        assert!(start < rival_ts, "the straggler's snapshot is older");
        // Let the prune timer fire (well past `PRUNE_INTERVAL`).
        sim.run_for(SimDuration::from_secs(25));
        // The straggler now writes the contested cell: must conflict.
        let out: Rc<RefCell<Option<CommitOutcome>>> = Rc::new(RefCell::new(None));
        let o2 = out.clone();
        tm.handle_commit(straggler, ws("contested"), move |o| {
            *o2.borrow_mut() = Some(o);
        });
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(
            out.borrow().clone(),
            Some(CommitOutcome::Conflict),
            "straggler's lost-update commit must abort"
        );
    }

    #[test]
    fn conflicting_commit_aborts() {
        let (sim, tm) = tm();
        let (a, _) = tm.handle_begin(ClientId(0));
        let (b, _) = tm.handle_begin(ClientId(1));
        let outcome: Rc<RefCell<Option<CommitOutcome>>> = Rc::new(RefCell::new(None));
        tm.handle_commit(a, ws("same-row"), |_| {});
        let o = outcome.clone();
        tm.handle_commit(b, ws("same-row"), move |out| *o.borrow_mut() = Some(out));
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(*outcome.borrow(), Some(CommitOutcome::Conflict));
        assert_eq!(tm.conflict_abort_count(), 1);
        assert_eq!(tm.log().len(), 1, "aborted write-set is not logged");
    }

    #[test]
    fn abort_discards_without_logging() {
        let (sim, tm) = tm();
        let (a, _) = tm.handle_begin(ClientId(0));
        tm.handle_abort(a);
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(tm.abort_count(), 1);
        assert_eq!(tm.log().len(), 0);
        // Committing the aborted txn is rejected.
        let got: Rc<RefCell<Option<CommitOutcome>>> = Rc::new(RefCell::new(None));
        let g = got.clone();
        tm.handle_commit(a, ws("x"), move |o| *g.borrow_mut() = Some(o));
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(*got.borrow(), Some(CommitOutcome::UnknownTxn));
    }

    #[test]
    fn watermark_advances_only_after_flush_completion() {
        let (sim, tm) = tm();
        let (a, _) = tm.handle_begin(ClientId(0));
        let ts_cell: Rc<RefCell<Option<Timestamp>>> = Rc::new(RefCell::new(None));
        let t = ts_cell.clone();
        tm.handle_commit(a, ws("r"), move |o| {
            if let CommitOutcome::Committed(ts) = o {
                *t.borrow_mut() = Some(ts);
            }
        });
        sim.run_for(SimDuration::from_millis(50));
        let ts = ts_cell.borrow().expect("committed");
        assert!(tm.watermark() < ts, "not flushed yet");
        // A new transaction still reads below the unflushed commit.
        let (_, snap) = tm.handle_begin(ClientId(1));
        assert!(snap < ts);
        tm.handle_flush_complete(ts);
        assert_eq!(tm.watermark(), ts);
        let (_, snap2) = tm.handle_begin(ClientId(1));
        assert_eq!(snap2, ts);
    }

    #[test]
    fn watermark_respects_out_of_order_flushes() {
        let (sim, tm) = tm();
        let mut tss = Vec::new();
        let out: Rc<RefCell<Vec<Timestamp>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let (t, _) = tm.handle_begin(ClientId(0));
            let out = out.clone();
            tm.handle_commit(t, ws(&format!("r{i}")), move |o| {
                if let CommitOutcome::Committed(ts) = o {
                    out.borrow_mut().push(ts);
                }
            });
        }
        sim.run_for(SimDuration::from_millis(100));
        tss.extend(out.borrow().iter().copied());
        assert_eq!(tss.len(), 3);
        // Flush the middle and last first: watermark held by the first.
        tm.handle_flush_complete(tss[1]);
        tm.handle_flush_complete(tss[2]);
        assert!(tm.watermark() < tss[0]);
        tm.handle_flush_complete(tss[0]);
        assert_eq!(tm.watermark(), tss[2]);
    }

    #[test]
    fn read_only_commit_is_immediate_and_unlogged() {
        let (sim, tm) = tm();
        let (a, _) = tm.handle_begin(ClientId(0));
        let got: Rc<RefCell<Option<CommitOutcome>>> = Rc::new(RefCell::new(None));
        let g = got.clone();
        tm.handle_commit(a, WriteSet::new(), move |o| *g.borrow_mut() = Some(o));
        // No sim time needed: read-only commits do not wait for the log.
        assert!(matches!(*got.borrow(), Some(CommitOutcome::Committed(_))));
        assert_eq!(tm.log().len(), 0);
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(tm.commit_count(), 1);
    }

    #[test]
    fn client_failure_reaps_open_txns_and_their_pins() {
        let (_sim, tm) = tm();
        let (_a, snap) = tm.handle_begin(ClientId(7));
        let (_b, _) = tm.handle_begin(ClientId(7));
        let (_c, _) = tm.handle_begin(ClientId(8));
        assert_eq!(tm.active_count(), 3);
        assert_eq!(tm.oldest_active_snapshot(), snap);
        assert_eq!(tm.handle_client_failed(ClientId(7)).len(), 2);
        assert_eq!(tm.active_count(), 1, "only the live client's txn remains");
        assert_eq!(tm.abort_count(), 2);
        // Reaping twice is a no-op.
        assert!(tm.handle_client_failed(ClientId(7)).is_empty());
    }

    /// Regression (CD001): reaping a failed client's transactions used to
    /// walk the `active` HashMap in hash order, aborting (and unpinning
    /// snapshots) in a per-process order. The reap must be in TxnId order.
    #[test]
    fn client_failure_reaps_in_txn_id_order() {
        let (_sim, tm) = tm();
        // Interleave the doomed client's begins with a survivor's so the
        // doomed TxnIds are non-contiguous.
        let mut doomed_ids = Vec::new();
        for i in 0..24u32 {
            let client = ClientId(1 + (i % 2));
            let (txn, _) = tm.handle_begin(client);
            if client == ClientId(1) {
                doomed_ids.push(txn);
            }
        }
        let reaped = tm.handle_client_failed(ClientId(1));
        doomed_ids.sort_unstable();
        assert_eq!(reaped, doomed_ids, "reap must be exactly in TxnId order");
        assert_eq!(tm.abort_count(), 12);
        assert_eq!(tm.active_count(), 12, "the survivor's txns stay open");
    }

    #[test]
    fn oldest_active_snapshot_tracks_pins_and_watermark() {
        let (sim, tm) = tm();
        // No active transactions: GC watermark follows the flush watermark.
        assert_eq!(tm.oldest_active_snapshot(), tm.watermark());
        let (a, snap_a) = tm.handle_begin(ClientId(0));
        assert_eq!(tm.oldest_active_snapshot(), snap_a);
        // Commit a write so the flush watermark can move past snap_a.
        let (b, _) = tm.handle_begin(ClientId(1));
        let ts_cell: Rc<RefCell<Option<Timestamp>>> = Rc::new(RefCell::new(None));
        let t = ts_cell.clone();
        tm.handle_commit(b, ws("r"), move |o| {
            if let CommitOutcome::Committed(ts) = o {
                *t.borrow_mut() = Some(ts);
            }
        });
        sim.run_for(SimDuration::from_millis(50));
        let ts = ts_cell.borrow().expect("committed");
        tm.handle_flush_complete(ts);
        assert!(tm.watermark() > snap_a);
        // `a` still pins the old snapshot.
        assert_eq!(tm.oldest_active_snapshot(), snap_a);
        tm.handle_abort(a);
        assert_eq!(tm.oldest_active_snapshot(), tm.watermark());
    }
}
