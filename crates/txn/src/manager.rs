//! The transaction manager component: begin / commit, commit-time
//! logging, client sessions, and the flush watermark for read snapshots.

use crate::conflict::ConflictChecker;
use crate::log::{LogRecord, RecoveryLog, RecoveryLogConfig};
use cumulo_sim::{Network, NodeId, Sim, SimDuration};
use cumulo_store::{ClientId, Timestamp, WriteSet};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::RangeInclusive;
use std::rc::{Rc, Weak};

/// Identifier of an in-flight transaction, chosen by the client that
/// runs it (see [`TxnId::new`]).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl TxnId {
    /// The id of `client`'s `seq`-th transaction: the client in the high
    /// 32 bits, its sequence in the low 32. Clients never share an id, so
    /// a client names a transaction itself and can send its commit before
    /// the manager has answered its begin.
    pub fn new(client: ClientId, seq: u32) -> TxnId {
        TxnId((u64::from(client.0) << 32) | u64::from(seq))
    }

    /// The client that named this transaction.
    pub fn client(self) -> ClientId {
        ClientId((self.0 >> 32) as u32)
    }

    /// Every id `client` can name: ids order client first, so one
    /// client's transactions are one contiguous range.
    fn of_client(client: ClientId) -> RangeInclusive<TxnId> {
        TxnId::new(client, 0)..=TxnId::new(client, u32::MAX)
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// What a client's every begin and idle query carries, as the client
/// knows it when it sends (see [`TransactionManager::catch_up`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Session {
    /// The client's lowest transaction begun and not yet ended at the
    /// client, or the next id it will name if none is.
    pub floor: TxnId,
    /// The client's `T_F(c)`: each of its commits at or below it is flushed.
    pub t_f: Timestamp,
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

/// The transaction manager. Runs on its own node; other components reach
/// it through a [`crate::TmClient`], which wraps every call in network
/// messages.
pub struct TransactionManager {
    node: NodeId,
    conflicts: ConflictChecker,
    log: Rc<RecoveryLog>,
    /// Every open transaction (begun, not yet ended) with its read
    /// snapshot, which it pins against MVCC garbage collection for as
    /// long as it is here. Ordered client by client (see
    /// [`TxnId::new`]).
    open: RefCell<BTreeMap<TxnId, Timestamp>>,
    /// Unflushed commit timestamps, each with the client that committed it.
    pending_flush: RefCell<BTreeMap<Timestamp, ClientId>>,
    /// The newest commit timestamp handed out ([`Timestamp::ZERO`], the
    /// "before everything" threshold, until the first commit).
    last_ts: Cell<Timestamp>,
    /// All transactions with ts ≤ watermark are committed *and* flushed;
    /// new transactions read at this snapshot.
    watermark: Cell<Timestamp>,
    commits: Cell<u64>,
    conflict_aborts: Cell<u64>,
}

impl fmt::Debug for TransactionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransactionManager")
            .field("node", &self.node)
            .field("open", &self.open.borrow().len())
            .field("commits", &self.commits.get())
            .field("watermark", &self.watermark.get())
            .finish()
    }
}

impl TransactionManager {
    /// Creates the manager on `node` and starts its background timers.
    pub fn new(sim: &Sim, net: &Rc<Network>, node: NodeId) -> Rc<TransactionManager> {
        let tm = Rc::new(TransactionManager {
            node,
            conflicts: ConflictChecker::new(),
            log: RecoveryLog::new(sim, RecoveryLogConfig::default()),
            open: RefCell::new(BTreeMap::new()),
            pending_flush: RefCell::new(BTreeMap::new()),
            last_ts: Cell::new(Timestamp::ZERO),
            watermark: Cell::new(Timestamp::ZERO),
            commits: Cell::new(0),
            conflict_aborts: Cell::new(0),
        });
        let weak: Weak<TransactionManager> = Rc::downgrade(&tm);
        net.every(node, PRUNE_INTERVAL, PRUNE_INTERVAL, move || {
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

    /// Starts `txn` once its client's `session` is caught up with: returns
    /// its read snapshot (the flush watermark), pinned while `txn` is open
    /// so MVCC garbage collection (store-file compaction) never drops a
    /// version it can observe. A re-sent begin of a still-open `txn` gets
    /// its first snapshot back and pins nothing more.
    pub fn handle_begin(&self, txn: TxnId, session: Session) -> Timestamp {
        debug_assert!(session.floor <= txn && session.floor.client() == txn.client());
        self.catch_up(session);
        *self
            .open
            .borrow_mut()
            .entry(txn)
            .or_insert(self.watermark.get())
    }

    /// Ends the session's client's open transactions below the floor (a
    /// read-only commit or an abort sends nothing) and forgets its pending
    /// flushes at or below `T_F(c)` (a flush-complete may be lost). Only a
    /// forgotten flush re-runs the watermark: a conflict abort's timestamp
    /// is never pending, and waits for the next flush-complete.
    pub fn catch_up(&self, session: Session) {
        let client = session.floor.client();
        self.open
            .borrow_mut()
            .extract_if(TxnId::new(client, 0)..session.floor, |_, _| true)
            .for_each(drop);
        let forgot = self
            .pending_flush
            .borrow_mut()
            .extract_if(..=session.t_f, |_, committer| *committer == client)
            .count();
        if forgot > 0 {
            self.advance_watermark();
        }
    }

    /// Commit request of a transaction that wrote something (a read-only
    /// one sends nothing: the client's next session ends it).
    /// On success the outcome (with the assigned commit timestamp) is
    /// delivered through `reply` *after* the write-set is durable in the
    /// recovery log; conflict aborts reply immediately.
    pub fn handle_commit(
        self: &Rc<Self>,
        txn: TxnId,
        write_set: WriteSet,
        reply: impl FnOnce(CommitOutcome) + 'static,
    ) {
        debug_assert!(!write_set.is_empty(), "{txn:?}: read-only, so never sent");
        let Some(start_ts) = self.open.borrow_mut().remove(&txn) else {
            reply(CommitOutcome::UnknownTxn);
            return;
        };
        let commit_ts = Timestamp(self.last_ts.get().0 + 1);
        self.last_ts.set(commit_ts);
        if !self
            .conflicts
            .check_and_record(&write_set, start_ts, commit_ts)
        {
            self.conflict_aborts.set(self.conflict_aborts.get() + 1);
            reply(CommitOutcome::Conflict);
            return;
        }
        self.pending_flush
            .borrow_mut()
            .insert(commit_ts, txn.client());
        let record = LogRecord {
            ts: commit_ts,
            client: txn.client(),
            write_set,
        };
        let this = Rc::clone(self);
        self.log.append(record, move || {
            this.commits.set(this.commits.get() + 1);
            reply(CommitOutcome::Committed(commit_ts));
        });
    }

    /// Client-failure notification (from the recovery manager): ends
    /// every transaction the dead client still had open, releasing their
    /// pinned snapshots so the MVCC garbage-collection watermark can keep
    /// advancing. Returns the reaped transactions in `TxnId` order.
    pub fn handle_client_failed(&self, client: ClientId) -> Vec<TxnId> {
        self.open
            .borrow_mut()
            .extract_if(TxnId::of_client(client), |_, _| true)
            .map(|(txn, _)| txn)
            .collect()
    }

    /// Flush-completion notification: transaction `ts`'s write-set has
    /// been applied at every participant server. Advances the watermark.
    pub fn handle_flush_complete(&self, ts: Timestamp) {
        self.pending_flush.borrow_mut().remove(&ts);
        self.advance_watermark();
    }

    fn advance_watermark(&self) {
        let candidate = match self.pending_flush.borrow().first_key_value() {
            Some((min, _)) => Timestamp(min.0 - 1),
            None => self.last_ts.get(),
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
    /// Every open transaction pins its read snapshot; the oldest pin
    /// bounds what current readers see, and the flush watermark bounds
    /// what *future* transactions will read at (new snapshots are handed
    /// out at the watermark, which only advances). Store-file compaction
    /// may therefore drop any version shadowed at or below this
    /// timestamp.
    pub fn oldest_active_snapshot(&self) -> Timestamp {
        let oldest = self.open.borrow().values().min().copied();
        oldest.unwrap_or_else(|| self.watermark.get())
    }

    /// The most recently assigned commit timestamp.
    pub fn last_commit_ts(&self) -> Timestamp {
        self.last_ts.get()
    }

    /// Transactions currently executing (begun, not terminated).
    pub fn active_count(&self) -> usize {
        self.open.borrow().len()
    }

    /// Logged commits so far, counted once durable.
    pub fn commit_count(&self) -> u64 {
        self.commits.get()
    }

    /// Aborts due to write-write conflicts.
    pub fn conflict_abort_count(&self) -> u64 {
        self.conflict_aborts.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulo_sim::LatencyConfig;
    use cumulo_store::Mutation;

    fn tm() -> (Sim, Rc<TransactionManager>) {
        let sim = Sim::new(2);
        let net = Network::new(&sim, LatencyConfig::instant());
        let tm = TransactionManager::new(&sim, &net, net.add_node("txn-manager"));
        (sim, tm)
    }

    fn ws(row: &str) -> WriteSet {
        vec![Mutation::put(row.to_string(), "c", "v")]
            .into_iter()
            .collect()
    }

    /// The session of a client that has ended nothing, at `T_F(c)` = `t_f`.
    fn session(client: ClientId, t_f: Timestamp) -> Session {
        Session {
            floor: TxnId::new(client, 0),
            t_f,
        }
    }

    /// The session of `txn`'s client once `txn` and all before it ended.
    fn past(txn: TxnId, t_f: Timestamp) -> Session {
        Session {
            floor: TxnId(txn.0 + 1),
            t_f,
        }
    }

    /// Begins a transaction of `client` under an id no earlier call on
    /// this test's thread used, as the client would name it.
    fn begin(tm: &TransactionManager, client: ClientId) -> (TxnId, Timestamp) {
        thread_local!(static SEQ: Cell<u32> = const { Cell::new(0) });
        let seq = SEQ.with(|seq| seq.replace(seq.get() + 1));
        let txn = TxnId::new(client, seq);
        (txn, tm.handle_begin(txn, session(client, Timestamp::ZERO)))
    }

    /// Commits a one-put transaction of `client` and returns its
    /// timestamp once the log has it.
    fn commit(sim: &Sim, tm: &Rc<TransactionManager>, client: ClientId, row: &str) -> Timestamp {
        let (txn, _) = begin(tm, client);
        let got = Rc::new(Cell::new(None));
        let g = got.clone();
        tm.handle_commit(txn, ws(row), move |o| match o {
            CommitOutcome::Committed(ts) => g.set(Some(ts)),
            other => panic!("unexpected outcome {other:?}"),
        });
        sim.run_for(SimDuration::from_millis(50));
        got.get().expect("committed")
    }

    #[test]
    fn commit_assigns_monotonic_timestamps_after_log_durability() {
        let (sim, tm) = tm();
        let out: Rc<RefCell<Vec<Timestamp>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let (txn, _) = begin(&tm, ClientId(0));
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
        let (straggler, start) = begin(&tm, ClientId(0));
        // A rival commits and fully flushes a write to the same cell.
        let (rival, _) = begin(&tm, ClientId(1));
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
        let (later, _) = begin(&tm, ClientId(2));
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
        let (a, _) = begin(&tm, ClientId(0));
        let (b, _) = begin(&tm, ClientId(1));
        let outcome: Rc<RefCell<Option<CommitOutcome>>> = Rc::new(RefCell::new(None));
        tm.handle_commit(a, ws("same-row"), |_| {});
        let o = outcome.clone();
        tm.handle_commit(b, ws("same-row"), move |out| *o.borrow_mut() = Some(out));
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(*outcome.borrow(), Some(CommitOutcome::Conflict));
        assert_eq!(tm.conflict_abort_count(), 1);
        assert_eq!(tm.log().len(), 1, "aborted write-set is not logged");
    }

    /// The floor ends exactly the floor client's transactions below it:
    /// not another client's (whose ids may be lower), not its own at or
    /// above it. An ended transaction's commit is unknown, and catching up
    /// twice is catching up once.
    #[test]
    fn catch_up_ends_only_the_floor_clients_transactions_below_the_floor() {
        let (sim, tm) = tm();
        let (other, _) = begin(&tm, ClientId(6));
        let (ended, _) = begin(&tm, ClientId(7));
        let (floor, _) = begin(&tm, ClientId(7));
        let (above, _) = begin(&tm, ClientId(7));
        let (later_client, _) = begin(&tm, ClientId(8));
        let at_floor = Session {
            floor,
            t_f: Timestamp::ZERO,
        };
        tm.catch_up(at_floor);
        tm.catch_up(at_floor);
        let open: Vec<TxnId> = tm.open.borrow().keys().copied().collect();
        assert_eq!(open, [other, floor, above, later_client]);
        let got: Rc<RefCell<Option<CommitOutcome>>> = Rc::new(RefCell::new(None));
        let g = got.clone();
        tm.handle_commit(ended, ws("x"), move |o| *g.borrow_mut() = Some(o));
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(*got.borrow(), Some(CommitOutcome::UnknownTxn));
        assert_eq!(tm.log().len(), 0, "an ended transaction is never logged");
    }

    /// `T_F(c)` forgets the client's own pending flushes at or below it,
    /// and only then moves the watermark: a conflict-aborted commit drew a
    /// timestamp that no flush will report, and a catch-up that forgets
    /// nothing must not carry the watermark up to it.
    #[test]
    fn catch_up_forgets_only_the_clients_flushes_at_or_below_t_f() {
        let (sim, tm) = tm();
        let (a, b) = (ClientId(0), ClientId(1));
        let a1 = commit(&sim, &tm, a, "a1");
        let b1 = commit(&sim, &tm, b, "b1");
        let a2 = commit(&sim, &tm, a, "a2");
        assert_eq!(tm.watermark(), Timestamp::ZERO);
        tm.catch_up(session(a, a1));
        assert_eq!(tm.watermark(), a1, "a1 forgotten, b1 holds the rest");
        tm.catch_up(session(a, a2));
        tm.catch_up(session(a, a2));
        assert_eq!(tm.watermark(), a1, "b1 is not client a's to forget");
        tm.catch_up(session(b, a1));
        assert_eq!(tm.watermark(), a1, "b1 is above b's T_F(c)");
        tm.catch_up(session(b, b1));
        assert_eq!(tm.watermark(), a2);

        // A conflict abort draws a timestamp and pends nothing.
        let (loser, _) = begin(&tm, b);
        commit(&sim, &tm, a, "contested");
        let watermark = tm.watermark();
        tm.handle_flush_complete(tm.last_commit_ts());
        let watermark_after_flush = tm.watermark();
        assert!(watermark_after_flush > watermark);
        tm.handle_commit(loser, ws("contested"), |o| {
            assert_eq!(o, CommitOutcome::Conflict)
        });
        assert!(tm.last_commit_ts() > watermark_after_flush);
        tm.catch_up(past(loser, tm.last_commit_ts()));
        assert_eq!(tm.watermark(), watermark_after_flush, "nothing forgotten");
    }

    #[test]
    fn watermark_advances_only_after_flush_completion() {
        let (sim, tm) = tm();
        let (a, _) = begin(&tm, ClientId(0));
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
        let (_, snap) = begin(&tm, ClientId(1));
        assert!(snap < ts);
        tm.handle_flush_complete(ts);
        assert_eq!(tm.watermark(), ts);
        let (_, snap2) = begin(&tm, ClientId(1));
        assert_eq!(snap2, ts);
    }

    #[test]
    fn watermark_respects_out_of_order_flushes() {
        let (sim, tm) = tm();
        let mut tss = Vec::new();
        let out: Rc<RefCell<Vec<Timestamp>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let (t, _) = begin(&tm, ClientId(0));
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

    /// A read-only transaction the floor ends is not logged, draws no
    /// timestamp, counts no commit and frees the snapshot's pin.
    #[test]
    fn floor_ends_a_read_only_transaction_unlogged_and_unpins() {
        let (sim, tm) = tm();
        let (reader, snap) = begin(&tm, ClientId(0));
        let (writer, _) = begin(&tm, ClientId(1));
        tm.handle_commit(writer, ws("r"), |_| {});
        sim.run_for(SimDuration::from_millis(50));
        tm.handle_flush_complete(tm.last_commit_ts());
        assert!(tm.watermark() > snap);
        assert_eq!(tm.oldest_active_snapshot(), snap, "the reader pins it");
        let (last_ts, logged) = (tm.last_commit_ts(), tm.log().len());

        tm.catch_up(past(reader, Timestamp::ZERO));
        assert_eq!(tm.log().len(), logged, "nothing logged");
        assert_eq!(tm.last_commit_ts(), last_ts, "no timestamp drawn");
        assert_eq!(tm.commit_count(), 1);
        assert_eq!(tm.active_count(), 0);
        assert_eq!(tm.oldest_active_snapshot(), tm.watermark(), "pin freed");
    }

    /// A begin the client sends again (its first reply was lost) is
    /// recognised by its id: it gets the snapshot the first one got, even
    /// after the watermark moved, and pins it once, so one floor past it
    /// frees it. Its session's floor is the transaction itself.
    #[test]
    fn resent_begin_returns_its_first_snapshot_and_pins_it_once() {
        let (sim, tm) = tm();
        let (reader, snap) = begin(&tm, ClientId(0));
        let (writer, _) = begin(&tm, ClientId(1));
        tm.handle_commit(writer, ws("r"), |_| {});
        sim.run_for(SimDuration::from_millis(50));
        tm.handle_flush_complete(tm.last_commit_ts());
        assert!(tm.watermark() > snap);

        let at_itself = Session {
            floor: reader,
            t_f: Timestamp::ZERO,
        };
        assert_eq!(
            tm.handle_begin(reader, at_itself),
            snap,
            "the first snapshot"
        );
        assert_eq!(tm.active_count(), 1);
        assert_eq!(tm.oldest_active_snapshot(), snap);
        tm.catch_up(past(reader, Timestamp::ZERO));
        assert_eq!(tm.active_count(), 0);
        assert_eq!(tm.oldest_active_snapshot(), tm.watermark(), "pin freed");
    }

    #[test]
    fn txn_id_names_its_client() {
        let txn = TxnId::new(ClientId(u32::MAX), 7);
        assert_eq!(txn.client(), ClientId(u32::MAX));
        assert!(TxnId::of_client(ClientId(3)).contains(&TxnId::new(ClientId(3), u32::MAX)));
        assert!(!TxnId::of_client(ClientId(3)).contains(&TxnId::new(ClientId(4), 0)));
    }

    #[test]
    fn client_failure_reaps_open_txns_and_their_pins() {
        let (_sim, tm) = tm();
        let (_a, snap) = begin(&tm, ClientId(7));
        let (_b, _) = begin(&tm, ClientId(7));
        let (_c, _) = begin(&tm, ClientId(8));
        assert_eq!(tm.active_count(), 3);
        assert_eq!(tm.oldest_active_snapshot(), snap);
        assert_eq!(tm.handle_client_failed(ClientId(7)).len(), 2);
        assert_eq!(tm.active_count(), 1, "only the live client's txn remains");
        // Reaping twice is a no-op.
        assert!(tm.handle_client_failed(ClientId(7)).is_empty());
    }

    /// Regression (CD001): reaping a failed client's transactions once
    /// walked a HashMap in hash order, aborting (and unpinning snapshots)
    /// in a per-process order. The reap must be in TxnId order.
    #[test]
    fn client_failure_reaps_in_txn_id_order() {
        let (_sim, tm) = tm();
        // Interleave the doomed client's begins with a survivor's and
        // number them out of order, so neither arrival order nor
        // contiguity hands the reap its order.
        let mut doomed_ids = Vec::new();
        for i in 0..24u32 {
            let client = ClientId(1 + (i % 2));
            let txn = TxnId::new(client, i * 7 % 24);
            tm.handle_begin(txn, session(client, Timestamp::ZERO));
            if client == ClientId(1) {
                doomed_ids.push(txn);
            }
        }
        let reaped = tm.handle_client_failed(ClientId(1));
        doomed_ids.sort_unstable();
        assert_eq!(reaped, doomed_ids, "reap must be exactly in TxnId order");
        assert_eq!(tm.active_count(), 12, "the survivor's txns stay open");
    }

    #[test]
    fn oldest_active_snapshot_tracks_pins_and_watermark() {
        let (sim, tm) = tm();
        // No active transactions: GC watermark follows the flush watermark.
        assert_eq!(tm.oldest_active_snapshot(), tm.watermark());
        let (a, snap_a) = begin(&tm, ClientId(0));
        assert_eq!(tm.oldest_active_snapshot(), snap_a);
        // Commit a write so the flush watermark can move past snap_a.
        let (b, _) = begin(&tm, ClientId(1));
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
        tm.catch_up(past(a, Timestamp::ZERO));
        assert_eq!(tm.oldest_active_snapshot(), tm.watermark());
    }
}
