//! The transactional key-value client: the paper's extended HBase client.
//!
//! Provides a first-class [`Transaction`] handle API: [`TransactionalClient::begin`]
//! hands the application a [`Transaction`] whose methods (`get` /
//! `multi_get` / `scan` / `put` / `delete` / `commit` / `abort`) deliver
//! `Result<_, TxnError>` — misuse (commit-twice, an operation after
//! commit, an operation on a crashed or shut-down client) yields a typed
//! error instead of a panic. [`TransactionalClient::run`] re-executes a
//! transaction body under a [`RetryPolicy`] when commit hits a
//! write-write conflict; every retry is a **new** transaction with a
//! fresh snapshot and commit timestamp, never a replay of the old one
//! (so the `T_F(c)` threshold invariant below is untouched by retries).
//!
//! Writes follow the deferred-update model of §2.2: they buffer locally
//! in the transaction's write-set; at commit the write-set goes to the
//! transaction manager, which makes it durable in its recovery log; only
//! *after* commit is the write-set flushed to the store servers. The
//! client runs Algorithm 1: it tracks commit/flush completion in its
//! [`FlushTracker`] and heartbeats its threshold `T_F(c)` to the recovery
//! manager through the coordination service.
//!
//! Reads are served at the transaction's snapshot. [`Transaction::get`]
//! fetches one cell per store round trip; [`Transaction::multi_get`]
//! answers cells the transaction itself wrote locally and fans the rest
//! out as **one store RPC per region** (the batched read path mirroring
//! the write path's per-region write-set grouping).
//!
//! ## The threshold invariant this module maintains
//!
//! Everything client-failure recovery replays is bounded below by the
//! published `T_F(c)`, so the invariant *every local transaction with
//! commit ts ≤ `T_F(c)` is fully flushed* must hold at every publication
//! instant — an overclaim is permanent data loss waiting for a crash.
//! Three rules enforce it here:
//!
//! * `T_F(c)` only advances through the [`FlushTracker`], i.e. in local
//!   commit order and only past transactions whose *every* participant
//!   region acked the flush;
//! * a crash between the two acks of a multi-region flush leaves
//!   `T_F(c)` below that transaction, so recovery replays the full
//!   write-set (idempotent for the already-acked leg);
//! * the idle-threshold shortcut (adopting the manager's newest
//!   assigned timestamp to stop an idle client from pinning log
//!   truncation) is gated on having **no commit in flight**: the
//!   manager assigns timestamps at request receipt but acks after the
//!   log force, so the answer to an idle query can overtake one's own
//!   commit ack and smuggle an unflushed local commit into the
//!   threshold (see ARCHITECTURE.md, "Protocol refinements").

use crate::flush_tracker::FlushTracker;
use crate::history::{History, Outcome, Seen};
use crate::paths;
use bytes::Bytes;
use cumulo_coord::{CoordClient, SessionId};
use cumulo_sim::metrics::Counter;
use cumulo_sim::trace::Field;
use cumulo_sim::{fields, Network, NodeId, Sim, SimDuration, SimTime};
use cumulo_store::{ClientId, Mutation, MutationKind, StoreClient, Timestamp, WriteSet};
use cumulo_txn::{CommitOutcome, Session, TmClient, TxnId};
use std::cell::{RefCell, RefMut};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// When a transaction's durability is achieved, relative to the commit
/// acknowledgement to the application (the comparison of Fig. 2a).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PersistenceMode {
    /// The paper's design: commit acks after the transaction manager's
    /// log force; the write-set flushes to the store afterwards and the
    /// store persists asynchronously.
    Asynchronous,
    /// The baseline: the commit ack additionally waits for the write-set
    /// to be flushed to every participant server and for the servers'
    /// WALs to sync to the filesystem (pair with
    /// [`cumulo_store::WalSyncMode::Sync`]).
    Synchronous,
}

/// Why a transactional operation failed.
///
/// Every public method of [`Transaction`] and [`TransactionalClient`]
/// reports failure through this type — none of them panic on misuse.
/// Only [`TxnError::Conflict`] is transient (a fresh transaction can
/// succeed; [`TransactionalClient::run`] retries it automatically); the
/// other variants describe a handle or client that can no longer make
/// progress.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TxnError {
    /// The transaction manager aborted the commit because of a
    /// write-write conflict with a concurrently committed transaction.
    /// Retrying the *body* in a fresh transaction (new snapshot, new
    /// commit timestamp — see [`TransactionalClient::run`]) may succeed;
    /// replaying the same write-set must never happen.
    Conflict,
    /// The handle does not refer to an active transaction of this
    /// client: it was already committed or aborted (commit-twice and
    /// op-after-commit land here), or the transaction manager lost it.
    UnknownTxn,
    /// The client was shut down ([`TransactionalClient::shutdown`]); no
    /// new transaction can begin.
    ClientClosed,
    /// The client process crashed ([`TransactionalClient::crash`]) or
    /// terminated itself after losing its coordination session; the
    /// recovery manager takes over its unflushed commits.
    ClientDead,
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Conflict => write!(f, "write-write conflict; retry in a new transaction"),
            TxnError::UnknownTxn => write!(f, "not an active transaction (already finished?)"),
            TxnError::ClientClosed => write!(f, "client was shut down"),
            TxnError::ClientDead => write!(f, "client process is dead"),
        }
    }
}

impl Error for TxnError {}

/// Bounded, **deterministic** retry schedule for
/// [`TransactionalClient::run`].
///
/// The backoff sequence is a fixed geometric ramp —
/// `initial_backoff * multiplier^retry`, capped at `max_backoff` — with
/// deliberately **no jitter**: drawing from the shared simulation RNG
/// here would shift the random stream of every run that merely uses the
/// retry combinator, perturbing calibrated schedules (the ROADMAP
/// determinism invariant). Concurrent conflicting retries still spread
/// out because every network message they send draws its own latency
/// jitter.
#[derive(Copy, Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retry; 0 is treated
    /// as 1 — the body always runs at least once).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub initial_backoff: SimDuration,
    /// Geometric growth factor applied per retry (1 = constant backoff).
    pub multiplier: u32,
    /// Upper bound on any single backoff.
    pub max_backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            initial_backoff: SimDuration::from_millis(10),
            multiplier: 2,
            max_backoff: SimDuration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the body runs exactly once).
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The fixed backoff before retry number `retry` (0-based): the
    /// geometric ramp capped at `max_backoff`. Deterministic — no RNG.
    pub fn backoff_for(&self, retry: u32) -> SimDuration {
        let factor = self.multiplier.max(1).saturating_pow(retry.min(16));
        (self.initial_backoff * factor as u64).min(self.max_backoff)
    }
}

/// The continuation a [`TransactionalClient::run`] body calls when it
/// has issued all its operations: `Ok(())` asks the combinator to
/// commit, `Err(e)` aborts the attempt and propagates (or retries, for
/// [`TxnError::Conflict`]).
pub type RunFinish = Box<dyn FnOnce(Result<(), TxnError>)>;

/// A transaction's read snapshot, which the begin reply fills in. The
/// reply's closure and the transaction's handles share it, so a read
/// waiting here completes when the reply lands even if the transaction
/// was committed or aborted in the meantime.
enum Snapshot {
    /// The begin reply is still out: the store reads waiting for it,
    /// chained in issue order.
    Awaited(Option<Box<dyn FnOnce(Timestamp)>>),
    /// The snapshot the manager handed out.
    Known(Timestamp),
}

/// What the client process keeps in memory, and loses with it: a death
/// replaces it whole (`die`). A field added to the client's memory goes
/// here, or it survives a crash.
#[derive(Default)]
struct Memory {
    /// `FQ` and `FQ'` of Algorithm 1, and the threshold `T_F(c)` they
    /// advance.
    tracker: FlushTracker,
    /// The write-set of each transaction from its begin request to its
    /// commit request or abort; the least id is the [`Session`]'s floor.
    active: BTreeMap<TxnId, WriteSet>,
    /// The sequence number the next transaction's id carries.
    next_seq: u32,
    session: Option<SessionId>,
    /// Instant of the last acknowledged round trip to the coordination
    /// service; when it lags by more than the session timeout the client
    /// terminates itself (§3.1: a partitioned client "will result in it
    /// terminating itself").
    last_coord_ack: SimTime,
    closed: bool,
    /// Commit requests sent to the transaction manager whose outcome has
    /// not come back yet (a read-only commit sends none, so it is never in
    /// flight: the manager assigns it no timestamp). While non-zero, the
    /// idle-threshold advancement must not run: the manager may already
    /// have *assigned* a commit timestamp to one of these (it draws the
    /// timestamp on request receipt, but acks only after the log force), so
    /// adopting its "latest assigned" timestamp would overclaim an
    /// unflushed local commit — and a crash mid-flush would then escape
    /// recovery replay, leaving a half-applied write-set.
    commits_in_flight: usize,
}

impl Memory {
    /// A fresh process's memory: `T_F(c)` at zero, nothing open or in
    /// flight, no session, and the coordination service last heard `now`.
    fn new(now: SimTime) -> Self {
        Memory {
            last_coord_ack: now,
            ..Memory::default()
        }
    }

    /// Whether every commit sent has come back and flushed: the guard of
    /// the idle-threshold shortcut, and part of a shutdown's.
    fn idle(&mut self) -> bool {
        self.commits_in_flight == 0 && self.tracker.is_idle()
    }
}

/// The client process: its [`Memory`], and what outlives a crash — the
/// wiring, the store client's region map, the counters and the history
/// (ARCHITECTURE.md, "A process is its node", says why each stays).
struct TcInner {
    sim: Sim,
    net: Rc<Network>,
    id: ClientId,
    node: NodeId,
    tm: TmClient,
    store: StoreClient,
    coord: CoordClient,
    cfg: TxnClientConfig,
    /// Everything the process knows. No borrow of it is held across a
    /// caller's callback, which may kill the process and replace it.
    mem: RefCell<Memory>,
    /// Where this client's transactions are recorded, when a history is
    /// attached (see [`History`]).
    history: History,
    committed: Counter,
    aborted: Counter,
    flushed: Counter,
    alerts: Counter,
    conflict_retries: Counter,
}

/// Pending-commit count above which the client raises an alert
/// (§3.2's stuck-region detector).
const ALERT_PENDING_THRESHOLD: usize = 1_000;

/// Transactional-client settings (all fanned out from `ClusterConfig`).
#[derive(Copy, Clone, Debug)]
pub struct TxnClientConfig {
    /// Heartbeat period (threshold publication + liveness touch). The
    /// paper varies this from 50 ms to 10 s in Fig. 2b.
    pub heartbeat_interval: SimDuration,
    /// Coordination session timeout (client-failure detection latency).
    pub session_timeout: SimDuration,
    /// Sync vs async persistence (Fig. 2a).
    pub persistence: PersistenceMode,
    /// Whether threshold tracking runs at all (ablation: without it, the
    /// recovery manager must replay from the beginning of the log).
    pub tracking: bool,
}

/// A transactional client process. Cheap to clone (shared identity).
#[derive(Clone)]
pub struct TransactionalClient {
    inner: Rc<TcInner>,
}

impl fmt::Debug for TransactionalClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransactionalClient")
            .field("id", &self.inner.id)
            .field("alive", &self.is_alive())
            .field("committed", &self.inner.committed.get())
            .field("t_f", &self.t_f())
            .finish()
    }
}

/// A handle to one in-flight transaction of a [`TransactionalClient`].
///
/// Cheap to clone; all clones refer to the same transaction. The handle
/// stays valid across `commit`/`abort`, but any operation issued after
/// the transaction finished reports [`TxnError::UnknownTxn`] (and after
/// the owning client crashed or shut down, [`TxnError::ClientDead`] /
/// [`TxnError::ClientClosed`]) — misuse never panics.
#[derive(Clone)]
pub struct Transaction {
    inner: Rc<TcInner>,
    id: TxnId,
    snapshot: Rc<RefCell<Snapshot>>,
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.id)
            .field("client", &self.inner.id)
            .finish()
    }
}

impl Transaction {
    /// This transaction's id. The client chooses it ([`TxnId::new`]: its
    /// [`ClientId`] and a per-client sequence), so the id is known before
    /// the transaction manager has answered the begin.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Runs `read` at the transaction's snapshot: now if the begin reply
    /// has landed, else when it lands, after the reads issued before it.
    fn at_snapshot(&self, read: impl FnOnce(Timestamp) + 'static) {
        let ts = match &mut *self.snapshot.borrow_mut() {
            Snapshot::Known(ts) => *ts,
            Snapshot::Awaited(waiting) => {
                *waiting = Some(match waiting.take() {
                    None => Box::new(read),
                    Some(earlier) => Box::new(move |ts| {
                        earlier(ts);
                        read(ts);
                    }),
                });
                return;
            }
        };
        read(ts);
    }

    /// Why this handle has no write-set: a dead client holds none (its
    /// memory went with it), and a live one has ended this transaction.
    fn state_err(&self) -> TxnError {
        if self.inner.is_alive() {
            TxnError::UnknownTxn
        } else {
            TxnError::ClientDead
        }
    }

    /// The transaction's write-set, or why it has none. The borrow is of
    /// the client's memory: drop it before anything calls back.
    fn write_set(&self) -> Result<RefMut<'_, WriteSet>, TxnError> {
        RefMut::filter_map(self.inner.mem.borrow_mut(), |mem| {
            mem.active.get_mut(&self.id)
        })
        .map_err(|_| self.state_err())
    }

    /// Transactional read: the transaction's own buffered writes win
    /// (read-your-own-writes); otherwise the newest version at the
    /// transaction's snapshot is fetched from the store. Tombstones and
    /// missing cells both read as `Ok(None)`.
    pub fn get(
        &self,
        row: impl Into<Bytes>,
        column: impl Into<Bytes>,
        done: impl FnOnce(Result<Option<Bytes>, TxnError>) + 'static,
    ) {
        let (row, column) = (row.into(), column.into());
        let own = match self.write_set() {
            Ok(write_set) => own_write(&write_set, &row, &column),
            Err(e) => return complete(&self.inner.sim, done, Err(e)),
        };
        if let Some(value) = own {
            self.inner.history.read(self.id, &row, &column, Seen::Own);
            return complete(&self.inner.sim, done, Ok(value));
        }
        let inner = Rc::clone(&self.inner);
        let txn = self.id;
        self.at_snapshot(move |start_ts| {
            // Boxed, so the callback stays a pointer wider when nothing
            // records.
            let note = inner
                .recorder()
                .map(|history| Box::new((history, row.clone(), column.clone())));
            inner.store.get(row, column, start_ts, move |vv| {
                if let Some((history, row, column)) = note.map(|note| *note) {
                    history.read(txn, &row, &column, Seen::of(vv.as_ref()));
                }
                done(Ok(vv.and_then(|v| v.value)));
            });
        });
    }

    /// Batched transactional read: like [`Transaction::get`] for every
    /// `(row, column)` in `cells`, but cells this transaction already
    /// wrote are answered locally from the write-set and the remainder
    /// travel as **one store RPC per region** (the store client groups
    /// them by its cached region map, each region server serves its
    /// whole batch in a single message round trip). Results arrive in
    /// input order and are byte-identical to issuing the same `get`s
    /// sequentially at the same snapshot.
    pub fn multi_get(
        &self,
        cells: Vec<(Bytes, Bytes)>,
        done: impl FnOnce(Result<Vec<Option<Bytes>>, TxnError>) + 'static,
    ) {
        let (local, misses) = {
            let write_set = match self.write_set() {
                Ok(write_set) => write_set,
                Err(e) => return complete(&self.inner.sim, done, Err(e)),
            };
            let mut local: Vec<Option<Option<Bytes>>> = Vec::with_capacity(cells.len());
            let mut misses: Vec<(usize, Bytes, Bytes)> = Vec::new();
            for (i, (row, column)) in cells.iter().enumerate() {
                let own = own_write(&write_set, row, column);
                match own {
                    Some(_) => self.inner.history.read(self.id, row, column, Seen::Own),
                    None => misses.push((i, row.clone(), column.clone())),
                }
                local.push(own);
            }
            (local, misses)
        };
        if misses.is_empty() {
            #[expect(
                clippy::expect_used,
                reason = "internal invariant, not client input: the misses.is_empty() branch guarantees every slot was filled from the write-set"
            )]
            let out: Vec<Option<Bytes>> =
                local.into_iter().map(|v| v.expect("all local")).collect();
            complete(&self.inner.sim, done, Ok(out));
            return;
        }
        let fetch: Vec<(Bytes, Bytes)> = misses
            .iter()
            .map(|(_, r, c)| (r.clone(), c.clone()))
            .collect();
        let inner = Rc::clone(&self.inner);
        let txn = self.id;
        self.at_snapshot(move |start_ts| {
            let history = inner.recorder();
            inner.store.multi_get(fetch, start_ts, move |values| {
                debug_assert_eq!(values.len(), misses.len());
                let mut out = local;
                for ((i, row, column), vv) in misses.into_iter().zip(values) {
                    if let Some(history) = &history {
                        history.read(txn, &row, &column, Seen::of(vv.as_ref()));
                    }
                    out[i] = Some(vv.and_then(|v| v.value));
                }
                #[expect(
                    clippy::expect_used,
                    reason = "internal invariant, not client input: every miss slot was just filled from the store batch reply above"
                )]
                let filled: Vec<Option<Bytes>> = out
                    .into_iter()
                    .map(|v| v.expect("filled by store batch"))
                    .collect();
                done(Ok(filled));
            });
        });
    }

    /// Transactional range scan over `[start, end)` (end-exclusive;
    /// `None` = to the end of the table) at the transaction's snapshot,
    /// returning up to `limit` cells in `(row, column)` order. The
    /// store scan walks **every region the range covers** (cross-region
    /// continuation, see `StoreClient::scan`), and the transaction's own
    /// buffered writes are merged over the whole merged result — not
    /// just the region containing `start`: buffered puts win per cell,
    /// buffered deletes hide cells, across all scanned regions.
    ///
    /// The store is asked for `limit` *plus the number of buffered
    /// deletes in range* hits: each buffered delete can hide at most one
    /// store cell post-merge, and without the over-fetch a scan could
    /// return fewer than `limit` rows even though more qualify. The
    /// continuation re-computes the outstanding budget per region leg
    /// (remaining = fetch limit − cells already accumulated), so even a
    /// first leg whose hits are *all* shadowed by local deletes still
    /// fills the limit from later regions.
    pub fn scan(
        &self,
        start: impl Into<Bytes>,
        end: Option<Bytes>,
        limit: usize,
        done: impl FnOnce(Result<Vec<(Bytes, Bytes, Bytes)>, TxnError>) + 'static,
    ) {
        let start = start.into();
        let own: Vec<Mutation> = match self.write_set() {
            Ok(write_set) => write_set
                .mutations
                .iter()
                .filter(|m| m.row >= start && end.as_ref().map(|e| m.row < *e).unwrap_or(true))
                .cloned()
                .collect(),
            Err(e) => return complete(&self.inner.sim, done, Err(e)),
        };
        let buffered_deletes = own
            .iter()
            .filter(|m| matches!(m.kind, MutationKind::Delete))
            .count();
        let fetch_limit = limit.saturating_add(buffered_deletes);
        let inner = Rc::clone(&self.inner);
        let txn = self.id;
        self.at_snapshot(move |start_ts| {
            let history = inner.recorder();
            inner
                .store
                .scan(start, end, start_ts, fetch_limit, move |hits| {
                    if let Some(history) = &history {
                        for (row, column, vv) in &hits {
                            history.read(txn, row, column, Seen::of(Some(vv)));
                        }
                    }
                    // Merge: buffered writes overwrite store results per cell.
                    let mut merged: Vec<(Bytes, Bytes, Bytes)> = hits
                        .into_iter()
                        .filter_map(|(r, c, vv)| vv.value.map(|v| (r, c, v)))
                        .collect();
                    for m in own {
                        merged.retain(|(r, c, _)| !(r == &m.row && c == &m.column));
                        if let MutationKind::Put(v) = &m.kind {
                            merged.push((m.row.clone(), m.column.clone(), v.clone()));
                        }
                    }
                    merged.sort();
                    merged.truncate(limit);
                    done(Ok(merged));
                });
        });
    }

    /// Buffers a put in the transaction's write-set (deferred updates:
    /// nothing reaches the store before commit).
    pub fn put(
        &self,
        row: impl Into<Bytes>,
        column: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> Result<(), TxnError> {
        self.write_set()?.push(Mutation::put(row, column, value));
        Ok(())
    }

    /// Buffers a delete in the transaction's write-set.
    pub fn delete(&self, row: impl Into<Bytes>, column: impl Into<Bytes>) -> Result<(), TxnError> {
        self.write_set()?.push(Mutation::delete(row, column));
        Ok(())
    }

    /// Commits the transaction (§2.2's termination phase): the write-set
    /// goes to the transaction manager; on success the commit timestamp
    /// is delivered and tracked in `FQ`, and the write-set is flushed to
    /// the store — before the ack in [`PersistenceMode::Synchronous`],
    /// after it in [`PersistenceMode::Asynchronous`].
    ///
    /// The request leaves at once, whether or not the begin has been
    /// answered: it travels behind the begin on the FIFO link to the
    /// manager, which checks conflicts against the snapshot it handed out.
    ///
    /// A read-only transaction (empty write-set) serialises at its
    /// snapshot, so its commit timestamp *is* its snapshot: it has nothing
    /// to log, flush or conflict-check and cannot abort. It sends nothing
    /// (the next begin or idle query ends it at the manager) and delivers
    /// `Ok(snapshot)` like a read: inside this call if the begin reply has
    /// landed (always, once a read has returned), else when it lands. It
    /// never enters `FQ` and draws no timestamp.
    ///
    /// A second commit, a commit after abort and a write commit whose
    /// begin never reached the manager report [`TxnError::UnknownTxn`]; a
    /// conflict-aborted commit reports [`TxnError::Conflict`].
    pub fn commit(&self, done: impl FnOnce(Result<Timestamp, TxnError>) + 'static) {
        let removed = self.inner.mem.borrow_mut().active.remove(&self.id);
        let Some(ws) = removed else {
            return complete(&self.inner.sim, done, Err(self.state_err()));
        };
        let txn = self.id;
        if ws.is_empty() {
            let inner = Rc::clone(&self.inner);
            self.at_snapshot(move |ts| {
                note_commit(&inner, txn, ts, 0);
                done(Ok(ts));
            });
            return;
        }
        // The manager keeps the request's copy in its log; this one is
        // flushed to the store once the commit is acknowledged.
        let ws2 = ws.clone();
        self.inner.history.commit_sent(txn, &ws);
        let inner = Rc::clone(&self.inner);
        self.inner.mem.borrow_mut().commits_in_flight += 1;
        self.inner.tm.commit(txn, ws, move |outcome| {
            inner.mem.borrow_mut().commits_in_flight -= 1;
            match outcome {
                CommitOutcome::Committed(ts) => {
                    note_commit(&inner, txn, ts, ws2.mutations.len());
                    inner.mem.borrow_mut().tracker.on_committed(ts);
                    match inner.cfg.persistence {
                        PersistenceMode::Asynchronous => {
                            done(Ok(ts));
                            // `done` is the caller's, and may have ended
                            // the process.
                            if inner.is_alive() {
                                flush_write_set(inner, ts, ws2, None);
                            }
                        }
                        PersistenceMode::Synchronous => {
                            flush_write_set(inner, ts, ws2, Some(Box::new(move || done(Ok(ts)))));
                        }
                    }
                }
                CommitOutcome::Conflict => {
                    note_abort(&inner, txn, "conflict");
                    done(Err(TxnError::Conflict));
                }
                CommitOutcome::UnknownTxn => {
                    note_abort(&inner, txn, "unknown");
                    done(Err(TxnError::UnknownTxn));
                }
            }
        });
    }

    /// Aborts the transaction: the write-set is discarded and nothing sent
    /// (the next begin or idle query ends it at the manager). Idempotent —
    /// an abort after commit/abort (or on a dead client, which holds no
    /// write-set) is a no-op.
    pub fn abort(&self) {
        let removed = self.inner.mem.borrow_mut().active.remove(&self.id);
        if removed.is_some() {
            note_abort(&self.inner, self.id, "user");
        }
    }
}

impl TcInner {
    /// Whether the process is alive: whether its node is.
    fn is_alive(&self) -> bool {
        self.net.is_alive(self.node)
    }

    /// Records a transaction-lifecycle span (`txn.begin` / `txn.commit` /
    /// `txn.abort` / `txn.retry`) in the trace journal: the one door this
    /// client's spans leave through, at event-execution time so the
    /// journal order is deterministic.
    fn span(&self, kind: &'static str, fields: &[Field]) {
        self.sim.trace().record(self.sim.now(), kind, &[fields]);
    }

    /// The history a store read's answer is recorded in, if one is
    /// attached: the read paths copy what they record only then.
    fn recorder(&self) -> Option<History> {
        self.history.recording().then(|| self.history.clone())
    }

    /// What this client's next begin or idle query tells the manager.
    fn session(&self) -> Session {
        let mem = self.mem.borrow();
        let next = TxnId::new(self.id, mem.next_seq);
        Session {
            floor: mem.active.keys().next().copied().unwrap_or(next),
            t_f: mem.tracker.t_f(),
        }
    }
}

/// What a transaction reads of a cell it wrote itself: the value it put,
/// or `None` for a delete; `None` outside if it did not write the cell.
fn own_write(write_set: &WriteSet, row: &[u8], column: &[u8]) -> Option<Option<Bytes>> {
    write_set.get(row, column).map(|kind| match kind {
        MutationKind::Put(v) => Some(v.clone()),
        MutationKind::Delete => None,
    })
}

/// Counts the commit of `txn` at `ts` and journals it.
fn note_commit(inner: &TcInner, txn: TxnId, ts: Timestamp, writes: usize) {
    inner.committed.inc();
    inner.history.ended(txn, Outcome::Committed(ts));
    let client = inner.id;
    inner.span("txn.commit", fields!(client, txn = txn.0, ts, writes));
}

/// Counts an abort of `txn` and journals its cause.
fn note_abort(inner: &TcInner, txn: TxnId, cause: &'static str) {
    inner.aborted.inc();
    inner.history.ended(txn, Outcome::Aborted(cause));
    inner.span("txn.abort", fields!(client = inner.id, txn = txn.0, cause));
}

impl TransactionalClient {
    /// Creates a client on `node`; its transaction counters are the
    /// run's `txn.*{client=<id>}` metrics, and its transactions go into
    /// `history` while that records. Call
    /// [`TransactionalClient::start`] before using it so it registers
    /// with the recovery manager.
    #[expect(
        clippy::too_many_arguments,
        reason = "a client is born wired: it takes every component it runs with, and a struct of them would only be unpacked here"
    )]
    pub fn new(
        sim: &Sim,
        net: &Rc<Network>,
        id: ClientId,
        node: NodeId,
        tm: TmClient,
        store: StoreClient,
        coord: CoordClient,
        cfg: TxnClientConfig,
        history: History,
    ) -> TransactionalClient {
        let cid = id.to_string();
        let counter = |name: &str| sim.metrics().counter(name, &[("client", cid.as_str())]);
        TransactionalClient {
            inner: Rc::new(TcInner {
                sim: sim.clone(),
                net: Rc::clone(net),
                id,
                node,
                tm,
                store,
                coord,
                cfg,
                mem: RefCell::new(Memory::new(sim.now())),
                history,
                committed: counter("txn.committed"),
                aborted: counter("txn.aborted"),
                flushed: counter("txn.flushed"),
                alerts: counter("txn.alerts"),
                conflict_retries: counter("txn.conflict_retries"),
            }),
        }
    }

    /// Registers with the recovery manager (Algorithm 1 "On startup"):
    /// seeds `T_F(c)` with the current global `T_F`, creates the
    /// threshold and liveness znodes, and starts the heartbeat.
    pub fn start(&self) {
        let inner = Rc::clone(&self.inner);
        // Seed the local threshold from the recovery manager's published
        // global T_F ("T_F(c) ← T_F").
        self.inner.coord.get_data(paths::TF_PATH, move |data| {
            let seed = data
                .map(|d| paths::decode_ts(&d))
                .unwrap_or(Timestamp::ZERO);
            inner.mem.borrow_mut().tracker = FlushTracker::with_threshold(seed);
            let inner2 = Rc::clone(&inner);
            inner
                .coord
                .create_session(inner.cfg.session_timeout, move |sid| {
                    inner2.mem.borrow_mut().session = Some(sid);
                    // Threshold (persistent) strictly before liveness
                    // (ephemeral): the recovery manager reads the threshold
                    // when it sees the liveness node appear or vanish.
                    if inner2.cfg.tracking {
                        inner2.coord.create(
                            &paths::client_threshold(inner2.id),
                            paths::encode_ts(inner2.mem.borrow().tracker.t_f()),
                            None,
                        );
                    }
                    inner2
                        .coord
                        .create(&paths::client_live(inner2.id), Bytes::new(), Some(sid));
                    let inner3 = Rc::clone(&inner2);
                    let beat = inner2.cfg.heartbeat_interval;
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "client heartbeat stagger draws from the seeded sim RNG; the desync avoids lockstep heartbeats and all pinned baselines include this draw"
                    )]
                    let first = inner2.sim.jitter(beat, 0.9);
                    let node = inner2.node;
                    inner2
                        .net
                        .every(node, first, beat, move || heartbeat(&inner3));
                });
        });
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.inner.id
    }

    /// The node the client runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// Whether the process is alive: whether its node is.
    pub fn is_alive(&self) -> bool {
        self.inner.is_alive()
    }

    /// Begins a transaction; `done` receives its [`Transaction`] handle
    /// on the next simulation step — or [`TxnError::ClientClosed`] /
    /// [`TxnError::ClientDead`] when the client can no longer begin one.
    /// Never panics.
    ///
    /// The begin request leaves at once, but the handle does not wait for
    /// its reply: reads are served at the transaction's snapshot (the flush
    /// watermark), so a read issued before the reply lands waits for it,
    /// while writes buffer and `commit` leaves at once, behind the begin on
    /// the FIFO link to the manager. A transaction that never reads the
    /// store waits for one manager round trip, not two.
    pub fn begin(&self, done: impl FnOnce(Result<Transaction, TxnError>) + 'static) {
        let inner = &self.inner;
        if inner.mem.borrow().closed {
            return complete(&inner.sim, done, Err(TxnError::ClientClosed));
        }
        if !inner.is_alive() {
            return complete(&inner.sim, done, Err(TxnError::ClientDead));
        }
        let mut mem = inner.mem.borrow_mut();
        let txn = TxnId::new(inner.id, mem.next_seq);
        mem.next_seq += 1;
        mem.active.insert(txn, WriteSet::new());
        drop(mem);
        inner.history.begun(txn);
        let snapshot = Rc::new(RefCell::new(Snapshot::Awaited(None)));
        let (on_reply, slot) = (Rc::clone(inner), Rc::clone(&snapshot));
        inner.tm.begin(txn, inner.session(), move |start_ts| {
            let fields = fields!(client = on_reply.id, txn = txn.0, snapshot = start_ts);
            on_reply.span("txn.begin", fields);
            on_reply.history.snapshot(txn, start_ts);
            if let Snapshot::Awaited(Some(reads)) = slot.replace(Snapshot::Known(start_ts)) {
                reads(start_ts);
            }
        });
        let node = inner.node;
        let inner = Rc::clone(inner);
        self.inner.net.after(node, SimDuration::ZERO, move || {
            if inner.mem.borrow().closed {
                // Shut down since `begin`: an open transaction would hold
                // the shutdown up. Its last idle query (tracking on) ends
                // it at the manager; this abort matches the begin's span.
                inner.mem.borrow_mut().active.remove(&txn);
                note_abort(&inner, txn, "closed");
                done(Err(TxnError::ClientClosed));
                return;
            }
            done(Ok(Transaction {
                inner,
                id: txn,
                snapshot,
            }));
        });
    }

    /// Runs `body` in a transaction and commits it, retrying the *whole
    /// body* in a **new** transaction (fresh snapshot, fresh commit
    /// timestamp — never a replay of the old write-set, so the `T_F(c)`
    /// invariant is untouched) when the commit reports
    /// [`TxnError::Conflict`], under the bounded deterministic backoff
    /// of `policy`.
    ///
    /// `body` receives the attempt's [`Transaction`] and a [`RunFinish`]
    /// continuation it must call exactly once when all its operations
    /// are issued: `Ok(())` commits, `Err(e)` aborts the attempt and
    /// propagates `e` (retrying if it is a conflict). `done` fires once
    /// with the final outcome: the commit timestamp, or the error that
    /// ended the attempts ([`TxnError::Conflict`] if retries ran out).
    pub fn run(
        &self,
        policy: RetryPolicy,
        body: impl Fn(Transaction, RunFinish) + 'static,
        done: impl FnOnce(Result<Timestamp, TxnError>) + 'static,
    ) {
        // No public client API panics on misuse: a zero attempt budget
        // degrades to "run once, never retry".
        let policy = RetryPolicy {
            max_attempts: policy.max_attempts.max(1),
            ..policy
        };
        run_attempt(
            Rc::clone(&self.inner),
            policy,
            Rc::new(body),
            0,
            Box::new(done),
        );
    }

    /// Clean shutdown (Algorithm 1 "On shutdown"): waits until every open
    /// transaction has finished and every commit — acknowledged yet or
    /// not — has flushed, sends a final pre-shutdown heartbeat,
    /// removes the threshold znode and closes the session — so the
    /// recovery manager unregisters this client without running recovery.
    /// Transactions already begun may still finish; new
    /// [`TransactionalClient::begin`]s report [`TxnError::ClientClosed`].
    pub fn shutdown(&self) {
        self.inner.mem.borrow_mut().closed = true;
        if self.is_alive() {
            try_finish_shutdown(Rc::clone(&self.inner));
        }
    }

    /// Crash-stop failure: the process dies mid-flight, and its memory
    /// with it: `FQ`/`FQ'`, the open write-sets, the session. The
    /// recovery manager will detect the missed heartbeats and replay any
    /// committed write-sets that were not fully flushed. The counters,
    /// the history and the store client's region map stay
    /// (ARCHITECTURE.md, "A process is its node").
    pub fn crash(&self) {
        die(&self.inner);
    }

    /// The client's current flushed threshold `T_F(c)`; a dead client
    /// knows none and reads [`Timestamp::ZERO`] (the recovery manager
    /// reads the threshold it last published).
    pub fn t_f(&self) -> Timestamp {
        self.inner.mem.borrow().tracker.t_f()
    }

    /// Committed transactions: write commits once acknowledged, read-only
    /// ones once delivered at their snapshot.
    pub fn committed_count(&self) -> u64 {
        self.inner.committed.get()
    }

    /// Aborted transactions.
    pub fn aborted_count(&self) -> u64 {
        self.inner.aborted.get()
    }

    /// Fully flushed write-sets.
    pub fn flushed_count(&self) -> u64 {
        self.inner.flushed.get()
    }

    /// Conflicted attempts re-executed by [`TransactionalClient::run`].
    pub fn conflict_retry_count(&self) -> u64 {
        self.inner.conflict_retries.get()
    }

    /// Commits whose flush is still outstanding. A dead client reads 0:
    /// its unflushed commits are the recovery manager's to replay.
    pub fn pending_flushes(&self) -> usize {
        self.inner.mem.borrow().tracker.pending()
    }

    /// The underlying store client (round-trip counters and region-map
    /// helpers for benchmarks and tests; transactional reads/writes must
    /// go through [`Transaction`]).
    pub fn store_client(&self) -> &StoreClient {
        &self.inner.store
    }
}

type RunBody = Rc<dyn Fn(Transaction, RunFinish)>;
type RunDone = Box<dyn FnOnce(Result<Timestamp, TxnError>)>;

fn run_attempt(
    inner: Rc<TcInner>,
    policy: RetryPolicy,
    body: RunBody,
    attempt: u32,
    done: RunDone,
) {
    let client = TransactionalClient {
        inner: Rc::clone(&inner),
    };
    client.begin(move |res| {
        let txn = match res {
            Ok(txn) => txn,
            Err(e) => {
                done(Err(e));
                return;
            }
        };
        let txn2 = txn.clone();
        let body2 = Rc::clone(&body);
        (body)(
            txn,
            Box::new(move |r| match r {
                Ok(()) => {
                    let txn3 = txn2.clone();
                    txn2.commit(move |outcome| {
                        settle_attempt(outcome, txn3.inner.clone(), policy, body2, attempt, done);
                    });
                }
                Err(e) => {
                    txn2.abort();
                    settle_attempt(Err(e), txn2.inner.clone(), policy, body2, attempt, done);
                }
            }),
        );
    });
}

fn settle_attempt(
    outcome: Result<Timestamp, TxnError>,
    inner: Rc<TcInner>,
    policy: RetryPolicy,
    body: RunBody,
    attempt: u32,
    done: RunDone,
) {
    match outcome {
        Err(TxnError::Conflict) if attempt + 1 < policy.max_attempts => {
            inner.conflict_retries.inc();
            let client = inner.id;
            inner.span("txn.retry", fields!(client, attempt = attempt + 1));
            let wait = policy.backoff_for(attempt);
            let (net, node) = (Rc::clone(&inner.net), inner.node);
            net.after(node, wait, move || {
                run_attempt(inner, policy, body, attempt + 1, done);
            });
        }
        other => done(other),
    }
}

/// Hands `value` to `done` on the next simulation step, whether or not
/// the client lives by then: a public call's failure, or a read of the
/// transaction's own writes, is owed to a caller outside the simulation.
/// The one completion bound to no node.
#[expect(clippy::disallowed_methods, reason = "CD007: owed to the caller")]
fn complete<T: 'static>(sim: &Sim, done: impl FnOnce(T) + 'static, value: T) {
    sim.schedule_in(SimDuration::ZERO, move || done(value));
}

/// The process stops, by crash or by its own hand: its node dies, so
/// nothing of it runs again, and its memory goes whole.
fn die(inner: &TcInner) {
    inner.net.crash(inner.node);
    *inner.mem.borrow_mut() = Memory::new(inner.sim.now());
}

fn heartbeat(inner: &Rc<TcInner>) {
    // Partition self-check: if the coordination service has been
    // unreachable for a whole session timeout, our session has (or will
    // have) expired and the recovery manager is recovering us — terminate
    // rather than risk acting as a zombie (§3.1).
    let last_ack = inner.mem.borrow().last_coord_ack;
    let silence = inner.sim.now().saturating_since(last_ack);
    if silence > inner.cfg.session_timeout {
        die(inner);
        return;
    }
    // Round trip to the coordination service doubling as reachability
    // probe (the response refreshes `last_coord_ack`).
    {
        let inner2 = Rc::clone(inner);
        inner.coord.get_data(crate::paths::TF_PATH, move |_| {
            inner2.mem.borrow_mut().last_coord_ack = inner2.sim.now();
        });
    }
    // Idle-client advancement: a client with no unflushed commits may
    // report any threshold ≥ its last local commit without violating the
    // local invariant (all its transactions are flushed). Advancing to
    // the transaction manager's latest assigned timestamp keeps an idle
    // client from pinning the global T_F (and with it, log truncation)
    // forever.
    //
    // Network FIFO alone does NOT make this safe: the manager assigns a
    // commit timestamp when the commit *request* arrives but acks only
    // after the log force, so its answer to a later idle query can carry
    // — and overtake the ack of — one of our own in-flight commits.
    // Adopting that timestamp would overclaim an unflushed local commit;
    // a crash mid-flush would then escape recovery replay, losing part
    // of a committed write-set (the half-applied race in
    // `tests/atomicity.rs`). Hence the `commits_in_flight` guard, checked
    // both before asking and before adopting: with no local commit in
    // flight, every timestamp the manager ever assigned to us has been
    // acked to us, so the idle tracker really does cover them all.
    if inner.cfg.tracking && inner.mem.borrow_mut().idle() {
        let inner2 = Rc::clone(inner);
        inner.tm.last_commit_ts(inner.session(), move |latest| {
            let mut mem = inner2.mem.borrow_mut();
            if mem.idle() && latest > mem.tracker.t_f() {
                mem.tracker = FlushTracker::with_threshold(latest);
            }
        });
    }
    let t_f = inner.mem.borrow_mut().tracker.advance();
    let pending = inner.mem.borrow().tracker.pending();
    if pending > ALERT_PENDING_THRESHOLD {
        inner.alerts.inc();
        inner.coord.set_data(
            &paths::alert("clients", inner.id.0),
            paths::encode_ts(Timestamp(pending as u64)),
        );
    }
    if inner.cfg.tracking {
        inner
            .coord
            .set_data(&paths::client_threshold(inner.id), paths::encode_ts(t_f));
    }
    if let Some(sid) = inner.mem.borrow().session {
        inner.coord.touch(sid);
    }
}

fn try_finish_shutdown(inner: Rc<TcInner>) {
    // A commit whose ack is still on the wire is not in `FQ` yet (the
    // window the heartbeat's `commits_in_flight` guard exists for), and an
    // open transaction may still commit: neither may find the threshold
    // znode gone and the session closed.
    let busy = {
        let mut mem = inner.mem.borrow_mut();
        !mem.active.is_empty() || !mem.idle()
    };
    if busy {
        let inner2 = Rc::clone(&inner);
        let poll = SimDuration::from_millis(20);
        inner
            .net
            .after(inner.node, poll, move || try_finish_shutdown(inner2));
        return;
    }
    // Final heartbeat, then unregister cleanly: delete the threshold
    // *before* the liveness node vanishes, so the recovery manager can
    // tell a clean shutdown from a crash.
    heartbeat(&inner);
    if inner.cfg.tracking {
        inner.coord.delete(&paths::client_threshold(inner.id));
    }
    if let Some(sid) = inner.mem.borrow().session {
        inner.coord.close_session(sid);
    }
    inner.net.stop_timers(inner.node);
}

/// Post-commit flush (§2.2): the write-set, stamped with the commit
/// timestamp, is sent to each participant region; when every region acks,
/// the flush is recorded in `FQ'` and the transaction manager's watermark
/// learns of it.
fn flush_write_set(
    inner: Rc<TcInner>,
    ts: Timestamp,
    ws: WriteSet,
    then: Option<Box<dyn FnOnce()>>,
) {
    debug_assert!(!ws.is_empty());
    let inner2 = Rc::clone(&inner);
    inner.store.flush(ts, &ws, move || {
        inner2.mem.borrow_mut().tracker.on_flushed(ts);
        inner2.flushed.inc();
        inner2.tm.flush_complete(ts);
        if let Some(cb) = then {
            cb();
        }
    });
}
